//! Optimized unary encoding (OUE).
//!
//! The input is one-hot encoded over the candidate domain and every bit is
//! perturbed independently: a 1-bit is kept with probability `p = 1/2`, a
//! 0-bit is flipped to 1 with probability `q = 1/(e^ε + 1)` (Section 3.2).
//! The report is the whole perturbed bit-vector, so communication grows with
//! the domain size, but the estimation variance `4e^ε/((e^ε−1)²n)` is
//! independent of the domain size, which is why the paper recommends OUE for
//! large domains.

use crate::batch::{PackedBits, ReportBatch, Repr};
use crate::budget::PrivacyBudget;
use crate::ctr::{self, CtrRng};
use crate::error::FoError;
use crate::estimate::{oue_variance, FrequencyEstimate, SupportCounts};
use crate::oracle::FrequencyOracle;

/// Bitsliced comparison planes per 64-slot block in the vectorized
/// perturb kernel: the top `PLANES` bits of each slot's 53-bit uniform are
/// drawn as whole `u64` words (one bit per slot) and compared against the
/// flip threshold branch-free; only slots still tied after `PLANES` bits
/// (probability 2⁻⁸ each) pay for a full-width fixup draw.
const PLANES: usize = 8;

/// Bits of the 53-bit uniform resolved by the tie-fixup draw.
const LO_BITS: u32 = 53 - PLANES as u32;

/// The optimized unary encoding oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct OueOracle {
    budget: PrivacyBudget,
    domain_size: usize,
    p: f64,
    q: f64,
}

impl OueOracle {
    /// Creates an OUE oracle over a candidate domain with `domain_size`
    /// slots (including the dummy slot, if any).
    pub fn new(budget: PrivacyBudget, domain_size: usize) -> Result<Self, FoError> {
        if domain_size < 2 {
            return Err(FoError::DomainTooSmall(domain_size));
        }
        Ok(Self {
            budget,
            domain_size,
            p: 0.5,
            q: 1.0 / (budget.exp_epsilon() + 1.0),
        })
    }

    /// Probability that a true 1-bit stays 1.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability that a true 0-bit flips to 1.
    #[inline]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The configured domain size |X|.
    #[inline]
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }
}

impl FrequencyOracle for OueOracle {
    fn perturb_vectorized(&self, inputs: &[usize], rng: &CtrRng, base: u64, out: &mut ReportBatch) {
        // Branch-free bit-packed kernel: all 64 slots of a block flip their
        // q-coins at once.  Per slot the 53-bit uniform is split as
        // `u = u_hi · 2^45 | u_lo`; the top PLANES bits arrive *bitsliced*
        // (plane word m carries bit `PLANES-1-m` of every slot's u_hi), so
        // one pass of mask algebra decides `u_hi < t_hi` / `u_hi == t_hi`
        // for the whole block.  Tied slots — expected 64/2^PLANES = 0.25
        // per block — resolve `u_lo < t_lo` with one dedicated draw each.
        //
        // Draw layout per report (pure in the slot, so chunk-invariant):
        //   draw 0                       — the true slot's p-coin
        //   draws 1 + block·PLANES ..    — the block's q-coin planes
        //   draws fix_base + slot        — tie fixups
        let d = self.domain_size;
        let words_per = d.div_ceil(64);
        let t_p = ctr::bernoulli_threshold(self.p);
        let t_q = ctr::bernoulli_threshold(self.q);
        debug_assert!(t_q < 1 << 53, "q < 1 by construction");
        let q_hi = t_q >> LO_BITS;
        let q_lo = t_q & ((1u64 << LO_BITS) - 1);
        let fix_base = 1 + (words_per * PLANES) as u64;
        let packed = out.packed_mut(d);
        packed.words.reserve(inputs.len() * words_per);
        for (offset, &input) in inputs.iter().enumerate() {
            debug_assert!(input < d, "input index out of domain");
            let s = rng.stream(base + offset as u64);
            let row_start = packed.words.len();
            for block in 0..words_per {
                let mut lt = 0u64; // slots already decided below threshold
                let mut eq = !0u64; // slots still tied with the threshold
                let first_draw = 1 + (block * PLANES) as u64;
                for m in 0..PLANES {
                    let plane = s.word(first_draw + m as u64);
                    let t_m = 0u64.wrapping_sub((q_hi >> (PLANES - 1 - m)) & 1);
                    lt |= eq & !plane & t_m;
                    eq &= !(plane ^ t_m);
                }
                let lane_mask = if block == words_per - 1 && !d.is_multiple_of(64) {
                    (1u64 << (d % 64)) - 1
                } else {
                    !0u64
                };
                let mut bits = lt & lane_mask;
                if q_lo > 0 {
                    let mut ties = eq & lane_mask;
                    while ties != 0 {
                        let lane = ties.trailing_zeros();
                        let slot = (block * 64 + lane as usize) as u64;
                        if s.word(fix_base + slot) >> (64 - LO_BITS) < q_lo {
                            bits |= 1u64 << lane;
                        }
                        ties &= ties - 1;
                    }
                }
                packed.words.push(bits);
            }
            // The true slot's coin uses threshold p, overwriting its q-coin.
            let keep = ctr::u53(s.word(0)) < t_p;
            let word = &mut packed.words[row_start + input / 64];
            let bit = 1u64 << (input % 64);
            *word = (*word & !bit) | (u64::from(keep) * bit);
            packed.reports += 1;
        }
    }

    fn aggregate_vectorized(&self, batch: &ReportBatch, supports: &mut SupportCounts) {
        debug_assert_eq!(supports.slots(), self.domain_size);
        match &batch.repr {
            Repr::Packed(packed) if packed.width == self.domain_size => {
                // Sparse popcount walk: at the recommended large-domain
                // epsilons most bits are 0, so iterating set bits beats
                // testing every slot.
                let counts = supports.as_mut_slice();
                for row in packed.words.chunks_exact(packed.words_per_report) {
                    for (block, &word) in row.iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            counts[block * 64 + bits.trailing_zeros() as usize] += 1.0;
                            bits &= bits - 1;
                        }
                    }
                }
                supports.record_reports(packed.reports);
            }
            _ => batch.foreign(Repr::Packed(PackedBits::new(self.domain_size))),
        }
    }

    fn estimate(&self, supports: &SupportCounts, n: usize) -> FrequencyEstimate {
        FrequencyEstimate::from_supports(supports, self.p, self.q, n)
    }

    fn variance(&self, n: usize) -> f64 {
        oue_variance(self.budget.exp_epsilon(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Columns;

    fn oracle(eps: f64, d: usize) -> OueOracle {
        OueOracle::new(PrivacyBudget::new(eps).unwrap(), d).unwrap()
    }

    #[test]
    fn probabilities_match_paper() {
        let o = oracle(2.0, 10);
        assert_eq!(o.p(), 0.5);
        assert!((o.q() - 1.0 / (2.0f64.exp() + 1.0)).abs() < 1e-12);
        // The per-bit likelihood ratio is bounded by e^ε:
        // the worst case ratio is p(1−q)/(q(1−p)) = e^ε.
        let ratio = (o.p() * (1.0 - o.q())) / (o.q() * (1.0 - o.p()));
        assert!((ratio - 2.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn report_length_equals_domain() {
        let o = oracle(1.0, 17);
        let mut batch = ReportBatch::new();
        o.perturb_vectorized(&[3], &CtrRng::new(1), 0, &mut batch);
        match batch.columns() {
            Columns::Packed { width, words } => assert_eq!((width, words.len()), (17, 1)),
            other => panic!("unexpected columns {other:?}"),
        }
        assert_eq!(batch.size_bits(), 17);
    }

    #[test]
    fn estimation_recovers_skewed_distribution() {
        let o = oracle(3.0, 8);
        let n = 20_000;
        // 70% of users hold slot 2, 30% hold slot 5.
        let inputs: Vec<usize> = (0..n).map(|i| if i % 10 < 7 { 2 } else { 5 }).collect();
        let mut batch = ReportBatch::new();
        o.perturb_vectorized(&inputs, &CtrRng::new(9), 0, &mut batch);
        let mut supports = SupportCounts::zeros(8);
        o.aggregate_vectorized(&batch, &mut supports);
        let est = o.estimate(&supports, n);
        assert!((est.frequency(2) - 0.7).abs() < 0.03);
        assert!((est.frequency(5) - 0.3).abs() < 0.03);
        for slot in [0, 1, 3, 4, 6, 7] {
            assert!(est.frequency(slot).abs() < 0.03);
        }
    }

    #[test]
    fn variance_is_domain_independent() {
        let small = oracle(2.0, 4);
        let large = oracle(2.0, 4096);
        assert!((small.variance(1000) - large.variance(1000)).abs() < 1e-15);
    }

    #[test]
    fn rejects_tiny_domains() {
        assert!(OueOracle::new(PrivacyBudget::new(1.0).unwrap(), 1).is_err());
    }
}
