//! Optimized local hashing (OLH).
//!
//! Each user samples a hash function `H` from a universal family mapping the
//! candidate domain into `d' = ⌈e^ε⌉ + 1` buckets, hashes her value and
//! perturbs the bucket with GRR over `[d']`.  The report is the pair
//! `(seed, perturbed bucket)`.  On the server side a report *supports*
//! candidate `x` when `H_seed(x)` equals the reported bucket
//! (`c_x = |{u | H_u(x) = y_u}|`, Section 3.2).  The estimation variance
//! matches OUE while keeping reports tiny, at the cost of hashing every
//! candidate for every report during aggregation.

use crate::batch::{ReportBatch, Repr};
use crate::budget::PrivacyBudget;
use crate::ctr::{self, CtrRng};
use crate::error::FoError;
use crate::estimate::{oue_variance, FrequencyEstimate, SupportCounts};
use crate::hash::{olh_buckets, vec_boundary, vec_bucket, vec_combine, vec_premix, vec_preseed};
use crate::oracle::FrequencyOracle;

/// Adds to `counts[x]` the number of reports `(seeds[j], values[j])` that
/// support candidate `x`, on the widest copy of [`count_supports_body`] the
/// CPU runs.  Both copies produce the same `u32` hit counts and add them
/// into `counts` in the same order, so the result is bit-identical on every
/// CPU.
#[allow(unsafe_code)]
fn count_supports(seeds: &[u64], values: &[u32], buckets: u32, counts: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the check above proved this CPU executes AVX2, the only
        // precondition of calling a `#[target_feature(enable = "avx2")]`
        // function.
        return unsafe { count_supports_avx2(seeds, values, buckets, counts) };
    }
    count_supports_portable(seeds, values, buckets, counts)
}

/// [`count_supports_body`] compiled for the build target's baseline ISA
/// (SSE2 on `x86_64`, where it emulates the 32-bit lane multiply).
fn count_supports_portable(seeds: &[u64], values: &[u32], buckets: u32, counts: &mut [f64]) {
    count_supports_body(seeds, values, buckets, counts);
}

/// [`count_supports_body`] compiled with AVX2: eight hash lanes per
/// register and a native 32-bit lane multiply (`vpmulld`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn count_supports_avx2(seeds: &[u64], values: &[u32], buckets: u32, counts: &mut [f64]) {
    count_supports_body(seeds, values, buckets, counts);
}

/// How many buckets' Lemire intervals [`count_supports_body`] tabulates:
/// every bucket up to ε ≈ 8.3, so the paper's ε ≤ 5 and more.  A
/// saturated d′ = `u32::MAX` (ε ≥ 22.18) would take 32 GiB in full.
const INTERVAL_TABLE: u64 = 4096;

/// The OLH aggregation loop, written once and inlined into each
/// instantiation above.
///
/// Blocked, with the per-candidate hash state hoisted: for each block of
/// reports the per-report halves (preseed) and the reported bucket's
/// Lemire interval `[lo, lo+span)` are computed once; the candidate loop
/// then tests membership with one combine (two multiplies) and one compare
/// per (candidate, report) pair.  A value outside `[0, buckets)` — a report
/// perturbed under a larger budget — gets the empty interval and supports
/// nothing, as no candidate hashes to it.
///
/// The intervals of the first [`INTERVAL_TABLE`] buckets are tabulated
/// once per call; a value past them has its interval computed per report.
#[inline(always)]
fn count_supports_body(seeds: &[u64], values: &[u32], buckets: u32, counts: &mut [f64]) {
    let buckets = u64::from(buckets);
    let interval_of = |v: u64| {
        let lo = vec_boundary(v, buckets);
        let hi = vec_boundary(v + 1, buckets);
        (lo as u32, (hi - lo) as u32)
    };
    let interval: Vec<(u32, u32)> = (0..buckets.min(INTERVAL_TABLE)).map(interval_of).collect();
    const BLOCK: usize = 256;
    let mut pre = [0u32; BLOCK];
    let mut lo = [0u32; BLOCK];
    let mut span = [0u32; BLOCK];
    for (seed_block, value_block) in seeds.chunks(BLOCK).zip(values.chunks(BLOCK)) {
        let len = seed_block.len();
        for (j, (&seed, &value)) in seed_block.iter().zip(value_block).enumerate() {
            pre[j] = vec_preseed(seed);
            (lo[j], span[j]) = match interval.get(value as usize) {
                Some(&bounds) => bounds,
                None if u64::from(value) < buckets => interval_of(u64::from(value)),
                None => (0, 0),
            };
        }
        let (pre, lo, span) = (&pre[..len], &lo[..len], &span[..len]);
        for (candidate, slot) in counts.iter_mut().enumerate() {
            let premix = vec_premix(candidate as u64);
            let mut hits = 0u32;
            for ((&p, &l), &s) in pre.iter().zip(lo).zip(span) {
                let h = vec_combine(premix, p);
                hits += u32::from(h.wrapping_sub(l) < s);
            }
            *slot += f64::from(hits);
        }
    }
}

/// The optimized local hashing oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct OlhOracle {
    budget: PrivacyBudget,
    domain_size: usize,
    buckets: u32,
    /// GRR keep probability over the hashed domain [d'].
    p: f64,
    /// GRR flip probability over the hashed domain [d'].
    q: f64,
}

impl OlhOracle {
    /// Creates an OLH oracle over a candidate domain with `domain_size`
    /// slots (including the dummy slot, if any).
    pub fn new(budget: PrivacyBudget, domain_size: usize) -> Result<Self, FoError> {
        if domain_size < 2 {
            return Err(FoError::DomainTooSmall(domain_size));
        }
        let e = budget.exp_epsilon();
        let buckets = olh_buckets(e);
        let denom = buckets as f64 - 1.0 + e;
        Ok(Self {
            budget,
            domain_size,
            buckets,
            p: e / denom,
            q: 1.0 / denom,
        })
    }

    /// Number of hash buckets d'.
    #[inline]
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// Probability of reporting the true hash bucket.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability that a perturbed report supports an arbitrary non-true
    /// candidate: q* = 1/d' (a uniformly random bucket collides with any
    /// fixed candidate's hash with probability 1/d').
    #[inline]
    pub fn q_star(&self) -> f64 {
        1.0 / self.buckets as f64
    }

    /// The configured domain size |X|.
    #[inline]
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }
}

impl FrequencyOracle for OlhOracle {
    fn perturb_vectorized(&self, inputs: &[usize], rng: &CtrRng, base: u64, out: &mut ReportBatch) {
        // Counter-addressed draws (0: hash seed, 1: keep coin, 2: flip
        // target) into parallel seed/value columns, hashed with the
        // division-free family `aggregate_vectorized` recomputes.
        let t_p = ctr::bernoulli_threshold(self.p);
        let buckets = self.buckets;
        let (seeds, values) = out.hashed_mut();
        seeds.reserve(inputs.len());
        values.reserve(inputs.len());
        for (offset, &input) in inputs.iter().enumerate() {
            debug_assert!(input < self.domain_size, "input index out of domain");
            let s = rng.stream(base + offset as u64);
            let seed = s.word(0);
            let true_bucket = vec_bucket(vec_premix(input as u64), vec_preseed(seed), buckets);
            let keep = ctr::u53(s.word(1)) < t_p;
            let mut other = ctr::bounded(s.word(2), (buckets - 1) as u64) as u32;
            other += u32::from(other >= true_bucket);
            seeds.push(seed);
            values.push(if keep { true_bucket } else { other });
        }
    }

    fn aggregate_vectorized(&self, batch: &ReportBatch, supports: &mut SupportCounts) {
        debug_assert_eq!(supports.slots(), self.domain_size);
        let (seeds, values) = match &batch.repr {
            Repr::Hashed { seeds, values } => (seeds, values),
            _ => batch.foreign(Repr::hashed()),
        };
        count_supports(seeds, values, self.buckets, supports.as_mut_slice());
        supports.record_reports(seeds.len());
    }

    fn estimate(&self, supports: &SupportCounts, n: usize) -> FrequencyEstimate {
        // Support probability for the true value is p; for any other value it
        // is q* = 1/d' because a non-true report lands on the candidate's
        // bucket uniformly.
        FrequencyEstimate::from_supports(supports, self.p, self.q_star(), n)
    }

    fn variance(&self, n: usize) -> f64 {
        oue_variance(self.budget.exp_epsilon(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Columns;

    fn oracle(eps: f64, d: usize) -> OlhOracle {
        OlhOracle::new(PrivacyBudget::new(eps).unwrap(), d).unwrap()
    }

    #[test]
    fn bucket_count_follows_budget() {
        let o = oracle(1.0, 100);
        assert_eq!(o.buckets(), 1.0f64.exp().ceil() as u32 + 1);
        let o = oracle(4.0, 100);
        assert_eq!(o.buckets(), 4.0f64.exp().ceil() as u32 + 1);
    }

    #[test]
    fn grr_over_buckets_satisfies_ldp_ratio() {
        let o = oracle(2.0, 64);
        assert!((o.p() / ((1.0 - o.p()) / (o.buckets() as f64 - 1.0)) - 2.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn estimation_recovers_skewed_distribution() {
        let o = oracle(3.0, 16);
        let n = 30_000;
        // 60% hold slot 1, 40% hold slot 9.
        let inputs: Vec<usize> = (0..n).map(|i| if i % 10 < 6 { 1 } else { 9 }).collect();
        let mut batch = ReportBatch::new();
        o.perturb_vectorized(&inputs, &CtrRng::new(17), 0, &mut batch);
        let mut supports = SupportCounts::zeros(16);
        o.aggregate_vectorized(&batch, &mut supports);
        let est = o.estimate(&supports, n);
        assert!(
            (est.frequency(1) - 0.6).abs() < 0.05,
            "f1 = {}",
            est.frequency(1)
        );
        assert!(
            (est.frequency(9) - 0.4).abs() < 0.05,
            "f9 = {}",
            est.frequency(9)
        );
        for slot in [0, 2, 3, 4, 5, 6, 7, 8, 10] {
            assert!(
                est.frequency(slot).abs() < 0.05,
                "slot {slot} = {}",
                est.frequency(slot)
            );
        }
    }

    #[test]
    fn variance_matches_oue() {
        let olh = oracle(2.0, 128);
        let oue = crate::oue::OueOracle::new(PrivacyBudget::new(2.0).unwrap(), 128).unwrap();
        use crate::oracle::FrequencyOracle as _;
        assert!((olh.variance(500) - oue.variance(500)).abs() < 1e-15);
    }

    #[test]
    fn report_size_is_constant() {
        for domain in [2, 100_000] {
            let mut batch = ReportBatch::new();
            oracle(1.0, domain).perturb_vectorized(&[1], &CtrRng::new(1), 0, &mut batch);
            assert_eq!(batch.size_bits(), 96, "domain {domain}");
        }
    }

    #[test]
    fn rejects_tiny_domains() {
        assert!(OlhOracle::new(PrivacyBudget::new(1.0).unwrap(), 1).is_err());
    }

    /// Whether `count_supports` runs the AVX2 copy on this CPU.
    fn dispatches_avx2() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// The dispatched copy of the aggregation loop (AVX2 where the CPU has
    /// it) and the portable copy produce identical supports on identical
    /// batches: block-boundary batch sizes, domains around the SIMD widths,
    /// and budgets from 3 to 2 982 buckets, plus ε 40, whose saturated
    /// d′ = `u32::MAX` lies past the tabulated intervals.  The portable copy
    /// is also checked against the per-pair bucket definition, so a CPU
    /// without AVX2 still tests the one copy it runs.
    #[test]
    fn dispatched_and_portable_loops_count_identical_supports() {
        if !dispatches_avx2() {
            eprintln!("no AVX2 on this CPU: checking the portable aggregation loop alone");
        }
        for eps in [0.5, 4.0, 8.0, 40.0] {
            for domain in [2, 41, 65, 2049] {
                let o = oracle(eps, domain);
                for n in [0, 1, 255, 256, 257, 16_387] {
                    let inputs: Vec<usize> = (0..n).map(|i| i * 7919 % domain).collect();
                    let mut batch = ReportBatch::new();
                    o.perturb_vectorized(&inputs, &CtrRng::new(n as u64), 0, &mut batch);
                    let (seeds, values) = batch.hashed_mut();
                    let mut dispatched = SupportCounts::zeros(domain);
                    count_supports(seeds, values, o.buckets, dispatched.as_mut_slice());
                    let mut portable = SupportCounts::zeros(domain);
                    count_supports_portable(seeds, values, o.buckets, portable.as_mut_slice());
                    assert_eq!(dispatched, portable, "eps {eps}, domain {domain}, n {n}");
                    if n > 257 {
                        continue;
                    }
                    let reference: Vec<f64> = (0..domain)
                        .map(|x| {
                            let premix = vec_premix(x as u64);
                            let hits =
                                seeds.iter().zip(values.iter()).filter(|&(&seed, &value)| {
                                    vec_bucket(premix, vec_preseed(seed), o.buckets) == value
                                });
                            hits.count() as f64
                        })
                        .collect();
                    assert_eq!(
                        portable.as_slice(),
                        reference,
                        "eps {eps}, domain {domain}, n {n}"
                    );
                }
            }
        }
    }

    /// A batch perturbed under ε = 8 (2 982 buckets) and aggregated by an
    /// ε = 1 oracle (4 buckets) carries values past the aggregator's last
    /// bucket.  Those reports support nothing, and the rest count as if the
    /// batch held them alone.
    #[test]
    fn out_of_range_values_support_nothing() {
        let (wide, narrow) = (oracle(8.0, 8), oracle(1.0, 8));
        let n = 20_000;
        let inputs: Vec<usize> = (0..n).map(|i| i % 8).collect();
        let mut batch = ReportBatch::new();
        wide.perturb_vectorized(&inputs, &CtrRng::new(3), 0, &mut batch);
        let Columns::Hashed {
            seeds: all_seeds,
            values: all_values,
        } = batch.columns()
        else {
            panic!("an OLH batch")
        };
        let mut in_range = ReportBatch::new();
        let (seeds, values) = in_range.hashed_mut();
        for (&seed, &value) in all_seeds.iter().zip(all_values) {
            if value < narrow.buckets() {
                seeds.push(seed);
                values.push(value);
            }
        }
        assert!(
            (1..n).contains(&in_range.len()),
            "{} in range",
            in_range.len()
        );

        let mut got = SupportCounts::zeros(8);
        narrow.aggregate_vectorized(&batch, &mut got);
        let mut want = SupportCounts::zeros(8);
        narrow.aggregate_vectorized(&in_range, &mut want);
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(got.reports(), n);
    }
}
