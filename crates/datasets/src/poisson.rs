//! Poisson-shaped rank weighting.
//!
//! The paper's SYN parties labelled "Poisson (λ)" draw item popularity from
//! a Poisson-shaped profile: the item of rank r has weight equal to the
//! Poisson(λ) probability mass at r.  Unlike Zipf, this produces a hump of
//! comparable frequencies around rank λ, which stresses the mechanisms'
//! ability to separate near-ties under LDP noise.
//!
//! The weights are built in one pass: `ln r!` is carried from rank to rank
//! as a running sum instead of being re-summed for every rank, so a domain
//! of `n` ranks costs `n` logarithms, not `n²/2`.  The running sum starts
//! from the neutral element of `f64`'s `Sum` and adds `ln 1, ln 2, …` in
//! the same order as the per-rank fold, so every weight — and so every CDF
//! entry and every SYN item — is bit-identical to the per-rank pmf.

use crate::cdf::{cumulative, GuidedCdf};
use rand::Rng;

/// A sampler over ranks `0..n` weighted by the Poisson(λ) pmf.
#[derive(Debug, Clone)]
pub struct PoissonWeights {
    cdf: GuidedCdf,
}

impl PoissonWeights {
    /// Creates a Poisson-weighted sampler over `n` ranks.
    pub fn new(n: usize, lambda: f64) -> Self {
        assert!(n > 0, "Poisson sampler needs at least one rank");
        assert!(lambda > 0.0 && lambda.is_finite(), "λ must be positive");
        Self {
            cdf: GuidedCdf::new(cumulative(&pmf(n, lambda))),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler has no ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of rank `r` after normalization over `0..n`.
    pub fn probability(&self, r: usize) -> f64 {
        self.cdf.probability(r)
    }

    /// Samples a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.cdf.sample(rng)
    }

    /// Consumes the sampler, returning its guided cumulative distribution
    /// (used by the streaming dataset generators, which sample the CDF
    /// directly so a party's item sequence can be regenerated chunk by
    /// chunk).
    pub fn into_cdf(self) -> GuidedCdf {
        self.cdf
    }
}

/// The Poisson(λ) pmf at ranks `0..n`, computed in log space for
/// stability.
fn pmf(n: usize, lambda: f64) -> Vec<f64> {
    let ln_lambda = lambda.ln();
    ln_factorials()
        .take(n)
        .enumerate()
        .map(|(r, ln_factorial)| (r as f64 * ln_lambda - lambda - ln_factorial).exp())
        .collect()
}

/// `ln r!` for `r = 0, 1, 2, …` as one running sum (see the module docs).
fn ln_factorials() -> impl Iterator<Item = f64> {
    let empty_sum: f64 = std::iter::empty::<f64>().sum();
    std::iter::once(empty_sum).chain((1usize..).scan(empty_sum, |acc, r| {
        *acc += (r as f64).ln();
        Some(*acc)
    }))
}

/// The per-rank pmf [`pmf`] must equal bit for bit.
#[cfg(test)]
fn poisson_pmf(k: usize, lambda: f64) -> f64 {
    let k_f = k as f64;
    let log_p = k_f * lambda.ln() - lambda - ln_factorial(k);
    log_p.exp()
}

/// ln(k!) summed directly: the reference for [`pmf`]'s running sum.
#[cfg(test)]
fn ln_factorial(k: usize) -> f64 {
    (1..=k).map(|i| (i as f64).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_peaks_near_lambda() {
        let p = PoissonWeights::new(40, 10.0);
        let mode = (0..40)
            .max_by(|a, b| p.probability(*a).partial_cmp(&p.probability(*b)).unwrap())
            .unwrap();
        assert!((9..=10).contains(&mode), "mode {mode}");
        let total: f64 = (0..40).map(|r| p.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smaller_lambda_concentrates_on_low_ranks() {
        let small = PoissonWeights::new(30, 2.0);
        let large = PoissonWeights::new(30, 15.0);
        let small_head: f64 = (0..5).map(|r| small.probability(r)).sum();
        let large_head: f64 = (0..5).map(|r| large.probability(r)).sum();
        assert!(small_head > large_head);
    }

    #[test]
    fn empirical_distribution_matches_pmf() {
        let p = PoissonWeights::new(25, 6.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut counts = [0usize; 25];
        for _ in 0..n {
            counts[p.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate().take(10).skip(2) {
            let emp = count as f64 / n as f64;
            assert!((emp - p.probability(r)).abs() < 0.01, "rank {r}: {emp}");
        }
    }

    #[test]
    fn ln_factorial_matches_direct_computation() {
        assert_eq!(ln_factorial(0), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-9);
        assert!((ln_factorial(10) - 3628800f64.ln()).abs() < 1e-9);
    }

    /// The running `ln k!` equals the direct sum bit for bit at every
    /// `k ≤ 10 000` and at every thousandth `k` up to 100 000.  The direct
    /// sum is quadratic in `k`: every `k ≤ 100 000` would be 5·10⁹
    /// logarithms.
    #[test]
    fn running_ln_factorial_equals_the_direct_sum() {
        for (k, running) in ln_factorials().enumerate().take(100_001) {
            if k <= 10_000 || k % 1_000 == 0 {
                assert_eq!(running.to_bits(), ln_factorial(k).to_bits(), "k = {k}");
            }
        }
    }

    /// The one-pass weights equal the per-rank pmf bit for bit over 20 000
    /// ranks — far past the rank where both underflow to 0 — for the four
    /// SYN λ and one λ either side of them.
    #[test]
    fn weights_equal_the_per_rank_pmf() {
        std::thread::scope(|scope| {
            for lambda in [0.5, 4.0, 6.0, 8.0, 10.0, 50.0] {
                scope.spawn(move || {
                    for (r, weight) in pmf(20_000, lambda).into_iter().enumerate() {
                        let reference = poisson_pmf(r, lambda);
                        assert_eq!(
                            weight.to_bits(),
                            reference.to_bits(),
                            "λ {lambda}, rank {r}"
                        );
                    }
                });
            }
        });
    }

    /// FNV-1a over `f64::to_bits` of every CDF entry, for domains from one
    /// rank to far past the rank where the pmf underflows to 0, under the
    /// four SYN λ.  A rewrite of the weights that is not bit-identical to
    /// the per-rank pmf (a recurrence such as `p·λ/k` drifts by ulps and
    /// underflows at another rank) moves these.
    #[test]
    fn weights_match_pinned_bits() {
        let expected: [(usize, [u64; 4]); 5] = [
            (1, [0xc293_bd4c_8601_b7df; 4]),
            (
                2,
                [
                    0x37b6_f5de_af1d_9c1c,
                    0x19cb_dc7a_8e55_4b30,
                    0x31ac_6f6d_914e_87ee,
                    0xf2c4_bee2_b890_8360,
                ],
            ),
            (
                40,
                [
                    0x17ec_4614_e30a_527c,
                    0x760f_faba_f372_e92b,
                    0xaff8_3b2c_2708_fdb4,
                    0xa83b_d169_141b_f053,
                ],
            ),
            (
                2_049,
                [
                    0xaa6b_6e85_0931_4034,
                    0xcfd1_df77_2208_3371,
                    0xa8ae_5fd4_97ef_7880,
                    0x9e56_fa23_2872_6462,
                ],
            ),
            (
                20_000,
                [
                    0x4fe5_da1a_b1e1_3afc,
                    0x70b8_5c9a_7e92_69cb,
                    0xe928_8523_3d21_9aed,
                    0x8b12_0936_121c_b9bd,
                ],
            ),
        ];
        for (n, want) in expected {
            let got = [4.0, 6.0, 8.0, 10.0].map(|lambda| {
                let cdf = PoissonWeights::new(n, lambda).into_cdf();
                cdf.entries()
                    .iter()
                    .fold(0xcbf2_9ce4_8422_2325u64, |hash, p| {
                        (hash ^ p.to_bits()).wrapping_mul(0x100_0000_01b3)
                    })
            });
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_lambda() {
        PoissonWeights::new(10, -1.0);
    }
}
