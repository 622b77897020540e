//! Poisson-shaped rank weighting.
//!
//! The paper's SYN parties labelled "Poisson (λ)" draw item popularity from
//! a Poisson-shaped profile: the item of rank r has weight equal to the
//! Poisson(λ) probability mass at r.  Unlike Zipf, this produces a hump of
//! comparable frequencies around rank λ, which stresses the mechanisms'
//! ability to separate near-ties under LDP noise.

use crate::cdf::{cumulative, GuidedCdf};
use rand::Rng;

/// A sampler over ranks `0..n` weighted by the Poisson(λ) pmf.
#[derive(Debug, Clone)]
pub struct PoissonWeights {
    cdf: GuidedCdf,
    lambda: f64,
}

impl PoissonWeights {
    /// Creates a Poisson-weighted sampler over `n` ranks.
    pub fn new(n: usize, lambda: f64) -> Self {
        assert!(n > 0, "Poisson sampler needs at least one rank");
        assert!(lambda > 0.0 && lambda.is_finite(), "λ must be positive");
        let weights: Vec<f64> = (0..n).map(|r| poisson_pmf(r, lambda)).collect();
        Self {
            cdf: GuidedCdf::new(cumulative(&weights)),
            lambda,
        }
    }

    /// The rate parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
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

/// Poisson probability mass function computed in log space for stability.
fn poisson_pmf(k: usize, lambda: f64) -> f64 {
    let k_f = k as f64;
    let log_p = k_f * lambda.ln() - lambda - ln_factorial(k);
    log_p.exp()
}

/// ln(k!) via the log-gamma recurrence (exact summation is fine for the
/// modest ranks used by the generators).
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

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_lambda() {
        PoissonWeights::new(10, -1.0);
    }
}
