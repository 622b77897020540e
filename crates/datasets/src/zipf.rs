//! Zipf-distributed rank sampling.
//!
//! Word frequencies, product popularity and most other heavy-hitter
//! workloads are classically Zipfian: the item of rank r has probability
//! proportional to r^(−α).  The paper's SYN parties use α ∈ {1.1, 1.3, 1.5,
//! 1.7}; the real-world stand-ins use α ≈ 1.1 by default.

use crate::cdf::{cumulative, GuidedCdf};
use rand::Rng;

/// A sampler over ranks `0..n` with Zipf(α) probabilities.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative distribution over ranks, cdf[r] = P(rank ≤ r).
    cdf: GuidedCdf,
}

impl ZipfSampler {
    /// Creates a Zipf sampler over `n` ranks with exponent `alpha > 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf sampler needs at least one rank");
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "Zipf exponent must be positive"
        );
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-alpha)).collect();
        Self {
            cdf: GuidedCdf::new(cumulative(&weights)),
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

    /// Probability of rank `r`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one_and_decay() {
        let z = ZipfSampler::new(100, 1.2);
        let total: f64 = (0..100).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..100 {
            assert!(z.probability(r) <= z.probability(r - 1) + 1e-12);
        }
        assert_eq!(z.probability(1000), 0.0);
    }

    #[test]
    fn larger_alpha_concentrates_more_mass_on_rank_zero() {
        let flat = ZipfSampler::new(50, 0.8);
        let steep = ZipfSampler::new(50, 2.0);
        assert!(steep.probability(0) > flat.probability(0));
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let z = ZipfSampler::new(20, 1.1);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate().take(5) {
            let emp = count as f64 / n as f64;
            assert!((emp - z.probability(r)).abs() < 0.01, "rank {r}: {emp}");
        }
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn rejects_empty_domain() {
        ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_alpha() {
        ZipfSampler::new(10, 0.0);
    }
}
