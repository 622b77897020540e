//! Dirichlet sampling for non-IID domain allocation.
//!
//! The paper constructs SYN by sampling, for each party, a proportion vector
//! q ~ Dir_N(β) and allocating a q_j share of item group j to that party's
//! item domain.  Smaller β means more imbalanced (more non-IID) domains;
//! Table 8 sweeps β ∈ {0.2, 0.5, 0.8}.  We implement the standard
//! Gamma-normalization construction with Marsaglia–Tsang Gamma sampling so
//! the crate stays within the approved dependency set.

use rand::Rng;

/// A symmetric Dirichlet(β, …, β) sampler over `n` components.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirichletSampler {
    n: usize,
    beta: f64,
}

impl DirichletSampler {
    /// Creates a symmetric Dirichlet sampler with concentration `beta > 0`
    /// over `n ≥ 1` components.
    pub(crate) fn new(n: usize, beta: f64) -> Self {
        assert!(n >= 1, "Dirichlet needs at least one component");
        assert!(
            beta > 0.0 && beta.is_finite(),
            "concentration must be positive"
        );
        Self { n, beta }
    }

    /// Samples a proportion vector that sums to one.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut gammas: Vec<f64> = (0..self.n).map(|_| sample_gamma(self.beta, rng)).collect();
        let total: f64 = gammas.iter().sum();
        if total <= f64::MIN_POSITIVE {
            // Degenerate draw (all gammas underflowed): fall back to uniform.
            return vec![1.0 / self.n as f64; self.n];
        }
        for g in &mut gammas {
            *g /= total;
        }
        gammas
    }
}

/// Samples Gamma(shape, 1) via Marsaglia & Tsang (2000), with the usual
/// boosting trick for shape < 1.
fn sample_gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Gamma(a) = Gamma(a + 1) · U^(1/a).
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_are_proper_proportions() {
        let d = DirichletSampler::new(6, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let q = d.sample(&mut rng);
            assert_eq!(q.len(), 6);
            assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(q.iter().all(|x| *x >= 0.0));
        }
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = StdRng::seed_from_u64(11);
        for shape in [0.5, 1.0, 3.0, 8.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| sample_gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.1 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn small_beta_is_more_imbalanced_than_large_beta() {
        // Measure the average max component: smaller β concentrates mass.
        let mut rng = StdRng::seed_from_u64(5);
        let avg_max = |beta: f64, rng: &mut StdRng| {
            let d = DirichletSampler::new(6, beta);
            (0..500)
                .map(|_| d.sample(rng).into_iter().fold(0.0f64, f64::max))
                .sum::<f64>()
                / 500.0
        };
        let skewed = avg_max(0.2, &mut rng);
        let balanced = avg_max(5.0, &mut rng);
        assert!(
            skewed > balanced + 0.1,
            "skewed {skewed} vs balanced {balanced}"
        );
    }

    #[test]
    fn dirichlet_mean_is_uniform() {
        let d = DirichletSampler::new(4, 0.8);
        let mut rng = StdRng::seed_from_u64(9);
        let mut sums = vec![0.0; 4];
        let n = 5000;
        for _ in 0..n {
            for (s, q) in sums.iter_mut().zip(d.sample(&mut rng)) {
                *s += q;
            }
        }
        for s in sums {
            assert!((s / n as f64 - 0.25).abs() < 0.02);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_beta() {
        DirichletSampler::new(3, 0.0);
    }
}
