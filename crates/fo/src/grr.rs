//! k-ary randomized response (k-RR / GRR).
//!
//! Given a privacy budget ε and a candidate domain of size |X|, the
//! mechanism reports the true value with probability
//! `p = e^ε / (|X| − 1 + e^ε)` and any specific other value with probability
//! `q = 1 / (|X| − 1 + e^ε)` (Equation 1 of the paper).  It is the paper's
//! default FO for all main experiments (m = 48, g = 24).

use crate::batch::{ReportBatch, Repr};
use crate::budget::PrivacyBudget;
use crate::ctr::{self, CtrRng};
use crate::error::FoError;
use crate::estimate::{grr_variance, FrequencyEstimate, SupportCounts};
use crate::oracle::FrequencyOracle;

/// The k-ary randomized response oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct GrrOracle {
    budget: PrivacyBudget,
    domain_size: usize,
    p: f64,
    q: f64,
}

impl GrrOracle {
    /// Creates a GRR oracle over a candidate domain with `domain_size` slots
    /// (including the dummy slot, if the domain has one).
    pub fn new(budget: PrivacyBudget, domain_size: usize) -> Result<Self, FoError> {
        if domain_size < 2 {
            return Err(FoError::DomainTooSmall(domain_size));
        }
        let e = budget.exp_epsilon();
        let denom = domain_size as f64 - 1.0 + e;
        Ok(Self {
            budget,
            domain_size,
            p: e / denom,
            q: 1.0 / denom,
        })
    }

    /// Probability of reporting the true value.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability of reporting one specific other value.
    #[inline]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The configured domain size |X|.
    #[inline]
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// The privacy budget this oracle satisfies.
    #[inline]
    pub fn budget(&self) -> PrivacyBudget {
        self.budget
    }
}

impl FrequencyOracle for GrrOracle {
    fn perturb_vectorized(&self, inputs: &[usize], rng: &CtrRng, base: u64, out: &mut ReportBatch) {
        // Counter-addressed draws (draw 0: keep coin, draw 1: flip target)
        // and a branch-free select; report k depends only on
        // (key, base + k).
        let t_p = ctr::bernoulli_threshold(self.p);
        let d = self.domain_size;
        let items = out.items_mut();
        items.reserve(inputs.len());
        for (offset, &input) in inputs.iter().enumerate() {
            debug_assert!(input < d, "input index out of domain");
            let s = rng.stream(base + offset as u64);
            let keep = ctr::u53(s.word(0)) < t_p;
            let mut other = ctr::bounded(s.word(1), (d - 1) as u64) as u32;
            other += u32::from(other as usize >= input);
            items.push(if keep { input as u32 } else { other });
        }
    }

    fn aggregate_vectorized(&self, batch: &ReportBatch, supports: &mut SupportCounts) {
        debug_assert_eq!(supports.slots(), self.domain_size);
        match &batch.repr {
            Repr::Items(items) => {
                let counts = supports.as_mut_slice();
                for &item in items {
                    if let Some(c) = counts.get_mut(item as usize) {
                        *c += 1.0;
                    }
                }
                supports.record_reports(items.len());
            }
            _ => batch.foreign(Repr::Items(Vec::new())),
        }
    }

    fn estimate(&self, supports: &SupportCounts, n: usize) -> FrequencyEstimate {
        FrequencyEstimate::from_supports(supports, self.p, self.q, n)
    }

    fn variance(&self, n: usize) -> f64 {
        grr_variance(self.domain_size, self.budget.exp_epsilon(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Columns;

    fn oracle(eps: f64, d: usize) -> GrrOracle {
        GrrOracle::new(PrivacyBudget::new(eps).unwrap(), d).unwrap()
    }

    /// The reported items of `inputs` perturbed under key `key`.
    fn perturbed(o: &GrrOracle, inputs: &[usize], key: u64) -> Vec<u32> {
        let mut batch = ReportBatch::new();
        o.perturb_vectorized(inputs, &CtrRng::new(key), 0, &mut batch);
        match batch.columns() {
            Columns::Items(items) => items.to_vec(),
            other => panic!("unexpected columns {other:?}"),
        }
    }

    #[test]
    fn probabilities_match_equation_one() {
        let o = oracle(1.0, 8);
        let e = 1.0f64.exp();
        assert!((o.p() - e / (7.0 + e)).abs() < 1e-12);
        assert!((o.q() - 1.0 / (7.0 + e)).abs() < 1e-12);
        // p + (|X|−1)q = 1: the output distribution is proper.
        assert!((o.p() + 7.0 * o.q() - 1.0).abs() < 1e-12);
        // LDP ratio p/q = e^ε.
        assert!((o.p() / o.q() - e).abs() < 1e-10);
    }

    #[test]
    fn rejects_tiny_domains() {
        assert!(GrrOracle::new(PrivacyBudget::new(1.0).unwrap(), 0).is_err());
        assert!(GrrOracle::new(PrivacyBudget::new(1.0).unwrap(), 1).is_err());
        assert!(GrrOracle::new(PrivacyBudget::new(1.0).unwrap(), 2).is_ok());
    }

    #[test]
    fn perturbation_keeps_output_in_domain() {
        let o = oracle(0.5, 5);
        for input in 0..5 {
            let items = perturbed(&o, &[input; 200], 3 + input as u64);
            assert!(items.iter().all(|&v| v < 5), "input {input}");
        }
    }

    #[test]
    fn empirical_keep_rate_approaches_p() {
        let o = oracle(2.0, 16);
        let trials = 40_000;
        let kept = perturbed(&o, &vec![7; trials], 11)
            .into_iter()
            .filter(|&v| v == 7)
            .count();
        let rate = kept as f64 / trials as f64;
        assert!((rate - o.p()).abs() < 0.01, "rate {rate} vs p {}", o.p());
    }

    #[test]
    fn estimation_recovers_uniform_mixture() {
        // Half the users hold value 0, half hold value 1, domain size 4.
        let o = oracle(3.0, 4);
        let n = 20_000;
        let inputs: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let mut batch = ReportBatch::new();
        o.perturb_vectorized(&inputs, &CtrRng::new(5), 0, &mut batch);
        let mut supports = SupportCounts::zeros(4);
        o.aggregate_vectorized(&batch, &mut supports);
        let est = o.estimate(&supports, n);
        assert!((est.frequency(0) - 0.5).abs() < 0.03);
        assert!((est.frequency(1) - 0.5).abs() < 0.03);
        assert!(est.frequency(2).abs() < 0.03);
        assert!(est.frequency(3).abs() < 0.03);
    }

    #[test]
    fn variance_shrinks_with_users_and_budget() {
        let o = oracle(1.0, 32);
        assert!(o.variance(100) > o.variance(10_000));
        let tight = oracle(4.0, 32);
        assert!(tight.variance(1000) < o.variance(1000));
    }

    #[test]
    fn aggregate_counts_every_report() {
        let o = oracle(1.0, 3);
        let mut batch = ReportBatch::new();
        batch.items_mut().extend_from_slice(&[0, 2, 2]);
        let mut s = SupportCounts::zeros(3);
        o.aggregate_vectorized(&batch, &mut s);
        assert_eq!(s.reports(), 3);
        assert_eq!(s.support(0), 1.0);
        assert_eq!(s.support(1), 0.0);
        assert_eq!(s.support(2), 2.0);
    }
}
