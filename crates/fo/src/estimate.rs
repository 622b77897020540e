//! Server-side support counting and unbiased frequency estimation.
//!
//! Every oracle reduces its reports to a vector of **support counts**: how
//! many reports "support" each candidate slot.  The unbiased estimator is
//! the same for all three oracles (Section 3.2 of the paper):
//!
//! ```text
//! f̂_x = (c_x / n − q) / (p − q)
//! ```
//!
//! where `p` is the probability of reporting/supporting the true value and
//! `q` the probability of supporting any other value.  The estimator and the
//! per-oracle variance are bundled into [`FrequencyEstimate`] so downstream
//! code (adaptive extension, pruning, aggregation) can reason about both the
//! point estimates and their noise scale.

/// Raw support counts per candidate slot, produced by an oracle's
/// `aggregate` step before de-biasing.
#[derive(Debug, Clone, PartialEq)]
pub struct SupportCounts {
    counts: Vec<f64>,
    reports: usize,
}

impl SupportCounts {
    /// Creates support counts for `slots` candidate slots, all zero.
    pub fn zeros(slots: usize) -> Self {
        Self {
            counts: vec![0.0; slots],
            reports: 0,
        }
    }

    /// Adds `amount` support to slot `idx`.
    #[inline]
    pub fn add(&mut self, idx: usize, amount: f64) {
        if let Some(c) = self.counts.get_mut(idx) {
            *c += amount;
        }
    }

    /// Records `n` more aggregated reports.
    #[inline]
    pub fn record_reports(&mut self, n: usize) {
        self.reports += n;
    }

    /// Resizes to `slots` candidate slots and zeroes every count and the
    /// report counter, keeping the existing allocation whenever it is large
    /// enough.  This is what lets a caller-owned arena be reused across
    /// levels with different candidate domains without reallocating.
    pub fn reset(&mut self, slots: usize) {
        self.counts.clear();
        self.counts.resize(slots, 0.0);
        self.reports = 0;
    }

    /// Support of slot `idx` (0 when out of range).
    #[inline]
    pub fn support(&self, idx: usize) -> f64 {
        self.counts.get(idx).copied().unwrap_or(0.0)
    }

    /// Number of candidate slots.
    #[inline]
    pub fn slots(&self) -> usize {
        self.counts.len()
    }

    /// Number of reports aggregated so far.
    #[inline]
    pub fn reports(&self) -> usize {
        self.reports
    }

    /// All supports in slot order.
    pub fn as_slice(&self) -> &[f64] {
        &self.counts
    }

    /// Mutable access to the supports in slot order, for allocation-free
    /// `aggregate_into` loops.  Callers adding supports directly must
    /// account the reports themselves via [`SupportCounts::record_reports`].
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.counts
    }

    /// Merges another support-count vector of the same width into this one.
    pub fn merge(&mut self, other: &SupportCounts) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.reports += other.reports;
    }
}

/// Unbiased frequency estimates for every candidate slot, together with the
/// analytic standard deviation of a single estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyEstimate {
    frequencies: Vec<f64>,
    /// Standard deviation of a single frequency estimate under the FO used.
    std_dev: f64,
    /// Number of users whose reports back this estimate.
    users: usize,
}

impl FrequencyEstimate {
    /// De-biases support counts into frequency estimates.
    ///
    /// * `p` — probability of supporting the true value.
    /// * `q` — probability of supporting any other value.
    /// * `n` — number of users (reports expected).
    /// * `variance` — analytic variance of one estimate (σ² of the FO).
    pub fn from_supports(
        supports: &SupportCounts,
        p: f64,
        q: f64,
        n: usize,
        variance: f64,
    ) -> Self {
        let n_f = n.max(1) as f64;
        let denom = p - q;
        let frequencies = supports
            .as_slice()
            .iter()
            .map(|c| (c / n_f - q) / denom)
            .collect();
        Self {
            frequencies,
            std_dev: variance.max(0.0).sqrt(),
            users: n,
        }
    }

    /// Estimated frequency of slot `idx` (0 when out of range).
    #[inline]
    pub fn frequency(&self, idx: usize) -> f64 {
        self.frequencies.get(idx).copied().unwrap_or(0.0)
    }

    /// Estimated absolute count of slot `idx` (frequency × users).
    #[inline]
    pub fn count(&self, idx: usize) -> f64 {
        self.frequency(idx) * self.users as f64
    }

    /// All estimated frequencies in slot order.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Standard deviation σ of a single frequency estimate.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Number of users behind this estimate.
    #[inline]
    pub fn users(&self) -> usize {
        self.users
    }

    /// Number of candidate slots.
    #[inline]
    pub fn slots(&self) -> usize {
        self.frequencies.len()
    }

    /// Slot indices sorted by estimated frequency, descending.  Ties are
    /// broken by slot index so the ordering is deterministic.
    pub fn ranked_slots(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.frequencies.len()).collect();
        order.sort_by(|a, b| {
            self.frequencies[*b]
                .partial_cmp(&self.frequencies[*a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        order
    }

    /// The top-`k` slot indices by estimated frequency, descending.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut order = self.ranked_slots();
        order.truncate(k);
        order
    }
}

/// Analytic variance of the GRR estimator:
/// Var = (|X| − 2 + e^ε) / ((e^ε − 1)² · n).
pub fn grr_variance(domain_size: usize, exp_eps: f64, n: usize) -> f64 {
    let d = domain_size as f64;
    let n = n.max(1) as f64;
    (d - 2.0 + exp_eps) / ((exp_eps - 1.0).powi(2) * n)
}

/// Analytic variance of the OUE (and OLH) estimator:
/// Var = 4e^ε / ((e^ε − 1)² · n).
pub fn oue_variance(exp_eps: f64, n: usize) -> f64 {
    let n = n.max(1) as f64;
    4.0 * exp_eps / ((exp_eps - 1.0).powi(2) * n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_counts_accumulate_and_merge() {
        let mut a = SupportCounts::zeros(3);
        a.add(0, 1.0);
        a.add(2, 2.0);
        a.record_reports(2);
        let mut b = SupportCounts::zeros(3);
        for slot in 0..3 {
            b.add(slot, 1.0);
        }
        b.record_reports(3);
        a.merge(&b);
        assert_eq!(a.as_slice(), &[2.0, 1.0, 3.0]);
        assert_eq!(a.reports(), 5);
        assert_eq!(a.support(5), 0.0);
    }

    #[test]
    fn reset_reuses_the_arena_across_widths() {
        let mut arena = SupportCounts::zeros(4);
        arena.add(1, 3.0);
        arena.record_reports(5);
        assert_eq!(arena.reports(), 5);
        arena.reset(2);
        assert_eq!(arena.as_slice(), &[0.0, 0.0]);
        assert_eq!(arena.reports(), 0);
        arena.reset(6);
        assert_eq!(arena.slots(), 6);
        assert!(arena.as_slice().iter().all(|c| *c == 0.0));
        arena.as_mut_slice()[5] = 2.0;
        assert_eq!(arena.support(5), 2.0);
    }

    #[test]
    fn debiasing_inverts_the_expected_support() {
        // If true frequency is f, expected support is n(f·p + (1−f)·q); the
        // estimator must map that expectation back to f exactly.
        let p = 0.7;
        let q = 0.1;
        let n = 10_000usize;
        let f_true = 0.3;
        let expected_support = n as f64 * (f_true * p + (1.0 - f_true) * q);
        let mut supports = SupportCounts::zeros(1);
        supports.add(0, expected_support);
        supports.record_reports(n);
        let est = FrequencyEstimate::from_supports(&supports, p, q, n, 0.01);
        assert!((est.frequency(0) - f_true).abs() < 1e-12);
        assert!((est.count(0) - f_true * n as f64).abs() < 1e-6);
    }

    #[test]
    fn ranking_is_descending_and_deterministic() {
        // p = 1, q = 0 and n = 100: the estimate is the support over 100.
        let mut supports = SupportCounts::zeros(4);
        for (slot, support) in [10.0, 50.0, 50.0, 5.0].into_iter().enumerate() {
            supports.add(slot, support);
        }
        let est = FrequencyEstimate::from_supports(&supports, 1.0, 0.0, 100, 0.0);
        assert_eq!(est.ranked_slots(), vec![1, 2, 0, 3]);
        assert_eq!(est.top_k(2), vec![1, 2]);
        assert_eq!(est.top_k(10), vec![1, 2, 0, 3]);
    }

    #[test]
    fn variance_formulas_match_paper() {
        let eps: f64 = 2.0;
        let e = eps.exp();
        let n = 1000;
        // GRR with |X| = 10.
        let v_grr = grr_variance(10, e, n);
        assert!((v_grr - (10.0 - 2.0 + e) / ((e - 1.0).powi(2) * 1000.0)).abs() < 1e-15);
        // OUE.
        let v_oue = oue_variance(e, n);
        assert!((v_oue - 4.0 * e / ((e - 1.0).powi(2) * 1000.0)).abs() < 1e-15);
        // For a large domain, GRR variance exceeds OUE variance.
        assert!(grr_variance(1000, e, n) > v_oue);
        // For a tiny domain, GRR beats OUE.
        assert!(grr_variance(3, e, n) < v_oue);
    }

    #[test]
    fn zero_users_does_not_divide_by_zero() {
        let supports = SupportCounts::zeros(2);
        let est = FrequencyEstimate::from_supports(&supports, 0.7, 0.1, 0, 0.0);
        assert!(est.frequency(0).is_finite());
        assert!(grr_variance(4, 2.0f64.exp(), 0).is_finite());
    }
}
