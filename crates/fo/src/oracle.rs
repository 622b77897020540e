//! The common frequency-oracle interface and the unified [`Oracle`] wrapper.
//!
//! The heavy hitter mechanisms treat the FO as a black box (Section 3.2:
//! "In addressing the heavy hitter problem, the FO is typically treated as a
//! black box").  [`FrequencyOracle`] is that black box: perturb one user's
//! value, aggregate many reports into support counts, and de-bias the
//! supports into frequency estimates.  [`Oracle`] wraps the three concrete
//! implementations behind a [`FoKind`] so that protocol code can switch FO
//! by configuration, as the paper does in Section 7.3.

use crate::batch::ReportBatch;
use crate::budget::PrivacyBudget;
use crate::ctr::CtrRng;
use crate::error::FoError;
use crate::estimate::{FrequencyEstimate, SupportCounts};
use crate::grr::GrrOracle;
use crate::olh::OlhOracle;
use crate::oue::OueOracle;
use crate::report::Report;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The frequency-oracle interface shared by GRR, OUE and OLH.
///
/// [`perturb`](Self::perturb) and [`aggregate`](Self::aggregate) define the
/// semantics on the sequential RNG stream — the row reference the tests and
/// the `fo_*/*/scalar` perf legs compare the kernels against;
/// [`aggregate_into`](Self::aggregate_into) is the same fold into a
/// caller-owned arena.  The `*_vectorized` pair is the counter-RNG path the
/// federated layer runs, pinned on its own.
pub trait FrequencyOracle {
    /// Perturbs one user's domain index into a report satisfying ε-LDP.
    fn perturb<R: Rng + ?Sized>(&self, input: usize, rng: &mut R) -> Report;

    /// Aggregates reports into per-slot support counts.
    fn aggregate(&self, reports: &[Report]) -> SupportCounts;

    /// Aggregates reports **into** a caller-owned accumulator, adding to
    /// whatever supports it already holds.
    ///
    /// `supports` must have as many slots as the oracle's domain.
    /// Equivalent to `supports.merge(&self.aggregate(reports))`; the
    /// built-in oracles write into the accumulator directly so the inner
    /// loop is allocation-free and a reused arena serves many calls.
    fn aggregate_into(&self, reports: &[Report], supports: &mut SupportCounts) {
        supports.merge(&self.aggregate(reports));
    }

    /// Perturbs a chunk of inputs with **counter-based** randomness: the
    /// report for `inputs[k]` is a pure function of
    /// `(rng.key(), base + k)`, independent of chunking and evaluation
    /// order.
    ///
    /// This is the federated layer's hot path.  It does **not** reproduce
    /// the sequential RNG stream of [`perturb`](Self::perturb) — it is its
    /// own pinned output, deterministic per key but numerically different
    /// from the row API.  The default implementation
    /// derives one sequential RNG per report from the counter stream, so
    /// external oracle implementations keep compiling (and stay
    /// chunk-invariant) without writing a kernel.
    fn perturb_vectorized(&self, inputs: &[usize], rng: &CtrRng, base: u64, out: &mut ReportBatch) {
        for (offset, &input) in inputs.iter().enumerate() {
            let mut derived = StdRng::seed_from_u64(rng.word(base + offset as u64, 0));
            out.push(self.perturb(input, &mut derived));
        }
    }

    /// Aggregates a structure-of-arrays report batch into a caller-owned
    /// accumulator — the vectorized counterpart of
    /// [`aggregate_into`](Self::aggregate_into).
    ///
    /// The contract is with [`perturb_vectorized`](Self::perturb_vectorized):
    /// a batch produced by it must aggregate to the same supports no matter
    /// how it was chunked (whole-number additions, so the fold is
    /// order-independent).  An override may interpret its own batches with
    /// machinery the row-oriented path does not share (the built-in OLH
    /// kernel uses a division-free hash family on this path), which is safe
    /// because a batch is only ever aggregated by this method.  The
    /// default implementation materializes the rows and defers to
    /// `aggregate_into`.
    fn aggregate_vectorized(&self, batch: &ReportBatch, supports: &mut SupportCounts) {
        if let Some(reports) = batch.as_reports() {
            self.aggregate_into(reports, supports);
        } else {
            self.aggregate_into(&batch.to_reports(), supports);
        }
    }

    /// De-biases support counts into unbiased frequency estimates for `n`
    /// users.
    fn estimate(&self, supports: &SupportCounts, n: usize) -> FrequencyEstimate;

    /// Analytic variance of a single frequency estimate with `n` users.
    fn variance(&self, n: usize) -> f64;

    /// Size of one report on the wire, in bits.
    fn report_bits(&self) -> usize;
}

/// Which frequency oracle to use, selectable by configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FoKind {
    /// k-ary randomized response (the paper's default).
    Grr,
    /// Optimized unary encoding.
    Oue,
    /// Optimized local hashing.
    Olh,
}

impl FoKind {
    /// All supported oracle kinds, in the order used by the paper's FO study.
    pub const ALL: [FoKind; 3] = [FoKind::Grr, FoKind::Oue, FoKind::Olh];

    /// Stable lowercase name for reports and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            FoKind::Grr => "krr",
            FoKind::Oue => "oue",
            FoKind::Olh => "olh",
        }
    }

    /// Parses a CLI/experiment name into an oracle kind.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "krr" | "k-rr" | "grr" => Some(FoKind::Grr),
            "oue" => Some(FoKind::Oue),
            "olh" => Some(FoKind::Olh),
            _ => None,
        }
    }
}

impl std::fmt::Display for FoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a string does not name a known frequency oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFoKindError {
    input: String,
}

impl std::fmt::Display for ParseFoKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown frequency oracle {:?}; expected krr, oue or olh",
            self.input
        )
    }
}

impl std::error::Error for ParseFoKindError {}

impl std::str::FromStr for FoKind {
    type Err = ParseFoKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| ParseFoKindError {
            input: s.to_string(),
        })
    }
}

/// A unified frequency oracle dispatching to the configured mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum Oracle {
    /// k-ary randomized response.
    Grr(GrrOracle),
    /// Optimized unary encoding.
    Oue(OueOracle),
    /// Optimized local hashing.
    Olh(OlhOracle),
}

impl Oracle {
    /// Creates an oracle of the given kind over `domain_size` slots.
    ///
    /// # Panics
    ///
    /// Panics if `domain_size < 2`; use [`Oracle::try_new`] to handle the
    /// error explicitly.
    pub fn new(kind: FoKind, budget: PrivacyBudget, domain_size: usize) -> Self {
        Self::try_new(kind, budget, domain_size).expect("invalid oracle configuration")
    }

    /// Fallible constructor.
    pub fn try_new(
        kind: FoKind,
        budget: PrivacyBudget,
        domain_size: usize,
    ) -> Result<Self, FoError> {
        Ok(match kind {
            FoKind::Grr => Oracle::Grr(GrrOracle::new(budget, domain_size)?),
            FoKind::Oue => Oracle::Oue(OueOracle::new(budget, domain_size)?),
            FoKind::Olh => Oracle::Olh(OlhOracle::new(budget, domain_size)?),
        })
    }

    /// The kind of this oracle.
    pub fn kind(&self) -> FoKind {
        match self {
            Oracle::Grr(_) => FoKind::Grr,
            Oracle::Oue(_) => FoKind::Oue,
            Oracle::Olh(_) => FoKind::Olh,
        }
    }
}

impl FrequencyOracle for Oracle {
    fn perturb<R: Rng + ?Sized>(&self, input: usize, rng: &mut R) -> Report {
        match self {
            Oracle::Grr(o) => o.perturb(input, rng),
            Oracle::Oue(o) => o.perturb(input, rng),
            Oracle::Olh(o) => o.perturb(input, rng),
        }
    }

    fn perturb_vectorized(&self, inputs: &[usize], rng: &CtrRng, base: u64, out: &mut ReportBatch) {
        match self {
            Oracle::Grr(o) => o.perturb_vectorized(inputs, rng, base, out),
            Oracle::Oue(o) => o.perturb_vectorized(inputs, rng, base, out),
            Oracle::Olh(o) => o.perturb_vectorized(inputs, rng, base, out),
        }
    }

    fn aggregate_vectorized(&self, batch: &ReportBatch, supports: &mut SupportCounts) {
        match self {
            Oracle::Grr(o) => o.aggregate_vectorized(batch, supports),
            Oracle::Oue(o) => o.aggregate_vectorized(batch, supports),
            Oracle::Olh(o) => o.aggregate_vectorized(batch, supports),
        }
    }

    fn aggregate(&self, reports: &[Report]) -> SupportCounts {
        match self {
            Oracle::Grr(o) => o.aggregate(reports),
            Oracle::Oue(o) => o.aggregate(reports),
            Oracle::Olh(o) => o.aggregate(reports),
        }
    }

    fn aggregate_into(&self, reports: &[Report], supports: &mut SupportCounts) {
        match self {
            Oracle::Grr(o) => o.aggregate_into(reports, supports),
            Oracle::Oue(o) => o.aggregate_into(reports, supports),
            Oracle::Olh(o) => o.aggregate_into(reports, supports),
        }
    }

    fn estimate(&self, supports: &SupportCounts, n: usize) -> FrequencyEstimate {
        match self {
            Oracle::Grr(o) => o.estimate(supports, n),
            Oracle::Oue(o) => o.estimate(supports, n),
            Oracle::Olh(o) => o.estimate(supports, n),
        }
    }

    fn variance(&self, n: usize) -> f64 {
        match self {
            Oracle::Grr(o) => o.variance(n),
            Oracle::Oue(o) => o.variance(n),
            Oracle::Olh(o) => o.variance(n),
        }
    }

    fn report_bits(&self) -> usize {
        match self {
            Oracle::Grr(o) => o.report_bits(),
            Oracle::Oue(o) => o.report_bits(),
            Oracle::Olh(o) => o.report_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kind_round_trips_through_names() {
        for kind in FoKind::ALL {
            assert_eq!(FoKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(FoKind::parse("k-RR"), Some(FoKind::Grr));
        assert_eq!(FoKind::parse("nope"), None);
    }

    #[test]
    fn from_str_delegates_to_parse() {
        for kind in FoKind::ALL {
            assert_eq!(kind.name().parse::<FoKind>(), Ok(kind));
        }
        assert_eq!("grr".parse::<FoKind>(), Ok(FoKind::Grr));
        let err = "nope".parse::<FoKind>().unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn unified_oracle_dispatches_to_each_kind() {
        let budget = PrivacyBudget::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        for kind in FoKind::ALL {
            let oracle = Oracle::new(kind, budget, 8);
            assert_eq!(oracle.kind(), kind);
            let report = oracle.perturb(3, &mut rng);
            let supports = oracle.aggregate(&[report]);
            assert_eq!(supports.reports(), 1);
            assert!(oracle.variance(100) > 0.0);
            assert!(oracle.report_bits() > 0);
        }
    }

    #[test]
    fn try_new_rejects_small_domains() {
        let budget = PrivacyBudget::new(1.0).unwrap();
        for kind in FoKind::ALL {
            assert!(Oracle::try_new(kind, budget, 1).is_err());
        }
    }

    #[test]
    fn perturb_aggregate_estimate_recovers_the_mode_for_every_kind() {
        let budget = PrivacyBudget::new(4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        // 80% of users hold index 2, the rest index 0, domain of 6 slots.
        let inputs: Vec<usize> = (0..8000).map(|i| if i % 5 == 0 { 0 } else { 2 }).collect();
        for kind in FoKind::ALL {
            let oracle = Oracle::new(kind, budget, 6);
            let reports: Vec<Report> = inputs
                .iter()
                .map(|&input| oracle.perturb(input, &mut rng))
                .collect();
            let estimate = oracle.estimate(&oracle.aggregate(&reports), inputs.len());
            assert_eq!(estimate.top_k(1), vec![2], "kind {kind}");
        }
    }

    #[test]
    fn communication_cost_ordering_matches_table_one() {
        // Per-report: OUE grows with the domain, GRR and OLH stay constant.
        let budget = PrivacyBudget::new(2.0).unwrap();
        let big = 4096;
        let grr = Oracle::new(FoKind::Grr, budget, big);
        let oue = Oracle::new(FoKind::Oue, budget, big);
        let olh = Oracle::new(FoKind::Olh, budget, big);
        assert!(oue.report_bits() > grr.report_bits());
        assert!(oue.report_bits() > olh.report_bits());
    }
}
