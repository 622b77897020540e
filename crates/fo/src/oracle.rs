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

/// The frequency-oracle interface of GRR, OUE and OLH.
///
/// [`GrrOracle`], [`OueOracle`], [`OlhOracle`] and the [`Oracle`] wrapper
/// are its implementations, and each writes every method itself.  A user's
/// report is perturbed by [`perturb_vectorized`](Self::perturb_vectorized)
/// with counter-based randomness into a columnar [`ReportBatch`], which
/// [`aggregate_vectorized`](Self::aggregate_vectorized) of the same oracle
/// folds into support counts; [`estimate`](Self::estimate) de-biases them.
pub trait FrequencyOracle {
    /// Perturbs a chunk of domain indices into reports satisfying ε-LDP,
    /// with **counter-based** randomness: the report for `inputs[k]` is a
    /// pure function of `(rng.key(), base + k)`, independent of chunking
    /// and evaluation order.
    fn perturb_vectorized(&self, inputs: &[usize], rng: &CtrRng, base: u64, out: &mut ReportBatch);

    /// Aggregates a structure-of-arrays report batch **into** a
    /// caller-owned accumulator, adding to whatever supports it already
    /// holds.  `supports` must have as many slots as the oracle's domain.
    ///
    /// The contract is with [`perturb_vectorized`](Self::perturb_vectorized):
    /// a batch produced by it must aggregate to the same supports no matter
    /// how it was chunked (whole-number additions, so the fold is
    /// order-independent).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is in another oracle's shape, or is an OUE batch
    /// of another width, with a message naming the expected shape and the
    /// batch's.  Every caller perturbs and aggregates with one oracle, and
    /// a batch never leaves its process, so such a batch is a bug.
    fn aggregate_vectorized(&self, batch: &ReportBatch, supports: &mut SupportCounts);

    /// De-biases support counts into unbiased frequency estimates for `n`
    /// users.
    fn estimate(&self, supports: &SupportCounts, n: usize) -> FrequencyEstimate;

    /// Analytic variance of a single frequency estimate with `n` users.
    fn variance(&self, n: usize) -> f64;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `inputs` perturbed by `oracle` under key `key`.
    fn perturbed(oracle: &Oracle, inputs: &[usize], key: u64) -> ReportBatch {
        let mut batch = ReportBatch::new();
        oracle.perturb_vectorized(inputs, &CtrRng::new(key), 0, &mut batch);
        batch
    }

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
        for kind in FoKind::ALL {
            let oracle = Oracle::new(kind, budget, 8);
            assert_eq!(oracle.kind(), kind);
            let batch = perturbed(&oracle, &[3], 23);
            let mut supports = SupportCounts::zeros(8);
            oracle.aggregate_vectorized(&batch, &mut supports);
            assert_eq!(supports.reports(), 1);
            assert!(oracle.variance(100) > 0.0);
            assert!(batch.size_bits() > 0);
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
        // 80% of users hold index 2, the rest index 0, domain of 6 slots.
        let inputs: Vec<usize> = (0..8000).map(|i| if i % 5 == 0 { 0 } else { 2 }).collect();
        for kind in FoKind::ALL {
            let oracle = Oracle::new(kind, budget, 6);
            let mut supports = SupportCounts::zeros(6);
            oracle.aggregate_vectorized(&perturbed(&oracle, &inputs, 31), &mut supports);
            let estimate = oracle.estimate(&supports, inputs.len());
            let frequencies = estimate.frequencies();
            let mode = (0..frequencies.len())
                .reduce(|best, slot| {
                    if frequencies[slot] > frequencies[best] {
                        slot
                    } else {
                        best
                    }
                })
                .unwrap();
            assert_eq!(mode, 2, "kind {kind}");
        }
    }

    #[test]
    fn communication_cost_ordering_matches_table_one() {
        // Per-report: OUE grows with the domain, GRR and OLH stay constant.
        let budget = PrivacyBudget::new(2.0).unwrap();
        let big = 4096;
        let bits = |kind| perturbed(&Oracle::new(kind, budget, big), &[1], 2).size_bits();
        assert!(bits(FoKind::Oue) > bits(FoKind::Grr));
        assert!(bits(FoKind::Oue) > bits(FoKind::Olh));
    }
}
