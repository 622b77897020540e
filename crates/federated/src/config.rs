//! Protocol configuration broadcast by the server to every party.

use crate::error::ProtocolError;
use fedhh_fo::{FoKind, PrivacyBudget};
use fedhh_trie::LevelSchedule;
use std::num::NonZeroUsize;

/// The report pipeline's former buffering setting.  The chunk size is now
/// fixed inside the level estimator, so this carries nothing a run reads.
///
/// Kept only for the benchmark crate (`benchmark/src/layers.rs` builds one
/// for [`ProtocolConfig::with_exec_mode`]); the next change to the
/// benchmark deletes it together with [`FoExec`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum ExecMode {
    /// A chunk size, ignored.
    Chunked(NonZeroUsize),
}

/// The one frequency-oracle execution path: counter-based randomness
/// (`fedhh_fo::ctr`) driving branch-free SoA kernels.
///
/// Kept only for the benchmark crate, whose workload setup
/// (`benchmark/src/workload.rs`) is its one caller through
/// [`ProtocolConfig::with_fo_exec`]; the next change to the benchmark
/// deletes both.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FoExec {
    /// Counter-RNG SoA kernels.
    #[default]
    Vectorized,
}

/// The paper's parameters: what every party of a federated heavy hitter
/// run must agree on.
///
/// Defaults follow Section 7.1 of the paper: k-RR as the FO, maximum binary
/// length m = 48, granularity g = 24 (step size 2), shared-trie ratio 0.25
/// and dividing ratio β = 0.1.  A quarter of the users (0.25) go to
/// Phase I, where the paper's text says 10 %; whether to change that
/// default waits on ROADMAP item 1(d), since it would move every pinned
/// result.  How rounds close and how uploads travel is deployment policy,
/// carried by the [`ScenarioPlan`](crate::ScenarioPlan) instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// The query: how many federated heavy hitters to identify.
    pub k: usize,
    /// Privacy budget ε of every user's single report.
    pub epsilon: f64,
    /// Which frequency oracle the users run.
    pub fo: FoKind,
    /// Maximum binary length m of the item codes.
    pub max_bits: u8,
    /// Granularity g: number of trie levels and of user groups.
    pub granularity: u8,
    /// Ratio of levels assigned to the shared shallow trie (g_s = ⌊ratio·g⌋).
    pub shared_ratio: f64,
    /// Fraction of each party's users reserved for Phase I estimation.
    pub phase1_user_fraction: f64,
    /// Dividing ratio β: fraction of a level's users used to validate each
    /// of the two pruning candidate sets in TAPS.
    pub dividing_ratio: f64,
    /// RNG seed for the run (group assignment and perturbation noise).
    pub seed: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            k: 10,
            epsilon: 4.0,
            fo: FoKind::Grr,
            max_bits: 48,
            granularity: 24,
            shared_ratio: 0.25,
            phase1_user_fraction: 0.25,
            dividing_ratio: 0.1,
            seed: 7,
        }
    }
}

impl ProtocolConfig {
    /// A configuration suitable for fast tests: 16-bit codes over 8 levels.
    pub fn test_default() -> Self {
        Self {
            max_bits: 16,
            granularity: 8,
            ..Self::default()
        }
    }

    /// The level schedule implied by `max_bits` and `granularity`.
    pub fn schedule(&self) -> LevelSchedule {
        LevelSchedule::new(self.max_bits, self.granularity)
    }

    /// The shared-trie depth g_s.
    pub fn shared_levels(&self) -> u8 {
        self.schedule().shared_levels(self.shared_ratio)
    }

    /// The validated privacy budget; [`PrivacyBudget::new`] owns the rule
    /// and its error.
    pub fn budget(&self) -> Result<PrivacyBudget, ProtocolError> {
        Ok(PrivacyBudget::new(self.epsilon)?)
    }

    /// Returns a copy with a different privacy budget (used by ε sweeps).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Returns a copy with a different query size.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Returns a copy with a different frequency oracle.
    pub fn with_fo(mut self, fo: FoKind) -> Self {
        self.fo = fo;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns `self` unchanged: there is one execution path.  Kept only
    /// for the benchmark crate (`benchmark/src/workload.rs` is its one
    /// caller); the next change to the benchmark deletes it with
    /// [`FoExec`].
    #[doc(hidden)]
    pub fn with_fo_exec(self, _fo_exec: FoExec) -> Self {
        self
    }

    /// Returns `self` unchanged: the report pipeline's chunk size is not a
    /// setting.  Kept only for the benchmark crate
    /// (`benchmark/src/layers.rs` is its one caller); the next change to
    /// the benchmark deletes it with [`ExecMode`] and [`FoExec`].
    #[doc(hidden)]
    pub fn with_exec_mode(self, _exec_mode: ExecMode) -> Self {
        self
    }

    /// Validates internal consistency; called by the run API before any
    /// mechanism executes.  Every violation is a
    /// [`ProtocolError::InvalidParameter`] naming its rule, except the
    /// budget's, which [`PrivacyBudget::new`] owns.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.k == 0 {
            return Err(ProtocolError::invalid("query k", "be positive", self.k));
        }
        self.budget()?;
        if !(1..=64).contains(&self.max_bits) {
            return Err(ProtocolError::invalid(
                "max_bits",
                "be in 1..=64",
                self.max_bits,
            ));
        }
        if self.granularity == 0 || self.granularity > self.max_bits {
            return Err(ProtocolError::invalid(
                "granularity",
                format!("be in 1..=max_bits ({})", self.max_bits),
                self.granularity,
            ));
        }
        if !(0.0..=1.0).contains(&self.shared_ratio) {
            return Err(ProtocolError::invalid(
                "shared ratio",
                "be in [0, 1]",
                self.shared_ratio,
            ));
        }
        if !(0.0..0.5).contains(&self.dividing_ratio) {
            return Err(ProtocolError::invalid(
                "dividing ratio",
                "be in [0, 0.5)",
                self.dividing_ratio,
            ));
        }
        if !(0.0..1.0).contains(&self.phase1_user_fraction) {
            return Err(ProtocolError::invalid(
                "phase-1 user fraction",
                "be in [0, 1)",
                self.phase1_user_fraction,
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhh_fo::FoError;

    #[test]
    fn defaults_match_paper_settings() {
        let c = ProtocolConfig::default();
        assert_eq!(c.k, 10);
        assert_eq!(c.max_bits, 48);
        assert_eq!(c.granularity, 24);
        assert_eq!(c.schedule().step(1), 2);
        assert_eq!(c.fo, FoKind::Grr);
        assert_eq!(c.shared_levels(), 6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_produce_modified_copies() {
        let c = ProtocolConfig::default()
            .with_epsilon(2.0)
            .with_k(40)
            .with_fo(FoKind::Oue)
            .with_seed(99);
        assert_eq!(c.epsilon, 2.0);
        assert_eq!(c.k, 40);
        assert_eq!(c.fo, FoKind::Oue);
        assert_eq!(c.seed, 99);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_maps_each_violation_to_its_variant() {
        let base = ProtocolConfig::default();
        let cases = [
            (
                ProtocolConfig { k: 0, ..base },
                "query k",
                "query k must be positive, got 0",
            ),
            (
                ProtocolConfig {
                    max_bits: 65,
                    granularity: 8,
                    ..base
                },
                "max_bits",
                "max_bits must be in 1..=64, got 65",
            ),
            (
                ProtocolConfig {
                    granularity: 0,
                    ..base
                },
                "granularity",
                "granularity must be in 1..=max_bits (48), got 0",
            ),
            (
                ProtocolConfig {
                    granularity: 64,
                    max_bits: 48,
                    ..base
                },
                "granularity",
                "granularity must be in 1..=max_bits (48), got 64",
            ),
            (
                ProtocolConfig {
                    dividing_ratio: 0.7,
                    ..base
                },
                "dividing ratio",
                "dividing ratio must be in [0, 0.5), got 0.7",
            ),
            (
                ProtocolConfig {
                    shared_ratio: 1.5,
                    ..base
                },
                "shared ratio",
                "shared ratio must be in [0, 1], got 1.5",
            ),
            (
                ProtocolConfig {
                    phase1_user_fraction: 1.0,
                    ..base
                },
                "phase-1 user fraction",
                "phase-1 user fraction must be in [0, 1), got 1",
            ),
        ];
        for (config, rejected, message) in cases {
            let err = config.validate().unwrap_err();
            assert!(
                matches!(err, ProtocolError::InvalidParameter { name, .. } if name == rejected),
                "{err:?}"
            );
            assert_eq!(err.to_string(), message);
        }
        assert_eq!(
            ProtocolConfig {
                epsilon: -1.0,
                ..base
            }
            .validate(),
            Err(ProtocolError::Oracle(FoError::InvalidBudget(-1.0)))
        );
    }

    #[test]
    fn budget_reports_invalid_epsilon_instead_of_panicking() {
        assert!(ProtocolConfig::default().budget().is_ok());
        for epsilon in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let config = ProtocolConfig {
                epsilon,
                ..Default::default()
            };
            // NaN never compares equal, so match on the variant instead.
            assert!(matches!(
                config.budget(),
                Err(ProtocolError::Oracle(FoError::InvalidBudget(_)))
            ));
        }
    }

    #[test]
    fn test_default_is_small_but_valid() {
        let c = ProtocolConfig::test_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.max_bits, 16);
        assert_eq!(c.granularity, 8);
        assert!(c.shared_levels() >= 1);
    }
}
