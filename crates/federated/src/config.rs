//! Protocol configuration broadcast by the server to every party.

use crate::error::ProtocolError;
use crate::topology::{QuorumPolicy, Topology};
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

/// The full parameter set of a federated heavy hitter run.
///
/// Defaults follow Section 7.1 of the paper: k-RR as the FO, maximum binary
/// length m = 48, granularity g = 24 (step size 2), shared-trie ratio 0.25,
/// dividing ratio β = 0.1, and 10% of users assigned to Phase I.
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
    /// How party uploads reach the root aggregator: the flat star or a
    /// cohort tree ([`Topology::Tree`] is bit-identical to
    /// [`Topology::Flat`] at quorum 1.0; merging is lossless).
    pub topology: Topology,
    /// Quorum-based round closure: the response fraction that closes a
    /// round, drawn deterministically per `(seed, round)`.
    pub quorum: QuorumPolicy,
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
            topology: Topology::Flat,
            quorum: QuorumPolicy::full(),
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

    /// The validated privacy budget, rejecting non-positive or non-finite ε.
    pub fn budget(&self) -> Result<PrivacyBudget, ProtocolError> {
        PrivacyBudget::new(self.epsilon).map_err(|_| ProtocolError::InvalidBudget {
            epsilon: self.epsilon,
        })
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

    /// Returns a copy with a different aggregation topology
    /// (bit-identical results at quorum 1.0 for any topology).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Returns a copy with a different quorum-closure policy.
    pub fn with_quorum(mut self, quorum: QuorumPolicy) -> Self {
        self.quorum = quorum;
        self
    }

    /// Validates internal consistency; called by the run API before any
    /// mechanism executes.  Every violation maps to a dedicated
    /// [`ProtocolError`] variant.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.k == 0 {
            return Err(ProtocolError::InvalidQuery { k: self.k });
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(ProtocolError::InvalidBudget {
                epsilon: self.epsilon,
            });
        }
        if !(1..=64).contains(&self.max_bits) {
            return Err(ProtocolError::InvalidBitWidth {
                max_bits: self.max_bits,
            });
        }
        if self.granularity == 0 || self.granularity > self.max_bits {
            return Err(ProtocolError::InvalidGranularity {
                granularity: self.granularity,
                max_bits: self.max_bits,
            });
        }
        if !(0.0..=1.0).contains(&self.shared_ratio) {
            return Err(ProtocolError::InvalidSharedRatio {
                ratio: self.shared_ratio,
            });
        }
        if !(0.0..0.5).contains(&self.dividing_ratio) {
            return Err(ProtocolError::InvalidDividingRatio {
                ratio: self.dividing_ratio,
            });
        }
        if !(0.0..1.0).contains(&self.phase1_user_fraction) {
            return Err(ProtocolError::InvalidPhase1Fraction {
                fraction: self.phase1_user_fraction,
            });
        }
        self.topology.validate()?;
        if !self.quorum.is_valid() {
            return Err(ProtocolError::InvalidQuorum {
                fraction: self.quorum.fraction,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(
            ProtocolConfig {
                k: 0,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidQuery { k: 0 })
        );
        assert_eq!(
            ProtocolConfig {
                epsilon: -1.0,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidBudget { epsilon: -1.0 })
        );
        assert_eq!(
            ProtocolConfig {
                max_bits: 65,
                granularity: 8,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidBitWidth { max_bits: 65 })
        );
        assert_eq!(
            ProtocolConfig {
                granularity: 0,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidGranularity {
                granularity: 0,
                max_bits: 48
            })
        );
        assert_eq!(
            ProtocolConfig {
                granularity: 64,
                max_bits: 48,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidGranularity {
                granularity: 64,
                max_bits: 48
            })
        );
        assert_eq!(
            ProtocolConfig {
                dividing_ratio: 0.7,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidDividingRatio { ratio: 0.7 })
        );
        assert_eq!(
            ProtocolConfig {
                shared_ratio: 1.5,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidSharedRatio { ratio: 1.5 })
        );
        assert_eq!(
            ProtocolConfig {
                phase1_user_fraction: 1.0,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidPhase1Fraction { fraction: 1.0 })
        );
        assert_eq!(
            ProtocolConfig {
                topology: Topology::Tree {
                    fanout: 1,
                    depth: 1
                },
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidTopology {
                fanout: 1,
                depth: 1
            })
        );
        assert_eq!(
            ProtocolConfig {
                quorum: QuorumPolicy {
                    fraction: 0.0,
                    seed: 0
                },
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidQuorum { fraction: 0.0 })
        );
    }

    #[test]
    fn topology_and_quorum_builders_pin_the_axis() {
        let c = ProtocolConfig::default()
            .with_topology(Topology::Tree {
                fanout: 4,
                depth: 2,
            })
            .with_quorum(QuorumPolicy {
                fraction: 0.75,
                seed: 9,
            });
        assert_eq!(
            c.topology,
            Topology::Tree {
                fanout: 4,
                depth: 2
            }
        );
        assert_eq!(c.quorum.fraction, 0.75);
        assert!(c.validate().is_ok());
        // The defaults stay on today's behaviour.
        let d = ProtocolConfig::default();
        assert!(d.topology.is_flat());
        assert!(!d.quorum.is_partial());
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
                Err(ProtocolError::InvalidBudget { .. })
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
