//! Typed errors for protocol configuration and execution.
//!
//! Every failure a caller can provoke through a [`crate::ProtocolConfig`] or
//! a mismatched dataset surfaces as a [`ProtocolError`] instead of a panic,
//! so services embedding the mechanisms can reject bad requests gracefully
//! and map each variant to a stable error code.

use fedhh_fo::FoError;
use fedhh_wire::WireError;
use std::fmt;

/// A structured error raised while validating or executing a federated
/// heavy hitter run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The query size k must be positive.
    InvalidQuery {
        /// The rejected query size.
        k: usize,
    },
    /// The privacy budget ε must be strictly positive and finite.
    InvalidBudget {
        /// The rejected budget.
        epsilon: f64,
    },
    /// The item-code width m must satisfy `1 <= m <= 64`.
    InvalidBitWidth {
        /// The rejected code width.
        max_bits: u8,
    },
    /// The granularity g must satisfy `1 <= g <= max_bits`.
    InvalidGranularity {
        /// The rejected granularity.
        granularity: u8,
        /// The configured code width m.
        max_bits: u8,
    },
    /// The shared-trie ratio must lie in `[0, 1]`.
    InvalidSharedRatio {
        /// The rejected ratio.
        ratio: f64,
    },
    /// The dividing ratio β must lie in `[0, 0.5)`.
    InvalidDividingRatio {
        /// The rejected ratio.
        ratio: f64,
    },
    /// The Phase I user fraction must lie in `[0, 1)`.
    InvalidPhase1Fraction {
        /// The rejected fraction.
        fraction: f64,
    },
    /// The engine parallelism must be at least 1.
    InvalidParallelism {
        /// The rejected worker count.
        parallelism: usize,
    },
    /// An aggregation tree needs `fanout >= 2` and `1 <= depth <= 8`.
    InvalidTopology {
        /// The rejected cohort fanout.
        fanout: usize,
        /// The rejected tree depth.
        depth: usize,
    },
    /// The quorum fraction must lie in `(0, 1]`.
    InvalidQuorum {
        /// The rejected fraction.
        fraction: f64,
    },
    /// The fault plan's dropout fraction must lie in `[0, 1]`.
    InvalidDropout {
        /// The rejected fraction.
        fraction: f64,
    },
    /// A scenario's adversary fraction must lie in `[0, 1]`.
    InvalidAdversaryFraction {
        /// The rejected fraction.
        fraction: f64,
    },
    /// A group assignment needs at least one group.
    InvalidGroupCount {
        /// The rejected group count.
        groups: u8,
    },
    /// A weighted group assignment cannot reserve more phase-1 levels than
    /// there are groups.
    InvalidPhaseSplit {
        /// The rejected number of phase-1 levels.
        phase1_levels: u8,
        /// The total number of groups.
        groups: u8,
    },
    /// Every user in the federation has exhausted their lifetime privacy
    /// budget: the epoch could not enroll anyone.
    BudgetExhausted {
        /// The epoch that found no enrollable users.
        epoch: u32,
    },
    /// A checkpoint's budget ledger holds a spend that is negative, NaN or
    /// infinite, which would let the user's cap admit extra epochs.
    InvalidLedgerSpend {
        /// The party index.
        party: usize,
        /// The user slot within the party.
        user: usize,
        /// The rejected spend.
        spent: f64,
    },
    /// A warm-start code does not fit in `max_bits`.
    WarmCodeOutOfRange {
        /// The rejected item code.
        code: u64,
        /// The configured code width m.
        max_bits: u8,
    },
    /// The run was started without a dataset.
    MissingDataset,
    /// The dataset holds no parties or no users.
    EmptyDataset {
        /// Name of the offending dataset.
        dataset: String,
    },
    /// The dataset's item-code width differs from the configured `max_bits`.
    BitWidthMismatch {
        /// The dataset's code width.
        dataset_bits: u8,
        /// The configured code width.
        config_bits: u8,
    },
    /// A frequency-oracle operation failed.
    Oracle(FoError),
    /// The transport or wire layer failed: a socket error, a malformed or
    /// incompatible frame, or a remote peer aborting the exchange.
    Transport(WireError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidQuery { k } => {
                write!(f, "query k must be positive, got {k}")
            }
            ProtocolError::InvalidBudget { epsilon } => {
                write!(
                    f,
                    "privacy budget must be positive and finite, got {epsilon}"
                )
            }
            ProtocolError::InvalidBitWidth { max_bits } => {
                write!(f, "max_bits must be in 1..=64, got {max_bits}")
            }
            ProtocolError::InvalidGranularity {
                granularity,
                max_bits,
            } => {
                write!(f, "granularity {granularity} must be in 1..={max_bits}")
            }
            ProtocolError::InvalidSharedRatio { ratio } => {
                write!(f, "shared ratio must be in [0, 1], got {ratio}")
            }
            ProtocolError::InvalidDividingRatio { ratio } => {
                write!(f, "dividing ratio must be in [0, 0.5), got {ratio}")
            }
            ProtocolError::InvalidPhase1Fraction { fraction } => {
                write!(f, "phase-1 user fraction must be in [0, 1), got {fraction}")
            }
            ProtocolError::InvalidParallelism { parallelism } => {
                write!(
                    f,
                    "engine parallelism must be at least 1, got {parallelism}"
                )
            }
            ProtocolError::InvalidTopology { fanout, depth } => {
                write!(
                    f,
                    "aggregation tree needs fanout >= 2 and depth in 1..=8, \
                     got fanout {fanout} depth {depth}"
                )
            }
            ProtocolError::InvalidQuorum { fraction } => {
                write!(f, "quorum fraction must be in (0, 1], got {fraction}")
            }
            ProtocolError::InvalidDropout { fraction } => {
                write!(f, "dropout fraction must be in [0, 1], got {fraction}")
            }
            ProtocolError::InvalidAdversaryFraction { fraction } => {
                write!(f, "adversary fraction must be in [0, 1], got {fraction}")
            }
            ProtocolError::InvalidGroupCount { groups } => {
                write!(f, "group assignment needs at least one group, got {groups}")
            }
            ProtocolError::InvalidPhaseSplit {
                phase1_levels,
                groups,
            } => {
                write!(
                    f,
                    "phase-1 levels {phase1_levels} cannot exceed the {groups} groups"
                )
            }
            ProtocolError::BudgetExhausted { epoch } => {
                write!(
                    f,
                    "epoch {epoch} could not enroll any user: every lifetime \
                     privacy budget is exhausted"
                )
            }
            ProtocolError::InvalidLedgerSpend { party, user, spent } => {
                write!(
                    f,
                    "ledger spend of party {party} user {user} must be finite and \
                     non-negative, got {spent}"
                )
            }
            ProtocolError::WarmCodeOutOfRange { code, max_bits } => {
                write!(
                    f,
                    "warm-start code {code:#x} does not fit in max_bits = {max_bits}"
                )
            }
            ProtocolError::MissingDataset => {
                write!(f, "no dataset was provided to the run")
            }
            ProtocolError::EmptyDataset { dataset } => {
                write!(f, "dataset {dataset} holds no parties or no users")
            }
            ProtocolError::BitWidthMismatch {
                dataset_bits,
                config_bits,
            } => {
                write!(
                    f,
                    "dataset uses {dataset_bits}-bit item codes but the protocol is \
                     configured for max_bits = {config_bits}"
                )
            }
            ProtocolError::Oracle(err) => write!(f, "frequency oracle error: {err}"),
            ProtocolError::Transport(err) => write!(f, "transport error: {err}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Oracle(err) => Some(err),
            ProtocolError::Transport(err) => Some(err),
            _ => None,
        }
    }
}

impl From<FoError> for ProtocolError {
    fn from(err: FoError) -> Self {
        ProtocolError::Oracle(err)
    }
}

impl From<WireError> for ProtocolError {
    fn from(err: WireError) -> Self {
        ProtocolError::Transport(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_human_readable() {
        let cases: Vec<(ProtocolError, &str)> = vec![
            (ProtocolError::InvalidQuery { k: 0 }, "query k"),
            (ProtocolError::InvalidBudget { epsilon: -1.0 }, "-1"),
            (ProtocolError::InvalidBitWidth { max_bits: 65 }, "65"),
            (
                ProtocolError::InvalidGranularity {
                    granularity: 64,
                    max_bits: 48,
                },
                "64",
            ),
            (ProtocolError::InvalidSharedRatio { ratio: 1.5 }, "1.5"),
            (ProtocolError::InvalidDividingRatio { ratio: 0.7 }, "0.7"),
            (
                ProtocolError::InvalidPhase1Fraction { fraction: 1.0 },
                "phase-1",
            ),
            (
                ProtocolError::InvalidParallelism { parallelism: 0 },
                "parallelism",
            ),
            (
                ProtocolError::InvalidTopology {
                    fanout: 1,
                    depth: 1,
                },
                "fanout 1",
            ),
            (ProtocolError::InvalidQuorum { fraction: 0.0 }, "quorum"),
            (ProtocolError::InvalidDropout { fraction: 1.5 }, "1.5"),
            (
                ProtocolError::InvalidAdversaryFraction { fraction: -0.5 },
                "adversary",
            ),
            (ProtocolError::InvalidGroupCount { groups: 0 }, "group"),
            (
                ProtocolError::InvalidPhaseSplit {
                    phase1_levels: 9,
                    groups: 8,
                },
                "9",
            ),
            (ProtocolError::BudgetExhausted { epoch: 4 }, "epoch 4"),
            (
                ProtocolError::InvalidLedgerSpend {
                    party: 1,
                    user: 3,
                    spent: -8.0,
                },
                "-8",
            ),
            (
                ProtocolError::WarmCodeOutOfRange {
                    code: 0x1_0007,
                    max_bits: 16,
                },
                "0x10007",
            ),
            (ProtocolError::MissingDataset, "no dataset"),
            (
                ProtocolError::EmptyDataset {
                    dataset: "RDB".into(),
                },
                "RDB",
            ),
            (
                ProtocolError::BitWidthMismatch {
                    dataset_bits: 16,
                    config_bits: 48,
                },
                "16",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err} missing {needle}");
        }
    }

    #[test]
    fn wraps_wire_errors_with_a_source() {
        use std::error::Error as _;
        let err = ProtocolError::from(WireError::VarintOverflow);
        assert!(matches!(err, ProtocolError::Transport(_)));
        assert!(err.source().is_some());
        assert!(err.to_string().contains("transport"));
    }

    #[test]
    fn wraps_fo_errors_with_a_source() {
        use std::error::Error as _;
        let err = ProtocolError::from(FoError::DomainTooSmall(1));
        assert!(matches!(err, ProtocolError::Oracle(_)));
        assert!(err.source().is_some());
        assert!(err.to_string().contains("frequency oracle"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<ProtocolError>();
    }
}
