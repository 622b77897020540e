//! Typed errors for protocol configuration and execution.
//!
//! Every failure a caller can provoke through a [`crate::ProtocolConfig`] or
//! a mismatched dataset surfaces as a [`ProtocolError`] instead of a panic,
//! so services embedding the mechanisms can reject bad requests gracefully
//! and map each variant, and each rejected parameter's name, to a stable
//! error code.

use fedhh_fo::FoError;
use fedhh_wire::WireError;
use std::fmt;

/// A structured error raised while validating or executing a federated
/// heavy hitter run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// A parameter broke its validity rule.  The check that owns the rule
    /// builds this, with the rule's text beside its condition; it displays
    /// as `"{name} must {rule}, got {value}"`.
    InvalidParameter {
        /// The rejected parameter, e.g. `"query k"`.
        name: &'static str,
        /// The rejected value, as displayed.
        value: String,
        /// The rule the value broke, e.g. `"be positive"`.
        rule: String,
    },
    /// Every user in the federation has exhausted their lifetime privacy
    /// budget: the epoch could not enroll anyone.
    BudgetExhausted {
        /// The epoch that found no enrollable users.
        epoch: u32,
    },
    /// The run was started without a dataset.
    MissingDataset,
    /// The dataset holds no parties or no users.
    EmptyDataset {
        /// Name of the offending dataset.
        dataset: String,
    },
    /// A frequency-oracle operation failed, or the privacy budget ε is
    /// invalid ([`FoError::InvalidBudget`]).
    Oracle(FoError),
    /// The transport or wire layer failed: a socket error, a malformed or
    /// incompatible frame, or a remote peer aborting the exchange.
    Transport(WireError),
}

impl ProtocolError {
    /// The error for a `name` whose `value` does not `rule`.
    pub(crate) fn invalid(
        name: &'static str,
        rule: impl Into<String>,
        value: impl fmt::Display,
    ) -> Self {
        ProtocolError::InvalidParameter {
            name,
            value: value.to_string(),
            rule: rule.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidParameter { name, value, rule } => {
                write!(f, "{name} must {rule}, got {value}")
            }
            ProtocolError::BudgetExhausted { epoch } => {
                write!(
                    f,
                    "epoch {epoch} could not enroll any user: every lifetime \
                     privacy budget is exhausted"
                )
            }
            ProtocolError::MissingDataset => {
                write!(f, "no dataset was provided to the run")
            }
            ProtocolError::EmptyDataset { dataset } => {
                write!(f, "dataset {dataset} holds no parties or no users")
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
            (
                ProtocolError::invalid("query k", "be positive", 0),
                "query k must be positive, got 0",
            ),
            (ProtocolError::BudgetExhausted { epoch: 4 }, "epoch 4"),
            (ProtocolError::MissingDataset, "no dataset"),
            (
                ProtocolError::EmptyDataset {
                    dataset: "RDB".into(),
                },
                "RDB",
            ),
            (
                ProtocolError::Oracle(FoError::InvalidBudget(-1.0)),
                "frequency oracle error: privacy budget",
            ),
            (
                ProtocolError::Transport(WireError::VarintOverflow),
                "transport error",
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
