//! Error types for the frequency-oracle crate.

use std::fmt;

/// Errors raised while constructing or operating a frequency oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum FoError {
    /// The privacy budget ε must have 1 < e^ε < ∞.
    InvalidBudget(f64),
    /// The candidate domain must contain at least two values (including the
    /// dummy slot) for randomized response to be meaningful.
    DomainTooSmall(usize),
    /// An input index was outside the candidate domain.
    IndexOutOfRange {
        /// Offending index.
        index: usize,
        /// Domain size.
        domain: usize,
    },
    /// A report was produced by a different oracle configuration than the
    /// one trying to aggregate it (e.g. an OUE bit-vector handed to GRR).
    ReportMismatch(&'static str),
    /// The number of reports does not match the claimed user count.
    InconsistentCounts {
        /// Reports seen.
        reports: usize,
        /// Users claimed.
        users: usize,
    },
}

impl fmt::Display for FoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoError::InvalidBudget(eps) => {
                write!(f, "privacy budget must have 1 < e^ε < ∞, got {eps}")
            }
            FoError::DomainTooSmall(size) => {
                write!(
                    f,
                    "candidate domain must have at least 2 entries, got {size}"
                )
            }
            FoError::IndexOutOfRange { index, domain } => {
                write!(
                    f,
                    "index {index} is outside the candidate domain of size {domain}"
                )
            }
            FoError::ReportMismatch(expected) => {
                write!(f, "report type does not match oracle, expected {expected}")
            }
            FoError::InconsistentCounts { reports, users } => {
                write!(f, "got {reports} reports but {users} users were claimed")
            }
        }
    }
}

impl std::error::Error for FoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let err = FoError::InvalidBudget(-1.0);
        assert!(err.to_string().contains("-1"));
        let err = FoError::DomainTooSmall(1);
        assert!(err.to_string().contains("2"));
        let err = FoError::IndexOutOfRange {
            index: 9,
            domain: 4,
        };
        assert!(err.to_string().contains("9"));
        assert!(err.to_string().contains("4"));
        let err = FoError::ReportMismatch("grr");
        assert!(err.to_string().contains("grr"));
        let err = FoError::InconsistentCounts {
            reports: 3,
            users: 5,
        };
        assert!(err.to_string().contains("3"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<FoError>();
    }
}
