//! Error types for the frequency-oracle crate.

use std::fmt;

/// Errors raised while constructing a privacy budget or a frequency oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum FoError {
    /// The privacy budget ε must have 1 < e^ε < ∞.
    InvalidBudget(f64),
    /// The candidate domain must contain at least two values (including the
    /// dummy slot) for randomized response to be meaningful.
    DomainTooSmall(usize),
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
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<FoError>();
    }
}
