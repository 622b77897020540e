//! Privacy budget handling.
//!
//! The privacy budget ε controls the plausible deniability of every local
//! randomizer: for any two inputs x, x' and output y,
//! Pr[M(x)=y] ≤ e^ε · Pr[M(x')=y].  The paper evaluates ε ∈ [1, 5]; this
//! type validates the budget once so the oracles can assume a sane value.

use crate::error::FoError;

/// A validated, strictly positive and finite privacy budget ε.
///
/// In the TAP/TAPS mechanisms every user reports exactly once, so the whole
/// budget is spent on a single frequency-oracle invocation and no budget
/// splitting is required (Section 5.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyBudget {
    epsilon: f64,
}

impl PrivacyBudget {
    /// Creates a budget, rejecting non-positive or non-finite ε.
    pub fn new(epsilon: f64) -> Result<Self, FoError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(FoError::InvalidBudget(epsilon));
        }
        Ok(Self { epsilon })
    }

    /// The raw ε value.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// e^ε, the likelihood ratio bound used throughout the oracle formulas.
    #[inline]
    pub fn exp_epsilon(&self) -> f64 {
        self.epsilon.exp()
    }
}

impl TryFrom<f64> for PrivacyBudget {
    type Error = FoError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_budgets() {
        for eps in [0.1, 1.0, 2.0, 5.0, 10.0] {
            let b = PrivacyBudget::new(eps).unwrap();
            assert_eq!(b.epsilon(), eps);
            assert!((b.exp_epsilon() - eps.exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_invalid_budgets() {
        assert!(PrivacyBudget::new(0.0).is_err());
        assert!(PrivacyBudget::new(-1.0).is_err());
        assert!(PrivacyBudget::new(f64::NAN).is_err());
        assert!(PrivacyBudget::new(f64::INFINITY).is_err());
    }

    #[test]
    fn try_from_round_trips() {
        let b: PrivacyBudget = 2.5f64.try_into().unwrap();
        assert_eq!(b.epsilon(), 2.5);
        let e: Result<PrivacyBudget, _> = (-3.0f64).try_into();
        assert!(e.is_err());
    }
}
