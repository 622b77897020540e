//! Utility degradation under attack: how far a metric falls from its
//! benign baseline.
//!
//! The robustness matrix (`fedhh-bench scenario`) reports every cell as
//! the attacked score *and* its drop from the fault-free baseline, so a
//! reader can compare mechanisms without re-deriving the baseline column.

/// Absolute degradation: `baseline − attacked`.
///
/// Positive when the attack hurt, zero when nothing changed, and negative
/// in the (noise-driven) case where the attacked run scored higher — the
/// sign is preserved so a robustness report cannot hide an inverted cell.
pub fn degradation(baseline: f64, attacked: f64) -> f64 {
    baseline - attacked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_are_signed_and_exact() {
        assert_eq!(degradation(0.9, 0.6), 0.9 - 0.6);
        assert_eq!(degradation(0.5, 0.5), 0.0);
        // An attacked run that scores higher yields a negative drop.
        assert!(degradation(0.4, 0.6) < 0.0);
    }
}
