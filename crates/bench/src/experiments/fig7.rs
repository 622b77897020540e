//! Figure 7: F1 of TAPS versus TAP (the consensus-based pruning ablation)
//! across privacy budgets and query sizes.

use super::*;

/// The Figure 7 comparison.
pub const FIG7: Experiment = Experiment {
    id: "fig7",
    title: "Figure 7: F1 of TAPS (with pruning) vs TAP (without pruning)",
    metrics: &[F1],
    cells: |scale| {
        let variants = [MechanismKind::Tap, MechanismKind::Taps].map(Variant::Kind);
        grid(scale, &DatasetKind::ALL, &QUERIES, &EPSILONS, &variants)
    },
};

#[cfg(test)]
mod tests {
    use super::super::tests::quick_rows;

    #[test]
    fn tap_and_taps_trials_run_at_quick_scale() {
        let rows = quick_rows("fig7");
        for mechanism in ["TAP", "TAPS"] {
            let of: Vec<_> = rows.iter().filter(|r| r.mechanism == mechanism).collect();
            assert_eq!(of.len(), 5 * 3 * 5, "{mechanism}");
            assert!(of.iter().all(|r| r.mean <= 1.0), "{mechanism}");
        }
    }
}
