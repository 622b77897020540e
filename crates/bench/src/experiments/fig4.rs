//! Figure 4: F1 score vs privacy budget ε for k ∈ {10, 20, 40} on all five
//! dataset groups, comparing GTF, FedPEM and TAPS.

use super::*;

/// The Figure 4 sweep.
pub const FIG4: Experiment = Experiment {
    id: "fig4",
    title: "Figure 4: F1 score vs privacy budget",
    metrics: &[F1],
    cells: |scale| grid(scale, &DatasetKind::ALL, &QUERIES, &EPSILONS, &MAIN),
};

#[cfg(test)]
mod tests {
    use super::super::tests::quick_rows;

    #[test]
    fn quick_scale_produces_full_grid() {
        let rows = quick_rows("fig4");
        // 5 datasets × 3 queries × 5 budgets × 3 mechanisms.
        assert_eq!(rows.len(), 5 * 3 * 5 * 3);
        assert!(rows.iter().all(|r| r.metric == "f1" && r.mean <= 1.0));
    }
}
