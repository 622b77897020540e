//! Table 7: average recall of global ground truths among each party's local
//! heavy hitters (ε = 4, k = 10) — the paper's measure of how well each
//! mechanism copes with statistical heterogeneity.

use super::*;

/// The Table 7 comparison.
pub const TABLE7: Experiment = Experiment {
    id: "table7",
    title: "Table 7: average local recall of global ground truths (eps = 4, k = 10)",
    metrics: &[LOCAL_RECALL],
    cells: |scale| grid(scale, &DatasetKind::ALL, &[10], &[4.0], &MAIN),
};

#[cfg(test)]
mod tests {
    use super::super::tests::quick_rows;

    #[test]
    fn recall_scores_are_probabilities() {
        let rows = quick_rows("table7");
        assert_eq!(rows.len(), 5 * 3);
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.mean)));
    }
}
