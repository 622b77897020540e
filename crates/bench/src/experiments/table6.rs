//! Table 6: F1 of TAPS with and without the shared shallow trie (ε = 4,
//! k = 10).

use super::*;

/// The Table 6 ablation.
pub const TABLE6: Experiment = Experiment {
    id: "table6",
    title: "Table 6: TAPS with / without the shared shallow trie (eps = 4, k = 10)",
    metrics: &[F1],
    cells: |scale| {
        let with = |(label, taps): (&str, Taps)| {
            let cells = grid(
                scale,
                &DatasetKind::ALL,
                &[10],
                &[4.0],
                &[Variant::Taps(taps)],
            );
            swept(cells, label.to_string(), |_| {})
        };
        let arms = [
            ("without shared trie", Taps::without_shared_trie()),
            ("with shared trie", Taps::default()),
        ];
        arms.into_iter().flat_map(with).collect()
    },
};

#[cfg(test)]
mod tests {
    use super::super::tests::quick_rows;

    #[test]
    fn both_variants_run_at_quick_scale() {
        let rows = quick_rows("table6");
        for arm in ["without shared trie", "with shared trie"] {
            let of: Vec<_> = rows.iter().filter(|r| r.parameter == arm).collect();
            assert_eq!(of.len(), 5, "{arm}");
            assert!(of.iter().all(|r| r.mean <= 1.0), "{arm}");
        }
    }
}
