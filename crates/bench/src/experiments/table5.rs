//! Table 5: F1 of TAPS with fixed extension numbers t ∈ {⌊k/2⌋, k, 2k, 3k}
//! versus the adaptive extension rule (ε = 4, k = 10).

use super::*;
use fedhh_mechanisms::ExtensionStrategy;

/// The extension rules Table 5 compares at k = 10, with their labels.
pub(crate) const STRATEGIES: [(&str, ExtensionStrategy); 5] = [
    ("t=k/2", ExtensionStrategy::Fixed(5)),
    ("t=k", ExtensionStrategy::Fixed(10)),
    ("t=2k", ExtensionStrategy::Fixed(20)),
    ("t=3k", ExtensionStrategy::Fixed(30)),
    ("adaptive", ExtensionStrategy::Adaptive),
];

/// The Table 5 ablation.
pub const TABLE5: Experiment = Experiment {
    id: "table5",
    title: "Table 5: fixed vs adaptive extension numbers (eps = 4, k = 10)",
    metrics: &[F1],
    cells: |scale| {
        let with = |(label, strategy): (&str, ExtensionStrategy)| {
            let taps = Variant::Taps(Taps::with_extension(strategy));
            let cells = grid(scale, &DatasetKind::ALL, &[10], &[4.0], &[taps]);
            swept(cells, label.to_string(), |_| {})
        };
        STRATEGIES.into_iter().flat_map(with).collect()
    },
};

#[cfg(test)]
mod tests {
    use super::super::tests::quick_rows;
    use super::STRATEGIES;

    #[test]
    fn fixed_and_adaptive_variants_run_at_quick_scale() {
        let rows = quick_rows("table5");
        for (label, _) in STRATEGIES {
            let with: Vec<_> = rows.iter().filter(|r| r.parameter == label).collect();
            assert_eq!(with.len(), 5, "{label}");
            assert!(with.iter().all(|r| r.mechanism == "TAPS" && r.mean <= 1.0));
        }
    }
}
