//! Figure 6: F1 score vs privacy budget under the OUE and OLH frequency
//! oracles (k = 10), confirming TAPS is robust to the choice of FO.

use super::*;

/// The Figure 6 sweep.
pub const FIG6: Experiment = Experiment {
    id: "fig6",
    title: "Figure 6: F1 score vs privacy budget under OUE and OLH (k = 10)",
    metrics: &[F1],
    cells: |scale| {
        let under = |fo: FoKind| {
            let cells = grid(scale, &DatasetKind::ALL, &[10], &EPSILONS, &MAIN);
            swept(cells, String::new(), |cell| cell.protocol.fo = fo)
        };
        [under(FoKind::Oue), under(FoKind::Olh)].concat()
    },
};

#[cfg(test)]
mod tests {
    use super::super::tests::quick_rows;

    #[test]
    fn oue_and_olh_trials_run_at_quick_scale() {
        let rows = quick_rows("fig6");
        for fo in ["oue", "olh"] {
            let under: Vec<_> = rows.iter().filter(|r| r.oracle == fo).collect();
            assert_eq!(under.len(), 5 * 5 * 3, "{fo}");
            assert!(under.iter().all(|r| r.mean <= 1.0), "{fo}");
        }
    }
}
