//! Table 8: F1 under varying data heterogeneity on SYN, controlled by the
//! Dirichlet concentration β ∈ {0.2, 0.5, 0.8} (ε = 4, k = 10).

use super::*;

/// The Dirichlet concentrations swept by Table 8 (smaller = more non-IID).
pub const BETAS: [f64; 3] = [0.2, 0.5, 0.8];

/// The Table 8 sweep.
pub const TABLE8: Experiment = Experiment {
    id: "table8",
    title: "Table 8: F1 vs data heterogeneity (Dirichlet beta) on SYN (eps = 4, k = 10)",
    metrics: &[F1],
    cells: |scale| {
        let at = |beta: f64| {
            let cells = grid(scale, &[DatasetKind::Syn], &[10], &[4.0], &MAIN);
            swept(cells, format!("beta={beta}"), |c| c.data.syn_beta = beta)
        };
        BETAS.into_iter().flat_map(at).collect()
    },
};

#[cfg(test)]
mod tests {
    use super::super::tests::quick_rows;
    use super::BETAS;

    #[test]
    fn table8_has_one_row_per_beta() {
        let rows = quick_rows("table8");
        for beta in BETAS {
            let at: Vec<_> = rows
                .iter()
                .filter(|r| r.parameter == format!("beta={beta}"))
                .collect();
            // One row per mechanism.
            assert_eq!(at.len(), 3, "beta {beta}");
            assert!(at.iter().all(|r| (0.0..=1.0).contains(&r.mean)));
        }
    }
}
