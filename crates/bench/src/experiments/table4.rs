//! Table 4: scalability under varying user population on UBA (ε = 4,
//! k = 10): F1 score and server-side communication for each mechanism,
//! plus the analytic cost of the infeasible direct uploads.  Each fraction
//! generates UBA at that fraction of the scale's user population.

use super::*;

/// The user-population fractions swept by Table 4.
pub const FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// The Table 4 sweep.
pub const TABLE4: Experiment = Experiment {
    id: "table4",
    title: "Table 4: scalability on UBA (eps = 4, k = 10)",
    metrics: &[F1, SERVER_KB],
    cells: |scale| {
        let variants = [&MAIN[..], &DIRECT].concat();
        let at = |fraction: f64| {
            let cells = grid(scale, &[DatasetKind::Uba], &[10], &[4.0], &variants);
            let users = format!("users={:.0}%", fraction * 100.0);
            swept(cells, users, |c| {
                c.data.user_scale = scale.user_scale * fraction
            })
        };
        FRACTIONS.into_iter().flat_map(at).collect()
    },
};

#[cfg(test)]
mod tests {
    use super::super::tests::quick_rows;
    use super::FRACTIONS;

    #[test]
    fn table4_covers_every_fraction_and_mechanism() {
        let rows = quick_rows("table4");
        // Per fraction: F1 and traffic for each of the three mechanisms,
        // traffic alone for the two direct uploads.
        assert_eq!(rows.len(), FRACTIONS.len() * (3 * 2 + 2));
        for fraction in FRACTIONS {
            let users = format!("users={:.0}%", fraction * 100.0);
            assert_eq!(rows.iter().filter(|r| r.parameter == users).count(), 8);
        }
        // The direct uploads grow with the population.
        let olh = |users: &str| {
            let row = rows
                .iter()
                .find(|r| r.parameter == users && r.mechanism == "OLH direct");
            row.unwrap().mean
        };
        assert!(olh("users=25%") < olh("users=100%"));
    }
}
