//! Table 1: communication and computation costs of the compared approaches.
//!
//! The paper's Table 1 is an asymptotic cost model (b bits per report, k
//! the query, |P| parties, g* the levels TAPS prunes, |U| users, |X| the
//! item domain):
//!
//! | Approach | Communication | Computation |
//! |---|---|---|
//! | GTF, FedPEM | O(b·k·\|P\|) | O(k·\|P\|) |
//! | TAPS | O(b·k·\|P\|·g*) | O(k·\|P\|) |
//! | OUE direct upload | O(\|U\|·\|X\|) | O(\|U\|·\|X\|) |
//! | OLH direct upload | O(b·\|U\|) | O(\|U\|·\|X\|) |
//!
//! This experiment measures the server traffic of each feasible mechanism
//! on the YCM stand-in next to the analytic traffic of the infeasible
//! direct uploads (`Variant::Direct`), to show the gap the prefix-tree
//! mechanisms close.

use super::*;

/// The Table 1 comparison.
pub const TABLE1: Experiment = Experiment {
    id: "table1",
    title: "Table 1: communication costs (eps = 4, k = 10)",
    metrics: &[SERVER_KB],
    cells: |scale| {
        let variants = [&MAIN[..], &DIRECT].concat();
        grid(scale, &[DatasetKind::Ycm], &[10], &[4.0], &variants)
    },
};

#[cfg(test)]
mod tests {
    use super::super::tests::quick_rows;

    #[test]
    fn table1_orders_costs_as_the_paper_does() {
        let rows = quick_rows("table1");
        let traffic = |mechanism: &str| {
            let row = rows.iter().find(|r| r.mechanism == mechanism).unwrap();
            row.mean
        };
        assert_eq!(rows.len(), 5);
        // The prefix-tree mechanisms must be far below direct OUE upload —
        // the central claim of Table 1.
        let direct = traffic("OUE direct");
        assert!(traffic("GTF") < direct / 10.0);
        assert!(traffic("TAPS") < direct / 10.0);
        // TAPS spends at least as much as FedPEM (pruning dictionaries).
        assert!(traffic("TAPS") >= traffic("FedPEM") * 0.5);
        assert!(traffic("OLH direct") > 0.0);
    }
}
