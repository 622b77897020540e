//! Figure 5: NCR score vs privacy budget ε for k ∈ {10, 20, 40} on all five
//! dataset groups, comparing GTF, FedPEM and TAPS.

use super::*;

/// The Figure 5 sweep: Figure 4's cells, scored by NCR.
pub const FIG5: Experiment = Experiment {
    id: "fig5",
    title: "Figure 5: NCR score vs privacy budget",
    metrics: &[NCR],
    cells: |scale| grid(scale, &DatasetKind::ALL, &QUERIES, &EPSILONS, &MAIN),
};
