//! Table 3: F1 score under different step sizes (ε = 4, k = 10).
//!
//! The step size ⌊m/g⌋ controls how many bits each level appends.  The
//! paper sweeps step sizes {2, 4, 6}; with m = 48 these correspond to
//! granularities g = 24, 12 and 8.

use super::*;

/// The step sizes swept by Table 3.
pub const STEP_SIZES: [u8; 3] = [2, 4, 6];

/// The Table 3 sweep.
pub const TABLE3: Experiment = Experiment {
    id: "table3",
    title: "Table 3: F1 score with varying step sizes (eps = 4, k = 10)",
    metrics: &[F1],
    cells: |scale| {
        let at = |step: u8| {
            let cells = grid(scale, &DatasetKind::ALL, &[10], &[4.0], &MAIN);
            // The granularity that realises this step size for the
            // configured code width (e.g. 48/2 = 24 levels).
            let granularity = (scale.code_bits / step).max(1);
            swept(cells, format!("step={step}"), |c| {
                c.protocol.granularity = granularity
            })
        };
        STEP_SIZES.into_iter().flat_map(at).collect()
    },
};

#[cfg(test)]
mod tests {
    use super::super::tests::quick_rows;
    use super::*;
    use crate::runner::ExperimentScale;

    #[test]
    fn step_sizes_map_to_granularities() {
        let cells = (TABLE3.cells)(&ExperimentScale::default());
        for cell in &cells {
            let step = 48 / cell.protocol.granularity;
            assert_eq!(cell.parameter, format!("step={step}"));
        }
        let granularities: Vec<u8> = cells.iter().map(|c| c.protocol.granularity).collect();
        assert!([24, 12, 8].iter().all(|g| granularities.contains(g)));
        assert_eq!(quick_rows("table3").len(), 5 * 3 * 3);
    }
}
