//! Structure-of-arrays report storage for the vectorized kernels.
//!
//! The row API ([`FrequencyOracle::perturb`](crate::FrequencyOracle::perturb))
//! moves reports as `Vec<Report>` — one heap allocation per OUE report (its
//! `Vec<bool>` bit vector) and an enum tag per report.  The vectorized
//! kernels instead fill a [`ReportBatch`]: one arena holding *all* reports of a chunk in columnar
//! form (bit-packed `u64` rows for OUE, parallel seed/value columns for
//! OLH, a plain index column for GRR), so the kernels touch contiguous
//! memory and never allocate per report.
//!
//! A `ReportBatch` never crosses a process boundary: it is produced by
//! `perturb_vectorized` and consumed by `aggregate_vectorized` within one
//! estimation call.  For interop and tests, [`ReportBatch::to_reports`]
//! materializes the equivalent `Vec<Report>`.

use crate::report::Report;

/// Bit-packed OUE reports: `words_per_report` `u64` words per report, bit
/// `s % 64` of word `s / 64` carrying domain slot `s`.  Bits at or beyond
/// `width` in the last word of a row are always zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedBits {
    pub(crate) width: usize,
    pub(crate) words_per_report: usize,
    pub(crate) words: Vec<u64>,
    pub(crate) reports: usize,
}

impl PackedBits {
    fn new(width: usize) -> Self {
        Self {
            width,
            words_per_report: width.div_ceil(64),
            words: Vec::new(),
            reports: 0,
        }
    }

    /// Domain width in bits (slots per report).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of reports packed into this arena.
    #[inline]
    pub fn reports(&self) -> usize {
        self.reports
    }

    /// `u64` words per packed report row.
    #[inline]
    pub fn words_per_report(&self) -> usize {
        self.words_per_report
    }

    /// Bit `slot` of report `report`.
    #[inline]
    pub fn bit(&self, report: usize, slot: usize) -> bool {
        debug_assert!(slot < self.width);
        let word = self.words[report * self.words_per_report + slot / 64];
        (word >> (slot % 64)) & 1 == 1
    }
}

/// The columnar report representations, one per oracle family plus the
/// row-oriented fallback used by default trait implementations.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Repr {
    /// Row-oriented fallback: ordinary reports (default trait impls,
    /// foreign oracles).
    Reports(Vec<Report>),
    /// GRR: one reported domain index per report.
    Items(Vec<u32>),
    /// OUE: bit-packed rows.
    Packed(PackedBits),
    /// OLH: parallel seed/value columns.
    Hashed { seeds: Vec<u64>, values: Vec<u32> },
}

/// A reusable arena of perturbed reports in structure-of-arrays form.
///
/// Created empty, filled by `perturb_vectorized`, drained (read-only) by
/// `aggregate_vectorized`, and [`clear`](ReportBatch::clear)ed for the next
/// chunk — the backing allocations survive across chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportBatch {
    pub(crate) repr: Repr,
}

impl ReportBatch {
    /// Creates an empty batch (row-oriented until a kernel claims it).
    #[must_use]
    pub fn new() -> Self {
        Self {
            repr: Repr::Reports(Vec::new()),
        }
    }

    /// Number of reports in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Reports(r) => r.len(),
            Repr::Items(v) => v.len(),
            Repr::Packed(p) => p.reports,
            Repr::Hashed { seeds, .. } => seeds.len(),
        }
    }

    /// Whether the batch holds no reports.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the batch, keeping the current representation and its
    /// backing allocations for reuse.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Reports(r) => r.clear(),
            Repr::Items(v) => v.clear(),
            Repr::Packed(p) => {
                p.words.clear();
                p.reports = 0;
            }
            Repr::Hashed { seeds, values } => {
                seeds.clear();
                values.clear();
            }
        }
    }

    /// Total wire size of the held reports, in bits — the same accounting
    /// [`Report::size_bits`] gives the row-oriented paths.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        match &self.repr {
            Repr::Reports(r) => r.iter().map(Report::size_bits).sum(),
            Repr::Items(v) => v.len() * 32,
            Repr::Packed(p) => p.reports * p.width,
            Repr::Hashed { seeds, .. } => seeds.len() * 96,
        }
    }

    /// Appends a row-oriented report (the path default trait
    /// implementations and foreign oracles use).  If the batch currently
    /// holds a columnar representation, it is materialized first.
    pub fn push(&mut self, report: Report) {
        if !matches!(self.repr, Repr::Reports(_)) {
            let materialized = self.to_reports();
            self.repr = Repr::Reports(materialized);
        }
        match &mut self.repr {
            Repr::Reports(r) => r.push(report),
            _ => unreachable!("batch was just converted to row form"),
        }
    }

    /// The reports as a row-oriented slice, when the batch holds one.
    #[must_use]
    pub fn as_reports(&self) -> Option<&[Report]> {
        match &self.repr {
            Repr::Reports(r) => Some(r),
            _ => None,
        }
    }

    /// Materializes the equivalent row-oriented reports (interop, tests,
    /// foreign-oracle fallbacks).
    #[must_use]
    pub fn to_reports(&self) -> Vec<Report> {
        match &self.repr {
            Repr::Reports(r) => r.clone(),
            Repr::Items(v) => v.iter().map(|&i| Report::Item(i)).collect(),
            Repr::Packed(p) => (0..p.reports)
                .map(|j| Report::Bits((0..p.width).map(|s| p.bit(j, s)).collect()))
                .collect(),
            Repr::Hashed { seeds, values } => seeds
                .iter()
                .zip(values.iter())
                .map(|(&seed, &value)| Report::Hashed { seed, value })
                .collect(),
        }
    }

    /// The GRR item column, switching representation if needed.
    pub(crate) fn items_mut(&mut self) -> &mut Vec<u32> {
        if !matches!(self.repr, Repr::Items(_)) {
            debug_assert!(self.is_empty(), "switching representation drops reports");
            self.repr = Repr::Items(Vec::new());
        }
        match &mut self.repr {
            Repr::Items(v) => v,
            _ => unreachable!(),
        }
    }

    /// The OUE bit-packed arena for a `width`-slot domain, switching
    /// representation (or width) if needed.
    pub(crate) fn packed_mut(&mut self, width: usize) -> &mut PackedBits {
        let reuse = matches!(&self.repr, Repr::Packed(p) if p.width == width);
        if !reuse {
            debug_assert!(self.is_empty(), "switching representation drops reports");
            self.repr = Repr::Packed(PackedBits::new(width));
        }
        match &mut self.repr {
            Repr::Packed(p) => p,
            _ => unreachable!(),
        }
    }

    /// The OLH seed/value columns, switching representation if needed.
    pub(crate) fn hashed_mut(&mut self) -> (&mut Vec<u64>, &mut Vec<u32>) {
        if !matches!(self.repr, Repr::Hashed { .. }) {
            debug_assert!(self.is_empty(), "switching representation drops reports");
            self.repr = Repr::Hashed {
                seeds: Vec::new(),
                values: Vec::new(),
            };
        }
        match &mut self.repr {
            Repr::Hashed { seeds, values } => (seeds, values),
            _ => unreachable!(),
        }
    }
}

impl Default for ReportBatch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_empty_in_every_representation() {
        let mut batch = ReportBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.size_bits(), 0);
        batch.items_mut();
        assert!(batch.is_empty());
        batch.clear();
        batch.packed_mut(10);
        assert!(batch.is_empty());
        batch.clear();
        batch.hashed_mut();
        assert!(batch.is_empty());
    }

    #[test]
    fn packed_bits_round_trip_through_reports() {
        let mut batch = ReportBatch::new();
        let packed = batch.packed_mut(70); // two words per report
        packed.words.extend_from_slice(&[0b101, 0b11]);
        packed.words.extend_from_slice(&[u64::MAX, (1 << 6) - 1]);
        packed.reports = 2;
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.size_bits(), 140);
        let reports = batch.to_reports();
        match &reports[0] {
            Report::Bits(bits) => {
                assert_eq!(bits.len(), 70);
                assert!(bits[0] && !bits[1] && bits[2]);
                assert!(bits[64] && bits[65] && !bits[66]);
            }
            other => panic!("unexpected report {other:?}"),
        }
        match &reports[1] {
            Report::Bits(bits) => assert!(bits.iter().all(|&b| b)),
            other => panic!("unexpected report {other:?}"),
        }
    }

    #[test]
    fn columns_round_trip_and_account_bits() {
        let mut batch = ReportBatch::new();
        batch.items_mut().extend_from_slice(&[3, 1, 4]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.size_bits(), 96);
        assert_eq!(
            batch.to_reports(),
            vec![Report::Item(3), Report::Item(1), Report::Item(4)]
        );

        batch.clear();
        let mut batch = ReportBatch::new();
        let (seeds, values) = batch.hashed_mut();
        seeds.extend_from_slice(&[9, 8]);
        values.extend_from_slice(&[2, 0]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.size_bits(), 192);
        assert_eq!(
            batch.to_reports(),
            vec![
                Report::Hashed { seed: 9, value: 2 },
                Report::Hashed { seed: 8, value: 0 }
            ]
        );
    }

    #[test]
    fn push_materializes_columnar_batches() {
        let mut batch = ReportBatch::new();
        batch.items_mut().push(5);
        batch.push(Report::Item(6));
        assert_eq!(batch.as_reports().unwrap().len(), 2);
        assert_eq!(batch.to_reports(), vec![Report::Item(5), Report::Item(6)]);
    }

    #[test]
    fn clear_preserves_representation_and_capacity() {
        let mut batch = ReportBatch::new();
        batch.items_mut().extend_from_slice(&[1, 2, 3]);
        let cap = batch.items_mut().capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.items_mut().capacity(), cap);
    }
}
