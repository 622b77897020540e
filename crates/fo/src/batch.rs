//! Structure-of-arrays report storage for the frequency-oracle kernels.
//!
//! `perturb_vectorized` fills a [`ReportBatch`]: one arena holding *all*
//! reports of a chunk in columnar form (bit-packed `u64` rows for OUE,
//! parallel seed/value columns for OLH, a plain index column for GRR), so
//! the kernels touch contiguous memory and never allocate per report.
//!
//! A `ReportBatch` never crosses a process boundary: it is produced by
//! `perturb_vectorized` and consumed by `aggregate_vectorized` of the same
//! oracle within one estimation call.  Its shape names the oracle that
//! wrote it, and [`ReportBatch::columns`] reads it.

/// Bit-packed OUE reports: `words_per_report` `u64` words per report, bit
/// `s % 64` of word `s / 64` carrying domain slot `s`.  Bits at or beyond
/// `width` in the last word of a row are always zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PackedBits {
    pub(crate) width: usize,
    pub(crate) words_per_report: usize,
    pub(crate) words: Vec<u64>,
    pub(crate) reports: usize,
}

impl PackedBits {
    pub(crate) fn new(width: usize) -> Self {
        Self {
            width,
            words_per_report: width.div_ceil(64),
            words: Vec::new(),
            reports: 0,
        }
    }
}

/// The columnar report representations, one per oracle family.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Repr {
    /// GRR: one reported domain index per report.
    Items(Vec<u32>),
    /// OUE: bit-packed rows.
    Packed(PackedBits),
    /// OLH: parallel seed/value columns.
    Hashed { seeds: Vec<u64>, values: Vec<u32> },
}

impl Repr {
    /// The empty OLH columns.
    pub(crate) fn hashed() -> Self {
        Repr::Hashed {
            seeds: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The shape's name, as a foreign-batch panic states it.
    fn name(&self) -> String {
        match self {
            Repr::Items(_) => "GRR items".to_string(),
            Repr::Packed(p) => format!("OUE rows of width {}", p.width),
            Repr::Hashed { .. } => "OLH seed/value pairs".to_string(),
        }
    }
}

/// A read-only view of a batch's columns, in the shape the kernel that
/// filled it wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Columns<'a> {
    /// GRR: one reported domain index per report.
    Items(&'a [u32]),
    /// OUE: `width.div_ceil(64)` words per report, bit `s % 64` of word
    /// `s / 64` carrying domain slot `s`; bits at or past `width` are zero.
    Packed {
        /// Domain slots per report.
        width: usize,
        /// The reports' rows, back to back.
        words: &'a [u64],
    },
    /// OLH: report `j` is the hash seed `seeds[j]` and the perturbed bucket
    /// `values[j]`.
    Hashed {
        /// Per-report hash seeds.
        seeds: &'a [u64],
        /// Per-report perturbed buckets.
        values: &'a [u32],
    },
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
    /// Creates an empty batch (in GRR's shape until a kernel claims it).
    #[must_use]
    pub fn new() -> Self {
        Self {
            repr: Repr::Items(Vec::new()),
        }
    }

    /// Number of reports in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
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

    /// Total wire size of the held reports, in bits: 32 per GRR index
    /// (the paper's cost model charges a constant `b` bits per value, not
    /// ⌈log₂|X|⌉), one per OUE slot, and a 64-bit seed plus a 32-bit bucket
    /// per OLH report.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        match &self.repr {
            Repr::Items(v) => v.len() * 32,
            Repr::Packed(p) => p.reports * p.width,
            Repr::Hashed { seeds, .. } => seeds.len() * 96,
        }
    }

    /// The batch's columns, read-only.
    #[must_use]
    pub fn columns(&self) -> Columns<'_> {
        match &self.repr {
            Repr::Items(items) => Columns::Items(items),
            Repr::Packed(p) => Columns::Packed {
                width: p.width,
                words: &p.words,
            },
            Repr::Hashed { seeds, values } => Columns::Hashed { seeds, values },
        }
    }

    /// Panics for a batch in another shape than the `expected` one the
    /// aggregating oracle reads (see
    /// [`FrequencyOracle::aggregate_vectorized`](crate::FrequencyOracle::aggregate_vectorized)).
    #[cold]
    #[track_caller]
    pub(crate) fn foreign(&self, expected: Repr) -> ! {
        panic!(
            "aggregate_vectorized expects a batch of {}, got one of {}",
            expected.name(),
            self.repr.name()
        )
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
            self.repr = Repr::hashed();
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
        assert_eq!(
            batch.columns(),
            Columns::Packed {
                width: 70,
                words: &[0b101, 0b11, u64::MAX, (1 << 6) - 1]
            }
        );
    }

    #[test]
    fn columns_round_trip_and_account_bits() {
        let mut batch = ReportBatch::new();
        batch.items_mut().extend_from_slice(&[3, 1, 4]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.size_bits(), 96);
        assert_eq!(batch.columns(), Columns::Items(&[3, 1, 4]));

        batch.clear();
        let mut batch = ReportBatch::new();
        let (seeds, values) = batch.hashed_mut();
        seeds.extend_from_slice(&[9, 8]);
        values.extend_from_slice(&[2, 0]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.size_bits(), 192);
        assert_eq!(
            batch.columns(),
            Columns::Hashed {
                seeds: &[9, 8],
                values: &[2, 0]
            }
        );
    }

    /// One batch reused across oracles — GRR, OUE on two words a report,
    /// OLH, OUE on one — switches shape on every call and aggregates to
    /// the supports a fresh batch gives.
    #[test]
    fn a_reused_batch_aggregates_like_a_fresh_one() {
        use crate::{CtrRng, FoKind, FrequencyOracle, Oracle, PrivacyBudget, SupportCounts};

        let budget = PrivacyBudget::new(2.0).unwrap();
        let rng = CtrRng::new(11);
        let mut reused = ReportBatch::new();
        for (kind, domain) in [
            (FoKind::Grr, 8),
            (FoKind::Oue, 70),
            (FoKind::Olh, 8),
            (FoKind::Oue, 3),
        ] {
            let oracle = Oracle::new(kind, budget, domain);
            let inputs: Vec<usize> = (0..500).map(|i| i * 7 % domain).collect();
            let supports = |batch: &ReportBatch| {
                let mut supports = SupportCounts::zeros(domain);
                oracle.aggregate_vectorized(batch, &mut supports);
                supports
            };
            let mut fresh = ReportBatch::new();
            oracle.perturb_vectorized(&inputs, &rng, 0, &mut fresh);
            reused.clear();
            oracle.perturb_vectorized(&inputs, &rng, 0, &mut reused);
            assert_eq!(reused, fresh, "{kind} over {domain}");
            assert_eq!(supports(&reused), supports(&fresh), "{kind} over {domain}");
            assert_eq!(supports(&reused).reports(), inputs.len());
        }
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
