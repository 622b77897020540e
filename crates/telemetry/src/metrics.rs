//! The typed metric registry: counters, gauges and fixed-boundary
//! histograms, all lock-free (`AtomicU64`) and enumerable.
//!
//! Like the span taxonomy, metric names form closed sets — a metric that is
//! not declared here cannot be recorded, so every trace and summary carries
//! the same joinable series.  Histogram bucket math is pure integer
//! arithmetic (power-of-two boundaries, rank-based quantiles): no float
//! enters the bucketing path, so two runs recording the same values always
//! produce byte-identical histogram lines.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Bytes actually written to sockets (whole frames, length prefix and
    /// CRC included) by `SocketTransport::send`.
    WireTxBytes,
    /// Frames written by `SocketTransport::send`.
    WireTxFrames,
    /// Frames the socket reader threads decoded successfully.
    FramesDecoded,
    /// Frames the socket reader threads rejected as corrupt (CRC / schema).
    FramesCorruptRejected,
    /// Party → server traffic recorded from a run's level events, in bits
    /// (reconciles exactly with `CommTracker`).
    UplinkBits,
    /// Server → party traffic recorded from a run's downlink events, in
    /// bits (reconciles exactly with `CommTracker`).
    DownlinkBits,
    /// Frames the root aggregator received in a tree topology (after
    /// cohort merging; equals the flat frame count under `Flat`).
    TreeRootFrames,
    /// Encoded bytes (frame overhead included) of the root-inbound frames
    /// in a tree topology.
    TreeRootBytes,
    /// Encoded bytes the same uploads would cost flat (one frame per
    /// message) — the baseline the tree savings are measured against.
    TreeFlatBytes,
}

impl Counter {
    /// Every counter, in stable order.
    pub const ALL: [Counter; 9] = [
        Counter::WireTxBytes,
        Counter::WireTxFrames,
        Counter::FramesDecoded,
        Counter::FramesCorruptRejected,
        Counter::UplinkBits,
        Counter::DownlinkBits,
        Counter::TreeRootFrames,
        Counter::TreeRootBytes,
        Counter::TreeFlatBytes,
    ];

    /// The stable wire name used in JSONL trace lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            Counter::WireTxBytes => "wire.tx.bytes",
            Counter::WireTxFrames => "wire.tx.frames",
            Counter::FramesDecoded => "frames.decoded",
            Counter::FramesCorruptRejected => "frames.corrupt_rejected",
            Counter::UplinkBits => "uplink.bits",
            Counter::DownlinkBits => "downlink.bits",
            Counter::TreeRootFrames => "tree.root.frames",
            Counter::TreeRootBytes => "tree.root.bytes",
            Counter::TreeFlatBytes => "tree.flat.bytes",
        }
    }

    /// Parses [`Counter::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// A last-value-wins measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Users the budget ledger enrolled in the most recent epoch.
    BudgetEnrolled,
    /// Users the budget ledger refused (cap exhausted) in the most recent
    /// epoch.
    BudgetRefused,
}

impl Gauge {
    /// Every gauge, in stable order.
    pub const ALL: [Gauge; 2] = [Gauge::BudgetEnrolled, Gauge::BudgetRefused];

    /// The stable wire name used in JSONL trace lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            Gauge::BudgetEnrolled => "budget.enrolled",
            Gauge::BudgetRefused => "budget.refused",
        }
    }

    /// Parses [`Gauge::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|g| g.as_str() == s)
    }
}

/// A histogram over recorded values (not span durations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueHist {
    /// Per-party wall-clock of one round's local work, in microseconds —
    /// the spread across parties is the straggler distribution.
    PartyUploadUs,
    /// Socket reader-thread queue depth observed after each enqueue.
    QueueDepth,
}

impl ValueHist {
    /// Every value histogram, in stable order.
    pub const ALL: [ValueHist; 2] = [ValueHist::PartyUploadUs, ValueHist::QueueDepth];

    /// The stable wire name used in JSONL trace lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            ValueHist::PartyUploadUs => "party.upload.us",
            ValueHist::QueueDepth => "queue.depth",
        }
    }

    /// Parses [`ValueHist::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|h| h.as_str() == s)
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)` — the boundaries are fixed powers of
/// two, so bucketing is a `leading_zeros`, never a float comparison.
pub const HIST_BUCKETS: usize = 65;

/// A concurrent fixed-boundary histogram (power-of-two buckets plus exact
/// count / sum / min / max).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index of `value`: 0 for 0, else `64 - leading_zeros(value)`.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl Histogram {
    /// Records one value (lock-free; safe from any thread).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain (non-atomic) copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The smallest observed value, or 0 when empty.
    pub fn min_or_zero(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// The `num/den` quantile as the inclusive upper bound of the bucket
    /// holding that rank, clamped to the exact observed `[min, max]` range.
    /// Integer arithmetic throughout: the rank is `ceil(count·num/den)`.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let rank = (self.count * num).div_ceil(den).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The whole registry: one slot per declared metric, plus one duration
/// histogram (in microseconds) per span name.
#[derive(Debug)]
pub(crate) struct Registry {
    pub(crate) counters: [AtomicU64; Counter::ALL.len()],
    pub(crate) gauges: [AtomicU64; Gauge::ALL.len()],
    pub(crate) span_us: [Histogram; crate::SpanName::COUNT],
    pub(crate) values: [Histogram; ValueHist::ALL.len()],
}

impl Default for Registry {
    fn default() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            span_us: std::array::from_fn(|_| Histogram::default()),
            values: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

/// A point-in-time copy of every metric in the registry, in declaration
/// order — the input to the summary table and the trace's closing lines.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// `(counter, value)` for every declared counter.
    pub counters: Vec<(Counter, u64)>,
    /// `(gauge, value)` for every declared gauge.
    pub gauges: Vec<(Gauge, u64)>,
    /// Per-span duration histograms (microseconds), indexed like
    /// [`crate::SpanName::ALL`].
    pub span_us: Vec<(crate::SpanName, HistSnapshot)>,
    /// Value histograms, indexed like [`ValueHist::ALL`].
    pub values: Vec<(ValueHist, HistSnapshot)>,
}

impl Registry {
    pub(crate) fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: Counter::ALL
                .into_iter()
                .enumerate()
                .map(|(i, c)| (c, self.counters[i].load(Ordering::Relaxed)))
                .collect(),
            gauges: Gauge::ALL
                .into_iter()
                .enumerate()
                .map(|(i, g)| (g, self.gauges[i].load(Ordering::Relaxed)))
                .collect(),
            span_us: crate::SpanName::ALL
                .into_iter()
                .enumerate()
                .map(|(i, n)| (n, self.span_us[i].snapshot()))
                .collect(),
            values: ValueHist::ALL
                .into_iter()
                .enumerate()
                .map(|(i, h)| (h, self.values[i].snapshot()))
                .collect(),
        }
    }
}

impl RegistrySnapshot {
    /// The value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_exact_count_sum_min_max() {
        let h = Histogram::default();
        for v in [5u64, 17, 3, 900, 0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 925);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 900);
        assert!(!s.is_empty());
    }

    #[test]
    fn quantiles_are_bucket_bounds_clamped_to_observed_range() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // p50 of 1..=100 lands in the bucket [32, 64); its bound clamps
        // inside the observed range.
        let p50 = s.quantile(1, 2);
        assert!((32..=64).contains(&p50), "p50 = {p50}");
        assert_eq!(s.quantile(1, 1), 100, "p100 is the exact max");
        // Empty histograms yield zeros, never a panic.
        assert_eq!(Histogram::default().snapshot().quantile(1, 2), 0);
        assert_eq!(Histogram::default().snapshot().min_or_zero(), 0);
    }

    #[test]
    fn metric_names_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert_eq!(Counter::parse(c.as_str()), Some(c));
            assert!(seen.insert(c.as_str()));
        }
        for g in Gauge::ALL {
            assert_eq!(Gauge::parse(g.as_str()), Some(g));
            assert!(seen.insert(g.as_str()));
        }
        for h in ValueHist::ALL {
            assert_eq!(ValueHist::parse(h.as_str()), Some(h));
            assert!(seen.insert(h.as_str()));
        }
        assert_eq!(Counter::parse("wire.rx.bytes"), None);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.sum, 4 * (999 * 1000 / 2));
        assert_eq!(s.max, 999);
    }
}
