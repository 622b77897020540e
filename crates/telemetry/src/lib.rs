//! # fedhh-telemetry — the observability plane
//!
//! Dependency-free spans, typed metrics, JSONL traces and the one JSON
//! reader ([`json`]) of the fedhh stack.  The crate sits at the very bottom of the dependency graph (it
//! depends on nothing and knows nothing about the protocol); every layer
//! above — `Run`, `Session`, the mechanism drivers, `SocketTransport`,
//! `EpochRunner`, checkpoint I/O — records into a shared [`Telemetry`]
//! handle.
//!
//! ## Design invariants
//!
//! * **Inert** — telemetry observes, it never participates.  Recording
//!   methods take `&self`, return nothing the protocol can branch on, and
//!   a disabled handle ([`Telemetry::disabled`]) skips even the clock
//!   read.  A run with a sink attached is bit-identical to an unobserved
//!   run at every parallelism and transport (proven by
//!   `tests/telemetry.rs`).
//! * **Reconciled** — the trace is provably honest, not best-effort:
//!   uplink events and the uplink/downlink counters are recorded from the
//!   same run event stream that `CommTracker` and `RecordingObserver`
//!   fold, so trace totals equal theirs exactly; wire byte counters are
//!   recorded from the actual frame lengths `SocketTransport` writes.
//! * **Enumerable** — span names ([`SpanName`]), counters ([`Counter`]),
//!   gauges ([`Gauge`]) and value histograms ([`ValueHist`]) are closed
//!   sets; the JSONL parser ([`TraceLine::parse`]) rejects anything
//!   outside them.
//! * **No floats in bucket math** — histograms use power-of-two integer
//!   boundaries and rank-based quantiles ([`HistSnapshot::quantile`]).
//!
//! ## Usage
//!
//! ```
//! use fedhh_telemetry::{SpanName, Telemetry};
//!
//! let telemetry = Telemetry::new();
//! {
//!     let _round = telemetry.span_idx(SpanName::Round, 0);
//!     // ... timed work ...
//! }
//! telemetry.trace_uplink("p0", 1, 4096);
//! let mut jsonl = Vec::new();
//! telemetry.write_jsonl(&mut jsonl).unwrap();
//! let text = String::from_utf8(jsonl).unwrap();
//! assert!(text.lines().count() >= 2);
//! // Disabled handles are free: no clock reads, no buffering.
//! let off = Telemetry::disabled();
//! assert!(!off.is_enabled());
//! let _noop = off.span(SpanName::Run);
//! ```
//!
//! The system map, including where each span is opened, lives in
//! `ARCHITECTURE.md` at the repository root ("The telemetry plane").

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod metrics;
pub mod span;
pub mod summary;
pub mod trace;

pub use json::escape as json_escape;
pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, RegistrySnapshot, ValueHist};
pub use span::SpanName;
pub use summary::TelemetrySummary;
pub use trace::{
    span_hist_name, TraceError, TraceEvent, TraceLine, TraceSection, TraceStats, TRACE_SCHEMA,
};

use metrics::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Inner {
    /// The sink's time origin; every span offset is relative to it.
    epoch: Instant,
    /// Buffered span/uplink events, flushed by [`Telemetry::write_jsonl`].
    events: Mutex<Vec<TraceEvent>>,
    /// The typed metric registry.
    registry: Registry,
    /// Bitmask of gauges that have been set (so a gauge legitimately at 0
    /// still appears in the flush).
    gauges_set: AtomicU64,
}

/// A cheaply cloneable telemetry handle: either **enabled** (an `Arc`'d
/// event buffer + metric registry) or **disabled** (every operation is a
/// no-op — not even a clock read).
///
/// The handle is `Send + Sync`; engine workers, socket reader threads and
/// the coordinator all record into the same sink concurrently.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// An enabled sink: buffers events and records metrics until flushed.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
                registry: Registry::default(),
                gauges_set: AtomicU64::new(0),
            })),
        }
    }

    /// The no-op handle (also `Default`): recording costs one branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// True when this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span with index 0; the returned guard records the span when
    /// dropped.  On a disabled handle this is a no-op (no clock read).
    pub fn span(&self, name: SpanName) -> SpanGuard {
        self.span_idx(name, 0)
    }

    /// Opens a span with a caller-chosen index (round number, trie level,
    /// epoch index…).
    pub fn span_idx(&self, name: SpanName, idx: u64) -> SpanGuard {
        SpanGuard {
            open: self
                .inner
                .as_ref()
                .map(|inner| (Arc::clone(inner), name, idx, Instant::now())),
        }
    }

    /// Records one uplink-bearing level event of a run: a trace event
    /// plus the [`Counter::UplinkBits`] counter, so the two reconcile by
    /// construction.
    pub fn trace_uplink(&self, party: &str, level: u8, bits: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .events
            .lock()
            .expect("telemetry events poisoned")
            .push(TraceEvent::Uplink {
                party: party.to_string(),
                level,
                bits,
            });
        inner.registry.counters[counter_slot(Counter::UplinkBits)]
            .fetch_add(bits, Ordering::Relaxed);
    }

    /// Adds to a counter.
    pub fn add(&self, counter: Counter, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counters[counter_slot(counter)].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sets a gauge (last value wins).
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauges[gauge_slot(gauge)].store(value, Ordering::Relaxed);
            inner
                .gauges_set
                .fetch_or(1 << gauge_slot(gauge), Ordering::Relaxed);
        }
    }

    /// Records one observation into a value histogram.
    pub fn record_value(&self, hist: ValueHist, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.values[value_slot(hist)].record(value);
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => Registry::default().snapshot(),
        }
    }

    /// Takes the buffered events (they are not re-emitted by a later
    /// flush).
    pub fn take_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.events.lock().expect("telemetry poisoned")),
            None => Vec::new(),
        }
    }

    /// Flushes the sink as schema-versioned JSONL: the buffered events (in
    /// record order, drained) followed by the metric snapshot — non-zero
    /// counters, every gauge that was set, and every non-empty histogram.
    ///
    /// One flush per mark-delimited section; callers writing multi-section
    /// traces emit a [`TraceLine::Mark`] first and use one `Telemetry` per
    /// section.
    pub fn write_jsonl<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        for event in self.take_events() {
            let line = match event {
                TraceEvent::Span {
                    name,
                    idx,
                    start_us,
                    dur_us,
                } => TraceLine::Span {
                    name,
                    idx,
                    start_us,
                    dur_us,
                },
                TraceEvent::Uplink { party, level, bits } => {
                    TraceLine::Uplink { party, level, bits }
                }
            };
            writeln!(w, "{}", line.to_json())?;
        }
        let snapshot = inner.registry.snapshot();
        for (counter, value) in &snapshot.counters {
            if *value > 0 {
                writeln!(
                    w,
                    "{}",
                    TraceLine::Counter {
                        name: *counter,
                        value: *value
                    }
                    .to_json()
                )?;
            }
        }
        let set = inner.gauges_set.load(Ordering::Relaxed);
        for (slot, (gauge, value)) in snapshot.gauges.iter().enumerate() {
            if set & (1 << slot) != 0 {
                writeln!(
                    w,
                    "{}",
                    TraceLine::Gauge {
                        name: *gauge,
                        value: *value
                    }
                    .to_json()
                )?;
            }
        }
        let hist_line = |name: String, h: &HistSnapshot| TraceLine::Hist {
            name,
            count: h.count,
            sum: h.sum,
            min: h.min_or_zero(),
            max: h.max,
            p50: h.quantile(1, 2),
            p90: h.quantile(9, 10),
            p99: h.quantile(99, 100),
        };
        for (name, h) in &snapshot.span_us {
            if !h.is_empty() {
                writeln!(w, "{}", hist_line(span_hist_name(*name), h).to_json())?;
            }
        }
        for (name, h) in &snapshot.values {
            if !h.is_empty() {
                writeln!(w, "{}", hist_line(name.as_str().to_string(), h).to_json())?;
            }
        }
        Ok(())
    }

    /// The human-readable closing table over the current metric snapshot.
    pub fn summary(&self) -> TelemetrySummary {
        TelemetrySummary::new(self.snapshot())
    }
}

fn counter_slot(counter: Counter) -> usize {
    Counter::ALL
        .iter()
        .position(|c| *c == counter)
        .expect("declared counter")
}

fn gauge_slot(gauge: Gauge) -> usize {
    Gauge::ALL
        .iter()
        .position(|g| *g == gauge)
        .expect("declared gauge")
}

fn value_slot(hist: ValueHist) -> usize {
    ValueHist::ALL
        .iter()
        .position(|h| *h == hist)
        .expect("declared histogram")
}

/// An open span: records its duration (as a trace event and into the
/// per-name duration histogram) when dropped.  Guards from a disabled
/// handle carry nothing and do nothing.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    open: Option<(Arc<Inner>, SpanName, u64, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((inner, name, idx, start)) = self.open.take() else {
            return;
        };
        let start_us = start.duration_since(inner.epoch).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        inner.registry.span_us[name.slot()].record(dur_us);
        inner
            .events
            .lock()
            .expect("telemetry events poisoned")
            .push(TraceEvent::Span {
                name,
                idx,
                start_us,
                dur_us,
            });
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("open", &self.open.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_record_nothing() {
        let t = Telemetry::disabled();
        let _span = t.span(SpanName::Run);
        t.trace_uplink("p0", 1, 100);
        t.add(Counter::WireTxBytes, 10);
        t.set_gauge(Gauge::BudgetEnrolled, 5);
        t.record_value(ValueHist::QueueDepth, 3);
        assert!(t.take_events().is_empty());
        assert_eq!(t.snapshot().counter(Counter::WireTxBytes), 0);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn spans_record_event_and_histogram() {
        let t = Telemetry::new();
        {
            let _g = t.span_idx(SpanName::Round, 7);
        }
        let events = t.take_events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            TraceEvent::Span { name, idx, .. } => {
                assert_eq!(*name, SpanName::Round);
                assert_eq!(*idx, 7);
            }
            other => panic!("unexpected event {other:?}"),
        }
        let snap = t.snapshot();
        let (_, round) = &snap.span_us[SpanName::Round.slot()];
        assert_eq!(round.count, 1);
    }

    #[test]
    fn uplink_events_and_counter_reconcile_by_construction() {
        let t = Telemetry::new();
        t.trace_uplink("p0", 1, 100);
        t.trace_uplink("p1", 2, 50);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let stats = TraceStats::from_str(std::str::from_utf8(&out).unwrap()).unwrap();
        stats.verify_reconciled().unwrap();
        assert_eq!(stats.total_uplink_bits(), 150);
        assert_eq!(stats.counter_total(Counter::UplinkBits), 150);
    }

    #[test]
    fn flush_emits_set_gauges_even_at_zero() {
        let t = Telemetry::new();
        t.set_gauge(Gauge::BudgetRefused, 0);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("budget.refused"), "{text}");
        // But an unset gauge stays silent.
        assert!(!text.contains("budget.enrolled"), "{text}");
    }

    #[test]
    fn every_flushed_line_parses() {
        let t = Telemetry::new();
        {
            let _run = t.span(SpanName::Run);
            let _round = t.span_idx(SpanName::Round, 0);
        }
        t.trace_uplink("p0", 1, 64);
        t.add(Counter::WireTxBytes, 128);
        t.add(Counter::WireTxFrames, 2);
        t.set_gauge(Gauge::BudgetEnrolled, 9);
        t.record_value(ValueHist::QueueDepth, 4);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        for line in text.lines() {
            TraceLine::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        // Flushing drains: a second flush emits no further events.
        let mut again = Vec::new();
        t.write_jsonl(&mut again).unwrap();
        let second = String::from_utf8(again).unwrap();
        assert!(!second.contains("\"t\":\"span\""));
        assert!(!second.contains("\"t\":\"uplink\""));
    }
}
