//! The benchmark's own in-memory span buffer.
//!
//! Every probe is one span around one call into a layer's public function;
//! every traced operation is a parent span whose children are the program's
//! *existing* telemetry spans, read back through `Telemetry::take_events`.
//! Spans stay in memory and are written as JSONL when the process ends.

use fedhh::telemetry::TraceEvent;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its [`SpanBuffer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call` for probes, `op` for operations, the telemetry span
    /// name for imported program spans.
    pub name: String,
    /// Start, nanoseconds since the buffer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the buffer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation number the span belongs to (probes share one number).
    pub op: u64,
}

/// Program spans carry microsecond offsets, truncated independently for
/// start and duration; containment checks allow this much slack.
const TRUNCATION_SLACK_NS: u64 = 2_000;

/// The span buffer of one benchmark process (one workload).
#[derive(Debug)]
pub struct SpanBuffer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl SpanBuffer {
    /// An empty buffer for `workload`; its creation is time zero.
    pub fn new(workload: &str) -> Self {
        Self {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the buffer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span now; it stays zero-length until [`SpanBuffer::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, op: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes a span now and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        Duration::from_nanos(span.end_ns - span.start_ns)
    }

    /// Runs `f` under a span and returns its result with the duration.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent, op);
        let value = f();
        (value, self.close(id))
    }

    /// Imports the program's telemetry spans as descendants of `parent`.
    /// `sink_created_ns` is [`SpanBuffer::now_ns`] at the moment the
    /// telemetry sink was created (program offsets are relative to it).
    /// The program records no causality, so nesting is rebuilt from
    /// containment: a span's parent is the innermost span that encloses it.
    pub fn import(&mut self, parent: SpanId, sink_created_ns: u64, events: Vec<TraceEvent>) {
        let op = self.spans[parent].op;
        let mut incoming: Vec<(u64, u64, &'static str)> = events
            .into_iter()
            .filter_map(|event| match event {
                TraceEvent::Span {
                    name,
                    start_us,
                    dur_us,
                    ..
                } => {
                    let start = sink_created_ns + start_us * 1_000;
                    Some((start, start + dur_us * 1_000, name.as_str()))
                }
                TraceEvent::Uplink { .. } => None,
            })
            .collect();
        // Outer spans first: earlier start, then longer duration.
        incoming.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<SpanId> = Vec::new();
        for (start_ns, end_ns, name) in incoming {
            while stack.last().is_some_and(|&top| {
                let top = &self.spans[top];
                start_ns + TRUNCATION_SLACK_NS < top.start_ns
                    || end_ns > top.end_ns + TRUNCATION_SLACK_NS
            }) {
                stack.pop();
            }
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent: Some(stack.last().copied().unwrap_or(parent)),
                op,
            });
            stack.push(self.spans.len() - 1);
        }
    }

    /// Every span's self time: its duration minus the part of that interval
    /// its direct children cover (overlapping children are not counted
    /// twice).  Indexed like [`SpanBuffer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut cursor = span.start_ns;
                for (start, end) in intervals {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Self time of the spans called `name` as a share of their duration
    /// (0 when there are none).
    pub fn self_share(&self, name: &str) -> f64 {
        let (mut own, mut total) = (0u64, 0u64);
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            if span.name == name {
                own += self_ns;
                total += span.end_ns - span.start_ns;
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_times = self.self_times_ns();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"workload\": \"{}\", \"op\": {}}}",
                span.name, span.start_ns, span.end_ns, self_times[id], self.workload, span.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use fedhh::telemetry::SpanName;

    fn program_span(name: SpanName, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent::Span {
            name,
            idx: 0,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn imported_spans_nest_by_containment_and_self_time_excludes_children() {
        let mut buffer = SpanBuffer::new("w");
        buffer.spans.push(Span {
            name: "op".into(),
            start_ns: 0,
            end_ns: 1_000_000,
            parent: None,
            op: 3,
        });
        buffer.import(
            0,
            0,
            vec![
                // Recorded inner-first, as guards drop.
                program_span(SpanName::Perturb, 110, 40),
                program_span(SpanName::Aggregate, 150, 50),
                program_span(SpanName::Level, 100, 100),
                program_span(SpanName::Round, 100, 300),
                program_span(SpanName::Run, 50, 900),
                TraceEvent::Uplink {
                    party: "p".into(),
                    level: 1,
                    bits: 8,
                },
            ],
        );
        let by_name = |name: &str| {
            buffer
                .spans()
                .iter()
                .position(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} imported"))
        };
        let (run, round, level) = (by_name("run"), by_name("round"), by_name("level"));
        assert_eq!(buffer.spans()[run].parent, Some(0));
        assert_eq!(buffer.spans()[round].parent, Some(run));
        assert_eq!(buffer.spans()[level].parent, Some(round));
        assert_eq!(buffer.spans()[by_name("perturb")].parent, Some(level));
        assert_eq!(buffer.spans()[by_name("aggregate")].parent, Some(level));
        assert!(buffer.spans().iter().all(|s| s.op == 3));
        let self_times = buffer.self_times_ns();
        assert_eq!(self_times[level], 10_000);
        assert_eq!(self_times[round], 200_000);
        assert_eq!(self_times[0], 100_000);
        assert_eq!(buffer.self_share("round"), 200_000.0 / 300_000.0);
        assert_eq!(buffer.self_share("absent"), 0.0);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_jsonl_parses() {
        let mut buffer = SpanBuffer::new("w");
        let span = |name: &str, start_ns, end_ns, parent| Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        };
        buffer.spans.push(span("op", 0, 100, None));
        // Two workers' spans overlap on [30, 60].
        buffer.spans.push(span("level", 10, 60, Some(0)));
        buffer.spans.push(span("level", 30, 90, Some(0)));
        assert_eq!(buffer.self_times_ns()[0], 20);

        let (_, took) = buffer.time("probe", None, 1, || std::hint::black_box(1 + 1));
        assert_eq!(buffer.spans().last().unwrap().name, "probe");
        assert!(took.as_nanos() > 0);

        let path = crate::out_dir().join(format!("spans-test-{}.jsonl", std::process::id()));
        buffer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), buffer.spans().len());
        for line in text.lines() {
            let parsed = Json::parse(line).unwrap();
            assert_eq!(parsed.get("workload").and_then(Json::as_str), Some("w"));
            assert!(parsed.get("self_ns").and_then(Json::as_f64).is_some());
        }
    }
}
