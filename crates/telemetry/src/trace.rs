//! The JSONL trace format, one event per line: a hand-rolled emit, and a
//! strict parse through the workspace's one JSON reader ([`crate::json`]);
//! schema-versioned like `BENCH_*.json`.
//!
//! ## Schema (version 1)
//!
//! Every line is one flat JSON object carrying `"v": 1` and a type tag
//! `"t"`; all numbers are unsigned integers (timestamps and durations in
//! microseconds), so emit and parse are exact inverses:
//!
//! ```text
//! {"v":1,"t":"mark","name":"trial/taps","runs":3}
//! {"v":1,"t":"span","name":"round","idx":0,"start_us":152,"dur_us":4810}
//! {"v":1,"t":"uplink","party":"retailer-1","level":2,"bits":4096}
//! {"v":1,"t":"counter","name":"uplink.bits","value":73728}
//! {"v":1,"t":"gauge","name":"budget.enrolled","value":512}
//! {"v":1,"t":"hist","name":"span.round.us","count":9,"sum":41230,"min":3804,"max":5120,"p50":4607,"p90":5120,"p99":5120}
//! ```
//!
//! * `mark` opens a **section**: everything until the next mark belongs to
//!   the named workload, which ran `runs` times with the same seed (the
//!   reconciliation key: the section's `uplink.bits` counter must equal
//!   `runs ×` the per-run uplink).
//! * `span` — one timed section; `name` comes from the closed
//!   [`SpanName`] taxonomy, `idx` is the caller's index (round number,
//!   level, epoch…), times are microseconds since the sink was created.
//! * `uplink` — one level event of a run's event stream: `party`'s
//!   level-`level` report cost `bits` uplink bits.  Summed per level these reconcile
//!   exactly with `RecordingObserver` and `CommTracker`.
//! * `counter` / `gauge` / `hist` — the metric registry snapshot emitted
//!   when the section is flushed.  Histogram names are either
//!   `span.<span-name>.us` or a declared [`ValueHist`] name; quantiles are
//!   integer bucket bounds (see [`crate::HistSnapshot::quantile`]).
//!
//! Parsing is **strict**: unknown type tags, unknown span/metric names,
//! missing or repeated keys, values other than strings and plain-digit
//! unsigned integers, and trailing garbage are all [`TraceError`]s — a
//! trace that parses is a trace the schema fully describes.  Whitespace
//! between tokens is allowed, as in any JSON.

use crate::json::{self, Value};
use crate::metrics::{Counter, Gauge, ValueHist};
use crate::span::SpanName;
use std::collections::BTreeMap;

/// The trace schema version this build emits and parses.
pub const TRACE_SCHEMA: u64 = 1;

/// One buffered telemetry event (the in-memory form of a `span`, `uplink`
/// or `mark` line; metric lines are derived from the registry at flush).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A completed timed section.
    Span {
        /// Taxonomy name.
        name: SpanName,
        /// Caller-chosen index (round number, level, epoch…).
        idx: u64,
        /// Start offset in microseconds since the sink was created.
        start_us: u64,
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// One uplink-bearing level event of a run's event stream.
    Uplink {
        /// Reporting party name.
        party: String,
        /// Trie level (1-based).
        level: u8,
        /// Uplink bits this event contributed.
        bits: u64,
    },
}

/// One parsed line of a JSONL trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// Section marker.
    Mark {
        /// Workload name (free-form; the section join key).
        name: String,
        /// How many identically-seeded runs the section covers.
        runs: u64,
    },
    /// A completed timed section.
    Span {
        /// Taxonomy name.
        name: SpanName,
        /// Caller-chosen index.
        idx: u64,
        /// Start offset, microseconds.
        start_us: u64,
        /// Duration, microseconds.
        dur_us: u64,
    },
    /// One uplink funnel event.
    Uplink {
        /// Reporting party name.
        party: String,
        /// Trie level (1-based).
        level: u8,
        /// Uplink bits.
        bits: u64,
    },
    /// A counter snapshot.
    Counter {
        /// The declared counter.
        name: Counter,
        /// Its value at flush.
        value: u64,
    },
    /// A gauge snapshot.
    Gauge {
        /// The declared gauge.
        name: Gauge,
        /// Its value at flush.
        value: u64,
    },
    /// A histogram snapshot.
    Hist {
        /// `span.<name>.us` or a [`ValueHist`] name (validated).
        name: String,
        /// Observation count.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Smallest observed value.
        min: u64,
        /// Largest observed value.
        max: u64,
        /// Integer-bucket p50.
        p50: u64,
        /// Integer-bucket p90.
        p90: u64,
        /// Integer-bucket p99.
        p99: u64,
    },
}

/// A parse or validation failure, with enough context to name the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// What went wrong.
    pub detail: String,
}

impl TraceError {
    fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for TraceError {}

impl TraceLine {
    /// Renders the line as its canonical one-line JSON form (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        match self {
            TraceLine::Mark { name, runs } => format!(
                "{{\"v\":{TRACE_SCHEMA},\"t\":\"mark\",\"name\":\"{}\",\"runs\":{runs}}}",
                json::escape(name)
            ),
            TraceLine::Span {
                name,
                idx,
                start_us,
                dur_us,
            } => format!(
                "{{\"v\":{TRACE_SCHEMA},\"t\":\"span\",\"name\":\"{name}\",\"idx\":{idx},\
                 \"start_us\":{start_us},\"dur_us\":{dur_us}}}"
            ),
            TraceLine::Uplink { party, level, bits } => format!(
                "{{\"v\":{TRACE_SCHEMA},\"t\":\"uplink\",\"party\":\"{}\",\"level\":{level},\
                 \"bits\":{bits}}}",
                json::escape(party)
            ),
            TraceLine::Counter { name, value } => format!(
                "{{\"v\":{TRACE_SCHEMA},\"t\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                name.as_str()
            ),
            TraceLine::Gauge { name, value } => format!(
                "{{\"v\":{TRACE_SCHEMA},\"t\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}",
                name.as_str()
            ),
            TraceLine::Hist {
                name,
                count,
                sum,
                min,
                max,
                p50,
                p90,
                p99,
            } => format!(
                "{{\"v\":{TRACE_SCHEMA},\"t\":\"hist\",\"name\":\"{}\",\"count\":{count},\
                 \"sum\":{sum},\"min\":{min},\"max\":{max},\"p50\":{p50},\"p90\":{p90},\
                 \"p99\":{p99}}}",
                json::escape(name)
            ),
        }
    }

    /// Parses one JSONL line, rejecting anything outside the schema.
    pub fn parse(line: &str) -> Result<Self, TraceError> {
        Self::parse_fields(line).map_err(TraceError::new)
    }

    fn parse_fields(line: &str) -> Result<Self, String> {
        let value = json::parse(line)?;
        let fields = value.object("a trace line")?;
        if let Some((key, value)) = fields
            .iter()
            .find(|(_, value)| !matches!(value, Value::String(_) | Value::Uint(_)))
        {
            return Err(format!(
                "expected a string or unsigned integer value for key {key:?}, found {value:?}"
            ));
        }
        let str = |key| json::field::<String>(fields, key);
        let num = |key| json::field::<u64>(fields, key);
        let version = num("v")?;
        if version != TRACE_SCHEMA {
            return Err(format!(
                "unsupported trace schema version {version} (supported: {TRACE_SCHEMA})"
            ));
        }
        // `name` is read by then: the error only has to quote it.
        let unknown = |what| format!("unknown {what} {:?}", str("name").unwrap_or_default());
        match str("t")?.as_str() {
            "mark" => Ok(TraceLine::Mark {
                name: str("name")?,
                runs: num("runs")?,
            }),
            "span" => Ok(TraceLine::Span {
                name: SpanName::parse(&str("name")?).ok_or_else(|| unknown("span name"))?,
                idx: num("idx")?,
                start_us: num("start_us")?,
                dur_us: num("dur_us")?,
            }),
            "uplink" => Ok(TraceLine::Uplink {
                party: str("party")?,
                level: json::field(fields, "level")?,
                bits: num("bits")?,
            }),
            "counter" => Ok(TraceLine::Counter {
                name: Counter::parse(&str("name")?).ok_or_else(|| unknown("counter"))?,
                value: num("value")?,
            }),
            "gauge" => Ok(TraceLine::Gauge {
                name: Gauge::parse(&str("name")?).ok_or_else(|| unknown("gauge"))?,
                value: num("value")?,
            }),
            "hist" => Ok(TraceLine::Hist {
                name: Some(str("name")?)
                    .filter(|name| is_valid_hist_name(name))
                    .ok_or_else(|| unknown("histogram"))?,
                count: num("count")?,
                sum: num("sum")?,
                min: num("min")?,
                max: num("max")?,
                p50: num("p50")?,
                p90: num("p90")?,
                p99: num("p99")?,
            }),
            other => Err(format!("unknown line type {other:?}")),
        }
    }
}

/// The histogram name a span's duration series is emitted under.
pub fn span_hist_name(name: SpanName) -> String {
    format!("span.{name}.us")
}

fn is_valid_hist_name(name: &str) -> bool {
    if ValueHist::parse(name).is_some() {
        return true;
    }
    name.strip_prefix("span.")
        .and_then(|rest| rest.strip_suffix(".us"))
        .and_then(SpanName::parse)
        .is_some()
}

// --- Aggregation ----------------------------------------------------------

/// One mark-delimited section of a parsed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSection {
    /// The mark's workload name (empty for lines before any mark).
    pub name: String,
    /// The mark's identically-seeded run count (1 for the implicit head
    /// section).
    pub runs: u64,
    /// Per-level uplink bits summed over the section's `uplink` events.
    pub uplink_by_level: BTreeMap<u8, u64>,
    /// Counter snapshot lines in the section.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge snapshot lines in the section.
    pub gauges: BTreeMap<&'static str, u64>,
    /// `span` event counts per taxonomy name.
    pub span_counts: BTreeMap<&'static str, u64>,
    /// Histogram lines, keyed by name.
    pub hists: BTreeMap<String, u64>,
}

impl TraceSection {
    /// Total uplink bits from the section's `uplink` events.
    pub fn uplink_event_bits(&self) -> u64 {
        self.uplink_by_level.values().sum()
    }

    /// The section's `uplink.bits` counter line (0 when absent).
    pub fn uplink_counter_bits(&self) -> u64 {
        self.counters
            .get(Counter::UplinkBits.as_str())
            .copied()
            .unwrap_or(0)
    }
}

/// A whole parsed trace: the validated lines grouped into mark-delimited
/// sections, plus line-count bookkeeping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Sections in file order.
    pub sections: Vec<TraceSection>,
    /// Total parsed lines.
    pub lines: u64,
}

impl TraceStats {
    /// Parses and aggregates a whole JSONL document, failing on the first
    /// invalid line (named by 1-based line number).
    ///
    /// An inherent method rather than a `FromStr` impl so callers reach it
    /// as `TraceStats::from_str` without importing the trait.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<Self, TraceError> {
        let mut stats = TraceStats::default();
        for (i, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let line = TraceLine::parse(raw)
                .map_err(|e| TraceError::new(format!("line {}: {}", i + 1, e.detail)))?;
            stats.lines += 1;
            stats.push(line);
        }
        Ok(stats)
    }

    fn current(&mut self) -> &mut TraceSection {
        if self.sections.is_empty() {
            self.sections.push(TraceSection {
                runs: 1,
                ..TraceSection::default()
            });
        }
        self.sections.last_mut().expect("non-empty")
    }

    /// Folds one parsed line into the aggregate.
    pub fn push(&mut self, line: TraceLine) {
        match line {
            TraceLine::Mark { name, runs } => self.sections.push(TraceSection {
                name,
                runs: runs.max(1),
                ..TraceSection::default()
            }),
            TraceLine::Span { name, .. } => {
                *self.current().span_counts.entry(name.as_str()).or_insert(0) += 1;
            }
            TraceLine::Uplink { level, bits, .. } => {
                *self.current().uplink_by_level.entry(level).or_insert(0) += bits;
            }
            TraceLine::Counter { name, value } => {
                self.current().counters.insert(name.as_str(), value);
            }
            TraceLine::Gauge { name, value } => {
                self.current().gauges.insert(name.as_str(), value);
            }
            TraceLine::Hist { name, count, .. } => {
                self.current().hists.insert(name, count);
            }
        }
    }

    /// Per-level uplink bits summed over every section.
    pub fn uplink_bits_by_level(&self) -> BTreeMap<u8, u64> {
        let mut out = BTreeMap::new();
        for section in &self.sections {
            for (&level, &bits) in &section.uplink_by_level {
                *out.entry(level).or_insert(0) += bits;
            }
        }
        out
    }

    /// Total uplink bits from `uplink` events, across every section.
    pub fn total_uplink_bits(&self) -> u64 {
        self.uplink_bits_by_level().values().sum()
    }

    /// One named counter summed across sections.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.sections
            .iter()
            .filter_map(|s| s.counters.get(counter.as_str()))
            .sum()
    }

    /// The internal consistency gate: in every section, the `uplink.bits`
    /// counter line (when present) must equal the sum of the section's
    /// `uplink` events — the counter and the events are recorded by the
    /// same funnel, so any drift means a dishonest trace.
    pub fn verify_reconciled(&self) -> Result<(), TraceError> {
        for section in &self.sections {
            if section.counters.contains_key(Counter::UplinkBits.as_str()) {
                let counter = section.uplink_counter_bits();
                let events = section.uplink_event_bits();
                if counter != events {
                    return Err(TraceError::new(format!(
                        "section {:?}: uplink.bits counter ({counter}) != sum of uplink \
                         events ({events})",
                        section.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// The tree-savings gate: in every section that carries the tree
    /// counters, the root-inbound bytes must not exceed what the same
    /// reports would have cost as a flat star (`tree.root.bytes <=
    /// tree.flat.bytes`), and whenever the section recorded an
    /// `aggregate.merge` span — i.e. at least one cohort actually coalesced
    /// — the inequality must be strict.  A tree run that pays *more* at the
    /// root than the flat star is a dishonest trace: merging is lossless
    /// concatenation plus shared framing, so it can only shrink the
    /// interior edge.
    pub fn verify_tree_savings(&self) -> Result<(), TraceError> {
        for section in &self.sections {
            let Some(&flat) = section.counters.get(Counter::TreeFlatBytes.as_str()) else {
                continue;
            };
            let root = section
                .counters
                .get(Counter::TreeRootBytes.as_str())
                .copied()
                .unwrap_or(0);
            if root > flat {
                return Err(TraceError::new(format!(
                    "section {:?}: tree.root.bytes ({root}) exceeds tree.flat.bytes \
                     ({flat}) — the aggregation tree inflated the root edge",
                    section.name
                )));
            }
            let merges = section
                .span_counts
                .get(SpanName::AggregateMerge.as_str())
                .copied()
                .unwrap_or(0);
            if merges > 0 && root >= flat {
                return Err(TraceError::new(format!(
                    "section {:?}: {merges} aggregate.merge spans but tree.root.bytes \
                     ({root}) did not drop below tree.flat.bytes ({flat})",
                    section.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One line of every kind.
    fn every_kind() -> Vec<TraceLine> {
        vec![
            TraceLine::Mark {
                name: "trial/taps".into(),
                runs: 3,
            },
            TraceLine::Span {
                name: SpanName::Round,
                idx: 2,
                start_us: 10,
                dur_us: 999,
            },
            TraceLine::Uplink {
                party: "weird \"p\\0\"\t".into(),
                level: 4,
                bits: 4096,
            },
            TraceLine::Counter {
                name: Counter::WireTxBytes,
                value: 123456,
            },
            TraceLine::Gauge {
                name: Gauge::BudgetRefused,
                value: 7,
            },
            TraceLine::Hist {
                name: "span.round.us".into(),
                count: 2,
                sum: 30,
                min: 10,
                max: 20,
                p50: 15,
                p90: 20,
                p99: 20,
            },
            TraceLine::Hist {
                name: "queue.depth".into(),
                count: 1,
                sum: 3,
                min: 3,
                max: 3,
                p50: 3,
                p90: 3,
                p99: 3,
            },
        ]
    }

    #[test]
    fn every_line_kind_round_trips() {
        for line in every_kind() {
            let json = line.to_json();
            assert_eq!(TraceLine::parse(&json).unwrap(), line, "{json}");
        }
    }

    #[test]
    fn free_form_names_round_trip_whatever_their_text() {
        for name in [
            "q\"uote",
            "back\\slash",
            "ctl \u{0}\u{1}\u{1f}\n\r\t",
            "é ✓ 日本 🦀",
            "",
        ] {
            for line in [
                TraceLine::Mark {
                    name: name.to_string(),
                    runs: 1,
                },
                TraceLine::Uplink {
                    party: name.to_string(),
                    level: 1,
                    bits: 8,
                },
            ] {
                let json = line.to_json();
                assert!(!json.contains(['\n', '\u{0}']), "{json}");
                assert_eq!(TraceLine::parse(&json), Ok(line), "{json}");
            }
        }
    }

    #[test]
    fn a_line_cut_at_any_byte_is_an_error() {
        let mut lines = every_kind();
        lines.push(TraceLine::Mark {
            name: "é ✓ \"\\ 🦀".into(),
            runs: 2,
        });
        for line in lines {
            let json = line.to_json();
            for cut in 0..json.len() {
                let prefix = String::from_utf8_lossy(&json.as_bytes()[..cut]);
                assert!(TraceLine::parse(&prefix).is_err(), "accepted: {prefix}");
            }
        }
    }

    #[test]
    fn deep_nesting_in_a_line_is_an_error_not_a_stack_overflow() {
        let open = "[".repeat(100_000);
        let mut lines = vec![open.clone()];
        for line in every_kind() {
            let json = line.to_json();
            lines.push(format!("{},\"x\":{open}", &json[..json.len() - 1]));
        }
        for line in lines {
            let err = TraceLine::parse(&line).unwrap_err();
            assert!(err.detail.contains("nesting deeper"), "{err}");
        }
    }

    #[test]
    fn a_line_that_repeats_a_key_is_rejected_naming_it() {
        let line = r#"{"v":1,"t":"counter","name":"uplink.bits","value":150,"value":0}"#;
        let err = TraceLine::parse(line).unwrap_err();
        assert!(err.detail.contains("duplicate key \"value\""), "{err}");
    }

    #[test]
    fn whitespace_between_tokens_is_valid_json() {
        let line = " { \"v\" : 1 ,\t\"t\":\"mark\", \"name\" : \"x\" , \"runs\": 2 } ";
        let mark = TraceLine::Mark {
            name: "x".into(),
            runs: 2,
        };
        assert_eq!(TraceLine::parse(line), Ok(mark));
    }

    #[test]
    fn non_scalar_values_are_rejected_naming_the_key() {
        for (value, found) in [
            ("{}", "Object"),
            ("[1]", "Array"),
            ("1.5", "Number"),
            ("-1", "Number"),
            ("true", "Bool"),
            ("null", "Null"),
        ] {
            let line = format!(r#"{{"v":1,"t":"mark","name":"x","runs":{value}}}"#);
            let err = TraceLine::parse(&line).unwrap_err();
            assert!(
                err.detail.contains("key \"runs\"") && err.detail.contains(found),
                "{err}"
            );
        }
    }

    #[test]
    fn parser_rejects_out_of_schema_lines() {
        for bad in [
            "",
            "{",
            "{}",
            "not json",
            r#"{"v":2,"t":"mark","name":"x","runs":1}"#,
            r#"{"v":1,"t":"bogus"}"#,
            r#"{"v":1,"t":"span","name":"rounds","idx":0,"start_us":0,"dur_us":0}"#,
            r#"{"v":1,"t":"span","name":"round","idx":0,"start_us":0}"#,
            r#"{"v":1,"t":"counter","name":"wire.rx.bytes","value":1}"#,
            r#"{"v":1,"t":"hist","name":"span.bogus.us","count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0}"#,
            r#"{"v":1,"t":"uplink","party":"p0","level":300,"bits":1}"#,
            r#"{"v":1,"t":"uplink","party":"p0","level":-1,"bits":1}"#,
            r#"{"v":1,"t":"uplink","party":"p0","level":1,"bits":1.5}"#,
            r#"{"v":1,"t":"mark","name":"x","runs":1} trailing"#,
            r#"{"v":1,"t":"mark","name":"x","runs":1,"nested":{"a":1}}"#,
        ] {
            assert!(TraceLine::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn stats_aggregate_sections_and_verify_reconciliation() {
        let text = [
            r#"{"v":1,"t":"mark","name":"a","runs":2}"#,
            r#"{"v":1,"t":"uplink","party":"p0","level":1,"bits":100}"#,
            r#"{"v":1,"t":"uplink","party":"p1","level":2,"bits":50}"#,
            r#"{"v":1,"t":"counter","name":"uplink.bits","value":150}"#,
            r#"{"v":1,"t":"mark","name":"b","runs":1}"#,
            r#"{"v":1,"t":"uplink","party":"p0","level":1,"bits":30}"#,
            r#"{"v":1,"t":"counter","name":"uplink.bits","value":30}"#,
        ]
        .join("\n");
        let stats = TraceStats::from_str(&text).unwrap();
        assert_eq!(stats.lines, 7);
        assert_eq!(stats.sections.len(), 2);
        assert_eq!(stats.sections[0].name, "a");
        assert_eq!(stats.sections[0].runs, 2);
        assert_eq!(stats.sections[0].uplink_event_bits(), 150);
        assert_eq!(stats.total_uplink_bits(), 180);
        assert_eq!(stats.uplink_bits_by_level()[&1], 130);
        assert_eq!(stats.counter_total(Counter::UplinkBits), 180);
        stats.verify_reconciled().unwrap();

        let drifted = text.replace(
            r#"{"v":1,"t":"counter","name":"uplink.bits","value":30}"#,
            r#"{"v":1,"t":"counter","name":"uplink.bits","value":31}"#,
        );
        let stats = TraceStats::from_str(&drifted).unwrap();
        let err = stats.verify_reconciled().unwrap_err();
        assert!(err.detail.contains("31"), "{err}");
    }

    #[test]
    fn tree_savings_gate_rejects_inflated_or_stagnant_root_edges() {
        let honest = [
            r#"{"v":1,"t":"mark","name":"tree","runs":1}"#,
            r#"{"v":1,"t":"span","name":"aggregate.merge","idx":0,"start_us":0,"dur_us":5}"#,
            r#"{"v":1,"t":"counter","name":"tree.root.bytes","value":700}"#,
            r#"{"v":1,"t":"counter","name":"tree.flat.bytes","value":1000}"#,
        ]
        .join("\n");
        TraceStats::from_str(&honest)
            .unwrap()
            .verify_tree_savings()
            .unwrap();

        // Sections without tree counters are out of scope for the gate.
        let flat_only = r#"{"v":1,"t":"counter","name":"uplink.bits","value":5}"#;
        TraceStats::from_str(flat_only)
            .unwrap()
            .verify_tree_savings()
            .unwrap();

        let inflated = honest.replace("\"value\":700", "\"value\":1400");
        let err = TraceStats::from_str(&inflated)
            .unwrap()
            .verify_tree_savings()
            .unwrap_err();
        assert!(err.detail.contains("exceeds"), "{err}");

        // Merges recorded but no byte savings: also dishonest.
        let stagnant = honest.replace("\"value\":700", "\"value\":1000");
        let err = TraceStats::from_str(&stagnant)
            .unwrap()
            .verify_tree_savings()
            .unwrap_err();
        assert!(err.detail.contains("did not drop"), "{err}");

        // No merges (all-singleton cohorts): equality is legitimate.
        let singleton = stagnant.replace(
            r#"{"v":1,"t":"span","name":"aggregate.merge","idx":0,"start_us":0,"dur_us":5}"#,
            r#"{"v":1,"t":"span","name":"round","idx":0,"start_us":0,"dur_us":5}"#,
        );
        TraceStats::from_str(&singleton)
            .unwrap()
            .verify_tree_savings()
            .unwrap();
    }

    #[test]
    fn parse_errors_name_the_line() {
        let text = "{\"v\":1,\"t\":\"mark\",\"name\":\"a\",\"runs\":1}\nnot json\n";
        let err = TraceStats::from_str(text).unwrap_err();
        assert!(err.detail.starts_with("line 2:"), "{err}");
    }
}
