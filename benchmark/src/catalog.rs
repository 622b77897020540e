//! The metric catalog: every name the benchmark may print, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` at the repository root states the same catalog; the
//! `benchmark_json_matches_the_catalog` test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// `name` for end-to-end metrics, `layer.metric` for per-layer ones.
    pub name: &'static str,
    /// Unit, at most 16 characters.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees.  Every workload reports every one.
///
/// One bound serves all five workloads, so the noisiest workload sets it;
/// each is about three times the widest ten-seed spread measured on the
/// reference box (see `README.md`).  The gated timing is the 10th
/// percentile, not the median: on a shared 2-vCPU machine other tenants'
/// bursts move a run's median by up to 20 %, while its fastest decile stays
/// within a few percent — interference only ever adds time.  The median and
/// the tail are reported beside it (`harness.*`), ungated.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("run_s_p10", "s", Lower, 0.2),
    e2e("reports_per_s", "1/s", Higher, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
    e2e("uplink_bits", "bit/op", Lower, 0.1),
    e2e("f1", "ratio", Higher, 0.15),
    e2e("ncr", "ratio", Higher, 0.15),
];

/// Single-layer metrics from the traced pass, outside-in.
pub const PER_LAYER: [MetricDef; 66] = [
    layer("datasets.build_eager_ns_per_item", "ns", Lower),
    layer("datasets.stream_gen_ns_per_item", "ns", Lower),
    layer("datasets.materialize_ns_per_item", "ns", Lower),
    layer("datasets.evolve_epoch_ms", "ms", Lower),
    layer("scheduler.assign_ns_per_user", "ns", Lower),
    layer("trie.encode_prefix_ns_per_item", "ns", Lower),
    layer("trie.extend_us_per_call", "us", Lower),
    layer("trie.candidates_per_level", "count", Lower),
    layer("fo.perturb_ns_per_report", "ns", Lower),
    layer("fo.aggregate_ns_per_report", "ns", Lower),
    layer("fo.reports", "count", Lower),
    layer("fo.report_bits_per_user", "bit", Lower),
    layer("estimator.estimate_ns_per_report", "ns", Lower),
    layer("estimator.level_us_sum", "us", Lower),
    layer("estimator.perturb_us_sum", "us", Lower),
    layer("estimator.aggregate_us_sum", "us", Lower),
    layer("estimator.levels", "count", Lower),
    layer("estimator.level_self_share", "ratio", Lower),
    layer("server.top_k_us_per_call", "us", Lower),
    layer("server.reports_per_call", "count", Lower),
    layer("server.candidates_per_report", "count", Lower),
    layer("wire.encode_ns_per_byte", "ns", Lower),
    layer("wire.decode_ns_per_byte", "ns", Lower),
    layer("wire.frame_roundtrip_us_per_msg", "us", Lower),
    layer("wire.bytes_per_msg", "B", Lower),
    layer("wire.bytes_per_uplink_bit", "ratio", Lower),
    layer("topology.root_frames", "count", Lower),
    layer("topology.root_bytes", "B", Lower),
    layer("topology.flat_bytes", "B", Lower),
    layer("topology.savings_ratio", "ratio", Higher),
    layer("topology.tree_cost_ratio", "ratio", Lower),
    layer("session.rounds", "count", Lower),
    layer("session.round_us_mean", "us", Lower),
    layer("session.round_self_share", "ratio", Lower),
    layer("session.parallel_speedup", "ratio", Higher),
    layer("socket.tx_bytes", "B", Lower),
    layer("socket.tx_frames", "count", Lower),
    layer("socket.frames_decoded", "count", Lower),
    layer("socket.frames_corrupt_rejected", "count", Lower),
    layer("socket.encode_us_sum", "us", Lower),
    layer("socket.send_us_sum", "us", Lower),
    layer("socket.roundtrip_us_per_msg", "us", Lower),
    layer("socket.run_ms_p50", "ms", Lower),
    layer("node.handshake_ms_p50", "ms", Lower),
    layer("node.rounds_ms_p50", "ms", Lower),
    layer("node.cpu_ms_per_op", "ms", Lower),
    layer("node.idle_share", "ratio", Lower),
    layer("checkpoint.save_ms_p50", "ms", Lower),
    layer("checkpoint.load_ms_p50", "ms", Lower),
    layer("checkpoint.bytes", "B", Lower),
    layer("checkpoint.write_us_sum", "us", Lower),
    layer("epoch.step_ms_p50", "ms", Lower),
    layer("epoch.first_step_ms", "ms", Lower),
    layer("epoch.enrolled_users", "count", Higher),
    layer("epoch.refused_users", "count", Lower),
    layer("mechanisms.run_us", "us", Lower),
    layer("mechanisms.run_self_share", "ratio", Lower),
    layer("mechanisms.unattributed_share", "ratio", Lower),
    layer("telemetry.overhead_ratio", "ratio", Lower),
    layer("harness.samples", "count", Higher),
    layer("harness.tail_percentile", "%", Higher),
    layer("harness.run_s_p50", "s", Lower),
    layer("harness.run_s_tail", "s", Lower),
    layer("harness.run_s_iqr_share", "ratio", Lower),
    layer("harness.timed_window_s", "s", Higher),
    layer("harness.cpu_s_per_op", "s", Lower),
];

/// The end-to-end definition called `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(!def.unit.is_empty() && def.unit.len() <= 16, "{}", def.name);
            assert!(
                def.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                def.name
            );
            assert!((0.0..=0.25).contains(&def.bound), "{}", def.name);
        }
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s takes the largest bound");
        assert!(WORKLOADS.iter().all(|w| valid_name(w.name)));
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_string);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        for (key, defs, bounded) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (item, def) in listed.iter().zip(defs) {
                assert_eq!(field(item, "name").as_deref(), Some(def.name));
                assert_eq!(
                    field(item, "unit").as_deref(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    field(item, "better").as_deref(),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                let bound = item.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
                assert_eq!(item.as_obj().unwrap().len(), if bounded { 4 } else { 3 });
            }
        }
    }
}
