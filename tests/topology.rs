//! Integration tests of the aggregation tree and quorum closure: a tree
//! topology at full quorum is bit-identical to the flat star for every
//! mechanism across fanout × depth × parallelism; partial
//! quorums close rounds identically across reruns and parallelism; and a
//! tree run's trace, observer and tracker agree exactly while the
//! root-inbound byte count strictly drops below the flat equivalent.

use fedhh::prelude::*;
use fedhh::telemetry::Counter;
use fedhh_datasets::FederatedDataset;
use std::collections::BTreeMap;

fn dataset() -> FederatedDataset {
    DatasetConfig::test_scale().build(DatasetKind::Ycm)
}

fn config() -> ProtocolConfig {
    ProtocolConfig {
        k: 5,
        epsilon: 4.0,
        max_bits: 16,
        granularity: 8,
        ..ProtocolConfig::default()
    }
}

fn execute(kind: MechanismKind, ds: &FederatedDataset, engine: EngineConfig) -> MechanismOutput {
    Run::mechanism(kind)
        .dataset(ds)
        .config(config())
        .engine(engine)
        .execute()
        .unwrap_or_else(|e| panic!("{kind}: {e}"))
}

/// Collapses an output into a comparable fingerprint (everything except the
/// wall-clock duration, which legitimately varies between runs).
fn fingerprint(output: &MechanismOutput) -> (Vec<u64>, Vec<(u64, u64)>, usize, usize, usize) {
    let mut counts: Vec<(u64, u64)> = output
        .counts
        .iter()
        .map(|(v, c)| (*v, c.to_bits()))
        .collect();
    counts.sort_unstable();
    (
        output.heavy_hitters.clone(),
        counts,
        output.comm.total_uplink_bits(),
        output.comm.total_downlink_bits(),
        output.comm.total_local_report_bits(),
    )
}

/// The tentpole guarantee: routing uploads through cohort sub-aggregators
/// is lossless by construction, so a tree at quorum 1.0 reproduces the
/// flat star bit for bit — same heavy hitters, same count bit patterns,
/// same traffic — for every mechanism, at every fanout × depth ×
/// parallelism of the matrix.
#[test]
fn tree_matches_flat_bit_for_bit_at_full_quorum() {
    let ds = dataset();
    for kind in MechanismKind::ALL {
        let flat = execute(kind, &ds, EngineConfig::sequential());
        for (fanout, depth) in [(2, 1), (2, 2), (4, 1), (4, 2), (16, 1), (16, 2)] {
            for parallelism in [1usize, 8] {
                let engine = EngineConfig::parallel(parallelism)
                    .with_topology(Topology::Tree { fanout, depth });
                let tree = execute(kind, &ds, engine);
                assert_eq!(
                    fingerprint(&tree),
                    fingerprint(&flat),
                    "{kind} diverged under tree:{fanout}:{depth} at parallelism {parallelism}"
                );
                assert_eq!(
                    tree.local_results, flat.local_results,
                    "{kind} local results diverged under tree:{fanout}:{depth}"
                );
            }
        }
    }
}

/// Quorum closure is a pure function of (seed, round), never thread or
/// socket timing: a partial quorum produces bit-identical output across
/// reruns, parallelism levels and topologies.
#[test]
fn partial_quorum_runs_are_bit_identical_across_reruns_and_parallelism() {
    let ds = dataset();
    let quorum = QuorumPolicy {
        fraction: 0.5,
        seed: 41,
    };
    for kind in MechanismKind::ALL {
        let reference = execute(kind, &ds, EngineConfig::sequential().with_quorum(quorum));
        // A partial quorum must actually exclude someone somewhere, or the
        // test proves nothing: the excluded uploads shrink the uplink.
        let full = execute(kind, &ds, EngineConfig::sequential());
        assert!(
            reference.comm.total_uplink_bits() < full.comm.total_uplink_bits(),
            "{kind}: a 0.5 quorum did not shrink the uplink"
        );
        for parallelism in [1usize, 2, 8] {
            for topology in [
                Topology::Flat,
                Topology::Tree {
                    fanout: 2,
                    depth: 1,
                },
            ] {
                for rerun in 0..2 {
                    let engine = EngineConfig::parallel(parallelism)
                        .with_topology(topology)
                        .with_quorum(quorum);
                    let run = execute(kind, &ds, engine);
                    assert_eq!(
                        fingerprint(&run),
                        fingerprint(&reference),
                        "{kind} quorum run diverged under {topology} at \
                         parallelism {parallelism} (rerun {rerun})"
                    );
                }
            }
        }
    }
}

/// Drains a telemetry handle into parsed, reconciliation-checked stats.
fn drain_stats(telemetry: &Telemetry) -> TraceStats {
    let mut jsonl = Vec::new();
    telemetry.write_jsonl(&mut jsonl).unwrap();
    let text = String::from_utf8(jsonl).unwrap();
    let stats = TraceStats::from_str(&text).expect("every emitted line re-parses");
    stats.verify_reconciled().expect("counter == sum of events");
    stats
}

/// The observability contract on a tree run, three ways at once: for every
/// mechanism, the per-level `uplink.bits` of the parsed JSONL trace, the
/// `RecordingObserver`'s reconstruction and the `CommTracker` totals agree
/// exactly — and the root-inbound byte counter strictly undercuts the
/// flat-equivalent byte count on the same seed, which the trace's own
/// savings gate certifies.
#[test]
fn tree_trace_observer_and_tracker_agree_and_root_bytes_shrink() {
    let ds = dataset();
    for kind in MechanismKind::ALL {
        let telemetry = Telemetry::new();
        let mut observer = RecordingObserver::new();
        let engine = EngineConfig::sequential().with_topology(Topology::Tree {
            fanout: 2,
            depth: 1,
        });
        let output = Run::mechanism(kind)
            .dataset(&ds)
            .config(config())
            .engine(engine)
            .observer(&mut observer)
            .telemetry(&telemetry)
            .execute()
            .unwrap();
        let snapshot = telemetry.snapshot();
        let stats = drain_stats(&telemetry);

        // Trace == observer, level by level (the observer also logs free
        // in-party levels, so drop its zeros).
        let from_trace = stats.uplink_bits_by_level();
        let from_observer: BTreeMap<u8, u64> = observer
            .uplink_bits_by_level()
            .into_iter()
            .filter(|&(_, bits)| bits > 0)
            .map(|(level, bits)| (level, bits as u64))
            .collect();
        assert_eq!(from_trace, from_observer, "{kind}: per-level uplink");
        // Trace == tracker, in total.
        assert_eq!(
            stats.total_uplink_bits(),
            output.comm.total_uplink_bits() as u64,
            "{kind}: total uplink"
        );

        // Interior-edge savings: the root saw fewer frames than parties ×
        // rounds would cost the star, and strictly fewer bytes — on the
        // very same seed, because the tree rows of the run are the flat
        // rows rerouted.
        let root = snapshot.counter(Counter::TreeRootBytes);
        let flat = snapshot.counter(Counter::TreeFlatBytes);
        assert!(flat > 0, "{kind}: tree counters never recorded");
        assert!(
            root < flat,
            "{kind}: root-inbound bytes did not drop ({root} vs {flat} flat-equivalent)"
        );
        // The same invariant, certified the way `fedhh-bench trace-check`
        // certifies committed traces.
        stats
            .verify_tree_savings()
            .unwrap_or_else(|e| panic!("{kind}: trace savings gate failed: {e}"));
    }
}

/// A flat run on the same seed reproduces the tree run's outputs exactly,
/// so the flat-equivalent byte counter of the tree run measures a real
/// star: the savings comparison in the test above is apples to apples.
#[test]
fn the_flat_equivalent_baseline_is_a_real_flat_run() {
    let ds = dataset();
    for kind in MechanismKind::ALL {
        let flat = execute(kind, &ds, EngineConfig::sequential());
        let tree = execute(
            kind,
            &ds,
            EngineConfig::sequential().with_topology(Topology::Tree {
                fanout: 2,
                depth: 1,
            }),
        );
        assert_eq!(fingerprint(&flat), fingerprint(&tree), "{kind}");
    }
}
