//! The telemetry plane's two hard invariants, proven end to end:
//!
//! 1. **Inertness** — a run with a trace sink attached produces a
//!    `MechanismOutput` bit-identical to an unobserved run, across
//!    mechanism {TAPS, FedPEM} × parallelism {1, 2, 8} × transport
//!    {memory, tcp}, and on a federation whose level groups span several of
//!    the report pipeline's chunks.  Timing never feeds back into protocol
//!    state.
//! 2. **Reconciliation** — the traced runs here cover the tracker's uplink,
//!    and the `wire.tx.bytes` counter equals `SocketTransport`'s actual
//!    frame lengths, exactly.  Trace ⇔ recorder ⇔ tracker per level and
//!    per counter, over every mechanism, oracle and scenario, is one table
//!    in `tests/run_api.rs`
//!    (`observer_uplink_matches_comm_tracker_for_every_mechanism`).

use fedhh::federated::{CandidateReport, RoundMessage, RoundPayload, SocketTransport, Transport};
use fedhh::prelude::*;
use fedhh::telemetry::Counter;
use fedhh_datasets::FederatedDataset;

mod common;

fn dataset() -> FederatedDataset {
    DatasetConfig::test_scale().build(DatasetKind::Rdb)
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

fn assert_outputs_identical(a: &MechanismOutput, b: &MechanismOutput, what: &str) {
    assert_eq!(a.heavy_hitters, b.heavy_hitters, "{what}: heavy hitters");
    assert_eq!(a.counts.len(), b.counts.len(), "{what}: count entries");
    for (value, count) in &a.counts {
        let other = b
            .counts
            .get(value)
            .unwrap_or_else(|| panic!("{what}: count for {value} missing from the other run"));
        assert_eq!(
            count.to_bits(),
            other.to_bits(),
            "{what}: count of {value} differs bit-wise"
        );
    }
    assert_eq!(
        a.comm.total_uplink_bits(),
        b.comm.total_uplink_bits(),
        "{what}: uplink bits"
    );
    assert_eq!(
        a.comm.total_downlink_bits(),
        b.comm.total_downlink_bits(),
        "{what}: downlink bits"
    );
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

/// Inertness across the full execution matrix: attaching a recording sink
/// never changes a single output bit, for either mechanism shape (TAPS'
/// chained rounds, FedPEM's level rounds), at any parallelism, over either
/// transport.
#[test]
fn telemetry_is_inert_across_exec_paths_parallelism_and_transports() {
    let ds = dataset();
    for kind in [MechanismKind::Taps, MechanismKind::FedPem] {
        for parallelism in [1usize, 2, 8] {
            for transport in [TransportKind::InProcess, TransportKind::Tcp] {
                let engine = EngineConfig::parallel(parallelism).transport(transport);
                let what = format!("{kind} p{parallelism}/{transport:?}");
                let untraced = Run::mechanism(kind)
                    .dataset(&ds)
                    .config(config())
                    .engine(engine)
                    .execute()
                    .unwrap();
                let telemetry = Telemetry::new();
                let traced = Run::mechanism(kind)
                    .dataset(&ds)
                    .config(config())
                    .engine(engine)
                    .telemetry(&telemetry)
                    .execute()
                    .unwrap();
                assert_outputs_identical(&untraced, &traced, &what);
                // The sink actually recorded the run it didn't perturb.
                let stats = drain_stats(&telemetry);
                assert_eq!(
                    stats.total_uplink_bits(),
                    untraced.comm.total_uplink_bits() as u64,
                    "{what}: trace covers the uplink"
                );
            }
        }
    }
}

/// Inertness holds where the report pipeline's chunk boundaries fall: on a
/// federation whose level groups span several 16 384-user chunks, FedPEM
/// at parallelism 2 gives the same bits traced or untraced.
#[test]
fn telemetry_is_inert_across_chunk_sizes() {
    let ds = common::chunk_crossing_dataset(false);
    let engine = EngineConfig::parallel(2);
    let untraced = Run::mechanism(MechanismKind::FedPem)
        .dataset(&ds)
        .config(config())
        .engine(engine)
        .execute()
        .unwrap();
    let telemetry = Telemetry::new();
    let traced = Run::mechanism(MechanismKind::FedPem)
        .dataset(&ds)
        .config(config())
        .engine(engine)
        .telemetry(&telemetry)
        .execute()
        .unwrap();
    assert_outputs_identical(&untraced, &traced, "chunk-crossing federation");
    let stats = drain_stats(&telemetry);
    assert_eq!(
        stats.total_uplink_bits(),
        untraced.comm.total_uplink_bits() as u64,
        "trace covers the uplink"
    );
}

/// The wire-level reconciliation gate: the `wire.tx.bytes` counter equals
/// `SocketTransport`'s own byte ground truth — every frame, exactly.
#[test]
fn wire_tx_counter_matches_socket_transport_ground_truth() {
    let transport = SocketTransport::loopback(2).unwrap();
    let telemetry = Telemetry::new();
    transport.attach_telemetry(&telemetry);
    for from in 0..6usize {
        transport
            .send(RoundMessage {
                from,
                party: format!("p{from}"),
                round: 0,
                payload: RoundPayload::Report(CandidateReport {
                    party: format!("p{from}"),
                    level: 1,
                    candidates: vec![(from as u64, 1.0 + from as f64)],
                    users: 3,
                }),
            })
            .unwrap();
    }
    let drained = transport.drain().unwrap();
    assert_eq!(drained.len(), 6);
    let snapshot = telemetry.snapshot();
    assert_eq!(
        snapshot.counter(Counter::WireTxBytes),
        transport.tx_bytes(),
        "telemetry must count exactly the bytes the socket wrote"
    );
    assert!(snapshot.counter(Counter::WireTxFrames) >= 6);
    assert_eq!(snapshot.counter(Counter::FramesCorruptRejected), 0);
}

/// End to end over TCP: a traced socket run records wire activity, and the
/// emitted JSONL passes the strict parser and the reconciliation check.
#[test]
fn tcp_run_trace_records_wire_activity_and_reconciles() {
    let ds = dataset();
    let telemetry = Telemetry::new();
    let output = Run::mechanism(MechanismKind::FedPem)
        .dataset(&ds)
        .config(config())
        .engine(EngineConfig::parallel(2).transport(TransportKind::Tcp))
        .telemetry(&telemetry)
        .execute()
        .unwrap();
    let snapshot = telemetry.snapshot();
    assert!(
        snapshot.counter(Counter::WireTxBytes) > 0,
        "bytes on the wire"
    );
    assert!(
        snapshot.counter(Counter::FramesDecoded) > 0,
        "frames decoded"
    );
    assert_eq!(snapshot.counter(Counter::FramesCorruptRejected), 0);
    let stats = drain_stats(&telemetry);
    assert_eq!(
        stats.total_uplink_bits(),
        output.comm.total_uplink_bits() as u64
    );
}
