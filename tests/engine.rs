//! Integration tests of the round-driven federation engine: parallel
//! execution is bit-identical to sequential for every mechanism, and fault
//! plans (dropout, stragglers) complete deterministically with consistent
//! accounting.

use fedhh::prelude::*;
use std::collections::BTreeSet;

fn dataset() -> FederatedDataset {
    DatasetConfig::test_scale().build(DatasetKind::Ycm)
}

fn config() -> ProtocolConfig {
    ProtocolConfig {
        k: 5,
        epsilon: 4.0,
        max_bits: 16,
        granularity: 8,
        ..Default::default()
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

/// The headline engine guarantee: the same seed produces bit-identical
/// output at parallelism 1, 2 and 8, for every mechanism.
#[test]
fn engine_output_is_bit_identical_across_parallelism_for_every_mechanism() {
    let ds = dataset();
    for kind in MechanismKind::ALL {
        let sequential = execute(kind, &ds, EngineConfig::sequential());
        for parallelism in [2usize, 8] {
            let parallel = execute(kind, &ds, EngineConfig::parallel(parallelism));
            assert_eq!(
                fingerprint(&parallel),
                fingerprint(&sequential),
                "{kind} diverged at parallelism {parallelism}"
            );
            assert_eq!(
                parallel.local_results, sequential.local_results,
                "{kind} local results diverged at parallelism {parallelism}"
            );
        }
    }
}

/// Fault plans are part of the scenario, not a source of nondeterminism:
/// the same plan produces bit-identical output at any parallelism.
#[test]
fn faulty_runs_stay_bit_identical_across_parallelism() {
    let ds = dataset();
    let faults = FaultPlan {
        dropout_fraction: 0.25,
        stragglers: true,
        seed: 17,
    };
    for kind in MechanismKind::ALL {
        let sequential = execute(kind, &ds, EngineConfig::sequential().with_faults(faults));
        let parallel = execute(kind, &ds, EngineConfig::parallel(4).with_faults(faults));
        assert_eq!(
            fingerprint(&parallel),
            fingerprint(&sequential),
            "{kind} faulty run diverged under parallelism"
        );
    }
}

/// Under dropout the session still completes for every mechanism, the
/// surviving parties shrink accordingly, and the run's event stream speaks
/// for the survivors alone: every level event comes from a surviving party,
/// and every survivor emits some.
#[test]
fn dropout_runs_complete_and_preserve_the_observer_invariant() {
    let ds = dataset();
    let engine = EngineConfig::parallel(2).with_faults(FaultPlan::dropout(0.5, 23));
    for kind in MechanismKind::ALL {
        let mut observer = RecordingObserver::new();
        let output = Run::mechanism(kind)
            .dataset(&ds)
            .config(config())
            .engine(engine)
            .observer(&mut observer)
            .execute()
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(
            !output.heavy_hitters.is_empty(),
            "{kind} found nothing under dropout"
        );
        // Half of the 4 YCM parties dropped out.
        assert_eq!(output.local_results.len(), 2, "{kind}");
        let survivors: BTreeSet<&str> = output
            .local_results
            .iter()
            .map(|local| local.party.as_str())
            .collect();
        let reporting: BTreeSet<&str> = observer
            .level_events()
            .map(|event| event.party.as_str())
            .collect();
        assert_eq!(reporting, survivors, "{kind}: events from dropped parties");
    }
}

/// Dropping parties strictly reduces the run's uplink traffic.
#[test]
fn dropout_reduces_uplink_traffic() {
    let ds = dataset();
    for kind in MechanismKind::ALL {
        let healthy = execute(kind, &ds, EngineConfig::sequential());
        let faulty = execute(
            kind,
            &ds,
            EngineConfig::sequential().with_faults(FaultPlan::dropout(0.5, 23)),
        );
        assert!(
            faulty.comm.total_uplink_bits() < healthy.comm.total_uplink_bits(),
            "{kind}: dropout did not reduce uplink"
        );
    }
}

/// Straggler reordering is a real scenario axis: the run completes with
/// every party, and since uploads drain in canonical order its accounting
/// is the straggler-free run's, bit for bit.
#[test]
fn straggler_runs_complete_with_consistent_accounting() {
    let ds = dataset();
    let faults = FaultPlan {
        dropout_fraction: 0.0,
        stragglers: true,
        seed: 5,
    };
    for kind in MechanismKind::ALL {
        let output = execute(kind, &ds, EngineConfig::parallel(3).with_faults(faults));
        assert_eq!(output.local_results.len(), ds.party_count(), "{kind}");
        let healthy = execute(kind, &ds, EngineConfig::sequential());
        assert_eq!(output.comm, healthy.comm, "{kind}");
    }
}

/// Engine misconfiguration surfaces as typed errors through the builder.
#[test]
fn invalid_engine_configs_are_typed_errors() {
    let ds = dataset();
    let err = Run::mechanism(MechanismKind::Taps)
        .dataset(&ds)
        .config(config())
        .engine(EngineConfig::parallel(0))
        .execute()
        .unwrap_err();
    assert_eq!(err, ProtocolError::InvalidParallelism { parallelism: 0 });

    let err = Run::mechanism(MechanismKind::Taps)
        .dataset(&ds)
        .config(config())
        .engine(EngineConfig::sequential().with_faults(FaultPlan::dropout(1.5, 0)))
        .execute()
        .unwrap_err();
    assert_eq!(err, ProtocolError::InvalidDropout { fraction: 1.5 });
}

/// A three-party federation whose first party holds 75 % of the users.
/// With OLH over 16-bit codes in 4 levels (every level extends by 4 bits,
/// so domains are 80+ slots wide) that party's ≈ 15 000-user levels carry
/// well over a millisecond of kernel work each — past the estimator's real
/// threshold for borrowing an idle worker, which nothing here configures.
fn skewed_dataset() -> FederatedDataset {
    let encoder = fedhh::trie::ItemEncoder::new(16, 3);
    let party = |name: &str, users: u64, shift: u64| {
        let items = (0..users)
            .map(|u| encoder.encode((u % 89) % (1 + (u + shift) % 17)))
            .collect();
        PartyData::new(name, items, 16)
    };
    FederatedDataset::new(
        "skewed",
        vec![
            party("big", 60_000, 0),
            party("mid", 12_000, 5),
            party("small", 8_000, 11),
        ],
        16,
        encoder,
    )
}

fn skewed_config() -> ProtocolConfig {
    ProtocolConfig {
        k: 5,
        epsilon: 4.0,
        max_bits: 16,
        granularity: 4,
        fo: FoKind::Olh,
        ..Default::default()
    }
}

/// Runs under a telemetry sink; returns the output and how many `perturb`
/// spans the run recorded.  Every level group here fits in one of the
/// report pipeline's 16 384-user chunks, so that count is the number of
/// ranges estimated: levels, plus one per level helper.
fn execute_counting_ranges(
    kind: MechanismKind,
    ds: &FederatedDataset,
    config: ProtocolConfig,
    engine: EngineConfig,
) -> (MechanismOutput, u64) {
    let telemetry = Telemetry::new();
    let output = Run::mechanism(kind)
        .dataset(ds)
        .config(config)
        .engine(engine)
        .telemetry(&telemetry)
        .execute()
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
    let ranges = telemetry
        .snapshot()
        .span_us
        .iter()
        .find(|(name, _)| *name == fedhh::telemetry::SpanName::Perturb)
        .map_or(0, |(_, hist)| hist.count);
    (output, ranges)
}

/// The second unit of parallel work — a contiguous range of one level's
/// users, taken by a worker the round leaves idle — can split a level or
/// not, depending on timing; the output cannot tell.  TAPS' chain rounds
/// cover `run_solo_round`, where every worker but one is idle.
#[test]
fn split_levels_are_bit_identical_on_a_skewed_federation_for_every_mechanism() {
    let ds = skewed_dataset();
    for kind in MechanismKind::ALL {
        let config = skewed_config();
        let (sequential, unsplit_ranges) =
            execute_counting_ranges(kind, &ds, config, EngineConfig::sequential());
        for parallelism in [1usize, 2, 3, 8] {
            let engine = EngineConfig::parallel(parallelism);
            let (output, ranges) = execute_counting_ranges(kind, &ds, config, engine);
            assert_eq!(
                fingerprint(&output),
                fingerprint(&sequential),
                "{kind} diverged at parallelism {parallelism}"
            );
            assert_eq!(output.local_results, sequential.local_results);
            if parallelism == 1 {
                assert_eq!(ranges, unsplit_ranges, "{kind}: no token at parallelism 1");
            }
            // Eight workers for three parties: five are idle from the first
            // instant of every round, so the big party's levels do get
            // split — the matrix above compared split runs.
            if parallelism == 8 {
                assert!(
                    ranges > unsplit_ranges,
                    "{kind}: no level was split ({ranges} ranges at parallelism 8, \
                     {unsplit_ranges} sequentially)"
                );
            }
        }
    }
}
