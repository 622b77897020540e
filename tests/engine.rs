//! Integration tests of the round-driven federation engine: parallel
//! execution is bit-identical to sequential for every mechanism, and fault
//! plans (dropout, stragglers) complete deterministically while preserving
//! the observer/tracker communication invariant.

use fedhh::prelude::*;

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
/// surviving parties shrink accordingly, and the observer reconstructs the
/// tracker's uplink exactly (the PR 1 invariant survives the engine).
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
        assert_eq!(
            observer.total_uplink_bits(),
            output.comm.total_uplink_bits(),
            "{kind}: observer no longer reconstructs the tracker under dropout"
        );
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

/// Straggler reordering is a real scenario axis: the run completes and
/// remains internally consistent.
#[test]
fn straggler_runs_complete_with_consistent_accounting() {
    let ds = dataset();
    let faults = FaultPlan {
        dropout_fraction: 0.0,
        stragglers: true,
        seed: 5,
    };
    for kind in MechanismKind::ALL {
        let mut observer = RecordingObserver::new();
        let output = Run::mechanism(kind)
            .dataset(&ds)
            .config(config())
            .engine(EngineConfig::parallel(3).with_faults(faults))
            .observer(&mut observer)
            .execute()
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(output.local_results.len(), ds.party_count(), "{kind}");
        assert_eq!(
            observer.total_uplink_bits(),
            output.comm.total_uplink_bits(),
            "{kind}"
        );
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
