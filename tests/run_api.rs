//! Tests of the fallible, observable run API: every invalid configuration
//! surfaces as the matching `ProtocolError` variant through `Run::execute()`
//! — never a panic — and a `RecordingObserver` reconstructs communication
//! that matches the `CommTracker` totals exactly.

use fedhh::prelude::*;
use fedhh::trie::ItemEncoder;

fn dataset() -> FederatedDataset {
    DatasetConfig::test_scale().build(DatasetKind::Rdb)
}

fn valid_config() -> ProtocolConfig {
    ProtocolConfig {
        k: 5,
        epsilon: 4.0,
        max_bits: 16,
        granularity: 8,
        ..Default::default()
    }
}

fn execute(kind: MechanismKind, config: ProtocolConfig) -> Result<MechanismOutput, ProtocolError> {
    Run::mechanism(kind)
        .dataset(&dataset())
        .config(config)
        .execute()
}

/// Property-style sweep: every invalid parameter value yields its dedicated
/// error variant, for every mechanism, without panicking.
#[test]
fn invalid_configs_yield_matching_error_variants_for_every_mechanism() {
    let base = valid_config();
    type Case = (ProtocolConfig, fn(&ProtocolError) -> bool, &'static str);
    let cases: Vec<Case> = vec![
        (
            ProtocolConfig { k: 0, ..base },
            |e| matches!(e, ProtocolError::InvalidQuery { k: 0 }),
            "k = 0",
        ),
        (
            ProtocolConfig {
                epsilon: 0.0,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidBudget { .. }),
            "epsilon = 0",
        ),
        (
            ProtocolConfig {
                epsilon: -1.5,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidBudget { .. }),
            "epsilon < 0",
        ),
        (
            ProtocolConfig {
                epsilon: f64::NAN,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidBudget { .. }),
            "epsilon = NaN",
        ),
        (
            ProtocolConfig {
                epsilon: f64::INFINITY,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidBudget { .. }),
            "epsilon = inf",
        ),
        (
            ProtocolConfig {
                granularity: 0,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidGranularity { granularity: 0, .. }),
            "granularity = 0",
        ),
        (
            ProtocolConfig {
                granularity: 17,
                ..base
            },
            |e| {
                matches!(
                    e,
                    ProtocolError::InvalidGranularity {
                        granularity: 17,
                        max_bits: 16
                    }
                )
            },
            "granularity > max_bits",
        ),
        (
            ProtocolConfig {
                shared_ratio: -0.1,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidSharedRatio { .. }),
            "shared_ratio < 0",
        ),
        (
            ProtocolConfig {
                shared_ratio: 1.5,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidSharedRatio { .. }),
            "shared_ratio > 1",
        ),
        (
            ProtocolConfig {
                dividing_ratio: 0.5,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidDividingRatio { .. }),
            "dividing_ratio = 0.5",
        ),
        (
            ProtocolConfig {
                dividing_ratio: -0.2,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidDividingRatio { .. }),
            "dividing_ratio < 0",
        ),
        (
            ProtocolConfig {
                phase1_user_fraction: 1.0,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidPhase1Fraction { .. }),
            "phase1 fraction = 1",
        ),
        (
            ProtocolConfig {
                phase1_user_fraction: -0.5,
                ..base
            },
            |e| matches!(e, ProtocolError::InvalidPhase1Fraction { .. }),
            "phase1 fraction < 0",
        ),
    ];

    for kind in MechanismKind::ALL {
        for (config, matches_variant, label) in &cases {
            let err = execute(kind, *config)
                .expect_err(&format!("{kind} accepted invalid config ({label})"));
            assert!(
                matches_variant(&err),
                "{kind} with {label} produced the wrong variant: {err:?}"
            );
        }
    }
}

/// Executing a mechanism directly (not just through `Run`) also reports
/// errors instead of panicking.
#[test]
fn mechanism_execute_validates_without_the_builder() {
    let ds = dataset();
    for kind in MechanismKind::ALL {
        let mechanism = kind.build();
        let mut observer = NullObserver;
        let mut ctx = RunContext::new(
            &ds,
            ProtocolConfig {
                k: 0,
                ..valid_config()
            },
            &mut observer,
        );
        let err = mechanism.execute(&mut ctx).unwrap_err();
        assert!(
            matches!(err, ProtocolError::InvalidQuery { k: 0 }),
            "{kind}: {err:?}"
        );
    }
}

#[test]
fn missing_dataset_and_bit_width_mismatch_are_typed_errors() {
    let err = Run::mechanism(MechanismKind::Taps)
        .config(valid_config())
        .execute()
        .unwrap_err();
    assert_eq!(err, ProtocolError::MissingDataset);

    // The test dataset uses 16-bit codes; the default config expects 48.
    let ds = dataset();
    let err = Run::mechanism(MechanismKind::Gtf)
        .dataset(&ds)
        .config(ProtocolConfig::default())
        .execute()
        .unwrap_err();
    assert_eq!(
        err,
        ProtocolError::BitWidthMismatch {
            dataset_bits: 16,
            config_bits: 48
        }
    );
}

#[test]
fn empty_datasets_are_rejected() {
    // `FederatedDataset` requires at least one party, so the degenerate
    // case the run API must reject is a federation with zero users.
    let empty = FederatedDataset::new(
        "void",
        vec![PartyData::new("idle", vec![], 16)],
        16,
        ItemEncoder::new(16, 1),
    );
    let err = Run::mechanism(MechanismKind::FedPem)
        .dataset(&empty)
        .config(valid_config())
        .execute()
        .unwrap_err();
    assert_eq!(
        err,
        ProtocolError::EmptyDataset {
            dataset: "void".to_string()
        }
    );
}

/// The headline observability invariant: for a TAPS run, the uplink bits
/// summed over the observer's `level_estimated` events equal
/// `CommTracker::total_uplink_bits()` exactly.
#[test]
fn recording_observer_reconstructs_taps_uplink_exactly() {
    let ds = dataset();
    let mut observer = RecordingObserver::new();
    let output = Run::mechanism(MechanismKind::Taps)
        .dataset(&ds)
        .config(valid_config())
        .observer(&mut observer)
        .execute()
        .unwrap();

    let summed: usize = observer.level_events().map(|e| e.uplink_bits).sum();
    assert_eq!(summed, output.comm.total_uplink_bits());
    // The per-level breakdown covers the same total.
    let by_level: usize = observer.uplink_bits_by_level().values().sum();
    assert_eq!(by_level, output.comm.total_uplink_bits());
    // TAPS ran both protocol phases plus the final aggregation.
    let phases = observer.phases();
    assert!(phases.contains(&RunPhase::SharedTrie), "{phases:?}");
    assert!(phases.contains(&RunPhase::LocalEstimation), "{phases:?}");
    assert!(phases.contains(&RunPhase::Aggregation), "{phases:?}");
    // Consensus pruning fired somewhere and reported sane confidences.
    for event in observer.pruning_events() {
        assert!((0.0..=1.0).contains(&event.gamma));
        assert!(!event.pruned.is_empty());
    }
    // The closing summary mirrors the output.
    let summary = observer.summary().expect("run_finished fired");
    assert_eq!(summary.mechanism, "TAPS");
    assert_eq!(summary.heavy_hitters, output.heavy_hitters.len());
    assert_eq!(summary.uplink_bits, output.comm.total_uplink_bits());
    assert_eq!(summary.downlink_bits, output.comm.total_downlink_bits());
}

/// The uplink reconstruction holds for every mechanism, and the in-party
/// report traffic seen by the observer never exceeds the tracker's.
#[test]
fn observer_uplink_matches_comm_tracker_for_every_mechanism() {
    let ds = dataset();
    for kind in MechanismKind::ALL {
        let mut observer = RecordingObserver::new();
        let output = Run::mechanism(kind)
            .dataset(&ds)
            .config(valid_config())
            .observer(&mut observer)
            .execute()
            .unwrap();
        assert_eq!(
            observer.total_uplink_bits(),
            output.comm.total_uplink_bits(),
            "{kind} uplink mismatch"
        );
        // TAPS spends extra in-party reports on pruning validation, which
        // belong to pruning decisions rather than level estimates; every
        // other mechanism's report traffic is fully covered by level events.
        if kind == MechanismKind::Taps {
            assert!(
                observer.total_report_bits() <= output.comm.total_local_report_bits(),
                "{kind} report traffic exceeded the tracker"
            );
        } else {
            assert_eq!(
                observer.total_report_bits(),
                output.comm.total_local_report_bits(),
                "{kind} report traffic mismatch"
            );
        }
    }
}

/// An observed run returns bit-identical results to an unobserved one —
/// observability must not perturb the protocol.
#[test]
fn observers_do_not_change_results() {
    let ds = dataset();
    for kind in MechanismKind::ALL {
        let mut observer = RecordingObserver::new();
        let observed = Run::mechanism(kind)
            .dataset(&ds)
            .config(valid_config())
            .observer(&mut observer)
            .execute()
            .unwrap();
        let unobserved = Run::mechanism(kind)
            .dataset(&ds)
            .config(valid_config())
            .execute()
            .unwrap();
        assert_eq!(observed.heavy_hitters, unobserved.heavy_hitters, "{kind}");
        assert_eq!(
            observed.comm.total_uplink_bits(),
            unobserved.comm.total_uplink_bits(),
            "{kind}"
        );
    }
}

/// The observer↔tracker exactness invariant holds under the O(d) oracles'
/// vectorized kernels too (the test above runs k-RR): their wider reports
/// must route through the same funnel.
#[test]
fn observer_uplink_matches_comm_tracker_on_the_vectorized_path() {
    let ds = dataset();
    for fo in [FoKind::Oue, FoKind::Olh] {
        for kind in MechanismKind::ALL {
            let mut observer = RecordingObserver::new();
            let output = Run::mechanism(kind)
                .dataset(&ds)
                .config(valid_config().with_fo(fo))
                .observer(&mut observer)
                .execute()
                .unwrap();
            assert_eq!(
                observer.total_uplink_bits(),
                output.comm.total_uplink_bits(),
                "{kind}/{fo} uplink mismatch"
            );
        }
    }
}

/// Exactness under an active adversary: compromised parties' perturbed
/// reports still cost real uplink, and the observer accounts for every
/// bit the tracker books.
#[test]
fn observer_uplink_matches_comm_tracker_under_an_adversary() {
    let ds = dataset();
    let scenario = ScenarioPlan::from_faults(FaultPlan::default()).with_adversary(
        AdversaryModel::ReportFlip {
            fraction: 0.25,
            mode: FlipMode::Uniform,
        },
        0xAD5E,
    );
    for kind in MechanismKind::ALL {
        let mut observer = RecordingObserver::new();
        let output = Run::mechanism(kind)
            .dataset(&ds)
            .config(valid_config())
            .engine(EngineConfig::parallel(2).with_scenario(scenario))
            .observer(&mut observer)
            .execute()
            .unwrap();
        assert_eq!(
            observer.total_uplink_bits(),
            output.comm.total_uplink_bits(),
            "{kind} uplink mismatch under adversary"
        );
    }
}

/// Property: the recorded event stream — order included — is invariant
/// across parallelism, so a log captured at parallelism 8 is comparable
/// event-for-event with a sequential reference.
#[test]
fn recording_observer_event_order_is_invariant_across_parallelism() {
    let ds = dataset();
    for kind in MechanismKind::ALL {
        let mut sequential = RecordingObserver::new();
        Run::mechanism(kind)
            .dataset(&ds)
            .config(valid_config())
            .engine(EngineConfig::parallel(1))
            .observer(&mut sequential)
            .execute()
            .unwrap();
        let mut parallel = RecordingObserver::new();
        Run::mechanism(kind)
            .dataset(&ds)
            .config(valid_config())
            .engine(EngineConfig::parallel(8))
            .observer(&mut parallel)
            .execute()
            .unwrap();
        assert!(!sequential.events.is_empty(), "{kind} recorded nothing");
        assert_eq!(
            sequential.events, parallel.events,
            "{kind}: event stream differs between parallelism 1 and 8"
        );
    }
}

/// The 0.2 migration is complete: ablation instances (the last internal
/// users of the removed `Mechanism::run` shim) execute through
/// `Run::custom`, with the same validation guarantees as named runs.
#[test]
fn custom_instances_run_through_the_builder_after_shim_removal() {
    let ds = dataset();
    let output = Run::custom(&Taps::default())
        .dataset(&ds)
        .config(valid_config())
        .execute()
        .unwrap();
    assert_eq!(output.heavy_hitters.len(), 5);

    let err = Run::custom(&Taps::default())
        .dataset(&ds)
        .config(ProtocolConfig {
            k: 0,
            ..valid_config()
        })
        .execute()
        .unwrap_err();
    assert_eq!(err, ProtocolError::InvalidQuery { k: 0 });
}
