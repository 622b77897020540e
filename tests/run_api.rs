//! Tests of the fallible, observable run API: every invalid configuration
//! surfaces as the matching `ProtocolError` variant through `Run::execute()`
//! — never a panic — and the run's one event stream feeds the output's
//! `CommTracker`, a `RecordingObserver` and the telemetry trace alike.

use fedhh::prelude::*;
use fedhh::telemetry::Counter;
use fedhh::trie::ItemEncoder;
use std::collections::BTreeMap;

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
        let mut ctx = RunContext::new(
            &ds,
            ProtocolConfig {
                k: 0,
                ..valid_config()
            },
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

/// Warm-start codes arrive from checkpoint files.  A code wider than
/// `max_bits` is a typed error rather than a silently truncated prefix of
/// some unrelated item.
#[test]
fn warm_start_codes_wider_than_max_bits_are_typed_errors() {
    let ds = dataset();
    let code = ds.ground_truth_top_k(1)[0];
    let wide = (1 << 16) | code;
    for kind in MechanismKind::ALL {
        let warm = |values: Vec<u64>| {
            Run::mechanism(kind)
                .dataset(&ds)
                .config(valid_config())
                .warm_start(values)
                .execute()
        };
        assert!(warm(vec![code]).is_ok(), "{kind}");
        assert_eq!(
            warm(vec![code, wide]).unwrap_err(),
            ProtocolError::WarmCodeOutOfRange {
                code: wide,
                max_bits: 16
            },
            "{kind}"
        );
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

/// The run's one event stream, read by all three of its consumers at once.
/// For every mechanism × oracle × scenario × parallelism, with telemetry
/// attached:
///
/// * the recorder's fold equals the output's tracker (TAPS' validation
///   reports and every downlink included);
/// * the trace's per-level uplink equals the recorder's non-zero levels
///   (the trace, like the tracker, books only levels that cost uplink);
/// * the `uplink.bits` and `downlink.bits` counters equal the tracker's
///   totals.
///
/// The same runs check what the stream says: the phases each mechanism
/// runs, pruning confidences in range, a closing summary that mirrors the
/// output, dropout shrinking `local_results`, and an event order that does
/// not depend on parallelism.
#[test]
fn observer_uplink_matches_comm_tracker_for_every_mechanism() {
    let ds = dataset();
    let scenarios = [
        ("benign", ScenarioPlan::from_faults(FaultPlan::default())),
        (
            "report-flip",
            ScenarioPlan::from_faults(FaultPlan::default()).with_adversary(
                AdversaryModel::ReportFlip {
                    fraction: 0.25,
                    mode: FlipMode::Uniform,
                },
                0xAD5E,
            ),
        ),
        (
            "dropout",
            ScenarioPlan::from_faults(FaultPlan::dropout(0.5, 23)),
        ),
        (
            "stragglers",
            ScenarioPlan::from_faults(FaultPlan {
                dropout_fraction: 0.0,
                stragglers: true,
                seed: 5,
            }),
        ),
    ];
    for kind in MechanismKind::ALL {
        let expected_phases = match kind {
            MechanismKind::Tap | MechanismKind::Taps => vec![
                RunPhase::SharedTrie,
                RunPhase::LocalEstimation,
                RunPhase::Aggregation,
            ],
            _ => vec![RunPhase::LocalEstimation, RunPhase::Aggregation],
        };
        for fo in [FoKind::Grr, FoKind::Oue, FoKind::Olh] {
            for (name, scenario) in scenarios {
                let mut sequential_events = None;
                for parallelism in [1usize, 3] {
                    let what = format!("{kind}/{fo}/{name}/p{parallelism}");
                    let telemetry = Telemetry::new();
                    let mut observer = RecordingObserver::new();
                    let output = Run::mechanism(kind)
                        .dataset(&ds)
                        .config(valid_config().with_fo(fo))
                        .engine(EngineConfig::parallel(parallelism).with_scenario(scenario))
                        .observer(&mut observer)
                        .telemetry(&telemetry)
                        .execute()
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let comm = &output.comm;
                    assert_eq!(&observer.comm(), comm, "{what}: recorder vs tracker");

                    let stats = drain_stats(&telemetry);
                    let from_observer: BTreeMap<u8, u64> = observer
                        .uplink_bits_by_level()
                        .into_iter()
                        .filter(|&(_, bits)| bits > 0)
                        .map(|(level, bits)| (level, bits as u64))
                        .collect();
                    assert_eq!(
                        stats.uplink_bits_by_level(),
                        from_observer,
                        "{what}: per-level uplink"
                    );
                    assert_eq!(
                        stats.counter_total(Counter::UplinkBits),
                        comm.total_uplink_bits() as u64,
                        "{what}: uplink counter"
                    );
                    assert_eq!(
                        stats.counter_total(Counter::DownlinkBits),
                        comm.total_downlink_bits() as u64,
                        "{what}: downlink counter"
                    );

                    assert_eq!(observer.phases(), expected_phases, "{what}");
                    for event in observer.pruning_events() {
                        assert!((0.0..=1.0).contains(&event.gamma), "{what}");
                        assert!(!event.pruned.is_empty(), "{what}");
                    }
                    assert!(
                        matches!(observer.events.last(), Some(RunEvent::RunFinished(_))),
                        "{what}: the summary closes the stream"
                    );
                    let summary = observer.summary().expect("run_finished fired");
                    assert_eq!(summary.mechanism, kind.name(), "{what}");
                    assert_eq!(summary.heavy_hitters, output.heavy_hitters.len());
                    assert_eq!(summary.uplink_bits, comm.total_uplink_bits());
                    assert_eq!(summary.downlink_bits, comm.total_downlink_bits());

                    assert!(!output.heavy_hitters.is_empty(), "{what}");
                    if name == "dropout" {
                        assert!(output.local_results.len() < ds.party_count(), "{what}");
                    } else {
                        assert_eq!(output.local_results.len(), ds.party_count(), "{what}");
                    }
                    match &sequential_events {
                        None => sequential_events = Some(observer.events),
                        Some(events) => assert_eq!(
                            events, &observer.events,
                            "{what}: event stream differs from parallelism 1"
                        ),
                    }
                }
            }
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
