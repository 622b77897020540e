//! Integration tests of the adversarial scenario plane: every adversary
//! model is a pure function of `(plan, seed, party)` — same plan, same
//! attack, bit-identical output at any parallelism — the benign corner is
//! exactly the PR 6 engine, and frame corruption either completes cleanly
//! or fails with a typed transport error, never a panic or a hang.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use fedhh::prelude::*;

mod common;

use common::fingerprint;

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

fn execute(
    kind: MechanismKind,
    ds: &FederatedDataset,
    engine: EngineConfig,
) -> Result<MechanismOutput, ProtocolError> {
    Run::mechanism(kind)
        .dataset(ds)
        .config(config())
        .engine(engine)
        .execute()
}

/// The in-process adversary models (frame corruption is transport-level and
/// has its own tests below).
fn adversaries() -> [AdversaryModel; 4] {
    [
        AdversaryModel::ReportFlip {
            fraction: 0.5,
            mode: FlipMode::Uniform,
        },
        AdversaryModel::ReportFlip {
            fraction: 0.5,
            mode: FlipMode::Inverted,
        },
        AdversaryModel::InputPoison {
            fraction: 0.5,
            target_prefix: 0xB,
            prefix_len: 4,
        },
        AdversaryModel::Sybil {
            fraction: 0.5,
            target_item: 0xBEEF,
        },
    ]
}

/// The scenario-plane determinism guarantee: the same plan produces
/// bit-identical output for every mechanism, at sequential and parallel
/// execution alike — the adversary is part of the scenario, not a source of
/// nondeterminism.
#[test]
fn every_adversary_is_bit_identical_across_reruns_and_parallelism() {
    let ds = dataset();
    for adversary in adversaries() {
        let plan = ScenarioPlan {
            adversary,
            seed: 42,
            ..ScenarioPlan::benign()
        };
        for kind in MechanismKind::ALL {
            let sequential = execute(kind, &ds, EngineConfig::sequential().with_scenario(plan))
                .unwrap_or_else(|e| panic!("{kind} under {adversary:?}: {e}"));
            let rerun = execute(kind, &ds, EngineConfig::sequential().with_scenario(plan))
                .unwrap_or_else(|e| panic!("{kind} under {adversary:?}: {e}"));
            assert_eq!(
                fingerprint(&rerun),
                fingerprint(&sequential),
                "{kind} under {adversary:?} diverged between reruns"
            );
            let parallel = execute(kind, &ds, EngineConfig::parallel(4).with_scenario(plan))
                .unwrap_or_else(|e| panic!("{kind} under {adversary:?}: {e}"));
            assert_eq!(
                fingerprint(&parallel),
                fingerprint(&sequential),
                "{kind} under {adversary:?} diverged under parallelism"
            );
            assert_eq!(
                parallel.local_results, sequential.local_results,
                "{kind} under {adversary:?}: local results diverged"
            );
        }
    }
}

/// What each adversary in `adversaries()` makes each mechanism output at
/// scenario seed 42 (see `common::digest`).  Only the input-poisoning and
/// Sybil rows read a compromised party's rewritten items; the report-flip
/// rows pin the report plane next to them.
const ADVERSARY_DIGESTS: [[(MechanismKind, u64); 4]; 4] = [
    [
        (MechanismKind::FedPem, 0x1B68_DE02_6B2A_C960),
        (MechanismKind::Gtf, 0xFD48_5054_94D7_8FFE),
        (MechanismKind::Tap, 0x7A70_F6E8_2666_F49C),
        (MechanismKind::Taps, 0xA0D8_588F_8DE9_821E),
    ],
    [
        (MechanismKind::FedPem, 0x8984_96F0_AC26_80FE),
        (MechanismKind::Gtf, 0x29AA_C764_646D_FB35),
        (MechanismKind::Tap, 0x5C7B_13D3_FD6C_BC6A),
        (MechanismKind::Taps, 0x8535_E1DA_1596_60FF),
    ],
    [
        (MechanismKind::FedPem, 0x90B5_7588_0FC5_E725),
        (MechanismKind::Gtf, 0xFB22_0071_5AD4_30F7),
        (MechanismKind::Tap, 0xCE37_6BA9_B4BC_C7F9),
        (MechanismKind::Taps, 0x2D89_10D0_B256_A69C),
    ],
    [
        (MechanismKind::FedPem, 0x810A_D15F_1817_6527),
        (MechanismKind::Gtf, 0xC2B8_56FF_1A06_A413),
        (MechanismKind::Tap, 0x4241_4C9B_65E3_06F2),
        (MechanismKind::Taps, 0x4306_1F27_0DB8_2DBA),
    ],
];

/// Every adversary's output is pinned, not only self-consistent: a change
/// to how a compromised party's items are rewritten moves a digest here
/// even when reruns and parallel runs still agree with each other.
#[test]
fn every_adversary_output_matches_pinned_digests() {
    let ds = dataset();
    for (adversary, row) in adversaries().into_iter().zip(ADVERSARY_DIGESTS) {
        let plan = ScenarioPlan {
            adversary,
            seed: 42,
            ..ScenarioPlan::benign()
        };
        for (kind, pin) in row {
            let output = execute(kind, &ds, EngineConfig::sequential().with_scenario(plan))
                .unwrap_or_else(|e| panic!("{kind} under {adversary:?}: {e}"));
            let got = common::digest(&output);
            assert_eq!(got, pin, "{kind} under {adversary:?}: digest {got:#018X}");
        }
    }
}

/// A different adversary seed picks different victims and hence a different
/// attack — the seed is a real input, not decoration.
#[test]
fn adversary_seed_changes_the_attack() {
    let ds = dataset();
    let adversary = AdversaryModel::Sybil {
        fraction: 0.5,
        target_item: 0xBEEF,
    };
    let baseline = execute(
        MechanismKind::Taps,
        &ds,
        EngineConfig::sequential().with_scenario(ScenarioPlan {
            adversary,
            seed: 1,
            ..ScenarioPlan::benign()
        }),
    )
    .unwrap();
    assert!(
        (2u64..64).any(|seed| {
            let plan = ScenarioPlan {
                adversary,
                seed,
                ..ScenarioPlan::benign()
            };
            let other = execute(
                MechanismKind::Taps,
                &ds,
                EngineConfig::sequential().with_scenario(plan),
            )
            .unwrap();
            fingerprint(&other) != fingerprint(&baseline)
        }),
        "no seed in 2..64 changed the Sybil attack"
    );
}

/// `AdversaryModel::None` — and every adversary at fraction zero — is the
/// exact PR 6 baseline: bit-identical output, whatever the scenario seed.
#[test]
fn no_adversary_matches_the_baseline_exactly() {
    let ds = dataset();
    for kind in MechanismKind::ALL {
        let baseline = execute(kind, &ds, EngineConfig::sequential())
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let mut benign_plans = vec![
            ScenarioPlan {
                adversary: AdversaryModel::None,
                seed: 99,
                ..ScenarioPlan::benign()
            },
            ScenarioPlan {
                adversary: AdversaryModel::CorruptFrames { fraction: 0.0 },
                seed: 99,
                ..ScenarioPlan::benign()
            },
        ];
        for adversary in adversaries() {
            let zeroed = match adversary {
                AdversaryModel::ReportFlip { mode, .. } => AdversaryModel::ReportFlip {
                    fraction: 0.0,
                    mode,
                },
                AdversaryModel::InputPoison {
                    target_prefix,
                    prefix_len,
                    ..
                } => AdversaryModel::InputPoison {
                    fraction: 0.0,
                    target_prefix,
                    prefix_len,
                },
                AdversaryModel::Sybil { target_item, .. } => AdversaryModel::Sybil {
                    fraction: 0.0,
                    target_item,
                },
                other => other,
            };
            benign_plans.push(ScenarioPlan {
                adversary: zeroed,
                seed: 99,
                ..ScenarioPlan::benign()
            });
        }
        for plan in benign_plans {
            let output = execute(kind, &ds, EngineConfig::sequential().with_scenario(plan))
                .unwrap_or_else(|e| panic!("{kind} under {:?}: {e}", plan.adversary));
            assert_eq!(
                fingerprint(&output),
                fingerprint(&baseline),
                "{kind}: benign plan {:?} diverged from the baseline",
                plan.adversary
            );
            assert_eq!(output.local_results, baseline.local_results, "{kind}");
        }
    }
}

/// A full-fraction Sybil cohort visibly captures the run: the target item
/// becomes a heavy hitter.  (Sanity that the plane actually attacks, not
/// just that it is deterministic.)
#[test]
fn a_full_sybil_cohort_pushes_its_target_item() {
    let ds = dataset();
    let target = 0xBEEF & ((1u64 << config().max_bits) - 1);
    let plan = ScenarioPlan {
        adversary: AdversaryModel::Sybil {
            fraction: 1.0,
            target_item: target,
        },
        seed: 7,
        ..ScenarioPlan::benign()
    };
    let output = execute(
        MechanismKind::FedPem,
        &ds,
        EngineConfig::sequential().with_scenario(plan),
    )
    .unwrap();
    assert!(
        output.heavy_hitters.contains(&target),
        "every party reported {target:#x}, yet it is not a heavy hitter: {:x?}",
        output.heavy_hitters
    );
}

/// Frame corruption across a sweep of fractions either completes cleanly or
/// fails with a typed transport error — never a panic, never a hang.  The
/// run executes on a worker thread under a test-side timeout so a deadlock
/// fails the test instead of wedging the suite.
#[test]
fn corrupt_frames_complete_or_fail_typed_never_hang() {
    for fraction in [0.01, 0.1, 0.5] {
        for kind in MechanismKind::ALL {
            let plan = ScenarioPlan {
                adversary: AdversaryModel::CorruptFrames { fraction },
                seed: 5,
                ..ScenarioPlan::benign()
            };
            let (tx, rx) = mpsc::channel();
            let handle = thread::spawn(move || {
                let ds = dataset();
                let result = execute(kind, &ds, EngineConfig::parallel(2).with_scenario(plan));
                // A send error just means the timeout already fired.
                let _ = tx.send(result);
            });
            let result = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{kind} at corruption fraction {fraction} hung"));
            handle
                .join()
                .unwrap_or_else(|_| panic!("{kind} at corruption fraction {fraction} panicked"));
            match result {
                Ok(output) => assert!(
                    !output.heavy_hitters.is_empty(),
                    "{kind} at fraction {fraction}: clean completion found nothing"
                ),
                Err(err) => assert!(
                    matches!(err, ProtocolError::Transport(_)),
                    "{kind} at fraction {fraction}: non-transport error {err}"
                ),
            }
        }
    }
}
