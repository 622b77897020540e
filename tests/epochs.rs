//! End-to-end crash-recovery tests for the epoch service: the real
//! mechanism executor (`fedhh_bench::MechanismExecutor`) driven by the
//! real epoch runner, killed at **every** epoch boundary, resumed from its
//! checkpoint, and compared bit-for-bit against an uninterrupted
//! reference run — the acceptance gate of the epoch subsystem.  Plus the
//! budget-cap refusal path and the warm-start ablation wiring.

use fedhh_bench::epochs::{EpochsOptions, MechanismExecutor};
use fedhh_federated::checkpoint::{load, save};
use fedhh_federated::{EpochRunner, ProtocolError, WarmStart};
use std::path::PathBuf;

/// A tiny three-epoch service that still exercises churn, drift and both
/// warm-start arms in seconds.
fn tiny_options() -> EpochsOptions {
    EpochsOptions {
        epochs: 3,
        churn_fraction: 0.3,
        drift_stride: 2,
        user_scale: 0.005,
        ..EpochsOptions::quick()
    }
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fedhh-epochs-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Runs the whole service uninterrupted and returns the runner.
fn reference_run(warm: WarmStart) -> EpochRunner {
    let options = tiny_options();
    let spec = options.spec(warm);
    let mut exec = MechanismExecutor::new(spec.clone()).unwrap();
    let mut runner = EpochRunner::new(spec.epoch_config(), spec.to_spec_bytes());
    runner.run(&mut exec).unwrap();
    runner
}

#[test]
fn kill_at_every_epoch_boundary_resumes_bit_identically() {
    for warm in [WarmStart::Cold, WarmStart::Previous] {
        let reference = reference_run(warm);
        assert_eq!(reference.records().len(), 3);

        let options = tiny_options();
        let path = temp_file(&format!("kill-{}", warm.name()));
        for split in 0..3u32 {
            // Phase 1: run `split` epochs with checkpointing, then "crash"
            // (drop the runner and executor — all in-memory state is lost;
            // only the checkpoint file survives).
            let spec = options.spec(warm);
            {
                let mut exec = MechanismExecutor::new(spec.clone()).unwrap();
                let mut runner = EpochRunner::new(spec.epoch_config(), spec.to_spec_bytes());
                runner.checkpoint_to(&path);
                if split == 0 {
                    // Crash before the first epoch completes: no checkpoint
                    // exists yet, so recovery starts from scratch.
                    save(&path, &runner.checkpoint()).unwrap();
                }
                for _ in 0..split {
                    runner.step(&mut exec).unwrap();
                }
            }

            // Phase 2: a brand-new process loads the checkpoint and runs
            // the remaining epochs.
            let checkpoint = load(&path).unwrap();
            assert_eq!(checkpoint.state.next_epoch, split);
            let mut exec = MechanismExecutor::new(spec.clone()).unwrap();
            let mut resumed =
                EpochRunner::resume(spec.epoch_config(), spec.to_spec_bytes(), checkpoint).unwrap();
            resumed.run(&mut exec).unwrap();

            // Bit-identical per-epoch outputs: heavy hitters, count bit
            // patterns, communication and enrollment tallies.
            assert_eq!(
                resumed.records(),
                reference.records(),
                "warm {} split {split}",
                warm.name()
            );
            assert_eq!(resumed.state(), reference.state());
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn a_foreign_spec_checkpoint_is_refused_on_resume() {
    let options = tiny_options();
    let spec = options.spec(WarmStart::Cold);
    let path = temp_file("foreign");
    let mut exec = MechanismExecutor::new(spec.clone()).unwrap();
    let mut runner = EpochRunner::new(spec.epoch_config(), spec.to_spec_bytes());
    runner.checkpoint_to(&path);
    runner.step(&mut exec).unwrap();

    // Same flags except the seed: different spec bytes, resume refused.
    let other = EpochsOptions {
        seed: 1234,
        ..tiny_options()
    }
    .spec(WarmStart::Cold);
    let checkpoint = load(&path).unwrap();
    let err =
        EpochRunner::resume(other.epoch_config(), other.to_spec_bytes(), checkpoint).unwrap_err();
    assert!(matches!(err, ProtocolError::Transport(_)), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn the_budget_ledger_eventually_refuses_everyone() {
    // ε = 4 per epoch, lifetime cap 8, zero churn: everyone is admitted
    // for exactly two epochs, then the service reports budget exhaustion.
    let options = EpochsOptions {
        epochs: 5,
        churn_fraction: 0.0,
        epsilon: 4.0,
        epsilon_cap: Some(8.0),
        user_scale: 0.005,
        ..EpochsOptions::quick()
    };
    let spec = options.spec(WarmStart::Cold);
    let mut exec = MechanismExecutor::new(spec.clone()).unwrap();
    let mut runner = EpochRunner::new(spec.epoch_config(), spec.to_spec_bytes());
    let err = runner.run(&mut exec).unwrap_err();
    assert_eq!(err, ProtocolError::BudgetExhausted { epoch: 2 });
    assert_eq!(runner.records().len(), 2);
    assert!(runner.records().iter().all(|r| r.refused_users == 0));
}

#[test]
fn churned_in_users_keep_a_capped_service_alive() {
    // The same cap, but 40% churn: fresh users arrive with zero spend every
    // epoch, so the service keeps finding someone to enroll — and starts
    // refusing the retained users whose lifetime budget ran out.
    let options = EpochsOptions {
        epochs: 4,
        churn_fraction: 0.4,
        epsilon: 4.0,
        epsilon_cap: Some(8.0),
        user_scale: 0.005,
        ..EpochsOptions::quick()
    };
    let spec = options.spec(WarmStart::Cold);
    let mut exec = MechanismExecutor::new(spec.clone()).unwrap();
    let mut runner = EpochRunner::new(spec.epoch_config(), spec.to_spec_bytes());
    runner.run(&mut exec).unwrap();
    assert_eq!(runner.records().len(), 4);
    let last = &runner.records()[3];
    assert!(last.enrolled_users > 0);
    assert!(last.refused_users > 0);
    // Refusals only begin once the cap binds (epoch 2 on).
    assert_eq!(runner.records()[0].refused_users, 0);
    assert_eq!(runner.records()[1].refused_users, 0);
    assert!(runner.records()[2].refused_users > 0);
}

#[test]
fn warm_start_mode_changes_the_trie_but_not_epoch_zero() {
    // Epoch 0 has no previous epoch: both arms must produce bit-identical
    // first records (the warm set is empty either way).
    let cold = reference_run(WarmStart::Cold);
    let warm = reference_run(WarmStart::Previous);
    assert_eq!(cold.records()[0], warm.records()[0]);
    // The warm arm carries a warm set forward; the cold arm never does.
    assert!(warm.state().warm.is_some());
    assert!(cold.state().warm.is_none());
}
