//! Composition of the epoch service's privacy budget: across ε, lifetime
//! caps and population churn, with a checkpoint save/load/resume after
//! every epoch, `BudgetLedger` enrolls a user exactly when their running
//! spend plus ε stays within the cap in `f64`, no spend ever exceeds the
//! cap, and the resumed service enrolls the same users as an uninterrupted
//! one.  Every expectation comes from a shadow ledger kept here, so the
//! test restates the rule rather than reading it back from the code.  It
//! also pins the one `f64` edge the ledger documents: at ε 0.1 under cap
//! 0.3 a user gets two epochs, not three.

use fedhh_federated::checkpoint::{load, save};
use fedhh_federated::{
    EpochConfig, EpochExecutor, EpochOutput, EpochRunner, PartyPopulation, ProtocolError, WarmSet,
    WarmStart,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

const EPOCHS: u32 = 12;
const USERS: [usize; 3] = [40, 17, 64];

/// A mechanism stand-in whose population churns: at epoch 0 every slot is
/// fresh, afterwards each slot is independently fresh with probability
/// `churn`, drawn from a generator seeded by the epoch alone — so the
/// population is a pure function of the epoch, as the executor contract
/// requires.  Every enrollment mask it is handed is kept.
struct ChurnExec {
    churn: f64,
    masks: Vec<Vec<Vec<bool>>>,
}

impl EpochExecutor for ChurnExec {
    fn population(&mut self, epoch: u32) -> Result<Vec<PartyPopulation>, ProtocolError> {
        let mut rng = StdRng::seed_from_u64(0x1ED6_E500 ^ u64::from(epoch));
        Ok(USERS
            .iter()
            .map(|&users| PartyPopulation {
                users,
                fresh: (0..users)
                    .map(|_| epoch == 0 || rng.gen::<f64>() < self.churn)
                    .collect(),
            })
            .collect())
    }

    fn run_epoch(
        &mut self,
        epoch: u32,
        enrollment: &[Vec<bool>],
        _warm: Option<&WarmSet>,
    ) -> Result<EpochOutput, ProtocolError> {
        self.masks.push(enrollment.to_vec());
        Ok(EpochOutput {
            heavy_hitters: vec![u64::from(epoch)],
            counts: Vec::new(),
            uplink_bits: 0,
            downlink_bits: 0,
        })
    }
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fedhh-ledger-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// The masks a run enrolled, and the epoch it stopped at with
/// `BudgetExhausted` (if it did).
type Outcome = (Vec<Vec<Vec<bool>>>, Option<u32>);

fn stop(result: Result<(), ProtocolError>) -> Option<u32> {
    match result {
        Ok(()) => None,
        Err(ProtocolError::BudgetExhausted { epoch }) => Some(epoch),
        Err(other) => panic!("unexpected error {other}"),
    }
}

fn uninterrupted(config: EpochConfig, churn: f64) -> Outcome {
    let mut exec = ChurnExec {
        churn,
        masks: Vec::new(),
    };
    let mut runner = EpochRunner::new(config, vec![1]);
    let stopped = stop(runner.run(&mut exec));
    (exec.masks, stopped)
}

/// Runs one epoch at a time, saving, loading and resuming from the
/// checkpoint file between epochs, and checks the ledger after each epoch
/// against a shadow ledger kept here.
fn resumed_every_epoch(config: EpochConfig, churn: f64, path: &Path) -> Outcome {
    let mut exec = ChurnExec {
        churn,
        masks: Vec::new(),
    };
    let mut shadow: Vec<Vec<f64>> = USERS.iter().map(|&users| vec![0.0; users]).collect();
    let mut runner = EpochRunner::new(config, vec![1]);
    for epoch in 0..EPOCHS {
        let fresh = exec.population(epoch).unwrap();
        let expected: Vec<Vec<bool>> = shadow
            .iter_mut()
            .zip(&fresh)
            .map(|(spends, population)| {
                spends
                    .iter_mut()
                    .zip(&population.fresh)
                    .map(|(spent, &fresh)| {
                        if fresh {
                            *spent = 0.0;
                        }
                        let admitted = config
                            .epsilon_cap
                            .is_none_or(|cap| *spent + config.epsilon <= cap);
                        if admitted {
                            *spent += config.epsilon;
                        }
                        admitted
                    })
                    .collect()
            })
            .collect();
        match runner.step(&mut exec) {
            Ok(record) => assert!(record.is_some(), "epoch {epoch} ran nothing"),
            Err(err) => {
                assert_eq!(err, ProtocolError::BudgetExhausted { epoch });
                assert!(expected.iter().flatten().all(|&admitted| !admitted));
                return (exec.masks, Some(epoch));
            }
        }
        assert_eq!(exec.masks.last(), Some(&expected), "epoch {epoch} mask");
        let spent = runner.state().ledger.spent();
        for (party, spends) in spent.iter().enumerate() {
            for (user, spend) in spends.iter().enumerate() {
                assert_eq!(spend.to_bits(), shadow[party][user].to_bits());
                if let Some(cap) = config.epsilon_cap {
                    assert!(
                        *spend <= cap,
                        "party {party} user {user} spent {spend} > {cap}"
                    );
                }
            }
        }
        save(path, &runner.checkpoint()).unwrap();
        runner = EpochRunner::resume(config, vec![1], load(path).unwrap()).unwrap();
    }
    (exec.masks, None)
}

#[test]
fn ledger_enrolls_exactly_within_the_cap_across_churn_and_resume() {
    let path = temp_file("compose");
    // The "3ε" caps are written as decimals on purpose: the ledger compares
    // rounded f64 sums against the literal the operator typed.
    for (epsilon, three_epsilon) in [(0.1, 0.3), (0.7, 2.1), (4.0, 12.0)] {
        for cap in [None, Some(three_epsilon), Some(8.0)] {
            for churn in [0.0, 0.4] {
                let config = EpochConfig {
                    epochs: EPOCHS,
                    warm_start: WarmStart::Cold,
                    epsilon,
                    epsilon_cap: cap,
                };
                let what = format!("ε {epsilon}, cap {cap:?}, churn {churn}");
                let reference = uninterrupted(config, churn);
                let resumed = resumed_every_epoch(config, churn, &path);
                assert_eq!(resumed, reference, "{what}: resumed masks differ");
                if (epsilon, cap, churn) == (0.1, Some(0.3), 0.0) {
                    // The f64 edge `BudgetLedger` documents: 0.2 + 0.1 >
                    // 0.3, so this cap buys two epochs, not three, and
                    // without churn every user runs out at once.
                    let (masks, stopped) = reference;
                    assert_eq!(stopped, Some(2), "{what}");
                    assert!(masks.iter().flatten().flatten().all(|&enrolled| enrolled));
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
