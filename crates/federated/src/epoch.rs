//! The epoch service: running a mechanism continuously over a time-varying
//! population.
//!
//! Everything below `fedhh-federated` executes **one** heavy-hitter
//! discovery and exits.  A production service instead runs *epochs*: the
//! population churns and drifts between discoveries (see
//! `fedhh-datasets`'s `evolve` module), the candidate trie should be
//! maintained incrementally rather than rebuilt from the root, and the
//! per-user privacy spend accumulates across epochs and must be capped.
//! This module provides the mechanism-agnostic epoch loop:
//!
//! * [`EpochRunner`] — owns the cross-epoch state ([`EpochState`]) and
//!   drives an [`EpochExecutor`] one epoch at a time ([`EpochRunner::step`])
//!   or to completion ([`EpochRunner::run`]).
//! * [`BudgetLedger`] — per-user cumulative ε spend.  Before each epoch the
//!   ledger [`advances`](BudgetLedger::advance_population) to the epoch's
//!   population (fresh, churned-in users start at zero spend) and then
//!   [`enrolls`](BudgetLedger::enroll) exactly the users whose lifetime cap
//!   admits one more report; everyone else is refused and sits the epoch
//!   out.
//! * [`WarmStart`] — the incremental-trie axis.  Under
//!   [`WarmStart::Previous`] the runner carries epoch *e*'s surviving heavy
//!   hitters into epoch *e+1* as a [`WarmSet`], which the mechanisms graft
//!   into their candidate sets (`Run::warm_start` in `fedhh-core`) so
//!   persistent heavy items are never re-pruned; [`WarmStart::Cold`]
//!   rebuilds from the root every epoch, making the ablation measurable.
//!
//! The runner is deliberately decoupled from the mechanisms: this crate
//! sits *below* `fedhh-core` in the dependency graph, so the actual
//! dataset-building and mechanism execution is injected through the
//! [`EpochExecutor`] trait (implemented by `fedhh-bench`'s
//! `MechanismExecutor`).
//!
//! ## Determinism and crash recovery
//!
//! An executor must be a pure function of `(spec, epoch, enrollment,
//! warm)`: all of its randomness derives from seeds recorded in the spec
//! plus the epoch index.  Under that contract the entire service state is
//! captured by [`EpochState`] — epoch index, ledger, warm set and the
//! per-epoch records — which the [`crate::checkpoint`] module serializes
//! after every epoch.  Killing the coordinator at any point and resuming
//! from the last checkpoint ([`EpochRunner::resume`]) replays the
//! interrupted epoch from its start and produces records bit-identical to
//! an uninterrupted run (enforced by `tests/epochs.rs` and the
//! `epoch-smoke` CI job).

use crate::checkpoint::Checkpoint;
use crate::error::ProtocolError;
use fedhh_telemetry::{Gauge, SpanName, Telemetry};
use fedhh_wire::WireError;

/// How epoch *e+1*'s candidate trie relates to epoch *e*'s outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStart {
    /// Rebuild the trie from the root every epoch (the one-shot behaviour).
    Cold,
    /// Warm-start from the previous epoch's surviving heavy hitters.
    Previous,
}

impl WarmStart {
    /// Stable lowercase name (`"cold"` / `"previous"`).
    pub fn name(&self) -> &'static str {
        match self {
            WarmStart::Cold => "cold",
            WarmStart::Previous => "previous",
        }
    }

    /// Parses [`WarmStart::name`] output.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cold" => Some(WarmStart::Cold),
            "previous" => Some(WarmStart::Previous),
            _ => None,
        }
    }

    /// Stable wire tag (0 = cold, 1 = previous).
    pub fn tag(&self) -> u8 {
        match self {
            WarmStart::Cold => 0,
            WarmStart::Previous => 1,
        }
    }
}

/// The epoch loop's own parameters (the per-epoch mechanism parameters
/// live in the executor's spec).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochConfig {
    /// Number of epochs to run.
    pub epochs: u32,
    /// Incremental-trie axis.
    pub warm_start: WarmStart,
    /// ε spent by each enrolled user per epoch (every user reports exactly
    /// once per epoch, so the whole per-epoch budget goes to one report).
    pub epsilon: f64,
    /// Lifetime per-user ε cap; `None` disables budget refusal.
    pub epsilon_cap: Option<f64>,
}

/// One party's population at the head of an epoch, as reported by the
/// executor: the slot count and which slots hold fresh (churned-in) users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartyPopulation {
    /// Number of user slots.
    pub users: usize,
    /// `fresh[u]` — slot `u` holds a user who joined this epoch (their
    /// budget ledger entry resets to zero).
    pub fresh: Vec<bool>,
}

/// Per-user cumulative privacy spend, one `f64` per user slot per party.
///
/// The ledger is the service's privacy-accounting source of truth: a user
/// who has spent `s` is enrolled for an epoch costing ε only when
/// `s + ε ≤ cap` (exact `f64` comparison — deterministic, and checkpoints
/// carry the spends bit-exactly).  The comparison is on the rounded sums,
/// not on real numbers: at ε 0.1 under cap 0.3 a user gets two epochs, not
/// three, because `0.2 + 0.1` is `0.30000000000000004 > 0.3`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BudgetLedger {
    /// `spent[party][user]` — cumulative ε.
    spent: Vec<Vec<f64>>,
}

impl BudgetLedger {
    /// An empty ledger (no parties yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-party cumulative spends.
    pub fn spent(&self) -> &[Vec<f64>] {
        &self.spent
    }

    /// Replaces the ledger contents wholesale (checkpoint restore).
    pub fn restore(&mut self, spent: Vec<Vec<f64>>) {
        self.spent = spent;
    }

    /// Aligns the ledger with an epoch's population: parties and slots are
    /// resized (new slots start at zero) and fresh slots reset to zero —
    /// the churned-in user carries no predecessor's spend.
    pub fn advance_population(&mut self, populations: &[PartyPopulation]) {
        self.spent.resize(populations.len(), Vec::new());
        for (ledger, pop) in self.spent.iter_mut().zip(populations) {
            ledger.resize(pop.users, 0.0);
            for (slot, fresh) in ledger.iter_mut().zip(&pop.fresh) {
                if *fresh {
                    *slot = 0.0;
                }
            }
        }
    }

    /// Enrolls every user whose lifetime cap admits one more ε, charging
    /// the enrolled and refusing the rest.  Returns the per-party
    /// enrollment masks (`mask[party][user]`).
    pub fn enroll(&mut self, epsilon: f64, cap: Option<f64>) -> Vec<Vec<bool>> {
        self.spent
            .iter_mut()
            .map(|ledger| {
                ledger
                    .iter_mut()
                    .map(|spent| {
                        let admitted = cap.is_none_or(|cap| *spent + epsilon <= cap);
                        if admitted {
                            *spent += epsilon;
                        }
                        admitted
                    })
                    .collect()
            })
            .collect()
    }
}

/// The surviving heavy hitters carried from one epoch into the next.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmSet {
    /// Full item codes of the previous epoch's discovered heavy hitters.
    pub values: Vec<u64>,
}

/// What one epoch's mechanism execution produced, as returned by the
/// executor.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutput {
    /// The discovered top-k heavy hitter codes, in rank order.
    pub heavy_hitters: Vec<u64>,
    /// Estimated counts, `(code, estimate)`, in the mechanism's order.
    pub counts: Vec<(u64, f64)>,
    /// Total uplink communication, in bits.
    pub uplink_bits: u64,
    /// Total downlink communication, in bits.
    pub downlink_bits: u64,
}

/// The completed, checkpointable record of one epoch.
///
/// Count estimates are stored as raw `f64` bit patterns so that a record
/// round-tripped through a checkpoint compares bit-identical to the live
/// one — the property the resume-equivalence gate checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// The epoch index this record belongs to.
    pub epoch: u32,
    /// The discovered top-k heavy hitter codes, in rank order.
    pub heavy_hitters: Vec<u64>,
    /// `(code, estimate.to_bits())` pairs, in the mechanism's order.
    pub count_bits: Vec<(u64, u64)>,
    /// Total uplink communication, in bits.
    pub uplink_bits: u64,
    /// Total downlink communication, in bits.
    pub downlink_bits: u64,
    /// Users the ledger enrolled this epoch.
    pub enrolled_users: u64,
    /// Users the ledger refused (cap exhausted).
    pub refused_users: u64,
}

impl EpochRecord {
    /// The count estimates decoded back to `f64`.
    pub fn counts(&self) -> Vec<(u64, f64)> {
        self.count_bits
            .iter()
            .map(|(code, bits)| (*code, f64::from_bits(*bits)))
            .collect()
    }
}

/// The complete cross-epoch service state — everything a checkpoint must
/// capture to make a resumed run bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochState {
    /// The next epoch to run (== number of completed epochs).
    pub next_epoch: u32,
    /// Per-user cumulative privacy spend.
    pub ledger: BudgetLedger,
    /// The warm set carried into the next epoch (`None` under
    /// [`WarmStart::Cold`] or before the first epoch).
    pub warm: Option<WarmSet>,
    /// One record per completed epoch, in order.
    pub records: Vec<EpochRecord>,
}

/// The mechanism-side half of the epoch loop, injected into
/// [`EpochRunner`].
///
/// Implementations must be deterministic in `(spec, epoch, enrollment,
/// warm)` — every call with the same arguments must produce bit-identical
/// results, or checkpoint resume cannot reproduce an uninterrupted run.
pub trait EpochExecutor {
    /// The population at the head of `epoch`, per party.
    fn population(&mut self, epoch: u32) -> Result<Vec<PartyPopulation>, ProtocolError>;

    /// Runs the mechanism over `epoch`'s population restricted to the
    /// enrolled users, optionally warm-starting from `warm`.
    fn run_epoch(
        &mut self,
        epoch: u32,
        enrollment: &[Vec<bool>],
        warm: Option<&WarmSet>,
    ) -> Result<EpochOutput, ProtocolError>;
}

/// Drives an [`EpochExecutor`] across epochs, owning the [`EpochState`]
/// and (optionally) checkpointing it after every completed epoch.
#[derive(Debug)]
pub struct EpochRunner {
    config: EpochConfig,
    /// Opaque executor-spec bytes stored in the checkpoint so a resume can
    /// verify it reconstructs the same run.
    spec: Vec<u8>,
    state: EpochState,
    checkpoint_path: Option<std::path::PathBuf>,
    telemetry: Telemetry,
}

impl EpochRunner {
    /// A fresh runner. `spec` is the executor's encoded specification; it
    /// travels inside every checkpoint and is compared on resume.
    pub fn new(config: EpochConfig, spec: Vec<u8>) -> Self {
        Self {
            config,
            spec,
            state: EpochState::default(),
            checkpoint_path: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Resumes from a checkpoint, verifying the spec bytes match the run
    /// being reconstructed and that every ledger spend is finite and
    /// non-negative ([`ProtocolError::InvalidParameter`] otherwise): the
    /// codec carries any `f64` bit-exactly, but a negative spend would let
    /// the cap admit a user for extra epochs.
    pub fn resume(
        config: EpochConfig,
        spec: Vec<u8>,
        checkpoint: Checkpoint,
    ) -> Result<Self, ProtocolError> {
        if checkpoint.spec != spec {
            return Err(ProtocolError::Transport(WireError::Protocol {
                detail: format!(
                    "checkpoint was written by a different run: spec bytes differ \
                     ({} vs {} bytes)",
                    checkpoint.spec.len(),
                    spec.len()
                ),
            }));
        }
        for (party, spends) in checkpoint.state.ledger.spent().iter().enumerate() {
            let invalid = spends
                .iter()
                .position(|spent| !(spent.is_finite() && *spent >= 0.0));
            if let Some(user) = invalid {
                return Err(ProtocolError::invalid(
                    "ledger spend",
                    format!("be finite and non-negative for party {party} user {user}"),
                    spends[user],
                ));
            }
        }
        Ok(Self {
            config,
            spec,
            state: checkpoint.state,
            checkpoint_path: None,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry handle: each [`EpochRunner::step`] runs under
    /// an `epoch` span, the budget-ledger occupancy lands on the
    /// `budget.enrolled` / `budget.refused` gauges, and checkpoint writes
    /// are timed under `checkpoint.write`.  Observation only — never
    /// changes what `step` returns.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// Enables checkpointing: after every completed epoch the state is
    /// atomically written to `path` (see [`crate::checkpoint::save`]).
    pub fn checkpoint_to(&mut self, path: impl Into<std::path::PathBuf>) {
        self.checkpoint_path = Some(path.into());
    }

    /// The epoch-loop configuration.
    pub fn config(&self) -> &EpochConfig {
        &self.config
    }

    /// The current cross-epoch state.
    pub fn state(&self) -> &EpochState {
        &self.state
    }

    /// The completed epoch records, in order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.state.records
    }

    /// True once every configured epoch has completed.
    pub fn is_complete(&self) -> bool {
        self.state.next_epoch >= self.config.epochs
    }

    /// A checkpoint of the current state (spec + state, by value).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            spec: self.spec.clone(),
            state: self.state.clone(),
        }
    }

    /// Runs the next epoch, returning its record — or `None` when all
    /// epochs have completed.
    ///
    /// One step is: fetch the epoch's population → advance the ledger
    /// (fresh users reset) → enroll under the cap (zero enrollable users
    /// anywhere is [`ProtocolError::BudgetExhausted`]) → execute the
    /// mechanism → update the warm set → record → checkpoint (if enabled).
    pub fn step(
        &mut self,
        exec: &mut dyn EpochExecutor,
    ) -> Result<Option<&EpochRecord>, ProtocolError> {
        if self.is_complete() {
            return Ok(None);
        }
        let epoch = self.state.next_epoch;
        let _epoch_span = self.telemetry.span_idx(SpanName::Epoch, u64::from(epoch));
        let populations = exec.population(epoch)?;
        self.state.ledger.advance_population(&populations);
        let enrollment = self
            .state
            .ledger
            .enroll(self.config.epsilon, self.config.epsilon_cap);
        let enrolled: u64 = enrollment
            .iter()
            .map(|m| m.iter().filter(|&&e| e).count() as u64)
            .sum();
        let total: u64 = enrollment.iter().map(|m| m.len() as u64).sum();
        self.telemetry.set_gauge(Gauge::BudgetEnrolled, enrolled);
        self.telemetry
            .set_gauge(Gauge::BudgetRefused, total - enrolled);
        if enrolled == 0 {
            return Err(ProtocolError::BudgetExhausted { epoch });
        }
        let warm = match self.config.warm_start {
            WarmStart::Cold => None,
            WarmStart::Previous => self.state.warm.clone(),
        };
        let output = exec.run_epoch(epoch, &enrollment, warm.as_ref())?;
        if self.config.warm_start == WarmStart::Previous {
            self.state.warm = Some(WarmSet {
                values: output.heavy_hitters.clone(),
            });
        }
        self.state.records.push(EpochRecord {
            epoch,
            heavy_hitters: output.heavy_hitters,
            count_bits: output
                .counts
                .iter()
                .map(|(code, est)| (*code, est.to_bits()))
                .collect(),
            uplink_bits: output.uplink_bits,
            downlink_bits: output.downlink_bits,
            enrolled_users: enrolled,
            refused_users: total - enrolled,
        });
        self.state.next_epoch += 1;
        if let Some(path) = &self.checkpoint_path {
            // Lend the state to the writer instead of cloning it: the
            // ledger alone is one `f64` per user slot.
            let checkpoint = Checkpoint {
                spec: std::mem::take(&mut self.spec),
                state: std::mem::take(&mut self.state),
            };
            let saved = crate::checkpoint::save_traced(path, &checkpoint, &self.telemetry);
            self.spec = checkpoint.spec;
            self.state = checkpoint.state;
            saved?;
        }
        Ok(self.state.records.last())
    }

    /// Runs every remaining epoch to completion.
    pub fn run(&mut self, exec: &mut dyn EpochExecutor) -> Result<(), ProtocolError> {
        while self.step(exec)?.is_some() {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic fake mechanism: "discovers" codes derived from the
    /// epoch index and the enrolled-user count, so warm/ledger effects are
    /// visible in the output.
    struct FakeExec {
        users: usize,
        calls: Vec<(u32, u64, Option<WarmSet>)>,
    }

    impl FakeExec {
        fn new(users: usize) -> Self {
            Self {
                users,
                calls: Vec::new(),
            }
        }
    }

    impl EpochExecutor for FakeExec {
        fn population(&mut self, epoch: u32) -> Result<Vec<PartyPopulation>, ProtocolError> {
            // One party; nobody churns except at epoch 0 (everyone fresh).
            Ok(vec![PartyPopulation {
                users: self.users,
                fresh: vec![epoch == 0; self.users],
            }])
        }

        fn run_epoch(
            &mut self,
            epoch: u32,
            enrollment: &[Vec<bool>],
            warm: Option<&WarmSet>,
        ) -> Result<EpochOutput, ProtocolError> {
            let enrolled = enrollment[0].iter().filter(|&&e| e).count() as u64;
            self.calls.push((epoch, enrolled, warm.cloned()));
            Ok(EpochOutput {
                heavy_hitters: vec![epoch as u64 * 100, enrolled],
                counts: vec![(epoch as u64 * 100, enrolled as f64 + 0.5)],
                uplink_bits: 64 * enrolled,
                downlink_bits: 32,
            })
        }
    }

    fn config(epochs: u32, warm: WarmStart, cap: Option<f64>) -> EpochConfig {
        EpochConfig {
            epochs,
            warm_start: warm,
            epsilon: 1.0,
            epsilon_cap: cap,
        }
    }

    #[test]
    fn runs_every_epoch_and_records() {
        let mut exec = FakeExec::new(10);
        let mut runner = EpochRunner::new(config(3, WarmStart::Cold, None), vec![1, 2, 3]);
        runner.run(&mut exec).unwrap();
        assert!(runner.is_complete());
        assert_eq!(runner.records().len(), 3);
        assert_eq!(runner.records()[2].epoch, 2);
        assert_eq!(runner.records()[0].enrolled_users, 10);
        assert_eq!(runner.records()[0].counts()[0].1, 10.5);
        // Cold never passes a warm set.
        assert!(exec.calls.iter().all(|(_, _, warm)| warm.is_none()));
    }

    #[test]
    fn previous_mode_threads_the_warm_set() {
        let mut exec = FakeExec::new(4);
        let mut runner = EpochRunner::new(config(3, WarmStart::Previous, None), Vec::new());
        runner.run(&mut exec).unwrap();
        assert_eq!(exec.calls[0].2, None);
        assert_eq!(exec.calls[1].2, Some(WarmSet { values: vec![0, 4] }));
        assert_eq!(
            exec.calls[2].2,
            Some(WarmSet {
                values: vec![100, 4]
            })
        );
    }

    #[test]
    fn ledger_refuses_over_cap_users_and_exhausts() {
        let mut exec = FakeExec::new(5);
        // Cap of 2ε: epochs 0 and 1 enroll everyone, epoch 2 nobody.
        let mut runner = EpochRunner::new(config(5, WarmStart::Cold, Some(2.0)), Vec::new());
        let err = runner.run(&mut exec).unwrap_err();
        assert_eq!(err, ProtocolError::BudgetExhausted { epoch: 2 });
        assert_eq!(runner.records().len(), 2);
        assert_eq!(runner.records()[1].enrolled_users, 5);
        assert_eq!(runner.records()[1].refused_users, 0);
    }

    #[test]
    fn fresh_users_reset_their_spend() {
        struct ChurnExec;
        impl EpochExecutor for ChurnExec {
            fn population(&mut self, epoch: u32) -> Result<Vec<PartyPopulation>, ProtocolError> {
                // Slot 0 churns every epoch after the first; slot 1 never.
                Ok(vec![PartyPopulation {
                    users: 2,
                    fresh: vec![epoch > 0, false],
                }])
            }
            fn run_epoch(
                &mut self,
                _epoch: u32,
                enrollment: &[Vec<bool>],
                _warm: Option<&WarmSet>,
            ) -> Result<EpochOutput, ProtocolError> {
                let enrolled = enrollment[0].iter().filter(|&&e| e).count() as u64;
                Ok(EpochOutput {
                    heavy_hitters: vec![enrolled],
                    counts: Vec::new(),
                    uplink_bits: 0,
                    downlink_bits: 0,
                })
            }
        }
        let mut runner = EpochRunner::new(config(4, WarmStart::Cold, Some(2.0)), Vec::new());
        runner.run(&mut ChurnExec).unwrap();
        // Slot 1 is refused from epoch 2 on; slot 0 churns fresh every epoch
        // and is always enrolled.
        let enrolled: Vec<u64> = runner.records().iter().map(|r| r.enrolled_users).collect();
        assert_eq!(enrolled, vec![2, 2, 1, 1]);
        let refused: Vec<u64> = runner.records().iter().map(|r| r.refused_users).collect();
        assert_eq!(refused, vec![0, 0, 1, 1]);
    }

    #[test]
    fn step_resume_equivalence_with_fake_executor() {
        let cfg = config(4, WarmStart::Previous, Some(10.0));
        let mut exec_a = FakeExec::new(6);
        let mut reference = EpochRunner::new(cfg, vec![9]);
        reference.run(&mut exec_a).unwrap();

        for split in 0..4u32 {
            let mut exec_b = FakeExec::new(6);
            let mut first = EpochRunner::new(cfg, vec![9]);
            for _ in 0..split {
                first.step(&mut exec_b).unwrap();
            }
            let ckpt = first.checkpoint();
            // A fresh executor after the "crash".
            let mut exec_c = FakeExec::new(6);
            let mut resumed = EpochRunner::resume(cfg, vec![9], ckpt).unwrap();
            // Resumed executors replay the epochs they skipped? No — the
            // state carries everything; only remaining epochs run.
            resumed.run(&mut exec_c).unwrap();
            assert_eq!(resumed.records(), reference.records(), "split {split}");
        }
    }

    #[test]
    fn resume_rejects_foreign_spec() {
        let runner = EpochRunner::new(config(1, WarmStart::Cold, None), vec![1]);
        let ckpt = runner.checkpoint();
        let err = EpochRunner::resume(config(1, WarmStart::Cold, None), vec![2], ckpt).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Transport(WireError::Protocol { .. })
        ));
    }

    /// A checkpoint file with a valid CRC can still carry a ledger no run
    /// writes.  A spend of −8 at ε 4 under cap 8 would admit the user for
    /// four more epochs (16 ε in all) instead of two, so resume refuses it,
    /// and NaN and ±∞ alike.
    #[test]
    fn resume_rejects_negative_or_non_finite_ledger_spends() {
        let cfg = EpochConfig {
            epochs: 6,
            warm_start: WarmStart::Cold,
            epsilon: 4.0,
            epsilon_cap: Some(8.0),
        };
        let path = std::env::temp_dir().join(format!("fedhh-ckpt-ledger-{}", std::process::id()));
        for bad in [-8.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut state = EpochState {
                next_epoch: 1,
                ..EpochState::default()
            };
            state.ledger.restore(vec![vec![4.0, bad]]);
            let spec = vec![7];
            crate::checkpoint::save(&path, &Checkpoint { spec, state }).unwrap();
            let loaded = crate::checkpoint::load(&path).unwrap();
            let err = EpochRunner::resume(cfg, vec![7], loaded).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtocolError::InvalidParameter {
                        name: "ledger spend",
                        ..
                    }
                ),
                "{bad}: {err:?}"
            );
            assert_eq!(
                err.to_string(),
                format!(
                    "ledger spend must be finite and non-negative for party 0 user 1, got {bad}"
                )
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_start_round_trips_names_and_tags() {
        for warm in [WarmStart::Cold, WarmStart::Previous] {
            assert_eq!(WarmStart::parse(warm.name()), Some(warm));
        }
        assert_eq!(WarmStart::parse("lukewarm"), None);
        assert_eq!(WarmStart::Cold.tag(), 0);
        assert_eq!(WarmStart::Previous.tag(), 1);
    }
}
