//! The `fedhh-bench epochs` subsystem: the epoch service measured over a
//! churning, drifting population.
//!
//! This module is the mechanism-side half of the epoch service
//! (`fedhh_federated::epoch`): [`MechanismExecutor`] implements
//! [`EpochExecutor`] by rebuilding each epoch's population from a
//! [`PopulationEvolver`], restricting it to the ledger-enrolled users, and
//! executing the configured mechanism through the `Run` builder (with the
//! previous epoch's heavy hitters grafted in under
//! [`WarmStart::Previous`]).  Everything derives from the
//! [`EpochServiceSpec`] — a wire-encodable value that travels inside every
//! checkpoint, so a resumed service provably reconstructs the same run.
//!
//! [`run_epochs`] is the benchmark entry point: it runs the same evolving
//! population twice, once per [`WarmStart`] arm, and scores every epoch
//! against that epoch's exact ground truth — the cold-vs-previous
//! incremental-trie ablation under churn and drift.
//!
//! ## `BENCH_epochs.json` schema (version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "dataset": "RDB",
//!   "mechanism": "TAPS",
//!   "epochs": 3,
//!   "churn_fraction": 0.2,
//!   "drift_stride": 2,
//!   "epsilon": 4.0,
//!   "epsilon_cap": null,
//!   "arms": [
//!     {
//!       "warm_start": "cold",
//!       "points": [
//!         {"epoch": 0, "f1": 0.8, "ncr": 0.9, "uplink_bits": 123456,
//!          "enrolled_users": 7056, "refused_users": 0}
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! * `schema` — format version (currently 1).
//! * `dataset` / `mechanism` — the measured workload.
//! * `epochs` / `churn_fraction` / `drift_stride` — the evolution plan.
//! * `epsilon` — per-epoch ε each enrolled user spends; `epsilon_cap` —
//!   the lifetime per-user cap (`null` = unlimited).
//! * `arms` — one entry per [`WarmStart`] mode (`"cold"`, `"previous"`),
//!   each with one point per completed epoch.
//! * `f1` / `ncr` — scored against *that epoch's* exact federated top-k
//!   (the ground truth moves with the drift).
//! * `enrolled_users` / `refused_users` — the budget ledger's per-epoch
//!   admission split.
//!
//! The arms nest one level down, each point one inline object:
//!
//! ```
//! use fedhh_bench::epochs::{EpochArm, EpochPoint, EpochsReport};
//!
//! let arm = EpochArm {
//!     warm_start: "cold".to_string(),
//!     points: vec![EpochPoint::default()],
//! };
//! let report = EpochsReport {
//!     arms: vec![arm],
//!     ..EpochsReport::default()
//! };
//! let json = report.to_json();
//! assert!(json.contains("  \"epsilon_cap\": null,\n  \"arms\": [\n    {\n      \"warm_start\": \"cold\",\n"));
//! assert!(json.contains(
//!     r#"        {"epoch": 0, "f1": 0, "ncr": 0, "uplink_bits": 0, "enrolled_users": 0, "refused_users": 0}"#
//! ));
//! ```

use crate::json::Fmt;
use crate::nodespec::NodeRunSpec;
use crate::report::{self, column, Column, Row, Shown, SCHEMA};
use fedhh_datasets::{
    DatasetConfig, DatasetKind, EvolutionPlan, FederatedDataset, InvalidDatasetConfig, PartyData,
    PopulationEvolver,
};
use fedhh_federated::{
    EngineConfig, EpochConfig, EpochExecutor, EpochOutput, EpochRunner, PartyPopulation,
    ProtocolConfig, ProtocolError, WarmSet, WarmStart,
};
use fedhh_mechanisms::{MechanismKind, Run};
use fedhh_metrics::{f1_score, ncr_score};
use fedhh_wire::{put_f64, put_u64_fixed, to_bytes, Encode};

/// Everything that defines one epoch-service run: the mechanism, the base
/// dataset generator, the evolution plan and the epoch-loop parameters.
///
/// The spec is wire-encodable ([`EpochServiceSpec::to_spec_bytes`]) and
/// stored inside every checkpoint; on `--resume` the service re-derives
/// its spec from the CLI flags and the [`EpochRunner`] refuses checkpoints
/// whose embedded spec bytes differ — a resumed run provably reconstructs
/// the interrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochServiceSpec {
    /// The mechanism every epoch executes.
    pub mechanism: MechanismKind,
    /// The base dataset group (epoch 0's population).
    pub dataset: DatasetKind,
    /// The deterministic base-dataset generator parameters.
    pub dataset_config: DatasetConfig,
    /// Churn/drift between epochs.
    pub plan: EvolutionPlan,
    /// Number of epochs to run.
    pub epochs: u32,
    /// Incremental-trie axis (cold rebuild vs warm start).
    pub warm_start: WarmStart,
    /// ε each enrolled user spends per epoch.
    pub epsilon: f64,
    /// Lifetime per-user ε cap (`None` = unlimited).
    pub epsilon_cap: Option<f64>,
    /// Top-k of every epoch's query.
    pub k: usize,
    /// Base protocol seed; each epoch derives its own run seed from it.
    pub protocol_seed: u64,
    /// Use the reduced quick protocol shape (16-bit codes, 8 levels).
    pub quick: bool,
}

impl EpochServiceSpec {
    /// The epoch-loop half of the spec.
    pub fn epoch_config(&self) -> EpochConfig {
        EpochConfig {
            epochs: self.epochs,
            warm_start: self.warm_start,
            epsilon: self.epsilon,
            epsilon_cap: self.epsilon_cap,
        }
    }

    /// The protocol configuration of epoch `epoch`.  The run seed advances
    /// deterministically with the epoch index, so every epoch draws fresh —
    /// but replayable — noise.
    pub fn protocol_config(&self, epoch: u32) -> ProtocolConfig {
        let base = if self.quick {
            ProtocolConfig::test_default()
        } else {
            ProtocolConfig::default()
        };
        ProtocolConfig {
            k: self.k,
            epsilon: self.epsilon,
            max_bits: self.dataset_config.code_bits,
            seed: self
                .protocol_seed
                .wrapping_add((epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..base
        }
    }

    /// Builds the population evolver this spec describes (deterministic:
    /// every call yields a bit-identical population history).  An invalid
    /// dataset configuration or evolution plan is refused before the base
    /// dataset is built.
    pub fn build_evolver(&self) -> Result<PopulationEvolver, InvalidDatasetConfig> {
        self.dataset_config.validate()?;
        self.plan.validate()?;
        Ok(PopulationEvolver::new(
            self.dataset_config.build(self.dataset),
            self.plan,
        ))
    }

    /// Encodes the spec into checkpoint spec bytes.  The encoding is
    /// injective, so [`EpochRunner::resume`] can tell two specs apart by
    /// their bytes alone.
    pub fn to_spec_bytes(&self) -> Vec<u8> {
        to_bytes(self)
    }
}

impl Encode for EpochServiceSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        // The run half is a node run spec's bytes: one encoding of
        // mechanism, dataset and generator parameters.
        NodeRunSpec {
            mechanism: self.mechanism,
            dataset: self.dataset,
            dataset_config: self.dataset_config,
        }
        .encode(out);
        put_f64(out, self.plan.churn_fraction);
        self.plan.drift_stride.encode(out);
        put_u64_fixed(out, self.plan.seed);
        self.epochs.encode(out);
        self.warm_start.tag().encode(out);
        put_f64(out, self.epsilon);
        match self.epsilon_cap {
            None => 0u8.encode(out),
            Some(cap) => {
                1u8.encode(out);
                put_f64(out, cap);
            }
        }
        self.k.encode(out);
        put_u64_fixed(out, self.protocol_seed);
        u8::from(self.quick).encode(out);
    }
}

/// The mechanism-side [`EpochExecutor`]: rebuilds each epoch's population,
/// restricts it to the enrolled users and executes the spec's mechanism.
///
/// The executor is a pure function of `(spec, epoch, enrollment, warm)` —
/// the contract the epoch service's crash-recovery guarantee rests on.
/// The engine's parallelism is explicitly *not* part of the spec because
/// the engine is bit-identical at any worker count.
#[derive(Debug)]
pub struct MechanismExecutor {
    spec: EpochServiceSpec,
    evolver: PopulationEvolver,
    engine: EngineConfig,
}

impl MechanismExecutor {
    /// Prepares an executor for `spec` (builds the base dataset once), or
    /// refuses an invalid spec before building anything.
    pub fn new(spec: EpochServiceSpec) -> Result<Self, InvalidDatasetConfig> {
        let evolver = spec.build_evolver()?;
        Ok(Self {
            spec,
            evolver,
            engine: EngineConfig::from_env(),
        })
    }

    /// Replaces the engine configuration (parallelism; results are
    /// bit-identical at any worker count).
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The spec this executor runs.
    pub fn spec(&self) -> &EpochServiceSpec {
        &self.spec
    }

    /// The population evolver (for scoring epochs against their exact
    /// ground truth).
    pub fn evolver(&self) -> &PopulationEvolver {
        &self.evolver
    }

    /// The exact federated top-`k` of epoch `epoch`'s *full* population —
    /// the service answers for everyone, so accuracy is scored against the
    /// whole epoch, not just the enrolled subset.
    pub fn ground_truth(&self, epoch: u32, k: usize) -> Vec<u64> {
        self.evolver.epoch(epoch).ground_truth_top_k(k)
    }
}

impl EpochExecutor for MechanismExecutor {
    fn population(&mut self, epoch: u32) -> Result<Vec<PartyPopulation>, ProtocolError> {
        Ok((0..self.evolver.base().party_count())
            .map(|p| PartyPopulation {
                users: self.evolver.base().parties()[p].user_count(),
                fresh: self.evolver.fresh_mask(epoch, p),
            })
            .collect())
    }

    fn run_epoch(
        &mut self,
        epoch: u32,
        enrollment: &[Vec<bool>],
        warm: Option<&WarmSet>,
    ) -> Result<EpochOutput, ProtocolError> {
        let full = self.evolver.epoch(epoch);
        // Restrict each party to its ledger-enrolled slots: refused users
        // sit the epoch out entirely (no report, no budget spend).
        let parties: Vec<PartyData> = full
            .parties()
            .iter()
            .enumerate()
            .map(|(p, party)| {
                let mask = enrollment.get(p);
                // Filters in place: `collect` reuses the materialized vector.
                let kept: Vec<u64> = party
                    .stream()
                    .materialize()
                    .into_iter()
                    .enumerate()
                    .filter(|(u, _)| mask.is_none_or(|m| m.get(*u).copied().unwrap_or(false)))
                    .map(|(_, item)| item)
                    .collect();
                PartyData::new(party.name(), kept, party.code_bits())
            })
            .collect();
        let dataset = FederatedDataset::new(
            full.name().to_string(),
            parties,
            full.code_bits(),
            *full.encoder(),
        );
        let mut run = Run::mechanism(self.spec.mechanism)
            .dataset(&dataset)
            .config(self.spec.protocol_config(epoch))
            .engine(self.engine);
        if let Some(warm) = warm {
            run = run.warm_start(warm.values.clone());
        }
        let output = run.execute()?;
        // `MechanismOutput::counts` is a HashMap (unordered); the epoch
        // record must be deterministic, so sort by code.
        let mut counts: Vec<(u64, f64)> = output.counts.into_iter().collect();
        counts.sort_by_key(|(code, _)| *code);
        Ok(EpochOutput {
            heavy_hitters: output.heavy_hitters,
            counts,
            uplink_bits: output.comm.total_uplink_bits() as u64,
            downlink_bits: output.comm.total_downlink_bits() as u64,
        })
    }
}

/// What an epochs benchmark runs.
#[derive(Debug, Clone)]
pub struct EpochsOptions {
    /// The mechanism to run every epoch (default TAPS).
    pub mechanism: MechanismKind,
    /// The base dataset group (default RDB).
    pub dataset: DatasetKind,
    /// Number of epochs per arm.
    pub epochs: u32,
    /// Fraction of user slots churned per epoch.
    pub churn_fraction: f64,
    /// Popularity-drift stride per epoch.
    pub drift_stride: usize,
    /// ε each enrolled user spends per epoch.
    pub epsilon: f64,
    /// Lifetime per-user ε cap (`None` = unlimited).
    pub epsilon_cap: Option<f64>,
    /// Top-k of every epoch's query.
    pub k: usize,
    /// Seed driving the dataset, the evolution and the protocol.
    pub seed: u64,
    /// Use the reduced quick shape (16-bit codes, small populations).
    pub quick: bool,
    /// Multiplier on the paper's user populations.
    pub user_scale: f64,
    /// Engine worker threads per round.
    pub parallelism: usize,
}

impl EpochsOptions {
    /// The default full benchmark: TAPS on RDB, five epochs under
    /// moderate churn and drift.
    pub fn full() -> Self {
        Self {
            mechanism: MechanismKind::Taps,
            dataset: DatasetKind::Rdb,
            epochs: 5,
            churn_fraction: 0.2,
            drift_stride: 2,
            epsilon: 4.0,
            epsilon_cap: None,
            k: 10,
            seed: 42,
            quick: false,
            user_scale: 0.05,
            parallelism: 1,
        }
    }

    /// The reduced benchmark CI's `epoch-smoke` job runs.
    pub fn quick() -> Self {
        Self {
            epochs: 3,
            k: 5,
            quick: true,
            user_scale: 0.02,
            ..Self::full()
        }
    }

    /// The service spec of this benchmark's `warm` arm.
    pub fn spec(&self, warm_start: WarmStart) -> EpochServiceSpec {
        let dataset_config = if self.quick {
            DatasetConfig {
                user_scale: self.user_scale,
                item_scale: 0.02,
                code_bits: 16,
                syn_beta: 0.5,
                seed: self.seed,
            }
        } else {
            DatasetConfig {
                user_scale: self.user_scale,
                seed: self.seed,
                ..DatasetConfig::paper_scale()
            }
        };
        EpochServiceSpec {
            mechanism: self.mechanism,
            dataset: self.dataset,
            dataset_config,
            plan: EvolutionPlan {
                churn_fraction: self.churn_fraction,
                drift_stride: self.drift_stride,
                seed: self.seed ^ 0xE70C_A11E,
            },
            epochs: self.epochs,
            warm_start,
            epsilon: self.epsilon,
            epsilon_cap: self.epsilon_cap,
            k: self.k,
            protocol_seed: self.seed ^ 0xBEEF,
            quick: self.quick,
        }
    }
}

/// One epoch of one warm-start arm, scored against that epoch's exact
/// ground truth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochPoint {
    /// The epoch index.
    pub epoch: u32,
    /// F1 against the epoch's exact federated top-k.
    pub f1: f64,
    /// NCR against the epoch's exact federated top-k.
    pub ncr: f64,
    /// Party → server traffic of the epoch, in bits.
    pub uplink_bits: u64,
    /// Users the budget ledger enrolled.
    pub enrolled_users: u64,
    /// Users the budget ledger refused (cap exhausted).
    pub refused_users: u64,
}

/// One warm-start arm: the mode name and its per-epoch points.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochArm {
    /// `"cold"` or `"previous"` ([`WarmStart::name`]).
    pub warm_start: String,
    /// One point per completed epoch, in order.
    pub points: Vec<EpochPoint>,
}

/// A whole epochs benchmark: the workload identity, the evolution plan and
/// one arm per [`WarmStart`] mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochsReport {
    /// Schema version of the JSON serialization (currently 1).
    pub schema: u32,
    /// The base dataset group.
    pub dataset: String,
    /// The executed mechanism.
    pub mechanism: String,
    /// Epochs per arm.
    pub epochs: u32,
    /// Fraction of user slots churned per epoch.
    pub churn_fraction: f64,
    /// Popularity-drift stride per epoch.
    pub drift_stride: usize,
    /// ε spent per enrolled user per epoch.
    pub epsilon: f64,
    /// Lifetime per-user ε cap (`None` = unlimited).
    pub epsilon_cap: Option<f64>,
    /// One arm per warm-start mode, cold first.
    pub arms: Vec<EpochArm>,
}

impl Row for EpochPoint {
    type Report = EpochsReport;
    const NAME: &'static str = "epochs";
    const HEAD: &'static [Column<EpochsReport>] = &[
        column!(dataset, "", Info),
        column!(mechanism, "", Info),
        column!(epochs, "", Info),
        column!(churn_fraction, "", Info),
        column!(drift_stride, "", Info),
        column!(epsilon, "", Info),
        column!(epsilon_cap, "", Info),
    ];
    const ROWS: &'static str = "points";
    const COLUMNS: &'static [Column<Self>] = &[
        column!(epoch, "epoch", Key),
        column!(f1, "F1", Info, Fmt::Shortest, Shown::Fixed(3)),
        column!(ncr, "NCR", Info, Fmt::Shortest, Shown::Fixed(3)),
        column!(
            uplink_bits,
            "uplink kb",
            Info,
            Fmt::Shortest,
            Shown::Per(1000.0, 1)
        ),
        column!(enrolled_users, "enrolled", Info),
        column!(refused_users, "refused", Info),
    ];
    const NESTING: Option<(&'static str, &'static str, &'static str)> =
        Some(("arms", "warm_start", "warm"));
    fn title(report: &EpochsReport) -> String {
        format!(
            "fedhh epoch sweep ({} on {}, churn {:.2}, drift {})",
            report.mechanism, report.dataset, report.churn_fraction, report.drift_stride
        )
    }
    fn groups(report: &EpochsReport) -> Vec<(&str, &[Self])> {
        let arms = report.arms.iter();
        arms.map(|arm| (arm.warm_start.as_str(), arm.points.as_slice()))
            .collect()
    }
}

impl EpochsReport {
    /// Renders the report as an aligned plain-text table.
    pub fn to_table(&self) -> String {
        report::to_table::<EpochPoint>(self)
    }

    /// Serializes the report as schema-1 JSON.
    pub fn to_json(&self) -> String {
        report::to_json::<EpochPoint>(self)
    }
}

/// Scores a slice of epoch records against their epochs' exact ground
/// truths.
fn score_records(
    exec: &MechanismExecutor,
    records: &[fedhh_federated::EpochRecord],
    k: usize,
) -> Vec<EpochPoint> {
    records
        .iter()
        .map(|r| {
            let truth = exec.ground_truth(r.epoch, k);
            EpochPoint {
                epoch: r.epoch,
                f1: f1_score(&truth, &r.heavy_hitters),
                ncr: ncr_score(&truth, &r.heavy_hitters),
                uplink_bits: r.uplink_bits,
                enrolled_users: r.enrolled_users,
                refused_users: r.refused_users,
            }
        })
        .collect()
}

/// Runs the epochs benchmark: the same evolving population through both
/// [`WarmStart`] arms, each epoch scored against its exact ground truth.
pub fn run_epochs(options: &EpochsOptions) -> Result<EpochsReport, String> {
    let mut arms = Vec::new();
    for warm_start in [WarmStart::Cold, WarmStart::Previous] {
        let spec = options.spec(warm_start);
        let spec_bytes = spec.to_spec_bytes();
        let epoch_config = spec.epoch_config();
        let mut exec = MechanismExecutor::new(spec)
            .map_err(|err| err.to_string())?
            .with_engine(EngineConfig::parallel(options.parallelism.max(1)));
        let mut runner = EpochRunner::new(epoch_config, spec_bytes);
        runner
            .run(&mut exec)
            .map_err(|e| format!("epochs arm {} failed: {e}", warm_start.name()))?;
        let points = score_records(&exec, runner.records(), options.k);
        eprintln!(
            "[fedhh-bench] epochs arm {}: {} epochs, final F1 {:.3}",
            warm_start.name(),
            points.len(),
            points.last().map_or(0.0, |p| p.f1)
        );
        arms.push(EpochArm {
            warm_start: warm_start.name().to_string(),
            points,
        });
    }
    Ok(EpochsReport {
        schema: SCHEMA,
        dataset: options.dataset.name().to_string(),
        mechanism: options.mechanism.name().to_string(),
        epochs: options.epochs,
        churn_fraction: options.churn_fraction,
        drift_stride: options.drift_stride,
        epsilon: options.epsilon,
        epsilon_cap: options.epsilon_cap,
        arms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhh_federated::{Checkpoint, EpochState};
    use fedhh_wire::WireError;

    fn tiny_options() -> EpochsOptions {
        EpochsOptions {
            epochs: 2,
            user_scale: 0.005,
            ..EpochsOptions::quick()
        }
    }

    /// `EpochRunner::resume` tells runs apart by their spec bytes alone, so
    /// changing any one field of the spec must change its bytes.
    #[test]
    fn every_spec_field_changes_the_spec_bytes() {
        let base = tiny_options().spec(WarmStart::Cold);
        // Naming every field here makes a new one a compile error until it
        // joins the table below.
        let EpochServiceSpec {
            mechanism: _,
            dataset: _,
            dataset_config:
                DatasetConfig {
                    user_scale: _,
                    item_scale: _,
                    code_bits: _,
                    syn_beta: _,
                    seed: _,
                },
            plan:
                EvolutionPlan {
                    churn_fraction: _,
                    drift_stride: _,
                    seed: _,
                },
            epochs: _,
            warm_start: _,
            epsilon: _,
            epsilon_cap: _,
            k: _,
            protocol_seed: _,
            quick: _,
        } = base.clone();
        assert_eq!(base.epsilon_cap, None);
        type Change = fn(&mut EpochServiceSpec);
        let changes: [(&str, Change); 18] = [
            ("mechanism", |s| {
                s.mechanism = MechanismKind::ALL
                    .into_iter()
                    .find(|m| *m != s.mechanism)
                    .unwrap()
            }),
            ("dataset", |s| {
                s.dataset = DatasetKind::ALL
                    .into_iter()
                    .find(|d| *d != s.dataset)
                    .unwrap()
            }),
            ("user_scale", |s| s.dataset_config.user_scale *= 2.0),
            ("item_scale", |s| s.dataset_config.item_scale *= 2.0),
            ("code_bits", |s| s.dataset_config.code_bits += 2),
            ("syn_beta", |s| s.dataset_config.syn_beta *= 2.0),
            ("dataset seed", |s| s.dataset_config.seed ^= 1),
            ("churn_fraction", |s| s.plan.churn_fraction /= 2.0),
            ("drift_stride", |s| s.plan.drift_stride += 1),
            ("plan seed", |s| s.plan.seed ^= 1),
            ("epochs", |s| s.epochs += 1),
            ("warm_start", |s| s.warm_start = WarmStart::Previous),
            ("epsilon", |s| s.epsilon *= 2.0),
            ("epsilon_cap Some", |s| s.epsilon_cap = Some(12.5)),
            ("epsilon_cap value", |s| s.epsilon_cap = Some(25.0)),
            ("k", |s| s.k += 1),
            ("protocol_seed", |s| s.protocol_seed ^= 1),
            ("quick", |s| s.quick = !s.quick),
        ];
        let mut seen = vec![base.to_spec_bytes()];
        for (field, change) in &changes {
            let mut spec = base.clone();
            change(&mut spec);
            assert_ne!(spec, base, "{field}: the change left the spec as it was");
            let bytes = spec.to_spec_bytes();
            assert!(!seen.contains(&bytes), "{field}: spec bytes collide");
            seen.push(bytes);
        }
    }

    /// The quick service spec's bytes, as checkpoints of earlier builds
    /// embed them: a resume compares spec bytes, so moving any byte here
    /// orphans every checkpoint already written.
    #[test]
    fn quick_spec_bytes_match_the_pinned_bytes() {
        let bytes = EpochsOptions::quick()
            .spec(WarmStart::Previous)
            .to_spec_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "0454415053035244427b14ae47e17a943f7b14ae47e17a943f10000000000000\
             e03f2a000000000000009a9999999999c93f0234a10ce7000000000301000000\
             00000010400005c5be00000000000001"
        );
    }

    /// A checkpoint written under one spec is refused, with the typed
    /// spec-mismatch error, by a resume under a spec that differs only in
    /// a dataset parameter.
    #[test]
    fn resume_refuses_a_checkpoint_of_another_syn_beta() {
        let written = tiny_options().spec(WarmStart::Cold);
        let checkpoint = || Checkpoint {
            spec: written.to_spec_bytes(),
            state: EpochState::default(),
        };
        assert!(EpochRunner::resume(
            written.epoch_config(),
            written.to_spec_bytes(),
            checkpoint()
        )
        .is_ok());
        let mut resumed = written.clone();
        resumed.dataset_config.syn_beta *= 2.0;
        let err = EpochRunner::resume(
            resumed.epoch_config(),
            resumed.to_spec_bytes(),
            checkpoint(),
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                ProtocolError::Transport(WireError::Protocol { detail })
                    if detail.contains("spec bytes differ")
            ),
            "{err}"
        );
    }

    #[test]
    fn the_executor_replays_epochs_bit_identically() {
        let spec = tiny_options().spec(WarmStart::Cold);
        let mut a = MechanismExecutor::new(spec.clone()).unwrap();
        let mut b = MechanismExecutor::new(spec).unwrap();
        for epoch in 0..2u32 {
            let pop = a.population(epoch).unwrap();
            assert_eq!(pop, b.population(epoch).unwrap());
            let enrollment: Vec<Vec<bool>> = pop.iter().map(|p| vec![true; p.users]).collect();
            let out_a = a.run_epoch(epoch, &enrollment, None).unwrap();
            let out_b = b.run_epoch(epoch, &enrollment, None).unwrap();
            assert_eq!(out_a, out_b, "epoch {epoch}");
        }
    }

    #[test]
    fn enrollment_masks_shrink_the_population() {
        let spec = tiny_options().spec(WarmStart::Cold);
        let mut exec = MechanismExecutor::new(spec).unwrap();
        let pop = exec.population(0).unwrap();
        // Enroll only every other user: uplink must drop versus everyone.
        let all: Vec<Vec<bool>> = pop.iter().map(|p| vec![true; p.users]).collect();
        let half: Vec<Vec<bool>> = pop
            .iter()
            .map(|p| (0..p.users).map(|u| u % 2 == 0).collect())
            .collect();
        let full = exec.run_epoch(0, &all, None).unwrap();
        let reduced = exec.run_epoch(0, &half, None).unwrap();
        assert!(reduced.uplink_bits < full.uplink_bits);
    }

    #[test]
    fn run_epochs_produces_both_arms() {
        let report = run_epochs(&tiny_options()).unwrap();
        assert_eq!(report.schema, 1);
        assert_eq!(report.arms.len(), 2);
        assert_eq!(report.arms[0].warm_start, "cold");
        assert_eq!(report.arms[1].warm_start, "previous");
        for arm in &report.arms {
            assert_eq!(arm.points.len(), 2);
            for p in &arm.points {
                assert!((0.0..=1.0).contains(&p.f1));
                assert!((0.0..=1.0).contains(&p.ncr));
                assert!(p.uplink_bits > 0);
                assert!(p.enrolled_users > 0);
                assert_eq!(p.refused_users, 0);
            }
        }
        let table = report.to_table();
        assert!(table.contains("cold"));
        assert!(table.contains("previous"));
    }

    #[test]
    fn to_json_matches_the_pinned_bytes() {
        // Two arms, a capped and an uncapped head, shortest-round-trip floats.
        let mut report = run_report_stub();
        report.dataset = "R\"D\"B".to_string();
        report.churn_fraction = 0.1 + 0.2;
        report.arms.push(EpochArm {
            warm_start: "previous".to_string(),
            points: vec![
                EpochPoint {
                    epoch: 0,
                    f1: 1.0,
                    ncr: 1.0 / 3.0,
                    uplink_bits: 100,
                    enrolled_users: 15,
                    refused_users: 0,
                },
                EpochPoint {
                    epoch: 1,
                    f1: 0.0,
                    ncr: 1e-7,
                    uplink_bits: 0,
                    enrolled_users: 0,
                    refused_users: 15,
                },
            ],
        });
        assert_eq!(
            report.to_json(),
            r#"{
  "schema": 1,
  "dataset": "R\"D\"B",
  "mechanism": "TAPS",
  "epochs": 1,
  "churn_fraction": 0.30000000000000004,
  "drift_stride": 2,
  "epsilon": 4,
  "epsilon_cap": 8,
  "arms": [
    {
      "warm_start": "cold",
      "points": [
        {"epoch": 0, "f1": 0.5, "ncr": 0.25, "uplink_bits": 99, "enrolled_users": 12, "refused_users": 3}
      ]
    },
    {
      "warm_start": "previous",
      "points": [
        {"epoch": 0, "f1": 1, "ncr": 0.3333333333333333, "uplink_bits": 100, "enrolled_users": 15, "refused_users": 0},
        {"epoch": 1, "f1": 0, "ncr": 0.0000001, "uplink_bits": 0, "enrolled_users": 0, "refused_users": 15}
      ]
    }
  ]
}
"#
        );
        crate::json::parse(&report.to_json()).expect("the pinned bytes re-parse");
        report.epsilon_cap = None;
        report.arms.truncate(1);
        report.arms[0].points.clear();
        assert_eq!(
            report.to_json(),
            r#"{
  "schema": 1,
  "dataset": "R\"D\"B",
  "mechanism": "TAPS",
  "epochs": 1,
  "churn_fraction": 0.30000000000000004,
  "drift_stride": 2,
  "epsilon": 4,
  "epsilon_cap": null,
  "arms": [
    {
      "warm_start": "cold",
      "points": [
      ]
    }
  ]
}
"#
        );
    }

    fn run_report_stub() -> EpochsReport {
        EpochsReport {
            schema: 1,
            dataset: "RDB".to_string(),
            mechanism: "TAPS".to_string(),
            epochs: 1,
            churn_fraction: 0.2,
            drift_stride: 2,
            epsilon: 4.0,
            epsilon_cap: Some(8.0),
            arms: vec![EpochArm {
                warm_start: "cold".to_string(),
                points: vec![EpochPoint {
                    epoch: 0,
                    f1: 0.5,
                    ncr: 0.25,
                    uplink_bits: 99,
                    enrolled_users: 12,
                    refused_users: 3,
                }],
            }],
        }
    }
}
