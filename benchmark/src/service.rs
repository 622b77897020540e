//! The epoch-service operation: the benchmark's own `EpochExecutor`.
//!
//! Mirrors `fedhh_bench::MechanismExecutor::run_epoch` (the benchmark may
//! not depend on `fedhh-bench`), with the engine and the protocol
//! configuration supplied by the caller so both stay pinned.

use crate::workload::{Detail, Digest, Outcome, WorkloadSpec};
use fedhh::datasets::PopulationEvolver;
use fedhh::federated::{
    checkpoint, Checkpoint, EpochConfig, EpochExecutor, EpochOutput, EpochRunner, PartyPopulation,
    WarmSet, WarmStart,
};
use fedhh::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything one service run needs.
pub struct ServiceRun<'a> {
    /// The workload (mechanism, ε comes from the config closure).
    pub spec: &'a WorkloadSpec,
    /// The evolving population; epoch streams are regenerated from it
    /// inside every operation.
    pub evolver: &'a PopulationEvolver,
    /// The explicit engine.
    pub engine: EngineConfig,
    /// Epochs to run.
    pub epochs: u32,
    /// Lifetime per-user ε cap.
    pub epsilon_cap: f64,
    /// Checkpoint after every epoch to this path, and verify the file
    /// round-trips at the end.
    pub checkpoint: Option<PathBuf>,
    /// Telemetry for the runner and every epoch's run.
    pub telemetry: &'a Telemetry,
}

/// Observations of one service run, for the per-layer pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDetail {
    /// Wall time of every `EpochRunner::step`, in epoch order (the first
    /// one runs on a cold trie).
    pub steps: Vec<Duration>,
    /// Users the ledger enrolled, summed over epochs.
    pub enrolled_users: u64,
    /// Users the ledger refused, summed over epochs.
    pub refused_users: u64,
    /// The final state, when the run checkpointed.
    pub last_checkpoint: Option<Checkpoint>,
}

struct Executor<'a, F> {
    run: &'a ServiceRun<'a>,
    config_for: F,
}

impl<F: Fn(u32) -> ProtocolConfig> EpochExecutor for Executor<'_, F> {
    fn population(&mut self, epoch: u32) -> Result<Vec<PartyPopulation>, ProtocolError> {
        let evolver = self.run.evolver;
        Ok((0..evolver.base().party_count())
            .map(|p| PartyPopulation {
                users: evolver.base().parties()[p].user_count(),
                fresh: evolver.fresh_mask(epoch, p),
            })
            .collect())
    }

    fn run_epoch(
        &mut self,
        epoch: u32,
        enrollment: &[Vec<bool>],
        warm: Option<&WarmSet>,
    ) -> Result<EpochOutput, ProtocolError> {
        let full = self.run.evolver.epoch(epoch);
        // Refused users sit the epoch out: no report, no budget spend.
        let parties: Vec<PartyData> = full
            .parties()
            .iter()
            .enumerate()
            .map(|(p, party)| {
                let mask = enrollment.get(p);
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
        let mut run = Run::mechanism(self.run.spec.mechanism)
            .dataset(&dataset)
            .config((self.config_for)(epoch))
            .engine(self.run.engine)
            .telemetry(self.run.telemetry);
        if let Some(warm) = warm {
            run = run.warm_start(warm.values.clone());
        }
        let output = run.execute()?;
        // `counts` is a HashMap; the epoch record must be deterministic.
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

/// Runs one service operation: a fresh `EpochRunner` stepped to completion
/// (warm start from the previous epoch), checkpointing after every epoch
/// when asked to.  With a checkpoint path the operation also fails unless
/// `checkpoint::load` returns exactly `runner.checkpoint()`.
pub fn run(
    service: &ServiceRun<'_>,
    config_for: impl Fn(u32) -> ProtocolConfig,
) -> Result<Outcome, String> {
    let epsilon = config_for(0).epsilon;
    let mut runner = EpochRunner::new(
        EpochConfig {
            epochs: service.epochs,
            warm_start: WarmStart::Previous,
            epsilon,
            epsilon_cap: Some(service.epsilon_cap),
        },
        service.spec.name.as_bytes().to_vec(),
    );
    runner.set_telemetry(service.telemetry);
    if let Some(path) = &service.checkpoint {
        std::fs::create_dir_all(path.parent().ok_or("checkpoint path has no directory")?)
            .map_err(|err| err.to_string())?;
        runner.checkpoint_to(path);
    }
    let mut executor = Executor {
        run: service,
        config_for,
    };
    let mut steps = Vec::with_capacity(service.epochs as usize);
    loop {
        let started = Instant::now();
        let stepped = runner
            .step(&mut executor)
            .map_err(|err| err.to_string())?
            .is_some();
        if !stepped {
            break;
        }
        steps.push(started.elapsed());
    }

    let last_checkpoint = match &service.checkpoint {
        Some(path) => {
            let expected = runner.checkpoint();
            let loaded = checkpoint::load(path).map_err(|err| err.to_string())?;
            // Best effort: the file lives in the benchmark's own out/.
            let _ = std::fs::remove_file(path);
            if loaded != expected {
                return Err("checkpoint file does not round-trip the runner state".into());
            }
            Some(expected)
        }
        None => None,
    };

    let mut digest = Digest::new();
    let (mut uplink_bits, mut enrolled_users, mut refused_users) = (0, 0, 0);
    for record in runner.records() {
        digest.word(u64::from(record.epoch));
        digest.words(&record.heavy_hitters);
        let counts: Vec<[u64; 2]> = record
            .count_bits
            .iter()
            .map(|(code, bits)| [*code, *bits])
            .collect();
        digest.words(counts.as_flattened());
        digest.word(record.uplink_bits);
        digest.word(record.downlink_bits);
        digest.word(record.enrolled_users);
        digest.word(record.refused_users);
        uplink_bits += record.uplink_bits;
        enrolled_users += record.enrolled_users;
        refused_users += record.refused_users;
    }
    Ok(Outcome {
        digest: digest.finish(),
        uplink_bits,
        reports: enrolled_users,
        hitters: runner
            .records()
            .iter()
            .map(|record| record.heavy_hitters.clone())
            .collect(),
        detail: Detail::Service(ServiceDetail {
            steps,
            enrolled_users,
            refused_users,
            last_checkpoint,
        }),
    })
}
