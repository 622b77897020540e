//! FedPEM: the straw-man federated baseline (Algorithm 1).
//!
//! Every party independently runs PEM with the fixed extension `t = k` and
//! uploads its local top-k heavy hitters together with their estimated
//! counts; the server sums the counts of identical items and reports the
//! global top-k.  FedPEM ignores the non-IID structure entirely, which is
//! exactly the weakness the paper's TAP/TAPS address.
//!
//! As an engine protocol FedPEM is a single round: the server broadcasts
//! `Start`, every active party runs full local PEM through its
//! [`PartyDriver`] and uploads its top-k [`CandidateReport`]; the server
//! aggregates the collected reports.

use crate::extension::ExtensionStrategy;
use crate::mechanism::{Mechanism, MechanismOutput};
use crate::pem::run_pem_with;
use crate::run::RunContext;
use crate::tap::locals_from_reports;
use fedhh_federated::{
    aggregate_reports_into, top_k_from_counts, Broadcast, CandidateReport, EstimateScratch,
    LevelEstimated, PartyDriver, ProtocolConfig, ProtocolError, RoundInput, RoundOutcome,
    RoundPayload, RunPhase,
};
use std::collections::HashMap;
use std::time::Instant;

/// The FedPEM baseline.
#[derive(Debug, Clone, Copy)]
pub struct FedPem {
    /// Extension strategy used inside each party (the paper's FedPEM uses
    /// the original fixed `t = k`).
    pub extension: ExtensionStrategy,
}

impl Default for FedPem {
    fn default() -> Self {
        // The baseline uses the original PEM extension rule.
        Self {
            extension: ExtensionStrategy::Fixed(usize::MAX),
        }
    }
}

impl FedPem {
    /// Creates FedPEM with an explicit extension strategy (used by ablations).
    pub fn with_extension(extension: ExtensionStrategy) -> Self {
        Self { extension }
    }

    fn effective_extension(&self, k: usize) -> ExtensionStrategy {
        match self.extension {
            // `usize::MAX` is the marker for "the original t = k rule".
            ExtensionStrategy::Fixed(t) if t == usize::MAX => ExtensionStrategy::Fixed(k),
            other => other,
        }
    }
}

/// One party's FedPEM round: run local PEM end-to-end and upload the
/// resulting top-k report.  The driver holds an [`ItemStream`] handle
/// (cheap to clone, `Send`); the items are materialized only inside
/// `run_pem`, once, into the group-shuffle arena — the report pipeline
/// past that point stays chunked.
struct FedPemDriver<'a> {
    name: &'a str,
    items: fedhh_datasets::ItemStream,
    config: ProtocolConfig,
    extension: ExtensionStrategy,
    seed: u64,
    /// Per-driver estimation arena.
    scratch: EstimateScratch,
}

impl PartyDriver for FedPemDriver<'_> {
    fn party(&self) -> &str {
        self.name
    }

    fn run_round(&mut self, _input: &RoundInput) -> Result<RoundOutcome, ProtocolError> {
        let outcome = run_pem_with(
            self.name,
            &self.items,
            &self.config,
            self.extension,
            self.seed,
            &mut self.scratch,
        )?;
        let report = outcome.local.to_report(self.config.granularity);
        let mut round = RoundOutcome::default();
        // Replay the per-level progression; the final level additionally
        // carries the party's top-k upload.
        let last = outcome.level_trace.len().saturating_sub(1);
        for (i, trace) in outcome.level_trace.iter().enumerate() {
            round.level(LevelEstimated {
                party: self.name.to_string(),
                level: trace.level,
                candidates: trace.candidates,
                users: trace.users,
                report_bits: trace.report_bits,
                uplink_bits: if i == last { report.size_bits() } else { 0 },
            });
        }
        round.upload(RoundPayload::Report(report));
        Ok(round)
    }
}

impl Mechanism for FedPem {
    fn name(&self) -> &'static str {
        "FedPEM"
    }

    fn execute(&self, ctx: &mut RunContext<'_>) -> Result<MechanismOutput, ProtocolError> {
        let config = ctx.config();
        let start = Instant::now();
        let dataset = ctx.dataset();
        let extension = self.effective_extension(config.k);

        let mut session = ctx.session(dataset.party_count())?;
        let mut drivers: Vec<FedPemDriver<'_>> = dataset
            .parties()
            .iter()
            .enumerate()
            .map(|(idx, party)| FedPemDriver {
                name: party.name(),
                items: ctx.party_stream(idx),
                config,
                extension,
                seed: ctx.party_seed(idx),
                scratch: session.scratch(),
            })
            .collect();

        ctx.phase(RunPhase::LocalEstimation);
        let active = session.active_parties();
        let input = RoundInput {
            round: 0,
            broadcast: Broadcast::Start,
        };
        let collection = session.run_round(&mut drivers, &active, &input)?;
        ctx.replay(&collection);

        ctx.phase(RunPhase::Aggregation);
        // One server-side pass over the round's collected reports — no
        // cloning, no second aggregation for the ranking.  The parties'
        // local results are rebuilt from the reports they uploaded
        // (`to_report` is lossless), so a distributed coordinator — whose
        // process never ran the drivers — reconstructs them identically.
        let reports: Vec<(usize, CandidateReport)> = collection
            .messages
            .iter()
            .filter_map(|m| m.as_report().map(|r| (m.from, r.clone())))
            .collect();
        let locals = locals_from_reports(&reports);
        let mut totals: HashMap<u64, f64> = HashMap::new();
        aggregate_reports_into(
            collection.messages.iter().filter_map(|m| m.as_report()),
            &mut totals,
        );
        let heavy_hitters = top_k_from_counts(&totals, config.k);

        Ok(MechanismOutput {
            heavy_hitters,
            counts: totals,
            local_results: locals,
            comm: ctx.take_comm(),
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Run;
    use fedhh_datasets::{DatasetConfig, DatasetKind};
    use fedhh_federated::ProtocolConfig;

    fn run(
        mechanism: &FedPem,
        dataset: &fedhh_datasets::FederatedDataset,
        config: ProtocolConfig,
    ) -> MechanismOutput {
        Run::custom(mechanism)
            .dataset(dataset)
            .config(config)
            .execute()
            .unwrap()
    }

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            k: 5,
            epsilon: 5.0,
            max_bits: 16,
            granularity: 8,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn fedpem_returns_k_heavy_hitters_with_counts() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        let output = run(&FedPem::default(), &dataset, config());
        assert_eq!(output.heavy_hitters.len(), 5);
        assert_eq!(output.local_results.len(), 2);
        for hh in &output.heavy_hitters {
            assert!(output.count_of(*hh) >= 0.0);
        }
        assert!(output.comm.total_uplink_bits() > 0);
        assert!(output.comm.total_local_report_bits() > 0);
    }

    #[test]
    fn fedpem_recovers_some_ground_truth_at_large_epsilon() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        let truth = dataset.ground_truth_top_k(5);
        let output = run(&FedPem::default(), &dataset, config());
        let hits = truth
            .iter()
            .filter(|t| output.heavy_hitters.contains(t))
            .count();
        assert!(
            hits >= 1,
            "expected at least one true heavy hitter, got {hits}"
        );
    }

    #[test]
    fn default_extension_marker_resolves_to_k() {
        let fedpem = FedPem::default();
        assert_eq!(fedpem.effective_extension(7), ExtensionStrategy::Fixed(7));
        let custom = FedPem::with_extension(ExtensionStrategy::Fixed(3));
        assert_eq!(custom.effective_extension(7), ExtensionStrategy::Fixed(3));
    }

    #[test]
    fn uplink_cost_is_k_pairs_per_party() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        let cfg = config();
        let output = run(&FedPem::default(), &dataset, cfg);
        // Each party uploads at most k (candidate, count) pairs once.
        let max_bits = dataset.party_count() * cfg.k * fedhh_federated::PAIR_BITS;
        assert!(output.comm.total_uplink_bits() <= max_bits);
    }
}
