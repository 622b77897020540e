//! FedPEM: the straw-man federated baseline (Algorithm 1).
//!
//! Every party independently runs PEM with the fixed extension `t = k` and
//! uploads its local top-k heavy hitters together with their estimated
//! counts; the server sums the counts of identical items and reports the
//! global top-k.  FedPEM ignores the non-IID structure entirely, which is
//! exactly the weakness the paper's TAP/TAPS address.
//!
//! As an engine protocol FedPEM is a single `Start` round: every active
//! party descends all g levels through its [`PartyDriver`] and uploads its
//! top-k report; the server aggregates the collected reports.

use crate::aggregate::final_output;
use crate::extension::ExtensionStrategy;
use crate::mechanism::{Mechanism, MechanismOutput};
use crate::pem::{PartyRun, Report, Seeding};
use crate::run::RunContext;
use fedhh_datasets::ItemStream;
use fedhh_federated::{
    Broadcast, EstimateScratch, LevelEstimator, PartyDriver, ProtocolError, RoundInput,
    RoundOutcome, RunPhase,
};
use std::time::Instant;

/// The FedPEM baseline.
#[derive(Debug, Clone, Copy)]
pub struct FedPem {
    /// Extension strategy used inside each party (the paper's FedPEM uses
    /// PEM's `t = k`, [`ExtensionStrategy::TopK`]).
    pub extension: ExtensionStrategy,
}

impl Default for FedPem {
    fn default() -> Self {
        Self::with_extension(ExtensionStrategy::TopK)
    }
}

impl FedPem {
    /// Creates FedPEM with an explicit extension strategy (used by ablations).
    pub fn with_extension(extension: ExtensionStrategy) -> Self {
        Self { extension }
    }
}

/// One party's FedPEM round: descend every level and upload the top-k
/// report.  The driver holds an [`ItemStream`] handle (cheap to clone,
/// `Send`) until its one round hands it to the party state — the shuffled
/// items — which is built inside the round, on the worker, and dropped with
/// it, so one arena is resident per worker rather than one per party.
struct FedPemDriver<'a> {
    name: &'a str,
    /// The party's items, taken by its round.
    items: Option<ItemStream>,
    estimator: &'a LevelEstimator,
    extension: ExtensionStrategy,
    seed: u64,
    /// Per-driver estimation arena.
    scratch: EstimateScratch,
}

impl PartyDriver for FedPemDriver<'_> {
    fn party(&self) -> &str {
        self.name
    }

    fn run_round(&mut self, input: &RoundInput) -> Result<RoundOutcome, ProtocolError> {
        let config = self.estimator.config();
        let items = self
            .items
            .take()
            .ok_or_else(|| ProtocolError::InvalidParameter {
                name: "FedPEM round",
                value: input.round.to_string(),
                rule: "be the party's only round".into(),
            })?;
        let mut party = PartyRun::new(self.name, items, config, Seeding::FedPem, self.seed)?;
        let mut round = RoundOutcome::default();
        party.descend(
            &mut self.scratch,
            self.estimator,
            1..=config.granularity,
            self.extension,
            None,
            &mut round,
        );
        party.upload_report(Report::TopK, config, &mut round);
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
        let estimator = LevelEstimator::new(config)?;

        let mut session = ctx.session(dataset.party_count())?;
        let mut drivers: Vec<FedPemDriver<'_>> = dataset
            .parties()
            .iter()
            .enumerate()
            .map(|(idx, party)| FedPemDriver {
                name: party.name(),
                items: Some(ctx.party_stream(idx)),
                estimator: &estimator,
                extension: self.extension,
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
        Ok(final_output(ctx, &collection, start))
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
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        for k in [3, 7] {
            let cfg = config().with_k(k);
            let top_k = run(&FedPem::default(), &dataset, cfg);
            let fixed = run(
                &FedPem::with_extension(ExtensionStrategy::Fixed(k)),
                &dataset,
                cfg,
            );
            assert_eq!(top_k.heavy_hitters, fixed.heavy_hitters, "k={k}");
            assert_eq!(top_k.counts, fixed.counts, "k={k}");
            assert_eq!(top_k.local_results, fixed.local_results, "k={k}");
            assert_eq!(top_k.comm, fixed.comm, "k={k}");
        }
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
