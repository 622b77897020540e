//! Shared shallow trie construction (Algorithm 2).
//!
//! Non-IID data can push globally frequent prefixes below locally popular
//! ones at shallow levels, where a wrong pruning decision loses the heavy
//! hitter for good.  Phase I therefore builds the first g_s levels
//! *collaboratively*: every party estimates them on a small share of its
//! users (with adaptive extension), reports its level-g_s candidates and
//! their counts, and the server aggregates the counts — weighted by party
//! population — into the global top-k prefixes C_{g_s} that seed Phase II
//! in every party.
//!
//! Phase I is one engine round: the server broadcasts `Start`, every active
//! party runs its shared levels through a `Phase1Driver` (concurrently
//! under a parallel engine) and uploads its level-g_s candidate report,
//! and the session collects the reports for aggregation.

use crate::aggregate::local_result_to_report;
use crate::extension::ExtensionStrategy;
use crate::run::RunContext;
use crate::tap::PartyRun;
use fedhh_federated::{
    aggregate_reports_into, top_k_from_counts, Broadcast, EstimateScratch, LevelEstimated,
    LevelEstimator, PartyDriver, ProtocolConfig, ProtocolError, RoundInput, RoundOutcome,
    RoundPayload, RunPhase, Session, PAIR_BITS,
};
use fedhh_telemetry::{SpanName, Telemetry};

/// One party's Phase I round: estimate levels 1..=g_s with the configured
/// extension and upload the level-g_s candidate report.
pub(crate) struct Phase1Driver<'a> {
    pub(crate) party: &'a mut PartyRun,
    pub(crate) estimator: &'a LevelEstimator,
    pub(crate) config: ProtocolConfig,
    pub(crate) extension: ExtensionStrategy,
    pub(crate) gs: u8,
    /// Per-driver estimation arena.
    pub(crate) scratch: EstimateScratch,
    /// Telemetry handle for the per-level spans (inert when disabled).
    pub(crate) telemetry: Telemetry,
}

impl PartyDriver for Phase1Driver<'_> {
    fn party(&self) -> &str {
        &self.party.name
    }

    fn run_round(&mut self, _input: &RoundInput) -> Result<RoundOutcome, ProtocolError> {
        let mut round = RoundOutcome::default();
        // Estimate levels 1..=g_s on the Phase I user groups, extending
        // adaptively (Algorithm 2, lines 2–8).
        for h in 1..=self.gs {
            let _level_span = self.telemetry.span_idx(SpanName::Level, u64::from(h));
            let (candidates, estimate) = self.party.estimate_level(
                &mut self.scratch,
                self.estimator,
                &self.config,
                h,
                None,
                &[],
            );
            let t = self.extension.extension_count(&estimate, self.config.k);
            round.level(LevelEstimated {
                party: self.party.name.clone(),
                level: h,
                candidates: candidates.len(),
                users: estimate.users,
                report_bits: estimate.report_bits,
                uplink_bits: 0,
            });
            self.party.advance(&self.config, h, estimate, t);
        }
        // Report the level-g_s candidates with non-zero estimated counts
        // (line 9); the upload rides on a dedicated level event so the
        // observer sees every uplink bit the phase causes.
        let estimate = self
            .party
            .last_estimate
            .as_ref()
            .expect("phase I estimated at least one level");
        let report =
            local_result_to_report(&self.party.name, self.party.users_total, estimate, self.gs);
        round.level(LevelEstimated {
            party: self.party.name.clone(),
            level: self.gs,
            candidates: report.candidates.len(),
            users: 0,
            report_bits: 0,
            uplink_bits: report.size_bits(),
        });
        round.upload(RoundPayload::Report(report));
        Ok(round)
    }
}

/// Runs Phase I as one engine round over the session's active parties and
/// returns the globally frequent prefixes C_{g_s} (at most k values, each
/// `schedule.prefix_len(g_s)` bits long).
pub(crate) fn shared_trie_construction(
    session: &mut Session,
    parties: &mut [PartyRun],
    estimator: &LevelEstimator,
    ctx: &mut RunContext<'_>,
    extension: ExtensionStrategy,
) -> Result<Vec<u64>, ProtocolError> {
    let config = ctx.config();
    let gs = config.shared_levels();
    if gs == 0 {
        // A shared ratio below 1/g leaves no shared levels: Phase I is a
        // no-op and the "shared trie" is just the root prefix.
        return Ok(vec![0]);
    }
    ctx.phase(RunPhase::SharedTrie);

    let active = session.active_parties();
    let input = RoundInput {
        round: session.rounds_completed(),
        broadcast: Broadcast::Start,
    };
    let mut drivers: Vec<Phase1Driver<'_>> = parties
        .iter_mut()
        .map(|party| Phase1Driver {
            party,
            estimator,
            config,
            extension,
            gs,
            scratch: session.scratch(),
            telemetry: ctx.telemetry().clone(),
        })
        .collect();
    let collection = session.run_round(&mut drivers, &active, &input)?;
    drop(drivers);
    ctx.replay(&collection);

    // The server aggregates the reported counts — one pass straight off the
    // collected messages, no report cloning — and broadcasts the top-k
    // (line 10 and step ⑥).
    let mut totals = std::collections::HashMap::new();
    aggregate_reports_into(
        collection.messages.iter().filter_map(|m| m.as_report()),
        &mut totals,
    );
    let shared = top_k_from_counts(&totals, config.k);
    for &idx in &active {
        ctx.record_downlink(&parties[idx].name, shared.len() * PAIR_BITS);
    }
    Ok(shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhh_datasets::{FederatedDataset, PartyData};
    use fedhh_federated::{EngineConfig, NullObserver, ProtocolConfig};
    use fedhh_trie::{ItemEncoder, Prefix};

    /// Runs Phase I over a toy dataset and returns the shared prefixes plus
    /// the context's accumulated communication.
    fn run_phase_one(
        dataset: &FederatedDataset,
        cfg: ProtocolConfig,
    ) -> (Vec<u64>, Vec<PartyRun>, fedhh_federated::CommTracker) {
        let estimator = LevelEstimator::new(cfg).unwrap();
        let mut observer = NullObserver;
        let mut ctx = RunContext::new(dataset, cfg, &mut observer);
        let mut session = Session::new(&EngineConfig::sequential(), dataset.party_count()).unwrap();
        let mut parties = PartyRun::initialise(&ctx).unwrap();
        let shared = shared_trie_construction(
            &mut session,
            &mut parties,
            &estimator,
            &mut ctx,
            ExtensionStrategy::Adaptive,
        )
        .unwrap();
        let comm = ctx.take_comm();
        (shared, parties, comm)
    }

    /// Two parties with opposite local skews but one shared globally
    /// dominant item.
    fn toy_dataset() -> (FederatedDataset, u64) {
        let enc = ItemEncoder::new(16, 9);
        let shared_item = enc.encode(7);
        let a_fav = enc.encode(100);
        let b_fav = enc.encode(200);
        let a: Vec<u64> = (0..3000)
            .map(|i| if i % 2 == 0 { shared_item } else { a_fav })
            .collect();
        let b: Vec<u64> = (0..2500)
            .map(|i| if i % 2 == 0 { shared_item } else { b_fav })
            .collect();
        let ds = FederatedDataset::new(
            "toy",
            vec![PartyData::new("a", a, 16), PartyData::new("b", b, 16)],
            16,
            enc,
        );
        (ds, shared_item)
    }

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            k: 3,
            epsilon: 5.0,
            max_bits: 16,
            granularity: 8,
            phase1_user_fraction: 0.3,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn shared_prefixes_cover_the_globally_dominant_item() {
        let (dataset, shared_item) = toy_dataset();
        let cfg = config();
        let (shared, _, _) = run_phase_one(&dataset, cfg);
        assert!(!shared.is_empty());
        assert!(shared.len() <= cfg.k);
        // The prefix of the globally dominant item at level g_s must be in
        // the shared set.
        let gs_len = cfg.schedule().prefix_len(cfg.shared_levels());
        let want = Prefix::of_item(shared_item, 16, gs_len).value();
        assert!(
            shared.contains(&want),
            "shared prefixes {shared:?} miss the dominant item's prefix {want}"
        );
    }

    #[test]
    fn communication_is_recorded_for_both_directions() {
        let (dataset, _) = toy_dataset();
        let cfg = config();
        let (_, _, comm) = run_phase_one(&dataset, cfg);
        assert!(comm.total_uplink_bits() > 0);
        assert!(comm.total_downlink_bits() > 0);
        assert!(comm.total_local_report_bits() > 0);
    }

    #[test]
    fn phase_one_only_consumes_shared_levels() {
        let (dataset, _) = toy_dataset();
        let cfg = config();
        let (_, parties, _) = run_phase_one(&dataset, cfg);
        let gs = cfg.shared_levels();
        for party in &parties {
            assert_eq!(party.current_len, cfg.schedule().prefix_len(gs));
        }
    }
}
