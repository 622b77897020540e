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
//! Phase I is one round of the two-phase run: every active party descends
//! its shared levels (concurrently under a parallel engine) and uploads its
//! level-g_s candidate report for the server to aggregate.

use crate::pem::Report;
use crate::run::RunContext;
use crate::tap::TwoPhaseRun;
use fedhh_federated::{
    aggregate_reports_into, top_k_from_counts, ProtocolError, RunPhase, PAIR_BITS,
};

/// Runs Phase I as one engine round over the session's active parties —
/// each estimates levels 1..=g_s, extending adaptively (Algorithm 2, lines
/// 2–8), and reports its level-g_s candidates (line 9) — and returns the
/// globally frequent prefixes C_{g_s} (at most k values, each
/// `schedule.prefix_len(g_s)` bits long).  There is always a shared level
/// to run: `LevelSchedule::shared_levels` clamps g_s to `1..=g`.
pub(crate) fn shared_trie_construction(
    run: &mut TwoPhaseRun<'_>,
    ctx: &mut RunContext<'_>,
) -> Result<Vec<u64>, ProtocolError> {
    ctx.phase(RunPhase::SharedTrie);
    let config = ctx.config();
    let collection = run.round(ctx, 1..=config.shared_levels(), Report::Candidates)?;

    // The server aggregates the reported counts — one pass straight off the
    // collected messages, no report cloning — and broadcasts the top-k
    // (line 10 and step ⑥).
    let mut totals = std::collections::HashMap::new();
    aggregate_reports_into(
        collection.messages.iter().filter_map(|m| m.as_report()),
        &mut totals,
    );
    let shared = top_k_from_counts(&totals, config.k);
    for idx in run.session.active_parties() {
        ctx.record_downlink(&run.parties[idx].name, shared.len() * PAIR_BITS);
    }
    Ok(shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extension::ExtensionStrategy;
    use crate::pem::{PartyRun, Seeding};
    use fedhh_datasets::{FederatedDataset, PartyData};
    use fedhh_federated::{EngineConfig, LevelEstimator, NullObserver, ProtocolConfig, Session};
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
        let mut run = TwoPhaseRun {
            session: Session::new(&EngineConfig::sequential(), dataset.party_count()).unwrap(),
            parties: PartyRun::initialise(&ctx, Seeding::Tap).unwrap(),
            estimator: &estimator,
            extension: ExtensionStrategy::Adaptive,
        };
        let shared = shared_trie_construction(&mut run, &mut ctx).unwrap();
        let comm = ctx.take_comm();
        (shared, run.parties, comm)
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
