//! TAPS: TAP with the consensus-based pruning strategy (Algorithm 4).
//!
//! Phase I is TAP's.  Phase II is rewritten as a *sequential* estimation:
//! parties are sorted by user population, descending, and each party
//! (except the first) receives from the server the pruning dictionary
//! produced by its predecessor.  At the pruning levels the party spends a β
//! fraction of the level's users validating the predecessor's infrequent and
//! frequent candidate sets, derives the consensus pruning set (Equations
//! 5–8), removes it from the extended candidate domain, and estimates on the
//! remaining users.  Before handing over, the party selects its own pruning
//! dictionary (Equation 4) for the next party.
//!
//! As an engine protocol TAPS is Phase I's round followed by one round per
//! surviving party — a single active party whose broadcast carries the
//! predecessor's [`PruneDictionary`] and whose driver uploads its own for
//! the server to forward — and a closing round that collects every final
//! top-k report.  The chain is inherently sequential, so engine parallelism
//! speeds up Phase I only; the scenario plan (dropout shortening the chain,
//! stragglers reordering uploads) applies as in every other mechanism.
//!
//! Everything outside the chain is `tap::two_phase`; this module
//! holds what pruning adds around a level (`ChainLink`) and the chain's
//! round schedule (`pruning_chain`).

pub mod pruning;

use crate::extension::ExtensionStrategy;
use crate::mechanism::{Mechanism, MechanismOutput};
use crate::pem::{PartyRun, Report};
use crate::run::RunContext;
use crate::tap::{two_phase, DescentDriver, TwoPhaseRun};
use fedhh_federated::{
    Broadcast, EstimateScratch, LevelEstimate, LevelEstimator, ProtocolConfig, ProtocolError,
    PruneDictionary, PruningDecision, RoundCollection, RoundInput, RoundOutcome, RoundPayload,
    RunPhase, PAIR_BITS,
};
use pruning::{consensus_pruning_set, population_confidence, select_prune_candidates};
use std::ops::RangeInclusive;

/// The TAPS mechanism (Algorithm 4), and TAP (Algorithm 3) when
/// `use_pruning` is off.
#[derive(Debug, Clone, Copy)]
pub struct Taps {
    /// Extension strategy (adaptive by default; fixed variants exist for the
    /// Table 5 ablation).
    pub extension: ExtensionStrategy,
    /// Whether Phase I constructs the shared shallow trie (Table 6 ablation).
    pub use_shared_trie: bool,
    /// Whether Phase II applies the consensus-based pruning.  Without it
    /// the value is TAP (Algorithm 3), and [`Mechanism::name`] says so.
    pub use_pruning: bool,
}

impl Default for Taps {
    fn default() -> Self {
        Self {
            extension: ExtensionStrategy::Adaptive,
            use_shared_trie: true,
            use_pruning: true,
        }
    }
}

impl Taps {
    /// TAPS with an explicit extension strategy.
    pub fn with_extension(extension: ExtensionStrategy) -> Self {
        Self {
            extension,
            ..Self::default()
        }
    }

    /// TAPS without the Phase I shared shallow trie (Table 6 ablation).
    pub fn without_shared_trie() -> Self {
        Self {
            use_shared_trie: false,
            ..Self::default()
        }
    }

    /// TAPS without the consensus-based pruning: TAP (Algorithm 3), what
    /// `MechanismKind::Tap` builds.
    pub fn without_pruning() -> Self {
        Self {
            use_pruning: false,
            ..Self::default()
        }
    }

    /// True when level `h` is a pruning level (Algorithm 4, line 7):
    /// the first g_s levels of Phase II or the last g_s + 1 levels.
    fn is_pruning_level(h: u8, g: u8, gs: u8) -> bool {
        (h >= g.saturating_sub(gs) && h <= g) || (h > gs && h <= 2 * gs)
    }
}

/// Where a party stands in the pruning chain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainSlot {
    /// The last party in the chain selects no dictionary (Equation 4 has
    /// no successor to serve).
    pub(crate) is_last: bool,
    /// Total federation population |U| for the γ term.
    pub(crate) total_users: usize,
}

/// One chain round's pruning state: the predecessor's dictionary comes in
/// with the broadcast, the party's own dictionary goes out as its upload.
pub(crate) struct ChainLink<'a> {
    slot: ChainSlot,
    /// Carries the predecessor's dictionary and population (`Start` for the
    /// first party of the chain).
    broadcast: &'a Broadcast,
    own: PruneDictionary,
}

impl<'a> ChainLink<'a> {
    pub(crate) fn new(slot: ChainSlot, broadcast: &'a Broadcast) -> Self {
        ChainLink {
            slot,
            broadcast,
            own: PruneDictionary::default(),
        }
    }

    /// Before level `h` is estimated: at a pruning level the predecessor
    /// has an entry for, spend two β-sized slices of the level's `group`
    /// validating its infrequent and frequent sets.  Returns the users left
    /// for the level's own estimate and the consensus pruning set to drop
    /// from its candidates (the whole group and nothing, otherwise).
    pub(crate) fn prune<'u>(
        &self,
        party: &PartyRun,
        scratch: &mut EstimateScratch,
        estimator: &LevelEstimator,
        h: u8,
        group: &'u [u64],
        round: &mut RoundOutcome,
    ) -> (&'u [u64], Vec<u64>) {
        let config = estimator.config();
        let Broadcast::Dictionary {
            dictionary,
            holder_users,
        } = self.broadcast
        else {
            return (group, Vec::new());
        };
        let validation_size = ((group.len() as f64) * config.dividing_ratio).floor() as usize;
        let candidates = match dictionary.level(h) {
            Some(candidates) if self.is_pruning_level(config, h) && validation_size > 0 => {
                candidates
            }
            _ => return (group, Vec::new()),
        };
        let (val0, rest) = group.split_at(validation_size.min(group.len()));
        let (val1, main_users) = rest.split_at(validation_size.min(rest.len()));

        let len = config.schedule().prefix_len(h);
        let noise = party.party_seed ^ ((h as u64) << 20);
        let validated_infrequent =
            estimator.estimate_with(scratch, &candidates.infrequent, len, val0, noise ^ 0x0F0F);
        let frequent_values: Vec<u64> = candidates.frequent.iter().map(|(v, _)| *v).collect();
        let validated_frequent =
            estimator.estimate_with(scratch, &frequent_values, len, val1, noise ^ 0xF0F0);
        round.validation_reports(
            &party.name,
            validated_infrequent.report_bits + validated_frequent.report_bits,
        );
        let gamma = population_confidence(*holder_users, self.slot.total_users);
        let pruned = consensus_pruning_set(
            candidates,
            &validated_infrequent,
            &validated_frequent,
            config.k,
            config.epsilon,
            gamma,
        );
        if !pruned.is_empty() {
            round.pruning(PruningDecision {
                party: party.name.clone(),
                level: h,
                pruned: pruned.clone(),
                gamma,
            });
        }
        (main_users, pruned)
    }

    /// After level `h` is estimated: select this party's dictionary entry
    /// for the successor (Equation 4).
    pub(crate) fn select(&mut self, config: &ProtocolConfig, h: u8, estimate: &LevelEstimate) {
        if self.is_pruning_level(config, h) && !self.slot.is_last {
            self.own
                .insert(h, select_prune_candidates(estimate, config.k));
        }
    }

    /// Uploads the party's dictionary; the server forwards it to the next
    /// party in the sequence.
    pub(crate) fn upload(self, party: &PartyRun, g: u8, round: &mut RoundOutcome) {
        if !self.own.is_empty() {
            party.upload(g, RoundPayload::Dictionary(self.own), round);
        }
    }

    fn is_pruning_level(&self, config: &ProtocolConfig, h: u8) -> bool {
        Taps::is_pruning_level(h, config.granularity, config.shared_levels())
    }
}

/// TAPS' Phase II schedule: one solo round per surviving party, in
/// descending population order, each seeded with its predecessor's
/// dictionary; then the closing round in which every party uploads its
/// final top-k report through the session, so a distributed coordinator
/// (whose process never ran the chain drivers) receives them through the
/// exchange like any other upload.  Returns that round's collection.
pub(crate) fn pruning_chain(
    run: &mut TwoPhaseRun<'_>,
    ctx: &mut RunContext<'_>,
    levels: RangeInclusive<u8>,
) -> Result<RoundCollection, ProtocolError> {
    let total_users = ctx.dataset().total_users();
    let active = run.session.active_parties();
    let mut order = active.clone();
    order.sort_by(|a, b| {
        run.parties[*b]
            .users_total
            .cmp(&run.parties[*a].users_total)
    });

    // Each party's broadcast carries the dictionary its predecessor handed
    // the server, together with that party's population for the γ term.
    let mut broadcast = Broadcast::Start;
    for (seq, &party_idx) in order.iter().enumerate() {
        let input = RoundInput {
            round: run.session.rounds_completed(),
            broadcast,
        };
        let mut driver = DescentDriver {
            party: &mut run.parties[party_idx],
            estimator: run.estimator,
            levels: levels.clone(),
            extension: run.extension,
            chain: Some(ChainSlot {
                is_last: seq + 1 == order.len(),
                total_users,
            }),
            report: None,
            scratch: run.session.scratch(),
        };
        let collection = run.session.run_solo_round(party_idx, &mut driver, &input)?;
        ctx.replay(&collection);

        // The server forwards the party's dictionary to its successor.
        let dictionary = collection
            .messages
            .iter()
            .find_map(|m| m.as_dictionary().cloned())
            .unwrap_or_default();
        if !dictionary.is_empty() {
            if let Some(&next_idx) = order.get(seq + 1) {
                ctx.record_downlink(&run.parties[next_idx].name, dictionary.size_bits());
            }
        }
        broadcast = Broadcast::Dictionary {
            dictionary,
            holder_users: run.parties[party_idx].users_total,
        };
    }

    // The closing round: a TAP Phase II round with no level left to run.
    ctx.phase(RunPhase::Aggregation);
    let g = run.estimator.config().granularity;
    let collection = run.round(ctx, (g + 1)..=g, Report::TopK)?;

    // Account the Phase I broadcast of protocol parameters (step ①) — a
    // constant per party, charged here for completeness.
    for &idx in &active {
        ctx.record_downlink(&run.parties[idx].name, PAIR_BITS);
    }
    Ok(collection)
}

impl Mechanism for Taps {
    fn name(&self) -> &'static str {
        if self.use_pruning {
            "TAPS"
        } else {
            "TAP"
        }
    }

    fn execute(&self, ctx: &mut RunContext<'_>) -> Result<MechanismOutput, ProtocolError> {
        two_phase(ctx, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Run;
    use fedhh_datasets::{DatasetConfig, DatasetKind, FederatedDataset};
    use fedhh_federated::ProtocolConfig;

    fn run(taps: &Taps, dataset: &FederatedDataset, config: ProtocolConfig) -> MechanismOutput {
        Run::custom(taps)
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
    fn taps_returns_k_heavy_hitters_with_accounting() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        let output = run(&Taps::default(), &dataset, config());
        assert_eq!(output.heavy_hitters.len(), 5);
        assert_eq!(output.local_results.len(), dataset.party_count());
        assert!(output.comm.total_uplink_bits() > 0);
        assert!(output.comm.total_downlink_bits() > 0);
        assert!(output.elapsed.as_nanos() > 0);
    }

    #[test]
    fn taps_recovers_ground_truth_at_large_epsilon() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        let truth = dataset.ground_truth_top_k(5);
        let output = run(&Taps::default(), &dataset, config());
        let hits = truth
            .iter()
            .filter(|t| output.heavy_hitters.contains(t))
            .count();
        assert!(
            hits >= 2,
            "expected at least 2 hits, got {hits}: truth {truth:?} vs {:?}",
            output.heavy_hitters
        );
    }

    #[test]
    fn pruning_levels_match_algorithm_four() {
        // g = 24, gs = 6: pruning at 7..=12 and 18..=24.
        assert!(Taps::is_pruning_level(7, 24, 6));
        assert!(Taps::is_pruning_level(12, 24, 6));
        assert!(!Taps::is_pruning_level(13, 24, 6));
        assert!(!Taps::is_pruning_level(17, 24, 6));
        assert!(Taps::is_pruning_level(18, 24, 6));
        assert!(Taps::is_pruning_level(24, 24, 6));
    }

    #[test]
    fn without_pruning_is_named_tap() {
        assert_eq!(Taps::without_pruning().name(), "TAP");
        assert_eq!(Taps::default().name(), "TAPS");
        assert_eq!(Taps::without_shared_trie().name(), "TAPS");
    }

    #[test]
    fn ablation_variants_all_run() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Syn);
        let cfg = config();
        for taps in [
            Taps::default(),
            Taps::without_pruning(),
            Taps::without_shared_trie(),
            Taps::with_extension(ExtensionStrategy::Fixed(5)),
        ] {
            let output = run(&taps, &dataset, cfg);
            assert_eq!(output.heavy_hitters.len(), 5, "variant {taps:?}");
        }
    }

    #[test]
    fn taps_uses_more_communication_than_fedpem_but_far_less_than_raw_upload() {
        use crate::fedpem::FedPem;
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Ycm);
        let cfg = config();
        let taps = run(&Taps::default(), &dataset, cfg);
        let fedpem = Run::custom(&FedPem::default())
            .dataset(&dataset)
            .config(cfg)
            .execute()
            .unwrap();
        // TAPS ships pruning dictionaries and Phase I reports on top of the
        // final top-k upload.
        assert!(taps.comm.total_uplink_bits() >= fedpem.comm.total_uplink_bits());
        // Raw OUE upload would be |U| · |domain| bits — astronomically more.
        let raw_oue_bits = dataset.total_users() * (1usize << 16);
        assert!(taps.comm.total_uplink_bits() < raw_oue_bits / 100);
    }
}
