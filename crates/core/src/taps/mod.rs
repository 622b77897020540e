//! TAPS: TAP with the consensus-based pruning strategy (Algorithm 4).
//!
//! Phase I is identical to TAP.  Phase II is rewritten as a *sequential*
//! estimation: parties are sorted by user population, descending, and each
//! party (except the first) receives from the server the pruning dictionary
//! produced by its predecessor.  At the pruning levels the party spends a β
//! fraction of the level's users validating the predecessor's infrequent and
//! frequent candidate sets, derives the consensus pruning set (Equations
//! 5–8), removes it from the extended candidate domain, and estimates on the
//! remaining users.  Before handing over, the party selects its own pruning
//! dictionary (Equation 4) for the next party.
//!
//! As an engine protocol TAPS is Phase I's round followed by one round per
//! surviving party: each chain round has a single active party whose
//! broadcast carries the predecessor's [`PruneDictionary`]; the party's
//! driver uploads its own dictionary for the server to forward.  The chain
//! is inherently sequential, so engine parallelism speeds up Phase I while
//! the fault plan (dropout shortening the chain, stragglers reordering
//! collected uploads) applies uniformly, like in every other mechanism.

pub mod pruning;

use crate::extension::ExtensionStrategy;
use crate::mechanism::{Mechanism, MechanismOutput};
use crate::run::RunContext;
use crate::tap::{locals_from_reports, stc, PartyRun};
use fedhh_federated::{
    aggregate_reports_into, top_k_from_counts, Broadcast, CandidateReport, EstimateScratch,
    LevelEstimated, LevelEstimator, PartyDriver, ProtocolConfig, ProtocolError, PruneCandidates,
    PruneDictionary, PruningDecision, RoundInput, RoundOutcome, RoundPayload, RunPhase, PAIR_BITS,
};
use fedhh_telemetry::{SpanName, Telemetry};
use pruning::{consensus_pruning_set, population_confidence, select_prune_candidates};
use std::collections::HashMap;
use std::time::Instant;

/// The TAPS mechanism (Algorithm 4).
#[derive(Debug, Clone, Copy)]
pub struct Taps {
    /// Extension strategy (adaptive by default; fixed variants exist for the
    /// Table 5 ablation).
    pub extension: ExtensionStrategy,
    /// Whether Phase I constructs the shared shallow trie (Table 6 ablation).
    pub use_shared_trie: bool,
    /// Whether Phase II applies the consensus-based pruning (disabling it
    /// turns TAPS into TAP; kept as a flag for the Figure 7 comparison).
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

    /// TAPS without the consensus-based pruning, i.e. TAP (Figure 7).
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

/// One party's TAPS chain round: validate and prune against the
/// predecessor's dictionary, estimate the Phase II levels, and upload the
/// party's own dictionary for the successor.
struct TapsChainDriver<'a> {
    party: &'a mut PartyRun,
    estimator: &'a LevelEstimator,
    config: ProtocolConfig,
    extension: ExtensionStrategy,
    use_pruning: bool,
    /// The last party in the chain selects no dictionary (Equation 4 has
    /// no successor to serve).
    is_last: bool,
    /// Total federation population |U| for the γ term.
    total_users: usize,
    /// Per-driver estimation arena (levels and validation splits).
    scratch: EstimateScratch,
    /// Telemetry handle for the per-level spans (inert when disabled).
    telemetry: Telemetry,
}

impl PartyDriver for TapsChainDriver<'_> {
    fn party(&self) -> &str {
        &self.party.name
    }

    fn run_round(&mut self, input: &RoundInput) -> Result<RoundOutcome, ProtocolError> {
        let config = self.config;
        let gs = config.shared_levels();
        let g = config.granularity;
        let previous = match &input.broadcast {
            Broadcast::Dictionary {
                dictionary,
                holder_users,
            } => Some((dictionary, *holder_users)),
            _ => None,
        };

        let mut round = RoundOutcome::default();
        let mut own_dictionary = PruneDictionary::default();
        for h in (gs + 1)..=g {
            let _level_span = self.telemetry.span_idx(SpanName::Level, u64::from(h));
            let pruning_level = Taps::is_pruning_level(h, g, gs);
            let schedule = config.schedule();
            let len = schedule.prefix_len(h);
            // Borrowed straight from the assignment arena; the borrow ends
            // with the level's estimate, before `advance` needs the party.
            let group = self.party.assignment.level(h);

            // Work out the user split and the consensus pruning set.
            let mut main_users = group;
            let validation_size = ((group.len() as f64) * config.dividing_ratio).floor() as usize;
            let mut pruned: Vec<u64> = Vec::new();
            if self.use_pruning && pruning_level && validation_size > 0 {
                if let Some((dict, prev_users)) = &previous {
                    if let Some(candidates) = dict.level(h) {
                        let (val0, rest) = group.split_at(validation_size.min(group.len()));
                        let (val1, rest) = rest.split_at(validation_size.min(rest.len()));
                        main_users = rest;

                        let noise = self.party.noise_seed ^ ((h as u64) << 20);
                        let validated_infrequent = self.estimator.estimate_with(
                            &mut self.scratch,
                            &candidates.infrequent,
                            len,
                            val0,
                            noise ^ 0x0F0F,
                        );
                        let frequent_values: Vec<u64> =
                            candidates.frequent.iter().map(|(v, _)| *v).collect();
                        let validated_frequent = self.estimator.estimate_with(
                            &mut self.scratch,
                            &frequent_values,
                            len,
                            val1,
                            noise ^ 0xF0F0,
                        );
                        round.validation_reports(
                            &self.party.name,
                            validated_infrequent.report_bits + validated_frequent.report_bits,
                        );
                        let gamma = population_confidence(*prev_users, self.total_users);
                        pruned = consensus_pruning_set(
                            candidates,
                            &validated_infrequent,
                            &validated_frequent,
                            config.k,
                            config.epsilon,
                            gamma,
                        );
                        if !pruned.is_empty() {
                            round.pruning(PruningDecision {
                                party: self.party.name.clone(),
                                level: h,
                                pruned: pruned.clone(),
                                gamma,
                            });
                        }
                    }
                }
            }

            let (candidates, estimate) = self.party.estimate_level(
                &mut self.scratch,
                self.estimator,
                &config,
                h,
                Some(main_users),
                &pruned,
            );
            round.level(LevelEstimated {
                party: self.party.name.clone(),
                level: h,
                candidates: candidates.len(),
                users: estimate.users,
                report_bits: estimate.report_bits,
                uplink_bits: 0,
            });
            let t = self.extension.extension_count(&estimate, config.k);

            // Select the pruning dictionary entry for the next party
            // before advancing (Equation 4).
            if self.use_pruning && pruning_level && !self.is_last {
                own_dictionary.insert(h, select_prune_candidates(&estimate, config.k));
            }
            self.party.advance(&config, h, estimate, t);
        }

        // Upload the pruning dictionary; the server forwards it to the
        // next party in the sequence.
        if !own_dictionary.is_empty() {
            let bits = own_dictionary.size_bits();
            round.level(LevelEstimated {
                party: self.party.name.clone(),
                level: g,
                candidates: bits / PAIR_BITS,
                users: 0,
                report_bits: 0,
                uplink_bits: bits,
            });
            round.upload(RoundPayload::Dictionary(own_dictionary));
        }
        Ok(round)
    }
}

/// The closing round of TAPS: every surviving party uploads its final
/// top-k report (step ⑪) through the session, attributed to the deepest
/// level — exactly the accounting the server-side shortcut used to apply,
/// but flowing through the transport so distributed runs see it too.
struct FinalReportDriver<'a> {
    party: &'a PartyRun,
    k: usize,
    granularity: u8,
}

impl PartyDriver for FinalReportDriver<'_> {
    fn party(&self) -> &str {
        &self.party.name
    }

    fn run_round(&mut self, _input: &RoundInput) -> Result<RoundOutcome, ProtocolError> {
        let mut round = RoundOutcome::default();
        let report = self
            .party
            .final_local_result(self.k)
            .to_report(self.granularity);
        round.level(LevelEstimated {
            party: self.party.name.clone(),
            level: self.granularity,
            candidates: report.candidates.len(),
            users: 0,
            report_bits: 0,
            uplink_bits: report.size_bits(),
        });
        round.upload(RoundPayload::Report(report));
        Ok(round)
    }
}

impl Mechanism for Taps {
    fn name(&self) -> &'static str {
        "TAPS"
    }

    fn execute(&self, ctx: &mut RunContext<'_>) -> Result<MechanismOutput, ProtocolError> {
        let config = ctx.config();
        let start = Instant::now();
        let dataset = ctx.dataset();
        // Constructing the estimator validates the configuration, so no
        // invalid parameter survives past this line.
        let estimator = LevelEstimator::new(config)?;
        let gs = config.shared_levels();
        let g = config.granularity;
        let total_users = dataset.total_users();

        let mut session = ctx.session(dataset.party_count())?;
        let mut parties = PartyRun::initialise(ctx)?;

        // Phase I: shared shallow trie construction (identical to TAP).
        let mut shared = stc::shared_trie_construction(
            &mut session,
            &mut parties,
            &estimator,
            ctx,
            self.extension,
        )?;
        // Incremental-trie warm start (epoch service): graft the previous
        // epoch's surviving heavy hitters into the shared prefixes every
        // party descends from — identical semantics to TAP's hook.
        let warm = ctx.warm_prefixes(config.schedule().prefix_len(gs));
        if !warm.is_empty() {
            shared.extend(warm);
            shared.sort_unstable();
            shared.dedup();
        }
        let active = session.active_parties();
        if self.use_shared_trie {
            let shared_len = config.schedule().prefix_len(gs);
            for &idx in &active {
                parties[idx].current = shared.clone();
                parties[idx].current_len = shared_len;
            }
        }

        // Phase II: one chain round per surviving party, in descending
        // population order.
        ctx.phase(RunPhase::LocalEstimation);
        let mut order: Vec<usize> = active.clone();
        order.sort_by(|a, b| parties[*b].users_total.cmp(&parties[*a].users_total));

        // Dictionary handed from the previous party (via the server),
        // together with that party's population for the γ term.
        let mut previous: Option<(PruneDictionary, usize)> = None;

        for (seq, &party_idx) in order.iter().enumerate() {
            let is_last = seq + 1 == order.len();
            let broadcast = match previous.take() {
                Some((dictionary, holder_users)) => Broadcast::Dictionary {
                    dictionary,
                    holder_users,
                },
                None => Broadcast::Start,
            };
            let input = RoundInput {
                round: session.rounds_completed(),
                broadcast,
            };
            let mut driver = TapsChainDriver {
                party: &mut parties[party_idx],
                estimator: &estimator,
                config,
                extension: self.extension,
                use_pruning: self.use_pruning,
                is_last,
                total_users,
                scratch: session.scratch(),
                telemetry: ctx.telemetry().clone(),
            };
            let collection = session.run_solo_round(party_idx, &mut driver, &input)?;
            ctx.replay(&collection);

            // The server forwards the party's dictionary to its successor.
            let dictionary = collection
                .messages
                .iter()
                .find_map(|m| m.as_dictionary().cloned())
                .unwrap_or_default();
            if !dictionary.is_empty() {
                if let Some(&next_idx) = order.get(seq + 1) {
                    ctx.record_downlink(&parties[next_idx].name, dictionary.size_bits());
                }
            }
            previous = Some((dictionary, parties[party_idx].users_total));
        }

        // Final aggregation (step ⑪) — identical to TAP, but the final
        // top-k reports travel as a real engine round so a distributed
        // coordinator (whose process never ran the chain drivers) receives
        // them through the exchange like any other upload.
        ctx.phase(RunPhase::Aggregation);
        let input = RoundInput {
            round: session.rounds_completed(),
            broadcast: Broadcast::Start,
        };
        let mut final_drivers: Vec<FinalReportDriver<'_>> = parties
            .iter()
            .map(|party| FinalReportDriver {
                party,
                k: config.k,
                granularity: g,
            })
            .collect();
        let collection = session.run_round(&mut final_drivers, &active, &input)?;
        drop(final_drivers);
        ctx.replay(&collection);

        let reports: Vec<(usize, CandidateReport)> = collection
            .messages
            .iter()
            .filter_map(|m| m.as_report().map(|r| (m.from, r.clone())))
            .collect();
        let locals = locals_from_reports(&reports);
        let mut totals: HashMap<u64, f64> = HashMap::new();
        aggregate_reports_into(reports.iter().map(|(_, r)| r), &mut totals);
        let heavy_hitters = top_k_from_counts(&totals, config.k);

        // Account the Phase I broadcast of protocol parameters (step ①) —
        // a constant per party, charged here for completeness.
        for &idx in &active {
            ctx.record_downlink(&parties[idx].name, PAIR_BITS);
        }

        Ok(MechanismOutput {
            heavy_hitters,
            counts: totals,
            local_results: locals,
            comm: ctx.take_comm(),
            elapsed: start.elapsed(),
        })
    }
}

/// Compile-time guard: `PruneCandidates` must stay re-exported from the
/// federated crate because the pruning API is expressed in terms of it.
const _: fn() -> PruneCandidates = PruneCandidates::default;

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
