//! TAP: the target-aligning prefix tree mechanism (Algorithms 2 and 3).
//!
//! TAP runs in two phases.  In **Phase I** every party estimates the first
//! g_s trie levels on a small fraction of its users, always with adaptive
//! extension; the parties' level-g_s candidates are aggregated by the server
//! into the globally frequent prefixes C_{g_s} ([`stc`]).  In **Phase II**
//! every party extends C_{g_s} independently down to level g, still with
//! adaptive extension, and uploads its local top-k heavy hitters with their
//! estimated counts; the server sums the counts and reports the federated
//! top-k.
//!
//! As an engine protocol TAP is two rounds: Phase I is one `Start` round
//! (each party runs its shared levels and uploads a level-g_s candidate
//! report), Phase II one `Candidates` round seeded with the shared prefixes
//! (each party descends to level g and uploads its final top-k report).
//! Both rounds run every active party concurrently.

pub mod stc;

use crate::aggregate::{local_result_from_estimate, PartyLocalResult};
use crate::extension::ExtensionStrategy;
use crate::mechanism::{Mechanism, MechanismOutput};
use crate::run::RunContext;
use fedhh_federated::{
    aggregate_reports_into, top_k_from_counts, Broadcast, CandidateReport, EstimateScratch,
    GroupAssignment, LevelEstimate, LevelEstimated, LevelEstimator, PartyDriver, ProtocolConfig,
    ProtocolError, RoundInput, RoundOutcome, RoundPayload, RunPhase,
};
use fedhh_telemetry::{SpanName, Telemetry};
use fedhh_trie::extend_prefix_values;
use std::collections::HashMap;
use std::time::Instant;

/// The per-party running state shared by TAP and TAPS.
#[derive(Debug, Clone)]
pub(crate) struct PartyRun {
    /// Party display name.
    pub name: String,
    /// Total user population |U_i|.
    pub users_total: usize,
    /// The party's user-to-level assignment.
    pub assignment: GroupAssignment,
    /// The surviving candidate prefixes C_{h−1} (raw values).
    pub current: Vec<u64>,
    /// Length in bits of the prefixes in `current`.
    pub current_len: u8,
    /// The most recent level estimate.
    pub last_estimate: Option<LevelEstimate>,
    /// Per-party noise-decorrelation seed.
    pub noise_seed: u64,
}

impl PartyRun {
    /// Initialises the run state for every party of a dataset, deriving
    /// each party's randomness from [`RunContext::party_seed`].
    pub fn initialise(ctx: &RunContext<'_>) -> Result<Vec<PartyRun>, ProtocolError> {
        let config = ctx.config();
        let gs = config.shared_levels();
        ctx.dataset()
            .parties()
            .iter()
            .enumerate()
            .map(|(idx, party)| {
                let seed = ctx.party_seed(idx);
                Ok(PartyRun {
                    name: party.name().to_string(),
                    users_total: party.user_count(),
                    // The stream is materialized exactly once, into the
                    // shuffle; reports then flow chunked per level.
                    assignment: GroupAssignment::weighted_owned(
                        ctx.party_stream(idx).materialize(),
                        config.granularity,
                        gs,
                        config.phase1_user_fraction,
                        seed,
                    )?,
                    current: vec![0],
                    current_len: 0,
                    last_estimate: None,
                    noise_seed: seed,
                })
            })
            .collect()
    }

    /// Runs the `Estimate` step for one level: extends the current
    /// candidates, estimates them on the level's user group (or an explicit
    /// subset), and returns the estimate together with the extended
    /// candidate list.
    ///
    /// `scratch` is the caller's (per-driver, hence per-worker)
    /// estimation arena, reused level after level.
    pub fn estimate_level(
        &self,
        scratch: &mut EstimateScratch,
        estimator: &LevelEstimator,
        config: &ProtocolConfig,
        h: u8,
        users_override: Option<&[u64]>,
        excluded: &[u64],
    ) -> (Vec<u64>, LevelEstimate) {
        let schedule = config.schedule();
        let step = schedule.step(h);
        let len = schedule.prefix_len(h);
        let mut candidates = extend_prefix_values(&self.current, self.current_len, step);
        if !excluded.is_empty() {
            let excluded: std::collections::HashSet<u64> = excluded.iter().copied().collect();
            candidates.retain(|c| !excluded.contains(c));
        }
        let users = users_override.unwrap_or_else(|| self.assignment.level(h));
        let estimate = estimator.estimate_with(
            scratch,
            &candidates,
            len,
            users,
            self.noise_seed ^ ((h as u64) << 40),
        );
        (candidates, estimate)
    }

    /// Advances the run state after a level: keep the top-t candidates.
    pub fn advance(&mut self, config: &ProtocolConfig, h: u8, estimate: LevelEstimate, t: usize) {
        self.current = estimate.top_t(t);
        self.current_len = config.schedule().prefix_len(h);
        self.last_estimate = Some(estimate);
    }

    /// Builds the party's final upload from the last estimate.
    pub fn final_local_result(&self, k: usize) -> PartyLocalResult {
        let estimate = self
            .last_estimate
            .as_ref()
            .expect("final_local_result called before any level was estimated");
        local_result_from_estimate(&self.name, self.users_total, estimate, k)
    }
}

/// One party's TAP Phase II round: adopt the broadcast shared prefixes (if
/// any), extend level by level down to the granularity, and upload the
/// final top-k report.
pub(crate) struct TapPhase2Driver<'a> {
    pub(crate) party: &'a mut PartyRun,
    pub(crate) estimator: &'a LevelEstimator,
    pub(crate) config: ProtocolConfig,
    pub(crate) extension: ExtensionStrategy,
    pub(crate) debug: bool,
    /// Per-driver estimation arena.
    pub(crate) scratch: EstimateScratch,
    /// Telemetry handle for the per-level spans (disabled handles are
    /// inert, so untraced runs pay one branch per level).
    pub(crate) telemetry: Telemetry,
}

impl PartyDriver for TapPhase2Driver<'_> {
    fn party(&self) -> &str {
        &self.party.name
    }

    fn run_round(&mut self, input: &RoundInput) -> Result<RoundOutcome, ProtocolError> {
        let config = self.config;
        if let Broadcast::Candidates {
            values, value_len, ..
        } = &input.broadcast
        {
            self.party.current = values.clone();
            self.party.current_len = *value_len;
        }
        let gs = config.shared_levels();
        let mut round = RoundOutcome::default();
        for h in (gs + 1)..=config.granularity {
            let _level_span = self.telemetry.span_idx(SpanName::Level, u64::from(h));
            let (candidates, estimate) =
                self.party
                    .estimate_level(&mut self.scratch, self.estimator, &config, h, None, &[]);
            let t = self.extension.extension_count(&estimate, config.k);
            if self.debug {
                eprintln!(
                    "[tap] {} level {h}: |domain|={} users={} t={t} sigma={:.4}",
                    self.party.name,
                    candidates.len(),
                    estimate.users,
                    estimate.std_dev
                );
            }
            round.level(LevelEstimated {
                party: self.party.name.clone(),
                level: h,
                candidates: candidates.len(),
                users: estimate.users,
                report_bits: estimate.report_bits,
                uplink_bits: 0,
            });
            self.party.advance(&config, h, estimate, t);
        }
        // The final top-k upload (step ⑪), attributed to the deepest level.
        let local = self.party.final_local_result(config.k);
        let report = local.to_report(config.granularity);
        round.level(LevelEstimated {
            party: self.party.name.clone(),
            level: config.granularity,
            candidates: report.candidates.len(),
            users: 0,
            report_bits: 0,
            uplink_bits: report.size_bits(),
        });
        round.upload(RoundPayload::Report(report));
        Ok(round)
    }
}

/// Rebuilds the parties' [`PartyLocalResult`]s from the final reports they
/// uploaded, in party-index order (`to_report` is lossless, so this is the
/// exact inverse).
pub(crate) fn locals_from_reports(messages: &[(usize, CandidateReport)]) -> Vec<PartyLocalResult> {
    let mut keyed: Vec<(usize, PartyLocalResult)> = messages
        .iter()
        .map(|(from, report)| {
            (
                *from,
                PartyLocalResult {
                    party: report.party.clone(),
                    users: report.users,
                    local_heavy_hitters: report.values(),
                    reported_counts: report.candidates.clone(),
                },
            )
        })
        .collect();
    keyed.sort_by_key(|(from, _)| *from);
    keyed.into_iter().map(|(_, local)| local).collect()
}

/// The TAP mechanism (Algorithm 3).
#[derive(Debug, Clone, Copy)]
pub struct Tap {
    /// Extension strategy (the paper's TAP always uses the adaptive rule;
    /// the fixed variants exist for the Table 5 ablation).
    pub extension: ExtensionStrategy,
    /// Whether Phase I constructs the shared shallow trie (disabled by the
    /// Table 6 ablation).
    pub use_shared_trie: bool,
}

impl Default for Tap {
    fn default() -> Self {
        Self {
            extension: ExtensionStrategy::Adaptive,
            use_shared_trie: true,
        }
    }
}

impl Tap {
    /// TAP with an explicit extension strategy.
    pub fn with_extension(extension: ExtensionStrategy) -> Self {
        Self {
            extension,
            ..Self::default()
        }
    }

    /// TAP without the shared shallow trie (ablation).
    pub fn without_shared_trie() -> Self {
        Self {
            use_shared_trie: false,
            ..Self::default()
        }
    }
}

impl Mechanism for Tap {
    fn name(&self) -> &'static str {
        "TAP"
    }

    fn execute(&self, ctx: &mut RunContext<'_>) -> Result<MechanismOutput, ProtocolError> {
        let config = ctx.config();
        let start = Instant::now();
        // Constructing the estimator validates the configuration, so no
        // invalid parameter survives past this line.
        let estimator = LevelEstimator::new(config)?;
        let mut session = ctx.session(ctx.dataset().party_count())?;
        let mut parties = PartyRun::initialise(ctx)?;
        let gs = config.shared_levels();

        // Phase I: shared shallow trie construction (Algorithm 2).
        let mut shared = stc::shared_trie_construction(
            &mut session,
            &mut parties,
            &estimator,
            ctx,
            self.extension,
        )?;
        // Incremental-trie warm start (epoch service): graft the previous
        // epoch's surviving heavy hitters into the shared prefixes handed
        // to Phase II, so persistent heavy items descend even if this
        // epoch's shallow estimation missed them.  Cold runs add nothing.
        let warm = ctx.warm_prefixes(config.schedule().prefix_len(gs));
        if !warm.is_empty() {
            shared.extend(warm);
            shared.sort_unstable();
            shared.dedup();
        }
        let debug = std::env::var("FEDHH_DEBUG_SHARED").is_ok();
        if debug {
            eprintln!("[tap] shared prefixes at level {gs}: {shared:?}");
        }

        // Phase II: independent estimation with a warm start.
        ctx.phase(RunPhase::LocalEstimation);
        let broadcast = if self.use_shared_trie {
            Broadcast::Candidates {
                values: shared,
                value_len: config.schedule().prefix_len(gs),
                level: gs + 1,
            }
        } else {
            Broadcast::Start
        };
        let active = session.active_parties();
        let input = RoundInput {
            round: session.rounds_completed(),
            broadcast,
        };
        let mut drivers: Vec<TapPhase2Driver<'_>> = parties
            .iter_mut()
            .map(|party| TapPhase2Driver {
                party,
                estimator: &estimator,
                config,
                extension: self.extension,
                debug,
                scratch: session.scratch(),
                telemetry: ctx.telemetry().clone(),
            })
            .collect();
        let collection = session.run_round(&mut drivers, &active, &input)?;
        drop(drivers);
        ctx.replay(&collection);

        // Final aggregation (step ⑪).
        ctx.phase(RunPhase::Aggregation);
        let reports: Vec<(usize, CandidateReport)> = collection
            .messages
            .iter()
            .filter_map(|m| m.as_report().map(|r| (m.from, r.clone())))
            .collect();
        let locals = locals_from_reports(&reports);
        let mut totals: HashMap<u64, f64> = HashMap::new();
        aggregate_reports_into(reports.iter().map(|(_, r)| r), &mut totals);
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
    use fedhh_datasets::{DatasetConfig, DatasetKind, FederatedDataset};

    fn run(tap: &Tap, dataset: &FederatedDataset, config: ProtocolConfig) -> MechanismOutput {
        Run::custom(tap)
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
    fn tap_returns_k_heavy_hitters() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        let output = run(&Tap::default(), &dataset, config());
        assert_eq!(output.heavy_hitters.len(), 5);
        assert_eq!(output.local_results.len(), dataset.party_count());
        assert!(output.comm.total_uplink_bits() > 0);
    }

    #[test]
    fn tap_recovers_ground_truth_at_large_epsilon() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        let truth = dataset.ground_truth_top_k(5);
        let output = run(&Tap::default(), &dataset, config());
        let hits = truth
            .iter()
            .filter(|t| output.heavy_hitters.contains(t))
            .count();
        assert!(
            hits >= 2,
            "expected at least 2 hits, got {hits}: {truth:?} vs {:?}",
            output.heavy_hitters
        );
    }

    #[test]
    fn ablation_flags_change_behaviour_not_validity() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Syn);
        let cfg = config();
        for tap in [
            Tap::default(),
            Tap::without_shared_trie(),
            Tap::with_extension(ExtensionStrategy::Fixed(5)),
        ] {
            let output = run(&tap, &dataset, cfg);
            assert_eq!(output.heavy_hitters.len(), 5);
        }
    }

    #[test]
    fn party_run_initialisation_matches_dataset() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Ycm);
        let cfg = config();
        let mut observer = fedhh_federated::NullObserver;
        let ctx = RunContext::new(&dataset, cfg, &mut observer);
        let runs = PartyRun::initialise(&ctx).unwrap();
        assert_eq!(runs.len(), 4);
        for (run, party) in runs.iter().zip(dataset.parties()) {
            assert_eq!(run.users_total, party.user_count());
            assert_eq!(run.assignment.total_users(), party.user_count());
            assert_eq!(run.current, vec![0]);
        }
    }

    #[test]
    fn locals_rebuild_losslessly_from_reports_in_party_order() {
        let report = |party: &str, users: usize| CandidateReport {
            party: party.to_string(),
            level: 8,
            candidates: vec![(1, 10.0), (2, 5.0)],
            users,
        };
        let locals = locals_from_reports(&[(2, report("c", 30)), (0, report("a", 10))]);
        assert_eq!(locals.len(), 2);
        assert_eq!(locals[0].party, "a");
        assert_eq!(locals[0].users, 10);
        assert_eq!(locals[1].party, "c");
        assert_eq!(locals[0].local_heavy_hitters, vec![1, 2]);
        assert_eq!(locals[0].reported_counts, vec![(1, 10.0), (2, 5.0)]);
    }
}
