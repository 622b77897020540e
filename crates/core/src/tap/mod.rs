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
//! As an engine protocol TAP is two rounds, each running every active party
//! concurrently: Phase I uploads the level-g_s candidate reports, the server
//! seeds every party with the shared prefixes, and Phase II descends to
//! level g and uploads the final top-k reports.  TAPS is the same routine
//! (`two_phase`) on a different Phase II schedule — the pruning chain of
//! [`crate::taps`] — so TAPS without pruning *is* TAP.

pub mod stc;

use crate::aggregate::final_output;
use crate::extension::ExtensionStrategy;
use crate::mechanism::{Mechanism, MechanismOutput};
use crate::pem::{PartyRun, Report, Seeding};
use crate::run::RunContext;
use crate::taps::{self, ChainLink, ChainSlot};
use fedhh_federated::{
    Broadcast, EstimateScratch, LevelEstimator, PartyDriver, ProtocolError, RoundCollection,
    RoundInput, RoundOutcome, RunPhase, Session,
};
use std::ops::RangeInclusive;
use std::time::Instant;

/// One party's round of a TAP/TAPS run: descend `levels` — inside the TAPS
/// chain, pruning around each level and uploading the dictionary for the
/// successor — then upload `report`, if the round collects one.
pub(crate) struct DescentDriver<'a> {
    pub(crate) party: &'a mut PartyRun,
    pub(crate) estimator: &'a LevelEstimator,
    pub(crate) levels: RangeInclusive<u8>,
    pub(crate) extension: ExtensionStrategy,
    /// The party's place in the TAPS pruning chain, in a chain round.
    pub(crate) chain: Option<ChainSlot>,
    pub(crate) report: Option<Report>,
    /// Per-driver estimation arena (levels and validation splits).
    pub(crate) scratch: EstimateScratch,
}

impl PartyDriver for DescentDriver<'_> {
    fn party(&self) -> &str {
        &self.party.name
    }

    fn run_round(&mut self, input: &RoundInput) -> Result<RoundOutcome, ProtocolError> {
        let mut round = RoundOutcome::default();
        let mut link = self
            .chain
            .map(|slot| ChainLink::new(slot, &input.broadcast));
        self.party.descend(
            &mut self.scratch,
            self.estimator,
            self.levels.clone(),
            self.extension,
            link.as_mut(),
            &mut round,
        );
        let config = self.estimator.config();
        if let Some(link) = link {
            link.upload(self.party, config.granularity, &mut round);
        }
        if let Some(report) = self.report {
            self.party.upload_report(report, config, &mut round);
        }
        Ok(round)
    }
}

/// What a TAP/TAPS run carries from round to round.
pub(crate) struct TwoPhaseRun<'a> {
    pub(crate) session: Session,
    pub(crate) parties: Vec<PartyRun>,
    pub(crate) estimator: &'a LevelEstimator,
    pub(crate) extension: ExtensionStrategy,
}

impl TwoPhaseRun<'_> {
    /// Runs one round over every active party, outside the pruning chain:
    /// each party descends `levels` and uploads `report`.  With no level
    /// left to run it is the closing round of TAPS.
    pub(crate) fn round(
        &mut self,
        ctx: &mut RunContext<'_>,
        levels: RangeInclusive<u8>,
        report: Report,
    ) -> Result<RoundCollection, ProtocolError> {
        let input = RoundInput {
            round: self.session.rounds_completed(),
            broadcast: Broadcast::Start,
        };
        let mut drivers: Vec<DescentDriver<'_>> = self
            .parties
            .iter_mut()
            .map(|party| DescentDriver {
                party,
                estimator: self.estimator,
                levels: levels.clone(),
                extension: self.extension,
                chain: None,
                report: Some(report),
                scratch: self.session.scratch(),
            })
            .collect();
        let active = self.session.active_parties();
        let collection = self.session.run_round(&mut drivers, &active, &input)?;
        ctx.replay(&collection);
        Ok(collection)
    }
}

/// TAP and TAPS: Phase I, the shared-prefix hand-over, then Phase II on
/// the schedule `use_pruning` selects — one parallel round that also
/// uploads the final reports (TAP), or the solo pruning chain followed by
/// a final-report round (TAPS) — and the final aggregation.
pub(crate) fn two_phase(
    ctx: &mut RunContext<'_>,
    extension: ExtensionStrategy,
    use_shared_trie: bool,
    use_pruning: bool,
) -> Result<MechanismOutput, ProtocolError> {
    let config = ctx.config();
    let start = Instant::now();
    let estimator = LevelEstimator::new(config)?;
    let mut run = TwoPhaseRun {
        session: ctx.session(ctx.dataset().party_count())?,
        parties: PartyRun::initialise(ctx, Seeding::Tap)?,
        estimator: &estimator,
        extension,
    };
    let gs = config.shared_levels();

    // Phase I: shared shallow trie construction (Algorithm 2).  A warm
    // start grafts the previous epoch's heavy hitters into its result, so
    // they descend even if this epoch's shallow estimation missed them.
    let mut shared = stc::shared_trie_construction(&mut run, ctx)?;
    let shared_len = config.schedule().prefix_len(gs);
    ctx.graft_warm_prefixes(&mut shared, shared_len);
    if use_shared_trie {
        for idx in run.session.active_parties() {
            run.parties[idx].adopt(&shared, shared_len);
        }
    }

    // Phase II: independent estimation from the shared prefixes.
    ctx.phase(RunPhase::LocalEstimation);
    let levels = (gs + 1)..=config.granularity;
    let final_reports = if use_pruning {
        taps::pruning_chain(&mut run, ctx, levels)?
    } else {
        let collection = run.round(ctx, levels, Report::TopK)?;
        ctx.phase(RunPhase::Aggregation);
        collection
    };
    Ok(final_output(ctx, &final_reports, start))
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
        two_phase(ctx, self.extension, self.use_shared_trie, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Run;
    use fedhh_datasets::{DatasetConfig, DatasetKind, FederatedDataset};
    use fedhh_federated::ProtocolConfig;

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
        let ctx = RunContext::new(&dataset, cfg);
        let runs = PartyRun::initialise(&ctx, Seeding::Tap).unwrap();
        assert_eq!(runs.len(), 4);
        for (run, party) in runs.iter().zip(dataset.parties()) {
            assert_eq!(run.users_total, party.user_count());
            assert_eq!(run.assignment.total_users(), party.user_count());
            assert_eq!(run.current, vec![0]);
        }
    }
}
