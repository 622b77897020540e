//! The fallible, observable run API: [`Run`] and [`RunContext`].
//!
//! [`Run`] is the single public entry point for executing a mechanism:
//!
//! ```
//! use fedhh_datasets::{DatasetConfig, DatasetKind};
//! use fedhh_federated::{ProtocolConfig, RecordingObserver};
//! use fedhh_mechanisms::{MechanismKind, Run};
//!
//! let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
//! let config = ProtocolConfig::test_default().with_epsilon(4.0).with_k(5);
//! let mut observer = RecordingObserver::new();
//! let output = Run::mechanism(MechanismKind::Taps)
//!     .dataset(&dataset)
//!     .config(config)
//!     .observer(&mut observer)
//!     .execute()
//!     .expect("valid configuration");
//! assert_eq!(output.heavy_hitters.len(), 5);
//! // The observer reconstructed the run's uplink traffic exactly.
//! assert_eq!(observer.total_uplink_bits(), output.comm.total_uplink_bits());
//! ```
//!
//! It validates the configuration and the dataset/config pairing up front,
//! wires a [`RunContext`] (dataset, config, communication tracker, seeded
//! RNG and observer handle) through the mechanism, and returns a typed
//! [`ProtocolError`] instead of panicking on any invalid input.

use crate::mechanism::{Mechanism, MechanismKind, MechanismOutput};
use fedhh_datasets::{FederatedDataset, ItemStream};
use fedhh_federated::{
    AdversaryModel, CommTracker, EngineConfig, LevelEstimated, PartyEvent, ProtocolConfig,
    ProtocolError, PruningDecision, RoundCollection, RunObserver, RunPhase, RunSummary, Session,
    SessionLink,
};
use fedhh_telemetry::{Counter, SpanGuard, SpanName, Telemetry};

/// Everything a mechanism needs while executing one run: the dataset, the
/// validated configuration, the communication tracker, the seeded randomness
/// root ([`RunContext::party_seed`]) and the observer handle.
///
/// Communication accounting and observer events are funnelled through the
/// same methods, so a recording observer reconstructs the tracker's totals
/// exactly: every bit of party → server traffic is attributed to one
/// [`LevelEstimated`] event.
pub struct RunContext<'a> {
    dataset: &'a FederatedDataset,
    config: ProtocolConfig,
    engine: EngineConfig,
    comm: CommTracker,
    observer: &'a mut dyn RunObserver,
    link: Option<SessionLink>,
    warm: Option<Vec<u64>>,
    telemetry: Telemetry,
    /// The currently open `phase` span; replaced on every
    /// [`RunContext::phase`] call so phases tile the run's timeline.
    phase_span: Option<SpanGuard>,
}

impl<'a> RunContext<'a> {
    /// Creates a context over a dataset and configuration, with the
    /// environment-default engine (see [`EngineConfig::from_env`]).
    ///
    /// Callers normally go through [`Run::execute`], which validates first;
    /// constructing a context directly does not validate.
    pub fn new(
        dataset: &'a FederatedDataset,
        config: ProtocolConfig,
        observer: &'a mut dyn RunObserver,
    ) -> Self {
        Self {
            dataset,
            config,
            engine: EngineConfig::from_env(),
            comm: CommTracker::new(),
            observer,
            link: None,
            warm: None,
            telemetry: Telemetry::disabled(),
            phase_span: None,
        }
    }

    /// Returns the context with a telemetry handle attached.  The handle
    /// fans out from here: sessions created by [`RunContext::session`]
    /// carry it into the engine and transport, and the uplink funnel
    /// ([`RunContext::level_estimated`]) mirrors every recorded upload
    /// into the trace.  Observation only — attaching a handle never
    /// changes a run's output.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// The run's telemetry handle (disabled unless one was attached).
    /// Party-side `level` spans open under the same handle, which the
    /// drivers' [`fedhh_federated::EstimateScratch`]es get from
    /// [`Session::scratch`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Returns the context with a different engine configuration.
    ///
    /// An engine with [`EngineConfig::chunk_size`] set pins the run's
    /// protocol configuration to chunked report-pipeline execution with
    /// that chunk size (bit-identical results; only resident memory
    /// changes).
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        if let Some(chunk) = engine.chunk {
            self.config.exec_mode = fedhh_federated::ExecMode::Chunked(chunk);
        }
        // The topology and quorum axes travel in the protocol config (the
        // wire handshake pins them federation-wide); an engine override
        // folds into the config the same way the chunk override does.
        if let Some(topology) = engine.topology {
            self.config.topology = topology;
        }
        if let Some(quorum) = engine.quorum {
            self.config.quorum = quorum;
        }
        self.engine = engine;
        self
    }

    /// Returns the context with a [`SessionLink`] attached, making the run
    /// one process of a distributed federation (see
    /// [`fedhh_federated::node`]).  The link is consumed by the first
    /// [`RunContext::session`] call.
    pub fn with_link(mut self, link: Option<SessionLink>) -> Self {
        self.link = link;
        self
    }

    /// The engine configuration (parallelism and fault plan) of this run.
    pub fn engine(&self) -> &EngineConfig {
        &self.engine
    }

    /// Creates the run's [`Session`] over `party_count` parties, attaching
    /// the context's [`SessionLink`] (if any) so distributed runs execute
    /// only their local parties.  Mechanisms must obtain their session here
    /// rather than calling [`Session::new`] directly — that is what routes
    /// a `fedhh-node` run's rounds through the coordinator exchange.
    pub fn session(&mut self, party_count: usize) -> Result<Session, ProtocolError> {
        // The config is the source of truth for the topology/quorum axes
        // (with_engine already folded any engine override into it); resolve
        // them into the engine the session actually runs, so a config that
        // arrived over the node handshake takes effect too.
        let resolved = self
            .engine
            .with_topology(self.config.topology)
            .with_quorum(self.config.quorum);
        let mut session = Session::with_link(&resolved, party_count, self.link.take())?;
        if self.telemetry.is_enabled() {
            session.set_telemetry(&self.telemetry);
        }
        Ok(session)
    }

    /// Returns the context with warm-start candidates attached (see
    /// [`Run::warm_start`]).
    pub fn with_warm_start(mut self, warm: Option<Vec<u64>>) -> Self {
        self.warm = warm;
        self
    }

    /// The dataset under analysis (borrowed for the run's full lifetime).
    pub fn dataset(&self) -> &'a FederatedDataset {
        self.dataset
    }

    /// Warm-start candidates for this run: full item codes a previous
    /// epoch discovered as heavy hitters.  Mechanisms graft these into
    /// their server-side candidate sets so persistent heavy items are
    /// never re-pruned (`None` for a cold run — the default).
    pub fn warm_candidates(&self) -> Option<&[u64]> {
        self.warm.as_deref()
    }

    /// The warm-start candidates truncated to `len`-bit prefixes, sorted
    /// and deduplicated — what a mechanism unions into its level-`len`
    /// server-side candidate set.  Empty for a cold run.
    pub fn warm_prefixes(&self, len: u8) -> Vec<u64> {
        let Some(warm) = self.warm.as_deref() else {
            return Vec::new();
        };
        let max_bits = self.config.max_bits;
        let mut prefixes: Vec<u64> = warm
            .iter()
            .map(|&code| fedhh_trie::Prefix::of_item(code, max_bits, len).value())
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        prefixes
    }

    /// The incremental-trie warm start (epoch service): unions the
    /// warm-start prefixes of length `len` into a server-side candidate
    /// set of `len`-bit values, so a persistent heavy item one epoch's
    /// noise pushed out of the set is never lost from the trie.  A cold run
    /// has no warm prefixes and keeps its exact one-shot candidate set,
    /// order included.
    pub fn graft_warm_prefixes(&self, candidates: &mut Vec<u64>, len: u8) {
        let warm = self.warm_prefixes(len);
        if !warm.is_empty() {
            candidates.extend(warm);
            candidates.sort_unstable();
            candidates.dedup();
        }
    }

    /// The resident item slice of party `party_index`, as a typed failure
    /// path: streamed parties — which hold no resident items — surface
    /// [`ProtocolError::StreamedParty`] instead of the panic documented on
    /// `PartyData::items()`.
    pub fn resident_items(&self, party_index: usize) -> Result<&'a [u64], ProtocolError> {
        let party = &self.dataset.parties()[party_index];
        party
            .try_items()
            .ok_or_else(|| ProtocolError::StreamedParty {
                party: party.name().to_string(),
            })
    }

    /// The item stream party `party_index` reports from: the honest
    /// dataset stream, unless the engine's scenario compromises the party
    /// under an input-poisoning or Sybil adversary, in which case the
    /// items are rewritten on the fly ([`ItemStream::map`]).  The rewrite
    /// is a pure per-item function, so the adversarial stream stays
    /// chunk-size independent and replays bit-identically at any
    /// parallelism.  Mechanisms must draw party items through here rather
    /// than calling `PartyData::stream` directly — that is what applies a
    /// scenario uniformly across every mechanism.
    pub fn party_stream(&self, party_index: usize) -> ItemStream {
        let stream = self.dataset.parties()[party_index].stream();
        let scenario = self.engine.scenario;
        let compromised = scenario.compromised_parties(self.dataset.party_count());
        if !compromised.get(party_index).copied().unwrap_or(false) {
            return stream;
        }
        let max_bits = self.config.max_bits;
        let code_mask = if max_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << max_bits) - 1
        };
        match scenario.adversary {
            AdversaryModel::InputPoison {
                target_prefix,
                prefix_len,
                ..
            } => {
                let len = prefix_len.min(max_bits);
                if len == 0 {
                    return stream;
                }
                let shift = u32::from(max_bits - len);
                let prefix = if len >= 64 {
                    target_prefix
                } else {
                    target_prefix & ((1u64 << len) - 1)
                };
                let low_mask = (1u64 << shift) - 1;
                stream.map(move |item| (prefix << shift) | (item & low_mask))
            }
            AdversaryModel::Sybil { target_item, .. } => {
                let item = target_item & code_mask;
                stream.map(move |_| item)
            }
            _ => stream,
        }
    }

    /// The protocol configuration of this run.
    pub fn config(&self) -> ProtocolConfig {
        self.config
    }

    /// The communication recorded so far.
    pub fn comm(&self) -> &CommTracker {
        &self.comm
    }

    /// The per-party noise-decorrelation seed derived from the run seed —
    /// the canonical randomness root every mechanism draws its per-party
    /// group assignment and perturbation seeds from.
    pub fn party_seed(&self, party_index: usize) -> u64 {
        self.config.seed ^ (party_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Announces a protocol phase to the observer.  Under telemetry the
    /// previous `phase` span closes and a new one opens, indexed by the
    /// phase's ordinal, so phases tile the run's timeline end to end.
    pub fn phase(&mut self, phase: RunPhase) {
        if self.telemetry.is_enabled() {
            let idx = match phase {
                RunPhase::SharedTrie => 0,
                RunPhase::LocalEstimation => 1,
                RunPhase::Aggregation => 2,
            };
            // Drop the old guard *before* opening the new span so the
            // recorded intervals do not overlap.
            self.phase_span = None;
            self.phase_span = Some(self.telemetry.span_idx(SpanName::Phase, idx));
        }
        self.observer.phase_started(phase);
    }

    /// Records one unit of per-level work: the in-party report traffic and
    /// any party → server upload it caused, then notifies the observer.
    ///
    /// This is the **only** way a mechanism records uplink traffic, which is
    /// what keeps observer events and [`CommTracker`] totals in lockstep.
    pub fn level_estimated(&mut self, event: LevelEstimated) {
        if event.report_bits > 0 {
            self.comm
                .record_local_reports(&event.party, event.report_bits);
        }
        if event.uplink_bits > 0 {
            self.comm.record_uplink(&event.party, event.uplink_bits);
            // Telemetry joins the same funnel that feeds the tracker and
            // the observer, so trace-derived uplink totals equal both by
            // construction — the reconciliation invariant is structural,
            // not a property any mechanism has to re-earn.
            self.telemetry
                .trace_uplink(&event.party, event.level, event.uplink_bits as u64);
        }
        self.observer.level_estimated(&event);
    }

    /// Records a party → server upload (a Phase I candidate report, a
    /// pruning dictionary, or the final top-k report) attributed to the
    /// level whose estimation it concludes, emitting the matching
    /// [`LevelEstimated`] event.  Mechanisms must route every upload through
    /// here (or [`RunContext::level_estimated`]) so the observer/tracker
    /// exactness invariant stays structural.
    pub fn record_upload(&mut self, party: &str, level: u8, candidates: usize, bits: usize) {
        self.level_estimated(LevelEstimated {
            party: party.to_string(),
            level,
            candidates,
            users: 0,
            report_bits: 0,
            uplink_bits: bits,
        });
    }

    /// Records in-party report traffic that belongs to a pruning validation
    /// rather than a level estimate.
    pub fn record_validation_reports(&mut self, party: &str, bits: usize) {
        if bits > 0 {
            self.comm.record_local_reports(party, bits);
        }
    }

    /// Records server → party traffic.
    pub fn record_downlink(&mut self, party: &str, bits: usize) {
        if bits > 0 {
            self.comm.record_downlink(party, bits);
            self.telemetry.add(Counter::DownlinkBits, bits as u64);
        }
    }

    /// Reports a consensus-based pruning decision to the observer.
    pub fn pruning_decision(&mut self, event: PruningDecision) {
        self.observer.pruning_decision(&event);
    }

    /// Replays a collected engine round into the run's accounting: every
    /// [`PartyEvent`] flows through the same funnels a sequential mechanism
    /// would use ([`RunContext::level_estimated`] and friends), in the
    /// collection's canonical party order, so observer events and
    /// [`CommTracker`] totals stay in lockstep no matter how many worker
    /// threads produced them.
    pub fn replay(&mut self, collection: &RoundCollection) {
        for (_, events) in &collection.events {
            for event in events {
                match event {
                    PartyEvent::Level(level) => self.level_estimated(level.clone()),
                    PartyEvent::Pruning(pruning) => self.pruning_decision(pruning.clone()),
                    PartyEvent::ValidationReports { party, bits } => {
                        self.record_validation_reports(party, *bits);
                    }
                }
            }
        }
    }

    /// Moves the accumulated communication out of the context (called once
    /// by the mechanism when assembling its [`MechanismOutput`]).
    pub fn take_comm(&mut self) -> CommTracker {
        std::mem::take(&mut self.comm)
    }

    fn finish(&mut self, mechanism: &str, output: &MechanismOutput) {
        // Close the final phase span before the run summary fires.
        self.phase_span = None;
        self.observer.run_finished(&RunSummary {
            mechanism: mechanism.to_string(),
            heavy_hitters: output.heavy_hitters.len(),
            uplink_bits: output.comm.total_uplink_bits(),
            downlink_bits: output.comm.total_downlink_bits(),
        });
    }
}

enum RunMechanism<'a> {
    Owned(Box<dyn Mechanism>),
    Borrowed(&'a dyn Mechanism),
}

impl RunMechanism<'_> {
    fn as_dyn(&self) -> &dyn Mechanism {
        match self {
            RunMechanism::Owned(mechanism) => mechanism.as_ref(),
            RunMechanism::Borrowed(mechanism) => *mechanism,
        }
    }
}

/// Builder for one federated heavy hitter run — the public entry point of
/// the execution API.
///
/// See the [module documentation](self) for a full example.
pub struct Run<'a> {
    mechanism: RunMechanism<'a>,
    dataset: Option<&'a FederatedDataset>,
    config: ProtocolConfig,
    engine: Option<EngineConfig>,
    observer: Option<&'a mut dyn RunObserver>,
    link: Option<SessionLink>,
    warm: Option<Vec<u64>>,
    telemetry: Telemetry,
}

impl<'a> Run<'a> {
    /// Starts a run of a mechanism constructed by name with its defaults.
    pub fn mechanism(kind: MechanismKind) -> Self {
        Self::from_mechanism(RunMechanism::Owned(kind.build()))
    }

    /// Starts a run of a custom mechanism instance (ablation variants such
    /// as `Taps::without_pruning()` go through here).
    pub fn custom(mechanism: &'a dyn Mechanism) -> Self {
        Self::from_mechanism(RunMechanism::Borrowed(mechanism))
    }

    fn from_mechanism(mechanism: RunMechanism<'a>) -> Self {
        Self {
            mechanism,
            dataset: None,
            config: ProtocolConfig::default(),
            engine: None,
            observer: None,
            link: None,
            warm: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the dataset to analyse (required).
    pub fn dataset(mut self, dataset: &'a FederatedDataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Sets the protocol configuration (defaults to
    /// [`ProtocolConfig::default`]).
    pub fn config(mut self, config: ProtocolConfig) -> Self {
        self.config = config;
        self
    }

    /// Configures the round engine: how many worker threads execute party
    /// work per round and which deployment faults the session injects.
    ///
    /// When not called, the engine defaults to [`EngineConfig::from_env`]:
    /// sequential, fault-free execution unless the `FEDHH_TEST_PARALLELISM`
    /// environment variable selects a worker count.  Results are
    /// bit-identical at any parallelism; only fault plans change outputs.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Attaches an observer that receives phase/level/pruning events.
    pub fn observer(mut self, observer: &'a mut dyn RunObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a telemetry sink: the run executes under a `run` span,
    /// phases/rounds/levels and the estimator kernels are timed, and every
    /// uplink record is mirrored into the trace.  The sink is strictly
    /// observational — [`MechanismOutput`] is bit-identical with or
    /// without it (the inertness invariant; see `ARCHITECTURE.md`).
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Attaches a [`SessionLink`], making this run one process of a
    /// distributed federation: the coordinator or a party process of a
    /// `fedhh-node` run.  Every process executes the same mechanism over
    /// the same (deterministically rebuilt) dataset; the link partitions
    /// the per-round party work and keeps the processes in lockstep.
    pub fn link(mut self, link: SessionLink) -> Self {
        self.link = Some(link);
        self
    }

    /// Warm-starts the run from a previous epoch's surviving heavy
    /// hitters: the mechanisms graft these full item codes into their
    /// server-side candidate sets (GTF per level; TAP/TAPS at the Phase
    /// I → II boundary) so persistent heavy items are never re-pruned.
    /// This is the epoch service's incremental-trie hook
    /// (`WarmStart::Previous` in `fedhh-federated`); one-shot runs leave
    /// it unset.
    pub fn warm_start(mut self, values: Vec<u64>) -> Self {
        self.warm = Some(values);
        self
    }

    /// Validates the request and executes the mechanism.
    ///
    /// Every failure mode — missing dataset, invalid configuration, or a
    /// dataset whose item codes do not match `max_bits` — surfaces as a
    /// [`ProtocolError`]; no user input can panic this path.
    pub fn execute(self) -> Result<MechanismOutput, ProtocolError> {
        let dataset = self.dataset.ok_or(ProtocolError::MissingDataset)?;
        self.config.validate()?;
        let engine = self.engine.unwrap_or_else(EngineConfig::from_env);
        engine.validate()?;
        if dataset.party_count() == 0 || dataset.total_users() == 0 {
            return Err(ProtocolError::EmptyDataset {
                dataset: dataset.name().to_string(),
            });
        }
        if dataset.code_bits() != self.config.max_bits {
            return Err(ProtocolError::BitWidthMismatch {
                dataset_bits: dataset.code_bits(),
                config_bits: self.config.max_bits,
            });
        }

        let mut null = fedhh_federated::NullObserver;
        let observer: &mut dyn RunObserver = match self.observer {
            Some(observer) => observer,
            None => &mut null,
        };
        let mechanism = self.mechanism.as_dyn();
        // Declared before the context so the `run` span closes after the
        // context's final phase span — spans nest properly in the trace.
        let _run_span = self.telemetry.span(SpanName::Run);
        let mut ctx = RunContext::new(dataset, self.config, observer)
            .with_engine(engine)
            .with_link(self.link)
            .with_warm_start(self.warm)
            .with_telemetry(&self.telemetry);
        let output = mechanism.execute(&mut ctx)?;
        ctx.finish(mechanism.name(), &output);
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhh_datasets::{DatasetConfig, DatasetKind};
    use fedhh_federated::RecordingObserver;

    fn dataset() -> FederatedDataset {
        DatasetConfig::test_scale().build(DatasetKind::Rdb)
    }

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            k: 5,
            epsilon: 4.0,
            max_bits: 16,
            granularity: 8,
            ..Default::default()
        }
    }

    #[test]
    fn builder_runs_every_mechanism_kind() {
        let dataset = dataset();
        for kind in MechanismKind::ALL {
            let output = Run::mechanism(kind)
                .dataset(&dataset)
                .config(config())
                .execute()
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(!output.heavy_hitters.is_empty(), "{kind}");
        }
    }

    #[test]
    fn missing_dataset_is_reported_not_panicked() {
        let err = Run::mechanism(MechanismKind::Taps)
            .config(config())
            .execute()
            .unwrap_err();
        assert_eq!(err, ProtocolError::MissingDataset);
    }

    #[test]
    fn bit_width_mismatch_is_detected() {
        let dataset = dataset(); // 16-bit codes
        let err = Run::mechanism(MechanismKind::FedPem)
            .dataset(&dataset)
            .config(ProtocolConfig::default()) // max_bits = 48
            .execute()
            .unwrap_err();
        assert_eq!(
            err,
            ProtocolError::BitWidthMismatch {
                dataset_bits: 16,
                config_bits: 48
            }
        );
    }

    #[test]
    fn invalid_config_surfaces_before_execution() {
        let dataset = dataset();
        let err = Run::mechanism(MechanismKind::Gtf)
            .dataset(&dataset)
            .config(ProtocolConfig { k: 0, ..config() })
            .execute()
            .unwrap_err();
        assert_eq!(err, ProtocolError::InvalidQuery { k: 0 });
    }

    #[test]
    fn observer_sees_phases_levels_and_summary() {
        let dataset = dataset();
        let mut observer = RecordingObserver::new();
        let output = Run::mechanism(MechanismKind::Taps)
            .dataset(&dataset)
            .config(config())
            .observer(&mut observer)
            .execute()
            .unwrap();
        assert!(!observer.phases().is_empty());
        assert!(observer.level_events().count() > 0);
        let summary = observer.summary().expect("run_finished fired");
        assert_eq!(summary.mechanism, "TAPS");
        assert_eq!(summary.heavy_hitters, output.heavy_hitters.len());
        assert_eq!(summary.uplink_bits, output.comm.total_uplink_bits());
    }

    #[test]
    fn resident_items_is_typed_for_streamed_parties() {
        let eager = dataset();
        let mut null = fedhh_federated::NullObserver;
        let ctx = RunContext::new(&eager, config(), &mut null);
        assert!(ctx.resident_items(0).is_ok());

        let streamed = DatasetConfig::test_scale().build_streamed(DatasetKind::Rdb);
        let mut null = fedhh_federated::NullObserver;
        let ctx = RunContext::new(&streamed, config(), &mut null);
        let err = ctx.resident_items(0).unwrap_err();
        match err {
            ProtocolError::StreamedParty { party } => {
                assert_eq!(party, streamed.parties()[0].name());
            }
            other => panic!("expected StreamedParty, got {other}"),
        }
    }

    #[test]
    fn warm_start_flows_into_the_context_and_changes_nothing_when_empty() {
        let dataset = dataset();
        let cold = Run::mechanism(MechanismKind::Gtf)
            .dataset(&dataset)
            .config(config())
            .execute()
            .unwrap();
        // An empty warm set grafts nothing: output is bit-identical.
        let warm_empty = Run::mechanism(MechanismKind::Gtf)
            .dataset(&dataset)
            .config(config())
            .warm_start(Vec::new())
            .execute()
            .unwrap();
        assert_eq!(cold.heavy_hitters, warm_empty.heavy_hitters);
        assert_eq!(cold.counts, warm_empty.counts);
        // Warm-starting from the run's own output is a fixed point.
        let warm = Run::mechanism(MechanismKind::Gtf)
            .dataset(&dataset)
            .config(config())
            .warm_start(cold.heavy_hitters.clone())
            .execute()
            .unwrap();
        assert_eq!(warm.heavy_hitters.len(), config().k);
    }

    #[test]
    fn custom_mechanism_instances_run_through_the_builder() {
        let dataset = dataset();
        let taps = crate::taps::Taps::without_pruning();
        let output = Run::custom(&taps)
            .dataset(&dataset)
            .config(config())
            .execute()
            .unwrap();
        assert_eq!(output.heavy_hitters.len(), 5);
    }
}
