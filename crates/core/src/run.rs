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
//! // The recorder folds the same event stream the output's tracker does.
//! assert_eq!(observer.comm(), output.comm);
//! ```
//!
//! It validates the configuration, the dataset/config pairing and any
//! warm-start codes up front, wires a [`RunContext`] (dataset, config,
//! seeded RNG and the run's one event stream) through the mechanism, and
//! returns a typed [`ProtocolError`] instead of panicking on any invalid
//! input.

use crate::mechanism::{Mechanism, MechanismKind, MechanismOutput};
use fedhh_datasets::{FederatedDataset, ItemStream};
use fedhh_federated::{
    AdversaryModel, CommTracker, EngineConfig, PartyEvent, ProtocolConfig, ProtocolError,
    RecordingObserver, RoundCollection, RunEvent, RunPhase, RunSummary, Session, SessionLink,
};
use fedhh_telemetry::{Counter, SpanGuard, SpanName, Telemetry};

/// Everything a mechanism needs while executing one run: the dataset, the
/// validated configuration, the seeded randomness root
/// ([`RunContext::party_seed`]) and the run's event stream.
///
/// Every phase, replayed party event, downlink and the closing summary
/// leaves the context as one [`RunEvent`] through one private `emit`,
/// which folds it into the run's [`CommTracker`], lets telemetry subscribe
/// and appends it to the attached [`RecordingObserver`] — so the
/// recorder's totals equal the output's by construction.
pub struct RunContext<'a> {
    dataset: &'a FederatedDataset,
    config: ProtocolConfig,
    engine: EngineConfig,
    comm: CommTracker,
    observer: Option<&'a mut RecordingObserver>,
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
    pub fn new(dataset: &'a FederatedDataset, config: ProtocolConfig) -> Self {
        Self {
            dataset,
            config,
            engine: EngineConfig::from_env(),
            comm: CommTracker::new(),
            observer: None,
            link: None,
            warm: None,
            telemetry: Telemetry::disabled(),
            phase_span: None,
        }
    }

    /// The run's telemetry handle (disabled unless one was attached).
    /// Party-side `level` spans open under the same handle, which the
    /// drivers' [`fedhh_federated::EstimateScratch`]es get from
    /// [`Session::scratch`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine configuration (parallelism, scenario plan and transport)
    /// of this run.
    pub fn engine(&self) -> &EngineConfig {
        &self.engine
    }

    /// Creates the run's [`Session`] over `party_count` parties, attaching
    /// the context's [`SessionLink`] (if any) so distributed runs execute
    /// only their local parties.  Mechanisms must obtain their session here
    /// rather than calling [`Session::new`] directly — that is what routes
    /// a `fedhh-node` run's rounds through the coordinator exchange.
    pub fn session(&mut self, party_count: usize) -> Result<Session, ProtocolError> {
        let mut session = Session::with_link(&self.engine, party_count, self.link.take())?;
        if self.telemetry.is_enabled() {
            session.set_telemetry(&self.telemetry);
        }
        Ok(session)
    }

    /// The dataset under analysis (borrowed for the run's full lifetime).
    pub fn dataset(&self) -> &'a FederatedDataset {
        self.dataset
    }

    /// The warm-start candidates (full item codes a previous epoch
    /// discovered as heavy hitters) truncated to `len`-bit prefixes, sorted
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

    /// The item stream party `party_index` reports from: the honest
    /// dataset stream, unless the engine's scenario compromises the party
    /// under an input-poisoning or Sybil adversary, in which case the
    /// items are rewritten into a new stream ([`ItemStream::map`]).  The
    /// rewrite is a pure per-item function, so the adversarial stream
    /// replays bit-identically at any parallelism.  Mechanisms must draw
    /// party items through here rather than calling `PartyData::stream`
    /// directly — that is what applies a scenario uniformly across every
    /// mechanism.
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

    /// Announces a protocol phase.  Under telemetry the previous `phase`
    /// span closes and a new one opens, indexed by the phase's ordinal, so
    /// phases tile the run's timeline end to end.
    pub fn phase(&mut self, phase: RunPhase) {
        self.emit(RunEvent::PhaseStarted(phase));
    }

    /// Records server → party traffic.
    pub fn record_downlink(&mut self, party: &str, bits: usize) {
        if bits > 0 {
            self.emit(RunEvent::Downlink {
                party: party.to_string(),
                bits,
            });
        }
    }

    /// Replays a collected engine round into the run's event stream: every
    /// [`PartyEvent`] is emitted in the collection's canonical party order,
    /// so the stream — and every fold of it — is the same no matter how
    /// many worker threads produced the round.  This is the only way party
    /// traffic (level estimates, uploads, pruning validation) enters the
    /// run's accounting.
    pub fn replay(&mut self, collection: &RoundCollection) {
        for (_, events) in &collection.events {
            for event in events {
                self.emit(RunEvent::Party(event.clone()));
            }
        }
    }

    /// Moves the accumulated communication out of the context (called once
    /// by the mechanism when assembling its [`MechanismOutput`]).
    pub fn take_comm(&mut self) -> CommTracker {
        std::mem::take(&mut self.comm)
    }

    /// The run's one event funnel: telemetry subscribes first (phase spans,
    /// the uplink trace, the downlink counter), then the event is folded
    /// into the tracker and appended to the attached recorder.
    fn emit(&mut self, event: RunEvent) {
        match &event {
            RunEvent::PhaseStarted(phase) if self.telemetry.is_enabled() => {
                // Drop the old guard *before* opening the new span so the
                // recorded intervals do not overlap.
                self.phase_span = None;
                self.phase_span = Some(self.telemetry.span_idx(SpanName::Phase, *phase as u64));
            }
            RunEvent::Party(PartyEvent::Level(level)) if level.uplink_bits > 0 => {
                self.telemetry
                    .trace_uplink(&level.party, level.level, level.uplink_bits as u64);
            }
            RunEvent::Downlink { bits, .. } => {
                self.telemetry.add(Counter::DownlinkBits, *bits as u64);
            }
            // The final phase span closes before the run summary lands.
            RunEvent::RunFinished(_) => self.phase_span = None,
            _ => {}
        }
        self.comm.record(&event);
        if let Some(observer) = self.observer.as_deref_mut() {
            observer.events.push(event);
        }
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
    observer: Option<&'a mut RecordingObserver>,
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
    /// bit-identical at any parallelism; only scenario plans change outputs.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Attaches a recorder that receives the run's event stream.
    pub fn observer(mut self, observer: &'a mut RecordingObserver) -> Self {
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
    /// Every failure mode — missing dataset, invalid configuration, a
    /// dataset whose item codes do not match `max_bits`, or a warm-start
    /// code wider than `max_bits` — surfaces as a [`ProtocolError`]; no
    /// user input can panic this path.
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
            return Err(ProtocolError::InvalidParameter {
                name: "max_bits",
                value: self.config.max_bits.to_string(),
                rule: format!("equal the dataset's {}-bit code width", dataset.code_bits()),
            });
        }

        // Warm-start codes arrive from checkpoint files; one wider than the
        // code width would otherwise be truncated into an unrelated prefix.
        let max_bits = self.config.max_bits;
        let out_of_range = |code: &&u64| {
            code.checked_shr(max_bits.into())
                .is_some_and(|high| high != 0)
        };
        if let Some(&code) = self.warm.iter().flatten().find(out_of_range) {
            return Err(ProtocolError::InvalidParameter {
                name: "warm-start code",
                value: format!("{code:#x}"),
                rule: format!("fit in max_bits = {max_bits}"),
            });
        }
        let mechanism = self.mechanism.as_dyn();
        // Declared before the context so the `run` span closes after the
        // context's final phase span — spans nest properly in the trace.
        let _run_span = self.telemetry.span(SpanName::Run);
        let mut ctx = RunContext {
            engine,
            observer: self.observer,
            link: self.link,
            warm: self.warm,
            telemetry: self.telemetry,
            ..RunContext::new(dataset, self.config)
        };
        let output = mechanism.execute(&mut ctx)?;
        ctx.emit(RunEvent::RunFinished(RunSummary {
            mechanism: mechanism.name().to_string(),
            heavy_hitters: output.heavy_hitters.len(),
            uplink_bits: output.comm.total_uplink_bits(),
            downlink_bits: output.comm.total_downlink_bits(),
        }));
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
        assert!(matches!(
            err,
            ProtocolError::InvalidParameter {
                name: "max_bits",
                ..
            }
        ));
        assert_eq!(
            err.to_string(),
            "max_bits must equal the dataset's 16-bit code width, got 48"
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
        assert!(matches!(
            err,
            ProtocolError::InvalidParameter {
                name: "query k",
                ..
            }
        ));
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

    /// Every way into the context's event stream lands, in call order, in
    /// both folds: the tracker the output takes and the attached recorder.
    /// A zero-bit downlink is no event at all.
    #[test]
    fn context_emits_every_event_to_the_tracker_and_the_recorder() {
        use fedhh_federated::LevelEstimated;
        let dataset = dataset();
        let mut observer = RecordingObserver::new();
        let mut ctx = RunContext::new(&dataset, config());
        ctx.observer = Some(&mut observer);
        ctx.phase(RunPhase::LocalEstimation);
        ctx.record_downlink("a", 0);
        ctx.record_downlink("a", 48);
        let level = PartyEvent::Level(LevelEstimated {
            party: "b".into(),
            level: 2,
            candidates: 4,
            users: 10,
            report_bits: 320,
            uplink_bits: 96,
        });
        let validation = PartyEvent::ValidationReports {
            party: "b".into(),
            bits: 64,
        };
        ctx.replay(&RoundCollection {
            round: 0,
            messages: Vec::new(),
            events: vec![(1, vec![level.clone(), validation.clone()])],
        });
        let comm = ctx.take_comm();
        assert_eq!(comm.total_uplink_bits(), 96);
        assert_eq!(comm.total_downlink_bits(), 48);
        assert_eq!(comm.total_local_report_bits(), 384);
        assert_eq!(observer.comm(), comm);
        assert_eq!(
            observer.events,
            vec![
                RunEvent::PhaseStarted(RunPhase::LocalEstimation),
                RunEvent::Downlink {
                    party: "a".into(),
                    bits: 48
                },
                RunEvent::Party(level),
                RunEvent::Party(validation),
            ]
        );
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
