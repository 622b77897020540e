//! The round-driven federation engine: [`EngineConfig`], [`PartyDriver`]
//! and [`Session`].
//!
//! The paper's protocols are round-structured — parties do per-level work,
//! the server collects their uploads, aggregates, and broadcasts the next
//! round's input — but a naive implementation buries that structure in
//! per-mechanism loops.  The engine makes it explicit:
//!
//! 1. a mechanism wraps each party's per-round work in a [`PartyDriver`];
//! 2. [`Session::run_round`] executes the active drivers — concurrently
//!    under [`std::thread::scope`] when [`EngineConfig::parallelism`] > 1 —
//!    and routes every upload through the session's [`Transport`];
//! 3. the session drains the transport into the canonical `(round, from)`
//!    order, applies the [`ScenarioPlan`] (dropout, straggler reordering,
//!    adversarial report perturbation), and hands the mechanism a
//!    [`RoundCollection`] to aggregate and broadcast from.
//!
//! Parties are the engine's first unit of parallel work; the second is a
//! contiguous range of one level's users.  Workers a round leaves without a
//! party are counted in the session's [`IdleWorkers`], and a level
//! estimated with a scratch from [`Session::scratch`] borrows them for part
//! of its group — so one dominant party, or a round with a single party, no longer pins the
//! round to one core.
//!
//! Because drivers derive all randomness from per-party seeds and the
//! collection order is canonical, a round's result is **bit-identical** at
//! any parallelism level: threads only change who computes, never what is
//! computed or in which order it is consumed.  The same holds under a
//! [`ScenarioPlan`] with an adversary: compromised parties perturb their own
//! uploads as a pure function of `(plan, seed, party, round)`, so honest
//! parties — and the attack itself — replay bit-identically.

use crate::error::ProtocolError;
use crate::estimator::EstimateScratch;
use crate::fault::FaultPlan;
use crate::message::{MergedSupports, PruneDictionary, RoundMessage, RoundPayload};
use crate::node::SessionLink;
use crate::observer::{LevelEstimated, PruningDecision};
use crate::scenario::{apply_report_flip, AdversaryModel, FlipMode, ScenarioPlan};
use crate::socket::SocketTransport;
use crate::topology::{QuorumPolicy, Topology};
use crate::transport::{canonical_sort, ShardedTransport, Transport};
use fedhh_telemetry::{Counter, SpanName, Telemetry, ValueHist};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which [`Transport`] implementation a session routes its uploads through.
///
/// The choice never affects results — every transport drains into the same
/// canonical order — only how the bytes move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// The in-process [`ShardedTransport`], one shard per worker.  A
    /// scenario that corrupts frames needs frames to corrupt, so under
    /// [`AdversaryModel::CorruptFrames`] this routes to the socket
    /// transport instead.
    #[default]
    InProcess,
    /// The loopback [`SocketTransport`]: every upload crosses a real TCP
    /// socket in the `fedhh-wire` frame format.
    Tcp,
}

/// How a session executes party work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Number of worker threads party work is spread over per round
    /// (1 = sequential in the calling thread).
    pub parallelism: usize,
    /// The scenario the session injects: benign deployment faults plus an
    /// optional adversary model (see [`crate::scenario`]).
    pub scenario: ScenarioPlan,
    /// The transport the session's uploads travel through.
    pub transport: TransportKind,
    /// When set, pins the aggregation topology for the whole run (see
    /// [`EngineConfig::with_topology`]); `None` leaves the protocol
    /// configuration's `topology` in charge.
    pub topology: Option<Topology>,
    /// When set, pins the quorum-closure policy for the whole run; `None`
    /// leaves the protocol configuration's `quorum` in charge.
    pub quorum: Option<QuorumPolicy>,
}

impl EngineConfig {
    /// A sequential, fault-free engine.
    pub fn sequential() -> Self {
        Self {
            parallelism: 1,
            scenario: ScenarioPlan::benign(),
            transport: TransportKind::InProcess,
            topology: None,
            quorum: None,
        }
    }

    /// An engine with `parallelism` workers and no faults.
    pub fn parallel(parallelism: usize) -> Self {
        Self {
            parallelism,
            ..Self::sequential()
        }
    }

    /// Returns a copy with a benign-fault plan installed (the legacy entry
    /// point, kept as the benign corner of [`EngineConfig::with_scenario`]):
    /// the scenario's adversary model is reset to [`AdversaryModel::None`].
    pub fn with_faults(self, faults: FaultPlan) -> Self {
        self.with_scenario(ScenarioPlan::from_faults(faults))
    }

    /// Returns a copy with a full scenario installed: benign faults plus an
    /// adversary model (see [`crate::scenario`]).
    pub fn with_scenario(mut self, scenario: ScenarioPlan) -> Self {
        self.scenario = scenario;
        self
    }

    /// The benign-fault corner of the configured scenario.
    pub fn faults(&self) -> &FaultPlan {
        &self.scenario.faults
    }

    /// Returns a copy routing uploads through the given transport.
    ///
    /// [`TransportKind::Tcp`] sends every upload across a real loopback
    /// socket; results are bit-identical to the in-process transport.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Returns `self` unchanged: the report pipeline's chunk size is fixed
    /// inside the level estimator, not a setting.  Kept only for the
    /// benchmark crate (`benchmark/src/workload.rs` is its one caller); the
    /// next change to the benchmark deletes it with
    /// [`ExecMode`](crate::ExecMode) and [`FoExec`](crate::FoExec).
    ///
    /// ```
    /// use fedhh_federated::EngineConfig;
    /// use std::num::NonZeroUsize;
    ///
    /// let chunk = NonZeroUsize::new(8192).expect("non-zero");
    /// assert_eq!(EngineConfig::parallel(4).chunk_size(chunk), EngineConfig::parallel(4));
    /// ```
    #[doc(hidden)]
    pub fn chunk_size(self, _chunk: std::num::NonZeroUsize) -> Self {
        self
    }

    /// Returns a copy that pins the aggregation topology for the whole
    /// run.  [`Topology::Tree`] routes uploads through cohort-level
    /// sub-aggregators; at quorum 1.0 its results are **bit-identical** to
    /// [`Topology::Flat`] for every mechanism (merging is lossless), only
    /// the root-inbound frame and byte counts change.
    ///
    /// ```
    /// use fedhh_federated::{EngineConfig, Topology};
    ///
    /// let engine = EngineConfig::parallel(4).with_topology(Topology::Tree {
    ///     fanout: 8,
    ///     depth: 1,
    /// });
    /// assert_eq!(engine.topology, Some(Topology::Tree { fanout: 8, depth: 1 }));
    /// ```
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Returns a copy that pins quorum-based round closure: each round
    /// closes once the configured response fraction is reached, the
    /// on-time set a pure function of `(seed, round)` — never of thread
    /// or socket timing — so partial-quorum runs replay bit-identically
    /// at any parallelism.
    pub fn with_quorum(mut self, quorum: QuorumPolicy) -> Self {
        self.quorum = Some(quorum);
        self
    }

    /// The engine used when a run does not configure one explicitly: the
    /// `FEDHH_TEST_PARALLELISM` environment variable (the CI matrix knob)
    /// selects the worker count, defaulting to sequential.  Invalid values
    /// are ignored rather than erroring, since the variable is test-only.
    pub fn from_env() -> Self {
        let parallelism = std::env::var("FEDHH_TEST_PARALLELISM")
            .ok()
            .and_then(|v| parse_parallelism(&v))
            .unwrap_or(1);
        Self {
            parallelism,
            ..Self::sequential()
        }
    }

    /// Validates the engine parameters.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.parallelism == 0 {
            return Err(ProtocolError::InvalidParallelism {
                parallelism: self.parallelism,
            });
        }
        if let Some(topology) = self.topology {
            topology.validate()?;
        }
        if let Some(quorum) = self.quorum {
            if !quorum.is_valid() {
                return Err(ProtocolError::InvalidQuorum {
                    fraction: quorum.fraction,
                });
            }
        }
        self.scenario.validate()
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

/// Parses a positive worker count (the `FEDHH_TEST_PARALLELISM` format).
pub(crate) fn parse_parallelism(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|p| *p >= 1)
}

/// A session's count of idle engine workers — the token pool through which
/// a `Vectorized` level borrows the workers a round leaves without a party
/// (see [`Session::scratch`]).
///
/// The count is `parallelism − party threads` when a round starts, grows by
/// one whenever a party thread finishes its list, and is 0 between rounds.
/// A level takes tokens with one compare-and-swap that never waits and
/// returns them when its helper threads have joined, so party threads plus
/// level helpers never exceed [`EngineConfig::parallelism`].  The default
/// handle is detached — attached to no session, as in every scratch not made
/// by one — and never has a token.
#[derive(Debug, Clone, Default)]
pub struct IdleWorkers(Option<Arc<WorkerCounts>>);

/// Every access is `Relaxed`: the counts publish no data.  What a helper
/// reads and writes crosses threads through its scoped spawn and join, which
/// synchronise on their own; a token only says a thread may be started.
#[derive(Debug, Default)]
struct WorkerCounts {
    idle: AtomicUsize,
    /// Threads doing party or level work right now, and the most there
    /// ever were — the measured side of the `parallelism` cap.
    busy: AtomicUsize,
    peak_busy: AtomicUsize,
    /// Tokens ever taken: a count tests can assert exactly, where
    /// `peak_busy` depends on whether helpers happened to overlap.
    #[cfg(test)]
    lent: AtomicUsize,
}

/// Marks the current thread as doing party or level work until dropped.
pub(crate) struct Working<'a>(Option<&'a WorkerCounts>);

impl Drop for Working<'_> {
    fn drop(&mut self) {
        if let Some(counts) = self.0 {
            counts.busy.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl IdleWorkers {
    fn attached() -> Self {
        Self(Some(Arc::default()))
    }

    /// The idle workers a level could borrow right now.
    pub fn available(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |counts| counts.idle.load(Ordering::Relaxed))
    }

    /// The most threads that ever did party or level work at the same time
    /// under this session.
    pub fn peak_busy(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |counts| counts.peak_busy.load(Ordering::Relaxed))
    }

    fn set(&self, idle: usize) {
        if let Some(counts) = &self.0 {
            counts.idle.store(idle, Ordering::Relaxed);
        }
    }

    /// Takes up to `want` idle workers — one compare-and-swap, no retry, so
    /// a contended count reads as "none idle" instead of a wait.
    pub(crate) fn try_acquire(&self, want: usize) -> usize {
        let Some(counts) = &self.0 else { return 0 };
        let idle = counts.idle.load(Ordering::Relaxed);
        let take = idle.min(want);
        if take == 0 {
            return 0;
        }
        let swapped =
            counts
                .idle
                .compare_exchange(idle, idle - take, Ordering::Relaxed, Ordering::Relaxed);
        if swapped.is_ok() {
            #[cfg(test)]
            counts.lent.fetch_add(take, Ordering::Relaxed);
            take
        } else {
            0
        }
    }

    /// Returns `count` workers to the pool.
    pub(crate) fn release(&self, count: usize) {
        if let (Some(counts), true) = (&self.0, count > 0) {
            counts.idle.fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Counts the current thread as busy until the guard drops.  A thread
    /// that held a token must drop its guard *before* the token returns, so
    /// the busy count can never overshoot the cap.
    pub(crate) fn enter(&self) -> Working<'_> {
        let counts = self.0.as_deref();
        if let Some(counts) = counts {
            let busy = counts.busy.fetch_add(1, Ordering::Relaxed) + 1;
            counts.peak_busy.fetch_max(busy, Ordering::Relaxed);
        }
        Working(counts)
    }
}

/// The server → party broadcast opening a round.
#[derive(Debug, Clone, PartialEq)]
pub enum Broadcast {
    /// No server input: run your locally scheduled work.
    Start,
    /// A server-filtered candidate set (GTF's per-level global candidates,
    /// TAP/TAPS' Phase I shared prefixes).
    Candidates {
        /// The candidate prefix values.
        values: Vec<u64>,
        /// Length in bits of each value.
        value_len: u8,
        /// The first trie level this candidate set seeds.
        level: u8,
    },
    /// The pruning dictionary handed over from the previous party in the
    /// TAPS chain, with that party's population for the γ term.
    Dictionary {
        /// The predecessor's pruning dictionary.
        dictionary: PruneDictionary,
        /// The predecessor's user population |U_prev|.
        holder_users: usize,
    },
}

/// One round's server broadcast, as delivered to every active driver.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundInput {
    /// The engine round number (0-based, monotonically increasing across
    /// the whole session, phases included).
    pub round: u32,
    /// The broadcast payload.
    pub broadcast: Broadcast,
}

/// A local event produced by a party during a round, replayed into the
/// run's observer/communication accounting in canonical party order after
/// the round completes.  Routing events through the collection — instead of
/// letting drivers touch shared state — is what keeps parallel rounds
/// bit-identical to sequential ones.
#[derive(Debug, Clone, PartialEq)]
pub enum PartyEvent {
    /// One trie level was estimated (or an upload concluded one).
    Level(LevelEstimated),
    /// A consensus-based pruning decision was taken.
    Pruning(PruningDecision),
    /// In-party report traffic spent on pruning validation.
    ValidationReports {
        /// The validating party.
        party: String,
        /// The validation traffic, in bits.
        bits: usize,
    },
}

/// What one party produced in one round: uploads for the server (sent
/// through the session's transport) and local events for the observer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundOutcome {
    /// Payloads to upload to the server, in send order.
    pub uploads: Vec<RoundPayload>,
    /// Local events, in occurrence order.
    pub events: Vec<PartyEvent>,
}

impl RoundOutcome {
    /// Records a level event.
    pub fn level(&mut self, event: LevelEstimated) {
        self.events.push(PartyEvent::Level(event));
    }

    /// Records a pruning decision.
    pub fn pruning(&mut self, event: PruningDecision) {
        self.events.push(PartyEvent::Pruning(event));
    }

    /// Records pruning-validation report traffic.
    pub fn validation_reports(&mut self, party: &str, bits: usize) {
        self.events.push(PartyEvent::ValidationReports {
            party: party.to_string(),
            bits,
        });
    }

    /// Queues an upload.
    pub fn upload(&mut self, payload: RoundPayload) {
        self.uploads.push(payload);
    }
}

/// One party's per-round work, as driven by a [`Session`].
///
/// Drivers must be [`Send`] so the session can execute them on scoped
/// worker threads; all party randomness must derive from per-party seeds so
/// execution order cannot influence results.
pub trait PartyDriver: Send {
    /// The party's display name (used to address its round messages).
    fn party(&self) -> &str;

    /// Executes this party's work for one round.
    fn run_round(&mut self, input: &RoundInput) -> Result<RoundOutcome, ProtocolError>;
}

/// Everything the server collected in one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundCollection {
    /// The round number.
    pub round: u32,
    /// The uploads, in canonical `(round, from)` order — or, under a
    /// straggler fault plan, in the plan's reordering of it.
    pub messages: Vec<RoundMessage>,
    /// Per-party events, sorted by party index regardless of which worker
    /// finished first.
    pub events: Vec<(usize, Vec<PartyEvent>)>,
}

/// The server-side state machine of one engine run: it owns the transport
/// and the fault resolution, numbers the rounds, and executes party drivers
/// with the configured parallelism.
///
/// With a [`SessionLink`] attached (see [`Session::with_link`]) the session
/// becomes one process of a distributed run: it executes only the party
/// drivers its link assigns to this process and completes every round
/// through a coordinator exchange instead of assembling it locally.
pub struct Session {
    transport: Box<dyn Transport>,
    parallelism: usize,
    scenario: ScenarioPlan,
    topology: Topology,
    quorum: QuorumPolicy,
    dropped: Vec<bool>,
    compromised: Vec<bool>,
    round: u32,
    party_count: usize,
    link: Option<SessionLink>,
    telemetry: Telemetry,
    idle: IdleWorkers,
}

impl Session {
    /// Creates a session for `party_count` parties, validating the engine
    /// configuration and resolving the fault plan's dropouts up front.
    ///
    /// The transport follows [`EngineConfig::transport`].
    pub fn new(engine: &EngineConfig, party_count: usize) -> Result<Self, ProtocolError> {
        Self::with_link(engine, party_count, None)
    }

    /// Like [`Session::new`], but optionally attaches a [`SessionLink`]
    /// making this session one process of a distributed run.
    pub fn with_link(
        engine: &EngineConfig,
        party_count: usize,
        link: Option<SessionLink>,
    ) -> Result<Self, ProtocolError> {
        engine.validate()?;
        if let Some(link) = &link {
            link.validate(party_count)
                .map_err(ProtocolError::Transport)?;
        }
        // One shard per party thread a round can run, and a round never runs
        // more party threads than parties: a node's parallelism is decoded
        // from a socket, so it must not size an allocation by itself.
        let shards = engine.parallelism.min(party_count).max(1);
        // Frame corruption lives on the framed (TCP) path: route the
        // in-process default there when the scenario corrupts frames, so
        // the attack surface exists.
        let corruption = engine.scenario.corruption();
        let transport: Box<dyn Transport> = match engine.transport {
            TransportKind::InProcess if corruption.is_none() => {
                Box::new(ShardedTransport::new(shards))
            }
            TransportKind::InProcess | TransportKind::Tcp => Box::new(
                SocketTransport::loopback_with(shards, corruption)
                    .map_err(ProtocolError::Transport)?,
            ),
        };
        Ok(Self {
            transport,
            parallelism: engine.parallelism,
            scenario: engine.scenario,
            topology: engine.topology.unwrap_or_default(),
            quorum: engine.quorum.unwrap_or_default(),
            dropped: engine.scenario.faults.dropped_parties(party_count),
            compromised: engine.scenario.compromised_parties(party_count),
            round: 0,
            party_count,
            link,
            telemetry: Telemetry::disabled(),
            idle: IdleWorkers::attached(),
        })
    }

    /// Attaches a telemetry handle: round spans and per-party upload
    /// latency record here, and the transport gets the same handle for its
    /// wire-level accounting.  Telemetry is observation only — attaching
    /// it never changes what any session method returns.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        self.transport.attach_telemetry(telemetry);
    }

    /// An estimation scratch wired to this session: it carries the
    /// session's telemetry handle and its [`IdleWorkers`] count, so the
    /// `Vectorized` levels estimated with it can borrow the workers a round
    /// leaves idle.  Drivers should take their scratches from here (after
    /// [`Session::set_telemetry`], if a handle is attached at all).
    pub fn scratch(&self) -> EstimateScratch {
        let mut scratch = EstimateScratch::new();
        scratch.set_telemetry(&self.telemetry);
        scratch.set_idle_workers(&self.idle);
        scratch
    }

    /// The half-open range of party indices this session executes locally
    /// (all of them without a link).
    fn local_range(&self) -> (usize, usize) {
        match &self.link {
            None => (0, self.party_count),
            Some(link) => link.local_range(),
        }
    }

    /// True when this session's process runs the given party's driver.
    pub fn is_local(&self, party: usize) -> bool {
        let (start, end) = self.local_range();
        (start..end).contains(&party)
    }

    /// True when the party survived the fault plan's dropout draw.
    pub fn is_active(&self, party: usize) -> bool {
        !self.dropped.get(party).copied().unwrap_or(false)
    }

    /// True when the scenario's adversary compromised this party.
    pub fn is_compromised(&self, party: usize) -> bool {
        self.compromised.get(party).copied().unwrap_or(false)
    }

    /// The report perturbation this party applies at upload time, when the
    /// scenario compromised it under a report-flipping adversary.
    fn flip_for(&self, party: usize) -> Option<(FlipMode, u64)> {
        if !self.is_compromised(party) {
            return None;
        }
        match self.scenario.adversary {
            AdversaryModel::ReportFlip { mode, .. } => Some((mode, self.scenario.seed)),
            _ => None,
        }
    }

    /// The indices of the surviving parties, ascending.
    pub fn active_parties(&self) -> Vec<usize> {
        (0..self.dropped.len())
            .filter(|i| self.is_active(*i))
            .collect()
    }

    /// Number of rounds completed so far.
    pub fn rounds_completed(&self) -> u32 {
        self.round
    }

    /// Runs one engine round: broadcasts `input` to the drivers selected by
    /// `active` (indices into `drivers`), executes them — concurrently when
    /// the engine is parallel — collects their uploads through the
    /// transport, applies the straggler plan, and returns the collection.
    ///
    /// Driver errors surface deterministically: the error of the
    /// lowest-indexed failing party wins, regardless of thread timing.
    ///
    /// With a [`SessionLink`] attached, only the drivers of locally owned
    /// parties execute; the round completes through the coordinator
    /// exchange and the returned collection is identical in every process.
    pub fn run_round<D: PartyDriver>(
        &mut self,
        drivers: &mut [D],
        active: &[usize],
        input: &RoundInput,
    ) -> Result<RoundCollection, ProtocolError> {
        // Quorum closure: the on-time subset is drawn from the *full*
        // active list before any local-range filtering, so every process
        // of a distributed run excludes the same parties.  Excluded
        // parties simply do not execute this round — the same per-round
        // semantics as a fault-plan dropout.
        let on_time = self.quorum.on_time(input.round, active);
        let (local_start, local_end) = self.local_range();
        let local = local_start..local_end.min(drivers.len());
        let mut is_selected = vec![false; drivers.len()];
        for i in on_time.into_iter().filter(|i| local.contains(i)) {
            is_selected[i] = true;
        }
        let selected = drivers
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| is_selected[*i])
            .collect();
        self.run_parties(selected, input)
    }

    /// Runs a round with a single active party, executed inline — the shape
    /// of TAPS' sequential chain, where building (and skipping) a driver
    /// per inactive party every round would be wasted work.
    ///
    /// With a [`SessionLink`] attached, the driver only executes in the
    /// process that owns `index`; every other process still joins the
    /// round's exchange and receives the same collection.
    pub fn run_solo_round<D: PartyDriver>(
        &mut self,
        index: usize,
        driver: &mut D,
        input: &RoundInput,
    ) -> Result<RoundCollection, ProtocolError> {
        let selected = self.is_local(index).then_some((index, driver));
        self.run_parties(selected.into_iter().collect(), input)
    }

    /// Executes the selected `(party index, driver)` pairs for one round —
    /// concurrently when the engine is parallel — and completes the round.
    fn run_parties<D: PartyDriver>(
        &mut self,
        mut selected: Vec<(usize, &mut D)>,
        input: &RoundInput,
    ) -> Result<RoundCollection, ProtocolError> {
        let round = input.round;
        self.round = self.round.max(round) + 1;
        let _round_span = self.telemetry.span_idx(SpanName::Round, u64::from(round));
        let flips: Vec<Option<(FlipMode, u64)>> =
            (0..self.party_count).map(|i| self.flip_for(i)).collect();
        let flips = &flips;

        let transport = self.transport.as_ref();
        let telemetry = &self.telemetry;
        let idle = &self.idle;
        // Party threads this round; whatever is left of `parallelism` is
        // idle from the start, and every party thread that runs out of
        // parties joins the idle count.
        let workers = if self.parallelism <= 1 || selected.len() <= 1 {
            1
        } else {
            self.parallelism.min(selected.len())
        };
        idle.set(self.parallelism - workers);
        let run_list = |list: &mut [(usize, &mut D)]| {
            let working = idle.enter();
            let results: Vec<_> = list
                .iter_mut()
                .map(|(idx, driver)| {
                    let flip = flips.get(*idx).copied().flatten();
                    run_party(*idx, &mut **driver, input, transport, flip, telemetry)
                })
                .collect();
            drop(working);
            idle.release(1);
            results
        };
        let mut results: Vec<(usize, Result<Vec<PartyEvent>, ProtocolError>)> = if workers == 1 {
            run_list(&mut selected)
        } else {
            // Deal parties round-robin over the workers: federations
            // have skewed populations, and interleaving spreads the
            // heavy parties instead of handing one worker a contiguous
            // run of them.
            let mut groups: Vec<Vec<(usize, &mut D)>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, item) in selected.into_iter().enumerate() {
                groups[i % workers].push(item);
            }
            let run_list = &run_list;
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|mut group| scope.spawn(move || run_list(&mut group)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("party worker panicked"))
                    .collect()
            })
        };
        idle.set(0);

        results.sort_by_key(|(idx, _)| *idx);
        let mut events = Vec::with_capacity(results.len());
        for (idx, result) in results {
            match result {
                Ok(partial) => events.push((idx, partial)),
                Err(err) => return Err(self.fail_round(round, idx, err)),
            }
        }
        self.complete_round(round, events)
    }

    /// Finishes a round after the local drivers ran: assembles the
    /// collection locally, or — with a link — completes it through the
    /// coordinator exchange.
    fn complete_round(
        &mut self,
        round: u32,
        events: Vec<(usize, Vec<PartyEvent>)>,
    ) -> Result<RoundCollection, ProtocolError> {
        let messages = self.transport.drain().map_err(ProtocolError::Transport)?;
        match &mut self.link {
            None => {
                let messages = match self.topology {
                    Topology::Flat => messages,
                    Topology::Tree { fanout, depth } => {
                        tree_route(round, messages, fanout, depth, &self.telemetry)?
                    }
                };
                Ok(assemble(round, messages, events, &self.scenario.faults))
            }
            Some(link) => link
                .exchange(round, messages, events, None, &self.scenario.faults)
                .map_err(ProtocolError::Transport),
        }
    }

    /// Handles a local driver failure: discards the round's partial uploads
    /// and — with a link — aborts the federation before surfacing the
    /// original error.
    fn fail_round(&mut self, round: u32, index: usize, err: ProtocolError) -> ProtocolError {
        // Discard whatever the parties that succeeded already uploaded, so
        // a caller that keeps the session does not see this round's orphans
        // prepended to the next one.
        let _ = self.transport.drain();
        if let Some(link) = &mut self.link {
            // Joining the exchange with the failure keeps every process in
            // lockstep: the coordinator folds it into an Abort for all.
            let _ = link.exchange(
                round,
                Vec::new(),
                Vec::new(),
                Some((index, err.to_string())),
                &self.scenario.faults,
            );
        }
        err
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("parallelism", &self.parallelism)
            .field("scenario", &self.scenario)
            .field("dropped", &self.dropped)
            .field("compromised", &self.compromised)
            .field("round", &self.round)
            .field("party_count", &self.party_count)
            .field("local_range", &self.local_range())
            .finish()
    }
}

/// Executes one driver for one round, sending its uploads through the
/// transport; returns its events keyed by party index.
///
/// When `flip` is set the party is compromised under a report-flipping
/// adversary: every [`RoundPayload::Report`] it uploads is perturbed in
/// place before it reaches the transport.  Dictionary payloads (TAPS'
/// pruning hand-over) are not reports and travel untouched.  The
/// perturbation keys on `(seed, party, round, payload index)` — all stable
/// protocol coordinates — so it replays bit-identically at any parallelism.
fn run_party<D: PartyDriver>(
    idx: usize,
    driver: &mut D,
    input: &RoundInput,
    transport: &dyn Transport,
    flip: Option<(FlipMode, u64)>,
    telemetry: &Telemetry,
) -> (usize, Result<Vec<PartyEvent>, ProtocolError>) {
    let round = input.round;
    // Straggler quantiles: time the whole party turn — local work plus the
    // transport sends — but only read the clock when telemetry is on, so a
    // disabled handle costs one branch.
    let started = telemetry.is_enabled().then(std::time::Instant::now);
    let result = match driver.run_round(input) {
        Ok(outcome) => {
            let mut sent_ok = Ok(outcome.events);
            for (payload_index, mut payload) in outcome.uploads.into_iter().enumerate() {
                if let (Some((mode, seed)), RoundPayload::Report(report)) = (flip, &mut payload) {
                    apply_report_flip(report, mode, seed, idx, round, payload_index);
                }
                let sent = transport.send(RoundMessage {
                    from: idx,
                    party: driver.party().to_string(),
                    round,
                    payload,
                });
                if let Err(err) = sent {
                    sent_ok = Err(ProtocolError::Transport(err));
                    break;
                }
            }
            sent_ok
        }
        Err(err) => Err(err),
    };
    if let Some(started) = started {
        telemetry.record_value(
            ValueHist::PartyUploadUs,
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
    }
    (idx, result)
}

/// Routes one round's drained uploads through an in-memory aggregation
/// tree: parties group into cohorts of `fanout` per level, `depth` levels
/// deep, each multi-member cohort coalescing its reports into one
/// [`RoundPayload::MergedSupports`] frame.  Every final root-inbound frame
/// round-trips through the real `fedhh-wire` frame codec, so the
/// `tree.root.*` byte counters are frame-exact and lossless decoding is
/// exercised on every round — the reconstructed flat collection is
/// bit-identical to what [`Topology::Flat`] would have produced.
///
/// Single-member cohorts pass through as flat report frames: merging a
/// cohort of one *adds* envelope bytes, so `tree.root.bytes <=
/// tree.flat.bytes` holds unconditionally and is strict whenever any real
/// merge happened.  Rounds carrying any non-report payload (TAPS'
/// dictionary hand-over is a point-to-point relay, not a support upload)
/// pass through untouched.
fn tree_route(
    round: u32,
    messages: Vec<RoundMessage>,
    fanout: usize,
    depth: usize,
    telemetry: &Telemetry,
) -> Result<Vec<RoundMessage>, ProtocolError> {
    let all_reports = !messages.is_empty()
        && messages
            .iter()
            .all(|m| matches!(m.payload, RoundPayload::Report(_)));
    if !all_reports {
        return Ok(messages);
    }

    // The flat baseline: what these uploads would cost as one frame each.
    let framed = |message: &RoundMessage| {
        let mut framed = Vec::new();
        fedhh_wire::write_frame(&mut framed, message).map_err(ProtocolError::Transport)?;
        Ok::<_, ProtocolError>(framed)
    };
    let mut flat_bytes = 0u64;
    for message in &messages {
        flat_bytes += framed(message)?.len() as u64;
    }

    // Units start as one message each — the transport drains them in
    // canonical ascending order — and group level by level; a unit's key is
    // its smallest constituent sender.
    let mut units: Vec<Vec<RoundMessage>> = messages.into_iter().map(|m| vec![m]).collect();
    for level in 1..=depth {
        let divisor = fanout.saturating_pow(level as u32).max(1);
        let mut grouped: Vec<Vec<RoundMessage>> = Vec::with_capacity(units.len());
        let mut iter = units.into_iter().peekable();
        while let Some(first) = iter.next() {
            let cohort = first[0].from / divisor;
            let mut parts = first;
            let mut merge_span = None;
            while iter
                .peek()
                .is_some_and(|unit| unit[0].from / divisor == cohort)
            {
                if merge_span.is_none() {
                    merge_span = Some(telemetry.span_idx(SpanName::AggregateMerge, cohort as u64));
                }
                parts.extend(iter.next().expect("peeked"));
            }
            drop(merge_span);
            grouped.push(parts);
        }
        units = grouped;
    }

    // Frame each final unit through the real wire codec and decode it
    // back: the byte counters are real framed lengths and the lossless
    // reconstruction is exercised, not assumed ([`assemble`] unpacks it).
    let mut root_frames = 0u64;
    let mut root_bytes = 0u64;
    let mut routed = Vec::new();
    for frame in units.into_iter().flat_map(|unit| coalesce(round, unit)) {
        let framed = framed(&frame)?;
        root_frames += 1;
        root_bytes += framed.len() as u64;
        routed.push(
            fedhh_wire::read_frame(&mut framed.as_slice()).map_err(ProtocolError::Transport)?,
        );
    }

    telemetry.add(Counter::TreeRootFrames, root_frames);
    telemetry.add(Counter::TreeRootBytes, root_bytes);
    telemetry.add(Counter::TreeFlatBytes, flat_bytes);
    Ok(routed)
}

/// Coalesces one cohort's canonical messages into what its aggregator
/// forwards: two or more reports become one lossless [`MergedSupports`]
/// frame; anything else passes through.  The in-memory tree and the node
/// plane's sub-aggregator both merge through here.
pub(crate) fn coalesce(round: u32, messages: Vec<RoundMessage>) -> Vec<RoundMessage> {
    let all_reports = messages
        .iter()
        .all(|m| matches!(m.payload, RoundPayload::Report(_)));
    if !all_reports || messages.len() < 2 {
        return messages;
    }
    let report = |m: RoundMessage| match m.payload {
        RoundPayload::Report(report) => Some((m.from, report)),
        _ => None,
    };
    let parts: Vec<_> = messages.into_iter().filter_map(report).collect();
    vec![RoundMessage {
        from: parts[0].0,
        party: parts[0].1.party.clone(),
        round,
        payload: RoundPayload::MergedSupports(MergedSupports { parts }),
    }]
}

/// Closes a round: unpacks merged cohort frames, restores the canonical
/// order (stable: each party's messages arrive in its own canonical order
/// from one sender), applies the straggler permutation and sorts the events
/// by party.  The in-memory session and the node plane's coordinator both
/// close their rounds here, so a distributed run collects exactly what the
/// in-memory engine does.
pub(crate) fn assemble(
    round: u32,
    messages: Vec<RoundMessage>,
    mut events: Vec<(usize, Vec<PartyEvent>)>,
    faults: &FaultPlan,
) -> RoundCollection {
    let mut flat = Vec::with_capacity(messages.len());
    for message in messages {
        match message.payload {
            RoundPayload::MergedSupports(merged) => {
                flat.extend(merged.into_messages(message.round))
            }
            _ => flat.push(message),
        }
    }
    canonical_sort(&mut flat);
    let order = faults.straggler_order(flat.len(), round);
    let mut slots: Vec<Option<RoundMessage>> = flat.into_iter().map(Some).collect();
    let messages = order
        .into_iter()
        .map(|i| slots[i].take().expect("straggler order is a permutation"))
        .collect();
    events.sort_by_key(|(index, _)| *index);
    RoundCollection {
        round,
        messages,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::CandidateReport;

    /// A driver that reports its own index and records a level event.
    struct EchoDriver {
        name: String,
        index: u64,
        fail: bool,
    }

    impl PartyDriver for EchoDriver {
        fn party(&self) -> &str {
            &self.name
        }

        fn run_round(&mut self, input: &RoundInput) -> Result<RoundOutcome, ProtocolError> {
            if self.fail {
                return Err(ProtocolError::InvalidQuery { k: 0 });
            }
            let mut outcome = RoundOutcome::default();
            outcome.level(LevelEstimated {
                party: self.name.clone(),
                level: 1,
                candidates: 1,
                users: 1,
                report_bits: 8,
                uplink_bits: 0,
            });
            outcome.upload(RoundPayload::Report(CandidateReport {
                party: self.name.clone(),
                level: 1,
                candidates: vec![(self.index, input.round as f64)],
                users: 1,
            }));
            Ok(outcome)
        }
    }

    fn drivers(n: usize) -> Vec<EchoDriver> {
        (0..n)
            .map(|i| EchoDriver {
                name: format!("p{i}"),
                index: i as u64,
                fail: false,
            })
            .collect()
    }

    fn start(round: u32) -> RoundInput {
        RoundInput {
            round,
            broadcast: Broadcast::Start,
        }
    }

    #[test]
    fn round_collection_is_identical_at_any_parallelism() {
        let collect = |parallelism: usize| {
            let engine = EngineConfig::parallel(parallelism);
            let mut session = Session::new(&engine, 7).unwrap();
            let mut drivers = drivers(7);
            let active = session.active_parties();
            session.run_round(&mut drivers, &active, &start(0)).unwrap()
        };
        let sequential = collect(1);
        for parallelism in [2, 3, 8] {
            assert_eq!(
                collect(parallelism),
                sequential,
                "parallelism {parallelism}"
            );
        }
        assert_eq!(sequential.messages.len(), 7);
        let senders: Vec<usize> = sequential.messages.iter().map(|m| m.from).collect();
        assert_eq!(senders, vec![0, 1, 2, 3, 4, 5, 6]);
        let indices: Vec<usize> = sequential.events.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    /// A node's parallelism is decoded from a socket: a huge one must size
    /// nothing by itself, and the round must match a sane parallelism.
    #[test]
    fn parallelism_beyond_the_party_count_allocates_no_extra_shards() {
        for transport in [TransportKind::InProcess, TransportKind::Tcp] {
            let collect = |parallelism: usize| {
                let engine = EngineConfig::parallel(parallelism).transport(transport);
                let mut session = Session::new(&engine, 4).unwrap();
                let mut drivers = drivers(4);
                let active = session.active_parties();
                session.run_round(&mut drivers, &active, &start(0)).unwrap()
            };
            assert_eq!(collect(1 << 40), collect(4), "{transport:?}");
        }
    }

    #[test]
    fn dropped_parties_never_execute() {
        let engine = EngineConfig::sequential().with_faults(FaultPlan::dropout(0.5, 11));
        let mut session = Session::new(&engine, 4).unwrap();
        let active = session.active_parties();
        assert_eq!(active.len(), 2);
        let mut drivers = drivers(4);
        let collection = session.run_round(&mut drivers, &active, &start(0)).unwrap();
        assert_eq!(collection.messages.len(), 2);
        for message in &collection.messages {
            assert!(session.is_active(message.from));
        }
    }

    #[test]
    fn straggler_plans_reorder_deterministically() {
        let faults = FaultPlan {
            dropout_fraction: 0.0,
            stragglers: true,
            seed: 5,
        };
        let run = |parallelism: usize| {
            let engine = EngineConfig::parallel(parallelism).with_faults(faults);
            let mut session = Session::new(&engine, 6).unwrap();
            let mut drivers = drivers(6);
            let active = session.active_parties();
            let collection = session.run_round(&mut drivers, &active, &start(0)).unwrap();
            collection
                .messages
                .iter()
                .map(|m| m.from)
                .collect::<Vec<_>>()
        };
        let a = run(1);
        assert_eq!(a, run(4), "straggler order must not depend on threads");
        assert_ne!(a, vec![0, 1, 2, 3, 4, 5], "plan must actually reorder");
    }

    #[test]
    fn lowest_indexed_error_wins_regardless_of_threading() {
        for parallelism in [1, 4] {
            let engine = EngineConfig::parallel(parallelism);
            let mut session = Session::new(&engine, 5).unwrap();
            let mut drivers = drivers(5);
            drivers[3].fail = true;
            drivers[1].fail = true;
            let active = session.active_parties();
            let err = session
                .run_round(&mut drivers, &active, &start(0))
                .unwrap_err();
            assert_eq!(err, ProtocolError::InvalidQuery { k: 0 });
        }
    }

    #[test]
    fn failed_rounds_leave_no_orphaned_messages_behind() {
        let mut session = Session::new(&EngineConfig::sequential(), 3).unwrap();
        let mut drivers = drivers(3);
        drivers[2].fail = true;
        let active = session.active_parties();
        // Parties 0 and 1 upload before party 2 errors the round out.
        session
            .run_round(&mut drivers, &active, &start(0))
            .unwrap_err();
        drivers[2].fail = false;
        let collection = session.run_round(&mut drivers, &active, &start(1)).unwrap();
        assert_eq!(collection.messages.len(), 3, "only round-1 messages");
        assert!(collection.messages.iter().all(|m| m.round == 1));
    }

    #[test]
    fn solo_rounds_match_a_single_party_group_round() {
        let run_grouped = |solo: bool| {
            let mut session = Session::new(&EngineConfig::sequential(), 4).unwrap();
            let mut drivers = drivers(4);
            if solo {
                session
                    .run_solo_round(2, &mut drivers[2], &start(0))
                    .unwrap()
            } else {
                session.run_round(&mut drivers, &[2], &start(0)).unwrap()
            }
        };
        assert_eq!(run_grouped(true), run_grouped(false));
        let collection = run_grouped(true);
        assert_eq!(collection.messages.len(), 1);
        assert_eq!(collection.messages[0].from, 2);
        assert_eq!(collection.events, vec![(2, collection.events[0].1.clone())]);
    }

    #[test]
    fn sessions_number_rounds_monotonically() {
        let mut session = Session::new(&EngineConfig::sequential(), 2).unwrap();
        let mut drivers = drivers(2);
        let active = session.active_parties();
        session.run_round(&mut drivers, &active, &start(0)).unwrap();
        session.run_round(&mut drivers, &active, &start(1)).unwrap();
        assert_eq!(session.rounds_completed(), 2);
    }

    #[test]
    fn invalid_engine_configs_are_rejected() {
        assert!(matches!(
            Session::new(&EngineConfig::parallel(0), 2),
            Err(ProtocolError::InvalidParallelism { parallelism: 0 })
        ));
        let bad = EngineConfig::sequential().with_faults(FaultPlan::dropout(2.0, 0));
        assert!(matches!(
            Session::new(&bad, 2),
            Err(ProtocolError::InvalidDropout { .. })
        ));
    }

    #[test]
    fn tcp_transport_rounds_match_the_in_memory_engine() {
        let collect = |transport: TransportKind, parallelism: usize| {
            let engine = EngineConfig::parallel(parallelism).transport(transport);
            let mut session = Session::new(&engine, 6).unwrap();
            let mut drivers = drivers(6);
            let active = session.active_parties();
            let mut rounds = Vec::new();
            for round in 0..3 {
                rounds.push(
                    session
                        .run_round(&mut drivers, &active, &start(round))
                        .unwrap(),
                );
            }
            rounds
        };
        let memory = collect(TransportKind::InProcess, 1);
        for parallelism in [1usize, 4] {
            assert_eq!(
                collect(TransportKind::Tcp, parallelism),
                memory,
                "tcp transport diverged at parallelism {parallelism}"
            );
        }
    }

    #[test]
    fn explicit_transport_kinds_are_honoured() {
        for kind in [TransportKind::InProcess, TransportKind::Tcp] {
            let engine = EngineConfig::sequential().transport(kind);
            let mut session = Session::new(&engine, 3).unwrap();
            let mut drivers = drivers(3);
            let active = session.active_parties();
            let collection = session.run_round(&mut drivers, &active, &start(0)).unwrap();
            assert_eq!(collection.messages.len(), 3, "{kind:?}");
        }
    }

    #[test]
    fn parallelism_parsing_accepts_positive_integers_only() {
        assert_eq!(parse_parallelism("8"), Some(8));
        assert_eq!(parse_parallelism(" 2 "), Some(2));
        assert_eq!(parse_parallelism("0"), None);
        assert_eq!(parse_parallelism("-3"), None);
        assert_eq!(parse_parallelism("many"), None);
    }

    #[test]
    fn with_faults_is_the_benign_corner_of_with_scenario() {
        let faults = FaultPlan::dropout(0.25, 3);
        let engine = EngineConfig::sequential().with_faults(faults);
        assert_eq!(engine.scenario, ScenarioPlan::from_faults(faults));
        assert_eq!(engine.faults(), &faults);
        assert_eq!(engine.scenario.adversary, AdversaryModel::None);
    }

    #[test]
    fn benign_scenarios_match_the_fault_free_engine_bit_for_bit() {
        let run = |engine: EngineConfig| {
            let mut session = Session::new(&engine, 5).unwrap();
            let mut drivers = drivers(5);
            let active = session.active_parties();
            session.run_round(&mut drivers, &active, &start(0)).unwrap()
        };
        let baseline = run(EngineConfig::sequential());
        let scenario = run(EngineConfig::sequential().with_scenario(ScenarioPlan::benign()));
        assert_eq!(scenario, baseline);
    }

    #[test]
    fn report_flips_touch_only_compromised_parties_at_any_parallelism() {
        let plan = ScenarioPlan::benign().with_adversary(
            AdversaryModel::ReportFlip {
                fraction: 0.5,
                mode: FlipMode::Uniform,
            },
            21,
        );
        let run = |engine: EngineConfig| {
            let mut session = Session::new(&engine, 6).unwrap();
            let mut drivers = drivers(6);
            let active = session.active_parties();
            session.run_round(&mut drivers, &active, &start(0)).unwrap()
        };
        let honest = run(EngineConfig::sequential());
        let attacked = run(EngineConfig::sequential().with_scenario(plan));
        for parallelism in [2, 4] {
            assert_eq!(
                run(EngineConfig::parallel(parallelism).with_scenario(plan)),
                attacked,
                "attack diverged at parallelism {parallelism}"
            );
        }
        let compromised = plan.compromised_parties(6);
        assert_eq!(compromised.iter().filter(|c| **c).count(), 3);
        assert_ne!(attacked, honest);
        for (a, h) in attacked.messages.iter().zip(&honest.messages) {
            assert_eq!(a.from, h.from);
            if compromised[a.from] {
                assert_ne!(a.payload, h.payload, "party {} must flip", a.from);
            } else {
                assert_eq!(a.payload, h.payload, "party {} must stay honest", a.from);
            }
        }
        assert_eq!(
            attacked.events, honest.events,
            "events are local, not flipped"
        );
    }

    #[test]
    fn corrupt_frame_scenarios_route_auto_to_the_socket_transport() {
        let plan = ScenarioPlan::benign()
            .with_adversary(AdversaryModel::CorruptFrames { fraction: 1.0 }, 5);
        let mut session = Session::new(&EngineConfig::sequential().with_scenario(plan), 3).unwrap();
        let mut drivers = drivers(3);
        let active = session.active_parties();
        // Every upload frame is corrupted: the round must fail with a typed
        // transport error, never hang or panic.
        let err = session
            .run_round(&mut drivers, &active, &start(0))
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Transport(_)), "{err}");
    }

    #[test]
    fn invalid_adversary_fractions_are_rejected_at_session_construction() {
        let plan = ScenarioPlan::benign().with_adversary(
            AdversaryModel::Sybil {
                fraction: 1.5,
                target_item: 1,
            },
            0,
        );
        assert!(matches!(
            Session::new(&EngineConfig::sequential().with_scenario(plan), 2),
            Err(ProtocolError::InvalidAdversaryFraction { .. })
        ));
    }

    #[test]
    fn tree_topologies_collect_the_flat_star_bit_for_bit() {
        let run = |engine: EngineConfig| {
            let mut session = Session::new(&engine, 9).unwrap();
            let mut drivers = drivers(9);
            let active = session.active_parties();
            let mut rounds = Vec::new();
            for round in 0..3 {
                rounds.push(
                    session
                        .run_round(&mut drivers, &active, &start(round))
                        .unwrap(),
                );
            }
            rounds
        };
        let flat = run(EngineConfig::sequential());
        for (fanout, depth) in [(2, 1), (2, 2), (3, 1), (4, 2), (16, 1)] {
            for parallelism in [1usize, 4] {
                let engine = EngineConfig::parallel(parallelism)
                    .with_topology(Topology::Tree { fanout, depth });
                assert_eq!(
                    run(engine),
                    flat,
                    "tree fanout {fanout} depth {depth} parallelism {parallelism} \
                     diverged from the flat star"
                );
            }
        }
    }

    #[test]
    fn tree_runs_count_root_savings_in_the_telemetry_counters() {
        let telemetry = Telemetry::new();
        let engine = EngineConfig::sequential().with_topology(Topology::Tree {
            fanout: 4,
            depth: 1,
        });
        let mut session = Session::new(&engine, 8).unwrap();
        session.set_telemetry(&telemetry);
        let mut drivers = drivers(8);
        let active = session.active_parties();
        session.run_round(&mut drivers, &active, &start(0)).unwrap();
        let snapshot = telemetry.snapshot();
        // 8 parties under fanout 4 coalesce into 2 cohorts of 4.
        assert_eq!(snapshot.counter(Counter::TreeRootFrames), 2);
        let root = snapshot.counter(Counter::TreeRootBytes);
        let flat = snapshot.counter(Counter::TreeFlatBytes);
        assert!(
            root < flat,
            "merging must shrink root-inbound bytes (root {root}, flat {flat})"
        );
        let merges = snapshot
            .span_us
            .iter()
            .find(|(name, _)| *name == SpanName::AggregateMerge)
            .map(|(_, hist)| hist.count)
            .unwrap();
        assert_eq!(merges, 2, "one aggregate.merge span per coalesced cohort");
    }

    #[test]
    fn singleton_cohorts_never_inflate_root_bytes() {
        // 5 parties under fanout 4: one merged cohort of 4 plus a singleton
        // that passes through as a flat frame.  The invariant is
        // root_bytes <= flat_bytes even with the pass-through frame counted
        // on both sides.
        let telemetry = Telemetry::new();
        let engine = EngineConfig::sequential().with_topology(Topology::Tree {
            fanout: 4,
            depth: 1,
        });
        let mut session = Session::new(&engine, 5).unwrap();
        session.set_telemetry(&telemetry);
        let mut drivers = drivers(5);
        let active = session.active_parties();
        session.run_round(&mut drivers, &active, &start(0)).unwrap();
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter(Counter::TreeRootFrames), 2);
        assert!(
            snapshot.counter(Counter::TreeRootBytes) <= snapshot.counter(Counter::TreeFlatBytes)
        );
    }

    #[test]
    fn partial_quorums_close_rounds_identically_at_any_parallelism() {
        let quorum = QuorumPolicy {
            fraction: 0.5,
            seed: 77,
        };
        let run = |parallelism: usize| {
            let engine = EngineConfig::parallel(parallelism).with_quorum(quorum);
            let mut session = Session::new(&engine, 8).unwrap();
            let mut drivers = drivers(8);
            let active = session.active_parties();
            let mut rounds = Vec::new();
            for round in 0..4 {
                rounds.push(
                    session
                        .run_round(&mut drivers, &active, &start(round))
                        .unwrap(),
                );
            }
            rounds
        };
        let sequential = run(1);
        for parallelism in [2usize, 8] {
            assert_eq!(
                run(parallelism),
                sequential,
                "quorum closure diverged at parallelism {parallelism}"
            );
        }
        // ceil(0.5 * 8) = 4 on-time parties every round, drawn per round.
        let mut orders = std::collections::HashSet::new();
        for collection in &sequential {
            assert_eq!(collection.messages.len(), 4);
            let on_time = quorum.on_time(collection.messages[0].round, &[0, 1, 2, 3, 4, 5, 6, 7]);
            let senders: Vec<usize> = collection.messages.iter().map(|m| m.from).collect();
            assert_eq!(senders, on_time, "closure must follow the pure draw");
            orders.insert(senders);
        }
        assert!(orders.len() > 1, "the draw must vary across rounds");
    }

    #[test]
    fn full_quorums_change_nothing() {
        let run = |engine: EngineConfig| {
            let mut session = Session::new(&engine, 5).unwrap();
            let mut drivers = drivers(5);
            let active = session.active_parties();
            session.run_round(&mut drivers, &active, &start(0)).unwrap()
        };
        let baseline = run(EngineConfig::sequential());
        assert_eq!(
            run(EngineConfig::sequential().with_quorum(QuorumPolicy::full())),
            baseline
        );
    }

    /// A driver doing real level work: three `estimate_with` calls per
    /// round over its own users, through a scratch from its session.
    struct EstimatingDriver<'a> {
        name: String,
        items: Vec<u64>,
        estimator: &'a crate::LevelEstimator,
        scratch: EstimateScratch,
        idle: IdleWorkers,
        parallelism: usize,
        fail: bool,
    }

    impl PartyDriver for EstimatingDriver<'_> {
        fn party(&self) -> &str {
            &self.name
        }

        fn run_round(&mut self, input: &RoundInput) -> Result<RoundOutcome, ProtocolError> {
            // This thread is busy, so at most `parallelism - 1` are idle.
            assert!(self.idle.available() < self.parallelism);
            if self.fail {
                return Err(ProtocolError::InvalidQuery { k: 0 });
            }
            let candidates: Vec<u64> = (0..64).collect();
            let mut outcome = RoundOutcome::default();
            for level in 1..=3u8 {
                let estimate = self.estimator.estimate_with(
                    &mut self.scratch,
                    &candidates,
                    6,
                    &self.items,
                    u64::from(input.round) << 8 | u64::from(level),
                );
                outcome.upload(RoundPayload::Report(CandidateReport {
                    party: self.name.clone(),
                    level,
                    candidates: candidates.iter().copied().zip(estimate.counts).collect(),
                    users: estimate.users,
                }));
            }
            Ok(outcome)
        }
    }

    /// Runs a skewed three-party federation (80 % / 10 % / 10 %) for two
    /// rounds, one solo round of the big party and one failing round;
    /// returns the collections, the session's thread high-water mark and
    /// the helper tokens the solo round's levels took.  The big party's OLH
    /// levels are 40 000 × 65 slots ≈ 2.7 ms of kernel work — worth five
    /// parts.
    fn run_skewed(parallelism: usize) -> (Vec<RoundCollection>, usize, usize) {
        let estimator = crate::LevelEstimator::new(crate::ProtocolConfig {
            fo: fedhh_fo::FoKind::Olh,
            max_bits: 8,
            granularity: 4,
            ..crate::ProtocolConfig::default()
        })
        .unwrap();
        let mut session = Session::new(&EngineConfig::parallel(parallelism), 3).unwrap();
        let mut drivers: Vec<EstimatingDriver<'_>> = [40_000u64, 5_000, 5_000]
            .into_iter()
            .enumerate()
            .map(|(i, users)| EstimatingDriver {
                name: format!("p{i}"),
                items: (0..users).map(|u| (u * 37 + i as u64) % 256).collect(),
                estimator: &estimator,
                scratch: session.scratch(),
                idle: session.idle.clone(),
                parallelism,
                fail: false,
            })
            .collect();
        let active = session.active_parties();
        assert_eq!(session.idle.available(), 0, "idle before a round");
        let mut rounds = Vec::new();
        for round in 0..2 {
            rounds.push(
                session
                    .run_round(&mut drivers, &active, &start(round))
                    .unwrap(),
            );
            assert_eq!(session.idle.available(), 0, "idle between rounds");
        }
        // A solo round leaves every other worker idle from the start.
        let lent = |session: &Session| {
            let counts = session.idle.0.as_ref().expect("attached");
            counts.lent.load(Ordering::Relaxed)
        };
        let lent_before_solo = lent(&session);
        rounds.push(
            session
                .run_solo_round(0, &mut drivers[0], &start(2))
                .unwrap(),
        );
        let solo_lent = lent(&session) - lent_before_solo;
        assert_eq!(session.idle.available(), 0, "idle after a solo round");
        drivers[1].fail = true;
        session
            .run_round(&mut drivers, &active, &start(3))
            .unwrap_err();
        assert_eq!(session.idle.available(), 0, "idle after a failed round");
        (rounds, session.idle.peak_busy(), solo_lent)
    }

    #[test]
    fn idle_workers_split_levels_without_exceeding_parallelism_or_moving_a_bit() {
        let (sequential, peak, solo_lent) = run_skewed(1);
        assert_eq!(peak, 1, "parallelism 1 never spawns a thread");
        assert_eq!(solo_lent, 0, "parallelism 1 has no idle worker");
        for parallelism in [2usize, 3, 8] {
            let (rounds, peak, solo_lent) = run_skewed(parallelism);
            assert_eq!(rounds, sequential, "parallelism {parallelism}");
            assert!(
                peak <= parallelism,
                "parallelism {parallelism}: {peak} threads worked at once"
            );
            // Whether helpers overlap in time is up to the scheduler; what
            // the solo round's levels take is not, because nothing competes
            // for its `parallelism - 1` idle workers: each of the three
            // levels is worth five parts, so it takes four helpers or every
            // idle worker, whichever is fewer.
            assert_eq!(
                solo_lent,
                3 * (parallelism.min(5) - 1),
                "parallelism {parallelism}: helper tokens of the solo round"
            );
        }
    }

    #[test]
    fn a_detached_handle_never_has_a_worker() {
        let idle = IdleWorkers::default();
        assert_eq!(idle.try_acquire(4), 0);
        idle.release(2);
        assert_eq!(idle.available(), 0);
        assert_eq!(idle.peak_busy(), 0);
    }

    #[test]
    fn tokens_are_taken_in_one_step_and_never_overdrawn() {
        let idle = IdleWorkers::attached();
        assert_eq!(idle.try_acquire(3), 0, "0 between rounds");
        idle.set(3);
        assert_eq!(idle.try_acquire(0), 0);
        assert_eq!(idle.try_acquire(2), 2);
        assert_eq!(idle.try_acquire(2), 1, "only what is left");
        assert_eq!(idle.try_acquire(1), 0);
        idle.release(3);
        assert_eq!(idle.available(), 3);
    }

    #[test]
    fn invalid_topologies_and_quorums_are_rejected_at_construction() {
        let skinny = EngineConfig::sequential().with_topology(Topology::Tree {
            fanout: 1,
            depth: 1,
        });
        assert!(matches!(
            Session::new(&skinny, 2),
            Err(ProtocolError::InvalidTopology {
                fanout: 1,
                depth: 1
            })
        ));
        let starved = EngineConfig::sequential().with_quorum(QuorumPolicy {
            fraction: 0.0,
            seed: 0,
        });
        assert!(matches!(
            Session::new(&starved, 2),
            Err(ProtocolError::InvalidQuorum { .. })
        ));
    }
}
