//! # fedhh-federated — federated protocol substrate
//!
//! The mechanisms in `fedhh-mechanisms` are all built from the same small
//! set of protocol building blocks, which this crate provides:
//!
//! * [`ProtocolConfig`] — the shared parameter set broadcast by the server
//!   in step ① of the protocol (query k, privacy budget ε, frequency
//!   oracle, maximum binary length m, granularity g, shared-trie ratio,
//!   dividing ratio β).
//! * [`GroupAssignment`] — the uniform random split of each party's users
//!   into g groups, one per trie level, so that every user reports exactly
//!   once and the privacy budget is never divided.
//! * [`LevelEstimator`] — the `Estimate` procedure of Algorithm 2: given a
//!   candidate prefix domain and one group of users, run the configured
//!   frequency oracle and return noisy per-candidate frequencies.
//! * [`server`] — count aggregation across parties (weighted by party
//!   population) used in steps ⑤ and ⑪.
//! * [`CommTracker`] / [`message`] — communication-cost accounting for the
//!   Table 1 / Table 4 experiments.
//! * [`ProtocolError`] — the typed error every configuration or execution
//!   failure surfaces as; nothing in this crate panics on user input.
//! * [`RunEvent`] / [`observer`] — the one typed event stream a run emits
//!   (phases, party events, downlinks, the summary), of which
//!   [`CommTracker`] and [`RecordingObserver`] are folds.
//! * [`Session`] / [`Transport`] / [`PartyDriver`] — the round-driven
//!   federation engine ([`session`], [`transport`], [`fault`]): party work
//!   is wrapped in drivers, executed in parallel worker threads, and
//!   collected through a transport in a canonical order, with a
//!   [`FaultPlan`] injecting dropouts and straggler reordering.
//! * [`scenario`] — the scenario plane: a [`ScenarioPlan`] generalizes the
//!   fault plan with deterministic [`AdversaryModel`]s (report flipping,
//!   input poisoning, Sybil amplification, corrupt-frame injection), all
//!   pure functions of `(plan, seed, party)` so adversarial runs replay
//!   bit-identically.
//! * [`epoch`] / [`checkpoint`] — the epoch service: an [`EpochRunner`]
//!   drives successive epochs of any mechanism over a time-varying
//!   population, carrying an incremental-trie [`WarmSet`] and a per-user
//!   [`BudgetLedger`] across epochs, with crash-resumable checkpoints
//!   (atomic write, CRC-framed, typed errors on malformed input).
//! * [`wire`] / [`SocketTransport`] / [`node`] — the networking subsystem:
//!   `fedhh-wire` encodings for every protocol type, a [`Transport`] over
//!   real loopback TCP sockets ([`TransportKind::Tcp`]), and the node
//!   control plane ([`NodeServer`] / [`connect_party`] / [`SessionLink`])
//!   that runs one federation across real OS processes, bit-identical to
//!   the in-memory engine at the same seed.
//!
//! ## The round protocol
//!
//! Every mechanism is expressed as a sequence of engine rounds.  One round
//! is always *broadcast → party work → collect → aggregate*: the server
//! broadcasts a [`Broadcast`] to the round's active parties, each active
//! [`PartyDriver`] does its local work and uploads [`RoundMessage`]s
//! through the [`Transport`], and the [`Session`] collects them in the
//! canonical `(round, party)` order for server-side aggregation.  The four
//! mechanisms map onto rounds as follows:
//!
//! * **FedPEM** — one round.  `Start` is broadcast to every party; each
//!   party runs full local PEM and uploads its top-k [`CandidateReport`].
//!   The server sums the reported counts and ranks the global top-k.
//! * **GTF** — one round per trie level.  The server broadcasts the
//!   current global candidate set (`Candidates`); every party extends and
//!   estimates it on its level group and uploads its local top-k
//!   frequencies; the server averages them (population-oblivious) and
//!   keeps the global top-k for the next round's broadcast.
//! * **TAP** — two rounds.  Round 0 (Phase I, `Start`): every party
//!   estimates the shared shallow levels and uploads its level-g_s
//!   candidate report; the server aggregates them into the shared
//!   prefixes.  Round 1 (Phase II, `Candidates`): every party extends the
//!   shared prefixes down to level g independently and uploads its final
//!   top-k report for the federated aggregation.
//! * **TAPS** — Phase I as in TAP, then one round *per party* in
//!   descending population order: the active party receives its
//!   predecessor's [`PruneDictionary`] (`Dictionary`), validates and
//!   prunes, estimates its Phase II levels, and uploads its own dictionary
//!   for the successor; final top-k reports are aggregated after the chain
//!   completes.
//!
//! Parties derive all randomness from per-party seeds and the collection
//! order is canonical, so a round's outcome is bit-identical at any
//! [`EngineConfig::parallelism`] — threads change who computes, never what
//! is computed.

//!
//! This crate is the middle of the execution stack (wire → transport →
//! session → `PartyDriver` → mechanism); the full system map lives in
//! `ARCHITECTURE.md` at the repository root.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod comm;
pub mod config;
pub mod epoch;
pub mod error;
pub mod estimator;
pub mod fault;
pub mod message;
pub mod node;
pub mod observer;
pub mod scenario;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod socket;
pub mod topology;
pub mod transport;
pub mod wire;

pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
pub use comm::CommTracker;
pub use config::ProtocolConfig;
#[doc(hidden)]
pub use config::{ExecMode, FoExec};
pub use epoch::{
    BudgetLedger, EpochConfig, EpochExecutor, EpochOutput, EpochRecord, EpochRunner, EpochState,
    PartyPopulation, WarmSet, WarmStart,
};
pub use error::ProtocolError;
pub use estimator::{EstimateScratch, LevelEstimate, LevelEstimator};
pub use fault::FaultPlan;
pub use message::{
    CandidateReport, MergedSupports, PruneCandidates, PruneDictionary, RoundMessage, RoundPayload,
    PAIR_BITS,
};
pub use node::{
    connect_party, connect_party_with_timeout, CoordinatorLink, NodeServer, NodeWelcome, PartyLink,
    SessionLink,
};
pub use observer::{
    LevelEstimated, PruningDecision, RecordingObserver, RunEvent, RunPhase, RunSummary,
};
pub use scenario::{AdversaryModel, FlipMode, FrameCorruption, ScenarioPlan};
pub use scheduler::GroupAssignment;
pub use server::{aggregate_reports, aggregate_reports_into, federated_top_k, top_k_from_counts};
pub use session::{
    Broadcast, EngineConfig, IdleWorkers, PartyDriver, PartyEvent, RoundCollection, RoundInput,
    RoundOutcome, Session, TransportKind,
};
pub use socket::SocketTransport;
pub use topology::{QuorumPolicy, Topology};
pub use transport::{ShardedTransport, Transport};

// The wire error is part of this crate's error surface
// (`ProtocolError::Transport`), so re-export it for matchers.
pub use fedhh_wire::WireError;

// The telemetry handle travels through this crate's public surface
// (`Session::set_telemetry`, `Transport::attach_telemetry`,
// `EpochRunner::set_telemetry`), so re-export the types callers need.
pub use fedhh_telemetry::{Counter, Gauge, SpanName, Telemetry, ValueHist};
