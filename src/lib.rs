//! # fedhh — federated heavy hitter analytics with local differential privacy
//!
//! An open-source Rust implementation of *"Federated Heavy Hitter Analytics
//! with Local Differential Privacy"* (SIGMOD 2025): the TAP and TAPS
//! target-aligning prefix tree mechanisms, their baselines (FedPEM, GTF),
//! the LDP frequency-oracle and prefix-tree substrates they are built on,
//! synthetic federated workload generators, evaluation metrics, and a
//! benchmark harness that regenerates every table and figure of the paper's
//! evaluation.
//!
//! This umbrella crate re-exports the workspace crates under stable module
//! names so applications can depend on a single crate:
//!
//! * [`fo`] — ε-LDP frequency oracles (k-RR, OUE, OLH).
//! * [`trie`] — m-bit prefixes, level schedules, candidate extension.
//! * [`datasets`] — federated workload generators (Table 2 stand-ins).
//! * [`federated`] — protocol configuration, group assignment, estimation,
//!   server aggregation, communication accounting, the round engine, the
//!   adversarial scenario plane ([`federated::ScenarioPlan`]), the
//!   networking subsystem (socket transport + multi-process node links),
//!   and the epoch service (cross-epoch state, budget ledger, checkpoints).
//! * [`mechanisms`] — PEM, FedPEM, GTF, TAP and TAPS.
//! * [`metrics`] — F1, NCR and average local recall.
//! * [`wire`] — the dependency-free versioned binary codec everything on a
//!   socket travels in (re-export of `fedhh-wire`).
//! * [`telemetry`] — the telemetry plane: spans, the typed metric
//!   registry, and the schema-versioned JSONL trace format (re-export of
//!   `fedhh-telemetry`).  Inert by contract: an attached sink never
//!   changes a run's output.
//!
//! ## Quickstart
//!
//! Runs go through the [`mechanisms::Run`] builder, which validates the
//! configuration and returns a typed [`federated::ProtocolError`] instead of
//! panicking:
//!
//! ```
//! use fedhh::prelude::*;
//!
//! // A small two-party federation (a scaled-down RDB stand-in).
//! let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
//! let config = ProtocolConfig::test_default().with_epsilon(4.0).with_k(10);
//!
//! // Identify the federated top-10 heavy hitters with TAPS.
//! let output = Run::mechanism(MechanismKind::Taps)
//!     .dataset(&dataset)
//!     .config(config)
//!     .execute()
//!     .expect("valid configuration");
//! let truth = dataset.ground_truth_top_k(10);
//! println!("F1 = {:.3}", f1_score(&truth, &output.heavy_hitters));
//! assert_eq!(output.heavy_hitters.len(), 10);
//! ```
//!
//! ## Observing a run
//!
//! A run emits one typed event stream ([`federated::RunEvent`]): phases,
//! per-level estimates with the traffic they caused, pruning decisions,
//! downlinks and a closing summary.  The run's [`federated::CommTracker`]
//! is a fold of that stream, telemetry subscribes to it, and a
//! [`federated::RecordingObserver`] keeps it — folding its totals the same
//! way, so they equal the output's by construction:
//!
//! ```
//! use fedhh::prelude::*;
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
//! assert!(observer.level_events().count() > 0);
//! assert_eq!(observer.comm(), output.comm);
//! ```
//!
//! ## Million-user scale
//!
//! [`datasets::DatasetConfig::build_streamed`] builds datasets whose
//! parties regenerate their item sequences deterministically in chunks
//! ([`datasets::ItemStream`]), and the report pipeline perturbs and
//! aggregates each level group in chunks of a fixed size — together they
//! bound resident memory while staying **bit-identical** to an eager
//! build.  See `ARCHITECTURE.md` at the
//! repository root for the full data-plane story (wire → transport →
//! session → `PartyDriver` → mechanism), and `fedhh-bench scale` for the
//! measured sweep.
//!
//! ## Running as a service
//!
//! [`federated::EpochRunner`] drives a mechanism epoch after epoch over a
//! time-varying population ([`datasets::EvolutionPlan`] churn + drift),
//! warm-starting the candidate trie from the previous epoch
//! ([`federated::WarmStart`]), refusing users whose lifetime privacy
//! budget is spent ([`federated::BudgetLedger`]), and checkpointing its
//! full state atomically after every epoch
//! ([`federated::checkpoint`]) — kill the coordinator anywhere and a
//! resume reproduces the uninterrupted run bit for bit.  The
//! `fedhh-node service` subcommand runs the loop as a persistent process
//! (`--checkpoint` / `--resume`) and `fedhh-bench epochs` measures the
//! cold-vs-warm ablation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

// Compile every README code example as a doctest, so the front-page
// examples cannot rot.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

/// ε-LDP frequency oracles (re-export of `fedhh-fo`).
pub use fedhh_fo as fo;

/// Prefix-tree substrate (re-export of `fedhh-trie`).
pub use fedhh_trie as trie;

/// Federated workload generators (re-export of `fedhh-datasets`).
pub use fedhh_datasets as datasets;

/// The telemetry plane — spans, metric registry, JSONL traces (re-export
/// of `fedhh-telemetry`).
pub use fedhh_telemetry as telemetry;

/// Federated protocol substrate (re-export of `fedhh-federated`).
pub use fedhh_federated as federated;

/// Heavy hitter mechanisms (re-export of `fedhh-mechanisms`).
pub use fedhh_mechanisms as mechanisms;

/// Utility metrics (re-export of `fedhh-metrics`).
pub use fedhh_metrics as metrics;

/// The binary wire format (re-export of `fedhh-wire`).
pub use fedhh_wire as wire;

/// The most commonly used types, importable with a single `use fedhh::prelude::*`.
pub mod prelude {
    pub use crate::datasets::{DatasetConfig, DatasetKind, FederatedDataset, PartyData};
    pub use crate::federated::{
        AdversaryModel, EngineConfig, FaultPlan, FlipMode, ProtocolConfig, ProtocolError,
        QuorumPolicy, RecordingObserver, RunEvent, RunPhase, ScenarioPlan, SessionLink, Topology,
        TransportKind, WireError,
    };
    // Kept only for `benchmark/src/workload.rs`; the next change to the
    // benchmark deletes it.
    #[doc(hidden)]
    pub use crate::federated::FoExec;
    pub use crate::fo::{FoKind, PrivacyBudget};
    pub use crate::mechanisms::{
        ExtensionStrategy, FedPem, Gtf, Mechanism, MechanismKind, MechanismOutput, Run, RunContext,
        Tap, Taps,
    };
    pub use crate::metrics::{average_local_recall, f1_score, ncr_score};
    pub use crate::telemetry::{Telemetry, TelemetrySummary, TraceLine, TraceStats};
}
