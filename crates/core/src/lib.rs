//! # fedhh-mechanisms — federated heavy hitter mechanisms
//!
//! This crate implements the paper's contribution and its baselines:
//!
//! * [`FedPem`] — the straw-man baseline of Algorithm 1: run PEM (Wang et
//!   al.) independently in every party and let the server sum the reported
//!   counts.
//! * [`Gtf`] — the adapted hierarchical baseline of Shao et al. with the
//!   GRRX mechanism replaced by k-RR (see DESIGN.md, substitution 2): the
//!   server filters a single global candidate set level by level, ignoring
//!   party populations.
//! * [`Tap`] — the target-aligning prefix tree mechanism (Algorithms 2–3):
//!   a shared shallow trie constructed collaboratively in Phase I plus
//!   adaptive trie extension in both phases.
//! * [`Taps`] — TAP with the consensus-based pruning strategy (Algorithm 4,
//!   Equations 4–8): Phase II runs sequentially through the parties in
//!   descending population order, each party validating and pruning the
//!   candidates suggested by its predecessor.
//!
//! All mechanisms implement the [`Mechanism`] trait and can be constructed
//! by name through [`MechanismKind`].  The [`Run`] builder is the single
//! public entry point for executing them: it validates the configuration,
//! wires the observability layer through, and returns a typed
//! [`fedhh_federated::ProtocolError`] instead of panicking on bad input.
//!
//! ```
//! use fedhh_datasets::{DatasetConfig, DatasetKind};
//! use fedhh_federated::ProtocolConfig;
//! use fedhh_mechanisms::{MechanismKind, Run};
//!
//! let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
//! let config = ProtocolConfig::test_default().with_epsilon(4.0).with_k(5);
//! let output = Run::mechanism(MechanismKind::Taps)
//!     .dataset(&dataset)
//!     .config(config)
//!     .execute()
//!     .expect("valid configuration");
//! assert_eq!(output.heavy_hitters.len(), 5);
//! ```
//!
//! Every run emits one [`fedhh_federated::RunEvent`] stream — phases,
//! party events, downlinks, the summary — which the output's
//! `CommTracker` folds; attach a [`fedhh_federated::RecordingObserver`]
//! with [`Run::observer`] to keep it.

//!
//! This crate is the top of the execution stack (wire → transport →
//! session → `PartyDriver` → mechanism); the full system map lives in
//! `ARCHITECTURE.md` at the repository root.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod extension;
pub mod fedpem;
pub mod gtf;
pub mod mechanism;
mod pem;
pub mod run;
pub mod tap;
pub mod taps;

pub use aggregate::{local_result_to_report, PartyLocalResult};
pub use extension::ExtensionStrategy;
pub use fedpem::FedPem;
pub use gtf::Gtf;
pub use mechanism::{Mechanism, MechanismKind, MechanismOutput, ParseMechanismKindError};
pub use run::{Run, RunContext};
pub use tap::Tap;
pub use taps::Taps;
