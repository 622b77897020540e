//! # fedhh-datasets — federated workload generators
//!
//! The paper evaluates on four real-world dataset groups (RDB, YCM, TYS,
//! UBA) and one synthetic group (SYN).  The raw text/behaviour corpora are
//! not redistributable, so this crate generates **synthetic stand-ins** that
//! reproduce the *structural* properties the mechanisms are sensitive to:
//!
//! * the number of parties and their relative user populations,
//! * the number of unique items per party and the size of the shared
//!   ("common") item pool across parties (Table 2),
//! * heavy-tailed per-party item frequency distributions (Zipf / Poisson),
//! * controllable statistical heterogeneity (non-IID skew) via Dirichlet
//!   domain allocation, exactly as the paper constructs SYN.
//!
//! The mechanisms only observe item frequencies and party sizes, so
//! preserving these properties preserves the relative behaviour of the
//! mechanisms (see `ARCHITECTURE.md`, "Substitutions", item 1).
//!
//! Entry point: a [`DatasetConfig`] is the one description of a dataset
//! (scales, code width, SYN β, seed), and [`DatasetConfig::build`] turns it
//! into a [`FederatedDataset`] of a given [`DatasetKind`]: a collection of
//! [`PartyData`] whose users each hold a single m-bit item code, shared
//! with its readers through an [`ItemStream`].  The generators behind the
//! entry point (Table 2's group
//! and party tables, the Zipf, Poisson and Dirichlet samplers, the guided
//! CDF every draw inverts) are private to the crate.  A
//! [`PopulationEvolver`] turns a built dataset into a sequence of churning,
//! drifting epoch populations under an [`EvolutionPlan`].
//!
//! This crate feeds the pipeline its workloads (party item streams
//! consumed by the mechanisms' drivers); the full system map lives in
//! `ARCHITECTURE.md` at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cdf;
mod dirichlet;
pub mod evolve;
pub mod federated;
pub mod party;
mod poisson;
mod realworld;
pub mod registry;
pub mod stats;
pub mod stream;
mod synthetic;
mod zipf;

pub use evolve::{EvolutionPlan, PopulationEvolver};
pub use federated::FederatedDataset;
pub use party::PartyData;
pub use registry::{DatasetConfig, DatasetKind, InvalidDatasetConfig, ParseDatasetKindError};
pub use stats::FrequencyTable;
pub use stream::ItemStream;
