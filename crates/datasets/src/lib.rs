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
//! mechanisms (see DESIGN.md, substitution 1).
//!
//! Entry point: [`registry::DatasetKind`] + [`registry::DatasetConfig`]
//! build a [`FederatedDataset`], a collection of [`PartyData`] whose users
//! each hold a single m-bit item code.  At large populations
//! ([`DatasetConfig::paper_scale`]), [`DatasetConfig::build_streamed`]
//! keeps only per-party generator state and regenerates the identical item
//! sequences chunk by chunk through [`stream::ItemStream`].
//!
//! This crate feeds the pipeline its workloads (party item streams
//! consumed by the mechanisms' drivers); the full system map lives in
//! `ARCHITECTURE.md` at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cdf;
pub mod dirichlet;
pub mod evolve;
pub mod federated;
pub mod party;
pub mod poisson;
pub mod realworld;
pub mod registry;
pub mod stats;
pub mod stream;
pub mod synthetic;
pub mod zipf;

pub use cdf::GuidedCdf;
pub use dirichlet::DirichletSampler;
pub use evolve::{EvolutionPlan, PopulationEvolver};
pub use federated::FederatedDataset;
pub use party::PartyData;
pub use poisson::PoissonWeights;
pub use registry::{DatasetConfig, DatasetKind, InvalidDatasetConfig, ParseDatasetKindError};
pub use stats::FrequencyTable;
pub use stream::{ChurnGen, ItemGen, ItemStream, PartyChunks, DEFAULT_CHUNK_SIZE};
pub use zipf::ZipfSampler;
