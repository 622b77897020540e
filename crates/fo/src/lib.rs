//! # fedhh-fo — Local differential privacy frequency oracles
//!
//! This crate provides the LDP *frequency oracle* (FO) substrate used by the
//! federated heavy hitter mechanisms in the `fedhh` workspace.  A frequency
//! oracle is a pair of algorithms:
//!
//! * a **local randomizer** run by each user, which perturbs her private
//!   value so that the output satisfies ε-local differential privacy, and
//! * a **server-side estimator**, which aggregates the perturbed reports of
//!   many users and produces unbiased frequency estimates for every value in
//!   a candidate domain.
//!
//! Three classic oracles from Wang et al. (USENIX Security 2017) are
//! implemented, matching the mechanisms used in the paper:
//!
//! * [`GrrOracle`] — *k*-ary randomized response (k-RR / GRR).  Best for
//!   small domains (|X| < 3e^ε + 2).
//! * [`OueOracle`] — optimized unary encoding.  Best utility for large
//!   domains at the cost of |X|-bit reports.
//! * [`OlhOracle`] — optimized local hashing.  OUE-level utility with small
//!   reports, at higher server-side computation cost.
//!
//! All three share the [`FrequencyOracle`] trait and can be constructed
//! uniformly through [`Oracle::new`] with a [`FoKind`].  Inputs are indices
//! into a [`CandidateDomain`], which also handles *out-of-domain* values by
//! mapping them to a reserved dummy slot, exactly as the paper does for k-RR
//! and OUE ("we assign a dummy item to out-of-domain items").
//!
//! ## Example
//!
//! ```
//! use fedhh_fo::{CandidateDomain, FoKind, FrequencyOracle, Oracle, PrivacyBudget};
//! use rand::SeedableRng;
//!
//! // Candidate domain of four 2-bit prefixes plus an implicit dummy slot.
//! let domain = CandidateDomain::with_dummy(vec![0b00, 0b01, 0b10, 0b11]);
//! let oracle = Oracle::new(FoKind::Grr, PrivacyBudget::new(2.0).unwrap(), domain.len());
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // 1000 users whose true value is prefix 0b10.
//! let reports: Vec<_> = (0..1000)
//!     .map(|_| oracle.perturb(domain.index_of(&0b10).unwrap(), &mut rng))
//!     .collect();
//!
//! let estimate = oracle.estimate(&oracle.aggregate(&reports), 1000);
//! // The estimated frequency of 0b10 should dominate.
//! let best = (0..domain.len()).max_by(|a, b| {
//!     estimate.frequency(*a).partial_cmp(&estimate.frequency(*b)).unwrap()
//! }).unwrap();
//! assert_eq!(domain.value_at(best), Some(&0b10));
//! ```
//!
//! ## Arena aggregation
//!
//! [`FrequencyOracle::aggregate_into`] is `aggregate` folding into a
//! caller-owned [`SupportCounts`] arena: same support sums, no allocation,
//! and one arena serves any number of chunks.  It is how the federated
//! layer's `Scalar` path consumes a chunked report stream.
//!
//! ```
//! use fedhh_fo::{FoKind, FrequencyOracle, Oracle, PrivacyBudget, SupportCounts};
//! use rand::SeedableRng;
//!
//! let oracle = Oracle::new(FoKind::Grr, PrivacyBudget::new(2.0).unwrap(), 8);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let reports: Vec<_> = (0..1000).map(|_| oracle.perturb(3, &mut rng)).collect();
//!
//! let mut arena = SupportCounts::zeros(8);
//! for chunk in reports.chunks(256) {
//!     oracle.aggregate_into(chunk, &mut arena);
//! }
//! assert_eq!(arena, oracle.aggregate(&reports));
//! ```
//!
//! ## Vectorized hot path (0.8)
//!
//! [`FrequencyOracle::perturb_vectorized`] and
//! [`FrequencyOracle::aggregate_vectorized`] are a second, deliberately
//! *different* execution path: driven by the counter-based [`CtrRng`]
//! (every draw a pure function of `(key, report, draw)`), they fill and
//! consume structure-of-arrays [`ReportBatch`] arenas with branch-free
//! kernels.  The output is deterministic per key and bit-identical across
//! any chunking or evaluation order — but it is **not** the sequential RNG
//! stream, so `Vectorized` results differ numerically from `Scalar` at
//! the same seed (each path is pinned on its own).
//!
//! OLH's vectorized aggregation loop is compiled twice from one body — for
//! the build target's baseline ISA and, on `x86_64`, for AVX2 — and the
//! copy is picked at run time from the CPU's features.  Both copies count
//! the same whole-number supports and add them in the same order, so the
//! output does not depend on the CPU either.
//!
//! ```
//! use fedhh_fo::{CtrRng, FoKind, FrequencyOracle, Oracle, PrivacyBudget, ReportBatch, SupportCounts};
//!
//! let oracle = Oracle::new(FoKind::Oue, PrivacyBudget::new(2.0).unwrap(), 8);
//! let inputs = vec![3usize; 1000];
//! let rng = CtrRng::new(42);
//!
//! // Whole batch at once...
//! let mut whole = ReportBatch::new();
//! oracle.perturb_vectorized(&inputs, &rng, 0, &mut whole);
//!
//! // ...or any chunking, as long as `base` carries the global offset.
//! let mut chunked = ReportBatch::new();
//! let mut arena = SupportCounts::zeros(8);
//! for (i, chunk) in inputs.chunks(7).enumerate() {
//!     chunked.clear();
//!     oracle.perturb_vectorized(chunk, &rng, (i * 7) as u64, &mut chunked);
//!     oracle.aggregate_vectorized(&chunked, &mut arena);
//! }
//!
//! let mut whole_arena = SupportCounts::zeros(8);
//! oracle.aggregate_vectorized(&whole, &mut whole_arena);
//! assert_eq!(arena, whole_arena);
//! ```
//!
//! This crate is the lowest protocol layer — `fedhh-federated`'s
//! `LevelEstimator` drives these oracles for every trie level; the full
//! system map lives in `ARCHITECTURE.md` at the repository root.
#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod budget;
pub mod ctr;
pub mod domain;
pub mod error;
pub mod estimate;
pub mod grr;
pub mod hash;
pub mod olh;
pub mod oracle;
pub mod oue;
pub mod report;

pub use batch::{PackedBits, ReportBatch};
pub use budget::PrivacyBudget;
pub use ctr::CtrRng;
pub use domain::{CandidateDomain, DomainIndex};
pub use error::FoError;
pub use estimate::{FrequencyEstimate, SupportCounts};
pub use grr::GrrOracle;
pub use hash::UniversalHash;
pub use olh::OlhOracle;
pub use oracle::{FoKind, FrequencyOracle, Oracle, ParseFoKindError};
pub use oue::OueOracle;
pub use report::Report;
