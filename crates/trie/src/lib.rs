//! # fedhh-trie — prefix-tree substrate
//!
//! The heavy hitter mechanisms in this workspace all operate on a binary
//! **prefix tree** over an m-bit item domain: each item is encoded as an
//! m-bit string, each level *h* of the tree corresponds to prefixes of
//! length `l_h = ⌈h·m/g⌉`, and candidate domains are built by extending the
//! surviving prefixes of one level with every possible bit combination of
//! the next step (Section 5.1 of the paper).
//!
//! This crate provides that substrate:
//!
//! * [`Prefix`] — an m-bit-aware bit-string prefix with extension,
//!   truncation and containment operations ([`bits`]).
//! * [`LevelSchedule`] — the mapping from tree level to prefix length for a
//!   maximum length `m` and granularity `g` ([`level`]).
//! * [`extend_prefix_values`] — the candidate-domain construction
//!   Λ_h = C_{h−1} × {0,1}^(l_h − l_{h−1}) ([`extension`]).
//! * [`ItemEncoder`] — a seeded Feistel permutation that spreads item
//!   identifiers over the m-bit code space, mimicking how real deployments
//!   hash words/items into a fixed-width binary representation
//!   ([`encoding`]).
//! * [`PrefixTree`] — a counted prefix tree used for exact (non-private)
//!   ground-truth computations and analysis ([`tree`]).

//!
//! This crate is a leaf substrate — prefixes, schedules and encoders
//! consumed by the estimator and the mechanisms; the full system map
//! lives in `ARCHITECTURE.md` at the repository root.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bits;
pub mod encoding;
pub mod extension;
pub mod level;
pub mod tree;

pub use bits::Prefix;
pub use encoding::ItemEncoder;
pub use extension::extend_prefix_values;
pub use level::LevelSchedule;
pub use tree::PrefixTree;
