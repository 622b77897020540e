//! # fedhh-benchmark — the end-to-end + per-layer benchmark of the fedhh workspace
//!
//! One binary, driven by `BENCHMARK.json` at the repository root:
//!
//! ```text
//! fedhh-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload in one process and prints, as the last line of its
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`: every end-to-end metric with `--trace 0`
//! ([`measure`]), every per-layer metric with `--trace 1` ([`layers`]).
//! `run` drives every workload in a child process of its own and `compare`
//! judges two result sets against the bounds in [`catalog`].
//!
//! The benchmark sees the program only through the `fedhh` umbrella crate's
//! public items; see `README.md` for the list.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod compare;
pub mod json;
pub mod layers;
pub mod measure;
pub mod report;
pub mod service;
pub mod spans;
pub mod stats;
pub mod workload;

/// Where the benchmark writes: checkpoints of the service workload, traces
/// and result sets.  Inside the checkout the binary was built from, and
/// ignored by git.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
