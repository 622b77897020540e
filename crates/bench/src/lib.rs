//! # fedhh-bench — benchmark harness for the paper's evaluation
//!
//! Every table and figure of the paper's Section 7 is one **declaration**
//! in [`experiments`] (on the synthetic stand-in datasets, see
//! `ARCHITECTURE.md`, "Substitutions"):
//!
//! | Experiment | Paper artefact | Declaration |
//! |---|---|---|
//! | `fig4` | Figure 4 — F1 vs ε for k ∈ {10, 20, 40} | [`experiments::fig4`] |
//! | `fig5` | Figure 5 — NCR vs ε for k ∈ {10, 20, 40} | [`experiments::fig5`] |
//! | `fig6` | Figure 6 — F1 vs ε under OUE and OLH | [`experiments::fig6`] |
//! | `fig7` | Figure 7 — TAPS vs TAP (pruning ablation) | [`experiments::fig7`] |
//! | `table1` | Table 1 — communication cost vs direct uploads | [`experiments::table1`] |
//! | `table3` | Table 3 — F1 vs step size | [`experiments::table3`] |
//! | `table4` | Table 4 — scalability on UBA | [`experiments::table4`] |
//! | `table5` | Table 5 — fixed vs adaptive extension | [`experiments::table5`] |
//! | `table6` | Table 6 — shared shallow trie ablation | [`experiments::table6`] |
//! | `table7` | Table 7 — average local recall (heterogeneity) | [`experiments::table7`] |
//! | `table8` | Table 8 — Dirichlet β heterogeneity sweep | [`experiments::table8`] |
//!
//! A declaration is an id, a title, its metrics and its cells; one runner
//! walks any of them through the one repetition loop
//! ([`runner::repeat_trials`]) into rows of one type
//! ([`experiments::ExperimentRow`]: a cell's metric, its mean over the
//! repetitions and the mean's standard error).  `fedhh-bench run fig4` runs
//! one declaration, `fedhh-bench run all` the whole evaluation; the result
//! at the default scale is committed as `results/experiments.json`, gated
//! in CI and read in EXPERIMENTS.md.
//!
//! Besides the paper evaluation, four subcommands each run one sweep and
//! write one machine-readable report:
//!
//! | Subcommand | Report | Sweep | Gate |
//! |---|---|---|---|
//! | `perf` | `BENCH_perf.json` | pinned FO + mechanism hot-path suite, ns/report ([`perf`]) | `--check`, ratio on `ns_per_report` |
//! | `scale` | `BENCH_scale.json` | `user_scale` up to the paper's populations, throughput + peak RSS ([`scale`]) | `--max-rss-mb` |
//! | `epochs` | `BENCH_epochs.json` | epoch service under churn + drift, both warm-start arms ([`epochs`]) | — |
//! | `scenario` | `BENCH_scenario.json` | mechanism × scenario plan: each adversary × fraction, each topology (flat, tree fanouts) × quorum ([`scenario`]) | `--check`, delta on F1/NCR/uplink |
//!
//! All five reports (`run`'s and these four) share **one report layer**
//! ([`report`]): a report is head fields plus rows of one row type, the row
//! type declares its columns once ([`Row`]), and writing, reading, table
//! rendering and the baseline gate ([`check`]) are derived from that
//! declaration over the one JSON module ([`json`]: the report-layout
//! writer plus `fedhh_telemetry::json`'s strict reader, re-exported).  Each report module's
//! docs keep only what is its own: the sweep, the schema example and what
//! its columns mean.  The two binaries
//! share **one option grammar and one command driver** ([`cli`]): a
//! `--check BASELINE` is loaded (and its suite matched) before the sweep
//! starts, the fresh report is re-parsed from its own JSON so `--threshold
//! 0` means "byte-equal files", and a cell present on only one side fails
//! the gate on every subcommand.
//!
//! The harness's place in the system is mapped in `ARCHITECTURE.md` at the
//! repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod epochs;
pub mod experiments;
pub mod json;
pub mod nodespec;
pub mod perf;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scenario;

pub use epochs::{
    run_epochs, EpochPoint, EpochServiceSpec, EpochsOptions, EpochsReport, MechanismExecutor,
};
pub use experiments::{ExperimentRow, ExperimentsReport};
pub use nodespec::{partition_parties, NodeRunSpec};
pub use perf::{run_overhead_suite, run_suite, run_suite_traced, PerfEntry, PerfReport};
pub use report::{check, Row};
pub use runner::{ExperimentScale, TrialMetrics};
pub use scale::{run_scale, run_scale_traced, ScaleOptions, ScalePoint, ScaleReport};
pub use scenario::{adversary_by_name, run_scenario, ScenarioOptions, ScenarioReport, ScenarioRow};
