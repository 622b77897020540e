//! The `fedhh-bench perf` performance-baseline subsystem.
//!
//! Correctness is gated by `cargo test`; this module gates **speed**.  It
//! runs a pinned suite of frequency-oracle and mechanism workloads, emits a
//! machine-readable `BENCH_perf.json`, and can compare a fresh run against a
//! committed baseline so CI fails on real hot-path regressions.
//!
//! ## The pinned suite
//!
//! | Entry name | Workload |
//! |---|---|
//! | `fo_perturb/<fo>/<path>` | Perturb a fixed report stream (`fedhh-fo`'s row `perturb` loop vs counter-RNG `perturb_vectorized`) |
//! | `fo_aggregate/<fo>/<path>` | Aggregate + estimate the stream (arena `aggregate_into` vs columnar `aggregate_vectorized`) |
//! | `assign/weighted` | `GroupAssignment::weighted_owned`: shuffle + deal one party's users into g = 24 groups, g_s = 6 (ns per user) |
//! | `estimate/level/krr` | `LevelEstimator::estimate_with`, vectorized k-RR, one level: prefix → domain index, perturb, aggregate (40 candidates + dummy, ~20 % of users in-domain, chunk 16 384) |
//! | `descent/taps/syn` | One sequential TAPS run on SYN (48-bit codes, g = 24, user scale 0.02: 8 parties, ~15.6k users); `reports` counts (party, level) steps and `ns_per_report` is ns per step — the per-level bookkeeping (extension, ranking, pruning) the reports ride on |
//! | `mech_e2e/{fedpem,gtf,tap,taps}/vectorized` | Each mechanism end-to-end on the RDB stand-in |
//! | `mech_e2e/{tap,taps}/vectorized/p2` | TAP and TAPS with OLH on a skewed population (YCM: one party holds 61 % of the users) under `EngineConfig::parallel(2)` — the legs where a worker without a party takes part of the big party's levels, and TAPS' one-party-at-a-time chain uses the second core at all |
//!
//! `<fo>` is `krr`, `oue` or `olh`; `<path>` is `scalar` (the row API
//! `fedhh-fo` keeps as the reference its tests compare the kernels
//! against) or `vectorized` (the kernels every run executes).  Both are
//! measured **in the same run**, so the kernels' speed-up over the
//! reference is visible in every emitted report, machine-independent.
//!
//! ## `BENCH_perf.json` schema (version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "suite": "quick",
//!   "entries": [
//!     {
//!       "name": "fo_perturb/krr/scalar",
//!       "reports": 20000,
//!       "ns_per_report": 14.2,
//!       "reports_per_sec": 70422535.2,
//!       "uplink_bits": 640000
//!     }
//!   ]
//! }
//! ```
//!
//! * `name` — stable workload identifier (the gate's join key).
//! * `reports` — user reports processed per timed iteration.
//! * `ns_per_report` — wall-clock nanoseconds per report from the fastest
//!   of several timing rounds (lower is better; the one gated column — the
//!   minimum, not the mean, because scheduler noise only ever adds time).
//! * `reports_per_sec` — the same measurement as a throughput.
//! * `uplink_bits` — party → server traffic per iteration (0 for pure
//!   client-side workloads).
//!
//! ## The regression gate
//!
//! `fedhh-bench perf --check <baseline.json> --threshold 2.0` re-runs the
//! suite and fails (non-zero exit) through the shared gate
//! ([`crate::report::check`]): `ns_per_report` is the one
//! [`Role::Ratio`](crate::report::Role) column, so an entry more than
//! `threshold ×` slower than its baseline is a violation, as is a workload
//! present on only one side.

use crate::json::Fmt;
use crate::report::{self, column, Column, Row, Shown, SCHEMA};
use crate::runner::ExperimentScale;
use fedhh_datasets::{DatasetKind, FederatedDataset};
use fedhh_federated::{
    EngineConfig, EstimateScratch, GroupAssignment, LevelEstimator, ProtocolConfig,
};
use fedhh_fo::{
    CtrRng, FoKind, FrequencyOracle, Oracle, PrivacyBudget, Report, ReportBatch, SupportCounts,
};
use fedhh_mechanisms::{MechanismKind, Run};
use fedhh_telemetry::{Telemetry, TraceLine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// One measured workload of the pinned suite.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfEntry {
    /// Stable workload identifier, e.g. `fo_perturb/krr/scalar`.
    pub name: String,
    /// Number of user reports processed per timed iteration.
    pub reports: u64,
    /// Wall-clock nanoseconds per report, from the fastest timing round.
    pub ns_per_report: f64,
    /// The same measurement as a throughput, in reports per second.
    pub reports_per_sec: f64,
    /// Party → server traffic per iteration, in bits (0 when the workload
    /// has no uplink).
    pub uplink_bits: u64,
}

/// A whole perf run: schema version, suite flavour and measured entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Schema version of the JSON serialization (currently 1).
    pub schema: u32,
    /// `"quick"` or `"full"`.
    pub suite: String,
    /// The measured workloads, in suite order.
    pub entries: Vec<PerfEntry>,
}

impl Row for PerfEntry {
    type Report = PerfReport;
    const NAME: &'static str = "perf";
    const HEAD: &'static [Column<PerfReport>] = &[column!(suite, "", Info)];
    const ROWS: &'static str = "entries";
    const COLUMNS: &'static [Column<Self>] = &[
        column!(name, "workload", Key),
        column!(reports, "reports", Info),
        column!(
            ns_per_report,
            "ns/report",
            Ratio,
            Fmt::Fixed(3),
            Shown::Fixed(1)
        ),
        column!(
            reports_per_sec,
            "reports/sec",
            Info,
            Fmt::Fixed(1),
            Shown::Fixed(0)
        ),
        column!(
            uplink_bits,
            "uplink kb",
            Info,
            Fmt::Shortest,
            Shown::Per(1000.0, 1)
        ),
    ];
    fn title(report: &PerfReport) -> String {
        format!("fedhh perf baseline ({} suite)", report.suite)
    }
    fn groups(report: &PerfReport) -> Vec<(&str, &[Self])> {
        vec![("", &report.entries)]
    }
}

impl PerfReport {
    /// Renders the report as an aligned plain-text table.
    pub fn to_table(&self) -> String {
        report::to_table::<PerfEntry>(self)
    }

    /// Serializes the report as schema-1 JSON.
    pub fn to_json(&self) -> String {
        report::to_json::<PerfEntry>(self)
    }

    /// Parses a schema-1 JSON report (the inverse of
    /// [`PerfReport::to_json`], tolerant of whitespace and key order).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let (head, entries) = report::from_json::<PerfEntry>(text)?;
        Ok(Self {
            schema: SCHEMA,
            entries,
            ..head
        })
    }
}

/// Users per iteration of the per-layer legs (`assign/*`, `estimate/*`).
/// One size for both suite flavours: below ~10^6 users the group arena fits
/// in cache and the legs would time a workload no party has.
const LAYER_USERS: usize = 1_000_000;

/// Suite sizing: how many reports per FO iteration and how long each
/// workload is measured.
#[derive(Debug, Clone, Copy)]
struct SuiteSize {
    fo_reports: usize,
    fo_domain: usize,
    /// Independent timing rounds per workload; the gate compares the
    /// fastest round (see `time_best`).
    trials: u32,
    warmup: u32,
    min_iters: u32,
    /// Keep timing until at least this much wall-clock accumulated — fast
    /// workloads (sub-ns/report) would otherwise be measured over a window
    /// short enough for scheduler noise to trip the regression gate.
    min_window: std::time::Duration,
    e2e_reps: u64,
    /// User-population multiplier for the end-to-end workloads: large
    /// enough that per-report work dominates per-run setup noise.
    e2e_user_scale: f64,
}

impl SuiteSize {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                fo_reports: 20_000,
                fo_domain: 64,
                trials: 5,
                warmup: 1,
                min_iters: 5,
                min_window: std::time::Duration::from_millis(20),
                e2e_reps: 20,
                e2e_user_scale: 0.02,
            }
        } else {
            Self {
                fo_reports: 100_000,
                fo_domain: 64,
                trials: 5,
                warmup: 2,
                min_iters: 10,
                min_window: std::time::Duration::from_millis(200),
                e2e_reps: 40,
                e2e_user_scale: 0.1,
            }
        }
    }
}

/// Times `f` over warmup iterations, then runs `trials` independent timing
/// rounds — each iterating until both `min_iters` and `min_window` are
/// satisfied (capped at 25x the window so a pathologically fast clock
/// cannot spin forever) — and returns the **fastest** round's mean seconds
/// per iteration.  The minimum is the right estimator for a regression
/// gate: scheduler preemption and frequency ramps only ever add time, so
/// the fastest round is the closest observation of the workload's true
/// cost, and a tight threshold stops flaking on noise a single mean would
/// soak up.
fn time_best<T>(
    trials: u32,
    warmup: u32,
    min_iters: u32,
    min_window: std::time::Duration,
    mut f: impl FnMut() -> T,
) -> f64 {
    for _ in 0..warmup {
        black_box(f());
    }
    let cap = min_window * 25;
    let mut best = f64::INFINITY;
    for _ in 0..trials.max(1) {
        let mut iters = 0u64;
        let start = Instant::now();
        let per_iter = loop {
            black_box(f());
            iters += 1;
            let elapsed = start.elapsed();
            if (iters >= min_iters as u64 && elapsed >= min_window) || elapsed >= cap {
                break elapsed.as_secs_f64() / iters as f64;
            }
        };
        best = best.min(per_iter);
    }
    best
}

fn entry(name: String, reports: usize, secs_per_iter: f64, uplink_bits: u64) -> PerfEntry {
    let reports = reports.max(1);
    let secs = secs_per_iter.max(1e-12);
    PerfEntry {
        name,
        reports: reports as u64,
        ns_per_report: secs * 1e9 / reports as f64,
        reports_per_sec: reports as f64 / secs,
        uplink_bits,
    }
}

/// Runs the pinned perf suite and returns the measured report.
pub fn run_suite(quick: bool) -> Result<PerfReport, String> {
    run_suite_impl(quick, None)
}

/// Like [`run_suite`] but with a JSONL trace sink attached to the
/// mechanism end-to-end legs (`fedhh-bench perf --trace`).  The
/// frequency-oracle kernel legs stay telemetry-free — they never touch the
/// `Run` machinery, so a sink would only add noise to the numbers the gate
/// compares.
///
/// Each e2e leg gets a **fresh** sink, flushed as one mark-delimited
/// section named after the leg with `runs = e2e_reps + 1` (warm-up
/// included).  Every run in a leg uses identical seeds, so the section's
/// `uplink.bits` counter must equal `runs ×` the leg's `uplink_bits` entry
/// — the cross-check `fedhh-bench trace-check --perf` enforces.
pub fn run_suite_traced(quick: bool, trace: &mut dyn std::io::Write) -> Result<PerfReport, String> {
    run_suite_impl(quick, Some(trace))
}

fn run_suite_impl(
    quick: bool,
    trace: Option<&mut dyn std::io::Write>,
) -> Result<PerfReport, String> {
    let size = SuiteSize::new(quick);
    let mut entries = Vec::new();

    // --- Frequency-oracle workloads -------------------------------------
    let budget = PrivacyBudget::new(4.0).map_err(|e| e.to_string())?;
    for kind in FoKind::ALL {
        let oracle = Oracle::try_new(kind, budget, size.fo_domain).map_err(|e| e.to_string())?;
        let inputs: Vec<usize> = (0..size.fo_reports).map(|i| i % size.fo_domain).collect();

        // Perturbation: the row reference's sequential-RNG loop vs the
        // counter-RNG kernel, over the same inputs.
        let scalar_secs = time_best(
            size.trials,
            size.warmup,
            size.min_iters,
            size.min_window,
            || perturb_scalar(&oracle, &inputs, 42),
        );
        let mut vec_batch = ReportBatch::new();
        let vec_secs = time_best(
            size.trials,
            size.warmup,
            size.min_iters,
            size.min_window,
            || {
                vec_batch.clear();
                oracle.perturb_vectorized(&inputs, &CtrRng::new(42), 0, &mut vec_batch);
                vec_batch.len()
            },
        );
        let report_bits = (oracle.report_bits() * size.fo_reports) as u64;
        entries.push(entry(
            format!("fo_perturb/{kind}/scalar"),
            size.fo_reports,
            scalar_secs,
            report_bits,
        ));
        entries.push(entry(
            format!("fo_perturb/{kind}/vectorized"),
            size.fo_reports,
            vec_secs,
            vec_batch.size_bits() as u64,
        ));

        // Aggregation + estimation into the caller-owned arena: the row
        // reference vs the columnar kernel the estimator folds a chunk with.
        let reports = perturb_scalar(&oracle, &inputs, 7);
        let mut arena = SupportCounts::zeros(size.fo_domain);
        let agg_scalar_secs = time_best(
            size.trials,
            size.warmup,
            size.min_iters,
            size.min_window,
            || {
                arena.reset(size.fo_domain);
                oracle.aggregate_into(&reports, &mut arena);
                oracle.estimate(&arena, reports.len())
            },
        );
        let agg_vec_secs = time_best(
            size.trials,
            size.warmup,
            size.min_iters,
            size.min_window,
            || {
                arena.reset(size.fo_domain);
                oracle.aggregate_vectorized(&vec_batch, &mut arena);
                oracle.estimate(&arena, vec_batch.len())
            },
        );
        entries.push(entry(
            format!("fo_aggregate/{kind}/scalar"),
            size.fo_reports,
            agg_scalar_secs,
            0,
        ));
        entries.push(entry(
            format!("fo_aggregate/{kind}/vectorized"),
            size.fo_reports,
            agg_vec_secs,
            0,
        ));
    }

    // --- Per-layer workloads ---------------------------------------------
    // The two per-user steps between the kernels above and the end-to-end
    // legs below, at the paper's protocol shape (48-bit codes, g = 24).
    let layer_config = ProtocolConfig::default();
    // 40 candidate 16-bit prefixes; one user in five holds one of them, the
    // rest a uniform prefix (in-domain with probability 40 / 65 536).  Drawn
    // from an RNG so the hit/miss sequence has no period to learn.
    let prefix_len = 16u8;
    let candidates: Vec<u64> = (0..40u64).map(|i| (i * 1_637 + 11) & 0xFFFF).collect();
    let mut rng = StdRng::seed_from_u64(5);
    let items: Vec<u64> = (0..LAYER_USERS)
        .map(|_| {
            let prefix = if rng.gen_range(0..5u32) == 0 {
                candidates[rng.gen_range(0..candidates.len())]
            } else {
                rng.gen_range(0..1u64 << prefix_len)
            };
            (prefix << (layer_config.max_bits - prefix_len)) | rng.gen_range(0..1u64 << 32)
        })
        .collect();

    // Timed by hand: the deal consumes its input, and the copy handed to
    // it must stay outside the clock.
    let mut assign_secs = f64::INFINITY;
    for _ in 0..size.e2e_reps {
        let owned = items.clone();
        let start = Instant::now();
        let assignment = GroupAssignment::weighted_owned(
            owned,
            layer_config.granularity,
            6,
            layer_config.phase1_user_fraction,
            42,
        )
        .map_err(|e| e.to_string())?;
        assign_secs = assign_secs.min(start.elapsed().as_secs_f64());
        black_box(assignment);
    }
    entries.push(entry(
        "assign/weighted".to_string(),
        LAYER_USERS,
        assign_secs,
        0,
    ));

    let estimator = LevelEstimator::new(layer_config).map_err(|e| e.to_string())?;
    let mut scratch = EstimateScratch::new();
    let mut level_bits = 0u64;
    let level_secs = time_best(
        size.trials,
        size.warmup,
        size.min_iters,
        size.min_window,
        || {
            let estimate =
                estimator.estimate_with(&mut scratch, &candidates, prefix_len, &items, 1);
            level_bits = estimate.report_bits as u64;
            estimate
        },
    );
    entries.push(entry(
        "estimate/level/krr".to_string(),
        LAYER_USERS,
        level_secs,
        level_bits,
    ));

    entries.push(descent_leg(&size)?);
    mechanism_legs(&size, trace, &mut entries)?;

    Ok(PerfReport {
        schema: SCHEMA,
        suite: if quick { "quick" } else { "full" }.to_string(),
        entries,
    })
}

/// The row-reference perturbation loop of the `fo_perturb/*/scalar` legs, one
/// monomorphic loop per oracle.  Left as `oracle.perturb(..)` inside
/// `run_suite_impl`, whether LLVM inlined the enum dispatch and the RNG
/// draws under it flipped with unrelated edits to this crate (k-RR read
/// 10 or 15 ns/report for the same kernel); dispatching once, outside the
/// loop, times the kernel and nothing else.
#[inline(never)]
fn perturb_scalar(oracle: &Oracle, inputs: &[usize], seed: u64) -> Vec<Report> {
    fn stream(oracle: &impl FrequencyOracle, inputs: &[usize], seed: u64) -> Vec<Report> {
        let mut rng = StdRng::seed_from_u64(seed);
        inputs
            .iter()
            .map(|i| oracle.perturb(*i, &mut rng))
            .collect()
    }
    match oracle {
        Oracle::Grr(o) => stream(o, inputs, seed),
        Oracle::Oue(o) => stream(o, inputs, seed),
        Oracle::Olh(o) => stream(o, inputs, seed),
    }
}

/// The `descent/taps/syn` leg: one sequential TAPS run on SYN at the
/// paper's shapes (48-bit codes, full item pools, g = 24) and user scale
/// 0.02, the population of the benchmark's `node-syn-taps-loopback`, timed
/// per (party, level) step.  Every party descends every level once, so a
/// run is `parties × g` steps; at ~15.6k users a step's reports cost less
/// than its bookkeeping (extension, ranking, pruning), which is what this
/// leg puts in the ledger.
fn descent_leg(size: &SuiteSize) -> Result<PerfEntry, String> {
    let scale = ExperimentScale {
        item_scale: 1.0,
        ..ExperimentScale::default()
    };
    let dataset = scale.dataset_config(54).build(DatasetKind::Syn);
    let config = scale.protocol_config(23);
    let steps = dataset.party_count() * usize::from(config.granularity);
    let (best, uplink_bits) = fastest_run(
        size,
        MechanismKind::Taps,
        &dataset,
        config,
        EngineConfig::sequential(),
        &Telemetry::disabled(),
    )?;
    Ok(entry(
        "descent/taps/syn".to_string(),
        steps,
        best,
        uplink_bits,
    ))
}

/// Runs `kind` once to warm up, then `size.e2e_reps` times, and returns
/// the fastest mechanism-reported wall-clock in seconds with the run's
/// uplink bits.  Like `time_best`, the minimum is what the gate should
/// compare, because noise only ever slows a rep down.
fn fastest_run(
    size: &SuiteSize,
    kind: MechanismKind,
    dataset: &FederatedDataset,
    config: ProtocolConfig,
    engine: EngineConfig,
    telemetry: &Telemetry,
) -> Result<(f64, u64), String> {
    let mechanism = kind.build();
    let mut uplink_bits = 0u64;
    let mut run_once = || -> Result<f64, String> {
        let output = Run::custom(mechanism.as_ref())
            .dataset(dataset)
            .config(config)
            .engine(engine)
            .telemetry(telemetry)
            .execute()
            .map_err(|e| e.to_string())?;
        uplink_bits = output.comm.total_uplink_bits() as u64;
        Ok(output.elapsed.as_secs_f64())
    };
    run_once()?;
    let mut best = f64::INFINITY;
    for _ in 0..size.e2e_reps {
        best = best.min(run_once()?);
    }
    Ok((best, uplink_bits))
}

/// The mechanism end-to-end legs of the suite, appended to `entries` (and,
/// traced, one mark-delimited section per leg to `trace`).
#[inline(never)]
fn mechanism_legs(
    size: &SuiteSize,
    mut trace: Option<&mut dyn std::io::Write>,
    entries: &mut Vec<PerfEntry>,
) -> Result<(), String> {
    // Pinned to the quick protocol shape (16-bit codes, 8 levels), the RDB
    // stand-in and the sequential engine so timings measure the hot path,
    // not thread setup — but with a boosted user population so per-report
    // work dominates per-run setup noise.
    let scale = ExperimentScale {
        user_scale: size.e2e_user_scale,
        ..ExperimentScale::quick()
    };
    let dataset = scale.dataset_config(11).build(DatasetKind::Rdb);
    let base_config = scale.protocol_config(23).with_epsilon(4.0).with_k(10);
    let mut e2e = |kind: MechanismKind,
                   config: ProtocolConfig,
                   dataset: &FederatedDataset,
                   engine: EngineConfig,
                   label: &str|
     -> Result<(), String> {
        // One fresh sink per leg so each flushes as its own mark-delimited
        // section; disabled (one branch per record) when untraced.
        let telemetry = if trace.is_some() {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let (best, uplink_bits) = fastest_run(size, kind, dataset, config, engine, &telemetry)?;
        let users = dataset.total_users();
        entries.push(entry(format!("mech_e2e/{label}"), users, best, uplink_bits));
        if let Some(w) = trace.as_deref_mut() {
            // The section covers warm-up + reps, all at identical seeds:
            // its uplink.bits counter is exactly runs × the leg's
            // uplink_bits (the trace-check --perf cross-check).
            let mark = TraceLine::Mark {
                name: format!("mech_e2e/{label}"),
                runs: size.e2e_reps + 1,
            };
            writeln!(w, "{}", mark.to_json()).map_err(|e| e.to_string())?;
            telemetry.write_jsonl(w).map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    for (kind, label) in E2E_LEGS {
        e2e(
            kind,
            base_config,
            &dataset,
            EngineConfig::sequential(),
            label,
        )?;
    }
    // The parallel legs: two workers on a population one party dominates,
    // with the oracle whose levels are worth splitting (OLH is O(n·d)).
    // One size for both suite flavours — below it the big party's levels
    // stop carrying the work a helper needs, and the legs would time a
    // schedule no skewed federation gets.
    let skewed = ExperimentScale {
        user_scale: SKEWED_USER_SCALE,
        ..ExperimentScale::quick()
    }
    .dataset_config(11)
    .build(DatasetKind::Ycm);
    for (kind, label) in PARALLEL_LEGS {
        e2e(
            kind,
            base_config.with_fo(FoKind::Olh),
            &skewed,
            EngineConfig::parallel(2),
            label,
        )?;
    }

    Ok(())
}

/// The four pinned mechanism end-to-end legs, in suite order.
const E2E_LEGS: [(MechanismKind, &str); 4] = [
    (MechanismKind::FedPem, "fedpem/vectorized"),
    (MechanismKind::Gtf, "gtf/vectorized"),
    (MechanismKind::Tap, "tap/vectorized"),
    (MechanismKind::Taps, "taps/vectorized"),
];

/// The two legs on the parallel engine, in suite order.
const PARALLEL_LEGS: [(MechanismKind, &str); 2] = [
    (MechanismKind::Tap, "tap/vectorized/p2"),
    (MechanismKind::Taps, "taps/vectorized/p2"),
];

/// User-population multiplier of the parallel legs' YCM stand-in: 400 814
/// users, 243 690 of them in one party, so that party's Phase II levels
/// (≈ 36 500 users over ≈ 40 slots) each carry ≈ 1.5 ms of OLH kernel work.
const SKEWED_USER_SCALE: f64 = 0.3;

/// Measures telemetry overhead the only way wall-clock noise allows:
/// **interleaved in one process**.  Comparing two separate `perf`
/// invocations (one traced, one not) cannot resolve a 3% effect — on
/// shared CI hardware consecutive *identical* runs routinely drift 5–20%
/// from scheduler preemption and frequency ramps.  Here each mechanism
/// end-to-end leg alternates untraced and traced runs rep by rep, so both
/// sides see the same thermal and scheduler conditions, and the minimum
/// over reps on each side discards the noise (noise only ever adds time).
///
/// Returns `(untraced, traced)` reports holding only the `mech_e2e/*`
/// entries (the frequency-oracle kernels never touch the `Run` machinery,
/// so a sink cannot slow them down).  Both carry identical entry names, so
/// the pair's entries feed straight into [`report::check`] — the same gate CI uses
/// for ordinary perf regressions, here with a tight threshold like 1.03.
///
/// Both flavours measure at the **full** suite's end-to-end population.
/// A run records a fixed number of span events (one per level, not per
/// report), so telemetry cost is a constant ~5 µs per run: against the
/// quick flavour's deliberately tiny ~250 µs runs that fixed cost alone
/// reads as ~2%, saying nothing about real workloads.  The overhead
/// contract is about per-report work dominating the fixed cost, so it is
/// measured where per-report work actually dominates; `quick` only trims
/// the rep count.
pub fn run_overhead_suite(quick: bool) -> Result<(PerfReport, PerfReport), String> {
    run_overhead_suite_impl(quick, if quick { 100 } else { 200 })
}

fn run_overhead_suite_impl(quick: bool, reps: u64) -> Result<(PerfReport, PerfReport), String> {
    let scale = ExperimentScale {
        user_scale: SuiteSize::new(false).e2e_user_scale,
        ..ExperimentScale::quick()
    };
    let dataset = scale.dataset_config(11).build(DatasetKind::Rdb);
    let users = dataset.total_users();
    let engine = EngineConfig::sequential();
    let mut untraced_entries = Vec::new();
    let mut traced_entries = Vec::new();
    for (kind, label) in E2E_LEGS {
        let mechanism = kind.build();
        let config = scale.protocol_config(23).with_epsilon(4.0).with_k(10);
        let telemetry = Telemetry::new();
        let disabled = Telemetry::disabled();
        let mut uplink_bits = 0u64;
        let mut run_once = |sink: &Telemetry| -> Result<f64, String> {
            let output = Run::custom(mechanism.as_ref())
                .dataset(&dataset)
                .config(config)
                .engine(engine)
                .telemetry(sink)
                .execute()
                .map_err(|e| e.to_string())?;
            uplink_bits = output.comm.total_uplink_bits() as u64;
            Ok(output.elapsed.as_secs_f64())
        };
        // Warm both sides, then alternate: any drift mid-leg hits the two
        // sides symmetrically instead of biasing whichever ran second.
        // Far more reps than the timing suite uses — a tight ratio gate
        // needs both minima to actually reach the workload's floor, not
        // just near it.
        run_once(&disabled)?;
        run_once(&telemetry)?;
        let mut best_off = f64::INFINITY;
        let mut best_on = f64::INFINITY;
        for _ in 0..reps {
            best_off = best_off.min(run_once(&disabled)?);
            best_on = best_on.min(run_once(&telemetry)?);
        }
        untraced_entries.push(entry(
            format!("mech_e2e/{label}"),
            users,
            best_off,
            uplink_bits,
        ));
        traced_entries.push(entry(
            format!("mech_e2e/{label}"),
            users,
            best_on,
            uplink_bits,
        ));
    }
    let suite = if quick { "quick" } else { "full" }.to_string();
    Ok((
        PerfReport {
            schema: SCHEMA,
            suite: suite.clone(),
            entries: untraced_entries,
        },
        PerfReport {
            schema: SCHEMA,
            suite,
            entries: traced_entries,
        },
    ))
}

/// The `--overhead-gate` table: each leg's untraced and traced ns/report
/// and their ratio.
pub fn overhead_table(untraced: &PerfReport, traced: &PerfReport) -> String {
    let mut rows = Vec::new();
    for (off, on) in untraced.entries.iter().zip(&traced.entries) {
        rows.push(vec![
            off.name.clone(),
            format!("{:.1}", off.ns_per_report),
            format!("{:.1}", on.ns_per_report),
            format!("{:.3}", on.ns_per_report / off.ns_per_report),
        ]);
    }
    let header = ["workload", "off ns/rpt", "on ns/rpt", "ratio"];
    let (table, suite) = (report::align(&header, &rows), &untraced.suite);
    format!("# fedhh telemetry overhead ({suite} suite)\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        PerfReport {
            schema: 1,
            suite: "quick".to_string(),
            entries: vec![
                PerfEntry {
                    name: "fo_perturb/krr/scalar".to_string(),
                    reports: 20_000,
                    ns_per_report: 14.25,
                    reports_per_sec: 70_175_438.6,
                    uplink_bits: 640_000,
                },
                PerfEntry {
                    name: "mech_e2e/fedpem/vectorized".to_string(),
                    reports: 5_000,
                    ns_per_report: 800.0,
                    reports_per_sec: 1_250_000.0,
                    uplink_bits: 12_800,
                },
            ],
        }
    }

    #[test]
    fn to_json_matches_the_pinned_bytes() {
        let mut report = sample_report();
        report.entries[1].name = "weird \"name\" with \\ and \t\u{1}".to_string();
        report.entries[1].ns_per_report = 0.0004;
        assert_eq!(
            report.to_json(),
            r#"{
  "schema": 1,
  "suite": "quick",
  "entries": [
    {"name": "fo_perturb/krr/scalar", "reports": 20000, "ns_per_report": 14.250, "reports_per_sec": 70175438.6, "uplink_bits": 640000},
    {"name": "weird \"name\" with \\ and \t\u0001", "reports": 5000, "ns_per_report": 0.000, "reports_per_sec": 1250000.0, "uplink_bits": 12800}
  ]
}
"#
        );
        report.entries.clear();
        assert_eq!(
            report.to_json(),
            r#"{
  "schema": 1,
  "suite": "quick",
  "entries": [
  ]
}
"#
        );
    }

    #[test]
    fn json_round_trips() {
        let mut report = sample_report();
        // Names needing JSON escaping survive the round trip.
        report.entries[1].name = "weird \"name\" with \\ and \t".to_string();
        assert_eq!(PerfReport::from_json(&report.to_json()), Ok(report));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(PerfReport::from_json("").is_err());
        assert!(PerfReport::from_json("{").is_err());
        assert!(PerfReport::from_json("{\"schema\": 1}").is_err());
        assert!(
            PerfReport::from_json("{\"schema\": 2, \"suite\": \"x\", \"entries\": []}").is_err()
        );
        assert!(PerfReport::from_json("[1, 2, 3]").is_err());
        // Trailing garbage after a valid document is rejected.
        let mut doc = sample_report().to_json();
        doc.push_str("{}");
        assert!(PerfReport::from_json(&doc).is_err());
        // Numbers that do not fit their field are errors, not casts.
        report::assert_reader_is_strict::<PerfEntry>(&sample_report());
        // Every committed baseline still parses.
        let committed = include_str!("../../../ci/perf-baseline.json");
        assert!(!PerfReport::from_json(committed).unwrap().entries.is_empty());
    }

    #[test]
    fn check_passes_within_threshold_and_fails_on_injected_slowdown() {
        let baseline = sample_report().entries;
        let mut current = baseline.clone();
        // 1.5x slower: inside the 2x budget.
        current[0].ns_per_report = baseline[0].ns_per_report * 1.5;
        assert!(report::check(&current, &baseline, 2.0).is_empty());
        // 3x slower: a regression the gate must catch.
        current[0].ns_per_report = baseline[0].ns_per_report * 3.0;
        let violations = report::check(&current, &baseline, 2.0);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("fo_perturb/krr/scalar: ns_per_report"));
        assert!(violations[0].contains("3.00x"), "{}", violations[0]);
        // Only ns_per_report is gated: the other columns may move freely.
        current[0].ns_per_report = baseline[0].ns_per_report;
        current[0].reports_per_sec *= 100.0;
        current[0].uplink_bits += 1;
        assert!(report::check(&current, &baseline, 2.0).is_empty());
    }

    #[test]
    fn check_flags_entries_missing_from_the_current_run() {
        let baseline = sample_report().entries;
        let violations = report::check(&baseline[..1], &baseline, 10.0);
        assert_eq!(
            violations,
            ["mech_e2e/fedpem/vectorized: missing from the current run"]
        );
    }

    #[test]
    fn check_names_workloads_new_in_the_current_run() {
        // A workload the baseline has never seen is a violation too — the
        // committed baseline is stale and the new entry would otherwise run
        // ungated forever.
        let grown = sample_report().entries;
        let violations = report::check(&grown, &grown[..1], 2.0);
        assert_eq!(
            violations,
            ["mech_e2e/fedpem/vectorized: new cell missing from the baseline (regenerate it)"]
        );
    }

    #[test]
    fn quick_suite_covers_every_pinned_workload() {
        let report = run_suite(true).unwrap();
        assert_eq!(report.schema, 1);
        assert_eq!(report.suite, "quick");
        for kind in ["krr", "oue", "olh"] {
            for path in ["scalar", "vectorized"] {
                for family in ["fo_perturb", "fo_aggregate"] {
                    let name = format!("{family}/{kind}/{path}");
                    assert!(
                        report.entries.iter().any(|e| e.name == name),
                        "missing {name}"
                    );
                }
            }
        }
        for name in [
            "assign/weighted",
            "estimate/level/krr",
            "descent/taps/syn",
            "mech_e2e/fedpem/vectorized",
            "mech_e2e/gtf/vectorized",
            "mech_e2e/tap/vectorized",
            "mech_e2e/taps/vectorized",
            "mech_e2e/tap/vectorized/p2",
            "mech_e2e/taps/vectorized/p2",
        ] {
            assert!(
                report.entries.iter().any(|e| e.name == name),
                "missing {name}"
            );
        }
        for e in &report.entries {
            assert!(e.ns_per_report > 0.0, "{}: non-positive time", e.name);
            assert!(e.reports_per_sec > 0.0, "{}", e.name);
        }
        // The e2e mechanism runs produced uplink traffic.
        assert!(report
            .entries
            .iter()
            .filter(|e| e.name.starts_with("mech_e2e/"))
            .all(|e| e.uplink_bits > 0));
        // And a run checks clean against itself.
        assert!(report::check(&report.entries, &report.entries, 1.0 + 1e-9).is_empty());
    }

    #[test]
    fn overhead_suite_yields_checkable_report_pair() {
        // Two reps keep the test fast; the CI gate uses the full count.
        let (untraced, traced) = run_overhead_suite_impl(true, 2).unwrap();
        assert_eq!(untraced.suite, "quick");
        assert_eq!(traced.suite, "quick");
        assert_eq!(untraced.entries.len(), E2E_LEGS.len());
        // Entry names line up pairwise, so the gate joins them all —
        // a generous threshold must pass (both sides measure real work).
        for (a, b) in untraced.entries.iter().zip(&traced.entries) {
            assert_eq!(a.name, b.name);
            assert!(a.name.starts_with("mech_e2e/"), "{}", a.name);
            assert!(a.ns_per_report > 0.0 && b.ns_per_report > 0.0);
            assert_eq!(a.uplink_bits, b.uplink_bits, "{}: same seeds", a.name);
        }
        assert!(report::check(&traced.entries, &untraced.entries, 1000.0).is_empty());
    }
}
