//! The end-to-end pass (`--trace 0`): set-up, verification, the timed
//! closed loop, and the seven end-to-end metrics.
//!
//! Closed loop, one client: the next operation starts when the previous
//! one returns.  Telemetry is off for every timed operation.

use crate::catalog::END_TO_END;
use crate::report::{MetricSet, RunResult, Tally};
use crate::stats::{
    cpu_seconds, iqr_share, mean, median, peak_rss_mb, percentile, secs, tail_percentile,
};
use crate::workload::{Outcome, Prepared, Shape, Variant, WorkloadSpec};
use fedhh::prelude::Telemetry;
use std::time::{Duration, Instant};

/// What one benchmark run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub spec: &'static WorkloadSpec,
    /// `--seed`: every protocol, noise and evolution seed derives from it
    /// (the population does not — see `workload::DATASET_SEED`).
    pub seed: u64,
    /// `--seconds`: length of the timed window.
    pub seconds: f64,
    /// `--smoke`: the same code path on a 50x smaller population and a 50x
    /// shorter window (the crate's own tests).
    pub smoke: bool,
    /// Test seam: poison the reference digests, so every operation must be
    /// counted as failed.
    pub corrupt_reference: bool,
}

impl Options {
    /// The timed-window length after `--smoke` scaling.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke {
            self.seconds / 50.0
        } else {
            self.seconds
        })
    }

    /// A timed window holds at least this many operations, however slow.
    pub fn min_timed_ops(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }

    /// The seed-cycle length after `--smoke` scaling.
    pub fn cycle(&self) -> usize {
        if self.smoke {
            self.spec.seed_cycle.min(4)
        } else {
            self.spec.seed_cycle
        }
    }
}

/// Set-up repeats until it has run this often *and* for [`SETUP_BUDGET`]…
const MIN_SETUPS: usize = 3;
/// …but never more often than this.
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(1_500);

/// Runs set-up repeatedly (dropping each population before building the
/// next, so peak memory holds one) and returns the last population with
/// every set-up's wall time.
pub fn repeated_setup(opts: &Options) -> (Prepared, Vec<f64>) {
    let budget = Instant::now();
    let mut times = Vec::new();
    let mut prepared = None;
    loop {
        drop(prepared.take());
        let started = Instant::now();
        let built = Prepared::setup(opts.spec, opts.seed, opts.smoke);
        times.push(secs(started.elapsed()));
        prepared = Some(built);
        let enough = times.len() >= MIN_SETUPS && budget.elapsed() >= SETUP_BUDGET;
        if enough || times.len() >= MAX_SETUPS || (opts.smoke && times.len() >= MIN_SETUPS) {
            return (prepared.expect("at least one set-up ran"), times);
        }
    }
}

/// The utility and cost of the workload, exact per seed: means over the
/// verification cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    /// Mean `comm.total_uplink_bits()` per operation.
    pub uplink_bits: f64,
    /// Mean F1 against the exact top-k.
    pub f1: f64,
    /// Mean NCR against the exact top-k.
    pub ncr: f64,
}

/// A prepared workload plus its reference digests and failure tally: every
/// operation goes through [`Bench::op`], which verifies it.
pub struct Bench {
    /// The prepared workload.
    pub prepared: Prepared,
    /// Operations attempted and failed so far.
    pub tally: Tally,
    cycle: usize,
    references: Vec<u64>,
}

impl Bench {
    /// Computes the reference digest of every seed in the cycle: the plain
    /// sequential flat in-memory run (never counted as an operation).
    pub fn new(prepared: Prepared, opts: &Options) -> Result<Self, String> {
        let variant = prepared.spec.reference_variant();
        let telemetry = Telemetry::disabled();
        let cycle = opts.cycle();
        let references = (0..cycle)
            .map(|index| {
                let outcome = prepared.execute(&variant, prepared.protocol_seed(index), &telemetry);
                outcome.map(|o| o.digest ^ u64::from(opts.corrupt_reference))
            })
            .collect::<Result<Vec<u64>, String>>()
            .map_err(|err| format!("reference run failed: {err}"))?;
        Ok(Self {
            prepared,
            tally: Tally::default(),
            cycle,
            references,
        })
    }

    /// Executes operation number `index` under `variant`, verifies its
    /// output digest against the reference at the same seed, and books it.
    /// Returns the outcome (even of a digest mismatch — it still ran) and
    /// the wall time.
    pub fn op(
        &mut self,
        index: usize,
        variant: &Variant,
        telemetry: &Telemetry,
    ) -> (Option<Outcome>, Duration) {
        let slot = index % self.cycle;
        let started = Instant::now();
        let result = self
            .prepared
            .execute(variant, self.prepared.protocol_seed(slot), telemetry);
        let took = started.elapsed();
        // A service probe on a one-shot workload has no reference to match
        // (the reference is the one-shot run); everything else must.
        let comparable =
            (variant.shape == Shape::Service) == (self.prepared.spec.shape == Shape::Service);
        match result {
            Ok(outcome) => {
                let mismatch = (comparable && outcome.digest != self.references[slot]).then(|| {
                    format!(
                        "operation {index}: output digest {:016x} differs from the reference {:016x}",
                        outcome.digest, self.references[slot]
                    )
                });
                self.tally.record(mismatch);
                (Some(outcome), took)
            }
            Err(err) => {
                self.tally.record(Some(format!("operation {index}: {err}")));
                (None, took)
            }
        }
    }

    /// The verification cycle: `run_op` executes one operation per seed
    /// (through [`Bench::op`], which checks it against its reference); the
    /// exact metrics are the means over the cycle.
    pub fn verify(&mut self, mut run_op: impl FnMut(&mut Self, usize) -> Option<Outcome>) -> Exact {
        let (mut uplink, mut f1s, mut ncrs) = (Vec::new(), Vec::new(), Vec::new());
        for index in 0..self.cycle {
            if let Some(outcome) = run_op(self, index) {
                let (f1, ncr) = self.prepared.score(&outcome);
                uplink.push(outcome.uplink_bits as f64);
                f1s.push(f1);
                ncrs.push(ncr);
            }
        }
        Exact {
            uplink_bits: mean(&uplink),
            f1: mean(&f1s),
            ncr: mean(&ncrs),
        }
    }
}

/// One timed closed-loop window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// Wall time of every operation, seconds, in order.
    pub durations: Vec<f64>,
    /// Wall time of the whole window, seconds.
    pub wall_s: f64,
    /// CPU time (all threads) the window consumed, seconds.
    pub cpu_s: f64,
    /// User reports consumed by the operations that returned.
    pub reports: u64,
}

impl Window {
    /// Runs `run_op(index)` back to back — `index` counting up from 0 —
    /// until `length` has passed and at least `min_ops` have run.
    pub fn run(
        length: Duration,
        min_ops: usize,
        mut run_op: impl FnMut(usize) -> (Option<Outcome>, Duration),
    ) -> Self {
        let mut durations = Vec::new();
        let mut reports = 0;
        let cpu_before = cpu_seconds();
        let started = Instant::now();
        while started.elapsed() < length || durations.len() < min_ops {
            let (outcome, took) = run_op(durations.len());
            durations.push(secs(took));
            reports += outcome.map_or(0, |o| o.reports);
        }
        Self {
            durations,
            wall_s: secs(started.elapsed()),
            cpu_s: cpu_seconds() - cpu_before,
            reports,
        }
    }

    /// The gated operation time: the 10th percentile.  Other tenants of the
    /// machine only ever add time, so the fastest decile repeats from run to
    /// run where the median does not.
    pub fn fast(&self) -> f64 {
        percentile(&self.durations, 10.0)
    }

    /// User reports consumed per second at [`Window::fast`] pace: mean
    /// reports per operation ÷ the gated operation time.
    pub fn reports_per_s(&self) -> f64 {
        self.reports as f64 / self.durations.len().max(1) as f64 / self.fast()
    }

    /// Appends another window's operations (the traced pass measures in
    /// alternating blocks).
    pub fn extend(&mut self, other: Window) {
        self.durations.extend(other.durations);
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.reports += other.reports;
    }

    /// A one-line description of how trustworthy the median is: the sample
    /// count and the highest percentile with ten samples beyond it.
    pub fn note(&self) -> String {
        let tail = tail_percentile(self.durations.len());
        format!(
            "run_s: {} samples over {:.3} s, p10 {:.6} s, p50 {:.6} s, tail p{tail} {:.6} s, IQR {:.2}% of the median",
            self.durations.len(),
            self.wall_s,
            self.fast(),
            median(&self.durations),
            percentile(&self.durations, tail),
            100.0 * iqr_share(&self.durations)
        )
    }
}

/// The end-to-end pass.
pub fn end_to_end(opts: &Options) -> Result<RunResult, String> {
    let (prepared, setup_times) = repeated_setup(opts);
    let variant = opts.spec.workload_variant();
    let mut bench = Bench::new(prepared, opts)?;
    // Also the warm-up: every seed's buffers, caches and lazy state are hot
    // before the timed window opens.
    let off = Telemetry::disabled();
    let exact = bench.verify(|bench, index| bench.op(index, &variant, &off).0);
    let window = Window::run(opts.window(), opts.min_timed_ops(), |index| {
        bench.op(index, &variant, &off)
    });

    let mut metrics = MetricSet::new(&END_TO_END);
    metrics.set("run_s_p10", window.fast());
    metrics.set("reports_per_s", window.reports_per_s());
    metrics.set("setup_s", median(&setup_times));
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("uplink_bits", exact.uplink_bits);
    metrics.set("f1", exact.f1);
    metrics.set("ncr", exact.ncr);
    Ok(RunResult {
        workload: opts.spec.name,
        seed: opts.seed,
        tally: bench.tally,
        metrics: metrics
            .finish()
            .map_err(|missing| format!("metrics never set: {missing:?}"))?,
        notes: vec![
            window.note(),
            format!(
                "setup_s: median of {} set-ups; exact metrics: mean over {} protocol seeds",
                setup_times.len(),
                bench.cycle
            ),
            format!(
                "cpu {:.4} s/op, {} threads available",
                window.cpu_s / window.durations.len() as f64,
                std::thread::available_parallelism().map_or(0, usize::from)
            ),
        ],
    })
}
