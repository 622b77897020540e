//! The per-layer pass (`--trace 1`): the outside-in ledger.
//!
//! Three sources, all outside the program:
//!
//! * **traced operations** — the workload's own operation with a
//!   `Telemetry` attached; the program's existing spans and counters are
//!   read back through `Telemetry::snapshot()` / `take_events()`;
//! * **probes** — one span around one call into a layer's public function,
//!   on inputs taken from the workload (its party items, its exact top
//!   prefixes as candidates, reports built from the probe's own estimates);
//! * **variant operations** — the same mechanism and dataset through the
//!   tree, the TCP transport, the node plane and the epoch service, so
//!   those layers are measured on every workload's inputs.
//!
//! No span or counter is added inside the program.

use crate::catalog::PER_LAYER;
use crate::measure::{Bench, Options, Window};
use crate::report::{MetricSet, RunResult};
use crate::spans::SpanBuffer;
use crate::stats::{cpu_seconds, iqr_share, median, percentile, secs, tail_percentile};
use crate::workload::{dataset_config, mix, Detail, Outcome, Prepared, Variant, K};
use fedhh::federated::{
    checkpoint, federated_top_k, CandidateReport, Counter, EstimateScratch, ExecMode,
    GroupAssignment, LevelEstimator, RoundMessage, RoundPayload, SocketTransport, SpanName,
    Transport,
};
use fedhh::fo::{CandidateDomain, CtrRng, FrequencyOracle, Oracle, ReportBatch, SupportCounts};
use fedhh::prelude::*;
use fedhh::trie::{extend_prefix_values, Prefix, PrefixTree};
use fedhh::wire::{from_bytes, read_frame, to_bytes, write_frame};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Operation number the probe spans are filed under.
const PROBE_OP: u64 = 0;
/// Program spans are imported as children of the first few traced
/// operations only — a `rounds-…` operation alone records ~600 of them.
const IMPORTED_OPS: u64 = 4;
/// The report pipeline's chunk size (`ExecMode::AUTO_CHUNK`).
const CHUNK: usize = 16_384;
/// Items the per-item probes touch at most.
const ITEM_CAP: usize = 1 << 20;

/// Per-operation sums of the program's own telemetry, accumulated over
/// traced operations.
#[derive(Debug, Clone, Default)]
struct ProgramSums {
    ops: u64,
    span_count: [u64; SpanName::COUNT],
    span_us: [u64; SpanName::COUNT],
    counters: [u64; Counter::ALL.len()],
}

impl ProgramSums {
    fn absorb(&mut self, telemetry: &Telemetry) {
        let snapshot = telemetry.snapshot();
        for (name, hist) in &snapshot.span_us {
            self.span_count[name.slot()] += hist.count;
            self.span_us[name.slot()] += hist.sum;
        }
        for (slot, (_, value)) in snapshot.counters.iter().enumerate() {
            self.counters[slot] += value;
        }
        self.ops += 1;
    }

    fn per_op(&self, total: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            total as f64 / self.ops as f64
        }
    }

    /// Spans of `name` per operation.
    fn count(&self, name: SpanName) -> f64 {
        self.per_op(self.span_count[name.slot()])
    }

    /// Microseconds under `name` per operation.
    fn us(&self, name: SpanName) -> f64 {
        self.per_op(self.span_us[name.slot()])
    }

    /// Counter value per operation.
    fn counter(&self, counter: Counter) -> f64 {
        let slot = Counter::ALL
            .iter()
            .position(|c| *c == counter)
            .expect("declared counter");
        self.per_op(self.counters[slot])
    }
}

/// `(a − b) ÷ a`, or 0 when `a` is 0.
fn share_left(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (a - b) / a
    }
}

/// One traced operation: an `op` span, a fresh sink, the program's sums
/// absorbed, and — for the first `imported` operations `sums` sees — its
/// spans imported as children.
fn traced_op(
    bench: &mut Bench,
    index: usize,
    variant: &Variant,
    spans: &mut SpanBuffer,
    sums: &mut ProgramSums,
    (op_id, imported): (u64, u64),
) -> (Option<Outcome>, Duration) {
    let span = spans.open("op", None, op_id);
    let created_ns = spans.now_ns();
    let telemetry = Telemetry::new();
    let result = bench.op(index, variant, &telemetry);
    spans.close(span);
    let import = sums.ops < imported;
    sums.absorb(&telemetry);
    if import {
        spans.import(span, created_ns, telemetry.take_events());
    }
    result
}

/// Traced operations of a probe variant: at least one, then until `budget`
/// has passed or one fails (failures are booked in the tally; the probe
/// does not spin on them).
fn variant_ops(
    bench: &mut Bench,
    variant: &Variant,
    spans: &mut SpanBuffer,
    op_id: u64,
    budget: Duration,
) -> (ProgramSums, Vec<(Outcome, Duration)>) {
    let mut sums = ProgramSums::default();
    let mut outcomes = Vec::new();
    let mut attempts = 0;
    let started = Instant::now();
    while attempts < 1 || (started.elapsed() < budget && outcomes.len() == attempts) {
        if let (Some(outcome), took) =
            traced_op(bench, attempts, variant, spans, &mut sums, (op_id, 1))
        {
            outcomes.push((outcome, took));
        }
        attempts += 1;
    }
    (sums, outcomes)
}

/// Times `call` under probe spans named `name` — one span per `batch`
/// back-to-back calls, so a sub-microsecond call is not measured against
/// the clock's own cost — at least three spans, then until 20 ms have
/// passed (50 spans at most).  Returns the median seconds of one call.
fn probe<T>(spans: &mut SpanBuffer, name: &str, batch: u32, mut call: impl FnMut() -> T) -> f64 {
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < 3 || (started.elapsed() < Duration::from_millis(20) && times.len() < 50) {
        let ((), took) = spans.time(name, None, PROBE_OP, || {
            for _ in 0..batch {
                black_box(call());
            }
        });
        times.push(secs(took) / f64::from(batch));
    }
    median(&times)
}

/// What the layer probes measured.
struct Probes {
    stream_gen_s: f64,
    materialize_s: f64,
    evolve_epoch_s: f64,
    assign_s: f64,
    encode_prefix_ns_per_item: f64,
    extend_s: f64,
    perturb_s: f64,
    aggregate_s: f64,
    estimate_s: f64,
    probe_reports: f64,
    top_k_s: f64,
    reports_per_call: f64,
    candidates_per_report: f64,
    encode_ns_per_byte: f64,
    decode_ns_per_byte: f64,
    frame_roundtrip_s_per_msg: f64,
    bytes_per_msg: f64,
    socket_roundtrip_s_per_msg: f64,
}

/// Runs every layer probe on inputs taken from the workload.
fn run_probes(
    prepared: &Prepared,
    opts: &Options,
    spans: &mut SpanBuffer,
) -> Result<Probes, String> {
    let spec = prepared.spec;
    let dataset = prepared.dataset();
    let mut config = prepared.config(prepared.protocol_seed(0));
    if let Some(chunk) = spec.chunk_size() {
        config = config.with_exec_mode(ExecMode::Chunked(chunk));
    }
    let schedule = config.schedule();
    let (m, g) = (config.max_bits, config.granularity);

    // datasets: the streamed plane (generator state + a full chunked pass),
    // the materialization every party pays at run start, one evolved epoch.
    let streamed_config = dataset_config(spec, opts.smoke);
    let (_, stream_gen) = spans.time("datasets.build_streamed+chunks", None, PROBE_OP, || {
        let streamed = streamed_config.build_streamed(spec.dataset);
        for party in streamed.parties() {
            let stream = party.stream();
            let mut chunks = stream.chunks(CHUNK);
            while let Some(chunk) = chunks.next_chunk() {
                black_box(chunk);
            }
        }
    });
    let materialize_s = probe(spans, "datasets.materialize", 1, || {
        for party in dataset.parties() {
            black_box(party.stream().materialize());
        }
    });
    let evolver = prepared
        .evolver()
        .ok_or("the per-layer pass needs an evolving population")?;
    let (_, evolve_epoch) = spans.time("datasets.evolve_epoch", None, PROBE_OP, || {
        for party in evolver.epoch(1).parties() {
            black_box(party.stream().materialize());
        }
    });

    // scheduler: the user → level shuffle, on every party's items.  The
    // deepest level's groups feed the estimator and oracle probes.
    let gs = config.shared_levels();
    let mut assign_s = 0.0;
    let mut groups: Vec<Vec<u64>> = Vec::new();
    for (index, party) in dataset.parties().iter().enumerate() {
        let items = party.stream().materialize();
        let seed = mix(opts.seed, 100 + index as u64);
        let (assignment, took) = spans.time("scheduler.assign", None, PROBE_OP, || {
            match spec.mechanism {
                MechanismKind::Tap | MechanismKind::Taps => {
                    GroupAssignment::weighted_owned(items, g, gs, config.phase1_user_fraction, seed)
                }
                MechanismKind::Gtf | MechanismKind::FedPem => {
                    GroupAssignment::uniform_owned(items, g, seed)
                }
            }
        });
        assign_s += secs(took);
        groups.push(assignment.map_err(|err| err.to_string())?.level(g).to_vec());
    }

    // trie: prefix encoding at four level lengths, and candidate extension
    // from the exact top-k prefixes (the candidates of the deepest level).
    let largest = dataset
        .parties()
        .iter()
        .max_by_key(|party| party.user_count())
        .ok_or("dataset has no parties")?;
    let items = largest.items();
    let items = &items[..items.len().min(ITEM_CAP)];
    let lens: Vec<u8> = [g / 4, g / 2, 3 * g / 4, g]
        .into_iter()
        .map(|h| schedule.prefix_len(h.max(1)))
        .collect();
    let prefix_encode_s = probe(spans, "trie.encode_prefix", 1, || {
        let mut acc = 0u64;
        for &len in &lens {
            for &item in items {
                acc ^= Prefix::of_item(item, m, len).value();
            }
        }
        acc
    });
    let mut truth_tree = PrefixTree::new(m);
    for (code, count) in dataset.global_frequency().ranked().into_iter().take(4 * K) {
        truth_tree.insert(code, count);
    }
    let parent_len = schedule.prefix_len(g - 1);
    let parents: Vec<u64> = truth_tree
        .top_k_prefixes(parent_len, K)
        .iter()
        .map(Prefix::value)
        .collect();
    let step = schedule.step(g);
    let len = schedule.prefix_len(g);
    let extend_s = probe(spans, "trie.extend", 1_000, || {
        extend_prefix_values(&parents, parent_len, step)
    });
    let candidates = extend_prefix_values(&parents, parent_len, step);

    // estimator: one level estimate per party, reused scratch.
    let estimator = LevelEstimator::new(config).map_err(|err| err.to_string())?;
    let mut scratch = EstimateScratch::new();
    let probe_reports: usize = groups.iter().map(Vec::len).sum();
    let estimate_all = |scratch: &mut EstimateScratch| {
        groups
            .iter()
            .enumerate()
            .map(|(index, group)| {
                estimator.estimate_with(scratch, &candidates, len, group, index as u64 + 1)
            })
            .collect::<Vec<_>>()
    };
    let estimates = estimate_all(&mut scratch);
    let estimate_s = probe(spans, "estimator.estimate", 1, || {
        estimate_all(&mut scratch)
    });

    // fo: the vectorized kernels alone, on the same groups, chunked the
    // way the estimator chunks them.
    let domain = CandidateDomain::with_dummy(candidates.clone());
    let inputs: Vec<usize> = groups
        .iter()
        .flatten()
        .map(|item| {
            domain
                .encode(&Prefix::of_item(*item, m, len).value())
                .expect("the domain has a dummy slot")
        })
        .collect();
    let budget = config.budget().map_err(|err| err.to_string())?;
    let oracle = Oracle::try_new(spec.fo, budget, domain.len()).map_err(|err| err.to_string())?;
    let ctr = CtrRng::new(mix(opts.seed, 4));
    let mut batch = ReportBatch::new();
    let mut supports = SupportCounts::zeros(domain.len());
    let (mut perturb_times, mut aggregate_times) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while perturb_times.len() < 3
        || (started.elapsed() < Duration::from_millis(40) && perturb_times.len() < 50)
    {
        let (mut perturb, mut aggregate) = (Duration::ZERO, Duration::ZERO);
        supports.reset(domain.len());
        let mut base = 0u64;
        for chunk in inputs.chunks(CHUNK) {
            batch.clear();
            perturb += spans
                .time("fo.perturb", None, PROBE_OP, || {
                    oracle.perturb_vectorized(chunk, &ctr, base, &mut batch)
                })
                .1;
            aggregate += spans
                .time("fo.aggregate", None, PROBE_OP, || {
                    oracle.aggregate_vectorized(&batch, &mut supports)
                })
                .1;
            base += chunk.len() as u64;
        }
        black_box(&supports);
        perturb_times.push(secs(perturb));
        aggregate_times.push(secs(aggregate));
    }

    // server: federated top-k over one round's reports, built from the
    // probe's own estimates.
    let reports: Vec<CandidateReport> = dataset
        .parties()
        .iter()
        .zip(&estimates)
        .map(|(party, estimate)| CandidateReport {
            party: party.name().to_string(),
            level: g,
            candidates: estimate
                .candidates
                .iter()
                .copied()
                .zip(estimate.counts.iter().copied())
                .collect(),
            users: estimate.users,
        })
        .collect();
    let top_k_s = probe(spans, "server.federated_top_k", 100, || {
        federated_top_k(&reports, K)
    });

    // wire: the codec and the frame layer on those reports as round
    // messages; socket: the same messages across a loopback transport.
    let messages: Vec<RoundMessage> = reports
        .iter()
        .enumerate()
        .map(|(from, report)| RoundMessage {
            from,
            party: report.party.clone(),
            round: 0,
            payload: RoundPayload::Report(report.clone()),
        })
        .collect();
    let encoded: Vec<Vec<u8>> = messages.iter().map(to_bytes).collect();
    let payload_bytes: usize = encoded.iter().map(Vec::len).sum();
    let wire_encode_s = probe(spans, "wire.to_bytes", 100, || {
        messages
            .iter()
            .map(|msg| to_bytes(msg).len())
            .sum::<usize>()
    });
    let mut probe_error = None;
    let decode_s = probe(spans, "wire.from_bytes", 100, || {
        for bytes in &encoded {
            if let Err(err) = from_bytes::<RoundMessage>(bytes) {
                probe_error = Some(err.to_string());
            }
        }
    });
    let mut framed_bytes = 0usize;
    let frame_s = probe(spans, "wire.frame_roundtrip", 100, || {
        framed_bytes = 0;
        for msg in &messages {
            let mut framed = Vec::new();
            let written = write_frame(&mut framed, msg);
            framed_bytes += framed.len();
            let read = written.and_then(|()| read_frame::<_, RoundMessage>(&mut framed.as_slice()));
            if read.as_ref().ok() != Some(msg) {
                probe_error = Some("frame round-trip changed a message".to_string());
            }
        }
    });
    let transport = SocketTransport::loopback(1).map_err(|err| err.to_string())?;
    let socket_s = probe(spans, "socket.send+drain", 10, || {
        for msg in &messages {
            if let Err(err) = transport.send(msg.clone()) {
                probe_error = Some(err.to_string());
            }
        }
        match transport.drain() {
            Ok(drained) if drained.len() == messages.len() => {}
            Ok(drained) => {
                probe_error = Some(format!("socket drained {} messages", drained.len()));
            }
            Err(err) => probe_error = Some(err.to_string()),
        }
    });
    drop(transport);
    if let Some(err) = probe_error {
        return Err(format!("wire/socket probe failed: {err}"));
    }

    let messages_n = messages.len() as f64;
    Ok(Probes {
        stream_gen_s: secs(stream_gen),
        materialize_s,
        evolve_epoch_s: secs(evolve_epoch),
        assign_s,
        encode_prefix_ns_per_item: 1e9 * prefix_encode_s / (items.len() * lens.len()) as f64,
        extend_s,
        perturb_s: median(&perturb_times),
        aggregate_s: median(&aggregate_times),
        estimate_s,
        probe_reports: probe_reports as f64,
        top_k_s,
        reports_per_call: reports.len() as f64,
        candidates_per_report: candidates.len() as f64,
        encode_ns_per_byte: 1e9 * wire_encode_s / payload_bytes as f64,
        decode_ns_per_byte: 1e9 * decode_s / payload_bytes as f64,
        frame_roundtrip_s_per_msg: frame_s / messages_n,
        bytes_per_msg: framed_bytes as f64 / messages_n,
        socket_roundtrip_s_per_msg: socket_s / messages_n,
    })
}

/// The per-layer pass.  Writes the span buffer to `trace_out` as JSONL.
pub fn per_layer(opts: &Options, trace_out: &Path) -> Result<RunResult, String> {
    let spec = opts.spec;
    let mut spans = SpanBuffer::new(spec.name);
    let length = opts.window();

    // Set-up, layer by layer: the eager build is its own span.
    let dataset_cfg = dataset_config(spec, opts.smoke);
    let (dataset, build_eager) = spans.time("datasets.build_eager", None, PROBE_OP, || {
        dataset_cfg.build(spec.dataset)
    });
    let users = dataset.total_users() as f64;
    let (prepared, _) = spans.time("datasets.evolver_new", None, PROBE_OP, || {
        Prepared::from_dataset(spec, opts.seed, dataset).into_evolving()
    });
    let mut bench = Bench::new(prepared, opts)?;
    let variant = spec.workload_variant();
    let off = Telemetry::disabled();

    // The verification cycle, traced: exact counts come from here.
    let mut own = ProgramSums::default();
    let mut op_id = 0u64;
    let mut own_reports = 0;
    bench.verify(|bench, index| {
        op_id += 1;
        let outcome = traced_op(
            bench,
            index,
            &variant,
            &mut spans,
            &mut own,
            (op_id, IMPORTED_OPS),
        )
        .0;
        own_reports = outcome.as_ref().map_or(own_reports, |o| o.reports);
        outcome
    });

    // Alternating untraced / traced blocks: the same closed loop as the
    // end-to-end pass, so the medians are comparable and their ratio is
    // the telemetry overhead.
    let block = length.mul_f64(0.1);
    let (mut untraced, mut traced) = (Window::default(), Window::default());
    for _ in 0..2 {
        untraced.extend(Window::run(block, opts.min_timed_ops(), |index| {
            bench.op(index, &variant, &off)
        }));
        traced.extend(Window::run(block, opts.min_timed_ops(), |index| {
            op_id += 1;
            traced_op(
                &mut bench,
                index,
                &variant,
                &mut spans,
                &mut own,
                (op_id, IMPORTED_OPS),
            )
        }));
    }
    let reference_variant = spec.reference_variant();
    let reference = Window::run(length.mul_f64(0.05), 3, |index| {
        bench.op(index, &reference_variant, &off)
    });

    let observer = bench.prepared.observed(bench.prepared.protocol_seed(0))?;
    let estimated: Vec<_> = observer
        .level_events()
        .filter(|event| event.report_bits > 0)
        .collect();
    let observed_reports: usize = estimated.iter().map(|event| event.users).sum();
    let observed_bits: usize = estimated.iter().map(|event| event.report_bits).sum();
    let observed_candidates: usize = estimated.iter().map(|event| event.candidates).sum();

    let probes = run_probes(&bench.prepared, opts, &mut spans)?;

    // Variant operations: the same mechanism and dataset one-shot on the
    // flat star and through the tree (measured alike, so their ratio is
    // what the tree costs), over the TCP transport, through the node plane
    // and as an epoch service.
    let flat_engine = spec.flat_engine();
    let tree_engine = flat_engine.with_topology(Topology::Tree {
        fanout: 4,
        depth: 1,
    });
    let mut run_variant = |variant: Variant| {
        op_id += 1;
        variant_ops(
            &mut bench,
            &variant,
            &mut spans,
            op_id,
            length.mul_f64(0.05),
        )
    };
    let (_, flat_ops) = run_variant(spec.one_shot_variant(flat_engine));
    let (tree, tree_ops) = run_variant(spec.one_shot_variant(tree_engine));
    let (tcp, tcp_ops) =
        run_variant(spec.one_shot_variant(flat_engine.transport(TransportKind::Tcp)));
    let node_cpu_before = cpu_seconds();
    let (_, node_ops) = run_variant(spec.node_variant());
    let node_cpu_s = cpu_seconds() - node_cpu_before;
    let (service, service_ops) = run_variant(spec.service_variant());

    // checkpoint: save / load of the service probe's final state.
    let mut steps_ms = Vec::new();
    let mut first_steps_ms = Vec::new();
    let (mut enrolled, mut refused) = (0.0, 0.0);
    let mut final_state = None;
    for (outcome, _) in &service_ops {
        if let Detail::Service(detail) = &outcome.detail {
            steps_ms.extend(detail.steps.iter().map(|step| 1e3 * secs(*step)));
            first_steps_ms.extend(detail.steps.first().map(|step| 1e3 * secs(*step)));
            enrolled = detail.enrolled_users as f64;
            refused = detail.refused_users as f64;
            final_state = detail.last_checkpoint.as_ref();
        }
    }
    let final_state = final_state.ok_or("the service probe produced no checkpoint")?;
    let path = crate::out_dir().join(format!("{}-probe-{}.ckpt", spec.name, std::process::id()));
    let mut io_error = None;
    let save_s = probe(&mut spans, "checkpoint.save", 1, || {
        if let Err(err) = checkpoint::save(&path, final_state) {
            io_error = Some(err.to_string());
        }
    });
    let checkpoint_bytes = std::fs::metadata(&path).map_or(0, |meta| meta.len());
    let load_s = probe(
        &mut spans,
        "checkpoint.load",
        1,
        || match checkpoint::load(&path) {
            Ok(loaded) if &loaded == final_state => {}
            Ok(_) => io_error = Some("loaded checkpoint differs from the saved state".into()),
            Err(err) => io_error = Some(err.to_string()),
        },
    );
    let _ = std::fs::remove_file(&path);
    if let Some(err) = io_error {
        return Err(format!("checkpoint probe failed: {err}"));
    }

    let (mut handshakes_ms, mut rounds_ms, mut node_wall_s) = (Vec::new(), Vec::new(), 0.0);
    for (outcome, took) in &node_ops {
        if let Detail::Node { handshake, rounds } = &outcome.detail {
            handshakes_ms.push(1e3 * secs(*handshake));
            rounds_ms.push(1e3 * secs(*rounds));
            node_wall_s += secs(*took);
        }
    }
    let node_ops_n = handshakes_ms.len().max(1) as f64;

    // The ledger.
    let run_s = untraced.fast();
    let cpu_s_per_op = untraced.cpu_s / untraced.durations.len().max(1) as f64;
    let tail = tail_percentile(untraced.durations.len());
    let (level_us, perturb_us, aggregate_us) = (
        own.us(SpanName::Level),
        own.us(SpanName::Perturb),
        own.us(SpanName::Aggregate),
    );
    let (run_us, round_us) = (own.us(SpanName::Run), own.us(SpanName::Round));
    let per_report_s =
        (probes.materialize_s + probes.assign_s) / users + probes.estimate_s / probes.probe_reports;
    let attributed_s = own_reports as f64 * per_report_s
        + own.count(SpanName::Round) * probes.top_k_s
        + own.count(SpanName::Level) * probes.extend_s
        + own.counter(Counter::TreeRootFrames) * probes.frame_roundtrip_s_per_msg;
    let tree_uplink_bits = median(
        &tree_ops
            .iter()
            .map(|(outcome, _)| outcome.uplink_bits as f64)
            .collect::<Vec<_>>(),
    );
    let (root_bytes, flat_bytes) = (
        tree.counter(Counter::TreeRootBytes),
        tree.counter(Counter::TreeFlatBytes),
    );

    let mut metrics = MetricSet::new(&PER_LAYER);
    metrics.set(
        "datasets.build_eager_ns_per_item",
        1e9 * secs(build_eager) / users,
    );
    metrics.set(
        "datasets.stream_gen_ns_per_item",
        1e9 * probes.stream_gen_s / users,
    );
    metrics.set(
        "datasets.materialize_ns_per_item",
        1e9 * probes.materialize_s / users,
    );
    metrics.set("datasets.evolve_epoch_ms", 1e3 * probes.evolve_epoch_s);
    metrics.set(
        "scheduler.assign_ns_per_user",
        1e9 * probes.assign_s / users,
    );
    metrics.set(
        "trie.encode_prefix_ns_per_item",
        probes.encode_prefix_ns_per_item,
    );
    metrics.set("trie.extend_us_per_call", 1e6 * probes.extend_s);
    metrics.set(
        "trie.candidates_per_level",
        observed_candidates as f64 / estimated.len().max(1) as f64,
    );
    metrics.set(
        "fo.perturb_ns_per_report",
        1e9 * probes.perturb_s / probes.probe_reports,
    );
    metrics.set(
        "fo.aggregate_ns_per_report",
        1e9 * probes.aggregate_s / probes.probe_reports,
    );
    metrics.set("fo.reports", observed_reports as f64);
    metrics.set(
        "fo.report_bits_per_user",
        observed_bits as f64 / observed_reports.max(1) as f64,
    );
    metrics.set(
        "estimator.estimate_ns_per_report",
        1e9 * probes.estimate_s / probes.probe_reports,
    );
    metrics.set("estimator.level_us_sum", level_us);
    metrics.set("estimator.perturb_us_sum", perturb_us);
    metrics.set("estimator.aggregate_us_sum", aggregate_us);
    metrics.set("estimator.levels", own.count(SpanName::Level));
    metrics.set(
        "estimator.level_self_share",
        share_left(level_us, perturb_us + aggregate_us),
    );
    metrics.set("server.top_k_us_per_call", 1e6 * probes.top_k_s);
    metrics.set("server.reports_per_call", probes.reports_per_call);
    metrics.set("server.candidates_per_report", probes.candidates_per_report);
    metrics.set("wire.encode_ns_per_byte", probes.encode_ns_per_byte);
    metrics.set("wire.decode_ns_per_byte", probes.decode_ns_per_byte);
    metrics.set(
        "wire.frame_roundtrip_us_per_msg",
        1e6 * probes.frame_roundtrip_s_per_msg,
    );
    metrics.set("wire.bytes_per_msg", probes.bytes_per_msg);
    metrics.set(
        "wire.bytes_per_uplink_bit",
        if tree_uplink_bits == 0.0 {
            0.0
        } else {
            8.0 * flat_bytes / tree_uplink_bits
        },
    );
    metrics.set(
        "topology.root_frames",
        tree.counter(Counter::TreeRootFrames),
    );
    metrics.set("topology.root_bytes", root_bytes);
    metrics.set("topology.flat_bytes", flat_bytes);
    metrics.set("topology.savings_ratio", share_left(flat_bytes, root_bytes));
    // Not the `aggregate.merge` span sum: those spans are sub-microsecond
    // and the program records whole microseconds, so the sum reads 0 on
    // most runs.  What the tree costs is the tree run against the flat one.
    let fast = |ops: &[(Outcome, Duration)]| {
        let times: Vec<f64> = ops.iter().map(|(_, took)| secs(*took)).collect();
        percentile(&times, 10.0)
    };
    metrics.set(
        "topology.tree_cost_ratio",
        fast(&tree_ops) / fast(&flat_ops),
    );
    metrics.set("session.rounds", own.count(SpanName::Round));
    metrics.set(
        "session.round_us_mean",
        round_us / own.count(SpanName::Round).max(1.0),
    );
    // From the span tree, not from sums: GTF opens its `level` span around
    // the round, TAP/TAPS inside it, and self time is right either way.
    metrics.set("session.round_self_share", spans.self_share("round"));
    metrics.set("session.parallel_speedup", reference.fast() / run_s);
    metrics.set("socket.tx_bytes", tcp.counter(Counter::WireTxBytes));
    metrics.set("socket.tx_frames", tcp.counter(Counter::WireTxFrames));
    metrics.set("socket.frames_decoded", tcp.counter(Counter::FramesDecoded));
    metrics.set(
        "socket.frames_corrupt_rejected",
        tcp.counter(Counter::FramesCorruptRejected),
    );
    metrics.set("socket.encode_us_sum", tcp.us(SpanName::WireEncode));
    metrics.set("socket.send_us_sum", tcp.us(SpanName::TransportSend));
    metrics.set(
        "socket.roundtrip_us_per_msg",
        1e6 * probes.socket_roundtrip_s_per_msg,
    );
    metrics.set(
        "socket.run_ms_p50",
        1e3 * median(
            &tcp_ops
                .iter()
                .map(|(_, took)| secs(*took))
                .collect::<Vec<_>>(),
        ),
    );
    metrics.set("node.handshake_ms_p50", median(&handshakes_ms));
    metrics.set("node.rounds_ms_p50", median(&rounds_ms));
    metrics.set("node.cpu_ms_per_op", 1e3 * node_cpu_s / node_ops_n);
    metrics.set(
        "node.idle_share",
        // Two threads: the coordinator and the party node.
        if node_wall_s == 0.0 {
            0.0
        } else {
            1.0 - node_cpu_s / (2.0 * node_wall_s)
        },
    );
    metrics.set("checkpoint.save_ms_p50", 1e3 * save_s);
    metrics.set("checkpoint.load_ms_p50", 1e3 * load_s);
    metrics.set("checkpoint.bytes", checkpoint_bytes as f64);
    metrics.set(
        "checkpoint.write_us_sum",
        service.us(SpanName::CheckpointWrite),
    );
    metrics.set("epoch.step_ms_p50", median(&steps_ms));
    metrics.set("epoch.first_step_ms", median(&first_steps_ms));
    metrics.set("epoch.enrolled_users", enrolled);
    metrics.set("epoch.refused_users", refused);
    metrics.set("mechanisms.run_us", run_us);
    metrics.set("mechanisms.run_self_share", share_left(run_us, round_us));
    metrics.set(
        "mechanisms.unattributed_share",
        if cpu_s_per_op == 0.0 {
            0.0
        } else {
            1.0 - attributed_s / cpu_s_per_op
        },
    );
    metrics.set("telemetry.overhead_ratio", traced.fast() / run_s);
    metrics.set("harness.samples", untraced.durations.len() as f64);
    metrics.set("harness.tail_percentile", tail);
    metrics.set("harness.run_s_p50", median(&untraced.durations));
    metrics.set("harness.run_s_tail", percentile(&untraced.durations, tail));
    metrics.set("harness.run_s_iqr_share", iqr_share(&untraced.durations));
    metrics.set("harness.timed_window_s", untraced.wall_s);
    metrics.set("harness.cpu_s_per_op", cpu_s_per_op);

    spans
        .write_jsonl(trace_out)
        .map_err(|err| format!("writing {}: {err}", trace_out.display()))?;
    Ok(RunResult {
        workload: spec.name,
        seed: opts.seed,
        tally: bench.tally,
        metrics: metrics
            .finish()
            .map_err(|missing| format!("metrics never set: {missing:?}"))?,
        notes: vec![
            untraced.note(),
            format!(
                "{} spans written to {}",
                spans.spans().len(),
                trace_out.display()
            ),
        ],
    })
}
