#!/usr/bin/env bash
# telemetry-smoke: the telemetry plane's honesty and overhead gate.
#
#   ci/telemetry-smoke.sh [path/to/fedhh-bench]
#
# Gates, in order:
#   1. Overhead <= 3%: `perf --overhead-gate 1.03` interleaves traced and
#      untraced mechanism e2e runs rep by rep in one process and gates the
#      per-leg minimum ratios through the same check as every baseline gate.
#      (Two separate perf invocations cannot resolve a 3% effect — on
#      shared CI hardware consecutive identical runs drift 5-20%.)
#   2. Schema: every line of the emitted JSONL trace must re-parse through
#      the strict schema-1 parser (`trace-check` fails on the first line
#      outside the grammar).
#   3. Reconciliation: per section, the uplink.bits counter must equal the
#      sum of the uplink events, and every mech_e2e/* section must satisfy
#      uplink.bits == runs x the matching BENCH_perf.json entry's
#      uplink_bits (identical seeds make the product exact).
#   4. A quick TCP trial with --trace: the trace parses, reconciles, and
#      actually recorded wire-level activity, uplink events and a non-zero
#      downlink.bits counter; the same trace with a duplicate-key line
#      appended fails trace-check.
# The traced perf report and its trace are left in the working directory
# for CI to upload.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
smoke_init telemetry-smoke

BENCH_BIN="${1:-target/release/fedhh-bench}"
require_bin "$BENCH_BIN"

log "overhead gate: interleaved traced-vs-untraced e2e legs at 1.03x"
"$BENCH_BIN" perf --overhead-gate 1.03 --quick \
    || die "telemetry overhead exceeded 3% on the quick e2e legs"

log "traced quick perf suite (trace + report artifacts)"
"$BENCH_BIN" perf --quick --trace BENCH_trace.jsonl --out BENCH_perf_traced.json

log "trace-check: schema + reconciliation + perf cross-check"
"$BENCH_BIN" trace-check BENCH_trace.jsonl --perf BENCH_perf_traced.json \
    || die "perf trace failed schema or reconciliation validation"

log "quick TCP trial with --trace"
"$BENCH_BIN" trial taps rdb --quick --transport tcp \
    --trace "$WORKDIR/trial.jsonl" > "$WORKDIR/trial.out" 2> "$WORKDIR/trial.err" \
    || die "traced TCP trial failed" "$WORKDIR/trial.err"
"$BENCH_BIN" trace-check "$WORKDIR/trial.jsonl" \
    || die "trial trace failed schema or reconciliation validation"

# The binary reads through the strict shared JSON reader: a copy of the
# trial trace with one duplicate-key line appended must be refused.
cp "$WORKDIR/trial.jsonl" "$WORKDIR/dup.jsonl"
echo '{"v":1,"t":"counter","name":"uplink.bits","value":0,"value":0}' >> "$WORKDIR/dup.jsonl"
if "$BENCH_BIN" trace-check "$WORKDIR/dup.jsonl" 2> "$WORKDIR/dup.err"; then
    die "trace-check accepted a line with a duplicate key"
fi
grep -q 'duplicate key "value"' "$WORKDIR/dup.err" \
    || die "trace-check refused the duplicate-key trace for the wrong reason" "$WORKDIR/dup.err"

# Sanity: the TCP trial actually recorded wire-level activity — a trace
# with no wire counters means the socket path lost its telemetry hookup.
grep -q '"t":"counter","name":"wire.tx.bytes"' "$WORKDIR/trial.jsonl" \
    || die "trial trace has no wire.tx.bytes counter; socket telemetry is dark"
grep -q '"t":"uplink"' "$WORKDIR/trial.jsonl" \
    || die "trial trace has no uplink events; the run's event stream is dark"
grep -Eq '"t":"counter","name":"downlink.bits","value":[1-9]' "$WORKDIR/trial.jsonl" \
    || die "trial trace has no non-zero downlink.bits counter; downlink events are dark"

log "OK"
