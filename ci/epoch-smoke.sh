#!/usr/bin/env bash
# epoch-smoke: run the persistent epoch service, SIGKILL it mid-run, resume
# from its checkpoint and gate on bit-identity with an uninterrupted run.
#
#   ci/epoch-smoke.sh [path/to/fedhh-node]
#
# Three legs:
#   1. Reference: `fedhh-node service` runs 3 epochs uninterrupted; its
#      `FINAL` lines (per-epoch top-k, count bit patterns, traffic and
#      enrollment tallies) are the ground truth.
#   2. Crash/resume: the same service runs with `--checkpoint` and a
#      between-epoch delay; the moment epoch 1 (the second epoch) completes
#      the script SIGKILLs the process — no cleanup, no flush — then
#      restarts it with `--resume`.  The resumed run must report the prior
#      epochs as already complete and its FINAL lines must be byte-identical
#      to the reference.
#   3. Ablation artifact: `fedhh-bench epochs --quick` writes
#      BENCH_epochs.json (cold vs previous warm start), uploaded by CI and
#      gated on byte-identity with the committed results/epochs.json: the
#      report carries no timings, so any change to the churn streams, the
#      ledger or the mechanism shows up as a diff.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
smoke_init epoch-smoke

NODE_BIN="${1:-target/release/fedhh-node}"
BENCH_BIN="$(sibling_bin "$NODE_BIN" fedhh-bench)"
require_bin "$NODE_BIN" "$BENCH_BIN"

SERVICE_FLAGS=(
    --mechanism taps --dataset rdb --quick
    --epochs 3 --churn 0.2 --drift 2 --warm previous
    --seed 42 --user-scale 0.005
)

log "reference: 3 uninterrupted epochs"
"$NODE_BIN" service "${SERVICE_FLAGS[@]}" > "$WORKDIR/reference.out"
grep '^FINAL' "$WORKDIR/reference.out" > "$WORKDIR/reference.final"
[ -s "$WORKDIR/reference.final" ] \
    || die "reference run produced no FINAL lines" "$WORKDIR/reference.out"

log "crash leg: checkpointing service, SIGKILL after epoch 1"
CKPT="$WORKDIR/service.ckpt"
"$NODE_BIN" service "${SERVICE_FLAGS[@]}" \
    --checkpoint "$CKPT" --epoch-delay-ms 30000 \
    > "$WORKDIR/victim.out" 2>&1 &
VICTIM_PID=$!

# Wait for the second epoch (index 1) to complete, then kill -9 during the
# inter-epoch delay: the process dies with epoch 2 unrun and only the
# atomically-written checkpoint surviving.
if ! wait_for_line '^EPOCH 1 ' "$WORKDIR/victim.out" 600; then
    kill -9 "$VICTIM_PID" 2>/dev/null || true
    wait "$VICTIM_PID" 2>/dev/null || true
    die "service never completed epoch 1" "$WORKDIR/victim.out"
fi
kill -9 "$VICTIM_PID"
wait "$VICTIM_PID" 2>/dev/null || true
if grep -q '^FINAL' "$WORKDIR/victim.out"; then
    die "service finished before the kill; delay too short"
fi
[ -f "$CKPT" ] || die "no checkpoint file survived the kill"

log "resume leg: restarting from the checkpoint"
"$NODE_BIN" service "${SERVICE_FLAGS[@]}" \
    --checkpoint "$CKPT" --resume "$CKPT" \
    > "$WORKDIR/resumed.out" 2>&1
grep -q 'resumed from' "$WORKDIR/resumed.out" \
    || die "resumed run did not acknowledge the checkpoint" "$WORKDIR/resumed.out"
grep '^FINAL' "$WORKDIR/resumed.out" > "$WORKDIR/resumed.final"

if ! diff -u "$WORKDIR/reference.final" "$WORKDIR/resumed.final"; then
    die "resumed output differs from uninterrupted run"
fi
log "resumed FINAL lines are bit-identical to the reference"

log "warm-start ablation: fedhh-bench epochs --quick vs results/epochs.json"
"$BENCH_BIN" epochs --quick --out BENCH_epochs.json
assert_identical results/epochs.json BENCH_epochs.json \
    "the epoch sweep moved from its committed result"
log "the epoch sweep is byte-identical to results/epochs.json"

log "OK"
