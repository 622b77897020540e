#!/usr/bin/env bash
# net-smoke: launch a real multi-process federation over loopback and gate
# on bit-identity with the in-memory engine.
#
#   ci/net-smoke.sh [path/to/fedhh-node]
#
# Starts `fedhh-node coordinator --check-inmemory` plus 4 `fedhh-node party`
# processes for a quick TAPS trial on the 4-party YCM stand-in, then repeats
# with a `fedhh-bench trial --transport tcp` leg.  The coordinator exits
# non-zero unless the distributed MechanismOutput (top-k, estimates, uplink
# bits) is bit-identical to the in-memory run at the same seed.  A last,
# negative leg binds a coordinator on 0.0.0.0 that no party dials: it must
# fail with the accept timeout within 10 s, not hang.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
smoke_init net-smoke

NODE_BIN="${1:-target/release/fedhh-node}"
BENCH_BIN="$(sibling_bin "$NODE_BIN" fedhh-bench)"
require_bin "$NODE_BIN" "$BENCH_BIN"

log "coordinator + 4 party processes: TAPS on YCM (quick, seed 42)"
"$NODE_BIN" coordinator \
    --mechanism taps --dataset ycm --parties 4 \
    --quick --seed 42 --timeout-secs 120 --check-inmemory \
    > "$WORKDIR/coordinator.out" 2> "$WORKDIR/coordinator.err" &
COORD_PID=$!

# Wait for the coordinator to advertise its port.
if ! wait_for_line '^LISTEN ' "$WORKDIR/coordinator.out"; then
    kill "$COORD_PID" 2>/dev/null || true
    die "coordinator never advertised a port" "$WORKDIR/coordinator.err"
fi
ADDR=$(grep -m1 '^LISTEN ' "$WORKDIR/coordinator.out" | awk '{print $2}')
log "coordinator listening on $ADDR"

PARTY_PIDS=()
for rank in 0 1 2 3; do
    "$NODE_BIN" party --connect "$ADDR" --timeout-secs 120 \
        > "$WORKDIR/party$rank.out" 2>&1 &
    PARTY_PIDS+=($!)
done

STATUS=0
wait "$COORD_PID" || STATUS=$?
for pid in "${PARTY_PIDS[@]}"; do
    wait "$pid" || STATUS=$?
done
cat "$WORKDIR/coordinator.out"
if [ "$STATUS" -ne 0 ]; then
    die "federation exited with status $STATUS" \
        "$WORKDIR/coordinator.err" \
        "$WORKDIR/party0.out" "$WORKDIR/party1.out" \
        "$WORKDIR/party2.out" "$WORKDIR/party3.out"
fi
grep -q '^CHECK bit-identical' "$WORKDIR/coordinator.out" \
    || die "coordinator did not confirm bit-identity"

log "fedhh-bench trial over the tcp transport"
"$BENCH_BIN" trial taps ycm --quick --transport tcp

log "a coordinator on 0.0.0.0 that no party dials times out"
STATUS=0
timeout 10 "$NODE_BIN" coordinator \
    --mechanism taps --dataset ycm --quick \
    --listen 0.0.0.0:0 --timeout-secs 1 \
    > "$WORKDIR/lonely.out" 2> "$WORKDIR/lonely.err" || STATUS=$?
if [ "$STATUS" -eq 0 ] || [ "$STATUS" -eq 124 ]; then
    die "lonely coordinator exited with status $STATUS (want a failure within 10 s)" \
        "$WORKDIR/lonely.err"
fi
grep -q "no party process connected for rank 0 within 1s" "$WORKDIR/lonely.err" \
    || die "lonely coordinator did not report the accept timeout" "$WORKDIR/lonely.err"

log "OK"
