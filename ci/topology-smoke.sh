#!/usr/bin/env bash
# topology-smoke: the aggregation tree across real processes.
#
#   ci/topology-smoke.sh [path/to/fedhh-node]
#
# A real multi-process federation over loopback aggregated through a
# fanout-2 tree with a 0.75 quorum, under 25% dropout, stragglers and a
# 50% report-flip adversary, so one welcome ships every field of the
# scenario plan across processes: the coordinator routes cohort members to
# their sub-aggregator in the handshake and exits non-zero unless the
# distributed MechanismOutput is bit-identical to the in-memory engine
# under the same plan at the same seed (`--check-inmemory`).  The tree
# sweep's determinism gate is ci/scenario-smoke.sh.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
smoke_init topology-smoke

NODE_BIN="${1:-target/release/fedhh-node}"
require_bin "$NODE_BIN"

log "coordinator + 4 party processes: TAPS on YCM over tree:2 at quorum 0.75," \
    "dropout 0.25, stragglers, report-flip 0.5"
"$NODE_BIN" coordinator \
    --mechanism taps --dataset ycm --parties 4 \
    --quick --seed 42 --timeout-secs 120 \
    --topology tree:2 --quorum 0.75 \
    --dropout 0.25 --stragglers --scenario report-flip:0.5 \
    --check-inmemory \
    > "$WORKDIR/coordinator.out" 2> "$WORKDIR/coordinator.err" &
COORD_PID=$!

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
    die "tree federation exited with status $STATUS" \
        "$WORKDIR/coordinator.err" \
        "$WORKDIR/party0.out" "$WORKDIR/party1.out" \
        "$WORKDIR/party2.out" "$WORKDIR/party3.out"
fi
grep -q '^CHECK bit-identical' "$WORKDIR/coordinator.out" \
    || die "coordinator did not confirm bit-identity with the in-memory tree engine"

log "OK"
