#!/usr/bin/env bash
# net-smoke: launch a real multi-process federation over loopback and gate
# on bit-identity with the in-memory engine.
#
#   ci/net-smoke.sh [path/to/fedhh-node]
#
# Starts `fedhh-node coordinator --check-inmemory` plus its party processes
# three times: a quick TAPS trial on the 4-party YCM stand-in over 4
# processes; one on the 8-party SYN group over 2 processes (SYN is the only
# group with Poisson parties, and every process rebuilds it from the
# welcome); and the YCM federation again aggregated through a fanout-2 tree
# with a 0.75 quorum, under 25% dropout, stragglers and a 50% report-flip
# adversary, so one welcome ships every field of the scenario plan across
# processes and the coordinator routes cohort members to their
# sub-aggregator in the handshake.  The coordinator exits non-zero unless
# the distributed MechanismOutput (top-k, estimates, uplink bits) is
# bit-identical to the in-memory run under the same plan at the same seed.
# The tree sweep's determinism gate is ci/scenario-smoke.sh.  Then a `fedhh-bench trial` runs over the tcp transport at
# parallelism 4 (four party threads sharing the transport's one stream) and
# over the memory transport at parallelism 1; the gate fails unless both
# print identical F1, NCR, avg local recall, uplink and server traffic
# lines.  A last, negative leg binds a coordinator on 0.0.0.0 that no party
# dials: it must fail with the accept timeout within 10 s, not hang.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
smoke_init net-smoke

NODE_BIN="${1:-target/release/fedhh-node}"
BENCH_BIN="$(sibling_bin "$NODE_BIN" fedhh-bench)"
require_bin "$NODE_BIN" "$BENCH_BIN"

# federate DATASET PROCESSES [COORDINATOR FLAGS...] — a coordinator plus
# PROCESSES party processes running quick TAPS at seed 42 under the plan the
# extra flags set; dies unless the coordinator confirms bit-identity with
# the in-memory engine.
LEGS=0
federate() {
    local dataset="$1" processes="$2"
    shift 2
    LEGS=$((LEGS + 1))
    local out="$WORKDIR/leg$LEGS-$dataset"
    log "coordinator + $processes party processes: TAPS on ${dataset^^} (quick, seed 42)${*:+ $*}"
    "$NODE_BIN" coordinator \
        --mechanism taps --dataset "$dataset" --parties "$processes" \
        --quick --seed 42 --timeout-secs 120 --check-inmemory "$@" \
        > "$out-coordinator.out" 2> "$out-coordinator.err" &
    local coord_pid=$!

    # Wait for the coordinator to advertise its port.
    if ! wait_for_line '^LISTEN ' "$out-coordinator.out"; then
        kill "$coord_pid" 2>/dev/null || true
        die "coordinator never advertised a port" "$out-coordinator.err"
    fi
    local addr
    addr=$(grep -m1 '^LISTEN ' "$out-coordinator.out" | awk '{print $2}')
    log "coordinator listening on $addr"

    local party_pids=() party_logs=() rank
    for rank in $(seq 0 $((processes - 1))); do
        "$NODE_BIN" party --connect "$addr" --timeout-secs 120 \
            > "$out-party$rank.out" 2>&1 &
        party_pids+=($!)
        party_logs+=("$out-party$rank.out")
    done

    local status=0 pid
    wait "$coord_pid" || status=$?
    for pid in "${party_pids[@]}"; do
        wait "$pid" || status=$?
    done
    cat "$out-coordinator.out"
    if [ "$status" -ne 0 ]; then
        die "federation on $dataset exited with status $status" \
            "$out-coordinator.err" "${party_logs[@]}"
    fi
    grep -q '^CHECK bit-identical' "$out-coordinator.out" \
        || die "coordinator did not confirm bit-identity on $dataset"
}

federate ycm 4
federate syn 2
federate ycm 4 --topology tree:2 --quorum 0.75 \
    --dropout 0.25 --stragglers --scenario report-flip:0.5

# trial TRANSPORT PARALLELISM — a quick TAPS trial on YCM; prints its
# output and keeps the result lines in $WORKDIR/trial-TRANSPORT.metrics.
trial() {
    local out="$WORKDIR/trial-$1"
    log "fedhh-bench trial over the $1 transport at parallelism $2"
    "$BENCH_BIN" trial taps ycm --quick --transport "$1" --parallelism "$2" > "$out.out"
    cat "$out.out"
    grep -E '^(F1|NCR|avg local recall|uplink|server traffic) ' "$out.out" > "$out.metrics"
    [ "$(wc -l < "$out.metrics")" -eq 5 ] \
        || die "trial over $1 printed $(wc -l < "$out.metrics") of 5 result lines" "$out.out"
}

trial tcp 4
trial memory 1
assert_identical "$WORKDIR/trial-tcp.metrics" "$WORKDIR/trial-memory.metrics" \
    "tcp trial at parallelism 4 vs memory trial at parallelism 1"

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
