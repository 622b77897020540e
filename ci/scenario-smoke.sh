#!/usr/bin/env bash
# scenario-smoke: the scenario-plan sweep's determinism gate.
#
#   ci/scenario-smoke.sh [path/to/fedhh-bench]
#
# Runs the quick-scale scenario sweep on the SYN stand-in (every mechanism
# through the benign plan, every adversary at fractions 0 and 0.5, and the
# flat star plus tree:2 and tree:4 at quorums 1.0 and 0.5) twice and gates
# on:
#   1. The two BENCH_scenario.json files being byte-identical — the sweep
#      carries no timings, so any difference is real nondeterminism.
#   2. The in-run gates: `run_scenario` itself fails unless every adversary
#      at fraction 0 reproduces the benign cell and every tree cell the
#      flat cell at its quorum, bit for bit, and unless every tree cell
#      saves root-inbound bytes (strictly at full quorum), so a successful
#      run IS the exactness and savings gate.
#   3. The --check self-gate: the second sweep checked against the first
#      at zero tolerance.
# The first sweep's BENCH_scenario.json is left in the working directory
# for CI to upload.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
smoke_init scenario-smoke

BENCH_BIN="${1:-target/release/fedhh-bench}"
require_bin "$BENCH_BIN"

SCENARIO_FLAGS=(--quick --fractions 0,0.5 --fanouts 2,4 --quorums 1.0,0.5)

log "sweep 1: quick scenario sweep"
"$BENCH_BIN" scenario "${SCENARIO_FLAGS[@]}" --out BENCH_scenario.json

log "sweep 2: rerun + byte-identity gate"
"$BENCH_BIN" scenario "${SCENARIO_FLAGS[@]}" --out "$WORKDIR/rerun.json" \
    --check BENCH_scenario.json --threshold 0
assert_identical BENCH_scenario.json "$WORKDIR/rerun.json" \
    "reruns of the same sweep differ"
log "reruns are byte-identical"

# Sanity: the matrix actually exercised the attacks — at half the parties
# compromised at least one cell must degrade or fail typed.
grep -q '"ok": false' BENCH_scenario.json \
    || grep -Eq '"f1_drop": 0\.0*[1-9]' BENCH_scenario.json \
    || die "no cell degraded or failed; the adversary plane is inert"
# ...and the tree actually merged somewhere: at least one cell routed
# root-inbound frames.
grep -Eq '"root_frames": [1-9]' BENCH_scenario.json \
    || die "no cell routed merged frames; the tree plane is inert"

log "OK"
