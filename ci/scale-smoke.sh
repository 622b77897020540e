#!/usr/bin/env bash
# scale-smoke: the RSS ceiling gates of the data plane.
#
#   ci/scale-smoke.sh [path/to/fedhh-bench]
#
# Two sweeps:
#   1. Quick sweep: TAPS on the RDB stand-in across ascending user
#      scales, failing when the process's peak resident set exceeds a
#      coarse 512 MB ceiling.
#   2. The discriminating gate: the paper's full UBA population (6.48M
#      users) at scales 0.5 and 1.0 under a 128 MB ceiling.  Measured
#      peaks of this very sweep (release build): 109.3–109.5 MB in six runs
#      on one 2-vCPU box, 112.1 MB in three on another.  The dataset itself
#      is 52 MB (one u64 per user), so a run that keeps a second resident
#      copy of it peaks near 160 MB and fails; 16–19 MB of headroom are
#      left for runner noise.
# BENCH_scale.json and BENCH_scale_uba.json are left in the working
# directory for CI to upload.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
smoke_init scale-smoke

BENCH_BIN="${1:-target/release/fedhh-bench}"
require_bin "$BENCH_BIN"

log "quick scale sweep with RSS ceiling"
"$BENCH_BIN" scale --quick --out BENCH_scale.json --max-rss-mb 512

log "full UBA population sweep with a discriminating RSS ceiling"
"$BENCH_BIN" scale --dataset uba --user-scales 0.5,1.0 \
    --out BENCH_scale_uba.json --max-rss-mb 128

log "OK"
