#!/usr/bin/env bash
# scale-smoke: the streamed data plane + RSS ceiling gates.
#
#   ci/scale-smoke.sh [path/to/fedhh-bench]
#
# Two sweeps (formerly inlined in the CI workflow):
#   1. Quick sweep: TAPS on the streamed RDB stand-in across ascending
#      user scales, failing when the process's peak resident set exceeds a
#      coarse 512 MB ceiling.
#   2. The discriminating gate: the paper's full UBA population (6.48M
#      users) at scales 0.5 and 1.0 under a 96 MB ceiling.  Measured
#      peaks of this very sweep since the group store became one arena:
#      streamed data plane ≈ 74 MB, the eager (pre-0.6, `--eager`)
#      pipeline ≈ 111 MB — so this fails if the streaming data plane
#      regresses to materializing pipelines, with 22 MB of headroom below
#      the ceiling and 15 MB above it for runner noise.  (The 1.0 point
#      alone peaks at ≈ 68 MB streamed; the 0.5 point that runs first in
#      the same process leaves ≈ 6 MB of freed heap the allocator keeps.)
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
    --out BENCH_scale_uba.json --max-rss-mb 96

log "OK"
