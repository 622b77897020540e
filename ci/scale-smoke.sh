#!/usr/bin/env bash
# scale-smoke: the streamed data plane + RSS ceiling gates.
#
#   ci/scale-smoke.sh [path/to/fedhh-bench]
#
# Three sweeps:
#   1. Quick sweep: TAPS on the streamed RDB stand-in across ascending
#      user scales, failing when the process's peak resident set exceeds a
#      coarse 512 MB ceiling.
#   2. The same quick sweep with `--eager`, which builds every point's
#      dataset with materialized items (the report pipeline chunks the
#      same way either way), under the same ceiling.
#   3. The discriminating gate: the paper's full UBA population (6.48M
#      users) at scales 0.5 and 1.0 under a 96 MB ceiling.  Measured
#      peaks of this very sweep (2 vCPUs, release build): streamed data
#      plane ≈ 75 MB, the eager dataset backing (`--eager`) ≈ 109 MB —
#      so this fails if the streaming data plane regresses to
#      materializing datasets, with 21 MB of headroom below the ceiling
#      and 13 MB above it for runner noise; the eager peak does not fit
#      under it.  (The 1.0 point alone peaks at ≈ 70 MB streamed and
#      ≈ 109 MB eager; the 0.5 point that runs first in the same process
#      leaves ≈ 5 MB of freed heap the allocator keeps.)
# BENCH_scale.json, BENCH_scale_eager.json and BENCH_scale_uba.json are
# left in the working directory for CI to upload.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
smoke_init scale-smoke

BENCH_BIN="${1:-target/release/fedhh-bench}"
require_bin "$BENCH_BIN"

log "quick scale sweep with RSS ceiling"
"$BENCH_BIN" scale --quick --out BENCH_scale.json --max-rss-mb 512

log "quick scale sweep over eager datasets with RSS ceiling"
"$BENCH_BIN" scale --quick --eager --out BENCH_scale_eager.json --max-rss-mb 512

log "full UBA population sweep with a discriminating RSS ceiling"
"$BENCH_BIN" scale --dataset uba --user-scales 0.5,1.0 \
    --out BENCH_scale_uba.json --max-rss-mb 96

log "OK"
