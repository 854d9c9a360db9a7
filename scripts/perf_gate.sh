#!/usr/bin/env bash
# Same-host before/after comparison over the kernel microbenchmark suite.
#
# Protocol:
#   1. Compare a fresh run against the checked-in baseline
#      `BENCH_kernels.json` (fastest-of-K `min_s`, threshold 25%: bursts on
#      a shared host only add time, so the fastest sample repeats where the
#      median does not). Wall clocks are only comparable same-host, so a
#      host mismatch downgrades the comparison to advisory — the numbers
#      are printed but the exit code stays 0.
#   2. `perf_gate recorder` — flight-recorder overhead check: per-event cost
#      from the telemetry/recorder_overhead on/off median gap must sit
#      within a 2 us budget (missing records fail; a breach is advisory,
#      wall-clock verdicts being host-dependent).
#
# The gate arithmetic (a 30% slowdown trips the 25% threshold, speedups and
# percentile fields never do, missing records always do) is unit-tested in
# crates/telemetry/src/results.rs and crates/bench/src/bin/perf_gate.rs.
#
# Usage:
#   scripts/perf_gate.sh            # baseline compare + recorder check
#   scripts/perf_gate.sh --rebase   # re-measure and overwrite BENCH_kernels.json
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="BENCH_kernels.json"
CURRENT="target/perf-gate/current.json"

echo "==> [perf-gate 1/3] building perf_gate (release, offline)"
cargo build --release --offline -p diffreg-bench --bin perf_gate
GATE=target/release/perf_gate

if [[ "${1:-}" == "--rebase" || ! -f "$BASELINE" ]]; then
    echo "==> [perf-gate 2/3] measuring a new $BASELINE"
    "$GATE" emit --out "$BASELINE"
    echo "==> [perf-gate 3/3] flight-recorder overhead check"
    "$GATE" recorder "$BASELINE"
    echo "perf gate baseline written; commit $BASELINE"
    exit 0
fi

echo "==> [perf-gate 2/3] comparing against $BASELINE"
"$GATE" emit --out "$CURRENT"
"$GATE" check "$BASELINE" "$CURRENT"
echo "==> [perf-gate 3/3] flight-recorder overhead check"
"$GATE" recorder "$CURRENT"
echo "perf gate OK"
