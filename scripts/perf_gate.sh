#!/usr/bin/env bash
# CI perf-regression gate over the kernel microbenchmark suite.
#
# Protocol:
#   1. `perf_gate selftest` — deterministic proof the gate logic trips on a
#      30% slowdown at the 25% threshold (no clocks involved).
#   2. End-to-end proof through the real binary: emit a fast baseline, emit
#      the same suite with `--inflate 1.3` (every sample multiplied by 1.3
#      after measurement), and require `check --strict-host` to FAIL.
#   3. Compare a fresh run against the checked-in baseline
#      `BENCH_kernels.json` (fastest-of-K `min_s`, threshold 25%: bursts on
#      a shared host only add time, so the fastest sample repeats where the
#      median does not). Wall clocks are only comparable same-host, so a
#      host mismatch downgrades the comparison to advisory — the numbers
#      are printed but do not fail the build.
#   4. `perf_gate recorder` — flight-recorder overhead check: per-event cost
#      from the telemetry/recorder_overhead on/off median gap must sit
#      within a 2 us budget (missing records fail; a breach is advisory,
#      wall-clock verdicts being host-dependent).
#
# Usage:
#   scripts/perf_gate.sh            # selftest + inflate proof + baseline compare
#   scripts/perf_gate.sh --rebase   # re-measure and overwrite BENCH_kernels.json
#   scripts/perf_gate.sh --quick    # selftest + inflate proof only (no baseline)
#
# Tunables (env): PERF_GATE_SAMPLES (default 9), PERF_GATE_WARMUP (default 2),
# PERF_GATE_THRESHOLD (default 0.25), PERF_GATE_SIZES (default 32).
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES="${PERF_GATE_SAMPLES:-9}"
WARMUP="${PERF_GATE_WARMUP:-2}"
THRESHOLD="${PERF_GATE_THRESHOLD:-0.25}"
SIZES="${PERF_GATE_SIZES:-32}"
BASELINE="BENCH_kernels.json"
SCRATCH="target/perf-gate"

echo "==> [perf-gate 1/4] building perf_gate (release, offline)"
cargo build --release --offline -p diffreg-bench --bin perf_gate
GATE=target/release/perf_gate

echo "==> [perf-gate 2/4] gate selftest + synthetic-slowdown proof"
"$GATE" selftest
mkdir -p "$SCRATCH"
# Fast emission for the end-to-end proof: 3 samples, small grids. The two
# runs share one measurement, so only the inflation differs.
"$GATE" emit --out "$SCRATCH/proof_base.json" --warmup 1 --samples 3 --sizes 16
"$GATE" emit --out "$SCRATCH/proof_slow.json" --warmup 1 --samples 3 --sizes 16 --inflate 1.3
set +e
"$GATE" check "$SCRATCH/proof_base.json" "$SCRATCH/proof_slow.json" \
    --threshold "$THRESHOLD" --strict-host > "$SCRATCH/proof_check.txt" 2>&1
proof_status=$?
set -e
# Exit code 1 is the gate verdict (2 would be a usage/IO error); the report
# itself must say FAIL and flag regressions.
if [[ $proof_status -ne 1 ]] || ! grep -q 'FAIL' "$SCRATCH/proof_check.txt" \
        || ! grep -q 'REGRESSED' "$SCRATCH/proof_check.txt"; then
    echo "ERROR: gate did not fail on a 30% synthetic slowdown (exit $proof_status):" >&2
    cat "$SCRATCH/proof_check.txt" >&2
    exit 1
fi
echo "    gate trips on a 30% synthetic slowdown: ok"

if [[ "${1:-}" == "--quick" ]]; then
    echo "perf gate OK (quick mode: baseline comparison skipped)"
    exit 0
fi

if [[ "${1:-}" == "--rebase" ]]; then
    echo "==> [perf-gate 3/4] rebasing $BASELINE"
    "$GATE" emit --out "$BASELINE" --warmup "$WARMUP" --samples "$SAMPLES" --sizes "$SIZES"
    echo "==> [perf-gate 4/4] flight-recorder overhead check"
    "$GATE" recorder "$BASELINE"
    echo "perf gate baseline rebased; commit $BASELINE"
    exit 0
fi

echo "==> [perf-gate 3/4] comparing against $BASELINE"
if [[ ! -f "$BASELINE" ]]; then
    echo "    no $BASELINE checked in; bootstrapping one (commit it to enable the gate)"
    "$GATE" emit --out "$BASELINE" --warmup "$WARMUP" --samples "$SAMPLES" --sizes "$SIZES"
    exit 0
fi
"$GATE" emit --out "$SCRATCH/current.json" --warmup "$WARMUP" --samples "$SAMPLES" --sizes "$SIZES"
"$GATE" check "$BASELINE" "$SCRATCH/current.json" --threshold "$THRESHOLD"
echo "==> [perf-gate 4/4] flight-recorder overhead check"
"$GATE" recorder "$SCRATCH/current.json"
echo "perf gate OK"
