#!/usr/bin/env bash
# Offline CI gate for the diffreg workspace.
#
# The repo promises to build and test with zero network access and zero
# external crates. Every test runs once per profile; nothing below re-runs
# a subset of an earlier step.
#   1. release build, fully offline
#   2. full workspace test suite in release. This *is* the smoke tier: the
#      traced 4-rank 32^3 registration (core/tests/{telemetry,doctor}.rs),
#      the serve chaos campaigns, the live HTTP plane and the incident drill
#      (serve/tests/{load,http,incidents}.rs), the chaos / resilience
#      drills, the r2c / SoA parity tier and the analyzer fixture suite
#   3. diffreg-doctor, from the files alone, over the bundles step 2 left in
#      target/tmp: analyze --gate on the solver and serve bundles (100% p2p
#      matched, all collectives complete, critical-path coverage >= 90%),
#      profile on the serve bundle, incident --gate on every drill bundle
#   4. full workspace test suite in debug, collective-contract checker on
#   5. static analysis: the in-tree analyzer must report zero findings;
#      every library root must forbid unsafe code; no pipeline switch,
#      removed knob, removed telemetry type or new env::var read may
#      reappear; workspace line count
#   6. clippy clean under -D warnings (skipped if clippy is not installed)
#   7. fail if Cargo.lock ever acquires a registry (non-path) dependency
#   8. kernel suite vs BENCH_kernels.json (scripts/perf_gate.sh), advisory
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/8] cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> [2/8] cargo test --offline (workspace, release)"
cargo test --workspace --release -q --offline

echo "==> [3/8] diffreg-doctor gates over the bundles the tests left in target/tmp"
# The tests assert matching / classification / triage / byte-identical
# replay in memory; this step is the CLI doing the same from disk.
doctor=target/release/diffreg-doctor
"$doctor" analyze --dir target/tmp/doctor-smoke --grid 32 --gate --min-coverage 0.9 > /dev/null
"$doctor" analyze --dir target/tmp/serve-smoke --gate --min-coverage 0.9 > /dev/null
"$doctor" profile --dir target/tmp/serve-smoke --top 10
for d in target/tmp/incident-drill/run1/incident-*; do
    "$doctor" incident --dir "$d" --gate > /dev/null
done
echo "    doctor gates ok (reports: target/tmp/{doctor,serve}-smoke/doctor-report.txt)"

echo "==> [4/8] cargo test --offline (workspace, debug: contract checker on)"
# Debug builds default the collective-ordering contract checker to ON
# (debug_assertions); force it explicitly so the gate survives profile
# tweaks. This continuously proves the whole solver stack is contract-clean.
DIFFREG_COMM_CONTRACT=1 cargo test --workspace -q --offline

echo "==> [5/8] static analysis (in-tree analyzer: AST/CFG dataflow lints)"
# Hard gate: zero findings anywhere in the workspace, the analyzer's own
# crate included (exit code) — every finding is either fixed or carries a
# reasoned allow at its site. The --json report must carry its schema tag
# and be byte-identical across two runs.
analyzer=target/release/diffreg-analyzer
"$analyzer" check --json > target/analyzer-report.json
grep -q '"schema": *"diffreg-analyzer-v3"' target/analyzer-report.json || {
    echo "ERROR: analyzer --json did not emit the diffreg-analyzer-v3 schema" >&2
    exit 1; }
"$analyzer" check --json | cmp - target/analyzer-report.json || {
    echo "ERROR: analyzer --json output is not byte-deterministic across runs" >&2
    exit 1; }
echo "    analyzer: 0 findings, $(grep -o '"suppressed": *[0-9]*}$' target/analyzer-report.json | tr -d '"}')"
# Advisory sanitizer pass (skips cleanly when toolchains are unavailable).
scripts/sanitizers.sh || echo "    sanitizers advisory: non-zero exit tolerated"
# rustc enforces forbid(unsafe_code) and deny(missing_docs) wherever they
# are declared; what it cannot see is a library root that forgot to declare.
for root in crates/*/src/lib.rs src/lib.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" || {
        echo "ERROR: $root is missing #![forbid(unsafe_code)]" >&2; exit 1; }
done
# What was deleted must not come back. (The bracketed letters keep these
# lines from matching themselves.) One pipeline: no switch between numeric
# paths.
everywhere="crates src scripts examples tests README.md DESIGN.md EXPERIMENTS.md .claude"
if grep -rnE 'DIFFREG_(SPECTRAL|INTERP|PRECISION)|Spectral[P]ath|Interp[M]ode|with_[p]recision' $everywhere; then
    echo "ERROR: a pipeline switch (second FFT / interpolation / reduction path) reappeared" >&2
    exit 1
fi
# Configuration is an argument: the second send protocol, the capped event
# log and the env switches for tracing / recorder / HTTP.
if grep -rnE 'DIFFREG_(COMM_[E]AGER|COMM_[T]AP|[T]RACE|[R]ECORDER|[H]TTP)|set_[e]ager_limit|set_[e]vent_cap|Late[R]eceiver' $everywhere; then
    echo "ERROR: a removed runtime switch (send protocol / event cap / env toggle) reappeared" >&2
    exit 1
fi
# An option needs two callers, a check runs once: the variables that steered
# tests from this script, the gate's tunables and its proof modes.
if grep -rnE 'DIFFREG_([A-Z]+_SMOKE_[S]IZE|SERVE_LOAD_[JG]|DOCTOR_[D]IR|SERVE_TRACE_[D]IR|INCIDENT_DRILL_[D]IR)|PERF_[G]ATE_|[s]elftest|--[i]nflate|strict-[h]ost' $everywhere; then
    echo "ERROR: a test-steering variable, gate tunable or proof mode reappeared" >&2
    exit 1
fi
# Telemetry stores each fact once: the second span buffer, the load-side
# mirrors of the event types, the second digest and the per-flavour profile
# constructors. (This one skips scripts/: the pattern lives here.)
if grep -rnE 'Thread[T]race|Span[E]vent|Rec[L]ine|Recorder[F]ile|take_thread_[t]race|digest_from_[l]oaded|from_recorder_[f]iles|from_[d]octor' \
        crates src tests examples README.md DESIGN.md EXPERIMENTS.md .claude; then
    echo "ERROR: a removed telemetry type, buffer or loader reappeared" >&2
    exit 1
fi
# The tree reads four variables from the environment and no more: the two
# comm fault detectors, the bench output directory, and HOSTNAME (testkit's
# seed / case-count overrides aside).
if grep -rn 'env::var' crates src tests examples | grep -v '^crates/testkit/' \
        | grep -vE '"(DIFFREG_COMM_TIMEOUT_MS|DIFFREG_COMM_CONTRACT|DIFFREG_RESULTS_DIR|HOSTNAME)"'; then
    echo "ERROR: an environment variable outside the allowlist is read" >&2
    exit 1
fi
# The workspace line count is tracked like a benchmark (ROADMAP aim 2).
solver='crates/(fft|pfft|spectral|grid|interp|transport|optim|core)/'
all_rs=$(find crates src tests examples -name '*.rs')
echo "    Rust lines, solver:  $(echo "$all_rs" | grep -E "$solver" | xargs cat | wc -l)"
echo "    Rust lines, chassis: $(echo "$all_rs" | grep -vE "$solver" | xargs cat | wc -l)"
echo "    Rust lines, total:   $(echo "$all_rs" | xargs cat | wc -l)"
echo "    Rust lines, crates/telemetry: $(echo "$all_rs" | grep '^crates/telemetry/' | xargs cat | wc -l)"

echo "==> [6/8] cargo clippy -- -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "    clippy not installed; skipping lint gate"
fi

echo "==> [7/8] dependency audit (no external crates allowed)"
# Every package in Cargo.lock must be one of ours (path deps carry no
# `source =` line; registry/git deps do).
if grep -q '^source = ' Cargo.lock; then
    echo "ERROR: Cargo.lock contains non-path dependencies:" >&2
    grep -B2 '^source = ' Cargo.lock >&2
    exit 1
fi
if grep -nE '^\s*(proptest|criterion|crossbeam|rand|serde|parking_lot)\b' \
        Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: external dependency referenced in a manifest" >&2
    exit 1
fi
echo "    Cargo.lock and manifests are dependency-free"

echo "==> [8/8] kernel suite vs BENCH_kernels.json (advisory)"
# Printed, never failing the build: identical instructions have read 30-50%
# slower under host bursts. The gate on speed is the repo benchmark
# (benchmark/run.sh --compare, parent vs change); this is the same-host
# before/after tool for one kernel at a time.
scripts/perf_gate.sh || echo "    perf gate advisory: non-zero exit tolerated"

echo "CI OK"
