#!/usr/bin/env bash
# Offline CI gate for the diffreg workspace.
#
# The repo promises to build and test with zero network access and zero
# external crates. This script enforces all of it:
#   1. release build, fully offline
#   2. full workspace test suite, fully offline
#   3. kernel parity tier in release mode: the r2c / SoA pipeline vs the
#      test-side c2c / scalar references and the analytic oracles
#   4. debug-assertions test pass (collective-contract checker active)
#   5. chaos / resilience suites at fixed seeds (fault-injection drills)
#   6. telemetry smoke: traced 4-rank 32^3 registration must yield a valid
#      Chrome trace, phase report, and convergence log
#   7. doctor smoke: the same traced run writes a trace bundle and
#      diffreg-doctor hard-gates on it (100% p2p matched, all collectives
#      complete, critical-path coverage >= 90%)
#   8. serve smoke: the chaos job-runtime campaign (seeded kills/stalls/torn
#      checkpoints, zero lost jobs, bitwise recovery) plus a doctor gate on
#      one served job's trace bundle, then a reduced-scale load campaign
#   9. live observability smoke: the 4-rank serve pool with http_addr set
#      must answer /healthz, /metrics, and /jobs over raw TcpStream while
#      jobs are in flight (digest parity vs HTTP-off pinned in the test),
#      and diffreg-doctor profile must fold the serve smoke bundle into a
#      flamegraph
#  10. incident drill: the seeded chaos drill must emit exactly the expected
#      incident bundles, every bundle must pass `diffreg-doctor incident
#      --gate`, and a second run must reproduce the bundles byte-for-byte
#  11. perf-regression gate over the kernel suite (scripts/perf_gate.sh)
#  12. static analysis: the in-tree analyzer must report zero findings and
#      its fixture suite must pass; every library root must forbid unsafe
#      code; no pipeline switch, removed runtime switch or new env::var read
#      in library code may reappear; workspace line count, solver vs chassis
#  13. clippy clean under -D warnings (skipped if clippy is not installed)
#  14. smoke-test the individual crates a distributed solve flows through
#  15. fail if Cargo.lock ever acquires a registry (non-path) dependency
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/15] cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> [2/15] cargo test --offline (workspace, release)"
cargo test --workspace --release -q --offline

echo "==> [3/15] kernel parity tier (r2c / SoA, release)"
# The pipeline (half-spectrum r2c transforms, SoA tricubic) is pinned
# against the references the tests compose at the crate boundary and the
# analytic oracles: r2c roundtrip/operator parity vs the c2c primitives,
# SoA bit-identity vs the scalar kernel (interp unit tests, step 2), and
# the warm-arena zero-allocation check.
cargo test -p diffreg-fft --release -q --offline
cargo test -p diffreg-pfft --release -q --offline --test r2c_parity
cargo test -p diffreg-core --release -q --offline --test zero_alloc

echo "==> [4/15] cargo test --offline (workspace, debug: contract checker on)"
# Debug builds default the collective-ordering contract checker to ON
# (debug_assertions); force it explicitly so the gate survives profile
# tweaks. This continuously proves the whole solver stack is contract-clean.
DIFFREG_COMM_CONTRACT=1 cargo test --workspace -q --offline

echo "==> [5/15] chaos & resilience suites (fixed seeds)"
# Fault-injection drills: seeded latency/reorder/stall/kill schedules, the
# watchdog, rank-failure containment, and checkpoint/restart. The seeds are
# fixed inside the tests, so this step is fully deterministic.
cargo test -p diffreg-comm --release -q --offline --test chaos
cargo test -p diffreg-core --release -q --offline --test resilience

echo "==> [6/15] telemetry smoke (traced 4-rank 32^3 registration)"
# Runs the end-to-end observability acceptance test at the release smoke
# size: span tracing on, Chrome trace validated (one pid per rank, nested
# fft/interp/transport/newton spans), rank-aggregated phase report with the
# perfmodel-predicted column, and a JSONL convergence log with one record
# per Newton iteration.
DIFFREG_TELEMETRY_SMOKE_SIZE=32 \
    cargo test -p diffreg-core --release -q --offline --test telemetry

echo "==> [7/15] doctor smoke (trace bundle -> diffreg-doctor analyze --gate)"
# The doctor acceptance test re-runs the traced 4-rank 32^3 registration with
# comm-event recording on, checks matching/classification/critical-path
# invariants in-memory, and (because DIFFREG_DOCTOR_DIR is set) writes the
# trace bundle to disk. diffreg-doctor then re-analyzes that bundle from the
# files alone and hard-gates: every p2p message matched, every collective
# group complete, and the critical path explaining >= 90% of the wall clock.
rm -rf target/doctor-smoke
DIFFREG_DOCTOR_SMOKE_SIZE=32 DIFFREG_DOCTOR_DIR="$PWD/target/doctor-smoke" \
    cargo test -p diffreg-core --release -q --offline --test doctor
cargo run -q -p diffreg-doctor --release --offline -- selftest
cargo run -q -p diffreg-doctor --release --offline -- \
    analyze --dir target/doctor-smoke --grid 32 --gate --min-coverage 0.9 \
    > /dev/null
echo "    doctor gate ok (report: target/doctor-smoke/doctor-report.txt)"

echo "==> [8/15] serve smoke (chaos job-runtime campaign + doctor gate)"
# Registration-as-a-service drill: the small chaos campaign queues 32 jobs
# on a 4-rank pool under seeded kills, stalls past the watchdog, and torn
# checkpoint writes. Acceptance inside the test: zero lost jobs, recovered
# jobs bitwise-equal to their uninterrupted reference solves, exact recovery
# counters in the Prometheus export, and a bit-for-bit campaign replay.
# DIFFREG_SERVE_TRACE_DIR makes it also emit the checkpoint-resume drill
# job's trace bundle, which diffreg-doctor re-analyzes from the files alone
# and hard-gates like any traced solver run. Then the #[ignore]d load
# campaign runs at reduced CI scale (48 jobs, 16^3; the full 200-job 32^3
# tier is the same test with the env vars unset).
rm -rf target/serve-smoke
DIFFREG_SERVE_TRACE_DIR="$PWD/target/serve-smoke" \
    cargo test -p diffreg-serve --release -q --offline --test load \
    small_chaos_campaign_is_lossless_and_replays
cargo run -q -p diffreg-doctor --release --offline -- \
    analyze --dir target/serve-smoke --gate --min-coverage 0.9 \
    > /dev/null
echo "    serve doctor gate ok (report: target/serve-smoke/doctor-report.txt)"
DIFFREG_SERVE_LOAD_JOBS=48 DIFFREG_SERVE_LOAD_GRID=16 \
    cargo test -p diffreg-serve --release -q --offline --test load -- --ignored

echo "==> [9/15] live observability smoke (HTTP endpoints + doctor profile)"
# The live plane: a seeded 4-rank campaign with ServeConfig::http_addr on an
# ephemeral loopback port is probed over raw std::net::TcpStream (no curl)
# while jobs run — /healthz, parseable /metrics with serve_jobs_* counters
# and per-tenant SLO gauges, /jobs consistent with the final ServeSummary,
# and digest parity against the identical campaign with HTTP disabled.
cargo test -p diffreg-serve --release -q --offline --test http
# Offline profiler: fold the serve smoke trace bundle (step 8) into
# collapsed-stack flamegraphs + a self-time table.
cargo run -q -p diffreg-doctor --release --offline -- \
    profile --dir target/serve-smoke --top 10
test -s target/serve-smoke/profile.folded || {
    echo "ERROR: doctor profile wrote no profile.folded" >&2; exit 1; }
grep -q '^\[dropped\] ' target/serve-smoke/profile.folded || {
    echo "ERROR: profile.folded is missing its dropped-span trailer" >&2
    exit 1; }
echo "    live observability ok (endpoints probed live, smoke bundle profiled)"

echo "==> [10/15] incident drill (chaos bundles -> diffreg-doctor incident --gate)"
# The seeded incident drill runs the 4-rank chaos schedule twice into
# DIFFREG_INCIDENT_DRILL_DIR. The test itself asserts trigger counts, culprit
# attribution, SLO alert state, and byte-identical replay; this step then
# re-verifies from the shell: exactly the expected bundle count on disk,
# every bundle re-loaded/analyzed/gated through the doctor CLI from the
# files alone, and the two runs byte-compared on their deterministic files.
rm -rf target/incident-drill
DIFFREG_INCIDENT_DRILL_DIR="$PWD/target/incident-drill" \
    cargo test -p diffreg-serve --release -q --offline --test incidents \
    chaos_drill_emits_expected_gated_bundles_and_replays_byte_identically
drill_count=$(ls -d target/incident-drill/run1/incident-* | wc -l)
if [ "$drill_count" -ne 11 ]; then
    echo "ERROR: incident drill wrote $drill_count bundles, expected 11" >&2
    exit 1
fi
for d in target/incident-drill/run1/incident-*; do
    cargo run -q -p diffreg-doctor --release --offline -- \
        incident --dir "$d" --gate > /dev/null
done
for d in target/incident-drill/run1/incident-*; do
    r2="target/incident-drill/run2/$(basename "$d")"
    cmp -s "$d/incident.json" "$r2/incident.json" || {
        echo "ERROR: incident.json differs between drill runs: $d" >&2; exit 1; }
    if [ -f "$d/convergence.jsonl" ]; then
        cmp -s "$d/convergence.jsonl" "$r2/convergence.jsonl" || {
            echo "ERROR: convergence.jsonl differs between drill runs: $d" >&2
            exit 1; }
    fi
done
echo "    incident drill ok ($drill_count bundles gated, replay byte-identical)"

echo "==> [11/15] perf-regression gate (kernel suite fastest-of-K vs baseline)"
# Full protocol: deterministic selftest, end-to-end proof that a 30%
# synthetic slowdown trips the 25% gate, then a fastest-of-K comparison
# against the checked-in BENCH_kernels.json (advisory across hosts).
scripts/perf_gate.sh

echo "==> [12/15] static analysis (in-tree analyzer: AST/CFG dataflow lints)"
# Hard gate: zero findings — every finding is either fixed or carries a
# reasoned allow at its site. The --json output is parsed (schema +
# per-lint counts asserted) and must be byte-identical across two runs,
# and the analyzer is turned on itself.
cargo run -q -p diffreg-analyzer --release --offline -- check --json \
    > target/analyzer-report.json
grep -q '"schema": *"diffreg-analyzer-v3"' target/analyzer-report.json || {
    echo "ERROR: analyzer --json did not emit the diffreg-analyzer-v3 schema" >&2
    exit 1; }
# The dataflow lints and no-unwrap-in-lib hold the workspace at zero
# findings.
for lint in collective-consistency unwaited-handle alloc-in-hot-path \
            swallowed-comm-error no-unwrap-in-lib; do
    grep -q "\"$lint\":{\"new\":0," target/analyzer-report.json || {
        echo "ERROR: $lint is not clean (expected new=0):" >&2
        grep -o "\"$lint\":[^}]*}" target/analyzer-report.json >&2 || true
        exit 1; }
done
# Byte-determinism: a second run must reproduce the report exactly.
cargo run -q -p diffreg-analyzer --release --offline -- check --json \
    > target/analyzer-report-2.json
cmp target/analyzer-report.json target/analyzer-report-2.json || {
    echo "ERROR: analyzer --json output is not byte-deterministic across runs" >&2
    exit 1; }
rm -f target/analyzer-report-2.json
# The analyzer gates its own crate too (workspace-wide call graph, scoped
# findings).
cargo run -q -p diffreg-analyzer --release --offline -- check --paths crates/analyzer
# The fixture suite pins every lint (golden .expected diagnostics).
cargo test -p diffreg-analyzer --release -q --offline
# Advisory sanitizer pass (skips cleanly when toolchains are unavailable).
scripts/sanitizers.sh || echo "    sanitizers advisory: non-zero exit tolerated"
# rustc enforces forbid(unsafe_code) and deny(missing_docs) wherever they
# are declared; what it cannot see is a library root that forgot to declare.
for root in crates/*/src/lib.rs src/lib.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" || {
        echo "ERROR: $root is missing #![forbid(unsafe_code)]" >&2; exit 1; }
done
# One pipeline: a switch between numeric paths must not come back.
# (The bracketed letters keep this line from matching itself.)
if grep -rnE 'DIFFREG_(SPECTRAL|INTERP|PRECISION)|Spectral[P]ath|Interp[M]ode|with_[p]recision' \
        crates src scripts examples tests README.md DESIGN.md; then
    echo "ERROR: a pipeline switch (second FFT / interpolation / reduction path) reappeared" >&2
    exit 1
fi
# Configuration is an argument: the second send protocol, the capped event
# log and the env switches for tracing / recorder / HTTP must not come back
# (DIFFREG_SERVE_TRACE_DIR is a test's output path and stays legal).
if grep -rnE 'DIFFREG_(COMM_[E]AGER|COMM_[T]AP|[T]RACE|[R]ECORDER|[H]TTP)|set_[e]ager_limit|set_[e]vent_cap|Late[R]eceiver' \
        crates src scripts examples tests README.md DESIGN.md EXPERIMENTS.md; then
    echo "ERROR: a removed runtime switch (send protocol / event cap / env toggle) reappeared" >&2
    exit 1
fi
# Library code reads four variables from the environment and no more: the
# two comm fault detectors, the bench output directory, and HOSTNAME.
if grep -rn 'env::var' crates/*/src src | grep -vE '^crates/(analyzer|testkit)/' \
        | grep -vE '"(DIFFREG_COMM_TIMEOUT_MS|DIFFREG_COMM_CONTRACT|DIFFREG_RESULTS_DIR|HOSTNAME)"'; then
    echo "ERROR: library code reads an environment variable outside the allowlist" >&2
    exit 1
fi
# The workspace line count is tracked like a benchmark (ROADMAP aim 2).
solver='crates/(fft|pfft|spectral|grid|interp|transport|optim|core)/'
all_rs=$(find crates src tests examples -name '*.rs')
echo "    Rust lines, solver:  $(echo "$all_rs" | grep -E "$solver" | xargs cat | wc -l)"
echo "    Rust lines, chassis: $(echo "$all_rs" | grep -vE "$solver" | xargs cat | wc -l)"
echo "    Rust lines, total:   $(echo "$all_rs" | xargs cat | wc -l)"

echo "==> [13/15] cargo clippy -- -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "    clippy not installed; skipping lint gate"
fi

echo "==> [14/15] per-crate smoke tests"
for crate in diffreg-testkit diffreg-fft diffreg-comm diffreg-grid \
             diffreg-spectral diffreg-pfft diffreg-interp \
             diffreg-transport diffreg-optim diffreg-core \
             diffreg-telemetry diffreg-doctor diffreg-bench diffreg-analyzer \
             diffreg-serve; do
    cargo test -p "$crate" --release -q --offline >/dev/null
    echo "    $crate ok"
done

echo "==> [15/15] dependency audit (no external crates allowed)"
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

echo "CI OK"
