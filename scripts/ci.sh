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
#      drills and the r2c / SoA parity tier
#   3. diffreg-doctor, from the files alone, over the bundles step 2 left in
#      target/tmp: analyze --gate on the solver and serve bundles (100% p2p
#      matched, all collectives complete, critical-path coverage >= 90%),
#      profile on the serve bundle, incident --gate on every drill bundle
#   4. full workspace test suite in debug (both suites run under a 120 s
#      comm watchdog; the collective-contract checker is on in every build)
#   5. static checks: every library root must forbid unsafe code and declare
#      its lint levels; no pipeline switch, removed knob, removed telemetry
#      type, second failure taxonomy, serve wire codec, in-tree analyzer,
#      second Comm backend, hand-built workspace, second barrier, contract
#      switch, kernel gate, second per-thread metrics store, second comm
#      stream, recorder switch, hand-rolled FNV-1a or new env::var read may
#      reappear; workspace line count
#   6. clippy clean under -D warnings: it enforces step 5's lint levels and
#      rejects a stale #[expect], so a missing clippy fails the build
#   7. fail if Cargo.lock ever acquires a registry (non-path) dependency
#   8. the repo benchmark in smoke mode: every workload untraced and traced,
#      whose velocity digests must agree
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/8] cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> [2/8] cargo test --offline (workspace, release)"
# The comm watchdog is on in both suites: a deadlock the contract checker
# cannot see (a collective facing point-to-point traffic on user tags, say)
# fails with a CommError::Timeout naming every blocked rank instead of
# hanging.
DIFFREG_COMM_TIMEOUT_MS=120000 cargo test --workspace --release -q --offline

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

echo "==> [4/8] cargo test --offline (workspace, debug)"
# The same suite with debug_assertions and overflow checks on.
DIFFREG_COMM_TIMEOUT_MS=120000 cargo test --workspace -q --offline

echo "==> [5/8] static checks (lint levels, removed code, line count)"
# rustc and clippy enforce lint levels wherever they are declared; what they
# cannot see is a library root that forgot to declare them. Waivers are
# #[expect(lint, reason = "..")] at the site, and clippy (step 6) fails on a
# stale one.
for root in crates/*/src/lib.rs src/lib.rs; do
    for attr in '#!\[forbid(unsafe_code)\]' \
            '#!\[deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)\]' \
            '#!\[cfg_attr(not(test), deny(.*clippy::float_cmp'; do
        grep -q "^$attr" "$root" || {
            echo "ERROR: $root has no line matching ^$attr" >&2; exit 1; }
    done
done
# The solver libraries and the comm runtime return typed errors: no unwrap,
# expect or panic! outside a reasoned #[expect].
for c in comm fft pfft grid spectral interp transport optim core; do
    grep -q '^#!\[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic,' \
        "crates/$c/src/lib.rs" || {
        echo "ERROR: crates/$c/src/lib.rs does not deny unwrap_used/expect_used/panic" >&2; exit 1; }
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
# The serve fold says each thing once: one failure type shared with the
# triage, and typed collectives instead of hand-rolled wire codecs.
if grep -rnE 'R[E]ASON_|F[A]IL_(KILL|TIMEOUT|PEER|OTHER)|fail_[l]abel|reason_[l]abel|failure_[t]rigger|encode_[i]ntake|decode_[i]ntake|K[I]ND_(IDLE|OK|FAIL)' $everywhere; then
    echo "ERROR: a second failure taxonomy or a serve wire codec reappeared" >&2
    exit 1
fi
# The tree reads three variables from the environment and no more: the comm
# watchdog, the bench output directory, and HOSTNAME (testkit's seed /
# case-count overrides aside).
if grep -rn 'env::var' crates src tests examples | grep -v '^crates/testkit/' \
        | grep -vE '"(DIFFREG_COMM_TIMEOUT_MS|DIFFREG_RESULTS_DIR|HOSTNAME)"'; then
    echo "ERROR: an environment variable outside the allowlist is read" >&2
    exit 1
fi
# The compiler is the linter: the in-tree analyzer, its suppression comments
# and the advisory sanitizer script are gone.
if grep -rnE 'diffreg-[a]llow|diffreg[-_][a]nalyzer|[s]anitizers\.sh' $everywhere; then
    echo "ERROR: the in-tree analyzer or one of its scripts reappeared" >&2
    exit 1
fi
# One way to stand up a rank: a single rank is a one-rank ThreadComm, not a
# second Comm backend, and SessionParts is the only caller of Workspace::new.
if grep -rn 'impl Comm for S[e]rialComm' $everywhere || grep -rn 'mod s[e]rial' crates/comm; then
    echo "ERROR: a second Comm backend reappeared" >&2
    exit 1
fi
if grep -rn 'Workspace::n[e]w(' crates src tests examples | grep -v '^crates/transport/src/'; then
    echo "ERROR: a workspace is built by hand; use SessionParts" >&2
    exit 1
fi
# A barrier is a collective like the others: one wait mechanism (a channel
# receive), one stamped tag format with no switch for the contract checker,
# and one before/after comparator (benchmark/run.sh --compare).
if grep -rnE 'DIFFREG_COMM_[C]ONTRACT|set_contract_[c]hecking|Shared[B]arrier|perf_[g]ate' $everywhere; then
    echo "ERROR: a second barrier, the contract switch or the kernel gate reappeared" >&2
    exit 1
fi
# Each per-call fact is recorded once: the event ring is the only per-thread
# store (no thread-local metrics registry, no comm summaries in the ring, no
# stored span depth), and serve's job log is its progress stream.
if grep -rnE 'observe_[g]lobal|count_[g]lobal|take_global_[m]etrics|record_comm_[s]ummary|enter_[s]pan|Progress[E]vent' $everywhere; then
    echo "ERROR: a second per-thread metrics store, comm summary, span depth or progress copy reappeared" >&2
    exit 1
fi
# One stream per rank: a comm op is a record in the rank's event ring, so
# there is no comm event log, no second recording gate or drain, and no
# second bundle file or codec.
if grep -rnE 'take_[e]vents|set_event_[r]ecording|event_[r]ecording|events_(to|from)_[j]sonl|events-[r]ank|Comm[E]vent\b' $everywhere; then
    echo "ERROR: a second per-rank comm stream (event log, gate, drain or file) reappeared" >&2
    exit 1
fi
# No process-wide recording switch: the event ring always records and the
# trace mode is the calling thread's, so no recorder gate, no test lock on
# it and no second bench record type.
if grep -rnE 'set_[r]ecorder_enabled|recorder_[e]nabled|REC_[E]NABLED|ring::[r]ecording|TEST_(RING|TRACE)_[L]OCK|BenchR[e]sult|bench_[n]amed' $everywhere; then
    echo "ERROR: a recorder switch, a test lock on it or a second bench record type reappeared" >&2
    exit 1
fi
# One FNV-1a: comm's fnv module is the only home of the offset basis
# (testkit's property-seed mixer keeps its own, which seeds every case).
if grep -rn 'cbf2_9ce4_8422_2325' crates src | grep -vE '^(crates/comm/src/fnv\.rs|crates/testkit/src/prop\.rs):'; then
    echo "ERROR: a hand-rolled FNV-1a reappeared; use diffreg_comm::Fnv1a" >&2
    exit 1
fi
# The workspace line count is tracked like a benchmark (ROADMAP aim 2).
solver='crates/(fft|pfft|spectral|grid|interp|transport|optim|core)/'
all_rs=$(find crates src tests examples -name '*.rs')
echo "    Rust lines, solver:  $(echo "$all_rs" | grep -E "$solver" | xargs cat | wc -l)"
echo "    Rust lines, chassis: $(echo "$all_rs" | grep -vE "$solver" | xargs cat | wc -l)"
echo "    Rust lines, total:   $(echo "$all_rs" | xargs cat | wc -l)"
echo "    Rust lines, crates/telemetry: $(echo "$all_rs" | grep '^crates/telemetry/' | xargs cat | wc -l)"
echo "    Rust lines, crates/comm:      $(echo "$all_rs" | grep '^crates/comm/' | xargs cat | wc -l)"

echo "==> [6/8] cargo clippy -- -D warnings"
cargo clippy --version >/dev/null 2>&1 || {
    echo "ERROR: clippy is not installed, and it enforces the lint levels" >&2; exit 1; }
cargo clippy --workspace --all-targets --offline -- -D warnings

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

echo "==> [8/8] benchmark/run.sh --smoke (traced vs untraced digests)"
# The benchmark times the library's own driver untraced and re-assembles it
# from public pieces when traced; a library change that makes the two
# disagree fails here rather than in the next benchmark run.
benchmark/run.sh --smoke --out target/benchmark-smoke

echo "CI OK"
