//! CI performance-regression gate over the kernel microbenchmark suite.
//!
//! Four modes:
//!
//! * `perf_gate emit --out <path>` — run the kernel suite (shared with
//!   `cargo bench -p diffreg-bench`) and write the canonical
//!   `diffreg-bench-v1` JSON to `<path>`. `--inflate X` multiplies every
//!   sample by `X` after measuring; CI uses it to prove the gate trips on a
//!   synthetic slowdown without waiting for a real one.
//! * `perf_gate check <baseline.json> <current.json>` — compare the fastest
//!   sample (`min_s`) record-by-record; exit 1 when any record is more than
//!   `--threshold` (default 0.25 = 25%) slower or a baseline record is
//!   missing. Host bursts only add time, so the fastest of K holds still
//!   where the median moved by a third with identical instructions. When
//!   the two suites were measured on different hosts the comparison is
//!   printed but advisory (exit 0) unless `--strict-host` is given — wall
//!   clocks are only meaningful same-host.
//! * `perf_gate recorder <current.json>` — flight-recorder overhead check:
//!   derive the per-event cost from the `telemetry/recorder_overhead/{on,off}`
//!   median gap and compare it against a nanosecond budget (default 2 µs,
//!   `--budget-ns`). Missing records fail; a budget breach is advisory
//!   (wall-clock verdicts are host-dependent).
//! * `perf_gate selftest` — deterministic in-memory check (no timing) that
//!   the gate logic passes identical suites, fails a 30% slowdown at the
//!   25% threshold, never fails on speedups, flags missing records, and
//!   that the recorder check passes/breaches/flags-missing correctly.
//!
//! Used by `scripts/perf_gate.sh`; the checked-in baseline lives at
//! `BENCH_kernels.json`.

use diffreg_bench::kernels::{run_kernel_suite, K, RECORDER_BENCH_EVENTS, WARMUP};
use diffreg_telemetry::{compare_suites, BenchRecord, BenchSuite};
use std::process::ExitCode;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone())
}

fn arg_f64(args: &[String], key: &str, default: f64) -> f64 {
    arg_value(args, key).map(|v| v.parse().expect("bad numeric argument")).unwrap_or(default)
}

fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    arg_value(args, key).map(|v| v.parse().expect("bad integer argument")).unwrap_or(default)
}

fn emit(args: &[String]) -> ExitCode {
    let out = arg_value(args, "--out").unwrap_or_else(|| "results/kernels.json".into());
    let warmup = arg_usize(args, "--warmup", WARMUP);
    let k = arg_usize(args, "--samples", K);
    let sizes: Vec<usize> = arg_value(args, "--sizes")
        .map(|v| v.split(',').map(|s| s.parse().expect("bad size list")).collect())
        .unwrap_or_else(|| vec![32]);
    let inflate = arg_f64(args, "--inflate", 1.0);

    let mut suite = run_kernel_suite(warmup, k, &sizes);
    // diffreg-allow(float-eq): exact sentinel check — 1.0 is the untouched CLI default, never a computed value
    if inflate != 1.0 {
        eprintln!("[perf_gate] inflating all samples by {inflate} (synthetic slowdown)");
        for r in &mut suite.records {
            for s in &mut r.samples_s {
                *s *= inflate;
            }
        }
    }
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("[perf_gate] cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    }
    match std::fs::write(&out, format!("{}\n", suite.to_json())) {
        Ok(()) => {
            println!("[perf_gate] wrote {} ({} records)", out, suite.records.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[perf_gate] cannot write {out}: {e}");
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<BenchSuite, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchSuite::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn check(args: &[String]) -> ExitCode {
    // Positionals come right after the subcommand; flags follow.
    let (Some(baseline_path), Some(current_path)) = (
        args.get(1).filter(|a| !a.starts_with("--")),
        args.get(2).filter(|a| !a.starts_with("--")),
    ) else {
        eprintln!("usage: perf_gate check <baseline.json> <current.json> [--threshold 0.25] [--strict-host]");
        return ExitCode::from(2);
    };
    let threshold = arg_f64(args, "--threshold", 0.25);
    let strict_host = args.iter().any(|a| a == "--strict-host");
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("[perf_gate] {e}");
            }
            return ExitCode::from(2);
        }
    };
    let report = compare_suites(&baseline, &current, threshold);
    print!("{}", report.render());
    if report.failed() {
        if !report.host_match && !strict_host {
            println!(
                "[perf_gate] hosts differ ({} vs {}): result is advisory, not failing the build",
                baseline.host, current.host
            );
            return ExitCode::SUCCESS;
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Default flight-recorder overhead budget, nanoseconds per offered event.
/// Deliberately generous: the point is catching an accidental O(ring) or
/// allocating fast path, not chasing single-digit nanoseconds.
const RECORDER_BUDGET_NS: f64 = 2000.0;

/// Per-event flight-recorder overhead from the on/off benchmark pair:
/// `(median_on − median_off) / events`, in nanoseconds. Returns report
/// lines, the overhead when both records exist, and failure messages
/// (missing records, or a budget breach).
fn recorder_report(suite: &BenchSuite, budget_ns: f64) -> (Vec<String>, Option<f64>, Vec<String>) {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    let on = suite.record("telemetry/recorder_overhead/on");
    let off = suite.record("telemetry/recorder_overhead/off");
    let (Some(on), Some(off)) = (on, off) else {
        for (name, r) in [
            ("telemetry/recorder_overhead/on", on),
            ("telemetry/recorder_overhead/off", off),
        ] {
            if r.is_none() {
                lines.push(format!("  MISS {name}: record absent from suite"));
                failures.push(format!("{name}: record missing from current suite"));
            }
        }
        return (lines, None, failures);
    };
    let per_event_ns =
        (on.median_s() - off.median_s()).max(0.0) * 1e9 / RECORDER_BENCH_EVENTS as f64;
    let ok = per_event_ns <= budget_ns;
    lines.push(format!(
        "  {} recorder overhead: {per_event_ns:.1} ns/event (on {:.6}s, off {:.6}s over {} events; budget {budget_ns:.0} ns)",
        if ok { "OK  " } else { "OVER" },
        on.median_s(),
        off.median_s(),
        RECORDER_BENCH_EVENTS,
    ));
    if !ok {
        failures.push(format!(
            "recorder overhead {per_event_ns:.1} ns/event exceeds the {budget_ns:.0} ns budget"
        ));
    }
    (lines, Some(per_event_ns), failures)
}

fn recorder(args: &[String]) -> ExitCode {
    let Some(current_path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: perf_gate recorder <current.json> [--budget-ns 2000]");
        return ExitCode::from(2);
    };
    let budget_ns = arg_f64(args, "--budget-ns", RECORDER_BUDGET_NS);
    let current = match load(current_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[perf_gate] {e}");
            return ExitCode::from(2);
        }
    };
    let (lines, _, failures) = recorder_report(&current, budget_ns);
    println!("[perf_gate] flight-recorder overhead check:");
    for l in &lines {
        println!("{l}");
    }
    if failures.is_empty() {
        println!("[perf_gate] recorder overhead PASS (within {budget_ns:.0} ns/event)");
        return ExitCode::SUCCESS;
    }
    if failures.iter().any(|f| f.contains("missing")) {
        // Structural: the bench fell out of the suite; always fail.
        for f in &failures {
            eprintln!("[perf_gate] recorder check FAIL: {f}");
        }
        return ExitCode::FAILURE;
    }
    // Wall-clock budget verdicts are host-dependent: advisory.
    println!(
        "[perf_gate] budget exceeded on host {}: advisory, not failing the build",
        current.host
    );
    ExitCode::SUCCESS
}

/// Deterministic gate-logic check: no clocks, pure arithmetic.
fn selftest() -> ExitCode {
    fn suite(scale: f64) -> BenchSuite {
        let mut s = BenchSuite::new("kernels");
        s.host = "selftest".into();
        for (name, base) in [
            ("fft3d/forward/32", 1.0e-3),
            ("fft3d/forward_r2c/32", 6.0e-4),
            ("fft3d/gradient/32", 4.5e-3),
            ("interpolation/Tricubic/32", 1.0e-3),
            ("solver/hessian_matvec/16", 2.0e-2),
        ] {
            s.push(BenchRecord::new(
                name,
                vec![base * scale, 1.1 * base * scale, 0.9 * base * scale],
            ));
        }
        s
    }
    let base = suite(1.0);
    let mut failures = Vec::new();

    let same = compare_suites(&base, &suite(1.0), 0.25);
    if same.failed() {
        failures.push("identical suites must pass");
    }
    let slow = compare_suites(&base, &suite(1.3), 0.25);
    if !slow.failed() || !slow.findings.iter().all(|f| f.regressed) {
        failures.push("a 30% slowdown must fail the 25% gate on every record");
    }
    let fast = compare_suites(&base, &suite(0.7), 0.25);
    if fast.failed() {
        failures.push("speedups must never fail");
    }
    let mut partial = suite(1.0);
    partial.records.pop();
    if !compare_suites(&base, &partial, 0.25).failed() {
        failures.push("missing baseline records must fail");
    }
    // JSON round-trip through the exact on-disk schema.
    let back = BenchSuite::from_json_str(&base.to_json().to_string());
    if back.as_ref() != Ok(&base) {
        failures.push("suite must round-trip through JSON");
    }
    // Optional percentile fields: round-trip intact, never gated.
    let mut with_pcts = suite(1.0);
    with_pcts.push(
        BenchRecord::new("newton/krylov/32", vec![5.0e-2, 5.2e-2, 4.8e-2])
            .with_percentiles(5.0e-2, 5.2e-2),
    );
    match BenchSuite::from_json_str(&with_pcts.to_json().to_string()) {
        Ok(b) if b == with_pcts => {
            // Bit-exact round-trip check (u64 compare, not float equality).
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            let (want_p50, want_p95) = (bits(Some(5.0e-2)), bits(Some(5.2e-2)));
            let r = b.record("newton/krylov/32");
            if bits(r.and_then(|r| r.p50_s)) != want_p50
                || bits(r.and_then(|r| r.p95_s)) != want_p95
            {
                failures.push("p50_s/p95_s must survive the JSON round-trip");
            }
        }
        _ => failures.push("suite with percentiles must round-trip through JSON"),
    }
    let mut worse_tail = with_pcts.clone();
    for r in &mut worse_tail.records {
        r.p95_s = r.p95_s.map(|p| p * 100.0);
    }
    if compare_suites(&with_pcts, &worse_tail, 0.25).failed() {
        failures.push("percentile fields are informational and must not gate");
    }

    // Recorder-overhead check: a synthetic 500 ns/event gap passes the
    // 2 µs budget, a 5 µs gap breaches it, and missing records are flagged.
    let recorder_suite = |gap_ns: f64| {
        let mut s = BenchSuite::new("kernels");
        s.host = "selftest".into();
        let off = 1.0e-3;
        let on = off + gap_ns * 1e-9 * RECORDER_BENCH_EVENTS as f64;
        s.push(BenchRecord::new("telemetry/recorder_overhead/on", vec![on, on, on]));
        s.push(BenchRecord::new("telemetry/recorder_overhead/off", vec![off, off, off]));
        s
    };
    let (_, within, ok_fail) = recorder_report(&recorder_suite(500.0), RECORDER_BUDGET_NS);
    if !ok_fail.is_empty() || within.is_none_or(|ns| (ns - 500.0).abs() > 1.0) {
        failures.push("a 500 ns/event recorder gap must pass the 2 us budget");
    }
    let (_, _, over_fail) = recorder_report(&recorder_suite(5000.0), RECORDER_BUDGET_NS);
    if !over_fail.iter().any(|f| f.contains("exceeds")) {
        failures.push("a 5 us/event recorder gap must breach the budget");
    }
    let (_, _, rec_miss) = recorder_report(&BenchSuite::new("kernels"), RECORDER_BUDGET_NS);
    if rec_miss.len() != 2 {
        failures.push("missing recorder records must be flagged");
    }

    print!("{}", slow.render());
    if failures.is_empty() {
        println!("[perf_gate] selftest PASS (30% synthetic slowdown trips the 25% gate)");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("[perf_gate] selftest FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("emit") => emit(&args),
        Some("check") => check(&args),
        Some("recorder") => recorder(&args),
        Some("selftest") => selftest(),
        _ => {
            eprintln!("usage: perf_gate <emit|check|recorder|selftest> [options]");
            eprintln!("  emit  --out results/kernels.json [--warmup N] [--samples K] [--sizes 32] [--inflate X]");
            eprintln!("  check <baseline.json> <current.json> [--threshold 0.25] [--strict-host]");
            eprintln!("  recorder <current.json> [--budget-ns 2000]");
            eprintln!("  selftest");
            ExitCode::from(2)
        }
    }
}
