//! CI performance-regression gate over the kernel microbenchmark suite.
//!
//! Three modes:
//!
//! * `perf_gate emit --out <path>` — run the kernel suite (shared with
//!   `cargo bench -p diffreg-bench`) and write the canonical
//!   `diffreg-bench-v1` JSON to `<path>`.
//! * `perf_gate check <baseline.json> <current.json>` — compare the fastest
//!   sample (`min_s`) record-by-record; exit 1 when any record is more than
//!   25% slower or a baseline record is missing. Host bursts only add time,
//!   so the fastest of K holds still where the median moved by a third with
//!   identical instructions. When the two suites were measured on different
//!   hosts the comparison is printed but advisory (exit 0) — wall clocks
//!   are only meaningful same-host.
//! * `perf_gate recorder <current.json>` — flight-recorder overhead check:
//!   derive the per-event cost from the `telemetry/recorder_overhead/{on,off}`
//!   median gap and compare it against a 2 µs budget. Missing records fail;
//!   a budget breach is advisory (wall-clock verdicts are host-dependent).
//!
//! Used by `scripts/perf_gate.sh`; the checked-in baseline lives at
//! `BENCH_kernels.json`. The gate arithmetic is unit-tested in
//! `diffreg_bench::results`, the recorder budget below.

use diffreg_bench::kernels::{run_kernel_suite, K, RECORDER_BENCH_EVENTS, WARMUP};
use diffreg_bench::{compare_suites, BenchSuite};
use std::process::ExitCode;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone())
}

/// A record may be this much slower than the baseline's fastest sample.
const THRESHOLD: f64 = 0.25;

fn emit(args: &[String]) -> ExitCode {
    let out = arg_value(args, "--out").unwrap_or_else(|| "results/kernels.json".into());
    let suite = run_kernel_suite(WARMUP, K, &[32]);
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
    let (Some(baseline_path), Some(current_path)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: perf_gate check <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("[perf_gate] {e}");
            }
            return ExitCode::from(2);
        }
    };
    let report = compare_suites(&baseline, &current, THRESHOLD);
    print!("{}", report.render());
    if report.failed() {
        if !report.host_match {
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

/// Flight-recorder overhead budget, nanoseconds per offered event.
/// Deliberately generous: the point is catching an accidental O(ring) or
/// allocating fast path, not chasing single-digit nanoseconds.
const RECORDER_BUDGET_NS: f64 = 2000.0;

/// Per-event flight-recorder overhead from the on/off benchmark pair:
/// `(median_on − median_off) / events`, in nanoseconds. Returns report
/// lines, the overhead when both records exist, and failure messages
/// (missing records, or a budget breach).
fn recorder_report(suite: &BenchSuite) -> (Vec<String>, Option<f64>, Vec<String>) {
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
    let ok = per_event_ns <= RECORDER_BUDGET_NS;
    lines.push(format!(
        "  {} recorder overhead: {per_event_ns:.1} ns/event (on {:.6}s, off {:.6}s over {} events; budget {RECORDER_BUDGET_NS:.0} ns)",
        if ok { "OK  " } else { "OVER" },
        on.median_s(),
        off.median_s(),
        RECORDER_BENCH_EVENTS,
    ));
    if !ok {
        failures.push(format!(
            "recorder overhead {per_event_ns:.1} ns/event exceeds the {RECORDER_BUDGET_NS:.0} ns budget"
        ));
    }
    (lines, Some(per_event_ns), failures)
}

fn recorder(args: &[String]) -> ExitCode {
    let Some(current_path) = args.get(1) else {
        eprintln!("usage: perf_gate recorder <current.json>");
        return ExitCode::from(2);
    };
    let current = match load(current_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[perf_gate] {e}");
            return ExitCode::from(2);
        }
    };
    let (lines, _, failures) = recorder_report(&current);
    println!("[perf_gate] flight-recorder overhead check:");
    for l in &lines {
        println!("{l}");
    }
    if failures.is_empty() {
        println!("[perf_gate] recorder overhead PASS (within {RECORDER_BUDGET_NS:.0} ns/event)");
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("emit") => emit(&args),
        Some("check") => check(&args),
        Some("recorder") => recorder(&args),
        _ => {
            eprintln!("usage: perf_gate <emit|check|recorder>");
            eprintln!("  emit  --out results/kernels.json");
            eprintln!("  check <baseline.json> <current.json>");
            eprintln!("  recorder <current.json>");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_bench::BenchRecord;

    fn recorder_suite(gap_ns: f64) -> BenchSuite {
        let mut s = BenchSuite::new("kernels");
        let off = 1.0e-3;
        let on = off + gap_ns * 1e-9 * RECORDER_BENCH_EVENTS as f64;
        s.push(BenchRecord::new("telemetry/recorder_overhead/on", vec![on, on, on]));
        s.push(BenchRecord::new("telemetry/recorder_overhead/off", vec![off, off, off]));
        s
    }

    #[test]
    fn recorder_gap_within_budget_passes() {
        let (_, per_event, failures) = recorder_report(&recorder_suite(500.0));
        assert!(failures.is_empty(), "{failures:?}");
        assert!((per_event.expect("both records present") - 500.0).abs() <= 1.0);
    }

    #[test]
    fn recorder_gap_over_budget_is_reported() {
        let (_, _, failures) = recorder_report(&recorder_suite(5000.0));
        assert!(failures.iter().any(|f| f.contains("exceeds")), "{failures:?}");
    }

    #[test]
    fn missing_recorder_records_are_flagged() {
        let (_, per_event, failures) = recorder_report(&BenchSuite::new("kernels"));
        assert_eq!(per_event, None);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }
}
