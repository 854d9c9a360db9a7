//! Turning an [`Outcome`] into files and text: the per-run detail JSON, the
//! one-line result the benchmark contract asks for, the human-readable
//! tables, and `--compare`.

use std::fmt::Write as _;
use std::path::Path;

use diffreg_telemetry::Json;

use crate::host;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::workloads::{Outcome, RunOpts};

/// A budget leaf and the kernel-suite record that times the same call at
/// 32³ on one rank (`BENCH_kernels.json`, read-only, optional).
const KERNEL_RECORDS: &[(&str, &str)] = &[
    ("transport.setup_s", "transport/semi_lagrangian_setup/32"),
    ("transport.state_solve_s", "transport/state_solve_nt4/32"),
    (
        "transport.adjoint_solve_s",
        "transport/adjoint_solve_nt4/32",
    ),
    ("pfft.gradient_s", "fft3d/gradient/32"),
    ("pfft.forward_s", "fft3d/forward_r2c/32"),
    ("pfft.inverse_s", "fft3d/inverse_r2c/32"),
    ("interp.eval_s", "interpolation/Tricubic/32"),
];

/// A leaf is flagged when it and its reference disagree by more than this.
const DISAGREE: f64 = 1.5;

fn disagrees(a: f64, b: f64) -> bool {
    !(a / b <= DISAGREE && b / a <= DISAGREE)
}

/// Median of a `BENCH_kernels.json` record, if the file and record exist.
fn kernel_median(suite: &Option<Json>, record: &str) -> Option<f64> {
    suite
        .as_ref()?
        .get("records")?
        .as_arr()?
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(record))?
        .get("median_s")?
        .as_f64()
}

/// Everything one run measured, as written to `<workload>-trace<t>.json`.
pub fn detail(workload: &str, seed: u64, opts: &RunOpts, o: &Outcome) -> Json {
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Json::obj();
    for def in defs {
        let value = *o
            .metrics
            .0
            .get(def.name)
            .unwrap_or_else(|| panic!("{} not measured", def.name));
        let mut m = Json::obj()
            .set("value", value)
            .set("unit", def.unit)
            .set("exact", def.exact);
        if let Some(samples) = o.samples.get(def.name) {
            let (q1, q3) = quartiles(samples);
            let all = samples.iter().map(|&x| Json::from(x)).collect::<Vec<_>>();
            m = m.set("median", median(samples)).set("q1", q1).set("q3", q3);
            m = m.set("n", samples.len()).set("samples", all);
        }
        metrics = metrics.set(def.name, m);
    }
    assert_eq!(
        o.metrics.0.len(),
        defs.len(),
        "a metric outside BENCHMARK.json was measured"
    );

    // The kernel suite only matches a single-rank 32³ replay.
    let kernels = (workload == "synth32" && !opts.smoke)
        .then(|| std::fs::read_to_string("BENCH_kernels.json").ok())
        .flatten()
        .and_then(|text| Json::parse(&text).ok());
    let kernel_row = |layer: &str, per_call_s: f64| {
        let (_, record) = KERNEL_RECORDS.iter().find(|(l, _)| *l == layer)?;
        let median = kernel_median(&kernels, record)?;
        Some(
            Json::obj()
                .set("record", *record)
                .set("median_s", median)
                .set("ratio", per_call_s / median)
                .set("flag", disagrees(per_call_s, median)),
        )
    };
    let mut budget: Vec<Json> = o
        .budget
        .iter()
        .map(|r| {
            let product = r.calls * r.per_call_s;
            let row = Json::obj()
                .set("layer", r.layer)
                .set("calls", r.calls)
                .set("per_call_s", r.per_call_s)
                .set("product_s", product)
                .set("share", product / o.budget_wall_s);
            match kernel_row(r.layer, r.per_call_s) {
                Some(k) => row.set("kernel", k),
                None => row,
            }
        })
        .collect();
    // Replayed leaves that are not budget rows of their own still have a
    // kernel record to be held against.
    for (layer, _) in KERNEL_RECORDS {
        let in_budget = o.budget.iter().any(|r| r.layer == *layer);
        if let (false, Some(&per_call)) = (in_budget, o.metrics.0.get(layer)) {
            if let Some(k) = kernel_row(layer, per_call) {
                budget.push(
                    Json::obj()
                        .set("layer", *layer)
                        .set("per_call_s", per_call)
                        .set("kernel", k),
                );
            }
        }
    }
    let phases: Vec<Json> = o
        .phases
        .iter()
        .map(|(name, measured, modeled)| {
            Json::obj()
                .set("phase", *name)
                .set("measured_share", *measured)
                .set("modeled_share", *modeled)
                // Absent phases (no comm on one rank) are not a disagreement.
                .set(
                    "flag",
                    *measured > 0.0 && *modeled > 0.0 && disagrees(*measured, *modeled),
                )
        })
        .collect();

    Json::obj()
        .set("workload", workload)
        .set("seed", seed)
        .set("trace", opts.trace)
        .set("seconds", opts.seconds)
        .set("smoke", opts.smoke)
        .set("host", host::fingerprint())
        .set(
            "reps",
            o.reps.iter().fold(Json::obj(), |j, (k, v)| j.set(k, *v)),
        )
        .set("correct", o.failures.is_empty())
        .set("attempted", o.attempted)
        .set("failed", o.failures.len().min(o.attempted))
        .set(
            "failures",
            Json::Arr(o.failures.iter().map(|f| Json::from(f.as_str())).collect()),
        )
        .set(
            "digest",
            o.digest
                .map_or(Json::Null, |d| Json::from(format!("{d:016x}"))),
        )
        .set("metrics", metrics)
        .set("budget_wall_s", o.budget_wall_s)
        .set("budget", budget)
        .set("phases", phases)
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` (name → value and unit).
pub fn contract_line(detail: &Json) -> Json {
    let mut metrics = Json::obj();
    if let Some(Json::Obj(all)) = detail.get("metrics") {
        for (name, m) in all {
            let pick = |k: &str| m.get(k).cloned().unwrap_or(Json::Null);
            metrics = metrics.set(
                name,
                Json::obj()
                    .set("value", pick("value"))
                    .set("unit", pick("unit")),
            );
        }
    }
    let pick = |k: &str| detail.get(k).cloned().unwrap_or(Json::Null);
    Json::obj()
        .set("correct", pick("correct"))
        .set("attempted", pick("attempted"))
        .set("failed", pick("failed"))
        .set("metrics", metrics)
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The human-readable view of one run: every metric by name with its unit,
/// then (traced runs) the layer budget and the phase split.
pub fn render(workload: &str, detail: &Json) -> String {
    let mut s = String::new();
    let traced = detail.get("trace") == Some(&Json::Bool(true));
    let _ = writeln!(
        s,
        "\n== {workload} ({}, seed {}, reps {}) ==",
        if traced {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        num(detail, "seed"),
        detail.get("reps").map_or(String::new(), Json::to_string),
    );
    if let Some(Json::Obj(all)) = detail.get("metrics") {
        // Table order, not the map's alphabetical order.
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let Some(m) = all.get(def.name) else { continue };
            let _ = write!(
                s,
                "  {:<28} {:>14.6} {:<6}",
                def.name,
                num(m, "value"),
                def.unit
            );
            if m.get("n").is_some() {
                let _ = write!(
                    s,
                    " [median {:.6}, q1 {:.6}, q3 {:.6}, n {}]",
                    num(m, "median"),
                    num(m, "q1"),
                    num(m, "q3"),
                    num(m, "n")
                );
            }
            s.push('\n');
        }
    }
    if let Some(rows) = detail
        .get("budget")
        .and_then(Json::as_arr)
        .filter(|r| !r.is_empty())
    {
        let wall = num(detail, "budget_wall_s");
        let _ = writeln!(
            s,
            "  layer budget against the traced solve wall of {wall:.4} s:"
        );
        let _ = writeln!(
            s,
            "    {:<28} {:>7} {:>12} {:>11} {:>7}   kernel suite",
            "layer", "calls", "per-call s", "product s", "share"
        );
        for r in rows {
            let layer = r.get("layer").and_then(Json::as_str).unwrap_or("?");
            if r.get("calls").is_some() {
                let _ = write!(
                    s,
                    "    {layer:<28} {:>7} {:>12.6} {:>11.4} {:>6.1}%",
                    num(r, "calls"),
                    num(r, "per_call_s"),
                    num(r, "product_s"),
                    100.0 * num(r, "share")
                );
            } else {
                let _ = write!(
                    s,
                    "    {layer:<28} {:>7} {:>12.6} {:>11} {:>7}",
                    "-",
                    num(r, "per_call_s"),
                    "-",
                    "-"
                );
            }
            if let Some(k) = r.get("kernel") {
                let flag = if k.get("flag") == Some(&Json::Bool(true)) {
                    "  DISAGREES"
                } else {
                    ""
                };
                let _ = write!(
                    s,
                    "   {:.6} s (x{:.2}){flag}",
                    num(k, "median_s"),
                    num(k, "ratio")
                );
            }
            s.push('\n');
        }
        let covered: f64 = rows
            .iter()
            .map(|r| num(r, "share"))
            .filter(|x| x.is_finite())
            .sum();
        let _ = writeln!(
            s,
            "    {:<28} {:>42.1}%",
            "covered (budget.coverage)",
            100.0 * covered
        );
    }
    if let Some(phases) = detail
        .get("phases")
        .and_then(Json::as_arr)
        .filter(|p| !p.is_empty())
    {
        let _ = writeln!(
            s,
            "  phase share of the solve wall, measured (Timers) vs perfmodel (Maverick):"
        );
        for p in phases {
            let flag = if p.get("flag") == Some(&Json::Bool(true)) {
                "  DISAGREES"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "    {:<12} {:>6.1}% vs {:>6.1}%{flag}",
                p.get("phase").and_then(Json::as_str).unwrap_or("?"),
                100.0 * num(p, "measured_share"),
                100.0 * num(p, "modeled_share")
            );
        }
    }
    if let Some(failures) = detail.get("failures").and_then(Json::as_arr) {
        for f in failures {
            let _ = writeln!(s, "  FAILED: {}", f.as_str().unwrap_or("?"));
        }
    }
    let _ = writeln!(
        s,
        "  ops_attempted {}  ops_failed {}",
        num(detail, "attempted"),
        num(detail, "failed")
    );
    s
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--compare A.json B.json` over two `results.json` files: per workload and
/// end-to-end metric both values with the median and quartiles of their
/// repetitions, the ratio B/A with A as its base, and a verdict against the
/// metric's bound. Exact metrics and
/// counts must be identical. Returns whether the two sets agree.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.get("seed") != b.get("seed") {
        return Err("the two result sets were taken at different seeds".to_string());
    }
    let mut agree = true;
    println!("A = {}\nB = {}", a_path.display(), b_path.display());
    for (workload, _) in WORKLOADS {
        let side = |j: &Json, part: &str| -> Option<Json> {
            j.get("workloads")?
                .get(workload)?
                .get(part)?
                .get("metrics")
                .cloned()
        };
        let (Some(ea), Some(eb)) = (side(&a, "end_to_end"), side(&b, "end_to_end")) else {
            return Err(format!("{workload}: missing from one result set"));
        };
        println!("\n{workload}");
        println!(
            "  {:<14} {:>40} {:>40} {:>13}  verdict",
            "metric", "A value (median [q1, q3])", "B value (median [q1, q3])", "B/A (base A)"
        );
        for def in END_TO_END {
            let (ma, mb) = (ea.get(def.name), eb.get(def.name));
            let (Some(ma), Some(mb)) = (ma, mb) else {
                return Err(format!("{workload}: {} missing", def.name));
            };
            let (va, vb) = (num(ma, "value"), num(mb, "value"));
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            // Spread of the repetitions behind a value, as a share of their
            // median; a value without repetitions has none.
            let iqr = |m: &Json| {
                if m.get("n").is_some() {
                    (num(m, "q3") - num(m, "q1")) / num(m, "median")
                } else {
                    0.0
                }
            };
            let worse = match def.better {
                Better::Lower => vb / va - 1.0,
                Better::Higher => va / vb - 1.0,
            };
            let verdict = if def.exact {
                if va.to_bits() == vb.to_bits() {
                    "ok (identical)"
                } else {
                    "worse (must be identical)"
                }
            } else if worse.abs() <= bound {
                "ok"
            } else if iqr(ma).max(iqr(mb)) > bound {
                // The repetitions scatter by more than the bound, so a
                // difference this size cannot be told from noise.
                "unresolved"
            } else if worse > 0.0 {
                "worse"
            } else {
                "better"
            };
            // "better" beyond the bound also means the two sets disagree.
            agree &= verdict.starts_with("ok");
            let show = |m: &Json, v: f64| {
                if m.get("n").is_some() {
                    format!(
                        "{v:.5} ({:.5} [{:.5}, {:.5}])",
                        num(m, "median"),
                        num(m, "q1"),
                        num(m, "q3")
                    )
                } else {
                    format!("{v:.6}")
                }
            };
            println!(
                "  {:<14} {:>40} {:>40} {:>13.4}  {verdict} (bound {bound})",
                def.name,
                show(ma, va),
                show(mb, vb),
                vb / va
            );
        }
        let (Some(la), Some(lb)) = (side(&a, "per_layer"), side(&b, "per_layer")) else {
            return Err(format!(
                "{workload}: per-layer metrics missing from one result set"
            ));
        };
        let mut differing = Vec::new();
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let (va, vb) = (
                la.get(def.name).map(|m| num(m, "value")),
                lb.get(def.name).map(|m| num(m, "value")),
            );
            if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                differing.push(format!("{} ({va:?} vs {vb:?})", def.name));
            }
        }
        if differing.is_empty() {
            println!("  exact per-layer metrics and counts: identical");
        } else {
            agree = false;
            println!(
                "  exact per-layer metrics that DIFFER: {}",
                differing.join(", ")
            );
        }
    }
    println!(
        "\n{}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DO NOT agree"
        }
    );
    Ok(agree)
}
