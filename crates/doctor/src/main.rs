//! `diffreg-doctor` — the cross-rank wait-state doctor CLI.
//!
//! Thin wrapper over `diffreg_telemetry::doctor`: loads a bundle directory
//! (written by a traced run via `doctor::write_trace_bundle`),
//! runs the merge/match/classify/critical-path analysis, writes
//! `doctor-report.txt` and `metrics.prom` back into the bundle directory,
//! and optionally hard-gates on analysis health.
//!
//! ```text
//! diffreg-doctor analyze --dir target/doctor-smoke [--top 10] [--grid 32]
//!                        [--gate] [--min-coverage 0.9]
//! diffreg-doctor incident --dir target/incidents/incident-000-watchdog-timeout
//!                         [--gate]
//! diffreg-doctor profile --dir target/doctor-smoke [--baseline OTHER_DIR] [--top 10]
//! ```
//!
//! With `--grid N` the report includes the paper's §III-C4 performance-model
//! prediction (Maverick machine constants) next to the measured
//! critical-path FFT/interp aggregates.

use std::process::ExitCode;

use diffreg_telemetry::doctor::{analyze, BundleError, DoctorInput};
use diffreg_telemetry::incident::{analyze_incident, gate_incident, load_incident_bundle};
use diffreg_telemetry::{diff_phases, render_diff, PredictedPhases, Profile};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("diffreg-doctor: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("incident") => cmd_incident(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

const USAGE: &str = "usage:
  diffreg-doctor analyze --dir <bundle-dir> [--top K] [--grid N] [--gate] [--min-coverage F]
  diffreg-doctor incident --dir <incident-bundle-dir> [--gate]
  diffreg-doctor profile --dir <bundle-dir> [--baseline <bundle-dir>] [--top K]

analyze reads a bundle (events-rank<k>.jsonl + recorder-rank<k>.jsonl
[+ metrics.json]; an incident bundle is one too), writes doctor-report.txt
and metrics.prom into the bundle directory, and prints the report. --gate
exits nonzero unless every p2p message matched, no collective group is
incomplete, and critical-path coverage meets --min-coverage (default 0.9).
--grid N adds the paper's performance-model predicted column for an N^3 grid.

incident reads one incident bundle written by the serve runtime
(incident.json + per-rank comm/recorder captures), verifies its content
digest, runs wait-state triage with culprit attribution, writes
incident-report.txt into the bundle directory, and prints the triage
summary. --gate additionally exits nonzero unless the digest matches, the
capture accounting is exact, and culprit-bearing triggers name a culprit.

profile folds the spans in a bundle's recorder-rank<k>.jsonl files (either
bundle flavour) into a flamegraph: writes profile.folded (count-weighted, the
replay-stable projection) and profile-selftime.folded (self-nanosecond
weights, for inferno/speedscope) into the bundle directory and prints the
top-K self-time table with dropped-span accounting. --baseline loads a
second bundle and prints the per-phase self-time regression ranking
(largest regression first), writing profile-diff.txt.";

struct AnalyzeOpts {
    dir: Option<String>,
    top: usize,
    grid: Option<usize>,
    gate: bool,
    min_coverage: f64,
}

fn parse_analyze(args: &[String]) -> Result<AnalyzeOpts, String> {
    let mut opts =
        AnalyzeOpts { dir: None, top: 10, grid: None, gate: false, min_coverage: 0.9 };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--dir" => opts.dir = Some(value("--dir")?.clone()),
            "--top" => {
                opts.top = value("--top")?
                    .parse()
                    .map_err(|_| "--top needs an integer".to_string())?;
            }
            "--grid" => {
                opts.grid = Some(
                    value("--grid")?
                        .parse()
                        .map_err(|_| "--grid needs an integer".to_string())?,
                );
            }
            "--gate" => opts.gate = true,
            "--min-coverage" => {
                opts.min_coverage = value("--min-coverage")?
                    .parse()
                    .map_err(|_| "--min-coverage needs a number".to_string())?;
            }
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let opts = parse_analyze(args)?;
    let dir = opts.dir.ok_or(format!("analyze needs --dir\n{USAGE}"))?;
    let report = analyze(&load_bundle(&dir)?);
    let predicted = opts.grid.map(|n| {
        let shape = diffreg_perfmodel::SolveShape::paper_scaling();
        let b = diffreg_perfmodel::model_solve(
            &diffreg_perfmodel::Machine::MAVERICK,
            [n, n, n],
            report.ranks.max(1),
            &shape,
        );
        PredictedPhases {
            fft_comm: b.fft_comm,
            fft_exec: b.fft_exec,
            interp_comm: b.interp_comm,
            interp_exec: b.interp_exec,
        }
    });
    let text = report.render(opts.top, predicted.as_ref());
    let prom = report.prometheus();
    let dir_path = std::path::Path::new(&dir);
    std::fs::write(dir_path.join("doctor-report.txt"), &text)
        .map_err(|e| format!("write doctor-report.txt: {e}"))?;
    std::fs::write(dir_path.join("metrics.prom"), &prom)
        .map_err(|e| format!("write metrics.prom: {e}"))?;
    print!("{text}");
    println!(
        "wrote {} and {}",
        dir_path.join("doctor-report.txt").display(),
        dir_path.join("metrics.prom").display()
    );
    if opts.gate {
        report.gate(opts.min_coverage).map_err(|e| format!("gate failed: {e}"))?;
        println!(
            "gate ok: {}/{} p2p matched, {} collectives complete, coverage {:.1}%",
            report.matched.len(),
            report.p2p_sends,
            report.collectives.len(),
            report.coverage * 100.0
        );
    }
    Ok(())
}

fn cmd_incident(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut gate = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = Some(it.next().ok_or("--dir needs a value")?.clone()),
            "--gate" => gate = true,
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let dir = dir.ok_or(format!("incident needs --dir\n{USAGE}"))?;
    // The typed load errors (missing bundle, truncated file) surface here
    // as the process's non-zero exit and pinned message.
    let bundle = load_incident_bundle(&dir).map_err(|e| e.to_string())?;
    let analysis = analyze_incident(&bundle);
    let dir_path = std::path::Path::new(&dir);
    std::fs::write(dir_path.join("incident-report.txt"), &analysis.summary)
        .map_err(|e| format!("write incident-report.txt: {e}"))?;
    print!("{}", analysis.summary);
    println!("wrote {}", dir_path.join("incident-report.txt").display());
    if gate {
        gate_incident(&bundle, &analysis).map_err(|e| format!("gate failed: {e}"))?;
        println!(
            "gate ok: digest {:016x} verified, {} comm events across {} rank(s), {} \
             convergence line(s)",
            bundle.header.capture_digest,
            bundle.header.comm_events,
            bundle.input.ranks.len(),
            bundle.convergence_lines
        );
    }
    Ok(())
}

/// Loads either bundle flavour through the one reader. A directory that is
/// missing or holds no capture files is the same mistake: wrong `--dir`.
fn load_bundle(dir: &str) -> Result<DoctorInput, String> {
    match DoctorInput::load_dir(dir) {
        Ok(input) if !input.ranks.is_empty() => Ok(input),
        Ok(_) | Err(BundleError::MissingBundle(_)) => Err(format!(
            "doctor: no events-rank<k>.jsonl or recorder-rank<k>.jsonl files in {dir}"
        )),
        Err(e) => Err(format!("doctor: {e}")),
    }
}

fn load_profile(dir: &str) -> Result<Profile, String> {
    let input = load_bundle(dir)?;
    Ok(Profile::from_recorders(input.ranks.iter().map(|c| (c.rank, &c.recorder))))
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut top = 10usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--dir" => dir = Some(value("--dir")?.clone()),
            "--baseline" => baseline = Some(value("--baseline")?.clone()),
            "--top" => {
                top = value("--top")?
                    .parse()
                    .map_err(|_| "--top needs an integer".to_string())?;
            }
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let dir = dir.ok_or(format!("profile needs --dir\n{USAGE}"))?;
    let prof = load_profile(&dir)?;
    let dir_path = std::path::Path::new(&dir);
    std::fs::write(dir_path.join("profile.folded"), prof.render_folded())
        .map_err(|e| format!("write profile.folded: {e}"))?;
    std::fs::write(dir_path.join("profile-selftime.folded"), prof.render_folded_self_ns())
        .map_err(|e| format!("write profile-selftime.folded: {e}"))?;
    print!("{}", prof.render_table(top));
    println!(
        "wrote {} and {}",
        dir_path.join("profile.folded").display(),
        dir_path.join("profile-selftime.folded").display()
    );
    if let Some(base_dir) = baseline {
        let base = load_profile(&base_dir)?;
        let deltas = diff_phases(&prof, &base);
        let text = render_diff(&deltas, top);
        std::fs::write(dir_path.join("profile-diff.txt"), &text)
            .map_err(|e| format!("write profile-diff.txt: {e}"))?;
        println!("differential vs {base_dir} (ranked by self-time regression):");
        print!("{text}");
        println!("wrote {}", dir_path.join("profile-diff.txt").display());
    }
    Ok(())
}
