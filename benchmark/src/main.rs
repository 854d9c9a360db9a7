//! The repo benchmark. `--workload W --seed N --seconds S --trace 0|1` runs
//! one workload in this process and prints the result as the last line of
//! standard output; without `--workload` every workload runs, untraced then
//! traced, each in a child process of its own. See README.md.

mod host;
mod metrics;
mod replay;
mod report;
mod serve;
mod solve;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};

use diffreg_telemetry::Json;

use metrics::{RUN_SECONDS, WORKLOADS};
use workloads::RunOpts;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--out DIR] [--smoke]
       run.sh --compare A.json B.json
       run.sh --emit-manifest

Without --workload, runs all four workloads (untraced, then traced), prints
every metric, and writes DIR/results.json and DIR/trace-<workload>.json.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
    corrupt_digest: bool,
    /// Set by `run_all` on the processes it starts.
    child: bool,
    compare: Option<(PathBuf, PathBuf)>,
    emit_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        smoke: false,
        corrupt_digest: false,
        child: false,
        compare: None,
        emit_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--smoke" => a.smoke = true,
            "--corrupt-digest" => a.corrupt_digest = true,
            "--child" => a.child = true,
            "--compare" => {
                a.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ))
            }
            "--emit-manifest" => a.emit_manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// The planned kills of `serve_batch` unwind through `panic!`; the default
/// hook would print each as if something had gone wrong. Silence exactly
/// those, and for each the one gang peer that then finds its partner gone.
/// Every other panic prints as usual.
fn quiet_planned_kills() {
    static PEER_CASCADES_DUE: AtomicUsize = AtomicUsize::new(0);
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&'static str>().copied())
            .unwrap_or("");
        if msg.starts_with("chaos: injected kill") {
            PEER_CASCADES_DUE.fetch_add(1, Ordering::SeqCst);
            return;
        }
        if msg.contains("is gone (its thread panicked")
            && PEER_CASCADES_DUE
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            return;
        }
        default(info);
    }));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(why) => {
                eprintln!("error: {why}");
                ExitCode::from(2)
            }
        };
    }
    let switches = host::diffreg_switches();
    if !switches.is_empty() {
        eprintln!(
            "error: {} set; each DIFFREG_* variable switches a code path, so the numbers \
             would compare with nothing. Unset them and run again.",
            switches.join(", ")
        );
        return ExitCode::from(2);
    }
    // A child starts right after its sibling: its load is the benchmark's own.
    if let Some(load) = host::load_average().filter(|l| *l > 0.5 && !args.child) {
        eprintln!("warning: 1-minute load average is {load:.2}; timings will be noisy");
    }
    let ok = match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One workload in this process. The human-readable table goes to standard
/// error; standard output carries the one result line the contract asks for.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    quiet_planned_kills();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let scratch = Scratch(args.out.join(format!("scratch-{}", std::process::id())));
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        corrupt_digest: args.corrupt_digest,
        scratch: scratch.0.clone(),
    };
    let outcome = workloads::run(workload, &opts);
    drop(scratch);
    let detail = report::detail(workload, args.seed, &opts, &outcome);
    eprint!("{}", report::render(workload, &detail));
    let stem = format!("{workload}-trace{}", u8::from(args.trace));
    write(&args.out.join(format!("{stem}.json")), &detail)?;
    if args.trace {
        let trace = Json::obj()
            .set("workload", workload)
            .set("seed", args.seed)
            .set("spans", trace::spans_json(&outcome.spans));
        write(&args.out.join(format!("trace-{workload}.json")), &trace)?;
    }
    println!("{}", report::contract_line(&detail));
    Ok(outcome.failures.is_empty())
}

fn write(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, untraced then traced, each in a fresh child process so
/// that set-up time and peak memory are the workload's own and thread-local
/// arenas start cold.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut ok = true;
    let mut per_workload = Json::obj();
    for (workload, _) in WORKLOADS {
        let mut runs = Json::obj();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .arg("--out")
                .arg(&args.out);
            cmd.arg("--child");
            if args.smoke {
                cmd.arg("--smoke");
            }
            if args.corrupt_digest {
                cmd.arg("--corrupt-digest");
            }
            // The child's table (stderr) passes through; its result line is
            // re-read from the detail file it wrote.
            let status = cmd
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawn: {e}"))?;
            ok &= status.success();
            let path = args
                .out
                .join(format!("{workload}-trace{}.json", u8::from(trace)));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let detail = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            runs = runs.set(if trace { "per_layer" } else { "end_to_end" }, detail);
        }
        // Same seed, same program: the traced and the untraced process must
        // have produced the same velocity.
        let digest = |k: &str| runs.get(k).and_then(|d| d.get("digest")).cloned();
        if digest("end_to_end") != digest("per_layer") {
            eprintln!(
                "FAILED {workload}: traced and untraced runs disagree on the velocity digest"
            );
            ok = false;
        }
        per_workload = per_workload.set(workload, runs);
    }
    let results = Json::obj()
        .set("schema", "diffreg-benchmark-v1")
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("smoke", args.smoke)
        .set("host", host::fingerprint())
        .set("workloads", per_workload);
    let path = args.out.join("results.json");
    write(&path, &results)?;
    eprintln!(
        "\nwrote {}; {}",
        path.display(),
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}
