//! What the numbers depend on besides the code: the host, the toolchain,
//! the load at start, and the process's own peak memory.

use std::process::Command;

use diffreg_telemetry::Json;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The 1-minute load average, if the platform exposes it.
pub fn load_average() -> Option<f64> {
    read("/proc/loadavg")
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Names of set `DIFFREG_*` variables: each switches a code path or a
/// telemetry plane, so numbers taken with one set compare with nothing.
pub fn diffreg_switches() -> Vec<String> {
    let mut keys: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DIFFREG_"))
        .collect();
    keys.sort();
    keys
}

/// HEAD of the work tree the benchmark runs from. Asked only when `.git` is
/// right here, so git never searches directories above the checkout.
fn git_commit() -> String {
    if std::path::Path::new(".git").exists() {
        first_line_of("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

/// The CPUs this process may run on.
fn cpus_allowed() -> String {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// Host fingerprint written into every result file.
pub fn fingerprint() -> Json {
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .set("nproc", nproc)
        .set("cpus_allowed", cpus_allowed())
        .set("cpu_model", cpu)
        .set("rustc", first_line_of("rustc", &["--version"]))
        .set("git_commit", git_commit())
        .set("load_avg_1m", load_average().map_or(Json::Null, Json::from))
}
