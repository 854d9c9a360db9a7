//! Runs the benchmark binary in `--smoke` mode (tiny grids, one repetition)
//! and checks what it emits against `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use diffreg_telemetry::Json;

const BIN: &str = env!("CARGO_BIN_EXE_diffreg-benchmark");

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn bench(args: &[&str], out: &Path) -> Output {
    Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(out)
        .env_remove("DIFFREG_TRACE")
        .output()
        .expect("benchmark binary runs")
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn manifest() -> Json {
    load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(obj: &Json) -> BTreeSet<String> {
    match obj {
        Json::Obj(m) => m.keys().cloned().collect(),
        other => panic!("not an object: {other}"),
    }
}

/// `workloads.<w>.<part>.metrics` of a `results.json`.
fn metrics<'a>(results: &'a Json, workload: &str, part: &str) -> &'a Json {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(part))
        .and_then(|p| p.get("metrics"))
        .unwrap_or_else(|| panic!("{workload}.{part}.metrics missing"))
}

fn value(metrics: &Json, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let generated = Command::new(BIN)
        .arg("--emit-manifest")
        .output()
        .expect("binary runs");
    assert!(generated.status.success());
    let committed =
        std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&generated.stdout),
        String::from_utf8_lossy(&committed)
    );
}

#[test]
fn smoke_runs_emit_every_metric_once_and_repeat_exactly() {
    let m = manifest();
    let (e2e, per_layer) = (
        names(m.get("end_to_end").unwrap()),
        names(m.get("per_layer").unwrap()),
    );
    for name in e2e
        .iter()
        .chain(&per_layer)
        .chain(&names(m.get("workloads").unwrap()))
    {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {name:?}"
        );
    }
    let unique: BTreeSet<&String> = e2e.iter().chain(&per_layer).collect();
    assert_eq!(
        unique.len(),
        e2e.len() + per_layer.len(),
        "a metric name is used twice"
    );

    let runs: Vec<Json> = ["smoke-a", "smoke-b"]
        .iter()
        .map(|dir| {
            let out = out_dir(dir);
            let run = bench(&["--smoke", "--seed", "3"], &out);
            assert!(
                run.status.success(),
                "smoke run failed:\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            load(&out.join("results.json"))
        })
        .collect();

    for workload in names(m.get("workloads").unwrap()) {
        for (part, expected) in [("end_to_end", &e2e), ("per_layer", &per_layer)] {
            let (a, b) = (
                metrics(&runs[0], &workload, part),
                metrics(&runs[1], &workload, part),
            );
            // A JSON object holds a key once, so equal key sets mean every
            // metric was emitted exactly once and nothing else was.
            let want: BTreeSet<String> = expected.iter().cloned().collect();
            assert_eq!(keys(a), want, "{workload} {part}");
            for name in expected {
                let exact = a.get(name).and_then(|x| x.get("exact")) == Some(&Json::Bool(true));
                if exact {
                    assert_eq!(
                        value(a, name).to_bits(),
                        value(b, name).to_bits(),
                        "{workload}: exact metric {name} differs between two runs at one seed"
                    );
                }
            }
        }
        for name in e2e.iter() {
            let v = value(metrics(&runs[0], &workload, "end_to_end"), name);
            assert!(
                v.is_finite() && v > 0.0,
                "{workload}: end-to-end metric {name} = {v}"
            );
        }
        let layers = metrics(&runs[0], &workload, "per_layer");
        let comm: Vec<f64> = [
            "comm.msgs_sent_max",
            "comm.bytes_sent_max",
            "comm.bytes_sent_total",
            "comm.modeled_s",
        ]
        .iter()
        .map(|n| value(layers, n))
        .collect();
        match workload.as_str() {
            "synth64_p2" => assert!(
                comm.iter().all(|&c| c > 0.0),
                "two ranks must communicate: {comm:?}"
            ),
            // serve_batch's solver layers are traced on a gang-1 job.
            _ => assert!(
                comm.iter().all(|&c| c == 0.0),
                "{workload}: one rank must not communicate: {comm:?}"
            ),
        }
    }
    let serve = metrics(&runs[0], "serve_batch", "per_layer");
    assert_eq!(
        value(serve, "serve.jobs_recovered"),
        1.0,
        "the smoke batch plans one kill"
    );
    assert!(value(serve, "serve.rounds") > 0.0);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    for trace in ["0", "1"] {
        let run = bench(
            &["--smoke", "--workload", "brain_aniso", "--trace", trace],
            &out_dir("line"),
        );
        assert!(run.status.success());
        let stdout = String::from_utf8_lossy(&run.stdout);
        let line = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
        let want: BTreeSet<String> = ["correct", "attempted", "failed", "metrics"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(keys(&line), want);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        for m in match line.get("metrics") {
            Some(Json::Obj(m)) => m.values(),
            _ => panic!("metrics is not an object"),
        } {
            assert_eq!(
                keys(m),
                ["unit", "value"].iter().map(|s| s.to_string()).collect()
            );
        }
    }
}

#[test]
fn corrupted_digest_fails_the_run() {
    for workload in ["synth32", "serve_batch"] {
        let run = bench(
            &["--smoke", "--workload", workload, "--corrupt-digest"],
            &out_dir("corrupt"),
        );
        assert_eq!(
            run.status.code(),
            Some(1),
            "{workload} must fail on a digest mismatch"
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        let line = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert!(line.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}

#[test]
fn refuses_to_run_with_a_diffreg_switch_set() {
    let run = Command::new(BIN)
        .args(["--smoke", "--workload", "synth32"])
        .env("DIFFREG_INTERP", "scalar")
        .output()
        .expect("binary runs");
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty(), "no result line when refusing");
    assert!(String::from_utf8_lossy(&run.stderr).contains("DIFFREG_INTERP"));
}
