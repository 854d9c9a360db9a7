//! The canonical benchmark-results schema shared by every bench binary and
//! the CI perf gate: a suite of named records (median / min / samples), with
//! host + git metadata, serialized through the in-tree [`Json`] value (no
//! serde). The gate compares two suites record-by-record and fails on a
//! regression of the fastest sample beyond a threshold.
//!
//! Each binary prints its human-readable table *and* writes a
//! machine-readable `results/<suite>.json` in this schema, so a table
//! regeneration run and a gate run are directly comparable.

use std::path::PathBuf;

use diffreg_telemetry::Json;

use crate::Row;

/// One named measurement: wall-clock samples plus optional free-form fields.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Record name (e.g. `"fft_fwd_32"`, `"table1/row3"`).
    pub name: String,
    /// Raw samples in seconds (one per repetition), in measurement order.
    pub samples_s: Vec<f64>,
    /// Extra scalar fields carried verbatim into the JSON (`"extra"` object).
    pub extra: Vec<(String, f64)>,
    /// Optional median-of-distribution percentile (seconds), e.g. from a
    /// `diffreg_telemetry::Histogram`. Carried through the JSON; the perf gate ignores
    /// it for pass/fail (medians of `samples_s` stay authoritative).
    pub p50_s: Option<f64>,
    /// Optional tail percentile (seconds); informational, never gated.
    pub p95_s: Option<f64>,
}

impl BenchRecord {
    /// A record from raw samples.
    pub fn new(name: impl Into<String>, samples_s: Vec<f64>) -> Self {
        Self { name: name.into(), samples_s, extra: Vec::new(), p50_s: None, p95_s: None }
    }

    /// Adds a named scalar to the `"extra"` block (builder-style).
    pub fn with_extra(mut self, key: impl Into<String>, value: f64) -> Self {
        self.extra.push((key.into(), value));
        self
    }

    /// Attaches distribution percentiles (builder-style). These ride along in
    /// the JSON for dashboards and the doctor; the gate never compares them.
    pub fn with_percentiles(mut self, p50_s: f64, p95_s: f64) -> Self {
        self.p50_s = Some(p50_s);
        self.p95_s = Some(p95_s);
        self
    }

    /// Median of the samples (0 when empty).
    pub fn median_s(&self) -> f64 {
        if self.samples_s.is_empty() {
            return 0.0;
        }
        let mut s = self.samples_s.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = s.len();
        if n % 2 == 1 {
            s[n / 2]
        } else {
            0.5 * (s[n / 2 - 1] + s[n / 2])
        }
    }

    /// Minimum sample (0 when empty).
    pub fn min_s(&self) -> f64 {
        if self.samples_s.is_empty() {
            return 0.0;
        }
        self.samples_s.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// A suite of benchmark records plus provenance metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSuite {
    /// Suite name (e.g. `"kernels"`, `"table1"`).
    pub suite: String,
    /// Hostname the suite ran on (medians are only comparable same-host).
    pub host: String,
    /// Records in emission order.
    pub records: Vec<BenchRecord>,
}

/// Best-effort hostname (env `HOSTNAME`, then `/etc/hostname`, else
/// `"unknown"`). Never fails.
pub fn hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.trim().is_empty() {
            return h.trim().to_string();
        }
    }
    if let Ok(h) = std::fs::read_to_string("/etc/hostname") {
        if !h.trim().is_empty() {
            return h.trim().to_string();
        }
    }
    "unknown".to_string()
}

impl BenchSuite {
    /// A new empty suite for this host.
    pub fn new(suite: impl Into<String>) -> Self {
        Self { suite: suite.into(), host: hostname(), records: Vec::new() }
    }

    /// Appends a record.
    pub fn push(&mut self, rec: BenchRecord) {
        self.records.push(rec);
    }

    /// Looks up a record by name.
    pub fn record(&self, name: &str) -> Option<&BenchRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// The suite as a JSON document.
    pub fn to_json(&self) -> Json {
        let records = Json::Arr(
            self.records
                .iter()
                .map(|r| {
                    let mut obj = Json::obj()
                        .set("name", r.name.as_str())
                        .set(
                            "samples_s",
                            Json::Arr(r.samples_s.iter().map(|&s| Json::from(s)).collect()),
                        )
                        .set("median_s", r.median_s())
                        .set("min_s", r.min_s());
                    if let Some(p) = r.p50_s {
                        obj = obj.set("p50_s", p);
                    }
                    if let Some(p) = r.p95_s {
                        obj = obj.set("p95_s", p);
                    }
                    if !r.extra.is_empty() {
                        let mut extra = Json::obj();
                        for (k, v) in &r.extra {
                            extra = extra.set(k.as_str(), *v);
                        }
                        obj = obj.set("extra", extra);
                    }
                    obj
                })
                .collect(),
        );
        Json::obj()
            .set("schema", "diffreg-bench-v1")
            .set("suite", self.suite.as_str())
            .set("host", self.host.as_str())
            .set("records", records)
    }

    /// Parses a suite previously produced by [`BenchSuite::to_json`].
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let suite = v
            .get("suite")
            .and_then(Json::as_str)
            .ok_or("missing \"suite\"")?
            .to_string();
        let host = v.get("host").and_then(Json::as_str).unwrap_or("unknown").to_string();
        let recs = v.get("records").and_then(Json::as_arr).ok_or("missing \"records\"")?;
        let mut records = Vec::new();
        for r in recs {
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or("record missing \"name\"")?
                .to_string();
            let samples = r
                .get("samples_s")
                .and_then(Json::as_arr)
                .ok_or("record missing \"samples_s\"")?
                .iter()
                .map(|s| s.as_f64().ok_or("non-numeric sample"))
                .collect::<Result<Vec<f64>, _>>()?;
            let mut rec = BenchRecord::new(name, samples);
            rec.p50_s = r.get("p50_s").and_then(Json::as_f64);
            rec.p95_s = r.get("p95_s").and_then(Json::as_f64);
            if let Some(Json::Obj(extra)) = r.get("extra") {
                for (k, v) in extra {
                    if let Some(x) = v.as_f64() {
                        rec.extra.push((k.clone(), x));
                    }
                }
            }
            records.push(rec);
        }
        Ok(Self { suite, host, records })
    }

    /// Writes the suite to `results/<suite>.json` under `dir` (parents
    /// created) and returns the path.
    pub fn write_results(&self, dir: impl AsRef<std::path::Path>) -> std::io::Result<std::path::PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.suite));
        std::fs::write(&path, format!("{}\n", self.to_json()))?;
        Ok(path)
    }
}

/// One per-record comparison outcome from [`compare_suites`].
#[derive(Debug, Clone, PartialEq)]
pub struct GateFinding {
    /// Record name.
    pub name: String,
    /// Baseline fastest sample in seconds.
    pub baseline_s: f64,
    /// Current fastest sample in seconds.
    pub current_s: f64,
    /// Relative change `(current - baseline) / baseline`.
    pub rel_change: f64,
    /// Whether the change exceeds the regression threshold.
    pub regressed: bool,
}

/// Outcome of comparing a current suite against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Regression threshold used (e.g. 0.25 = fail on >25% slower fastest sample).
    pub threshold: f64,
    /// Whether hosts matched (comparison is advisory when they differ).
    pub host_match: bool,
    /// Per-record findings for names present in both suites.
    pub findings: Vec<GateFinding>,
    /// Record names present in the baseline but missing from the current run.
    pub missing: Vec<String>,
}

impl GateReport {
    /// True when any common record regressed beyond the threshold or a
    /// baseline record is missing from the current run.
    pub fn failed(&self) -> bool {
        !self.missing.is_empty() || self.findings.iter().any(|f| f.regressed)
    }

    /// Human-readable gate summary (one line per record).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf gate (threshold {:.0}%{}):",
            self.threshold * 100.0,
            if self.host_match { "" } else { ", HOST MISMATCH - advisory only" }
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "  {:<24} baseline {:>10.3e}s current {:>10.3e}s {:>+7.1}% {}",
                f.name,
                f.baseline_s,
                f.current_s,
                f.rel_change * 100.0,
                if f.regressed { "REGRESSED" } else { "ok" }
            );
        }
        for m in &self.missing {
            let _ = writeln!(out, "  {m:<24} MISSING from current run");
        }
        let _ = writeln!(out, "  => {}", if self.failed() { "FAIL" } else { "PASS" });
        out
    }
}

/// Compares `current` against `baseline`: a record fails when its fastest
/// sample is more than `threshold` (relative) slower than the baseline's.
/// Interference on a shared host only ever adds time, so the fastest of K
/// repeats about twice as well as the median (`benchmark/README.md`,
/// "Noise"); the median stays in the file for reading. Records
/// only in `current` are ignored (new benches don't fail the gate); records
/// only in `baseline` are reported missing.
pub fn compare_suites(baseline: &BenchSuite, current: &BenchSuite, threshold: f64) -> GateReport {
    let mut findings = Vec::new();
    let mut missing = Vec::new();
    for b in &baseline.records {
        match current.record(&b.name) {
            Some(c) => {
                let (b_min, c_min) = (b.min_s(), c.min_s());
                let rel = if b_min > 0.0 { (c_min - b_min) / b_min } else { 0.0 };
                findings.push(GateFinding {
                    name: b.name.clone(),
                    baseline_s: b_min,
                    current_s: c_min,
                    rel_change: rel,
                    regressed: rel > threshold,
                });
            }
            None => missing.push(b.name.clone()),
        }
    }
    GateReport { threshold, host_match: baseline.host == current.host, findings, missing }
}

/// Directory that receives `<suite>.json` files. Override with the
/// `DIFFREG_RESULTS_DIR` environment variable (default `results/`).
pub fn results_dir() -> PathBuf {
    std::env::var("DIFFREG_RESULTS_DIR")
        .ok()
        .filter(|s| !s.trim().is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Converts one scaling-table [`Row`] into a [`BenchRecord`]. The single
/// sample is the time-to-solution; everything else the tables print rides
/// in the `extra` block so nothing is lost going table -> JSON.
pub fn row_record(name: impl Into<String>, row: &Row) -> BenchRecord {
    let mut rec = BenchRecord::new(name, vec![row.time_to_solution])
        .with_extra("nx", row.n[0] as f64)
        .with_extra("ny", row.n[1] as f64)
        .with_extra("nz", row.n[2] as f64)
        .with_extra("nodes", row.nodes as f64)
        .with_extra("tasks", row.tasks as f64)
        .with_extra("fft_comm", row.fft_comm)
        .with_extra("fft_exec", row.fft_exec)
        .with_extra("interp_comm", row.interp_comm)
        .with_extra("interp_exec", row.interp_exec)
        .with_extra("matvecs", row.matvecs as f64);
    if row.rel_mismatch.is_finite() {
        rec = rec.with_extra("rel_mismatch", row.rel_mismatch);
    }
    rec
}

/// Writes `suite` to [`results_dir()`]`/<suite>.json` and prints the path
/// (binaries call this last so the location is always visible). Errors are
/// reported but non-fatal: a read-only checkout must not break a table run.
pub fn write_suite(suite: &BenchSuite) -> Option<PathBuf> {
    match suite.write_results(results_dir()) {
        Ok(path) => {
            println!("\n[results] wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("[results] could not write {}.json: {e}", suite.suite);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(scale: f64) -> BenchSuite {
        let mut s = BenchSuite::new("kernels");
        s.host = "testhost".into();
        s.push(BenchRecord::new("fft_32", vec![1.0 * scale, 1.2 * scale, 0.9 * scale]));
        s.push(
            BenchRecord::new("interp_32", vec![2.0 * scale, 2.0 * scale])
                .with_extra("grid", 32.0),
        );
        s
    }

    #[test]
    fn median_is_order_independent() {
        let r = BenchRecord::new("x", vec![3.0, 1.0, 2.0]);
        assert_eq!(r.median_s(), 2.0);
        let even = BenchRecord::new("y", vec![4.0, 1.0]);
        assert_eq!(even.median_s(), 2.5);
        assert_eq!(BenchRecord::new("z", vec![]).median_s(), 0.0);
    }

    #[test]
    fn json_roundtrip_preserves_suite() {
        let s = suite(1.0);
        let text = s.to_json().to_string();
        let back = BenchSuite::from_json_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.record("interp_32").unwrap().extra, vec![("grid".to_string(), 32.0)]);
    }

    #[test]
    fn percentiles_roundtrip_and_never_gate() {
        let mut s = suite(1.0);
        s.push(
            BenchRecord::new("newton_32", vec![5.0, 5.1, 4.9]).with_percentiles(5.0, 5.1),
        );
        let back = BenchSuite::from_json_str(&s.to_json().to_string()).unwrap();
        assert_eq!(back, s);
        let r = back.record("newton_32").unwrap();
        assert_eq!((r.p50_s, r.p95_s), (Some(5.0), Some(5.1)));
        // Records without percentiles stay None after the round trip.
        assert_eq!(back.record("fft_32").unwrap().p50_s, None);
        // A wildly worse tail percentile alone must not fail the gate.
        let mut cur = s.clone();
        for r in &mut cur.records {
            if let Some(p) = r.p95_s.as_mut() {
                *p *= 100.0;
            }
        }
        let rep = compare_suites(&s, &cur, 0.25);
        assert!(!rep.failed(), "{}", rep.render());
    }

    #[test]
    fn gate_passes_identical_and_fails_30pct() {
        let base = suite(1.0);
        let same = compare_suites(&base, &suite(1.0), 0.25);
        assert!(!same.failed(), "{}", same.render());
        let slow = compare_suites(&base, &suite(1.3), 0.25);
        assert!(slow.failed(), "{}", slow.render());
        assert!(slow.findings.iter().all(|f| f.regressed));
        // Faster runs never fail.
        let fast = compare_suites(&base, &suite(0.5), 0.25);
        assert!(!fast.failed());
    }

    #[test]
    fn gate_reports_missing_records() {
        let base = suite(1.0);
        let mut cur = suite(1.0);
        cur.records.retain(|r| r.name != "fft_32");
        let rep = compare_suites(&base, &cur, 0.25);
        assert!(rep.failed());
        assert_eq!(rep.missing, vec!["fft_32".to_string()]);
        assert!(rep.render().contains("MISSING"), "{}", rep.render());
    }

    #[test]
    fn host_mismatch_is_flagged() {
        let base = suite(1.0);
        let mut cur = suite(1.3);
        cur.host = "otherhost".into();
        let rep = compare_suites(&base, &cur, 0.25);
        assert!(!rep.host_match);
        assert!(rep.render().contains("HOST MISMATCH"), "{}", rep.render());
    }

    fn sample_row() -> Row {
        Row {
            n: [16, 20, 16],
            nodes: 1,
            tasks: 4,
            time_to_solution: 2.5,
            fft_comm: 0.5,
            fft_exec: 0.75,
            interp_comm: 0.25,
            interp_exec: 1.0,
            matvecs: 12,
            rel_mismatch: 0.07,
        }
    }

    #[test]
    fn row_record_carries_all_table_columns() {
        let rec = row_record("measured/16x20x16/p4", &sample_row());
        assert_eq!(rec.samples_s, vec![2.5]);
        assert_eq!(rec.median_s(), 2.5);
        let get = |k: &str| {
            rec.extra
                .iter()
                .find(|(key, _)| key == k)
                .unwrap_or_else(|| panic!("missing extra {k}"))
                .1
        };
        assert_eq!(get("tasks"), 4.0);
        assert_eq!(get("ny"), 20.0);
        assert_eq!(get("fft_comm"), 0.5);
        assert_eq!(get("matvecs"), 12.0);
        assert_eq!(get("rel_mismatch"), 0.07);
    }

    #[test]
    fn modeled_rows_drop_nan_mismatch() {
        let mut row = sample_row();
        row.rel_mismatch = f64::NAN;
        let rec = row_record("modeled/x", &row);
        assert!(rec.extra.iter().all(|(k, _)| k != "rel_mismatch"));
        // NaN never reaches the JSON layer (which would render it null).
        let mut suite = BenchSuite::new("t");
        suite.push(rec);
        assert!(!suite.to_json().to_string().contains("null"));
    }

    #[test]
    fn results_dir_honors_env_override() {
        // Serialize with other env-reading tests via a unique var; set/unset
        // in one test to avoid cross-test races.
        std::env::set_var("DIFFREG_RESULTS_DIR", "/tmp/diffreg-results-test");
        assert_eq!(results_dir(), PathBuf::from("/tmp/diffreg-results-test"));
        std::env::remove_var("DIFFREG_RESULTS_DIR");
        assert_eq!(results_dir(), PathBuf::from("results"));
    }

    #[test]
    fn suite_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("diffreg-bench-results-{}", std::process::id()));
        let mut suite = BenchSuite::new("unit");
        suite.push(row_record("measured/row", &sample_row()));
        let path = suite.write_results(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut back = BenchSuite::from_json_str(&text).unwrap();
        // JSON objects are key-sorted, so `extra` comes back ordered:
        // compare order-insensitively.
        for rec in back.records.iter_mut().chain(suite.records.iter_mut()) {
            rec.extra.sort_by(|a, b| a.0.cmp(&b.0));
        }
        assert_eq!(back, suite);
        std::fs::remove_dir_all(&dir).ok();
    }
}
