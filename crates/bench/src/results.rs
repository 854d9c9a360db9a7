//! The canonical benchmark-results schema shared by every bench binary: a
//! suite of named records (median / min / samples), with host metadata,
//! serialized through the in-tree [`Json`] value (no serde).
//!
//! Each binary prints its human-readable table *and* writes a
//! machine-readable `results/<suite>.json` in this schema, so a table
//! regeneration run can be re-plotted or diffed without scraping stdout.

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
    /// How the measured run ended (a solver status such as `Converged`),
    /// the JSON's `"status"` when set.
    pub status: Option<String>,
}

impl BenchRecord {
    /// A record from raw samples.
    pub fn new(name: impl Into<String>, samples_s: Vec<f64>) -> Self {
        Self { name: name.into(), samples_s, extra: Vec::new(), status: None }
    }

    /// Adds a named scalar to the `"extra"` block (builder-style).
    pub fn with_extra(mut self, key: impl Into<String>, value: f64) -> Self {
        self.extra.push((key.into(), value));
        self
    }

    /// Records how the measured run ended (builder-style).
    pub fn with_status(mut self, status: impl Into<String>) -> Self {
        self.status = Some(status.into());
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
                    if let Some(status) = &r.status {
                        obj = obj.set("status", status.as_str());
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

    #[test]
    fn median_is_order_independent() {
        let r = BenchRecord::new("x", vec![3.0, 1.0, 2.0]);
        assert_eq!(r.median_s(), 2.0);
        let even = BenchRecord::new("y", vec![4.0, 1.0]);
        assert_eq!(even.median_s(), 2.5);
        assert_eq!(BenchRecord::new("z", vec![]).median_s(), 0.0);
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
        suite.push(BenchRecord::new("beta/1E-5", vec![0.5]).with_status("MaxIterations"));
        let path = suite.write_results(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, suite.to_json());
        let records = back.get("records").and_then(Json::as_arr).unwrap();
        assert_eq!(records[0].get("status"), None);
        assert_eq!(records[1].get("status").and_then(Json::as_str), Some("MaxIterations"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
