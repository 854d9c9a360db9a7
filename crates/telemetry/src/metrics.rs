//! Metrics registry: named counters, gauges, and log₂-bucketed histograms
//! with a deterministic Prometheus text-exposition renderer.
//!
//! A registry is an export type, not a probe: the doctor report (see
//! [`crate::doctor`]) derives comm-op latencies and span counts into
//! [`Histogram`]s from a capture and snapshots the whole registry to a
//! `metrics.prom` file, and the serve dashboard renders one on `/metrics`. Everything here is exact
//! integer/bit arithmetic on top of IEEE doubles — no platform-dependent
//! float formatting, no hashing — so two runs over the same inputs render
//! byte-identical output.
//!
//! ## Bucketing scheme
//!
//! A histogram has [`NUM_BUCKETS`] = 128 buckets spanning `[2⁻⁶⁴, 2⁶⁴)`:
//! bucket `i` covers `[2^(i-64), 2^(i-63))`. The bucket index of a value is
//! read straight off its IEEE-754 exponent bits (one shift and a mask), so
//! bucketing is exact and identical on every platform. Values at or below
//! the bottom edge (including zero and negatives) land in bucket 0; values
//! at or above the top edge land in the last bucket.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;

/// Number of log₂ buckets per histogram.
pub const NUM_BUCKETS: usize = 128;

/// Exponent of the lower edge of bucket 0 (`2^BOTTOM_EXP`).
const BOTTOM_EXP: i32 = -64;

/// A fixed-size log₂-bucket histogram with exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; NUM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index a value falls into.
    ///
    /// Reads the unbiased binary exponent from the bit pattern: for finite
    /// positive `v`, `v ∈ [2^e, 2^(e+1))` where `e = biased_exp - 1023`,
    /// and the bucket is `e - BOTTOM_EXP` clamped into range. Zero,
    /// negatives, and subnormals clamp to bucket 0; overflow and +∞ clamp
    /// to the last bucket.
    pub fn bucket_index(v: f64) -> usize {
        if v <= 0.0 || v.is_nan() {
            return 0; // zero, negative, or NaN
        }
        let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
        if biased == 0 {
            return 0; // subnormal: below 2^-1022, far below the bottom edge
        }
        let e = biased - 1023; // v in [2^e, 2^(e+1))
        (e - BOTTOM_EXP).clamp(0, NUM_BUCKETS as i32 - 1) as usize
    }

    /// The upper (exclusive) edge of bucket `i`, `2^(i + BOTTOM_EXP + 1)`.
    pub fn bucket_upper_edge(i: usize) -> f64 {
        pow2(i as i32 + BOTTOM_EXP + 1)
    }

    /// The lower (inclusive) edge of bucket `i` (0.0 for bucket 0, since it
    /// also absorbs everything below the nominal `2^-64` edge).
    pub fn bucket_lower_edge(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            pow2(i as i32 + BOTTOM_EXP)
        }
    }

    /// Records one observation. NaN is ignored.
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.counts
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), estimated by a cumulative walk over
    /// the buckets with linear interpolation inside the target bucket, then
    /// clamped to the exact observed `[min, max]`. Deterministic: pure
    /// integer walk plus one division. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        // 1-based rank of the target observation.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lo = Self::bucket_lower_edge(i);
                let hi = Self::bucket_upper_edge(i);
                let frac = (rank - cum) as f64 / c as f64;
                let v = lo + (hi - lo) * frac;
                return Some(v.clamp(self.min, self.max));
            }
            cum += c;
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// JSON snapshot: sparse `[[bucket, count], …]` plus the scalars.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::from(i), Json::from(c)]))
            .collect();
        let mut j = Json::obj()
            .set("buckets", Json::Arr(buckets))
            .set("count", self.count)
            .set("sum", self.sum);
        if self.count > 0 {
            j = j.set("min", self.min).set("max", self.max);
        }
        j
    }

    /// Rebuilds a histogram from [`Histogram::to_json`] output.
    pub fn from_json(j: &Json) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        let buckets = j
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram: missing 'buckets' array")?;
        for entry in buckets {
            let pair = entry.as_arr().ok_or("histogram: bucket entry not a pair")?;
            if pair.len() != 2 {
                return Err("histogram: bucket entry not a pair".into());
            }
            let i = pair[0].as_u64().ok_or("histogram: bad bucket index")?;
            let c = pair[1].as_u64().ok_or("histogram: bad bucket count")?;
            if i >= NUM_BUCKETS as u64 {
                return Err(format!("histogram: bucket index {i} out of range"));
            }
            h.counts[i as usize] = c;
        }
        h.count = j.uint("count").map_err(|e| format!("histogram: {e}"))?;
        h.sum = j.get("sum").and_then(Json::as_f64).ok_or("histogram: missing 'sum'")?;
        if h.count > 0 {
            h.min = j.get("min").and_then(Json::as_f64).ok_or("histogram: missing 'min'")?;
            h.max = j.get("max").and_then(Json::as_f64).ok_or("histogram: missing 'max'")?;
        }
        Ok(h)
    }
}

/// `2^e` as an exact double (valid for `|e| ≤ 1023`).
fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// A named collection of counters, gauges, and histograms.
///
/// Metric names follow Prometheus conventions and may carry a label set in
/// braces, e.g. `diffreg_comm_op_seconds{op="send"}`. The renderer splits
/// the label block so histogram `le` labels merge inside it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name` (creating it at zero).
    pub fn inc_counter(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records one observation into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms.entry(name.to_string()).or_default().observe(v);
    }

    /// Counter value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when no metric of any kind has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another registry into this one (counters add, gauges take the
    /// other's value, histograms merge bucketwise).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Renders the registry in Prometheus text exposition format.
    ///
    /// Deterministic: metrics sort by name, histogram buckets emit in index
    /// order covering exactly the non-empty range, and every number prints
    /// through the same fixed formatter. Histograms additionally export
    /// `_sum`, `_count`, and precomputed `_p50`/`_p95`/`_p99` gauges (the
    /// quantiles Prometheus itself would derive from the buckets, exported
    /// directly so the snapshot is self-contained).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let (base, _) = split_labels(name);
            let _ = writeln!(out, "# TYPE {base} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let (base, _) = split_labels(name);
            let _ = writeln!(out, "# TYPE {base} gauge");
            let _ = writeln!(out, "{name} {}", fmt_num(*v));
        }
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            let _ = writeln!(out, "# TYPE {base} histogram");
            if h.count() > 0 {
                let lo_bucket = Histogram::bucket_index(h.min);
                let hi_bucket = Histogram::bucket_index(h.max);
                let mut cum = 0u64;
                for i in lo_bucket..=hi_bucket {
                    cum += h.counts[i];
                    let le = fmt_num(Histogram::bucket_upper_edge(i));
                    let _ = writeln!(
                        out,
                        "{base}_bucket{{{}le=\"{le}\"}} {cum}",
                        label_prefix(labels)
                    );
                }
            }
            let _ = writeln!(
                out,
                "{base}_bucket{{{}le=\"+Inf\"}} {}",
                label_prefix(labels),
                h.count()
            );
            let _ =
                writeln!(out, "{base}_sum{} {}", labels_or_empty(labels), fmt_num(h.sum()));
            let _ = writeln!(out, "{base}_count{} {}", labels_or_empty(labels), h.count());
            for (tag, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                if let Some(v) = h.percentile(q) {
                    let _ = writeln!(
                        out,
                        "{base}_{tag}{} {}",
                        labels_or_empty(labels),
                        fmt_num(v)
                    );
                }
            }
        }
        out
    }

    /// JSON snapshot of the whole registry.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters = counters.set(k, *v);
        }
        let mut gauges = Json::obj();
        for (k, v) in &self.gauges {
            gauges = gauges.set(k, *v);
        }
        let mut hists = Json::obj();
        for (k, h) in &self.histograms {
            hists = hists.set(k, h.to_json());
        }
        Json::obj()
            .set("schema", "diffreg-metrics-v1")
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", hists)
    }

    /// Rebuilds a registry from [`MetricsRegistry::to_json`] output.
    pub fn from_json(j: &Json) -> Result<MetricsRegistry, String> {
        if j.get("schema").and_then(Json::as_str) != Some("diffreg-metrics-v1") {
            return Err("metrics: missing/unknown schema tag".into());
        }
        let mut reg = MetricsRegistry::new();
        if let Some(Json::Obj(m)) = j.get("counters") {
            for (k, v) in m {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("metrics: counter '{k}' not an exact unsigned integer"))?;
                reg.counters.insert(k.clone(), v);
            }
        }
        if let Some(Json::Obj(m)) = j.get("gauges") {
            for (k, v) in m {
                let v = v.as_f64().ok_or_else(|| format!("metrics: gauge '{k}' not a number"))?;
                reg.gauges.insert(k.clone(), v);
            }
        }
        if let Some(Json::Obj(m)) = j.get("histograms") {
            for (k, v) in m {
                reg.histograms.insert(k.clone(), Histogram::from_json(v)?);
            }
        }
        Ok(reg)
    }
}

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash → `\\`, double quote → `\"`, newline → `\n`. Callers embed
/// label blocks directly in metric names (`name{tenant="..."}`), so any
/// untrusted value (tenant ids, reasons) must pass through here before
/// being quoted.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Splits `name{label="x"}` into `("name", "label=\"x\"")`; the label part
/// is empty when the name carries no braces.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => {
            let inner = name[i..].trim_start_matches('{').trim_end_matches('}');
            (&name[..i], inner)
        }
        None => (name, ""),
    }
}

/// `labels` followed by a comma when non-empty (for merging `le` into the
/// brace block).
fn label_prefix(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    }
}

/// `{labels}` with braces when non-empty, nothing otherwise.
fn labels_or_empty(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// Fixed numeric formatting for the Prometheus snapshot: integral values
/// print without a fraction; everything else uses Rust's shortest
/// round-trip float formatting (deterministic across platforms).
#[expect(clippy::float_cmp, reason = "exact integrality test: v == trunc(v) only for whole numbers")]
fn fmt_num(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket indices and counts, the total count and counters must be
    /// exact unsigned integers: `-1`, `1.5` and `1e300` are refused, not
    /// read as 0, 1 and `u64::MAX`.
    #[test]
    fn from_json_rejects_inexact_integers() {
        let doc = |counter: &str, index: &str, bucket: &str, count: &str| {
            let h = format!(r#"{{"buckets":[[{index},{bucket}]],"count":{count},"sum":1,"min":1,"max":1}}"#);
            let schema = r#""schema":"diffreg-metrics-v1""#;
            let text = format!(r#"{{{schema},"counters":{{"jobs":{counter}}},"histograms":{{"h":{h}}}}}"#);
            MetricsRegistry::from_json(&Json::parse(&text).unwrap())
        };
        assert_eq!(doc("7", "3", "1", "1").unwrap().counter("jobs"), Some(7));
        for bad in ["-1", "1.5", "1e300"] {
            for (got, want) in [
                (doc(bad, "3", "1", "1"), "counter 'jobs'"),
                (doc("7", bad, "1", "1"), "bucket index"),
                (doc("7", "3", bad, "1"), "bucket count"),
                (doc("7", "3", "1", bad), "histogram: count is not"),
            ] {
                let err = got.unwrap_err();
                assert!(err.contains(want), "{want}={bad}: {err}");
            }
        }
    }

    #[test]
    fn bucket_index_matches_exponent() {
        assert_eq!(Histogram::bucket_index(1.0), 64); // [2^0, 2^1)
        assert_eq!(Histogram::bucket_index(1.5), 64);
        assert_eq!(Histogram::bucket_index(2.0), 65);
        assert_eq!(Histogram::bucket_index(0.5), 63);
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-3.0), 0);
        assert_eq!(Histogram::bucket_index(f64::MAX), NUM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(1e-300), 0);
        // Edges are exact: 2^(i-64) is the first value of bucket i.
        for i in [0usize, 1, 63, 64, 100, 127] {
            let lo = pow2(i as i32 + BOTTOM_EXP);
            assert_eq!(Histogram::bucket_index(lo), i, "lower edge of bucket {i}");
        }
    }

    #[test]
    fn percentiles_interpolate_and_clamp() {
        let mut h = Histogram::new();
        for v in [1.0, 1.0, 1.0, 1.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 104.0);
        let p50 = h.percentile(0.5).unwrap();
        assert!((1.0..2.0).contains(&p50), "p50 {p50} inside [2^0, 2^1)");
        let p99 = h.percentile(0.99).unwrap();
        assert!(p99 <= 100.0, "p99 {p99} clamped to observed max");
        assert!(p99 > 50.0, "p99 {p99} lands in the top bucket");
        assert_eq!(h.percentile(0.0).unwrap(), 1.0, "q=0 clamps to min");
        assert_eq!(h.percentile(1.0).unwrap(), 100.0, "q=1 clamps to max");
        assert!(Histogram::new().percentile(0.5).is_none());
    }

    #[test]
    fn merge_is_bucketwise() {
        let mut a = Histogram::new();
        a.observe(1.0);
        a.observe(4.0);
        let mut b = Histogram::new();
        b.observe(0.25);
        b.observe(1.0);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min().unwrap(), 0.25);
        assert_eq!(a.max().unwrap(), 4.0);
        assert_eq!(a.buckets()[Histogram::bucket_index(1.0)], 2);
    }

    #[test]
    fn histogram_json_roundtrip() {
        let mut h = Histogram::new();
        for v in [0.001, 0.5, 1.0, 2.0, 1e6] {
            h.observe(v);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        // Empty histograms round-trip too.
        let e = Histogram::new();
        assert_eq!(Histogram::from_json(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn registry_roundtrip_and_merge() {
        let mut r = MetricsRegistry::new();
        r.inc_counter("diffreg_sends_total", 3);
        r.set_gauge("diffreg_ranks", 4.0);
        r.observe("diffreg_op_seconds{op=\"send\"}", 0.25);
        r.observe("diffreg_op_seconds{op=\"send\"}", 0.5);
        let back = MetricsRegistry::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);

        let mut other = MetricsRegistry::new();
        other.inc_counter("diffreg_sends_total", 2);
        other.observe("diffreg_op_seconds{op=\"send\"}", 1.0);
        r.merge(&other);
        assert_eq!(r.counter("diffreg_sends_total"), Some(5));
        assert_eq!(r.histogram("diffreg_op_seconds{op=\"send\"}").unwrap().count(), 3);
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_labeled() {
        let mut r = MetricsRegistry::new();
        r.inc_counter("diffreg_msgs_total{op=\"send\"}", 7);
        r.set_gauge("diffreg_wall_seconds", 1.5);
        r.observe("diffreg_lat_seconds{op=\"recv\"}", 0.25);
        r.observe("diffreg_lat_seconds{op=\"recv\"}", 0.5);
        r.observe("diffreg_lat_seconds{op=\"recv\"}", 0.5);
        let a = r.render_prometheus();
        let b = r.render_prometheus();
        assert_eq!(a, b, "rendering must be a pure function of the registry");
        assert!(a.contains("# TYPE diffreg_lat_seconds histogram"), "{a}");
        // `le` merges inside the existing label block, cumulative counts.
        assert!(a.contains("diffreg_lat_seconds_bucket{op=\"recv\",le=\"0.5\"} 1"), "{a}");
        assert!(a.contains("diffreg_lat_seconds_bucket{op=\"recv\",le=\"1\"} 3"), "{a}");
        assert!(a.contains("diffreg_lat_seconds_bucket{op=\"recv\",le=\"+Inf\"} 3"), "{a}");
        assert!(a.contains("diffreg_lat_seconds_sum{op=\"recv\"} 1.25"), "{a}");
        assert!(a.contains("diffreg_lat_seconds_count{op=\"recv\"} 3"), "{a}");
        assert!(a.contains("diffreg_lat_seconds_p50{op=\"recv\"}"), "{a}");
        assert!(a.contains("diffreg_msgs_total{op=\"send\"} 7"), "{a}");
        assert!(a.contains("diffreg_wall_seconds 1.5"), "{a}");
    }

    #[test]
    fn label_value_escaping_is_pinned() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
        // All three at once, in order.
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
        // Round-trip through a rendered registry: the exposition line
        // carries the escapes, not the raw bytes.
        let mut reg = MetricsRegistry::new();
        let tenant = escape_label_value("acme\"corp\\eu\n");
        reg.set_gauge(
            &format!("diffreg_slo_burn_milli{{tenant=\"{tenant}\",objective=\"latency_p95\",window=\"fast\"}}"),
            250.0,
        );
        let out = reg.render_prometheus();
        assert!(
            out.contains(
                "diffreg_slo_burn_milli{tenant=\"acme\\\"corp\\\\eu\\n\",objective=\"latency_p95\",window=\"fast\"} 250"
            ),
            "{out}"
        );
        assert!(!out.contains("acme\"corp"), "raw quote must not survive: {out}");
    }

    #[test]
    fn quantile_edge_empty_histogram() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert!(h.percentile(q).is_none(), "empty histogram has no q={q}");
        }
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantile_edge_single_observation() {
        let mut h = Histogram::new();
        h.observe(42.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(42.0), "q={q} collapses to the only value");
        }
    }

    #[test]
    fn quantile_edge_all_observations_in_one_bucket() {
        // 1.0 and 1.9 share bucket 64 ([2^0, 2^1)); every quantile must
        // stay inside the observed [min, max] envelope.
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.observe(1.0);
        }
        for _ in 0..10 {
            h.observe(1.9);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let v = h.percentile(q).unwrap();
            assert!((1.0..=1.9).contains(&v), "q={q} -> {v} clamped to [min, max]");
        }
        assert_eq!(h.percentile(0.0), Some(1.0));
        assert_eq!(h.percentile(1.0), Some(1.9));
    }

    #[test]
    fn registry_merge_is_deterministic_under_permuted_rank_order() {
        // Four "ranks" with overlapping counters, disjoint gauges, and
        // shared histograms; merging in any rank order must render
        // byte-identical output (gauges are disjoint here because gauge
        // merge is last-writer-wins by design).
        let mk = |rank: u64| {
            let mut r = MetricsRegistry::new();
            r.inc_counter("diffreg_ops_total", rank + 1);
            r.inc_counter(&format!("diffreg_rank_ops_total{{rank=\"{rank}\"}}"), 10 * rank);
            r.set_gauge(&format!("diffreg_rank_up{{rank=\"{rank}\"}}"), 1.0);
            for i in 0..=rank {
                r.observe("diffreg_latency_seconds", 0.5 + i as f64);
            }
            r
        };
        let ranks: Vec<MetricsRegistry> = (0..4).map(mk).collect();
        let orders: [[usize; 4]; 4] =
            [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]];
        let mut rendered: Vec<String> = Vec::new();
        for order in orders {
            let mut merged = MetricsRegistry::new();
            for i in order {
                merged.merge(&ranks[i]);
            }
            rendered.push(merged.render_prometheus());
        }
        assert_eq!(rendered[0], rendered[1]);
        assert_eq!(rendered[0], rendered[2]);
        assert_eq!(rendered[0], rendered[3]);
        assert!(rendered[0].contains("diffreg_ops_total 10"), "{}", rendered[0]);
    }
}
