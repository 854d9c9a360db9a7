//! Hierarchical span tracing: RAII guards over the per-thread event ring
//! (see [`crate::recorder`]), and a Chrome `trace_event` exporter of the
//! ring's spans and comm records.
//!
//! Design constraints:
//! * **Always recorded, bounded cost.** There is no gate: a span takes two
//!   clock reads and offers itself to the thread's ring when it closes,
//!   where a sampled window may skip it (the per-event cost is the
//!   `telemetry/recorder_overhead` bench records).
//! * **One sink.** A closed span is appended to the thread's ring and
//!   nowhere else. Tracing does not add a second buffer: a thread that
//!   calls [`set_trace_enabled`] puts its own ring's next window in
//!   keep-all mode (65 536 events, no sampling, overflow counted); other
//!   threads stay sampled. A span stores no depth (readers rebuild nesting
//!   from containment); it may carry one count ([`SpanGuard::count`]), the
//!   per-call fact its caller measures, such as points routed.
//! * **Rank-aware.** In the simulated MPI runtime every rank is one thread:
//!   the rank's SPMD closure calls [`crate::take_recorder`] before returning
//!   and the harness pairs the snapshot with the rank id, so the exported
//!   Chrome/Perfetto trace has one process per rank and one thread track
//!   per OS thread.
//! * **Monotonic shared clock.** Timestamps are nanoseconds on
//!   [`diffreg_comm::monotonic_ns`] — the epoch of every ring record — so
//!   spans and comm records from different ranks align on one timeline.

use diffreg_comm::monotonic_ns;
use diffreg_comm::ring::offer_span;
pub use diffreg_comm::ring::{set_trace_enabled, trace_enabled};

use crate::doctor::RankCapture;
use crate::json::Json;
use crate::recorder::{key_to_json, RecKind};

/// Opens a span; the span closes and is offered to the calling thread's
/// ring when the returned guard drops. Spans nest; readers recover the
/// nesting from containment.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard { name, t0_ns: monotonic_ns(), count: 0 }
}

/// RAII guard of one open span (see [`span`]).
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    name: &'static str,
    /// Open time on the [`monotonic_ns`] epoch.
    t0_ns: u64,
    count: u64,
}

impl SpanGuard {
    /// Adds `n` to the span's count, recorded with the span when it closes
    /// (the ring event's `b` word). One counted fact per span name: the
    /// doctor derives a `diffreg_span_count{span="<name>"}` histogram from
    /// it.
    pub fn count(&mut self, n: u64) {
        self.count += n;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = monotonic_ns().saturating_sub(self.t0_ns);
        offer_span(self.name, self.t0_ns, dur_ns, self.count);
    }
}

/// Runs `f` inside a span named `name`.
#[inline]
pub fn with_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = span(name);
    f()
}

/// The `tid` of the dedicated per-rank comm track in exported traces. Comm
/// records live on their own track so they cannot partially overlap the
/// span track (they time the *same* wall-clock intervals from a different
/// vantage point).
pub const COMM_TRACK_TID: u64 = 1_000_000;

/// Assembles per-rank captures into a Chrome `trace_event` JSON document
/// (the "JSON Array Format" object flavor with `traceEvents`), loadable in
/// `chrome://tracing` and Perfetto: one `pid` per rank; the rank's spans as
/// complete (`"ph":"X"`) events with microsecond timestamps on the `tid` of
/// the recording thread, with the span's count (when nonzero) as
/// `args.count`; its comm records (see [`crate::recorder::CommKey`]) on a
/// dedicated `comm` track, name `comm.<op>`, category `"comm"`, with the
/// record's key as the bundle file writes it, plus `bytes`, in `args`. An
/// export for people: no code reads it back, and the microsecond doubles
/// round the nanosecond source.
pub fn chrome_trace(captures: &[RankCapture]) -> Json {
    let track = |kind: &str, pid: usize, tid: u64, name: String| {
        let args = Json::obj().set("name", name);
        Json::obj().set("name", kind).set("ph", "M").set("pid", pid).set("tid", tid).set("args", args)
    };
    let complete = |name: String, cat: &str, pid: usize, tid: u64, t0_ns: u64, dur_ns: u64| {
        Json::obj()
            .set("name", name)
            .set("cat", cat)
            .set("ph", "X")
            .set("pid", pid)
            .set("tid", tid)
            .set("ts", t0_ns as f64 / 1e3)
            .set("dur", dur_ns as f64 / 1e3)
    };
    let mut events: Vec<Json> = Vec::new();
    for c in captures {
        let tid = c.recorder.thread;
        // Process metadata so the Perfetto sidebar names tracks by rank.
        events.push(track("process_name", c.rank, tid, format!("rank {}", c.rank)));
        if c.recorder.comm_records().next().is_some() {
            events.push(track("thread_name", c.rank, COMM_TRACK_TID, "comm".into()));
        }
        for e in &c.recorder.events {
            let x = match (e.kind, &e.key) {
                (RecKind::Span, _) => {
                    let x = complete(e.name.to_string(), "diffreg", c.rank, tid, e.t_ns, e.a);
                    if e.b > 0 { x.set("args", Json::obj().set("count", e.b)) } else { x }
                }
                (RecKind::Comm, Some(k)) => {
                    let args = key_to_json(k).set("bytes", e.b);
                    let name = format!("comm.{}", e.name);
                    complete(name, "comm", c.rank, COMM_TRACK_TID, e.t_ns, e.a).set("args", args)
                }
                _ => continue,
            };
            events.push(x);
        }
    }
    let dropped: u64 = captures.iter().map(|c| c.recorder.dropped()).sum();
    Json::obj()
        .set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms")
        .set("otherData", Json::obj().set("dropped_events", dropped))
}

/// Summary of a validated Chrome trace (see [`validate_chrome_trace`]).
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Distinct `pid`s (ranks) seen.
    pub pids: Vec<usize>,
    /// Total complete (`"X"`) events.
    pub events: usize,
    /// Distinct span names seen.
    pub names: Vec<String>,
    /// Complete events on `comm` tracks (category `"comm"`).
    pub comm_events: usize,
}

/// Parses a Chrome trace JSON document and checks its structural invariants:
/// every `X` event carries numeric `pid`/`tid`/`ts`/`dur`, and within each
/// `(pid, tid)` track the spans *nest* — any two either do not overlap or
/// one contains the other (no partial overlap). Events in the `"comm"`
/// category must additionally carry the comm-event metadata exported by
/// [`chrome_trace`]: a numeric `args.csize`, and — for p2p events — an
/// `args.peer` rank *inside* the communicator (`peer < csize`); a p2p event
/// whose matched-peer rank is out of range is rejected. Returns a summary or
/// a description of the first violation.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    /// Spans on one `(pid, tid)` track: `(start_us, end_us, name)`.
    type Track = Vec<(f64, f64, String)>;
    let mut tracks: std::collections::BTreeMap<(u64, u64), Track> =
        std::collections::BTreeMap::new();
    let mut summary = TraceSummary::default();
    for (i, e) in events.iter().enumerate() {
        let ph = e.get("ph").and_then(Json::as_str).ok_or(format!("event {i}: missing ph"))?;
        if ph != "X" {
            continue;
        }
        let num = |key: &str| -> Result<f64, String> {
            e.get(key).and_then(Json::as_f64).ok_or(format!("event {i}: missing numeric {key}"))
        };
        let pid = num("pid")? as u64;
        let tid = num("tid")? as u64;
        let ts = num("ts")?;
        let dur = num("dur")?;
        if dur < 0.0 {
            return Err(format!("event {i}: negative dur"));
        }
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing name"))?
            .to_string();
        if e.get("cat").and_then(Json::as_str) == Some("comm") {
            let args = e.get("args").ok_or(format!("event {i}: comm event missing args"))?;
            let arg = |key: &str| args.uint(key).map_err(|e| format!("event {i}: comm event args: {e}"));
            let csize = arg("csize")?;
            if csize == 0 {
                return Err(format!("event {i}: comm event has zero args.csize"));
            }
            if args.get("peer").is_some() {
                let peer = arg("peer")?;
                if peer >= csize {
                    return Err(format!(
                        "event {i} ('{name}'): p2p comm event peer rank {peer} out of range \
                         for communicator size {csize}"
                    ));
                }
            }
            summary.comm_events += 1;
        }
        if !summary.pids.contains(&(pid as usize)) {
            summary.pids.push(pid as usize);
        }
        if !summary.names.contains(&name) {
            summary.names.push(name.clone());
        }
        summary.events += 1;
        tracks.entry((pid, tid)).or_default().push((ts, ts + dur, name));
    }
    summary.pids.sort_unstable();
    summary.names.sort();
    // Nesting check per track: sort by (start asc, end desc) and sweep with
    // a stack of open intervals.
    for ((pid, tid), mut spans) in tracks {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut stack: Vec<(f64, f64, String)> = Vec::new();
        for (start, end, name) in spans {
            while let Some(top) = stack.last() {
                if start >= top.1 {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if end > top.1 + 1e-9 {
                    return Err(format!(
                        "track pid={pid} tid={tid}: span '{name}' [{start}, {end}] partially \
                         overlaps '{}' [{}, {}]",
                        top.2, top.0, top.1
                    ));
                }
            }
            stack.push((start, end, name));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{take_recorder, RecorderSnapshot};

    fn capture(rank: usize, recorder: RecorderSnapshot) -> RankCapture {
        RankCapture { rank, recorder }
    }

    #[test]
    fn spans_nest_and_export_parses() {
        set_trace_enabled(true);
        let _ = take_recorder();
        {
            let _outer = span("outer");
            {
                let mut inner = span("inner");
                inner.count(40);
                inner.count(2);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let _sibling = span("sibling");
        }
        let t = take_recorder();
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.dropped(), 0);
        // Close order: inner, sibling, outer; only inner counted anything.
        assert_eq!(t.events[0].name, "inner");
        assert_eq!(t.events[0].b, 42);
        assert_eq!(t.events[2].name, "outer");
        assert_eq!(t.events[2].b, 0);
        let (outer, inner) = (&t.events[2], &t.events[0]);
        assert!(inner.t_ns >= outer.t_ns);
        assert!(inner.t_ns + inner.a <= outer.t_ns + outer.a);

        let doc = chrome_trace(&[capture(0, t)]);
        let args: Vec<Option<f64>> = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("args").and_then(|a| a.get("count")).and_then(Json::as_f64))
            .collect();
        assert_eq!(args, [Some(42.0), None, None], "args.count only where nonzero");
        let summary = validate_chrome_trace(&doc.to_string()).unwrap();
        assert_eq!(summary.pids, vec![0]);
        assert_eq!(summary.events, 3);
        assert!(summary.names.contains(&"inner".to_string()));
    }

    #[test]
    fn per_thread_rings_are_independent() {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    set_trace_enabled(true);
                    let _g = span("worker");
                    drop(span("child"));
                    drop(_g);
                    take_recorder()
                })
            })
            .collect();
        let traces: Vec<RecorderSnapshot> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut tids: Vec<u64> = traces.iter().map(|t| t.thread).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread gets its own track");
        for t in &traces {
            assert_eq!(t.events.len(), 2);
        }
    }

    #[test]
    fn validator_rejects_partial_overlap() {
        let bad = Json::obj()
            .set(
                "traceEvents",
                Json::Arr(vec![
                    Json::obj()
                        .set("name", "a")
                        .set("ph", "X")
                        .set("pid", 0usize)
                        .set("tid", 0usize)
                        .set("ts", 0.0)
                        .set("dur", 10.0),
                    Json::obj()
                        .set("name", "b")
                        .set("ph", "X")
                        .set("pid", 0usize)
                        .set("tid", 0usize)
                        .set("ts", 5.0)
                        .set("dur", 10.0),
                ]),
            )
            .to_string();
        let err = validate_chrome_trace(&bad).unwrap_err();
        assert!(err.contains("partially"), "{err}");
    }

    #[test]
    fn with_span_passes_value_through() {
        assert_eq!(with_span("x", || 7), 7);
    }
}
