//! Hierarchical span tracing: RAII guards, per-rank + per-thread buffers,
//! monotonic clocks, and a Chrome `trace_event` exporter.
//!
//! Design constraints (ISSUE 3 tentpole):
//! * **Zero cost when off.** [`span`] first reads one process-global relaxed
//!   `AtomicBool`; when tracing is disabled (the default, until a caller
//!   that will export the trace calls [`set_trace_enabled`]) the guard is
//!   inert and no thread-local is touched.
//! * **Bounded memory.** Each thread records into its own buffer capped at
//!   65 536 events; overflow increments a dropped-events counter instead of
//!   growing.
//! * **Rank-aware.** In the simulated MPI runtime every rank is one thread:
//!   the rank's SPMD closure calls [`take_thread_trace`] before returning
//!   and the harness maps trace → `pid = rank` at export time, producing a
//!   Chrome/Perfetto trace with one process per rank and one thread track
//!   per OS thread.
//! * **Monotonic shared clock.** Timestamps are nanoseconds on
//!   [`diffreg_comm::monotonic_ns`] — the same process-wide epoch the comm
//!   event recorder uses — so spans and comm events from different ranks
//!   align on one timeline.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use diffreg_comm::monotonic_ns;

use crate::json::Json;

/// One closed span: `[t0_ns, t0_ns + dur_ns)` at nesting `depth` on the
/// recording thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"fft.forward"`).
    pub name: &'static str,
    /// Start, nanoseconds since the process trace epoch.
    pub t0_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at which the span was opened (0 = top level).
    pub depth: u32,
}

/// Everything one thread recorded: its events (in close order), its stable
/// thread index, and how many events overflowed the bounded buffer.
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    /// Small stable per-process thread index (not the OS tid).
    pub thread: u64,
    /// Closed spans in the order they *closed* (children before parents).
    pub events: Vec<SpanEvent>,
    /// Events discarded because the ring buffer was full.
    pub dropped: u64,
}

/// Process-global enable flag: a single relaxed load gates every `span()`
/// call, so disabled tracing costs one atomic read and nothing else. Off
/// until [`set_trace_enabled`] turns it on.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Events one thread's buffer holds before it counts drops instead.
const TRACE_CAP: usize = 1 << 16;

/// Whether span tracing is currently enabled.
#[inline]
pub fn trace_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables/disables tracing for the whole process. Spans already open keep
/// recording.
pub fn set_trace_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

struct Buffer {
    thread: u64,
    depth: u32,
    events: Vec<SpanEvent>,
    dropped: u64,
}

thread_local! {
    static BUFFER: RefCell<Buffer> = RefCell::new(Buffer {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        depth: 0,
        events: Vec::new(),
        dropped: 0,
    });
}

/// Opens a span; the span closes (and is recorded) when the returned guard
/// drops. Spans nest: guards created inside an open span record a larger
/// `depth`. Closed spans feed two consumers independently: the full-fidelity
/// trace buffer (when tracing is on) and the always-on flight recorder's
/// downsampled stream (see [`crate::recorder`]). When both are disabled this
/// is two relaxed atomic loads and nothing else.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let traced = trace_enabled();
    let recorded = crate::recorder::recorder_enabled();
    if !traced && !recorded {
        return SpanGuard { name, t0_ns: None, traced: false, depth: 0 };
    }
    let depth = if traced {
        BUFFER.with(|b| {
            let mut b = b.borrow_mut();
            let d = b.depth;
            b.depth += 1;
            d
        })
    } else {
        0
    };
    SpanGuard { name, t0_ns: Some(monotonic_ns()), traced, depth }
}

/// RAII guard of one open span (see [`span`]).
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    name: &'static str,
    t0_ns: Option<u64>,
    /// Whether the full tracer was on at open (the flight recorder side is
    /// re-checked at close; the trace buffer must stay depth-consistent).
    traced: bool,
    depth: u32,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(t0_ns) = self.t0_ns else { return };
        let dur_ns = monotonic_ns().saturating_sub(t0_ns);
        if crate::recorder::recorder_enabled() {
            crate::recorder::offer_span(self.name, t0_ns, dur_ns, self.depth);
        }
        if !self.traced {
            return;
        }
        BUFFER.with(|b| {
            let mut b = b.borrow_mut();
            b.depth = b.depth.saturating_sub(1);
            if b.events.len() < TRACE_CAP {
                b.events.push(SpanEvent { name: self.name, t0_ns, dur_ns, depth: self.depth });
            } else {
                b.dropped += 1;
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
#[inline]
pub fn with_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = span(name);
    f()
}

/// Drains and returns everything the *current thread* has recorded. In the
/// rank-per-thread runtime each rank calls this at the end of its SPMD
/// closure and returns the trace to the harness, which pairs it with the
/// rank id for [`chrome_trace`].
pub fn take_thread_trace() -> ThreadTrace {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        ThreadTrace {
            thread: b.thread,
            events: std::mem::take(&mut b.events),
            dropped: std::mem::take(&mut b.dropped),
        }
    })
}

/// Assembles per-rank thread traces into a Chrome `trace_event` JSON
/// document (the "JSON Array Format" object flavor with `traceEvents`),
/// loadable in `chrome://tracing` and Perfetto: one `pid` per rank, one
/// `tid` per recording thread, complete (`"ph":"X"`) events with
/// microsecond timestamps.
pub fn chrome_trace(traces: &[(usize, ThreadTrace)]) -> Json {
    chrome_trace_full(traces, &[])
}

/// The `tid` of the dedicated per-rank comm track in exported traces. Comm
/// events live on their own track so they cannot partially overlap the span
/// track (they time the *same* wall-clock intervals from a different
/// vantage point).
pub const COMM_TRACK_TID: u64 = 1_000_000;

/// Like [`chrome_trace`], but additionally exports per-rank comm event
/// records (see `diffreg_comm::CommEvent`) as complete events on a dedicated
/// `comm` track per rank: name `comm.<op>`, category `"comm"`, and the
/// matching metadata (`peer`, `tag`, `seq`, `bytes`, `epoch`, `comm`,
/// `csize`, `blocked_us`) in `args`.
pub fn chrome_trace_full(
    traces: &[(usize, ThreadTrace)],
    comm_events: &[(usize, Vec<diffreg_comm::CommEvent>)],
) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for (rank, evs) in comm_events {
        events.push(
            Json::obj()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", *rank)
                .set("tid", COMM_TRACK_TID)
                .set("args", Json::obj().set("name", "comm")),
        );
        for e in evs {
            let mut args = Json::obj()
                .set("comm", e.comm)
                .set("csize", e.csize)
                .set("lrank", e.rank)
                .set("bytes", e.bytes)
                .set("blocked_us", e.blocked_ns as f64 / 1e3);
            if let Some(p) = e.peer {
                args = args.set("peer", p);
            }
            if let Some(t) = e.tag {
                args = args.set("tag", t);
            }
            if let Some(s) = e.seq {
                args = args.set("seq", s);
            }
            if let Some(ep) = e.epoch {
                args = args.set("epoch", ep);
            }
            events.push(
                Json::obj()
                    .set("name", format!("comm.{}", e.op.name()))
                    .set("cat", "comm")
                    .set("ph", "X")
                    .set("pid", *rank)
                    .set("tid", COMM_TRACK_TID)
                    .set("ts", e.t0_ns as f64 / 1e3)
                    .set("dur", e.t1_ns.saturating_sub(e.t0_ns) as f64 / 1e3)
                    .set("args", args),
            );
        }
    }
    for (rank, trace) in traces {
        // Process metadata so the Perfetto sidebar names tracks by rank.
        events.push(
            Json::obj()
                .set("name", "process_name")
                .set("ph", "M")
                .set("pid", *rank)
                .set("tid", trace.thread)
                .set("args", Json::obj().set("name", format!("rank {rank}"))),
        );
        for e in &trace.events {
            events.push(
                Json::obj()
                    .set("name", e.name)
                    .set("cat", "diffreg")
                    .set("ph", "X")
                    .set("pid", *rank)
                    .set("tid", trace.thread)
                    .set("ts", e.t0_ns as f64 / 1e3)
                    .set("dur", e.dur_ns as f64 / 1e3)
                    .set("args", Json::obj().set("depth", e.depth)),
            );
        }
    }
    let dropped: u64 = traces.iter().map(|(_, t)| t.dropped).sum();
    Json::obj()
        .set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms")
        .set("otherData", Json::obj().set("dropped_events", dropped))
}

/// [`chrome_trace`] serialized and written to `path` (parent directories
/// created).
pub fn write_chrome_trace(
    path: impl AsRef<std::path::Path>,
    traces: &[(usize, ThreadTrace)],
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_trace(traces).to_string())
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
/// [`chrome_trace_full`]: a numeric `args.csize`, and — for p2p events — an
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
            let csize = args
                .get("csize")
                .and_then(Json::as_f64)
                .ok_or(format!("event {i}: comm event missing numeric args.csize"))?
                as usize;
            if csize == 0 {
                return Err(format!("event {i}: comm event has zero args.csize"));
            }
            if let Some(peer) = args.get("peer").and_then(Json::as_f64) {
                let peer = peer as usize;
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

/// Serializes tests (across this crate's modules) that flip the
/// process-global trace flag.
#[cfg(test)]
pub(crate) static TEST_TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share one process-global tracer; serialize them.
    use super::TEST_TRACE_LOCK as LOCK;

    #[test]
    fn disabled_span_records_nothing() {
        let _l = LOCK.lock().unwrap();
        set_trace_enabled(false);
        let _ = take_thread_trace();
        {
            let _g = span("invisible");
        }
        let t = take_thread_trace();
        assert!(t.events.is_empty());
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn spans_nest_and_export_parses() {
        let _l = LOCK.lock().unwrap();
        set_trace_enabled(true);
        let _ = take_thread_trace();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let _sibling = span("sibling");
        }
        set_trace_enabled(false);
        let t = take_thread_trace();
        assert_eq!(t.events.len(), 3);
        // Close order: inner, sibling, outer.
        assert_eq!(t.events[0].name, "inner");
        assert_eq!(t.events[0].depth, 1);
        assert_eq!(t.events[2].name, "outer");
        assert_eq!(t.events[2].depth, 0);
        let outer = t.events[2];
        let inner = t.events[0];
        assert!(inner.t0_ns >= outer.t0_ns);
        assert!(inner.t0_ns + inner.dur_ns <= outer.t0_ns + outer.dur_ns);

        let text = chrome_trace(&[(0, t)]).to_string();
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.pids, vec![0]);
        assert_eq!(summary.events, 3);
        assert!(summary.names.contains(&"inner".to_string()));
    }

    #[test]
    fn per_thread_buffers_are_independent() {
        let _l = LOCK.lock().unwrap();
        set_trace_enabled(true);
        let _ = take_thread_trace();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _g = span("worker");
                    drop(span("child"));
                    drop(_g);
                    take_thread_trace()
                })
            })
            .collect();
        let traces: Vec<ThreadTrace> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        set_trace_enabled(false);
        let _ = take_thread_trace();
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
        let _l = LOCK.lock().unwrap();
        set_trace_enabled(false);
        assert_eq!(with_span("x", || 7), 7);
    }
}
