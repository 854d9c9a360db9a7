//! The per-thread event ring: the one place a closed span, a lifecycle
//! event or a comm summary is stored, in one event type ([`RecEvent`]) that
//! is also what `recorder-rank<k>.jsonl` holds and what the bundle reader
//! returns ([`RecorderSnapshot`]).
//!
//! The ring runs in one of two modes, fixed per window (a window starts at
//! the first event after the thread starts or after a drain, and reads the
//! trace flag once, there):
//!
//! * **sampled** (the default, always on): the newest 2,048 events, the
//!   span stream downsampled under sustained load — the flight recorder
//!   that is cheap enough to never turn off, so when an incident fires the
//!   last moments before it are on hand with no tracing enabled.
//! * **keep-all** (while [`crate::set_trace_enabled`] is on): 65,536 events,
//!   stride pinned to 1, span depths recorded — the full trace the doctor
//!   and the Chrome export read. Overflow evicts the oldest event and is
//!   counted in `overwritten`, never silent.
//!
//! Invariants, both modes, at any snapshot:
//! * **Exact accounting.** `seen = recorded + sampled_out` and
//!   `events.len() = recorded - overwritten`; in keep-all mode
//!   `sampled_out == 0`.
//! * **Deterministic counters.** Sampling and eviction depend only on event
//!   *counts*, never on wall-clock time — replaying a seeded campaign
//!   reproduces identical counter values (timestamps excepted).
//! * **Only spans are sampled.** When a sampled ring keeps wrapping at the
//!   current stride, the stride doubles (up to 1,024), widening the time
//!   window the ring covers; a drain resets it. Lifecycle events
//!   ([`record_event`]) always record.
//!
//! The per-event cost is gated by the `telemetry/recorder_overhead` bench
//! records.

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use diffreg_comm::monotonic_ns;

use crate::json::Json;
use crate::span::trace_enabled;

/// Upper bound on the adaptive span-sampling stride (1 in `MAX_STRIDE`
/// spans recorded under the heaviest sustained load).
const MAX_STRIDE: u64 = 1 << 10;

/// What an event in the recorder stream describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecKind {
    /// A closed span (`t_ns` = start, `a` = duration ns, `b` = depth; the
    /// depth is 0 in a sampled window, which does not track nesting).
    Span,
    /// A comm-op summary (`a` = op count, `b` = total bytes).
    Comm,
    /// A serve-runtime lifecycle transition (`a`/`b` are caller-defined,
    /// typically job id and round).
    Serve,
    /// A solver milestone (`a`/`b` caller-defined).
    Solver,
    /// A free-form marker.
    Mark,
}

impl RecKind {
    const ALL: [RecKind; 5] =
        [RecKind::Span, RecKind::Comm, RecKind::Serve, RecKind::Solver, RecKind::Mark];

    /// Stable lowercase name (serialization key).
    pub fn name(self) -> &'static str {
        match self {
            RecKind::Span => "span",
            RecKind::Comm => "comm",
            RecKind::Serve => "serve",
            RecKind::Solver => "solver",
            RecKind::Mark => "mark",
        }
    }
}

/// One recorded event: a timestamp, a kind, a name, and two kind-defined
/// payload words. Names are static when recorded and owned when read back
/// from a bundle; the two compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecEvent {
    /// Nanoseconds on the shared [`monotonic_ns`] epoch.
    pub t_ns: u64,
    /// Event kind.
    pub kind: RecKind,
    /// Event name (span name, comm op, lifecycle transition).
    pub name: Cow<'static, str>,
    /// First payload word (kind-defined; see [`RecKind`]).
    pub a: u64,
    /// Second payload word (kind-defined).
    pub b: u64,
}

/// Everything one thread's ring held at snapshot time, plus the exact
/// accounting of what it did not hold. This is what a rank hands the
/// harness, what `recorder-rank<k>.jsonl` stores, and what the bundle
/// reader returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecorderSnapshot {
    /// Small stable per-process thread index (not the OS tid).
    pub thread: u64,
    /// Retained events, oldest first (spans in the order they *closed*:
    /// children before parents).
    pub events: Vec<RecEvent>,
    /// Events offered to the recorder since the last drain.
    pub seen: u64,
    /// Events written into the ring (`seen - sampled_out`).
    pub recorded: u64,
    /// Span events skipped by adaptive sampling.
    pub sampled_out: u64,
    /// Recorded events later evicted by the ring wrapping
    /// (`recorded - events.len()`).
    pub overwritten: u64,
    /// Span-sampling stride at snapshot time (1 = every span recorded).
    pub stride: u64,
}

impl RecorderSnapshot {
    /// Offered events that `events` does not hold (sampled out or
    /// overwritten); 0 means the capture is complete.
    pub fn dropped(&self) -> u64 {
        self.sampled_out + self.overwritten
    }

    /// The retained spans as `(t0_ns, t1_ns, name)` intervals.
    pub(crate) fn spans(&self) -> impl Iterator<Item = (u64, u64, &str)> {
        self.events
            .iter()
            .filter(|e| e.kind == RecKind::Span)
            .map(|e| (e.t_ns, e.t_ns + e.a, &*e.name))
    }

    /// The `recorder-rank<k>.jsonl` text: one header line with the
    /// counters, then one line per retained event.
    pub(crate) fn to_jsonl(&self) -> String {
        let head = Json::obj()
            .set("type", "recorder")
            .set("thread", self.thread)
            .set("seen", self.seen)
            .set("recorded", self.recorded)
            .set("sampled_out", self.sampled_out)
            .set("overwritten", self.overwritten)
            .set("stride", self.stride);
        let mut out = format!("{head}\n");
        for e in &self.events {
            let line = Json::obj()
                .set("type", "event")
                .set("t_ns", e.t_ns)
                .set("kind", e.kind.name())
                .set("name", &*e.name)
                .set("a", e.a)
                .set("b", e.b);
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Inverse of [`to_jsonl`](Self::to_jsonl). The header line must come
    /// first — a file that lost its head is rejected, not read as an empty
    /// window.
    pub(crate) fn from_jsonl(text: &str) -> Result<RecorderSnapshot, String> {
        let mut out: Option<RecorderSnapshot> = None;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at = |what: &str| format!("line {}: {what}", i + 1);
            let j = Json::parse(line).map_err(|e| at(&e))?;
            let missing = |key: &str| at(&format!("missing {key}"));
            let u = |key: &str| {
                j.get(key).and_then(Json::as_f64).map(|v| v as u64).ok_or_else(|| missing(key))
            };
            let s = |key: &str| j.get(key).and_then(Json::as_str).ok_or_else(|| missing(key));
            match (j.get("type").and_then(Json::as_str).unwrap_or(""), out.as_mut()) {
                ("recorder", None) => {
                    out = Some(RecorderSnapshot {
                        thread: u("thread")?,
                        events: Vec::new(),
                        seen: u("seen")?,
                        recorded: u("recorded")?,
                        sampled_out: u("sampled_out")?,
                        overwritten: u("overwritten")?,
                        stride: u("stride")?,
                    });
                }
                ("event", Some(snap)) => {
                    let kind = s("kind")?;
                    snap.events.push(RecEvent {
                        t_ns: u("t_ns")?,
                        kind: *RecKind::ALL
                            .iter()
                            .find(|k| k.name() == kind)
                            .ok_or_else(|| at(&format!("unknown kind \"{kind}\"")))?,
                        name: Cow::Owned(s("name")?.to_string()),
                        a: u("a")?,
                        b: u("b")?,
                    });
                }
                ("recorder", Some(_)) => return Err(at("second recorder header")),
                ("event", None) => return Err(at("event before the recorder header")),
                (other, _) => return Err(at(&format!("unknown type \"{other}\""))),
            }
        }
        out.ok_or("missing recorder header line".into())
    }
}

static REC_ENABLED: AtomicBool = AtomicBool::new(true);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Events a sampled window holds.
const SAMPLED_CAP: usize = 2048;
/// Events a keep-all window holds before it counts evictions.
const KEEP_ALL_CAP: usize = 1 << 16;

/// Whether the flight recorder is currently capturing (default **on**;
/// [`set_recorder_enabled`]`(false)` disables).
#[inline]
pub fn recorder_enabled() -> bool {
    REC_ENABLED.load(Ordering::Relaxed)
}

/// Enables/disables the recorder for the whole process.
pub fn set_recorder_enabled(on: bool) {
    REC_ENABLED.store(on, Ordering::Relaxed);
}

struct Ring {
    thread: u64,
    /// Ring sizes of the two modes, indexed by `keep_all` (tests shrink them).
    caps: [usize; 2],
    /// Mode of the current window, read from the trace flag at its first
    /// event.
    keep_all: bool,
    /// Open traced spans on this thread.
    depth: u32,
    buf: Vec<RecEvent>,
    /// Next overwrite position once `buf` is full.
    head: usize,
    seen: u64,
    recorded: u64,
    sampled_out: u64,
    overwritten: u64,
    stride: u64,
    /// Overwrites since the stride last doubled; a full ring's worth of
    /// overwrites at one stride is the "sustained load" signal.
    wraps_at_stride: u64,
}

impl Ring {
    fn new() -> Self {
        Self {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            caps: [SAMPLED_CAP, KEEP_ALL_CAP],
            keep_all: false,
            depth: 0,
            buf: Vec::new(),
            head: 0,
            seen: 0,
            recorded: 0,
            sampled_out: 0,
            overwritten: 0,
            stride: 1,
            wraps_at_stride: 0,
        }
    }

    /// Counts one offered event; the first of a window fixes its mode.
    fn admit(&mut self) {
        if self.seen == 0 {
            self.keep_all = trace_enabled();
        }
        self.seen += 1;
    }

    fn push(&mut self, ev: RecEvent) {
        self.recorded += 1;
        let cap = self.caps[usize::from(self.keep_all)];
        if self.buf.len() < cap {
            self.buf.push(ev);
            return;
        }
        self.buf[self.head] = ev;
        self.head = (self.head + 1) % cap;
        self.overwritten += 1;
        self.wraps_at_stride += 1;
        if !self.keep_all && self.wraps_at_stride >= cap as u64 && self.stride < MAX_STRIDE {
            // Sustained load: a whole ring of history was lost at this
            // stride. Halve the span rate to double the covered window.
            self.stride *= 2;
            self.wraps_at_stride = 0;
        }
    }

    fn snapshot(&self) -> RecorderSnapshot {
        let mut events = Vec::with_capacity(self.buf.len());
        events.extend_from_slice(&self.buf[self.head..]);
        events.extend_from_slice(&self.buf[..self.head]);
        RecorderSnapshot {
            thread: self.thread,
            events,
            seen: self.seen,
            recorded: self.recorded,
            sampled_out: self.sampled_out,
            overwritten: self.overwritten,
            stride: self.stride,
        }
    }

    fn take(&mut self) -> RecorderSnapshot {
        let snap = self.snapshot();
        self.buf.clear();
        self.head = 0;
        self.seen = 0;
        self.recorded = 0;
        self.sampled_out = 0;
        self.overwritten = 0;
        self.stride = 1;
        self.wraps_at_stride = 0;
        snap
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring::new());
}

/// Records one lifecycle event (never sampled — only the span stream is).
/// A no-op when the recorder is disabled.
#[inline]
pub fn record_event(kind: RecKind, name: &'static str, a: u64, b: u64) {
    if !recorder_enabled() {
        return;
    }
    let t_ns = monotonic_ns();
    RING.with(|r| {
        let mut r = r.borrow_mut();
        r.admit();
        r.push(RecEvent { t_ns, kind, name: Cow::Borrowed(name), a, b });
    });
}

/// Records one comm-op summary (`count` ops, `bytes` total payload) under
/// the op's name — the serve loop folds each round's drained comm events
/// into one of these per op, so the recorder stream carries communication
/// history without paying per-message cost.
#[inline]
pub fn record_comm_summary(op: &'static str, count: u64, bytes: u64) {
    record_event(RecKind::Comm, op, count, bytes);
}

/// Counts one traced span opening and returns the depth it opened at.
pub(crate) fn enter_span() -> u32 {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        r.depth += 1;
        r.depth - 1
    })
}

/// Appends one closed span (called from the span guard's drop; `traced`
/// closes the [`enter_span`] it opened with). Subject to adaptive sampling
/// in a sampled window; exact counts either way.
#[inline]
pub(crate) fn offer_span(name: &'static str, t_ns: u64, dur_ns: u64, depth: u32, traced: bool) {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        if traced {
            r.depth = r.depth.saturating_sub(1);
        }
        r.admit();
        if r.seen % r.stride != 0 {
            r.sampled_out += 1;
            return;
        }
        let name = Cow::Borrowed(name);
        r.push(RecEvent { t_ns, kind: RecKind::Span, name, a: dur_ns, b: u64::from(depth) });
    });
}

/// Non-destructive copy of the current thread's ring and counters.
pub fn snapshot_recorder() -> RecorderSnapshot {
    RING.with(|r| r.borrow().snapshot())
}

/// Drains the current thread's ring: returns everything retained plus the
/// exact counters, then resets the window (counters to zero, stride to 1,
/// mode re-read from the trace flag at the next event). A rank calls this
/// at the end of its SPMD closure, the serve loop at attempt boundaries so
/// each capture accounts for exactly one attempt.
pub fn take_recorder() -> RecorderSnapshot {
    RING.with(|r| r.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder and trace flags are process-global; share the span
    // tests' lock.
    use crate::span::{set_trace_enabled, TEST_TRACE_LOCK as LOCK};

    /// Runs `f` on a fresh thread whose (still empty) ring is sized to `cap`
    /// in both modes.
    fn on_fresh_thread<R: Send + 'static>(cap: usize, f: impl FnOnce() -> R + Send + 'static) -> R {
        let sized = move || {
            RING.with(|r| r.borrow_mut().caps = [cap, cap]);
            f()
        };
        std::thread::spawn(sized).join().unwrap()
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _l = LOCK.lock().unwrap();
        set_recorder_enabled(false);
        let _ = take_recorder();
        record_event(RecKind::Mark, "invisible", 1, 2);
        drop(crate::span("invisible"));
        let snap = take_recorder();
        assert!(snap.events.is_empty());
        assert_eq!(snap.seen, 0);
        set_recorder_enabled(true);
    }

    #[test]
    fn ring_wraps_with_exact_accounting_and_adaptive_stride() {
        let _l = LOCK.lock().unwrap();
        set_recorder_enabled(true);
        let snap = on_fresh_thread(8, || {
            for i in 0..1000u64 {
                offer_span("hot", i, i, 0, false);
            }
            take_recorder()
        });
        assert_eq!(snap.seen, 1000);
        assert_eq!(snap.seen, snap.recorded + snap.sampled_out, "exact accounting");
        assert_eq!(snap.events.len() as u64, snap.recorded - snap.overwritten);
        assert_eq!(snap.events.len(), 8, "ring stays at cap");
        assert!(snap.stride > 1, "sustained load must raise the stride");
        assert!(snap.stride <= MAX_STRIDE);
        assert!(snap.dropped() > 0);
        // Newest-first retention: the retained events are in time order and
        // end with the last recorded span.
        let ts: Vec<u64> = snap.events.iter().map(|e| e.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "oldest-first order: {ts:?}");
    }

    /// Both modes at their real sizes (2,048 sampled, 65,536 keep-all).
    #[test]
    fn keep_all_window_never_samples_and_counts_its_overflow() {
        let _l = LOCK.lock().unwrap();
        set_recorder_enabled(true);
        set_trace_enabled(true);
        let window = || {
            for i in 0..70_000u64 {
                offer_span("hot", i, i, 0, false);
                if i % 10_000 == 0 {
                    record_event(RecKind::Serve, "round", i, 0);
                }
            }
            take_recorder()
        };
        let (snap, next) = std::thread::spawn(move || {
            let snap = window();
            // The mode is per window: the next one reads the flag again.
            set_trace_enabled(false);
            (snap, window())
        })
        .join()
        .unwrap();
        assert_eq!(snap.seen, 70_007);
        assert_eq!(snap.sampled_out, 0, "keep-all never samples");
        assert_eq!(snap.recorded, snap.seen);
        assert_eq!(snap.stride, 1, "stride stays pinned");
        assert_eq!(snap.events.len(), 65_536);
        assert_eq!(snap.overwritten, 70_007 - 65_536, "overflow is counted, never silent");
        assert_eq!(snap.dropped(), snap.overwritten);
        assert_eq!(snap.events.last().map(|e| e.t_ns), Some(69_999), "the newest events stay");
        assert_eq!(next.events.len(), 2048);
        assert!(next.stride > 1 && next.sampled_out > 0, "the next window samples again");
        assert_eq!(next.seen, next.recorded + next.sampled_out);
        assert_eq!(next.events.len() as u64, next.recorded - next.overwritten);
    }

    #[test]
    fn lifecycle_events_are_never_sampled_and_take_resets_the_window() {
        let _l = LOCK.lock().unwrap();
        set_recorder_enabled(true);
        let (first, second) = on_fresh_thread(64, || {
            for _ in 0..10 {
                record_event(RecKind::Serve, "job-completed", 7, 3);
            }
            let first = take_recorder();
            record_event(RecKind::Comm, "allreduce", 4, 4096);
            (first, take_recorder())
        });
        assert_eq!(first.recorded, 10);
        assert_eq!(first.sampled_out, 0, "lifecycle events bypass sampling");
        assert_eq!(first.dropped(), 0);
        assert_eq!(second.seen, 1, "take resets the window");
        assert_eq!(second.stride, 1);
        assert_eq!(second.events[0].name, "allreduce");
        assert_eq!((second.events[0].a, second.events[0].b), (4, 4096));
    }

    #[test]
    fn snapshot_does_not_drain() {
        let _l = LOCK.lock().unwrap();
        set_recorder_enabled(true);
        let (snap, taken) = on_fresh_thread(64, || {
            record_event(RecKind::Mark, "m", 0, 0);
            (snapshot_recorder(), take_recorder())
        });
        assert_eq!(snap.events, taken.events);
        assert_eq!(snap.seen, taken.seen);
    }

    #[test]
    fn deterministic_counters_across_identical_runs() {
        let _l = LOCK.lock().unwrap();
        set_recorder_enabled(true);
        for keep_all in [false, true] {
            set_trace_enabled(keep_all);
            let run = || {
                on_fresh_thread(16, || {
                    for i in 0..500u64 {
                        offer_span("k", i, 10, 1, false);
                        if i % 50 == 0 {
                            record_event(RecKind::Serve, "round", i, 0);
                        }
                    }
                    let s = take_recorder();
                    (s.seen, s.recorded, s.sampled_out, s.overwritten, s.stride)
                })
            };
            assert_eq!(run(), run(), "count-based sampling must replay identically");
        }
        set_trace_enabled(false);
    }
}
