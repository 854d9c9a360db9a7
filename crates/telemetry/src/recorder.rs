//! The always-on flight recorder: fixed-memory per-thread ring buffers
//! holding a compact recent-history event stream, cheap enough to leave
//! enabled in release builds.
//!
//! Where [`crate::span`] is the *opt-in, full-fidelity* tracer (off by
//! default, unbounded-within-cap, Chrome-trace export), the recorder is the
//! *always-on, lossy-by-design* black box: it keeps the newest few thousand
//! events per thread in a ring, downsamples the high-rate span stream under
//! load, and accounts for every event it did not keep — so when an incident
//! fires, the last moments before it are available with zero manual tracing
//! enabled, and the capture says exactly how complete it is.
//!
//! Design constraints (ISSUE 8 tentpole):
//! * **Always on, near-zero cost.** Enabled by default; disable with
//!   [`set_recorder_enabled`]. The per-event cost is gated by the
//!   `telemetry/recorder_overhead` bench records.
//! * **Fixed memory.** Each thread's ring holds at most 2048 events; the
//!   ring never grows.
//! * **Adaptive sampling.** Only the span stream is sampled: when the ring
//!   keeps wrapping at the current stride, the stride doubles (up to
//!   [`MAX_STRIDE`]), widening the time window the ring covers; a drain
//!   resets the stride. Lifecycle events ([`record_event`]) always record.
//! * **Exact drop accounting.** `seen = recorded + sampled_out` and
//!   `retained = recorded - overwritten` hold exactly at any snapshot, so a
//!   capture is never silently incomplete.
//! * **Deterministic counters.** Sampling and eviction depend only on event
//!   *counts*, never on wall-clock time — replaying a seeded campaign
//!   reproduces identical counter values (timestamps excepted).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use diffreg_comm::monotonic_ns;

/// Upper bound on the adaptive span-sampling stride (1 in `MAX_STRIDE`
/// spans recorded under the heaviest sustained load).
pub const MAX_STRIDE: u64 = 1 << 10;

/// What an event in the recorder stream describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecKind {
    /// A closed span (downsampled; `a` = duration ns, `b` = depth).
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

/// One recorded event: a timestamp, a kind, a static name, and two
/// kind-defined payload words. Compact on purpose — the recorder trades
/// fidelity for being cheap enough to never turn off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecEvent {
    /// Nanoseconds on the shared [`monotonic_ns`] epoch.
    pub t_ns: u64,
    /// Event kind.
    pub kind: RecKind,
    /// Static event name (span name, comm op, lifecycle transition).
    pub name: &'static str,
    /// First payload word (kind-defined; see [`RecKind`]).
    pub a: u64,
    /// Second payload word (kind-defined).
    pub b: u64,
}

/// Everything one thread's ring held at snapshot time, plus the exact
/// accounting of what it did not hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecorderSnapshot {
    /// Small stable per-process recorder thread index.
    pub thread: u64,
    /// Retained events, oldest first.
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
    /// `true` when every offered event is present in `events` (nothing
    /// sampled out, nothing overwritten).
    pub fn complete(&self) -> bool {
        self.sampled_out == 0 && self.overwritten == 0
    }
}

static REC_ENABLED: AtomicBool = AtomicBool::new(true);
static NEXT_REC_THREAD: AtomicU64 = AtomicU64::new(0);

/// Events one thread's ring holds.
const REC_CAP: usize = 2048;

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
    cap: usize,
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
            thread: NEXT_REC_THREAD.fetch_add(1, Ordering::Relaxed),
            cap: REC_CAP,
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

    fn push(&mut self, ev: RecEvent) {
        self.recorded += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
            return;
        }
        self.buf[self.head] = ev;
        self.head = (self.head + 1) % self.cap;
        self.overwritten += 1;
        self.wraps_at_stride += 1;
        if self.wraps_at_stride >= self.cap as u64 && self.stride < MAX_STRIDE {
            // Sustained load: a whole ring of history was lost at this
            // stride. Halve the span rate to double the covered window.
            self.stride *= 2;
            self.wraps_at_stride = 0;
        }
    }

    fn ordered_events(&self) -> Vec<RecEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn snapshot(&self) -> RecorderSnapshot {
        RecorderSnapshot {
            thread: self.thread,
            events: self.ordered_events(),
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
        r.seen += 1;
        r.push(RecEvent { t_ns, kind, name, a, b });
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

/// Offers one closed span to the recorder (called from the span tracer's
/// guard drop). Subject to adaptive sampling; exact counts either way.
#[inline]
pub(crate) fn offer_span(name: &'static str, t_ns: u64, dur_ns: u64, depth: u32) {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        r.seen += 1;
        if r.seen % r.stride != 0 {
            r.sampled_out += 1;
            return;
        }
        r.push(RecEvent { t_ns, kind: RecKind::Span, name, a: dur_ns, b: u64::from(depth) });
    });
}

/// Non-destructive copy of the current thread's ring and counters.
pub fn snapshot_recorder() -> RecorderSnapshot {
    RING.with(|r| r.borrow().snapshot())
}

/// Drains the current thread's ring: returns everything retained plus the
/// exact counters, then resets the window (counters to zero, stride to 1).
/// The serve loop calls this at attempt boundaries so each capture accounts
/// for exactly one attempt.
pub fn take_recorder() -> RecorderSnapshot {
    RING.with(|r| r.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder flag is process-global; share the span tests' lock.
    use crate::span::TEST_TRACE_LOCK as LOCK;

    /// Runs `f` on a fresh thread whose (still empty) ring is sized to `cap`.
    fn on_fresh_thread<R: Send + 'static>(cap: usize, f: impl FnOnce() -> R + Send + 'static) -> R {
        let sized = move || {
            RING.with(|r| r.borrow_mut().cap = cap);
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
                offer_span("hot", i, i, 0);
            }
            take_recorder()
        });
        assert_eq!(snap.seen, 1000);
        assert_eq!(snap.seen, snap.recorded + snap.sampled_out, "exact accounting");
        assert_eq!(snap.events.len() as u64, snap.recorded - snap.overwritten);
        assert_eq!(snap.events.len(), 8, "ring stays at cap");
        assert!(snap.stride > 1, "sustained load must raise the stride");
        assert!(snap.stride <= MAX_STRIDE);
        assert!(!snap.complete());
        // Newest-first retention: the retained events are in time order and
        // end with the last recorded span.
        let ts: Vec<u64> = snap.events.iter().map(|e| e.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "oldest-first order: {ts:?}");
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
        assert!(first.complete());
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
        let run = || {
            on_fresh_thread(16, || {
                for i in 0..500u64 {
                    offer_span("k", i, 10, 1);
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
}
