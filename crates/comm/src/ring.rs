//! The per-thread event ring: the one place a closed span, a lifecycle
//! event or a completed comm op is stored ([`RecEvent`]), with one drain
//! ([`take_recorder`]) and no gate: every event is offered to the calling
//! thread's ring. [`crate::ThreadComm`] writes into it directly; a
//! sub-communicator runs on the thread of the rank that split it, so its
//! records land in that rank's ring. `diffreg-telemetry` re-exports it and
//! owns its JSONL codec (`recorder-rank<k>.jsonl`) and the span guard.
//!
//! The ring runs in one of two modes, fixed per window (a window starts at
//! the first event after the thread starts or after a drain, and reads the
//! thread's trace mode once, there). The mode belongs to the thread, as
//! every setting of an MPI rank belongs to its process: a new thread starts
//! sampled, and [`set_trace_enabled`] switches only the thread that calls
//! it.
//!
//! * **sampled** (the default): the newest 2,048 events, the span stream
//!   downsampled under sustained load — the flight recorder that is cheap
//!   enough to never turn off, so when an incident fires the last moments
//!   before it are on hand with no tracing enabled.
//! * **keep-all** (while [`set_trace_enabled`] is on for the thread):
//!   65,536 events, stride pinned to 1 — the full trace the doctor and the
//!   Chrome export read. Overflow evicts the oldest event and is counted in
//!   `overwritten`, never silent.
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
//!   ([`record_event`]) and comm records ([`record_comm`]) always record: a
//!   collective sampled out on one rank would look like a rank that never
//!   completed it.
//!
//! The per-event cost is measured by the `telemetry/recorder_overhead`
//! bench records.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::events::{monotonic_ns, CommKey};

/// Upper bound on the adaptive span-sampling stride (1 in `MAX_STRIDE`
/// spans recorded under the heaviest sustained load).
const MAX_STRIDE: u64 = 1 << 10;

/// What an event in the ring describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecKind {
    /// A closed span (`t_ns` = start, `a` = duration ns, `b` = the span's
    /// count, 0 for a span that counts nothing).
    Span,
    /// A completed comm op, laid out like a span (name = the op's wire name,
    /// `b` = payload bytes) with its matching key in [`RecEvent::key`].
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

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<RecKind> {
        [RecKind::Span, RecKind::Comm, RecKind::Serve, RecKind::Solver, RecKind::Mark]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// One recorded event: a timestamp, a kind, a name, two kind-defined
/// payload words and, on a comm record only, its matching key. Names are
/// static when recorded and owned when read back from a bundle; the two
/// compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecEvent {
    /// Nanoseconds on the shared [`monotonic_ns`] epoch.
    pub t_ns: u64,
    /// Event kind.
    pub kind: RecKind,
    /// Event name (span name, lifecycle transition, comm op).
    pub name: Cow<'static, str>,
    /// First payload word (kind-defined; see [`RecKind`]).
    pub a: u64,
    /// Second payload word (kind-defined).
    pub b: u64,
    /// The matching key of a [`RecKind::Comm`] record; `None` on every
    /// other kind.
    pub key: Option<CommKey>,
}

impl RecEvent {
    /// End of the interval a span or comm record covers (`t_ns + a`).
    pub fn end_ns(&self) -> u64 {
        self.t_ns.saturating_add(self.a)
    }
}

/// Everything one thread's ring held at snapshot time, plus the exact
/// accounting of what it did not hold. This is what a rank hands the
/// harness, what `recorder-rank<k>.jsonl` stores, and what the bundle
/// reader returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecorderSnapshot {
    /// Small stable per-process thread index (not the OS tid).
    pub thread: u64,
    /// Retained events, oldest first, in completion order (spans in the
    /// order they *closed*: children before parents).
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
    pub fn spans(&self) -> impl Iterator<Item = (u64, u64, &str)> {
        self.events
            .iter()
            .filter(|e| e.kind == RecKind::Span)
            .map(|e| (e.t_ns, e.end_ns(), &*e.name))
    }

    /// The retained comm records with their keys, in completion order.
    pub fn comm_records(&self) -> impl Iterator<Item = (&RecEvent, &CommKey)> {
        self.events.iter().filter_map(|e| Some((e, e.key.as_ref()?)))
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Events a sampled window holds.
const SAMPLED_CAP: usize = 2048;
/// Events a keep-all window holds before it counts evictions.
const KEEP_ALL_CAP: usize = 1 << 16;

/// Whether tracing is on for the calling thread (default **off**): its
/// ring's next window keeps everything.
#[inline]
pub fn trace_enabled() -> bool {
    RING.with(|r| r.borrow().trace)
}

/// Switches tracing on or off for the calling thread only. Its ring reads
/// the mode at the first event of each window (thread start, or after a
/// [`take_recorder`]), so a rank sets it before its first comm op.
pub fn set_trace_enabled(on: bool) {
    RING.with(|r| r.borrow_mut().trace = on);
}

struct Ring {
    thread: u64,
    /// Ring sizes of the two modes, indexed by `keep_all` (tests shrink them).
    caps: [usize; 2],
    /// The thread's trace mode, as [`set_trace_enabled`] left it.
    trace: bool,
    /// Mode of the current window, read from `trace` at its first event.
    keep_all: bool,
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
            trace: false,
            keep_all: false,
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
            self.keep_all = self.trace;
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

/// Admits and stores one event that is never sampled out.
fn push_unsampled(ev: RecEvent) {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        r.admit();
        r.push(ev);
    });
}

/// Records one lifecycle event (never sampled — only the span stream is).
#[inline]
pub fn record_event(kind: RecKind, name: &'static str, a: u64, b: u64) {
    let t_ns = monotonic_ns();
    push_unsampled(RecEvent { t_ns, kind, name: Cow::Borrowed(name), a, b, key: None });
}

/// Records one completed comm op that started at `t_ns`, lasted `dur_ns`
/// and moved `bytes` (never sampled): [`crate::ThreadComm`]'s sink.
#[inline]
pub fn record_comm(t_ns: u64, dur_ns: u64, bytes: u64, key: CommKey) {
    let name = Cow::Borrowed(key.op.name());
    push_unsampled(RecEvent { t_ns, kind: RecKind::Comm, name, a: dur_ns, b: bytes, key: Some(key) });
}

/// Appends one closed span carrying `count`: the span guard's sink. Subject
/// to adaptive sampling in a sampled window; exact counts either way.
#[inline]
pub fn offer_span(name: &'static str, t_ns: u64, dur_ns: u64, count: u64) {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        r.admit();
        if r.seen % r.stride != 0 {
            r.sampled_out += 1;
            return;
        }
        let name = Cow::Borrowed(name);
        r.push(RecEvent { t_ns, kind: RecKind::Span, name, a: dur_ns, b: count, key: None });
    });
}

/// Non-destructive copy of the current thread's ring and counters.
pub fn snapshot_recorder() -> RecorderSnapshot {
    RING.with(|r| r.borrow().snapshot())
}

/// Drains the current thread's ring: returns everything retained plus the
/// exact counters, then resets the window (counters to zero, stride to 1,
/// mode re-read from the thread's trace mode at the next event). A rank calls this
/// at the end of its SPMD closure, the serve loop at attempt boundaries so
/// each capture accounts for exactly one attempt.
pub fn take_recorder() -> RecorderSnapshot {
    RING.with(|r| r.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CommOp, StreamPos};
    use crate::{run_threaded, Comm};

    /// Runs `f` on a fresh thread whose (still empty) ring is sized to `cap`
    /// in both modes.
    fn on_fresh_thread<R: Send + 'static>(cap: usize, f: impl FnOnce() -> R + Send + 'static) -> R {
        let sized = move || {
            RING.with(|r| r.borrow_mut().caps = [cap, cap]);
            f()
        };
        std::thread::spawn(sized).join().unwrap()
    }

    fn barrier_key(epoch: u64) -> CommKey {
        let pos = StreamPos::Collective { epoch };
        CommKey { op: CommOp::Barrier, comm: 0, csize: 1, rank: 0, pos, blocked_ns: 0 }
    }

    /// One drain returns the rank's spans, lifecycle events and comm
    /// records — a sub-communicator's too — in completion order.
    #[test]
    fn one_drain_returns_every_kind_in_completion_order() {
        let snaps = run_threaded(2, |c| {
            let _ = take_recorder();
            record_event(RecKind::Serve, "attempt", 1, 0);
            let t0 = monotonic_ns();
            let sub = c.split(0, c.rank());
            offer_span("outer", t0, monotonic_ns() - t0, 0);
            sub.send(1 - sub.rank(), 5, vec![1u8; 3]);
            let _: Vec<u8> = sub.recv(1 - sub.rank(), 5);
            record_event(RecKind::Serve, "attempt-done", 1, 0);
            take_recorder()
        });
        use RecKind as K;
        for (rank, snap) in snaps.iter().enumerate() {
            let got: Vec<(RecKind, &str)> = snap.events.iter().map(|e| (e.kind, &*e.name)).collect();
            // `split` runs an allgather inside; the inner op completes first.
            let want = [(K::Serve, "attempt"), (K::Comm, "allgather"), (K::Comm, "split"), (K::Span, "outer")];
            assert_eq!(got[..4], want);
            assert_eq!(got[4..], [(K::Comm, "send"), (K::Comm, "recv"), (K::Serve, "attempt-done")]);
            assert_eq!((snap.seen, snap.dropped()), (7, 0));
            assert!(snap.events.iter().all(|e| e.key.is_some() == (e.kind == K::Comm)));
            let (send, key) = snap.comm_records().nth(2).unwrap();
            assert_eq!(key.pos, StreamPos::P2p { peer: 1 - rank, tag: 5, seq: 0 });
            assert_eq!((send.b, key.csize, key.rank, key.blocked_ns), (3, 2, rank, 0));
        }
        // The sub-communicator's uid, the same on both members, is not the world's.
        let uid = |r: usize| snaps[r].comm_records().nth(2).map(|(_, k)| k.comm);
        assert!(uid(0) == uid(1) && uid(0) != Some(0));
    }

    #[test]
    fn ring_wraps_with_exact_accounting_and_adaptive_stride() {
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
        assert!(snap.dropped() > 0);
        // Newest-first retention: the retained events are in time order and
        // end with the last recorded span.
        let ts: Vec<u64> = snap.events.iter().map(|e| e.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "oldest-first order: {ts:?}");
    }

    /// Both modes at their real sizes (2,048 sampled, 65,536 keep-all).
    #[test]
    fn keep_all_window_never_samples_and_counts_its_overflow() {
        let window = || {
            for i in 0..70_000u64 {
                offer_span("hot", i, i, 0);
                if i % 10_000 == 0 {
                    record_event(RecKind::Serve, "round", i, 0);
                }
            }
            take_recorder()
        };
        let (snap, next) = std::thread::spawn(move || {
            set_trace_enabled(true);
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
    fn lifecycle_events_and_comm_records_are_never_sampled_and_take_resets_the_window() {
        let (snap, first, second) = on_fresh_thread(64, || {
            for i in 0..10 {
                record_event(RecKind::Serve, "job-completed", 7, 3);
                record_comm(i, 1, 0, barrier_key(i));
            }
            let (snap, first) = (snapshot_recorder(), take_recorder());
            record_event(RecKind::Solver, "allreduce", 4, 4096);
            (snap, first, take_recorder())
        });
        assert_eq!(snap, first, "a snapshot does not drain");
        assert_eq!(first.recorded, 20);
        assert_eq!(first.sampled_out, 0, "lifecycle events and comm records bypass sampling");
        assert_eq!(first.dropped(), 0);
        assert_eq!(first.comm_records().count(), 10);
        assert_eq!(second.seen, 1, "take resets the window");
        assert_eq!(second.stride, 1);
        assert_eq!(second.events[0].name, "allreduce");
        assert_eq!((second.events[0].a, second.events[0].b), (4, 4096));
    }

    #[test]
    fn deterministic_counters_across_identical_runs() {
        for keep_all in [false, true] {
            let run = || {
                on_fresh_thread(16, move || {
                    set_trace_enabled(keep_all);
                    for i in 0..500u64 {
                        offer_span("k", i, 10, 1);
                        if i % 50 == 0 {
                            record_event(RecKind::Serve, "round", i, 0);
                            record_comm(i, 1, 8, barrier_key(i));
                        }
                    }
                    let s = take_recorder();
                    (s.seen, s.recorded, s.sampled_out, s.overwritten, s.stride)
                })
            };
            assert_eq!(run(), run(), "count-based sampling must replay identically");
        }
    }

    /// The trace mode belongs to the thread that sets it: a peer thread
    /// recording at the same time stays sampled.
    #[test]
    fn trace_mode_is_per_thread() {
        const SPANS: u64 = 3000;
        let gate = std::sync::Arc::new(std::sync::Barrier::new(2));
        let offer = |keep_all: bool, gate: std::sync::Arc<std::sync::Barrier>| {
            move || {
                if keep_all {
                    set_trace_enabled(true);
                }
                gate.wait();
                for i in 0..SPANS {
                    offer_span("hot", i, 1, 0);
                }
                take_recorder()
            }
        };
        let a = std::thread::spawn(offer(true, std::sync::Arc::clone(&gate)));
        let b = std::thread::spawn(offer(false, gate));
        let (a, b) = (a.join().unwrap(), b.join().unwrap());
        assert_eq!((a.events.len() as u64, a.sampled_out, a.stride), (SPANS, 0, 1), "A keeps all");
        assert!(b.events.len() <= SAMPLED_CAP && b.dropped() > 0, "B samples: {} kept", b.events.len());
    }
}
