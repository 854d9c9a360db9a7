//! The simulated distributed-memory backend: one OS thread per MPI rank.
//!
//! Substitution note (see DESIGN.md §2): the paper runs on TACC clusters via
//! MPI. This backend reproduces the *semantics* of the MPI subset the solver
//! needs — buffered point-to-point sends with tag matching, barriers,
//! broadcast, allgather, alltoallv, allreduce, and communicator splits — on
//! shared memory, with per-rank traffic counters so the benchmark harness
//! can report communication volume and apply the paper's latency/bandwidth
//! model. Sends are eager, always: the paper's model (§III-C4) charges t_s
//! per message and t_w per byte and knows no second send protocol, so
//! neither does this runtime.
//!
//! ## Fault tolerance
//!
//! Three hardening layers live here (see README "Fault model & runbook"):
//!
//! * **Watchdog** — every blocking receive honors an optional timeout (env
//!   `DIFFREG_COMM_TIMEOUT_MS`, or [`ThreadComm::set_timeout`]). On expiry
//!   the call returns [`CommError::Timeout`] carrying a who-waits-on-whom
//!   table snapshotted from the communicator's shared blocked-state
//!   registry, instead of deadlocking the run.
//! * **Collective-contract checker** — on in every build. Every collective,
//!   the barrier included, stamps its internal messages with an op
//!   fingerprint and a per-communicator epoch; ranks calling collectives in
//!   different orders are reported as a precise
//!   [`CommError::ContractViolation`] instead of a type-mismatch panic deep
//!   inside `recv`. A collective facing point-to-point traffic on user tags
//!   is beyond it; the watchdog catches that.
//! * **Rank-failure containment** — every rank closure runs under
//!   [`run_gang`]: a panicking rank becomes a [`RankFailure`] report and its
//!   endpoints are dropped, so blocked peers observe [`CommError::PeerGone`]
//!   instead of hanging forever. [`run_threaded_checked`] returns the
//!   per-rank reports; [`run_threaded`] re-raises the first one.
//!
//! There is one way to wait, a channel receive: a barrier is a stamped
//! all-to-all of empty tokens, so it shares the watchdog and `PeerGone`
//! with every other collective.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::env::VarError;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::error::{tag_display, CollOp, CommError, RankFailure, EPOCH_MASK, OP_SHIFT, TAG_INTERNAL};
use crate::events::{derive_comm_uid, monotonic_ns, CommKey, CommOp, StreamPos};
use crate::ring::record_comm;
use crate::stats::CommStats;
use crate::traits::{or_abort, Comm, CommData, ReduceOp};

/// A message on the wire: tag, payload byte count, element type name, payload.
type Msg = (u64, usize, &'static str, Box<dyn Any + Send>);

/// Out-of-order buffer entries awaiting a matching-tag receive.
type PendingQueue = VecDeque<Msg>;

/// True if `tag` is a collective's internal message: every one carries an
/// op fingerprint and an epoch.
fn is_stamped(tag: u64) -> bool {
    tag >= TAG_INTERNAL
}

/// The wire tag for a collective message: its op fingerprint and epoch.
fn coll_tag(op: CollOp, epoch: u64) -> u64 {
    TAG_INTERNAL | ((op as u64) << OP_SHIFT) | (epoch & EPOCH_MASK)
}

/// What a rank is currently blocked on, for the watchdog's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockedOn {
    /// Not blocked inside the communicator.
    Running,
    /// Blocked in `recv(src, tag)`.
    Recv { src: usize, tag: u64 },
    /// The rank's closure panicked ([`run_gang`] containment).
    Dead,
}

/// Shared per-communicator blocked-state table (one slot per rank): what the
/// watchdog and the rank-failure report print.
struct Registry(Mutex<Vec<BlockedOn>>);

impl Registry {
    fn new(size: usize) -> Arc<Self> {
        Arc::new(Self(Mutex::new(vec![BlockedOn::Running; size])))
    }

    fn set(&self, rank: usize, state: BlockedOn) {
        // Proceed through lock poisoning: the registry must stay writable
        // and readable for the watchdog table even after a rank panicked.
        self.0.lock().unwrap_or_else(|e| e.into_inner())[rank] = state;
    }

    /// Renders the who-waits-on-whom table, one line per rank.
    fn table(&self) -> Vec<String> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .enumerate()
            .map(|(r, s)| match s {
                BlockedOn::Running => format!("rank {r}: running (not blocked in comm)"),
                BlockedOn::Recv { src, tag } => {
                    format!("rank {r}: blocked in recv(src={src}, tag={})", tag_display(*tag))
                }
                BlockedOn::Dead => format!("rank {r}: dead (panicked)"),
            })
            .collect()
    }
}

/// Parses `DIFFREG_COMM_TIMEOUT_MS`: unset, empty and `0` mean no watchdog;
/// anything else must be a whole number of milliseconds.
fn parse_timeout_ms(raw: Option<&str>) -> Result<Option<Duration>, String> {
    match raw.map(str::trim) {
        None | Some("") => Ok(None),
        Some(s) => s
            .parse::<u64>()
            .map(|ms| (ms > 0).then(|| Duration::from_millis(ms)))
            .map_err(|_| "a whole number of milliseconds (0 or empty = no watchdog)".into()),
    }
}

/// Turns one environment read into a setting. The variable below is a fault
/// *detector*: a typo in it must not quietly switch it off, so a value
/// `parse` rejects aborts, naming the variable, the value and the accepted
/// forms.
#[expect(
    clippy::panic,
    reason = "startup configuration error — there is no caller to hand a typed error to, and running on without the requested fault detector is the failure this guards against"
)]
fn env_setting<T>(
    name: &str,
    read: Result<String, VarError>,
    parse: fn(Option<&str>) -> Result<T, String>,
) -> T {
    let raw = match read {
        Ok(s) => Some(s),
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(s)) => Some(s.to_string_lossy().into_owned()),
    };
    parse(raw.as_deref()).unwrap_or_else(|accepted| {
        panic!("{name}={:?} is not a valid setting: expected {accepted}", raw.unwrap_or_default())
    })
}

/// Default watchdog timeout from `DIFFREG_COMM_TIMEOUT_MS`.
fn default_timeout() -> Option<Duration> {
    static CACHE: OnceLock<Option<Duration>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let read = std::env::var("DIFFREG_COMM_TIMEOUT_MS");
        env_setting("DIFFREG_COMM_TIMEOUT_MS", read, parse_timeout_ms)
    })
}

/// One rank's endpoint of a simulated MPI communicator.
///
/// Created by [`run_threaded`] / [`run_threaded_checked`] (the world
/// communicator), [`ThreadComm::new`] (a world of one on the calling
/// thread) or [`Comm::split`]. The endpoint is `Send` so it can be
/// moved into its rank's thread, but it is not `Sync`: each rank owns its
/// endpoint exclusively, exactly like an MPI process owns `MPI_COMM_WORLD`.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Msg>>,
    receivers: Vec<Receiver<Msg>>,
    /// Out-of-order buffer per source rank for tag matching.
    pending: RefCell<Vec<PendingQueue>>,
    registry: Arc<Registry>,
    stats: RefCell<CommStats>,
    /// Collective epoch counter (contract checker).
    epoch: Cell<u64>,
    /// Watchdog timeout for receives (None = wait forever).
    timeout: Cell<Option<Duration>>,
    /// Communicator uid for comm records (0 = world; splits derive theirs).
    comm_uid: u64,
    /// Per-`(send | recv, peer, tag)` message counters (p2p matching keys).
    p2p_seq: RefCell<BTreeMap<(CommOp, usize, u64), u64>>,
}

impl std::fmt::Debug for ThreadComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadComm").field("rank", &self.rank).field("size", &self.size).finish()
    }
}

/// The bundle of channel endpoints handed to one member of a new
/// communicator.
struct Package {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Msg>>,
    receivers: Vec<Receiver<Msg>>,
    registry: Arc<Registry>,
}

fn make_channel_matrix(size: usize) -> Vec<Package> {
    // chan[src][dst]; rank i keeps Sender of chan[i][*] and Receiver of chan[*][i].
    let mut tx: Vec<Vec<Sender<Msg>>> = (0..size).map(|_| Vec::with_capacity(size)).collect();
    let mut rx: Vec<Vec<Option<Receiver<Msg>>>> =
        (0..size).map(|_| (0..size).map(|_| None).collect()).collect();
    for (src, row) in tx.iter_mut().enumerate() {
        for dst_rx in rx.iter_mut() {
            let (s, r) = channel();
            row.push(s);
            dst_rx[src] = Some(r);
        }
    }
    let registry = Registry::new(size);
    tx.into_iter()
        .zip(rx)
        .enumerate()
        .map(|(rank, (senders, receivers))| Package {
            rank,
            size,
            senders,
            receivers: receivers.into_iter().map(Option::unwrap).collect(),
            registry: registry.clone(),
        })
        .collect()
}

impl Default for ThreadComm {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadComm {
    /// A one-rank world on the calling thread: `mpirun -np 1` without a
    /// spawned thread. Its collectives short-circuit, and a receive from
    /// itself that nothing queued can satisfy is a [`CommError::Deadlock`].
    pub fn new() -> Self {
        Self::from_package(make_channel_matrix(1).swap_remove(0))
    }

    fn from_package(p: Package) -> Self {
        let size = p.size;
        Self {
            rank: p.rank,
            size,
            senders: p.senders,
            receivers: p.receivers,
            pending: RefCell::new((0..size).map(|_| VecDeque::new()).collect()),
            registry: p.registry,
            stats: RefCell::new(CommStats::default()),
            epoch: Cell::new(0),
            timeout: Cell::new(default_timeout()),
            comm_uid: 0,
            p2p_seq: RefCell::new(BTreeMap::new()),
        }
    }

    /// Sets the watchdog timeout for receives (`None` = wait forever). Must
    /// be called *collectively* (same value on every rank) before the ranks
    /// exchange traffic; defaults to `DIFFREG_COMM_TIMEOUT_MS` from the
    /// environment.
    pub fn set_timeout(&self, timeout: Option<Duration>) {
        self.timeout.set(timeout);
    }

    /// Current watchdog timeout.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout.get()
    }

    /// Writes one comm record into the calling thread's ring.
    fn push_record(&self, op: CommOp, pos: StreamPos, bytes: u64, t0_ns: u64, blocked_s: f64) {
        let (comm, csize, rank) = (self.comm_uid, self.size, self.rank);
        let blocked_ns = (blocked_s.max(0.0) * 1e9) as u64;
        let key = CommKey { op, comm, csize, rank, pos, blocked_ns };
        record_comm(t0_ns, monotonic_ns().saturating_sub(t0_ns), bytes, key);
    }

    /// Start time of a send or receive on `tag` that the ring will record
    /// (`None` for a collective's internal stamped messages).
    fn p2p_start(&self, tag: u64) -> Option<u64> {
        (tag < TAG_INTERNAL).then(monotonic_ns)
    }

    /// Numbers a completed user-tag send or receive on its `(peer, tag)`
    /// stream and records it when it has a start time.
    fn record_p2p(&self, op: CommOp, peer: usize, tag: u64, bytes: usize, t0: Option<u64>, blocked_s: f64) {
        if tag >= TAG_INTERNAL {
            return;
        }
        let seq = {
            let mut seqs = self.p2p_seq.borrow_mut();
            let next = seqs.entry((op, peer, tag)).or_insert(0);
            *next += 1;
            *next - 1
        };
        if let Some(t0) = t0 {
            self.push_record(op, StreamPos::P2p { peer, tag, seq }, bytes as u64, t0, blocked_s);
        }
    }

    /// Records one collective around `f`: duration, epoch (read *after* `f`,
    /// which bumps it first thing), bytes sent and time blocked during it.
    /// Collective records may nest (`split` runs an `allgather` inside).
    fn with_coll_record<R>(&self, op: CommOp, f: impl FnOnce() -> R) -> R {
        let counters = || {
            let s = self.stats.borrow();
            (s.blocked_seconds, s.bytes_sent)
        };
        let (t0, (b0, s0)) = (monotonic_ns(), counters());
        let r = f();
        let (b1, s1) = counters();
        let pos = StreamPos::Collective { epoch: self.epoch.get() };
        self.push_record(op, pos, s1.saturating_sub(s0), t0, b1 - b0);
        r
    }

    fn record_send(&self, bytes: usize) {
        let mut s = self.stats.borrow_mut();
        s.messages_sent += 1;
        s.bytes_sent += bytes as u64;
    }

    fn record_recv(&self, bytes: usize) {
        let mut s = self.stats.borrow_mut();
        s.messages_received += 1;
        s.bytes_received += bytes as u64;
    }

    /// Advances the collective epoch; returns the epoch of this collective.
    fn bump_epoch(&self) -> u64 {
        let e = self.epoch.get().wrapping_add(1);
        self.epoch.set(e);
        e
    }

    /// [`Comm::try_send`] that counts `bytes` as the payload. Every send
    /// counts its data's size except a split's endpoint hand-off, which
    /// moves channel handles, not data, and counts 0 (it stays one
    /// message).
    fn try_send_counted<T: CommData>(
        &self,
        dst: usize,
        tag: u64,
        data: Vec<T>,
        bytes: usize,
    ) -> Result<(), CommError> {
        assert!(dst < self.size, "send to out-of-range rank {dst}");
        if dst != self.rank {
            self.record_send(bytes);
        }
        let t0 = self.p2p_start(tag);
        let sent = self
            .senders[dst]
            .send((tag, bytes, std::any::type_name::<T>(), Box::new(data)))
            .map_err(|_| CommError::PeerGone { rank: self.rank, peer: dst });
        if sent.is_ok() {
            // Sends are buffered: they never block.
            self.record_p2p(CommOp::Send, dst, tag, bytes, t0, 0.0);
        }
        sent
    }

    /// Receives the raw payload for `(src, tag)`. The *entire* call — pending
    /// scan included — is accounted to `blocked_seconds`.
    fn try_recv_raw(
        &self,
        src: usize,
        tag: u64,
    ) -> Result<(usize, &'static str, Box<dyn Any + Send>), CommError> {
        assert!(src < self.size, "recv from out-of-range rank {src}");
        let t0_ns = self.p2p_start(tag);
        let t0 = Instant::now();
        let r = self.recv_raw_inner(src, tag);
        let waited = t0.elapsed().as_secs_f64();
        self.stats.borrow_mut().blocked_seconds += waited;
        // Count receive traffic symmetrically with `record_send`: both the
        // direct channel path and the pending-queue pop end up here, and
        // self-receives are excluded just like self-sends.
        if let Ok((bytes, _, _)) = &r {
            if src != self.rank {
                self.record_recv(*bytes);
            }
            self.record_p2p(CommOp::Recv, src, tag, *bytes, t0_ns, waited);
        }
        r
    }

    fn recv_raw_inner(
        &self,
        src: usize,
        tag: u64,
    ) -> Result<(usize, &'static str, Box<dyn Any + Send>), CommError> {
        let expect_stamped = is_stamped(tag);
        let violation = |observed: u64| CommError::ContractViolation {
            rank: self.rank,
            src,
            expected: tag_display(tag),
            observed: tag_display(observed),
        };
        {
            let mut pend = self.pending.borrow_mut();
            if let Some(pos) = pend[src].iter().position(|m| m.0 == tag) {
                #[expect(
                    clippy::unwrap_used,
                    reason = "`pos` was produced by `position` on the same deque one line up"
                )]
                let (_, bytes, name, payload) = pend[src].remove(pos).unwrap();
                return Ok((bytes, name, payload));
            }
            if expect_stamped {
                // Channels are FIFO per (src, dst) and collectives execute in
                // program order, so a buffered *collective* message from this
                // src with a different fingerprint means the ranks' collective
                // sequences diverged.
                if let Some(m) = pend[src].iter().find(|m| is_stamped(m.0)) {
                    return Err(violation(m.0));
                }
            }
        }
        if src == self.rank {
            return self.try_recv_self(tag);
        }
        self.registry.set(self.rank, BlockedOn::Recv { src, tag });
        let deadline = self.timeout.get().map(|t| Instant::now() + t);
        let rx = &self.receivers[src];
        let result = loop {
            let received = match deadline {
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
            };
            let msg = match received {
                Ok(m) => m,
                Err(RecvTimeoutError::Disconnected) => {
                    break Err(CommError::PeerGone { rank: self.rank, peer: src })
                }
                Err(RecvTimeoutError::Timeout) => {
                    break Err(CommError::Timeout {
                        rank: self.rank,
                        waiting_on: format!("recv(src={src}, tag={})", tag_display(tag)),
                        table: self.registry.table(),
                    })
                }
            };
            if msg.0 == tag {
                break Ok((msg.1, msg.2, msg.3));
            }
            if expect_stamped && is_stamped(msg.0) {
                break Err(violation(msg.0));
            }
            self.pending.borrow_mut()[src].push_back(msg);
        };
        self.registry.set(self.rank, BlockedOn::Running);
        result
    }

    /// A receive from this rank itself, once the pending queue holds no
    /// match. Only this rank holds the sender of its self-channel, so what
    /// the channel does not hold now can never arrive: drain it into the
    /// pending queue, and a receive still unmatched is a deadlock, reported
    /// at once on every world size.
    fn try_recv_self(&self, tag: u64) -> Result<(usize, &'static str, Box<dyn Any + Send>), CommError> {
        let rank = self.rank;
        let mut pend = self.pending.borrow_mut();
        while let Ok(msg) = self.receivers[rank].try_recv() {
            if msg.0 == tag {
                return Ok((msg.1, msg.2, msg.3));
            }
            pend[rank].push_back(msg);
        }
        let queued: Vec<String> = pend[rank].iter().map(|m| tag_display(m.0)).collect();
        Err(CommError::Deadlock {
            rank,
            waiting_on: format!("(src={rank}, tag={})", tag_display(tag)),
            queued: if queued.is_empty() { "<empty>".into() } else { queued.join(", ") },
        })
    }

    /// The one reduction behind `try_allreduce` and `allreduce_usize`: rank 0
    /// gathers every contribution in rank order, folds them elementwise with
    /// `combine` and sends the result back. `send` / `result` carry each
    /// leg's contract fingerprint and its label in a length-mismatch error.
    fn try_root_reduce<T: CommData + Copy>(
        &self,
        vals: &mut [T],
        combine: impl Fn(T, T) -> T,
        send: (CollOp, &'static str),
        result: (CollOp, &'static str),
    ) -> Result<(), CommError> {
        let e = self.bump_epoch();
        if self.size == 1 {
            return Ok(());
        }
        let send_tag = coll_tag(send.0, e);
        let result_tag = coll_tag(result.0, e);
        let check = |src: usize, what: &'static str, expected: usize, got: usize| {
            if expected == got {
                return Ok(());
            }
            Err(CommError::LengthMismatch { rank: self.rank, src: Some(src), what, expected, got })
        };
        if self.rank == 0 {
            let mut acc = vals.to_vec();
            for src in 1..self.size {
                let part: Vec<T> = self.try_recv(src, send_tag)?;
                check(src, send.1, acc.len(), part.len())?;
                for (a, b) in acc.iter_mut().zip(part) {
                    *a = combine(*a, b);
                }
            }
            for dst in 1..self.size {
                self.try_send(dst, result_tag, acc.clone())?;
            }
            vals.copy_from_slice(&acc);
        } else {
            self.try_send(0, send_tag, vals.to_vec())?;
            let acc: Vec<T> = self.try_recv(0, result_tag)?;
            check(0, result.1, vals.len(), acc.len())?;
            vals.copy_from_slice(&acc);
        }
        Ok(())
    }
}

impl Comm for ThreadComm {
    type Sub = ThreadComm;

    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn try_barrier(&self) -> Result<(), CommError> {
        self.with_coll_record(CommOp::Barrier, || {
            let tag = coll_tag(CollOp::Barrier, self.bump_epoch());
            let peers = || (0..self.size).filter(|&r| r != self.rank);
            // Every rank waits on every peer directly, so a dead peer wakes
            // each waiter with `PeerGone` naming it. A failed send does not
            // stop the others: the live peers still get their tokens.
            let sent = peers()
                .map(|dst| self.try_send(dst, tag, Vec::<u8>::new()))
                .fold(Ok(()), Result::and);
            for src in peers() {
                self.try_recv::<u8>(src, tag)?;
            }
            sent
        })
    }

    fn try_send<T: CommData>(&self, dst: usize, tag: u64, data: Vec<T>) -> Result<(), CommError> {
        let bytes = data.len() * std::mem::size_of::<T>();
        self.try_send_counted(dst, tag, data, bytes)
    }

    fn try_recv<T: CommData>(&self, src: usize, tag: u64) -> Result<Vec<T>, CommError> {
        let (bytes, name, payload) = self.try_recv_raw(src, tag)?;
        payload.downcast::<Vec<T>>().map(|b| *b).map_err(|_| CommError::TypeMismatch {
            rank: self.rank,
            src,
            tag,
            expected: std::any::type_name::<T>(),
            found: name,
            found_bytes: bytes,
        })
    }

    fn broadcast<T: CommData + Clone>(&self, root: usize, data: &mut Vec<T>) {
        self.with_coll_record(CommOp::Broadcast, || {
            let e = self.bump_epoch();
            if self.size == 1 {
                return;
            }
            let tag = coll_tag(CollOp::Broadcast, e);
            if self.rank == root {
                for dst in 0..self.size {
                    if dst != root {
                        self.send(dst, tag, data.clone());
                    }
                }
            } else {
                *data = self.recv(root, tag);
            }
        })
    }

    fn allgather<T: CommData + Clone>(&self, data: Vec<T>) -> Vec<Vec<T>> {
        self.with_coll_record(CommOp::Allgather, || {
            let e = self.bump_epoch();
            let tag = coll_tag(CollOp::Allgather, e);
            let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size);
            for dst in 0..self.size {
                if dst != self.rank {
                    self.send(dst, tag, data.clone());
                }
            }
            for src in 0..self.size {
                if src == self.rank {
                    out.push(data.clone());
                } else {
                    out.push(self.recv(src, tag));
                }
            }
            out
        })
    }

    fn try_alltoallv<T: CommData>(&self, parts: Vec<Vec<T>>) -> Result<Vec<Vec<T>>, CommError> {
        self.with_coll_record(CommOp::Alltoallv, || {
            let e = self.bump_epoch();
            if parts.len() != self.size {
                return Err(CommError::LengthMismatch {
                    rank: self.rank,
                    src: None,
                    what: "alltoallv part count",
                    expected: self.size,
                    got: parts.len(),
                });
            }
            let tag = coll_tag(CollOp::Alltoallv, e);
            let mut own: Vec<T> = Vec::new();
            for (dst, part) in parts.into_iter().enumerate() {
                if dst == self.rank {
                    own = part;
                } else {
                    self.try_send(dst, tag, part)?;
                }
            }
            let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size);
            for src in 0..self.size {
                if src == self.rank {
                    out.push(std::mem::take(&mut own));
                } else {
                    out.push(self.try_recv(src, tag)?);
                }
            }
            Ok(out)
        })
    }

    fn try_allreduce(&self, vals: &mut [f64], op: ReduceOp) -> Result<(), CommError> {
        self.with_coll_record(CommOp::Allreduce, || {
            self.try_root_reduce(
                vals,
                |a, b| op.apply(a, b),
                (CollOp::ReduceSend, "allreduce contribution"),
                (CollOp::ReduceResult, "allreduce result"),
            )
        })
    }

    fn allreduce_usize(&self, vals: &mut [usize], op: ReduceOp) {
        let reduced = self.with_coll_record(CommOp::AllreduceUsize, || {
            self.try_root_reduce(
                vals,
                |a, b| op.apply_usize(a, b),
                (CollOp::ReduceUsizeSend, "allreduce_usize contribution"),
                (CollOp::ReduceUsizeResult, "allreduce_usize result"),
            )
        });
        #[expect(
            clippy::panic,
            reason = "infallible bridge — aborts with the typed error's rendering; the trait has no fallible usize reduction"
        )]
        reduced.unwrap_or_else(|e| panic!("{e}"));
    }

    #[expect(clippy::unwrap_used, reason = "the leader sends exactly one package per member")]
    fn split(&self, color: usize, key: usize) -> ThreadComm {
        self.with_coll_record(CommOp::Split, || {
            // Gather (color, key, old_rank) from everyone, compute the group
            // deterministically, then the group leader mints the channel matrix
            // and distributes each member's endpoints over the parent comm.
            let infos = self.allgather(vec![(color, key, self.rank)]);
            let mut group: Vec<(usize, usize, usize)> =
                infos.into_iter().map(|v| v[0]).filter(|&(c, _, _)| c == color).collect();
            group.sort_by_key(|&(_, k, r)| (k, r));
            #[expect(
                clippy::unwrap_used,
                reason = "self.rank is in `group` by construction — its (color, key, rank) triple was allgathered above"
            )]
            let my_new_rank = group.iter().position(|&(_, _, r)| r == self.rank).unwrap();
            let leader_old_rank = group[0].2;
            // Every rank bumps the Split epoch, senders and receivers alike, so
            // the epoch counters stay aligned across the communicator.
            let e = self.bump_epoch();
            let tag = coll_tag(CollOp::Split, e);
            // Member-stable sub-communicator uid: every member shares
            // (parent uid, split epoch, color), so all derive the same uid.
            let sub_uid = derive_comm_uid(self.comm_uid, e, color);
            let inherit = |mut sub: ThreadComm| {
                sub.timeout.set(self.timeout.get());
                sub.comm_uid = sub_uid;
                sub
            };
            if my_new_rank == 0 {
                let mut packages = make_channel_matrix(group.len());
                // Hand out packages to the other members in reverse so that
                // `pop` yields the highest new rank first.
                for (new_rank, &(_, _, old_rank)) in group.iter().enumerate().rev() {
                    #[expect(
                        clippy::unwrap_used,
                        reason = "make_channel_matrix returns exactly group.len() packages, popped once per member"
                    )]
                    let pkg = packages.pop().unwrap();
                    debug_assert_eq!(pkg.rank, new_rank);
                    if new_rank == 0 {
                        return inherit(ThreadComm::from_package(pkg));
                    }
                    or_abort(self.try_send_counted(old_rank, tag, vec![pkg], 0));
                }
                unreachable!("leader always returns its own package");
            } else {
                let mut pkgs: Vec<Package> = self.recv(leader_old_rank, tag);
                inherit(ThreadComm::from_package(pkgs.pop().unwrap()))
            }
        })
    }

    fn stats(&self) -> CommStats {
        *self.stats.borrow()
    }

    fn reset_stats(&self) {
        *self.stats.borrow_mut() = CommStats::default();
    }
}

/// Renders a caught panic payload as text.
fn payload_text(p: Box<dyn Any + Send>) -> String {
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".into(),
        },
    }
}

/// Runs an SPMD closure on `p` ranks (one thread each) over a fresh world
/// communicator, returning the per-rank results indexed by rank.
///
/// This is the `mpirun -np p` of the simulated machine. A panicking rank
/// aborts the whole run (like MPI aborting the job): every rank runs under
/// the containment of [`run_threaded_checked`], so peers blocked on the dead
/// rank unwind instead of hanging, and the first [`RankFailure`] in rank
/// order — rank, original payload, blocked-rank table — is re-raised here.
#[expect(clippy::panic, reason = "re-raising a rank panic is this harness's documented contract")]
pub fn run_threaded<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&ThreadComm) -> R + Send + Sync,
{
    let results: Result<Vec<R>, RankFailure> = run_threaded_checked(p, f).into_iter().collect();
    results.unwrap_or_else(|failure| panic!("rank thread panicked: {failure}"))
}

/// Like [`run_threaded`], but a panicking rank is reported as a
/// [`RankFailure`] in its result slot instead of tearing down the whole run:
/// each rank thread runs its closure under [`run_gang`] on the world
/// communicator. Ranks that complete normally return `Ok` — their results
/// survive a peer's death.
#[expect(
    clippy::expect_used,
    reason = "run_gang already contains rank panics; a panic here is a harness bug"
)]
pub fn run_threaded_checked<R, F>(p: usize, f: F) -> Vec<Result<R, RankFailure>>
where
    R: Send,
    F: Fn(&ThreadComm) -> R + Send + Sync,
{
    assert!(p > 0, "need at least one rank");
    // The world is built on the calling thread, so a malformed
    // `DIFFREG_COMM_*` setting aborts here, before any rank starts.
    let world: Vec<ThreadComm> =
        make_channel_matrix(p).into_iter().map(ThreadComm::from_package).collect();
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            world.into_iter().map(|comm| scope.spawn(move || run_gang(comm, f))).collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked outside containment")).collect()
    })
}

/// Runs `f` over an *owned* communicator with rank-kill containment, without
/// consuming the calling thread — the one containment body: the world ranks
/// of [`run_threaded_checked`] and the split-off gangs of a rank-pool runtime
/// both run under it.
///
/// If `f` panics (an injected kill, a watchdog timeout, a solver bug), the
/// panic is caught and the communicator's endpoints are dropped — so peers
/// blocked on the dead rank observe [`CommError::PeerGone`] and end in their
/// own contained failures — while the calling thread, the parent
/// communicator, and every sibling gang continue untouched. Sub-communicators `f` creates by splitting further
/// are unwound (and their endpoints closed) with `f`'s stack.
///
/// On success the communicator is dropped too: a gang is single-use, the
/// next job gets a fresh split.
pub fn run_gang<R>(
    comm: ThreadComm,
    f: impl FnOnce(&ThreadComm) -> R,
) -> Result<R, RankFailure> {
    let rank = comm.rank;
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm))) {
        Ok(r) => Ok(r),
        Err(payload) => {
            // Snapshot where the peers were *before* advertising our own
            // death, then unblock them.
            let context = format!("state at failure:\n  {}", comm.registry.table().join("\n  "));
            comm.registry.set(rank, BlockedOn::Dead);
            drop(comm); // closes senders: blocked peers see PeerGone
            Err(RankFailure { rank, payload: payload_text(payload), context })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::take_recorder;

    #[test]
    fn world_basics() {
        let out = run_threaded(4, |c| {
            assert_eq!(c.size(), 4);
            c.barrier();
            c.rank() * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn p2p_roundtrip() {
        run_threaded(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0f64, 2.0]);
                let back: Vec<f64> = c.recv(1, 8);
                assert_eq!(back, vec![3.0]);
            } else {
                let msg: Vec<f64> = c.recv(0, 7);
                assert_eq!(msg, vec![1.0, 2.0]);
                c.send(0, 8, vec![3.0f64]);
            }
        });
    }

    #[test]
    fn out_of_order_tags() {
        run_threaded(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![1u8]);
                c.send(1, 2, vec![2u8]);
            } else {
                assert_eq!(c.recv::<u8>(0, 2), vec![2]);
                assert_eq!(c.recv::<u8>(0, 1), vec![1]);
            }
        });
    }

    #[test]
    fn broadcast_and_allgather() {
        run_threaded(3, |c| {
            let mut v = if c.rank() == 1 { vec![42u32, 43] } else { vec![] };
            c.broadcast(1, &mut v);
            assert_eq!(v, vec![42, 43]);
            let g = c.allgather(vec![c.rank() as u32]);
            assert_eq!(g, vec![vec![0], vec![1], vec![2]]);
        });
    }

    #[test]
    fn alltoallv_exchanges() {
        run_threaded(3, |c| {
            let parts: Vec<Vec<usize>> =
                (0..3).map(|d| vec![c.rank() * 100 + d; c.rank() + 1]).collect();
            let got = c.alltoallv(parts);
            for (src, part) in got.iter().enumerate() {
                assert_eq!(part.len(), src + 1);
                assert!(part.iter().all(|&v| v == src * 100 + c.rank()));
            }
        });
    }

    #[test]
    fn allreduce_ops() {
        run_threaded(4, |c| {
            let mut v = vec![c.rank() as f64, 1.0];
            c.allreduce(&mut v, ReduceOp::Sum);
            assert_eq!(v, vec![6.0, 4.0]);
            let mut m = vec![c.rank() as f64];
            c.allreduce(&mut m, ReduceOp::Max);
            assert_eq!(m, vec![3.0]);
            let mut u = vec![c.rank() + 1];
            c.allreduce_usize(&mut u, ReduceOp::Min);
            assert_eq!(u, vec![1]);
        });
        run_threaded(3, |c| {
            for (op, expect) in
                [(ReduceOp::Min, [2, 5]), (ReduceOp::Max, [4, 7]), (ReduceOp::Sum, [9, 18])]
            {
                let mut u = vec![c.rank() + 2, 7 - c.rank()];
                c.allreduce_usize(&mut u, op);
                assert_eq!(u, expect, "{op:?}");
            }
        });
    }

    #[test]
    fn split_into_rows() {
        // 2x2 grid: color = row, key = column.
        run_threaded(4, |c| {
            let row = c.rank() / 2;
            let col = c.rank() % 2;
            let rc = c.split(row, col);
            assert_eq!(rc.size(), 2);
            assert_eq!(rc.rank(), col);
            // Reduce within the row only.
            let s = rc.sum_f64(c.rank() as f64);
            let expect = if row == 0 { 0.0 + 1.0 } else { 2.0 + 3.0 };
            assert_eq!(s, expect);
        });
    }

    /// A split's bytes are its `(color, key, rank)` allgather, 24 bytes to
    /// each peer, on every member: the leader's endpoint hand-off is a
    /// message without payload.
    #[test]
    fn split_bytes_are_its_allgather_on_every_member() {
        let events = run_threaded(4, |c| {
            let _row = c.split(c.rank() / 2, c.rank() % 2);
            take_recorder()
        });
        for (rank, evs) in events.iter().enumerate() {
            let split: Vec<u64> =
                evs.comm_records().filter(|(_, k)| k.op == CommOp::Split).map(|(e, _)| e.b).collect();
            assert_eq!(split, [24 * 3], "rank {rank}");
        }
    }

    #[test]
    fn nested_split() {
        run_threaded(8, |c| {
            let half = c.split(c.rank() / 4, c.rank() % 4);
            let quarter = half.split(half.rank() / 2, half.rank() % 2);
            assert_eq!(quarter.size(), 2);
            let s = quarter.sum_f64(1.0);
            assert_eq!(s, 2.0);
        });
    }

    #[test]
    fn stats_count_traffic() {
        let stats = run_threaded(2, |c| {
            c.send(1 - c.rank(), 1, vec![0u64; 16]);
            let _: Vec<u64> = c.recv(1 - c.rank(), 1);
            c.stats()
        });
        for s in stats {
            assert_eq!(s.messages_sent, 1);
            assert_eq!(s.bytes_sent, 128);
            assert_eq!(s.messages_received, 1);
            assert_eq!(s.bytes_received, 128);
        }
    }

    #[test]
    fn stats_count_pending_queue_receives() {
        // Rank 0 sends two tags; rank 1 receives them out of order, so the
        // tag-2 message is buffered in the pending queue before its recv.
        // Both the direct and the pending-pop path must accrue recv stats.
        let stats = run_threaded(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0u64; 16]); // 128 bytes
                c.send(1, 2, vec![0u64; 4]); // 32 bytes
            } else {
                let b: Vec<u64> = c.recv(0, 2); // buffers tag 1 in pending
                let a: Vec<u64> = c.recv(0, 1); // pops from pending
                assert_eq!((a.len(), b.len()), (16, 4));
            }
            c.stats()
        });
        assert_eq!(stats[0].messages_sent, 2);
        assert_eq!(stats[0].bytes_sent, 160);
        assert_eq!(stats[0].messages_received, 0);
        assert_eq!(stats[1].messages_received, 2);
        assert_eq!(stats[1].bytes_received, 160);
    }

    #[test]
    fn self_messages_do_not_count_as_traffic() {
        let stats = run_threaded(1, |c| {
            c.send(0, 7, vec![1.0f64; 8]);
            let _: Vec<f64> = c.recv(0, 7);
            c.stats()
        });
        assert_eq!(stats[0].messages_sent, 0);
        assert_eq!(stats[0].messages_received, 0);
        assert_eq!(stats[0].bytes_received, 0);
    }

    #[test]
    fn one_rank_self_messages_match_mismatch_and_deadlock() {
        let c = ThreadComm::new();
        c.send(0, 4, vec![1u8]);
        c.send(0, 9, vec![2u32, 3, 4]);
        let err = c.try_recv::<u8>(0, 7).unwrap_err();
        let (waiting_on, queued) = ("(src=0, tag=7)".into(), "4, 9".into());
        assert_eq!(err, CommError::Deadlock { rank: 0, waiting_on, queued });
        assert!(err.to_string().contains("self-receive would deadlock"), "{err}");
        // The drained messages still match, out of tag order; a wrong element
        // type reports the sender's byte count.
        let err = c.try_recv::<f64>(0, 9).unwrap_err();
        assert!(matches!(err, CommError::TypeMismatch { found_bytes: 12, .. }), "{err:?}");
        assert_eq!(c.recv::<u8>(0, 4), vec![1]);
        let err = c.try_alltoallv(vec![vec![1u8], vec![2u8]]).unwrap_err();
        assert!(matches!(err, CommError::LengthMismatch { expected: 1, got: 2, .. }), "{err:?}");
    }

    #[test]
    fn self_receive_with_nothing_queued_is_a_deadlock_on_two_ranks_too() {
        // A blocking receive would end in the watchdog's Timeout instead.
        let errs = run_threaded(2, |c| {
            c.set_timeout(Some(Duration::from_millis(50)));
            c.try_recv::<u8>(c.rank(), 5).unwrap_err()
        });
        for (rank, err) in errs.into_iter().enumerate() {
            let (waiting_on, queued) = (format!("(src={rank}, tag=5)"), "<empty>".into());
            assert_eq!(err, CommError::Deadlock { rank, waiting_on, queued });
        }
    }

    #[test]
    fn max_and_min_keep_a_nan_from_another_rank() {
        let out = run_threaded(2, |c| {
            let v = if c.rank() == 1 { f64::NAN } else { 1.0 };
            (c.max_f64(v), c.min_f64(v))
        });
        assert!(out.iter().all(|(max, min)| max.is_nan() && min.is_nan()), "{out:?}");
    }

    #[test]
    fn sendrecv_shift() {
        run_threaded(3, |c| {
            let right = (c.rank() + 1) % 3;
            let left = (c.rank() + 2) % 3;
            let got = c.sendrecv(right, vec![c.rank()], left, 9);
            assert_eq!(got, vec![left]);
        });
    }

    #[test]
    fn type_mismatch_carries_sender_byte_count() {
        let out = run_threaded(2, |c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![1u32, 2, 3]);
                String::new()
            } else {
                let err = c.try_recv::<f64>(0, 3).unwrap_err();
                err.to_string()
            }
        });
        assert!(out[1].contains("12 bytes"), "{}", out[1]);
        assert!(out[1].contains("Vec<f64>"), "{}", out[1]);
        assert!(out[1].contains("u32"), "{}", out[1]);
    }

    #[test]
    fn allreduce_length_mismatch_is_structured() {
        for (usize_flavour, what) in
            [(false, "allreduce contribution"), (true, "allreduce_usize contribution")]
        {
            let errs = run_threaded_checked(2, |c| {
                let len = 2 + c.rank();
                if usize_flavour {
                    c.allreduce_usize(&mut vec![0usize; len], ReduceOp::Sum);
                } else {
                    c.allreduce(&mut vec![0.0f64; len], ReduceOp::Sum);
                }
            });
            // Rank 0 detects the bad contribution length from rank 1.
            let failure = errs[0].as_ref().unwrap_err();
            assert!(failure.payload.contains(&format!("{what} length mismatch")), "{failure}");
            assert!(failure.payload.contains("rank 1): expected 2, got 3"), "{failure}");
        }
    }

    #[test]
    fn env_settings_parse_or_say_why_not() {
        assert_eq!(parse_timeout_ms(Some("2500")), Ok(Some(Duration::from_millis(2500))));
        assert_eq!(parse_timeout_ms(Some(" 40 ")), Ok(Some(Duration::from_millis(40))));
        for off in [None, Some(""), Some("  "), Some("0")] {
            assert_eq!(parse_timeout_ms(off), Ok(None), "{off:?}");
        }
        for bad in ["30s", "abc", "-5", "1.5"] {
            let why = parse_timeout_ms(Some(bad)).unwrap_err();
            assert!(why.contains("milliseconds"), "{bad}: {why}");
        }
    }

    #[test]
    #[should_panic(expected = "DIFFREG_COMM_TIMEOUT_MS=\"30s\" is not a valid setting")]
    fn malformed_env_setting_aborts_naming_the_variable() {
        env_setting("DIFFREG_COMM_TIMEOUT_MS", Ok("30s".into()), parse_timeout_ms);
    }

    #[test]
    fn checked_run_contains_single_rank_panic() {
        let out = run_threaded_checked(4, |c| {
            c.set_timeout(Some(Duration::from_secs(5)));
            if c.rank() == 1 {
                panic!("boom");
            }
            if c.rank() == 3 {
                // Blocks on the dead rank: must observe PeerGone, not hang.
                let _: Vec<u8> = c.recv(1, 42);
            }
            c.rank()
        });
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        assert_eq!(*out[2].as_ref().unwrap(), 2);
        let f1 = out[1].as_ref().unwrap_err();
        assert_eq!(f1.rank, 1);
        assert_eq!(f1.payload, "boom");
        let f3 = out[3].as_ref().unwrap_err();
        assert_eq!(f3.rank, 3);
        assert!(f3.payload.contains("peer rank 1 is gone"), "{}", f3.payload);
    }

    #[test]
    fn barrier_poison_unblocks_peers() {
        let out = run_threaded_checked(3, |c| {
            if c.rank() == 2 {
                panic!("dead before barrier");
            }
            c.barrier(); // must not hang: poisoned by rank 2
        });
        assert!(out[0].is_err() && out[1].is_err() && out[2].is_err());
        assert!(out[0].as_ref().unwrap_err().payload.contains("peer rank 2 is gone"));
    }

    #[test]
    fn watchdog_times_out_recv_with_table() {
        let out = run_threaded(2, |c| {
            // Timeouts are per-rank local state: rank 1 gets a short watchdog,
            // rank 0 a generous one so it never fires first.
            c.set_timeout(Some(if c.rank() == 1 {
                Duration::from_millis(100)
            } else {
                Duration::from_secs(30)
            }));
            if c.rank() == 1 {
                let err = c.try_recv::<u8>(0, 99).unwrap_err();
                // Let rank 0 finish.
                c.send(0, 1, vec![0u8]);
                Some(err)
            } else {
                let _: Vec<u8> = c.recv(1, 1);
                None
            }
        });
        let err = out[1].clone().unwrap();
        match &err {
            CommError::Timeout { rank, waiting_on, table } => {
                assert_eq!(*rank, 1);
                assert!(waiting_on.contains("src=0"), "{waiting_on}");
                assert_eq!(table.len(), 2);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(err.to_string().contains("blocked-rank table"));
    }

    #[test]
    fn records_cover_p2p_and_collectives() {
        let logs = run_threaded(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0f64; 4]);
            } else {
                let _: Vec<f64> = c.recv(0, 7);
            }
            c.barrier();
            let mut v = vec![1.0];
            c.allreduce(&mut v, ReduceOp::Sum);
            let sub = c.split(c.rank() % 2, 0);
            let _ = sub.sum_f64(1.0);
            take_recorder()
        });
        let find = |rank: usize, op: CommOp| logs[rank].comm_records().find(|(_, k)| k.op == op).unwrap();
        // p2p matching key: (comm, src, dst, tag, seq) identical on both ends.
        let (send_ev, send) = find(0, CommOp::Send);
        assert_eq!((send.p2p(), send_ev.b), (Some((1, 7, 0)), 32));
        assert_eq!(&*send_ev.name, "send");
        let (recv_ev, recv) = find(1, CommOp::Recv);
        assert_eq!((recv.p2p(), recv_ev.b), (Some((0, 7, 0)), 32));
        assert_eq!((send.comm, recv.comm), (0, 0));
        // Collective records: same (comm, op, epoch) group on every rank.
        for op in [CommOp::Barrier, CommOp::Allreduce, CommOp::Allgather, CommOp::Split] {
            let (e0, e1) = (find(0, op).1, find(1, op).1);
            assert_eq!(e0.epoch(), e1.epoch(), "{op:?} epochs align");
            assert_eq!((e0.comm, e0.csize), (e1.comm, 2), "{op:?} comm/size align");
            assert!(e0.epoch().is_some());
        }
        // Sub-communicator records land in the rank's ring; the two singleton
        // subcomms (color = rank) have distinct, member-derived uids.
        let sub = |r: usize| {
            logs[r].comm_records().find(|(_, k)| k.op == CommOp::Allreduce && k.csize == 1).unwrap().1
        };
        assert_ne!(sub(0).comm, 0);
        assert_ne!(sub(0).comm, sub(1).comm, "different colors get different uids");
        // No internal stamped messages leak into the p2p stream.
        let mut tags = logs.iter().flat_map(|l| l.comm_records().filter_map(|(_, k)| k.p2p()));
        assert!(tags.all(|(_, tag, _)| tag < TAG_INTERNAL));
    }

    #[test]
    fn records_cover_pending_queue_path() {
        let logs = run_threaded(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![1u8]);
                c.send(1, 2, vec![2u8, 3]);
            } else {
                let _: Vec<u8> = c.recv(0, 2); // buffers tag 1 in pending
                let _: Vec<u8> = c.recv(0, 1); // pops from pending
            }
            take_recorder()
        });
        let recvs: Vec<(StreamPos, u64)> =
            logs[1].comm_records().filter(|(_, k)| k.op == CommOp::Recv).map(|(e, k)| (k.pos, e.b)).collect();
        let pos = |tag| StreamPos::P2p { peer: 0, tag, seq: 0 };
        assert_eq!(recvs, [(pos(2), 2), (pos(1), 1)], "pending-queue pops record too");
        assert_eq!(logs[0].comm_records().filter(|(_, k)| k.op == CommOp::Send).count(), 2);
    }
}
