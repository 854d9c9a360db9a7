//! Chaos-injection communicator decorator.
//!
//! [`ChaosComm`] wraps any [`Comm`] and perturbs its *timing* without ever
//! perturbing its *semantics*: per-message latency injection, tag-safe
//! delivery reordering (messages with equal `(dst, tag)` keep their relative
//! order, so tag-matched receives still see FIFO streams), bounded rank
//! stalls, and kill-at-Nth-op faults. Every decision is drawn from a seeded
//! [`diffreg_testkit::Rng`] stream forked per rank, so a fault schedule is a
//! pure function of `(seed, rank, program)` — the same seed replays the same
//! schedule, byte for byte ([`ChaosComm::schedule`]).
//!
//! Because only timing is perturbed, a correct SPMD program must produce
//! *bitwise identical* results under chaos; the resilience suites use that
//! as their oracle. Combined with the watchdog and
//! [`crate::run_threaded_checked`], injected stalls and kills surface as
//! structured [`crate::CommError`] / [`crate::RankFailure`] reports instead
//! of hangs.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::time::Duration;

use diffreg_testkit::Rng;

use crate::error::CommError;
use crate::stats::CommStats;
use crate::traits::{Comm, CommData, ReduceOp};

/// The seeded fault schedule of a [`ChaosComm`].
///
/// All probabilities are per chaos point (one per user-level comm call).
/// The default injects nothing; enable faults with the builder methods.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed of the fault schedule; forked per rank.
    pub seed: u64,
    /// Probability of sleeping before a comm call.
    pub latency_prob: f64,
    /// Maximum injected latency in microseconds (uniform in `1..=max`).
    pub max_latency_us: u64,
    /// Probability that a `send` is deferred (delivered later, possibly
    /// after younger messages with *different* tags).
    pub reorder_prob: f64,
    /// Maximum number of simultaneously deferred sends.
    pub max_deferred: usize,
    /// Rank that suffers a one-shot bounded stall (`None` = nobody).
    pub stall_rank: Option<usize>,
    /// Op index (1-based) at which the stall fires.
    pub stall_at_op: u64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Rank that is killed (panics) mid-run (`None` = nobody).
    pub kill_rank: Option<usize>,
    /// Op index (1-based) at which the kill fires.
    pub kill_at_op: u64,
    /// `(rank, epoch)`: kill `rank` exactly when it issues its `epoch`-th
    /// *collective* call (1-based) through this decorator. Epoch-keyed
    /// faults place rank death at a reproducible point of the collective
    /// schedule — no seed-hunting over raw op counters, since every rank of
    /// a correct SPMD program reaches collective epoch `e` together.
    pub kill_rank_at_epoch: Option<(usize, u64)>,
    /// `(rank, epoch)`: stall `rank` for [`ChaosConfig::stall_epoch_ms`]
    /// milliseconds at its `epoch`-th collective call.
    pub stall_rank_at_epoch: Option<(usize, u64)>,
    /// Duration of the epoch-keyed stall in milliseconds.
    pub stall_epoch_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            latency_prob: 0.0,
            max_latency_us: 200,
            reorder_prob: 0.0,
            max_deferred: 8,
            stall_rank: None,
            stall_at_op: 0,
            stall_ms: 0,
            kill_rank: None,
            kill_at_op: 0,
            kill_rank_at_epoch: None,
            stall_rank_at_epoch: None,
            stall_epoch_ms: 0,
        }
    }
}

impl ChaosConfig {
    /// A schedule with the given seed and no faults enabled.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Enables latency injection: with probability `prob`, sleep a uniform
    /// `1..=max_us` microseconds before a comm call.
    pub fn with_latency(mut self, prob: f64, max_us: u64) -> Self {
        self.latency_prob = prob;
        self.max_latency_us = max_us.max(1);
        self
    }

    /// Enables tag-safe send reordering with the given per-send probability.
    pub fn with_reorder(mut self, prob: f64) -> Self {
        self.reorder_prob = prob;
        self
    }

    /// Stalls `rank` for `ms` milliseconds at its `at_op`-th comm call.
    pub fn with_stall(mut self, rank: usize, at_op: u64, ms: u64) -> Self {
        self.stall_rank = Some(rank);
        self.stall_at_op = at_op;
        self.stall_ms = ms;
        self
    }

    /// Kills `rank` (panics its closure) at its `at_op`-th comm call.
    pub fn with_kill(mut self, rank: usize, at_op: u64) -> Self {
        self.kill_rank = Some(rank);
        self.kill_at_op = at_op;
        self
    }

    /// Kills `rank` exactly at its `epoch`-th collective call (1-based).
    pub fn with_kill_at_epoch(mut self, rank: usize, epoch: u64) -> Self {
        self.kill_rank_at_epoch = Some((rank, epoch));
        self
    }

    /// Stalls `rank` for `ms` milliseconds exactly at its `epoch`-th
    /// collective call (1-based).
    pub fn with_stall_at_epoch(mut self, rank: usize, epoch: u64, ms: u64) -> Self {
        self.stall_rank_at_epoch = Some((rank, epoch));
        self.stall_epoch_ms = ms;
        self
    }
}

/// A send deferred by the reordering fault, replayed at the next flush.
struct Deferred<C> {
    dst: usize,
    tag: u64,
    send: Box<dyn FnOnce(&C)>,
}

/// A [`Comm`] decorator that injects a seeded, deterministic fault schedule.
///
/// Wrap a communicator (commonly `&ThreadComm` inside a
/// [`crate::run_threaded`] closure — a `&C` is itself a [`Comm`]) and hand
/// the wrapper to SPMD code unchanged. Splitting yields
/// `ChaosComm<C::Sub>` with a seed derived from this rank's schedule stream
/// (kill/stall faults stay on the parent communicator only).
pub struct ChaosComm<C: Comm> {
    inner: C,
    cfg: ChaosConfig,
    rng: RefCell<Rng>,
    ops: Cell<u64>,
    epochs: Cell<u64>,
    outbox: RefCell<VecDeque<Deferred<C>>>,
    log: RefCell<Vec<String>>,
}

impl<C: Comm> ChaosComm<C> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: C, cfg: ChaosConfig) -> Self {
        let rng = Rng::new(cfg.seed).fork(inner.rank() as u64 + 1);
        Self {
            inner,
            cfg,
            rng: RefCell::new(rng),
            ops: Cell::new(0),
            epochs: Cell::new(0),
            outbox: RefCell::new(VecDeque::new()),
            log: RefCell::new(Vec::new()),
        }
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The fault schedule configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Number of *collective* calls (barrier, broadcast, allgather,
    /// alltoallv, allreduce, split) executed so far — the decorator's
    /// collective epoch, which the `*_at_epoch` faults key on.
    pub fn epochs_executed(&self) -> u64 {
        self.epochs.get()
    }

    /// The schedule log so far: one line per chaos point recording the op
    /// index, the call, and any injected faults. A pure function of
    /// `(seed, rank, program)` — byte-identical across replays.
    pub fn schedule(&self) -> Vec<String> {
        self.log.borrow().clone()
    }

    /// One chaos point: counts the op (and, for collectives, the collective
    /// epoch), then (in fixed draw order, so the stream never depends on
    /// which faults are enabled) injects kill, stall, and latency faults,
    /// and records the schedule line. Epoch-keyed faults only ever trigger
    /// at collective points — every rank of a correct SPMD program counts
    /// collectives identically, which is what makes their placement exact.
    #[expect(
        clippy::panic,
        reason = "the injected kill IS the fault under test — panicking here is the feature"
    )]
    fn chaos_point(&self, desc: &str, collective: bool) {
        let op = self.ops.get() + 1;
        self.ops.set(op);
        let epoch = if collective {
            let e = self.epochs.get() + 1;
            self.epochs.set(e);
            e
        } else {
            0
        };
        let rank = self.inner.rank();
        let (lat_hit, lat_us) = {
            let mut rng = self.rng.borrow_mut();
            let hit = rng.chance(self.cfg.latency_prob);
            let us = rng.index(self.cfg.max_latency_us.max(1) as usize) as u64 + 1;
            (hit, us)
        };
        if self.cfg.kill_rank == Some(rank) && op == self.cfg.kill_at_op {
            self.log.borrow_mut().push(format!("op{op} {desc} KILL"));
            panic!("chaos: injected kill on rank {rank} at op {op} ({desc})");
        }
        if collective && self.cfg.kill_rank_at_epoch == Some((rank, epoch)) {
            self.log.borrow_mut().push(format!("op{op} epoch{epoch} {desc} KILL"));
            panic!("chaos: injected kill on rank {rank} at collective epoch {epoch} ({desc})");
        }
        let stalled = (self.cfg.stall_rank == Some(rank) && op == self.cfg.stall_at_op)
            || (collective && self.cfg.stall_rank_at_epoch == Some((rank, epoch)));
        let stall_ms = if self.cfg.stall_rank == Some(rank) && op == self.cfg.stall_at_op {
            self.cfg.stall_ms
        } else {
            self.cfg.stall_epoch_ms
        };
        let mut line = if collective {
            format!("op{op} epoch{epoch} {desc}")
        } else {
            format!("op{op} {desc}")
        };
        if stalled {
            line.push_str(&format!(" stall={stall_ms}ms"));
        }
        if lat_hit {
            line.push_str(&format!(" latency={lat_us}us"));
        }
        self.log.borrow_mut().push(line);
        if stalled {
            std::thread::sleep(Duration::from_millis(stall_ms));
        }
        if lat_hit {
            std::thread::sleep(Duration::from_micros(lat_us));
        }
    }

    /// Delivers every deferred send. Group order is shuffled (seeded), but
    /// messages sharing a `(dst, tag)` stream keep their relative order, so
    /// tag-matched receives observe FIFO semantics.
    fn flush_outbox(&self) {
        let deferred: Vec<Deferred<C>> = self.outbox.borrow_mut().drain(..).collect();
        if deferred.is_empty() {
            return;
        }
        let mut groups: Vec<(usize, u64)> = Vec::new();
        for d in &deferred {
            if !groups.contains(&(d.dst, d.tag)) {
                groups.push((d.dst, d.tag));
            }
        }
        {
            let mut rng = self.rng.borrow_mut();
            for i in (1..groups.len()).rev() {
                let j = rng.index(i + 1);
                groups.swap(i, j);
            }
        }
        self.log.borrow_mut().push(format!(
            "flush {} deferred, group order {:?}",
            deferred.len(),
            groups
        ));
        let mut buckets: Vec<Vec<Deferred<C>>> = groups.iter().map(|_| Vec::new()).collect();
        for d in deferred {
            #[expect(
                clippy::unwrap_used,
                reason = "`groups` was built from this same deferred set — every (dst, tag) is present"
            )]
            let gi = groups.iter().position(|&g| g == (d.dst, d.tag)).unwrap();
            buckets[gi].push(d);
        }
        for bucket in buckets {
            for d in bucket {
                (d.send)(&self.inner);
            }
        }
    }
}

impl<C: Comm> Drop for ChaosComm<C> {
    fn drop(&mut self) {
        // Deliver stragglers so peers blocked on a deferred message are not
        // stranded when this rank's program ends. Skipped during a panic
        // (the containment layer handles teardown there).
        if !std::thread::panicking() {
            self.flush_outbox();
        }
    }
}

impl<C: Comm> std::fmt::Debug for ChaosComm<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosComm")
            .field("rank", &self.inner.rank())
            .field("seed", &self.cfg.seed)
            .field("ops", &self.ops.get())
            .finish()
    }
}

impl<C: Comm> Comm for ChaosComm<C> {
    type Sub = ChaosComm<C::Sub>;

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn try_barrier(&self) -> Result<(), CommError> {
        self.chaos_point("barrier", true);
        self.flush_outbox();
        self.inner.try_barrier()
    }

    /// The one infallible method a backend overrides: under the reorder
    /// fault it may park the message in the outbox, where
    /// [`Comm::try_send`] deliberately never defers.
    fn send<T: CommData>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.chaos_point(&format!("send(dst={dst}, tag={tag})"), false);
        let reorder_hit = self.rng.borrow_mut().chance(self.cfg.reorder_prob);
        let mut outbox = self.outbox.borrow_mut();
        // A send must be deferred if an older message on the same (dst, tag)
        // stream is still deferred (FIFO within the stream)…
        let must_defer = outbox.iter().any(|d| d.dst == dst && d.tag == tag);
        // …and may be deferred by the seeded reorder fault.
        if must_defer || (reorder_hit && outbox.len() < self.cfg.max_deferred) {
            self.log.borrow_mut().push(format!("  deferred send(dst={dst}, tag={tag})"));
            outbox.push_back(Deferred {
                dst,
                tag,
                send: Box::new(move |c: &C| c.send(dst, tag, data)),
            });
        } else {
            drop(outbox);
            self.inner.send(dst, tag, data);
        }
    }

    fn try_send<T: CommData>(&self, dst: usize, tag: u64, data: Vec<T>) -> Result<(), CommError> {
        // Fallible sends are never deferred: the caller wants the error now.
        self.chaos_point(&format!("send(dst={dst}, tag={tag})"), false);
        self.flush_outbox();
        self.inner.try_send(dst, tag, data)
    }

    fn try_recv<T: CommData>(&self, src: usize, tag: u64) -> Result<Vec<T>, CommError> {
        self.chaos_point(&format!("recv(src={src}, tag={tag})"), false);
        self.flush_outbox();
        self.inner.try_recv(src, tag)
    }

    fn broadcast<T: CommData + Clone>(&self, root: usize, data: &mut Vec<T>) {
        self.chaos_point(&format!("broadcast(root={root})"), true);
        self.flush_outbox();
        self.inner.broadcast(root, data);
    }

    fn allgather<T: CommData + Clone>(&self, data: Vec<T>) -> Vec<Vec<T>> {
        self.chaos_point("allgather", true);
        self.flush_outbox();
        self.inner.allgather(data)
    }

    fn try_alltoallv<T: CommData>(&self, parts: Vec<Vec<T>>) -> Result<Vec<Vec<T>>, CommError> {
        self.chaos_point("alltoallv", true);
        self.flush_outbox();
        self.inner.try_alltoallv(parts)
    }

    fn try_allreduce(&self, vals: &mut [f64], op: ReduceOp) -> Result<(), CommError> {
        self.chaos_point("allreduce", true);
        self.flush_outbox();
        self.inner.try_allreduce(vals, op)
    }

    fn allreduce_usize(&self, vals: &mut [usize], op: ReduceOp) {
        self.chaos_point("allreduce_usize", true);
        self.flush_outbox();
        self.inner.allreduce_usize(vals, op);
    }

    fn split(&self, color: usize, key: usize) -> ChaosComm<C::Sub> {
        self.chaos_point(&format!("split(color={color})"), true);
        self.flush_outbox();
        let sub = self.inner.split(color, key);
        // Derive the sub-schedule seed from this rank's stream so replays
        // stay deterministic; kill/stall faults do not follow into subs
        // (their op counters restart and would re-fire on every split).
        let sub_seed = self.rng.borrow_mut().next_u64();
        let mut cfg = self.cfg;
        cfg.seed = sub_seed;
        cfg.kill_rank = None;
        cfg.stall_rank = None;
        cfg.kill_rank_at_epoch = None;
        cfg.stall_rank_at_epoch = None;
        ChaosComm::new(sub, cfg)
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::run_threaded;

    /// The decorator must be stats-transparent: traffic and blocked-time
    /// counters accrued by the inner communicator are visible unchanged
    /// through the chaos layer, and `reset_stats` reaches the inner comm.
    #[test]
    fn decorator_forwards_traffic_stats() {
        let stats = run_threaded(2, |c| {
            let chaos = ChaosComm::new(c, ChaosConfig::seeded(7).with_latency(1.0, 50));
            let peer = 1 - chaos.rank();
            chaos.send(peer, 3, vec![0u8; 64]);
            let _: Vec<u8> = chaos.recv(peer, 3);
            let seen = chaos.stats();
            // Same snapshot as the inner endpoint reports directly.
            assert_eq!(seen, chaos.inner().stats());
            chaos.reset_stats();
            assert_eq!(chaos.inner().stats(), CommStats::default());
            seen
        });
        for s in stats {
            assert_eq!(s.messages_sent, 1);
            assert_eq!(s.bytes_sent, 64);
            assert_eq!(s.messages_received, 1);
            assert_eq!(s.bytes_received, 64);
        }
    }

    /// Comm records pass through the chaos layer untouched: the inner
    /// communicator records them, so a chaos-wrapped program yields the same
    /// record structure (ops, peers, tags, matching keys) as a bare one —
    /// only the timestamps shift by the injected delays.
    #[test]
    fn decorator_passes_comm_records_through() {
        use crate::events::{CommOp, StreamPos};
        use crate::ring::take_recorder;
        let logs = run_threaded(2, |c| {
            let chaos = ChaosComm::new(c, ChaosConfig::seeded(3).with_latency(1.0, 30));
            let peer = 1 - chaos.rank();
            chaos.send(peer, 9, vec![0u8; 16]);
            let _: Vec<u8> = chaos.recv(peer, 9);
            chaos.barrier();
            take_recorder()
        });
        for (rank, log) in logs.iter().enumerate() {
            let key = |op| log.comm_records().find(|(_, k)| k.op == op);
            let (send, k) = key(CommOp::Send).expect("send record");
            assert_eq!((k.pos, send.b), (StreamPos::P2p { peer: 1 - rank, tag: 9, seq: 0 }, 16));
            let (_, k) = key(CommOp::Recv).expect("recv record");
            assert_eq!(k.pos, StreamPos::P2p { peer: 1 - rank, tag: 9, seq: 0 });
            assert!(key(CommOp::Barrier).is_some_and(|(_, k)| k.epoch().is_some()));
        }
    }
}
