//! The communicator abstraction shared by the serial and the simulated
//! distributed-memory backends.

use crate::error::CommError;
use crate::stats::CommStats;

/// Marker bound for payload element types.
///
/// Blanket-implemented for every `Send + 'static` type, so any plain-old-data
/// element (f64, index structs, interpolation requests, ...) qualifies.
pub trait CommData: Send + 'static {}
impl<T: Send + 'static> CommData for T {}

/// Reduction operators for `allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    /// Applies the operator to two f64 operands.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    /// Applies the operator to two usize operands.
    #[inline]
    pub fn apply_usize(self, a: usize, b: usize) -> usize {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// The infallible half of every `try_*` pair: a failed operation aborts the
/// rank with the typed error's rendering.
fn or_abort<T>(res: Result<T, CommError>) -> T {
    // diffreg-allow(no-unwrap-in-lib): infallible bridge — aborts with the typed error's rendering; recoverable callers use the try_* twin
    res.unwrap_or_else(|e| panic!("{e}"))
}

/// An MPI-communicator-like handle for one rank of an SPMD program.
///
/// All methods are *collective* unless stated otherwise: every rank of the
/// communicator must call them in the same order (the usual MPI contract).
/// Sends are buffered and never block; receives block until the matching
/// message arrives.
///
/// A backend implements each operation once, as the fallible `try_*` method
/// returning a structured [`CommError`] (peer gone, type mismatch, watchdog
/// timeout, contract violation, serial deadlock); the infallible twin is
/// provided here and panics with that error's rendering.
pub trait Comm: Sized {
    /// Communicator type produced by [`Comm::split`].
    type Sub: Comm;

    /// This rank's index in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Blocks until every rank has entered the barrier (watchdog-aware
    /// backends return [`CommError::Timeout`] instead of blocking forever).
    fn try_barrier(&self) -> Result<(), CommError>;

    /// Point-to-point: buffered send of `data` to `dst` with a message `tag`.
    /// Not collective.
    fn try_send<T: CommData>(&self, dst: usize, tag: u64, data: Vec<T>) -> Result<(), CommError>;

    /// Point-to-point: blocking receive of a message from `src` with `tag`.
    /// Not collective.
    fn try_recv<T: CommData>(&self, src: usize, tag: u64) -> Result<Vec<T>, CommError>;

    /// Personalized all-to-all: `parts[d]` is sent to rank `d`; the return
    /// value's entry `s` is what rank `s` sent here. Equivalent to
    /// MPI_Alltoallv. `parts.len()` must equal `size()`.
    fn try_alltoallv<T: CommData>(&self, parts: Vec<Vec<T>>) -> Result<Vec<Vec<T>>, CommError>;

    /// Elementwise reduction of `vals` across ranks; result replicated on all.
    fn try_allreduce(&self, vals: &mut [f64], op: ReduceOp) -> Result<(), CommError>;

    /// Infallible [`Comm::try_barrier`].
    fn barrier(&self) {
        or_abort(self.try_barrier())
    }

    /// Infallible [`Comm::try_send`].
    fn send<T: CommData>(&self, dst: usize, tag: u64, data: Vec<T>) {
        or_abort(self.try_send(dst, tag, data))
    }

    /// Infallible [`Comm::try_recv`].
    fn recv<T: CommData>(&self, src: usize, tag: u64) -> Vec<T> {
        or_abort(self.try_recv(src, tag))
    }

    /// Infallible [`Comm::try_alltoallv`].
    fn alltoallv<T: CommData>(&self, parts: Vec<Vec<T>>) -> Vec<Vec<T>> {
        or_abort(self.try_alltoallv(parts))
    }

    /// Infallible [`Comm::try_allreduce`].
    fn allreduce(&self, vals: &mut [f64], op: ReduceOp) {
        or_abort(self.try_allreduce(vals, op))
    }

    /// Combined exchange: sends `data` to `dst` and receives from `src`.
    fn sendrecv<T: CommData>(&self, dst: usize, data: Vec<T>, src: usize, tag: u64) -> Vec<T> {
        if dst == self.rank() && src == self.rank() {
            return data;
        }
        self.send(dst, tag, data);
        self.recv(src, tag)
    }

    /// Broadcasts `data` from `root` to every rank (overwriting it elsewhere).
    fn broadcast<T: CommData + Clone>(&self, root: usize, data: &mut Vec<T>);

    /// Gathers every rank's `data`; returns the per-rank contributions
    /// indexed by source rank. Equivalent to MPI_Allgatherv.
    fn allgather<T: CommData + Clone>(&self, data: Vec<T>) -> Vec<Vec<T>>;

    /// Elementwise reduction of usize values across ranks.
    fn allreduce_usize(&self, vals: &mut [usize], op: ReduceOp);

    /// Splits into sub-communicators: ranks with equal `color` form one new
    /// communicator, ordered by `key` (ties broken by old rank).
    fn split(&self, color: usize, key: usize) -> Self::Sub;

    /// Snapshot of this rank's traffic counters.
    fn stats(&self) -> CommStats;

    /// Resets this rank's traffic counters.
    fn reset_stats(&self);

    /// Convenience: global sum of a single scalar.
    fn sum_f64(&self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce(&mut buf, ReduceOp::Sum);
        buf[0]
    }

    /// Convenience: global maximum of a single scalar.
    fn max_f64(&self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce(&mut buf, ReduceOp::Max);
        buf[0]
    }

    /// Convenience: global minimum of a single scalar.
    fn min_f64(&self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce(&mut buf, ReduceOp::Min);
        buf[0]
    }
}

/// A shared reference to a communicator is itself a communicator.
///
/// This lets decorators such as [`crate::ChaosComm`] own their inner handle
/// even when the SPMD entry point (e.g. [`crate::run_threaded`]) only lends
/// the closure a `&ThreadComm`. Splitting through a reference still yields an
/// *owned* sub-communicator (`C::Sub`), so nested splits compose.
impl<C: Comm> Comm for &C {
    type Sub = C::Sub;

    fn rank(&self) -> usize {
        (**self).rank()
    }

    fn size(&self) -> usize {
        (**self).size()
    }

    fn try_barrier(&self) -> Result<(), CommError> {
        (**self).try_barrier()
    }

    /// Forwarded, not inherited: [`crate::ChaosComm`] overrides `send`, and
    /// the override must stay reachable through a reference.
    fn send<T: CommData>(&self, dst: usize, tag: u64, data: Vec<T>) {
        (**self).send(dst, tag, data)
    }

    fn try_send<T: CommData>(&self, dst: usize, tag: u64, data: Vec<T>) -> Result<(), CommError> {
        (**self).try_send(dst, tag, data)
    }

    fn try_recv<T: CommData>(&self, src: usize, tag: u64) -> Result<Vec<T>, CommError> {
        (**self).try_recv(src, tag)
    }

    fn try_alltoallv<T: CommData>(&self, parts: Vec<Vec<T>>) -> Result<Vec<Vec<T>>, CommError> {
        (**self).try_alltoallv(parts)
    }

    fn try_allreduce(&self, vals: &mut [f64], op: ReduceOp) -> Result<(), CommError> {
        (**self).try_allreduce(vals, op)
    }

    fn broadcast<T: CommData + Clone>(&self, root: usize, data: &mut Vec<T>) {
        (**self).broadcast(root, data)
    }

    fn allgather<T: CommData + Clone>(&self, data: Vec<T>) -> Vec<Vec<T>> {
        (**self).allgather(data)
    }

    fn allreduce_usize(&self, vals: &mut [usize], op: ReduceOp) {
        (**self).allreduce_usize(vals, op)
    }

    fn split(&self, color: usize, key: usize) -> Self::Sub {
        (**self).split(color, key)
    }

    fn stats(&self) -> CommStats {
        (**self).stats()
    }

    fn reset_stats(&self) {
        (**self).reset_stats()
    }
}
