//! Structured per-rank communication event records.
//!
//! Every user-visible communication call on a [`crate::ThreadComm`] can emit
//! one [`CommEvent`]: point-to-point sends and receives (including messages
//! that travel through the pending out-of-order queue) carry a `(comm, src,
//! dst, tag, seq)` matching key, and collectives carry their communicator
//! epoch so an offline analyzer can group the per-rank records back into one
//! logical operation. The records are the raw material of the cross-rank
//! wait-state doctor (`diffreg-telemetry::doctor` and the `diffreg-doctor`
//! CLI): matched sends/receives expose late-sender waits, and epoch-grouped
//! collectives expose wait-at-collective and imbalance-at-collective losses,
//! Scalasca-style.
//!
//! Timestamps are nanoseconds on the process-wide monotonic clock
//! ([`monotonic_ns`]), the same clock the span tracer uses, so comm events
//! and spans align on one timeline across every rank of the simulated
//! machine.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide monotonic epoch.
///
/// The epoch is pinned on first use; every rank thread, the span tracer, and
/// the comm event recorder all share it, so timestamps from different ranks
/// are directly comparable.
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().saturating_duration_since(epoch).as_nanos() as u64
}

/// The kind of communication operation a [`CommEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommOp {
    /// Point-to-point send (user tag).
    Send,
    /// Point-to-point receive (user tag; direct or pending-queue pop).
    Recv,
    /// `barrier` / `try_barrier`.
    Barrier,
    /// `broadcast`.
    Broadcast,
    /// `allgather`.
    Allgather,
    /// `alltoallv` / `try_alltoallv`.
    Alltoallv,
    /// `allreduce` / `try_allreduce`.
    Allreduce,
    /// `allreduce_usize`.
    AllreduceUsize,
    /// `split` (communicator creation is itself a collective).
    Split,
}

impl CommOp {
    /// Stable lowercase wire name (used in the JSONL event stream).
    pub fn name(self) -> &'static str {
        match self {
            CommOp::Send => "send",
            CommOp::Recv => "recv",
            CommOp::Barrier => "barrier",
            CommOp::Broadcast => "broadcast",
            CommOp::Allgather => "allgather",
            CommOp::Alltoallv => "alltoallv",
            CommOp::Allreduce => "allreduce",
            CommOp::AllreduceUsize => "allreduce_usize",
            CommOp::Split => "split",
        }
    }

    /// Parses a wire name back into the op kind.
    pub fn from_name(name: &str) -> Option<CommOp> {
        Some(match name {
            "send" => CommOp::Send,
            "recv" => CommOp::Recv,
            "barrier" => CommOp::Barrier,
            "broadcast" => CommOp::Broadcast,
            "allgather" => CommOp::Allgather,
            "alltoallv" => CommOp::Alltoallv,
            "allreduce" => CommOp::Allreduce,
            "allreduce_usize" => CommOp::AllreduceUsize,
            "split" => CommOp::Split,
            _ => return None,
        })
    }

    /// Whether this op is point-to-point (send/recv) rather than collective.
    pub fn is_p2p(self) -> bool {
        matches!(self, CommOp::Send | CommOp::Recv)
    }
}

/// One completed communication operation on one rank.
///
/// * **p2p events** (`op` = [`CommOp::Send`]/[`CommOp::Recv`]) carry `peer`,
///   `tag`, and `seq`. `seq` counts messages on the `(sender, receiver,
///   tag)` stream, so the matching key `(comm, src, dst, tag, seq)`
///   identifies exactly one message: channels are FIFO per `(src, dst)` pair
///   and the pending queue preserves per-tag order, so the n-th send on a
///   stream is the n-th receive.
/// * **collective events** carry `epoch` (the communicator's collective
///   epoch); all member ranks of one collective record the same `(comm, op,
///   epoch)`, and a group is complete when `csize` records arrived.
///
/// `blocked_ns` is the portion of `[t0_ns, t1_ns]` the rank spent blocked
/// (receive waits, barrier waits; always 0 on sends, which are buffered) —
/// the same time that accrues into [`crate::CommStats::blocked_seconds`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEvent {
    /// Operation kind.
    pub op: CommOp,
    /// Communicator uid: 0 for the world communicator; sub-communicators get
    /// a uid derived from `(parent uid, split epoch, color)`, identical on
    /// every member rank.
    pub comm: u64,
    /// Size of the communicator the op ran on.
    pub csize: usize,
    /// This rank's *communicator-local* rank.
    pub rank: usize,
    /// Peer's communicator-local rank (p2p only: dst for sends, src for recvs).
    pub peer: Option<usize>,
    /// User message tag (p2p only).
    pub tag: Option<u64>,
    /// Message index on the `(sender, receiver, tag)` stream (p2p only).
    pub seq: Option<u64>,
    /// Payload bytes: the message size for p2p, bytes sent during the
    /// collective for collectives.
    pub bytes: u64,
    /// Collective epoch (collectives only).
    pub epoch: Option<u64>,
    /// Operation start, ns on the [`monotonic_ns`] clock.
    pub t0_ns: u64,
    /// Operation end, ns on the [`monotonic_ns`] clock.
    pub t1_ns: u64,
    /// Blocked portion of the operation in nanoseconds.
    pub blocked_ns: u64,
}

impl CommEvent {
    /// Operation duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.t1_ns.saturating_sub(self.t0_ns) as f64 / 1e9
    }
}

/// Derives a sub-communicator uid from the parent uid, the split's epoch,
/// and the color — FNV-1a over the three words, so every member of the new
/// communicator (which shares all three inputs) computes the same uid and
/// distinct splits/colors get distinct uids.
pub(crate) fn derive_comm_uid(parent: u64, epoch: u64, color: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [parent, epoch, color as u64] {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // Keep 0 reserved for the world communicator.
    h.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_nondecreasing() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn op_names_round_trip() {
        for op in [
            CommOp::Send,
            CommOp::Recv,
            CommOp::Barrier,
            CommOp::Broadcast,
            CommOp::Allgather,
            CommOp::Alltoallv,
            CommOp::Allreduce,
            CommOp::AllreduceUsize,
            CommOp::Split,
        ] {
            assert_eq!(CommOp::from_name(op.name()), Some(op));
        }
        assert_eq!(CommOp::from_name("warp"), None);
        assert!(CommOp::Send.is_p2p() && CommOp::Recv.is_p2p());
        assert!(!CommOp::Barrier.is_p2p());
    }

    #[test]
    fn comm_uid_is_member_stable_and_distinct() {
        // All members of one split share (parent, epoch, color) → same uid.
        let a = derive_comm_uid(0, 5, 0);
        assert_eq!(a, derive_comm_uid(0, 5, 0));
        // Different colors or epochs → different uids; never the world's 0.
        assert_ne!(a, derive_comm_uid(0, 5, 1));
        assert_ne!(a, derive_comm_uid(0, 6, 0));
        assert_ne!(a, 0);
        assert_ne!(derive_comm_uid(a, 2, 1), a);
    }

    #[test]
    fn event_durations_convert_to_seconds() {
        let e = CommEvent {
            op: CommOp::Recv,
            comm: 0,
            csize: 2,
            rank: 1,
            peer: Some(0),
            tag: Some(7),
            seq: Some(0),
            bytes: 128,
            epoch: None,
            t0_ns: 1_000_000_000,
            t1_ns: 3_500_000_000,
            blocked_ns: 2_000_000_000,
        };
        assert!((e.dur_s() - 2.5).abs() < 1e-12);
    }
}
