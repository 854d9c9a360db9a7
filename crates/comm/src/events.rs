//! The comm record's vocabulary: the shared clock, the op kinds and the
//! matching key.
//!
//! Every user-visible communication call on a [`crate::ThreadComm`] writes
//! one comm record into the calling thread's event ring
//! ([`crate::ring`], kind [`crate::ring::RecKind::Comm`]) when it completes:
//! point-to-point sends and receives (including messages that travel
//! through the pending out-of-order queue) carry a `(comm, src, dst, tag,
//! seq)` matching key, and collectives carry their communicator epoch so an
//! offline analyzer can group the per-rank records back into one logical
//! operation ([`CommKey`]). The records are the raw material of the
//! cross-rank wait-state doctor (`diffreg-telemetry::doctor` and the
//! `diffreg-doctor` CLI): matched sends/receives expose late-sender waits,
//! and epoch-grouped collectives expose wait-at-collective and
//! imbalance-at-collective losses, Scalasca-style.
//!
//! Timestamps are nanoseconds on the process-wide monotonic clock
//! ([`monotonic_ns`]), the clock of every ring record, so comm records and
//! spans align on one timeline across every rank of the simulated machine.

use std::sync::OnceLock;
use std::time::Instant;

use crate::fnv::Fnv1a;

/// Nanoseconds since the process-wide monotonic epoch.
///
/// The epoch is pinned on first use; every rank thread and every ring
/// record share it, so timestamps from different ranks are directly
/// comparable.
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().saturating_duration_since(epoch).as_nanos() as u64
}

/// The kind of communication operation a comm record ([`CommKey`]) holds.
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
    /// Stable lowercase wire name (a comm record's name).
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

/// The matching key a comm record carries ([`crate::ring::RecKind::Comm`]).
/// A p2p record's `(comm, src, dst, tag, seq)` names exactly one message:
/// channels are FIFO per `(src, dst)` pair and the pending queue preserves
/// per-tag order, so the n-th send on a stream is the n-th receive. Every
/// member of one collective records the same `(comm, op, epoch)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommKey {
    /// Operation kind (the record's name is its wire name).
    pub op: CommOp,
    /// Communicator uid: 0 for the world communicator; sub-communicators get
    /// a uid derived from `(parent uid, split epoch, color)`, identical on
    /// every member rank.
    pub comm: u64,
    /// Size of the communicator the op ran on.
    pub csize: usize,
    /// This rank's *communicator-local* rank.
    pub rank: usize,
    /// Where the op sits on its stream.
    pub pos: StreamPos,
    /// Nanoseconds the op blocked (receive and barrier waits; 0 on sends,
    /// which are buffered), as accrued into [`crate::CommStats::blocked_seconds`].
    pub blocked_ns: u64,
}

/// A comm record's position on its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPos {
    /// A message on the `(sender, receiver, tag)` stream.
    P2p {
        /// Peer's communicator-local rank (dst for sends, src for recvs).
        peer: usize,
        /// User message tag.
        tag: u64,
        /// Message index on the stream.
        seq: u64,
    },
    /// A collective on its communicator's epoch counter.
    Collective {
        /// Collective epoch.
        epoch: u64,
    },
}

impl CommKey {
    /// The p2p part of the key, `(peer, tag, seq)`; `None` on collectives.
    pub fn p2p(&self) -> Option<(usize, u64, u64)> {
        let StreamPos::P2p { peer, tag, seq } = self.pos else { return None };
        Some((peer, tag, seq))
    }

    /// The collective epoch; `None` on p2p records.
    pub fn epoch(&self) -> Option<u64> {
        let StreamPos::Collective { epoch } = self.pos else { return None };
        Some(epoch)
    }
}

/// Derives a sub-communicator uid from the parent uid, the split's epoch,
/// and the color — FNV-1a over the three words, so every member of the new
/// communicator (which shares all three inputs) computes the same uid and
/// distinct splits/colors get distinct uids.
pub(crate) fn derive_comm_uid(parent: u64, epoch: u64, color: usize) -> u64 {
    let h = Fnv1a::new().u64(parent).u64(epoch).u64(color as u64).finish();
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
}
