//! Structured communication errors and the rank-failure report.
//!
//! The paper's solver is an SPMD program whose correctness depends on every
//! rank calling the same collectives in the same order and on every message
//! carrying the payload its receiver expects. On a real cluster MPI aborts
//! the job when that contract breaks; in the simulated runtime a violation
//! used to surface as a hang or an opaque `unwrap` panic. This module gives
//! every failure mode a precise, typed description:
//!
//! * [`CommError`] — what went wrong at a single communication call site
//!   (peer death, payload type/length mismatch, watchdog timeout, collective
//!   contract violation, self-receive deadlock).
//! * [`RankFailure`] — a contained per-rank panic report produced by
//!   [`crate::run_threaded_checked`].
//! * [`CollOp`] — the collective-operation fingerprint the contract checker
//!   piggybacks on internal message tags.

use std::fmt;

/// Reserved tag space for internal protocol messages (splits, collectives).
///
/// User code must keep its tags below this bit; the runtime asserts nothing
/// but the collectives' own receives only ever match tags at or above it.
pub const TAG_INTERNAL: u64 = 1 << 60;

/// Bit position where the [`CollOp`] fingerprint lives inside an internal tag.
pub(crate) const OP_SHIFT: u64 = 52;

/// Mask selecting the collective epoch inside an internal tag.
pub(crate) const EPOCH_MASK: u64 = (1 << OP_SHIFT) - 1;

/// The kind of collective operation a message belongs to.
///
/// The discriminants match the legacy `TAG_INTERNAL + k` offsets so that the
/// wire format with contract checking *disabled* is byte-identical to the
/// original runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CollOp {
    /// `broadcast` payload from root.
    Broadcast = 1,
    /// `allgather` contribution.
    Allgather = 2,
    /// `alltoallv` part.
    Alltoallv = 3,
    /// `allreduce` contribution sent to rank 0.
    ReduceSend = 4,
    /// `allreduce` result fanned out from rank 0.
    ReduceResult = 5,
    /// `allreduce_usize` contribution sent to rank 0.
    ReduceUsizeSend = 6,
    /// `allreduce_usize` result fanned out from rank 0.
    ReduceUsizeResult = 7,
    /// `split` endpoint package from the group leader.
    Split = 8,
}

impl CollOp {
    /// Decodes the op fingerprint from the bits at [`OP_SHIFT`], if valid.
    pub(crate) fn from_bits(bits: u64) -> Option<CollOp> {
        Some(match bits {
            1 => CollOp::Broadcast,
            2 => CollOp::Allgather,
            3 => CollOp::Alltoallv,
            4 => CollOp::ReduceSend,
            5 => CollOp::ReduceResult,
            6 => CollOp::ReduceUsizeSend,
            7 => CollOp::ReduceUsizeResult,
            8 => CollOp::Split,
            _ => return None,
        })
    }
}

impl fmt::Display for CollOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CollOp::Broadcast => "Broadcast",
            CollOp::Allgather => "Allgather",
            CollOp::Alltoallv => "Alltoallv",
            CollOp::ReduceSend => "Allreduce(send)",
            CollOp::ReduceResult => "Allreduce(result)",
            CollOp::ReduceUsizeSend => "AllreduceUsize(send)",
            CollOp::ReduceUsizeResult => "AllreduceUsize(result)",
            CollOp::Split => "Split",
        };
        f.write_str(name)
    }
}

/// Renders a message tag for diagnostics, decoding internal encodings.
///
/// Internal tags come in two shapes: the legacy `TAG_INTERNAL + k` constants
/// (contract checking off) and the epoch-stamped `TAG_INTERNAL | op<<52 |
/// epoch` form (contract checking on). User tags print as plain numbers.
pub fn tag_display(tag: u64) -> String {
    if tag < TAG_INTERNAL {
        return format!("{tag}");
    }
    let low = tag & !TAG_INTERNAL;
    let op_bits = low >> OP_SHIFT;
    if op_bits != 0 {
        match CollOp::from_bits(op_bits) {
            Some(op) => format!("internal:{op}@epoch{}", low & EPOCH_MASK),
            None => format!("internal:op?{op_bits}@epoch{}", low & EPOCH_MASK),
        }
    } else {
        match CollOp::from_bits(low) {
            Some(op) => format!("internal:{op}"),
            None => format!("internal:+{low}"),
        }
    }
}

/// A structured communication failure at a single call site.
///
/// Returned by the fallible `try_*` entry points of [`crate::Comm`]; the
/// infallible convenience methods panic with this error's `Display` text so
/// legacy call sites still get the improved diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer rank's endpoint was dropped (its thread panicked or exited)
    /// while this rank was blocked waiting on it.
    PeerGone {
        /// The rank that observed the failure.
        rank: usize,
        /// The peer whose endpoint disappeared.
        peer: usize,
    },
    /// A received payload could not be downcast to the expected element type.
    TypeMismatch {
        /// The receiving rank.
        rank: usize,
        /// The sender.
        src: usize,
        /// The message tag that matched.
        tag: u64,
        /// The element type the receiver asked for.
        expected: &'static str,
        /// The element type the sender recorded at send time.
        found: &'static str,
        /// The payload size in bytes the sender recorded at send time.
        found_bytes: usize,
    },
    /// A collective received a buffer of the wrong length or part count.
    LengthMismatch {
        /// The rank that observed the mismatch.
        rank: usize,
        /// The contributing rank, when the mismatch is in a received part.
        src: Option<usize>,
        /// Which collective / argument is malformed.
        what: &'static str,
        /// The length the collective required.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// The watchdog expired while blocked in a receive or barrier.
    Timeout {
        /// The rank whose watchdog fired.
        rank: usize,
        /// Human-readable description of what this rank was waiting for.
        waiting_on: String,
        /// Who-waits-on-whom table: one line per rank of the communicator,
        /// snapshotted from the shared blocked-state registry.
        table: Vec<String>,
    },
    /// Two ranks called different collectives (or the same collectives in a
    /// different order) — detected by the epoch/op fingerprint checker.
    ContractViolation {
        /// The rank that detected the violation.
        rank: usize,
        /// The peer whose message exposed the mismatch.
        src: usize,
        /// The collective this rank was executing.
        expected: String,
        /// The collective the peer's message belongs to.
        observed: String,
    },
    /// A receive from this rank itself found no matching queued message.
    /// Nothing else can send on a rank's self-channel, so the self-receive
    /// would deadlock; it is reported instead of blocking forever.
    Deadlock {
        /// The rank that would deadlock.
        rank: usize,
        /// The `(src, tag)` the receive was waiting for.
        waiting_on: String,
        /// The tags actually sitting in the queue.
        queued: String,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerGone { rank, peer } => {
                write!(f, "comm error on rank {rank}: peer rank {peer} is gone (its thread panicked or dropped its endpoint)")
            }
            CommError::TypeMismatch { rank, src, tag, expected, found, found_bytes } => {
                write!(
                    f,
                    "comm error on rank {rank}: recv type mismatch from rank {src} tag {}: \
                     expected Vec<{expected}>, sender recorded {found} ({found_bytes} bytes)",
                    tag_display(*tag)
                )
            }
            CommError::LengthMismatch { rank, src, what, expected, got } => {
                write!(f, "comm error on rank {rank}: {what} length mismatch")?;
                if let Some(s) = src {
                    write!(f, " (contribution from rank {s})")?;
                }
                write!(f, ": expected {expected}, got {got}")
            }
            CommError::Timeout { rank, waiting_on, table } => {
                writeln!(
                    f,
                    "comm error on rank {rank}: watchdog timeout while waiting on {waiting_on}; \
                     blocked-rank table:"
                )?;
                for line in table {
                    writeln!(f, "  {line}")?;
                }
                write!(
                    f,
                    "  (set DIFFREG_COMM_TIMEOUT_MS to adjust the watchdog; see README \
                     'Fault model & runbook')"
                )
            }
            CommError::ContractViolation { rank, src, expected, observed } => {
                write!(
                    f,
                    "comm error on rank {rank}: collective contract violation: this rank is \
                     executing {expected} but rank {src}'s message belongs to {observed} — \
                     ranks are calling collectives in different orders"
                )
            }
            CommError::Deadlock { rank, waiting_on, queued } => {
                write!(
                    f,
                    "comm error on rank {rank}: self-receive would deadlock: waiting on \
                     {waiting_on}, but queued messages are [{queued}]"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// A contained panic from one rank of a [`crate::run_threaded_checked`] run.
#[derive(Debug, Clone)]
pub struct RankFailure {
    /// The rank whose closure panicked.
    pub rank: usize,
    /// The panic payload rendered as text (`String`/`&str` payloads verbatim,
    /// anything else as a placeholder).
    pub payload: String,
    /// What the other ranks were doing when this rank died — a snapshot of
    /// the blocked-state registry, for post-mortem diagnosis.
    pub context: String,
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} failed: {}", self.rank, self.payload)?;
        if !self.context.is_empty() {
            write!(f, "\n{}", self.context)?;
        }
        Ok(())
    }
}

impl std::error::Error for RankFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_display_decodes_all_encodings() {
        assert_eq!(tag_display(7), "7");
        assert_eq!(tag_display(TAG_INTERNAL + 2), "internal:Allgather");
        let stamped = TAG_INTERNAL | (3 << OP_SHIFT) | 41;
        assert_eq!(tag_display(stamped), "internal:Alltoallv@epoch41");
        assert_eq!(tag_display(TAG_INTERNAL + 9), "internal:+9");
    }

    #[test]
    fn display_messages_carry_context() {
        let e = CommError::TypeMismatch {
            rank: 2,
            src: 0,
            tag: 7,
            expected: "f64",
            found: "u32",
            found_bytes: 12,
        };
        let s = e.to_string();
        assert!(s.contains("rank 2"), "{s}");
        assert!(s.contains("Vec<f64>"), "{s}");
        assert!(s.contains("12 bytes"), "{s}");

        let t = CommError::Timeout {
            rank: 1,
            waiting_on: "recv(src=0, tag=3)".into(),
            table: vec!["rank 0: blocked in barrier".into()],
        };
        let s = t.to_string();
        assert!(s.contains("blocked-rank table"), "{s}");
        assert!(s.contains("DIFFREG_COMM_TIMEOUT_MS"), "{s}");
    }

    #[test]
    fn rank_failure_display() {
        let rf = RankFailure { rank: 3, payload: "boom".into(), context: String::new() };
        assert_eq!(rf.to_string(), "rank 3 failed: boom");
    }
}
