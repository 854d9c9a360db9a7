//! The trivial single-rank communicator.
//!
//! Every collective is an identity operation; point-to-point messages to
//! self are buffered in a local queue so that SPMD code written against
//! [`Comm`] runs unchanged with one rank.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;

use crate::error::{tag_display, CommError};
use crate::stats::CommStats;
use crate::traits::{Comm, CommData, ReduceOp};

/// One queued self-message: tag, payload byte count, element type name,
/// and the boxed payload itself.
type QueuedMsg = (u64, usize, &'static str, Box<dyn Any + Send>);

/// A communicator with a single rank (rank 0 of size 1).
#[derive(Debug, Default)]
pub struct SerialComm {
    self_queue: RefCell<VecDeque<QueuedMsg>>,
}

impl SerialComm {
    /// Creates a new single-rank communicator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Comm for SerialComm {
    type Sub = SerialComm;

    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn try_barrier(&self) -> Result<(), CommError> {
        Ok(())
    }

    fn try_send<T: CommData>(&self, dst: usize, tag: u64, data: Vec<T>) -> Result<(), CommError> {
        assert_eq!(dst, 0, "serial communicator has a single rank");
        let bytes = data.len() * std::mem::size_of::<T>();
        self.self_queue.borrow_mut().push_back((
            tag,
            bytes,
            std::any::type_name::<T>(),
            Box::new(data),
        ));
        Ok(())
    }

    fn try_recv<T: CommData>(&self, src: usize, tag: u64) -> Result<Vec<T>, CommError> {
        assert_eq!(src, 0, "serial communicator has a single rank");
        let mut q = self.self_queue.borrow_mut();
        let pos = q.iter().position(|(t, _, _, _)| *t == tag).ok_or_else(|| {
            let queued: Vec<String> = q.iter().map(|(t, _, _, _)| tag_display(*t)).collect();
            CommError::Deadlock {
                rank: 0,
                waiting_on: format!("(src={src}, tag={})", tag_display(tag)),
                queued: if queued.is_empty() { "<empty>".into() } else { queued.join(", ") },
            }
        })?;
        // diffreg-allow(no-unwrap-in-lib): `pos` was produced by `position` on the same queue just above
        let (_, bytes, type_name, boxed) = q.remove(pos).unwrap();
        boxed.downcast::<Vec<T>>().map(|b| *b).map_err(|_| CommError::TypeMismatch {
            rank: 0,
            src,
            tag,
            expected: std::any::type_name::<T>(),
            found: type_name,
            found_bytes: bytes,
        })
    }

    fn broadcast<T: CommData + Clone>(&self, root: usize, _data: &mut Vec<T>) {
        assert_eq!(root, 0);
    }

    fn allgather<T: CommData + Clone>(&self, data: Vec<T>) -> Vec<Vec<T>> {
        vec![data]
    }

    fn try_alltoallv<T: CommData>(&self, parts: Vec<Vec<T>>) -> Result<Vec<Vec<T>>, CommError> {
        if parts.len() != 1 {
            return Err(CommError::LengthMismatch {
                rank: 0,
                src: None,
                what: "alltoallv part count",
                expected: 1,
                got: parts.len(),
            });
        }
        Ok(parts)
    }

    fn try_allreduce(&self, _vals: &mut [f64], _op: ReduceOp) -> Result<(), CommError> {
        Ok(())
    }

    fn allreduce_usize(&self, _vals: &mut [usize], _op: ReduceOp) {}

    fn split(&self, _color: usize, _key: usize) -> SerialComm {
        SerialComm::new()
    }

    fn stats(&self) -> CommStats {
        CommStats::default()
    }

    fn reset_stats(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_collectives() {
        let c = SerialComm::new();
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        c.barrier();
        let mut v = vec![1.0, 2.0];
        c.broadcast(0, &mut v);
        assert_eq!(v, vec![1.0, 2.0]);
        let g = c.allgather(vec![7u32]);
        assert_eq!(g, vec![vec![7]]);
        let a = c.alltoallv(vec![vec![1u8, 2]]);
        assert_eq!(a, vec![vec![1, 2]]);
        assert_eq!(c.sum_f64(3.5), 3.5);
        assert_eq!(c.max_f64(3.5), 3.5);
    }

    #[test]
    fn self_messaging() {
        let c = SerialComm::new();
        c.send(0, 1, vec![1i32, 2, 3]);
        c.send(0, 2, vec![9i32]);
        // Out-of-order tag matching must work.
        assert_eq!(c.recv::<i32>(0, 2), vec![9]);
        assert_eq!(c.recv::<i32>(0, 1), vec![1, 2, 3]);
    }

    #[test]
    fn sendrecv_self_is_identity() {
        let c = SerialComm::new();
        let out = c.sendrecv(0, vec![5u64, 6], 0, 3);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn missing_message_is_reported_as_deadlock() {
        let c = SerialComm::new();
        c.send(0, 4, vec![1u8]);
        c.send(0, 9, vec![2u8]);
        let err = c.try_recv::<u8>(0, 7).unwrap_err();
        match &err {
            CommError::Deadlock { waiting_on, queued, .. } => {
                assert!(waiting_on.contains("tag=7"), "{waiting_on}");
                assert!(queued.contains('4') && queued.contains('9'), "{queued}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        // The error text names the requested (src, tag) and the queued tags.
        let msg = err.to_string();
        assert!(msg.contains("(src=0, tag=7)"), "{msg}");
    }

    #[test]
    fn type_mismatch_reports_sender_bytes() {
        let c = SerialComm::new();
        c.send(0, 1, vec![1u32, 2, 3]);
        let err = c.try_recv::<f64>(0, 1).unwrap_err();
        match err {
            CommError::TypeMismatch { found_bytes, found, expected, .. } => {
                assert_eq!(found_bytes, 12);
                assert!(found.contains("u32"), "{found}");
                assert!(expected.contains("f64"), "{expected}");
            }
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn alltoallv_part_count_error() {
        let c = SerialComm::new();
        let err = c.try_alltoallv(vec![vec![1u8], vec![2u8]]).unwrap_err();
        assert!(matches!(err, CommError::LengthMismatch { expected: 1, got: 2, .. }));
    }
}
