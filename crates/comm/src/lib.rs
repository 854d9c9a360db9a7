//! # diffreg-comm
//!
//! A simulated MPI runtime: the distributed-memory substrate of the
//! registration solver (DESIGN.md substitution #1).
//!
//! The paper's solver runs as an SPMD MPI program on TACC's Maverick and
//! Stampede clusters. This crate reproduces the message-passing semantics the
//! solver relies on — buffered tagged point-to-point messages, barriers,
//! broadcast/allgather/alltoallv collectives, allreduce, and communicator
//! splits (needed for the row/column sub-communicators of the pencil
//! decomposition) — with one OS thread per rank on shared memory.
//!
//! There is one backend, [`ThreadComm`]. A single rank is that same
//! backend on a world of one: [`ThreadComm::new`] (alias [`SerialComm`])
//! builds it on the calling thread, its collectives short-circuit, and a
//! receive from itself that nothing queued can ever satisfy returns
//! [`CommError::Deadlock`] at once.
//!
//! Every rank's endpoint counts its traffic ([`CommStats`]) so the benchmark
//! harness can report communication volume and apply the paper's
//! latency/bandwidth performance model to project cluster-scale timings.
//!
//! Every completed user-tag send and receive and every collective is also
//! one comm record ([`CommKey`]) in the calling thread's event ring
//! ([`ring`]), next to the same rank's spans and lifecycle events.
//!
//! ## Fault tolerance
//!
//! Long multi-node registration runs need a runtime that *survives and
//! diagnoses* faults deterministically (cf. the hardened CLAIRE solvers).
//! This crate provides (see README "Fault model & runbook"):
//!
//! * structured [`CommError`]s and fallible `try_*` variants of the blocking
//!   calls, instead of opaque panics;
//! * a watchdog (`DIFFREG_COMM_TIMEOUT_MS`) that turns deadlocks into
//!   [`CommError::Timeout`] reports carrying a who-waits-on-whom table;
//! * a collective-contract checker, on in every build, that reports
//!   mismatched collective ordering across ranks (the barrier included) as
//!   [`CommError::ContractViolation`];
//! * one containment body, [`run_gang`], under every rank closure: a
//!   panicking rank becomes a [`RankFailure`] and its peers are unblocked —
//!   [`run_threaded_checked`] returns the reports, [`run_threaded`] re-raises
//!   the first, neither can hang on a dead rank;
//! * [`ChaosComm`], a seeded chaos-injection decorator (latency, tag-safe
//!   reordering, stalls, kills) for deterministic fault drills.
//!
//! The watchdog's variable is the only configuration this crate takes from
//! the environment — everything else is an argument or a setter on the
//! endpoint — and a value it cannot parse aborts at world creation, naming
//! the variable, instead of silently switching the fault detector off.
//!
//! ```
//! use diffreg_comm::{run_threaded, Comm};
//!
//! let sums = run_threaded(4, |comm| comm.sum_f64(comm.rank() as f64));
//! assert_eq!(sums, vec![6.0; 4]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::let_underscore_must_use))]

mod chaos;
mod error;
mod events;
mod fnv;
pub mod ring;
mod stats;
mod threaded;
mod traits;

pub use chaos::{ChaosComm, ChaosConfig};
pub use error::{tag_display, CollOp, CommError, RankFailure, TAG_INTERNAL};
pub use events::{monotonic_ns, CommKey, CommOp, StreamPos};
pub use fnv::{fnv1a64, Fnv1a};
pub use stats::{CommStats, Timers};
pub use threaded::{run_gang, run_threaded, run_threaded_checked, ThreadComm};
pub use traits::{Comm, CommData, ReduceOp};

/// A single rank: the one backend on a world of one ([`ThreadComm::new`]).
pub type SerialComm = ThreadComm;
