//! # diffreg-serve
//!
//! Registration-as-a-service: a fault-tolerant, multi-tenant job runtime
//! over the distributed registration solver.
//!
//! The paper's solver registers one image pair per MPI job. A shared
//! cluster deployment instead faces a *stream* of registration requests
//! from many tenants, and must keep serving through rank failures, torn
//! checkpoint writes, stalls, and cancellations. This crate provides that
//! layer on top of the simulated-MPI substrate:
//!
//! * **gang scheduling** — a deterministic, coordinator-free scheduler
//!   carves per-job communicator gangs out of the rank pool with
//!   `Comm::split` ([`scheduler`]), with admission control and fair-share
//!   priorities across tenants;
//! * **robustness state machine** — each job moves through
//!   queued → running → (backoff → running)\* → terminal states with
//!   bounded seeded-jitter retries, deadlines, cancellation, and graceful
//!   gang-size degradation ([`job`]);
//! * **containment + recovery** — attempts run under `run_gang`, so a rank
//!   killed mid-solve becomes a structured failure of that gang only; jobs
//!   with checkpoints resume *bitwise* identically to an uninterrupted
//!   solve, including torn-write fallback to the previous checkpoint
//!   generation ([`runtime`]);
//! * **observability** — per-job streamed iteration progress, convergence
//!   logs with serve-side events, a Prometheus-rendered dashboard of
//!   queue depth, retry/recovery counters, and latency histograms, and an
//!   opt-in read-only HTTP plane ([`http`]) serving metrics, the live job
//!   table, SLO state, incidents, and flamegraph snapshots from
//!   round-boundary snapshots.
//!
//! Chaos drills are first-class: a [`FaultInjector`] plans kills, stalls,
//! and checkpoint corruption per `(job, attempt)`, and the whole campaign
//! replays deterministically ([`faults`]).
//!
//! ```
//! use std::sync::Arc;
//! use diffreg_comm::run_threaded;
//! use diffreg_serve::{JobSpec, NoFaults, ServeConfig, ServeHarness};
//!
//! let harness = ServeHarness::new(ServeConfig::default(), Arc::new(NoFaults));
//! harness.submit(JobSpec::new(1, 8).with_gang(2).with_newton_iters(1));
//! harness.close_intake();
//! let h = harness.clone();
//! let summaries = run_threaded(2, move |world| h.serve_pool(world));
//! assert!(summaries[0].all_accounted_for());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod faults;
pub mod http;
pub mod incident;
pub mod job;
pub mod runtime;
pub mod scheduler;
pub mod slo;

pub use faults::{AttemptFaults, FaultInjector, NoFaults, PlannedFaults, SeededFaults};
pub use http::{HttpServer, ObsSnapshot};
pub use job::{JobId, JobRecord, JobResult, JobSpec, JobState};
pub use runtime::{
    attempt_epoch_count, reference_digest, synthetic_pair, ProgressEvent, ServeConfig,
    ServeHarness, ServeSummary,
};
pub use incident::IncidentRecord;
pub use scheduler::{plan_round, Assignment};
pub use slo::{burn_milli, AlertState, Objective, SloAlert, SloEngine, SloPolicy};
