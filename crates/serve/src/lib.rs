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
//! * **observability** — per-job convergence logs that stream each
//!   iteration as it lands, with serve-side events, a Prometheus-rendered dashboard of
//!   queue depth, retry/recovery counters, and latency histograms, and an
//!   opt-in read-only HTTP plane ([`http`]) serving metrics, the live job
//!   table, SLO state, incidents, and flamegraph snapshots from
//!   round-boundary snapshots. Each incident is one
//!   [`IncidentContext`](diffreg_telemetry::incident::IncidentContext),
//!   built by the fold on every rank: the summary holds it, its bundle's
//!   header carries it next to each gang rank's event ring of the attempt,
//!   and `/incidents` serves it.
//!
//! Chaos drills are first-class: a [`PlannedFaults`] plans kills, stalls,
//! and checkpoint corruption per `(job, attempt)`, and the whole campaign
//! replays deterministically ([`faults`]).
//!
//! ```
//! use std::sync::Arc;
//! use diffreg_comm::run_threaded;
//! use diffreg_serve::{JobSpec, ServeConfig, ServeHarness};
//!
//! // An empty fault plan is production behavior.
//! let harness = ServeHarness::new(ServeConfig::default(), Arc::default());
//! harness.submit(JobSpec::new(1, 8).with_gang(2).with_newton_iters(1));
//! harness.close_intake();
//! let h = harness.clone();
//! let summaries = run_threaded(2, move |world| h.serve_pool(world));
//! assert!(summaries[0].all_accounted_for());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::let_underscore_must_use))]

pub mod faults;
pub mod http;
pub mod job;
pub mod runtime;
pub mod scheduler;
pub mod slo;

pub use diffreg_core::synthetic_pair;
pub use faults::{AttemptFaults, PlannedFaults};
pub use http::{HttpServer, ObsSnapshot};
pub use job::{JobId, JobRecord, JobResult, JobSpec, JobState};
pub use runtime::{attempt_epoch_count, reference_digest, ServeConfig, ServeHarness, ServeSummary};
pub use scheduler::{plan_round, Assignment};
pub use slo::{burn_milli, AlertState, Objective, SloAlert, SloEngine, SloPolicy};
