//! Rank-aware telemetry for the distributed diffeomorphic registration
//! solver.
//!
//! Its pieces, all zero-dependency (the only workspace dep is
//! `diffreg-comm`, for the event ring). The crate reads rings and bundles
//! only and issues no collective: it never touches a communicator.
//!
//! * [`span`] + [`recorder`] — hierarchical RAII span tracing into the
//!   per-thread event ring of [`diffreg_comm::ring`], which also holds the
//!   rank's lifecycle events and comm records: an always-on sampled flight
//!   recorder with no gate, which [`set_trace_enabled`] switches to
//!   keep-everything mode for the calling thread only, with its JSONL codec
//!   and a Chrome `trace_event` JSON exporter (one `pid` per rank, one
//!   `tid` per thread plus a comm track; load the file in Perfetto /
//!   `chrome://tracing`). No environment variable is read. A span carries
//!   at most one count ([`SpanGuard::count`]).
//! * [`convergence`] — the solver telemetry stream: one structured record
//!   per Newton iteration plus discrete events (checkpoint, resume, level
//!   transitions, faults), as JSON-lines and the paper's convergence-table
//!   text format.
//! * [`metrics`] — counters, gauges, and log₂-bucket [`Histogram`]s with a
//!   deterministic Prometheus text-exposition renderer: the export type the
//!   doctor derives comm-op latencies and span counts into, and the serve
//!   dashboard renders.
//! * [`doctor`] — the cross-rank wait-state doctor: merges every rank's
//!   event ring (spans and comm records, see [`recorder::CommKey`]),
//!   matches sends to receives, groups collectives by epoch, classifies
//!   late-sender / wait-at-collective / imbalance-at-collective losses,
//!   walks the cross-rank critical path,
//!   and renders a deterministic report (the `diffreg-doctor` CLI is a thin
//!   wrapper over it).
//!
//! JSON is hand-rolled in [`json`] (deterministic serialization, strict
//! parser) — no serde anywhere.
//!
//! [`profile`] folds the rings' span stream (live, or read back from a
//! bundle) into exact self/child wall-time profiles and deterministic
//! collapsed-stack flamegraphs with a differential mode.

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod convergence;
pub mod doctor;
pub mod incident;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod span;

pub use convergence::{ConvergenceLog, IterRecord, SolverEvent, StreamEntry};
pub use json::Json;
pub use recorder::{
    record_event, snapshot_recorder, take_recorder, RecEvent, RecKind, RecorderSnapshot,
};
pub use metrics::{escape_label_value, Histogram, MetricsRegistry};
pub use profile::{diff_phases, render_diff, PhaseDelta, PhaseRow, Profile, StackStat};
pub use doctor::PredictedPhases;
pub use span::{
    chrome_trace, set_trace_enabled, span, trace_enabled, validate_chrome_trace, with_span,
    SpanGuard, TraceSummary, COMM_TRACK_TID,
};
