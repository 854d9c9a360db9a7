//! Rank-aware telemetry for the distributed diffeomorphic registration
//! solver.
//!
//! Its pieces, all zero-dependency (the only workspace dep is
//! `diffreg-comm`, for the collective phase-report reduction):
//!
//! * [`span`] + [`recorder`] — hierarchical RAII span tracing into one
//!   per-thread event ring: an always-on sampled flight recorder that
//!   [`set_trace_enabled`] switches to keep-everything mode, with a Chrome
//!   `trace_event` JSON exporter (one `pid` per rank, one `tid` per
//!   thread; load the file in Perfetto / `chrome://tracing`). Near-zero
//!   cost when disabled: two relaxed atomic loads per [`span()`] call. No
//!   environment variable is read.
//! * [`report`] — rank-aggregated phase report: every `Timers` /
//!   `CommStats` key reduced to min/mean/max/imbalance across ranks
//!   (allreduce-based, collective) and rendered as the paper's
//!   Table-I-style exec/comm breakdown with an optional
//!   measured-vs-predicted column.
//! * [`convergence`] — the solver telemetry stream: one structured record
//!   per Newton iteration plus discrete events (checkpoint, resume, level
//!   transitions, faults), as JSON-lines and the paper's convergence-table
//!   text format.
//! * [`metrics`] — counters, gauges, and log₂-bucket [`Histogram`]s with a
//!   deterministic Prometheus text-exposition renderer; the doctor derives
//!   comm-op latency distributions into it and the interp scatter records
//!   its per-exchange sizes.
//! * [`doctor`] — the cross-rank wait-state doctor: merges every rank's
//!   comm event stream (see `diffreg_comm::CommEvent`) and event ring,
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
#![deny(missing_docs)]

pub mod convergence;
pub mod doctor;
pub mod incident;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod report;
pub mod span;

pub use convergence::{ConvergenceLog, IterRecord, SolverEvent, StreamEntry};
pub use json::Json;
pub use recorder::{
    record_comm_summary, record_event, recorder_enabled, set_recorder_enabled, snapshot_recorder,
    take_recorder, RecEvent, RecKind, RecorderSnapshot,
};
pub use metrics::{
    count_global, escape_label_value, observe_global, take_global_metrics, Histogram,
    MetricsRegistry,
};
pub use profile::{diff_phases, render_diff, PhaseDelta, PhaseRow, Profile, StackStat};
pub use report::{collect_phase_report, PhaseEntry, PhaseReport, PredictedPhases};
pub use span::{
    chrome_trace, set_trace_enabled, span, trace_enabled, validate_chrome_trace, with_span,
    SpanGuard, TraceSummary, COMM_TRACK_TID,
};
