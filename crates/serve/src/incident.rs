//! The serve-side incident engine's replicated record type and capture
//! staging.
//!
//! Triggers are *fold-derived*: every rank computes the identical incident
//! sequence from the outcome allgather (it is part of the replicated
//! [`ServeSummary`](crate::ServeSummary), so the existing replication
//! assertions cover it). Bundle *writing* is rank 0's job alone — it reads
//! the capture stage, where each gang rank parked its ring window of the
//! attempt — spans, lifecycle events and comm records, one stream — right
//! after it (the outcome allgather is the synchronization barrier that makes
//! those inserts visible).

use std::collections::BTreeMap;

use diffreg_telemetry::doctor::RankCapture;

use crate::job::JobId;

pub use diffreg_telemetry::incident::IncidentTrigger;

/// One fold-derived incident: the deterministic, replicated core of a
/// bundle (everything except the captured windows themselves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentRecord {
    /// Campaign-wide sequence number (deterministic trigger order).
    pub seq: u64,
    /// What fired.
    pub trigger: IncidentTrigger,
    /// Job involved (0 for tenant-level SLO incidents).
    pub job: JobId,
    /// 1-based attempt at trigger time (0 when no attempt ran).
    pub attempt: u32,
    /// Scheduler round the trigger fired in.
    pub round: u64,
    /// Failure-reason label, or `""`.
    pub reason: String,
}

/// Capture staging: `(job, attempt) → gang rank → capture`, the one place an
/// attempt's capture waits for an incident bundle or the traced-job bundle.
/// Shared across all pool ranks (they are threads of one process); rank 0
/// reads it when writing bundles and, at the end of each fold, drops every
/// entry but the traced job's.
pub(crate) type CaptureStage = BTreeMap<(JobId, u32), BTreeMap<usize, RankCapture>>;

