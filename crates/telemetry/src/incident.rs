//! Incident bundles: the flight recorder's crash-dump format, and the
//! doctor-side auto-analysis that triages one.
//!
//! When something goes wrong in the serve runtime (a watchdog timeout, a
//! failed attempt, an SLO burn-rate breach, ...), the incident engine
//! snapshots each gang rank's comm-event log, flight-recorder ring, and the
//! job's recent convergence history into one on-disk bundle — a trace bundle
//! (see [`crate::doctor`]) plus a header and the convergence tail:
//!
//! ```text
//! <dir>/incident-<seq>-<trigger>/
//!   incident.json           deterministic header: trigger, job, attempt,
//!                           round, tenant, gang, exact capture accounting,
//!                           firing SLO alerts, and the capture digest
//!   convergence.jsonl       tail of the job's convergence log
//!   events-rank<k>.jsonl    gang rank k's comm events of the attempt
//!   recorder-rank<k>.jsonl  gang rank k's flight-recorder window + counters
//!   metrics.json            MetricsRegistry snapshot at trigger time
//!   trace.json              Chrome trace of the capture, for Perfetto
//!                           (an export: nothing reads it back)
//! ```
//!
//! **Determinism.** Under a seeded chaos replay the captured *sequence* of
//! events is identical run to run; only wall-clock timestamps differ. The
//! bundle therefore separates the two: `incident.json` and
//! `convergence.jsonl` contain no wall-clock fields and replay
//! byte-identically, and the header's `capture_digest` folds every
//! timestamp-free field of the event capture — equal digests prove the
//! captured windows match event-for-event. [`load_incident_bundle`]
//! recomputes the digest from the files and [`gate_incident`] rejects a
//! bundle whose recomputation disagrees with its header.

use std::path::{Path, PathBuf};

use diffreg_comm::CommEvent;

use crate::convergence::ConvergenceLog;
use crate::doctor::{
    analyze, read_bundle_file, write_trace_bundle, BundleError, DoctorInput, DoctorReport,
    RankCapture,
};
use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::recorder::RecKind;

/// What fired the capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IncidentTrigger {
    /// A gang collective tripped the watchdog (stall or orphaned rank).
    WatchdogTimeout,
    /// An attempt failed (kill, peer-gone, other contained panic).
    AttemptFailure,
    /// The job's deadline passed before it finished.
    DeadlineExpiry,
    /// Graceful degradation halved the job's gang.
    GangDegraded,
    /// A resume fell back to the previous checkpoint generation.
    CheckpointFallback,
    /// A tenant's SLO burn rate crossed the alerting threshold.
    SloBurnRate,
}

impl IncidentTrigger {
    /// Stable kebab-case name (directory suffix + JSON field).
    pub fn name(self) -> &'static str {
        match self {
            IncidentTrigger::WatchdogTimeout => "watchdog-timeout",
            IncidentTrigger::AttemptFailure => "attempt-failure",
            IncidentTrigger::DeadlineExpiry => "deadline-expiry",
            IncidentTrigger::GangDegraded => "gang-degraded",
            IncidentTrigger::CheckpointFallback => "checkpoint-fallback",
            IncidentTrigger::SloBurnRate => "slo-burn-rate",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "watchdog-timeout" => IncidentTrigger::WatchdogTimeout,
            "attempt-failure" => IncidentTrigger::AttemptFailure,
            "deadline-expiry" => IncidentTrigger::DeadlineExpiry,
            "gang-degraded" => IncidentTrigger::GangDegraded,
            "checkpoint-fallback" => IncidentTrigger::CheckpointFallback,
            "slo-burn-rate" => IncidentTrigger::SloBurnRate,
            _ => return None,
        })
    }

    /// Whether this trigger names a *stall-shaped* failure the triage must
    /// attribute to a culprit rank/op when a comm capture exists.
    pub fn wants_culprit(self) -> bool {
        matches!(self, IncidentTrigger::WatchdogTimeout | IncidentTrigger::AttemptFailure)
    }
}

/// The deterministic `incident.json` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentHeader {
    /// Incident sequence number within the campaign (deterministic).
    pub seq: u64,
    /// What fired the capture.
    pub trigger: IncidentTrigger,
    /// Job the incident belongs to.
    pub job: u64,
    /// 1-based attempt at trigger time (0 when no attempt ran, e.g. a
    /// deadline expiring in the queue).
    pub attempt: u32,
    /// Scheduler round the trigger fired in.
    pub round: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Failure-reason label (`"timeout"`, `"kill"`, ... or `""`).
    pub reason: String,
    /// Free-form detail line.
    pub detail: String,
    /// World ranks of the gang whose attempt was captured (empty when no
    /// attempt ran).
    pub gang_ranks: Vec<usize>,
    /// `tenant/objective` names of SLO alerts firing at trigger time.
    pub slo_firing: Vec<String>,
    /// Total captured comm events across the gang.
    pub comm_events: u64,
    /// Summed flight-recorder counters across the gang.
    pub rec_seen: u64,
    /// Recorder events written into rings.
    pub rec_recorded: u64,
    /// Span events skipped by adaptive sampling.
    pub rec_sampled_out: u64,
    /// Recorder events evicted by ring wrap.
    pub rec_overwritten: u64,
    /// Entries in the bundled convergence tail.
    pub convergence_entries: u64,
    /// Convergence entries not in the tail (evictions + truncation).
    pub convergence_evicted: u64,
    /// FNV-1a fold of every timestamp-free field of the capture (see module
    /// docs); recomputed and checked at load time.
    pub capture_digest: u64,
}

// -- FNV-1a digest over the timestamp-free capture projection ---------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
            None => self.u64(0),
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

fn fold_comm_event(d: &mut Digest, e: &CommEvent) {
    d.str(e.op.name());
    d.u64(e.comm);
    d.u64(e.csize as u64);
    d.u64(e.rank as u64);
    d.opt(e.peer.map(|p| p as u64));
    d.opt(e.tag);
    d.opt(e.seq);
    d.u64(e.bytes);
    d.opt(e.epoch);
    // t0_ns / t1_ns / blocked_ns are wall-clock: excluded by design.
}

/// Failure-reason codes the serve runtime records in
/// `serve.attempt-failed` recorder events (`a` payload word). Kept in sync
/// with the serve crate's outcome-allgather wire codes.
pub const FAIL_KILL: u64 = 1;
/// Watchdog timeout — this rank was *waiting* when the watchdog fired.
pub const FAIL_TIMEOUT: u64 = 2;
/// A gang peer died under this rank's operation.
pub const FAIL_PEER: u64 = 3;
/// Any other contained failure.
pub const FAIL_OTHER: u64 = 4;

/// Human label for a `FAIL_*` code.
pub fn fail_label(code: u64) -> &'static str {
    match code {
        FAIL_KILL => "kill",
        FAIL_TIMEOUT => "timeout",
        FAIL_PEER => "peer-gone",
        FAIL_OTHER => "other",
        _ => "unknown",
    }
}

/// The capture digest: folds the timestamp-free projection of `captures`
/// (sorted by rank). The writer folds what it is about to write and the
/// gate refolds what [`load_incident_bundle`] read — the same function over
/// the same type.
pub fn capture_digest(captures: &[RankCapture]) -> u64 {
    let mut sorted: Vec<&RankCapture> = captures.iter().collect();
    sorted.sort_by_key(|c| c.rank);
    let mut d = Digest::new();
    for c in &sorted {
        if c.events.is_empty() {
            continue; // no events file is written for this rank
        }
        d.u64(c.rank as u64);
        d.u64(c.events.len() as u64);
        for e in &c.events {
            fold_comm_event(&mut d, e);
        }
    }
    for c in &sorted {
        d.u64(c.rank as u64);
        let r = &c.recorder;
        d.u64(r.seen);
        d.u64(r.recorded);
        d.u64(r.sampled_out);
        d.u64(r.overwritten);
        d.u64(r.stride);
        for e in &r.events {
            d.str(e.kind.name());
            d.str(&e.name);
            // A span's `a` is its wall-clock duration: excluded. Everything
            // else (comm summary counts/bytes, serve job/round words) is
            // deterministic.
            if e.kind != RecKind::Span {
                d.u64(e.a);
            }
            d.u64(e.b);
        }
    }
    d.0
}

// -- JSON (de)serialization -------------------------------------------------

const SCHEMA: &str = "diffreg-incident-v1";

impl IncidentHeader {
    /// Serializes the header (deterministic key order, no wall-clock
    /// fields — byte-identical under seeded replay).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema", SCHEMA)
            .set("seq", self.seq)
            .set("trigger", self.trigger.name())
            .set("job", self.job)
            .set("attempt", u64::from(self.attempt))
            .set("round", self.round)
            .set("tenant", self.tenant.as_str())
            .set("reason", self.reason.as_str())
            .set("detail", self.detail.as_str())
            .set("gang_ranks", Json::Arr(self.gang_ranks.iter().map(|&r| Json::from(r)).collect()))
            .set(
                "slo_firing",
                Json::Arr(self.slo_firing.iter().map(|s| Json::from(s.as_str())).collect()),
            )
            .set(
                "capture",
                Json::obj()
                    .set("comm_events", self.comm_events)
                    .set("rec_seen", self.rec_seen)
                    .set("rec_recorded", self.rec_recorded)
                    .set("rec_sampled_out", self.rec_sampled_out)
                    .set("rec_overwritten", self.rec_overwritten)
                    .set("convergence_entries", self.convergence_entries)
                    .set("convergence_evicted", self.convergence_evicted)
                    .set("digest", format!("{:016x}", self.capture_digest)),
            )
    }

    /// Inverse of [`to_json`](Self::to_json); the error names the first
    /// missing or malformed field.
    pub fn from_json(j: &Json) -> Result<IncidentHeader, String> {
        let schema = j.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("expected schema \"{SCHEMA}\", found \"{schema}\""));
        }
        let u = |key: &str| -> Result<u64, String> {
            j.get(key).and_then(Json::as_f64).map(|v| v as u64).ok_or(format!("missing {key}"))
        };
        let s = |key: &str| -> Result<String, String> {
            j.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing {key}"))
        };
        let trigger_name = s("trigger")?;
        let trigger = IncidentTrigger::from_name(&trigger_name)
            .ok_or(format!("unknown trigger \"{trigger_name}\""))?;
        let gang_ranks = j
            .get("gang_ranks")
            .and_then(Json::as_arr)
            .ok_or("missing gang_ranks")?
            .iter()
            .map(|v| v.as_f64().map(|r| r as usize).ok_or("non-numeric gang rank".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let slo_firing = j
            .get("slo_firing")
            .and_then(Json::as_arr)
            .ok_or("missing slo_firing")?
            .iter()
            .map(|v| v.as_str().map(str::to_string).ok_or("non-string slo alert".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let cap = j.get("capture").ok_or("missing capture section")?;
        let cu = |key: &str| -> Result<u64, String> {
            cap.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or(format!("missing capture.{key}"))
        };
        let digest_hex =
            cap.get("digest").and_then(Json::as_str).ok_or("missing capture.digest")?;
        let capture_digest = u64::from_str_radix(digest_hex, 16)
            .map_err(|_| format!("bad capture.digest \"{digest_hex}\""))?;
        Ok(IncidentHeader {
            seq: u("seq")?,
            trigger,
            job: u("job")?,
            attempt: u("attempt")? as u32,
            round: u("round")?,
            tenant: s("tenant")?,
            reason: s("reason")?,
            detail: s("detail")?,
            gang_ranks,
            slo_firing,
            comm_events: cu("comm_events")?,
            rec_seen: cu("rec_seen")?,
            rec_recorded: cu("rec_recorded")?,
            rec_sampled_out: cu("rec_sampled_out")?,
            rec_overwritten: cu("rec_overwritten")?,
            convergence_entries: cu("convergence_entries")?,
            convergence_evicted: cu("convergence_evicted")?,
            capture_digest,
        })
    }
}

// -- Bundle writer ----------------------------------------------------------

/// Writes one incident bundle under `base`, returning the bundle directory
/// (`incident-<seq:03>-<trigger>`). Fills the header's capture-accounting
/// fields and digest from `captures`/`tail`; the caller provides the
/// trigger-context fields.
pub fn write_incident_bundle(
    base: impl AsRef<Path>,
    mut header: IncidentHeader,
    captures: &[RankCapture],
    tail: Option<&ConvergenceLog>,
    metrics: Option<&MetricsRegistry>,
) -> std::io::Result<PathBuf> {
    let dir =
        base.as_ref().join(format!("incident-{:03}-{}", header.seq, header.trigger.name()));
    std::fs::create_dir_all(&dir)?;

    header.comm_events = captures.iter().map(|c| c.events.len() as u64).sum();
    header.rec_seen = captures.iter().map(|c| c.recorder.seen).sum();
    header.rec_recorded = captures.iter().map(|c| c.recorder.recorded).sum();
    header.rec_sampled_out = captures.iter().map(|c| c.recorder.sampled_out).sum();
    header.rec_overwritten = captures.iter().map(|c| c.recorder.overwritten).sum();
    header.convergence_entries = tail.map_or(0, |t| t.entries.len() as u64);
    header.convergence_evicted = tail.map_or(0, |t| t.evicted);
    header.capture_digest = capture_digest(captures);

    std::fs::write(dir.join("incident.json"), format!("{}\n", header.to_json()))?;
    if let Some(t) = tail {
        std::fs::write(dir.join("convergence.jsonl"), t.to_jsonl())?;
    }
    write_trace_bundle(&dir, captures, metrics)?;
    Ok(dir)
}

// -- Bundle loader ----------------------------------------------------------

/// One loaded bundle, ready for [`analyze_incident`].
#[derive(Debug, Clone)]
pub struct IncidentBundle {
    /// The parsed header.
    pub header: IncidentHeader,
    /// The capture: comm events and recorder window per gang rank (no ranks
    /// when no attempt ran) and the metrics snapshot, when bundled.
    pub input: DoctorInput,
    /// Lines in `convergence.jsonl` (0 when absent).
    pub convergence_lines: u64,
}

/// Loads and structurally validates one bundle directory: the header, the
/// capture through the common bundle reader, and the convergence tail.
pub fn load_incident_bundle(dir: impl AsRef<Path>) -> Result<IncidentBundle, BundleError> {
    let dir = dir.as_ref().to_path_buf();
    if !dir.join("incident.json").is_file() {
        return Err(BundleError::MissingBundle(dir));
    }
    let header = read_bundle_file(&dir, "incident.json", |text| {
        IncidentHeader::from_json(&Json::parse(text)?)
    })?;
    let input = DoctorInput::load_dir(&dir)?;
    let convergence_lines = if dir.join("convergence.jsonl").is_file() {
        read_bundle_file(&dir, "convergence.jsonl", |text| {
            for (i, line) in text.lines().enumerate() {
                Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            }
            Ok(text.lines().count() as u64)
        })?
    } else {
        0
    };
    Ok(IncidentBundle { header, input, convergence_lines })
}

// -- Triage -----------------------------------------------------------------

/// The culprit the triage attributed a stall-shaped incident to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Culprit {
    /// Gang rank held responsible.
    pub rank: usize,
    /// The operation it stalled (`"allreduce"`, `"comm.recv"`, ...).
    pub op: String,
    /// Human-readable evidence line.
    pub detail: String,
}

/// Everything [`analyze_incident`] derived from one bundle.
#[derive(Debug, Clone)]
pub struct IncidentAnalysis {
    /// Digest recomputed from the loaded files.
    pub recomputed_digest: u64,
    /// Full doctor analysis over the capture window, when events exist.
    pub report: Option<DoctorReport>,
    /// Attributed culprit, when the evidence names one.
    pub culprit: Option<Culprit>,
    /// The rendered triage summary.
    pub summary: String,
}

/// Auto-analyzes a loaded bundle: recomputes the capture digest, runs the
/// wait-state doctor over the captured window, attributes a culprit (an
/// incomplete collective's missing rank, or the largest attribution cell),
/// and renders the trigger-named triage summary.
pub fn analyze_incident(bundle: &IncidentBundle) -> IncidentAnalysis {
    use std::fmt::Write;
    let h = &bundle.header;
    let ranks = &bundle.input.ranks;
    let recomputed_digest = capture_digest(ranks);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "incident #{:03}: {} — job {} attempt {} (tenant {}), round {}",
        h.seq,
        h.trigger.name(),
        h.job,
        h.attempt,
        h.tenant,
        h.round
    );
    if !h.reason.is_empty() || !h.detail.is_empty() {
        let _ = writeln!(out, "  cause: {} — {}", h.reason, h.detail);
    }
    let _ = writeln!(
        out,
        "  gang: world ranks {:?}; capture: {} comm events, \
         recorder {}/{} kept ({} sampled out, {} overwritten, stride {}), \
         convergence tail {} entries ({} before the tail)",
        h.gang_ranks,
        h.comm_events,
        h.rec_recorded - h.rec_overwritten,
        h.rec_seen,
        h.rec_sampled_out,
        h.rec_overwritten,
        ranks.iter().map(|c| c.recorder.stride).max().unwrap_or(1),
        h.convergence_entries,
        h.convergence_evicted
    );
    if h.slo_firing.is_empty() {
        let _ = writeln!(out, "  slo: no alerts firing at trigger time");
    } else {
        let _ = writeln!(out, "  slo: firing {:?}", h.slo_firing);
    }
    let digest_ok = recomputed_digest == h.capture_digest;
    let _ = writeln!(
        out,
        "  capture digest: {:016x} ({})",
        h.capture_digest,
        if digest_ok { "verified against files" } else { "MISMATCH vs files" }
    );

    let mut culprit: Option<Culprit> = None;
    // Per-rank failure reasons the runtime recorded at attempt teardown —
    // the strongest culprit evidence, because on a gang-fatal fault every
    // member's comm stream truncates at the same epoch (events push only on
    // completion) while the *reasons* stay asymmetric: the killed rank
    // reports the kill, the late rank reports peer-gone, the innocent
    // waiters report timeout.
    let mut fails: Vec<(usize, u64, u64)> = Vec::new();
    for c in ranks {
        for e in &c.recorder.events {
            if e.kind == RecKind::Serve && e.name == "serve.attempt-failed" {
                fails.push((c.rank, e.a, e.t_ns));
            }
        }
    }
    let max_epoch = ranks.iter().flat_map(|c| c.events.iter().filter_map(|e| e.epoch)).max();
    let frontier_op = |report: &DoctorReport| -> String {
        report
            .collectives
            .iter()
            .filter(|g| !g.is_complete())
            .map(|g| g.op.name().to_string())
            .next()
            .unwrap_or_else(|| match max_epoch {
                Some(e) => format!("collective after epoch {e}"),
                None => "gang collective".to_string(),
            })
    };
    let report = if ranks.iter().any(|c| !c.events.is_empty()) {
        let report = analyze(&bundle.input);

        if let Some((rank, _, _)) = fails.iter().find(|(_, r, _)| *r == FAIL_KILL) {
            culprit = Some(Culprit {
                rank: *rank,
                op: frontier_op(&report),
                detail: format!(
                    "gang rank {rank} reported the contained kill; its stream ends at {}",
                    match max_epoch {
                        Some(e) => format!("epoch {e}"),
                        None => "the attempt start".to_string(),
                    }
                ),
            });
        } else if h.trigger == IncidentTrigger::WatchdogTimeout && !fails.is_empty() {
            let non_timeout: Vec<&(usize, u64, u64)> =
                fails.iter().filter(|(_, r, _)| *r != FAIL_TIMEOUT).collect();
            if non_timeout.len() == 1 {
                let (rank, reason, _) = *non_timeout[0];
                culprit = Some(Culprit {
                    rank,
                    op: frontier_op(&report),
                    detail: format!(
                        "gang rank {rank} reported {} while {} peer(s) timed out waiting on \
                         the gang — it arrived late at the stalled collective",
                        fail_label(reason),
                        fails.len() - 1
                    ),
                });
            } else if non_timeout.is_empty() && fails.len() > 1 {
                // Every member timed out: the one that abandoned the
                // attempt last (wall clock) sat on the stall.
                let (rank, _, _) = *fails.iter().max_by_key(|(_, _, t)| *t).unwrap();
                culprit = Some(Culprit {
                    rank,
                    op: frontier_op(&report),
                    detail: format!(
                        "all {} members timed out; gang rank {rank} abandoned the attempt \
                         last (wall-clock evidence)",
                        fails.len()
                    ),
                });
            }
        }

        // Incomplete-group attribution: a rank that never completed a
        // collective the rest of its gang finished is the stall/kill victim
        // — exactly what a watchdog incident needs named. Pick the group
        // whose present members lost the most blocked time.
        let mut best: Option<(f64, &crate::doctor::CollectiveGroup, Vec<usize>)> = None;
        for g in report.collectives.iter().filter(|g| !g.is_complete()) {
            let present: Vec<usize> = g.members.iter().map(|(_, e)| e.rank).collect();
            let missing: Vec<usize> =
                (0..g.csize).filter(|r| !present.contains(r)).collect();
            if missing.is_empty() {
                continue;
            }
            let blocked: f64 =
                g.members.iter().map(|(_, e)| e.blocked_ns as f64 / 1e9).sum();
            if best.as_ref().is_none_or(|(b, _, _)| blocked > *b) {
                best = Some((blocked, g, missing));
            }
        }
        if culprit.is_none() {
            if let Some((blocked, g, missing)) = best {
                culprit = Some(Culprit {
                    rank: missing[0],
                    op: g.op.name().to_string(),
                    detail: format!(
                        "gang rank {} never completed {} (comm {:x}, epoch {}); present members \
                         {:?} lost {:.3}s blocked",
                        missing[0],
                        g.op.name(),
                        g.comm,
                        g.epoch,
                        g.members.iter().map(|(_, e)| e.rank).collect::<Vec<_>>(),
                        blocked
                    ),
                });
            } else if let Some(((phase, op, waiter, crank), agg)) = report
                .attribution
                .iter()
                .max_by(|a, b| a.1.total_s.total_cmp(&b.1.total_s))
            {
                culprit = Some(Culprit {
                    rank: *crank,
                    op: op.clone(),
                    detail: format!(
                        "gang rank {waiter} lost {:.3}s to rank {crank} in {op} during {phase}",
                        agg.total_s
                    ),
                });
            }
        }

        let _ = writeln!(
            out,
            "  window: {} ranks, {:.3}s wall, {} matched p2p ({} unmatched), \
             {} collectives ({} incomplete)",
            report.ranks,
            report.wall_s,
            report.matched.len(),
            report.unmatched_sends + report.unmatched_recvs,
            report.collectives.len(),
            report.incomplete_collectives
        );
        match &culprit {
            Some(c) => {
                let _ = writeln!(out, "  culprit: {}", c.detail);
            }
            None => {
                let _ = writeln!(out, "  culprit: none attributed (no stall evidence in window)");
            }
        }
        if !report.waits.is_empty() {
            for line in report.render_wait_table().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        Some(report)
    } else {
        let _ = writeln!(
            out,
            "  no comm capture (the trigger fired outside a gang attempt); \
             header and convergence tail only"
        );
        None
    };

    IncidentAnalysis { recomputed_digest, report, culprit, summary: out }
}

/// The incident gate: structural integrity plus trigger-specific triage
/// expectations. Passing means the bundle is complete, internally
/// consistent (digest verified), and — for stall-shaped triggers with a
/// comm capture — the triage named a culprit.
pub fn gate_incident(
    bundle: &IncidentBundle,
    analysis: &IncidentAnalysis,
) -> Result<(), String> {
    let h = &bundle.header;
    if analysis.recomputed_digest != h.capture_digest {
        return Err(format!(
            "capture digest mismatch: header {:016x}, files {:016x}",
            h.capture_digest, analysis.recomputed_digest
        ));
    }
    let captured: u64 = bundle.input.ranks.iter().map(|c| c.events.len() as u64).sum();
    if captured != h.comm_events {
        return Err(format!(
            "header claims {} comm events, files hold {captured}",
            h.comm_events
        ));
    }
    if bundle.convergence_lines != h.convergence_entries {
        return Err(format!(
            "header claims {} convergence entries, file holds {}",
            h.convergence_entries, bundle.convergence_lines
        ));
    }
    if h.trigger.wants_culprit() && captured > 0 && analysis.culprit.is_none() {
        return Err(format!(
            "trigger {} with a comm capture but no culprit attributed",
            h.trigger.name()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{RecEvent, RecorderSnapshot};
    use diffreg_comm::CommOp;

    fn ev(op: CommOp, rank: usize, epoch: u64, blocked_ns: u64) -> CommEvent {
        CommEvent {
            op,
            comm: 7,
            csize: 2,
            rank,
            peer: None,
            tag: None,
            seq: None,
            bytes: 64,
            epoch: Some(epoch),
            t0_ns: 1000 * (epoch + 1),
            t1_ns: 1000 * (epoch + 1) + 500 + blocked_ns,
            blocked_ns,
        }
    }

    fn capture(rank: usize, events: Vec<CommEvent>) -> RankCapture {
        RankCapture {
            rank,
            events,
            recorder: RecorderSnapshot {
                thread: rank as u64,
                events: vec![RecEvent {
                    t_ns: 500,
                    kind: RecKind::Serve,
                    name: "attempt-start".into(),
                    a: 5,
                    b: 1,
                }],
                seen: 1,
                recorded: 1,
                sampled_out: 0,
                overwritten: 0,
                stride: 1,
            },
        }
    }

    fn header(trigger: IncidentTrigger) -> IncidentHeader {
        IncidentHeader {
            seq: 3,
            trigger,
            job: 5,
            attempt: 2,
            round: 17,
            tenant: "imaging".into(),
            reason: "timeout".into(),
            detail: "watchdog fired in gang collective".into(),
            gang_ranks: vec![2, 3],
            slo_firing: vec!["imaging/success-rate".into()],
            comm_events: 0,
            rec_seen: 0,
            rec_recorded: 0,
            rec_sampled_out: 0,
            rec_overwritten: 0,
            convergence_entries: 0,
            convergence_evicted: 0,
            capture_digest: 0,
        }
    }

    #[test]
    fn header_round_trips_and_is_deterministic() {
        let mut h = header(IncidentTrigger::WatchdogTimeout);
        h.comm_events = 9;
        h.capture_digest = 0xdead_beef_0123_4567;
        let j = h.to_json();
        let back = IncidentHeader::from_json(&j).unwrap();
        assert_eq!(back, h);
        assert_eq!(j.to_string(), h.to_json().to_string(), "serialization is deterministic");
    }

    #[test]
    fn digest_ignores_timestamps_but_pins_everything_else() {
        let base = vec![capture(0, vec![ev(CommOp::Allreduce, 0, 4, 10)])];
        let d0 = capture_digest(&base);
        // Same events, different wall clock: digest unchanged.
        let mut shifted = base.clone();
        shifted[0].events[0].t0_ns += 12345;
        shifted[0].events[0].blocked_ns += 999;
        assert_eq!(capture_digest(&shifted), d0);
        // A different epoch changes it.
        let mut other = base.clone();
        other[0].events[0].epoch = Some(5);
        assert_ne!(capture_digest(&other), d0);
        // A span's duration word is excluded; its depth word is not.
        let mut with_span = base.clone();
        with_span[0].recorder.events.push(RecEvent {
            t_ns: 1,
            kind: RecKind::Span,
            name: "fft.forward".into(),
            a: 111,
            b: 0,
        });
        let ds = capture_digest(&with_span);
        with_span[0].recorder.events[1].a = 999_999;
        assert_eq!(capture_digest(&with_span), ds, "span duration must not affect the digest");
        with_span[0].recorder.events[1].b = 3;
        assert_ne!(capture_digest(&with_span), ds);
    }

    #[test]
    fn bundle_round_trips_through_disk_and_gates() {
        let tmp = std::env::temp_dir().join(format!("diffreg-incident-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        // Rank 1 never completes the allreduce at epoch 4: an incomplete
        // group with rank 0 blocked — the watchdog-timeout shape.
        let captures = vec![
            capture(
                0,
                vec![
                    ev(CommOp::Barrier, 0, 3, 5),
                    ev(CommOp::Allreduce, 0, 4, 2_000_000_000),
                ],
            ),
            capture(1, vec![ev(CommOp::Barrier, 1, 3, 5)]),
        ];
        let mut tail = ConvergenceLog::with_tail_cap("job5", 4);
        for i in 1..=6 {
            tail.event("iter", 0, i, "x");
        }
        let dir = write_incident_bundle(
            &tmp,
            header(IncidentTrigger::WatchdogTimeout),
            &captures,
            Some(&tail),
            Some(&MetricsRegistry::new()),
        )
        .unwrap();
        assert!(dir.ends_with("incident-003-watchdog-timeout"));

        let bundle = load_incident_bundle(&dir).unwrap();
        assert_eq!(bundle.header.comm_events, 3);
        assert_eq!(bundle.header.convergence_entries, 4);
        assert_eq!(bundle.header.convergence_evicted, 2);
        let analysis = analyze_incident(&bundle);
        assert_eq!(analysis.recomputed_digest, bundle.header.capture_digest);
        let culprit = analysis.culprit.as_ref().expect("stall must be attributed");
        assert_eq!(culprit.rank, 1, "the rank missing from the group is the culprit");
        assert_eq!(culprit.op, "allreduce");
        assert!(analysis.summary.contains("watchdog-timeout"), "{}", analysis.summary);
        assert!(analysis.summary.contains("culprit"), "{}", analysis.summary);
        gate_incident(&bundle, &analysis).unwrap();

        // Tampering with a captured event must trip the digest gate.
        let ev_file = dir.join("events-rank0.jsonl");
        let text = std::fs::read_to_string(&ev_file).unwrap();
        assert!(text.contains("\"bytes\":64"), "{text}");
        std::fs::write(&ev_file, text.replacen("\"bytes\":64", "\"bytes\":65", 1)).unwrap();
        let tampered = load_incident_bundle(&dir).unwrap();
        let re = analyze_incident(&tampered);
        let err = gate_incident(&tampered, &re).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");

        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn loader_reports_missing_and_truncated_bundles_typed() {
        let tmp =
            std::env::temp_dir().join(format!("diffreg-incident-miss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        match load_incident_bundle(&tmp) {
            Err(BundleError::MissingBundle(p)) => assert_eq!(p, tmp),
            other => panic!("expected MissingBundle, got {other:?}"),
        }
        std::fs::create_dir_all(&tmp).unwrap();
        std::fs::write(tmp.join("incident.json"), "{\"schema\":\"diffreg-inci").unwrap();
        match load_incident_bundle(&tmp) {
            Err(BundleError::Truncated { file, .. }) => assert_eq!(file, "incident.json"),
            other => panic!("expected Truncated, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn header_only_bundle_passes_the_gate_for_queue_side_triggers() {
        let tmp =
            std::env::temp_dir().join(format!("diffreg-incident-hdr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let dir = write_incident_bundle(
            &tmp,
            IncidentHeader { attempt: 0, gang_ranks: vec![], ..header(IncidentTrigger::DeadlineExpiry) },
            &[],
            None,
            None,
        )
        .unwrap();
        let bundle = load_incident_bundle(&dir).unwrap();
        let analysis = analyze_incident(&bundle);
        assert!(analysis.report.is_none());
        assert!(analysis.summary.contains("no comm capture"), "{}", analysis.summary);
        gate_incident(&bundle, &analysis).unwrap();
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
