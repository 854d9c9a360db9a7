//! The SPMD serving loop: a shared rank pool that multiplexes many
//! concurrent registration jobs, contains their failures, and recovers them
//! from checkpoints.
//!
//! ## Architecture
//!
//! [`ServeHarness::serve_pool`] runs on **every** pool rank (inside
//! `run_threaded`). The scheduler has no coordinator: each rank holds an
//! identical replica of the job table and advances it in lock-step rounds:
//!
//! 1. **intake** — rank 0 drains the submission/cancel inboxes and
//!    broadcasts one blob; every rank applies the identical admissions
//!    (with capacity-based rejection), cancellations, backoff releases, and
//!    deadline sweeps;
//! 2. **plan** — every rank evaluates the pure
//!    [`plan_round`](crate::scheduler::plan_round) packing on its replica
//!    and obtains the identical gang layout;
//! 3. **split + execute** — the layout is the `Comm::split` coloring; each
//!    gang runs one job attempt under [`run_gang`] containment, wrapped in
//!    a [`ChaosComm`] carrying the attempt's planned faults. A rank killed
//!    inside a gang unwinds into a structured failure; the pool rank
//!    survives and rejoins the world;
//! 4. **outcome allgather + fold** — every rank hears every gang member's
//!    report and folds the identical state transition: complete, cancel,
//!    expire, fail (budget exhausted), or back off and retry — resuming
//!    from the job's checkpoint when one exists, degrading the gang size
//!    when fresh restarts keep dying.
//!
//! Because every state transition derives from broadcast or allgathered
//! data, replicas can never diverge — and the whole campaign replays
//! bit-identically under a fixed fault plan.
//!
//! ## Checkpoint recovery
//!
//! Jobs with `checkpoint_every > 0` write per-gang-rank checkpoints through
//! `diffreg-core`'s two-generation [`CheckpointStore`]. On retry the gang
//! first *agrees* on the resume point: each member loads its slot with
//! validated fallback and the gang allreduces a fingerprint of
//! `(level, completed_iters)`. If members disagree (torn generations, a
//! stale slot from a larger gang), every member drops its checkpoint and
//! the attempt restarts fresh — a consistent restart is always preferred
//! over an inconsistent resume. A consistent resume is *bitwise* identical
//! to an uninterrupted solve (the PR 2 contract), which the load test
//! verifies digest-for-digest.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use diffreg_comm::{
    run_gang, run_threaded, ChaosComm, ChaosConfig, Comm, ThreadComm, Timers,
};
use diffreg_core::{register_solve, CheckpointStore, RegistrationConfig};
use diffreg_grid::{Decomp, Grid, ScalarField, VectorField};
use diffreg_optim::NewtonOptions;
use diffreg_pfft::PencilFft;
use diffreg_telemetry::doctor::{write_trace_bundle, RankCapture};
use diffreg_telemetry::incident::{write_incident_bundle, IncidentHeader};
use diffreg_telemetry::{
    record_comm_summary, record_event, set_trace_enabled, snapshot_recorder, span, take_recorder,
    ConvergenceLog, Json, MetricsRegistry, Profile, RecKind, StreamEntry,
};
use diffreg_transport::{SemiLagrangian, Workspace};

use crate::faults::{AttemptFaults, FaultInjector};
use crate::http::{HttpServer, ObsSlot, ObsSnapshot};
use crate::incident::{failure_trigger, CaptureStage, IncidentRecord, IncidentTrigger};
use crate::job::{
    backoff_rounds, decode_intake, encode_intake, fnv_fold_u64, JobId, JobRecord, JobResult,
    JobSpec, JobState, FNV_OFFSET,
};
use crate::scheduler::{plan_round, Assignment};
use crate::slo::{AlertState, SloEngine, SloPolicy};

/// Locks a mutex, riding through poisoning (a contained gang kill may have
/// unwound while holding a side-store lock; the data is still consistent —
/// each protected value is only ever appended to or overwritten whole).
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sleep per empty round while intake is open (keeps an idle pool from
/// hot-spinning).
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// Graceful degradation: once a job has failed this many attempts without
/// ever resuming from a checkpoint, halve its gang size.
const DEGRADE_AFTER: u32 = 2;

/// Convergence-log entries captured into each incident bundle's tail.
const INCIDENT_TAIL: usize = 64;

/// Serving-runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission control: jobs beyond this many waiting (queued + backed
    /// off) are rejected at intake.
    pub queue_capacity: usize,
    /// Gang watchdog — turns a stalled or orphaned gang collective into a
    /// contained timeout failure instead of a pool hang.
    pub watchdog: Option<Duration>,
    /// When set, per-job checkpoint stores are file-backed under this
    /// directory (exercising the hardened DRCK format on disk); otherwise
    /// they are shared in-memory stores.
    pub checkpoint_dir: Option<PathBuf>,
    /// Run the pool with full tracing and keep this job's staged captures
    /// so [`ServeHarness::write_traced_job_bundle`] can emit a
    /// doctor-readable trace bundle of its last attempt.
    pub trace_job: Option<JobId>,
    /// When set, every incident trigger writes a doctor-readable bundle
    /// under this directory (rank 0 writes; triggers themselves are
    /// computed on every rank and land in the replicated summary). Also
    /// stages every attempt's comm events + flight-recorder window.
    pub incident_dir: Option<PathBuf>,
    /// Per-tenant SLO policy; `None` disables the SLO engine.
    pub slo: Option<SloPolicy>,
    /// Live observability endpoints: when set, rank 0 binds a read-only
    /// HTTP/1.1 server on this address (`127.0.0.1:0` for an ephemeral
    /// loopback port) and publishes a snapshot at every round boundary.
    /// Serving never touches replicated state. See [`crate::http`].
    pub http_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            watchdog: Some(Duration::from_secs(30)),
            checkpoint_dir: None,
            trace_job: None,
            incident_dir: None,
            slo: None,
            http_addr: None,
        }
    }
}

/// One streamed solver-progress sample (gang rank 0 of the owning gang
/// forwards every Newton iteration as it lands).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressEvent {
    /// Job id.
    pub job: JobId,
    /// 1-based attempt.
    pub attempt: u32,
    /// β-continuation level.
    pub level: usize,
    /// Accepted Newton iterations completed at this level.
    pub iter: usize,
    /// Objective value.
    pub objective: f64,
    /// Gradient norm.
    pub grad_norm: f64,
}

/// Final, replicated summary of one `serve_pool` run. Every pool rank
/// returns an identical value — tests assert this replication invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSummary {
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// Jobs rejected at admission, in intake order.
    pub rejected: Vec<JobId>,
    /// Final job table.
    pub records: BTreeMap<JobId, JobRecord>,
    /// Fold-derived incident records, in deterministic trigger order
    /// (identical on every rank and across seeded replays).
    pub incidents: Vec<IncidentRecord>,
    /// Rendered SLO alert-log lines, in transition order (empty when no
    /// SLO policy is configured).
    pub slo_alerts: Vec<String>,
    /// FNV digest of the final SLO engine state (0 without a policy);
    /// equality across ranks proves bit-identical alert state.
    pub slo_digest: u64,
}

impl ServeSummary {
    /// Count of jobs in `state`.
    pub fn count(&self, state: JobState) -> usize {
        self.records.values().filter(|r| r.state == state).count()
    }

    /// Zero-loss invariant: every admitted job reached a *deliberate*
    /// terminal state.
    pub fn all_accounted_for(&self) -> bool {
        self.records.values().all(|r| r.state.is_terminal())
    }
}

// ---------------------------------------------------------------------------
// Attempt reports (the outcome-allgather wire format)
// ---------------------------------------------------------------------------

const KIND_IDLE: u64 = 0;
const KIND_OK: u64 = 1;
const KIND_FAIL: u64 = 2;

const REASON_KILL: u64 = 1;
const REASON_TIMEOUT: u64 = 2;
const REASON_PEER: u64 = 3;
const REASON_OTHER: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AttemptReport {
    kind: u64,
    job: JobId,
    reason: u64,
    digest: u64,
    mismatch_bits: u64,
    resumed: bool,
    fell_back: bool,
}

impl AttemptReport {
    fn idle() -> Self {
        Self {
            kind: KIND_IDLE,
            job: 0,
            reason: 0,
            digest: 0,
            mismatch_bits: 0,
            resumed: false,
            fell_back: false,
        }
    }

    fn encode(&self) -> Vec<u64> {
        vec![
            self.kind,
            self.job,
            self.reason,
            self.digest,
            self.mismatch_bits,
            u64::from(self.resumed),
            u64::from(self.fell_back),
        ]
    }

    fn decode(w: &[u64]) -> Self {
        Self {
            kind: w[0],
            job: w[1],
            reason: w[2],
            digest: w[3],
            mismatch_bits: w[4],
            resumed: w[5] == 1,
            fell_back: w[6] == 1,
        }
    }
}

/// Maps a contained panic payload to a failure-reason code.
fn classify_failure(payload: &str) -> u64 {
    let p = payload.to_lowercase();
    if p.contains("injected kill") {
        REASON_KILL
    } else if p.contains("timeout") || p.contains("watchdog") {
        REASON_TIMEOUT
    } else if p.contains("peer") {
        REASON_PEER
    } else {
        REASON_OTHER
    }
}

fn reason_label(reason: u64) -> &'static str {
    match reason {
        REASON_KILL => "kill",
        REASON_TIMEOUT => "timeout",
        REASON_PEER => "peer-gone",
        _ => "other",
    }
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// Shared state of one serving deployment: submission inboxes, per-job
/// checkpoint stores, the progress stream, and the metrics dashboard.
///
/// Clone freely — clones share state. Submit and cancel from any thread
/// (including while the pool is running); call
/// [`serve_pool`](Self::serve_pool) from every rank of a `run_threaded`
/// world.
#[derive(Clone)]
pub struct ServeHarness {
    cfg: ServeConfig,
    injector: Arc<dyn FaultInjector>,
    inbox: Arc<Mutex<Vec<JobSpec>>>,
    cancel_inbox: Arc<Mutex<Vec<JobId>>>,
    intake_open: Arc<AtomicBool>,
    stores: Arc<Mutex<HashMap<JobId, CheckpointStore>>>,
    progress: Arc<Mutex<Vec<ProgressEvent>>>,
    logs: Arc<Mutex<HashMap<JobId, ConvergenceLog>>>,
    metrics: Arc<Mutex<MetricsRegistry>>,
    stage: Arc<Mutex<CaptureStage>>,
    obs: ObsSlot,
    http_bound: Arc<Mutex<Option<std::net::SocketAddr>>>,
}

/// Context for one incident trigger (everything
/// [`ServeHarness::record_incident`] needs beyond the shared state).
struct IncidentCtx<'a> {
    trigger: IncidentTrigger,
    job: JobId,
    attempt: u32,
    tenant: &'a str,
    round: u64,
    gang_ranks: &'a [usize],
    reason: &'a str,
    detail: String,
}

impl ServeHarness {
    /// A new deployment with the given config and fault plan (use
    /// [`NoFaults`](crate::faults::NoFaults) for production behavior).
    pub fn new(cfg: ServeConfig, injector: Arc<dyn FaultInjector>) -> Self {
        Self {
            cfg,
            injector,
            inbox: Arc::new(Mutex::new(Vec::new())),
            cancel_inbox: Arc::new(Mutex::new(Vec::new())),
            intake_open: Arc::new(AtomicBool::new(true)),
            stores: Arc::new(Mutex::new(HashMap::new())),
            progress: Arc::new(Mutex::new(Vec::new())),
            logs: Arc::new(Mutex::new(HashMap::new())),
            metrics: Arc::new(Mutex::new(MetricsRegistry::new())),
            stage: Arc::new(Mutex::new(BTreeMap::new())),
            obs: Arc::new(Mutex::new(Arc::new(ObsSnapshot::default()))),
            http_bound: Arc::new(Mutex::new(None)),
        }
    }

    /// The observability server's bound address, once rank 0 started it
    /// (`None` when HTTP is disabled or the pool has not started yet).
    /// With port 0 this is where the ephemeral port shows up.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        *lock(&self.http_bound)
    }

    /// The latest published observability snapshot (what the endpoints
    /// serve right now).
    pub fn observability(&self) -> Arc<ObsSnapshot> {
        Arc::clone(&lock(&self.obs))
    }

    /// Enqueues a job for admission at the pool's next intake round.
    pub fn submit(&self, spec: JobSpec) {
        lock(&self.inbox).push(spec);
    }

    /// Requests cancellation of `id` (applied at the next intake round;
    /// too late once the job completed).
    pub fn cancel(&self, id: JobId) {
        lock(&self.cancel_inbox).push(id);
    }

    /// Closes intake: once the inboxes drain and every admitted job reaches
    /// a terminal state, `serve_pool` returns on all ranks.
    pub fn close_intake(&self) {
        self.intake_open.store(false, Ordering::SeqCst);
    }

    /// Snapshot of the streamed progress events so far.
    pub fn progress(&self) -> Vec<ProgressEvent> {
        lock(&self.progress).clone()
    }

    /// Per-job convergence log (iteration records plus serve-side events:
    /// attempts, resumes, fallbacks, checkpoint drops).
    pub fn job_log(&self, id: JobId) -> Option<ConvergenceLog> {
        lock(&self.logs).get(&id).cloned()
    }

    /// The dashboard rendered in Prometheus text exposition format
    /// (deterministic: counters and histograms derive only from the
    /// replicated schedule; only the latency histograms' *values* are
    /// wall-clock).
    pub fn render_prometheus(&self) -> String {
        lock(&self.metrics).render_prometheus()
    }

    /// A named counter from the dashboard.
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.metrics).counter(name).unwrap_or(0)
    }

    /// The checkpoint store backing `job` (shared across pool ranks;
    /// created on first use). `Disabled` for jobs that never checkpoint.
    pub fn store_for(&self, spec: &JobSpec) -> CheckpointStore {
        if spec.checkpoint_every == 0 {
            return CheckpointStore::Disabled;
        }
        let mut map = lock(&self.stores);
        map.entry(spec.id)
            .or_insert_with(|| match &self.cfg.checkpoint_dir {
                Some(dir) => CheckpointStore::file(dir.join(format!("job{}", spec.id))),
                None => CheckpointStore::memory(),
            })
            .clone()
    }

    /// Whether attempts of `job` stage their capture (comm events +
    /// flight-recorder window) for an incident bundle or the traced-job
    /// bundle.
    fn stages(&self, job: JobId) -> bool {
        self.cfg.incident_dir.is_some() || self.cfg.trace_job == Some(job)
    }

    /// Writes the traced job's final attempt as a doctor-readable trace
    /// bundle (`events-rank*.jsonl`, `recorder-rank*.jsonl`, `metrics.json`,
    /// `trace.json`). Call after the pool has drained. Returns the gang size
    /// written, or 0 when nothing was traced.
    pub fn write_traced_job_bundle(&self, dir: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        let Some(job) = self.cfg.trace_job else { return Ok(0) };
        let stage = lock(&self.stage);
        // Ordered by (job, attempt): the job's last entry is its last attempt.
        let Some((_, captures)) = stage.range((job, 0)..=(job, u32::MAX)).next_back() else {
            return Ok(0);
        };
        let captures: Vec<RankCapture> = captures.values().cloned().collect();
        let metrics = lock(&self.metrics).clone();
        write_trace_bundle(dir, &captures, Some(&metrics))?;
        Ok(captures.len())
    }

    // -- the SPMD loop ------------------------------------------------------

    /// Runs the serving loop on this pool rank. Call from **every** rank of
    /// a `run_threaded` world; returns when intake is closed and every
    /// admitted job is terminal. All ranks return the identical summary.
    pub fn serve_pool(&self, world: &ThreadComm) -> ServeSummary {
        let me = world.rank();
        let pool = world.size();
        let mut table: BTreeMap<JobId, JobRecord> = BTreeMap::new();
        let mut rejected: Vec<JobId> = Vec::new();
        let mut submit_times: HashMap<JobId, Instant> = HashMap::new();
        let mut round: u64 = 0;
        let mut slo: Option<SloEngine> = self.cfg.slo.clone().map(SloEngine::new);
        let mut incidents: Vec<IncidentRecord> = Vec::new();
        if me == 0 {
            let mut m = lock(&self.metrics);
            m.set_gauge("serve_pool_ranks", pool as f64);
        }
        if self.cfg.trace_job.is_some() {
            set_trace_enabled(true);
        }
        // Live observability plane: rank 0 only, opt-in, read-only. The
        // server thread sees nothing but published snapshot Arcs, so it
        // cannot perturb the replicated schedule (digest parity with HTTP
        // disabled is pinned by the load test).
        let http_spec = self.cfg.http_addr.clone();
        let http = if me == 0 {
            http_spec.and_then(|spec| match HttpServer::start(&spec, Arc::clone(&self.obs)) {
                Ok(server) => {
                    *lock(&self.http_bound) = Some(server.addr());
                    Some(server)
                }
                Err(e) => {
                    lock(&self.metrics).inc_counter("serve_http_bind_errors_total", 1);
                    eprintln!("serve: http bind failed ({e}); observability disabled");
                    None
                }
            })
        } else {
            None
        };

        loop {
            // 1. intake: rank 0 drains, everyone applies the same blob.
            let intake_span = span("serve.intake");
            let mut wire: Vec<u8> = if me == 0 {
                let specs: Vec<JobSpec> = std::mem::take(&mut *lock(&self.inbox));
                let cancels: Vec<JobId> = std::mem::take(&mut *lock(&self.cancel_inbox));
                let open = self.intake_open.load(Ordering::SeqCst);
                encode_intake(&specs, &cancels, open)
            } else {
                Vec::new()
            };
            world.broadcast(0, &mut wire);
            let (specs, cancels, open) = decode_intake(&wire);

            for spec in specs {
                let id = spec.id;
                if me == 0 {
                    lock(&self.metrics).inc_counter("serve_jobs_submitted_total", 1);
                }
                let waiting = table.values().filter(|r| r.state.is_waiting()).count();
                if waiting >= self.cfg.queue_capacity || table.contains_key(&id) {
                    rejected.push(id);
                    if me == 0 {
                        lock(&self.metrics).inc_counter("serve_jobs_rejected_total", 1);
                    }
                    continue;
                }
                if me == 0 {
                    submit_times.insert(id, Instant::now());
                }
                table.insert(id, JobRecord::new(spec, round, pool));
            }
            for id in cancels {
                if let Some(rec) = table.get_mut(&id) {
                    match rec.state {
                        JobState::Queued | JobState::Backoff { .. } => {
                            rec.state = JobState::Cancelled;
                            rec.finish_round = Some(round);
                            if me == 0 {
                                lock(&self.metrics).inc_counter("serve_jobs_cancelled_total", 1);
                            }
                        }
                        JobState::Running => rec.cancel_requested = true,
                        _ => {}
                    }
                }
            }

            // 2. backoff release + deadline sweep.
            for rec in table.values_mut() {
                if let JobState::Backoff { until_round } = rec.state {
                    if round >= until_round {
                        rec.state = JobState::Queued;
                    }
                }
                if rec.state.is_waiting() {
                    if let Some(d) = rec.spec.deadline_rounds {
                        if round.saturating_sub(rec.submit_round) >= d {
                            rec.state = JobState::Expired;
                            rec.finish_round = Some(round);
                            if me == 0 {
                                lock(&self.metrics).inc_counter("serve_jobs_expired_total", 1);
                            }
                            let qw = rec
                                .first_start_round
                                .unwrap_or(round)
                                .saturating_sub(rec.submit_round);
                            if let Some(s) = slo.as_mut() {
                                s.observe_terminal(
                                    &rec.spec.tenant,
                                    round,
                                    qw,
                                    round.saturating_sub(rec.submit_round),
                                    false,
                                );
                            }
                            let firing =
                                slo.as_ref().map(|s| s.firing()).unwrap_or_default();
                            self.record_incident(
                                &mut incidents,
                                &firing,
                                me,
                                IncidentCtx {
                                    trigger: IncidentTrigger::DeadlineExpiry,
                                    job: rec.spec.id,
                                    attempt: rec.attempts,
                                    tenant: &rec.spec.tenant,
                                    round,
                                    gang_ranks: &[],
                                    reason: "deadline",
                                    detail: format!(
                                        "deadline of {d} rounds passed while waiting in queue"
                                    ),
                                },
                            );
                        }
                    }
                }
            }

            drop(intake_span);

            // 3. termination: replicated decision (open and the table are
            // identical on every rank).
            if !open && table.values().all(|r| r.state.is_terminal()) {
                break;
            }

            // 4. plan, mark running, account attempts.
            let plan_span = span("serve.plan");
            let plan = plan_round(&table, pool);
            for a in &plan {
                if let Some(rec) = table.get_mut(&a.job) {
                    rec.state = JobState::Running;
                    rec.attempts += 1;
                    if rec.first_start_round.is_none() {
                        rec.first_start_round = Some(round);
                        if me == 0 {
                            if let Some(t0) = submit_times.get(&a.job) {
                                let wait = t0.elapsed().as_secs_f64();
                                lock(&self.metrics).observe("serve_queue_wait_seconds", wait);
                            }
                        }
                    }
                    if me == 0 {
                        lock(&self.metrics).inc_counter("serve_attempts_total", 1);
                    }
                }
            }
            if me == 0 {
                let mut m = lock(&self.metrics);
                let waiting = table.values().filter(|r| r.state.is_waiting()).count();
                m.set_gauge("serve_queue_depth", waiting as f64);
                m.set_gauge("serve_running_jobs", plan.len() as f64);
                m.inc_counter("serve_rounds_total", 1);
            }

            drop(plan_span);

            if plan.is_empty() && open {
                std::thread::sleep(IDLE_SLEEP);
            }

            // 5. split into gangs (the plan IS the coloring) and execute.
            let mine = plan.iter().position(|a| a.ranks.contains(&me));
            let color = mine.unwrap_or(plan.len());
            let sub = world.split(color, me);
            let report = match mine {
                Some(ai) => {
                    let a = &plan[ai];
                    match table.get(&a.job) {
                        Some(rec) => self.run_attempt(sub, a, rec),
                        None => AttemptReport::idle(),
                    }
                }
                None => {
                    drop(sub);
                    AttemptReport::idle()
                }
            };

            // Stage this rank's capture before the allgather: the gang's
            // comm events landed on this pool rank's shared event log (the
            // split shares it), and the flight-recorder window covers the
            // attempt since its start-of-attempt reset. The allgather below
            // is the barrier that makes every gang member's insert visible
            // to rank 0's fold.
            let staged = mine.map(|ai| &plan[ai]).filter(|a| self.stages(a.job));
            if let Some((a, rec)) = staged.and_then(|a| Some((a, table.get(&a.job)?))) {
                let events = world.take_events();
                let mut per_op: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
                for e in &events {
                    let p = per_op.entry(e.op.name()).or_insert((0, 0));
                    p.0 += 1;
                    p.1 += e.bytes;
                }
                for (op, (n, bytes)) in per_op {
                    record_comm_summary(op, n, bytes);
                }
                let gang_rank = a.ranks.iter().position(|r| *r == me).unwrap_or(0);
                // This rank's own failure reason is the triage's strongest
                // culprit signal (comm streams truncate symmetrically on
                // gang-fatal faults): the killed rank reports the kill, the
                // stalled rank reports peer-gone while its waiters report
                // timeout.
                if report.kind == KIND_FAIL {
                    let name = "serve.attempt-failed";
                    record_event(RecKind::Serve, name, report.reason, gang_rank as u64);
                }
                let recorder = take_recorder();
                lock(&self.stage).entry((a.job, rec.attempts)).or_default().insert(
                    gang_rank,
                    RankCapture { rank: gang_rank, events, recorder },
                );
            }

            // 6. outcome allgather + deterministic fold.
            let fold_span = span("serve.outcome-fold");
            let gathered = world.allgather(report.encode());
            let reports: Vec<AttemptReport> =
                gathered.iter().map(|w| AttemptReport::decode(w)).collect();
            self.fold_outcomes(
                &mut table,
                &plan,
                &reports,
                round,
                me,
                &submit_times,
                &mut slo,
                &mut incidents,
            );
            drop(fold_span);

            // 7. SLO window rotation + alert transitions (replicated), and
            // per-round capture-stage cleanup. Rank 0 reaches this only
            // after writing any bundles; the other ranks cannot start the
            // next round's attempts before rank 0's intake broadcast, so
            // clearing here cannot race new inserts.
            if let Some(s) = slo.as_mut() {
                let alerts = s.advance_round(round);
                let firing = s.firing();
                for al in &alerts {
                    if me == 0 {
                        lock(&self.metrics).inc_counter("serve_slo_transitions_total", 1);
                    }
                    if al.state == AlertState::Firing {
                        self.record_incident(
                            &mut incidents,
                            &firing,
                            me,
                            IncidentCtx {
                                trigger: IncidentTrigger::SloBurnRate,
                                job: 0,
                                attempt: 0,
                                tenant: &al.tenant,
                                round,
                                gang_ranks: &[],
                                reason: "slo",
                                detail: al.render(),
                            },
                        );
                    }
                }
                if me == 0 {
                    s.export(round, &mut lock(&self.metrics));
                }
            }
            if me == 0 {
                lock(&self.stage).retain(|(job, _), _| self.cfg.trace_job == Some(*job));
            }

            // Round boundary: rank 0 publishes the observability snapshot
            // (pure reads of replicated/fold-derived state; the HTTP thread
            // only ever swaps snapshot Arcs).
            if me == 0 && http.is_some() {
                self.publish_obs(round, &table, slo.as_ref(), &incidents);
            }

            round += 1;
        }

        if let Some(server) = http {
            self.publish_obs(round, &table, slo.as_ref(), &incidents);
            server.stop();
        }
        if self.cfg.trace_job.is_some() {
            set_trace_enabled(false);
        }
        if me == 0 {
            let mut m = lock(&self.metrics);
            m.set_gauge("serve_queue_depth", 0.0);
            m.set_gauge("serve_running_jobs", 0.0);
        }
        ServeSummary {
            rounds: round,
            rejected,
            records: table,
            incidents,
            slo_alerts: slo.as_ref().map(|s| s.render_alert_log()).unwrap_or_default(),
            slo_digest: slo.as_ref().map(|s| s.state_digest()).unwrap_or(0),
        }
    }

    /// Rebuilds and publishes the observability snapshot (rank 0, round
    /// boundary). Everything here is a *read*: the replicated job table,
    /// the fold-derived SLO/incident state, the metrics dashboard, the
    /// convergence logs, and this rank's flight-recorder window (a
    /// non-draining snapshot — attempt capture accounting is untouched).
    fn publish_obs(
        &self,
        round: u64,
        table: &BTreeMap<JobId, JobRecord>,
        slo: Option<&SloEngine>,
        incidents: &[IncidentRecord],
    ) {
        let state_label = |s: &JobState| -> String {
            match s {
                JobState::Queued => "queued".to_string(),
                JobState::Running => "running".to_string(),
                JobState::Backoff { until_round } => format!("backoff(until={until_round})"),
                JobState::Completed => "completed".to_string(),
                JobState::Cancelled => "cancelled".to_string(),
                JobState::Expired => "expired".to_string(),
                JobState::Failed => "failed".to_string(),
            }
        };
        let jobs_json = {
            let logs = lock(&self.logs);
            let mut jobs: Vec<Json> = Vec::with_capacity(table.len());
            for rec in table.values() {
                let mut j = Json::obj()
                    .set("id", rec.spec.id)
                    .set("tenant", rec.spec.tenant.as_str())
                    .set("state", state_label(&rec.state))
                    .set("gang_size", rec.gang_size)
                    .set("attempts", rec.attempts)
                    .set("resumed_attempts", rec.resumed_attempts)
                    .set("submit_round", rec.submit_round)
                    .set(
                        "first_start_round",
                        rec.first_start_round.map(Json::from).unwrap_or(Json::Null),
                    )
                    .set("finish_round", rec.finish_round.map(Json::from).unwrap_or(Json::Null));
                if let Some(res) = &rec.result {
                    j = j
                        .set("digest", format!("{:016x}", res.digest))
                        .set("result_gang_size", res.gang_size)
                        .set("resumed", res.resumed);
                }
                let last_iter = logs.get(&rec.spec.id).and_then(|log| {
                    log.entries.iter().rev().find_map(|e| match e {
                        StreamEntry::Iter(it) => Some(it),
                        _ => None,
                    })
                });
                if let Some(it) = last_iter {
                    j = j.set(
                        "last_iter",
                        Json::obj()
                            .set("level", it.level)
                            .set("iter", it.iter)
                            .set("objective", it.objective)
                            .set("grad_norm", it.grad_norm)
                            .set("rel_grad", it.rel_grad)
                            .set("pcg_iters", it.pcg_iters),
                    );
                }
                jobs.push(j);
            }
            Json::obj().set("round", round).set("jobs", jobs).to_string()
        };
        let slo_json = match slo {
            Some(s) => Json::obj()
                .set("round", round)
                .set("digest", format!("{:016x}", s.state_digest()))
                .set(
                    "firing",
                    s.firing().into_iter().map(Json::from).collect::<Vec<Json>>(),
                )
                .set(
                    "alerts",
                    s.render_alert_log().into_iter().map(Json::from).collect::<Vec<Json>>(),
                )
                .to_string(),
            None => Json::obj().set("round", round).set("disabled", true).to_string(),
        };
        let incidents_json = {
            let items: Vec<Json> = incidents
                .iter()
                .map(|i| {
                    Json::obj()
                        .set("seq", i.seq)
                        .set("trigger", i.trigger.name())
                        .set("job", i.job)
                        .set("attempt", i.attempt)
                        .set("round", i.round)
                        .set("reason", i.reason.as_str())
                })
                .collect();
            Json::obj().set("round", round).set("incidents", items).to_string()
        };
        let profile = Profile::from_recorders([(0, &snapshot_recorder())]);
        let snap = ObsSnapshot {
            round,
            ready: true,
            metrics_text: lock(&self.metrics).render_prometheus(),
            jobs_json,
            slo_json,
            incidents_json,
            profile_folded: profile.render_folded(),
        };
        *lock(&self.obs) = Arc::new(snap);
    }

    /// Folds one round's allgathered gang outcomes into the replicated
    /// table, feeding the SLO engine and the incident sequence (both
    /// fold-derived, so identical on every rank). Pure with respect to the
    /// replicated inputs; rank 0 additionally records metrics and writes
    /// incident bundles.
    #[allow(clippy::too_many_arguments)]
    fn fold_outcomes(
        &self,
        table: &mut BTreeMap<JobId, JobRecord>,
        plan: &[Assignment],
        reports: &[AttemptReport],
        round: u64,
        me: usize,
        submit_times: &HashMap<JobId, Instant>,
        slo: &mut Option<SloEngine>,
        incidents: &mut Vec<IncidentRecord>,
    ) {
        // Alert state only transitions in `advance_round`, so one snapshot
        // serves every bundle header written this fold.
        let firing: Vec<String> = slo.as_ref().map(|s| s.firing()).unwrap_or_default();
        for a in plan {
            let members: Vec<&AttemptReport> = a.ranks.iter().map(|r| &reports[*r]).collect();
            let Some(rec) = table.get_mut(&a.job) else { continue };
            let all_ok = members.iter().all(|m| m.kind == KIND_OK);
            if all_ok {
                let lead = members[0];
                if lead.resumed {
                    rec.resumed_attempts += 1;
                }
                if lead.fell_back {
                    rec.fallbacks += 1;
                }
                rec.state = JobState::Completed;
                rec.finish_round = Some(round);
                rec.result = Some(JobResult {
                    digest: lead.digest,
                    final_mismatch_bits: lead.mismatch_bits,
                    gang_size: a.ranks.len(),
                    attempt: rec.attempts,
                    resumed: lead.resumed,
                });
                if let Some(s) = slo.as_mut() {
                    let qw = rec
                        .first_start_round
                        .unwrap_or(round)
                        .saturating_sub(rec.submit_round);
                    s.observe_terminal(
                        &rec.spec.tenant,
                        round,
                        qw,
                        round.saturating_sub(rec.submit_round),
                        true,
                    );
                }
                if lead.fell_back {
                    self.record_incident(
                        incidents,
                        &firing,
                        me,
                        IncidentCtx {
                            trigger: IncidentTrigger::CheckpointFallback,
                            job: a.job,
                            attempt: rec.attempts,
                            tenant: &rec.spec.tenant,
                            round,
                            gang_ranks: &a.ranks,
                            reason: "",
                            detail: "resume fell back to the previous checkpoint generation \
                                     (current generation torn)"
                                .to_string(),
                        },
                    );
                }
                if me == 0 {
                    let mut m = lock(&self.metrics);
                    m.inc_counter("serve_jobs_completed_total", 1);
                    if lead.resumed {
                        m.inc_counter("serve_jobs_recovered_total", 1);
                    }
                    if lead.fell_back {
                        m.inc_counter("serve_checkpoint_fallback_total", 1);
                    }
                    if let Some(t0) = submit_times.get(&a.job) {
                        m.observe("serve_job_e2e_seconds", t0.elapsed().as_secs_f64());
                    }
                }
                continue;
            }

            // Failure: pick the highest-precedence cause among the members
            // (kill > timeout > peer-gone > other).
            let reason = members
                .iter()
                .filter(|m| m.kind == KIND_FAIL && m.reason != 0)
                .map(|m| m.reason)
                .min()
                .unwrap_or(REASON_OTHER);
            rec.last_failure = Some(reason_label(reason).to_string());
            if me == 0 {
                lock(&self.metrics).inc_counter(
                    &format!("serve_attempts_failed_total{{reason=\"{}\"}}", reason_label(reason)),
                    1,
                );
            }
            // Every failed attempt is an incident: a watchdog timeout gets
            // its own trigger (the triage hunts for the stalled rank), any
            // other contained failure files as attempt-failure.
            self.record_incident(
                incidents,
                &firing,
                me,
                IncidentCtx {
                    trigger: failure_trigger(reason_label(reason)),
                    job: a.job,
                    attempt: rec.attempts,
                    tenant: &rec.spec.tenant,
                    round,
                    gang_ranks: &a.ranks,
                    reason: reason_label(reason),
                    detail: format!(
                        "attempt {} failed on a gang of {} (reason: {})",
                        rec.attempts,
                        a.ranks.len(),
                        reason_label(reason)
                    ),
                },
            );
            let deadline_hit = rec
                .spec
                .deadline_rounds
                .is_some_and(|d| round.saturating_sub(rec.submit_round) >= d);
            if rec.cancel_requested {
                rec.state = JobState::Cancelled;
                rec.finish_round = Some(round);
                if me == 0 {
                    lock(&self.metrics).inc_counter("serve_jobs_cancelled_total", 1);
                }
            } else if deadline_hit {
                rec.state = JobState::Expired;
                rec.finish_round = Some(round);
                if me == 0 {
                    lock(&self.metrics).inc_counter("serve_jobs_expired_total", 1);
                }
                if let Some(s) = slo.as_mut() {
                    let qw = rec
                        .first_start_round
                        .unwrap_or(round)
                        .saturating_sub(rec.submit_round);
                    s.observe_terminal(
                        &rec.spec.tenant,
                        round,
                        qw,
                        round.saturating_sub(rec.submit_round),
                        false,
                    );
                }
                self.record_incident(
                    incidents,
                    &firing,
                    me,
                    IncidentCtx {
                        trigger: IncidentTrigger::DeadlineExpiry,
                        job: a.job,
                        attempt: rec.attempts,
                        tenant: &rec.spec.tenant,
                        round,
                        gang_ranks: &a.ranks,
                        reason: reason_label(reason),
                        detail: format!(
                            "deadline passed after attempt {} failed",
                            rec.attempts
                        ),
                    },
                );
            } else if rec.attempts > rec.spec.max_retries {
                rec.state = JobState::Failed;
                rec.finish_round = Some(round);
                if me == 0 {
                    lock(&self.metrics).inc_counter("serve_jobs_failed_total", 1);
                }
                if let Some(s) = slo.as_mut() {
                    let qw = rec
                        .first_start_round
                        .unwrap_or(round)
                        .saturating_sub(rec.submit_round);
                    s.observe_terminal(
                        &rec.spec.tenant,
                        round,
                        qw,
                        round.saturating_sub(rec.submit_round),
                        false,
                    );
                }
            } else {
                // Retry. Keep the gang size while checkpoint resume has a
                // chance (the decomposition must match for a bitwise
                // resume); degrade only a job that keeps dying without ever
                // resuming.
                if me == 0 {
                    lock(&self.metrics).inc_counter("serve_jobs_retried_total", 1);
                }
                if rec.attempts >= DEGRADE_AFTER
                    && rec.resumed_attempts == 0
                    && rec.gang_size > 1
                {
                    rec.gang_size /= 2;
                    if me == 0 {
                        lock(&self.metrics).inc_counter("serve_jobs_degraded_total", 1);
                    }
                    self.record_incident(
                        incidents,
                        &firing,
                        me,
                        IncidentCtx {
                            trigger: IncidentTrigger::GangDegraded,
                            job: a.job,
                            attempt: rec.attempts,
                            tenant: &rec.spec.tenant,
                            round,
                            gang_ranks: &a.ranks,
                            reason: reason_label(reason),
                            detail: format!(
                                "gang halved to {} after {} fresh-start failures",
                                rec.gang_size, rec.attempts
                            ),
                        },
                    );
                }
                let delay = backoff_rounds(a.job, rec.attempts);
                rec.state = JobState::Backoff { until_round: round + delay };
            }
        }
    }

    /// Appends one fold-derived incident record (every rank, deterministic)
    /// and — on rank 0 with an `incident_dir` — writes the doctor-readable
    /// bundle from the staged gang captures.
    fn record_incident(
        &self,
        incidents: &mut Vec<IncidentRecord>,
        slo_firing: &[String],
        me: usize,
        ctx: IncidentCtx<'_>,
    ) {
        let seq = incidents.len() as u64;
        incidents.push(IncidentRecord {
            seq,
            trigger: ctx.trigger,
            job: ctx.job,
            attempt: ctx.attempt,
            round: ctx.round,
            reason: ctx.reason.to_string(),
        });
        if me != 0 {
            return;
        }
        lock(&self.metrics).inc_counter(
            &format!("serve_incidents_total{{trigger=\"{}\"}}", ctx.trigger.name()),
            1,
        );
        let Some(dir) = &self.cfg.incident_dir else { return };
        let captures: Vec<RankCapture> = lock(&self.stage)
            .get(&(ctx.job, ctx.attempt))
            .map(|m| m.values().cloned().collect())
            .unwrap_or_default();
        let tail = lock(&self.logs).get(&ctx.job).map(|l| l.tail(INCIDENT_TAIL));
        let metrics = lock(&self.metrics).clone();
        let header = IncidentHeader {
            seq,
            trigger: ctx.trigger,
            job: ctx.job,
            attempt: ctx.attempt,
            round: ctx.round,
            tenant: ctx.tenant.to_string(),
            reason: ctx.reason.to_string(),
            detail: ctx.detail,
            gang_ranks: ctx.gang_ranks.to_vec(),
            slo_firing: slo_firing.to_vec(),
            comm_events: 0,
            rec_seen: 0,
            rec_recorded: 0,
            rec_sampled_out: 0,
            rec_overwritten: 0,
            convergence_entries: 0,
            convergence_evicted: 0,
            capture_digest: 0,
        };
        if write_incident_bundle(dir, header, &captures, tail.as_ref(), Some(&metrics)).is_err() {
            lock(&self.metrics).inc_counter("serve_incident_write_errors_total", 1);
        }
    }

    /// Runs one gang attempt under containment. `sub` is this rank's gang
    /// communicator from the round's split; the returned report is this
    /// member's contribution to the outcome allgather.
    fn run_attempt(&self, sub: ThreadComm, a: &Assignment, rec: &JobRecord) -> AttemptReport {
        let spec = rec.spec.clone();
        let attempt = rec.attempts;
        let gang_size = a.ranks.len();
        let faults = self.injector.faults(spec.id, attempt);
        let store = self.store_for(&spec);
        sub.set_timeout(self.cfg.watchdog);
        if self.stages(spec.id) {
            sub.set_event_recording(true);
            // Reset both capture windows so the staged snapshot — and its
            // adaptive-sampling counters — covers exactly this attempt
            // (replay-deterministic: the stride depends only on counts).
            // The event drain discards pool-collective residue from rounds
            // this rank sat idle; `sub` shares the rank's event log.
            let _ = sub.take_events();
            let _ = take_recorder();
            record_event(RecKind::Serve, "serve.attempt", spec.id, u64::from(attempt));
        }

        let outcome = run_gang(sub, |gang| {
            let chaos = ChaosComm::new(gang, chaos_config(&faults, &spec));
            // Torn-write drill: gang rank 0 tears every member's current
            // generation before anyone reads, so all members fall back to
            // the same (previous) generation together.
            if faults.corrupt_checkpoint && chaos.rank() == 0 {
                for r in 0..gang_size {
                    store.inject_corruption(r);
                }
            }
            chaos.barrier();

            // Resume agreement: all-or-nothing, same-point-or-fresh.
            let my = store.load_for_resume(chaos.rank());
            let fp = my
                .checkpoint
                .as_ref()
                .map(|c| 1.0 + c.level as f64 * 1.0e9 + c.completed_iters as f64)
                .unwrap_or(0.0);
            let (lo, hi) = (chaos.min_f64(fp), chaos.max_f64(fp));
            let inconsistent = lo.to_bits() != hi.to_bits();
            if inconsistent {
                store.clear(chaos.rank());
            }
            chaos.barrier();
            let resumed = !inconsistent && my.checkpoint.is_some();
            let fell_back = !inconsistent && my.fell_back;

            if chaos.rank() == 0 {
                let mut logs = lock(&self.logs);
                let log = logs
                    .entry(spec.id)
                    .or_insert_with(|| ConvergenceLog::new(format!("job{}", spec.id)));
                log.event(
                    "serve-attempt",
                    0,
                    attempt as usize,
                    format!("gang {gang_size}, resumed {resumed}, fell_back {fell_back}"),
                );
                if inconsistent {
                    log.event(
                        "serve-checkpoint-drop",
                        0,
                        attempt as usize,
                        "inconsistent generations across the gang; restarting fresh",
                    );
                } else if fell_back {
                    log.event(
                        "serve-fallback",
                        0,
                        attempt as usize,
                        "current generation torn; resumed from previous",
                    );
                } else if resumed {
                    log.event("serve-resume", 0, attempt as usize, "resumed from checkpoint");
                }
            }

            // The job log takes the per-iteration records; resume and
            // fallback are logged above as serve-* events, after the
            // gang-wide agreement the solver's own events know nothing of.
            // Every member writes its own checkpoint file, so every member
            // counts its own failed writes.
            let (digest, mismatch_bits) = solve_once(&chaos, &spec, &store, |entry| match entry {
                StreamEntry::Event(e)
                    if e.kind == "checkpoint" && e.detail.starts_with("save-failed:") =>
                {
                    lock(&self.metrics).inc_counter("serve_checkpoint_save_failures_total", 1);
                }
                StreamEntry::Iter(it) if chaos.rank() == 0 => {
                    lock(&self.progress).push(ProgressEvent {
                        job: spec.id,
                        attempt,
                        level: it.level,
                        iter: it.iter,
                        objective: it.objective,
                        grad_norm: it.grad_norm,
                    });
                    if let Some(log) = lock(&self.logs).get_mut(&spec.id) {
                        log.record(it);
                    }
                }
                _ => {}
            });

            (digest, mismatch_bits, resumed, fell_back)
        });

        match outcome {
            Ok((digest, mismatch_bits, resumed, fell_back)) => AttemptReport {
                kind: KIND_OK,
                job: spec.id,
                reason: 0,
                digest,
                mismatch_bits,
                resumed,
                fell_back,
            },
            Err(failure) => AttemptReport {
                kind: KIND_FAIL,
                job: spec.id,
                reason: classify_failure(&failure.payload),
                digest: 0,
                mismatch_bits: 0,
                resumed: false,
                fell_back: false,
            },
        }
    }
}

/// Builds the gang's chaos schedule from the attempt's fault plan.
fn chaos_config(faults: &AttemptFaults, spec: &JobSpec) -> ChaosConfig {
    let mut cfg = ChaosConfig::seeded(faults.seed ^ spec.id);
    if let Some((rank, epoch)) = faults.kill_at_epoch {
        cfg = cfg.with_kill_at_epoch(rank, epoch);
    }
    if let Some((rank, epoch, ms)) = faults.stall_at_epoch {
        cfg = cfg.with_stall_at_epoch(rank, epoch, ms);
    }
    if let Some((prob, max_us)) = faults.latency {
        cfg = cfg.with_latency(prob, max_us);
    }
    cfg
}

/// The serving runtime's synthetic problem (paper §IV-A1): the template is
/// a sin² bump sum and the reference is the template transported by a known
/// velocity of the given amplitude.
pub fn synthetic_pair<C: Comm>(ws: &Workspace<C>, amplitude: f64) -> (ScalarField, ScalarField) {
    let grid = ws.grid();
    let rho_t = ScalarField::from_fn(&grid, ws.block(), |x| {
        (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
    });
    let v_star = VectorField::from_fn(&grid, ws.block(), |x| {
        [
            amplitude * x[0].cos() * x[1].sin(),
            amplitude * x[1].cos() * x[0].sin(),
            amplitude * x[0].cos() * x[2].sin(),
        ]
    });
    let sl = SemiLagrangian::new(ws, &v_star, 4);
    let rho_r = sl.solve_state(ws, &rho_t).pop().unwrap_or(rho_t.clone());
    (rho_t, rho_r)
}

/// Solves `spec`'s problem on `comm` (one gang) and returns
/// `(digest, final_mismatch_bits)`. The digest folds every gang rank's
/// velocity slab bits in rank order plus the final mismatch — equal digests
/// mean bitwise-equal transformations.
fn solve_once<C: Comm>(
    comm: &C,
    spec: &JobSpec,
    store: &CheckpointStore,
    observer: impl FnMut(StreamEntry),
) -> (u64, u64) {
    let grid = Grid::cubic(spec.grid_n);
    let decomp = Decomp::new(grid, comm.size());
    let fft = PencilFft::new(comm, decomp);
    let timers = Timers::new();
    let ws = Workspace::new(comm, &decomp, &fft, &timers);
    let (rho_t, rho_r) = synthetic_pair(&ws, spec.amplitude);
    let cfg = RegistrationConfig {
        nt: spec.nt,
        checkpoint_every: spec.checkpoint_every,
        newton: NewtonOptions { max_iter: spec.newton_iters, ..Default::default() },
        ..Default::default()
    };
    let (out, _reports) =
        register_solve(&ws, &rho_t, &rho_r, cfg, &spec.betas, None, store, observer);
    let mut local = FNV_OFFSET;
    for c in 0..3 {
        for x in out.velocity.comps[c].data() {
            local = fnv_fold_u64(local, x.to_bits());
        }
    }
    let all = comm.allgather(vec![local]);
    let mut digest = FNV_OFFSET;
    for part in &all {
        digest = fnv_fold_u64(digest, part[0]);
    }
    digest = fnv_fold_u64(digest, out.final_mismatch.to_bits());
    (digest, out.final_mismatch.to_bits())
}

/// Replays the collective sequence of one fresh (no-checkpoint) attempt of
/// `spec` on a clean dedicated `gang_size`-rank world and returns how many
/// collective epochs it executes. Epoch-keyed fault plans use this as their
/// coordinate system: a kill at ~70% of the count lands inside the last
/// continuation level, after checkpoints have been written but before the
/// driver clears them on success.
pub fn attempt_epoch_count(spec: &JobSpec, gang_size: usize) -> u64 {
    let spec = spec.clone();
    let counts = run_threaded(gang_size, move |comm| {
        let chaos = ChaosComm::new(comm, ChaosConfig::seeded(0));
        chaos.barrier();
        let fp = 0.0f64;
        let _ = chaos.min_f64(fp);
        let _ = chaos.max_f64(fp);
        chaos.barrier();
        let _ = solve_once(&chaos, &spec, &CheckpointStore::Disabled, |_| {});
        chaos.epochs_executed()
    });
    counts[0]
}

/// Solves `spec` uninterrupted (no chaos, no checkpoints) on a dedicated
/// `gang_size`-rank world and returns `(digest, final_mismatch_bits)` — the
/// reference a recovered job's served result must match bitwise.
pub fn reference_digest(spec: &JobSpec, gang_size: usize) -> (u64, u64) {
    let spec = spec.clone();
    let per_rank = run_threaded(gang_size, move |comm| {
        solve_once(comm, &spec, &CheckpointStore::Disabled, |_| {})
    });
    per_rank[0]
}
