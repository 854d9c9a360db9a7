//! The SPMD serving loop: a shared rank pool that multiplexes many
//! concurrent registration jobs, contains their failures, and recovers them
//! from checkpoints.
//!
//! ## Architecture
//!
//! [`ServeHarness::serve_pool`] runs on **every** pool rank (inside
//! `run_threaded`). The scheduler has no coordinator: each rank holds an
//! identical replica of the serving state and advances it in lock-step
//! rounds:
//!
//! 1. **intake** — rank 0 drains the submission/cancel inboxes into one
//!    typed `Intake` and broadcasts it; every rank applies the identical
//!    admissions (with capacity-based rejection), cancellations, backoff
//!    releases, and deadline sweeps;
//! 2. **plan** — every rank evaluates the pure
//!    [`plan_round`](crate::scheduler::plan_round) packing on its replica
//!    and obtains the identical gang layout;
//! 3. **split + execute** — the layout is the `Comm::split` coloring; each
//!    gang runs one job attempt under [`run_gang`] containment, wrapped in
//!    a [`ChaosComm`] carrying the attempt's planned faults. A rank killed
//!    inside a gang unwinds into a structured failure; the pool rank
//!    survives and rejoins the world;
//! 4. **outcome allgather + fold** — every rank hears every pool rank's
//!    typed `Outcome` and folds the identical state transition: complete,
//!    cancel, expire, fail (budget exhausted), or back off and retry —
//!    resuming from the job's checkpoint when one exists, degrading the
//!    gang size when fresh restarts keep dying.
//!
//! Because every state transition derives from broadcast or allgathered
//! data, replicas can never diverge — and the whole campaign replays
//! bit-identically under a fixed fault plan. DESIGN.md §13 describes the
//! round, the replicated state and the one terminal transition.
//!
//! ## Checkpoint recovery
//!
//! A job with `checkpoint_every > 0` has one `diffreg-core`
//! [`CheckpointStore`] at that cadence, shared by every attempt's gang
//! (files under `checkpoint_dir/job{id}`, or memory); a job without has
//! none and does no checkpoint I/O. Where a retry resumes from is
//! `register_solve`'s decision, made once for the gang: it resumes only
//! from checkpoints that fit every member's block and name one `(level,
//! iteration)`, and otherwise (torn generations that fell back to different
//! points, a stale slot from a larger gang) restarts fresh. A resume is
//! *bitwise* identical to an uninterrupted solve, which the load test
//! verifies digest-for-digest. The store ends with the job: the terminal
//! transition clears every slot a gang of the job could have written.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use diffreg_comm::{run_gang, run_threaded, ChaosComm, ChaosConfig, Comm, Fnv1a, ThreadComm};
use diffreg_core::{register_solve, synthetic_pair, CheckpointStore, Level, RegistrationConfig};
use diffreg_grid::Grid;
use diffreg_optim::NewtonOptions;
use diffreg_telemetry::doctor::{write_trace_bundle, RankCapture};
use diffreg_telemetry::incident::{
    write_incident_bundle, Failure, IncidentContext, IncidentTrigger,
};
use diffreg_telemetry::{
    record_event, set_trace_enabled, snapshot_recorder, span, take_recorder, trace_enabled,
    ConvergenceLog, Json, MetricsRegistry, Profile, RecKind, StreamEntry,
};
use diffreg_transport::SessionParts;

use crate::faults::{AttemptFaults, PlannedFaults};
use crate::http::{HttpServer, ObsSlot, ObsSnapshot};
use crate::job::{backoff_rounds, JobId, JobRecord, JobResult, JobSpec, JobState};
use crate::scheduler::{plan_round, Assignment};
use crate::slo::{AlertState, SloEngine, SloPolicy};

/// Locks a mutex, riding through poisoning (a contained gang kill may have
/// unwound while holding a side-store lock; the data is still consistent —
/// each protected value is only ever appended to or overwritten whole).
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sleep per empty round while intake is open (keeps an idle pool from
/// hot-spinning).
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// Graceful degradation: once a job has failed this many attempts without
/// ever resuming from a checkpoint, halve its gang size.
const DEGRADE_AFTER: u32 = 2;

/// The driver's recovery events and the job-log events they become.
const RECOVERY_EVENTS: [(&str, &str); 3] = [
    ("resume", "serve-resume"),
    ("checkpoint-fallback", "serve-fallback"),
    ("checkpoint-drop", "serve-checkpoint-drop"),
];

/// Convergence-log entries captured into each incident bundle's tail.
const INCIDENT_TAIL: usize = 64;

/// Capture staging: `(job, attempt) → gang rank → capture`, the one place an
/// attempt's capture waits for an incident bundle or the traced-job bundle.
/// Shared across all pool ranks (they are threads of one process); rank 0
/// reads it when writing bundles and, at the end of each fold, drops every
/// entry but the traced job's.
type CaptureStage = BTreeMap<(JobId, u32), BTreeMap<usize, RankCapture>>;

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
    /// stages every attempt's ring window (spans, lifecycle events and comm
    /// records).
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
    /// Fold-derived incidents, in deterministic trigger order (identical
    /// on every rank and across seeded replays); each bundle's header
    /// carries the same value.
    pub incidents: Vec<IncidentContext>,
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
// The round's two collectives
// ---------------------------------------------------------------------------

/// One round of intake: rank 0 drains the inboxes into it and broadcasts it.
#[derive(Clone, Default)]
struct Intake {
    specs: Vec<JobSpec>,
    cancels: Vec<JobId>,
    /// Whether intake is still open.
    open: bool,
}

/// One pool rank's part of the outcome allgather.
#[derive(Clone, Copy)]
enum Outcome {
    /// The rank sat this round out.
    Idle,
    /// Its gang's attempt finished.
    Done { digest: u64, mismatch_bits: u64, resumed: bool, fell_back: bool },
    /// Its gang's attempt failed, as this rank saw it; `resumed` when the
    /// gang had resumed from a checkpoint before it died.
    Failed { cause: Failure, resumed: bool },
}

/// Maps a contained panic payload to the failure it reports.
fn classify(payload: &str) -> Failure {
    let p = payload.to_lowercase();
    if p.contains("injected kill") {
        Failure::Kill
    } else if p.contains("timeout") || p.contains("watchdog") {
        Failure::Timeout
    } else if p.contains("peer") {
        Failure::PeerGone
    } else {
        Failure::Other
    }
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// Shared state of one serving deployment: submission inboxes, per-job
/// checkpoint stores, the per-job logs (the progress stream), and the
/// metrics dashboard.
///
/// Clone freely — clones share state. Submit and cancel from any thread
/// (including while the pool is running); call
/// [`serve_pool`](Self::serve_pool) from every rank of a `run_threaded`
/// world.
#[derive(Clone)]
pub struct ServeHarness {
    cfg: ServeConfig,
    faults: Arc<PlannedFaults>,
    inbox: Arc<Mutex<Vec<JobSpec>>>,
    cancel_inbox: Arc<Mutex<Vec<JobId>>>,
    intake_open: Arc<AtomicBool>,
    stores: Arc<Mutex<HashMap<JobId, CheckpointStore>>>,
    logs: Arc<Mutex<HashMap<JobId, ConvergenceLog>>>,
    metrics: Arc<Mutex<MetricsRegistry>>,
    stage: Arc<Mutex<CaptureStage>>,
    obs: ObsSlot,
    http_bound: Arc<Mutex<Option<std::net::SocketAddr>>>,
}

impl ServeHarness {
    /// A new deployment with the given config and fault plan (an empty
    /// plan, `Arc::default()`, is production behavior).
    pub fn new(cfg: ServeConfig, faults: Arc<PlannedFaults>) -> Self {
        Self {
            cfg,
            faults,
            inbox: Arc::new(Mutex::new(Vec::new())),
            cancel_inbox: Arc::new(Mutex::new(Vec::new())),
            intake_open: Arc::new(AtomicBool::new(true)),
            stores: Arc::new(Mutex::new(HashMap::new())),
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

    /// Per-job convergence log, the job's progress stream: gang rank 0
    /// appends each attempt's `serve-attempt` event (plus resume, fallback
    /// or checkpoint-drop events) and then every accepted Newton
    /// iteration's record as it lands.
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

    /// The checkpoint store of `spec`'s job at its cadence (shared across
    /// pool ranks; created on first use), or `None` for a job that never
    /// checkpoints.
    fn store_for(&self, spec: &JobSpec) -> Option<CheckpointStore> {
        let every = NonZeroUsize::new(spec.checkpoint_every)?;
        let mut stores = lock(&self.stores);
        let store = stores.entry(spec.id).or_insert_with(|| {
            self.job_dir(spec.id).map_or_else(CheckpointStore::memory, CheckpointStore::file)
        });
        Some(store.clone().every(every))
    }

    /// Where `job`'s checkpoints go on disk, if the deployment keeps them there.
    fn job_dir(&self, job: JobId) -> Option<PathBuf> {
        Some(self.cfg.checkpoint_dir.as_ref()?.join(format!("job{job}")))
    }

    /// Whether attempts of `job` stage their capture (the ring window of the
    /// attempt) for an incident bundle or the traced-job bundle.
    fn stages(&self, job: JobId) -> bool {
        self.cfg.incident_dir.is_some() || self.cfg.trace_job == Some(job)
    }

    /// Writes the traced job's final attempt as a doctor-readable trace
    /// bundle (`recorder-rank*.jsonl`, `metrics.json`, `trace.json`). Call
    /// after the pool has drained. Returns the gang size written, or 0 when
    /// nothing was traced.
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
        let (me, pool) = (world.rank(), world.size());
        let mut rs = Replica::new(self, me, pool);
        if let Some(mut m) = rs.metrics() {
            m.set_gauge("serve_pool_ranks", pool as f64);
        }
        // The traced job's attempts run on this rank's thread: keep its
        // ring's windows whole for the serve loop's duration.
        let was_tracing = trace_enabled();
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
            // 1. intake: rank 0 drains, everyone applies the same `Intake`;
            // then backoff release and the deadline sweep.
            let intake_span = span("serve.intake");
            let mut wire = Vec::new();
            if me == 0 {
                wire.push(Intake {
                    specs: std::mem::take(&mut *lock(&self.inbox)),
                    cancels: std::mem::take(&mut *lock(&self.cancel_inbox)),
                    open: self.intake_open.load(Ordering::SeqCst),
                });
            }
            world.broadcast(0, &mut wire);
            let open = rs.admit(wire.pop().unwrap_or_default());
            rs.sweep();
            drop(intake_span);

            // 2. termination: replicated decision (open and the table are
            // identical on every rank).
            if !open && rs.table.values().all(|r| r.state.is_terminal()) {
                break;
            }

            // 3. plan, mark running, account attempts.
            let plan_span = span("serve.plan");
            let plan = plan_round(&rs.table, pool);
            rs.start(&plan);
            drop(plan_span);
            if plan.is_empty() && open {
                std::thread::sleep(IDLE_SLEEP);
            }

            // 4. split into gangs (the plan IS the coloring) and execute.
            let ai = plan.iter().position(|a| a.ranks.contains(&me));
            let sub = world.split(ai.unwrap_or(plan.len()), me);
            let mine = ai.and_then(|ai| Some((&plan[ai], rs.table.get(&plan[ai].job)?)));
            let outcome = match mine {
                Some((a, rec)) => self.run_attempt(sub, a, rec),
                None => {
                    drop(sub);
                    Outcome::Idle
                }
            };
            if let Some((a, rec)) = mine.filter(|(a, _)| self.stages(a.job)) {
                self.stage_capture(world, a, rec.attempts, outcome);
            }

            // 5. outcome allgather + deterministic fold.
            let fold_span = span("serve.outcome-fold");
            let outcomes: Vec<Outcome> =
                world.allgather(vec![outcome]).into_iter().flatten().collect();
            rs.fold(&plan, &outcomes);
            drop(fold_span);

            // 6. SLO window rotation + alert transitions (replicated), and
            // per-round capture-stage cleanup. Rank 0 reaches this only
            // after writing any bundles; the other ranks cannot start the
            // next round's attempts before rank 0's intake broadcast, so
            // clearing here cannot race new inserts.
            rs.advance_slo();
            if me == 0 {
                lock(&self.stage).retain(|(job, _), _| self.cfg.trace_job == Some(*job));
            }
            // Round boundary: rank 0 publishes the observability snapshot.
            if http.is_some() {
                rs.publish();
            }
            rs.round += 1;
        }

        if let Some(server) = http {
            rs.publish();
            server.stop();
        }
        set_trace_enabled(was_tracing);
        if let Some(mut m) = rs.metrics() {
            m.set_gauge("serve_queue_depth", 0.0);
            m.set_gauge("serve_running_jobs", 0.0);
        }
        rs.into_summary()
    }

    /// Stages this rank's capture of its gang attempt. It runs before the
    /// outcome allgather, the barrier that makes every member's insert
    /// visible to rank 0's fold: the ring window since the attempt's
    /// start-of-attempt reset, the gang's comm records included (a gang
    /// runs on its pool rank's thread, so they are in that rank's ring).
    fn stage_capture(&self, world: &ThreadComm, a: &Assignment, attempt: u32, outcome: Outcome) {
        let gang_rank = a.ranks.iter().position(|r| *r == world.rank()).unwrap_or(0);
        // This rank's own failure is the triage's strongest culprit signal
        // (comm streams truncate symmetrically on gang-fatal faults): the
        // killed rank reports the kill, the stalled rank reports peer-gone
        // while its waiters report timeout.
        if let Outcome::Failed { cause: f, .. } = outcome {
            record_event(RecKind::Serve, "serve.attempt-failed", f.code(), gang_rank as u64);
        }
        let recorder = take_recorder();
        lock(&self.stage)
            .entry((a.job, attempt))
            .or_default()
            .insert(gang_rank, RankCapture { rank: gang_rank, recorder });
    }

    /// Runs one gang attempt under containment. `sub` is this rank's gang
    /// communicator from the round's split; the returned outcome is this
    /// member's part of the outcome allgather.
    fn run_attempt(&self, sub: ThreadComm, a: &Assignment, rec: &JobRecord) -> Outcome {
        let spec = rec.spec.clone();
        let attempt = rec.attempts;
        let gang_size = a.ranks.len();
        let faults = self.faults.faults(spec.id, attempt);
        let store = self.store_for(&spec);
        sub.set_timeout(self.cfg.watchdog);
        if self.stages(spec.id) {
            // Reset the ring window so the staged snapshot — and its
            // adaptive-sampling counters — covers exactly this attempt
            // (replay-deterministic: the stride depends only on counts).
            // The drain discards the pool's own records: this round's split,
            // and every round this rank sat idle.
            let _ = take_recorder();
            record_event(RecKind::Serve, "serve.attempt", spec.id, u64::from(attempt));
        }

        // Gang rank 0 writes the job log: serve-* events, iteration records.
        let log_event = |kind: &str, detail: &str| {
            let mut logs = lock(&self.logs);
            let log = logs
                .entry(spec.id)
                .or_insert_with(|| ConvergenceLog::new(format!("job{}", spec.id)));
            log.event(kind, 0, attempt as usize, detail);
        };
        // The driver's resume decision is collective, so a member that saw
        // it speaks for the gang, also when the attempt dies afterwards.
        let (resumed, fell_back) = (Cell::new(false), Cell::new(false));
        run_gang(sub, |gang| {
            let chaos = ChaosComm::new(gang, chaos_config(&faults, &spec));
            let lead = chaos.rank() == 0;
            let store = store.as_ref();
            // Torn-write drill: each member tears its own current generation.
            if let Some(store) = store.filter(|_| faults.corrupt_checkpoint) {
                store.inject_corruption(chaos.rank());
            }
            if lead {
                log_event("serve-attempt", &format!("gang {gang_size}"));
            }
            // Each member counts its own failed checkpoint writes.
            let (digest, mismatch_bits) = solve_once(&chaos, &spec, store, |entry| match entry {
                StreamEntry::Event(e)
                    if e.kind == "checkpoint" && e.detail.starts_with("save-failed:") =>
                {
                    lock(&self.metrics).inc_counter("serve_checkpoint_save_failures_total", 1);
                }
                StreamEntry::Event(e) => {
                    resumed.set(resumed.get() || e.kind == "resume");
                    fell_back.set(fell_back.get() || e.kind == "checkpoint-fallback");
                    let serve_kind = RECOVERY_EVENTS.iter().find(|(kind, _)| *kind == e.kind);
                    if let Some((_, kind)) = serve_kind.filter(|_| lead) {
                        log_event(kind, &e.detail);
                    }
                }
                StreamEntry::Iter(it) if lead => {
                    if let Some(log) = lock(&self.logs).get_mut(&spec.id) {
                        log.record(it);
                    }
                }
                StreamEntry::Iter(_) => {}
            });
            let (resumed, fell_back) = (resumed.get(), fell_back.get());
            Outcome::Done { digest, mismatch_bits, resumed, fell_back }
        })
        .unwrap_or_else(|failure| Outcome::Failed {
            cause: classify(&failure.payload),
            resumed: resumed.get(),
        })
    }
}

// ---------------------------------------------------------------------------
// The replicated state machine
// ---------------------------------------------------------------------------

/// An incident about to be filed: what fired, why, and the gang it names.
struct Incident<'a> {
    trigger: IncidentTrigger,
    reason: &'a str,
    detail: String,
    gang: &'a [usize],
}

/// One pool rank's replica of the serving state. Every rank advances it
/// identically from the broadcast intake and the allgathered outcomes; the
/// dashboard, incident bundles and wall-clock timestamps are rank 0's side
/// effects and never feed back into it.
struct Replica<'h> {
    h: &'h ServeHarness,
    me: usize,
    pool: usize,
    round: u64,
    table: BTreeMap<JobId, JobRecord>,
    rejected: Vec<JobId>,
    incidents: Vec<IncidentContext>,
    slo: Option<SloEngine>,
    /// Rank 0 only: submission instants, for the latency histograms.
    submitted: HashMap<JobId, Instant>,
}

impl<'h> Replica<'h> {
    fn new(h: &'h ServeHarness, me: usize, pool: usize) -> Self {
        Self {
            h,
            me,
            pool,
            round: 0,
            table: BTreeMap::new(),
            rejected: Vec::new(),
            incidents: Vec::new(),
            slo: h.cfg.slo.clone().map(SloEngine::new),
            submitted: HashMap::new(),
        }
    }

    /// The dashboard, on rank 0 only: every metric is a rank-0 side effect.
    fn metrics(&self) -> Option<MutexGuard<'h, MetricsRegistry>> {
        (self.me == 0).then(|| lock(&self.h.metrics))
    }

    fn count(&self, name: &str) {
        if let Some(mut m) = self.metrics() {
            m.inc_counter(name, 1);
        }
    }

    fn waiting(&self) -> usize {
        self.table.values().filter(|r| r.state.is_waiting()).count()
    }

    /// Applies one round's intake — admissions (rejecting duplicates and
    /// whatever exceeds the queue capacity), then cancellations — and
    /// returns whether intake is still open.
    fn admit(&mut self, intake: Intake) -> bool {
        for spec in intake.specs {
            self.count("serve_jobs_submitted_total");
            if self.waiting() >= self.h.cfg.queue_capacity || self.table.contains_key(&spec.id) {
                self.rejected.push(spec.id);
                self.count("serve_jobs_rejected_total");
                continue;
            }
            if self.me == 0 {
                self.submitted.insert(spec.id, Instant::now());
            }
            self.table.insert(spec.id, JobRecord::new(spec, self.round, self.pool));
        }
        for id in intake.cancels {
            let Some(rec) = self.table.get_mut(&id) else { continue };
            if rec.state.is_waiting() {
                self.finish(id, JobState::Cancelled, None);
            } else if rec.state == JobState::Running {
                rec.cancel_requested = true; // applied at the attempt boundary
            }
        }
        intake.open
    }

    /// Releases finished backoffs, then expires every waiting job whose
    /// deadline has passed.
    fn sweep(&mut self) {
        let round = self.round;
        let mut expired = Vec::new();
        for rec in self.table.values_mut() {
            if let JobState::Backoff { until_round } = rec.state {
                if round >= until_round {
                    rec.state = JobState::Queued;
                }
            }
            if let Some(d) = rec.deadline_passed(round).filter(|_| rec.state.is_waiting()) {
                expired.push((rec.spec.id, d));
            }
        }
        for (id, d) in expired {
            let detail = format!("deadline of {d} rounds passed while waiting in queue");
            let trigger = IncidentTrigger::DeadlineExpiry;
            let inc = Incident { trigger, reason: "deadline", detail, gang: &[] };
            self.finish(id, JobState::Expired, Some(inc));
        }
    }

    /// Marks the planned jobs running and accounts their attempts.
    fn start(&mut self, plan: &[Assignment]) {
        for a in plan {
            let Some(rec) = self.table.get_mut(&a.job) else { continue };
            rec.state = JobState::Running;
            rec.attempts += 1;
            let first = rec.first_start_round.is_none();
            rec.first_start_round.get_or_insert(self.round);
            if let Some(mut m) = self.metrics() {
                if let Some(t0) = self.submitted.get(&a.job).filter(|_| first) {
                    m.observe("serve_queue_wait_seconds", t0.elapsed().as_secs_f64());
                }
                m.inc_counter("serve_attempts_total", 1);
            }
        }
        if let Some(mut m) = self.metrics() {
            m.set_gauge("serve_queue_depth", self.waiting() as f64);
            m.set_gauge("serve_running_jobs", plan.len() as f64);
            m.inc_counter("serve_rounds_total", 1);
        }
    }

    /// Folds one round's allgathered outcomes: a gang whose members all
    /// finished completes its job; otherwise the job fails with the
    /// strongest failure among its members, as a resumed attempt if any
    /// member saw the gang resume.
    fn fold(&mut self, plan: &[Assignment], outcomes: &[Outcome]) {
        for a in plan {
            let members = || a.ranks.iter().map(|&r| outcomes[r]);
            let cause = members()
                .filter_map(|o| match o {
                    Outcome::Done { .. } => None,
                    Outcome::Failed { cause, .. } => Some(cause),
                    Outcome::Idle => Some(Failure::Other),
                })
                .min();
            match (cause, outcomes[a.ranks[0]]) {
                (None, Outcome::Done { digest, mismatch_bits, resumed, fell_back }) => {
                    self.complete(a, digest, mismatch_bits, resumed, fell_back)
                }
                (cause, _) => {
                    let resumed = |o: Outcome| matches!(o, Outcome::Failed { resumed: true, .. });
                    self.fail(a, cause.unwrap_or(Failure::Other), members().any(resumed))
                }
            }
        }
    }

    /// Records the gang's result and completes the job; a resume that fell
    /// back a checkpoint generation files its incident first.
    fn complete(
        &mut self,
        a: &Assignment,
        digest: u64,
        final_mismatch_bits: u64,
        resumed: bool,
        fell_back: bool,
    ) {
        let Some(rec) = self.table.get_mut(&a.job) else { return };
        rec.resumed_attempts += u32::from(resumed);
        rec.fallbacks += u32::from(fell_back);
        let (gang_size, attempt) = (a.ranks.len(), rec.attempts);
        rec.result = Some(JobResult { digest, final_mismatch_bits, gang_size, attempt, resumed });
        if fell_back {
            let detail = "resume fell back to the previous checkpoint generation \
                          (current generation torn)"
                .to_string();
            let trigger = IncidentTrigger::CheckpointFallback;
            self.file_for(a.job, Incident { trigger, reason: "", detail, gang: &a.ranks });
        }
        self.finish(a.job, JobState::Completed, None);
        if let Some(mut m) = self.metrics() {
            if resumed {
                m.inc_counter("serve_jobs_recovered_total", 1);
            }
            if fell_back {
                m.inc_counter("serve_checkpoint_fallback_total", 1);
            }
            if let Some(t0) = self.submitted.get(&a.job) {
                m.observe("serve_job_e2e_seconds", t0.elapsed().as_secs_f64());
            }
        }
    }

    /// Every failed attempt is counted and filed; then the job is
    /// cancelled, expired, failed out (retry budget spent) or retried.
    fn fail(&mut self, a: &Assignment, cause: Failure, resumed: bool) {
        let round = self.round;
        let Some(rec) = self.table.get_mut(&a.job) else { return };
        rec.last_failure = Some(cause);
        rec.resumed_attempts += u32::from(resumed);
        let attempt = rec.attempts;
        let expired = rec.deadline_passed(round).is_some();
        let (cancelled, exhausted) = (rec.cancel_requested, attempt > rec.spec.max_retries);
        let reason = cause.label();
        self.count(&format!("serve_attempts_failed_total{{reason=\"{reason}\"}}"));
        let gang = &a.ranks;
        let detail =
            format!("attempt {attempt} failed on a gang of {} (reason: {reason})", gang.len());
        self.file_for(a.job, Incident { trigger: cause.trigger(), reason, detail, gang });
        if cancelled {
            self.finish(a.job, JobState::Cancelled, None);
        } else if expired {
            let detail = format!("deadline passed after attempt {attempt} failed");
            let trigger = IncidentTrigger::DeadlineExpiry;
            self.finish(a.job, JobState::Expired, Some(Incident { trigger, reason, detail, gang }));
        } else if exhausted {
            self.finish(a.job, JobState::Failed, None);
        } else {
            self.retry(a, reason);
        }
    }

    /// Backs a failed job off. The gang size stays while a checkpoint
    /// resume has a chance (a bitwise resume needs the same decomposition);
    /// a job that keeps dying without ever resuming has its gang halved.
    fn retry(&mut self, a: &Assignment, reason: &str) {
        self.count("serve_jobs_retried_total");
        let round = self.round;
        let Some(rec) = self.table.get_mut(&a.job) else { return };
        let attempts = rec.attempts;
        let degrade = attempts >= DEGRADE_AFTER && rec.resumed_attempts == 0 && rec.gang_size > 1;
        if degrade {
            rec.gang_size /= 2;
        }
        rec.state = JobState::Backoff { until_round: round + backoff_rounds(a.job, attempts) };
        if degrade {
            let detail =
                format!("gang halved to {} after {attempts} fresh-start failures", rec.gang_size);
            self.count("serve_jobs_degraded_total");
            let trigger = IncidentTrigger::GangDegraded;
            self.file_for(a.job, Incident { trigger, reason, detail, gang: &a.ranks });
        }
    }

    /// The one terminal transition: sets the state and finish round, ends
    /// the job's checkpoint store, feeds the SLO engine (a cancellation is
    /// neither a success nor a failure), counts `serve_jobs_<state>_total`
    /// and files the incident, if any.
    fn finish(&mut self, id: JobId, state: JobState, incident: Option<Incident<'_>>) {
        let round = self.round;
        let Some(rec) = self.table.get_mut(&id) else { return };
        rec.state = state;
        rec.finish_round = Some(round);
        // Rank 0 clears the slots of every gang rank the job could have run
        // on, then its directory if that leaves it empty. The fold precedes
        // the next intake broadcast, so no gang of the job is running.
        let store = (self.me == 0).then(|| lock(&self.h.stores).remove(&id)).flatten();
        if let Some(store) = store {
            (0..rec.spec.gang.clamp(1, self.pool)).for_each(|rank| store.clear(rank));
            if let Some(dir) = self.h.job_dir(id) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best effort: a directory that is not empty stays"
                )]
                let _ = std::fs::remove_dir(dir);
            }
        }
        if let Some(slo) = self.slo.as_mut().filter(|_| state != JobState::Cancelled) {
            let since = |r: u64| r.saturating_sub(rec.submit_round);
            let (queue_wait, e2e) = (since(rec.first_start_round.unwrap_or(round)), since(round));
            let success = state == JobState::Completed;
            slo.observe_terminal(&rec.spec.tenant, round, queue_wait, e2e, success);
        }
        self.count(&format!("serve_jobs_{}_total", state.name()));
        if let Some(inc) = incident {
            self.file_for(id, inc);
        }
    }

    /// Files an incident against `job`'s current attempt.
    fn file_for(&mut self, job: JobId, inc: Incident<'_>) {
        let Some(rec) = self.table.get(&job) else { return };
        let (attempt, tenant) = (rec.attempts, rec.spec.tenant.clone());
        self.file(job, attempt, &tenant, inc);
    }

    /// Files one incident: every rank builds the same context from
    /// replicated data and keeps it; rank 0 counts it in
    /// `serve_incidents_total` and, with an `incident_dir`, writes that
    /// context's bundle from the attempt's staged captures.
    fn file(&mut self, job: JobId, attempt: u32, tenant: &str, inc: Incident<'_>) {
        let context = IncidentContext {
            seq: self.incidents.len() as u64,
            trigger: inc.trigger,
            job,
            attempt,
            round: self.round,
            tenant: tenant.to_string(),
            reason: inc.reason.to_string(),
            detail: inc.detail,
            gang_ranks: inc.gang.to_vec(),
            slo_firing: self.slo.as_ref().map(SloEngine::firing).unwrap_or_default(),
        };
        self.count(&format!("serve_incidents_total{{trigger=\"{}\"}}", inc.trigger.name()));
        if let Some(dir) = self.h.cfg.incident_dir.as_ref().filter(|_| self.me == 0) {
            let captures: Vec<RankCapture> = lock(&self.h.stage)
                .get(&(job, attempt))
                .map(|m| m.values().cloned().collect())
                .unwrap_or_default();
            let tail = lock(&self.h.logs).get(&job).map(|l| l.tail(INCIDENT_TAIL));
            let metrics = lock(&self.h.metrics).clone();
            if write_incident_bundle(dir, &context, &captures, tail.as_ref(), Some(&metrics))
                .is_err()
            {
                self.count("serve_incident_write_errors_total");
            }
        }
        self.incidents.push(context);
    }

    /// Ends the round for the SLO engine: windows rotate, alert
    /// transitions are counted, and each alert that fires files an incident.
    fn advance_slo(&mut self) {
        let Some(slo) = self.slo.as_mut() else { return };
        for al in slo.advance_round(self.round) {
            self.count("serve_slo_transitions_total");
            if al.state == AlertState::Firing {
                let (trigger, detail) = (IncidentTrigger::SloBurnRate, al.render());
                self.file(0, 0, &al.tenant, Incident { trigger, reason: "slo", detail, gang: &[] });
            }
        }
        if let (Some(mut m), Some(slo)) = (self.metrics(), &self.slo) {
            slo.export(self.round, &mut m);
        }
    }

    /// Rebuilds and publishes the observability snapshot (rank 0, round
    /// boundary). Everything here is a *read*: the replica, the metrics
    /// dashboard, the convergence logs, and this rank's flight-recorder
    /// window (a non-draining snapshot — attempt capture accounting is
    /// untouched).
    fn publish(&self) {
        let round = self.round;
        let jobs_json = {
            let logs = lock(&self.h.logs);
            let mut jobs: Vec<Json> = Vec::with_capacity(self.table.len());
            for rec in self.table.values() {
                let state = match rec.state {
                    JobState::Backoff { until_round } => format!("backoff(until={until_round})"),
                    s => s.name().to_string(),
                };
                let mut j = Json::obj()
                    .set("id", rec.spec.id)
                    .set("tenant", rec.spec.tenant.as_str())
                    .set("state", state)
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
        let slo_json = match &self.slo {
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
        let items: Vec<Json> = self.incidents.iter().map(IncidentContext::to_json).collect();
        let incidents_json = Json::obj().set("round", round).set("incidents", items).to_string();
        let profile = Profile::from_recorders([(0, &snapshot_recorder())]);
        let snap = ObsSnapshot {
            round,
            ready: true,
            metrics_text: lock(&self.h.metrics).render_prometheus(),
            jobs_json,
            slo_json,
            incidents_json,
            profile_folded: profile.render_folded(),
        };
        *lock(&self.h.obs) = Arc::new(snap);
    }

    fn into_summary(self) -> ServeSummary {
        ServeSummary {
            rounds: self.round,
            slo_alerts: self.slo.as_ref().map(SloEngine::render_alert_log).unwrap_or_default(),
            slo_digest: self.slo.as_ref().map_or(0, SloEngine::state_digest),
            rejected: self.rejected,
            records: self.table,
            incidents: self.incidents,
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

/// Solves `spec`'s problem on `comm` (one gang) and returns
/// `(digest, final_mismatch_bits)`. The digest folds every gang rank's
/// velocity slab bits in rank order plus the final mismatch — equal digests
/// mean bitwise-equal transformations.
fn solve_once<C: Comm>(
    comm: &C,
    spec: &JobSpec,
    store: Option<&CheckpointStore>,
    observer: impl FnMut(StreamEntry),
) -> (u64, u64) {
    let grid = Grid::cubic(spec.grid_n);
    let parts = SessionParts::new(comm, grid);
    let ws = parts.workspace(comm);
    let (rho_t, rho_r) = synthetic_pair(&ws, spec.amplitude);
    let cfg = RegistrationConfig {
        nt: spec.nt,
        newton: NewtonOptions { max_iter: spec.newton_iters, ..Default::default() },
        ..Default::default()
    };
    let levels: Vec<Level> = spec.betas.iter().map(|&beta| Level { beta, grid }).collect();
    let (out, _reports) = register_solve(&ws, &rho_t, &rho_r, cfg, &levels, store, observer);
    let mut local = Fnv1a::new();
    for c in 0..3 {
        for x in out.velocity.comps[c].data() {
            local.u64(x.to_bits());
        }
    }
    let mut digest = Fnv1a::new();
    for part in &comm.allgather(vec![local.finish()]) {
        digest.u64(part[0]);
    }
    digest.u64(out.final_mismatch.to_bits());
    (digest.finish(), out.final_mismatch.to_bits())
}

/// Replays the collective sequence of one fresh (no-checkpoint) attempt of
/// `spec`, with the kind of store the attempt uses, on a clean dedicated
/// `gang_size`-rank world and returns how many collective epochs it
/// executes. Epoch-keyed fault plans use this as their coordinate
/// system: a kill at ~70% of the count lands inside the last continuation
/// level, after checkpoints have been written but before the driver clears
/// them on success.
pub fn attempt_epoch_count(spec: &JobSpec, gang_size: usize) -> u64 {
    let spec = spec.clone();
    let counts = run_threaded(gang_size, move |comm| {
        let chaos = ChaosComm::new(comm, ChaosConfig::seeded(0));
        let every = NonZeroUsize::new(spec.checkpoint_every);
        let store = every.map(|n| CheckpointStore::memory().every(n));
        let _ = solve_once(&chaos, &spec, store.as_ref(), |_| {});
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
        solve_once(comm, &spec, None, |_| {})
    });
    per_rank[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::{run_threaded_checked, CommError};

    /// The classifier matches substrings of panic text, so it is fed the
    /// real payloads: a reworded message fails here instead of quietly
    /// moving failures into `other`.
    #[test]
    fn real_panic_payloads_classify_as_their_failure() {
        let payload = |f: fn(&ThreadComm)| {
            run_threaded_checked(1, f).pop().and_then(Result::err).map(|e| e.payload)
        };
        let kill = payload(|c| {
            ChaosComm::new(c, ChaosConfig::seeded(0).with_kill_at_epoch(0, 1)).barrier();
        });
        let assertion = payload(|c| assert_eq!(c.size(), 2, "residual diverged"));
        let table = vec!["rank 0: blocked in recv(src=1, tag=internal:Barrier@epoch1)".to_string()];
        let timeout = CommError::Timeout {
            rank: 1,
            waiting_on: "recv(src=0, tag=internal:Barrier@epoch1)".into(),
            table,
        };
        let peer_gone = CommError::PeerGone { rank: 1, peer: 0 };
        for (payload, want) in [
            (kill.expect("the injected kill panics"), Failure::Kill),
            (timeout.to_string(), Failure::Timeout),
            (peer_gone.to_string(), Failure::PeerGone),
            (assertion.expect("the assertion panics"), Failure::Other),
        ] {
            assert_eq!(classify(&payload), want, "{payload}");
        }
    }
}
