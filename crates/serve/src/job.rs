//! Job specifications and the per-job robustness state machine.
//!
//! Every pool rank holds an identical copy of the job table; all mutations
//! derive from broadcast intake and allgathered attempt outcomes, so the
//! table (and every scheduling decision computed from it) is replicated
//! deterministically without a coordinator.

use diffreg_telemetry::incident::Failure;
use diffreg_testkit::Rng;

/// Unique job identifier, assigned by the submitter.
pub type JobId = u64;

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Folds one u64 into an FNV-1a accumulator, byte by byte.
pub(crate) fn fnv_fold_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What one registration job asks of the pool: the synthetic problem to
/// solve, the gang size it wants, and its robustness envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique id (admission rejects duplicates).
    pub id: JobId,
    /// Tenant name for fair-share accounting.
    pub tenant: String,
    /// Cubic grid extent (the job registers an `n³` synthetic pair).
    pub grid_n: usize,
    /// Desired gang size (clamped to the pool size at planning).
    pub gang: usize,
    /// Scheduling priority: higher runs first.
    pub priority: u8,
    /// Amplitude of the synthetic velocity generating the reference image —
    /// the "input" that distinguishes one tenant's problem from another's.
    pub amplitude: f64,
    /// β-continuation schedule (non-increasing).
    pub betas: Vec<f64>,
    /// Outer Newton iterations per level.
    pub newton_iters: usize,
    /// Semi-Lagrangian time steps.
    pub nt: usize,
    /// Checkpoint every this many accepted Newton iterations (0 disables).
    pub checkpoint_every: usize,
    /// Retry budget: attempts beyond `1 + max_retries` mark the job Failed.
    pub max_retries: u32,
    /// Give up if the job has not finished within this many scheduler
    /// rounds of its submission.
    pub deadline_rounds: Option<u64>,
}

impl JobSpec {
    /// A small, fast job with sane robustness defaults.
    pub fn new(id: JobId, grid_n: usize) -> Self {
        Self {
            id,
            tenant: "default".to_string(),
            grid_n,
            gang: 2,
            priority: 0,
            amplitude: 0.3,
            betas: vec![1e-2],
            newton_iters: 2,
            nt: 2,
            checkpoint_every: 0,
            max_retries: 3,
            deadline_rounds: None,
        }
    }

    /// Sets the tenant for fair-share accounting.
    pub fn with_tenant(mut self, tenant: &str) -> Self {
        self.tenant = tenant.to_string();
        self
    }

    /// Sets the desired gang size.
    pub fn with_gang(mut self, gang: usize) -> Self {
        self.gang = gang;
        self
    }

    /// Sets the scheduling priority (higher runs first).
    pub fn with_priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }

    /// Sets the synthetic-input amplitude.
    pub fn with_amplitude(mut self, a: f64) -> Self {
        self.amplitude = a;
        self
    }

    /// Sets the β-continuation schedule.
    pub fn with_betas(mut self, betas: &[f64]) -> Self {
        self.betas = betas.to_vec();
        self
    }

    /// Sets outer Newton iterations per level.
    pub fn with_newton_iters(mut self, n: usize) -> Self {
        self.newton_iters = n;
        self
    }

    /// Sets the checkpoint cadence (accepted Newton iterations; 0 disables).
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the deadline in scheduler rounds.
    pub fn with_deadline_rounds(mut self, rounds: u64) -> Self {
        self.deadline_rounds = Some(rounds);
        self
    }

    /// Content hash of everything that determines the *numerical result* of
    /// this job at a given gang size. Two jobs with equal signatures produce
    /// bitwise-identical transformations, so load tests dedupe their
    /// uninterrupted reference solves by this key. The gang size is part of
    /// the key: reduction order (and therefore bits) depends on the
    /// decomposition.
    pub fn solve_signature(&self, gang_size: usize) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv_fold_u64(h, self.grid_n as u64);
        h = fnv_fold_u64(h, gang_size as u64);
        h = fnv_fold_u64(h, self.amplitude.to_bits());
        h = fnv_fold_u64(h, self.betas.len() as u64);
        for b in &self.betas {
            h = fnv_fold_u64(h, b.to_bits());
        }
        h = fnv_fold_u64(h, self.newton_iters as u64);
        h = fnv_fold_u64(h, self.nt as u64);
        h
    }
}

/// Where a job sits in its lifecycle. Terminal states are deliberate
/// outcomes — the runtime's zero-loss invariant is that every submitted job
/// ends `Completed`, `Cancelled`, `Expired`, or `Failed` (retry budget
/// exhausted), never silently disappears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a gang.
    Queued,
    /// A gang is executing an attempt right now.
    Running,
    /// A failed attempt is waiting out its backoff.
    Backoff {
        /// First round at which the job may be scheduled again.
        until_round: u64,
    },
    /// Finished successfully; the result digest is recorded.
    Completed,
    /// Cancelled by the submitter.
    Cancelled,
    /// Deadline passed before the job could finish.
    Expired,
    /// Retry budget exhausted.
    Failed,
}

impl JobState {
    /// True once the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Expired | JobState::Failed
        )
    }

    /// True while the job occupies a queue slot (admission control counts
    /// these against capacity).
    pub fn is_waiting(self) -> bool {
        matches!(self, JobState::Queued | JobState::Backoff { .. })
    }

    /// The state's name: the `/jobs` field and, for a terminal state, the
    /// `serve_jobs_<name>_total` counter.
    pub(crate) fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Backoff { .. } => "backoff",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "expired",
            JobState::Failed => "failed",
        }
    }
}

/// The recorded outcome of a completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobResult {
    /// FNV digest over the gang-rank-ordered velocity slabs plus the final
    /// mismatch bits — bitwise-comparable against a reference solve at the
    /// same gang size.
    pub digest: u64,
    /// `f64::to_bits` of the final mismatch.
    pub final_mismatch_bits: u64,
    /// Gang size that produced the result.
    pub gang_size: usize,
    /// 1-based attempt number that succeeded.
    pub attempt: u32,
    /// True when the successful attempt resumed from a checkpoint.
    pub resumed: bool,
}

/// Replicated per-job scheduler state (identical on every pool rank).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Current gang size — starts at `min(spec.gang, pool)` and halves under
    /// graceful degradation.
    pub gang_size: usize,
    /// Attempts started so far.
    pub attempts: u32,
    /// Attempts that resumed from a checkpoint.
    pub resumed_attempts: u32,
    /// Successful attempts whose resume fell back to the previous
    /// checkpoint generation (torn-write recovery).
    pub fallbacks: u32,
    /// Round the job was admitted.
    pub submit_round: u64,
    /// Round of the first attempt, once scheduled.
    pub first_start_round: Option<u64>,
    /// Round the job reached a terminal state.
    pub finish_round: Option<u64>,
    /// Cancellation arrived while an attempt was in flight; applied at the
    /// attempt boundary.
    pub cancel_requested: bool,
    /// The result, once `Completed`.
    pub result: Option<JobResult>,
    /// Why the most recent failed attempt failed.
    pub last_failure: Option<Failure>,
}

impl JobRecord {
    /// A freshly admitted job.
    pub fn new(spec: JobSpec, round: u64, pool: usize) -> Self {
        let gang_size = spec.gang.clamp(1, pool);
        Self {
            spec,
            state: JobState::Queued,
            gang_size,
            attempts: 0,
            resumed_attempts: 0,
            fallbacks: 0,
            submit_round: round,
            first_start_round: None,
            finish_round: None,
            cancel_requested: false,
            result: None,
            last_failure: None,
        }
    }

    /// The job's deadline, once `round` has reached it.
    pub(crate) fn deadline_passed(&self, round: u64) -> Option<u64> {
        self.spec.deadline_rounds.filter(|&d| round.saturating_sub(self.submit_round) >= d)
    }
}

/// Cap on the exponential part of the retry delay, in rounds.
const BACKOFF_CAP_ROUNDS: u64 = 8;
/// Maximum extra jitter rounds (inclusive).
const BACKOFF_JITTER_ROUNDS: u64 = 2;
/// Seed for the per-(job, attempt) jitter draw.
const BACKOFF_SEED: u64 = 0x5e12e;

/// Bounded exponential backoff with seeded jitter after `attempt` (1-based)
/// failures of `job`: `min(2^(attempt−1), cap) + jitter(job, attempt)`,
/// measured in scheduler rounds. Pure — identical on every rank.
pub(crate) fn backoff_rounds(job: JobId, attempt: u32) -> u64 {
    let exp = (1u64 << attempt.saturating_sub(1).min(20)).min(BACKOFF_CAP_ROUNDS);
    let mut rng = Rng::new(BACKOFF_SEED).fork(job).fork(u64::from(attempt));
    let jitter = rng.index(BACKOFF_JITTER_ROUNDS as usize + 1) as u64;
    exp + jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let a = backoff_rounds(42, 1);
        assert_eq!(a, backoff_rounds(42, 1), "same (job, attempt) must agree");
        for attempt in 1..8 {
            let d = backoff_rounds(42, attempt);
            let bounds = 1..=BACKOFF_CAP_ROUNDS + BACKOFF_JITTER_ROUNDS;
            assert!(bounds.contains(&d), "delay {d} out of bounds");
        }
        // The exponential part dominates: attempt 4's floor exceeds
        // attempt 1's ceiling.
        assert!(backoff_rounds(7, 4) >= 4);
    }

    #[test]
    fn solve_signature_keys_on_inputs_and_gang_size() {
        let a = JobSpec::new(1, 16).with_amplitude(0.3);
        let b = JobSpec::new(2, 16).with_amplitude(0.3); // different id, same problem
        let c = JobSpec::new(3, 16).with_amplitude(0.4);
        assert_eq!(a.solve_signature(4), b.solve_signature(4));
        assert_ne!(a.solve_signature(4), c.solve_signature(4));
        assert_ne!(a.solve_signature(4), a.solve_signature(2), "gang size changes the bits");
        // Robustness knobs (retries, deadline, checkpoint cadence) must NOT
        // change the numerical signature.
        let d = JobSpec::new(4, 16).with_amplitude(0.3).with_checkpoint_every(1).with_max_retries(9);
        assert_eq!(a.solve_signature(4), d.solve_signature(4));
    }
}
