//! Per-attempt fault plans for chaos drills against the serving runtime.
//!
//! The runtime asks its [`PlannedFaults`] what to do to each `(job,
//! attempt)` pair and wires the answer into a [`ChaosComm`] wrapped around
//! the gang communicator (plus an optional checkpoint-corruption drill).
//! A plan is a pure function of `(job, attempt)`, so a campaign replays
//! bit-identically: the same plan produces the same kills at the same
//! collective epochs in the same gangs. An empty plan is production mode; a
//! seeded campaign draws its plan up front from its own `Rng`.
//!
//! [`ChaosComm`]: diffreg_comm::ChaosComm

use std::collections::HashMap;

use crate::job::JobId;

/// The faults to inject into one attempt of one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttemptFaults {
    /// Kill this gang rank at this 1-based collective epoch.
    pub kill_at_epoch: Option<(usize, u64)>,
    /// Stall this gang rank for `ms` at this collective epoch:
    /// `(rank, epoch, ms)`. With a stall far longer than the runtime's
    /// watchdog this deterministically produces a timeout-class failure.
    pub stall_at_epoch: Option<(usize, u64, u64)>,
    /// Seeded random latency `(probability, max_us)` on every operation —
    /// timing-only chaos that must never change results.
    pub latency: Option<(f64, u64)>,
    /// Tear every gang rank's current checkpoint generation before the
    /// attempt starts (torn-write drill; resume must fall back to the
    /// previous generation or restart fresh, never crash or diverge).
    pub corrupt_checkpoint: bool,
    /// Seed for the chaos schedule.
    pub seed: u64,
}

impl AttemptFaults {
    /// No faults at all.
    pub fn none() -> Self {
        Self::default()
    }
}

/// An explicit per-(job, attempt) plan; every attempt it does not name runs
/// clean.
#[derive(Debug, Clone, Default)]
pub struct PlannedFaults {
    plan: HashMap<(JobId, u32), AttemptFaults>,
}

impl PlannedFaults {
    /// An empty plan (every attempt clean).
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans `faults` for `attempt` (1-based) of `job`.
    pub fn insert(&mut self, job: JobId, attempt: u32, faults: AttemptFaults) {
        self.plan.insert((job, attempt), faults);
    }

    /// Builder-style [`insert`](Self::insert).
    pub fn with(mut self, job: JobId, attempt: u32, faults: AttemptFaults) -> Self {
        self.insert(job, attempt, faults);
        self
    }

    /// The faults for `attempt` (1-based) of `job`.
    pub fn faults(&self, job: JobId, attempt: u32) -> AttemptFaults {
        self.plan.get(&(job, attempt)).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_faults_hit_only_their_slot() {
        let plan = PlannedFaults::new().with(
            3,
            1,
            AttemptFaults { kill_at_epoch: Some((0, 5)), ..AttemptFaults::none() },
        );
        assert_eq!(plan.faults(3, 1).kill_at_epoch, Some((0, 5)));
        assert_eq!(plan.faults(3, 2), AttemptFaults::none());
        assert_eq!(plan.faults(4, 1), AttemptFaults::none());
    }
}
