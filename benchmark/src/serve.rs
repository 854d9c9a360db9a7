//! The `serve_batch` workload: a closed batch of registration jobs on a
//! 2-rank `ServeHarness` pool with file-backed checkpoints and a planned
//! kill on every 8th job.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use diffreg::comm::{run_threaded, SerialComm};
use diffreg::core::{RegProblem, RegistrationConfig};
use diffreg::grid::Grid;
use diffreg::session::SessionParts;
use diffreg_serve::{
    attempt_epoch_count, reference_digest, synthetic_pair, AttemptFaults, JobId, JobSpec, JobState,
    PlannedFaults, ServeConfig, ServeHarness, ServeSummary,
};

/// Pool size: one rank per core of the reference host.
pub const POOL: usize = 2;

/// The job mix with its seed-derived inputs fixed.
#[derive(Debug, Clone)]
pub struct Batch {
    pub jobs: usize,
    /// Even jobs: gang-2, two β levels, checkpoint after every iteration.
    pub class_a: JobSpec,
    /// Odd jobs: gang-1, one β level, no checkpoints.
    pub class_b: JobSpec,
}

impl Batch {
    pub fn new(jobs: usize, grid_n: usize, amp_scale: f64) -> Self {
        let class_a = JobSpec::new(0, grid_n)
            .with_gang(2)
            .with_newton_iters(2)
            .with_betas(&[1e-2, 1e-3])
            .with_checkpoint_every(1)
            .with_amplitude(0.3 * amp_scale);
        let class_b = JobSpec::new(0, grid_n)
            .with_gang(1)
            .with_newton_iters(2)
            .with_amplitude(0.4 * amp_scale);
        Self {
            jobs,
            class_a,
            class_b,
        }
    }

    fn class_of(&self, i: usize) -> &JobSpec {
        if i.is_multiple_of(2) {
            &self.class_a
        } else {
            &self.class_b
        }
    }

    /// Jobs killed once at 70 % of their first attempt: late enough that a
    /// checkpoint exists, early enough that it has not been cleared.
    fn killed(&self, i: usize) -> bool {
        i.is_multiple_of(8)
    }

    pub fn planned_kills(&self) -> usize {
        (0..self.jobs).filter(|&i| self.killed(i)).count()
    }

    /// Everything a campaign needs before the pool starts: the fault plan
    /// (whose kill epoch takes one replayed solve to find), the harness, and
    /// every submission. Intake is closed, so the batch is closed too.
    pub fn prepare(&self, checkpoint_dir: &Path) -> ServeHarness {
        let kill_epoch = attempt_epoch_count(&self.class_a, 2) * 7 / 10;
        let mut faults = PlannedFaults::new();
        let mut specs = Vec::with_capacity(self.jobs);
        for i in 0..self.jobs {
            let id = (i + 1) as JobId;
            let mut spec = self.class_of(i).clone();
            spec.id = id;
            spec = spec
                .with_tenant(["neuro", "cardiac", "onco"][i % 3])
                .with_priority((i % 3) as u8);
            if self.killed(i) {
                let f = AttemptFaults {
                    kill_at_epoch: Some(((i / 8) % 2, kill_epoch)),
                    ..AttemptFaults::none()
                };
                faults.insert(id, 1, f);
            }
            specs.push(spec);
        }
        let cfg = ServeConfig {
            queue_capacity: self.jobs + 16,
            // No stalls are planned; the watchdog only has to outlast a job.
            watchdog: Some(Duration::from_secs(120)),
            checkpoint_dir: Some(checkpoint_dir.to_path_buf()),
            ..ServeConfig::default()
        };
        let harness = ServeHarness::new(cfg, Arc::new(faults));
        for spec in specs {
            harness.submit(spec);
        }
        harness.close_intake();
        harness
    }
}

/// One finished campaign.
pub struct Campaign {
    /// Wall time of [`Batch::prepare`].
    pub prepare_s: f64,
    pub wall_s: f64,
    pub summary: ServeSummary,
    pub harness: ServeHarness,
}

/// Prepares the batch and runs it to completion on the pool; wall time is
/// from pool start to the last rank's return.
pub fn run_campaign(batch: &Batch, checkpoint_dir: &Path) -> Result<Campaign, String> {
    let t0 = Instant::now();
    let harness = batch.prepare(checkpoint_dir);
    let prepare_s = t0.elapsed().as_secs_f64();
    let h = harness.clone();
    let t0 = Instant::now();
    let summaries = run_threaded(POOL, move |world| {
        world.set_timeout(Some(Duration::from_secs(300)));
        h.serve_pool(world)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    if summaries.iter().any(|s| *s != summaries[0]) {
        return Err("pool ranks returned different summaries".to_string());
    }
    let summary = summaries
        .into_iter()
        .next()
        .expect("pool has at least one rank");
    Ok(Campaign {
        prepare_s,
        wall_s,
        summary,
        harness,
    })
}

/// Uninterrupted reference of one job class at one gang size.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub digest: u64,
    pub mismatch_bits: u64,
    /// `1/2 ||rho_T - rho_R||²` of the smoothed images, for `rel_mismatch`.
    pub initial_mismatch: f64,
    /// Wall time of the fastest solo solve on a dedicated world (set-up
    /// included, as in a served attempt).
    pub solo_s: f64,
}

pub fn reference(spec: &JobSpec, gang: usize, solo_reps: usize) -> Reference {
    let mut solo_s = f64::INFINITY;
    let mut solved = (0, 0);
    for _ in 0..solo_reps.max(1) {
        let t0 = Instant::now();
        solved = reference_digest(spec, gang);
        solo_s = solo_s.min(t0.elapsed().as_secs_f64());
    }
    let (digest, mismatch_bits) = solved;
    let comm = SerialComm::new();
    let parts = SessionParts::new(&comm, Grid::cubic(spec.grid_n));
    let ws = parts.workspace(&comm);
    let (rho_t, rho_r) = synthetic_pair(&ws, spec.amplitude);
    let initial_mismatch =
        RegProblem::new(&ws, &rho_t, &rho_r, RegistrationConfig::default()).initial_data_term();
    Reference {
        digest,
        mismatch_bits,
        initial_mismatch,
        solo_s,
    }
}

/// References keyed by `JobSpec::solve_signature`.
pub type References = BTreeMap<u64, Reference>;

/// `solo_reps` solo solves per class; the fastest is its `solo_s`.
pub fn references(batch: &Batch, solo_reps: usize) -> References {
    [(&batch.class_a, 2), (&batch.class_b, 1)]
        .into_iter()
        .map(|(spec, gang)| {
            let r = reference(spec, gang, solo_reps);
            (spec.solve_signature(gang), r)
        })
        .collect()
}

/// Per-campaign verdict: failed-job messages, the mean relative mismatch of
/// the completed jobs, and the work done expressed as Σ gang × solo time.
pub struct Verdict {
    pub failures: Vec<String>,
    pub rel_mismatch: f64,
    pub rank_seconds: f64,
}

pub fn verify(batch: &Batch, refs: &References, c: &Campaign, corrupt: bool) -> Verdict {
    let mut failures = Vec::new();
    let (mut rel_sum, mut rel_n, mut rank_seconds) = (0.0, 0usize, 0.0);
    if c.summary.records.len() != batch.jobs {
        failures.push(format!(
            "{} of {} jobs admitted",
            c.summary.records.len(),
            batch.jobs
        ));
    }
    for rec in c.summary.records.values() {
        let id = rec.spec.id;
        let Some(res) = rec.result.filter(|_| rec.state == JobState::Completed) else {
            failures.push(format!("job {id} ended {:?}", rec.state));
            continue;
        };
        let Some(r) = refs.get(&rec.spec.solve_signature(res.gang_size)) else {
            failures.push(format!(
                "job {id} ran on gang {} with no reference",
                res.gang_size
            ));
            continue;
        };
        let expect = if corrupt { r.digest ^ 1 } else { r.digest };
        if res.digest != expect || res.final_mismatch_bits != r.mismatch_bits {
            failures.push(format!(
                "job {id} digest {:016x} differs from {expect:016x}",
                res.digest
            ));
            continue;
        }
        rel_sum += (f64::from_bits(res.final_mismatch_bits) / r.initial_mismatch).sqrt();
        rel_n += 1;
        rank_seconds += res.gang_size as f64 * r.solo_s;
    }
    let recovered = c.harness.counter("serve_jobs_recovered_total");
    if recovered != batch.planned_kills() as u64 {
        failures.push(format!(
            "{recovered} jobs recovered, {} kills planned",
            batch.planned_kills()
        ));
    }
    Verdict {
        failures,
        rel_mismatch: rel_sum / rel_n.max(1) as f64,
        rank_seconds,
    }
}

/// A value from the harness's Prometheus export (`name value` lines).
pub fn prom_value(harness: &ServeHarness, name: &str) -> f64 {
    harness
        .render_prometheus()
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(f64::NAN)
}
