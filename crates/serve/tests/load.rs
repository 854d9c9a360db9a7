//! Chaos load-test acceptance (ISSUE 7): a queued campaign of registration
//! jobs on a 4-rank pool under seeded kills, stalls, and checkpoint
//! corruption must lose **zero** jobs, deliver every recovered job's final
//! transformation bitwise-equal to its uninterrupted reference solve, and
//! export deterministic recovery counters (plus queue-latency quantiles)
//! through the Prometheus dashboard.
//!
//! Three tiers share one campaign builder:
//!
//! * [`small_chaos_campaign_is_lossless_and_replays`] — always on, 8³ jobs,
//!   fast enough for debug-mode tier-1; also leaves one served job's
//!   doctor-readable trace bundle in `target/tmp/serve-smoke` for the
//!   `diffreg-doctor` gates of `scripts/ci.sh`.
//! * [`load_48_jobs_on_4_rank_pool`] — 48 queued 16³ jobs, release builds
//!   only.
//! * [`full_load_200_jobs_on_4_rank_pool`] — `#[ignore]`d: ≥200 queued 32³
//!   jobs.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use diffreg_comm::run_threaded;
use diffreg_serve::{
    attempt_epoch_count, reference_digest, AttemptFaults, FaultInjector, JobId, JobSpec,
    JobState, PlannedFaults, ServeConfig, ServeHarness, ServeSummary,
};

/// The deterministic chaos campaign: a four-class job mix with fault slots
/// keyed on the job index.
struct Campaign {
    specs: Vec<JobSpec>,
    faults: PlannedFaults,
    cancels: Vec<JobId>,
    /// Jobs whose killed first attempt must RESUME from a checkpoint.
    expect_resumes: u64,
    /// Jobs whose retry additionally rides through torn-checkpoint
    /// fallback (counted inside `expect_resumes` too).
    expect_fallbacks: u64,
    /// Fresh (uncheckpointed) kills.
    expect_fresh_kills: u64,
    /// Stall-past-watchdog timeouts.
    expect_timeouts: u64,
}

/// Builds `jobs` specs over a `pool`-rank deployment at grid `n`.
///
/// Job classes by `i % 4`: 0 = checkpointed 2-rank two-level solve,
/// 1 = quick 1-rank solve, 2 = pool-wide solve, 3 = checkpointed 2-rank
/// (torn-write drill target). Fault slots by `i % 16`: 0 = kill →
/// checkpoint resume, 3 = kill then corrupt → generation fallback,
/// 5 = fresh kill, 6 = stall past the watchdog, 9 = cancelled at intake.
fn build_campaign(jobs: usize, n: usize, pool: usize, stall_ms: u64) -> Campaign {
    let class0 = JobSpec::new(0, n)
        .with_gang(2)
        .with_newton_iters(1)
        .with_betas(&[1e-2, 1e-3])
        .with_checkpoint_every(1)
        .with_amplitude(0.3);
    let class3 = JobSpec::new(0, n)
        .with_gang(2)
        .with_newton_iters(1)
        .with_betas(&[1e-2, 1e-3])
        .with_checkpoint_every(1)
        .with_amplitude(0.35);
    // Kill epochs at ~70% of a fresh attempt land inside the second
    // continuation level: checkpoints exist and have not yet been cleared.
    let kill0 = attempt_epoch_count(&class0, 2) * 7 / 10;
    let kill3 = attempt_epoch_count(&class3, 2) * 7 / 10;

    let mut c = Campaign {
        specs: Vec::with_capacity(jobs),
        faults: PlannedFaults::new(),
        cancels: Vec::new(),
        expect_resumes: 0,
        expect_fallbacks: 0,
        expect_fresh_kills: 0,
        expect_timeouts: 0,
    };
    for i in 0..jobs {
        let id = (i + 1) as JobId;
        let tenant = ["neuro", "cardiac", "onco"][i % 3];
        let mut spec = match i % 4 {
            0 => class0.clone().with_amplitude(0.3),
            1 => JobSpec::new(0, n).with_gang(1).with_newton_iters(1).with_amplitude(0.4),
            2 => JobSpec::new(0, n)
                .with_gang(pool)
                .with_newton_iters(1)
                .with_amplitude(0.5),
            _ => class3.clone(),
        };
        spec.id = id;
        spec = spec.with_tenant(tenant).with_priority((i % 3) as u8);
        match i % 16 {
            0 => {
                c.faults.insert(
                    id,
                    1,
                    AttemptFaults {
                        kill_at_epoch: Some((i % 2, kill0)),
                        ..AttemptFaults::none()
                    },
                );
                c.expect_resumes += 1;
            }
            3 => {
                c.faults.insert(
                    id,
                    1,
                    AttemptFaults { kill_at_epoch: Some((0, kill3)), ..AttemptFaults::none() },
                );
                c.faults.insert(
                    id,
                    2,
                    AttemptFaults { corrupt_checkpoint: true, ..AttemptFaults::none() },
                );
                c.expect_resumes += 1;
                c.expect_fallbacks += 1;
            }
            5 => {
                c.faults.insert(
                    id,
                    1,
                    AttemptFaults { kill_at_epoch: Some((0, 2)), ..AttemptFaults::none() },
                );
                c.expect_fresh_kills += 1;
            }
            6 => {
                c.faults.insert(
                    id,
                    1,
                    AttemptFaults {
                        stall_at_epoch: Some((1, 5, stall_ms)),
                        ..AttemptFaults::none()
                    },
                );
                c.expect_timeouts += 1;
            }
            9 => c.cancels.push(id),
            _ => {}
        }
        c.specs.push(spec);
    }
    c
}

/// Runs the campaign on a fresh deployment and verifies the acceptance
/// invariants. Returns `(summary, harness)` for extra assertions.
fn run_campaign(c: &Campaign, pool: usize, watchdog_ms: u64, trace_job: Option<JobId>) -> (ServeSummary, ServeHarness) {
    let cfg = ServeConfig {
        queue_capacity: c.specs.len() + 16,
        watchdog: Some(Duration::from_millis(watchdog_ms)),
        trace_job,
        ..ServeConfig::default()
    };
    let mut faults = PlannedFaults::new();
    // PlannedFaults is not Clone; rebuild from the campaign's plan by
    // re-querying it (pure function of (job, attempt)).
    for spec in &c.specs {
        for attempt in 1..=4u32 {
            let f = c.faults.faults(spec.id, attempt);
            if !f.is_clean() {
                faults.insert(spec.id, attempt, f);
            }
        }
    }
    let harness = ServeHarness::new(cfg, Arc::new(faults));
    for spec in &c.specs {
        harness.submit(spec.clone());
    }
    for id in &c.cancels {
        harness.cancel(*id);
    }
    harness.close_intake();
    let h = harness.clone();
    let summaries = run_threaded(pool, move |world| {
        world.set_timeout(Some(Duration::from_secs(300)));
        h.serve_pool(world)
    });
    for (r, s) in summaries.iter().enumerate() {
        assert_eq!(*s, summaries[0], "pool rank {r} diverged from rank 0");
    }
    (summaries[0].clone(), harness)
}

/// Asserts the zero-loss + bitwise-recovery acceptance invariants and the
/// deterministic Prometheus counters.
fn verify_campaign(c: &Campaign, s: &ServeSummary, harness: &ServeHarness) {
    let jobs = c.specs.len() as u64;
    let cancelled = c.cancels.len() as u64;

    // Zero lost jobs: every submitted job reached a deliberate terminal
    // state, and nothing failed or expired.
    assert!(s.all_accounted_for(), "some job is not terminal");
    assert_eq!(s.records.len(), c.specs.len());
    assert!(s.rejected.is_empty());
    assert_eq!(s.count(JobState::Failed), 0, "no job may exhaust its retry budget");
    assert_eq!(s.count(JobState::Expired), 0);
    assert_eq!(s.count(JobState::Cancelled), cancelled as usize);
    assert_eq!(s.count(JobState::Completed), (jobs - cancelled) as usize);

    // Every completed job — recovered or not — must be bitwise-equal to
    // its uninterrupted reference solve at its final gang size.
    let mut references: HashMap<u64, (u64, u64)> = HashMap::new();
    for rec in s.records.values() {
        if rec.state != JobState::Completed {
            continue;
        }
        let res = rec.result.expect("completed job without result");
        let sig = rec.spec.solve_signature(res.gang_size);
        let (ref_digest, ref_mm) = *references
            .entry(sig)
            .or_insert_with(|| reference_digest(&rec.spec, res.gang_size));
        assert_eq!(
            res.digest, ref_digest,
            "job {} (attempts {}, resumed {}) diverged from its reference",
            rec.spec.id, rec.attempts, res.resumed
        );
        assert_eq!(res.final_mismatch_bits, ref_mm, "job {} mismatch bits", rec.spec.id);
    }

    // Recovery accounting, exact and replicated.
    let resumed_jobs =
        s.records.values().filter(|r| r.result.is_some_and(|res| res.resumed)).count() as u64;
    assert_eq!(resumed_jobs, c.expect_resumes, "checkpoint-resume count");
    assert_eq!(harness.counter("serve_jobs_recovered_total"), c.expect_resumes);
    assert_eq!(harness.counter("serve_checkpoint_fallback_total"), c.expect_fallbacks);
    assert_eq!(
        harness.counter("serve_attempts_failed_total{reason=\"kill\"}"),
        c.expect_resumes + c.expect_fresh_kills
    );
    assert_eq!(
        harness.counter("serve_attempts_failed_total{reason=\"timeout\"}"),
        c.expect_timeouts
    );
    assert_eq!(
        harness.counter("serve_jobs_retried_total"),
        c.expect_resumes + c.expect_fresh_kills + c.expect_timeouts
    );
    assert_eq!(harness.counter("serve_jobs_submitted_total"), jobs);
    assert_eq!(harness.counter("serve_jobs_completed_total"), jobs - cancelled);
    assert_eq!(harness.counter("serve_jobs_cancelled_total"), cancelled);
    assert_eq!(harness.counter("serve_jobs_degraded_total"), 0);

    // Queue-latency quantiles are present in the deterministic export (the
    // values are wall-clock; the series and counts are schedule-exact).
    let prom = harness.render_prometheus();
    assert!(prom.contains("serve_queue_wait_seconds_p95"), "missing p95:\n{prom}");
    assert!(prom.contains("serve_queue_wait_seconds_p50"), "missing p50:\n{prom}");
    assert!(prom.contains("serve_queue_wait_seconds_p99"), "missing p99:\n{prom}");
    assert!(
        prom.contains(&format!("serve_queue_wait_seconds_count {}", jobs - cancelled)),
        "queue-wait count:\n{prom}"
    );
    assert!(
        prom.contains(&format!("serve_job_e2e_seconds_count {}", jobs - cancelled)),
        "e2e count:\n{prom}"
    );
}

/// Always-on small tier: 32 jobs of 8³ under the full fault mix, twice —
/// the second run must replay the first bit-for-bit (states, attempts,
/// digests, rounds). The first run traces the checkpoint-resume drill job
/// (slot 0) and leaves its doctor bundle on disk.
#[test]
fn small_chaos_campaign_is_lossless_and_replays() {
    let c = build_campaign(32, 8, 4, 1500);
    let (s1, h1) = run_campaign(&c, 4, 400, Some(1));
    verify_campaign(&c, &s1, &h1);

    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/serve-smoke");
    let gang = h1.write_traced_job_bundle(dir).expect("trace bundle");
    assert!(gang > 0, "traced job produced no per-rank traces");

    let (s2, h2) = run_campaign(&c, 4, 400, None);
    verify_campaign(&c, &s2, &h2);
    assert_eq!(s1, s2, "chaos campaign must replay deterministically");
}

fn load_campaign(jobs: usize, n: usize) {
    let c = build_campaign(jobs, n, 4, 900);
    let (s, h) = run_campaign(&c, 4, 300, None);
    verify_campaign(&c, &s, &h);
    eprintln!(
        "load: {} jobs of {n}^3, {} rounds, {} resumed, {} fallbacks, {} timeouts",
        jobs, s.rounds, c.expect_resumes, c.expect_fallbacks, c.expect_timeouts
    );
}

/// The release-scale campaign: 48 queued 16³ jobs on a 4-rank pool. Too
/// slow for a debug build, which the small tier covers.
#[test]
fn load_48_jobs_on_4_rank_pool() {
    if cfg!(debug_assertions) {
        return;
    }
    load_campaign(48, 16);
}

/// The full acceptance campaign: ≥200 queued 32³ jobs on a 4-rank pool.
/// Run in release (`cargo test -p diffreg-serve --release --test load --
/// --ignored`).
#[test]
#[ignore = "release-scale campaign; run explicitly"]
fn full_load_200_jobs_on_4_rank_pool() {
    load_campaign(200, 32);
}
