//! Serving-runtime semantics: admission control, priorities, cancellation,
//! deterministic backoff/retry, timeout containment, graceful degradation,
//! and bitwise checkpoint recovery — each exercised on a real 4-rank pool
//! with real (small) registration solves.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use diffreg_comm::run_threaded;
use diffreg_serve::{
    attempt_epoch_count, reference_digest, AttemptFaults, JobSpec, JobState, PlannedFaults,
    ServeConfig, ServeHarness, ServeSummary,
};
use diffreg_telemetry::StreamEntry;

/// A job small enough that a 4-rank debug-mode pool chews through dozens.
fn quick_job(id: u64, gang: usize) -> JobSpec {
    JobSpec::new(id, 8).with_gang(gang).with_newton_iters(1)
}

fn serve(harness: &ServeHarness, pool: usize) -> Vec<ServeSummary> {
    let h = harness.clone();
    run_threaded(pool, move |world| {
        world.set_timeout(Some(Duration::from_secs(120)));
        h.serve_pool(world)
    })
}

#[test]
fn admission_control_rejects_past_capacity_and_all_ranks_agree() {
    let cfg = ServeConfig { queue_capacity: 2, ..ServeConfig::default() };
    let harness = ServeHarness::new(cfg, Arc::default());
    for id in 1..=4 {
        harness.submit(quick_job(id, 1));
    }
    harness.close_intake();
    let summaries = serve(&harness, 2);

    assert_eq!(summaries[0], summaries[1], "pool ranks diverged");
    let s = &summaries[0];
    assert_eq!(s.rejected, vec![3, 4], "admission must reject in intake order past capacity");
    assert_eq!(s.count(JobState::Completed), 2);
    assert_eq!(harness.counter("serve_jobs_submitted_total"), 4);
    assert_eq!(harness.counter("serve_jobs_rejected_total"), 2);
    assert_eq!(harness.counter("serve_jobs_completed_total"), 2);
    assert!(s.all_accounted_for());
}

#[test]
fn duplicate_job_ids_are_rejected() {
    let harness = ServeHarness::new(ServeConfig::default(), Arc::default());
    harness.submit(quick_job(7, 1));
    harness.submit(quick_job(7, 1));
    harness.close_intake();
    let summaries = serve(&harness, 2);
    assert_eq!(summaries[0].rejected, vec![7]);
    assert_eq!(summaries[0].count(JobState::Completed), 1);
}

#[test]
fn priorities_order_the_first_round() {
    // Four 2-rank jobs on a 2-rank pool: only one runs per round, so the
    // start order is the priority order (ties broken FIFO).
    let harness = ServeHarness::new(ServeConfig::default(), Arc::default());
    harness.submit(quick_job(1, 2).with_priority(0));
    harness.submit(quick_job(2, 2).with_priority(9));
    harness.submit(quick_job(3, 2).with_priority(5));
    harness.submit(quick_job(4, 2).with_priority(5));
    harness.close_intake();
    let summaries = serve(&harness, 2);
    let s = &summaries[0];
    let start = |id: u64| s.records[&id].first_start_round.unwrap();
    assert!(start(2) < start(3), "priority 9 before priority 5");
    assert!(start(3) < start(4), "equal priority: FIFO by submission");
    assert!(start(4) < start(1), "priority 0 last");
    assert_eq!(s.count(JobState::Completed), 4);
}

#[test]
fn cancelling_a_queued_job_prevents_any_attempt() {
    let harness = ServeHarness::new(ServeConfig::default(), Arc::default());
    harness.submit(quick_job(1, 2));
    harness.submit(quick_job(2, 2));
    harness.cancel(2); // same intake round as the submission: dies queued
    harness.close_intake();
    let summaries = serve(&harness, 2);
    let s = &summaries[0];
    assert_eq!(s.records[&2].state, JobState::Cancelled);
    assert_eq!(s.records[&2].attempts, 0, "cancelled before any gang was carved");
    assert_eq!(s.records[&1].state, JobState::Completed);
    assert_eq!(harness.counter("serve_jobs_cancelled_total"), 1);
}

#[test]
fn injected_kill_is_retried_and_the_whole_campaign_replays_bitwise() {
    let run = || {
        let faults = PlannedFaults::new().with(
            1,
            1,
            AttemptFaults { kill_at_epoch: Some((0, 3)), ..AttemptFaults::none() },
        );
        let harness = ServeHarness::new(ServeConfig::default(), Arc::new(faults));
        harness.submit(quick_job(1, 2));
        harness.submit(quick_job(2, 2));
        harness.close_intake();
        let summaries = serve(&harness, 2);
        (
            summaries,
            harness.counter("serve_jobs_retried_total"),
            harness.counter("serve_attempts_failed_total{reason=\"kill\"}"),
        )
    };
    let (a, retried_a, kills_a) = run();
    assert_eq!(a[0], a[1], "pool ranks diverged");
    let rec = &a[0].records[&1];
    assert_eq!(rec.state, JobState::Completed);
    assert_eq!(rec.attempts, 2, "one killed attempt, one clean retry");
    assert_eq!(rec.last_failure.map(|f| f.label()), Some("kill"));
    assert_eq!(retried_a, 1);
    assert_eq!(kills_a, 1);
    // The victim's result is still bitwise the uninterrupted reference.
    let job1 = quick_job(1, 2);
    let (ref_digest, ref_mm) = reference_digest(&job1, 2);
    let res = rec.result.unwrap();
    assert_eq!(res.digest, ref_digest, "retried job diverged from its reference solve");
    assert_eq!(res.final_mismatch_bits, ref_mm);

    // Same plan, fresh deployment: the campaign replays identically —
    // rounds, states, attempts, digests.
    let (b, retried_b, kills_b) = run();
    assert_eq!(a[0], b[0], "campaign did not replay deterministically");
    assert_eq!((retried_a, kills_a), (retried_b, kills_b));
}

#[test]
fn stall_past_the_watchdog_is_a_contained_timeout_and_recovers() {
    let faults = PlannedFaults::new().with(
        1,
        1,
        AttemptFaults { stall_at_epoch: Some((1, 3, 3_000)), ..AttemptFaults::none() },
    );
    let cfg = ServeConfig { watchdog: Some(Duration::from_millis(300)), ..ServeConfig::default() };
    let harness = ServeHarness::new(cfg, Arc::new(faults));
    harness.submit(quick_job(1, 2));
    harness.close_intake();
    let summaries = serve(&harness, 2);
    let rec = &summaries[0].records[&1];
    assert_eq!(rec.state, JobState::Completed);
    assert_eq!(rec.attempts, 2);
    assert_eq!(rec.last_failure.map(|f| f.label()), Some("timeout"));
    assert_eq!(harness.counter("serve_attempts_failed_total{reason=\"timeout\"}"), 1);
}

#[test]
fn repeated_fresh_kills_degrade_the_gang_and_still_deliver() {
    // Kill the first two attempts of an uncheckpointed 4-rank job; the gang
    // halves to 2 after the second fresh death (`DEGRADE_AFTER`), and
    // the final result must match the reference AT THE DEGRADED SIZE.
    let faults = PlannedFaults::new()
        .with(1, 1, AttemptFaults { kill_at_epoch: Some((2, 4)), ..AttemptFaults::none() })
        .with(1, 2, AttemptFaults { kill_at_epoch: Some((0, 4)), ..AttemptFaults::none() });
    let harness = ServeHarness::new(ServeConfig::default(), Arc::new(faults));
    harness.submit(quick_job(1, 4));
    harness.close_intake();
    let summaries = serve(&harness, 4);
    assert_eq!(summaries[0], summaries[3], "pool ranks diverged");
    let rec = &summaries[0].records[&1];
    assert_eq!(rec.state, JobState::Completed);
    assert_eq!(rec.attempts, 3);
    assert_eq!(rec.gang_size, 2, "gang must halve after two fresh deaths");
    let res = rec.result.unwrap();
    assert_eq!(res.gang_size, 2);
    let (ref_digest, _) = reference_digest(&quick_job(1, 4), 2);
    assert_eq!(res.digest, ref_digest, "degraded job must match the reference at gang size 2");
    assert_eq!(harness.counter("serve_jobs_degraded_total"), 1);
}

#[test]
fn deadline_expires_a_job_stuck_in_retry() {
    // Every attempt is killed; a 3-round deadline expires the job long
    // before the 5-attempt retry budget would.
    let mut faults = PlannedFaults::new();
    for attempt in 1..=6 {
        faults.insert(
            1,
            attempt,
            AttemptFaults { kill_at_epoch: Some((0, 2)), ..AttemptFaults::none() },
        );
    }
    let harness = ServeHarness::new(ServeConfig::default(), Arc::new(faults));
    harness.submit(quick_job(1, 2).with_max_retries(5).with_deadline_rounds(3));
    harness.close_intake();
    let summaries = serve(&harness, 2);
    let rec = &summaries[0].records[&1];
    assert_eq!(rec.state, JobState::Expired);
    assert!(rec.attempts < 6, "deadline must cut the retry loop short");
    assert_eq!(harness.counter("serve_jobs_expired_total"), 1);
}

#[test]
fn exhausted_retry_budget_marks_the_job_failed_not_lost() {
    let mut faults = PlannedFaults::new();
    for attempt in 1..=3 {
        faults.insert(
            1,
            attempt,
            AttemptFaults { kill_at_epoch: Some((0, 2)), ..AttemptFaults::none() },
        );
    }
    let harness = ServeHarness::new(ServeConfig::default(), Arc::new(faults));
    harness.submit(quick_job(1, 2).with_max_retries(2));
    harness.close_intake();
    let summaries = serve(&harness, 2);
    let rec = &summaries[0].records[&1];
    assert_eq!(rec.state, JobState::Failed);
    assert_eq!(rec.attempts, 3, "initial attempt plus two retries");
    assert_eq!(harness.counter("serve_jobs_failed_total"), 1);
    assert!(summaries[0].all_accounted_for());
}

#[test]
fn killed_checkpointed_job_resumes_bitwise_and_streams_progress() {
    // Two continuation levels with per-iteration checkpoints; the kill
    // lands at ~70% of the attempt's collective epochs — inside level 1,
    // after checkpoints exist. The retry must RESUME (not restart), and
    // the delivered digest must equal the uninterrupted reference.
    let spec = JobSpec::new(1, 8)
        .with_gang(2)
        .with_newton_iters(1)
        .with_betas(&[1e-2, 1e-3])
        .with_checkpoint_every(1);
    let epochs = attempt_epoch_count(&spec, 2);
    let kill_epoch = epochs * 7 / 10;
    let faults = PlannedFaults::new().with(
        1,
        1,
        AttemptFaults { kill_at_epoch: Some((1, kill_epoch)), ..AttemptFaults::none() },
    );
    let harness = ServeHarness::new(ServeConfig::default(), Arc::new(faults));
    harness.submit(spec.clone());
    harness.close_intake();
    let summaries = serve(&harness, 2);
    let rec = &summaries[0].records[&1];
    assert_eq!(rec.state, JobState::Completed);
    assert_eq!(rec.attempts, 2);
    assert_eq!(rec.resumed_attempts, 1, "retry must resume from the checkpoint");
    let res = rec.result.unwrap();
    assert!(res.resumed);
    let (ref_digest, ref_mm) = reference_digest(&spec, 2);
    assert_eq!(res.digest, ref_digest, "resumed solve must be bitwise the uninterrupted one");
    assert_eq!(res.final_mismatch_bits, ref_mm);
    assert_eq!(harness.counter("serve_jobs_recovered_total"), 1);

    // The job log streamed iterations from both attempts, each after its
    // serve-attempt event, and carries the serve-side resume event.
    let log = harness.job_log(1).expect("job log");
    // (attempt, iterations logged after its serve-attempt event)
    let mut attempts: Vec<(usize, usize)> = Vec::new();
    for entry in &log.entries {
        match entry {
            StreamEntry::Event(e) if e.kind == "serve-attempt" => attempts.push((e.iter, 0)),
            StreamEntry::Iter(_) => attempts.last_mut().expect("attempt event first").1 += 1,
            StreamEntry::Event(_) => {}
        }
    }
    assert_eq!(attempts.iter().map(|a| a.0).collect::<Vec<_>>(), [1, 2]);
    assert!(attempts.iter().all(|a| a.1 > 0), "every attempt streamed iterations: {attempts:?}");
    assert!(log.events().any(|e| e.kind == "serve-resume"), "log must record the resume");
}

#[test]
fn torn_checkpoint_falls_back_a_generation_and_still_matches_reference() {
    // Attempt 1 is killed mid-level-1 (several checkpoint generations
    // exist); attempt 2 finds its current generation torn on every rank and
    // must fall back to the previous one — still bitwise-correct.
    let spec = JobSpec::new(1, 8)
        .with_gang(2)
        .with_newton_iters(2)
        .with_betas(&[1e-2, 1e-3])
        .with_checkpoint_every(1);
    let epochs = attempt_epoch_count(&spec, 2);
    let faults = PlannedFaults::new()
        .with(
            1,
            1,
            AttemptFaults {
                kill_at_epoch: Some((0, epochs * 7 / 10)),
                ..AttemptFaults::none()
            },
        )
        .with(1, 2, AttemptFaults { corrupt_checkpoint: true, ..AttemptFaults::none() });
    let harness = ServeHarness::new(ServeConfig::default(), Arc::new(faults));
    harness.submit(spec.clone());
    harness.close_intake();
    let summaries = serve(&harness, 2);
    let rec = &summaries[0].records[&1];
    assert_eq!(rec.state, JobState::Completed);
    assert_eq!(rec.fallbacks, 1, "attempt 2 must have used the previous generation");
    assert_eq!(rec.resumed_attempts, 1);
    let (ref_digest, _) = reference_digest(&spec, 2);
    assert_eq!(rec.result.unwrap().digest, ref_digest);
    assert_eq!(harness.counter("serve_checkpoint_fallback_total"), 1);
    let log = harness.job_log(1).expect("job log");
    assert!(log.events().any(|e| e.kind == "serve-fallback"));
}

#[test]
fn an_attempt_that_resumes_and_dies_keeps_its_gang() {
    // Attempt 1 is killed mid-level-1, after checkpoints exist; attempt 2
    // resumes from them and is killed too, a tenth of the way into a fresh
    // attempt's epochs: past the resume decision, which follows the
    // session and image set-up. A resumed attempt is not a fresh start, so
    // the gang must not halve, and attempt 3 resumes on the same
    // decomposition to the uninterrupted answer.
    let spec = JobSpec::new(1, 8)
        .with_gang(2)
        .with_newton_iters(2)
        .with_betas(&[1e-2, 1e-3])
        .with_checkpoint_every(1);
    let epochs = attempt_epoch_count(&spec, 2);
    let kill =
        |rank, epoch| AttemptFaults { kill_at_epoch: Some((rank, epoch)), ..AttemptFaults::none() };
    let faults =
        PlannedFaults::new().with(1, 1, kill(0, epochs * 7 / 10)).with(1, 2, kill(1, epochs / 10));
    let harness = ServeHarness::new(ServeConfig::default(), Arc::new(faults));
    harness.submit(spec.clone());
    harness.close_intake();
    let summaries = serve(&harness, 2);
    let rec = &summaries[0].records[&1];
    assert_eq!(rec.state, JobState::Completed);
    assert_eq!(rec.attempts, 3);
    assert_eq!(rec.resumed_attempts, 2, "attempts 2 and 3 both resumed");
    assert_eq!(rec.gang_size, 2, "a gang that resumed must not be degraded");
    assert_eq!(harness.counter("serve_jobs_degraded_total"), 0);
    let res = rec.result.unwrap();
    assert_eq!((res.gang_size, res.resumed), (2, true));
    let (ref_digest, ref_mm) = reference_digest(&spec, 2);
    assert_eq!(res.digest, ref_digest, "resumed solve must be bitwise the uninterrupted one");
    assert_eq!(res.final_mismatch_bits, ref_mm);
}

#[test]
fn a_stale_checkpoint_from_a_larger_gang_is_dropped() {
    // Attempt 1 dies before any checkpoint; attempt 2 dies after writing
    // checkpoints without having resumed, so the gang halves. The lone
    // member then finds gang rank 0's slab of the 2-rank decomposition,
    // which does not fit its block: it must drop it and start fresh, and
    // deliver the reference at the degraded gang size.
    let spec = JobSpec::new(1, 8)
        .with_gang(2)
        .with_newton_iters(1)
        .with_betas(&[1e-2, 1e-3])
        .with_checkpoint_every(1);
    let epochs = attempt_epoch_count(&spec, 2);
    let kill =
        |rank, epoch| AttemptFaults { kill_at_epoch: Some((rank, epoch)), ..AttemptFaults::none() };
    let faults = PlannedFaults::new().with(1, 1, kill(0, 2)).with(1, 2, kill(0, epochs * 7 / 10));
    let harness = ServeHarness::new(ServeConfig::default(), Arc::new(faults));
    harness.submit(spec.clone());
    harness.close_intake();
    let summaries = serve(&harness, 2);
    let rec = &summaries[0].records[&1];
    assert_eq!(rec.state, JobState::Completed, "last failure: {:?}", rec.last_failure);
    assert_eq!(rec.attempts, 3);
    assert_eq!(rec.resumed_attempts, 0);
    assert_eq!(rec.gang_size, 1, "two fresh deaths halve the gang");
    let res = rec.result.unwrap();
    assert_eq!(res.gang_size, 1);
    let (ref_digest, ref_mm) = reference_digest(&spec, 1);
    assert_eq!(res.digest, ref_digest, "degraded job must match the reference at gang size 1");
    assert_eq!(res.final_mismatch_bits, ref_mm);
    let log = harness.job_log(1).expect("job log");
    assert!(log.events().any(|e| e.kind == "serve-checkpoint-drop"), "the stale slab is dropped");
    assert!(!log.events().any(|e| e.kind == "serve-resume"));
}

/// Every path under `dir`, directories included (none when `dir` is gone).
fn paths_under(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut paths = Vec::new();
    for path in entries.map(|e| e.unwrap().path()) {
        paths.extend(paths_under(&path));
        paths.push(path);
    }
    paths
}

#[test]
fn a_jobs_checkpoint_slots_end_with_the_job() {
    // Two jobs on a file-backed deployment that would leave slots behind if
    // their stores outlived them. Job 1 halves its gang after two fresh
    // deaths and completes on one rank, so the slots gang rank 1 wrote are
    // not the driver's to clear. Job 2 has no retry budget and is killed
    // after its checkpoints exist, so the driver never clears anything.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("slots-end-with-the-job");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = JobSpec::new(1, 8)
        .with_gang(2)
        .with_newton_iters(1)
        .with_betas(&[1e-2, 1e-3])
        .with_checkpoint_every(1);
    let doomed = JobSpec { id: 2, ..spec.clone() }.with_max_retries(0);
    let late = attempt_epoch_count(&spec, 2) * 7 / 10;
    let kill =
        |rank, epoch| AttemptFaults { kill_at_epoch: Some((rank, epoch)), ..AttemptFaults::none() };
    let faults = PlannedFaults::new().with(1, 1, kill(0, 2)).with(1, 2, kill(0, late));
    let faults = faults.with(2, 1, kill(0, late));
    let cfg = ServeConfig { checkpoint_dir: Some(dir.clone()), ..ServeConfig::default() };
    let harness = ServeHarness::new(cfg, Arc::new(faults));
    harness.submit(spec);
    harness.submit(doomed);
    harness.close_intake();
    let summaries = serve(&harness, 2);
    let records = &summaries[0].records;
    assert_eq!((records[&1].state, records[&1].gang_size), (JobState::Completed, 1));
    assert_eq!(records[&2].state, JobState::Failed);
    let left = paths_under(&dir);
    assert!(left.is_empty(), "slots or job directories outlived their jobs: {left:?}");
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn failed_checkpoint_saves_reach_the_metrics_surface() {
    // The checkpoint directory is a regular file, so every member's every
    // save fails. The job must still complete, and each failed write must
    // show up on the registry `/metrics` renders.
    let blocker = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("not-a-directory");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let cfg = ServeConfig { checkpoint_dir: Some(blocker), ..ServeConfig::default() };
    let harness = ServeHarness::new(cfg, Arc::default());
    harness.submit(quick_job(1, 2).with_newton_iters(2).with_checkpoint_every(1));
    harness.close_intake();
    let summaries = serve(&harness, 2);
    assert_eq!(summaries[0].records[&1].state, JobState::Completed);
    // checkpoint_every = 1: one due save per accepted step per gang member.
    let steps = harness.job_log(1).expect("job log").iterations().count() as u64;
    assert!(steps > 0);
    assert_eq!(harness.counter("serve_checkpoint_save_failures_total"), 2 * steps);
    assert!(harness.render_prometheus().contains("serve_checkpoint_save_failures_total"));
}

#[test]
fn two_tenants_share_the_pool_and_metrics_render_deterministically() {
    let harness = ServeHarness::new(ServeConfig::default(), Arc::default());
    for i in 0..3 {
        harness.submit(quick_job(10 + i, 1).with_tenant("alice"));
        harness.submit(quick_job(20 + i, 1).with_tenant("bob"));
    }
    harness.close_intake();
    let summaries = serve(&harness, 2);
    assert_eq!(summaries[0].count(JobState::Completed), 6);
    let prom = harness.render_prometheus();
    assert!(prom.contains("serve_jobs_completed_total 6"), "{prom}");
    assert!(prom.contains("serve_queue_wait_seconds_p95"), "{prom}");
    assert!(prom.contains("serve_job_e2e_seconds_count 6"), "{prom}");
    assert!(prom.contains("serve_pool_ranks 2"), "{prom}");
}
