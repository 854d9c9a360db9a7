//! Incident-drill acceptance (ISSUE 8): a seeded chaos campaign on a
//! 4-rank pool must emit exactly the expected incident bundles, every
//! bundle must load, triage, and gate cleanly through the doctor-side
//! analyzer, and the deterministic bundle core (`incident.json`,
//! `convergence.jsonl`) must be byte-identical across two runs.
//!
//! The campaign is hand-built so each trigger class fires a known number
//! of times:
//!
//! | job | tenant     | fault plan                       | incidents           |
//! |-----|------------|----------------------------------|---------------------|
//! | 1   | `core`     | kill gang rank 0 at ~70% epochs  | attempt-failure     |
//! | 2   | `core`     | gang rank 1 stalls past watchdog | watchdog-timeout    |
//! | 3   | `core`     | kill, then torn checkpoint       | attempt-failure + checkpoint-fallback |
//! | 4   | `core`     | two fresh kills (no checkpoint)  | attempt-failure ×2 + gang-degraded |
//! | 5   | `deadline` | none; 1-round deadline in queue  | deadline-expiry     |
//! | 6   | `flaky`    | fresh kill, zero retries         | attempt-failure     |
//!
//! plus one `slo-burn-rate` each for tenants `deadline` and `flaky`
//! (success-rate budget burned at 10× against a 2× threshold), for
//! **11 bundles total**. The watchdog bundle's triage must name the
//! stalled gang rank, and the kill bundle's triage the killed rank.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use diffreg_comm::run_threaded;
use diffreg_serve::{
    attempt_epoch_count, AttemptFaults, FaultInjector, IncidentRecord, JobId, JobSpec,
    JobState, PlannedFaults, ServeConfig, ServeHarness, ServeSummary, SloPolicy,
};
use diffreg_telemetry::incident::{
    analyze_incident, gate_incident, load_incident_bundle, IncidentTrigger,
};

/// SLO policy for the drill: latency objectives that cannot breach, a 90%
/// success target, and short windows so the success-rate alert fires the
/// round the budget burns and resolves before the campaign ends.
fn drill_policy() -> SloPolicy {
    SloPolicy {
        queue_wait_rounds: 1000,
        latency_rounds: 1000,
        success_target_milli: 900,
        fast_window: 4,
        slow_window: 8,
        burn_threshold_milli: 2000,
    }
}

struct Drill {
    specs: Vec<JobSpec>,
    faults: PlannedFaults,
}

/// Builds the six-job drill campaign at grid `n`.
fn build_drill(n: usize, stall_ms: u64) -> Drill {
    let ckpt = JobSpec::new(0, n)
        .with_gang(2)
        .with_newton_iters(1)
        .with_betas(&[1e-2, 1e-3])
        .with_checkpoint_every(1)
        .with_amplitude(0.3);
    // ~70% of a fresh attempt lands inside the second continuation level:
    // checkpoints exist and have not yet been cleared.
    let kill_epoch = attempt_epoch_count(&ckpt, 2) * 7 / 10;

    let mut specs = Vec::new();
    let mut faults = PlannedFaults::new();

    // Job 1: checkpointed kill → resume. Gang rank 0 dies; the triage must
    // name it from its own recorded failure reason.
    let mut s = ckpt.clone();
    s.id = 1;
    specs.push(s.with_tenant("core"));
    faults.insert(
        1,
        1,
        AttemptFaults { kill_at_epoch: Some((0, kill_epoch)), ..AttemptFaults::none() },
    );

    // Job 2: gang rank 1 stalls past the watchdog; rank 0 times out, the
    // stalled rank wakes to dead peers. Triage must name gang rank 1.
    specs.push(
        JobSpec::new(2, n).with_gang(2).with_newton_iters(1).with_amplitude(0.4).with_tenant("core"),
    );
    faults.insert(
        2,
        1,
        AttemptFaults { stall_at_epoch: Some((1, 5, stall_ms)), ..AttemptFaults::none() },
    );

    // Job 3: kill, then a torn checkpoint on the retry → generation
    // fallback (a *successful* attempt that still files an incident).
    let mut s = ckpt.clone().with_amplitude(0.35);
    s.id = 3;
    specs.push(s.with_tenant("core"));
    faults.insert(
        3,
        1,
        AttemptFaults { kill_at_epoch: Some((0, kill_epoch)), ..AttemptFaults::none() },
    );
    faults.insert(3, 2, AttemptFaults { corrupt_checkpoint: true, ..AttemptFaults::none() });

    // Job 4: two fresh kills without a checkpoint → gang degradation
    // (after two fresh failures), third attempt succeeds on the halved gang.
    specs.push(
        JobSpec::new(4, n).with_gang(2).with_newton_iters(1).with_amplitude(0.5).with_tenant("core"),
    );
    for attempt in 1..=2 {
        faults.insert(
            4,
            attempt,
            AttemptFaults { kill_at_epoch: Some((0, 2)), ..AttemptFaults::none() },
        );
    }

    // Job 5: expires in the queue — round 0 is fully packed by jobs 1+2,
    // so the round-1 deadline sweep fires before it ever runs. Its bundle
    // is header-only (no attempt, nothing staged).
    specs.push(
        JobSpec::new(5, n)
            .with_gang(1)
            .with_newton_iters(1)
            .with_deadline_rounds(1)
            .with_tenant("deadline"),
    );

    // Job 6: fresh kill with a zero retry budget → Failed terminal state.
    specs.push(
        JobSpec::new(6, n)
            .with_gang(1)
            .with_newton_iters(1)
            .with_max_retries(0)
            .with_tenant("flaky"),
    );
    faults.insert(6, 1, AttemptFaults { kill_at_epoch: Some((0, 2)), ..AttemptFaults::none() });

    Drill { specs, faults }
}

fn run_drill(d: &Drill, incident_dir: &Path) -> (ServeSummary, ServeHarness) {
    let cfg = ServeConfig {
        watchdog: Some(Duration::from_millis(400)),
        incident_dir: Some(incident_dir.to_path_buf()),
        slo: Some(drill_policy()),
        ..ServeConfig::default()
    };
    // PlannedFaults is not Clone; rebuild by re-querying the plan.
    let mut faults = PlannedFaults::new();
    for spec in &d.specs {
        for attempt in 1..=4u32 {
            let f = d.faults.faults(spec.id, attempt);
            if !f.is_clean() {
                faults.insert(spec.id, attempt, f);
            }
        }
    }
    let harness = ServeHarness::new(cfg, Arc::new(faults));
    for spec in &d.specs {
        harness.submit(spec.clone());
    }
    harness.close_intake();
    let h = harness.clone();
    let summaries = run_threaded(4, move |world| {
        world.set_timeout(Some(Duration::from_secs(300)));
        h.serve_pool(world)
    });
    for (r, s) in summaries.iter().enumerate() {
        assert_eq!(*s, summaries[0], "pool rank {r} diverged from rank 0");
    }
    (summaries[0].clone(), harness)
}

fn trigger_count(s: &ServeSummary, t: IncidentTrigger) -> usize {
    s.incidents.iter().filter(|i| i.trigger == t).count()
}

fn bundle_dir(base: &Path, rec: &IncidentRecord) -> PathBuf {
    base.join(format!("incident-{:03}-{}", rec.seq, rec.trigger.name()))
}

/// The drill proper: exact trigger counts, every bundle gated, triage
/// culprits named, and a byte-identical replay of the deterministic core.
#[test]
fn chaos_drill_emits_expected_gated_bundles_and_replays_byte_identically() {
    // Left on disk: scripts/ci.sh re-gates every run1 bundle through the
    // diffreg-doctor CLI after the test passes.
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("incident-drill");
    let _ = std::fs::remove_dir_all(&base);
    let run1 = base.join("run1");
    let run2 = base.join("run2");

    let d = build_drill(8, 1500);
    let (s1, h1) = run_drill(&d, &run1);
    let (s2, _h2) = run_drill(&d, &run2);
    assert_eq!(s1, s2, "incident drill must replay deterministically");

    // Terminal states: jobs 1–4 complete, 5 expires in queue, 6 fails out.
    assert_eq!(s1.count(JobState::Completed), 4);
    assert_eq!(s1.count(JobState::Expired), 1);
    assert_eq!(s1.count(JobState::Failed), 1);

    // Exact trigger census — 11 incidents, 11 bundles.
    assert_eq!(trigger_count(&s1, IncidentTrigger::AttemptFailure), 5, "{:?}", s1.incidents);
    assert_eq!(trigger_count(&s1, IncidentTrigger::WatchdogTimeout), 1);
    assert_eq!(trigger_count(&s1, IncidentTrigger::CheckpointFallback), 1);
    assert_eq!(trigger_count(&s1, IncidentTrigger::GangDegraded), 1);
    assert_eq!(trigger_count(&s1, IncidentTrigger::DeadlineExpiry), 1);
    assert_eq!(trigger_count(&s1, IncidentTrigger::SloBurnRate), 2);
    assert_eq!(s1.incidents.len(), 11);
    assert_eq!(h1.counter("serve_incidents_total{trigger=\"attempt-failure\"}"), 5);
    assert_eq!(h1.counter("serve_incident_write_errors_total"), 0);

    for (label, dir) in [("run1", &run1), ("run2", &run2)] {
        let mut entries: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        entries.sort();
        assert_eq!(entries.len(), 11, "{label}: expected 11 bundles, got {entries:?}");
    }

    // Both tenants with a burned success budget alert exactly once.
    let slo_tenants: Vec<&str> = s1
        .incidents
        .iter()
        .filter(|i| i.trigger == IncidentTrigger::SloBurnRate)
        .map(|i| i.reason.as_str())
        .collect();
    assert_eq!(slo_tenants, ["slo", "slo"]);
    assert!(
        s1.slo_alerts.iter().any(|l| l.contains("deadline/success-rate") && l.contains("FIRING")),
        "missing deadline tenant alert in {:?}",
        s1.slo_alerts
    );
    assert!(
        s1.slo_alerts.iter().any(|l| l.contains("flaky/success-rate") && l.contains("FIRING")),
        "missing flaky tenant alert in {:?}",
        s1.slo_alerts
    );
    assert_ne!(s1.slo_digest, 0);

    // Every bundle loads, analyzes, and passes the doctor gate; the
    // deterministic core is byte-identical across the two runs.
    for rec in &s1.incidents {
        let dir1 = bundle_dir(&run1, rec);
        let dir2 = bundle_dir(&run2, rec);
        for dir in [&dir1, &dir2] {
            let bundle = load_incident_bundle(dir)
                .unwrap_or_else(|e| panic!("load {}: {e}", dir.display()));
            let analysis = analyze_incident(&bundle);
            gate_incident(&bundle, &analysis)
                .unwrap_or_else(|e| panic!("gate {}: {e}", dir.display()));
            assert!(
                analysis.summary.contains(rec.trigger.name()),
                "triage summary must name the trigger:\n{}",
                analysis.summary
            );
        }
        for file in ["incident.json", "convergence.jsonl"] {
            let p1 = dir1.join(file);
            if !p1.exists() {
                continue; // header-only bundles carry no convergence tail
            }
            let b1 = std::fs::read(&p1).unwrap();
            let b2 = std::fs::read(dir2.join(file)).unwrap();
            assert_eq!(b1, b2, "{} differs between runs for {:?}", file, rec);
        }
    }

    // Triage attribution: the watchdog incident names the stalled gang
    // rank (1), the checkpointed kill names the killed gang rank (0).
    let watchdog = s1
        .incidents
        .iter()
        .find(|i| i.trigger == IncidentTrigger::WatchdogTimeout)
        .expect("watchdog incident");
    assert_eq!(watchdog.job, 2);
    assert_eq!(watchdog.reason, "timeout");
    let bundle = load_incident_bundle(bundle_dir(&run1, watchdog)).unwrap();
    let analysis = analyze_incident(&bundle);
    let culprit = analysis.culprit.expect("watchdog triage must name a culprit");
    assert_eq!(culprit.rank, 1, "stalled gang rank: {}", culprit.detail);

    let kill = s1
        .incidents
        .iter()
        .find(|i| i.trigger == IncidentTrigger::AttemptFailure && i.job == 1)
        .expect("job-1 kill incident");
    assert_eq!(kill.reason, "kill");
    let bundle = load_incident_bundle(bundle_dir(&run1, kill)).unwrap();
    let analysis = analyze_incident(&bundle);
    let culprit = analysis.culprit.expect("kill triage must name a culprit");
    assert_eq!(culprit.rank, 0, "killed gang rank: {}", culprit.detail);
    assert!(culprit.detail.contains("kill"), "detail: {}", culprit.detail);

    // The header-only deadline bundle still gates (no culprit demanded).
    let expiry = s1
        .incidents
        .iter()
        .find(|i| i.trigger == IncidentTrigger::DeadlineExpiry)
        .expect("deadline incident");
    assert_eq!(expiry.job, 5);
    let bundle = load_incident_bundle(bundle_dir(&run1, expiry)).unwrap();
    assert!(bundle.input.ranks.iter().all(|c| c.recorder.comm_records().next().is_none()));
    let analysis = analyze_incident(&bundle);
    gate_incident(&bundle, &analysis).unwrap();
}

/// Cross-rank SLO fold determinism (satellite): the same campaign on 2-,
/// 4-, and 6-rank pools must produce, within each pool size, an identical
/// alert log and state digest on every rank, twice over.
#[test]
fn slo_alert_state_is_identical_across_ranks_and_replays() {
    let policy = SloPolicy {
        queue_wait_rounds: 1000,
        latency_rounds: 1000,
        success_target_milli: 900,
        fast_window: 2,
        slow_window: 4,
        burn_threshold_milli: 2000,
    };

    let run = |pool: usize| -> ServeSummary {
        let mut faults = PlannedFaults::new();
        faults.insert(2, 1, AttemptFaults { kill_at_epoch: Some((0, 2)), ..AttemptFaults::none() });
        let harness = ServeHarness::new(
            ServeConfig { slo: Some(policy.clone()), ..ServeConfig::default() },
            Arc::new(faults),
        );
        for id in 1..=4u64 {
            let tenant = if id == 2 { "flaky" } else { "steady" };
            let gang = if id % 2 == 0 { 1 } else { 2 };
            harness.submit(
                JobSpec::new(id as JobId, 8)
                    .with_gang(gang)
                    .with_newton_iters(1)
                    .with_max_retries(if id == 2 { 0 } else { 3 })
                    .with_tenant(tenant),
            );
        }
        harness.close_intake();
        let h = harness.clone();
        let summaries = run_threaded(pool, move |world| {
            world.set_timeout(Some(Duration::from_secs(120)));
            h.serve_pool(world)
        });
        for (r, s) in summaries.iter().enumerate() {
            assert_eq!(
                (s.slo_digest, &s.slo_alerts, &s.incidents),
                (summaries[0].slo_digest, &summaries[0].slo_alerts, &summaries[0].incidents),
                "pool {pool} rank {r}: SLO state diverged"
            );
            assert_eq!(*s, summaries[0], "pool {pool} rank {r} diverged");
        }
        summaries[0].clone()
    };

    let mut digests = BTreeMap::new();
    for pool in [2usize, 4, 6] {
        let a = run(pool);
        let b = run(pool);
        assert_eq!(a, b, "pool {pool}: replay diverged");
        assert_ne!(a.slo_digest, 0, "pool {pool}: SLO engine never observed anything");
        assert!(
            a.slo_alerts.iter().any(|l| l.contains("flaky/success-rate") && l.contains("FIRING")),
            "pool {pool}: flaky tenant never alerted: {:?}",
            a.slo_alerts
        );
        digests.insert(pool, a.slo_digest);
    }
    // Different pool sizes may legally schedule differently; the digest per
    // pool size is pinned by the replay assertion above.
    assert_eq!(digests.len(), 3);
}
