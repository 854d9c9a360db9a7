//! End-to-end tests for the `diffreg-doctor incident` subcommand: the happy
//! path over a real bundle on disk, and the typed non-panicking failure
//! modes (missing bundle, truncated file) with their messages pinned.

use std::path::PathBuf;
use std::process::Command;

use diffreg_comm::{CommEvent, CommOp};
use diffreg_telemetry::doctor::RankCapture;
use diffreg_telemetry::incident::{write_incident_bundle, IncidentContext, IncidentTrigger};
use diffreg_telemetry::recorder::{RecEvent, RecKind, RecorderSnapshot};

fn doctor() -> Command {
    Command::new(env!("CARGO_BIN_EXE_diffreg-doctor"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diffreg-doctor-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A minimal two-rank capture: a completed gang barrier plus each rank's
/// recorded failure reason, enough for triage to name a culprit.
fn write_test_bundle(base: &PathBuf) -> PathBuf {
    let ev = |rank: usize, t0: u64| CommEvent {
        op: CommOp::Barrier,
        comm: 0x10,
        csize: 2,
        rank,
        peer: None,
        tag: None,
        seq: None,
        bytes: 0,
        epoch: Some(3),
        t0_ns: t0,
        t1_ns: t0 + 1_000_000,
        blocked_ns: 500_000,
    };
    let rec = |reason: u64| RecorderSnapshot {
        thread: 0,
        events: vec![RecEvent {
            t_ns: 9_000_000,
            kind: RecKind::Serve,
            name: "serve.attempt-failed".into(),
            a: reason,
            b: 0,
        }],
        seen: 1,
        recorded: 1,
        sampled_out: 0,
        overwritten: 0,
        stride: 1,
    };
    let captures = vec![
        RankCapture { rank: 0, events: vec![ev(0, 0)], recorder: rec(1) },
        RankCapture { rank: 1, events: vec![ev(1, 100)], recorder: rec(2) },
    ];
    let header = IncidentContext {
        seq: 0,
        trigger: IncidentTrigger::AttemptFailure,
        job: 7,
        attempt: 1,
        round: 2,
        tenant: "cli".to_string(),
        reason: "kill".to_string(),
        detail: "cli test".to_string(),
        gang_ranks: vec![0, 1],
        slo_firing: Vec::new(),
    };
    write_incident_bundle(base, header, &captures, None, None).unwrap()
}

#[test]
fn incident_subcommand_analyzes_and_gates_a_real_bundle() {
    let base = scratch("ok");
    let dir = write_test_bundle(&base);
    let out = doctor()
        .args(["incident", "--dir", dir.to_str().unwrap(), "--gate"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("incident #000: attempt-failure"), "{stdout}");
    assert!(stdout.contains("verified against files"), "{stdout}");
    assert!(stdout.contains("culprit: gang rank 0"), "{stdout}");
    assert!(stdout.contains("gate ok"), "{stdout}");
    assert!(dir.join("incident-report.txt").is_file());
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn incident_subcommand_fails_typed_on_missing_bundle() {
    let base = scratch("missing");
    let dir = base.join("no-such-incident");
    let out = doctor().args(["incident", "--dir", dir.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "missing bundle must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!(
            "no incident bundle at {} (missing incident.json)",
            dir.display()
        )),
        "stderr:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn incident_subcommand_fails_typed_on_truncated_bundle() {
    let base = scratch("truncated");
    let dir = write_test_bundle(&base);
    // Truncate the header mid-object: still present, no longer parseable.
    let header = dir.join("incident.json");
    let text = std::fs::read_to_string(&header).unwrap();
    std::fs::write(&header, &text[..text.len() / 2]).unwrap();
    let out = doctor().args(["incident", "--dir", dir.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "truncated bundle must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("is truncated or malformed"),
        "stderr:\n{stderr}"
    );
    assert!(stderr.contains("incident.json"), "stderr:\n{stderr}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn incident_subcommand_fails_typed_on_tampered_capture() {
    let base = scratch("tampered");
    let dir = write_test_bundle(&base);
    // Flip a captured byte count: the digest check must refuse the bundle.
    let events = dir.join("events-rank0.jsonl");
    let text = std::fs::read_to_string(&events).unwrap();
    assert!(text.contains("\"epoch\":3"), "{text}");
    std::fs::write(&events, text.replacen("\"epoch\":3", "\"epoch\":4", 1)).unwrap();
    let out = doctor()
        .args(["incident", "--dir", dir.to_str().unwrap(), "--gate"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "tampered bundle must fail the gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gate failed"), "stderr:\n{stderr}");
    let _ = std::fs::remove_dir_all(&base);
}
