//! End-to-end tests for the `diffreg-doctor incident` subcommand: the happy
//! path over a real bundle on disk, and the typed non-panicking failure
//! modes (missing bundle, truncated file) with their messages pinned.

use std::path::PathBuf;
use std::process::Command;

use diffreg_telemetry::doctor::RankCapture;
use diffreg_telemetry::incident::{write_incident_bundle, IncidentContext, IncidentTrigger};
use diffreg_telemetry::recorder::{CommKey, CommOp, RecEvent, RecKind, RecorderSnapshot, StreamPos};

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
    let rec = |rank: usize, t_ns: u64, reason: u64| {
        let pos = StreamPos::Collective { epoch: 3 };
        let key = CommKey { op: CommOp::Barrier, comm: 0x10, csize: 2, rank, pos, blocked_ns: 500_000 };
        let name = "barrier".into();
        let barrier = RecEvent { t_ns, kind: RecKind::Comm, name, a: 1_000_000, b: 0, key: Some(key) };
        let name = "serve.attempt-failed".into();
        let failed = RecEvent { t_ns: 9_000_000, kind: RecKind::Serve, name, a: reason, b: 0, key: None };
        let events = vec![barrier, failed];
        RecorderSnapshot { thread: 0, events, seen: 2, recorded: 2, stride: 1, ..Default::default() }
    };
    let captures = vec![
        RankCapture { rank: 0, recorder: rec(0, 0, 1) },
        RankCapture { rank: 1, recorder: rec(1, 100, 2) },
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
    // Move a captured barrier to another epoch: the digest check must
    // refuse the bundle.
    let events = dir.join("recorder-rank0.jsonl");
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
