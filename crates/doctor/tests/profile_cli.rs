//! End-to-end CLI tests for `diffreg-doctor profile`: replay-stable
//! flamegraph bytes and differential attribution of an injected slowdown.

use std::path::{Path, PathBuf};
use std::process::Command;

use diffreg_comm::{CommEvent, CommOp};
use diffreg_telemetry::doctor::{write_trace_bundle, RankCapture};
use diffreg_telemetry::{RecEvent, RecKind, RecorderSnapshot};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_diffreg-doctor")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One synthetic comm event per rank, as a traced run would leave.
fn dummy_event(rank: usize) -> CommEvent {
    CommEvent {
        op: CommOp::Allreduce,
        comm: 0,
        csize: 2,
        rank,
        peer: None,
        tag: None,
        seq: None,
        bytes: 64,
        epoch: Some(0),
        t0_ns: 0,
        t1_ns: 1_000,
        blocked_ns: 0,
    }
}

/// One rank's capture: a complete keep-all window holding the given
/// `(name, t0_ns, dur_ns, depth)` spans (close order: children first) and
/// one comm event.
fn rank_capture(rank: usize, spans: &[(&'static str, u64, u64, u64)]) -> RankCapture {
    let events: Vec<RecEvent> = spans
        .iter()
        .map(|&(name, t_ns, a, b)| RecEvent { t_ns, kind: RecKind::Span, name: name.into(), a, b })
        .collect();
    let n = events.len() as u64;
    RankCapture {
        rank,
        events: vec![dummy_event(rank)],
        recorder: RecorderSnapshot {
            thread: rank as u64,
            events,
            seen: n,
            recorded: n,
            stride: 1,
            ..Default::default()
        },
    }
}

/// A two-rank trace bundle whose `transport.semilag` spans are `slow`×
/// longer than the baseline's. The reader takes spans from the recorder
/// files at nanosecond resolution, so durations need not be whole
/// microseconds.
fn write_bundle(dir: &Path, slow: u64) {
    let us = 1_000u64;
    let spans = [
        ("fft.forward", 10 * us, 100 * us + 1, 1),
        ("transport.semilag", 120 * us, 200 * us * slow + 7, 1),
        ("newton.step", 0, (400 + 200 * (slow - 1)) * us + 9, 0),
    ];
    let captures = [rank_capture(0, &spans), rank_capture(1, &spans)];
    write_trace_bundle(dir, &captures, None).expect("write bundle");
}

fn run_profile(args: &[&str]) -> (String, bool) {
    let out = Command::new(bin()).args(args).output().expect("run diffreg-doctor");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    (stdout, out.status.success())
}

#[test]
fn profile_folded_is_byte_identical_across_invocations() {
    let dir = scratch("profile-replay");
    write_bundle(&dir, 1);
    let (_, ok) = run_profile(&["profile", "--dir", dir.to_str().unwrap()]);
    assert!(ok, "first profile run failed");
    let first = std::fs::read(dir.join("profile.folded")).expect("read folded");
    let (_, ok) = run_profile(&["profile", "--dir", dir.to_str().unwrap()]);
    assert!(ok, "second profile run failed");
    let second = std::fs::read(dir.join("profile.folded")).expect("read folded");
    assert_eq!(first, second, "count projection must be byte-identical");
    let text = String::from_utf8(first).expect("utf8");
    // Nesting recovered: the semilag span sits under newton.step per rank.
    assert!(
        text.contains("rank0;newton.step;transport.semilag 1"),
        "stack lines present:\n{text}"
    );
    assert!(text.contains("rank1;newton.step;fft.forward 1"), "{text}");
    assert!(text.ends_with("[dropped] 0\n"), "dropped accounting present:\n{text}");
}

#[test]
fn replayed_bundles_with_different_wall_clocks_fold_identically() {
    // Two "replays": the same span sequence shifted in time. The canonical
    // projection must not see the difference.
    let a = scratch("profile-replay-a");
    let b = scratch("profile-replay-b");
    write_bundle(&a, 1);
    let us = 1_000u64;
    let shifted = [
        rank_capture(
            0,
            &[
                ("fft.forward", 5_010 * us, 170 * us, 1),
                ("transport.semilag", 5_200 * us, 130 * us, 1),
                ("newton.step", 5_000 * us, 777 * us, 0),
            ],
        ),
        rank_capture(
            1,
            &[
                ("fft.forward", 9_010 * us, 42 * us, 1),
                ("transport.semilag", 9_100 * us, 260 * us, 1),
                ("newton.step", 9_000 * us, 500 * us, 0),
            ],
        ),
    ];
    write_trace_bundle(&b, &shifted, None).expect("write shifted bundle");
    let (_, ok) = run_profile(&["profile", "--dir", a.to_str().unwrap()]);
    assert!(ok);
    let (_, ok) = run_profile(&["profile", "--dir", b.to_str().unwrap()]);
    assert!(ok);
    let fa = std::fs::read(a.join("profile.folded")).expect("read a");
    let fb = std::fs::read(b.join("profile.folded")).expect("read b");
    assert_eq!(fa, fb, "timestamp-free projection ignores wall clocks");
}

#[test]
fn differential_ranks_injected_slowdown_first() {
    let base = scratch("profile-base");
    let slow = scratch("profile-slow");
    write_bundle(&base, 1);
    write_bundle(&slow, 10); // transport.semilag 10x slower
    let (stdout, ok) = run_profile(&[
        "profile",
        "--dir",
        slow.to_str().unwrap(),
        "--baseline",
        base.to_str().unwrap(),
        "--top",
        "5",
    ]);
    assert!(ok, "differential profile run failed:\n{stdout}");
    let diff_text =
        std::fs::read_to_string(slow.join("profile-diff.txt")).expect("read profile-diff.txt");
    let first_row = diff_text.lines().nth(1).unwrap_or("");
    assert!(
        first_row.starts_with("transport.semilag"),
        "slowed phase must rank first:\n{diff_text}\nstdout:\n{stdout}"
    );
    assert!(stdout.contains("ranked by self-time regression"), "{stdout}");
}
