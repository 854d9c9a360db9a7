//! Property tests for the one bundle reader under hostile input, and for
//! the event ring's disk round trip in both of its modes.
//!
//! One file of a valid incident bundle is damaged (truncated, one bit
//! flipped, lines shuffled, emptied, or its `type` / schema tag replaced)
//! and the bundle is loaded again. The reader must not panic or hang; it
//! answers with a typed error naming the damaged file, or with a bundle the
//! gate refuses — or the damage missed everything the gate certifies (a
//! timestamp, a digit of a thread index), and then the capture digest is
//! provably the original one.

use std::path::PathBuf;

use diffreg_comm::{run_threaded, Comm};
use diffreg_telemetry::doctor::{write_trace_bundle, BundleError, DoctorInput, RankCapture};
use diffreg_telemetry::incident::{
    analyze_incident, gate_incident, load_incident_bundle, write_incident_bundle, IncidentHeader,
};
use diffreg_telemetry::{
    record_event, set_trace_enabled, span, take_recorder, with_span, Json, RecEvent, RecKind,
};
use diffreg_testkit::{prop_check, Rng};

/// Span and event names the JSON layer must carry unharmed.
const NAMES: [&str; 5] = ["fft.forward", "q\"uote", "back\\slash\\", "é中\u{1F600}", " \t"];

const HEADER: &str = r#"{"schema":"diffreg-incident-v1","seq":1,"trigger":"gang-degraded","job":5,
    "attempt":2,"round":17,"tenant":"q\"é","reason":"kill","detail":"fuzz","gang_ranks":[2,3],
    "slo_firing":[],"capture":{"comm_events":0,"rec_seen":0,"rec_recorded":0,"rec_sampled_out":0,
    "rec_overwritten":0,"convergence_entries":0,"convergence_evicted":0,"digest":"0"}}"#;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diffreg-bundle-props-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Damages `bytes` in one of five ways; always returns something different.
fn damage(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(bytes).to_string();
    let out = match rng.index(5) {
        0 => bytes[..rng.index(bytes.len())].to_vec(),
        1 => {
            let mut b = bytes.to_vec();
            b[rng.index(bytes.len())] ^= 1 << rng.index(8);
            b
        }
        2 => {
            let mut lines: Vec<&str> = text.lines().collect();
            let by = 1 + rng.index(lines.len());
            lines.rotate_left(by);
            (lines.join("\n") + "\n").into_bytes()
        }
        3 => Vec::new(),
        _ => text
            .replace("\"type\":\"comm\"", "\"type\":\"span\"")
            .replace("\"type\":\"event\"", "\"type\":\"comm\"")
            .replace("diffreg-incident-v1", "diffreg-incident-v0")
            .into_bytes(),
    };
    if out == bytes { Vec::new() } else { out }
}

#[test]
fn damaged_bundle_files_are_refused_with_a_typed_error_or_by_the_gate() {
    // A real two-rank capture: comm events of both kinds, spans and
    // lifecycle events with hostile names.
    let captures = run_threaded(2, |comm| {
        comm.set_event_recording(true);
        for (i, name) in NAMES.iter().enumerate() {
            with_span(name, || comm.sum_f64(1.0));
            comm.send(1 - comm.rank(), i as u64, vec![i as f64]);
            let _: Vec<f64> = comm.recv(1 - comm.rank(), i as u64);
            record_event(RecKind::Serve, name, i as u64, 7);
        }
        RankCapture { rank: comm.rank(), events: comm.take_events(), recorder: take_recorder() }
    });
    let header = IncidentHeader::from_json(&Json::parse(HEADER).unwrap()).unwrap();
    let base = scratch("damage");
    let dir = write_incident_bundle(&base, header.context, &captures, None, None).expect("write bundle");
    let original = load_incident_bundle(&dir).expect("the valid bundle loads");
    gate_incident(&original, &analyze_incident(&original)).expect("and gates");
    let o = &original.header;

    let files = ["incident.json", "events-rank0.jsonl", "events-rank1.jsonl", "recorder-rank0.jsonl", "recorder-rank1.jsonl"];
    prop_check!(cases = 256, |rng| {
        let target = files[rng.index(files.len())];
        let pristine = std::fs::read(dir.join(target)).expect("read target");
        std::fs::write(dir.join(target), damage(rng, &pristine)).expect("write damage");
        let loaded = load_incident_bundle(&dir);
        std::fs::write(dir.join(target), &pristine).expect("restore");
        match loaded {
            Err(BundleError::Truncated { file, .. }) => assert_eq!(file, target),
            Err(BundleError::MissingBundle(_)) => panic!("{target} exists"),
            Ok(bundle) => {
                let analysis = analyze_incident(&bundle);
                if gate_incident(&bundle, &analysis).is_ok() {
                    let h = &bundle.header;
                    assert_eq!(
                        (analysis.recomputed_digest, h.capture_digest, h.comm_events),
                        (o.capture_digest, o.capture_digest, o.comm_events),
                        "the gate certified an altered capture after damaging {target}"
                    );
                }
            }
        }
    });
    let _ = std::fs::remove_dir_all(&base);
}

/// `read(write(snapshot)) == snapshot` for windows the ring itself produced,
/// sampled and keep-all, with hostile names.
#[test]
fn ring_windows_round_trip_through_a_bundle_in_both_modes() {
    let base = scratch("roundtrip");
    prop_check!(|rng| {
        let keep_all = rng.chance(0.5);
        let picks: Vec<usize> = (0..rng.len_scaled(1, 6000)).map(|_| rng.index(NAMES.len())).collect();
        set_trace_enabled(keep_all);
        let snap = std::thread::spawn(move || {
            for (i, &p) in picks.iter().enumerate() {
                let mut outer = span(NAMES[p]);
                outer.count(i as u64 + 1);
                drop(span(NAMES[(p + 1) % NAMES.len()]));
                drop(outer);
                if i % 64 == 0 {
                    record_event(RecKind::Mark, NAMES[p], i as u64, p as u64);
                }
            }
            take_recorder()
        })
        .join()
        .expect("ring thread");
        set_trace_enabled(false);
        assert_eq!(snap.seen, snap.recorded + snap.sampled_out);
        assert_eq!(snap.events.len() as u64, snap.recorded - snap.overwritten);
        if keep_all {
            assert_eq!((snap.sampled_out, snap.stride), (0, 1));
        }
        let counted = |e: &RecEvent| e.kind == RecKind::Span && e.b > 0;
        assert!(snap.events.iter().any(counted), "spans carry their counts");

        let captures = [RankCapture { rank: 3, events: Vec::new(), recorder: snap }];
        write_trace_bundle(&base, &captures, None).expect("write bundle");
        assert_eq!(DoctorInput::load_dir(&base).expect("load bundle").ranks, captures);
    });
    let _ = std::fs::remove_dir_all(&base);
}
