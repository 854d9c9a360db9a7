//! The per-thread event ring, re-exported from [`diffreg_comm::ring`] where
//! it lives, and its JSONL codec: a bundle's `recorder-rank<k>.jsonl`, the
//! one file per rank, holding spans, lifecycle events and comm records
//! ([`RecKind::Comm`], carrying a [`CommKey`]) alike.
//!
//! One header line with the window's counters (`thread`, `seen`,
//! `recorded`, `sampled_out`, `overwritten`, `stride`), then one line per
//! retained event, oldest first: `t_ns`, `kind`, `name`, `a`, `b`, and on a
//! comm line only its `key` — `comm`, `csize`, `rank`, `blocked_ns`, plus
//! `peer`/`tag`/`seq` on a p2p record or `epoch` on a collective (the op is
//! the line's name). The comm uid and the tag are lowercase hex strings:
//! uids are full 64-bit hashes and internal tags set bits above 2^53, which
//! a JSON double would round, merging distinct match keys. Every other
//! integer must be exact ([`Json::as_u64`]).

use std::borrow::Cow;
use std::fmt::Write as _;

pub use diffreg_comm::ring::{
    record_event, snapshot_recorder, take_recorder, RecEvent, RecKind, RecorderSnapshot,
};
pub use diffreg_comm::{CommKey, CommOp, StreamPos};

use crate::json::Json;

/// A comm key as the JSON object of its line (the op is the line's name);
/// the Chrome export's `args` of a comm record too.
pub(crate) fn key_to_json(k: &CommKey) -> Json {
    let j = Json::obj()
        .set("comm", format!("{:x}", k.comm))
        .set("csize", k.csize)
        .set("rank", k.rank)
        .set("blocked_ns", k.blocked_ns);
    match k.pos {
        StreamPos::P2p { peer, tag, seq } => {
            j.set("peer", peer).set("tag", format!("{tag:x}")).set("seq", seq)
        }
        StreamPos::Collective { epoch } => j.set("epoch", epoch),
    }
}

/// Inverse of [`key_to_json`] for a record named `name`.
fn key_from_json(name: &str, j: &Json) -> Result<CommKey, String> {
    let op = CommOp::from_name(name).ok_or(format!("unknown comm op \"{name}\""))?;
    let small = |key: &str| usize::try_from(j.uint(key)?).map_err(|e| format!("{key}: {e}"));
    let pos = if op.is_p2p() {
        StreamPos::P2p { peer: small("peer")?, tag: j.hex("tag")?, seq: j.uint("seq")? }
    } else {
        StreamPos::Collective { epoch: j.uint("epoch")? }
    };
    Ok(CommKey {
        op,
        comm: j.hex("comm")?,
        csize: small("csize")?,
        rank: small("rank")?,
        pos,
        blocked_ns: j.uint("blocked_ns")?,
    })
}

/// The `recorder-rank<k>.jsonl` text of `snap`: one header line with the
/// counters, then one line per retained event.
pub(crate) fn recorder_to_jsonl(snap: &RecorderSnapshot) -> String {
    let head = Json::obj()
        .set("type", "recorder")
        .set("thread", snap.thread)
        .set("seen", snap.seen)
        .set("recorded", snap.recorded)
        .set("sampled_out", snap.sampled_out)
        .set("overwritten", snap.overwritten)
        .set("stride", snap.stride);
    let mut out = format!("{head}\n");
    for e in &snap.events {
        let mut line = Json::obj()
            .set("type", "event")
            .set("t_ns", e.t_ns)
            .set("kind", e.kind.name())
            .set("name", &*e.name)
            .set("a", e.a)
            .set("b", e.b);
        if let Some(k) = &e.key {
            line = line.set("key", key_to_json(k));
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Inverse of [`recorder_to_jsonl`]. The header line must come first — a
/// file that lost its head is rejected, not read as an empty window — and a
/// line's key must match its kind.
pub(crate) fn recorder_from_jsonl(text: &str) -> Result<RecorderSnapshot, String> {
    let mut out: Option<RecorderSnapshot> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| format!("line {}: {what}", i + 1);
        let j = Json::parse(line).map_err(|e| at(&e))?;
        let u = |key: &str| j.uint(key).map_err(|e| at(&e));
        let s = |key: &str| {
            j.get(key).and_then(Json::as_str).ok_or_else(|| at(&format!("missing {key}")))
        };
        match (j.get("type").and_then(Json::as_str).unwrap_or(""), out.as_mut()) {
            ("recorder", None) => {
                out = Some(RecorderSnapshot {
                    thread: u("thread")?,
                    events: Vec::new(),
                    seen: u("seen")?,
                    recorded: u("recorded")?,
                    sampled_out: u("sampled_out")?,
                    overwritten: u("overwritten")?,
                    stride: u("stride")?,
                });
            }
            ("event", Some(snap)) => {
                let kind = s("kind")?;
                let kind = RecKind::from_name(kind)
                    .ok_or_else(|| at(&format!("unknown kind \"{kind}\"")))?;
                let name = s("name")?;
                let key = match (kind, j.get("key")) {
                    (RecKind::Comm, Some(k)) => {
                        Some(key_from_json(name, k).map_err(|e| at(&format!("key: {e}")))?)
                    }
                    (RecKind::Comm, None) => return Err(at("comm record without a key")),
                    (_, Some(_)) => return Err(at(&format!("a {} record carries a key", kind.name()))),
                    (_, None) => None,
                };
                snap.events.push(RecEvent {
                    t_ns: u("t_ns")?,
                    kind,
                    name: Cow::Owned(name.to_string()),
                    a: u("a")?,
                    b: u("b")?,
                    key,
                });
            }
            ("recorder", Some(_)) => return Err(at("second recorder header")),
            ("event", None) => return Err(at("event before the recorder header")),
            (other, _) => return Err(at(&format!("unknown type \"{other}\""))),
        }
    }
    out.ok_or("missing recorder header line".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(op: CommOp, comm: u64, pos: StreamPos) -> RecEvent {
        let key = CommKey { op, comm, csize: 4, rank: 1, pos, blocked_ns: 250 };
        RecEvent { t_ns: 100, kind: RecKind::Comm, name: op.name().into(), a: 7, b: 64, key: Some(key) }
    }

    /// A complete window: a barrier at epoch 8 and a send with a tag above
    /// 2^53 on a full-width comm uid.
    fn window() -> RecorderSnapshot {
        let uid = 0xdead_beef_cafe_f00d;
        let events = vec![
            comm(CommOp::Barrier, uid, StreamPos::Collective { epoch: 8 }),
            comm(CommOp::Send, uid, StreamPos::P2p { peer: 3, tag: (1 << 59) | 12, seq: 9 }),
        ];
        RecorderSnapshot { thread: 2, events, seen: 2, recorded: 2, stride: 1, ..Default::default() }
    }

    /// Full-width comm uids and tags above 2^53 survive the file: a double
    /// would round them and merge distinct match keys.
    #[test]
    fn jsonl_roundtrip_preserves_comm_uid_bits() {
        let text = recorder_to_jsonl(&window());
        assert!(text.contains("\"comm\":\"deadbeefcafef00d\""), "{text}");
        assert!(text.contains("\"tag\":\"80000000000000c\""), "{text}");
        assert_eq!(recorder_from_jsonl(&text).unwrap(), window());
    }

    /// A comm line without a key, a key on any other kind, a key that does
    /// not fit its op, and a numeric tag are refused with the line named.
    #[test]
    fn codec_rejects_keys_that_do_not_match_the_kind() {
        let with = |edit: fn(&mut RecEvent)| {
            let mut w = window();
            edit(&mut w.events[0]);
            recorder_to_jsonl(&w)
        };
        let text = recorder_to_jsonl(&window());
        let (barrier, send) = ("\"name\":\"barrier\"", "\"name\":\"send\"");
        for (bad, want) in [
            (with(|e| e.key = None), "line 2: comm record without a key"),
            (with(|e| e.kind = RecKind::Span), "line 2: a span record carries a key"),
            (text.replacen(barrier, "\"name\":\"warp\"", 1), "line 2: key: unknown comm op \"warp\""),
            (text.replacen(barrier, send, 1), "line 2: key: missing peer"),
            (text.replacen(send, barrier, 1), "line 3: key: missing epoch"),
            (text.replace("\"80000000000000c\"", "7"), "line 3: key: tag must be a hex string, found 7"),
        ] {
            let err = recorder_from_jsonl(&bad).unwrap_err();
            assert!(err.contains(want), "{err} — wanted {want}");
        }
    }

    /// Every integer field, the key's included, must be an exact unsigned
    /// integer: `-1`, `1.5` and `1e300` are refused, not read as 0, 1 and
    /// `u64::MAX`.
    #[test]
    fn codec_rejects_inexact_integers() {
        let good = recorder_to_jsonl(&window());
        for key in ["seen", "t_ns", "b", "csize", "epoch", "seq", "blocked_ns"] {
            let at = good.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let digits = good[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
            for bad in ["-1", "1.5", "1e300"] {
                let text = format!("{}{bad}{}", &good[..at], &good[at + digits..]);
                let err = recorder_from_jsonl(&text).unwrap_err();
                assert!(err.contains(key) && err.contains("exact"), "{key}={bad}: {err}");
            }
        }
    }
}
