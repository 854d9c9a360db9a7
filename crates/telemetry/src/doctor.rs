//! Cross-rank wait-state doctor: merges every rank's comm event stream and
//! span trace, matches point-to-point sends to receives, groups collectives
//! by epoch, classifies wait states Scalasca-style, walks the cross-rank
//! critical path, and renders a deterministic report + Prometheus snapshot.
//!
//! ## Inputs
//!
//! A *bundle* directory written by [`write_trace_bundle`] and read back by
//! [`DoctorInput::load_dir`], the one bundle reader:
//!
//! * `events-rank<k>.jsonl` — rank `k`'s compact comm event stream, one JSON
//!   object per line (schema below); absent for a rank that recorded none.
//! * `recorder-rank<k>.jsonl` — rank `k`'s event ring
//!   ([`RecorderSnapshot`]): one header line with the exact drop accounting,
//!   then one line per retained event. Its span events give the doctor its
//!   phase attribution, to the nanosecond.
//! * `metrics.json` — optional [`MetricsRegistry`] snapshot (e.g. interp
//!   scatter sizes recorded during the run).
//! * `trace.json` — the Chrome trace of the same capture
//!   ([`crate::chrome_trace`]) for Perfetto. Write-only: nothing reads it
//!   back.
//!
//! An incident bundle (see [`crate::incident`]) is the same files plus
//! `incident.json` and `convergence.jsonl`.
//!
//! ## Event JSONL schema (one object per line)
//!
//! ```json
//! {"type":"comm","op":"send","comm":"0","csize":4,"rank":0,"peer":1,
//!  "tag":7,"seq":0,"bytes":128,"t0_ns":12345,"t1_ns":23456,"blocked_ns":0}
//! ```
//!
//! `comm` is the communicator uid in lowercase hex (a string, because uids
//! are full 64-bit hashes and JSON numbers are doubles); `epoch` appears on
//! collectives, `peer`/`tag`/`seq` on p2p events.
//!
//! ## Matching
//!
//! P2p events match on the key `(comm, src, dst, tag, seq)` — exact, because
//! channels are FIFO per `(src, dst)` pair and the pending queue preserves
//! per-tag order, so the n-th send on a stream is the n-th receive.
//! Collective records group on `(comm, op, epoch)`; a group is complete when
//! all `csize` member records arrived.
//!
//! ## Wait-state classification (after Scalasca's wait-state taxonomy)
//!
//! * **late-sender** — a receive blocked because the matching send finished
//!   after the receive started: wait = `min(send.t1, recv.t1) − recv.t0`.
//! * **wait-at-collective** — a member entered a collective before the last
//!   arrival: wait = `last_arrival.t0 − member.t0` (clamped to the member's
//!   own interval), culprit = the latest-arriving rank.
//! * **imbalance-at-collective** — one finding per group: the arrival spread
//!   `last.t0 − first.t0` between the earliest and latest member.
//!
//! Every wait is attributed to `(phase, op, waiter ← culprit)` where *phase*
//! is the innermost span open on the waiting rank when the wait began.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use diffreg_comm::{CommEvent, CommOp};

use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::recorder::RecorderSnapshot;
use crate::report::PredictedPhases;

/// Phase label for time not covered by any span.
pub const UNTRACED: &str = "(untraced)";

// ---------------------------------------------------------------------------
// Event stream serialization (JSONL)
// ---------------------------------------------------------------------------

/// Serializes one comm event as the doctor's JSONL object.
fn event_to_json(e: &CommEvent) -> Json {
    let mut j = Json::obj()
        .set("type", "comm")
        .set("op", e.op.name())
        // Hex string: comm uids are full 64-bit hashes; JSON numbers are
        // doubles and would silently round them.
        .set("comm", format!("{:x}", e.comm))
        .set("csize", e.csize)
        .set("rank", e.rank)
        .set("bytes", e.bytes)
        .set("t0_ns", e.t0_ns)
        .set("t1_ns", e.t1_ns)
        .set("blocked_ns", e.blocked_ns);
    if let Some(p) = e.peer {
        j = j.set("peer", p);
    }
    if let Some(t) = e.tag {
        // Hex string like `comm`: internal tags set bits above 2^53 (e.g.
        // `TAG_INTERNAL`-derived channel tags) which a JSON double rounds —
        // silently merging distinct `(comm, src, dst, tag, seq)` match keys.
        j = j.set("tag", format!("{t:x}"));
    }
    if let Some(s) = e.seq {
        j = j.set("seq", s);
    }
    if let Some(ep) = e.epoch {
        j = j.set("epoch", ep);
    }
    j
}

/// Parses one JSONL object back into a comm event.
fn event_from_json(j: &Json) -> Result<CommEvent, String> {
    if j.get("type").and_then(Json::as_str) != Some("comm") {
        return Err("event: missing type=\"comm\"".into());
    }
    let op_name = j.get("op").and_then(Json::as_str).ok_or("event: missing op")?;
    let op = CommOp::from_name(op_name).ok_or_else(|| format!("event: unknown op '{op_name}'"))?;
    let comm_hex = j.get("comm").and_then(Json::as_str).ok_or("event: missing comm uid")?;
    let comm = u64::from_str_radix(comm_hex, 16)
        .map_err(|_| format!("event: bad comm uid '{comm_hex}'"))?;
    let num = |key: &str| -> Result<f64, String> {
        j.get(key).and_then(Json::as_f64).ok_or(format!("event: missing numeric {key}"))
    };
    let opt = |key: &str| j.get(key).and_then(Json::as_f64);
    Ok(CommEvent {
        op,
        comm,
        csize: num("csize")? as usize,
        rank: num("rank")? as usize,
        peer: opt("peer").map(|v| v as usize),
        tag: match j.get("tag") {
            None => None,
            Some(Json::Str(s)) => Some(
                u64::from_str_radix(s, 16).map_err(|_| format!("event: bad tag '{s}'"))?,
            ),
            // A JSON number is a double: above 2^53 it would silently merge
            // distinct match keys, so only the hex string is a tag.
            Some(v) => return Err(format!("event: tag must be a hex string, found {v}")),
        },
        seq: opt("seq").map(|v| v as u64),
        bytes: num("bytes")? as u64,
        epoch: opt("epoch").map(|v| v as u64),
        t0_ns: num("t0_ns")? as u64,
        t1_ns: num("t1_ns")? as u64,
        blocked_ns: num("blocked_ns")? as u64,
    })
}

/// One rank's event stream as JSON-lines text.
pub fn events_to_jsonl(events: &[CommEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = writeln!(out, "{}", event_to_json(e));
    }
    out
}

/// Parses a JSON-lines event stream (blank lines ignored).
pub fn events_from_jsonl(text: &str) -> Result<Vec<CommEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(event_from_json(&j).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// One rank's contribution to a capture: its comm events and its event
/// ring. Bundle files are keyed by `rank` — the world rank of a solver run,
/// the gang-local rank of a serve attempt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankCapture {
    /// Rank within the captured communicator (0-based).
    pub rank: usize,
    /// The rank's comm events, in recorded order.
    pub events: Vec<CommEvent>,
    /// The rank's event ring with exact drop accounting; its span events
    /// are the doctor's phase timeline.
    pub recorder: RecorderSnapshot,
}

/// Writes a bundle (`events-rank<k>.jsonl` for every rank that has comm
/// events, `recorder-rank<k>.jsonl`, the `trace.json` export and — when
/// provided — `metrics.json`) into `dir`, creating it if necessary.
pub fn write_trace_bundle(
    dir: impl AsRef<Path>,
    captures: &[RankCapture],
    metrics: Option<&MetricsRegistry>,
) -> std::io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    for c in captures {
        if !c.events.is_empty() {
            let name = format!("events-rank{}.jsonl", c.rank);
            std::fs::write(dir.join(name), events_to_jsonl(&c.events))?;
        }
        std::fs::write(dir.join(format!("recorder-rank{}.jsonl", c.rank)), c.recorder.to_jsonl())?;
    }
    if !captures.is_empty() {
        std::fs::write(dir.join("trace.json"), crate::span::chrome_trace(captures).to_string())?;
    }
    if let Some(m) = metrics {
        std::fs::write(dir.join("metrics.json"), m.to_json().to_string())?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Doctor input
// ---------------------------------------------------------------------------

/// Why a bundle could not be loaded. The doctor CLI maps these to its typed
/// exit errors, so the variants (and their rendered messages) are pinned by
/// tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// The bundle directory (or an incident bundle's `incident.json`) does
    /// not exist.
    MissingBundle(PathBuf),
    /// A bundle file exists but is truncated or unparseable.
    Truncated {
        /// File name within the bundle.
        file: String,
        /// What failed.
        detail: String,
    },
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::MissingBundle(p) => {
                write!(f, "no incident bundle at {} (missing incident.json)", p.display())
            }
            BundleError::Truncated { file, detail } => {
                write!(f, "bundle file {file} is truncated or malformed: {detail}")
            }
        }
    }
}

impl std::error::Error for BundleError {}

/// Reads `dir/name` and parses it, naming the file in either failure.
pub(crate) fn read_bundle_file<T>(
    dir: &Path,
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, BundleError> {
    let truncated = |detail: String| BundleError::Truncated { file: name.to_string(), detail };
    let text = std::fs::read_to_string(dir.join(name)).map_err(|e| truncated(e.to_string()))?;
    parse(&text).map_err(truncated)
}

/// The merged multi-rank input to [`analyze`]: what a run captured, from
/// memory or from a bundle directory.
#[derive(Debug, Clone, Default)]
pub struct DoctorInput {
    /// Per-rank captures, sorted by rank.
    pub ranks: Vec<RankCapture>,
    /// Run-recorded metrics (merged across ranks), if any.
    pub metrics: MetricsRegistry,
}

impl DoctorInput {
    /// Loads a bundle directory written by [`write_trace_bundle`] (or the
    /// capture part of an incident bundle): every `events-rank<k>.jsonl`
    /// and `recorder-rank<k>.jsonl`, plus `metrics.json` when present. A
    /// directory with none of them loads as zero ranks.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<DoctorInput, BundleError> {
        let dir = dir.as_ref();
        let missing = |_| BundleError::MissingBundle(dir.to_path_buf());
        let mut names: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(missing)? {
            if let Some(name) = entry.map_err(missing)?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        let rank_of = |name: &str, prefix: &str| -> Option<usize> {
            name.strip_prefix(prefix)?.strip_suffix(".jsonl")?.parse().ok()
        };
        let mut ranks: BTreeMap<usize, RankCapture> = BTreeMap::new();
        for name in &names {
            if let Some(rank) = rank_of(name, "events-rank") {
                ranks.entry(rank).or_default().events =
                    read_bundle_file(dir, name, events_from_jsonl)?;
            } else if let Some(rank) = rank_of(name, "recorder-rank") {
                ranks.entry(rank).or_default().recorder =
                    read_bundle_file(dir, name, RecorderSnapshot::from_jsonl)?;
            }
        }
        let metrics = if dir.join("metrics.json").is_file() {
            read_bundle_file(dir, "metrics.json", |text| {
                MetricsRegistry::from_json(&Json::parse(text)?)
            })?
        } else {
            MetricsRegistry::new()
        };
        let ranks = ranks.into_iter().map(|(rank, c)| RankCapture { rank, ..c }).collect();
        Ok(DoctorInput { ranks, metrics })
    }
}

// ---------------------------------------------------------------------------
// Analysis results
// ---------------------------------------------------------------------------

/// A matched send/receive pair (world ranks from the file/record origin).
#[derive(Debug, Clone, Copy)]
pub struct MatchedMessage {
    /// Sender's world rank.
    pub send_rank: usize,
    /// Receiver's world rank.
    pub recv_rank: usize,
    /// The send event.
    pub send: CommEvent,
    /// The receive event.
    pub recv: CommEvent,
}

/// One collective operation reassembled from its per-rank records.
#[derive(Debug, Clone)]
pub struct CollectiveGroup {
    /// Communicator uid.
    pub comm: u64,
    /// Operation kind.
    pub op: CommOp,
    /// Collective epoch on that communicator.
    pub epoch: u64,
    /// Communicator size (the number of records a complete group has).
    pub csize: usize,
    /// `(world rank, event)` members, sorted by world rank.
    pub members: Vec<(usize, CommEvent)>,
}

impl CollectiveGroup {
    /// Whether every member rank's record arrived.
    pub fn is_complete(&self) -> bool {
        self.members.len() == self.csize
    }
}

/// Wait-state classes (after Scalasca).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitKind {
    /// Receive blocked on a send that completed late.
    LateSender,
    /// Collective member waited for the last arrival.
    WaitAtCollective,
    /// Arrival spread of one collective (first vs last member).
    ImbalanceAtCollective,
}

impl WaitKind {
    /// Stable lowercase name (report + metric label).
    pub fn name(self) -> &'static str {
        match self {
            WaitKind::LateSender => "late-sender",
            WaitKind::WaitAtCollective => "wait-at-collective",
            WaitKind::ImbalanceAtCollective => "imbalance-at-collective",
        }
    }
}

/// One classified wait.
#[derive(Debug, Clone)]
pub struct WaitState {
    /// Classification.
    pub kind: WaitKind,
    /// The operation the waiter was executing.
    pub op: CommOp,
    /// Innermost span open on the waiting rank when the wait began.
    pub phase: String,
    /// World rank that lost the time.
    pub waiter: usize,
    /// World rank responsible (the late peer / latest arrival).
    pub culprit: usize,
    /// Lost seconds.
    pub wait_s: f64,
    /// When the wait began (ns, shared clock).
    pub t_ns: u64,
}

/// Aggregated waits for one `(phase, op, waiter, culprit)` cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WaitAgg {
    /// Number of waits in the cell.
    pub count: u64,
    /// Total lost seconds.
    pub total_s: f64,
    /// Largest single wait.
    pub max_s: f64,
}

/// One segment of the cross-rank critical path.
#[derive(Debug, Clone)]
pub struct PathSegment {
    /// Rank the segment ran on.
    pub rank: usize,
    /// Segment start (ns).
    pub t0_ns: u64,
    /// Segment end (ns).
    pub t1_ns: u64,
    /// What the rank was doing: a span phase name, `comm.<op>`, or
    /// [`UNTRACED`].
    pub kind: String,
}

impl PathSegment {
    /// Segment duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.t1_ns.saturating_sub(self.t0_ns) as f64 / 1e9
    }
}

/// The full doctor analysis of one run.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// Number of ranks merged.
    pub ranks: usize,
    /// Wall-clock seconds from first to last recorded activity.
    pub wall_s: f64,
    /// Total send events.
    pub p2p_sends: usize,
    /// Total receive events.
    pub p2p_recvs: usize,
    /// Matched send/receive pairs.
    pub matched: Vec<MatchedMessage>,
    /// Send events with no matching receive.
    pub unmatched_sends: usize,
    /// Receive events with no matching send.
    pub unmatched_recvs: usize,
    /// Collective groups (complete and incomplete).
    pub collectives: Vec<CollectiveGroup>,
    /// Number of incomplete collective groups.
    pub incomplete_collectives: usize,
    /// Every classified wait.
    pub waits: Vec<WaitState>,
    /// Waits aggregated per `(phase, op, waiter, culprit)`.
    pub attribution: BTreeMap<(String, String, usize, usize), WaitAgg>,
    /// The critical-path segments, in reverse-chronological walk order.
    pub path: Vec<PathSegment>,
    /// Critical-path seconds per kind, sorted by total descending.
    pub path_totals: Vec<(String, f64)>,
    /// Fraction of the wall clock the critical path explains.
    pub coverage: f64,
    /// Seconds per `(phase → per-rank vector)` from the span timelines.
    pub phase_rank_seconds: BTreeMap<String, Vec<f64>>,
    /// Derived metrics (op latencies, wait histograms) merged with the
    /// run-recorded registry.
    pub metrics: MetricsRegistry,
    /// Events the per-thread rings did not keep (sampled out or
    /// overwritten, summed) — the spans above are missing at most this many.
    pub trace_dropped: u64,
}

// ---------------------------------------------------------------------------
// Phase timeline (innermost-span segments)
// ---------------------------------------------------------------------------

/// Flattens a rank's (possibly nested) spans into disjoint segments labeled
/// with the innermost open span. Gaps between spans get no segment (callers
/// treat them as [`UNTRACED`]).
fn flatten_spans(recorder: &RecorderSnapshot) -> Vec<(u64, u64, String)> {
    let mut sorted: Vec<(u64, u64, &str)> = recorder.spans().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut out: Vec<(u64, u64, String)> = Vec::new();
    let mut stack: Vec<(u64, &str)> = Vec::new(); // (t1, name)
    let mut cursor = 0u64;
    for (t0_ns, t1_ns, name) in sorted {
        // Close everything that ends before this span starts.
        while let Some(&(top_t1, top_name)) = stack.last() {
            if top_t1 > t0_ns {
                break;
            }
            stack.pop();
            if top_t1 > cursor {
                out.push((cursor, top_t1, top_name.to_string()));
            }
            cursor = cursor.max(top_t1);
        }
        // The stretch up to this span's start belongs to the enclosing span
        // (if any); gaps stay unlabeled.
        if t0_ns > cursor {
            if let Some(&(_, parent)) = stack.last() {
                out.push((cursor, t0_ns, parent.to_string()));
            }
            cursor = t0_ns;
        }
        cursor = cursor.max(t0_ns);
        stack.push((t1_ns, name));
    }
    while let Some((top_t1, top_name)) = stack.pop() {
        if top_t1 > cursor {
            out.push((cursor, top_t1, top_name.to_string()));
            cursor = top_t1;
        }
    }
    out
}

/// The phase at instant `t` on a flattened timeline ([`UNTRACED`] in gaps).
fn phase_at(segments: &[(u64, u64, String)], t: u64) -> &str {
    let i = segments.partition_point(|s| s.0 <= t);
    if i > 0 {
        let s = &segments[i - 1];
        if t < s.1 {
            return &s.2;
        }
    }
    UNTRACED
}

/// Splits `[lo, hi]` on `rank` into path segments labeled by the rank's
/// phase timeline (gaps become [`UNTRACED`]).
fn attribute_interval(
    out: &mut Vec<PathSegment>,
    segments: &[(u64, u64, String)],
    rank: usize,
    lo: u64,
    hi: u64,
) {
    if hi <= lo {
        return;
    }
    let mut pos = lo;
    let start = segments.partition_point(|s| s.1 <= lo);
    for s in &segments[start..] {
        if pos >= hi {
            break;
        }
        if s.0 >= hi {
            break;
        }
        if s.0 > pos {
            out.push(PathSegment { rank, t0_ns: pos, t1_ns: s.0.min(hi), kind: UNTRACED.into() });
            pos = s.0.min(hi);
        }
        let end = s.1.min(hi);
        if end > pos {
            out.push(PathSegment { rank, t0_ns: pos, t1_ns: end, kind: s.2.clone() });
            pos = end;
        }
    }
    if pos < hi {
        out.push(PathSegment { rank, t0_ns: pos, t1_ns: hi, kind: UNTRACED.into() });
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Runs the full doctor analysis. Pure: the report (and its renderings) is a
/// deterministic function of the input.
pub fn analyze(input: &DoctorInput) -> DoctorReport {
    let nranks = input.ranks.len();

    // Per-rank phase timelines.
    let timelines: BTreeMap<usize, Vec<(u64, u64, String)>> =
        input.ranks.iter().map(|r| (r.rank, flatten_spans(&r.recorder))).collect();
    let empty_timeline: Vec<(u64, u64, String)> = Vec::new();
    let timeline = |rank: usize| timelines.get(&rank).unwrap_or(&empty_timeline);

    // ---- p2p matching ----------------------------------------------------
    type P2pKey = (u64, usize, usize, u64, u64); // (comm, src, dst, tag, seq)
    let mut sends: BTreeMap<P2pKey, (usize, CommEvent)> = BTreeMap::new();
    let mut recvs: BTreeMap<P2pKey, (usize, CommEvent)> = BTreeMap::new();
    let (mut p2p_sends, mut p2p_recvs) = (0usize, 0usize);
    // Key collisions (two events claiming the same match key) mean the
    // pairing is ambiguous; count each extra event as unmatched so the gate
    // sees the corruption instead of a silent overwrite hiding it.
    let (mut dup_sends, mut dup_recvs) = (0usize, 0usize);
    let mut groups: BTreeMap<(u64, CommOp, u64), CollectiveGroup> = BTreeMap::new();
    for r in &input.ranks {
        for e in &r.events {
            match e.op {
                CommOp::Send => {
                    p2p_sends += 1;
                    let key =
                        (e.comm, e.rank, e.peer.unwrap_or(usize::MAX), e.tag.unwrap_or(0), e.seq.unwrap_or(0));
                    if sends.insert(key, (r.rank, *e)).is_some() {
                        dup_sends += 1;
                    }
                }
                CommOp::Recv => {
                    p2p_recvs += 1;
                    let key =
                        (e.comm, e.peer.unwrap_or(usize::MAX), e.rank, e.tag.unwrap_or(0), e.seq.unwrap_or(0));
                    if recvs.insert(key, (r.rank, *e)).is_some() {
                        dup_recvs += 1;
                    }
                }
                op => {
                    let epoch = e.epoch.unwrap_or(0);
                    let g = groups.entry((e.comm, op, epoch)).or_insert_with(|| {
                        CollectiveGroup {
                            comm: e.comm,
                            op,
                            epoch,
                            csize: e.csize,
                            members: Vec::new(),
                        }
                    });
                    g.members.push((r.rank, *e));
                }
            }
        }
    }
    let mut matched: Vec<MatchedMessage> = Vec::new();
    let mut unmatched_sends = dup_sends;
    for (key, (send_rank, send)) in &sends {
        match recvs.get(key) {
            Some((recv_rank, recv)) => matched.push(MatchedMessage {
                send_rank: *send_rank,
                recv_rank: *recv_rank,
                send: *send,
                recv: *recv,
            }),
            None => unmatched_sends += 1,
        }
    }
    let unmatched_recvs =
        dup_recvs + recvs.keys().filter(|k| !sends.contains_key(*k)).count();
    let mut collectives: Vec<CollectiveGroup> = groups.into_values().collect();
    for g in &mut collectives {
        g.members.sort_by_key(|(r, _)| *r);
    }
    let incomplete_collectives = collectives.iter().filter(|g| !g.is_complete()).count();

    // ---- wait-state classification ---------------------------------------
    let mut waits: Vec<WaitState> = Vec::new();
    for m in &matched {
        if m.recv.blocked_ns > 0 && m.send.t1_ns > m.recv.t0_ns {
            let end = m.send.t1_ns.min(m.recv.t1_ns);
            let wait_s = end.saturating_sub(m.recv.t0_ns) as f64 / 1e9;
            if wait_s > 0.0 {
                waits.push(WaitState {
                    kind: WaitKind::LateSender,
                    op: CommOp::Recv,
                    phase: phase_at(timeline(m.recv_rank), m.recv.t0_ns).to_string(),
                    waiter: m.recv_rank,
                    culprit: m.send_rank,
                    wait_s,
                    t_ns: m.recv.t0_ns,
                });
            }
        }
    }
    for g in collectives.iter().filter(|g| g.is_complete() && g.members.len() > 1) {
        // Latest arrival (ties broken toward the lowest rank for stability).
        let (last_rank, last_t0) = g
            .members
            .iter()
            .map(|(r, e)| (*r, e.t0_ns))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap_or((0, 0));
        let (first_rank, first_t0) = g
            .members
            .iter()
            .map(|(r, e)| (*r, e.t0_ns))
            .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
            .unwrap_or((0, 0));
        for (r, e) in &g.members {
            if *r == last_rank || e.t0_ns >= last_t0 {
                continue;
            }
            // Clamp to the member's own interval: it cannot have waited
            // longer than its op lasted.
            let wait_ns = last_t0.saturating_sub(e.t0_ns).min(e.t1_ns.saturating_sub(e.t0_ns));
            if wait_ns == 0 {
                continue;
            }
            waits.push(WaitState {
                kind: WaitKind::WaitAtCollective,
                op: g.op,
                phase: phase_at(timeline(*r), e.t0_ns).to_string(),
                waiter: *r,
                culprit: last_rank,
                wait_s: wait_ns as f64 / 1e9,
                t_ns: e.t0_ns,
            });
        }
        let spread = last_t0.saturating_sub(first_t0);
        if spread > 0 {
            waits.push(WaitState {
                kind: WaitKind::ImbalanceAtCollective,
                op: g.op,
                phase: phase_at(timeline(first_rank), first_t0).to_string(),
                waiter: first_rank,
                culprit: last_rank,
                wait_s: spread as f64 / 1e9,
                t_ns: first_t0,
            });
        }
    }
    waits.sort_by(|a, b| {
        a.t_ns.cmp(&b.t_ns).then(a.waiter.cmp(&b.waiter)).then(a.kind.cmp(&b.kind))
    });

    // Attribution table (imbalance findings are summaries, not lost rank
    // time, so they stay out of the per-pair loss table).
    let mut attribution: BTreeMap<(String, String, usize, usize), WaitAgg> = BTreeMap::new();
    for w in &waits {
        if w.kind == WaitKind::ImbalanceAtCollective {
            continue;
        }
        let cell = attribution
            .entry((w.phase.clone(), w.op.name().to_string(), w.waiter, w.culprit))
            .or_default();
        cell.count += 1;
        cell.total_s += w.wait_s;
        if w.wait_s > cell.max_s {
            cell.max_s = w.wait_s;
        }
    }

    // ---- critical-path walk ----------------------------------------------
    // Matched-recv lookup and collective arrival info for the walk.
    let mut recv_to_sender: BTreeMap<(usize, u64, u64), (usize, CommEvent)> = BTreeMap::new();
    for m in &matched {
        recv_to_sender
            .insert((m.recv_rank, m.recv.t0_ns, m.recv.t1_ns), (m.send_rank, m.send));
    }
    let mut coll_last: BTreeMap<(u64, CommOp, u64), (usize, u64)> = BTreeMap::new();
    for g in collectives.iter().filter(|g| g.is_complete() && g.members.len() > 1) {
        if let Some((r, t0)) = g
            .members
            .iter()
            .map(|(r, e)| (*r, e.t0_ns))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        {
            coll_last.insert((g.comm, g.op, g.epoch), (r, t0));
        }
    }
    // Per-rank events sorted by end time.
    let mut by_end: BTreeMap<usize, Vec<CommEvent>> = BTreeMap::new();
    let mut t_begin = u64::MAX;
    let mut t_end = 0u64;
    let mut end_rank = input.ranks.first().map(|r| r.rank).unwrap_or(0);
    let mut total_events = 0usize;
    for r in &input.ranks {
        let mut evs = r.events.clone();
        total_events += evs.len();
        evs.sort_by(|a, b| a.t1_ns.cmp(&b.t1_ns).then(a.t0_ns.cmp(&b.t0_ns)));
        for e in &evs {
            t_begin = t_begin.min(e.t0_ns);
            if e.t1_ns > t_end {
                t_end = e.t1_ns;
                end_rank = r.rank;
            }
        }
        for (t0_ns, t1_ns, _) in r.recorder.spans() {
            t_begin = t_begin.min(t0_ns);
            if t1_ns > t_end {
                t_end = t1_ns;
                end_rank = r.rank;
            }
        }
        by_end.insert(r.rank, evs);
    }
    if t_begin == u64::MAX {
        t_begin = 0;
    }
    let wall_s = t_end.saturating_sub(t_begin) as f64 / 1e9;

    let empty_events: Vec<CommEvent> = Vec::new();
    let mut path: Vec<PathSegment> = Vec::new();
    let mut cur_rank = end_rank;
    let mut cur_t = t_end;
    let cap = 4 * total_events + 64;
    for _ in 0..cap {
        if cur_t <= t_begin {
            break;
        }
        let evs = by_end.get(&cur_rank).unwrap_or(&empty_events);
        // Latest event that ends at/before `cur_t` and started strictly
        // before it (zero-length events at the cursor cannot make progress).
        let mut i = evs.partition_point(|e| e.t1_ns <= cur_t);
        let mut ev = None;
        while i > 0 {
            i -= 1;
            if evs[i].t0_ns < cur_t {
                ev = Some(evs[i]);
                break;
            }
        }
        let Some(ev) = ev else {
            attribute_interval(&mut path, timeline(cur_rank), cur_rank, t_begin, cur_t);
            cur_t = t_begin;
            break;
        };
        // Compute stretch between the event's end and the cursor.
        attribute_interval(&mut path, timeline(cur_rank), cur_rank, ev.t1_ns, cur_t);
        cur_t = cur_t.min(ev.t1_ns);
        let kind = format!("comm.{}", ev.op.name());
        if ev.op == CommOp::Recv && ev.blocked_ns > 0 {
            if let Some((s_rank, s_ev)) = recv_to_sender.get(&(cur_rank, ev.t0_ns, ev.t1_ns)) {
                // The receiver was waiting: the dependency chain continues on
                // the sender from the moment the message became available.
                let jump_t = s_ev.t1_ns.min(ev.t1_ns).max(ev.t0_ns);
                if jump_t < cur_t {
                    path.push(PathSegment { rank: cur_rank, t0_ns: jump_t, t1_ns: cur_t, kind });
                }
                cur_rank = *s_rank;
                cur_t = jump_t;
                continue;
            }
        }
        if !ev.op.is_p2p() && ev.blocked_ns > 0 {
            if let Some(&(l_rank, l_t0)) =
                coll_last.get(&(ev.comm, ev.op, ev.epoch.unwrap_or(0)))
            {
                if l_rank != cur_rank {
                    let jump_t = l_t0.clamp(ev.t0_ns, ev.t1_ns).min(cur_t);
                    if jump_t < cur_t {
                        path.push(PathSegment {
                            rank: cur_rank,
                            t0_ns: jump_t,
                            t1_ns: cur_t,
                            kind,
                        });
                    }
                    cur_rank = l_rank;
                    cur_t = jump_t;
                    continue;
                }
            }
        }
        // Local op: it sits on the path in full.
        if ev.t0_ns < cur_t {
            path.push(PathSegment { rank: cur_rank, t0_ns: ev.t0_ns, t1_ns: cur_t, kind });
        }
        cur_t = ev.t0_ns;
    }
    if cur_t > t_begin {
        // Cap hit: close the path so coverage reflects what was explained.
        attribute_interval(&mut path, timeline(cur_rank), cur_rank, t_begin, cur_t);
    }
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for s in &path {
        *totals.entry(s.kind.clone()).or_insert(0.0) += s.dur_s();
    }
    let covered: f64 = path.iter().map(PathSegment::dur_s).sum();
    let coverage = if wall_s > 0.0 { covered / wall_s } else { 1.0 };
    let mut path_totals: Vec<(String, f64)> = totals.into_iter().collect();
    path_totals.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    // ---- per-phase rank-imbalance table -----------------------------------
    let mut phase_rank_seconds: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (idx, r) in input.ranks.iter().enumerate() {
        for (t0, t1, name) in timeline(r.rank) {
            let row = phase_rank_seconds
                .entry(name.clone())
                .or_insert_with(|| vec![0.0; nranks]);
            row[idx] += t1.saturating_sub(*t0) as f64 / 1e9;
        }
    }

    // ---- derived metrics ---------------------------------------------------
    let mut metrics = input.metrics.clone();
    for r in &input.ranks {
        for e in &r.events {
            metrics.inc_counter(&format!("diffreg_comm_events_total{{op=\"{}\"}}", e.op.name()), 1);
            metrics.observe(&format!("diffreg_comm_op_seconds{{op=\"{}\"}}", e.op.name()), e.dur_s());
        }
    }
    for w in &waits {
        metrics.observe(
            &format!("diffreg_comm_wait_seconds{{kind=\"{}\"}}", w.kind.name()),
            w.wait_s,
        );
    }
    metrics.set_gauge("diffreg_doctor_wall_seconds", wall_s);
    metrics.set_gauge("diffreg_doctor_critical_path_coverage", coverage);
    metrics.inc_counter("diffreg_doctor_p2p_matched_total", matched.len() as u64);
    metrics.inc_counter(
        "diffreg_doctor_p2p_unmatched_total",
        (unmatched_sends + unmatched_recvs) as u64,
    );
    metrics.inc_counter("diffreg_doctor_collectives_total", collectives.len() as u64);
    metrics
        .inc_counter("diffreg_doctor_collectives_incomplete_total", incomplete_collectives as u64);
    let trace_dropped: u64 = input.ranks.iter().map(|r| r.recorder.dropped()).sum();
    metrics.inc_counter("diffreg_trace_dropped_events_total", trace_dropped);

    DoctorReport {
        ranks: nranks,
        wall_s,
        p2p_sends,
        p2p_recvs,
        matched,
        unmatched_sends,
        unmatched_recvs,
        collectives,
        incomplete_collectives,
        waits,
        attribution,
        path,
        path_totals,
        coverage,
        phase_rank_seconds,
        metrics,
        trace_dropped,
    }
}

impl DoctorReport {
    /// Human-readable report: matching summary, critical-path top-`k`,
    /// wait-state totals, attribution and the per-phase rank-imbalance heat
    /// table. With `predicted`, the §III-C4 model numbers render next to the
    /// measured FFT/interp critical-path aggregates. Deterministic.
    pub fn render(&self, top_k: usize, predicted: Option<&PredictedPhases>) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wait-state doctor: {} rank(s), wall {:.6} s, {} trace event(s) dropped at capture",
            self.ranks, self.wall_s, self.trace_dropped
        );
        let _ = writeln!(
            out,
            "p2p: {}/{} sends matched ({} unmatched sends, {} unmatched recvs)",
            self.matched.len(),
            self.p2p_sends,
            self.unmatched_sends,
            self.unmatched_recvs
        );
        let _ = writeln!(
            out,
            "collectives: {} group(s), {} incomplete",
            self.collectives.len(),
            self.incomplete_collectives
        );
        let _ = writeln!(
            out,
            "critical path: coverage {:.1}% of wall, top {} segment kind(s):",
            self.coverage * 100.0,
            top_k.min(self.path_totals.len())
        );
        let _ = writeln!(out, "  {:<28} {:>12} {:>8}", "kind", "total (s)", "share");
        for (kind, total) in self.path_totals.iter().take(top_k) {
            let share = if self.wall_s > 0.0 { total / self.wall_s } else { 0.0 };
            let _ = writeln!(out, "  {:<28} {:>12.6} {:>7.1}%", kind, total, share * 100.0);
        }
        if let Some(p) = predicted {
            let measured = |prefix: &str| -> f64 {
                self.path_totals
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(_, v)| v)
                    .sum()
            };
            let _ = writeln!(out, "model comparison (critical-path measured vs predicted):");
            let _ = writeln!(
                out,
                "  {:<12} {:>12} {:>12}",
                "phase", "measured (s)", "predicted (s)"
            );
            let _ = writeln!(
                out,
                "  {:<12} {:>12.6} {:>12.6}",
                "fft",
                measured("fft."),
                p.fft_comm + p.fft_exec
            );
            let _ = writeln!(
                out,
                "  {:<12} {:>12.6} {:>12.6}",
                "interp",
                measured("interp."),
                p.interp_comm + p.interp_exec
            );
        }
        out.push_str(&self.render_wait_table());
        out.push_str(&self.render_heat_table());
        out
    }

    /// The wait-state totals + `(phase, op, waiter ← culprit)` attribution
    /// table, sorted by total lost time descending. Deterministic.
    pub fn render_wait_table(&self) -> String {
        let mut out = String::new();
        let mut by_kind: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
        for w in &self.waits {
            let cell = by_kind.entry(w.kind.name()).or_insert((0, 0.0));
            cell.0 += 1;
            cell.1 += w.wait_s;
        }
        let _ = writeln!(out, "wait states: {} finding(s)", self.waits.len());
        for (kind, (count, total)) in &by_kind {
            let _ = writeln!(out, "  {kind:<24} {count:>6} x {total:>12.6} s");
        }
        type AttrRow<'a> = (&'a (String, String, usize, usize), &'a WaitAgg);
        let mut rows: Vec<AttrRow<'_>> = self.attribution.iter().collect();
        rows.sort_by(|a, b| b.1.total_s.total_cmp(&a.1.total_s).then(a.0.cmp(b.0)));
        let _ = writeln!(out, "wait attribution (phase, op, waiter <- culprit):");
        let _ = writeln!(
            out,
            "  {:<24} {:<12} {:>14} {:>6} {:>12} {:>12}",
            "phase", "op", "waiter<-culprit", "count", "total (s)", "max (s)"
        );
        for ((phase, op, waiter, culprit), agg) in rows {
            let pair = format!("{waiter}<-{culprit}");
            let _ = writeln!(
                out,
                "  {:<24} {:<12} {:>14} {:>6} {:>12.6} {:>12.6}",
                phase, op, pair, agg.count, agg.total_s, agg.max_s
            );
        }
        out
    }

    /// The per-phase rank-imbalance heat table (seconds per phase per rank,
    /// with `max/mean` imbalance). Deterministic.
    pub fn render_heat_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "phase x rank heat table (seconds, imbal = max/mean):");
        let mut header = format!("  {:<24}", "phase");
        for r in 0..self.ranks {
            let _ = write!(header, " {:>10}", format!("r{r}"));
        }
        let _ = writeln!(out, "{header} {:>8}", "imbal");
        for (phase, row) in &self.phase_rank_seconds {
            let mean = row.iter().sum::<f64>() / row.len().max(1) as f64;
            let max = row.iter().copied().fold(0.0f64, f64::max);
            let imbal = if mean > 0.0 { max / mean } else { 1.0 };
            let mut line = format!("  {phase:<24}");
            for v in row {
                let _ = write!(line, " {v:>10.6}");
            }
            let _ = writeln!(out, "{line} {imbal:>8.3}");
        }
        out
    }

    /// The Prometheus text snapshot of the doctor's metrics registry.
    pub fn prometheus(&self) -> String {
        self.metrics.render_prometheus()
    }

    /// Hard health gate: every p2p send and receive matched, no incomplete
    /// collectives, and the critical path explains at least `min_coverage`
    /// of the wall clock. Returns all violations at once.
    pub fn gate(&self, min_coverage: f64) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.unmatched_sends > 0 || self.unmatched_recvs > 0 {
            problems.push(format!(
                "p2p matching incomplete: {} unmatched sends, {} unmatched recvs (of {} sends / {} recvs)",
                self.unmatched_sends, self.unmatched_recvs, self.p2p_sends, self.p2p_recvs
            ));
        }
        if self.incomplete_collectives > 0 {
            problems.push(format!(
                "{} incomplete collective group(s)",
                self.incomplete_collectives
            ));
        }
        if self.coverage < min_coverage {
            problems.push(format!(
                "critical-path coverage {:.1}% below the {:.1}% floor",
                self.coverage * 100.0,
                min_coverage * 100.0
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{RecEvent, RecKind};

    /// A complete keep-all window holding the given `(name, t0_ns, t1_ns)`
    /// spans.
    fn spans(spans: &[(&'static str, u64, u64)]) -> RecorderSnapshot {
        let events: Vec<RecEvent> = spans
            .iter()
            .map(|&(name, t0, t1)| RecEvent {
                t_ns: t0,
                kind: RecKind::Span,
                name: name.into(),
                a: t1 - t0,
                b: 0,
            })
            .collect();
        let n = events.len() as u64;
        RecorderSnapshot { events, seen: n, recorded: n, stride: 1, ..Default::default() }
    }

    fn input(ranks: Vec<(Vec<CommEvent>, RecorderSnapshot)>) -> DoctorInput {
        let ranks = ranks
            .into_iter()
            .enumerate()
            .map(|(rank, (events, recorder))| RankCapture { rank, events, recorder })
            .collect();
        DoctorInput { ranks, metrics: MetricsRegistry::new() }
    }

    fn ev(op: CommOp, rank: usize, t0_ms: u64, t1_ms: u64, blocked_ms: u64) -> CommEvent {
        CommEvent {
            op,
            comm: 0,
            csize: 2,
            rank,
            peer: None,
            tag: None,
            seq: None,
            bytes: 64,
            epoch: None,
            t0_ns: t0_ms * 1_000_000,
            t1_ns: t1_ms * 1_000_000,
            blocked_ns: blocked_ms * 1_000_000,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn p2p(
        op: CommOp,
        rank: usize,
        peer: usize,
        tag: u64,
        seq: u64,
        t0_ms: u64,
        t1_ms: u64,
        blocked_ms: u64,
    ) -> CommEvent {
        CommEvent {
            peer: Some(peer),
            tag: Some(tag),
            seq: Some(seq),
            ..ev(op, rank, t0_ms, t1_ms, blocked_ms)
        }
    }

    fn coll(op: CommOp, rank: usize, epoch: u64, t0_ms: u64, t1_ms: u64) -> CommEvent {
        let blocked = t1_ms - t0_ms;
        CommEvent { epoch: Some(epoch), ..ev(op, rank, t0_ms, t1_ms, blocked) }
    }

    #[test]
    fn jsonl_roundtrip_preserves_comm_uid_bits() {
        let mut e = p2p(CommOp::Send, 0, 1, 7, 3, 10, 20, 0);
        // A uid that does not fit in an f64 mantissa.
        e.comm = 0xdead_beef_cafe_f00d;
        // An internal-style tag above 2^53: two such tags 64 apart collapse
        // to the same double, so the tag must round-trip bit-exactly too.
        let mut hi = e;
        hi.tag = Some((1u64 << 59) | 12);
        let mut hi2 = e;
        hi2.tag = Some((1u64 << 59) | 76);
        let coll_e = coll(CommOp::Allreduce, 1, 42, 5, 9);
        let text = events_to_jsonl(&[e, hi, hi2, coll_e]);
        let back = events_from_jsonl(&text).unwrap();
        assert_eq!(back, vec![e, hi, hi2, coll_e]);
        assert_ne!(back[1].tag, back[2].tag, "high tag bits must survive");
        // A numeric tag is what a double would have rounded: rejected.
        let numeric = text.lines().next().unwrap().replace("\"tag\":\"7\"", "\"tag\":7");
        assert_ne!(numeric, text.lines().next().unwrap());
        let err = events_from_jsonl(&numeric).unwrap_err();
        assert!(err.contains("line 1: event: tag must be a hex string, found 7"), "{err}");
    }

    #[test]
    fn late_sender_is_classified_and_attributed() {
        // Rank 0 posts its recv at t=0 and blocks; rank 1 sends at t=100.
        let recv = p2p(CommOp::Recv, 0, 1, 7, 0, 0, 150, 150);
        let send = p2p(CommOp::Send, 1, 0, 7, 0, 100, 150, 0);
        let input = input(vec![
            (vec![recv], spans(&[("newton.pcg", 0, 200_000_000)])),
            (vec![send], spans(&[])),
        ]);
        let rep = analyze(&input);
        assert_eq!(rep.matched.len(), 1);
        assert_eq!(rep.unmatched_sends + rep.unmatched_recvs, 0);
        let ls: Vec<&WaitState> =
            rep.waits.iter().filter(|w| w.kind == WaitKind::LateSender).collect();
        assert_eq!(ls.len(), 1, "{:?}", rep.waits);
        assert_eq!((ls[0].waiter, ls[0].culprit), (0, 1));
        assert!((ls[0].wait_s - 0.150).abs() < 1e-9, "wait {}", ls[0].wait_s);
        assert_eq!(ls[0].phase, "newton.pcg");
        let agg = rep
            .attribution
            .get(&("newton.pcg".to_string(), "recv".to_string(), 0, 1))
            .expect("attribution cell");
        assert_eq!(agg.count, 1);
        // Critical path jumps to the sender: it must not charge the
        // receiver's 150 ms wait as useful receiver time.
        assert!(rep.coverage > 0.99, "coverage {}", rep.coverage);
        assert!(rep.gate(0.9).is_ok(), "{:?}", rep.gate(0.9));
        let send_total = rep
            .path_totals
            .iter()
            .find(|(k, _)| k == "comm.send")
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        assert!(send_total > 0.0, "sender's send is on the path: {:?}", rep.path_totals);
    }

    #[test]
    fn trace_drop_counter_reaches_report_header_and_prometheus() {
        let a = coll(CommOp::Barrier, 0, 1, 0, 105);
        let b = coll(CommOp::Barrier, 1, 1, 100, 105);
        // A keep-all window that overflowed by 4 and a sampled one that
        // skipped 2 and evicted 1: 7 events the capture does not hold.
        let overflowed = RecorderSnapshot { seen: 4, recorded: 4, overwritten: 4, stride: 1, ..spans(&[]) };
        let sampled =
            RecorderSnapshot { seen: 3, recorded: 1, sampled_out: 2, overwritten: 1, stride: 2, ..spans(&[]) };
        let input = input(vec![(vec![a], overflowed), (vec![b], sampled)]);
        let rep = analyze(&input);
        assert_eq!(rep.trace_dropped, 7);
        assert!(
            rep.render(5, None).contains("7 trace event(s) dropped at capture"),
            "{}",
            rep.render(5, None)
        );
        assert!(
            rep.prometheus().contains("diffreg_trace_dropped_events_total 7"),
            "{}",
            rep.prometheus()
        );
    }

    #[test]
    fn collective_waits_and_imbalance() {
        // Rank 0 arrives at t=0, rank 1 at t=100; both leave at t=105.
        let a = coll(CommOp::Barrier, 0, 1, 0, 105);
        let b = coll(CommOp::Barrier, 1, 1, 100, 105);
        let input = input(vec![(vec![a], spans(&[])), (vec![b], spans(&[]))]);
        let rep = analyze(&input);
        assert_eq!(rep.collectives.len(), 1);
        assert_eq!(rep.incomplete_collectives, 0);
        let wac: Vec<&WaitState> =
            rep.waits.iter().filter(|w| w.kind == WaitKind::WaitAtCollective).collect();
        assert_eq!(wac.len(), 1);
        assert_eq!((wac[0].waiter, wac[0].culprit), (0, 1));
        assert!((wac[0].wait_s - 0.100).abs() < 1e-9);
        let imb: Vec<&WaitState> = rep
            .waits
            .iter()
            .filter(|w| w.kind == WaitKind::ImbalanceAtCollective)
            .collect();
        assert_eq!(imb.len(), 1);
        assert!((imb[0].wait_s - 0.100).abs() < 1e-9);
    }

    #[test]
    fn unmatched_and_incomplete_fail_the_gate() {
        let send = p2p(CommOp::Send, 0, 1, 9, 0, 0, 10, 0);
        let half = coll(CommOp::Allreduce, 0, 4, 0, 10); // csize 2, one record
        let input = input(vec![(vec![send, half], spans(&[]))]);
        let rep = analyze(&input);
        assert_eq!(rep.unmatched_sends, 1);
        assert_eq!(rep.incomplete_collectives, 1);
        let err = rep.gate(0.0).unwrap_err();
        assert!(err.contains("unmatched"), "{err}");
        assert!(err.contains("incomplete"), "{err}");
    }

    #[test]
    fn flatten_spans_labels_innermost() {
        let segs = flatten_spans(&spans(&[("outer", 0, 100), ("inner", 20, 50)]));
        assert_eq!(phase_at(&segs, 10), "outer");
        assert_eq!(phase_at(&segs, 30), "inner");
        assert_eq!(phase_at(&segs, 70), "outer");
        assert_eq!(phase_at(&segs, 150), UNTRACED);
        // Segments tile [0, 100] without overlap.
        let total: u64 = segs.iter().map(|(a, b, _)| b - a).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn analysis_and_renderings_are_deterministic() {
        let recv = p2p(CommOp::Recv, 0, 1, 7, 0, 0, 150, 150);
        let send = p2p(CommOp::Send, 1, 0, 7, 0, 100, 150, 0);
        let a = coll(CommOp::Allreduce, 0, 2, 150, 260);
        let b = coll(CommOp::Allreduce, 1, 2, 250, 260);
        let input = input(vec![
            (vec![recv, a], spans(&[("newton.pcg", 0, 260_000_000)])),
            (vec![send, b], spans(&[("fft.transpose", 0, 250_000_000)])),
        ]);
        let r1 = analyze(&input);
        let r2 = analyze(&input);
        assert_eq!(r1.render(8, None), r2.render(8, None));
        assert_eq!(r1.render_wait_table(), r2.render_wait_table());
        assert_eq!(r1.prometheus(), r2.prometheus());
        assert!(r1.render(8, None).contains("wait-state doctor"));
        assert!(r1.prometheus().contains("diffreg_comm_op_seconds"));
    }

    #[test]
    fn bundle_roundtrips_through_disk() {
        let recv = p2p(CommOp::Recv, 0, 1, 5, 0, 0, 40, 30);
        let send = p2p(CommOp::Send, 1, 0, 5, 0, 30, 40, 0);
        // Span names with quotes, backslashes and non-ASCII survive the disk.
        let captures = vec![
            RankCapture { rank: 0, events: vec![recv], recorder: spans(&[("q\"\\é", 3, 1_234_567)]) },
            RankCapture { rank: 1, events: vec![send], recorder: spans(&[]) },
        ];
        let mut metrics = MetricsRegistry::new();
        metrics.observe("diffreg_interp_scatter_points", 128.0);
        let dir = std::env::temp_dir().join(format!(
            "diffreg-doctor-test-{}-{}",
            std::process::id(),
            diffreg_comm::monotonic_ns()
        ));
        write_trace_bundle(&dir, &captures, Some(&metrics)).unwrap();
        let input = DoctorInput::load_dir(&dir).unwrap();
        assert_eq!(input.ranks, captures, "events and nanosecond spans read back exactly");
        assert_eq!(input.metrics.histogram("diffreg_interp_scatter_points").unwrap().count(), 1);
        let rep = analyze(&input);
        assert_eq!(rep.matched.len(), 1);
        assert!(rep.gate(0.9).is_ok(), "{:?}", rep.gate(0.9));
        std::fs::remove_dir_all(&dir).ok();
    }
}
