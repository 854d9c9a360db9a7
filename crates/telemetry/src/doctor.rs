//! Cross-rank wait-state doctor: merges every rank's event ring — spans
//! and comm records in one stream — matches point-to-point sends to
//! receives, groups collectives by epoch, classifies wait states
//! Scalasca-style, walks the cross-rank critical path, and renders a
//! deterministic report + Prometheus snapshot.
//!
//! ## Inputs
//!
//! A *bundle* directory written by [`write_trace_bundle`] and read back by
//! [`DoctorInput::load_dir`], the one bundle reader:
//!
//! * `recorder-rank<k>.jsonl` — rank `k`'s event ring
//!   ([`RecorderSnapshot`], format in [`crate::recorder`]): one header line
//!   with the exact drop accounting, then one line per retained event. Its
//!   spans give the doctor its phase attribution, to the nanosecond; its
//!   comm records ([`RecKind::Comm`]) carry the matching keys.
//! * `metrics.json` — optional [`MetricsRegistry`] snapshot the run exported
//!   (the serve dashboard, say); [`analyze`] merges its derived metrics
//!   into it.
//! * `trace.json` — the Chrome trace of the same capture
//!   ([`crate::chrome_trace`]) for Perfetto. Write-only: nothing reads it
//!   back.
//!
//! An incident bundle (see [`crate::incident`]) is the same files plus
//! `incident.json` and `convergence.jsonl`.
//!
//! ## Matching
//!
//! P2p records match on the key `(comm, src, dst, tag, seq)` — exact,
//! because channels are FIFO per `(src, dst)` pair and the pending queue
//! preserves per-tag order, so the n-th send on a stream is the n-th
//! receive. Collective records group on `(comm, op, epoch)`; a group is
//! complete when all `csize` member records arrived.
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

use crate::json::Json;
use crate::metrics::{escape_label_value, MetricsRegistry};
use crate::recorder::{
    recorder_from_jsonl, recorder_to_jsonl, CommKey, CommOp, RecEvent, RecKind, RecorderSnapshot,
};

/// Phase label for time not covered by any span.
pub const UNTRACED: &str = "(untraced)";

/// One rank's contribution to a capture: its event ring. Bundle files are
/// keyed by `rank` — the world rank of a solver run, the gang-local rank of
/// a serve attempt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankCapture {
    /// Rank within the captured communicator (0-based).
    pub rank: usize,
    /// The rank's event ring with exact drop accounting: its spans are the
    /// doctor's phase timeline, its comm records what it matches.
    pub recorder: RecorderSnapshot,
}

/// Writes a bundle (`recorder-rank<k>.jsonl` for every rank, the
/// `trace.json` export and — when provided — `metrics.json`) into `dir`,
/// creating it if necessary.
pub fn write_trace_bundle(
    dir: impl AsRef<Path>,
    captures: &[RankCapture],
    metrics: Option<&MetricsRegistry>,
) -> std::io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    for c in captures {
        let name = format!("recorder-rank{}.jsonl", c.rank);
        std::fs::write(dir.join(name), recorder_to_jsonl(&c.recorder))?;
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
    /// capture part of an incident bundle): every `recorder-rank<k>.jsonl`,
    /// plus `metrics.json` when present. A directory with none of them
    /// loads as zero ranks.
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
        let rank_of = |name: &str| -> Option<usize> {
            name.strip_prefix("recorder-rank")?.strip_suffix(".jsonl")?.parse().ok()
        };
        let mut ranks: BTreeMap<usize, RecorderSnapshot> = BTreeMap::new();
        for name in &names {
            if let Some(rank) = rank_of(name) {
                ranks.insert(rank, read_bundle_file(dir, name, recorder_from_jsonl)?);
            }
        }
        let ranks = ranks.into_iter().map(|(rank, recorder)| RankCapture { rank, recorder }).collect();
        let metrics = if dir.join("metrics.json").is_file() {
            read_bundle_file(dir, "metrics.json", |text| {
                MetricsRegistry::from_json(&Json::parse(text)?)
            })?
        } else {
            MetricsRegistry::new()
        };
        Ok(DoctorInput { ranks, metrics })
    }
}

// ---------------------------------------------------------------------------
// Analysis results
// ---------------------------------------------------------------------------

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
    /// `(world rank, record)` members, sorted by world rank.
    pub members: Vec<(usize, RecEvent)>,
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

/// The four per-phase predictions of the paper's performance model, as plain
/// seconds (convert from `diffreg_perfmodel::Breakdown` at the call site so
/// this crate stays model-agnostic); [`DoctorReport::render`] prints them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredictedPhases {
    /// Predicted FFT communication seconds.
    pub fft_comm: f64,
    /// Predicted FFT execution seconds.
    pub fft_exec: f64,
    /// Predicted interpolation communication seconds.
    pub interp_comm: f64,
    /// Predicted interpolation execution seconds.
    pub interp_exec: f64,
}

/// The full doctor analysis of one run.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// The merged captures' ranks, in input order (the heat table's columns).
    pub ranks: Vec<usize>,
    /// Wall-clock seconds from first to last recorded activity.
    pub wall_s: f64,
    /// Total send events.
    pub p2p_sends: usize,
    /// Total receive events.
    pub p2p_recvs: usize,
    /// Matched send/receive pairs.
    pub matched: usize,
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
    /// Seconds per `(phase → per-rank vector)` from the span timelines, one
    /// entry per rank of `ranks`, in that order.
    pub phase_rank_seconds: BTreeMap<String, Vec<f64>>,
    /// Derived metrics (op latencies, wait histograms, span counts) merged
    /// with the registry the bundle carried.
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
    let mut sends: BTreeMap<P2pKey, (usize, &RecEvent)> = BTreeMap::new();
    let mut recvs: BTreeMap<P2pKey, (usize, &RecEvent)> = BTreeMap::new();
    let (mut p2p_sends, mut p2p_recvs) = (0usize, 0usize);
    // Key collisions (two events claiming the same match key) mean the
    // pairing is ambiguous; count each extra event as unmatched so the gate
    // sees the corruption instead of a silent overwrite hiding it.
    let (mut dup_sends, mut dup_recvs) = (0usize, 0usize);
    let mut groups: BTreeMap<(u64, CommOp, u64), CollectiveGroup> = BTreeMap::new();
    for r in &input.ranks {
        for (e, k) in r.recorder.comm_records() {
            match (k.op, k.p2p()) {
                (CommOp::Send, Some((peer, tag, seq))) => {
                    p2p_sends += 1;
                    if sends.insert((k.comm, k.rank, peer, tag, seq), (r.rank, e)).is_some() {
                        dup_sends += 1;
                    }
                }
                (CommOp::Recv, Some((peer, tag, seq))) => {
                    p2p_recvs += 1;
                    if recvs.insert((k.comm, peer, k.rank, tag, seq), (r.rank, e)).is_some() {
                        dup_recvs += 1;
                    }
                }
                (op, _) => {
                    let epoch = k.epoch().unwrap_or(0);
                    let g = groups.entry((k.comm, op, epoch)).or_insert_with(|| {
                        CollectiveGroup {
                            comm: k.comm,
                            op,
                            epoch,
                            csize: k.csize,
                            members: Vec::new(),
                        }
                    });
                    g.members.push((r.rank, e.clone()));
                }
            }
        }
    }
    // Matched pairs: (send rank, send, recv rank, recv), world ranks.
    let mut matched: Vec<(usize, &RecEvent, usize, &RecEvent)> = Vec::new();
    let mut unmatched_sends = dup_sends;
    for (key, &(send_rank, send)) in &sends {
        match recvs.get(key) {
            Some(&(recv_rank, recv)) => matched.push((send_rank, send, recv_rank, recv)),
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
    for &(send_rank, send, recv_rank, recv) in &matched {
        if recv.key.is_some_and(|k| k.blocked_ns > 0) && send.end_ns() > recv.t_ns {
            let end = send.end_ns().min(recv.end_ns());
            let wait_s = end.saturating_sub(recv.t_ns) as f64 / 1e9;
            if wait_s > 0.0 {
                waits.push(WaitState {
                    kind: WaitKind::LateSender,
                    op: CommOp::Recv,
                    phase: phase_at(timeline(recv_rank), recv.t_ns).to_string(),
                    waiter: recv_rank,
                    culprit: send_rank,
                    wait_s,
                    t_ns: recv.t_ns,
                });
            }
        }
    }
    for g in collectives.iter().filter(|g| g.is_complete() && g.members.len() > 1) {
        // Latest arrival (ties broken toward the lowest rank for stability).
        let (last_rank, last_t0) = g
            .members
            .iter()
            .map(|(r, e)| (*r, e.t_ns))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap_or((0, 0));
        let (first_rank, first_t0) = g
            .members
            .iter()
            .map(|(r, e)| (*r, e.t_ns))
            .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
            .unwrap_or((0, 0));
        for (r, e) in &g.members {
            if *r == last_rank || e.t_ns >= last_t0 {
                continue;
            }
            // Clamp to the member's own interval: it cannot have waited
            // longer than its op lasted.
            let wait_ns = last_t0.saturating_sub(e.t_ns).min(e.a);
            if wait_ns == 0 {
                continue;
            }
            waits.push(WaitState {
                kind: WaitKind::WaitAtCollective,
                op: g.op,
                phase: phase_at(timeline(*r), e.t_ns).to_string(),
                waiter: *r,
                culprit: last_rank,
                wait_s: wait_ns as f64 / 1e9,
                t_ns: e.t_ns,
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
    let mut recv_to_sender: BTreeMap<(usize, u64, u64), (usize, u64)> = BTreeMap::new();
    for &(send_rank, send, recv_rank, recv) in &matched {
        recv_to_sender.insert((recv_rank, recv.t_ns, recv.end_ns()), (send_rank, send.end_ns()));
    }
    let mut coll_last: BTreeMap<(u64, CommOp, u64), (usize, u64)> = BTreeMap::new();
    for g in collectives.iter().filter(|g| g.is_complete() && g.members.len() > 1) {
        if let Some((r, t0)) = g
            .members
            .iter()
            .map(|(r, e)| (*r, e.t_ns))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        {
            coll_last.insert((g.comm, g.op, g.epoch), (r, t0));
        }
    }
    // Per-rank comm records sorted by end time.
    let mut by_end: BTreeMap<usize, Vec<(&RecEvent, &CommKey)>> = BTreeMap::new();
    let mut t_begin = u64::MAX;
    let mut t_end = 0u64;
    let mut end_rank = input.ranks.first().map(|r| r.rank).unwrap_or(0);
    let mut total_events = 0usize;
    for r in &input.ranks {
        let mut evs: Vec<(&RecEvent, &CommKey)> = r.recorder.comm_records().collect();
        total_events += evs.len();
        evs.sort_by_key(|(e, _)| (e.end_ns(), e.t_ns));
        // The wall runs from the first start to the last end of any span or
        // comm record.
        for e in r.recorder.events.iter().filter(|e| matches!(e.kind, RecKind::Span | RecKind::Comm)) {
            t_begin = t_begin.min(e.t_ns);
            if e.end_ns() > t_end {
                t_end = e.end_ns();
                end_rank = r.rank;
            }
        }
        by_end.insert(r.rank, evs);
    }
    if t_begin == u64::MAX {
        t_begin = 0;
    }
    let wall_s = t_end.saturating_sub(t_begin) as f64 / 1e9;

    let empty_events: Vec<(&RecEvent, &CommKey)> = Vec::new();
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
        let mut i = evs.partition_point(|(e, _)| e.end_ns() <= cur_t);
        let mut ev = None;
        while i > 0 {
            i -= 1;
            if evs[i].0.t_ns < cur_t {
                ev = Some(evs[i]);
                break;
            }
        }
        let Some((ev, key)) = ev else {
            attribute_interval(&mut path, timeline(cur_rank), cur_rank, t_begin, cur_t);
            cur_t = t_begin;
            break;
        };
        let (t0_ns, t1_ns) = (ev.t_ns, ev.end_ns());
        // Compute stretch between the record's end and the cursor.
        attribute_interval(&mut path, timeline(cur_rank), cur_rank, t1_ns, cur_t);
        cur_t = cur_t.min(t1_ns);
        let kind = format!("comm.{}", key.op.name());
        if key.op == CommOp::Recv && key.blocked_ns > 0 {
            if let Some(&(s_rank, s_end)) = recv_to_sender.get(&(cur_rank, t0_ns, t1_ns)) {
                // The receiver was waiting: the dependency chain continues on
                // the sender from the moment the message became available.
                let jump_t = s_end.min(t1_ns).max(t0_ns);
                if jump_t < cur_t {
                    path.push(PathSegment { rank: cur_rank, t0_ns: jump_t, t1_ns: cur_t, kind });
                }
                cur_rank = s_rank;
                cur_t = jump_t;
                continue;
            }
        }
        if let (Some(epoch), true) = (key.epoch(), key.blocked_ns > 0) {
            if let Some(&(l_rank, l_t0)) = coll_last.get(&(key.comm, key.op, epoch)) {
                if l_rank != cur_rank {
                    let jump_t = l_t0.clamp(t0_ns, t1_ns).min(cur_t);
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
        if t0_ns < cur_t {
            path.push(PathSegment { rank: cur_rank, t0_ns, t1_ns: cur_t, kind });
        }
        cur_t = t0_ns;
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
        for (e, k) in r.recorder.comm_records() {
            let op = k.op.name();
            metrics.inc_counter(&format!("diffreg_comm_events_total{{op=\"{op}\"}}"), 1);
            metrics.observe(&format!("diffreg_comm_op_seconds{{op=\"{op}\"}}"), e.a as f64 / 1e9);
        }
        // A span that counted something (interp.plan: points routed,
        // interp.eval: values evaluated) yields one observation per call.
        for e in r.recorder.events.iter().filter(|e| e.kind == RecKind::Span && e.b > 0) {
            let span = escape_label_value(&e.name);
            metrics.observe(&format!("diffreg_span_count{{span=\"{span}\"}}"), e.b as f64);
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
    let matched = matched.len();
    metrics.inc_counter("diffreg_doctor_p2p_matched_total", matched as u64);
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
        ranks: input.ranks.iter().map(|r| r.rank).collect(),
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
            self.ranks.len(), self.wall_s, self.trace_dropped
        );
        let _ = writeln!(
            out,
            "p2p: {}/{} sends matched ({} unmatched sends, {} unmatched recvs)",
            self.matched,
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
        for r in &self.ranks {
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
    use crate::recorder::StreamPos;

    /// The given `(name, t0_ns, t1_ns)` spans.
    fn spans(spans: &[(&'static str, u64, u64)]) -> Vec<RecEvent> {
        let span = |&(name, t0, t1): &(&'static str, u64, u64)| RecEvent {
            t_ns: t0, kind: RecKind::Span, name: name.into(), a: t1 - t0, b: 0, key: None,
        };
        spans.iter().map(span).collect()
    }

    /// A complete keep-all window holding `events`.
    fn window(events: Vec<RecEvent>) -> RecorderSnapshot {
        let n = events.len() as u64;
        RecorderSnapshot { events, seen: n, recorded: n, stride: 1, ..Default::default() }
    }

    /// One rank per window, in order.
    fn input(windows: impl IntoIterator<Item = RecorderSnapshot>) -> DoctorInput {
        let ranks = windows.into_iter().enumerate();
        let ranks = ranks.map(|(rank, recorder)| RankCapture { rank, recorder }).collect();
        DoctorInput { ranks, metrics: MetricsRegistry::new() }
    }

    /// A comm record on a two-rank world communicator, 64 bytes.
    fn ev(op: CommOp, rank: usize, pos: StreamPos, t0_ms: u64, t1_ms: u64, blocked_ms: u64) -> RecEvent {
        let ms = 1_000_000;
        let key = Some(CommKey { op, comm: 0, csize: 2, rank, pos, blocked_ns: blocked_ms * ms });
        let (t_ns, a) = (t0_ms * ms, (t1_ms - t0_ms) * ms);
        RecEvent { t_ns, kind: RecKind::Comm, name: op.name().into(), a, b: 64, key }
    }

    /// A p2p record at `seq` 0 on `(rank, peer, tag)`.
    fn p2p(op: CommOp, rank: usize, peer: usize, tag: u64, t0: u64, t1: u64, blocked: u64) -> RecEvent {
        ev(op, rank, StreamPos::P2p { peer, tag, seq: 0 }, t0, t1, blocked)
    }

    /// A collective record blocked for its whole interval.
    fn coll(op: CommOp, rank: usize, epoch: u64, t0_ms: u64, t1_ms: u64) -> RecEvent {
        ev(op, rank, StreamPos::Collective { epoch }, t0_ms, t1_ms, t1_ms - t0_ms)
    }


    #[test]
    fn late_sender_is_classified_and_attributed() {
        // Rank 0 posts its recv at t=0 and blocks; rank 1 sends at t=100.
        let recv = p2p(CommOp::Recv, 0, 1, 7, 0, 150, 150);
        let send = p2p(CommOp::Send, 1, 0, 7, 100, 150, 0);
        let pcg = spans(&[("newton.pcg", 0, 200_000_000)]);
        let input = input([[pcg, vec![recv]].concat(), vec![send]].map(window));
        let rep = analyze(&input);
        assert_eq!(rep.matched, 1);
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
        let overflowed = RecorderSnapshot { seen: 5, recorded: 5, overwritten: 4, ..window(vec![a]) };
        let (seen, recorded, sampled_out, overwritten, stride) = (4, 2, 2, 1, 2);
        let sampled = RecorderSnapshot { seen, recorded, sampled_out, overwritten, stride, ..window(vec![b]) };
        let input = input([overflowed, sampled]);
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
        let input = input([vec![a], vec![b]].map(window));
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
        let send = p2p(CommOp::Send, 0, 1, 9, 0, 10, 0);
        let half = coll(CommOp::Allreduce, 0, 4, 0, 10); // csize 2, one record
        let input = input([window(vec![send, half])]);
        let rep = analyze(&input);
        assert_eq!(rep.unmatched_sends, 1);
        assert_eq!(rep.incomplete_collectives, 1);
        let err = rep.gate(0.0).unwrap_err();
        assert!(err.contains("unmatched"), "{err}");
        assert!(err.contains("incomplete"), "{err}");
    }

    #[test]
    fn counted_spans_derive_one_histogram_per_span_name() {
        let mut rec = spans(&[("interp.plan", 0, 10), ("interp.eval", 10, 20), ("interp.eval", 20, 30)]);
        for (e, count) in rec.iter_mut().zip([96, 192, 0]) {
            e.b = count;
        }
        let rep = analyze(&input([window(rec)]));
        let plan = rep.metrics.histogram("diffreg_span_count{span=\"interp.plan\"}").unwrap();
        assert_eq!((plan.count(), plan.sum()), (1, 96.0));
        let eval = rep.metrics.histogram("diffreg_span_count{span=\"interp.eval\"}").unwrap();
        assert_eq!((eval.count(), eval.sum()), (1, 192.0), "a zero count is no observation");
    }

    #[test]
    fn heat_table_labels_columns_by_capture_rank() {
        let mut input = input([("fft.forward", 0, 10), ("fft.forward", 0, 30)].map(|s| window(spans(&[s]))));
        input.ranks[1].rank = 2;
        let table = analyze(&input).render_heat_table();
        let header: Vec<&str> = table.lines().nth(1).unwrap().split_whitespace().collect();
        assert_eq!(header, ["phase", "r0", "r2", "imbal"], "{table}");
    }

    #[test]
    fn flatten_spans_labels_innermost() {
        let segs = flatten_spans(&window(spans(&[("outer", 0, 100), ("inner", 20, 50)])));
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
        let recv = p2p(CommOp::Recv, 0, 1, 7, 0, 150, 150);
        let send = p2p(CommOp::Send, 1, 0, 7, 100, 150, 0);
        let a = coll(CommOp::Allreduce, 0, 2, 150, 260);
        let b = coll(CommOp::Allreduce, 1, 2, 250, 260);
        let input = input([
            [spans(&[("newton.pcg", 0, 260_000_000)]), vec![recv, a]].concat(),
            [spans(&[("fft.transpose", 0, 250_000_000)]), vec![send, b]].concat(),
        ]
        .map(window));
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
        let recv = p2p(CommOp::Recv, 0, 1, 5, 0, 40, 30);
        let send = p2p(CommOp::Send, 1, 0, 5, 30, 40, 0);
        // Span names with quotes, backslashes and non-ASCII survive the disk.
        let hostile = spans(&[("q\"\\é", 3, 1_234_567)]);
        let captures = vec![
            RankCapture { rank: 0, recorder: window([hostile, vec![recv]].concat()) },
            RankCapture { rank: 1, recorder: window(vec![send]) },
        ];
        let mut metrics = MetricsRegistry::new();
        metrics.set_gauge("serve_pool_ranks", 2.0);
        let dir = std::env::temp_dir().join(format!(
            "diffreg-doctor-test-{}-{}",
            std::process::id(),
            diffreg_comm::monotonic_ns()
        ));
        write_trace_bundle(&dir, &captures, Some(&metrics)).unwrap();
        let input = DoctorInput::load_dir(&dir).unwrap();
        assert_eq!(input.ranks, captures, "comm records and nanosecond spans read back exactly");
        assert_eq!(input.metrics.gauge("serve_pool_ranks"), Some(2.0));
        let rep = analyze(&input);
        assert_eq!(rep.matched, 1);
        assert!(rep.gate(0.9).is_ok(), "{:?}", rep.gate(0.9));
        std::fs::remove_dir_all(&dir).ok();
    }
}
