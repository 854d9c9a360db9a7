//! Span-derived continuous profiler.
//!
//! Folds the span stream of per-rank event rings ([`RecorderSnapshot`] —
//! live, or read back from either bundle flavour) into exact self/child
//! wall-time profiles per (rank, stack) and exports deterministic
//! collapsed-stack flamegraphs (`.folded`, the speedscope/inferno
//! interchange format).
//!
//! Two projections of the same profile exist on purpose:
//!
//! * **count-weighted** ([`Profile::render_folded`]) — one unit per span
//!   occurrence. This is the *timestamp-free projection*: a seeded replay
//!   executes the identical span sequence, so the rendered bytes are
//!   identical across replays even though wall clocks differ. CI pins
//!   this property.
//! * **self-time-weighted** ([`Profile::render_folded_self_ns`]) — one
//!   unit per nanosecond of exclusive time. This is the flamegraph a
//!   human reads to find where the wall clock went; it is *not*
//!   replay-stable.
//!
//! Dropped-span accounting rides along: the rings' sampling and eviction
//! counts are folded into a synthetic `[dropped]` frame so a profile can
//! never silently claim full coverage.

use std::collections::BTreeMap;

use crate::recorder::RecorderSnapshot;

/// Aggregate statistics for one exact call stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStat {
    /// Span occurrences with this exact stack.
    pub count: u64,
    /// Exclusive wall time: inclusive time minus direct children.
    pub self_ns: u64,
    /// Inclusive wall time.
    pub total_ns: u64,
}

/// One row of the per-phase aggregate (leaf frame across all ranks/stacks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Leaf frame name (the span name).
    pub phase: String,
    /// Occurrences.
    pub count: u64,
    /// Exclusive wall time summed over every occurrence.
    pub self_ns: u64,
    /// Inclusive wall time summed over every occurrence.
    pub total_ns: u64,
}

/// One row of a differential profile: current vs baseline self time for a
/// phase, ranked by regression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseDelta {
    /// Leaf frame name.
    pub phase: String,
    /// Self time in the current profile.
    pub self_ns: u64,
    /// Self time in the baseline profile.
    pub base_self_ns: u64,
    /// `self_ns - base_self_ns` (positive = regression).
    pub delta_ns: i64,
}

/// A folded profile: exact self/child wall time per (rank, stack).
///
/// Stack keys are semicolon-joined frame paths rooted at a `rank<k>`
/// frame, e.g. `rank0;serve.plan` or `rank1;fft.forward;fft.transpose`.
/// A `BTreeMap` keeps every export deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Stack key → aggregate stats.
    pub stacks: BTreeMap<String, StackStat>,
    /// Spans (and recorder events) not represented in `stacks`: the rings'
    /// sampling and eviction counts.
    pub dropped: u64,
}

/// An open frame during the containment sweep.
struct OpenFrame {
    t1: u64,
    key: String,
    dur: u64,
    child_ns: u64,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Folds one rank's span intervals `(t0_ns, t1_ns, name)` into the
    /// profile under the `rank<k>` root frame.
    ///
    /// Nesting is reconstructed by containment: intervals are sorted by
    /// `(t0 asc, t1 desc)` and swept with a stack, so properly nested
    /// spans (the only kind one thread produces) recover their exact
    /// parent chain; spans store no depth. Self time is
    /// inclusive time minus the sum of *direct* children.
    pub fn add_rank_intervals(&mut self, rank: usize, mut intervals: Vec<(u64, u64, String)>) {
        intervals.sort_by(|x, y| x.0.cmp(&y.0).then(y.1.cmp(&x.1)).then(x.2.cmp(&y.2)));
        let root = format!("rank{rank}");
        let mut stack: Vec<OpenFrame> = Vec::new();
        for (t0, t1, name) in intervals {
            while stack.last().is_some_and(|f| f.t1 <= t0) {
                if let Some(f) = stack.pop() {
                    self.close_frame(f);
                }
            }
            let key = match stack.last() {
                Some(parent) => format!("{};{name}", parent.key),
                None => format!("{root};{name}"),
            };
            let dur = t1.saturating_sub(t0);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur;
            }
            stack.push(OpenFrame { t1, key, dur, child_ns: 0 });
        }
        while let Some(f) = stack.pop() {
            self.close_frame(f);
        }
    }

    fn close_frame(&mut self, f: OpenFrame) {
        let st = self.stacks.entry(f.key).or_default();
        st.count += 1;
        st.total_ns += f.dur;
        st.self_ns += f.dur.saturating_sub(f.child_ns);
    }

    /// Folds per-rank event rings, one `(rank, snapshot)` pair each. Only
    /// `Span` events contribute stacks; sampling and ring-eviction counters
    /// feed the `[dropped]` accounting.
    pub fn from_recorders<'a>(
        recs: impl IntoIterator<Item = (usize, &'a RecorderSnapshot)>,
    ) -> Profile {
        let mut p = Profile::new();
        for (rank, snap) in recs {
            let iv = snap.spans().map(|(t0, t1, name)| (t0, t1, name.to_string())).collect();
            p.add_rank_intervals(rank, iv);
            p.dropped += snap.dropped();
        }
        p
    }

    /// The canonical count-weighted collapsed-stack export (the
    /// timestamp-free projection; see the module docs). One line per
    /// stack, `stack;frames count`, in lexicographic stack order, closed
    /// by a `[dropped] N` accounting line.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for (key, st) in &self.stacks {
            out.push_str(key);
            out.push(' ');
            out.push_str(&st.count.to_string());
            out.push('\n');
        }
        out.push_str(&format!("[dropped] {}\n", self.dropped));
        out
    }

    /// The self-time-weighted collapsed-stack export (weight = exclusive
    /// nanoseconds). This is the flamegraph to read for wall-clock
    /// attribution; it is not replay-stable.
    pub fn render_folded_self_ns(&self) -> String {
        let mut out = String::new();
        for (key, st) in &self.stacks {
            out.push_str(key);
            out.push(' ');
            out.push_str(&st.self_ns.to_string());
            out.push('\n');
        }
        out.push_str(&format!("[dropped] {}\n", self.dropped));
        out
    }

    /// Aggregates stacks by leaf frame (phase) across all ranks, sorted
    /// by self time descending (name ascending on ties).
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let mut by_phase: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (key, st) in &self.stacks {
            let leaf = key.rsplit(';').next().unwrap_or(key);
            let e = by_phase.entry(leaf).or_default();
            e.0 += st.count;
            e.1 += st.self_ns;
            e.2 += st.total_ns;
        }
        let mut rows: Vec<PhaseRow> = by_phase
            .into_iter()
            .map(|(phase, (count, self_ns, total_ns))| PhaseRow {
                phase: phase.to_string(),
                count,
                self_ns,
                total_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.phase.cmp(&b.phase)));
        rows
    }

    /// Renders the top-`top` self-time table plus dropped-span accounting.
    pub fn render_table(&self, top: usize) -> String {
        let rows = self.phase_rows();
        let mut out = String::from("phase                            count      self_ms     total_ms\n");
        for r in rows.iter().take(top) {
            out.push_str(&format!(
                "{:<32} {:>6} {:>12.3} {:>12.3}\n",
                r.phase,
                r.count,
                r.self_ns as f64 / 1e6,
                r.total_ns as f64 / 1e6
            ));
        }
        out.push_str(&format!(
            "stacks: {}  spans: {}  dropped: {}\n",
            self.stacks.len(),
            rows.iter().map(|r| r.count).sum::<u64>(),
            self.dropped
        ));
        out
    }
}

/// Differential profile: per-phase self-time deltas of `current` against
/// `baseline`, ranked by regression (largest `delta_ns` first; name
/// ascending on ties). Phases present in only one profile count as zero
/// in the other.
pub fn diff_phases(current: &Profile, baseline: &Profile) -> Vec<PhaseDelta> {
    let mut merged: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in current.phase_rows() {
        merged.entry(r.phase).or_default().0 = r.self_ns;
    }
    for r in baseline.phase_rows() {
        merged.entry(r.phase).or_default().1 = r.self_ns;
    }
    let mut deltas: Vec<PhaseDelta> = merged
        .into_iter()
        .map(|(phase, (cur, base))| PhaseDelta {
            phase,
            self_ns: cur,
            base_self_ns: base,
            delta_ns: cur as i64 - base as i64,
        })
        .collect();
    deltas.sort_by(|a, b| b.delta_ns.cmp(&a.delta_ns).then(a.phase.cmp(&b.phase)));
    deltas
}

/// Renders a differential table (top `top` phases by regression).
pub fn render_diff(deltas: &[PhaseDelta], top: usize) -> String {
    let mut out =
        String::from("phase                              self_ms  baseline_ms     delta_ms\n");
    for d in deltas.iter().take(top) {
        out.push_str(&format!(
            "{:<32} {:>9.3} {:>12.3} {:>+12.3}\n",
            d.phase,
            d.self_ns as f64 / 1e6,
            d.base_self_ns as f64 / 1e6,
            d.delta_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(t0: u64, t1: u64, name: &str) -> (u64, u64, String) {
        (t0, t1, name.to_string())
    }

    #[test]
    fn fold_reconstructs_nesting_and_exact_self_time() {
        let mut p = Profile::new();
        // outer [0,100) contains a [10,30) and b [40,90); b contains c [50,60).
        p.add_rank_intervals(
            0,
            vec![iv(0, 100, "outer"), iv(10, 30, "a"), iv(40, 90, "b"), iv(50, 60, "c")],
        );
        let get = |k: &str| p.stacks.get(k).copied().unwrap();
        assert_eq!(get("rank0;outer"), StackStat { count: 1, self_ns: 30, total_ns: 100 });
        assert_eq!(get("rank0;outer;a"), StackStat { count: 1, self_ns: 20, total_ns: 20 });
        assert_eq!(get("rank0;outer;b"), StackStat { count: 1, self_ns: 40, total_ns: 50 });
        assert_eq!(get("rank0;outer;b;c"), StackStat { count: 1, self_ns: 10, total_ns: 10 });
        assert_eq!(p.stacks.len(), 4);
    }

    #[test]
    fn siblings_do_not_nest() {
        let mut p = Profile::new();
        p.add_rank_intervals(0, vec![iv(0, 10, "a"), iv(10, 20, "b"), iv(25, 30, "a")]);
        assert_eq!(p.stacks.get("rank0;a").map(|s| s.count), Some(2));
        assert_eq!(p.stacks.get("rank0;b").map(|s| s.count), Some(1));
        assert_eq!(p.stacks.len(), 2);
    }

    #[test]
    fn count_projection_is_timestamp_free() {
        // Same span sequence, wildly different wall clocks: identical bytes.
        let mut a = Profile::new();
        a.add_rank_intervals(0, vec![iv(0, 100, "x"), iv(5, 20, "y")]);
        let mut b = Profile::new();
        b.add_rank_intervals(0, vec![iv(7_000, 9_500, "x"), iv(7_100, 8_000, "y")]);
        assert_eq!(a.render_folded(), b.render_folded());
        assert_eq!(a.render_folded(), "rank0;x 1\nrank0;x;y 1\n[dropped] 0\n");
        // The self-time projection legitimately differs.
        assert_ne!(a.render_folded_self_ns(), b.render_folded_self_ns());
    }

    #[test]
    fn input_order_does_not_matter() {
        let spans = vec![iv(0, 100, "outer"), iv(10, 30, "a"), iv(40, 90, "b")];
        let mut rev = spans.clone();
        rev.reverse();
        let mut p1 = Profile::new();
        p1.add_rank_intervals(1, spans);
        let mut p2 = Profile::new();
        p2.add_rank_intervals(1, rev);
        assert_eq!(p1, p2);
    }

    #[test]
    fn dropped_accounting_rides_the_export() {
        let mut p = Profile::new();
        p.add_rank_intervals(0, vec![iv(0, 10, "a")]);
        p.dropped = 7;
        assert!(p.render_folded().ends_with("[dropped] 7\n"));
        assert!(p.render_table(10).contains("dropped: 7"));
    }

    #[test]
    fn differential_ranks_slowed_phase_first() {
        let mut base = Profile::new();
        base.add_rank_intervals(0, vec![iv(0, 100, "fft"), iv(100, 200, "interp")]);
        let mut cur = Profile::new();
        // interp slowed 10x, fft unchanged.
        cur.add_rank_intervals(0, vec![iv(0, 100, "fft"), iv(100, 1_100, "interp")]);
        let deltas = diff_phases(&cur, &base);
        assert_eq!(deltas[0].phase, "interp");
        assert_eq!(deltas[0].delta_ns, 900);
        assert_eq!(deltas[1].phase, "fft");
        assert_eq!(deltas[1].delta_ns, 0);
        let text = render_diff(&deltas, 5);
        let interp_line = text.lines().nth(1).unwrap_or("");
        assert!(interp_line.starts_with("interp"), "slowed phase first: {text}");
    }

    #[test]
    fn phase_missing_from_baseline_counts_from_zero() {
        let base = Profile::new();
        let mut cur = Profile::new();
        cur.add_rank_intervals(0, vec![iv(0, 50, "new_phase")]);
        let deltas = diff_phases(&cur, &base);
        assert_eq!(deltas[0].phase, "new_phase");
        assert_eq!(deltas[0].base_self_ns, 0);
        assert_eq!(deltas[0].delta_ns, 50);
    }
}
