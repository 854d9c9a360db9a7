//! The solver telemetry stream: one structured record per Newton iteration
//! (objective, relative gradient, PCG iterations, Eisenstat–Walker forcing,
//! step length, β level) plus discrete solver events (checkpoints, resumes,
//! level transitions, faults), emitted as JSON-lines and as the paper's
//! convergence-table text format (cf. CLAIRE's per-iteration logs).

use crate::json::Json;

/// One per-Newton-iteration record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterRecord {
    /// β-continuation level index (0-based).
    pub level: usize,
    /// Regularization weight at this level.
    pub beta: f64,
    /// Outer iteration index within the level (1-based, counts accepted
    /// steps; on resume continues the original numbering).
    pub iter: usize,
    /// Objective `J` at the start of the iteration.
    pub objective: f64,
    /// Gradient norm at the start of the iteration.
    pub grad_norm: f64,
    /// Relative gradient norm `‖g‖/‖g₀‖`.
    pub rel_grad: f64,
    /// Inner PCG iterations (Hessian matvecs) spent on the step.
    pub pcg_iters: usize,
    /// Eisenstat–Walker forcing term η used for the inner solve.
    pub eta: f64,
    /// Accepted Armijo step length.
    pub step_length: f64,
}

/// A discrete solver event on the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverEvent {
    /// Event kind (`"checkpoint"`, `"checkpoint-fallback"`, `"resume"`,
    /// `"checkpoint-drop"` (the ranks did not agree on a checkpoint and
    /// start fresh), `"level"`, `"fault"`, `"summary"`, ...).
    pub kind: String,
    /// β-continuation level the event belongs to.
    pub level: usize,
    /// Outer iteration count when the event fired.
    pub iter: usize,
    /// Free-form detail.
    pub detail: String,
}

/// Entries in stream order (iterations and events interleaved as emitted).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEntry {
    /// A per-iteration record.
    Iter(IterRecord),
    /// A discrete event.
    Event(SolverEvent),
}

/// An in-memory solver telemetry stream. Cheap to append; serialize with
/// [`ConvergenceLog::to_jsonl`] / [`ConvergenceLog::render_table`].
///
/// A log keeps every entry; [`ConvergenceLog::tail`] cuts the newest `n`
/// out of it for an incident capture.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceLog {
    /// Run label carried into every JSON record (`"run"` field).
    pub run: String,
    /// The stream entries in emission order.
    pub entries: Vec<StreamEntry>,
    /// Older entries a [`tail`](ConvergenceLog::tail) left out (0 for a
    /// whole log).
    pub evicted: u64,
}

impl ConvergenceLog {
    /// A new empty stream labelled `run`.
    pub fn new(run: impl Into<String>) -> Self {
        Self { run: run.into(), entries: Vec::new(), evicted: 0 }
    }

    /// Appends one stream entry (the solver's observer callback hands these
    /// out in order).
    pub fn push(&mut self, entry: StreamEntry) {
        self.entries.push(entry);
    }

    /// Appends a per-iteration record.
    pub fn record(&mut self, rec: IterRecord) {
        self.push(StreamEntry::Iter(rec));
    }

    /// Appends a discrete event.
    pub fn event(&mut self, kind: &str, level: usize, iter: usize, detail: impl Into<String>) {
        self.push(StreamEntry::Event(SolverEvent {
            kind: kind.to_string(),
            level,
            iter,
            detail: detail.into(),
        }));
    }

    /// The newest `n` entries (all of them when `n` exceeds the count) as a
    /// fresh log carrying the same run label plus the exact count of
    /// entries *not* included — the incident bundle's convergence tail.
    pub fn tail(&self, n: usize) -> ConvergenceLog {
        let skip = self.entries.len().saturating_sub(n);
        ConvergenceLog {
            run: self.run.clone(),
            entries: self.entries[skip..].to_vec(),
            evicted: self.evicted + skip as u64,
        }
    }

    /// All per-iteration records in order.
    pub fn iterations(&self) -> impl Iterator<Item = &IterRecord> {
        self.entries.iter().filter_map(|e| match e {
            StreamEntry::Iter(r) => Some(r),
            StreamEntry::Event(_) => None,
        })
    }

    /// All events in order.
    pub fn events(&self) -> impl Iterator<Item = &SolverEvent> {
        self.entries.iter().filter_map(|e| match e {
            StreamEntry::Event(ev) => Some(ev),
            StreamEntry::Iter(_) => None,
        })
    }

    /// Serializes the stream as JSON-lines: one object per entry, each with
    /// a `"type"` discriminator (`"iter"` / `"event"`) and the run label.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let json = match e {
                StreamEntry::Iter(r) => Json::obj()
                    .set("type", "iter")
                    .set("run", self.run.as_str())
                    .set("level", r.level)
                    .set("beta", r.beta)
                    .set("iter", r.iter)
                    .set("J", r.objective)
                    .set("gnorm", r.grad_norm)
                    .set("gnorm_rel", r.rel_grad)
                    .set("pcg_iters", r.pcg_iters)
                    .set("eta", r.eta)
                    .set("step", r.step_length),
                StreamEntry::Event(ev) => Json::obj()
                    .set("type", "event")
                    .set("run", self.run.as_str())
                    .set("kind", ev.kind.as_str())
                    .set("level", ev.level)
                    .set("iter", ev.iter)
                    .set("detail", ev.detail.as_str()),
            };
            out.push_str(&json.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders the paper's convergence-table text format: one row per
    /// Newton iteration with β level, J, relative gradient, PCG iterations,
    /// forcing term, and step length; events appear as annotated lines.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "convergence history ({}):", self.run);
        let _ = writeln!(
            out,
            "  {:>5} {:>10} {:>4} {:>13} {:>11} {:>5} {:>9} {:>7}",
            "level", "beta", "it", "J", "||g||_rel", "PCG", "eta", "step"
        );
        let _ = writeln!(out, "  {}", "-".repeat(70));
        for e in &self.entries {
            match e {
                StreamEntry::Iter(r) => {
                    let _ = writeln!(
                        out,
                        "  {:>5} {:>10.1e} {:>4} {:>13.6e} {:>11.4e} {:>5} {:>9.2e} {:>7.3}",
                        r.level,
                        r.beta,
                        r.iter,
                        r.objective,
                        r.rel_grad,
                        r.pcg_iters,
                        r.eta,
                        r.step_length
                    );
                }
                StreamEntry::Event(ev) => {
                    let _ = writeln!(
                        out,
                        "  * level {} it {}: [{}] {}",
                        ev.level, ev.iter, ev.kind, ev.detail
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(level: usize, iter: usize) -> IterRecord {
        IterRecord {
            level,
            beta: 1e-2 / (level + 1) as f64,
            iter,
            objective: 1.0 / iter as f64,
            grad_norm: 0.5 / iter as f64,
            rel_grad: 0.5f64.powi(iter as i32),
            pcg_iters: 3 + iter,
            eta: 0.25,
            step_length: 1.0,
        }
    }

    #[test]
    fn jsonl_parses_line_by_line() {
        let mut log = ConvergenceLog::new("test-run");
        log.event("level", 0, 0, "beta=1e-2");
        log.record(rec(0, 1));
        log.record(rec(0, 2));
        log.event("checkpoint", 0, 2, "saved");
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let v = Json::parse(line).unwrap();
            assert!(v.get("type").is_some());
            assert_eq!(v.get("run").unwrap().as_str().unwrap(), "test-run");
        }
        let it = Json::parse(lines[1]).unwrap();
        assert_eq!(it.get("type").unwrap().as_str().unwrap(), "iter");
        assert_eq!(it.get("pcg_iters").unwrap().as_f64().unwrap(), 4.0);
    }

    #[test]
    fn tail_keeps_newest_entries_and_counts_what_it_skips() {
        let mut whole = ConvergenceLog::new("svc");
        for i in 1..=10 {
            whole.record(rec(0, i));
        }
        assert_eq!((whole.entries.len(), whole.evicted), (10, 0), "a log keeps everything");
        let log = whole.tail(4);
        assert_eq!(log.entries.len(), 4);
        assert_eq!(log.evicted, 6, "every skipped entry counted");
        let iters: Vec<usize> = log.iterations().map(|r| r.iter).collect();
        assert_eq!(iters, vec![7, 8, 9, 10], "newest entries survive");

        // A tail of a tail narrows further and adds what it skipped.
        let t = log.tail(2);
        assert_eq!(t.iterations().map(|r| r.iter).collect::<Vec<_>>(), vec![9, 10]);
        assert_eq!(t.evicted, 8);
        assert_eq!(t.run, "svc");
        // tail(n) larger than the log = the whole log.
        assert_eq!(log.tail(100).entries.len(), 4);
    }

    #[test]
    fn table_renders_rows_and_events() {
        let mut log = ConvergenceLog::new("r");
        log.record(rec(1, 1));
        log.event("fault", 1, 1, "rank 2 stalled");
        let table = log.render_table();
        assert!(table.contains("||g||_rel"), "{table}");
        assert!(table.contains("[fault] rank 2 stalled"), "{table}");
        assert_eq!(log.iterations().count(), 1);
        assert_eq!(log.events().count(), 1);
    }
}
