//! Communication statistics and phase timers.
//!
//! The paper's tables report, per run, the *communication* and *execution*
//! time of the FFT and the interpolation separately. Each rank carries a
//! [`Timers`] accumulator keyed by phase name, and the communicator itself
//! counts message/byte traffic in [`CommStats`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-rank message traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Number of point-to-point messages sent (collectives decompose into p2p).
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Number of point-to-point messages received (direct channel receives
    /// and pending-queue pops both count; self-receives do not).
    pub messages_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Wall-clock seconds this rank spent blocked in receives and barriers
    /// (sends are buffered and never block).
    pub blocked_seconds: f64,
}

/// Named wall-clock accumulators for the phases the paper reports
/// (e.g. `"fft_comm"`, `"fft_exec"`, `"interp_comm"`, `"interp_exec"`).
#[derive(Debug, Default)]
pub struct Timers {
    map: RefCell<BTreeMap<&'static str, f64>>,
    counters: RefCell<BTreeMap<&'static str, u64>>,
}

impl Timers {
    /// Creates an empty timer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, adding its elapsed wall-clock time to phase `key`.
    pub fn time<R>(&self, key: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(key, t0.elapsed().as_secs_f64());
        r
    }

    /// Adds `seconds` to phase `key`.
    fn add(&self, key: &'static str, seconds: f64) {
        *self.map.borrow_mut().entry(key).or_insert(0.0) += seconds;
    }

    /// Increments an event counter (e.g. number of FFTs, interpolated points).
    pub fn count(&self, key: &'static str, n: u64) {
        *self.counters.borrow_mut().entry(key).or_insert(0) += n;
    }

    /// Accumulated seconds for phase `key` (0 if never recorded).
    pub fn get(&self, key: &str) -> f64 {
        self.map.borrow().get(key).copied().unwrap_or(0.0)
    }

    /// Value of counter `key` (0 if never recorded).
    pub fn get_count(&self, key: &str) -> u64 {
        self.counters.borrow().get(key).copied().unwrap_or(0)
    }

    /// Snapshot of all phase timings.
    pub fn snapshot(&self) -> BTreeMap<&'static str, f64> {
        self.map.borrow().clone()
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.counters.borrow().clone()
    }

    /// Clears all timings and counters.
    pub fn reset(&self) {
        self.map.borrow_mut().clear();
        self.counters.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_accumulate() {
        let t = Timers::new();
        t.add("a", 1.0);
        t.add("a", 2.0);
        t.add("b", 0.5);
        t.count("n", 3);
        t.count("n", 4);
        assert_eq!(t.get("a"), 3.0);
        assert_eq!(t.get("b"), 0.5);
        assert_eq!(t.get("missing"), 0.0);
        assert_eq!(t.get_count("n"), 7);
    }

    #[test]
    fn time_closure_returns_value() {
        let t = Timers::new();
        let v = t.time("x", || 42);
        assert_eq!(v, 42);
        assert!(t.get("x") >= 0.0);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        // BTreeMap-backed: key order is lexicographic regardless of
        // insertion order, so reports are byte-identical across runs.
        let t = Timers::new();
        for k in ["zeta", "alpha", "mid"] {
            t.add(k, 1.0);
        }
        let keys: Vec<&str> = t.snapshot().keys().copied().collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
        let u = Timers::new();
        for k in ["mid", "zeta", "alpha"] {
            u.add(k, 1.0);
        }
        assert_eq!(t.snapshot(), u.snapshot());
    }
}
