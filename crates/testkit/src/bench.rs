//! Micro-bench timer: K wall-clock samples after warmup. This replaced
//! `criterion` for the workspace's kernel benches — no statistics
//! framework; `diffreg_bench::BenchRecord` takes the samples' median.

use std::time::Instant;

/// Times `f` with `warmup` untimed runs followed by `k` timed runs;
/// returns the sorted samples. Does not print.
pub fn bench(warmup: usize, k: usize, mut f: impl FnMut()) -> Vec<f64> {
    assert!(k > 0, "need at least one timed sample");
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(k);
    for _ in 0..k {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_warmup_and_samples() {
        let mut calls = 0usize;
        let samples = bench(3, 5, || calls += 1);
        assert_eq!(calls, 8);
        assert_eq!(samples.len(), 5);
        assert!(samples.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }
}
