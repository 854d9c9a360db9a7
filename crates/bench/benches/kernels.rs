//! Microbenchmarks of the solver's computational kernels (thin shim).
//!
//! The suite itself lives in `diffreg_bench::kernels`. Runs under the
//! in-tree `testkit::bench` timer (median-of-K wall clock with warmup),
//! prints one JSON line per benchmark, and writes the whole suite to
//! `results/kernels.json` in the canonical `diffreg-bench-v1` schema;
//! `BENCH_kernels.json` is a copy of that file. Invoke with
//! `cargo bench -p diffreg-bench` (harness = false).

use diffreg_bench::kernels::run_kernel_suite;

fn main() {
    // `cargo test` compiles and runs bench targets with `--test`; produce
    // no output and exit quickly in that mode.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    diffreg_bench::write_suite(&run_kernel_suite());
}
