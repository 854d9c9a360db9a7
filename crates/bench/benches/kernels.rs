//! Microbenchmarks of the solver's computational kernels (thin shim).
//!
//! The suite itself lives in `diffreg_bench::kernels`. Times each kernel
//! with the in-tree `testkit::bench` timer (K samples after warmup, one
//! `BenchRecord` each), prints one JSON line per record, and writes the
//! whole suite to `results/kernels.json` in the canonical
//! `diffreg-bench-v1` schema; `BENCH_kernels.json` is a copy of that file.
//! Invoke with `cargo bench -p diffreg-bench` (harness = false).

use diffreg_bench::kernels::run_kernel_suite;

fn main() {
    // `cargo test` compiles and runs bench targets with `--test`; produce
    // no output and exit quickly in that mode.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    diffreg_bench::write_suite(&run_kernel_suite());
}
