//! The kernel microbenchmark suite: distributed FFT, tricubic/trilinear
//! interpolation, semi-Lagrangian transport, gradient evaluation, and the
//! Gauss-Newton Hessian matvec — the building blocks whose costs the
//! paper's complexity model (§III-C4) accounts for.
//!
//! Lives in the library (not the bench target) so three consumers share one
//! definition: `cargo bench -p diffreg-bench` (the thin `benches/kernels.rs`
//! shim), the `perf_gate` binary that CI runs against the checked-in
//! baseline, and anything that wants the suite as data. Timing goes through
//! `testkit::bench_named` (median-of-K wall clock after warmup); results
//! come back as a [`BenchSuite`] in the canonical results schema.

use diffreg_comm::{SerialComm, Timers};
use diffreg_core::{RegProblem, RegistrationConfig};
use diffreg_fft::{transform_lines, Complex64, Direction, Fft1d};
use diffreg_grid::{Decomp, Grid, ScalarField, VectorField};
use diffreg_interp::{ghosted, Kernel, ScatterPlan};
use diffreg_optim::GaussNewtonProblem;
use diffreg_pfft::PencilFft;
use diffreg_spectral::RegOrder;
use diffreg_telemetry::{
    record_event, recorder_enabled, set_recorder_enabled, take_recorder, RecKind,
};
use diffreg_testkit::bench_named;
use diffreg_transport::{SemiLagrangian, Workspace};

use crate::{BenchRecord, BenchSuite};

/// Default warmup runs per benchmark.
pub const WARMUP: usize = 2;
/// Default timed samples per benchmark (median over `K`).
pub const K: usize = 9;

struct Ctx {
    grid: Grid,
    comm: SerialComm,
    decomp: Decomp,
}

impl Ctx {
    fn new(n: usize) -> Self {
        let grid = Grid::cubic(n);
        let comm = SerialComm::new();
        let decomp = Decomp::new(grid, 1);
        Self { grid, comm, decomp }
    }
}

fn push(suite: &mut BenchSuite, name: &str, warmup: usize, k: usize, f: impl FnMut()) {
    let r = bench_named(name, warmup, k, f);
    suite.push(BenchRecord::new(r.name.clone(), r.samples_s.clone()));
}

fn bench_fft(suite: &mut BenchSuite, warmup: usize, k: usize, sizes: &[usize]) {
    for &n in sizes {
        let ctx = Ctx::new(n);
        let fft = PencilFft::new(&ctx.comm, ctx.decomp);
        let timers = Timers::new();
        let field = ScalarField::from_fn(&ctx.grid, fft.spatial_block(), |x| {
            x[0].sin() + x[1].cos() * x[2].sin()
        });
        push(suite, &format!("fft3d/forward/{n}"), warmup, k, || {
            fft.forward(&field, &timers);
        });
        let spec = fft.forward(&field, &timers);
        push(suite, &format!("fft3d/inverse/{n}"), warmup, k, || {
            fft.inverse(&spec, &timers);
        });
        push(suite, &format!("fft3d/gradient/{n}"), warmup, k, || {
            fft.gradient(&field, &timers);
        });
        // Explicit half-spectrum (r2c) transform records: the public
        // forward/inverse above keep the full c2c layout, so the r2c wins
        // only show up in the operator records unless pinned here.
        push(suite, &format!("fft3d/forward_r2c/{n}"), warmup, k, || {
            fft.forward_half(&field, &timers);
        });
        let half = fft.forward_half(&field, &timers);
        push(suite, &format!("fft3d/inverse_r2c/{n}"), warmup, k, || {
            fft.inverse_half(&half, &timers);
        });
    }
}

/// The layers under and over the 3D transform that the solver's Krylov
/// loop pays for: contiguous 1D lines at the extents the benchmark grids
/// use (32; 30 = 2·3·5; 75 = 3·5², the paper's 300 scaled) through the
/// tiled c2c `transform_lines`, and the two six-transform vector operators
/// of one PCG iteration.
fn bench_lines_and_operators(suite: &mut BenchSuite, warmup: usize, k: usize) {
    for n in [32usize, 30, 75] {
        let lines = 1024;
        let mut data: Vec<Complex64> =
            (0..n * lines).map(|i| Complex64::from_real((i as f64 * 0.37).sin())).collect();
        let plan = Fft1d::new(n);
        push(suite, &format!("fft1d/lines/{n}"), warmup, k, || {
            transform_lines(&plan, &mut data, Direction::Forward);
        });
    }
    let ctx = Ctx::new(32);
    let fft = PencilFft::new(&ctx.comm, ctx.decomp);
    let timers = Timers::new();
    let v = VectorField::from_fn(&ctx.grid, fft.spatial_block(), |x| {
        [0.4 * x[1].sin(), 0.3 * x[0].cos(), 0.2 * x[2].sin()]
    });
    push(suite, "spectral/regularization/32", warmup, k, || {
        fft.regularization(&v, RegOrder::H2, 1e-2, &timers);
    });
    push(suite, "spectral/precondition/32", warmup, k, || {
        fft.precondition(&v, RegOrder::H2, 1e-2, &timers);
    });
}

fn bench_interp(suite: &mut BenchSuite, warmup: usize, k: usize, sizes: &[usize]) {
    for &n in sizes {
        let ctx = Ctx::new(n);
        let timers = Timers::new();
        let decomp = ctx.decomp;
        let block = decomp.block(0, diffreg_grid::Layout::Spatial);
        let field = ScalarField::from_fn(&ctx.grid, block, |x| x[0].sin() * x[1].cos());
        let ghost = ghosted(&ctx.comm, &decomp, &field);
        // Departure-like points: every grid point shifted by a fraction of a cell.
        let pts: Vec<[f64; 3]> = (0..block.len())
            .map(|l| {
                let gi = block.global_of_local(l);
                [
                    ctx.grid.coord(0, gi[0]) + 0.37,
                    ctx.grid.coord(1, gi[1]) - 0.21,
                    ctx.grid.coord(2, gi[2]) + 0.11,
                ]
            })
            .collect();
        let plan = ScatterPlan::build(&ctx.comm, &decomp, &pts, &timers);
        for kernel in [Kernel::Tricubic, Kernel::Trilinear] {
            push(suite, &format!("interpolation/{kernel:?}/{n}"), warmup, k, || {
                plan.interpolate(&ctx.comm, &ghost, kernel, &timers);
            });
        }
        // Three fields in one walk over the stencil table (the velocity
        // components of the trajectory predictor, the displacement solve).
        push(suite, &format!("interpolation/Tricubic3/{n}"), warmup, k, || {
            plan.interpolate_many(&ctx.comm, &[&ghost; 3], Kernel::Tricubic, &timers);
        });
    }
}

fn bench_transport(suite: &mut BenchSuite, warmup: usize, k: usize) {
    let n = 32;
    let ctx = Ctx::new(n);
    let fft = PencilFft::new(&ctx.comm, ctx.decomp);
    let timers = Timers::new();
    let ws = Workspace::new(&ctx.comm, &ctx.decomp, &fft, &timers);
    let v = VectorField::from_fn(&ctx.grid, ws.block(), |x| {
        [0.4 * x[1].sin(), 0.3 * x[0].cos(), 0.2 * x[2].sin()]
    });
    let rho0 = ScalarField::from_fn(&ctx.grid, ws.block(), |x| x[0].sin() + x[1].cos());
    push(suite, "transport/semi_lagrangian_setup/32", warmup, k, || {
        SemiLagrangian::new(&ws, &v, 4);
    });
    let sl = SemiLagrangian::new(&ws, &v, 4);
    push(suite, "transport/state_solve_nt4/32", warmup, k, || {
        sl.solve_state(&ws, &rho0);
    });
    let lam1 = rho0.clone();
    push(suite, "transport/adjoint_solve_nt4/32", warmup, k, || {
        sl.solve_adjoint(&ws, &lam1);
    });
    let grads: Vec<VectorField> =
        sl.solve_state(&ws, &rho0).iter().map(|r| fft.gradient(r, &timers)).collect();
    push(suite, "transport/incremental_state_nt4/32", warmup, k, || {
        sl.solve_incremental_state(&ws, &v, &grads);
    });
}

fn bench_solver(suite: &mut BenchSuite, warmup: usize, k: usize) {
    let n = 16;
    let ctx = Ctx::new(n);
    let fft = PencilFft::new(&ctx.comm, ctx.decomp);
    let timers = Timers::new();
    let ws = Workspace::new(&ctx.comm, &ctx.decomp, &fft, &timers);
    let t = diffreg_imgsim::template(&ctx.grid, ws.block());
    let v_star = diffreg_imgsim::exact_velocity(&ctx.grid, ws.block(), 0.5);
    let sl = SemiLagrangian::new(&ws, &v_star, 4);
    let r = sl.solve_state(&ws, &t).pop().unwrap();
    let cfg = RegistrationConfig::default();
    let mut prob = RegProblem::new(&ws, &t, &r, cfg);
    let v = VectorField::zeros(ws.block());
    push(suite, "solver/gradient_eval/16", warmup, k, || {
        prob.linearize(&v);
    });
    prob.linearize(&v);
    let dir = VectorField::from_fn(&ctx.grid, ws.block(), |x| {
        [0.1 * x[1].sin(), 0.1 * x[0].cos(), 0.1 * x[2].sin()]
    });
    push(suite, "solver/hessian_matvec/16", warmup, k, || {
        prob.hessian_vec(&dir);
    });
}

/// Recorder-offer calls per sample in the `telemetry/recorder_overhead`
/// benchmarks — the divisor that turns the on/off median gap into a
/// per-event cost (`perf_gate recorder` uses it).
pub const RECORDER_BENCH_EVENTS: u64 = 4096;

/// The instrumented hot loop the flight-recorder overhead is measured on:
/// cheap integer mixing plus one recorder offer per iteration, the shape of
/// a solver inner loop with lifecycle markers.
fn recorder_workload() {
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..RECORDER_BENCH_EVENTS {
        acc = acc.rotate_left(7) ^ i;
        record_event(RecKind::Solver, "bench.recorder", acc & 0xffff, i);
    }
    std::hint::black_box(acc);
}

fn bench_recorder(suite: &mut BenchSuite, warmup: usize, k: usize) {
    let was_on = recorder_enabled();
    // "on": every offer goes through the ring (drained between samples so
    // adaptive sampling keeps its steady-state stride). "off": the same
    // loop pays only the enabled-check fast path.
    set_recorder_enabled(true);
    let _ = take_recorder();
    push(suite, "telemetry/recorder_overhead/on", warmup, k, || {
        recorder_workload();
    });
    let _ = take_recorder();
    set_recorder_enabled(false);
    push(suite, "telemetry/recorder_overhead/off", warmup, k, || {
        recorder_workload();
    });
    set_recorder_enabled(was_on);
}

/// Runs the full kernel suite (warmup + K samples each), printing one JSON
/// line per benchmark as it goes, and returns the suite in the canonical
/// results schema. `sizes` controls the FFT/interpolation grid sweep (the
/// transport/solver groups are fixed-size); the perf gate uses `&[32]` to
/// stay fast, `cargo bench` uses `&[32, 64]`.
pub fn run_kernel_suite(warmup: usize, k: usize, sizes: &[usize]) -> BenchSuite {
    let mut suite = BenchSuite::new("kernels");
    bench_fft(&mut suite, warmup, k, sizes);
    bench_lines_and_operators(&mut suite, warmup, k);
    bench_interp(&mut suite, warmup, k, sizes);
    bench_transport(&mut suite, warmup, k);
    bench_solver(&mut suite, warmup, k);
    bench_recorder(&mut suite, warmup, k);
    suite
}
