//! The kernel microbenchmark suite: distributed FFT, tricubic/trilinear
//! interpolation, semi-Lagrangian transport, gradient evaluation, the
//! Gauss-Newton Hessian matvec and one PCG iteration — the building blocks whose costs the
//! paper's complexity model (§III-C4) accounts for.
//!
//! `cargo bench -p diffreg-bench` (the thin `benches/kernels.rs` shim) is
//! its one entry; it writes `results/kernels.json` under the package
//! directory (`crates/bench`), and `BENCH_kernels.json` is a copy of that
//! file. The records are data, not a gate: the
//! before/after comparator is `benchmark/run.sh --compare`. Timing goes
//! through `testkit::bench` (median-of-K wall clock after warmup);
//! results come back as a [`BenchSuite`] in the canonical results schema.

use diffreg_comm::ring::record_comm;
use diffreg_comm::{CommKey, CommOp, SerialComm, StreamPos};
use diffreg_core::{RegProblem, RegistrationConfig};
use diffreg_fft::{transform_lines, Complex64, Direction, Fft1d};
use diffreg_grid::{Grid, ScalarField, VectorField};
use diffreg_interp::{ghosted, Kernel, ScatterPlan};
use diffreg_optim::GaussNewtonProblem;
use diffreg_spectral::RegOrder;
use diffreg_telemetry::{record_event, take_recorder, RecKind};
use diffreg_transport::{compute_trajectory, SemiLagrangian, SessionParts, Workspace};

use crate::{BenchRecord, BenchSuite};

/// Warmup runs per benchmark.
const WARMUP: usize = 2;
/// Timed samples per benchmark (median over `K`).
const K: usize = 9;

struct Ctx {
    grid: Grid,
    comm: SerialComm,
    parts: SessionParts<SerialComm>,
}

impl Ctx {
    fn new(n: usize) -> Self {
        let grid = Grid::cubic(n);
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        Self { grid, comm, parts }
    }

    fn ws(&self) -> Workspace<'_, SerialComm> {
        self.parts.workspace(&self.comm)
    }
}

/// Times `f`, prints its record as one JSON line (`bench`, `median_s`,
/// `min_s`, `samples`) and adds it to `suite`.
fn push(suite: &mut BenchSuite, name: &str, f: impl FnMut()) {
    let r = BenchRecord::new(name, diffreg_testkit::bench(WARMUP, K, f));
    println!(
        "{{\"bench\":\"{name}\",\"median_s\":{:.9},\"min_s\":{:.9},\"samples\":{}}}",
        r.median_s(),
        r.min_s(),
        r.samples_s.len()
    );
    suite.push(r);
}

fn bench_fft(suite: &mut BenchSuite) {
    let n = 32;
    let ctx = Ctx::new(n);
    let Workspace { fft, timers, .. } = ctx.ws();
    let field = ScalarField::from_fn(&ctx.grid, fft.spatial_block(), |x| {
        x[0].sin() + x[1].cos() * x[2].sin()
    });
    push(suite, &format!("fft3d/gradient/{n}"), || {
        fft.gradient(&field, timers);
    });
    push(suite, &format!("fft3d/forward_r2c/{n}"), || {
        fft.forward_half(&field, timers);
    });
    let half = fft.forward_half(&field, timers);
    push(suite, &format!("fft3d/inverse_r2c/{n}"), || {
        fft.inverse_half(&half, timers);
    });
}

/// The layers under and over the 3D transform that the solver's Krylov
/// loop pays for: contiguous 1D lines at the extents the benchmark grids
/// use (32; 30 = 2·3·5; 75 = 3·5², the paper's 300 scaled) through the
/// tiled c2c `transform_lines`, and the two six-transform vector operators
/// of one PCG iteration.
fn bench_lines_and_operators(suite: &mut BenchSuite) {
    for n in [32usize, 30, 75] {
        let lines = 1024;
        let mut data: Vec<Complex64> =
            (0..n * lines).map(|i| Complex64::from_real((i as f64 * 0.37).sin())).collect();
        let plan = Fft1d::new(n);
        push(suite, &format!("fft1d/lines/{n}"), || {
            transform_lines(&plan, &mut data, Direction::Forward);
        });
    }
    let ctx = Ctx::new(32);
    let Workspace { fft, timers, .. } = ctx.ws();
    let v = VectorField::from_fn(&ctx.grid, fft.spatial_block(), |x| {
        [0.4 * x[1].sin(), 0.3 * x[0].cos(), 0.2 * x[2].sin()]
    });
    push(suite, "spectral/regularization/32", || {
        fft.regularization(&v, RegOrder::H2, 1e-2, timers);
    });
    push(suite, "spectral/precondition/32", || {
        fft.precondition(&v, RegOrder::H2, 1e-2, timers);
    });
}

fn bench_interp(suite: &mut BenchSuite) {
    let n = 32;
    let ctx = Ctx::new(n);
    let Workspace { decomp, timers, .. } = ctx.ws();
    let block = decomp.block(0);
    let field = ScalarField::from_fn(&ctx.grid, block, |x| x[0].sin() * x[1].cos());
    let ghost = ghosted(&ctx.comm, decomp, &field);
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
    push(suite, &format!("interp/plan_build/{n}"), || {
        ScatterPlan::build(&ctx.comm, decomp, &pts, timers);
    });
    let plan = ScatterPlan::build(&ctx.comm, decomp, &pts, timers);
    for kernel in [Kernel::Tricubic, Kernel::Trilinear] {
        push(suite, &format!("interpolation/{kernel:?}/{n}"), || {
            plan.interpolate(&ctx.comm, &ghost, kernel, timers);
        });
    }
    // Three fields in one walk over the stencil table (the velocity
    // components of the trajectory predictor, the displacement solve).
    push(suite, &format!("interpolation/Tricubic3/{n}"), || {
        plan.interpolate_many(&ctx.comm, &[&ghost; 3], Kernel::Tricubic, timers);
    });
}

fn bench_transport(suite: &mut BenchSuite) {
    let n = 32;
    let ctx = Ctx::new(n);
    let ws = ctx.ws();
    let v = VectorField::from_fn(&ctx.grid, ws.block(), |x| {
        [0.4 * x[1].sin(), 0.3 * x[0].cos(), 0.2 * x[2].sin()]
    });
    let rho0 = ScalarField::from_fn(&ctx.grid, ws.block(), |x| x[0].sin() + x[1].cos());
    push(suite, "transport/semi_lagrangian_setup/32", || {
        SemiLagrangian::new(&ws, &v, 4);
    });
    push(suite, "transport/trajectory/32", || {
        compute_trajectory(&ws, &v, 0.25, 1.0);
    });
    let sl = SemiLagrangian::new(&ws, &v, 4);
    push(suite, "transport/state_solve_nt4/32", || {
        sl.solve_state(&ws, &rho0);
    });
    let lam1 = rho0.clone();
    push(suite, "transport/adjoint_solve_nt4/32", || {
        sl.solve_adjoint(&ws, &lam1);
    });
    let grads: Vec<VectorField> =
        sl.solve_state(&ws, &rho0).iter().map(|r| ws.fft.gradient(r, ws.timers)).collect();
    push(suite, "transport/incremental_state_nt4/32", || {
        sl.solve_incremental_state(&ws, &v, &grads);
    });
}

/// The Gauss-Newton matvec's transports on the brain phantom's grid
/// (24×30×24, radices 2, 3 and 5), on its trilinear kernel: the ghost
/// exchange every interpolated field goes through, one interpolation
/// through a departure-point plan, and the two sweeps of one matvec (the
/// incremental state, then the adjoint accumulation).
fn bench_gn_transport(suite: &mut BenchSuite) {
    let grid = Grid::new([24, 30, 24]);
    let comm = SerialComm::new();
    let parts = SessionParts::new(&comm, grid);
    let ws = Workspace { kernel: Kernel::Trilinear, ..parts.workspace(&comm) };
    let v = VectorField::from_fn(&grid, ws.block(), |x| {
        [0.4 * x[1].sin(), 0.3 * x[0].cos(), 0.2 * x[2].sin()]
    });
    let rho0 = ScalarField::from_fn(&grid, ws.block(), |x| x[0].sin() + x[1].cos());
    let sl = SemiLagrangian::new(&ws, &v, 4);
    push(suite, "ghost_exchange/24x30x24", || {
        ghosted(&comm, ws.decomp, &rho0);
    });
    let ghost = ghosted(&comm, ws.decomp, &rho0);
    let plan = &sl.forward_trajectory().plan;
    push(suite, "interpolation/Trilinear/24x30x24", || {
        plan.interpolate(&comm, &ghost, Kernel::Trilinear, ws.timers);
    });
    let grads: Vec<VectorField> =
        sl.solve_state(&ws, &rho0).iter().map(|r| ws.fft.gradient(r, ws.timers)).collect();
    let d = VectorField::from_fn(&grid, ws.block(), |x| {
        [0.1 * x[2].cos(), 0.1 * (x[0] + x[1]).sin(), -0.1 * x[1].cos()]
    });
    push(suite, "transport/gn_sweeps/24x30x24", || {
        let rho_tilde1 = sl.solve_incremental_state(&ws, &d, &grads);
        let mut h = VectorField::zeros(ws.block());
        sl.accumulate_adjoint_integral(&ws, rho_tilde1, &grads, &mut h);
    });
}

fn bench_solver(suite: &mut BenchSuite) {
    let n = 16;
    let ctx = Ctx::new(n);
    let ws = ctx.ws();
    let t = diffreg_imgsim::template(&ctx.grid, ws.block());
    let v_star = diffreg_imgsim::exact_velocity(&ctx.grid, ws.block(), 0.5);
    let sl = SemiLagrangian::new(&ws, &v_star, 4);
    let r = sl.solve_state(&ws, &t).pop().unwrap();
    let cfg = RegistrationConfig::default();
    let mut prob = RegProblem::new(&ws, &t, &r, cfg);
    let v = VectorField::zeros(ws.block());
    push(suite, "solver/gradient_eval/16", || {
        prob.linearize(&v);
    });
    prob.linearize(&v);
    let dir = VectorField::from_fn(&ctx.grid, ws.block(), |x| {
        [0.1 * x[1].sin(), 0.1 * x[0].cos(), 0.1 * x[2].sin()]
    });
    // A matvec of a vector the preconditioner did not return: it runs its
    // own regularization.
    push(suite, "solver/hessian_matvec/16", || {
        prob.hessian_vec(&dir);
    });
    // What PCG does per iteration: the preconditioner, then the matvec of
    // its output, which takes βA z = r − z from it.
    push(suite, "solver/pcg_iteration/16", || {
        let z = prob.precondition(&dir);
        prob.hessian_vec(&z);
    });
}

/// Recorder-offer calls per sample in the `telemetry/recorder_overhead`
/// benchmarks — the divisor that turns the on/off median gap into a
/// per-event cost.
const RECORDER_BENCH_EVENTS: u64 = 4096;

/// The instrumented hot loop the flight-recorder overhead is measured on:
/// cheap integer mixing plus one ring offer per iteration, the shape of a
/// solver inner loop with lifecycle markers.
fn recorder_workload(offer: impl Fn(u64, u64)) {
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..RECORDER_BENCH_EVENTS {
        acc = acc.rotate_left(7) ^ i;
        offer(acc & 0xffff, i);
    }
    std::hint::black_box(acc);
}

/// One lifecycle event.
fn offer_event(a: u64, i: u64) {
    record_event(RecKind::Solver, "bench.recorder", a, i);
}

/// One comm record, as a recorded user-tag send writes it.
fn offer_comm(a: u64, i: u64) {
    let pos = StreamPos::P2p { peer: 1, tag: a, seq: i };
    record_comm(i, 1, a, CommKey { op: CommOp::Send, comm: 0, csize: 2, rank: 0, pos, blocked_ns: 0 });
}

fn bench_recorder(suite: &mut BenchSuite) {
    // "on": every offer is a lifecycle event; "comm": every offer is a comm
    // record (drained before each so the window starts empty; the ring then
    // wraps at its steady state).
    let _ = take_recorder();
    push(suite, "telemetry/recorder_overhead/on", || {
        recorder_workload(offer_event);
    });
    let _ = take_recorder();
    push(suite, "telemetry/recorder_overhead/comm", || {
        recorder_workload(offer_comm);
    });
    let _ = take_recorder();
}

/// Runs the full kernel suite (warmup + K samples each) at the sizes
/// `BENCH_kernels.json` holds, printing one JSON line per benchmark as it
/// goes, and returns the suite in the canonical results schema.
pub fn run_kernel_suite() -> BenchSuite {
    let mut suite = BenchSuite::new("kernels");
    bench_fft(&mut suite);
    bench_lines_and_operators(&mut suite);
    bench_interp(&mut suite);
    bench_transport(&mut suite);
    bench_gn_transport(&mut suite);
    bench_solver(&mut suite);
    bench_recorder(&mut suite);
    suite
}
