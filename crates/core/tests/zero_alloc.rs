//! Zero-allocation regression tier: once the buffer arena is warm, a full
//! Newton iteration (linearize + Hessian matvec) must recycle every
//! arena-managed buffer — the arena-miss counter in the MetricsRegistry
//! stays flat while the hit counter keeps climbing. This pins down the
//! "zero heap allocations per iteration in steady state" property of the
//! ghost-exchange/interpolation hot path; a regression that reintroduces a
//! fresh allocation per step shows up as a growing miss count.
//!
//! This file holds exactly one test: it toggles the process-wide trace
//! flag and drains the thread-local metrics registry, which must not race
//! with other telemetry-sensitive tests in the same binary.

use diffreg_comm::{SerialComm, Timers};
use diffreg_core::{RegProblem, RegistrationConfig};
use diffreg_grid::{Decomp, Grid, ScalarField, VectorField, ARENA_HIT_COUNTER, ARENA_MISS_COUNTER};
use diffreg_optim::GaussNewtonProblem;
use diffreg_pfft::PencilFft;
use diffreg_testkit::oracle::GaussianPair;
use diffreg_transport::Workspace;

#[test]
fn warm_arena_newton_iteration_allocates_nothing() {
    let grid = Grid::cubic(12);
    let pair = GaussianPair::new([0.4, -0.2, 0.1], 0.8);
    let comm = SerialComm::new();
    let decomp = Decomp::new(grid, 1);
    let fft = PencilFft::new(&comm, decomp);
    let timers = Timers::new();
    let ws = Workspace::new(&comm, &decomp, &fft, &timers);
    let rho_t = ScalarField::from_fn(&grid, ws.block(), |x| pair.template(x));
    let rho_r = ScalarField::from_fn(&grid, ws.block(), |x| pair.reference(x));
    let v = VectorField::from_fn(&grid, ws.block(), |x| {
        [0.1 * x[1].sin(), -0.08 * x[2].cos(), 0.05 * x[0].sin()]
    });
    let d = VectorField::from_fn(&grid, ws.block(), |x| {
        [0.02 * x[2].cos(), 0.03 * x[0].sin(), -0.01 * x[1].cos()]
    });
    let mut prob = RegProblem::new(&ws, &rho_t, &rho_r, RegistrationConfig::default());

    let one_iteration = |prob: &mut RegProblem<'_, SerialComm>| {
        let (_, _) = prob.linearize(&v);
        let _ = prob.hessian_vec(&d);
        let _ = prob.precondition(&d);
        // The two spectral operators of the Krylov loop, called directly:
        // their complex working arrays and scratch are arena buffers too.
        let cfg = *prob.config();
        let _ = fft.regularization(&d, cfg.reg, cfg.beta, &timers);
        let _ = fft.precondition(&d, cfg.reg, cfg.beta, &timers);
    };

    // Warm-up: populate every arena capacity class the iteration touches.
    diffreg_telemetry::set_trace_enabled(true);
    one_iteration(&mut prob);
    let warm = diffreg_telemetry::take_global_metrics();
    assert!(
        warm.counter(ARENA_HIT_COUNTER).unwrap_or(0)
            + warm.counter(ARENA_MISS_COUNTER).unwrap_or(0)
            > 0,
        "iteration must route its scratch buffers through the arena"
    );

    // Steady state: the identical iteration must be served entirely from
    // the warm pool.
    one_iteration(&mut prob);
    let steady = diffreg_telemetry::take_global_metrics();
    diffreg_telemetry::set_trace_enabled(false);
    let misses = steady.counter(ARENA_MISS_COUNTER).unwrap_or(0);
    let hits = steady.counter(ARENA_HIT_COUNTER).unwrap_or(0);
    assert_eq!(misses, 0, "warm-arena iteration allocated {misses} fresh buffers");
    assert!(hits > 0, "warm-arena iteration must recycle pooled buffers");

    // The counters render like any other registry entry (they are
    // trace-gated and drained only by tests, so no deployment exports them).
    let prom = steady.render_prometheus();
    assert!(prom.contains(ARENA_HIT_COUNTER), "hit counter missing from Prometheus snapshot");
}
