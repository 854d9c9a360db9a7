//! Arena-flatness regression tier: once the buffer arena is warm, a full
//! Newton iteration (linearize + Hessian matvec) must recycle every
//! arena-managed buffer — the per-thread miss count over every pool
//! (`diffreg_grid::arena_counts`, the `f64` and pfft complex arenas alike)
//! stays flat while the hit count keeps climbing. A regression that routes
//! an arena buffer to a fresh allocation per step shows up as a growing
//! miss count. This pins arena flatness, not zero heap allocations:
//! the fields, plans and value vectors an iteration returns are allocated
//! outside the arena every time (DESIGN.md §9 has the measured count).
//!
//! The counts are per thread, so tests running alongside on other threads
//! do not leak into the differences it reads.

use diffreg_comm::SerialComm;
use diffreg_core::{RegProblem, RegistrationConfig};
use diffreg_grid::{arena_counts, Grid, ScalarField, VectorField};
use diffreg_optim::GaussNewtonProblem;
use diffreg_testkit::oracle::GaussianPair;
use diffreg_transport::SessionParts;

#[test]
fn warm_arena_newton_iteration_allocates_nothing() {
    let grid = Grid::cubic(12);
    let pair = GaussianPair::new([0.4, -0.2, 0.1], 0.8);
    let comm = SerialComm::new();
    let parts = SessionParts::new(&comm, grid);
    let ws = parts.workspace(&comm);
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
        let _ = ws.fft.regularization(&d, cfg.reg, cfg.beta, ws.timers);
        let _ = ws.fft.precondition(&d, cfg.reg, cfg.beta, ws.timers);
    };

    // Warm-up: populate every arena capacity class the iteration touches.
    let cold = arena_counts();
    one_iteration(&mut prob);
    let warm = arena_counts();
    assert!(
        warm.hits + warm.misses > cold.hits + cold.misses,
        "iteration must route its scratch buffers through the arena"
    );

    // Steady state: the identical iteration must be served entirely from
    // the warm pool.
    one_iteration(&mut prob);
    let steady = arena_counts();
    let misses = steady.misses - warm.misses;
    let hits = steady.hits - warm.hits;
    assert_eq!(misses, 0, "warm-arena iteration allocated {misses} fresh buffers");
    assert!(hits > 0, "warm-arena iteration must recycle pooled buffers");
}
