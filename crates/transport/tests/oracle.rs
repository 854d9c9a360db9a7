//! Analytic-oracle tests of the semi-Lagrangian RK2 solver against flows
//! with closed-form transported states (testkit::oracle): constant-velocity
//! translation, the Taylor–Green cellular rotation whose streamfunction is
//! an exact invariant, and a stationary shear whose characteristics are
//! straight lines — so the scheme's only error source is interpolation.

use diffreg_comm::SerialComm;
use diffreg_grid::{Grid, ScalarField, VectorField};
use diffreg_testkit::oracle::{
    shear_transported, shear_velocity, taylor_green_invariant, taylor_green_velocity, Translation,
};
use diffreg_testkit::prop_check;
use diffreg_transport::{SemiLagrangian, SessionParts, Workspace};

fn with_serial_ws<R>(grid: Grid, f: impl FnOnce(&Workspace<SerialComm>) -> R) -> R {
    let comm = SerialComm::new();
    f(&SessionParts::new(&comm, grid).workspace(&comm))
}

/// Band-limited test state with O(1) values and low wavenumbers, so the
/// tricubic interpolation error stays far below the oracle tolerances.
fn smooth_state(x: [f64; 3]) -> f64 {
    x[0].sin() + 0.5 * x[1].cos() + 0.3 * (x[2] + x[0]).sin()
}

/// Constant-velocity oracle: trajectories are straight lines the RK2
/// departure-point integrator resolves exactly, so the final state must be
/// `f(x − v)` up to interpolation error alone — for random velocities.
#[test]
fn translation_matches_analytic_shift() {
    prop_check!(cases = 6, |rng| {
        let tr = Translation {
            v: [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
        };
        let grid = Grid::cubic(24);
        with_serial_ws(grid, |ws| {
            let v = VectorField::from_fn(&grid, ws.block(), |x| tr.velocity(x));
            let rho0 = ScalarField::from_fn(&grid, ws.block(), smooth_state);
            let nt = 4;
            let sl = SemiLagrangian::new(ws, &v, nt);
            let hist = sl.solve_state(ws, &rho0);
            let expect = ScalarField::from_fn(&grid, ws.block(), |x| {
                tr.transported(smooth_state, 1.0, x)
            });
            let mut err: f64 = 0.0;
            for (a, b) in hist[nt].data().iter().zip(expect.data()) {
                err = err.max((a - b).abs());
            }
            assert!(err < 5e-3, "translation oracle error {err} for v = {:?}", tr.v);
        });
    });
}

/// Rotation oracle: the Taylor–Green streamfunction `ψ = sin x₀ sin x₁`
/// satisfies `v·∇ψ = 0`, so transporting it under the Taylor–Green velocity
/// must return ψ itself for *any* end time — the trajectories circulate but
/// the transported state is exactly invariant.
#[test]
fn taylor_green_invariant_is_preserved() {
    prop_check!(cases = 6, |rng| {
        let amp = rng.uniform(0.2, 0.6);
        let grid = Grid::cubic(24);
        with_serial_ws(grid, |ws| {
            let v = VectorField::from_fn(&grid, ws.block(), |x| taylor_green_velocity(x, amp));
            let psi0 = ScalarField::from_fn(&grid, ws.block(), taylor_green_invariant);
            let nt = 8;
            let sl = SemiLagrangian::new(ws, &v, nt);
            let hist = sl.solve_state(ws, &psi0);
            // Every intermediate time level must equal ψ as well.
            for (i, level) in hist.iter().enumerate() {
                let mut err: f64 = 0.0;
                for (a, b) in level.data().iter().zip(psi0.data()) {
                    err = err.max((a - b).abs());
                }
                assert!(err < 2e-2, "ψ drifted by {err} at level {i} (amp {amp})");
            }
        });
    });
}

/// Shear oracle: under `v = (a sin x₁, 0, 0)` the RK2 departure points are
/// *exact* (x₁ is constant along every characteristic), so the solved state
/// must equal `f(x₀ − a sin x₁, x₁, x₂)` up to interpolation error.
#[test]
fn shear_transport_matches_closed_form() {
    prop_check!(cases = 6, |rng| {
        let amp = rng.uniform(0.2, 0.8);
        let grid = Grid::cubic(24);
        with_serial_ws(grid, |ws| {
            let v = VectorField::from_fn(&grid, ws.block(), |x| shear_velocity(x, amp));
            let rho0 = ScalarField::from_fn(&grid, ws.block(), smooth_state);
            let nt = 4;
            let sl = SemiLagrangian::new(ws, &v, nt);
            let hist = sl.solve_state(ws, &rho0);
            let expect = ScalarField::from_fn(&grid, ws.block(), |x| {
                shear_transported(smooth_state, amp, 1.0, x)
            });
            let mut err: f64 = 0.0;
            for (a, b) in hist[nt].data().iter().zip(expect.data()) {
                err = err.max((a - b).abs());
            }
            assert!(err < 5e-3, "shear oracle error {err} (amp {amp})");
        });
    });
}

/// Refinement property: halving the spatial mesh must shrink the
/// translation-oracle error (the scheme converges toward the closed form).
#[test]
fn translation_error_decreases_under_refinement() {
    let tr = Translation { v: [0.7, -0.4, 0.3] };
    let err_at = |n: usize| -> f64 {
        let grid = Grid::cubic(n);
        with_serial_ws(grid, |ws| {
            let v = VectorField::from_fn(&grid, ws.block(), |x| tr.velocity(x));
            let rho0 = ScalarField::from_fn(&grid, ws.block(), smooth_state);
            let sl = SemiLagrangian::new(ws, &v, 4);
            let hist = sl.solve_state(ws, &rho0);
            let expect = ScalarField::from_fn(&grid, ws.block(), |x| {
                tr.transported(smooth_state, 1.0, x)
            });
            let mut err: f64 = 0.0;
            for (a, b) in hist[4].data().iter().zip(expect.data()) {
                err = err.max((a - b).abs());
            }
            err
        })
    };
    let coarse = err_at(12);
    let fine = err_at(24);
    assert!(
        fine < 0.5 * coarse,
        "no convergence under refinement: {coarse} -> {fine}"
    );
}
