//! Analytic-oracle tests of the registration problem: discrete adjoint
//! consistency of the Gauss-Newton Hessian (to round-off, at a point where
//! the semi-Lagrangian scheme is exact), seeded finite-difference gradient
//! checks, and a registration problem with a known ground-truth solution
//! (testkit's `GaussianPair`).

use diffreg_comm::SerialComm;
use diffreg_core::{register, register_translation, RegProblem, RegistrationConfig};
use diffreg_grid::{Grid, ScalarField, VectorField};
use diffreg_optim::{GaussNewtonProblem, VectorOps};
use diffreg_testkit::oracle::{adjoint_asymmetry, GaussianPair, PlaneWave};
use diffreg_testkit::prop_check;
use diffreg_transport::{SessionParts, Workspace};

fn with_serial_ws<R>(grid: Grid, f: impl FnOnce(&Workspace<SerialComm>) -> R) -> R {
    let comm = SerialComm::new();
    f(&SessionParts::new(&comm, grid).workspace(&comm))
}

fn random_scalar(
    rng: &mut diffreg_testkit::Rng,
    grid: &Grid,
    block: diffreg_grid::Block,
    nmodes: usize,
    amp: f64,
) -> ScalarField {
    let modes: Vec<PlaneWave> = (0..nmodes).map(|_| PlaneWave::random(rng, 2)).collect();
    ScalarField::from_fn(grid, block, |x| amp * modes.iter().map(|m| m.eval(x)).sum::<f64>())
}

fn random_vector(
    rng: &mut diffreg_testkit::Rng,
    grid: &Grid,
    block: diffreg_grid::Block,
    amp: f64,
) -> VectorField {
    let m: Vec<Vec<PlaneWave>> =
        (0..3).map(|_| (0..2).map(|_| PlaneWave::random(rng, 2)).collect()).collect();
    VectorField::from_fn(grid, block, |x| {
        [
            amp * m[0].iter().map(|w| w.eval(x)).sum::<f64>(),
            amp * m[1].iter().map(|w| w.eval(x)).sum::<f64>(),
            amp * m[2].iter().map(|w| w.eval(x)).sum::<f64>(),
        ]
    })
}

/// Adjoint consistency of the Gauss-Newton Hessian matvec, to round-off.
///
/// At `v = 0` the semi-Lagrangian trajectories are the identity and grid
/// interpolation is exact, so the discrete GN operator collapses to
/// `H d = β A d + ∇ρ_T (d · ∇ρ_T)` — a Fourier multiplier plus a pointwise
/// symmetric rank-one form, both of which must pair as
/// `|⟨Hx,y⟩ − ⟨x,Hy⟩| < 1e-10 ‖x‖‖y‖`. (Away from `v = 0` the incremental
/// adjoint is not the exact transpose of the incremental state solve and
/// symmetry only holds to discretization error; the in-module tests cover
/// that regime.)
#[test]
fn gauss_newton_hessian_is_self_adjoint_at_zero_velocity() {
    prop_check!(cases = 6, |rng| {
        let grid = Grid::cubic(12);
        let seed_t = rng.next_u64();
        let mut r1 = diffreg_testkit::Rng::new(seed_t);
        with_serial_ws(grid, |ws| {
            let t = random_scalar(&mut r1, &grid, ws.block(), 4, 0.5);
            let r = random_scalar(&mut r1, &grid, ws.block(), 4, 0.5);
            let cfg = RegistrationConfig::default();
            let mut prob = RegProblem::new(ws, &t, &r, cfg);
            prob.linearize(&VectorField::zeros(ws.block()));
            let d1 = random_vector(&mut r1, &grid, ws.block(), 0.3);
            let d2 = random_vector(&mut r1, &grid, ws.block(), 0.3);
            let h1 = prob.hessian_vec(&d1);
            let h2 = prob.hessian_vec(&d2);
            let ops = prob.ops();
            let asym = adjoint_asymmetry(
                ops.dot(&h1, &d2),
                ops.dot(&d1, &h2),
                ops.norm(&d1),
                ops.norm(&d2),
            );
            assert!(asym < 1e-10, "GN Hessian adjoint asymmetry {asym} at v = 0");
        });
    });
}

/// Seeded finite-difference check of the reduced adjoint gradient at random
/// band-limited velocities and directions: `⟨g, d⟩` must match the central
/// difference of the objective to discretization accuracy, relative to the
/// gradient scale.
#[test]
fn reduced_gradient_matches_finite_differences() {
    prop_check!(cases = 4, |rng| {
        let grid = Grid::cubic(12);
        let seed = rng.next_u64();
        let mut r1 = diffreg_testkit::Rng::new(seed);
        with_serial_ws(grid, |ws| {
            let t = ScalarField::from_fn(&grid, ws.block(), |x| {
                (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
            });
            let r = ScalarField::from_fn(&grid, ws.block(), |x| {
                ((x[0] - 0.3).sin().powi(2) + (x[1] + 0.2).sin().powi(2) + x[2].sin().powi(2))
                    / 3.0
            });
            let cfg = RegistrationConfig { nt: 4, beta: 1e-2, ..Default::default() };
            let mut prob = RegProblem::new(ws, &t, &r, cfg);
            let v = random_vector(&mut r1, &grid, ws.block(), 0.1);
            let dir = random_vector(&mut r1, &grid, ws.block(), 0.1);
            let (_, g) = prob.linearize(&v);
            let gd = prob.ops().dot(&g, &dir);
            let eps = 1e-4;
            let mut vp = v.clone();
            vp.axpy(eps, &dir);
            let mut vm = v.clone();
            vm.axpy(-eps, &dir);
            let fd = (prob.objective(&vp) - prob.objective(&vm)) / (2.0 * eps);
            let scale = prob.ops().norm(&g) * prob.ops().norm(&dir);
            // Random band-limited fields carry more high-frequency content
            // than the hand-picked probe of the in-module 1e-3 check, so the
            // optimize-then-discretize gap is larger here; it vanishes under
            // refinement.
            let rel = (gd - fd).abs() / scale.max(1e-12);
            assert!(rel < 1e-2, "seed {seed:#x}: ⟨g,d⟩={gd} fd={fd} rel={rel}");
        });
    });
}

/// Registration oracle with a known solution: template and reference are
/// the same periodic Gaussian bump offset by a known shift. The rigid
/// baseline must recover the shift itself; the deformable solver must drive
/// the mismatch far below the unregistered value while staying
/// diffeomorphic.
#[test]
fn gaussian_pair_registration_recovers_known_shift() {
    let pair = GaussianPair::new([0.4, -0.25, 0.15], 0.7);
    let grid = Grid::cubic(16);
    with_serial_ws(grid, |ws| {
        let t = ScalarField::from_fn(&grid, ws.block(), |x| pair.template(x));
        let r = ScalarField::from_fn(&grid, ws.block(), |x| pair.reference(x));

        // Rigid baseline: the ground truth IS a translation; the recovered
        // shift must match it.
        let rigid = register_translation(ws, &t, &r, 100);
        for a in 0..3 {
            assert!(
                (rigid.shift[a] - pair.shift[a]).abs() < 0.02,
                "axis {a}: recovered {} vs ground truth {}",
                rigid.shift[a],
                pair.shift[a]
            );
        }

        // Deformable solve: must beat the unregistered mismatch decisively
        // and produce a diffeomorphic map.
        let out = register(ws, &t, &r, RegistrationConfig::default());
        assert!(
            out.relative_mismatch() < 0.3,
            "deformable solver left {} of the mismatch",
            out.relative_mismatch()
        );
        assert!(out.det_grad.diffeomorphic, "map must stay diffeomorphic");
        assert!(out.report.total_matvecs > 0);
    });
}
