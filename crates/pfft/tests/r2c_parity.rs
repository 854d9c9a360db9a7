//! Oracle-parity tier for the distributed r2c path: the half-spectrum
//! plan must round-trip to near machine precision and every operator must
//! match its c2c reference — composed here from the full-spectrum
//! primitives (`forward`, `SpectralField`, `leray_project`, `inverse`) —
//! on seeded random real fields.

use diffreg_comm::{run_threaded, Timers};
use diffreg_grid::{Decomp, Grid, ScalarField, VectorField};
use diffreg_pfft::{leray_project, PencilFft, SpectralField};
use diffreg_testkit::{prop_check, Rng};

/// A smooth but symmetry-free scalar field parameterized by a seed.
fn seeded_scalar(grid: &Grid, block: diffreg_grid::Block, seed: u64) -> ScalarField {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
    let amps: Vec<f64> = (0..6).map(|_| rng.uniform(-1.0, 1.0)).collect();
    ScalarField::from_fn(grid, block, move |x| {
        amps[0] * x[0].sin()
            + amps[1] * (2.0 * x[1]).cos()
            + amps[2] * (x[2] + 0.3).sin()
            + amps[3] * (x[0] + x[1]).cos() * x[2].sin()
            + amps[4] * (2.0 * x[2] - x[0]).cos()
            + amps[5]
    })
}

fn seeded_vector(grid: &Grid, block: diffreg_grid::Block, seed: u64) -> VectorField {
    VectorField {
        comps: [
            seeded_scalar(grid, block, seed),
            seeded_scalar(grid, block, seed + 101),
            seeded_scalar(grid, block, seed + 202),
        ],
    }
}

fn assert_fields_close(a: &ScalarField, b: &ScalarField, tol: f64, what: &str) {
    for (x, y) in a.data().iter().zip(b.data()) {
        assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
    }
}

/// Forward∘inverse on the half-spectrum path is the identity to 1e-12,
/// including odd extents (full-c2c axis-2 fallback) and prime extents.
#[test]
fn r2c_roundtrip_is_identity() {
    for (n, p1, p2) in [
        ([8, 8, 8], 2, 2),
        ([6, 9, 5], 3, 1),
        ([8, 12, 10], 2, 4),
        ([7, 6, 17], 1, 2),
        ([4, 5, 13], 2, 1),
    ] {
        let grid = Grid::new(n);
        run_threaded(p1 * p2, move |comm| {
            let decomp = Decomp::with_process_grid(grid, p1, p2);
            let plan = PencilFft::new(comm, decomp);
            let field = seeded_scalar(&grid, plan.spatial_block(), 42);
            let timers = Timers::new();
            let spec = plan.forward_half(&field, &timers);
            assert_eq!(spec.data.len(), plan.half_block().len());
            let back = plan.inverse_half(&spec, &timers);
            assert_fields_close(&back, &field, 1e-12, "r2c roundtrip");
        });
    }
}

/// Every operator of the plan (r2c) matches the same operator composed
/// from the c2c primitives on seeded random fields, across serial and
/// distributed layouts.
#[test]
fn r2c_operators_match_c2c_path() {
    prop_check!(cases = 8, |rng| {
        let seed = rng.next_u64() % 10_000;
        let (n, p1, p2) = match rng.index(4) {
            0 => ([8, 8, 8], 2, 2),
            1 => ([6, 9, 5], 3, 1),
            2 => ([8, 12, 10], 2, 4),
            _ => ([7, 6, 4], 1, 2),
        };
        let grid = Grid::new(n);
        run_threaded(p1 * p2, move |comm| {
            let decomp = Decomp::with_process_grid(grid, p1, p2);
            let plan = PencilFft::new(comm, decomp);
            let timers = Timers::new();
            let tol = 1e-10 * grid.total() as f64;
            // c2c reference: full forward, edit the spectrum, full inverse.
            let c2c = |f: &ScalarField, edit: &dyn Fn(&mut SpectralField)| {
                let mut spec = plan.forward(f, &timers);
                edit(&mut spec);
                plan.inverse(&spec, &timers)
            };

            let f = seeded_scalar(&grid, plan.spatial_block(), seed);
            let g_fast = plan.gradient(&f, &timers);
            for axis in 0..3 {
                let g_ref = c2c(&f, &|s| s.differentiate(axis));
                assert_fields_close(
                    &g_fast.comps[axis],
                    &g_ref,
                    tol,
                    &format!("gradient axis {axis}"),
                );
                let d_fast = plan.derivative(&f, axis, &timers);
                assert_fields_close(&d_fast, &g_ref, tol, &format!("derivative axis {axis}"));
            }

            let s_fast = plan.gaussian_smooth(&f, 0.5, &timers);
            let s_ref = c2c(&f, &|s| s.apply_symbol(|k2| diffreg_spectral::gaussian(0.5, k2)));
            assert_fields_close(&s_fast, &s_ref, tol, "gaussian_smooth");

            let t_fast = plan.translate(&f, [0.3, -0.7, 1.1], &timers);
            let t_ref = c2c(&f, &|s| s.phase_shift([0.3, -0.7, 1.1]));
            assert_fields_close(&t_fast, &t_ref, tol, "translate");

            let v = seeded_vector(&grid, plan.spatial_block(), seed);
            let d_fast = plan.divergence(&v, &timers);
            let mut acc = SpectralField::zeros(grid, plan.spectral_block());
            for axis in 0..3 {
                let mut s = plan.forward(&v.comps[axis], &timers);
                s.differentiate(axis);
                acc.axpy(1.0, &s);
            }
            let d_ref = plan.inverse(&acc, &timers);
            assert_fields_close(&d_fast, &d_ref, tol, "divergence");

            let l_fast = plan.leray(&v, &timers);
            let mut spec = [0usize, 1, 2].map(|axis| plan.forward(&v.comps[axis], &timers));
            leray_project(&mut spec);
            for (axis, (fast, reference)) in l_fast.comps.iter().zip(&spec).enumerate() {
                let reference = plan.inverse(reference, &timers);
                assert_fields_close(fast, &reference, tol, &format!("leray axis {axis}"));
            }
            // The projection must actually be divergence-free.
            let div = plan.divergence(&l_fast, &timers);
            assert!(div.max_abs(comm) < tol, "projected divergence");
        });
    });
}

/// The distributed gradient costs one forward + three inverse transforms
/// on the half-spectrum path — the `fft_3d` counter must read exactly 4.
#[test]
fn distributed_gradient_costs_four_transforms() {
    let grid = Grid::new([8, 8, 8]);
    run_threaded(4, move |comm| {
        let decomp = Decomp::with_process_grid(grid, 2, 2);
        let plan = PencilFft::new(comm, decomp);
        let f = seeded_scalar(&grid, plan.spatial_block(), 7);
        let timers = Timers::new();
        let _ = plan.gradient(&f, &timers);
        assert_eq!(timers.get_count("fft_3d"), 4, "gradient must reuse one forward transform");
        let v = seeded_vector(&grid, plan.spatial_block(), 9);
        let _ = plan.divergence(&v, &timers);
        assert_eq!(timers.get_count("fft_3d"), 8, "divergence must use 3 forward + 1 inverse");
    });
}
