//! Seeded property tests of the interpolation kernels and the distributed
//! scatter plan, pinned to analytic oracles: cubic polynomials (which the
//! tricubic kernel must reproduce exactly), periodic wraparound identities,
//! and the ownership partition of the scatter plan across simulated ranks.

use diffreg_comm::{run_threaded, Comm, SerialComm, Timers};
use diffreg_grid::{Decomp, Grid, ScalarField};
use diffreg_interp::{cubic_weights, ghosted, Kernel, ScatterPlan};
use diffreg_testkit::oracle::PlaneWave;
use diffreg_testkit::{prop_check, Rng};
use std::f64::consts::TAU;

#[test]
fn cubic_weights_partition_of_unity() {
    prop_check!(cases = 128, |rng| {
        let t = rng.uniform(0.0, 1.0);
        let w = cubic_weights(t);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // First moment: nodes at -1,0,1,2 reproduce linear functions.
        let m1: f64 = -w[0] + w[1] * 0.0 + w[2] * 1.0 + w[3] * 2.0;
        assert!((m1 - t).abs() < 1e-12);
        // Second and third moments (cubic exactness).
        let m2: f64 = w[0] + w[2] + 4.0 * w[3];
        assert!((m2 - t * t).abs() < 1e-12);
        let m3: f64 = -w[0] + w[2] + 8.0 * w[3];
        assert!((m3 - t * t * t).abs() < 1e-12);
    });
}

#[test]
fn constant_field_is_interpolated_exactly() {
    prop_check!(cases = 24, |rng| {
        let c = rng.uniform(-5.0, 5.0);
        let npts = rng.len_scaled(1, 40);
        let pts: Vec<[f64; 3]> = (0..npts)
            .map(|_| [rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)])
            .collect();
        let grid = Grid::cubic(8);
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let mut f = ScalarField::zeros(d.block(0));
        f.fill(c);
        let ghost = ghosted(&comm, &d, &f);
        let timers = Timers::new();
        let plan = ScatterPlan::build(&comm, &d, &pts, &timers);
        for kernel in [Kernel::Tricubic, Kernel::Trilinear] {
            let vals = plan.interpolate(&comm, &ghost, kernel, &timers);
            for v in &vals {
                assert!((v - c).abs() < 1e-12, "{kernel:?}");
            }
        }
    });
}

#[test]
fn grid_points_are_reproduced() {
    prop_check!(cases = 24, |rng| {
        let seed = rng.next_u64() % 1000;
        let nidx = rng.len_scaled(1, 20);
        let idx: Vec<(usize, usize, usize)> =
            (0..nidx).map(|_| (rng.index(8), rng.index(8), rng.index(8))).collect();
        let grid = Grid::cubic(8);
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let block = d.block(0);
        let f = ScalarField::from_vec(
            block,
            (0..block.len()).map(|l| ((l as u64 * 2654435761 + seed) % 1000) as f64 * 0.01).collect(),
        );
        let ghost = ghosted(&comm, &d, &f);
        let timers = Timers::new();
        let pts: Vec<[f64; 3]> = idx
            .iter()
            .map(|&(i, j, k)| [grid.coord(0, i), grid.coord(1, j), grid.coord(2, k)])
            .collect();
        let plan = ScatterPlan::build(&comm, &d, &pts, &timers);
        let vals = plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        for (&(i, j, k), v) in idx.iter().zip(&vals) {
            let expect = f.data()[block.local_index([i, j, k])];
            assert!((v - expect).abs() < 1e-11);
        }
    });
}

/// Analytic oracle: the tensor-product tricubic kernel reproduces products
/// of per-axis cubic polynomials *exactly* at arbitrary off-grid points
/// (its weights have exact moments up to t³ — see
/// `cubic_weights_partition_of_unity`). The polynomial is evaluated in
/// grid-index coordinates and the queries stay ≥ 2 cells away from the
/// periodic seam, where the wrapped stencil would see the polynomial's
/// discontinuity.
#[test]
fn tricubic_reproduces_cubic_polynomials_off_grid() {
    prop_check!(cases = 24, |rng| {
        let n = 16usize;
        let grid = Grid::cubic(n);
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let block = d.block(0);
        let h = TAU / n as f64;
        // Random cubic in each axis, p(x) = c0 + c1 u + c2 u² + c3 u³ with
        // u = x/h the grid-index coordinate; the test field is the product.
        let coef: Vec<[f64; 4]> = (0..3)
            .map(|_| {
                [
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(-0.3, 0.3),
                    rng.uniform(-0.05, 0.05),
                    rng.uniform(-0.005, 0.005),
                ]
            })
            .collect();
        let poly1 = |a: usize, u: f64| {
            coef[a][0] + coef[a][1] * u + coef[a][2] * u * u + coef[a][3] * u * u * u
        };
        let poly = |x: [f64; 3]| (0..3).map(|a| poly1(a, x[a] / h)).product::<f64>();
        let f = ScalarField::from_fn(&grid, block, poly);
        let ghost = ghosted(&comm, &d, &f);
        let timers = Timers::new();
        // Off-grid queries in the interior: base index in [2, n-4], random
        // fraction — the 4-point stencil never crosses the periodic seam.
        let pts: Vec<[f64; 3]> = (0..20)
            .map(|_| {
                [
                    (2 + rng.index(n - 6)) as f64 * h + rng.uniform(0.0, 1.0) * h,
                    (2 + rng.index(n - 6)) as f64 * h + rng.uniform(0.0, 1.0) * h,
                    (2 + rng.index(n - 6)) as f64 * h + rng.uniform(0.0, 1.0) * h,
                ]
            })
            .collect();
        let plan = ScatterPlan::build(&comm, &d, &pts, &timers);
        let vals = plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        for (p, v) in pts.iter().zip(&vals) {
            let exact = poly(*p);
            assert!(
                (v - exact).abs() < 1e-10 * (1.0 + exact.abs()),
                "tricubic not exact on cubic: {v} vs {exact} at {p:?}"
            );
        }
    });
}

#[test]
fn periodic_wrap_consistency() {
    prop_check!(cases = 24, |rng| {
        // Interpolating at x and at x + 2π (any axis) must agree.
        let npts = rng.len_scaled(1, 20);
        let pts: Vec<[f64; 3]> = (0..npts).map(|_| rng.point_2pi()).collect();
        let grid = Grid::cubic(8);
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let f = ScalarField::from_fn(&grid, d.block(0), |x| {
            x[0].sin() + (2.0 * x[1]).cos() * x[2].sin()
        });
        let ghost = ghosted(&comm, &d, &f);
        let timers = Timers::new();
        let wrapped: Vec<[f64; 3]> =
            pts.iter().map(|p| [p[0] + TAU, p[1] - TAU, p[2] + 2.0 * TAU]).collect();
        let p1 = ScatterPlan::build(&comm, &d, &pts, &timers);
        let p2 = ScatterPlan::build(&comm, &d, &wrapped, &timers);
        let a = p1.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        let b = p2.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-10);
        }
    });
}

/// Interpolation is linear in the field, `I[a·f + b·g] = a·I[f] + b·I[g]`
/// up to rounding — the identity the transport solvers rely on when they
/// interpolate a linear combination once instead of each term.
#[test]
fn interpolation_is_linear_in_the_field() {
    for p in [1usize, 4] {
        prop_check!(cases = 8, |rng| {
            let (a, b) = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
            let modes: [[PlaneWave; 2]; 2] =
                [0, 1].map(|_| [PlaneWave::random(rng, 2), PlaneWave::random(rng, 2)]);
            let npts = rng.len_scaled(4, 60);
            let seed = rng.next_u64();
            let grid = Grid::new([10, 8, 9]);
            run_threaded(p, move |comm| {
                let d = Decomp::new(grid, comm.size());
                let block = d.block(comm.rank());
                let smooth = |m: [PlaneWave; 2]| {
                    ScalarField::from_fn(&grid, block, |x| m[0].eval(x) + m[1].eval(x))
                };
                let (f, g) = (smooth(modes[0]), smooth(modes[1]));
                let mut comb = f.clone();
                comb.scale(a);
                comb.axpy(b, &g);
                let mut rr = Rng::new(seed ^ comm.rank() as u64);
                let pts: Vec<[f64; 3]> = (0..npts).map(|_| rr.point_2pi()).collect();
                let timers = Timers::new();
                let plan = ScatterPlan::build(comm, &d, &pts, &timers);
                for kernel in [Kernel::Tricubic, Kernel::Trilinear] {
                    let at = |field: &ScalarField| {
                        plan.interpolate(comm, &ghosted(comm, &d, field), kernel, &timers)
                    };
                    let (i_f, i_g, i_comb) = (at(&f), at(&g), at(&comb));
                    for ((vf, vg), vc) in i_f.iter().zip(&i_g).zip(&i_comb) {
                        let want = a * vf + b * vg;
                        let scale = (a * vf).abs() + (b * vg).abs() + 1.0;
                        assert!((vc - want).abs() < 1e-13 * scale, "{kernel:?}: {vc} vs {want}");
                    }
                }
            });
        });
    }
}

#[test]
fn interpolant_within_data_bounds_trilinear() {
    prop_check!(cases = 24, |rng| {
        // Trilinear interpolation is a convex combination: values must stay
        // inside the data range (tricubic may overshoot, by design).
        let npts = rng.len_scaled(1, 20);
        let pts: Vec<[f64; 3]> = (0..npts).map(|_| rng.point_2pi()).collect();
        let seed = rng.next_u64() % 100;
        let grid = Grid::cubic(6);
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let block = d.block(0);
        let data: Vec<f64> =
            (0..block.len()).map(|l| ((l as u64 * 97 + seed) % 7) as f64 - 3.0).collect();
        let lo = data.iter().cloned().fold(f64::MAX, f64::min);
        let hi = data.iter().cloned().fold(f64::MIN, f64::max);
        let f = ScalarField::from_vec(block, data);
        let ghost = ghosted(&comm, &d, &f);
        let timers = Timers::new();
        let plan = ScatterPlan::build(&comm, &d, &pts, &timers);
        let vals = plan.interpolate(&comm, &ghost, Kernel::Trilinear, &timers);
        for v in &vals {
            assert!(*v >= lo - 1e-12 && *v <= hi + 1e-12, "{v} outside [{lo}, {hi}]");
        }
    });
}

/// The scatter plan's ownership rule must partition the query set: across
/// all ranks, every point is assigned to exactly one owner, and the
/// distributed interpolation agrees with a serial solve of the same points.
#[test]
fn scatter_plan_ownership_partitions_points() {
    for p in [2usize, 4] {
        prop_check!(cases = 8, |rng| {
            let n_per_rank = rng.len_scaled(1, 25);
            let seed = rng.next_u64();
            let grid = Grid::new([8, 9, 7]);
            // Serial oracle values for every rank's points.
            let all_pts: Vec<Vec<[f64; 3]>> = (0..p)
                .map(|r| {
                    let mut rr = Rng::new(seed ^ r as u64);
                    (0..n_per_rank).map(|_| rr.point_2pi()).collect()
                })
                .collect();
            let field_fn =
                |x: [f64; 3]| x[0].sin() + (2.0 * x[1]).cos() * x[2].sin() + 0.3 * x[2].cos();
            let serial: Vec<Vec<f64>> = {
                let comm = SerialComm::new();
                let d = Decomp::new(grid, 1);
                let f = ScalarField::from_fn(&grid, d.block(0), field_fn);
                let ghost = ghosted(&comm, &d, &f);
                let timers = Timers::new();
                all_pts
                    .iter()
                    .map(|pts| {
                        let plan = ScatterPlan::build(&comm, &d, pts, &timers);
                        plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers)
                    })
                    .collect()
            };
            let all_pts2 = all_pts.clone();
            let serial2 = serial.clone();
            run_threaded(p, move |comm| {
                let d = Decomp::new(grid, comm.size());
                let block = d.block(comm.rank());
                let f = ScalarField::from_fn(&grid, block, field_fn);
                let ghost = ghosted(comm, &d, &f);
                let timers = Timers::new();
                let pts = &all_pts2[comm.rank()];
                let plan = ScatterPlan::build(comm, &d, pts, &timers);
                // Ownership partition: the total number of assigned points
                // across ranks equals the total number of queries — each
                // query has exactly one owner.
                let mut counts = [plan.assigned_len()];
                comm.allreduce_usize(&mut counts, diffreg_comm::ReduceOp::Sum);
                assert_eq!(counts[0], p * n_per_rank, "ownership is not a partition");
                // And the distributed result matches the serial oracle.
                let vals = plan.interpolate(comm, &ghost, Kernel::Tricubic, &timers);
                for (v, s) in vals.iter().zip(&serial2[comm.rank()]) {
                    assert!((v - s).abs() < 1e-11, "distributed != serial: {v} vs {s}");
                }
            });
        });
    }
}
