//! Seeded property tests of the Krylov/Newton machinery on random problems,
//! plus analytic oracles: diagonal systems with closed-form solutions, an
//! adjoint-symmetry check of the SPD test operator, and a finite-difference
//! gradient check of a dense Gauss-Newton model problem.

use diffreg_optim::{
    gauss_newton_observed, pcg, DenseOps, Forcing, GaussNewtonProblem, NewtonOptions, PcgOptions,
    PcgStatus, VectorOps,
};
use diffreg_testkit::oracle::{adjoint_asymmetry, fd_directional};
use diffreg_testkit::{prop_check, Rng};

/// Builds a random SPD matrix A = D + c vvᵀ with D positive diagonal
/// (always SPD for c ≥ 0), applied matrix-free.
fn apply_spd(diag: &[f64], c: f64, v: &[f64], x: &[f64]) -> Vec<f64> {
    let vx: f64 = v.iter().zip(x).map(|(a, b)| a * b).sum();
    diag.iter().zip(x).zip(v).map(|((d, xi), vi)| d * xi + c * vx * vi).collect()
}

fn random_spd(rng: &mut Rng) -> (Vec<f64>, f64, Vec<f64>) {
    let n = rng.len_scaled(2, 20);
    let diag = rng.vec_uniform(n, 0.5, 10.0);
    let v = rng.vec_uniform(n, -1.0, 1.0);
    let c = rng.uniform(0.0, 5.0);
    (diag, c, v)
}

#[test]
fn pcg_solves_random_spd_systems() {
    prop_check!(cases = 48, |rng| {
        let (diag, c, v) = random_spd(rng);
        let n = diag.len();
        let b = rng.vec_uniform(n, -1.0, 1.0);
        let ops = DenseOps;
        let (x, rep) = pcg(
            &ops,
            |p: &Vec<f64>| apply_spd(&diag, c, &v, p),
            |r: &Vec<f64>| r.clone(),
            &b,
            &PcgOptions { rtol: 1e-10, atol: 0.0, max_iter: 20 * n },
        );
        // Residual check: ||Ax - b|| small relative to ||b||.
        let ax = apply_spd(&diag, c, &v, &x);
        let bnorm = ops.norm(&b);
        let rnorm: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
        assert!(
            rnorm <= 1e-7 * bnorm.max(1e-12),
            "residual {rnorm} vs {bnorm} (status {:?}, iters {})",
            rep.status,
            rep.iterations
        );
    });
}

/// The SPD test operator must be self-adjoint to round-off:
/// `|⟨Hx,y⟩ − ⟨x,Hy⟩| < 1e-10 ‖x‖‖y‖`. This pins the inner-product
/// convention every PCG convergence proof relies on.
#[test]
fn spd_operator_is_self_adjoint() {
    prop_check!(cases = 64, |rng| {
        let (diag, c, v) = random_spd(rng);
        let n = diag.len();
        let x = rng.vec_uniform(n, -2.0, 2.0);
        let y = rng.vec_uniform(n, -2.0, 2.0);
        let ops = DenseOps;
        let hx = apply_spd(&diag, c, &v, &x);
        let hy = apply_spd(&diag, c, &v, &y);
        let asym =
            adjoint_asymmetry(ops.dot(&hx, &y), ops.dot(&x, &hy), ops.norm(&x), ops.norm(&y));
        assert!(asym < 1e-10, "adjoint asymmetry {asym}");
    });
}

/// Analytic oracle: for a pure diagonal system the solution is known in
/// closed form (x_i = b_i / d_i); PCG must reproduce it to solver tolerance.
#[test]
fn pcg_matches_analytic_diagonal_solution() {
    prop_check!(cases = 32, |rng| {
        let n = rng.len_scaled(2, 24);
        let diag = rng.vec_uniform(n, 0.5, 50.0);
        let b = rng.vec_uniform(n, -3.0, 3.0);
        let (x, _) = pcg(
            &DenseOps,
            |p: &Vec<f64>| p.iter().zip(&diag).map(|(v, d)| v * d).collect(),
            |r: &Vec<f64>| r.clone(),
            &b,
            &PcgOptions { rtol: 1e-12, atol: 0.0, max_iter: 10 * n },
        );
        for i in 0..n {
            let exact = b[i] / diag[i];
            assert!((x[i] - exact).abs() < 1e-8 * (1.0 + exact.abs()), "x[{i}]");
        }
    });
}

#[test]
fn pcg_converges_in_at_most_n_iterations() {
    prop_check!(cases = 48, |rng| {
        // Exact-arithmetic CG terminates in <= n steps; allow slack for
        // floating point.
        let n = rng.len_scaled(2, 15);
        let diag = rng.vec_uniform(n, 0.5, 10.0);
        let b = vec![1.0; n];
        let ops = DenseOps;
        let (_, rep) = pcg(
            &ops,
            |p: &Vec<f64>| p.iter().zip(&diag).map(|(x, d)| x * d).collect(),
            |r: &Vec<f64>| r.clone(),
            &b,
            &PcgOptions { rtol: 1e-9, atol: 0.0, max_iter: 4 * n },
        );
        assert_eq!(rep.status, PcgStatus::Converged);
        assert!(rep.iterations <= n + 2, "{} iterations for n={n}", rep.iterations);
    });
}

#[test]
fn exact_preconditioner_converges_in_one_step() {
    prop_check!(cases = 48, |rng| {
        let n = rng.len_scaled(2, 20);
        let diag = rng.vec_uniform(n, 0.5, 100.0);
        let mut b = rng.vec_uniform(n, -1.0, 1.0);
        if b.iter().all(|v| v.abs() <= 1e-3) {
            b[0] = 1.0; // keep the RHS nontrivial
        }
        let (_, rep) = pcg(
            &DenseOps,
            |p: &Vec<f64>| p.iter().zip(&diag).map(|(x, d)| x * d).collect(),
            |r: &Vec<f64>| r.iter().zip(&diag).map(|(x, d)| x / d).collect(),
            &b,
            &PcgOptions { rtol: 1e-10, atol: 0.0, max_iter: 100 },
        );
        assert!(rep.iterations <= 2, "M = A must converge immediately: {}", rep.iterations);
    });
}

#[test]
fn pcg_monotone_energy_norm() {
    prop_check!(cases = 48, |rng| {
        // CG minimizes the A-norm of the error over growing Krylov spaces:
        // the objective phi(x) = 1/2 xᵀAx − bᵀx is non-increasing in the
        // iteration count (checked by solving with increasing max_iter).
        let n = rng.len_scaled(3, 12);
        let diag = rng.vec_uniform(n, 0.5, 10.0);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 5) as f64 - 2.0).collect();
        let ops = DenseOps;
        let phi = |x: &Vec<f64>| -> f64 {
            let ax: Vec<f64> = x.iter().zip(&diag).map(|(v, d)| v * d).collect();
            0.5 * ops.dot(x, &ax) - ops.dot(&b, x)
        };
        let mut last = 0.0; // phi(0)
        for it in 1..=n {
            let (x, _) = pcg(
                &ops,
                |p: &Vec<f64>| p.iter().zip(&diag).map(|(v, d)| v * d).collect(),
                |r: &Vec<f64>| r.clone(),
                &b,
                &PcgOptions { rtol: 0.0, atol: 1e-300, max_iter: it },
            );
            let val = phi(&x);
            assert!(val <= last + 1e-9, "phi increased at iter {it}: {val} > {last}");
            last = val;
        }
    });
}

/// A dense quadratic model problem `J(x) = 1/2 ||x − t||² + β/2 ||x||²`
/// with the closed-form minimizer `x* = t / (1 + β)` — the optim-crate
/// analogue of the registration objective (data term + Tikhonov).
struct Quadratic {
    target: Vec<f64>,
    beta: f64,
    ops: DenseOps,
}

impl GaussNewtonProblem for Quadratic {
    type Vec = Vec<f64>;
    type Ops = DenseOps;

    fn ops(&self) -> &DenseOps {
        &self.ops
    }

    fn objective(&mut self, x: &Vec<f64>) -> f64 {
        let data: f64 = x.iter().zip(&self.target).map(|(a, t)| (a - t).powi(2)).sum();
        let reg: f64 = x.iter().map(|a| a * a).sum();
        0.5 * data + 0.5 * self.beta * reg
    }

    fn linearize(&mut self, x: &Vec<f64>) -> (f64, Vec<f64>) {
        let j = self.objective(x);
        let g = x.iter().zip(&self.target).map(|(a, t)| (a - t) + self.beta * a).collect();
        (j, g)
    }

    fn hessian_vec(&mut self, d: &Vec<f64>) -> Vec<f64> {
        d.iter().map(|a| (1.0 + self.beta) * a).collect()
    }

    fn precondition(&mut self, r: &Vec<f64>) -> Vec<f64> {
        r.clone()
    }
}

/// Finite-difference gradient check plus convergence to the analytic
/// minimizer for the Gauss-Newton driver.
#[test]
fn gauss_newton_solves_quadratic_to_analytic_minimum() {
    prop_check!(cases = 24, |rng| {
        let n = rng.len_scaled(2, 12);
        let target = rng.vec_uniform(n, -2.0, 2.0);
        let beta = rng.uniform(0.01, 1.0);
        let mut prob = Quadratic { target: target.clone(), beta, ops: DenseOps };

        // FD gradient check at a random point along a random direction.
        let x0 = rng.vec_uniform(n, -1.0, 1.0);
        let dir = rng.vec_uniform(n, -1.0, 1.0);
        let (_, g) = prob.linearize(&x0);
        let gd = DenseOps.dot(&g, &dir);
        let fd = fd_directional(
            |e| {
                let xe: Vec<f64> = x0.iter().zip(&dir).map(|(a, d)| a + e * d).collect();
                prob.objective(&xe)
            },
            1e-6,
        );
        assert!((gd - fd).abs() < 1e-6 * (1.0 + gd.abs()), "gradient FD check: {gd} vs {fd}");

        // The driver must land on x* = t / (1 + β).
        let x0 = vec![0.0; n];
        let opts = NewtonOptions {
            gtol: 1e-12,
            max_iter: 50,
            forcing: Forcing::Constant(1e-12),
            ..Default::default()
        };
        let (x, report) = gauss_newton_observed(&mut prob, x0, &opts, None, |_, _| {});
        for i in 0..n {
            let exact = target[i] / (1.0 + beta);
            assert!(
                (x[i] - exact).abs() < 1e-6,
                "x[{i}] = {} vs analytic {exact} (status {:?})",
                x[i],
                report.status
            );
        }
    });
}
