//! Matrix-free preconditioned conjugate gradients for the Newton step
//! (paper §III-A: "we use a preconditioned Conjugate-Gradient (PCG) method
//! to compute the Newton step ... done inexactly").

use crate::vector::VectorOps;

/// Options for one PCG solve.
#[derive(Debug, Clone, Copy)]
pub struct PcgOptions {
    /// Relative residual tolerance `‖r‖ ≤ rtol ‖b‖` (the Eisenstat-Walker
    /// forcing term when called from the Newton driver).
    pub rtol: f64,
    /// Absolute residual tolerance.
    pub atol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for PcgOptions {
    fn default() -> Self {
        Self { rtol: 1e-6, atol: 1e-16, max_iter: 500 }
    }
}

/// Why a PCG solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcgStatus {
    /// Residual tolerance reached.
    Converged,
    /// Iteration cap hit first.
    MaxIterations,
    /// Encountered a direction of non-positive curvature (the operator is
    /// not SPD); the iterate before the breakdown is returned, which is the
    /// standard inexact-Newton safeguard.
    IndefiniteOperator,
    /// The right-hand side was (numerically) zero.
    ZeroRhs,
    /// A NaN/Inf appeared in the residual, the curvature `pᵀAp`, or the
    /// preconditioned inner product: the Krylov recurrence is poisoned. The
    /// last iterate with a finite residual is returned so the outer solver
    /// can truncate to it and fall back to a safeguarded step.
    NonFinite,
}

/// Outcome of one PCG solve.
#[derive(Debug, Clone, Copy)]
pub struct PcgReport {
    /// Termination reason.
    pub status: PcgStatus,
    /// Matrix-vector products performed.
    pub iterations: usize,
    /// Final (unpreconditioned) residual norm.
    pub residual: f64,
}

/// Solves `A x = b` with preconditioned CG. `apply_a` is the Hessian matvec,
/// `apply_minv` the preconditioner. Starts from `x = 0` (the right choice
/// for Newton steps).
pub fn pcg<V: Clone, S: VectorOps<V>>(
    space: &S,
    mut apply_a: impl FnMut(&V) -> V,
    mut apply_minv: impl FnMut(&V) -> V,
    b: &V,
    opts: &PcgOptions,
) -> (V, PcgReport) {
    let bnorm = space.norm(b);
    let mut x = space.zero_like(b);
    // diffreg-allow(float-eq): exact-zero RHS detection — norms are >= 0 and only an identically zero b gives 0.0
    if bnorm == 0.0 {
        return (x, PcgReport { status: PcgStatus::ZeroRhs, iterations: 0, residual: 0.0 });
    }
    if !bnorm.is_finite() {
        // A poisoned right-hand side: nothing to solve from.
        return (x, PcgReport { status: PcgStatus::NonFinite, iterations: 0, residual: bnorm });
    }
    let tol = (opts.rtol * bnorm).max(opts.atol);

    let mut r = b.clone();
    let mut z = apply_minv(&r);
    let mut p = z.clone();
    let mut rz = space.dot(&r, &z);
    if !rz.is_finite() {
        // The preconditioner produced NaN/Inf.
        return (x, PcgReport { status: PcgStatus::NonFinite, iterations: 0, residual: bnorm });
    }
    let mut rnorm = bnorm;
    let mut iters = 0;

    while iters < opts.max_iter {
        if rnorm <= tol {
            return (x, PcgReport { status: PcgStatus::Converged, iterations: iters, residual: rnorm });
        }
        let ap = apply_a(&p);
        iters += 1;
        let pap = space.dot(&p, &ap);
        if !pap.is_finite() {
            // NaN/Inf out of the Hessian matvec: the current iterate is the
            // last one with a finite residual — hand it back untouched.
            return (
                x,
                PcgReport { status: PcgStatus::NonFinite, iterations: iters, residual: rnorm },
            );
        }
        if pap <= 0.0 {
            // Non-positive curvature: fall back to the current iterate (or
            // the preconditioned gradient if nothing has been accumulated).
            if iters == 1 {
                x = z.clone();
            }
            return (
                x,
                PcgReport { status: PcgStatus::IndefiniteOperator, iterations: iters, residual: rnorm },
            );
        }
        let alpha = rz / pap;
        let x_prev = x.clone();
        space.axpy(&mut x, alpha, &p);
        space.axpy(&mut r, -alpha, &ap);
        rnorm = space.norm(&r);
        if !rnorm.is_finite() {
            // The update poisoned the residual: truncate to the last good
            // iterate.
            return (
                x_prev,
                PcgReport { status: PcgStatus::NonFinite, iterations: iters, residual: rnorm },
            );
        }
        z = apply_minv(&r);
        let rz_new = space.dot(&r, &z);
        if !rz_new.is_finite() {
            return (
                x,
                PcgReport { status: PcgStatus::NonFinite, iterations: iters, residual: rnorm },
            );
        }
        let beta = rz_new / rz;
        rz = rz_new;
        // p = z + beta p
        space.scale(&mut p, beta);
        space.axpy(&mut p, 1.0, &z);
    }
    let status =
        if rnorm <= tol { PcgStatus::Converged } else { PcgStatus::MaxIterations };
    (x, PcgReport { status, iterations: iters, residual: rnorm })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::DenseOps;

    fn apply_dense(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter().map(|row| row.iter().zip(x).map(|(c, v)| c * v).sum()).collect()
    }

    #[test]
    fn solves_spd_system() {
        // A = tridiag(-1, 3, -1), SPD.
        let n = 20;
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            a[i][i] = 3.0;
            if i > 0 {
                a[i][i - 1] = -1.0;
            }
            if i + 1 < n {
                a[i][i + 1] = -1.0;
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = apply_dense(&a, &x_true);
        let ops = DenseOps;
        let (x, rep) = pcg(
            &ops,
            |v: &Vec<f64>| apply_dense(&a, v),
            |v: &Vec<f64>| v.clone(),
            &b,
            &PcgOptions { rtol: 1e-12, atol: 0.0, max_iter: 200 },
        );
        assert_eq!(rep.status, PcgStatus::Converged);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        // Diagonal matrix with huge condition number; Jacobi preconditioning
        // should converge in O(1) iterations.
        let n = 50;
        let diag: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 100.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let ops = DenseOps;
        let opts = PcgOptions { rtol: 1e-10, atol: 0.0, max_iter: 500 };
        let (_, plain) = pcg(
            &ops,
            |v: &Vec<f64>| v.iter().zip(&diag).map(|(x, d)| x * d).collect(),
            |v: &Vec<f64>| v.clone(),
            &b,
            &opts,
        );
        let (x, pre) = pcg(
            &ops,
            |v: &Vec<f64>| v.iter().zip(&diag).map(|(x, d)| x * d).collect(),
            |v: &Vec<f64>| v.iter().zip(&diag).map(|(x, d)| x / d).collect(),
            &b,
            &opts,
        );
        assert!(pre.iterations < plain.iterations / 2, "{} vs {}", pre.iterations, plain.iterations);
        for (got, (bi, di)) in x.iter().zip(b.iter().zip(&diag)) {
            assert!((got - bi / di).abs() < 1e-8);
        }
    }

    #[test]
    fn inexact_tolerance_stops_early() {
        let n = 30;
        let diag: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let b = vec![1.0; n];
        let ops = DenseOps;
        let (_, loose) = pcg(
            &ops,
            |v: &Vec<f64>| v.iter().zip(&diag).map(|(x, d)| x * d).collect(),
            |v: &Vec<f64>| v.clone(),
            &b,
            &PcgOptions { rtol: 1e-1, atol: 0.0, max_iter: 500 },
        );
        let (_, tight) = pcg(
            &ops,
            |v: &Vec<f64>| v.iter().zip(&diag).map(|(x, d)| x * d).collect(),
            |v: &Vec<f64>| v.clone(),
            &b,
            &PcgOptions { rtol: 1e-10, atol: 0.0, max_iter: 500 },
        );
        assert!(loose.iterations < tight.iterations);
    }

    #[test]
    fn detects_indefinite_operator() {
        let b = vec![1.0, 1.0];
        let ops = DenseOps;
        let (_, rep) = pcg(
            &ops,
            |v: &Vec<f64>| vec![-v[0], -v[1]],
            |v: &Vec<f64>| v.clone(),
            &b,
            &PcgOptions::default(),
        );
        assert_eq!(rep.status, PcgStatus::IndefiniteOperator);
    }

    #[test]
    fn nan_matvec_is_a_typed_breakdown() {
        let b = vec![1.0, 2.0];
        let ops = DenseOps;
        let (x, rep) = pcg(
            &ops,
            |_: &Vec<f64>| vec![f64::NAN, f64::NAN],
            |v: &Vec<f64>| v.clone(),
            &b,
            &PcgOptions::default(),
        );
        assert_eq!(rep.status, PcgStatus::NonFinite);
        // The returned iterate is the (finite) zero start, never NaN.
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nan_appearing_mid_solve_truncates_to_last_good_iterate() {
        // Matvec turns sour after the second application.
        let n = 8;
        let count = std::cell::Cell::new(0usize);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let ops = DenseOps;
        let (x, rep) = pcg(
            &ops,
            |v: &Vec<f64>| {
                count.set(count.get() + 1);
                if count.get() > 2 {
                    vec![f64::NAN; n]
                } else {
                    v.iter().enumerate().map(|(i, vi)| (2.0 + i as f64 * 0.1) * vi).collect()
                }
            },
            |v: &Vec<f64>| v.clone(),
            &b,
            &PcgOptions { rtol: 1e-14, atol: 0.0, max_iter: 100 },
        );
        assert_eq!(rep.status, PcgStatus::NonFinite);
        assert!(x.iter().all(|v| v.is_finite()), "{x:?}");
        assert!(x.iter().any(|&v| v != 0.0), "progress before the breakdown is kept");
    }

    #[test]
    fn non_finite_rhs_is_rejected() {
        let ops = DenseOps;
        let (x, rep) = pcg(
            &ops,
            |v: &Vec<f64>| v.clone(),
            |v: &Vec<f64>| v.clone(),
            &vec![f64::INFINITY, 0.0],
            &PcgOptions::default(),
        );
        assert_eq!(rep.status, PcgStatus::NonFinite);
        assert_eq!(rep.iterations, 0);
        assert!(x.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let ops = DenseOps;
        let (x, rep) = pcg(
            &ops,
            |v: &Vec<f64>| v.clone(),
            |v: &Vec<f64>| v.clone(),
            &vec![0.0; 4],
            &PcgOptions::default(),
        );
        assert_eq!(rep.status, PcgStatus::ZeroRhs);
        assert_eq!(x, vec![0.0; 4]);
    }
}
