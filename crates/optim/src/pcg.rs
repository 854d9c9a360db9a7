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
///
/// The operator is applied to `z_k = M⁻¹ r_k`, the vector the preconditioner
/// has just returned, and `A p_k` follows from the recurrence
/// `q_k = A z_k + β_k q_{k−1}` (since `p_k = z_k + β_k p_{k−1}`): the form
/// pipelined CG uses. In exact arithmetic this is textbook PCG with one
/// matvec per iteration, and `apply_a` only ever receives the vector
/// `apply_minv` last returned, so a problem can reuse work its
/// preconditioner did on that vector. The tolerance and `max_iter` are
/// tested before the preconditioner runs, so it runs once per iteration:
/// before the first, and after every one but the last.
pub fn pcg<V: Clone, S: VectorOps<V>>(
    space: &S,
    mut apply_a: impl FnMut(&V) -> V,
    mut apply_minv: impl FnMut(&V) -> V,
    b: &V,
    opts: &PcgOptions,
) -> (V, PcgReport) {
    let bnorm = space.norm(b);
    let mut x = space.zero_like(b);
    if bnorm == 0.0 {
        return (x, PcgReport { status: PcgStatus::ZeroRhs, iterations: 0, residual: 0.0 });
    }
    if !bnorm.is_finite() {
        // A poisoned right-hand side: nothing to solve from.
        return (x, PcgReport { status: PcgStatus::NonFinite, iterations: 0, residual: bnorm });
    }
    let tol = (opts.rtol * bnorm).max(opts.atol);
    if bnorm <= tol || opts.max_iter == 0 {
        let status = if bnorm <= tol { PcgStatus::Converged } else { PcgStatus::MaxIterations };
        return (x, PcgReport { status, iterations: 0, residual: bnorm });
    }

    let mut r = b.clone();
    // The first search direction is the preconditioned residual itself.
    let mut z = apply_minv(&r);
    let mut rz = space.dot(&r, &z);
    if !rz.is_finite() {
        // The preconditioner produced NaN/Inf.
        return (x, PcgReport { status: PcgStatus::NonFinite, iterations: 0, residual: bnorm });
    }
    let mut rnorm = bnorm;
    let mut iters = 0;
    // The previous search direction `p` and its image `q = A p`, with the
    // coefficient `β` that carries them into the next pair.
    let mut prev: Option<(V, V)> = None;
    let mut beta = 0.0;

    loop {
        let mut az = apply_a(&z);
        iters += 1;
        // p = z + β p and q = A z + β q; `z` is consumed here.
        let (p, q) = match prev.take() {
            None => (z, az),
            Some((mut p, q)) => {
                space.scale(&mut p, beta);
                space.axpy(&mut p, 1.0, &z);
                drop(z);
                space.axpy(&mut az, beta, &q);
                (p, az)
            }
        };
        let pap = space.dot(&p, &q);
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
            // the preconditioned gradient, still `p`, if nothing has been
            // accumulated).
            if iters == 1 {
                x = p;
            }
            return (
                x,
                PcgReport { status: PcgStatus::IndefiniteOperator, iterations: iters, residual: rnorm },
            );
        }
        let alpha = rz / pap;
        space.axpy(&mut r, -alpha, &q);
        rnorm = space.norm(&r);
        if !rnorm.is_finite() {
            // The update poisoned the residual: truncate to the last good
            // iterate, which `x` still is.
            return (
                x,
                PcgReport { status: PcgStatus::NonFinite, iterations: iters, residual: rnorm },
            );
        }
        space.axpy(&mut x, alpha, &p);
        // Both exits come before the preconditioner: a residual that ends
        // the solve is not preconditioned.
        if rnorm <= tol || iters == opts.max_iter {
            let status =
                if rnorm <= tol { PcgStatus::Converged } else { PcgStatus::MaxIterations };
            return (x, PcgReport { status, iterations: iters, residual: rnorm });
        }
        z = apply_minv(&r);
        let rz_new = space.dot(&r, &z);
        if !rz_new.is_finite() {
            return (
                x,
                PcgReport { status: PcgStatus::NonFinite, iterations: iters, residual: rnorm },
            );
        }
        beta = rz_new / rz;
        rz = rz_new;
        prev = Some((p, q));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::DenseOps;

    fn apply_dense(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter().map(|row| row.iter().zip(x).map(|(c, v)| c * v).sum()).collect()
    }

    /// Textbook PCG (the matvec applied to the search direction), kept as
    /// the oracle of the recurrence form `pcg` runs.
    fn textbook_pcg(
        a: &dyn Fn(&[f64]) -> Vec<f64>,
        minv: &dyn Fn(&[f64]) -> Vec<f64>,
        b: &[f64],
        opts: &PcgOptions,
    ) -> (Vec<f64>, usize) {
        let dot = |u: &[f64], v: &[f64]| -> f64 { u.iter().zip(v).map(|(x, y)| x * y).sum() };
        let tol = (opts.rtol * dot(b, b).sqrt()).max(opts.atol);
        let mut x = vec![0.0; b.len()];
        let mut r = b.to_vec();
        let mut p = minv(&r);
        let mut rz = dot(&r, &p);
        let mut iters = 0;
        while iters < opts.max_iter && dot(&r, &r).sqrt() > tol {
            let ap = a(&p);
            iters += 1;
            let alpha = rz / dot(&p, &ap);
            for i in 0..x.len() {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let z = minv(&r);
            let rz_new = dot(&r, &z);
            for i in 0..p.len() {
                p[i] = z[i] + rz_new / rz * p[i];
            }
            rz = rz_new;
        }
        (x, iters)
    }

    type Op = Box<dyn Fn(&[f64]) -> Vec<f64>>;

    /// `(A, M⁻¹, b, opts)`: the SPD systems of the tests in this module,
    /// and one under a Jacobi preconditioner that is not `A`'s inverse.
    fn spd_fixtures() -> Vec<(Op, Op, Vec<f64>, PcgOptions)> {
        let tridiag = |v: &[f64]| -> Vec<f64> {
            (0..v.len())
                .map(|i| {
                    3.0 * v[i] - if i > 0 { v[i - 1] } else { 0.0 }
                        - if i + 1 < v.len() { v[i + 1] } else { 0.0 }
                })
                .collect()
        };
        let identity = |v: &[f64]| v.to_vec();
        let diag50: Vec<f64> = (0..50).map(|i| 1.0 + (i as f64) * 100.0).collect();
        let diag30: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        // Diagonal plus tridiagonal under Jacobi: the recurrence runs for
        // many steps.
        let jacobi_diag: Vec<f64> =
            (0..40).map(|i| 3.0 + (i as f64 * 0.37).sin().abs() * 5.0).collect();
        let (jd, jd2) = (jacobi_diag.clone(), jacobi_diag);
        let (d50a, d50b, d30) = (diag50.clone(), diag50, diag30);
        let tight = PcgOptions { rtol: 1e-12, atol: 0.0, max_iter: 200 };
        vec![
            (
                Box::new(tridiag),
                Box::new(identity),
                (0..20).map(|i| (i as f64 * 0.7).sin()).collect(),
                tight,
            ),
            (
                Box::new(move |v: &[f64]| v.iter().zip(&d50a).map(|(x, d)| x * d).collect()),
                Box::new(identity),
                (0..50).map(|i| (i as f64).cos()).collect(),
                PcgOptions { rtol: 1e-10, atol: 0.0, max_iter: 500 },
            ),
            (
                Box::new(move |v: &[f64]| v.iter().zip(&d50b).map(|(x, d)| x * d).collect()),
                Box::new(|v: &[f64]| {
                    v.iter().enumerate().map(|(i, x)| x / (1.0 + i as f64 * 90.0)).collect()
                }),
                (0..50).map(|i| (i as f64).cos()).collect(),
                PcgOptions { rtol: 1e-10, atol: 0.0, max_iter: 500 },
            ),
            (
                Box::new(move |v: &[f64]| v.iter().zip(&d30).map(|(x, d)| x * d).collect()),
                Box::new(identity),
                vec![1.0; 30],
                PcgOptions { rtol: 1e-1, atol: 0.0, max_iter: 500 },
            ),
            (
                Box::new(move |v: &[f64]| {
                    let t = tridiag(v);
                    t.iter().zip(v).zip(&jd).map(|((t, x), d)| t + (d - 3.0) * x).collect()
                }),
                Box::new(move |v: &[f64]| v.iter().zip(&jd2).map(|(x, d)| x / d).collect()),
                (0..40).map(|i| 1.0 + (i as f64 * 0.3).cos()).collect(),
                tight,
            ),
        ]
    }

    #[test]
    fn recurrence_form_matches_textbook_pcg() {
        let ops = DenseOps;
        for (k, (a, minv, b, opts)) in spd_fixtures().into_iter().enumerate() {
            let (x, rep) = pcg(&ops, |v: &Vec<f64>| a(v), |v: &Vec<f64>| minv(v), &b, &opts);
            let (x_ref, iters_ref) = textbook_pcg(&*a, &*minv, &b, &opts);
            assert_eq!(rep.status, PcgStatus::Converged, "fixture {k}");
            assert_eq!(rep.iterations, iters_ref, "fixture {k}: iteration counts differ");
            let scale = x_ref.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            for (got, want) in x.iter().zip(&x_ref) {
                assert!((got - want).abs() <= 1e-10 * scale, "fixture {k}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn operator_only_sees_what_the_preconditioner_last_returned() {
        let ops = DenseOps;
        for (k, (a, minv, b, opts)) in spd_fixtures().into_iter().enumerate() {
            let last: std::cell::RefCell<Option<Vec<f64>>> = std::cell::RefCell::new(None);
            let (matvecs, preconds) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
            let (_, rep) = pcg(
                &ops,
                |v: &Vec<f64>| {
                    let seen = last.borrow();
                    let want = seen.as_ref().expect("the preconditioner runs before the operator");
                    assert!(
                        v.iter().zip(want).all(|(p, q)| p.to_bits() == q.to_bits()),
                        "fixture {k}: the operator got a vector the preconditioner did not return"
                    );
                    matvecs.set(matvecs.get() + 1);
                    a(v)
                },
                |v: &Vec<f64>| {
                    preconds.set(preconds.get() + 1);
                    let z = minv(v);
                    *last.borrow_mut() = Some(z.clone());
                    z
                },
                &b,
                &opts,
            );
            assert_eq!(matvecs.get(), rep.iterations, "fixture {k}");
            // One preconditioner call before the loop and one after every
            // iteration but the last: the residual that ends the solve is
            // never preconditioned.
            assert_eq!(preconds.get(), rep.iterations, "fixture {k}");
        }
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
