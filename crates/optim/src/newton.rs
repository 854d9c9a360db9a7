//! Line-search globalized inexact (Gauss-)Newton-Krylov driver
//! (paper §III-A): Armijo backtracking, Eisenstat-Walker forcing for the
//! inner PCG tolerance, and a gradient-based termination criterion.

use crate::pcg::{pcg, PcgOptions, PcgStatus};
use crate::vector::VectorOps;

/// How the inner Krylov tolerance (the forcing term η_k) is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Forcing {
    /// Fixed tolerance.
    Constant(f64),
    /// Superlinear: `η = min(η_max, √(‖g‖/‖g₀‖))`.
    Superlinear,
    /// Quadratic: `η = min(η_max, ‖g‖/‖g₀‖)` (the paper's choice:
    /// "we use an inexact Newton method with quadratic forcing").
    Quadratic,
}

impl Forcing {
    /// Forcing term given the current relative gradient norm.
    pub fn eta(self, rel_grad: f64, eta_max: f64) -> f64 {
        match self {
            Forcing::Constant(c) => c.min(eta_max),
            Forcing::Superlinear => rel_grad.sqrt().min(eta_max),
            Forcing::Quadratic => rel_grad.min(eta_max),
        }
    }
}

/// Options for the Newton driver.
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Relative gradient tolerance: stop when `‖g‖ ≤ gtol ‖g₀‖`
    /// (the paper's `gtol = 1e-2`).
    pub gtol: f64,
    /// Maximum outer (Newton) iterations.
    pub max_iter: usize,
    /// Maximum Krylov iterations per Newton step.
    pub max_krylov: usize,
    /// Forcing sequence for the inner solves.
    pub forcing: Forcing,
}

/// Absolute gradient tolerance: a gradient this small is converged whatever
/// it started from.
const GATOL: f64 = 1e-12;
/// Cap on the forcing term.
const ETA_MAX: f64 = 0.5;
/// Armijo sufficient-decrease constant.
const ARMIJO_C: f64 = 1e-4;
/// Maximum line-search backtracking steps.
const MAX_LINESEARCH: usize = 30;

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            gtol: 1e-2,
            max_iter: 50,
            max_krylov: 500,
            forcing: Forcing::Quadratic,
        }
    }
}

/// A problem the Gauss-Newton driver can solve. The driver calls
/// [`GaussNewtonProblem::linearize`] once per outer iteration, then
/// [`GaussNewtonProblem::hessian_vec`]/[`GaussNewtonProblem::precondition`]
/// repeatedly at that linearization point, and
/// [`GaussNewtonProblem::objective`] during the line search.
pub trait GaussNewtonProblem {
    /// The control/optimization vector type.
    type Vec: Clone;
    /// The vector-space operations.
    type Ops: VectorOps<Self::Vec>;

    /// The vector-space handle.
    fn ops(&self) -> &Self::Ops;

    /// Evaluates the objective `J(v)` (used by the line search).
    fn objective(&mut self, v: &Self::Vec) -> f64;

    /// Sets the linearization point: solves the state and adjoint equations
    /// at `v` and returns `(J(v), g(v))`.
    fn linearize(&mut self, v: &Self::Vec) -> (f64, Self::Vec);

    /// Gauss-Newton Hessian matvec `H(v) d` at the current linearization
    /// point.
    fn hessian_vec(&mut self, d: &Self::Vec) -> Self::Vec;

    /// Applies the preconditioner to a residual.
    fn precondition(&mut self, r: &Self::Vec) -> Self::Vec;
}

/// Statistics of one outer Newton iteration.
#[derive(Debug, Clone, Copy)]
pub struct IterationStats {
    /// Objective value at the start of the iteration.
    pub objective: f64,
    /// Gradient norm at the start of the iteration.
    pub grad_norm: f64,
    /// Forcing term used for the inner solve.
    pub eta: f64,
    /// Hessian matvecs spent in the inner solve.
    pub matvecs: usize,
    /// Step length accepted by the line search.
    pub step_length: f64,
}

/// Why the Newton iteration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NewtonStatus {
    /// Relative (or absolute) gradient tolerance reached.
    Converged,
    /// Outer iteration cap reached.
    MaxIterations,
    /// Line search could not find sufficient decrease.
    LineSearchFailed,
    /// Numerical breakdown (NaN/Inf in the inner solve, the gradient, or
    /// every trial objective) that the steepest-descent safeguard could not
    /// recover from. The last finite iterate is returned.
    Breakdown,
}

/// Warm-start state for resuming an interrupted Newton solve (see
/// [`gauss_newton_observed`]): the iteration counter and the *original*
/// run's initial gradient norm, so the relative-gradient stopping test and
/// the Eisenstat-Walker forcing sequence continue exactly where the
/// interrupted run left off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonResume {
    /// Outer iterations already completed before the interruption.
    pub completed_iters: usize,
    /// `‖g₀‖` of the original (uninterrupted) run.
    pub g0norm: f64,
}

/// Snapshot handed to the observer after each *accepted* Newton step —
/// everything a checkpoint needs to resume bitwise-identically, plus
/// diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct NewtonCursor {
    /// Outer iterations completed, including the one just accepted.
    pub completed_iters: usize,
    /// The run's initial gradient norm (constant across the run).
    pub g0norm: f64,
    /// Objective value at the *start* of the accepted iteration.
    pub objective: f64,
    /// Gradient norm at the start of the accepted iteration.
    pub grad_norm: f64,
    /// Accepted line-search step length.
    pub step_length: f64,
    /// Eisenstat-Walker forcing term η used for the inner solve.
    pub eta: f64,
    /// Hessian matvecs (PCG iterations) spent on the accepted step.
    pub matvecs: usize,
}

/// Outcome of a Newton solve.
#[derive(Debug, Clone)]
pub struct NewtonReport {
    /// Termination reason.
    pub status: NewtonStatus,
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStats>,
    /// Total Hessian matvecs (the paper's Table V metric).
    pub total_matvecs: usize,
    /// Final objective value.
    pub objective: f64,
    /// Final gradient norm.
    pub grad_norm: f64,
    /// Initial gradient norm.
    pub grad_norm0: f64,
    /// Number of iterations that fell back to the (preconditioned) steepest
    /// descent direction after an inner-solve breakdown or non-descent step.
    pub fallback_steps: usize,
}

impl NewtonReport {
    /// Number of outer iterations performed.
    pub fn outer_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Final relative gradient norm `‖g‖/‖g₀‖`.
    pub fn rel_grad(&self) -> f64 {
        if self.grad_norm0 > 0.0 {
            self.grad_norm / self.grad_norm0
        } else {
            0.0
        }
    }
}

/// Runs the inexact Gauss-Newton-Krylov iteration from `v0`, returning the
/// final control and the solve report. Checkpoint/restart hooks: `resume`
/// warm-starts the iteration (counter + original `‖g₀‖`), and `observer` is
/// called with the iterate and a [`NewtonCursor`] after every accepted step
/// — *before* the re-linearization — so a checkpoint taken there and resumed
/// reproduces the uninterrupted run bitwise (the linearization is a pure
/// function of the iterate). A plain solve passes `None` and `|_, _| {}`.
///
/// **Exit contract.** On every exit — converged, iteration cap (a resume
/// with `completed_iters == max_iter` included), failed line search,
/// breakdown — the last [`GaussNewtonProblem::linearize`] call was at the
/// returned iterate, bit for bit; only [`GaussNewtonProblem::objective`]
/// calls (a failed line search) may follow it. A problem may therefore
/// post-process from its last linearization instead of repeating it. An
/// accepted step is taken in place (`v += t·d`, the very arithmetic of the
/// trial), so the iterate keeps `v0`'s storage throughout.
pub fn gauss_newton_observed<P: GaussNewtonProblem>(
    problem: &mut P,
    v0: P::Vec,
    opts: &NewtonOptions,
    resume: Option<NewtonResume>,
    mut observer: impl FnMut(&P::Vec, &NewtonCursor),
) -> (P::Vec, NewtonReport) {
    let mut v = v0;
    let (mut j, mut g) = problem.linearize(&v);
    let fresh_gnorm = problem.ops().norm(&g);
    let (g0norm, start_iter) = match resume {
        Some(r) => (r.g0norm, r.completed_iters),
        None => (fresh_gnorm, 0),
    };
    let mut gnorm = fresh_gnorm;
    let mut iterations = Vec::new();
    let mut total_matvecs = 0;
    let mut fallback_steps = 0;
    let mut status = NewtonStatus::MaxIterations;

    for it in start_iter..opts.max_iter {
        let _iter_span = diffreg_telemetry::span("newton.iter");
        if gnorm <= GATOL || gnorm <= opts.gtol * g0norm {
            status = NewtonStatus::Converged;
            break;
        }
        if !gnorm.is_finite() || !j.is_finite() {
            // The linearization itself is poisoned; no direction can fix it.
            status = NewtonStatus::Breakdown;
            break;
        }
        let rel = if g0norm > 0.0 { gnorm / g0norm } else { 0.0 };
        let eta = opts.forcing.eta(rel, ETA_MAX);

        // Newton step: H d = −g. The gradient itself becomes the right-hand
        // side (negation is exact, so ⟨g, d⟩ = −⟨−g, d⟩ bit for bit) rather
        // than a third copy beside the Krylov vectors.
        let mut rhs = g;
        problem.ops().scale(&mut rhs, -1.0);
        let pcg_opts = PcgOptions { rtol: eta, atol: 0.0, max_iter: opts.max_krylov };
        let (d, rep) = {
            // PCG needs the ops for reductions and the problem for matvecs;
            // a RefCell shim shares the mutable borrow (calls never overlap).
            let _pcg_span = diffreg_telemetry::span("newton.pcg");
            let shim = std::cell::RefCell::new(&mut *problem);
            let space = ShimOps::<P> { inner: &shim };
            pcg(
                &space,
                |p| shim.borrow_mut().hessian_vec(p),
                |r| shim.borrow_mut().precondition(r),
                &rhs,
                &pcg_opts,
            )
        };
        total_matvecs += rep.iterations;

        // Guard: ensure a finite descent direction; on an inner-solve
        // breakdown (NaN/Inf, indefiniteness into non-descent) or a
        // non-descent step, truncate to the preconditioned steepest descent
        // direction for this one step.
        let mut dir = d;
        let mut gd = -problem.ops().dot(&rhs, &dir);
        if !gd.is_finite() || gd >= 0.0 || rep.status == PcgStatus::ZeroRhs {
            dir = problem.precondition(&rhs);
            gd = -problem.ops().dot(&rhs, &dir);
            fallback_steps += 1;
            if !gd.is_finite() {
                status = NewtonStatus::Breakdown;
                break;
            }
            if gd >= 0.0 {
                status = NewtonStatus::LineSearchFailed;
                break;
            }
        }

        // Armijo backtracking. NaN trial objectives fail the sufficient
        // decrease test (comparisons with NaN are false) and simply halve
        // the step, so overshooting into a poisoned region self-corrects.
        let _ls_span = diffreg_telemetry::span("newton.linesearch");
        let mut t = 1.0;
        let mut accepted = false;
        for _ in 0..MAX_LINESEARCH {
            let mut trial = v.clone();
            problem.ops().axpy(&mut trial, t, &dir);
            let jt = problem.objective(&trial);
            if jt.is_finite() && jt <= j + ARMIJO_C * t * gd {
                iterations.push(IterationStats {
                    objective: j,
                    grad_norm: gnorm,
                    eta,
                    matvecs: rep.iterations,
                    step_length: t,
                });
                // The trial's own arithmetic, in place: the iterate keeps
                // v0's storage, so a caller that keeps solutions does not
                // pin buffers allocated amid the solve's working set.
                problem.ops().axpy(&mut v, t, &dir);
                accepted = true;
                break;
            }
            t *= 0.5;
        }
        drop(_ls_span);
        if !accepted {
            status = NewtonStatus::LineSearchFailed;
            break;
        }
        observer(
            &v,
            &NewtonCursor {
                completed_iters: it + 1,
                g0norm,
                objective: j,
                grad_norm: gnorm,
                step_length: iterations.last().map(|s| s.step_length).unwrap_or(1.0),
                eta,
                matvecs: rep.iterations,
            },
        );
        let (jn, gn) = {
            let _lin_span = diffreg_telemetry::span("newton.linearize");
            problem.linearize(&v)
        };
        j = jn;
        g = gn;
        gnorm = problem.ops().norm(&g);
    }
    if status == NewtonStatus::MaxIterations && (gnorm <= GATOL || gnorm <= opts.gtol * g0norm) {
        status = NewtonStatus::Converged;
    }
    (
        v,
        NewtonReport {
            status,
            iterations,
            total_matvecs,
            objective: j,
            grad_norm: gnorm,
            grad_norm0: g0norm,
            fallback_steps,
        },
    )
}

/// Vector-ops adaptor that lets PCG borrow the problem's ops while the
/// matvec closures borrow the problem mutably (calls never overlap).
struct ShimOps<'a, P: GaussNewtonProblem> {
    inner: &'a std::cell::RefCell<&'a mut P>,
}

impl<P: GaussNewtonProblem> VectorOps<P::Vec> for ShimOps<'_, P> {
    fn dot(&self, a: &P::Vec, b: &P::Vec) -> f64 {
        self.inner.borrow().ops().dot(a, b)
    }
    fn axpy(&self, y: &mut P::Vec, alpha: f64, x: &P::Vec) {
        self.inner.borrow().ops().axpy(y, alpha, x)
    }
    fn scale(&self, y: &mut P::Vec, alpha: f64) {
        self.inner.borrow().ops().scale(y, alpha)
    }
    fn zero_like(&self, v: &P::Vec) -> P::Vec {
        self.inner.borrow().ops().zero_like(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::DenseOps;

    /// J(v) = 1/2 vᵀ A v − bᵀ v with SPD A: one Newton step must solve it.
    struct Quadratic {
        a: Vec<Vec<f64>>,
        b: Vec<f64>,
        ops: DenseOps,
    }

    impl Quadratic {
        fn apply(&self, v: &[f64]) -> Vec<f64> {
            self.a.iter().map(|row| row.iter().zip(v).map(|(c, x)| c * x).sum()).collect()
        }
    }

    impl GaussNewtonProblem for Quadratic {
        type Vec = Vec<f64>;
        type Ops = DenseOps;
        fn ops(&self) -> &DenseOps {
            &self.ops
        }
        fn objective(&mut self, v: &Vec<f64>) -> f64 {
            let av = self.apply(v);
            0.5 * v.iter().zip(&av).map(|(x, y)| x * y).sum::<f64>()
                - self.b.iter().zip(v).map(|(x, y)| x * y).sum::<f64>()
        }
        fn linearize(&mut self, v: &Vec<f64>) -> (f64, Vec<f64>) {
            let mut g = self.apply(v);
            for (gi, bi) in g.iter_mut().zip(&self.b) {
                *gi -= bi;
            }
            (self.objective(v), g)
        }
        fn hessian_vec(&mut self, d: &Vec<f64>) -> Vec<f64> {
            self.apply(d)
        }
        fn precondition(&mut self, r: &Vec<f64>) -> Vec<f64> {
            r.clone()
        }
    }

    #[test]
    fn quadratic_converges_in_one_step() {
        let a = vec![vec![4.0, 1.0, 0.0], vec![1.0, 3.0, 0.5], vec![0.0, 0.5, 2.0]];
        let b = vec![1.0, -2.0, 0.5];
        let mut prob = Quadratic { a, b, ops: DenseOps };
        let opts = NewtonOptions {
            gtol: 1e-10,
            forcing: Forcing::Constant(1e-12),
            ..NewtonOptions::default()
        };
        let (v, rep) = gauss_newton_observed(&mut prob, vec![0.0; 3], &opts, None, |_, _| {});
        assert_eq!(rep.status, NewtonStatus::Converged);
        assert!(rep.outer_iterations() <= 2, "iters = {}", rep.outer_iterations());
        // Check A v = b.
        let av = prob.apply(&v);
        for (x, y) in av.iter().zip(&prob.b) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    /// Nonlinear least squares: J = 1/2 Σ (v_i³ − t_i)², Gauss-Newton with
    /// the exact GN Hessian J_FᵀJ_F.
    struct Cubefit {
        t: Vec<f64>,
        lin: Vec<f64>,
        ops: DenseOps,
    }

    impl GaussNewtonProblem for Cubefit {
        type Vec = Vec<f64>;
        type Ops = DenseOps;
        fn ops(&self) -> &DenseOps {
            &self.ops
        }
        fn objective(&mut self, v: &Vec<f64>) -> f64 {
            v.iter().zip(&self.t).map(|(x, t)| (x.powi(3) - t).powi(2)).sum::<f64>() * 0.5
        }
        fn linearize(&mut self, v: &Vec<f64>) -> (f64, Vec<f64>) {
            self.lin = v.clone();
            let g = v
                .iter()
                .zip(&self.t)
                .map(|(x, t)| (x.powi(3) - t) * 3.0 * x * x)
                .collect();
            (self.objective(v), g)
        }
        fn hessian_vec(&mut self, d: &Vec<f64>) -> Vec<f64> {
            self.lin.iter().zip(d).map(|(x, di)| (3.0 * x * x).powi(2) * di).collect()
        }
        fn precondition(&mut self, r: &Vec<f64>) -> Vec<f64> {
            r.clone()
        }
    }

    #[test]
    fn gauss_newton_solves_nonlinear_least_squares() {
        let t = vec![8.0, 27.0, 1.0];
        let mut prob = Cubefit { t: t.clone(), lin: vec![], ops: DenseOps };
        let opts = NewtonOptions { gtol: 1e-10, max_iter: 100, ..NewtonOptions::default() };
        let (v, rep) = gauss_newton_observed(&mut prob, vec![1.5, 2.5, 0.5], &opts, None, |_, _| {});
        assert_eq!(rep.status, NewtonStatus::Converged);
        let expect = [2.0, 3.0, 1.0];
        for (x, e) in v.iter().zip(expect) {
            assert!((x - e).abs() < 1e-5, "{x} vs {e}");
        }
        // Objective must be monotonically non-increasing across iterations.
        for w in rep.iterations.windows(2) {
            assert!(w[1].objective <= w[0].objective + 1e-12);
        }
    }

    #[test]
    fn forcing_sequences() {
        assert_eq!(Forcing::Constant(0.1).eta(0.5, 0.5), 0.1);
        assert_eq!(Forcing::Quadratic.eta(0.25, 0.5), 0.25);
        assert_eq!(Forcing::Quadratic.eta(0.9, 0.5), 0.5);
        assert!((Forcing::Superlinear.eta(0.25, 0.9) - 0.5).abs() < 1e-15);
    }

    /// A Hessian that emits NaNs: PCG reports a typed breakdown, the driver
    /// truncates to the preconditioned steepest-descent direction, and the
    /// solve still converges (counted in `fallback_steps`).
    struct NanHessian {
        inner: Cubefit,
    }

    impl GaussNewtonProblem for NanHessian {
        type Vec = Vec<f64>;
        type Ops = DenseOps;
        fn ops(&self) -> &DenseOps {
            &self.inner.ops
        }
        fn objective(&mut self, v: &Vec<f64>) -> f64 {
            self.inner.objective(v)
        }
        fn linearize(&mut self, v: &Vec<f64>) -> (f64, Vec<f64>) {
            self.inner.linearize(v)
        }
        fn hessian_vec(&mut self, d: &Vec<f64>) -> Vec<f64> {
            vec![f64::NAN; d.len()]
        }
        fn precondition(&mut self, r: &Vec<f64>) -> Vec<f64> {
            // Scaled-gradient preconditioner keeps steepest descent stable.
            r.iter().map(|x| 0.02 * x).collect()
        }
    }

    #[test]
    fn nan_hessian_falls_back_to_steepest_descent() {
        let mut prob =
            NanHessian { inner: Cubefit { t: vec![8.0, 27.0], lin: vec![], ops: DenseOps } };
        let opts = NewtonOptions { gtol: 1e-6, max_iter: 400, ..NewtonOptions::default() };
        let (v, rep) = gauss_newton_observed(&mut prob, vec![1.5, 2.5], &opts, None, |_, _| {});
        assert_eq!(rep.status, NewtonStatus::Converged, "{rep:?}");
        assert!(rep.fallback_steps > 0, "breakdowns must be routed through the fallback");
        assert!((v[0] - 2.0).abs() < 1e-2 && (v[1] - 3.0).abs() < 1e-2, "{v:?}");
        assert!(v.iter().all(|x| x.is_finite()));
    }

    /// A fully poisoned objective cannot be rescued: the driver reports a
    /// breakdown (or failed line search) instead of looping on NaNs, and the
    /// returned iterate is the last finite one.
    struct PoisonedObjective;

    impl GaussNewtonProblem for PoisonedObjective {
        type Vec = Vec<f64>;
        type Ops = DenseOps;
        fn ops(&self) -> &DenseOps {
            &DenseOps
        }
        fn objective(&mut self, _v: &Vec<f64>) -> f64 {
            f64::NAN
        }
        fn linearize(&mut self, _v: &Vec<f64>) -> (f64, Vec<f64>) {
            (1.0, vec![1.0, 1.0])
        }
        fn hessian_vec(&mut self, d: &Vec<f64>) -> Vec<f64> {
            d.clone()
        }
        fn precondition(&mut self, r: &Vec<f64>) -> Vec<f64> {
            r.clone()
        }
    }

    #[test]
    fn poisoned_objective_terminates_with_finite_iterate() {
        let opts = NewtonOptions { max_iter: 10, ..NewtonOptions::default() };
        let (v, rep) =
            gauss_newton_observed(&mut PoisonedObjective, vec![0.5, 0.5], &opts, None, |_, _| {});
        assert!(
            matches!(rep.status, NewtonStatus::LineSearchFailed | NewtonStatus::Breakdown),
            "{rep:?}"
        );
        assert_eq!(v, vec![0.5, 0.5], "last finite iterate is returned untouched");
    }

    /// A finite objective with a NaN gradient: its norm is NaN, not zero, so
    /// the driver reports a breakdown instead of convergence.
    struct NanGradient;

    impl GaussNewtonProblem for NanGradient {
        type Vec = Vec<f64>;
        type Ops = DenseOps;
        fn ops(&self) -> &DenseOps {
            &DenseOps
        }
        fn objective(&mut self, _v: &Vec<f64>) -> f64 {
            1.0
        }
        fn linearize(&mut self, _v: &Vec<f64>) -> (f64, Vec<f64>) {
            (1.0, vec![f64::NAN, 1.0])
        }
        fn hessian_vec(&mut self, d: &Vec<f64>) -> Vec<f64> {
            d.clone()
        }
        fn precondition(&mut self, r: &Vec<f64>) -> Vec<f64> {
            r.clone()
        }
    }

    #[test]
    fn nan_gradient_is_a_breakdown_not_convergence() {
        let opts = NewtonOptions::default();
        let (v, rep) = gauss_newton_observed(&mut NanGradient, vec![0.5, 0.5], &opts, None, |_, _| {});
        assert_eq!(rep.status, NewtonStatus::Breakdown, "{rep:?}");
        assert_eq!(v, vec![0.5, 0.5]);
    }

    /// Checkpoint/restart oracle at the optimizer level: interrupt after the
    /// observer's k-th callback, resume with `NewtonResume`, and the final
    /// iterate must equal the uninterrupted run's bitwise.
    #[test]
    fn resumed_solve_is_bitwise_identical() {
        let t = vec![8.0, 27.0, 1.0];
        let opts = NewtonOptions { gtol: 1e-12, max_iter: 40, ..NewtonOptions::default() };

        let mut full = Cubefit { t: t.clone(), lin: vec![], ops: DenseOps };
        let mut snapshot: Option<(Vec<f64>, NewtonCursor)> = None;
        let (v_full, rep_full) =
            gauss_newton_observed(&mut full, vec![1.5, 2.5, 0.5], &opts, None, |v, cur| {
                if cur.completed_iters == 2 {
                    snapshot = Some((v.clone(), *cur));
                }
            });
        assert!(rep_full.outer_iterations() > 2, "need enough iterations to interrupt");
        let (v_ck, cur) = snapshot.expect("observer must fire at iteration 2");

        let mut resumed = Cubefit { t, lin: vec![], ops: DenseOps };
        let (v_res, rep_res) = gauss_newton_observed(
            &mut resumed,
            v_ck,
            &opts,
            Some(NewtonResume { completed_iters: cur.completed_iters, g0norm: cur.g0norm }),
            |_, _| {},
        );
        assert_eq!(rep_res.status, rep_full.status);
        for (a, b) in v_res.iter().zip(&v_full) {
            assert_eq!(a.to_bits(), b.to_bits(), "resumed iterate diverged: {a} vs {b}");
        }
        assert_eq!(
            rep_res.outer_iterations() + 2,
            rep_full.outer_iterations(),
            "resume must not repeat completed iterations"
        );
    }

    /// Records the argument of every `linearize` call of the wrapped
    /// problem, and counts its matvecs and preconditioner calls.
    struct Recording<P> {
        inner: P,
        linearized: Vec<Vec<f64>>,
        matvecs: usize,
        preconds: usize,
    }

    impl<P: GaussNewtonProblem<Vec = Vec<f64>, Ops = DenseOps>> GaussNewtonProblem for Recording<P> {
        type Vec = Vec<f64>;
        type Ops = DenseOps;
        fn ops(&self) -> &DenseOps {
            self.inner.ops()
        }
        fn objective(&mut self, v: &Vec<f64>) -> f64 {
            self.inner.objective(v)
        }
        fn linearize(&mut self, v: &Vec<f64>) -> (f64, Vec<f64>) {
            self.linearized.push(v.clone());
            self.inner.linearize(v)
        }
        fn hessian_vec(&mut self, d: &Vec<f64>) -> Vec<f64> {
            self.matvecs += 1;
            self.inner.hessian_vec(d)
        }
        fn precondition(&mut self, r: &Vec<f64>) -> Vec<f64> {
            self.preconds += 1;
            self.inner.precondition(r)
        }
    }

    /// Cubefit whose line-search objective (`at_linearize: false`) or
    /// linearized objective (`true`) turns NaN from the `after`-th
    /// linearization on.
    struct PoisonAfter {
        inner: Cubefit,
        after: usize,
        at_linearize: bool,
        linearizes: usize,
    }

    impl GaussNewtonProblem for PoisonAfter {
        type Vec = Vec<f64>;
        type Ops = DenseOps;
        fn ops(&self) -> &DenseOps {
            &self.inner.ops
        }
        fn objective(&mut self, v: &Vec<f64>) -> f64 {
            let poisoned = !self.at_linearize && self.linearizes >= self.after;
            if poisoned { f64::NAN } else { self.inner.objective(v) }
        }
        fn linearize(&mut self, v: &Vec<f64>) -> (f64, Vec<f64>) {
            self.linearizes += 1;
            let (j, g) = self.inner.linearize(v);
            let poisoned = self.at_linearize && self.linearizes >= self.after;
            (if poisoned { f64::NAN } else { j }, g)
        }
        fn hessian_vec(&mut self, d: &Vec<f64>) -> Vec<f64> {
            self.inner.hessian_vec(d)
        }
        fn precondition(&mut self, r: &Vec<f64>) -> Vec<f64> {
            self.inner.precondition(r)
        }
    }

    fn run_recorded<P: GaussNewtonProblem<Vec = Vec<f64>, Ops = DenseOps>>(
        inner: P,
        opts: NewtonOptions,
        resume: Option<NewtonResume>,
    ) -> (Vec<f64>, NewtonStatus, Vec<Vec<f64>>) {
        let mut rec = Recording { inner, linearized: vec![], matvecs: 0, preconds: 0 };
        let (v, rep) = gauss_newton_observed(&mut rec, vec![1.5, 2.5, 0.5], &opts, resume, |_, _| {});
        // PCG preconditions once before its first iteration and after every
        // iteration but the last, so its calls equal its iterations; a
        // fallback step preconditions the gradient once more.
        assert_eq!(rec.matvecs, rep.total_matvecs);
        assert_eq!(rec.preconds, rep.total_matvecs + rep.fallback_steps, "{:?}", rep.status);
        (v, rep.status, rec.linearized)
    }

    /// The exit contract of [`gauss_newton_observed`]: on every exit the
    /// last linearization was at the returned iterate, bit for bit.
    #[test]
    fn last_linearization_is_at_the_returned_iterate_on_every_exit() {
        use NewtonStatus::*;
        let cubefit = || Cubefit { t: vec![8.0, 27.0, 1.0], lin: vec![], ops: DenseOps };
        let poison =
            |after, at_linearize| PoisonAfter { inner: cubefit(), after, at_linearize, linearizes: 0 };
        let opts = |gtol, max_iter| NewtonOptions { gtol, max_iter, ..NewtonOptions::default() };
        let at_cap = Some(NewtonResume { completed_iters: 5, g0norm: 1.0 });
        let runs = [
            (run_recorded(cubefit(), opts(1e-10, 100), None), Converged),
            (run_recorded(cubefit(), opts(1e-14, 2), None), MaxIterations),
            (run_recorded(poison(2, false), opts(1e-14, 50), None), LineSearchFailed),
            (run_recorded(poison(3, true), opts(1e-14, 50), None), Breakdown),
            (run_recorded(cubefit(), opts(1e-14, 5), at_cap), MaxIterations),
        ];
        let bits = |x: &[f64]| x.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for (i, ((v, status, linearized), expect)) in runs.into_iter().enumerate() {
            assert_eq!(status, expect, "run {i}");
            // Only the resume at the cap exits before its first step.
            assert_eq!(linearized.len() == 1, i == 4, "run {i}: {} linearizations", linearized.len());
            let last = linearized.last().expect("linearize runs before the first exit test");
            assert_eq!(bits(last), bits(&v), "run {i} ({expect:?}): last linearize is not the iterate");
        }
    }

    #[test]
    fn respects_max_iterations() {
        let mut prob = Cubefit { t: vec![8.0; 2], lin: vec![], ops: DenseOps };
        let opts = NewtonOptions { gtol: 1e-14, max_iter: 2, ..NewtonOptions::default() };
        let (_, rep) = gauss_newton_observed(&mut prob, vec![0.9, 1.1], &opts, None, |_, _| {});
        assert!(rep.outer_iterations() <= 2);
    }
}
