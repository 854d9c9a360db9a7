//! The PDE-constrained registration problem (paper eq. 2) wired into the
//! Gauss-Newton-Krylov driver: objective, reduced adjoint gradient (eq. 4),
//! Gauss-Newton Hessian matvec (eq. 5), and the spectral preconditioner.

use diffreg_comm::Comm;
use diffreg_grid::{ScalarField, VectorField};
use diffreg_optim::GaussNewtonProblem;
use diffreg_transport::{compute_trajectory, SemiLagrangian, Workspace};

use crate::config::{HessianKind, RegistrationConfig};
use crate::distance::Distance;
use crate::fieldops::FieldOps;

/// Cached linearization state: everything the Hessian matvec reuses within
/// one Newton iteration (paper §III-C2: trajectories and plans are built
/// once per velocity).
struct Linearization {
    sl: SemiLagrangian,
    /// `∇ρ(t_i)` for every time level (cached so the incremental solves and
    /// the time integrals need no further FFTs inside the Krylov loop).
    grads: Vec<VectorField>,
    /// Adjoint history `λ(t_i)` — needed by the full Newton matvec only.
    adj: Vec<ScalarField>,
    /// Deformed template `ρ(1)`.
    rho1: ScalarField,
}

/// The registration problem at fixed images and configuration.
pub struct RegProblem<'a, C: Comm> {
    /// The caller's workspace with `kernel` replaced by `cfg.kernel`.
    pub(crate) ws: Workspace<'a, C>,
    cfg: RegistrationConfig,
    /// Smoothed template image, the transport initial condition.
    rho_t: ScalarField,
    /// Smoothed reference image.
    rho_r: ScalarField,
    ops: FieldOps<'a, C>,
    lin: Option<Linearization>,
    /// Cumulative Hessian matvec count (the paper's Table V metric).
    pub hessian_matvecs: usize,
}

impl<'a, C: Comm> RegProblem<'a, C> {
    /// Sets up the problem; smooths the images spectrally (Gaussian with
    /// one-grid-cell bandwidth, paper §III-B1). The config's kernel choice
    /// wins over whatever `ws` carries, so `RegistrationConfig { kernel, .. }`
    /// behaves as documented.
    pub fn new(
        ws: &Workspace<'a, C>,
        rho_t: &ScalarField,
        rho_r: &ScalarField,
        cfg: RegistrationConfig,
    ) -> Self {
        assert!(cfg.nt > 0, "need at least one time step");
        assert!(cfg.beta > 0.0, "regularization weight must be positive");
        let ws = Workspace { kernel: cfg.kernel, ..*ws };
        let h = ws.grid().spacing();
        let sigma = (h[0] + h[1] + h[2]) / 3.0;
        let rho_t = ws.fft.gaussian_smooth(rho_t, sigma, ws.timers);
        let rho_r = ws.fft.gaussian_smooth(rho_r, sigma, ws.timers);
        let ops = FieldOps::new(ws.comm, ws.grid());
        Self { ws, cfg, rho_t, rho_r, ops, lin: None, hessian_matvecs: 0 }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RegistrationConfig {
        &self.cfg
    }

    /// The (smoothed) template image.
    pub fn template(&self) -> &ScalarField {
        &self.rho_t
    }

    /// The (smoothed) reference image.
    pub fn reference(&self) -> &ScalarField {
        &self.rho_r
    }

    /// L² mismatch `1/2 ||ρ(1) − ρ_R||²` of the *unregistered* images.
    pub fn initial_data_term(&self) -> f64 {
        let mut r = self.rho_t.clone();
        r.axpy(-1.0, &self.rho_r);
        0.5 * r.inner(&r, &self.ws.grid(), self.ws.comm)
    }

    /// Applies the projection `P` (Leray when incompressible, identity
    /// otherwise) to a vector field.
    pub fn project(&self, v: &VectorField) -> VectorField {
        if self.cfg.incompressible {
            self.ws.fft.leray(v, self.ws.timers)
        } else {
            v.clone()
        }
    }

    /// Regularization energy `β/2 ⟨(-Δ)^m v, v⟩`.
    fn reg_energy(&self, v: &VectorField) -> f64 {
        let av = self.ws.fft.regularization(v, self.cfg.reg, self.cfg.beta, self.ws.timers);
        0.5 * av.inner(v, &self.ws.grid(), self.ws.comm)
    }

    /// Data term `1/2 ||ρ(1) − ρ_R||²` for a given velocity, using only the
    /// forward trajectory (the cheap path for line-search evaluations).
    fn data_term(&self, v: &VectorField) -> f64 {
        let nt = self.cfg.nt;
        let traj = compute_trajectory(&self.ws, v, 1.0 / nt as f64, 1.0);
        let rho = traj.advect(&self.ws, &self.rho_t, nt);
        self.cfg.distance.evaluate(&rho, &self.rho_r, &self.ws.grid(), self.ws.comm)
    }

    /// Trapezoidal time integral `∫ λ(t) ∇ρ(t) dt` (the field `b` of the
    /// gradient and `b̃` of the Hessian matvec).
    fn time_integral(&self, adj: &[ScalarField], grads: &[VectorField]) -> VectorField {
        let nt = self.cfg.nt;
        debug_assert_eq!(adj.len(), nt + 1);
        debug_assert_eq!(grads.len(), nt + 1);
        let dt = 1.0 / nt as f64;
        let mut b = VectorField::zeros(adj[0].block());
        for i in 0..=nt {
            let w = if i == 0 || i == nt { 0.5 * dt } else { dt };
            let lam = adj[i].data();
            for a in 0..3 {
                let g = grads[i].comps[a].data();
                let out = b.comps[a].data_mut();
                for l in 0..lam.len() {
                    out[l] += w * lam[l] * g[l];
                }
            }
        }
        b
    }

    /// Access to the deformed template `ρ(1)` at the current linearization
    /// point (available after `linearize`).
    pub fn deformed_template(&self) -> Option<&ScalarField> {
        self.lin.as_ref().map(|l| &l.rho1)
    }

}

impl<'a, C: Comm> GaussNewtonProblem for RegProblem<'a, C> {
    type Vec = VectorField;
    type Ops = FieldOps<'a, C>;

    fn ops(&self) -> &Self::Ops {
        &self.ops
    }

    fn objective(&mut self, v: &VectorField) -> f64 {
        self.data_term(v) + self.reg_energy(v)
    }

    fn linearize(&mut self, v: &VectorField) -> (f64, VectorField) {
        let _span = diffreg_telemetry::span("reg.linearize");
        // The stale linearization must not outlive the build of its successor.
        self.lin = None;
        let ws = &self.ws;
        // Forward (state) solve with full history.
        let sl = SemiLagrangian::new(ws, v, self.cfg.nt);
        let state = sl.solve_state(ws, &self.rho_t);
        // diffreg-allow(no-unwrap-in-lib): solve_state seeds the history with rho0, so last() is always Some
        let rho1 = state.last().unwrap().clone();

        // Objective.
        // β(-Δ)^m v serves both the energy β/2 ⟨(-Δ)^m v, v⟩ and the gradient.
        let jdata = self.cfg.distance.evaluate(&rho1, &self.rho_r, &ws.grid(), ws.comm);
        let mut g = ws.fft.regularization(v, self.cfg.reg, self.cfg.beta, ws.timers);
        let j = jdata + 0.5 * g.inner(v, &ws.grid(), ws.comm);

        // Adjoint solve with the measure's terminal condition
        // (SSD: λ(1) = ρ_R − ρ(1), paper eq. 3).
        let lam1 = self.cfg.distance.terminal_adjoint(&rho1, &self.rho_r, &ws.grid(), ws.comm);
        let adj = sl.solve_adjoint(ws, &lam1);

        // Cache ∇ρ(t_i) — reused by every Hessian matvec this iteration.
        let grads: Vec<VectorField> = state.iter().map(|r| ws.fft.gradient(r, ws.timers)).collect();

        // Reduced gradient g = β(-Δ)^m v + P ∫ λ ∇ρ dt.
        let b = self.time_integral(&adj, &grads);
        g.axpy(1.0, &self.project(&b));

        self.lin = Some(Linearization { sl, grads, adj, rho1 });
        (j, g)
    }

    fn hessian_vec(&mut self, d: &VectorField) -> VectorField {
        let _span = diffreg_telemetry::span("hessian.matvec");
        self.hessian_matvecs += 1;
        let ws = &self.ws;
        // diffreg-allow(no-unwrap-in-lib): documented API contract: hessian_vec requires a prior linearize; the expect message states it
        let lin = self.lin.as_ref().expect("hessian_vec called before linearize");
        let mut h = ws.fft.regularization(d, self.cfg.reg, self.cfg.beta, ws.timers);
        match self.cfg.hessian {
            HessianKind::GaussNewton => {
                // Incremental state (5a) forward, then incremental adjoint
                // (5c without the λ terms) backward;
                // H d = β(-Δ)^m d + P ∫ λ̃ ∇ρ dt.
                let rho_tilde1 = lin.sl.solve_incremental_state(ws, d, &lin.grads);
                let lam_tilde1 = self.cfg.distance.gn_terminal(
                    &lin.rho1,
                    &self.rho_r,
                    &rho_tilde1,
                    &ws.grid(),
                    ws.comm,
                );
                let adj_tilde = lin.sl.solve_adjoint(ws, &lam_tilde1);
                let b_tilde = self.time_integral(&adj_tilde, &lin.grads);
                h.axpy(1.0, &self.project(&b_tilde));
            }
            HessianKind::FullNewton => {
                assert_eq!(
                    self.cfg.distance,
                    Distance::Ssd,
                    "full Newton is implemented for the SSD measure"
                );
                // Full eq. (5): keep the λ terms. The incremental adjoint
                // gains the source div(λ(t) ṽ); b̃ gains ∫ λ ∇ρ̃ dt.
                let rho_tilde = lin.sl.solve_incremental_state_history(ws, d, &lin.grads);
                let nloc = d.local_len();
                let source: Vec<ScalarField> = lin
                    .adj
                    .iter()
                    .map(|lam| {
                        let mut lv = VectorField::zeros(d.block());
                        for a in 0..3 {
                            let da = d.comps[a].data();
                            let out = lv.comps[a].data_mut();
                            for l in 0..nloc {
                                out[l] = lam.data()[l] * da[l];
                            }
                        }
                        ws.fft.divergence(&lv, ws.timers)
                    })
                    .collect();
                let adj_tilde =
                    // diffreg-allow(no-unwrap-in-lib): rho_tilde is seeded with the zero field before the time loop, so last() is always Some
                    lin.sl.solve_incremental_adjoint_full(ws, rho_tilde.last().unwrap(), &source);
                let mut b_tilde = self.time_integral(&adj_tilde, &lin.grads);
                let grad_rho_tilde: Vec<VectorField> =
                    rho_tilde.iter().map(|r| ws.fft.gradient(r, ws.timers)).collect();
                b_tilde.axpy(1.0, &self.time_integral(&lin.adj, &grad_rho_tilde));
                h.axpy(1.0, &self.project(&b_tilde));
            }
        }
        h
    }

    fn precondition(&mut self, r: &VectorField) -> VectorField {
        if self.cfg.precondition {
            self.ws.fft.precondition(r, self.cfg.reg, self.cfg.beta, self.ws.timers)
        } else {
            r.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::{SerialComm, Timers};
    use diffreg_grid::{Decomp, Grid};
    use diffreg_optim::VectorOps;
    use diffreg_pfft::PencilFft;

    fn setup(
        grid: Grid,
    ) -> (SerialComm, Decomp, Timers) {
        (SerialComm::new(), Decomp::new(grid, 1), Timers::new())
    }

    fn images<C: Comm>(ws: &Workspace<C>) -> (ScalarField, ScalarField) {
        let grid = ws.grid();
        let t = ScalarField::from_fn(&grid, ws.block(), |x| {
            (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
        });
        let r = ScalarField::from_fn(&grid, ws.block(), |x| {
            ((x[0] - 0.3).sin().powi(2) + (x[1] + 0.2).sin().powi(2) + x[2].sin().powi(2)) / 3.0
        });
        (t, r)
    }

    fn probe_dir<C: Comm>(ws: &Workspace<C>) -> VectorField {
        let grid = ws.grid();
        VectorField::from_fn(&grid, ws.block(), |x| {
            [0.2 * x[1].sin(), -0.15 * x[0].cos(), 0.1 * (x[2] + x[0]).sin()]
        })
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let grid = Grid::cubic(12);
        let (comm, decomp, timers) = setup(grid);
        let fft = PencilFft::new(&comm, decomp);
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        let (t, r) = images(&ws);
        let cfg = RegistrationConfig { nt: 4, beta: 1e-2, ..Default::default() };
        let mut prob = RegProblem::new(&ws, &t, &r, cfg);

        let v = VectorField::from_fn(&grid, ws.block(), |x| {
            [0.1 * x[0].cos(), 0.05 * x[1].sin(), -0.08 * x[2].cos()]
        });
        let dir = probe_dir(&ws);

        let (_, g) = prob.linearize(&v);
        let gd = prob.ops().dot(&g, &dir);

        let eps = 1e-4;
        let mut vp = v.clone();
        vp.axpy(eps, &dir);
        let mut vm = v.clone();
        vm.axpy(-eps, &dir);
        let fd = (prob.objective(&vp) - prob.objective(&vm)) / (2.0 * eps);

        // Normalize by ‖g‖‖d‖: the optimize-then-discretize gradient agrees
        // with the discrete objective's derivative up to discretization
        // error, which must be small relative to the gradient scale (it is
        // not small relative to near-orthogonal projections).
        let scale = prob.ops().norm(&g) * prob.ops().norm(&dir);
        let rel = (gd - fd).abs() / scale.max(1e-12);
        assert!(rel < 1e-3, "gradient check failed: ⟨g,d⟩={gd} fd={fd} rel={rel}");
    }

    #[test]
    fn hessian_is_nearly_symmetric_and_psd() {
        let grid = Grid::cubic(10);
        let (comm, decomp, timers) = setup(grid);
        let fft = PencilFft::new(&comm, decomp);
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        let (t, r) = images(&ws);
        let cfg = RegistrationConfig { nt: 4, beta: 1e-2, ..Default::default() };
        let mut prob = RegProblem::new(&ws, &t, &r, cfg);
        let v = probe_dir(&ws);
        prob.linearize(&v);

        let d1 = VectorField::from_fn(&grid, ws.block(), |x| {
            [0.3 * x[2].cos(), 0.2 * (x[0] + x[1]).sin(), -0.1 * x[1].cos()]
        });
        let d2 = VectorField::from_fn(&grid, ws.block(), |x| {
            [-0.1 * x[1].sin(), 0.25 * x[2].cos(), 0.15 * x[0].sin()]
        });
        let h1 = prob.hessian_vec(&d1);
        let h2 = prob.hessian_vec(&d2);
        let a = prob.ops().dot(&h1, &d2);
        let b = prob.ops().dot(&h2, &d1);
        // The semi-Lagrangian incremental adjoint is not the exact discrete
        // transpose of the incremental state solve, so symmetry holds up to
        // discretization error relative to the operator scale.
        let scale = prob.ops().norm(&h1) * prob.ops().norm(&d2);
        let rel = (a - b).abs() / scale.max(1e-12);
        assert!(rel < 1e-2, "asymmetry {rel}: {a} vs {b}");

        let hd = prob.hessian_vec(&d1);
        let quad = prob.ops().dot(&hd, &d1);
        assert!(quad > 0.0, "GN Hessian not positive on test direction: {quad}");
        assert_eq!(prob.hessian_matvecs, 3);
    }

    #[test]
    fn full_newton_hessian_matches_gradient_differences() {
        // ⟨H_full d, w⟩ must approximate the directional derivative of the
        // gradient, ⟨(g(v+εd) − g(v−εd))/2ε, w⟩; the Gauss-Newton operator
        // drops the λ terms and should fit worse away from the solution.
        // (Verified separately: err_full converges to 0 with N — 0.69/0.48/
        // 0.18/0.046 at N = 12/16/24/32 — while err_GN plateaus at the
        // dropped-term difference.)
        let grid = Grid::cubic(24);
        let (comm, decomp, timers) = setup(grid);
        let fft = PencilFft::new(&comm, decomp);
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        let (t, r) = images(&ws);
        let v = probe_dir(&ws);
        let d = VectorField::from_fn(&grid, ws.block(), |x| {
            [0.2 * x[2].cos(), 0.15 * (x[0] + x[1]).sin(), -0.1 * x[1].cos()]
        });
        let w = VectorField::from_fn(&grid, ws.block(), |x| {
            [0.1 * x[1].sin() + 0.05, -0.2 * x[2].cos(), 0.15 * x[0].sin()]
        });

        let fd = {
            let cfg = RegistrationConfig { nt: 4, beta: 1e-2, ..Default::default() };
            let mut prob = RegProblem::new(&ws, &t, &r, cfg);
            let eps = 1e-4;
            let mut vp = v.clone();
            vp.axpy(eps, &d);
            let mut vm = v.clone();
            vm.axpy(-eps, &d);
            let (_, gp) = prob.linearize(&vp);
            let (_, gm) = prob.linearize(&vm);
            let mut diff = gp;
            diff.axpy(-1.0, &gm);
            diff.scale(1.0 / (2.0 * eps));
            prob.ops().dot(&diff, &w)
        };

        let apply = |kind: HessianKind| -> f64 {
            let cfg = RegistrationConfig { nt: 4, beta: 1e-2, hessian: kind, ..Default::default() };
            let mut prob = RegProblem::new(&ws, &t, &r, cfg);
            prob.linearize(&v);
            let hd = prob.hessian_vec(&d);
            prob.ops().dot(&hd, &w)
        };
        let full = apply(HessianKind::FullNewton);
        let gn = apply(HessianKind::GaussNewton);

        let scale = fd.abs().max(1e-12);
        let err_full = (full - fd).abs() / scale;
        let err_gn = (gn - fd).abs() / scale;
        assert!(err_full < 0.25, "full Newton mismatch {err_full}: {full} vs fd {fd} (GN {gn})");
        // Full Newton must fit the true curvature better than GN.
        assert!(
            err_full < err_gn,
            "full ({full}, err {err_full}) should beat GN ({gn}, err {err_gn}) vs fd ({fd})"
        );
    }

    #[test]
    fn full_newton_registration_converges() {
        let grid = Grid::cubic(12);
        let (comm, decomp, timers) = setup(grid);
        let fft = PencilFft::new(&comm, decomp);
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        let (t, r) = images(&ws);
        let cfg = RegistrationConfig {
            beta: 1e-2,
            hessian: HessianKind::FullNewton,
            ..Default::default()
        };
        let out = crate::register(&ws, &t, &r, cfg);
        assert!(out.relative_mismatch() < 1.0, "must improve: {}", out.relative_mismatch());
        assert!(out.hessian_matvecs > 0);
        assert!(out.det_grad.diffeomorphic);
    }

    #[test]
    fn zero_velocity_gradient_is_projected_data_term() {
        // At v = 0 the regularization gradient vanishes; for identical
        // images the full gradient must vanish too.
        let grid = Grid::cubic(8);
        let (comm, decomp, timers) = setup(grid);
        let fft = PencilFft::new(&comm, decomp);
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        let t = ScalarField::from_fn(&grid, ws.block(), |x| x[0].sin());
        let cfg = RegistrationConfig::default();
        let mut prob = RegProblem::new(&ws, &t, &t.clone(), cfg);
        let v = VectorField::zeros(ws.block());
        let (j, g) = prob.linearize(&v);
        assert!(j.abs() < 1e-12, "identical images give zero objective, got {j}");
        assert!(prob.ops().norm(&g) < 1e-10);
    }

    #[test]
    fn incompressible_gradient_is_divergence_free() {
        let grid = Grid::cubic(10);
        let (comm, decomp, timers) = setup(grid);
        let fft = PencilFft::new(&comm, decomp);
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        let (t, r) = images(&ws);
        let cfg = RegistrationConfig { incompressible: true, ..Default::default() };
        let mut prob = RegProblem::new(&ws, &t, &r, cfg);
        // Divergence-free initial velocity.
        let v = prob.project(&probe_dir(&ws));
        let (_, g) = prob.linearize(&v);
        let div = ws.fft.divergence(&g, ws.timers);
        assert!(div.max_abs(&comm) < 1e-9, "gradient leaves the div-free subspace");
    }
}
