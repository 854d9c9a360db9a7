//! The PDE-constrained registration problem (paper eq. 2) wired into the
//! Gauss-Newton-Krylov driver: objective, reduced adjoint gradient (eq. 4),
//! Gauss-Newton Hessian matvec (eq. 5), and the spectral preconditioner.

use diffreg_comm::{Comm, ReduceOp};
use diffreg_grid::{ScalarField, VectorField};
use diffreg_interp::Kernel;
use diffreg_optim::GaussNewtonProblem;
use diffreg_transport::{compute_trajectory, SemiLagrangian, Trajectory, Workspace};

use crate::config::RegistrationConfig;
use crate::fieldops::FieldOps;

/// Cached linearization state: everything the Hessian matvec reuses within
/// one Newton iteration (paper §III-C2: trajectories and plans are built
/// once per velocity). It lives from `linearize` to the next `objective`:
/// the line search leaves the linearization point for good.
struct Linearization {
    sl: SemiLagrangian,
    /// `∇ρ(t_i)` for every time level (cached so the incremental solves and
    /// the time integrals need no further FFTs inside the Krylov loop).
    grads: Vec<VectorField>,
    /// Deformed template `ρ(1)`.
    rho1: ScalarField,
}

/// The forward work of the last `objective` call, which `linearize` adopts
/// when it is called at the same velocity bit for bit — the accepted
/// line-search trial, since Newton re-linearizes at exactly that iterate.
struct Trial {
    /// The trial velocity, the cache key.
    v: VectorField,
    /// Forward plan of `v`; its departure points are freed once it is built.
    fwd: Trajectory,
    /// State history `ρ(t_0..t_nt)`.
    state: Vec<ScalarField>,
    /// `β(-Δ)^m v`.
    av: VectorField,
}

/// The regularization of the last preconditioned residual (DESIGN §3.2).
/// `M = βA + I`, so `z = M⁻¹ r` carries `βA z = r − z` at the cost of one
/// subtraction, and PCG applies the Hessian to exactly that `z` next.
struct PrecondReg {
    /// `z`, the preconditioner's output bit for bit: the cache key.
    z: VectorField,
    /// `βA z = r − z`.
    az: VectorField,
}

/// Bitwise equality of this rank's slab (`==` would equate `-0.0` and
/// `0.0`, which the transport does not).
fn same_bits(a: &VectorField, b: &VectorField) -> bool {
    a.comps.iter().zip(&b.comps).all(|(x, y)| {
        x.data().len() == y.data().len()
            && x.data().iter().zip(y.data()).all(|(p, q)| p.to_bits() == q.to_bits())
    })
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
    /// At most one trial is alive: each `objective` replaces it, and
    /// `linearize` consumes it.
    trial: Option<Trial>,
    /// Filled by `precondition`, consumed by the next `hessian_vec`, and
    /// cleared by `objective` and `linearize`.
    precond_reg: Option<PrecondReg>,
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
        let [rho_t, rho_r] = {
            let _span = diffreg_telemetry::span("reg.smooth");
            let h = ws.grid().spacing();
            let sigma = (h[0] + h[1] + h[2]) / 3.0;
            [rho_t, rho_r].map(|f| ws.fft.gaussian_smooth(f, sigma, ws.timers))
        };
        Self::with_smoothed(ws, rho_t, rho_r, cfg)
    }

    /// [`RegProblem::new`] for images that are already smoothed on `ws`'s
    /// grid, such as the previous continuation level's on the same grid.
    pub(crate) fn with_smoothed(
        ws: &Workspace<'a, C>,
        rho_t: ScalarField,
        rho_r: ScalarField,
        cfg: RegistrationConfig,
    ) -> Self {
        assert!(cfg.nt > 0, "need at least one time step");
        assert!(cfg.beta > 0.0, "regularization weight must be positive");
        let ws = Workspace { kernel: cfg.kernel, ..*ws };
        let ops = FieldOps::new(ws.comm, ws.grid());
        Self {
            ws,
            cfg,
            rho_t,
            rho_r,
            ops,
            lin: None,
            trial: None,
            precond_reg: None,
        }
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

    /// The smoothed template and reference, for the next problem on the
    /// same grid.
    pub(crate) fn into_images(self) -> (ScalarField, ScalarField) {
        (self.rho_t, self.rho_r)
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

    /// `out += P ∫₀¹ λ(t) ∇ρ(t) dt`, the adjoint term of the gradient
    /// (eq. 4, from `λ(1) = lam1`) and of the matvec (eq. 5, from
    /// `λ̃(1) = lam1`). The backward sweep on `ws`'s kernel adds its
    /// trapezoid terms from `t_nt` down to `t_0` and keeps one `λ` alive:
    /// straight into `out` when `P` is the identity, otherwise into a zeroed
    /// `b` whose Leray projection is then added. `grads[i]` holds `∇ρ(t_i)`.
    /// Collective.
    fn add_adjoint_integral(
        &self,
        ws: &Workspace<C>,
        sl: &SemiLagrangian,
        lam1: ScalarField,
        grads: &[VectorField],
        out: &mut VectorField,
    ) {
        if self.cfg.incompressible {
            let mut b = VectorField::zeros(out.block());
            sl.accumulate_adjoint_integral(ws, lam1, grads, &mut b);
            out.axpy(1.0, &ws.fft.leray(&b, ws.timers));
        } else {
            sl.accumulate_adjoint_integral(ws, lam1, grads, out);
        }
    }

    /// `J = D(ρ(1), ρ_R) + 1/2 ⟨β(-Δ)^m v, v⟩` from the deformed template
    /// and `av = β(-Δ)^m v`.
    fn objective_value(&self, rho1: &ScalarField, av: &VectorField, v: &VectorField) -> f64 {
        let (grid, comm) = (self.ws.grid(), self.ws.comm);
        self.cfg.distance.evaluate(rho1, &self.rho_r, &grid, comm) + 0.5 * av.inner(v, &grid, comm)
    }

    /// Whether `key` equals `v` bit for bit on every rank. The verdict is
    /// reduced over the ranks: a hit skips collectives that a miss runs.
    /// Collective.
    fn same_everywhere(&self, key: &VectorField, v: &VectorField) -> bool {
        let mut misses = [usize::from(!same_bits(key, v))];
        self.ws.comm.allreduce_usize(&mut misses, ReduceOp::Sum);
        misses[0] == 0
    }

    /// Takes the trial if it was built at `v` bit for bit.
    fn take_trial(&mut self, v: &VectorField) -> Option<Trial> {
        let trial = self.trial.take()?;
        self.same_everywhere(&trial.v, v).then_some(trial)
    }

    /// `βA d`: the cached one when `d` is the preconditioned residual it
    /// was computed for, bit for bit, otherwise the spectral operator's. The
    /// key is freed before the operator's field is allocated. Collective.
    fn regularization_of(&self, cached: Option<PrecondReg>, d: &VectorField) -> VectorField {
        if let Some(PrecondReg { z, az }) = cached {
            let hit = self.same_everywhere(&z, d);
            drop(z);
            if hit {
                return az;
            }
        }
        self.ws.fft.regularization(d, self.cfg.reg, self.cfg.beta, self.ws.timers)
    }

    /// Hands the linearization at `v` over to post-processing: its
    /// semi-Lagrangian plans and deformed template `ρ(1)`, with the rest (the
    /// cached `∇ρ(t_i)` first of all) freed. When `linearize` was the last
    /// call its cache is used, and the caller vouches that it was at `v`
    /// (after `gauss_newton_observed` it is, by its exit contract); after a
    /// line search that failed it is rebuilt. Collective.
    pub(crate) fn take_linearization(&mut self, v: &VectorField) -> (SemiLagrangian, ScalarField) {
        if self.lin.is_none() {
            let _ = self.linearize(v);
        }
        #[expect(clippy::expect_used, reason = "the branch above linearizes when nothing is cached")]
        let lin = self.lin.take().expect("a linearization is cached");
        (lin.sl, lin.rho1)
    }

    /// Access to the deformed template `ρ(1)` at the current linearization
    /// point (available from `linearize` to the next `objective`).
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
        // Neither the linearization nor the previous trial outlives the
        // build of this one.
        self.lin = None;
        self.trial = None;
        self.precond_reg = None;
        let ws = &self.ws;
        let nt = self.cfg.nt;
        let mut fwd = compute_trajectory(ws, v, 1.0 / nt as f64, 1.0);
        fwd.points = Vec::new();
        let state = fwd.advect(ws, &self.rho_t, nt);
        let av = ws.fft.regularization(v, self.cfg.reg, self.cfg.beta, ws.timers);
        let j = self.objective_value(&state[nt], &av, v);
        self.trial = Some(Trial { v: v.clone(), fwd, state, av });
        j
    }

    fn linearize(&mut self, v: &VectorField) -> (f64, VectorField) {
        let _span = diffreg_telemetry::span("reg.linearize");
        // The stale linearization must not outlive the build of its successor.
        self.lin = None;
        self.precond_reg = None;
        let trial = self.take_trial(v);
        let ws = &self.ws;
        let nt = self.cfg.nt;
        // Forward (state) solve with full history, and β(-Δ)^m v, which
        // serves both the energy β/2 ⟨(-Δ)^m v, v⟩ and the gradient: the
        // trial's when it was at this velocity, otherwise built here.
        let (sl, state, mut g) = match trial {
            Some(Trial { fwd, state, av, .. }) => {
                (SemiLagrangian::with_forward(ws, v, nt, Some(fwd)), state, av)
            }
            None => {
                let sl = SemiLagrangian::with_forward(ws, v, nt, None);
                let state = sl.solve_state(ws, &self.rho_t);
                (sl, state, ws.fft.regularization(v, self.cfg.reg, self.cfg.beta, ws.timers))
            }
        };
        let rho1 = state[nt].clone();
        let j = self.objective_value(&rho1, &g, v);

        // Cache ∇ρ(t_i), which the adjoint sweep below and every Hessian
        // matvec this iteration read.
        let grads: Vec<VectorField> =
            state.into_iter().map(|r| ws.fft.gradient(&r, ws.timers)).collect();

        // Reduced gradient g = β(-Δ)^m v + P ∫ λ ∇ρ dt, the adjoint with the
        // measure's terminal condition (SSD: λ(1) = ρ_R − ρ(1), paper eq. 3).
        let lam1 = self.cfg.distance.terminal_adjoint(&rho1, &self.rho_r, &ws.grid(), ws.comm);
        self.add_adjoint_integral(ws, &sl, lam1, &grads, &mut g);

        self.lin = Some(Linearization { sl, grads, rho1 });
        (j, g)
    }

    fn hessian_vec(&mut self, d: &VectorField) -> VectorField {
        let _span = diffreg_telemetry::span("hessian.matvec");
        let cached = self.precond_reg.take();
        #[expect(
            clippy::expect_used,
            reason = "documented API contract: hessian_vec requires a linearize after the last objective; the expect message states it"
        )]
        let lin = self.lin.as_ref().expect("hessian_vec needs a linearize after the last objective");
        // β(-Δ)^m d first; P b̃ is added into it.
        let mut h = self.regularization_of(cached, d);
        // Incremental state (5a) forward, then incremental adjoint (5c
        // without the λ terms) backward; H d = β(-Δ)^m d + P ∫ λ̃ ∇ρ dt. Both
        // transports run on the trilinear kernel whatever `cfg.kernel` says:
        // an inexact Newton step needs only an approximate Hessian (the λ
        // terms are dropped for the same reason), and the gradient and the
        // line search, which stay on `cfg.kernel`, fix the answer.
        let ws = &Workspace { kernel: Kernel::Trilinear, ..self.ws };
        let rho_tilde1 = lin.sl.solve_incremental_state(ws, d, &lin.grads);
        let lam_tilde1 =
            self.cfg.distance.gn_terminal(&lin.rho1, &self.rho_r, &rho_tilde1, &ws.grid(), ws.comm);
        drop(rho_tilde1);
        self.add_adjoint_integral(ws, &lin.sl, lam_tilde1, &lin.grads, &mut h);
        h
    }

    fn precondition(&mut self, r: &VectorField) -> VectorField {
        if !self.cfg.precondition {
            return r.clone();
        }
        // Free a stale entry before the transforms allocate.
        self.precond_reg = None;
        let z = self.ws.fft.precondition(r, self.cfg.reg, self.cfg.beta, self.ws.timers);
        let mut az = r.clone();
        az.axpy(-1.0, &z);
        self.precond_reg = Some(PrecondReg { z: z.clone(), az });
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::SerialComm;
    use diffreg_grid::Grid;
    use diffreg_optim::VectorOps;
    use diffreg_transport::SessionParts;

    fn setup(grid: Grid) -> (SerialComm, SessionParts<SerialComm>) {
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        (comm, parts)
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

    /// `β(-Δ)^m x + P ∫ λ ∇ρ dt` the slow way, in the streamed sweep's
    /// order: `λ` is `solve_adjoint`'s full history from `lam1` on `ws`'s
    /// kernel, and the trapezoid's terms `w_i λ(t_i) ∇ρ(t_i)` are added from
    /// `i = nt` down to `0`, straight onto `β(-Δ)^m x` when `P` is the
    /// identity, otherwise into zeros that are then Leray-projected and added.
    fn from_history<C: Comm>(
        prob: &RegProblem<C>,
        ws: &Workspace<C>,
        x: &VectorField,
        lam1: &ScalarField,
    ) -> VectorField {
        let lin = prob.lin.as_ref().expect("linearized");
        let adj = lin.sl.solve_adjoint(ws, lam1);
        let mut out = ws.fft.regularization(x, prob.cfg.reg, prob.cfg.beta, ws.timers);
        let mut b = prob.cfg.incompressible.then(|| VectorField::zeros(out.block()));
        let sum = b.as_mut().unwrap_or(&mut out);
        let (nt, dt) = (prob.cfg.nt, 1.0 / prob.cfg.nt as f64);
        for (i, (lam, grad)) in adj.iter().zip(&lin.grads).enumerate().rev() {
            let w = if i == 0 || i == nt { 0.5 * dt } else { dt };
            for (o, g) in sum.comps.iter_mut().zip(&grad.comps) {
                for ((o, &g), &l) in o.data_mut().iter_mut().zip(g.data()).zip(lam.data()) {
                    *o += w * l * g;
                }
            }
        }
        if let Some(b) = b {
            out.axpy(1.0, &ws.fft.leray(&b, ws.timers));
        }
        out
    }

    /// The Gauss-Newton product `H d` assembled from the linearization's
    /// pieces with both incremental transports on `kernel`, in the matvec's
    /// summation order (`from_history`).
    fn gn_product<C: Comm>(prob: &RegProblem<C>, kernel: Kernel, d: &VectorField) -> VectorField {
        let ws = &Workspace { kernel, ..prob.ws };
        let lin = prob.lin.as_ref().expect("linearized");
        let rho_tilde1 = lin.sl.solve_incremental_state(ws, d, &lin.grads);
        let lam_tilde1 =
            prob.cfg.distance.gn_terminal(&lin.rho1, &prob.rho_r, &rho_tilde1, &ws.grid(), ws.comm);
        from_history(prob, ws, d, &lam_tilde1)
    }

    #[test]
    fn gauss_newton_matvec_is_trilinear() {
        let grid = Grid::cubic(12);
        let (comm, parts) = setup(grid);
        let ws = parts.workspace(&comm);
        let (t, r) = images(&ws);
        let v = probe_dir(&ws);
        let d = VectorField::from_fn(&grid, ws.block(), |x| {
            [0.2 * x[2].cos(), 0.15 * (x[0] + x[1]).sin(), -0.1 * x[1].cos()]
        });
        let cfg = RegistrationConfig { nt: 4, beta: 1e-2, kernel: Kernel::Tricubic, ..Default::default() };
        let mut prob = RegProblem::new(&ws, &t, &r, cfg);
        prob.linearize(&v);
        let h = prob.hessian_vec(&d);
        // Swap the workspace's kernel under the cached linearization: only a
        // matvec that reads it can change.
        prob.ws.kernel = Kernel::Trilinear;
        let swapped = prob.hessian_vec(&d);
        prob.ws.kernel = Kernel::Tricubic;
        assert!(same_bits(&h, &gn_product(&prob, Kernel::Trilinear, &d)));
        assert!(!same_bits(&h, &gn_product(&prob, Kernel::Tricubic, &d)));
        assert!(same_bits(&h, &swapped), "GN matvec must not read cfg.kernel");
    }

    #[test]
    fn streamed_gradient_matches_its_history_bit_for_bit() {
        let grid = Grid::cubic(12);
        let (comm, parts) = setup(grid);
        let ws = parts.workspace(&comm);
        for incompressible in [false, true] {
            let cfg = RegistrationConfig { incompressible, ..Default::default() };
            let (prob, g) = linearized(&ws, cfg);
            let v = if incompressible { prob.project(&probe_dir(&ws)) } else { probe_dir(&ws) };
            let lin = prob.lin.as_ref().expect("linearized");
            let lam1 = prob.cfg.distance.terminal_adjoint(&lin.rho1, &prob.rho_r, &grid, &comm);
            let want = from_history(&prob, &prob.ws, &v, &lam1);
            assert!(same_bits(&g, &want), "incompressible={incompressible}");
        }
    }

    /// A linearized Gauss-Newton problem at 12³ and a residual to
    /// precondition.
    fn linearized<'a>(
        ws: &Workspace<'a, SerialComm>,
        cfg: RegistrationConfig,
    ) -> (RegProblem<'a, SerialComm>, VectorField) {
        let (t, r) = images(ws);
        let mut prob = RegProblem::new(ws, &t, &r, RegistrationConfig { nt: 4, beta: 1e-2, ..cfg });
        let v = if cfg.incompressible { prob.project(&probe_dir(ws)) } else { probe_dir(ws) };
        let (_, g) = prob.linearize(&v);
        (prob, g)
    }

    /// `fft_3d` calls `f` makes.
    fn ffts<C: Comm, R>(ws: &Workspace<C>, f: impl FnOnce() -> R) -> (R, u64) {
        let before = ws.timers.get_count("fft_3d");
        let out = f();
        (out, ws.timers.get_count("fft_3d") - before)
    }

    fn rel_diff(ops: &FieldOps<'_, SerialComm>, a: &VectorField, b: &VectorField) -> f64 {
        let mut diff = a.clone();
        diff.axpy(-1.0, b);
        ops.norm(&diff) / ops.norm(b)
    }

    #[test]
    fn hessian_of_a_preconditioned_residual_matches_the_fft_path() {
        let (comm, parts) = setup(Grid::cubic(12));
        let ws = parts.workspace(&comm);
        let (mut prob, g) = linearized(&ws, RegistrationConfig::default());
        let z = prob.precondition(&g);
        let hit = prob.hessian_vec(&z);
        // The entry was consumed: the same vector again takes the FFT path.
        let miss = prob.hessian_vec(&z);
        let rel = rel_diff(&prob.ops, &hit, &miss);
        assert!(rel < 1e-12, "βAz = r − z drifted from the spectral operator: {rel}");
    }

    #[test]
    fn one_pcg_iteration_costs_one_spectral_operator() {
        let (comm, parts) = setup(Grid::cubic(12));
        let ws = parts.workspace(&comm);
        let (mut prob, g) = linearized(&ws, RegistrationConfig::default());
        let ((), iteration) = ffts(&ws, || {
            let z = prob.precondition(&g);
            prob.hessian_vec(&z);
        });
        assert_eq!(iteration, 6, "preconditioner, then a matvec of its output");
        let ((), miss) = ffts(&ws, || {
            prob.precondition(&g);
            prob.hessian_vec(&g);
        });
        assert_eq!(miss, 12, "a matvec of another vector runs the regularization");
    }

    #[test]
    fn one_flipped_bit_misses() {
        let (comm, parts) = setup(Grid::cubic(12));
        let ws = parts.workspace(&comm);
        let (mut prob, g) = linearized(&ws, RegistrationConfig::default());
        let mut z = prob.precondition(&g);
        let x = &mut z.comps[1].data_mut()[17];
        *x = f64::from_bits(x.to_bits() ^ 1);
        let (h, calls) = ffts(&ws, || prob.hessian_vec(&z));
        assert_eq!(calls, 6);
        assert!(same_bits(&h, &gn_product(&prob, Kernel::Trilinear, &z)));
    }

    #[test]
    fn without_preconditioning_nothing_is_cached() {
        let (comm, parts) = setup(Grid::cubic(12));
        let ws = parts.workspace(&comm);
        let cfg = RegistrationConfig { precondition: false, ..Default::default() };
        let (mut prob, g) = linearized(&ws, cfg);
        let (z, calls) = ffts(&ws, || prob.precondition(&g));
        assert_eq!(calls, 0);
        assert!(prob.precond_reg.is_none());
        let (_, calls) = ffts(&ws, || prob.hessian_vec(&z));
        assert_eq!(calls, 6, "the matvec runs its own regularization");
    }

    #[test]
    fn incompressible_matvec_hits() {
        let (comm, parts) = setup(Grid::cubic(12));
        let ws = parts.workspace(&comm);
        let cfg = RegistrationConfig { incompressible: true, ..Default::default() };
        let (mut prob, g) = linearized(&ws, cfg);
        let (_, leray) = ffts(&ws, || prob.project(&g));
        let z = prob.precondition(&g);
        let (hit, calls) = ffts(&ws, || prob.hessian_vec(&z));
        assert_eq!(calls, leray, "a hit runs only the projection of b̃");
        let (miss, calls) = ffts(&ws, || prob.hessian_vec(&z));
        assert_eq!(calls, leray + 6);
        let rel = rel_diff(&prob.ops, &hit, &miss);
        assert!(rel < 1e-12, "{rel}");
    }

    #[test]
    fn one_perturbed_rank_makes_every_rank_miss() {
        use diffreg_comm::run_threaded;
        use diffreg_grid::Decomp;
        let grid = Grid::cubic(12);
        let calls = run_threaded(4, move |comm| {
            let parts = SessionParts::with_decomp(comm, Decomp::with_process_grid(grid, 2, 2));
            let ws = parts.workspace(comm);
            let (t, r) = images(&ws);
            let cfg = RegistrationConfig { nt: 4, beta: 1e-2, ..Default::default() };
            let mut prob = RegProblem::new(&ws, &t, &r, cfg);
            let (_, g) = prob.linearize(&probe_dir(&ws));
            let mut per_round = Vec::new();
            for perturbed in [None, Some(1)] {
                let mut z = prob.precondition(&g);
                if perturbed == Some(comm.rank()) {
                    z.comps[0].data_mut()[0] += 1e-3;
                }
                let (_, calls) = ffts(&ws, || prob.hessian_vec(&z));
                per_round.push(calls);
            }
            per_round
        });
        for (rank, calls) in calls.iter().enumerate() {
            assert_eq!(calls, &[0, 6], "rank {rank}: a hit, then a miss everywhere");
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let grid = Grid::cubic(12);
        let (comm, parts) = setup(grid);
        let ws = parts.workspace(&comm);
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
        for n in [[10, 10, 10], [24, 30, 24]] {
            let grid = Grid::new(n);
            let (comm, parts) = setup(grid);
            let ws = parts.workspace(&comm);
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
            assert!(rel < 1e-2, "{n:?}: asymmetry {rel}: {a} vs {b}");

            let hd = prob.hessian_vec(&d1);
            let quad = prob.ops().dot(&hd, &d1);
            assert!(quad > 0.0, "{n:?}: GN Hessian not positive on test direction: {quad}");
        }
    }

    #[test]
    fn gauss_newton_hessian_matches_gradient_differences() {
        // ⟨H d, w⟩ must approximate the directional derivative of the
        // gradient, ⟨(g(v+εd) − g(v−εd))/2ε, w⟩, up to the dropped λ terms
        // and the discretization error: the matvec as shipped (trilinear
        // transports) within 0.25 (0.17 measured), and the `gn_product`
        // oracle on the tricubic kernel the gradient runs on within 0.3
        // (0.26 measured; it was never bounded tighter). Either bound
        // catches a sign or a factor of two.
        let grid = Grid::cubic(24);
        let (comm, parts) = setup(grid);
        let ws = parts.workspace(&comm);
        let (t, r) = images(&ws);
        let v = probe_dir(&ws);
        let d = VectorField::from_fn(&grid, ws.block(), |x| {
            [0.2 * x[2].cos(), 0.15 * (x[0] + x[1]).sin(), -0.1 * x[1].cos()]
        });
        let w = VectorField::from_fn(&grid, ws.block(), |x| {
            [0.1 * x[1].sin() + 0.05, -0.2 * x[2].cos(), 0.15 * x[0].sin()]
        });
        let cfg = RegistrationConfig { nt: 4, beta: 1e-2, ..Default::default() };
        let mut prob = RegProblem::new(&ws, &t, &r, cfg);

        let fd = {
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

        prob.linearize(&v);
        let hd = prob.hessian_vec(&d);
        let tricubic = gn_product(&prob, Kernel::Tricubic, &d);
        let scale = fd.abs().max(1e-12);
        for (name, h, bound) in [("trilinear matvec", &hd, 0.25), ("tricubic product", &tricubic, 0.3)] {
            let hw = prob.ops().dot(h, &w);
            let err = (hw - fd).abs() / scale;
            assert!(err < bound, "{name} mismatch {err}: {hw} vs fd {fd}");
        }
    }

    #[test]
    fn zero_velocity_gradient_is_projected_data_term() {
        // At v = 0 the regularization gradient vanishes; for identical
        // images the full gradient must vanish too.
        let grid = Grid::cubic(8);
        let (comm, parts) = setup(grid);
        let ws = parts.workspace(&comm);
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
        let (comm, parts) = setup(grid);
        let ws = parts.workspace(&comm);
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
