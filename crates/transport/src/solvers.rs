//! Semi-Lagrangian solvers for the four transport equations of the optimal
//! control system (paper eqs. 2b, 3, 5a, 5c) and for the deformation map
//! (paper eq. 1), all sharing the cached departure-point plans.
//!
//! With a stationary velocity the departure points are computed once per
//! velocity per direction ([`SemiLagrangian::new`]) and reused by every
//! solve and every time step — the paper's planner optimization.

use diffreg_comm::Comm;
use diffreg_grid::{ScalarField, VectorField};
use diffreg_interp::ghosted;

use crate::trajectory::{compute_trajectories, Trajectory};
use crate::workspace::Workspace;

/// Cached semi-Lagrangian state for one stationary velocity field.
#[derive(Debug)]
pub struct SemiLagrangian {
    nt: usize,
    dt: f64,
    fwd: Trajectory,
    bwd: Trajectory,
    divv: ScalarField,
    /// `div v` interpolated at the backward departure points (the adjoint
    /// equations' source term is `λ div v`).
    divv_at_bwd: Vec<f64>,
}

impl SemiLagrangian {
    /// Builds departure points for `v` (both directions, from one ghosted
    /// copy of `v` and one finiteness check), the divergence field, and its
    /// interpolant at the backward points. Collective.
    pub fn new<C: Comm>(ws: &Workspace<C>, v: &VectorField, nt: usize) -> Self {
        let _span = diffreg_telemetry::span("transport.setup");
        assert!(nt > 0, "need at least one time step");
        let dt = 1.0 / nt as f64;
        let [fwd, bwd] = compute_trajectories(ws, v, [dt, -dt]);
        let divv = ws.fft.divergence(v, ws.timers);
        let gd = ghosted(ws.comm, ws.decomp, &divv);
        let divv_at_bwd = bwd.plan.interpolate(ws.comm, &gd, ws.kernel, ws.timers);
        Self { nt, dt, fwd, bwd, divv, divv_at_bwd }
    }

    /// Number of time steps.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Time step size `δt = 1/nt`.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Departure trajectory for the forward (state) direction.
    pub fn forward_trajectory(&self) -> &Trajectory {
        &self.fwd
    }

    /// `div v` on the grid.
    pub fn divergence(&self) -> &ScalarField {
        &self.divv
    }

    /// The CFL number of this velocity/time-step combination,
    /// `max|v| δt / h_min`. The semi-Lagrangian scheme is stable for any
    /// value (paper §III-B2); CFL > 1 means departure points leave their
    /// rank's subdomain and must be routed by the scatter plan.
    pub fn cfl_number<C: Comm>(&self, ws: &Workspace<C>, v: &VectorField) -> f64 {
        let h = ws.grid().spacing();
        let h_min = h[0].min(h[1]).min(h[2]);
        v.max_magnitude(ws.comm) * self.dt / h_min
    }

    /// State equation (2b): `∂t ρ + v·∇ρ = 0`, `ρ(0) = rho0`. Pure advection:
    /// each step is one interpolation at the forward departure points.
    /// Returns the full history `ρ(t_i)`, `i = 0..=nt`.
    pub fn solve_state<C: Comm>(&self, ws: &Workspace<C>, rho0: &ScalarField) -> Vec<ScalarField> {
        let _span = diffreg_telemetry::span("transport.state");
        let mut hist = Vec::with_capacity(self.nt + 1);
        hist.push(rho0.clone());
        for _ in 0..self.nt {
            // diffreg-allow(no-unwrap-in-lib): hist is seeded with rho0 before the loop, so last() is always Some
            let next = self.fwd.advect_step(ws, hist.last().unwrap());
            hist.push(next);
        }
        hist
    }

    /// One step of the continuity-form equation family
    /// `∂τ ν + (−v)·∇ν = ν div v` (the adjoint and incremental adjoint in
    /// reversed time), via the RK2 scheme of paper eq. (7) with `f = ν w`.
    fn step_continuity<C: Comm>(&self, ws: &Workspace<C>, nu: &ScalarField) -> ScalarField {
        let nu0x = self.bwd.advect_step(ws, nu).into_vec();
        let w = self.divv.data();
        let wx = &self.divv_at_bwd;
        let dt = self.dt;
        // Zipped-slice form: no index bound checks in the loop body, so the
        // RK2 update autovectorizes.
        let out = nu0x
            .iter()
            .zip(wx)
            .zip(w)
            .map(|((&n0, &wxl), &wl)| {
                let f0 = n0 * wxl;
                let nu_star = n0 + dt * f0;
                let f_star = nu_star * wl;
                n0 + 0.5 * dt * (f0 + f_star)
            })
            .collect();
        ScalarField::from_vec(nu.block(), out)
    }

    /// Adjoint equation (3): `−∂t λ − div(vλ) = 0` with terminal condition
    /// `λ(1) = lambda1`, solved backward in time (τ = 1 − t). Returns the
    /// history indexed by *t*: `out[i] = λ(t_i)`, so `out[nt] = lambda1`.
    pub fn solve_adjoint<C: Comm>(&self, ws: &Workspace<C>, lambda1: &ScalarField) -> Vec<ScalarField> {
        let _span = diffreg_telemetry::span("transport.adjoint");
        let mut rev = Vec::with_capacity(self.nt + 1);
        rev.push(lambda1.clone());
        for _ in 0..self.nt {
            // diffreg-allow(no-unwrap-in-lib): rev is seeded with lambda1 before the loop, so last() is always Some
            let next = self.step_continuity(ws, rev.last().unwrap());
            rev.push(next);
        }
        rev.reverse();
        rev
    }

    /// Incremental state equation (5a): `∂t ρ̃ + v·∇ρ̃ = −ṽ·∇ρ(t)`, `ρ̃(0)=0`
    /// (paper Algorithm 2). `grad_state[i]` must hold `∇ρ(t_i)` for the state
    /// history the Hessian is linearized at. Returns `ρ̃(1)` only (the full
    /// incremental history is not needed by the Gauss-Newton matvec).
    pub fn solve_incremental_state<C: Comm>(
        &self,
        ws: &Workspace<C>,
        vtilde: &VectorField,
        grad_state: &[VectorField],
    ) -> ScalarField {
        // diffreg-allow(no-unwrap-in-lib): solve_incremental_state_history returns nt+1 >= 1 states
        self.solve_incremental_state_history(ws, vtilde, grad_state).pop().unwrap()
    }

    /// Like [`SemiLagrangian::solve_incremental_state`] but returns the full
    /// history `ρ̃(t_i)`, `i = 0..=nt` — needed by the *full* Newton Hessian,
    /// whose `b̃` integral contains the `λ ∇ρ̃` term (paper eq. 5).
    pub fn solve_incremental_state_history<C: Comm>(
        &self,
        ws: &Workspace<C>,
        vtilde: &VectorField,
        grad_state: &[VectorField],
    ) -> Vec<ScalarField> {
        assert_eq!(grad_state.len(), self.nt + 1, "need ∇ρ at every time level");
        let block = ws.block();
        let nloc = vtilde.local_len();
        // Source f_i(x) = −ṽ(x)·∇ρ(t_i)(x), local pointwise (zipped slices
        // keep the triple product branch- and bounds-check-free).
        let (vt0, vt1, vt2) =
            (vtilde.comps[0].data(), vtilde.comps[1].data(), vtilde.comps[2].data());
        let source = |i: usize| -> ScalarField {
            let g = &grad_state[i];
            let (g0, g1, g2) = (g.comps[0].data(), g.comps[1].data(), g.comps[2].data());
            let f = (0..nloc).map(|l| -(vt0[l] * g0[l] + vt1[l] * g1[l] + vt2[l] * g2[l])).collect();
            ScalarField::from_vec(block, f)
        };
        let mut hist = Vec::with_capacity(self.nt + 1);
        hist.push(ScalarField::zeros(block));
        let half_dt = 0.5 * self.dt;
        let mut f_cur = source(0);
        for i in 0..self.nt {
            // RK2 step ρ̃(x) ← I[ρ̃](X) + δt/2·(I[f_i](X) + f_{i+1}(x)).
            // Interpolation is linear, so the two interpolants are one,
            // I[ρ̃ + δt/2·f_i](X): one ghost exchange, one field.
            // diffreg-allow(no-unwrap-in-lib): hist is seeded with the zero field before the loop, so last() is always Some
            let mut combined = hist.last().unwrap().clone();
            combined.axpy(half_dt, &f_cur);
            let mut next = self.fwd.advect_step(ws, &combined);
            f_cur = source(i + 1);
            next.axpy(half_dt, &f_cur);
            hist.push(next);
        }
        hist
    }

    /// Incremental adjoint in its *full Newton* form (paper eq. 5c):
    /// `−∂t λ̃ − div(λ̃ v + λ ṽ) = 0`, `λ̃(1) = −ρ̃(1)`. In reversed time this
    /// is the continuity family with the extra external source
    /// `s(x, t) = div(λ(t) ṽ)`; `source[i]` must hold `s(·, t_i)` (computed
    /// by the caller with one spectral divergence per time level). Returns
    /// the history indexed by t.
    pub fn solve_incremental_adjoint_full<C: Comm>(
        &self,
        ws: &Workspace<C>,
        rho_tilde1: &ScalarField,
        source: &[ScalarField],
    ) -> Vec<ScalarField> {
        assert_eq!(source.len(), self.nt + 1, "need div(λṽ) at every time level");
        let block = ws.block();
        let w = self.divv.data();
        let wx = &self.divv_at_bwd;
        let dt = self.dt;
        let mut rev = Vec::with_capacity(self.nt + 1);
        let mut term = rho_tilde1.clone();
        term.scale(-1.0);
        rev.push(term);
        // τ step j advances from t index i = nt − j to i − 1.
        for j in 0..self.nt {
            let i = self.nt - j;
            // diffreg-allow(no-unwrap-in-lib): rev is seeded with the terminal condition before the loop, so last() is always Some
            let nu = rev.last().unwrap();
            let g_nu = ghosted(ws.comm, ws.decomp, nu);
            let g_s = ghosted(ws.comm, ws.decomp, &source[i]);
            let interp =
                self.bwd.plan.interpolate_many(ws.comm, &[&g_nu, &g_s], ws.kernel, ws.timers);
            let s_next = source[i - 1].data();
            let out = interp[0]
                .iter()
                .zip(&interp[1])
                .zip(wx)
                .zip(w)
                .zip(s_next)
                .map(|((((&n0, &sx), &wxl), &wl), &sn)| {
                    let f0 = n0 * wxl + sx;
                    let nu_star = n0 + dt * f0;
                    let f_star = nu_star * wl + sn;
                    n0 + 0.5 * dt * (f0 + f_star)
                })
                .collect();
            rev.push(ScalarField::from_vec(block, out));
        }
        rev.reverse();
        rev
    }

    /// Incremental adjoint, Gauss-Newton form (5c without the λ terms):
    /// `−∂t λ̃ − div(vλ̃) = 0` with `λ̃(1) = −ρ̃(1)`. Returns the history
    /// indexed by t (like [`SemiLagrangian::solve_adjoint`]).
    pub fn solve_incremental_adjoint<C: Comm>(
        &self,
        ws: &Workspace<C>,
        rho_tilde1: &ScalarField,
    ) -> Vec<ScalarField> {
        let mut term = rho_tilde1.clone();
        term.scale(-1.0);
        self.solve_adjoint(ws, &term)
    }

    /// Deformation-map displacement (paper eq. 1): solves
    /// `∂t u + v·∇u = −v`, `u(x,0) = 0`, so that `y(x,1) = x + u(x,1)`.
    /// Solving for the displacement keeps the transported quantity periodic.
    pub fn solve_displacement<C: Comm>(&self, ws: &Workspace<C>, v: &VectorField) -> VectorField {
        // RK2 step u(x) ← I[u](X) − δt/2·(I[v](X) + v(x)) with the static
        // source −v; by linearity the two interpolants are I[u − δt/2·v](X).
        let half_dt = 0.5 * self.dt;
        let mut u = VectorField::zeros(ws.block());
        for _ in 0..self.nt {
            u.axpy(-half_dt, v);
            let gu = u.comps.each_ref().map(|c| ghosted(ws.comm, ws.decomp, c));
            let at_x = self
                .fwd
                .plan
                .interpolate_many(ws.comm, &[&gu[0], &gu[1], &gu[2]], ws.kernel, ws.timers);
            for (comp, vals) in u.comps.iter_mut().zip(at_x) {
                *comp = ScalarField::from_vec(comp.block(), vals);
            }
            u.axpy(-half_dt, v);
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::{run_threaded, Comm, SerialComm, Timers};
    use diffreg_grid::{Decomp, Grid};
    use diffreg_pfft::PencilFft;

    fn with_serial_ws<R>(grid: Grid, f: impl FnOnce(&Workspace<SerialComm>) -> R) -> R {
        let comm = SerialComm::new();
        let decomp = Decomp::new(grid, 1);
        let fft = PencilFft::new(&comm, decomp);
        let timers = Timers::new();
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        f(&ws)
    }

    #[test]
    fn state_translation_matches_analytic_shift() {
        let grid = Grid::cubic(24);
        with_serial_ws(grid, |ws| {
            let c = [1.0, 0.5, -0.3];
            let v = VectorField::from_fn(&grid, ws.block(), |_| c);
            let rho0 = ScalarField::from_fn(&grid, ws.block(), |x| x[0].sin() + 0.5 * x[1].cos());
            let sl = SemiLagrangian::new(ws, &v, 4);
            let hist = sl.solve_state(ws, &rho0);
            assert_eq!(hist.len(), 5);
            // ρ(x, 1) = ρ0(x − c)
            let expect =
                ScalarField::from_fn(&grid, ws.block(), |x| (x[0] - c[0]).sin() + 0.5 * (x[1] - c[1]).cos());
            let mut err: f64 = 0.0;
            for (a, b) in hist[4].data().iter().zip(expect.data()) {
                err = err.max((a - b).abs());
            }
            assert!(err < 5e-3, "translation error {err}");
        });
    }

    #[test]
    fn adjoint_translation_shifts_the_other_way() {
        let grid = Grid::cubic(24);
        with_serial_ws(grid, |ws| {
            let c = [0.8, 0.0, 0.0];
            let v = VectorField::from_fn(&grid, ws.block(), |_| c);
            let lam1 = ScalarField::from_fn(&grid, ws.block(), |x| (2.0 * x[0]).sin());
            let sl = SemiLagrangian::new(ws, &v, 4);
            let hist = sl.solve_adjoint(ws, &lam1);
            // λ(t=0)(x) = λ1(x + c) for constant (divergence-free) v.
            let expect = ScalarField::from_fn(&grid, ws.block(), |x| (2.0 * (x[0] + c[0])).sin());
            let mut err: f64 = 0.0;
            for (a, b) in hist[0].data().iter().zip(expect.data()) {
                err = err.max((a - b).abs());
            }
            assert!(err < 2e-2, "adjoint translation error {err}");
            // Terminal slot holds the terminal condition untouched.
            assert_eq!(hist[4].data(), lam1.data());
        });
    }

    #[test]
    fn adjoint_conserves_total_mass_for_compressible_velocity() {
        // The adjoint is a continuity equation: d/dt ∫λ dx = 0 even when
        // div v ≠ 0.
        let grid = Grid::cubic(16);
        with_serial_ws(grid, |ws| {
            let v = VectorField::from_fn(&grid, ws.block(), |x| {
                [x[0].sin() * 0.5, (x[1] * 2.0).cos() * 0.3, x[2].sin() * 0.2]
            });
            let lam1 = ScalarField::from_fn(&grid, ws.block(), |x| 1.0 + 0.5 * x[0].cos());
            let sl = SemiLagrangian::new(ws, &v, 8);
            let hist = sl.solve_adjoint(ws, &lam1);
            let m1: f64 = hist[8].data().iter().sum();
            let m0: f64 = hist[0].data().iter().sum();
            // Semi-Lagrangian schemes are consistent but not discretely
            // conservative; the drift is O(δt² + h⁴), a few percent here.
            let rel = (m1 - m0).abs() / m1.abs();
            assert!(rel < 2e-2, "mass drift {rel}");
        });
    }

    #[test]
    fn incremental_state_is_consistent_with_finite_differences() {
        let grid = Grid::cubic(16);
        with_serial_ws(grid, |ws| {
            let v = VectorField::from_fn(&grid, ws.block(), |x| {
                [x[1].sin() * 0.4, x[0].cos() * 0.4, 0.2 * x[2].sin()]
            });
            let vt = VectorField::from_fn(&grid, ws.block(), |x| {
                [0.3 * x[2].cos(), 0.2 * (x[0] + x[1]).sin(), -0.1 * x[1].cos()]
            });
            let rho0 = ScalarField::from_fn(&grid, ws.block(), |x| x[0].sin() * x[1].cos() + 0.3 * x[2].sin());
            let nt = 4;

            let sl = SemiLagrangian::new(ws, &v, nt);
            let hist = sl.solve_state(ws, &rho0);
            let grads: Vec<VectorField> =
                hist.iter().map(|r| ws.fft.gradient(r, ws.timers)).collect();
            let rho_tilde = sl.solve_incremental_state(ws, &vt, &grads);

            // FD: (ρ[v+εṽ](1) − ρ[v−εṽ](1)) / 2ε
            let eps = 1e-4;
            let mut vp = v.clone();
            vp.axpy(eps, &vt);
            let mut vm = v.clone();
            vm.axpy(-eps, &vt);
            let hp = SemiLagrangian::new(ws, &vp, nt).solve_state(ws, &rho0);
            let hm = SemiLagrangian::new(ws, &vm, nt).solve_state(ws, &rho0);
            let mut err: f64 = 0.0;
            let mut scale: f64 = 0.0;
            for l in 0..rho_tilde.local_len() {
                let fd = (hp[nt].data()[l] - hm[nt].data()[l]) / (2.0 * eps);
                err = err.max((fd - rho_tilde.data()[l]).abs());
                scale = scale.max(fd.abs());
            }
            assert!(err < 0.02 * scale.max(1.0), "linearization error {err} (scale {scale})");
        });
    }

    /// Paper Algorithm 2 as written: ρ̃ and its source interpolated as two
    /// fields per step. `solve_incremental_state` interpolates their linear
    /// combination once; the two must agree to rounding on every
    /// decomposition, cubic grid or not.
    #[test]
    fn fused_incremental_state_matches_two_field_reference() {
        let cases = [[16, 16, 16], [24, 30, 24]]
            .into_iter()
            .flat_map(|dims| [(1, 1), (2, 1), (2, 2)].map(|pgrid| (dims, pgrid)));
        for (dims, pgrid) in cases {
            let grid = Grid::new(dims);
            run_threaded(pgrid.0 * pgrid.1, move |comm| {
                let decomp = Decomp::with_process_grid(grid, pgrid.0, pgrid.1);
                let fft = PencilFft::new(comm, decomp);
                let timers = Timers::new();
                let ws = Workspace::new(comm, &decomp, &fft, &timers);
                let block = ws.block();
                let v = VectorField::from_fn(&grid, block, |x| {
                    [x[1].sin() * 0.4, x[0].cos() * 0.4, 0.2 * x[2].sin()]
                });
                let vt = VectorField::from_fn(&grid, block, |x| {
                    [0.3 * x[2].cos(), 0.2 * (x[0] + x[1]).sin(), -0.1 * x[1].cos()]
                });
                let rho0 =
                    ScalarField::from_fn(&grid, block, |x| x[0].sin() * x[1].cos() + 0.3 * x[2].sin());
                let nt = 4;
                let sl = SemiLagrangian::new(&ws, &v, nt);
                let grads: Vec<VectorField> =
                    sl.solve_state(&ws, &rho0).iter().map(|r| fft.gradient(r, &timers)).collect();
                let fused = sl.solve_incremental_state(&ws, &vt, &grads);

                let source = |i: usize| {
                    let mut f = ScalarField::zeros(block);
                    for a in 0..3 {
                        let (vta, ga) = (vt.comps[a].data(), grads[i].comps[a].data());
                        for (f, (t, g)) in f.data_mut().iter_mut().zip(vta.iter().zip(ga)) {
                            *f -= t * g;
                        }
                    }
                    f
                };
                let mut rho = ScalarField::zeros(block);
                for i in 0..nt {
                    let (g_rho, g_f) = (ghosted(comm, &decomp, &rho), ghosted(comm, &decomp, &source(i)));
                    let at_x = sl.fwd.plan.interpolate_many(comm, &[&g_rho, &g_f], ws.kernel, &timers);
                    let f_next = source(i + 1);
                    for (l, r) in rho.data_mut().iter_mut().enumerate() {
                        *r = at_x[0][l] + 0.5 * sl.dt * (at_x[1][l] + f_next.data()[l]);
                    }
                }
                for (got, want) in fused.data().iter().zip(rho.data()) {
                    assert!((got - want).abs() < 1e-12, "{dims:?} on {pgrid:?}: {got} vs {want}");
                }
            });
        }
    }

    #[test]
    fn displacement_for_constant_velocity_is_minus_v() {
        let grid = Grid::cubic(16);
        with_serial_ws(grid, |ws| {
            let c = [0.4, -0.2, 0.1];
            let v = VectorField::from_fn(&grid, ws.block(), |_| c);
            let sl = SemiLagrangian::new(ws, &v, 4);
            let u = sl.solve_displacement(ws, &v);
            for (a, comp) in u.comps.iter().enumerate() {
                for val in comp.data() {
                    assert!((val + c[a]).abs() < 1e-10, "axis {a}: {val}");
                }
            }
        });
    }

    #[test]
    fn cfl_and_off_rank_diagnostics() {
        let grid = Grid::cubic(16);
        let comm = SerialComm::new();
        let decomp = Decomp::new(grid, 1);
        let fft = PencilFft::new(&comm, decomp);
        let timers = Timers::new();
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        // |v| = 1 everywhere, δt = 1/4, h = 2π/16 -> CFL = (1/4)/(π/8) ≈ 0.64.
        let v = VectorField::from_fn(&grid, ws.block(), |_| [1.0, 0.0, 0.0]);
        let sl = SemiLagrangian::new(&ws, &v, 4);
        let expect = 0.25 / (std::f64::consts::TAU / 16.0);
        assert!((sl.cfl_number(&ws, &v) - expect).abs() < 1e-12);
        // Serial runs never route points away.
        assert_eq!(sl.forward_trajectory().plan.off_rank_fraction(&comm), 0.0);
    }

    #[test]
    fn off_rank_fraction_grows_with_velocity() {
        let grid = Grid::cubic(8);
        run_threaded(4, move |comm| {
            let decomp = Decomp::with_process_grid(grid, 2, 2);
            let fft = PencilFft::new(comm, decomp);
            let timers = Timers::new();
            let ws = Workspace::new(comm, &decomp, &fft, &timers);
            // A sub-cell positive shift keeps every departure point in its
            // own cell (grid points sit at cell lower corners), so nothing
            // leaks; a multi-slab shift routes everything.
            let slow = VectorField::from_fn(&grid, ws.block(), |_| [-0.05, -0.05, 0.0]);
            let fast = VectorField::from_fn(&grid, ws.block(), |_| [-15.0, -15.0, 0.0]);
            let f_slow =
                SemiLagrangian::new(&ws, &slow, 4).forward_trajectory().plan.off_rank_fraction(comm);
            let f_fast =
                SemiLagrangian::new(&ws, &fast, 4).forward_trajectory().plan.off_rank_fraction(comm);
            assert_eq!(f_slow, 0.0, "sub-cell shift must stay on-rank");
            assert!(f_fast > 0.5, "CFL >> 1 flow must route most points: {f_fast}");
        });
    }

    #[test]
    fn distributed_state_solve_matches_serial() {
        let grid = Grid::cubic(12);
        let vfun = |x: [f64; 3]| [x[1].sin() * 0.5, x[0].cos() * 0.5, 0.1];
        let rfun = |x: [f64; 3]| x[0].sin() + x[1].cos() * x[2].sin();
        let serial_final = with_serial_ws(grid, |ws| {
            let v = VectorField::from_fn(&grid, ws.block(), vfun);
            let rho0 = ScalarField::from_fn(&grid, ws.block(), rfun);
            let sl = SemiLagrangian::new(ws, &v, 3);
            sl.solve_state(ws, &rho0).pop().unwrap().into_vec()
        });
        run_threaded(4, move |comm| {
            let decomp = Decomp::with_process_grid(grid, 2, 2);
            let fft = PencilFft::new(comm, decomp);
            let timers = Timers::new();
            let ws = Workspace::new(comm, &decomp, &fft, &timers);
            let v = VectorField::from_fn(&grid, ws.block(), vfun);
            let rho0 = ScalarField::from_fn(&grid, ws.block(), rfun);
            let sl = SemiLagrangian::new(&ws, &v, 3);
            let fin = sl.solve_state(&ws, &rho0).pop().unwrap();
            let block = ws.block();
            for (l, got) in fin.data().iter().enumerate() {
                let gi = block.global_of_local(l);
                let want = serial_final[grid.flatten(gi)];
                assert!((got - want).abs() < 1e-11, "rank {} point {gi:?}", comm.rank());
            }
        });
    }
}
