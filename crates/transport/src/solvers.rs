//! Semi-Lagrangian solvers for the four transport equations of the optimal
//! control system (paper eqs. 2b, 3, 5a, 5c) and for the deformation map
//! (paper eq. 1), all sharing the cached departure-point plans.
//!
//! With a stationary velocity the departure points are computed once per
//! velocity per direction ([`SemiLagrangian::new`]) and reused by every
//! solve and every time step — the paper's planner optimization.

use diffreg_comm::Comm;
use diffreg_grid::{ScalarField, VectorField};
use diffreg_interp::{ghosted, ScatterPlan};

use crate::trajectory::{advect_step, compute_trajectories, Trajectory};
use crate::workspace::Workspace;

/// Cached semi-Lagrangian state for one stationary velocity field.
#[derive(Debug)]
pub struct SemiLagrangian {
    nt: usize,
    dt: f64,
    fwd: Trajectory,
    /// The backward direction's plan. Its departure points are dropped once
    /// it is built: nothing reads them.
    bwd: ScatterPlan,
    divv: ScalarField,
    /// `div v` interpolated at the backward departure points (the adjoint
    /// equations' source term is `λ div v`).
    divv_at_bwd: Vec<f64>,
}

impl SemiLagrangian {
    /// Builds departure points for `v` (both directions, from one ghosted
    /// copy of `v` and one finiteness check), the divergence field, and its
    /// interpolant at the backward points. The forward departure points are
    /// kept for [`SemiLagrangian::forward_trajectory`]. Collective.
    pub fn new<C: Comm>(ws: &Workspace<C>, v: &VectorField, nt: usize) -> Self {
        Self::build(ws, v, nt, None, true)
    }

    /// The solver's set-up: [`SemiLagrangian::new`] without the forward
    /// departure points, which no solve reads (`forward_trajectory().points`
    /// is empty). Adopts `fwd`'s plan when given, so that only the backward
    /// direction is built. `fwd` must come from
    /// `compute_trajectory(ws, v, 1/nt, 1.0)` for this very `v` (its points
    /// may already be freed), which then makes every solve bit-identical to
    /// `new`'s. Collective.
    pub fn with_forward<C: Comm>(
        ws: &Workspace<C>,
        v: &VectorField,
        nt: usize,
        fwd: Option<Trajectory>,
    ) -> Self {
        Self::build(ws, v, nt, fwd, false)
    }

    fn build<C: Comm>(
        ws: &Workspace<C>,
        v: &VectorField,
        nt: usize,
        fwd: Option<Trajectory>,
        keep_points: bool,
    ) -> Self {
        let _span = diffreg_telemetry::span("transport.setup");
        assert!(nt > 0, "need at least one time step");
        let dt = 1.0 / nt as f64;
        let (mut fwd, Trajectory { plan: bwd, .. }) = match fwd {
            Some(fwd) => {
                let [bwd] = compute_trajectories(ws, v, [-dt]);
                (fwd, bwd)
            }
            None => {
                let [fwd, bwd] = compute_trajectories(ws, v, [dt, -dt]);
                (fwd, bwd)
            }
        };
        if !keep_points {
            fwd.points = Vec::new();
        }
        let divv = ws.fft.divergence(v, ws.timers);
        let gd = ghosted(ws.comm, ws.decomp, &divv);
        let divv_at_bwd = bwd.interpolate(ws.comm, &gd, ws.kernel, ws.timers);
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
        self.fwd.advect(ws, rho0, self.nt)
    }

    /// One step of the continuity-form equation family
    /// `∂τ ν + (−v)·∇ν = ν div v` (the adjoint and incremental adjoint in
    /// reversed time), via the RK2 scheme of paper eq. (7) with `f = ν w`.
    fn step_continuity<C: Comm>(&self, ws: &Workspace<C>, nu: &ScalarField) -> ScalarField {
        let mut out = advect_step(&self.bwd, ws, nu);
        let w = self.divv.data();
        let wx = &self.divv_at_bwd;
        let dt = self.dt;
        // Updated in place: no second field. Zipped-slice form: no index
        // bound checks in the loop body, so the RK2 update autovectorizes.
        for ((n, &wxl), &wl) in out.data_mut().iter_mut().zip(wx).zip(w) {
            let n0 = *n;
            let f0 = n0 * wxl;
            let nu_star = n0 + dt * f0;
            let f_star = nu_star * wl;
            *n = n0 + 0.5 * dt * (f0 + f_star);
        }
        out
    }

    /// Adjoint equation (3): `−∂t λ − div(vλ) = 0` with terminal condition
    /// `λ(1) = lambda1`, solved backward in time (τ = 1 − t). Returns the
    /// history indexed by *t*: `out[i] = λ(t_i)`, so `out[nt] = lambda1`.
    ///
    /// A reference sweep: the solver streams this equation through
    /// [`SemiLagrangian::accumulate_adjoint_integral`] and keeps no history;
    /// only tests, the kernel suite and the benchmark's replay call this.
    pub fn solve_adjoint<C: Comm>(&self, ws: &Workspace<C>, lambda1: &ScalarField) -> Vec<ScalarField> {
        let _span = diffreg_telemetry::span("transport.adjoint");
        let mut rev = vec![lambda1.clone()];
        for i in 0..self.nt {
            rev.push(self.step_continuity(ws, &rev[i]));
        }
        rev.reverse();
        rev
    }

    /// The adjoint equation (3) of [`SemiLagrangian::solve_adjoint`],
    /// folded into its trapezoidal time integral: adds `∫₀¹ λ(t) ∇ρ(t) dt`
    /// into `out` term by term as the backward sweep produces `λ(t_i)`,
    /// from `i = nt` down to `0`, so one `λ` is alive at a time instead of
    /// the `nt + 1`-field history (`lambda1` is freed after the first step).
    /// `grad_state[i]` must hold `∇ρ(t_i)`. Collective.
    pub fn accumulate_adjoint_integral<C: Comm>(
        &self,
        ws: &Workspace<C>,
        lambda1: ScalarField,
        grad_state: &[VectorField],
        out: &mut VectorField,
    ) {
        let _span = diffreg_telemetry::span("transport.adjoint");
        assert_eq!(grad_state.len(), self.nt + 1, "need ∇ρ at every time level");
        let (nt, dt) = (self.nt, self.dt);
        let mut add = |i: usize, lam: &ScalarField| {
            let w = if i == 0 || i == nt { 0.5 * dt } else { dt };
            let lam = lam.data();
            for (o, g) in out.comps.iter_mut().zip(&grad_state[i].comps) {
                for ((o, &g), &l) in o.data_mut().iter_mut().zip(g.data()).zip(lam) {
                    *o += w * l * g;
                }
            }
        };
        add(nt, &lambda1);
        let mut lam = self.step_continuity(ws, &lambda1);
        drop(lambda1);
        for i in (0..nt).rev() {
            add(i, &lam);
            if i > 0 {
                lam = self.step_continuity(ws, &lam);
            }
        }
    }

    /// Incremental state equation (5a): `∂t ρ̃ + v·∇ρ̃ = −ṽ·∇ρ(t)`, `ρ̃(0)=0`
    /// (paper Algorithm 2). `grad_state[i]` must hold `∇ρ(t_i)` for the state
    /// history the Hessian is linearized at. Returns `ρ̃(1)` only, and keeps
    /// one `ρ̃` at a time (the Gauss-Newton matvec needs no history).
    ///
    /// Step `i` is `ρ̃(x) ← I[ρ̃](X) + δt/2·(I[f_i](X) + f_{i+1}(x))` with
    /// the source `f_i = −ṽ·∇ρ(t_i)`. Interpolation is linear, so the two
    /// interpolants are one, `I[ρ̃ + δt/2·f_i](X)`: one ghost exchange, one
    /// field. The source is formed where it is added, so no source field is
    /// built: after each step one pass adds `δt/2·f_{i+1}` and, from that
    /// sum `ρ̃(t_{i+1})`, forms the next step's input `ρ̃ + δt/2·f_{i+1}`.
    pub fn solve_incremental_state<C: Comm>(
        &self,
        ws: &Workspace<C>,
        vtilde: &VectorField,
        grad_state: &[VectorField],
    ) -> ScalarField {
        assert_eq!(grad_state.len(), self.nt + 1, "need ∇ρ at every time level");
        let nt = self.nt;
        let half_dt = 0.5 * self.dt;
        let n = vtilde.local_len();
        let [v0, v1, v2] = vtilde.comps.each_ref().map(|c| &c.data()[..n]);
        // Adds δt/2·f_i into `rho`; with `next`, also stores that sum plus
        // δt/2·f_i there. Zipped slices keep the triple product branch- and
        // bounds-check-free.
        let add_source = |i: usize, rho: &mut ScalarField, next: Option<&mut ScalarField>| {
            let [g0, g1, g2] = grad_state[i].comps.each_ref().map(|c| &c.data()[..n]);
            let half_f = v0.iter().zip(v1).zip(v2).zip(g0).zip(g1).zip(g2).map(
                |(((((&a0, &a1), &a2), &b0), &b1), &b2)| half_dt * -(a0 * b0 + a1 * b1 + a2 * b2),
            );
            let rho = &mut rho.data_mut()[..n];
            match next {
                None => rho.iter_mut().zip(half_f).for_each(|(r, h)| *r += h),
                Some(next) => {
                    for ((r, x), h) in rho.iter_mut().zip(&mut next.data_mut()[..n]).zip(half_f) {
                        *r += h;
                        *x = *r + h;
                    }
                }
            }
        };
        let block = ws.block();
        // ρ̃(t_0) = 0, and in its buffer the first step's input.
        let mut next = ScalarField::zeros(block);
        add_source(0, &mut next, None);
        for i in 1..nt {
            let mut rho = advect_step(&self.fwd.plan, ws, &next);
            add_source(i, &mut rho, Some(&mut next));
        }
        let mut rho = advect_step(&self.fwd.plan, ws, &next);
        drop(next);
        add_source(nt, &mut rho, None);
        rho
    }

    /// Incremental adjoint, Gauss-Newton form (5c without the λ terms):
    /// `−∂t λ̃ − div(vλ̃) = 0` with `λ̃(1) = −ρ̃(1)`. Returns the history
    /// indexed by t (like [`SemiLagrangian::solve_adjoint`]).
    ///
    /// A reference sweep, like [`SemiLagrangian::solve_adjoint`]: the
    /// Gauss-Newton matvec streams it, and only the benchmark's replay calls
    /// this.
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
    use crate::SessionParts;
    use diffreg_comm::{run_threaded, Comm, SerialComm};
    use diffreg_grid::{Decomp, Grid};
    use diffreg_interp::Kernel;

    fn with_serial_ws<R>(grid: Grid, f: impl FnOnce(&Workspace<SerialComm>) -> R) -> R {
        let comm = SerialComm::new();
        f(&SessionParts::new(&comm, grid).workspace(&comm))
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
                let parts =
                    SessionParts::with_decomp(comm, Decomp::with_process_grid(grid, pgrid.0, pgrid.1));
                let ws = parts.workspace(comm);
                let (block, decomp, timers) = (ws.block(), ws.decomp, ws.timers);
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
                    sl.solve_state(&ws, &rho0).iter().map(|r| ws.fft.gradient(r, timers)).collect();
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
                    let (g_rho, g_f) = (ghosted(comm, decomp, &rho), ghosted(comm, decomp, &source(i)));
                    let at_x = sl.fwd.plan.interpolate_many(comm, &[&g_rho, &g_f], ws.kernel, timers);
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

    /// The streamed adjoint integral against `solve_adjoint`'s history,
    /// summed in the sweep's order (`t_nt` first) onto the same starting
    /// field: bit for bit. The streamed incremental state's `ρ̃(1)` against
    /// the three-pass sweep with a source field: bit for bit.
    #[test]
    fn streamed_sweeps_match_their_histories() {
        let grid = Grid::new([12, 10, 8]);
        with_serial_ws(grid, |ws| {
            let v = VectorField::from_fn(&grid, ws.block(), |x| {
                [x[1].sin() * 0.4, x[0].cos() * 0.3, 0.2 * x[2].sin()]
            });
            let vt = VectorField::from_fn(&grid, ws.block(), |x| {
                [0.3 * x[2].cos(), 0.2 * (x[0] + x[1]).sin(), -0.1 * x[1].cos()]
            });
            let rho0 = ScalarField::from_fn(&grid, ws.block(), |x| x[0].sin() * x[1].cos());
            let nt = 4;
            let sl = SemiLagrangian::new(ws, &v, nt);
            let grads: Vec<VectorField> =
                sl.solve_state(ws, &rho0).iter().map(|r| ws.fft.gradient(r, ws.timers)).collect();

            let same =
                |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            // The sweep with its source as a field of its own, built and
            // added in three passes per time level: the fused source pass
            // changes no bit, on either kernel.
            let source = |i: usize| {
                let (v, g) = (vt.comps.each_ref().map(|c| c.data()), grads[i].comps.each_ref().map(|c| c.data()));
                let f = (0..v[0].len()).map(|l| -(v[0][l] * g[0][l] + v[1][l] * g[1][l] + v[2][l] * g[2][l]));
                ScalarField::from_vec(ws.block(), f.collect())
            };
            for kernel in [Kernel::Tricubic, Kernel::Trilinear] {
                let ws = &Workspace { kernel, ..*ws };
                let mut want = ScalarField::zeros(ws.block());
                for i in 0..nt {
                    want.axpy(0.5 * sl.dt, &source(i));
                    want = advect_step(&sl.fwd.plan, ws, &want);
                    want.axpy(0.5 * sl.dt, &source(i + 1));
                }
                let got = sl.solve_incremental_state(ws, &vt, &grads);
                assert!(same(got.data(), want.data()), "{kernel:?}");
            }

            let lam1 = ScalarField::from_fn(&grid, ws.block(), |x| (2.0 * x[0]).cos() + x[2].sin());
            let mut streamed = vt.clone();
            sl.accumulate_adjoint_integral(ws, lam1.clone(), &grads, &mut streamed);
            let adj = sl.solve_adjoint(ws, &lam1);
            let mut want = vt.clone();
            let dt = 1.0 / nt as f64;
            for i in (0..=nt).rev() {
                let w = if i == 0 || i == nt { 0.5 * dt } else { dt };
                let lam = adj[i].data();
                for (out, g) in want.comps.iter_mut().zip(&grads[i].comps) {
                    for ((o, &g), &l) in out.data_mut().iter_mut().zip(g.data()).zip(lam) {
                        *o += w * l * g;
                    }
                }
            }
            for (a, b) in streamed.comps.iter().zip(&want.comps) {
                assert!(same(a.data(), b.data()));
            }
        });
    }

    /// The solver's set-up keeps plans only, and solves on it are the ones
    /// on `new`'s bit for bit, whether it builds the forward plan or adopts
    /// it.
    #[test]
    fn solver_setup_keeps_no_forward_points() {
        let grid = Grid::cubic(12);
        with_serial_ws(grid, |ws| {
            let v = VectorField::from_fn(&grid, ws.block(), |x| {
                [x[1].sin() * 0.4, x[0].cos() * 0.3, 0.2 * x[2].sin()]
            });
            let rho0 = ScalarField::from_fn(&grid, ws.block(), |x| x[0].sin() * x[1].cos());
            let full = SemiLagrangian::new(ws, &v, 4);
            assert_eq!(full.forward_trajectory().points.len(), ws.block().len());
            let want = full.solve_state(ws, &rho0).pop().unwrap();
            for fwd in [None, Some(crate::compute_trajectory(ws, &v, 0.25, 1.0))] {
                let lean = SemiLagrangian::with_forward(ws, &v, 4, fwd);
                assert!(lean.forward_trajectory().points.is_empty());
                let got = lean.solve_state(ws, &rho0).pop().unwrap();
                assert!(got.data().iter().zip(want.data()).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        });
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
        let parts = SessionParts::new(&comm, grid);
        let ws = parts.workspace(&comm);
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
            let parts = SessionParts::with_decomp(comm, Decomp::with_process_grid(grid, 2, 2));
            let ws = parts.workspace(comm);
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
            let parts = SessionParts::with_decomp(comm, Decomp::with_process_grid(grid, 2, 2));
            let ws = parts.workspace(comm);
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
