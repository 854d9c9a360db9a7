//! Departure-point computation for the semi-Lagrangian scheme (paper eq. 6)
//! and the resulting communication plan (the "interpolation planner").
//!
//! For each regular grid point `x` the RK2 departure point is
//!
//! ```text
//! X* = x − δt v(x)
//! X  = x − δt/2 (v(x) + v(X*))
//! ```
//!
//! Computing `v(X*)` already requires one distributed interpolation. The
//! final points `X` are routed once into a [`ScatterPlan`] that is then
//! reused for every interpolation of every transported field at every time
//! step while the velocity is unchanged (paper §III-C2: "the scatter phase
//! needs to be done once per field per Newton iteration").

use diffreg_comm::Comm;
use diffreg_grid::{GhostField, ScalarField, VectorField};
use diffreg_interp::{ghosted, ScatterPlan};

use crate::workspace::Workspace;

/// Departure points and their communication plan for one velocity direction.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// The scatter plan for the departure points.
    pub plan: ScatterPlan,
    /// Departure point of every local grid point, in local point order.
    pub points: Vec<[f64; 3]>,
}

impl Trajectory {
    /// One semi-Lagrangian step of pure advection: `field` interpolated at
    /// the departure points (one ghost exchange, one interpolation).
    pub(crate) fn advect_step<C: Comm>(&self, ws: &Workspace<C>, field: &ScalarField) -> ScalarField {
        let g = ghosted(ws.comm, ws.decomp, field);
        let vals = self.plan.interpolate(ws.comm, &g, ws.kernel, ws.timers);
        ScalarField::from_vec(field.block(), vals)
    }

    /// Advects `field` for `nt ≥ 1` steps along this trajectory and returns
    /// the last time level only (the state equation without its history —
    /// what a line-search objective needs). Collective.
    pub fn advect<C: Comm>(&self, ws: &Workspace<C>, field: &ScalarField, nt: usize) -> ScalarField {
        assert!(nt > 0, "need at least one time step");
        let mut rho = self.advect_step(ws, field);
        for _ in 1..nt {
            rho = self.advect_step(ws, &rho);
        }
        rho
    }
}

/// Collective finiteness check for a velocity field: `true` iff every
/// component value on every rank is finite.
///
/// The local scan is reduced as a 0/1 "any non-finite" flag (integer-valued,
/// so the `allreduce` sum is exact and bitwise reproducible regardless of
/// reduction order). It deliberately does *not* reduce a max over the values
/// themselves: in Rust `f64::max(NaN, x) == x`, which would silently hide
/// the NaN it is supposed to find. Must be called by all ranks of the
/// communicator.
pub fn velocity_is_finite<C: Comm>(ws: &Workspace<C>, v: &VectorField) -> bool {
    let bad_local = v.comps.iter().any(|c| c.data().iter().any(|x| !x.is_finite()));
    let mut flag = [if bad_local { 1.0 } else { 0.0 }];
    ws.comm.allreduce(&mut flag, diffreg_comm::ReduceOp::Sum);
    // diffreg-allow(float-eq): the flags are exact 0.0/1.0 values; small integer sums are exact in f64
    flag[0] == 0.0
}

/// Physical coordinates of every locally owned grid point, in local order.
pub fn local_grid_points<C: Comm>(ws: &Workspace<C>) -> Vec<[f64; 3]> {
    let grid = ws.grid();
    let block = ws.block();
    (0..block.len())
        .map(|l| {
            let gi = block.global_of_local(l);
            [grid.coord(0, gi[0]), grid.coord(1, gi[1]), grid.coord(2, gi[2])]
        })
        .collect()
}

/// Computes RK2 departure points for time step `dt` along `sign * v`
/// (`sign = 1.0` for the forward/state direction, `-1.0` for the
/// adjoint direction) and builds their scatter plan.
pub fn compute_trajectory<C: Comm>(
    ws: &Workspace<C>,
    v: &VectorField,
    dt: f64,
    sign: f64,
) -> Trajectory {
    let [traj] = compute_trajectories(ws, v, [sign * dt]);
    traj
}

/// One [`Trajectory`] per signed time step in `steps`, all for the same
/// stationary `v`: the finiteness guard, the ghost exchange of the three
/// velocity components and the local grid coordinates are shared by every
/// direction.
pub(crate) fn compute_trajectories<C: Comm, const N: usize>(
    ws: &Workspace<C>,
    v: &VectorField,
    steps: [f64; N],
) -> [Trajectory; N] {
    let xs = local_grid_points(ws);
    assert_eq!(v.local_len(), xs.len(), "velocity not on this rank's block");
    // Guard the semi-Lagrangian step against a poisoned velocity: a single
    // NaN/Inf component would silently corrupt every departure point and the
    // scatter plan built from them. Fail loudly and identically on all ranks
    // (the check is collective) instead — see README "Fault model & runbook".
    assert!(
        velocity_is_finite(ws, v),
        "non-finite velocity entering the semi-Lagrangian trajectory step \
         (rank {}); see the \"Fault model & runbook\" section of the README",
        ws.comm.rank(),
    );
    let gv = v.comps.each_ref().map(|c| ghosted(ws.comm, ws.decomp, c));
    steps.map(|s| departure(ws, &xs, v, &gv, s))
}

/// RK2 departure points (paper eq. 6) of the grid points `xs` for the signed
/// step `s = ±δt`, and their scatter plan; `gv` is `v` ghosted.
fn departure<C: Comm>(
    ws: &Workspace<C>,
    xs: &[[f64; 3]],
    v: &VectorField,
    gv: &[GhostField; 3],
    s: f64,
) -> Trajectory {
    let [v0, v1, v2] = v.comps.each_ref().map(|c| c.data());
    // Euler predictor X* = x − s·v(x).
    let star: Vec<[f64; 3]> = xs
        .iter()
        .enumerate()
        .map(|(l, x)| [x[0] - s * v0[l], x[1] - s * v1[l], x[2] - s * v2[l]])
        .collect();
    // v(X*) via a throwaway scatter plan, dropped with X* before the final
    // plan is built.
    let v_star = ScatterPlan::build(ws.comm, ws.decomp, &star, ws.timers).interpolate_many(
        ws.comm,
        &[&gv[0], &gv[1], &gv[2]],
        ws.kernel,
        ws.timers,
    );
    drop(star);
    // Midpoint corrector X = x − s/2·(v(x) + v(X*)).
    let half = 0.5 * s;
    let points: Vec<[f64; 3]> = xs
        .iter()
        .enumerate()
        .map(|(l, x)| {
            [
                x[0] - half * (v0[l] + v_star[0][l]),
                x[1] - half * (v1[l] + v_star[1][l]),
                x[2] - half * (v2[l] + v_star[2][l]),
            ]
        })
        .collect();
    drop(v_star);
    let plan = ScatterPlan::build(ws.comm, ws.decomp, &points, ws.timers);
    Trajectory { plan, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::{SerialComm, Timers};
    use diffreg_grid::{Decomp, Grid};
    use diffreg_pfft::PencilFft;

    #[test]
    fn constant_velocity_departure_is_exact_shift() {
        let grid = Grid::cubic(8);
        let comm = SerialComm::new();
        let decomp = Decomp::new(grid, 1);
        let fft = PencilFft::new(&comm, decomp);
        let timers = Timers::new();
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        let v = VectorField::from_fn(&grid, ws.block(), |_| [0.3, -0.2, 0.1]);
        let traj = compute_trajectory(&ws, &v, 0.25, 1.0);
        let xs = local_grid_points(&ws);
        for (x, d) in xs.iter().zip(&traj.points) {
            assert!((d[0] - (x[0] - 0.25 * 0.3)).abs() < 1e-12);
            assert!((d[1] - (x[1] + 0.25 * 0.2)).abs() < 1e-12);
            assert!((d[2] - (x[2] - 0.25 * 0.1)).abs() < 1e-12);
        }
        // Backward direction flips the sign.
        let back = compute_trajectory(&ws, &v, 0.25, -1.0);
        for (x, d) in xs.iter().zip(&back.points) {
            assert!((d[0] - (x[0] + 0.25 * 0.3)).abs() < 1e-12);
        }
    }

    #[test]
    fn non_finite_velocity_is_rejected_loudly() {
        let grid = Grid::cubic(6);
        let comm = SerialComm::new();
        let decomp = Decomp::new(grid, 1);
        let fft = PencilFft::new(&comm, decomp);
        let timers = Timers::new();
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        let mut v = VectorField::zeros(ws.block());
        assert!(velocity_is_finite(&ws, &v));
        v.comps[1].data_mut()[3] = f64::NAN;
        assert!(!velocity_is_finite(&ws, &v));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compute_trajectory(&ws, &v, 0.5, 1.0)
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("non-finite velocity"), "{msg}");
        assert!(msg.contains("Fault model"), "{msg}");
        // Inf is caught just as well as NaN (f64::max would have hidden NaN;
        // the 0/1-flag reduction catches both).
        v.comps[1].data_mut()[3] = f64::INFINITY;
        assert!(!velocity_is_finite(&ws, &v));
    }

    #[test]
    fn zero_velocity_departure_is_identity() {
        let grid = Grid::cubic(6);
        let comm = SerialComm::new();
        let decomp = Decomp::new(grid, 1);
        let fft = PencilFft::new(&comm, decomp);
        let timers = Timers::new();
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
        let v = VectorField::zeros(ws.block());
        let traj = compute_trajectory(&ws, &v, 0.5, 1.0);
        let xs = local_grid_points(&ws);
        for (x, d) in xs.iter().zip(&traj.points) {
            assert_eq!(x, d);
        }
    }
}
