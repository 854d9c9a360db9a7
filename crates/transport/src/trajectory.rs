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
use diffreg_grid::VectorField;
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
    compute_trajectory_pair(ws, v, v, dt, sign)
}

/// RK2 departure points for a *non-stationary* velocity: `v_arrival` is the
/// velocity at the arrival time level (used for the Euler predictor and the
/// arrival half of the midpoint rule), `v_departure` the velocity at the
/// departure time level (interpolated at the predictor point). With
/// `v_arrival == v_departure` this reduces to the stationary scheme of
/// paper eq. (6).
fn compute_trajectory_pair<C: Comm>(
    ws: &Workspace<C>,
    v_arrival: &VectorField,
    v_departure: &VectorField,
    dt: f64,
    sign: f64,
) -> Trajectory {
    let xs = local_grid_points(ws);
    let n = xs.len();
    assert_eq!(v_arrival.local_len(), n, "velocity not on this rank's block");
    assert_eq!(v_departure.local_len(), n, "velocity not on this rank's block");
    // Guard the semi-Lagrangian step against a poisoned velocity: a single
    // NaN/Inf component would silently corrupt every departure point and the
    // scatter plan built from them. Fail loudly and identically on all ranks
    // (the check is collective) instead — see README "Fault model & runbook".
    assert!(
        velocity_is_finite(ws, v_arrival) && velocity_is_finite(ws, v_departure),
        "non-finite velocity entering the semi-Lagrangian trajectory step \
         (rank {}); see the \"Fault model & runbook\" section of the README",
        ws.comm.rank(),
    );

    // Euler predictor X* = x − s·δt·v_arrival(x).
    let s = sign * dt;
    let mut star = Vec::with_capacity(n);
    for (l, &x) in xs.iter().enumerate() {
        star.push([
            x[0] - s * v_arrival.comps[0].data()[l],
            x[1] - s * v_arrival.comps[1].data()[l],
            x[2] - s * v_arrival.comps[2].data()[l],
        ]);
    }

    // v_departure(X*) via a throwaway scatter plan; the plan, the ghosted
    // velocity and X* are dropped before the final plan is built.
    let v_star = {
        let plan_star = ScatterPlan::build(ws.comm, ws.decomp, &star, ws.timers);
        drop(star);
        let g0 = ghosted(ws.comm, ws.decomp, &v_departure.comps[0]);
        let g1 = ghosted(ws.comm, ws.decomp, &v_departure.comps[1]);
        let g2 = ghosted(ws.comm, ws.decomp, &v_departure.comps[2]);
        plan_star.interpolate_many(ws.comm, &[&g0, &g1, &g2], ws.kernel, ws.timers)
    };

    // Midpoint corrector X = x − s·δt/2·(v_arrival(x) + v_departure(X*)).
    let half = 0.5 * s;
    let mut pts = Vec::with_capacity(n);
    for (l, &x) in xs.iter().enumerate() {
        pts.push([
            x[0] - half * (v_arrival.comps[0].data()[l] + v_star[0][l]),
            x[1] - half * (v_arrival.comps[1].data()[l] + v_star[1][l]),
            x[2] - half * (v_arrival.comps[2].data()[l] + v_star[2][l]),
        ]);
    }
    let plan = ScatterPlan::build(ws.comm, ws.decomp, &pts, ws.timers);
    Trajectory { plan, points: pts }
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
