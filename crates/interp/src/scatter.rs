//! The distributed interpolation plan (paper Algorithm 1 and the
//! "interpolation planner" of §III-C2).
//!
//! Departure points computed by the semi-Lagrangian scheme can land in any
//! rank's subdomain. Building a [`ScatterPlan`] performs the *scatter phase*
//! once per velocity field: each point is routed to the rank that owns its
//! base grid cell (one alltoallv of coordinates). Evaluating the plan then
//! costs one alltoallv of values per field per time step: owners interpolate
//! the points they received against their ghosted local data and send the
//! results back, which the requester scatters into original point order.

use diffreg_comm::{Comm, Timers};
use diffreg_grid::{exchange_ghost, Decomp, GhostField, Layout, ScalarField};

use crate::kernel::{base_and_frac, Kernel, GHOST_WIDTH};
use crate::soa::SoaStencils;

/// A built communication plan for one set of departure points.
///
/// Resident size: 8 bytes per requested point (`owner_of`, `slot_of`) plus
/// 100 per assigned point (the stencil table); the routed coordinates
/// themselves are consumed by the table build and not kept.
#[derive(Debug, Clone)]
pub struct ScatterPlan {
    /// For each local point: which rank owns it.
    owner_of: Vec<u32>,
    /// For each local point: its slot within the batch sent to its owner.
    slot_of: Vec<u32>,
    /// Start of each requesting rank's batch within the stencil table
    /// (`size + 1` entries).
    batch_off: Vec<usize>,
    /// Precomputed stencils of the points this rank must interpolate,
    /// grouped by requesting rank.
    soa: SoaStencils,
}

impl ScatterPlan {
    /// Builds the plan (collective): routes `points` (physical coordinates,
    /// any values — they are wrapped periodically) to their owner ranks.
    pub fn build<C: Comm>(
        comm: &C,
        decomp: &Decomp,
        points: &[[f64; 3]],
        timers: &Timers,
    ) -> Self {
        let _span = diffreg_telemetry::span("interp.plan");
        let grid = decomp.grid;
        let p = comm.size();
        assert!(
            p <= u32::MAX as usize && points.len() <= u32::MAX as usize,
            "rank and slot indices are stored as u32"
        );
        let mut owner_of = Vec::with_capacity(points.len());
        let mut slot_of = Vec::with_capacity(points.len());
        let mut outgoing: Vec<Vec<[f64; 3]>> = vec![Vec::new(); p];
        for &x in points {
            let (b0, _) = base_and_frac(x[0], grid.n[0]);
            let (b1, _) = base_and_frac(x[1], grid.n[1]);
            let owner = decomp.owner_spatial([b0, b1, 0]);
            owner_of.push(owner as u32);
            slot_of.push(outgoing[owner].len() as u32);
            outgoing[owner].push(x);
        }
        let assigned = timers.time("interp_comm", || {
            diffreg_telemetry::with_span("interp.scatter", || comm.alltoallv(outgoing))
        });
        timers.count("interp_points_routed", points.len() as u64);
        diffreg_telemetry::observe_global(
            "diffreg_interp_scatter_points",
            points.len() as f64,
        );
        diffreg_telemetry::observe_global(
            "diffreg_interp_scatter_bytes",
            std::mem::size_of_val(points) as f64,
        );
        let mut batch_off = Vec::with_capacity(assigned.len() + 1);
        let mut off = 0;
        for pts in &assigned {
            batch_off.push(off);
            off += pts.len();
        }
        batch_off.push(off);
        // Hoist the per-point stencil math out of the evaluation loops: the
        // plan is reused across every field and time step of a transport
        // solve, so the precompute amortizes to nothing. The received
        // coordinates are consumed here.
        let soa = timers.time("interp_exec", || {
            SoaStencils::build(&grid, &decomp.block(comm.rank(), Layout::Spatial), assigned)
        });
        Self { owner_of, slot_of, batch_off, soa }
    }

    /// Number of points this rank requested.
    pub fn len(&self) -> usize {
        self.owner_of.len()
    }

    /// True if this rank requested no points.
    pub fn is_empty(&self) -> bool {
        self.owner_of.is_empty()
    }

    /// Number of points this rank will interpolate for others (and itself).
    pub fn assigned_len(&self) -> usize {
        self.soa.len()
    }

    /// Global fraction of requested points that had to be routed to another
    /// rank — the "leak" of the performance model's scatter term, and a
    /// direct measure of how far departure points travel (CFL-dependent).
    pub fn off_rank_fraction<C: Comm>(&self, comm: &C) -> f64 {
        let me = comm.rank() as u32;
        let mut counts = [self.owner_of.iter().filter(|&&o| o != me).count(), self.len()];
        comm.allreduce_usize(&mut counts, diffreg_comm::ReduceOp::Sum);
        if counts[1] == 0 {
            0.0
        } else {
            counts[0] as f64 / counts[1] as f64
        }
    }

    /// Interpolates several fields at the planned points with one walk over
    /// the stencil table and one value exchange (values of all fields are
    /// batched per point). Each field's values are bit-identical to a
    /// single-field call.
    ///
    /// `ghosts` are the ghosted local fields; the result contains one value
    /// vector per field, each in the original point order.
    pub fn interpolate_many<C: Comm>(
        &self,
        comm: &C,
        ghosts: &[&GhostField],
        kernel: Kernel,
        timers: &Timers,
    ) -> Vec<Vec<f64>> {
        let _span = diffreg_telemetry::span("interp.eval");
        let nf = ghosts.len();
        assert!(nf > 0, "need at least one field");
        // Owners evaluate; values interleaved per point: [f0, f1, ..] per point.
        let values: Vec<Vec<f64>> = timers.time("interp_exec", || {
            self.batch_off
                .windows(2)
                .map(|b| {
                    // diffreg-allow(alloc-in-hot-path): per-batch send buffers are moved into alltoallv — ownership transfer precludes arena pooling
                    let mut vals = vec![0.0; (b[1] - b[0]) * nf];
                    self.soa.eval(ghosts, kernel, b[0]..b[1], &mut vals);
                    vals
                })
                // diffreg-allow(alloc-in-hot-path): collects the per-batch send buffers moved into alltoallv — ownership transfer precludes arena pooling
                .collect()
        });
        timers.count("interp_points_evaluated", (self.assigned_len() * nf) as u64);
        diffreg_telemetry::observe_global(
            "diffreg_interp_scatter_values",
            (self.assigned_len() * nf) as f64,
        );
        let returned = timers.time("interp_comm", || {
            diffreg_telemetry::with_span("interp.scatter", || comm.alltoallv(values))
        });
        // Unscatter into original order.
        // diffreg-allow(alloc-in-hot-path): result buffers are returned to the caller — ownership transfer precludes arena pooling
        let mut out = vec![vec![0.0; self.len()]; nf];
        for (i, (&owner, &slot)) in self.owner_of.iter().zip(&self.slot_of).enumerate() {
            let vals = &returned[owner as usize][slot as usize * nf..][..nf];
            for (o, &v) in out.iter_mut().zip(vals) {
                o[i] = v;
            }
        }
        out
    }

    /// Interpolates a single field at the planned points.
    pub fn interpolate<C: Comm>(
        &self,
        comm: &C,
        ghost: &GhostField,
        kernel: Kernel,
        timers: &Timers,
    ) -> Vec<f64> {
        // diffreg-allow(no-unwrap-in-lib): interpolate_many returns exactly one Vec per ghost field passed in
        self.interpolate_many(comm, &[ghost], kernel, timers).pop().unwrap()
    }
}

/// Convenience: ghost-exchanges `field` with the kernel's required width.
pub fn ghosted<C: Comm>(comm: &C, decomp: &Decomp, field: &ScalarField) -> GhostField {
    exchange_ghost(comm, decomp, field, GHOST_WIDTH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::{run_threaded, SerialComm};
    use diffreg_grid::Grid;
    use std::f64::consts::TAU;

    fn probe(x: [f64; 3]) -> f64 {
        x[0].sin() * (2.0 * x[1]).cos() + 0.3 * x[2].sin()
    }

    fn probe2(x: [f64; 3]) -> f64 {
        (x[0] + x[2]).cos() - 0.5 * x[1].sin()
    }

    fn test_points(count: usize) -> Vec<[f64; 3]> {
        (0..count)
            .map(|s| {
                [
                    (0.61 * s as f64 + 0.3).rem_euclid(TAU),
                    (1.17 * s as f64 - 0.8).rem_euclid(TAU),
                    (0.29 * s as f64 + 2.0).rem_euclid(TAU),
                ]
            })
            .collect()
    }

    fn serial_reference(grid: Grid, points: &[[f64; 3]], f: impl Fn([f64; 3]) -> f64) -> Vec<f64> {
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let field = ScalarField::from_fn(&grid, d.block(0, Layout::Spatial), f);
        let ghost = ghosted(&comm, &d, &field);
        let timers = Timers::new();
        let plan = ScatterPlan::build(&comm, &d, points, &timers);
        plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers)
    }

    #[test]
    fn distributed_scatter_matches_serial() {
        let grid = Grid::new([12, 8, 6]);
        let points = test_points(200);
        let reference = serial_reference(grid, &points, probe);
        for (p1, p2) in [(2, 2), (4, 1), (1, 2), (3, 2)] {
            let pts = points.clone();
            let refr = reference.clone();
            run_threaded(p1 * p2, move |comm| {
                let d = Decomp::with_process_grid(grid, p1, p2);
                let field =
                    ScalarField::from_fn(&grid, d.block(comm.rank(), Layout::Spatial), probe);
                let ghost = ghosted(comm, &d, &field);
                let timers = Timers::new();
                // Each rank requests a distinct chunk of the points.
                let chunk = pts.len() / comm.size();
                let mine = &pts[comm.rank() * chunk..(comm.rank() + 1) * chunk];
                let plan = ScatterPlan::build(comm, &d, mine, &timers);
                let vals = plan.interpolate(comm, &ghost, Kernel::Tricubic, &timers);
                for (i, v) in vals.iter().enumerate() {
                    let want = refr[comm.rank() * chunk + i];
                    assert!((v - want).abs() < 1e-12, "p=({p1},{p2}) point {i}: {v} vs {want}");
                }
            });
        }
    }

    #[test]
    fn batched_multi_field_matches_single() {
        // One fused pass over k fields (1, 2, 3 in one walk; 4 = 3 + 1) is
        // bitwise k single-field calls.
        let grid = Grid::new([8, 8, 8]);
        let points = test_points(77);
        run_threaded(4, move |comm| {
            let d = Decomp::with_process_grid(grid, 2, 2);
            let b = d.block(comm.rank(), Layout::Spatial);
            let probes = [probe, probe2, |x| probe(x) * probe2(x), |x| probe2(x) + x[1].cos()];
            let ghosts = probes.map(|f| ghosted(comm, &d, &ScalarField::from_fn(&grid, b, f)));
            let timers = Timers::new();
            let mine: Vec<[f64; 3]> = points
                .iter()
                .skip(comm.rank())
                .step_by(comm.size())
                .copied()
                .collect();
            let plan = ScatterPlan::build(comm, &d, &mine, &timers);
            for kernel in [Kernel::Tricubic, Kernel::Trilinear] {
                let single = ghosts.each_ref().map(|g| plan.interpolate(comm, g, kernel, &timers));
                for k in 1..=4 {
                    let fields: Vec<&GhostField> = ghosts[..k].iter().collect();
                    let many = plan.interpolate_many(comm, &fields, kernel, &timers);
                    assert_eq!(many, single[..k], "{kernel:?}, {k} fields");
                }
            }
        });
    }

    #[test]
    fn points_far_from_home_are_routed() {
        // Departure points deliberately on the other side of the domain —
        // exercising CFL > 1 transport where ghost layers alone cannot help.
        let grid = Grid::cubic(8);
        run_threaded(4, move |comm| {
            let d = Decomp::with_process_grid(grid, 2, 2);
            let field = ScalarField::from_fn(&grid, d.block(comm.rank(), Layout::Spatial), probe);
            let ghost = ghosted(comm, &d, &field);
            let timers = Timers::new();
            // All ranks request the same far-away points.
            let far = vec![[0.1, 0.1, 0.1], [3.0, 3.0, 3.0], [6.0, 0.5, 5.0]];
            let plan = ScatterPlan::build(comm, &d, &far, &timers);
            let vals = plan.interpolate(comm, &ghost, Kernel::Tricubic, &timers);
            for (x, v) in far.iter().zip(&vals) {
                assert!((v - probe(*x)).abs() < 0.05, "{v} vs {}", probe(*x));
            }
        });
    }

    #[test]
    fn empty_point_set() {
        let grid = Grid::cubic(4);
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let field = ScalarField::from_fn(&grid, d.block(0, Layout::Spatial), probe);
        let ghost = ghosted(&comm, &d, &field);
        let timers = Timers::new();
        let plan = ScatterPlan::build(&comm, &d, &[], &timers);
        assert!(plan.is_empty());
        let vals = plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        assert!(vals.is_empty());
    }

    #[test]
    fn soa_and_scalar_modes_are_bit_identical() {
        // The plan's evaluation loops against the pointwise scalar kernel:
        // each rank evaluates `Kernel::eval` on its own ghost fields for the
        // points whose base cell it owns and contributes 0.0 for the rest,
        // so the sum over ranks is the owner's value exactly.
        let grid = Grid::new([12, 8, 6]);
        let points = test_points(150);
        run_threaded(4, move |comm| {
            let d = Decomp::with_process_grid(grid, 2, 2);
            let b = d.block(comm.rank(), Layout::Spatial);
            let f1 = ScalarField::from_fn(&grid, b, probe);
            let f2 = ScalarField::from_fn(&grid, b, probe2);
            let g1 = ghosted(comm, &d, &f1);
            let g2 = ghosted(comm, &d, &f2);
            let timers = Timers::new();
            let mine: Vec<usize> = (comm.rank()..points.len()).step_by(comm.size()).collect();
            let pts: Vec<[f64; 3]> = mine.iter().map(|&i| points[i]).collect();
            let plan = ScatterPlan::build(comm, &d, &pts, &timers);
            for kernel in [Kernel::Tricubic, Kernel::Trilinear] {
                let got = plan.interpolate_many(comm, &[&g1, &g2], kernel, &timers);
                let mut reference: Vec<f64> = points
                    .iter()
                    .flat_map(|&x| {
                        let (b0, _) = base_and_frac(x[0], grid.n[0]);
                        let (b1, _) = base_and_frac(x[1], grid.n[1]);
                        let here = d.owner_spatial([b0, b1, 0]) == comm.rank();
                        [&g1, &g2].map(|g| if here { kernel.eval(g, &grid, x) } else { 0.0 })
                    })
                    .collect();
                comm.allreduce(&mut reference, diffreg_comm::ReduceOp::Sum);
                for (k, &i) in mine.iter().enumerate() {
                    assert_eq!(
                        [got[0][k], got[1][k]],
                        [reference[2 * i], reference[2 * i + 1]],
                        "plan diverged from Kernel::eval for {kernel:?} at point {i}"
                    );
                }
            }
        });
    }

    #[test]
    fn plan_reuse_is_consistent() {
        // The paper reuses one plan across all time steps of a transport
        // solve; interpolating twice must give identical answers.
        let grid = Grid::cubic(8);
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let field = ScalarField::from_fn(&grid, d.block(0, Layout::Spatial), probe);
        let ghost = ghosted(&comm, &d, &field);
        let timers = Timers::new();
        let points = test_points(31);
        let plan = ScatterPlan::build(&comm, &d, &points, &timers);
        let a = plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        let b = plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        assert_eq!(a, b);
    }
}
