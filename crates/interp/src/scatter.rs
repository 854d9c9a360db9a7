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
//!
//! A rank's own points skip the exchange both ways: they stay out of the
//! alltoallv (its self slot is empty) and are evaluated straight into the
//! output at their local indices. On one rank both collectives carry
//! nothing, and a plan whose points are all its own keeps no routing table.
//!
//! The build makes one pass over the requested points: it finds each
//! point's cell once, puts an own point's stencil into the table from it,
//! and queues the others for their owners.

use diffreg_comm::{Comm, Timers};
use diffreg_grid::{exchange_ghost, Decomp, GhostField, ScalarField};

use crate::kernel::{base_and_fracs, Kernel, GHOST_WIDTH};
use crate::soa::SoaStencils;

/// A built communication plan for one set of departure points.
///
/// Resident size: 28 bytes per assigned point (the stencil table), plus 4
/// per requested point (`by_owner`) when any of them is owned by another
/// rank; a plan whose points are all its own (every plan on one rank) keeps
/// the table alone. The routed coordinates themselves are consumed by the
/// table build and not kept.
#[derive(Debug, Clone)]
pub struct ScatterPlan {
    /// Number of points this rank requested.
    len: usize,
    /// Local index of every requested point, grouped by owner rank, each
    /// group in the order of the batch sent to that owner. Empty when every
    /// point is this rank's own: the own batch is then the points in local
    /// order.
    by_owner: Vec<u32>,
    /// Start of each owner's group in `by_owner` (`size + 1` entries;
    /// empty with it).
    owner_off: Vec<usize>,
    /// Start of each requesting rank's batch within the stencil table
    /// (`size + 1` entries). The own batch comes first, `0..batch_off[0]`,
    /// and the self slot is empty; the other ranks' batches follow in rank
    /// order.
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
        let mut span = diffreg_telemetry::span("interp.plan");
        let (grid, p, me) = (decomp.grid, comm.size(), comm.rank());
        let block = decomp.block(me);
        assert!(
            p <= u32::MAX as usize && points.len() <= u32::MAX as usize,
            "rank and point indices are stored as u32"
        );
        // One pass finds each point's cell once: an own point's stencil goes
        // into a table from it, in local order, and every other point is
        // queued for its owner. Hoisting the per-point stencil math out of
        // the evaluation loops pays because the plan is reused across every
        // field and time step of a transport solve.
        let mut own = SoaStencils::with_capacity(&grid, &block, points.len());
        // The self slot stays empty: the own points are in `own` already.
        let mut outgoing: Vec<Vec<[f64; 3]>> = vec![Vec::new(); p];
        // Every point's owner, from the first foreign point on.
        let mut owner: Option<Vec<u32>> = None;
        timers.time("interp_exec", || {
            for (i, &x) in points.iter().enumerate() {
                let (b, t) = base_and_fracs(&grid, x);
                let o = if b[0].wrapping_sub(block.start[0]) < block.count[0]
                    && b[1].wrapping_sub(block.start[1]) < block.count[1]
                {
                    own.push(b, t);
                    me
                } else {
                    let o = decomp.owner_spatial([b[0], b[1], 0]);
                    outgoing[o].push(x);
                    o
                };
                match &mut owner {
                    Some(owner) => owner.push(o as u32),
                    None if o != me => {
                        let mut all = Vec::with_capacity(points.len());
                        all.resize(i, me as u32);
                        all.push(o as u32);
                        owner = Some(all);
                    }
                    None => {}
                }
            }
        });
        // Group the local indices by owner (a counting sort, stable, so each
        // group is in batch order).
        let (mut by_owner, mut owner_off) = (Vec::new(), Vec::new());
        if let Some(owner) = owner {
            owner_off = vec![0; p + 1];
            for &o in &owner {
                owner_off[o as usize + 1] += 1;
            }
            for r in 0..p {
                owner_off[r + 1] += owner_off[r];
            }
            let mut next = owner_off.clone();
            by_owner = vec![0; points.len()];
            for (i, &o) in owner.iter().enumerate() {
                by_owner[next[o as usize]] = i as u32;
                next[o as usize] += 1;
            }
        }
        let assigned = timers.time("interp_comm", || {
            diffreg_telemetry::with_span("interp.scatter", || comm.alltoallv(outgoing))
        });
        timers.count("interp_points_routed", points.len() as u64);
        span.count(points.len() as u64);
        // The received batches follow the own one in the table, in rank
        // order; their coordinates are consumed here, batch by batch.
        let mut batch_off = Vec::with_capacity(p + 1);
        let mut off = own.len();
        for pts in &assigned {
            batch_off.push(off);
            off += pts.len();
        }
        batch_off.push(off);
        let soa = timers.time("interp_exec", || {
            // `own` becomes the table only when it fits exactly (always on
            // one rank). Otherwise it is copied into an exact one: growing
            // or trimming it in place fragments the heap, which raised
            // synth64_p2's peak RSS by about 15 %.
            let mut soa = if off == points.len() {
                own
            } else {
                let mut soa = SoaStencils::with_capacity(&grid, &block, off);
                soa.append(own);
                soa
            };
            for pts in assigned {
                soa.extend(&grid, pts);
            }
            soa
        });
        Self { len: points.len(), by_owner, owner_off, batch_off, soa }
    }

    /// Number of points this rank requested.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if this rank requested no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of points this rank will interpolate for others (and itself).
    pub fn assigned_len(&self) -> usize {
        self.soa.len()
    }

    /// The local indices of this rank's own points, in own-batch order:
    /// `None` when they are all the points, in local order.
    fn own_indices(&self, me: usize) -> Option<&[u32]> {
        (!self.by_owner.is_empty()).then(|| &self.by_owner[self.owner_off[me]..self.owner_off[me + 1]])
    }

    /// Global fraction of requested points that had to be routed to another
    /// rank — the "leak" of the performance model's scatter term, and a
    /// direct measure of how far departure points travel (CFL-dependent).
    pub fn off_rank_fraction<C: Comm>(&self, comm: &C) -> f64 {
        let own = self.own_indices(comm.rank()).map_or(self.len, <[u32]>::len);
        let mut counts = [self.len - own, self.len];
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
    /// vector per field, each in the original point order. The rank's own
    /// points are written there directly; only the other ranks' batches
    /// travel.
    pub fn interpolate_many<C: Comm>(
        &self,
        comm: &C,
        ghosts: &[&GhostField],
        kernel: Kernel,
        timers: &Timers,
    ) -> Vec<Vec<f64>> {
        let mut span = diffreg_telemetry::span("interp.eval");
        let nf = ghosts.len();
        assert!(nf > 0, "need at least one field");
        let me = comm.rank();
        let mut out = vec![vec![0.0; self.len]; nf];
        // Own points straight into `out`; the others' batches interleaved
        // per point ([f0, f1, ..] per point), the self slot left empty.
        let values: Vec<Vec<f64>> = timers.time("interp_exec", || {
            self.soa.eval_into(ghosts, kernel, 0..self.batch_off[0], self.own_indices(me), &mut out);
            self.batch_off
                .windows(2)
                .map(|b| {
                    let mut vals = vec![0.0; (b[1] - b[0]) * nf];
                    self.soa.eval(ghosts, kernel, b[0]..b[1], &mut vals);
                    vals
                })
                .collect()
        });
        let evaluated = (self.assigned_len() * nf) as u64;
        timers.count("interp_points_evaluated", evaluated);
        span.count(evaluated);
        let returned = timers.time("interp_comm", || {
            diffreg_telemetry::with_span("interp.scatter", || comm.alltoallv(values))
        });
        // Unscatter the other owners' values into original order.
        if !self.by_owner.is_empty() {
            for (r, vals) in returned.iter().enumerate().filter(|&(r, _)| r != me) {
                let idx = &self.by_owner[self.owner_off[r]..self.owner_off[r + 1]];
                for (&i, v) in idx.iter().zip(vals.chunks_exact(nf)) {
                    for (o, &v) in out.iter_mut().zip(v) {
                        o[i as usize] = v;
                    }
                }
            }
        }
        out
    }

    /// Interpolates a single field at the planned points.
    #[expect(
        clippy::unwrap_used,
        reason = "interpolate_many returns exactly one Vec per ghost field passed in"
    )]
    pub fn interpolate<C: Comm>(
        &self,
        comm: &C,
        ghost: &GhostField,
        kernel: Kernel,
        timers: &Timers,
    ) -> Vec<f64> {
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
    use crate::kernel::base_and_frac;
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
        let field = ScalarField::from_fn(&grid, d.block(0), f);
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
                let field = ScalarField::from_fn(&grid, d.block(comm.rank()), probe);
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

    /// Algorithm 1 as written: every point, own or not, goes out through
    /// the alltoallv to its owner, which evaluates it in the interleaved
    /// wire layout and sends the values back to be unscattered.
    fn exchange_reference<C: Comm>(
        comm: &C,
        d: &Decomp,
        points: &[[f64; 3]],
        ghosts: &[&GhostField],
        kernel: Kernel,
    ) -> Vec<Vec<f64>> {
        let (grid, nf) = (d.grid, ghosts.len());
        let mut route = Vec::new();
        let mut outgoing = vec![Vec::new(); comm.size()];
        for &x in points {
            let owner = d.owner_spatial([base_and_frac(x[0], grid.n[0]).0, base_and_frac(x[1], grid.n[1]).0, 0]);
            route.push((owner, outgoing[owner].len()));
            outgoing[owner].push(x);
        }
        let assigned = comm.alltoallv(outgoing);
        let lens: Vec<usize> = assigned.iter().map(Vec::len).collect();
        let soa = SoaStencils::build(&grid, &d.block(comm.rank()), lens.iter().sum(), assigned.into_iter().flatten());
        let mut start = 0;
        let values = lens
            .iter()
            .map(|&len| {
                let mut vals = vec![0.0; len * nf];
                soa.eval(ghosts, kernel, start..start + len, &mut vals);
                start += len;
                vals
            })
            .collect();
        let returned = comm.alltoallv(values);
        (0..nf)
            .map(|f| route.iter().map(|&(o, slot)| returned[o][slot * nf + f]).collect())
            .collect()
    }

    #[test]
    fn own_points_skip_the_exchange_bit_for_bit() {
        // Rank 0 asks for its own grid points shifted within their cells
        // (a plan with no routing table); the others ask for points all
        // over the domain, most of them owned elsewhere.
        let grid = Grid::new([12, 8, 6]);
        let points = test_points(240);
        for (p1, p2) in [(1, 1), (2, 1), (2, 2)] {
            let points = points.clone();
            run_threaded(p1 * p2, move |comm| {
                let d = Decomp::with_process_grid(grid, p1, p2);
                let b = d.block(comm.rank());
                let probes = [probe, probe2, |x| probe(x) * probe2(x), |x| probe2(x) + x[1].cos()];
                let ghosts = probes.map(|f| ghosted(comm, &d, &ScalarField::from_fn(&grid, b, f)));
                let mine: Vec<[f64; 3]> = if comm.rank() == 0 {
                    (0..b.len())
                        .map(|l| {
                            let gi = b.global_of_local(l);
                            [grid.coord(0, gi[0]) + 0.3, grid.coord(1, gi[1]) + 0.2, grid.coord(2, gi[2]) - 0.4]
                        })
                        .collect()
                } else {
                    points.iter().skip(comm.rank()).step_by(comm.size()).copied().collect()
                };
                let timers = Timers::new();
                let plan = ScatterPlan::build(comm, &d, &mine, &timers);
                assert_eq!(plan.by_owner.is_empty(), comm.rank() == 0 || comm.size() == 1);
                if comm.rank() > 0 {
                    assert!(plan.own_indices(comm.rank()).is_some_and(|own| own.len() < plan.len()));
                }
                for kernel in [Kernel::Tricubic, Kernel::Trilinear] {
                    for k in 1..=4 {
                        let fields: Vec<&GhostField> = ghosts[..k].iter().collect();
                        let got = plan.interpolate_many(comm, &fields, kernel, &timers);
                        let want = exchange_reference(comm, &d, &mine, &fields, kernel);
                        let bits = |v: &[Vec<f64>]| {
                            v.iter().map(|f| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>()).collect::<Vec<_>>()
                        };
                        assert_eq!(bits(&got), bits(&want), "({p1},{p2}) rank {}: {kernel:?}, {k} fields", comm.rank());
                    }
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
            let b = d.block(comm.rank());
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
            let field = ScalarField::from_fn(&grid, d.block(comm.rank()), probe);
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
        let field = ScalarField::from_fn(&grid, d.block(0), probe);
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
            let b = d.block(comm.rank());
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
        let field = ScalarField::from_fn(&grid, d.block(0), probe);
        let ghost = ghosted(&comm, &d, &field);
        let timers = Timers::new();
        let points = test_points(31);
        let plan = ScatterPlan::build(&comm, &d, &points, &timers);
        let a = plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        let b = plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        assert_eq!(a, b);
    }
}
