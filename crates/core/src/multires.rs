//! Grid continuation's pieces: the coarse-to-fine grid schedule and the
//! spectral transfers between its grids.
//!
//! The paper names grid continuation as the standard technique to tame the
//! nonlinearity and the β-dependence of the preconditioner (§I Limitations:
//! "There are several techniques ... e.g., grid continuation and multilevel
//! preconditioning"; the paper itself focuses on the single-level solver).
//! [`register_solve`](crate::register_solve) runs a schedule's grid levels
//! in the same loop as its β levels; image restriction and velocity
//! prolongation are exact Fourier truncation/padding. A transfer needs the
//! full spectrum on one rank, so grid levels are a single-rank feature.

use diffreg_grid::{Decomp, Grid, ScalarField, VectorField};
use diffreg_spectral::{coarsen_extents, spectral_resample};

/// The smallest extent [`continuation_grids`] coarsens an axis to.
const MIN_EXTENT: usize = 8;

/// Span name for a grid transfer: restriction coarsens, prolongation
/// refines (equal-size transfers count as prolongation — they only occur
/// when re-expressing a field on the same grid).
fn transfer_span(from: &Grid, to: &Grid) -> &'static str {
    if to.total() < from.total() {
        "multires.restrict"
    } else {
        "multires.prolong"
    }
}

/// Resamples a serial scalar field between grids.
pub(crate) fn resample_scalar(f: &ScalarField, from: &Grid, to: &Grid) -> ScalarField {
    let _span = diffreg_telemetry::span(transfer_span(from, to));
    let data = spectral_resample(f.data(), from.n, to.n);
    let block = Decomp::new(*to, 1).block(0);
    ScalarField::from_vec(block, data)
}

/// Resamples a serial vector field between grids.
pub(crate) fn resample_vector(v: &VectorField, from: &Grid, to: &Grid) -> VectorField {
    let _span = diffreg_telemetry::span(transfer_span(from, to));
    let block = Decomp::new(*to, 1).block(0);
    let mut out = VectorField::zeros(block);
    for a in 0..3 {
        let data = spectral_resample(v.comps[a].data(), from.n, to.n);
        out.comps[a] = ScalarField::from_vec(block, data);
    }
    out
}

/// The grid hierarchy for `levels` levels of coarsening (coarsest first,
/// finest == `fine`). Extents never drop below `MIN_EXTENT` (8).
pub fn continuation_grids(fine: Grid, levels: usize) -> Vec<Grid> {
    let mut grids = vec![fine];
    let mut prev = fine.n;
    for _ in 0..levels {
        let next = coarsen_extents(prev, MIN_EXTENT);
        if next == prev {
            break;
        }
        grids.push(Grid::new(next));
        prev = next;
    }
    grids.reverse();
    grids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{register_solve, Level, RegistrationConfig};
    use diffreg_comm::{Fnv1a, SerialComm};
    use diffreg_optim::NewtonOptions;
    use diffreg_transport::{SemiLagrangian, SessionParts};

    /// β = 1e-3 on 8³, then on 16³.
    fn two_grids() -> Vec<Level> {
        let grids = continuation_grids(Grid::cubic(16), 1);
        grids.into_iter().map(|grid| Level { beta: 1e-3, grid }).collect()
    }

    #[test]
    fn hierarchy_construction() {
        let grids = continuation_grids(Grid::cubic(32), 2);
        assert_eq!(grids.len(), 3);
        assert_eq!(grids[0].n, [8, 8, 8]);
        assert_eq!(grids[1].n, [16, 16, 16]);
        assert_eq!(grids[2].n, [32, 32, 32]);
        // Clamped at min extent.
        let grids = continuation_grids(Grid::cubic(16), 5);
        assert_eq!(grids.first().unwrap().n, [8, 8, 8]);
        assert_eq!(grids.len(), 2);
    }

    /// The 8³ → 16³ schedule at one β reproduces, bit for bit, the velocity
    /// and final mismatch (FNV-1a over their bits) that the separate
    /// coarse-to-fine loop it replaced computed on this problem with one
    /// level of coarsening.
    #[test]
    fn grid_schedule_matches_the_multilevel_loop_bitwise() {
        let comm = SerialComm::new();
        let fine = Grid::cubic(16);
        let parts = SessionParts::new(&comm, fine);
        let ws = parts.workspace(&comm);
        let t = ScalarField::from_fn(&fine, ws.block(), |x| {
            (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
        });
        let v_star = VectorField::from_fn(&fine, ws.block(), |x| {
            [0.5 * x[0].cos() * x[1].sin(), 0.5 * x[1].cos() * x[0].sin(), 0.5 * x[0].cos() * x[2].sin()]
        });
        let sl = SemiLagrangian::new(&ws, &v_star, 4);
        let r = sl.solve_state(&ws, &t).pop().unwrap();

        let cfg = RegistrationConfig {
            beta: 1e-3,
            newton: NewtonOptions { max_iter: 3, ..Default::default() },
            ..Default::default()
        };
        let (multi, reports) = register_solve(&ws, &t, &r, cfg, &two_grids(), None, |_| {});
        assert_eq!(reports.len(), 2, "two levels expected");
        let mut digest = Fnv1a::new();
        for x in multi.velocity.comps.iter().flat_map(|c| c.data()) {
            digest.u64(x.to_bits());
        }
        digest.u64(multi.final_mismatch.to_bits());
        let final_mismatch = multi.final_mismatch;
        assert_eq!(digest.finish(), 0x6e14529b593a4970, "final mismatch {final_mismatch:e}");
        // The warm-started fine solve must reach at least comparable quality.
        let single = crate::register(&ws, &t, &r, cfg);
        assert!(
            multi.relative_mismatch() < single.relative_mismatch() * 1.3 + 0.02,
            "multilevel {} vs single {}",
            multi.relative_mismatch(),
            single.relative_mismatch()
        );
        assert!(multi.det_grad.diffeomorphic);
    }

    #[test]
    fn resampling_preserves_field_type() {
        let fine = Grid::cubic(16);
        let coarse = Grid::cubic(8);
        let block = Decomp::new(fine, 1).block(0);
        let f = ScalarField::from_fn(&fine, block, |x| x[0].sin() + 0.5);
        let c = resample_scalar(&f, &fine, &coarse);
        assert_eq!(c.local_len(), coarse.total());
        // Mean (zero mode) is preserved exactly.
        let comm = SerialComm::new();
        let mf = f.mean(&fine, &comm);
        let mc = c.mean(&coarse, &comm);
        assert!((mf - mc).abs() < 1e-12);
    }

    /// A schedule with two grids needs the whole spectrum on one rank.
    #[test]
    #[should_panic(expected = "grid continuation is a single-rank feature")]
    fn rejects_multirank_comm() {
        diffreg_comm::run_threaded(2, |comm| {
            let fine = Grid::cubic(16);
            let parts = SessionParts::new(comm, fine);
            let ws = parts.workspace(comm);
            let f = ScalarField::zeros(ws.block());
            let cfg = RegistrationConfig::default();
            let _ = register_solve(&ws, &f, &f, cfg, &two_grids(), None, |_| {});
        });
    }
}
