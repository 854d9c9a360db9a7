//! Grid continuation (coarse-to-fine registration).
//!
//! The paper names grid continuation as the standard technique to tame the
//! nonlinearity and the β-dependence of the preconditioner (§I Limitations:
//! "There are several techniques ... e.g., grid continuation and multilevel
//! preconditioning"; the paper itself focuses on the single-level solver).
//! This module implements the continuation variant: solve on a coarse grid,
//! prolong the velocity spectrally, and refine — image transfers and
//! velocity prolongation are exact Fourier truncation/padding.
//!
//! Transfers require the full spectrum on one rank, so this driver is a
//! single-rank (node-local) feature; the per-level solves use the same
//! distributed-capable code paths with a one-rank communicator.

use diffreg_comm::{Comm, Timers};
use diffreg_grid::{Decomp, Grid, Layout, ScalarField, VectorField};
use diffreg_optim::NewtonReport;
use diffreg_pfft::PencilFft;
use diffreg_spectral::{coarsen_extents, spectral_resample};
use diffreg_transport::Workspace;

use crate::config::RegistrationConfig;
use crate::checkpoint::CheckpointStore;
use crate::driver::{register_solve, RegistrationOutcome};

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
fn resample_scalar(f: &ScalarField, from: &Grid, to: &Grid) -> ScalarField {
    let _span = diffreg_telemetry::span(transfer_span(from, to));
    let data = spectral_resample(f.data(), from.n, to.n);
    let block = Decomp::new(*to, 1).block(0, Layout::Spatial);
    ScalarField::from_vec(block, data)
}

/// Resamples a serial vector field between grids.
fn resample_vector(v: &VectorField, from: &Grid, to: &Grid) -> VectorField {
    let _span = diffreg_telemetry::span(transfer_span(from, to));
    let block = Decomp::new(*to, 1).block(0, Layout::Spatial);
    let mut out = VectorField::zeros(block);
    for a in 0..3 {
        let data = spectral_resample(v.comps[a].data(), from.n, to.n);
        out.comps[a] = ScalarField::from_vec(block, data);
    }
    out
}

/// The grid hierarchy for `levels` levels of coarsening (coarsest first,
/// finest == `fine`). Extents never drop below `min_extent`.
pub fn continuation_grids(fine: Grid, levels: usize, min_extent: usize) -> Vec<Grid> {
    let mut grids = vec![fine];
    let mut prev = fine.n;
    for _ in 0..levels {
        let next = coarsen_extents(prev, min_extent);
        if next == prev {
            break;
        }
        grids.push(Grid::new(next));
        prev = next;
    }
    grids.reverse();
    grids
}

/// Coarse-to-fine registration: solves on each level of the hierarchy, warm
/// starting from the spectrally prolonged velocity of the previous level.
/// Returns the finest-level outcome plus the per-level Newton reports
/// (coarsest first).
///
/// Panics if `comm` has more than one rank (see module docs).
pub fn register_multilevel<C: Comm>(
    comm: &C,
    fine_grid: Grid,
    rho_t: &ScalarField,
    rho_r: &ScalarField,
    cfg: RegistrationConfig,
    levels: usize,
) -> (RegistrationOutcome, Vec<NewtonReport>) {
    assert_eq!(comm.size(), 1, "grid continuation is a single-rank feature in this release");
    assert_eq!(rho_t.local_len(), fine_grid.total(), "template not on the fine grid");
    let grids = continuation_grids(fine_grid, levels, 8);

    let mut reports = Vec::with_capacity(grids.len());
    let mut velocity: Option<(Grid, VectorField)> = None;
    let mut outcome = None;
    for grid in &grids {
        let t_level = resample_scalar(rho_t, &fine_grid, grid);
        let r_level = resample_scalar(rho_r, &fine_grid, grid);
        let decomp = Decomp::new(*grid, 1);
        let fft = PencilFft::new(comm, decomp);
        let timers = Timers::new();
        let ws = Workspace::new(comm, &decomp, &fft, &timers);
        let v0 = velocity.as_ref().map(|(from, v)| resample_vector(v, from, grid));
        let (out, _) = register_solve(
            &ws,
            &t_level,
            &r_level,
            cfg,
            &[cfg.beta],
            v0,
            &CheckpointStore::Disabled,
            |_| {},
        );
        reports.push(out.report.clone());
        velocity = Some((*grid, out.velocity.clone()));
        outcome = Some(out);
    }
    // diffreg-allow(no-unwrap-in-lib): continuation_grids always returns at least the fine grid, so the loop always sets outcome
    (outcome.unwrap(), reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::SerialComm;
    use diffreg_optim::NewtonOptions;
    use diffreg_transport::SemiLagrangian;

    #[test]
    fn hierarchy_construction() {
        let grids = continuation_grids(Grid::cubic(32), 2, 8);
        assert_eq!(grids.len(), 3);
        assert_eq!(grids[0].n, [8, 8, 8]);
        assert_eq!(grids[1].n, [16, 16, 16]);
        assert_eq!(grids[2].n, [32, 32, 32]);
        // Clamped at min extent.
        let grids = continuation_grids(Grid::cubic(16), 5, 8);
        assert_eq!(grids.first().unwrap().n, [8, 8, 8]);
        assert_eq!(grids.len(), 2);
    }

    #[test]
    fn multilevel_matches_or_beats_single_level_quality() {
        let comm = SerialComm::new();
        let fine = Grid::cubic(16);
        let decomp = Decomp::new(fine, 1);
        let fft = PencilFft::new(&comm, decomp);
        let timers = Timers::new();
        let ws = Workspace::new(&comm, &decomp, &fft, &timers);
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
        let (multi, reports) = register_multilevel(&comm, fine, &t, &r, cfg, 1);
        assert_eq!(reports.len(), 2, "two levels expected");
        let single = crate::register(&ws, &t, &r, cfg);
        // The warm-started fine solve must reach at least comparable quality.
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
        let block = Decomp::new(fine, 1).block(0, Layout::Spatial);
        let f = ScalarField::from_fn(&fine, block, |x| x[0].sin() + 0.5);
        let c = resample_scalar(&f, &fine, &coarse);
        assert_eq!(c.local_len(), coarse.total());
        // Mean (zero mode) is preserved exactly.
        let comm = SerialComm::new();
        let mf = f.mean(&fine, &comm);
        let mc = c.mean(&coarse, &comm);
        assert!((mf - mc).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn rejects_multirank_comm() {
        // A SerialComm is fine; fake a failure by calling with a distributed
        // communicator inside run_threaded.
        diffreg_comm::run_threaded(2, |comm| {
            let grid = Grid::cubic(8);
            let block = Decomp::new(grid, 1).block(0, Layout::Spatial);
            let f = ScalarField::zeros(block);
            let _ = register_multilevel(
                comm,
                grid,
                &f,
                &f.clone(),
                RegistrationConfig::default(),
                1,
            );
        });
    }
}
