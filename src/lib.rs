//! # diffreg
//!
//! Distributed-memory large deformation diffeomorphic 3D image registration
//! — a from-scratch Rust reproduction of Mang, Gholami & Biros (SC16), the
//! precursor of CLAIRE.
//!
//! This umbrella crate re-exports the whole stack and adds the
//! [`session`] convenience layer used by the examples:
//!
//! * [`fft`] — serial FFT kernels (mixed-radix + Bluestein);
//! * [`comm`] — the simulated MPI runtime (rank-per-thread SPMD);
//! * [`grid`] — pencil decomposition, fields, ghost exchange;
//! * [`spectral`] — operator symbols and the serial spectral toolbox;
//! * [`pfft`] — the distributed 3D FFT and spectral operators;
//! * [`interp`] — tricubic interpolation and the scatter plan;
//! * [`transport`] — semi-Lagrangian transport solvers;
//! * [`optim`] — PCG and the inexact Gauss-Newton-Krylov driver;
//! * [`core`] — the registration problem, gradient/Hessian, and the three
//!   solve entry points `register`, `register_with_continuation`,
//!   `register_solve` (one implementation);
//! * [`imgsim`] — synthetic problems and the brain-phantom substitute;
//! * [`perfmodel`] — the paper's performance model for scaling projection.
//!
//! ## Quickstart
//!
//! ```
//! use diffreg::session::SessionParts;
//! use diffreg::comm::SerialComm;
//! use diffreg::grid::{Grid, ScalarField};
//! use diffreg::core::{register, RegistrationConfig};
//!
//! let comm = SerialComm::new();
//! let parts = SessionParts::new(&comm, Grid::cubic(12));
//! let ws = parts.workspace(&comm);
//! let template = ScalarField::from_fn(&parts.grid(), ws.block(), |x| x[0].sin());
//! let reference = ScalarField::from_fn(&parts.grid(), ws.block(), |x| (x[0] - 0.2).sin());
//! let out = register(&ws, &template, &reference, RegistrationConfig::default());
//! assert!(out.relative_mismatch() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use diffreg_comm as comm;
pub use diffreg_core as core;
pub use diffreg_fft as fft;
pub use diffreg_grid as grid;
pub use diffreg_imgsim as imgsim;
pub use diffreg_interp as interp;
pub use diffreg_optim as optim;
pub use diffreg_perfmodel as perfmodel;
pub use diffreg_pfft as pfft;
pub use diffreg_spectral as spectral;
pub use diffreg_transport as transport;

/// Convenience bundle of the per-rank solver state (decomposition, FFT
/// plan, timers), so examples and applications can build a
/// [`transport::Workspace`] in two lines for both serial and simulated-MPI
/// execution.
pub mod session {
    use diffreg_comm::{Comm, Timers};
    use diffreg_grid::{Decomp, Grid};
    use diffreg_pfft::PencilFft;
    use diffreg_transport::Workspace;

    /// Owns everything a rank needs besides its communicator.
    pub struct SessionParts<C: Comm> {
        decomp: Decomp,
        fft: PencilFft<C>,
        timers: Timers,
    }

    impl<C: Comm> SessionParts<C> {
        /// Builds the decomposition and FFT plan for `grid` over
        /// `comm.size()` ranks (collective).
        pub fn new(comm: &C, grid: Grid) -> Self {
            let decomp = Decomp::new(grid, comm.size());
            let fft = PencilFft::new(comm, decomp);
            Self { decomp, fft, timers: Timers::new() }
        }

        /// The global grid.
        pub fn grid(&self) -> Grid {
            self.decomp.grid
        }

        /// The decomposition.
        pub fn decomp(&self) -> &Decomp {
            &self.decomp
        }

        /// The phase timers accumulated by every operation run through the
        /// workspace.
        pub fn timers(&self) -> &Timers {
            &self.timers
        }

        /// Borrows a workspace for solver calls.
        pub fn workspace<'a>(&'a self, comm: &'a C) -> Workspace<'a, C> {
            Workspace::new(comm, &self.decomp, &self.fft, &self.timers)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::session::SessionParts;
    use diffreg_comm::{run_threaded, Comm, SerialComm};
    use diffreg_grid::Grid;

    #[test]
    fn session_parts_serial() {
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, Grid::cubic(8));
        let ws = parts.workspace(&comm);
        assert_eq!(ws.block().len(), 512);
        assert_eq!(parts.grid().total(), 512);
    }

    #[test]
    fn session_parts_distributed() {
        run_threaded(4, |comm| {
            let parts = SessionParts::new(comm, Grid::cubic(8));
            let ws = parts.workspace(comm);
            let mut total = vec![ws.block().len()];
            comm.allreduce_usize(&mut total, diffreg_comm::ReduceOp::Sum);
            assert_eq!(total[0], 512);
        });
    }
}
