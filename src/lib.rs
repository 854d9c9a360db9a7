//! # diffreg
//!
//! Distributed-memory large deformation diffeomorphic 3D image registration
//! — a from-scratch Rust reproduction of Mang, Gholami & Biros (SC16), the
//! precursor of CLAIRE.
//!
//! This umbrella crate re-exports the whole stack; [`session`] re-exports
//! the one recipe that stands up a rank, on one rank or many. The crates:
//!
//! * [`fft`] — serial FFT kernels (mixed-radix + Bluestein);
//! * [`comm`] — the simulated MPI runtime (rank-per-thread SPMD; a single
//!   rank is a world of one);
//! * [`grid`] — pencil decomposition, fields, ghost exchange;
//! * [`spectral`] — operator symbols and the serial spectral toolbox;
//! * [`pfft`] — the distributed 3D FFT and spectral operators;
//! * [`interp`] — tricubic interpolation and the scatter plan;
//! * [`transport`] — semi-Lagrangian transport solvers, and the
//!   `SessionParts` / `Workspace` pair every solver call runs on;
//! * [`optim`] — PCG and the inexact Gauss-Newton-Krylov driver;
//! * [`core`] — the registration problem, gradient/Hessian, and the one
//!   solve `register_solve` over a schedule of β and grid levels, with
//!   `register` (one β) and `register_with_continuation` (a β schedule) as
//!   its front doors;
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
//! let comm = SerialComm::new(); // a one-rank world
//! let parts = SessionParts::new(&comm, Grid::cubic(12));
//! let ws = parts.workspace(&comm);
//! let template = ScalarField::from_fn(&parts.grid(), ws.block(), |x| x[0].sin());
//! let reference = ScalarField::from_fn(&parts.grid(), ws.block(), |x| (x[0] - 0.2).sin());
//! let out = register(&ws, &template, &reference, RegistrationConfig::default());
//! assert!(out.relative_mismatch() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

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

/// The per-rank solver state (FFT plan with its decomposition, timers) and
/// the [`transport::Workspace`] it lends, for serial and simulated-MPI
/// execution alike.
pub mod session {
    pub use diffreg_transport::SessionParts;
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
