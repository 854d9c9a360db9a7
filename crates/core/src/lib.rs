//! # diffreg-core
//!
//! The paper's primary contribution: a distributed-memory solver for large
//! deformation diffeomorphic image registration, formulated as PDE-
//! constrained optimal control (paper eq. 2) and solved with a
//! preconditioned, inexact Gauss-Newton-Krylov method (§III).
//!
//! The pieces:
//! * [`RegProblem`] — objective, reduced adjoint gradient (eq. 4),
//!   Gauss-Newton Hessian matvec (eq. 5), spectral preconditioner;
//! * [`register`] (one β), [`register_with_continuation`] (β schedule) and
//!   [`register_solve`] (the one implementation behind both: β schedule,
//!   warm start, checkpoint store, convergence-stream observer);
//! * deformation-map diagnostics (`det(∇y₁)`, diffeomorphy checks).
//!
//! ```no_run
//! use diffreg_comm::{SerialComm, Timers};
//! use diffreg_grid::{Decomp, Grid, ScalarField};
//! use diffreg_pfft::PencilFft;
//! use diffreg_transport::Workspace;
//! use diffreg_core::{register, RegistrationConfig};
//!
//! let grid = Grid::cubic(64);
//! let comm = SerialComm::new();
//! let decomp = Decomp::new(grid, 1);
//! let fft = PencilFft::new(&comm, decomp);
//! let timers = Timers::new();
//! let ws = Workspace::new(&comm, &decomp, &fft, &timers);
//! let template = ScalarField::from_fn(&grid, ws.block(), |x| x[0].sin());
//! let reference = ScalarField::from_fn(&grid, ws.block(), |x| (x[0] - 0.2).sin());
//! let outcome = register(&ws, &template, &reference, RegistrationConfig::default());
//! println!("relative mismatch: {}", outcome.relative_mismatch());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod checkpoint;
mod config;
mod distance;
mod driver;
mod fieldops;
mod jacobian;
mod multires;
mod problem;
mod rigid;

pub use checkpoint::{CheckpointError, CheckpointStore, ResumeLoad, SolverCheckpoint};
pub use config::{HessianKind, RegistrationConfig};
pub use distance::Distance;
pub use driver::{register, register_solve, register_with_continuation, RegistrationOutcome};
pub use fieldops::FieldOps;
pub use multires::{continuation_grids, register_multilevel};
pub use jacobian::{
    classify, det_deformation_gradient, det_stats, displacement, DetGradStats, JacobianClass,
};
pub use problem::RegProblem;
pub use rigid::{register_translation, RigidOutcome};
