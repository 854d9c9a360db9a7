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
//!   [`register_solve`] (the one implementation behind both: a schedule of
//!   [`Level`]s, each a β and a grid, so that β and grid continuation are
//!   one warm-started loop; checkpoint store; convergence-stream observer),
//!   with [`continuation_grids`] building a coarse-to-fine grid schedule;
//! * deformation-map diagnostics (`det(∇y₁)`, diffeomorphy checks);
//! * [`synthetic_pair`] — the paper's synthetic problem (§IV-A1), the one
//!   copy the tests, the bench harness and the serve runtime share.
//!
//! ```no_run
//! use diffreg_comm::SerialComm;
//! use diffreg_grid::{Grid, ScalarField};
//! use diffreg_transport::SessionParts;
//! use diffreg_core::{register, RegistrationConfig};
//!
//! let grid = Grid::cubic(64);
//! let comm = SerialComm::new(); // a one-rank world
//! let parts = SessionParts::new(&comm, grid);
//! let ws = parts.workspace(&comm);
//! let template = ScalarField::from_fn(&grid, ws.block(), |x| x[0].sin());
//! let reference = ScalarField::from_fn(&grid, ws.block(), |x| (x[0] - 0.2).sin());
//! let outcome = register(&ws, &template, &reference, RegistrationConfig::default());
//! println!("relative mismatch: {}", outcome.relative_mismatch());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::let_underscore_must_use))]

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
pub use config::RegistrationConfig;
pub use distance::Distance;
pub use driver::{
    register, register_solve, register_with_continuation, synthetic_pair, Level,
    RegistrationOutcome,
};
pub use fieldops::FieldOps;
pub use multires::continuation_grids;
pub use jacobian::{
    classify, det_deformation_gradient, det_stats, displacement, DetGradStats, JacobianClass,
};
pub use problem::RegProblem;
pub use rigid::{register_translation, RigidOutcome};
