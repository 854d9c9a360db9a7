//! # diffreg-optim
//!
//! Matrix-free optimization for the registration solver (paper §III-A): a
//! preconditioned conjugate-gradient solver for the Newton step, and a
//! line-search globalized inexact Gauss-Newton-Krylov driver with
//! Eisenstat-Walker forcing.
//!
//! This is the PETSc/TAO substitute of DESIGN.md §2 — the same interface
//! surface the paper describes (objective, gradient, Hessian matvec,
//! preconditioner callbacks; control over the inner tolerance and the outer
//! termination criteria).

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp))]

mod newton;
mod pcg;
mod vector;

pub use newton::{
    gauss_newton_observed, Forcing, GaussNewtonProblem, IterationStats, NewtonCursor,
    NewtonOptions, NewtonReport, NewtonResume, NewtonStatus,
};
pub use pcg::{pcg, PcgOptions, PcgReport, PcgStatus};
pub use vector::{DenseOps, VectorOps};
