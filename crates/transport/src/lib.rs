//! # diffreg-transport
//!
//! Semi-Lagrangian transport for the optimal-control registration system
//! (paper §III-B2): the unconditionally stable RK2 scheme of eqs. (6)-(7)
//! applied to the state, adjoint, incremental state, and incremental adjoint
//! equations, plus the deformation-map solve of eq. (1).
//!
//! Departure points are computed once per stationary velocity per direction
//! and their distributed interpolation plans are reused across all solves —
//! the paper's "interpolation planner" optimization. Both directions share
//! one finiteness check and one ghosted copy of the velocity, unless the
//! caller already holds the forward trajectory (a line-search trial at the
//! same velocity), which [`SemiLagrangian::with_forward`] adopts. Only the
//! plans are kept; [`SemiLagrangian::new`] also keeps the forward departure
//! points, for callers that inspect them.
//!
//! Interpolation is linear in the field, so every RK2 step interpolates
//! its linear combination once: the incremental state evaluates
//! `ρ̃ + δt/2·f_i` at the departure points where paper Algorithm 2 evaluates
//! `ρ̃` and `f_i` separately, and the deformation map evaluates
//! `u − δt/2·v`.

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::let_underscore_must_use))]

mod solvers;
mod trajectory;
mod workspace;

pub use solvers::SemiLagrangian;
pub use trajectory::{compute_trajectory, local_grid_points, velocity_is_finite, Trajectory};
pub use workspace::{SessionParts, Workspace};
