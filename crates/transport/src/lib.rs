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
//! one finiteness check and one ghosted copy of the velocity.
//!
//! Interpolation is linear in the field, so every RK2 step interpolates
//! its linear combination once: the incremental state evaluates
//! `ρ̃ + δt/2·f_i` at the departure points where paper Algorithm 2 evaluates
//! `ρ̃` and `f_i` separately, and the deformation map evaluates
//! `u − δt/2·v`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod solvers;
mod trajectory;
mod workspace;

pub use solvers::SemiLagrangian;
pub use trajectory::{compute_trajectory, local_grid_points, velocity_is_finite, Trajectory};
pub use workspace::Workspace;
