//! # diffreg-interp
//!
//! Interpolation for the semi-Lagrangian scheme: the tricubic Lagrange
//! kernel (64 coefficients, paper §III-C2), a trilinear baseline, and the
//! distributed scatter plan of Algorithm 1 that routes off-grid departure
//! points to their owner ranks and returns interpolated values.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod kernel;
mod scatter;
mod soa;

pub use kernel::{base_and_frac, cubic_weights, tricubic, trilinear, Kernel, GHOST_WIDTH};
pub use scatter::{ghosted, ScatterPlan};
pub use soa::SoaStencils;
