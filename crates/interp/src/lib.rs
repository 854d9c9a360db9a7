//! # diffreg-interp
//!
//! Interpolation for the semi-Lagrangian scheme: the tricubic Lagrange
//! kernel (64 coefficients, paper §III-C2), a trilinear baseline, and the
//! distributed scatter plan of Algorithm 1 that routes off-grid departure
//! points to their owner ranks and returns interpolated values.
//!
//! A plan holds one stencil table ([`SoaStencils`]: a flat offset and
//! three fractional positions per point, 28 bytes) that both kernels read,
//! and evaluates all fields of a call in one walk over it
//! ([`ScatterPlan::interpolate_many`]). A rank's own points are written
//! straight into the output and never exchanged. The scalar kernels ([`tricubic`],
//! [`trilinear`]) are the pointwise oracles, in the same summation order,
//! so the table path is tested against them bit for bit.

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::let_underscore_must_use))]

mod kernel;
mod scatter;
mod soa;

pub use kernel::{base_and_frac, cubic_weights, tricubic, trilinear, Kernel, GHOST_WIDTH};
pub use scatter::{ghosted, ScatterPlan};
pub use soa::SoaStencils;
