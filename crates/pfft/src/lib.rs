//! # diffreg-pfft
//!
//! Distributed 3D FFT over the pencil decomposition, plus every spectral
//! operator the registration solver needs in distributed form: derivatives,
//! gradient, divergence, Laplacian/biharmonic (and inverses via symbols),
//! Leray projection, regularization operator, Hessian preconditioner, and
//! Gaussian image smoothing.
//!
//! This is the AccFFT substitute of DESIGN.md §2: the transform sequence and
//! the transpose communication pattern (two alltoallv's within √p-sized
//! groups) follow the paper's Fig. 4. There is one transform: every field
//! is real, so it is r2c/c2r over the Hermitian half spectrum, and the
//! serial `diffreg_spectral::SerialSpectral` is the oracle the tests hold
//! it to.

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::let_underscore_must_use))]

mod half;
mod plan;
mod transpose;

pub use half::{half_spectral_block, leray_project_half, HalfSpectralField};
pub use plan::PencilFft;
