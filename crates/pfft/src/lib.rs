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
//! groups) follow the paper's Fig. 4.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod half;
mod plan;
mod spectral_field;
mod transpose;

pub use half::{half_spectral_block, leray_project_half, HalfSpectralField};
pub use plan::PencilFft;
pub use spectral_field::{leray_project, SpectralField};
