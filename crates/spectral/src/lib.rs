//! # diffreg-spectral
//!
//! Wavenumber maps, operator symbols, and a serial spectral toolbox for
//! periodic grids.
//!
//! Every spatial operator in the registration solver — gradient, divergence,
//! Laplacian, biharmonic, their inverses, the Leray projector, the Gaussian
//! image filter, the regularization operator and its preconditioner — is a
//! Fourier multiplier (paper §III-B1). This crate defines those multipliers
//! once; the serial toolbox applies them on full grids and doubles as the
//! correctness oracle for the distributed implementation in `diffreg-pfft`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod resample;
mod serial;
mod symbols;
mod wavenumbers;

pub use resample::{coarsen_extents, spectral_resample};
pub use serial::SerialSpectral;
pub use symbols::{biharmonic, gaussian, inv_biharmonic, inv_laplacian, laplacian, RegOrder};
pub use wavenumbers::{k_squared, wavenumber, wavenumber_deriv};
