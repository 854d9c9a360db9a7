//! # diffreg-fft
//!
//! Serial FFT stack for the diffeomorphic registration solver: a minimal
//! complex type, a naive DFT oracle, one batched mixed-radix Stockham kernel
//! (radices 4, 2, 3, 5 and odd primes up to 13) under every transform, a
//! Bluestein fallback for arbitrary lengths, and line/3D drivers.
//!
//! This replaces FFTW/AccFFT's node-local transforms in the paper's stack;
//! the distributed pencil transform lives in `diffreg-pfft` and calls into
//! the 1D plans defined here.

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp))]

mod bluestein;
mod complex;
mod dft;
mod factor;
mod mixed;
mod nd;
mod plan;
mod real;

pub use bluestein::BluesteinPlan;
pub use complex::Complex64;
pub use dft::{dft_forward, dft_inverse};
pub use factor::{factorize, is_smooth, next_pow2, MAX_RADIX};
pub use mixed::MixedRadixPlan;
pub use nd::{transform_lines, Direction, Fft3d};
pub use plan::Fft1d;
pub use real::{half_len, RealFft1d, RealScratch};

/// Estimated floating-point operation count of one complex FFT of length `n`
/// (the standard `5 n log2 n` model used in the paper's complexity analysis).
pub fn fft_flops(n: usize) -> f64 {
    let n = n as f64;
    5.0 * n * n.log2().max(1.0)
}
