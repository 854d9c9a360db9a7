//! Bluestein's algorithm: FFT of arbitrary (e.g. large prime) length via a
//! zero-padded power-of-two circular convolution.
//!
//! This is what lets the registration solver handle any grid extent (the
//! paper's brain grid is 256 x 300 x 256; scaled variants can contain large
//! prime extents).

use crate::complex::Complex64;
use crate::factor::next_pow2;
use crate::mixed::MixedRadixPlan;

/// A plan for a forward DFT of arbitrary length `n` using Bluestein's
/// chirp-z reformulation.
#[derive(Debug, Clone)]
pub struct BluesteinPlan {
    n: usize,
    m: usize,
    inner: MixedRadixPlan,
    /// Chirp `c[j] = exp(-i pi j^2 / n)`, length `n`.
    chirp: Vec<Complex64>,
    /// Forward FFT (length m) of the padded conjugate-chirp kernel, premultiplied
    /// by `1/m` so the inverse convolution transform needs no extra scaling pass.
    kernel_hat: Vec<Complex64>,
}

impl BluesteinPlan {
    /// Plans a Bluestein transform of length `n > 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        let m = next_pow2(2 * n - 1).max(1);
        let inner = MixedRadixPlan::new(m);
        // j^2 mod 2n keeps the phase argument bounded for large j.
        let w = -std::f64::consts::PI / n as f64;
        let chirp: Vec<Complex64> =
            (0..n).map(|j| Complex64::cis(w * ((j * j) % (2 * n)) as f64)).collect();
        // Kernel b[j] = conj(chirp[|j|]) arranged circularly on length m.
        let mut kernel = vec![Complex64::ZERO; m];
        kernel[0] = chirp[0].conj();
        for j in 1..n {
            let c = chirp[j].conj();
            kernel[j] = c;
            kernel[m - j] = c;
        }
        let mut kernel_hat = vec![Complex64::ZERO; m];
        inner.forward(&kernel, &mut kernel_hat);
        let scale = 1.0 / m as f64;
        for k in &mut kernel_hat {
            *k = k.scale(scale);
        }
        Self { n, m, inner, chirp, kernel_hat }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; zero-length plans cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward transform, out-of-place: `out = DFT(input)`.
    pub fn forward(&self, input: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(input.len(), self.n);
        assert_eq!(out.len(), self.n);
        let m = self.m;
        let mut a = vec![Complex64::ZERO; m];
        let mut a_hat = vec![Complex64::ZERO; m];
        for j in 0..self.n {
            a[j] = input[j] * self.chirp[j];
        }
        self.inner.forward(&a, &mut a_hat);
        // Pointwise multiply with the kernel spectrum, then inverse transform
        // via the conjugation trick (kernel_hat already carries the 1/m).
        for j in 0..m {
            a[j] = (a_hat[j] * self.kernel_hat[j]).conj();
        }
        self.inner.forward(&a, &mut a_hat);
        for k in 0..self.n {
            out[k] = a_hat[k].conj() * self.chirp[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_forward;

    fn test_size(n: usize) {
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let expect = dft_forward(&input);
        let plan = BluesteinPlan::new(n);
        let mut out = vec![Complex64::ZERO; n];
        plan.forward(&input, &mut out);
        for (a, b) in out.iter().zip(expect.iter()) {
            assert!((*a - *b).abs() < 1e-8 * (n as f64).max(1.0), "size {n}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn matches_naive_dft_for_awkward_sizes() {
        for n in [1, 2, 7, 11, 17, 19, 23, 31, 37, 53, 97, 101, 127, 211] {
            test_size(n);
        }
    }

    #[test]
    fn also_correct_for_smooth_sizes() {
        for n in [4, 12, 30, 64] {
            test_size(n);
        }
    }
}
