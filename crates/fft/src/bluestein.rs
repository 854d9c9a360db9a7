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
    /// Forward FFT (length m) of the padded conjugate-chirp kernel.
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
        inner.run(Some(&kernel), &mut kernel_hat, &mut vec![Complex64::ZERO; m], 1, false);
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
        let mut a = vec![Complex64::ZERO; self.m];
        let mut scratch = vec![Complex64::ZERO; self.m];
        for j in 0..self.n {
            a[j] = input[j] * self.chirp[j];
        }
        // Circular convolution with the kernel: forward, pointwise
        // multiply, inverse (which carries the 1/m).
        self.inner.run(None, &mut a, &mut scratch, 1, false);
        for (aj, kj) in a.iter_mut().zip(&self.kernel_hat) {
            *aj *= *kj;
        }
        self.inner.run(None, &mut a, &mut scratch, 1, true);
        for k in 0..self.n {
            out[k] = a[k] * self.chirp[k];
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
