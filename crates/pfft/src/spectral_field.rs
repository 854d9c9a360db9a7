//! Distributed spectral coefficients and diagonal (Fourier-multiplier)
//! operators applied in place.

use diffreg_fft::Complex64;
use diffreg_grid::{Block, Grid};
use diffreg_spectral::wavenumber_deriv;

use crate::half::for_each_bin;

/// One rank's block of spectral coefficients, in the spectral pencil layout
/// (axis 0 full, axes 1/2 split).
#[derive(Debug, Clone)]
pub struct SpectralField {
    /// Global grid the coefficients discretize.
    pub grid: Grid,
    /// Owned block of spectral bins.
    pub block: Block,
    /// Local coefficients, row-major over the block (axis 2 fastest).
    pub data: Vec<Complex64>,
}

impl SpectralField {
    /// Zero-initialized coefficients on `block`.
    pub fn zeros(grid: Grid, block: Block) -> Self {
        Self { grid, block, data: vec![Complex64::ZERO; block.len()] }
    }

    /// Applies `f(coef, k, k2)` to every owned bin, where `k` is the
    /// signed wavenumber triple (with Nyquist zeroed, suitable for odd
    /// derivatives) and `k2` the *unzeroed* `|k|²`.
    pub fn map_bins(&mut self, mut f: impl FnMut(Complex64, [f64; 3], f64) -> Complex64) {
        let data = &mut self.data;
        for_each_bin(&self.grid, &self.block, |l, k, k2| data[l] = f(data[l], k, k2));
    }

    /// Multiplies every bin by the real symbol `sym(|k|²)`.
    pub fn apply_symbol(&mut self, sym: impl Fn(f64) -> f64) {
        self.map_bins(|z, _, k2| z.scale(sym(k2)));
    }

    /// Multiplies every bin by `i * k_axis` (spectral differentiation).
    pub fn differentiate(&mut self, axis: usize) {
        assert!(axis < 3);
        self.map_bins(|z, k, _| Complex64::new(-k[axis] * z.im, k[axis] * z.re));
    }

    /// Applies the translation phase `exp(-i k·s)`, so the inverse transform
    /// yields `f(x - s)` (used by the rigid-baseline registration).
    pub fn phase_shift(&mut self, s: [f64; 3]) {
        self.map_bins(|z, k, _| {
            z * Complex64::cis(-(k[0] * s[0] + k[1] * s[1] + k[2] * s[2]))
        });
    }

    /// `self += alpha * other` on the coefficients.
    pub fn axpy(&mut self, alpha: f64, other: &SpectralField) {
        assert_eq!(self.block, other.block);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b.scale(alpha);
        }
    }
}

/// Applies the Leray projection `v̂ -= k (k·v̂)/|k|²` in place on the three
/// spectral components of a vector field (zero mode untouched), eliminating
/// the incompressibility constraint (paper eq. 4).
pub fn leray_project(v: &mut [SpectralField; 3]) {
    let grid = v[0].grid;
    let block = v[0].block;
    assert!(v.iter().all(|c| c.block == block));
    let n = grid.n;
    let [c0, c1, c2] = block.count;
    let [s0, s1, s2] = block.start;
    let mut l = 0;
    for a0 in 0..c0 {
        let k0 = wavenumber_deriv(n[0], s0 + a0);
        for a1 in 0..c1 {
            let k1 = wavenumber_deriv(n[1], s1 + a1);
            for a2 in 0..c2 {
                let k2 = wavenumber_deriv(n[2], s2 + a2);
                let ksq = k0 * k0 + k1 * k1 + k2 * k2;
                if ksq > 0.0 {
                    let kv = (v[0].data[l].scale(k0) + v[1].data[l].scale(k1) + v[2].data[l].scale(k2))
                        .scale(1.0 / ksq);
                    v[0].data[l] -= kv.scale(k0);
                    v[1].data[l] -= kv.scale(k1);
                    v[2].data[l] -= kv.scale(k2);
                }
                l += 1;
            }
        }
    }
}
