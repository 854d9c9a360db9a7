//! Distributed Hermitian half-spectrum coefficients: the spectral side of
//! the one distributed FFT.
//!
//! All solver fields are real, so the full spectrum satisfies
//! `X[-k] = conj(X[k])` and only axis-2 bins `0..=n2/2` need to be stored.
//! The half-spectrum layout is the pencil FFT's spectral stage with the
//! axis-2 extent `n2/2 + 1`: axis 0 full, axis 1 split over `p1`, halved
//! axis 2 split over `p2`. Every transpose moves roughly half the bytes a
//! full-spectrum transform would, and every diagonal operator touches half
//! the bins.
//!
//! Applying a Fourier multiplier `s(k)` to the stored bins is valid
//! whenever `s(-k) = conj(s(k))`: the implied conjugate bin then receives
//! `conj(s(k) X[k]) = s(-k) conj(X[k])`, exactly what the full-spectrum
//! operator would have produced. That covers every symbol the solver uses:
//! real even symbols (Laplacian powers, Gaussian, regularization,
//! preconditioner), the odd imaginary derivative `i k` (Nyquist rows
//! zeroed by `wavenumber_deriv`, as in the serial oracle), the Leray projector,
//! and the translation phase `exp(-i k·s)`.

use diffreg_fft::{half_len, Complex64};
use diffreg_grid::{slab, Block, Decomp, Grid};
use diffreg_spectral::{wavenumber, wavenumber_deriv};

/// One rank's block of half-spectrum coefficients.
#[derive(Debug, Clone)]
pub struct HalfSpectralField {
    /// Global grid the coefficients discretize (full real-space extents).
    pub grid: Grid,
    /// Owned block of half-spectrum bins (`start`/`count` on the halved
    /// axis-2 index range `0..n2/2+1`).
    pub block: Block,
    /// Local coefficients, row-major over the block (axis 2 fastest).
    pub data: Vec<Complex64>,
}

/// The half-spectrum block owned by `rank`: axis 0 full, axis 1 split over
/// `p1` (column coordinate), halved axis 2 split over `p2` (row
/// coordinate) — where the forward transform's last pass leaves it.
pub fn half_spectral_block(decomp: &Decomp, rank: usize) -> Block {
    let n = decomp.grid.n;
    let n2h = half_len(n[2]);
    let (r1, r2) = decomp.coords(rank);
    let (s1, c1) = slab(n[1], decomp.p1, r1);
    let (s2, c2) = slab(n2h, decomp.p2, r2);
    Block { start: [0, s1, s2], count: [n[0], c1, c2] }
}

/// Calls `f(l, k, k2)` for every bin of `block` in local row-major order
/// `l`, with `k` and `k2` as [`HalfSpectralField::map_bins`] defines them.
fn for_each_bin(grid: &Grid, block: &Block, mut f: impl FnMut(usize, [f64; 3], f64)) {
    let n = grid.n;
    let [c0, c1, c2] = block.count;
    let [s0, s1, s2] = block.start;
    let mut l = 0;
    for a0 in 0..c0 {
        let i0 = s0 + a0;
        let k0d = wavenumber_deriv(n[0], i0);
        let k0 = wavenumber(n[0], i0);
        for a1 in 0..c1 {
            let i1 = s1 + a1;
            let k1d = wavenumber_deriv(n[1], i1);
            let k1 = wavenumber(n[1], i1);
            let k01 = k0 * k0 + k1 * k1;
            for a2 in 0..c2 {
                let i2 = s2 + a2;
                let k2d = wavenumber_deriv(n[2], i2);
                let k2c = wavenumber(n[2], i2);
                f(l, [k0d, k1d, k2d], k01 + k2c * k2c);
                l += 1;
            }
        }
    }
}

impl HalfSpectralField {
    /// Zero-initialized coefficients on `block`.
    pub fn zeros(grid: Grid, block: Block) -> Self {
        Self { grid, block, data: vec![Complex64::ZERO; block.len()] }
    }

    /// Applies `f(coef, k, k2)` to every owned bin: `k` is the signed
    /// wavenumber triple with Nyquist zeroed (suitable for odd
    /// derivatives), `k2` the unzeroed `|k|²`. Axis-2 global indices never
    /// exceed `n2/2`, so the stored wavenumbers are the non-negative half.
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

    /// Writes `i * k_axis` times every bin to `out`, leaving `self` as is.
    pub(crate) fn differentiate_into(&self, axis: usize, out: &mut [Complex64]) {
        assert_eq!(out.len(), self.data.len());
        for_each_bin(&self.grid, &self.block, |l, k, _| {
            out[l] = Complex64::new(-k[axis] * self.data[l].im, k[axis] * self.data[l].re)
        });
    }

    /// Applies the translation phase `exp(-i k·s)`.
    pub fn phase_shift(&mut self, s: [f64; 3]) {
        self.map_bins(|z, k, _| z * Complex64::cis(-(k[0] * s[0] + k[1] * s[1] + k[2] * s[2])));
    }

    /// `self += alpha * other` on the coefficients.
    pub fn axpy(&mut self, alpha: f64, other: &HalfSpectralField) {
        assert_eq!(self.block, other.block);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b.scale(alpha);
        }
    }
}

/// Leray projection `v̂ -= k (k·v̂)/|k|²` in place on three half-spectrum
/// components (zero mode untouched), eliminating the incompressibility
/// constraint (paper eq. 4).
pub fn leray_project_half(v: &mut [HalfSpectralField; 3]) {
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
                    let kv = (v[0].data[l].scale(k0)
                        + v[1].data[l].scale(k1)
                        + v[2].data[l].scale(k2))
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
