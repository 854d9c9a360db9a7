//! Serial spectral operator toolbox on full (undistributed) grids.
//!
//! Used as the correctness oracle for the distributed operators in
//! `diffreg-pfft`, and directly by synthetic-data generation. All operators
//! assume real input on a periodic grid of shape `[n0, n1, n2]`, row-major,
//! axis 2 fastest.

use diffreg_fft::{Complex64, Fft3d};

use crate::symbols;
use crate::wavenumbers::{wavenumber_deriv, k_squared};

/// A serial spectral workspace for one grid shape.
#[derive(Debug, Clone)]
pub struct SerialSpectral {
    n: [usize; 3],
    fft: Fft3d,
}

impl SerialSpectral {
    /// Creates a workspace for grids of shape `n`.
    pub fn new(n: [usize; 3]) -> Self {
        Self { n, fft: Fft3d::new(n) }
    }

    /// Grid shape.
    pub fn shape(&self) -> [usize; 3] {
        self.n
    }

    /// Total points.
    pub fn len(&self) -> usize {
        self.n.iter().product()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward FFT of a real field into complex spectral coefficients.
    pub fn forward(&self, real: &[f64]) -> Vec<Complex64> {
        assert_eq!(real.len(), self.len());
        let mut spec: Vec<Complex64> = real.iter().map(|&v| Complex64::from_real(v)).collect();
        self.fft.forward(&mut spec);
        spec
    }

    /// Inverse FFT back to a real field (imaginary residue discarded).
    pub fn inverse(&self, mut spec: Vec<Complex64>) -> Vec<f64> {
        assert_eq!(spec.len(), self.len());
        self.fft.inverse(&mut spec);
        spec.into_iter().map(|z| z.re).collect()
    }

    /// Iterates `f(linear_index, [i0,i1,i2])` over all spectral bins.
    fn for_each_bin(&self, mut f: impl FnMut(usize, [usize; 3])) {
        let [n0, n1, n2] = self.n;
        let mut l = 0;
        for i0 in 0..n0 {
            for i1 in 0..n1 {
                for i2 in 0..n2 {
                    f(l, [i0, i1, i2]);
                    l += 1;
                }
            }
        }
    }

    /// Applies a real diagonal symbol `sym(|k|²)` to a real field.
    pub fn apply_symbol(&self, field: &[f64], sym: impl Fn(f64) -> f64) -> Vec<f64> {
        let mut spec = self.forward(field);
        self.for_each_bin(|l, i| {
            spec[l] = spec[l].scale(sym(k_squared(self.n, i)));
        });
        self.inverse(spec)
    }

    /// Partial derivative `∂f/∂x_axis` via the spectral symbol `i k_axis`.
    pub fn derivative(&self, field: &[f64], axis: usize) -> Vec<f64> {
        assert!(axis < 3);
        let mut spec = self.forward(field);
        self.for_each_bin(|l, i| {
            let k = wavenumber_deriv(self.n[axis], i[axis]);
            let z = spec[l];
            spec[l] = Complex64::new(-k * z.im, k * z.re); // multiply by i*k
        });
        self.inverse(spec)
    }

    /// Gradient `∇f`: one shared forward transform, then one inverse per
    /// component (4 transforms total instead of the 6 that three
    /// independent `derivative` calls would cost).
    pub fn gradient(&self, field: &[f64]) -> [Vec<f64>; 3] {
        let spec = self.forward(field);
        let mut out: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (axis, o) in out.iter_mut().enumerate() {
            let mut s = spec.clone();
            self.for_each_bin(|l, i| {
                let k = wavenumber_deriv(self.n[axis], i[axis]);
                let z = s[l];
                s[l] = Complex64::new(-k * z.im, k * z.re); // multiply by i*k
            });
            *o = self.inverse(s);
        }
        out
    }

    /// Divergence `div v` of a vector field.
    pub fn divergence(&self, v: [&[f64]; 3]) -> Vec<f64> {
        let d0 = self.derivative(v[0], 0);
        let d1 = self.derivative(v[1], 1);
        let d2 = self.derivative(v[2], 2);
        d0.iter().zip(&d1).zip(&d2).map(|((a, b), c)| a + b + c).collect()
    }

    /// Laplacian `Δf`.
    pub fn laplacian(&self, field: &[f64]) -> Vec<f64> {
        self.apply_symbol(field, symbols::laplacian)
    }

    /// Inverse Laplacian with the mean (zero mode) projected out.
    pub fn inv_laplacian(&self, field: &[f64]) -> Vec<f64> {
        self.apply_symbol(field, symbols::inv_laplacian)
    }

    /// Biharmonic `Δ²f`.
    pub fn biharmonic(&self, field: &[f64]) -> Vec<f64> {
        self.apply_symbol(field, symbols::biharmonic)
    }

    /// Gaussian smoothing with standard deviation `sigma` (paper: `2π/N`).
    pub fn gaussian_smooth(&self, field: &[f64], sigma: f64) -> Vec<f64> {
        self.apply_symbol(field, |k2| symbols::gaussian(sigma, k2))
    }

    /// Leray projection `P v = v - ∇Δ⁻¹ div v` onto divergence-free fields.
    /// The zero mode (mean flow) is left unchanged.
    pub fn leray(&self, v: [&[f64]; 3]) -> [Vec<f64>; 3] {
        let mut spec = [self.forward(v[0]), self.forward(v[1]), self.forward(v[2])];
        self.for_each_bin(|l, i| {
            let k = [
                wavenumber_deriv(self.n[0], i[0]),
                wavenumber_deriv(self.n[1], i[1]),
                wavenumber_deriv(self.n[2], i[2]),
            ];
            let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
            if k2 == 0.0 {
                return;
            }
            // (k · v̂) / |k|²
            let kv = (spec[0][l].scale(k[0]) + spec[1][l].scale(k[1]) + spec[2][l].scale(k[2]))
                .scale(1.0 / k2);
            for a in 0..3 {
                spec[a][l] -= kv.scale(k[a]);
            }
        });
        let [s0, s1, s2] = spec;
        [self.inverse(s0), self.inverse(s1), self.inverse(s2)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn grid_eval(n: [usize; 3], f: impl Fn([f64; 3]) -> f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(n.iter().product());
        for i0 in 0..n[0] {
            for i1 in 0..n[1] {
                for i2 in 0..n[2] {
                    let x = [
                        TAU * i0 as f64 / n[0] as f64,
                        TAU * i1 as f64 / n[1] as f64,
                        TAU * i2 as f64 / n[2] as f64,
                    ];
                    out.push(f(x));
                }
            }
        }
        out
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn derivative_of_trig_is_exact() {
        let n = [8, 8, 8];
        let sp = SerialSpectral::new(n);
        let f = grid_eval(n, |x| (2.0 * x[0]).sin() * x[1].cos());
        let dfdx0 = sp.derivative(&f, 0);
        let expect = grid_eval(n, |x| 2.0 * (2.0 * x[0]).cos() * x[1].cos());
        assert!(max_err(&dfdx0, &expect) < 1e-10);
        let dfdx1 = sp.derivative(&f, 1);
        let expect1 = grid_eval(n, |x| -(2.0 * x[0]).sin() * x[1].sin());
        assert!(max_err(&dfdx1, &expect1) < 1e-10);
        let dfdx2 = sp.derivative(&f, 2);
        assert!(dfdx2.iter().all(|v| v.abs() < 1e-10));
    }

    #[test]
    fn laplacian_matches_analytic() {
        let n = [8, 6, 10];
        let sp = SerialSpectral::new(n);
        let f = grid_eval(n, |x| x[0].sin() + (2.0 * x[2]).cos());
        let lap = sp.laplacian(&f);
        let expect = grid_eval(n, |x| -x[0].sin() - 4.0 * (2.0 * x[2]).cos());
        assert!(max_err(&lap, &expect) < 1e-10);
    }

    #[test]
    fn inv_laplacian_inverts_on_zero_mean() {
        let n = [8, 8, 8];
        let sp = SerialSpectral::new(n);
        let f = grid_eval(n, |x| x[0].sin() * (2.0 * x[1]).cos() + (3.0 * x[2]).sin());
        let roundtrip = sp.laplacian(&sp.inv_laplacian(&f));
        assert!(max_err(&roundtrip, &f) < 1e-9);
    }

    #[test]
    fn biharmonic_is_laplacian_squared() {
        let n = [6, 6, 6];
        let sp = SerialSpectral::new(n);
        let f = grid_eval(n, |x| x[0].sin() + x[1].cos() * (2.0 * x[2]).sin());
        let a = sp.biharmonic(&f);
        let b = sp.laplacian(&sp.laplacian(&f));
        assert!(max_err(&a, &b) < 1e-9);
    }

    #[test]
    fn gradient_matches_per_axis_derivative() {
        let n = [8, 8, 8];
        let sp = SerialSpectral::new(n);
        let f = grid_eval(n, |x| (x[0] + 2.0 * x[1]).sin() + x[2].cos());
        let g = sp.gradient(&f);
        for (a, ga) in g.iter().enumerate() {
            let d = sp.derivative(&f, a);
            assert!(max_err(ga, &d) < 1e-12, "axis {a} differs from derivative path");
        }
    }

    #[test]
    fn divergence_of_gradient_is_laplacian() {
        let n = [8, 8, 8];
        let sp = SerialSpectral::new(n);
        let f = grid_eval(n, |x| (x[0] + x[1]).sin() + x[2].cos());
        let g = sp.gradient(&f);
        let div = sp.divergence([&g[0], &g[1], &g[2]]);
        let lap = sp.laplacian(&f);
        assert!(max_err(&div, &lap) < 1e-9);
    }

    #[test]
    fn leray_output_is_divergence_free() {
        let n = [8, 8, 8];
        let sp = SerialSpectral::new(n);
        let v0 = grid_eval(n, |x| x[0].cos() * x[1].sin());
        let v1 = grid_eval(n, |x| x[1].cos() * x[2].sin() + x[0].sin());
        let v2 = grid_eval(n, |x| (2.0 * x[0]).sin());
        let p = sp.leray([&v0, &v1, &v2]);
        let div = sp.divergence([&p[0], &p[1], &p[2]]);
        assert!(div.iter().all(|v| v.abs() < 1e-9), "projection not divergence-free");
        // Idempotence: P P v = P v.
        let pp = sp.leray([&p[0], &p[1], &p[2]]);
        for a in 0..3 {
            assert!(max_err(&p[a], &pp[a]) < 1e-9);
        }
    }

    #[test]
    fn leray_preserves_divergence_free_fields() {
        let n = [8, 8, 8];
        let sp = SerialSpectral::new(n);
        // v = (cos x0 sin x1, -sin x0 cos x1, 0) has div v = 0.
        let v0 = grid_eval(n, |x| x[0].cos() * x[1].sin());
        let v1 = grid_eval(n, |x| -x[0].sin() * x[1].cos());
        let v2 = vec![0.0; sp.len()];
        let p = sp.leray([&v0, &v1, &v2]);
        assert!(max_err(&p[0], &v0) < 1e-9);
        assert!(max_err(&p[1], &v1) < 1e-9);
        assert!(max_err(&p[2], &v2) < 1e-9);
    }

    #[test]
    fn gaussian_smoothing_preserves_mean_and_damps() {
        let n = [8, 8, 8];
        let sp = SerialSpectral::new(n);
        let f = grid_eval(n, |x| 1.0 + (3.0 * x[0]).sin());
        let s = sp.gaussian_smooth(&f, 0.8);
        let mean_f: f64 = f.iter().sum::<f64>() / f.len() as f64;
        let mean_s: f64 = s.iter().sum::<f64>() / s.len() as f64;
        assert!((mean_f - mean_s).abs() < 1e-12);
        let amp_f = f.iter().map(|v| (v - mean_f).abs()).fold(0.0, f64::max);
        let amp_s = s.iter().map(|v| (v - mean_s).abs()).fold(0.0, f64::max);
        assert!(amp_s < amp_f * 0.2, "high mode not damped: {amp_s} vs {amp_f}");
    }
}
