//! Real-to-complex (r2c) and complex-to-real (c2r) transforms with
//! Hermitian-symmetric half-spectrum storage.
//!
//! The DFT of a real sequence of length `n` satisfies
//! `X[n-k] = conj(X[k])`, so only the first `n/2 + 1` bins carry
//! independent information. Storing that half spectrum halves the flop
//! count of downstream spectral arithmetic and the byte count of every
//! distributed transpose that moves spectral data.
//!
//! Even lengths `n = 2m` use the classic pack trick: the real sequence is
//! reinterpreted as the length-`m` complex sequence
//! `z[j] = x[2j] + i x[2j+1]`, one half-length complex FFT is taken, and
//! the even/odd sub-spectra are separated with a single twiddle pass:
//!
//! ```text
//! E[k] = (Z[k] + conj(Z[m-k])) / 2        (DFT of x[even])
//! O[k] = (Z[k] - conj(Z[m-k])) / (2i)     (DFT of x[odd])
//! X[k] = E[k] + e^{-2 pi i k / n} O[k],   k = 0..=m  (indices mod m)
//! ```
//!
//! Contiguous lines are processed [`TILE`] at a time: the pack is fused
//! into the load that transposes the lines into the kernel's
//! batch-innermost tile, the even/odd split into the store that transposes
//! them back.
//!
//! Odd lengths (including Bluestein-sized primes) fall back to one full
//! complex transform and keep bins `0..=(n-1)/2`; correctness over speed
//! for the sizes the solver never uses in hot loops.

use std::f64::consts::TAU;

use crate::complex::Complex64;
use crate::nd::{Direction, TILE};
use crate::plan::Fft1d;

/// Number of stored half-spectrum bins for a real transform of length `n`.
pub fn half_len(n: usize) -> usize {
    n / 2 + 1
}

/// Reusable scratch for [`RealFft1d`]; pass one per thread and the plan
/// performs no heap allocation in steady state.
#[derive(Debug, Default, Clone)]
pub struct RealScratch {
    a: Vec<Complex64>,
    b: Vec<Complex64>,
}

#[derive(Debug, Clone)]
enum RealKind {
    /// Even length `2m`: half-length complex plan plus split twiddles
    /// `e^{-2 pi i k / n}` for `k = 0..=m`.
    Even { half: Fft1d, tw: Vec<Complex64> },
    /// Odd length: full-length complex fallback.
    Full { plan: Fft1d },
}

/// A reusable plan for 1D real-to-complex / complex-to-real transforms of
/// one fixed length, with the same conventions as [`Fft1d`]: forward is
/// unnormalized, inverse carries the `1/n` factor.
#[derive(Debug, Clone)]
pub struct RealFft1d {
    n: usize,
    kind: RealKind,
}

impl RealFft1d {
    /// Plans a real transform of length `n > 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let kind = if n.is_multiple_of(2) {
            let m = n / 2;
            let mut tw: Vec<Complex64> =
                (0..=m).map(|k| Complex64::cis(-TAU * k as f64 / n as f64)).collect();
            // Pin the exactly-representable twiddles so DC and Nyquist bins
            // come out exactly real for real input.
            tw[0] = Complex64::ONE;
            tw[m] = Complex64::new(-1.0, 0.0);
            if m.is_multiple_of(2) {
                tw[m / 2] = Complex64::new(0.0, -1.0);
            }
            RealKind::Even { half: Fft1d::new(m), tw }
        } else {
            RealKind::Full { plan: Fft1d::new(n) }
        };
        Self { n, kind }
    }

    /// Real-space length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; plans of length zero cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of stored spectrum bins, `n/2 + 1`.
    pub fn half_len(&self) -> usize {
        half_len(self.n)
    }

    /// Forward r2c transform: `out[k] = sum_j x[j] e^{-2 pi i j k / n}` for
    /// `k = 0..=n/2` (unnormalized).
    pub fn forward(&self, x: &[f64], out: &mut [Complex64], ws: &mut RealScratch) {
        assert_eq!(x.len(), self.n);
        self.forward_lines(x, out, ws);
    }

    /// [`Self::forward`] on every contiguous line of `x` (length `n` each)
    /// into the matching line of `out` (length `n/2 + 1` each).
    pub fn forward_lines(&self, x: &[f64], out: &mut [Complex64], ws: &mut RealScratch) {
        let (n, nh) = (self.n, self.half_len());
        assert_eq!(x.len() % n, 0);
        assert_eq!(out.len(), x.len() / n * nh);
        match &self.kind {
            RealKind::Even { half, tw } => {
                let m = n / 2;
                ws.a.resize(m * TILE, Complex64::ZERO);
                ws.b.resize(m * TILE, Complex64::ZERO);
                for (xs, os) in x.chunks(n * TILE).zip(out.chunks_mut(nh * TILE)) {
                    let b = xs.len() / n;
                    let (z, scratch) = (&mut ws.a[..m * b], &mut ws.b[..m * b]);
                    for (c, line) in xs.chunks_exact(n).enumerate() {
                        for (j, pair) in line.chunks_exact(2).enumerate() {
                            z[j * b + c] = Complex64::new(pair[0], pair[1]);
                        }
                    }
                    half.batch(None, z, scratch, b, Direction::Forward);
                    let split = |p: Complex64, q: Complex64, w: Complex64| {
                        let even = (p + q).scale(0.5);
                        let odd = (p - q) * Complex64::new(0.0, -0.5);
                        even + w * odd
                    };
                    for (c, line) in os.chunks_exact_mut(nh).enumerate() {
                        // Bins 0 and m both pair Z[0] with itself.
                        line[0] = split(z[c], z[c].conj(), tw[0]);
                        line[m] = split(z[c], z[c].conj(), tw[m]);
                        for k in 1..m {
                            line[k] = split(z[k * b + c], z[(m - k) * b + c].conj(), tw[k]);
                        }
                    }
                }
            }
            RealKind::Full { plan } => {
                ws.a.resize(n, Complex64::ZERO);
                ws.b.resize(n, Complex64::ZERO);
                for (line, o) in x.chunks_exact(n).zip(out.chunks_exact_mut(nh)) {
                    for (z, &v) in ws.a.iter_mut().zip(line) {
                        *z = Complex64::from_real(v);
                    }
                    plan.batch(None, &mut ws.a, &mut ws.b, 1, Direction::Forward);
                    o.copy_from_slice(&ws.a[..nh]);
                }
            }
        }
    }

    /// Inverse c2r transform with `1/n` normalization, so that
    /// `inverse(forward(x)) == x` up to rounding. The input half spectrum
    /// is assumed Hermitian-consistent (as produced by [`Self::forward`] or
    /// any real symbol applied to it).
    pub fn inverse(&self, spec: &[Complex64], out: &mut [f64], ws: &mut RealScratch) {
        assert_eq!(out.len(), self.n);
        self.inverse_lines(spec, out, ws);
    }

    /// [`Self::inverse`] on every contiguous line of `spec` (length
    /// `n/2 + 1` each) into the matching line of `out` (length `n` each).
    pub fn inverse_lines(&self, spec: &[Complex64], out: &mut [f64], ws: &mut RealScratch) {
        let (n, nh) = (self.n, self.half_len());
        assert_eq!(out.len() % n, 0);
        assert_eq!(spec.len(), out.len() / n * nh);
        match &self.kind {
            RealKind::Even { half, tw } => {
                let m = n / 2;
                ws.a.resize(m * TILE, Complex64::ZERO);
                ws.b.resize(m * TILE, Complex64::ZERO);
                for (ss, os) in spec.chunks(nh * TILE).zip(out.chunks_mut(n * TILE)) {
                    let b = ss.len() / nh;
                    let (z, scratch) = (&mut ws.a[..m * b], &mut ws.b[..m * b]);
                    for (c, line) in ss.chunks_exact(nh).enumerate() {
                        for k in 0..m {
                            let xk = line[k];
                            let xmk = line[m - k].conj();
                            let even = (xk + xmk).scale(0.5);
                            let odd = tw[k].conj() * (xk - xmk).scale(0.5);
                            z[k * b + c] = even + Complex64::I * odd;
                        }
                    }
                    half.batch(None, z, scratch, b, Direction::Inverse);
                    for (c, line) in os.chunks_exact_mut(n).enumerate() {
                        for (j, pair) in line.chunks_exact_mut(2).enumerate() {
                            let v = z[j * b + c];
                            (pair[0], pair[1]) = (v.re, v.im);
                        }
                    }
                }
            }
            RealKind::Full { plan } => {
                ws.a.resize(n, Complex64::ZERO);
                ws.b.resize(n, Complex64::ZERO);
                for (line, o) in spec.chunks_exact(nh).zip(out.chunks_exact_mut(n)) {
                    ws.a[..nh].copy_from_slice(line);
                    for k in nh..n {
                        ws.a[k] = line[n - k].conj();
                    }
                    plan.batch(None, &mut ws.a, &mut ws.b, 1, Direction::Inverse);
                    for (x, z) in o.iter_mut().zip(ws.a.iter()) {
                        *x = z.re;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_forward;

    fn bits(z: Complex64) -> (u64, u64) {
        (z.re.to_bits(), z.im.to_bits())
    }

    /// Extracts the stored half spectrum (bins `0..=n/2`) from a full complex
    /// spectrum of length `n`. The copy is bitwise.
    fn pack_half_spectrum(full: &[Complex64]) -> Vec<Complex64> {
        full[..half_len(full.len())].to_vec()
    }

    /// Reconstructs the full Hermitian-symmetric spectrum from half storage:
    /// bins `0..=n/2` are copied bitwise, bins `k > n/2` are set to
    /// `conj(half[n-k])` (exact — conjugation only flips a sign bit).
    fn unpack_half_spectrum(half: &[Complex64], n: usize) -> Vec<Complex64> {
        assert_eq!(half.len(), half_len(n), "half spectrum has n/2+1 bins");
        let mut full = vec![Complex64::ZERO; n];
        full[..half.len()].copy_from_slice(half);
        for k in half.len()..n {
            full[k] = half[n - k].conj();
        }
        full
    }

    #[test]
    fn r2c_matches_full_dft() {
        for n in 1..=20usize {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.3).collect();
            let full: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
            let expect = dft_forward(&full);
            let plan = RealFft1d::new(n);
            let mut out = vec![Complex64::ZERO; plan.half_len()];
            let mut ws = RealScratch::default();
            plan.forward(&x, &mut out, &mut ws);
            for (k, (a, b)) in out.iter().zip(expect.iter()).enumerate() {
                assert!((*a - *b).abs() < 1e-10 * n as f64, "n={n} k={k}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn dc_and_nyquist_bins_are_exactly_real() {
        for n in [2usize, 4, 6, 8, 12, 16] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() - 0.2).collect();
            let plan = RealFft1d::new(n);
            let mut out = vec![Complex64::ZERO; plan.half_len()];
            plan.forward(&x, &mut out, &mut RealScratch::default());
            assert_eq!(out[0].im.to_bits(), 0.0f64.to_bits(), "DC bin, n={n}");
            assert_eq!(out[n / 2].im.to_bits(), 0.0f64.to_bits(), "Nyquist bin, n={n}");
        }
    }

    #[test]
    fn roundtrip_is_tight() {
        for n in [1usize, 2, 3, 4, 5, 8, 11, 13, 16, 17, 30, 97, 128] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 2.0 - 0.5).collect();
            let plan = RealFft1d::new(n);
            let mut spec = vec![Complex64::ZERO; plan.half_len()];
            let mut back = vec![0.0; n];
            let mut ws = RealScratch::default();
            plan.forward(&x, &mut spec, &mut ws);
            plan.inverse(&spec, &mut back, &mut ws);
            for (a, b) in back.iter().zip(x.iter()) {
                assert!((a - b).abs() < 1e-12 * n as f64, "n={n}");
            }
        }
    }

    /// Satellite: half-spectrum pack/unpack round-trips Hermitian symmetry
    /// exactly (bitwise) for every edge length 2..=17 — the range covers
    /// all mixed radices, the even pack trick, odd fallbacks, and the
    /// Bluestein-sized prime 17.
    #[test]
    fn prop_half_spectrum_roundtrip_is_bitwise_exact() {
        diffreg_testkit::prop_check!(cases = 200, |rng| {
            let n = rng.int_in(2, 17) as usize;
            let x: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let plan = RealFft1d::new(n);
            let mut half = vec![Complex64::ZERO; plan.half_len()];
            plan.forward(&x, &mut half, &mut RealScratch::default());

            let full = unpack_half_spectrum(&half, n);
            // Hermitian symmetry of the reconstruction is exact for every
            // conjugate pair; self-conjugate bins (DC, and Nyquist for even
            // n) just need a vanishing imaginary part.
            for k in 0..n {
                if (n - k) % n == k {
                    assert!(full[k].im.abs() < 1e-12 * n as f64, "n={n} k={k}: {:?}", full[k]);
                } else {
                    assert_eq!(bits(full[(n - k) % n].conj()), bits(full[k]), "n={n} k={k}");
                }
            }
            // pack . unpack is the identity, bitwise.
            let packed = pack_half_spectrum(&full);
            assert_eq!(packed.len(), half.len());
            for (a, b) in packed.iter().zip(half.iter()) {
                assert_eq!(bits(*a), bits(*b), "n={n}");
            }
            // The reconstructed spectrum matches the full c2c transform.
            let cinput: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
            let reference = dft_forward(&cinput);
            for (a, b) in full.iter().zip(reference.iter()) {
                assert!((*a - *b).abs() < 1e-10 * n as f64, "n={n}");
            }
        });
    }
}
