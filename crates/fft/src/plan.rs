//! The user-facing 1D FFT plan, dispatching between the mixed-radix
//! Stockham kernel and the Bluestein fallback.

use crate::bluestein::BluesteinPlan;
use crate::complex::Complex64;
use crate::factor::is_smooth;
use crate::mixed::MixedRadixPlan;
use crate::nd::Direction;

#[derive(Debug, Clone)]
enum Kind {
    Mixed(MixedRadixPlan),
    Bluestein(BluesteinPlan),
}

/// A reusable plan for forward/inverse complex FFTs of one fixed length.
///
/// Plans are immutable and `Sync`; per-call scratch is passed in by the
/// caller so that one plan can be shared across ranks/threads.
#[derive(Debug, Clone)]
pub struct Fft1d {
    n: usize,
    kind: Kind,
}

impl Fft1d {
    /// Plans a transform of length `n > 0`. Smooth sizes (largest prime
    /// factor <= 13) use the mixed-radix Stockham kernel; everything else uses
    /// Bluestein.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let kind = if is_smooth(n) {
            Kind::Mixed(MixedRadixPlan::new(n))
        } else {
            Kind::Bluestein(BluesteinPlan::new(n))
        };
        Self { n, kind }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; plans of length zero cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transforms `batch` interleaved lines, element `i` of line `b` at
    /// `i * batch + b`: read from `src` when given, else from `data`, and
    /// written to `data`. `scratch` has the length of `data`. Forward is
    /// the unnormalized `exp(-2*pi*i*j*k/n)` convention, inverse carries
    /// `1/n`. This is the one entry point every other transform calls.
    pub fn batch(
        &self,
        src: Option<&[Complex64]>,
        data: &mut [Complex64],
        scratch: &mut [Complex64],
        batch: usize,
        dir: Direction,
    ) {
        let inv = dir == Direction::Inverse;
        match &self.kind {
            Kind::Mixed(p) => p.run(src, data, scratch, batch, inv),
            Kind::Bluestein(p) => {
                // Line by line; inverse(x) = conj(forward(conj(x))) / n.
                assert_eq!(data.len(), self.n * batch);
                let conj_if = |z: Complex64| if inv { z.conj() } else { z };
                let scale = if inv { 1.0 / self.n as f64 } else { 1.0 };
                let mut line = vec![Complex64::ZERO; self.n];
                let mut out = line.clone();
                for b in 0..batch {
                    for (i, l) in line.iter_mut().enumerate() {
                        *l = conj_if(src.map_or(data[i * batch + b], |s| s[i * batch + b]));
                    }
                    p.forward(&line, &mut out);
                    for (i, o) in out.iter().enumerate() {
                        data[i * batch + b] = conj_if(*o).scale(scale);
                    }
                }
            }
        }
    }

    /// In-place forward transform of one line; `scratch` is resized as needed.
    pub fn forward(&self, buf: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        scratch.resize(self.n, Complex64::ZERO);
        self.batch(None, buf, scratch, 1, Direction::Forward);
    }

    /// In-place inverse transform of one line with `1/n` normalization, so
    /// that `inverse(forward(x)) == x`.
    pub fn inverse(&self, buf: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        scratch.resize(self.n, Complex64::ZERO);
        self.batch(None, buf, scratch, 1, Direction::Inverse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_forward;

    #[test]
    fn dispatch_matches_naive() {
        for n in [1, 2, 3, 8, 17, 30, 97, 128, 300] {
            let input: Vec<Complex64> =
                (0..n).map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos())).collect();
            let expect = dft_forward(&input);
            let plan = Fft1d::new(n);
            let (mut out, mut scratch) = (vec![Complex64::ZERO; n], vec![Complex64::ZERO; n]);
            plan.batch(Some(&input), &mut out, &mut scratch, 1, Direction::Forward);
            for (a, b) in out.iter().zip(expect.iter()) {
                assert!((*a - *b).abs() < 1e-8 * n as f64);
            }
        }
    }

    #[test]
    fn roundtrip_in_place() {
        for n in [4, 7, 48, 101] {
            let orig: Vec<Complex64> =
                (0..n).map(|i| Complex64::new(i as f64, -(i as f64) * 0.25)).collect();
            let mut buf = orig.clone();
            let mut scratch = Vec::new();
            let plan = Fft1d::new(n);
            plan.forward(&mut buf, &mut scratch);
            plan.inverse(&mut buf, &mut scratch);
            for (a, b) in buf.iter().zip(orig.iter()) {
                assert!((*a - *b).abs() < 1e-9 * n as f64);
            }
        }
    }
}
