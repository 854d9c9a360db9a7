//! Line and multi-dimensional FFT drivers built on [`Fft1d::batch`].
//!
//! The kernel wants the transform axis slowest and the batch contiguous.
//! Axes 0 and 1 of a row-major array already look like that; contiguous
//! (last-axis) lines are transposed tile by tile into that shape.

use crate::complex::Complex64;
use crate::plan::Fft1d;

/// Contiguous lines transformed together: one `n x TILE` scratch tile.
pub(crate) const TILE: usize = 16;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward (`exp(-ikx)` convention, unnormalized).
    Forward,
    /// Inverse (with `1/n` normalization per transformed axis).
    Inverse,
}

/// Applies `plan` to every contiguous line of `data`.
///
/// `data.len()` must be a multiple of `plan.len()`; each chunk of
/// `plan.len()` consecutive elements is transformed independently.
pub fn transform_lines(plan: &Fft1d, data: &mut [Complex64], dir: Direction) {
    let n = plan.len();
    assert_eq!(data.len() % n, 0, "data length must be a multiple of line length");
    let mut tile = vec![Complex64::ZERO; n * TILE];
    let mut scratch = tile.clone();
    for lines in data.chunks_mut(n * TILE) {
        let b = lines.len() / n;
        let (tile, scratch) = (&mut tile[..n * b], &mut scratch[..n * b]);
        for (c, line) in lines.chunks_exact(n).enumerate() {
            for (i, z) in line.iter().enumerate() {
                tile[i * b + c] = *z;
            }
        }
        plan.batch(None, tile, scratch, b, dir);
        for (c, line) in lines.chunks_exact_mut(n).enumerate() {
            for (i, z) in line.iter_mut().enumerate() {
                *z = tile[i * b + c];
            }
        }
    }
}

/// Transforms axes 1 then 0 (forward) or 0 then 1 (inverse) of a row-major
/// `[n0, n1, c]` array whose last axis is the batch.
fn transform_outer_axes(
    plans: [&Fft1d; 2],
    data: &mut [Complex64],
    c: usize,
    dir: Direction,
) {
    let mut scratch = vec![Complex64::ZERO; data.len()];
    let slab = plans[1].len() * c;
    let axis1 = |data: &mut [Complex64], scratch: &mut [Complex64]| {
        for s in data.chunks_exact_mut(slab) {
            plans[1].batch(None, s, &mut scratch[..slab], c, dir);
        }
    };
    if dir == Direction::Forward {
        axis1(data, &mut scratch);
    }
    plans[0].batch(None, data, &mut scratch, slab, dir);
    if dir == Direction::Inverse {
        axis1(data, &mut scratch);
    }
}

/// A serial 3D FFT plan for a row-major array of shape `[n0, n1, n2]`
/// (axis 2 fastest).
#[derive(Debug, Clone)]
pub struct Fft3d {
    shape: [usize; 3],
    plans: [Fft1d; 3],
}

impl Fft3d {
    /// Plans a 3D transform for the given shape.
    pub fn new(shape: [usize; 3]) -> Self {
        Self { shape, plans: [Fft1d::new(shape[0]), Fft1d::new(shape[1]), Fft1d::new(shape[2])] }
    }

    /// Array shape `[n0, n1, n2]`.
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Always false for a constructed plan.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Full 3D forward transform (unnormalized).
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.len());
        transform_lines(&self.plans[2], data, Direction::Forward);
        let outer = [&self.plans[0], &self.plans[1]];
        transform_outer_axes(outer, data, self.shape[2], Direction::Forward);
    }

    /// Full 3D inverse transform (normalized by `1/(n0*n1*n2)` overall).
    pub fn inverse(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.len());
        let outer = [&self.plans[0], &self.plans[1]];
        transform_outer_axes(outer, data, self.shape[2], Direction::Inverse);
        transform_lines(&self.plans[2], data, Direction::Inverse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_3d(input: &[Complex64], shape: [usize; 3]) -> Vec<Complex64> {
        use crate::dft::dft_forward;
        let [n0, n1, n2] = shape;
        let mut a = input.to_vec();
        // axis 2
        for line in a.chunks_exact_mut(n2) {
            let t = dft_forward(line);
            line.copy_from_slice(&t);
        }
        // axis 1
        for i0 in 0..n0 {
            for i2 in 0..n2 {
                let line: Vec<Complex64> =
                    (0..n1).map(|i1| a[(i0 * n1 + i1) * n2 + i2]).collect();
                let t = dft_forward(&line);
                for i1 in 0..n1 {
                    a[(i0 * n1 + i1) * n2 + i2] = t[i1];
                }
            }
        }
        // axis 0
        for i1 in 0..n1 {
            for i2 in 0..n2 {
                let line: Vec<Complex64> =
                    (0..n0).map(|i0| a[(i0 * n1 + i1) * n2 + i2]).collect();
                let t = dft_forward(&line);
                for i0 in 0..n0 {
                    a[(i0 * n1 + i1) * n2 + i2] = t[i0];
                }
            }
        }
        a
    }

    #[test]
    fn matches_naive_3d() {
        for shape in [[4, 4, 4], [2, 3, 5], [7, 4, 3], [6, 1, 8]] {
            let n: usize = shape.iter().product();
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let expect = naive_3d(&input, shape);
            let plan = Fft3d::new(shape);
            let mut data = input.clone();
            plan.forward(&mut data);
            for (a, b) in data.iter().zip(expect.iter()) {
                assert!((*a - *b).abs() < 1e-8 * n as f64, "shape {shape:?}");
            }
            plan.inverse(&mut data);
            for (a, b) in data.iter().zip(input.iter()) {
                assert!((*a - *b).abs() < 1e-9 * n as f64);
            }
        }
    }
}
