//! Branch-free structure-of-arrays tricubic evaluation.
//!
//! The scalar kernel in [`crate::kernel`] recomputes base indices, cubic
//! weights, and wrapped ghost offsets per point per field, and every
//! `GhostField::value` call re-derives its flat index (with a `rem_euclid`
//! on the hot path). For plan reuse — the common case in the
//! semi-Lagrangian loops, where one set of departure points is evaluated
//! against many fields — all of that is loop-invariant. [`SoaStencils`]
//! hoists it: one flat precompute pass per plan stores, per point, the
//! extended-array row/column of the stencil origin, the four wrapped
//! axis-2 offsets, and the twelve cubic weights. Evaluation is then a pure
//! gather + multiply-add loop with no branches, no index wrapping, and no
//! per-point trigonometry, in the exact arithmetic order of the scalar
//! kernel (so results are bit-identical and differentially testable).

use diffreg_grid::GhostField;
use diffreg_grid::Grid;

use crate::kernel::{base_and_frac, cubic_weights};

/// Precomputed per-point stencil data for a fixed set of points, valid for
/// any ghost field exchanged on the same decomposition (the extended-array
/// geometry is a function of the decomposition alone).
#[derive(Debug, Clone, Default)]
pub struct SoaStencils {
    /// Extended-array axis-0 index of stencil row 0 (`b0 - origin0 - 1`).
    row0: Vec<u32>,
    /// Extended-array axis-1 index of stencil column 0.
    col0: Vec<u32>,
    /// Four wrapped axis-2 indices per point.
    i2: Vec<[u32; 4]>,
    /// Cubic weights per point: axis 0, axis 1, axis 2.
    w0: Vec<[f64; 4]>,
    w1: Vec<[f64; 4]>,
    w2: Vec<[f64; 4]>,
}

impl SoaStencils {
    /// Precomputes stencils for `points` interpolated on `grid` with ghost
    /// origin `origin` (axes 0 and 1; `start - GHOST_WIDTH`).
    pub fn build(grid: &Grid, origin: [isize; 2], points: &[[f64; 3]]) -> Self {
        let n = grid.n;
        let mut s = Self {
            row0: Vec::with_capacity(points.len()),
            col0: Vec::with_capacity(points.len()),
            i2: Vec::with_capacity(points.len()),
            w0: Vec::with_capacity(points.len()),
            w1: Vec::with_capacity(points.len()),
            w2: Vec::with_capacity(points.len()),
        };
        for &x in points {
            let (b0, t0) = base_and_frac(x[0], n[0]);
            let (b1, t1) = base_and_frac(x[1], n[1]);
            let (b2, t2) = base_and_frac(x[2], n[2]);
            let r0 = b0 as isize - origin[0] - 1;
            let c0 = b1 as isize - origin[1] - 1;
            debug_assert!(r0 >= 0 && c0 >= 0, "stencil origin outside extended array");
            s.row0.push(r0 as u32);
            s.col0.push(c0 as u32);
            let wrap =
                |k: isize| (b2 as isize + k - 1).rem_euclid(n[2] as isize) as u32;
            s.i2.push([wrap(0), wrap(1), wrap(2), wrap(3)]);
            s.w0.push(cubic_weights(t0));
            s.w1.push(cubic_weights(t1));
            s.w2.push(cubic_weights(t2));
        }
        s
    }

    /// Number of precomputed points.
    pub fn len(&self) -> usize {
        self.row0.len()
    }

    /// True if no points were precomputed.
    pub fn is_empty(&self) -> bool {
        self.row0.is_empty()
    }

    /// Evaluates point `p` against one ghosted field — bit-identical to the
    /// scalar tricubic kernel (same summation order: axis-2 line first,
    /// then row-column accumulation).
    #[inline]
    fn eval_point(&self, data: &[f64], e1: usize, e2: usize, p: usize) -> f64 {
        let r0 = self.row0[p] as usize;
        let c0 = self.col0[p] as usize;
        let i2 = self.i2[p];
        let (w0, w1, w2) = (self.w0[p], self.w1[p], self.w2[p]);
        let mut acc = 0.0;
        for (i, &wi) in w0.iter().enumerate() {
            let row = &data[(r0 + i) * e1 * e2..];
            for (j, &wj) in w1.iter().enumerate() {
                let plane = &row[(c0 + j) * e2..(c0 + j) * e2 + e2];
                let line = w2[0] * plane[i2[0] as usize]
                    + w2[1] * plane[i2[1] as usize]
                    + w2[2] * plane[i2[2] as usize]
                    + w2[3] * plane[i2[3] as usize];
                acc += (wi * wj) * line;
            }
        }
        acc
    }

    /// Evaluates points `lo..hi` into `out[(p - lo) * stride + offset]` —
    /// the interleaved per-point layout the scatter plan sends over the
    /// wire when batching several fields.
    pub fn eval_strided(
        &self,
        ghost: &GhostField,
        lo: usize,
        hi: usize,
        out: &mut [f64],
        stride: usize,
        offset: usize,
    ) {
        let ext = ghost.ext();
        let data = ghost.data();
        for p in lo..hi {
            out[(p - lo) * stride + offset] = self.eval_point(data, ext[1], ext[2], p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{tricubic, GHOST_WIDTH};
    use diffreg_comm::SerialComm;
    use diffreg_grid::{exchange_ghost, Decomp, Layout, ScalarField};
    use std::f64::consts::TAU;

    #[test]
    fn soa_is_bit_identical_to_scalar_kernel() {
        for n in [[8, 8, 8], [12, 6, 10], [7, 5, 9]] {
            let grid = Grid::new(n);
            let d = Decomp::new(grid, 1);
            let b = d.block(0, Layout::Spatial);
            let field = ScalarField::from_fn(&grid, b, |x| {
                (1.3 * x[0]).sin() * (0.7 * x[1]).cos() + (x[2] - x[0]).sin()
            });
            let ghost = exchange_ghost(&SerialComm::new(), &d, &field, GHOST_WIDTH);
            let points: Vec<[f64; 3]> = (0..173)
                .map(|s| {
                    [
                        (0.37 * s as f64 + 0.11).rem_euclid(TAU),
                        (0.53 * s as f64 - 0.2).rem_euclid(TAU),
                        (0.71 * s as f64 + 1.4).rem_euclid(TAU),
                    ]
                })
                .collect();
            let soa = SoaStencils::build(&grid, ghost.origin(), &points);
            let mut got = vec![0.0; points.len()];
            soa.eval_strided(&ghost, 0, points.len(), &mut got, 1, 0);
            for (x, v) in points.iter().zip(&got) {
                let expect = tricubic(&ghost, &grid, *x);
                assert_eq!(*v, expect, "SoA diverged from scalar kernel at {x:?}");
            }
        }
    }
}
