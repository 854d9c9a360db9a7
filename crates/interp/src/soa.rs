//! The per-plan stencil table and its fused, contiguous evaluation loop.
//!
//! The scalar kernels in [`crate::kernel`] recompute base indices per point
//! per field, and every `GhostField::value` call re-derives its flat index
//! (with a `rem_euclid` on the hot path). For plan reuse — the common case
//! in the semi-Lagrangian loops, where one set of departure points is
//! evaluated against many fields — all of that is loop-invariant.
//! [`SoaStencils`] hoists it: one precompute pass per plan stores, per
//! point, the flat offset of the stencil's first node in the extended array
//! (a `u32`) and the three fractional positions `t` — 28 bytes. Storing `t`
//! rather than the twelve cubic weights (100 bytes) keeps the plans small —
//! several are live at the line search's peak — at the price of deriving
//! the weights per point per call, once for all fields of the call.
//!
//! Because `exchange_ghost` materialises the periodic halo on axis 2 as
//! well, a 4³ stencil is sixteen contiguous runs of four values at
//! `off + i·plane + j·row`: no wrapped index, one bounds check per run.
//! Evaluation walks the table **once per call** for all fields of the call:
//! per `(i, j)` one product `w0[i]·w1[j]` shared by every field, four
//! independent lanes `acc[k] += wij · run[k]` per field (which the compiler
//! keeps in vector registers), and one final contraction with the axis-2
//! weights. That is the exact arithmetic order of the scalar kernels
//! (`kernel::tensor`), and the weights come from the same functions of the
//! same `t` (`cubic_weights`, `[1 − t, t]`), so results are bit-identical
//! and differentially testable. The trilinear kernel reads the same table:
//! its 2³ corner is `off + plane + row + 1`.

use std::ops::Range;

use diffreg_grid::{Block, GhostField, Grid};

use crate::kernel::{base_and_fracs, cubic_weights, dot, lerp_weights, Kernel, GHOST_WIDTH};

/// Precomputed per-point stencil data for a fixed set of points, valid for
/// any ghost field exchanged on the same decomposition (the extended-array
/// geometry is a function of the rank's block alone).
#[derive(Debug, Clone, Default)]
pub struct SoaStencils {
    /// Extended-array stride of one axis-0 plane, `(c1 + 2g)(n2 + 2g)`.
    plane: usize,
    /// Extended-array stride of one axis-1 row, `n2 + 2g`.
    row: usize,
    /// Flat extended-array offset of stencil node `(−1, −1, −1)` per point.
    off: Vec<u32>,
    /// Fractional position of the point in its base cell per axis, in `[0, 1]`.
    t: Vec<[f64; 3]>,
}

impl SoaStencils {
    /// Precomputes stencils for the points of `batches` (consumed batch by
    /// batch, in order) interpolated on `grid` by the rank that owns
    /// `block`: every base index on axes 0 and 1 must lie inside the block.
    pub fn build(grid: &Grid, block: &Block, batches: Vec<Vec<[f64; 3]>>) -> Self {
        let g = GHOST_WIDTH;
        let (e0, e1, e2) = (block.count[0] + 2 * g, block.count[1] + 2 * g, grid.n[2] + 2 * g);
        assert!(e0 * e1 * e2 <= u32::MAX as usize, "extended block too large for u32 stencil offsets");
        let total = batches.iter().map(Vec::len).sum();
        let mut s = Self {
            plane: e1 * e2,
            row: e2,
            off: Vec::with_capacity(total),
            t: Vec::with_capacity(total),
        };
        for x in batches.into_iter().flatten() {
            let ([b0, b1, b2], t) = base_and_fracs(grid, x);
            debug_assert!(
                b0.wrapping_sub(block.start[0]) < block.count[0]
                    && b1.wrapping_sub(block.start[1]) < block.count[1],
                "point routed to a rank that does not own its base cell"
            );
            // Extended index of node −1: global − (start − g) − 1 on axes
            // 0 and 1, global + g − 1 on axis 2.
            let (r0, r1) = (b0 - block.start[0] + g - 1, b1 - block.start[1] + g - 1);
            s.off.push(((r0 * e1 + r1) * e2 + b2 + g - 1) as u32);
            s.t.push(t);
        }
        s
    }

    /// Number of precomputed points.
    pub fn len(&self) -> usize {
        self.off.len()
    }

    /// True if no points were precomputed.
    pub fn is_empty(&self) -> bool {
        self.off.is_empty()
    }

    /// Evaluates points `range` against every field of `ghosts` in one walk
    /// over the table, into `out[(p − range.start) · nf + f]` — the
    /// interleaved per-point layout the scatter plan sends over the wire.
    /// Bit-identical to [`Kernel::eval`] per point and field.
    pub fn eval(&self, ghosts: &[&GhostField], kernel: Kernel, range: Range<usize>, out: &mut [f64]) {
        let nf = ghosts.len();
        for g in ghosts {
            let ext = g.ext();
            assert_eq!(
                [ext[1] * ext[2], ext[2]],
                [self.plane, self.row],
                "ghost field was not exchanged on this plan's block with GHOST_WIDTH"
            );
        }
        // Up to three fields share one pass; more go three at a time.
        for (c, chunk) in ghosts.chunks(3).enumerate() {
            let out = &mut out[3 * c..];
            match chunk.len() {
                1 => self.pass::<1>(chunk, kernel, range.clone(), out, nf),
                2 => self.pass::<2>(chunk, kernel, range.clone(), out, nf),
                _ => self.pass::<3>(chunk, kernel, range.clone(), out, nf),
            }
        }
    }

    fn pass<const NF: usize>(
        &self,
        fields: &[&GhostField],
        kernel: Kernel,
        range: Range<usize>,
        out: &mut [f64],
        stride: usize,
    ) {
        let data: [&[f64]; NF] = std::array::from_fn(|f| fields[f].data());
        match kernel {
            Kernel::Tricubic => self.run(data, 0, cubic_weights, range, out, stride),
            Kernel::Trilinear => {
                self.run(data, self.plane + self.row + 1, lerp_weights, range, out, stride)
            }
        }
    }

    /// The one evaluation loop: a `W³` stencil starting `shift` past the
    /// stored offset, per-axis weights `weights(t)` of the stored positions.
    /// The weights of a chunk of points are derived in a pass of their own
    /// before their stencils: `cubic_weights` divides twice per axis, and out
    /// of the stencil loop those divisions neither lengthen its dependency
    /// chains nor stay scalar (measured at 32³ on one field: about 1.45×
    /// the stored-weights time when derived per point, 1.25× per chunk).
    fn run<const NF: usize, const W: usize>(
        &self,
        data: [&[f64]; NF],
        shift: usize,
        weights: impl Fn(f64) -> [f64; W],
        range: Range<usize>,
        out: &mut [f64],
        stride: usize,
    ) {
        const CHUNK: usize = 64;
        let (plane, row) = (self.plane, self.row);
        let mut chunk_w = [[[0.0; W]; 3]; CHUNK];
        let chunks = self.off[range.clone()].chunks(CHUNK).zip(self.t[range].chunks(CHUNK));
        for (c, (offs, ts)) in chunks.enumerate() {
            for (w, t) in chunk_w.iter_mut().zip(ts) {
                *w = t.map(&weights);
            }
            for (q, (&off, [w0, w1, w2])) in offs.iter().zip(&chunk_w).enumerate() {
                let first = off as usize + shift;
                let mut acc = [[0.0; W]; NF];
                for (i, &wi) in w0.iter().enumerate() {
                    for (j, &wj) in w1.iter().enumerate() {
                        let wij = wi * wj;
                        let o = first + i * plane + j * row;
                        for (f, a) in acc.iter_mut().enumerate() {
                            let s = &data[f][o..o + W];
                            for k in 0..W {
                                a[k] += wij * s[k];
                            }
                        }
                    }
                }
                let p = c * CHUNK + q;
                for (f, a) in acc.iter().enumerate() {
                    out[p * stride + f] = dot(a, w2);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tricubic;
    use diffreg_comm::SerialComm;
    use diffreg_grid::{exchange_ghost, Decomp, ScalarField};
    use std::f64::consts::TAU;

    #[test]
    fn soa_is_bit_identical_to_scalar_kernel() {
        for n in [[8, 8, 8], [12, 6, 10], [7, 5, 9]] {
            let grid = Grid::new(n);
            let d = Decomp::new(grid, 1);
            let b = d.block(0);
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
            let soa = SoaStencils::build(&grid, &b, vec![points.clone()]);
            let mut got = vec![0.0; points.len()];
            soa.eval(&[&ghost], Kernel::Tricubic, 0..points.len(), &mut got);
            for (x, v) in points.iter().zip(&got) {
                let expect = tricubic(&ghost, &grid, *x);
                assert_eq!(*v, expect, "SoA diverged from scalar kernel at {x:?}");
            }
        }
    }
}
