//! The per-plan stencil table and its fused, contiguous evaluation loop.
//!
//! The scalar kernels in [`crate::kernel`] recompute base indices per point
//! per field, and every `GhostField::value` call re-derives its flat index
//! (with an integer `rem_euclid` on axis 2 per stencil node). For plan
//! reuse — the common case in the semi-Lagrangian loops, where one set of
//! departure points is evaluated against many fields — all of that is
//! loop-invariant. [`SoaStencils`] hoists it: the plan's routing pass finds
//! each point's cell once ([`crate::base_and_frac`], no library call on
//! departure points) and stores, per point, the flat offset of the
//! stencil's first node in the extended array (a `u32`) and the three
//! fractional positions `t` — 28 bytes. Storing `t`
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
//!
//! Values go wherever the caller's plan wants them: interleaved per point
//! for the wire ([`SoaStencils::eval`]), or one vector per field at given
//! local indices ([`SoaStencils::eval_into`], a rank's own points).

use std::ops::Range;

use diffreg_grid::{Block, GhostField, Grid};

use crate::kernel::{base_and_fracs, cubic_weights, dot, lerp_weights, Kernel, GHOST_WIDTH};

/// Precomputed per-point stencil data for a fixed set of points, valid for
/// any ghost field exchanged on the same decomposition (the extended-array
/// geometry is a function of the rank's block alone).
#[derive(Debug, Clone, Default)]
pub struct SoaStencils {
    /// First global index of the owning block on axes 0 and 1.
    start: [usize; 2],
    /// Extent of the owning block on axes 0 and 1.
    count: [usize; 2],
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
    /// Precomputes stencils for the `len` points of `points`, in order,
    /// interpolated on `grid` by the rank that owns `block`: every base
    /// index on axes 0 and 1 must lie inside the block.
    #[cfg(test)]
    pub(crate) fn build(grid: &Grid, block: &Block, len: usize, points: impl IntoIterator<Item = [f64; 3]>) -> Self {
        let mut s = Self::with_capacity(grid, block, len);
        s.extend(grid, points);
        debug_assert_eq!(s.len(), len, "point count differs from the one given");
        s
    }

    /// An empty table for the rank that owns `block`, with room for
    /// `capacity` points.
    pub(crate) fn with_capacity(grid: &Grid, block: &Block, capacity: usize) -> Self {
        let g = GHOST_WIDTH;
        let (e0, e1, e2) = (block.count[0] + 2 * g, block.count[1] + 2 * g, grid.n[2] + 2 * g);
        assert!(e0 * e1 * e2 <= u32::MAX as usize, "extended block too large for u32 stencil offsets");
        Self {
            start: [block.start[0], block.start[1]],
            count: [block.count[0], block.count[1]],
            plane: e1 * e2,
            row: e2,
            off: Vec::with_capacity(capacity),
            t: Vec::with_capacity(capacity),
        }
    }

    /// Appends the stencil of the point whose base indices and fractional
    /// positions ([`crate::base_and_frac`] per axis) are `b` and `t`.
    #[inline]
    pub(crate) fn push(&mut self, [b0, b1, b2]: [usize; 3], t: [f64; 3]) {
        let g = GHOST_WIDTH;
        debug_assert!(
            b0.wrapping_sub(self.start[0]) < self.count[0] && b1.wrapping_sub(self.start[1]) < self.count[1],
            "point routed to a rank that does not own its base cell"
        );
        // Extended index of node −1: global − (start − g) − 1 on axes 0
        // and 1, global + g − 1 on axis 2.
        let (r0, r1) = (b0 - self.start[0] + g - 1, b1 - self.start[1] + g - 1);
        self.off.push(((r0 * (self.count[1] + 2 * g) + r1) * self.row + b2 + g - 1) as u32);
        self.t.push(t);
    }

    /// Appends the stencils of `points`, in order.
    pub(crate) fn extend(&mut self, grid: &Grid, points: impl IntoIterator<Item = [f64; 3]>) {
        for x in points {
            let (b, t) = base_and_fracs(grid, x);
            self.push(b, t);
        }
    }

    /// Appends the stencils of `other`, a table of the same block, in order.
    pub(crate) fn append(&mut self, other: Self) {
        self.off.extend_from_slice(&other.off);
        self.t.extend_from_slice(&other.t);
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
        self.check(ghosts);
        // Up to three fields share one pass; more go three at a time.
        for (c, chunk) in ghosts.chunks(3).enumerate() {
            self.pass(chunk, kernel, range.clone(), |p, f, v| out[p * nf + 3 * c + f] = v);
        }
    }

    /// Evaluates points `range` like [`SoaStencils::eval`], but into one
    /// vector per field: point `p` lands at `outs[f][at[p − range.start]]`,
    /// or at `outs[f][p − range.start]` when `at` is `None`. This is how a
    /// rank writes its own points straight to their local indices.
    pub fn eval_into(
        &self,
        ghosts: &[&GhostField],
        kernel: Kernel,
        range: Range<usize>,
        at: Option<&[u32]>,
        outs: &mut [Vec<f64>],
    ) {
        self.check(ghosts);
        assert_eq!(outs.len(), ghosts.len(), "one output vector per field");
        for (chunk, outs) in ghosts.chunks(3).zip(outs.chunks_mut(3)) {
            match at {
                None => self.pass(chunk, kernel, range.clone(), |p, f, v| outs[f][p] = v),
                Some(at) => {
                    self.pass(chunk, kernel, range.clone(), |p, f, v| outs[f][at[p] as usize] = v)
                }
            }
        }
    }

    fn check(&self, ghosts: &[&GhostField]) {
        for g in ghosts {
            let ext = g.ext();
            assert_eq!(
                [ext[1] * ext[2], ext[2]],
                [self.plane, self.row],
                "ghost field was not exchanged on this plan's block with GHOST_WIDTH"
            );
        }
    }

    /// One walk over `range` for up to three fields, handing each value to
    /// `put(point, field, value)`.
    fn pass(
        &self,
        fields: &[&GhostField],
        kernel: Kernel,
        range: Range<usize>,
        put: impl FnMut(usize, usize, f64),
    ) {
        match fields.len() {
            1 => self.pass_nf::<1>(fields, kernel, range, put),
            2 => self.pass_nf::<2>(fields, kernel, range, put),
            _ => self.pass_nf::<3>(fields, kernel, range, put),
        }
    }

    fn pass_nf<const NF: usize>(
        &self,
        fields: &[&GhostField],
        kernel: Kernel,
        range: Range<usize>,
        put: impl FnMut(usize, usize, f64),
    ) {
        let data: [&[f64]; NF] = std::array::from_fn(|f| fields[f].data());
        match kernel {
            Kernel::Tricubic => self.run(data, 0, cubic_weights, range, put),
            Kernel::Trilinear => self.run(data, self.plane + self.row + 1, lerp_weights, range, put),
        }
    }

    /// The one evaluation loop: a `W³` stencil starting `shift` past the
    /// stored offset, per-axis weights `weights(t)` of the stored positions.
    /// The weights of a chunk of points are derived in a pass of their own
    /// before their stencils: `cubic_weights` divides twice per axis, and
    /// out of the stencil loop those divisions neither lengthen its
    /// dependency chains nor stay scalar (measured at 32³ on one field: about
    /// 1.45× the stored-weights time when derived per point, 1.25× per
    /// chunk). One field's linear weights `[1 − t, t]`, the Gauss-Newton
    /// matvec's case, are derived per point instead: for them the chunk pass
    /// only adds traffic (at 24×30×24, 103 µs chunked against 83 µs per
    /// point), while three fields still gain from it (about 190 against 206
    /// µs).
    fn run<const NF: usize, const W: usize>(
        &self,
        data: [&[f64]; NF],
        shift: usize,
        weights: impl Fn(f64) -> [f64; W],
        range: Range<usize>,
        mut put: impl FnMut(usize, usize, f64),
    ) {
        let (plane, row) = (self.plane, self.row);
        let mut stencil = |p: usize, off: u32, [w0, w1, w2]: &[[f64; W]; 3]| {
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
            for (f, a) in acc.iter().enumerate() {
                put(p, f, dot(a, w2));
            }
        };
        let (offs, ts) = (&self.off[range.clone()], &self.t[range]);
        if W == 2 && NF == 1 {
            for (p, (&off, t)) in offs.iter().zip(ts).enumerate() {
                stencil(p, off, &t.map(&weights));
            }
            return;
        }
        const CHUNK: usize = 64;
        let mut chunk_w = [[[0.0; W]; 3]; CHUNK];
        for (c, (offs, ts)) in offs.chunks(CHUNK).zip(ts.chunks(CHUNK)).enumerate() {
            for (w, t) in chunk_w.iter_mut().zip(ts) {
                *w = t.map(&weights);
            }
            for (q, (&off, w)) in offs.iter().zip(&chunk_w).enumerate() {
                stencil(c * CHUNK + q, off, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::base_and_frac;
    use diffreg_comm::SerialComm;
    use diffreg_grid::{exchange_ghost, Decomp, ScalarField};
    use std::f64::consts::TAU;

    /// The table loop against the scalar kernels, bit for bit, for both
    /// kernels and one to three fields in a pass. The points include grid
    /// nodes (`t = 0`) and the last double below 2π, which lands at `t = 1`
    /// on the axes of 6 and 12 points; the field is `−0.0` wherever a sine
    /// is negative, so a loop that did not start its sums from `0.0` would
    /// return `−0.0` where the kernels return `0.0`.
    #[test]
    fn soa_is_bit_identical_to_scalar_kernel() {
        let below_tau = f64::from_bits(TAU.to_bits() - 1);
        for n in [[8, 8, 8], [12, 6, 10], [7, 5, 9]] {
            let grid = Grid::new(n);
            let d = Decomp::new(grid, 1);
            let b = d.block(0);
            let probe = |x: [f64; 3]| (1.3 * x[0]).sin() * (0.7 * x[1]).cos() + (x[2] - x[0]).sin();
            let field = ScalarField::from_fn(&grid, b, |x| if x[1].sin() < 0.0 { -0.0 } else { probe(x) });
            let ghost = exchange_ghost(&SerialComm::new(), &d, &field, GHOST_WIDTH);
            let mut points: Vec<[f64; 3]> = (0..173)
                .map(|s| {
                    [
                        (0.37 * s as f64 + 0.11).rem_euclid(TAU),
                        (0.53 * s as f64 - 0.2).rem_euclid(TAU),
                        (0.71 * s as f64 + 1.4).rem_euclid(TAU),
                    ]
                })
                .collect();
            points.extend((0..b.len()).step_by(5).map(|l| {
                let gi = b.global_of_local(l);
                [grid.coord(0, gi[0]), grid.coord(1, gi[1]), grid.coord(2, gi[2])]
            }));
            points.extend([[below_tau; 3], [below_tau, 4.0, 0.0], [0.0, below_tau, 5.9]]);
            let fracs = |a: usize| points.iter().map(move |x| base_and_frac(x[a], n[a]).1);
            assert!((0..3).all(|a| fracs(a).any(|t| t == 0.0)));
            assert_eq!(n.contains(&6) || n.contains(&12), (0..3).any(|a| fracs(a).any(|t| t == 1.0)));

            let soa = SoaStencils::build(&grid, &b, points.len(), points.iter().copied());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for kernel in [Kernel::Tricubic, Kernel::Trilinear] {
                let want: Vec<f64> = points.iter().map(|&x| kernel.eval(&ghost, &grid, x)).collect();
                assert!(want.iter().any(|v| v.to_bits() == 0), "{kernel:?}: no +0.0 result to test");
                for nf in 1..=3 {
                    let mut got = vec![0.0; points.len() * nf];
                    soa.eval(&vec![&ghost; nf], kernel, 0..points.len(), &mut got);
                    for f in 0..nf {
                        let field_f: Vec<f64> = got.iter().skip(f).step_by(nf).copied().collect();
                        assert_eq!(bits(&field_f), bits(&want), "{n:?} {kernel:?}, field {f} of {nf}");
                    }
                }
            }
        }
    }

    /// The direct-to-field path writes the same bits as the interleaved
    /// one, at the given local indices.
    #[test]
    fn eval_into_scatters_to_the_given_indices() {
        let grid = Grid::new([6, 5, 7]);
        let d = Decomp::new(grid, 1);
        let b = d.block(0);
        let comm = SerialComm::new();
        let ghosts: Vec<GhostField> = (0..4)
            .map(|k| {
                let f = ScalarField::from_fn(&grid, b, |x| (x[0] + k as f64).sin() * x[1].cos() + x[2]);
                exchange_ghost(&comm, &d, &f, GHOST_WIDTH)
            })
            .collect();
        let points: Vec<[f64; 3]> =
            (0..40).map(|s| [0.3 * s as f64, 1.1 * s as f64 + 0.2, 0.7 * s as f64]).collect();
        let soa = SoaStencils::build(&grid, &b, points.len(), points.iter().copied());
        let at: Vec<u32> = (0..points.len() as u32).map(|i| (i * 7 + 3) % 40).collect();
        for kernel in [Kernel::Tricubic, Kernel::Trilinear] {
            for nf in 1..=4 {
                let fields: Vec<&GhostField> = ghosts[..nf].iter().collect();
                let mut inter = vec![0.0; points.len() * nf];
                soa.eval(&fields, kernel, 0..points.len(), &mut inter);
                let mut direct = vec![vec![0.0; points.len()]; nf];
                soa.eval_into(&fields, kernel, 0..points.len(), None, &mut direct);
                let mut scattered = vec![vec![0.0; points.len()]; nf];
                soa.eval_into(&fields, kernel, 0..points.len(), Some(&at), &mut scattered);
                for (p, vals) in inter.chunks_exact(nf).enumerate() {
                    for (f, v) in vals.iter().enumerate() {
                        assert_eq!(direct[f][p].to_bits(), v.to_bits());
                        assert_eq!(scattered[f][at[p] as usize].to_bits(), v.to_bits());
                    }
                }
            }
        }
    }
}
