//! Ghost-layer exchange for the spatial (pencil-input) layout.
//!
//! The tricubic interpolation stencil needs one plane below and two planes
//! above the base grid point of a departure point (paper §III-C2: "every
//! processor maintains a layer of ghost points"). Axes 0 and 1 are split
//! across ranks, so ghost planes are exchanged with the four pencil
//! neighbors; corners are obtained for free by exchanging axis 1 *after*
//! extending axis 0 (the paper's message-ordering trick). Axis 2 is fully
//! local: its periodic halo is filled by local copies after the two
//! exchanges (no message grows), so that a stencil is a contiguous run on
//! axis 2 instead of four wrapped gathers.

use diffreg_comm::Comm;

use crate::arena::{arena_f64, PooledVec};
use crate::field::ScalarField;
use crate::layout::Decomp;

const TAG_GHOST_UP: u64 = (1 << 59) + 1;
const TAG_GHOST_DOWN: u64 = (1 << 59) + 2;
const TAG_GHOST_LEFT: u64 = (1 << 59) + 3;
const TAG_GHOST_RIGHT: u64 = (1 << 59) + 4;

/// A rank's spatial block extended by `g` ghost planes on every axis.
#[derive(Debug, Clone)]
pub struct GhostField {
    /// Global index of element `[0,0,0]` of the extended array on axes 0, 1
    /// (can be negative: ghost planes wrap around the periodic domain).
    origin: [isize; 2],
    /// Extents of the extended array: `[c0 + 2g, c1 + 2g, n2 + 2g]`.
    ext: [usize; 3],
    /// Ghost width: global axis-2 index `i2 ∈ [0, n2)` sits at `i2 + g` of a row.
    g: usize,
    /// Arena-backed so the per-step exchanges of the semi-Lagrangian loops
    /// recycle one allocation per capacity class.
    data: PooledVec<f64>,
}

impl GhostField {
    /// Extents of the extended local array.
    pub fn ext(&self) -> [usize; 3] {
        self.ext
    }

    /// Value at global indices `(i0, i1, i2)`. `i0`/`i1` must lie within the
    /// extended range of this rank (owned ± ghost width, in unwrapped global
    /// coordinates relative to the owned slab); `i2` is wrapped periodically
    /// into the owned part of the row, so this accessor never reads the
    /// axis-2 halo and serves as the oracle for code that does.
    #[inline]
    pub fn value(&self, i0: isize, i1: isize, i2: isize) -> f64 {
        let r0 = i0 - self.origin[0];
        let r1 = i1 - self.origin[1];
        debug_assert!(
            r0 >= 0 && (r0 as usize) < self.ext[0] && r1 >= 0 && (r1 as usize) < self.ext[1],
            "ghost access out of range: ({i0},{i1}) origin {:?} ext {:?}",
            self.origin,
            self.ext
        );
        let n2 = self.ext[2] - 2 * self.g;
        let r2 = i2.rem_euclid(n2 as isize) as usize + self.g;
        self.data[(r0 as usize * self.ext[1] + r1 as usize) * self.ext[2] + r2]
    }

    /// Raw extended data (row-major, axis 2 fastest, halo included).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Global origin (axes 0, 1) of the extended array.
    pub fn origin(&self) -> [isize; 2] {
        self.origin
    }
}

/// Extracts planes `lo..hi` along axis 0 from a `(c0, c1, c2)` array.
fn slice_axis0(data: &[f64], c: [usize; 3], lo: usize, hi: usize) -> Vec<f64> {
    data[lo * c[1] * c[2]..hi * c[1] * c[2]].to_vec()
}

/// Extracts columns `lo..hi` along axis 1 from a `(c0, c1, c2)` array.
fn slice_axis1(data: &[f64], c: [usize; 3], lo: usize, hi: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(c[0] * (hi - lo) * c[2]);
    for i0 in 0..c[0] {
        let base = (i0 * c[1] + lo) * c[2];
        out.extend_from_slice(&data[base..base + (hi - lo) * c[2]]);
    }
    out
}

/// Copies rows of `n2` values from `src` into rows of `n2 + 2g` of `dst`,
/// filling the periodic axis-2 halo on both sides (modulo `n2`, so grids
/// with `n2 < g` wrap more than once).
fn put_rows(dst: &mut [f64], src: &[f64], n2: usize, g: usize) {
    for (d, s) in dst.chunks_exact_mut(n2 + 2 * g).zip(src.chunks_exact(n2)) {
        d[g..g + n2].copy_from_slice(s);
        for k in 0..g {
            d[k] = s[(k + g * n2 - g) % n2];
            d[g + n2 + k] = s[k % n2];
        }
    }
}

/// Performs the two-phase ghost exchange for one scalar field in the spatial
/// layout and fills the local axis-2 halo, returning the extended array.
/// On a 1×1 process grid nothing is exchanged, and the extended array is
/// the field wrapped on all three axes, built in one pass.
///
/// `comm` must be the communicator the decomposition was built for and
/// `field.block()` must equal `decomp.block(comm.rank())`.
/// Requires `g <=` every rank's local extent on axes 0 and 1.
pub fn exchange_ghost<C: Comm>(comm: &C, decomp: &Decomp, field: &ScalarField, g: usize) -> GhostField {
    let block = decomp.block(comm.rank());
    assert_eq!(field.block(), block, "field block does not match decomposition");
    let [c0, c1, _] = block.count;
    assert!(g <= c0 && g <= c1, "ghost width {g} exceeds local extent {c0}x{c1}");
    let data = if decomp.p1 == 1 && decomp.p2 == 1 {
        wrap_local(field.data(), block.count, g)
    } else {
        exchange_two_phase(comm, decomp, field, g)
    };
    GhostField {
        origin: [block.start[0] as isize - g as isize, block.start[1] as isize - g as isize],
        ext: [c0 + 2 * g, c1 + 2 * g, block.count[2] + 2 * g],
        g,
        data,
    }
}

/// The extended array of a rank that owns whole axis-0 planes and axis-1
/// rows: every extended row is a row of `data`, wrapped periodically on
/// axes 0 and 1, with its axis-2 halo filled as it is copied.
fn wrap_local(data: &[f64], [c0, c1, n2]: [usize; 3], g: usize) -> PooledVec<f64> {
    let e2 = n2 + 2 * g;
    let mut out = arena_f64((c0 + 2 * g) * (c1 + 2 * g) * e2);
    for (i0, dst) in out.chunks_exact_mut((c1 + 2 * g) * e2).enumerate() {
        let plane = &data[(i0 + c0 - g) % c0 * c1 * n2..][..c1 * n2];
        put_rows(&mut dst[..g * e2], &plane[(c1 - g) * n2..], n2, g);
        put_rows(&mut dst[g * e2..(g + c1) * e2], plane, n2, g);
        put_rows(&mut dst[(g + c1) * e2..], &plane[..g * n2], n2, g);
    }
    out
}

/// The extended array by the two-phase exchange: axis 0 first, then axis 1
/// of the axis-0-extended array (which carries the corners), then the
/// axis-2 halo.
fn exchange_two_phase<C: Comm>(
    comm: &C,
    decomp: &Decomp,
    field: &ScalarField,
    g: usize,
) -> PooledVec<f64> {
    let rank = comm.rank();
    let block = decomp.block(rank);
    let [c0, c1, n2] = block.count;
    let (r1, r2) = decomp.coords(rank);

    // ---- Phase 1: extend axis 0 to (c0 + 2g, c1, n2). ----
    let up = decomp.rank_of((r1 + 1) % decomp.p1, r2);
    let down = decomp.rank_of((r1 + decomp.p1 - 1) % decomp.p1, r2);
    // My top g planes become `up`'s lower ghost; my bottom g planes become
    // `down`'s upper ghost.
    let top = slice_axis0(field.data(), block.count, c0 - g, c0);
    let bottom = slice_axis0(field.data(), block.count, 0, g);
    let (ghost_below, ghost_above) = if decomp.p1 == 1 {
        (top, bottom)
    } else {
        let below = comm.sendrecv(up, top, down, TAG_GHOST_UP);
        let above = comm.sendrecv(down, bottom, up, TAG_GHOST_DOWN);
        (below, above)
    };
    let e0 = c0 + 2 * g;
    let mut phase1 = arena_f64(e0 * c1 * n2);
    let plane = c1 * n2;
    phase1[..g * plane].copy_from_slice(&ghost_below);
    phase1[g * plane..(g + c0) * plane].copy_from_slice(field.data());
    phase1[(g + c0) * plane..].copy_from_slice(&ghost_above);

    // ---- Phase 2: extend axis 1 to (c0 + 2g, c1 + 2g, n2). ----
    let right = decomp.rank_of(r1, (r2 + 1) % decomp.p2);
    let left = decomp.rank_of(r1, (r2 + decomp.p2 - 1) % decomp.p2);
    let pc = [e0, c1, n2];
    let rightmost = slice_axis1(&phase1, pc, c1 - g, c1);
    let leftmost = slice_axis1(&phase1, pc, 0, g);
    let (ghost_left, ghost_right) = if decomp.p2 == 1 {
        (rightmost, leftmost)
    } else {
        let l = comm.sendrecv(right, rightmost, left, TAG_GHOST_LEFT);
        let r = comm.sendrecv(left, leftmost, right, TAG_GHOST_RIGHT);
        (l, r)
    };
    // ---- Assemble (c0 + 2g, c1 + 2g, n2 + 2g); the axis-2 halo is local. ----
    let e1 = c1 + 2 * g;
    let e2 = n2 + 2 * g;
    let mut data = arena_f64(e0 * e1 * e2);
    for i0 in 0..e0 {
        let dst = &mut data[i0 * e1 * e2..(i0 + 1) * e1 * e2];
        put_rows(&mut dst[..g * e2], &ghost_left[i0 * g * n2..(i0 + 1) * g * n2], n2, g);
        put_rows(&mut dst[g * e2..(g + c1) * e2], &phase1[i0 * c1 * n2..(i0 + 1) * c1 * n2], n2, g);
        put_rows(&mut dst[(g + c1) * e2..], &ghost_right[i0 * g * n2..(i0 + 1) * g * n2], n2, g);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Grid;
    use diffreg_comm::{run_threaded, SerialComm};

    /// A function with no symmetry, evaluated on wrapped global indices.
    fn probe(grid: &Grid, i0: isize, i1: isize, i2: isize) -> f64 {
        let n = grid.n;
        let w = |i: isize, n: usize| i.rem_euclid(n as isize) as usize;
        let (a, b, c) = (w(i0, n[0]), w(i1, n[1]), w(i2, n[2]));
        (a * 10000 + b * 100 + c) as f64 + 0.25
    }

    fn check_ghost<C: Comm>(comm: &C, grid: Grid, decomp: Decomp, g: usize) {
        let block = decomp.block(comm.rank());
        let field = ScalarField::from_vec(
            block,
            (0..block.len())
                .map(|l| {
                    let gi = block.global_of_local(l);
                    probe(&grid, gi[0] as isize, gi[1] as isize, gi[2] as isize)
                })
                .collect(),
        );
        let ghost = exchange_ghost(comm, &decomp, &field, g);
        let s0 = block.start[0] as isize;
        let s1 = block.start[1] as isize;
        for i0 in (s0 - g as isize)..(s0 + block.count[0] as isize + g as isize) {
            for i1 in (s1 - g as isize)..(s1 + block.count[1] as isize + g as isize) {
                for i2 in -2..(grid.n[2] as isize + 2) {
                    let got = ghost.value(i0, i1, i2);
                    let expect = probe(&grid, i0, i1, i2);
                    assert_eq!(got, expect, "rank {} at ({i0},{i1},{i2})", comm.rank());
                }
            }
        }
        // The raw array over the full extended box, axis-2 halo included:
        // what the contiguous stencil loads read without going through
        // `value`'s wrap.
        let ext = ghost.ext();
        assert_eq!(ext, [block.count[0] + 2 * g, block.count[1] + 2 * g, grid.n[2] + 2 * g]);
        assert_eq!(ghost.data().len(), ext[0] * ext[1] * ext[2]);
        let gi = g as isize;
        for (l, &got) in ghost.data().iter().enumerate() {
            let r = [l / (ext[1] * ext[2]), l / ext[2] % ext[1], l % ext[2]];
            let (i0, i1, i2) = (s0 - gi + r[0] as isize, s1 - gi + r[1] as isize, r[2] as isize - gi);
            assert_eq!(got, probe(&grid, i0, i1, i2), "rank {} raw {r:?}", comm.rank());
        }
    }

    #[test]
    fn serial_ghost_wraps_periodically() {
        // The last grid has a single axis-2 plane: the halo wraps twice.
        for gdims in [[5, 6, 4], [4, 5, 1]] {
            let grid = Grid::new(gdims);
            let decomp = Decomp::new(grid, 1);
            check_ghost(&SerialComm::new(), grid, decomp, 2);
        }
    }

    #[test]
    fn one_pass_wrap_matches_two_phase_exchange() {
        // On a 1×1 process grid the one-pass array is the two-phase one bit
        // for bit, signed zeros included, at every ghost width a block
        // admits (the last grid wraps axis 2 twice).
        for (gdims, g) in [([5, 6, 4], 2), ([3, 2, 7], 1), ([6, 6, 6], 3), ([4, 5, 1], 2)] {
            let grid = Grid::new(gdims);
            let decomp = Decomp::new(grid, 1);
            let block = decomp.block(0);
            let vals = (0..block.len()).map(|l| if l % 7 == 3 { -0.0 } else { (l as f64 * 0.37).sin() });
            let field = ScalarField::from_vec(block, vals.collect());
            let comm = SerialComm::new();
            let one = exchange_ghost(&comm, &decomp, &field, g);
            let two = exchange_two_phase(&comm, &decomp, &field, g);
            assert_eq!(one.data().len(), two.len());
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(one.data()), bits(&two), "{gdims:?}, g = {g}");
        }
    }

    #[test]
    fn distributed_ghost_matches_function() {
        for (pgrid, gdims) in [((2, 2), [8, 8, 4]), ((2, 1), [5, 6, 3]), ((1, 3), [4, 9, 6]), ((4, 2), [9, 6, 2])] {
            let grid = Grid::new(gdims);
            let p = pgrid.0 * pgrid.1;
            run_threaded(p, move |comm| {
                let decomp = Decomp::with_process_grid(grid, pgrid.0, pgrid.1);
                check_ghost(comm, grid, decomp, 2);
            });
        }
    }

    #[test]
    fn two_rank_axis_sends_distinct_messages() {
        // p1 == 2 means the up and down neighbors are the same rank; the tag
        // scheme must keep the two ghost slabs apart.
        let grid = Grid::new([6, 4, 3]);
        run_threaded(2, move |comm| {
            let decomp = Decomp::with_process_grid(grid, 2, 1);
            check_ghost(comm, grid, decomp, 2);
        });
    }

    #[test]
    #[should_panic(expected = "ghost width")]
    fn rejects_oversized_ghost() {
        let grid = Grid::new([4, 4, 4]);
        let decomp = Decomp::new(grid, 1);
        let block = decomp.block(0);
        let field = ScalarField::zeros(block);
        exchange_ghost(&SerialComm::new(), &decomp, &field, 5);
    }
}
