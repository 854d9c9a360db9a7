//! Global grid geometry and the pencil domain decomposition (paper Fig. 4).
//!
//! The domain is Ω = [0, 2π)³ discretized with a periodic Cartesian grid of
//! `n = [n0, n1, n2]` points (axis 2 fastest in memory). The decomposition
//! follows AccFFT's pencil scheme: `p = p1 * p2` ranks arranged in a 2D grid.
//! A rank owns one block, the spatial one ([`Decomp::block`]): axis 0 split
//! by p1, axis 1 split by p2, axis 2 full. Every field lives there. The
//! distributed FFT passes through two transpose stages of its own — mid
//! (axis 1 full, axis 2 split by p2) and spectral (axis 0 full, axis 1 split
//! by p1, axis 2 split by p2) — whose extents it computes where it
//! transposes (`diffreg_pfft`).
//!
//! Block splits allow uneven extents (e.g. the brain grid 256 × 300 × 256 on
//! non-divisor rank counts): the first `n mod p` slabs get one extra plane.

use std::f64::consts::TAU;

/// Global periodic grid geometry on Ω = [0, 2π)³.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Points per axis `[n0, n1, n2]`.
    pub n: [usize; 3],
}

impl Grid {
    /// Creates a grid with the given extents (all must be positive).
    pub fn new(n: [usize; 3]) -> Self {
        assert!(n.iter().all(|&x| x > 0), "grid extents must be positive");
        Self { n }
    }

    /// Isotropic grid with `n` points per axis.
    pub fn cubic(n: usize) -> Self {
        Self::new([n, n, n])
    }

    /// Total number of grid points.
    pub fn total(&self) -> usize {
        self.n.iter().product()
    }

    /// Grid spacing per axis, `h_j = 2π / n_j`.
    pub fn spacing(&self) -> [f64; 3] {
        [TAU / self.n[0] as f64, TAU / self.n[1] as f64, TAU / self.n[2] as f64]
    }

    /// Volume of one grid cell, `h0*h1*h2` (the L² quadrature weight).
    pub fn cell_volume(&self) -> f64 {
        let h = self.spacing();
        h[0] * h[1] * h[2]
    }

    /// Physical coordinate of grid index `i` on `axis`.
    pub fn coord(&self, axis: usize, i: usize) -> f64 {
        TAU * i as f64 / self.n[axis] as f64
    }

    /// Converts `[i0,i1,i2]` to the flattened global row-major index.
    pub fn flatten(&self, i: [usize; 3]) -> usize {
        (i[0] * self.n[1] + i[1]) * self.n[2] + i[2]
    }
}

/// A contiguous index box: the region of the global grid a rank owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First owned global index per axis.
    pub start: [usize; 3],
    /// Owned extent per axis.
    pub count: [usize; 3],
}

impl Block {
    /// Number of points in the block.
    pub fn len(&self) -> usize {
        self.count.iter().product()
    }

    /// True if the block is degenerate (some axis empty).
    pub fn is_empty(&self) -> bool {
        self.count.contains(&0)
    }

    /// Whether the global index triple lies inside this block.
    pub fn contains(&self, i: [usize; 3]) -> bool {
        (0..3).all(|a| i[a] >= self.start[a] && i[a] < self.start[a] + self.count[a])
    }

    /// Local row-major linear index of a global triple (must be contained).
    pub fn local_index(&self, i: [usize; 3]) -> usize {
        debug_assert!(self.contains(i), "{i:?} outside block {self:?}");
        ((i[0] - self.start[0]) * self.count[1] + (i[1] - self.start[1])) * self.count[2]
            + (i[2] - self.start[2])
    }

    /// Global triple of a local linear index.
    pub fn global_of_local(&self, l: usize) -> [usize; 3] {
        let i2 = l % self.count[2];
        let rest = l / self.count[2];
        [self.start[0] + rest / self.count[1], self.start[1] + rest % self.count[1], self.start[2] + i2]
    }
}

/// Evenly splits `n` points over `p` slabs; slab `i` gets its `(start, count)`.
/// The first `n % p` slabs get one extra point.
pub fn slab(n: usize, p: usize, i: usize) -> (usize, usize) {
    debug_assert!(i < p);
    let q = n / p;
    let r = n % p;
    if i < r {
        (i * (q + 1), q + 1)
    } else {
        (r * (q + 1) + (i - r) * q, q)
    }
}

/// Inverse of [`slab`]: which slab owns global index `idx`.
pub fn slab_of(n: usize, p: usize, idx: usize) -> usize {
    debug_assert!(idx < n);
    let q = n / p;
    let r = n % p;
    let thresh = r * (q + 1);
    if q == 0 {
        // Fewer points than slabs: only the first n slabs own one point each.
        idx
    } else if idx < thresh {
        idx / (q + 1)
    } else {
        r + (idx - thresh) / q
    }
}

/// The pencil decomposition: a `p1 x p2` process grid over a [`Grid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomp {
    /// The global grid.
    pub grid: Grid,
    /// Process-grid extent over axis 0 (in the spatial layout).
    pub p1: usize,
    /// Process-grid extent over axis 1 (in the spatial layout).
    pub p2: usize,
}

impl Decomp {
    /// Creates a decomposition with an explicit process grid.
    pub fn with_process_grid(grid: Grid, p1: usize, p2: usize) -> Self {
        assert!(p1 > 0 && p2 > 0);
        assert!(
            p1 <= grid.n[0] && p2 <= grid.n[1] && p1 <= grid.n[1] && p2 <= grid.n[2],
            "process grid {p1}x{p2} too large for grid {:?} in some layout",
            grid.n
        );
        Self { grid, p1, p2 }
    }

    /// Chooses a near-square process grid `p1 x p2 = p` (p1 the divisor of `p`
    /// closest to √p that fits the grid), matching the paper's setup.
    pub fn new(grid: Grid, p: usize) -> Self {
        assert!(p > 0);
        let mut best: Option<(usize, usize)> = None;
        for p1 in 1..=p {
            if !p.is_multiple_of(p1) {
                continue;
            }
            let p2 = p / p1;
            if p1 > grid.n[0] || p1 > grid.n[1] || p2 > grid.n[1] || p2 > grid.n[2] {
                continue;
            }
            let score = (p1 as i64 - p2 as i64).abs();
            if best.is_none_or(|(b1, b2)| score < (b1 as i64 - b2 as i64).abs()) {
                best = Some((p1, p2));
            }
        }
        #[expect(
            clippy::panic,
            reason = "an infeasible rank/grid combination is a startup configuration error; aborting with the shape in the message is the intended behavior"
        )]
        let (p1, p2) = best.unwrap_or_else(|| panic!("cannot lay out {p} ranks on grid {:?}", grid.n));
        Self::with_process_grid(grid, p1, p2)
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.p1 * self.p2
    }

    /// Process-grid coordinates `(r1, r2)` of a rank.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.size());
        (rank / self.p2, rank % self.p2)
    }

    /// Rank of process-grid coordinates.
    pub fn rank_of(&self, r1: usize, r2: usize) -> usize {
        debug_assert!(r1 < self.p1 && r2 < self.p2);
        r1 * self.p2 + r2
    }

    /// The spatial block a rank owns: axis 0 split by p1, axis 1 by p2,
    /// axis 2 full.
    pub fn block(&self, rank: usize) -> Block {
        let (r1, r2) = self.coords(rank);
        let n = self.grid.n;
        let ((s0, c0), (s1, c1)) = (slab(n[0], self.p1, r1), slab(n[1], self.p2, r2));
        Block { start: [s0, s1, 0], count: [c0, c1, n[2]] }
    }

    /// Which rank owns global point `[i0, i1, i2]` in the spatial layout.
    pub fn owner_spatial(&self, i: [usize; 3]) -> usize {
        let r1 = slab_of(self.grid.n[0], self.p1, i[0]);
        let r2 = slab_of(self.grid.n[1], self.p2, i[1]);
        self.rank_of(r1, r2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_partition_covers_exactly() {
        for n in [1usize, 5, 7, 16, 300] {
            for p in 1..=n.min(9) {
                let mut covered = 0;
                let mut next = 0;
                for i in 0..p {
                    let (s, c) = slab(n, p, i);
                    assert_eq!(s, next);
                    next += c;
                    covered += c;
                    for idx in s..s + c {
                        assert_eq!(slab_of(n, p, idx), i, "n={n} p={p} idx={idx}");
                    }
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn block_indexing_roundtrip() {
        let b = Block { start: [2, 3, 0], count: [3, 4, 5] };
        for l in 0..b.len() {
            let g = b.global_of_local(l);
            assert!(b.contains(g));
            assert_eq!(b.local_index(g), l);
        }
        assert!(!b.contains([5, 3, 0]));
        assert!(!b.contains([2, 7, 0]));
    }

    #[test]
    fn decomp_blocks_tile_grid() {
        let grid = Grid::new([8, 6, 10]);
        for p in [1usize, 2, 4, 6] {
            let d = Decomp::new(grid, p);
            assert_eq!(d.size(), p);
            let total: usize = (0..p).map(|r| d.block(r).len()).sum();
            assert_eq!(total, grid.total(), "p={p}");
        }
    }

    #[test]
    fn owner_lookup_matches_blocks() {
        let grid = Grid::new([7, 9, 4]);
        let d = Decomp::with_process_grid(grid, 3, 2);
        for i0 in 0..7 {
            for i1 in 0..9 {
                let owner = d.owner_spatial([i0, i1, 0]);
                assert!(d.block(owner).contains([i0, i1, 0]));
            }
        }
    }

    #[test]
    fn grid_geometry() {
        let g = Grid::cubic(4);
        assert_eq!(g.total(), 64);
        let h = g.spacing();
        assert!((h[0] - TAU / 4.0).abs() < 1e-15);
        assert!((g.cell_volume() - h[0] * h[1] * h[2]).abs() < 1e-15);
        assert_eq!(g.coord(0, 0), 0.0);
    }

    #[test]
    fn near_square_process_grid() {
        let d = Decomp::new(Grid::cubic(64), 16);
        assert_eq!((d.p1, d.p2), (4, 4));
        let d = Decomp::new(Grid::cubic(64), 8);
        assert_eq!(d.p1 * d.p2, 8);
        assert!((d.p1 as i64 - d.p2 as i64).abs() <= 2);
    }
}
