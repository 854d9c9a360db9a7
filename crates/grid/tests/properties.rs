//! Seeded property tests of the decomposition and field algebra invariants:
//! slab partitions, local/global index round-trips, block tilings, and the
//! axpy/scale/inner-product algebra of fields.

use diffreg_comm::SerialComm;
use diffreg_grid::{slab, slab_of, Block, Decomp, Grid, ScalarField};
use diffreg_testkit::prop_check;

#[test]
fn slab_is_a_partition() {
    prop_check!(cases = 64, |rng| {
        let n = rng.int_in(1, 500) as usize;
        let p = rng.int_in(1, 16).min(n as i64) as usize;
        let mut next = 0;
        for i in 0..p {
            let (s, c) = slab(n, p, i);
            assert_eq!(s, next, "slabs must be contiguous");
            assert!(c >= n / p && c <= n / p + 1, "balanced within one");
            for idx in s..s + c {
                assert_eq!(slab_of(n, p, idx), i);
            }
            next = s + c;
        }
        assert_eq!(next, n, "slabs must cover [0, n)");
    });
}

#[test]
fn block_local_global_roundtrip() {
    prop_check!(cases = 64, |rng| {
        let start = [rng.index(20), rng.index(20), rng.index(20)];
        let count = [1 + rng.index(7), 1 + rng.index(7), 1 + rng.index(7)];
        let b = Block { start, count };
        for l in 0..b.len() {
            let g = b.global_of_local(l);
            assert!(b.contains(g));
            assert_eq!(b.local_index(g), l);
        }
    });
}

#[test]
fn decomp_blocks_tile_the_grid() {
    prop_check!(cases = 32, |rng| {
        let n = [4 + rng.index(8), 4 + rng.index(8), 4 + rng.index(8)];
        let p1 = 1 + rng.index(3.min(n[0]).min(n[1]));
        let p2 = 1 + rng.index(3.min(n[1]).min(n[2]));
        let grid = Grid::new(n);
        let d = Decomp::with_process_grid(grid, p1, p2);
        // Every global point is owned by exactly one rank.
        let mut seen = vec![0u8; grid.total()];
        for r in 0..d.size() {
            let b = d.block(r);
            for l in 0..b.len() {
                let g = b.global_of_local(l);
                seen[grid.flatten(g)] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{n:?} on {p1}x{p2}");
    });
}

#[test]
fn owner_lookup_agrees_with_blocks() {
    prop_check!(cases = 32, |rng| {
        let n = [4 + rng.index(6), 4 + rng.index(6), 4 + rng.index(6)];
        let p1 = 1 + rng.index(3.min(n[0]).min(n[1]));
        let p2 = 1 + rng.index(3.min(n[1]).min(n[2]));
        let grid = Grid::new(n);
        let d = Decomp::with_process_grid(grid, p1, p2);
        for i0 in 0..n[0] {
            for i1 in 0..n[1] {
                let owner = d.owner_spatial([i0, i1, 0]);
                assert!(d.block(owner).contains([i0, i1, 0]));
            }
        }
    });
}

#[test]
fn field_axpy_scale_algebra() {
    prop_check!(cases = 64, |rng| {
        let vals = rng.vec_uniform(8, -10.0, 10.0);
        let alpha = rng.uniform(-3.0, 3.0);
        let grid = Grid::new([2, 2, 2]);
        let d = Decomp::new(grid, 1);
        let block = d.block(0);
        let comm = SerialComm::new();
        let a = ScalarField::from_vec(block, vals.clone());
        // (a + alpha a) == (1 + alpha) a
        let mut b = a.clone();
        b.axpy(alpha, &a);
        let mut c = a.clone();
        c.scale(1.0 + alpha);
        for (x, y) in b.data().iter().zip(c.data()) {
            assert!((x - y).abs() < 1e-10);
        }
        // Cauchy-Schwarz: |<a,b>| <= |a||b|
        let ab = a.inner(&b, &grid, &comm).abs();
        let bound = a.norm(&grid, &comm) * b.norm(&grid, &comm);
        assert!(ab <= bound + 1e-9);
    });
}
