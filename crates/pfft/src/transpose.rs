//! The pencil transpose: the alltoallv data rearrangement between the
//! three layouts of the distributed FFT (paper Fig. 4 b/c).
//!
//! Every transpose of the transform is one [`exchange`]: a row-major 3D
//! array whose axis `gather` is split over the group and whose axis `split`
//! is whole trades places, so that `gather` becomes whole and `split` is
//! split. Several fields travel together, their sub-boxes for one
//! destination concatenated in one message.

use diffreg_comm::Comm;
use diffreg_fft::Complex64;
use diffreg_grid::slab;

/// Row-major offsets of the contiguous last-axis runs of the sub-box
/// `start..start + count` of an array of extents `dims`, and their length.
fn runs(
    dims: [usize; 3],
    mut start: [usize; 3],
    mut count: [usize; 3],
) -> (impl Iterator<Item = usize> + Clone, usize) {
    let mut d = dims;
    if count[2] == d[2] {
        // Whole rows: axes 1 and 2 are one contiguous run.
        (d, start, count) = (
            [1, d[0], d[1] * d[2]],
            [0, start[0], start[1] * d[2]],
            [1, count[0], count[1] * d[2]],
        );
    }
    let offsets = (start[0]..start[0] + count[0]).flat_map(move |i0| {
        (start[1]..start[1] + count[1]).map(move |i1| (i0 * d[1] + i1) * d[2] + start[2])
    });
    (offsets, count[2])
}

/// `dims` with the extent of `axis` replaced by `(start, count)`.
fn with_slab(dims: [usize; 3], axis: usize, (s, c): (usize, usize)) -> ([usize; 3], [usize; 3]) {
    let (mut start, mut count) = ([0; 3], dims);
    (start[axis], count[axis]) = (s, c);
    (start, count)
}

/// Redistributes every field within `comm` (collective). `global` holds
/// the extents of the array the group shares (the axis that takes no part
/// at its local extent). On entry each field is this rank's slab of axis
/// `gather`, on exit its slab of axis `split`; one `alltoallv` carries all
/// fields. In a group of one this is the identity, and callers skip it.
pub(crate) fn exchange<C: Comm>(
    comm: &C,
    fields: &mut [&mut Vec<Complex64>],
    global: [usize; 3],
    gather: usize,
    split: usize,
) {
    let (p, me) = (comm.size(), comm.rank());
    let in_dims = with_slab(global, gather, slab(global[gather], p, me)).1;
    let out_dims = with_slab(global, split, slab(global[split], p, me)).1;
    let in_len: usize = in_dims.iter().product();
    // The send buffers are moved into alltoallv, so they cannot be pooled.
    let parts: Vec<Vec<Complex64>> = (0..p)
        .map(|d| {
            let (start, count) = with_slab(in_dims, split, slab(global[split], p, d));
            let (offsets, run) = runs(in_dims, start, count);
            let mut part = Vec::with_capacity(fields.len() * count.iter().product::<usize>());
            for f in fields.iter() {
                debug_assert_eq!(f.len(), in_len);
                for off in offsets.clone() {
                    part.extend_from_slice(&f[off..off + run]);
                }
            }
            part
        })
        .collect();
    let recvd = diffreg_telemetry::with_span("fft.transpose", || comm.alltoallv(parts));
    for f in fields.iter_mut() {
        f.resize(out_dims.iter().product(), Complex64::ZERO);
    }
    for (s, part) in recvd.iter().enumerate() {
        let (start, count) = with_slab(out_dims, gather, slab(global[gather], p, s));
        let (offsets, run) = runs(out_dims, start, count);
        let mut chunks = part.chunks_exact(run.max(1));
        for f in fields.iter_mut() {
            for (off, chunk) in offsets.clone().zip(&mut chunks) {
                f[off..off + run].copy_from_slice(chunk);
            }
        }
        debug_assert_eq!(part.len(), fields.len() * count.iter().product::<usize>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::{run_threaded, SerialComm};

    /// This rank's slab (along `axis`) of a global array whose element at
    /// flat global index `g` is `(g + shift, -g)`.
    fn local(global: [usize; 3], axis: usize, p: usize, me: usize, shift: f64) -> Vec<Complex64> {
        let (start, count) = with_slab(global, axis, slab(global[axis], p, me));
        let (offsets, run) = runs(global, start, count);
        offsets
            .flat_map(|off| (off..off + run).map(|g| Complex64::new(g as f64 + shift, -(g as f64))))
            .collect()
    }

    /// Placement and round trip of all four transposes of the transform
    /// (mid: axes 1 <-> 2 of `(a, NB, NC)`; spectral: axes 0 <-> 1 of
    /// `(NA, NB, c)`), two fields per exchange, uneven slabs.
    #[test]
    fn exchange_places_every_element_and_round_trips() {
        for (p, global, gather, split) in
            [(3usize, [2usize, 5, 6], 1usize, 2usize), (2, [7, 5, 3], 0, 1), (4, [3, 4, 9], 2, 1)]
        {
            run_threaded(p, move |comm| {
                let me = comm.rank();
                let mut a = local(global, gather, p, me, 0.0);
                let mut b = local(global, gather, p, me, 0.5);
                let input = a.clone();
                exchange(comm, &mut [&mut a, &mut b], global, gather, split);
                assert_eq!(a, local(global, split, p, me, 0.0));
                assert_eq!(b, local(global, split, p, me, 0.5));
                exchange(comm, &mut [&mut a, &mut b], global, split, gather);
                assert_eq!(a, input);
            });
        }
    }

    /// What the plan skips in a group of one is bitwise the identity.
    #[test]
    fn single_rank_exchange_is_the_identity() {
        let global = [2usize, 3, 4];
        let input = local(global, 1, 1, 0, 0.0);
        for (gather, split) in [(1, 2), (2, 1), (0, 1), (1, 0)] {
            let mut data = input.clone();
            exchange(&SerialComm::new(), &mut [&mut data], global, gather, split);
            assert_eq!(data, input);
        }
    }
}
