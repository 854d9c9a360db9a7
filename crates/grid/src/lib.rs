//! # diffreg-grid
//!
//! Grid geometry, pencil domain decomposition, distributed fields, and
//! ghost-layer exchange for the registration solver.
//!
//! The decomposition mirrors AccFFT's pencil scheme (paper Fig. 4): a
//! `p1 x p2` process grid splits axes 0 and 1 of the image in the spatial
//! layout; two further layouts ([`Layout::Mid`], [`Layout::Spectral`]) are
//! visited during distributed FFTs. Fields store only the local block;
//! global reductions and ghost exchanges go through a
//! [`diffreg_comm::Comm`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arena;
mod field;
mod ghost;
mod layout;

pub use arena::{
    arena_f64, take_pooled, BufferPool, PooledVec, ARENA_HIT_COUNTER, ARENA_MISS_COUNTER,
    F64_ARENA,
};
pub use field::{spatial_block, ScalarField, VectorField};
pub use ghost::{exchange_ghost, GhostField};
pub use layout::{slab, slab_of, Block, Decomp, Grid, Layout};
