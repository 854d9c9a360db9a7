//! # diffreg-grid
//!
//! Grid geometry, pencil domain decomposition, distributed fields, and
//! ghost-layer exchange for the registration solver.
//!
//! The decomposition mirrors AccFFT's pencil scheme (paper Fig. 4): a
//! `p1 x p2` process grid splits axes 0 and 1 of the image, and that
//! spatial block ([`Decomp::block`]) is the one layout a field has. The
//! mid and spectral layouts are stages inside the distributed FFT's
//! transposes, owned by `diffreg-pfft`. Fields store only the local block;
//! global reductions and ghost exchanges go through a
//! [`diffreg_comm::Comm`].

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp, clippy::let_underscore_must_use))]

mod arena;
mod field;
mod ghost;
mod layout;

pub use arena::{
    arena_counts, arena_f64, take_pooled, ArenaCounts, BufferPool, PooledVec, F64_ARENA,
};
pub use field::{ScalarField, VectorField};
pub use ghost::{exchange_ghost, GhostField};
pub use layout::{slab, slab_of, Block, Decomp, Grid};
