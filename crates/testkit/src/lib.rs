//! # diffreg-testkit
//!
//! The in-tree deterministic test harness of the workspace. Everything in
//! here is plain `std` Rust — the workspace carries **zero crates.io
//! dependencies**, so `cargo build`/`cargo test` run fully offline, in any
//! sandbox, forever.
//!
//! The design follows the verification discipline of the source paper
//! (SC16 §IV) and of CLAIRE: every numerical kernel is pinned to a
//! *closed-form oracle* (plane waves for the spectral symbols, exactly
//! transported fields for semi-Lagrangian advection, adjoint-consistency
//! identities for the Hessian machinery), and every algebraic invariant is
//! exercised on *seeded* pseudo-random inputs that reproduce bit-for-bit
//! across runs, machines, and simulated MPI ranks.
//!
//! ## The pieces
//!
//! * [`Rng`] — a SplitMix64-seeded xoshiro256\*\* generator with `f64`,
//!   range, and `Vec` helpers. Same seed ⇒ same stream, everywhere. This is
//!   the only randomness source the workspace uses (it replaced
//!   `rand::StdRng`).
//! * [`prop_check!`] — a miniature property-testing layer that replaced
//!   `proptest`. It runs `N` seeded cases, shrinks the input *size* by
//!   halving when a case fails, and prints the failing seed so the exact
//!   case can be replayed:
//!
//!   ```text
//!   prop_check failed: seed=0x53a0c0ffee size=0.25 (case 17/64)
//!   re-run just this case with:  TESTKIT_SEED=0x53a0c0ffee TESTKIT_SIZE=0.25 cargo test ...
//!   ```
//!
//!   Setting `TESTKIT_SEED` (and optionally `TESTKIT_SIZE`) replays a single
//!   case; `TESTKIT_CASES` overrides the case count globally.
//! * [`bench`](crate::bench) — a median-of-K wall-clock micro-bench timer
//!   with warmup and JSON-line output; it replaced `criterion` in
//!   `diffreg-bench`.
//! * [`oracle`] — closed-form fields and checks: [`oracle::PlaneWave`]
//!   (exact ∇ / div / Δ / Δ⁻¹), [`oracle::Translation`] and the
//!   Taylor–Green invariant (exact semi-Lagrangian transport),
//!   [`oracle::GaussianPair`] (a registration problem with a known
//!   outcome), plus adjoint-symmetry and finite-difference gradient
//!   helpers.
//!
//! ## Example
//!
//! ```
//! use diffreg_testkit::{prop_check, Rng};
//!
//! prop_check!(cases = 32, |rng| {
//!     let n = rng.len_scaled(1, 64);
//!     let v = rng.vec_uniform(n, -1.0, 1.0);
//!     let sum: f64 = v.iter().sum();
//!     assert!(sum.abs() <= n as f64);
//! });
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod bench;
pub mod oracle;
pub mod prop;
mod rng;

pub use bench::{bench, bench_named, BenchResult};
pub use rng::{splitmix64, Rng};
