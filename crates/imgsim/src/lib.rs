//! # diffreg-imgsim
//!
//! Synthetic registration problems for the experiments (paper §IV-A1):
//! the analytic sin² phantom with known exact velocity (Fig. 5 / Tables
//! I-III), a multi-subject brain-phantom substitute for the NIREP data
//! (Fig. 6/7, Tables IV-V — see DESIGN.md substitution #4), similarity
//! metrics, and minimal image IO for the figure binaries.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod brain;
mod io;
mod metrics;
mod synthetic;

pub use brain::{two_subject_pair, BrainSubject, SUBJECT_A_SEED, SUBJECT_B_SEED};
pub use io::{axial_slice, write_pgm};
pub use metrics::{correlation, max_abs_diff, ssd};
pub use synthetic::{
    exact_velocity, exact_velocity_divfree, gather_full, template, template_fn, velocity_fn,
};
