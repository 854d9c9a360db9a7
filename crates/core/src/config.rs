//! Solver configuration: [`RegistrationConfig`] holds the paper's numerical
//! knobs (§IV-A3) only; where and how often a solve checkpoints is its
//! [`CheckpointStore`](crate::CheckpointStore)'s.

use crate::distance::Distance;
use diffreg_interp::Kernel;
use diffreg_optim::NewtonOptions;
use diffreg_spectral::RegOrder;

/// Configuration of one registration solve.
#[derive(Debug, Clone, Copy)]
pub struct RegistrationConfig {
    /// Regularization weight β (paper: 1e-2 for the scaling runs).
    pub beta: f64,
    /// Sobolev order of the regularization seminorm (paper: H², the
    /// biharmonic operator).
    pub reg: RegOrder,
    /// Number of semi-Lagrangian time steps (paper: nt = 4).
    pub nt: usize,
    /// Enforce `div v = 0` (volume/mass-preserving diffeomorphism) via the
    /// Leray projection.
    pub incompressible: bool,
    /// Interpolation kernel for the semi-Lagrangian scheme: the objective,
    /// the gradient, the line search and post-processing. The Gauss-Newton
    /// matvec (the paper's choice for all reported runs, §II-B-b) is
    /// trilinear whatever this says: an inexact Newton step needs only an
    /// approximate Hessian, and the gradient and the line search fix the
    /// answer.
    pub kernel: Kernel,
    /// Image distance measure for the data term (SSD in the paper; NCC is
    /// the intensity-invariant extension of §II-A).
    pub distance: Distance,
    /// Apply the spectral `(β|k|^{2m} + 1)⁻¹` preconditioner in the Krylov
    /// solver (paper §III-A). Disable only for ablation studies.
    pub precondition: bool,
    /// Outer Newton-Krylov options (gtol = 1e-2 and quadratic forcing by
    /// default, as in the paper).
    pub newton: NewtonOptions,
}

impl Default for RegistrationConfig {
    fn default() -> Self {
        Self {
            beta: 1e-2,
            reg: RegOrder::H2,
            nt: 4,
            incompressible: false,
            kernel: Kernel::Tricubic,
            distance: Distance::Ssd,
            precondition: true,
            newton: NewtonOptions::default(),
        }
    }
}

impl RegistrationConfig {
    /// Builder-style: set β.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Builder-style: enable the incompressibility constraint.
    pub fn with_incompressible(mut self, on: bool) -> Self {
        self.incompressible = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RegistrationConfig::default();
        assert_eq!(c.beta, 1e-2);
        assert_eq!(c.nt, 4);
        assert_eq!(c.reg, RegOrder::H2);
        assert!(!c.incompressible);
        assert_eq!(c.newton.gtol, 1e-2);
    }

    #[test]
    fn builders_compose() {
        let c = RegistrationConfig::default().with_beta(1e-4).with_incompressible(true);
        assert_eq!(c.beta, 1e-4);
        assert!(c.incompressible);
    }
}
