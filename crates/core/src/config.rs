//! Solver configuration mirroring the paper's experimental knobs (§IV-A3).

use crate::distance::Distance;
use diffreg_interp::Kernel;
use diffreg_optim::NewtonOptions;
use diffreg_spectral::RegOrder;

/// Which second-order operator the Krylov solver inverts (paper §II-B-b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HessianKind {
    /// Gauss-Newton approximation: drop the λ terms of eq. (5). Guaranteed
    /// positive semidefinite; the paper's choice for all reported runs
    /// ("since the problem is non-convex ... we opt for a Gauss-Newton
    /// approximation").
    #[default]
    GaussNewton,
    /// The full Newton Hessian including the `div(λṽ)` source in the
    /// incremental adjoint and the `λ∇ρ̃` term in `b̃`. More accurate near
    /// the solution, costlier per matvec, and indefinite far from it (the
    /// PCG safeguard handles negative curvature).
    FullNewton,
}

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
    /// Interpolation kernel for the semi-Lagrangian scheme.
    pub kernel: Kernel,
    /// Gauss-Newton (paper default) or full Newton second-order operator.
    pub hessian: HessianKind,
    /// Image distance measure for the data term (SSD in the paper; NCC is
    /// the intensity-invariant extension of §II-A).
    pub distance: Distance,
    /// Apply the spectral `(β|k|^{2m} + 1)⁻¹` preconditioner in the Krylov
    /// solver (paper §III-A). Disable only for ablation studies.
    pub precondition: bool,
    /// Outer Newton-Krylov options (gtol = 1e-2 and quadratic forcing by
    /// default, as in the paper).
    pub newton: NewtonOptions,
    /// Checkpoint the continuation solve every this many accepted Newton
    /// iterations (`0` disables; only takes effect when the driver is also
    /// given an enabled
    /// [`CheckpointStore`](crate::checkpoint::CheckpointStore)).
    pub checkpoint_every: usize,
}

impl Default for RegistrationConfig {
    fn default() -> Self {
        Self {
            beta: 1e-2,
            reg: RegOrder::H2,
            nt: 4,
            incompressible: false,
            kernel: Kernel::Tricubic,
            hessian: HessianKind::GaussNewton,
            distance: Distance::Ssd,
            precondition: true,
            newton: NewtonOptions::default(),
            checkpoint_every: 0,
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

    /// Builder-style: checkpoint every `n` accepted Newton iterations
    /// (`0` disables).
    pub fn with_checkpoint_every(mut self, n: usize) -> Self {
        self.checkpoint_every = n;
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
        assert_eq!(c.checkpoint_every, 0, "checkpointing is opt-in");
    }

    #[test]
    fn builders_compose() {
        let c = RegistrationConfig::default().with_beta(1e-4).with_incompressible(true);
        assert_eq!(c.beta, 1e-4);
        assert!(c.incompressible);
    }
}
