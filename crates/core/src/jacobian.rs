//! Deformation-map diagnostics: the determinant of the deformation gradient
//! `det(∇y₁)` and its classification (paper Fig. 2 and the det maps of
//! Fig. 7). A deformation is diffeomorphic iff `det(∇y₁) > 0` everywhere.

use diffreg_comm::Comm;
use diffreg_grid::{ScalarField, VectorField};
use diffreg_transport::{SemiLagrangian, Workspace};

/// Computes the displacement `u(1)` so that `y₁(x) = x + u(x)` for the map
/// generated by velocity `v` (paper eq. 1), using `nt` time steps.
pub fn displacement<C: Comm>(ws: &Workspace<C>, v: &VectorField, nt: usize) -> VectorField {
    let sl = SemiLagrangian::new(ws, v, nt);
    sl.solve_displacement(ws, v)
}

/// Computes `det(∇y₁) = det(I + ∇u)` pointwise from a displacement field,
/// with the nine partial derivatives evaluated spectrally.
pub fn det_deformation_gradient<C: Comm>(ws: &Workspace<C>, u: &VectorField) -> ScalarField {
    let g0 = ws.fft.gradient(&u.comps[0], ws.timers);
    let g1 = ws.fft.gradient(&u.comps[1], ws.timers);
    let g2 = ws.fft.gradient(&u.comps[2], ws.timers);
    let n = u.local_len();
    let mut det = Vec::with_capacity(n);
    for l in 0..n {
        // F = I + ∇u with F[a][b] = δ_ab + ∂u_a/∂x_b.
        let f = [
            [1.0 + g0.comps[0].data()[l], g0.comps[1].data()[l], g0.comps[2].data()[l]],
            [g1.comps[0].data()[l], 1.0 + g1.comps[1].data()[l], g1.comps[2].data()[l]],
            [g2.comps[0].data()[l], g2.comps[1].data()[l], 1.0 + g2.comps[2].data()[l]],
        ];
        det.push(
            f[0][0] * (f[1][1] * f[2][2] - f[1][2] * f[2][1])
                - f[0][1] * (f[1][0] * f[2][2] - f[1][2] * f[2][0])
                + f[0][2] * (f[1][0] * f[2][1] - f[1][1] * f[2][0]),
        );
    }
    ScalarField::from_vec(u.block(), det)
}

/// The deformation regimes of paper Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JacobianClass {
    /// `det < 0`: orientation flipped (material lines cross) — not
    /// diffeomorphic.
    NegativeDet,
    /// `det = 0` (numerically): the cell collapses to measure zero — all
    /// spatial information lost.
    SingularDet,
    /// `det ∈ (0, 1)`: admissible compression.
    Shrinking,
    /// `det = 1` (numerically): locally volume preserving.
    VolumePreserving,
    /// `det > 1`: admissible expansion.
    Expanding,
}

/// Classifies a single determinant value with tolerance `tol`.
pub fn classify(det: f64, tol: f64) -> JacobianClass {
    if det < -tol {
        JacobianClass::NegativeDet
    } else if det.abs() <= tol {
        JacobianClass::SingularDet
    } else if (det - 1.0).abs() <= tol {
        JacobianClass::VolumePreserving
    } else if det < 1.0 {
        JacobianClass::Shrinking
    } else {
        JacobianClass::Expanding
    }
}

/// Global summary statistics of a determinant field.
#[derive(Debug, Clone, Copy)]
pub struct DetGradStats {
    /// Global minimum of `det(∇y₁)`.
    pub min: f64,
    /// Global maximum of `det(∇y₁)`.
    pub max: f64,
    /// Global mean (≈ 1 for near-volume-preserving maps).
    pub mean: f64,
    /// Whether the map is diffeomorphic on the grid (min > 0).
    pub diffeomorphic: bool,
}

/// Computes [`DetGradStats`] with global reductions.
pub fn det_stats<C: Comm>(ws: &Workspace<C>, det: &ScalarField) -> DetGradStats {
    let min = det.min(ws.comm);
    let max = det.max(ws.comm);
    let mean = det.mean(&ws.grid(), ws.comm);
    DetGradStats { min, max, mean, diffeomorphic: min > 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::SerialComm;
    use diffreg_grid::Grid;
    use diffreg_transport::SessionParts;

    #[test]
    fn classification_regimes() {
        assert_eq!(classify(-0.5, 1e-6), JacobianClass::NegativeDet);
        assert_eq!(classify(0.0, 1e-6), JacobianClass::SingularDet);
        assert_eq!(classify(0.5, 1e-6), JacobianClass::Shrinking);
        assert_eq!(classify(1.0, 1e-6), JacobianClass::VolumePreserving);
        assert_eq!(classify(1.0 + 1e-9, 1e-6), JacobianClass::VolumePreserving);
        assert_eq!(classify(2.0, 1e-6), JacobianClass::Expanding);
    }

    #[test]
    fn identity_map_has_unit_determinant() {
        let grid = Grid::cubic(8);
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        let ws = parts.workspace(&comm);
        let u = VectorField::zeros(ws.block());
        let det = det_deformation_gradient(&ws, &u);
        for v in det.data() {
            assert!((v - 1.0).abs() < 1e-12);
        }
        let s = det_stats(&ws, &det);
        assert!(s.diffeomorphic);
        assert!((s.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_nan_determinant_is_not_diffeomorphic() {
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, Grid::cubic(4));
        let ws = parts.workspace(&comm);
        let mut det = det_deformation_gradient(&ws, &VectorField::zeros(ws.block()));
        det.data_mut()[3] = f64::NAN;
        let s = det_stats(&ws, &det);
        assert!(!s.diffeomorphic && s.min.is_nan() && s.max.is_nan(), "{s:?}");
    }

    #[test]
    fn analytic_displacement_determinant() {
        // u = (a sin(x0), 0, 0): F = diag(1 + a cos(x0), 1, 1),
        // det = 1 + a cos(x0).
        let grid = Grid::cubic(16);
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        let ws = parts.workspace(&comm);
        let a = 0.3;
        let u = VectorField::from_fn(&grid, ws.block(), |x| [a * x[0].sin(), 0.0, 0.0]);
        let det = det_deformation_gradient(&ws, &u);
        let expect = ScalarField::from_fn(&grid, ws.block(), |x| 1.0 + a * x[0].cos());
        for (g, e) in det.data().iter().zip(expect.data()) {
            assert!((g - e).abs() < 1e-10);
        }
    }

    #[test]
    fn incompressible_velocity_preserves_volume() {
        // div-free velocity: det(∇y₁) ≈ 1 everywhere (paper §II-A).
        let grid = Grid::cubic(16);
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        let ws = parts.workspace(&comm);
        let v = VectorField::from_fn(&grid, ws.block(), |x| {
            [0.3 * x[0].cos() * x[1].sin(), -0.3 * x[0].sin() * x[1].cos(), 0.0]
        });
        // Sanity: the field really is divergence-free.
        let div = ws.fft.divergence(&v, ws.timers);
        assert!(div.max_abs(&comm) < 1e-10);
        let u = displacement(&ws, &v, 8);
        let det = det_deformation_gradient(&ws, &u);
        let s = det_stats(&ws, &det);
        assert!(s.diffeomorphic);
        assert!((s.min - 1.0).abs() < 0.02 && (s.max - 1.0).abs() < 0.02,
            "det range [{}, {}] not ≈ 1", s.min, s.max);
    }

    #[test]
    fn compressible_velocity_changes_volume() {
        let grid = Grid::cubic(16);
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        let ws = parts.workspace(&comm);
        let v = VectorField::from_fn(&grid, ws.block(), |x| [0.4 * x[0].sin(), 0.0, 0.0]);
        let u = displacement(&ws, &v, 8);
        let det = det_deformation_gradient(&ws, &u);
        let s = det_stats(&ws, &det);
        assert!(s.diffeomorphic, "moderate deformation must stay diffeomorphic");
        assert!(s.max > 1.1 && s.min < 0.9, "volume change expected: [{}, {}]", s.min, s.max);
    }
}
