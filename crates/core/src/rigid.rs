//! Rigid (translation) registration baseline for the paper's Fig. 1
//! comparison: a low-dimensional map that removes bulk misalignment but
//! leaves the deformable residual behind. On the periodic domain, rotations
//! are not well defined, so the rigid subset we implement is the
//! translation group; the deformable solver is what removes the rest.

use diffreg_comm::Comm;
use diffreg_grid::ScalarField;
use diffreg_transport::Workspace;

/// Result of the translation-registration baseline.
#[derive(Debug, Clone)]
pub struct RigidOutcome {
    /// The optimal shift `s` with registered image `ρ_T(x − s)`.
    pub shift: [f64; 3],
    /// Data term `1/2 ||ρ_T(x−s) − ρ_R||²` at the optimum.
    pub mismatch: f64,
    /// The shifted template.
    pub registered: ScalarField,
    /// Gradient-descent iterations performed.
    pub iterations: usize,
}

/// Registers `rho_t` to `rho_r` over the translation group by gradient
/// descent with Armijo backtracking. Shifts are applied spectrally (exact
/// for band-limited images).
pub fn register_translation<C: Comm>(
    ws: &Workspace<C>,
    rho_t: &ScalarField,
    rho_r: &ScalarField,
    max_iter: usize,
) -> RigidOutcome {
    let grid = ws.grid();
    let objective = |s: [f64; 3]| -> (f64, ScalarField) {
        let shifted = ws.fft.translate(rho_t, s, ws.timers);
        let mut r = shifted.clone();
        r.axpy(-1.0, rho_r);
        (0.5 * r.inner(&r, &grid, ws.comm), shifted)
    };

    let mut s = [0.0_f64; 3];
    let (mut j, mut registered) = objective(s);
    let mut iterations = 0;
    for _ in 0..max_iter {
        // ∂J/∂s_a = ⟨ρ_T(x−s) − ρ_R, −∂_a ρ_T(x−s)⟩.
        let grad_img = ws.fft.gradient(&registered, ws.timers);
        let mut resid = registered.clone();
        resid.axpy(-1.0, rho_r);
        let mut g = [0.0_f64; 3];
        for (ga, comp) in g.iter_mut().zip(&grad_img.comps) {
            *ga = -resid.inner(comp, &grid, ws.comm);
        }
        let gnorm2 = g.iter().map(|v| v * v).sum::<f64>();
        if gnorm2.sqrt() < 1e-10 {
            break;
        }
        // Backtracking line search along −g.
        let mut step = 1.0 / gnorm2.sqrt().max(1.0);
        let mut advanced = false;
        for _ in 0..25 {
            let trial = [s[0] - step * g[0], s[1] - step * g[1], s[2] - step * g[2]];
            let (jt, img) = objective(trial);
            if jt < j - 1e-4 * step * gnorm2 {
                s = trial;
                j = jt;
                registered = img;
                advanced = true;
                break;
            }
            step *= 0.5;
        }
        iterations += 1;
        if !advanced {
            break;
        }
    }
    RigidOutcome { shift: s, mismatch: j, registered, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::SerialComm;
    use diffreg_grid::Grid;
    use diffreg_transport::SessionParts;

    #[test]
    fn recovers_pure_translation() {
        let grid = Grid::cubic(16);
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        let ws = parts.workspace(&comm);
        let true_shift = [0.5, -0.3, 0.2];
        let img = |x: [f64; 3]| x[0].sin() * x[1].cos() + 0.4 * (x[2] + 2.0 * x[0]).sin();
        let rho_t = ScalarField::from_fn(&grid, ws.block(), img);
        let rho_r = ScalarField::from_fn(&grid, ws.block(), |x| {
            img([x[0] - true_shift[0], x[1] - true_shift[1], x[2] - true_shift[2]])
        });
        let out = register_translation(&ws, &rho_t, &rho_r, 100);
        for (a, (got, want)) in out.shift.iter().zip(&true_shift).enumerate() {
            assert!((got - want).abs() < 1e-3, "axis {a}: {got} vs {want}");
        }
        let initial = {
            let mut r = rho_t.clone();
            r.axpy(-1.0, &rho_r);
            0.5 * r.inner(&r, &grid, &comm)
        };
        assert!(out.mismatch < 1e-4 * initial, "mismatch {} vs initial {initial}", out.mismatch);
    }

    #[test]
    fn cannot_remove_nonrigid_deformation() {
        // The Fig. 1 story: a translation helps, but a genuinely deformable
        // warp leaves substantial residual behind.
        let grid = Grid::cubic(16);
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        let ws = parts.workspace(&comm);
        let rho_t = ScalarField::from_fn(&grid, ws.block(), |x| {
            (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
        });
        // Non-rigid warp plus a bulk shift.
        let rho_r = ScalarField::from_fn(&grid, ws.block(), |x| {
            let y = [
                x[0] - 0.3 - 0.35 * x[1].sin(),
                x[1] - 0.1 + 0.25 * x[0].cos(),
                x[2],
            ];
            (y[0].sin().powi(2) + y[1].sin().powi(2) + y[2].sin().powi(2)) / 3.0
        });
        let initial = {
            let mut r = rho_t.clone();
            r.axpy(-1.0, &rho_r);
            0.5 * r.inner(&r, &grid, &comm)
        };
        let out = register_translation(&ws, &rho_t, &rho_r, 100);
        assert!(out.mismatch < initial, "translation must help somewhat");
        assert!(
            out.mismatch > 0.05 * initial,
            "translation alone must NOT solve a deformable problem: {} vs {initial}",
            out.mismatch
        );
    }
}
