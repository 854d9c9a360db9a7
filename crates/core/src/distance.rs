//! Image distance measures.
//!
//! The paper uses the L² (SSD) distance but notes that "there are no
//! significant changes in our formulation or algorithm if we would consider
//! other, popular distance measures" (§II-A footnote). This module
//! implements that extension: the distance enters the solver only through
//! the data-term value, the adjoint terminal condition `λ(1) = −∂J/∂ρ(1)`,
//! and the Gauss-Newton incremental terminal `λ̃(1)`.
//!
//! Implemented: SSD and normalized cross-correlation (NCC) in its
//! residual form `J = 1 − ⟨u,w⟩/(|u||w|) = ½|u/|u| − w/|w||²` with
//! mean-centered intensities — invariant to affine intensity rescaling of
//! either image, the property that makes it the standard choice for
//! inter-subject/-scanner data.

use diffreg_comm::Comm;
use diffreg_grid::{Grid, ScalarField};

/// The image-similarity functional of the data term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Distance {
    /// Squared L² distance `1/2 ||ρ(1) − ρ_R||²` (the paper's measure).
    #[default]
    Ssd,
    /// Normalized cross-correlation `1 − corr(ρ(1), ρ_R)`, invariant to
    /// affine intensity changes.
    Ncc,
}

/// Mean-centered copy of a field.
fn centered<C: Comm>(f: &ScalarField, grid: &Grid, comm: &C) -> ScalarField {
    let mut out = f.clone();
    let m = f.mean(grid, comm);
    for v in out.data_mut() {
        *v -= m;
    }
    out
}

/// The NCC moments `(u, w, a, b, c)` with `a = ⟨u,w⟩`, `b = ⟨u,u⟩`,
/// `c = ⟨w,w⟩` on centered fields.
struct NccMoments {
    u: ScalarField,
    w: ScalarField,
    a: f64,
    b: f64,
    c: f64,
}

fn ncc_moments<C: Comm>(
    rho1: &ScalarField,
    rho_r: &ScalarField,
    grid: &Grid,
    comm: &C,
) -> NccMoments {
    let u = centered(rho1, grid, comm);
    let w = centered(rho_r, grid, comm);
    let a = u.inner(&w, grid, comm);
    let b = u.inner(&u, grid, comm).max(1e-300);
    let c = w.inner(&w, grid, comm).max(1e-300);
    NccMoments { u, w, a, b, c }
}

impl Distance {
    /// Data-term value `J_data(ρ(1), ρ_R)`.
    pub fn evaluate<C: Comm>(
        self,
        rho1: &ScalarField,
        rho_r: &ScalarField,
        grid: &Grid,
        comm: &C,
    ) -> f64 {
        match self {
            Distance::Ssd => {
                let mut r = rho1.clone();
                r.axpy(-1.0, rho_r);
                0.5 * r.inner(&r, grid, comm)
            }
            Distance::Ncc => {
                let m = ncc_moments(rho1, rho_r, grid, comm);
                1.0 - m.a / (m.b * m.c).sqrt()
            }
        }
    }

    /// Adjoint terminal condition `λ(1) = −∂J_data/∂ρ(1)` (paper eq. 3 for
    /// SSD: `ρ_R − ρ(1)`).
    pub fn terminal_adjoint<C: Comm>(
        self,
        rho1: &ScalarField,
        rho_r: &ScalarField,
        grid: &Grid,
        comm: &C,
    ) -> ScalarField {
        match self {
            Distance::Ssd => {
                let mut lam = rho_r.clone();
                lam.axpy(-1.0, rho1);
                lam
            }
            Distance::Ncc => {
                // −∂J/∂ρ(1) = (w − (a/b) u) / √(bc); already zero-mean, so
                // the centering projection is a no-op.
                let m = ncc_moments(rho1, rho_r, grid, comm);
                let s = 1.0 / (m.b * m.c).sqrt();
                let mut lam = m.w.clone();
                lam.axpy(-m.a / m.b, &m.u);
                lam.scale(s);
                lam
            }
        }
    }

    /// Gauss-Newton incremental terminal `λ̃(1) = −(F'ᵀF') ρ̃(1)` for the
    /// residual form of the measure (paper eq. 5d for SSD: `−ρ̃(1)`).
    pub fn gn_terminal<C: Comm>(
        self,
        rho1: &ScalarField,
        rho_r: &ScalarField,
        rho_tilde1: &ScalarField,
        grid: &Grid,
        comm: &C,
    ) -> ScalarField {
        match self {
            Distance::Ssd => {
                let mut t = rho_tilde1.clone();
                t.scale(-1.0);
                t
            }
            Distance::Ncc => {
                // F(u) = u/√b − w/√c, F' = (I − ûûᵀ)/√b with û = u/√b, so
                // F'ᵀF' δ = (δ − û⟨û,δ⟩)/b on centered δ.
                let m = ncc_moments(rho1, rho_r, grid, comm);
                let delta = centered(rho_tilde1, grid, comm);
                let ud = m.u.inner(&delta, grid, comm) / m.b;
                let mut t = delta;
                t.axpy(-ud, &m.u);
                t.scale(-1.0 / m.b);
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::SerialComm;
    use diffreg_grid::Decomp;

    fn setup() -> (Grid, ScalarField, ScalarField) {
        let grid = Grid::cubic(8);
        let b = Decomp::new(grid, 1).block(0);
        let f = ScalarField::from_fn(&grid, b, |x| x[0].sin() + 0.3 * x[1].cos());
        let g = ScalarField::from_fn(&grid, b, |x| (x[0] - 0.4).sin() + 0.2 * x[2].sin());
        (grid, f, g)
    }

    #[test]
    fn ssd_basics() {
        let (grid, f, g) = setup();
        let comm = SerialComm::new();
        assert_eq!(Distance::Ssd.evaluate(&f, &f, &grid, &comm), 0.0);
        assert!(Distance::Ssd.evaluate(&f, &g, &grid, &comm) > 0.0);
        // Terminal adjoint of matched images vanishes.
        let lam = Distance::Ssd.terminal_adjoint(&f, &f, &grid, &comm);
        assert!(lam.max_abs(&comm) < 1e-14);
    }

    #[test]
    fn ncc_range_and_perfect_match() {
        let (grid, f, g) = setup();
        let comm = SerialComm::new();
        let self_val = Distance::Ncc.evaluate(&f, &f, &grid, &comm);
        assert!(self_val.abs() < 1e-12, "NCC(f, f) must be 0, got {self_val}");
        let val = Distance::Ncc.evaluate(&f, &g, &grid, &comm);
        assert!(val > 0.0 && val <= 2.0);
    }

    #[test]
    fn ncc_is_invariant_to_intensity_rescaling() {
        let (grid, f, g) = setup();
        let comm = SerialComm::new();
        let base = Distance::Ncc.evaluate(&f, &g, &grid, &comm);
        // ρ_R -> 3 ρ_R + 0.7 changes SSD drastically, NCC not at all.
        let mut g2 = g.clone();
        g2.scale(3.0);
        for v in g2.data_mut() {
            *v += 0.7;
        }
        let rescaled = Distance::Ncc.evaluate(&f, &g2, &grid, &comm);
        assert!((base - rescaled).abs() < 1e-12, "{base} vs {rescaled}");
        let ssd_base = Distance::Ssd.evaluate(&f, &g, &grid, &comm);
        let ssd_rescaled = Distance::Ssd.evaluate(&f, &g2, &grid, &comm);
        assert!((ssd_base - ssd_rescaled).abs() > 1.0, "SSD must not be invariant");
    }

    #[test]
    fn ncc_terminal_matches_finite_differences() {
        let (grid, f, g) = setup();
        let comm = SerialComm::new();
        let b = f.block();
        let dir = ScalarField::from_fn(&grid, b, |x| 0.3 * (x[0] + x[2]).cos() - 0.1 * x[1].sin());
        for dist in [Distance::Ssd, Distance::Ncc] {
            let lam = dist.terminal_adjoint(&f, &g, &grid, &comm);
            // ⟨−λ, dir⟩ must match d/dε J(f + ε dir).
            let gd = -lam.inner(&dir, &grid, &comm);
            let eps = 1e-6;
            let mut fp = f.clone();
            fp.axpy(eps, &dir);
            let mut fm = f.clone();
            fm.axpy(-eps, &dir);
            let fd = (dist.evaluate(&fp, &g, &grid, &comm) - dist.evaluate(&fm, &g, &grid, &comm))
                / (2.0 * eps);
            assert!(
                (gd - fd).abs() < 1e-6 * fd.abs().max(1.0),
                "{dist:?}: ⟨−λ,d⟩ = {gd} vs fd {fd}"
            );
        }
    }

    #[test]
    fn gn_terminal_is_negative_semidefinite_quadratic() {
        // ⟨−λ̃(1), ρ̃⟩ = ⟨F'ᵀF' ρ̃, ρ̃⟩ = |F' ρ̃|² ≥ 0.
        let (grid, f, g) = setup();
        let comm = SerialComm::new();
        let b = f.block();
        for (k, dist) in [Distance::Ssd, Distance::Ncc].into_iter().enumerate() {
            for s in 0..4 {
                let d = ScalarField::from_fn(&grid, b, |x| {
                    ((s as f64 + 1.0) * x[0] + k as f64 + x[1]).sin()
                });
                let t = dist.gn_terminal(&f, &g, &d, &grid, &comm);
                let quad = -t.inner(&d, &grid, &comm);
                assert!(quad >= -1e-12, "{dist:?}: quadratic form negative: {quad}");
            }
        }
    }
}
