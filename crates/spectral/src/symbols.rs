//! Spectral symbols of the differential and regularization operators.
//!
//! All operators in the solver are Fourier multipliers: the Laplacian has
//! symbol `-|k|²`, the biharmonic `|k|⁴`, and the regularization operator of
//! order `m` has symbol `β|k|^{2m}`. Inverses are diagonal too, which is what
//! makes the Newton-Krylov preconditioner essentially free (paper §III-A).

/// Order of the Sobolev-seminorm regularization `β/2 ||∇^m v||²`.
///
/// The paper's default is the H²-seminorm (biharmonic gradient operator);
/// H¹ and H³ variants are common in the follow-up literature and share the
/// same code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOrder {
    /// H¹-seminorm: operator βΔ (symbol `β|k|²`).
    H1,
    /// H²-seminorm: operator βΔ² (symbol `β|k|⁴`), the paper's choice.
    H2,
    /// H³-seminorm: operator βΔ³ (symbol `β|k|⁶`).
    H3,
}

impl RegOrder {
    /// Exponent `m` with symbol `β |k|^{2m}`.
    pub fn order(self) -> u32 {
        match self {
            RegOrder::H1 => 1,
            RegOrder::H2 => 2,
            RegOrder::H3 => 3,
        }
    }

    /// Symbol `β |k|^{2m}` of the regularization operator at `|k|² = k2`.
    #[inline]
    pub fn symbol(self, beta: f64, k2: f64) -> f64 {
        beta * k2.powi(self.order() as i32)
    }

    /// Symbol of the shifted-inverse preconditioner `(β|k|^{2m} + 1)⁻¹`.
    ///
    /// The identity shift is the zeroth-order surrogate of the Gauss-Newton
    /// data term; the resulting preconditioner is mesh-independent but not
    /// β-independent, exactly the behaviour the paper reports (Table V).
    #[inline]
    pub fn precond_symbol(self, beta: f64, k2: f64) -> f64 {
        1.0 / (self.symbol(beta, k2) + 1.0)
    }
}

/// Symbol of the Laplacian, `-|k|²`.
#[inline]
pub fn laplacian(k2: f64) -> f64 {
    -k2
}

/// Symbol of the inverse Laplacian with the zero mode projected out.
#[inline]
pub fn inv_laplacian(k2: f64) -> f64 {
    if k2 == 0.0 {
        0.0
    } else {
        -1.0 / k2
    }
}

/// Symbol of the biharmonic operator, `|k|⁴`.
#[inline]
pub fn biharmonic(k2: f64) -> f64 {
    k2 * k2
}

/// Symbol of the inverse biharmonic with the zero mode projected out.
#[inline]
pub fn inv_biharmonic(k2: f64) -> f64 {
    if k2 == 0.0 {
        0.0
    } else {
        1.0 / (k2 * k2)
    }
}

/// Symbol of the Gaussian smoothing filter `exp(-σ²|k|²/2)`.
///
/// The paper smooths the input images with a Gaussian of bandwidth
/// `σ = 2π/N` (one grid cell) before registration.
#[inline]
pub fn gaussian(sigma: f64, k2: f64) -> f64 {
    (-0.5 * sigma * sigma * k2).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_symbols_scale_with_order() {
        let k2 = 4.0;
        assert_eq!(RegOrder::H1.symbol(2.0, k2), 8.0);
        assert_eq!(RegOrder::H2.symbol(2.0, k2), 32.0);
        assert_eq!(RegOrder::H3.symbol(2.0, k2), 128.0);
    }

    #[test]
    fn precond_is_inverse_of_shifted_reg() {
        for order in [RegOrder::H1, RegOrder::H2, RegOrder::H3] {
            for k2 in [0.0, 1.0, 9.0, 100.0] {
                let a = order.symbol(1e-2, k2) + 1.0;
                assert!((order.precond_symbol(1e-2, k2) * a - 1.0).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn inverse_symbols_cancel() {
        for k2 in [1.0, 2.0, 16.0] {
            assert!((laplacian(k2) * inv_laplacian(k2) - 1.0).abs() < 1e-15);
            assert!((biharmonic(k2) * inv_biharmonic(k2) - 1.0).abs() < 1e-15);
        }
        assert_eq!(inv_laplacian(0.0), 0.0);
        assert_eq!(inv_biharmonic(0.0), 0.0);
    }

    #[test]
    fn gaussian_is_monotone_lowpass() {
        assert_eq!(gaussian(0.5, 0.0), 1.0);
        assert!(gaussian(0.5, 1.0) > gaussian(0.5, 4.0));
        assert!(gaussian(0.5, 100.0) < 1e-5);
    }
}
