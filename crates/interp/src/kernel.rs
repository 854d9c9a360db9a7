//! Local interpolation kernels: tensor-product cubic Lagrange (tricubic,
//! 64 coefficients — paper §III-C2) and trilinear (the cheaper kernel most
//! competing packages use; kept for accuracy/ablation comparisons).

use diffreg_grid::{GhostField, Grid};
use std::f64::consts::TAU;

/// Ghost width the kernels require on axes 0 and 1: the cubic stencil spans
/// grid offsets −1..=+2 around the base point.
pub const GHOST_WIDTH: usize = 2;

/// Normalizes a physical coordinate on the periodic axis to `(base, frac)`:
/// the integer base grid index in `[0, n)` and the fractional offset in
/// `[0, 1)`. Requesters and owners must both use this exact function so
/// ownership and stencil arithmetic agree.
#[inline]
pub fn base_and_frac(x: f64, n: usize) -> (usize, f64) {
    let h = TAU / n as f64;
    let u = x.rem_euclid(TAU) / h;
    let mut base = u.floor() as isize;
    let mut t = u - base as f64;
    if base >= n as isize {
        // x was within rounding of 2π.
        base = n as isize - 1;
        t = 1.0;
    }
    debug_assert!(base >= 0);
    (base as usize, t)
}

/// The four cubic Lagrange weights at fractional position `t ∈ [0, 1]`
/// for stencil nodes at offsets −1, 0, 1, 2.
#[inline]
pub fn cubic_weights(t: f64) -> [f64; 4] {
    let t2 = t * t;
    let t3 = t2 * t;
    [
        -(t3 - 3.0 * t2 + 2.0 * t) / 6.0,
        (t3 - 2.0 * t2 - t + 2.0) / 2.0,
        -(t3 - t2 - 2.0 * t) / 2.0,
        (t3 - t) / 6.0,
    ]
}

/// Tricubic Lagrange interpolation of a ghosted field at physical point `x`.
///
/// The base index of `x` must lie inside this rank's owned slab (guaranteed
/// when the point arrived through the scatter plan).
pub fn tricubic(ghost: &GhostField, grid: &Grid, x: [f64; 3]) -> f64 {
    let (b0, t0) = base_and_frac(x[0], grid.n[0]);
    let (b1, t1) = base_and_frac(x[1], grid.n[1]);
    let (b2, t2) = base_and_frac(x[2], grid.n[2]);
    let w0 = cubic_weights(t0);
    let w1 = cubic_weights(t1);
    let w2 = cubic_weights(t2);
    let mut acc = 0.0;
    for (i, &wi) in w0.iter().enumerate() {
        let gi0 = b0 as isize + i as isize - 1;
        for (j, &wj) in w1.iter().enumerate() {
            let gi1 = b1 as isize + j as isize - 1;
            let wij = wi * wj;
            let mut line = 0.0;
            for (k, &wk) in w2.iter().enumerate() {
                let gi2 = b2 as isize + k as isize - 1;
                line += wk * ghost.value(gi0, gi1, gi2);
            }
            acc += wij * line;
        }
    }
    acc
}

/// Trilinear interpolation of a ghosted field at physical point `x`.
pub fn trilinear(ghost: &GhostField, grid: &Grid, x: [f64; 3]) -> f64 {
    let (b0, t0) = base_and_frac(x[0], grid.n[0]);
    let (b1, t1) = base_and_frac(x[1], grid.n[1]);
    let (b2, t2) = base_and_frac(x[2], grid.n[2]);
    let mut acc = 0.0;
    for i in 0..2 {
        let wi = if i == 0 { 1.0 - t0 } else { t0 };
        for j in 0..2 {
            let wj = if j == 0 { 1.0 - t1 } else { t1 };
            for k in 0..2 {
                let wk = if k == 0 { 1.0 - t2 } else { t2 };
                acc += wi * wj * wk
                    * ghost.value(
                        b0 as isize + i as isize,
                        b1 as isize + j as isize,
                        b2 as isize + k as isize,
                    );
            }
        }
    }
    acc
}

/// Interpolation kernel selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Tricubic Lagrange (the paper's kernel).
    #[default]
    Tricubic,
    /// Trilinear (baseline for the ablation study).
    Trilinear,
}

impl Kernel {
    /// Evaluates the kernel.
    #[inline]
    pub fn eval(self, ghost: &GhostField, grid: &Grid, x: [f64; 3]) -> f64 {
        match self {
            Kernel::Tricubic => tricubic(ghost, grid, x),
            Kernel::Trilinear => trilinear(ghost, grid, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::SerialComm;
    use diffreg_grid::{exchange_ghost, Decomp, Layout, ScalarField};

    fn make_ghost(grid: Grid, f: impl Fn([f64; 3]) -> f64) -> GhostField {
        let d = Decomp::new(grid, 1);
        let b = d.block(0, Layout::Spatial);
        let field = ScalarField::from_fn(&grid, b, f);
        exchange_ghost(&SerialComm::new(), &d, &field, GHOST_WIDTH)
    }

    #[test]
    fn cubic_weights_partition_unity() {
        for t in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let w = cubic_weights(t);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-14, "t = {t}");
        }
        // At nodes the weights are a Kronecker delta.
        assert_eq!(cubic_weights(0.0), [0.0, 1.0, 0.0, 0.0]);
        let w1 = cubic_weights(1.0);
        assert!((w1[2] - 1.0).abs() < 1e-14 && w1[0].abs() < 1e-14 && w1[1].abs() < 1e-14);
    }

    #[test]
    fn base_and_frac_wraps() {
        let (b, t) = base_and_frac(0.0, 8);
        assert_eq!((b, t), (0, 0.0));
        let (b, _) = base_and_frac(TAU - 1e-12, 8);
        assert!(b == 7 || b == 0);
        let (b, t) = base_and_frac(-0.1, 8);
        assert_eq!(b, 7);
        assert!(t > 0.0 && t < 1.0);
        let (b, t) = base_and_frac(TAU + 0.1, 8);
        assert_eq!(b, 0);
        assert!(t > 0.0);
    }

    #[test]
    fn tricubic_exact_on_trig_mode_one() {
        // Cubic interpolation of sin(x) on a fine grid is accurate to O(h^4).
        let grid = Grid::cubic(16);
        let ghost = make_ghost(grid, |x| x[0].sin() * x[1].cos() + 0.5 * x[2].sin());
        let f = |x: [f64; 3]| x[0].sin() * x[1].cos() + 0.5 * x[2].sin();
        let mut max_err: f64 = 0.0;
        for s in 0..50 {
            let x = [0.37 + 0.11 * s as f64, 1.9 + 0.07 * s as f64, 0.05 * s as f64];
            let x = [x[0].rem_euclid(TAU), x[1].rem_euclid(TAU), x[2].rem_euclid(TAU)];
            max_err = max_err.max((tricubic(&ghost, &grid, x) - f(x)).abs());
        }
        // O(h^4) with h = 2π/16 ≈ 0.39 gives ~1e-3.
        assert!(max_err < 2e-3, "tricubic error too large: {max_err}");
    }

    #[test]
    fn tricubic_reproduces_grid_values() {
        let grid = Grid::new([8, 6, 10]);
        let probe = |x: [f64; 3]| (1.7 * x[0]).sin() + (0.9 * x[1] * x[1]).cos() + x[2];
        let ghost = make_ghost(grid, probe);
        for i0 in 0..grid.n[0] {
            for i1 in 0..grid.n[1] {
                for i2 in (0..grid.n[2]).step_by(3) {
                    let x = [grid.coord(0, i0), grid.coord(1, i1), grid.coord(2, i2)];
                    let v = tricubic(&ghost, &grid, x);
                    assert!((v - probe(x)).abs() < 1e-12, "node ({i0},{i1},{i2})");
                }
            }
        }
    }

    #[test]
    fn tricubic_more_accurate_than_trilinear() {
        let grid = Grid::cubic(16);
        let f = |x: [f64; 3]| (x[0] + x[1]).sin() * x[2].cos();
        let ghost = make_ghost(grid, f);
        let mut e_cubic: f64 = 0.0;
        let mut e_lin: f64 = 0.0;
        for s in 0..100 {
            let x = [
                (0.21 * s as f64).rem_euclid(TAU),
                (0.37 * s as f64 + 0.2).rem_euclid(TAU),
                (0.13 * s as f64 + 1.0).rem_euclid(TAU),
            ];
            e_cubic = e_cubic.max((tricubic(&ghost, &grid, x) - f(x)).abs());
            e_lin = e_lin.max((trilinear(&ghost, &grid, x) - f(x)).abs());
        }
        assert!(e_cubic < e_lin / 10.0, "cubic {e_cubic} vs linear {e_lin}");
    }

    #[test]
    fn interpolation_near_periodic_boundary() {
        let grid = Grid::cubic(8);
        let f = |x: [f64; 3]| x[0].sin() + x[1].cos() * x[2].sin();
        let ghost = make_ghost(grid, f);
        // Points in the last cell of each axis exercise the wraparound stencil.
        let h = TAU / 8.0;
        for frac in [0.1, 0.5, 0.9] {
            let x = [TAU - h * frac, TAU - h * frac, TAU - h * frac];
            let v = tricubic(&ghost, &grid, x);
            assert!((v - f(x)).abs() < 0.02, "boundary point err {}", (v - f(x)).abs());
        }
    }
}
