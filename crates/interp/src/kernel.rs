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
///
/// The result is bit for bit that of `x.rem_euclid(TAU)` followed by
/// `floor`, but without their library calls on the inputs departure points
/// produce (on a target without SSE4.1 both are software routines): within
/// one period either side of `[0, 2π)` the reduction is the one subtraction
/// or addition `rem_euclid` would make — `x − 2π` on `[2π, 4π)` is exact
/// (Sterbenz), `x + 2π` on `(−2π, 0)` is the same rounded add — and only
/// farther points call it. The reduced `u = r / h` is `≥ 0` or `−0.0`, so
/// truncation is `floor`.
#[inline]
pub fn base_and_frac(x: f64, n: usize) -> (usize, f64) {
    let h = TAU / n as f64;
    let r = if (0.0..TAU).contains(&x) {
        x
    } else if (TAU..2.0 * TAU).contains(&x) {
        x - TAU
    } else if x < 0.0 && x > -TAU {
        x + TAU
    } else {
        x.rem_euclid(TAU)
    };
    let u = r / h;
    let mut base = u as isize;
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

/// The two linear weights `[1 − t, t]` at fractional position `t`, for
/// stencil nodes at offsets 0, 1.
#[inline]
pub(crate) fn lerp_weights(t: f64) -> [f64; 2] {
    [1.0 - t, t]
}

/// `Σ_k a[k] · b[k]`, summed left to right.
#[inline]
pub(crate) fn dot<const W: usize>(a: &[f64; W], b: &[f64; W]) -> f64 {
    let mut s = 0.0;
    for k in 0..W {
        s += a[k] * b[k];
    }
    s
}

/// Tensor-product interpolation over a `W³` stencil whose first node is at
/// global index `first`, with per-axis weights `w`.
///
/// The summation order is the one the stencil table vectorizes
/// ([`crate::soa`]): each of the `W²` axis-2 runs is accumulated into `W`
/// lanes scaled by its `w0[i] · w1[j]`, and the lanes are contracted with the
/// axis-2 weights once at the end. This scalar form is the oracle the table
/// path is tested against bit for bit.
fn tensor<const W: usize>(ghost: &GhostField, first: [isize; 3], w: &[[f64; W]; 3]) -> f64 {
    let mut acc = [0.0; W];
    for (i, &wi) in w[0].iter().enumerate() {
        for (j, &wj) in w[1].iter().enumerate() {
            let wij = wi * wj;
            for (k, a) in acc.iter_mut().enumerate() {
                *a += wij
                    * ghost.value(first[0] + i as isize, first[1] + j as isize, first[2] + k as isize);
            }
        }
    }
    dot(&acc, &w[2])
}

/// Base indices and fractional positions of physical point `x` on `grid`,
/// per axis.
#[inline]
pub(crate) fn base_and_fracs(grid: &Grid, x: [f64; 3]) -> ([usize; 3], [f64; 3]) {
    let bt: [(usize, f64); 3] = std::array::from_fn(|a| base_and_frac(x[a], grid.n[a]));
    (bt.map(|(b, _)| b), bt.map(|(_, t)| t))
}

/// Tricubic Lagrange interpolation of a ghosted field at physical point `x`.
///
/// The base index of `x` must lie inside this rank's owned slab (guaranteed
/// when the point arrived through the scatter plan).
pub fn tricubic(ghost: &GhostField, grid: &Grid, x: [f64; 3]) -> f64 {
    let (b, t) = base_and_fracs(grid, x);
    tensor(ghost, b.map(|b| b as isize - 1), &t.map(cubic_weights))
}

/// Trilinear interpolation of a ghosted field at physical point `x`.
pub fn trilinear(ghost: &GhostField, grid: &Grid, x: [f64; 3]) -> f64 {
    let (b, t) = base_and_fracs(grid, x);
    tensor(ghost, b.map(|b| b as isize), &t.map(lerp_weights))
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
    use diffreg_grid::{exchange_ghost, Decomp, ScalarField};

    fn make_ghost(grid: Grid, f: impl Fn([f64; 3]) -> f64) -> GhostField {
        let d = Decomp::new(grid, 1);
        let b = d.block(0);
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

    /// The `rem_euclid` / `floor` form `base_and_frac` must equal.
    fn base_and_frac_oracle(x: f64, n: usize) -> (usize, f64) {
        let h = TAU / n as f64;
        let u = x.rem_euclid(TAU) / h;
        let mut base = u.floor() as isize;
        let mut t = u - base as f64;
        if base >= n as isize {
            base = n as isize - 1;
            t = 1.0;
        }
        (base as usize, t)
    }

    #[test]
    fn base_and_frac_is_bit_identical_to_rem_euclid_floor() {
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let pi4 = 2.0 * TAU;
        let mut xs = vec![
            0.0,
            -0.0,
            1e-300,
            -1e-300,
            -TAU,
            ulp_down(-TAU), // −2π + ulp: the magnitude shrinks by one ulp
            ulp_down(TAU),
            TAU,
            ulp_up(TAU),
            ulp_down(pi4),
            pi4,
            3.0 * TAU,
        ];
        let mut rng = diffreg_testkit::Rng::new(0x5eed_ba5e);
        xs.extend((0..20_000).map(|_| rng.uniform(-pi4, 3.0 * TAU)));
        for n in [5, 6, 12, 24, 30, 32, 64, 75] {
            for &x in &xs {
                let (b, t) = base_and_frac(x, n);
                let (bo, to) = base_and_frac_oracle(x, n);
                assert_eq!((b, t.to_bits()), (bo, to.to_bits()), "x = {x:e} ({:#x}), n = {n}", x.to_bits());
            }
        }
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
