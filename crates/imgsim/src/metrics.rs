//! Image-similarity metrics used by the experiments and figures.

use diffreg_comm::Comm;
use diffreg_grid::{Grid, ScalarField};

/// Sum-of-squared-differences data term `1/2 ||a − b||²_{L²}`.
pub fn ssd<C: Comm>(a: &ScalarField, b: &ScalarField, grid: &Grid, comm: &C) -> f64 {
    let mut r = a.clone();
    r.axpy(-1.0, b);
    0.5 * r.inner(&r, grid, comm)
}

/// Pointwise maximum absolute difference (global).
pub fn max_abs_diff<C: Comm>(a: &ScalarField, b: &ScalarField, comm: &C) -> f64 {
    let mut r = a.clone();
    r.axpy(-1.0, b);
    r.max_abs(comm)
}

/// Pearson correlation coefficient between two images (global).
pub fn correlation<C: Comm>(a: &ScalarField, b: &ScalarField, grid: &Grid, comm: &C) -> f64 {
    let n = grid.total() as f64;
    let mean_a = a.mean(grid, comm);
    let mean_b = b.mean(grid, comm);
    let mut sums = [0.0_f64; 3]; // cov, var_a, var_b
    for (x, y) in a.data().iter().zip(b.data()) {
        sums[0] += (x - mean_a) * (y - mean_b);
        sums[1] += (x - mean_a) * (x - mean_a);
        sums[2] += (y - mean_b) * (y - mean_b);
    }
    comm.allreduce(&mut sums, diffreg_comm::ReduceOp::Sum);
    let _ = n;
    sums[0] / (sums[1].sqrt() * sums[2].sqrt()).max(1e-300)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::SerialComm;
    use diffreg_grid::{Decomp, Layout};

    fn fields() -> (Grid, ScalarField, ScalarField) {
        let grid = Grid::cubic(8);
        let d = Decomp::new(grid, 1);
        let b = d.block(0, Layout::Spatial);
        let a = ScalarField::from_fn(&grid, b, |x| x[0].sin());
        let c = ScalarField::from_fn(&grid, b, |x| (x[0] - 0.4).sin());
        (grid, a, c)
    }

    #[test]
    fn ssd_of_identical_is_zero() {
        let (grid, a, _) = fields();
        let comm = SerialComm::new();
        assert_eq!(ssd(&a, &a, &grid, &comm), 0.0);
        assert_eq!(max_abs_diff(&a, &a, &comm), 0.0);
    }

    #[test]
    fn correlation_bounds() {
        let (grid, a, c) = fields();
        let comm = SerialComm::new();
        assert!((correlation(&a, &a, &grid, &comm) - 1.0).abs() < 1e-12);
        let corr = correlation(&a, &c, &grid, &comm);
        assert!(corr > 0.5 && corr < 1.0, "shifted sine correlation {corr}");
        let mut neg = a.clone();
        neg.scale(-1.0);
        assert!((correlation(&a, &neg, &grid, &comm) + 1.0).abs() < 1e-12);
    }
}
