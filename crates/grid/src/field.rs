//! Distributed scalar and vector fields plus the parallel linear algebra the
//! Newton-Krylov solver needs (inner products, norms, axpy).
//!
//! A field stores only its rank's local block (row-major, axis 2 fastest).
//! Global reductions go through the communicator.

use diffreg_comm::{Comm, ReduceOp};

use crate::layout::{Block, Grid};

/// A scalar field on one rank's block of the global grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarField {
    block: Block,
    data: Vec<f64>,
}

impl ScalarField {
    /// Zero-initialized field on `block`.
    pub fn zeros(block: Block) -> Self {
        Self { block, data: vec![0.0; block.len()] }
    }

    /// Field from existing local data (length must match the block).
    pub fn from_vec(block: Block, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), block.len(), "data length does not match block");
        Self { block, data }
    }

    /// Fills the field by evaluating `f(x)` at every owned grid point, where
    /// `x` is the physical coordinate in Ω = [0, 2π)³.
    pub fn from_fn(grid: &Grid, block: Block, mut f: impl FnMut([f64; 3]) -> f64) -> Self {
        let mut data = Vec::with_capacity(block.len());
        for l in 0..block.len() {
            let gi = block.global_of_local(l);
            let x = [grid.coord(0, gi[0]), grid.coord(1, gi[1]), grid.coord(2, gi[2])];
            data.push(f(x));
        }
        Self { block, data }
    }

    /// The owned block.
    pub fn block(&self) -> Block {
        self.block
    }

    /// Local data, immutable.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Local data, mutable.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the field, returning the local data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Number of locally owned points.
    pub fn local_len(&self) -> usize {
        self.data.len()
    }

    /// Sets all entries to a constant.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `self += alpha * other` (blocks must match).
    pub fn axpy(&mut self, alpha: f64, other: &ScalarField) {
        assert_eq!(self.block, other.block);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Local (this rank's) portion of the discrete L² inner product, without
    /// the quadrature weight.
    pub fn dot_local(&self, other: &ScalarField) -> f64 {
        assert_eq!(self.block, other.block);
        self.data.iter().zip(&other.data).map(|(x, y)| x * y).sum()
    }

    /// Global discrete L²(Ω) inner product `∫ self * other dx` (trapezoid on
    /// the periodic grid = cell volume times the lattice sum).
    pub fn inner<C: Comm>(&self, other: &ScalarField, grid: &Grid, comm: &C) -> f64 {
        comm.sum_f64(self.dot_local(other)) * grid.cell_volume()
    }

    /// Global L² norm.
    pub fn norm<C: Comm>(&self, grid: &Grid, comm: &C) -> f64 {
        self.inner(self, grid, comm).sqrt()
    }

    /// Global maximum absolute value (NaN if any entry is NaN, like every
    /// reduction below).
    pub fn max_abs<C: Comm>(&self, comm: &C) -> f64 {
        comm.max_f64(self.data.iter().fold(0.0_f64, |m, v| ReduceOp::Max.apply(m, v.abs())))
    }

    /// Global minimum value.
    pub fn min<C: Comm>(&self, comm: &C) -> f64 {
        comm.min_f64(self.data.iter().fold(f64::INFINITY, |m, &v| ReduceOp::Min.apply(m, v)))
    }

    /// Global maximum value.
    pub fn max<C: Comm>(&self, comm: &C) -> f64 {
        comm.max_f64(self.data.iter().fold(f64::NEG_INFINITY, |m, &v| ReduceOp::Max.apply(m, v)))
    }

    /// Global mean value.
    pub fn mean<C: Comm>(&self, grid: &Grid, comm: &C) -> f64 {
        comm.sum_f64(self.data.iter().sum()) / grid.total() as f64
    }
}

/// A 3-component vector field (velocity, gradient, map) on one rank's block.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField {
    /// The three scalar components.
    pub comps: [ScalarField; 3],
}

impl VectorField {
    /// Zero-initialized vector field.
    pub fn zeros(block: Block) -> Self {
        Self { comps: [ScalarField::zeros(block), ScalarField::zeros(block), ScalarField::zeros(block)] }
    }

    /// Builds a vector field by evaluating `f(x) -> [v0,v1,v2]` pointwise.
    pub fn from_fn(grid: &Grid, block: Block, mut f: impl FnMut([f64; 3]) -> [f64; 3]) -> Self {
        let mut c0 = Vec::with_capacity(block.len());
        let mut c1 = Vec::with_capacity(block.len());
        let mut c2 = Vec::with_capacity(block.len());
        for l in 0..block.len() {
            let gi = block.global_of_local(l);
            let x = [grid.coord(0, gi[0]), grid.coord(1, gi[1]), grid.coord(2, gi[2])];
            let v = f(x);
            c0.push(v[0]);
            c1.push(v[1]);
            c2.push(v[2]);
        }
        Self {
            comps: [
                ScalarField::from_vec(block, c0),
                ScalarField::from_vec(block, c1),
                ScalarField::from_vec(block, c2),
            ],
        }
    }

    /// The owned block.
    pub fn block(&self) -> Block {
        self.comps[0].block()
    }

    /// Number of locally owned points per component.
    pub fn local_len(&self) -> usize {
        self.comps[0].local_len()
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &VectorField) {
        for (a, b) in self.comps.iter_mut().zip(&other.comps) {
            a.axpy(alpha, b);
        }
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for c in &mut self.comps {
            c.scale(alpha);
        }
    }

    /// Sets all entries of all components to a constant.
    pub fn fill(&mut self, v: f64) {
        for c in &mut self.comps {
            c.fill(v);
        }
    }

    /// Global L²(Ω)³ inner product.
    pub fn inner<C: Comm>(&self, other: &VectorField, grid: &Grid, comm: &C) -> f64 {
        let local: f64 = self.comps.iter().zip(&other.comps).map(|(a, b)| a.dot_local(b)).sum();
        comm.sum_f64(local) * grid.cell_volume()
    }

    /// Global L² norm.
    pub fn norm<C: Comm>(&self, grid: &Grid, comm: &C) -> f64 {
        self.inner(self, grid, comm).sqrt()
    }

    /// Global maximum pointwise Euclidean magnitude (used for CFL numbers).
    pub fn max_magnitude<C: Comm>(&self, comm: &C) -> f64 {
        let mut m: f64 = 0.0;
        for l in 0..self.local_len() {
            let v0 = self.comps[0].data()[l];
            let v1 = self.comps[1].data()[l];
            let v2 = self.comps[2].data()[l];
            m = ReduceOp::Max.apply(m, (v0 * v0 + v1 * v1 + v2 * v2).sqrt());
        }
        comm.max_f64(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Decomp;
    use diffreg_comm::{run_threaded, SerialComm};

    fn serial_setup() -> (Grid, Block) {
        let grid = Grid::cubic(4);
        let d = Decomp::new(grid, 1);
        (grid, d.block(0))
    }

    #[test]
    fn from_fn_evaluates_coordinates() {
        let (grid, block) = serial_setup();
        let f = ScalarField::from_fn(&grid, block, |x| x[0] + 2.0 * x[1] + 3.0 * x[2]);
        let gi = [1, 2, 3];
        let l = block.local_index(gi);
        let expect = grid.coord(0, 1) + 2.0 * grid.coord(1, 2) + 3.0 * grid.coord(2, 3);
        assert!((f.data()[l] - expect).abs() < 1e-14);
    }

    #[test]
    fn algebra_ops() {
        let (grid, block) = serial_setup();
        let comm = SerialComm::new();
        let mut a = ScalarField::from_fn(&grid, block, |x| x[0]);
        let b = ScalarField::from_fn(&grid, block, |x| x[1]);
        let norm_before = a.norm(&grid, &comm);
        a.axpy(0.0, &b);
        assert!((a.norm(&grid, &comm) - norm_before).abs() < 1e-14);
        a.scale(2.0);
        assert!((a.norm(&grid, &comm) - 2.0 * norm_before).abs() < 1e-12);
    }

    #[test]
    fn constant_field_l2_norm_matches_domain_volume() {
        let (grid, block) = serial_setup();
        let comm = SerialComm::new();
        let mut f = ScalarField::zeros(block);
        f.fill(1.0);
        // ||1||_L2 = sqrt(volume) = (2π)^{3/2}
        let expect = (std::f64::consts::TAU).powi(3).sqrt();
        assert!((f.norm(&grid, &comm) - expect).abs() < 1e-12);
    }

    #[test]
    fn distributed_inner_product_matches_serial() {
        let grid = Grid::new([4, 6, 4]);
        let f = |x: [f64; 3]| (x[0]).sin() + x[1] * 0.5 - x[2] * x[2] * 0.1;
        let g = |x: [f64; 3]| (x[2]).cos() - x[0];

        let serial = {
            let d = Decomp::new(grid, 1);
            let b = d.block(0);
            let a = ScalarField::from_fn(&grid, b, f);
            let c = ScalarField::from_fn(&grid, b, g);
            a.inner(&c, &grid, &SerialComm::new())
        };

        for p in [2usize, 4] {
            let vals = run_threaded(p, |comm| {
                let d = Decomp::new(grid, p);
                let b = d.block(comm.rank());
                let a = ScalarField::from_fn(&grid, b, f);
                let c = ScalarField::from_fn(&grid, b, g);
                a.inner(&c, &grid, comm)
            });
            for v in vals {
                assert!((v - serial).abs() < 1e-12, "p={p}");
            }
        }
    }

    #[test]
    fn vector_field_magnitude() {
        let (grid, block) = serial_setup();
        let comm = SerialComm::new();
        let v = VectorField::from_fn(&grid, block, |_| [3.0, 4.0, 0.0]);
        assert!((v.max_magnitude(&comm) - 5.0).abs() < 1e-14);
        assert_eq!(v.local_len(), block.len());
    }

    #[test]
    fn min_max_mean() {
        let (grid, block) = serial_setup();
        let comm = SerialComm::new();
        let f = ScalarField::from_fn(&grid, block, |x| x[0]);
        assert_eq!(f.min(&comm), 0.0);
        assert!(f.max(&comm) > 4.0); // 3/4 * 2π ≈ 4.71
        let mean = f.mean(&grid, &comm);
        // mean of {0, π/2, π, 3π/2} = 3π/4
        assert!((mean - 3.0 * std::f64::consts::PI / 4.0).abs() < 1e-12);
    }

    #[test]
    fn reductions_propagate_nan() {
        let (grid, block) = serial_setup();
        let comm = SerialComm::new();
        let mut f = ScalarField::from_fn(&grid, block, |x| x[0] + 1.0);
        f.data_mut()[5] = f64::NAN;
        let v = VectorField { comps: [f.clone(), f.clone(), f.clone()] };
        let (g, c) = (&grid, &comm);
        let all = [f.min(c), f.max(c), f.max_abs(c), f.norm(g, c), v.max_magnitude(c), v.norm(g, c)];
        assert!(all.iter().all(|r| r.is_nan()), "{all:?}");
    }
}
