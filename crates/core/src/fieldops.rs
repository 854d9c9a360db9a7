//! The L²(Ω)³ vector space of velocity fields, as seen by the Krylov/Newton
//! drivers.

use diffreg_comm::Comm;
use diffreg_grid::{Grid, VectorField};
use diffreg_optim::VectorOps;

/// Distributed L² vector-space operations for [`VectorField`]s.
pub struct FieldOps<'a, C: Comm> {
    comm: &'a C,
    grid: Grid,
}

impl<'a, C: Comm> FieldOps<'a, C> {
    /// Creates the ops handle for one communicator/grid pair.
    pub fn new(comm: &'a C, grid: Grid) -> Self {
        Self { comm, grid }
    }
}

impl<C: Comm> VectorOps<VectorField> for FieldOps<'_, C> {
    fn dot(&self, a: &VectorField, b: &VectorField) -> f64 {
        a.inner(b, &self.grid, self.comm)
    }

    fn axpy(&self, y: &mut VectorField, alpha: f64, x: &VectorField) {
        y.axpy(alpha, x);
    }

    fn scale(&self, y: &mut VectorField, alpha: f64) {
        y.scale(alpha);
    }

    fn zero_like(&self, v: &VectorField) -> VectorField {
        VectorField::zeros(v.block())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::SerialComm;
    use diffreg_grid::Decomp;

    #[test]
    fn dot_is_weighted_l2() {
        let grid = Grid::cubic(4);
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let block = d.block(0);
        let ops = FieldOps::new(&comm, grid);
        let mut ones = VectorField::zeros(block);
        ones.fill(1.0);
        // ⟨1,1⟩ over three components = 3 (2π)³.
        let expect = 3.0 * std::f64::consts::TAU.powi(3);
        assert!((ops.dot(&ones, &ones) - expect).abs() < 1e-10);
        assert!((ops.norm(&ones) - expect.sqrt()).abs() < 1e-10);
        let z = ops.zero_like(&ones);
        assert_eq!(ops.dot(&z, &ones), 0.0);
    }
}
