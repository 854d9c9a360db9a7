//! The paper's synthetic registration problem (§IV-A1, Fig. 5).
//!
//! Template: `ρ_T(x) = (sin²x₀ + sin²x₁ + sin²x₂)/3`.
//! Exact velocity: `v*(x) = (cos x₀ sin x₁, cos x₁ sin x₀, cos x₀ sin x₂)`
//! (0-based axes). The reference image is the template transported by `v*`,
//! so the ground-truth solution of the inverse problem is known.

use diffreg_comm::Comm;
use diffreg_grid::{Block, Grid, ScalarField, VectorField};

/// The synthetic template image evaluated at a point.
pub fn template_fn(x: [f64; 3]) -> f64 {
    (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
}

/// The exact velocity `v*` of the synthetic problem, scaled by `amplitude`.
pub fn velocity_fn(x: [f64; 3], amplitude: f64) -> [f64; 3] {
    [
        amplitude * x[0].cos() * x[1].sin(),
        amplitude * x[1].cos() * x[0].sin(),
        amplitude * x[0].cos() * x[2].sin(),
    ]
}

/// A divergence-free exact velocity for the incompressible experiments
/// (paper footnote 5: "for the incompressible case we use a similar but
/// divergence free velocity field").
fn velocity_divfree_fn(x: [f64; 3], amplitude: f64) -> [f64; 3] {
    [
        amplitude * x[0].cos() * x[1].sin(),
        -amplitude * x[0].sin() * x[1].cos(),
        amplitude * 0.5 * (x[0] + x[1]).sin(),
    ]
}

/// Builds the synthetic template on a rank's block.
pub fn template(grid: &Grid, block: Block) -> ScalarField {
    ScalarField::from_fn(grid, block, template_fn)
}

/// Builds `v*` on a rank's block.
pub fn exact_velocity(grid: &Grid, block: Block, amplitude: f64) -> VectorField {
    VectorField::from_fn(grid, block, |x| velocity_fn(x, amplitude))
}

/// Builds the divergence-free `v*` on a rank's block.
pub fn exact_velocity_divfree(grid: &Grid, block: Block, amplitude: f64) -> VectorField {
    VectorField::from_fn(grid, block, |x| velocity_divfree_fn(x, amplitude))
}

/// Gathers a distributed scalar field into a full grid array, replicated on
/// every rank (test/figure utility; do not use at scale).
pub fn gather_full<C: Comm>(comm: &C, grid: &Grid, field: &ScalarField) -> Vec<f64> {
    let all = comm.allgather(field.data().to_vec());
    let blocks = comm.allgather(vec![field.block()]);
    let mut out = vec![0.0; grid.total()];
    for (part, blk) in all.iter().zip(blocks.iter()) {
        let b: Block = blk[0];
        for (l, &v) in part.iter().enumerate() {
            out[grid.flatten(b.global_of_local(l))] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::{run_threaded, SerialComm};
    use diffreg_grid::{Decomp, Layout};

    #[test]
    fn template_is_bounded_and_periodic() {
        let grid = Grid::cubic(8);
        let d = Decomp::new(grid, 1);
        let t = template(&grid, d.block(0, Layout::Spatial));
        for &v in t.data() {
            assert!((0.0..=1.0).contains(&v));
        }
        // Periodicity: the analytic function has period 2π (trivially true
        // for sin²) — check agreement across the seam.
        assert!((template_fn([0.0, 1.0, 2.0]) - template_fn([std::f64::consts::TAU, 1.0, 2.0])).abs() < 1e-12);
    }

    #[test]
    fn divfree_velocity_is_divergence_free_analytically() {
        // ∂0(cos x0 sin x1) + ∂1(−sin x0 cos x1) + ∂2(0.5 sin(x0+x1)) =
        // −sin x0 sin x1 + sin x0 sin x1 + 0 = 0.
        let h = 1e-6;
        for s in 0..20 {
            let x = [0.3 * s as f64, 0.7 * s as f64, 0.1];
            let dvx = (velocity_divfree_fn([x[0] + h, x[1], x[2]], 1.0)[0]
                - velocity_divfree_fn([x[0] - h, x[1], x[2]], 1.0)[0])
                / (2.0 * h);
            let dvy = (velocity_divfree_fn([x[0], x[1] + h, x[2]], 1.0)[1]
                - velocity_divfree_fn([x[0], x[1] - h, x[2]], 1.0)[1])
                / (2.0 * h);
            let dvz = (velocity_divfree_fn([x[0], x[1], x[2] + h], 1.0)[2]
                - velocity_divfree_fn([x[0], x[1], x[2] - h], 1.0)[2])
                / (2.0 * h);
            assert!((dvx + dvy + dvz).abs() < 1e-6, "div = {}", dvx + dvy + dvz);
        }
    }

    #[test]
    fn gather_reassembles_distributed_field() {
        let grid = Grid::new([6, 4, 4]);
        let serial = {
            let d = Decomp::new(grid, 1);
            let f = template(&grid, d.block(0, Layout::Spatial));
            gather_full(&SerialComm::new(), &grid, &f)
        };
        run_threaded(4, move |comm| {
            let d = Decomp::with_process_grid(grid, 2, 2);
            let f = template(&grid, d.block(comm.rank(), Layout::Spatial));
            let full = gather_full(comm, &grid, &f);
            assert_eq!(full.len(), serial.len());
            for (a, b) in full.iter().zip(&serial) {
                assert!((a - b).abs() < 1e-15);
            }
        });
    }
}
