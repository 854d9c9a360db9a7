//! The distributed 3D FFT plan and the spectral operators built on it.
//!
//! Forward sequence (paper Fig. 4): local FFT along axis 2 in the spatial
//! layout, alltoallv transpose within the row group to the mid layout, FFT
//! along axis 1, transpose within the column group to the spectral layout,
//! FFT along axis 0. Diagonal operators act on the spectral layout; the
//! inverse retraces the steps.
//!
//! Timing convention matches the paper's tables: time spent inside the
//! transposes is accumulated under `"fft_comm"`, the 1D transforms under
//! `"fft_exec"`.

use diffreg_comm::{Comm, Timers};
use diffreg_fft::{
    half_len, transform_lines, transform_strided, Complex64, Direction, Fft1d, RealFft1d,
    RealScratch,
};
use diffreg_grid::{Decomp, Grid, Layout, ScalarField, VectorField};
use diffreg_spectral::RegOrder;

use crate::half::{half_spectral_block, leray_project_half, HalfSpectralField};
use crate::spectral_field::SpectralField;
use crate::transpose::{fwd_mid, fwd_spec, inv_mid, inv_spec};

/// The row and column sub-communicators of this rank's pencil (collective).
/// Not inlined into [`PencilFft::new`]: the analyzer resolves calls by bare
/// name, and a collective directly inside any `new` would make every
/// ambiguous `::new` call in the workspace an opaque maybe-collective.
fn pencil_comms<C: Comm>(comm: &C, decomp: &Decomp) -> (C::Sub, C::Sub) {
    let (r1, r2) = decomp.coords(comm.rank());
    // Row group: fixed r1, new rank = r2. Column group: fixed r2, new rank = r1.
    let row = comm.split(r1, r2);
    let col = comm.split(r2, r1);
    debug_assert_eq!(row.rank(), r2);
    debug_assert_eq!(col.rank(), r1);
    (row, col)
}

/// A per-rank plan for distributed FFTs over a pencil decomposition.
///
/// Construction is collective over `comm`. The plan owns the row/column
/// sub-communicators used by the transposes.
pub struct PencilFft<C: Comm> {
    decomp: Decomp,
    rank: usize,
    row: C::Sub,
    col: C::Sub,
    plans: [Fft1d; 3],
    rplan2: RealFft1d,
}

impl<C: Comm> std::fmt::Debug for PencilFft<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PencilFft")
            .field("decomp", &self.decomp)
            .field("rank", &self.rank)
            .finish()
    }
}

impl<C: Comm> PencilFft<C> {
    /// Creates a plan (collective). `comm.size()` must equal `decomp.size()`.
    pub fn new(comm: &C, decomp: Decomp) -> Self {
        assert_eq!(comm.size(), decomp.size(), "communicator does not match decomposition");
        let rank = comm.rank();
        let (row, col) = pencil_comms(comm, &decomp);
        let n = decomp.grid.n;
        Self {
            decomp,
            rank,
            row,
            col,
            plans: [Fft1d::new(n[0]), Fft1d::new(n[1]), Fft1d::new(n[2])],
            rplan2: RealFft1d::new(n[2]),
        }
    }

    /// The decomposition this plan works over.
    pub fn decomp(&self) -> &Decomp {
        &self.decomp
    }

    /// The global grid.
    pub fn grid(&self) -> Grid {
        self.decomp.grid
    }

    /// This rank's spatial-layout block.
    pub fn spatial_block(&self) -> diffreg_grid::Block {
        self.decomp.block(self.rank, Layout::Spatial)
    }

    /// This rank's spectral-layout block.
    pub fn spectral_block(&self) -> diffreg_grid::Block {
        self.decomp.block(self.rank, Layout::Spectral)
    }

    /// Forward distributed FFT of a real field (spatial layout) into
    /// spectral coefficients (spectral layout).
    pub fn forward(&self, field: &ScalarField, timers: &Timers) -> SpectralField {
        let _span = diffreg_telemetry::span("fft.forward");
        let sb = self.spatial_block();
        assert_eq!(field.block(), sb, "field not in this plan's spatial layout");
        let n = self.decomp.grid.n;
        let [c0, c1, _] = sb.count;

        let mut data: Vec<Complex64> =
            field.data().iter().map(|&v| Complex64::from_real(v)).collect();
        // Axis 2 (contiguous lines).
        timers.time("fft_exec", || transform_lines(&self.plans[2], &mut data, Direction::Forward));
        // Row transpose: (c0, c1, n2) -> (c0, n1, c2_row).
        let mut data = timers.time("fft_comm", || fwd_mid(&self.row, &data, c0, n[1], n[2]));
        // Axis 1: lines of length n1, stride c2.
        let c2 = diffreg_grid::slab(n[2], self.row.size(), self.row.rank()).1;
        timers.time("fft_exec", || {
            let offs = (0..c0).flat_map(move |i0| (0..c2).map(move |i2| i0 * n[1] * c2 + i2));
            transform_strided(&self.plans[1], &mut data, offs, c2, Direction::Forward);
        });
        // Column transpose: (c0, n1, c2) -> (n0, c1_col, c2).
        let mut data = timers.time("fft_comm", || fwd_spec(&self.col, &data, n[0], n[1], c2));
        // Axis 0: lines of length n0, stride c1_col * c2.
        let c1s = diffreg_grid::slab(n[1], self.col.size(), self.col.rank()).1;
        timers.time("fft_exec", || {
            let offs = (0..c1s).flat_map(move |i1| (0..c2).map(move |i2| i1 * c2 + i2));
            transform_strided(&self.plans[0], &mut data, offs, c1s * c2, Direction::Forward);
        });
        timers.count("fft_3d", 1);
        let _ = c1; // silence in release: c1 only used in debug asserts above
        SpectralField { grid: self.decomp.grid, block: self.spectral_block(), data }
    }

    /// Inverse distributed FFT back to a real field in the spatial layout.
    pub fn inverse(&self, spec: &SpectralField, timers: &Timers) -> ScalarField {
        let _span = diffreg_telemetry::span("fft.inverse");
        assert_eq!(spec.block, self.spectral_block(), "coefficients not in this plan's layout");
        let n = self.decomp.grid.n;
        let c2 = diffreg_grid::slab(n[2], self.row.size(), self.row.rank()).1;
        let c1s = diffreg_grid::slab(n[1], self.col.size(), self.col.rank()).1;
        let sb = self.spatial_block();
        let [c0, _, _] = sb.count;

        let mut data = spec.data.clone();
        timers.time("fft_exec", || {
            let offs = (0..c1s).flat_map(move |i1| (0..c2).map(move |i2| i1 * c2 + i2));
            transform_strided(&self.plans[0], &mut data, offs, c1s * c2, Direction::Inverse);
        });
        let mut data = timers.time("fft_comm", || inv_spec(&self.col, &data, n[0], n[1], c2));
        timers.time("fft_exec", || {
            let offs = (0..c0).flat_map(move |i0| (0..c2).map(move |i2| i0 * n[1] * c2 + i2));
            transform_strided(&self.plans[1], &mut data, offs, c2, Direction::Inverse);
        });
        let mut data = timers.time("fft_comm", || inv_mid(&self.row, &data, c0, n[1], n[2]));
        timers.time("fft_exec", || transform_lines(&self.plans[2], &mut data, Direction::Inverse));
        timers.count("fft_3d", 1);
        ScalarField::from_vec(sb, data.into_iter().map(|z| z.re).collect())
    }

    /// This rank's half-spectrum block (r2c layout).
    pub fn half_block(&self) -> diffreg_grid::Block {
        half_spectral_block(&self.decomp, self.rank)
    }

    /// Forward distributed r2c FFT into Hermitian half-spectrum
    /// coefficients: only axis-2 bins `0..=n2/2` are computed, transposed,
    /// and stored. Same transpose routines as [`Self::forward`], with the
    /// axis-2 extent replaced by `n2/2 + 1`.
    pub fn forward_half(&self, field: &ScalarField, timers: &Timers) -> HalfSpectralField {
        let _span = diffreg_telemetry::span("fft.forward");
        let sb = self.spatial_block();
        assert_eq!(field.block(), sb, "field not in this plan's spatial layout");
        let n = self.decomp.grid.n;
        let n2h = half_len(n[2]);
        let [c0, c1, _] = sb.count;

        // Axis 2: r2c lines straight from the real data (no complex
        // widening pass over the full field).
        let mut data = vec![Complex64::ZERO; c0 * c1 * n2h];
        timers.time("fft_exec", || {
            let mut ws = RealScratch::default();
            for (line, spec) in field.data().chunks_exact(n[2]).zip(data.chunks_exact_mut(n2h)) {
                self.rplan2.forward(line, spec, &mut ws);
            }
        });
        // Row transpose: (c0, c1, n2h) -> (c0, n1, c2h).
        let mut data = timers.time("fft_comm", || fwd_mid(&self.row, &data, c0, n[1], n2h));
        let c2h = diffreg_grid::slab(n2h, self.row.size(), self.row.rank()).1;
        timers.time("fft_exec", || {
            let offs = (0..c0).flat_map(move |i0| (0..c2h).map(move |i2| i0 * n[1] * c2h + i2));
            transform_strided(&self.plans[1], &mut data, offs, c2h, Direction::Forward);
        });
        // Column transpose: (c0, n1, c2h) -> (n0, c1_col, c2h).
        let mut data = timers.time("fft_comm", || fwd_spec(&self.col, &data, n[0], n[1], c2h));
        let c1s = diffreg_grid::slab(n[1], self.col.size(), self.col.rank()).1;
        timers.time("fft_exec", || {
            let offs = (0..c1s).flat_map(move |i1| (0..c2h).map(move |i2| i1 * c2h + i2));
            transform_strided(&self.plans[0], &mut data, offs, c1s * c2h, Direction::Forward);
        });
        timers.count("fft_3d", 1);
        HalfSpectralField { grid: self.decomp.grid, block: self.half_block(), data }
    }

    /// Inverse distributed c2r FFT from half-spectrum coefficients back to
    /// a real field in the spatial layout.
    pub fn inverse_half(&self, spec: &HalfSpectralField, timers: &Timers) -> ScalarField {
        let _span = diffreg_telemetry::span("fft.inverse");
        assert_eq!(spec.block, self.half_block(), "coefficients not in this plan's half layout");
        let n = self.decomp.grid.n;
        let n2h = half_len(n[2]);
        let c2h = diffreg_grid::slab(n2h, self.row.size(), self.row.rank()).1;
        let c1s = diffreg_grid::slab(n[1], self.col.size(), self.col.rank()).1;
        let sb = self.spatial_block();
        let [c0, c1, _] = sb.count;

        let mut data = spec.data.clone();
        timers.time("fft_exec", || {
            let offs = (0..c1s).flat_map(move |i1| (0..c2h).map(move |i2| i1 * c2h + i2));
            transform_strided(&self.plans[0], &mut data, offs, c1s * c2h, Direction::Inverse);
        });
        let mut data = timers.time("fft_comm", || inv_spec(&self.col, &data, n[0], n[1], c2h));
        timers.time("fft_exec", || {
            let offs = (0..c0).flat_map(move |i0| (0..c2h).map(move |i2| i0 * n[1] * c2h + i2));
            transform_strided(&self.plans[1], &mut data, offs, c2h, Direction::Inverse);
        });
        let data = timers.time("fft_comm", || inv_mid(&self.row, &data, c0, n[1], n2h));
        let mut out = vec![0.0; c0 * c1 * n[2]];
        timers.time("fft_exec", || {
            let mut ws = RealScratch::default();
            for (line, spec) in out.chunks_exact_mut(n[2]).zip(data.chunks_exact(n2h)) {
                self.rplan2.inverse(spec, line, &mut ws);
            }
        });
        timers.count("fft_3d", 1);
        ScalarField::from_vec(sb, out)
    }

    /// Applies a real diagonal symbol `sym(|k|²)` to a field (2 FFTs).
    pub fn apply_symbol(
        &self,
        field: &ScalarField,
        sym: impl Fn(f64) -> f64,
        timers: &Timers,
    ) -> ScalarField {
        let mut spec = self.forward_half(field, timers);
        spec.apply_symbol(sym);
        self.inverse_half(&spec, timers)
    }

    /// Partial derivative along `axis` (2 FFTs).
    pub fn derivative(&self, field: &ScalarField, axis: usize, timers: &Timers) -> ScalarField {
        let mut spec = self.forward_half(field, timers);
        spec.differentiate(axis);
        self.inverse_half(&spec, timers)
    }

    /// Gradient `∇f` (1 forward + 3 inverse FFTs).
    pub fn gradient(&self, field: &ScalarField, timers: &Timers) -> VectorField {
        let spec = self.forward_half(field, timers);
        let comps = [0usize, 1, 2].map(|axis| {
            let mut s = spec.clone();
            s.differentiate(axis);
            self.inverse_half(&s, timers)
        });
        VectorField { comps }
    }

    /// Divergence `div v` (3 forward + 1 inverse FFTs).
    pub fn divergence(&self, v: &VectorField, timers: &Timers) -> ScalarField {
        let mut acc = self.forward_half(&v.comps[0], timers);
        acc.differentiate(0);
        for axis in 1..3 {
            let mut s = self.forward_half(&v.comps[axis], timers);
            s.differentiate(axis);
            acc.axpy(1.0, &s);
        }
        self.inverse_half(&acc, timers)
    }

    /// Leray projection of a vector field onto divergence-free fields (6 FFTs).
    pub fn leray(&self, v: &VectorField, timers: &Timers) -> VectorField {
        let mut spec = [
            self.forward_half(&v.comps[0], timers),
            self.forward_half(&v.comps[1], timers),
            self.forward_half(&v.comps[2], timers),
        ];
        leray_project_half(&mut spec);
        VectorField {
            comps: [
                self.inverse_half(&spec[0], timers),
                self.inverse_half(&spec[1], timers),
                self.inverse_half(&spec[2], timers),
            ],
        }
    }

    /// Applies a real diagonal symbol componentwise to a vector field (6 FFTs).
    pub fn vector_apply_symbol(
        &self,
        v: &VectorField,
        sym: impl Fn(f64) -> f64 + Copy,
        timers: &Timers,
    ) -> VectorField {
        VectorField {
            comps: [
                self.apply_symbol(&v.comps[0], sym, timers),
                self.apply_symbol(&v.comps[1], sym, timers),
                self.apply_symbol(&v.comps[2], sym, timers),
            ],
        }
    }

    /// Regularization operator `β (-Δ)^m v` applied to a vector field.
    pub fn regularization(
        &self,
        v: &VectorField,
        order: RegOrder,
        beta: f64,
        timers: &Timers,
    ) -> VectorField {
        self.vector_apply_symbol(v, move |k2| order.symbol(beta, k2), timers)
    }

    /// Spectral preconditioner `(β|k|^{2m} + 1)⁻¹ v` for the Hessian.
    pub fn precondition(
        &self,
        v: &VectorField,
        order: RegOrder,
        beta: f64,
        timers: &Timers,
    ) -> VectorField {
        self.vector_apply_symbol(v, move |k2| order.precond_symbol(beta, k2), timers)
    }

    /// Gaussian smoothing of a scalar field with standard deviation `sigma`.
    pub fn gaussian_smooth(&self, field: &ScalarField, sigma: f64, timers: &Timers) -> ScalarField {
        self.apply_symbol(field, |k2| diffreg_spectral::gaussian(sigma, k2), timers)
    }

    /// Spectral translation: returns `f(x - s)` exactly (for band-limited
    /// fields) via the phase factor `exp(-i k·s)` (2 FFTs).
    pub fn translate(&self, field: &ScalarField, s: [f64; 3], timers: &Timers) -> ScalarField {
        let mut spec = self.forward_half(field, timers);
        spec.phase_shift(s);
        self.inverse_half(&spec, timers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::{run_threaded, Comm, SerialComm};
    use diffreg_spectral::SerialSpectral;

    fn test_fn(x: [f64; 3]) -> f64 {
        (x[0]).sin() * (2.0 * x[1]).cos() + 0.3 * (x[2] + x[0]).sin() + 0.1
    }

    fn vec_fn(x: [f64; 3]) -> [f64; 3] {
        [x[0].cos() * x[1].sin(), x[1].cos() + (2.0 * x[2]).sin() * 0.5, x[0].sin() * x[2].cos()]
    }

    /// Gathers a distributed scalar field onto every rank as a full grid array.
    fn gather_full<C: Comm>(comm: &C, decomp: &Decomp, f: &ScalarField) -> Vec<f64> {
        let grid = decomp.grid;
        let all = comm.allgather(f.data().to_vec());
        let mut out = vec![0.0; grid.total()];
        for (r, part) in all.iter().enumerate() {
            let b = decomp.block(r, Layout::Spatial);
            for (l, &v) in part.iter().enumerate() {
                out[grid.flatten(b.global_of_local(l))] = v;
            }
        }
        out
    }

    fn run_case(grid: Grid, p1: usize, p2: usize) {
        let p = p1 * p2;
        let serial = {
            let sp = SerialSpectral::new(grid.n);
            let d = Decomp::new(grid, 1);
            let b = d.block(0, Layout::Spatial);
            let f = ScalarField::from_fn(&grid, b, test_fn);
            sp.forward(f.data())
        };
        run_threaded(p, move |comm| {
            let decomp = Decomp::with_process_grid(grid, p1, p2);
            let plan = PencilFft::new(comm, decomp);
            let block = plan.spatial_block();
            let f = ScalarField::from_fn(&grid, block, test_fn);
            let timers = Timers::new();
            let spec = plan.forward(&f, &timers);
            // Compare the owned spectral block against the serial transform.
            for (l, &z) in spec.data.iter().enumerate() {
                let gi = spec.block.global_of_local(l);
                let expect = serial[grid.flatten(gi)];
                assert!(
                    (z - expect).abs() < 1e-8 * grid.total() as f64,
                    "bin {gi:?}: {z:?} vs {expect:?}"
                );
            }
            // Roundtrip.
            let back = plan.inverse(&spec, &timers);
            for (a, b) in back.data().iter().zip(f.data()) {
                assert!((a - b).abs() < 1e-10);
            }
            assert!(timers.get_count("fft_3d") >= 2);
        });
    }

    #[test]
    fn distributed_fft_matches_serial() {
        run_case(Grid::new([8, 8, 8]), 2, 2);
        run_case(Grid::new([6, 9, 5]), 3, 1);
        run_case(Grid::new([8, 12, 10]), 2, 4);
        run_case(Grid::new([7, 6, 4]), 1, 2);
    }

    #[test]
    fn serial_plan_matches_oracle_ops() {
        let grid = Grid::new([8, 6, 10]);
        let comm = SerialComm::new();
        let decomp = Decomp::new(grid, 1);
        let plan = PencilFft::new(&comm, decomp);
        let block = plan.spatial_block();
        let f = ScalarField::from_fn(&grid, block, test_fn);
        let timers = Timers::new();
        let oracle = SerialSpectral::new(grid.n);

        let got = plan.derivative(&f, 1, &timers);
        let expect = oracle.derivative(f.data(), 1);
        for (a, b) in got.data().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }

        let got = plan.apply_symbol(&f, diffreg_spectral::laplacian, &timers);
        let expect = oracle.laplacian(f.data());
        for (a, b) in got.data().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn distributed_gradient_and_leray_match_serial() {
        let grid = Grid::new([8, 8, 8]);
        // Serial oracle.
        let oracle = SerialSpectral::new(grid.n);
        let d1 = Decomp::new(grid, 1);
        let b1 = d1.block(0, Layout::Spatial);
        let f_full = ScalarField::from_fn(&grid, b1, test_fn);
        let grad_oracle = oracle.gradient(f_full.data());
        let v_full = VectorField::from_fn(&grid, b1, vec_fn);
        let leray_oracle =
            oracle.leray([v_full.comps[0].data(), v_full.comps[1].data(), v_full.comps[2].data()]);

        run_threaded(4, move |comm| {
            let decomp = Decomp::with_process_grid(grid, 2, 2);
            let plan = PencilFft::new(comm, decomp);
            let block = plan.spatial_block();
            let timers = Timers::new();

            let f = ScalarField::from_fn(&grid, block, test_fn);
            let grad = plan.gradient(&f, &timers);
            for (axis, oracle) in grad_oracle.iter().enumerate() {
                let full = gather_full(comm, &decomp, &grad.comps[axis]);
                for (a, b) in full.iter().zip(oracle) {
                    assert!((a - b).abs() < 1e-9, "gradient axis {axis}");
                }
            }

            let v = VectorField::from_fn(&grid, block, vec_fn);
            let p = plan.leray(&v, &timers);
            for (axis, oracle) in leray_oracle.iter().enumerate() {
                let full = gather_full(comm, &decomp, &p.comps[axis]);
                for (a, b) in full.iter().zip(oracle) {
                    assert!((a - b).abs() < 1e-9, "leray axis {axis}");
                }
            }
            // Divergence of the projection vanishes.
            let div = plan.divergence(&p, &timers);
            assert!(div.max_abs(comm) < 1e-9);
        });
    }

    #[test]
    fn precond_inverts_shifted_regularization() {
        let grid = Grid::new([6, 6, 6]);
        let comm = SerialComm::new();
        let plan = PencilFft::new(&comm, Decomp::new(grid, 1));
        let block = plan.spatial_block();
        let timers = Timers::new();
        let v = VectorField::from_fn(&grid, block, vec_fn);
        let beta = 1e-2;
        // (β Δ² + I) then preconditioner must give back v.
        let mut av = plan.regularization(&v, RegOrder::H2, beta, &timers);
        av.axpy(1.0, &v);
        let back = plan.precondition(&av, RegOrder::H2, beta, &timers);
        for axis in 0..3 {
            for (a, b) in back.comps[axis].data().iter().zip(v.comps[axis].data()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
