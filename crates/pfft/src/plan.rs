//! The distributed 3D FFT plan and the spectral operators built on it.
//!
//! Forward sequence (paper Fig. 4): local FFT along axis 2 in the spatial
//! layout, alltoallv transpose within the row group to the mid layout, FFT
//! along axis 1, transpose within the column group to the spectral layout,
//! FFT along axis 0. Diagonal operators act on the spectral layout; the
//! inverse retraces the steps.
//!
//! Every pass hands the batched kernel of `diffreg-fft` the layout it
//! already has. In the mid layout `(c0, n1, c2)` each `i0` slab is an
//! `n1 x c2` batch, in the spectral layout `(n0, c1, c2)` the whole block
//! is one `n0 x (c1 c2)` batch: transform axis slowest, batch contiguous,
//! no gather. The contiguous axis-2 lines go through the tiled line
//! drivers. A transpose within a group of one rank is the identity and is
//! skipped. The `_many` transforms carry several fields through each pass
//! and through one `alltoallv` per transpose.
//!
//! Timing convention matches the paper's tables: time spent inside the
//! transposes is accumulated under `"fft_comm"`, the 1D transforms under
//! `"fft_exec"`.

use diffreg_comm::{Comm, Timers};
use diffreg_fft::{half_len, transform_lines, Complex64, Direction, Fft1d, RealFft1d, RealScratch};
use diffreg_grid::{
    slab, take_pooled, BufferPool, Decomp, Grid, Layout, PooledVec, ScalarField, VectorField,
};
use diffreg_spectral::RegOrder;

use crate::half::{half_spectral_block, leray_project_half, HalfSpectralField};
use crate::spectral_field::SpectralField;
use crate::transpose::exchange;

thread_local! {
    /// This thread's (= this simulated rank's) arena of complex working
    /// arrays and ping-pong scratch, the complex twin of `grid::F64_ARENA`.
    static C64_ARENA: BufferPool<Complex64> = const { BufferPool::new() };
}

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

/// [`exchange`] timed as `"fft_comm"`. Skipped in a group of one, where the
/// layouts before and after are the same array and it is the identity.
fn transpose<S: Comm>(
    comm: &S,
    work: &mut [&mut Vec<Complex64>],
    global: [usize; 3],
    gather: usize,
    split: usize,
    timers: &Timers,
) {
    if comm.size() > 1 {
        timers.time("fft_comm", || exchange(comm, work, global, gather, split));
    } else {
        debug_assert!(work.iter().all(|w| w.len() == global.iter().product::<usize>()));
    }
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

    /// Local extents `(c0, c2, c1s)` of the passes when axis 2 holds `nc`
    /// bins: this rank's axis-0 slab, its axis-2 slab in the mid and
    /// spectral layouts, its axis-1 slab in the spectral layout.
    fn extents(&self, nc: usize) -> (usize, usize, usize) {
        let n = self.decomp.grid.n;
        (
            self.spatial_block().count[0],
            slab(nc, self.row.size(), self.row.rank()).1,
            slab(n[1], self.col.size(), self.col.rank()).1,
        )
    }

    /// The largest of the three layouts a working array passes through.
    fn work_len(&self, nc: usize) -> usize {
        let n = self.decomp.grid.n;
        let (c0, c2, c1s) = self.extents(nc);
        (c0 * self.spatial_block().count[1] * nc).max(c0 * n[1] * c2).max(n[0] * c1s * c2)
    }

    /// Axis-1 and axis-0 passes with their transposes, after the axis-2
    /// pass: `(c0, c1, nc)` arrays in, spectral layout `(n0, c1s, c2)` out.
    fn forward_passes(&self, work: &mut [&mut Vec<Complex64>], nc: usize, timers: &Timers) {
        let n = self.decomp.grid.n;
        let (c0, c2, c1s) = self.extents(nc);
        transpose(&self.row, work, [c0, n[1], nc], 1, 2, timers);
        let (slab1, spec) = (n[1] * c2, n[0] * c1s * c2);
        // Ping-pong scratch for both passes; either can be the longer one.
        let mut scratch = take_pooled(&C64_ARENA, slab1.max(spec));
        timers.time("fft_exec", || {
            for slab in work.iter_mut().flat_map(|w| w.chunks_exact_mut(slab1)) {
                self.plans[1].batch(None, slab, &mut scratch[..slab1], c2, Direction::Forward);
            }
        });
        transpose(&self.col, work, [n[0], n[1], c2], 0, 1, timers);
        timers.time("fft_exec", || {
            for w in work.iter_mut() {
                self.plans[0].batch(None, w, &mut scratch[..spec], c1s * c2, Direction::Forward);
            }
        });
    }

    /// Mirror of [`Self::forward_passes`]: spectral layout in, `(c0, c1,
    /// nc)` out. The axis-0 pass reads `src[i]` where given (leaving it
    /// untouched) and `work[i]` itself otherwise.
    fn inverse_passes(
        &self,
        src: &[Option<&[Complex64]>],
        work: &mut [&mut Vec<Complex64>],
        nc: usize,
        timers: &Timers,
    ) {
        let n = self.decomp.grid.n;
        let (c0, c2, c1s) = self.extents(nc);
        let (slab1, spec) = (n[1] * c2, n[0] * c1s * c2);
        let mut scratch = take_pooled(&C64_ARENA, slab1.max(spec));
        timers.time("fft_exec", || {
            for (w, src) in work.iter_mut().zip(src) {
                w.resize(spec, Complex64::ZERO);
                self.plans[0].batch(*src, w, &mut scratch[..spec], c1s * c2, Direction::Inverse);
            }
        });
        transpose(&self.col, work, [n[0], n[1], c2], 1, 0, timers);
        timers.time("fft_exec", || {
            for slab in work.iter_mut().flat_map(|w| w.chunks_exact_mut(slab1)) {
                self.plans[1].batch(None, slab, &mut scratch[..slab1], c2, Direction::Inverse);
            }
        });
        transpose(&self.row, work, [c0, n[1], nc], 2, 1, timers);
    }

    /// Forward distributed FFT of a real field (spatial layout) into
    /// spectral coefficients (spectral layout).
    pub fn forward(&self, field: &ScalarField, timers: &Timers) -> SpectralField {
        let _span = diffreg_telemetry::span("fft.forward");
        assert_eq!(field.block(), self.spatial_block(), "field not in this plan's spatial layout");
        let n2 = self.decomp.grid.n[2];
        let mut data = Vec::with_capacity(self.work_len(n2));
        data.extend(field.data().iter().map(|&v| Complex64::from_real(v)));
        timers.time("fft_exec", || transform_lines(&self.plans[2], &mut data, Direction::Forward));
        self.forward_passes(&mut [&mut data], n2, timers);
        timers.count("fft_3d", 1);
        SpectralField { grid: self.decomp.grid, block: self.spectral_block(), data }
    }

    /// Inverse distributed FFT back to a real field in the spatial layout.
    pub fn inverse(&self, spec: &SpectralField, timers: &Timers) -> ScalarField {
        let _span = diffreg_telemetry::span("fft.inverse");
        assert_eq!(spec.block, self.spectral_block(), "coefficients not in this plan's layout");
        let n2 = self.decomp.grid.n[2];
        let mut data = take_pooled(&C64_ARENA, self.work_len(n2));
        self.inverse_passes(&[Some(&spec.data)], &mut [&mut data], n2, timers);
        timers.time("fft_exec", || transform_lines(&self.plans[2], &mut data, Direction::Inverse));
        timers.count("fft_3d", 1);
        ScalarField::from_vec(self.spatial_block(), data.iter().map(|z| z.re).collect())
    }

    /// This rank's half-spectrum block (r2c layout).
    pub fn half_block(&self) -> diffreg_grid::Block {
        half_spectral_block(&self.decomp, self.rank)
    }

    /// Forward distributed r2c FFT into Hermitian half-spectrum
    /// coefficients: only axis-2 bins `0..=n2/2` are computed, transposed,
    /// and stored.
    pub fn forward_half(&self, field: &ScalarField, timers: &Timers) -> HalfSpectralField {
        let [spec] = self.forward_half_many([field], timers);
        spec
    }

    /// [`Self::forward_half`] of `K` fields through shared passes and
    /// shared transposes; each result equals its single call bitwise.
    pub(crate) fn forward_half_many<const K: usize>(
        &self,
        fields: [&ScalarField; K],
        timers: &Timers,
    ) -> [HalfSpectralField; K] {
        let _span = diffreg_telemetry::span("fft.forward");
        let sb = self.spatial_block();
        let n2h = half_len(self.decomp.grid.n[2]);
        let mut work = fields.map(|f| {
            assert_eq!(f.block(), sb, "field not in this plan's spatial layout");
            let mut w = Vec::with_capacity(self.work_len(n2h));
            w.resize(sb.count[0] * sb.count[1] * n2h, Complex64::ZERO);
            w
        });
        // Axis 2: r2c lines straight from the real data.
        timers.time("fft_exec", || {
            let mut ws = RealScratch::default();
            for (f, w) in fields.iter().zip(&mut work) {
                self.rplan2.forward_lines(f.data(), w, &mut ws);
            }
        });
        self.forward_passes(&mut work.each_mut(), n2h, timers);
        timers.count("fft_3d", K as u64);
        let (grid, block) = (self.decomp.grid, self.half_block());
        work.map(|data| HalfSpectralField { grid, block, data })
    }

    /// Inverse distributed c2r FFT from half-spectrum coefficients back to
    /// a real field in the spatial layout.
    pub fn inverse_half(&self, spec: &HalfSpectralField, timers: &Timers) -> ScalarField {
        let [field] = self.inverse_half_many([spec], timers);
        field
    }

    /// [`Self::inverse_half`] of `K` spectra through shared passes and
    /// shared transposes; each result equals its single call bitwise.
    pub(crate) fn inverse_half_many<const K: usize>(
        &self,
        specs: [&HalfSpectralField; K],
        timers: &Timers,
    ) -> [ScalarField; K] {
        let src = specs.map(|s| {
            assert_eq!(s.block, self.half_block(), "coefficients not in this plan's half layout");
            Some(&s.data[..])
        });
        self.inverse_half_work(src, std::array::from_fn(|_| self.half_work()), timers)
    }

    /// A pooled working array for one half spectrum.
    fn half_work(&self) -> PooledVec<Complex64> {
        let mut w = take_pooled(&C64_ARENA, self.work_len(half_len(self.decomp.grid.n[2])));
        w.truncate(self.half_block().len());
        w
    }

    /// The inverse c2r transform of `src[i]` where given, else of the
    /// spectrum the caller wrote into `work[i]`.
    fn inverse_half_work<const K: usize>(
        &self,
        src: [Option<&[Complex64]>; K],
        mut work: [PooledVec<Complex64>; K],
        timers: &Timers,
    ) -> [ScalarField; K] {
        let _span = diffreg_telemetry::span("fft.inverse");
        let sb = self.spatial_block();
        let n2h = half_len(self.decomp.grid.n[2]);
        self.inverse_passes(&src, &mut work.each_mut().map(|w| &mut **w), n2h, timers);
        timers.count("fft_3d", K as u64);
        let mut ws = RealScratch::default();
        work.map(|w| {
            let mut out = vec![0.0; sb.len()];
            timers.time("fft_exec", || self.rplan2.inverse_lines(&w, &mut out, &mut ws));
            ScalarField::from_vec(sb, out)
        })
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
        // Each derivative is written straight into its working array.
        let work = std::array::from_fn(|axis| {
            let mut w = self.half_work();
            spec.differentiate_into(axis, &mut w);
            w
        });
        VectorField { comps: self.inverse_half_work([None; 3], work, timers) }
    }

    /// Divergence `div v` (3 forward + 1 inverse FFTs).
    pub fn divergence(&self, v: &VectorField, timers: &Timers) -> ScalarField {
        let [mut acc, s1, s2] = self.forward_half_many(v.comps.each_ref(), timers);
        acc.differentiate(0);
        for (axis, mut s) in [(1, s1), (2, s2)] {
            s.differentiate(axis);
            acc.axpy(1.0, &s);
        }
        self.inverse_half(&acc, timers)
    }

    /// Leray projection of a vector field onto divergence-free fields (6 FFTs).
    pub fn leray(&self, v: &VectorField, timers: &Timers) -> VectorField {
        let mut spec = self.forward_half_many(v.comps.each_ref(), timers);
        leray_project_half(&mut spec);
        VectorField { comps: self.inverse_half_many(spec.each_ref(), timers) }
    }

    /// Applies a real diagonal symbol componentwise to a vector field (6 FFTs).
    pub fn vector_apply_symbol(
        &self,
        v: &VectorField,
        sym: impl Fn(f64) -> f64 + Copy,
        timers: &Timers,
    ) -> VectorField {
        let mut spec = self.forward_half_many(v.comps.each_ref(), timers);
        for s in &mut spec {
            s.apply_symbol(sym);
        }
        VectorField { comps: self.inverse_half_many(spec.each_ref(), timers) }
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

    /// The three components of a vector operator share every transpose:
    /// one message per peer and exchange, where three single transforms
    /// send three.
    #[test]
    fn vector_operator_sends_one_message_per_transpose() {
        let grid = Grid::new([8, 12, 10]);
        run_threaded(4, move |comm| {
            let plan = PencilFft::new(comm, Decomp::with_process_grid(grid, 2, 2));
            let timers = Timers::new();
            let v = VectorField::from_fn(&grid, plan.spatial_block(), vec_fn);
            let sent = || [plan.row.stats().messages_sent, plan.col.stats().messages_sent];
            let before = sent();
            plan.regularization(&v, RegOrder::H2, 1e-2, &timers);
            // One forward and one inverse exchange with the one peer of each group.
            assert_eq!(sent(), before.map(|n| n + 2));
            assert_eq!(timers.get_count("fft_3d"), 6);
            for c in &v.comps {
                plan.apply_symbol(c, |k2| RegOrder::H2.symbol(1e-2, k2), &timers);
            }
            assert_eq!(sent(), before.map(|n| n + 2 + 6));
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
