//! Seeded property tests of the distributed FFT against the serial oracle
//! and against analytic plane waves, over random grids, process layouts,
//! and band-limited fields.

use diffreg_comm::{run_threaded, Comm, Timers};
use diffreg_grid::{Decomp, Grid, ScalarField};
use diffreg_pfft::PencilFft;
use diffreg_spectral::SerialSpectral;
use diffreg_testkit::oracle::PlaneWave;
use diffreg_testkit::prop_check;

fn field_from_seed(grid: &Grid, block: diffreg_grid::Block, seed: u64) -> ScalarField {
    ScalarField::from_fn(grid, block, |x| {
        let s = seed as f64 * 0.01;
        (x[0] + s).sin() + ((2.0 + (seed % 3) as f64) * x[1]).cos() * (x[2] - s).sin() + 0.1 * s
    })
}

#[test]
fn distributed_roundtrip_any_layout() {
    prop_check!(cases = 12, |rng| {
        let n = [4 + rng.index(6), 4 + rng.index(6), 4 + rng.index(6)];
        let p1 = 1 + rng.index(2.min(n[0]).min(n[1]));
        let p2 = 1 + rng.index(2.min(n[1]).min(n[2]));
        let seed = rng.next_u64() % 1000;
        let grid = Grid::new(n);
        run_threaded(p1 * p2, move |comm| {
            let decomp = Decomp::with_process_grid(grid, p1, p2);
            let plan = PencilFft::new(comm, decomp);
            let field = field_from_seed(&grid, plan.spatial_block(), seed);
            let timers = Timers::new();
            let spec = plan.forward_half(&field, &timers);
            let back = plan.inverse_half(&spec, &timers);
            for (a, b) in back.data().iter().zip(field.data()) {
                assert!((a - b).abs() < 1e-9, "roundtrip broke: {a} vs {b}");
            }
        });
    });
}

#[test]
fn distributed_derivative_matches_serial() {
    prop_check!(cases = 12, |rng| {
        let axis = rng.index(3);
        let seed = rng.next_u64() % 1000;
        let grid = Grid::new([8, 6, 10]);
        // Serial oracle.
        let oracle = {
            let d = Decomp::new(grid, 1);
            let f = field_from_seed(&grid, d.block(0), seed);
            SerialSpectral::new(grid.n).derivative(f.data(), axis)
        };
        run_threaded(4, move |comm| {
            let decomp = Decomp::with_process_grid(grid, 2, 2);
            let plan = PencilFft::new(comm, decomp);
            let field = field_from_seed(&grid, plan.spatial_block(), seed);
            let timers = Timers::new();
            let got = plan.derivative(&field, axis, &timers);
            let block = plan.spatial_block();
            for (l, v) in got.data().iter().enumerate() {
                let gi = block.global_of_local(l);
                let want = oracle[grid.flatten(gi)];
                assert!((v - want).abs() < 1e-9, "axis {axis} at {gi:?}");
            }
        });
    });
}

/// Analytic oracle: plane waves are exact eigenfunctions of the spectral
/// derivative — the distributed gradient of `cos(k·x + φ)` must equal
/// `−k_a sin(k·x + φ)` per axis, on every process layout tested.
#[test]
fn distributed_gradient_matches_plane_wave_analytic() {
    prop_check!(cases = 12, |rng| {
        let wave = PlaneWave::random(rng, 3);
        let grid = Grid::cubic(8);
        for p in [1usize, 2, 4] {
            run_threaded(p, move |comm| {
                let decomp = Decomp::new(grid, comm.size());
                let plan = PencilFft::new(comm, decomp);
                let block = plan.spatial_block();
                let f = ScalarField::from_fn(&grid, block, |x| wave.eval(x));
                let timers = Timers::new();
                for axis in 0..3 {
                    let got = plan.derivative(&f, axis, &timers);
                    for (l, v) in got.data().iter().enumerate() {
                        let gi = block.global_of_local(l);
                        let x = [grid.coord(0, gi[0]), grid.coord(1, gi[1]), grid.coord(2, gi[2])];
                        let want = wave.grad(x)[axis];
                        assert!(
                            (v - want).abs() < 1e-9,
                            "plane-wave derivative axis {axis}: {v} vs {want}"
                        );
                    }
                }
            });
        }
    });
}

/// Parseval over the half spectrum: every stored bin with `0 < k2 < n2/2`
/// stands for itself and its conjugate mirror, so it counts twice. An odd
/// `n2` has no Nyquist bin, so only `k2 = 0` counts once there.
#[test]
fn parseval_holds_distributed() {
    prop_check!(cases = 12, |rng| {
        let seed = rng.next_u64() % 1000;
        let p = 1 + rng.index(4);
        let grid = Grid::new([8, 8, 7 + rng.index(2)]);
        run_threaded(p, move |comm| {
            let decomp = Decomp::new(grid, p);
            let plan = PencilFft::new(comm, decomp);
            let n2 = grid.n[2];
            // The top axis-2 mode: the Nyquist bin when n2 is even.
            let top = (n2 / 2) as f64;
            let mut field = field_from_seed(&grid, plan.spatial_block(), seed);
            field.axpy(0.5, &ScalarField::from_fn(&grid, field.block(), |x| (top * x[2]).cos()));
            let timers = Timers::new();
            let spec = plan.forward_half(&field, &timers);
            let weight = |k2: usize| if k2 == 0 || 2 * k2 == n2 { 1.0 } else { 2.0 };
            let e_half: f64 = spec
                .data
                .iter()
                .enumerate()
                .map(|(l, z)| weight(spec.block.global_of_local(l)[2]) * z.norm_sqr())
                .sum();
            let e_time = comm.sum_f64(field.data().iter().map(|v| v * v).sum());
            let e_freq = comm.sum_f64(e_half) / grid.total() as f64;
            assert!((e_time - e_freq).abs() < 1e-7 * (1.0 + e_time), "{e_time} vs {e_freq}");
        });
    });
}

/// Analytic oracle: the spectral translation of a band-limited field is
/// the field shifted, on one rank and on row- and column-heavy process
/// grids, including an odd Bluestein last axis.
#[test]
fn translate_shifts_bandlimited_fields_exactly() {
    fn wave(x: [f64; 3]) -> f64 {
        x[0].sin() + (2.0 * x[1]).cos() + 0.5 * (3.0 * x[2] + x[0]).sin()
    }
    prop_check!(cases = 24, |rng| {
        let s = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
        for n in [[8, 8, 8], [7, 6, 17]] {
            let grid = Grid::new(n);
            for (p1, p2) in [(1, 1), (2, 2), (4, 1)] {
                run_threaded(p1 * p2, move |comm| {
                    let plan = PencilFft::new(comm, Decomp::with_process_grid(grid, p1, p2));
                    let timers = Timers::new();
                    let block = plan.spatial_block();
                    let f = ScalarField::from_fn(&grid, block, wave);
                    let shifted = plan.translate(&f, s, &timers);
                    let expect = ScalarField::from_fn(&grid, block, |x| {
                        wave([x[0] - s[0], x[1] - s[1], x[2] - s[2]])
                    });
                    for (a, b) in shifted.data().iter().zip(expect.data()) {
                        assert!((a - b).abs() < 1e-9, "{n:?} on {p1}x{p2}: {a} vs {b}");
                    }
                });
            }
        }
    });
}
