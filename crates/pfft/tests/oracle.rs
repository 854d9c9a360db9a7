//! Oracle tier for the distributed transform on the shapes the solver
//! really sees: anisotropic 2·3·5 grids, an odd last axis (the r2c
//! fallback) and a short first axis, on row- and column-heavy process
//! grids. Every operator is compared with the serial oracle, results on
//! different process grids with each other, and every batched (`_many`)
//! operator with the single transforms it replaces, bit for bit.

use diffreg_comm::{run_threaded, Timers};
use diffreg_fft::Complex64;
use diffreg_grid::{Block, Decomp, Grid, ScalarField, VectorField};
use diffreg_pfft::{leray_project_half, PencilFft};
use diffreg_spectral::{RegOrder, SerialSpectral};

/// The last grid on 4x1 has `n0 * c1s < n1`: the axis-1 slab is longer than
/// the spectral block, the other way round from every other case.
const GRIDS: [[usize; 3]; 5] = [[24, 30, 24], [16, 30, 20], [8, 12, 10], [12, 10, 9], [4, 14, 8]];
const LAYOUTS: [(usize, usize); 5] = [(1, 1), (2, 1), (1, 2), (2, 2), (4, 1)];
const BETA: f64 = 1e-2;

fn scalar(x: [f64; 3]) -> f64 {
    x[0].sin() * (2.0 * x[1]).cos() + 0.3 * (x[2] + x[0]).sin() + (3.0 * x[2]).cos() * 0.2 + 0.1
}

fn vector(x: [f64; 3]) -> [f64; 3] {
    [x[0].cos() * x[1].sin(), x[1].cos() + (2.0 * x[2]).sin(), x[0].sin() * (3.0 * x[2]).cos()]
}

fn reg(k2: f64) -> f64 {
    RegOrder::H2.symbol(BETA, k2)
}

fn prec(k2: f64) -> f64 {
    RegOrder::H2.precond_symbol(BETA, k2)
}

fn bits(f: &ScalarField) -> Vec<u64> {
    f.data().iter().map(|v| v.to_bits()).collect()
}

/// Every operator on one process grid, each result assembled on the full
/// grid: round trip, gradient (3), regularization (3), preconditioner (3),
/// divergence, Leray projection (3). Also checks, on every rank, the
/// forward spectrum against the oracle's and the batched operators against
/// their single-transform compositions.
fn run_ops(grid: Grid, p1: usize, p2: usize, oracle_spec: &[Complex64]) -> Vec<Vec<f64>> {
    let per_rank: Vec<(Block, Vec<ScalarField>)> = run_threaded(p1 * p2, move |comm| {
        let plan = PencilFft::new(comm, Decomp::with_process_grid(grid, p1, p2));
        let (t, block) = (Timers::new(), plan.spatial_block());
        let f = ScalarField::from_fn(&grid, block, scalar);
        let v = VectorField::from_fn(&grid, block, vector);

        let spec = plan.forward_half(&f, &t);
        for (l, z) in spec.data.iter().enumerate() {
            let want = oracle_spec[grid.flatten(spec.block.global_of_local(l))];
            assert!((*z - want).abs() < 1e-10 * grid.total() as f64, "forward_half on {p1}x{p2}");
        }
        let grad = plan.gradient(&f, &t);
        let regv = plan.regularization(&v, RegOrder::H2, BETA, &t);
        let precv = plan.precondition(&v, RegOrder::H2, BETA, &t);
        let div = plan.divergence(&v, &t);
        let leray = plan.leray(&v, &t);

        // The batched operators against the single transforms they replace.
        let mut vs = v.comps.each_ref().map(|c| plan.forward_half(c, &t));
        for a in 0..3 {
            assert_eq!(bits(&grad.comps[a]), bits(&plan.derivative(&f, a, &t)), "gradient {a}");
            assert_eq!(bits(&regv.comps[a]), bits(&plan.apply_symbol(&v.comps[a], reg, &t)));
            assert_eq!(bits(&precv.comps[a]), bits(&plan.apply_symbol(&v.comps[a], prec, &t)));
        }
        let mut acc = vs[0].clone();
        acc.differentiate(0);
        for (a, s) in vs.iter().enumerate().skip(1) {
            let mut s = s.clone();
            s.differentiate(a);
            acc.axpy(1.0, &s);
        }
        assert_eq!(bits(&div), bits(&plan.inverse_half(&acc, &t)), "divergence");
        leray_project_half(&mut vs);
        for (l, s) in leray.comps.iter().zip(&vs) {
            assert_eq!(bits(l), bits(&plan.inverse_half(s, &t)), "leray");
        }

        let mut out = vec![plan.inverse_half(&spec, &t)];
        out.extend(grad.comps);
        out.extend(regv.comps);
        out.extend(precv.comps);
        out.push(div);
        out.extend(leray.comps);
        (block, out)
    });
    let mut full = vec![vec![0.0; grid.total()]; per_rank[0].1.len()];
    for (block, fields) in &per_rank {
        for (field, full) in fields.iter().zip(&mut full) {
            for (l, &val) in field.data().iter().enumerate() {
                full[grid.flatten(block.global_of_local(l))] = val;
            }
        }
    }
    full
}

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

#[test]
fn operators_match_serial_oracle_on_every_process_grid() {
    for n in GRIDS {
        let grid = Grid::new(n);
        let whole = Decomp::new(grid, 1).block(0, diffreg_grid::Layout::Spatial);
        let f = ScalarField::from_fn(&grid, whole, scalar);
        let v = VectorField::from_fn(&grid, whole, vector);
        let vc = [v.comps[0].data(), v.comps[1].data(), v.comps[2].data()];
        let oracle = SerialSpectral::new(n);
        let mut want = vec![f.data().to_vec()];
        want.extend(oracle.gradient(f.data()));
        want.extend(vc.map(|c| oracle.apply_symbol(c, reg)));
        want.extend(vc.map(|c| oracle.apply_symbol(c, prec)));
        want.push(oracle.divergence(vc));
        want.extend(oracle.leray(vc));
        let oracle_spec = oracle.forward(f.data());

        let mut first: Option<Vec<Vec<f64>>> = None;
        for (p1, p2) in LAYOUTS {
            let got = run_ops(grid, p1, p2, &oracle_spec);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let d = max_diff(g, w);
                assert!(d < 1e-10, "{n:?} on {p1}x{p2}, result {i}: off the oracle by {d:e}");
            }
            let first = first.get_or_insert_with(|| got.clone());
            for (i, (g, w)) in got.iter().zip(first.iter()).enumerate() {
                let d = max_diff(g, w);
                assert!(d < 1e-12, "{n:?} on {p1}x{p2}, result {i}: off the 1x1 result by {d:e}");
            }
        }
    }
}
