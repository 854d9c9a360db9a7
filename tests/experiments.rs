//! Smoke and shape tests for the experiment harness: every paper table's
//! regeneration path runs, and the qualitative findings (who wins, what
//! grows, what dominates) match the paper.

use diffreg_bench::{build_images, measured_run, modeled_row, Problem};
use diffreg::core::{register, RegistrationConfig};
use diffreg::comm::SerialComm;
use diffreg::grid::Grid;
use diffreg::optim::NewtonOptions;
use diffreg::perfmodel::{model_solve, strong_efficiency, Machine, SolveShape};
use diffreg::session::SessionParts;

#[test]
fn table1_measured_path_runs() {
    let cfg = RegistrationConfig {
        newton: NewtonOptions { max_iter: 1, ..Default::default() },
        ..Default::default()
    };
    for p in [1usize, 4] {
        let m = measured_run([10, 10, 10], p, Problem::Synthetic, cfg);
        assert!(m.row.time_to_solution > 0.0);
        assert!(m.row.matvecs > 0);
        if p > 1 {
            assert!(m.row.fft_comm > 0.0, "distributed rows must show transpose time");
        }
    }
}

#[test]
fn table3_measured_path_incompressible() {
    let cfg = RegistrationConfig {
        incompressible: true,
        newton: NewtonOptions { max_iter: 1, ..Default::default() },
        ..Default::default()
    };
    let m = measured_run([10, 10, 10], 2, Problem::SyntheticIncompressible, cfg);
    assert!(m.row.time_to_solution > 0.0);
}

#[test]
fn table5_shape_matvecs_grow_as_beta_shrinks() {
    // The paper's Table V finding, fully measured at small scale.
    let comm = SerialComm::new();
    let parts = SessionParts::new(&comm, Grid::cubic(12));
    let ws = parts.workspace(&comm);
    let (rho_r, rho_t) = diffreg::imgsim::two_subject_pair(&parts.grid(), ws.block());
    let mut counts = Vec::new();
    for beta in [1e-1, 1e-3, 1e-5] {
        let cfg = RegistrationConfig {
            beta,
            newton: NewtonOptions { max_iter: 4, gtol: 1e-6, ..Default::default() },
            ..Default::default()
        };
        let out = register(&ws, &rho_t, &rho_r, cfg);
        counts.push(out.report.total_matvecs);
    }
    assert!(
        counts[0] < counts[1] && counts[1] < counts[2],
        "matvecs must grow as beta shrinks: {counts:?}"
    );
    assert!(
        counts[2] >= 4 * counts[0],
        "two decades of beta must cost several times more matvecs: {counts:?}"
    );
}

#[test]
fn table1_model_reproduces_paper_ordering() {
    // Time-to-solution decreases with task count at every paper grid size.
    let shape = SolveShape::paper_scaling();
    for n in [128usize, 256, 512] {
        let mut last = f64::INFINITY;
        for p in [16usize, 64, 256, 1024] {
            let row = modeled_row(&Machine::MAVERICK, [n, n, n], p, &shape);
            assert!(
                row.time_to_solution < last,
                "N={n}: time must fall with tasks ({} !< {last})",
                row.time_to_solution
            );
            last = row.time_to_solution;
        }
    }
}

#[test]
fn table2_model_largest_run_magnitude() {
    // Paper run #19: 1024³ on 2048 Stampede tasks took 85.7 s; the model
    // must land within a factor of ~2.5.
    let shape = SolveShape::paper_scaling();
    let b = model_solve(&Machine::STAMPEDE, [1024; 3], 2048, &shape);
    assert!(b.total() > 85.7 / 2.5 && b.total() < 85.7 * 2.5, "modeled {}", b.total());
}

#[test]
fn strong_scaling_efficiency_band() {
    let shape = SolveShape::paper_scaling();
    let t32 = model_solve(&Machine::MAVERICK, [256; 3], 32, &shape).total();
    let t512 = model_solve(&Machine::MAVERICK, [256; 3], 512, &shape).total();
    let e = strong_efficiency(t32, 32, t512, 512);
    // Paper: 67%.
    assert!(e > 0.4 && e < 0.95, "efficiency {e}");
}

#[test]
fn problem_builders_produce_distinct_images() {
    let comm = SerialComm::new();
    let parts = SessionParts::new(&comm, Grid::cubic(12));
    let ws = parts.workspace(&comm);
    for problem in [Problem::Synthetic, Problem::SyntheticIncompressible, Problem::Brain] {
        let (t, r) = build_images(&ws, problem);
        let mut d = t.clone();
        d.axpy(-1.0, &r);
        assert!(d.max_abs(&comm) > 1e-3, "{problem:?}: images must differ before registration");
    }
}
