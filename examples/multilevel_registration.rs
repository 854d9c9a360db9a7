//! Grid continuation (coarse-to-fine registration) — the multiresolution
//! technique the paper points to for taming nonlinearity (§I Limitations).
//!
//! Run with: `cargo run --release --example multilevel_registration`

use diffreg::comm::SerialComm;
use diffreg::core::{continuation_grids, register, register_solve, Level, RegistrationConfig};
use diffreg::grid::Grid;
use diffreg::optim::NewtonOptions;
use diffreg::session::SessionParts;
use diffreg::transport::compute_trajectory;

fn main() {
    let n = 32;
    let comm = SerialComm::new();
    let grid = Grid::cubic(n);
    let parts = SessionParts::new(&comm, grid);
    let ws = parts.workspace(&comm);

    let template = diffreg::imgsim::template(&grid, ws.block());
    let v_star = diffreg::imgsim::exact_velocity(&grid, ws.block(), 0.6);
    let fwd = compute_trajectory(&ws, &v_star, 1.0 / 4.0, 1.0);
    let reference = fwd.advect(&ws, &template, 4).pop().unwrap();

    let cfg = RegistrationConfig {
        beta: 1e-3,
        newton: NewtonOptions { max_iter: 4, ..Default::default() },
        ..Default::default()
    };

    println!("Single-level solve at {n}^3:");
    let t0 = std::time::Instant::now();
    let single = register(&ws, &template, &reference, cfg);
    let t_single = t0.elapsed().as_secs_f64();
    println!(
        "  relres {:.4}, {} matvecs, {:.1}s",
        single.relative_mismatch(),
        single.report.total_matvecs,
        t_single
    );

    println!("\nTwo-level continuation ({} -> {n}):", n / 2);
    let t0 = std::time::Instant::now();
    let beta = cfg.beta;
    let schedule: Vec<Level> =
        continuation_grids(grid, 1).into_iter().map(|grid| Level { beta, grid }).collect();
    let (multi, reports) = register_solve(&ws, &template, &reference, cfg, &schedule, None, |_| {});
    let t_multi = t0.elapsed().as_secs_f64();
    for (i, rep) in reports.iter().enumerate() {
        println!(
            "  level {i}: {} Newton its, {} matvecs",
            rep.outer_iterations(),
            rep.total_matvecs
        );
    }
    println!(
        "  relres {:.4}, fine-level matvecs {}, {:.1}s",
        multi.relative_mismatch(),
        reports.last().unwrap().total_matvecs,
        t_multi
    );

    assert!(multi.det_grad.diffeomorphic);
    assert!(
        multi.relative_mismatch() < single.relative_mismatch() * 1.3 + 0.02,
        "continuation must reach comparable quality"
    );
    println!(
        "\nCoarse levels are cheap; the warm-started fine solve needs {} matvecs vs {} direct.",
        reports.last().unwrap().total_matvecs,
        single.report.total_matvecs
    );
}
