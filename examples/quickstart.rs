//! Quickstart: register the paper's synthetic problem (Fig. 5) serially and
//! print the solver diagnostics.
//!
//! Run with: `cargo run --release --example quickstart`

use diffreg::comm::{SerialComm, Timers};
use diffreg::core::{register, RegistrationConfig};
use diffreg::grid::Grid;
use diffreg::session::SessionParts;
use diffreg::transport::compute_trajectory;

fn main() {
    let n = 32;
    let comm = SerialComm::new();
    let parts = SessionParts::new(&comm, Grid::cubic(n));
    let ws = parts.workspace(&comm);

    // Template: the sin² phantom. Reference: the template transported by a
    // known velocity v* — so we know a good solution exists.
    let template = diffreg::imgsim::template(&parts.grid(), ws.block());
    let v_star = diffreg::imgsim::exact_velocity(&parts.grid(), ws.block(), 0.5);
    let fwd = compute_trajectory(&ws, &v_star, 1.0 / 4.0, 1.0);
    let reference = fwd.advect(&ws, &template, 4).pop().unwrap();

    println!("Registering the synthetic problem at {n}^3 ...");
    let cfg = RegistrationConfig::default().with_beta(1e-3);
    let t0 = std::time::Instant::now();
    let out = register(&ws, &template, &reference, cfg);
    let dt = t0.elapsed().as_secs_f64();

    println!("  status:            {:?}", out.report.status);
    println!("  Newton iterations: {}", out.report.outer_iterations());
    println!("  Hessian matvecs:   {}", out.report.total_matvecs);
    println!("  relative mismatch: {:.4} (1.0 = unregistered)", out.relative_mismatch());
    println!("  gradient drop:     {:.2e}", out.report.rel_grad());
    println!(
        "  det(grad y1):      [{:.3}, {:.3}] -> diffeomorphic: {}",
        out.det_grad.min, out.det_grad.max, out.det_grad.diffeomorphic
    );
    println!("  wall time:         {dt:.2} s");

    // Phase breakdown, the way the paper's tables report it.
    let t: &Timers = parts.timers();
    println!("\nPhase breakdown (s):");
    for key in ["fft_comm", "fft_exec", "interp_comm", "interp_exec"] {
        println!("  {key:<12} {:.3}", t.get(key));
    }
    assert!(out.relative_mismatch() < 0.35, "quickstart must demonstrate a good registration");
}
