//! Volume-preserving (mass-preserving) diffeomorphic registration: the
//! incompressible variant with the Leray-projected velocity (paper §II,
//! Table III) — "one of the most challenging" classes of deformation.
//!
//! Run with: `cargo run --release --example incompressible_registration`

use diffreg::comm::SerialComm;
use diffreg::core::{register, RegistrationConfig};
use diffreg::grid::Grid;
use diffreg::session::SessionParts;
use diffreg::transport::compute_trajectory;

fn main() {
    let n = 24;
    let comm = SerialComm::new();
    let parts = SessionParts::new(&comm, Grid::cubic(n));
    let ws = parts.workspace(&comm);
    let grid = parts.grid();

    let template = diffreg::imgsim::template(&grid, ws.block());
    let v_star = diffreg::imgsim::exact_velocity_divfree(&grid, ws.block(), 0.5);
    let div = ws.fft.divergence(&v_star, ws.timers);
    println!("exact velocity: |div v*|_inf = {:.2e} (divergence-free)", div.max_abs(&comm));
    let fwd = compute_trajectory(&ws, &v_star, 1.0 / 4.0, 1.0);
    let reference = fwd.advect(&ws, &template, 4).pop().unwrap();

    for incompressible in [false, true] {
        let cfg = RegistrationConfig::default().with_beta(1e-3).with_incompressible(incompressible);
        let t0 = std::time::Instant::now();
        let out = register(&ws, &template, &reference, cfg);
        let label = if incompressible { "incompressible (div v = 0)" } else { "unconstrained       " };
        println!(
            "\n{label}: {:.1}s, {} matvecs",
            t0.elapsed().as_secs_f64(),
            out.report.total_matvecs
        );
        println!("  relative mismatch: {:.4}", out.relative_mismatch());
        println!(
            "  det(grad y1):      [{:.4}, {:.4}], mean {:.4}",
            out.det_grad.min, out.det_grad.max, out.det_grad.mean
        );
        if incompressible {
            let dv = ws.fft.divergence(&out.velocity, ws.timers);
            println!("  |div v|_inf:       {:.2e}", dv.max_abs(&comm));
            assert!(dv.max_abs(&comm) < 1e-8, "recovered velocity must be divergence-free");
            assert!(
                (out.det_grad.min - 1.0).abs() < 0.05 && (out.det_grad.max - 1.0).abs() < 0.05,
                "volume must be preserved pointwise: [{}, {}]",
                out.det_grad.min,
                out.det_grad.max
            );
        }
    }
    println!("\nTable III regime reproduced: the constrained solve keeps det(grad y1) = 1.");
}
