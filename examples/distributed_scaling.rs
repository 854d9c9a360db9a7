//! Distributed execution demo: the same registration solved serially and on
//! four simulated MPI ranks gives identical results; prints the per-phase
//! timer breakdown and communication counters the scaling tables use.
//!
//! Run with: `cargo run --release --example distributed_scaling`

use diffreg::comm::{run_threaded, Comm, SerialComm};
use diffreg::core::{register, RegistrationConfig};
use diffreg::grid::Grid;
use diffreg::optim::NewtonOptions;
use diffreg::session::SessionParts;
use diffreg::transport::compute_trajectory;

fn solve<C: Comm>(comm: &C, n: usize) -> (f64, f64, [f64; 4], diffreg::comm::CommStats) {
    let parts = SessionParts::new(comm, Grid::cubic(n));
    let ws = parts.workspace(comm);
    let template = diffreg::imgsim::template(&parts.grid(), ws.block());
    let v_star = diffreg::imgsim::exact_velocity(&parts.grid(), ws.block(), 0.5);
    let fwd = compute_trajectory(&ws, &v_star, 1.0 / 4.0, 1.0);
    let reference = fwd.advect(&ws, &template, 4).pop().unwrap();
    let cfg = RegistrationConfig {
        beta: 1e-2,
        newton: NewtonOptions { max_iter: 2, ..Default::default() },
        ..Default::default()
    };
    comm.reset_stats();
    let out = register(&ws, &template, &reference, cfg);
    let t = parts.timers();
    (
        out.final_mismatch,
        out.report.grad_norm,
        [t.get("fft_comm"), t.get("fft_exec"), t.get("interp_comm"), t.get("interp_exec")],
        comm.stats(),
    )
}

fn main() {
    let n = 16;
    println!("Solving the synthetic problem at {n}^3, serial vs 4 simulated MPI ranks\n");

    let serial = solve(&SerialComm::new(), n);
    println!("serial:  mismatch {:.6e}, |g| {:.6e}", serial.0, serial.1);

    let dist = run_threaded(4, move |comm| solve(comm, n));
    println!("4 ranks: mismatch {:.6e}, |g| {:.6e}", dist[0].0, dist[0].1);

    let dm = (serial.0 - dist[0].0).abs() / serial.0.max(1e-300);
    println!("\nrelative difference serial vs distributed: {dm:.2e}");
    assert!(dm < 1e-9, "distributed solve must match serial");

    println!("\nPer-rank phase breakdown (seconds) and traffic:");
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "rank", "fft comm", "fft exec", "interp comm", "interp exec", "messages", "bytes sent"
    );
    for (r, d) in dist.iter().enumerate() {
        println!(
            "{:<6} {:>10.3} {:>10.3} {:>12.3} {:>12.3} {:>10} {:>12}",
            r, d.2[0], d.2[1], d.2[2], d.2[3], d.3.messages_sent, d.3.bytes_sent
        );
    }
    println!("\n(One physical core executes all ranks here, so wall-clock does not drop;");
    println!(" the byte/message counters are what a real cluster run would transfer.)");
}
