//! The `diffreg` command-line application: run registrations on synthetic
//! or brain-phantom problems (serially or on simulated MPI ranks), run grid
//! continuation, or query the performance model — without writing any code.
//!
//! ```text
//! diffreg synthetic --size 32 --beta 1e-3 [--tasks 4] [--incompressible] [--nt 4]
//! diffreg brain     --size 24 --beta 1e-3 [--multilevel 2] [--out figures]
//! diffreg model     --machine maverick --grid 256 --tasks 32,128,512,1024
//! diffreg info
//! ```

use diffreg::comm::{run_threaded, Comm, SerialComm};
use diffreg::core::{
    continuation_grids, register, register_solve, Level, RegistrationConfig, RegistrationOutcome,
};
use diffreg::grid::Grid;
use diffreg::perfmodel::{model_solve, Machine, SolveShape};
use diffreg::session::SessionParts;
use diffreg::transport::compute_trajectory;

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

fn opt(args: &[String], key: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone())
}

fn opt_parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    opt(args, key).map(|s| s.parse().expect("bad numeric argument")).unwrap_or(default)
}

fn usage() -> ! {
    eprintln!(
        "usage: diffreg <synthetic|brain|model|info> [options]\n\
         \n\
         synthetic: --size N (16) --beta B (1e-3) --nt T (4) --tasks P (1)\n\
         \x20          --incompressible --trilinear\n\
         brain:     --size N (16) --beta B (1e-3) --nt T (4) --multilevel L (0)\n\
         model:     --machine maverick|stampede --grid N (256) --tasks list (16,64,256)\n\
         info:      print build/configuration summary"
    );
    std::process::exit(2)
}

fn build_cfg(args: &[String]) -> RegistrationConfig {
    let mut cfg = RegistrationConfig {
        beta: opt_parse(args, "--beta", 1e-3),
        nt: opt_parse(args, "--nt", 4),
        incompressible: flag(args, "--incompressible"),
        ..Default::default()
    };
    if flag(args, "--trilinear") {
        cfg.kernel = diffreg::interp::Kernel::Trilinear;
    }
    cfg.newton.max_iter = opt_parse(args, "--max-iter", 50);
    cfg
}

fn report(out: &RegistrationOutcome, wall: f64) {
    println!("status:            {:?}", out.report.status);
    println!("newton iterations: {}", out.report.outer_iterations());
    println!("hessian matvecs:   {}", out.report.total_matvecs);
    println!("relative mismatch: {:.4}", out.relative_mismatch());
    println!("gradient drop:     {:.3e}", out.report.rel_grad());
    println!(
        "det(grad y1):      [{:.3}, {:.3}] diffeomorphic={}",
        out.det_grad.min, out.det_grad.max, out.det_grad.diffeomorphic
    );
    println!("wall time:         {wall:.2} s");
}

fn run_synthetic<C: Comm>(comm: &C, args: &[String]) -> (f64, usize, f64) {
    let size = opt_parse(args, "--size", 16usize);
    let parts = SessionParts::new(comm, Grid::cubic(size));
    let ws = parts.workspace(comm);
    let grid = parts.grid();
    let cfg = build_cfg(args);
    let t = diffreg::imgsim::template(&grid, ws.block());
    let v = if cfg.incompressible {
        diffreg::imgsim::exact_velocity_divfree(&grid, ws.block(), 0.5)
    } else {
        diffreg::imgsim::exact_velocity(&grid, ws.block(), 0.5)
    };
    let fwd = compute_trajectory(&ws, &v, 1.0 / cfg.nt as f64, 1.0);
    let r = fwd.advect(&ws, &t, cfg.nt).pop().unwrap();
    let t0 = std::time::Instant::now();
    let out = register(&ws, &t, &r, cfg);
    let wall = t0.elapsed().as_secs_f64();
    if comm.rank() == 0 {
        report(&out, wall);
    }
    (out.relative_mismatch(), out.report.total_matvecs, wall)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "synthetic" => {
            let tasks: usize = opt_parse(&args, "--tasks", 1);
            println!(
                "synthetic registration, {} rank(s), size {}",
                tasks,
                opt_parse(&args, "--size", 16usize)
            );
            if tasks == 1 {
                run_synthetic(&SerialComm::new(), &args);
            } else {
                let args2 = args.clone();
                run_threaded(tasks, move |comm| run_synthetic(comm, &args2));
            }
        }
        "brain" => {
            let size = opt_parse(&args, "--size", 16usize);
            let levels: usize = opt_parse(&args, "--multilevel", 0);
            let comm = SerialComm::new();
            let grid = Grid::cubic(size);
            let parts = SessionParts::new(&comm, grid);
            let ws = parts.workspace(&comm);
            let (rho_r, rho_t) = diffreg::imgsim::two_subject_pair(&grid, ws.block());
            let cfg = build_cfg(&args);
            println!("brain-phantom registration at {size}^3, beta {:.0E}, levels {levels}", cfg.beta);
            let t0 = std::time::Instant::now();
            let schedule: Vec<Level> = continuation_grids(grid, levels)
                .into_iter()
                .map(|grid| Level { beta: cfg.beta, grid })
                .collect();
            let (out, reports) = register_solve(&ws, &rho_t, &rho_r, cfg, &schedule, None, |_| {});
            for (i, rep) in reports.iter().enumerate() {
                println!(
                    "  level {i} ({:?}): {} iterations, {} matvecs",
                    schedule[i].grid.n,
                    rep.outer_iterations(),
                    rep.total_matvecs
                );
            }
            report(&out, t0.elapsed().as_secs_f64());
            if let Some(dir) = opt(&args, "--out") {
                std::fs::create_dir_all(&dir).expect("cannot create output dir");
                let full = diffreg::imgsim::gather_full(&comm, &grid, &out.deformed_template);
                let mid = grid.n[0] / 2;
                let plane = diffreg::imgsim::axial_slice(&full, &grid, mid);
                diffreg::imgsim::write_pgm(
                    format!("{dir}/deformed_template.pgm"),
                    &plane,
                    grid.n[2],
                    grid.n[1],
                    0.0,
                    1.0,
                )
                .expect("cannot write image");
                println!("wrote {dir}/deformed_template.pgm");
            }
        }
        "model" => {
            let machine = match opt(&args, "--machine").as_deref().unwrap_or("maverick") {
                "maverick" => Machine::MAVERICK,
                "stampede" => Machine::STAMPEDE,
                other => {
                    eprintln!("unknown machine '{other}'");
                    std::process::exit(2);
                }
            };
            let n: usize = opt_parse(&args, "--grid", 256);
            let tasks: Vec<usize> = opt(&args, "--tasks")
                .map(|s| s.split(',').map(|t| t.parse().expect("bad task list")).collect())
                .unwrap_or_else(|| vec![16, 64, 256]);
            let shape = SolveShape::paper_scaling();
            println!(
                "{} model, {n}^3 grid, shape: nt={} iters={} matvecs={}",
                machine.name, shape.nt, shape.newton_iters, shape.matvecs
            );
            println!("{:>8} {:>12} {:>10} {:>10} {:>10} {:>10}", "tasks", "total (s)", "fft comm", "fft exec", "int comm", "int exec");
            for p in tasks {
                let b = model_solve(&machine, [n, n, n], p, &shape);
                println!(
                    "{p:>8} {:>12.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                    b.total(),
                    b.fft_comm,
                    b.fft_exec,
                    b.interp_comm,
                    b.interp_exec
                );
            }
        }
        "info" => {
            println!("diffreg {} — SC16 LDDR reproduction", env!("CARGO_PKG_VERSION"));
            println!("defaults: {:#?}", RegistrationConfig::default());
        }
        _ => usage(),
    }
}
