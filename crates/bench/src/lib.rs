//! # diffreg-bench
//!
//! Shared harness for the table/figure regeneration binaries: measured
//! registration runs on the simulated distributed machine (per-phase
//! timings exactly as the paper's tables split them), the paper-scale
//! model projection, and table formatting.
//!
//! Every binary prints (a) *measured* rows from real solves on scaled-down
//! grids with simulated MPI ranks, and (b) *modeled* rows at the paper's
//! grid sizes using `diffreg-perfmodel` (DESIGN.md substitution #1/#6).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod kernels;
pub mod results;

pub use results::{
    compare_suites, hostname, results_dir, row_record, write_suite, BenchRecord, BenchSuite,
    GateFinding, GateReport,
};

use diffreg_comm::{run_threaded, Comm, Timers};
use diffreg_core::{register, RegistrationConfig};
use diffreg_grid::{Decomp, Grid, ScalarField};
use diffreg_pfft::PencilFft;
use diffreg_telemetry::collect_phase_report;
use diffreg_transport::{SemiLagrangian, Workspace};

/// One row of a scaling table (measured or modeled).
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Grid extents.
    pub n: [usize; 3],
    /// Node count (tasks / tasks_per_node for the modeled machine).
    pub nodes: usize,
    /// MPI task count.
    pub tasks: usize,
    /// Time to solution in seconds.
    pub time_to_solution: f64,
    /// FFT communication seconds.
    pub fft_comm: f64,
    /// FFT execution seconds.
    pub fft_exec: f64,
    /// Interpolation communication seconds.
    pub interp_comm: f64,
    /// Interpolation execution seconds.
    pub interp_exec: f64,
    /// Hessian matvecs performed (measured rows only).
    pub matvecs: usize,
    /// Relative mismatch after registration (measured rows only).
    pub rel_mismatch: f64,
}

/// Which synthetic problem a measured run solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// The paper's sin² synthetic problem (Fig. 5) with `v*`.
    Synthetic,
    /// The same with a divergence-free `v*` and the incompressibility
    /// constraint enabled (Table III).
    SyntheticIncompressible,
    /// The two-subject brain-phantom problem (Tables IV/V, Fig. 6/7).
    Brain,
}

/// Builds the problem images on one rank.
pub fn build_images<C: Comm>(ws: &Workspace<C>, problem: Problem) -> (ScalarField, ScalarField) {
    let grid = ws.grid();
    match problem {
        Problem::Synthetic => {
            let t = diffreg_imgsim::template(&grid, ws.block());
            let v = diffreg_imgsim::exact_velocity(&grid, ws.block(), 0.5);
            let sl = SemiLagrangian::new(ws, &v, 4);
            let r = sl.solve_state(ws, &t).pop().unwrap();
            (t, r)
        }
        Problem::SyntheticIncompressible => {
            let t = diffreg_imgsim::template(&grid, ws.block());
            let v = diffreg_imgsim::exact_velocity_divfree(&grid, ws.block(), 0.5);
            let sl = SemiLagrangian::new(ws, &v, 4);
            let r = sl.solve_state(ws, &t).pop().unwrap();
            (t, r)
        }
        Problem::Brain => {
            let (r, t) = diffreg_imgsim::two_subject_pair(&grid, ws.block());
            (t, r)
        }
    }
}

/// Result of one measured run, including the per-phase timer maxima over
/// ranks (the way MPI codes report phase times).
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The assembled table row.
    pub row: Row,
    /// Outer Newton iterations performed.
    pub newton_iters: usize,
}

/// Runs one measured registration on `p` simulated ranks and returns the
/// table row (phase timings are the max over ranks).
pub fn measured_run(n: [usize; 3], p: usize, problem: Problem, cfg: RegistrationConfig) -> Measured {
    let grid = Grid::new(n);
    let per_rank = run_threaded(p, move |comm| {
        let decomp = Decomp::new(grid, p);
        let fft = PencilFft::new(comm, decomp);
        let timers = Timers::new();
        let ws = Workspace::new(comm, &decomp, &fft, &timers);
        let (t, r) = build_images(&ws, problem);
        // Time only the solve (image construction is experimental setup).
        timers.reset();
        comm.barrier();
        let t0 = std::time::Instant::now();
        let out = register(&ws, &t, &r, cfg);
        comm.barrier();
        timers.add("time_to_solution", t0.elapsed().as_secs_f64());
        let report = collect_phase_report(comm, &timers, &comm.stats());
        let max = |key: &str| report.phase(key).map_or(0.0, |e| e.max);
        Measured {
            row: Row {
                n,
                nodes: 1,
                tasks: p,
                time_to_solution: max("time_to_solution"),
                fft_comm: max("fft_comm"),
                fft_exec: max("fft_exec"),
                interp_comm: max("interp_comm"),
                interp_exec: max("interp_exec"),
                matvecs: out.hessian_matvecs,
                rel_mismatch: out.relative_mismatch(),
            },
            newton_iters: out.report.iterations.len(),
        }
    });
    // The report and the outcome are replicated: every rank built this row.
    per_rank[0]
}

/// Converts a perfmodel breakdown into a table row for machine `m`.
pub fn modeled_row(
    m: &diffreg_perfmodel::Machine,
    n: [usize; 3],
    tasks: usize,
    shape: &diffreg_perfmodel::SolveShape,
) -> Row {
    let b = diffreg_perfmodel::model_solve(m, n, tasks, shape);
    Row {
        n,
        nodes: tasks.div_ceil(m.tasks_per_node),
        tasks,
        time_to_solution: b.total(),
        fft_comm: b.fft_comm,
        fft_exec: b.fft_exec,
        interp_comm: b.interp_comm,
        interp_exec: b.interp_exec,
        matvecs: shape.matvecs,
        rel_mismatch: f64::NAN,
    }
}

/// Formats a number the way the paper's tables do (e.g. `1.52E+1`).
pub fn sci(x: f64) -> String {
    if x.is_nan() {
        return "-".into();
    }
    let s = format!("{x:.2E}");
    // Rust prints 1.52E1; normalize to 1.52E+1.
    if let Some(pos) = s.find('E') {
        let (mant, exp) = s.split_at(pos + 1);
        if !exp.starts_with('-') {
            return format!("{mant}+{exp}");
        }
    }
    s
}

/// Prints the standard scaling-table header.
pub fn print_header(title: &str) {
    println!("\n{title}");
    println!(
        "{:<14} {:>6} {:>6} {:>14} | {:>10} {:>10} | {:>10} {:>10} | {:>8} {:>8}",
        "N", "nodes", "tasks", "time-to-sol", "fft comm", "fft exec", "int comm", "int exec", "matvecs", "relres"
    );
    println!("{}", "-".repeat(118));
}

/// Prints one table row.
pub fn print_row(tag: &str, r: &Row) {
    let nstr = if r.n[0] == r.n[1] && r.n[1] == r.n[2] {
        format!("{}^3", r.n[0])
    } else {
        format!("{}x{}x{}", r.n[0], r.n[1], r.n[2])
    };
    println!(
        "{:<14} {:>6} {:>6} {:>14} | {:>10} {:>10} | {:>10} {:>10} | {:>8} {:>8} {}",
        nstr,
        r.nodes,
        r.tasks,
        sci(r.time_to_solution),
        sci(r.fft_comm),
        sci(r.fft_exec),
        sci(r.interp_comm),
        sci(r.interp_exec),
        r.matvecs,
        if r.rel_mismatch.is_nan() { "-".into() } else { format!("{:.3}", r.rel_mismatch) },
        tag,
    );
}

/// Parses `--key v1,v2,...` style usize-list arguments; returns `default`
/// when the flag is absent.
pub fn arg_list(args: &[String], key: &str, default: &[usize]) -> Vec<usize> {
    for w in args.windows(2) {
        if w[0] == key {
            return w[1].split(',').map(|s| s.parse().expect("bad integer list")).collect();
        }
    }
    default.to_vec()
}

/// True when `--flag` is present.
pub fn arg_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_format_matches_paper_style() {
        assert_eq!(sci(15.2), "1.52E+1");
        assert_eq!(sci(0.0488), "4.88E-2");
        assert_eq!(sci(f64::NAN), "-");
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> =
            ["prog", "--sizes", "16,32", "--full"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_list(&args, "--sizes", &[8]), vec![16, 32]);
        assert_eq!(arg_list(&args, "--tasks", &[1, 4]), vec![1, 4]);
        assert!(arg_flag(&args, "--full"));
        assert!(!arg_flag(&args, "--quick"));
    }

    #[test]
    fn measured_run_smoke_serial() {
        let cfg = RegistrationConfig {
            newton: diffreg_optim::NewtonOptions { max_iter: 1, ..Default::default() },
            ..Default::default()
        };
        let m = measured_run([8, 8, 8], 1, Problem::Synthetic, cfg);
        assert_eq!(m.row.tasks, 1);
        assert!(m.row.time_to_solution > 0.0);
        assert!(m.row.interp_exec > 0.0);
    }

    #[test]
    fn measured_run_smoke_distributed() {
        let cfg = RegistrationConfig {
            newton: diffreg_optim::NewtonOptions { max_iter: 1, ..Default::default() },
            ..Default::default()
        };
        let m = measured_run([8, 8, 8], 4, Problem::Synthetic, cfg);
        assert_eq!(m.row.tasks, 4);
        assert!(m.row.fft_comm > 0.0, "distributed run must show transpose time");
    }
}
