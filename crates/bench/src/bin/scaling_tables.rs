//! Tables I–IV — the paper's scaling tables (§IV-B, §IV-C), one program
//! with four data rows.
//!
//! Every table prints (a) measured rows: full Gauss-Newton solves on the
//! simulated distributed machine at scaled-down grids, and (b) modeled rows
//! at the paper's grid/task configurations via the calibrated performance
//! model, annotated with the paper's reported time-to-solution.
//!
//! * Table I — synthetic problem on "Maverick" (runs #1-#13).
//! * Table II — 512³ and 1024³ synthetic runs on "Stampede" (#14-#19).
//! * Table III — incompressible (Leray-projected, div v = 0) synthetic
//!   problem, 128³ strong scaling on "Maverick" (#20-#24).
//! * Table IV — brain strong scaling on "Maverick" (#25-#29). Measured rows
//!   register the two-subject brain-phantom substitute (DESIGN.md
//!   substitution #4) on the paper's 256x300x256 grid divided by `--scale`,
//!   which keeps the aspect (axis 1 exercises the mixed-radix FFT path).
//!
//! Usage: `scaling_tables --table 1|2|3|4 [--sizes 16,32] [--scale 8]
//! [--tasks 1,4,16] [--skip-measured]` — `--sizes` are the measured cube
//! edges of tables 1-3, `--scale` the grid divisors of table 4 (the header
//! names the first).

use diffreg_bench::{
    arg_flag, arg_list, measured_run, modeled_row, print_header, print_row, row_record, sci,
    write_suite, BenchSuite, Problem,
};
use diffreg_core::RegistrationConfig;
use diffreg_optim::NewtonOptions;
use diffreg_perfmodel::{strong_efficiency, Machine, SolveShape};

/// The paper grid of Table IV; its measured rows run on this divided by
/// `--scale`.
const BRAIN_GRID: [usize; 3] = [256, 300, 256];

struct Table {
    suite: &'static str,
    /// Header of the measured block; `{grid}` / `{scale}` stand for the
    /// first measured grid and its `--scale`.
    measured_title: &'static str,
    /// Printed under the measured rows when non-empty.
    measured_note: &'static str,
    problem: Problem,
    /// Default measured sizes: cube edges, or grid divisors for the brain.
    sizes: &'static [usize],
    tasks: &'static [usize],
    modeled_title: &'static str,
    machine: Machine,
    shape: SolveShape,
    /// (grid, nodes, tasks, paper time-to-solution) from the paper's table.
    paper: &'static [([usize; 3], usize, usize, f64)],
    shape_check: fn(&Table),
}

impl Table {
    /// Modeled time-to-solution of this table's solve on `n` with `p` tasks.
    fn modeled_s(&self, n: [usize; 3], p: usize) -> f64 {
        modeled_row(&self.machine, n, p, &self.shape).time_to_solution
    }
}

const TABLES: [Table; 4] = [
    Table {
        suite: "table1",
        measured_title: "Table I (measured): synthetic problem, simulated distributed machine",
        measured_note:
            "(measured on one physical core; per-phase times are max over simulated ranks)",
        problem: Problem::Synthetic,
        sizes: &[16, 32],
        tasks: &[1, 4, 16],
        modeled_title:
            "Table I (modeled, Maverick @16 tasks/node): paper configurations #1-#13",
        machine: Machine::MAVERICK,
        shape: SolveShape::paper_scaling(),
        paper: &[
            ([64; 3], 1, 16, 1.54),
            ([64; 3], 2, 32, 0.95),
            ([128; 3], 1, 16, 15.2),
            ([128; 3], 2, 32, 7.88),
            ([128; 3], 4, 64, 4.70),
            ([128; 3], 16, 256, 2.01),
            ([256; 3], 2, 32, 79.9),
            ([256; 3], 8, 128, 23.0),
            ([256; 3], 32, 512, 7.23),
            ([256; 3], 64, 1024, 4.72),
            ([512; 3], 8, 128, 191.0),
            ([512; 3], 32, 512, 60.7),
            ([512; 3], 64, 1024, 32.9),
        ],
        shape_check: |t| {
            println!("\nShape checks (paper §IV-B):");
            let t32 = t.modeled_s([256; 3], 32);
            println!(
                "  256^3 strong-scaling efficiency 32->512: {:.0}% (paper: 67%), 32->1024: {:.0}% (paper: 50%)",
                100.0 * strong_efficiency(t32, 32, t.modeled_s([256; 3], 512), 512),
                100.0 * strong_efficiency(t32, 32, t.modeled_s([256; 3], 1024), 1024)
            );
        },
    },
    Table {
        suite: "table2",
        measured_title: "Table II (measured): synthetic problem, simulated distributed machine",
        measured_note: "",
        problem: Problem::Synthetic,
        sizes: &[16, 24],
        tasks: &[2, 8],
        modeled_title:
            "Table II (modeled, Stampede @2 tasks/node): paper configurations #14-#19",
        machine: Machine::STAMPEDE,
        shape: SolveShape::paper_scaling(),
        paper: &[
            ([512; 3], 256, 512, 38.4),
            ([512; 3], 512, 1024, 20.2),
            ([512; 3], 1024, 2048, 13.1),
            ([1024; 3], 256, 512, 354.0),
            ([1024; 3], 512, 1024, 169.0),
            ([1024; 3], 1024, 2048, 85.7),
        ],
        shape_check: |t| {
            println!(
                "\nShape check: the largest run (1024^3, 3.2 billion velocity unknowns, 2048 tasks)"
            );
            println!(
                "  modeled time-to-solution: {:.1} s (paper: 85.7 s)",
                t.modeled_s([1024; 3], 2048)
            );
        },
    },
    Table {
        suite: "table3",
        measured_title: "Table III (measured): incompressible synthetic problem (div v = 0)",
        measured_note:
            "(volume preservation of the measured runs is asserted in tests/incompressible.rs)",
        problem: Problem::SyntheticIncompressible,
        sizes: &[16],
        tasks: &[1, 4, 16],
        modeled_title:
            "Table III (modeled, Maverick @2 tasks/node): paper configurations #20-#24, 128^3",
        machine: Machine::MAVERICK,
        // The incompressible solve adds the Leray projection (2 extra FFT
        // sweeps per gradient/matvec): slightly more FFT work per matvec.
        shape: SolveShape { nt: 4, newton_iters: 2, matvecs: 6 },
        paper: &[
            ([128; 3], 1, 1, 148.0),
            ([128; 3], 2, 4, 42.7),
            ([128; 3], 4, 8, 22.5),
            ([128; 3], 8, 16, 10.9),
            ([128; 3], 16, 32, 5.69),
        ],
        shape_check: |t| {
            println!(
                "\nShape check: 1 -> 32 task speedup {:.1}x (paper: {:.1}x)",
                t.modeled_s([128; 3], 1) / t.modeled_s([128; 3], 32),
                148.0 / 5.69
            );
        },
    },
    Table {
        suite: "table4",
        measured_title:
            "Table IV (measured): brain phantom pair, grid {grid} (paper grid / {scale})",
        measured_note: "",
        problem: Problem::Brain,
        sizes: &[8],
        tasks: &[1, 4, 16],
        modeled_title: "Table IV (modeled, Maverick): paper configurations #25-#29, 256x300x256",
        machine: Machine::MAVERICK,
        // Two Newton iterations at β = 1e-2 on the brain pair: ~10 matvecs.
        shape: SolveShape { nt: 4, newton_iters: 2, matvecs: 10 },
        paper: &[
            (BRAIN_GRID, 1, 1, 1340.0),
            (BRAIN_GRID, 2, 4, 392.0),
            (BRAIN_GRID, 8, 16, 95.4),
            (BRAIN_GRID, 16, 32, 48.5),
            (BRAIN_GRID, 32, 256, 12.0),
        ],
        shape_check: |t| {
            println!(
                "\nShape check (paper: 'two orders of magnitude from one task to 256 tasks'):\n  1 -> 256 task speedup: {:.0}x (paper: {:.0}x)",
                t.modeled_s(BRAIN_GRID, 1) / t.modeled_s(BRAIN_GRID, 256),
                1340.0 / 12.0
            );
        },
    },
];

/// `16^3` for cubes, `16x18x16` otherwise — the grid part of a record name.
fn grid_label(n: [usize; 3]) -> String {
    if n[0] == n[1] && n[1] == n[2] {
        format!("{}^3", n[0])
    } else {
        format!("{}x{}x{}", n[0], n[1], n[2])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = arg_list(&args, "--table", &[]);
    let Some(t) = which.first().and_then(|&k| TABLES.get(k.wrapping_sub(1))) else {
        eprintln!(
            "usage: scaling_tables --table 1|2|3|4 [--sizes 16,32] [--scale 8] [--tasks 1,4,16] [--skip-measured]"
        );
        std::process::exit(2);
    };
    let brain = t.problem == Problem::Brain;
    let sizes = arg_list(&args, if brain { "--scale" } else { "--sizes" }, t.sizes);
    let tasks = arg_list(&args, "--tasks", t.tasks);
    let grid = |s: usize| if brain { BRAIN_GRID.map(|e| e / s) } else { [s; 3] };
    let mut suite = BenchSuite::new(t.suite);

    if !arg_flag(&args, "--skip-measured") {
        print_header(
            &t.measured_title
                .replace("{grid}", &grid_label(grid(sizes[0])))
                .replace("{scale}", &sizes[0].to_string()),
        );
        let cfg = RegistrationConfig {
            beta: 1e-2,
            incompressible: t.problem == Problem::SyntheticIncompressible,
            newton: NewtonOptions { max_iter: 2, ..Default::default() },
            ..Default::default()
        };
        for n in sizes.iter().map(|&s| grid(s)) {
            for &p in &tasks {
                let m = measured_run(n, p, t.problem, cfg);
                print_row("", &m.row);
                suite.push(row_record(format!("measured/{}/p{p}", grid_label(n)), &m.row));
            }
        }
        if !t.measured_note.is_empty() {
            println!("{}", t.measured_note);
        }
    }

    print_header(t.modeled_title);
    for &(n, nodes, p, t_paper) in t.paper {
        let mut row = modeled_row(&t.machine, n, p, &t.shape);
        row.nodes = nodes;
        print_row(&format!("(paper: {})", sci(t_paper)), &row);
        suite.push(
            row_record(format!("modeled/{}/p{p}", grid_label(n)), &row)
                .with_extra("paper_s", t_paper),
        );
    }
    (t.shape_check)(t);
    write_suite(&suite);
}
