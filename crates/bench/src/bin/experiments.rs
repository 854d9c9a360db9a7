//! The paper's remaining experiments, one program with one `--study` each
//! (Tables I–IV are `scaling_tables`). Every study prints its table and
//! writes `results/<suite>.json`.
//!
//! * `table5` — Table V, sensitivity of the computational work to the
//!   regularization weight β (paper §IV-C, runs #30-#32: β ∈ {1e-1, 1e-3,
//!   1e-5}, four Newton iterations on the brain images). *Fully measured*:
//!   the matvec growth as β shrinks is a property of the preconditioned
//!   Newton-Krylov algorithm (the spectral preconditioner is
//!   mesh-independent but not β-independent).
//!   `[--size 16] [--betas 1e-1,1e-3,1e-5]`
//! * `fig5` — Figure 5, the synthetic registration problem: reference ρ_R,
//!   template ρ_T, and the initial residual |ρ_R − ρ_T| (paper §IV-A1) as
//!   mid-axial PGM slices. `[--size 64] [--out figures]`
//! * `fig6_fig7` — Figures 6 and 7, brain registration: registers the
//!   two-subject brain-phantom substitute, writes axial PGM slices of
//!   reference, template, |residual| before and after, the deformed
//!   template and the pointwise `det(∇y₁)` map, and verifies the map is
//!   diffeomorphic (`det(∇y₁) > 0` everywhere), the paper's Fig. 7 claim.
//!   `[--size 32] [--beta 1e-3] [--out figures]`
//! * `mesh_independence` — the paper's algorithmic-optimality claim (§IV-B:
//!   "for fixed β the number of Newton iterations are independent of the
//!   mesh size"): the same synthetic problem at a sequence of grid sizes
//!   with a fixed β; outer iterations and Hessian matvecs must stay (nearly)
//!   flat while the unknown count grows by orders of magnitude.
//!   `[--sizes 8,12,16,24,32] [--beta 1e-2]`
//! * `ablations` — all six design-choice ablations below (suite
//!   `ablations`), or one of them by name. `[--size 16]`
//!   * `nt` — number of semi-Lagrangian steps (unconditional stability lets
//!     the paper use nt = 4; CFL-restricted schemes would need hundreds of
//!     steps and could not store the time history, §III-B2);
//!   * `kernel` — tricubic vs trilinear interpolation (§III-B2:
//!     "interpolation errors will be accumulated throughout the time
//!     stepping");
//!   * `reg` — H¹/H²/H³ regularization seminorms (the spectral
//!     discretization makes the operator choice free, §I);
//!   * `precond` — with/without the inverse-regularization preconditioner
//!     (§III-A);
//!   * `forcing` — Eisenstat-Walker forcing variants (§III-A);
//!   * `hessian` — Gauss-Newton vs full Newton (paper §II-B-b).
//!
//! Usage: `experiments --study <name> [study options]`

use diffreg_bench::{arg_list, sci, write_suite, BenchRecord, BenchSuite};
use diffreg_comm::{SerialComm, Timers};
use diffreg_core::{det_deformation_gradient, register, HessianKind, RegistrationConfig};
use diffreg_grid::{Decomp, Grid, ScalarField};
use diffreg_imgsim::{axial_slice, gather_full, write_pgm};
use diffreg_optim::{Forcing, NewtonOptions};
use diffreg_pfft::PencilFft;
use diffreg_spectral::RegOrder;
use diffreg_transport::{SemiLagrangian, Workspace};

type Ws<'a> = Workspace<'a, SerialComm>;

/// Runs `f` with a one-rank workspace on the `n`³ grid.
fn serial<R>(n: usize, f: impl FnOnce(&Ws<'_>, &SerialComm, &Grid) -> R) -> R {
    let grid = Grid::cubic(n);
    let comm = SerialComm::new();
    let decomp = Decomp::new(grid, 1);
    let fft = PencilFft::new(&comm, decomp);
    let timers = Timers::new();
    f(&Workspace::new(&comm, &decomp, &fft, &timers), &comm, &grid)
}

/// The value following `key`, if present.
fn arg_str<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].as_str())
}

fn arg_beta(args: &[String], default: f64) -> f64 {
    arg_str(args, "--beta").map_or(default, |s| s.parse().expect("bad beta"))
}

/// `--out` (default `figures/`), created.
fn arg_out(args: &[String]) -> String {
    let out = arg_str(args, "--out").unwrap_or("figures").to_string();
    std::fs::create_dir_all(&out).expect("cannot create output directory");
    out
}

/// The synthetic problem: the template transported by the known `v*` in
/// `nt` steps.
fn synthetic(ws: &Ws<'_>, grid: &Grid, nt: usize) -> (ScalarField, ScalarField) {
    let t = diffreg_imgsim::template(grid, ws.block());
    let v = diffreg_imgsim::exact_velocity(grid, ws.block(), 0.5);
    let r = SemiLagrangian::new(ws, &v, nt).solve_state(ws, &t).pop().unwrap();
    (t, r)
}

fn table5(args: &[String]) {
    let size = arg_list(args, "--size", &[16])[0];
    let betas: Vec<f64> = arg_str(args, "--betas")
        .map(|s| s.split(',').map(|s| s.parse().expect("bad beta")).collect())
        .unwrap_or_else(|| vec![1e-1, 1e-3, 1e-5]);

    println!("\nTable V: sensitivity to β, brain phantom {size}^3, four Newton iterations");
    println!("{:<10} {:>8} {:>16} {:>12} {:>10}", "beta", "matvecs", "time-to-sol (s)", "relative", "relres");
    println!("{}", "-".repeat(62));

    let mut suite = BenchSuite::new("table5");
    serial(size, |ws, _, grid| {
        let (rho_r, rho_t) = diffreg_imgsim::two_subject_pair(grid, ws.block());
        let mut base_time = None;
        let paper = [(43usize, 24.2, 1.0), (217, 111.0, 4.6), (1689, 858.0, 35.0)];
        for (i, &beta) in betas.iter().enumerate() {
            let cfg = RegistrationConfig {
                beta,
                newton: NewtonOptions {
                    max_iter: 4,
                    gtol: 1e-6, // run all four iterations like the paper
                    max_krylov: 500,
                    ..Default::default()
                },
                ..Default::default()
            };
            let t0 = std::time::Instant::now();
            let out = register(ws, &rho_t, &rho_r, cfg);
            let dt = t0.elapsed().as_secs_f64();
            let rel_time = dt / *base_time.get_or_insert(dt);
            let paper_note = paper
                .get(i)
                .map(|(m, t, r)| format!("(paper: {m} matvecs, {} s, {r:.1}x)", sci(*t)))
                .unwrap_or_default();
            println!(
                "{:<10} {:>8} {:>16} {:>12} {:>10.3} {}",
                format!("{beta:.0E}"),
                out.hessian_matvecs,
                sci(dt),
                format!("({rel_time:.1})"),
                out.relative_mismatch(),
                paper_note
            );
            suite.push(
                BenchRecord::new(format!("beta/{beta:.0E}"), vec![dt])
                    .with_extra("beta", beta)
                    .with_extra("matvecs", out.hessian_matvecs as f64)
                    .with_extra("rel_time", rel_time)
                    .with_extra("rel_mismatch", out.relative_mismatch()),
            );
        }
    });
    println!("\nShape check: the matvec count and time must grow strongly as β decreases");
    println!("(the biharmonic preconditioner is mesh-independent but not β-independent, §IV-C).");
    write_suite(&suite);
}

fn fig5(args: &[String]) {
    let size = arg_list(args, "--size", &[64])[0];
    let out = arg_out(args);
    let mut suite = BenchSuite::new("fig5");
    serial(size, |ws, comm, grid| {
        let rho_t = diffreg_imgsim::template(grid, ws.block());
        let v_star = diffreg_imgsim::exact_velocity(grid, ws.block(), 0.5);
        let t0 = std::time::Instant::now();
        let rho_r = SemiLagrangian::new(ws, &v_star, 4).solve_state(ws, &rho_t).pop().unwrap();
        let transport_s = t0.elapsed().as_secs_f64();

        let mut resid = rho_r.clone();
        resid.axpy(-1.0, &rho_t);
        let max_res = resid.data().iter().map(|v| v.abs()).fold(0.0, f64::max);

        let mid = size / 2;
        let plane_t = axial_slice(&gather_full(comm, grid, &rho_t), grid, mid);
        let plane_r = axial_slice(&gather_full(comm, grid, &rho_r), grid, mid);
        let plane_d: Vec<f64> = plane_t.iter().zip(&plane_r).map(|(a, b)| (a - b).abs()).collect();
        for (name, plane) in [("template", &plane_t), ("reference", &plane_r), ("residual", &plane_d)] {
            write_pgm(format!("{out}/fig5_{name}.pgm"), plane, grid.n[2], grid.n[1], 0.0, 1.0).unwrap();
        }

        let ssd = diffreg_imgsim::ssd(&rho_r, &rho_t, grid, comm);
        println!("Figure 5 data written to {out}/fig5_*.pgm (axial slice {mid})");
        println!("  grid: {size}^3, |residual|_max = {max_res:.4}, SSD = {ssd:.6}");
        println!("  (dark areas of fig5_residual.pgm = large pre-registration mismatch)");
        suite.push(
            BenchRecord::new(format!("transport/{size}"), vec![transport_s])
                .with_extra("n", size as f64)
                .with_extra("residual_max", max_res)
                .with_extra("ssd", ssd),
        );
    });
    write_suite(&suite);
}

fn fig6_fig7(args: &[String]) {
    let size = arg_list(args, "--size", &[32])[0];
    let beta = arg_beta(args, 1e-3);
    let out = arg_out(args);
    let mut suite = BenchSuite::new("fig6_fig7");
    let diffeomorphic = serial(size, |ws, comm, grid| {
        let (rho_r, rho_t) = diffreg_imgsim::two_subject_pair(grid, ws.block());

        println!("Registering brain phantoms at {size}^3, beta = {beta:.0E} ...");
        let cfg = RegistrationConfig {
            beta,
            newton: NewtonOptions { max_iter: 50, gtol: 1e-2, ..Default::default() },
            ..Default::default()
        };
        let t0 = std::time::Instant::now();
        let res = register(ws, &rho_t, &rho_r, cfg);
        let solve_s = t0.elapsed().as_secs_f64();
        println!(
            "  done in {:.1}s: {} Newton iterations, {} matvecs, status {:?}",
            solve_s,
            res.report.outer_iterations(),
            res.hessian_matvecs,
            res.report.status
        );
        println!("  relative mismatch: {:.4}", res.relative_mismatch());
        println!(
            "  det(grad y1): min {:.3}, max {:.3}, mean {:.3} -> diffeomorphic: {}",
            res.det_grad.min, res.det_grad.max, res.det_grad.mean, res.det_grad.diffeomorphic
        );

        let det = det_deformation_gradient(ws, &res.displacement);
        let abs_residual = |image: &ScalarField| -> Vec<f64> {
            let mut d = image.clone();
            d.axpy(-1.0, &rho_r);
            gather_full(comm, grid, &d).iter().map(|v| v.abs()).collect()
        };
        let mid = size / 2;
        let slices: [(&str, Vec<f64>, f64, f64); 6] = [
            ("fig6_reference", gather_full(comm, grid, &rho_r), 0.0, 1.0),
            ("fig6_template", gather_full(comm, grid, &rho_t), 0.0, 1.0),
            ("fig6_residual_before", abs_residual(&rho_t), 0.0, 0.5),
            ("fig6_residual_after", abs_residual(&res.deformed_template), 0.0, 0.5),
            ("fig7_deformed_template", gather_full(comm, grid, &res.deformed_template), 0.0, 1.0),
            // Paper's Fig. 7 colormap spans det ∈ [0, 2].
            ("fig7_detgrad", gather_full(comm, grid, &det), 0.0, 2.0),
        ];
        for (name, full, lo, hi) in slices {
            let plane = axial_slice(&full, grid, mid);
            write_pgm(format!("{out}/{name}.pgm"), &plane, grid.n[2], grid.n[1], lo, hi).unwrap();
        }
        println!("Figures 6/7 slices written to {out}/fig6_*.pgm, {out}/fig7_*.pgm (axial slice {mid})");

        suite.push(
            BenchRecord::new(format!("register/{size}"), vec![solve_s])
                .with_extra("n", size as f64)
                .with_extra("beta", beta)
                .with_extra("outer", res.report.outer_iterations() as f64)
                .with_extra("matvecs", res.hessian_matvecs as f64)
                .with_extra("rel_mismatch", res.relative_mismatch())
                .with_extra("det_min", res.det_grad.min)
                .with_extra("det_max", res.det_grad.max),
        );
        res.det_grad.diffeomorphic
    });
    write_suite(&suite);
    assert!(diffeomorphic, "deformation must be diffeomorphic (paper Fig. 7)");
}

fn mesh_independence(args: &[String]) {
    let sizes = arg_list(args, "--sizes", &[8, 12, 16, 24, 32]);
    let beta = arg_beta(args, 1e-2);

    println!("Mesh-independence study: synthetic problem, fixed beta = {beta:.0E}, gtol = 1e-2");
    println!(
        "{:<8} {:>12} {:>8} {:>9} {:>10} {:>10}",
        "N", "unknowns", "outer", "matvecs", "relres", "time (s)"
    );
    println!("{}", "-".repeat(62));

    let mut suite = BenchSuite::new("mesh_independence");
    let mut outer = Vec::new();
    for &n in &sizes {
        let (out, dt, unknowns) = serial(n, |ws, _, grid| {
            let (t, r) = synthetic(ws, grid, 4);
            let cfg = RegistrationConfig {
                beta,
                newton: NewtonOptions { max_iter: 20, gtol: 1e-2, ..Default::default() },
                ..Default::default()
            };
            let t0 = std::time::Instant::now();
            let out = register(ws, &t, &r, cfg);
            (out, t0.elapsed().as_secs_f64(), 3 * grid.total())
        });
        suite.push(
            BenchRecord::new(format!("n/{n}"), vec![dt])
                .with_extra("unknowns", unknowns as f64)
                .with_extra("outer", out.report.outer_iterations() as f64)
                .with_extra("matvecs", out.hessian_matvecs as f64)
                .with_extra("rel_mismatch", out.relative_mismatch()),
        );
        println!(
            "{:<8} {:>12} {:>8} {:>9} {:>10.4} {:>10}",
            format!("{n}^3"),
            unknowns,
            out.report.outer_iterations(),
            out.hessian_matvecs,
            out.relative_mismatch(),
            sci(dt),
        );
        outer.push(out.report.outer_iterations());
    }
    println!(
        "\nOuter iterations span [{}, {}] across a {}x growth in unknowns —",
        outer.iter().min().unwrap(),
        outer.iter().max().unwrap(),
        (sizes.last().unwrap() / sizes.first().unwrap()).pow(3)
    );
    println!("mesh-independent, as the paper reports. (β-dependence is Table V / `table5`.)");
    write_suite(&suite);
}

/// One ablation: its `--study` name and its body over the shared problem.
type Ablation = (&'static str, fn(&Problem<'_>, &mut BenchSuite));

const ABLATIONS: [Ablation; 6] = [
    ("nt", study_nt),
    ("kernel", study_kernel),
    ("reg", study_reg),
    ("precond", study_precond),
    ("forcing", study_forcing),
    ("hessian", study_hessian),
];

/// The ablations' shared synthetic problem (reference built with nt = 8).
struct Problem<'a> {
    ws: &'a Ws<'a>,
    t: ScalarField,
    r: ScalarField,
}

impl Problem<'_> {
    /// Registers under `cfg`: `(relres, matvecs, outer iterations, seconds)`.
    fn run(&self, cfg: RegistrationConfig) -> (f64, usize, usize, f64) {
        let t0 = std::time::Instant::now();
        let out = register(self.ws, &self.t, &self.r, cfg);
        (out.relative_mismatch(), out.hessian_matvecs, out.report.outer_iterations(), t0.elapsed().as_secs_f64())
    }
}

fn ablations(args: &[String], only: Option<&str>) {
    let size = arg_list(args, "--size", &[16])[0];
    let mut suite = BenchSuite::new("ablations");
    println!("Ablation studies at {size}^3 (synthetic problem, exact velocity known)");
    serial(size, |ws, _, grid| {
        let (t, r) = synthetic(ws, grid, 8);
        let p = Problem { ws, t, r };
        for (_, study) in ABLATIONS.iter().filter(|(name, _)| only.is_none_or(|o| o == *name)) {
            study(&p, &mut suite);
        }
    });
    write_suite(&suite);
}

fn study_nt(p: &Problem<'_>, suite: &mut BenchSuite) {
    println!("\n== nt ablation (semi-Lagrangian steps; paper fixes nt = 4) ==");
    println!("{:<6} {:>10} {:>8} {:>10}", "nt", "relres", "matvecs", "time (s)");
    for nt in [1usize, 2, 4, 8, 16] {
        let cfg = RegistrationConfig { beta: 1e-3, nt, ..Default::default() };
        let (rel, mv, _, dt) = p.run(cfg);
        println!("{nt:<6} {rel:>10.4} {mv:>8} {:>10}", sci(dt));
        suite.push(
            BenchRecord::new(format!("nt/{nt}"), vec![dt])
                .with_extra("rel_mismatch", rel)
                .with_extra("matvecs", mv as f64),
        );
    }
    println!("(accuracy saturates by nt≈4 while cost grows linearly — the paper's choice)");
}

fn study_kernel(p: &Problem<'_>, suite: &mut BenchSuite) {
    println!("\n== interpolation-kernel ablation ==");
    println!("{:<12} {:>10} {:>8} {:>10}", "kernel", "relres", "matvecs", "time (s)");
    for kernel in [diffreg_interp::Kernel::Tricubic, diffreg_interp::Kernel::Trilinear] {
        let cfg = RegistrationConfig { beta: 1e-3, kernel, ..Default::default() };
        let (rel, mv, _, dt) = p.run(cfg);
        println!("{:<12} {rel:>10.4} {mv:>8} {:>10}", format!("{kernel:?}"), sci(dt));
        suite.push(
            BenchRecord::new(format!("kernel/{kernel:?}"), vec![dt])
                .with_extra("rel_mismatch", rel)
                .with_extra("matvecs", mv as f64),
        );
    }
    println!("(trilinear is cheaper per point but loses registration accuracy, §III-B2)");
}

fn study_reg(p: &Problem<'_>, suite: &mut BenchSuite) {
    println!("\n== regularization-order ablation (spectral symbols make all orders free) ==");
    println!("{:<6} {:>10} {:>10} {:>8} {:>10} {:>18}", "order", "beta", "relres", "matvecs", "time (s)", "det range");
    // β scaled per order so the regularization strength at the dominant
    // modes is comparable.
    for (reg, beta) in [(RegOrder::H1, 1e-1), (RegOrder::H2, 1e-3), (RegOrder::H3, 1e-5)] {
        let cfg = RegistrationConfig { beta, reg, ..Default::default() };
        let t0 = std::time::Instant::now();
        let out = register(p.ws, &p.t, &p.r, cfg);
        println!(
            "{:<6} {:>10} {:>10.4} {:>8} {:>10} {:>18}",
            format!("{reg:?}"),
            format!("{beta:.0E}"),
            out.relative_mismatch(),
            out.hessian_matvecs,
            sci(t0.elapsed().as_secs_f64()),
            format!("[{:.2}, {:.2}]", out.det_grad.min, out.det_grad.max),
        );
        suite.push(
            BenchRecord::new(format!("reg/{reg:?}"), vec![t0.elapsed().as_secs_f64()])
                .with_extra("beta", beta)
                .with_extra("rel_mismatch", out.relative_mismatch())
                .with_extra("matvecs", out.hessian_matvecs as f64)
                .with_extra("det_min", out.det_grad.min)
                .with_extra("det_max", out.det_grad.max),
        );
    }
}

fn study_precond(p: &Problem<'_>, suite: &mut BenchSuite) {
    println!("\n== preconditioner ablation (inverse regularization operator, §III-A) ==");
    println!("{:<14} {:>10} {:>10} {:>8} {:>10}", "preconditioner", "beta", "relres", "matvecs", "time (s)");
    for beta in [1e-2, 1e-3] {
        for precondition in [true, false] {
            let cfg = RegistrationConfig {
                beta,
                precondition,
                newton: NewtonOptions { max_iter: 3, max_krylov: 2000, ..Default::default() },
                ..Default::default()
            };
            let (rel, mv, _, dt) = p.run(cfg);
            let name = if precondition { "spectral" } else { "none" };
            println!("{name:<14} {:>10} {rel:>10.4} {mv:>8} {:>10}", format!("{beta:.0E}"), sci(dt));
            suite.push(
                BenchRecord::new(format!("precond/{name}/{beta:.0E}"), vec![dt])
                    .with_extra("beta", beta)
                    .with_extra("rel_mismatch", rel)
                    .with_extra("matvecs", mv as f64),
            );
        }
    }
    println!("(without the preconditioner the Krylov solver needs many times more matvecs)");
}

fn study_forcing(p: &Problem<'_>, suite: &mut BenchSuite) {
    println!("\n== Eisenstat-Walker forcing ablation ==");
    println!("{:<18} {:>10} {:>8} {:>8} {:>10}", "forcing", "relres", "outer", "matvecs", "time (s)");
    let variants: [(&str, Forcing); 4] = [
        ("quadratic", Forcing::Quadratic),
        ("superlinear", Forcing::Superlinear),
        ("constant 0.5", Forcing::Constant(0.5)),
        ("constant 1e-2", Forcing::Constant(1e-2)),
    ];
    for (name, forcing) in variants {
        let cfg = RegistrationConfig {
            beta: 1e-3,
            newton: NewtonOptions { forcing, ..Default::default() },
            ..Default::default()
        };
        let (rel, mv, outer, dt) = p.run(cfg);
        println!("{name:<18} {rel:>10.4} {outer:>8} {mv:>8} {:>10}", sci(dt));
        suite.push(
            BenchRecord::new(format!("forcing/{}", name.replace(' ', "_")), vec![dt])
                .with_extra("rel_mismatch", rel)
                .with_extra("outer", outer as f64)
                .with_extra("matvecs", mv as f64),
        );
    }
    println!("(tight constant tolerances oversolve early Newton steps — the paper's");
    println!(" inexact quadratic forcing gets the same answer with fewer matvecs)");
}

fn study_hessian(p: &Problem<'_>, suite: &mut BenchSuite) {
    println!("\n== Hessian-operator ablation (Gauss-Newton vs full Newton) ==");
    println!("{:<14} {:>10} {:>8} {:>8} {:>10}", "operator", "relres", "outer", "matvecs", "time (s)");
    for (name, hessian) in [("gauss-newton", HessianKind::GaussNewton), ("full-newton", HessianKind::FullNewton)] {
        let cfg = RegistrationConfig { beta: 1e-3, hessian, ..Default::default() };
        let (rel, mv, outer, dt) = p.run(cfg);
        println!("{name:<14} {rel:>10.4} {outer:>8} {mv:>8} {:>10}", sci(dt));
        suite.push(
            BenchRecord::new(format!("hessian/{name}"), vec![dt])
                .with_extra("rel_mismatch", rel)
                .with_extra("outer", outer as f64)
                .with_extra("matvecs", mv as f64),
        );
    }
    println!("(the paper opts for Gauss-Newton: cheaper matvecs, PSD operator;");
    println!(" full Newton's extra λ terms cost FFTs per matvec for little gain here)");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match arg_str(&args, "--study") {
        Some("table5") => table5(&args),
        Some("fig5") => fig5(&args),
        Some("fig6_fig7") => fig6_fig7(&args),
        Some("mesh_independence") => mesh_independence(&args),
        Some("ablations") => ablations(&args, None),
        Some(one) if ABLATIONS.iter().any(|(name, _)| *name == one) => ablations(&args, Some(one)),
        other => {
            eprintln!(
                "usage: experiments --study table5|fig5|fig6_fig7|mesh_independence|ablations|\
                 nt|kernel|reg|precond|forcing|hessian [study options] (got {other:?})"
            );
            std::process::exit(2);
        }
    }
}
