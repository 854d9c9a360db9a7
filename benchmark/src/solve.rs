//! The solve workloads: inputs from the seed, set-up, the untraced
//! `register*` call that is timed, the traced re-assembly of the same driver
//! from public pieces, and the per-solve correctness checks.

use std::time::Instant;

use diffreg::comm::{Comm, CommStats};
use diffreg::core::{
    det_deformation_gradient, det_stats, displacement, register, register_with_continuation,
    RegProblem, RegistrationConfig,
};
use diffreg::grid::{Grid, ScalarField, VectorField};
use diffreg::imgsim::{template_fn, velocity_fn, BrainSubject, SUBJECT_A_SEED, SUBJECT_B_SEED};
use diffreg::optim::{gauss_newton_observed, GaussNewtonProblem, NewtonOptions, NewtonStatus};
use diffreg::session::SessionParts;
use diffreg::transport::{SemiLagrangian, Workspace};

use crate::trace::{Traced, Tracer};

/// Which image pair a workload registers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Problem {
    /// The paper's sin² template transported by `v*` of this amplitude.
    Synthetic { amplitude: f64 },
    /// Two brain phantoms (subject B onto subject A).
    Brain,
}

/// One solve workload with its seed-derived inputs already fixed.
#[derive(Debug, Clone)]
pub struct SolveSpec {
    pub grid: [usize; 3],
    pub ranks: usize,
    pub problem: Problem,
    pub betas: Vec<f64>,
    /// Semi-Lagrangian time steps.
    pub nt: usize,
    /// Newton iteration cap; `None` solves to gtol and must converge.
    pub max_newton: Option<usize>,
    /// A solve whose relative mismatch exceeds this has failed.
    pub mismatch_limit: f64,
    pub min_reps: usize,
    /// Rigid sub-voxel shift of the whole problem (0 at seed 0).
    pub shift: [f64; 3],
}

/// splitmix64: the benchmark's only randomness, so inputs depend on nothing
/// but the seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [-1, 1).
pub fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Seed-derived perturbation of the generated inputs: a relative amplitude
/// change and a rigid shift in units of one grid cell. Seed 0 is the
/// canonical problem. The perturbation is kept small on purpose: it changes
/// every input bit but not the amount of work (iteration counts), so runs at
/// different seeds stay comparable (README.md, "Seeds").
pub fn perturbation(seed: u64) -> (f64, [f64; 3]) {
    if seed == 0 {
        return (1.0, [0.0; 3]);
    }
    let mut s = seed;
    let amp = 1.0 + AMPLITUDE_JITTER * unit(&mut s);
    (
        amp,
        [
            SHIFT_CELLS * unit(&mut s),
            SHIFT_CELLS * unit(&mut s),
            SHIFT_CELLS * unit(&mut s),
        ],
    )
}

/// Relative half-width of the amplitude perturbation.
const AMPLITUDE_JITTER: f64 = 1e-6;
/// Half-width of the rigid shift, in grid cells.
const SHIFT_CELLS: f64 = 1e-5;

impl SolveSpec {
    pub fn grid(&self) -> Grid {
        Grid::new(self.grid)
    }

    fn config(&self) -> RegistrationConfig {
        let mut newton = NewtonOptions::default();
        if let Some(cap) = self.max_newton {
            newton.max_iter = cap;
        }
        RegistrationConfig {
            beta: self.betas[0],
            nt: self.nt,
            newton,
            ..Default::default()
        }
    }
}

/// Template and reference image on this rank's block.
pub fn images<C: Comm>(ws: &Workspace<C>, spec: &SolveSpec) -> (ScalarField, ScalarField) {
    let grid = ws.grid();
    let h = grid.spacing();
    let s = [
        spec.shift[0] * h[0],
        spec.shift[1] * h[1],
        spec.shift[2] * h[2],
    ];
    let at = |x: [f64; 3]| [x[0] - s[0], x[1] - s[1], x[2] - s[2]];
    match spec.problem {
        Problem::Synthetic { amplitude } => {
            let rho_t = ScalarField::from_fn(&grid, ws.block(), |x| template_fn(at(x)));
            let v_star = VectorField::from_fn(&grid, ws.block(), |x| velocity_fn(at(x), amplitude));
            let sl = SemiLagrangian::new(ws, &v_star, 4);
            let rho_r = sl
                .solve_state(ws, &rho_t)
                .pop()
                .expect("state history holds nt+1 fields");
            (rho_t, rho_r)
        }
        Problem::Brain => {
            let (a, b) = (
                BrainSubject::new(SUBJECT_A_SEED),
                BrainSubject::new(SUBJECT_B_SEED),
            );
            let rho_r = ScalarField::from_fn(&grid, ws.block(), |x| a.intensity(at(x)));
            let rho_t = ScalarField::from_fn(&grid, ws.block(), |x| b.intensity(at(x)));
            (rho_t, rho_r)
        }
    }
}

/// Everything one solve needs: decomposition, FFT plan, timers, images.
pub struct Setup<C: Comm> {
    pub parts: SessionParts<C>,
    pub rho_t: ScalarField,
    pub rho_r: ScalarField,
}

pub fn setup<C: Comm>(comm: &C, spec: &SolveSpec) -> Setup<C> {
    let parts = SessionParts::new(comm, spec.grid());
    let (rho_t, rho_r) = images(&parts.workspace(comm), spec);
    Setup {
        parts,
        rho_t,
        rho_r,
    }
}

/// What the checks and the counters need from one finished solve.
#[derive(Debug, Clone)]
pub struct Solved {
    pub velocity: VectorField,
    pub digest: u64,
    pub status: NewtonStatus,
    pub rel_mismatch: f64,
    pub diffeomorphic: bool,
    pub newton_iters: usize,
    pub matvecs: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV digest of the velocity bits, every rank's slab folded in rank order:
/// equal digests mean bitwise-equal velocities. Collective.
pub fn velocity_digest<C: Comm>(comm: &C, v: &VectorField) -> u64 {
    let mut local = FNV_OFFSET;
    for c in &v.comps {
        for x in c.data() {
            local = fnv(local, x.to_bits());
        }
    }
    comm.allgather(vec![local])
        .iter()
        .fold(FNV_OFFSET, |h, part| fnv(h, part[0]))
}

/// The untraced solve: exactly what a user calls.
pub fn solve_untraced<C: Comm>(ws: &Workspace<C>, s: &Setup<C>, spec: &SolveSpec) -> Solved {
    let cfg = spec.config();
    let (out, reports) = if spec.betas.len() == 1 {
        let out = register(ws, &s.rho_t, &s.rho_r, cfg);
        let report = out.report.clone();
        (out, vec![report])
    } else {
        register_with_continuation(ws, &s.rho_t, &s.rho_r, cfg, &spec.betas)
    };
    Solved {
        digest: 0,
        status: out.report.status,
        rel_mismatch: out.relative_mismatch(),
        diffeomorphic: out.det_grad.diffeomorphic,
        newton_iters: reports.iter().map(|r| r.outer_iterations()).sum(),
        matvecs: reports.iter().map(|r| r.total_matvecs).sum(),
        velocity: out.velocity,
    }
}

/// The same driver re-assembled from public pieces (`RegProblem::new`,
/// `project`, `gauss_newton_observed`, the continuation loop, the final
/// diagnostics) around the [`Traced`] decorator. Its velocity must equal
/// [`solve_untraced`]'s bit for bit, which proves it is the same program.
pub fn solve_traced<C: Comm>(
    ws: &Workspace<C>,
    s: &Setup<C>,
    spec: &SolveSpec,
    tracer: &Tracer,
) -> Solved {
    let base = spec.config();
    let mut v = VectorField::zeros(ws.block());
    let mut last = None;
    let (mut newton_iters, mut matvecs) = (0, 0);
    for &beta in &spec.betas {
        tracer.span("level", || {
            let cfg = RegistrationConfig { beta, ..base };
            let ws = &Workspace {
                kernel: cfg.kernel,
                ..*ws
            };
            let mut prob = tracer.span("problem_setup", || {
                Traced::new(RegProblem::new(ws, &s.rho_t, &s.rho_r, cfg), tracer)
            });
            let initial = prob.inner.initial_data_term();
            let v0 = prob.inner.project(&v);
            let (velocity, report) = tracer.span("newton", || {
                gauss_newton_observed(&mut prob, v0, &cfg.newton, None, |_, _| {})
            });
            let (final_mismatch, det_grad) = tracer.span("postprocess", || {
                prob.linearize(&velocity);
                let mut resid = prob
                    .inner
                    .deformed_template()
                    .expect("linearize caches rho(1)")
                    .clone();
                resid.axpy(-1.0, prob.inner.reference());
                let final_mismatch = 0.5 * resid.inner(&resid, &ws.grid(), ws.comm);
                let u = displacement(ws, &velocity, cfg.nt);
                (
                    final_mismatch,
                    det_stats(ws, &det_deformation_gradient(ws, &u)),
                )
            });
            newton_iters += report.outer_iterations();
            matvecs += report.total_matvecs;
            v = velocity;
            last = Some((
                report.status,
                initial,
                final_mismatch,
                det_grad.diffeomorphic,
            ));
        });
    }
    let (status, initial, final_mismatch, diffeomorphic) = last.expect("at least one beta level");
    let rel_mismatch = if initial > 0.0 {
        (final_mismatch / initial).sqrt()
    } else {
        0.0
    };
    Solved {
        velocity: v,
        digest: 0,
        status,
        rel_mismatch,
        diffeomorphic,
        newton_iters,
        matvecs,
    }
}

/// One timed solve, barrier to barrier; the wall time is the slowest rank's.
/// Comm counters and phase timers cover exactly the solve.
pub struct TimedSolve {
    pub solved: Solved,
    pub wall_s: f64,
    pub comm: CommStats,
}

pub fn timed_solve<C: Comm>(
    comm: &C,
    s: &Setup<C>,
    spec: &SolveSpec,
    tracer: Option<&Tracer>,
) -> TimedSolve {
    let ws = s.parts.workspace(comm);
    comm.barrier();
    comm.reset_stats();
    s.parts.timers().reset();
    let t0 = Instant::now();
    let mut solved = match tracer {
        Some(t) => t.span("solve", || solve_traced(&ws, s, spec, t)),
        None => solve_untraced(&ws, s, spec),
    };
    let stats = comm.stats();
    comm.barrier();
    let wall_s = comm.max_f64(t0.elapsed().as_secs_f64());
    solved.digest = velocity_digest(comm, &solved.velocity);
    TimedSolve {
        solved,
        wall_s,
        comm: stats,
    }
}

/// Why a finished solve counts as failed, if it does.
pub fn check(spec: &SolveSpec, s: &Solved, reference_digest: Option<u64>) -> Option<String> {
    if spec.max_newton.is_none() && s.status != NewtonStatus::Converged {
        return Some(format!("Newton status {:?}", s.status));
    }
    if s.rel_mismatch.is_nan() || s.rel_mismatch > spec.mismatch_limit {
        return Some(format!(
            "rel_mismatch {} > {}",
            s.rel_mismatch, spec.mismatch_limit
        ));
    }
    if !s.diffeomorphic {
        return Some("det(grad y1) not positive everywhere".to_string());
    }
    match reference_digest {
        Some(d) if d != s.digest => Some(format!(
            "velocity digest {:016x} differs from {:016x}",
            s.digest, d
        )),
        _ => None,
    }
}
