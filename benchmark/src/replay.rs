//! Lower layers timed by replay: with a workload's grid, images and
//! converged velocity, each layer's public function is called a few times
//! after warm-up and the fastest wall time per call is kept.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use diffreg::comm::Comm;
use diffreg::core::{CheckpointStore, SolverCheckpoint};
use diffreg::fft::{
    fft_flops, transform_lines, Complex64, Direction, Fft1d, RealFft1d, RealScratch,
};
use diffreg::grid::{exchange_ghost, VectorField};
use diffreg::interp::{ghosted, Kernel, ScatterPlan, GHOST_WIDTH};
use diffreg::pfft::PencilFft;
use diffreg::spectral::RegOrder;
use diffreg::transport::{compute_trajectory, SemiLagrangian};

use crate::solve::{images, Setup, SolveSpec};
use crate::stats::fastest;

/// Replay effort: warm-ups, the most repetitions, and the time after which a
/// layer stops early (never before three repetitions).
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub warmups: usize,
    pub reps: usize,
    pub budget_s: f64,
}

impl Effort {
    pub const FULL: Effort = Effort {
        warmups: 2,
        reps: 9,
        budget_s: 0.6,
    };
    pub const SMOKE: Effort = Effort {
        warmups: 1,
        reps: 3,
        budget_s: 0.1,
    };
}

/// Fastest seconds per call of `f`, barrier to barrier on the slowest rank.
fn time<C: Comm, R>(comm: &C, e: Effort, mut f: impl FnMut() -> R) -> f64 {
    let mut once = || {
        comm.barrier();
        let t0 = Instant::now();
        std::hint::black_box(f());
        comm.barrier();
        comm.max_f64(t0.elapsed().as_secs_f64())
    };
    // A call that alone eats the budget gets one warm-up, not two.
    let first = once();
    if first < e.budget_s {
        for _ in 1..e.warmups {
            once();
        }
    }
    let mut samples = Vec::with_capacity(e.reps);
    let mut spent = 0.0;
    while samples.len() < e.reps && (samples.len() < 3 || spent < e.budget_s) {
        let dt = once();
        spent += dt;
        samples.push(dt);
    }
    fastest(&samples)
}

/// Per-call cost (seconds) and derived counts of every replayed layer,
/// keyed by metric name.
pub fn replay_layers<C: Comm>(
    comm: &C,
    s: &Setup<C>,
    spec: &SolveSpec,
    v: &VectorField,
    scratch_dir: &Path,
    e: Effort,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let ws = s.parts.workspace(comm);
    let (fft, timers, decomp) = (ws.fft, ws.timers, ws.decomp);
    let nt = spec.nt;
    let beta = *spec.betas.last().expect("at least one beta level");

    // fft: every last-axis line of this rank's block through the 1D plans.
    let n2 = spec.grid[2];
    let lines = ws.block().len() / n2;
    let plan = Fft1d::new(n2);
    let mut cdata: Vec<Complex64> = s
        .rho_t
        .data()
        .iter()
        .map(|&x| Complex64::new(x, 0.0))
        .collect();
    let c2c = time(comm, e, || {
        transform_lines(&plan, &mut cdata, Direction::Forward)
    });
    let rplan = RealFft1d::new(n2);
    let mut rscratch = RealScratch::default();
    let mut half = vec![Complex64::new(0.0, 0.0); rplan.half_len()];
    let r2c = time(comm, e, || {
        for line in s.rho_t.data().chunks_exact(n2) {
            rplan.forward(line, &mut half, &mut rscratch);
        }
    });
    m.insert("fft.lines_s", c2c + r2c);
    m.insert("fft.flops_computed", lines as f64 * 1.5 * fft_flops(n2));

    // pfft + spectral operators.
    m.insert(
        "pfft.plan_build_s",
        time(comm, e, || PencilFft::new(comm, *decomp)),
    );
    m.insert(
        "pfft.forward_s",
        time(comm, e, || fft.forward_half(&s.rho_t, timers)),
    );
    let spec_half = fft.forward_half(&s.rho_t, timers);
    m.insert(
        "pfft.inverse_s",
        time(comm, e, || fft.inverse_half(&spec_half, timers)),
    );
    m.insert(
        "pfft.gradient_s",
        time(comm, e, || fft.gradient(&s.rho_t, timers)),
    );
    m.insert(
        "spectral.regularization_s",
        time(comm, e, || {
            fft.regularization(v, RegOrder::H2, beta, timers)
        }),
    );
    m.insert(
        "spectral.precondition_s",
        time(comm, e, || fft.precondition(v, RegOrder::H2, beta, timers)),
    );
    let h = ws.grid().spacing();
    let sigma = (h[0] + h[1] + h[2]) / 3.0;
    m.insert(
        "spectral.gaussian_smooth_s",
        time(comm, e, || fft.gaussian_smooth(&s.rho_t, sigma, timers)),
    );

    // grid: one ghost exchange of the interpolation kernel's width.
    m.insert(
        "grid.ghost_exchange_s",
        time(comm, e, || {
            exchange_ghost(comm, decomp, &s.rho_t, GHOST_WIDTH)
        }),
    );
    let ghost = ghosted(comm, decomp, &s.rho_t);
    let ext = ghost.ext();
    let halo = ext[0] * ext[1] * ext[2] - ws.block().len();
    m.insert("grid.ghost_bytes_computed", (halo * 8) as f64);

    // transport at the converged velocity, then interp on its forward plan.
    m.insert(
        "transport.setup_s",
        time(comm, e, || SemiLagrangian::new(&ws, v, nt)),
    );
    m.insert(
        "transport.trajectory_s",
        time(comm, e, || compute_trajectory(&ws, v, 1.0 / nt as f64, 1.0)),
    );
    let sl = SemiLagrangian::new(&ws, v, nt);
    let points = &sl.forward_trajectory().points;
    m.insert(
        "interp.plan_build_s",
        time(comm, e, || ScatterPlan::build(comm, decomp, points, timers)),
    );
    let plan = &sl.forward_trajectory().plan;
    let eval = time(comm, e, || {
        plan.interpolate(comm, &ghost, Kernel::Tricubic, timers)
    });
    m.insert("interp.eval_s", eval);
    m.insert("interp.off_rank_fraction", plan.off_rank_fraction(comm));
    m.insert("interp.mpts_per_s", ws.grid().total() as f64 / eval / 1e6);

    m.insert(
        "transport.state_solve_s",
        time(comm, e, || sl.solve_state(&ws, &s.rho_t)),
    );
    let state = sl.solve_state(&ws, &s.rho_t);
    let lam1 = state.last().expect("state history holds nt+1 fields");
    m.insert(
        "transport.adjoint_solve_s",
        time(comm, e, || sl.solve_adjoint(&ws, lam1)),
    );
    let grads: Vec<VectorField> = state.iter().map(|r| fft.gradient(r, timers)).collect();
    m.insert(
        "transport.inc_state_s",
        time(comm, e, || sl.solve_incremental_state(&ws, v, &grads)),
    );
    m.insert(
        "transport.inc_adjoint_s",
        time(comm, e, || sl.solve_incremental_adjoint(&ws, lam1)),
    );
    m.insert(
        "transport.displacement_s",
        time(comm, e, || sl.solve_displacement(&ws, v)),
    );

    // core::checkpoint: one file-backed save and one validated load of this
    // rank's slab of the velocity.
    let bytes = SolverCheckpoint::capture(0, beta, 1, 1.0, v).to_bytes();
    let store = CheckpointStore::file(scratch_dir.join("replay"));
    let rank = comm.rank();
    m.insert("core.checkpoint_bytes", bytes.len() as f64);
    m.insert(
        "core.checkpoint_save_s",
        time(comm, e, || {
            store.save(rank, &bytes).expect("checkpoint save")
        }),
    );
    m.insert(
        "core.checkpoint_load_s",
        time(comm, e, || store.load_for_resume(rank)),
    );
    store.clear(rank);

    m.insert("imgsim.images_s", time(comm, e, || images(&ws, spec)));
    m
}
