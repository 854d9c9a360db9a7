//! The one solve entry point, [`register_solve`], against its two front
//! doors and against itself with each option switched on: a single-β
//! schedule is `register`, an enabled checkpoint store does not perturb the
//! solve, warm start + store + observer compose, a failed checkpoint save is
//! reported as such, and the observer's stream rendered through
//! [`ConvergenceLog`] is byte-identical to the JSONL the pre-merge
//! `register_with_continuation_logged` wrote for the same problem
//! (`tests/golden/`, captured at the parent commit of the merge).

use diffreg_comm::{run_threaded, Comm, SerialComm, Timers};
use diffreg_core::{
    register, register_solve, register_with_continuation, CheckpointStore, RegProblem,
    RegistrationConfig, RegistrationOutcome,
};
use diffreg_grid::{Decomp, Grid, ScalarField, VectorField};
use diffreg_interp::Kernel;
use diffreg_optim::{GaussNewtonProblem, NewtonOptions, NewtonReport, NewtonStatus};
use diffreg_pfft::PencilFft;
use diffreg_telemetry::{ConvergenceLog, StreamEntry};
use diffreg_transport::{SemiLagrangian, Workspace};

const BETAS: [f64; 2] = [1e-2, 1e-3];

/// The synthetic problem of paper §IV-A1 on `ws`'s grid.
fn synthetic_pair<C: Comm>(ws: &Workspace<C>) -> (ScalarField, ScalarField) {
    let grid = ws.grid();
    let rho_t = ScalarField::from_fn(&grid, ws.block(), |x| {
        (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
    });
    let v_star = VectorField::from_fn(&grid, ws.block(), |x| {
        [0.4 * x[0].cos() * x[1].sin(), 0.4 * x[1].cos() * x[0].sin(), 0.4 * x[0].cos() * x[2].sin()]
    });
    let sl = SemiLagrangian::new(ws, &v_star, 4);
    let rho_r = sl.solve_state(ws, &rho_t).pop().unwrap();
    (rho_t, rho_r)
}

/// Runs `body` on the 12³ serial synthetic problem.
fn on_problem<R>(
    body: impl FnOnce(&Workspace<SerialComm>, &ScalarField, &ScalarField) -> R,
) -> R {
    let grid = Grid::cubic(12);
    let comm = SerialComm::new();
    let decomp = Decomp::new(grid, 1);
    let fft = PencilFft::new(&comm, decomp);
    let timers = Timers::new();
    let ws = Workspace::new(&comm, &decomp, &fft, &timers);
    let (rho_t, rho_r) = synthetic_pair(&ws);
    body(&ws, &rho_t, &rho_r)
}

fn cfg() -> RegistrationConfig {
    RegistrationConfig {
        checkpoint_every: 1,
        newton: NewtonOptions { max_iter: 3, ..Default::default() },
        ..Default::default()
    }
}

fn bits(v: &VectorField) -> Vec<u64> {
    v.comps.iter().flat_map(|c| c.data().iter().map(|x| x.to_bits())).collect()
}

/// Velocity and final mismatch bitwise, reports through `Debug` (which
/// prints floats shortest-round-trip, so equal text means equal bits).
fn assert_same_solve(
    a: &(RegistrationOutcome, Vec<NewtonReport>),
    b: &(RegistrationOutcome, Vec<NewtonReport>),
    what: &str,
) {
    assert_eq!(bits(&a.0.velocity), bits(&b.0.velocity), "{what}: velocity");
    assert_eq!(a.0.final_mismatch.to_bits(), b.0.final_mismatch.to_bits(), "{what}: mismatch");
    assert_eq!(format!("{:?}", a.1), format!("{:?}", b.1), "{what}: reports");
}

#[test]
fn single_beta_schedule_is_register() {
    on_problem(|ws, t, r| {
        let cfg = RegistrationConfig { beta: 1e-3, ..cfg() };
        let front = register(ws, t, r, cfg);
        let report = front.report.clone();
        // `cfg.beta` is ignored in favour of the schedule.
        let general = register_solve(
            ws,
            t,
            r,
            RegistrationConfig { beta: 1.0, ..cfg },
            &[1e-3],
            None,
            &CheckpointStore::Disabled,
            |_| {},
        );
        assert_same_solve(&(front, vec![report]), &general, "single β");
    });
}

#[test]
fn enabled_store_does_not_perturb_the_solve() {
    on_problem(|ws, t, r| {
        let plain = register_with_continuation(ws, t, r, cfg(), &BETAS);
        let store = CheckpointStore::memory();
        let stored = register_solve(ws, t, r, cfg(), &BETAS, None, &store, |_| {});
        assert_same_solve(&plain, &stored, "Memory vs Disabled");
        assert!(store.load(0).is_none(), "a finished solve clears its checkpoint");
    });
}

#[test]
fn warm_start_store_and_observer_compose() {
    on_problem(|ws, t, r| {
        // Level 0 solved on its own, then handed to a one-level solve as the
        // warm start: the same program as the two-level continuation.
        let whole = register_with_continuation(ws, t, r, cfg(), &BETAS);
        let coarse = register(ws, t, r, RegistrationConfig { beta: BETAS[0], ..cfg() });
        let store = CheckpointStore::memory();
        let mut log = ConvergenceLog::new("warm");
        let fine = register_solve(
            ws,
            t,
            r,
            cfg(),
            &BETAS[1..],
            Some(coarse.velocity),
            &store,
            |e| log.push(e),
        );
        assert_eq!(bits(&fine.0.velocity), bits(&whole.0.velocity));
        assert_eq!(format!("{:?}", fine.1[0]), format!("{:?}", whole.1[1]));
        assert_eq!(log.iterations().count(), fine.1[0].outer_iterations());
        let saved = log.events().filter(|e| e.kind == "checkpoint" && e.detail == "saved");
        assert_eq!(saved.count(), fine.1[0].outer_iterations());
        assert_eq!(log.events().last().map(|e| e.kind.as_str()), Some("summary"));
    });
}

#[test]
fn stream_matches_pre_merge_golden_fresh_run() {
    on_problem(|ws, t, r| {
        let mut log = ConvergenceLog::new("golden");
        let store = CheckpointStore::memory();
        register_solve(ws, t, r, cfg(), &BETAS, None, &store, |e| log.push(e));
        assert_eq!(log.to_jsonl(), include_str!("golden/convergence_fresh.jsonl"));
    });
}

#[test]
fn stream_matches_pre_merge_golden_resumed_run() {
    on_problem(|ws, t, r| {
        // Killed mid-level: the observer panics on the second accepted step
        // of level 0, after that step's checkpoint was written.
        let store = CheckpointStore::memory();
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            register_solve(ws, t, r, cfg(), &BETAS, None, &store, |e| {
                if matches!(e, StreamEntry::Iter(it) if it.level == 0 && it.iter == 2) {
                    panic!("injected crash");
                }
            })
        }));
        assert!(killed.is_err());
        let mut log = ConvergenceLog::new("golden");
        let resumed = register_solve(ws, t, r, cfg(), &BETAS, None, &store, |e| log.push(e));
        assert_eq!(log.to_jsonl(), include_str!("golden/convergence_resumed.jsonl"));
        let whole = register_with_continuation(ws, t, r, cfg(), &BETAS);
        assert_eq!(bits(&resumed.0.velocity), bits(&whole.0.velocity), "resume is bitwise");
    });
}

/// A store that cannot write (its directory path is a regular file) must
/// neither stop the solve nor claim success: one failure counted and one
/// `save-failed` event per due save, no `saved`.
#[test]
fn failed_checkpoint_saves_are_counted_and_logged() {
    let blocker = std::env::temp_dir().join(format!("diffreg-solve-api-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    on_problem(|ws, t, r| {
        // The failure counter is a traced metric.
        diffreg_telemetry::set_trace_enabled(true);
        let _ = diffreg_telemetry::take_global_metrics();
        let store = CheckpointStore::file(&blocker);
        let mut log = ConvergenceLog::new("save-failed");
        let (out, reports) = register_solve(ws, t, r, cfg(), &BETAS, None, &store, |e| log.push(e));
        let metrics = diffreg_telemetry::take_global_metrics();
        diffreg_telemetry::set_trace_enabled(false);

        assert!(out.relative_mismatch() < 0.5, "the solve must complete");
        let steps: usize = reports.iter().map(|r| r.outer_iterations()).sum();
        let checkpoints: Vec<_> = log.events().filter(|e| e.kind == "checkpoint").collect();
        assert_eq!(checkpoints.len(), steps, "checkpoint_every = 1: one event per step");
        for e in &checkpoints {
            assert!(e.detail.starts_with("save-failed: "), "claimed success: {e:?}");
        }
        // Per-step saves plus the level-boundary save.
        assert_eq!(
            metrics.counter("diffreg_checkpoint_save_failures"),
            Some((steps + BETAS.len() - 1) as u64)
        );
    });
    let _ = std::fs::remove_file(&blocker);
}

/// `cfg.kernel` is honoured by `RegProblem::new` itself, not only by the
/// driver: a tricubic workspace with a trilinear config is a trilinear
/// problem.
#[test]
fn config_kernel_overrides_workspace_kernel() {
    on_problem(|ws, t, r| {
        assert_eq!(ws.kernel, Kernel::Tricubic);
        let cfg = RegistrationConfig { kernel: Kernel::Trilinear, ..Default::default() };
        let v = VectorField::from_fn(&ws.grid(), ws.block(), |x| {
            [0.1 * x[1].sin(), -0.08 * x[2].cos(), 0.05 * x[0].sin()]
        });
        let trilinear_ws = Workspace { kernel: Kernel::Trilinear, ..*ws };
        let via_cfg = RegProblem::new(ws, t, r, cfg).objective(&v);
        let via_ws = RegProblem::new(&trilinear_ws, t, r, cfg).objective(&v);
        let tricubic = RegProblem::new(ws, t, r, RegistrationConfig::default()).objective(&v);
        assert_eq!(via_cfg.to_bits(), via_ws.to_bits());
        assert_ne!(via_cfg.to_bits(), tricubic.to_bits(), "the kernels must differ here");
    });
}

/// The first non-cubic solve of the suite: 12×15×12 (radices 2·3·5) with one
/// and two β levels, on 1 and on 4 ranks. The map stays diffeomorphic and
/// the two rank counts agree on the velocity — not bitwise, the reductions
/// sum in a different order, but to 1e-12 of its largest entry (measured:
/// 1.1e-15 with one level, 6.3e-15 with two).
///
/// Known failure, pinned so a fix shows up here: level 1 of the two-level
/// schedule does not converge. After four accepted steps (‖g‖ 0.124 →
/// 0.0041, tolerance 0.00124) the Armijo search finds no decrease, on 1 and
/// on 4 ranks alike. 12³, 16×14×16 and 16×18×16 do the same while 16³,
/// 16×20×16 and 24×30×24 converge, so it is the line search at the
/// discretization floor of a coarse grid, not the shape.
#[test]
fn non_cubic_solve_is_diffeomorphic_and_agrees_across_rank_counts() {
    use NewtonStatus::{Converged, LineSearchFailed};
    let grid = Grid::new([12, 15, 12]);
    // The velocity on the whole grid, assembled from the ranks' blocks.
    let solve = |p: usize, betas: &'static [f64], expect: &'static [NewtonStatus]| -> Vec<f64> {
        let per_rank = run_threaded(p, move |comm| {
            let decomp = Decomp::new(grid, p);
            let fft = PencilFft::new(comm, decomp);
            let timers = Timers::new();
            let ws = Workspace::new(comm, &decomp, &fft, &timers);
            let (t, r) = synthetic_pair(&ws);
            let cfg = RegistrationConfig::default();
            let store = CheckpointStore::Disabled;
            let (out, reports) = register_solve(&ws, &t, &r, cfg, betas, None, &store, |_| {});
            let status: Vec<NewtonStatus> = reports.iter().map(|r| r.status).collect();
            assert_eq!(status, expect, "p={p} betas={betas:?}");
            assert!(out.det_grad.diffeomorphic, "p={p} betas={betas:?}: {:?}", out.det_grad);
            assert!(out.det_grad.min > 0.0);
            assert!(out.relative_mismatch() < 0.7, "rel {}", out.relative_mismatch());
            out.velocity
        });
        let mut global = vec![0.0; 3 * grid.total()];
        for v in &per_rank {
            for (c, comp) in v.comps.iter().enumerate() {
                let block = comp.block();
                for (l, x) in comp.data().iter().enumerate() {
                    global[c * grid.total() + grid.flatten(block.global_of_local(l))] = *x;
                }
            }
        }
        global
    };
    for (betas, expect) in
        [(&BETAS[..1], &[Converged][..]), (&BETAS[..], &[Converged, LineSearchFailed][..])]
    {
        let serial = solve(1, betas, expect);
        let dist = solve(4, betas, expect);
        let scale = serial.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let diff = serial.iter().zip(&dist).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(diff <= 1e-12 * scale, "betas={betas:?}: {diff:e} vs scale {scale:e}");
    }
}
