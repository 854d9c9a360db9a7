//! The one solve entry point, [`register_solve`], against its two front
//! doors and against itself with each option switched on: a single-β
//! schedule is `register`, an enabled checkpoint store does not perturb the
//! solve, a coarse grid level + store + observer compose, a killed solve
//! resumes bitwise from either kind of level, a failed checkpoint save is
//! reported as such, and the observer's stream rendered through
//! [`ConvergenceLog`] is byte-identical to a checked-in capture
//! (`tests/golden/`). The format is the one the former
//! `register_with_continuation_logged` wrote before the two entry points
//! merged; the numbers were re-captured when the Gauss-Newton matvec moved
//! to the trilinear kernel, which moves every iterate after the first, and
//! again when the matvec took `βA z = r − z` from the preconditioner and
//! summed `b̃` into its output backward in time, and again when the
//! gradient streamed its adjoint the same way, `t_nt` first into `βAv`
//! (rounding only both times: every `pcg_iters` stayed).

use std::num::NonZeroUsize;

use diffreg_comm::{run_threaded, SerialComm};
use diffreg_core::{
    continuation_grids, register, register_solve, register_with_continuation, synthetic_pair,
    CheckpointStore, Level, RegProblem, RegistrationConfig, RegistrationOutcome,
};
use diffreg_grid::{Grid, ScalarField, VectorField};
use diffreg_interp::Kernel;
use diffreg_optim::{GaussNewtonProblem, NewtonOptions, NewtonReport, NewtonStatus};
use diffreg_telemetry::{set_trace_enabled, take_recorder, ConvergenceLog, RecKind, StreamEntry};
use diffreg_transport::{SessionParts, Workspace};

const BETAS: [f64; 2] = [1e-2, 1e-3];

/// Runs `body` on the 12³ serial synthetic problem.
fn on_problem<R>(
    body: impl FnOnce(&Workspace<SerialComm>, &ScalarField, &ScalarField) -> R,
) -> R {
    let grid = Grid::cubic(12);
    let comm = SerialComm::new();
    let parts = SessionParts::new(&comm, grid);
    let ws = parts.workspace(&comm);
    let (rho_t, rho_r) = synthetic_pair(&ws, 0.4);
    body(&ws, &rho_t, &rho_r)
}

/// The β schedule `betas`, every level on `grid`.
fn schedule(grid: Grid, betas: &[f64]) -> Vec<Level> {
    betas.iter().map(|&beta| Level { beta, grid }).collect()
}

/// `BETAS` on a grid schedule: level 0 on the grid one coarsening below
/// `fine` (8³ under 12³), level 1 on `fine`.
fn grid_schedule(fine: Grid) -> Vec<Level> {
    let grids = continuation_grids(fine, 1);
    grids.into_iter().zip(BETAS).map(|(grid, beta)| Level { beta, grid }).collect()
}

fn cfg() -> RegistrationConfig {
    RegistrationConfig {
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
            &schedule(ws.grid(), &[1e-3]),
            None,
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
        let levels = schedule(ws.grid(), &BETAS);
        let stored = register_solve(ws, t, r, cfg(), &levels, Some(&store), |_| {});
        assert_same_solve(&plain, &stored, "Memory vs no store");
        assert!(store.load(0).is_none(), "a finished solve clears its checkpoint");
    });
}

/// A coarse grid level composes with the store and the observer: neither
/// perturbs the solve, every accepted step of both levels is saved and
/// recorded, and the summary comes last.
#[test]
fn grid_schedule_store_and_observer_compose() {
    on_problem(|ws, t, r| {
        let levels = grid_schedule(ws.grid());
        let plain = register_solve(ws, t, r, cfg(), &levels, None, |_| {});
        let store = CheckpointStore::memory();
        let mut log = ConvergenceLog::new("grids");
        let stored = register_solve(ws, t, r, cfg(), &levels, Some(&store), |e| log.push(e));
        assert_same_solve(&plain, &stored, "grid schedule, Memory vs no store");
        assert_eq!(stored.1.len(), 2);
        let steps: usize = stored.1.iter().map(|r| r.outer_iterations()).sum();
        assert_eq!(log.iterations().count(), steps);
        let saved = log.events().filter(|e| e.kind == "checkpoint" && e.detail == "saved");
        assert_eq!(saved.count(), steps);
        assert_eq!(log.events().last().map(|e| e.kind.as_str()), Some("summary"));
        assert!(store.load(0).is_none(), "a finished solve clears its checkpoint");
    });
}

#[test]
fn stream_matches_pre_merge_golden_fresh_run() {
    on_problem(|ws, t, r| {
        let mut log = ConvergenceLog::new("golden");
        let store = CheckpointStore::memory();
        let levels = schedule(ws.grid(), &BETAS);
        register_solve(ws, t, r, cfg(), &levels, Some(&store), |e| log.push(e));
        assert_eq!(log.to_jsonl(), include_str!("golden/convergence_fresh.jsonl"));
    });
}

/// Kills the solve of `levels` on the accepted step `kill_at` (level,
/// iteration), after that step's checkpoint, if due at `store`'s cadence,
/// was written, and resumes it from `store` with `log` observing.
fn killed_and_resumed(
    (ws, t, r): (&Workspace<SerialComm>, &ScalarField, &ScalarField),
    store: &CheckpointStore,
    levels: &[Level],
    kill_at: (usize, usize),
    log: &mut ConvergenceLog,
) -> (RegistrationOutcome, Vec<NewtonReport>) {
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        register_solve(ws, t, r, cfg(), levels, Some(store), |e| {
            if matches!(e, StreamEntry::Iter(it) if (it.level, it.iter) == kill_at) {
                panic!("injected crash");
            }
        })
    }));
    assert!(killed.is_err());
    register_solve(ws, t, r, cfg(), levels, Some(store), |e| log.push(e))
}

#[test]
fn stream_matches_pre_merge_golden_resumed_run() {
    on_problem(|ws, t, r| {
        // Killed mid-level: the observer panics on the second accepted step
        // of level 0, after that step's checkpoint was written.
        let mut log = ConvergenceLog::new("golden");
        let betas = schedule(ws.grid(), &BETAS);
        let store = CheckpointStore::memory();
        let resumed = killed_and_resumed((ws, t, r), &store, &betas, (0, 2), &mut log);
        assert_eq!(log.to_jsonl(), include_str!("golden/convergence_resumed.jsonl"));
        let whole = register_with_continuation(ws, t, r, cfg(), &BETAS);
        assert_eq!(bits(&resumed.0.velocity), bits(&whole.0.velocity), "resume is bitwise");
        // The grid schedule, killed inside the coarse level, and killed in
        // the fine level with only the level-boundary checkpoint (the
        // prolonged velocity) behind it.
        let levels = grid_schedule(ws.grid());
        let whole = register_solve(ws, t, r, cfg(), &levels, None, |_| {});
        let boundary_only = CheckpointStore::memory().every(NonZeroUsize::new(100).unwrap());
        let every_step = CheckpointStore::memory();
        let cases = [(every_step, (0, 2), (0, 2)), (boundary_only, (1, 1), (1, 0))];
        for (store, kill_at, from) in cases {
            let mut log = ConvergenceLog::new("grids");
            let resumed = killed_and_resumed((ws, t, r), &store, &levels, kill_at, &mut log);
            let resume = log.events().find(|e| e.kind == "resume").map(|e| (e.level, e.iter));
            assert_eq!(resume, Some(from), "killed at {kill_at:?}: resumed from");
            let what = format!("grid schedule killed at {kill_at:?}");
            assert_eq!(bits(&resumed.0.velocity), bits(&whole.0.velocity), "{what}: velocity");
            let mismatch = [&resumed, &whole].map(|o| o.0.final_mismatch.to_bits());
            assert_eq!(mismatch[0], mismatch[1], "{what}: final mismatch");
        }
    });
}

/// A store that cannot write (its directory path is a regular file) must
/// neither stop the solve nor claim success: one `save-failed` event per
/// failed save, per-step and level-boundary alike, and no `saved`.
#[test]
fn failed_checkpoint_saves_are_counted_and_logged() {
    let blocker = std::env::temp_dir().join(format!("diffreg-solve-api-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    on_problem(|ws, t, r| {
        let store = CheckpointStore::file(&blocker);
        let mut log = ConvergenceLog::new("save-failed");
        let levels = schedule(ws.grid(), &BETAS);
        let (out, reports) =
            register_solve(ws, t, r, cfg(), &levels, Some(&store), |e| log.push(e));

        assert!(out.relative_mismatch() < 0.5, "the solve must complete");
        let steps: usize = reports.iter().map(|r| r.outer_iterations()).sum();
        let checkpoints: Vec<_> = log.events().filter(|e| e.kind == "checkpoint").collect();
        for e in &checkpoints {
            assert!(e.detail.starts_with("save-failed: "), "claimed success: {e:?}");
        }
        // The store's cadence is 1: per-step saves plus the level-boundary save.
        assert_eq!(checkpoints.len(), steps + BETAS.len() - 1);
    });
    let _ = std::fs::remove_file(&blocker);
}

/// The cadence is the store's: with `every(2)`, each level of three
/// accepted steps logs `saved` at step 2 only, and the level boundary is
/// saved whatever the cadence. Killed after level 1's third step (not due),
/// the store's current generation is level 1's step 2 and, past a tear,
/// the previous one is the boundary checkpoint (level 1, iteration 0).
#[test]
fn the_cadence_is_the_stores() {
    on_problem(|ws, t, r| {
        let store = CheckpointStore::memory().every(NonZeroUsize::new(2).unwrap());
        let levels = schedule(ws.grid(), &BETAS);
        let mut saved = Vec::new();
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            register_solve(ws, t, r, cfg(), &levels, Some(&store), |e| match e {
                StreamEntry::Event(e) if e.kind == "checkpoint" => {
                    saved.push((e.level, e.iter, e.detail))
                }
                StreamEntry::Iter(it) if (it.level, it.iter) == (1, 3) => panic!("injected crash"),
                _ => {}
            })
        }));
        assert!(killed.is_err());
        let saved_at = |level| (level, 2, "saved".to_string());
        assert_eq!(saved, [saved_at(0), saved_at(1)]);
        let current = store.load_for_resume(0).checkpoint.expect("a current generation");
        assert_eq!((current.level, current.completed_iters), (1, 2));
        assert!(store.inject_corruption(0));
        let fallback = store.load_for_resume(0).checkpoint.expect("a previous generation");
        assert_eq!((fallback.level, fallback.completed_iters), (1, 0), "the boundary save");
    });
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
/// and two β levels, on 1 and on 4 ranks. Every level converges, the map
/// stays diffeomorphic and the two rank counts agree on the velocity — not
/// bitwise, the reductions sum in a different order, but to 1e-12 of its
/// largest entry (measured: 6.2e-16 with one level, 4.8e-15 with two).
///
/// Level 1 of the two-level schedule ended in `LineSearchFailed` here while
/// the Gauss-Newton matvec ran on the tricubic kernel; with its trilinear
/// transports it converges. That flip does not explain the coarse-grid
/// line-search failure: with the same default options 12³ still ends
/// `[LineSearchFailed, LineSearchFailed]` and 16×18×16
/// `[Converged, LineSearchFailed]` on either matvec kernel, on 1 and on 4
/// ranks, and of the shapes that failed only 16×14×16 flips as well.
/// `reuse.rs` keeps the failed exit covered at 12³.
#[test]
fn non_cubic_solve_is_diffeomorphic_and_agrees_across_rank_counts() {
    use NewtonStatus::Converged;
    let grid = Grid::new([12, 15, 12]);
    // The velocity on the whole grid, assembled from the ranks' blocks.
    let solve = |p: usize, betas: &'static [f64], expect: &'static [NewtonStatus]| -> Vec<f64> {
        let per_rank = run_threaded(p, move |comm| {
            let parts = SessionParts::new(comm, grid);
            let ws = parts.workspace(comm);
            let (t, r) = synthetic_pair(&ws, 0.4);
            let cfg = RegistrationConfig::default();
            let levels = schedule(grid, betas);
            let (out, reports) = register_solve(&ws, &t, &r, cfg, &levels, None, |_| {});
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
        [(&BETAS[..1], &[Converged][..]), (&BETAS[..], &[Converged, Converged][..])]
    {
        let serial = solve(1, betas, expect);
        let dist = solve(4, betas, expect);
        let scale = serial.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let diff = serial.iter().zip(&dist).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(diff <= 1e-12 * scale, "betas={betas:?}: {diff:e} vs scale {scale:e}");
    }
}

/// The images are smoothed once per grid: a level on the grid of the level
/// before it takes that level's smoothed pair, which is bitwise what
/// smoothing again would give (`enabled_store_does_not_perturb_the_solve`
/// and the goldens hold the bits).
#[test]
fn images_are_smoothed_once_per_grid() {
    on_problem(|ws, t, r| {
        set_trace_enabled(true);
        let smooths = |levels: &[Level]| {
            let _ = take_recorder();
            register_solve(ws, t, r, cfg(), levels, None, |_| {});
            let snap = take_recorder();
            assert_eq!((snap.sampled_out, snap.overwritten), (0, 0), "keep-all keeps every span");
            snap.events.iter().filter(|e| e.kind == RecKind::Span && e.name == "reg.smooth").count()
        };
        assert_eq!(smooths(&schedule(ws.grid(), &BETAS)), 1, "two β levels on one grid");
        assert_eq!(smooths(&grid_schedule(ws.grid())), 2, "a coarse and a fine level");
        set_trace_enabled(false);
    });
}
