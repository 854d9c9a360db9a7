//! End-to-end resilience drills for the registration solver (ISSUE PR 2
//! acceptance): the full 4-rank solve must be bitwise immune to injected
//! communication chaos, and a run killed mid-continuation must resume from
//! its checkpoint to the uninterrupted solve's answer.

use std::time::Duration;

use diffreg_comm::{run_threaded, run_threaded_checked, ChaosComm, ChaosConfig, Comm, SerialComm};
use diffreg_core::{
    register, register_solve, register_with_continuation, synthetic_pair, CheckpointStore, Level,
    RegistrationConfig,
};
use diffreg_grid::{Decomp, Grid};
use diffreg_optim::NewtonOptions;
use diffreg_telemetry::StreamEntry;
use diffreg_transport::SessionParts;

/// The β schedule `betas`, every level on `grid`.
fn schedule(grid: Grid, betas: &[f64]) -> Vec<Level> {
    betas.iter().map(|&beta| Level { beta, grid }).collect()
}

fn small_cfg() -> RegistrationConfig {
    RegistrationConfig {
        newton: NewtonOptions { max_iter: 2, ..Default::default() },
        ..Default::default()
    }
}

/// A full 4-rank registration solve through [`ChaosComm`] with seeded
/// latency + reordering must produce *bitwise* the same answer as the
/// fault-free run: chaos perturbs timing only, and every reduction in the
/// solver is deterministically ordered.
#[test]
fn chaos_does_not_change_registration_results() {
    let grid = Grid::cubic(12);
    let solve_clean = move || -> Vec<(u64, u64)> {
        run_threaded(4, move |comm| {
            let parts = SessionParts::with_decomp(comm, Decomp::with_process_grid(grid, 2, 2));
            let ws = parts.workspace(comm);
            let (t, r) = synthetic_pair(&ws, 0.4);
            let out = register(&ws, &t, &r, small_cfg());
            (out.final_mismatch.to_bits(), out.report.grad_norm.to_bits())
        })
    };
    let clean = solve_clean();
    for seed in [5u64, 77] {
        let noisy = run_threaded(4, move |comm| {
            let chaos = ChaosComm::new(
                comm,
                ChaosConfig::seeded(seed).with_latency(0.25, 60).with_reorder(0.4),
            );
            let parts = SessionParts::with_decomp(&chaos, Decomp::with_process_grid(grid, 2, 2));
            let ws = parts.workspace(&chaos);
            let (t, r) = synthetic_pair(&ws, 0.4);
            let out = register(&ws, &t, &r, small_cfg());
            (out.final_mismatch.to_bits(), out.report.grad_norm.to_bits())
        });
        assert_eq!(
            noisy, clean,
            "chaos (seed {seed}) changed the registration result: \
             timing faults must never alter numerics"
        );
    }
}

/// Kill a 4-rank continuation run mid-level (every rank panics at a
/// deterministic Newton iteration), resume from the per-rank checkpoints,
/// and require the final mismatch to match the uninterrupted solve to 1e-14
/// — in fact bitwise, since the restart re-linearizes at exactly the
/// checkpointed iterate.
#[test]
fn killed_continuation_resumes_from_checkpoint_exactly() {
    let grid = Grid::cubic(12);
    let betas = [1e-2, 1e-3];
    let cfg = small_cfg();

    // Uninterrupted reference (checkpointing disabled).
    let reference = run_threaded(4, move |comm| {
        let parts = SessionParts::with_decomp(comm, Decomp::with_process_grid(grid, 2, 2));
        let ws = parts.workspace(comm);
        let (t, r) = synthetic_pair(&ws, 0.4);
        let levels = schedule(grid, &betas);
        let (out, reports) = register_solve(&ws, &t, &r, cfg, &levels, None, |_| {});
        assert_eq!(reports.len(), 2);
        out.final_mismatch
    });

    // Run 1: every rank is killed at level 0 right after the first accepted
    // Newton step has been checkpointed.
    let store = CheckpointStore::memory();
    let store_for_kill = store.clone();
    let killed = run_threaded_checked(4, move |comm| {
        let parts = SessionParts::with_decomp(comm, Decomp::with_process_grid(grid, 2, 2));
        let ws = parts.workspace(comm);
        let (t, r) = synthetic_pair(&ws, 0.4);
        register_solve(&ws, &t, &r, cfg, &schedule(grid, &betas), Some(&store_for_kill), |entry| {
            if matches!(entry, StreamEntry::Iter(it) if it.level == 0 && it.iter == 1) {
                panic!("injected crash: killing rank {} mid-continuation", ws.comm.rank());
            }
        })
        .0
        .final_mismatch
    });
    for (rank, res) in killed.iter().enumerate() {
        let fail = res.as_ref().expect_err("every rank must have been killed");
        assert_eq!(fail.rank, rank);
        assert!(fail.payload.contains("injected crash"), "{}", fail.payload);
    }
    // Every rank left a checkpoint behind.
    for rank in 0..4 {
        assert!(store.load(rank).is_some(), "rank {rank} has no checkpoint to resume from");
    }

    // Run 2: resume from the checkpoints and finish the solve.
    let store_for_resume = store.clone();
    let resumed = run_threaded(4, move |comm| {
        let parts = SessionParts::with_decomp(comm, Decomp::with_process_grid(grid, 2, 2));
        let ws = parts.workspace(comm);
        let (t, r) = synthetic_pair(&ws, 0.4);
        let levels = schedule(grid, &betas);
        let (out, _) = register_solve(&ws, &t, &r, cfg, &levels, Some(&store_for_resume), |_| {});
        out.final_mismatch
    });
    for (rank, (&got, &want)) in resumed.iter().zip(&reference).enumerate() {
        assert!(
            (got - want).abs() <= 1e-14 * want.max(1.0),
            "rank {rank}: resumed mismatch {got} vs uninterrupted {want}"
        );
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "rank {rank}: resume is specified to be bitwise exact"
        );
    }
    // Successful completion clears the checkpoints.
    for rank in 0..4 {
        assert!(store.load(rank).is_none(), "rank {rank}: stale checkpoint after success");
    }
}

/// The checkpointed driver is a drop-in for the plain continuation loop:
/// with a file-backed store and no faults it produces bitwise the same
/// answer, round-trips through the on-disk format, and cleans up after
/// itself.
#[test]
fn checkpointed_driver_matches_plain_continuation_bitwise() {
    let grid = Grid::cubic(12);
    let comm = SerialComm::new();
    let parts = SessionParts::new(&comm, grid);
    let ws = parts.workspace(&comm);
    let (t, r) = synthetic_pair(&ws, 0.4);
    let betas = [1e-2, 1e-3];

    let (plain, _) = register_with_continuation(&ws, &t, &r, small_cfg(), &betas);

    let dir = std::env::temp_dir()
        .join(format!("diffreg-resilience-{}", std::process::id()));
    let store = CheckpointStore::file(&dir);
    let levels = schedule(grid, &betas);
    let (ckpt, _) = register_solve(&ws, &t, &r, small_cfg(), &levels, Some(&store), |_| {});

    assert_eq!(
        ckpt.final_mismatch.to_bits(),
        plain.final_mismatch.to_bits(),
        "checkpoint writes must not perturb the solve"
    );
    for c in 0..3 {
        let a: Vec<u64> = plain.velocity.comps[c].data().iter().map(|x| x.to_bits()).collect();
        let b: Vec<u64> = ckpt.velocity.comps[c].data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b, "velocity component {c} differs");
    }
    assert!(store.load(0).is_none(), "successful run must clear its checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 2-rank solve is killed after level 0's second step was checkpointed,
/// and rank 1's current generation is then torn: rank 1 alone falls back to
/// the first step's checkpoint. The ranks must not resume from different
/// iterates: both drop their checkpoints and start fresh, to the bits of
/// the uninterrupted solve. The short watchdog turns a rank that waits on a
/// diverged peer into a fast failure.
#[test]
fn one_torn_rank_restarts_every_rank_fresh() {
    let grid = Grid::cubic(12);
    let betas = [1e-2, 1e-3];
    let cfg = RegistrationConfig {
        newton: NewtonOptions { max_iter: 3, ..Default::default() },
        ..Default::default()
    };
    let solve = move |store: Option<CheckpointStore>, kill: bool| {
        run_threaded_checked(2, move |comm| {
            comm.set_timeout(Some(Duration::from_secs(20)));
            let parts = SessionParts::new(comm, grid);
            let ws = parts.workspace(comm);
            let (t, r) = synthetic_pair(&ws, 0.4);
            let mut events = Vec::new();
            let levels = schedule(grid, &betas);
            let store = store.as_ref();
            let (out, _) = register_solve(&ws, &t, &r, cfg, &levels, store, |entry| match entry {
                StreamEntry::Iter(it) if kill && (it.level, it.iter) == (0, 2) => {
                    panic!("injected crash")
                }
                StreamEntry::Event(e) => events.push(e.kind),
                StreamEntry::Iter(_) => {}
            });
            let velocity: Vec<u64> = out
                .velocity
                .comps
                .iter()
                .flat_map(|c| c.data().iter().map(|x| x.to_bits()))
                .collect();
            (velocity, out.final_mismatch.to_bits(), events)
        })
    };
    let reference: Vec<_> =
        solve(None, false).into_iter().map(Result::unwrap).collect();

    let store = CheckpointStore::memory();
    let killed = solve(Some(store.clone()), true);
    assert!(killed.iter().all(|r| r.as_ref().is_err_and(|f| f.payload.contains("injected crash"))));
    assert!(store.inject_corruption(1), "rank 1 has a current generation to tear");

    let resumed = solve(Some(store.clone()), false);
    for (rank, (got, want)) in resumed.into_iter().zip(&reference).enumerate() {
        let (velocity, mismatch, events) = got.expect("the restarted solve finishes");
        assert!(events.iter().any(|k| k == "checkpoint-drop"), "rank {rank}: {events:?}");
        assert!(!events.iter().any(|k| k == "resume"), "rank {rank} resumed: {events:?}");
        assert_eq!(mismatch, want.1, "rank {rank}: final mismatch");
        assert!(velocity == want.0, "rank {rank}: velocity differs from the uninterrupted solve");
    }
    for rank in 0..2 {
        assert!(store.load(rank).is_none(), "rank {rank}: stale checkpoint after success");
    }
}
