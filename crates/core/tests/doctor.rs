//! End-to-end cross-rank wait-state doctor acceptance test (ISSUE 5): a
//! multi-rank registration with comm-event recording enabled must produce a
//! trace bundle the doctor can fully explain —
//!
//! * every p2p send matches exactly one receive (FIFO channels + seq numbers
//!   make the `(comm, src, dst, tag, seq)` key exact),
//! * every collective group is complete (all `csize` member records present),
//! * the critical-path walk explains at least 90% of the wall clock and its
//!   per-kind totals sum to the wall within 10%, and
//! * the Prometheus snapshot and wait-state table are byte-identical across
//!   two analyses of the same input (the doctor is a pure function).
//!
//! A second, fully deterministic test injects an 80 ms `ChaosComm` stall on
//! one rank's send and checks the doctor pins the resulting late-sender wait
//! on the right (waiter, op, culprit) triple with the right phase.
//!
//! The grid is 16³ in debug builds so tier-1 stays fast and 32³ in release.
//! The first test also writes its trace bundle to `target/tmp/doctor-smoke`,
//! which `scripts/ci.sh` hands to `diffreg-doctor analyze --gate`.

use diffreg_comm::{run_threaded, ChaosComm, ChaosConfig, Comm, CommOp, Timers};
use diffreg_core::{register_solve, CheckpointStore, RegistrationConfig};
use diffreg_grid::{Decomp, Grid, ScalarField, VectorField};
use diffreg_pfft::PencilFft;
use diffreg_telemetry::doctor::{
    analyze, write_trace_bundle, DoctorInput, RankCapture, WaitKind,
};
use diffreg_telemetry::{
    set_trace_enabled, take_global_metrics, take_recorder, ConvergenceLog, MetricsRegistry,
};
use diffreg_transport::{SemiLagrangian, Workspace};

fn smoke_size() -> usize {
    if cfg!(debug_assertions) { 16 } else { 32 }
}

fn synthetic_pair<C: Comm>(ws: &Workspace<C>) -> (ScalarField, ScalarField) {
    let grid = ws.grid();
    let rho_t = ScalarField::from_fn(&grid, ws.block(), |x| {
        (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
    });
    let v_star = VectorField::from_fn(&grid, ws.block(), |x| {
        [
            0.4 * x[0].cos() * x[1].sin(),
            0.4 * x[1].cos() * x[0].sin(),
            0.4 * x[0].cos() * x[2].sin(),
        ]
    });
    let sl = SemiLagrangian::new(ws, &v_star, 4);
    let rho_r = sl.solve_state(ws, &rho_t).pop().unwrap();
    (rho_t, rho_r)
}

/// Both tests toggle the process-wide trace flag; they take turns so one's
/// `set_trace_enabled(false)` cannot cut spans out of the other's run.
static TRACE_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn doctor_explains_a_traced_registration() {
    let _turn = TRACE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    const RANKS: usize = 4;
    let n = smoke_size();
    let grid = Grid::cubic(n);
    let betas = [1e-2, 1e-3];

    set_trace_enabled(true);
    let per_rank: Vec<(RankCapture, MetricsRegistry)> =
        run_threaded(RANKS, move |comm| {
            comm.set_event_recording(true);
            let decomp = Decomp::with_process_grid(grid, 2, 2);
            let fft = PencilFft::new(comm, decomp);
            let timers = Timers::new();
            let ws = Workspace::new(comm, &decomp, &fft, &timers);
            let (t, r) = synthetic_pair(&ws);
            let cfg = RegistrationConfig {
                newton: diffreg_optim::NewtonOptions { max_iter: 3, ..Default::default() },
                ..Default::default()
            };
            let mut log = ConvergenceLog::new("doctor-smoke");
            let store = CheckpointStore::Disabled;
            let _ = register_solve(&ws, &t, &r, cfg, &betas, None, &store, |e| log.push(e));
            comm.barrier();
            let capture =
                RankCapture { rank: comm.rank(), events: comm.take_events(), recorder: take_recorder() };
            (capture, take_global_metrics())
        });
    set_trace_enabled(false);

    let mut metrics = MetricsRegistry::new();
    for (_, m) in &per_rank {
        metrics.merge(m);
    }
    let captures: Vec<RankCapture> = per_rank.into_iter().map(|(c, _)| c).collect();
    assert!(
        captures.iter().all(|c| c.recorder.dropped() == 0),
        "a keep-all window holds the whole smoke run"
    );

    // Left on disk so the `diffreg-doctor` CLI can re-analyze the exact same
    // run from the files alone and hard-gate on it (scripts/ci.sh).
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/doctor-smoke");
    write_trace_bundle(dir, &captures, Some(&metrics)).expect("write trace bundle");

    let input = DoctorInput { ranks: captures, metrics };
    let report = analyze(&input);

    // --- Matching: every p2p send pairs with exactly one receive. ---
    assert!(report.p2p_sends > 0, "registration must exchange p2p messages");
    assert_eq!(report.matched.len(), report.p2p_sends, "every send matched");
    assert_eq!(report.matched.len(), report.p2p_recvs, "every recv matched");
    assert_eq!(report.unmatched_sends + report.unmatched_recvs, 0);

    // --- Collectives: every group saw all csize member records. ---
    assert!(!report.collectives.is_empty(), "registration runs collectives");
    assert_eq!(report.incomplete_collectives, 0, "no torn collective groups");

    // --- Critical path: explains the wall clock. ---
    assert_eq!(report.ranks, RANKS);
    assert!(report.wall_s > 0.0);
    assert!(
        report.coverage >= 0.9,
        "critical path must cover >= 90% of wall, got {:.1}%",
        report.coverage * 100.0
    );
    let path_sum: f64 = report.path_totals.iter().map(|(_, s)| s).sum();
    assert!(
        (path_sum - report.wall_s).abs() <= 0.1 * report.wall_s,
        "per-kind path totals {path_sum:.6}s must sum to wall {:.6}s within 10%",
        report.wall_s
    );
    report.gate(0.9).expect("doctor gate must pass on a healthy run");

    // --- Instrumented phases show up on the merged span timeline. ---
    for phase in ["fft.transpose", "interp.scatter", "newton.pcg"] {
        assert!(
            report.phase_rank_seconds.contains_key(phase),
            "missing phase {phase}: {:?}",
            report.phase_rank_seconds.keys().collect::<Vec<_>>()
        );
    }

    // --- Run-recorded metrics flowed through the global registry. ---
    let pts = report
        .metrics
        .histogram("diffreg_interp_scatter_points")
        .expect("interp scatter size histogram");
    assert!(pts.count() > 0 && pts.sum() > 0.0);
    assert!(
        report.metrics.histogram("diffreg_comm_op_seconds{op=\"alltoallv\"}").is_some(),
        "doctor must derive per-op latency histograms"
    );

    // --- Determinism: the doctor is a pure function of its input. ---
    let again = analyze(&input);
    assert_eq!(report.prometheus(), again.prometheus(), "Prometheus snapshot");
    assert_eq!(report.render_wait_table(), again.render_wait_table(), "wait table");
    assert_eq!(report.render(10, None), again.render(10, None), "full report");
}

/// Deterministic fault-injection check: an 80 ms `ChaosComm` stall on rank
/// 1's send must surface as a late-sender wait on rank 0's receive, inside
/// the span that was open, attributed to rank 1.
#[test]
fn doctor_attributes_injected_stall_to_culprit_rank() {
    let _turn = TRACE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    set_trace_enabled(true);
    let ranks: Vec<RankCapture> = run_threaded(2, move |comm| {
        comm.set_event_recording(true);
        // Rank 1 stalls 80 ms at its 2nd comm call — the send below.
        let chaos = ChaosComm::new(comm, ChaosConfig::seeded(1).with_stall(1, 2, 80));
        chaos.barrier(); // op 1 on both ranks
        // diffreg-allow(collective-consistency): deliberately asymmetric point-to-point exchange around an injected stall — the doctor must attribute it
        if chaos.rank() == 1 {
            chaos.send(0, 7, vec![1.0f64; 64]); // op 2: stall fires here
        } else {
            let v: Vec<f64> =
                diffreg_telemetry::with_span("newton.pcg", || chaos.recv(1, 7));
            assert_eq!(v.len(), 64);
        }
        chaos.barrier();
        RankCapture { rank: comm.rank(), events: comm.take_events(), recorder: take_recorder() }
    });
    set_trace_enabled(false);

    let report = analyze(&DoctorInput { ranks, metrics: MetricsRegistry::new() });

    assert_eq!(report.matched.len(), 1, "the one p2p message matches");
    assert_eq!(report.unmatched_sends + report.unmatched_recvs, 0);
    assert_eq!(report.incomplete_collectives, 0);

    let late = report
        .waits
        .iter()
        .filter(|w| w.kind == WaitKind::LateSender)
        .max_by(|a, b| a.wait_s.total_cmp(&b.wait_s))
        .expect("stall must classify as a late-sender wait");
    assert_eq!(
        (late.waiter, late.culprit, late.op),
        (0, 1, CommOp::Recv),
        "rank 0's recv waited on rank 1's late send"
    );
    assert_eq!(late.phase, "newton.pcg", "wait lands in the open span");
    assert!(
        late.wait_s >= 0.05,
        "an 80 ms stall must dominate the wait, got {:.3}s",
        late.wait_s
    );

    // The (phase, op, waiter, culprit) aggregation carries it too.
    let agg = report
        .attribution
        .iter()
        .find(|((phase, op, w, c), _)| {
            phase == "newton.pcg" && op == "recv" && (*w, *c) == (0, 1)
        })
        .map(|(_, a)| a)
        .expect("late-sender must appear in the attribution table");
    assert!(agg.total_s >= 0.05 && agg.count >= 1);

    // And the wait shows up in the derived histogram snapshot.
    let prom = report.prometheus();
    assert!(
        prom.contains("diffreg_comm_wait_seconds_bucket{kind=\"late-sender\""),
        "{prom}"
    );
}
