//! End-to-end observability acceptance test (ISSUE 3): a multi-rank
//! registration with span tracing enabled must produce
//!
//! * a valid Chrome trace (one `pid` per rank, nested
//!   fft/interp/transport/newton spans, Perfetto-loadable JSON),
//! * a rank-aggregated Table-I-style phase report with min/mean/max and
//!   load imbalance plus the §III-C4 model-predicted column, and
//! * a JSON-lines convergence log with exactly one record per accepted
//!   Newton iteration, interleaved with solver events.
//!
//! The grid is 16³ in debug builds so tier-1 stays fast and 32³ in release.

use diffreg_comm::{run_threaded, Comm, Timers};
use diffreg_core::{register_solve, CheckpointStore, RegistrationConfig};
use diffreg_grid::{Decomp, Grid, ScalarField, VectorField};
use diffreg_pfft::PencilFft;
use diffreg_telemetry::doctor::RankCapture;
use diffreg_telemetry::{
    chrome_trace, collect_phase_report, set_recorder_enabled, set_trace_enabled, take_recorder,
    validate_chrome_trace, ConvergenceLog, Json, PhaseReport, PredictedPhases,
    RecorderSnapshot,
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

/// Both tests read or toggle the process-wide trace flag; they take turns
/// so the untraced solve cannot start recording halfway through.
static TRACE_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn traced_registration_produces_all_three_artifacts() {
    let _turn = TRACE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    const RANKS: usize = 4;
    let n = smoke_size();
    let grid = Grid::cubic(n);
    let betas = [1e-2, 1e-3];

    set_trace_enabled(true);
    let per_rank: Vec<(RecorderSnapshot, PhaseReport, ConvergenceLog, usize)> =
        run_threaded(RANKS, move |comm| {
            let decomp = Decomp::with_process_grid(grid, 2, 2);
            let fft = PencilFft::new(comm, decomp);
            let timers = Timers::new();
            let ws = Workspace::new(comm, &decomp, &fft, &timers);
            let (t, r) = synthetic_pair(&ws);
            let cfg = RegistrationConfig {
                newton: diffreg_optim::NewtonOptions { max_iter: 3, ..Default::default() },
                ..Default::default()
            };
            let mut log = ConvergenceLog::new("telemetry-smoke");
            let store = CheckpointStore::Disabled;
            let (_out, reports) =
                register_solve(&ws, &t, &r, cfg, &betas, None, &store, |e| log.push(e));
            let report = collect_phase_report(comm, &timers, &comm.stats());
            let iters: usize = reports.iter().map(|r| r.outer_iterations()).sum();
            (take_recorder(), report, log, iters)
        });
    set_trace_enabled(false);

    // --- Chrome trace: one pid per rank, spans nest, expected names. ---
    let traces: Vec<RankCapture> = per_rank
        .iter()
        .enumerate()
        .map(|(rank, t)| RankCapture { rank, events: Vec::new(), recorder: t.0.clone() })
        .collect();
    let text = chrome_trace(&traces).to_string();
    let summary = validate_chrome_trace(&text).expect("trace must validate");
    assert_eq!(summary.pids, (0..RANKS).collect::<Vec<_>>(), "one pid per rank");
    assert!(summary.events > 0);
    for name in
        ["registration", "newton.iter", "newton.pcg", "hessian.matvec", "reg.linearize",
         "fft.forward", "fft.inverse", "interp.eval", "transport.state", "transport.adjoint"]
    {
        assert!(summary.names.iter().any(|s| s == name), "missing span {name}: {:?}", summary.names);
    }

    // --- Phase report: aggregated over ranks, with the predicted column. ---
    let report = &per_rank[0].1;
    assert_eq!(report.ranks, RANKS);
    for r in &per_rank {
        assert_eq!(&r.1, report, "phase report must be replicated on all ranks");
    }
    for phase in ["fft_exec", "fft_comm", "interp_exec", "interp_comm"] {
        let e = report.phase(phase).unwrap_or_else(|| panic!("missing phase {phase}"));
        assert!(e.max >= e.mean && e.mean >= e.min && e.min >= 0.0, "{phase}: {e:?}");
        assert!(e.imbalance() >= 1.0, "{phase} imbalance {}", e.imbalance());
    }
    // Traffic flowed and was counted symmetrically across the job.
    let sent = report.comm.iter().find(|e| e.name == "bytes_sent").unwrap();
    let recvd = report.comm.iter().find(|e| e.name == "bytes_received").unwrap();
    assert!(sent.sum > 0.0);
    assert_eq!(sent.sum, recvd.sum, "every sent byte is received");

    // Predicted column from the paper's performance model renders.
    let shape = diffreg_perfmodel::SolveShape::paper_scaling();
    let b = diffreg_perfmodel::model_solve(
        &diffreg_perfmodel::Machine::MAVERICK,
        grid.n,
        RANKS,
        &shape,
    );
    let pred = PredictedPhases {
        fft_comm: b.fft_comm,
        fft_exec: b.fft_exec,
        interp_comm: b.interp_comm,
        interp_exec: b.interp_exec,
    };
    let table = report.render(Some(&pred));
    assert!(table.contains("fft_exec") && table.contains("imbal"), "{table}");
    assert!(table.contains("predicted"), "{table}");

    // --- Convergence stream: one iter record per accepted Newton step. ---
    let log = &per_rank[0].2;
    let iters = per_rank[0].3;
    assert!(iters > 0, "solve must take at least one Newton step");
    assert_eq!(log.iterations().count(), iters, "one record per Newton iteration");
    assert!(log.events().any(|e| e.kind == "level"));
    assert!(log.events().any(|e| e.kind == "summary"));
    let jsonl = log.to_jsonl();
    for line in jsonl.lines() {
        let v = Json::parse(line).expect("every JSONL line parses");
        assert!(v.get("type").is_some());
    }
    // Iter records carry the full paper tuple.
    let first = log.iterations().next().unwrap();
    assert!(first.beta > 0.0 && first.eta > 0.0 && first.pcg_iters > 0);
    assert!(first.rel_grad > 0.0 && first.rel_grad <= 1.0 + 1e-12);
    let table = log.render_table();
    assert!(table.contains("||g||_rel") && table.contains("PCG"), "{table}");
}

/// With tracing disabled (the default) and the flight recorder switched
/// off, running the same solve must record nothing — the disabled path is
/// two atomic loads.
#[test]
fn untraced_registration_records_nothing() {
    let _turn = TRACE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let grid = Grid::cubic(12);
    set_recorder_enabled(false);
    let traces = run_threaded(2, move |comm| {
        // Explicitly off (the other test may have toggled the global flag;
        // the flag is process-wide, but traces are per-thread and these
        // closures run on fresh threads).
        if diffreg_telemetry::trace_enabled() {
            return None;
        }
        let decomp = Decomp::new(grid, 2);
        let fft = PencilFft::new(comm, decomp);
        let timers = Timers::new();
        let ws = Workspace::new(comm, &decomp, &fft, &timers);
        let (t, r) = synthetic_pair(&ws);
        let cfg = RegistrationConfig {
            newton: diffreg_optim::NewtonOptions { max_iter: 1, ..Default::default() },
            ..Default::default()
        };
        let _ = diffreg_core::register(&ws, &t, &r, cfg);
        Some(take_recorder())
    });
    set_recorder_enabled(true);
    for t in traces.into_iter().flatten() {
        assert!(t.events.is_empty(), "disabled tracing must record no spans");
        assert_eq!((t.seen, t.dropped()), (0, 0));
    }
}
