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

use diffreg_comm::{run_threaded, Comm};
use diffreg_core::{register_solve, synthetic_pair, CheckpointStore, RegistrationConfig};
use diffreg_grid::{Decomp, Grid};
use diffreg_telemetry::doctor::RankCapture;
use diffreg_telemetry::{
    chrome_trace, collect_phase_report, set_trace_enabled, take_recorder,
    validate_chrome_trace, ConvergenceLog, Json, PhaseReport, PredictedPhases,
    RecorderSnapshot,
};
use diffreg_transport::SessionParts;

fn smoke_size() -> usize {
    if cfg!(debug_assertions) { 16 } else { 32 }
}

#[test]
fn traced_registration_produces_all_three_artifacts() {
    const RANKS: usize = 4;
    let n = smoke_size();
    let grid = Grid::cubic(n);
    let betas = [1e-2, 1e-3];

    let per_rank: Vec<(RecorderSnapshot, PhaseReport, ConvergenceLog, usize)> =
        run_threaded(RANKS, move |comm| {
            set_trace_enabled(true);
            let parts = SessionParts::with_decomp(comm, Decomp::with_process_grid(grid, 2, 2));
            let ws = parts.workspace(comm);
            let (t, r) = synthetic_pair(&ws, 0.4);
            let cfg = RegistrationConfig {
                newton: diffreg_optim::NewtonOptions { max_iter: 3, ..Default::default() },
                ..Default::default()
            };
            let mut log = ConvergenceLog::new("telemetry-smoke");
            let store = CheckpointStore::Disabled;
            let (_out, reports) =
                register_solve(&ws, &t, &r, cfg, &betas, None, &store, |e| log.push(e));
            let report = collect_phase_report(comm, ws.timers, &comm.stats());
            let iters: usize = reports.iter().map(|r| r.outer_iterations()).sum();
            (take_recorder(), report, log, iters)
        });

    // --- Chrome trace: one pid per rank, spans nest, expected names. ---
    let traces: Vec<RankCapture> = per_rank
        .iter()
        .enumerate()
        .map(|(rank, t)| RankCapture { rank, recorder: t.0.clone() })
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
