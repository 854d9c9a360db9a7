//! Bit-for-bit oracle of the work computed once per velocity (DESIGN.md §3,
//! "Computed once per velocity"): `linearize` adopts the last line-search
//! trial's forward trajectory, state history and `βAv` when it is called at
//! that trial's velocity, and `register_solve` post-processes from the Newton
//! loop's last linearization. Every reuse must give the bits of the work it
//! replaces, on one rank and on a 2×2 pencil grid of a non-cubic shape; a
//! trial that is not the linearization point bit for bit must not be used.
//! The set-up counts of one `register` call are pinned at the end.

use diffreg_comm::{run_threaded, Comm, ThreadComm, Timers};
use diffreg_core::{
    det_deformation_gradient, det_stats, displacement, register, register_solve, synthetic_pair,
    Level, RegProblem, RegistrationConfig, RegistrationOutcome,
};
use diffreg_grid::{Decomp, Grid, ScalarField, VectorField};
use diffreg_optim::{gauss_newton_observed, GaussNewtonProblem, NewtonOptions, NewtonStatus};
use diffreg_telemetry::{set_trace_enabled, take_recorder, RecKind};
use diffreg_transport::{SessionParts, Workspace};

const ROUTED: &str = "interp_points_routed";

fn field<C: Comm>(ws: &Workspace<C>, a: f64) -> VectorField {
    VectorField::from_fn(&ws.grid(), ws.block(), |x| {
        [a * x[1].sin(), -0.8 * a * x[2].cos(), 0.5 * a * (x[0] + x[1]).sin()]
    })
}

/// Runs `body` on every rank of the 12³ serial and the 24×30×24 2×2 grid.
fn on_grids(body: impl Fn(&Workspace<ThreadComm>, &Timers) + Send + Sync + Copy) {
    for (dims, (p1, p2)) in [([12, 12, 12], (1, 1)), ([24, 30, 24], (2, 2))] {
        run_threaded(p1 * p2, move |comm| {
            let decomp = Decomp::with_process_grid(Grid::new(dims), p1, p2);
            let parts = SessionParts::with_decomp(comm, decomp);
            let ws = parts.workspace(comm);
            body(&ws, ws.timers);
        });
    }
}

fn bits(v: &VectorField) -> Vec<u64> {
    v.comps.iter().flat_map(|c| c.data().iter().map(|x| x.to_bits())).collect()
}

/// `(J, g, H d)` at `v`, as bits, and the points `linearize` routed.
fn linearize_bits<C: Comm>(
    prob: &mut RegProblem<'_, C>,
    timers: &Timers,
    v: &VectorField,
    d: &VectorField,
) -> ((u64, Vec<u64>, Vec<u64>), u64) {
    let before = timers.get_count(ROUTED);
    let (j, g) = prob.linearize(v);
    let routed = timers.get_count(ROUTED) - before;
    ((j.to_bits(), bits(&g), bits(&prob.hessian_vec(d))), routed)
}

/// A linearization that builds both trajectories routes every local point
/// four times (a predictor and a final plan per direction); one that adopts
/// the trial's forward trajectory, twice.
const FULL: u64 = 4;
const ADOPTED: u64 = 2;

#[test]
fn accepted_trial_feeds_linearize_bit_for_bit() {
    on_grids(|ws, timers| {
        let (t, r) = synthetic_pair(ws, 0.4);
        let cfg = RegistrationConfig::default();
        let (v, d) = (field(ws, 0.1), field(ws, 0.03));
        let n = ws.block().len() as u64;
        let (fresh, routed) =
            linearize_bits(&mut RegProblem::new(ws, &t, &r, cfg), timers, &v, &d);
        assert_eq!(routed, FULL * n);

        let mut prob = RegProblem::new(ws, &t, &r, cfg);
        prob.objective(&v);
        let (reused, routed) = linearize_bits(&mut prob, timers, &v, &d);
        assert_eq!(routed, ADOPTED * n, "the trial at v must be adopted");
        assert!(reused == fresh, "objective(v), linearize(v) differs from linearize(v)");
    });
}

#[test]
fn trial_one_ulp_away_misses_on_every_rank() {
    on_grids(|ws, timers| {
        let (t, r) = synthetic_pair(ws, 0.4);
        let cfg = RegistrationConfig::default();
        let (v, d) = (field(ws, 0.1), field(ws, 0.03));
        let n = ws.block().len() as u64;
        let (fresh, _) = linearize_bits(&mut RegProblem::new(ws, &t, &r, cfg), timers, &v, &d);

        // One ulp on rank 0 only: the other ranks hold a matching slab, and
        // must still rebuild, since the verdict is collective.
        let mut near = v.clone();
        if ws.comm.rank() == 0 {
            let x = &mut near.comps[1].data_mut()[3];
            *x = f64::from_bits(x.to_bits() + 1);
        }
        let mut prob = RegProblem::new(ws, &t, &r, cfg);
        prob.objective(&near);
        let (got, routed) = linearize_bits(&mut prob, timers, &v, &d);
        assert_eq!(routed, FULL * n, "a trial one ulp away must not be adopted");
        assert!(got == fresh);
    });
}

#[test]
fn only_the_last_trial_is_kept() {
    on_grids(|ws, timers| {
        let (t, r) = synthetic_pair(ws, 0.4);
        let cfg = RegistrationConfig::default();
        let (a, b, d) = (field(ws, 0.1), field(ws, 0.05), field(ws, 0.03));
        let n = ws.block().len() as u64;
        let (fresh, _) = linearize_bits(&mut RegProblem::new(ws, &t, &r, cfg), timers, &a, &d);

        let mut prob = RegProblem::new(ws, &t, &r, cfg);
        prob.objective(&a);
        prob.objective(&b);
        let (got, routed) = linearize_bits(&mut prob, timers, &a, &d);
        assert_eq!(routed, FULL * n, "the trial at a was replaced by the one at b");
        assert!(got == fresh);
    });
}

/// The post-processing `register_solve` did before it read the Newton loop's
/// last linearization, rebuilt from public pieces: a fresh `linearize` at
/// the solution and a fresh semi-Lagrangian set-up for the displacement.
fn public_pieces<C: Comm>(
    ws: &Workspace<C>,
    t: &ScalarField,
    r: &ScalarField,
    cfg: RegistrationConfig,
    betas: &[f64],
) -> (RegistrationOutcome, Vec<NewtonStatus>) {
    let ws = &Workspace { kernel: cfg.kernel, ..*ws };
    let mut v = VectorField::zeros(ws.block());
    let mut status = Vec::new();
    let mut last = None;
    for &beta in betas {
        let cfg = RegistrationConfig { beta, ..cfg };
        let mut prob = RegProblem::new(ws, t, r, cfg);
        let initial_mismatch = prob.initial_data_term();
        let v0 = prob.project(&v);
        let (velocity, report) = gauss_newton_observed(&mut prob, v0, &cfg.newton, None, |_, _| {});
        prob.linearize(&velocity);
        let deformed_template = prob.deformed_template().unwrap().clone();
        let mut resid = deformed_template.clone();
        resid.axpy(-1.0, prob.reference());
        let final_mismatch = 0.5 * resid.inner(&resid, &ws.grid(), ws.comm);
        drop(prob);
        let u = displacement(ws, &velocity, cfg.nt);
        let det_grad = det_stats(ws, &det_deformation_gradient(ws, &u));
        status.push(report.status);
        v = velocity.clone();
        last = Some(RegistrationOutcome {
            velocity,
            report,
            initial_mismatch,
            final_mismatch,
            deformed_template,
            displacement: u,
            det_grad,
        });
    }
    (last.unwrap(), status)
}

/// Every field of the outcome, on the three exits post-processing meets:
/// converged, iteration cap, and a failed line search (the coarse-grid
/// failure `solve_api.rs` describes, at 12³ where both β levels end in it),
/// whose linearization the trials dropped.
#[test]
fn register_solve_post_processing_matches_public_pieces() {
    use NewtonStatus::{Converged, LineSearchFailed, MaxIterations};
    let capped = NewtonOptions { max_iter: 2, ..Default::default() };
    type Case = ([usize; 3], (usize, usize), &'static [f64], NewtonOptions, &'static [NewtonStatus]);
    let cases: [Case; 3] = [
        ([16, 16, 16], (1, 1), &[1e-2], NewtonOptions::default(), &[Converged]),
        ([24, 30, 24], (2, 2), &[1e-2], capped, &[MaxIterations]),
        ([12, 12, 12], (1, 1), &[1e-2, 1e-3], NewtonOptions::default(), &[LineSearchFailed; 2]),
    ];
    for (dims, (p1, p2), betas, newton, expect) in cases {
        run_threaded(p1 * p2, move |comm| {
            let decomp = Decomp::with_process_grid(Grid::new(dims), p1, p2);
            let parts = SessionParts::with_decomp(comm, decomp);
            let ws = parts.workspace(comm);
            let (t, r) = synthetic_pair(&ws, 0.4);
            let cfg = RegistrationConfig { newton, ..Default::default() };
            let (want, status) = public_pieces(&ws, &t, &r, cfg, betas);
            assert_eq!(status, expect, "{dims:?}");
            let grid = ws.grid();
            let levels: Vec<Level> = betas.iter().map(|&beta| Level { beta, grid }).collect();
            let (got, _) = register_solve(&ws, &t, &r, cfg, &levels, None, |_| {});
            let what = format!("{dims:?} on {p1}x{p2}");
            assert_eq!(bits(&got.velocity), bits(&want.velocity), "{what}: velocity");
            assert_eq!(format!("{:?}", got.report), format!("{:?}", want.report), "{what}");
            assert_eq!(got.initial_mismatch.to_bits(), want.initial_mismatch.to_bits(), "{what}");
            assert_eq!(got.final_mismatch.to_bits(), want.final_mismatch.to_bits(), "{what}");
            let scalar = |f: &ScalarField| f.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(scalar(&got.deformed_template), scalar(&want.deformed_template), "{what}");
            assert_eq!(bits(&got.displacement), bits(&want.displacement), "{what}");
            let det = |d: &diffreg_core::DetGradStats| {
                (d.min.to_bits(), d.max.to_bits(), d.mean.to_bits(), d.diffeomorphic)
            };
            assert_eq!(det(&got.det_grad), det(&want.det_grad), "{what}: det(∇y₁)");
        });
    }
}

/// One `register` call at 16³, counted with the recorder in keep-all mode.
/// Derived by hand for the K = 3 accepted Newton steps this solve takes,
/// each at the first trial (t = 1, so K trials), with N = 16³ = 4096:
///
/// * `reg.linearize` spans: the initial one plus one per accepted step,
///   K + 1 = 4. Post-processing reads the last one and adds none (it added
///   one more before the reuse).
/// * routed points: the initial linearization builds both trajectories,
///   4N; each trial builds the forward one, 2N; each linearization at an
///   accepted trial builds the backward one only, 2N; post-processing
///   builds none. 4N + 2N·K + 2N·K = 16N = 65536. (Before the reuse:
///   4N·(K + 1) + 2N·K + 8N for the post-process linearize and
///   displacement set-up, 30N.)
#[test]
fn one_register_builds_each_velocity_once() {
    let (linearize_spans, routed, steps) = run_threaded(1, |comm| {
        set_trace_enabled(true);
        let parts = SessionParts::new(comm, Grid::cubic(16));
        let ws = parts.workspace(comm);
        let (t, r) = synthetic_pair(&ws, 0.4);
        ws.timers.reset();
        let _ = take_recorder();
        let out = register(&ws, &t, &r, RegistrationConfig::default());
        let snap = take_recorder();
        assert_eq!((snap.sampled_out, snap.overwritten), (0, 0), "keep-all must keep every span");
        let spans = snap
            .events
            .iter()
            .filter(|e| e.kind == RecKind::Span && e.name == "reg.linearize")
            .count();
        let steps: Vec<f64> = out.report.iterations.iter().map(|s| s.step_length).collect();
        (spans, ws.timers.get_count(ROUTED), steps)
    })
    .pop()
    .unwrap();
    assert_eq!(steps, [1.0; 3], "the derivation assumes three full steps");
    assert_eq!(linearize_spans, 4);
    assert_eq!(routed, 16 * 4096);
}
