//! The high-level registration driver: runs the Gauss-Newton-Krylov solve,
//! optionally with β-continuation (paper §III-A: "since the problem is
//! highly nonlinear we use parameter continuation on β"), and assembles the
//! diagnostics the paper reports.

use diffreg_comm::Comm;
use diffreg_grid::{ScalarField, VectorField};
use diffreg_optim::{gauss_newton_observed, NewtonReport, NewtonResume};
use diffreg_telemetry::{IterRecord, SolverEvent, StreamEntry};
use diffreg_transport::{compute_trajectory, Workspace};

use crate::checkpoint::{CheckpointStore, SolverCheckpoint};
use crate::config::RegistrationConfig;
use crate::jacobian::{det_deformation_gradient, det_stats, DetGradStats};
use crate::problem::RegProblem;

/// Everything a registration run produces.
#[derive(Debug)]
pub struct RegistrationOutcome {
    /// The optimal stationary velocity field.
    pub velocity: VectorField,
    /// The Newton-Krylov solve report of the last β level (per-iteration
    /// stats; `total_matvecs` is the paper's Table V metric, which the
    /// `summary` event carries). Earlier levels of a continuation are in the
    /// per-level reports.
    pub report: NewtonReport,
    /// `1/2 ||ρ_T − ρ_R||²` before registration (after smoothing).
    pub initial_mismatch: f64,
    /// `1/2 ||ρ(1) − ρ_R||²` after registration.
    pub final_mismatch: f64,
    /// The deformed (registered) template `ρ(1) = ρ_T ∘ y₁`.
    pub deformed_template: ScalarField,
    /// Displacement `u` with `y₁ = x + u`.
    pub displacement: VectorField,
    /// Determinant-of-deformation-gradient statistics.
    pub det_grad: DetGradStats,
}

impl RegistrationOutcome {
    /// Relative residual `||ρ(1) − ρ_R|| / ||ρ_T − ρ_R||`.
    pub fn relative_mismatch(&self) -> f64 {
        if self.initial_mismatch > 0.0 {
            (self.final_mismatch / self.initial_mismatch).sqrt()
        } else {
            0.0
        }
    }
}

/// Solves the registration problem for `(rho_t, rho_r)` with the given
/// configuration, starting from `v = 0`. Collective over `ws.comm`.
pub fn register<C: Comm>(
    ws: &Workspace<C>,
    rho_t: &ScalarField,
    rho_r: &ScalarField,
    cfg: RegistrationConfig,
) -> RegistrationOutcome {
    register_solve(ws, rho_t, rho_r, cfg, &[cfg.beta], None, &CheckpointStore::Disabled, |_| {}).0
}

/// β-continuation: solves a sequence of problems with decreasing β, warm
/// starting each from the previous solution. Returns the outcome at the
/// final (target) β together with the per-level reports.
pub fn register_with_continuation<C: Comm>(
    ws: &Workspace<C>,
    rho_t: &ScalarField,
    rho_r: &ScalarField,
    cfg: RegistrationConfig,
    betas: &[f64],
) -> (RegistrationOutcome, Vec<NewtonReport>) {
    register_solve(ws, rho_t, rho_r, cfg, betas, None, &CheckpointStore::Disabled, |_| {})
}

fn event(kind: &str, level: usize, iter: usize, detail: String) -> StreamEntry {
    StreamEntry::Event(SolverEvent { kind: kind.to_string(), level, iter, detail })
}

/// The solve: one Gauss-Newton-Krylov solve per entry of the β schedule
/// `betas` (`cfg.beta` is ignored), each level warm-started from the
/// previous level's solution and the first from `warm_start` (`v = 0` when
/// `None`). [`register`] and [`register_with_continuation`] are this with
/// the options off.
///
/// **Crash recovery.** Every `cfg.checkpoint_every` accepted Newton
/// iterations (and at every level boundary) each rank writes a
/// [`SolverCheckpoint`] to `store`; if `store` already holds a checkpoint
/// when the solve starts, the run resumes from it — ignoring `warm_start` —
/// and produces bitwise the same velocity as the uninterrupted solve. The
/// checkpointed iterate is *not* re-projected (the solver already keeps
/// iterates in the constraint subspace), so the resumed run re-linearizes at
/// exactly the checkpointed point. The checkpoint is cleared on successful
/// completion. All ranks must pass equivalent stores (same kind, same
/// contents for their own rank); [`CheckpointStore::Disabled`] does no I/O.
///
/// **Telemetry.** `observer` is handed the solver stream in order: one
/// [`IterRecord`] per accepted Newton step (objective, ‖g‖ and its relative
/// value, PCG iterations, Eisenstat-Walker η, step length, β level — the
/// paper's per-iteration convergence table) interleaved with the events
/// `"checkpoint-fallback"`, `"resume"`, `"level"`, `"checkpoint"` (`saved`
/// or `save-failed: <error>`) and `"summary"`. Within one accepted step the
/// order is: checkpoint write (if due), level event (first step of a level),
/// iteration record, checkpoint event — so an observer that panics on an
/// iteration record (fault-injection tests) leaves that step's checkpoint
/// behind. The level-boundary save adds a `"checkpoint"` event only when it
/// fails (`save-failed: <error>`, at the next level's iteration 0). A failed
/// save never aborts the solve: the run merely loses restartability since
/// the last good generation. Each rank sees its own (identical) stream.
///
/// Collective over `ws.comm`.
#[expect(
    clippy::too_many_arguments,
    reason = "the one solve entry point: callers set each of the eight inputs differently"
)]
pub fn register_solve<C: Comm>(
    ws: &Workspace<C>,
    rho_t: &ScalarField,
    rho_r: &ScalarField,
    cfg: RegistrationConfig,
    betas: &[f64],
    warm_start: Option<VectorField>,
    store: &CheckpointStore,
    mut observer: impl FnMut(StreamEntry),
) -> (RegistrationOutcome, Vec<NewtonReport>) {
    assert!(!betas.is_empty(), "need at least one continuation level");
    assert!(
        betas.windows(2).all(|w| w[1] <= w[0]),
        "continuation levels must be non-increasing in β"
    );
    let rank = ws.comm.rank();
    let mut start_level = 0usize;
    let mut v = warm_start.unwrap_or_else(|| VectorField::zeros(ws.block()));
    let mut resume: Option<NewtonResume> = None;
    // Validated load with fallback: a torn current generation falls back to
    // the previous good checkpoint, and a fully corrupt store resumes fresh
    // (losing at most the checkpointed progress, never the job).
    let loaded = store.load_for_resume(rank);
    if loaded.fell_back {
        let detail = format!("current generation corrupt: {}", loaded.errors[0]);
        observer(event("checkpoint-fallback", 0, 0, detail));
    }
    if let Some(ck) = loaded.checkpoint {
        let detail = format!("beta={:e} g0norm={:e}", ck.beta, ck.g0norm);
        observer(event("resume", ck.level, ck.completed_iters, detail));
        assert!(
            ck.level < betas.len(),
            "checkpoint level {} outside the {}-level β schedule",
            ck.level,
            betas.len()
        );
        assert_eq!(
            ck.beta.to_bits(),
            betas[ck.level].to_bits(),
            "checkpoint β does not match the schedule at level {}",
            ck.level
        );
        start_level = ck.level;
        v = ck.velocity_field(ws.block());
        if ck.completed_iters > 0 {
            resume =
                Some(NewtonResume { completed_iters: ck.completed_iters, g0norm: ck.g0norm });
        }
    }
    let mut reports = Vec::with_capacity(betas.len() - start_level);
    let mut outcome = None;
    let every = cfg.checkpoint_every;
    let persist = every > 0 && store.is_enabled();
    for (li, &beta) in betas.iter().enumerate().skip(start_level) {
        // A finished level lives on only as the warm start `v`.
        drop(outcome.take());
        let out = {
            let _span = diffreg_telemetry::span("registration");
            let cfg = RegistrationConfig { beta, ..cfg };
            let mut prob = RegProblem::new(ws, rho_t, rho_r, cfg);
            // The problem's copy of the workspace carries `cfg.kernel`; the
            // diagnostics below interpolate with it too.
            let ws = prob.ws;
            let initial_mismatch = prob.initial_data_term();
            // Keep the iterate in the divergence-free subspace from the
            // start. On resume the checkpointed iterate is already in the
            // subspace and must pass through untouched (bitwise). Either
            // way the warm start is not kept beside the iterate.
            let resume = resume.take();
            let v0 = if resume.is_some() {
                v
            } else {
                let v0 = prob.project(&v);
                drop(v);
                v0
            };
            let mut first_step = true;
            let (velocity, report) =
                gauss_newton_observed(&mut prob, v0, &cfg.newton, resume, |vel, cur| {
                    let iter = cur.completed_iters;
                    let saved = (persist && iter % every == 0).then(|| {
                        let ck = SolverCheckpoint::capture(li, beta, iter, cur.g0norm, vel);
                        store.save(rank, &ck.to_bytes())
                    });
                    if std::mem::take(&mut first_step) {
                        let detail = format!("beta={beta:e}");
                        observer(event("level", li, iter.saturating_sub(1), detail));
                    }
                    observer(StreamEntry::Iter(IterRecord {
                        level: li,
                        beta,
                        iter,
                        objective: cur.objective,
                        grad_norm: cur.grad_norm,
                        rel_grad: if cur.g0norm > 0.0 { cur.grad_norm / cur.g0norm } else { 0.0 },
                        pcg_iters: cur.matvecs,
                        eta: cur.eta,
                        step_length: cur.step_length,
                    }));
                    if let Some(r) = saved {
                        let detail = match r {
                            Ok(()) => "saved".to_string(),
                            Err(e) => format!("save-failed: {e}"),
                        };
                        observer(event("checkpoint", li, iter, detail));
                    }
                });

            // Final diagnostics at the converged velocity, from the Newton
            // loop's last linearization.
            let (sl, deformed_template) = prob.take_linearization(&velocity);
            let mut resid = deformed_template.clone();
            resid.axpy(-1.0, prob.reference());
            let final_mismatch = 0.5 * resid.inner(&resid, &ws.grid(), ws.comm);
            drop(prob);

            // The map y₁ is transported along the same forward plans.
            let displacement = sl.solve_displacement(&ws, &velocity);
            drop(sl);
            let det = det_deformation_gradient(&ws, &displacement);
            let det_grad = det_stats(&ws, &det);

            RegistrationOutcome {
                velocity,
                report,
                initial_mismatch,
                final_mismatch,
                deformed_template,
                displacement,
                det_grad,
            }
        };
        v = out.velocity.clone();
        reports.push(out.report.clone());
        outcome = Some(out);
        if persist {
            if li + 1 < betas.len() {
                // Level boundary: a restart warm-starts the next level from
                // this level's solution through the ordinary entry path.
                // It is reported only when it fails.
                let ck = SolverCheckpoint::capture(li + 1, betas[li + 1], 0, f64::NAN, &v);
                if let Err(e) = store.save(rank, &ck.to_bytes()) {
                    observer(event("checkpoint", li + 1, 0, format!("save-failed: {e}")));
                }
            } else {
                // Finished: drop the checkpoint so a later solve does not
                // resume from a stale snapshot.
                store.clear(rank);
            }
        }
    }
    #[expect(
        clippy::unwrap_used,
        reason = "betas is asserted non-empty and a checkpoint level is asserted inside it, so the loop always sets outcome"
    )]
    let outcome = outcome.unwrap();
    let detail = format!(
        "status={:?} rel_mismatch={:.3e} matvecs={}",
        reports.last().map(|r| r.status),
        outcome.relative_mismatch(),
        outcome.report.total_matvecs
    );
    observer(event("summary", betas.len() - 1, outcome.report.outer_iterations(), detail));
    (outcome, reports)
}

/// The paper's synthetic problem (§IV-A1): the template is a sin² bump sum
/// and the reference is the template transported by a known velocity of the
/// given amplitude.
pub fn synthetic_pair<C: Comm>(ws: &Workspace<C>, amplitude: f64) -> (ScalarField, ScalarField) {
    let grid = ws.grid();
    let rho_t = ScalarField::from_fn(&grid, ws.block(), |x| {
        (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
    });
    let v_star = VectorField::from_fn(&grid, ws.block(), |x| {
        [
            amplitude * x[0].cos() * x[1].sin(),
            amplitude * x[1].cos() * x[0].sin(),
            amplitude * x[0].cos() * x[2].sin(),
        ]
    });
    // Forward transport only: the state solve's plan, without the backward
    // direction and `div v` a full `SemiLagrangian` would also build.
    let nt = 4;
    let fwd = compute_trajectory(ws, &v_star, 1.0 / nt as f64, 1.0);
    let rho_r = fwd.advect(ws, &rho_t, nt).pop().unwrap_or(rho_t.clone());
    (rho_t, rho_r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::{run_threaded, SerialComm};
    use diffreg_grid::{Decomp, Grid};
    use diffreg_transport::{SemiLagrangian, SessionParts};

    #[test]
    fn registration_reduces_mismatch_substantially() {
        let grid = Grid::cubic(16);
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        let ws = parts.workspace(&comm);
        let (t, r) = synthetic_pair(&ws, 0.5);
        let cfg = RegistrationConfig { beta: 1e-3, ..Default::default() };
        let out = register(&ws, &t, &r, cfg);
        assert!(
            out.relative_mismatch() < 0.3,
            "relative mismatch {} too large (report: {:?})",
            out.relative_mismatch(),
            out.report.status
        );
        assert!(out.det_grad.diffeomorphic, "map must stay diffeomorphic: {:?}", out.det_grad);
        assert!(out.report.total_matvecs > 0);
    }

    #[test]
    fn incompressible_registration_preserves_volume() {
        let grid = Grid::cubic(16);
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        let ws = parts.workspace(&comm);
        // Build the reference with a divergence-free v* (paper footnote 5).
        let grid2 = grid;
        let rho_t = ScalarField::from_fn(&grid2, ws.block(), |x| {
            (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
        });
        let v_star = VectorField::from_fn(&grid2, ws.block(), |x| {
            [0.4 * x[0].cos() * x[1].sin(), -0.4 * x[0].sin() * x[1].cos(), 0.0]
        });
        let sl = SemiLagrangian::new(&ws, &v_star, 4);
        let rho_r = sl.solve_state(&ws, &rho_t).pop().unwrap();

        let cfg = RegistrationConfig { beta: 1e-3, incompressible: true, ..Default::default() };
        let out = register(&ws, &rho_t, &rho_r, cfg);
        assert!(out.relative_mismatch() < 0.6, "rel mismatch {}", out.relative_mismatch());
        // Volume preservation: det(∇y₁) ≈ 1.
        assert!(
            (out.det_grad.min - 1.0).abs() < 0.05 && (out.det_grad.max - 1.0).abs() < 0.05,
            "det range [{}, {}]",
            out.det_grad.min,
            out.det_grad.max
        );
        // The recovered velocity itself is divergence-free.
        let div = ws.fft.divergence(&out.velocity, ws.timers);
        assert!(div.max_abs(&comm) < 1e-8);
    }

    #[test]
    fn continuation_reaches_target_beta() {
        let grid = Grid::cubic(12);
        let comm = SerialComm::new();
        let parts = SessionParts::new(&comm, grid);
        let ws = parts.workspace(&comm);
        let (t, r) = synthetic_pair(&ws, 0.4);
        let cfg = RegistrationConfig::default();
        let (out, reports) = register_with_continuation(&ws, &t, &r, cfg, &[1e-2, 1e-3]);
        assert_eq!(reports.len(), 2);
        assert!(out.relative_mismatch() < 0.5, "rel mismatch {}", out.relative_mismatch());
    }

    #[test]
    fn distributed_registration_matches_serial() {
        let grid = Grid::cubic(12);
        let serial = {
            let comm = SerialComm::new();
            let parts = SessionParts::new(&comm, grid);
            let ws = parts.workspace(&comm);
            let (t, r) = synthetic_pair(&ws, 0.4);
            let cfg = RegistrationConfig {
                newton: diffreg_optim::NewtonOptions { max_iter: 2, ..Default::default() },
                ..Default::default()
            };
            let out = register(&ws, &t, &r, cfg);
            (out.final_mismatch, out.report.grad_norm)
        };
        run_threaded(4, move |comm| {
            let parts = SessionParts::with_decomp(comm, Decomp::with_process_grid(grid, 2, 2));
            let ws = parts.workspace(comm);
            let (t, r) = synthetic_pair(&ws, 0.4);
            let cfg = RegistrationConfig {
                newton: diffreg_optim::NewtonOptions { max_iter: 2, ..Default::default() },
                ..Default::default()
            };
            let out = register(&ws, &t, &r, cfg);
            let (sm, sg) = serial;
            assert!(
                (out.final_mismatch - sm).abs() < 1e-9 * sm.max(1.0),
                "mismatch {} vs serial {}",
                out.final_mismatch,
                sm
            );
            assert!((out.report.grad_norm - sg).abs() < 1e-8 * sg.max(1.0));
        });
    }
}
