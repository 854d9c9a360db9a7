//! The high-level registration driver: runs the Gauss-Newton-Krylov solve
//! over a continuation schedule — β levels (paper §III-A: "since the
//! problem is highly nonlinear we use parameter continuation on β") and
//! coarse grid levels (§I, Limitations) in one warm-started loop — and
//! assembles the diagnostics the paper reports.

use diffreg_comm::{Comm, ReduceOp};
use diffreg_grid::{Decomp, Grid, ScalarField, VectorField};
use diffreg_optim::{gauss_newton_observed, NewtonReport, NewtonResume};
use diffreg_telemetry::{IterRecord, SolverEvent, StreamEntry};
use diffreg_transport::{compute_trajectory, SessionParts, Workspace};

use crate::checkpoint::{CheckpointStore, SolverCheckpoint};
use crate::config::RegistrationConfig;
use crate::jacobian::{det_deformation_gradient, det_stats, DetGradStats};
use crate::multires::{resample_scalar, resample_vector};
use crate::problem::RegProblem;

/// Everything a registration run produces.
#[derive(Debug)]
pub struct RegistrationOutcome {
    /// The optimal stationary velocity field.
    pub velocity: VectorField,
    /// The Newton-Krylov solve report of the last level (per-iteration
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

/// One level of a continuation schedule: the regularization weight and the
/// grid the level solves on.
#[derive(Debug, Clone, Copy)]
pub struct Level {
    /// Regularization weight β.
    pub beta: f64,
    /// The level's grid; the last level's is the workspace's.
    pub grid: Grid,
}

/// Solves the registration problem for `(rho_t, rho_r)` with the given
/// configuration, starting from `v = 0`. Collective over `ws.comm`.
pub fn register<C: Comm>(
    ws: &Workspace<C>,
    rho_t: &ScalarField,
    rho_r: &ScalarField,
    cfg: RegistrationConfig,
) -> RegistrationOutcome {
    let level = Level { beta: cfg.beta, grid: ws.grid() };
    register_solve(ws, rho_t, rho_r, cfg, &[level], None, |_| {}).0
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
    let levels: Vec<Level> = betas.iter().map(|&beta| Level { beta, grid: ws.grid() }).collect();
    register_solve(ws, rho_t, rho_r, cfg, &levels, None, |_| {})
}

fn event(kind: &str, level: usize, iter: usize, detail: String) -> StreamEntry {
    StreamEntry::Event(SolverEvent { kind: kind.to_string(), level, iter, detail })
}

/// The solve: one Gauss-Newton-Krylov solve per entry of the schedule
/// `levels` (`cfg.beta` is ignored), the first from `v = 0` and each later
/// one warm-started from the previous level's solution. [`register`] and
/// [`register_with_continuation`] are this with no store and no observer.
///
/// **Levels.** β must be non-increasing and the last level must be on
/// `ws.grid()`. A level on the workspace's grid solves on `ws` and the
/// caller's images; a coarser level solves on a session of its own (its
/// timers are `ws.timers`) with the images spectrally restricted to it, and
/// its solution is spectrally prolonged to the next level's grid. Grid
/// transfers need the whole spectrum on one rank, so a schedule with more
/// than one grid panics on more than one rank. Only the last level is
/// post-processed into the returned [`RegistrationOutcome`].
///
/// **Crash recovery.** A solve checkpoints when it is handed a `store`, at
/// the store's cadence: each rank writes a [`SolverCheckpoint`] after every
/// accepted Newton step ([`CheckpointStore::every`] thins that out) and at
/// every level boundary, after the prolongation. At the start each rank
/// loads its slot once (falling back a generation past a torn write), and
/// the ranks resume only if every rank's checkpoint fits the schedule
/// (level in range, that level's β bits, that level's block) and all name
/// the same `(level, iteration)`; otherwise every rank clears its slot and
/// starts fresh. A resumed run produces bitwise the same velocity as the
/// uninterrupted solve: the checkpointed iterate is *not* re-projected, so
/// it re-linearizes at exactly the checkpointed point. The checkpoint is
/// cleared on successful completion. All ranks must pass a store or all
/// `None`; `None` does no checkpoint I/O and no collective for it.
///
/// **Telemetry.** `observer` is handed the solver stream in order: one
/// [`IterRecord`] per accepted Newton step (objective, ‖g‖ and its relative
/// value, PCG iterations, Eisenstat-Walker η, step length, β level — the
/// paper's per-iteration convergence table) interleaved with the events
/// `"checkpoint-fallback"`, `"resume"`, `"checkpoint-drop"` (the ranks start
/// fresh), `"level"`, `"checkpoint"` (`saved` or `save-failed: <error>`) and
/// `"summary"`. Within one accepted step the order is: checkpoint write (if
/// due at the store's cadence), level event (first step of a level), iteration record, checkpoint
/// event — so an observer that panics on an iteration record
/// (fault-injection tests) leaves that step's checkpoint behind. The
/// level-boundary save adds a `"checkpoint"` event only when it fails
/// (`save-failed: <error>`, at the next level's iteration 0). A failed save
/// never aborts the solve: the run merely loses restartability since the
/// last good generation. Each rank sees its own (identical) stream.
///
/// Collective over `ws.comm`.
pub fn register_solve<C: Comm>(
    ws: &Workspace<C>,
    rho_t: &ScalarField,
    rho_r: &ScalarField,
    cfg: RegistrationConfig,
    levels: &[Level],
    store: Option<&CheckpointStore>,
    mut observer: impl FnMut(StreamEntry),
) -> (RegistrationOutcome, Vec<NewtonReport>) {
    let fine = ws.grid();
    assert!(!levels.is_empty(), "need at least one continuation level");
    assert!(
        levels.windows(2).all(|w| w[1].beta <= w[0].beta),
        "continuation levels must be non-increasing in β"
    );
    assert!(levels.last().is_some_and(|l| l.grid == fine), "the last level must be on ws.grid()");
    assert!(
        ws.comm.size() == 1 || levels.iter().all(|l| l.grid == fine),
        "grid continuation is a single-rank feature in this release"
    );
    let rank = ws.comm.rank();
    // A coarse level runs on one rank, where its block is its whole grid.
    let block = |grid: Grid| if grid == fine { ws.block() } else { Decomp::new(grid, 1).block(0) };
    // The resume decision is one allreduce of a key per rank: 0 for no
    // checkpoint, −1 for one that does not fit, otherwise the point it
    // resumes from. `Min` over `[key, −key]` gives the least and greatest.
    let loaded = store.map(|s| s.load_for_resume(rank)).unwrap_or_default();
    let fits = |ck: &SolverCheckpoint| {
        levels.get(ck.level).is_some_and(|l| {
            l.beta.to_bits() == ck.beta.to_bits() && ck.velocity[0].len() == block(l.grid).len()
        })
    };
    let key = match &loaded.checkpoint {
        None => 0.0,
        Some(ck) if !fits(ck) => -1.0,
        Some(ck) => 1.0 + ck.level as f64 * 1.0e9 + ck.completed_iters as f64,
    };
    let mut keys = [key, -key];
    if store.is_some() {
        ws.comm.allreduce(&mut keys, ReduceOp::Min);
    }
    let (least, greatest) = (keys[0] as i64, (-keys[1]) as i64);
    let (mut li, mut v, mut resume) = match loaded.checkpoint {
        Some(ck) if least > 0 && least == greatest => {
            if loaded.fell_back {
                let detail = format!("current generation corrupt: {}", loaded.errors[0]);
                observer(event("checkpoint-fallback", 0, 0, detail));
            }
            let detail = format!("beta={:e} g0norm={:e}", ck.beta, ck.g0norm);
            observer(event("resume", ck.level, ck.completed_iters, detail));
            let resume = (ck.completed_iters > 0)
                .then_some(NewtonResume { completed_iters: ck.completed_iters, g0norm: ck.g0norm });
            (ck.level, ck.velocity_field(block(levels[ck.level].grid)), resume)
        }
        _ => {
            if let Some(store) = store.filter(|_| least != greatest || least < 0) {
                store.clear(rank);
                let why = if least < 0 { "one does not fit the schedule" } else { "ranks differ" };
                observer(event("checkpoint-drop", 0, 0, format!("checkpoints dropped: {why}")));
            }
            (0, VectorField::zeros(block(levels[0].grid)), None)
        }
    };
    let mut reports = Vec::with_capacity(levels.len() - li);
    // The previous level's smoothed images, while the grid stays the same.
    let mut smoothed = None;
    let outcome = loop {
        let Level { beta, grid } = levels[li];
        let span = diffreg_telemetry::span("registration");
        // A coarse level's session lives for this level only.
        let parts;
        let ws = if grid == fine {
            *ws
        } else {
            parts = SessionParts::new(ws.comm, grid);
            Workspace { timers: ws.timers, ..parts.workspace(ws.comm) }
        };
        let cfg = RegistrationConfig { beta, ..cfg };
        let mut prob = match smoothed.take() {
            Some((t, r)) => RegProblem::with_smoothed(&ws, t, r, cfg),
            None if grid == fine => RegProblem::new(&ws, rho_t, rho_r, cfg),
            None => {
                let [t, r] = [rho_t, rho_r].map(|f| resample_scalar(f, &fine, &grid));
                RegProblem::new(&ws, &t, &r, cfg)
            }
        };
        // Keep the iterate in the divergence-free subspace from the start.
        // On resume the checkpointed iterate is already in the subspace and
        // must pass through untouched (bitwise). Either way the warm start
        // is not kept beside the iterate.
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
                let saved = store.filter(|s| s.is_due(iter)).map(|store| {
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

        let Some(next) = levels.get(li + 1) else {
            // Final diagnostics at the converged velocity, from the Newton
            // loop's last linearization. The problem's copy of the
            // workspace carries `cfg.kernel`; they interpolate with it too.
            let ws = prob.ws;
            let initial_mismatch = prob.initial_data_term();
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
            drop(span);
            if let Some(store) = store {
                // Finished: drop the checkpoint so a later solve does not
                // resume from a stale snapshot.
                store.clear(rank);
            }
            reports.push(report.clone());
            break RegistrationOutcome {
                velocity,
                report,
                initial_mismatch,
                final_mismatch,
                deformed_template,
                displacement,
                det_grad,
            };
        };
        drop(span);
        // A finished level lives on only as the warm start `v`, on the next
        // level's grid, and as its smoothed images if the grid stays.
        (v, smoothed) = if next.grid == grid {
            (velocity, Some(prob.into_images()))
        } else {
            drop(prob);
            (resample_vector(&velocity, &grid, &next.grid), None)
        };
        reports.push(report);
        if let Some(store) = store {
            // Level boundary: a restart warm-starts the next level from
            // this level's solution through the ordinary entry path.
            // It is reported only when it fails.
            let ck = SolverCheckpoint::capture(li + 1, next.beta, 0, f64::NAN, &v);
            if let Err(e) = store.save(rank, &ck.to_bytes()) {
                observer(event("checkpoint", li + 1, 0, format!("save-failed: {e}")));
            }
        }
        li += 1;
    };
    let detail = format!(
        "status={:?} rel_mismatch={:.3e} matvecs={}",
        reports.last().map(|r| r.status),
        outcome.relative_mismatch(),
        outcome.report.total_matvecs
    );
    observer(event("summary", levels.len() - 1, outcome.report.outer_iterations(), detail));
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
    let rho_r = fwd.advect(ws, &rho_t, nt).pop().unwrap_or_else(|| rho_t.clone());
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
