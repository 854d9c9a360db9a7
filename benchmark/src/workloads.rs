//! The four workloads: sizes, inputs from the seed, and what one run of each
//! measures untraced (end-to-end metrics) and traced (per-layer metrics).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use diffreg::comm::{run_threaded, Comm, CommStats, SerialComm};
use diffreg::perfmodel::{model_solve, Machine, SolveShape};

use crate::host::peak_rss_mib;
use crate::metrics::{Metrics, PER_LAYER};
use crate::replay::{replay_layers, Effort};
use crate::serve::{self, Batch, POOL};
use crate::solve::{check, perturbation, setup, timed_solve, Problem, SolveSpec, TimedSolve};
use crate::stats::fastest;
use crate::trace::{self_time, tally, Span, Tracer};

/// How one run was asked to behave.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny grids, one repetition: exercises every code path in seconds.
    pub smoke: bool,
    /// Test hook: expect a digest that cannot match, so the run must fail.
    pub corrupt_digest: bool,
    /// Scratch space for checkpoints, inside the output directory.
    pub scratch: PathBuf,
}

/// One row of the layer budget: `calls × per_call_s` against the solve wall.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    pub layer: &'static str,
    pub calls: f64,
    pub per_call_s: f64,
}

/// Result of one (workload, trace) run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Timed samples behind a metric, for quartiles.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Velocity digest (solve workloads) for cross-run comparison.
    pub digest: Option<u64>,
    /// Repetition and iteration counts behind the numbers.
    pub reps: BTreeMap<&'static str, usize>,
    pub budget: Vec<BudgetRow>,
    /// Wall time of the traced solve the budget is taken against.
    pub budget_wall_s: f64,
    /// Measured and modeled share of the solve wall per Table-I phase.
    pub phases: Vec<(&'static str, f64, f64)>,
    pub spans: Vec<Span>,
}

/// Set-ups timed before the first repetition; one more is timed before
/// every repetition after it, so the samples span the whole run and at
/// least one of them falls outside any burst of interference.
const SETUP_FIRST: usize = 3;

fn solve_spec(name: &str, seed: u64, smoke: bool) -> SolveSpec {
    let (amp, shift) = perturbation(seed);
    let synthetic = Problem::Synthetic {
        amplitude: 0.5 * amp,
    };
    let base = SolveSpec {
        grid: [32; 3],
        ranks: 1,
        problem: synthetic,
        betas: vec![1e-2],
        nt: 4,
        max_newton: None,
        mismatch_limit: 0.45,
        min_reps: 3,
        shift,
    };
    let mut spec = match name {
        "synth32" => base,
        "brain_aniso" => SolveSpec {
            grid: [24, 30, 24],
            problem: Problem::Brain,
            betas: vec![1e-2, 1e-3],
            mismatch_limit: 0.25,
            ..base
        },
        // Two busy threads are what this host times worst (README.md,
        // "Noise"): one more sample than the others get.
        "synth64_p2" => SolveSpec {
            grid: [64; 3],
            ranks: 2,
            min_reps: 4,
            ..base
        },
        // One odd (gang-1) job of the serve batch, solved outside the pool:
        // the traced view of what a served job spends its time on.
        "serve_batch" => {
            let class = batch(seed, false).class_b;
            SolveSpec {
                grid: [class.grid_n; 3],
                problem: Problem::Synthetic {
                    amplitude: class.amplitude,
                },
                betas: class.betas,
                nt: class.nt,
                max_newton: Some(class.newton_iters),
                mismatch_limit: 1.0,
                shift: [0.0; 3],
                ..base
            }
        }
        other => panic!("unknown workload {other}"),
    };
    if smoke {
        spec.grid = match name {
            "brain_aniso" => [12, 10, 8],
            _ => [8; 3],
        };
        // Under-resolved smoke grids only have to run, not to register well
        // or to converge.
        spec.max_newton = Some(2);
        spec.mismatch_limit = 1.0;
        spec.min_reps = 1;
    }
    spec
}

fn batch(seed: u64, smoke: bool) -> Batch {
    let (amp, _) = perturbation(seed);
    if smoke {
        Batch::new(6, 8, amp)
    } else {
        Batch::new(48, 24, amp)
    }
}

pub fn run(name: &str, opts: &RunOpts) -> Outcome {
    let mut out = match (name, opts.trace) {
        ("serve_batch", false) => serve_untraced(opts),
        ("serve_batch", true) => serve_traced(opts),
        (_, false) => solve_untraced_run(&solve_spec(name, opts.seed, opts.smoke), opts),
        (_, true) => solve_traced_run(&solve_spec(name, opts.seed, opts.smoke), opts),
    };
    if !opts.trace {
        out.metrics.set("peak_rss_mib", peak_rss_mib());
    }
    out
}

// ---------------------------------------------------------------------------
// Solve workloads
// ---------------------------------------------------------------------------

/// What one rank reports from the untraced run.
struct UntracedRank {
    setup_s: Vec<f64>,
    solves: Vec<TimedSolve>,
}

fn untraced_rank<C: Comm>(comm: &C, spec: &SolveSpec, opts: &RunOpts) -> UntracedRank {
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        comm.barrier();
        let t0 = Instant::now();
        let s = setup(comm, spec);
        comm.barrier();
        setup_s.push(comm.max_f64(t0.elapsed().as_secs_f64()));
        s
    };
    let mut s = timed_setup();
    for _ in 1..if opts.smoke { 1 } else { SETUP_FIRST } {
        s = timed_setup();
    }
    // No separate warm-up: every solve is a sample, and the cold first one
    // is simply never the fastest.
    let mut solves: Vec<TimedSolve> = Vec::new();
    let mut spent = 0.0;
    // `spent` is a max over ranks, so every rank stops at the same count.
    while solves.len() < spec.min_reps || spent < opts.seconds {
        let t = timed_solve(comm, &s, spec, None);
        spent += t.wall_s;
        solves.push(t);
        if opts.smoke {
            break;
        }
        drop(timed_setup());
    }
    UntracedRank { setup_s, solves }
}

fn solve_untraced_run(spec: &SolveSpec, opts: &RunOpts) -> Outcome {
    let mut ranks = if spec.ranks == 1 {
        vec![untraced_rank(&SerialComm::new(), spec, opts)]
    } else {
        run_threaded(spec.ranks, |comm| untraced_rank(comm, spec, opts))
    };
    let r0 = ranks.swap_remove(0);
    let mut out = Outcome::default();
    let walls: Vec<f64> = r0.solves.iter().map(|t| t.wall_s).collect();
    let first = &r0.solves[0].solved;
    let expect = if opts.corrupt_digest {
        first.digest ^ 1
    } else {
        first.digest
    };
    for (i, t) in r0.solves.iter().enumerate() {
        if let Some(why) = check(spec, &t.solved, Some(expect)) {
            out.failures.push(format!("solve {i}: {why}"));
        }
    }
    out.attempted = walls.len();
    out.digest = Some(first.digest);
    out.metrics.set("solve_s", fastest(&walls));
    out.metrics.set("jobs_per_s", 1.0 / fastest(&walls));
    out.metrics.set("setup_s", fastest(&r0.setup_s));
    out.metrics.set("rel_mismatch", first.rel_mismatch);
    out.reps = BTreeMap::from([
        ("timed", walls.len()),
        ("setup", r0.setup_s.len()),
        ("newton_iters", first.newton_iters),
        ("matvecs", first.matvecs),
    ]);
    out.samples.insert("solve_s", walls);
    out.samples.insert("setup_s", r0.setup_s);
    out
}

/// What one rank reports from the traced run.
struct TracedRank {
    untraced_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    failures: Vec<String>,
    /// Index of the fastest traced solve: the one every per-solve number
    /// below (and the budget) is taken from.
    best: usize,
    digest: u64,
    newton_iters: usize,
    matvecs: usize,
    comm: CommStats,
    timers: BTreeMap<&'static str, f64>,
    counters: BTreeMap<&'static str, u64>,
    layers: BTreeMap<&'static str, f64>,
    spans: Vec<Span>,
}

fn traced_rank<C: Comm>(comm: &C, spec: &SolveSpec, opts: &RunOpts) -> TracedRank {
    let s = setup(comm, spec);
    // Every rank runs the traced driver; rank 0 alone keeps the spans.
    let tracer = Tracer::new(comm.rank() == 0);
    let mut failures = Vec::new();
    // Warm-up, and the reference every later digest must equal.
    let warm = timed_solve(comm, &s, spec, None);
    let expect = if opts.corrupt_digest {
        warm.solved.digest ^ 1
    } else {
        warm.solved.digest
    };
    let mut untraced_walls = Vec::new();
    let mut traced = Vec::new();
    let mut spent = 0.0;
    loop {
        let u = timed_solve(comm, &s, spec, None);
        tracer.set_solve(traced.len());
        let t = timed_solve(comm, &s, spec, Some(&tracer));
        for (kind, x) in [("untraced", &u), ("traced", &t)] {
            if let Some(why) = check(spec, &x.solved, Some(expect)) {
                failures.push(format!("{kind} solve {}: {why}", traced.len()));
            }
        }
        spent += u.wall_s + t.wall_s;
        untraced_walls.push(u.wall_s);
        // Read right after the traced solve: the timers cover exactly it.
        traced.push((t, s.parts.timers().snapshot(), s.parts.timers().counters()));
        if opts.smoke || traced.len() >= 3 || spent >= 0.5 * opts.seconds {
            break;
        }
    }
    let traced_walls: Vec<f64> = traced.iter().map(|(t, ..)| t.wall_s).collect();
    // Walls are maxima over ranks, so every rank picks the same solve.
    let best = (0..traced.len())
        .min_by(|&a, &b| traced_walls[a].total_cmp(&traced_walls[b]))
        .unwrap_or(0);
    let (t, timers, counters) = traced.swap_remove(best);
    let effort = if opts.smoke {
        Effort::SMOKE
    } else {
        Effort::FULL
    };
    let layers = replay_layers(comm, &s, spec, &t.solved.velocity, &opts.scratch, effort);
    TracedRank {
        untraced_walls,
        traced_walls,
        failures,
        best,
        digest: t.solved.digest,
        newton_iters: t.solved.newton_iters,
        matvecs: t.solved.matvecs,
        comm: t.comm,
        timers,
        counters,
        layers,
        spans: tracer.spans(),
    }
}

fn solve_traced_run(spec: &SolveSpec, opts: &RunOpts) -> Outcome {
    let ranks = if spec.ranks == 1 {
        vec![traced_rank(&SerialComm::new(), spec, opts)]
    } else {
        run_threaded(spec.ranks, |comm| traced_rank(comm, spec, opts))
    };
    let mut out = Outcome::default();
    let m = &mut out.metrics;
    let r0 = &ranks[0];
    let id = r0.best;
    let wall = r0.traced_walls[id];
    let spans = &r0.spans;

    for (name, value) in &r0.layers {
        m.set(name, *value);
    }
    // Phase timers: the slowest rank's time, rank 0's call count, and the
    // points of all ranks together.
    let timer_max = |key: &str| {
        ranks
            .iter()
            .map(|r| r.timers.get(key).copied().unwrap_or(0.0))
            .fold(0.0, f64::max)
    };
    let counter_sum = |key: &str| {
        ranks
            .iter()
            .map(|r| r.counters.get(key).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    m.set(
        "pfft.fft3d_calls",
        r0.counters.get("fft_3d").copied().unwrap_or(0) as f64,
    );
    m.set("pfft.exec_s", timer_max("fft_exec"));
    m.set("pfft.comm_s", timer_max("fft_comm"));
    m.set("interp.exec_s", timer_max("interp_exec"));
    m.set("interp.comm_s", timer_max("interp_comm"));
    m.set("interp.points_routed", counter_sum("interp_points_routed"));
    m.set(
        "interp.points_evaluated",
        counter_sum("interp_points_evaluated"),
    );

    // core and optim, from the spans of the fastest traced solve. Only calls
    // made by the Newton loop count here; the linearize after convergence
    // belongs to post-processing.
    let per_call = |(calls, total): (usize, f64)| {
        if calls == 0 {
            0.0
        } else {
            total / calls as f64
        }
    };
    let in_newton = |name: &str| tally(spans, id, name, Some("newton"));
    let (lin, obj, hv, pc) = (
        in_newton("linearize"),
        in_newton("objective"),
        in_newton("hessian_vec"),
        in_newton("precondition"),
    );
    m.set("core.linearize_calls", lin.0 as f64);
    m.set("core.linearize_s", per_call(lin));
    m.set("core.objective_calls", obj.0 as f64);
    m.set("core.objective_s", per_call(obj));
    m.set("core.hessian_vec_calls", hv.0 as f64);
    m.set("core.hessian_vec_s", per_call(hv));
    m.set("core.precondition_calls", pc.0 as f64);
    m.set("core.precondition_s", per_call(pc));
    m.set(
        "core.postprocess_s",
        tally(spans, id, "postprocess", None).1,
    );
    m.set("optim.newton_iters", r0.newton_iters as f64);
    m.set("optim.pcg_iters", r0.matvecs as f64);
    m.set("optim.linesearch_trials", obj.0 as f64);
    m.set(
        "optim.matvecs_per_newton",
        r0.matvecs as f64 / (r0.newton_iters.max(1)) as f64,
    );
    m.set("optim.self_s", self_time(spans, id, "newton"));

    // comm: counters of the traced solve, and the time the machine model
    // gives them (ts per message, tw per 8-byte word, on the busiest rank).
    let msgs = ranks
        .iter()
        .map(|r| r.comm.messages_sent)
        .max()
        .unwrap_or(0) as f64;
    let bytes = ranks.iter().map(|r| r.comm.bytes_sent).max().unwrap_or(0) as f64;
    m.set("comm.msgs_sent_max", msgs);
    m.set("comm.bytes_sent_max", bytes);
    m.set(
        "comm.bytes_sent_total",
        ranks.iter().map(|r| r.comm.bytes_sent).sum::<u64>() as f64,
    );
    m.set(
        "comm.blocked_s_max",
        ranks
            .iter()
            .map(|r| r.comm.blocked_seconds)
            .fold(0.0, f64::max),
    );
    let machine = Machine::MAVERICK;
    m.set(
        "comm.modeled_s",
        machine.ts * msgs + machine.tw * bytes / 8.0,
    );

    m.set(
        "trace.overhead_frac",
        fastest(&r0.traced_walls) / fastest(&r0.untraced_walls) - 1.0,
    );

    // The layer budget: calls × replayed per-call cost, against the wall of
    // the traced solve. Call counts follow from what each core callback does
    // (crates/core/src/problem.rs, driver.rs): a linearize is one transport
    // set-up, a state and an adjoint solve, nt+1 gradients and two
    // regularizations; an objective is one trajectory, one state sweep and a
    // regularization; a matvec is a regularization, an incremental state and
    // an incremental adjoint; each level smooths two images and ends with
    // one more linearize, a displacement solve (its own transport set-up)
    // and three gradients for det ∇y₁.
    let levels = tally(spans, id, "level", None).0 as f64;
    let all_lin = tally(spans, id, "linearize", None).0 as f64;
    let (o, h, p, nt) = (obj.0 as f64, hv.0 as f64, pc.0 as f64, spec.nt as f64);
    m.set("transport.setup_calls", all_lin + o + levels);
    let layer = |name: &'static str| r0.layers[name];
    for (name, calls) in [
        ("transport.setup_s", all_lin + levels),
        ("transport.trajectory_s", o),
        ("transport.state_solve_s", all_lin + o),
        ("transport.adjoint_solve_s", all_lin),
        ("pfft.gradient_s", (nt + 1.0) * all_lin + 3.0 * levels),
        ("spectral.regularization_s", 2.0 * all_lin + o + h),
        ("transport.inc_state_s", h),
        ("transport.inc_adjoint_s", h),
        ("spectral.precondition_s", p),
        ("spectral.gaussian_smooth_s", 2.0 * levels),
        ("transport.displacement_s", levels),
    ] {
        out.budget.push(BudgetRow {
            layer: name,
            calls,
            per_call_s: layer(name),
        });
    }
    let covered: f64 = out.budget.iter().map(|r| r.calls * r.per_call_s).sum();
    m.set("budget.coverage", covered / wall);
    out.budget_wall_s = wall;

    // Table-I phase split: measured share of the wall next to the model's.
    let shape = SolveShape {
        nt: spec.nt,
        newton_iters: r0.newton_iters,
        matvecs: r0.matvecs,
    };
    let model = model_solve(&machine, spec.grid, spec.ranks, &shape);
    out.phases = [
        ("fft_exec", model.fft_exec),
        ("fft_comm", model.fft_comm),
        ("interp_exec", model.interp_exec),
        ("interp_comm", model.interp_comm),
    ]
    .into_iter()
    // The `Timers` keys are the model's phase names.
    .map(|(phase, modeled)| (phase, timer_max(phase) / wall, modeled / model.total()))
    .collect();

    // Nothing is served here; `serve_traced` overwrites these.
    for def in PER_LAYER.iter().filter(|d| d.name.starts_with("serve.")) {
        m.set(def.name, 0.0);
    }

    out.attempted = 1 + 2 * r0.traced_walls.len();
    out.failures = r0.failures.clone();
    out.digest = Some(r0.digest);
    out.reps = BTreeMap::from([("pairs", r0.traced_walls.len())]);
    out.spans = r0.spans.clone();
    out
}

// ---------------------------------------------------------------------------
// serve_batch
// ---------------------------------------------------------------------------

/// Runs campaigns until `seconds` are spent (at least `min`), checking each.
fn campaigns(
    b: &Batch,
    refs: &serve::References,
    opts: &RunOpts,
    min: usize,
) -> (Vec<serve::Campaign>, Vec<serve::Verdict>, Vec<String>) {
    let (mut done, mut verdicts, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    let mut spent = 0.0;
    while done.len() < min || spent < opts.seconds {
        let dir = opts.scratch.join(format!("campaign{}", done.len()));
        match serve::run_campaign(b, &dir) {
            Ok(c) => {
                let v = serve::verify(b, refs, &c, opts.corrupt_digest);
                failures.extend(
                    v.failures
                        .iter()
                        .map(|f| format!("campaign {}: {f}", done.len())),
                );
                spent += c.wall_s;
                verdicts.push(v);
                done.push(c);
            }
            Err(why) => {
                failures.push(format!("campaign {}: {why}", done.len()));
                break;
            }
        }
        if opts.smoke {
            break;
        }
    }
    // The schedule is a pure function of the batch: rounds must repeat.
    if done
        .windows(2)
        .any(|w| w[0].summary.rounds != w[1].summary.rounds)
    {
        failures.push("scheduler rounds differ between campaigns".to_string());
    }
    (done, verdicts, failures)
}

fn serve_untraced(opts: &RunOpts) -> Outcome {
    let b = batch(opts.seed, opts.smoke);
    let mut setup_s = Vec::new();
    // Twice the solve workloads' count: preparing a batch replays a two-rank
    // solve, the kind of work this host times worst, and there are only two
    // campaigns to add samples later.
    for k in 0..if opts.smoke { 0 } else { 2 * SETUP_FIRST } {
        let t0 = Instant::now();
        std::hint::black_box(b.prepare(&opts.scratch.join(format!("setup{k}"))));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let refs = serve::references(&b, 1);
    let (done, verdicts, failures) = campaigns(&b, &refs, opts, 2);
    // Every campaign set itself up too.
    setup_s.extend(done.iter().map(|c| c.prepare_s));
    let mut out = Outcome::default();
    let walls: Vec<f64> = done.iter().map(|c| c.wall_s).collect();
    // The campaign that finished first sets both numbers.
    let best = done.iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let completed = best.map_or(0, |c| c.summary.count(diffreg_serve::JobState::Completed));
    out.attempted = (b.jobs * done.len()).max(1);
    out.failures = failures;
    out.metrics.set("solve_s", fastest(&walls));
    out.metrics
        .set("jobs_per_s", completed as f64 / fastest(&walls));
    out.metrics.set("setup_s", fastest(&setup_s));
    out.metrics.set(
        "rel_mismatch",
        verdicts.first().map_or(f64::NAN, |v| v.rel_mismatch),
    );
    out.reps = BTreeMap::from([
        ("campaigns", done.len()),
        ("jobs", b.jobs),
        ("setup", setup_s.len()),
        (
            "rounds",
            done.first().map_or(0, |c| c.summary.rounds as usize),
        ),
    ]);
    out.samples.insert("solve_s", walls);
    out.samples.insert("setup_s", setup_s);
    out
}

fn serve_traced(opts: &RunOpts) -> Outcome {
    // Solver layers: one odd job's problem, traced and replayed outside the
    // pool. The serve counters below then overwrite its zeros.
    let mut out = solve_traced_run(&solve_spec("serve_batch", opts.seed, opts.smoke), opts);
    // A batch has one digest per job, each checked against its reference.
    out.digest = None;
    let b = batch(opts.seed, opts.smoke);
    let tracer = Tracer::new(true);
    // Pool utilization divides by the solo solve times: take the fastest of
    // a few, like every other timing.
    let solo_reps = if opts.smoke { 1 } else { 5 };
    let refs = tracer.span("references", || serve::references(&b, solo_reps));
    let (done, verdicts, failures) = tracer.span("campaign", || campaigns(&b, &refs, opts, 1));
    out.attempted += b.jobs * done.len();
    out.failures.extend(failures);
    out.spans.extend(tracer.spans());
    let (Some(c), Some(v)) = (done.last(), verdicts.last()) else {
        return out;
    };
    let m = &mut out.metrics.0;
    let h = &c.harness;
    m.insert("serve.rounds", c.summary.rounds as f64);
    m.insert("serve.attempts", h.counter("serve_attempts_total") as f64);
    let failed: u64 = ["kill", "timeout", "peer-gone", "other"]
        .iter()
        .map(|r| h.counter(&format!("serve_attempts_failed_total{{reason=\"{r}\"}}")))
        .sum();
    m.insert("serve.attempts_failed", failed as f64);
    m.insert(
        "serve.jobs_recovered",
        h.counter("serve_jobs_recovered_total") as f64,
    );
    m.insert(
        "serve.pool_utilization",
        v.rank_seconds / (POOL as f64 * c.wall_s),
    );
    m.insert(
        "serve.queue_wait_p50_s",
        serve::prom_value(h, "serve_queue_wait_seconds_p50"),
    );
    m.insert(
        "serve.job_e2e_p50_s",
        serve::prom_value(h, "serve_job_e2e_seconds_p50"),
    );
    out
}
