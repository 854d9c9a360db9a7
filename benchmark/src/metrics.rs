//! The metric and workload tables: the single source `BENCHMARK.json` is
//! generated from (`--emit-manifest`) and that every run is checked against.

use std::collections::BTreeMap;

use diffreg_telemetry::Json;

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// One measured value: name → (value, unit) in emission order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let prev = self.0.insert(name, value);
        assert!(prev.is_none(), "metric {name} emitted twice");
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Definition of one metric. `bound` is `Some` for end-to-end metrics only.
/// `exact` marks values that must repeat bit for bit at equal seed.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

/// A count that must repeat exactly at equal seed.
const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

/// What a user of the system sees. Every workload reports every one of them
/// and none is ever 0 (README.md says what each means on each workload).
pub const END_TO_END: &[MetricDef] = &[
    e2e("solve_s", "s", Better::Lower, 0.25, false),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("rel_mismatch", "ratio", Better::Lower, 0.01, true),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10, false),
];

/// Single layers, measured from outside (traced run).
pub const PER_LAYER: &[MetricDef] = &[
    lo("fft.lines_s", "s"),
    count("fft.flops_computed", "flop"),
    count("pfft.fft3d_calls", "count"),
    lo("pfft.exec_s", "s"),
    lo("pfft.comm_s", "s"),
    lo("pfft.forward_s", "s"),
    lo("pfft.inverse_s", "s"),
    lo("pfft.gradient_s", "s"),
    lo("pfft.plan_build_s", "s"),
    lo("spectral.regularization_s", "s"),
    lo("spectral.precondition_s", "s"),
    lo("spectral.gaussian_smooth_s", "s"),
    lo("grid.ghost_exchange_s", "s"),
    count("grid.ghost_bytes_computed", "B"),
    lo("interp.plan_build_s", "s"),
    lo("interp.eval_s", "s"),
    count("interp.points_routed", "count"),
    count("interp.points_evaluated", "count"),
    lo("interp.exec_s", "s"),
    lo("interp.comm_s", "s"),
    count("interp.off_rank_fraction", "ratio"),
    hi("interp.mpts_per_s", "Mpt/s"),
    lo("transport.setup_s", "s"),
    count("transport.setup_calls", "count"),
    lo("transport.trajectory_s", "s"),
    lo("transport.state_solve_s", "s"),
    lo("transport.adjoint_solve_s", "s"),
    lo("transport.inc_state_s", "s"),
    lo("transport.inc_adjoint_s", "s"),
    lo("transport.displacement_s", "s"),
    count("core.linearize_calls", "count"),
    lo("core.linearize_s", "s"),
    count("core.objective_calls", "count"),
    lo("core.objective_s", "s"),
    count("core.hessian_vec_calls", "count"),
    lo("core.hessian_vec_s", "s"),
    count("core.precondition_calls", "count"),
    lo("core.precondition_s", "s"),
    lo("core.postprocess_s", "s"),
    count("core.checkpoint_bytes", "B"),
    lo("core.checkpoint_save_s", "s"),
    lo("core.checkpoint_load_s", "s"),
    count("optim.newton_iters", "count"),
    count("optim.pcg_iters", "count"),
    count("optim.linesearch_trials", "count"),
    count("optim.matvecs_per_newton", "ratio"),
    lo("optim.self_s", "s"),
    count("comm.msgs_sent_max", "count"),
    count("comm.bytes_sent_max", "B"),
    count("comm.bytes_sent_total", "B"),
    lo("comm.blocked_s_max", "s"),
    count("comm.modeled_s", "s"),
    count("serve.rounds", "count"),
    count("serve.attempts", "count"),
    count("serve.attempts_failed", "count"),
    MetricDef {
        name: "serve.jobs_recovered",
        unit: "count",
        better: Better::Higher,
        bound: None,
        exact: true,
    },
    hi("serve.pool_utilization", "ratio"),
    lo("serve.queue_wait_p50_s", "s"),
    lo("serve.job_e2e_p50_s", "s"),
    lo("imgsim.images_s", "s"),
    lo("trace.overhead_frac", "ratio"),
    hi("budget.coverage", "ratio"),
];

/// The workloads, in run order, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "synth32",
        "paper Table I problem at 32^3, 1 rank: ~5 matvecs per Newton step, so per-velocity setup is a large share; fits L2",
    ),
    (
        "brain_aniso",
        "brain phantoms on 24x30x24 (radices 2,3,5), beta continuation: ~26 matvecs per Newton step, plan evaluation dominates",
    ),
    (
        "synth64_p2",
        "synthetic 64^3 on 2 ranks: the only solve where comm, transposes and ghost exchange do work; fields fall out of L2",
    ),
    (
        "serve_batch",
        "48-job closed batch on a 2-rank pool with planned kills: scheduler, Comm::split gangs and checkpoint I/O do work",
    ),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let row = Json::obj().set("name", *name).set("why", *why);
        s.push_str(&format!("    {row}{sep}\n"));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
