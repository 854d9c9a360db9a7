//! # diffreg-perfmodel
//!
//! The paper's analytic performance model (§III-C4) with machine parameters
//! for TACC's Maverick and Stampede, used by the benchmark harness to
//! project the scaling tables (Tables I-IV) to cluster scale.
//!
//! Per Hessian matvec the paper counts `8 nt` 3D FFTs and `4 nt`
//! interpolation sweeps, with
//!
//! ```text
//! T_flop ≈ nt ( 8 · 7.5 N³/p · log N  +  4 · 600 N³/p )
//! T_mpi  ≈ 8 nt ( 3 t_s √p + t_w 3N³/p )  +  4 nt ( t_s + t_w N²/p )
//! ```
//!
//! The flop rate and `t_s`/`t_w` are calibrated against the paper's own
//! table rows (see EXPERIMENTS.md); what matters for reproduction is the
//! *shape*: interpolation dominates at low task counts, FFT communication
//! dominates at high counts, and strong-scaling efficiency lands in the
//! 50-70% band the paper reports.

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

/// A machine model: effective per-task flop rate and network parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Human-readable system name.
    pub name: &'static str,
    /// Effective per-MPI-task flop rate in flop/s (memory-bound kernels, so
    /// far below peak; calibrated ≈1 GF/s for Maverick's Ivy Bridge cores).
    pub flop_rate: f64,
    /// Message latency in seconds.
    pub ts: f64,
    /// Transfer time per 8-byte word in seconds (reciprocal bandwidth).
    pub tw: f64,
    /// MPI tasks per node in the paper's runs.
    pub tasks_per_node: usize,
}

impl Machine {
    /// TACC Maverick (dual 10-core Ivy Bridge per node; paper uses 16
    /// tasks/node). Calibrated against Table I run #3.
    pub const MAVERICK: Machine =
        Machine { name: "Maverick", flop_rate: 1.0e9, ts: 1.0e-5, tw: 2.5e-8, tasks_per_node: 16 };

    /// TACC Stampede (dual 8-core Sandy Bridge; paper uses 2 tasks/node).
    /// Calibrated against Table II runs #14/#17: with 2 tasks per node the
    /// per-task effective rate of the memory-bound kernels is close to
    /// Maverick's per-core rate.
    pub const STAMPEDE: Machine =
        Machine { name: "Stampede", flop_rate: 1.0e9, ts: 1.5e-5, tw: 1.2e-8, tasks_per_node: 2 };

    /// Execution time of one distributed 3D FFT (`7.5 N³ log₂N / p` flops).
    pub fn fft_exec(&self, n: [usize; 3], p: usize) -> f64 {
        let total: f64 = n.iter().map(|&x| x as f64).product();
        let logn = total.log2() / 3.0;
        7.5 * total * logn.max(1.0) / p as f64 / self.flop_rate
    }

    /// Communication time of one distributed 3D FFT
    /// (`3 t_s √p + 3 t_w N³/p`, the two pencil transposes), with a linear
    /// network-contention factor: as p grows the alltoall messages shrink to
    /// `N³/p^{3/2}` words and effective bandwidth degrades, which is why the
    /// paper observes FFT communication dominating at high task counts.
    pub fn fft_comm(&self, n: [usize; 3], p: usize) -> f64 {
        let total: f64 = n.iter().map(|&x| x as f64).product();
        const CONTENTION_TASKS: f64 = 256.0;
        let tw_eff = self.tw * (1.0 + p as f64 / CONTENTION_TASKS);
        3.0 * self.ts * (p as f64).sqrt() + 3.0 * tw_eff * total / p as f64
    }

    /// Execution time of one interpolation sweep (`600 N³/p` flops — 64
    /// coefficients × ~10 flops per tricubic point).
    pub fn interp_exec(&self, n: [usize; 3], p: usize) -> f64 {
        let total: f64 = n.iter().map(|&x| x as f64).product();
        600.0 * total / p as f64 / self.flop_rate
    }

    /// Communication time of one interpolation sweep: ghost-plane exchange
    /// (`4(t_s + t_w g N²/p)` with ghost width 2) plus the scatter value
    /// exchange for the fraction `leak` of points owned by other ranks.
    pub fn interp_comm(&self, n: [usize; 3], p: usize, leak: f64) -> f64 {
        let total: f64 = n.iter().map(|&x| x as f64).product();
        let plane = total / n[2] as f64; // N² in the paper's isotropic notation
        4.0 * (self.ts + self.tw * 2.0 * plane / p as f64)
            + 2.0 * self.ts * (p as f64).sqrt().min(8.0)
            + self.tw * leak * total / p as f64
    }
}

/// The algorithmic shape of one registration solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveShape {
    /// Semi-Lagrangian time steps (paper: 4).
    pub nt: usize,
    /// Outer Newton iterations.
    pub newton_iters: usize,
    /// Total Hessian matvecs across the solve.
    pub matvecs: usize,
}

impl SolveShape {
    /// The configuration of the paper's synthetic scaling runs: nt = 4,
    /// two Newton iterations, ≈5 matvecs (gtol = 1e-2, quadratic forcing).
    pub const fn paper_scaling() -> Self {
        Self { nt: 4, newton_iters: 2, matvecs: 5 }
    }

    /// Number of 3D FFTs: `8 nt` per matvec (paper §III-C4) plus the
    /// gradient/objective transforms per Newton iteration.
    pub fn fft_count(&self) -> usize {
        self.matvecs * 8 * self.nt + self.newton_iters * 6 * self.nt
    }

    /// Number of interpolation sweeps: `4 nt` per matvec plus the
    /// state/adjoint solves and trajectory setup per Newton iteration.
    pub fn interp_sweeps(&self) -> usize {
        self.matvecs * 4 * self.nt + self.newton_iters * 3 * self.nt
    }
}

/// Modeled time-to-solution, split the way the paper's tables report it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// FFT communication seconds (transposes).
    pub fft_comm: f64,
    /// FFT execution seconds (1D transforms).
    pub fft_exec: f64,
    /// Interpolation communication seconds (ghost + scatter).
    pub interp_comm: f64,
    /// Interpolation execution seconds (kernel evaluation).
    pub interp_exec: f64,
    /// Everything else (pointwise algebra, reductions).
    pub other: f64,
}

impl Breakdown {
    /// Total modeled time to solution.
    pub fn total(&self) -> f64 {
        self.fft_comm + self.fft_exec + self.interp_comm + self.interp_exec + self.other
    }
}

/// Models a full solve of shape `shape` on grid `n` over `p` tasks.
pub fn model_solve(machine: &Machine, n: [usize; 3], p: usize, shape: &SolveShape) -> Breakdown {
    let ffts = shape.fft_count() as f64;
    let sweeps = shape.interp_sweeps() as f64;
    let fft_exec = ffts * machine.fft_exec(n, p);
    let fft_comm = if p > 1 { ffts * machine.fft_comm(n, p) } else { 0.0 };
    let interp_exec = sweeps * machine.interp_exec(n, p);
    let interp_comm = if p > 1 {
        sweeps * machine.interp_comm(n, p, 0.05)
    } else {
        // Serial runs still pay the local ghost assembly, counted as comm in
        // the paper's single-task rows (e.g. Table IV run #25).
        sweeps * machine.interp_comm(n, 1, 0.0) * 0.5
    };
    // Pointwise algebra: ~30 flops per grid point per sweep-equivalent.
    let other = (ffts + sweeps) * 30.0 * n.iter().map(|&x| x as f64).product::<f64>()
        / p as f64
        / machine.flop_rate;
    Breakdown { fft_comm, fft_exec, interp_comm, interp_exec, other }
}

/// Strong-scaling parallel efficiency `t_base p_base / (t p)`.
pub fn strong_efficiency(t_base: f64, p_base: usize, t: f64, p: usize) -> f64 {
    (t_base * p_base as f64) / (t * p as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maverick_matches_paper_table1_row3_within_2x() {
        // Paper run #3: 128³ on 16 tasks — time to solution 15.2 s,
        // FFT exec 1.35 s, interp exec 6.66 s.
        let m = Machine::MAVERICK;
        let b = model_solve(&m, [128, 128, 128], 16, &SolveShape::paper_scaling());
        assert!(b.fft_exec > 0.6 && b.fft_exec < 2.7, "fft_exec {}", b.fft_exec);
        assert!(b.interp_exec > 3.3 && b.interp_exec < 13.5, "interp_exec {}", b.interp_exec);
        assert!(b.total() > 7.0 && b.total() < 31.0, "total {}", b.total());
    }

    #[test]
    fn interpolation_dominates_at_low_task_counts() {
        let m = Machine::MAVERICK;
        let b = model_solve(&m, [256, 256, 256], 32, &SolveShape::paper_scaling());
        assert!(b.interp_exec > b.fft_exec, "paper: ~60% of time in interpolation");
        assert!(b.interp_exec > b.fft_comm);
    }

    #[test]
    fn fft_communication_dominates_at_high_task_counts() {
        // Paper: "as we increase the number of tasks, the majority of time
        // goes to the FFT communication phase".
        let m = Machine::MAVERICK;
        let b = model_solve(&m, [256, 256, 256], 1024, &SolveShape::paper_scaling());
        assert!(b.fft_comm > b.interp_exec, "fft_comm {} interp_exec {}", b.fft_comm, b.interp_exec);
    }

    #[test]
    fn strong_scaling_efficiency_in_paper_band() {
        // Paper 256³: 32→512 tasks 67% efficiency, 32→1024 50%.
        let m = Machine::MAVERICK;
        let shape = SolveShape::paper_scaling();
        let t32 = model_solve(&m, [256; 3], 32, &shape).total();
        let t512 = model_solve(&m, [256; 3], 512, &shape).total();
        let t1024 = model_solve(&m, [256; 3], 1024, &shape).total();
        let e512 = strong_efficiency(t32, 32, t512, 512);
        let e1024 = strong_efficiency(t32, 32, t1024, 1024);
        assert!(e512 > 0.4 && e512 < 0.95, "eff(512) = {e512}");
        assert!(e1024 > 0.3 && e1024 < 0.85, "eff(1024) = {e1024}");
        assert!(e1024 < e512, "efficiency must fall with task count");
    }

    #[test]
    fn weak_scaling_fft_exec_is_flat() {
        // Paper runs #3/#8/#13: FFT exec 1.35/1.56/1.77 s under 8x grid and
        // task growth — near-flat (the log N factor).
        let m = Machine::MAVERICK;
        let shape = SolveShape::paper_scaling();
        let a = model_solve(&m, [128; 3], 16, &shape).fft_exec;
        let b = model_solve(&m, [256; 3], 128, &shape).fft_exec;
        let c = model_solve(&m, [512; 3], 1024, &shape).fft_exec;
        assert!(b / a < 1.4 && c / b < 1.4, "fft exec not flat: {a} {b} {c}");
    }

    #[test]
    fn shape_counts_match_paper_complexity() {
        let s = SolveShape { nt: 4, newton_iters: 0, matvecs: 1 };
        assert_eq!(s.fft_count(), 32); // 8 nt per matvec
        assert_eq!(s.interp_sweeps(), 16); // 4 nt per matvec
    }

    #[test]
    fn efficiency_helpers() {
        assert!((strong_efficiency(10.0, 32, 5.0, 64) - 1.0).abs() < 1e-12);
        assert!((strong_efficiency(10.0, 32, 10.0, 64) - 0.5).abs() < 1e-12);
    }
}
