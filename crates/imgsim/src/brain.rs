//! Synthetic multi-subject brain phantoms — the NIREP substitute
//! (DESIGN.md substitution #4).
//!
//! The paper registers two 3D MRI brain images of different individuals
//! (NIREP na01/na02, 256 × 300 × 256). That data is not redistributable, so
//! we generate structurally analogous phantoms: an ellipsoidal "head" with a
//! bright cortical shell, darker white-matter interior, dark ventricles, and
//! smooth per-subject anatomical variation (bump positions, axes, fold
//! phases drawn from a seeded RNG). Two phantoms with different seeds play
//! the role of two subjects: same modality and topology, smooth large
//! deformation plus non-correspondences — the regime the brain experiment
//! exercises.

use diffreg_grid::{Block, Grid, ScalarField};
use diffreg_testkit::Rng;

/// Default seeds of the two-subject pair (the na01/na02 substitute).
///
/// These are *fixed by contract*: every rank of a distributed run (and every
/// run, on any machine) evaluates `BrainSubject::new` with the same seed, so
/// the anatomy parameters — and therefore the sampled phantom intensities —
/// are bit-identical everywhere. The seeded `testkit::Rng` (xoshiro256**,
/// pure integer arithmetic) guarantees the draw sequence is platform-
/// independent, unlike `rand::StdRng` whose stream is only stable per crate
/// version.
pub const SUBJECT_A_SEED: u64 = 1;
/// Seed of the second default subject; see [`SUBJECT_A_SEED`].
pub const SUBJECT_B_SEED: u64 = 2;

/// Smooth periodic squared distance between `x` and `c`, per axis weighted
/// by `inv_r²`. Uses `2 sin(Δ/2)` so the phantom is exactly 2π-periodic.
fn periodic_dist2(x: [f64; 3], c: [f64; 3], inv_r: [f64; 3]) -> f64 {
    let mut s = 0.0;
    for a in 0..3 {
        let d = 2.0 * ((x[a] - c[a]) * 0.5).sin() * inv_r[a];
        s += d * d;
    }
    s
}

/// A smooth compact blob with approximately unit height.
fn bump(x: [f64; 3], c: [f64; 3], r: [f64; 3]) -> f64 {
    let inv = [1.0 / r[0], 1.0 / r[1], 1.0 / r[2]];
    (-periodic_dist2(x, c, inv)).exp()
}

/// Anatomy parameters of one synthetic subject.
#[derive(Debug, Clone)]
pub struct BrainSubject {
    center: [f64; 3],
    head_r: [f64; 3],
    ventricle_offset: f64,
    ventricle_r: [f64; 3],
    fold_freq: [f64; 2],
    fold_phase: [f64; 2],
    fold_amp: f64,
    blobs: Vec<([f64; 3], [f64; 3], f64)>,
    intensity_scale: f64,
}

impl BrainSubject {
    /// Draws a subject's anatomy from a seed; different seeds play the role
    /// of different individuals (na01, na02, ...).
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let pi = std::f64::consts::PI;
        let jitter = |rng: &mut Rng, scale: f64| (rng.next_f64() - 0.5) * 2.0 * scale;
        let center = [pi + jitter(&mut rng, 0.15), pi + jitter(&mut rng, 0.15), pi + jitter(&mut rng, 0.15)];
        let head_r = [
            1.35 + jitter(&mut rng, 0.12),
            1.6 + jitter(&mut rng, 0.15),
            1.3 + jitter(&mut rng, 0.12),
        ];
        let n_blobs = 6;
        let mut blobs = Vec::with_capacity(n_blobs);
        for _ in 0..n_blobs {
            let c = [
                center[0] + jitter(&mut rng, 0.8),
                center[1] + jitter(&mut rng, 0.9),
                center[2] + jitter(&mut rng, 0.8),
            ];
            let r = [
                0.25 + rng.next_f64() * 0.3,
                0.25 + rng.next_f64() * 0.3,
                0.25 + rng.next_f64() * 0.3,
            ];
            let a = jitter(&mut rng, 0.12);
            blobs.push((c, r, a));
        }
        Self {
            center,
            head_r,
            ventricle_offset: 0.35 + jitter(&mut rng, 0.06),
            ventricle_r: [0.28 + jitter(&mut rng, 0.05), 0.5 + jitter(&mut rng, 0.08), 0.25 + jitter(&mut rng, 0.05)],
            fold_freq: [6.0 + jitter(&mut rng, 1.0).round(), 5.0 + jitter(&mut rng, 1.0).round()],
            fold_phase: [rng.next_f64() * 2.0 * pi, rng.next_f64() * 2.0 * pi],
            fold_amp: 0.08 + jitter(&mut rng, 0.02),
            blobs,
            intensity_scale: 1.0 + jitter(&mut rng, 0.05),
        }
    }

    /// Evaluates the phantom intensity (roughly in [0, 1]) at a point.
    pub fn intensity(&self, x: [f64; 3]) -> f64 {
        // Head mask: smooth ellipsoid with cortical folding of the boundary.
        let inv = [1.0 / self.head_r[0], 1.0 / self.head_r[1], 1.0 / self.head_r[2]];
        let d2 = periodic_dist2(x, self.center, inv);
        let theta = (x[1] - self.center[1]).atan2(x[0] - self.center[0]);
        let phi = (x[2] - self.center[2]).atan2(x[0] - self.center[0]);
        let fold = self.fold_amp
            * ((self.fold_freq[0] * theta + self.fold_phase[0]).sin()
                + (self.fold_freq[1] * phi + self.fold_phase[1]).cos());
        let r_eff = d2.sqrt() + fold;
        // Tissue model: bright shell (gray matter) at r≈1, dimmer interior
        // (white matter), background 0.
        let shell = (-(r_eff - 0.85_f64).powi(2) / 0.012).exp();
        let interior = 0.55 * smoothstep(0.9 - r_eff, 0.12);
        // Ventricles: two dark lobes beside the center.
        let mut vent = 0.0;
        for s in [-1.0, 1.0] {
            let c = [
                self.center[0] + s * self.ventricle_offset,
                self.center[1],
                self.center[2],
            ];
            vent += bump(x, c, self.ventricle_r);
        }
        // Per-subject smooth intensity blobs (anatomical variability).
        let mut var = 0.0;
        for (c, r, a) in &self.blobs {
            var += a * bump(x, *c, *r);
        }
        let raw = (0.9 * shell + interior - 0.5 * vent + var) * self.intensity_scale;
        raw.clamp(0.0, 1.2)
    }

    /// Builds the phantom on a rank's block.
    pub fn image(&self, grid: &Grid, block: Block) -> ScalarField {
        ScalarField::from_fn(grid, block, |x| self.intensity(x))
    }
}

/// Smooth 0→1 transition of width `w` around `t = 0`.
fn smoothstep(t: f64, w: f64) -> f64 {
    let s = (t / w).clamp(-1.0, 1.0);
    0.25 * (s + 1.0) * (s + 1.0) * (2.0 - s) * 0.5 * 2.0
}

/// Convenience: the two-subject problem of the paper's brain experiment
/// (the na01/na02 substitute). Returns (reference, template).
pub fn two_subject_pair(grid: &Grid, block: Block) -> (ScalarField, ScalarField) {
    let s1 = BrainSubject::new(SUBJECT_A_SEED);
    let s2 = BrainSubject::new(SUBJECT_B_SEED);
    (s1.image(grid, block), s2.image(grid, block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_grid::Decomp;

    #[test]
    fn phantom_is_deterministic_per_seed() {
        let a = BrainSubject::new(7);
        let b = BrainSubject::new(7);
        let c = BrainSubject::new(8);
        let x = [3.0, 3.1, 2.9];
        assert_eq!(a.intensity(x), b.intensity(x));
        assert_ne!(a.intensity(x), c.intensity(x));
    }

    #[test]
    fn phantom_has_contrast_and_bounded_range() {
        let grid = Grid::cubic(24);
        let d = Decomp::new(grid, 1);
        let s = BrainSubject::new(1);
        let img = s.image(&grid, d.block(0));
        let max = img.data().iter().cloned().fold(f64::MIN, f64::max);
        let min = img.data().iter().cloned().fold(f64::MAX, f64::min);
        assert!(max <= 1.2 && min >= 0.0, "range [{min}, {max}]");
        assert!(max - min > 0.5, "phantom lacks contrast: [{min}, {max}]");
        // Background (domain corner, far from the head) is dark.
        let corner = img.data()[0];
        assert!(corner < 0.2, "corner not background: {corner}");
    }

    #[test]
    fn subjects_differ_but_share_structure() {
        let grid = Grid::cubic(16);
        let d = Decomp::new(grid, 1);
        let (r, t) = two_subject_pair(&grid, d.block(0));
        let diff: f64 =
            r.data().iter().zip(t.data()).map(|(a, b)| (a - b).abs()).sum::<f64>() / r.local_len() as f64;
        assert!(diff > 0.01, "subjects identical");
        // Correlation should still be high (same anatomy class).
        let mean_r: f64 = r.data().iter().sum::<f64>() / r.local_len() as f64;
        let mean_t: f64 = t.data().iter().sum::<f64>() / t.local_len() as f64;
        let mut cov = 0.0;
        let mut var_r = 0.0;
        let mut var_t = 0.0;
        for (a, b) in r.data().iter().zip(t.data()) {
            cov += (a - mean_r) * (b - mean_t);
            var_r += (a - mean_r).powi(2);
            var_t += (b - mean_t).powi(2);
        }
        let corr = cov / (var_r.sqrt() * var_t.sqrt());
        assert!(corr > 0.5, "subjects uncorrelated: {corr}");
    }
}
