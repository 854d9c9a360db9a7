//! Mixed-radix Stockham autosort FFT over a batch of interleaved lines.
//!
//! A plan factors `n` into stages (radix 4 first, then 2, 3, 5, then any
//! odd prime up to [`MAX_RADIX`]). With `ncur = r * m` the length still to
//! transform and `L` the product of the batch size and the radices already
//! consumed, one decimation-in-frequency stage is
//!
//! ```text
//! y[(r p + k) L + t] = w_ncur^(p k) * sum_j w_r^(j k) x[(p + m j) L + t]
//! ```
//!
//! for `p < m`, `k < r`, `t < L`. The unit-stride index `t` is innermost,
//! so the twiddles are constants of the inner loop and every load and
//! store is contiguous; the output of the last stage is in natural order
//! (no bit reversal). Stages alternate between two buffers; the last one
//! has `m = 1`, reads and writes the same index set, and can therefore run
//! in place, so the result always lands in the caller's array. The inverse
//! uses conjugated twiddles and folds `1/n` into the last stage's store.

use crate::complex::Complex64;
use crate::factor::{factorize, MAX_RADIX};

const SIN_60: f64 = 0.866_025_403_784_438_6;
const COS_72: f64 = 0.309_016_994_374_947_45;
const SIN_72: f64 = 0.951_056_516_295_153_5;
const COS_144: f64 = -0.809_016_994_374_947_5;
const SIN_144: f64 = 0.587_785_252_292_473_1;

#[derive(Debug, Clone)]
struct Stage {
    r: usize,
    m: usize,
    /// `w_ncur^(p k)` at `p * (r - 1) + k - 1`, the order the stage reads them.
    tw: Vec<Complex64>,
    /// `w_r^j` for `j < r`; only the generic odd radix reads it.
    roots: Vec<Complex64>,
}

/// A plan for batched forward/inverse FFTs of one fixed smooth size.
#[derive(Debug, Clone)]
pub struct MixedRadixPlan {
    n: usize,
    stages: Vec<Stage>,
}

impl MixedRadixPlan {
    /// Plans a transform of length `n`. Panics if `n` has a prime factor
    /// larger than [`MAX_RADIX`]; such sizes must go through Bluestein.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        let primes = factorize(n);
        assert!(
            primes.iter().all(|&p| p <= MAX_RADIX),
            "size {n} is not smooth; use the Bluestein plan"
        );
        let twos = primes.iter().filter(|&&p| p == 2).count();
        let radices = std::iter::repeat_n(4, twos / 2)
            .chain(std::iter::repeat_n(2, twos % 2))
            .chain(primes.into_iter().filter(|&p| p > 2));
        let mut ncur = n;
        let stages = radices
            .map(|r| {
                let m = ncur / r;
                let w = -std::f64::consts::TAU / ncur as f64;
                let tw = (0..m)
                    .flat_map(|p| (1..r).map(move |k| Complex64::cis(w * (p * k) as f64)))
                    .collect();
                let wr = -std::f64::consts::TAU / r as f64;
                let roots = (0..if r > 5 { r } else { 0 })
                    .map(|j| Complex64::cis(wr * j as f64))
                    .collect();
                ncur = m;
                Stage { r, m, tw, roots }
            })
            .collect();
        Self { n, stages }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the trivial length-0 transform (never true).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transforms `batch` interleaved lines: element `i` of line `b` is at
    /// `i * batch + b`. The lines are read from `src` when given, else from
    /// `data`; the result is written to `data`. `scratch` has the length of
    /// `data`. `inverse` selects the conjugate transform scaled by `1/n`.
    pub fn run(
        &self,
        src: Option<&[Complex64]>,
        data: &mut [Complex64],
        scratch: &mut [Complex64],
        batch: usize,
        inverse: bool,
    ) {
        assert_eq!(data.len(), self.n * batch);
        assert_eq!(scratch.len(), data.len());
        let scale = 1.0 / self.n as f64;
        let mut l = batch;
        let mut stages = &self.stages[..];
        if let Some(src) = src {
            assert_eq!(src.len(), data.len());
            let Some((first, rest)) = stages.split_first() else {
                data.copy_from_slice(src);
                return;
            };
            first.apply(Some(src), data, l, inverse, scale);
            l *= first.r;
            stages = rest;
        }
        let mut in_data = true;
        for (i, stage) in stages.iter().enumerate() {
            if in_data && i + 1 == stages.len() {
                stage.apply(None, data, l, inverse, scale);
            } else if in_data {
                stage.apply(Some(data), scratch, l, inverse, scale);
                in_data = false;
            } else {
                stage.apply(Some(scratch), data, l, inverse, scale);
                in_data = true;
            }
            l *= stage.r;
        }
        debug_assert!(in_data);
    }
}

impl Stage {
    /// One stage from `x` (or in place when `x` is `None`, which needs
    /// `m == 1`) to `y`; `scale` is applied when this is the last stage of
    /// an inverse transform.
    fn apply(&self, x: Option<&[Complex64]>, y: &mut [Complex64], l: usize, inv: bool, scale: f64) {
        let (m, tw) = (self.m, &self.tw[..]);
        match (self.r, inv) {
            (2, false) => pass::<2, false>(bf2, x, y, m, l, tw, scale),
            (2, true) => pass::<2, true>(bf2, x, y, m, l, tw, scale),
            (3, false) => pass::<3, false>(bf3, x, y, m, l, tw, scale),
            (3, true) => pass::<3, true>(bf3, x, y, m, l, tw, scale),
            (4, false) => pass::<4, false>(bf4, x, y, m, l, tw, scale),
            (4, true) => pass::<4, true>(bf4, x, y, m, l, tw, scale),
            (5, false) => pass::<5, false>(bf5, x, y, m, l, tw, scale),
            (5, true) => pass::<5, true>(bf5, x, y, m, l, tw, scale),
            _ => self.pass_generic(x, y, l, inv, scale),
        }
    }

    /// Odd radix up to [`MAX_RADIX`] as an `O(r^2)` DFT per butterfly.
    fn pass_generic(
        &self,
        x: Option<&[Complex64]>,
        y: &mut [Complex64],
        l: usize,
        inv: bool,
        scale: f64,
    ) {
        let (r, m) = (self.r, self.m);
        let mut a = [Complex64::ZERO; MAX_RADIX];
        for p in 0..m {
            for t in 0..l {
                for (j, aj) in a[..r].iter_mut().enumerate() {
                    let i = (p + m * j) * l + t;
                    *aj = match x {
                        Some(x) => x[i],
                        None => y[i],
                    };
                }
                for k in 0..r {
                    let (mut acc, mut idx) = (a[0], 0);
                    for &aj in &a[1..r] {
                        idx += k;
                        if idx >= r {
                            idx -= r;
                        }
                        let w = self.roots[idx];
                        acc = acc.mul_add(aj, if inv { w.conj() } else { w });
                    }
                    if k > 0 && p > 0 {
                        let w = self.tw[p * (r - 1) + k - 1];
                        acc *= if inv { w.conj() } else { w };
                    }
                    if inv && m == 1 {
                        acc = acc.scale(scale);
                    }
                    y[(r * p + k) * l + t] = acc;
                }
            }
        }
    }
}

/// Splits the first `R * l` elements of `y` into `R` rows of length `l`.
#[inline(always)]
fn split_rows<const R: usize>(y: &mut [Complex64], l: usize) -> [&mut [Complex64]; R] {
    let mut rest = y;
    std::array::from_fn(|_| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(l);
        rest = tail;
        head
    })
}

/// `y[k][t] = f(x[0][t], .., x[R-1][t])[k]` for every `t`; with `x` absent
/// the inputs are read from `y` itself.
#[inline(always)]
fn rows<const R: usize>(
    x: Option<[&[Complex64]; R]>,
    y: [&mut [Complex64]; R],
    f: impl Fn([Complex64; R]) -> [Complex64; R],
) {
    let l = y[0].len();
    for t in 0..l {
        let b = f(std::array::from_fn(|j| match x {
            Some(x) => x[j][t],
            None => y[j][t],
        }));
        for k in 0..R {
            y[k][t] = b[k];
        }
    }
}

/// One radix-`R` stage with the hard-coded forward butterfly `bf`. The
/// inverse butterfly is the forward one with outputs `k` and `R - k`
/// swapped.
#[inline(always)]
fn pass<const R: usize, const INV: bool>(
    bf: impl Fn([Complex64; R]) -> [Complex64; R],
    x: Option<&[Complex64]>,
    y: &mut [Complex64],
    m: usize,
    l: usize,
    tw: &[Complex64],
    scale: f64,
) {
    let bf = |a| {
        let mut b = bf(a);
        if INV {
            b[1..].reverse();
        }
        b
    };
    let last = |a| bf(a).map(|z: Complex64| z.scale(scale));
    let Some(x) = x else {
        debug_assert_eq!(m, 1);
        let y = split_rows(y, l);
        return if INV { rows(None, y, last) } else { rows(None, y, bf) };
    };
    for (p, yp) in y.chunks_exact_mut(R * l).enumerate() {
        let xs: [&[Complex64]; R] = std::array::from_fn(|j| &x[(p + m * j) * l..][..l]);
        let ys = split_rows(yp, l);
        if p > 0 {
            let w: [Complex64; R] = std::array::from_fn(|k| match k {
                0 => Complex64::ONE,
                _ if INV => tw[p * (R - 1) + k - 1].conj(),
                _ => tw[p * (R - 1) + k - 1],
            });
            rows(Some(xs), ys, |a| {
                let b = bf(a);
                std::array::from_fn(|k| if k == 0 { b[0] } else { b[k] * w[k] })
            });
        } else if INV && m == 1 {
            rows(Some(xs), ys, last);
        } else {
            rows(Some(xs), ys, bf);
        }
    }
}

#[inline(always)]
fn bf2(a: [Complex64; 2]) -> [Complex64; 2] {
    [a[0] + a[1], a[0] - a[1]]
}

#[inline(always)]
fn bf3(a: [Complex64; 3]) -> [Complex64; 3] {
    let (s, d) = (a[1] + a[2], a[1] - a[2]);
    let c = Complex64::new(a[0].re - 0.5 * s.re, a[0].im - 0.5 * s.im);
    let e = Complex64::new(SIN_60 * d.im, -SIN_60 * d.re);
    [a[0] + s, c + e, c - e]
}

#[inline(always)]
fn bf4(a: [Complex64; 4]) -> [Complex64; 4] {
    let (t0, t1) = (a[0] + a[2], a[0] - a[2]);
    let (t2, d) = (a[1] + a[3], a[1] - a[3]);
    let t3 = Complex64::new(d.im, -d.re);
    [t0 + t2, t1 + t3, t0 - t2, t1 - t3]
}

#[inline(always)]
fn bf5(a: [Complex64; 5]) -> [Complex64; 5] {
    let (s1, d1) = (a[1] + a[4], a[1] - a[4]);
    let (s2, d2) = (a[2] + a[3], a[2] - a[3]);
    let c1 = a[0] + s1.scale(COS_72) + s2.scale(COS_144);
    let c2 = a[0] + s1.scale(COS_144) + s2.scale(COS_72);
    let e1 = d1.scale(SIN_72) + d2.scale(SIN_144);
    let e2 = d1.scale(SIN_144) - d2.scale(SIN_72);
    // -i * e
    let (e1, e2) = (Complex64::new(e1.im, -e1.re), Complex64::new(e2.im, -e2.re));
    [a[0] + s1 + s2, c1 + e1, c2 + e2, c2 - e2, c1 - e1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_radix_4_then_2_3_5_then_odd_primes() {
        let radices = |n| MixedRadixPlan::new(n).stages.iter().map(|s| s.r).collect::<Vec<_>>();
        assert_eq!(radices(1), Vec::<usize>::new());
        assert_eq!(radices(32), [4, 4, 2]);
        assert_eq!(radices(300), [4, 3, 5, 5]);
        assert_eq!(radices(2 * 7 * 13), [2, 7, 13]);
    }

    #[test]
    #[should_panic]
    fn rejects_large_prime() {
        MixedRadixPlan::new(34); // 2 * 17
    }
}
