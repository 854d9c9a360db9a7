//! Seeded property tests of the FFT stack (via `testkit::prop_check!`): the
//! algebraic identities that must hold for every transform length, including
//! primes (Bluestein) and mixed composites, plus analytic plane-wave oracles.

use diffreg_fft::{
    dft_forward, dft_inverse, is_smooth, transform_lines, Complex64, Direction, Fft1d,
};
use diffreg_testkit::{prop_check, Rng};

fn random_signal(rng: &mut Rng, max_len: usize) -> Vec<Complex64> {
    let n = rng.len_scaled(1, max_len);
    (0..n).map(|_| Complex64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
}

fn random_batch(rng: &mut Rng, n: usize, batch: usize) -> Vec<Complex64> {
    (0..n * batch).map(|_| Complex64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
}

/// Out-of-place forward transform of one line through the one entry point.
fn forward(plan: &Fft1d, x: &[Complex64]) -> Vec<Complex64> {
    let mut out = vec![Complex64::ZERO; x.len()];
    plan.batch(Some(x), &mut out, &mut vec![Complex64::ZERO; x.len()], 1, Direction::Forward);
    out
}

/// The batched kernel (and the Bluestein fallback behind the same entry
/// point) against the O(n²) oracle: every smooth length up to 64, the
/// larger 2·3·5·13 composites, two Bluestein primes; batch 1, 2 and 17;
/// both directions; in place and out of place.
#[test]
fn batched_kernel_matches_naive_dft() {
    let mut rng = Rng::new(0x5eed);
    let lengths = (1..=64).filter(|&n| is_smooth(n)).chain([75, 100, 128, 150, 169, 300, 17, 97]);
    for n in lengths {
        let plan = Fft1d::new(n);
        for batch in [1usize, 2, 17] {
            let x = random_batch(&mut rng, n, batch);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut got = x.clone();
                let mut scratch = vec![Complex64::ZERO; n * batch];
                plan.batch(None, &mut got, &mut scratch, batch, dir);
                let mut oop = vec![Complex64::ZERO; n * batch];
                plan.batch(Some(&x), &mut oop, &mut scratch, batch, dir);
                assert_eq!(got, oop, "n={n} batch={batch} {dir:?}: in place != out of place");
                for b in 0..batch {
                    let line: Vec<Complex64> = (0..n).map(|i| x[i * batch + b]).collect();
                    let want = match dir {
                        Direction::Forward => dft_forward(&line),
                        Direction::Inverse => {
                            dft_inverse(&line).iter().map(|z| z.scale(1.0 / n as f64)).collect()
                        }
                    };
                    for (i, w) in want.iter().enumerate() {
                        let g = got[i * batch + b];
                        assert!((g - *w).abs() < 1e-11 * n as f64, "n={n} batch={batch} {dir:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn batched_roundtrip_is_identity() {
    prop_check!(|rng| {
        let (n, batch) = (rng.len_scaled(1, 96), 1 + rng.index(20));
        let x = random_batch(rng, n, batch);
        let plan = Fft1d::new(n);
        let mut buf = x.clone();
        let mut scratch = vec![Complex64::ZERO; n * batch];
        plan.batch(None, &mut buf, &mut scratch, batch, Direction::Forward);
        plan.batch(None, &mut buf, &mut scratch, batch, Direction::Inverse);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-12 * (n as f64), "n={n} batch={batch}: {a:?} vs {b:?}");
        }
    });
}

#[test]
fn forward_matches_naive_dft() {
    prop_check!(|rng| {
        let x = random_signal(rng, 48);
        let n = x.len();
        let out = forward(&Fft1d::new(n), &x);
        for (a, b) in out.iter().zip(&dft_forward(&x)) {
            assert!((*a - *b).abs() < 1e-8 * (n as f64));
        }
    });
}

/// Tiling contiguous lines through the batched kernel changes no bit of
/// any line: lanes of a batch never mix.
#[test]
fn transform_lines_equals_line_by_line_bitwise() {
    let mut rng = Rng::new(7);
    for (n, lines) in [(32usize, 37usize), (30, 16), (75, 5), (17, 3)] {
        let plan = Fft1d::new(n);
        let x = random_batch(&mut rng, n, lines);
        let mut tiled = x.clone();
        transform_lines(&plan, &mut tiled, Direction::Forward);
        let mut single = x.clone();
        let mut scratch = Vec::new();
        for line in single.chunks_exact_mut(n) {
            plan.forward(line, &mut scratch);
        }
        assert_eq!(tiled, single, "n={n}");
    }
}

#[test]
fn linearity() {
    prop_check!(|rng| {
        let x = random_signal(rng, 64);
        let alpha = rng.uniform(-3.0, 3.0);
        let n = x.len();
        let plan = Fft1d::new(n);
        // FFT(alpha x) == alpha FFT(x)
        let fx = forward(&plan, &x);
        let scaled: Vec<Complex64> = x.iter().map(|z| z.scale(alpha)).collect();
        let fsx = forward(&plan, &scaled);
        for (a, b) in fsx.iter().zip(&fx) {
            assert!((*a - b.scale(alpha)).abs() < 1e-8 * n as f64);
        }
    });
}

#[test]
fn parseval_energy_is_preserved() {
    prop_check!(|rng| {
        let x = random_signal(rng, 64);
        let n = x.len();
        let plan = Fft1d::new(n);
        let fx = forward(&plan, &x);
        let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = fx.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-8 * (1.0 + e_time) * n as f64);
    });
}

#[test]
fn circular_shift_theorem() {
    prop_check!(cases = 48, |rng| {
        let x = random_signal(rng, 48);
        let n = x.len();
        let shift = rng.index(n);
        let plan = Fft1d::new(n);
        let fx = forward(&plan, &x);
        // y[j] = x[(j - shift) mod n]  =>  Y[k] = X[k] * exp(-2πi k shift / n)
        let y: Vec<Complex64> = (0..n).map(|j| x[(j + n - shift) % n]).collect();
        let fy = forward(&plan, &y);
        let w = -std::f64::consts::TAU * shift as f64 / n as f64;
        for (k, (a, b)) in fy.iter().zip(&fx).enumerate() {
            let phase = Complex64::cis(w * k as f64);
            assert!((*a - *b * phase).abs() < 1e-8 * n as f64);
        }
    });
}

#[test]
fn real_input_has_hermitian_spectrum() {
    prop_check!(|rng| {
        let n = rng.len_scaled(2, 64);
        let x: Vec<Complex64> =
            (0..n).map(|_| Complex64::from_real(rng.uniform(-1.0, 1.0))).collect();
        let plan = Fft1d::new(n);
        let fx = forward(&plan, &x);
        for k in 1..n {
            let conj = fx[n - k].conj();
            assert!((fx[k] - conj).abs() < 1e-8 * n as f64, "bin {k}");
        }
    });
}

/// Edge lengths that exercise every code path of the plan selector: N=1 and
/// N=2 (trivial), primes 17 and 97 (Bluestein), a prime square 49, and the
/// highly composite 60 and 96 (mixed radix). Round-trip and Parseval must
/// hold for each, on seeded random signals.
#[test]
fn edge_lengths_roundtrip_and_parseval() {
    for n in [1usize, 2, 17, 49, 60, 96, 97] {
        prop_check!(cases = 12, |rng| {
            let x: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
                .collect();
            let plan = Fft1d::new(n);
            let fx = forward(&plan, &x);
            // Parseval at this exact length.
            let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let e_freq: f64 = fx.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!(
                (e_time - e_freq).abs() < 1e-8 * (1.0 + e_time) * n as f64,
                "Parseval broke at N={n}"
            );
            // Round trip at this exact length.
            let mut buf = x.clone();
            let mut scratch = Vec::new();
            plan.forward(&mut buf, &mut scratch);
            plan.inverse(&mut buf, &mut scratch);
            for (a, b) in buf.iter().zip(&x) {
                assert!((*a - *b).abs() < 1e-9 * (1 + n) as f64, "roundtrip broke at N={n}");
            }
            // And against the O(N²) DFT oracle.
            let naive = dft_forward(&x);
            for (a, b) in fx.iter().zip(&naive) {
                assert!((*a - *b).abs() < 1e-8 * (1 + n) as f64, "DFT mismatch at N={n}");
            }
        });
    }
}

/// Analytic oracle: the DFT of a pure complex exponential
/// `x_j = exp(2πi k j / N)` is exactly `N·δ(bin − k)`.
#[test]
fn complex_exponential_hits_single_bin() {
    prop_check!(cases = 32, |rng| {
        let n = rng.len_scaled(4, 80);
        let k = rng.index(n);
        let w = std::f64::consts::TAU * k as f64 / n as f64;
        let x: Vec<Complex64> = (0..n).map(|j| Complex64::cis(w * j as f64)).collect();
        let plan = Fft1d::new(n);
        let fx = forward(&plan, &x);
        for (bin, v) in fx.iter().enumerate() {
            let expect = if bin == k { Complex64::from_real(n as f64) } else { Complex64::ZERO };
            assert!(
                (*v - expect).abs() < 1e-8 * n as f64,
                "N={n} k={k}: bin {bin} = {v:?}, expected {expect:?}"
            );
        }
    });
}
