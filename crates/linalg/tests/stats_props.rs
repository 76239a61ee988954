//! Selection-based order statistics must be **bitwise** the sort-based
//! ones: `quantile`, `median`, `mad` and `median_mad` are checked
//! against a stable-sort reference kept here, over samples with heavy
//! duplicates, signed zeros and infinities, at every length 1..=257.
//!
//! The reference keeps the documented NaN contract (a panic at every
//! length), so a sample whose MAD meets `∞ − ∞` must panic on both
//! sides; every other outcome must agree to the bit.

use edm_linalg::stats::{mad, median, median_mad, quantile};
use proptest::prelude::*;
use proptest::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn ref_quantile(sample: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1], got {q}");
    if sample.is_empty() {
        return None;
    }
    assert!(!sample.iter().any(|v| v.is_nan()), "NaN in quantile input");
    let mut s = sample.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(s[lo] + frac * (s[hi] - s[lo]))
}

fn ref_median(sample: &[f64]) -> Option<f64> {
    ref_quantile(sample, 0.5)
}

fn ref_mad(sample: &[f64]) -> Option<f64> {
    let med = ref_median(sample)?;
    let deviations: Vec<f64> = sample.iter().map(|x| (x - med).abs()).collect();
    ref_median(&deviations).map(|m| 1.4826 * m)
}

/// Bit patterns of an outcome; `Err` when the call panicked.
fn outcome<F: FnOnce() -> Option<Vec<f64>>>(f: F) -> Result<Option<Vec<u64>>, ()> {
    catch_unwind(AssertUnwindSafe(f))
        .map(|r| r.map(|v| v.iter().map(|x| x.to_bits()).collect()))
        .map_err(|_| ())
}

fn check(sample: &[f64], q: f64) {
    let pairs: [(Result<_, _>, Result<_, _>, &str); 4] = [
        (
            outcome(|| quantile(sample, q).map(|v| vec![v])),
            outcome(|| ref_quantile(sample, q).map(|v| vec![v])),
            "quantile",
        ),
        (
            outcome(|| median(sample).map(|v| vec![v])),
            outcome(|| ref_median(sample).map(|v| vec![v])),
            "median",
        ),
        (
            outcome(|| mad(sample).map(|v| vec![v])),
            outcome(|| ref_mad(sample).map(|v| vec![v])),
            "mad",
        ),
        (
            outcome(|| median_mad(sample).map(|(m, d)| vec![m, d])),
            outcome(|| {
                let m = ref_median(sample)?;
                Some(vec![m, ref_mad(sample)?])
            }),
            "median_mad",
        ),
    ];
    for (got, want, name) in pairs {
        assert_eq!(got, want, "{name} differs at q = {q} on {sample:?}");
    }
}

/// Samples of length 1..=257 in one of three shapes: spread finite
/// values, heavy duplicates from a tiny pool (signed zeros included),
/// or finite values salted with `±0.0` and `±∞`.
struct Sample;

impl Strategy for Sample {
    type Value = Vec<f64>;

    fn generate(&self, rng: &mut TestRng) -> Vec<f64> {
        let len = 1 + rng.below(257) as usize;
        let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        match rng.below(3) {
            0 => (0..len).map(|_| rng.unit_f64() * 2e3 - 1e3).collect(),
            1 => {
                let pool: Vec<f64> = (0..1 + rng.below(4))
                    .map(|i| if i < 2 { special[i as usize] } else { rng.below(5) as f64 - 2.0 })
                    .collect();
                (0..len).map(|_| pool[rng.below(pool.len() as u64) as usize]).collect()
            }
            _ => (0..len)
                .map(|_| {
                    if rng.below(4) == 0 {
                        special[rng.below(4) as usize]
                    } else {
                        rng.unit_f64() * 20.0 - 10.0
                    }
                })
                .collect(),
        }
    }
}

/// The paper's levels (`0`, median, the 0.999 outlier threshold, `1`)
/// or an arbitrary one.
struct Level;

impl Strategy for Level {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        match rng.below(5) {
            0 => 0.0,
            1 => 0.5,
            2 => 0.999,
            3 => 1.0,
            _ => rng.unit_f64(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn selection_matches_stable_sort_bitwise(sample in Sample, q in Level) {
        check(&sample, q);
    }
}

#[test]
fn every_length_with_duplicates_and_signed_zeros() {
    for len in 1..=257usize {
        // Three values, the zeros of both signs twice as often.
        let sample: Vec<f64> = (0..len)
            .map(|i| match (i * 7 + len) % 5 {
                0 | 1 => 0.0,
                2 | 3 => -0.0,
                _ => 1.5,
            })
            .collect();
        for q in [0.0, 0.5, 0.999, 1.0, 0.25] {
            check(&sample, q);
        }
    }
}

#[test]
fn infinities_agree_including_panics() {
    let inf = f64::INFINITY;
    for sample in [
        vec![inf],
        vec![-inf, inf],
        vec![1.0, inf],
        vec![1.0, 2.0, inf],
        vec![-inf, -0.0, 0.0, inf, inf],
    ] {
        for q in [0.0, 0.5, 0.999, 1.0] {
            check(&sample, q);
        }
    }
}
