//! Descriptive statistics over sample matrices and paired vectors.
//!
//! These back the paper's data-analysis workflows: Pearson correlation
//! (the 0.97/0.96 correlations of Fig. 12), covariance matrices (for the
//! discriminant-analysis density estimates of Eq. 1, PCA and Mahalanobis
//! outlier screening), and quantiles (for test-limit setting in
//! `edm-mfgtest`).

use crate::Matrix;

/// Pearson correlation coefficient of two paired samples.
///
/// Returns `0.0` when either sample has (near-)zero variance or fewer than
/// two points, rather than NaN, so downstream ranking logic stays total.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "paired samples must have equal length");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mx = crate::mean(x);
    let my = crate::mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    let denom = (sxx * syy).sqrt();
    if denom < 1e-300 {
        0.0
    } else {
        sxy / denom
    }
}

/// Column means of a sample matrix (one row per sample).
pub fn column_means(x: &Matrix) -> Vec<f64> {
    let (n, d) = x.shape();
    let mut means = vec![0.0; d];
    for row in x.iter_rows() {
        for (m, &v) in means.iter_mut().zip(row) {
            *m += v;
        }
    }
    if n > 0 {
        for m in &mut means {
            *m /= n as f64;
        }
    }
    means
}

/// Column standard deviations (unbiased), `0.0` for constant columns.
pub fn column_stds(x: &Matrix) -> Vec<f64> {
    let (n, d) = x.shape();
    if n < 2 {
        return vec![0.0; d];
    }
    let means = column_means(x);
    let mut acc = vec![0.0; d];
    for row in x.iter_rows() {
        for ((a, &v), &m) in acc.iter_mut().zip(row).zip(&means) {
            let dvi = v - m;
            *a += dvi * dvi;
        }
    }
    acc.into_iter().map(|s| (s / (n - 1) as f64).sqrt()).collect()
}

/// Unbiased sample covariance matrix of a sample matrix (rows = samples).
///
/// Returns the `d x d` zero matrix when there are fewer than two samples.
pub fn covariance(x: &Matrix) -> Matrix {
    let (n, d) = x.shape();
    if n < 2 {
        return Matrix::zeros(d, d);
    }
    let means = column_means(x);
    let mut cov = Matrix::zeros(d, d);
    for row in x.iter_rows() {
        for i in 0..d {
            let di = row[i] - means[i];
            if di == 0.0 {
                continue;
            }
            for j in i..d {
                cov[(i, j)] += di * (row[j] - means[j]);
            }
        }
    }
    let f = 1.0 / (n - 1) as f64;
    for i in 0..d {
        for j in i..d {
            cov[(i, j)] *= f;
            cov[(j, i)] = cov[(i, j)];
        }
    }
    cov
}

/// Pearson correlation matrix of a sample matrix (rows = samples).
///
/// Constant columns produce zero off-diagonal correlations and a unit
/// diagonal.
pub fn correlation_matrix(x: &Matrix) -> Matrix {
    let cov = covariance(x);
    let d = cov.rows();
    let mut corr = Matrix::identity(d);
    for i in 0..d {
        for j in (i + 1)..d {
            let denom = (cov[(i, i)] * cov[(j, j)]).sqrt();
            let r = if denom < 1e-300 { 0.0 } else { cov[(i, j)] / denom };
            corr[(i, j)] = r;
            corr[(j, i)] = r;
        }
    }
    corr
}

/// Empirical quantile by linear interpolation, `q` in `[0, 1]`.
///
/// Returns `None` for an empty sample. Runs in expected linear time:
/// the two order statistics it interpolates between are found by
/// selection, not by sorting, and are bitwise the ones a full sort
/// would give.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or the data contains NaN.
pub fn quantile(sample: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1], got {q}");
    if sample.is_empty() {
        return None;
    }
    Some(select_quantile(&mut sample.to_vec(), q))
}

/// The `q` quantile of a non-empty buffer, reordering it in place.
///
/// `s[lo] + frac * (s[hi] - s[lo])` over the sorted order, where `s[lo]`
/// is found by `select_nth_unstable_by` and `s[hi]` (when `hi > lo`) is
/// the minimum of the partition right of it. Both are exact order
/// statistics. A sort may order `-0.0` and `+0.0` either way, but the
/// interpolation maps either zero to the same result.
fn select_quantile(s: &mut [f64], q: f64) -> f64 {
    assert!(!s.iter().any(|v| v.is_nan()), "NaN in quantile input");
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (_, &mut s_lo, right) = s.select_nth_unstable_by(lo, f64::total_cmp);
    let s_hi = if hi > lo { right.iter().copied().fold(f64::INFINITY, f64::min) } else { s_lo };
    s_lo + frac * (s_hi - s_lo)
}

/// Median (the 0.5 quantile). `None` for an empty sample.
///
/// # Panics
///
/// Panics if the data contains NaN.
pub fn median(sample: &[f64]) -> Option<f64> {
    quantile(sample, 0.5)
}

/// Median absolute deviation, scaled by 1.4826 to be a consistent
/// σ-estimator for normal data. `None` for an empty sample.
///
/// The robust spread estimate used for outlier limits in `edm-mfgtest`
/// ("robust limits" are standard practice in part-average testing).
///
/// # Panics
///
/// As [`median_mad`].
pub fn mad(sample: &[f64]) -> Option<f64> {
    median_mad(sample).map(|(_, m)| m)
}

/// Median and scaled MAD of a sample, `(median(sample), mad(sample))`
/// bitwise, from two linear-time selections on one copy of the sample.
/// `None` for an empty sample.
///
/// # Panics
///
/// Panics if the data contains NaN, or an infinite median leaves a NaN
/// deviation (`∞ − ∞`).
pub fn median_mad(sample: &[f64]) -> Option<(f64, f64)> {
    if sample.is_empty() {
        return None;
    }
    let mut buf = sample.to_vec();
    let med = select_quantile(&mut buf, 0.5);
    // The deviations' multiset does not depend on the buffer's order.
    for v in &mut buf {
        *v = (*v - med).abs();
    }
    Some((med, 1.4826 * select_quantile(&mut buf, 0.5)))
}

/// Histogram of `sample` over `bins` equal-width bins spanning
/// `[lo, hi]`; values outside the range are clamped into the end bins.
///
/// Used to build the density-histogram features behind the paper's
/// histogram-intersection kernel (Fig. 9).
///
/// # Panics
///
/// Panics if `bins == 0` or `hi <= lo`.
pub fn histogram(sample: &[f64], bins: usize, lo: f64, hi: f64) -> Vec<usize> {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(hi > lo, "histogram range must be non-empty");
    let mut h = vec![0usize; bins];
    let w = (hi - lo) / bins as f64;
    for &v in sample {
        let idx = (((v - lo) / w).floor() as isize).clamp(0, bins as isize - 1) as usize;
        h[idx] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_and_anti() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn covariance_known() {
        // Two perfectly correlated columns.
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let c = covariance(&x);
        assert!((c[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((c[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((c[(1, 1)] - 4.0).abs() < 1e-12);
        let corr = correlation_matrix(&x);
        assert!((corr[(0, 1)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn column_stats() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]);
        assert_eq!(column_means(&x), vec![2.0, 10.0]);
        let s = column_stds(&x);
        assert!((s[0] - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median_mad(&[]), None);
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn quantile_panics_on_lone_nan() {
        let _ = quantile(&[f64::NAN], 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn quantile_panics_on_leading_nan() {
        let _ = quantile(&[f64::NAN, 1.0, 2.0, 3.0, 4.0], 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn quantile_panics_on_middle_nan() {
        let _ = quantile(&[1.0, 2.0, f64::NAN, 3.0, 4.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn quantile_panics_on_trailing_nan() {
        let _ = quantile(&[1.0, 2.0, 3.0, 4.0, f64::NAN], 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn mad_panics_on_lone_nan() {
        let _ = mad(&[f64::NAN]);
    }

    #[test]
    fn mad_of_normal_like_sample() {
        // MAD of {1..7} around median 4 is 2 -> scaled 2.9652
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert!((mad(&s).unwrap() - 2.0 * 1.4826).abs() < 1e-12);
    }

    #[test]
    fn histogram_clamps_outliers() {
        let h = histogram(&[-5.0, 0.1, 0.5, 0.9, 99.0], 2, 0.0, 1.0);
        // 0.5 lands exactly on the second bin's lower edge.
        assert_eq!(h, vec![2, 3]);
    }
}
