//! Order statistics for reporting timings.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it, and always with its sample count. Failed operations
//! enter a latency sample as `f64::INFINITY`, so they count as missing
//! every latency limit instead of vanishing from the distribution.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` (total order; infinities last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `xs` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method);
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let n = 4usize;
    let m = len + 1;
    let cut = |i: usize| -> f64 {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// A percentile read off a sample, with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile asked for, in `(0, 1)`.
    pub q: f64,
    /// The value at that quantile (nearest rank).
    pub value: f64,
    /// Samples in the distribution.
    pub count: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank `q` percentile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the percentile is then not
/// supported by the sample and must not be reported).
pub fn percentile(xs: &[f64], q: f64) -> Option<Percentile> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile { q, value: s[rank - 1], count: n, beyond })
}

/// Human-readable `name=value (n=count)` for a percentile, or a note
/// that the sample is too small to support it.
pub fn describe(name: &str, xs: &[f64], q: f64) -> String {
    match percentile(xs, q) {
        Some(p) => format!("{name}={:.4} (n={})", p.value, p.count),
        None => format!("{name}=unsupported (n={}, needs {} beyond)", xs.len(), MIN_BEYOND),
    }
}
