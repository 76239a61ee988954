//! Gaussian-process regression (paper ref \[19\]) — Bayesian inference
//! over functions, with predictive mean *and* variance. One of the five
//! Fmax-regressor families of paper ref \[20\]; the predictive variance
//! is what makes it attractive for silicon applications, where an
//! engineer needs to know *how much to trust* a prediction.

use edm_kernels::{gram_matrix, gram_row, Kernel, RbfKernel};
use edm_linalg::Cholesky;
use serde::{Deserialize, Serialize};

use crate::{error::check_xy, LearnError};

/// A trained GP regressor with kernel `k` and noise variance `σ²`:
/// posterior mean `k(x)ᵀ (K + σ²I)⁻¹ y`, variance
/// `k(x,x) − k(x)ᵀ (K + σ²I)⁻¹ k(x)`.
///
/// # Example
///
/// ```
/// use edm_kernels::RbfKernel;
/// use edm_learn::gp::GpRegressor;
///
/// let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.3]).collect();
/// let y: Vec<f64> = x.iter().map(|v| v[0].sin()).collect();
/// let gp = GpRegressor::fit(&x, &y, RbfKernel::new(1.0), 1e-6)?;
/// let (mean, var) = gp.predict_with_variance(&[1.5]);
/// assert!((mean - 1.5f64.sin()).abs() < 0.05);
/// assert!(var >= 0.0);
/// # Ok::<(), edm_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpRegressor<K = RbfKernel> {
    kernel: K,
    x: Vec<Vec<f64>>,
    /// `(K + σ²I)⁻¹ (y − ȳ)`.
    alpha: Vec<f64>,
    chol: Cholesky,
    y_mean: f64,
    noise: f64,
}

impl<K: Kernel<[f64]> + Clone> GpRegressor<K> {
    /// Fits the GP posterior.
    ///
    /// The target mean is subtracted before conditioning (a constant mean
    /// function) and restored at prediction time.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidParameter`] if `noise <= 0`;
    /// [`LearnError::InvalidInput`] on inconsistent input;
    /// [`LearnError::Numeric`] if `K + σ²I` is not positive definite
    /// (raise `noise`).
    pub fn fit(x: &[Vec<f64>], y: &[f64], kernel: K, noise: f64) -> Result<Self, LearnError> {
        if !(noise > 0.0) {
            return Err(LearnError::InvalidParameter {
                name: "noise",
                value: noise,
                constraint: "must be positive",
            });
        }
        check_xy(x, y.len())?;
        let y_mean = edm_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|&v| v - y_mean).collect();
        let mut gram = gram_matrix(&kernel, x);
        for i in 0..gram.rows() {
            gram[(i, i)] += noise;
        }
        let chol = gram.cholesky().map_err(LearnError::from)?;
        let alpha = chol.solve(&yc);
        Ok(GpRegressor { kernel, x: x.to_vec(), alpha, chol, y_mean, noise })
    }

    /// Posterior mean at `x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let k = gram_row(&self.kernel, x, &self.x);
        self.y_mean + edm_linalg::dot(&k, &self.alpha)
    }

    /// Posterior `(mean, variance)` at `x`; the variance is clamped at 0
    /// against roundoff.
    pub fn predict_with_variance(&self, x: &[f64]) -> (f64, f64) {
        let k = gram_row(&self.kernel, x, &self.x);
        let mean = self.y_mean + edm_linalg::dot(&k, &self.alpha);
        // v = L⁻¹ k; var = k(x,x) − ‖v‖².
        let v = self.chol.solve_lower(&k);
        let kxx = self.kernel.eval(x, x);
        let var = (kxx - edm_linalg::dot(&v, &v)).max(0.0);
        (mean, var)
    }

    /// Posterior means for a batch of samples (parallel; bitwise
    /// identical to mapping [`GpRegressor::predict`] over `xs`).
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        edm_par::map_indexed(xs.len(), |i| self.predict(&xs[i]))
    }

    /// Dimensionality of the training samples.
    pub fn n_features(&self) -> usize {
        self.x[0].len()
    }

    /// Number of training samples conditioned on.
    pub fn n_train(&self) -> usize {
        self.x.len()
    }

    /// Negative log marginal likelihood of the training data — the
    /// model-selection criterion for kernel hyperparameters.
    pub fn neg_log_marginal_likelihood(&self, y: &[f64]) -> f64 {
        let n = self.x.len() as f64;
        let yc: Vec<f64> = y.iter().map(|&v| v - self.y_mean).collect();
        0.5 * edm_linalg::dot(&yc, &self.alpha)
            + 0.5 * self.chol.log_det()
            + 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }
}

impl<K> GpRegressor<K> {
    /// The kernel the posterior was conditioned with.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Checks the shape invariants [`GpRegressor::fit`] establishes — a
    /// non-empty training set of equal, non-zero-width rows, one weight
    /// per row, and an `n × n` Cholesky factor — for a regressor that
    /// did not come from `fit`, such as a deserialized one. The kernel's
    /// parameters are the caller's to check.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] naming the broken invariant.
    pub fn check(&self) -> Result<(), LearnError> {
        check_xy(&self.x, self.alpha.len())?;
        let l = self.chol.l();
        if l.shape() != (self.x.len(), self.x.len()) {
            return Err(LearnError::InvalidInput(format!(
                "{}x{} Cholesky factor for {} training samples",
                l.rows(),
                l.cols(),
                self.x.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_training_points_at_low_noise() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.5]).collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] * v[0] * 0.1).collect();
        let gp = GpRegressor::fit(&x, &y, RbfKernel::new(1.0), 1e-8).unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            assert!((gp.predict(xi) - yi).abs() < 1e-3);
        }
    }

    #[test]
    fn variance_small_at_data_large_far_away() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.2]).collect();
        let y: Vec<f64> = x.iter().map(|v| v[0]).collect();
        let gp = GpRegressor::fit(&x, &y, RbfKernel::new(2.0), 1e-6).unwrap();
        let (_, var_at_data) = gp.predict_with_variance(&[0.4]);
        let (_, var_far) = gp.predict_with_variance(&[50.0]);
        assert!(var_at_data < 1e-3);
        assert!(var_far > 0.9, "prior variance should dominate far away: {var_far}");
    }

    #[test]
    fn reverts_to_mean_far_from_data() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1]).collect();
        let y = vec![3.0; 10];
        let gp = GpRegressor::fit(&x, &y, RbfKernel::new(1.0), 1e-6).unwrap();
        assert!((gp.predict(&[100.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn higher_noise_smooths() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.3]).collect();
        // alternating spikes
        let y: Vec<f64> = (0..20).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let tight = GpRegressor::fit(&x, &y, RbfKernel::new(10.0), 1e-8).unwrap();
        let smooth = GpRegressor::fit(&x, &y, RbfKernel::new(10.0), 10.0).unwrap();
        // the smooth model stays near the mean (0), the tight one follows spikes
        assert!(tight.predict(&x[4]).abs() > 0.5);
        assert!(smooth.predict(&x[4]).abs() < 0.3);
    }

    #[test]
    fn invalid_noise_rejected() {
        assert!(matches!(
            GpRegressor::fit(&[vec![0.0]], &[0.0], RbfKernel::new(1.0), 0.0),
            Err(LearnError::InvalidParameter { name: "noise", .. })
        ));
    }

    #[test]
    fn nlml_prefers_matching_bandwidth() {
        // Data drawn from a smooth function: a wildly narrow kernel
        // should score a worse marginal likelihood than a sensible one.
        let x: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 * 0.2]).collect();
        let y: Vec<f64> = x.iter().map(|v| (0.5 * v[0]).sin()).collect();
        let good = GpRegressor::fit(&x, &y, RbfKernel::new(0.5), 1e-4).unwrap();
        let bad = GpRegressor::fit(&x, &y, RbfKernel::new(500.0), 1e-4).unwrap();
        assert!(
            good.neg_log_marginal_likelihood(&y) < bad.neg_log_marginal_likelihood(&y),
            "NLML should favor the matched bandwidth"
        );
    }
}
