use edm_kernels::{Kernel, RbfKernel};
use serde::{Deserialize, Serialize};

use crate::qmatrix::{CacheStats, CachedQ, SvrQ, DEFAULT_CACHE_BYTES};
use crate::solver::{solve, DualProblem, SolverOptions, WorkingSet};
use crate::SvmError;

/// Hyperparameters for ε-SVR training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvrParams {
    /// Box constraint `C`.
    pub c: f64,
    /// Width of the ε-insensitive tube: residuals smaller than `epsilon`
    /// cost nothing.
    pub epsilon: f64,
    /// KKT stopping tolerance.
    pub tol: f64,
    /// SMO iteration cap.
    pub max_iter: usize,
    /// Byte budget of the Q-row cache used during training
    /// ([`DEFAULT_CACHE_BYTES`] by default; `0` disables caching).
    pub cache_bytes: usize,
    /// SMO shrinking heuristic (on by default; `false` reproduces the
    /// unshrunk solver).
    pub shrinking: bool,
    /// SMO working-set selection rule (second order by default).
    pub working_set: WorkingSet,
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams {
            c: 1.0,
            epsilon: 0.1,
            tol: 1e-3,
            max_iter: 200_000,
            cache_bytes: DEFAULT_CACHE_BYTES,
            shrinking: true,
            working_set: WorkingSet::SecondOrder,
        }
    }
}

impl SvrParams {
    /// Sets the box constraint `C`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the tube width ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the Q-row cache byte budget (`0` disables caching).
    pub fn with_cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Enables or disables the SMO shrinking heuristic.
    pub fn with_shrinking(mut self, shrinking: bool) -> Self {
        self.shrinking = shrinking;
        self
    }

    /// Sets the SMO working-set selection rule.
    pub fn with_working_set(mut self, working_set: WorkingSet) -> Self {
        self.working_set = working_set;
        self
    }

    pub(crate) fn solver_opts(&self) -> SolverOptions {
        SolverOptions {
            working_set: self.working_set,
            shrinking: self.shrinking,
            shrink_interval: 0,
        }
    }

    fn validate(&self) -> Result<(), SvmError> {
        if !(self.c > 0.0) {
            return Err(SvmError::InvalidParameter {
                name: "c",
                value: self.c,
                constraint: "must be positive",
            });
        }
        if !(self.epsilon >= 0.0) {
            return Err(SvmError::InvalidParameter {
                name: "epsilon",
                value: self.epsilon,
                constraint: "must be non-negative",
            });
        }
        Ok(())
    }
}

/// ε-SVR trainer, generic over the kernel.
///
/// One of the five regressor families the paper's ref \[20\] compared for
/// chip Fmax prediction (alongside nearest-neighbor, LSF, regularized
/// LSF, and Gaussian processes — see `edm-learn`).
///
/// # Example
///
/// ```
/// use edm_kernels::LinearKernel;
/// use edm_svm::{SvrParams, SvrTrainer};
///
/// // y = 2x
/// let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.1]).collect();
/// let y: Vec<f64> = x.iter().map(|v| 2.0 * v[0]).collect();
/// let m = SvrTrainer::new(SvrParams::default().with_c(100.0).with_epsilon(0.01))
///     .kernel(LinearKernel::new())
///     .fit(&x, &y)?;
/// assert!((m.predict(&[0.75]) - 1.5).abs() < 0.05);
/// # Ok::<(), edm_svm::SvmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SvrTrainer<K = RbfKernel> {
    params: SvrParams,
    kernel: K,
}

impl SvrTrainer<RbfKernel> {
    /// Creates a trainer with the default RBF kernel (γ = 1).
    pub fn new(params: SvrParams) -> Self {
        SvrTrainer { params, kernel: RbfKernel::new(1.0) }
    }
}

impl<K> SvrTrainer<K> {
    /// Replaces the kernel (builder-style).
    pub fn kernel<K2: Kernel<[f64]>>(self, kernel: K2) -> SvrTrainer<K2> {
        SvrTrainer { params: self.params, kernel }
    }

    /// The training hyperparameters.
    pub fn params(&self) -> &SvrParams {
        &self.params
    }
}

impl<K: Kernel<[f64]> + Clone> SvrTrainer<K> {
    /// Trains on vector samples with continuous targets.
    ///
    /// # Errors
    ///
    /// [`SvmError::InvalidInput`] on empty/ragged/mismatched input;
    /// [`SvmError::NoConvergence`] if the SMO cap is hit.
    pub fn fit(&self, x: &[Vec<f64>], y: &[f64]) -> Result<SvrModel<K>, SvmError> {
        let _span = edm_trace::span("svm.svr.fit");
        self.params.validate()?;
        if x.is_empty() {
            return Err(SvmError::InvalidInput("empty training set".into()));
        }
        if x.len() != y.len() {
            return Err(SvmError::InvalidInput(format!(
                "{} samples but {} targets",
                x.len(),
                y.len()
            )));
        }
        let d = x[0].len();
        if x.iter().any(|r| r.len() != d) {
            return Err(SvmError::InvalidInput("ragged sample rows".into()));
        }
        let m = x.len();

        // LIBSVM 2m-variable formulation: variables 0..m are α (sign +1),
        // m..2m are α* (sign −1); Q_ij = s_i s_j K(base_i, base_j). The
        // block structure lives in SvrQ, which computes each kernel row
        // on demand behind the LRU cache — the Gram matrix is never
        // materialized.
        let sign = |t: usize| if t < m { 1.0 } else { -1.0 };
        let mut q =
            CachedQ::new(SvrQ::<[f64], _, _>::new(&self.kernel, x), self.params.cache_bytes);
        let mut p = Vec::with_capacity(2 * m);
        for &yi in y {
            p.push(self.params.epsilon - yi);
        }
        for &yi in y {
            p.push(self.params.epsilon + yi);
        }
        let problem = DualProblem {
            p,
            y: (0..2 * m).map(sign).collect(),
            c: vec![self.params.c; 2 * m],
            alpha0: vec![0.0; 2 * m],
            tol: self.params.tol,
            max_iter: self.params.max_iter,
            opts: self.params.solver_opts(),
        };
        let sol = solve(&mut q, &problem)?;
        let cache = q.stats();

        // β_i = α_i − α*_i; keep nonzero coefficients.
        let mut support = Vec::new();
        let mut coef = Vec::new();
        let mut complexity = 0.0;
        for i in 0..m {
            let beta = sol.alpha[i] - sol.alpha[i + m];
            if beta.abs() > 1e-12 {
                support.push(x[i].clone());
                coef.push(beta);
                complexity += beta.abs();
            }
        }
        Ok(SvrModel {
            kernel: self.kernel.clone(),
            n_features: d,
            support,
            coef,
            rho: sol.rho,
            complexity,
            iterations: sol.iterations,
            cache,
        })
    }
}

/// A trained ε-SVR model: `f(x) = Σᵢ βᵢ k(x, xᵢ) − ρ`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SvrModel<K> {
    kernel: K,
    n_features: usize,
    support: Vec<Vec<f64>>,
    coef: Vec<f64>,
    rho: f64,
    complexity: f64,
    iterations: usize,
    cache: CacheStats,
}

impl<K: Kernel<[f64]>> SvrModel<K> {
    /// Predicts the continuous target for `x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let s: f64 =
            self.support.iter().zip(&self.coef).map(|(sv, &c)| c * self.kernel.eval(x, sv)).sum();
        s - self.rho
    }

    /// Predicts a batch of samples, one support-vector sweep per sample
    /// distributed across worker threads. Each sample is evaluated
    /// exactly as [`SvrModel::predict`] would (serial accumulation over
    /// support vectors), so the result is bitwise identical to the
    /// serial loop regardless of thread count.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        edm_par::map_indexed(xs.len(), |i| self.predict(&xs[i]))
    }
}

impl<K> SvrModel<K> {
    /// The kernel the model scores with.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The support vectors.
    pub fn support_vectors(&self) -> &[Vec<f64>] {
        &self.support
    }

    /// The dual coefficients `βᵢ`, aligned with
    /// [`SvrModel::support_vectors`].
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// The offset `ρ`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Number of support vectors retained.
    pub fn n_support(&self) -> usize {
        self.support.len()
    }

    /// Dimensionality of the training samples; every sample scored by
    /// this model must have exactly this many features. (A wide-tube
    /// SVR can retain zero support vectors, so this is recorded at fit
    /// time rather than derived from them.)
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Model complexity `Σᵢ |βᵢ|` (paper §2.3).
    pub fn complexity(&self) -> f64 {
        self.complexity
    }

    /// SMO iterations used in training.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Q-row cache behaviour during this model's training run.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_kernels::LinearKernel;

    #[test]
    fn fits_linear_function() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v[0] - 1.0).collect();
        let m = SvrTrainer::new(SvrParams::default().with_c(1000.0).with_epsilon(0.01))
            .kernel(LinearKernel::new())
            .fit(&x, &y)
            .unwrap();
        for probe in [0.0, 1.0, 2.5] {
            assert!(
                (m.predict(&[probe]) - (3.0 * probe - 1.0)).abs() < 0.1,
                "probe {probe}: got {}",
                m.predict(&[probe])
            );
        }
    }

    #[test]
    fn fits_nonlinear_function_with_rbf() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|v| (v[0]).sin()).collect();
        let m = SvrTrainer::new(SvrParams::default().with_c(100.0).with_epsilon(0.01))
            .kernel(RbfKernel::new(1.0))
            .fit(&x, &y)
            .unwrap();
        for probe in [0.5, 2.0, 4.5] {
            assert!(
                (m.predict(&[probe]) - probe.sin()).abs() < 0.1,
                "probe {probe}: got {} want {}",
                m.predict(&[probe]),
                probe.sin()
            );
        }
    }

    #[test]
    fn epsilon_tube_sparsifies() {
        // With a wide tube, points inside it need no support vectors.
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|v| 0.05 * v[0]).collect();
        let narrow = SvrTrainer::new(SvrParams::default().with_c(10.0).with_epsilon(0.001))
            .kernel(LinearKernel::new())
            .fit(&x, &y)
            .unwrap();
        let wide = SvrTrainer::new(SvrParams::default().with_c(10.0).with_epsilon(1.0))
            .kernel(LinearKernel::new())
            .fit(&x, &y)
            .unwrap();
        // y spans [0, 0.145]: a tube of ±1 swallows the whole signal.
        assert_eq!(wide.n_support(), 0);
        assert!(narrow.n_support() > 0);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let t = SvrTrainer::new(SvrParams::default().with_epsilon(-0.5));
        assert!(matches!(
            t.fit(&[vec![0.0]], &[0.0]),
            Err(SvmError::InvalidParameter { name: "epsilon", .. })
        ));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![5.0; 10];
        let m = SvrTrainer::new(SvrParams::default().with_epsilon(0.01))
            .kernel(LinearKernel::new())
            .fit(&x, &y)
            .unwrap();
        assert!((m.predict(&[4.5]) - 5.0).abs() < 0.1);
    }
}
