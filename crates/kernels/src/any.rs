//! A closed enum over the six vector kernels, used by model
//! persistence: a saved kernel-generic model (`SvcModel<K>` etc.) is
//! reloaded as `Model<AnyKernel>`, which delegates every evaluation to
//! the concrete kernel it wraps — bitwise identical to evaluating that
//! kernel directly, so save → load round trips preserve decision
//! values exactly.

use serde::{Deserialize, Serialize};

use crate::vector_kernels::{
    Chi2Kernel, HistogramIntersectionKernel, LinearKernel, PolyKernel, RbfKernel, SigmoidKernel,
};
use crate::Kernel;

/// Any of the workspace's vector kernels, dispatched at runtime.
///
/// `eval` forwards to the wrapped kernel's own `eval`, so an
/// `AnyKernel` scores exactly like the kernel it was built from.
// Deliberately exhaustive: the persistence format enumerates exactly
// these kinds, so adding a variant is a schema change and should break
// every match that needs updating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AnyKernel {
    /// [`LinearKernel`].
    Linear(LinearKernel),
    /// [`PolyKernel`].
    Poly(PolyKernel),
    /// [`RbfKernel`].
    Rbf(RbfKernel),
    /// [`SigmoidKernel`].
    Sigmoid(SigmoidKernel),
    /// [`HistogramIntersectionKernel`].
    HistogramIntersection(HistogramIntersectionKernel),
    /// [`Chi2Kernel`].
    Chi2(Chi2Kernel),
}

impl AnyKernel {
    /// Checks the wrapped kernel's parameters against its constructor's
    /// preconditions (`γ > 0`; `d ≥ 1` for the polynomial kernel). A
    /// deserialized kernel never ran its constructor, so model loaders
    /// call this before scoring with one.
    ///
    /// # Errors
    ///
    /// A description of the violated precondition.
    pub fn check(&self) -> Result<(), String> {
        let gamma = match self {
            AnyKernel::Linear(_) | AnyKernel::HistogramIntersection(_) => return Ok(()),
            AnyKernel::Poly(k) if k.degree == 0 => return Err("poly kernel of degree 0".into()),
            AnyKernel::Poly(k) => k.gamma,
            AnyKernel::Rbf(k) => k.gamma,
            AnyKernel::Sigmoid(k) => k.gamma,
            AnyKernel::Chi2(k) => k.gamma,
        };
        if !(gamma > 0.0) {
            return Err(format!("kernel gamma {gamma} is not positive"));
        }
        Ok(())
    }
}

impl Kernel<[f64]> for AnyKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            AnyKernel::Linear(k) => k.eval(a, b),
            AnyKernel::Poly(k) => k.eval(a, b),
            AnyKernel::Rbf(k) => k.eval(a, b),
            AnyKernel::Sigmoid(k) => k.eval(a, b),
            AnyKernel::HistogramIntersection(k) => k.eval(a, b),
            AnyKernel::Chi2(k) => k.eval(a, b),
        }
    }
}

impl From<LinearKernel> for AnyKernel {
    fn from(k: LinearKernel) -> Self {
        AnyKernel::Linear(k)
    }
}

impl From<PolyKernel> for AnyKernel {
    fn from(k: PolyKernel) -> Self {
        AnyKernel::Poly(k)
    }
}

impl From<RbfKernel> for AnyKernel {
    fn from(k: RbfKernel) -> Self {
        AnyKernel::Rbf(k)
    }
}

impl From<SigmoidKernel> for AnyKernel {
    fn from(k: SigmoidKernel) -> Self {
        AnyKernel::Sigmoid(k)
    }
}

impl From<HistogramIntersectionKernel> for AnyKernel {
    fn from(k: HistogramIntersectionKernel) -> Self {
        AnyKernel::HistogramIntersection(k)
    }
}

impl From<Chi2Kernel> for AnyKernel {
    fn from(k: Chi2Kernel) -> Self {
        AnyKernel::Chi2(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegates_bitwise() {
        let a = [0.3, 1.7, -2.2];
        let b = [1.1, 0.0, 4.5];
        let cases: Vec<(AnyKernel, f64)> = vec![
            (LinearKernel::new().into(), LinearKernel::new().eval(&a, &b)),
            (PolyKernel::new(3, 0.5, 1.0).into(), PolyKernel::new(3, 0.5, 1.0).eval(&a, &b)),
            (RbfKernel::new(0.7).into(), RbfKernel::new(0.7).eval(&a, &b)),
            (SigmoidKernel::new(0.2, -1.0).into(), SigmoidKernel::new(0.2, -1.0).eval(&a, &b)),
        ];
        for (any, want) in cases {
            assert_eq!(any.eval(&a, &b).to_bits(), want.to_bits(), "{any:?}");
        }
        // Histogram kernels need non-negative inputs.
        let h = [0.2, 0.5, 0.3];
        let g = [0.1, 0.6, 0.3];
        let any: AnyKernel = Chi2Kernel::new(1.0).into();
        assert_eq!(any.eval(&h, &g).to_bits(), Chi2Kernel::new(1.0).eval(&h, &g).to_bits());
        let any: AnyKernel = HistogramIntersectionKernel::new().into();
        assert_eq!(
            any.eval(&h, &g).to_bits(),
            HistogramIntersectionKernel::new().eval(&h, &g).to_bits()
        );
    }

    #[test]
    fn check_enforces_constructor_preconditions() {
        assert!(AnyKernel::from(PolyKernel::new(2, 0.5, 1.0)).check().is_ok());
        assert!(AnyKernel::from(LinearKernel::new()).check().is_ok());
        let mut rbf = RbfKernel::new(1.0);
        rbf.gamma = f64::NAN;
        assert!(AnyKernel::from(rbf).check().is_err());
        let mut poly = PolyKernel::new(2, 0.5, 1.0);
        poly.degree = 0;
        assert!(AnyKernel::from(poly).check().is_err());
        let mut chi2 = Chi2Kernel::new(1.0);
        chi2.gamma = -1.0;
        assert!(AnyKernel::from(chi2).check().is_err());
    }
}
