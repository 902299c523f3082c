//! Weight penalties added to the training objective.
//!
//! Experiment 2 of the paper sweeps the regularization parameter over
//! {1e-2, 1e-3, 1e-4} for each learning-rate adaptation technique; this type
//! is that knob.

use serde::{Deserialize, Serialize};

use cdp_linalg::DenseVector;

/// A weight penalty.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Regularizer {
    /// No penalty.
    #[default]
    None,
    /// Ridge penalty `λ/2 · ‖w‖²` — gradient contribution `λ·w`.
    L2(f64),
    /// Lasso penalty `λ · ‖w‖₁` — (sub)gradient contribution `λ·sign(w)`.
    L1(f64),
}

impl Regularizer {
    /// The penalty value for weights `w`.
    pub fn penalty(&self, w: &DenseVector) -> f64 {
        match self {
            Regularizer::None => 0.0,
            Regularizer::L2(lambda) => 0.5 * lambda * w.norm_l2().powi(2),
            Regularizer::L1(lambda) => lambda * w.norm_l1(),
        }
    }

    /// Adds the penalty's (sub)gradient to `grad` in place, over the
    /// coordinates both vectors cover. Training fuses the same terms into
    /// the optimizer pass ([`crate::OptimizerState::apply_regularized`]).
    pub fn add_gradient(&self, w: &DenseVector, grad: &mut DenseVector) {
        let pairs = grad.as_mut_slice().iter_mut().zip(w.as_slice());
        match *self {
            Regularizer::None => {}
            Regularizer::L2(lambda) => {
                for (g, &wi) in pairs {
                    *g += lambda * wi;
                }
            }
            Regularizer::L1(lambda) => {
                for (g, &wi) in pairs {
                    *g += l1_subgradient(lambda, wi);
                }
            }
        }
    }

    /// The regularization strength (`0.0` for [`Regularizer::None`]).
    pub fn lambda(&self) -> f64 {
        match self {
            Regularizer::None => 0.0,
            Regularizer::L2(l) | Regularizer::L1(l) => *l,
        }
    }
}

/// `λ·sign(w)`, with a zero subgradient at `w = 0`.
#[inline]
pub(crate) fn l1_subgradient(lambda: f64, w: f64) -> f64 {
    lambda * w.signum() * f64::from(w != 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_penalty_and_gradient() {
        let w = DenseVector::new(vec![3.0, 4.0]);
        let reg = Regularizer::L2(0.1);
        assert!((reg.penalty(&w) - 0.5 * 0.1 * 25.0).abs() < 1e-12);
        let mut g = DenseVector::zeros(2);
        reg.add_gradient(&w, &mut g);
        assert!((g[0] - 0.3).abs() < 1e-12);
        assert!((g[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn l1_penalty_and_subgradient() {
        let w = DenseVector::new(vec![-2.0, 0.0, 5.0]);
        let reg = Regularizer::L1(0.5);
        assert!((reg.penalty(&w) - 0.5 * 7.0).abs() < 1e-12);
        let mut g = DenseVector::zeros(3);
        reg.add_gradient(&w, &mut g);
        // Zero weight gets zero subgradient.
        assert_eq!(g.as_slice(), &[-0.5, 0.0, 0.5]);
    }

    #[test]
    fn none_is_identity() {
        let w = DenseVector::new(vec![1.0, 2.0]);
        let reg = Regularizer::None;
        assert_eq!(reg.penalty(&w), 0.0);
        let mut g = DenseVector::new(vec![0.7, -0.7]);
        reg.add_gradient(&w, &mut g);
        assert_eq!(g.as_slice(), &[0.7, -0.7]);
        assert_eq!(reg.lambda(), 0.0);
    }
}
