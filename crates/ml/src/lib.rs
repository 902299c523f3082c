//! SGD-based machine learning: the training substrate of the platform.
//!
//! The paper trains three linear models with mini-batch stochastic gradient
//! descent (Algorithm 1): an SVM (hinge loss) for the URL pipeline, linear
//! regression (squared loss) for the Taxi pipeline, and logistic regression
//! as provided by Spark MLlib. This crate reimplements that family from
//! scratch:
//!
//! * [`loss`] — hinge / logistic / squared losses with per-example gradients;
//! * [`regularizer`] — none / L2 / L1 penalties;
//! * [`optimizer`] — per-coordinate adaptive learning rates: constant,
//!   inverse decay, Momentum, **Adam**, **RMSProp**, **AdaDelta** (the three
//!   adaptation techniques of Experiment 2);
//! * [`model`] — a dense-weight linear model over dense or sparse rows;
//! * [`sgd`] — the mini-batch SGD driver. One [`sgd::SgdTrainer::step`] is
//!   exactly one iteration of Algorithm 1, which is what makes **proactive
//!   training** sound: iterations are conditionally independent given the
//!   `(weights, optimizer state)` pair, so the platform may run them at
//!   arbitrary times on arbitrary samples (§3.3).
//!
//! The `(weights, optimizer state)` pair is serializable, providing the
//! *warm starting* used by the periodical-deployment baseline (TFX-style).

#![warn(missing_docs)]

mod accumulator;
pub mod loss;
pub mod model;
pub mod optimizer;
pub mod regularizer;
pub mod sgd;

pub use loss::{Loss, LossKind};
pub use model::{LinearModel, Task};
pub use optimizer::{AdaptiveRate, OptimizerKind, OptimizerState};
pub use regularizer::Regularizer;
pub use sgd::{ConvergenceCriteria, FusedStepOutcome, SgdConfig, SgdTrainer, TrainReport};
