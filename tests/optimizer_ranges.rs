//! Bit-identity of the ranged fused optimizer pass against one whole-slice
//! loop.
//!
//! On a threaded engine `OptimizerState::apply_regularized` cuts the
//! coordinates into fixed ranges of 16 384 and runs them as engine tasks.
//! [`Reference`] is a copy of the single-loop pass it replaced. Every
//! optimizer × regularizer runs on the sequential engine and on 1, 2, 4 and
//! 8 workers over a dimension of three full ranges plus a ragged 17, and
//! weights, both accumulators and `steps` are compared by `to_bits` after
//! every step. A trainer-level case then drives the online and the fused
//! proactive step on a model wider than one range, threaded against
//! sequential.

use cdpipe::engine::{ExecutionEngine, TaskCtx};
use cdpipe::linalg::{DenseVector, SparseVector, Vector};
use cdpipe::ml::{
    AdaptiveRate, LossKind, OptimizerKind, OptimizerState, Regularizer, SgdConfig, SgdTrainer,
};
use cdpipe::storage::{LabeledPoint, RowView};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Coordinates per range of the pass under test.
const RANGE_LEN: usize = 16_384;

/// Three full ranges and a ragged last one.
const DIM: usize = 3 * RANGE_LEN + 17;

const STEPS: usize = 5;

fn engines() -> [ExecutionEngine; 5] {
    [
        ExecutionEngine::Sequential,
        ExecutionEngine::Threaded { workers: 1 },
        ExecutionEngine::Threaded { workers: 2 },
        ExecutionEngine::Threaded { workers: 4 },
        ExecutionEngine::Threaded { workers: 8 },
    ]
}

fn optimizers() -> [OptimizerKind; 6] {
    [
        OptimizerKind::Constant { eta: 0.1 },
        OptimizerKind::InvScaling {
            eta0: 0.2,
            power: 0.5,
        },
        OptimizerKind::Momentum {
            eta: 0.05,
            gamma: 0.9,
        },
        OptimizerKind::adam(0.05),
        OptimizerKind::rmsprop(0.01),
        OptimizerKind::adadelta(),
    ]
}

fn regularizers() -> [Regularizer; 3] {
    [
        Regularizer::None,
        Regularizer::L2(1e-2),
        Regularizer::L1(1e-3),
    ]
}

/// The single-loop fused pass: one `update` over every coordinate, with the
/// step counter and Adam's bias corrections computed once per call.
struct Reference {
    kind: OptimizerKind,
    t: u64,
    acc1: Vec<f64>,
    acc2: Vec<f64>,
}

impl Reference {
    fn new(state: &OptimizerState) -> Self {
        let (kind, t, acc1, acc2) = state.to_parts();
        Self {
            kind,
            t,
            acc1: acc1.as_slice().to_vec(),
            acc2: acc2.as_slice().to_vec(),
        }
    }

    fn apply_regularized(&mut self, w: &mut [f64], grad: &[f64], scale: f64, reg: Regularizer) {
        match reg {
            Regularizer::None => self.update(w, grad, |g, _| g * scale),
            Regularizer::L2(lambda) => self.update(w, grad, |g, w| g * scale + lambda * w),
            Regularizer::L1(lambda) => self.update(w, grad, |g, w| {
                g * scale + lambda * w.signum() * f64::from(w != 0.0)
            }),
        }
    }

    fn update(&mut self, w: &mut [f64], grad: &[f64], grad_at: impl Fn(f64, f64) -> f64) {
        self.t += 1;
        let coords = w.iter_mut().zip(grad);
        match self.kind {
            OptimizerKind::Constant { eta } => {
                for (w, &g) in coords {
                    *w -= eta * grad_at(g, *w);
                }
            }
            OptimizerKind::InvScaling { eta0, power } => {
                let eta = eta0 / (self.t as f64).powf(power);
                for (w, &g) in coords {
                    *w -= eta * grad_at(g, *w);
                }
            }
            OptimizerKind::Momentum { eta, gamma } => {
                for ((w, &g), u) in coords.zip(self.acc1.iter_mut()) {
                    *u = gamma * *u + eta * grad_at(g, *w);
                    *w -= *u;
                }
            }
            OptimizerKind::Adam {
                eta,
                beta1,
                beta2,
                eps,
            } => {
                let bias1 = 1.0 - beta1.powi(self.t as i32);
                let bias2 = 1.0 - beta2.powi(self.t as i32);
                let moments = self.acc1.iter_mut().zip(self.acc2.iter_mut());
                for ((w, &g), (m, v)) in coords.zip(moments) {
                    let g = grad_at(g, *w);
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let m_hat = *m / bias1;
                    let v_hat = *v / bias2;
                    *w -= eta * m_hat / (v_hat.sqrt() + eps);
                }
            }
            OptimizerKind::RmsProp { eta, decay, eps } => {
                for ((w, &g), v) in coords.zip(self.acc1.iter_mut()) {
                    let g = grad_at(g, *w);
                    *v = decay * *v + (1.0 - decay) * g * g;
                    *w -= eta * g / (v.sqrt() + eps);
                }
            }
            OptimizerKind::AdaDelta { decay, eps } => {
                let averages = self.acc1.iter_mut().zip(self.acc2.iter_mut());
                for ((w, &g), (eg2, ed2)) in coords.zip(averages) {
                    let g = grad_at(g, *w);
                    *eg2 = decay * *eg2 + (1.0 - decay) * g * g;
                    let delta = -((*ed2 + eps).sqrt() / (*eg2 + eps).sqrt()) * g;
                    *ed2 = decay * *ed2 + (1.0 - decay) * delta * delta;
                    *w += delta;
                }
            }
        }
    }
}

/// A value in [-1, 1), an explicit `0.0` or an explicit `-0.0`.
fn value(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8u32) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.random_range(-1.0..1.0),
    }
}

/// Asserts `got` and `want` agree bit for bit, naming the first coordinate
/// that differs rather than printing both vectors.
fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!("{what}: coordinate {i} differs: {} vs {}", got[i], want[i]);
    }
}

#[test]
fn ranged_pass_matches_the_single_loop_on_every_engine() {
    let mut seed = 0;
    for kind in optimizers() {
        for regularizer in regularizers() {
            for engine in engines() {
                seed += 1;
                let case = format!("{kind:?} {regularizer:?} {engine:?}");
                let mut rng = StdRng::seed_from_u64(seed);
                let start: Vec<f64> = (0..DIM).map(|_| value(&mut rng)).collect();
                let mut weights = DenseVector::new(start.clone());
                let mut want = start;
                let mut state = OptimizerState::new(kind, DIM);
                let mut reference = Reference::new(&state);
                for step in 0..STEPS {
                    let grad = DenseVector::new((0..DIM).map(|_| value(&mut rng)).collect());
                    let scale = 1.0 / (step + 3) as f64;
                    state.apply_regularized(&mut weights, &grad, scale, regularizer, engine);
                    reference.apply_regularized(&mut want, grad.as_slice(), scale, regularizer);
                    let what = format!("{case} step {step}");
                    let (_, t, acc1, acc2) = state.to_parts();
                    assert_bits(weights.as_slice(), &want, &format!("{what}: weights"));
                    assert_bits(acc1.as_slice(), &reference.acc1, &format!("{what}: acc1"));
                    assert_bits(acc2.as_slice(), &reference.acc2, &format!("{what}: acc2"));
                    assert_eq!(t, reference.t, "{what}: steps");
                    assert_eq!(state.steps(), step as u64 + 1, "{case}: steps");
                }
                assert!(
                    weights.as_slice().iter().all(|w| w.is_finite()),
                    "{case}: diverged, so the comparison proves little"
                );
            }
        }
    }
}

/// A sparse row of nominal `dim` with entries spread over every range.
fn wide_point(rng: &mut StdRng, dim: usize) -> LabeledPoint {
    let mut indices: Vec<u32> = (0..rng.random_range(1..24usize))
        .map(|_| rng.random_range(0..dim as u32))
        .collect();
    indices.sort_unstable();
    indices.dedup();
    let values = indices.iter().map(|_| value(rng)).collect();
    let v = SparseVector::new(dim, indices, values).expect("sorted, in-bounds indices");
    let label = if rng.random::<bool>() { 1.0 } else { -1.0 };
    LabeledPoint::new(label, Vector::Sparse(v))
}

/// What a training run leaves behind: weights, both accumulators, the step
/// count and every returned loss.
struct Trained {
    weights: Vec<f64>,
    acc1: Vec<f64>,
    acc2: Vec<f64>,
    steps: u64,
    losses: Vec<Option<u64>>,
}

/// An online pass, then two fused proactive steps (the second growing the
/// model by two more ranges), on `engine`.
fn train(kind: OptimizerKind, regularizer: Regularizer, engine: ExecutionEngine) -> Trained {
    let mut rng = StdRng::seed_from_u64(7);
    let chunk: Vec<LabeledPoint> = (0..96).map(|_| wide_point(&mut rng, DIM)).collect();
    let wider: Vec<LabeledPoint> = (0..40)
        .map(|_| wide_point(&mut rng, DIM + 2 * RANGE_LEN + 5))
        .collect();
    let mut config = SgdConfig::for_loss(LossKind::Hinge);
    config.optimizer = kind;
    config.regularizer = regularizer;
    let mut trainer = SgdTrainer::new(DIM, &config);
    let rows: Vec<RowView<'_>> = chunk.iter().map(RowView::Point).collect();
    let mut losses = vec![trainer.online_pass_rows(&rows, 16, engine)];
    for sources in [[&chunk[..50], &chunk[50..]], [&chunk[..], &wider[..]]] {
        let out = trainer
            .try_step_fused_on(
                sources.len(),
                |i, sink: &mut dyn FnMut(RowView<'_>)| {
                    for p in sources[i] {
                        sink(RowView::Point(p));
                    }
                },
                engine,
                &TaskCtx::plain(),
            )
            .expect("no faults injected");
        losses.push(out.loss);
    }
    assert!(trainer.model().dim() > 4 * RANGE_LEN);
    let (_, steps, acc1, acc2) = trainer.optimizer().to_parts();
    Trained {
        weights: trainer.model().weights().as_slice().to_vec(),
        acc1: acc1.as_slice().to_vec(),
        acc2: acc2.as_slice().to_vec(),
        steps,
        losses: losses.into_iter().map(|l| l.map(f64::to_bits)).collect(),
    }
}

#[test]
fn trainer_steps_wider_than_one_range_match_across_engines() {
    for (kind, regularizer) in [
        (OptimizerKind::adam(0.05), Regularizer::L2(1e-4)),
        (OptimizerKind::adadelta(), Regularizer::L1(1e-3)),
        (OptimizerKind::Constant { eta: 0.1 }, Regularizer::None),
    ] {
        let want = train(kind, regularizer, ExecutionEngine::Sequential);
        for workers in [1, 2, 4, 8] {
            let got = train(kind, regularizer, ExecutionEngine::Threaded { workers });
            let what = format!("{kind:?} {regularizer:?} on {workers} workers");
            assert_bits(&got.weights, &want.weights, &format!("{what}: weights"));
            assert_bits(&got.acc1, &want.acc1, &format!("{what}: acc1"));
            assert_bits(&got.acc2, &want.acc2, &format!("{what}: acc2"));
            assert_eq!(
                (got.steps, &got.losses),
                (want.steps, &want.losses),
                "{what}: steps and losses"
            );
        }
    }
}
