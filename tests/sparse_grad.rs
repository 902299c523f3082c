//! Bit-identity of the sparse gradient accumulation against the dense
//! algorithm it replaced.
//!
//! [`DenseReference`] is a line-for-line copy of the trainer's dense path:
//! a `scale(0.0)`-reset buffer for unsharded steps, one zeroed `dim`-wide
//! buffer per shard or proactive source, a dense `axpy` tree reduce, and
//! then scale, regularizer and optimizer as three separate dense passes.
//! Every case drives it and an [`SgdTrainer`] through the same online,
//! sharded and fused steps and compares weights, both optimizer moments,
//! `steps`, `points_seen` and every returned loss by `to_bits`.

use cdpipe::engine::{tree_reduce, ExecutionEngine, TaskCtx};
use cdpipe::linalg::{DenseVector, SparseVector, Vector};
use cdpipe::ml::{Loss, LossKind, OptimizerKind, Regularizer, SgdConfig, SgdTrainer};
use cdpipe::storage::{FeatureChunk, LabeledPoint, RowView, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Minimum rows per gradient shard and shard cap, as in the trainer.
const GRAD_SHARD_MIN_POINTS: usize = 512;
const MAX_GRAD_SHARDS: usize = 8;

/// The model dimension every case starts from; most rows are wider.
const START_DIM: usize = 4;

/// The dense trainer the sparse runs replaced.
struct DenseReference {
    weights: DenseVector,
    loss: LossKind,
    kind: OptimizerKind,
    t: u64,
    acc1: DenseVector,
    acc2: DenseVector,
    regularizer: Regularizer,
    grad: DenseVector,
    points_seen: u64,
}

fn needs(kind: OptimizerKind) -> (bool, bool) {
    match kind {
        OptimizerKind::Constant { .. } | OptimizerKind::InvScaling { .. } => (false, false),
        OptimizerKind::Momentum { .. } => (true, false),
        OptimizerKind::Adam { .. }
        | OptimizerKind::RmsProp { .. }
        | OptimizerKind::AdaDelta { .. } => (true, true),
    }
}

impl DenseReference {
    fn new(dim: usize, loss: LossKind, kind: OptimizerKind, regularizer: Regularizer) -> Self {
        let (need1, need2) = needs(kind);
        Self {
            weights: DenseVector::zeros(dim),
            loss,
            kind,
            t: 0,
            acc1: DenseVector::zeros(if need1 { dim } else { 0 }),
            acc2: DenseVector::zeros(if need2 { dim } else { 0 }),
            regularizer,
            grad: DenseVector::zeros(dim),
            points_seen: 0,
        }
    }

    /// `SgdTrainer::step_rows` before sparse runs.
    fn step_rows(&mut self, batch: &[RowView<'_>]) -> Option<f64> {
        if batch.is_empty() {
            return None;
        }
        let max_dim = batch.iter().map(|r| r.dim()).max().unwrap_or(0);
        self.weights.grow_to(max_dim);
        let dim = self.weights.dim();
        let loss = self.loss;
        let inv_batch = 1.0 / batch.len() as f64;
        let shards = (batch.len() / GRAD_SHARD_MIN_POINTS).clamp(1, MAX_GRAD_SHARDS);
        let total_loss = if shards == 1 {
            self.grad.grow_to(dim);
            self.grad.scale(0.0);
            let mut sum = 0.0;
            for row in batch {
                let z = row.dot_padded(&self.weights);
                sum += loss.value(z, row.label());
                let coeff = loss.dloss_dz(z, row.label()) * inv_batch;
                if coeff != 0.0 {
                    row.to_vector().axpy_into_growing(coeff, &mut self.grad);
                }
            }
            sum
        } else {
            let parts: Vec<(DenseVector, f64)> = batch
                .chunks(batch.len().div_ceil(shards))
                .map(|shard| {
                    let mut grad = DenseVector::zeros(dim);
                    let mut loss_sum = 0.0;
                    for row in shard {
                        let z = row.dot_padded(&self.weights);
                        loss_sum += loss.value(z, row.label());
                        let coeff = loss.dloss_dz(z, row.label()) * inv_batch;
                        if coeff != 0.0 {
                            row.to_vector().axpy_into_growing(coeff, &mut grad);
                        }
                    }
                    (grad, loss_sum)
                })
                .collect();
            let (grad, sum) = tree_reduce(parts, |(mut ga, la), (gb, lb)| {
                ga.axpy(1.0, &gb).expect("shards share the model dimension");
                (ga, la + lb)
            })
            .expect("at least one shard");
            self.grad = grad;
            sum
        };
        self.add_penalty_gradient();
        self.apply();
        self.points_seen += batch.len() as u64;
        Some(total_loss * inv_batch)
    }

    /// `SgdTrainer::try_step_fused_on` before sparse runs.
    fn step_fused(&mut self, sources: &[Vec<RowView<'_>>]) -> (Option<f64>, u64) {
        if sources.is_empty() {
            return (None, 0);
        }
        let dim = self.weights.dim();
        let loss = self.loss;
        let parts: Vec<(DenseVector, f64, u64)> = sources
            .iter()
            .map(|source| {
                let mut grad = DenseVector::zeros(dim);
                let mut loss_sum = 0.0;
                let mut points = 0u64;
                for row in source {
                    let z = row.dot_padded(&self.weights);
                    loss_sum += loss.value(z, row.label());
                    let coeff = loss.dloss_dz(z, row.label());
                    if coeff != 0.0 {
                        row.to_vector().axpy_into_growing(coeff, &mut grad);
                    }
                    points += 1;
                }
                (grad, loss_sum, points)
            })
            .collect();
        let (grad, loss_sum, points) = tree_reduce(parts, |(mut ga, la, na), (mut gb, lb, nb)| {
            let width = ga.dim().max(gb.dim());
            ga.grow_to(width);
            gb.grow_to(width);
            ga.axpy(1.0, &gb).expect("padded to a common dimension");
            (ga, la + lb, na + nb)
        })
        .expect("at least one source");
        if points == 0 {
            return (None, 0);
        }
        self.grad = grad;
        let inv_points = 1.0 / points as f64;
        self.grad.scale(inv_points);
        self.weights.grow_to(self.grad.dim());
        self.grad.grow_to(self.weights.dim());
        self.add_penalty_gradient();
        self.apply();
        self.points_seen += points;
        (Some(loss_sum * inv_points), points)
    }

    /// `Regularizer::add_gradient` before the fused pass.
    fn add_penalty_gradient(&mut self) {
        match self.regularizer {
            Regularizer::None => {}
            Regularizer::L2(lambda) => {
                self.grad
                    .axpy(lambda, &self.weights)
                    .expect("regularizer dims match weights");
            }
            Regularizer::L1(lambda) => {
                let ws = self.weights.as_slice();
                let gs = self.grad.as_mut_slice();
                for (g, &wi) in gs.iter_mut().zip(ws) {
                    *g += lambda * wi.signum() * f64::from(wi != 0.0);
                }
            }
        }
    }

    /// `OptimizerState::apply` before the fused pass.
    fn apply(&mut self) {
        let n = self.grad.dim();
        let (need1, need2) = needs(self.kind);
        if need1 {
            self.acc1.grow_to(n);
        }
        if need2 {
            self.acc2.grow_to(n);
        }
        self.t += 1;
        let g = self.grad.as_slice();
        let w = self.weights.as_mut_slice();
        match self.kind {
            OptimizerKind::Constant { eta } => {
                for i in 0..n {
                    w[i] -= eta * g[i];
                }
            }
            OptimizerKind::InvScaling { eta0, power } => {
                let eta = eta0 / (self.t as f64).powf(power);
                for i in 0..n {
                    w[i] -= eta * g[i];
                }
            }
            OptimizerKind::Momentum { eta, gamma } => {
                let u = self.acc1.as_mut_slice();
                for i in 0..n {
                    u[i] = gamma * u[i] + eta * g[i];
                    w[i] -= u[i];
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
                let m = self.acc1.as_mut_slice();
                let v = self.acc2.as_mut_slice();
                for i in 0..n {
                    m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
                    v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
                    let m_hat = m[i] / bias1;
                    let v_hat = v[i] / bias2;
                    w[i] -= eta * m_hat / (v_hat.sqrt() + eps);
                }
            }
            OptimizerKind::RmsProp { eta, decay, eps } => {
                let v = self.acc1.as_mut_slice();
                for i in 0..n {
                    v[i] = decay * v[i] + (1.0 - decay) * g[i] * g[i];
                    w[i] -= eta * g[i] / (v[i].sqrt() + eps);
                }
            }
            OptimizerKind::AdaDelta { decay, eps } => {
                let eg2 = self.acc1.as_mut_slice();
                let ed2 = self.acc2.as_mut_slice();
                for i in 0..n {
                    eg2[i] = decay * eg2[i] + (1.0 - decay) * g[i] * g[i];
                    let delta = -((ed2[i] + eps).sqrt() / (eg2[i] + eps).sqrt()) * g[i];
                    ed2[i] = decay * ed2[i] + (1.0 - decay) * delta * delta;
                    w[i] += delta;
                }
            }
        }
    }
}

fn bits(v: &DenseVector) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn loss_bits(loss: Option<f64>) -> Option<u64> {
    loss.map(f64::to_bits)
}

fn assert_same_state(trainer: &SgdTrainer, reference: &DenseReference, what: &str) {
    let (_, t, acc1, acc2) = trainer.optimizer().to_parts();
    assert_eq!(
        bits(trainer.model().weights()),
        bits(&reference.weights),
        "{what}: weights"
    );
    assert_eq!(bits(acc1), bits(&reference.acc1), "{what}: first moment");
    assert_eq!(bits(acc2), bits(&reference.acc2), "{what}: second moment");
    assert_eq!(
        (t, trainer.steps()),
        (reference.t, reference.t),
        "{what}: steps"
    );
    assert_eq!(
        trainer.points_seen(),
        reference.points_seen,
        "{what}: points_seen"
    );
}

/// A value in [-1, 1), an explicit `0.0` or an explicit `-0.0`.
fn value(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8u32) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.random_range(-1.0..1.0),
    }
}

fn label(rng: &mut StdRng, loss: LossKind) -> f64 {
    match loss {
        LossKind::Squared => value(rng),
        _ => {
            if rng.random::<bool>() {
                1.0
            } else {
                -1.0
            }
        }
    }
}

fn dense_point(rng: &mut StdRng, loss: LossKind, dim: usize) -> LabeledPoint {
    let values = (0..dim).map(|_| value(rng)).collect::<Vec<_>>();
    LabeledPoint::new(label(rng, loss), Vector::from(values))
}

/// A sparse row of nominal `dim` storing up to six entries (possibly none),
/// explicit zeros of either sign included.
fn sparse_point(rng: &mut StdRng, loss: LossKind, dim: usize) -> LabeledPoint {
    let mut indices: Vec<u32> = (0..rng.random_range(0..7usize))
        .map(|_| rng.random_range(0..dim as u32))
        .collect();
    indices.sort_unstable();
    indices.dedup();
    let values = indices.iter().map(|_| value(rng)).collect();
    let v = SparseVector::new(dim, indices, values).expect("sorted, in-bounds indices");
    LabeledPoint::new(label(rng, loss), Vector::Sparse(v))
}

/// A squared-loss row whose gradient coefficient is exactly zero at every
/// model: an all-zero row (margin `0.0`) labeled `0.0`.
fn zero_coefficient_point(dim: usize) -> LabeledPoint {
    LabeledPoint::new(0.0, Vector::Sparse(SparseVector::empty(dim)))
}

/// Every row layout the trainer sees.
struct Data {
    /// All sparse, one nominal dimension: a CSR slab.
    csr: FeatureChunk,
    /// All dense, one dimension: a dense column slab.
    dense: FeatureChunk,
    /// Mixed layouts and dimensions: the row-major `Rows` slab.
    mixed: FeatureChunk,
    /// Row-layout points mixing dense and sparse rows.
    points: Vec<LabeledPoint>,
    /// Sparse rows wider than anything above.
    wide: FeatureChunk,
}

impl Data {
    fn new(seed: u64, loss: LossKind) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let chunk =
            |points: Vec<LabeledPoint>| FeatureChunk::new(Timestamp(0), Timestamp(0), points);
        let csr = (0..40).map(|_| sparse_point(&mut rng, loss, 48)).collect();
        let dense = (0..30).map(|_| dense_point(&mut rng, loss, 6)).collect();
        let mixed = (0..30)
            .map(|i| match i % 3 {
                0 => dense_point(&mut rng, loss, 3 + i % 5),
                1 => sparse_point(&mut rng, loss, 16 + i),
                _ => zero_coefficient_point(20),
            })
            .collect();
        let points = (0..25)
            .map(|i| {
                if i % 2 == 0 {
                    dense_point(&mut rng, loss, 5)
                } else {
                    sparse_point(&mut rng, loss, 40)
                }
            })
            .collect();
        let wide = (0..20).map(|_| sparse_point(&mut rng, loss, 96)).collect();
        Self {
            csr: chunk(csr),
            dense: chunk(dense),
            mixed: chunk(mixed),
            points,
            wide: chunk(wide),
        }
    }

    fn point_rows(&self) -> Vec<RowView<'_>> {
        self.points.iter().map(RowView::Point).collect()
    }

    /// A batch of `n` rows cycling through every layout: large enough for
    /// the sharded path.
    fn big_batch(&self, n: usize) -> Vec<RowView<'_>> {
        let all: Vec<RowView<'_>> = self
            .csr
            .rows()
            .chain(self.dense.rows())
            .chain(self.mixed.rows())
            .chain(self.point_rows())
            .collect();
        all.iter().copied().cycle().take(n).collect()
    }
}

fn fused_step(
    trainer: &mut SgdTrainer,
    sources: &[Vec<RowView<'_>>],
    engine: ExecutionEngine,
) -> (Option<f64>, u64) {
    let out = trainer
        .try_step_fused_on(
            sources.len(),
            |i, sink: &mut dyn FnMut(RowView<'_>)| {
                for row in &sources[i] {
                    sink(*row);
                }
            },
            engine,
            &TaskCtx::plain(),
        )
        .expect("no faults injected");
    (out.loss, out.points)
}

/// One case: the same step sequence through the sparse trainer on `engine`
/// and through the dense reference, compared after every step.
fn run_case(
    loss: LossKind,
    kind: OptimizerKind,
    regularizer: Regularizer,
    engine: ExecutionEngine,
    seed: u64,
) {
    let data = Data::new(seed, loss);
    let mut config = SgdConfig::for_loss(loss);
    config.optimizer = kind;
    config.regularizer = regularizer;
    let mut trainer = SgdTrainer::new(START_DIM, &config);
    let mut reference = DenseReference::new(START_DIM, loss, kind, regularizer);
    let case = format!("{loss:?} {kind:?} {regularizer:?} {engine:?}");

    let csr: Vec<RowView<'_>> = data.csr.rows().collect();
    let dense: Vec<RowView<'_>> = data.dense.rows().collect();
    let mixed: Vec<RowView<'_>> = data.mixed.rows().collect();
    let points = data.point_rows();
    let wide: Vec<RowView<'_>> = data.wide.rows().collect();
    let zero_only: Vec<LabeledPoint> = (0..4).map(|_| zero_coefficient_point(8)).collect();
    let zero_only: Vec<RowView<'_>> = zero_only.iter().map(RowView::Point).collect();
    let big = data.big_batch(2100);

    let mut online = |name: &str, batch: &[RowView<'_>]| {
        let got = trainer.step_rows(batch, engine);
        let want = reference.step_rows(batch);
        assert_eq!(loss_bits(got), loss_bits(want), "{case} {name}: loss");
        assert_same_state(&trainer, &reference, &format!("{case} {name}"));
    };
    online("dense slab", &dense);
    online("csr slab, wider than the model", &csr);
    online("rows slab", &mixed);
    online("points", &points);
    online("zero coefficients only", &zero_only);
    online("sharded", &big);
    online("dense slab again", &dense);

    let fires: [Vec<Vec<RowView<'_>>>; 4] = [
        vec![
            csr.clone(),
            dense.clone(),
            Vec::new(),
            mixed.clone(),
            points.clone(),
        ],
        vec![wide.clone(), points[..3].to_vec(), csr[..7].to_vec()],
        vec![Vec::new(), Vec::new()],
        vec![
            dense.clone(),
            zero_only.clone(),
            wide.clone(),
            csr.clone(),
            mixed.clone(),
        ],
    ];
    for (f, sources) in fires.iter().enumerate() {
        let got = fused_step(&mut trainer, sources, engine);
        let want = reference.step_fused(sources);
        assert_eq!(
            (loss_bits(got.0), got.1),
            (loss_bits(want.0), want.1),
            "{case} fire {f}: loss and points"
        );
        assert_same_state(&trainer, &reference, &format!("{case} fire {f}"));
        // Online steps between fires reuse the fused step's leftovers on
        // the dense side.
        let got = trainer.step_rows(&points, engine);
        let want = reference.step_rows(&points);
        assert_eq!(loss_bits(got), loss_bits(want), "{case} after fire {f}");
        assert_same_state(&trainer, &reference, &format!("{case} after fire {f}"));
    }
    assert!(
        trainer
            .model()
            .weights()
            .as_slice()
            .iter()
            .all(|w| w.is_finite()),
        "{case}: training diverged, so the comparison proves little"
    );
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

#[test]
fn sparse_runs_match_the_dense_algorithm_on_the_sequential_engine() {
    let mut seed = 0;
    for loss in [LossKind::Hinge, LossKind::Logistic, LossKind::Squared] {
        for kind in optimizers() {
            for regularizer in regularizers() {
                seed += 1;
                run_case(loss, kind, regularizer, ExecutionEngine::Sequential, seed);
            }
        }
    }
}

#[test]
fn sparse_runs_match_the_dense_algorithm_on_threaded_engines() {
    let losses = [LossKind::Hinge, LossKind::Logistic, LossKind::Squared];
    let mut seed = 100;
    for (w, workers) in [1, 2, 4, 8].into_iter().enumerate() {
        let mut combo = 0;
        for kind in optimizers() {
            for regularizer in regularizers() {
                seed += 1;
                combo += 1;
                // Rotating the loss with the worker count meets every
                // optimizer and penalty with every loss on some threaded
                // engine, without a full product per engine.
                let loss = losses[(combo + w) % losses.len()];
                let engine = ExecutionEngine::Threaded { workers };
                run_case(loss, kind, regularizer, engine, seed);
            }
        }
    }
}
