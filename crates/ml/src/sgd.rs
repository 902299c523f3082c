//! Mini-batch stochastic gradient descent (paper Algorithm 1).
//!
//! [`SgdTrainer`] bundles the three things an SGD iteration needs: the model
//! weights, the per-coordinate optimizer state, and the regularizer. One call
//! to [`SgdTrainer::step`] is one iteration of Algorithm 1 — sample, compute
//! the gradient of the loss `J`, update the model. Because the trainer
//! carries everything an iteration depends on, the platform can execute
//! steps at arbitrary times (online updates and proactive training
//! interleaved) and the sequence is still a valid SGD trajectory (§3.3).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cdp_engine::{tree_reduce, EngineError, ExecutionEngine, TaskCtx};
use cdp_linalg::DenseVector;
use cdp_obs::{Metrics, SpanContext, Tracer};
use cdp_storage::{LabeledPoint, RowView};

use crate::accumulator::{GradRun, GradScratch};
use crate::loss::{Loss, LossKind};
use crate::model::LinearModel;
use crate::optimizer::{AdaptiveRate, OptimizerKind, OptimizerState};
use crate::regularizer::Regularizer;

/// Minimum points per gradient shard: below this, sharding overhead
/// (allocating partial gradients) outweighs the parallel win, so a batch
/// runs in-place on the caller's thread.
const GRAD_SHARD_MIN_POINTS: usize = 512;

/// Upper bound on gradient shards per step, so the reduction tree stays
/// shallow and partial-gradient memory stays bounded.
const MAX_GRAD_SHARDS: usize = 8;

/// Number of gradient shards used for a batch of `n` points.
///
/// The count is a function of the batch size **only** — never of the engine
/// or its worker count — so the floating-point summation tree (and thus the
/// resulting weights, bit for bit) is identical no matter which engine runs
/// the shards.
fn gradient_shards(n: usize) -> usize {
    (n / GRAD_SHARD_MIN_POINTS).clamp(1, MAX_GRAD_SHARDS)
}

/// When to stop a multi-epoch `fit`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceCriteria {
    /// Stop when the relative L2 change of the weights over one epoch falls
    /// below this threshold (the paper's "weight vector does not change").
    pub tolerance: f64,
    /// Hard cap on epochs.
    pub max_epochs: usize,
}

impl Default for ConvergenceCriteria {
    fn default() -> Self {
        Self {
            tolerance: 1e-4,
            max_epochs: 100,
        }
    }
}

/// Full configuration for a trainer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// The loss / model family.
    pub loss: LossKind,
    /// Learning-rate adaptation technique.
    pub optimizer: OptimizerKind,
    /// Weight penalty.
    pub regularizer: Regularizer,
    /// Mini-batch size for `fit` (the paper's *sample size*
    /// hyperparameter).
    pub batch_size: usize,
    /// Stopping rule for `fit`.
    pub convergence: ConvergenceCriteria,
    /// Seed for mini-batch shuffling.
    pub shuffle_seed: u64,
}

impl SgdConfig {
    /// A reasonable default configuration for the given loss: Adam(0.01),
    /// L2(1e-3), batches of 128.
    pub fn for_loss(loss: LossKind) -> Self {
        Self {
            loss,
            optimizer: OptimizerKind::adam(0.01),
            regularizer: Regularizer::L2(1e-3),
            batch_size: 128,
            convergence: ConvergenceCriteria::default(),
            shuffle_seed: 42,
        }
    }
}

/// Outcome of a multi-epoch `fit`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// SGD iterations executed during this fit.
    pub steps: u64,
    /// Mean loss (including penalty) before training.
    pub initial_loss: f64,
    /// Mean loss (including penalty) after training.
    pub final_loss: f64,
    /// Whether the tolerance was reached before `max_epochs`.
    pub converged: bool,
}

/// Model + optimizer state + regularizer: the deployable training unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgdTrainer {
    model: LinearModel,
    optimizer: OptimizerState,
    regularizer: Regularizer,
    /// Dense staging buffer for the fused optimizer pass, grown to the model
    /// before each use. All zeros between steps: each step scatters its
    /// gradient run in and clears exactly those coordinates afterwards.
    #[serde(skip)]
    grad: DenseVector,
    /// Recycled per-source gradient runs for every stepping path.
    #[serde(skip)]
    scratch: GradScratch,
    /// Total training examples consumed (for cost accounting).
    points_seen: u64,
}

/// Outcome of one fused transform+gradient step
/// ([`SgdTrainer::try_step_fused_on`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedStepOutcome {
    /// Mean pre-update data loss over all streamed points, or `None` when
    /// every source was empty (no update was performed).
    pub loss: Option<f64>,
    /// Training points consumed by the step.
    pub points: u64,
}

/// One source's share of a step — an online batch, a gradient shard or a
/// proactive chunk: its gradient run, data-loss sum and point count.
struct SourceGrad {
    run: GradRun,
    loss_sum: f64,
    points: u64,
}

impl SourceGrad {
    fn new(run: GradRun) -> Self {
        Self {
            run,
            loss_sum: 0.0,
            points: 0,
        }
    }

    /// Folds one row in: its loss at the (pre-update) model, and
    /// `scale · ∂loss/∂z · row` into the gradient run.
    fn add(&mut self, model: &LinearModel, row: RowView<'_>, scale: f64) {
        let loss = model.loss();
        let z = row.dot_padded(model.weights());
        self.loss_sum += loss.value(z, row.label());
        let coeff = loss.dloss_dz(z, row.label()) * scale;
        if coeff != 0.0 {
            self.run.push_row(coeff, &row);
        }
        self.points += 1;
    }

    fn finish(mut self) -> Self {
        self.run.canonicalize();
        self
    }

    /// Combines sources with the fixed-shape [`tree_reduce`], keyed by
    /// source order alone, recycling every absorbed run.
    fn reduce(parts: Vec<Self>, scratch: &GradScratch) -> Option<Self> {
        tree_reduce(parts, |mut left, right| {
            left.run.merge(&right.run);
            scratch.release(right.run);
            left.loss_sum += right.loss_sum;
            left.points += right.points;
            left
        })
    }
}

impl SgdTrainer {
    /// Creates a zero-initialized trainer of feature dimension `dim`.
    pub fn new(dim: usize, config: &SgdConfig) -> Self {
        Self {
            model: LinearModel::zeros(dim, config.loss),
            optimizer: OptimizerState::new(config.optimizer, dim),
            regularizer: config.regularizer,
            grad: DenseVector::zeros(dim),
            scratch: GradScratch::default(),
            points_seen: 0,
        }
    }

    /// Wraps an existing model (e.g. a warm-started one).
    pub fn with_model(
        model: LinearModel,
        optimizer: OptimizerState,
        regularizer: Regularizer,
    ) -> Self {
        let dim = model.dim();
        Self {
            model,
            optimizer,
            regularizer,
            grad: DenseVector::zeros(dim),
            scratch: GradScratch::default(),
            points_seen: 0,
        }
    }

    /// Rebuilds a trainer from checkpointed state, including the cumulative
    /// `points_seen` counter (unlike [`SgdTrainer::with_model`], which starts
    /// the counter at zero for a fresh warm start).
    pub fn restore(
        model: LinearModel,
        optimizer: OptimizerState,
        regularizer: Regularizer,
        points_seen: u64,
    ) -> Self {
        let mut trainer = Self::with_model(model, optimizer, regularizer);
        trainer.points_seen = points_seen;
        trainer
    }

    /// The deployed model.
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// Mutable access to the deployed model (used for answering queries,
    /// which may grow the weights for wider rows).
    pub fn model_mut(&mut self) -> &mut LinearModel {
        &mut self.model
    }

    /// The optimizer state (serializable for warm starting).
    pub fn optimizer(&self) -> &OptimizerState {
        &self.optimizer
    }

    /// The weight penalty in use.
    pub fn regularizer(&self) -> Regularizer {
        self.regularizer
    }

    /// SGD iterations executed so far (across online + proactive training).
    pub fn steps(&self) -> u64 {
        self.optimizer.steps()
    }

    /// Training examples consumed so far.
    pub fn points_seen(&self) -> u64 {
        self.points_seen
    }

    /// One mini-batch SGD iteration over `batch` (Algorithm 1, lines 3–5),
    /// on the sequential engine. See [`SgdTrainer::step_on`].
    pub fn step<'a, I>(&mut self, batch: I) -> Option<f64>
    where
        I: IntoIterator<Item = &'a LabeledPoint>,
    {
        self.step_on(batch, ExecutionEngine::Sequential)
    }

    /// One mini-batch SGD iteration over `batch` (Algorithm 1, lines 3–5),
    /// computing the gradient on `engine`.
    ///
    /// Batches of at least 1024 points are split into up to eight
    /// contiguous shards (512 or more points each; see `gradient_shards`)
    /// whose sparse partial gradients are combined with a fixed-shape
    /// [`tree_reduce`]; because the shard structure depends only on the
    /// batch size, every engine produces bit-identical weights. Small
    /// batches (the online path) accumulate one run inline with no sharding.
    /// Either way the update itself is one fused regularizer+optimizer pass.
    ///
    /// Returns the mean data loss of the batch *before* the update, or
    /// `None` for an empty batch (no update is performed).
    pub fn step_on<'a, I>(&mut self, batch: I, engine: ExecutionEngine) -> Option<f64>
    where
        I: IntoIterator<Item = &'a LabeledPoint>,
    {
        self.step_on_traced(
            batch,
            engine,
            &Metrics::disabled(),
            &Tracer::disabled(),
            None,
        )
    }

    /// [`SgdTrainer::step_on`] with causal spans: a sharded step opens a
    /// `trainer.step` span under `parent` whose `engine.map` → `engine.task`
    /// children land on the worker threads computing partial gradients.
    /// Unsharded (small-batch) steps run inline and record nothing — they
    /// involve no engine dispatch to explain.
    pub fn step_on_traced<'a, I>(
        &mut self,
        batch: I,
        engine: ExecutionEngine,
        metrics: &Metrics,
        tracer: &Tracer,
        parent: Option<SpanContext>,
    ) -> Option<f64>
    where
        I: IntoIterator<Item = &'a LabeledPoint>,
    {
        let batch: Vec<RowView<'a>> = batch.into_iter().map(RowView::Point).collect();
        self.step_rows_traced(&batch, engine, metrics, tracer, parent)
    }

    /// One mini-batch SGD iteration over zero-copy columnar row views — the
    /// allocation-free twin of [`SgdTrainer::step_on`]. The model is grown
    /// to the widest row *before* any arithmetic, after which the padded row
    /// operations ([`RowView::dot_padded`], [`RowView::for_each_touched`])
    /// are bit-identical to the exact-width row-layout operations they
    /// replaced.
    pub fn step_rows(&mut self, batch: &[RowView<'_>], engine: ExecutionEngine) -> Option<f64> {
        self.step_rows_traced(
            batch,
            engine,
            &Metrics::disabled(),
            &Tracer::disabled(),
            None,
        )
    }

    /// [`SgdTrainer::step_rows`] with causal spans — the core every stepping
    /// path funnels through. See [`SgdTrainer::step_on_traced`] for the span
    /// semantics.
    pub fn step_rows_traced(
        &mut self,
        batch: &[RowView<'_>],
        engine: ExecutionEngine,
        metrics: &Metrics,
        tracer: &Tracer,
        parent: Option<SpanContext>,
    ) -> Option<f64> {
        if batch.is_empty() {
            return None;
        }
        // Grow the model to the widest row in the batch, so every padded row
        // op below degenerates to the exact-width op (bit-identity).
        let max_dim = batch.iter().map(|r| r.dim()).max().unwrap_or(0);
        if max_dim > self.model.dim() {
            self.model.grow_to(max_dim);
        }
        let inv_batch = 1.0 / batch.len() as f64;
        let shards = gradient_shards(batch.len());
        let source = if shards == 1 {
            let mut source = SourceGrad::new(self.scratch.acquire());
            for row in batch {
                source.add(&self.model, *row, inv_batch);
            }
            source.finish()
        } else {
            let step_span = tracer.child_of("trainer.step", parent);
            let shard_len = batch.len().div_ceil(shards);
            let model = &self.model;
            let scratch = &self.scratch;
            // Shards borrow contiguous index ranges of the batch directly —
            // no per-shard `Vec` of point refs — and accumulate into
            // recycled scratch runs rather than freshly allocated ones.
            let parts = engine.map_indexed(
                batch.len().div_ceil(shard_len),
                |p| {
                    let mut source = SourceGrad::new(scratch.acquire());
                    for row in &batch[p * shard_len..batch.len().min((p + 1) * shard_len)] {
                        source.add(model, *row, inv_batch);
                    }
                    source.finish()
                },
                &TaskCtx {
                    metrics,
                    tracer,
                    parent: step_span.context(),
                    ..TaskCtx::plain()
                },
            );
            match SourceGrad::reduce(parts, scratch) {
                Some(source) => source,
                // Infallible: a non-empty batch yields at least one shard.
                None => unreachable!("at least one shard for a non-empty batch"),
            }
        };
        // Every coefficient already carries the `1/batch` mean.
        self.apply_run(source.run, 1.0, engine);
        self.points_seen += batch.len() as u64;
        Some(source.loss_sum * inv_batch)
    }

    /// Consumes a stream chunk once, in mini-batches of `batch_size` — the
    /// platform's *online learning* path — over zero-copy columnar row
    /// views, so the store's chunks stream straight into mini-batches
    /// without ever reconstructing a `LabeledPoint` per row. Gradients are
    /// computed on `engine` (only batches of ≥ 1024 rows actually shard —
    /// see [`SgdTrainer::step_on`]).
    ///
    /// Returns the mean pre-update loss over the chunk, or `None` when the
    /// chunk is empty.
    pub fn online_pass_rows(
        &mut self,
        rows: &[RowView<'_>],
        batch_size: usize,
        engine: ExecutionEngine,
    ) -> Option<f64> {
        if rows.is_empty() {
            return None;
        }
        let batch_size = batch_size.max(1);
        let mut total = 0.0;
        let mut count = 0usize;
        for batch in rows.chunks(batch_size) {
            if let Some(loss) = self.step_rows(batch, engine) {
                total += loss * batch.len() as f64;
                count += batch.len();
            }
        }
        (count > 0).then(|| total / count as f64)
    }

    /// Multi-epoch training to convergence over an in-memory dataset — the
    /// paper's *initial training* and the periodical baseline's *retraining*.
    pub fn fit(&mut self, data: &[LabeledPoint], config: &SgdConfig) -> TrainReport {
        self.fit_on(data, config, ExecutionEngine::Sequential)
    }

    /// [`SgdTrainer::fit`] with gradient and objective evaluation on
    /// `engine`. Shard structure depends only on data/batch sizes, so every
    /// engine converges through bit-identical weight trajectories.
    pub fn fit_on(
        &mut self,
        data: &[LabeledPoint],
        config: &SgdConfig,
        engine: ExecutionEngine,
    ) -> TrainReport {
        self.fit_on_traced(
            data,
            config,
            engine,
            &Metrics::disabled(),
            &Tracer::disabled(),
            None,
        )
    }

    /// [`SgdTrainer::fit_on`] with causal spans: the whole fit runs under a
    /// `trainer.fit` span (child of `parent`), and both objective
    /// evaluations plus every sharded step hang their `engine.map` trees
    /// off it. Because [`SgdTrainer::objective_on`] always dispatches
    /// through the engine, a traced fit on a threaded engine yields a
    /// cross-thread span tree at any data size.
    pub fn fit_on_traced(
        &mut self,
        data: &[LabeledPoint],
        config: &SgdConfig,
        engine: ExecutionEngine,
        metrics: &Metrics,
        tracer: &Tracer,
        parent: Option<SpanContext>,
    ) -> TrainReport {
        let fit_span = tracer.child_of("trainer.fit", parent);
        let fit_ctx = fit_span.context();
        let steps_before = self.optimizer.steps();
        // Rows may be wider than the model when the encoder's feature space
        // grew during preprocessing (one-hot vocabulary growth).
        if let Some(max_dim) = data.iter().map(|p| p.features.dim()).max() {
            self.model.grow_to(max_dim);
        }
        let initial_loss = self.objective_on_traced(data, engine, metrics, tracer, fit_ctx);
        if data.is_empty() {
            return TrainReport {
                epochs: 0,
                steps: 0,
                initial_loss,
                final_loss: initial_loss,
                converged: true,
            };
        }
        let mut rng = StdRng::seed_from_u64(config.shuffle_seed);
        let mut indices: Vec<usize> = (0..data.len()).collect();
        let mut converged = false;
        let mut epochs = 0;
        // One snapshot buffer serves every epoch: a fresh clone per epoch
        // would allocate (and page-fault) a model-sized vector each time.
        let mut weights_before = DenseVector::default();
        for _ in 0..config.convergence.max_epochs {
            epochs += 1;
            weights_before.clone_from(self.model.weights());
            indices.shuffle(&mut rng);
            for batch_idx in indices.chunks(config.batch_size.max(1)) {
                let batch = batch_idx.iter().map(|&i| &data[i]);
                self.step_on_traced(batch, engine, metrics, tracer, fit_ctx);
            }
            // `‖after − before‖` without materializing the difference; the
            // same IEEE operations as `after + (−1)·before`, then the norm.
            let change = match self.model.weights().distance_sq(&weights_before) {
                Ok(sq) => sq.sqrt(),
                // Infallible: both snapshots come from the same model, whose
                // dimension only grew before the epoch started.
                Err(e) => unreachable!("epoch weight snapshots share a dimension: {e}"),
            };
            let denom = weights_before.norm_l2().max(1e-12);
            if change / denom < config.convergence.tolerance {
                converged = true;
                break;
            }
        }
        TrainReport {
            epochs,
            steps: self.optimizer.steps() - steps_before,
            initial_loss,
            final_loss: self.objective_on_traced(data, engine, metrics, tracer, fit_ctx),
            converged,
        }
    }

    /// Mean data loss plus penalty over a dataset (no update), on the
    /// sequential engine. See [`SgdTrainer::objective_on`].
    pub fn objective(&self, data: &[LabeledPoint]) -> f64 {
        self.objective_on(data, ExecutionEngine::Sequential)
    }

    /// Mean data loss plus penalty over a dataset (no update), evaluated on
    /// `engine`. Rows must not be wider than the model;
    /// [`SgdTrainer::fit_on`] grows the model before calling this.
    ///
    /// Per-shard loss sums are combined with a fixed-shape [`tree_reduce`]
    /// whose structure depends only on `data.len()`, so the value is
    /// bit-identical across engines.
    pub fn objective_on(&self, data: &[LabeledPoint], engine: ExecutionEngine) -> f64 {
        self.objective_on_traced(
            data,
            engine,
            &Metrics::disabled(),
            &Tracer::disabled(),
            None,
        )
    }

    /// [`SgdTrainer::objective_on`] with causal spans: the engine dispatch
    /// appears as an `engine.map` (with per-shard `engine.task` children)
    /// under `parent`. Unlike gradient steps this *always* goes through the
    /// engine, regardless of data size.
    pub fn objective_on_traced(
        &self,
        data: &[LabeledPoint],
        engine: ExecutionEngine,
        metrics: &Metrics,
        tracer: &Tracer,
        parent: Option<SpanContext>,
    ) -> f64 {
        if data.is_empty() {
            return self.regularizer.penalty(self.model.weights());
        }
        let loss = self.model.loss();
        let model = &self.model;
        let shards = gradient_shards(data.len());
        let shard_len = data.len().div_ceil(shards);
        let sums: Vec<f64> = engine.map_indexed(
            data.len().div_ceil(shard_len),
            |s| {
                data[s * shard_len..data.len().min((s + 1) * shard_len)]
                    .iter()
                    .map(|p| loss.value(model.margin_ref(&p.features), p.label))
                    .sum::<f64>()
            },
            &TaskCtx {
                metrics,
                tracer,
                parent,
                ..TaskCtx::plain()
            },
        );
        let mean = tree_reduce(sums, |a, b| a + b).unwrap_or(0.0) / data.len() as f64;
        mean + self.regularizer.penalty(self.model.weights())
    }

    /// One fused transform+gradient SGD iteration over `n_sources` lazily
    /// streamed row sources (the proactive re-materialization path).
    ///
    /// `access(i, sink)` must stream every row of source `i` into `sink`, in
    /// source order — as zero-copy [`RowView`]s, so already-materialized
    /// columnar chunks stream without reconstructing points while freshly
    /// transformed points wrap in [`RowView::Point`]. The engine task for
    /// source `i` folds each streamed row straight into a recycled sparse
    /// gradient run — no intermediate `FeatureChunk`, per-shard point
    /// buffer or dense per-source gradient is ever materialized.
    ///
    /// Determinism: per-source runs accumulate *unscaled* loss derivatives
    /// (the total point count is only known after all sources ran), are
    /// combined with a fixed-shape [`tree_reduce`] keyed by source index,
    /// and the fused optimizer pass scales the sum by `1/points`. Rows wider
    /// than the model use [`RowView::dot_padded`] and record their width in
    /// the run, so parallel tasks never mutate the shared model; it grows
    /// only after the reduce. The result therefore depends on the source
    /// contents and order alone — never on worker count or steal schedule.
    ///
    /// The engine call runs under `ctx`: its hook may inject worker faults,
    /// and a `trainer.step` span under `ctx.parent` parents the
    /// `engine.map`.
    ///
    /// # Errors
    /// Propagates [`EngineError`] when `ctx.hook` injects a fatal worker
    /// panic (after the engine's restart-once recovery is exhausted) or the
    /// worker pool could not be spawned. The model is untouched in either
    /// case.
    pub fn try_step_fused_on<A>(
        &mut self,
        n_sources: usize,
        access: A,
        engine: ExecutionEngine,
        ctx: &TaskCtx<'_>,
    ) -> Result<FusedStepOutcome, EngineError>
    where
        A: Fn(usize, &mut dyn FnMut(RowView<'_>)) + Sync,
    {
        if n_sources == 0 {
            return Ok(FusedStepOutcome {
                loss: None,
                points: 0,
            });
        }
        let step_span = ctx.tracer.child_of("trainer.step", ctx.parent);
        let model = &self.model;
        let scratch = &self.scratch;
        let parts = engine.try_map_indexed(
            n_sources,
            |i| {
                let mut source = SourceGrad::new(scratch.acquire());
                access(i, &mut |row: RowView<'_>| source.add(model, row, 1.0));
                source.finish()
            },
            &TaskCtx {
                parent: step_span.context(),
                ..*ctx
            },
        )?;
        let source = match SourceGrad::reduce(parts, scratch) {
            Some(source) => source,
            // Infallible: `n_sources == 0` returned early above.
            None => unreachable!("at least one source"),
        };
        if source.points == 0 {
            self.scratch.release(source.run);
            return Ok(FusedStepOutcome {
                loss: None,
                points: 0,
            });
        }
        let inv_points = 1.0 / source.points as f64;
        // Only now, after the reduce, is it safe to grow the shared model.
        self.apply_run(source.run, inv_points, engine);
        self.points_seen += source.points;
        Ok(FusedStepOutcome {
            loss: Some(source.loss_sum * inv_points),
            points: source.points,
        })
    }

    /// Applies a reduced gradient run: grows the model to the run's width,
    /// then makes one fused regularizer+optimizer pass over `run · scale`,
    /// split into fixed coordinate ranges on `engine`.
    fn apply_run(&mut self, run: GradRun, scale: f64, engine: ExecutionEngine) {
        self.model.grow_to(run.width());
        self.grad.grow_to(self.model.dim());
        run.scatter(self.grad.as_mut_slice());
        self.optimizer.apply_regularized(
            self.model.weights_mut(),
            &self.grad,
            scale,
            self.regularizer,
            engine,
        );
        run.unscatter(self.grad.as_mut_slice());
        self.scratch.release(run);
    }

    /// Cumulative `(reused, allocated)` scratch-gradient acquisition counts,
    /// for observability (surfaced as `engine.scratch_*` histogram samples).
    pub fn scratch_counters(&self) -> (u64, u64) {
        self.scratch.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_linalg::Vector;
    use rand::RngExt;

    fn make_config(loss: LossKind) -> SgdConfig {
        SgdConfig {
            loss,
            optimizer: OptimizerKind::adam(0.05),
            regularizer: Regularizer::L2(1e-4),
            batch_size: 16,
            convergence: ConvergenceCriteria {
                tolerance: 1e-5,
                max_epochs: 200,
            },
            shuffle_seed: 7,
        }
    }

    /// Linearly separable 2-D blobs (plus a bias coordinate).
    fn blobs(n: usize, seed: u64) -> Vec<LabeledPoint> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let y: f64 = if rng.random::<bool>() { 1.0 } else { -1.0 };
                let x1 = 2.0 * y + rng.random_range(-0.5..0.5);
                let x2 = -y + rng.random_range(-0.5..0.5);
                LabeledPoint::new(y, Vector::from(vec![x1, x2, 1.0]))
            })
            .collect()
    }

    /// Points as the row views the online path consumes.
    fn point_rows(points: &[LabeledPoint]) -> Vec<RowView<'_>> {
        points.iter().map(RowView::Point).collect()
    }

    /// y = 3·x1 − 2·x2 + 1 with small noise.
    fn linear_data(n: usize, seed: u64) -> Vec<LabeledPoint> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x1: f64 = rng.random_range(-1.0..1.0);
                let x2: f64 = rng.random_range(-1.0..1.0);
                let y = 3.0 * x1 - 2.0 * x2 + 1.0 + rng.random_range(-0.01..0.01);
                LabeledPoint::new(y, Vector::from(vec![x1, x2, 1.0]))
            })
            .collect()
    }

    #[test]
    fn svm_separates_blobs() {
        let data = blobs(300, 1);
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        let report = trainer.fit(&data, &config);
        assert!(report.final_loss < report.initial_loss);
        let errors = data
            .iter()
            .filter(|p| trainer.model_mut().predict(&p.features) != p.label)
            .count();
        assert!(
            (errors as f64) / (data.len() as f64) < 0.05,
            "error rate {}",
            errors as f64 / data.len() as f64
        );
    }

    #[test]
    fn logistic_separates_blobs() {
        let data = blobs(300, 2);
        let config = make_config(LossKind::Logistic);
        let mut trainer = SgdTrainer::new(3, &config);
        trainer.fit(&data, &config);
        let errors = data
            .iter()
            .filter(|p| trainer.model_mut().predict(&p.features) != p.label)
            .count();
        assert!((errors as f64) / (data.len() as f64) < 0.05);
    }

    #[test]
    fn linear_regression_recovers_coefficients() {
        let data = linear_data(500, 3);
        let mut config = make_config(LossKind::Squared);
        config.optimizer = OptimizerKind::adam(0.05);
        config.regularizer = Regularizer::None;
        config.convergence.max_epochs = 400;
        let mut trainer = SgdTrainer::new(3, &config);
        let report = trainer.fit(&data, &config);
        let w = trainer.model().weights();
        assert!((w[0] - 3.0).abs() < 0.1, "w0={}", w[0]);
        assert!((w[1] + 2.0).abs() < 0.1, "w1={}", w[1]);
        assert!((w[2] - 1.0).abs() < 0.1, "w2={}", w[2]);
        assert!(report.final_loss < 0.01);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        assert_eq!(trainer.step(std::iter::empty()), None);
        assert_eq!(trainer.steps(), 0);
        assert_eq!(
            trainer.online_pass_rows(&[], 8, ExecutionEngine::Sequential),
            None
        );
    }

    #[test]
    fn step_counts_points_and_iterations() {
        let data = blobs(32, 4);
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        trainer.step(data.iter().take(10));
        assert_eq!(trainer.steps(), 1);
        assert_eq!(trainer.points_seen(), 10);
        trainer.online_pass_rows(&point_rows(&data), 8, ExecutionEngine::Sequential);
        assert_eq!(trainer.steps(), 1 + 4);
        assert_eq!(trainer.points_seen(), 10 + 32);
    }

    #[test]
    fn interleaved_steps_equal_contiguous_fit_steps() {
        // Conditional independence: running the same batches through `step`
        // in two bursts gives the same weights as one burst.
        let data = blobs(64, 5);
        let config = make_config(LossKind::Logistic);
        let mut a = SgdTrainer::new(3, &config);
        let mut b = SgdTrainer::new(3, &config);
        let batches: Vec<&[LabeledPoint]> = data.chunks(8).collect();
        for batch in &batches {
            a.step(batch.iter());
        }
        for batch in &batches[..4] {
            b.step(batch.iter());
        }
        // ... arbitrary pause (other work happens here) ...
        for batch in &batches[4..] {
            b.step(batch.iter());
        }
        assert_eq!(a.model().weights(), b.model().weights());
    }

    #[test]
    fn warm_start_resumes_from_state() {
        let data = blobs(200, 6);
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        trainer.fit(&data, &config);
        let snapshot = trainer.clone();
        // Re-create from the snapshot's parts: identical behaviour.
        let mut resumed = SgdTrainer::with_model(
            snapshot.model().clone(),
            snapshot.optimizer().clone(),
            snapshot.regularizer(),
        );
        let batch: Vec<&LabeledPoint> = data.iter().take(8).collect();
        let mut orig = trainer.clone();
        let l1 = orig.step(batch.clone());
        let l2 = resumed.step(batch);
        assert_eq!(l1, l2);
        assert_eq!(orig.model().weights(), resumed.model().weights());
    }

    #[test]
    fn growing_feature_space_is_handled() {
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(2, &config);
        trainer.step([&LabeledPoint::new(1.0, Vector::from(vec![1.0, 0.5]))]);
        // A wider row arrives later (new features appeared in the stream).
        trainer.step([&LabeledPoint::new(
            -1.0,
            Vector::from(vec![0.1, 0.2, 0.9, 1.0]),
        )]);
        assert_eq!(trainer.model().dim(), 4);
    }

    #[test]
    fn fit_converges_and_reports() {
        let data = blobs(100, 8);
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        let report = trainer.fit(&data, &config);
        assert!(report.epochs >= 1);
        assert!(report.steps >= report.epochs as u64);
        assert!(report.final_loss <= report.initial_loss);
    }

    #[test]
    fn sharded_step_is_bit_identical_across_engines() {
        // 2000 points force the sharded gradient path (≥ 512 per shard).
        let data = blobs(2000, 11);
        let config = make_config(LossKind::Logistic);
        let mut sequential = SgdTrainer::new(3, &config);
        let seq_loss = sequential
            .step_on(data.iter(), ExecutionEngine::Sequential)
            .expect("non-empty batch");
        for workers in [1, 2, 3, 7] {
            let mut threaded = SgdTrainer::new(3, &config);
            let thr_loss = threaded
                .step_on(data.iter(), ExecutionEngine::Threaded { workers })
                .expect("non-empty batch");
            assert_eq!(
                sequential.model().weights(),
                threaded.model().weights(),
                "weights diverged at workers={workers}"
            );
            assert_eq!(seq_loss.to_bits(), thr_loss.to_bits());
        }
    }

    #[test]
    fn columnar_rows_step_is_bit_identical_to_point_step() {
        use cdp_storage::{FeatureChunk, Timestamp};
        // 2000 points force the sharded path; the slab round-trip must not
        // perturb a single bit of the resulting weights or loss.
        let data = blobs(2000, 17);
        let config = make_config(LossKind::Logistic);
        let mut on_points = SgdTrainer::new(3, &config);
        let point_loss = on_points
            .step_on(data.iter(), ExecutionEngine::Sequential)
            .expect("non-empty batch");
        let chunk = FeatureChunk::new(Timestamp(0), Timestamp(0), data.clone());
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 3 },
        ] {
            let mut on_rows = SgdTrainer::new(3, &config);
            let rows: Vec<RowView<'_>> = chunk.rows().collect();
            let row_loss = on_rows.step_rows(&rows, engine).expect("non-empty batch");
            assert_eq!(
                on_points.model().weights(),
                on_rows.model().weights(),
                "columnar rows diverged from points on {engine:?}"
            );
            assert_eq!(point_loss.to_bits(), row_loss.to_bits());
        }
    }

    #[test]
    fn fit_is_bit_identical_across_engines() {
        let data = linear_data(1500, 12);
        let mut config = make_config(LossKind::Squared);
        config.batch_size = 600; // large enough to shard every step
        config.convergence.max_epochs = 5;
        let mut sequential = SgdTrainer::new(3, &config);
        let report_seq = sequential.fit_on(&data, &config, ExecutionEngine::Sequential);
        let mut threaded = SgdTrainer::new(3, &config);
        let report_thr = threaded.fit_on(&data, &config, ExecutionEngine::Threaded { workers: 4 });
        assert_eq!(sequential.model().weights(), threaded.model().weights());
        assert_eq!(
            report_seq.final_loss.to_bits(),
            report_thr.final_loss.to_bits()
        );
        assert_eq!(
            report_seq.initial_loss.to_bits(),
            report_thr.initial_loss.to_bits()
        );
        assert_eq!(report_seq.epochs, report_thr.epochs);
    }

    #[test]
    fn objective_is_bit_identical_across_engines() {
        let data = blobs(3000, 13);
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        trainer.online_pass_rows(&point_rows(&data[..200]), 32, ExecutionEngine::Sequential);
        let seq = trainer.objective_on(&data, ExecutionEngine::Sequential);
        for workers in [1, 2, 5] {
            let thr = trainer.objective_on(&data, ExecutionEngine::Threaded { workers });
            assert_eq!(
                seq.to_bits(),
                thr.to_bits(),
                "objective diverged at workers={workers}"
            );
        }
    }

    #[test]
    fn fused_step_is_bit_identical_across_engines_and_reuses_scratch() {
        let data = blobs(2000, 21);
        let config = make_config(LossKind::Logistic);
        let chunks: Vec<&[LabeledPoint]> = data.chunks(250).collect();
        let access = |i: usize, sink: &mut dyn FnMut(RowView<'_>)| {
            for p in chunks[i] {
                sink(RowView::Point(p));
            }
        };
        let run = |engine: ExecutionEngine| {
            let mut t = SgdTrainer::new(3, &config);
            let first = t
                .try_step_fused_on(chunks.len(), access, engine, &TaskCtx::plain())
                .unwrap();
            let second = t
                .try_step_fused_on(chunks.len(), access, engine, &TaskCtx::plain())
                .unwrap();
            (t, first, second)
        };
        let (reference, ref_first, ref_second) = run(ExecutionEngine::Sequential);
        assert_eq!(ref_first.points, data.len() as u64);
        assert!(ref_second.loss.unwrap() < ref_first.loss.unwrap());
        // The second step must find recycled buffers from the first.
        let (reused, allocated) = reference.scratch_counters();
        assert!(reused > 0, "reused={reused} allocated={allocated}");
        for workers in [1, 2, 4, 8] {
            let (t, first, second) = run(ExecutionEngine::Threaded { workers });
            assert_eq!(
                reference.model().weights(),
                t.model().weights(),
                "fused weights diverged at workers={workers}"
            );
            assert_eq!(
                ref_first.loss.unwrap().to_bits(),
                first.loss.unwrap().to_bits()
            );
            assert_eq!(
                ref_second.loss.unwrap().to_bits(),
                second.loss.unwrap().to_bits()
            );
        }
        // Zero sources and all-empty sources are no-ops.
        let mut t = SgdTrainer::new(3, &config);
        let out = t
            .try_step_fused_on(0, |_, _| {}, ExecutionEngine::Sequential, &TaskCtx::plain())
            .unwrap();
        assert_eq!(
            out,
            FusedStepOutcome {
                loss: None,
                points: 0
            }
        );
        let out = t
            .try_step_fused_on(3, |_, _| {}, ExecutionEngine::Sequential, &TaskCtx::plain())
            .unwrap();
        assert_eq!(
            out,
            FusedStepOutcome {
                loss: None,
                points: 0
            }
        );
        assert_eq!(t.steps(), 0);
    }

    #[test]
    fn fused_step_grows_the_model_only_after_the_reduce() {
        let config = make_config(LossKind::Hinge);
        // Sources of different widths: the widest row wins, and the model
        // reaches it only after the deterministic combine.
        let narrow = vec![LabeledPoint::new(1.0, Vector::from(vec![1.0, 0.5]))];
        let wide = vec![LabeledPoint::new(
            -1.0,
            Vector::from(vec![0.1, 0.2, 0.9, 1.0]),
        )];
        let sources = [narrow, wide];
        let mut t = SgdTrainer::new(2, &config);
        let out = t
            .try_step_fused_on(
                sources.len(),
                |i, sink: &mut dyn FnMut(RowView<'_>)| {
                    for p in &sources[i] {
                        sink(RowView::Point(p));
                    }
                },
                ExecutionEngine::Threaded { workers: 2 },
                &TaskCtx::plain(),
            )
            .unwrap();
        assert_eq!(out.points, 2);
        assert_eq!(t.model().dim(), 4);
    }

    #[test]
    fn traced_fit_is_bit_identical_and_builds_a_span_tree() {
        let data = linear_data(1500, 14);
        let mut config = make_config(LossKind::Squared);
        config.batch_size = 1100; // ≥ 2·GRAD_SHARD_MIN_POINTS ⇒ sharded steps
        config.convergence.max_epochs = 3;
        let engine = ExecutionEngine::Threaded { workers: 2 };

        let mut plain = SgdTrainer::new(3, &config);
        let report_plain = plain.fit_on(&data, &config, engine);

        let tracer = Tracer::collecting();
        let mut traced = SgdTrainer::new(3, &config);
        let report_traced =
            traced.fit_on_traced(&data, &config, engine, &Metrics::disabled(), &tracer, None);

        // Tracing must not perturb training in any way.
        assert_eq!(plain.model().weights(), traced.model().weights());
        assert_eq!(
            report_plain.final_loss.to_bits(),
            report_traced.final_loss.to_bits()
        );

        let snap = tracer.snapshot();
        snap.validate().unwrap();
        assert_eq!(snap.span_count("trainer.fit"), 1);
        assert!(snap.span_count("trainer.step") >= 1);
        // Two objective maps plus one per sharded step.
        assert!(snap.span_count("engine.map") >= 3);
        assert!(snap.crosses_threads());
        let fit = snap.roots()[0];
        assert_eq!(fit.name, "trainer.fit");
        for step in snap.spans.iter().filter(|s| s.name == "trainer.step") {
            assert_eq!(snap.parent_name(step), Some("trainer.fit"));
        }
    }

    #[test]
    fn regularization_shrinks_weights() {
        let data = linear_data(200, 9);
        let mut weak = make_config(LossKind::Squared);
        weak.regularizer = Regularizer::None;
        let mut strong = weak;
        strong.regularizer = Regularizer::L2(1.0);
        let mut t_weak = SgdTrainer::new(3, &weak);
        let mut t_strong = SgdTrainer::new(3, &strong);
        t_weak.fit(&data, &weak);
        t_strong.fit(&data, &strong);
        assert!(t_strong.model().weights().norm_l2() < t_weak.model().weights().norm_l2());
    }
}
