//! The pipeline manager (paper §4.3): owns the deployed pipeline and model,
//! processes training data and prediction queries, and re-materializes
//! evicted feature chunks.

use std::sync::{Arc, OnceLock};

use cdp_engine::{EngineError, ExecutionEngine, TaskCtx};
use cdp_eval::{CostLedger, PrequentialEvaluator};
use cdp_faults::{FaultHook, NoFaults};
use cdp_ml::{FusedStepOutcome, SgdConfig, SgdTrainer, TrainReport};
use cdp_obs::{LineageEventKind, Metrics, SpanContext, Tracer};
use cdp_pipeline::{Pipeline, PipelineCounters};
use cdp_storage::{FeatureChunk, LabeledPoint, RawChunk, RowView};

/// One input to a fused proactive SGD step: either an already-materialized
/// feature chunk (used as-is) or a raw chunk that must be re-materialized —
/// which the fused path streams through a pipeline clone straight into the
/// gradient accumulator, never allocating the intermediate [`FeatureChunk`].
#[derive(Debug, Clone)]
pub enum ProactiveSource {
    /// Feature chunk already available (cache hit or disk spill tier).
    Ready(Arc<FeatureChunk>),
    /// Evicted chunk: only the raw data survives; transform on the fly.
    Raw(Arc<RawChunk>),
}

/// Pipeline + model + online learner, with cost attribution.
///
/// Every raw chunk flows through here exactly as in the paper's workflow:
/// the same deployed pipeline preprocesses training data (with statistic
/// updates) and prediction queries (transform-only), guaranteeing
/// train/serve consistency.
#[derive(Debug)]
pub struct PipelineManager {
    pipeline: Pipeline,
    trainer: SgdTrainer,
    online_batch: usize,
    engine: ExecutionEngine,
    hook: Arc<dyn FaultHook>,
    metrics: Metrics,
    tracer: Tracer,
    trace_scope: Option<SpanContext>,
    counters_base: PipelineCounters,
    points_base: u64,
    steps_base: u64,
    scratch_base: (u64, u64),
}

impl PipelineManager {
    /// Deploys `pipeline` with a fresh model trained by `sgd`.
    pub fn new(pipeline: Pipeline, sgd: &SgdConfig, online_batch: usize) -> Self {
        let dim = pipeline.dim();
        Self {
            trainer: SgdTrainer::new(dim, sgd),
            counters_base: pipeline.counters(),
            pipeline,
            online_batch: online_batch.max(1),
            engine: ExecutionEngine::Sequential,
            hook: Arc::new(NoFaults),
            metrics: Metrics::disabled(),
            tracer: Tracer::disabled(),
            trace_scope: None,
            points_base: 0,
            steps_base: 0,
            scratch_base: (0, 0),
        }
    }

    /// Deploys `pipeline` with an existing trainer (warm starting).
    pub fn with_trainer(pipeline: Pipeline, trainer: SgdTrainer, online_batch: usize) -> Self {
        Self {
            counters_base: pipeline.counters(),
            points_base: trainer.points_seen(),
            steps_base: trainer.steps(),
            scratch_base: trainer.scratch_counters(),
            pipeline,
            trainer,
            online_batch: online_batch.max(1),
            engine: ExecutionEngine::Sequential,
            hook: Arc::new(NoFaults),
            metrics: Metrics::disabled(),
            tracer: Tracer::disabled(),
            trace_scope: None,
        }
    }

    /// Runs every batch operation (initial fit, warm retraining, chunk
    /// re-materialization, sharded gradient steps) on `engine`. All results
    /// and accounted costs are bit-identical across engines; only wall-clock
    /// time changes.
    pub fn with_engine(mut self, engine: ExecutionEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Routes engine-level fault decisions (injected worker panics, delays)
    /// through `hook`. The default hook injects nothing.
    pub fn with_fault_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.hook = hook;
        self
    }

    /// Records engine behaviour (map calls, task counts, worker restarts,
    /// map latency) for every batch operation into `metrics`. The default
    /// handle is disabled and adds no overhead.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Records causal spans for every batch operation into `tracer`: engine
    /// maps, their per-worker tasks, and sharded gradient steps all become
    /// children of the manager's current trace scope. The default tracer is
    /// disabled and adds no overhead.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Sets the span all subsequent batch operations are parented under
    /// (e.g. the deployment driver's per-chunk span). `None` detaches:
    /// operations become roots of their own traces.
    pub fn set_trace_scope(&mut self, scope: Option<SpanContext>) {
        self.trace_scope = scope;
    }

    /// The execution engine batch operations run on.
    pub fn engine(&self) -> ExecutionEngine {
        self.engine
    }

    /// The deployed pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The deployed trainer (model + optimizer state).
    pub fn trainer(&self) -> &SgdTrainer {
        &self.trainer
    }

    /// Mutable trainer access (the proactive trainer's handle).
    pub fn trainer_mut(&mut self) -> &mut SgdTrainer {
        &mut self.trainer
    }

    /// Snapshots `(pipeline, trainer)` — everything warm starting needs.
    pub fn snapshot(&self) -> (Pipeline, SgdTrainer) {
        (self.pipeline.clone(), self.trainer.clone())
    }

    /// Charges all pipeline work done since the last call to the ledger's
    /// preprocessing phase, and all SGD work to the training phase.
    pub fn drain_charges(&mut self, ledger: &mut CostLedger) {
        let now = self.pipeline.counters();
        ledger.charge_parse(now.parsed_records - self.counters_base.parsed_records);
        ledger.charge_stat_updates(now.update_rows - self.counters_base.update_rows);
        ledger.charge_transforms(now.transform_rows - self.counters_base.transform_rows);
        ledger.charge_encode(now.encoded_points - self.counters_base.encoded_points);
        self.counters_base = now;

        let points = self.trainer.points_seen() - self.points_base;
        let steps = self.trainer.steps() - self.steps_base;
        ledger.charge_sgd_step(points, steps * self.trainer.model().dim() as u64);
        self.points_base = self.trainer.points_seen();
        self.steps_base = self.trainer.steps();

        // Scratch-buffer traffic since the last drain. The reuse/alloc split
        // depends on worker timing (two shards can race an empty pool), so it
        // surfaces as histogram samples — never as counters, which the
        // tracing-is-inert test compares bit-for-bit across runs.
        let (reused, allocated) = self.trainer.scratch_counters();
        let delta_reused = reused.saturating_sub(self.scratch_base.0);
        let delta_allocated = allocated.saturating_sub(self.scratch_base.1);
        if delta_reused > 0 {
            self.metrics
                .histogram("engine.scratch_reuse")
                .observe(delta_reused as f64);
        }
        if delta_allocated > 0 {
            self.metrics
                .histogram("engine.scratch_alloc")
                .observe(delta_allocated as f64);
        }
        self.scratch_base = (reused, allocated);
    }

    /// Initial training (paper §5.1 "Deployment process"): fit the pipeline
    /// statistics over all initial chunks, then train the model to
    /// convergence on the full transformed dataset. Returns the training
    /// report and the transformed feature chunks (so the deployment driver
    /// can seed the data manager's history with them).
    pub fn initial_fit(
        &mut self,
        chunks: &[RawChunk],
        sgd: &SgdConfig,
        ledger: &mut CostLedger,
    ) -> (TrainReport, Vec<FeatureChunk>) {
        let mut feature_chunks = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            self.metrics
                .lineage(chunk.timestamp.0, LineageEventKind::Transform);
            feature_chunks.push(self.pipeline.fit_transform_chunk(chunk));
        }
        let points: Vec<_> = feature_chunks
            .iter()
            .flat_map(FeatureChunk::to_points)
            .collect();
        let report = self.trainer.fit_on_traced(
            &points,
            sgd,
            self.engine,
            &self.metrics,
            &self.tracer,
            self.trace_scope,
        );
        self.drain_charges(ledger);
        (report, feature_chunks)
    }

    /// Warm retraining for the periodical baseline: the pipeline statistics
    /// and model/optimizer state are kept (TFX-style warm starting), but all
    /// historical chunks are re-transformed and the model is trained to
    /// convergence on the full dataset — the expensive path that proactive
    /// training replaces.
    pub fn retrain_warm(
        &mut self,
        history: &[std::sync::Arc<RawChunk>],
        sgd: &SgdConfig,
        ledger: &mut CostLedger,
    ) -> TrainReport {
        self.retrain_warm_on(history, sgd, self.engine, ledger)
    }

    /// [`PipelineManager::retrain_warm`] with the history transformation
    /// executed chunk-parallel on an execution engine (the Spark-style
    /// batch path of §4.5). Accounted cost is engine-independent — parallel
    /// execution reduces wall-clock time, not work.
    pub fn retrain_warm_on(
        &mut self,
        history: &[std::sync::Arc<RawChunk>],
        sgd: &SgdConfig,
        engine: ExecutionEngine,
        ledger: &mut CostLedger,
    ) -> TrainReport {
        let points = match engine {
            ExecutionEngine::Sequential => {
                let mut points = Vec::new();
                for chunk in history {
                    points.extend(self.pipeline.transform_chunk(chunk).to_points());
                }
                points
            }
            ExecutionEngine::Threaded { workers } => {
                // Partition into one contiguous index range of the borrowed
                // history per worker; each group runs on a clone of the
                // deployed pipeline (transform-only, so the clones never
                // diverge from the original's statistics).
                let group_len = history.len().div_ceil(workers.max(1)).max(1);
                let template = self.pipeline.clone();
                let results = engine.map_indexed(
                    history.len().div_ceil(group_len),
                    |g| {
                        let mut local = template.clone();
                        local.reset_counters();
                        let mut points = Vec::new();
                        let group = &history[g * group_len..history.len().min((g + 1) * group_len)];
                        for chunk in group {
                            points.extend(local.transform_chunk(chunk).to_points());
                        }
                        (points, local.counters())
                    },
                    &TaskCtx {
                        metrics: &self.metrics,
                        tracer: &self.tracer,
                        parent: self.trace_scope,
                        ..TaskCtx::plain()
                    },
                );
                let mut points = Vec::new();
                for (group_points, counters) in results {
                    points.extend(group_points);
                    self.pipeline.absorb_counters(counters);
                }
                points
            }
        };
        let report = self.trainer.fit_on_traced(
            &points,
            sgd,
            engine,
            &self.metrics,
            &self.tracer,
            self.trace_scope,
        );
        self.drain_charges(ledger);
        report
    }

    /// The full online path for one arriving chunk (workflow stages 2 + 5a):
    ///
    /// 1. preprocess through the pipeline, updating every component's
    ///    statistics (online statistics computation);
    /// 2. *prequential evaluation*: predict each example with the current
    ///    model before training on it;
    /// 3. online learning: one pass of mini-batch SGD over the chunk.
    ///
    /// Returns the feature chunk for the data manager to store.
    pub fn process_online_chunk(
        &mut self,
        raw: &RawChunk,
        evaluator: &mut PrequentialEvaluator,
        ledger: &mut CostLedger,
    ) -> FeatureChunk {
        self.metrics
            .lineage(raw.timestamp.0, LineageEventKind::Transform);
        let fc = self.pipeline.fit_transform_chunk(raw);
        // Test-then-train: predictions are made before the online update.
        // Rows stream out of the columnar slab zero-copy in both loops.
        for row in fc.rows() {
            let prediction = self.trainer.model_mut().margin_row(row);
            evaluator.observe(prediction, row.label());
        }
        ledger.charge_predictions(fc.len() as u64);
        let rows: Vec<RowView<'_>> = fc.rows().collect();
        self.trainer
            .online_pass_rows(&rows, self.online_batch, self.engine);
        self.drain_charges(ledger);
        fc
    }

    /// Answers prediction queries from a chunk without any training or
    /// statistic updates (the pure serving path).
    pub fn answer_queries(
        &mut self,
        raw: &RawChunk,
        evaluator: &mut PrequentialEvaluator,
        ledger: &mut CostLedger,
    ) {
        let fc = self.pipeline.transform_chunk(raw);
        for row in fc.rows() {
            let prediction = self.trainer.model_mut().margin_row(row);
            evaluator.observe(prediction, row.label());
        }
        ledger.charge_predictions(fc.len() as u64);
        self.drain_charges(ledger);
    }

    /// Re-materializes an evicted feature chunk (workflow stage 4):
    /// transform-only, statistics untouched.
    pub fn rematerialize(&mut self, raw: &RawChunk, ledger: &mut CostLedger) -> FeatureChunk {
        let fc = self.pipeline.transform_chunk(raw);
        self.drain_charges(ledger);
        fc
    }

    /// Re-materializes a batch of evicted chunks in one engine-parallel map.
    ///
    /// Each chunk is transformed on its own clone of the deployed pipeline
    /// (transform-only, so the clones never diverge from the deployed
    /// statistics); counter deltas are absorbed in input order, making the
    /// accounted cost and the returned chunks independent of the engine and
    /// of worker scheduling. Output order matches input order.
    pub fn rematerialize_many(
        &mut self,
        raws: &[std::sync::Arc<RawChunk>],
        ledger: &mut CostLedger,
    ) -> Vec<FeatureChunk> {
        match self.try_rematerialize_many(raws, ledger) {
            Ok(out) => out,
            Err(e) => panic!("rematerialization failed: {e}"),
        }
    }

    /// [`PipelineManager::rematerialize_many`] with engine faults surfaced
    /// as typed errors. Injected worker panics within the restart budget are
    /// recovered transparently (results stay bit-identical); an exhausted
    /// restart budget or a genuine worker panic returns
    /// [`EngineError::WorkerPanic`].
    ///
    /// # Errors
    /// [`EngineError`]: a worker panic beyond the restart budget, or a
    /// worker pool that could not be spawned.
    pub fn try_rematerialize_many(
        &mut self,
        raws: &[std::sync::Arc<RawChunk>],
        ledger: &mut CostLedger,
    ) -> Result<Vec<FeatureChunk>, EngineError> {
        // Early return BEFORE drawing a worker order: the fault epoch
        // sequence must depend only on deployment logic, not engine calls
        // that would be no-ops.
        if raws.is_empty() {
            return Ok(Vec::new());
        }
        let template = self.pipeline.clone();
        // Borrowed-slice map: no clone of the `Arc<RawChunk>` handles into a
        // scratch `Vec` — workers read the caller's slice directly.
        let results = self.engine.try_map_indexed(
            raws.len(),
            |i| {
                let mut local = template.clone();
                local.reset_counters();
                let fc = local.transform_chunk(&raws[i]);
                (fc, local.counters())
            },
            &TaskCtx {
                hook: &*self.hook,
                metrics: &self.metrics,
                tracer: &self.tracer,
                parent: self.trace_scope,
            },
        )?;
        let mut out = Vec::with_capacity(results.len());
        for (fc, counters) in results {
            self.pipeline.absorb_counters(counters);
            out.push(fc);
        }
        self.drain_charges(ledger);
        Ok(out)
    }

    /// One proactive mini-batch SGD step over `batch`, parented under the
    /// manager's current trace scope (the deployment driver's
    /// `proactive.fire` span) so sharded gradient tasks on worker threads
    /// join the deployment's span tree.
    pub fn proactive_step(&mut self, batch: Vec<&LabeledPoint>) -> Option<f64> {
        self.trainer.step_on_traced(
            batch,
            self.engine,
            &self.metrics,
            &self.tracer,
            self.trace_scope,
        )
    }

    /// One proactive mini-batch SGD step with the transform **fused** into
    /// the gradient pass: each `Raw` source streams through a clone of the
    /// deployed pipeline directly into a per-source gradient accumulator
    /// ([`SgdTrainer::try_step_fused_on`]), so no intermediate
    /// [`FeatureChunk`] or union batch buffer is ever materialized.
    ///
    /// Results are deterministic: gradients reduce in fixed tree order keyed
    /// by source index, and pipeline counter deltas are absorbed in source
    /// order, so the model update and the accounted cost depend only on the
    /// sources — never on the engine, worker count, or steal schedule.
    ///
    /// # Errors
    /// [`EngineError`]: a worker panic beyond the engine's restart budget,
    /// or a worker pool that could not be spawned; the model is untouched
    /// in either case.
    pub fn try_proactive_step_fused(
        &mut self,
        sources: &[ProactiveSource],
        ledger: &mut CostLedger,
    ) -> Result<FusedStepOutcome, EngineError> {
        // Early return BEFORE drawing a worker order: the fault epoch
        // sequence must depend only on deployment logic, not engine calls
        // that would be no-ops.
        if sources.is_empty() {
            return Ok(FusedStepOutcome {
                loss: None,
                points: 0,
            });
        }
        let template = self.pipeline.clone();
        // Worker-fault orders are part of the deployment's deterministic
        // fault-epoch sequence, which is defined over *re-materializing*
        // engine calls (the fault site the injector models). A fused step
        // whose sources are all `Ready` does no pipeline work, so it must
        // not consume an epoch — exactly as the pre-fused path, where only
        // `try_rematerialize_many` consulted the hook.
        let rematerializes = sources.iter().any(|s| matches!(s, ProactiveSource::Raw(_)));
        let hook: &dyn FaultHook = if rematerializes {
            &*self.hook
        } else {
            &NoFaults
        };
        // Transform work happens on pipeline clones inside engine tasks;
        // their counters land here (one write per source, re-runs after an
        // injected panic cannot double-count) and are absorbed in source
        // order after the step.
        let counter_slots: Vec<OnceLock<PipelineCounters>> =
            sources.iter().map(|_| OnceLock::new()).collect();
        let outcome = self.trainer.try_step_fused_on(
            sources.len(),
            |i, sink| match &sources[i] {
                ProactiveSource::Ready(fc) => {
                    // Already-materialized chunks stream straight out of
                    // their columnar slab — no per-row reconstruction.
                    for row in fc.rows() {
                        sink(row);
                    }
                }
                ProactiveSource::Raw(raw) => {
                    let mut local = template.clone();
                    local.reset_counters();
                    local.transform_chunk_fold(raw, &mut |p| sink(RowView::Point(p)));
                    let _ = counter_slots[i].set(local.counters());
                }
            },
            self.engine,
            &TaskCtx {
                hook,
                metrics: &self.metrics,
                tracer: &self.tracer,
                parent: self.trace_scope,
            },
        )?;
        for slot in counter_slots {
            if let Some(counters) = slot.into_inner() {
                self.pipeline.absorb_counters(counters);
            }
        }
        self.drain_charges(ledger);
        Ok(outcome)
    }

    /// Simulates recomputing component statistics by an extra scan over the
    /// chunk — the cost the *NoOptimization* baseline of Experiment 3 pays
    /// because it lacks online statistics computation. Only cost is charged;
    /// the deployed statistics are not corrupted.
    pub fn charge_statistics_recomputation(&self, raw: &RawChunk, ledger: &mut CostLedger) {
        let rows = raw.len() as u64;
        // One parse plus one statistics pass per stateful component.
        ledger.charge_parse(rows);
        let stateful = 2u64; // imputer/scaler-class components in both pipelines
        ledger.charge_stat_updates(rows * stateful);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_eval::{CostModel, ErrorMetric, Phase};
    use cdp_ml::LossKind;
    use cdp_pipeline::encode::DenseEncoder;
    use cdp_pipeline::parser::SchemaParser;
    use cdp_pipeline::scale::StandardScaler;
    use cdp_pipeline::PipelineBuilder;
    use cdp_storage::{Record, Schema, Timestamp, Value};

    fn pipeline() -> Pipeline {
        let schema = Schema::new(["y", "x"]);
        PipelineBuilder::new(SchemaParser::new(schema, "y", &["x"], None))
            .add(StandardScaler::new())
            .encoder(DenseEncoder::new(1))
            .unwrap()
    }

    fn chunk(ts: u64, rows: &[(f64, f64)]) -> RawChunk {
        RawChunk::new(
            Timestamp(ts),
            rows.iter()
                .map(|&(y, x)| Record::new(vec![Value::Num(y), Value::Num(x)]))
                .collect(),
        )
    }

    fn sgd() -> SgdConfig {
        SgdConfig::for_loss(LossKind::Squared)
    }

    #[test]
    fn online_chunk_tests_then_trains() {
        let mut pm = PipelineManager::new(pipeline(), &sgd(), 8);
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Rmsle, 0);
        let mut ledger = CostLedger::new(CostModel::commodity());
        let fc =
            pm.process_online_chunk(&chunk(0, &[(1.0, 2.0), (2.0, 3.0)]), &mut ev, &mut ledger);
        assert_eq!(fc.len(), 2);
        assert_eq!(ev.count(), 2);
        // With a zero-initialized model, first predictions are 0 ⇒ error > 0.
        assert!(ev.error() > 0.0);
        assert!(pm.trainer().steps() > 0);
        assert!(ledger.phase(Phase::Prediction) > 0.0);
        assert!(ledger.phase(Phase::Preprocessing) > 0.0);
        assert!(ledger.phase(Phase::Training) > 0.0);
    }

    #[test]
    fn rematerialize_equals_stored_features() {
        let mut pm = PipelineManager::new(pipeline(), &sgd(), 8);
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Rmsle, 0);
        let mut ledger = CostLedger::default();
        let raw = chunk(0, &[(1.0, 2.0), (2.0, 3.0)]);
        let stored = pm.process_online_chunk(&raw, &mut ev, &mut ledger);
        let rematerialized = pm.rematerialize(&raw, &mut ledger);
        assert_eq!(stored, rematerialized);
    }

    #[test]
    fn rematerialize_many_matches_per_chunk_path_on_every_engine() {
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Rmsle, 0);
        let raws: Vec<std::sync::Arc<RawChunk>> = (0..7)
            .map(|t| {
                std::sync::Arc::new(chunk(
                    t,
                    &[(t as f64, t as f64 * 0.25), (t as f64 + 2.0, t as f64)],
                ))
            })
            .collect();

        let mut base_pm = PipelineManager::new(pipeline(), &sgd(), 8);
        let mut base_ledger = CostLedger::new(CostModel::commodity());
        base_pm.process_online_chunk(&raws[0], &mut ev, &mut base_ledger);
        let expected: Vec<FeatureChunk> = raws
            .iter()
            .map(|raw| base_pm.rematerialize(raw, &mut base_ledger))
            .collect();

        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 3 },
        ] {
            let mut pm = PipelineManager::new(pipeline(), &sgd(), 8).with_engine(engine);
            let mut ledger = CostLedger::new(CostModel::commodity());
            pm.process_online_chunk(&raws[0], &mut ev, &mut ledger);
            let batched = pm.rematerialize_many(&raws, &mut ledger);
            assert_eq!(batched, expected, "engine {}", engine.name());
            assert!(
                (ledger.total() - base_ledger.total()).abs() < 1e-12,
                "accounted cost must be engine-independent"
            );
        }
    }

    #[test]
    fn answer_queries_does_not_train() {
        let mut pm = PipelineManager::new(pipeline(), &sgd(), 8);
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Rmsle, 0);
        let mut ledger = CostLedger::default();
        pm.answer_queries(&chunk(0, &[(1.0, 2.0)]), &mut ev, &mut ledger);
        assert_eq!(ev.count(), 1);
        assert_eq!(pm.trainer().steps(), 0);
        assert_eq!(ledger.phase(Phase::Training), 0.0);
    }

    #[test]
    fn initial_fit_reduces_loss() {
        let mut pm = PipelineManager::new(pipeline(), &sgd(), 8);
        let mut ledger = CostLedger::default();
        let chunks: Vec<RawChunk> = (0..5)
            .map(|t| {
                chunk(
                    t,
                    &[
                        (2.0 * t as f64, t as f64),
                        (2.0 * t as f64 + 1.0, t as f64 + 0.5),
                    ],
                )
            })
            .collect();
        let (report, fcs) = pm.initial_fit(&chunks, &sgd(), &mut ledger);
        assert!(report.final_loss <= report.initial_loss);
        assert!(ledger.total() > 0.0);
        assert_eq!(fcs.len(), 5);
        assert!(fcs.iter().all(|fc| fc.len() == 2));
    }

    #[test]
    fn drain_charges_is_incremental() {
        let mut pm = PipelineManager::new(pipeline(), &sgd(), 8);
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Rmsle, 0);
        let mut ledger = CostLedger::default();
        pm.process_online_chunk(&chunk(0, &[(1.0, 2.0)]), &mut ev, &mut ledger);
        let after_first = ledger.total();
        // Draining again without new work must charge nothing.
        pm.drain_charges(&mut ledger);
        assert_eq!(ledger.total(), after_first);
    }

    #[test]
    fn parallel_retraining_matches_sequential() {
        // The threaded engine must produce the exact same model and the
        // exact same accounted cost as the sequential path.
        let history: Vec<std::sync::Arc<RawChunk>> = (0..12)
            .map(|t| {
                std::sync::Arc::new(chunk(
                    t,
                    &[(t as f64, t as f64 * 0.5), (t as f64 + 1.0, t as f64)],
                ))
            })
            .collect();
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Rmsle, 0);

        let mut seq_pm = PipelineManager::new(pipeline(), &sgd(), 8);
        let mut seq_ledger = CostLedger::default();
        seq_pm.process_online_chunk(&history[0], &mut ev, &mut seq_ledger);
        let mut par_pm = PipelineManager::new(pipeline(), &sgd(), 8);
        let mut par_ledger = CostLedger::default();
        par_pm.process_online_chunk(&history[0], &mut ev, &mut par_ledger);

        let seq_report = seq_pm.retrain_warm_on(
            &history,
            &sgd(),
            ExecutionEngine::Sequential,
            &mut seq_ledger,
        );
        let par_report = par_pm.retrain_warm_on(
            &history,
            &sgd(),
            ExecutionEngine::Threaded { workers: 4 },
            &mut par_ledger,
        );
        assert_eq!(
            seq_pm.trainer().model().weights(),
            par_pm.trainer().model().weights()
        );
        assert_eq!(seq_report.steps, par_report.steps);
        assert!((seq_ledger.total() - par_ledger.total()).abs() < 1e-12);
    }

    #[test]
    fn warm_start_preserves_model() {
        let mut pm = PipelineManager::new(pipeline(), &sgd(), 8);
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Rmsle, 0);
        let mut ledger = CostLedger::default();
        pm.process_online_chunk(&chunk(0, &[(1.0, 2.0), (3.0, 5.0)]), &mut ev, &mut ledger);
        let (pipe, trainer) = pm.snapshot();
        let warm = PipelineManager::with_trainer(pipe, trainer, 8);
        assert_eq!(
            warm.trainer().model().weights(),
            pm.trainer().model().weights()
        );
    }
}
