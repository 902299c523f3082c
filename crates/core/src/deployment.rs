//! End-to-end deployment drivers for the three approaches of Experiment 1.
//!
//! All three share the same arrival loop — every deployment chunk is first
//! used for prequential evaluation, then for online learning — and differ
//! only in how they keep the model fresh:
//!
//! * **Online**: nothing beyond the per-chunk online SGD pass;
//! * **Periodical**: a full retraining over the entire history every
//!   `retrain_every` chunks, warm-started TFX-style (pipeline statistics,
//!   model weights, and optimizer state are reused) unless configured cold;
//! * **Continuous** (the paper): proactive training — a scheduled single
//!   mini-batch SGD iteration over a sample of the history, served from the
//!   materialized-feature cache when possible.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cdp_datagen::ChunkStream;
use cdp_engine::{EngineError, ExecutionEngine};
use cdp_eval::cost::Stopwatch;
use cdp_eval::prequential::average_of_curve;
use cdp_eval::{CostLedger, CostModel, Phase, PrequentialEvaluator};
use cdp_faults::{
    CrashSite, FaultHook, FaultInjector, FaultPlan, FaultStats, NoFaults, RetryPolicy,
};
use cdp_linalg::DenseVector;
use cdp_ml::{LinearModel, OptimizerState, SgdTrainer, TrainReport};
use cdp_obs::{
    Alert, AlertMonitor, Clock, Metrics, MetricsSnapshot, SloMonitor, TelemetryStore,
    TraceSnapshot, TraceSpan, Tracer, VirtualClock, DEFAULT_SERIES_CAPACITY,
};
use cdp_pipeline::drift::{DriftDetector, DriftStatus};
use cdp_pipeline::PipelineError;
use cdp_sampling::{mu_uniform, mu_window, SamplingStrategy};
use cdp_storage::{
    CheckpointDir, FlightRecorder, RawChunk, StorageBudget, StorageError, StoreStats, TieredStats,
    WalDir, WalOptions, WalStats, WalWriter,
};
use serde::{Deserialize, Serialize};

use crate::checkpoint::DeploymentCheckpoint;
use crate::data_manager::DataManager;
use crate::pipeline_manager::PipelineManager;
use crate::presets::DeploymentSpec;
use crate::proactive::ProactiveTrainer;
use crate::scheduler::{Scheduler, SchedulerContext};
use crate::serving::{weights_fingerprint, ModelServer};

/// How the deployed model is kept fresh.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeploymentMode {
    /// Online learning only.
    Online,
    /// Online learning plus periodical full retraining.
    Periodical {
        /// Chunks between retrainings (URL: every 10 days; Taxi: monthly).
        retrain_every: usize,
        /// Reuse pipeline statistics, weights, and optimizer state
        /// (TFX-style). The paper's baseline always warm-starts; `false` is
        /// the cold-restart ablation.
        warm_start: bool,
    },
    /// Online learning plus proactive training (this paper).
    Continuous {
        /// When proactive training fires.
        scheduler: Scheduler,
        /// Chunks sampled per proactive-training instance.
        sample_chunks: usize,
        /// Sampling strategy over the history.
        strategy: SamplingStrategy,
    },
}

impl DeploymentMode {
    /// Short display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            DeploymentMode::Online => "Online",
            DeploymentMode::Periodical { .. } => "Periodical",
            DeploymentMode::Continuous { .. } => "Continuous",
        }
    }
}

/// The platform optimizations of Experiment 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizationConfig {
    /// Online statistics computation (§3.1). When disabled, proactive
    /// training pays a statistics-recomputation scan and raw-data disk read
    /// per sampled chunk (the NoOptimization baseline).
    pub online_stats: bool,
    /// Materialized-feature cache budget (§3.2). `MaxChunks(m)` yields a
    /// materialization rate of `m/n`.
    pub budget: StorageBudget,
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        Self {
            online_stats: true,
            budget: StorageBudget::Unbounded,
        }
    }
}

/// Crash-consistent checkpointing for a deployment run.
///
/// When set on [`DeploymentConfig::checkpoint`], the loop durably writes a
/// [`DeploymentCheckpoint`] every `every_chunks` chunks (and once more at
/// shutdown if chunks arrived since the last write), keeping the newest
/// `keep` files. [`try_resume_deployment`] restarts a killed run from the
/// newest valid checkpoint; a torn or corrupt latest file falls back to its
/// predecessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the numbered checkpoint files.
    pub dir: PathBuf,
    /// Chunks between checkpoint writes (clamped to at least 1).
    pub every_chunks: usize,
    /// Checkpoints retained, newest first (clamped to at least 1).
    pub keep: usize,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every 8 chunks, keeping the last 2 files.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_chunks: 8,
            keep: 2,
        }
    }

    /// Sets the write interval (builder style).
    #[must_use]
    pub fn every(mut self, every_chunks: usize) -> Self {
        self.every_chunks = every_chunks;
        self
    }

    /// Sets the retention budget (builder style).
    #[must_use]
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }
}

/// Write-ahead logging of arriving chunks for a deployment run.
///
/// Checkpoints make the deployment *state* crash-consistent, but a chunk
/// that arrives between two checkpoints exists only in memory until the
/// next checkpoint covers it. When set on [`DeploymentConfig::wal`], every
/// arriving raw chunk is appended to an on-disk write-ahead log (group
/// committed every `fsync_every` records, or when the oldest buffered
/// record ages past `group_window_secs` on the deployment's simulated
/// clock) *before* the pipeline processes it. [`try_resume_deployment`]
/// then replays checkpoint + WAL suffix — recovered records re-ordered by
/// sequence number — and lands bit-identical to an uninterrupted run even
/// when the crash falls between checkpoints. Segments are rotated at
/// `segment_bytes` and retired as soon as a durable checkpoint covers every
/// record they hold. `None` (the default) writes nothing, costs the hot
/// path a single branch per chunk, and preserves the pre-existing
/// checkpoint-boundary resume semantics exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct WalConfig {
    /// Directory holding the numbered WAL segment files.
    pub dir: PathBuf,
    /// Records per group commit (1 = fsync every append). Clamped to at
    /// least 1.
    pub fsync_every: usize,
    /// Maximum simulated age of the oldest buffered record before a commit
    /// is forced regardless of batch fill (0 disables the window).
    pub group_window_secs: f64,
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// Log into `dir`, group-committing every 8 records or 1 simulated
    /// second, rotating segments at 256 KiB.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync_every: 8,
            group_window_secs: 1.0,
            segment_bytes: 256 * 1024,
        }
    }

    /// Sets the group-commit batch size (builder style).
    #[must_use]
    pub fn fsync_every(mut self, fsync_every: usize) -> Self {
        self.fsync_every = fsync_every;
        self
    }

    /// Sets the group-commit window in simulated seconds (builder style).
    #[must_use]
    pub fn group_window(mut self, group_window_secs: f64) -> Self {
        self.group_window_secs = group_window_secs;
        self
    }

    /// Sets the segment rotation threshold in bytes (builder style).
    #[must_use]
    pub fn segment_bytes(mut self, segment_bytes: u64) -> Self {
        self.segment_bytes = segment_bytes;
        self
    }
}

/// Live telemetry for a deployment run.
///
/// When set on [`DeploymentConfig::telemetry`] (and metrics are collected),
/// the loop samples every registered counter, gauge, and histogram into a
/// ring-buffered [`TelemetryStore`] every `every_chunks` chunks, stamped on
/// the loop's deterministic simulation clock. Each sample also drives the
/// stateful SLA monitor ([`AlertMonitor::observe`]) and the multi-window SLO
/// burn-rate rules ([`SloMonitor::deployment_defaults`]), with per-rule
/// cooldown so a persistent breach lands in [`DeploymentResult::alerts`]
/// once per cooldown window instead of once per evaluation. With a
/// [`RecorderConfig`] attached, the store is additionally persisted to a
/// crash-survivable on-disk segment log (the flight recorder) for
/// post-mortem analysis. `None` (the default) costs the hot path a single
/// branch per chunk, and an enabled store never feeds back into training:
/// weights, curves, and accounted cost are bit-identical with telemetry on
/// or off.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Chunks between samples (clamped to at least 1).
    pub every_chunks: usize,
    /// Ring-buffer capacity per series (clamped to at least 1).
    pub capacity: usize,
    /// Per-rule alert cooldown in simulated seconds. The default
    /// (`f64::INFINITY`) reports each breaching rule exactly once per run.
    pub cooldown_secs: f64,
    /// Serving p99 latency objective in seconds for the
    /// `slo.serving_p99_burn` rule.
    pub serving_p99_budget_secs: f64,
    /// Metric-name prefixes excluded from sampling. The default excludes
    /// `engine.*`: work-stealing queue depths and steal counts depend on
    /// thread scheduling, and excluding them keeps recorded telemetry
    /// bit-identical across worker counts.
    pub exclude_prefixes: Vec<String>,
    /// Optional flight recorder persisting the store across crashes.
    pub recorder: Option<RecorderConfig>,
}

impl TelemetryConfig {
    /// Sample every chunk into 256-point rings, report each breaching rule
    /// once, exclude the scheduling-dependent `engine.*` series, and write
    /// no segments.
    pub fn new() -> Self {
        Self {
            every_chunks: 1,
            capacity: DEFAULT_SERIES_CAPACITY,
            cooldown_secs: f64::INFINITY,
            serving_p99_budget_secs: 0.05,
            exclude_prefixes: vec![String::from("engine.")],
            recorder: None,
        }
    }

    /// Sets the sampling interval (builder style).
    #[must_use]
    pub fn every(mut self, every_chunks: usize) -> Self {
        self.every_chunks = every_chunks;
        self
    }

    /// Sets the per-series ring capacity (builder style).
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the alert cooldown (builder style).
    #[must_use]
    pub fn cooldown(mut self, cooldown_secs: f64) -> Self {
        self.cooldown_secs = cooldown_secs;
        self
    }

    /// Attaches a flight recorder (builder style).
    #[must_use]
    pub fn recorder(mut self, recorder: RecorderConfig) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Flight-recorder persistence for [`TelemetryConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Directory holding the numbered segment files.
    pub dir: PathBuf,
    /// Segments retained, newest first (clamped to at least 1).
    pub keep: usize,
    /// Telemetry samples between durable segment writes (clamped to at
    /// least 1). The loop also flushes at shutdown and on an injected
    /// crash, so the on-disk timeline is at most one flush interval stale.
    pub flush_every_samples: usize,
}

impl RecorderConfig {
    /// Record into `dir`, flushing every 8 samples and keeping 4 segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            keep: 4,
            flush_every_samples: 8,
        }
    }

    /// Sets the retention budget (builder style).
    #[must_use]
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }

    /// Sets the flush interval (builder style).
    #[must_use]
    pub fn flush_every(mut self, samples: usize) -> Self {
        self.flush_every_samples = samples;
        self
    }
}

/// Checkpoint activity of one run. Deliberately *outside* the bit-identity
/// contract: a resumed run legitimately writes more checkpoints (and counts
/// its restore) than the uninterrupted run it otherwise reproduces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointStats {
    /// Durable checkpoint files completed.
    pub writes: u64,
    /// Bytes written across those files (envelope included).
    pub bytes_written: u64,
    /// Restores performed by this run's checkpoint lineage.
    pub restores: u64,
}

/// Everything a deployment run needs besides the pipeline spec.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Freshness mechanism.
    pub mode: DeploymentMode,
    /// Platform optimizations.
    pub optimization: OptimizationConfig,
    /// Simulated chunk arrival period in seconds (URL: 60 s; Taxi: 3600 s).
    pub chunk_period_secs: f64,
    /// Cost-model rates.
    pub cost_model: CostModel,
    /// Seed for the sampler.
    pub seed: u64,
    /// Execution engine for all batch work: initial fit, periodical
    /// retraining's history transformation, proactive re-materialization,
    /// and sharded gradient computation. One persistent worker pool is
    /// shared by every deployment mode. Results and accounted cost are
    /// engine-independent (bit-identical); a threaded engine only reduces
    /// wall-clock time.
    pub engine: ExecutionEngine,
    /// Deterministic fault-injection plan. [`FaultPlan::none`] (the
    /// default) injects nothing and adds no overhead; an active plan
    /// injects disk errors, chunk corruption, worker panics, and latency
    /// keyed purely by `(seed, site, key, attempt)` — identical across
    /// reruns and worker counts.
    pub faults: FaultPlan,
    /// Spill evicted feature chunks to a run-private temporary directory
    /// (removed when the run ends) instead of dropping them. Gives disk
    /// faults a real surface; lookups fall back to re-materialization when
    /// a spill read fails beyond the retry budget.
    pub spill_to_disk: bool,
    /// Collect runtime metrics (counters, gauges, latency histograms,
    /// event log) into [`DeploymentResult::metrics`]. Off by default: the
    /// disabled handle adds no locking, allocation, or clock reads to the
    /// hot path. For an injected clock or a shared registry use
    /// [`try_run_deployment_observed`] instead.
    pub collect_metrics: bool,
    /// Collect a causal span tree (deployment phases → engine maps →
    /// per-worker tasks) into [`DeploymentResult::trace`]. Off by default:
    /// the disabled tracer's per-span cost is a single branch. Tracing
    /// never perturbs results — weights, curves, accounted cost, and the
    /// metrics snapshot are bit-identical with and without it.
    pub collect_traces: bool,
    /// Crash-consistent checkpointing. `None` (the default) writes nothing
    /// and costs the hot path a single branch per chunk.
    pub checkpoint: Option<CheckpointConfig>,
    /// Write-ahead logging of arriving chunks, so resume can replay the
    /// suffix a crash would otherwise lose between checkpoints. `None` (the
    /// default) writes nothing and costs the hot path a single branch per
    /// chunk.
    pub wal: Option<WalConfig>,
    /// Live telemetry: ring-buffered time series over every metric, SLO
    /// burn-rate alerting, and an optional crash-survivable flight
    /// recorder. Requires metrics collection to record anything; `None`
    /// (the default) costs the hot path a single branch per chunk.
    pub telemetry: Option<TelemetryConfig>,
    /// A serving front-end to keep fresh: when set, the run publishes the
    /// deployed `(pipeline, model)` pair to this [`ModelServer`] after the
    /// initial fit, after every training event (proactive instance or
    /// periodical retraining), at every chunk boundary, and — on resume —
    /// immediately after state restoration, so an attached server never
    /// serves a pre-crash stale snapshot. `None` (the default) costs one
    /// branch per site. The server is an `Arc` handle: clone it before
    /// attaching to keep answering queries concurrently. Publishing never
    /// perturbs training results (the server receives clones).
    pub serving: Option<ModelServer>,
}

impl DeploymentConfig {
    /// An online-only configuration (the baseline's defaults).
    pub fn online() -> Self {
        Self {
            mode: DeploymentMode::Online,
            optimization: OptimizationConfig::default(),
            chunk_period_secs: 60.0,
            cost_model: CostModel::commodity(),
            seed: 17,
            engine: ExecutionEngine::Sequential,
            faults: FaultPlan::none(),
            spill_to_disk: false,
            collect_metrics: false,
            collect_traces: false,
            checkpoint: None,
            wal: None,
            telemetry: None,
            serving: None,
        }
    }

    /// A continuous configuration with static scheduling every
    /// `every_chunks`, sampling `sample_chunks` per instance.
    pub fn continuous(
        every_chunks: usize,
        sample_chunks: usize,
        strategy: SamplingStrategy,
    ) -> Self {
        Self {
            mode: DeploymentMode::Continuous {
                scheduler: Scheduler::Static { every_chunks },
                sample_chunks,
                strategy,
            },
            ..Self::online()
        }
    }

    /// A periodical configuration retraining every `retrain_every` chunks
    /// with warm starting.
    pub fn periodical(retrain_every: usize) -> Self {
        Self {
            mode: DeploymentMode::Periodical {
                retrain_every,
                warm_start: true,
            },
            ..Self::online()
        }
    }
}

/// Everything a deployment run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeploymentResult {
    /// Approach name (`Online` / `Periodical` / `Continuous`).
    pub approach: String,
    /// Cumulative prequential error at the end of the deployment.
    pub final_error: f64,
    /// Mean of the cumulative-error curve (Figure 8's quality axis).
    pub average_error: f64,
    /// `(examples_seen, cumulative_error)` per deployment chunk
    /// (Figure 4 a/c).
    pub error_curve: Vec<(u64, f64)>,
    /// `(chunk_index, cumulative_accounted_seconds)` (Figure 4 b/d).
    pub cost_curve: Vec<(u64, f64)>,
    /// Accounted seconds per phase.
    pub preprocessing_secs: f64,
    /// Accounted training seconds.
    pub training_secs: f64,
    /// Accounted prediction seconds.
    pub prediction_secs: f64,
    /// Accounted materialization-I/O seconds.
    pub io_secs: f64,
    /// Total accounted deployment cost in seconds.
    pub total_secs: f64,
    /// Real wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Proactive-training instances executed.
    pub proactive_runs: u64,
    /// Mean accounted seconds per proactive-training instance (the paper
    /// reports 200 ms / 700 ms).
    pub avg_proactive_secs: f64,
    /// Full retrainings executed (periodical only).
    pub retrain_runs: u64,
    /// Chunk-store behaviour counters.
    pub store_stats: StoreStats,
    /// Measured materialization utilization rate μ over the run.
    pub empirical_mu: f64,
    /// Prediction queries answered.
    pub queries_answered: u64,
    /// Initial-training report.
    pub initial_report: TrainReport,
    /// Final model weights (dense). Lets callers verify that two runs —
    /// e.g. sequential vs threaded — produced bit-identical models.
    pub final_weights: Vec<f64>,
    /// Injected-fault and recovery counters (all zero without a fault plan).
    pub fault_stats: FaultStats,
    /// Storage-tier counters: spills, disk hits, read fallbacks.
    pub tiered_stats: TieredStats,
    /// Uniform observability snapshot spanning engine, storage, scheduler,
    /// and trainer (empty unless [`DeploymentConfig::collect_metrics`] is
    /// set or a [`Metrics`] handle was passed to
    /// [`try_run_deployment_observed`]).
    pub metrics: MetricsSnapshot,
    /// Causal span tree across all deployment phases and worker threads
    /// (empty unless [`DeploymentConfig::collect_traces`] is set or a
    /// [`Tracer`] handle was passed to [`try_run_deployment_traced`]).
    /// Export with [`TraceSnapshot::to_chrome_trace`] or
    /// [`TraceSnapshot::to_folded_stacks`].
    pub trace: TraceSnapshot,
    /// SLA alerts fired by the default [`AlertMonitor`] over the final
    /// metrics snapshot (empty unless metrics were collected). Each fired
    /// alert is also appended to the event log as `alert.fired`. With
    /// [`DeploymentConfig::telemetry`] set, these come from the stateful
    /// per-sample monitors instead (threshold rules plus SLO burn rules,
    /// deduplicated by the configured cooldown).
    pub alerts: Vec<Alert>,
    /// Ring-buffered time series over every sampled metric (empty unless
    /// [`DeploymentConfig::telemetry`] is set and metrics were collected).
    /// Export with [`TelemetryStore::to_prometheus`],
    /// [`TelemetryStore::to_csv`], or [`TelemetryStore::to_json`].
    pub telemetry: TelemetryStore,
    /// Checkpoint writes/bytes/restores (all zero without
    /// [`DeploymentConfig::checkpoint`]). Not part of the bit-identity
    /// contract — see [`CheckpointStats`].
    pub checkpoint_stats: CheckpointStats,
    /// WAL appends/commits/rotations/recovery counters (all zero without
    /// [`DeploymentConfig::wal`]). Not part of the bit-identity contract —
    /// a resumed run legitimately commits and replays differently from the
    /// uninterrupted run it otherwise reproduces.
    #[serde(default)]
    pub wal_stats: WalStats,
}

impl DeploymentResult {
    /// Cost ratio of this run against another (e.g. periodical / continuous).
    pub fn cost_ratio_to(&self, other: &DeploymentResult) -> f64 {
        self.total_secs / other.total_secs.max(1e-12)
    }
}

/// A deployment run failed beyond the platform's recovery budget.
#[derive(Debug)]
pub enum DeploymentError {
    /// A storage-layer failure (duplicate timestamp, unrecoverable I/O).
    Storage(StorageError),
    /// An engine-layer failure (a worker panic beyond the restart budget,
    /// or a worker pool that could not be spawned).
    Engine(EngineError),
    /// The spec's pipeline factory failed (e.g. a non-incremental
    /// component) — a configuration error, surfaced typed instead of
    /// panicking inside the deployment loop.
    Pipeline(PipelineError),
    /// The process was killed by an injected crash point (tests only; a
    /// real crash never returns). The run's partial state is exactly what a
    /// `kill -9` at that point would leave on disk.
    Crashed(CrashSite),
    /// Resume was requested but there is nothing to resume from: no
    /// [`DeploymentConfig::checkpoint`] configured, or no valid checkpoint
    /// file in the directory.
    NoCheckpoint(String),
}

impl std::fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeploymentError::Storage(e) => write!(f, "storage failure: {e}"),
            DeploymentError::Engine(e) => write!(f, "engine failure: {e}"),
            DeploymentError::Pipeline(e) => write!(f, "pipeline failure: {e}"),
            DeploymentError::Crashed(site) => {
                write!(f, "injected crash at the {} site", site.name())
            }
            DeploymentError::NoCheckpoint(detail) => {
                write!(f, "nothing to resume from: {detail}")
            }
        }
    }
}

impl std::error::Error for DeploymentError {}

impl From<StorageError> for DeploymentError {
    fn from(e: StorageError) -> Self {
        DeploymentError::Storage(e)
    }
}

impl From<EngineError> for DeploymentError {
    fn from(e: EngineError) -> Self {
        DeploymentError::Engine(e)
    }
}

impl From<PipelineError> for DeploymentError {
    fn from(e: PipelineError) -> Self {
        DeploymentError::Pipeline(e)
    }
}

/// Monotonic discriminator for run-private spill directories, so concurrent
/// runs in one process never collide.
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn private_spill_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "cdp-spill-{}-{}",
        std::process::id(),
        SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Runs one deployment end to end: initial training on the stream's initial
/// chunks, then the arrival loop over the deployment range.
///
/// # Panics
/// Panics when the run fails beyond the platform's recovery budget; use
/// [`try_run_deployment`] for a typed error instead.
pub fn run_deployment(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
) -> DeploymentResult {
    match try_run_deployment(stream, spec, config) {
        Ok(result) => result,
        Err(e) => panic!("deployment failed: {e}"),
    }
}

/// [`run_deployment`] with failures surfaced as typed errors.
///
/// Recovery happens below this level — disk retries in the storage tier,
/// fall-through re-materialization for lost spills, worker restarts in the
/// engine — so an `Err` here means the fault budget was genuinely
/// exhausted (or a logic error such as a duplicate timestamp).
///
/// # Errors
/// [`DeploymentError::Storage`] or [`DeploymentError::Engine`].
pub fn try_run_deployment(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
) -> Result<DeploymentResult, DeploymentError> {
    let metrics = if config.collect_metrics {
        Metrics::collecting()
    } else {
        Metrics::disabled()
    };
    try_run_deployment_observed(stream, spec, config, metrics)
}

/// [`try_run_deployment`] recording runtime metrics into an explicit
/// [`Metrics`] handle — pass `Metrics::with_clock(...)` to stamp events and
/// spans against an injected (e.g. virtual) clock, or a shared handle to
/// aggregate several runs into one registry. The handle overrides
/// [`DeploymentConfig::collect_metrics`].
///
/// Metrics never feed back into results: weights, error curves, and
/// accounted cost are bit-identical with and without collection (only
/// wall-clock overhead differs, and the disabled handle's is zero).
///
/// # Errors
/// Same as [`try_run_deployment`].
pub fn try_run_deployment_observed(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
    metrics: Metrics,
) -> Result<DeploymentResult, DeploymentError> {
    let tracer = if config.collect_traces {
        Tracer::collecting()
    } else {
        Tracer::disabled()
    };
    try_run_deployment_traced(stream, spec, config, metrics, tracer)
}

/// [`try_run_deployment_observed`] recording causal spans into an explicit
/// [`Tracer`] handle — pass `Tracer::with_clock(...)` for an injected clock
/// or a shared handle to merge several runs into one span buffer. The
/// handle overrides [`DeploymentConfig::collect_traces`].
///
/// The span tree is rooted at `deployment.run`; initial training, each
/// arriving chunk, periodical retrainings, and proactive-training instances
/// open child spans, and engine maps dispatched inside them parent their
/// per-worker `engine.task` spans across threads. Like metrics, traces
/// never feed back into results.
///
/// # Errors
/// Same as [`try_run_deployment`].
pub fn try_run_deployment_traced(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
    metrics: Metrics,
    tracer: Tracer,
) -> Result<DeploymentResult, DeploymentError> {
    let wall = Stopwatch::start();
    let run_span = tracer.root("deployment.run");
    let run_ctx = run_span.context();
    let strategy = match config.mode {
        DeploymentMode::Continuous { strategy, .. } => strategy,
        _ => SamplingStrategy::Uniform,
    };
    let hook: Arc<dyn FaultHook> = if config.faults.is_active() {
        Arc::new(FaultInjector::new(config.faults))
    } else {
        Arc::new(NoFaults)
    };
    let mut dm = if config.spill_to_disk {
        DataManager::with_spill(
            config.optimization.budget,
            strategy,
            config.seed,
            private_spill_dir(),
            Arc::clone(&hook),
            RetryPolicy::default(),
        )?
    } else {
        DataManager::new(config.optimization.budget, strategy, config.seed)
    };
    dm.set_metrics(metrics.clone());
    let mut pm = PipelineManager::new(spec.try_build_pipeline()?, &spec.sgd, spec.online_batch)
        .with_engine(config.engine)
        .with_fault_hook(Arc::clone(&hook))
        .with_metrics(metrics.clone())
        .with_tracer(tracer.clone());
    let evaluator = PrequentialEvaluator::new(spec.metric, 0);
    let proactive = if config.optimization.online_stats {
        ProactiveTrainer::new()
    } else {
        ProactiveTrainer::without_online_stats()
    };

    // ---- Initial training (not part of the deployment cost, like the
    // paper's Table 2 split) ----
    let mut initial_ledger = CostLedger::new(config.cost_model);
    let initial: Vec<_> = stream.initial();
    let fit_span = tracer.child_of("deployment.initial_fit", run_ctx);
    pm.set_trace_scope(fit_span.context());
    let (initial_report, feature_chunks) = pm.initial_fit(&initial, &spec.sgd, &mut initial_ledger);
    pm.set_trace_scope(None);
    fit_span.finish();
    if let Some(server) = &config.serving {
        publish_serving(server, &pm, &metrics, "initial");
    }
    for (raw, fc) in initial.into_iter().zip(feature_chunks) {
        dm.ingest_raw(raw)?;
        dm.store_features(fc)?;
    }
    dm.store_mut().reset_stats();

    // ---- Deployment loop ----
    // Simulated deployment clock: advances by exactly one chunk period
    // per arriving chunk, independent of wall time, so scheduling
    // decisions stay deterministic (the bit-identical contract). Shared
    // with the WAL writer so group-commit windows run on simulated time.
    let sim = Arc::new(VirtualClock::new());
    let wal = match &config.wal {
        Some(wc) => Some(open_wal(
            wc,
            &hook,
            &sim,
            &metrics,
            stream.deployment_range().start as u64,
            false,
        )?),
        None => None,
    };
    let st = LoopState {
        dm,
        pm,
        evaluator,
        proactive,
        ledger: CostLedger::new(config.cost_model),
        sim,
        chunks_since_training: 0,
        last_training_secs: 0.0,
        last_training_at_secs: 0.0,
        proactive_runs: 0,
        proactive_secs_sum: 0.0,
        retrain_runs: 0,
        // Per-chunk error monitor feeding the drift-adaptive scheduler
        // (chunk-granular windows: ~60 stable chunks vs the last 12).
        drift_monitor: DriftDetector::new(60, 12, 2.0, 3.0),
        drift_level: 0,
        prev_acc: 0.0,
        prev_count: 0,
        initial_report,
        checkpoint_stats: CheckpointStats::default(),
        wal,
    };
    run_chunk_loop(
        stream,
        spec,
        config,
        hook,
        metrics,
        tracer,
        wall,
        run_span,
        st,
        stream.deployment_range().start,
    )
}

/// Every piece of state the chunk loop mutates — what a fresh run
/// initializes from scratch, a checkpoint serializes, and a resume rebuilds.
struct LoopState {
    dm: DataManager,
    pm: PipelineManager,
    evaluator: PrequentialEvaluator,
    proactive: ProactiveTrainer,
    ledger: CostLedger,
    sim: Arc<VirtualClock>,
    chunks_since_training: usize,
    last_training_secs: f64,
    last_training_at_secs: f64,
    proactive_runs: u64,
    proactive_secs_sum: f64,
    retrain_runs: u64,
    drift_monitor: DriftDetector,
    drift_level: u8,
    prev_acc: f64,
    prev_count: u64,
    initial_report: TrainReport,
    checkpoint_stats: CheckpointStats,
    wal: Option<WalRuntime>,
}

/// Live WAL state for a run: the append-side writer plus whatever recovery
/// salvaged from the directory at open.
struct WalRuntime {
    writer: WalWriter,
    /// Recovered records sorted by sequence number. A resumed run reads
    /// arrivals from here first (falling back to the stream for anything
    /// the WAL lost or never held) — which is what re-orders late and
    /// out-of-order arrivals deterministically at replay.
    replay: Vec<(u64, RawChunk)>,
}

impl WalRuntime {
    fn replay_chunk(&self, seq: u64) -> Option<&RawChunk> {
        self.replay
            .binary_search_by_key(&seq, |(s, _)| *s)
            .ok()
            .map(|i| &self.replay[i].1)
    }
}

/// Opens (recovering first) the WAL for a run starting at `start_seq`. The
/// writer continues past everything already durable; `keep_replay` decides
/// whether recovered records at or past `start_seq` are replayed into the
/// loop (resume) or left to the stream (fresh run).
fn open_wal(
    wc: &WalConfig,
    hook: &Arc<dyn FaultHook>,
    clock: &Arc<VirtualClock>,
    metrics: &Metrics,
    start_seq: u64,
    keep_replay: bool,
) -> Result<WalRuntime, DeploymentError> {
    let recovery = WalDir::open(&wc.dir)?.recover()?;
    let clock: Arc<dyn Clock> = Arc::<VirtualClock>::clone(clock);
    let mut writer = WalWriter::open(
        &wc.dir,
        WalOptions {
            fsync_every: wc.fsync_every,
            group_window_secs: wc.group_window_secs,
            segment_bytes: wc.segment_bytes,
            retry: RetryPolicy::default(),
        },
        Arc::clone(hook),
        clock,
        metrics.clone(),
        recovery.next_seq().max(start_seq),
    )?;
    let replayed = if keep_replay {
        recovery
            .chunks
            .iter()
            .filter(|(s, _)| *s >= start_seq)
            .count() as u64
    } else {
        0
    };
    writer.absorb_recovery(&recovery, replayed);
    let replay = if keep_replay {
        recovery
            .chunks
            .into_iter()
            .filter(|(s, _)| *s >= start_seq)
            .collect()
    } else {
        Vec::new()
    };
    Ok(WalRuntime { writer, replay })
}

/// Publishes the manager's current `(pipeline, model)` pair to an attached
/// serving front and logs a `serving.publish` event naming the site and the
/// exact weights (by fingerprint), so tests and operators can tell *which*
/// model each publish carried. Clones never perturb training state.
fn publish_serving(server: &ModelServer, pm: &PipelineManager, metrics: &Metrics, source: &str) {
    let version = server.publish(pm.pipeline().clone(), pm.trainer().model().clone());
    if metrics.is_enabled() {
        let fp = weights_fingerprint(pm.trainer().model().weights().as_slice());
        metrics.event(
            "serving.publish",
            format!("{source} version {version} fp {fp:016x}"),
        );
    }
}

/// Live state of the telemetry layer: the ring-buffer store, the stateful
/// alert monitors, and the optional flight recorder. Built once per run
/// (only when telemetry is configured *and* metrics are enabled), so a
/// disabled configuration costs the chunk loop a single `Option` branch.
struct TelemetryRuntime {
    store: TelemetryStore,
    monitor: AlertMonitor,
    slo: SloMonitor,
    recorder: Option<FlightRecorder>,
    alerts: Vec<Alert>,
    every: usize,
    chunks_since: usize,
    flush_every: usize,
    samples_since_flush: usize,
}

impl TelemetryRuntime {
    fn new(tc: &TelemetryConfig, chunk_period_secs: f64) -> Result<Self, DeploymentError> {
        let recorder = match &tc.recorder {
            Some(rc) => Some(FlightRecorder::open(&rc.dir, rc.keep)?),
            None => None,
        };
        Ok(Self {
            store: TelemetryStore::new(tc.capacity)
                .with_exclude_prefixes(tc.exclude_prefixes.clone()),
            monitor: AlertMonitor::deployment_defaults(chunk_period_secs)
                .with_cooldown(tc.cooldown_secs),
            slo: SloMonitor::deployment_defaults(tc.serving_p99_budget_secs)
                .with_cooldown(tc.cooldown_secs),
            recorder,
            alerts: Vec::new(),
            every: tc.every_chunks.max(1),
            chunks_since: 0,
            flush_every: tc
                .recorder
                .as_ref()
                .map_or(usize::MAX, |rc| rc.flush_every_samples.max(1)),
            samples_since_flush: 0,
        })
    }

    /// One sampling tick: records a snapshot of every metric, runs the
    /// stateful threshold and burn-rate monitors over it, and flushes a
    /// segment when the flush interval elapsed.
    fn sample(&mut self, metrics: &Metrics, at_secs: f64) -> Result<(), DeploymentError> {
        let snap = metrics.snapshot();
        self.store.record(at_secs, &snap);
        let mut fired = self.monitor.observe(&snap, at_secs);
        fired.extend(self.slo.observe(&self.store, at_secs));
        for alert in &fired {
            metrics.event("alert.fired", alert.message());
        }
        self.alerts.extend(fired);
        self.samples_since_flush += 1;
        if let Some(rec) = self.recorder.as_mut() {
            if self.samples_since_flush >= self.flush_every {
                rec.flush(&self.store, &self.alerts, at_secs)?;
                self.samples_since_flush = 0;
            }
        }
        Ok(())
    }

    /// Best-effort segment write on the way out of a crashing run — the
    /// post-mortem timeline is worth more than a clean error path, so I/O
    /// failures here are swallowed.
    fn crash_flush(&mut self, at_secs: f64) {
        if let Some(rec) = self.recorder.as_mut() {
            let _ = rec.flush(&self.store, &self.alerts, at_secs);
        }
    }
}

/// The shared arrival loop: chunks `start_idx..total` through evaluation,
/// online learning, mode-specific freshness work, checkpointing, and final
/// result assembly. Fresh runs enter at the deployment range's start;
/// resumed runs enter one past the restored checkpoint.
#[allow(clippy::too_many_arguments)]
fn run_chunk_loop(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
    hook: Arc<dyn FaultHook>,
    metrics: Metrics,
    tracer: Tracer,
    wall: Stopwatch,
    run_span: TraceSpan,
    mut st: LoopState,
    start_idx: usize,
) -> Result<DeploymentResult, DeploymentError> {
    let run_ctx = run_span.context();
    let ckpt_dir = match &config.checkpoint {
        Some(c) => Some(CheckpointDir::open(&c.dir, c.keep)?),
        None => None,
    };
    let ckpt_every = config
        .checkpoint
        .as_ref()
        .map(|c| c.every_chunks.max(1))
        .unwrap_or(usize::MAX);
    let mut chunks_since_ckpt = 0usize;
    let mut last_processed_idx = None;
    let mut telemetry = match (&config.telemetry, metrics.is_enabled()) {
        (Some(tc), true) => Some(TelemetryRuntime::new(tc, config.chunk_period_secs)?),
        _ => None,
    };

    for idx in start_idx..stream.total_chunks() {
        // Arrival: on resume the recovered WAL suffix is authoritative
        // (records re-ordered by sequence number); the stream covers
        // anything the WAL lost or never held.
        let raw = match st.wal.as_ref().and_then(|w| w.replay_chunk(idx as u64)) {
            Some(chunk) => chunk.clone(),
            None => stream.chunk(idx),
        };
        st.sim.advance_secs(config.chunk_period_secs);
        let chunk_span = tracer.child_of("deployment.chunk", run_ctx);
        let chunk_ctx = chunk_span.context();
        st.pm.set_trace_scope(chunk_ctx);
        metrics.counter("deployment.chunks").inc();
        // WAL first: the arrival must be durable (or at least buffered
        // toward the next group commit) before any processing touches it.
        if let Some(w) = st.wal.as_mut() {
            w.writer.append(idx as u64, &raw)?;
            // A "wal-append" crash kills the process mid-group-commit:
            // half the buffered bytes reach the segment as a torn,
            // unsynced tail that recovery must truncate.
            if hook.crash_now(CrashSite::WalAppend) {
                let _ = w.writer.crash_torn();
                if let Some(tel) = telemetry.as_mut() {
                    tel.crash_flush(st.sim.now_secs());
                }
                return Err(DeploymentError::Crashed(CrashSite::WalAppend));
            }
            // A "wal-rotate" crash kills the process mid-rotation: the
            // next segment exists only as an orphaned `.tmp` file that
            // recovery must ignore.
            if hook.crash_now(CrashSite::WalRotate) {
                let _ = w.writer.crash_rotation();
                if let Some(tel) = telemetry.as_mut() {
                    tel.crash_flush(st.sim.now_secs());
                }
                return Err(DeploymentError::Crashed(CrashSite::WalRotate));
            }
        }
        // Stage 1: discretized arrival into the store (raw history).
        st.dm.ingest_raw(raw.clone())?;
        // Stages 2 + prequential evaluation + online learning.
        let fc = st
            .pm
            .process_online_chunk(&raw, &mut st.evaluator, &mut st.ledger);
        st.dm.store_features(fc)?;
        st.chunks_since_training += 1;

        // Feed this chunk's mean error into the drift monitor.
        let fresh = st.evaluator.count() - st.prev_count;
        if fresh > 0 {
            let chunk_error = (st.evaluator.raw_accumulator() - st.prev_acc) / fresh as f64;
            st.prev_acc = st.evaluator.raw_accumulator();
            st.prev_count = st.evaluator.count();
            let observed = match st.drift_monitor.observe(chunk_error) {
                DriftStatus::Drift => 2,
                DriftStatus::Warning => 1,
                DriftStatus::Stable | DriftStatus::Warmup => 0,
            };
            if observed != st.drift_level {
                metrics.event(
                    "drift.level_change",
                    format!("chunk {idx}: {} -> {observed}", st.drift_level),
                );
            }
            st.drift_level = observed;
            metrics.gauge("drift.level").set(f64::from(st.drift_level));
        }

        match config.mode {
            DeploymentMode::Online => {}
            DeploymentMode::Periodical {
                retrain_every,
                warm_start,
            } => {
                if st.chunks_since_training >= retrain_every.max(1) {
                    st.chunks_since_training = 0;
                    st.last_training_at_secs = st.sim.now_secs();
                    st.retrain_runs += 1;
                    metrics.counter("deployment.retrains").inc();
                    let retrain_span = metrics.span("deployment.retrain_secs");
                    let retrain_trace = tracer.child_of("deployment.retrain", chunk_ctx);
                    st.pm.set_trace_scope(retrain_trace.context());
                    let history = st.dm.full_history();
                    if warm_start {
                        st.pm.retrain_warm(&history, &spec.sgd, &mut st.ledger);
                    } else {
                        // Cold restart: fresh pipeline statistics and model.
                        st.pm = PipelineManager::new(
                            spec.try_build_pipeline()?,
                            &spec.sgd,
                            spec.online_batch,
                        )
                        .with_engine(config.engine)
                        .with_fault_hook(Arc::clone(&hook))
                        .with_metrics(metrics.clone())
                        .with_tracer(tracer.clone());
                        st.pm.set_trace_scope(retrain_trace.context());
                        let owned: Vec<_> = history.iter().map(|c| (**c).clone()).collect();
                        st.pm.initial_fit(&owned, &spec.sgd, &mut st.ledger);
                    }
                    st.pm.set_trace_scope(chunk_ctx);
                    retrain_trace.finish();
                    retrain_span.finish();
                    if let Some(server) = &config.serving {
                        publish_serving(server, &st.pm, &metrics, "retrain");
                    }
                }
            }
            DeploymentMode::Continuous {
                scheduler,
                sample_chunks,
                ..
            } => {
                let queries = st.evaluator.count().max(1);
                let ctx = SchedulerContext {
                    chunk_period_secs: config.chunk_period_secs,
                    last_training_secs: st.last_training_secs,
                    avg_prediction_latency: st.ledger.phase(Phase::Prediction) / queries as f64,
                    prediction_rate: queries as f64 / ((idx + 1) as f64 * config.chunk_period_secs),
                    elapsed_secs: st.sim.now_secs() - st.last_training_at_secs,
                    chunks_since_last: st.chunks_since_training,
                    drift_level: st.drift_level,
                };
                metrics
                    .gauge("scheduler.t_secs")
                    .set(ctx.last_training_secs);
                metrics.gauge("scheduler.pr").set(ctx.prediction_rate);
                metrics
                    .gauge("scheduler.pl")
                    .set(ctx.avg_prediction_latency);
                if scheduler.should_fire(&ctx) {
                    metrics.counter("scheduler.fires").inc();
                    // How long past the Eq. 6 interval the platform waited
                    // before firing (0 = fired exactly on schedule).
                    if let Scheduler::Dynamic { slack } = scheduler {
                        let interval = Scheduler::dynamic_interval_secs(slack, &ctx);
                        if interval.is_finite() {
                            metrics
                                .histogram_with_bounds(
                                    "scheduler.fire_margin_secs",
                                    &[0.0, 1.0, 10.0, 60.0, 600.0, 3600.0],
                                )
                                .observe(ctx.elapsed_secs - interval);
                        }
                    }
                    st.chunks_since_training = 0;
                    st.last_training_at_secs = st.sim.now_secs();
                    let fire_span = tracer.child_of("proactive.fire", chunk_ctx);
                    let fire_ctx = fire_span.context();
                    let sample_span = tracer.child_of("dm.sample", fire_ctx);
                    let sampled = st.dm.sample(sample_chunks);
                    sample_span.finish();
                    st.pm.set_trace_scope(fire_ctx);
                    let outcome = st
                        .proactive
                        .try_execute(&mut st.pm, sampled, &mut st.ledger)?;
                    st.pm.set_trace_scope(chunk_ctx);
                    fire_span.finish();
                    metrics.counter("proactive.runs").inc();
                    metrics
                        .counter("proactive.materialized_chunks")
                        .add(outcome.materialized_chunks as u64);
                    metrics
                        .counter("proactive.spilled_chunks")
                        .add(outcome.spilled_chunks as u64);
                    metrics
                        .counter("proactive.rematerialized_chunks")
                        .add(outcome.rematerialized_chunks as u64);
                    metrics
                        .counter("proactive.points")
                        .add(outcome.points as u64);
                    if let Some(loss) = outcome.batch_loss {
                        metrics.gauge("proactive.batch_loss").set(loss);
                    }
                    metrics
                        .histogram("proactive.accounted_secs")
                        .observe(outcome.accounted_secs);
                    st.last_training_secs = outcome.accounted_secs;
                    st.proactive_secs_sum += outcome.accounted_secs;
                    st.proactive_runs += 1;
                    // Publish the freshly trained pair immediately — the
                    // paper's operational point: proactive training hands a
                    // new model to the serving layer within the same chunk.
                    if let Some(server) = &config.serving {
                        publish_serving(server, &st.pm, &metrics, "proactive");
                    }
                    // A "fire" crash kills the process right after the
                    // proactive fire was accounted, mid-chunk: the last
                    // durable checkpoint predates this chunk entirely.
                    if hook.crash_now(CrashSite::ProactiveFire) {
                        if let Some(tel) = telemetry.as_mut() {
                            tel.crash_flush(st.sim.now_secs());
                        }
                        return Err(DeploymentError::Crashed(CrashSite::ProactiveFire));
                    }
                } else {
                    metrics.counter("scheduler.skips").inc();
                }
            }
        }

        // Chunk-boundary publish: even without a training event, online SGD
        // advanced the weights this chunk, so an attached server gets the
        // freshest pair once per arrival period.
        if let Some(server) = &config.serving {
            publish_serving(server, &st.pm, &metrics, &format!("chunk {idx}"));
        }
        st.evaluator.checkpoint();
        st.ledger.checkpoint(idx as u64);
        st.pm.set_trace_scope(None);
        chunk_span.finish();
        last_processed_idx = Some(idx as u64);

        if let Some(dir) = &ckpt_dir {
            chunks_since_ckpt += 1;
            if chunks_since_ckpt >= ckpt_every {
                let bytes = match write_checkpoint(dir, idx as u64, &st, &hook, &metrics) {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        // A checkpoint-site crash (or write failure) still
                        // leaves a post-mortem trail on disk.
                        if let Some(tel) = telemetry.as_mut() {
                            tel.crash_flush(st.sim.now_secs());
                        }
                        return Err(e);
                    }
                };
                st.checkpoint_stats.writes += 1;
                st.checkpoint_stats.bytes_written += bytes;
                chunks_since_ckpt = 0;
                // This checkpoint now owns every arrival up to `idx`: pin
                // it against the keep-budget pruner (the live WAL suffix
                // resumes from exactly this file) and retire the WAL
                // segments it fully covers.
                dir.pin(idx as u64);
                if let Some(w) = st.wal.as_mut() {
                    w.writer.gc(idx as u64)?;
                }
            }
            // Staleness in units of the configured interval: > 2.0 fires
            // the `checkpoint.staleness` default alert rule.
            metrics
                .gauge("checkpoint.staleness")
                .set(chunks_since_ckpt as f64 / ckpt_every as f64);
        }
        // Telemetry sampling tick: after the checkpoint block (so the
        // staleness gauge is current) and before the chunk-boundary crash
        // check (so a crashed run's last flushed sample covers this chunk).
        if let Some(tel) = telemetry.as_mut() {
            tel.chunks_since += 1;
            if tel.chunks_since >= tel.every {
                tel.chunks_since = 0;
                export_mu_gauges(&metrics, config, &st);
                tel.sample(&metrics, st.sim.now_secs())?;
            }
        }
        // A "chunk" crash kills the process at the chunk boundary, *after*
        // any due checkpoint write: that write's stats exclude the crash.
        if hook.crash_now(CrashSite::ChunkBoundary) {
            if let Some(tel) = telemetry.as_mut() {
                tel.crash_flush(st.sim.now_secs());
            }
            return Err(DeploymentError::Crashed(CrashSite::ChunkBoundary));
        }
    }

    // Clean shutdown: commit any buffered WAL tail so every arrival is
    // durable regardless of the shutdown checkpoint below.
    if let Some(w) = st.wal.as_mut() {
        w.writer.flush()?;
    }

    // Shutdown checkpoint: make the final state durable unless the last
    // periodic write already covered it (or nothing was processed).
    if let Some(dir) = &ckpt_dir {
        if chunks_since_ckpt > 0 {
            if let Some(idx) = last_processed_idx {
                let bytes = match write_checkpoint(dir, idx, &st, &hook, &metrics) {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        if let Some(tel) = telemetry.as_mut() {
                            tel.crash_flush(st.sim.now_secs());
                        }
                        return Err(e);
                    }
                };
                st.checkpoint_stats.writes += 1;
                st.checkpoint_stats.bytes_written += bytes;
                dir.pin(idx);
                if let Some(w) = st.wal.as_mut() {
                    w.writer.gc(idx)?;
                }
            }
        }
        metrics.gauge("checkpoint.staleness").set(0.0);
    }

    let stats = st.dm.stats();
    if metrics.is_enabled() {
        metrics
            .counter("deployment.queries")
            .add(st.evaluator.count());
    }
    export_mu_gauges(&metrics, config, &st);
    // Final telemetry tick: sample the end-of-run state when the cadence
    // missed it, then make the full timeline durable.
    if let Some(tel) = telemetry.as_mut() {
        let at = st.sim.now_secs();
        if tel.chunks_since != 0 {
            tel.chunks_since = 0;
            tel.sample(&metrics, at)?;
        }
        if let Some(rec) = tel.recorder.as_mut() {
            if tel.samples_since_flush > 0 {
                rec.flush(&tel.store, &tel.alerts, at)?;
                tel.samples_since_flush = 0;
            }
        }
    }
    // SLA alerting: with telemetry enabled the stateful per-sample monitors
    // already accumulated the (cooldown-deduplicated) fired set; otherwise
    // the stateless default monitor runs once over the final snapshot. In
    // both cases the fired set is identical with tracing on or off.
    let (alerts, telemetry_store) = match telemetry {
        Some(tel) => (tel.alerts, tel.store),
        None => {
            let alerts = if metrics.is_enabled() {
                let monitor = AlertMonitor::deployment_defaults(config.chunk_period_secs);
                let fired = monitor.evaluate(&metrics.snapshot(), st.sim.now_secs());
                for alert in &fired {
                    metrics.event("alert.fired", alert.message());
                }
                fired
            } else {
                Vec::new()
            };
            (alerts, TelemetryStore::default())
        }
    };
    run_span.finish();
    Ok(DeploymentResult {
        approach: config.mode.name().to_owned(),
        final_error: st.evaluator.error(),
        average_error: average_of_curve(st.evaluator.curve()),
        error_curve: st.evaluator.curve().to_vec(),
        cost_curve: st.ledger.curve().to_vec(),
        preprocessing_secs: st.ledger.phase(Phase::Preprocessing),
        training_secs: st.ledger.phase(Phase::Training),
        prediction_secs: st.ledger.phase(Phase::Prediction),
        io_secs: st.ledger.phase(Phase::MaterializationIo),
        total_secs: st.ledger.total(),
        wall_secs: wall.elapsed_secs(),
        proactive_runs: st.proactive_runs,
        avg_proactive_secs: if st.proactive_runs > 0 {
            st.proactive_secs_sum / st.proactive_runs as f64
        } else {
            0.0
        },
        retrain_runs: st.retrain_runs,
        store_stats: stats,
        empirical_mu: stats.utilization_rate(),
        queries_answered: st.evaluator.count(),
        initial_report: st.initial_report,
        final_weights: st.pm.trainer().model().weights().as_slice().to_vec(),
        fault_stats: hook.snapshot(),
        tiered_stats: st.dm.tiered_stats(),
        metrics: metrics.snapshot(),
        trace: tracer.snapshot(),
        alerts,
        telemetry: telemetry_store,
        checkpoint_stats: st.checkpoint_stats,
        wal_stats: st
            .wal
            .as_ref()
            .map(|w| w.writer.stats())
            .unwrap_or_default(),
    })
}

/// Exports the observed materialization utilization rate μ and its
/// analytical predictions (paper Eqs. 4/5) as gauges. Called at every
/// telemetry sampling tick — so the `slo.mu_divergence_burn` rule watches a
/// live signal — and once at end of run. The gap between observed and
/// predicted quantifies how far the run's access pattern departs from the
/// closed-form model; `MaxBytes` has no closed form in chunks, so only the
/// chunk-count budgets get a prediction.
fn export_mu_gauges(metrics: &Metrics, config: &DeploymentConfig, st: &LoopState) {
    if !metrics.is_enabled() {
        return;
    }
    metrics
        .gauge("pm.mu_observed")
        .set(st.dm.stats().utilization_rate());
    let strategy = match config.mode {
        DeploymentMode::Continuous { strategy, .. } => strategy,
        _ => SamplingStrategy::Uniform,
    };
    let total_n = st.dm.chunk_count();
    let capacity_m = match config.optimization.budget {
        StorageBudget::MaxChunks(m) => Some(m.min(total_n)),
        StorageBudget::Unbounded => Some(total_n),
        StorageBudget::MaxBytes(_) => None,
    };
    if let Some(m) = capacity_m {
        metrics.gauge("pm.mu_uniform").set(mu_uniform(m, total_n));
        if let SamplingStrategy::WindowBased { window } = strategy {
            if total_n > 0 {
                let w = window.clamp(1, total_n);
                metrics.gauge("pm.mu_window").set(mu_window(m, w, total_n));
            }
        }
    }
}

/// Assembles and durably writes one checkpoint, returning the bytes
/// written. The metrics snapshot is captured *before* this write's own
/// `checkpoint.*` accounting, so the embedded snapshot is causally
/// consistent with the rest of the payload.
fn write_checkpoint(
    dir: &CheckpointDir,
    idx: u64,
    st: &LoopState,
    hook: &Arc<dyn FaultHook>,
    metrics: &Metrics,
) -> Result<u64, DeploymentError> {
    let payload = assemble_checkpoint(idx, st, hook, metrics).encode();
    // An injected "checkpoint" crash kills the process mid-write: only a
    // torn temp file is left, exactly what a real kill produces. Recovery
    // must fall back to the previous durable checkpoint.
    if hook.crash_now(CrashSite::CheckpointWrite) {
        let _ = dir.write_torn(idx, &payload);
        return Err(DeploymentError::Crashed(CrashSite::CheckpointWrite));
    }
    let span = metrics.span("checkpoint.write_secs");
    let bytes = dir.write(idx, &payload)?;
    span.finish();
    metrics.counter("checkpoint.writes").inc();
    metrics.counter("checkpoint.write_bytes").add(bytes);
    Ok(bytes)
}

/// Captures the loop's dynamic state at the boundary after chunk `idx`.
fn assemble_checkpoint(
    idx: u64,
    st: &LoopState,
    hook: &Arc<dyn FaultHook>,
    metrics: &Metrics,
) -> DeploymentCheckpoint {
    let trainer = st.pm.trainer();
    let (_, opt_t, acc1, acc2) = trainer.optimizer().to_parts();
    let (drift_baseline, drift_recent) = st.drift_monitor.window_contents();
    DeploymentCheckpoint {
        chunk_idx: idx,
        now_secs: st.sim.now_secs(),
        weights: trainer.model().weights().as_slice().to_vec(),
        opt_t,
        opt_acc1: acc1.as_slice().to_vec(),
        opt_acc2: acc2.as_slice().to_vec(),
        points_seen: trainer.points_seen(),
        component_states: st.pm.pipeline().component_states(),
        pipeline_counters: st.pm.pipeline().counters(),
        eval_count: st.evaluator.count(),
        eval_acc: st.evaluator.raw_accumulator(),
        eval_curve: st.evaluator.curve().to_vec(),
        accounted: st.ledger.accounted(),
        cost_curve: st.ledger.curve().to_vec(),
        chunks_since_training: st.chunks_since_training as u64,
        last_training_secs: st.last_training_secs,
        last_training_at_secs: st.last_training_at_secs,
        proactive_runs: st.proactive_runs,
        proactive_secs_sum: st.proactive_secs_sum,
        retrain_runs: st.retrain_runs,
        drift_level: st.drift_level,
        drift_baseline,
        drift_recent,
        prev_acc: st.prev_acc,
        prev_count: st.prev_count,
        sampler_rng: st.dm.sampler_rng_state(),
        fault_stats: hook.snapshot(),
        fault_epoch: hook.worker_epoch(),
        store_stats: st.dm.stats(),
        tiered_stats: st.dm.tiered_stats(),
        manifest: st
            .dm
            .store()
            .materialized_timestamps()
            .into_iter()
            .map(|t| t.0)
            .collect(),
        initial_report: st.initial_report,
        ckpt_writes: st.checkpoint_stats.writes,
        ckpt_bytes: st.checkpoint_stats.bytes_written,
        ckpt_restores: st.checkpoint_stats.restores,
        metrics: metrics.snapshot(),
    }
}

/// Resumes a killed deployment from its newest valid checkpoint, running it
/// to completion. Panics on failure; use [`try_resume_deployment`] for a
/// typed error.
///
/// # Panics
/// Panics when there is nothing to resume from or the resumed run fails.
pub fn resume_deployment(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
) -> DeploymentResult {
    match try_resume_deployment(stream, spec, config) {
        Ok(result) => result,
        Err(e) => panic!("resume failed: {e}"),
    }
}

/// [`resume_deployment`] with failures surfaced as typed errors.
///
/// Resume receives the same `stream`, `spec`, and `config` the original run
/// used — the checkpoint stores only dynamic state and is meaningless
/// against different static inputs. The newest valid checkpoint in
/// `config.checkpoint.dir` wins; torn, corrupt, or version-mismatched files
/// are skipped in favour of their predecessor. The resumed run is
/// bit-identical to an uninterrupted one: same weights, prequential curve,
/// accounted cost, storage counters, and alerts.
///
/// An injected crash site in `config.faults` is cleared on resume: the dead
/// process already consumed that countdown.
///
/// # Errors
/// [`DeploymentError::NoCheckpoint`] when checkpointing is not configured
/// or no valid checkpoint file exists; [`DeploymentError::Storage`] with
/// [`StorageError::Corrupt`] when the checkpoint does not match the
/// spec/stream (never a panic); otherwise as [`try_run_deployment`].
pub fn try_resume_deployment(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
) -> Result<DeploymentResult, DeploymentError> {
    let metrics = if config.collect_metrics {
        Metrics::collecting()
    } else {
        Metrics::disabled()
    };
    try_resume_deployment_observed(stream, spec, config, metrics)
}

/// [`try_resume_deployment`] recording runtime metrics into an explicit
/// [`Metrics`] handle (which is first restored from the checkpoint's
/// embedded snapshot, then extended by the resumed run).
///
/// # Errors
/// Same as [`try_resume_deployment`].
pub fn try_resume_deployment_observed(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
    metrics: Metrics,
) -> Result<DeploymentResult, DeploymentError> {
    let tracer = if config.collect_traces {
        Tracer::collecting()
    } else {
        Tracer::disabled()
    };
    try_resume_deployment_traced(stream, spec, config, metrics, tracer)
}

/// [`try_resume_deployment_observed`] recording causal spans into an
/// explicit [`Tracer`] handle. The resumed trace is rooted at
/// `deployment.run` with a `deployment.replay` child covering state
/// reconstruction.
///
/// # Errors
/// Same as [`try_resume_deployment`].
pub fn try_resume_deployment_traced(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
    metrics: Metrics,
    tracer: Tracer,
) -> Result<DeploymentResult, DeploymentError> {
    let wall = Stopwatch::start();
    let Some(ckpt_cfg) = &config.checkpoint else {
        return Err(DeploymentError::NoCheckpoint(
            "DeploymentConfig.checkpoint is not set".into(),
        ));
    };
    let dir = CheckpointDir::open(&ckpt_cfg.dir, ckpt_cfg.keep)?;
    let Some((seq, version, payload)) = dir.latest_valid_versioned()? else {
        return Err(DeploymentError::NoCheckpoint(format!(
            "no valid checkpoint in {}",
            ckpt_cfg.dir.display()
        )));
    };
    let ckpt = DeploymentCheckpoint::decode_versioned(version, &payload)?;
    let run_span = tracer.root("deployment.run");
    let run_ctx = run_span.context();

    // The dead process already consumed its crash countdown — a resumed run
    // clears the crash site (disk/worker faults keep injecting, keyed
    // purely by (seed, site, key, attempt), so recovery behaviour of the
    // remaining chunks is unchanged).
    let mut plan = config.faults;
    plan.crash_site = None;
    let strategy = match config.mode {
        DeploymentMode::Continuous { strategy, .. } => strategy,
        _ => SamplingStrategy::Uniform,
    };

    // ---- Replay: rebuild the store (raw history, feature cache, spill
    // files) by re-running the ingest/fit-transform fold up to the
    // checkpoint. The checkpoint holds chunk *references* only (§3.4) —
    // evicted features re-materialize on demand, cached and spilled ones
    // are reproduced here bit-identically by the deterministic pipeline.
    // Counters and statistics accumulated during replay are throwaway; the
    // checkpointed values are restored as authoritative afterwards.
    let replay_hook: Arc<dyn FaultHook> = if plan.is_active() {
        Arc::new(FaultInjector::new(plan))
    } else {
        Arc::new(NoFaults)
    };
    let mut dm = if config.spill_to_disk {
        DataManager::with_spill(
            config.optimization.budget,
            strategy,
            config.seed,
            private_spill_dir(),
            Arc::clone(&replay_hook),
            RetryPolicy::default(),
        )?
    } else {
        DataManager::new(config.optimization.budget, strategy, config.seed)
    };
    let replay_span = tracer.child_of("deployment.replay", run_ctx);
    let mut pipeline = spec.try_build_pipeline()?;
    for raw in stream.initial() {
        let fc = pipeline.fit_transform_chunk(&raw);
        dm.ingest_raw(raw)?;
        dm.store_features(fc)?;
    }
    dm.store_mut().reset_stats();
    for idx in stream.deployment_range() {
        if idx as u64 > ckpt.chunk_idx {
            break;
        }
        let raw = stream.chunk(idx);
        dm.ingest_raw(raw.clone())?;
        let fc = pipeline.fit_transform_chunk(&raw);
        dm.store_features(fc)?;
    }
    replay_span.finish();

    // ---- Validate against the spec/stream before touching anything that
    // asserts: a checkpoint from a different pipeline or stream surfaces
    // as a typed Corrupt error, never a panic or a silent restart.
    let expected_states = pipeline.component_states().len();
    if ckpt.component_states.len() != expected_states {
        return Err(StorageError::Corrupt(format!(
            "checkpoint has {} component states, the spec's pipeline has {expected_states} \
             (wrong spec for this checkpoint?)",
            ckpt.component_states.len()
        ))
        .into());
    }
    let replayed_manifest: Vec<u64> = dm
        .store()
        .materialized_timestamps()
        .into_iter()
        .map(|t| t.0)
        .collect();
    if replayed_manifest != ckpt.manifest {
        return Err(StorageError::Corrupt(format!(
            "replayed materialization manifest ({} chunks) diverges from the checkpoint \
             ({} chunks) — stream or config mismatch",
            replayed_manifest.len(),
            ckpt.manifest.len()
        ))
        .into());
    }

    // ---- Restore authoritative state over the replayed skeleton.
    metrics.restore_from(&ckpt.metrics);
    pipeline.restore_component_states(&ckpt.component_states)?;
    pipeline.set_counters(ckpt.pipeline_counters);
    let trainer = SgdTrainer::restore(
        LinearModel::with_weights(DenseVector::new(ckpt.weights), spec.sgd.loss),
        OptimizerState::from_parts(
            spec.sgd.optimizer,
            ckpt.opt_t,
            DenseVector::new(ckpt.opt_acc1),
            DenseVector::new(ckpt.opt_acc2),
        ),
        spec.sgd.regularizer,
        ckpt.points_seen,
    );
    let hook: Arc<dyn FaultHook> = if plan.is_active() {
        Arc::new(FaultInjector::with_state(
            plan,
            ckpt.fault_stats,
            ckpt.fault_epoch,
        ))
    } else {
        Arc::new(NoFaults)
    };
    dm.set_hook(Arc::clone(&hook));
    dm.set_metrics(metrics.clone());
    dm.set_sampler_rng_state(ckpt.sampler_rng);
    dm.store_mut().restore_stats(ckpt.store_stats);
    dm.restore_tiered_stats(ckpt.tiered_stats);
    let pm = PipelineManager::with_trainer(pipeline, trainer, spec.online_batch)
        .with_engine(config.engine)
        .with_fault_hook(Arc::clone(&hook))
        .with_metrics(metrics.clone())
        .with_tracer(tracer.clone());
    let evaluator = PrequentialEvaluator::restore(
        spec.metric,
        ckpt.eval_count,
        ckpt.eval_acc,
        ckpt.eval_curve,
        0,
    );
    let ledger = CostLedger::from_parts(config.cost_model, ckpt.accounted, ckpt.cost_curve);
    let mut drift_monitor = DriftDetector::new(60, 12, 2.0, 3.0);
    drift_monitor.restore_windows(ckpt.drift_baseline, ckpt.drift_recent);
    let sim = Arc::new(VirtualClock::new());
    sim.advance_secs(ckpt.now_secs);
    metrics.counter("checkpoint.restores").inc();
    metrics.event(
        "checkpoint.restore",
        format!(
            "resumed from checkpoint {seq} after chunk {}",
            ckpt.chunk_idx
        ),
    );
    // WAL recovery: everything durable past the checkpoint replays into
    // the loop; the stream covers records the WAL lost (group-commit
    // buffers, exhausted retries). The writer continues past the highest
    // recovered sequence so replayed appends are idempotently skipped.
    let wal = match &config.wal {
        Some(wc) => {
            let rt = open_wal(wc, &hook, &sim, &metrics, ckpt.chunk_idx + 1, true)?;
            metrics.event(
                "wal.recover",
                format!(
                    "replaying {} records after chunk {}",
                    rt.replay.len(),
                    ckpt.chunk_idx
                ),
            );
            Some(rt)
        }
        None => None,
    };

    let st = LoopState {
        dm,
        pm,
        evaluator,
        proactive: if config.optimization.online_stats {
            ProactiveTrainer::new()
        } else {
            ProactiveTrainer::without_online_stats()
        },
        ledger,
        sim,
        chunks_since_training: ckpt.chunks_since_training as usize,
        last_training_secs: ckpt.last_training_secs,
        last_training_at_secs: ckpt.last_training_at_secs,
        proactive_runs: ckpt.proactive_runs,
        proactive_secs_sum: ckpt.proactive_secs_sum,
        retrain_runs: ckpt.retrain_runs,
        drift_monitor,
        drift_level: ckpt.drift_level,
        prev_acc: ckpt.prev_acc,
        prev_count: ckpt.prev_count,
        initial_report: ckpt.initial_report,
        checkpoint_stats: CheckpointStats {
            writes: ckpt.ckpt_writes,
            bytes_written: ckpt.ckpt_bytes,
            restores: ckpt.ckpt_restores + 1,
        },
        wal,
    };
    // Publish the *restored* pair before re-entering the loop: a server
    // attached to a resumed deployment serves the checkpointed version
    // first and never answers from a pre-crash stale snapshot.
    if let Some(server) = &config.serving {
        publish_serving(server, &st.pm, &metrics, "restore");
    }
    run_chunk_loop(
        stream,
        spec,
        config,
        hook,
        metrics,
        tracer,
        wall,
        run_span,
        st,
        (ckpt.chunk_idx + 1) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{taxi_spec, url_spec, SpecScale};

    fn tiny_url() -> (cdp_datagen::url::UrlGenerator, DeploymentSpec) {
        url_spec(SpecScale::Tiny)
    }

    fn tiny_taxi() -> (cdp_datagen::taxi::TaxiGenerator, DeploymentSpec) {
        taxi_spec(SpecScale::Tiny)
    }

    #[test]
    fn online_deployment_runs_and_learns() {
        let (stream, spec) = tiny_url();
        let result = run_deployment(&stream, &spec, &DeploymentConfig::online());
        assert_eq!(result.approach, "Online");
        assert!(result.queries_answered > 0);
        assert!(result.final_error < 0.5, "error {}", result.final_error);
        assert_eq!(result.proactive_runs, 0);
        assert_eq!(result.retrain_runs, 0);
        assert!(result.total_secs > 0.0);
        assert_eq!(result.error_curve.len(), result.cost_curve.len());
    }

    #[test]
    fn continuous_runs_proactive_training() {
        let (stream, spec) = tiny_url();
        let config = DeploymentConfig::continuous(2, 3, SamplingStrategy::TimeBased);
        let result = run_deployment(&stream, &spec, &config);
        assert!(result.proactive_runs > 0);
        assert!(result.avg_proactive_secs > 0.0);
        assert!(result.empirical_mu > 0.9, "unbounded budget ⇒ μ ≈ 1");
    }

    #[test]
    fn periodical_retrains_and_costs_more_than_continuous() {
        let (stream, spec) = tiny_url();
        let periodical = run_deployment(&stream, &spec, &DeploymentConfig::periodical(5));
        assert!(periodical.retrain_runs > 0);
        let continuous = run_deployment(
            &stream,
            &spec,
            &DeploymentConfig::continuous(2, 3, SamplingStrategy::TimeBased),
        );
        assert!(
            periodical.total_secs > continuous.total_secs,
            "periodical {} must exceed continuous {}",
            periodical.total_secs,
            continuous.total_secs
        );
        let online = run_deployment(&stream, &spec, &DeploymentConfig::online());
        assert!(continuous.total_secs > online.total_secs);
    }

    #[test]
    fn limited_budget_lowers_mu() {
        let (stream, spec) = tiny_url();
        let mut config = DeploymentConfig::continuous(2, 4, SamplingStrategy::Uniform);
        config.optimization.budget = StorageBudget::MaxChunks(5);
        let result = run_deployment(&stream, &spec, &config);
        assert!(result.empirical_mu < 1.0);
        assert!(result.store_stats.feature_misses > 0);
    }

    #[test]
    fn no_optimization_costs_more() {
        let (stream, spec) = tiny_url();
        let base = DeploymentConfig::continuous(2, 4, SamplingStrategy::TimeBased);
        let with_opt = run_deployment(&stream, &spec, &base);
        let mut no_opt_cfg = base;
        no_opt_cfg.optimization.online_stats = false;
        let without = run_deployment(&stream, &spec, &no_opt_cfg);
        assert!(
            without.total_secs > with_opt.total_secs,
            "NoOptimization {} must exceed optimized {}",
            without.total_secs,
            with_opt.total_secs
        );
    }

    #[test]
    fn taxi_deployment_regression_error_reasonable() {
        let (stream, spec) = tiny_taxi();
        let result = run_deployment(
            &stream,
            &spec,
            &DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform),
        );
        // RMSLE on log1p(duration): the constant predictor sits around 6.5;
        // anything below 1.0 means the model learned structure.
        assert!(result.final_error < 1.0, "RMSLE = {}", result.final_error);
    }

    #[test]
    fn deterministic_given_seed() {
        let (stream, spec) = tiny_url();
        let config = DeploymentConfig::continuous(3, 2, SamplingStrategy::Uniform);
        let a = run_deployment(&stream, &spec, &config);
        let b = run_deployment(&stream, &spec, &config);
        assert_eq!(a.final_error, b.final_error);
        assert_eq!(a.total_secs, b.total_secs);
        assert_eq!(a.proactive_runs, b.proactive_runs);
    }

    #[test]
    fn drift_adaptive_mode_runs_end_to_end() {
        let (stream, spec) = tiny_url();
        let mut config = DeploymentConfig::online();
        config.mode = DeploymentMode::Continuous {
            scheduler: Scheduler::DriftAdaptive { every_chunks: 4 },
            sample_chunks: 3,
            strategy: SamplingStrategy::TimeBased,
        };
        let result = run_deployment(&stream, &spec, &config);
        assert!(result.proactive_runs > 0);
        assert!(result.final_error < 0.5);
        // Never more than one training per chunk.
        assert!(result.proactive_runs <= (stream.total_chunks() - stream.initial_chunks()) as u64);
    }

    #[test]
    fn threaded_engine_reproduces_sequential_deployment() {
        // All three deployment modes must be bit-identical across engines:
        // same prequential error curve, same model weights, same accounted
        // cost. Parallelism only changes wall-clock time.
        let (stream, spec) = tiny_url();
        let mut limited_continuous = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
        // A bounded cache forces re-materialization through the engine.
        limited_continuous.optimization.budget = StorageBudget::MaxChunks(5);
        let configs = [
            DeploymentConfig::online(),
            DeploymentConfig::periodical(5),
            DeploymentConfig::continuous(2, 3, SamplingStrategy::TimeBased),
            limited_continuous,
        ];
        for base in configs {
            let sequential = run_deployment(&stream, &spec, &base);
            let mut threaded_cfg = base.clone();
            threaded_cfg.engine = ExecutionEngine::Threaded { workers: 4 };
            let threaded = run_deployment(&stream, &spec, &threaded_cfg);
            let mode = base.mode.name();
            assert_eq!(
                sequential.final_error.to_bits(),
                threaded.final_error.to_bits(),
                "{mode}: final error"
            );
            assert_eq!(
                sequential.error_curve, threaded.error_curve,
                "{mode}: error curve"
            );
            assert_eq!(
                sequential.final_weights, threaded.final_weights,
                "{mode}: model weights"
            );
            assert_eq!(
                sequential.total_secs.to_bits(),
                threaded.total_secs.to_bits(),
                "{mode}: accounted cost"
            );
            assert_eq!(sequential.retrain_runs, threaded.retrain_runs);
            assert_eq!(sequential.proactive_runs, threaded.proactive_runs);
        }
    }

    #[test]
    fn cold_restart_differs_from_warm() {
        let (stream, spec) = tiny_url();
        let warm = run_deployment(&stream, &spec, &DeploymentConfig::periodical(5));
        let mut cold_cfg = DeploymentConfig::periodical(5);
        cold_cfg.mode = DeploymentMode::Periodical {
            retrain_every: 5,
            warm_start: false,
        };
        let cold = run_deployment(&stream, &spec, &cold_cfg);
        assert_eq!(warm.retrain_runs, cold.retrain_runs);
        // Cold restarts refit statistics (update passes) — strictly more work.
        assert!(cold.preprocessing_secs > warm.preprocessing_secs);
    }
}
