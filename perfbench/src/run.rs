//! Deployment runs against the platform's public API: the reference run,
//! timed runs, set-up-only runs, and `url-durable`'s crash and resume with a
//! closed-loop serving client beside it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use cdp_core::deployment::{
    try_resume_deployment_traced, try_run_deployment_traced, CheckpointConfig, DeploymentConfig,
    DeploymentError, DeploymentResult, RecorderConfig, TelemetryConfig, WalConfig,
};
use cdp_core::serving::ModelServer;
use cdp_engine::ExecutionEngine;
use cdp_faults::{CrashSite, FaultPlan};
use cdp_ml::LinearModel;
use cdp_obs::{Metrics, MetricsSnapshot, TraceSnapshot, Tracer};
use cdp_sampling::SamplingStrategy;
use cdp_storage::{Record, StorageBudget};

use crate::inputs::{BenchStream, Inputs, Workload};
use crate::measure::written_bytes;

/// `url-durable` checkpoints every this many chunks.
const CHECKPOINT_EVERY: usize = 8;
/// `url-durable` group-commits the WAL every this many records.
pub const WAL_GROUP_COMMIT: usize = 8;
/// The injected crash lands this many chunks after the last periodic
/// checkpoint of the run.
const CRASH_AFTER_CHECKPOINT: u64 = 3;

/// Logical CPUs of the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The threaded engine: one pool worker per spare core, so the calling
/// thread plus the pool never exceed `nproc` threads.
pub fn threaded() -> ExecutionEngine {
    ExecutionEngine::Threaded {
        workers: nproc().saturating_sub(1).max(1),
    }
}

/// The engine a workload is measured on.
pub fn workload_engine(workload: Workload) -> ExecutionEngine {
    match workload {
        Workload::UrlDurable => ExecutionEngine::Sequential,
        _ => threaded(),
    }
}

/// The workload's deployment configuration without durability or serving:
/// what the reference run uses, and all the timed run uses on
/// `url-continuous`.
pub fn base_config(inputs: &Inputs, engine: ExecutionEngine) -> DeploymentConfig {
    let spec = &inputs.spec;
    let mut config = DeploymentConfig::continuous(
        spec.proactive_every,
        spec.sample_chunks,
        SamplingStrategy::TimeBased,
    );
    if inputs.workload == Workload::UrlDurable {
        // A quarter-size feature cache that spills evicted chunks to disk,
        // so the run exercises the store's eviction, GC and spill paths.
        let chunks = inputs.stream.chunks().len();
        config.optimization.budget = StorageBudget::MaxChunks((chunks / 4).max(1));
        config.spill_to_disk = true;
    }
    config.chunk_period_secs = spec.chunk_period_secs;
    config.seed = inputs.seed;
    config.engine = engine;
    config
}

/// The deployment-chunk boundary (0-based) at which `url-durable` crashes:
/// a few chunks after the run's last periodic checkpoint.
pub fn crash_at(deployment_chunks: usize) -> u64 {
    let every = CHECKPOINT_EVERY as u64;
    let room = (deployment_chunks as u64).saturating_sub(CRASH_AFTER_CHECKPOINT + 1);
    ((room / every) * every).saturating_sub(1) + CRASH_AFTER_CHECKPOINT
}

/// Run-private scratch directories under the benchmark's output directory.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// Scratch space under `root` (created on demand).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            next: AtomicU64::new(0),
        }
    }

    fn fresh(&self, label: &str) -> Result<PathBuf, String> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self
            .root
            .join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Removes a run's scratch directory, ignoring errors.
fn discard(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Wall-clock marks around one deployment call: its start, its return, and
/// every deployment-chunk pull in between.
#[derive(Debug, Clone)]
pub struct Marks {
    start: Instant,
    end: Instant,
    pulls: Vec<Instant>,
}

impl Marks {
    /// Seconds from the call to the first deployment chunk pulled: state
    /// construction plus the initial fit.
    pub fn setup_s(&self) -> f64 {
        let first = self.pulls.first().copied().unwrap_or(self.end);
        (first - self.start).as_secs_f64()
    }

    /// Per-chunk latency in ms: the time between consecutive pulls, and for
    /// the last chunk the time to the return.
    pub fn chunk_ms(&self) -> Vec<f64> {
        let mut next = self.pulls.iter().skip(1).chain(std::iter::once(&self.end));
        self.pulls
            .iter()
            .map(|p| (*next.next().unwrap_or(&self.end) - *p).as_secs_f64() * 1e3)
            .collect()
    }

    /// Seconds from the first deployment pull to the return.
    pub fn deploy_wall_s(&self) -> f64 {
        let first = self.pulls.first().copied().unwrap_or(self.end);
        (self.end - first).as_secs_f64()
    }

    /// Seconds from the call to the return.
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

fn marked<T>(stream: &BenchStream, f: impl FnOnce() -> T) -> (T, Marks) {
    stream.take_pulls();
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let pulls = stream.take_pulls();
    (out, Marks { start, end, pulls })
}

/// What the closed-loop serving client saw.
#[derive(Debug, Clone, Default)]
pub struct Serve {
    /// `predict` calls made.
    pub calls: u64,
    /// Calls that returned a prediction.
    pub answered: u64,
    /// Service time of every call in ns, ascending.
    pub latency_ns: Vec<u32>,
    /// Seconds the client ran.
    pub wall_s: f64,
    /// Median of the server's staleness sampled while the client ran.
    pub staleness_s: f64,
    /// The server's own accounting: attempts, served, rejected and batch
    /// failures.
    pub attempts: u64,
    /// Queries the server answered.
    pub served: u64,
    /// Queries the server rejected.
    pub rejected: u64,
    /// Queries lost to batch failures.
    pub batch_failures: u64,
    /// The server's metrics (empty unless the run was traced).
    pub metrics: MetricsSnapshot,
}

impl Serve {
    /// Service-time quantile `q` in µs (0.0 without calls).
    pub fn latency_us(&self, q: f64) -> f64 {
        let n = self.latency_ns.len();
        if n == 0 {
            return 0.0;
        }
        let i = ((q.clamp(0.0, 1.0) * (n - 1) as f64).round() as usize).min(n - 1);
        f64::from(self.latency_ns[i]) * 1e-3
    }

    /// Calls per second.
    pub fn qps(&self) -> f64 {
        self.calls as f64 / self.wall_s.max(1e-9)
    }

    /// The serving accounting holds and every query got an answer.
    ///
    /// # Errors
    /// A description of the broken invariant.
    pub fn check(&self) -> Result<(), String> {
        if self.attempts != self.served + self.rejected + self.batch_failures {
            return Err(format!(
                "serving accounting: attempts {} != served {} + rejected {} + batch failures {}",
                self.attempts, self.served, self.rejected, self.batch_failures
            ));
        }
        if self.answered != self.calls || self.attempts != self.calls {
            return Err(format!(
                "serving: {} of {} queries unanswered ({} attempts recorded)",
                self.calls - self.answered,
                self.calls,
                self.attempts
            ));
        }
        Ok(())
    }
}

/// Sets the flag when dropped, so a client thread stops even when the
/// deployment side returns early.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Calls `predict` back to back over `queries` until `stop` is set.
fn client(server: &ModelServer, queries: &[&Record], stop: &AtomicBool) -> Serve {
    let mut latency_ns: Vec<u32> = Vec::with_capacity(1 << 20);
    let mut staleness = Vec::new();
    let mut answered = 0u64;
    let started = Instant::now();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) && !queries.is_empty() {
        let t0 = Instant::now();
        let answer = server.predict(queries[i % queries.len()]);
        let ns = t0.elapsed().as_nanos();
        latency_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        answered += u64::from(answer.is_some());
        if i.is_multiple_of(4096) {
            staleness.push(server.staleness_secs());
        }
        i += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    latency_ns.sort_unstable();
    Serve {
        calls: latency_ns.len() as u64,
        answered,
        latency_ns,
        wall_s,
        staleness_s: crate::measure::median(&staleness),
        ..Serve::default()
    }
}

/// One measured deployment of a workload.
pub struct Run {
    /// The final result (the resumed one on `url-durable`).
    pub result: DeploymentResult,
    /// Timing marks of the (first) deployment call.
    pub marks: Marks,
    /// Bytes the process wrote during the run.
    pub write_bytes: u64,
    /// Wall seconds of `try_resume_deployment` (`url-durable` only).
    pub recovery_s: Option<f64>,
    /// The serving client's view (`url-durable` only).
    pub serve: Option<Serve>,
    /// Span trees: the run, and on `url-durable` the resume after it.
    pub traces: Vec<TraceSnapshot>,
}

impl Run {
    /// Wall seconds of the deployment calls, the resume included.
    pub fn wall_s(&self) -> f64 {
        self.marks.wall_s() + self.recovery_s.unwrap_or(0.0)
    }

    /// Wall seconds from the first deployment pull to the return, the
    /// resume included: the span the cost model accounts for.
    pub fn deploy_wall_s(&self) -> f64 {
        self.marks.deploy_wall_s() + self.recovery_s.unwrap_or(0.0)
    }
}

fn tracer_for(traced: bool) -> Tracer {
    if traced {
        Tracer::collecting()
    } else {
        Tracer::disabled()
    }
}

fn failed(what: &str, e: &DeploymentError) -> String {
    format!("{what} failed: {e}")
}

/// The uninterrupted sequential-engine reference over the same inputs.
///
/// # Errors
/// When the deployment fails.
pub fn reference(inputs: &Inputs) -> Result<(DeploymentResult, f64), String> {
    let config = base_config(inputs, ExecutionEngine::Sequential);
    let (res, marks) = marked(&inputs.stream, || {
        try_run_deployment_traced(
            &inputs.stream,
            &inputs.spec,
            &config,
            Metrics::disabled(),
            Tracer::disabled(),
        )
    });
    Ok((
        res.map_err(|e| failed("reference run", &e))?,
        marks.wall_s(),
    ))
}

/// One measured run of the workload on `engine`. `traced` turns on span and
/// metrics collection (the per-layer run); otherwise both are off, except
/// that `url-durable`'s telemetry needs metrics by design. The handles passed
/// here override the configuration's `collect_*` flags.
///
/// # Errors
/// When a deployment fails or `url-durable` does not crash where planned.
pub fn measure(
    inputs: &Inputs,
    engine: ExecutionEngine,
    traced: bool,
    scratch: &Scratch,
) -> Result<Run, String> {
    if inputs.workload == Workload::UrlDurable {
        return measure_durable(inputs, &inputs.stream, engine, traced, scratch, true);
    }
    let config = base_config(inputs, engine);
    let metrics = if traced {
        Metrics::collecting()
    } else {
        Metrics::disabled()
    };
    let written = written_bytes();
    let (res, marks) = marked(&inputs.stream, || {
        try_run_deployment_traced(
            &inputs.stream,
            &inputs.spec,
            &config,
            metrics,
            tracer_for(traced),
        )
    });
    let write_bytes = written_bytes().saturating_sub(written);
    let mut result = res.map_err(|e| failed("timed run", &e))?;
    Ok(Run {
        traces: vec![std::mem::take(&mut result.trace)],
        result,
        marks,
        write_bytes,
        recovery_s: None,
        serve: None,
    })
}

/// Set-up time of one deployment over the initial chunks plus a single
/// deployment chunk, with the workload's full configuration.
///
/// # Errors
/// When the deployment fails.
pub fn setup_only(inputs: &Inputs, prefix: &BenchStream, scratch: &Scratch) -> Result<f64, String> {
    let engine = workload_engine(inputs.workload);
    if inputs.workload == Workload::UrlDurable {
        let run = measure_durable(inputs, prefix, engine, false, scratch, false)?;
        return Ok(run.marks.setup_s());
    }
    let config = base_config(inputs, engine);
    let (res, marks) = marked(prefix, || {
        try_run_deployment_traced(
            prefix,
            &inputs.spec,
            &config,
            Metrics::disabled(),
            Tracer::disabled(),
        )
    });
    res.map_err(|e| failed("set-up run", &e))?;
    Ok(marks.setup_s())
}

/// `url-durable`: checkpoints, WAL, telemetry with the flight recorder and
/// an attached server queried by one closed-loop client. With `crash`, an
/// injected chunk-boundary crash lands a few chunks after the last periodic
/// checkpoint and `try_resume_deployment` runs the rest.
fn measure_durable(
    inputs: &Inputs,
    stream: &BenchStream,
    engine: ExecutionEngine,
    traced: bool,
    scratch: &Scratch,
    crash: bool,
) -> Result<Run, String> {
    let dir = scratch.fresh(inputs.workload.name())?;
    let outcome = durable_in(inputs, stream, engine, traced, &dir, crash);
    discard(&dir);
    outcome
}

fn durable_in(
    inputs: &Inputs,
    stream: &BenchStream,
    engine: ExecutionEngine,
    traced: bool,
    dir: &Path,
    crash: bool,
) -> Result<Run, String> {
    let spec = &inputs.spec;
    let server_metrics = if traced {
        Metrics::collecting()
    } else {
        Metrics::disabled()
    };
    let server = ModelServer::builder(
        spec.try_build_pipeline()
            .map_err(|e| format!("pipeline: {e}"))?,
        LinearModel::zeros(0, spec.sgd.loss),
    )
    .metrics(server_metrics.clone())
    .build();
    let mut config = base_config(inputs, engine);
    config.checkpoint = Some(
        CheckpointConfig::new(dir.join("checkpoints"))
            .every(CHECKPOINT_EVERY)
            .keep(2),
    );
    config.wal = Some(WalConfig::new(dir.join("wal")).fsync_every(WAL_GROUP_COMMIT));
    config.telemetry =
        Some(TelemetryConfig::new().recorder(RecorderConfig::new(dir.join("recorder"))));
    config.serving = Some(server.clone());
    if crash {
        let deployment_chunks = stream.deployment_chunks().len();
        config.faults = FaultPlan {
            crash_site: Some(CrashSite::ChunkBoundary),
            crash_at: crash_at(deployment_chunks),
            ..FaultPlan::none()
        };
    }
    let queries: Vec<&Record> = stream
        .deployment_chunks()
        .iter()
        .flat_map(|c| c.records.iter())
        .collect();
    let stop = AtomicBool::new(false);
    let written = written_bytes();
    let (outcome, mut serve) = std::thread::scope(|s| {
        let client = s.spawn(|| client(&server, &queries, &stop));
        let outcome = {
            let _stop = StopOnDrop(&stop);
            durable_deploy(stream, spec, &config, traced, crash)
        };
        let serve = client.join();
        (outcome, serve)
    });
    let write_bytes = written_bytes().saturating_sub(written);
    let serve = serve
        .as_mut()
        .map_err(|_| "serving client panicked".to_owned())?;
    serve.attempts = server.attempts();
    serve.served = server.queries_served();
    serve.rejected = server.queries_rejected();
    serve.batch_failures = server.batch_failures();
    serve.metrics = server_metrics.snapshot();
    let (result, marks, recovery_s, traces) = outcome?;
    Ok(Run {
        result,
        marks,
        write_bytes,
        recovery_s,
        serve: Some(std::mem::take(serve)),
        traces,
    })
}

type Durable = (DeploymentResult, Marks, Option<f64>, Vec<TraceSnapshot>);

fn durable_deploy(
    stream: &BenchStream,
    spec: &cdp_core::presets::DeploymentSpec,
    config: &DeploymentConfig,
    traced: bool,
    crash: bool,
) -> Result<Durable, String> {
    // Telemetry needs metrics, so they are collected on every durable run.
    let tracer = tracer_for(traced);
    let (res, marks) = marked(stream, || {
        try_run_deployment_traced(stream, spec, config, Metrics::collecting(), tracer.clone())
    });
    if !crash {
        let result = res.map_err(|e| failed("durable run", &e))?;
        return Ok((result, marks, None, vec![tracer.snapshot()]));
    }
    match res {
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
        Err(e) => return Err(failed("durable run", &e)),
        Ok(_) => return Err("durable run finished without the injected crash".to_owned()),
    }
    let started = Instant::now();
    let mut resumed = try_resume_deployment_traced(
        stream,
        spec,
        config,
        Metrics::collecting(),
        tracer_for(traced),
    )
    .map_err(|e| failed("resume", &e))?;
    let recovery_s = started.elapsed().as_secs_f64();
    let traces = vec![tracer.snapshot(), std::mem::take(&mut resumed.trace)];
    Ok((resumed, marks, Some(recovery_s), traces))
}
