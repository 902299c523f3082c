//! Workload inputs: the deployment workloads, generated from a seed before
//! any timing starts, and the stream the deployment reads them from.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use cdp_core::presets::{url_spec, url_spec_from, DeploymentSpec, SpecScale};
use cdp_datagen::url::UrlConfig;
use cdp_datagen::ChunkStream;
use cdp_storage::{RawChunk, Schema};

/// One benchmark workload (see the README for why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// URL stream, continuous mode with the paper defaults, threaded engine.
    UrlContinuous,
    /// URL prefix with a spilling cache, checkpoints, WAL, telemetry,
    /// serving, and a crash plus resume.
    UrlDurable,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::UrlContinuous, Workload::UrlDurable];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UrlContinuous => "url-continuous",
            Workload::UrlDurable => "url-durable",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` keeps the same
/// configuration shape at a size the benchmark's own tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes (README, "Workloads").
    Full,
    /// Seconds-scale inputs for tests.
    Tiny,
}

/// Chunks of the URL prefix that `url-durable` deploys over.
const DURABLE_CHUNKS: usize = 400;

/// A pre-generated chunk stream. The deployment sees only these chunks;
/// every deployment-phase `chunk()` pull is timestamped so the benchmark can
/// derive set-up time and per-chunk latency without touching the program.
pub struct BenchStream {
    schema: Arc<Schema>,
    initial: usize,
    chunks: Vec<RawChunk>,
    pulls: Mutex<Vec<Instant>>,
}

impl BenchStream {
    /// Materializes the first `total` chunks of `source`.
    pub fn generate(source: &dyn ChunkStream, total: usize) -> Self {
        let total = total.min(source.total_chunks());
        Self {
            schema: source.schema(),
            initial: source.initial_chunks(),
            chunks: (0..total).map(|i| source.chunk(i)).collect(),
            pulls: Mutex::new(Vec::with_capacity(total)),
        }
    }

    /// The same inputs cut to the initial chunks plus one deployment chunk,
    /// for set-up-only runs.
    pub fn setup_prefix(&self) -> Self {
        let total = (self.initial + 1).min(self.chunks.len());
        Self {
            schema: Arc::clone(&self.schema),
            initial: self.initial,
            chunks: self.chunks[..total].to_vec(),
            pulls: Mutex::new(Vec::with_capacity(total)),
        }
    }

    /// Every chunk, initial ones first, in arrival order.
    pub fn chunks(&self) -> &[RawChunk] {
        &self.chunks
    }

    /// Deployment-phase chunks in arrival order.
    pub fn deployment_chunks(&self) -> &[RawChunk] {
        &self.chunks[self.initial..]
    }

    /// Rows across every chunk.
    pub fn rows(&self) -> usize {
        self.chunks.iter().map(RawChunk::len).sum()
    }

    /// Takes (and clears) the deployment pull timestamps recorded so far.
    pub fn take_pulls(&self) -> Vec<Instant> {
        std::mem::take(&mut *self.pulls.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl ChunkStream for BenchStream {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn total_chunks(&self) -> usize {
        self.chunks.len()
    }

    fn initial_chunks(&self) -> usize {
        self.initial
    }

    fn chunk(&self, index: usize) -> RawChunk {
        if index >= self.initial {
            self.pulls
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Instant::now());
        }
        self.chunks[index].clone()
    }
}

/// A workload's generated inputs and pipeline specification.
pub struct Inputs {
    /// Which workload these inputs belong to.
    pub workload: Workload,
    /// Input size.
    pub scale: Scale,
    /// The seed everything was generated from.
    pub seed: u64,
    /// Pipeline, training configuration and paper defaults.
    pub spec: DeploymentSpec,
    /// The pre-generated stream.
    pub stream: BenchStream,
    /// Feature dimensions the pipeline encodes into.
    pub dims: usize,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`. The same seed always
    /// gives the same chunks; the generator's seed is the only input.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Self {
        // The presets' URL stream at this scale, reseeded; the hashed
        // dimensions match the presets' (2^18 at repo scale, 2^8 tiny).
        let (spec_scale, hash_bits) = match scale {
            Scale::Full => (SpecScale::Repo, 18),
            Scale::Tiny => (SpecScale::Tiny, 8),
        };
        let (preset, _) = url_spec(spec_scale);
        let config = UrlConfig {
            seed,
            ..preset.config().clone()
        };
        let (generator, spec) = url_spec_from(config, hash_bits, spec_scale);
        let total = match (workload, scale) {
            (Workload::UrlDurable, Scale::Full) => DURABLE_CHUNKS,
            _ => generator.total_chunks(),
        };
        let stream = BenchStream::generate(&generator, total);
        let mut pipeline = spec.build_pipeline();
        for chunk in stream.chunks().iter().take(stream.initial_chunks()) {
            pipeline.fit_transform_chunk(chunk);
        }
        Self {
            workload,
            scale,
            seed,
            dims: pipeline.dim(),
            spec,
            stream,
        }
    }
}
