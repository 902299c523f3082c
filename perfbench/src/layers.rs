//! Per-layer numbers: self time per span name from the program's own spans,
//! and benchmark timers around public calls into layers that have no span
//! inside the program, replayed over the workload's chunks in arrival order.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cdp_core::deployment::WalConfig;
use cdp_core::pipeline_manager::PipelineManager;
use cdp_core::serving::ModelServer;
use cdp_engine::ExecutionEngine;
use cdp_eval::{CostLedger, CostModel, PrequentialEvaluator};
use cdp_faults::{NoFaults, RetryPolicy};
use cdp_ml::LinearModel;
use cdp_obs::{Clock, Metrics, SpanId, TraceSnapshot, VirtualClock};
use cdp_storage::{WalOptions, WalWriter};

use crate::inputs::{Inputs, Workload};
use crate::run::WAL_GROUP_COMMIT;

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct SpanStat {
    /// Spans recorded.
    pub count: usize,
    /// Summed duration in seconds.
    pub total_s: f64,
    /// Summed self time in seconds: duration minus the part of it that the
    /// span's children cover.
    pub self_s: f64,
    /// Each span's duration in ms.
    pub durations_ms: Vec<f64>,
    /// Each span's self time in ms.
    pub self_ms: Vec<f64>,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Count, duration and self time per span name across `traces`.
pub fn span_stats(traces: &[TraceSnapshot]) -> BTreeMap<String, SpanStat> {
    let mut stats: BTreeMap<String, SpanStat> = BTreeMap::new();
    for trace in traces {
        let mut children: HashMap<SpanId, Vec<(f64, f64)>> = HashMap::new();
        for span in &trace.spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_secs, span.end_secs));
            }
        }
        for span in &trace.spans {
            let dur = span.duration_secs();
            let child = children
                .get_mut(&span.id)
                .map_or(0.0, |c| covered(c, span.start_secs, span.end_secs));
            let own = (dur - child).max(0.0);
            let stat = stats.entry(span.name.clone()).or_default();
            stat.count += 1;
            stat.total_s += dur;
            stat.self_s += own;
            stat.durations_ms.push(dur * 1e3);
            stat.self_ms.push(own * 1e3);
        }
    }
    stats
}

/// What the layer replay timers measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// `Pipeline::fit_transform_chunk` time per row, in µs.
    pub transform_us_per_row: f64,
    /// `PipelineManager::process_online_chunk` per deployment chunk, ms.
    pub online_chunk_ms: Vec<f64>,
    /// `ModelServer::publish` per deployment chunk, µs (with serving).
    pub publish_us: Vec<f64>,
    /// `WalWriter::append` (plus the closing `flush`) per record, µs (with
    /// a WAL).
    pub wal_append_us: Vec<f64>,
}

/// Replays the workload's chunks through the layers that have no span of
/// their own: the pipeline, the pipeline manager's online step, and — on
/// `url-durable` — the serving publish and the WAL append path, the latter
/// into `dir`.
///
/// # Errors
/// When the pipeline cannot be built or the WAL fails.
pub fn replay(inputs: &Inputs, engine: ExecutionEngine, dir: &Path) -> Result<Replay, String> {
    let spec = &inputs.spec;
    let stream = &inputs.stream;
    let build = || {
        spec.try_build_pipeline()
            .map_err(|e| format!("pipeline: {e}"))
    };
    let mut out = Replay::default();

    let mut pipeline = build()?;
    let mut transform_s = 0.0;
    for chunk in stream.chunks() {
        let t = Instant::now();
        black_box(pipeline.fit_transform_chunk(chunk));
        transform_s += t.elapsed().as_secs_f64();
    }
    out.transform_us_per_row = transform_s * 1e6 / stream.rows().max(1) as f64;

    let durable = inputs.workload == Workload::UrlDurable;
    let server = if durable {
        Some(ModelServer::new(
            build()?,
            LinearModel::zeros(0, spec.sgd.loss),
        ))
    } else {
        None
    };
    let mut pm = PipelineManager::new(build()?, &spec.sgd, spec.online_batch).with_engine(engine);
    let mut ledger = CostLedger::new(CostModel::commodity());
    let initial = &stream.chunks()[..stream.chunks().len() - stream.deployment_chunks().len()];
    black_box(pm.initial_fit(initial, &spec.sgd, &mut ledger));
    let mut evaluator = PrequentialEvaluator::new(spec.metric, 0);
    for chunk in stream.deployment_chunks() {
        let t = Instant::now();
        black_box(pm.process_online_chunk(chunk, &mut evaluator, &mut ledger));
        out.online_chunk_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(server) = &server {
            let t = Instant::now();
            black_box(server.publish(pm.pipeline().clone(), pm.trainer().model().clone()));
            out.publish_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    if durable {
        replay_wal(inputs, dir, &mut out)?;
    }
    Ok(out)
}

/// Appends the deployment chunks to a fresh WAL with the workload's
/// group-commit size, advancing a simulated clock one chunk period per
/// record as the deployment loop does.
fn replay_wal(inputs: &Inputs, dir: &Path, out: &mut Replay) -> Result<(), String> {
    let config = WalConfig::new(dir).fsync_every(WAL_GROUP_COMMIT);
    let clock = Arc::new(VirtualClock::new());
    let stream = &inputs.stream;
    let first = stream.chunks().len() - stream.deployment_chunks().len();
    let mut writer = WalWriter::open(
        &config.dir,
        WalOptions {
            fsync_every: config.fsync_every,
            group_window_secs: config.group_window_secs,
            segment_bytes: config.segment_bytes,
            retry: RetryPolicy::default(),
        },
        Arc::new(NoFaults),
        Arc::<VirtualClock>::clone(&clock) as Arc<dyn Clock>,
        Metrics::disabled(),
        first as u64,
    )
    .map_err(|e| format!("wal open: {e}"))?;
    for (i, chunk) in stream.deployment_chunks().iter().enumerate() {
        clock.advance_secs(inputs.spec.chunk_period_secs);
        let t = Instant::now();
        writer
            .append((first + i) as u64, chunk)
            .map_err(|e| format!("wal append: {e}"))?;
        out.wal_append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let t = Instant::now();
    writer.flush().map_err(|e| format!("wal flush: {e}"))?;
    if let Some(last) = out.wal_append_us.last_mut() {
        *last += t.elapsed().as_secs_f64() * 1e6;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = vec![(0.5, 2.0), (1.0, 1.5), (3.0, 9.0)];
        assert!((covered(&mut iv, 0.0, 4.0) - 2.5).abs() < 1e-12);
    }
}
