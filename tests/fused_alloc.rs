//! Allocation accounting for the fused transform+gradient pass: the fused
//! step must never materialize an intermediate feature buffer, so for the
//! same workload it allocates strictly less — in both count and bytes — than
//! the materialize-then-step path it replaced.
//!
//! This file holds exactly one `#[test]` so the counting global allocator
//! sees no interference from sibling tests running on other harness threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cdpipe::engine::{ExecutionEngine, TaskCtx};
use cdpipe::ml::{LossKind, SgdConfig, SgdTrainer};
use cdpipe::pipeline::encode::DenseEncoder;
use cdpipe::pipeline::parser::SchemaParser;
use cdpipe::pipeline::scale::StandardScaler;
use cdpipe::pipeline::{Pipeline, PipelineBuilder};
use cdpipe::storage::{LabeledPoint, RawChunk, Record, RowView, Schema, Timestamp, Value};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns (result, allocs, bytes).
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

fn pipeline() -> Pipeline {
    let schema = Schema::new(["y", "x"]);
    PipelineBuilder::new(SchemaParser::new(schema, "y", &["x"], None))
        .add(StandardScaler::new())
        .encoder(DenseEncoder::new(1))
        .unwrap()
}

fn chunk(ts: u64, rows: u64) -> RawChunk {
    RawChunk::new(
        Timestamp(ts),
        (0..rows)
            .map(|i| {
                let x = (ts * rows + i) as f64;
                Record::new(vec![Value::Num(2.0 * x + 1.0), Value::Num(x)])
            })
            .collect(),
    )
}

#[test]
fn fused_step_allocates_less_than_materialize_then_step() {
    let engine = ExecutionEngine::Sequential;
    let config = SgdConfig::for_loss(LossKind::Squared);
    let raws: Vec<RawChunk> = (0..4).map(|t| chunk(t, 64)).collect();

    // Warm one shared template pipeline (component statistics) outside the
    // measured region, exactly as a deployment would have by proactive time.
    let mut template = pipeline();
    for raw in &raws {
        let _ = template.transform_chunk(raw);
    }

    // Unfused baseline: re-materialize every chunk into a FeatureChunk, then
    // feed the union batch to the sharded step.
    let mut unfused_trainer = SgdTrainer::new(1, &config);
    let ((), unfused_allocs, unfused_bytes) = measure(|| {
        let chunks: Vec<_> = raws
            .iter()
            .map(|raw| {
                let mut local = template.clone();
                local.reset_counters();
                local.transform_chunk(raw)
            })
            .collect();
        let batch: Vec<RowView<'_>> = chunks.iter().flat_map(|c| c.rows()).collect();
        let loss = unfused_trainer.step_rows(&batch, engine);
        assert!(loss.is_some());
    });

    // Fused path: same template clones, same rows, but every point flows
    // straight from the encoder into the gradient accumulator.
    let mut fused_trainer = SgdTrainer::new(1, &config);
    let (outcome, fused_allocs, fused_bytes) = measure(|| {
        fused_trainer
            .try_step_fused_on(
                raws.len(),
                |i, sink: &mut dyn FnMut(RowView<'_>)| {
                    let mut local = template.clone();
                    local.reset_counters();
                    local.transform_chunk_fold(&raws[i], &mut |p| sink(RowView::Point(p)));
                },
                engine,
                &TaskCtx::plain(),
            )
            .expect("fused step")
    });

    assert!(outcome.loss.is_some());
    assert_eq!(outcome.points, 4 * 64);

    // Both paths pay the same transient per-row vector allocations inside
    // the encoder, so raw allocation *counts* land within a few of each
    // other. The structural difference is the buffers that exist only on
    // the unfused path: one `Vec<LabeledPoint>` per chunk plus the union
    // batch vector. The fused pass must therefore save at least the bytes
    // of the materialized point arrays, engine overhead included.
    let materialized_floor = (raws.len() * 64 * std::mem::size_of::<LabeledPoint>()) as u64;
    assert!(
        fused_bytes + materialized_floor <= unfused_bytes,
        "fused path must save at least the materialized point buffers: \
         fused {fused_bytes} + floor {materialized_floor} vs unfused {unfused_bytes} \
         (allocs: fused {fused_allocs}, unfused {unfused_allocs})"
    );

    // A second fused step on the warm trainer reuses pooled gradient
    // buffers instead of allocating fresh ones.
    let warm_step = |trainer: &mut SgdTrainer| {
        measure(|| {
            trainer
                .try_step_fused_on(
                    raws.len(),
                    |i, sink: &mut dyn FnMut(RowView<'_>)| {
                        let mut local = template.clone();
                        local.reset_counters();
                        local.transform_chunk_fold(&raws[i], &mut |p| sink(RowView::Point(p)));
                    },
                    engine,
                    &TaskCtx::plain(),
                )
                .expect("warm fused step")
        })
    };
    let (_, _, warm_bytes) = warm_step(&mut fused_trainer);
    let (reused, allocated) = fused_trainer.scratch_counters();
    assert!(reused > 0, "warm fused step must reuse scratch buffers");
    assert!(allocated > 0);
    assert!(
        warm_bytes <= fused_bytes,
        "warm scratch pool should not allocate more than the cold one: {warm_bytes} vs {fused_bytes}"
    );

    // In the steady state a fire allocates no per-source gradient buffer:
    // every source's run comes from the pool, and the pool's capacity
    // already fits the fire.
    let (_, _, steady_bytes) = warm_step(&mut fused_trainer);
    let (steady_reused, steady_allocated) = fused_trainer.scratch_counters();
    assert_eq!(
        steady_allocated, allocated,
        "a steady-state fused step must not allocate a scratch run"
    );
    assert_eq!(steady_reused, reused + raws.len() as u64);
    assert!(
        steady_bytes <= warm_bytes,
        "a steady-state fused step should not allocate more than the first warm one: \
         {steady_bytes} vs {warm_bytes}"
    );
}
