//! Property-based tests: the threaded engine is observationally equivalent
//! to the sequential engine on arbitrary workloads, and its span trees
//! stay well-formed even while injected worker panics force restarts.

use cdp_engine::{ExecutionEngine, TaskCtx};
use cdp_faults::{FaultInjector, FaultPlan};
use cdp_obs::{Metrics, TraceSnapshot, Tracer};
use proptest::prelude::*;

/// Order-independent structural fingerprint of a span tree: the sorted
/// multiset of `(name, parent name)` edges. Thread assignment and record
/// order may differ between reruns; causal structure must not.
fn structure(snap: &TraceSnapshot) -> Vec<(String, Option<String>)> {
    let mut edges: Vec<(String, Option<String>)> = snap
        .spans
        .iter()
        .map(|s| (s.name.clone(), snap.parent_name(s).map(str::to_owned)))
        .collect();
    edges.sort();
    edges
}

proptest! {
    #[test]
    fn map_equivalence(items in prop::collection::vec(0u64..1_000_000, 0..200), workers in 1usize..9) {
        let f = |x: u64| x.wrapping_mul(2654435761).rotate_left(13);
        let seq = ExecutionEngine::Sequential.map(items.clone(), f);
        let par = ExecutionEngine::Threaded { workers }.map(items, f);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn preserves_length_and_order(n in 0usize..300, workers in 1usize..8) {
        let items: Vec<usize> = (0..n).collect();
        let out = ExecutionEngine::Threaded { workers }.map(items, |i| i);
        prop_assert_eq!(out, (0..n).collect::<Vec<usize>>());
    }

    /// Owned items and borrowed items read by index agree on both engines:
    /// callers sharding by index instead of `to_vec` cannot observe a
    /// difference.
    #[test]
    fn borrowed_indexed_map_matches_owned_map(
        items in prop::collection::vec(0u64..1_000_000, 0..200),
        workers in 1usize..9,
    ) {
        let f = |x: u64| x.wrapping_mul(2654435761).rotate_left(13);
        let owned = ExecutionEngine::Threaded { workers }.map(items.clone(), f);
        for engine in [ExecutionEngine::Sequential, ExecutionEngine::Threaded { workers }] {
            let borrowed = engine.map_indexed(items.len(), |i| f(items[i]), &TaskCtx::plain());
            prop_assert_eq!(&owned, &borrowed);
        }
    }

    /// Index parts of `part_len` cover the input in contiguous, in-order,
    /// non-overlapping windows (last one ragged), identically on both
    /// engines.
    #[test]
    fn index_parts_partition_in_order(
        items in prop::collection::vec(-1e3..1e3f64, 0..150),
        part_len in 1usize..40,
        workers in 1usize..8,
    ) {
        let f = |part: &[f64]| (part.len(), part.iter().sum::<f64>().to_bits());
        let parts = items.len().div_ceil(part_len);
        let part = |p: usize| f(&items[p * part_len..items.len().min((p + 1) * part_len)]);
        let seq = ExecutionEngine::Sequential.map_indexed(parts, part, &TaskCtx::plain());
        let par = ExecutionEngine::Threaded { workers }.map_indexed(parts, part, &TaskCtx::plain());
        prop_assert_eq!(&seq, &par);

        let expected: Vec<(usize, u64)> = items.chunks(part_len).map(f).collect();
        prop_assert_eq!(&seq, &expected);
        prop_assert_eq!(
            seq.iter().map(|(len, _)| len).sum::<usize>(),
            items.len()
        );
    }

    /// `map_indexed` and `try_map_indexed` visit exactly `0..n` and keep
    /// results index-ordered regardless of which worker steals which range.
    #[test]
    fn map_indexed_matches_identity(n in 0usize..300, workers in 1usize..8) {
        let f = |i: usize| i.wrapping_mul(2654435761);
        let seq = ExecutionEngine::Sequential.map_indexed(n, f, &TaskCtx::plain());
        let par = ExecutionEngine::Threaded { workers }.map_indexed(n, f, &TaskCtx::plain());
        prop_assert_eq!(&seq, &par);
        prop_assert_eq!(&seq, &(0..n).map(f).collect::<Vec<usize>>());
        let fallible = ExecutionEngine::Threaded { workers }.try_map_indexed(n, f, &TaskCtx::plain());
        prop_assert_eq!(Ok(seq), fallible);
    }
}

proptest! {
    #[test]
    fn span_trees_survive_injected_worker_panics(
        n in 1usize..64,
        workers in 1usize..4,
        seed in 0u64..1_000,
        panic_p in 0.0f64..0.6,
    ) {
        let plan = FaultPlan {
            seed,
            worker_panic: panic_p,
            ..FaultPlan::none()
        };
        // A fresh injector per run resets the fault epoch, so the same
        // plan replays the same panic schedule.
        let run = |engine: &ExecutionEngine| {
            let hook = FaultInjector::new(plan);
            let tracer = Tracer::collecting();
            let ctx = TaskCtx {
                hook: &hook,
                metrics: &Metrics::disabled(),
                tracer: &tracer,
                parent: None,
            };
            let out = engine.try_map_indexed(n, |i| (i as u64).wrapping_mul(2654435761), &ctx);
            (out, tracer.snapshot())
        };

        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers },
        ] {
            let (first, snap) = run(&engine);

            // Well-formed even mid-panic: no orphans, children inside
            // parents, every task under its map, restarts under tasks.
            prop_assert_eq!(snap.dropped_spans, 0);
            if let Err(e) = snap.validate() {
                prop_assert!(false, "malformed span tree: {}", e);
            }
            prop_assert!(snap.span_count("engine.map") >= 1);
            for span in &snap.spans {
                match span.name.as_str() {
                    "engine.map" => {
                        prop_assert_eq!(snap.parent_name(span), None)
                    }
                    "engine.task" => {
                        prop_assert_eq!(snap.parent_name(span), Some("engine.map"))
                    }
                    "engine.restart" => {
                        prop_assert_eq!(snap.parent_name(span), Some("engine.task"))
                    }
                    other => prop_assert!(false, "unexpected span {:?}", other),
                }
            }

            // Rerun-identical under the fixed seed: same outcome, same
            // results, same causal structure.
            let (second, resnap) = run(&engine);
            match (&first, &second) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "rerun diverged: first ok={}, second ok={}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
            prop_assert_eq!(structure(&snap), structure(&resnap));
        }
    }
}
