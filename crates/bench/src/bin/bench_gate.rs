//! Wall-clock regression gate for the engine hot path.
//!
//! Measures intra-process *ratios* — fused/unfused, stealing/fixed-shards,
//! threaded-map/sequential-map, columnar/row consume, storm/quiet serving —
//! and compares them against the checked-in baseline
//! (`crates/bench/baselines/engine_gate.json`). Each ratio is taken from
//! paired noise-floor timings ([`paired_floor_ratio`]), so it is robust to
//! both host speed and scheduler preemption; a ratio more than 10 % above
//! its baseline fails the gate (exit code 1), which is what CI runs.
//!
//! Regenerate the baseline after an intentional perf change:
//!
//! ```sh
//! cargo run --release -p cdp-bench --bin bench_gate -- --update
//! ```

use std::path::PathBuf;
use std::time::Instant;

use cdp_bench::hotpath::{
    fixed_shard_map, stealing_map, FusedWorkload, ServingWorkload, StoreWorkload,
};
use cdp_engine::{ExecutionEngine, TaskCtx};

/// Over-baseline slack before the gate fails.
const THRESHOLD: f64 = 0.10;
const SAMPLES: usize = 15;
const STEAL_ITEMS: usize = 512;

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join("engine_gate.json")
}

/// Ratio of per-phase noise floors over interleaved paired samples.
/// Scheduler preemption only ever *adds* time, so the minimum over samples
/// is a far lower-variance estimate of true cost than the median; timing
/// the two phases back-to-back also cancels host-speed drift between them.
fn paired_floor_ratio(mut num: impl FnMut(), mut den: impl FnMut()) -> f64 {
    for _ in 0..3 {
        num();
        den();
    }
    let mut num_floor = f64::INFINITY;
    let mut den_floor = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        num();
        num_floor = num_floor.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        den();
        den_floor = den_floor.min(t.elapsed().as_secs_f64());
    }
    num_floor / den_floor
}

fn measure() -> Vec<(&'static str, f64)> {
    let pool = ExecutionEngine::Threaded { workers: 4 };

    let workload = FusedWorkload::new(8, 128);
    let fused_ratio = paired_floor_ratio(
        || {
            workload.run_fused(ExecutionEngine::Sequential);
        },
        || {
            workload.run_unfused(ExecutionEngine::Sequential);
        },
    );

    let steal_ratio = paired_floor_ratio(
        || {
            stealing_map(pool, STEAL_ITEMS);
        },
        || {
            fixed_shard_map(STEAL_ITEMS, 4);
        },
    );

    let items: Vec<u64> = (0..256u64).collect();
    let work = |x: &u64| -> f64 {
        let mut acc = 0.0;
        for j in 0..200 {
            acc += ((x * 31 + j) as f64 * 1e-3).sqrt();
        }
        acc
    };
    let map_ratio = paired_floor_ratio(
        || {
            pool.map_indexed(items.len(), |i| work(&items[i]), &TaskCtx::plain());
        },
        || {
            ExecutionEngine::Sequential.map_indexed(
                items.len(),
                |i| work(&items[i]),
                &TaskCtx::plain(),
            );
        },
    );

    // Big enough that one consume pass is well clear of timer jitter — the
    // row path's allocation traffic dominates, so the ratio is stable.
    let store = StoreWorkload::new(64, 1024);
    let store_ratio = paired_floor_ratio(
        || {
            store.run_columnar(ExecutionEngine::Sequential);
        },
        || {
            store.run_row(ExecutionEngine::Sequential);
        },
    );

    let serving = ServingWorkload::new(4096);
    let serving_ratio = paired_floor_ratio(
        || {
            serving.serve_with_publishes(64);
        },
        || {
            serving.serve_quiet();
        },
    );

    // Telemetry must cost the disabled hot path nothing: with telemetry off
    // the chunk loop pays a single `Option` branch, so the enabled/disabled
    // deployment ratio is the full cost of per-chunk sampling + monitors —
    // and a regression in the *disabled* path shows up in every other
    // deployment-based ratio's denominator.
    let (tel_stream, tel_spec) = cdp_core::presets::url_spec(cdp_core::presets::SpecScale::Tiny);
    let tel_disabled = cdp_core::deployment::DeploymentConfig::continuous(
        2,
        3,
        cdp_sampling::SamplingStrategy::Uniform,
    );
    let mut tel_enabled = tel_disabled.clone();
    tel_enabled.collect_metrics = true;
    tel_enabled.telemetry = Some(cdp_core::deployment::TelemetryConfig::new());
    let telemetry_ratio = paired_floor_ratio(
        || {
            cdp_core::deployment::run_deployment(&tel_stream, &tel_spec, &tel_enabled);
        },
        || {
            cdp_core::deployment::run_deployment(&tel_stream, &tel_spec, &tel_disabled);
        },
    );

    // Group commit must keep paying for itself: the batched WAL (64
    // records/fsync) against the unbatched WAL (fsync per append) on the
    // same deployment. Each run gets a fresh directory — WAL appends are
    // idempotent by sequence number, so re-running over an existing log
    // would skip every write and time nothing.
    let wal_root = std::env::temp_dir().join(format!("cdp-bench-gate-wal-{}", std::process::id()));
    let wal_run = |batch: usize| {
        let dir = wal_root.join(format!("batch-{batch}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = tel_disabled.clone();
        cfg.wal = Some(
            cdp_core::deployment::WalConfig::new(&dir)
                .fsync_every(batch)
                .group_window(0.0),
        );
        cdp_core::deployment::run_deployment(&tel_stream, &tel_spec, &cfg);
    };
    let wal_ratio = paired_floor_ratio(|| wal_run(64), || wal_run(1));
    let _ = std::fs::remove_dir_all(&wal_root);

    vec![
        ("fused_over_unfused", fused_ratio),
        ("steal_over_fixed", steal_ratio),
        ("pool_map_over_sequential", map_ratio),
        ("store_columnar_over_row", store_ratio),
        ("serving_storm_over_quiet", serving_ratio),
        ("telemetry_enabled_over_disabled", telemetry_ratio),
        ("wal_batched_over_unbatched", wal_ratio),
    ]
}

/// Minimal flat `{"name": ratio, ...}` JSON — no serde dependency.
fn render(ratios: &[(&str, f64)]) -> String {
    let body: Vec<String> = ratios
        .iter()
        .map(|(name, r)| format!("  \"{name}\": {r:.4}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

fn parse(json: &str) -> Vec<(String, f64)> {
    json.split(',')
        .filter_map(|entry| {
            let (key, value) = entry.split_once(':')?;
            let name = key.trim().trim_matches(|c| "{}\"\n ".contains(c));
            let ratio = value
                .trim()
                .trim_matches(|c| "{}\n ".contains(c))
                .parse()
                .ok()?;
            Some((name.to_owned(), ratio))
        })
        .collect()
}

fn main() {
    let update = std::env::args().any(|a| a == "--update");
    let path = baseline_path();
    let ratios = measure();

    if update {
        std::fs::write(&path, render(&ratios)).expect("write baseline");
        println!("baseline updated: {}", path.display());
        for (name, r) in &ratios {
            println!("  {name} = {r:.4}");
        }
        return;
    }

    let stored = parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing baseline {} ({e}); run with --update to create it",
            path.display()
        )
    }));

    let mut failed = false;
    println!(
        "{:<28} {:>9} {:>9} {:>8}  gate",
        "ratio", "baseline", "current", "delta"
    );
    for (name, current) in &ratios {
        let Some((_, base)) = stored.iter().find(|(n, _)| n == name) else {
            println!(
                "{name:<28} {:>9} {current:>9.4} {:>8}  MISSING (run --update)",
                "-", "-"
            );
            failed = true;
            continue;
        };
        let delta = current / base - 1.0;
        let over = delta > THRESHOLD;
        failed |= over;
        println!(
            "{name:<28} {base:>9.4} {current:>9.4} {:>7.1}%  {}",
            delta * 100.0,
            if over { "FAIL" } else { "ok" }
        );
    }

    if failed {
        eprintln!(
            "bench gate failed: a hot-path ratio regressed more than {:.0}%",
            THRESHOLD * 100.0
        );
        std::process::exit(1);
    }
    println!("bench gate passed");
}
