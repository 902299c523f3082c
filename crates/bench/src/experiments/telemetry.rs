//! Telemetry overhead and crash-survivable observability: the Continuous
//! URL workload with the live telemetry layer enabled (per-chunk sampling,
//! SLO burn-rate monitors, flight-recorder segments) against the
//! metrics-only baseline.
//!
//! Records: wall-clock overhead of telemetry over the baseline, samples and
//! series recorded, alerts fired by the stateful monitors, segments
//! recovered from the flight-recorder directory, and whether the
//! telemetry-enabled run stayed bit-identical to the baseline on the
//! deterministic surface (weights, error curve, accounted cost) — the §16
//! contract that telemetry observes the loop without steering it.

use std::path::Path;

use cdp_core::deployment::{
    run_deployment, DeploymentConfig, DeploymentResult, RecorderConfig, TelemetryConfig,
};
use cdp_core::presets::{url_spec, DeploymentSpec, SpecScale};
use cdp_core::report::{fmt_f, Table};
use cdp_sampling::SamplingStrategy;
use cdp_storage::{load_segments, StorageBudget};

fn workload(spec: &DeploymentSpec) -> DeploymentConfig {
    let mut config = DeploymentConfig::continuous(
        spec.proactive_every,
        spec.sample_chunks,
        SamplingStrategy::Uniform,
    );
    config.optimization.budget = StorageBudget::MaxChunks(8);
    config.collect_metrics = true;
    config.engine = crate::engine();
    config
}

fn identical(a: &DeploymentResult, b: &DeploymentResult) -> bool {
    a.final_error.to_bits() == b.final_error.to_bits()
        && a.final_weights == b.final_weights
        && a.error_curve == b.error_curve
        && a.cost_curve == b.cost_curve
        && a.total_secs.to_bits() == b.total_secs.to_bits()
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    scale: SpecScale,
    baseline_wall: f64,
    telemetry_wall: f64,
    run: &DeploymentResult,
    segments: usize,
    skipped: usize,
    bit_identical: bool,
    path: &Path,
) {
    let json = format!(
        "{{\n  \"experiment\": \"telemetry\",\n  \"scale\": \"{:?}\",\n  \
         \"baseline_wall_secs\": {:.6},\n  \"telemetry_wall_secs\": {:.6},\n  \
         \"overhead\": {:.3},\n  \"samples\": {},\n  \"series\": {},\n  \
         \"alerts\": {},\n  \"segments\": {},\n  \"skipped_segments\": {},\n  \
         \"bit_identical\": {}\n}}\n",
        scale,
        baseline_wall,
        telemetry_wall,
        telemetry_wall / baseline_wall.max(1e-9),
        run.telemetry.samples(),
        run.telemetry.series_count(),
        run.alerts.len(),
        segments,
        skipped,
        bit_identical
    );
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(path, json);
}

/// Runs the baseline vs telemetry-enabled comparison on the URL pipeline,
/// writing `telemetry.csv`, `telemetry.prom`, `telemetry_series.csv`, and
/// `BENCH_telemetry.json` into `out_dir` (flight-recorder segments land
/// under `telemetry-segments/`).
pub fn run(scale: SpecScale, out_dir: &Path) -> String {
    let (stream, spec) = url_spec(scale);
    let base = workload(&spec);
    let baseline = run_deployment(&stream, &spec, &base);

    let seg_dir = out_dir.join("telemetry-segments");
    let _ = std::fs::remove_dir_all(&seg_dir);
    let mut config = base.clone();
    config.telemetry =
        Some(TelemetryConfig::new().recorder(RecorderConfig::new(&seg_dir).flush_every(4)));
    let run = run_deployment(&stream, &spec, &config);

    let bit_identical = identical(&baseline, &run);
    let overhead = run.wall_secs / baseline.wall_secs.max(1e-9);
    let scan = load_segments(&seg_dir, 16).unwrap_or_default();

    let _ = std::fs::create_dir_all(out_dir);
    let _ = std::fs::write(
        out_dir.join("telemetry.prom"),
        run.telemetry.to_prometheus(),
    );
    let _ = std::fs::write(out_dir.join("telemetry_series.csv"), run.telemetry.to_csv());

    let mut table = Table::new([
        "run",
        "wall s",
        "samples",
        "series",
        "alerts",
        "segments",
        "bit-identical",
    ]);
    table.row([
        "baseline".into(),
        fmt_f(baseline.wall_secs, 4),
        "0".into(),
        "0".into(),
        baseline.alerts.len().to_string(),
        "0".into(),
        "-".into(),
    ]);
    table.row([
        "telemetry".into(),
        fmt_f(run.wall_secs, 4),
        run.telemetry.samples().to_string(),
        run.telemetry.series_count().to_string(),
        run.alerts.len().to_string(),
        scan.segments.len().to_string(),
        bit_identical.to_string(),
    ]);
    crate::write_csv(&table, out_dir.join("telemetry.csv"));
    write_json(
        scale,
        baseline.wall_secs,
        run.wall_secs,
        &run,
        scan.segments.len(),
        scan.skipped,
        bit_identical,
        &out_dir.join("BENCH_telemetry.json"),
    );

    format!(
        "Telemetry: Continuous URL deployment, per-chunk sampling + SLO burn \
         monitors + flight recorder\nbaseline (metrics only): {} s wall\n\n{}\n\
         telemetry overhead: {:.2}x wall over the metrics-only baseline\n\
         telemetry-enabled run bit-identical to the baseline: {}\n",
        fmt_f(baseline.wall_secs, 4),
        table.render(),
        overhead,
        bit_identical
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_run_is_bit_identical_and_writes_artifacts() {
        let dir = std::env::temp_dir().join(format!("cdp-telemetry-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run(SpecScale::Tiny, &dir);
        assert!(report.contains("telemetry-enabled run bit-identical to the baseline: true"));
        assert!(dir.join("telemetry.csv").exists());
        let prom = std::fs::read_to_string(dir.join("telemetry.prom")).unwrap();
        assert!(prom.contains("# TYPE cdp_deployment_chunks counter"));
        let json = std::fs::read_to_string(dir.join("BENCH_telemetry.json")).unwrap();
        assert!(json.contains("\"experiment\": \"telemetry\""));
        assert!(json.contains("\"bit_identical\": true"));
        // The flight recorder left at least one decodable segment.
        let ratio: usize = json
            .split("\"segments\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("segments field");
        assert!(ratio > 0, "no segments recovered");
        assert!(json.contains("\"skipped_segments\": 0"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
