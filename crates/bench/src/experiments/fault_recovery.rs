//! Fault recovery: Continuous deployment under deterministic fault
//! injection, sweeping fault intensity from none to full chaos (disk
//! errors + corruption + worker panics + latency over a real spill tier).
//!
//! Records the injected/recovered accounting from
//! [`cdp_faults::FaultStats`] per run and verifies the harness's headline
//! properties: the same fault seed reproduces the run bit for bit, and a
//! worker-fault-only plan converges to the exact fault-free model.

use std::path::Path;

use cdp_core::deployment::{try_run_deployment, DeploymentConfig, DeploymentResult};
use cdp_core::presets::{taxi_spec, url_spec, DeploymentSpec, SpecScale};
use cdp_core::report::{fmt_f, Table};
use cdp_datagen::ChunkStream;
use cdp_faults::FaultPlan;
use cdp_sampling::SamplingStrategy;
use cdp_storage::StorageBudget;

/// The fault seed every sweep runs under (overridable via `CDP_FAULT_SEED`
/// like the CI fault matrix).
pub const DEFAULT_FAULT_SEED: u64 = 7;

/// One measured faulted run.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Dataset name (`URL` / `Taxi`).
    pub dataset: String,
    /// Fault-plan label (`none` / `worker-only` / `chaos`).
    pub plan: String,
    /// Whether the run completed within every recovery budget.
    pub completed: bool,
    /// Total injected faults.
    pub injected: u64,
    /// Injected disk faults (read + write + corruption).
    pub injected_disk: u64,
    /// Injected worker panics.
    pub injected_worker_panics: u64,
    /// Disk retry attempts.
    pub retries: u64,
    /// Faults recovered by retry or restart.
    pub recovered: u64,
    /// Lookups that fell back to re-materialization.
    pub fallbacks: u64,
    /// Spill writes absorbed as lost.
    pub lost_spills: u64,
    /// Final prequential error.
    pub final_error: f64,
    /// A rerun under the same seed matched bit for bit.
    pub rerun_identical: bool,
    /// Final weights matched the fault-free run exactly (only meaningful
    /// for replay-safe plans: no fallback re-materializations).
    pub matches_fault_free: bool,
}

fn workload(spec: &DeploymentSpec) -> DeploymentConfig {
    let mut config = DeploymentConfig::continuous(
        spec.proactive_every,
        spec.sample_chunks,
        SamplingStrategy::Uniform,
    );
    config.optimization.budget = StorageBudget::MaxChunks(8);
    config
}

fn seed() -> u64 {
    FaultPlan::from_env()
        .map(|p| p.seed)
        .unwrap_or(DEFAULT_FAULT_SEED)
}

fn plans() -> Vec<(&'static str, FaultPlan, bool)> {
    let worker_only = FaultPlan {
        seed: seed(),
        worker_panic: 0.25,
        ..FaultPlan::none()
    };
    vec![
        ("none", FaultPlan::none(), false),
        ("worker-only", worker_only, false),
        ("chaos", FaultPlan::chaos(seed()), true),
    ]
}

fn identical(a: &DeploymentResult, b: &DeploymentResult) -> bool {
    a.final_error.to_bits() == b.final_error.to_bits()
        && a.final_weights == b.final_weights
        && a.error_curve == b.error_curve
        && a.fault_stats == b.fault_stats
}

fn sweep_dataset(
    dataset: &str,
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
) -> Vec<FaultPoint> {
    let base = workload(spec);
    let clean = match try_run_deployment(stream, spec, &base) {
        Ok(r) => r,
        Err(e) => panic!("fault-free run cannot fail: {e}"),
    };
    let mut points = Vec::new();
    for (label, plan, spill) in plans() {
        let mut config = base.clone();
        config.faults = plan;
        config.spill_to_disk = spill;
        let first = try_run_deployment(stream, spec, &config);
        let second = try_run_deployment(stream, spec, &config);
        let point = match (&first, &second) {
            (Ok(a), Ok(b)) => {
                let stats = a.fault_stats;
                FaultPoint {
                    dataset: dataset.to_owned(),
                    plan: label.to_owned(),
                    completed: true,
                    injected: stats.injected_total(),
                    injected_disk: stats.injected_disk_read
                        + stats.injected_disk_write
                        + stats.injected_corruption,
                    injected_worker_panics: stats.injected_worker_panics,
                    retries: stats.retries,
                    recovered: stats.recovered,
                    fallbacks: stats.fallback_rematerializations,
                    lost_spills: stats.lost_spills,
                    final_error: a.final_error,
                    rerun_identical: identical(a, b),
                    matches_fault_free: stats.fallback_rematerializations == 0
                        && a.final_weights == clean.final_weights,
                }
            }
            // A fatal plan is still deterministic: both attempts must agree.
            _ => FaultPoint {
                dataset: dataset.to_owned(),
                plan: label.to_owned(),
                completed: false,
                injected: 0,
                injected_disk: 0,
                injected_worker_panics: 0,
                retries: 0,
                recovered: 0,
                fallbacks: 0,
                lost_spills: 0,
                final_error: f64::NAN,
                rerun_identical: first.is_err() == second.is_err(),
                matches_fault_free: false,
            },
        };
        points.push(point);
    }
    points
}

/// Runs the sweep on both pipelines, writing `fault_recovery.csv` into
/// `out_dir`.
pub fn run(scale: SpecScale, out_dir: &Path) -> String {
    let mut points = Vec::new();
    let (url_stream, url) = url_spec(scale);
    points.extend(sweep_dataset("URL", &url_stream, &url));
    let (taxi_stream, taxi) = taxi_spec(scale);
    points.extend(sweep_dataset("Taxi", &taxi_stream, &taxi));

    let mut table = Table::new([
        "dataset",
        "plan",
        "completed",
        "injected",
        "disk faults",
        "worker panics",
        "retries",
        "recovered",
        "fallbacks",
        "lost spills",
        "final error",
        "rerun identical",
        "matches fault-free",
    ]);
    for p in &points {
        table.row([
            p.dataset.clone(),
            p.plan.clone(),
            p.completed.to_string(),
            p.injected.to_string(),
            p.injected_disk.to_string(),
            p.injected_worker_panics.to_string(),
            p.retries.to_string(),
            p.recovered.to_string(),
            p.fallbacks.to_string(),
            p.lost_spills.to_string(),
            fmt_f(p.final_error, 4),
            p.rerun_identical.to_string(),
            p.matches_fault_free.to_string(),
        ]);
    }
    crate::write_csv(&table, out_dir.join("fault_recovery.csv"));

    let all_deterministic = points.iter().all(|p| p.rerun_identical);
    format!(
        "Fault recovery: Continuous deployment under seeded fault injection \
         (seed {})\n\n{}\nall runs deterministic under their seed: {}\n",
        seed(),
        table.render(),
        all_deterministic
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_recovers_and_is_deterministic() {
        let dir = std::env::temp_dir().join(format!("cdp-fault-{}", std::process::id()));
        let report = run(SpecScale::Tiny, &dir);
        assert!(report.contains("all runs deterministic under their seed: true"));
        assert!(dir.join("fault_recovery.csv").exists());
        let csv = match std::fs::read_to_string(dir.join("fault_recovery.csv")) {
            Ok(s) => s,
            Err(e) => panic!("csv must exist: {e}"),
        };
        assert!(csv.contains("recovered"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
