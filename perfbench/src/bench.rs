//! One benchmark invocation: generate a workload's inputs, run the reference,
//! measure (untraced) or break down (traced), check every output, and
//! assemble the metrics and the human-readable report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cdp_obs::MetricsSnapshot;

use crate::check::Expected;
use crate::inputs::{Inputs, Scale, Workload};
use crate::layers::{self, Replay, SpanStat};
use crate::measure::{self, median, tail};
use crate::run::{self, Run, Scratch};

/// Extra set-up-only deployments per untraced invocation; `setup_s` is the
/// median over these and the full runs' set-ups.
pub const SETUP_REPS: usize = 9;

/// Nominal wall seconds of one full-scale timed deployment per workload on
/// the 2-vCPU host the bounds were set on. An untraced invocation makes
/// `seconds / nominal` timed deployments (at least one), so the sample
/// count, and with it the tail percentile, is the same in every run.
fn nominal_run_s(workload: Workload) -> f64 {
    match workload {
        Workload::UrlContinuous => 9.0,
        Workload::UrlDurable => 10.0,
    }
}

/// Timed deployments one untraced invocation makes.
fn timed_reps(opts: &Options) -> usize {
    match opts.scale {
        Scale::Full => (opts.seconds / nominal_run_s(opts.workload))
            .floor()
            .max(1.0) as usize,
        Scale::Tiny => 1,
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds; sets how many timed deployments an
    /// untraced invocation makes (see [`timed_reps`]).
    pub seconds: f64,
    /// The traced per-layer run instead of the end-to-end measurement.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory for chrome traces, result records and scratch files.
    pub out: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one invocation produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every checked output matched.
    pub correct: bool,
    /// Operations attempted: checked deployment runs plus serving queries.
    pub attempted: u64,
    /// Operations that failed their check or got no answer.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// The human-readable report printed before the result line.
    pub report: String,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Attempted and failed operations, with a line per failure.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Checks one run against the reference, and its serving client.
    fn run(&mut self, expected: &Expected, run: &Run) {
        self.attempted += 1;
        if let Err(e) = expected.check(&run.result) {
            self.failed += 1;
            self.problems.push(e);
        }
        if let Some(serve) = &run.serve {
            let unanswered = serve.calls.saturating_sub(serve.answered);
            self.attempted += serve.calls;
            self.failed += unanswered;
            if let Err(e) = serve.check() {
                // A broken accounting with every query answered still fails.
                self.failed += u64::from(unanswered == 0);
                self.problems.push(e);
            }
        }
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs one invocation.
///
/// # Errors
/// When a deployment fails outright (as opposed to producing a wrong
/// output, which is counted in the outcome).
pub fn execute(opts: &Options) -> Result<Outcome, String> {
    let inputs = Inputs::generate(opts.workload, opts.scale, opts.seed);
    let scratch = Scratch::new(opts.out.join("scratch"));
    let (reference, reference_wall_s) = run::reference(&inputs)?;
    let expected = Expected::of(&reference);
    let mut report = provenance(&inputs);
    let mut tally = Tally::default();
    let metrics = if opts.trace {
        traced(
            opts,
            &inputs,
            &scratch,
            &expected,
            reference_wall_s,
            &mut tally,
            &mut report,
        )?
    } else {
        untraced(
            opts,
            &inputs,
            &scratch,
            &expected,
            reference_wall_s,
            &mut tally,
            &mut report,
        )?
    };
    for problem in &tally.problems {
        let _ = writeln!(report, "OUTPUT CHECK FAILED: {problem}");
    }
    let outcome = Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
    };
    record(opts, &outcome);
    Ok(outcome)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Host facts and input sizes recorded with every result.
fn provenance(inputs: &Inputs) -> String {
    let stream = &inputs.stream;
    format!(
        "workload {} | seed {} | scale {:?}\n\
         host: nproc {} | engine {} | git {} | {}\n\
         inputs: {} chunks ({} initial, {} deployment) | {} rows | {} dims\n",
        inputs.workload.name(),
        inputs.seed,
        inputs.scale,
        run::nproc(),
        run::workload_engine(inputs.workload).name(),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["--version"]),
        stream.chunks().len(),
        stream.chunks().len() - stream.deployment_chunks().len(),
        stream.deployment_chunks().len(),
        stream.rows(),
        inputs.dims,
    )
}

/// Makes the timed runs of an untraced invocation and reports the
/// end-to-end metrics.
fn untraced(
    opts: &Options,
    inputs: &Inputs,
    scratch: &Scratch,
    expected: &Expected,
    reference_wall_s: f64,
    tally: &mut Tally,
    report: &mut String,
) -> Result<Vec<Metric>, String> {
    let engine = run::workload_engine(inputs.workload);
    let reps = timed_reps(opts);
    let started = Instant::now();
    let mut runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let r = run::measure(inputs, engine, false, scratch)?;
        tally.run(expected, &r);
        runs.push(r);
    }
    let prefix = inputs.stream.setup_prefix();
    let mut setups: Vec<f64> = runs.iter().map(|r| r.marks.setup_s()).collect();
    for _ in 0..SETUP_REPS {
        setups.push(run::setup_only(inputs, &prefix, scratch)?);
    }
    let chunk_ms: Vec<f64> = runs.iter().flat_map(|r| r.marks.chunk_ms()).collect();
    let (tail_pct, tail_ms) = tail(&chunk_ms);
    let rate: Vec<f64> = runs
        .iter()
        .map(|r| r.marks.chunk_ms().len() as f64 / r.marks.deploy_wall_s().max(1e-9))
        .collect();
    let walls: Vec<f64> = runs.iter().map(Run::wall_s).collect();
    let result = &runs[0].result;
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "chunks_per_s",
            value: median(&rate),
            unit: "chunks/s",
        },
        Metric {
            name: "chunk_p50_ms",
            value: median(&chunk_ms),
            unit: "ms",
        },
        Metric {
            name: "chunk_tail_ms",
            value: tail_ms,
            unit: "ms",
        },
        Metric {
            name: "accounted_s",
            value: result.total_secs,
            unit: "s",
        },
        Metric {
            name: "final_error",
            value: result.final_error,
            unit: ERROR_UNIT,
        },
        Metric {
            name: "peak_rss_mb",
            value: measure::peak_rss_mb(),
            unit: "MB",
        },
    ];
    let _ = writeln!(
        report,
        "untraced: {} timed run(s) in {:.1} s, {} chunk latencies, {} set-ups \
         ({} full + {SETUP_REPS} set-up-only)",
        runs.len(),
        started.elapsed().as_secs_f64(),
        chunk_ms.len(),
        setups.len(),
        runs.len(),
    );
    for (i, r) in runs.iter().enumerate() {
        let ms = r.marks.chunk_ms();
        let _ = writeln!(
            report,
            "  run {i}: wall {:.3} s | set-up {:.3} s | {:.2} chunks/s | chunk p50 {:.3} ms",
            r.wall_s(),
            r.marks.setup_s(),
            rate[i],
            median(&ms)
        );
    }
    let _ = writeln!(
        report,
        "chunk_tail_ms is p{tail_pct} ({} chunks beyond it)",
        beyond(chunk_ms.len(), tail_pct)
    );
    let _ = writeln!(report, "\nend-to-end metrics (tracing off):");
    for m in &metrics {
        let _ = writeln!(report, "  {:<16} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let mut extra = vec![
        (
            "write_mb",
            median(
                &runs
                    .iter()
                    .map(|r| r.write_bytes as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
            "MB",
        ),
        ("wall_s", median(&walls), "s"),
        ("failed_frac", tally.failed_frac(), "ratio"),
    ];
    if inputs.workload != Workload::UrlDurable {
        extra.push((
            "seq_over_threaded",
            reference_wall_s / median(&walls).max(1e-9),
            "ratio",
        ));
    }
    extra.extend(durable_metrics(&runs));
    for (name, value, unit) in extra {
        let _ = writeln!(report, "  {name:<16} {value:>14.6} {unit}");
    }
    Ok(metrics)
}

/// `final_error` is the URL pipeline's misclassification rate.
const ERROR_UNIT: &str = "rate";

fn beyond(n: usize, pct: f64) -> usize {
    (n as f64 * (1.0 - pct / 100.0)).round() as usize
}

/// `url-durable`'s recovery and serving figures, medians over `runs`.
fn durable_metrics(runs: &[Run]) -> Vec<(&'static str, f64, &'static str)> {
    let recovery: Vec<f64> = runs.iter().filter_map(|r| r.recovery_s).collect();
    let serves: Vec<_> = runs.iter().filter_map(|r| r.serve.as_ref()).collect();
    if recovery.is_empty() || serves.is_empty() {
        return Vec::new();
    }
    let per =
        |f: &dyn Fn(&run::Serve) -> f64| median(&serves.iter().map(|s| f(s)).collect::<Vec<_>>());
    vec![
        ("recovery_s", median(&recovery), "s"),
        ("serve_qps", per(&run::Serve::qps), "1/s"),
        ("serve_p50_us", per(&|s| s.latency_us(0.5)), "us"),
        ("serve_p99_us", per(&|s| s.latency_us(0.99)), "us"),
    ]
}

/// The traced per-layer run: one untraced run for the tracing overhead and
/// the process figures, one traced run, the layer replay timers, the layer
/// report and the chrome trace.
fn traced(
    opts: &Options,
    inputs: &Inputs,
    scratch: &Scratch,
    expected: &Expected,
    reference_wall_s: f64,
    tally: &mut Tally,
    report: &mut String,
) -> Result<Vec<Metric>, String> {
    let engine = run::workload_engine(inputs.workload);
    let before = measure::usage();
    let plain = run::measure(inputs, engine, false, scratch)?;
    let usage = measure::usage() - before;
    tally.run(expected, &plain);
    let traced = run::measure(inputs, engine, true, scratch)?;
    tally.run(expected, &traced);
    let replay_dir = opts
        .out
        .join("scratch")
        .join(format!("replay-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&replay_dir);
    let replay = layers::replay(inputs, engine, &replay_dir);
    let _ = std::fs::remove_dir_all(&replay_dir);
    let replay = replay?;
    let spans = layers::span_stats(&traced.traces);
    let wall = spans.get("deployment.run").map_or(0.0, |s| s.total_s);

    let layer = LayerInputs {
        inputs,
        plain: &plain,
        traced: &traced,
        spans: &spans,
        replay: &replay,
        wall,
        reference_wall_s,
        usage,
    };
    let metrics = layer.metrics();
    layer.report(report, &metrics);
    for (i, trace) in traced.traces.iter().enumerate() {
        let suffix = if i == 0 { "" } else { "-resume" };
        let path = opts.out.join(format!(
            "{}-seed{}{suffix}.trace.json",
            inputs.workload.name(),
            inputs.seed
        ));
        match trace.write_chrome_trace(&path) {
            Ok(()) => {
                let _ = writeln!(report, "chrome trace: {}", path.display());
            }
            Err(e) => {
                let _ = writeln!(report, "chrome trace not written ({}): {e}", path.display());
            }
        }
    }
    Ok(metrics)
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    inputs: &'a Inputs,
    plain: &'a Run,
    traced: &'a Run,
    spans: &'a BTreeMap<String, SpanStat>,
    replay: &'a Replay,
    /// Deployment wall time of the traced run (`deployment.run` spans).
    wall: f64,
    reference_wall_s: f64,
    usage: measure::Usage,
}

/// Per-layer metrics that have no meaning on a workload, with the reason.
fn absent(workload: Workload, name: &str) -> Option<&'static str> {
    let durable = workload == Workload::UrlDurable;
    match name {
        "core.replay_s" | "recovery_s" if !durable => Some("no crash and resume on this workload"),
        "wal.append_us" if !durable => Some("no WAL on this workload"),
        "serving.publish_us"
        | "serving.staleness_secs"
        | "serve_qps"
        | "serve_p50_us"
        | "serve_p99_us"
            if !durable =>
        {
            Some("no server attached on this workload")
        }
        "engine.seq_over_threaded" if durable => {
            Some("the workload runs on the sequential engine; its reference has no durability")
        }
        _ => None,
    }
}

impl LayerInputs<'_> {
    fn span(&self, name: &str) -> SpanStat {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    fn counters(&self) -> &MetricsSnapshot {
        &self.traced.result.metrics
    }

    fn hist_sum_ms(&self, name: &str) -> f64 {
        self.counters().histogram(name).map_or(0.0, |h| h.sum * 1e3)
    }

    fn metrics(&self) -> Vec<Metric> {
        let chunk = self.span("deployment.chunk");
        let fire = self.span("proactive.fire");
        let map = self.span("engine.map");
        let m = self.counters();
        let result = &self.plain.result;
        let serve = self.plain.serve.clone().unwrap_or_default();
        let c = |name: &str| m.counter(name) as f64;
        let ckpt = self.traced.result.checkpoint_stats;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let raw: Vec<(&'static str, f64, &'static str)> = vec![
            ("core.chunk_self_ms", median(&chunk.self_ms), "ms"),
            (
                "core.unexplained_frac",
                chunk.self_s / self.wall.max(1e-9),
                "ratio",
            ),
            (
                "core.initial_fit_s",
                self.span("deployment.initial_fit").total_s,
                "s",
            ),
            ("core.replay_s", self.span("deployment.replay").total_s, "s"),
            (
                "pm.online_chunk_ms",
                median(&self.replay.online_chunk_ms),
                "ms",
            ),
            ("proactive.fire_ms", median(&fire.durations_ms), "ms"),
            ("proactive.fire_tail_ms", tail(&fire.durations_ms).1, "ms"),
            ("proactive.fires", fire.count as f64, "count"),
            ("proactive.points", c("proactive.points"), "count"),
            (
                "dm.sample_ms",
                median(&self.span("dm.sample").durations_ms),
                "ms",
            ),
            ("pm.mu_observed", m.gauge("pm.mu_observed"), "ratio"),
            (
                "ml.step_ms",
                median(&self.span("trainer.step").durations_ms),
                "ms",
            ),
            ("ml.fit_s", self.span("trainer.fit").total_s, "s"),
            ("engine.map_ms", map.total_s * 1e3, "ms"),
            (
                "engine.task_self_ms",
                self.span("engine.task").self_s * 1e3,
                "ms",
            ),
            ("engine.wait_ms", map.self_s * 1e3, "ms"),
            ("engine.tasks", c("engine.tasks"), "count"),
            (
                "engine.steals",
                m.histogram("engine.steal").map_or(0.0, |h| h.sum),
                "count",
            ),
            (
                "engine.seq_over_threaded",
                self.reference_wall_s / self.plain.wall_s().max(1e-9),
                "ratio",
            ),
            (
                "pipeline.transform_us_per_row",
                self.replay.transform_us_per_row,
                "us",
            ),
            ("store.memory_hits", c("store.memory_hits"), "count"),
            ("store.disk_hits", c("store.disk_hits"), "count"),
            ("store.spills", c("store.spills"), "count"),
            ("store.recomputes", c("store.recomputes"), "count"),
            ("store.gc_runs", c("store.gc_runs"), "count"),
            (
                "store.gc_evicted_bytes",
                c("store.gc_evicted_bytes"),
                "bytes",
            ),
            (
                "store.disk_read_ms",
                self.hist_sum_ms("store.disk_read_secs"),
                "ms",
            ),
            (
                "store.disk_write_ms",
                self.hist_sum_ms("store.disk_write_secs"),
                "ms",
            ),
            ("wal.appends", c("wal.appends"), "count"),
            ("wal.commits", c("wal.commits"), "count"),
            ("wal.bytes_committed", c("wal.bytes_committed"), "bytes"),
            ("wal.segments_gced", c("wal.segments_gced"), "count"),
            ("wal.replayed", c("wal.replayed"), "count"),
            ("wal.append_us", mean(&self.replay.wal_append_us), "us"),
            ("ckpt.writes", ckpt.writes as f64, "count"),
            ("ckpt.bytes", ckpt.bytes_written as f64, "bytes"),
            (
                "ckpt.write_ms",
                m.histogram("checkpoint.write_secs")
                    .map_or(0.0, |h| h.mean() * 1e3),
                "ms",
            ),
            (
                "serving.publishes",
                self.traced
                    .serve
                    .as_ref()
                    .map_or(0.0, |s| s.metrics.counter("serving.publishes") as f64),
                "count",
            ),
            ("serving.publish_us", median(&self.replay.publish_us), "us"),
            ("serving.staleness_secs", serve.staleness_s, "s"),
            ("eval.accounted_prep_s", result.preprocessing_secs, "s"),
            ("eval.accounted_train_s", result.training_secs, "s"),
            ("eval.accounted_predict_s", result.prediction_secs, "s"),
            ("eval.accounted_io_s", result.io_secs, "s"),
            (
                "eval.wall_over_accounted",
                self.plain.deploy_wall_s() / result.total_secs.max(1e-12),
                "ratio",
            ),
            (
                "obs.trace_overhead",
                self.traced.wall_s() / self.plain.wall_s().max(1e-9),
                "ratio",
            ),
            ("proc.cpu_s", self.usage.cpu_s, "s"),
            (
                "proc.invol_ctx_switches",
                self.usage.invol_ctx_switches as f64,
                "count",
            ),
            ("write_mb", self.plain.write_bytes as f64 / 1e6, "MB"),
            ("recovery_s", self.plain.recovery_s.unwrap_or(0.0), "s"),
            ("serve_qps", serve.qps(), "1/s"),
            ("serve_p50_us", serve.latency_us(0.5), "us"),
            ("serve_p99_us", serve.latency_us(0.99), "us"),
        ];
        raw.into_iter()
            .map(|(name, value, unit)| Metric {
                name,
                value: if absent(self.inputs.workload, name).is_some() {
                    0.0
                } else {
                    value
                },
                unit,
            })
            .collect()
    }

    fn report(&self, out: &mut String, metrics: &[Metric]) {
        let wall = self.wall.max(1e-9);
        let _ = writeln!(
            out,
            "\ntraced run: deployment wall {:.3} s (deployment.run spans); untraced wall {:.3} s; \
             tracing overhead {:.3}x",
            self.wall,
            self.plain.wall_s(),
            self.traced.wall_s() / self.plain.wall_s().max(1e-9)
        );
        let _ = writeln!(out, "\nself time per span (share of deployment wall time):");
        let _ = writeln!(
            out,
            "  {:<24} {:<36} {:>7} {:>11} {:>11} {:>7}",
            "span", "layer", "count", "total ms", "self ms", "share"
        );
        let mut rows: Vec<_> = self.spans.iter().collect();
        rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        let mut share_sum = 0.0;
        for (name, s) in rows {
            share_sum += s.self_s / wall;
            let _ = writeln!(
                out,
                "  {:<24} {:<36} {:>7} {:>11.2} {:>11.2} {:>6.1}%",
                name,
                layer_of(name),
                s.count,
                s.total_s * 1e3,
                s.self_s * 1e3,
                100.0 * s.self_s / wall
            );
        }
        let _ = writeln!(
            out,
            "  sum of self shares {:.1}% (engine.task runs on pool threads; above 100% means \
             tasks overlapped)",
            100.0 * share_sum
        );
        let chunk = self.span("deployment.chunk");
        let chunks = chunk.count.max(1) as f64;
        let online = median(&self.replay.online_chunk_ms) * chunks;
        let publish = median(&self.replay.publish_us) * chunks * 1e-3;
        let wal = median(&self.replay.wal_append_us) * chunks * 1e-3;
        let _ = writeln!(
            out,
            "\nUNEXPLAINED: deployment.chunk self time {:.2} ms = {:.1}% of deployment wall \
             (no program span covers it)",
            chunk.self_s * 1e3,
            100.0 * chunk.self_s / wall
        );
        let _ = writeln!(
            out,
            "  replay timers estimate inside it: online chunk (transform + predict + online SGD) \
             {:.1}% | publish {:.1}% | WAL append {:.1}% | left unexplained {:.1}%",
            100.0 * online * 1e-3 / wall,
            100.0 * publish * 1e-3 / wall,
            100.0 * wal * 1e-3 / wall,
            100.0 * (chunk.self_s * 1e3 - online - publish - wal).max(0.0) * 1e-3 / wall
        );
        let _ = writeln!(
            out,
            "engine rows are traced-run numbers: with tracing on, run_stealing moves every unit \
             off the calling thread, so engine.wait_ms includes the hand-off"
        );
        let _ = writeln!(out, "\nper-layer metrics:");
        for m in metrics {
            match absent(self.inputs.workload, m.name) {
                Some(why) => {
                    let _ = writeln!(
                        out,
                        "  {:<30} {:>16} {:<6} absent: {why}",
                        m.name, "-", m.unit
                    );
                }
                None => {
                    let _ = writeln!(out, "  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
                }
            }
        }
    }
}

/// The crate and module a span name belongs to.
fn layer_of(span: &str) -> &'static str {
    match span {
        "proactive.fire" => "cdp-core proactive + scheduler",
        "dm.sample" => "cdp-core data_manager + cdp-sampling",
        s if s.starts_with("deployment.") => "cdp-core deployment loop",
        s if s.starts_with("trainer.") => "cdp-ml + cdp-linalg",
        s if s.starts_with("engine.") => "cdp-engine (traced-run numbers)",
        _ => "other",
    }
}

/// Writes the invocation's report and result line under the output
/// directory, so a series of runs leaves its record behind.
fn record(opts: &Options, outcome: &Outcome) {
    let dir = opts.out.join("results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let mode = if opts.trace { "trace" } else { "e2e" };
    let path: PathBuf = dir.join(format!(
        "{}-{mode}-seed{}.txt",
        opts.workload.name(),
        opts.seed
    ));
    let _ = std::fs::write(path, format!("{}{}\n", outcome.report, outcome.json()));
}
