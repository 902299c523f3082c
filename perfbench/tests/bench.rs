//! The benchmark's own tests, on tiny inputs.

use std::path::PathBuf;

use cdp_perfbench::bench::{execute, Options};
use cdp_perfbench::check::Expected;
use cdp_perfbench::inputs::{Inputs, Scale, Workload};
use cdp_perfbench::run::{self, Serve};

fn out_dir(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{label}"))
}

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `"name": ..., "unit": ...` entries of one list in `BENCHMARK.json`.
fn listed(json: &str, list: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("{list} missing"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("{\"name\": ")
        .skip(1)
        .map(|entry| {
            let entry = &entry[..entry.find(", \"better\"").expect("better follows unit")];
            format!("{{\"name\": {entry}")
        })
        .collect()
}

#[test]
fn every_workload_runs_end_to_end_and_prints_the_listed_metrics() {
    let json = benchmark_json();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 3,
                seconds: 0.0,
                trace,
                scale: Scale::Tiny,
                out: out_dir(&format!("{}-{trace}", workload.name())),
            };
            let outcome = execute(&opts).expect("benchmark runs");
            assert!(outcome.correct, "{}", outcome.report);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 1);
            let printed: Vec<String> = outcome
                .metrics
                .iter()
                .map(|m| format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit))
                .collect();
            let list = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(printed, listed(&json, list), "{} {list}", workload.name());
            let line = outcome.json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            let _ = std::fs::remove_dir_all(&opts.out);
        }
    }
}

#[test]
fn output_check_catches_a_corrupted_fingerprint() {
    let inputs = Inputs::generate(Workload::UrlContinuous, Scale::Tiny, 4);
    let (reference, _) = run::reference(&inputs).expect("reference runs");
    let expected = Expected::of(&reference);
    assert_eq!(expected.check(&reference), Ok(()));
    let mut corrupted = reference.clone();
    corrupted.final_weights[0] = f64::from_bits(corrupted.final_weights[0].to_bits() ^ 1);
    let err = expected
        .check(&corrupted)
        .expect_err("a flipped weight bit is caught");
    assert!(err.contains("fingerprint"), "{err}");
}

#[test]
fn serving_check_catches_broken_accounting_and_unanswered_queries() {
    let ok = Serve {
        calls: 10,
        answered: 10,
        attempts: 10,
        served: 10,
        ..Serve::default()
    };
    assert_eq!(ok.check(), Ok(()));
    let lost = Serve {
        served: 9,
        ..ok.clone()
    };
    assert!(lost.check().is_err());
    let unanswered = Serve {
        answered: 9,
        served: 9,
        rejected: 1,
        ..ok
    };
    assert!(unanswered.check().is_err());
}

#[test]
fn same_seed_gives_identical_inputs_and_another_seed_different_ones() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, Scale::Tiny, 5);
        let b = Inputs::generate(workload, Scale::Tiny, 5);
        let c = Inputs::generate(workload, Scale::Tiny, 6);
        assert_eq!(a.stream.chunks(), b.stream.chunks(), "{}", workload.name());
        assert_ne!(a.stream.chunks(), c.stream.chunks(), "{}", workload.name());
    }
}

#[test]
fn the_crash_lands_a_few_chunks_after_the_last_periodic_checkpoint() {
    // Checkpoints follow deployment chunks 7, 15, 23, ...
    assert_eq!(run::crash_at(390), 386);
    assert_eq!(run::crash_at(15), 10);
}
