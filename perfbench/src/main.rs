//! `cdp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then the result as one JSON line. Exits
//! with 1 when an output check fails and 2 on a usage or run error. Every
//! file it writes goes under `.bench_out/` in the working directory.

use std::path::PathBuf;
use std::process::ExitCode;

use cdp_perfbench::bench::{self, Options};
use cdp_perfbench::inputs::{Scale, Workload};

const USAGE: &str = "usage: cdp-perfbench --workload <url-continuous|url-durable> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::UrlContinuous,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from(".bench_out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Spill files go to the temporary directory; keep them, like every
    // other file the benchmark writes, under its output directory.
    if let Ok(cwd) = std::env::current_dir() {
        opts.out = cwd.join(&opts.out);
    }
    let tmp = opts.out.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    match bench::execute(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(2)
        }
    }
}
