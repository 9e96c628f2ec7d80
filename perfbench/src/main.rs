//! perfbench: end-to-end and per-layer benchmark of the analysis,
//! churn and sharded engines. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --report <runs> [--seconds <s>] [--workload <name>]...
//! ```
//!
//! A run prints progress on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod measure;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::{Workload, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: measure::CountingAlloc = measure::CountingAlloc;

/// Seconds measured per run when `--seconds` is not given; the same as
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage: perfbench --workload <analyze|flash-crowd|churn-storm|scale> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     perfbench --report RUNS [--seconds S] [--workload NAME]...";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    report_runs: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        report_runs: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args
                .workloads
                .push(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--report" => {
                args.report_runs = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| bad("expected a positive run count"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.report_runs.is_none() && args.workloads.len() != 1 {
        return Err("give exactly one --workload".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.report_runs {
        let workloads = if args.workloads.is_empty() {
            Workload::ALL.to_vec()
        } else {
            args.workloads
        };
        return report::run(&workloads, runs, args.seconds);
    }

    let w = args.workloads[0];
    let outcome = if args.trace {
        let (outcome, trace) = workloads::traced(w, args.seed);
        report::print_layers(w, &outcome, &trace);
        let path = report::trace_path(w, args.seed);
        match trace.write(&path) {
            Ok(()) => eprintln!("{}: trace written to {}", w.name(), path.display()),
            Err(e) => eprintln!("{}: cannot write trace {}: {e}", w.name(), path.display()),
        }
        outcome
    } else {
        workloads::measure(w, args.seed, args.seconds)
    };
    for e in &outcome.errors {
        eprintln!("{}: check failed: {e}", w.name());
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
