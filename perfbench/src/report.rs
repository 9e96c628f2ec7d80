//! Human-readable output: the traced run's layer table and the
//! steadiness report that runs every workload repeatedly in child
//! processes (one workload per process, so each peak-memory reading
//! belongs to one workload).

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::measure::quartiles;
use crate::trace::{self_times_ns, Trace};
use crate::workloads::{Outcome, Workload, END_TO_END};

/// Where a traced run writes its spans: next to the benchmark binary,
/// inside the build directory.
pub fn trace_path(w: Workload, seed: u64) -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let dir = exe
        .parent()
        .map(|d| d.join("perfbench-traces"))
        .unwrap_or_default();
    dir.join(format!("{}-seed{seed}.json", w.name()))
}

/// Prints the traced run's spans (with self time) and every non-zero
/// per-layer metric on stderr.
pub fn print_layers(w: Workload, outcome: &Outcome, trace: &Trace) {
    let spans = trace.spans();
    eprintln!("{}: spans (seconds, self seconds):", w.name());
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let depth = std::iter::successors(s.parent, |&p| spans[p].parent).count();
        eprintln!(
            "  {:indent$}{:<40} {:>10.4} {:>10.4}",
            "",
            s.name,
            s.secs(),
            own as f64 * 1e-9,
            indent = 2 * depth
        );
    }
    eprintln!("{}: per-layer metrics (zero rows omitted):", w.name());
    for (name, value, unit) in &outcome.metrics {
        if *value != 0.0 {
            eprintln!("  {name:<28} {value:>16.6} {unit}");
        }
    }
}

/// One child run's parsed result line.
#[derive(Debug, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Parses the result line [`Outcome::to_json`] prints. Only that exact
/// shape is accepted.
pub fn parse_result(line: &str) -> Option<ParsedResult> {
    let rest = line.trim().strip_prefix("{\"correct\": ")?;
    let (correct, rest) = rest.split_once(", \"attempted\": ")?;
    let (attempted, rest) = rest.split_once(", \"failed\": ")?;
    let (failed, rest) = rest.split_once(", \"metrics\": {")?;
    let mut body = rest.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    while !body.is_empty() {
        let entry = body.strip_prefix('"')?;
        let (name, entry) = entry.split_once("\": {\"value\": ")?;
        let (value, entry) = entry.split_once(", \"unit\": \"")?;
        let (_unit, entry) = entry.split_once("\"}")?;
        metrics.push((name.to_string(), value.parse().ok()?));
        body = entry.strip_prefix(", ").unwrap_or(entry);
    }
    Some(ParsedResult {
        correct: correct.parse().ok()?,
        attempted: attempted.parse().ok()?,
        failed: failed.parse().ok()?,
        metrics,
    })
}

fn child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    match parse_result(last) {
        Some(r) if out.status.success() => Ok(r),
        _ => Err(format!(
            "run exited with {} and printed {last:?}",
            out.status
        )),
    }
}

/// Four decimals, or scientific notation for values too small for them.
fn num(x: f64) -> String {
    if x != 0.0 && x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// Runs every workload `runs` times on seeds 1..=runs, then once traced,
/// and prints median, quartiles, min, max, run count and spread
/// (interquartile range over median) per workload and metric.
pub fn run(workloads: &[Workload], runs: usize, seconds: f64) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("steadiness report: {runs} runs per workload, {seconds} s each, nproc {nproc}");
    println!(
        "| workload | metric | runs | median | q1 | q3 | min | max | spread |\n|---|---|---|---|---|---|---|---|---|"
    );
    let mut ok = true;
    for &w in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut failed = 0;
        for seed in 1..=runs as u64 {
            match child(w, seed, seconds, false) {
                Ok(r) if r.correct => {
                    for (slot, (name, _)) in values.iter_mut().zip(END_TO_END) {
                        if let Some((_, v)) = r.metrics.iter().find(|(n, _)| n == name) {
                            slot.push(*v);
                        }
                    }
                }
                Ok(r) => {
                    failed += 1;
                    eprintln!(
                        "{} seed {seed}: {} of {} runs failed",
                        w.name(),
                        r.failed,
                        r.attempted
                    );
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("{} seed {seed}: {e}", w.name());
                }
            }
        }
        for ((name, unit), v) in END_TO_END.iter().zip(&values) {
            if v.is_empty() {
                continue;
            }
            let (q1, q2, q3) = quartiles(v);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = (q3 - q1) / q2;
            let [q2, q1, q3, min, max] = [q2, q1, q3, min, max].map(num);
            println!(
                "| {} | {name} ({unit}) | {} | {q2} | {q1} | {q3} | {min} | {max} | {spread:.3} |",
                w.name(),
                v.len(),
            );
        }
        match child(w, runs as u64 + 1, seconds, true) {
            Ok(r) => {
                let overhead = r.metrics.iter().find(|(n, _)| n == "trace.overhead_s");
                if let Some((_, o)) = overhead {
                    println!(
                        "| {} | trace.overhead_s (s) | 1 | {o:.4} | | | | | |",
                        w.name()
                    );
                }
                failed += r.failed as usize;
            }
            Err(e) => {
                failed += 1;
                eprintln!("{} traced: {e}", w.name());
            }
        }
        if failed > 0 {
            ok = false;
            println!("| {} | failed runs | {failed} | | | | | | |", w.name());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            attempted: 4,
            failed: 0,
            errors: Vec::new(),
            metrics: vec![
                ("setup_s", 0.012_345_678_9, "s"),
                ("peak_rss_mb", 91.25, "MB"),
            ],
        };
        let parsed = parse_result(&outcome.to_json()).expect("parses");
        assert_eq!(
            parsed,
            ParsedResult {
                correct: true,
                attempted: 4,
                failed: 0,
                metrics: vec![
                    ("setup_s".to_string(), 0.012_345_678_9),
                    ("peak_rss_mb".to_string(), 91.25)
                ],
            }
        );
        let empty = Outcome {
            attempted: 2,
            failed: 2,
            errors: Vec::new(),
            metrics: Vec::new(),
        };
        let parsed = parse_result(&empty.to_json()).expect("parses");
        assert!(!parsed.correct && parsed.metrics.is_empty());
        assert_eq!(parse_result("{\"correct\": true}"), None);
    }
}
