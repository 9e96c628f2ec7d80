//! CI perf-regression gate.
//!
//! Compares freshly generated `BENCH_*.json` files against the
//! checked-in baselines and fails (exit 1) when a watched metric
//! regresses by more than the tolerance:
//!
//! ```text
//! check_bench [baseline_dir] [fresh_dir]     # defaults: repro_out repro_fresh
//! ```
//!
//! The tolerance is relative (default 0.25, i.e. 25 %) and can be set
//! via `CHECK_BENCH_TOL`; a value that is not a finite, non-negative
//! decimal exits 2 with one stderr line naming it. It is deliberately
//! loose: CI runners are noisy shared machines, and the gate is meant
//! to catch structural regressions (a lost optimization, an accidental
//! O(n²)), not 5 % jitter.
//!
//! Baselines are recorded in `paper` mode while CI smoke runs use
//! `REPRO_QUICK=1`, so the two sides may disagree on workload size.
//! When modes differ, only mode-independent *ratio* metrics (e.g.
//! `speedup_vs_reference`) are compared; absolute wall times and event
//! counts are checked only between runs of the same mode.

use std::collections::HashMap;
use std::io::{self, Write};
use std::process::ExitCode;

use sp_bench::Console;

/// One parsed flat-JSON benchmark report.
#[derive(Debug, Default)]
struct Report {
    strings: HashMap<String, String>,
    numbers: HashMap<String, f64>,
}

/// Parses the flat one-level JSON objects `repro_bench` emits.
///
/// Only the subset used by the reports is supported: one `"key":
/// value` pair per line, values either quoted strings or numbers.
fn parse_flat_json(text: &str) -> Report {
    let mut report = Report::default();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, value)) = rest.split_once("\":") else {
            continue;
        };
        let value = value.trim();
        if let Some(s) = value.strip_prefix('"') {
            report
                .strings
                .insert(key.to_string(), s.trim_end_matches('"').to_string());
        } else if let Ok(n) = value.parse::<f64>() {
            report.numbers.insert(key.to_string(), n);
        }
    }
    report
}

/// Direction of a watched metric.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Direction {
    /// Larger is better (throughput, speedup).
    HigherBetter,
    /// Smaller is better (wall time, allocations).
    LowerBetter,
}

/// A watched metric in one benchmark report.
struct Rule {
    field: &'static str,
    direction: Direction,
    /// Comparable across workload sizes (ratios, per-source counts).
    /// Mode-dependent metrics are skipped when baseline and fresh runs
    /// used different modes.
    mode_independent: bool,
    /// Absolute floor the fresh value must clear regardless of the
    /// baseline (correctness bars like "≥ 95 % reachable", not perf).
    floor: Option<f64>,
}

const SIM_RULES: &[Rule] = &[
    Rule {
        field: "speedup_vs_reference",
        direction: Direction::HigherBetter,
        mode_independent: true,
        floor: None,
    },
    Rule {
        field: "events_per_sec_fast",
        direction: Direction::HigherBetter,
        mode_independent: false,
        floor: None,
    },
    Rule {
        field: "fast_wall_s",
        direction: Direction::LowerBetter,
        mode_independent: false,
        floor: None,
    },
];

const ANALYZE_RULES: &[Rule] = &[
    Rule {
        field: "speedup_vs_reference_1_thread",
        direction: Direction::HigherBetter,
        mode_independent: true,
        floor: None,
    },
    Rule {
        field: "thread_speedup_best",
        direction: Direction::HigherBetter,
        mode_independent: true,
        floor: None,
    },
    Rule {
        field: "flood_allocs_per_source",
        direction: Direction::LowerBetter,
        mode_independent: true,
        floor: None,
    },
    Rule {
        field: "fast_wall_s",
        direction: Direction::LowerBetter,
        mode_independent: false,
        floor: None,
    },
];

/// The self-healing report (`BENCH_repair.json`): behavioral bars, not
/// perf. `min_reachable_promote_partner_k1` carries the headline
/// acceptance floor (the repaired overlay keeps ≥ 95 % of peers
/// reachable through the storm); `reachability_gain_k1` guards the
/// separation from the no-repair baseline, so the gate also fails if
/// the degraded run quietly stops degrading (i.e. the storm no longer
/// stresses the overlay).
const REPAIR_RULES: &[Rule] = &[
    Rule {
        field: "min_reachable_promote_partner_k1",
        direction: Direction::HigherBetter,
        mode_independent: true,
        floor: Some(0.95),
    },
    Rule {
        field: "min_reachable_promote_k1",
        direction: Direction::HigherBetter,
        mode_independent: true,
        floor: None,
    },
    Rule {
        field: "reachability_gain_k1",
        direction: Direction::HigherBetter,
        mode_independent: true,
        floor: Some(0.1),
    },
];

/// The sharded scale engine (`BENCH_scale.json`): throughput curve and
/// shard sweep. `speedup_8shard` additionally carries a machine-aware
/// absolute floor applied in [`check_report`], because the right bound
/// depends on how many cores the *fresh* run had.
const SCALE_RULES: &[Rule] = &[
    Rule {
        field: "speedup_8shard",
        direction: Direction::HigherBetter,
        mode_independent: true,
        floor: None,
    },
    Rule {
        field: "events_per_sec_40k",
        direction: Direction::HigherBetter,
        mode_independent: false,
        floor: None,
    },
    Rule {
        field: "events_per_sec_1m",
        direction: Direction::HigherBetter,
        mode_independent: false,
        floor: None,
    },
];

/// The overload-control report (`BENCH_overload.json`): behavioral
/// bars like the repair rules. `accounted_fraction` carries the
/// headline floor (≥ 90 % of issued queries end as delivered or
/// explicitly shed/rejected under the 10× flash crowd), and
/// `p99_divergence_ratio` guards the separation from the uncontrolled
/// baseline — the gate also fails if the unbounded queue quietly stops
/// diverging (i.e. the crowd no longer saturates the super-peers).
/// The absolute p99 bound is a within-report invariant in
/// [`check_invariants`], because the right bound comes from the fresh
/// run's own policy (`controlled_p99_bound_s`).
const OVERLOAD_RULES: &[Rule] = &[
    Rule {
        field: "accounted_fraction",
        direction: Direction::HigherBetter,
        mode_independent: true,
        floor: Some(0.9),
    },
    Rule {
        field: "p99_divergence_ratio",
        direction: Direction::HigherBetter,
        mode_independent: true,
        floor: Some(2.0),
    },
    Rule {
        field: "controlled_p99_s",
        direction: Direction::LowerBetter,
        mode_independent: false,
        floor: None,
    },
];

/// Slack for the within-report multi-vs-single-thread analyze check.
/// Deliberately tighter than the cross-run tolerance: both walls come
/// from the same process on the same machine, so the only noise is
/// run-to-run jitter — and the regression this guards (ROADMAP item 2:
/// the parallel path landing ~14 % slower than single-thread) sits
/// inside the default 25 % cross-run tolerance.
const THREAD_SLACK: f64 = 0.10;

/// Checks one metric; returns an error line on regression.
fn check_rule(rule: &Rule, baseline: f64, fresh: f64, tol: f64) -> Result<String, String> {
    // For LowerBetter metrics near zero (e.g. zero allocations) a
    // purely relative bound would forbid any increase at all; allow an
    // absolute slack of 1 unit alongside the relative one.
    let mut ok = match rule.direction {
        Direction::HigherBetter => fresh >= baseline * (1.0 - tol),
        Direction::LowerBetter => fresh <= (baseline * (1.0 + tol)).max(baseline + 1.0),
    };
    let mut line = format!(
        "{}: baseline {baseline} -> fresh {fresh} (tol {tol})",
        rule.field
    );
    if let Some(floor) = rule.floor {
        ok &= fresh >= floor;
        line.push_str(&format!(" [floor {floor}]"));
    }
    if ok {
        Ok(line)
    } else {
        Err(line)
    }
}

/// Compares one report pair; returns the number of failures.
fn check_report(
    out: &mut dyn Write,
    name: &str,
    baseline: &Report,
    fresh: &Report,
    tol: f64,
) -> io::Result<u32> {
    let b_mode = baseline.strings.get("mode");
    let f_mode = fresh.strings.get("mode");
    let same_mode = b_mode == f_mode;
    if !same_mode {
        writeln!(
            out,
            "{name}: baseline mode {:?} vs fresh mode {:?} — comparing mode-independent metrics only",
            b_mode, f_mode
        )?;
    }
    // `sim_*` covers both the plain churn workload and the fault-path
    // crash-storm workload (`sim_crash_storm_faults`): both report the
    // same engine speedup/throughput fields.
    let bench_id = baseline.strings.get("bench").cloned().unwrap_or_default();
    let rules = match bench_id.as_str() {
        b if b.starts_with("sim_") => SIM_RULES,
        b if b.starts_with("analyze_") => ANALYZE_RULES,
        b if b.starts_with("repair_") => REPAIR_RULES,
        b if b.starts_with("scale_") => SCALE_RULES,
        b if b.starts_with("overload_") => OVERLOAD_RULES,
        other => {
            writeln!(out, "{name}: FAIL unknown bench id {other:?}")?;
            return Ok(1);
        }
    };
    let mut failures = 0;
    for rule in rules {
        if !same_mode && !rule.mode_independent {
            continue;
        }
        let (Some(&b), Some(&f)) = (
            baseline.numbers.get(rule.field),
            fresh.numbers.get(rule.field),
        ) else {
            // A baseline generated before a metric existed should not
            // fail the gate; the field starts being enforced when the
            // baseline is regenerated.
            writeln!(out, "{name}: SKIP {} (missing on one side)", rule.field)?;
            continue;
        };
        match check_rule(rule, b, f, tol) {
            Ok(line) => writeln!(out, "{name}: OK   {line}")?,
            Err(line) => {
                writeln!(out, "{name}: FAIL {line}")?;
                failures += 1;
            }
        }
    }
    failures += check_invariants(out, name, &bench_id, fresh)?;
    Ok(failures)
}

/// Within-report invariants on the *fresh* run — absolute bars that
/// hold regardless of the baseline, dispatched on the fresh machine's
/// own `cores` field where the right bound is machine-dependent.
fn check_invariants(
    out: &mut dyn Write,
    name: &str,
    bench_id: &str,
    fresh: &Report,
) -> io::Result<u32> {
    let mut failures = 0;
    if bench_id.starts_with("scale_") {
        // The tentpole scaling bar: on a ≥ 8-core machine 8 shards must
        // deliver ≥ 3× the 1-shard throughput; with fewer cores extra
        // shards cannot beat the core count, so the bound degrades to a
        // coordination-overhead floor (8 shards keep ≥ 0.6× of 1-shard
        // throughput — barriers and cross-shard batches stay cheap
        // even when all eight reactors time-slice one core and the
        // quick workload is barrier-dominated).
        if let Some(&speedup) = fresh.numbers.get("speedup_8shard") {
            let cores = fresh.numbers.get("cores").copied().unwrap_or(1.0);
            let floor = if cores >= 8.0 { 3.0 } else { 0.6 };
            if speedup >= floor {
                writeln!(
                    out,
                    "{name}: OK   speedup_8shard {speedup} clears the {cores}-core floor {floor}"
                )?;
            } else {
                writeln!(
                    out,
                    "{name}: FAIL speedup_8shard {speedup} below the {cores}-core floor {floor}"
                )?;
                failures += 1;
            }
        }
    }
    if bench_id.starts_with("overload_") {
        // The bounded-latency bar: the controlled run's p99 must sit
        // under the drain bound implied by its *own* policy (the bound
        // ships inside the report, so a policy change moves the bar
        // with it).
        if let (Some(&p99), Some(&bound)) = (
            fresh.numbers.get("controlled_p99_s"),
            fresh.numbers.get("controlled_p99_bound_s"),
        ) {
            if p99 <= bound {
                writeln!(
                    out,
                    "{name}: OK   controlled_p99_s {p99} within the drain bound {bound}"
                )?;
            } else {
                writeln!(
                    out,
                    "{name}: FAIL controlled_p99_s {p99} exceeds the drain bound {bound}"
                )?;
                failures += 1;
            }
        }
    }
    if bench_id.starts_with("analyze_") {
        // ROADMAP item 2: the default multi-thread budget must never be
        // slower than the single-thread path (it once landed at ~1.14×
        // single-thread wall). Same-process walls, so a tight slack.
        if let (Some(&one), Some(&multi)) = (
            fresh.numbers.get("fast_1_thread_wall_s"),
            fresh.numbers.get("fast_wall_s"),
        ) {
            if multi <= one * (1.0 + THREAD_SLACK) {
                writeln!(out, "{name}: OK   fast_wall_s {multi} vs single-thread {one} (slack {THREAD_SLACK})")?;
            } else {
                writeln!(out, "{name}: FAIL multi-thread wall {multi} slower than single-thread {one} (slack {THREAD_SLACK})")?;
                failures += 1;
            }
        }
    }
    Ok(failures)
}

fn main() -> ExitCode {
    let tol = sp_bench::setting("CHECK_BENCH_TOL", "a finite, non-negative decimal", |v| {
        v.parse().ok().filter(|&t: &f64| t.is_finite() && t >= 0.0)
    })
    .unwrap_or(0.25);
    let mut args = std::env::args().skip(1);
    let baseline_dir = args.next().unwrap_or_else(|| "repro_out".to_string());
    let fresh_dir = args.next().unwrap_or_else(|| "repro_fresh".to_string());
    // A reader that goes away drops the remaining lines, never the
    // verdict: the exit code comes from the comparison alone.
    let mut out = Console::stdout();
    let verdict = gate(&mut out, &baseline_dir, &fresh_dir, tol);
    match verdict.and_then(|pass| out.flush().map(|()| pass)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("check_bench: cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Compares every report pair, one line per check; returns whether
/// the gate passes.
fn gate(out: &mut dyn Write, baseline_dir: &str, fresh_dir: &str, tol: f64) -> io::Result<bool> {
    let mut failures = 0;
    let mut compared = 0;
    for name in [
        "BENCH_sim.json",
        "BENCH_faults.json",
        "BENCH_repair.json",
        "BENCH_analyze.json",
        "BENCH_scale.json",
        "BENCH_overload.json",
    ] {
        let b_path = format!("{baseline_dir}/{name}");
        let f_path = format!("{fresh_dir}/{name}");
        let Ok(b_text) = std::fs::read_to_string(&b_path) else {
            writeln!(out, "{name}: SKIP (no baseline at {b_path})")?;
            continue;
        };
        let Ok(f_text) = std::fs::read_to_string(&f_path) else {
            writeln!(
                out,
                "{name}: FAIL (baseline exists but no fresh report at {f_path})"
            )?;
            failures += 1;
            continue;
        };
        compared += 1;
        failures += check_report(
            out,
            name,
            &parse_flat_json(&b_text),
            &parse_flat_json(&f_text),
            tol,
        )?;
    }
    if compared == 0 {
        writeln!(out, "check_bench: FAIL — no benchmark reports compared")?;
        return Ok(false);
    }
    if failures > 0 {
        writeln!(out, "check_bench: FAIL ({failures} regressed metrics)")?;
        Ok(false)
    } else {
        writeln!(
            out,
            "check_bench: PASS ({compared} reports within tolerance {tol})"
        )?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The failures [`check_report`] counts at the default tolerance,
    /// its lines discarded.
    fn failures(name: &str, baseline: &Report, fresh: &Report) -> u32 {
        check_report(&mut io::sink(), name, baseline, fresh, 0.25).unwrap()
    }

    const SIM_PAPER: &str = r#"{
  "bench": "sim_standard_churn_flood",
  "mode": "paper",
  "events_delivered": 100445,
  "fast_wall_s": 1.9,
  "events_per_sec_fast": 52866.0,
  "speedup_vs_reference": 2.15
}"#;

    fn sim_quick(speedup: f64) -> String {
        format!(
            r#"{{
  "bench": "sim_standard_churn_flood",
  "mode": "quick",
  "events_delivered": 8121,
  "fast_wall_s": 0.04,
  "events_per_sec_fast": 203025.0,
  "speedup_vs_reference": {speedup}
}}"#
        )
    }

    #[test]
    fn parses_flat_json() {
        let r = parse_flat_json(SIM_PAPER);
        assert_eq!(
            r.strings.get("bench").map(String::as_str),
            Some("sim_standard_churn_flood")
        );
        assert_eq!(r.numbers.get("speedup_vs_reference"), Some(&2.15));
        assert_eq!(r.numbers.get("events_delivered"), Some(&100445.0));
    }

    #[test]
    fn same_mode_checks_absolute_metrics() {
        let base = parse_flat_json(SIM_PAPER);
        // 10× slower wall: caught even though the ratio held.
        let fresh =
            parse_flat_json(&SIM_PAPER.replace("\"fast_wall_s\": 1.9", "\"fast_wall_s\": 19.0"));
        assert_eq!(failures("sim", &base, &fresh), 1);
        // Identical run: clean.
        assert_eq!(failures("sim", &base, &base), 0);
    }

    #[test]
    fn mode_mismatch_compares_only_ratios() {
        let base = parse_flat_json(SIM_PAPER);
        // Quick-mode wall times and event counts differ wildly from
        // the paper baseline; only the speedup ratio is compared.
        let ok = parse_flat_json(&sim_quick(1.9));
        assert_eq!(failures("sim", &base, &ok), 0);
        let regressed = parse_flat_json(&sim_quick(1.2));
        assert_eq!(failures("sim", &base, &regressed), 1);
    }

    #[test]
    fn fault_reports_use_sim_rules() {
        let storm = SIM_PAPER.replace("sim_standard_churn_flood", "sim_crash_storm_faults");
        let base = parse_flat_json(&storm);
        assert_eq!(failures("faults", &base, &base), 0);
        let regressed = parse_flat_json(&storm.replace(
            "\"speedup_vs_reference\": 2.15",
            "\"speedup_vs_reference\": 1.0",
        ));
        assert_eq!(failures("faults", &base, &regressed), 1);
    }

    #[test]
    fn tolerance_is_relative_and_directional() {
        let rule = &SIM_RULES[0]; // speedup, higher better
        assert!(check_rule(rule, 2.0, 1.6, 0.25).is_ok());
        assert!(check_rule(rule, 2.0, 1.4, 0.25).is_err());
        // Improvements never fail.
        assert!(check_rule(rule, 2.0, 4.0, 0.25).is_ok());
        let rule = &SIM_RULES[2]; // wall, lower better
        assert!(check_rule(rule, 2.0, 2.4, 0.25).is_ok());
        assert!(check_rule(rule, 2.0, 3.5, 0.25).is_err());
    }

    #[test]
    fn zero_baselines_get_absolute_slack() {
        let rule = &ANALYZE_RULES[2]; // allocs per source, lower better
        assert!(check_rule(rule, 0.0, 0.0, 0.25).is_ok());
        assert!(check_rule(rule, 0.0, 1.0, 0.25).is_ok());
        assert!(check_rule(rule, 0.0, 2.0, 0.25).is_err());
    }

    fn scale_report(cores: u32, speedup: f64) -> Report {
        parse_flat_json(&format!(
            r#"{{
  "bench": "scale_sharded_engine_throughput",
  "mode": "paper",
  "cores": {cores},
  "events_per_sec_40k": 2000000.0,
  "events_per_sec_1m": 1500000.0,
  "speedup_8shard": {speedup}
}}"#
        ))
    }

    #[test]
    fn scale_floor_is_machine_aware() {
        // Self-comparisons make every relative rule pass, isolating
        // the machine-aware absolute floor on the fresh report.
        // Single-core machine: only the coordination-overhead bound
        // (≥ 0.6×) applies — 8 shards cannot beat 1 core.
        let ok1 = scale_report(1, 0.92);
        assert_eq!(failures("scale", &ok1, &ok1), 0);
        let bad1 = scale_report(1, 0.5);
        assert_eq!(failures("scale", &bad1, &bad1), 1);
        // ≥ 8 cores: the tentpole ≥ 3× bar is enforced.
        let ok8 = scale_report(8, 4.1);
        assert_eq!(failures("scale", &ok8, &ok8), 0);
        let bad8 = scale_report(8, 2.0);
        assert_eq!(failures("scale", &bad8, &bad8), 1);
        // And the relative comparison still applies on top: a large
        // drop that clears the floor fails against the baseline.
        assert_eq!(failures("scale", &ok8, &scale_report(8, 3.0)), 1);
    }

    const ANALYZE_SWEEP: &str = r#"{
  "bench": "analyze_power_law_ttl7_full_sources",
  "mode": "paper",
  "cores": 4,
  "fast_1_thread_wall_s": 4.18,
  "fast_wall_s": 2.3,
  "thread_speedup_best": 1.8,
  "speedup_vs_reference_1_thread": 3.0
}"#;

    #[test]
    fn analyze_multi_thread_must_not_be_slower_than_single() {
        let base = parse_flat_json(ANALYZE_SWEEP);
        assert_eq!(failures("analyze", &base, &base), 0);
        // The ROADMAP item 2 regression: 4.77 s multi vs 4.18 s single
        // sits inside the 25 % cross-run tolerance, so a self-compare
        // (all relative rules pass) proves the within-report invariant
        // alone catches it.
        let regressed = parse_flat_json(
            &ANALYZE_SWEEP.replace("\"fast_wall_s\": 2.3", "\"fast_wall_s\": 4.77"),
        );
        assert_eq!(failures("analyze", &regressed, &regressed), 1);
        // Equal walls (a 1-core machine resolves both budgets to one
        // worker) are fine.
        let one_core = parse_flat_json(
            &ANALYZE_SWEEP.replace("\"fast_wall_s\": 2.3", "\"fast_wall_s\": 4.18"),
        );
        assert_eq!(failures("analyze", &one_core, &one_core), 0);
    }

    const OVERLOAD_PAPER: &str = r#"{
  "bench": "overload_flash_crowd_control",
  "mode": "paper",
  "accounted_fraction": 0.991,
  "p99_divergence_ratio": 16.0,
  "controlled_p99_s": 32.0,
  "controlled_p99_bound_s": 40.5
}"#;

    #[test]
    fn overload_reports_use_overload_rules() {
        let base = parse_flat_json(OVERLOAD_PAPER);
        assert_eq!(failures("overload", &base, &base), 0);
        // 0.85 accounting is within 25 % of the baseline, but below the
        // ≥ 0.9 acceptance floor: the relative tolerance must not
        // rescue it.
        let leaky = parse_flat_json(&OVERLOAD_PAPER.replace(
            "\"accounted_fraction\": 0.991",
            "\"accounted_fraction\": 0.85",
        ));
        assert_eq!(failures("overload", &base, &leaky), 1);
        // A vanished separation from the uncontrolled baseline fails
        // the divergence floor.
        let converged = parse_flat_json(&OVERLOAD_PAPER.replace(
            "\"p99_divergence_ratio\": 16.0",
            "\"p99_divergence_ratio\": 1.1",
        ));
        assert_eq!(failures("overload", &base, &converged), 1);
    }

    #[test]
    fn overload_p99_bound_is_a_within_report_invariant() {
        // Self-comparison passes every relative rule, isolating the
        // p99-vs-bound invariant carried by the fresh report itself.
        let over = parse_flat_json(
            &OVERLOAD_PAPER.replace("\"controlled_p99_s\": 32.0", "\"controlled_p99_s\": 64.0"),
        );
        assert_eq!(failures("overload", &over, &over), 1);
    }

    const REPAIR_PAPER: &str = r#"{
  "bench": "repair_crash_storm_reachability",
  "mode": "paper",
  "min_reachable_promote_partner_k1": 0.978,
  "min_reachable_promote_k1": 0.978,
  "reachability_gain_k1": 0.32
}"#;

    #[test]
    fn repair_reports_use_repair_rules() {
        let base = parse_flat_json(REPAIR_PAPER);
        assert_eq!(failures("repair", &base, &base), 0);
    }

    #[test]
    fn repair_floor_is_absolute_not_relative() {
        let base = parse_flat_json(REPAIR_PAPER);
        // 0.94 is within 25 % of the 0.978 baseline, but below the
        // ≥ 0.95 acceptance floor: the relative tolerance must not
        // rescue it.
        let below_bar = parse_flat_json(&REPAIR_PAPER.replace(
            "\"min_reachable_promote_partner_k1\": 0.978",
            "\"min_reachable_promote_partner_k1\": 0.94",
        ));
        assert_eq!(failures("repair", &base, &below_bar), 1);
        // A vanished separation (the baseline no longer degrades)
        // fails the gain floor even though higher-better relative
        // checks alone would also catch this large a drop.
        let no_gain = parse_flat_json(&REPAIR_PAPER.replace(
            "\"reachability_gain_k1\": 0.32",
            "\"reachability_gain_k1\": 0.02",
        ));
        assert_eq!(failures("repair", &base, &no_gain), 1);
    }
}
