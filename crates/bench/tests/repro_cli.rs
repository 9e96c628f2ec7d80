//! The `repro`, `repro_bench` and `check_bench` command lines: usage
//! errors and malformed variables exit 2 with nothing on stdout,
//! `repro` exits 0 when its reader goes away, a closed stdout changes
//! neither `check_bench`'s verdict nor the reports `repro_bench`
//! writes, and an output directory `repro_bench` cannot create exits 1
//! before any section runs. Every child starts with the variables these
//! binaries read removed, so the caller's environment cannot change
//! what it sees.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Output, Stdio};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const REPRO_BENCH: &str = env!("CARGO_BIN_EXE_repro_bench");
const CHECK_BENCH: &str = env!("CARGO_BIN_EXE_check_bench");

/// `bin` with `args` and `vars`, every variable the binaries read unset
/// unless `vars` sets it. Reports go to a scratch directory, so a
/// regression that runs a benchmark section cannot overwrite the
/// checked-in baselines.
fn command(bin: &str, args: &[&str], vars: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for var in [
        "REPRO_QUICK",
        "REPRO_SEED",
        "SP_THREADS",
        "REPRO_SECTIONS",
        "REPRO_SIM_REPS",
        "CHECK_BENCH_TOL",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("REPRO_OUT", env!("CARGO_TARGET_TMPDIR"));
    cmd.envs(vars.iter().copied());
    cmd
}

/// Runs `bin` to completion; see [`command`].
fn run(bin: &str, args: &[&str], vars: &[(&str, &str)]) -> Output {
    command(bin, args, vars).output().unwrap()
}

/// Runs `bin` with its stdout a pipe whose reader is already gone, so
/// every write to it fails with a broken pipe; see [`command`].
fn run_with_stdout_closed(bin: &str, args: &[&str], vars: &[(&str, &str)]) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    command(bin, args, vars).stdout(writer).output().unwrap()
}

/// Asserts a usage-level failure: exit 2, empty stdout, and every
/// needle on stderr.
fn assert_rejected(out: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "stdout: {:?}", out.stdout);
    for needle in needles {
        assert!(stderr.contains(needle), "{needle:?} missing from {stderr}");
    }
}

/// The figure names, one per paper-scale archive (the binary's own
/// tests check that rows and archives match one to one).
fn figure_names() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../repro_out");
    let names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|entry| {
            let file = entry.unwrap().file_name().into_string().ok()?;
            let name = file.strip_prefix("repro_")?.strip_suffix(".txt")?;
            Some(name.to_string())
        })
        .collect();
    assert!(!names.is_empty());
    names
}

#[test]
fn missing_or_unknown_name_lists_every_figure() {
    let names = figure_names();
    let needles: Vec<&str> = names.iter().map(String::as_str).collect();
    for args in [&[][..], &["fig99"], &["fig04", "fig05"], &["--help"]] {
        assert_rejected(&run(REPRO, args, &[]), &needles);
    }
}

#[test]
fn malformed_run_mode_variables_exit_2() {
    for (var, value) in [
        ("REPRO_SEED", "0x2a"),
        ("REPRO_SEED", "-1"),
        ("SP_THREADS", "two"),
        ("SP_THREADS", ""),
        ("REPRO_QUICK", "false"),
        ("REPRO_QUICK", ""),
    ] {
        // Quick mode keeps a regression that ignores the bad value
        // short; a REPRO_QUICK case overrides it (the later value wins).
        let mut vars = vec![("REPRO_QUICK", "1")];
        vars.push((var, value));
        let needle = format!("{var}=\"{value}\"");
        assert_rejected(&run(REPRO, &["rule2"], &vars), &[&needle]);
        // `none` names no section, so a repro_bench that accepted the
        // value would exit 2 naming REPRO_SECTIONS, not this variable,
        // without benchmarking.
        vars.push(("REPRO_SECTIONS", "none"));
        assert_rejected(&run(REPRO_BENCH, &[], &vars), &[&needle]);
    }
}

#[test]
fn valid_variables_run_the_figure_under_the_given_seed() {
    let quick = |vars: &[(&str, &str)]| {
        let out = run(REPRO, &["rule4"], &[&[("REPRO_QUICK", "1")], vars].concat());
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let default_seed = quick(&[("SP_THREADS", "1")]);
    assert!(
        default_seed.contains("Reproduction of Rule #4 — minimize TTL\nmode: quick"),
        "{default_seed}"
    );
    assert_ne!(
        default_seed,
        quick(&[("REPRO_SEED", "7"), ("SP_THREADS", "0")])
    );
}

#[test]
fn repro_exits_0_when_its_reader_goes_away() {
    // Quick fig04 computes for a few hundred milliseconds between its
    // banner and its body, so the body is written after the reader
    // has gone.
    let mut child = command(REPRO, &["fig04"], &[("REPRO_QUICK", "1")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // The reader is dropped here, after the banner's first line.
    assert!(first.starts_with("====="), "{first:?}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn unknown_or_empty_section_names_exit_2() {
    for value in ["analyse", "", "sim,", "sim,,faults", "none"] {
        let needle = format!("REPRO_SECTIONS=\"{value}\"");
        let vars = [("REPRO_QUICK", "1"), ("REPRO_SECTIONS", value)];
        assert_rejected(&run(REPRO_BENCH, &[], &vars), &[&needle]);
    }
    // CI's selection parses: the run gets as far as the next setting.
    let vars = [("REPRO_SECTIONS", "overload"), ("REPRO_SIM_REPS", "0")];
    assert_rejected(&run(REPRO_BENCH, &[], &vars), &["REPRO_SIM_REPS=\"0\""]);
}

#[test]
fn sim_repetitions_must_be_a_positive_decimal() {
    for value in ["0", "-1", "2.5", "five", ""] {
        let needle = format!("REPRO_SIM_REPS=\"{value}\"");
        // The quick sim section keeps a regression that ignores the
        // bad value short.
        let vars = [
            ("REPRO_QUICK", "1"),
            ("REPRO_SECTIONS", "sim"),
            ("REPRO_SIM_REPS", value),
        ];
        assert_rejected(&run(REPRO_BENCH, &[], &vars), &[&needle]);
    }
}

#[test]
fn check_bench_tolerance_must_be_finite_and_non_negative() {
    let baselines = concat!(env!("CARGO_MANIFEST_DIR"), "/../../repro_out");
    let args = [baselines, baselines];
    for value in ["abc", "", "-0.1", "inf", "NaN"] {
        let needle = format!("CHECK_BENCH_TOL=\"{value}\"");
        let vars = [("CHECK_BENCH_TOL", value)];
        assert_rejected(&run(CHECK_BENCH, &args, &vars), &[&needle]);
    }
    // CI's tolerance is valid: the baselines pass against themselves.
    let out = run(CHECK_BENCH, &args, &[("CHECK_BENCH_TOL", "0.25")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("PASS"), "{stdout}");
}

#[test]
fn check_bench_passes_with_stdout_closed() {
    let baselines = concat!(env!("CARGO_MANIFEST_DIR"), "/../../repro_out");
    let out = run_with_stdout_closed(CHECK_BENCH, &[baselines, baselines], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}

#[test]
fn check_bench_fails_a_regression_with_stdout_closed() {
    // The baselines with the churn engine's speedup collapsed: a closed
    // pipe must not turn the failing gate into a pass.
    let baselines = concat!(env!("CARGO_MANIFEST_DIR"), "/../../repro_out");
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("check_bench_regressed");
    std::fs::create_dir_all(&fresh).unwrap();
    for entry in std::fs::read_dir(baselines).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if name.starts_with("BENCH_") {
            let text = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<String> = text
                .lines()
                .map(|line| match line.split_once("\"speedup_vs_reference\": ") {
                    Some((indent, _)) if name == "BENCH_sim.json" => {
                        format!("{indent}\"speedup_vs_reference\": 0.5,")
                    }
                    _ => line.to_string(),
                })
                .collect();
            std::fs::write(fresh.join(name), lines.join("\n")).unwrap();
        }
    }
    let fresh = fresh.to_str().unwrap();
    let open = run(CHECK_BENCH, &[baselines, fresh], &[]);
    let stdout = String::from_utf8_lossy(&open.stdout);
    assert!(stdout.contains("FAIL speedup_vs_reference"), "{stdout}");
    let regressed = run_with_stdout_closed(CHECK_BENCH, &[baselines, fresh], &[]);
    let stderr = String::from_utf8_lossy(&regressed.stderr);
    assert_eq!(regressed.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn repro_bench_writes_its_report_with_stdout_closed() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_bench_closed_stdout");
    let report = dir.join("BENCH_sim.json");
    std::fs::remove_file(&report).ok();
    let vars = [
        ("REPRO_QUICK", "1"),
        ("REPRO_SECTIONS", "sim"),
        ("REPRO_SIM_REPS", "1"),
        ("REPRO_OUT", dir.to_str().unwrap()),
    ];
    let out = run_with_stdout_closed(REPRO_BENCH, &[], &vars);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"mode\": \"quick\""), "{json}");
}

#[test]
fn repro_bench_rejects_an_unusable_output_directory_before_any_section() {
    // A directory cannot be created under a regular file.
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_bench_out_is_a_file");
    std::fs::write(&file, "not a directory").unwrap();
    let dir = file.join("sub");
    let dir = dir.to_str().unwrap();
    let vars = [
        ("REPRO_QUICK", "1"),
        ("REPRO_SECTIONS", "sim"),
        ("REPRO_SIM_REPS", "1"),
        ("REPRO_OUT", dir),
    ];
    let out = run(REPRO_BENCH, &[], &vars);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains(dir), "stderr: {stderr}");
    // Nothing on stdout: not even the banner, so no section ran.
    assert!(out.stdout.is_empty(), "stdout: {:?}", out.stdout);
}
