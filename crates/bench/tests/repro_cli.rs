//! The `repro` and `repro_bench` command lines: usage errors and
//! malformed run-mode variables exit 2 with nothing on stdout. Every
//! child starts with the run-mode variables removed, so the caller's
//! environment cannot change what it sees.

use std::path::Path;
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const REPRO_BENCH: &str = env!("CARGO_BIN_EXE_repro_bench");

/// Runs `bin` with `args` and `vars`, every run-mode variable unset
/// unless `vars` sets it.
fn run(bin: &str, args: &[&str], vars: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for var in ["REPRO_QUICK", "REPRO_SEED", "SP_THREADS"] {
        cmd.env_remove(var);
    }
    cmd.envs(vars.iter().copied());
    cmd.output().unwrap()
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
        // With no section selected, a repro_bench that accepted the
        // value would print its banner and exit 0 without benchmarking.
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
