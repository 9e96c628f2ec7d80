//! Golden end-to-end checks of `spnet simulate`, run against the built
//! binary.
//!
//! `golden/runs.txt` names one small invocation per run mode; each must
//! exit as recorded and print exactly `golden/<name>.stdout`.
//! `golden/rejections.txt` lists the option combinations the command
//! refuses; each must keep its exit code and name the offending option
//! on stderr. The recorded outputs are the command's contract: drift in
//! output or error handling shows up here as a diff, and a `.stdout`
//! file is re-recorded only for an intended change.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A fresh temporary directory for one test's checkpoints and manifests.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spnet_golden_{test}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temporary dir");
    dir
}

/// The data lines of a golden table: comments and blanks dropped, each
/// line split on whitespace.
fn table(name: &str) -> Vec<Vec<String>> {
    let text = std::fs::read_to_string(golden_dir().join(name)).expect("read golden table");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

/// Runs `spnet` with the placeholders in `words` expanded.
fn spnet(words: &[String], tmp: &Path) -> Output {
    let golden = golden_dir();
    let args = words.iter().map(|w| {
        w.replace("{golden}", golden.to_str().expect("utf-8 path"))
            .replace("{tmp}", tmp.to_str().expect("utf-8 path"))
    });
    Command::new(env!("CARGO_BIN_EXE_spnet"))
        .args(args)
        .output()
        .expect("run spnet")
}

#[test]
fn simulate_modes_print_their_golden_stdout() {
    let tmp = temp_dir("runs");
    let mut failures = Vec::new();
    for row in table("runs.txt") {
        let (name, exit, words) = (&row[0], &row[1], &row[2..]);
        let out = spnet(words, &tmp);
        let expected = std::fs::read_to_string(golden_dir().join(format!("{name}.stdout")))
            .expect("read golden stdout");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let code = out.status.code().map(|c| c.to_string());
        if code.as_deref() != Some(exit.as_str()) || stdout != expected {
            failures.push(format!(
                "{name}: exit {code:?} (want {exit})\n--- want\n{expected}--- got\n{stdout}--- stderr\n{}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn rejected_combinations_keep_exit_code_and_name_the_option() {
    let tmp = temp_dir("rejections");
    let mut failures = Vec::new();
    for row in table("rejections.txt") {
        let (exit, needle, words) = (&row[0], &row[1], &row[2..]);
        let out = spnet(words, &tmp);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let code = out.status.code().map(|c| c.to_string());
        let named = needle == "-" || stderr.contains(needle.as_str());
        if code.as_deref() != Some(exit.as_str()) || !named {
            failures.push(format!(
                "spnet {}: exit {code:?} (want {exit}), stderr must name {needle}: {stderr}",
                words.join(" ")
            ));
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
