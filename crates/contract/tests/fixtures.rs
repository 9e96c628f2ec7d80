//! Rule fixtures for the static determinism contract (DESIGN.md §13).
//! `cargo clippy --all-targets` checks `bad` and `clean`: every
//! `#[expect]` in `bad` must be fulfilled, and `clean` must draw no
//! lint at all. The tests below check what clippy cannot see: that
//! every rule and every clippy.toml entry has its fixtures, and that
//! each fixture is labelled with its rule and the lint that enforces it.

// The lint levels every deterministic crate root sets (S2, P1).
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![allow(dead_code, reason = "fixtures are compiled and linted, never called")]

#[path = "fixtures/bad.rs"]
mod bad;
#[path = "fixtures/clean.rs"]
mod clean;

use sp_contract::lexer::{tokenize, Tok, TokKind};

const BAD: &str = include_str!("fixtures/bad.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");
const RESIDUAL: &str = include_str!("residual.rs");
const ROOT_CONFIG: &str = include_str!("../../../clippy.toml");
const CI: &str = include_str!("../../../.github/workflows/ci.yml");

/// The rules of DESIGN.md §13 and the lints that enforce each in a
/// fixture. L1 (beyond what Cargo rejects) and R1c are residual checks.
const RULES: [(&str, &[&str]); 13] = [
    ("D1", &["disallowed_types"]),
    ("D2", &["disallowed_types", "disallowed_methods"]),
    ("D3", &["disallowed_types", "disallowed_methods"]),
    ("S1", &["undocumented_unsafe_blocks"]),
    ("S2", &["unwrap_used"]),
    ("F1", &["disallowed_methods"]),
    ("F2", &["disallowed_types"]),
    ("F3", &["disallowed_types"]),
    ("L1", &[]),
    (
        "P1",
        &[
            "print_stdout",
            "print_stderr",
            "dbg_macro",
            "disallowed_types",
            "disallowed_methods",
        ],
    ),
    ("R1a", &["disallowed_types"]),
    ("R1b", &["disallowed_methods"]),
    ("R1c", &[]),
];

fn lints_of(rule: &str) -> Option<&'static [&'static str]> {
    RULES
        .iter()
        .find(|(id, _)| *id == rule)
        .map(|(_, lints)| *lints)
}

/// The tokens of `src` that are code, not comments.
fn code(src: &str) -> Vec<Tok> {
    tokenize(src)
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect()
}

/// One `#[expect]` in `bad`: the lints it expects, the rule ids its
/// reason names, and the identifiers of the item under it.
struct Fixture {
    line: u32,
    lints: Vec<String>,
    rules: Vec<String>,
    idents: Vec<String>,
}

fn bad_fixtures() -> Vec<Fixture> {
    let toks = code(BAD);
    let starts: Vec<usize> = toks
        .windows(3)
        .enumerate()
        .filter(|(_, w)| w[0].is_punct('#') && w[1].is_punct('[') && w[2].is_ident("expect"))
        .map(|(i, _)| i)
        .collect();
    let ends = starts.iter().skip(1).copied().chain([toks.len()]);
    starts
        .iter()
        .zip(ends)
        .map(|(&start, end)| {
            let fixture = &toks[start..end];
            let close = fixture.iter().position(|t| t.is_punct(']'));
            let (attribute, item) = fixture.split_at(close.unwrap_or(fixture.len()));
            Fixture {
                line: fixture[0].line,
                lints: attribute
                    .windows(4)
                    .filter(|w| w[0].is_ident("clippy") && w[1].is_punct(':'))
                    .map(|w| w[3].text.clone())
                    .collect(),
                rules: attribute
                    .iter()
                    .filter(|t| t.kind == TokKind::Str)
                    .flat_map(|t| t.text.split(", ").map(str::to_string))
                    .collect(),
                idents: item
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .collect(),
            }
        })
        .collect()
}

/// Each root clippy.toml entry as (lint, path, rule id).
fn config_entries() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut lint = "";
    let mut entries = Vec::new();
    for line in ROOT_CONFIG.lines().map(str::trim) {
        if let Some((key, _)) = line.split_once(" = [") {
            lint = if key == "disallowed-types" {
                "disallowed_types"
            } else {
                "disallowed_methods"
            };
        } else if let Some(rest) = line.strip_prefix("{ path = \"") {
            let path = rest.split('"').next().unwrap_or_default();
            let reason = line.split("reason = \"").nth(1).unwrap_or_default();
            entries.push((lint, path, reason.split(':').next().unwrap_or_default()));
        }
    }
    entries
}

/// The rule ids that a comment heading a `clean` idiom names
/// (`/// D3, R1a, R1b: …`).
fn clean_idiom_rules() -> Vec<String> {
    tokenize(CLEAN)
        .iter()
        .filter(|t| t.is_comment())
        .filter_map(|t| t.text.trim_start_matches('/').split_once(':'))
        .map(|(head, _)| head.trim().split(", ").map(str::to_string).collect())
        .filter(|ids: &Vec<String>| ids.iter().all(|id| lints_of(id).is_some()))
        .flatten()
        .collect()
}

#[test]
fn bad_fixtures_flag_expected_lines() {
    // Each expectation names known rules and only lints that enforce
    // them, so no fixture passes on a lint its rule does not use.
    let fixtures = bad_fixtures();
    assert!(!fixtures.is_empty(), "bad.rs holds no #[expect] fixture");
    for f in &fixtures {
        assert!(!f.lints.is_empty(), "bad.rs:{}: no lint expected", f.line);
        assert!(!f.rules.is_empty(), "bad.rs:{}: no rule id", f.line);
        for rule in &f.rules {
            let lints = lints_of(rule).unwrap_or_else(|| panic!("bad.rs:{}: rule {rule}?", f.line));
            assert!(
                f.lints.iter().any(|l| lints.contains(&l.as_str())),
                "bad.rs:{}: no expected lint enforces {rule}",
                f.line
            );
        }
        for lint in &f.lints {
            let enforces = |r: &String| lints_of(r).is_some_and(|l| l.contains(&lint.as_str()));
            assert!(
                f.rules.iter().any(enforces),
                "bad.rs:{}: {lint} enforces none of {:?}",
                f.line,
                f.rules
            );
        }
    }
    // Every root entry has a fixture of its rule that names the banned
    // item and expects the entry's lint, so an entry that stops firing
    // leaves that expectation unfulfilled.
    for (lint, path, rule) in config_entries() {
        let name = path.rsplit("::").next().unwrap_or(path);
        assert!(
            fixtures.iter().any(|f| f.rules.iter().any(|r| r == rule)
                && f.lints.iter().any(|l| l == lint)
                && f.idents.iter().any(|i| i == name)),
            "clippy.toml entry {path} ({rule}) has no #[expect(clippy::{lint})] fixture"
        );
    }
}

#[test]
fn clean_fixtures_produce_zero_findings() {
    // A clean clippy pass over `clean` means it draws no lint only if
    // no attribute there sets a lint level. (Its root sets the S2 and P1
    // levels of the deterministic roots; residual.rs checks that.)
    let levels = ["allow", "expect", "warn", "deny", "forbid"];
    let toks = code(CLEAN);
    for (i, hash) in toks.iter().enumerate().filter(|(_, t)| t.is_punct('#')) {
        let name = toks[i + 1..].iter().find(|t| t.kind == TokKind::Ident);
        assert!(
            !name.is_some_and(|n| levels.iter().any(|l| n.is_ident(l))),
            "clean.rs:{}: a lint attribute in a clean fixture",
            hash.line
        );
    }
}

#[test]
fn every_rule_is_exercised_in_both_directions() {
    // Guards the corpus itself: a rule that loses its fixture or its
    // clean idiom fails here rather than silently losing coverage.
    let fixtures = bad_fixtures();
    let idioms = clean_idiom_rules();
    for (rule, lints) in RULES {
        if lints.is_empty() {
            let checked = tokenize(RESIDUAL)
                .iter()
                .any(|t| t.is_comment() && t.text.contains(&format!("{rule}:")));
            assert!(checked, "no residual check names {rule}");
            continue;
        }
        assert!(
            fixtures.iter().any(|f| f.rules.iter().any(|r| r == rule)),
            "{rule} has no bad fixture"
        );
        assert!(
            idioms.iter().any(|r| r == rule),
            "{rule} has no clean idiom"
        );
    }
}

#[test]
fn s2_fixture_severities_split_unwrap_deny_expect_warn() {
    // S2 denies `.unwrap()` and only counts `.expect()`: the fixture
    // expects unwrap_used, which every deterministic root denies
    // (residual.rs checks the levels), and CI force-warns expect_used,
    // which `-D warnings` does not promote to an error.
    let unwrap = bad_fixtures()
        .into_iter()
        .find(|f| f.rules == ["S2"])
        .unwrap_or_else(|| panic!("bad.rs has no S2 fixture"));
    assert_eq!(unwrap.lints, ["unwrap_used"]);
    assert!(unwrap.idents.iter().any(|i| i == "unwrap"));
    let step = CI
        .lines()
        .find(|l| l.contains("cargo clippy"))
        .unwrap_or_else(|| panic!("ci.yml has no clippy step"));
    assert!(step.contains("-D warnings"), "{step}");
    assert!(step.contains("--force-warn clippy::expect_used"), "{step}");
    assert_eq!(
        CI.matches("expect_used").count(),
        1,
        "expect_used must stay a warning"
    );
}
