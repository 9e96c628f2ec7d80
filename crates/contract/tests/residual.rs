//! The checks of the static determinism contract (DESIGN.md §13) that
//! neither clippy nor Cargo can express. Every source is read with
//! `include_str!`, so the test itself does no I/O, and Rust sources are
//! read as tokens, so no comment or string literal can satisfy or trip
//! a check.

use sp_contract::lexer::{tokenize, Tok, TokKind};

/// Every workspace member's manifest.
const MEMBERS: [(&str, &str); 10] = [
    ("crates/stats", include_str!("../../stats/Cargo.toml")),
    ("crates/graph", include_str!("../../graph/Cargo.toml")),
    ("crates/model", include_str!("../../model/Cargo.toml")),
    ("crates/design", include_str!("../../design/Cargo.toml")),
    ("crates/sim", include_str!("../../sim/Cargo.toml")),
    ("crates/core", include_str!("../../core/Cargo.toml")),
    ("crates/cli", include_str!("../../cli/Cargo.toml")),
    ("crates/bench", include_str!("../../bench/Cargo.toml")),
    ("crates/contract", include_str!("../Cargo.toml")),
    (
        "crates/compat/proptest",
        include_str!("../../compat/proptest/Cargo.toml"),
    ),
];

const WORKSPACE: &str = include_str!("../../../Cargo.toml");

/// The crate roots that set the S2 and P1 lint levels.
const DETERMINISTIC_ROOTS: [(&str, &str); 6] = [
    ("stats", include_str!("../../stats/src/lib.rs")),
    ("graph", include_str!("../../graph/src/lib.rs")),
    ("model", include_str!("../../model/src/lib.rs")),
    ("design", include_str!("../../design/src/lib.rs")),
    ("sim", include_str!("../../sim/src/lib.rs")),
    ("core", include_str!("../../core/src/lib.rs")),
];

const CLI_MAIN: &str = include_str!("../../cli/src/main.rs");

/// The root of the rule fixtures, which must set the S2 and P1 levels
/// the deterministic roots set for its `clean` idioms to mean anything.
const FIXTURES: &str = include_str!("fixtures.rs");

const ROOT_CONFIG: &str = include_str!("../../../clippy.toml");

/// The clippy.toml files that repeat root entries, with the rules
/// whose entries they repeat.
const CRATE_CONFIGS: [(&str, &str, &[&str]); 2] = [
    (
        "crates/cli/clippy.toml",
        include_str!("../../cli/clippy.toml"),
        &["D3", "R1a", "R1b"],
    ),
    (
        "crates/bench/clippy.toml",
        include_str!("../../bench/clippy.toml"),
        &["D2", "D3", "R1a"],
    ),
];

/// The inter-shard boundary: every channel in the deterministic crates
/// lives here (F3 bans them elsewhere).
const SHARD: &str = include_str!("../../sim/src/shard.rs");

/// Type-name fragments of every RNG the workspace could name.
const RNG_NAMES: [&str; 3] = ["Rng", "Pcg", "Xoshiro"];

/// Lines of every `[<table>]` section, target-specific ones included.
fn table_lines<'a>(manifest: &'a str, table: &str) -> Vec<&'a str> {
    let mut lines = Vec::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            inside = header == table || header.ends_with(&format!(".{table}"));
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            lines.push(line);
        }
    }
    lines
}

/// Keys of every `[<table>]` section and every `[<table>.<key>]`
/// header.
fn table_keys<'a>(manifest: &'a str, table: &str) -> Vec<&'a str> {
    let mut keys: Vec<&str> = table_lines(manifest, table)
        .into_iter()
        .map(|line| line.split(['=', '.']).next().unwrap_or(line).trim())
        .collect();
    for line in manifest.lines().map(str::trim) {
        if let Some((_, key)) = line
            .strip_prefix('[')
            .and_then(|h| h.split_once(&format!("{table}.")))
        {
            keys.push(key.trim_end_matches(']'));
        }
    }
    keys.iter().map(|k| k.trim_matches('"')).collect()
}

fn package_name(manifest: &str) -> &str {
    manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("name = "))
        .map(|v| v.trim_matches('"'))
        .unwrap_or_default()
}

/// The names of the layered crates. The vendored proptest stub depends
/// on nothing here, so it sits outside the layering.
fn layered_crates() -> Vec<&'static str> {
    MEMBERS
        .iter()
        .map(|(_, m)| package_name(m))
        .filter(|name| name.starts_with("sp-"))
        .collect()
}

/// The tokens of `src` that are code, not comments.
fn code(src: &str) -> Vec<Tok> {
    tokenize(src)
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect()
}

/// The `#![…]` attributes at the top level of `src`, each with its
/// tokens joined without spaces.
fn crate_attributes(src: &str) -> Vec<String> {
    let toks = code(src);
    let mut depth = 0usize;
    let mut attributes = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => depth = depth.saturating_sub(1),
            TokKind::Punct('#')
                if depth == 0 && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                let len = toks[i..].iter().position(|t| t.is_punct(']'));
                let attribute = &toks[i..=i + len.unwrap_or_default()];
                attributes.push(attribute.iter().map(|t| t.text.as_str()).collect());
            }
            _ => {}
        }
    }
    attributes
}

#[test]
fn every_workspace_library_is_audited() {
    let names: Vec<&str> = MEMBERS.iter().map(|(_, m)| package_name(m)).collect();
    for dep in table_keys(WORKSPACE, "workspace.dependencies") {
        assert!(
            names.contains(&dep),
            "workspace dependency {dep} is missing from MEMBERS"
        );
    }
}

#[test]
fn no_workspace_crate_is_a_dev_dependency() {
    // L1: Cargo rejects a cycle through [dependencies] but accepts one
    // that closes through [dev-dependencies].
    let layered = layered_crates();
    for (path, manifest) in MEMBERS {
        for dep in table_keys(manifest, "dev-dependencies") {
            assert!(
                !layered.contains(&dep),
                "{path}/Cargo.toml: workspace crate {dep} in [dev-dependencies]"
            );
        }
    }
}

#[test]
fn lint_levels_hold_in_every_crate() {
    // An `#[expect]` fixture enables the lint it expects, so the
    // fixtures cannot tell whether a level is set; this test does.
    let levels = table_lines(WORKSPACE, "workspace.lints.clippy");
    for level in [
        "undocumented_unsafe_blocks = \"deny\"",
        "allow_attributes_without_reason = \"deny\"",
    ] {
        assert!(
            levels.contains(&level),
            "[workspace.lints.clippy] lacks {level}"
        );
    }
    let layered = layered_crates();
    for (path, manifest) in MEMBERS {
        if layered.contains(&package_name(manifest)) {
            assert_eq!(
                table_lines(manifest, "lints"),
                ["workspace = true"],
                "{path}/Cargo.toml must inherit the workspace lints"
            );
        }
    }
    // S1: clippy documents `unsafe`; these roots must not have any.
    // S2 and the P1 print lints are allow-by-default in clippy, so they
    // hold only where a root denies them.
    let attributes = [
        "#![forbid(unsafe_code)]",
        "#![deny(clippy::unwrap_used)]",
        "#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]",
    ];
    let has = |src: &str, attribute: &str| {
        let attribute: String = attribute.split_whitespace().collect();
        crate_attributes(src).contains(&attribute)
    };
    for (krate, src) in DETERMINISTIC_ROOTS {
        for attribute in attributes {
            assert!(
                has(src, attribute),
                "crates/{krate}/src/lib.rs: missing {attribute}"
            );
        }
    }
    assert!(
        has(CLI_MAIN, attributes[1]),
        "crates/cli/src/main.rs: missing {}",
        attributes[1]
    );
    for attribute in &attributes[1..] {
        assert!(
            has(FIXTURES, attribute),
            "crates/contract/tests/fixtures.rs: missing {attribute}"
        );
    }
}

/// The `{ path = … }` entries of a clippy.toml whose reason starts with
/// one of `rules`, sorted.
fn entries<'a>(config: &'a str, rules: &[&str]) -> Vec<&'a str> {
    let mut lines: Vec<&str> = config
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{ path = "))
        .filter(|l| {
            let reason = l.split("reason = \"").nth(1).unwrap_or_default();
            rules.iter().any(|r| reason.starts_with(&format!("{r}:")))
        })
        .collect();
    lines.sort_unstable();
    lines
}

#[test]
fn crate_configs_repeat_the_root_entries_of_their_rules() {
    // Clippy reads only the nearest clippy.toml and never merges, and
    // only the root file's entries have fixtures, so each copy must be
    // verbatim and complete.
    let every_rule = ["D1", "D2", "D3", "F1", "F2", "F3", "P1", "R1a", "R1b"];
    for (path, config, rules) in CRATE_CONFIGS {
        assert_eq!(
            entries(config, &every_rule),
            entries(ROOT_CONFIG, rules),
            "{path} must repeat exactly the root clippy.toml entries of {rules:?}"
        );
    }
}

/// The tokens between the `<` at `open` and its matching `>`.
fn generic_args(toks: &[Tok], open: usize) -> &[Tok] {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !toks[i - 1].is_punct('-') {
            depth -= 1;
            if depth == 0 {
                return &toks[open + 1..i];
            }
        }
    }
    &toks[open + 1..]
}

/// The tokens of `struct name`/`enum name` in `toks`, if it defines
/// one: up to its closing brace, or its `;` if it has no body.
fn definition<'a>(toks: &'a [Tok], name: &str) -> Option<&'a [Tok]> {
    let start = toks
        .windows(2)
        .position(|w| (w[0].is_ident("struct") || w[0].is_ident("enum")) && w[1].is_ident(name))?;
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(start) {
        match t.kind {
            TokKind::Punct('{' | '(' | '[') => depth += 1,
            TokKind::Punct('}') if depth == 1 => return Some(&toks[start..=i]),
            TokKind::Punct('}' | ')' | ']') => depth = depth.saturating_sub(1),
            TokKind::Punct(';') if depth == 0 => return Some(&toks[start..=i]),
            _ => {}
        }
    }
    Some(&toks[start..])
}

/// Fails if `payload`, or any type it names that `toks` defines, names
/// an RNG.
fn assert_no_rng(toks: &[Tok], payload: &[Tok], via: &str, seen: &mut Vec<String>) {
    for t in payload.iter().filter(|t| t.kind == TokKind::Ident) {
        assert!(
            !RNG_NAMES.iter().any(|name| t.text.contains(name)),
            "shard.rs:{}: {via} carries RNG state ({})",
            t.line,
            t.text
        );
        if seen.contains(&t.text) {
            continue;
        }
        seen.push(t.text.clone());
        if let Some(body) = definition(toks, &t.text) {
            assert_no_rng(toks, body, &format!("{via} -> {}", t.text), seen);
        }
    }
}

#[test]
fn no_rng_state_crosses_a_shard_channel() {
    // R1c: a stream that crosses the barrier would make stream identity
    // depend on the shard count.
    let toks = code(SHARD);
    let mut channels = 0;
    for (i, t) in toks.iter().enumerate() {
        let open = if ["Sender", "SyncSender", "Receiver"]
            .iter()
            .any(|n| t.is_ident(n))
        {
            i + 1
        } else if t.is_ident("channel") || t.is_ident("sync_channel") {
            i + 3 // `channel::<`
        } else {
            continue;
        };
        if toks.get(open).is_some_and(|t| t.is_punct('<')) {
            let payload = generic_args(&toks, open);
            assert_no_rng(&toks, payload, &format!("{}<…>", t.text), &mut Vec::new());
            channels += 1;
        }
    }
    assert!(channels > 0, "shard.rs names no channel type");
}
