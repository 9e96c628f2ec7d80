//! Lexer edge cases with exact-token assertions: raw strings, nested
//! block comments and byte strings. These pin the properties the
//! residual checks depend on: literals are opaque single tokens,
//! comments survive but are skippable, and line/col bookkeeping stays
//! exact across multi-line tokens.

use sp_contract::lexer::{tokenize, Tok, TokKind};

fn kinds(toks: &[Tok]) -> Vec<(TokKind, &str, u32, u32)> {
    toks.iter()
        .map(|t| (t.kind, t.text.as_str(), t.line, t.col))
        .collect()
}

#[test]
fn raw_strings_are_opaque_and_track_lines() {
    // A raw string containing a fake unwrap() and an embedded quote;
    // the `after` ident must land on line 3 with an exact column.
    let src = "let s = r#\"a \"quoted\" .unwrap()\nline two\"#;\nafter";
    let toks = tokenize(src);
    assert_eq!(
        kinds(&toks),
        vec![
            (TokKind::Ident, "let", 1, 1),
            (TokKind::Ident, "s", 1, 5),
            (TokKind::Punct('='), "=", 1, 7),
            (TokKind::Str, "a \"quoted\" .unwrap()\nline two", 1, 9),
            (TokKind::Punct(';'), ";", 2, 11),
            (TokKind::Ident, "after", 3, 1),
        ]
    );
}

#[test]
fn multi_hash_raw_strings_respect_their_delimiter() {
    // `"#` inside an r##-string does not terminate it.
    let src = "r##\"has \"# inside\"##; x";
    let toks = tokenize(src);
    assert_eq!(toks[0].kind, TokKind::Str);
    assert_eq!(toks[0].text, "has \"# inside");
    assert!(toks.iter().any(|t| t.is_ident("x")));
}

#[test]
fn nested_block_comments_stay_one_token() {
    let src = "before /* outer /* inner */ still comment */ after";
    let toks = tokenize(src);
    assert_eq!(
        kinds(&toks),
        vec![
            (TokKind::Ident, "before", 1, 1),
            (
                TokKind::BlockComment,
                "/* outer /* inner */ still comment */",
                1,
                8
            ),
            (TokKind::Ident, "after", 1, 46),
        ]
    );
    assert!(toks[1].is_comment(), "block comment is skippable");
}

#[test]
fn block_comment_line_tracking_survives_newlines() {
    let src = "/* line1\nline2\nline3 */ token";
    let toks = tokenize(src);
    assert_eq!(toks[0].kind, TokKind::BlockComment);
    assert_eq!(toks[0].line, 1);
    let token = toks.iter().find(|t| t.is_ident("token")).expect("token");
    assert_eq!((token.line, token.col), (3, 10));
}

#[test]
fn byte_strings_and_byte_chars_are_literals() {
    let src = "let b = b\"bytes .unwrap()\"; let c = b'\\n'; let r = br#\"raw bytes\"#;";
    let toks = tokenize(src);
    let strs: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
    assert_eq!(strs.len(), 2, "b\"…\" and br#\"…\"# both lex as Str");
    assert_eq!(strs[0].text, "bytes .unwrap()");
    assert_eq!(strs[1].text, "raw bytes");
    assert!(
        toks.iter()
            .any(|t| t.kind == TokKind::Char && t.text == "\\n"),
        "byte char lexes as Char: {toks:?}"
    );
    // The unwrap inside the byte string never surfaces as an ident.
    assert!(toks.iter().all(|t| !t.is_ident("unwrap")));
}

#[test]
fn lifetimes_are_not_char_literals() {
    let toks = tokenize("fn f<'a>(x: &'a str) -> &'a str { x }");
    let lifetimes: Vec<&Tok> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .collect();
    assert_eq!(lifetimes.len(), 3);
    assert!(lifetimes.iter().all(|t| t.text == "a"));
    assert!(toks.iter().all(|t| t.kind != TokKind::Char));
}
