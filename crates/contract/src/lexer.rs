//! A small Rust tokenizer for the residual checks. Comments and
//! string, char and number literals are whole tokens, so text inside
//! them never reads as code, and every token knows its 1-based line and
//! column. It never fails: malformed input ends a token at EOF.

/// What a token is. Punctuation is one character per token; a literal's
/// text is its body, a lifetime's its name, a raw `r#ident`'s `ident`,
/// and a comment's the whole comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct(char),
    Str,
    Char,
    Num,
    Lifetime,
    LineComment,
    BlockComment,
}

/// One token with the line and column (in chars) it starts at.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lexes `src` into tokens.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let mut lexer = Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    std::iter::from_fn(|| lexer.next_token()).collect()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        (self.line, self.col) = match c {
            '\n' => (self.line + 1, 1),
            _ => (self.line, self.col + 1),
        };
        Some(c)
    }

    fn take(&mut self, n: usize) -> String {
        (0..n).filter_map(|_| self.bump()).collect()
    }

    /// Length of the run of chars from `from` ahead that satisfy `pred`.
    fn run_len(&self, from: usize, pred: impl Fn(char) -> bool) -> usize {
        (from..)
            .take_while(|&i| self.peek(i).is_some_and(&pred))
            .count()
    }

    fn next_token(&mut self) -> Option<Tok> {
        while self.peek(0)?.is_whitespace() {
            self.bump();
        }
        let (c, line, col) = (self.peek(0)?, self.line, self.col);
        let (kind, text) = match (c, self.peek(1)) {
            ('/', Some('/')) => (
                TokKind::LineComment,
                self.take(self.run_len(0, |c| c != '\n')),
            ),
            ('/', Some('*')) => (TokKind::BlockComment, self.block_comment()),
            _ if c.is_ascii_digit() => (TokKind::Num, self.number()),
            _ if c.is_alphabetic() || "_\"'".contains(c) => self.word(),
            _ => (TokKind::Punct(c), self.take(1)),
        };
        Some(Tok {
            kind,
            text,
            line,
            col,
        })
    }

    fn block_comment(&mut self) -> String {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.bump() {
            text.push(c);
            match (c, self.peek(0)) {
                ('/', Some('*')) => depth += 1,
                ('*', Some('/')) => depth -= 1,
                _ => continue,
            }
            text.extend(self.bump());
            if depth == 0 {
                break;
            }
        }
        text
    }

    /// An identifier, or a literal with an optional prefix: `"…"`,
    /// `'…'`, `b"…"`, `b'…'`, `r#"…"#`, `br"…"`, a lifetime, or `r#ident`.
    fn word(&mut self) -> (TokKind, String) {
        let len = self.run_len(0, is_ident_char);
        let word: String = (0..len).filter_map(|i| self.peek(i)).collect();
        let raw = matches!(word.as_str(), "r" | "br" | "rb");
        let hashes = self.run_len(len, |c| c == '#');
        match self.peek(len + hashes) {
            Some('"') if raw || matches!(word.as_str(), "" | "b") => {
                self.take(len + hashes + 1);
                (TokKind::Str, self.body('"', raw.then_some(hashes)))
            }
            Some('\'') if matches!(word.as_str(), "" | "b") => {
                self.take(len + 1);
                self.char_or_lifetime()
            }
            _ if raw && hashes > 0 => {
                self.take(len + 1);
                (TokKind::Ident, self.take(self.run_len(0, is_ident_char)))
            }
            _ => (TokKind::Ident, self.take(len)),
        }
    }

    /// The chars up to `close`, which in a raw string (`hashes` given)
    /// must be followed by that many `#`s; elsewhere escapes are kept
    /// as written.
    fn body(&mut self, close: char, hashes: Option<usize>) -> String {
        let mut text = String::new();
        let n = hashes.unwrap_or(0);
        while let Some(c) = self.bump() {
            if c == close && (0..n).all(|i| self.peek(i) == Some('#')) {
                self.take(n);
                break;
            }
            text.push(c);
            if c == '\\' && hashes.is_none() {
                text.extend(self.bump());
            }
        }
        text
    }

    /// A `'x'` char or an `'a` lifetime, after the opening quote.
    fn char_or_lifetime(&mut self) -> (TokKind, String) {
        if self.peek(0) == Some('\\') {
            return (TokKind::Char, self.body('\'', None));
        }
        let ident = self.peek(0).is_some_and(|c| c.is_alphabetic() || c == '_');
        let text = self.take(self.run_len(0, is_ident_char).max(1));
        if self.peek(0) == Some('\'') {
            self.bump();
        } else if ident {
            return (TokKind::Lifetime, text);
        }
        (TokKind::Char, text)
    }

    /// A number; `.` joins it only before a digit, so `1..5` and
    /// `x.sum()` stay apart, and `e` takes a sign (`1e-3`).
    fn number(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let digit_at = |i| self.peek(i).is_some_and(|d: char| d.is_ascii_digit());
            if !(is_ident_char(c) || c == '.' && digit_at(1)) {
                break;
            }
            let signed = matches!(c, 'e' | 'E') && matches!(self.peek(1), Some('+' | '-'));
            text.push_str(&self.take(if signed && digit_at(2) { 2 } else { 1 }));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let t = kinds("let x = a.unwrap();");
        assert_eq!(t[0], (TokKind::Ident, "let".into()));
        assert_eq!(t[3], (TokKind::Ident, "a".into()));
        assert_eq!(t[4], (TokKind::Punct('.'), ".".into()));
        assert_eq!(t[5], (TokKind::Ident, "unwrap".into()));
    }

    #[test]
    fn strings_hide_their_contents() {
        let t = kinds(r#"let s = "call .unwrap() here";"#);
        assert!(t.iter().all(|(k, x)| *k != TokKind::Ident || x != "unwrap"));
        assert!(t.iter().any(|(k, _)| *k == TokKind::Str));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let t = kinds(r##"let s = r#"no "unwrap()" match"#; let r#fn = 1;"##);
        assert!(t.iter().all(|(k, x)| *k != TokKind::Ident || x != "unwrap"));
        assert!(t.iter().any(|(k, x)| *k == TokKind::Ident && x == "fn"));
    }

    #[test]
    fn comments_are_tokens_with_text() {
        let t = tokenize("// SAFETY: fine\nunsafe { }");
        assert_eq!(t[0].kind, TokKind::LineComment);
        assert!(t[0].text.contains("SAFETY:"));
        assert_eq!(t[0].line, 1);
        assert!(t[1].is_ident("unsafe"));
        assert_eq!(t[1].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let t = kinds("/* a /* b */ c */ x");
        assert_eq!(t.len(), 2);
        assert_eq!(t[1], (TokKind::Ident, "x".into()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let t = kinds("fn f<'a>(x: &'a str) { let c = 'q'; let n = '\\n'; }");
        let lifetimes: Vec<_> = t.iter().filter(|(k, _)| *k == TokKind::Lifetime).collect();
        let chars: Vec<_> = t.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let t = kinds("let y = 2.0e-3; v.iter().sum::<f64>()");
        assert!(t.iter().any(|(k, x)| *k == TokKind::Num && x == "2.0e-3"));
        assert!(t.iter().any(|(k, x)| *k == TokKind::Ident && x == "sum"));
    }

    #[test]
    fn unsafe_code_is_not_the_unsafe_keyword() {
        let t = tokenize("#![forbid(unsafe_code)]");
        assert!(t.iter().any(|tok| tok.is_ident("unsafe_code")));
        assert!(!t.iter().any(|tok| tok.is_ident("unsafe")));
    }

    #[test]
    fn lines_are_tracked_through_multiline_tokens() {
        let t = tokenize("/* one\ntwo */\n\"a\nb\"\nx");
        assert_eq!(t[0].line, 1);
        assert_eq!(t[1].line, 3); // string starts on line 3
        assert_eq!(t[2].line, 5); // x after the 2-line string
    }
}
