//! Minimal `--key value` / `--flag` argument parser.
//!
//! The approved dependency set has no CLI crate, and the surface here
//! is small enough that a hand-rolled parser with good error messages
//! beats pulling one in.

use std::collections::BTreeMap;

/// Parsed arguments: positional words plus `--key [value]` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// A parse or lookup failure, with the message shown to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a raw argument list (without the program name).
    ///
    /// `--key value` pairs become options; a `--key` followed by
    /// another `--…` token (or nothing) becomes a boolean flag;
    /// everything else is positional.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("bare `--` is not a valid option".into()));
                }
                let takes_value = matches!(iter.peek(), Some(next) if !next.starts_with("--"));
                if takes_value {
                    if let Some(value) = iter.next() {
                        args.options.insert(key.to_string(), value);
                    }
                } else {
                    args.flags.push(key.to_string());
                }
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// The positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Whether `--name` was given, as a flag or with a value.
    pub fn has(&self, name: &str) -> bool {
        self.options.contains_key(name) || self.flag(name)
    }

    /// Every option and flag given: valued options first, by name.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.options.keys().chain(&self.flags).map(String::as_str)
    }

    /// Raw option value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {raw:?}"))),
        }
    }

    /// Required typed option.
    ///
    /// (Every current subcommand ships a sensible default instead, but
    /// the parser keeps the strict variant for future commands and for
    /// tests.)
    #[allow(dead_code, reason = "kept for future commands and for tests")]
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let raw = self
            .get(name)
            .ok_or_else(|| ArgError(format!("missing required option --{name}")))?;
        raw.parse()
            .map_err(|_| ArgError(format!("--{name}: cannot parse {raw:?}")))
    }

    /// Comma-separated list option with a default.
    pub fn get_list_or<T>(&self, name: &str, default: &[T]) -> Result<Vec<T>, ArgError>
    where
        T: std::str::FromStr + Clone,
    {
        match self.get(name) {
            None => Ok(default.to_vec()),
            Some(raw) => raw
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| ArgError(format!("--{name}: cannot parse {s:?}")))
                })
                .collect(),
        }
    }

    /// Rejects unknown options/flags (call after reading all expected
    /// ones).
    pub fn ensure_known(&self, known: &[&str]) -> Result<(), ArgError> {
        for key in self.keys() {
            if !known.contains(&key) {
                return Err(ArgError(format!(
                    "unknown option --{key} (expected one of: {})",
                    known.join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn mixes_positional_options_and_flags() {
        let a = parse(&["evaluate", "--users", "1000", "--redundancy", "--ttl", "4"]);
        assert_eq!(a.positional(), ["evaluate"]);
        assert_eq!(a.get("users"), Some("1000"));
        assert!(a.flag("redundancy"));
        assert_eq!(a.get_or("ttl", 7u16).unwrap(), 4);
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse(&["--users", "500"]);
        assert_eq!(a.get_or("cluster", 10usize).unwrap(), 10);
        assert_eq!(a.require::<usize>("users").unwrap(), 500);
        assert!(a.require::<usize>("reach").is_err());
    }

    #[test]
    fn parse_errors_name_the_option() {
        let a = parse(&["--users", "abc"]);
        let err = a.require::<usize>("users").unwrap_err();
        assert!(err.0.contains("users"));
        assert!(err.0.contains("abc"));
    }

    #[test]
    fn list_options() {
        let a = parse(&["--clusters", "1, 10,100"]);
        assert_eq!(
            a.get_list_or::<usize>("clusters", &[5]).unwrap(),
            vec![1, 10, 100]
        );
        let b = parse(&[]);
        assert_eq!(b.get_list_or::<usize>("clusters", &[5]).unwrap(), vec![5]);
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&["--verbose"]);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn unknown_options_rejected() {
        let a = parse(&["--users", "10", "--bogus", "1"]);
        assert!(a.ensure_known(&["users"]).is_err());
        assert!(a.ensure_known(&["users", "bogus"]).is_ok());
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // A value not starting with -- is consumed as a value even if
        // it begins with a dash.
        let a = parse(&["--offset", "-5"]);
        assert_eq!(a.get_or("offset", 0i64).unwrap(), -5);
    }

    #[test]
    fn bare_double_dash_is_an_error() {
        assert!(Args::parse(vec!["--".to_string()]).is_err());
    }
}
