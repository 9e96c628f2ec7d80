//! Fault-injection plans shared by the simulator and the CLI.
//!
//! A [`FaultPlan`] is a declarative description of the failures a
//! simulation run should inject — super-peer crashes, message loss and
//! delay, cluster partitions, and flaky k-redundant partners — plus the
//! [`RetryPolicy`] that governs how clients recover from them. The plan
//! lives in `sp_model` (not `sp_sim`) so that configuration types stay
//! engine-agnostic, mirroring how [`crate::config::Config`] is consumed
//! by both the analysis and simulation layers.
//!
//! Plans round-trip through JSON with a hand-rolled parser and
//! serializer: the workspace has no serialization crate, so — like
//! `RunManifest::to_json` and `repro_bench` — everything here renders
//! and reads JSON by hand.

use std::fmt;

/// How clients retry, back off, and fail over when queries or
/// connection attempts are disrupted by injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Seconds a client waits for a query response before retrying.
    pub timeout_secs: f64,
    /// Retries after the first attempt (per partner sequence).
    pub max_retries: u32,
    /// Base of the exponential backoff between retries, seconds.
    pub backoff_base_secs: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_factor: f64,
    /// Connection-protocol attempts an orphaned client makes before
    /// giving up for good.
    pub max_rejoin_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_secs: 5.0,
            max_retries: 2,
            backoff_base_secs: 1.0,
            backoff_factor: 2.0,
            max_rejoin_attempts: 8,
        }
    }
}

/// One fault to inject during a run.
///
/// Times are simulated seconds. Windowed faults are active on
/// `[from_secs, until_secs)`; instantaneous faults fire once at
/// `at_secs`.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Crash every partner of one cluster at `at_secs`. The cluster is
    /// chosen by index into the alive-cluster list at injection time
    /// (wrapped modulo its length), so the spec stays valid under
    /// churn.
    CrashCluster {
        /// Injection time, seconds.
        at_secs: f64,
        /// Index into the alive-cluster list at injection time.
        cluster_index: usize,
    },
    /// Crash the partners of a uniformly chosen `fraction` of alive
    /// clusters at `at_secs` (a "crash storm").
    CrashFraction {
        /// Injection time, seconds.
        at_secs: f64,
        /// Fraction of alive clusters to hit, in `[0, 1]`.
        fraction: f64,
    },
    /// Drop each flood/submission transmission with probability
    /// `drop_prob` while the window is active.
    MessageLoss {
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds.
        until_secs: f64,
        /// Per-transmission drop probability, in `[0, 1]`.
        drop_prob: f64,
    },
    /// Delay each surviving transmission with probability `delay_prob`
    /// by `delay_secs` while the window is active. Delays accrue to the
    /// latency accounting; they do not reorder the flood.
    MessageDelay {
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds.
        until_secs: f64,
        /// Per-transmission delay probability, in `[0, 1]`.
        delay_prob: f64,
        /// Added latency per delayed transmission, seconds.
        delay_secs: f64,
    },
    /// Sever all overlay links into and out of the listed clusters for
    /// the window. Indices address the alive-cluster list at window
    /// start.
    Partition {
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds.
        until_secs: f64,
        /// Alive-list indices of the clusters to isolate.
        clusters: Vec<usize>,
    },
    /// While active, each client query submission to a k≥2 virtual
    /// super-peer finds its round-robin partner unresponsive with
    /// probability `flake_prob`, exercising the failover path.
    FlakyPartners {
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds.
        until_secs: f64,
        /// Per-submission flake probability, in `[0, 1]`.
        flake_prob: f64,
    },
}

impl FaultSpec {
    /// Stable lower-snake-case name, used as the JSON `kind` tag and
    /// as the manifest injection-count key.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FaultSpec::CrashCluster { .. } => "crash_cluster",
            FaultSpec::CrashFraction { .. } => "crash_fraction",
            FaultSpec::MessageLoss { .. } => "message_loss",
            FaultSpec::MessageDelay { .. } => "message_delay",
            FaultSpec::Partition { .. } => "partition",
            FaultSpec::FlakyPartners { .. } => "flaky_partners",
        }
    }

    /// When the fault first takes effect, seconds.
    pub fn start_secs(&self) -> f64 {
        match *self {
            FaultSpec::CrashCluster { at_secs, .. } => at_secs,
            FaultSpec::CrashFraction { at_secs, .. } => at_secs,
            FaultSpec::MessageLoss { from_secs, .. } => from_secs,
            FaultSpec::MessageDelay { from_secs, .. } => from_secs,
            FaultSpec::Partition { from_secs, .. } => from_secs,
            FaultSpec::FlakyPartners { from_secs, .. } => from_secs,
        }
    }

    /// When a windowed fault stops; `None` for instantaneous faults.
    pub fn end_secs(&self) -> Option<f64> {
        match *self {
            FaultSpec::CrashCluster { .. } | FaultSpec::CrashFraction { .. } => None,
            FaultSpec::MessageLoss { until_secs, .. } => Some(until_secs),
            FaultSpec::MessageDelay { until_secs, .. } => Some(until_secs),
            FaultSpec::Partition { until_secs, .. } => Some(until_secs),
            FaultSpec::FlakyPartners { until_secs, .. } => Some(until_secs),
        }
    }

    fn validate(&self, index: usize) -> Result<(), FaultPlanError> {
        let err = |msg: String| Err(FaultPlanError(format!("faults[{index}]: {msg}")));
        let check_time = |label: &str, t: f64| -> Result<(), FaultPlanError> {
            if !t.is_finite() || t < 0.0 {
                return Err(FaultPlanError(format!(
                    "faults[{index}]: {label} must be finite and non-negative, got {t}"
                )));
            }
            Ok(())
        };
        let check_prob = |label: &str, p: f64| -> Result<(), FaultPlanError> {
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultPlanError(format!(
                    "faults[{index}]: {label} must lie in [0, 1], got {p}"
                )));
            }
            Ok(())
        };
        check_time("start time", self.start_secs())?;
        if let Some(end) = self.end_secs() {
            check_time("end time", end)?;
            if end <= self.start_secs() {
                return err(format!(
                    "window must end after it starts ({} >= {end})",
                    self.start_secs()
                ));
            }
        }
        match self {
            FaultSpec::CrashCluster { .. } => Ok(()),
            FaultSpec::CrashFraction { fraction, .. } => check_prob("fraction", *fraction),
            FaultSpec::MessageLoss { drop_prob, .. } => check_prob("drop_prob", *drop_prob),
            FaultSpec::MessageDelay {
                delay_prob,
                delay_secs,
                ..
            } => {
                check_prob("delay_prob", *delay_prob)?;
                check_time("delay_secs", *delay_secs)
            }
            FaultSpec::Partition { clusters, .. } => {
                if clusters.is_empty() {
                    err("partition must list at least one cluster".to_string())
                } else {
                    Ok(())
                }
            }
            FaultSpec::FlakyPartners { flake_prob, .. } => check_prob("flake_prob", *flake_prob),
        }
    }

    pub(crate) fn to_json(&self) -> String {
        match self {
            FaultSpec::CrashCluster {
                at_secs,
                cluster_index,
            } => format!(
                "{{\"kind\": \"crash_cluster\", \"at_secs\": {at_secs}, \"cluster_index\": {cluster_index}}}"
            ),
            FaultSpec::CrashFraction { at_secs, fraction } => format!(
                "{{\"kind\": \"crash_fraction\", \"at_secs\": {at_secs}, \"fraction\": {fraction}}}"
            ),
            FaultSpec::MessageLoss {
                from_secs,
                until_secs,
                drop_prob,
            } => format!(
                "{{\"kind\": \"message_loss\", \"from_secs\": {from_secs}, \"until_secs\": {until_secs}, \"drop_prob\": {drop_prob}}}"
            ),
            FaultSpec::MessageDelay {
                from_secs,
                until_secs,
                delay_prob,
                delay_secs,
            } => format!(
                "{{\"kind\": \"message_delay\", \"from_secs\": {from_secs}, \"until_secs\": {until_secs}, \"delay_prob\": {delay_prob}, \"delay_secs\": {delay_secs}}}"
            ),
            FaultSpec::Partition {
                from_secs,
                until_secs,
                clusters,
            } => {
                let list = clusters
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"kind\": \"partition\", \"from_secs\": {from_secs}, \"until_secs\": {until_secs}, \"clusters\": [{list}]}}"
                )
            }
            FaultSpec::FlakyPartners {
                from_secs,
                until_secs,
                flake_prob,
            } => format!(
                "{{\"kind\": \"flaky_partners\", \"from_secs\": {from_secs}, \"until_secs\": {until_secs}, \"flake_prob\": {flake_prob}}}"
            ),
        }
    }
}

/// A complete fault-injection plan: the faults to inject plus the
/// client retry policy that applies while they are active.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Faults to inject, in declaration order.
    pub faults: Vec<FaultSpec>,
    /// Client-side recovery semantics.
    pub retry: RetryPolicy,
}

/// Error raised when a plan fails validation or its JSON is malformed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanError(pub String);

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// Checks every fault and the retry policy for well-formedness.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (i, fault) in self.faults.iter().enumerate() {
            fault.validate(i)?;
        }
        let r = &self.retry;
        let check = |label: &str, v: f64, min: f64| -> Result<(), FaultPlanError> {
            if !v.is_finite() || v < min {
                return Err(FaultPlanError(format!(
                    "retry.{label} must be finite and >= {min}, got {v}"
                )));
            }
            Ok(())
        };
        check("timeout_secs", r.timeout_secs, 0.0)?;
        check("backoff_base_secs", r.backoff_base_secs, 0.0)?;
        check("backoff_factor", r.backoff_factor, 1.0)?;
        Ok(())
    }

    /// True when the plan injects nothing (the retry policy alone has
    /// no observable effect without faults to recover from).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Renders the plan as a JSON document that [`FaultPlan::from_json`]
    /// reads back verbatim.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\n  \"retry\": {\n");
        s.push_str(&format!(
            "    \"timeout_secs\": {},\n",
            self.retry.timeout_secs
        ));
        s.push_str(&format!(
            "    \"max_retries\": {},\n",
            self.retry.max_retries
        ));
        s.push_str(&format!(
            "    \"backoff_base_secs\": {},\n",
            self.retry.backoff_base_secs
        ));
        s.push_str(&format!(
            "    \"backoff_factor\": {},\n",
            self.retry.backoff_factor
        ));
        s.push_str(&format!(
            "    \"max_rejoin_attempts\": {}\n",
            self.retry.max_rejoin_attempts
        ));
        s.push_str("  },\n  \"faults\": [\n");
        for (i, fault) in self.faults.iter().enumerate() {
            let sep = if i + 1 < self.faults.len() { "," } else { "" };
            s.push_str(&format!("    {}{sep}\n", fault.to_json()));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a plan from JSON and validates it.
    pub fn from_json(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let value = Parser::new(text).parse_document()?;
        let root = value.as_object("plan")?;
        let mut plan = FaultPlan::default();
        for (key, val) in root {
            match key.as_str() {
                "retry" => plan.retry = parse_retry(val)?,
                "faults" => {
                    let items = val.as_array("faults")?;
                    for (i, item) in items.iter().enumerate() {
                        plan.faults.push(parse_fault(item, i)?);
                    }
                }
                other => {
                    return Err(FaultPlanError(format!(
                        "unknown top-level key \"{other}\" (expected \"retry\" or \"faults\")"
                    )))
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

pub(crate) fn parse_retry(value: &Value) -> Result<RetryPolicy, FaultPlanError> {
    let obj = value.as_object("retry")?;
    let mut retry = RetryPolicy::default();
    for (key, val) in obj {
        match key.as_str() {
            "timeout_secs" => retry.timeout_secs = val.as_f64("retry.timeout_secs")?,
            "max_retries" => retry.max_retries = val.as_u32("retry.max_retries")?,
            "backoff_base_secs" => {
                retry.backoff_base_secs = val.as_f64("retry.backoff_base_secs")?
            }
            "backoff_factor" => retry.backoff_factor = val.as_f64("retry.backoff_factor")?,
            "max_rejoin_attempts" => {
                retry.max_rejoin_attempts = val.as_u32("retry.max_rejoin_attempts")?
            }
            other => return Err(FaultPlanError(format!("unknown retry key \"{other}\""))),
        }
    }
    Ok(retry)
}

pub(crate) fn parse_fault(value: &Value, index: usize) -> Result<FaultSpec, FaultPlanError> {
    let ctx = format!("faults[{index}]");
    let obj = value.as_object(&ctx)?;
    let kind = obj
        .iter()
        .find(|(k, _)| k == "kind")
        .ok_or_else(|| FaultPlanError(format!("{ctx}: missing \"kind\"")))?
        .1
        .as_str(&format!("{ctx}.kind"))?;
    let f64_field = |name: &str| -> Result<f64, FaultPlanError> {
        obj.iter()
            .find(|(k, _)| k == name)
            .ok_or_else(|| FaultPlanError(format!("{ctx}: missing \"{name}\"")))?
            .1
            .as_f64(&format!("{ctx}.{name}"))
    };
    let usize_field =
        |name: &str| -> Result<usize, FaultPlanError> { Ok(f64_field(name)?.max(0.0) as usize) };
    let known = |allowed: &[&str]| -> Result<(), FaultPlanError> {
        for (k, _) in obj {
            if k != "kind" && !allowed.contains(&k.as_str()) {
                return Err(FaultPlanError(format!(
                    "{ctx}: unknown key \"{k}\" for kind \"{kind}\""
                )));
            }
        }
        Ok(())
    };
    match kind.as_str() {
        "crash_cluster" => {
            known(&["at_secs", "cluster_index"])?;
            Ok(FaultSpec::CrashCluster {
                at_secs: f64_field("at_secs")?,
                cluster_index: usize_field("cluster_index")?,
            })
        }
        "crash_fraction" => {
            known(&["at_secs", "fraction"])?;
            Ok(FaultSpec::CrashFraction {
                at_secs: f64_field("at_secs")?,
                fraction: f64_field("fraction")?,
            })
        }
        "message_loss" => {
            known(&["from_secs", "until_secs", "drop_prob"])?;
            Ok(FaultSpec::MessageLoss {
                from_secs: f64_field("from_secs")?,
                until_secs: f64_field("until_secs")?,
                drop_prob: f64_field("drop_prob")?,
            })
        }
        "message_delay" => {
            known(&["from_secs", "until_secs", "delay_prob", "delay_secs"])?;
            Ok(FaultSpec::MessageDelay {
                from_secs: f64_field("from_secs")?,
                until_secs: f64_field("until_secs")?,
                delay_prob: f64_field("delay_prob")?,
                delay_secs: f64_field("delay_secs")?,
            })
        }
        "partition" => {
            known(&["from_secs", "until_secs", "clusters"])?;
            let list = obj
                .iter()
                .find(|(k, _)| k == "clusters")
                .ok_or_else(|| FaultPlanError(format!("{ctx}: missing \"clusters\"")))?
                .1
                .as_array(&format!("{ctx}.clusters"))?;
            let mut clusters = Vec::with_capacity(list.len());
            for (i, item) in list.iter().enumerate() {
                clusters.push(item.as_f64(&format!("{ctx}.clusters[{i}]"))?.max(0.0) as usize);
            }
            Ok(FaultSpec::Partition {
                from_secs: f64_field("from_secs")?,
                until_secs: f64_field("until_secs")?,
                clusters,
            })
        }
        "flaky_partners" => {
            known(&["from_secs", "until_secs", "flake_prob"])?;
            Ok(FaultSpec::FlakyPartners {
                from_secs: f64_field("from_secs")?,
                until_secs: f64_field("until_secs")?,
                flake_prob: f64_field("flake_prob")?,
            })
        }
        other => Err(FaultPlanError(format!(
            "{ctx}: unknown fault kind \"{other}\""
        ))),
    }
}

// ---------------------------------------------------------------------
// Minimal JSON reader. Supports exactly what the workspace's
// hand-rolled documents need: objects, arrays, numbers, strings (no
// escapes beyond \" \\ \/ \n \t \r), booleans, and null. Key order is
// preserved so error messages can reference the document as written.
// Public (alongside [`Parser`]) so sibling crates reading their own
// canonical JSON documents — e.g. the campaign report for
// `spnet campaign --resume` — share one parser instead of regexes.
// ---------------------------------------------------------------------

/// A parsed JSON value (minimal hand-rolled reader; see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Object as an ordered key/value list (insertion order kept).
    Object(Vec<(String, Value)>),
    /// Array of values.
    Array(Vec<Value>),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// String literal.
    String(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Object(_) => "object",
            Value::Array(_) => "array",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Bool(_) => "boolean",
            Value::Null => "null",
        }
    }

    /// The value as an object, or a `{ctx}: expected object` error.
    pub fn as_object(&self, ctx: &str) -> Result<&Vec<(String, Value)>, FaultPlanError> {
        match self {
            Value::Object(fields) => Ok(fields),
            other => Err(FaultPlanError(format!(
                "{ctx}: expected object, got {}",
                other.type_name()
            ))),
        }
    }

    /// The value as an array, or a `{ctx}: expected array` error.
    pub fn as_array(&self, ctx: &str) -> Result<&Vec<Value>, FaultPlanError> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(FaultPlanError(format!(
                "{ctx}: expected array, got {}",
                other.type_name()
            ))),
        }
    }

    /// The value as a number, or a `{ctx}: expected number` error.
    pub fn as_f64(&self, ctx: &str) -> Result<f64, FaultPlanError> {
        match self {
            Value::Number(n) => Ok(*n),
            other => Err(FaultPlanError(format!(
                "{ctx}: expected number, got {}",
                other.type_name()
            ))),
        }
    }

    /// The value as a non-negative integer fitting `u32`.
    pub fn as_u32(&self, ctx: &str) -> Result<u32, FaultPlanError> {
        let n = self.as_f64(ctx)?;
        if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
            return Err(FaultPlanError(format!(
                "{ctx}: expected a non-negative integer, got {n}"
            )));
        }
        Ok(n as u32)
    }

    /// The value as a string, or a `{ctx}: expected string` error.
    pub fn as_str(&self, ctx: &str) -> Result<String, FaultPlanError> {
        match self {
            Value::String(s) => Ok(s.clone()),
            other => Err(FaultPlanError(format!(
                "{ctx}: expected string, got {}",
                other.type_name()
            ))),
        }
    }
}

/// Minimal JSON parser over a borrowed document (see [`Value`]).
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Creates a parser over `text`.
    pub fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Parses the whole document into one [`Value`]; trailing
    /// characters are an error.
    pub fn parse_document(&mut self) -> Result<Value, FaultPlanError> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(value)
    }

    fn err(&self, msg: &str) -> FaultPlanError {
        FaultPlanError(format!("json parse error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), FaultPlanError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, FaultPlanError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(&format!("unexpected character '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, FaultPlanError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected \"{lit}\"")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, FaultPlanError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, FaultPlanError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, FaultPlanError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    let replacement = match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => {
                            return Err(
                                self.err(&format!("unsupported escape '\\{}'", other as char))
                            )
                        }
                    };
                    out.push(replacement);
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8 in string"))?,
                    );
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, FaultPlanError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(&format!("invalid number \"{text}\"")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            faults: vec![
                FaultSpec::CrashCluster {
                    at_secs: 100.0,
                    cluster_index: 3,
                },
                FaultSpec::CrashFraction {
                    at_secs: 250.0,
                    fraction: 0.25,
                },
                FaultSpec::MessageLoss {
                    from_secs: 50.0,
                    until_secs: 150.0,
                    drop_prob: 0.1,
                },
                FaultSpec::MessageDelay {
                    from_secs: 60.0,
                    until_secs: 140.0,
                    delay_prob: 0.2,
                    delay_secs: 0.5,
                },
                FaultSpec::Partition {
                    from_secs: 120.0,
                    until_secs: 220.0,
                    clusters: vec![0, 4, 9],
                },
                FaultSpec::FlakyPartners {
                    from_secs: 0.0,
                    until_secs: 300.0,
                    flake_prob: 0.3,
                },
            ],
            retry: RetryPolicy {
                timeout_secs: 4.0,
                max_retries: 3,
                backoff_base_secs: 0.5,
                backoff_factor: 2.0,
                max_rejoin_attempts: 6,
            },
        }
    }

    #[test]
    fn round_trips_every_fault_kind() {
        let plan = sample_plan();
        let json = plan.to_json();
        let reloaded = FaultPlan::from_json(&json).expect("round trip");
        assert_eq!(plan, reloaded);
    }

    #[test]
    fn default_plan_is_empty_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        plan.validate().expect("default plan valid");
        let reloaded = FaultPlan::from_json(&plan.to_json()).expect("round trip");
        assert_eq!(plan, reloaded);
    }

    #[test]
    fn missing_retry_fields_take_defaults() {
        let plan = FaultPlan::from_json(
            r#"{"faults": [{"kind": "crash_fraction", "at_secs": 10, "fraction": 0.5}]}"#,
        )
        .expect("parse");
        assert_eq!(plan.retry, RetryPolicy::default());
        assert_eq!(plan.faults.len(), 1);
    }

    #[test]
    fn rejects_bad_probability() {
        let plan = FaultPlan {
            faults: vec![FaultSpec::MessageLoss {
                from_secs: 0.0,
                until_secs: 10.0,
                drop_prob: 1.5,
            }],
            ..FaultPlan::default()
        };
        let err = plan.validate().unwrap_err();
        assert!(err.0.contains("drop_prob"), "got: {err}");
    }

    #[test]
    fn rejects_inverted_window() {
        let err = FaultPlan::from_json(
            r#"{"faults": [{"kind": "message_loss", "from_secs": 10, "until_secs": 5, "drop_prob": 0.1}]}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("end after it starts"), "got: {err}");
    }

    #[test]
    fn rejects_unknown_kind_and_keys() {
        let err = FaultPlan::from_json(r#"{"faults": [{"kind": "meteor_strike", "at_secs": 1}]}"#)
            .unwrap_err();
        assert!(err.0.contains("unknown fault kind"), "got: {err}");
        let err = FaultPlan::from_json(
            r#"{"faults": [{"kind": "crash_cluster", "at_secs": 1, "cluster_index": 0, "oops": 1}]}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("unknown key"), "got: {err}");
    }

    #[test]
    fn parse_errors_are_one_line_and_positioned() {
        let err = FaultPlan::from_json("{\"faults\": [").unwrap_err();
        assert!(!err.0.contains('\n'));
        assert!(err.0.contains("byte"), "got: {err}");
    }

    #[test]
    fn empty_partition_rejected() {
        let err = FaultPlan::from_json(
            r#"{"faults": [{"kind": "partition", "from_secs": 0, "until_secs": 5, "clusters": []}]}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("at least one cluster"), "got: {err}");
    }
}
