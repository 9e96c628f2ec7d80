//! Declarative scenario DSL: phased workload programs over a run.
//!
//! The paper evaluates super-peer designs under a steady-state workload
//! (fixed query rate, one churn law, homogeneous peers). Deployed
//! overlays live through *regimes*: flash crowds that multiply query
//! traffic and concentrate it on a few hot keys, churn bursts that
//! shorten sessions across the board, correlated mass departures,
//! overlay splits that heal later, and populations whose peers differ
//! in capacity by orders of magnitude. A [`ScenarioPlan`] composes
//! those regimes — plus a [`FaultPlan`], a [`RepairPolicy`] and an
//! [`OverloadPolicy`] — into one validated, JSON-serializable program
//! that both churn engines execute deterministically (DESIGN.md §16).
//! It is the only place a churn run's faults, repair policy and
//! overload policy are given.
//!
//! Like [`crate::faults`], the format is hand-rolled JSON (the
//! workspace has no serialization crate) and every parse error names
//! the offending key or byte. The grammar:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "phases": [
//!     {"kind": "flash_crowd", "from_secs": 300, "until_secs": 900,
//!      "query_rate_mult": 4.0, "hot_shift": 17},
//!     {"kind": "churn_burst", "from_secs": 600, "until_secs": 1200,
//!      "lifespan_mult": 0.25},
//!     {"kind": "mass_leave", "from_secs": 700, "until_secs": 710,
//!      "fraction": 0.3},
//!     {"kind": "split", "from_secs": 400, "until_secs": 800,
//!      "fraction": 0.4}
//!   ],
//!   "capacity_classes": [
//!     {"weight": 3.0, "files_mult": 0.1, "lifespan_mult": 0.5},
//!     {"weight": 1.0, "files_mult": 4.0, "lifespan_mult": 2.0}
//!   ],
//!   "faults": { "faults": [], "retry": {} },
//!   "repair": "promote"
//! }
//! ```
//!
//! Validation rejects zero-duration phases, overlapping phases of the
//! same kind (phases of *different* kinds may overlap — a flash crowd
//! during a split is a legitimate program), non-finite or out-of-range
//! parameters, and any unknown key. An empty plan is the identity: the
//! engines consume no extra randomness and produce bitwise-identical
//! metrics to a plain run.

use std::fmt;

use crate::faults::{parse_fault, parse_retry, FaultPlan, FaultPlanError, Parser, Value};
use crate::overload::{parse_policy, OverloadPolicy};
use crate::repair::RepairPolicy;

/// Version of the scenario JSON grammar this module reads and writes.
///
/// Every rendered plan embeds it as `"schema_version"`, and
/// [`ScenarioPlan::from_json`] rejects documents stamped with a *newer*
/// version by name instead of tripping over an unknown key — so a
/// campaign reproducer written today still fails cleanly (and
/// diagnosably) after a future scenario-DSL change. Documents without
/// the field parse as version 1 (the grammar before the field existed).
/// Version 2 added the per-phase `query_rate_mult` knob and the
/// top-level `overload` policy.
pub const SCENARIO_SCHEMA_VERSION: u32 = 2;

/// A scenario that fails validation or parsing, with the message shown
/// to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScenarioError {}

impl From<FaultPlanError> for ScenarioError {
    fn from(e: FaultPlanError) -> Self {
        ScenarioError(e.0)
    }
}

/// What a phase does while its window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseKind {
    /// Query-rate spike concentrated on Zipf-shifted hot keys: every
    /// peer's query inter-arrival rate is multiplied and each sampled
    /// query class is rotated by `hot_shift` (mod the class count), so
    /// the popular head of the Zipf law lands on a different key range.
    FlashCrowd {
        /// Factor applied to the per-peer query rate (> 0; 1.0 = no
        /// spike).
        query_rate_mult: f64,
        /// Rotation applied to each sampled query class.
        hot_shift: u32,
    },
    /// Churn burst: session lifespans sampled while the window is
    /// active are multiplied (a factor < 1 shortens sessions and
    /// accelerates churn).
    ChurnBurst {
        /// Factor applied to sampled lifespans (> 0).
        lifespan_mult: f64,
    },
    /// Correlated mass departure: at the window start, `fraction` of
    /// the currently alive peers leave simultaneously (organic-style
    /// departures — repair does not engage, replenishment arrivals
    /// refill the population). The window end is a no-op; the window
    /// length only spaces it from other phases of the same kind.
    MassLeave {
        /// Fraction of alive peers forced to depart, in [0, 1].
        fraction: f64,
    },
    /// Network split-and-merge: at the window start, `fraction` of the
    /// alive clusters are partitioned from the rest (flood traffic
    /// across the cut is severed, exactly like a fault-plan
    /// partition); the window end merges them back.
    Split {
        /// Fraction of alive clusters isolated, in [0, 1].
        fraction: f64,
    },
}

impl PhaseKind {
    /// The JSON `kind` tag.
    pub fn kind_name(&self) -> &'static str {
        match self {
            PhaseKind::FlashCrowd { .. } => "flash_crowd",
            PhaseKind::ChurnBurst { .. } => "churn_burst",
            PhaseKind::MassLeave { .. } => "mass_leave",
            PhaseKind::Split { .. } => "split",
        }
    }
}

/// One phase: a [`PhaseKind`] active over a `[from_secs, until_secs)`
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Window start (simulated seconds, >= 0).
    pub from_secs: f64,
    /// Window end (simulated seconds, > `from_secs`).
    pub until_secs: f64,
    /// Per-phase query-rate multiplier (> 0; 1.0 = no change): while
    /// the window is active every peer's query inter-arrival rate is
    /// multiplied, on top of whatever the kind itself does — the
    /// flash-crowd intensity knob for overload scenarios. Concurrent
    /// phases multiply. `flash_crowd` phases express their spike
    /// through their own `query_rate_mult` field instead and must
    /// leave this at 1.0.
    pub rate_mult: f64,
    /// What the phase does while active.
    pub kind: PhaseKind,
}

impl PhaseSpec {
    fn validate(&self, index: usize) -> Result<(), ScenarioError> {
        let ctx = format!("phases[{index}]");
        if !self.from_secs.is_finite() || self.from_secs < 0.0 {
            return Err(ScenarioError(format!(
                "{ctx}: from_secs must be finite and >= 0, got {}",
                self.from_secs
            )));
        }
        if !self.until_secs.is_finite() || self.until_secs <= self.from_secs {
            return Err(ScenarioError(format!(
                "{ctx}: until_secs must be > from_secs (zero-duration phases are invalid), \
                 got from_secs {} until_secs {}",
                self.from_secs, self.until_secs
            )));
        }
        let positive = |label: &str, v: f64| -> Result<(), ScenarioError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(ScenarioError(format!(
                    "{ctx}: {label} must be finite and > 0, got {v}"
                )));
            }
            Ok(())
        };
        let fraction = |label: &str, v: f64| -> Result<(), ScenarioError> {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(ScenarioError(format!(
                    "{ctx}: {label} must be in [0, 1], got {v}"
                )));
            }
            Ok(())
        };
        positive("query_rate_mult", self.rate_mult)?;
        if matches!(self.kind, PhaseKind::FlashCrowd { .. }) && self.rate_mult != 1.0 {
            return Err(ScenarioError(format!(
                "{ctx}: a flash_crowd phase expresses its spike through its own \
                 query_rate_mult; the per-phase rate_mult must stay 1.0, got {}",
                self.rate_mult
            )));
        }
        match self.kind {
            PhaseKind::FlashCrowd {
                query_rate_mult, ..
            } => positive("query_rate_mult", query_rate_mult),
            PhaseKind::ChurnBurst { lifespan_mult } => positive("lifespan_mult", lifespan_mult),
            PhaseKind::MassLeave { fraction: f } => fraction("fraction", f),
            PhaseKind::Split { fraction: f } => fraction("fraction", f),
        }
    }

    fn to_json(self) -> String {
        let window = format!(
            "\"from_secs\": {}, \"until_secs\": {}",
            self.from_secs, self.until_secs
        );
        // The per-phase rate knob is serialized only when set, so
        // version-1 documents round-trip byte-identically.
        let rate = if self.rate_mult != 1.0 {
            format!(", \"query_rate_mult\": {}", self.rate_mult)
        } else {
            String::new()
        };
        match self.kind {
            PhaseKind::FlashCrowd {
                query_rate_mult,
                hot_shift,
            } => format!(
                "{{\"kind\": \"flash_crowd\", {window}, \
                 \"query_rate_mult\": {query_rate_mult}, \"hot_shift\": {hot_shift}}}"
            ),
            PhaseKind::ChurnBurst { lifespan_mult } => format!(
                "{{\"kind\": \"churn_burst\", {window}, \
                 \"lifespan_mult\": {lifespan_mult}{rate}}}"
            ),
            PhaseKind::MassLeave { fraction } => {
                format!("{{\"kind\": \"mass_leave\", {window}, \"fraction\": {fraction}{rate}}}")
            }
            PhaseKind::Split { fraction } => {
                format!("{{\"kind\": \"split\", {window}, \"fraction\": {fraction}{rate}}}")
            }
        }
    }
}

/// One peer-capacity class: joining peers are assigned a class by
/// deterministic weighted round-robin (no RNG draw), and the class
/// scales the peer's sampled file count and session lifespan — the
/// Baccelli-style heterogeneous population where a few high-capacity
/// peers share most of the content and stay longest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityClass {
    /// Relative share of peers landing in this class (> 0).
    pub weight: f64,
    /// Factor applied to the sampled file count (> 0).
    pub files_mult: f64,
    /// Factor applied to the sampled session lifespan (> 0).
    pub lifespan_mult: f64,
}

impl CapacityClass {
    fn validate(&self, index: usize) -> Result<(), ScenarioError> {
        let ctx = format!("capacity_classes[{index}]");
        for (label, v) in [
            ("weight", self.weight),
            ("files_mult", self.files_mult),
            ("lifespan_mult", self.lifespan_mult),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(ScenarioError(format!(
                    "{ctx}: {label} must be finite and > 0, got {v}"
                )));
            }
        }
        Ok(())
    }

    fn to_json(self) -> String {
        format!(
            "{{\"weight\": {}, \"files_mult\": {}, \"lifespan_mult\": {}}}",
            self.weight, self.files_mult, self.lifespan_mult
        )
    }
}

/// A validated scenario: phased workload regimes, a heterogeneous
/// capacity population, an embedded fault plan, the repair policy the
/// run heals with, and the overload policy. See the module docs for
/// the JSON grammar.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioPlan {
    /// Phased workload regimes (validated: no zero-duration windows,
    /// no same-kind overlap).
    pub phases: Vec<PhaseSpec>,
    /// Peer capacity classes (empty = homogeneous population).
    pub capacity_classes: Vec<CapacityClass>,
    /// Fault injection running alongside the phases.
    pub faults: FaultPlan,
    /// Overlay self-healing policy for fault-injected crashes.
    pub repair: RepairPolicy,
    /// Super-peer overload-control policy (empty = unbounded queues,
    /// the pre-overload behavior).
    pub overload: OverloadPolicy,
}

impl ScenarioPlan {
    /// Checks every phase, class, and the embedded fault plan.
    ///
    /// Phases of the same kind must not overlap (each kind's modifier
    /// is a single scalar, so two simultaneous windows of one kind
    /// would be ambiguous); phases of different kinds may.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        for (i, phase) in self.phases.iter().enumerate() {
            phase.validate(i)?;
        }
        for (i, a) in self.phases.iter().enumerate() {
            for (j, b) in self.phases.iter().enumerate().skip(i + 1) {
                if a.kind.kind_name() == b.kind.kind_name()
                    && a.from_secs < b.until_secs
                    && b.from_secs < a.until_secs
                {
                    return Err(ScenarioError(format!(
                        "phases[{i}] and phases[{j}] are overlapping \"{}\" windows \
                         ([{}, {}) vs [{}, {}))",
                        a.kind.kind_name(),
                        a.from_secs,
                        a.until_secs,
                        b.from_secs,
                        b.until_secs
                    )));
                }
            }
        }
        for (i, class) in self.capacity_classes.iter().enumerate() {
            class.validate(i)?;
        }
        self.faults.validate()?;
        self.overload
            .validate()
            .map_err(|e| ScenarioError(e.to_string()))?;
        Ok(())
    }

    /// Renders the plan as a JSON document that
    /// [`ScenarioPlan::from_json`] reads back verbatim.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\n  \"schema_version\": {SCENARIO_SCHEMA_VERSION},\n  \"phases\": [\n"
        ));
        for (i, phase) in self.phases.iter().enumerate() {
            let sep = if i + 1 < self.phases.len() { "," } else { "" };
            s.push_str(&format!("    {}{sep}\n", phase.to_json()));
        }
        s.push_str("  ],\n  \"capacity_classes\": [\n");
        for (i, class) in self.capacity_classes.iter().enumerate() {
            let sep = if i + 1 < self.capacity_classes.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!("    {}{sep}\n", class.to_json()));
        }
        s.push_str("  ],\n  \"faults\": ");
        // Re-indent the embedded fault-plan document two spaces deep.
        let faults = self.faults.to_json();
        for (i, line) in faults.trim_end().lines().enumerate() {
            if i > 0 {
                s.push_str("\n  ");
            }
            s.push_str(line);
        }
        if !self.overload.is_empty() {
            s.push_str(",\n  \"overload\": ");
            let overload = self.overload.to_json();
            for (i, line) in overload.trim_end().lines().enumerate() {
                if i > 0 {
                    s.push_str("\n  ");
                }
                s.push_str(line);
            }
        }
        s.push_str(&format!(",\n  \"repair\": \"{}\"\n}}\n", self.repair));
        s
    }

    /// Parses a plan from JSON and validates it. Every unknown key at
    /// any level is an error.
    pub fn from_json(text: &str) -> Result<ScenarioPlan, ScenarioError> {
        let value = Parser::new(text).parse_document()?;
        let root = value.as_object("scenario")?;
        let mut plan = ScenarioPlan::default();
        for (key, val) in root {
            match key.as_str() {
                "schema_version" => {
                    let version = val.as_u32("schema_version")?;
                    if version > SCENARIO_SCHEMA_VERSION {
                        return Err(ScenarioError(format!(
                            "schema_version {version} is newer than this binary's \
                             {SCENARIO_SCHEMA_VERSION}; regenerate the scenario or \
                             upgrade spnet"
                        )));
                    }
                }
                "phases" => {
                    for (i, item) in val.as_array("phases")?.iter().enumerate() {
                        plan.phases.push(parse_phase(item, i)?);
                    }
                }
                "capacity_classes" => {
                    for (i, item) in val.as_array("capacity_classes")?.iter().enumerate() {
                        plan.capacity_classes.push(parse_class(item, i)?);
                    }
                }
                "faults" => plan.faults = parse_fault_plan(val)?,
                "overload" => {
                    plan.overload = parse_policy(val).map_err(|e| ScenarioError(e.to_string()))?;
                }
                "repair" => {
                    let raw = val.as_str("repair")?;
                    plan.repair = RepairPolicy::parse(&raw).ok_or_else(|| {
                        ScenarioError(format!(
                            "repair: unknown policy {raw:?} \
                             (expected \"off\", \"promote\", or \"promote+partner\")"
                        ))
                    })?;
                }
                other => {
                    return Err(ScenarioError(format!(
                        "unknown top-level key \"{other}\" (expected \"schema_version\", \
                         \"phases\", \"capacity_classes\", \"faults\", \"overload\", \
                         or \"repair\")"
                    )))
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

/// Parses the embedded fault-plan object with the fault module's own
/// field parsers (same error messages as a standalone fault file).
fn parse_fault_plan(value: &Value) -> Result<FaultPlan, ScenarioError> {
    let root = value.as_object("faults")?;
    let mut plan = FaultPlan::default();
    for (key, val) in root {
        match key.as_str() {
            "retry" => plan.retry = parse_retry(val)?,
            "faults" => {
                for (i, item) in val.as_array("faults.faults")?.iter().enumerate() {
                    plan.faults.push(parse_fault(item, i)?);
                }
            }
            other => {
                return Err(ScenarioError(format!(
                    "faults: unknown key \"{other}\" (expected \"retry\" or \"faults\")"
                )))
            }
        }
    }
    Ok(plan)
}

fn parse_phase(value: &Value, index: usize) -> Result<PhaseSpec, ScenarioError> {
    let ctx = format!("phases[{index}]");
    let obj = value.as_object(&ctx)?;
    let kind = obj
        .iter()
        .find(|(k, _)| k == "kind")
        .ok_or_else(|| ScenarioError(format!("{ctx}: missing \"kind\"")))?
        .1
        .as_str(&format!("{ctx}.kind"))?;
    let f64_field = |name: &str| -> Result<f64, ScenarioError> {
        Ok(obj
            .iter()
            .find(|(k, _)| k == name)
            .ok_or_else(|| ScenarioError(format!("{ctx}: missing \"{name}\"")))?
            .1
            .as_f64(&format!("{ctx}.{name}"))?)
    };
    let u32_field = |name: &str| -> Result<u32, ScenarioError> {
        Ok(obj
            .iter()
            .find(|(k, _)| k == name)
            .ok_or_else(|| ScenarioError(format!("{ctx}: missing \"{name}\"")))?
            .1
            .as_u32(&format!("{ctx}.{name}"))?)
    };
    let known = |allowed: &[&str]| -> Result<(), ScenarioError> {
        for (k, _) in obj {
            if k != "kind"
                && k != "from_secs"
                && k != "until_secs"
                && !allowed.contains(&k.as_str())
            {
                return Err(ScenarioError(format!(
                    "{ctx}: unknown key \"{k}\" for kind \"{kind}\""
                )));
            }
        }
        Ok(())
    };
    // Optional per-phase query-rate knob (non-flash kinds): absent
    // means 1.0 (no change). flash_crowd's mandatory field of the same
    // name expresses the spike there instead.
    let opt_rate_mult = || -> Result<f64, ScenarioError> {
        match obj.iter().find(|(k, _)| k == "query_rate_mult") {
            Some((_, v)) => Ok(v.as_f64(&format!("{ctx}.query_rate_mult"))?),
            None => Ok(1.0),
        }
    };
    let from_secs = f64_field("from_secs")?;
    let until_secs = f64_field("until_secs")?;
    let mut rate_mult = 1.0;
    let kind = match kind.as_str() {
        "flash_crowd" => {
            known(&["query_rate_mult", "hot_shift"])?;
            PhaseKind::FlashCrowd {
                query_rate_mult: f64_field("query_rate_mult")?,
                hot_shift: u32_field("hot_shift")?,
            }
        }
        "churn_burst" => {
            known(&["lifespan_mult", "query_rate_mult"])?;
            rate_mult = opt_rate_mult()?;
            PhaseKind::ChurnBurst {
                lifespan_mult: f64_field("lifespan_mult")?,
            }
        }
        "mass_leave" => {
            known(&["fraction", "query_rate_mult"])?;
            rate_mult = opt_rate_mult()?;
            PhaseKind::MassLeave {
                fraction: f64_field("fraction")?,
            }
        }
        "split" => {
            known(&["fraction", "query_rate_mult"])?;
            rate_mult = opt_rate_mult()?;
            PhaseKind::Split {
                fraction: f64_field("fraction")?,
            }
        }
        other => {
            return Err(ScenarioError(format!(
                "{ctx}: unknown phase kind \"{other}\" (expected \"flash_crowd\", \
                 \"churn_burst\", \"mass_leave\", or \"split\")"
            )))
        }
    };
    Ok(PhaseSpec {
        from_secs,
        until_secs,
        rate_mult,
        kind,
    })
}

fn parse_class(value: &Value, index: usize) -> Result<CapacityClass, ScenarioError> {
    let ctx = format!("capacity_classes[{index}]");
    let obj = value.as_object(&ctx)?;
    let mut class = CapacityClass {
        weight: 1.0,
        files_mult: 1.0,
        lifespan_mult: 1.0,
    };
    for (key, val) in obj {
        let v = val.as_f64(&format!("{ctx}.{key}"))?;
        match key.as_str() {
            "weight" => class.weight = v,
            "files_mult" => class.files_mult = v,
            "lifespan_mult" => class.lifespan_mult = v,
            other => {
                return Err(ScenarioError(format!(
                    "{ctx}: unknown key \"{other}\" \
                     (expected \"weight\", \"files_mult\", or \"lifespan_mult\")"
                )))
            }
        }
    }
    Ok(class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;

    fn sample_plan() -> ScenarioPlan {
        ScenarioPlan {
            phases: vec![
                PhaseSpec {
                    rate_mult: 1.0,
                    from_secs: 300.0,
                    until_secs: 900.0,
                    kind: PhaseKind::FlashCrowd {
                        query_rate_mult: 4.0,
                        hot_shift: 17,
                    },
                },
                PhaseSpec {
                    rate_mult: 1.0,
                    from_secs: 600.0,
                    until_secs: 1200.0,
                    kind: PhaseKind::ChurnBurst {
                        lifespan_mult: 0.25,
                    },
                },
                PhaseSpec {
                    rate_mult: 1.0,
                    from_secs: 700.0,
                    until_secs: 710.0,
                    kind: PhaseKind::MassLeave { fraction: 0.3 },
                },
                PhaseSpec {
                    rate_mult: 1.0,
                    from_secs: 400.0,
                    until_secs: 800.0,
                    kind: PhaseKind::Split { fraction: 0.4 },
                },
            ],
            capacity_classes: vec![
                CapacityClass {
                    weight: 3.0,
                    files_mult: 0.1,
                    lifespan_mult: 0.5,
                },
                CapacityClass {
                    weight: 1.0,
                    files_mult: 4.0,
                    lifespan_mult: 2.0,
                },
            ],
            faults: FaultPlan {
                faults: vec![FaultSpec::MessageLoss {
                    from_secs: 100.0,
                    until_secs: 500.0,
                    drop_prob: 0.2,
                }],
                ..Default::default()
            },
            repair: RepairPolicy::Promote,
            overload: OverloadPolicy::default(),
        }
    }

    #[test]
    fn json_round_trips() {
        let plan = sample_plan();
        plan.validate().unwrap();
        let json = plan.to_json();
        let back = ScenarioPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        // And the re-rendering is byte-identical (canonical form).
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn schema_version_is_embedded_and_future_versions_rejected() {
        let json = sample_plan().to_json();
        assert!(
            json.contains(&format!("\"schema_version\": {SCENARIO_SCHEMA_VERSION}")),
            "rendered plans must carry the grammar version:\n{json}"
        );
        // Pre-versioning documents (no field) still parse.
        let legacy = "{\"phases\": [], \"repair\": \"off\"}";
        ScenarioPlan::from_json(legacy).expect("version field is optional");
        // A document stamped by a future grammar fails by name, not
        // with an unknown-key or deserialization error.
        let future = format!(
            "{{\"schema_version\": {}, \"phases\": []}}",
            SCENARIO_SCHEMA_VERSION + 1
        );
        let err = ScenarioPlan::from_json(&future).unwrap_err();
        assert!(err.0.contains("newer than this binary"), "{err}");
        assert!(
            err.0
                .contains(&format!("schema_version {}", SCENARIO_SCHEMA_VERSION + 1)),
            "{err}"
        );
    }

    #[test]
    fn empty_plan_round_trips_and_is_empty() {
        let plan = ScenarioPlan::default();
        assert!(plan.phases.is_empty() && plan.capacity_classes.is_empty());
        assert!(plan.faults.is_empty() && plan.overload.is_empty());
        let back = ScenarioPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
        assert_ne!(sample_plan(), plan);
    }

    #[test]
    fn zero_duration_phase_rejected() {
        let plan = ScenarioPlan {
            phases: vec![PhaseSpec {
                rate_mult: 1.0,
                from_secs: 100.0,
                until_secs: 100.0,
                kind: PhaseKind::MassLeave { fraction: 0.5 },
            }],
            ..Default::default()
        };
        let err = plan.validate().unwrap_err();
        assert!(err.0.contains("zero-duration"), "{err}");
    }

    #[test]
    fn same_kind_overlap_rejected_cross_kind_allowed() {
        let mk = |from: f64, until: f64, kind: PhaseKind| PhaseSpec {
            rate_mult: 1.0,
            from_secs: from,
            until_secs: until,
            kind,
        };
        let overlapping = ScenarioPlan {
            phases: vec![
                mk(0.0, 500.0, PhaseKind::Split { fraction: 0.2 }),
                mk(400.0, 900.0, PhaseKind::Split { fraction: 0.3 }),
            ],
            ..Default::default()
        };
        let err = overlapping.validate().unwrap_err();
        assert!(err.0.contains("overlapping"), "{err}");
        let cross = ScenarioPlan {
            phases: vec![
                mk(0.0, 500.0, PhaseKind::Split { fraction: 0.2 }),
                mk(
                    400.0,
                    900.0,
                    PhaseKind::FlashCrowd {
                        query_rate_mult: 2.0,
                        hot_shift: 1,
                    },
                ),
            ],
            ..Default::default()
        };
        cross.validate().unwrap();
        // Back-to-back same-kind windows are fine (half-open windows).
        let adjacent = ScenarioPlan {
            phases: vec![
                mk(0.0, 400.0, PhaseKind::Split { fraction: 0.2 }),
                mk(400.0, 900.0, PhaseKind::Split { fraction: 0.3 }),
            ],
            ..Default::default()
        };
        adjacent.validate().unwrap();
    }

    #[test]
    fn out_of_range_parameters_rejected() {
        let base = |kind| ScenarioPlan {
            phases: vec![PhaseSpec {
                rate_mult: 1.0,
                from_secs: 0.0,
                until_secs: 100.0,
                kind,
            }],
            ..Default::default()
        };
        assert!(base(PhaseKind::MassLeave { fraction: 1.5 })
            .validate()
            .is_err());
        assert!(base(PhaseKind::ChurnBurst { lifespan_mult: 0.0 })
            .validate()
            .is_err());
        assert!(base(PhaseKind::FlashCrowd {
            query_rate_mult: -1.0,
            hot_shift: 0
        })
        .validate()
        .is_err());
        let bad_class = ScenarioPlan {
            capacity_classes: vec![CapacityClass {
                weight: 0.0,
                files_mult: 1.0,
                lifespan_mult: 1.0,
            }],
            ..Default::default()
        };
        assert!(bad_class.validate().is_err());
    }

    #[test]
    fn unknown_keys_rejected_at_every_level() {
        let top = r#"{"phases": [], "bogus": 1}"#;
        assert!(ScenarioPlan::from_json(top)
            .unwrap_err()
            .0
            .contains("unknown top-level key"));
        let phase = r#"{"phases": [{"kind": "mass_leave", "from_secs": 0,
                        "until_secs": 10, "fraction": 0.1, "surprise": 2}]}"#;
        assert!(ScenarioPlan::from_json(phase)
            .unwrap_err()
            .0
            .contains("unknown key \"surprise\""));
        let class = r#"{"capacity_classes": [{"weight": 1, "speed": 9}]}"#;
        assert!(ScenarioPlan::from_json(class)
            .unwrap_err()
            .0
            .contains("unknown key \"speed\""));
        let faults = r#"{"faults": {"bogus": []}}"#;
        assert!(ScenarioPlan::from_json(faults)
            .unwrap_err()
            .0
            .contains("unknown key \"bogus\""));
        let kind = r#"{"phases": [{"kind": "earthquake", "from_secs": 0, "until_secs": 10}]}"#;
        assert!(ScenarioPlan::from_json(kind)
            .unwrap_err()
            .0
            .contains("unknown phase kind"));
        let repair = r#"{"repair": "pray"}"#;
        assert!(ScenarioPlan::from_json(repair)
            .unwrap_err()
            .0
            .contains("unknown policy"));
    }

    #[test]
    fn embedded_fault_plan_is_parsed_and_validated() {
        let text = r#"{
            "faults": {
                "retry": {"timeout_secs": 2.0, "max_retries": 1},
                "faults": [
                    {"kind": "crash_fraction", "at_secs": 50.0, "fraction": 0.25}
                ]
            }
        }"#;
        let plan = ScenarioPlan::from_json(text).unwrap();
        assert_eq!(plan.faults.faults.len(), 1);
        assert_eq!(plan.faults.retry.max_retries, 1);
        let invalid = r#"{
            "faults": {"faults": [
                {"kind": "crash_fraction", "at_secs": 50.0, "fraction": 2.0}
            ]}
        }"#;
        assert!(ScenarioPlan::from_json(invalid).is_err());
    }

    #[test]
    fn parse_errors_are_positioned() {
        let err = ScenarioPlan::from_json("{\"phases\": [").unwrap_err();
        assert!(err.0.contains("json parse error at byte"), "{err}");
    }
}
