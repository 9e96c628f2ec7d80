//! Differential scenario-campaign runner: the standing fuzz gate for
//! the two-engine determinism contract.
//!
//! A campaign fans `count` seeded scenarios across worker threads via
//! the same thread-budget cascade as every other multi-trial driver
//! ([`run_sim_trials`]), so the whole campaign — including its
//! aggregate fingerprint — is bitwise identical at any thread count.
//! Each trial seed deterministically expands into
//!
//! 1. a randomized [`ScenarioPlan`] (phased churn bursts, correlated
//!    mass leaves, split windows, flash crowds on rotated hot keys,
//!    capacity classes, an embedded fault plan, a repair policy),
//! 2. a simulation seed, fault seed, and scenario seed,
//!
//! and the scenario runs through **both** engines
//! ([`Simulation`] and [`ReferenceSimulation`]) with identical
//! options. The differential oracle then demands
//!
//! * bitwise-equal [`RawMetrics`] from the two engines (the
//!   first differing field is named in the divergence reason),
//! * query conservation ([`FaultMetrics::conserved`]
//!   — every issued query accounted exactly once) in both engines,
//! * the **extended** conservation identity when the generated plan
//!   carries an overload policy
//!   ([`OverloadMetrics::conserved`](crate::overload::OverloadMetrics::conserved)
//!   — issued = lost + delivered + shed + rejected), in both engines,
//! * sane repair/availability invariants (fractions inside `[0, 1]`).
//!
//! The two engines share their lifecycle handlers (see
//! [`crate::engine`]), so the equality checks the fast engine's
//! mechanics under each generated regime; a drifting handler moves
//! both engines alike and is caught by the fingerprint instead, which
//! CI and `tests/sim_determinism.rs` compare with its recorded seed-42
//! value.
//!
//! Because the campaign fingerprint hashes the full `RawMetrics`
//! rendering, the overload ledger (shed/reject counters, latency
//! histogram, queue timeline) folds into it automatically: a run that
//! sheds one more query than yesterday moves the nightly fingerprint.
//!
//! Every divergence carries a self-contained reproducer document
//! (seeds + full scenario JSON) so a nightly failure replays locally
//! with `spnet campaign --count 1 --seed <trial_seed>` or by feeding
//! the embedded scenario to `spnet simulate --scenario`.
//!
//! Campaigns degrade gracefully instead of all-or-nothing: a scenario
//! whose engine run *panics* is caught per trial, **quarantined** in
//! the report (with its panic message, the full plan, and a tick-0
//! engine snapshot for postmortem replay), and the rest of the
//! campaign completes. A partially-failed or preempted campaign
//! resumes from its own report via [`run_campaign_with`] /
//! `spnet campaign --resume`: scenarios the report records as
//! completed are skipped (their fingerprints are re-folded from the
//! report), everything else — including previously quarantined
//! scenarios — re-runs.
//!
//! [`FaultMetrics::conserved`]: crate::faults::FaultMetrics::conserved

use std::panic::{catch_unwind, AssertUnwindSafe};

use sp_model::config::Config;
use sp_model::faults::{FaultPlan, FaultSpec, Parser, Value};
use sp_model::overload::{BrownoutConfig, OverloadPolicy, ShedDiscipline};
use sp_model::repair::RepairPolicy;
use sp_model::scenario::{
    CapacityClass, PhaseKind, PhaseSpec, ScenarioPlan, SCENARIO_SCHEMA_VERSION,
};
use sp_model::snapshot::{fnv1a, FNV_OFFSET, FNV_PRIME};
use sp_model::trials::panic_message;
use sp_stats::SpRng;

use crate::engine::{RawMetrics, SimOptions, Simulation};
use crate::reference::ReferenceSimulation;
use crate::scenario::{run_sim_trials, SimTrialOptions};

/// Version of the campaign-report JSON this module writes; a report
/// stamped with a newer version is rejected by
/// [`CampaignResume::from_report_json`] with a named error.
pub const CAMPAIGN_SCHEMA_VERSION: u32 = 1;

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignOptions {
    /// Number of scenarios to generate and run.
    pub count: usize,
    /// Root seed; scenario `i` derives everything from the RNG split
    /// `seed → i` (same cascade as [`run_sim_trials`]).
    pub seed: u64,
    /// Worker-thread budget; 0 = one per available core.
    pub threads: usize,
    /// Simulated users per scenario (`Config::graph_size`).
    pub users: usize,
    /// Target cluster size (`Config::cluster_size`).
    pub cluster_size: usize,
    /// Simulated duration per scenario, seconds.
    pub duration_secs: f64,
    /// Test-only hook: the scenario at this index panics inside its
    /// engine run, exercising the quarantine path end to end.
    pub inject_panic: Option<usize>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            count: 32,
            seed: 42,
            threads: 0,
            users: 120,
            cluster_size: 12,
            duration_secs: 1200.0,
            inject_panic: None,
        }
    }
}

/// One scenario's campaign outcome.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario index within the campaign.
    pub index: usize,
    /// The split-derived trial seed this scenario expanded from.
    pub trial_seed: u64,
    /// Main simulation seed fed to both engines.
    pub sim_seed: u64,
    /// Dedicated fault-stream seed fed to both engines.
    pub fault_seed: u64,
    /// Dedicated scenario-stream seed fed to both engines.
    pub scenario_seed: u64,
    /// Phase kinds exercised, in declaration order.
    pub phase_kinds: Vec<&'static str>,
    /// Fault kinds of the embedded fault plan.
    pub fault_kinds: Vec<&'static str>,
    /// Number of capacity classes (0 = homogeneous).
    pub capacity_classes: usize,
    /// Repair policy the scenario healed with.
    pub repair: RepairPolicy,
    /// FNV-1a fingerprint of the fast engine's metrics.
    pub fingerprint: u64,
    /// Why the oracle rejected this scenario (`None` = passed).
    pub divergence: Option<String>,
    /// The generated plan, rendered as JSON.
    pub plan_json: String,
    /// Panic message captured by the quarantine wrapper (`None` = the
    /// engine runs completed, whatever the oracle said).
    pub panic: Option<String>,
    /// Tick-0 fast-engine snapshot of the quarantined scenario (empty
    /// unless `panic` is set, or when even snapshot construction
    /// panicked); restoring and running it replays the failure.
    pub panic_snapshot: Vec<u8>,
}

/// One oracle rejection, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Scenario index within the campaign.
    pub index: usize,
    /// The split-derived trial seed.
    pub trial_seed: u64,
    /// Main simulation seed.
    pub sim_seed: u64,
    /// Fault-stream seed.
    pub fault_seed: u64,
    /// Scenario-stream seed.
    pub scenario_seed: u64,
    /// First oracle check that failed.
    pub reason: String,
    /// The offending scenario plan, as JSON.
    pub plan_json: String,
}

impl Divergence {
    /// Renders a self-contained reproducer document: population
    /// shape, duration, the campaign seed, all three per-trial seeds,
    /// the failure reason, and the full scenario plan (stamped with
    /// the scenario grammar version so a future parser rejects it by
    /// name instead of misreading it).
    pub fn reproducer_json(&self, opts: &CampaignOptions) -> String {
        reproducer_document(
            opts,
            self.index,
            self.trial_seed,
            self.sim_seed,
            self.fault_seed,
            self.scenario_seed,
            "divergence",
            &self.reason,
            &self.plan_json,
        )
    }
}

/// One quarantined scenario: its engine run panicked, the campaign
/// caught it per trial and completed without it. Carries everything a
/// postmortem needs, including a tick-0 engine snapshot whose
/// restore-and-run replays the panic deterministically.
#[derive(Debug, Clone)]
pub struct Quarantine {
    /// Scenario index within the campaign.
    pub index: usize,
    /// The split-derived trial seed.
    pub trial_seed: u64,
    /// Main simulation seed.
    pub sim_seed: u64,
    /// Fault-stream seed.
    pub fault_seed: u64,
    /// Scenario-stream seed.
    pub scenario_seed: u64,
    /// The captured panic message.
    pub reason: String,
    /// The offending scenario plan, as JSON.
    pub plan_json: String,
    /// Tick-0 fast-engine snapshot (empty when even snapshot
    /// construction panicked).
    pub snapshot: Vec<u8>,
    /// Where the caller wrote the reproducer JSON (filled in by the
    /// CLI before the report is rendered; `None` = not written).
    pub reproducer_path: Option<String>,
    /// Where the caller wrote [`Quarantine::snapshot`] (filled in by
    /// the CLI before the report is rendered; `None` = not written).
    pub snapshot_path: Option<String>,
}

impl Quarantine {
    /// Renders the same self-contained reproducer document as
    /// [`Divergence::reproducer_json`], tagged as a quarantine.
    pub fn reproducer_json(&self, opts: &CampaignOptions) -> String {
        reproducer_document(
            opts,
            self.index,
            self.trial_seed,
            self.sim_seed,
            self.fault_seed,
            self.scenario_seed,
            "quarantine",
            &self.reason,
            &self.plan_json,
        )
    }
}

/// The shared reproducer-document renderer: population shape,
/// duration, campaign seed, per-trial seeds, grammar version, kind
/// tag, reason, and the embedded scenario plan (always the last key).
#[allow(
    clippy::too_many_arguments,
    reason = "one parameter per key of the reproducer document"
)]
fn reproducer_document(
    opts: &CampaignOptions,
    index: usize,
    trial_seed: u64,
    sim_seed: u64,
    fault_seed: u64,
    scenario_seed: u64,
    kind: &str,
    reason: &str,
    plan_json: &str,
) -> String {
    let mut s = String::with_capacity(512 + plan_json.len());
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"scenario_schema_version\": {SCENARIO_SCHEMA_VERSION},\n"
    ));
    s.push_str(&format!("  \"kind\": \"{kind}\",\n"));
    s.push_str(&format!("  \"index\": {index},\n"));
    s.push_str(&format!("  \"users\": {},\n", opts.users));
    s.push_str(&format!("  \"cluster_size\": {},\n", opts.cluster_size));
    s.push_str(&format!("  \"duration_secs\": {},\n", opts.duration_secs));
    s.push_str(&format!("  \"campaign_seed\": {},\n", opts.seed));
    s.push_str(&format!("  \"trial_seed\": {trial_seed},\n"));
    s.push_str(&format!("  \"sim_seed\": {sim_seed},\n"));
    s.push_str(&format!("  \"fault_seed\": {fault_seed},\n"));
    s.push_str(&format!("  \"scenario_seed\": {scenario_seed},\n"));
    s.push_str(&format!("  \"reason\": {},\n", json_string(reason)));
    s.push_str("  \"scenario\": ");
    indent_embedded(&mut s, plan_json);
    s.push_str("\n}\n");
    s
}

/// Aggregated campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The options the campaign ran with.
    pub options: CampaignOptions,
    /// Scenarios run (equals `options.count`).
    pub scenarios: usize,
    /// Phase windows exercised per kind, `(kind, count)` sorted by
    /// kind name.
    pub phases_covered: Vec<(&'static str, u64)>,
    /// Fault specs exercised per kind, sorted by kind name.
    pub faults_covered: Vec<(&'static str, u64)>,
    /// Scenarios per repair policy, in [`RepairPolicy::ALL`] order.
    pub repair_covered: Vec<(&'static str, u64)>,
    /// Order-sensitive FNV-1a fold of every completed scenario's
    /// fingerprint (quarantined scenarios contribute nothing) —
    /// bitwise identical across thread counts and the value the CI
    /// smoke pins.
    pub fingerprint: u64,
    /// Oracle rejections (empty = green).
    pub divergences: Vec<Divergence>,
    /// Scenarios whose engine runs panicked; the rest of the campaign
    /// completed without them (empty = nothing quarantined).
    pub quarantined: Vec<Quarantine>,
    /// Green scenarios — ran to completion AND passed the oracle —
    /// recorded `(index, trial_seed, fingerprint)` so a resumed
    /// campaign can skip them and re-fold their fingerprints.
    pub completed: Vec<CompletedScenario>,
}

/// One green scenario recorded in a report for `--resume`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedScenario {
    /// Scenario index within the campaign.
    pub index: usize,
    /// The split-derived trial seed (verified on resume; a mismatch
    /// means the report belongs to different options and the scenario
    /// is re-run instead of skipped).
    pub trial_seed: u64,
    /// The scenario's metrics fingerprint, re-folded on resume.
    pub fingerprint: u64,
}

impl CampaignReport {
    /// One-line summary for terminals and smoke greps.
    pub fn summary_line(&self) -> String {
        format!(
            "campaign: {} scenarios, seed {}, fingerprint {:#018x}, divergences {}, \
             quarantined {}",
            self.scenarios,
            self.options.seed,
            self.fingerprint,
            self.divergences.len(),
            self.quarantined.len()
        )
    }

    /// Renders the machine-readable campaign report.
    ///
    /// Trial seeds and fingerprints inside `completed` are hex
    /// *strings*: the workspace's hand-rolled JSON reader holds
    /// numbers as `f64`, which cannot round-trip full 64-bit seeds.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"schema_version\": {CAMPAIGN_SCHEMA_VERSION},\n"
        ));
        s.push_str(&format!("  \"scenarios\": {},\n", self.scenarios));
        s.push_str(&format!("  \"seed\": {},\n", self.options.seed));
        s.push_str(&format!("  \"seed_hex\": \"{:#x}\",\n", self.options.seed));
        s.push_str(&format!("  \"users\": {},\n", self.options.users));
        s.push_str(&format!(
            "  \"cluster_size\": {},\n",
            self.options.cluster_size
        ));
        s.push_str(&format!(
            "  \"duration_secs\": {},\n",
            self.options.duration_secs
        ));
        s.push_str(&format!(
            "  \"fingerprint\": \"{:#018x}\",\n",
            self.fingerprint
        ));
        let counts = |pairs: &[(&'static str, u64)]| -> String {
            let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("{{{}}}", body.join(", "))
        };
        s.push_str(&format!(
            "  \"phases_covered\": {},\n",
            counts(&self.phases_covered)
        ));
        s.push_str(&format!(
            "  \"faults_covered\": {},\n",
            counts(&self.faults_covered)
        ));
        s.push_str(&format!(
            "  \"repair_covered\": {},\n",
            counts(&self.repair_covered)
        ));
        s.push_str("  \"completed\": [");
        for (i, c) in self.completed.iter().enumerate() {
            let sep = if i + 1 < self.completed.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!(
                "\n    {{\"index\": {}, \"trial_seed\": \"{:#x}\", \
                 \"fingerprint\": \"{:#018x}\"}}{sep}",
                c.index, c.trial_seed, c.fingerprint
            ));
        }
        if !self.completed.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str("  \"quarantined\": [");
        for (i, q) in self.quarantined.iter().enumerate() {
            let sep = if i + 1 < self.quarantined.len() {
                ","
            } else {
                ""
            };
            let opt = |p: &Option<String>| match p {
                Some(path) => json_string(path),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "\n    {{\"index\": {}, \"trial_seed\": \"{:#x}\", \"reason\": {}, \
                 \"reproducer\": {}, \"snapshot\": {}}}{sep}",
                q.index,
                q.trial_seed,
                json_string(&q.reason),
                opt(&q.reproducer_path),
                opt(&q.snapshot_path)
            ));
        }
        if !self.quarantined.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str("  \"divergences\": [");
        for (i, d) in self.divergences.iter().enumerate() {
            let sep = if i + 1 < self.divergences.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!(
                "\n    {{\"index\": {}, \"trial_seed\": {}, \"reason\": {}}}{sep}",
                d.index,
                d.trial_seed,
                json_string(&d.reason)
            ));
        }
        if !self.divergences.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Resume state parsed from a previous campaign report: the options
/// the campaign ran with and which scenarios it completed.
#[derive(Debug, Clone)]
pub struct CampaignResume {
    /// Scenario count of the original campaign.
    pub count: usize,
    /// Campaign seed of the original campaign.
    pub seed: u64,
    /// Users per scenario of the original campaign.
    pub users: usize,
    /// Cluster size of the original campaign.
    pub cluster_size: usize,
    /// Per-scenario duration of the original campaign, seconds.
    pub duration_secs: f64,
    /// Scenarios the report records as green.
    pub completed: Vec<CompletedScenario>,
}

impl CampaignResume {
    /// Parses a report written by [`CampaignReport::to_json`]. Reports
    /// stamped with a newer [`CAMPAIGN_SCHEMA_VERSION`] are rejected
    /// by name; missing fields and malformed values name the field.
    pub fn from_report_json(text: &str) -> Result<CampaignResume, String> {
        let doc = Parser::new(text)
            .parse_document()
            .map_err(|e| format!("campaign report: {e}"))?;
        let root = doc.as_object("campaign report").map_err(|e| e.0)?;
        let hex = |raw: &str, ctx: &str| -> Result<u64, String> {
            let digits = raw
                .strip_prefix("0x")
                .ok_or_else(|| format!("{ctx}: expected a 0x-prefixed hex string, got {raw:?}"))?;
            u64::from_str_radix(digits, 16).map_err(|e| format!("{ctx}: {e}"))
        };
        let mut count = None;
        let mut seed = None;
        let mut seed_hex = None;
        let mut users = None;
        let mut cluster_size = None;
        let mut duration_secs = None;
        let mut completed = Vec::new();
        for (key, val) in root {
            match key.as_str() {
                "schema_version" => {
                    let version = val.as_u32("schema_version").map_err(|e| e.0)?;
                    if version > CAMPAIGN_SCHEMA_VERSION {
                        return Err(format!(
                            "campaign report schema_version {version} is newer than this \
                             binary's {CAMPAIGN_SCHEMA_VERSION}; upgrade spnet to resume it"
                        ));
                    }
                }
                "scenarios" => {
                    count = Some(val.as_u32("scenarios").map_err(|e| e.0)? as usize);
                }
                "seed" => seed = Some(val.as_f64("seed").map_err(|e| e.0)? as u64),
                "seed_hex" => {
                    seed_hex = Some(hex(&val.as_str("seed_hex").map_err(|e| e.0)?, "seed_hex")?);
                }
                "users" => users = Some(val.as_u32("users").map_err(|e| e.0)? as usize),
                "cluster_size" => {
                    cluster_size = Some(val.as_u32("cluster_size").map_err(|e| e.0)? as usize);
                }
                "duration_secs" => {
                    duration_secs = Some(val.as_f64("duration_secs").map_err(|e| e.0)?);
                }
                "completed" => {
                    for (i, item) in val
                        .as_array("completed")
                        .map_err(|e| e.0)?
                        .iter()
                        .enumerate()
                    {
                        let ctx = format!("completed[{i}]");
                        let obj = item.as_object(&ctx).map_err(|e| e.0)?;
                        let field = |name: &str| -> Result<&Value, String> {
                            obj.iter()
                                .find(|(k, _)| k == name)
                                .map(|(_, v)| v)
                                .ok_or_else(|| format!("{ctx}: missing \"{name}\""))
                        };
                        completed.push(CompletedScenario {
                            index: field("index")?.as_u32(&ctx).map_err(|e| e.0)? as usize,
                            trial_seed: hex(
                                &field("trial_seed")?.as_str(&ctx).map_err(|e| e.0)?,
                                &ctx,
                            )?,
                            fingerprint: hex(
                                &field("fingerprint")?.as_str(&ctx).map_err(|e| e.0)?,
                                &ctx,
                            )?,
                        });
                    }
                }
                // Coverage tables, fingerprint, divergences, and any
                // future additions are not needed to resume.
                _ => {}
            }
        }
        Ok(CampaignResume {
            count: count.ok_or("campaign report: missing \"scenarios\"")?,
            // The hex spelling is authoritative (numbers above 2^53
            // lose bits through the f64-backed reader); the decimal
            // field keeps old reports and jq pipelines working.
            seed: seed_hex
                .or(seed)
                .ok_or("campaign report: missing \"seed\"")?,
            users: users.ok_or("campaign report: missing \"users\"")?,
            cluster_size: cluster_size.ok_or("campaign report: missing \"cluster_size\"")?,
            duration_secs: duration_secs.ok_or("campaign report: missing \"duration_secs\"")?,
            completed,
        })
    }

    /// The [`CampaignOptions`] equivalent to the original run's
    /// (thread budget and test hooks are the caller's choice — they
    /// never affect results).
    pub fn options(&self, threads: usize) -> CampaignOptions {
        CampaignOptions {
            count: self.count,
            seed: self.seed,
            threads,
            users: self.users,
            cluster_size: self.cluster_size,
            duration_secs: self.duration_secs,
            inject_panic: None,
        }
    }
}

/// Runs a differential campaign (see module docs).
pub fn run_campaign(opts: &CampaignOptions) -> CampaignReport {
    run_campaign_with(opts, None)
}

/// Runs a differential campaign, optionally resuming a previous one:
/// scenarios the resume state records as green are skipped (their
/// stored fingerprints re-fold into the campaign fingerprint, so a
/// resumed all-green campaign reports the same fingerprint as an
/// uninterrupted one), everything else — never-run, divergent, and
/// previously quarantined scenarios — runs normally. A completed
/// record whose trial seed does not match the seed this campaign
/// derives for that index belongs to different options and is ignored
/// (the scenario re-runs).
pub fn run_campaign_with(
    opts: &CampaignOptions,
    resume: Option<&CampaignResume>,
) -> CampaignReport {
    let config = Config {
        graph_size: opts.users,
        cluster_size: opts.cluster_size,
        ..Config::default()
    };
    let trial_opts = SimTrialOptions {
        trials: opts.count,
        seed: opts.seed,
        threads: opts.threads,
        repair: RepairPolicy::Off,
        kind: "campaign",
    };
    // Map index → stored fingerprint for records that pass the
    // trial-seed consistency check (same derivation as
    // `run_sim_trials`, so a report from different options skips
    // nothing instead of poisoning the fold).
    #[allow(
        clippy::disallowed_methods,
        reason = "R1b seed root: trial seeds, derived as run_sim_trials does"
    )]
    let root = SpRng::seed_from_u64(opts.seed);
    let skip: std::collections::BTreeMap<usize, u64> = resume
        .map(|r| {
            r.completed
                .iter()
                .filter(|c| c.index < opts.count)
                .filter(|c| root.split(c.index as u64).next_raw() == c.trial_seed)
                .map(|c| (c.index, c.fingerprint))
                .collect()
        })
        .unwrap_or_default();
    let duration = opts.duration_secs;
    let inject = opts.inject_panic;
    let outcomes = run_sim_trials(&trial_opts, |trial_seed, index| {
        run_one(
            &config,
            duration,
            trial_seed,
            index,
            skip.get(&index).copied(),
            inject,
        )
    });

    let mut phases: Vec<(&'static str, u64)> = Vec::new();
    let mut faults: Vec<(&'static str, u64)> = Vec::new();
    let mut repairs: Vec<(&'static str, u64)> = RepairPolicy::ALL
        .iter()
        .map(|p| (policy_name(*p), 0))
        .collect();
    let mut fingerprint = FNV_OFFSET;
    let mut divergences = Vec::new();
    let mut quarantined = Vec::new();
    let mut completed = Vec::new();
    for o in &outcomes {
        if let Some(reason) = &o.panic {
            quarantined.push(Quarantine {
                index: o.index,
                trial_seed: o.trial_seed,
                sim_seed: o.sim_seed,
                fault_seed: o.fault_seed,
                scenario_seed: o.scenario_seed,
                reason: reason.clone(),
                plan_json: o.plan_json.clone(),
                snapshot: o.panic_snapshot.clone(),
                reproducer_path: None,
                snapshot_path: None,
            });
            continue;
        }
        for k in &o.phase_kinds {
            bump(&mut phases, k);
        }
        for k in &o.fault_kinds {
            bump(&mut faults, k);
        }
        if let Some(slot) = repairs
            .iter_mut()
            .find(|(name, _)| *name == policy_name(o.repair))
        {
            slot.1 += 1;
        }
        fingerprint = fnv_fold(fingerprint, o.fingerprint);
        if let Some(reason) = &o.divergence {
            divergences.push(Divergence {
                index: o.index,
                trial_seed: o.trial_seed,
                sim_seed: o.sim_seed,
                fault_seed: o.fault_seed,
                scenario_seed: o.scenario_seed,
                reason: reason.clone(),
                plan_json: o.plan_json.clone(),
            });
        } else {
            completed.push(CompletedScenario {
                index: o.index,
                trial_seed: o.trial_seed,
                fingerprint: o.fingerprint,
            });
        }
    }
    phases.sort_unstable();
    faults.sort_unstable();
    CampaignReport {
        options: *opts,
        scenarios: outcomes.len(),
        phases_covered: phases,
        faults_covered: faults,
        repair_covered: repairs,
        fingerprint,
        divergences,
        quarantined,
        completed,
    }
}

/// Expands one trial seed into a scenario, runs both engines, and
/// applies the differential oracle. A `completed_fingerprint` from a
/// resume skips the engine runs (the plan is still regenerated — RNG
/// only — so coverage tables stay exact); a panic in either engine is
/// caught and reported as a quarantine outcome instead of unwinding
/// the campaign.
fn run_one(
    config: &Config,
    duration: f64,
    trial_seed: u64,
    index: usize,
    completed_fingerprint: Option<u64>,
    inject: Option<usize>,
) -> ScenarioOutcome {
    #[allow(
        clippy::disallowed_methods,
        reason = "R1b seed root: one scenario plan per trial seed"
    )]
    let mut rng = SpRng::seed_from_u64(trial_seed);
    let plan = generate_plan(&mut rng, config, duration);
    let sim_seed = rng.next_raw();
    let fault_seed = rng.next_raw();
    let scenario_seed = rng.next_raw();
    let opts = SimOptions {
        duration_secs: duration,
        seed: sim_seed,
        fault_seed,
        scenario_seed,
        ..SimOptions::default()
    };
    let base = |fingerprint: u64,
                divergence: Option<String>,
                panic: Option<String>,
                panic_snapshot: Vec<u8>| ScenarioOutcome {
        index,
        trial_seed,
        sim_seed,
        fault_seed,
        scenario_seed,
        phase_kinds: plan.phases.iter().map(|p| p.kind.kind_name()).collect(),
        fault_kinds: plan
            .faults
            .faults
            .iter()
            .map(FaultSpec::kind_name)
            .collect(),
        capacity_classes: plan.capacity_classes.len(),
        repair: plan.repair,
        fingerprint,
        divergence,
        plan_json: plan.to_json(),
        panic,
        panic_snapshot,
    };
    if let Some(fp) = completed_fingerprint {
        return base(fp, None, None, Vec::new());
    }
    match catch_unwind(AssertUnwindSafe(|| {
        if inject == Some(index) {
            panic!("injected campaign panic (test hook) at scenario {index}");
        }
        let fast = Simulation::with_scenario(config, opts, &plan).run();
        let reference = ReferenceSimulation::with_scenario(config, opts, &plan).run();
        (fast, reference)
    })) {
        Ok((fast, reference)) => {
            let divergence = oracle(&fast, &reference, !plan.overload.is_empty());
            base(fingerprint(&fast), divergence, None, Vec::new())
        }
        Err(payload) => {
            let reason = panic_message(payload.as_ref()).to_string();
            // Best-effort tick-0 snapshot for postmortem replay; if
            // even construction panics, quarantine with what we have.
            let snapshot = catch_unwind(AssertUnwindSafe(|| {
                Simulation::with_scenario(config, opts, &plan).snapshot()
            }))
            .unwrap_or_default();
            base(0, None, Some(reason), snapshot)
        }
    }
}

/// The differential oracle: engine equality, conservation, and range
/// invariants. With an active overload policy the extended identity
/// (issued = lost + delivered + shed + rejected) is demanded too.
/// Returns the first failure's description.
fn oracle(fast: &RawMetrics, reference: &RawMetrics, overload_active: bool) -> Option<String> {
    if fast != reference {
        return Some(describe_divergence(fast, reference));
    }
    if !fast.faults.conserved() {
        return Some(format!(
            "fast engine violates query conservation: issued {} != direct {} + retry {} \
             + failover {} + lost {}",
            fast.faults.queries_issued,
            fast.faults.answered_direct,
            fast.faults.recovered_retry,
            fast.faults.recovered_failover,
            fast.faults.queries_lost
        ));
    }
    if !reference.faults.conserved() {
        return Some("reference engine violates query conservation".to_string());
    }
    if overload_active {
        if !fast
            .overload
            .conserved(fast.faults.queries_issued, fast.faults.queries_lost)
        {
            return Some(format!(
                "fast engine violates extended overload conservation: issued {} != \
                 lost {} + delivered {} + shed {} + rejected {}",
                fast.faults.queries_issued,
                fast.faults.queries_lost,
                fast.overload.delivered,
                fast.overload.shed_discipline
                    + fast.overload.shed_dead
                    + fast.overload.shed_residual,
                fast.overload.rejected_queue + fast.overload.rejected_budget
            ));
        }
        if !reference.overload.conserved(
            reference.faults.queries_issued,
            reference.faults.queries_lost,
        ) {
            return Some("reference engine violates extended overload conservation".to_string());
        }
    }
    let avail = fast.availability();
    if !(0.0..=1.0).contains(&avail) {
        return Some(format!("availability out of range: {avail}"));
    }
    let reach = fast.repair.final_reachable_fraction;
    if !(0.0..=1.0).contains(&reach) {
        return Some(format!("final_reachable_fraction out of range: {reach}"));
    }
    None
}

/// Names the first differing metrics field so a nightly log localizes
/// the divergence without a debugger.
fn describe_divergence(fast: &RawMetrics, reference: &RawMetrics) -> String {
    let field = if fast.queries != reference.queries {
        format!("queries ({} vs {})", fast.queries, reference.queries)
    } else if fast.cluster_failures != reference.cluster_failures {
        format!(
            "cluster_failures ({} vs {})",
            fast.cluster_failures, reference.cluster_failures
        )
    } else if fast.orphan_events != reference.orphan_events {
        format!(
            "orphan_events ({} vs {})",
            fast.orphan_events, reference.orphan_events
        )
    } else if fast.faults != reference.faults {
        "faults (injection/recovery counters)".to_string()
    } else if fast.repair != reference.repair {
        "repair (promotion/reachability accounting)".to_string()
    } else if fast.overload != reference.overload {
        "overload (queue/shed/brownout ledger)".to_string()
    } else if fast.timeline != reference.timeline {
        "timeline samples".to_string()
    } else if fast.client_connected_secs.to_bits() != reference.client_connected_secs.to_bits() {
        format!(
            "client_connected_secs ({} vs {})",
            fast.client_connected_secs, reference.client_connected_secs
        )
    } else {
        "load statistics".to_string()
    };
    format!("engines diverge on {field}")
}

/// Generates a randomized-but-valid scenario plan from a dedicated
/// generator stream. Same-kind windows are laid out behind a per-kind
/// cursor, so the plan always validates; everything lands inside
/// `[5%, 95%]` of the run so bootstrap and final accounting stay
/// exercised. Phases occasionally carry a query-rate multiplier and
/// about a third of plans carry an overload policy (half the
/// capacity-sized preset, half fully randomized knobs), so the
/// differential gate fuzzes the overload ledger alongside churn,
/// faults, and repair.
fn generate_plan(rng: &mut SpRng, config: &Config, duration: f64) -> ScenarioPlan {
    let span = |rng: &mut SpRng, lo: f64, hi: f64| lo + rng.unit_f64() * (hi - lo);
    let mut plan = ScenarioPlan::default();

    // Phases: up to four, kinds drawn independently.
    let mut cursors = [duration * 0.05; 4];
    let want_phases = rng.index(5);
    for _ in 0..want_phases {
        let kind_idx = rng.index(4);
        let from = cursors[kind_idx] + span(rng, 0.02, 0.10) * duration;
        let until = from + span(rng, 0.05, 0.20) * duration;
        if until > duration * 0.95 {
            continue; // ran off the end of the run; skip this window
        }
        cursors[kind_idx] = until;
        let kind = match kind_idx {
            0 => PhaseKind::FlashCrowd {
                query_rate_mult: span(rng, 1.5, 6.0),
                hot_shift: rng.index(1024) as u32,
            },
            1 => PhaseKind::ChurnBurst {
                lifespan_mult: span(rng, 0.2, 0.9),
            },
            2 => PhaseKind::MassLeave {
                fraction: span(rng, 0.05, 0.4),
            },
            _ => PhaseKind::Split {
                fraction: span(rng, 0.1, 0.5),
            },
        };
        // A quarter of the non-flash-crowd windows also scale the raw
        // query arrival rate — the overload pressure knob. FlashCrowd
        // expresses its spike through its own query_rate_mult, and the
        // DSL rejects a second multiplier there.
        let rate_mult = if !matches!(kind, PhaseKind::FlashCrowd { .. }) && rng.chance(0.25) {
            span(rng, 0.5, 4.0)
        } else {
            1.0
        };
        plan.phases.push(PhaseSpec {
            rate_mult,
            from_secs: from,
            until_secs: until,
            kind,
        });
    }

    // Capacity classes: up to three.
    for _ in 0..rng.index(4) {
        plan.capacity_classes.push(CapacityClass {
            weight: span(rng, 1.0, 5.0),
            files_mult: span(rng, 0.1, 4.0),
            lifespan_mult: span(rng, 0.5, 2.0),
        });
    }

    // Embedded faults: each family joins with its own probability.
    let mut faults = FaultPlan::default();
    if rng.chance(0.5) {
        faults.faults.push(FaultSpec::CrashFraction {
            at_secs: span(rng, 0.2, 0.6) * duration,
            fraction: span(rng, 0.1, 0.35),
        });
    }
    if rng.chance(0.4) {
        let from = span(rng, 0.1, 0.5) * duration;
        faults.faults.push(FaultSpec::MessageLoss {
            from_secs: from,
            until_secs: from + span(rng, 0.1, 0.3) * duration,
            drop_prob: span(rng, 0.05, 0.3),
        });
    }
    if rng.chance(0.3) {
        let from = span(rng, 0.1, 0.5) * duration;
        faults.faults.push(FaultSpec::FlakyPartners {
            from_secs: from,
            until_secs: from + span(rng, 0.1, 0.3) * duration,
            flake_prob: span(rng, 0.1, 0.5),
        });
    }
    plan.faults = faults;
    plan.repair = RepairPolicy::ALL[rng.index(RepairPolicy::ALL.len())];

    // Overload control joins about a third of the plans. Half of those
    // use the capacity-model preset (the configuration the benchmark
    // and CLI recommend); the rest randomize every knob inside its
    // valid range so the shed disciplines, budget, brownout hysteresis,
    // and re-homing all see fuzz coverage.
    if rng.chance(0.35) {
        plan.overload = if rng.chance(0.5) {
            OverloadPolicy::sized_for(config)
        } else {
            let service_rate = config.cluster_size as f64 * config.query_rate * span(rng, 1.0, 4.0);
            let discipline = match rng.index(3) {
                0 => ShedDiscipline::RejectAtAdmission,
                1 => ShedDiscipline::DropOldest,
                _ => ShedDiscipline::DropLowestTtl,
            };
            let with_budget = rng.chance(0.5);
            let brownout = if rng.chance(0.5) {
                let exit = span(rng, 0.1, 1.0);
                Some(BrownoutConfig {
                    enter_backlog_secs: exit + span(rng, 0.5, 3.0),
                    exit_backlog_secs: exit,
                    min_dwell_secs: span(rng, 1.0, 20.0),
                    ttl_decrement: rng.index(4) as u16,
                    fanout_limit: 1 + rng.index(6) as u32,
                })
            } else {
                None
            };
            OverloadPolicy {
                service_rate,
                // 0 = measure-only (unbounded queue): the uncontrolled
                // baseline must survive the differential gate too.
                queue_capacity: if rng.chance(0.15) {
                    0
                } else {
                    2 + rng.index(30) as u32
                },
                discipline,
                client_tokens_per_sec: if with_budget {
                    config.query_rate * span(rng, 2.0, 20.0)
                } else {
                    0.0
                },
                client_token_burst: if with_budget {
                    span(rng, 1.0, 6.0)
                } else {
                    0.0
                },
                brownout,
                rehome_strikes: if rng.chance(0.4) {
                    1 + rng.index(8) as u32
                } else {
                    0
                },
            }
        };
    }
    plan.validate().expect("generated plan must validate");
    plan
}

/// FNV-1a over a run's full metrics (the derived `Debug` rendering is
/// deterministic, including shortest-round-trip float formatting, so
/// the fingerprint moves iff any field's bits move).
fn fingerprint(metrics: &RawMetrics) -> u64 {
    fnv1a(format!("{metrics:?}").as_bytes())
}

/// Folds one scenario fingerprint into the campaign fingerprint
/// (order-sensitive, so a swapped result would be caught too).
fn fnv_fold(acc: u64, fp: u64) -> u64 {
    let mut h = acc;
    for b in fp.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn policy_name(p: RepairPolicy) -> &'static str {
    match p {
        RepairPolicy::Off => "off",
        RepairPolicy::Promote => "promote",
        RepairPolicy::PromotePartner => "promote+partner",
    }
}

fn bump(counts: &mut Vec<(&'static str, u64)>, key: &'static str) {
    if let Some(slot) = counts.iter_mut().find(|(k, _)| *k == key) {
        slot.1 += 1;
    } else {
        counts.push((key, 1));
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Appends an embedded JSON document, indenting continuation lines two
/// spaces so the enclosing document stays readable.
fn indent_embedded(out: &mut String, doc: &str) {
    for (i, line) in doc.trim_end().lines().enumerate() {
        if i > 0 {
            out.push_str("\n  ");
        }
        out.push_str(line);
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_validate_and_vary() {
        let config = Config::default();
        let mut distinct = std::collections::BTreeSet::new();
        let (mut with_overload, mut with_rate_mult) = (0usize, 0usize);
        for seed in 0..64 {
            let mut rng = SpRng::seed_from_u64(seed);
            let plan = generate_plan(&mut rng, &config, 1200.0);
            plan.validate().expect("generator must emit valid plans");
            if !plan.overload.is_empty() {
                plan.overload
                    .validate()
                    .expect("generated policy validates");
                with_overload += 1;
            }
            with_rate_mult += plan.phases.iter().filter(|p| p.rate_mult != 1.0).count();
            distinct.insert(plan.to_json());
        }
        assert!(distinct.len() > 32, "plans must vary with the seed");
        assert!(with_overload > 8, "overload policies must see coverage");
        assert!(with_rate_mult > 4, "rate multipliers must see coverage");
    }

    #[test]
    fn small_campaign_is_green_and_thread_invariant() {
        let opts = CampaignOptions {
            count: 4,
            seed: 7,
            threads: 1,
            users: 60,
            cluster_size: 10,
            duration_secs: 400.0,
            inject_panic: None,
        };
        let one = run_campaign(&opts);
        assert_eq!(one.scenarios, 4);
        assert!(
            one.divergences.is_empty(),
            "oracle rejected: {:?}",
            one.divergences
        );
        let four = run_campaign(&CampaignOptions { threads: 4, ..opts });
        assert_eq!(
            one.fingerprint, four.fingerprint,
            "campaign fingerprint must be thread-count invariant"
        );
        let report = one.to_json();
        assert!(report.contains("\"divergences\": []"));
        assert!(report.contains("\"fingerprint\""));
    }

    #[test]
    fn oracle_names_the_first_differing_field() {
        let a = RawMetrics::default();
        let b = RawMetrics {
            queries: 5,
            ..RawMetrics::default()
        };
        let reason = oracle(&a, &b, false).expect("must diverge");
        assert!(reason.contains("queries (0 vs 5)"), "got: {reason}");
        assert_eq!(oracle(&a, &a, false), None);
        // Same bitwise metrics, fault ledger balanced, but an
        // unbalanced overload ledger: the extended identity fires only
        // when a policy was active.
        let mut c = RawMetrics::default();
        c.faults.queries_issued = 10;
        c.faults.answered_direct = 10;
        c.overload.delivered = 9;
        assert_eq!(oracle(&c, &c, false), None);
        let reason = oracle(&c, &c, true).expect("extended conservation must fire");
        assert!(
            reason.contains("extended overload conservation"),
            "got: {reason}"
        );
    }

    #[test]
    fn reproducer_json_embeds_the_scenario() {
        let d = Divergence {
            index: 3,
            trial_seed: 1,
            sim_seed: 2,
            fault_seed: 3,
            scenario_seed: 4,
            reason: "engines diverge on \"queries\"".to_string(),
            plan_json: ScenarioPlan::default().to_json(),
        };
        let doc = d.reproducer_json(&CampaignOptions::default());
        assert!(doc.contains("\"scenario\": {"));
        assert!(doc.contains("\\\"queries\\\""));
        assert!(
            doc.contains(&format!(
                "\"scenario_schema_version\": {SCENARIO_SCHEMA_VERSION}"
            )),
            "reproducers must name the scenario schema they embed"
        );
        assert!(
            doc.contains("\"campaign_seed\""),
            "reproducers must carry the campaign seed"
        );
        // The embedded plan must parse back.
        let start = doc.find("\"scenario\": ").expect("embedded") + "\"scenario\": ".len();
        let embedded: String = doc[start..doc.rfind('}').expect("closing")].to_string();
        ScenarioPlan::from_json(&embedded).expect("embedded plan parses");
    }

    #[test]
    fn injected_panic_is_quarantined_not_fatal() {
        let opts = CampaignOptions {
            count: 3,
            seed: 11,
            threads: 1,
            users: 60,
            cluster_size: 10,
            duration_secs: 300.0,
            inject_panic: Some(1),
        };
        let report = run_campaign(&opts);
        assert_eq!(report.scenarios, 3);
        assert_eq!(report.quarantined.len(), 1, "one scenario must quarantine");
        let q = &report.quarantined[0];
        assert_eq!(q.index, 1);
        assert!(
            q.reason.contains("injected campaign panic"),
            "got: {}",
            q.reason
        );
        assert!(
            !q.snapshot.is_empty(),
            "quarantine must capture a tick-0 snapshot"
        );
        // The other two scenarios complete normally.
        assert_eq!(report.completed.len(), 2);
        // The quarantined scenario contributes nothing to the fold:
        // the same campaign minus scenario 1 folds identically.
        let clean = run_campaign(&CampaignOptions {
            inject_panic: None,
            ..opts
        });
        assert_ne!(report.fingerprint, clean.fingerprint);
        let json = report.to_json();
        assert!(json.contains("\"quarantined\": ["));
        assert!(json.contains("injected campaign panic"));
        // Quarantine reproducers parse back like divergence ones.
        let doc = q.reproducer_json(&opts);
        assert!(doc.contains("\"kind\": \"quarantine\""));
        let start = doc.find("\"scenario\": ").expect("embedded") + "\"scenario\": ".len();
        ScenarioPlan::from_json(&doc[start..doc.rfind('}').expect("closing")])
            .expect("embedded plan parses");
    }

    #[test]
    fn resume_skips_completed_and_reproduces_the_fingerprint() {
        let opts = CampaignOptions {
            count: 4,
            seed: 9,
            threads: 1,
            users: 60,
            cluster_size: 10,
            duration_secs: 300.0,
            inject_panic: None,
        };
        let full = run_campaign(&opts);
        assert_eq!(full.completed.len(), 4);
        // Simulate an interrupted campaign: only the first two
        // scenarios were recorded as green.
        let partial = CampaignResume {
            count: opts.count,
            seed: opts.seed,
            users: opts.users,
            cluster_size: opts.cluster_size,
            duration_secs: opts.duration_secs,
            completed: full.completed[..2].to_vec(),
        };
        let resumed = run_campaign_with(&opts, Some(&partial));
        assert_eq!(
            resumed.fingerprint, full.fingerprint,
            "resumed campaign must reproduce the uninterrupted fingerprint"
        );
        assert_eq!(resumed.completed, full.completed);
        // A resume record whose trial seed doesn't match this
        // campaign's derivation is ignored, not folded.
        let alien = CampaignResume {
            completed: vec![CompletedScenario {
                index: 0,
                trial_seed: 0xdead_beef,
                fingerprint: 42,
            }],
            ..partial
        };
        let rerun = run_campaign_with(&opts, Some(&alien));
        assert_eq!(
            rerun.fingerprint, full.fingerprint,
            "mismatched resume records must re-run, not poison the fold"
        );
    }

    #[test]
    fn campaign_report_round_trips_through_resume_parser() {
        let opts = CampaignOptions {
            count: 3,
            seed: u64::MAX - 5, // exercises the hex path: not f64-exact
            threads: 1,
            users: 60,
            cluster_size: 10,
            duration_secs: 300.0,
            inject_panic: None,
        };
        let report = run_campaign(&opts);
        let resume = CampaignResume::from_report_json(&report.to_json()).expect("parses");
        assert_eq!(resume.count, 3);
        assert_eq!(
            resume.seed,
            u64::MAX - 5,
            "seed_hex must round-trip exactly"
        );
        assert_eq!(resume.users, 60);
        assert_eq!(resume.cluster_size, 10);
        assert_eq!(resume.duration_secs, 300.0);
        assert_eq!(resume.completed, report.completed);
        let resumed = run_campaign_with(&resume.options(1), Some(&resume));
        assert_eq!(resumed.fingerprint, report.fingerprint);
    }

    #[test]
    fn future_campaign_schema_versions_are_rejected_by_name() {
        let future = format!(
            "{{\n  \"schema_version\": {},\n  \"scenarios\": 1,\n  \"seed\": 1\n}}\n",
            CAMPAIGN_SCHEMA_VERSION + 1
        );
        let err = CampaignResume::from_report_json(&future).expect_err("must reject");
        assert!(
            err.contains("newer than this binary's"),
            "rejection must name the version gap: {err}"
        );
        assert!(CampaignResume::from_report_json("not json").is_err());
    }
}
