//! The `spnet` subcommands.

use sp_core::design::procedure::EvalOptions;
use sp_core::design::{design, DesignConstraints, DesignGoals};
use sp_core::experiments::{cluster_sweep, epl_table, Fidelity};
use sp_core::model::config::{Config, GraphType};
use sp_core::model::faults::FaultPlan;
use sp_core::model::overload::OverloadPolicy;
use sp_core::model::repair::RepairPolicy;
use sp_core::model::scenario::ScenarioPlan;
use sp_core::model::snapshot::{SnapReader, SnapshotError, ENGINE_FAST, ENGINE_SCALE};
use sp_core::model::trials::{resolve_thread_budget, TrialOptions};
use sp_core::report::{ci, sci, Table};
use sp_core::sim::campaign::{run_campaign_with, CampaignOptions, CampaignResume};
use sp_core::sim::engine::{RawMetrics, SimOptions, Simulation};
use sp_core::sim::scenario::{
    crash_storm, crash_storm_trials, reliability, steady_trials, CrashStormReport, SimReport,
    SimTrialOptions,
};
use sp_core::sim::shard::{ScaleMetrics, ScaleOptions, ShardFailure, ShardedSimulation};
use sp_core::{Load, NetworkBuilder};

use crate::args::{ArgError, Args};
use crate::error::CliError;
use crate::usage::{self, CommandUsage, THREADS_OPTION};

/// Parses a positive worker count — the shared validation for
/// `--threads`, `--shards`, and `SP_THREADS`. An explicit `0` is
/// rejected rather than treated as "one per core": the documented
/// default when the option is omitted is already one worker per core,
/// so a literal zero is always a mistake (it used to fall back
/// silently).
fn positive_count(what: &str, value: &str) -> Result<usize, ArgError> {
    match value.parse::<usize>() {
        Ok(0) => Err(ArgError(format!(
            "{what}: must be at least 1 (omit it for one worker per core)"
        ))),
        Ok(n) => Ok(n),
        Err(_) => Err(ArgError(format!("{what}: cannot parse {value:?}"))),
    }
}

/// Thread-budget resolution from its two inputs, split out pure so the
/// `SP_THREADS` paths are testable without mutating process state.
fn threads_from_parts(flag: Option<&str>, env: Option<String>) -> Result<usize, ArgError> {
    if let Some(t) = flag {
        return positive_count("--threads", t);
    }
    match env {
        Some(v) => positive_count("SP_THREADS", &v),
        None => Ok(0),
    }
}

/// Resolves the worker-thread budget: `--threads N` wins, then the
/// `SP_THREADS` environment variable, then 0 (one worker per core).
/// The budget only controls parallelism — never the reported numbers.
/// Zero and non-numeric values are usage errors, not silent defaults.
fn threads_from(args: &Args) -> Result<usize, ArgError> {
    threads_from_parts(args.get("threads"), std::env::var("SP_THREADS").ok())
}

/// Parses `--inject-shard-panic S:T` into the scale engine's panic
/// injection hook: shard index `S` panics at tick `T`.
fn shard_panic_from(args: &Args) -> Result<Option<(usize, u32)>, ArgError> {
    let Some(spec) = args.get("inject-shard-panic") else {
        return Ok(None);
    };
    let parsed = spec.split_once(':').and_then(|(s, t)| {
        Some((
            s.trim().parse::<usize>().ok()?,
            t.trim().parse::<u32>().ok()?,
        ))
    });
    parsed.map(Some).ok_or_else(|| {
        ArgError(format!(
            "--inject-shard-panic: expected SHARD:TICK (two integers), got {spec:?}"
        ))
    })
}

/// Reads `--checkpoint-every N`, a positive interval; `--checkpoint-dir`
/// is inert without it.
fn checkpoint_every_from(args: &Args) -> Result<Option<f64>, CliError> {
    if !args.has("checkpoint-every") {
        if args.has("checkpoint-dir") {
            return Err(CliError::Usage(
                "--checkpoint-dir only names where --checkpoint-every writes; \
                 add --checkpoint-every N"
                    .into(),
            ));
        }
        return Ok(None);
    }
    let every = args.get_or("checkpoint-every", 0.0f64)?;
    if every > 0.0 && every.is_finite() {
        return Ok(Some(every));
    }
    Err(CliError::Usage(
        "--checkpoint-every: must be a positive interval".into(),
    ))
}

/// Maps a supervised shard failure to exit 1 with the full diagnostic
/// block (which shard, which tick, why, and every shard's progress).
fn shard_failure(f: ShardFailure) -> CliError {
    CliError::Runtime(format!("{f}\n{}", f.diagnostic()))
}

/// Parses the JSON file that `--{key}` names, if given. An unreadable
/// file is a runtime failure (exit 1); a malformed one becomes `bad`,
/// so each option keeps its own exit code.
fn json_file<T, E: std::fmt::Display>(
    args: &Args,
    key: &str,
    parse: fn(&str) -> Result<T, E>,
    bad: fn(String) -> CliError,
) -> Result<Option<T>, CliError> {
    let Some(path) = args.get(key) else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("--{key}: cannot read {path:?}: {e}")))?;
    parse(&text)
        .map(Some)
        .map_err(|e| bad(format!("--{key}: {path}: {e}")))
}

/// Resolves the overload-control options: `--overload` picks the
/// capacity-sized preset, `--overload-policy P` reads an explicit
/// [`OverloadPolicy`] JSON. The empty policy leaves the subsystem
/// disabled (bitwise inert). Setting both, or naming a policy file that
/// parses to the empty policy, is a usage error (exit 2).
fn overload_from(args: &Args, cfg: &Config) -> Result<OverloadPolicy, CliError> {
    let preset = args.flag("overload");
    if preset && args.has("overload-policy") {
        return Err(CliError::Usage(
            "--overload selects the capacity-sized preset; drop it when \
             --overload-policy names an explicit policy"
                .into(),
        ));
    }
    match json_file(
        args,
        "overload-policy",
        OverloadPolicy::from_json,
        CliError::Usage,
    )? {
        None if preset => Ok(OverloadPolicy::sized_for(cfg)),
        None => Ok(OverloadPolicy::default()),
        Some(policy) if policy.is_empty() => Err(CliError::Usage(format!(
            "--overload-policy: {} is the empty policy (service_rate 0); \
             drop the flag to run without overload control",
            args.get("overload-policy").unwrap_or_default()
        ))),
        Some(policy) => Ok(policy),
    }
}

/// Reads `--repair` (off when absent). Repair only engages on
/// fault-injected crashes.
fn repair_from(args: &Args) -> Result<RepairPolicy, ArgError> {
    match args.get("repair") {
        None => Ok(RepairPolicy::Off),
        Some(s) => RepairPolicy::parse(s).ok_or_else(|| {
            ArgError(format!(
                "--repair: unknown policy {s:?} (expected off, promote, or promote+partner)"
            ))
        }),
    }
}

/// Builds a [`Config`] from the shared topology options.
fn config_from(args: &Args) -> Result<Config, ArgError> {
    let mut b = NetworkBuilder::new()
        .users(args.get_or("users", 10_000usize)?)
        .cluster_size(args.get_or("cluster", 10usize)?)
        .avg_outdegree(args.get_or("outdegree", 3.1f64)?)
        .ttl(args.get_or("ttl", 7u16)?)
        .query_rate(args.get_or("query-rate", 9.26e-3f64)?);
    if args.flag("redundancy") {
        b = b.redundancy(true);
    }
    if let Some(k) = args.get("k") {
        let k: usize = k
            .parse()
            .map_err(|_| ArgError(format!("--k: cannot parse {k:?}")))?;
        b = b.redundancy_k(k);
    }
    if args.flag("strong") {
        b = b.strongly_connected();
    }
    let mut cfg = b.config();
    if let Some(family) = args.get("graph") {
        cfg.graph_type = match family {
            "power-law" | "plod" => GraphType::PowerLaw,
            "strong" | "complete" => GraphType::StronglyConnected,
            "erdos-renyi" | "er" => GraphType::ErdosRenyi,
            "regular" => GraphType::RandomRegular,
            other => {
                return Err(ArgError(format!(
                    "--graph: unknown family {other:?} (power-law, strong, erdos-renyi, regular)"
                )))
            }
        };
    }
    cfg.validate()
        .map_err(|e| ArgError(format!("invalid configuration: {e}")))?;
    Ok(cfg)
}

/// Usage tables for every subcommand. All help and usage-error text
/// renders through `crate::usage`'s one formatter; these tables are
/// also the commands' known-option sets, so help and validation cannot
/// drift apart.
static EVALUATE_USAGE: CommandUsage = CommandUsage {
    name: "evaluate",
    summary: "mean-value load analysis of one configuration",
    options: &[
        ("--trials N", "independent graph samples (default 5)"),
        ("--seed N", "base RNG seed (default 42)"),
        (
            "--sources N",
            "query sources sampled per trial (default: all)",
        ),
        THREADS_OPTION,
    ],
    topology: true,
    examples: &["spnet evaluate --users 10000 --cluster 10 --redundancy"],
};

static DESIGN_USAGE: CommandUsage = CommandUsage {
    name: "design",
    summary: "run the global design procedure under load constraints",
    options: &[
        ("--reach N", "desired reach, peers (default users/4)"),
        (
            "--max-up B",
            "max super-peer outgoing bw, bps (default 100000)",
        ),
        (
            "--max-down B",
            "max super-peer incoming bw, bps (default 100000)",
        ),
        (
            "--max-proc H",
            "max super-peer processing, Hz (default 10e6)",
        ),
        ("--max-conns N", "max super-peer connections (default 100)"),
        ("--allow-redundancy", "let the procedure pick k-redundancy"),
        ("--seed N", "evaluation RNG seed (default 42)"),
    ],
    topology: true,
    examples: &["spnet design --users 20000 --reach 3000 --max-up 100000 --max-conns 100"],
};

static SIMULATE_USAGE: CommandUsage = CommandUsage {
    name: "simulate",
    summary: "event-driven simulation (steady state, reliability, faults, scenarios)",
    options: &[
        ("--duration S", "simulated seconds (default 3600)"),
        ("--seed N", "run RNG seed (default 42)"),
        ("--lifespan S", "mean peer lifespan, seconds"),
        (
            "--trials N",
            "independent trials; N > 1 reports mean ± 95% CI, sharded\nover --threads workers with bitwise-identical results at\nany thread count",
        ),
        THREADS_OPTION,
        (
            "--metrics-json P",
            "write the engine run manifest (event counts, queue high\nwater, per-event wall histograms) to P",
        ),
        ("--reliability", "k=1 vs k=2 availability comparison"),
        (
            "--faults PLAN",
            "inject the FaultPlan JSON at PLAN (crashes, message\nloss/delay, partitions, flaky partners) into a single run",
        ),
        (
            "--fault-seed N",
            "reseed only the fault RNG stream (default: --seed); never\nperturbs the churn/query schedule",
        ),
        (
            "--scenario PLAN",
            "drive a single run from the ScenarioPlan JSON at PLAN\n(phased churn bursts, mass leaves, splits, flash crowds,\ncapacity classes, embedded faults + repair policy)",
        ),
        (
            "--scenario-seed N",
            "reseed only the scenario RNG stream (default: --seed)",
        ),
        (
            "--crash-storm",
            "canonical crash-storm plan against k=1 vs k=2\n(with --trials N: mean ± 95% CI over N storms)",
        ),
        (
            "--repair P",
            "self-healing policy for injected crashes:\noff | promote | promote+partner (default off)",
        ),
        (
            "--overload",
            "enable super-peer overload control with the capacity-sized\npreset policy (bounded work queues, per-client admission\nbudgets, load shedding, brownout degradation, re-homing);\nworks with the churn engines and --scale",
        ),
        (
            "--overload-policy P",
            "drive overload control from the OverloadPolicy JSON at P\ninstead of the preset (conflicts with --overload)",
        ),
        (
            "--scale",
            "shared-nothing sharded scale engine (million-peer\noverlays; TTL defaults to 3; supports --faults)",
        ),
        (
            "--shards N",
            "reactor count for --scale (default one per core); metrics\nare bitwise identical at any shard count",
        ),
        (
            "--checkpoint-every N",
            "write a restorable checkpoint every N simulated seconds\n(or every N ticks with --scale) into --checkpoint-dir",
        ),
        (
            "--checkpoint-dir D",
            "directory for checkpoint-NNNNNN.snap files\n(default checkpoints; created on demand)",
        ),
        (
            "--resume SNAP",
            "restore the checkpoint at SNAP and run it to completion;\nthe engine, workload, and seeds all come from the snapshot,\nand the finished metrics are bitwise identical to the\nuninterrupted run",
        ),
        (
            "--barrier-timeout-ticks N",
            "--scale watchdog: fail the run (exit 1, named shard\ndiagnostics) if a tick barrier stalls longer than N×100ms\n(default 0 = no watchdog)",
        ),
        (
            "--inject-shard-panic S:T",
            "--scale test hook: panic shard reactor S at tick T to\nexercise the supervisor path",
        ),
    ],
    topology: true,
    examples: &[
        "spnet simulate --users 1000 --lifespan 600 --reliability",
        "spnet simulate --users 1000 --trials 8 --threads 4",
        "spnet simulate --users 1000 --faults plan.json --metrics-json run.json",
        "spnet simulate --users 1000 --scenario scenario.json --seed 7",
        "spnet simulate --users 1000 --overload --duration 7200",
        "spnet simulate --users 1000000 --scale --shards 8 --duration 300",
        "spnet simulate --users 200000 --scale --checkpoint-every 60 --checkpoint-dir ckpt",
        "spnet simulate --resume ckpt/checkpoint-000002.snap --metrics-json out.json",
    ],
};

static CAMPAIGN_USAGE: CommandUsage = CommandUsage {
    name: "campaign",
    summary: "differential scenario fuzz campaign (the standing CI gate)\nGenerates seeded ScenarioPlans and runs each through both the fast\nand the reference engine under a bitwise oracle; any divergence\nwrites a self-contained reproducer JSON and exits 1.",
    options: &[
        ("--count N", "scenarios to generate and run (default 32)"),
        (
            "--seed N",
            "campaign seed; every scenario derives its plan and RNG\nstreams from it (default 42)",
        ),
        THREADS_OPTION,
        ("--users N", "peers per scenario overlay (default 120)"),
        ("--cluster N", "peers per cluster (default 12)"),
        ("--duration S", "simulated seconds per scenario (default 1200)"),
        ("--report P", "write the machine-readable campaign report to P"),
        (
            "--repro-dir D",
            "directory for divergence reproducer JSONs and quarantine\nartifacts (default campaign_repros; created on demand)",
        ),
        (
            "--resume REPORT",
            "resume a previous campaign from its --report JSON: green\nscenarios are skipped (their fingerprints re-fold), divergent\nand quarantined ones re-run; campaign options come from the\nreport, so --count/--seed/--users/--cluster/--duration\nconflict",
        ),
        (
            "--inject-panic N",
            "test hook: panic scenario N inside the worker to exercise\nthe quarantine path",
        ),
    ],
    topology: false,
    examples: &[
        "spnet campaign --count 32 --seed 42",
        "spnet campaign --count 500 --seed 7 --threads 8 --report campaign.json",
        "spnet campaign --resume campaign.json --report campaign.json",
    ],
};

static SWEEP_USAGE: CommandUsage = CommandUsage {
    name: "sweep",
    summary: "cluster-size sweep of one system",
    options: &[
        (
            "--clusters LIST",
            "cluster sizes, comma-separated (default 1,10,100,1000)",
        ),
        ("--trials N", "graph samples per cell (default 3)"),
        ("--seed N", "base RNG seed (default 42)"),
        (
            "--sources N",
            "query sources sampled per trial (default 800)",
        ),
        THREADS_OPTION,
    ],
    topology: true,
    examples: &["spnet sweep --users 5000 --strong --ttl 1 --clusters 1,10,100,1000"],
};

static EPL_USAGE: CommandUsage = CommandUsage {
    name: "epl",
    summary: "expected-path-length lookup table (Figure 9)",
    options: &[
        (
            "--outdegrees LIST",
            "outdegrees, comma-separated (default 3.1,10,20,40)",
        ),
        (
            "--reaches LIST",
            "reach targets, comma-separated (default 50,200,500)",
        ),
        ("--nodes N", "graph size per sample (default 1000)"),
        ("--samples N", "graph samples per cell (default 40)"),
        ("--seed N", "base RNG seed (default 42)"),
    ],
    topology: false,
    examples: &["spnet epl --outdegrees 3.1,10,20 --reaches 100,500"],
};

/// `spnet evaluate` — mean-value analysis of one configuration.
pub fn evaluate(args: &Args) -> Result<String, CliError> {
    if let Some(text) = EVALUATE_USAGE.gate(args)? {
        return Ok(text);
    }
    let cfg = config_from(args)?;
    let trials = args.get_or("trials", 5usize)?;
    let seed = args.get_or("seed", 42u64)?;
    let sources = args.get_or("sources", 0usize)?;
    let builder = NetworkBuilder::from_config(cfg.clone());
    let s = builder.evaluate_with(&TrialOptions {
        trials,
        seed,
        max_sources: (sources > 0).then_some(sources),
        threads: threads_from(args)?,
    });
    let mut t = Table::new(vec!["Metric", "Mean ± 95% CI"]);
    t.row(vec!["aggregate in bw (bps)".into(), ci(&s.agg_in_bw)]);
    t.row(vec!["aggregate out bw (bps)".into(), ci(&s.agg_out_bw)]);
    t.row(vec!["aggregate proc (Hz)".into(), ci(&s.agg_proc)]);
    t.row(vec!["super-peer in bw (bps)".into(), ci(&s.sp_in_bw)]);
    t.row(vec!["super-peer out bw (bps)".into(), ci(&s.sp_out_bw)]);
    t.row(vec!["super-peer proc (Hz)".into(), ci(&s.sp_proc)]);
    t.row(vec!["client in bw (bps)".into(), ci(&s.client_in_bw)]);
    t.row(vec!["client out bw (bps)".into(), ci(&s.client_out_bw)]);
    t.row(vec!["results per query".into(), ci(&s.results)]);
    t.row(vec!["expected path length".into(), ci(&s.epl)]);
    t.row(vec!["reach (clusters)".into(), ci(&s.reach_clusters)]);
    Ok(format!(
        "configuration: {} users, cluster {}, k {}, outdegree {}, TTL {}\n\n{}",
        cfg.graph_size,
        cfg.cluster_size,
        cfg.redundancy_k,
        cfg.avg_outdegree,
        cfg.ttl,
        t.render()
    ))
}

/// `spnet design` — the Figure 10 global design procedure.
pub fn design_cmd(args: &Args) -> Result<String, CliError> {
    if let Some(text) = DESIGN_USAGE.gate(args)? {
        return Ok(text);
    }
    let users = args.get_or("users", 10_000usize)?;
    let goals = DesignGoals {
        num_users: users,
        desired_reach_peers: args.get_or("reach", users / 4)?,
    };
    let constraints = DesignConstraints {
        max_sp_load: Load {
            in_bw: args.get_or("max-down", 100_000.0f64)?,
            out_bw: args.get_or("max-up", 100_000.0f64)?,
            proc: args.get_or("max-proc", 10e6f64)?,
        },
        max_connections: args.get_or("max-conns", 100.0f64)?,
        allow_redundancy: args.flag("allow-redundancy"),
    };
    let eval = EvalOptions {
        seed: args.get_or("seed", 42u64)?,
        ..Default::default()
    };
    match design(&goals, &constraints, &Config::default(), &eval) {
        Ok(out) => {
            let mut s = String::from("design-procedure log:\n");
            for step in &out.steps {
                s.push_str("  - ");
                s.push_str(&step.description);
                s.push('\n');
            }
            s.push_str(&format!(
                "\nrecommended: cluster {}, outdegree {:.0}, TTL {}, k {}\n\
                 achieved reach: {:.0} peers\n\
                 super-peer load: in {} bps, out {} bps, proc {} Hz\n",
                out.config.cluster_size,
                out.config.avg_outdegree,
                out.config.ttl,
                out.config.redundancy_k,
                out.achieved_reach_peers,
                sci(out.evaluation.sp_in_bw.mean),
                sci(out.evaluation.sp_out_bw.mean),
                sci(out.evaluation.sp_proc.mean),
            ));
            Ok(s)
        }
        Err(e) => Err(CliError::Runtime(format!("design failed: {e}"))),
    }
}

/// What one `spnet simulate` invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunKind {
    /// `--resume SNAP`: finish a fast or scale checkpoint.
    Resume,
    /// `--scale`: one run of the sharded scale engine.
    Scale,
    /// `--crash-storm`: the canonical crash storm at k = 1 and k = 2.
    CrashStorm,
    /// `--trials N` with N > 1: independent steady-state trials.
    Trials,
    /// `--reliability`: k = 1 vs k = 2 availability under churn.
    Reliability,
    /// `--scenario PLAN`: one fast-engine run of a scenario file.
    Scenario,
    /// One fast-engine run.
    Single,
}

/// One row of [`RUN_KINDS`].
struct KindRow {
    kind: RunKind,
    /// Whether the flags select this kind (given the `--trials` count).
    selects: fn(&Args, usize) -> bool,
    /// How conflict errors name the kind, and why it refuses an option.
    name: &'static str,
    why: &'static str,
    /// Every option the kind accepts, as space-separated groups.
    accepts: &'static [&'static str],
}

const TOPOLOGY: &str = "users cluster outdegree ttl redundancy k query-rate";
const CHURN: &str = "strong graph duration seed lifespan trials threads fault-seed";
const ONE_RUN: &str = "metrics-json checkpoint-every checkpoint-dir";
const OVERLOAD: &str = "overload overload-policy";
const SHARD_OPTIONS: &str = "shards barrier-timeout-ticks inject-shard-panic";

/// The one conflict table of `spnet simulate`: the first row whose
/// selector matches is the run kind, and any option outside its
/// `accepts` list is rejected by name (exit 2).
static RUN_KINDS: [KindRow; 7] = [
    KindRow {
        kind: RunKind::Resume,
        selects: |a, _| a.get("resume").is_some(),
        name: "--resume",
        why: "the snapshot holds the whole run",
        accepts: &["resume threads metrics-json overload", SHARD_OPTIONS],
    },
    KindRow {
        kind: RunKind::Scale,
        selects: |a, _| a.has("scale"),
        name: "--scale",
        why: "the sharded scale engine runs one churn-free power-law overlay",
        accepts: &[
            "scale duration seed threads faults fault-seed",
            TOPOLOGY,
            ONE_RUN,
            OVERLOAD,
            SHARD_OPTIONS,
        ],
    },
    KindRow {
        kind: RunKind::CrashStorm,
        selects: |a, _| a.has("crash-storm"),
        name: "--crash-storm",
        why: "it runs its canonical built-in plan at k = 1 and k = 2",
        accepts: &["crash-storm repair", TOPOLOGY, CHURN],
    },
    KindRow {
        kind: RunKind::Trials,
        selects: |_, trials| trials > 1,
        name: "--trials N > 1",
        why: "use --trials 1 for a single run",
        accepts: &["repair", TOPOLOGY, CHURN],
    },
    KindRow {
        kind: RunKind::Reliability,
        selects: |a, _| a.has("reliability"),
        name: "--reliability",
        why: "it runs its own k = 1 vs k = 2 churn comparison",
        accepts: &["reliability repair", TOPOLOGY, CHURN],
    },
    KindRow {
        kind: RunKind::Scenario,
        selects: |a, _| a.get("scenario").is_some(),
        name: "--scenario",
        why: "the scenario file sets the run's faults, repair, and overload policy",
        accepts: &["scenario scenario-seed", TOPOLOGY, CHURN, ONE_RUN],
    },
    KindRow {
        kind: RunKind::Single,
        selects: |_, _| true,
        name: "a churn-engine run",
        why: "shard options need --scale or --resume; --scenario-seed needs --scenario",
        accepts: &["faults repair", TOPOLOGY, CHURN, ONE_RUN, OVERLOAD],
    },
];

/// Everything one `spnet simulate` invocation asked for, read from the
/// flags once.
struct RunSpec {
    kind: RunKind,
    cfg: Config,
    duration: f64,
    seed: u64,
    fault_seed: u64,
    scenario_seed: u64,
    trials: usize,
    threads: usize,
    /// The run's one description: the `--scenario` file, or a plan of
    /// `--faults`, `--repair` and the overload flags. A resumed run
    /// takes its plan from the snapshot; there `--overload` only
    /// asserts that the snapshot has an overload policy.
    plan: ScenarioPlan,
    checkpoint_every: Option<f64>,
    checkpoint_dir: String,
    metrics_json: Option<String>,
    /// Shard count and supervision for the scale engine.
    scale: ScaleOptions,
    /// The first scale-only option given, refused by name when
    /// `--resume` turns out to name a churn-engine checkpoint.
    shard_option: Option<&'static str>,
    resume: Option<String>,
}

impl RunSpec {
    fn parse(args: &Args) -> Result<RunSpec, CliError> {
        let trials = args.get_or("trials", 1usize)?;
        if trials == 0 {
            return Err(CliError::Usage("--trials: need at least one trial".into()));
        }
        let row = RUN_KINDS
            .iter()
            .find(|r| (r.selects)(args, trials))
            .unwrap_or(&RUN_KINDS[RUN_KINDS.len() - 1]);
        let accepted = |key: &str| row.accepts.iter().any(|g| g.split(' ').any(|k| k == key));
        if let Some(key) = args.keys().find(|k| !accepted(k)) {
            return Err(CliError::Usage(format!(
                "--{key} cannot be combined with {} ({}); drop --{key}",
                row.name, row.why
            )));
        }
        let mut cfg = config_from(args)?;
        if let Some(lifespan) = args.get("lifespan") {
            cfg.population.lifespan_mean_secs = lifespan
                .parse()
                .map_err(|_| ArgError(format!("--lifespan: cannot parse {lifespan:?}")))?;
        }
        // The scale preset's TTL (3) keeps per-query flood work constant
        // as the overlay grows; an explicit --ttl still wins.
        if row.kind == RunKind::Scale && !args.has("ttl") {
            cfg.ttl = Config::scale_preset(cfg.graph_size).ttl;
        }
        let duration = args.get_or("duration", 3600.0f64)?;
        let seed = args.get_or("seed", 42u64)?;
        // The fault and scenario streams default to the run seed so
        // `--seed` alone still names a fully reproducible run.
        let fault_seed = args.get_or("fault-seed", seed)?;
        let faults = json_file(args, "faults", FaultPlan::from_json, CliError::Runtime)?;
        // An invalid scenario is the caller's fault (exit 2).
        let scenario = json_file(args, "scenario", ScenarioPlan::from_json, CliError::Usage)?;
        let overload = overload_from(args, &cfg)?;
        // The conflict table keeps `--scenario` apart from the flags
        // that would otherwise build the plan.
        let plan = match scenario {
            Some(plan) => plan,
            None => ScenarioPlan {
                faults: faults.unwrap_or_default(),
                repair: repair_from(args)?,
                overload,
                ..ScenarioPlan::default()
            },
        };
        Ok(RunSpec {
            kind: row.kind,
            duration,
            seed,
            fault_seed,
            scenario_seed: args.get_or("scenario-seed", seed)?,
            trials,
            // Validated for every kind, though only the multi-run kinds
            // fan out: `--threads 0` is always a usage error.
            threads: threads_from(args)?,
            plan,
            checkpoint_every: checkpoint_every_from(args)?,
            checkpoint_dir: args.get("checkpoint-dir").unwrap_or("checkpoints").into(),
            metrics_json: args.get("metrics-json").map(str::to_string),
            scale: ScaleOptions {
                duration_secs: duration,
                seed,
                fault_seed,
                // One shard per core unless given; the count never
                // changes the reported numbers.
                shards: match args.get("shards") {
                    None => resolve_thread_budget(0),
                    Some(s) => positive_count("--shards", s)?,
                },
                barrier_timeout_ticks: args.get_or("barrier-timeout-ticks", 0u32)?,
                inject_panic: shard_panic_from(args)?,
                overload,
            },
            shard_option: SHARD_OPTIONS.split(' ').find(|k| args.has(k)),
            resume: args.get("resume").map(str::to_string),
            cfg,
        })
    }

    /// Options for the multi-run kinds' trial fan-out.
    fn trial_options(&self) -> SimTrialOptions {
        SimTrialOptions {
            trials: self.trials,
            seed: self.seed,
            threads: self.threads,
            repair: self.plan.repair,
            ..Default::default()
        }
    }

    /// The engine for a single run: built from the flags, or restored
    /// from the `--resume` checkpoint, whose header names its engine.
    fn engine(&self) -> Result<Engine, CliError> {
        let Some(path) = &self.resume else {
            if self.kind == RunKind::Scale {
                let sim = ShardedSimulation::with_faults(&self.cfg, self.scale, &self.plan.faults);
                return Ok(Engine::Scale(Box::new(sim)));
            }
            let opts = SimOptions {
                duration_secs: self.duration,
                seed: self.seed,
                fault_seed: self.fault_seed,
                scenario_seed: self.scenario_seed,
                profile: self.metrics_json.is_some(),
                ..Default::default()
            };
            let sim = Simulation::with_scenario(&self.cfg, opts, &self.plan);
            return Ok(Engine::Fast(Box::new(sim)));
        };
        let data = std::fs::read(path)
            .map_err(|e| CliError::Runtime(format!("--resume: cannot read {path:?}: {e}")))?;
        let bad = |e: SnapshotError| CliError::Runtime(format!("--resume: {path}: {e}"));
        let engine = match SnapReader::peek_engine(&data).map_err(bad)? {
            ENGINE_FAST => {
                if let Some(key) = self.shard_option {
                    return Err(CliError::Usage(format!(
                        "--{key} supervises scale checkpoints; {path} is a churn-engine \
                         checkpoint, drop --{key}"
                    )));
                }
                Engine::Fast(Box::new(Simulation::restore(&data).map_err(bad)?))
            }
            ENGINE_SCALE => Engine::Scale(Box::new(
                ShardedSimulation::restore(&data, self.scale).map_err(bad)?,
            )),
            other => {
                return Err(CliError::Runtime(format!(
                    "--resume: {path}: engine tag {other} is not a fast or scale checkpoint"
                )))
            }
        };
        // A policy cannot be enabled mid-run without changing every
        // draw after the checkpoint.
        if !self.plan.overload.is_empty() && !engine.overload_active() {
            return Err(CliError::Usage(format!(
                "--overload: the snapshot at {path} was captured without an overload \
                 policy, and a policy cannot be enabled at resume time; drop \
                 --overload or restart the run with it"
            )));
        }
        Ok(engine)
    }
}

/// The engine behind a single `simulate` run.
enum Engine {
    Fast(Box<Simulation>),
    Scale(Box<ShardedSimulation>),
}

impl Engine {
    fn overload_active(&self) -> bool {
        match self {
            Engine::Fast(sim) => sim.overload_active(),
            Engine::Scale(sim) => sim.overload_active(),
        }
    }

    /// Writes a checkpoint every `every` simulated seconds until the end
    /// of the run. The scale clock is the tick barrier, so there the
    /// interval is in ticks and fractional values round up.
    fn checkpoint(&mut self, every: f64, dir: &str) -> Result<(), CliError> {
        let (every, end) = match self {
            Engine::Fast(sim) => (every, sim.options().duration_secs),
            Engine::Scale(sim) => (every.ceil(), f64::from(sim.total_ticks())),
        };
        let (mut at, mut seq) = (every, 0);
        while at < end {
            let snap = match self {
                Engine::Fast(sim) => {
                    sim.run_to(at);
                    sim.snapshot()
                }
                Engine::Scale(sim) => {
                    sim.run_to(at as u32).map_err(shard_failure)?;
                    sim.snapshot()
                }
            };
            std::fs::create_dir_all(dir).map_err(|e| {
                CliError::Runtime(format!("--checkpoint-dir: cannot create {dir:?}: {e}"))
            })?;
            let path = std::path::Path::new(dir).join(format!("checkpoint-{seq:06}.snap"));
            std::fs::write(&path, snap)
                .map_err(|e| CliError::Runtime(format!("cannot write checkpoint {path:?}: {e}")))?;
            seq += 1;
            at += every;
        }
        Ok(())
    }
}

/// `spnet simulate` — the event-driven engines behind every churn,
/// fault, scenario, overload, and million-peer run.
///
/// Every flag is read once into a [`RunSpec`], whose kind decides which
/// options are accepted ([`RUN_KINDS`]). The multi-run kinds
/// (`--trials N`, `--reliability`, `--crash-storm`) report mean ± 95%
/// CI or k = 1 vs k = 2 tables. Every other kind is one run of the fast
/// churn engine or the sharded scale engine, fresh or resumed from a
/// checkpoint; both then share the checkpoint loop, the
/// `--metrics-json` write, and the report.
pub fn simulate(args: &Args) -> Result<String, CliError> {
    if let Some(text) = SIMULATE_USAGE.gate(args)? {
        return Ok(text);
    }
    let spec = RunSpec::parse(args)?;
    match spec.kind {
        RunKind::Trials => return Ok(trials_report(&spec)),
        RunKind::Reliability => return Ok(reliability_report(&spec)),
        RunKind::CrashStorm => return Ok(crash_storm_report(&spec)),
        RunKind::Resume | RunKind::Scale | RunKind::Scenario | RunKind::Single => {}
    }
    let mut engine = spec.engine()?;
    let start = std::time::Instant::now();
    if let Some(every) = spec.checkpoint_every {
        engine.checkpoint(every, &spec.checkpoint_dir)?;
    }
    let (report, json) = match engine {
        Engine::Fast(mut sim) => {
            let raw = sim.run();
            let json = spec
                .metrics_json
                .as_ref()
                .map(|_| sim.manifest(&raw, start.elapsed().as_secs_f64()).to_json());
            (churn_report(&sim, raw, spec.resume.is_some()), json)
        }
        Engine::Scale(mut sim) => {
            let m = sim.try_run().map_err(shard_failure)?;
            let json = spec.metrics_json.as_ref().map(|_| m.to_json());
            (scale_report(&sim, &m), json)
        }
    };
    if let (Some(path), Some(json)) = (&spec.metrics_json, json) {
        std::fs::write(path, json).map_err(|e| {
            CliError::Runtime(format!("--metrics-json: cannot write {path:?}: {e}"))
        })?;
    }
    Ok(report)
}

/// A two-column `Metric | <header>` table.
fn value_table(header: &str, rows: Vec<(&str, String)>) -> String {
    let mut t = Table::new(vec!["Metric", header]);
    for (label, value) in rows {
        t.row(vec![label.into(), value]);
    }
    t.render()
}

/// A `Metric | k = 1 | k = 2` comparison table.
fn k_table(rows: Vec<(&str, String, String)>) -> String {
    let mut t = Table::new(vec!["Metric", "k = 1", "k = 2"]);
    for (label, k1, k2) in rows {
        t.row(vec![label.into(), k1, k2]);
    }
    t.render()
}

/// The churn-engine report: the core metrics plus the scenario, fault,
/// repair, and overload rows for what the engine ran with. Plans and
/// policies are read from the engine rather than the flags, so a
/// resumed run prints its uninterrupted run's table, then one flat
/// `resumed run (fast)` line.
fn churn_report(sim: &Simulation, raw: RawMetrics, resumed: bool) -> String {
    let (fm, rm, om) = (&raw.faults, &raw.repair, &raw.overload);
    let r = SimReport::from_raw(raw.clone());
    let mut rows = vec![
        ("queries simulated", r.queries.to_string()),
        ("results per query", format!("{:.1}", r.results_per_query)),
        ("super-peer load", r.sp_load.to_string()),
        ("client load", r.client_load.to_string()),
        ("availability", format!("{:.4}", r.availability)),
        ("cluster failures", r.cluster_failures.to_string()),
    ];
    let plan = sim.scenario_plan();
    let phased = !plan.phases.is_empty() || !plan.capacity_classes.is_empty();
    if phased {
        let sizes = format!("{} / {}", plan.phases.len(), plan.capacity_classes.len());
        rows.push(("scenario phases / classes", sizes));
    }
    if phased || !plan.faults.is_empty() {
        let injected = format!(
            "{}/{}/{}/{}/{}",
            fm.injected_crash,
            fm.injected_drop,
            fm.injected_delay,
            fm.injected_partition_block,
            fm.injected_flaky
        );
        rows.extend([
            ("queries issued", fm.queries_issued.to_string()),
            ("queries lost", fm.queries_lost.to_string()),
            ("recovered by retry", fm.recovered_retry.to_string()),
            ("recovered by failover", fm.recovered_failover.to_string()),
            (
                "faults injected (crash/drop/delay/partition/flaky)",
                injected,
            ),
            ("orphans gave up", fm.orphan_gave_up.to_string()),
            (
                "mean reconnect (s)",
                format!("{:.1}", fm.reconnect.mean_secs()),
            ),
        ]);
        if plan.repair.promotes() {
            rows.extend([
                ("repair promotions", rm.promotions.to_string()),
                ("partner recruitments", rm.partner_recruitments.to_string()),
                ("final components", rm.final_components.to_string()),
                (
                    "final reachable fraction",
                    format!("{:.4}", rm.final_reachable_fraction),
                ),
            ]);
        }
    }
    // Flat lines for scripted smoke checks (CI greps these; the table
    // layout above is free to change).
    let mut flat = Vec::new();
    if sim.overload_active() {
        let shed = om.shed_discipline + om.shed_dead + om.shed_residual;
        let rejected = om.rejected_queue + om.rejected_budget;
        let (p50, p99) = (
            om.latency.quantile_secs(0.50),
            om.latency.quantile_secs(0.99),
        );
        rows.extend([
            (
                "overload delivered / shed / rejected",
                format!("{} / {shed} / {rejected}", om.delivered),
            ),
            ("overload peak queue depth", om.peak_depth.to_string()),
            (
                "response latency p50 / p99 (s)",
                format!("{p50:.1} / {p99:.1}"),
            ),
            (
                "brownout entries / time (s)",
                format!("{} / {:.0}", om.brownout_entries, om.brownout_secs),
            ),
            ("clients re-homed", om.rehomed.to_string()),
        ]);
        flat.push(format!(
            "overload run: delivered {}, shed {shed}, rejected {rejected}, rehomed {}, p99 {p99:.1}s",
            om.delivered, om.rehomed
        ));
    }
    if resumed {
        flat.push(format!(
            "resumed run (fast): queries {}, results/query {:.1}, availability {:.4}",
            r.queries, r.results_per_query, r.availability
        ));
    }
    let mut out = value_table("Value", rows);
    for line in flat {
        out.push('\n');
        out.push_str(&line);
    }
    out
}

/// The scale-engine report plus the flat smoke line CI diffs across
/// shard counts. Like [`churn_report`], it reads the fault plan and the
/// overload policy from the engine.
fn scale_report(sim: &ShardedSimulation, m: &ScaleMetrics) -> String {
    let mut rows = vec![
        ("peers", m.peers.to_string()),
        ("clusters", m.clusters.to_string()),
        ("ticks", m.ticks.to_string()),
        ("queries issued", m.queries_issued.to_string()),
        ("queries failed", m.queries_failed.to_string()),
        ("messages delivered", m.msgs_delivered.to_string()),
        ("results found", m.results_found.to_string()),
    ];
    if !sim.fault_plan().is_empty() {
        let dropped = format!(
            "{}/{}/{}",
            m.msgs_dropped_loss, m.msgs_dropped_partition, m.msgs_dropped_dead
        );
        rows.extend([
            ("dropped (loss/partition/dead)", dropped),
            ("crashes injected", m.crashes_injected.to_string()),
            ("elections held", m.elections_held.to_string()),
            ("re-index announcements", m.reindex_received.to_string()),
        ]);
    }
    let shed = m.ov_shed_discipline + m.ov_shed_dead + m.ov_shed_residual;
    let rejected = m.ov_rejected_queue + m.ov_rejected_budget;
    if sim.overload_active() {
        let admitted = m.ov_admitted + m.ov_rehome_admitted;
        rows.extend([
            (
                "overload admitted / delivered",
                format!("{admitted} / {}", m.ov_delivered),
            ),
            (
                "overload shed (discipline/dead/residual)",
                format!(
                    "{}/{}/{}",
                    m.ov_shed_discipline, m.ov_shed_dead, m.ov_shed_residual
                ),
            ),
            (
                "overload rejected (queue/budget)",
                format!("{}/{}", m.ov_rejected_queue, m.ov_rejected_budget),
            ),
            (
                "re-home handoffs sent / failed",
                format!("{} / {}", m.ov_rehome_sent, m.ov_handoff_failed),
            ),
            (
                "brownout entries / cluster-ticks",
                format!("{} / {}", m.ov_brownout_entries, m.ov_brownout_ticks),
            ),
            (
                "overload peak depth / wait p99 (ticks)",
                format!("{} / {}", m.ov_peak_depth, m.ov_wait_quantile_ticks(0.99)),
            ),
        ]);
    }
    let diag = sim.diag();
    rows.extend([
        ("events processed", m.events_processed().to_string()),
        (
            "shards / cross-shard msgs",
            format!("{} / {}", diag.shards, diag.cross_shard_msgs),
        ),
    ]);
    // Every field of the flat line is shard-count-invariant, so CI can
    // diff it across shard counts.
    let mut flat = format!(
        "scale run: events processed {}, msgs delivered {}, results {}",
        m.events_processed(),
        m.msgs_delivered,
        m.results_found
    );
    if sim.overload_active() {
        flat.push_str(&format!(
            ", overload delivered {} shed {shed} rejected {rejected}",
            m.ov_delivered
        ));
    }
    format!("{}\n{flat}", value_table("Value", rows))
}

/// `--trials N`: steady-state trials, mean ± 95% CI.
fn trials_report(spec: &RunSpec) -> String {
    let s = steady_trials(&spec.cfg, spec.duration, &spec.trial_options());
    let table = value_table(
        "Mean ± 95% CI",
        vec![
            ("availability", ci(&s.availability)),
            ("results per query", ci(&s.results_per_query)),
            ("super-peer total bw (bps)", ci(&s.sp_total_bw)),
        ],
    );
    format!("{} trials\n\n{table}", spec.trials)
}

/// `--reliability`: k = 1 vs k = 2 availability under churn.
fn reliability_report(spec: &RunSpec) -> String {
    let c = reliability(&spec.cfg, spec.duration, spec.seed);
    k_table(vec![
        (
            "availability",
            format!("{:.4}", c.availability_k1),
            format!("{:.4}", c.availability_k2),
        ),
        (
            "cluster failures",
            c.failures_k1.to_string(),
            c.failures_k2.to_string(),
        ),
        (
            "mean downtime (s)",
            format!("{:.1}", c.downtime_k1),
            format!("{:.1}", c.downtime_k2),
        ),
    ])
}

/// `--crash-storm`: the canonical storm at k = 1 and k = 2, one run or
/// mean ± 95% CI over `--trials N` storms.
fn crash_storm_report(spec: &RunSpec) -> String {
    let repair = spec.plan.repair;
    if spec.trials > 1 {
        let s = crash_storm_trials(&spec.cfg, spec.duration, &spec.trial_options());
        let table = k_table(vec![
            ("queries lost", ci(&s.lost_k1), ci(&s.lost_k2)),
            (
                "availability",
                ci(&s.availability_k1),
                ci(&s.availability_k2),
            ),
            (
                "min reachable since storm",
                ci(&s.min_reachable_k1),
                ci(&s.min_reachable_k2),
            ),
        ]);
        return format!(
            "{} crash-storm trials (repair {repair})\n\n{table}",
            spec.trials
        );
    }
    let c = crash_storm(&spec.cfg, spec.duration, spec.seed, spec.fault_seed, repair);
    let rows = |r: &CrashStormReport| {
        [
            ("queries issued", r.queries_issued.to_string()),
            ("queries lost", r.queries_lost.to_string()),
            ("recovered by retry", r.recovered_retry.to_string()),
            ("recovered by failover", r.recovered_failover.to_string()),
            ("super-peers crashed", r.injected_crash.to_string()),
            ("cluster failures", r.cluster_failures.to_string()),
            ("clients orphaned", r.orphan_events.to_string()),
            ("orphans gave up", r.orphan_gave_up.to_string()),
            ("repair promotions", r.repair_promotions.to_string()),
            (
                "partner recruitments",
                r.repair_partner_recruitments.to_string(),
            ),
            ("clusters abandoned", r.repair_abandoned.to_string()),
            ("availability", format!("{:.4}", r.availability)),
            (
                "mean reconnect (s)",
                format!("{:.1}", r.mean_reconnect_secs),
            ),
            (
                "min reachable since storm",
                format!("{:.4}", r.min_reachable_since_storm),
            ),
            ("final components", r.final_components.to_string()),
        ]
    };
    let table = k_table(
        rows(&c.k1)
            .into_iter()
            .zip(rows(&c.k2))
            .map(|((label, k1), (_, k2))| (label, k1, k2))
            .collect(),
    );
    // One flat line per k for scripted smoke checks (CI greps these;
    // the table layout above is free to change).
    let flat = |label: &str, r: &CrashStormReport| {
        format!(
            "repair {repair} {label}: final components {}, orphans gave up {}",
            r.final_components, r.orphan_gave_up
        )
    };
    format!("{table}\n{}\n{}", flat("k=1", &c.k1), flat("k=2", &c.k2))
}

/// `spnet sweep` — cluster-size sweep of one system.
pub fn sweep(args: &Args) -> Result<String, CliError> {
    if let Some(text) = SWEEP_USAGE.gate(args)? {
        return Ok(text);
    }
    let cfg = config_from(args)?;
    let sizes = args.get_list_or("clusters", &[1usize, 10, 100, 1000])?;
    let fid = Fidelity {
        trials: args.get_or("trials", 3usize)?,
        seed: args.get_or("seed", 42u64)?,
        max_sources: Some(args.get_or("sources", 800usize)?),
        threads: threads_from(args)?,
    };
    let spec = cluster_sweep::SystemSpec {
        label: "system".into(),
        graph_type: cfg.graph_type,
        redundancy: cfg.redundancy_k > 1,
        ttl: cfg.ttl,
        avg_outdegree: cfg.avg_outdegree,
    };
    let data = cluster_sweep::run(cfg.graph_size, &sizes, &[spec], None, &fid);
    let mut t = Table::new(vec![
        "ClusterSize",
        "Agg bw (bps)",
        "SP in (bps)",
        "SP out (bps)",
        "SP proc (Hz)",
        "Results",
    ]);
    for (i, &cs) in data.cluster_sizes.iter().enumerate() {
        let s = &data.cell(i, 0).summary;
        t.row(vec![
            cs.to_string(),
            sci(s.agg_total_bw.mean),
            sci(s.sp_in_bw.mean),
            sci(s.sp_out_bw.mean),
            sci(s.sp_proc.mean),
            format!("{:.0}", s.results.mean),
        ]);
    }
    Ok(t.render())
}

/// `spnet epl` — the Figure 9 lookup table.
pub fn epl(args: &Args) -> Result<String, CliError> {
    if let Some(text) = EPL_USAGE.gate(args)? {
        return Ok(text);
    }
    let outdegrees = args.get_list_or("outdegrees", &[3.1f64, 10.0, 20.0, 40.0])?;
    let reaches = args.get_list_or("reaches", &[50usize, 200, 500])?;
    let nodes = args.get_or("nodes", 1000usize)?;
    let samples = args.get_or("samples", 40usize)?;
    let seed = args.get_or("seed", 42u64)?;
    let data = epl_table::run(&outdegrees, &reaches, nodes, samples, seed);
    Ok(format!(
        "{}\n{}",
        data.render_fig9(),
        data.render_appendix_f()
    ))
}

/// `spnet campaign` — the differential scenario campaign: `--count`
/// seeded [`ScenarioPlan`]s generated from `--seed`, each run through
/// both the fast and the reference engine with a bitwise oracle
/// (metrics equality, query conservation, bounded availability).
///
/// A green campaign prints a coverage table plus a flat summary line
/// whose fingerprint is thread-count-invariant (CI pins it). Any
/// divergence writes a self-contained reproducer JSON per failing
/// scenario into `--repro-dir` and exits 1 — the invocation was fine,
/// the engines are not.
pub fn campaign(args: &Args) -> Result<String, CliError> {
    if let Some(text) = CAMPAIGN_USAGE.gate(args)? {
        return Ok(text);
    }
    let inject_panic = match args.get("inject-panic") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| CliError::Usage(format!("--inject-panic: cannot parse {v:?}")))?,
        ),
    };
    // With --resume the campaign's identity (count, seed, workload
    // shape) comes from the report being resumed; letting the command
    // line override any of it would silently fold fingerprints from a
    // different campaign, so each override is an individual conflict.
    let resume = match args.get("resume") {
        None => None,
        Some(path) => {
            for key in ["count", "seed", "users", "cluster", "duration"] {
                if args.get(key).is_some() {
                    return Err(CliError::Usage(format!(
                        "--resume takes --{key} from the report; drop --{key}"
                    )));
                }
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Runtime(format!("--resume: cannot read {path:?}: {e}")))?;
            Some(
                CampaignResume::from_report_json(&text)
                    .map_err(|e| CliError::Runtime(format!("--resume: {path}: {e}")))?,
            )
        }
    };
    let opts = match &resume {
        Some(r) => CampaignOptions {
            inject_panic,
            ..r.options(threads_from(args)?)
        },
        None => CampaignOptions {
            count: args.get_or("count", 32usize)?,
            seed: args.get_or("seed", 42u64)?,
            threads: threads_from(args)?,
            users: args.get_or("users", 120usize)?,
            cluster_size: args.get_or("cluster", 12usize)?,
            duration_secs: args.get_or("duration", 1200.0f64)?,
            inject_panic,
        },
    };
    if opts.count == 0 {
        return Err(CliError::Usage(
            "--count: need at least one scenario".into(),
        ));
    }
    if opts.duration_secs <= 0.0 || !opts.duration_secs.is_finite() {
        return Err(CliError::Usage(
            "--duration: must be a positive number of seconds".into(),
        ));
    }
    let mut report = run_campaign_with(&opts, resume.as_ref());
    // Quarantine artifacts are written before the report so the report
    // records where they landed. Paths are index-derived, keeping the
    // report JSON thread-count-invariant.
    let dir = args.get("repro-dir").unwrap_or("campaign_repros");
    if !report.quarantined.is_empty() {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Runtime(format!("--repro-dir: cannot create {dir:?}: {e}")))?;
        for i in 0..report.quarantined.len() {
            let doc = report.quarantined[i].reproducer_json(&opts);
            let q = &mut report.quarantined[i];
            let json_path = std::path::Path::new(dir).join(format!("quarantine_{}.json", q.index));
            std::fs::write(&json_path, doc).map_err(|e| {
                CliError::Runtime(format!("cannot write quarantine {json_path:?}: {e}"))
            })?;
            q.reproducer_path = Some(json_path.display().to_string());
            if !q.snapshot.is_empty() {
                let snap_path =
                    std::path::Path::new(dir).join(format!("quarantine_{}.snap", q.index));
                std::fs::write(&snap_path, &q.snapshot).map_err(|e| {
                    CliError::Runtime(format!("cannot write quarantine {snap_path:?}: {e}"))
                })?;
                q.snapshot_path = Some(snap_path.display().to_string());
            }
        }
    }
    if let Some(path) = args.get("report") {
        std::fs::write(path, report.to_json())
            .map_err(|e| CliError::Runtime(format!("--report: cannot write {path:?}: {e}")))?;
    }
    let coverage = |pairs: &[(&'static str, u64)]| -> String {
        if pairs.is_empty() {
            return "none".into();
        }
        pairs
            .iter()
            .map(|(k, n)| format!("{k} {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut t = Table::new(vec!["Metric", "Value"]);
    t.row(vec!["scenarios".into(), report.scenarios.to_string()]);
    t.row(vec![
        "phases covered".into(),
        coverage(&report.phases_covered),
    ]);
    t.row(vec![
        "faults covered".into(),
        coverage(&report.faults_covered),
    ]);
    t.row(vec![
        "repair covered".into(),
        coverage(&report.repair_covered),
    ]);
    t.row(vec![
        "fingerprint".into(),
        format!("{:#018x}", report.fingerprint),
    ]);
    t.row(vec![
        "divergences".into(),
        report.divergences.len().to_string(),
    ]);
    t.row(vec![
        "quarantined".into(),
        report.quarantined.len().to_string(),
    ]);
    if !report.divergences.is_empty() || !report.quarantined.is_empty() {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Runtime(format!("--repro-dir: cannot create {dir:?}: {e}")))?;
        for d in &report.divergences {
            let path = std::path::Path::new(dir).join(format!("repro_{}.json", d.index));
            std::fs::write(&path, d.reproducer_json(&opts))
                .map_err(|e| CliError::Runtime(format!("cannot write reproducer {path:?}: {e}")))?;
        }
        // Findings go to stdout; the error path stays a single
        // `error: …` line per the workspace policy.
        let mut findings = format!("{}\n{}\n", t.render(), report.summary_line());
        for d in &report.divergences {
            findings.push_str(&format!(
                "divergence: scenario {} (trial seed {}): {}\n",
                d.index, d.trial_seed, d.reason
            ));
        }
        for q in &report.quarantined {
            findings.push_str(&format!(
                "quarantine: scenario {} (trial seed {}): {}\n",
                q.index, q.trial_seed, q.reason
            ));
        }
        print!("{findings}");
        let mut what = Vec::new();
        if !report.divergences.is_empty() {
            what.push(format!("{} divergence(s)", report.divergences.len()));
        }
        if !report.quarantined.is_empty() {
            what.push(format!("{} quarantined panic(s)", report.quarantined.len()));
        }
        return Err(CliError::Runtime(format!(
            "campaign: {}; artifacts in {dir}/",
            what.join(", ")
        )));
    }
    Ok(format!("{}\n{}", t.render(), report.summary_line()))
}

/// Top-level help text, rendered from the same per-command usage
/// tables as `spnet <command> --help`.
pub fn help() -> String {
    usage::global_help(&[
        &EVALUATE_USAGE,
        &DESIGN_USAGE,
        &SIMULATE_USAGE,
        &CAMPAIGN_USAGE,
        &SWEEP_USAGE,
        &EPL_USAGE,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn evaluate_renders_table() {
        let out = evaluate(&args(&[
            "--users",
            "300",
            "--cluster",
            "10",
            "--ttl",
            "3",
            "--trials",
            "1",
            "--sources",
            "50",
        ]))
        .unwrap();
        assert!(out.contains("results per query"));
        assert!(out.contains("super-peer out bw"));
    }

    #[test]
    fn evaluate_rejects_unknown_option() {
        let err = evaluate(&args(&["--userz", "300"])).unwrap_err();
        assert!(err.to_string().contains("userz"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn config_respects_graph_family() {
        let cfg = config_from(&args(&["--graph", "regular", "--users", "500"])).unwrap();
        assert_eq!(cfg.graph_type, GraphType::RandomRegular);
        assert!(config_from(&args(&["--graph", "nonsense"])).is_err());
    }

    #[test]
    fn design_small_scenario() {
        let out = design_cmd(&args(&[
            "--users",
            "1000",
            "--reach",
            "250",
            "--max-up",
            "150000",
            "--max-down",
            "150000",
            "--max-proc",
            "15000000",
            "--max-conns",
            "100",
        ]))
        .unwrap();
        assert!(out.contains("recommended"));
        assert!(out.contains("TTL"));
    }

    #[test]
    fn simulate_produces_counts() {
        let out = simulate(&args(&[
            "--users",
            "100",
            "--cluster",
            "10",
            "--duration",
            "300",
        ]))
        .unwrap();
        assert!(out.contains("queries simulated"));
    }

    #[test]
    fn simulate_trials_reports_ci() {
        let out = simulate(&args(&[
            "--users",
            "100",
            "--cluster",
            "10",
            "--duration",
            "300",
            "--trials",
            "3",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("3 trials"));
        assert!(out.contains("availability"));
        assert!(out.contains("±"));
    }

    #[test]
    fn simulate_trials_identical_across_thread_counts() {
        let base = &[
            "--users",
            "100",
            "--cluster",
            "10",
            "--duration",
            "300",
            "--trials",
            "4",
        ];
        let one = simulate(&args(&[base as &[_], &["--threads", "1"]].concat())).unwrap();
        let four = simulate(&args(&[base as &[_], &["--threads", "4"]].concat())).unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn simulate_writes_metrics_json() {
        let path = std::env::temp_dir().join("spnet_cli_manifest_test.json");
        let path_str = path.to_str().unwrap();
        let out = simulate(&args(&[
            "--users",
            "100",
            "--cluster",
            "10",
            "--duration",
            "300",
            "--metrics-json",
            path_str,
        ]))
        .unwrap();
        assert!(out.contains("queries simulated"));
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.contains("\"events_delivered\""));
        assert!(json.contains("\"wall_ns_by_kind\""));
        assert!(json.contains("\"profiled\": true"));
    }

    #[test]
    fn simulate_rejects_conflicting_options() {
        let err = simulate(&args(&[
            "--users",
            "100",
            "--reliability",
            "--metrics-json",
            "x.json",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--reliability"));
        let err = simulate(&args(&["--users", "100", "--trials", "0"])).unwrap_err();
        assert!(err.to_string().contains("trials"));
        let err = simulate(&args(&[
            "--users",
            "100",
            "--trials",
            "2",
            "--metrics-json",
            "x.json",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("single run"));
        // All of the above are the caller's fault.
        assert_eq!(err.exit_code(), 2);
    }

    fn write_plan(name: &str, plan: &FaultPlan) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, plan.to_json()).unwrap();
        path
    }

    #[test]
    fn simulate_faults_round_trip_into_manifest() {
        use sp_core::model::faults::FaultSpec;
        let plan = FaultPlan {
            faults: vec![
                FaultSpec::CrashCluster {
                    at_secs: 100.0,
                    cluster_index: 0,
                },
                FaultSpec::MessageLoss {
                    from_secs: 50.0,
                    until_secs: 500.0,
                    drop_prob: 0.5,
                },
            ],
            ..FaultPlan::default()
        };
        let plan_path = write_plan("spnet_cli_fault_plan_test.json", &plan);
        let out_path = std::env::temp_dir().join("spnet_cli_fault_manifest_test.json");
        let out = simulate(&args(&[
            "--users",
            "100",
            "--cluster",
            "10",
            "--lifespan",
            "500",
            "--duration",
            "600",
            "--fault-seed",
            "77",
            "--faults",
            plan_path.to_str().unwrap(),
            "--metrics-json",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("queries lost"));
        assert!(out.contains("faults injected"));
        let json = std::fs::read_to_string(&out_path).unwrap();
        std::fs::remove_file(&plan_path).ok();
        std::fs::remove_file(&out_path).ok();
        // The manifest reflects the loaded plan and fault stream, and
        // both plan entries actually injected something.
        assert!(json.contains("\"fault_seed\": 77"));
        assert!(json.contains(&format!("\"fault_plan_len\": {}", plan.faults.len())));
        let count_after = |key: &str| -> u64 {
            let tail = &json[json.find(key).unwrap() + key.len()..];
            let digits: String = tail
                .chars()
                .skip_while(|c| !c.is_ascii_digit())
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().unwrap()
        };
        assert!(count_after("\"crash\":") > 0, "crash_cluster never fired");
        assert!(count_after("\"drop\":") > 0, "message_loss never fired");
    }

    #[test]
    fn simulate_fault_errors_are_runtime_and_one_line() {
        let err = simulate(&args(&[
            "--users",
            "100",
            "--faults",
            "/nonexistent/spnet_plan.json",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(!err.to_string().contains('\n'));
        assert!(err.to_string().contains("--faults"));

        let bad = std::env::temp_dir().join("spnet_cli_bad_plan_test.json");
        std::fs::write(&bad, "{\"faults\": [").unwrap();
        let err = simulate(&args(&[
            "--users",
            "100",
            "--faults",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        std::fs::remove_file(&bad).ok();
        assert_eq!(err.exit_code(), 1);
        assert!(!err.to_string().contains('\n'));
        assert!(err.to_string().contains("json parse error"));
    }

    #[test]
    fn simulate_rejects_faults_with_trials_or_reliability() {
        let plan_path = write_plan("spnet_cli_plan_conflict_test.json", &{
            use sp_core::model::faults::FaultSpec;
            FaultPlan {
                faults: vec![FaultSpec::CrashFraction {
                    at_secs: 10.0,
                    fraction: 0.5,
                }],
                ..FaultPlan::default()
            }
        });
        let plan = plan_path.to_str().unwrap();
        let err = simulate(&args(&[
            "--users", "100", "--faults", plan, "--trials", "2",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--trials 1"));
        let err = simulate(&args(&[
            "--users",
            "100",
            "--faults",
            plan,
            "--reliability",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = simulate(&args(&[
            "--users",
            "100",
            "--faults",
            plan,
            "--crash-storm",
        ]))
        .unwrap_err();
        std::fs::remove_file(&plan_path).ok();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--crash-storm"));
    }

    #[test]
    fn simulate_crash_storm_compares_redundancy() {
        let out = simulate(&args(&[
            "--users",
            "120",
            "--cluster",
            "12",
            "--lifespan",
            "400",
            "--duration",
            "1200",
            "--seed",
            "7",
            "--crash-storm",
        ]))
        .unwrap();
        assert!(out.contains("k = 1"));
        assert!(out.contains("k = 2"));
        assert!(out.contains("queries lost"));
        assert!(out.contains("recovered by failover"));
        assert!(out.contains("final components"));
        assert!(out.contains("repair off k=1: final components"));
    }

    #[test]
    fn simulate_crash_storm_with_repair_heals_the_overlay() {
        // The CI smoke contract: the canonical crash storm under
        // `--repair=promote` must end with a single live component and
        // no client that permanently gave up reconnecting.
        let out = simulate(&args(&[
            "--users",
            "120",
            "--cluster",
            "12",
            "--lifespan",
            "400",
            "--duration",
            "1200",
            "--seed",
            "7",
            "--crash-storm",
            "--repair",
            "promote",
        ]))
        .unwrap();
        assert!(out.contains("repair promotions"));
        assert!(
            out.contains("repair promote k=1: final components 1, orphans gave up 0"),
            "smoke line missing or overlay not healed:\n{out}"
        );
    }

    #[test]
    fn simulate_rejects_unknown_repair_policy() {
        let err = simulate(&args(&["--users", "100", "--repair", "heal-everything"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("promote+partner"));
    }

    #[test]
    fn threads_zero_and_garbage_are_usage_errors() {
        // Explicit --threads 0 and non-numeric values are the caller's
        // fault (exit 2), not a silent fall-back to the default.
        for cmd in [simulate, evaluate, sweep] {
            let err = cmd(&args(&["--users", "100", "--threads", "0"])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--threads 0 must be a usage error");
            assert!(err.to_string().contains("--threads"));
            let err = cmd(&args(&["--users", "100", "--threads", "many"])).unwrap_err();
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains("many"));
        }
    }

    #[test]
    fn sp_threads_env_values_are_validated() {
        // Pure-function probe of the SP_THREADS path (no process-global
        // env mutation, which would race with concurrently running
        // tests that resolve their own thread budgets).
        assert_eq!(threads_from_parts(None, None).unwrap(), 0);
        assert_eq!(threads_from_parts(None, Some("3".into())).unwrap(), 3);
        let err = threads_from_parts(None, Some("0".into())).unwrap_err();
        assert!(err.0.contains("SP_THREADS"), "{}", err.0);
        let err = threads_from_parts(None, Some("lots".into())).unwrap_err();
        assert!(err.0.contains("SP_THREADS"), "{}", err.0);
        // An explicit --threads wins before SP_THREADS is even parsed.
        assert_eq!(
            threads_from_parts(Some("4"), Some("garbage".into())).unwrap(),
            4
        );
    }

    #[test]
    fn simulate_scale_runs_and_is_shard_invariant() {
        let base = &[
            "--users",
            "4000",
            "--scale",
            "--duration",
            "150",
            "--seed",
            "9",
        ];
        let one_path = std::env::temp_dir().join("spnet_cli_scale_1shard_test.json");
        let four_path = std::env::temp_dir().join("spnet_cli_scale_4shard_test.json");
        let one = simulate(&args(
            &[
                base as &[_],
                &[
                    "--shards",
                    "1",
                    "--metrics-json",
                    one_path.to_str().unwrap(),
                ],
            ]
            .concat(),
        ))
        .unwrap();
        let four = simulate(&args(
            &[
                base as &[_],
                &[
                    "--shards",
                    "4",
                    "--metrics-json",
                    four_path.to_str().unwrap(),
                ],
            ]
            .concat(),
        ))
        .unwrap();
        assert!(one.contains("events processed"));
        assert!(one.contains("scale run:"));
        let json_one = std::fs::read_to_string(&one_path).unwrap();
        let json_four = std::fs::read_to_string(&four_path).unwrap();
        std::fs::remove_file(&one_path).ok();
        std::fs::remove_file(&four_path).ok();
        // The metrics JSON is shard-count-invariant byte for byte —
        // the same comparison the CI sharded-smoke step performs.
        assert_eq!(json_one, json_four, "scale metrics diverged across shards");
        assert!(json_one.contains("\"msgs_delivered\""));
        // The human tables differ only in the diag row; the smoke line
        // (last line) must match exactly.
        assert_eq!(one.lines().last(), four.lines().last());
    }

    #[test]
    fn simulate_scale_rejects_conflicts_and_bad_shards() {
        let err = simulate(&args(&["--users", "100", "--shards", "4"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--scale"));
        let err = simulate(&args(&["--users", "100", "--scale", "--shards", "0"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--shards"));
        let err = simulate(&args(&["--users", "100", "--scale", "--shards", "x"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        for conflict in [
            &["--reliability"] as &[_],
            &["--crash-storm"],
            &["--trials", "2"],
            &["--repair", "promote"],
            &["--lifespan", "600"],
            &["--strong"],
        ] {
            let err = simulate(&args(
                &[&["--users", "100", "--scale"] as &[_], conflict].concat(),
            ))
            .unwrap_err();
            assert_eq!(
                err.exit_code(),
                2,
                "--scale with {conflict:?} must be usage"
            );
        }
    }

    #[test]
    fn sweep_lists_all_sizes() {
        let out = sweep(&args(&[
            "--users",
            "400",
            "--clusters",
            "5,40",
            "--trials",
            "1",
            "--sources",
            "40",
            "--ttl",
            "3",
        ]))
        .unwrap();
        assert!(out.lines().count() >= 4);
    }

    #[test]
    fn epl_table_renders() {
        let out = epl(&args(&[
            "--outdegrees",
            "5,10",
            "--reaches",
            "30",
            "--nodes",
            "200",
            "--samples",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("Figure 9"));
    }

    #[test]
    fn help_mentions_every_command() {
        let h = help();
        for cmd in ["evaluate", "design", "simulate", "campaign", "sweep", "epl"] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
        assert!(h.contains("Exit codes"));
    }

    #[test]
    fn every_command_answers_help_through_the_one_formatter() {
        // `--help` short-circuits before any work (and before topology
        // validation), and every command's text comes from the same
        // renderer: same USAGE header shape, same pointer convention.
        let helped = args(&["--help"]);
        for (name, cmd) in [
            (
                "evaluate",
                evaluate as fn(&Args) -> Result<String, CliError>,
            ),
            ("design", design_cmd),
            ("simulate", simulate),
            ("campaign", campaign),
            ("sweep", sweep),
            ("epl", epl),
        ] {
            let text = cmd(&helped).unwrap();
            assert!(
                text.starts_with(&format!("USAGE: spnet {name}")),
                "{name} help not rendered by the shared formatter:\n{text}"
            );
        }
    }

    #[test]
    fn unknown_options_point_at_the_command_help() {
        let err = simulate(&args(&["--bogus-flag", "1"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("spnet simulate --help"));
        let err = campaign(&args(&["--scenarios", "5"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("spnet campaign --help"));
    }

    #[test]
    fn campaign_small_run_is_green_and_thread_invariant() {
        let base = &[
            "--count",
            "3",
            "--seed",
            "7",
            "--users",
            "60",
            "--cluster",
            "10",
            "--duration",
            "400",
        ];
        let one = campaign(&args(&[base as &[_], &["--threads", "1"]].concat())).unwrap();
        let four = campaign(&args(&[base as &[_], &["--threads", "4"]].concat())).unwrap();
        assert!(one.contains("fingerprint"));
        assert!(one.contains("divergences"));
        assert!(one.contains("campaign: 3 scenarios, seed 7"));
        assert_eq!(one, four, "campaign output diverged across thread counts");
    }

    #[test]
    fn campaign_writes_the_report_file() {
        let path = std::env::temp_dir().join("spnet_cli_campaign_report_test.json");
        let out = campaign(&args(&[
            "--count",
            "2",
            "--seed",
            "11",
            "--users",
            "60",
            "--cluster",
            "10",
            "--duration",
            "300",
            "--report",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("phases covered"));
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.contains("\"scenarios\": 2"));
        assert!(json.contains("\"fingerprint\""));
        assert!(json.contains("\"divergences\""));
    }

    #[test]
    fn campaign_rejects_bad_counts_and_durations() {
        let err = campaign(&args(&["--count", "0"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--count"));
        let err = campaign(&args(&["--count", "1", "--duration", "-5"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--duration"));
    }

    #[test]
    fn simulate_scenario_runs_and_reports_phase_rows() {
        let plan = ScenarioPlan::from_json(
            r#"{
              "phases": [
                {"kind": "flash_crowd", "from_secs": 100.0, "until_secs": 250.0,
                 "query_rate_mult": 3.0, "hot_shift": 5},
                {"kind": "mass_leave", "from_secs": 300.0, "until_secs": 320.0,
                 "fraction": 0.2}
              ],
              "capacity_classes": [
                {"weight": 3.0, "files_mult": 2.0, "lifespan_mult": 1.5},
                {"weight": 1.0, "files_mult": 0.5, "lifespan_mult": 0.75}
              ],
              "repair": "promote"
            }"#,
        )
        .unwrap();
        let path = std::env::temp_dir().join("spnet_cli_scenario_run_test.json");
        std::fs::write(&path, plan.to_json()).unwrap();
        let out = simulate(&args(&[
            "--users",
            "100",
            "--cluster",
            "10",
            "--duration",
            "600",
            "--seed",
            "7",
            "--scenario",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("scenario phases / classes"));
        assert!(out.contains("2 / 2"));
        // The plan's own repair policy ("promote") drives the repair
        // rows, with no --repair flag given.
        assert!(out.contains("repair promotions"));
    }

    #[test]
    fn simulate_scenario_validation_errors_are_usage() {
        // Unknown field → exit 2 (the caller's file is malformed).
        let bad = std::env::temp_dir().join("spnet_cli_scenario_bad_test.json");
        std::fs::write(&bad, r#"{"phasez": []}"#).unwrap();
        let err = simulate(&args(&[
            "--users",
            "100",
            "--scenario",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        std::fs::remove_file(&bad).ok();
        assert_eq!(
            err.exit_code(),
            2,
            "scenario validation must be usage: {err}"
        );
        assert!(err.to_string().contains("phasez"));
        // Unreadable file → runtime (exit 1), like --faults.
        let err = simulate(&args(&[
            "--users",
            "100",
            "--scenario",
            "/nonexistent/spnet_scenario.json",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn simulate_scenario_rejects_conflicting_options() {
        let plan_path = std::env::temp_dir().join("spnet_cli_scenario_conflict_test.json");
        std::fs::write(&plan_path, ScenarioPlan::default().to_json()).unwrap();
        let plan = plan_path.to_str().unwrap();
        for conflict in [
            &["--reliability"] as &[_],
            &["--crash-storm"],
            &["--scale"],
            &["--trials", "2"],
            &["--repair", "promote"],
        ] {
            let err = simulate(&args(
                &[&["--users", "100", "--scenario", plan] as &[_], conflict].concat(),
            ))
            .unwrap_err();
            assert_eq!(
                err.exit_code(),
                2,
                "--scenario with {conflict:?} must be usage"
            );
        }
        std::fs::remove_file(&plan_path).ok();
        // --scenario-seed without --scenario is inert and therefore
        // rejected rather than silently ignored.
        let err = simulate(&args(&["--users", "100", "--scenario-seed", "9"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--scenario-seed"));
    }

    #[test]
    fn simulate_checkpoint_then_resume_is_bitwise_identical() {
        // A resumed churn run prints exactly its uninterrupted run's
        // report, then one flat `resumed run (fast)` line — for a plain
        // run and an overload-controlled one alike.
        for extra in [&[] as &[&str], &["--query-rate", "0.05", "--overload"]] {
            let dir = std::env::temp_dir().join("spnet_cli_ckpt_fast_test");
            std::fs::remove_dir_all(&dir).ok();
            let base = [
                &[
                    "--users",
                    "100",
                    "--cluster",
                    "10",
                    "--duration",
                    "600",
                    "--seed",
                    "11",
                ],
                extra,
            ]
            .concat();
            let uninterrupted = simulate(&args(&base)).unwrap();
            let checkpointed = simulate(&args(
                &[
                    &base[..],
                    &[
                        "--checkpoint-every",
                        "200",
                        "--checkpoint-dir",
                        dir.to_str().unwrap(),
                    ],
                ]
                .concat(),
            ))
            .unwrap();
            assert_eq!(
                uninterrupted, checkpointed,
                "writing checkpoints must not perturb the run"
            );
            // Two checkpoints at t=200 and t=400.
            let snap = dir.join("checkpoint-000001.snap");
            assert!(snap.exists(), "missing {snap:?}");
            let resumed = simulate(&args(&["--resume", snap.to_str().unwrap()])).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            let (report, last) = resumed.rsplit_once('\n').unwrap();
            assert_eq!(report, uninterrupted, "{extra:?}: resumed report diverged");
            assert!(last.starts_with("resumed run (fast): "), "{last}");
        }
    }

    #[test]
    fn simulate_scale_checkpoint_resume_matches_uninterrupted_json() {
        let dir = std::env::temp_dir().join("spnet_cli_ckpt_scale_test");
        std::fs::remove_dir_all(&dir).ok();
        let full_path = std::env::temp_dir().join("spnet_cli_ckpt_scale_full.json");
        let resumed_path = std::env::temp_dir().join("spnet_cli_ckpt_scale_resumed.json");
        let base = &[
            "--users",
            "4000",
            "--scale",
            "--duration",
            "120",
            "--seed",
            "5",
        ];
        simulate(&args(
            &[
                base as &[_],
                &["--metrics-json", full_path.to_str().unwrap()],
            ]
            .concat(),
        ))
        .unwrap();
        simulate(&args(
            &[
                base as &[_],
                &[
                    "--checkpoint-every",
                    "40",
                    "--checkpoint-dir",
                    dir.to_str().unwrap(),
                ],
            ]
            .concat(),
        ))
        .unwrap();
        let snap = dir.join("checkpoint-000001.snap");
        assert!(snap.exists(), "missing {snap:?}");
        // Resume at a different shard count than the run that produced
        // the checkpoint: the metrics JSON must still be byte-identical.
        let out = simulate(&args(&[
            "--resume",
            snap.to_str().unwrap(),
            "--shards",
            "3",
            "--metrics-json",
            resumed_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("scale run:"), "missing smoke line:\n{out}");
        let full = std::fs::read_to_string(&full_path).unwrap();
        let resumed = std::fs::read_to_string(&resumed_path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&full_path).ok();
        std::fs::remove_file(&resumed_path).ok();
        assert_eq!(
            full, resumed,
            "resumed scale metrics must be byte-identical"
        );
    }

    #[test]
    fn simulate_resume_conflicts_and_bad_snapshots_are_clean_errors() {
        let err = simulate(&args(&["--resume", "x.snap", "--users", "100"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--users"));
        let err = simulate(&args(&["--resume", "x.snap", "--crash-storm"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = simulate(&args(&["--resume", "/nonexistent/x.snap"])).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        let junk = std::env::temp_dir().join("spnet_cli_resume_junk_test.snap");
        std::fs::write(&junk, b"not a snapshot at all").unwrap();
        let err = simulate(&args(&["--resume", junk.to_str().unwrap()])).unwrap_err();
        std::fs::remove_file(&junk).ok();
        assert_eq!(err.exit_code(), 1);
        // --checkpoint-dir alone is inert and therefore rejected.
        let err = simulate(&args(&["--users", "100", "--checkpoint-dir", "d"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--checkpoint-every"));
    }

    #[test]
    fn simulate_overload_reports_ledger_and_manifest() {
        let out_path = std::env::temp_dir().join("spnet_cli_overload_manifest_test.json");
        let out = simulate(&args(&[
            "--users",
            "120",
            "--cluster",
            "12",
            "--lifespan",
            "500",
            "--duration",
            "600",
            "--seed",
            "3",
            "--query-rate",
            "0.05",
            "--overload",
            "--metrics-json",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            out.contains("overload delivered / shed / rejected"),
            "{out}"
        );
        assert!(out.contains("response latency p50 / p99"), "{out}");
        assert!(out.contains("\noverload run: delivered"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        std::fs::remove_file(&out_path).ok();
        assert!(
            json.contains("\"overload_active\": true"),
            "manifest inactive"
        );
        assert!(json.contains("\"service_rate\""), "policy missing");
        assert!(
            json.contains("\"timeline\": [{\"t\": "),
            "queue-depth/utilization timeline missing"
        );
    }

    #[test]
    fn simulate_overload_policy_file_drives_the_run() {
        let policy = OverloadPolicy {
            service_rate: 0.5,
            queue_capacity: 4,
            ..OverloadPolicy::default()
        };
        let path = std::env::temp_dir().join("spnet_cli_overload_policy_test.json");
        std::fs::write(&path, policy.to_json()).unwrap();
        let out = simulate(&args(&[
            "--users",
            "100",
            "--cluster",
            "10",
            "--duration",
            "400",
            "--overload-policy",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("overload run:"), "{out}");
    }

    #[test]
    fn simulate_overload_conflicts_and_bad_policies_are_usage_errors() {
        let policy_path = std::env::temp_dir().join("spnet_cli_overload_conflict_test.json");
        std::fs::write(&policy_path, "{\"service_rate\": 1.0}").unwrap();
        let policy = policy_path.to_str().unwrap();
        for words in [
            &["--users", "100", "--overload", "--overload-policy", policy][..],
            &["--users", "100", "--overload", "--trials", "2"],
            &["--users", "100", "--overload", "--reliability"],
            &["--users", "100", "--overload", "--crash-storm"],
        ] {
            let err = simulate(&args(words)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{words:?} must be usage: {err}");
        }
        // A scenario plan embeds its own policy, so the flags conflict.
        let sc_path = std::env::temp_dir().join("spnet_cli_overload_scenario_test.json");
        std::fs::write(&sc_path, ScenarioPlan::default().to_json()).unwrap();
        let err = simulate(&args(&[
            "--users",
            "100",
            "--scenario",
            sc_path.to_str().unwrap(),
            "--overload",
        ]))
        .unwrap_err();
        std::fs::remove_file(&sc_path).ok();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--overload"), "{err}");
        // Malformed and empty policies are rejected by name.
        let bad = std::env::temp_dir().join("spnet_cli_overload_bad_test.json");
        std::fs::write(&bad, "{\"discipline\": \"lifo\"}").unwrap();
        let err = simulate(&args(&[
            "--users",
            "100",
            "--overload-policy",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("unknown discipline"), "{err}");
        std::fs::write(&bad, "{}").unwrap();
        let err = simulate(&args(&[
            "--users",
            "100",
            "--overload-policy",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        std::fs::remove_file(&bad).ok();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("empty policy"), "{err}");
        std::fs::remove_file(&policy_path).ok();
    }

    #[test]
    fn simulate_resume_rejects_overload_onto_plain_snapshot_by_name() {
        let dir = std::env::temp_dir().join("spnet_cli_ckpt_overload_reject_test");
        std::fs::remove_dir_all(&dir).ok();
        simulate(&args(&[
            "--users",
            "100",
            "--cluster",
            "10",
            "--duration",
            "600",
            "--checkpoint-every",
            "300",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let snap = dir.join("checkpoint-000000.snap");
        assert!(snap.exists(), "missing {snap:?}");
        let err = simulate(&args(&["--resume", snap.to_str().unwrap(), "--overload"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "must be usage: {err}");
        assert!(
            err.to_string().contains("without an overload policy"),
            "{err}"
        );
        // An explicit policy can never ride a resume (snapshot wins).
        let err = simulate(&args(&[
            "--resume",
            snap.to_str().unwrap(),
            "--overload-policy",
            "p.json",
        ]))
        .unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("drop --overload-policy"), "{err}");
    }

    #[test]
    fn simulate_overload_checkpoint_resume_matches_uninterrupted() {
        let dir = std::env::temp_dir().join("spnet_cli_ckpt_overload_test");
        std::fs::remove_dir_all(&dir).ok();
        let base = &[
            "--users",
            "100",
            "--cluster",
            "10",
            "--lifespan",
            "500",
            "--duration",
            "600",
            "--seed",
            "11",
            "--query-rate",
            "0.05",
            "--overload",
        ];
        let uninterrupted = simulate(&args(base)).unwrap();
        simulate(&args(
            &[
                base as &[_],
                &[
                    "--checkpoint-every",
                    "200",
                    "--checkpoint-dir",
                    dir.to_str().unwrap(),
                ],
            ]
            .concat(),
        ))
        .unwrap();
        let snap = dir.join("checkpoint-000001.snap");
        assert!(snap.exists(), "missing {snap:?}");
        // `--overload` on resume is a (satisfied) assertion here.
        let resumed = simulate(&args(&["--resume", snap.to_str().unwrap(), "--overload"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let smoke = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("overload run:") || l.starts_with("resumed run"))
                .map(str::to_string)
        };
        assert!(smoke(&uninterrupted).is_some(), "{uninterrupted}");
        // The resumed table reports the same core metrics.
        let field = |out: &str, label: &str| -> String {
            out.lines()
                .find(|l| l.contains(label))
                .unwrap_or_else(|| panic!("no {label} row in:\n{out}"))
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        };
        for label in ["queries simulated", "results per query", "availability"] {
            assert_eq!(
                field(&uninterrupted, label),
                field(&resumed, label),
                "resume diverged on {label}"
            );
        }
    }

    #[test]
    fn simulate_scale_overload_smoke_is_shard_invariant() {
        let a_path = std::env::temp_dir().join("spnet_cli_scale_overload_a.json");
        let b_path = std::env::temp_dir().join("spnet_cli_scale_overload_b.json");
        let base = &[
            "--users",
            "4000",
            "--scale",
            "--duration",
            "120",
            "--seed",
            "5",
            "--query-rate",
            "0.05",
            "--overload",
        ];
        let one = simulate(&args(
            &[
                base as &[_],
                &["--shards", "1", "--metrics-json", a_path.to_str().unwrap()],
            ]
            .concat(),
        ))
        .unwrap();
        let two = simulate(&args(
            &[
                base as &[_],
                &["--shards", "2", "--metrics-json", b_path.to_str().unwrap()],
            ]
            .concat(),
        ))
        .unwrap();
        assert!(one.contains(", overload delivered"), "{one}");
        let smoke = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("scale run:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(smoke(&one), smoke(&two), "overload smoke line diverged");
        let a = std::fs::read_to_string(&a_path).unwrap();
        let b = std::fs::read_to_string(&b_path).unwrap();
        std::fs::remove_file(&a_path).ok();
        std::fs::remove_file(&b_path).ok();
        assert!(a.contains("\"ov_delivered\""), "ov counters missing");
        assert_eq!(a, b, "scale overload metrics must be shard invariant");
    }

    #[test]
    fn simulate_scale_injected_shard_panic_exits_with_diagnostics() {
        let err = simulate(&args(&[
            "--users",
            "4000",
            "--scale",
            "--shards",
            "2",
            "--duration",
            "120",
            "--inject-shard-panic",
            "1:40",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1, "a dead shard must fail the run");
        let msg = err.to_string();
        assert!(
            msg.contains("shard 1"),
            "diagnostics must name the shard: {msg}"
        );
        assert!(
            msg.contains("tick 40"),
            "diagnostics must name the tick: {msg}"
        );
        // Without --scale the supervisor options are usage errors.
        let err = simulate(&args(&["--users", "100", "--inject-shard-panic", "0:1"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err =
            simulate(&args(&["--users", "100", "--barrier-timeout-ticks", "50"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        // Malformed spec.
        let err = simulate(&args(&[
            "--users",
            "100",
            "--scale",
            "--inject-shard-panic",
            "nope",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("SHARD:TICK"));
    }

    #[test]
    fn campaign_quarantines_injected_panic_and_resume_completes() {
        let dir = std::env::temp_dir().join("spnet_cli_campaign_quarantine_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("report.json");
        let repro_dir = dir.join("repros");
        let base = &[
            "--count",
            "3",
            "--seed",
            "11",
            "--users",
            "60",
            "--cluster",
            "10",
            "--duration",
            "300",
            "--threads",
            "1",
        ];
        let err = campaign(&args(
            &[
                base as &[_],
                &[
                    "--inject-panic",
                    "1",
                    "--report",
                    report_path.to_str().unwrap(),
                    "--repro-dir",
                    repro_dir.to_str().unwrap(),
                ],
            ]
            .concat(),
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1, "quarantined panics must fail the gate");
        assert!(err.to_string().contains("quarantined"));
        assert!(repro_dir.join("quarantine_1.json").exists());
        assert!(repro_dir.join("quarantine_1.snap").exists());
        let report = std::fs::read_to_string(&report_path).unwrap();
        assert!(report.contains("injected campaign panic"));
        assert!(report.contains("\"completed\""));
        // Resuming from the partial report (without the inject hook)
        // re-runs only the quarantined scenario and comes out green
        // with the same fingerprint as an uninterrupted campaign.
        let clean = campaign(&args(base)).unwrap();
        let resumed = campaign(&args(&["--resume", report_path.to_str().unwrap()])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let fp = |out: &str| -> String {
            out.lines()
                .find(|l| l.contains("fingerprint"))
                .expect("fingerprint row")
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(
            fp(&clean),
            fp(&resumed),
            "resumed campaign must reproduce the uninterrupted fingerprint"
        );
        // Option overrides alongside --resume are conflicts.
        let err = campaign(&args(&["--resume", "r.json", "--count", "5"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--count"));
    }
}
