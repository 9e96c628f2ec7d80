//! The four workloads and their untraced and traced runs.
//!
//! Each workload drives one engine through its public API with inputs
//! made from the seed alone:
//!
//! * `analyze` — the mean-value analysis behind every paper figure and
//!   `spnet evaluate/design/sweep`: one power-law instance, every
//!   source flooded, one worker thread.
//! * `flash-crowd` — the churn engine under a 10× query crowd with the
//!   capacity-sized overload policy: read-heavy, the query path and
//!   `sp_sim::overload` dominate.
//! * `churn-storm` — the churn engine at k = 2 under a crash storm,
//!   a churn burst and a mass leave with repair on, at a short TTL:
//!   membership handlers and the event queue carry the weight.
//! * `scale` — the sharded engine on a million-peer overlay with one
//!   shard per vCPU, so the tick-barrier exchange is on the path.

use std::time::Instant;

use sp_graph::FloodScratch;
use sp_model::analysis::{analyze, AnalysisOptions, AnalysisResult};
use sp_model::config::Config;
use sp_model::instance::NetworkInstance;
use sp_model::overload::OverloadPolicy;
use sp_model::query_model::QueryModel;
use sp_model::repair::RepairPolicy;
use sp_model::scenario::{PhaseKind, PhaseSpec, ScenarioPlan};
use sp_sim::metrics::EventKind;
use sp_sim::scenario::crash_storm_plan;
use sp_sim::{ScaleOptions, ShardedSimulation, SimOptions, Simulation};
use sp_stats::SpRng;

use crate::check::{self, Tally};
use crate::measure::{count_allocs, median, peak_rss_mb, timed};
use crate::trace::Trace;

/// The seed whose outputs have pinned fingerprints.
pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Analyze,
    FlashCrowd,
    ChurnStorm,
    Scale,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Analyze,
        Workload::FlashCrowd,
        Workload::ChurnStorm,
        Workload::Scale,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Analyze => "analyze",
            Workload::FlashCrowd => "flash-crowd",
            Workload::ChurnStorm => "churn-storm",
            Workload::Scale => "scale",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fingerprint of the workload's outputs on [`DEFAULT_SEED`].
    fn pinned(self, seed: u64) -> Option<u64> {
        (seed == DEFAULT_SEED).then_some(match self {
            Workload::Analyze => 0x893f_1c7d_3911_fe47,
            Workload::FlashCrowd => 0x2f54_2d9a_da0d_c331,
            Workload::ChurnStorm => 0x1e70_88ac_c18e_cd61,
            Workload::Scale => 0x5895_d8d9_c243_6199,
        })
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not reach reads 0 there.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("instance.generate_s", "s"),
    ("instance.generate_share", "ratio"),
    ("traverse.flood_s", "s"),
    ("traverse.flood_share", "ratio"),
    ("traverse.reached", "count"),
    ("traverse.ns_per_reached", "ns"),
    ("analysis.analyze_s", "s"),
    ("analysis.charge_s", "s"),
    ("analysis.allocs", "count"),
    ("engine.query.n", "count"),
    ("engine.query.s", "s"),
    ("engine.join.n", "count"),
    ("engine.join.s", "s"),
    ("engine.leave.n", "count"),
    ("engine.leave.s", "s"),
    ("engine.update.n", "count"),
    ("engine.update.s", "s"),
    ("engine.rejoin.n", "count"),
    ("engine.rejoin.s", "s"),
    ("engine.recruit.n", "count"),
    ("engine.recruit.s", "s"),
    ("engine.repair.n", "count"),
    ("engine.repair.s", "s"),
    ("engine.sample.n", "count"),
    ("engine.sample.s", "s"),
    ("engine.fault.n", "count"),
    ("engine.fault.s", "s"),
    ("engine.phase.n", "count"),
    ("engine.phase.s", "s"),
    ("engine.window_before_s", "s"),
    ("engine.window_during_s", "s"),
    ("engine.window_after_s", "s"),
    ("engine.events", "count"),
    ("engine.allocs", "count"),
    ("events.dispatch_s", "s"),
    ("events.dispatch_share", "ratio"),
    ("events.cancelled", "count"),
    ("events.stale", "count"),
    ("events.queue_high_water", "count"),
    ("events.useful_ratio", "ratio"),
    ("overload.delivered", "count"),
    ("overload.shed", "count"),
    ("overload.rejected", "count"),
    ("overload.peak_depth", "count"),
    ("overload.brownout_entries", "count"),
    ("faults.retries", "count"),
    ("faults.failovers", "count"),
    ("faults.lost", "count"),
    ("repair.promotions", "count"),
    ("repair.recruitments", "count"),
    ("shard.events", "count"),
    ("shard.cross_msgs", "count"),
    ("shard.intra_msgs", "count"),
    ("shard.queue_high_water", "count"),
    ("shard.two_shard_cpu_s", "s"),
    ("shard.one_shard_cpu_s", "s"),
    ("shard.coord_cpu_s", "s"),
    ("shard.coord_share", "ratio"),
    ("shard.ns_per_event", "ns"),
    ("shard.allocs", "count"),
    ("trace.overhead_s", "s"),
];

/// The event kinds whose handler time the churn workloads report.
const HANDLERS: [(EventKind, &str, &str); 10] = [
    (EventKind::Query, "engine.query.n", "engine.query.s"),
    (EventKind::Join, "engine.join.n", "engine.join.s"),
    (EventKind::Leave, "engine.leave.n", "engine.leave.s"),
    (EventKind::Update, "engine.update.n", "engine.update.s"),
    (EventKind::Rejoin, "engine.rejoin.n", "engine.rejoin.s"),
    (EventKind::Recruit, "engine.recruit.n", "engine.recruit.s"),
    (EventKind::Repair, "engine.repair.n", "engine.repair.s"),
    (EventKind::Sample, "engine.sample.n", "engine.sample.s"),
    (EventKind::Fault, "engine.fault.n", "engine.fault.s"),
    (EventKind::Phase, "engine.phase.n", "engine.phase.s"),
];

/// A run makes at least this many repetitions, however long they take.
const MIN_REPS: usize = 3;
/// The measured phase stops after this long whatever `--seconds` says,
/// so a run ends well inside its time limit.
const MAX_MEASURE_S: f64 = 120.0;
/// Set-up is timed this many times after every repetition...
const SETUP_PER_REP: usize = 8;
/// ...in samples of at least this long (tiny constructions are batched).
const SETUP_SAMPLE_S: f64 = 0.002;

/// What a run prints: how many repetitions were attempted and failed,
/// and its metrics in print order.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn from_tally<S>(tally: Tally<S>, metrics: Vec<(&'static str, f64, &'static str)>) -> Self {
        // A run with a failed check reports no timings.
        let metrics = if tally.failed == 0 {
            metrics
        } else {
            Vec::new()
        };
        Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            errors: tally.errors,
            metrics,
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

// ---- Inputs ------------------------------------------------------------

/// 10 000 clusters of 10 on a PLOD overlay (outdegree 3.1), TTL 7.
fn analyze_config() -> Config {
    Config {
        graph_size: 100_000,
        cluster_size: 10,
        ttl: 7,
        ..Config::default()
    }
}

fn analyze_options() -> AnalysisOptions {
    AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    }
}

/// Simulated seconds of the churn workloads. The disturbance window
/// (crowd, storm, burst) covers the middle 60 % of the run.
const FLASH_CROWD_SECS: f64 = 480.0;
const CHURN_STORM_SECS: f64 = 1800.0;
const DISTURBED: (f64, f64) = (0.2, 0.8);

/// A churn workload: configuration, engine options, and scenario plan.
struct Churn {
    config: Config,
    opts: SimOptions,
    plan: ScenarioPlan,
}

impl Churn {
    fn new(w: Workload, seed: u64) -> Churn {
        let (config, duration, plan) = match w {
            Workload::FlashCrowd => {
                let config = Config::default();
                let mut plan = ScenarioPlan::default();
                plan.phases.push(PhaseSpec {
                    from_secs: DISTURBED.0 * FLASH_CROWD_SECS,
                    until_secs: DISTURBED.1 * FLASH_CROWD_SECS,
                    rate_mult: 1.0,
                    kind: PhaseKind::FlashCrowd {
                        query_rate_mult: 10.0,
                        hot_shift: 0,
                    },
                });
                plan.overload = OverloadPolicy::sized_for(&config);
                (config, FLASH_CROWD_SECS, plan)
            }
            Workload::ChurnStorm => {
                // The paper's rule 4 ("minimize TTL") moves the weight
                // from flooding to membership handling.
                let config = Config {
                    graph_size: 40_000,
                    ttl: 2,
                    ..Config::default()
                }
                .with_redundancy(true);
                let d = CHURN_STORM_SECS;
                let mut plan = ScenarioPlan {
                    faults: crash_storm_plan(d),
                    repair: RepairPolicy::PromotePartner,
                    ..ScenarioPlan::default()
                };
                plan.phases.push(PhaseSpec {
                    from_secs: DISTURBED.0 * d,
                    until_secs: DISTURBED.1 * d,
                    rate_mult: 1.0,
                    kind: PhaseKind::ChurnBurst {
                        lifespan_mult: 0.05,
                    },
                });
                plan.phases.push(PhaseSpec {
                    from_secs: 0.6 * d,
                    until_secs: 0.65 * d,
                    rate_mult: 1.0,
                    kind: PhaseKind::MassLeave { fraction: 0.25 },
                });
                (config, d, plan)
            }
            _ => unreachable!("{} is not a churn workload", w.name()),
        };
        plan.validate().expect("benchmark scenario validates");
        let opts = SimOptions {
            duration_secs: duration,
            seed,
            fault_seed: seed,
            scenario_seed: seed,
            ..SimOptions::default()
        };
        Churn { config, opts, plan }
    }

    fn build(&self, profile: bool) -> Simulation {
        let opts = SimOptions {
            profile,
            ..self.opts
        };
        Simulation::with_scenario(&self.config, opts, &self.plan)
    }

    fn overload_active(&self) -> bool {
        !self.plan.overload.is_empty()
    }

    fn check<S>(&self, tally: &mut Tally<S>, m: &sp_sim::engine::RawMetrics, sample: S) {
        let v = check::churn_violations(m, self.overload_active());
        tally.record(check::churn_fingerprint(m), v, sample);
    }
}

/// The million-peer overlay (TTL 3) on one shard per vCPU.
const SCALE_PEERS: usize = 1_000_000;
const SCALE_SHARDS: usize = 2;
const SCALE_SECS: f64 = 120.0;

fn scale_options(seed: u64, shards: usize) -> ScaleOptions {
    ScaleOptions {
        duration_secs: SCALE_SECS,
        seed,
        fault_seed: seed,
        shards,
        ..ScaleOptions::default()
    }
}

fn generate(config: &Config, seed: u64) -> NetworkInstance {
    NetworkInstance::generate(config, &mut SpRng::seed_from_u64(seed)).expect("valid configuration")
}

fn run_analysis(inst: &NetworkInstance, seed: u64) -> AnalysisResult {
    let model = QueryModel::from_config(&inst.config.query_model);
    analyze(
        inst,
        &model,
        &analyze_options(),
        &mut SpRng::seed_from_u64(seed),
    )
}

// ---- Untraced runs -----------------------------------------------------

/// Per-construction set-up times. Samples are taken after every
/// repetition of the run, so set-up is timed over the same stretch of
/// time as the run itself, and their number does not depend on timing,
/// so every run of a seed makes the same sequence of allocations.
/// Constructions shorter than [`SETUP_SAMPLE_S`] (only the scale
/// engine's) are timed in batches; outputs are dropped outside the
/// timed region.
struct SetupTimes {
    batch: usize,
    times: Vec<f64>,
}

impl SetupTimes {
    fn calibrate<T>(construct: &mut impl FnMut() -> T) -> Self {
        let t = Instant::now();
        drop(construct());
        let once = t.elapsed().as_secs_f64().max(1e-9);
        SetupTimes {
            batch: ((SETUP_SAMPLE_S / once).ceil() as usize).clamp(1, 1_000_000),
            times: Vec::new(),
        }
    }

    fn sample<T>(&mut self, construct: &mut impl FnMut() -> T) {
        let mut kept = Vec::with_capacity(self.batch);
        for _ in 0..SETUP_PER_REP {
            let t = Instant::now();
            for _ in 0..self.batch {
                kept.push(construct());
            }
            let secs = t.elapsed().as_secs_f64();
            kept.clear();
            self.times.push(secs / self.batch as f64);
        }
    }
}

/// Repeats `rep` for about `seconds` and at least [`MIN_REPS`] times:
/// it stops once one more repetition would overshoot `seconds` by more
/// than stopping now falls short of it.
fn repeat(seconds: f64, mut rep: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0.0;
    loop {
        rep();
        n += 1.0;
        let elapsed = start.elapsed().as_secs_f64();
        let next_mid = elapsed + 0.5 * elapsed / n;
        if (n >= MIN_REPS as f64 && next_mid >= seconds) || elapsed >= MAX_MEASURE_S {
            break;
        }
    }
}

fn end_to_end(
    setup: &SetupTimes,
    samples: &[(f64, f64)],
    peak_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let wall: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let cpu: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let values = [median(&setup.times), median(&wall), median(&cpu), peak_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// One untraced run: the workload repeated for about `seconds`, with
/// set-up timed after every repetition; reports medians. Peak memory
/// is read after the first repetition, which follows one construction:
/// later repetitions in the same process can only raise it through
/// allocator reuse, which a single execution of the workload never
/// sees.
pub fn measure(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut tally = Tally::new(w.pinned(seed));
    let mut peak_mb = None;
    let mut progress = |tally: &Tally<(f64, f64)>, (wall, cpu): (f64, f64)| {
        let peak = *peak_mb.get_or_insert_with(peak_rss_mb);
        eprintln!(
            "{}: run {} {wall:.4} s wall, {cpu:.4} s cpu, peak {peak:.1} MB",
            w.name(),
            tally.attempted
        );
    };
    let setup = match w {
        Workload::Analyze => {
            let config = analyze_config();
            let mut build = || generate(&config, seed);
            let mut setup = SetupTimes::calibrate(&mut build);
            let inst = build();
            repeat(seconds, || {
                let (r, wall, cpu) = timed(|| run_analysis(&inst, seed));
                let m = r.metrics;
                tally.record(
                    check::analysis_fingerprint(&m),
                    check::analysis_violations(&m),
                    (wall, cpu),
                );
                progress(&tally, (wall, cpu));
                setup.sample(&mut build);
            });
            setup
        }
        Workload::FlashCrowd | Workload::ChurnStorm => {
            let churn = Churn::new(w, seed);
            let mut build = || churn.build(false);
            let mut setup = SetupTimes::calibrate(&mut build);
            repeat(seconds, || {
                let mut sim = build();
                let (m, wall, cpu) = timed(|| sim.run());
                drop(sim);
                churn.check(&mut tally, &m, (wall, cpu));
                progress(&tally, (wall, cpu));
                setup.sample(&mut build);
            });
            setup
        }
        Workload::Scale => {
            let config = Config::scale_preset(SCALE_PEERS);
            let opts = scale_options(seed, SCALE_SHARDS);
            let mut build = || ShardedSimulation::new(&config, opts);
            let mut setup = SetupTimes::calibrate(&mut build);
            let mut sim = build();
            repeat(seconds, || {
                let (m, wall, cpu) = timed(|| sim.run());
                tally.record(
                    check::scale_fingerprint(&m),
                    check::scale_violations(&m, None),
                    (wall, cpu),
                );
                progress(&tally, (wall, cpu));
                setup.sample(&mut build);
            });
            setup
        }
    };
    if let Some(fp) = tally.fingerprint() {
        eprintln!("{}: seed {seed} output fingerprint {fp:#018x}", w.name());
    }
    let metrics = end_to_end(&setup, &tally.passed, peak_mb.unwrap_or(0.0));
    Outcome::from_tally(tally, metrics)
}

// ---- Traced runs -------------------------------------------------------

/// Per-layer metric values of one traced run; unset layers read 0.
struct Layers(Vec<(&'static str, f64, &'static str)>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|(n, _, _)| *n == name);
        slot.unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
            .1 = value;
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// One traced run: spans around every public call, the engines'
/// existing counters and profile timers, and the subtraction probes.
/// An untraced repetition runs right before the traced one so the
/// difference is the tracing overhead.
pub fn traced(w: Workload, seed: u64) -> (Outcome, Trace) {
    let mut t = Trace::new(w.name(), seed);
    let mut tally: Tally<()> = Tally::new(w.pinned(seed));
    let mut l = Layers::new();
    match w {
        Workload::Analyze => {
            let config = analyze_config();
            let (inst, gen_s) = t.span("NetworkInstance::generate", || generate(&config, seed));
            l.set("instance.generate_s", gen_s);
            l.set("instance.generate_share", 1.0);

            let (base, base_s, _) = timed(|| run_analysis(&inst, seed));
            let m = base.metrics;
            tally.record(
                check::analysis_fingerprint(&m),
                check::analysis_violations(&m),
                (),
            );
            drop(base);

            let ((r, allocs), analyze_s) =
                t.span("analyze", || count_allocs(|| run_analysis(&inst, seed)));
            let m = r.metrics;
            tally.record(
                check::analysis_fingerprint(&m),
                check::analysis_violations(&m),
                (),
            );
            drop(r);
            // Probe: the same floods alone, right after the call they attribute.
            let (reached, flood_s) =
                t.span("probe:Topology::flood_into", || flood_every_source(&inst));
            l.set("analysis.analyze_s", analyze_s);
            l.set("analysis.allocs", allocs as f64);
            l.set("traverse.flood_s", flood_s);
            l.set("traverse.flood_share", share(flood_s, analyze_s));
            l.set("traverse.reached", reached as f64);
            l.set("traverse.ns_per_reached", flood_s * 1e9 / reached as f64);
            l.set("analysis.charge_s", analyze_s - flood_s);
            l.set("trace.overhead_s", analyze_s - base_s);
        }
        Workload::FlashCrowd | Workload::ChurnStorm => {
            let churn = Churn::new(w, seed);
            // Probe: the engine generates this instance inside its
            // constructor; generate it alone right before.
            let (_, gen_s) = t.span("probe:NetworkInstance::generate", || {
                generate(&churn.config, seed)
            });
            let (mut sim, build_s) = t.span("Simulation::with_scenario", || churn.build(true));
            l.set("instance.generate_s", gen_s);
            l.set("instance.generate_share", share(gen_s, build_s));

            let mut base = churn.build(false);
            let (m, base_s, base_cpu) = timed(|| base.run());
            churn.check(&mut tally, &m, ());
            drop(base);

            let d = churn.opts.duration_secs;
            let run = t.begin("run");
            let ((m, allocs), run_s, _) = timed(|| {
                count_allocs(|| {
                    let ((), before) =
                        t.span("Simulation::run_to(before)", || sim.run_to(DISTURBED.0 * d));
                    let ((), during) =
                        t.span("Simulation::run_to(during)", || sim.run_to(DISTURBED.1 * d));
                    let (m, after) = t.span("Simulation::run(after)", || sim.run());
                    l.set("engine.window_before_s", before);
                    l.set("engine.window_during_s", during);
                    l.set("engine.window_after_s", after);
                    m
                })
            });
            t.end(run);
            churn.check(&mut tally, &m, ());

            let obs = sim.observability();
            for (kind, n, s) in HANDLERS {
                l.set(n, obs.delivered_of(kind) as f64);
                l.set(s, obs.wall[kind as usize].total_ns() as f64 * 1e-9);
            }
            let handler_s: f64 = obs.wall.iter().map(|h| h.total_ns() as f64 * 1e-9).sum();
            let events = obs.delivered_total();
            let attempts = events + obs.cancelled + obs.stale;
            l.set("engine.events", events as f64);
            l.set("engine.allocs", allocs as f64);
            l.set("events.dispatch_s", run_s - handler_s);
            l.set("events.dispatch_share", share(run_s - handler_s, run_s));
            l.set("events.cancelled", obs.cancelled as f64);
            l.set("events.stale", obs.stale as f64);
            l.set("events.queue_high_water", obs.queue_high_water as f64);
            l.set("events.useful_ratio", share(events as f64, attempts as f64));
            let (f, ov, rp) = (&m.faults, &m.overload, &m.repair);
            l.set("overload.delivered", ov.delivered as f64);
            l.set(
                "overload.shed",
                (ov.shed_discipline + ov.shed_dead + ov.shed_residual) as f64,
            );
            l.set(
                "overload.rejected",
                (ov.rejected_queue + ov.rejected_budget) as f64,
            );
            l.set("overload.peak_depth", ov.peak_depth as f64);
            l.set("overload.brownout_entries", ov.brownout_entries as f64);
            l.set("faults.retries", f.recovered_retry as f64);
            l.set("faults.failovers", f.recovered_failover as f64);
            l.set("faults.lost", f.queries_lost as f64);
            l.set("repair.promotions", rp.promotions as f64);
            l.set("repair.recruitments", rp.partner_recruitments as f64);
            l.set("trace.overhead_s", run_s - base_s);
            eprintln!(
                "{}: untraced run {base_s:.4} s wall, {base_cpu:.4} s cpu",
                w.name()
            );
        }
        Workload::Scale => {
            let config = Config::scale_preset(SCALE_PEERS);
            let opts = scale_options(seed, SCALE_SHARDS);
            let (mut sim, _) = t.span("ShardedSimulation::new", || {
                ShardedSimulation::new(&config, opts)
            });

            let (m, base_s, _) = timed(|| sim.run());
            tally.record(
                check::scale_fingerprint(&m),
                check::scale_violations(&m, None),
                (),
            );

            let ((m, allocs), run_s, cpu2) = t
                .span("ShardedSimulation::run", || {
                    timed(|| count_allocs(|| sim.run()))
                })
                .0;
            let diag = *sim.diag();
            // Probe: the same run on one shard, right after; its CPU
            // time is the run without the barrier exchange.
            let mut one = ShardedSimulation::new(&config, scale_options(seed, 1));
            let (m1, _, cpu1) = t
                .span("probe:ShardedSimulation::run(1 shard)", || {
                    timed(|| one.run())
                })
                .0;
            tally.record(
                check::scale_fingerprint(&m),
                check::scale_violations(&m, Some(&m1)),
                (),
            );

            let events = m.events_processed();
            l.set("shard.events", events as f64);
            l.set("shard.cross_msgs", diag.cross_shard_msgs as f64);
            l.set("shard.intra_msgs", diag.intra_shard_msgs as f64);
            l.set("shard.queue_high_water", diag.queue_high_water as f64);
            l.set("shard.two_shard_cpu_s", cpu2);
            l.set("shard.one_shard_cpu_s", cpu1);
            l.set("shard.coord_cpu_s", cpu2 - cpu1);
            l.set("shard.coord_share", share(cpu2 - cpu1, cpu2));
            l.set("shard.ns_per_event", cpu2 * 1e9 / events as f64);
            l.set("shard.allocs", allocs as f64);
            l.set("trace.overhead_s", run_s - base_s);
        }
    }
    (Outcome::from_tally(tally, l.0), t)
}

/// Floods every source cluster once with the instance's TTL, as the
/// analysis does, and returns the clusters reached in total.
fn flood_every_source(inst: &NetworkInstance) -> u64 {
    let mut scratch = FloodScratch::new();
    let mut reached = 0u64;
    for src in 0..inst.num_clusters() as u32 {
        inst.topology.flood_into(&mut scratch, src, inst.config.ttl);
        reached += scratch.reach() as u64;
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly the
    /// workloads and metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names("per_layer"), layers);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
