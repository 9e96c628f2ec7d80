//! Packaged experiments over the simulation engine.
//!
//! * [`steady_state`] — measure per-role loads from real message
//!   traffic under churn; used to validate the mean-value analysis.
//! * [`reliability`] — the Section 3.2 redundancy claim: client
//!   availability and downtime with k = 1 versus k = 2 virtual
//!   super-peers under identical churn.
//! * [`adaptive`] — the Section 5.3 local rules in action: start from a
//!   deliberately bad configuration and watch the network reorganize.
//!
//! The steady-state, reliability, and crash-storm experiments also
//! have *sharded trials* variants ([`steady_trials`],
//! [`reliability_trials`], [`crash_storm_trials`]) built on
//! [`run_sim_trials`]: independent trials
//! fan out over the same thread-budget cascade as
//! `sp_model::run_trials`, each trial draws from its own RNG split,
//! and per-trial results are collected *by trial index* before
//! reduction — so the output is bitwise identical at any thread count
//! (the `Engine::Fast` contract, enforced by
//! `tests/sim_determinism.rs`).

use sp_model::config::Config;
use sp_model::faults::{FaultPlan, FaultSpec};
use sp_model::load::Load;
use sp_model::repair::RepairPolicy;
use sp_model::scenario::ScenarioPlan;
use sp_model::trials::fan_out;
use sp_stats::{ConfidenceInterval, OnlineStats, SpRng};

use crate::engine::{
    AdaptSettings, ForwardPolicy, RawMetrics, SimOptions, Simulation, TimelinePoint,
};

/// Adaptive-scenario options (re-exported engine settings).
pub type AdaptOptions = AdaptSettings;

/// Condensed report of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Mean partner load rate (bps/bps/Hz).
    pub sp_load: Load,
    /// Mean client load rate.
    pub client_load: Load,
    /// Mean results per query.
    pub results_per_query: f64,
    /// Queries simulated.
    pub queries: u64,
    /// Cluster failures (every partner gone).
    pub cluster_failures: u64,
    /// Client orphanings.
    pub orphan_events: u64,
    /// Client availability in [0, 1].
    pub availability: f64,
    /// Mean downtime per orphaning, seconds (0 if none).
    pub mean_downtime_secs: f64,
    /// Local-rule actions applied.
    pub adapt_actions: u64,
    /// Periodic samples of network shape.
    pub timeline: Vec<TimelinePoint>,
}

impl SimReport {
    /// Condenses raw engine metrics into the report shape.
    ///
    /// Public so callers that need both the report and the engine's
    /// [`RunManifest`](crate::metrics::RunManifest) (e.g. `spnet
    /// simulate --metrics-json`) can drive [`Simulation`] themselves
    /// and still produce the standard summary.
    pub fn from_raw(m: RawMetrics) -> Self {
        let mean = |s: &OnlineStats| s.mean();
        SimReport {
            sp_load: Load {
                in_bw: mean(&m.sp_in),
                out_bw: mean(&m.sp_out),
                proc: mean(&m.sp_proc),
            },
            client_load: Load {
                in_bw: mean(&m.client_in),
                out_bw: mean(&m.client_out),
                proc: mean(&m.client_proc),
            },
            results_per_query: m.results.mean(),
            queries: m.queries,
            cluster_failures: m.cluster_failures,
            orphan_events: m.orphan_events,
            availability: m.availability(),
            mean_downtime_secs: m.downtime.mean(),
            adapt_actions: m.adapt_actions,
            timeline: m.timeline,
        }
    }
}

/// Runs the plain steady-state scenario.
pub fn steady_state(config: &Config, duration_secs: f64, seed: u64) -> SimReport {
    let mut sim = Simulation::new(
        config,
        SimOptions {
            duration_secs,
            seed,
            ..Default::default()
        },
    );
    SimReport::from_raw(sim.run())
}

/// Reliability comparison: the same configuration and churn, with and
/// without 2-redundancy.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityComparison {
    /// Availability with a single super-peer per cluster.
    pub availability_k1: f64,
    /// Availability with 2-redundant virtual super-peers.
    pub availability_k2: f64,
    /// Cluster failures with k = 1.
    pub failures_k1: u64,
    /// Cluster failures with k = 2.
    pub failures_k2: u64,
    /// Mean client downtime per orphaning with k = 1, seconds.
    pub downtime_k1: f64,
    /// Mean client downtime per orphaning with k = 2, seconds.
    pub downtime_k2: f64,
}

/// Runs the Section 3.2 reliability experiment.
pub fn reliability(config: &Config, duration_secs: f64, seed: u64) -> ReliabilityComparison {
    let run = |cfg: &Config| {
        let mut sim = Simulation::new(
            cfg,
            SimOptions {
                duration_secs,
                seed,
                ..Default::default()
            },
        );
        SimReport::from_raw(sim.run())
    };
    let k1 = run(&config.clone().with_redundancy(false));
    let k2 = run(&config.clone().with_redundancy(true));
    ReliabilityComparison {
        availability_k1: k1.availability,
        availability_k2: k2.availability,
        failures_k1: k1.cluster_failures,
        failures_k2: k2.cluster_failures,
        downtime_k1: k1.mean_downtime_secs,
        downtime_k2: k2.mean_downtime_secs,
    }
}

/// Flooding vs bounded-fanout forwarding on the same network: the
/// routing protocol is orthogonal to the super-peer design (Section 2),
/// trading reach/results for load.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingComparison {
    /// Results per query under full flooding.
    pub results_flood: f64,
    /// Results per query under bounded fanout.
    pub results_subset: f64,
    /// Mean super-peer total bandwidth under full flooding (bps).
    pub sp_bw_flood: f64,
    /// Mean super-peer total bandwidth under bounded fanout (bps).
    pub sp_bw_subset: f64,
    /// The fanout compared.
    pub fanout: usize,
}

/// Runs the routing-policy comparison.
pub fn routing(config: &Config, fanout: usize, duration_secs: f64, seed: u64) -> RoutingComparison {
    let run = |policy: ForwardPolicy| {
        let mut sim = Simulation::new(
            config,
            SimOptions {
                duration_secs,
                seed,
                forward_policy: policy,
                ..Default::default()
            },
        );
        SimReport::from_raw(sim.run())
    };
    let flood = run(ForwardPolicy::FloodAll);
    let subset = run(ForwardPolicy::RandomSubset { fanout });
    RoutingComparison {
        results_flood: flood.results_per_query,
        results_subset: subset.results_per_query,
        sp_bw_flood: flood.sp_load.total_bw(),
        sp_bw_subset: subset.sp_load.total_bw(),
        fanout,
    }
}

/// The canonical crash-storm fault plan for a run of the given length:
/// two waves each crashing a quarter of the live super-peers, inside a
/// long message-loss window that stresses the submission retry path.
pub fn crash_storm_plan(duration_secs: f64) -> FaultPlan {
    FaultPlan {
        faults: vec![
            FaultSpec::CrashFraction {
                at_secs: duration_secs * 0.25,
                fraction: 0.25,
            },
            FaultSpec::CrashFraction {
                at_secs: duration_secs * 0.5,
                fraction: 0.25,
            },
            FaultSpec::MessageLoss {
                from_secs: duration_secs * 0.2,
                until_secs: duration_secs * 0.8,
                drop_prob: 0.3,
            },
        ],
        ..Default::default()
    }
}

/// One arm of the crash-storm comparison (see [`crash_storm`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashStormReport {
    /// Queries that reached the submission path.
    pub queries_issued: u64,
    /// Queries that exhausted retry and failover.
    pub queries_lost: u64,
    /// Queries recovered by retrying the same partner.
    pub recovered_retry: u64,
    /// Queries recovered by failing over to the second partner.
    pub recovered_failover: u64,
    /// Super-peers crashed by the plan.
    pub injected_crash: u64,
    /// Cluster failures (every partner gone).
    pub cluster_failures: u64,
    /// Client orphanings.
    pub orphan_events: u64,
    /// Orphaned clients that exhausted the rejoin-attempt cap.
    pub orphan_gave_up: u64,
    /// Client availability in [0, 1].
    pub availability: f64,
    /// Mean time-to-reconnect for recovered orphans, seconds.
    pub mean_reconnect_secs: f64,
    /// Repair elections completed (clients promoted in place).
    pub repair_promotions: u64,
    /// Replacement partners recruited by repaired clusters.
    pub repair_partner_recruitments: u64,
    /// Headless clusters abandoned (all clients left before repair).
    pub repair_abandoned: u64,
    /// Smallest largest-component peer fraction observed from the first
    /// crash wave onward — the storm's worst connectivity.
    pub min_reachable_since_storm: f64,
    /// Super-peer overlay components at run end.
    pub final_components: u32,
    /// Largest-component peer fraction at run end.
    pub final_reachable_fraction: f64,
}

impl CrashStormReport {
    fn from_raw(m: &RawMetrics, storm_from_secs: f64) -> Self {
        CrashStormReport {
            queries_issued: m.faults.queries_issued,
            queries_lost: m.faults.queries_lost,
            recovered_retry: m.faults.recovered_retry,
            recovered_failover: m.faults.recovered_failover,
            injected_crash: m.faults.injected_crash,
            cluster_failures: m.cluster_failures,
            orphan_events: m.orphan_events,
            orphan_gave_up: m.faults.orphan_gave_up,
            availability: m.availability(),
            mean_reconnect_secs: m.faults.reconnect.mean_secs(),
            repair_promotions: m.repair.promotions,
            repair_partner_recruitments: m.repair.partner_recruitments,
            repair_abandoned: m.repair.abandoned,
            min_reachable_since_storm: m.repair.min_reachable_since(storm_from_secs),
            final_components: m.repair.final_components,
            final_reachable_fraction: m.repair.final_reachable_fraction,
        }
    }
}

/// Crash-storm comparison: the same fault plan against k = 1 and k = 2
/// virtual super-peers.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashStormComparison {
    /// Metrics with a single super-peer per cluster.
    pub k1: CrashStormReport,
    /// Metrics with 2-redundant virtual super-peers.
    pub k2: CrashStormReport,
}

/// Runs the crash-storm reliability experiment: the
/// [`crash_storm_plan`] under identical seeds against k = 1 and k = 2.
/// Redundancy should strictly reduce lost queries — the failover leg of
/// the retry state machine only exists with a second partner. The
/// repair policy applies to both arms, so `--repair=off` versus a
/// promoting policy isolates the self-healing contribution.
pub fn crash_storm(
    config: &Config,
    duration_secs: f64,
    seed: u64,
    fault_seed: u64,
    repair: RepairPolicy,
) -> CrashStormComparison {
    let plan = ScenarioPlan {
        faults: crash_storm_plan(duration_secs),
        repair,
        ..ScenarioPlan::default()
    };
    let storm_from = duration_secs * 0.25; // first crash wave
    let run = |cfg: &Config| {
        let mut sim = Simulation::with_scenario(
            cfg,
            SimOptions {
                duration_secs,
                seed,
                fault_seed,
                ..Default::default()
            },
            &plan,
        );
        CrashStormReport::from_raw(&sim.run(), storm_from)
    };
    let k1 = run(&config.clone().with_redundancy(false));
    let k2 = run(&config.clone().with_redundancy(true));
    CrashStormComparison { k1, k2 }
}

/// Runs the Section 5.3 adaptive scenario.
pub fn adaptive(config: &Config, duration_secs: f64, seed: u64, adapt: AdaptOptions) -> SimReport {
    let mut sim = Simulation::new(
        config,
        SimOptions {
            duration_secs,
            seed,
            adapt: Some(adapt),
            ..Default::default()
        },
    );
    SimReport::from_raw(sim.run())
}

/// Options for a sharded simulation-trial run.
#[derive(Debug, Clone, Copy)]
pub struct SimTrialOptions {
    /// Number of independent trials to simulate.
    pub trials: usize,
    /// Root seed; trial `t` simulates with the seed drawn from the RNG
    /// split `seed → t`.
    pub seed: u64,
    /// Worker-thread budget; 0 = one per available core (resolved by
    /// [`sp_model::trials::resolve_thread_budget`]).
    pub threads: usize,
    /// Overlay repair policy for fault-injecting scenarios (ignored by
    /// scenarios without a fault plan; also stamped into worker-panic
    /// payloads so a dying trial identifies its full configuration).
    pub repair: RepairPolicy,
    /// Scenario kind stamped into worker-panic payloads (the trial
    /// wrappers set it — `steady-state`, `crash-storm`, … — so a dying
    /// trial names *which* experiment it was running).
    pub kind: &'static str,
}

impl Default for SimTrialOptions {
    fn default() -> Self {
        SimTrialOptions {
            trials: 5,
            seed: 0xC0FFEE,
            threads: 0,
            repair: RepairPolicy::Off,
            kind: "sim",
        }
    }
}

/// Fans `opts.trials` independent trials out over worker threads and
/// returns their results **ordered by trial index**.
///
/// `run_one(seed, trial)` runs one trial: `seed` is drawn from the RNG
/// split `opts.seed → trial`, so every trial has its own stream no
/// matter which worker executes it. [`fan_out`] hands the results back
/// in trial order, so the output is bitwise identical at any thread
/// count — the same contract as `sp_model::run_trials` and
/// `Engine::Fast`.
///
/// A simulation run is single-threaded, so only the trial-level share
/// of the thread budget is used; the inner share is intentionally left
/// idle rather than oversubscribing.
///
/// # Panics
///
/// Panics if `opts.trials == 0`, or if a trial panics; the message then
/// names the trial, its seed, the scenario kind and the repair policy.
pub fn run_sim_trials<T, F>(opts: &SimTrialOptions, run_one: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, usize) -> T + Sync,
{
    assert!(opts.trials > 0, "need at least one trial");
    #[allow(
        clippy::disallowed_methods,
        reason = "R1b seed root: every trial seed splits from opts.seed"
    )]
    let root = SpRng::seed_from_u64(opts.seed);
    let trial_seed = |t: usize| root.split(t as u64).next_raw();
    let run_trial = |t: usize, _inner: usize| run_one(trial_seed(t), t);
    let (kind, repair) = (opts.kind, opts.repair);

    let mut results = Vec::with_capacity(opts.trials);
    fan_out(
        opts.trials,
        opts.threads,
        |t| {
            format!(
                "trial {t} (scenario {kind}, seed {:#x}, repair {repair})",
                trial_seed(t)
            )
        },
        || &run_trial,
        |value| results.push(value),
    );
    results
}

fn ci_of<I: IntoIterator<Item = f64>>(values: I) -> ConfidenceInterval {
    let mut stats = OnlineStats::default();
    for v in values {
        stats.push(v);
    }
    stats.ci95()
}

/// Mean ± 95% CI over sharded [`steady_state`] trials.
#[derive(Debug, Clone)]
pub struct SteadyTrialSummary {
    /// Client availability in [0, 1].
    pub availability: ConfidenceInterval,
    /// Mean results per query.
    pub results_per_query: ConfidenceInterval,
    /// Mean super-peer total bandwidth (bps).
    pub sp_total_bw: ConfidenceInterval,
    /// The full reports, ordered by trial index.
    pub per_trial: Vec<SimReport>,
}

/// Runs sharded [`steady_state`] trials.
pub fn steady_trials(
    config: &Config,
    duration_secs: f64,
    opts: &SimTrialOptions,
) -> SteadyTrialSummary {
    let opts = SimTrialOptions {
        kind: "steady-state",
        ..*opts
    };
    let per_trial = run_sim_trials(&opts, |seed, _| steady_state(config, duration_secs, seed));
    SteadyTrialSummary {
        availability: ci_of(per_trial.iter().map(|r| r.availability)),
        results_per_query: ci_of(per_trial.iter().map(|r| r.results_per_query)),
        sp_total_bw: ci_of(per_trial.iter().map(|r| r.sp_load.total_bw())),
        per_trial,
    }
}

/// Mean ± 95% CI over sharded [`reliability`] trials.
#[derive(Debug, Clone)]
pub struct ReliabilityTrialSummary {
    /// Availability with a single super-peer per cluster.
    pub availability_k1: ConfidenceInterval,
    /// Availability with 2-redundant virtual super-peers.
    pub availability_k2: ConfidenceInterval,
    /// Mean downtime per orphaning with k = 1, seconds.
    pub downtime_k1: ConfidenceInterval,
    /// Mean downtime per orphaning with k = 2, seconds.
    pub downtime_k2: ConfidenceInterval,
    /// The full comparisons, ordered by trial index.
    pub per_trial: Vec<ReliabilityComparison>,
}

/// Runs sharded [`reliability`] trials.
pub fn reliability_trials(
    config: &Config,
    duration_secs: f64,
    opts: &SimTrialOptions,
) -> ReliabilityTrialSummary {
    let opts = SimTrialOptions {
        kind: "reliability",
        ..*opts
    };
    let per_trial = run_sim_trials(&opts, |seed, _| reliability(config, duration_secs, seed));
    ReliabilityTrialSummary {
        availability_k1: ci_of(per_trial.iter().map(|c| c.availability_k1)),
        availability_k2: ci_of(per_trial.iter().map(|c| c.availability_k2)),
        downtime_k1: ci_of(per_trial.iter().map(|c| c.downtime_k1)),
        downtime_k2: ci_of(per_trial.iter().map(|c| c.downtime_k2)),
        per_trial,
    }
}

/// Mean ± 95% CI over sharded [`crash_storm`] trials.
#[derive(Debug, Clone)]
pub struct CrashStormTrialSummary {
    /// Queries lost with a single super-peer per cluster.
    pub lost_k1: ConfidenceInterval,
    /// Queries lost with 2-redundant virtual super-peers.
    pub lost_k2: ConfidenceInterval,
    /// Availability with k = 1.
    pub availability_k1: ConfidenceInterval,
    /// Availability with k = 2.
    pub availability_k2: ConfidenceInterval,
    /// Worst storm-window reachable fraction with k = 1.
    pub min_reachable_k1: ConfidenceInterval,
    /// Worst storm-window reachable fraction with k = 2.
    pub min_reachable_k2: ConfidenceInterval,
    /// The full comparisons, ordered by trial index.
    pub per_trial: Vec<CrashStormComparison>,
}

/// Runs sharded [`crash_storm`] trials (each trial's fault stream is
/// seeded from its own trial seed) under `opts.repair`.
pub fn crash_storm_trials(
    config: &Config,
    duration_secs: f64,
    opts: &SimTrialOptions,
) -> CrashStormTrialSummary {
    let opts = SimTrialOptions {
        kind: "crash-storm",
        ..*opts
    };
    let per_trial = run_sim_trials(&opts, |seed, _| {
        crash_storm(config, duration_secs, seed, seed, opts.repair)
    });
    CrashStormTrialSummary {
        lost_k1: ci_of(per_trial.iter().map(|c| c.k1.queries_lost as f64)),
        lost_k2: ci_of(per_trial.iter().map(|c| c.k2.queries_lost as f64)),
        availability_k1: ci_of(per_trial.iter().map(|c| c.k1.availability)),
        availability_k2: ci_of(per_trial.iter().map(|c| c.k2.availability)),
        min_reachable_k1: ci_of(per_trial.iter().map(|c| c.k1.min_reachable_since_storm)),
        min_reachable_k2: ci_of(per_trial.iter().map(|c| c.k2.min_reachable_since_storm)),
        per_trial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_model::population::PopulationModel;

    fn churny_config() -> Config {
        Config {
            graph_size: 120,
            cluster_size: 12,
            population: PopulationModel {
                lifespan_mean_secs: 400.0,
                ..Default::default()
            },
            ..Config::default()
        }
    }

    #[test]
    fn steady_state_produces_traffic() {
        let r = steady_state(
            &Config {
                graph_size: 100,
                cluster_size: 10,
                ..Config::default()
            },
            600.0,
            1,
        );
        assert!(r.queries > 100);
        assert!(r.sp_load.proc > r.client_load.proc);
        assert!(r.results_per_query > 0.0);
    }

    #[test]
    fn reliability_favors_redundancy() {
        let c = reliability(&churny_config(), 2400.0, 7);
        assert!(
            c.availability_k2 > c.availability_k1,
            "k2 {} vs k1 {}",
            c.availability_k2,
            c.availability_k1
        );
        assert!(c.failures_k2 < c.failures_k1);
    }

    #[test]
    fn bounded_fanout_trades_results_for_load() {
        let cfg = Config {
            graph_size: 300,
            cluster_size: 10,
            avg_outdegree: 8.0,
            ttl: 4,
            ..Config::default()
        };
        let c = routing(&cfg, 2, 900.0, 9);
        assert!(
            c.sp_bw_subset < c.sp_bw_flood,
            "subset bw {} !< flood {}",
            c.sp_bw_subset,
            c.sp_bw_flood
        );
        assert!(
            c.results_subset < c.results_flood,
            "subset results {} !< flood {}",
            c.results_subset,
            c.results_flood
        );
        assert!(c.results_subset > 0.0);
    }

    #[test]
    fn sim_trials_are_ordered_and_thread_invariant() {
        let base = SimTrialOptions {
            trials: 5,
            seed: 42,
            threads: 1,
            repair: RepairPolicy::Off,
            ..Default::default()
        };
        let a = run_sim_trials(&base, |seed, t| (t, seed));
        for (i, &(t, _)) in a.iter().enumerate() {
            assert_eq!(i, t, "results must come back in trial order");
        }
        let seeds: std::collections::BTreeSet<u64> = a.iter().map(|&(_, s)| s).collect();
        assert_eq!(seeds.len(), base.trials, "per-trial seeds must be distinct");
        for threads in [2, 8] {
            let b = run_sim_trials(&SimTrialOptions { threads, ..base }, |seed, t| (t, seed));
            assert_eq!(a, b, "thread count changed trial results");
        }
    }

    #[test]
    fn steady_trials_reduce_with_cis_and_shard_deterministically() {
        let cfg = Config {
            graph_size: 60,
            cluster_size: 10,
            ..Config::default()
        };
        let opts = SimTrialOptions {
            trials: 3,
            seed: 5,
            threads: 2,
            repair: RepairPolicy::Off,
            kind: "sim",
        };
        let s = steady_trials(&cfg, 300.0, &opts);
        assert_eq!(s.per_trial.len(), 3);
        assert_eq!(s.availability.count, 3);
        assert!(s.sp_total_bw.mean > 0.0);
        let s1 = steady_trials(&cfg, 300.0, &SimTrialOptions { threads: 1, ..opts });
        assert_eq!(
            s.per_trial, s1.per_trial,
            "sharded trials must be bitwise identical at any thread count"
        );
    }

    #[test]
    fn crash_storm_redundancy_cuts_losses() {
        let c = crash_storm(&churny_config(), 2400.0, 7, 7, RepairPolicy::Off);
        assert!(
            c.k1.queries_lost > 0,
            "the storm must actually lose queries"
        );
        assert!(
            c.k2.queries_lost < c.k1.queries_lost,
            "k2 lost {} !< k1 lost {}",
            c.k2.queries_lost,
            c.k1.queries_lost
        );
        assert!(c.k2.recovered_failover > 0, "k2 must exercise failover");
        assert_eq!(c.k1.recovered_failover, 0, "k1 has no failover partner");
        assert!(c.k1.injected_crash > 0 && c.k2.injected_crash > 0);
    }

    /// Runs three trials on `threads` workers; trial 1 panics.
    fn trial_1_panics(threads: usize, repair: RepairPolicy, kind: &'static str) {
        let opts = SimTrialOptions {
            trials: 3,
            seed: 42,
            threads,
            repair,
            kind,
        };
        run_sim_trials(&opts, |_, t| {
            if t == 1 {
                panic!("boom");
            }
            t
        });
    }

    #[test]
    #[should_panic(expected = "trial 1 (scenario steady-state, seed ")]
    fn sim_trial_panics_carry_trial_seed_and_kind() {
        trial_1_panics(2, RepairPolicy::Off, "steady-state");
    }

    #[test]
    #[should_panic(expected = "trial 1 (scenario steady-state, seed ")]
    fn sim_trial_panics_carry_trial_seed_and_kind_on_one_thread() {
        trial_1_panics(1, RepairPolicy::Off, "steady-state");
    }

    #[test]
    #[should_panic(expected = ", repair promote+partner) panicked: boom")]
    fn sim_trial_panics_carry_repair_policy() {
        trial_1_panics(2, RepairPolicy::PromotePartner, "sim");
    }

    #[test]
    #[should_panic(expected = ", repair promote+partner) panicked: boom")]
    fn sim_trial_panics_carry_repair_policy_on_one_thread() {
        trial_1_panics(1, RepairPolicy::PromotePartner, "sim");
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_sim_trials_panics() {
        run_sim_trials(
            &SimTrialOptions {
                trials: 0,
                ..Default::default()
            },
            |seed, _| seed,
        );
    }

    #[test]
    fn adaptive_reduces_overload_pressure() {
        // A deliberately over-clustered start (few, large clusters) with
        // a tight limit: the rules should split clusters / promote
        // partners, changing the cluster count over time.
        let cfg = Config {
            graph_size: 150,
            cluster_size: 50,
            ..Config::default()
        };
        let r = adaptive(
            &cfg,
            2400.0,
            3,
            AdaptOptions {
                interval_secs: 120.0,
                limit: Load {
                    in_bw: 2e5,
                    out_bw: 2e5,
                    proc: 2e7,
                },
            },
        );
        assert!(r.adapt_actions > 0);
        assert!(!r.timeline.is_empty());
    }
}
