//! The fast engine's determinism contract, enforced end to end:
//!
//! 1. [`Simulation`] (indexed queue, pooled scratch, cached connection
//!    counts) and [`ReferenceSimulation`] (original binary-heap
//!    implementation) produce **bitwise identical** [`RawMetrics`] on
//!    every configuration and seed — every optimization is exact.
//! 2. Sharded trials reduce to bitwise-identical results at any thread
//!    count, because each trial owns an RNG split and results are
//!    collected by trial index.

use sp_model::config::Config;
use sp_model::faults::{FaultPlan, FaultSpec};
use sp_model::load::Load;
use sp_model::overload::OverloadPolicy;
use sp_model::population::PopulationModel;
use sp_model::repair::RepairPolicy;
use sp_model::scenario::{CapacityClass, PhaseKind, PhaseSpec, ScenarioPlan};
use sp_model::snapshot::fnv1a;
use sp_sim::campaign::{run_campaign, CampaignOptions};
use sp_sim::engine::{AdaptSettings, ForwardPolicy, RawMetrics, SimOptions, Simulation};
use sp_sim::reference::ReferenceSimulation;
use sp_sim::scenario::{
    crash_storm_plan, crash_storm_trials, reliability_trials, steady_trials, SimTrialOptions,
};
use sp_sim::shard::{ScaleOptions, ShardedSimulation};

fn assert_engines_agree(label: &str, config: &Config, opts: SimOptions) {
    assert_engines_agree_with_scenario(label, config, opts, &ScenarioPlan::default());
}

/// The plan of a fault-injection run: `faults` healed under `repair`.
fn fault_plan(faults: &FaultPlan, repair: RepairPolicy) -> ScenarioPlan {
    ScenarioPlan {
        faults: faults.clone(),
        repair,
        ..ScenarioPlan::default()
    }
}

fn assert_engines_agree_with_scenario(
    label: &str,
    config: &Config,
    opts: SimOptions,
    plan: &ScenarioPlan,
) {
    let mut fast = Simulation::with_scenario(config, opts, plan);
    let fast_metrics = fast.run();
    let mut reference = ReferenceSimulation::with_scenario(config, opts, plan);
    let reference_metrics = reference.run();
    assert_eq!(
        fast_metrics, reference_metrics,
        "engines diverged on {label} (seed {}, scenario seed {})",
        opts.seed, opts.scenario_seed
    );
    assert_eq!(
        fast.events_delivered(),
        reference.events_delivered(),
        "delivered-event counts diverged on {label}",
    );
}

/// A hand-built scenario exercising every phase kind at once, plus
/// capacity classes, an embedded fault window, and a repair policy.
fn rich_scenario_plan() -> ScenarioPlan {
    let plan = ScenarioPlan {
        phases: vec![
            PhaseSpec {
                rate_mult: 1.0,
                from_secs: 100.0,
                until_secs: 400.0,
                kind: PhaseKind::FlashCrowd {
                    query_rate_mult: 4.0,
                    hot_shift: 13,
                },
            },
            PhaseSpec {
                rate_mult: 1.0,
                from_secs: 150.0,
                until_secs: 600.0,
                kind: PhaseKind::ChurnBurst { lifespan_mult: 0.4 },
            },
            PhaseSpec {
                rate_mult: 1.0,
                from_secs: 450.0,
                until_secs: 470.0,
                kind: PhaseKind::MassLeave { fraction: 0.25 },
            },
            PhaseSpec {
                rate_mult: 1.0,
                from_secs: 500.0,
                until_secs: 800.0,
                kind: PhaseKind::Split { fraction: 0.3 },
            },
        ],
        capacity_classes: vec![
            CapacityClass {
                weight: 3.0,
                files_mult: 2.0,
                lifespan_mult: 1.5,
            },
            CapacityClass {
                weight: 1.0,
                files_mult: 0.5,
                lifespan_mult: 0.75,
            },
        ],
        faults: FaultPlan {
            faults: vec![FaultSpec::MessageLoss {
                from_secs: 200.0,
                until_secs: 700.0,
                drop_prob: 0.2,
            }],
            ..Default::default()
        },
        repair: RepairPolicy::Promote,
        overload: sp_model::overload::OverloadPolicy::default(),
    };
    plan.validate().expect("rich scenario must validate");
    plan
}

#[test]
fn engines_agree_under_scenario_plans() {
    let plan = rich_scenario_plan();
    for redundancy in [false, true] {
        let config = Config {
            graph_size: 120,
            cluster_size: 12,
            population: PopulationModel {
                lifespan_mean_secs: 400.0,
                ..Default::default()
            },
            ..Config::default()
        }
        .with_redundancy(redundancy);
        for scenario_seed in [0, 99] {
            assert_engines_agree_with_scenario(
                "all-phase scenario",
                &config,
                SimOptions {
                    duration_secs: 1200.0,
                    seed: 7,
                    fault_seed: 7,
                    scenario_seed,
                    ..Default::default()
                },
                &plan,
            );
        }
    }
}

/// A flash-crowd scenario paired with an active overload policy: the
/// bounded queues, token budgets, brownout hysteresis, and re-homing
/// are all draw-free, so both engines must stay bitwise identical
/// even while shedding load.
fn overload_scenario_plan(config: &Config) -> ScenarioPlan {
    let plan = ScenarioPlan {
        phases: vec![PhaseSpec {
            rate_mult: 1.0,
            from_secs: 200.0,
            until_secs: 600.0,
            kind: PhaseKind::FlashCrowd {
                query_rate_mult: 10.0,
                hot_shift: 7,
            },
        }],
        overload: sp_model::overload::OverloadPolicy::sized_for(config),
        ..Default::default()
    };
    plan.validate().expect("overload scenario must validate");
    plan
}

#[test]
fn engines_agree_under_overload_control() {
    let config = Config {
        graph_size: 120,
        cluster_size: 12,
        population: PopulationModel {
            lifespan_mean_secs: 500.0,
            ..Default::default()
        },
        ..Config::default()
    };
    let plan = overload_scenario_plan(&config);
    for seed in [3, 11] {
        assert_engines_agree_with_scenario(
            "overload under flash crowd",
            &config,
            SimOptions {
                duration_secs: 900.0,
                seed,
                fault_seed: seed,
                scenario_seed: 5,
                ..Default::default()
            },
            &plan,
        );
    }

    // Reject-at-admission with a hair-trigger re-home threshold: every
    // full-queue arrival is a strike, so clients actually migrate —
    // exercising the Table 2 re-join path in both engines.
    let mut rehoming = plan;
    rehoming.overload.discipline = sp_model::overload::ShedDiscipline::RejectAtAdmission;
    rehoming.overload.rehome_strikes = 2;
    assert_engines_agree_with_scenario(
        "overload with client re-homing",
        &config,
        SimOptions {
            duration_secs: 900.0,
            seed: 3,
            fault_seed: 3,
            scenario_seed: 5,
            ..Default::default()
        },
        &rehoming,
    );
}

#[test]
fn engines_agree_under_uncontrolled_overload_measurement() {
    // queue_capacity = 0: latency and depth are measured but nothing
    // is shed — the uncontrolled baseline must also be engine-exact.
    let config = Config {
        graph_size: 100,
        cluster_size: 10,
        ..Config::default()
    };
    let mut plan = overload_scenario_plan(&config);
    plan.overload = sp_model::overload::OverloadPolicy::uncontrolled_for(&config);
    assert_engines_agree_with_scenario(
        "uncontrolled overload measurement",
        &config,
        SimOptions {
            duration_secs: 900.0,
            seed: 21,
            scenario_seed: 2,
            ..Default::default()
        },
        &plan,
    );
}

#[test]
fn empty_overload_policy_is_bitwise_inert() {
    let config = Config {
        graph_size: 100,
        cluster_size: 10,
        ..Config::default()
    };
    let opts = SimOptions {
        duration_secs: 900.0,
        seed: 17,
        ..Default::default()
    };
    let plain = Simulation::new(&config, opts).run();
    let with_empty = Simulation::with_scenario(
        &config,
        opts,
        &ScenarioPlan {
            overload: sp_model::overload::OverloadPolicy::default(),
            ..ScenarioPlan::default()
        },
    )
    .run();
    assert_eq!(
        plain, with_empty,
        "the empty overload policy must change nothing"
    );
}

#[test]
fn empty_scenario_plan_is_bitwise_inert() {
    let config = Config {
        graph_size: 100,
        cluster_size: 10,
        population: PopulationModel {
            lifespan_mean_secs: 500.0,
            ..Default::default()
        },
        ..Config::default()
    };
    let opts = SimOptions {
        duration_secs: 900.0,
        seed: 13,
        ..Default::default()
    };
    let plain = Simulation::new(&config, opts).run();
    // An empty scenario never draws from its dedicated RNG stream and
    // schedules no phase events, so any scenario seed must reproduce
    // the plain run byte for byte.
    let with_empty = Simulation::with_scenario(
        &config,
        SimOptions {
            scenario_seed: 0xBEEF,
            ..opts
        },
        &ScenarioPlan::default(),
    )
    .run();
    assert_eq!(plain, with_empty, "an empty scenario must change nothing");
}

#[test]
fn campaign_is_green_and_bitwise_identical_across_thread_counts() {
    // The standing fuzz gate's own contract: a seeded differential
    // campaign finds no divergences, and its order-sensitive
    // fingerprint is invariant under the worker-thread count.
    let base = CampaignOptions {
        count: 6,
        seed: 13,
        threads: 1,
        users: 60,
        cluster_size: 10,
        duration_secs: 300.0,
        inject_panic: None,
    };
    let single = run_campaign(&base);
    assert!(
        single.divergences.is_empty(),
        "campaign found divergences: {:?}",
        single.divergences
    );
    for threads in [2, 8] {
        let sharded = run_campaign(&CampaignOptions { threads, ..base });
        assert_eq!(
            single.fingerprint, sharded.fingerprint,
            "campaign fingerprint diverged at {threads} threads"
        );
        assert!(sharded.divergences.is_empty());
    }
}

#[test]
fn engines_agree_on_steady_state() {
    let config = Config {
        graph_size: 100,
        cluster_size: 10,
        ..Config::default()
    };
    for seed in [1, 2, 3] {
        assert_engines_agree(
            "steady state",
            &config,
            SimOptions {
                duration_secs: 900.0,
                seed,
                ..Default::default()
            },
        );
    }
}

#[test]
fn engines_agree_under_heavy_churn() {
    for redundancy in [false, true] {
        let config = Config {
            graph_size: 120,
            cluster_size: 12,
            population: PopulationModel {
                lifespan_mean_secs: 400.0,
                ..Default::default()
            },
            ..Config::default()
        }
        .with_redundancy(redundancy);
        assert_engines_agree(
            if redundancy {
                "churn with k=2 redundancy"
            } else {
                "churn with k=1"
            },
            &config,
            SimOptions {
                duration_secs: 1800.0,
                seed: 7,
                ..Default::default()
            },
        );
    }
}

#[test]
fn engines_agree_under_bounded_fanout() {
    let config = Config {
        graph_size: 200,
        cluster_size: 10,
        avg_outdegree: 8.0,
        ttl: 4,
        ..Config::default()
    };
    assert_engines_agree(
        "random-subset forwarding",
        &config,
        SimOptions {
            duration_secs: 900.0,
            seed: 9,
            forward_policy: ForwardPolicy::RandomSubset { fanout: 2 },
            ..Default::default()
        },
    );
}

#[test]
fn engines_agree_under_adaptation() {
    let config = Config {
        graph_size: 150,
        cluster_size: 50,
        ..Config::default()
    };
    assert_engines_agree(
        "adaptive local rules",
        &config,
        SimOptions {
            duration_secs: 1800.0,
            seed: 3,
            adapt: Some(AdaptSettings {
                interval_secs: 120.0,
                limit: Load {
                    in_bw: 2e5,
                    out_bw: 2e5,
                    proc: 2e7,
                },
            }),
            ..Default::default()
        },
    );
}

#[test]
fn engines_agree_under_fault_plans() {
    let churny = Config {
        graph_size: 120,
        cluster_size: 12,
        population: PopulationModel {
            lifespan_mean_secs: 400.0,
            ..Default::default()
        },
        ..Config::default()
    };
    let windowed = FaultPlan {
        faults: vec![
            FaultSpec::MessageLoss {
                from_secs: 200.0,
                until_secs: 900.0,
                drop_prob: 0.25,
            },
            FaultSpec::MessageDelay {
                from_secs: 100.0,
                until_secs: 1100.0,
                delay_prob: 0.3,
                delay_secs: 2.0,
            },
            FaultSpec::FlakyPartners {
                from_secs: 300.0,
                until_secs: 800.0,
                flake_prob: 0.4,
            },
            FaultSpec::Partition {
                from_secs: 400.0,
                until_secs: 700.0,
                clusters: vec![0, 3, 5],
            },
        ],
        ..Default::default()
    };
    for redundancy in [false, true] {
        let config = churny.clone().with_redundancy(redundancy);
        for (label, plan) in [
            ("crash storm", crash_storm_plan(1200.0)),
            ("loss/delay/flaky/partition windows", windowed.clone()),
        ] {
            for fault_seed in [0, 99] {
                // Every repair policy must agree bitwise across
                // engines, including the Section 5.3 election and the
                // headless-window charging it implies.
                for repair in RepairPolicy::ALL {
                    assert_engines_agree_with_scenario(
                        label,
                        &config,
                        SimOptions {
                            duration_secs: 1200.0,
                            seed: 7,
                            fault_seed,
                            ..Default::default()
                        },
                        &fault_plan(&plan, repair),
                    );
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_repair_under_adaptation() {
    // Adaptation + crash storm + repair: the stalled-adapt-tick restart
    // path only triggers when a headless window swallows a tick.
    let config = Config {
        graph_size: 120,
        cluster_size: 12,
        population: PopulationModel {
            lifespan_mean_secs: 400.0,
            ..Default::default()
        },
        ..Config::default()
    };
    assert_engines_agree_with_scenario(
        "adaptive crash storm with repair",
        &config,
        SimOptions {
            duration_secs: 1200.0,
            seed: 5,
            fault_seed: 5,
            adapt: Some(AdaptSettings {
                interval_secs: 60.0,
                limit: Load {
                    in_bw: 2e5,
                    out_bw: 2e5,
                    proc: 2e7,
                },
            }),
            ..Default::default()
        },
        &fault_plan(&crash_storm_plan(1200.0), RepairPolicy::PromotePartner),
    );
}

#[test]
fn empty_fault_plan_is_bitwise_inert() {
    let config = Config {
        graph_size: 100,
        cluster_size: 10,
        population: PopulationModel {
            lifespan_mean_secs: 500.0,
            ..Default::default()
        },
        ..Config::default()
    };
    let opts = SimOptions {
        duration_secs: 900.0,
        seed: 13,
        ..Default::default()
    };
    let plain = Simulation::new(&config, opts).run();
    // Any fault seed and any repair policy: with an empty plan the
    // fault stream is never drawn from and repair never engages (it
    // only answers fault-injected crashes), so the run must be
    // byte-for-byte the no-fault run.
    for repair in RepairPolicy::ALL {
        let with_empty_plan = Simulation::with_scenario(
            &config,
            SimOptions {
                fault_seed: 0xDEAD,
                ..opts
            },
            &fault_plan(&FaultPlan::default(), repair),
        )
        .run();
        assert_eq!(
            plain, with_empty_plan,
            "an empty plan must change nothing under --repair={repair}"
        );
    }
}

#[test]
fn crash_storm_trials_are_bitwise_identical_across_thread_counts() {
    let churny = Config {
        graph_size: 80,
        cluster_size: 10,
        population: PopulationModel {
            lifespan_mean_secs: 400.0,
            ..Default::default()
        },
        ..Config::default()
    };
    for repair in RepairPolicy::ALL {
        let base = SimTrialOptions {
            trials: 4,
            seed: 21,
            threads: 1,
            repair,
            ..Default::default()
        };
        let single = crash_storm_trials(&churny, 600.0, &base);
        for threads in [2, 8] {
            let sharded = crash_storm_trials(&churny, 600.0, &SimTrialOptions { threads, ..base });
            assert_eq!(
                single.per_trial, sharded.per_trial,
                "crash-storm trials diverged at {threads} threads under --repair={repair}"
            );
        }
    }
}

/// Runs the scale engine at every shard count in `shards` and asserts
/// the metrics are bitwise identical to the 1-shard run.
fn assert_scale_invariant(label: &str, config: &Config, plan: &FaultPlan, opts: ScaleOptions) {
    let base =
        ShardedSimulation::with_faults(config, ScaleOptions { shards: 1, ..opts }, plan).run();
    for shards in [2, 4, 8] {
        let sharded =
            ShardedSimulation::with_faults(config, ScaleOptions { shards, ..opts }, plan).run();
        assert_eq!(
            base, sharded,
            "scale metrics diverged on {label} at {shards} shards (seed {})",
            opts.seed
        );
    }
}

#[test]
fn scale_engine_is_bitwise_identical_across_shard_counts() {
    // The tentpole contract: ScaleMetrics at shards ∈ {1, 2, 4, 8}
    // are bitwise identical, steady state and under fault plans.
    let config = Config::scale_preset(2_000);
    for seed in [1, 42] {
        assert_scale_invariant(
            "steady scale run",
            &config,
            &FaultPlan::default(),
            ScaleOptions {
                duration_secs: 400.0,
                seed,
                ..Default::default()
            },
        );
    }
}

#[test]
fn scale_engine_repair_is_bitwise_identical_across_shard_counts() {
    // Shard-boundary repair: a crash storm kills super-peers whose
    // overlay neighbors live on other shards; elections and the
    // cross-shard re-index announcements they trigger must reduce
    // identically at 1, 2, 4, and 8 shards.
    for redundancy in [false, true] {
        let config = Config::scale_preset(2_000).with_redundancy(redundancy);
        let plan = crash_storm_plan(600.0);
        for fault_seed in [0, 99] {
            let opts = ScaleOptions {
                duration_secs: 600.0,
                seed: 7,
                fault_seed,
                ..Default::default()
            };
            let probe = ShardedSimulation::with_faults(&config, opts, &plan).run();
            assert!(
                probe.elections_held > 0,
                "crash storm must trigger elections (k={})",
                config.redundancy_k
            );
            assert!(
                probe.reindex_received > 0,
                "elections must announce re-indexing across the overlay"
            );
            assert_scale_invariant("crash-storm scale run", &config, &plan, opts);
        }
    }
}

#[test]
fn scale_engine_windowed_faults_are_bitwise_identical_across_shard_counts() {
    let config = Config::scale_preset(2_000);
    let windowed = FaultPlan {
        faults: vec![
            FaultSpec::MessageLoss {
                from_secs: 50.0,
                until_secs: 300.0,
                drop_prob: 0.25,
            },
            FaultSpec::MessageDelay {
                from_secs: 30.0,
                until_secs: 350.0,
                delay_prob: 0.3,
                delay_secs: 2.0,
            },
            FaultSpec::Partition {
                from_secs: 100.0,
                until_secs: 250.0,
                clusters: vec![0, 3, 5, 77],
            },
            FaultSpec::CrashFraction {
                at_secs: 150.0,
                fraction: 0.2,
            },
        ],
        ..Default::default()
    };
    assert_scale_invariant(
        "loss/delay/partition/crash scale run",
        &config,
        &windowed,
        ScaleOptions {
            duration_secs: 400.0,
            seed: 11,
            fault_seed: 3,
            ..Default::default()
        },
    );
}

#[test]
fn sharded_trials_are_bitwise_identical_across_thread_counts() {
    let config = Config {
        graph_size: 80,
        cluster_size: 10,
        ..Config::default()
    };
    let base = SimTrialOptions {
        trials: 4,
        seed: 11,
        threads: 1,
        repair: RepairPolicy::Off,
        ..Default::default()
    };
    let single = steady_trials(&config, 400.0, &base);
    for threads in [2, 8] {
        let sharded = steady_trials(&config, 400.0, &SimTrialOptions { threads, ..base });
        assert_eq!(
            single.per_trial, sharded.per_trial,
            "steady trials diverged at {threads} threads"
        );
    }

    let churny = Config {
        graph_size: 80,
        cluster_size: 10,
        population: PopulationModel {
            lifespan_mean_secs: 400.0,
            ..Default::default()
        },
        ..Config::default()
    };
    let single = reliability_trials(&churny, 600.0, &base);
    for threads in [2, 8] {
        let sharded = reliability_trials(&churny, 600.0, &SimTrialOptions { threads, ..base });
        assert_eq!(
            single.per_trial, sharded.per_trial,
            "reliability trials diverged at {threads} threads"
        );
    }
}

#[test]
fn checkpoint_resume_is_bitwise_identical_on_both_churn_engines() {
    // The checkpoint contract (DESIGN.md §17): run-to-T, snapshot,
    // restore in a fresh process image, run-to-end must reproduce the
    // uninterrupted run byte for byte — on the fast engine AND the
    // reference engine, under the full scenario machinery.
    let plan = rich_scenario_plan();
    let config = Config {
        graph_size: 120,
        cluster_size: 12,
        population: PopulationModel {
            lifespan_mean_secs: 400.0,
            ..Default::default()
        },
        ..Config::default()
    };
    let opts = SimOptions {
        duration_secs: 1200.0,
        seed: 7,
        fault_seed: 7,
        scenario_seed: 99,
        ..Default::default()
    };
    let full_fast = Simulation::with_scenario(&config, opts, &plan).run();
    let full_reference = ReferenceSimulation::with_scenario(&config, opts, &plan).run();
    for at in [1.0, 300.0, 650.0, 1199.0] {
        let mut fast = Simulation::with_scenario(&config, opts, &plan);
        fast.run_to(at);
        let snap = fast.snapshot();
        let resumed = Simulation::restore(&snap)
            .expect("fast snapshot restores")
            .run();
        assert_eq!(full_fast, resumed, "fast resume diverged at t={at}");
        // Snapshotting is a pure read: the paused original must still
        // finish identically.
        assert_eq!(full_fast, fast.run(), "snapshot perturbed the paused run");

        let mut reference = ReferenceSimulation::with_scenario(&config, opts, &plan);
        reference.run_to(at);
        let resumed = ReferenceSimulation::restore(&reference.snapshot())
            .expect("reference snapshot restores")
            .run();
        assert_eq!(
            full_reference, resumed,
            "reference resume diverged at t={at}"
        );
    }
}

#[test]
fn scale_checkpoint_is_canonical_and_resumes_at_any_shard_count() {
    // Sharded snapshots are written in canonical (shard-count-free)
    // form: the bytes must not depend on how many shards produced
    // them, and a checkpoint taken at N shards must resume at M shards
    // with bitwise-identical ScaleMetrics.
    let config = Config::scale_preset(2_000);
    let plan = crash_storm_plan(600.0);
    let opts = ScaleOptions {
        duration_secs: 600.0,
        seed: 7,
        fault_seed: 99,
        ..Default::default()
    };
    let full = ShardedSimulation::with_faults(&config, ScaleOptions { shards: 1, ..opts }, &plan)
        .try_run()
        .expect("uninterrupted scale run");

    let mut producer =
        ShardedSimulation::with_faults(&config, ScaleOptions { shards: 2, ..opts }, &plan);
    let mid = producer.total_ticks() / 2;
    producer.run_to(mid).expect("run to mid-tick");
    let snap = producer.snapshot();

    for shards in [1, 4] {
        let mut other =
            ShardedSimulation::with_faults(&config, ScaleOptions { shards, ..opts }, &plan);
        other.run_to(mid).expect("run to mid-tick");
        assert_eq!(
            snap,
            other.snapshot(),
            "snapshot bytes differ between 2 and {shards} shards"
        );
    }

    for shards in [1, 2, 4] {
        let resumed = ShardedSimulation::restore(
            &snap,
            ScaleOptions {
                shards,
                ..Default::default()
            },
        )
        .expect("scale snapshot restores")
        .try_run()
        .expect("resumed scale run");
        assert_eq!(full, resumed, "scale resume diverged at {shards} shards");
    }
}

// ---- Behaviour pins ----
//
// The engine-equivalence tests above compare the two churn engines with
// each other; the pins below also compare them with values recorded
// before the engines shared their lifecycle handlers, so a handler that
// drifts in both engines at once still fails. Each value is the FNV-1a
// hash of the `Debug` rendering of a run's `RawMetrics` (or of raw
// snapshot bytes), which covers every counter, float, and timeline
// point bitwise.

/// Runs a scenario on both churn engines, asserts they agree bitwise,
/// and returns the metrics.
fn pinned_scenario_run(config: &Config, opts: SimOptions, plan: &ScenarioPlan) -> RawMetrics {
    let fast = Simulation::with_scenario(config, opts, plan).run();
    let reference = ReferenceSimulation::with_scenario(config, opts, plan).run();
    assert_eq!(fast, reference, "engines diverged on a pinned run");
    fast
}

fn metrics_hash(m: &RawMetrics) -> u64 {
    fnv1a(format!("{m:?}").as_bytes())
}

fn pin_config() -> Config {
    Config {
        graph_size: 100,
        cluster_size: 10,
        population: PopulationModel {
            lifespan_mean_secs: 400.0,
            ..Default::default()
        },
        ..Config::default()
    }
}

fn pin_opts() -> SimOptions {
    SimOptions {
        duration_secs: 900.0,
        seed: 42,
        fault_seed: 7,
        scenario_seed: 9,
        ..Default::default()
    }
}

#[test]
fn default_campaign_fingerprint_is_pinned() {
    // `spnet campaign`'s defaults: 32 scenarios from seed 42.
    let report = run_campaign(&CampaignOptions::default());
    assert!(report.divergences.is_empty(), "{:?}", report.divergences);
    assert_eq!(report.fingerprint, 0x6c22_fe5d_9bf1_4b92);
}

#[test]
fn plain_churn_metrics_are_pinned() {
    let m = pinned_scenario_run(&pin_config(), pin_opts(), &ScenarioPlan::default());
    assert!(m.cluster_failures > 0 && m.orphan_events > 0);
    let hash = metrics_hash(&m);
    assert_eq!(hash, 0x293d_7ddd_809a_6436, "plain churn: {hash:#018x}");
}

#[test]
fn crash_storm_repair_metrics_are_pinned() {
    let config = pin_config().with_redundancy(true);
    let opts = pin_opts();
    let plan = fault_plan(
        &crash_storm_plan(opts.duration_secs),
        RepairPolicy::PromotePartner,
    );
    let fast = Simulation::with_scenario(&config, opts, &plan).run();
    let reference = ReferenceSimulation::with_scenario(&config, opts, &plan).run();
    assert_eq!(
        fast, reference,
        "engines diverged on the pinned crash storm"
    );
    assert!(fast.repair.promotions > 0 && fast.repair.partner_recruitments > 0);
    let hash = metrics_hash(&fast);
    assert_eq!(hash, 0x2400_f3c4_2168_9c4c, "crash storm: {hash:#018x}");
}

#[test]
fn flash_crowd_overload_metrics_are_pinned() {
    let config = pin_config();
    let plan = ScenarioPlan {
        phases: vec![PhaseSpec {
            rate_mult: 1.0,
            from_secs: 200.0,
            until_secs: 600.0,
            kind: PhaseKind::FlashCrowd {
                query_rate_mult: 10.0,
                hot_shift: 7,
            },
        }],
        overload: OverloadPolicy::sized_for(&config),
        ..Default::default()
    };
    let m = pinned_scenario_run(&config, pin_opts(), &plan);
    assert!(m.overload.shed_discipline > 0 && m.overload.brownout_entries > 0);
    let hash = metrics_hash(&m);
    assert_eq!(hash, 0xd322_6b1f_23ff_1df8, "flash crowd: {hash:#018x}");
}

/// A churn burst, a mass leave, and a split window.
fn pin_phase_plan() -> ScenarioPlan {
    let phase = |from_secs, until_secs, kind| PhaseSpec {
        rate_mult: 1.0,
        from_secs,
        until_secs,
        kind,
    };
    ScenarioPlan {
        phases: vec![
            phase(100.0, 500.0, PhaseKind::ChurnBurst { lifespan_mult: 0.4 }),
            phase(300.0, 320.0, PhaseKind::MassLeave { fraction: 0.25 }),
            phase(400.0, 700.0, PhaseKind::Split { fraction: 0.3 }),
        ],
        ..Default::default()
    }
}

#[test]
fn churn_burst_mass_leave_split_metrics_are_pinned() {
    let m = pinned_scenario_run(&pin_config(), pin_opts(), &pin_phase_plan());
    assert!(m.faults.injected_partition_block > 0);
    let hash = metrics_hash(&m);
    assert_eq!(hash, 0xf488_f953_2f5d_5b74, "phases: {hash:#018x}");
}

#[test]
fn mid_run_snapshot_bytes_are_pinned() {
    // Snapshots carry the event queue verbatim (the fast engine's slab,
    // free list, and timer handles; the reference engine's heap), so
    // these pins also catch a timer scheduled, cancelled, or cleared in
    // a different order.
    let config = pin_config().with_redundancy(true);
    let plan = pin_phase_plan();
    let mut fast = Simulation::with_scenario(&config, pin_opts(), &plan);
    fast.run_to(450.0);
    let hash = fnv1a(&fast.snapshot());
    assert_eq!(hash, 0xb0b9_baaf_6048_0137, "fast snapshot: {hash:#018x}");
    let mut reference = ReferenceSimulation::with_scenario(&config, pin_opts(), &plan);
    reference.run_to(450.0);
    let hash = fnv1a(&reference.snapshot());
    assert_eq!(
        hash, 0x0ed1_e508_58fb_4d71,
        "reference snapshot: {hash:#018x}"
    );
}
