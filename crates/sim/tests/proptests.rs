//! Property-based tests for the simulator's mutable network state:
//! arbitrary operation sequences must never violate the structural
//! invariants (membership symmetry, edge symmetry, cached file counts,
//! alive-list consistency) — and for the fault-injection layer:
//! under *any* generated fault plan the fast and reference engines
//! agree bitwise and the query-accounting conservation law holds.

#![allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]

use proptest::prelude::*;
use sp_model::faults::{FaultPlan, FaultSpec};
use sp_model::overload::{BrownoutConfig, OverloadPolicy, ShedDiscipline};
use sp_model::repair::RepairPolicy;
use sp_model::scenario::{CapacityClass, PhaseKind, PhaseSpec, ScenarioPlan};
use sp_sim::network::SimNetwork;
use sp_stats::SpRng;

/// Operations the fuzzer may apply.
#[derive(Debug, Clone)]
enum Op {
    AddSuperPeer { files: u32 },
    AddClient { files: u32, cluster_pick: u32 },
    AddEdge { a: u32, b: u32 },
    RemoveClient { pick: u32 },
    PromoteClient { cluster_pick: u32 },
    FailCluster { cluster_pick: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..500).prop_map(|files| Op::AddSuperPeer { files }),
        (0u32..500, any::<u32>()).prop_map(|(files, cluster_pick)| Op::AddClient {
            files,
            cluster_pick
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| Op::AddEdge { a, b }),
        any::<u32>().prop_map(|pick| Op::RemoveClient { pick }),
        any::<u32>().prop_map(|cluster_pick| Op::PromoteClient { cluster_pick }),
        any::<u32>().prop_map(|cluster_pick| Op::FailCluster { cluster_pick }),
    ]
}

/// Applies an op, keeping local shadow lists of live ids.
fn apply(
    net: &mut SimNetwork,
    op: &Op,
    clusters: &mut Vec<u32>,
    clients: &mut Vec<u32>,
    rng: &mut SpRng,
) {
    match *op {
        Op::AddSuperPeer { files } => {
            let p = net.add_peer(files, 0.0);
            let c = net.add_cluster(p, 7);
            clusters.push(c);
        }
        Op::AddClient {
            files,
            cluster_pick,
        } => {
            if clusters.is_empty() {
                return;
            }
            let c = clusters[cluster_pick as usize % clusters.len()];
            let p = net.add_peer(files, 0.0);
            net.attach_client(p, c);
            clients.push(p);
        }
        Op::AddEdge { a, b } => {
            if clusters.len() < 2 {
                return;
            }
            let a = clusters[a as usize % clusters.len()];
            let b = clusters[b as usize % clusters.len()];
            net.add_edge(a, b);
        }
        Op::RemoveClient { pick } => {
            if clients.is_empty() {
                return;
            }
            let idx = pick as usize % clients.len();
            let p = clients.swap_remove(idx);
            net.detach_client(p);
            net.remove_peer(p);
        }
        Op::PromoteClient { cluster_pick } => {
            if clusters.is_empty() {
                return;
            }
            let c = clusters[cluster_pick as usize % clusters.len()];
            if let Some(promoted) = net.promote_client(c, rng) {
                clients.retain(|&x| x != promoted);
            }
        }
        Op::FailCluster { cluster_pick } => {
            if clusters.is_empty() {
                return;
            }
            let idx = cluster_pick as usize % clusters.len();
            let c = clusters.swap_remove(idx);
            // Detach everyone, then dissolve.
            let (ps, cls) = {
                let cl = net.clusters[c as usize].as_ref().unwrap();
                (cl.partners.clone(), cl.clients.clone())
            };
            for p in ps {
                net.detach_partner(p);
                net.remove_peer(p);
            }
            for p in cls {
                net.detach_client(p);
                net.remove_peer(p);
                clients.retain(|&x| x != p);
            }
            net.remove_cluster(c);
        }
    }
}

/// One arbitrary fault inside a run of length `dur`. Windows are kept
/// strictly ordered so the generated plan always validates.
fn arb_fault(dur: f64) -> impl Strategy<Value = FaultSpec> {
    prop_oneof![
        (0.0..dur, 0usize..12).prop_map(|(at_secs, cluster_index)| FaultSpec::CrashCluster {
            at_secs,
            cluster_index,
        }),
        (0.0..dur, 0.05f64..0.5)
            .prop_map(|(at_secs, fraction)| FaultSpec::CrashFraction { at_secs, fraction }),
        (0.0..dur, 1.0..dur, 0.05f64..0.9).prop_map(|(from, len, drop_prob)| {
            FaultSpec::MessageLoss {
                from_secs: from,
                until_secs: from + len,
                drop_prob,
            }
        }),
        (0.0..dur, 1.0..dur, 0.05f64..0.9, 0.1f64..30.0).prop_map(
            |(from, len, delay_prob, delay_secs)| FaultSpec::MessageDelay {
                from_secs: from,
                until_secs: from + len,
                delay_prob,
                delay_secs,
            }
        ),
        (0.0..dur, 1.0..dur, prop::collection::vec(0usize..16, 1..4)).prop_map(
            |(from, len, clusters)| FaultSpec::Partition {
                from_secs: from,
                until_secs: from + len,
                clusters,
            }
        ),
        (0.0..dur, 1.0..dur, 0.05f64..0.9).prop_map(|(from, len, flake_prob)| {
            FaultSpec::FlakyPartners {
                from_secs: from,
                until_secs: from + len,
                flake_prob,
            }
        }),
    ]
}

fn arb_plan(dur: f64) -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec(arb_fault(dur), 0..5).prop_map(|faults| FaultPlan {
        faults,
        ..Default::default()
    })
}

/// An arbitrary valid [`ScenarioPlan`]: at most one phase per kind
/// (same-kind windows may not overlap, so one each always validates),
/// 0–2 capacity classes, an arbitrary embedded fault plan, and any
/// repair policy.
fn arb_scenario(dur: f64) -> impl Strategy<Value = ScenarioPlan> {
    let window = |max_len: f64| (0.0..dur * 0.8, 1.0..max_len);
    let flash = prop::option::of((window(dur * 0.2), 0.5f64..5.0, 0u32..64));
    let churn = prop::option::of((window(dur * 0.2), 0.2f64..3.0));
    let leave = prop::option::of((window(dur * 0.1), 0.0f64..0.5));
    let split = prop::option::of((window(dur * 0.3), 0.0f64..0.6));
    let classes = prop::collection::vec((0.5f64..4.0, 0.25f64..3.0, 0.5f64..2.0), 0..3);
    (
        flash,
        churn,
        leave,
        split,
        classes,
        arb_plan(dur),
        0usize..3,
    )
        .prop_map(
            |(flash, churn, leave, split, classes, faults, repair_idx)| {
                let mut plan = ScenarioPlan {
                    faults,
                    repair: RepairPolicy::ALL[repair_idx],
                    ..Default::default()
                };
                let mut push = |from: f64, len: f64, kind: PhaseKind| {
                    plan.phases.push(PhaseSpec {
                        rate_mult: 1.0,
                        from_secs: from,
                        until_secs: from + len,
                        kind,
                    });
                };
                if let Some(((from, len), query_rate_mult, hot_shift)) = flash {
                    push(
                        from,
                        len,
                        PhaseKind::FlashCrowd {
                            query_rate_mult,
                            hot_shift,
                        },
                    );
                }
                if let Some(((from, len), lifespan_mult)) = churn {
                    push(from, len, PhaseKind::ChurnBurst { lifespan_mult });
                }
                if let Some(((from, len), fraction)) = leave {
                    push(from, len, PhaseKind::MassLeave { fraction });
                }
                if let Some(((from, len), fraction)) = split {
                    push(from, len, PhaseKind::Split { fraction });
                }
                for (weight, files_mult, lifespan_mult) in classes {
                    plan.capacity_classes.push(CapacityClass {
                        weight,
                        files_mult,
                        lifespan_mult,
                    });
                }
                plan
            },
        )
}

/// An arbitrary *valid, non-empty* overload policy: any service rate,
/// bounded or measure-only (capacity 0) queue, any shed discipline,
/// optional per-client token budget, optional brownout with
/// exit < enter, optional re-homing. Every draw passes
/// [`OverloadPolicy::validate`].
fn arb_overload_policy() -> impl Strategy<Value = OverloadPolicy> {
    let brownout = prop::option::of((0.1f64..1.0, 0.5f64..3.0, 1.0f64..20.0, 0u16..4, 1u32..7))
        .prop_map(|b| {
            b.map(
                |(exit, gap, dwell, ttl_decrement, fanout_limit)| BrownoutConfig {
                    enter_backlog_secs: exit + gap,
                    exit_backlog_secs: exit,
                    min_dwell_secs: dwell,
                    ttl_decrement,
                    fanout_limit,
                },
            )
        });
    let budget = prop::option::of((0.1f64..4.0, 1.0f64..6.0));
    (
        0.5f64..6.0,
        prop_oneof![Just(0u32), 2u32..32],
        0usize..3,
        budget,
        brownout,
        prop_oneof![Just(0u32), 1u32..9],
    )
        .prop_map(
            |(service_rate, queue_capacity, disc, budget, brownout, rehome_strikes)| {
                let (client_tokens_per_sec, client_token_burst) =
                    budget.map_or((0.0, 0.0), |(tokens, burst)| (tokens, burst));
                OverloadPolicy {
                    service_rate,
                    queue_capacity,
                    discipline: [
                        ShedDiscipline::RejectAtAdmission,
                        ShedDiscipline::DropOldest,
                        ShedDiscipline::DropLowestTtl,
                    ][disc],
                    client_tokens_per_sec,
                    client_token_burst,
                    brownout,
                    rehome_strikes,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants hold after every step of any operation sequence.
    #[test]
    fn network_invariants_under_random_ops(
        ops in prop::collection::vec(arb_op(), 1..120),
        seed in any::<u64>(),
    ) {
        let mut net = SimNetwork::new();
        let mut rng = SpRng::seed_from_u64(seed);
        let mut clusters = Vec::new();
        let mut clients = Vec::new();
        for op in &ops {
            apply(&mut net, op, &mut clusters, &mut clients, &mut rng);
            if let Err(e) = net.check_invariants() {
                prop_assert!(false, "invariant broken after {:?}: {e}", op);
            }
        }
        prop_assert_eq!(net.num_alive_clusters(), clusters.len());
    }

    /// The engine end-to-end: any small configuration simulates without
    /// panicking and leaves a consistent network.
    #[test]
    fn engine_runs_any_small_config(
        cluster_size in 1usize..20,
        redundancy in prop::bool::ANY,
        ttl in 1u16..6,
        seed in any::<u64>(),
    ) {
        use sp_model::config::Config;
        use sp_sim::engine::{SimOptions, Simulation};
        let mut cfg = Config {
            graph_size: 120,
            cluster_size,
            ttl,
            ..Config::default()
        };
        if redundancy && cluster_size >= 2 {
            cfg.redundancy_k = 2;
        }
        let mut sim = Simulation::new(&cfg, SimOptions {
            duration_secs: 200.0,
            seed,
            ..Default::default()
        });
        let metrics = sim.run();
        prop_assert!(sim.net.check_invariants().is_ok());
        prop_assert!(metrics.availability() >= 0.0 && metrics.availability() <= 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under any generated fault plan the fast and reference engines
    /// produce bitwise-identical `RawMetrics`, and the recovery
    /// accounting conserves: every issued query is counted exactly once
    /// as direct, retry-recovered, failover-recovered, or lost, and the
    /// engine's flooded-query counter is issued − lost.
    #[test]
    fn engines_agree_and_conserve_under_any_fault_plan(
        plan in arb_plan(300.0),
        redundancy in prop::bool::ANY,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use sp_model::config::Config;
        use sp_sim::engine::{SimOptions, Simulation};
        use sp_sim::reference::ReferenceSimulation;
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            ..Config::default()
        }
        .with_redundancy(redundancy);
        let opts = SimOptions {
            duration_secs: 300.0,
            seed,
            fault_seed,
            ..Default::default()
        };
        let scenario = ScenarioPlan { faults: plan.clone(), ..ScenarioPlan::default() };
        let mut fast = Simulation::with_scenario(&cfg, opts, &scenario);
        let fast_metrics = fast.run();
        let mut reference = ReferenceSimulation::with_scenario(&cfg, opts, &scenario);
        let reference_metrics = reference.run();
        prop_assert_eq!(&fast_metrics, &reference_metrics,
            "engines diverged under plan {:?}", &plan);
        prop_assert!(fast.net.check_invariants().is_ok());
        prop_assert!(fast_metrics.faults.conserved(),
            "conservation broken: {:?}", &fast_metrics.faults);
        prop_assert_eq!(
            fast_metrics.queries,
            fast_metrics.faults.queries_issued - fast_metrics.faults.queries_lost,
            "flooded queries must be issued minus lost"
        );
    }

    /// Self-healing under any generated fault plan: with
    /// `--repair=promote+partner` the engines still agree bitwise, the
    /// conservation law still holds (headless-window queries are
    /// charged issued + lost), and the overlay never fragments worse
    /// than the no-repair run — repair keeps crashed clusters' nodes
    /// and edges alive, so its worst observed component count is
    /// bounded by the run that lets them dissolve.
    #[test]
    fn repair_conserves_and_never_fragments_worse(
        plan in arb_plan(300.0),
        redundancy in prop::bool::ANY,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use sp_model::config::Config;
        use sp_sim::engine::{SimOptions, Simulation};
        use sp_sim::reference::ReferenceSimulation;
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            ..Config::default()
        }
        .with_redundancy(redundancy);
        let opts = SimOptions {
            duration_secs: 300.0,
            seed,
            fault_seed,
            ..Default::default()
        };
        let healed = ScenarioPlan {
            faults: plan.clone(),
            repair: RepairPolicy::PromotePartner,
            ..ScenarioPlan::default()
        };
        let mut fast = Simulation::with_scenario(&cfg, opts, &healed);
        let repaired = fast.run();
        let mut reference = ReferenceSimulation::with_scenario(&cfg, opts, &healed);
        let reference_metrics = reference.run();
        prop_assert_eq!(&repaired, &reference_metrics,
            "engines diverged with repair under plan {:?}", &plan);
        prop_assert!(fast.net.check_invariants().is_ok());
        prop_assert!(repaired.faults.conserved(),
            "conservation broken with repair: {:?}", &repaired.faults);
        prop_assert_eq!(
            repaired.queries,
            repaired.faults.queries_issued - repaired.faults.queries_lost,
            "flooded queries must be issued minus lost"
        );
        let unrepaired = Simulation::with_scenario(
            &cfg,
            opts,
            &ScenarioPlan { repair: RepairPolicy::Off, ..healed },
        )
        .run();
        prop_assert!(
            repaired.repair.max_components() <= unrepaired.repair.max_components(),
            "repair fragmented the overlay worse than no repair: {} > {} under plan {:?}",
            repaired.repair.max_components(),
            unrepaired.repair.max_components(),
            &plan
        );
    }

    /// Under any generated scenario plan — phased flash crowds, churn
    /// bursts, mass leaves, splits, capacity classes, embedded faults,
    /// any repair policy — the fast and reference engines produce
    /// bitwise-identical `RawMetrics`, the conservation law holds, and
    /// the plan survives a JSON round trip unchanged.
    #[test]
    fn engines_agree_under_any_scenario_plan(
        plan in arb_scenario(300.0),
        redundancy in prop::bool::ANY,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        scenario_seed in any::<u64>(),
    ) {
        use sp_model::config::Config;
        use sp_sim::engine::{SimOptions, Simulation};
        use sp_sim::reference::ReferenceSimulation;
        prop_assert!(plan.validate().is_ok(),
            "generator emitted an invalid plan {:?}", &plan);
        let round_trip = ScenarioPlan::from_json(&plan.to_json());
        prop_assert_eq!(round_trip.as_ref(), Ok(&plan),
            "scenario JSON round trip changed the plan");
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            ..Config::default()
        }
        .with_redundancy(redundancy);
        let opts = SimOptions {
            duration_secs: 300.0,
            seed,
            fault_seed,
            scenario_seed,
            ..Default::default()
        };
        let mut fast = Simulation::with_scenario(&cfg, opts, &plan);
        let fast_metrics = fast.run();
        let mut reference = ReferenceSimulation::with_scenario(&cfg, opts, &plan);
        let reference_metrics = reference.run();
        prop_assert_eq!(&fast_metrics, &reference_metrics,
            "engines diverged under scenario {:?}", &plan);
        prop_assert!(fast.net.check_invariants().is_ok());
        prop_assert!(fast_metrics.faults.conserved(),
            "conservation broken under scenario: {:?}", &fast_metrics.faults);
    }

    /// The sharded scale engine under any generated fault plan: metrics
    /// reduce bitwise identically at 1, 2, and 8 shards — the tentpole
    /// layout-invariance contract, fuzzed over crash storms whose
    /// elections announce re-indexing across shard boundaries.
    #[test]
    fn scale_engine_shard_invariant_under_any_fault_plan(
        plan in arb_plan(200.0),
        redundancy in prop::bool::ANY,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use sp_model::config::Config;
        use sp_sim::shard::{ScaleOptions, ShardedSimulation};
        let cfg = Config::scale_preset(1_000).with_redundancy(redundancy);
        let opts = ScaleOptions {
            duration_secs: 200.0,
            seed,
            fault_seed,
            shards: 1,
            ..Default::default()
        };
        let base = ShardedSimulation::with_faults(&cfg, opts, &plan).run();
        prop_assert!(base.queries_issued + base.queries_failed > 0);
        for shards in [2usize, 8] {
            let sharded = ShardedSimulation::with_faults(
                &cfg,
                ScaleOptions { shards, ..opts },
                &plan,
            )
            .run();
            prop_assert_eq!(
                &base, &sharded,
                "scale metrics diverged at {} shards under plan {:?}", shards, &plan
            );
        }
    }

    /// Overload control under any generated scenario × any valid
    /// policy: the fast and reference engines stay bitwise identical,
    /// the *extended* conservation law holds (issued = lost +
    /// delivered + shed + rejected), and a bounded work queue never
    /// exceeds its configured capacity.
    #[test]
    fn overload_bounds_queues_and_conserves_on_both_engines(
        plan in arb_scenario(300.0),
        policy in arb_overload_policy(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        scenario_seed in any::<u64>(),
    ) {
        use sp_model::config::Config;
        use sp_sim::engine::{SimOptions, Simulation};
        use sp_sim::reference::ReferenceSimulation;
        prop_assert!(policy.validate().is_ok(),
            "generator emitted an invalid policy {:?}", &policy);
        let mut plan = plan;
        plan.overload = policy;
        prop_assert!(plan.validate().is_ok(),
            "plan with overload policy failed validation {:?}", &plan);
        // A query rate high enough that the drawn service rates span
        // both saturated and comfortable regimes.
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            query_rate: 0.2,
            ..Config::default()
        };
        let opts = SimOptions {
            duration_secs: 300.0,
            seed,
            fault_seed,
            scenario_seed,
            ..Default::default()
        };
        let fast = Simulation::with_scenario(&cfg, opts, &plan).run();
        let reference = ReferenceSimulation::with_scenario(&cfg, opts, &plan).run();
        prop_assert_eq!(&fast, &reference,
            "engines diverged under overload policy {:?}", &policy);
        prop_assert!(
            fast.overload.conserved(fast.faults.queries_issued, fast.faults.queries_lost),
            "extended conservation broken: issued {} lost {} ledger {:?}",
            fast.faults.queries_issued, fast.faults.queries_lost, &fast.overload
        );
        if policy.queue_capacity > 0 {
            prop_assert!(
                fast.overload.peak_depth <= u64::from(policy.queue_capacity),
                "queue bound violated: peak depth {} > capacity {}",
                fast.overload.peak_depth, policy.queue_capacity
            );
        }
    }

    /// The sharded scale engine under any fault plan × any valid
    /// overload policy: the reduced metrics (including the overload
    /// ledger) are identical at 1, 2, and 4 shards, the scale
    /// engine's own conservation identities hold, and the queue bound
    /// is honored.
    #[test]
    fn scale_engine_overload_is_shard_invariant_and_conserves(
        plan in arb_plan(200.0),
        policy in arb_overload_policy(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use sp_model::config::Config;
        use sp_sim::shard::{ScaleOptions, ShardedSimulation};
        let mut cfg = Config::scale_preset(1_000);
        cfg.query_rate = 0.05;
        let opts = ScaleOptions {
            duration_secs: 200.0,
            seed,
            fault_seed,
            shards: 1,
            overload: policy,
            ..Default::default()
        };
        let base = ShardedSimulation::with_faults(&cfg, opts, &plan).run();
        prop_assert!(base.overload_conserved(),
            "scale overload ledger broke under policy {:?}: {:?}", &policy, &base);
        if policy.queue_capacity > 0 {
            prop_assert!(
                base.ov_peak_depth <= u64::from(policy.queue_capacity),
                "scale queue bound violated: peak depth {} > capacity {}",
                base.ov_peak_depth, policy.queue_capacity
            );
        }
        for shards in [2usize, 4] {
            let sharded = ShardedSimulation::with_faults(
                &cfg,
                ScaleOptions { shards, ..opts },
                &plan,
            )
            .run();
            prop_assert_eq!(
                &base, &sharded,
                "overload ledger diverged at {} shards under policy {:?}",
                shards, &policy
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Checkpoint/restore round trip under any generated scenario plan:
    /// pausing either churn engine at an arbitrary point, snapshotting,
    /// and restoring reproduces the uninterrupted run bitwise — and a
    /// snapshot fed to the wrong engine is rejected by name.
    #[test]
    fn checkpoint_round_trips_on_both_engines_under_any_scenario(
        plan in arb_scenario(300.0),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        scenario_seed in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        use sp_model::config::Config;
        use sp_model::snapshot::SnapshotError;
        use sp_sim::engine::{SimOptions, Simulation};
        use sp_sim::reference::ReferenceSimulation;
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            ..Config::default()
        };
        let opts = SimOptions {
            duration_secs: 300.0,
            seed,
            fault_seed,
            scenario_seed,
            ..Default::default()
        };
        let at = 300.0 * frac;

        let full = Simulation::with_scenario(&cfg, opts, &plan).run();
        let mut paused = Simulation::with_scenario(&cfg, opts, &plan);
        paused.run_to(at);
        let snap = paused.snapshot();
        let resumed = Simulation::restore(&snap)
            .expect("own snapshot restores")
            .run();
        prop_assert_eq!(&full, &resumed,
            "fast resume at t={} diverged under plan {:?}", at, &plan);

        let full = ReferenceSimulation::with_scenario(&cfg, opts, &plan).run();
        let mut paused = ReferenceSimulation::with_scenario(&cfg, opts, &plan);
        paused.run_to(at);
        let resumed = ReferenceSimulation::restore(&paused.snapshot())
            .expect("own snapshot restores")
            .run();
        prop_assert_eq!(&full, &resumed,
            "reference resume at t={} diverged under plan {:?}", at, &plan);

        prop_assert!(matches!(
            ReferenceSimulation::restore(&snap),
            Err(SnapshotError::WrongEngine { .. })
        ), "a fast snapshot must not restore into the reference engine");
    }

    /// Resume invariance in the middle of an overloaded flash crowd:
    /// checkpoint either churn engine while a 10× crowd is saturating
    /// bounded queues (mid-shed, mid-brownout, mid-re-home), restore,
    /// and the finished run is bitwise identical to the uninterrupted
    /// one — the overload runtime state round-trips exactly.
    #[test]
    fn overload_resume_mid_flash_crowd_is_bitwise_invariant(
        policy in arb_overload_policy(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        scenario_seed in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        use sp_model::config::Config;
        use sp_sim::engine::{SimOptions, Simulation};
        use sp_sim::reference::ReferenceSimulation;
        let mut plan = ScenarioPlan::default();
        plan.phases.push(PhaseSpec {
            rate_mult: 1.0,
            from_secs: 60.0,
            until_secs: 240.0,
            kind: PhaseKind::FlashCrowd {
                query_rate_mult: 10.0,
                hot_shift: 16,
            },
        });
        plan.overload = policy;
        prop_assert!(plan.validate().is_ok());
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            query_rate: 0.2,
            ..Config::default()
        };
        let opts = SimOptions {
            duration_secs: 300.0,
            seed,
            fault_seed,
            scenario_seed,
            ..Default::default()
        };
        // Checkpoint *inside* the crowd window.
        let at = 60.0 + 180.0 * frac;

        let full = Simulation::with_scenario(&cfg, opts, &plan).run();
        let mut paused = Simulation::with_scenario(&cfg, opts, &plan);
        paused.run_to(at);
        let resumed = Simulation::restore(&paused.snapshot())
            .expect("own snapshot restores")
            .run();
        prop_assert_eq!(&full, &resumed,
            "fast resume at t={} mid-crowd diverged under policy {:?}",
            at, &plan.overload);
        prop_assert!(
            full.overload.conserved(full.faults.queries_issued, full.faults.queries_lost),
            "extended conservation broken mid-crowd: {:?}", &full.overload
        );

        let full = ReferenceSimulation::with_scenario(&cfg, opts, &plan).run();
        let mut paused = ReferenceSimulation::with_scenario(&cfg, opts, &plan);
        paused.run_to(at);
        let resumed = ReferenceSimulation::restore(&paused.snapshot())
            .expect("own snapshot restores")
            .run();
        prop_assert_eq!(&full, &resumed,
            "reference resume at t={} mid-crowd diverged", at);
    }

    /// Scale-engine checkpoints are canonical: produced at any shard
    /// count, taken at any tick, restored at any other shard count,
    /// the resumed run reduces to the uninterrupted metrics bitwise.
    #[test]
    fn scale_checkpoint_round_trips_at_any_shard_count(
        plan in arb_plan(200.0),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        produce_shards in 1usize..5,
        restore_shards in 1usize..5,
        frac in 0.0f64..1.0,
    ) {
        use sp_model::config::Config;
        use sp_sim::shard::{ScaleOptions, ShardedSimulation};
        let cfg = Config::scale_preset(1_000);
        let opts = ScaleOptions {
            duration_secs: 200.0,
            seed,
            fault_seed,
            shards: produce_shards,
            ..Default::default()
        };
        let full = ShardedSimulation::with_faults(&cfg, opts, &plan)
            .try_run()
            .expect("uninterrupted run");
        let mut paused = ShardedSimulation::with_faults(&cfg, opts, &plan);
        let mid = (paused.total_ticks() as f64 * frac) as u32;
        paused.run_to(mid).expect("run to checkpoint tick");
        let resumed = ShardedSimulation::restore(
            &paused.snapshot(),
            ScaleOptions { shards: restore_shards, ..Default::default() },
        )
        .expect("own snapshot restores")
        .try_run()
        .expect("resumed run");
        prop_assert_eq!(&full, &resumed,
            "resume at tick {} ({} -> {} shards) diverged under plan {:?}",
            mid, produce_shards, restore_shards, &plan);
    }

    /// Damage rejection: any single bit flip and any strict truncation
    /// of a sealed snapshot must fail restore with a named
    /// [`SnapshotError`] — never panic, never silently misread — and a
    /// future schema version is refused by name.
    #[test]
    fn corrupted_snapshots_are_rejected_never_misread(
        seed in any::<u64>(),
        flip_pos in any::<u64>(),
        flip_bit in 0u8..8,
        cut in any::<u64>(),
    ) {
        use sp_model::config::Config;
        use sp_model::snapshot::SnapshotError;
        use sp_sim::engine::{SimOptions, Simulation};
        let cfg = Config {
            graph_size: 60,
            cluster_size: 10,
            ..Config::default()
        };
        let mut sim = Simulation::new(&cfg, SimOptions {
            duration_secs: 100.0,
            seed,
            ..Default::default()
        });
        sim.run_to(50.0);
        let snap = sim.snapshot();
        prop_assert!(Simulation::restore(&snap).is_ok());

        let mut flipped = snap.clone();
        let i = (flip_pos % flipped.len() as u64) as usize;
        flipped[i] ^= 1 << flip_bit;
        prop_assert!(
            Simulation::restore(&flipped).is_err(),
            "bit {} of byte {} flipped yet the snapshot restored", flip_bit, i
        );

        let prefix = &snap[..(cut % snap.len() as u64) as usize];
        prop_assert!(
            Simulation::restore(prefix).is_err(),
            "a {}-byte prefix of a {}-byte snapshot restored", prefix.len(), snap.len()
        );

        let mut future = snap;
        future[4] = future[4].wrapping_add(1);
        prop_assert!(matches!(
            Simulation::restore(&future),
            Err(SnapshotError::UnsupportedVersion { .. })
        ), "a bumped schema version must be refused by name");
    }
}
