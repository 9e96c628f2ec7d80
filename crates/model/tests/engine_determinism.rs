//! Determinism contract of the analysis engine (see
//! `analysis.rs` module docs):
//!
//! * same shard count ⇒ **bitwise identical** results at any thread
//!   count;
//! * different shard counts ⇒ identical to ≤ 1e-12 relative (merge
//!   order only reassociates float sums);
//! * the Fast engine (allocation-free scratch flood, O(reach)
//!   charging) matches the Reference engine (fresh allocations, O(n)
//!   scan) — bitwise with a single shard;
//!
//! across topology family, redundancy, and source sampling.

#![allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]

use sp_model::analysis::{analyze, AnalysisOptions, AnalysisResult, Engine};
use sp_model::config::{Config, GraphType};
use sp_model::instance::NetworkInstance;
use sp_model::query_model::QueryModel;
use sp_stats::SpRng;

/// The experiment grid: strong and power-law overlays, with and
/// without 2-redundancy.
fn configs() -> Vec<(&'static str, Config)> {
    let strong = Config {
        graph_type: GraphType::StronglyConnected,
        graph_size: 400,
        cluster_size: 10,
        ttl: 1,
        ..Config::default()
    };
    let power = Config {
        graph_type: GraphType::PowerLaw,
        graph_size: 400,
        cluster_size: 10,
        avg_outdegree: 3.1,
        ttl: 7,
        ..Config::default()
    };
    vec![
        ("strong", strong.clone()),
        ("strong+red", strong.with_redundancy(true)),
        ("power", power.clone()),
        ("power+red", power.with_redundancy(true)),
    ]
}

/// Analyzes one instance with the given options; the RNG is re-seeded
/// identically per call so source sampling picks the same sources.
fn run(cfg: &Config, opts: &AnalysisOptions, seed: u64) -> AnalysisResult {
    let mut rng = SpRng::seed_from_u64(seed);
    let inst = NetworkInstance::generate(cfg, &mut rng).unwrap();
    let model = QueryModel::from_config(&cfg.query_model);
    analyze(&inst, &model, opts, &mut rng)
}

fn rel(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Asserts two results agree on every scalar metric and every
/// per-peer load component within `tol` relative.
fn assert_close(a: &AnalysisResult, b: &AnalysisResult, tol: f64, what: &str) {
    let (ma, mb) = (&a.metrics, &b.metrics);
    let scalars = [
        ("agg.in", ma.aggregate.in_bw, mb.aggregate.in_bw),
        ("agg.out", ma.aggregate.out_bw, mb.aggregate.out_bw),
        ("agg.proc", ma.aggregate.proc, mb.aggregate.proc),
        ("sp_mean.in", ma.sp_mean.in_bw, mb.sp_mean.in_bw),
        ("sp_mean.out", ma.sp_mean.out_bw, mb.sp_mean.out_bw),
        ("sp_mean.proc", ma.sp_mean.proc, mb.sp_mean.proc),
        ("sp_max.out", ma.sp_max.out_bw, mb.sp_max.out_bw),
        ("client_mean.in", ma.client_mean.in_bw, mb.client_mean.in_bw),
        ("results", ma.results_per_query, mb.results_per_query),
        ("epl", ma.epl, mb.epl),
        ("reach", ma.mean_reach_clusters, mb.mean_reach_clusters),
    ];
    for (name, x, y) in scalars {
        assert!(
            rel(x, y) <= tol,
            "{what}: metric {name} differs: {x} vs {y} (rel {})",
            rel(x, y)
        );
    }
    assert_eq!(a.loads.len(), b.loads.len(), "{what}: peer count differs");
    for (i, (la, lb)) in a.loads.iter().zip(&b.loads).enumerate() {
        for (name, x, y) in [
            ("in_bw", la.in_bw, lb.in_bw),
            ("out_bw", la.out_bw, lb.out_bw),
            ("proc", la.proc, lb.proc),
        ] {
            assert!(
                rel(x, y) <= tol,
                "{what}: peer {i} load {name} differs: {x} vs {y}"
            );
        }
    }
}

/// Asserts bitwise equality of metrics and per-peer loads.
fn assert_identical(a: &AnalysisResult, b: &AnalysisResult, what: &str) {
    assert_eq!(a.metrics, b.metrics, "{what}: metrics not bitwise equal");
    assert_eq!(a.loads, b.loads, "{what}: loads not bitwise equal");
}

#[test]
fn thread_count_never_changes_results() {
    // Fixed shard count (the default) ⇒ bitwise identical results at
    // 1, 2, and 8 worker threads.
    for (label, cfg) in configs() {
        for max_sources in [None, Some(25)] {
            let base = run(
                &cfg,
                &AnalysisOptions {
                    max_sources,
                    threads: 1,
                    ..AnalysisOptions::default()
                },
                7,
            );
            for threads in [2, 8] {
                let other = run(
                    &cfg,
                    &AnalysisOptions {
                        max_sources,
                        threads,
                        ..AnalysisOptions::default()
                    },
                    7,
                );
                assert_identical(
                    &base,
                    &other,
                    &format!("{label} sources={max_sources:?} threads 1 vs {threads}"),
                );
            }
        }
    }
}

#[test]
fn shard_count_only_reassociates_floats() {
    // Different shard counts regroup the per-shard partial sums, so
    // results may differ — but only by float reassociation, ≤ 1e-12
    // relative.
    for (label, cfg) in configs() {
        for max_sources in [None, Some(25)] {
            let one = run(
                &cfg,
                &AnalysisOptions {
                    max_sources,
                    shards: 1,
                    ..AnalysisOptions::default()
                },
                11,
            );
            for shards in [2, 8] {
                let sharded = run(
                    &cfg,
                    &AnalysisOptions {
                        max_sources,
                        shards,
                        ..AnalysisOptions::default()
                    },
                    11,
                );
                assert_close(
                    &one,
                    &sharded,
                    1e-12,
                    &format!("{label} sources={max_sources:?} shards 1 vs {shards}"),
                );
            }
        }
    }
}

#[test]
fn fast_single_shard_reproduces_reference_bitwise() {
    // One shard processes sources in the same order with the same
    // per-index charge order as the Reference engine, so the scratch
    // path must be bitwise identical to the fresh-allocation path.
    for (label, cfg) in configs() {
        for max_sources in [None, Some(25)] {
            let reference = run(
                &cfg,
                &AnalysisOptions {
                    max_sources,
                    engine: Engine::Reference,
                    ..AnalysisOptions::default()
                },
                13,
            );
            let fast = run(
                &cfg,
                &AnalysisOptions {
                    max_sources,
                    shards: 1,
                    engine: Engine::Fast,
                    ..AnalysisOptions::default()
                },
                13,
            );
            assert_identical(
                &reference,
                &fast,
                &format!("{label} sources={max_sources:?} reference vs fast(1 shard)"),
            );
        }
    }
}

#[test]
fn fast_default_matches_reference_closely() {
    // The default Fast configuration (32 shards, all cores) agrees
    // with the sequential Reference engine to ≤ 1e-12 relative on
    // every metric and every per-peer load.
    for (label, cfg) in configs() {
        let reference = run(
            &cfg,
            &AnalysisOptions {
                engine: Engine::Reference,
                ..AnalysisOptions::default()
            },
            17,
        );
        let fast = run(&cfg, &AnalysisOptions::default(), 17);
        assert_close(
            &reference,
            &fast,
            1e-12,
            &format!("{label} reference vs fast(default)"),
        );
    }
}

#[test]
fn histogram_outputs_match_across_engines() {
    // The by-outdegree histograms feed Figures 7/8; their per-key
    // means must agree across engines too.
    let cfg = configs().remove(2).1; // power-law
    let reference = run(
        &cfg,
        &AnalysisOptions {
            engine: Engine::Reference,
            ..AnalysisOptions::default()
        },
        19,
    );
    let fast = run(&cfg, &AnalysisOptions::default(), 19);
    let keys_ref: Vec<u64> = reference.results_by_outdegree.keys().collect();
    let keys_fast: Vec<u64> = fast.results_by_outdegree.keys().collect();
    assert_eq!(keys_ref, keys_fast, "histogram keys differ");
    for k in keys_ref {
        let a = reference.results_by_outdegree.get(k).unwrap();
        let b = fast.results_by_outdegree.get(k).unwrap();
        assert_eq!(a.count(), b.count(), "key {k} count");
        assert!(rel(a.mean(), b.mean()) <= 1e-12, "key {k} mean");
    }
}
