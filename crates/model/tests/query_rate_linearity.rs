//! A metamorphic relation of the cost model: every query charge is
//! proportional to the query rate, and join and update charges ignore
//! it. So on one fixed instance each peer's load is affine in the rate,
//! load(2q) − load(q) = load(q) − load(0), and the per-query figures
//! (results, EPL, reach) do not move at all. The engine determinism
//! suite compares the two analysis engines with each other; this
//! checks both against a relation neither computes.

#![allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]

use sp_model::analysis::{analyze, AnalysisOptions, AnalysisResult, Engine};
use sp_model::config::{Config, GraphType};
use sp_model::instance::NetworkInstance;
use sp_model::query_model::QueryModel;
use sp_stats::SpRng;

/// The engine determinism grid: a power-law overlay at TTL 7 and a
/// strongly connected one at TTL 1, with and without 2-redundancy.
fn instances() -> Vec<(&'static str, NetworkInstance)> {
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
    [
        ("strong", strong.clone()),
        ("strong+red", strong.with_redundancy(true)),
        ("power", power.clone()),
        ("power+red", power.with_redundancy(true)),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let inst = NetworkInstance::generate(&cfg, &mut SpRng::seed_from_u64(11)).unwrap();
        (name, inst)
    })
    .collect()
}

/// Exact analysis (every source) of `inst` with its query rate replaced.
fn at_rate(inst: &NetworkInstance, rate: f64, engine: Engine) -> AnalysisResult {
    let mut inst = inst.clone();
    inst.config.query_rate = rate;
    let model = QueryModel::from_config(&inst.config.query_model);
    let opts = AnalysisOptions {
        engine,
        ..AnalysisOptions::default()
    };
    analyze(&inst, &model, &opts, &mut SpRng::seed_from_u64(0))
}

#[test]
fn loads_are_affine_in_the_query_rate() {
    for (name, inst) in instances() {
        let q = Config::default().query_rate;
        for engine in [Engine::Fast, Engine::Reference] {
            let runs = [0.0, q, 2.0 * q].map(|rate| at_rate(&inst, rate, engine));
            let [r0, r1, r2] = &runs;
            for (peer, ((l0, l1), l2)) in r0.loads.iter().zip(&r1.loads).zip(&r2.loads).enumerate()
            {
                for (what, a, b, c) in [
                    ("in_bw", l0.in_bw, l1.in_bw, l2.in_bw),
                    ("out_bw", l0.out_bw, l1.out_bw, l2.out_bw),
                    ("proc", l0.proc, l1.proc, l2.proc),
                ] {
                    let residual = ((c - b) - (b - a)).abs();
                    let scale = a.abs().max(b.abs()).max(c.abs());
                    assert!(
                        residual <= 1e-12 * scale,
                        "{name} {engine:?} peer {peer} {what}: loads {a}, {b}, {c} at rates 0, q, 2q"
                    );
                }
            }
            let agg = |r: &AnalysisResult| r.metrics.aggregate.in_bw;
            assert!(agg(r2) > agg(r1), "{name} {engine:?}: no query load");
            for r in [r0, r2] {
                let (m, base) = (&r.metrics, &r1.metrics);
                assert_eq!(
                    m.results_per_query, base.results_per_query,
                    "{name} {engine:?}"
                );
                assert_eq!(m.epl, base.epl, "{name} {engine:?}");
                assert_eq!(
                    m.mean_reach_clusters, base.mean_reach_clusters,
                    "{name} {engine:?}"
                );
            }
        }
    }
}
