//! Property-based tests for the analysis engine's invariants.

#![allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]

use proptest::prelude::*;
use sp_model::analysis::{analyze, AnalysisOptions};
use sp_model::config::{Config, GraphType};
use sp_model::instance::NetworkInstance;
use sp_model::query_model::QueryModel;
use sp_stats::SpRng;

fn arb_config() -> impl Strategy<Value = Config> {
    (
        50usize..400,    // graph size
        1usize..30,      // cluster size
        prop::bool::ANY, // redundancy
        prop::bool::ANY, // strong vs power-law
        1u16..6,         // ttl
        2u32..12,        // avg outdegree (x1.0)
    )
        .prop_map(|(gs, cs, red, strong, ttl, deg)| {
            let cs = cs.min(gs);
            let mut cfg = Config {
                graph_size: gs,
                cluster_size: cs,
                graph_type: if strong {
                    GraphType::StronglyConnected
                } else {
                    GraphType::PowerLaw
                },
                ttl,
                avg_outdegree: deg as f64,
                ..Config::default()
            };
            if red && cs >= 2 {
                cfg.redundancy_k = 2;
            }
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: aggregate incoming bandwidth equals aggregate
    /// outgoing bandwidth — every transmitted byte lands somewhere.
    #[test]
    fn bandwidth_conservation(cfg in arb_config(), seed in any::<u64>()) {
        let mut rng = SpRng::seed_from_u64(seed);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        let model = QueryModel::from_config(&cfg.query_model);
        let r = analyze(&inst, &model, &AnalysisOptions::default(), &mut rng);
        let (i, o) = (r.metrics.aggregate.in_bw, r.metrics.aggregate.out_bw);
        prop_assert!((i - o).abs() <= 1e-6 * (1.0 + i.abs()), "in {i} vs out {o}");
    }

    /// All loads are non-negative and finite; the aggregate equals the
    /// sum of individual loads.
    #[test]
    fn loads_are_sane(cfg in arb_config(), seed in any::<u64>()) {
        let mut rng = SpRng::seed_from_u64(seed);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        let model = QueryModel::from_config(&cfg.query_model);
        let r = analyze(&inst, &model, &AnalysisOptions::default(), &mut rng);
        let mut sum_in = 0.0;
        let mut sum_proc = 0.0;
        for l in &r.loads {
            prop_assert!(l.in_bw.is_finite() && l.in_bw >= 0.0);
            prop_assert!(l.out_bw.is_finite() && l.out_bw >= 0.0);
            prop_assert!(l.proc.is_finite() && l.proc >= 0.0);
            sum_in += l.in_bw;
            sum_proc += l.proc;
        }
        prop_assert!((sum_in - r.metrics.aggregate.in_bw).abs() <= 1e-6 * (1.0 + sum_in));
        prop_assert!((sum_proc - r.metrics.aggregate.proc).abs() <= 1e-6 * (1.0 + sum_proc));
    }

    /// Results per query and EPL are bounded by the network: results
    /// never exceed match_rate × total files; EPL never exceeds TTL.
    #[test]
    fn results_and_epl_bounded(cfg in arb_config(), seed in any::<u64>()) {
        let mut rng = SpRng::seed_from_u64(seed);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        let model = QueryModel::from_config(&cfg.query_model);
        let r = analyze(&inst, &model, &AnalysisOptions::default(), &mut rng);
        let total_files: f64 = (0..inst.num_clusters())
            .map(|i| inst.cluster_files(i) as f64)
            .sum();
        let cap = model.expected_results(total_files);
        prop_assert!(r.metrics.results_per_query <= cap * (1.0 + 1e-9));
        prop_assert!(r.metrics.epl >= 0.0 && r.metrics.epl <= cfg.ttl as f64 + 1e-9);
        prop_assert!(r.metrics.mean_reach_clusters >= 1.0 - 1e-9);
        prop_assert!(r.metrics.mean_reach_clusters <= inst.num_clusters() as f64 + 1e-9);
    }

    /// Every client's load is dominated by its cluster's partner load
    /// in aggregate terms: the mean partner carries at least the mean
    /// client's bandwidth.
    #[test]
    fn partners_not_lighter_than_clients(cfg in arb_config(), seed in any::<u64>()) {
        prop_assume!(cfg.cluster_size >= 4);
        let mut rng = SpRng::seed_from_u64(seed);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        let model = QueryModel::from_config(&cfg.query_model);
        let r = analyze(&inst, &model, &AnalysisOptions::default(), &mut rng);
        if r.metrics.num_clients > 0 {
            prop_assert!(
                r.metrics.sp_mean.total_bw() >= r.metrics.client_mean.total_bw(),
                "sp {} < client {}",
                r.metrics.sp_mean.total_bw(),
                r.metrics.client_mean.total_bw()
            );
        }
    }

    /// Analysis is deterministic for a fixed seed.
    #[test]
    fn analysis_deterministic(cfg in arb_config(), seed in any::<u64>()) {
        let model = QueryModel::from_config(&cfg.query_model);
        let mut rng1 = SpRng::seed_from_u64(seed);
        let inst1 = NetworkInstance::generate(&cfg, &mut rng1).unwrap();
        let r1 = analyze(&inst1, &model, &AnalysisOptions::default(), &mut rng1);
        let mut rng2 = SpRng::seed_from_u64(seed);
        let inst2 = NetworkInstance::generate(&cfg, &mut rng2).unwrap();
        let r2 = analyze(&inst2, &model, &AnalysisOptions::default(), &mut rng2);
        prop_assert_eq!(r1.metrics.aggregate, r2.metrics.aggregate);
        prop_assert_eq!(r1.metrics.results_per_query, r2.metrics.results_per_query);
    }
}
