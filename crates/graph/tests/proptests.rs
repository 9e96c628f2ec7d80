//! Property-based tests for the graph substrate.

#![allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]

use proptest::prelude::*;
use sp_graph::generate::{erdos_renyi, plod, random_regular, PlodConfig};
use sp_graph::metrics::{components, is_connected, reach};
use sp_graph::traverse::{flood, message_counts, UNREACHED};
use sp_graph::{FloodScratch, Graph, GraphBuilder, NodeId};
use sp_stats::SpRng;

/// Builds an arbitrary simple graph from a node count and edge seeds.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..40,
        prop::collection::vec((0u32..40, 0u32..40), 0..120),
    )
        .prop_map(|(n, pairs)| {
            let mut b = GraphBuilder::new(n);
            for (a, c) in pairs {
                let (a, c) = (a % n as u32, c % n as u32);
                b.add_edge(a, c);
            }
            b.build()
        })
}

proptest! {
    /// Structural invariants hold for every built graph.
    #[test]
    fn builder_output_is_valid(g in arb_graph()) {
        prop_assert!(g.check_invariants().is_ok());
    }

    /// BFS depths satisfy the triangle property: adjacent nodes differ
    /// by at most one level, and every reached non-source node has a
    /// reached parent one level up.
    #[test]
    fn flood_depths_consistent(g in arb_graph(), src in 0u32..40, ttl in 0u16..6) {
        let src = src % g.num_nodes() as u32;
        let f = flood(&g, src, ttl);
        for v in g.nodes() {
            let dv = f.depth[v as usize];
            if dv == UNREACHED {
                continue;
            }
            prop_assert!(dv <= ttl);
            if v != src {
                let p = f.parent[v as usize];
                prop_assert!(g.has_edge(v, p));
                prop_assert_eq!(f.depth[p as usize] + 1, dv);
            }
            for &u in g.neighbors(v) {
                let du = f.depth[u as usize];
                if dv < ttl {
                    // A forwarding node delivers to all neighbors.
                    prop_assert!(du != UNREACHED && du <= dv + 1);
                }
            }
        }
    }

    /// Sent and received query-message totals balance, and every
    /// reached non-source node receives at least its first copy.
    #[test]
    fn message_conservation(g in arb_graph(), src in 0u32..40, ttl in 0u16..6) {
        let src = src % g.num_nodes() as u32;
        let f = flood(&g, src, ttl);
        let mc = message_counts(&g, &f);
        let sent: u64 = mc.sent.iter().map(|&x| x as u64).sum();
        let recv: u64 = mc.recv.iter().map(|&x| x as u64).sum();
        prop_assert_eq!(sent, recv);
        for &v in &f.order {
            if v != src && ttl > 0 {
                prop_assert!(mc.recv[v as usize] >= 1, "reached node {} got no copy", v);
            }
        }
        // Non-forwarding nodes never send.
        for v in g.nodes() {
            if !f.is_reached(v) || f.depth[v as usize] >= ttl {
                prop_assert_eq!(mc.sent[v as usize], 0);
            }
        }
    }

    /// Reach is monotone in TTL and bounded by the component size.
    #[test]
    fn reach_monotone_in_ttl(g in arb_graph(), src in 0u32..40) {
        let src = src % g.num_nodes() as u32;
        let comp_size = components(&g)
            .into_iter()
            .find(|c| c.contains(&(src as NodeId)))
            .map(|c| c.len())
            .unwrap_or(1);
        let mut prev = 0usize;
        for ttl in 0u16..8 {
            let r = reach(&g, src, ttl);
            prop_assert!(r >= prev);
            prop_assert!(r <= comp_size);
            prev = r;
        }
    }

    /// Generators always return connected graphs.
    #[test]
    fn generators_connected(n in 3usize..200, d in 2usize..8, seed in any::<u64>()) {
        let mut rng = SpRng::seed_from_u64(seed);
        prop_assert!(is_connected(&erdos_renyi(n, d as f64, &mut rng)));
        prop_assert!(is_connected(&random_regular(n, d.min(n - 1), &mut rng)));
        if (d as f64) < n as f64 {
            prop_assert!(is_connected(&plod(n, PlodConfig::with_mean(d as f64), &mut rng)));
        }
    }

    /// PLOD respects the configured degree cap.
    #[test]
    fn plod_respects_cap(n in 20usize..300, seed in any::<u64>()) {
        let mut rng = SpRng::seed_from_u64(seed);
        let cfg = PlodConfig { mean_degree: 4.0, beta: 0.8, max_degree: Some(9) };
        let g = plod(n, cfg, &mut rng);
        for v in g.nodes() {
            // Connectivity repair may add one edge to a random node of
            // each fragment; allow that slack.
            prop_assert!(g.degree(v) <= 9 + 3, "degree {} exceeds cap", g.degree(v));
        }
    }

    /// accumulate_up conserves total mass.
    #[test]
    fn accumulate_preserves_total_at_root(g in arb_graph(), src in 0u32..40) {
        let src = src % g.num_nodes() as u32;
        let f = flood(&g, src, 8);
        let mut vals: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 5) as f64).collect();
        let reached_total: f64 = f.order.iter().map(|&v| vals[v as usize]).sum();
        f.accumulate_up(&mut vals);
        prop_assert!((vals[src as usize] - reached_total).abs() < 1e-9);
    }

    /// One scratch reused across a sequence of (graph, source, TTL)
    /// cases always equals the allocating flood: the same node, depth,
    /// parent and sent count at every BFS position, and the same recv
    /// count at every node.
    #[test]
    fn reused_scratch_equals_allocating_flood(
        cases in prop::collection::vec((arb_graph(), 0u32..40, 0u16..10), 1..6)
    ) {
        let mut scratch = FloodScratch::new();
        for (g, src, ttl) in cases {
            let src = src % g.num_nodes() as u32;
            scratch.flood(&g, src, ttl);
            let f = flood(&g, src, ttl);
            let mc = message_counts(&g, &f);
            prop_assert_eq!(scratch.order(), &f.order[..]);
            let ends = scratch.level_ends();
            prop_assert!(ends.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(ends.last().map(|&e| e as usize), Some(f.reach()));
            let mut depth = 0;
            for (k, &v) in f.order.iter().enumerate() {
                while k >= ends[depth] as usize {
                    depth += 1;
                }
                let vu = v as usize;
                prop_assert_eq!(depth as u16, f.depth[vu]);
                prop_assert_eq!(f.order[scratch.parents()[k] as usize], f.parent[vu]);
                prop_assert_eq!(scratch.sent()[k], mc.sent[vu]);
            }
            for v in g.nodes() {
                prop_assert_eq!(scratch.recv(v), mc.recv[v as usize]);
            }
        }
    }
}
