//! Topology generators.
//!
//! The paper studies two graph families (Section 4.1, Step 1):
//! strongly connected ([`complete`]) and power-law ([`plod`], the
//! Palmer–Steffan PLOD algorithm, which is what the paper cites for
//! its power-law instances). [`erdos_renyi`], [`random_regular`], and
//! [`ring`] are baselines used by the topology-ablation benches to show
//! how degree *spread* (not just mean degree) drives the load imbalance
//! of Figures 7 and 12.
//!
//! All generators take an explicit [`SpRng`] so instances are
//! reproducible, and all returned graphs are **connected**: the paper's
//! overlay assumes a single search horizon, so generators repair
//! fragmentation by linking secondary components to the giant one
//! (adding at most `#components − 1` edges, a vanishing perturbation of
//! the degree law for the sizes studied).

use sp_stats::SpRng;

use crate::detset::PairSet;
use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::metrics::components;

/// Complete graph `K_n` — the paper's "strongly connected" topology.
///
/// Memory is Θ(n²); the analysis engine special-cases complete
/// topologies analytically, so explicit construction is only needed for
/// tests and small instances.
///
/// # Panics
///
/// Panics if `n > 20_000` (an explicit `K_n` beyond that is ~3 GiB of
/// adjacency and certainly a caller bug).
pub fn complete(n: usize) -> Graph {
    assert!(n <= 20_000, "explicit K_n for n = {n} would be enormous");
    let mut b = GraphBuilder::with_edge_capacity(n, n * n.saturating_sub(1) / 2);
    for a in 0..n {
        for c in (a + 1)..n {
            b.add_edge(a as NodeId, c as NodeId);
        }
    }
    b.build()
}

/// Cycle over `n` nodes (degree 2 everywhere). Worst-case diameter for
/// a connected graph of its degree; used as an EPL stress baseline.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut b = GraphBuilder::with_edge_capacity(n, n);
    for v in 0..n {
        b.add_edge(v as NodeId, ((v + 1) % n) as NodeId);
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)` with `p` chosen to hit `mean_degree`,
/// connectivity-repaired.
///
/// Uses geometric edge skipping, so generation is O(m) rather than
/// O(n²).
///
/// # Panics
///
/// Panics if `n == 0` or `mean_degree` is negative / non-finite, or if
/// the requested density saturates `p = 1` on a graph too large to
/// materialize as `K_n` (see [`complete`]).
pub fn erdos_renyi(n: usize, mean_degree: f64, rng: &mut SpRng) -> Graph {
    assert!(n > 0, "need at least one node");
    assert!(
        mean_degree.is_finite() && mean_degree >= 0.0,
        "mean degree must be finite and >= 0"
    );
    let mut b = GraphBuilder::new(n);
    if n > 1 && mean_degree > 0.0 {
        let p = (mean_degree / (n - 1) as f64).min(1.0);
        if p >= 1.0 {
            return complete(n);
        }
        // Iterate potential edges in lexicographic order, skipping
        // ahead geometrically.
        let total_pairs = n as u64 * (n as u64 - 1) / 2;
        let mut idx: f64 = -1.0;
        let log_q = (1.0 - p).ln();
        loop {
            // Skip to the next selected pair.
            let u = rng.unit_f64().max(f64::MIN_POSITIVE);
            idx += 1.0 + (u.ln() / log_q).floor();
            if idx >= total_pairs as f64 {
                break;
            }
            let (a, c) = pair_from_index(idx as u64, n as u64);
            b.add_edge(a as NodeId, c as NodeId);
        }
    }
    connect_components(b.build(), rng)
}

/// Maps a flat index in `[0, n(n-1)/2)` to the corresponding
/// lexicographic node pair `(a, c)` with `a < c`.
fn pair_from_index(idx: u64, n: u64) -> (u64, u64) {
    // Row a starts at offset a*n - a*(a+1)/2 - a ... solve by scanning
    // from an analytic estimate to stay O(1).
    let mut a =
        ((2.0 * n as f64 - 1.0 - ((2.0 * n as f64 - 1.0).powi(2) - 8.0 * idx as f64).sqrt()) / 2.0)
            .floor()
            .max(0.0) as u64;
    // Row a covers indices [start(a), start(a) + (n - a - 1)), with
    // start(a) = Σ_{k<a} (n - 1 - k) = a(n-1) - a(a-1)/2.
    let start = |a: u64| a * (n - 1) - a * a.saturating_sub(1) / 2;
    while a + 1 < n && start(a + 1) <= idx {
        a += 1;
    }
    while a > 0 && start(a) > idx {
        a -= 1;
    }
    let c = a + 1 + (idx - start(a));
    (a, c)
}

/// Random `d`-regular graph via stub pairing with rejection,
/// connectivity-repaired. Degrees may deviate by one for a few nodes if
/// pairing leaves an odd remainder.
///
/// # Panics
///
/// Panics if `d >= n`.
pub fn random_regular(n: usize, d: usize, rng: &mut SpRng) -> Graph {
    assert!(d < n, "degree {d} must be below node count {n}");
    let degrees = vec![d; n];
    let g = wire_stubs(n, &degrees, rng);
    connect_components(g, rng)
}

/// Configuration for the PLOD power-law generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlodConfig {
    /// Target average outdegree (the paper's "suggested outdegree").
    pub mean_degree: f64,
    /// PLOD exponent β: degree budgets are `α·x^{-β}` with `x` uniform.
    /// The resulting degree *distribution* tail exponent is
    /// `τ = 1 + 1/β`; Gnutella crawls report τ ≈ 2.2–2.4, so the
    /// default β = 0.8 gives τ = 2.25.
    pub beta: f64,
    /// Hard cap on any node's degree; `None` applies the default cap of
    /// `3 × mean_degree` (at least 2).
    ///
    /// Real overlays always have such a cap — the paper notes that
    /// "in most operating systems, the default number of open
    /// connections is limited", and Gnutella servents cap neighbor
    /// counts — and without one PLOD's heaviest node swallows a large
    /// constant fraction of a small graph, collapsing path lengths far
    /// below anything the paper measured. The 3× default reproduces the
    /// paper's Figure 9 EPL anchor points (EPL ≈ 2.3–2.5 at average
    /// outdegree 20 / reach 500; ≈ 4.8–5.4 at outdegree 3.1).
    pub max_degree: Option<usize>,
}

impl PlodConfig {
    /// Power-law with the given target mean degree and default shape.
    pub fn with_mean(mean_degree: f64) -> Self {
        PlodConfig {
            mean_degree,
            ..Default::default()
        }
    }

    /// Effective degree cap for a graph with `n` nodes.
    pub fn effective_cap(&self, n: usize) -> usize {
        let default_cap = (3.0 * self.mean_degree).ceil() as usize;
        self.max_degree
            .unwrap_or(default_cap.max(2))
            .min(n.saturating_sub(1))
    }
}

impl Default for PlodConfig {
    fn default() -> Self {
        PlodConfig {
            mean_degree: 3.1, // the paper's measured Gnutella average
            beta: 0.8,
            max_degree: None,
        }
    }
}

/// Power-Law Out-Degree (PLOD) generator of Palmer & Steffan
/// (GLOBECOM 2000), as cited by the paper for its power-law instances.
///
/// 1. Each node `i` draws a degree budget `d_i = round(α·x_i^{-β})`
///    with `x_i` uniform on `[1, n]`; `α` is solved by bisection so the
///    sampled mean hits `cfg.mean_degree`.
/// 2. Budgets are wired by random stub pairing (self-loops and
///    duplicate edges rejected, leftovers dropped).
/// 3. Components are linked to the giant component so the overlay is
///    connected.
///
/// The achieved mean degree is within a few percent of the target for
/// `n ≳ 100`; callers can verify with [`Graph::mean_degree`].
///
/// # Panics
///
/// Panics if `n == 0`, `mean_degree <= 0`, `mean_degree >= n`, or
/// `beta <= 0`.
pub fn plod(n: usize, cfg: PlodConfig, rng: &mut SpRng) -> Graph {
    assert!(n > 0, "need at least one node");
    assert!(
        cfg.mean_degree > 0.0 && cfg.mean_degree < n as f64,
        "mean degree {} must be in (0, n)",
        cfg.mean_degree
    );
    assert!(cfg.beta > 0.0, "beta must be positive");
    if n == 1 {
        return Graph::empty(1);
    }
    assert!(
        cfg.mean_degree <= cfg.effective_cap(n) as f64 + 1e-9,
        "mean degree {} is unreachable under the degree cap {} — raise max_degree",
        cfg.mean_degree,
        cfg.effective_cap(n)
    );

    // Draw the power-law shape once, then scale it to the target mean.
    let shape: Vec<f64> = (0..n)
        .map(|_| {
            let x = 1.0 + rng.unit_f64() * (n as f64 - 1.0);
            x.powf(-cfg.beta)
        })
        .collect();

    let max_deg = cfg.effective_cap(n).max(1) as f64;
    let mean_for = |alpha: f64| -> f64 {
        shape
            .iter()
            .map(|&s| (alpha * s).round().clamp(1.0, max_deg))
            .sum::<f64>()
            / n as f64
    };

    // Bisection on α. mean_for is monotone nondecreasing in α.
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while mean_for(hi) < cfg.mean_degree && hi < 1e12 {
        hi *= 2.0;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if mean_for(mid) < cfg.mean_degree {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let alpha = 0.5 * (lo + hi);
    let degrees: Vec<usize> = shape
        .iter()
        .map(|&s| (alpha * s).round().clamp(1.0, max_deg) as usize)
        .collect();

    let g = wire_stubs(n, &degrees, rng);
    connect_components(g, rng)
}

/// Wires a degree sequence by random stub matching. Self-loops and
/// duplicate pairs are retried a bounded number of times, then dropped;
/// the realized degree sequence is therefore a lower bound on the
/// budgets, tight in practice.
fn wire_stubs(n: usize, degrees: &[usize], rng: &mut SpRng) -> Graph {
    debug_assert_eq!(degrees.len(), n);
    let mut stubs: Vec<NodeId> = Vec::with_capacity(degrees.iter().sum());
    for (v, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v as NodeId, d));
    }
    rng.shuffle(&mut stubs);

    // `PairSet` rather than `HashSet<(NodeId, NodeId)>`: membership
    // only, deterministic by construction (rule D1), and its fixed
    // mixer beats SipHash on this hot path.
    let mut seen = PairSet::with_capacity(stubs.len() / 2);
    let mut b = GraphBuilder::with_edge_capacity(n, stubs.len() / 2);
    let mut leftovers: Vec<NodeId> = Vec::new();

    let take_pair = |a: NodeId, c: NodeId, b: &mut GraphBuilder, seen: &mut PairSet| -> bool {
        if a == c {
            return false;
        }
        if seen.insert(a, c) {
            b.add_edge(a, c);
            true
        } else {
            false
        }
    };

    let mut it = stubs.chunks_exact(2);
    for pair in &mut it {
        if !take_pair(pair[0], pair[1], &mut b, &mut seen) {
            leftovers.push(pair[0]);
            leftovers.push(pair[1]);
        }
    }
    leftovers.extend(it.remainder());

    // A few reshuffle passes over the rejected stubs recover most of
    // the residual degree budget.
    for _ in 0..4 {
        if leftovers.len() < 2 {
            break;
        }
        rng.shuffle(&mut leftovers);
        let mut still = Vec::new();
        let mut it = leftovers.chunks_exact(2);
        for pair in &mut it {
            if !take_pair(pair[0], pair[1], &mut b, &mut seen) {
                still.push(pair[0]);
                still.push(pair[1]);
            }
        }
        still.extend(it.remainder());
        leftovers = still;
    }
    b.build()
}

/// Links every secondary component to the giant component with one
/// random edge each, returning a connected graph.
fn connect_components(g: Graph, rng: &mut SpRng) -> Graph {
    let comps = components(&g);
    if comps.len() <= 1 {
        return g;
    }
    let giant = comps
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.len())
        .map(|(i, _)| i)
        .expect("at least one component");
    let mut b = GraphBuilder::with_edge_capacity(g.num_nodes(), g.num_edges() + comps.len());
    for (a, c) in g.edges() {
        b.add_edge(a, c);
    }
    for (i, comp) in comps.iter().enumerate() {
        if i == giant {
            continue;
        }
        let from = comp[rng.index(comp.len())];
        let to = comps[giant][rng.index(comps[giant].len())];
        b.add_edge(from, to);
    }
    b.build()
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]
mod tests {
    use super::*;
    use crate::metrics::{components, degree_stats};

    #[test]
    fn complete_graph_structure() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 5);
        }
        g.check_invariants().unwrap();
    }

    #[test]
    fn complete_trivial_sizes() {
        assert_eq!(complete(0).num_nodes(), 0);
        assert_eq!(complete(1).num_edges(), 0);
        assert_eq!(complete(2).num_edges(), 1);
    }

    #[test]
    fn ring_structure() {
        let g = ring(5);
        assert_eq!(g.num_edges(), 5);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(components(&g).len(), 1);
    }

    #[test]
    fn erdos_renyi_hits_mean_degree() {
        let mut rng = SpRng::seed_from_u64(42);
        let g = erdos_renyi(2000, 8.0, &mut rng);
        let mean = g.mean_degree();
        assert!(
            (mean - 8.0).abs() < 0.5,
            "ER mean degree {mean} far from target 8"
        );
        assert_eq!(components(&g).len(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn erdos_renyi_zero_degree_yields_star_repair_only() {
        let mut rng = SpRng::seed_from_u64(1);
        // With p = 0, the only edges come from connectivity repair.
        let g = erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(components(&g).len(), 1);
        assert_eq!(g.num_edges(), 9);
    }

    #[test]
    fn pair_from_index_roundtrip() {
        let n = 7u64;
        let mut idx = 0u64;
        for a in 0..n {
            for c in (a + 1)..n {
                assert_eq!(pair_from_index(idx, n), (a, c), "idx {idx}");
                idx += 1;
            }
        }
    }

    #[test]
    fn random_regular_degrees() {
        let mut rng = SpRng::seed_from_u64(3);
        let g = random_regular(500, 6, &mut rng);
        let stats = degree_stats(&g);
        assert!((stats.mean() - 6.0).abs() < 0.2, "mean {}", stats.mean());
        // Regular graph: tiny degree spread (stub rejection may nick a
        // few nodes by one).
        assert!(stats.std_dev() < 0.5, "std {}", stats.std_dev());
        assert_eq!(components(&g).len(), 1);
    }

    #[test]
    fn plod_hits_target_mean_degree() {
        let mut rng = SpRng::seed_from_u64(7);
        for target in [3.1f64, 10.0, 20.0] {
            let g = plod(2000, PlodConfig::with_mean(target), &mut rng);
            let mean = g.mean_degree();
            let rel = (mean - target).abs() / target;
            assert!(rel < 0.10, "target {target}: mean {mean} off by {rel}");
            assert_eq!(components(&g).len(), 1);
            g.check_invariants().unwrap();
        }
    }

    #[test]
    fn plod_degrees_are_heavy_tailed() {
        let mut rng = SpRng::seed_from_u64(11);
        let g = plod(3000, PlodConfig::with_mean(3.1), &mut rng);
        let stats = degree_stats(&g);
        // A power law with mean ~3 has a spread-out tail up to the
        // connection cap (3× mean by default), unlike a regular graph.
        assert!(
            stats.max() >= 2.5 * stats.mean(),
            "max {} not heavy-tailed vs mean {}",
            stats.max(),
            stats.mean()
        );
        // And most nodes sit near the minimum, so the spread is wide.
        assert!(stats.std_dev() > 0.5 * stats.mean());
    }

    #[test]
    fn plod_single_node() {
        let mut rng = SpRng::seed_from_u64(0);
        let g = plod(1, PlodConfig::with_mean(0.5), &mut rng);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn plod_deterministic_for_seed() {
        let cfg = PlodConfig::default();
        let g1 = plod(500, cfg, &mut SpRng::seed_from_u64(99));
        let g2 = plod(500, cfg, &mut SpRng::seed_from_u64(99));
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic(expected = "mean degree")]
    fn plod_rejects_unreachable_mean() {
        plod(5, PlodConfig::with_mean(10.0), &mut SpRng::seed_from_u64(0));
    }
}
