//! Network-instance generation (Step 1 of the paper's methodology).
//!
//! A configuration describes a *distribution* over networks; an
//! instance is one draw: `n = GraphSize / ClusterSize` clusters, a
//! topology over them (strongly connected or PLOD power-law), `k`
//! partner peers per virtual super-peer, `C ~ N(c, 0.2c)` clients per
//! cluster, and per-peer file counts and lifespans from the population
//! model.

use sp_graph::generate::{plod, PlodConfig};
use sp_graph::traverse::{flood, message_counts, FloodResult, FloodScratch, MessageCounts};
use sp_graph::{Graph, NodeId};
use sp_stats::dist::Sampler;
use sp_stats::{SpRng, TruncatedDiscreteNormal};

use crate::config::{Config, ConfigError};

/// Peer identifier within one instance.
pub type PeerId = u32;

/// A peer's role in the super-peer network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A partner of cluster `cluster`'s virtual super-peer (the only
    /// partner when `k = 1`).
    Partner {
        /// Cluster index (= overlay graph node).
        cluster: u32,
    },
    /// A client attached to cluster `cluster`.
    Client {
        /// Cluster index (= overlay graph node).
        cluster: u32,
    },
}

impl Role {
    /// The cluster this peer belongs to.
    pub fn cluster(&self) -> u32 {
        match *self {
            Role::Partner { cluster } | Role::Client { cluster } => cluster,
        }
    }

    /// Whether the peer is a super-peer partner.
    pub fn is_partner(&self) -> bool {
        matches!(self, Role::Partner { .. })
    }
}

/// One peer of an instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peer {
    /// Role and cluster membership.
    pub role: Role,
    /// Number of shared files.
    pub files: u32,
    /// Session lifespan, seconds (join rate = 1 / lifespan).
    pub lifespan_secs: f64,
}

/// One cluster: a virtual super-peer (k partners) plus its clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// The partner peers (length = `redundancy_k`).
    pub partners: Vec<PeerId>,
    /// The client peers.
    pub clients: Vec<PeerId>,
}

impl Cluster {
    /// Cluster size in the paper's sense: clients + partners.
    pub fn size(&self) -> usize {
        self.partners.len() + self.clients.len()
    }
}

/// The overlay topology over clusters.
///
/// The strongly connected case is kept symbolic: materializing `K_n`
/// for `n = 10 000` clusters would need Θ(n²) memory, and every
/// BFS-derived quantity has a closed form.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Every cluster neighbors every other.
    Complete {
        /// Number of clusters.
        n: usize,
    },
    /// An explicit overlay graph (power-law in the paper).
    Explicit(Graph),
}

impl Topology {
    /// Number of overlay nodes (clusters).
    pub fn num_nodes(&self) -> usize {
        match self {
            Topology::Complete { n } => *n,
            Topology::Explicit(g) => g.num_nodes(),
        }
    }

    /// Outdegree of cluster `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        match self {
            Topology::Complete { n } => n.saturating_sub(1),
            Topology::Explicit(g) => g.degree(v),
        }
    }

    /// Mean outdegree.
    pub fn mean_degree(&self) -> f64 {
        match self {
            Topology::Complete { n } => n.saturating_sub(1) as f64,
            Topology::Explicit(g) => g.mean_degree(),
        }
    }

    /// Floods a query from `src` with `ttl`, returning the BFS result
    /// and the per-cluster query-transmission counts (including
    /// redundant copies).
    ///
    /// Allocates four n-sized vectors per call (depth, parent, sent and
    /// recv) plus the visit order; the analysis hot loop
    /// uses [`Topology::flood_into`] instead.
    pub fn flood(&self, src: NodeId, ttl: u16) -> (FloodResult, MessageCounts) {
        match self {
            Topology::Explicit(g) => {
                let f = flood(g, src, ttl);
                let mc = message_counts(g, &f);
                (f, mc)
            }
            Topology::Complete { n } => flood_complete(*n, src, ttl),
        }
    }

    /// Allocation-free variant of [`Topology::flood`]: floods into a
    /// reusable [`FloodScratch`] (closed form for the symbolic complete
    /// topology). Produces exactly the same visit order, depths,
    /// parents and message counts, laid out by BFS position.
    pub fn flood_into(&self, scratch: &mut FloodScratch, src: NodeId, ttl: u16) {
        match self {
            Topology::Explicit(g) => scratch.flood(g, src, ttl),
            Topology::Complete { n } => scratch.flood_complete(*n, src, ttl),
        }
    }
}

/// Closed-form flood over `K_n`: every non-source node is at depth 1.
/// With `ttl >= 2`, every depth-1 node forwards to its `n − 2`
/// non-source neighbors and all of those copies are redundant.
fn flood_complete(n: usize, src: NodeId, ttl: u16) -> (FloodResult, MessageCounts) {
    assert!((src as usize) < n, "source {src} out of range");
    let mut depth = vec![sp_graph::traverse::UNREACHED; n];
    let mut parent: Vec<NodeId> = (0..n as NodeId).collect();
    let mut order = Vec::with_capacity(if ttl == 0 { 1 } else { n });
    depth[src as usize] = 0;
    order.push(src);
    let mut sent = vec![0u32; n];
    let mut recv = vec![0u32; n];
    if ttl >= 1 && n > 1 {
        for v in 0..n as NodeId {
            if v == src {
                continue;
            }
            depth[v as usize] = 1;
            parent[v as usize] = src;
            order.push(v);
        }
        sent[src as usize] = (n - 1) as u32;
        let echo = if ttl >= 2 { (n - 2) as u32 } else { 0 };
        for v in 0..n {
            if v as NodeId == src {
                continue;
            }
            recv[v] = 1 + echo;
            sent[v] = echo;
        }
    }
    (
        FloodResult {
            source: src,
            ttl,
            order,
            depth,
            parent,
        },
        MessageCounts { sent, recv },
    )
}

/// One generated network instance.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkInstance {
    /// The configuration the instance was drawn from.
    pub config: Config,
    /// The cluster overlay.
    pub topology: Topology,
    /// All clusters; cluster `i` sits at overlay node `i`.
    pub clusters: Vec<Cluster>,
    /// All peers.
    pub peers: Vec<Peer>,
}

impl NetworkInstance {
    /// Generates an instance of `config` using `rng`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid.
    pub fn generate(config: &Config, rng: &mut SpRng) -> Result<Self, ConfigError> {
        config.validate()?;
        let n = config.num_clusters();
        let k = config.redundancy_k;

        let topology = match config.graph_type {
            crate::config::GraphType::StronglyConnected => Topology::Complete { n },
            _ if n == 1 => Topology::Complete { n: 1 },
            family => {
                let mean = config.avg_outdegree.min((n - 1) as f64).max(1.0);
                let graph = match family {
                    crate::config::GraphType::PowerLaw => plod(n, PlodConfig::with_mean(mean), rng),
                    crate::config::GraphType::ErdosRenyi => {
                        sp_graph::generate::erdos_renyi(n, mean, rng)
                    }
                    crate::config::GraphType::RandomRegular => {
                        sp_graph::generate::random_regular(n, mean.round() as usize, rng)
                    }
                    crate::config::GraphType::StronglyConnected => unreachable!("handled above"),
                };
                Topology::Explicit(graph)
            }
        };

        let mean_clients = config.mean_clients();
        let client_dist =
            (mean_clients > 0.0).then(|| TruncatedDiscreteNormal::cluster_size(mean_clients));

        let mut peers = Vec::with_capacity(config.graph_size + n * k);
        let mut clusters = Vec::with_capacity(n);
        for cluster_idx in 0..n as u32 {
            fn sample_peer(
                role: Role,
                peers: &mut Vec<Peer>,
                pop: &crate::population::PopulationModel,
                rng: &mut SpRng,
            ) -> PeerId {
                let id = peers.len() as PeerId;
                peers.push(Peer {
                    role,
                    files: pop.sample_files(rng),
                    lifespan_secs: pop.sample_lifespan(rng),
                });
                id
            }
            let partners: Vec<PeerId> = (0..k)
                .map(|_| {
                    sample_peer(
                        Role::Partner {
                            cluster: cluster_idx,
                        },
                        &mut peers,
                        &config.population,
                        rng,
                    )
                })
                .collect();
            let num_clients = client_dist
                .as_ref()
                .map(|d| d.sample(rng) as usize)
                .unwrap_or(0);
            let clients: Vec<PeerId> = (0..num_clients)
                .map(|_| {
                    sample_peer(
                        Role::Client {
                            cluster: cluster_idx,
                        },
                        &mut peers,
                        &config.population,
                        rng,
                    )
                })
                .collect();
            clusters.push(Cluster { partners, clients });
        }

        Ok(NetworkInstance {
            config: config.clone(),
            topology,
            clusters,
            peers,
        })
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Total number of peers (partners + clients).
    pub fn num_peers(&self) -> usize {
        self.peers.len()
    }

    /// Total files indexed by cluster `i`'s virtual super-peer: the
    /// clients' collections plus every partner's own collection.
    pub fn cluster_files(&self, i: usize) -> u64 {
        let c = &self.clusters[i];
        c.partners
            .iter()
            .chain(c.clients.iter())
            .map(|&p| self.peers[p as usize].files as u64)
            .sum()
    }

    /// Iterator over the file counts of cluster `i`'s member
    /// collections (partners first, then clients) — the `x_i` of
    /// Equation (6).
    pub fn cluster_member_files(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        let c = &self.clusters[i];
        c.partners
            .iter()
            .chain(c.clients.iter())
            .map(move |&p| self.peers[p as usize].files)
    }

    /// Open connections of a peer.
    ///
    /// * client: one connection per partner (`k`);
    /// * partner of cluster `i`: its clients, plus `k` connections per
    ///   neighboring cluster (every partner connects to every partner
    ///   of every neighbor — this is the k² connection growth of
    ///   Section 3.2), plus its `k − 1` co-partners.
    pub fn connections(&self, peer: PeerId) -> f64 {
        let k = self.config.redundancy_k as f64;
        match self.peers[peer as usize].role {
            Role::Client { .. } => k,
            Role::Partner { cluster } => {
                let c = &self.clusters[cluster as usize];
                let deg = self.topology.degree(cluster) as f64;
                c.clients.len() as f64 + k * deg + (k - 1.0)
            }
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]
mod tests {
    use super::*;
    use crate::config::GraphType;

    fn small_config() -> Config {
        Config {
            graph_size: 200,
            cluster_size: 10,
            ..Config::default()
        }
    }

    #[test]
    fn instance_has_expected_structure() {
        let cfg = small_config();
        let mut rng = SpRng::seed_from_u64(1);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        assert_eq!(inst.num_clusters(), 20);
        for c in &inst.clusters {
            assert_eq!(c.partners.len(), 1);
        }
        // Total peers ≈ graph_size (clients are N(9, 1.8) per cluster
        // plus one partner each).
        let total = inst.num_peers();
        assert!((150..=250).contains(&total), "total peers {total}");
        // Roles point back at their clusters.
        for (i, c) in inst.clusters.iter().enumerate() {
            for &p in c.partners.iter().chain(c.clients.iter()) {
                assert_eq!(inst.peers[p as usize].role.cluster() as usize, i);
            }
        }
    }

    #[test]
    fn redundancy_creates_two_partners() {
        let cfg = small_config().with_redundancy(true);
        let mut rng = SpRng::seed_from_u64(2);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        for c in &inst.clusters {
            assert_eq!(c.partners.len(), 2);
            assert!(inst.peers[c.partners[0] as usize].role.is_partner());
        }
    }

    #[test]
    fn pure_network_has_no_clients() {
        let cfg = Config {
            graph_size: 50,
            cluster_size: 1,
            ..Config::default()
        };
        let mut rng = SpRng::seed_from_u64(3);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        assert_eq!(inst.num_clusters(), 50);
        assert_eq!(inst.num_peers(), 50);
        assert!(inst.clusters.iter().all(|c| c.clients.is_empty()));
    }

    #[test]
    fn strongly_connected_topology_is_symbolic() {
        let cfg = Config {
            graph_type: GraphType::StronglyConnected,
            graph_size: 100,
            cluster_size: 10,
            ..Config::default()
        };
        let mut rng = SpRng::seed_from_u64(4);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        assert!(matches!(inst.topology, Topology::Complete { n: 10 }));
        assert_eq!(inst.topology.degree(0), 9);
        assert_eq!(inst.topology.mean_degree(), 9.0);
    }

    #[test]
    fn cluster_files_sums_members() {
        let cfg = small_config();
        let mut rng = SpRng::seed_from_u64(5);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        for i in 0..inst.num_clusters() {
            let direct: u64 = inst.cluster_member_files(i).map(u64::from).sum();
            assert_eq!(direct, inst.cluster_files(i));
        }
    }

    #[test]
    fn connections_count_roles() {
        let cfg = small_config().with_redundancy(true);
        let mut rng = SpRng::seed_from_u64(6);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        let c0 = &inst.clusters[0];
        let client_conns = inst.connections(c0.clients[0]);
        assert_eq!(client_conns, 2.0);
        let p = c0.partners[0];
        let deg = inst.topology.degree(0) as f64;
        let expect = c0.clients.len() as f64 + 2.0 * deg + 1.0;
        assert_eq!(inst.connections(p), expect);
    }

    #[test]
    fn flood_complete_matches_explicit_k5() {
        use sp_graph::generate::complete;
        let g = complete(5);
        for ttl in 0u16..4 {
            let (fc, mc_c) = flood_complete(5, 2, ttl);
            let fe = flood(&g, 2, ttl);
            let mc_e = message_counts(&g, &fe);
            assert_eq!(fc.reach(), fe.reach(), "ttl {ttl}");
            assert_eq!(mc_c.sent, mc_e.sent, "ttl {ttl}");
            assert_eq!(mc_c.recv, mc_e.recv, "ttl {ttl}");
            for v in 0..5u32 {
                assert_eq!(fc.depth[v as usize], fe.depth[v as usize]);
            }
        }
    }

    #[test]
    fn flood_complete_single_node() {
        let (f, mc) = flood_complete(1, 0, 7);
        assert_eq!(f.reach(), 1);
        assert_eq!(mc.sent, vec![0]);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let a = NetworkInstance::generate(&cfg, &mut SpRng::seed_from_u64(9)).unwrap();
        let b = NetworkInstance::generate(&cfg, &mut SpRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = Config {
            graph_size: 0,
            ..Config::default()
        };
        let mut rng = SpRng::seed_from_u64(0);
        assert!(NetworkInstance::generate(&cfg, &mut rng).is_err());
    }
}
