//! Configuration parameters (the paper's Table 1).
//!
//! A *configuration* describes both the desired topology and the user
//! behavior; one configuration is analyzed over many stochastic
//! instances. Defaults are the paper's Table 1 defaults.

use crate::costs::CostModel;
use crate::population::PopulationModel;
use crate::query_model::QueryModelConfig;

/// The type of super-peer overlay graph (Table 1, "Graph Type").
///
/// The paper studies the first two; the Erdős–Rényi and random-regular
/// families are reproduction extensions used by the topology-ablation
/// experiments to separate the effect of mean degree from the effect of
/// degree *spread* (Figures 7 and 12 are all about spread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphType {
    /// Every super-peer neighbors every other ("strongly connected").
    /// The analysis engine evaluates this case without materializing
    /// the Θ(n²) edge set.
    StronglyConnected,
    /// Power-law outdegrees around the configured average (PLOD).
    PowerLaw,
    /// Erdős–Rényi `G(n, p)` at the configured average outdegree
    /// (Poisson degrees — moderate spread). Extension.
    ErdosRenyi,
    /// Random regular graph at the configured average outdegree
    /// (no spread). Extension.
    RandomRegular,
}

/// One experiment configuration (Table 1), plus the cost/population/
/// query sub-models it is evaluated under.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// The overlay family. Default: power-law.
    pub graph_type: GraphType,
    /// Total number of peers in the network. Default: 10 000.
    pub graph_size: usize,
    /// Nodes per cluster, **including** the super-peer (or both
    /// partners when redundancy is on). Default: 10.
    pub cluster_size: usize,
    /// Number of partners forming each virtual super-peer: 1 = no
    /// redundancy (the paper's default), 2 = the paper's
    /// "super-peer redundancy". Values above 2 are an extension the
    /// paper motivates but does not evaluate (connection count grows as
    /// k²).
    pub redundancy_k: usize,
    /// Average outdegree of the super-peer overlay (power-law graphs
    /// only; ignored for strongly connected). Default: 3.1, the
    /// measured Gnutella average.
    pub avg_outdegree: f64,
    /// Query time-to-live. Default: 7 (the Gnutella default).
    pub ttl: u16,
    /// Expected queries per user per second. Default: 9.26 × 10⁻³.
    pub query_rate: f64,
    /// Expected updates per user per second. Default: 1.85 × 10⁻³
    /// (derived from the OpenNap download rate; the paper notes overall
    /// performance is insensitive to it).
    pub update_rate: f64,
    /// Atomic-action cost model (Table 2).
    pub costs: CostModel,
    /// Per-peer file-count and lifespan model (the Saroiu et al.
    /// stand-in).
    pub population: PopulationModel,
    /// Appendix B query model parameters.
    pub query_model: QueryModelConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            graph_type: GraphType::PowerLaw,
            graph_size: 10_000,
            cluster_size: 10,
            redundancy_k: 1,
            avg_outdegree: 3.1,
            ttl: 7,
            query_rate: 9.26e-3,
            update_rate: 1.85e-3,
            costs: CostModel::default(),
            population: PopulationModel::default(),
            query_model: QueryModelConfig::default(),
        }
    }
}

/// A configuration validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `graph_size` was zero.
    EmptyNetwork,
    /// `cluster_size` was zero or exceeded `graph_size`.
    BadClusterSize,
    /// `redundancy_k` was zero or did not fit in the cluster size.
    BadRedundancy,
    /// A rate or outdegree was negative or non-finite.
    BadNumeric(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyNetwork => write!(f, "graph_size must be positive"),
            ConfigError::BadClusterSize => {
                write!(f, "cluster_size must be in 1..=graph_size")
            }
            ConfigError::BadRedundancy => {
                write!(f, "redundancy_k must be in 1..=cluster_size")
            }
            ConfigError::BadNumeric(field) => {
                write!(f, "{field} must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// The paper's boolean "Redundancy" parameter: on = 2 partners.
    pub fn with_redundancy(mut self, on: bool) -> Self {
        self.redundancy_k = if on { 2 } else { 1 };
        self
    }

    /// Number of clusters `n = GraphSize / ClusterSize` (Step 1 of the
    /// analysis), at least one.
    pub fn num_clusters(&self) -> usize {
        (self.graph_size / self.cluster_size).max(1)
    }

    /// Mean number of *clients* per cluster: the cluster size minus the
    /// partners (`c = ClusterSize − 1` without redundancy,
    /// `ClusterSize − 2` with, per Section 4.1 Step 1).
    pub fn mean_clients(&self) -> f64 {
        (self.cluster_size as f64 - self.redundancy_k as f64).max(0.0)
    }

    /// The scale-simulation preset: Table 1 user behavior on an
    /// overlay of `peers` total peers, with the TTL lowered to 3 so a
    /// single flood visits ~tens of clusters instead of saturating the
    /// overlay. At TTL 7 and outdegree 3.1 a power-law flood reaches
    /// most of a small graph, which measures memory bandwidth rather
    /// than event throughput; TTL 3 keeps per-query work constant as
    /// `peers` grows, which is what an events/sec-vs-peers curve needs.
    pub fn scale_preset(peers: usize) -> Self {
        Config {
            graph_size: peers,
            ttl: 3,
            ..Config::default()
        }
    }

    /// Checks parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.graph_size == 0 {
            return Err(ConfigError::EmptyNetwork);
        }
        if self.cluster_size == 0 || self.cluster_size > self.graph_size {
            return Err(ConfigError::BadClusterSize);
        }
        if self.redundancy_k == 0 || self.redundancy_k > self.cluster_size {
            return Err(ConfigError::BadRedundancy);
        }
        for (name, v) in [
            ("avg_outdegree", self.avg_outdegree),
            ("query_rate", self.query_rate),
            ("update_rate", self.update_rate),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ConfigError::BadNumeric(name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let c = Config::default();
        assert_eq!(c.graph_type, GraphType::PowerLaw);
        assert_eq!(c.graph_size, 10_000);
        assert_eq!(c.cluster_size, 10);
        assert_eq!(c.redundancy_k, 1);
        assert!((c.avg_outdegree - 3.1).abs() < 1e-12);
        assert_eq!(c.ttl, 7);
        assert!((c.query_rate - 9.26e-3).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cluster_arithmetic() {
        let c = Config::default();
        assert_eq!(c.num_clusters(), 1000);
        assert_eq!(c.mean_clients(), 9.0);
        let r = c.clone().with_redundancy(true);
        assert_eq!(r.redundancy_k, 2);
        assert_eq!(r.mean_clients(), 8.0);
    }

    #[test]
    fn pure_network_is_degenerate_super_peer_network() {
        // "A pure P2P network is actually a degenerate super-peer
        // network where cluster size is 1."
        let c = Config {
            cluster_size: 1,
            ..Config::default()
        };
        assert_eq!(c.num_clusters(), 10_000);
        assert_eq!(c.mean_clients(), 0.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        let cases: Vec<(Config, ConfigError)> = vec![
            (
                Config {
                    graph_size: 0,
                    ..Config::default()
                },
                ConfigError::EmptyNetwork,
            ),
            (
                Config {
                    cluster_size: 0,
                    ..Config::default()
                },
                ConfigError::BadClusterSize,
            ),
            (
                Config {
                    cluster_size: 20_000,
                    ..Config::default()
                },
                ConfigError::BadClusterSize,
            ),
            (
                Config {
                    redundancy_k: 11, // cluster_size is 10
                    ..Config::default()
                },
                ConfigError::BadRedundancy,
            ),
        ];
        for (cfg, err) in cases {
            assert_eq!(cfg.validate(), Err(err));
        }
        let nan = Config {
            query_rate: f64::NAN,
            ..Config::default()
        };
        assert!(matches!(nan.validate(), Err(ConfigError::BadNumeric(_))));
    }

    #[test]
    fn scale_preset_is_valid_at_every_decade() {
        for peers in [4_000, 40_000, 400_000, 1_000_000] {
            let c = Config::scale_preset(peers);
            assert_eq!(c.graph_size, peers);
            assert_eq!(c.ttl, 3);
            assert_eq!(c.cluster_size, 10);
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn single_cluster_network() {
        let c = Config {
            graph_size: 100,
            cluster_size: 100,
            ..Config::default()
        };
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.mean_clients(), 99.0);
    }

    #[test]
    fn error_messages_name_fields() {
        assert!(ConfigError::BadNumeric("query_rate")
            .to_string()
            .contains("query_rate"));
    }
}
