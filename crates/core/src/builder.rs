//! Ergonomic entry point for configuring and evaluating super-peer
//! networks.

use sp_design::procedure::{design, DesignConstraints, DesignGoals, DesignOutcome, EvalOptions};
use sp_model::config::{Config, GraphType};
use sp_model::trials::{run_trials, TrialOptions, TrialSummary};
use sp_sim::scenario::{steady_state, SimReport};

/// Fluent builder over [`Config`].
///
/// Every method is optional; defaults are the paper's Table 1 values
/// (10 000 users, cluster size 10, power-law overlay at average
/// outdegree 3.1, TTL 7).
///
/// # Examples
///
/// ```
/// use sp_core::NetworkBuilder;
///
/// let cfg = NetworkBuilder::new()
///     .users(500)
///     .cluster_size(5)
///     .redundancy(true)
///     .config();
/// assert_eq!(cfg.num_clusters(), 100);
/// assert_eq!(cfg.redundancy_k, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetworkBuilder {
    config: Config,
}

impl NetworkBuilder {
    /// Starts from the paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an explicit configuration.
    pub fn from_config(config: Config) -> Self {
        NetworkBuilder { config }
    }

    /// Sets the number of users (total peers).
    pub fn users(mut self, n: usize) -> Self {
        self.config.graph_size = n;
        self
    }

    /// Sets the cluster size (peers per cluster, super-peers included).
    pub fn cluster_size(mut self, c: usize) -> Self {
        self.config.cluster_size = c;
        self
    }

    /// Turns 2-redundancy on or off.
    pub fn redundancy(mut self, on: bool) -> Self {
        self.config = self.config.with_redundancy(on);
        self
    }

    /// Sets the redundancy factor `k` directly (extension beyond the
    /// paper's k = 2).
    pub fn redundancy_k(mut self, k: usize) -> Self {
        self.config.redundancy_k = k;
        self
    }

    /// Sets the average super-peer outdegree (power-law overlays).
    pub fn avg_outdegree(mut self, d: f64) -> Self {
        self.config.avg_outdegree = d;
        self
    }

    /// Uses the strongly connected (complete) overlay.
    pub fn strongly_connected(mut self) -> Self {
        self.config.graph_type = GraphType::StronglyConnected;
        self
    }

    /// Sets the query TTL.
    pub fn ttl(mut self, ttl: u16) -> Self {
        self.config.ttl = ttl;
        self
    }

    /// Sets the per-user query rate (queries per second).
    pub fn query_rate(mut self, rate: f64) -> Self {
        self.config.query_rate = rate;
        self
    }

    /// Returns the underlying configuration.
    pub fn config(&self) -> Config {
        self.config.clone()
    }

    /// Runs the mean-value analysis with full [`TrialOptions`] control
    /// (source sampling, worker-thread budget).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn evaluate_with(&self, opts: &TrialOptions) -> TrialSummary {
        run_trials(&self.config, opts)
    }

    /// Runs the mean-value analysis over `trials` instances.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn evaluate(&self, trials: usize, seed: u64) -> TrialSummary {
        run_trials(
            &self.config,
            &TrialOptions {
                trials,
                seed,
                ..Default::default()
            },
        )
    }

    /// Runs the discrete-event simulator for `duration_secs` of
    /// simulated time.
    pub fn simulate(&self, duration_secs: f64, seed: u64) -> SimReport {
        steady_state(&self.config, duration_secs, seed)
    }

    /// Runs the Figure 10 global design procedure with this builder's
    /// configuration as the rate/cost/population template.
    ///
    /// # Errors
    ///
    /// Propagates [`sp_design::procedure::DesignError`].
    pub fn design(
        &self,
        goals: &DesignGoals,
        constraints: &DesignConstraints,
    ) -> Result<DesignOutcome, sp_design::procedure::DesignError> {
        design(goals, constraints, &self.config, &EvalOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let cfg = NetworkBuilder::new()
            .users(2000)
            .cluster_size(20)
            .redundancy(true)
            .avg_outdegree(10.0)
            .ttl(3)
            .query_rate(0.01)
            .config();
        assert_eq!(cfg.graph_size, 2000);
        assert_eq!(cfg.cluster_size, 20);
        assert_eq!(cfg.redundancy_k, 2);
        assert_eq!(cfg.avg_outdegree, 10.0);
        assert_eq!(cfg.ttl, 3);
        assert_eq!(cfg.query_rate, 0.01);
    }

    #[test]
    fn strongly_connected_flag() {
        let cfg = NetworkBuilder::new().strongly_connected().config();
        assert_eq!(cfg.graph_type, GraphType::StronglyConnected);
    }

    #[test]
    fn evaluate_produces_summary() {
        let s = NetworkBuilder::new()
            .users(200)
            .cluster_size(10)
            .ttl(3)
            .evaluate(2, 1);
        assert!(s.agg_total_bw.mean > 0.0);
        assert_eq!(s.agg_total_bw.count, 2);
    }

    #[test]
    fn simulate_runs() {
        let r = NetworkBuilder::new()
            .users(100)
            .cluster_size(10)
            .simulate(300.0, 2);
        assert!(r.queries > 0);
    }
}
