//! The Gnutella redesign walk-through — Figures 11 and 12
//! (Section 5.2).
//!
//! "Today's" system is the measured 2001-era Gnutella: ~20 000 peers,
//! every peer a super-peer (cluster size 1), power-law overlay at
//! average outdegree 3.1, TTL 7. The global design procedure is then
//! run with the paper's constraints (100 Kbps each way, 10 MHz, 100
//! open connections, reach 3000 peers) and the resulting topology is
//! compared on aggregate load (Figure 11) and the full per-node load
//! rank curve (Figure 12), with and without 2-redundancy.

use sp_design::procedure::{
    design, DesignConstraints, DesignError, DesignGoals, DesignStep, EvalOptions,
};
use sp_model::analysis::{analyze, AnalysisOptions};
use sp_model::config::Config;
use sp_model::instance::NetworkInstance;
use sp_model::load::Load;
use sp_model::query_model::QueryModel;
use sp_model::trials::{run_trials, TrialOptions, TrialSummary};
use sp_stats::percentile::RankSummary;
use sp_stats::SpRng;

use super::Fidelity;
use crate::report::{pct_change, sci, Table};

/// One compared topology.
#[derive(Debug, Clone)]
pub struct TopologyReport {
    /// Display label.
    pub label: String,
    /// The configuration.
    pub config: Config,
    /// Trial-averaged evaluation.
    pub summary: TrialSummary,
    /// Per-node outgoing-bandwidth rank curve from one representative
    /// instance (Figure 12), decreasing.
    pub rank_curve: Vec<f64>,
    /// Landmark percentiles of the rank curve.
    pub rank_summary: Option<RankSummary>,
}

/// The full comparison.
#[derive(Debug, Clone)]
pub struct RedesignData {
    /// Today's Gnutella, the procedure's output, and the output with
    /// redundancy.
    pub topologies: Vec<TopologyReport>,
    /// The design procedure's decision log.
    pub design_steps: Vec<DesignStep>,
}

impl RedesignData {
    /// Figure 11: the aggregate-load table.
    pub fn render_fig11(&self) -> String {
        let mut t = Table::new(vec![
            "Topology",
            "In bw (bps)",
            "Out bw (bps)",
            "Proc (Hz)",
            "Results",
            "EPL",
            "vs today (bw)",
        ]);
        let today_bw = self.topologies[0].summary.agg_total_bw.mean;
        for top in &self.topologies {
            t.row(vec![
                top.label.clone(),
                sci(top.summary.agg_in_bw.mean),
                sci(top.summary.agg_out_bw.mean),
                sci(top.summary.agg_proc.mean),
                format!("{:.0}", top.summary.results.mean),
                format!("{:.1}", top.summary.epl.mean),
                pct_change(top.summary.agg_total_bw.mean, today_bw),
            ]);
        }
        format!(
            "Figure 11 — aggregate load: today's Gnutella vs the redesigned topology\n{}",
            t.render()
        )
    }

    /// Figure 12: landmark points of the per-node outgoing-bandwidth
    /// rank curves.
    pub fn render_fig12(&self) -> String {
        let mut t = Table::new(vec![
            "Topology",
            "Max (bps)",
            "Top 0.1%",
            "Top 10% (neck)",
            "Median",
            "Min",
        ]);
        for top in &self.topologies {
            match &top.rank_summary {
                Some(r) => t.row(vec![
                    top.label.clone(),
                    sci(r.max),
                    sci(r.top_0_1_pct),
                    sci(r.top_10_pct),
                    sci(r.median),
                    sci(r.min),
                ]),
                None => t.row(vec![top.label.clone(), "—".into()]),
            }
        }
        format!(
            "Figure 12 — per-node outgoing bandwidth rank-curve landmarks\n{}",
            t.render()
        )
    }

    /// The procedure's decision log.
    pub fn render_design_log(&self) -> String {
        let mut out = String::from("Design-procedure log (Figure 10):\n");
        for s in &self.design_steps {
            out.push_str("  - ");
            out.push_str(&s.description);
            out.push('\n');
        }
        out
    }
}

/// The paper's Section 5.2 constraints.
pub fn paper_constraints() -> DesignConstraints {
    DesignConstraints {
        max_sp_load: Load {
            in_bw: 100_000.0,
            out_bw: 100_000.0,
            proc: 10e6,
        },
        max_connections: 100.0,
        allow_redundancy: false,
    }
}

/// Runs the comparison.
///
/// # Errors
///
/// Propagates design-procedure failure.
pub fn run(
    graph_size: usize,
    reach_peers: usize,
    constraints: &DesignConstraints,
    fid: &Fidelity,
) -> Result<RedesignData, DesignError> {
    let today_cfg = Config {
        graph_size,
        cluster_size: 1,
        avg_outdegree: 3.1,
        ttl: 7,
        ..Config::default()
    };

    let goals = DesignGoals {
        num_users: graph_size,
        desired_reach_peers: reach_peers,
    };
    let outcome = design(
        &goals,
        constraints,
        &Config::default(),
        &EvalOptions {
            trials: fid.trials.max(1),
            max_sources: fid.max_sources.unwrap_or(300).min(400),
            seed: fid.seed,
            max_ttl: 8,
        },
    )?;
    let new_cfg = outcome.config.clone();
    let mut red_cfg = new_cfg.clone().with_redundancy(true);
    if red_cfg.cluster_size < 2 {
        red_cfg.cluster_size = 2;
    }

    let evaluate = |cfg: &Config| {
        run_trials(
            cfg,
            &TrialOptions {
                trials: fid.trials,
                seed: fid.seed,
                max_sources: fid.max_sources,
                threads: fid.threads,
            },
        )
    };

    let rank = |cfg: &Config| -> (Vec<f64>, Option<RankSummary>) {
        // One representative instance, exact (all sources) so every
        // node's load is fully accounted.
        #[allow(
            clippy::disallowed_methods,
            reason = "R1b seed root: the redesign ranking's representative instance"
        )]
        let mut rng = SpRng::seed_from_u64(fid.seed ^ 0x000F_1612);
        let inst = NetworkInstance::generate(cfg, &mut rng).expect("valid config");
        let model = QueryModel::from_config(&cfg.query_model);
        let result = analyze(&inst, &model, &AnalysisOptions::default(), &mut rng);
        let loads = result.out_bw_loads();
        let summary = RankSummary::from_loads(&loads);
        (sp_stats::rank_curve(&loads), summary)
    };

    let mut topologies = Vec::new();
    for (label, cfg) in [
        ("Today".to_string(), today_cfg),
        ("New".to_string(), new_cfg),
        ("New+Red".to_string(), red_cfg),
    ] {
        let summary = evaluate(&cfg);
        let (rank_curve, rank_summary) = rank(&cfg);
        topologies.push(TopologyReport {
            label,
            config: cfg,
            summary,
            rank_curve,
            rank_summary,
        });
    }

    Ok(RedesignData {
        topologies,
        design_steps: outcome.steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RedesignData {
        // Scaled-down walk-through: 2000 users, reach 600.
        run(2000, 600, &paper_constraints(), &Fidelity::quick()).expect("feasible")
    }

    #[test]
    fn redesign_beats_today_on_aggregate_load() {
        let d = small();
        let today = &d.topologies[0].summary;
        let new = &d.topologies[1].summary;
        assert!(
            new.agg_total_bw.mean < 0.6 * today.agg_total_bw.mean,
            "new {} vs today {}",
            new.agg_total_bw.mean,
            today.agg_total_bw.mean
        );
        assert!(new.epl.mean < today.epl.mean);
    }

    #[test]
    fn redundancy_barely_moves_aggregate() {
        let d = small();
        let new = d.topologies[1].summary.agg_total_bw.mean;
        let red = d.topologies[2].summary.agg_total_bw.mean;
        assert!(((red - new) / new).abs() < 0.25, "new {new} vs red {red}");
    }

    #[test]
    fn rank_curves_cover_every_node() {
        let d = small();
        let today = &d.topologies[0];
        assert_eq!(today.rank_curve.len(), 2000);
        assert!(today.rank_curve.windows(2).all(|w| w[0] >= w[1]));
        assert!(today.rank_summary.is_some());
    }

    #[test]
    fn renderers_compare_topologies() {
        let d = small();
        let f11 = d.render_fig11();
        assert!(f11.contains("Today") && f11.contains("New+Red"));
        assert!(f11.contains('%'));
        let f12 = d.render_fig12();
        assert!(f12.contains("neck"));
        assert!(!d.render_design_log().is_empty());
    }
}
