//! Cluster-size sweeps — Figures 4, 5, 6 (and A-13/A-14).
//!
//! The paper's central tradeoff (rule #1): sweeping cluster size for
//! four systems — strongly connected at TTL 1 (best case) and
//! power-law at average outdegree 3.1 / TTL 7 (Gnutella-like), each
//! with and without 2-redundancy — shows aggregate load falling with a
//! knee while individual super-peer load climbs, with the documented
//! exceptions (incoming-bandwidth dip at `cluster = N`, processing
//! upturn at tiny clusters from connection overhead).

use sp_model::config::{Config, GraphType};
use sp_model::trials::{run_trials, TrialOptions, TrialSummary};

use super::{run_cells, Fidelity};
use crate::report::{sci, Table};

/// One of the sweep's systems.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Display label.
    pub label: String,
    /// Overlay family.
    pub graph_type: GraphType,
    /// 2-redundancy on/off.
    pub redundancy: bool,
    /// Query TTL.
    pub ttl: u16,
    /// Average outdegree (power-law only).
    pub avg_outdegree: f64,
}

/// The four systems of Figures 4–6.
pub fn paper_systems() -> Vec<SystemSpec> {
    vec![
        SystemSpec {
            label: "Strong".into(),
            graph_type: GraphType::StronglyConnected,
            redundancy: false,
            ttl: 1,
            avg_outdegree: 3.1,
        },
        SystemSpec {
            label: "Strong+Red".into(),
            graph_type: GraphType::StronglyConnected,
            redundancy: true,
            ttl: 1,
            avg_outdegree: 3.1,
        },
        SystemSpec {
            label: "Power3.1".into(),
            graph_type: GraphType::PowerLaw,
            redundancy: false,
            ttl: 7,
            avg_outdegree: 3.1,
        },
        SystemSpec {
            label: "Power3.1+Red".into(),
            graph_type: GraphType::PowerLaw,
            redundancy: true,
            ttl: 7,
            avg_outdegree: 3.1,
        },
    ]
}

/// The cluster sizes the full-range sweep evaluates (Figures 4/5).
pub fn full_range_cluster_sizes(graph_size: usize) -> Vec<usize> {
    [
        1usize, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10_000, 20_000,
    ]
    .into_iter()
    .filter(|&c| c <= graph_size)
    .collect()
}

/// The zoomed-in sizes of Figure 6 (1–300).
pub fn small_cluster_sizes(graph_size: usize) -> Vec<usize> {
    [1usize, 2, 5, 10, 20, 50, 100, 150, 200, 300]
        .into_iter()
        .filter(|&c| c <= graph_size)
        .collect()
}

/// One (cluster size × system) evaluation.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Cluster size evaluated.
    pub cluster_size: usize,
    /// System label.
    pub system: String,
    /// Full trial summary.
    pub summary: TrialSummary,
}

/// The sweep result: cells in (cluster size, system) order.
#[derive(Debug, Clone)]
pub struct SweepData {
    /// Cluster sizes on the x axis.
    pub cluster_sizes: Vec<usize>,
    /// System labels in column order.
    pub systems: Vec<String>,
    /// Row-major cells: `cells[ci * systems + si]`.
    pub cells: Vec<SweepCell>,
}

impl SweepData {
    /// Looks up a cell.
    pub fn cell(&self, cluster_idx: usize, system_idx: usize) -> &SweepCell {
        &self.cells[cluster_idx * self.systems.len() + system_idx]
    }

    /// Generic renderer over a metric extractor.
    pub fn render_metric<F: Fn(&TrialSummary) -> f64>(&self, title: &str, f: F) -> String {
        let mut headers = vec!["ClusterSize".to_string()];
        headers.extend(self.systems.iter().cloned());
        let mut t = Table::new(headers);
        for (ci, &cs) in self.cluster_sizes.iter().enumerate() {
            let mut row = vec![cs.to_string()];
            for si in 0..self.systems.len() {
                row.push(sci(f(&self.cell(ci, si).summary)));
            }
            t.row(row);
        }
        format!("{title}\n{}", t.render())
    }

    /// Figure 4: aggregate (in + out) bandwidth.
    pub fn render_fig4(&self) -> String {
        self.render_metric(
            "Figure 4 — aggregate bandwidth (in+out, bps) vs cluster size",
            |s| s.agg_total_bw.mean,
        )
    }

    /// Figure 5: individual super-peer incoming bandwidth.
    pub fn render_fig5(&self) -> String {
        self.render_metric(
            "Figure 5 — individual super-peer incoming bandwidth (bps) vs cluster size",
            |s| s.sp_in_bw.mean,
        )
    }

    /// Figure 6: individual super-peer processing load.
    pub fn render_fig6(&self) -> String {
        self.render_metric(
            "Figure 6 — individual super-peer processing load (Hz) vs cluster size",
            |s| s.sp_proc.mean,
        )
    }
}

/// Runs the sweep. `query_rate` overrides Table 1's rate (Appendix C
/// uses 9.26 × 10⁻⁴ so queries:joins ≈ 1).
///
/// The (cluster size × system) cells are independent, so they are
/// fanned over a bounded worker pool ([`run_cells`]) within
/// `fid.threads`; whatever budget multiple is left over parallelizes
/// each cell's trials and source loops. Cell order — and every
/// reported number — is independent of the thread count.
pub fn run(
    graph_size: usize,
    cluster_sizes: &[usize],
    systems: &[SystemSpec],
    query_rate: Option<f64>,
    fid: &Fidelity,
) -> SweepData {
    // Row-major (cluster size, system) grid, evaluated as independent
    // cells.
    let specs: Vec<(usize, &SystemSpec)> = cluster_sizes
        .iter()
        .flat_map(|&cs| systems.iter().map(move |spec| (cs, spec)))
        .collect();
    let cells = run_cells(specs.len(), fid.threads, |idx, inner| {
        let (cs, spec) = specs[idx];
        let mut cfg = Config {
            graph_type: spec.graph_type,
            graph_size,
            cluster_size: cs,
            avg_outdegree: spec.avg_outdegree,
            ttl: spec.ttl,
            ..Config::default()
        };
        if let Some(qr) = query_rate {
            cfg.query_rate = qr;
        }
        // Redundancy requires room for two partners.
        if spec.redundancy && cs >= 2 {
            cfg.redundancy_k = 2;
        }
        // Large clusters mean few clusters, so one N(c, 0.2c) draw
        // swings the whole population by ±20% — and those instances
        // are by far the cheapest to analyze. Buy the variance back
        // with more trials.
        let n_clusters = (graph_size / cs).max(1);
        let trial_boost = if n_clusters < 20 {
            6
        } else if n_clusters < 100 {
            3
        } else {
            1
        };
        let summary = run_trials(
            &cfg,
            &TrialOptions {
                trials: fid.trials * trial_boost,
                seed: fid.seed,
                max_sources: fid.max_sources,
                threads: inner,
            },
        );
        SweepCell {
            cluster_size: cs,
            system: spec.label.clone(),
            summary,
        }
    });
    SweepData {
        cluster_sizes: cluster_sizes.to_vec(),
        systems: systems.iter().map(|s| s.label.clone()).collect(),
        cells,
    }
}

/// The Appendix C query rate (queries:joins ≈ 1 by the paper's
/// mean-lifespan accounting).
pub const LOW_QUERY_RATE: f64 = 9.26e-4;

/// A query rate low enough that join traffic dominates outright
/// (queries:joins ≈ 0.1 against the *effective* per-node join rate
/// `E[1/lifespan]`, which the heavy-tailed session law inflates).
pub const JOIN_DOMINATED_QUERY_RATE: f64 = 2.0e-4;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> SweepData {
        run(
            600,
            &[5, 30, 100],
            &paper_systems(),
            None,
            &Fidelity::quick(),
        )
    }

    #[test]
    fn sweep_is_bitwise_identical_at_any_thread_count() {
        // One cell, so the whole budget reaches its nine trials. Debug
        // prints every f64 in its shortest round-trip form, so equal
        // text means equal bits.
        let sweep = |threads| {
            run(
                600,
                &[30],
                &paper_systems()[2..3],
                None,
                &Fidelity {
                    trials: 3,
                    threads,
                    ..Fidelity::quick()
                },
            )
        };
        let (one, two) = (sweep(1), sweep(2));
        assert_eq!(one.cells.len(), two.cells.len());
        for (a, b) in one.cells.iter().zip(&two.cells) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn rule_1_shapes_hold_at_small_scale() {
        let data = tiny_sweep();
        // Strong system: aggregate falls, individual incoming rises
        // from cluster 5 to cluster 100.
        let strong_small = &data.cell(0, 0).summary;
        let strong_large = &data.cell(2, 0).summary;
        assert!(strong_large.agg_total_bw.mean < strong_small.agg_total_bw.mean);
        assert!(strong_large.sp_in_bw.mean > strong_small.sp_in_bw.mean);
    }

    #[test]
    fn redundancy_lowers_individual_load_in_sweep() {
        let data = tiny_sweep();
        // At cluster 100: Strong vs Strong+Red.
        let plain = &data.cell(2, 0).summary;
        let red = &data.cell(2, 1).summary;
        assert!(red.sp_total_bw.mean < plain.sp_total_bw.mean);
    }

    #[test]
    fn renderers_emit_all_rows() {
        let data = tiny_sweep();
        for rendered in [data.render_fig4(), data.render_fig5(), data.render_fig6()] {
            assert!(rendered.contains("ClusterSize"));
            assert!(rendered.contains("Power3.1+Red"));
            assert_eq!(rendered.lines().count(), 2 + 1 + 3); // title + header + sep + rows
        }
    }

    #[test]
    fn low_query_rate_flattens_aggregate_curve() {
        // Appendix C: with queries:joins ≈ 1, the aggregate savings of
        // large clusters shrink.
        let systems = vec![paper_systems().remove(0)];
        let normal = run(600, &[5, 100], &systems, None, &Fidelity::quick());
        let low = run(
            600,
            &[5, 100],
            &systems,
            Some(LOW_QUERY_RATE),
            &Fidelity::quick(),
        );
        let drop = |d: &SweepData| {
            d.cell(0, 0).summary.agg_total_bw.mean / d.cell(1, 0).summary.agg_total_bw.mean
        };
        assert!(
            drop(&normal) > drop(&low),
            "normal ratio {} vs low ratio {}",
            drop(&normal),
            drop(&low)
        );
    }

    #[test]
    fn cluster_size_lists_respect_graph_size() {
        assert!(full_range_cluster_sizes(100).iter().all(|&c| c <= 100));
        assert!(small_cluster_sizes(50).iter().all(|&c| c <= 50));
    }
}
