//! End-to-end integration: the full pipeline a downstream user would
//! run — configure, analyze, design, simulate, render — across every
//! crate in the workspace.

use sp_core::experiments::{
    cluster_sweep, dynamics, epl_table, outdegree_hist, redesign, rules, Fidelity,
};
use sp_core::sim::engine::{SimOptions, Simulation};
use sp_core::{DesignConstraints, DesignGoals, Load, NetworkBuilder};

#[test]
fn builder_analyze_design_simulate_pipeline() {
    // 1. Configure and analyze.
    let builder = NetworkBuilder::new()
        .users(1000)
        .cluster_size(10)
        .avg_outdegree(3.1)
        .ttl(5);
    let analytic = builder.evaluate(2, 11);
    assert!(analytic.agg_total_bw.mean > 0.0);
    assert!(analytic.sp_total_bw.mean > analytic.client_total_bw.mean);

    // 2. Design a better topology under explicit constraints.
    let outcome = builder
        .design(
            &DesignGoals {
                num_users: 1000,
                desired_reach_peers: 300,
            },
            &DesignConstraints {
                max_sp_load: Load {
                    in_bw: 150_000.0,
                    out_bw: 150_000.0,
                    proc: 15e6,
                },
                max_connections: 100.0,
                allow_redundancy: true,
            },
        )
        .expect("feasible design");
    let designed = Load {
        in_bw: outcome.evaluation.sp_in_bw.mean,
        out_bw: outcome.evaluation.sp_out_bw.mean,
        proc: outcome.evaluation.sp_proc.mean,
    };
    assert!(designed.fits_within(&Load {
        in_bw: 150_000.0,
        out_bw: 150_000.0,
        proc: 15e6,
    }));

    // 3. Simulate the designed configuration dynamically.
    let report = NetworkBuilder::from_config(outcome.config.clone()).simulate(900.0, 3);
    assert!(report.queries > 50, "simulated {} queries", report.queries);
    assert!(report.results_per_query > 0.0);
}

#[test]
fn config_is_serializable() {
    // Configurations persist inside engine checkpoints: a snapshot
    // restores to a run that re-encodes to the same bytes, the embedded
    // configuration included.
    let cfg = NetworkBuilder::new()
        .users(1234)
        .cluster_size(7)
        .redundancy(true)
        .config();
    let copy = cfg.clone();
    assert_eq!(copy, cfg);
    assert_eq!(copy.graph_size, 1234);
    assert_eq!(copy.redundancy_k, 2);
    let opts = SimOptions {
        duration_secs: 60.0,
        seed: 3,
        ..Default::default()
    };
    let snap = Simulation::new(&cfg, opts).snapshot();
    let restored = Simulation::restore(&snap).expect("config round-trips");
    assert_eq!(restored.snapshot(), snap);
}

#[test]
fn every_experiment_runs_and_renders_at_small_scale() {
    let fid = Fidelity::quick();

    let sweep = cluster_sweep::run(
        400,
        &[5, 40],
        &cluster_sweep::paper_systems()[..2],
        None,
        &fid,
    );
    assert!(sweep.render_fig4().contains("Figure 4"));
    assert!(sweep.render_fig5().contains("Figure 5"));
    assert!(sweep.render_fig6().contains("Figure 6"));

    let hist = outdegree_hist::run(400, 20, &[3.1, 10.0], &fid);
    assert!(hist.render_fig7().contains("Figure 7"));
    assert!(hist.render_fig8().contains("Figure 8"));

    let epl = epl_table::run(&[3.1, 10.0], &[20, 50], 300, 8, 1);
    assert!(epl.render_fig9().contains("Figure 9"));
    assert!(epl.render_appendix_f().contains("Appendix F"));

    let r2 = rules::rule2(400, 20, &fid);
    assert!(r2.render().contains("Rule #2"));

    let r4 = rules::rule4(400, 10, 8.0, (3, 5), &fid);
    assert!(r4.render().contains("Rule #4"));

    let rel = dynamics::reliability_experiment(100, 10, 400.0, 900.0, 2);
    assert!(dynamics::render_reliability(&rel).contains("availability"));
}

#[test]
fn redesign_pipeline_small_scale() {
    let data = redesign::run(
        1500,
        400,
        &redesign::paper_constraints(),
        &Fidelity::quick(),
    )
    .expect("feasible");
    assert_eq!(data.topologies.len(), 3);
    assert!(data.render_fig11().contains("Today"));
    assert!(data.render_fig12().contains("Median"));
    // The designed network must beat today's aggregate bandwidth.
    assert!(
        data.topologies[1].summary.agg_total_bw.mean < data.topologies[0].summary.agg_total_bw.mean
    );
}

#[test]
fn deterministic_across_full_pipeline() {
    let run = || {
        NetworkBuilder::new()
            .users(600)
            .cluster_size(10)
            .ttl(4)
            .evaluate(2, 99)
            .agg_total_bw
            .mean
    };
    assert_eq!(run(), run());
}
