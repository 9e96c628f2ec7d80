//! `repro <name>` prints one table or figure of the paper's evaluation
//! (or one extension ablation), byte for byte the text archived as
//! `repro_out/repro_<name>.txt` at paper scale. `REPRO_QUICK=1` runs a
//! scaled-down smoke version; see the crate docs for the run mode.
//!
//! Each row of [`FIGURES`] names one reproduction, its banner and the
//! body that computes and prints it. Rows share no work, so one name
//! prints exactly one archive.

use std::io::{self, Write};
use std::process::ExitCode;

use sp_bench::Mode;
use sp_core::design::procedure::{design, EvalOptions};
use sp_core::experiments::cluster_sweep::{
    self, full_range_cluster_sizes, small_cluster_sizes, JOIN_DOMINATED_QUERY_RATE, LOW_QUERY_RATE,
};
use sp_core::experiments::{ablations, dynamics, epl_table, outdegree_hist, redesign, rules};
use sp_core::sim::scenario::routing;
use sp_core::{Config, DesignGoals, Load};

/// A reproduction's body: computes its table or figure and writes it
/// below the banner.
type Body = fn(Mode, &mut dyn Write) -> io::Result<()>;

/// One row per reproduction: the name on the command line, the
/// banner's title and claim, and the body.
type Figure = (&'static str, &'static str, &'static str, Body);

#[rustfmt::skip]
const FIGURES: [Figure; 22] = [
    ("fig04", "Figure 4", "aggregate load decreases with cluster size (knee and all)", fig04),
    ("fig05", "Figure 5",
        "individual load grows with cluster size, except the single-cluster dip", fig05),
    ("fig06", "Figure 6", "processing load is U-shaped for the strongly connected overlay", fig06),
    ("fig07", "Figure 7", "load by outdegree: sparse topologies concentrate load", fig07),
    ("fig08", "Figure 8", "low-degree super-peers in sparse overlays see fewer results", fig08),
    ("fig09", "Figure 9", "EPL falls with outdegree, rises with reach", fig09),
    ("fig10", "Figure 10", "the global design procedure", fig10),
    ("fig11", "Figure 11", "the redesign cuts every aggregate load by >=79%", fig11),
    ("fig12", "Figure 12", "the redesign lowers the whole load distribution", fig12),
    ("figa13", "Figure A-13", "join-heavy workloads flatten the cluster-size savings", figa13),
    ("figa14", "Figure A-14", "with joins dominant, the single-cluster dip disappears", figa14),
    ("figa15", "Figure A-15", "past the knee, more neighbors only add redundant copies", figa15),
    ("tabled2", "Appendix D Table 2", "denser overlays lower aggregate load", tabled2),
    ("rule2", "Rule #2", "super-peer redundancy is good", rule2),
    ("rule3", "Rule #3", "maximize outdegree (together)", rule3),
    ("rule4", "Rule #4", "minimize TTL", rule4),
    ("reliability", "Reliability", "redundancy under churn (Section 3.2)", reliability),
    ("local_rules", "Local rules", "adaptive reorganization (Section 5.3)", local_rules),
    ("routing", "Routing ablation",
        "bounded fanout vs flooding on the same super-peer overlay", routing_ablation),
    ("ablation_k", "Ablation: k-redundancy",
        "why the paper stops at k = 2 (connections grow as k·d, joins as k)", ablation_k),
    ("ablation_topology", "Ablation: overlay family",
        "degree spread, not mean degree, concentrates load", ablation_topology),
    ("ablation_tail", "Ablation: population tail",
        "rule #1 holds under log-normal and bounded-Pareto file counts", ablation_tail),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let row = match args.as_slice() {
        [name] => FIGURES.iter().find(|f| f.0 == name),
        _ => None,
    };
    let Some(&(_, title, what, body)) = row else {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        eprintln!("usage: repro <name>, one of: {}", names.join(" "));
        return ExitCode::from(2);
    };
    let mode = sp_bench::mode();
    let mut out = io::stdout().lock();
    let written = mode
        .banner(&mut out, title, what)
        .and_then(|()| body(mode, &mut out))
        .and_then(|()| out.flush());
    match written {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`repro fig07 | head -1`): not a failure.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The Section 5.1 cluster-size sweep over the four paper systems
/// (Figures 4–6, A-13 and A-14).
fn sweep(
    m: Mode,
    sizes: fn(usize) -> Vec<usize>,
    query_rate: Option<f64>,
) -> cluster_sweep::SweepData {
    let n = m.scaled(10_000);
    cluster_sweep::run(
        n,
        &sizes(n),
        &cluster_sweep::paper_systems(),
        query_rate,
        &m.fidelity(),
    )
}

/// Figure 4: aggregate bandwidth (in + out) vs cluster size, for the
/// four systems of Section 5.1.
fn fig04(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "{}",
        sweep(m, full_range_cluster_sizes, None).render_fig4()
    )?;
    writeln!(
        out,
        "Expected shape: both strong (TTL 1) and power-law (outdeg 3.1, TTL 7)\n\
         curves drop steeply, then flatten past a knee (paper: ~200 strong,\n\
         ~1000 power-law); redundancy tracks the plain curves closely."
    )
}

/// Figure 5: individual super-peer incoming bandwidth vs cluster size.
fn fig05(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "{}",
        sweep(m, full_range_cluster_sizes, None).render_fig5()
    )?;
    writeln!(
        out,
        "Expected shape: near-linear growth; a maximum around cluster = N/2\n\
         and a pronounced dip at cluster = N (the f(1-f) incoming-results\n\
         effect); redundancy roughly halves each point."
    )
}

/// Figure 6: individual super-peer processing load at small cluster
/// sizes — the connection-overhead upturn.
fn fig06(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{}", sweep(m, small_cluster_sizes, None).render_fig6())?;
    writeln!(
        out,
        "Expected shape: in the strong overlay, tiny clusters mean ~n open\n\
         connections per super-peer, so packet-multiplex overhead dominates\n\
         and load *rises* as clusters shrink below the sweet spot."
    )
}

/// The outdegree 3.1 vs 10 histograms of Figures 7 and 8.
fn outdegrees(m: Mode) -> outdegree_hist::HistogramData {
    outdegree_hist::run(
        m.scaled(10_000),
        20,
        &outdegree_hist::paper_outdegrees(),
        &m.fidelity(),
    )
}

/// Figure 7: super-peer outgoing bandwidth by number of neighbors, for
/// average outdegree 3.1 vs 10.
fn fig07(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{}", outdegrees(m).render_fig7())?;
    writeln!(
        out,
        "Expected shape: at average outdegree 3.1, load climbs steeply with\n\
         degree (hubs overloaded); at 10, every super-peer sits in one\n\
         moderate band."
    )
}

/// Figure 8: expected results per query by number of neighbors.
fn fig08(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{}", outdegrees(m).render_fig8())?;
    writeln!(
        out,
        "Expected shape: results rise with outdegree in the sparse topology\n\
         and saturate near the full-network value in the dense one."
    )
}

/// Figure 9 (and Appendix F): expected path length vs average
/// outdegree, per desired reach.
fn fig09(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    // A 2000-super-peer overlay so even the reach-1000 curve has room
    // (EPL to the r nearest nodes needs more than r nodes reachable).
    let overlay = m.scaled(20_000) / 10;
    let samples = if m.quick { 15 } else { 60 };
    let data = epl_table::run(
        &epl_table::paper_outdegrees(),
        &epl_table::paper_reaches(),
        overlay,
        samples,
        m.fidelity().seed,
    );
    writeln!(out, "{}", data.render_fig9())?;
    writeln!(out, "{}", data.render_appendix_f())?;
    writeln!(
        out,
        "Expected shape: log_d(reach) tracks (and mostly lower-bounds) the\n\
         measurement; beyond outdegree ~50 extra degree buys almost no EPL\n\
         (the Appendix E caveat)."
    )
}

/// Figure 10: the global design procedure, run end to end on the
/// paper's Section 5.2 scenario.
fn fig10(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let fid = m.fidelity();
    let users = m.scaled(20_000);
    let goals = DesignGoals {
        num_users: users,
        desired_reach_peers: (users * 3) / 20, // the paper's 3000/20000
    };
    writeln!(
        out,
        "goals: {} users, reach {} peers; constraints: 100 Kbps each way, \
         10 MHz, 100 connections, no redundancy\n",
        goals.num_users, goals.desired_reach_peers
    )?;
    match design(
        &goals,
        &redesign::paper_constraints(),
        &Config::default(),
        &EvalOptions {
            trials: fid.trials,
            max_sources: fid.max_sources.unwrap_or(300),
            seed: fid.seed,
            max_ttl: 8,
        },
    ) {
        Ok(plan) => {
            for step in &plan.steps {
                writeln!(out, "  - {}", step.description)?;
            }
            writeln!(
                out,
                "\nresult: cluster {}, outdegree {:.0}, TTL {}, k = {} \
                 (reach {:.0} peers)\n  super-peer load: in {:.3e} bps, out {:.3e} bps, \
                 proc {:.3e} Hz",
                plan.config.cluster_size,
                plan.config.avg_outdegree,
                plan.config.ttl,
                plan.config.redundancy_k,
                plan.achieved_reach_peers,
                plan.evaluation.sp_in_bw.mean,
                plan.evaluation.sp_out_bw.mean,
                plan.evaluation.sp_proc.mean,
            )?;
            writeln!(
                out,
                "\nPaper's outcome on this scenario: TTL 2, cluster size 10, \
                 ~18 neighbors — small TTL and modest clusters."
            )?;
        }
        Err(e) => writeln!(out, "procedure failed: {e}")?,
    }
    Ok(())
}

/// The Section 5.2 redesign behind Figures 11 and 12.
fn redesigned(m: Mode) -> redesign::RedesignData {
    let users = m.scaled(20_000);
    redesign::run(
        users,
        (users * 3) / 20,
        &redesign::paper_constraints(),
        &m.fidelity(),
    )
    .expect("paper scenario is feasible")
}

/// Figure 11: aggregate load of today's Gnutella vs the redesigned
/// topology (with and without redundancy).
fn fig11(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let data = redesigned(m);
    writeln!(out, "{}", data.render_design_log())?;
    writeln!(out, "{}", data.render_fig11())?;
    writeln!(
        out,
        "Expected shape: the new topology improves every load column by an\n\
         order of magnitude-ish while EPL drops to ~2; redundancy barely\n\
         moves the aggregates. (Our connected PLOD overlay reaches further\n\
         at TTL 7 than the fragmented 2001 network, so 'Today' is even\n\
         costlier here than in the paper — see EXPERIMENTS.md.)"
    )
}

/// Figure 12: per-node outgoing-bandwidth rank curves for the three
/// Figure 11 topologies.
fn fig12(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let data = redesigned(m);
    writeln!(out, "{}", data.render_fig12())?;
    // A coarse rank curve: every decile.
    writeln!(
        out,
        "rank curve (outgoing bps at each decile of nodes, heaviest first):"
    )?;
    for top in &data.topologies {
        let c = &top.rank_curve;
        let picks: Vec<String> = (0..=9)
            .map(|i| format!("{:.2e}", c[(c.len() - 1) * i / 9]))
            .collect();
        writeln!(out, "  {:<8} {}", top.label, picks.join("  "))?;
    }
    writeln!(
        out,
        "\nExpected shape: for the lowest 90% of nodes (clients in the new\n\
         design), load is 1-2 orders of magnitude below today's; the top\n\
         decile still improves, most at the very head."
    )
}

/// Figure A-13: aggregate bandwidth vs cluster size at the low query
/// rate (queries : joins ≈ 1).
fn figa13(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let data = sweep(m, full_range_cluster_sizes, Some(LOW_QUERY_RATE));
    writeln!(out, "{}", data.render_fig4())?;
    writeln!(
        out,
        "Expected shape: aggregate load still falls with cluster size, but\n\
         much less steeply than Figure 4, and redundancy now *costs*\n\
         noticeably (joins double, and they dominate)."
    )
}

/// Figure A-14: individual super-peer incoming bandwidth vs cluster
/// size when joins dominate.
fn figa14(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let data = sweep(m, full_range_cluster_sizes, Some(LOW_QUERY_RATE));
    writeln!(out, "{}", data.render_fig5())?;
    writeln!(
        out,
        "At queries:joins ≈ 1 the Figure 5 dip at cluster = N shallows from\n\
         ~10× to ~1.4×. Our per-node join rates are 1/lifespan with the\n\
         heavy-tailed session law, so short sessions push the *effective*\n\
         mean join rate up (Jensen); full inversion (the paper's 'maximum\n\
         at ClusterSize = GraphSize') appears once joins truly dominate:\n"
    )?;
    let n = m.scaled(10_000);
    let dominated = cluster_sweep::run(
        n,
        &[n / 2, n],
        &cluster_sweep::paper_systems()[..1],
        Some(JOIN_DOMINATED_QUERY_RATE),
        &m.fidelity(),
    );
    writeln!(
        out,
        "join-dominated (query rate {:.1e}): sp incoming at N/2 = {:.3e} bps, \
         at N = {:.3e} bps (maximum at N)",
        JOIN_DOMINATED_QUERY_RATE,
        dominated.cell(0, 0).summary.sp_in_bw.mean,
        dominated.cell(1, 0).summary.sp_in_bw.mean,
    )
}

/// Figure A-15: the caveat to rule #3 — outdegree 100 loses to
/// outdegree 50 once EPL stops improving.
fn figa15(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let n = m.scaled(10_000);
    let sizes: Vec<usize> = [1usize, 5, 10, 20, 40, 60, 80, 100]
        .into_iter()
        .filter(|&c| c * 10 <= n)
        .collect();
    let data = rules::fig_a15(n, &sizes, &[50.0, 100.0], &m.fidelity());
    writeln!(out, "{}", data.render())?;
    writeln!(
        out,
        "Expected shape: the outdegree-100 curve sits strictly above the\n\
         outdegree-50 curve at every cluster size — EPL is the same, the\n\
         extra edges only carry dropped duplicates."
    )
}

/// Appendix D, Table 2: aggregate load at average outdegree 3.1 vs 10
/// (cluster size 100).
fn tabled2(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let data = rules::rule3(m.scaled(10_000), 100, (3.1, 10.0), &m.fidelity());
    writeln!(out, "{}", data.render_table_d2())?;
    writeln!(
        out,
        "Expected shape: outdegree 10 beats 3.1 on both bandwidth columns\n\
         (paper: ~31% bandwidth saving) with slightly lower processing."
    )
}

/// Rule #2 numerics: redundancy's individual-vs-aggregate tradeoff at
/// the paper's anchor point (strong overlay, cluster size 100).
fn rule2(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let data = rules::rule2(m.scaled(10_000), 100, &m.fidelity());
    writeln!(out, "{}", data.render())?;
    writeln!(
        out,
        "Paper anchors: aggregate bandwidth +~2.5%, individual partner\n\
         bandwidth -~48%, aggregate processing +~17%, individual -~41%."
    )
}

/// Rule #3 numerics: raise everyone's outdegree and every super-peer
/// wins; raise only yours and you pay.
fn rule3(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let data = rules::rule3(m.scaled(10_000), 100, (3.1, 10.0), &m.fidelity());
    writeln!(out, "{}", data.render_summary())?;
    writeln!(out, "{}", data.render_unilateral())?;
    writeln!(
        out,
        "Paper anchors: aggregate bandwidth improves >31%; EPL 5.4 -> 3;\n\
         a lone super-peer raising outdegree 4 -> 9 takes +303% load."
    )
}

/// Rule #4 numerics: one wasted TTL hop at full reach costs real
/// bandwidth (paper: 19% of aggregate incoming bandwidth at
/// outdegree 20, TTL 4 vs 3).
fn rule4(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let data = rules::rule4(m.scaled(10_000), 10, 20.0, (3, 4), &m.fidelity());
    writeln!(out, "{}", data.render())
}

/// Section 3.2 reliability claim: k-redundant virtual super-peers keep
/// clients connected through churn.
fn reliability(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let c = dynamics::reliability_experiment(
        m.scaled(2_000),
        10,
        1080.0,
        m.scaled_duration(7200.0),
        m.fidelity().seed,
    );
    writeln!(out, "{}", dynamics::render_reliability(&c))?;
    writeln!(
        out,
        "Expected shape: with k = 2, cluster failures require both partners\n\
         to die within one recruit window, so availability approaches 1 and\n\
         failures drop by an order of magnitude."
    )
}

/// Section 5.3: local decisions reorganize a badly configured network.
fn local_rules(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    // Start with oversized clusters and a tight per-partner budget.
    let report = dynamics::adaptive_experiment(
        m.scaled(2_000),
        50,
        Load {
            in_bw: 1e5,
            out_bw: 1e5,
            proc: 1e7,
        },
        m.scaled_duration(7200.0),
        m.fidelity().seed,
    );
    writeln!(out, "{}", dynamics::render_adaptive(&report))?;
    writeln!(
        out,
        "Expected shape: cluster count grows (splits/promotions) until\n\
         partner load fits the limit; TTLs shrink toward the useful radius."
    )
}

/// Extension: routing protocol is orthogonal to super-peer design
/// (Section 2). Bounded-fanout forwarding vs Gnutella flooding on the
/// same super-peer network.
fn routing_ablation(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let cfg = Config {
        graph_size: m.scaled(2_000),
        cluster_size: 10,
        avg_outdegree: 8.0,
        ttl: 5,
        ..Config::default()
    };
    writeln!(out, "fanout   SP bw (bps)      results/query")?;
    for fanout in [2usize, 4, 6] {
        let c = routing(&cfg, fanout, m.scaled_duration(3600.0), m.fidelity().seed);
        writeln!(
            out,
            "{fanout:>6}   {:>12.3e}   {:>8.1}   (flood: {:.3e} bps, {:.1} results)",
            c.sp_bw_subset, c.results_subset, c.sp_bw_flood, c.results_flood
        )?;
    }
    writeln!(
        out,
        "\nExpected shape: lower fanout trades results for load along a smooth\n\
         frontier; the super-peer structure (clients shielded, partners\n\
         loaded) is unchanged — routing and super-peer design are orthogonal."
    )
}

/// Ablation (extension): redundancy factors beyond the paper's k = 2.
fn ablation_k(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let data = ablations::redundancy_k_sweep(m.scaled(10_000), 10, &[1, 2, 3, 4], &m.fidelity());
    writeln!(out, "{}", data.render())?;
    writeln!(
        out,
        "Expected shape: individual super-peer load keeps falling ~1/k, but\n\
         connections per partner and aggregate processing grow steadily —\n\
         k = 2 captures most of the benefit at a fraction of the cost."
    )
}

/// Ablation (extension): overlay family at equal mean degree.
fn ablation_topology(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let data = ablations::overlay_family_comparison(m.scaled(10_000), 10, 6.0, 5, &m.fidelity());
    writeln!(out, "{}", data.render())?;
    writeln!(
        out,
        "Expected shape: aggregate load and results are similar across\n\
         families, but the power law's load spread (max/mean by outdegree)\n\
         is far wider — the Figure 7/12 concentration is a *spread* effect."
    )
}

/// Ablation (extension): file-count tail sensitivity of rule #1.
fn ablation_tail(m: Mode, out: &mut dyn Write) -> io::Result<()> {
    let n = m.scaled(10_000);
    let sizes: Vec<usize> = [1usize, 10, 50, 200, 1000]
        .into_iter()
        .filter(|&c| c <= n)
        .collect();
    let data = ablations::population_tail_sensitivity(n, &sizes, &m.fidelity());
    writeln!(out, "{}", data.render())?;
    writeln!(
        out,
        "Expected shape: both tails show aggregate load falling and\n\
         individual super-peer load rising with cluster size — the rules of\n\
         thumb do not hinge on the synthesized tail family (DESIGN.md §4)."
    )
}

#[cfg(test)]
mod tests {
    use super::FIGURES;
    use std::collections::BTreeSet;

    /// Every row has exactly one paper-scale archive and every archive
    /// has a row, so CI's archive loop runs every figure.
    #[test]
    fn every_figure_has_exactly_one_archive() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.0).collect();
        assert_eq!(names.len(), FIGURES.len(), "two rows share a name");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../repro_out");
        let archives: BTreeSet<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|entry| {
                let file = entry.unwrap().file_name().into_string().ok()?;
                let name = file.strip_prefix("repro_")?.strip_suffix(".txt")?;
                Some(name.to_string())
            })
            .collect();
        assert_eq!(names, archives.iter().map(String::as_str).collect());
    }
}
