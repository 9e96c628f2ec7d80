//! The global design procedure (Figure 10).
//!
//! Given the properties of the system (number of users, desired reach —
//! chosen from the desired number of results, to which it is
//! proportional) and the designer's constraints (maximum individual
//! super-peer load and open connections), the procedure searches for an
//! efficient configuration:
//!
//! 1. Select the desired reach `r`. Set TTL = 1.
//! 2. Decrease cluster size until the desired individual load is
//!    attained — if bandwidth cannot be attained even at TTL = 1,
//!    decrease `r` (no configuration is more bandwidth-efficient than
//!    TTL = 1); if individual load is too high, apply super-peer
//!    redundancy and/or decrease `r`.
//! 3. If the average outdegree required for the reach exceeds the
//!    connection limit, increment the TTL and retry.
//! 4. Decrease the average outdegree if doing so does not affect the
//!    EPL and the reach can still be attained.
//!
//! Every candidate is validated with the `sp-model` mean-value
//! analysis, exactly as the paper validates its Figure 11/12 redesign
//! of the 20 000-peer Gnutella network.

use sp_model::config::{Config, GraphType};
use sp_model::load::Load;
use sp_model::trials::{run_trials, TrialOptions, TrialSummary};

/// System properties the designer specifies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignGoals {
    /// Number of users (peers) in the network.
    pub num_users: usize,
    /// Desired reach, in peers (proportional to the desired number of
    /// results per query).
    pub desired_reach_peers: usize,
}

/// Designer constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignConstraints {
    /// Maximum expected load per super-peer partner. The paper advises
    /// limits far below actual capability (bursts, downloads, and the
    /// user's own work share the box).
    pub max_sp_load: Load,
    /// Maximum open connections per super-peer.
    pub max_connections: f64,
    /// Whether the procedure may apply 2-redundancy when individual
    /// load is the binding constraint.
    pub allow_redundancy: bool,
}

/// One logged decision of the procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignStep {
    /// Human-readable description of what was tried / decided.
    pub description: String,
}

/// The procedure's output.
#[derive(Debug, Clone)]
pub struct DesignOutcome {
    /// The recommended configuration.
    pub config: Config,
    /// Evaluated summary of the recommended configuration.
    pub evaluation: TrialSummary,
    /// Reach actually achieved, in peers.
    pub achieved_reach_peers: f64,
    /// Decision log.
    pub steps: Vec<DesignStep>,
}

/// Why the procedure failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// No configuration fit the constraints even after shrinking the
    /// reach to the minimum the procedure is willing to consider.
    Infeasible,
    /// The goals were malformed (zero users or reach).
    BadGoals,
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::Infeasible => {
                write!(
                    f,
                    "no configuration satisfies the constraints at any considered reach"
                )
            }
            DesignError::BadGoals => write!(f, "goals must have positive users and reach"),
        }
    }
}

impl std::error::Error for DesignError {}

/// Evaluation fidelity knobs (trials per candidate, source sampling).
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Trials per candidate evaluation.
    pub trials: usize,
    /// Source-sampling cap per analysis.
    pub max_sources: usize,
    /// RNG seed.
    pub seed: u64,
    /// Largest TTL the search will consider.
    pub max_ttl: u16,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            trials: 2,
            max_sources: 300,
            seed: 0x00DE_516E,
            max_ttl: 8,
        }
    }
}

/// Minimal average outdegree whose tree bound `d + d² + … + d^ttl`
/// covers `clusters` overlay nodes, with a safety margin for cycle
/// overlap. Returns `None` if no degree up to `max_d` suffices.
fn outdegree_for_reach(clusters: f64, ttl: u16, max_d: f64, margin: f64) -> Option<f64> {
    let target = clusters * margin;
    let covers = |d: f64| -> bool {
        let mut covered = 0.0;
        let mut level = 1.0;
        for _ in 0..ttl {
            level *= d;
            covered += level;
            if covered >= target {
                return true;
            }
        }
        false
    };
    if !covers(max_d) {
        return None;
    }
    // Bisect for the minimal covering degree.
    let (mut lo, mut hi) = (1.0f64, max_d);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if covers(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi.max(2.0))
}

/// Cluster-size ladder, descending (step 3 walks from large clusters —
/// minimal aggregate load — down until the individual limit fits).
fn cluster_ladder(num_users: usize) -> Vec<usize> {
    [500usize, 200, 100, 50, 20, 10, 5, 2, 1]
        .into_iter()
        .filter(|&c| c <= num_users)
        .collect()
}

/// Runs the Figure 10 procedure.
///
/// `base` supplies everything not searched over (rates, cost model,
/// population, query model); its topology fields are overwritten.
///
/// # Errors
///
/// [`DesignError::BadGoals`] for empty goals, [`DesignError::Infeasible`]
/// if nothing fits even after reach reductions.
pub fn design(
    goals: &DesignGoals,
    constraints: &DesignConstraints,
    base: &Config,
    eval: &EvalOptions,
) -> Result<DesignOutcome, DesignError> {
    if goals.num_users == 0 || goals.desired_reach_peers == 0 {
        return Err(DesignError::BadGoals);
    }
    let mut steps = Vec::new();
    let mut reach = goals.desired_reach_peers.min(goals.num_users);

    // Step 1: reach selected; allow a few reach reductions before
    // giving up (the procedure's "decrease r" escape).
    for reduction in 0..4 {
        if reduction > 0 {
            reach = (reach * 3 / 4).max(1);
            steps.push(DesignStep {
                description: format!(
                    "individual load unattainable; decreasing reach to {reach} peers"
                ),
            });
        }
        for redundancy in [false, true] {
            if redundancy && !constraints.allow_redundancy {
                continue;
            }
            let k = if redundancy { 2 } else { 1 };
            // Step 2: TTL starts at 1 (most bandwidth-efficient).
            for ttl in 1..=eval.max_ttl {
                if let Some(outcome) =
                    try_ttl(goals, constraints, base, eval, reach, ttl, k, &mut steps)
                {
                    return Ok(outcome);
                }
            }
            if !redundancy && constraints.allow_redundancy {
                steps.push(DesignStep {
                    description: "no TTL fit without redundancy; applying 2-redundancy".into(),
                });
            }
        }
    }
    Err(DesignError::Infeasible)
}

/// Tries every cluster size at one TTL; returns the first (largest
/// cluster) candidate that fits load and connection limits, after the
/// step-5 outdegree refinement.
#[allow(
    clippy::too_many_arguments,
    reason = "the procedure's per-TTL state, passed flat to keep the step-5 loop readable"
)]
fn try_ttl(
    goals: &DesignGoals,
    constraints: &DesignConstraints,
    base: &Config,
    eval: &EvalOptions,
    reach_peers: usize,
    ttl: u16,
    k: usize,
    steps: &mut Vec<DesignStep>,
) -> Option<DesignOutcome> {
    for cs in cluster_ladder(goals.num_users) {
        if cs < k {
            continue;
        }
        let n = (goals.num_users / cs).max(1);
        let clusters_needed = (reach_peers as f64 / cs as f64).ceil().min(n as f64);
        if clusters_needed <= 1.0 && n > 1 {
            // A reach this small needs no overlay search at all; let a
            // smaller cluster size handle it.
            continue;
        }
        let max_d = (n.saturating_sub(1)) as f64;
        let Some(d) = outdegree_for_reach(clusters_needed - 1.0, ttl, max_d, 1.1) else {
            continue;
        };
        // Step 4 check: connections per partner = clients + k per
        // neighboring virtual super-peer + co-partners.
        let conn = (cs - k) as f64 + (k as f64) * d + (k as f64 - 1.0);
        if conn > constraints.max_connections {
            steps.push(DesignStep {
                description: format!(
                    "ttl {ttl}, cluster {cs}: outdegree {d:.0} needs {conn:.0} connections \
                     (> {:.0}); will increase TTL",
                    constraints.max_connections
                ),
            });
            continue;
        }
        let mut cfg = base.clone();
        cfg.graph_type = if d >= max_d && n > 1 {
            GraphType::StronglyConnected
        } else {
            GraphType::PowerLaw
        };
        cfg.graph_size = goals.num_users;
        cfg.cluster_size = cs;
        cfg.redundancy_k = k;
        cfg.avg_outdegree = d;
        cfg.ttl = ttl;
        let summary = evaluate(&cfg, eval);
        let sp_load = Load {
            in_bw: summary.sp_in_bw.mean,
            out_bw: summary.sp_out_bw.mean,
            proc: summary.sp_proc.mean,
        };
        if !sp_load.fits_within(&constraints.max_sp_load) {
            steps.push(DesignStep {
                description: format!(
                    "ttl {ttl}, cluster {cs}, outdegree {d:.0}: super-peer load {sp_load} \
                     exceeds limit; decreasing cluster size"
                ),
            });
            continue;
        }
        let achieved = summary.reach_clusters.mean * cs as f64;
        if achieved < 0.7 * reach_peers as f64 {
            steps.push(DesignStep {
                description: format!(
                    "ttl {ttl}, cluster {cs}, outdegree {d:.0}: measured reach {achieved:.0} \
                     peers falls short of {reach_peers}; trying next option"
                ),
            });
            continue;
        }
        steps.push(DesignStep {
            description: format!(
                "accepted: ttl {ttl}, cluster {cs}, outdegree {d:.0}, redundancy k={k} \
                 (reach {achieved:.0} peers, sp load {sp_load})"
            ),
        });
        // Step 5: shrink the outdegree while reach (and hence EPL)
        // holds.
        let (cfg, summary, achieved) = refine_outdegree(
            cfg,
            summary,
            achieved,
            reach_peers,
            constraints,
            eval,
            steps,
        );
        return Some(DesignOutcome {
            achieved_reach_peers: achieved,
            config: cfg,
            evaluation: summary,
            steps: std::mem::take(steps),
        });
    }
    None
}

/// Step 5: repeatedly try 15%-smaller outdegrees, keeping the smallest
/// that still attains the reach and the load limit.
fn refine_outdegree(
    mut cfg: Config,
    mut summary: TrialSummary,
    mut achieved: f64,
    reach_peers: usize,
    constraints: &DesignConstraints,
    eval: &EvalOptions,
    steps: &mut Vec<DesignStep>,
) -> (Config, TrialSummary, f64) {
    loop {
        let smaller = (cfg.avg_outdegree * 0.85).floor();
        if smaller < 2.0 || smaller >= cfg.avg_outdegree {
            return (cfg, summary, achieved);
        }
        let mut candidate = cfg.clone();
        candidate.avg_outdegree = smaller;
        candidate.graph_type = GraphType::PowerLaw;
        let s = evaluate(&candidate, eval);
        let reach = s.reach_clusters.mean * candidate.cluster_size as f64;
        let load = Load {
            in_bw: s.sp_in_bw.mean,
            out_bw: s.sp_out_bw.mean,
            proc: s.sp_proc.mean,
        };
        if reach >= 0.95 * reach_peers as f64 && load.fits_within(&constraints.max_sp_load) {
            steps.push(DesignStep {
                description: format!(
                    "step 5: outdegree {:.0} → {smaller:.0} keeps reach {reach:.0}",
                    cfg.avg_outdegree
                ),
            });
            cfg = candidate;
            summary = s;
            achieved = reach;
        } else {
            return (cfg, summary, achieved);
        }
    }
}

fn evaluate(cfg: &Config, eval: &EvalOptions) -> TrialSummary {
    run_trials(
        cfg,
        &TrialOptions {
            trials: eval.trials,
            seed: eval.seed,
            max_sources: Some(eval.max_sources),
            threads: 1,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_constraints() -> DesignConstraints {
        // Section 5.2: 100 Kbps each way, 10 MHz, 100 connections.
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

    fn quick_eval() -> EvalOptions {
        EvalOptions {
            trials: 1,
            max_sources: 120,
            seed: 3,
            max_ttl: 8,
        }
    }

    #[test]
    fn outdegree_solver_matches_paper_walkthrough() {
        // TTL 1, 150 clusters to cover → outdegree ≈ 150 (the paper's
        // "average outdegree must be 150" at cluster size 20).
        let d = outdegree_for_reach(150.0, 1, 1000.0, 1.0).unwrap();
        assert!((d - 150.0).abs() < 1.0, "d = {d}");
        // TTL 2, ~300 clusters: d + d² ≥ 300 → d ≈ 17 ("each super-peer
        // must have about 18 neighbors").
        let d = outdegree_for_reach(300.0, 2, 1000.0, 1.0).unwrap();
        assert!((15.0..22.0).contains(&d), "d = {d}");
        // Impossible: degree capped below requirement.
        assert!(outdegree_for_reach(1000.0, 1, 50.0, 1.0).is_none());
    }

    #[test]
    fn paper_redesign_scenario_produces_small_ttl() {
        // The Section 5.2 walk-through: 20 000 users, reach 3000 peers,
        // 100 Kbps / 10 MHz / 100-connection limits, no redundancy.
        // We run it at reduced scale fidelity (1 trial, sampled
        // sources) — the shape assertions are what the paper derives:
        // a small TTL (2–3, not Gnutella's 7), a modest cluster, and
        // constraint satisfaction.
        let goals = DesignGoals {
            num_users: 20_000,
            desired_reach_peers: 3000,
        };
        let out = design(
            &goals,
            &paper_constraints(),
            &Config::default(),
            &quick_eval(),
        )
        .expect("feasible");
        assert!(
            (2..=4).contains(&out.config.ttl),
            "ttl {} not small",
            out.config.ttl
        );
        assert!(
            out.config.cluster_size >= 2,
            "clusters collapsed to pure network"
        );
        let load = Load {
            in_bw: out.evaluation.sp_in_bw.mean,
            out_bw: out.evaluation.sp_out_bw.mean,
            proc: out.evaluation.sp_proc.mean,
        };
        assert!(
            load.fits_within(&paper_constraints().max_sp_load),
            "load {load}"
        );
        assert!(
            out.achieved_reach_peers >= 2000.0,
            "reach {}",
            out.achieved_reach_peers
        );
        assert!(!out.steps.is_empty());
    }

    #[test]
    fn tight_individual_limit_triggers_redundancy() {
        let goals = DesignGoals {
            num_users: 2000,
            desired_reach_peers: 800,
        };
        let tight = DesignConstraints {
            max_sp_load: Load {
                in_bw: 40_000.0,
                out_bw: 40_000.0,
                proc: 4e6,
            },
            max_connections: 60.0,
            allow_redundancy: true,
        };
        match design(&goals, &tight, &Config::default(), &quick_eval()) {
            Ok(out) => {
                let load = Load {
                    in_bw: out.evaluation.sp_in_bw.mean,
                    out_bw: out.evaluation.sp_out_bw.mean,
                    proc: out.evaluation.sp_proc.mean,
                };
                assert!(load.fits_within(&tight.max_sp_load));
            }
            Err(e) => panic!("expected feasible design, got {e}"),
        }
    }

    #[test]
    fn impossible_constraints_are_reported() {
        let goals = DesignGoals {
            num_users: 5000,
            desired_reach_peers: 5000,
        };
        let impossible = DesignConstraints {
            max_sp_load: Load {
                in_bw: 1.0,
                out_bw: 1.0,
                proc: 1.0,
            },
            max_connections: 3.0,
            allow_redundancy: true,
        };
        assert_eq!(
            design(&goals, &impossible, &Config::default(), &quick_eval()).unwrap_err(),
            DesignError::Infeasible
        );
    }

    #[test]
    fn bad_goals_rejected() {
        let c = paper_constraints();
        assert_eq!(
            design(
                &DesignGoals {
                    num_users: 0,
                    desired_reach_peers: 10
                },
                &c,
                &Config::default(),
                &quick_eval()
            )
            .unwrap_err(),
            DesignError::BadGoals
        );
    }
}
