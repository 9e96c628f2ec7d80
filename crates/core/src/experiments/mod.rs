//! Runnable reproductions of every table and figure in the paper's
//! evaluation (Section 5 and the appendices).
//!
//! Each submodule packages one experiment: a typed `run` function that
//! produces the figure's data series, and `render_*` methods that print
//! the same rows the paper reports. The `sp-bench` crate's `repro`
//! binary prints each one by name (`repro fig04`, `repro fig11`, …),
//! and EXPERIMENTS.md records paper-versus-measured shape checks.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`cluster_sweep`] | Figures 4, 5, 6 (and A-13/A-14 at a low query rate) |
//! | [`outdegree_hist`] | Figures 7 and 8 |
//! | [`epl_table`] | Figure 9 and Appendix F |
//! | [`redesign`] | Figures 11 and 12 (the Section 5.2 walk-through) |
//! | [`rules`] | Rule #2/#3/#4 numerics, Appendix D Table 2, Figure A-15 |
//! | [`dynamics`] | Section 3.2 reliability claim, Section 5.3 adaptation |
//! | [`ablations`] | Extensions: k > 2 redundancy, overlay families, file-tail sensitivity |

pub mod ablations;
pub mod cluster_sweep;
pub mod dynamics;
pub mod epl_table;
pub mod outdegree_hist;
pub mod redesign;
pub mod rules;

use sp_model::trials::fan_out;

/// Evaluation fidelity: how many trials, how much source sampling.
///
/// The paper-scale runs (`standard`) average several instances of
/// 10 000–20 000-peer networks; tests and smoke runs use `quick` with
/// scaled-down networks.
#[derive(Debug, Clone, Copy)]
pub struct Fidelity {
    /// Instances per configuration.
    pub trials: usize,
    /// Root RNG seed.
    pub seed: u64,
    /// Cap on flooded source clusters per instance (`None` = exact).
    pub max_sources: Option<usize>,
    /// Total worker-thread budget for the whole experiment (`0` = one
    /// per available core). [`run_cells`] splits it between sweep
    /// cells, trials, and analysis source shards so the three levels
    /// of parallelism never oversubscribe the machine. The reported
    /// numbers are bitwise identical at any value.
    pub threads: usize,
}

impl Fidelity {
    /// Paper-scale fidelity (several trials, sampled sources — the
    /// sampling error is far below the instance-to-instance CI width).
    pub fn standard() -> Self {
        Fidelity {
            trials: 3,
            seed: 0x5EED_2003,
            max_sources: Some(1200),
            threads: 0,
        }
    }

    /// Fast fidelity for tests and smoke runs.
    pub fn quick() -> Self {
        Fidelity {
            trials: 1,
            seed: 0x5EED_2003,
            max_sources: Some(150),
            threads: 0,
        }
    }
}

impl Default for Fidelity {
    fn default() -> Self {
        Fidelity::standard()
    }
}

/// Fans `n_cells` independent evaluations over a bounded worker pool
/// ([`fan_out`]) and returns their results **in cell order**.
///
/// `budget` is the total worker-thread budget (`0` = one per available
/// core). Up to `min(budget, n_cells)` cells run concurrently, and
/// each invocation of `run(cell_index, inner_budget)` receives the
/// leftover multiple `budget / outer` as its own inner thread budget
/// (to hand to [`sp_model::trials::TrialOptions::threads`]), so
/// `outer × inner` never exceeds the budget. The output order — and,
/// because every cell is evaluated independently from its own seed,
/// every reported number — is independent of the thread count.
///
/// # Panics
///
/// Panics with `sweep cell {i} panicked: …` if a cell panics.
pub fn run_cells<O, F>(n_cells: usize, budget: usize, run: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize, usize) -> O + Sync,
{
    let mut cells = Vec::with_capacity(n_cells);
    fan_out(
        n_cells,
        budget,
        |c| format!("sweep cell {c}"),
        || &run,
        |cell| cells.push(cell),
    );
    cells
}
