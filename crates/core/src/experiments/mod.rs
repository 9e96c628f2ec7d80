//! Runnable reproductions of every table and figure in the paper's
//! evaluation (Section 5 and the appendices).
//!
//! Each submodule packages one experiment: a typed `run` function that
//! produces the figure's data series, and `render_*` methods that print
//! the same rows the paper reports. The `sp-bench` crate exposes one
//! binary per experiment (`repro_fig04`, `repro_fig11`, …), and
//! EXPERIMENTS.md records paper-versus-measured shape checks.
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
    /// of parallelism never oversubscribe the machine. Has no effect
    /// on the reported numbers.
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

    /// Returns the fidelity with a different thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl Default for Fidelity {
    fn default() -> Self {
        Fidelity::standard()
    }
}

/// Fans `n_cells` independent evaluations over a bounded worker pool
/// and returns their results **in cell order**.
///
/// `budget` is the total worker-thread budget (`0` = one per available
/// core). Up to `min(budget, n_cells)` cells run concurrently, and
/// each invocation of `run(cell_index, inner_budget)` receives the
/// leftover multiple `budget / outer` as its own inner thread budget
/// (to hand to [`sp_model::trials::TrialOptions::threads`]), so
/// `outer × inner` never exceeds the budget. The output order — and,
/// because every cell is evaluated independently from its own seed,
/// every reported number — is independent of the thread count.
pub fn run_cells<O, F>(n_cells: usize, budget: usize, run: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize, usize) -> O + Sync,
{
    let budget = if budget == 0 {
        std::thread::available_parallelism().map_or(1, |v| v.get())
    } else {
        budget
    }
    .max(1);
    let outer = budget.min(n_cells).max(1);
    let inner = (budget / outer).max(1);
    if outer == 1 {
        return (0..n_cells).map(|c| run(c, inner)).collect();
    }

    #[allow(
        clippy::disallowed_types,
        reason = "F2 sanctioned: a work-claim counter; cells land in their own slots"
    )]
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = (0..n_cells).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..outer)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let c = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if c >= n_cells {
                            break;
                        }
                        done.push((c, run(c, inner)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (c, o) in h.join().expect("sweep cell worker panicked") {
                slots[c] = Some(o);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every cell evaluated exactly once"))
        .collect()
}
