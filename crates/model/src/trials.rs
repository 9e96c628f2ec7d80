//! Repeated trials (Step 4 of the paper's methodology).
//!
//! "We run analysis over several instances of a configuration and
//! average E[M|I] over these trials … We also calculate 95% confidence
//! intervals." Trials are embarrassingly parallel, so they are fanned
//! out over worker threads by [`fan_out`]. Every trial derives its own
//! RNG split and yields one reduction, and the reductions are folded in
//! trial order, so a summary is bitwise identical at any thread count.
//!
//! A trial run owns a **thread budget** ([`TrialOptions::threads`]):
//! trials claim up to `budget` outer workers, and whatever multiple of
//! the budget is left over is handed to each analysis pass as
//! source-level parallelism ([`AnalysisOptions::threads`]). A 5-trial
//! run on 16 cores therefore runs 5 trial workers × 3 source workers
//! instead of leaving 11 cores idle, and never oversubscribes.
//!
//! [`fan_out`] is the workspace's one pool of independent jobs: it also
//! runs simulation trials (`sp_sim::scenario::run_sim_trials`), sweep
//! cells (`sp_core::experiments::run_cells`) and the analysis source
//! shards, each at its level of the same budget cascade.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

use sp_stats::{ConfidenceInterval, GroupedStats, OnlineStats, SpRng};

use crate::analysis::{analyze, AnalysisOptions, InstanceMetrics};
use crate::config::Config;
use crate::instance::NetworkInstance;
use crate::query_model::QueryModel;

/// Options for a trial run.
#[derive(Debug, Clone, Copy)]
pub struct TrialOptions {
    /// Number of instances to generate and analyze.
    pub trials: usize,
    /// Root seed; trial `t` uses the RNG split `seed → t`.
    pub seed: u64,
    /// Per-analysis source sampling (see
    /// [`AnalysisOptions::max_sources`]).
    pub max_sources: Option<usize>,
    /// Total worker-thread budget for this run; 0 = one per available
    /// core. Split between trial-level and source-level parallelism so
    /// `outer × inner ≤ budget`.
    pub threads: usize,
}

impl Default for TrialOptions {
    fn default() -> Self {
        TrialOptions {
            trials: 5,
            seed: 0xC0FFEE,
            max_sources: None,
            threads: 0,
        }
    }
}

/// Mean ± 95% CI for every headline metric, over the trials.
#[derive(Debug, Clone)]
pub struct TrialSummary {
    /// Aggregate incoming bandwidth (bps) over all peers.
    pub agg_in_bw: ConfidenceInterval,
    /// Aggregate outgoing bandwidth (bps).
    pub agg_out_bw: ConfidenceInterval,
    /// Aggregate processing (Hz).
    pub agg_proc: ConfidenceInterval,
    /// Aggregate total (in+out) bandwidth (bps) — the Figure 4 metric.
    pub agg_total_bw: ConfidenceInterval,
    /// Individual super-peer incoming bandwidth (bps) — Figure 5.
    pub sp_in_bw: ConfidenceInterval,
    /// Individual super-peer outgoing bandwidth (bps).
    pub sp_out_bw: ConfidenceInterval,
    /// Individual super-peer processing (Hz) — Figure 6.
    pub sp_proc: ConfidenceInterval,
    /// Individual super-peer total bandwidth (bps).
    pub sp_total_bw: ConfidenceInterval,
    /// Mean client incoming bandwidth (bps).
    pub client_in_bw: ConfidenceInterval,
    /// Mean client outgoing bandwidth (bps).
    pub client_out_bw: ConfidenceInterval,
    /// Mean client processing (Hz).
    pub client_proc: ConfidenceInterval,
    /// Mean client total bandwidth (bps).
    pub client_total_bw: ConfidenceInterval,
    /// Expected results per query — Figure 8 / Figure 11.
    pub results: ConfidenceInterval,
    /// Expected path length of responses — Figure 9 / Figure 11.
    pub epl: ConfidenceInterval,
    /// Mean reached clusters per query.
    pub reach_clusters: ConfidenceInterval,
    /// Partner outgoing bandwidth by outdegree, merged over trials
    /// (Figure 7).
    pub sp_out_bw_by_outdegree: GroupedStats,
    /// Results per query by source outdegree, merged over trials
    /// (Figure 8).
    pub results_by_outdegree: GroupedStats,
    /// Mean realized overlay outdegree.
    pub mean_outdegree: f64,
    /// Mean peers per instance.
    pub mean_peers: f64,
}

/// Per-trial reduction state.
#[derive(Default)]
struct Reduction {
    agg_in: OnlineStats,
    agg_out: OnlineStats,
    agg_proc: OnlineStats,
    agg_total: OnlineStats,
    sp_in: OnlineStats,
    sp_out: OnlineStats,
    sp_proc: OnlineStats,
    sp_total: OnlineStats,
    cl_in: OnlineStats,
    cl_out: OnlineStats,
    cl_proc: OnlineStats,
    cl_total: OnlineStats,
    results: OnlineStats,
    epl: OnlineStats,
    reach: OnlineStats,
    outdeg: OnlineStats,
    peers: OnlineStats,
    by_outdeg_bw: GroupedStats,
    by_outdeg_results: GroupedStats,
}

impl Reduction {
    fn push(&mut self, m: &InstanceMetrics, bw: &GroupedStats, res: &GroupedStats) {
        self.agg_in.push(m.aggregate.in_bw);
        self.agg_out.push(m.aggregate.out_bw);
        self.agg_proc.push(m.aggregate.proc);
        self.agg_total.push(m.aggregate.total_bw());
        self.sp_in.push(m.sp_mean.in_bw);
        self.sp_out.push(m.sp_mean.out_bw);
        self.sp_proc.push(m.sp_mean.proc);
        self.sp_total.push(m.sp_mean.total_bw());
        self.cl_in.push(m.client_mean.in_bw);
        self.cl_out.push(m.client_mean.out_bw);
        self.cl_proc.push(m.client_mean.proc);
        self.cl_total.push(m.client_mean.total_bw());
        self.results.push(m.results_per_query);
        self.epl.push(m.epl);
        self.reach.push(m.mean_reach_clusters);
        self.outdeg.push(m.mean_outdegree);
        self.peers.push(m.num_peers as f64);
        self.by_outdeg_bw.merge(bw);
        self.by_outdeg_results.merge(res);
    }

    fn merge(&mut self, other: &Reduction) {
        self.agg_in.merge(&other.agg_in);
        self.agg_out.merge(&other.agg_out);
        self.agg_proc.merge(&other.agg_proc);
        self.agg_total.merge(&other.agg_total);
        self.sp_in.merge(&other.sp_in);
        self.sp_out.merge(&other.sp_out);
        self.sp_proc.merge(&other.sp_proc);
        self.sp_total.merge(&other.sp_total);
        self.cl_in.merge(&other.cl_in);
        self.cl_out.merge(&other.cl_out);
        self.cl_proc.merge(&other.cl_proc);
        self.cl_total.merge(&other.cl_total);
        self.results.merge(&other.results);
        self.epl.merge(&other.epl);
        self.reach.merge(&other.reach);
        self.outdeg.merge(&other.outdeg);
        self.peers.merge(&other.peers);
        self.by_outdeg_bw.merge(&other.by_outdeg_bw);
        self.by_outdeg_results.merge(&other.by_outdeg_results);
    }

    fn finish(self) -> TrialSummary {
        TrialSummary {
            agg_in_bw: self.agg_in.ci95(),
            agg_out_bw: self.agg_out.ci95(),
            agg_proc: self.agg_proc.ci95(),
            agg_total_bw: self.agg_total.ci95(),
            sp_in_bw: self.sp_in.ci95(),
            sp_out_bw: self.sp_out.ci95(),
            sp_proc: self.sp_proc.ci95(),
            sp_total_bw: self.sp_total.ci95(),
            client_in_bw: self.cl_in.ci95(),
            client_out_bw: self.cl_out.ci95(),
            client_proc: self.cl_proc.ci95(),
            client_total_bw: self.cl_total.ci95(),
            results: self.results.ci95(),
            epl: self.epl.ci95(),
            reach_clusters: self.reach.ci95(),
            sp_out_bw_by_outdegree: self.by_outdeg_bw,
            results_by_outdegree: self.by_outdeg_results,
            mean_outdegree: self.outdeg.mean(),
            mean_peers: self.peers.mean(),
        }
    }
}

/// Resolves a requested thread count into a concrete budget: `0` means
/// one worker per available core, anything else is taken as-is
/// (clamped to at least 1).
///
/// Shared by [`fan_out`] and the sharded scale engine's worker count,
/// so "how many threads does `--threads 0` mean" has exactly one
/// answer.
pub fn resolve_thread_budget(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .max(1)
}

/// Partitions `items` sequential indices into `shards` contiguous
/// spans, returning `(start, end)` half-open ranges in shard order.
///
/// Earlier shards get the remainder, so span lengths differ by at most
/// one and every index is covered exactly once. Used by the analysis
/// to cut its source list into shards, and by the sharded scale
/// simulator to assign contiguous cluster ranges to shards (the
/// "peer-id prefix" partitioning: cluster ids are peer-id prefixes).
/// `shards` is clamped to `[1, items.max(1)]` so no span is empty.
pub fn shard_spans(items: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, items.max(1));
    let base = items / shards;
    let extra = items % shards;
    let mut spans = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        spans.push((start, start + len));
        start += len;
    }
    spans
}

/// Splits a thread budget between `jobs` perfectly independent outer
/// workers and per-job inner parallelism, returning `(outer, inner)`.
///
/// Outer workers are claimed first (independent jobs scale best); the
/// leftover multiple of the budget goes to each job's inner loop.
/// `outer × inner` never exceeds the budget, and both are at least 1.
fn split_thread_budget(budget: usize, jobs: usize) -> (usize, usize) {
    let budget = budget.max(1);
    let outer = budget.min(jobs.max(1));
    let inner = (budget / outer).max(1);
    (outer, inner)
}

/// Renders a caught panic payload as a message. `panic!` carries a
/// `&'static str` or a formatted `String`; a payload re-thrown through
/// a nested `catch_unwind` (via `std::panic::panic_any` on the caught
/// box) arrives still boxed, so `Box<String>`, `Box<&str>`, and
/// re-boxed `Box<dyn Any>` payloads unwrap recursively instead of
/// collapsing to "non-string panic payload".
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else if let Some(s) = payload.downcast_ref::<Box<String>>() {
        s
    } else if let Some(s) = payload.downcast_ref::<Box<&'static str>>() {
        s
    } else if let Some(inner) = payload.downcast_ref::<Box<dyn std::any::Any + Send>>() {
        panic_message(inner.as_ref())
    } else {
        "non-string panic payload"
    }
}

/// Runs `jobs` independent jobs on a thread budget and hands their
/// results to `take` **in index order**, at any thread count.
///
/// The budget (`0` = one worker per available core) is resolved by
/// [`resolve_thread_budget`] and split into up to `jobs` outer workers
/// and an inner budget, so `outer × inner` never exceeds it. Each
/// worker builds its job function once with `worker()` (the place for
/// per-worker scratch), then claims the next unclaimed index `i` and
/// runs `job(i, inner)`. With one worker each result reaches `take`
/// before the next job starts; with more, results are held until every
/// job has finished.
///
/// # Panics
///
/// If a job panics, panics on the caller with
/// `"{label(i)} panicked: {message}"`, at every thread count.
pub fn fan_out<T, J>(
    jobs: usize,
    threads: usize,
    label: impl Fn(usize) -> String + Sync,
    worker: impl Fn() -> J + Sync,
    mut take: impl FnMut(T),
) where
    T: Send,
    J: FnMut(usize, usize) -> T,
{
    let (outer, inner) = split_thread_budget(resolve_thread_budget(threads), jobs);
    let run = |job: &mut J, i: usize| match catch_unwind(AssertUnwindSafe(|| job(i, inner))) {
        Ok(value) => value,
        Err(payload) => panic!("{} panicked: {}", label(i), panic_message(payload.as_ref())),
    };
    if outer == 1 {
        let mut job = worker();
        for i in 0..jobs {
            take(run(&mut job, i));
        }
        return;
    }

    #[allow(
        clippy::disallowed_types,
        reason = "F2 sanctioned: the one work-claim counter; results still return in index order"
    )]
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..outer)
            .map(|_| {
                scope.spawn(|| {
                    let mut job = worker();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            return done;
                        }
                        done.push((i, run(&mut job, i)));
                    }
                })
            })
            .collect();
        for h in handles {
            // A job panic arrives already labelled: pass it on.
            for (i, value) in h.join().unwrap_or_else(|payload| resume_unwind(payload)) {
                slots[i] = Some(value);
            }
        }
    });
    for slot in slots {
        take(slot.expect("every job ran exactly once"));
    }
}

/// Runs `opts.trials` independent instances of `config` and summarizes.
///
/// # Panics
///
/// Panics if the configuration is invalid or `opts.trials == 0`.
pub fn run_trials(config: &Config, opts: &TrialOptions) -> TrialSummary {
    config.validate().expect("invalid configuration");
    assert!(opts.trials > 0, "need at least one trial");

    let model = QueryModel::from_config(&config.query_model);
    #[allow(
        clippy::disallowed_methods,
        reason = "R1b seed root: every trial stream splits from opts.seed"
    )]
    let root = SpRng::seed_from_u64(opts.seed);
    let run_trial = |t: usize, inner: usize| -> Reduction {
        let mut rng = root.split(t as u64);
        let inst = NetworkInstance::generate(config, &mut rng).expect("validated config");
        let result = analyze(
            &inst,
            &model,
            &AnalysisOptions {
                max_sources: opts.max_sources,
                threads: inner,
                ..AnalysisOptions::default()
            },
            &mut rng,
        );
        let mut red = Reduction::default();
        red.push(
            &result.metrics,
            &result.sp_out_bw_by_outdegree,
            &result.results_by_outdegree,
        );
        red
    };

    // One reduction per trial, folded in trial order: the summary is
    // bitwise identical at any thread count.
    let mut total = Reduction::default();
    fan_out(
        opts.trials,
        opts.threads,
        |t| format!("trial {t} (root seed {:#x})", opts.seed),
        || &run_trial,
        |red| total.merge(&red),
    );
    total.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphType;

    fn tiny() -> Config {
        Config {
            graph_size: 200,
            cluster_size: 10,
            graph_type: GraphType::StronglyConnected,
            ttl: 1,
            ..Config::default()
        }
    }

    #[test]
    fn summary_has_cis_over_trials() {
        let s = run_trials(
            &tiny(),
            &TrialOptions {
                trials: 4,
                seed: 1,
                ..Default::default()
            },
        );
        assert_eq!(s.agg_total_bw.count, 4);
        assert!(s.agg_total_bw.mean > 0.0);
        assert!(s.agg_total_bw.half_width >= 0.0);
        assert!(s.sp_total_bw.mean > s.client_total_bw.mean);
        assert!((s.reach_clusters.mean - 20.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed_and_independent_of_threads() {
        // More trials than threads, so workers take several trials each.
        // Debug prints every f64 in its shortest round-trip form, so equal
        // text means equal bits in every field.
        let opts = TrialOptions {
            trials: 5,
            seed: 99,
            threads: 1,
            ..Default::default()
        };
        let one = format!("{:?}", run_trials(&tiny(), &opts));
        for threads in 2..=4 {
            let many = format!(
                "{:?}",
                run_trials(&tiny(), &TrialOptions { threads, ..opts })
            );
            assert_eq!(one, many, "{threads} threads changed the summary");
        }
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        // Job 0 waits for job 4, and job 4 for job 5. On two workers one
        // runs jobs 1 to 4 while the other runs jobs 0 and 5, so low
        // indices finish last and the workers' shares interleave.
        #[allow(
            clippy::disallowed_types,
            reason = "F2 exempt in a test: the barriers force the completion order"
        )]
        let (x, y) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let job = |i: usize, _: usize| {
            if i == 0 || i == 4 {
                x.wait();
            }
            if i == 4 || i == 5 {
                y.wait();
            }
            i * 10
        };
        for threads in [2, 3] {
            let mut got = Vec::new();
            fan_out(6, threads, |i| format!("job {i}"), || &job, |v| got.push(v));
            assert_eq!(got, [0, 10, 20, 30, 40, 50], "{threads} workers");
        }
    }

    #[test]
    fn fan_out_names_the_panicking_job_at_any_thread_count() {
        for threads in [1, 3] {
            let payload = std::panic::catch_unwind(|| {
                let job = |i: usize, _: usize| {
                    if i == 2 {
                        panic!("boom");
                    }
                    i
                };
                fan_out(5, threads, |i| format!("job {i}"), || job, |_| {});
            })
            .unwrap_err();
            assert_eq!(
                panic_message(payload.as_ref()),
                "job 2 panicked: boom",
                "{threads} workers"
            );
        }
    }

    #[test]
    fn different_seeds_vary_results() {
        let a = run_trials(
            &tiny(),
            &TrialOptions {
                trials: 2,
                seed: 1,
                ..Default::default()
            },
        );
        let b = run_trials(
            &tiny(),
            &TrialOptions {
                trials: 2,
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(a.agg_total_bw.mean, b.agg_total_bw.mean);
    }

    #[test]
    fn thread_budget_cascade_properties() {
        assert!(resolve_thread_budget(0) >= 1);
        assert_eq!(resolve_thread_budget(3), 3);
        // Budget splits: outer×inner ≤ budget, both ≥ 1.
        for budget in 1..=32 {
            for jobs in 0..=10 {
                let (outer, inner) = split_thread_budget(budget, jobs);
                assert!(outer >= 1 && inner >= 1);
                assert!(outer * inner <= budget, "{budget} {jobs}");
                assert!(outer <= jobs.max(1));
            }
        }
        assert_eq!(split_thread_budget(16, 5), (5, 3));
        assert_eq!(split_thread_budget(4, 8), (4, 1));
        assert_eq!(split_thread_budget(0, 4), (1, 1));
    }

    #[test]
    fn shard_spans_cover_contiguously() {
        for items in 0..=40 {
            for shards in 0..=12 {
                let spans = shard_spans(items, shards);
                assert!(!spans.is_empty());
                assert!(spans.len() <= shards.max(1));
                // Contiguous cover of [0, items), no empty span unless
                // items == 0 (then the single span is (0, 0)).
                let mut cursor = 0;
                for &(start, end) in &spans {
                    assert_eq!(start, cursor, "gap at {items}/{shards}");
                    assert!(end >= start);
                    if items > 0 {
                        assert!(end > start, "empty span at {items}/{shards}");
                    }
                    cursor = end;
                }
                assert_eq!(cursor, items);
                // Balanced: lengths differ by at most one.
                let lens: Vec<_> = spans.iter().map(|(s, e)| e - s).collect();
                let min = lens.iter().min().unwrap();
                let max = lens.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced at {items}/{shards}: {lens:?}");
            }
        }
        assert_eq!(shard_spans(10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(shard_spans(4, 1), vec![(0, 4)]);
        assert_eq!(shard_spans(2, 8), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn panic_payloads_render_as_strings() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&String::from("kaboom")), "kaboom");
        assert_eq!(panic_message(&42i32), "non-string panic payload");
    }

    #[test]
    fn nested_catch_unwind_payloads_unwrap() {
        // A panic caught and re-thrown with panic_any(payload) arrives
        // as Box<Box<dyn Any>>; the renderer must see through it.
        let rethrown = std::panic::catch_unwind(|| {
            let inner = std::panic::catch_unwind(|| panic!("inner failure {}", 7)).unwrap_err();
            std::panic::panic_any(inner);
        })
        .unwrap_err();
        assert_eq!(panic_message(rethrown.as_ref()), "inner failure 7");
        assert_eq!(
            panic_message(&Box::new(String::from("boxed string"))),
            "boxed string"
        );
        assert_eq!(panic_message(&Box::new("boxed str")), "boxed str");
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        run_trials(
            &tiny(),
            &TrialOptions {
                trials: 0,
                ..Default::default()
            },
        );
    }
}
