//! Output checks. Every run of a workload fingerprints its
//! deterministic outputs and checks the ROADMAP invariants; a run
//! whose checks fail counts as a failed operation and contributes no
//! timings.

use sp_model::analysis::InstanceMetrics;
use sp_model::snapshot::fnv1a;
use sp_sim::engine::RawMetrics;
use sp_sim::ScaleMetrics;

/// Fingerprint of a rendering of deterministic outputs. `{:?}` prints
/// every `f64` in its shortest round-trip form, so two renderings are
/// equal exactly when the outputs are bitwise equal.
fn fingerprint(rendering: &str) -> u64 {
    fnv1a(rendering.as_bytes())
}

pub fn analysis_fingerprint(m: &InstanceMetrics) -> u64 {
    fingerprint(&format!("{m:?}"))
}

pub fn churn_fingerprint(m: &RawMetrics) -> u64 {
    fingerprint(&format!("{m:?}"))
}

pub fn scale_fingerprint(m: &ScaleMetrics) -> u64 {
    fingerprint(&m.to_json())
}

/// Analysis conservation: every byte sent is received, so aggregate
/// in-bandwidth equals aggregate out-bandwidth (up to float summation
/// order).
pub fn analysis_violations(m: &InstanceMetrics) -> Vec<String> {
    let (i, o) = (m.aggregate.in_bw, m.aggregate.out_bw);
    let rel = (i - o).abs() / i.abs().max(o.abs()).max(f64::MIN_POSITIVE);
    let mut v = Vec::new();
    if !(i > 0.0 && rel < 1e-9) {
        v.push(format!("aggregate in-bw {i} != out-bw {o}"));
    }
    v
}

/// Churn conservation: issued = delivered + shed + rejected + lost.
/// Without an overload policy nothing is shed or rejected and
/// "delivered" is the fault ledger's answered queries.
pub fn churn_violations(m: &RawMetrics, overload_active: bool) -> Vec<String> {
    let (f, ov) = (&m.faults, &m.overload);
    let mut v = Vec::new();
    if f.queries_issued == 0 {
        v.push("no queries issued".to_string());
    }
    if overload_active {
        if !ov.conserved(f.queries_issued, f.queries_lost) {
            v.push(format!(
                "issued {} != lost {} + delivered/shed/rejected {}",
                f.queries_issued,
                f.queries_lost,
                ov.accounted()
            ));
        }
    } else {
        if !f.conserved() {
            v.push(format!(
                "issued {} != answered {} + recovered {} + lost {}",
                f.queries_issued,
                f.answered_direct,
                f.queries_recovered(),
                f.queries_lost
            ));
        }
        if ov.accounted() != 0 {
            v.push(format!(
                "{} queries in the overload ledger without a policy",
                ov.accounted()
            ));
        }
    }
    v
}

/// Scale shard-count invariance: the run equals a re-run at another
/// shard count bitwise.
pub fn scale_violations(m: &ScaleMetrics, other_shard_count: Option<&ScaleMetrics>) -> Vec<String> {
    let mut v = Vec::new();
    if m.queries_issued == 0 {
        v.push("no queries issued".to_string());
    }
    if let Some(o) = other_shard_count {
        if o != m {
            v.push("metrics differ between shard counts".to_string());
        }
    }
    v
}

/// Counts attempted and failed runs and keeps the measurements of the
/// runs that passed.
pub struct Tally<S> {
    pinned: Option<u64>,
    first: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub passed: Vec<S>,
    pub errors: Vec<String>,
}

impl<S> Tally<S> {
    /// `pinned` is the expected fingerprint when the seed has one.
    pub fn new(pinned: Option<u64>) -> Self {
        Tally {
            pinned,
            first: None,
            attempted: 0,
            failed: 0,
            passed: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Records one run: its output fingerprint, the invariant
    /// violations found, and its measurement. A run fails when it
    /// breaks an invariant, misses the pinned fingerprint, or differs
    /// from the first run of the same inputs.
    pub fn record(&mut self, fingerprint: u64, mut violations: Vec<String>, sample: S) -> bool {
        self.attempted += 1;
        if let Some(p) = self.pinned {
            if fingerprint != p {
                violations.push(format!("fingerprint {fingerprint:#018x}, pinned {p:#018x}"));
            }
        }
        match self.first {
            None => self.first = Some(fingerprint),
            Some(f) if f != fingerprint => violations.push(format!(
                "fingerprint {fingerprint:#018x} differs from the first run's {f:#018x}"
            )),
            Some(_) => {}
        }
        if violations.is_empty() {
            self.passed.push(sample);
            true
        } else {
            self.failed += 1;
            self.errors.extend(violations);
            false
        }
    }

    pub fn fingerprint(&self) -> Option<u64> {
        self.first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_model::analysis::{analyze, AnalysisOptions};
    use sp_model::config::Config;
    use sp_model::instance::NetworkInstance;
    use sp_model::query_model::QueryModel;
    use sp_sim::{ScaleOptions, ShardedSimulation, SimOptions, Simulation};
    use sp_stats::SpRng;

    fn small_analysis() -> InstanceMetrics {
        let cfg = Config {
            graph_size: 500,
            ..Config::default()
        };
        let inst = NetworkInstance::generate(&cfg, &mut SpRng::seed_from_u64(3)).unwrap();
        let model = QueryModel::from_config(&cfg.query_model);
        analyze(
            &inst,
            &model,
            &AnalysisOptions::default(),
            &mut SpRng::seed_from_u64(3),
        )
        .metrics
    }

    #[test]
    fn perturbed_analysis_output_counts_as_failed() {
        let m = small_analysis();
        let mut tally = Tally::new(Some(analysis_fingerprint(&m)));
        assert!(tally.record(analysis_fingerprint(&m), analysis_violations(&m), 1.0));

        // One ulp off in a single field misses the pinned fingerprint.
        let mut nudged = m;
        nudged.epl = f64::from_bits(m.epl.to_bits() + 1);
        assert!(!tally.record(
            analysis_fingerprint(&nudged),
            analysis_violations(&nudged),
            2.0
        ));

        // Broken conservation fails even with no pinned value.
        let mut leaky = m;
        leaky.aggregate.out_bw *= 1.001;
        assert!(!analysis_violations(&leaky).is_empty());
        let mut unpinned = Tally::new(None);
        assert!(!unpinned.record(
            analysis_fingerprint(&leaky),
            analysis_violations(&leaky),
            3.0
        ));

        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.passed, vec![1.0], "a failed run reports no timing");
        assert_eq!((unpinned.attempted, unpinned.failed), (1, 1));
        assert!(unpinned.passed.is_empty());
    }

    #[test]
    fn perturbed_churn_and_scale_outputs_count_as_failed() {
        let cfg = Config {
            graph_size: 300,
            ..Config::default()
        };
        let opts = SimOptions {
            duration_secs: 300.0,
            seed: 5,
            ..Default::default()
        };
        let m = Simulation::new(&cfg, opts).run();
        assert!(churn_violations(&m, false).is_empty());
        let mut tally = Tally::new(None);
        assert!(tally.record(churn_fingerprint(&m), churn_violations(&m, false), ()));
        let mut lost_one = m.clone();
        lost_one.faults.queries_lost += 1;
        assert!(!churn_violations(&lost_one, false).is_empty());
        // Unpinned seeds still catch a run that differs from the first.
        let mut drifted = m;
        drifted.queries += 1;
        assert!(!tally.record(churn_fingerprint(&drifted), Vec::new(), ()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));

        let scale_cfg = Config::scale_preset(4_000);
        let run = |shards| {
            let opts = ScaleOptions {
                duration_secs: 30.0,
                seed: 5,
                shards,
                ..Default::default()
            };
            ShardedSimulation::new(&scale_cfg, opts).run()
        };
        let (one, two) = (run(1), run(2));
        assert!(scale_violations(&two, Some(&one)).is_empty());
        let mut off = one;
        off.msgs_delivered += 1;
        assert!(!scale_violations(&two, Some(&off)).is_empty());
        assert_ne!(scale_fingerprint(&two), scale_fingerprint(&off));
    }
}
