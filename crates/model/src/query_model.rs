//! The Appendix B query model (from the authors' earlier hybrid-P2P
//! study, reference \[25\]).
//!
//! The model is defined by two probability functions over a universe of
//! query classes:
//!
//! * `g(j)` — the probability that a random submitted query is query
//!   `q_j` (query popularity);
//! * `f(j)` — the probability that a random file matches `q_j`
//!   (selection power).
//!
//! Matches are independent per file, so for a super-peer `T` indexing
//! `x_tot` files:
//!
//! * `E[N_T | I] = Σ_j g(j)·f(j) · x_tot` — Equation (5);
//! * `P(collection of size x returns nothing) = Σ_j g(j)·(1−f(j))^x`;
//! * `E[K_T | I] = Σ_i (1 − Σ_j g(j)·(1−f(j))^{x_i})` over the
//!   cluster's member collections — Equation (6).
//!
//! The OpenNap distributions used in \[25\] are not available, so `g` is
//! Zipf and `f` follows a correlated power law (popular queries match
//! more files), with the absolute scale **calibrated** so that the
//! match rate per indexed file `Σ_j g(j)f(j)` reproduces the paper's
//! observed result counts: Figure 11 reports 269 expected results at a
//! reach of 3000 single-peer clusters, i.e. ≈ 0.09 expected results per
//! reached peer, which at ~124 files per peer gives
//! `match ≈ 7.25 × 10⁻⁴` per file (DESIGN.md §4).

use std::collections::BTreeMap;

use sp_stats::dist::Sampler;
use sp_stats::{SpRng, Zipf};

/// Parameters of the synthetic query model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryModelConfig {
    /// Number of query classes in the universe.
    pub num_classes: usize,
    /// Zipf exponent of the popularity law `g(j) ∝ (j+1)^{-s}`.
    pub popularity_exponent: f64,
    /// Power-law exponent of selection power `f(j) ∝ (j+1)^{-t}`
    /// (matches are positively correlated with popularity).
    pub selection_exponent: f64,
    /// Target match rate per indexed file, `Σ_j g(j) f(j)`.
    pub match_per_file: f64,
}

impl Default for QueryModelConfig {
    fn default() -> Self {
        QueryModelConfig {
            num_classes: 1024,
            popularity_exponent: 1.0,
            selection_exponent: 0.75,
            match_per_file: 7.25e-4,
        }
    }
}

/// Materialized query model: popularity pmf, per-class selection
/// powers, and the derived expectations of Appendix B.
#[derive(Debug, Clone)]
pub struct QueryModel {
    g: Zipf,
    /// Selection power per class, each in `[0, 1)`.
    f: Vec<f64>,
    /// `ln(1 − f(j))`, precomputed for the `(1−f)^x` evaluations.
    log1mf: Vec<f64>,
    /// `Σ_j g(j) f(j)`.
    match_rate: f64,
}

impl QueryModel {
    /// Builds the model, calibrating the selection-power scale by
    /// bisection so that `Σ_j g(j)f(j)` hits `cfg.match_per_file`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_classes == 0`, the target match rate is not
    /// in `(0, 1)` or is unachievable under the configured exponents
    /// (the per-class clamp at 0.999 bounds `Σ g·f` from above — a
    /// silently mis-calibrated model would corrupt every downstream
    /// result count), or the exponents are negative.
    pub fn from_config(cfg: &QueryModelConfig) -> Self {
        assert!(cfg.num_classes > 0, "need at least one query class");
        assert!(
            cfg.match_per_file > 0.0 && cfg.match_per_file < 1.0,
            "match_per_file must be in (0,1)"
        );
        assert!(
            cfg.popularity_exponent >= 0.0 && cfg.selection_exponent >= 0.0,
            "exponents must be non-negative"
        );
        let g = Zipf::new(cfg.num_classes, cfg.popularity_exponent);
        let shape: Vec<f64> = (0..cfg.num_classes)
            .map(|j| ((j + 1) as f64).powf(-cfg.selection_exponent))
            .collect();
        let rate_for = |f0: f64| -> f64 {
            g.masses()
                .map(|(j, gj)| gj * (f0 * shape[j]).min(0.999))
                .sum()
        };
        // Bisection on the scale factor (monotone in f0).
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if rate_for(mid) < cfg.match_per_file {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let f0 = 0.5 * (lo + hi);
        let f: Vec<f64> = shape.iter().map(|&s| (f0 * s).min(0.999)).collect();
        let log1mf: Vec<f64> = f.iter().map(|&fj| (1.0 - fj).ln()).collect();
        let match_rate = rate_for(f0);
        assert!(
            (match_rate - cfg.match_per_file).abs() <= 0.01 * cfg.match_per_file,
            "match_per_file {} is unachievable with these exponents \
             (ceiling {:.3e}) — lower the target or flatten selection_exponent",
            cfg.match_per_file,
            rate_for(1.0)
        );
        QueryModel {
            g,
            f,
            log1mf,
            match_rate,
        }
    }

    /// Model with the default (paper-calibrated) parameters.
    pub fn paper_default() -> Self {
        QueryModel::from_config(&QueryModelConfig::default())
    }

    /// The calibrated per-file match rate `Σ_j g(j) f(j)`.
    pub fn match_rate(&self) -> f64 {
        self.match_rate
    }

    /// Number of query classes.
    pub fn num_classes(&self) -> usize {
        self.f.len()
    }

    /// Selection power of class `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn selection_power(&self, j: usize) -> f64 {
        self.f[j]
    }

    /// Popularity of class `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn popularity(&self, j: usize) -> f64 {
        self.g.pmf(j)
    }

    /// `E[N_T | I]`: expected results from an index of `total_files`
    /// files (Equation 5) — linear in the index size.
    pub fn expected_results(&self, total_files: f64) -> f64 {
        self.match_rate * total_files
    }

    /// `P(a collection of x files returns no result for a random
    /// query) = Σ_j g(j)(1−f(j))^x`. Exact; O(num_classes).
    pub fn prob_no_match(&self, files: u32) -> f64 {
        if files == 0 {
            return 1.0;
        }
        let x = files as f64;
        self.g
            .masses()
            .map(|(j, gj)| gj * (x * self.log1mf[j]).exp())
            .sum()
    }

    /// `P(a collection of x files returns at least one result)`.
    pub fn prob_some_match(&self, files: u32) -> f64 {
        (1.0 - self.prob_no_match(files)).max(0.0)
    }

    /// Samples a query class (for the event-driven simulator).
    pub fn sample_query(&self, rng: &mut SpRng) -> usize {
        self.g.sample(rng)
    }

    /// Expected number of matches of query class `j` over `files`
    /// files (used by the simulator to draw result counts).
    pub fn expected_matches_for(&self, j: usize, files: f64) -> f64 {
        self.f[j] * files
    }
}

/// Memo table for [`QueryModel::prob_no_match`], keyed by collection
/// size. Instance analysis evaluates the same file counts thousands of
/// times (cluster index sizes repeat across sources), so the cache
/// turns an O(num_classes) evaluation into a cheap probe. A `BTreeMap`
/// rather than `HashMap` keeps the crate free of randomized-hash
/// containers (rule D1, DESIGN.md §13); the tree stays tiny (distinct
/// index sizes), so the O(log n) probe is noise next to the
/// O(num_classes) miss path.
#[derive(Debug, Default)]
pub struct MatchCache {
    memo: BTreeMap<u32, f64>,
}

impl MatchCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached `prob_no_match(files)`.
    pub fn prob_no_match(&mut self, model: &QueryModel, files: u32) -> f64 {
        *self
            .memo
            .entry(files)
            .or_insert_with(|| model.prob_no_match(files))
    }

    /// Cached `prob_some_match(files)`.
    pub fn prob_some_match(&mut self, model: &QueryModel, files: u32) -> f64 {
        (1.0 - self.prob_no_match(model, files)).max(0.0)
    }

    /// `E[K_T | I]` (Equation 6): expected number of collections, among
    /// the given member collections, that produce at least one result.
    pub fn expected_responding_collections<I>(&mut self, model: &QueryModel, files: I) -> f64
    where
        I: IntoIterator<Item = u32>,
    {
        files
            .into_iter()
            .map(|x| self.prob_some_match(model, x))
            .sum()
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_target_match_rate() {
        let m = QueryModel::paper_default();
        let target = QueryModelConfig::default().match_per_file;
        let rel = (m.match_rate() - target).abs() / target;
        assert!(
            rel < 1e-6,
            "match rate {} vs target {target}",
            m.match_rate()
        );
    }

    #[test]
    fn expected_results_reproduce_figure_11() {
        // 3000 reached single-peer clusters × ~124 files each → ≈ 269
        // expected results (the paper's "today's Gnutella" row).
        let m = QueryModel::paper_default();
        let results = m.expected_results(3000.0 * 123.7);
        assert!((results - 269.0).abs() < 3.0, "results {results}");
    }

    #[test]
    fn expected_results_linear_in_files() {
        let m = QueryModel::paper_default();
        let r1 = m.expected_results(1000.0);
        let r2 = m.expected_results(2000.0);
        assert!((r2 - 2.0 * r1).abs() < 1e-9);
        assert_eq!(m.expected_results(0.0), 0.0);
    }

    #[test]
    fn prob_no_match_boundary_cases() {
        let m = QueryModel::paper_default();
        assert_eq!(m.prob_no_match(0), 1.0);
        let p1 = m.prob_no_match(1);
        assert!((p1 - (1.0 - m.match_rate())).abs() < 1e-12);
        // Monotone decreasing in collection size.
        let mut prev = 1.0;
        for x in [1u32, 10, 100, 1000, 10_000, 100_000] {
            let p = m.prob_no_match(x);
            assert!(p <= prev + 1e-15, "x={x}: {p} > {prev}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        // A million-file index almost always has a match for the
        // popular queries, but rare queries still miss: p stays well
        // above 0 only if tail selection powers are tiny — just check
        // it keeps shrinking.
        assert!(m.prob_no_match(1_000_000) < m.prob_no_match(1000));
    }

    #[test]
    fn responding_collections_bounded_by_count() {
        let m = QueryModel::paper_default();
        let mut cache = MatchCache::new();
        let files = [0u32, 50, 100, 100, 5000];
        let k = cache.expected_responding_collections(&m, files.iter().copied());
        assert!((0.0..=5.0).contains(&k), "K = {k}");
        // A zero-file collection never responds.
        assert_eq!(cache.prob_some_match(&m, 0), 0.0);
        // Bigger collections respond more often.
        assert!(cache.prob_some_match(&m, 5000) > cache.prob_some_match(&m, 50));
    }

    #[test]
    fn cache_agrees_with_direct_evaluation() {
        let m = QueryModel::paper_default();
        let mut cache = MatchCache::new();
        for x in [0u32, 7, 124, 124, 9999] {
            assert_eq!(cache.prob_no_match(&m, x), m.prob_no_match(x));
        }
    }

    #[test]
    fn popular_queries_match_more() {
        let m = QueryModel::paper_default();
        assert!(m.selection_power(0) > m.selection_power(100));
        assert!(m.popularity(0) > m.popularity(100));
        assert!(m.selection_power(0) < 1.0);
    }

    #[test]
    fn sampler_prefers_popular_classes() {
        let m = QueryModel::paper_default();
        let mut rng = SpRng::seed_from_u64(5);
        let n = 20_000;
        let top = (0..n).filter(|_| m.sample_query(&mut rng) < 10).count() as f64 / n as f64;
        let expect: f64 = (0..10).map(|j| m.popularity(j)).sum();
        assert!((top - expect).abs() < 0.02, "top-10 mass {top} vs {expect}");
    }

    #[test]
    #[should_panic(expected = "match_per_file")]
    fn bad_target_panics() {
        QueryModel::from_config(&QueryModelConfig {
            match_per_file: 1.5,
            ..Default::default()
        });
    }
}
