//! Zipf distribution over a finite rank universe.
//!
//! The Appendix B query model needs a query-popularity law `g(j)`:
//! the probability that a random submitted query is query `q_j`. P2P
//! query logs (OpenNap in the paper's reference [25], and every
//! Gnutella study since) are well described by a Zipf law
//! `g(j) ∝ (j+1)^{-s}`. This module provides both the probability
//! mass function (used analytically by the query model) and an exact
//! inverse-CDF sampler (used by the event-driven simulator).

use super::Sampler;
use crate::rng::SpRng;

/// Zipf distribution over ranks `0..n` with exponent `s ≥ 0`:
/// `P(rank = j) = (j+1)^{-s} / H_{n,s}`.
///
/// `s = 0` degenerates to the uniform distribution over `0..n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    exponent: f64,
    /// Cumulative distribution, `cdf[j] = P(rank <= j)`; `cdf[n-1] = 1`.
    cdf: Vec<f64>,
    /// Probability mass `pmf[j]`.
    pmf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf law over `n` ranks with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or `exponent` is negative or non-finite.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "exponent must be finite and >= 0"
        );
        let mut pmf: Vec<f64> = (0..n).map(|j| ((j + 1) as f64).powf(-exponent)).collect();
        let norm: f64 = pmf.iter().sum();
        for p in &mut pmf {
            *p /= norm;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &p in &pmf {
            acc += p;
            cdf.push(acc);
        }
        // Guard against float drift so inverse-CDF sampling cannot fall
        // off the end.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { exponent, cdf, pmf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.pmf.len()
    }

    /// Whether the universe is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.pmf.is_empty()
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability mass of rank `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn pmf(&self, j: usize) -> f64 {
        self.pmf[j]
    }

    /// Iterator over `(rank, probability)` pairs, most popular first.
    pub fn masses(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.pmf.iter().copied().enumerate()
    }

    /// Expected value of an arbitrary function of rank,
    /// `Σ_j g(j)·f(j)` — the workhorse of the Appendix B query model.
    pub fn expect<F: FnMut(usize) -> f64>(&self, mut f: F) -> f64 {
        self.pmf.iter().enumerate().map(|(j, &p)| p * f(j)).sum()
    }
}

impl Sampler<usize> for Zipf {
    /// Exact inverse-CDF sampling by binary search: O(log n).
    fn sample(&self, rng: &mut SpRng) -> usize {
        let u = rng.unit_f64();
        // partition_point returns the first index with cdf[j] >= u
        // (cdf is nondecreasing and ends at exactly 1.0).
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
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
    fn pmf_sums_to_one() {
        for &(n, s) in &[(1usize, 1.0), (10, 0.8), (1000, 1.2), (5, 0.0)] {
            let z = Zipf::new(n, s);
            let total: f64 = z.masses().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-12, "n={n} s={s} total={total}");
        }
    }

    #[test]
    fn pmf_is_monotone_decreasing() {
        let z = Zipf::new(100, 1.0);
        for j in 1..100 {
            assert!(z.pmf(j) <= z.pmf(j - 1));
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(8, 0.0);
        for j in 0..8 {
            assert!((z.pmf(j) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_ratios_follow_power_law() {
        let z = Zipf::new(1000, 1.0);
        // g(0)/g(9) = 10 for s = 1.
        let ratio = z.pmf(0) / z.pmf(9);
        assert!((ratio - 10.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn sampler_matches_pmf() {
        let z = Zipf::new(50, 1.0);
        let mut rng = SpRng::seed_from_u64(17);
        let n = 200_000usize;
        let mut counts = vec![0usize; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (j, &count) in counts.iter().enumerate().take(10) {
            let emp = count as f64 / n as f64;
            let rel = (emp - z.pmf(j)).abs() / z.pmf(j);
            assert!(rel < 0.05, "rank {j}: empirical {emp} vs pmf {}", z.pmf(j));
        }
    }

    #[test]
    fn expect_computes_weighted_sum() {
        let z = Zipf::new(4, 0.0); // uniform over 0..4
        let e = z.expect(|j| j as f64);
        assert!((e - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_rank_always_sampled() {
        let z = Zipf::new(1, 2.0);
        let mut rng = SpRng::seed_from_u64(0);
        for _ in 0..20 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_universe_panics() {
        Zipf::new(0, 1.0);
    }
}
