//! Weighted discrete ("empirical") distribution via Walker's alias
//! method.
//!
//! Instance generation assigns measured quantities (file-count class,
//! peer capability tier, …) from arbitrary weighted tables. The alias
//! method gives O(1) sampling after O(n) setup — important in the
//! event-driven simulator, which draws per-peer attributes at every
//! churn event.

use super::Sampler;
use crate::rng::SpRng;

/// Discrete distribution over `0..n` with arbitrary non-negative
/// weights, sampled in O(1) by the alias method.
///
/// # Examples
///
/// ```
/// use sp_stats::{Empirical, SpRng};
/// use sp_stats::dist::Sampler;
///
/// // 25% free riders, 75% sharers — the Adar & Huberman split.
/// let d = Empirical::new(&[1.0, 3.0]).unwrap();
/// let mut rng = SpRng::seed_from_u64(1);
/// let x = d.sample(&mut rng);
/// assert!(x < 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Per-cell acceptance probability.
    prob: Vec<f64>,
    /// Per-cell alias target.
    alias: Vec<usize>,
    /// Normalized weights, retained for pmf queries.
    pmf: Vec<f64>,
}

/// Error constructing an [`Empirical`] distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmpiricalError {
    /// The weight table was empty.
    Empty,
    /// All weights were zero, or a weight was negative/NaN.
    InvalidWeights,
}

impl std::fmt::Display for EmpiricalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmpiricalError::Empty => write!(f, "empirical distribution needs at least one weight"),
            EmpiricalError::InvalidWeights => {
                write!(f, "weights must be non-negative, finite, and not all zero")
            }
        }
    }
}

impl std::error::Error for EmpiricalError {}

impl Empirical {
    /// Builds the alias table from a weight slice.
    ///
    /// # Errors
    ///
    /// Returns [`EmpiricalError`] on an empty table, any negative or
    /// non-finite weight, or an all-zero table.
    pub fn new(weights: &[f64]) -> Result<Self, EmpiricalError> {
        if weights.is_empty() {
            return Err(EmpiricalError::Empty);
        }
        if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
            return Err(EmpiricalError::InvalidWeights);
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(EmpiricalError::InvalidWeights);
        }
        let n = weights.len();
        let pmf: Vec<f64> = weights.iter().map(|&w| w / total).collect();

        // Vose's stable alias construction.
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0usize; n];
        let mut small = Vec::with_capacity(n);
        let mut large = Vec::with_capacity(n);
        let mut scaled: Vec<f64> = pmf.iter().map(|&p| p * n as f64).collect();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }
        Ok(Empirical { prob, alias, pmf })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.pmf.len()
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.pmf.is_empty()
    }

    /// Normalized probability of category `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pmf(&self, i: usize) -> f64 {
        self.pmf[i]
    }
}

impl Sampler<usize> for Empirical {
    fn sample(&self, rng: &mut SpRng) -> usize {
        let i = rng.index(self.prob.len());
        if rng.unit_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
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
    fn frequencies_match_weights() {
        let d = Empirical::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut rng = SpRng::seed_from_u64(23);
        let n = 400_000usize;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[d.sample(&mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - d.pmf(i)).abs() < 0.005,
                "cat {i}: empirical {emp} vs pmf {}",
                d.pmf(i)
            );
        }
    }

    #[test]
    fn zero_weight_categories_never_sampled() {
        let d = Empirical::new(&[0.0, 1.0, 0.0]).unwrap();
        let mut rng = SpRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn single_category() {
        let d = Empirical::new(&[7.5]).unwrap();
        let mut rng = SpRng::seed_from_u64(0);
        assert_eq!(d.sample(&mut rng), 0);
        assert!((d.pmf(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_normalized() {
        let d = Empirical::new(&[5.0, 15.0]).unwrap();
        assert!((d.pmf(0) - 0.25).abs() < 1e-12);
        assert!((d.pmf(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn errors_reported() {
        assert_eq!(Empirical::new(&[]).unwrap_err(), EmpiricalError::Empty);
        assert_eq!(
            Empirical::new(&[0.0, 0.0]).unwrap_err(),
            EmpiricalError::InvalidWeights
        );
        assert_eq!(
            Empirical::new(&[1.0, -1.0]).unwrap_err(),
            EmpiricalError::InvalidWeights
        );
        assert_eq!(
            Empirical::new(&[f64::NAN]).unwrap_err(),
            EmpiricalError::InvalidWeights
        );
    }

    #[test]
    fn error_display_is_informative() {
        let msg = EmpiricalError::Empty.to_string();
        assert!(msg.contains("at least one"));
    }
}
