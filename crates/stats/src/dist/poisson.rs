//! Poisson distribution.
//!
//! The event-driven simulator draws per-query result counts: a cluster
//! indexing `x` files matches query class `j` `Binomial(x, f_j)` times,
//! which for the tiny per-file match probabilities of the query model
//! is Poisson with mean `f_j·x` to high accuracy.

use super::{Normal, Sampler};
use crate::rng::SpRng;

/// Poisson distribution with mean `lambda ≥ 0`.
///
/// Sampling uses Knuth's product method below mean 30 and a rounded
/// normal approximation above (error < 1% there, far below the
/// Monte-Carlo noise of any simulation using it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda must be finite and >= 0"
        );
        Poisson { lambda }
    }

    /// The mean (= variance).
    pub fn mean(&self) -> f64 {
        self.lambda
    }
}

impl Sampler<u64> for Poisson {
    fn sample(&self, rng: &mut SpRng) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            // Knuth: count multiplications until the product drops
            // below e^{-λ}.
            let limit = (-self.lambda).exp();
            let mut product = rng.unit_f64();
            let mut count = 0u64;
            while product > limit {
                product *= rng.unit_f64();
                count += 1;
            }
            count
        } else {
            let x = self.lambda + self.lambda.sqrt() * Normal::standard(rng);
            x.round().max(0.0) as u64
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
    use crate::summary::OnlineStats;

    #[test]
    fn zero_lambda_is_always_zero() {
        let d = Poisson::new(0.0);
        let mut rng = SpRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(d.sample(&mut rng), 0);
        }
    }

    #[test]
    fn small_lambda_moments() {
        let d = Poisson::new(2.5);
        let mut rng = SpRng::seed_from_u64(2);
        let mut s = OnlineStats::new();
        for _ in 0..200_000 {
            s.push(d.sample(&mut rng) as f64);
        }
        assert!((s.mean() - 2.5).abs() < 0.02, "mean {}", s.mean());
        assert!((s.variance() - 2.5).abs() < 0.05, "var {}", s.variance());
    }

    #[test]
    fn large_lambda_moments() {
        let d = Poisson::new(400.0);
        let mut rng = SpRng::seed_from_u64(3);
        let mut s = OnlineStats::new();
        for _ in 0..100_000 {
            s.push(d.sample(&mut rng) as f64);
        }
        assert!((s.mean() - 400.0).abs() < 1.0, "mean {}", s.mean());
        assert!((s.std_dev() - 20.0).abs() < 0.5, "std {}", s.std_dev());
    }

    #[test]
    fn tiny_lambda_mostly_zero() {
        let d = Poisson::new(1e-4);
        let mut rng = SpRng::seed_from_u64(4);
        let nonzero = (0..100_000).filter(|_| d.sample(&mut rng) > 0).count();
        // P(X > 0) ≈ 1e-4 → about 10 in 100k.
        assert!(nonzero < 50, "nonzero {nonzero}");
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn negative_lambda_panics() {
        Poisson::new(-1.0);
    }
}
