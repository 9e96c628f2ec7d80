//! Log-normal distribution.
//!
//! Used as the synthetic stand-in for the Saroiu et al. Gnutella
//! measurement data the paper assigns to each peer (Section 4.1,
//! Step 1): the number of shared files and the session lifespan. Both
//! quantities are strongly right-skewed in the measurements — a few
//! peers share tens of thousands of files and stay connected for days,
//! while the median peer shares ~100 files for tens of minutes — and a
//! log-normal reproduces that skew with two interpretable parameters.

use super::{Normal, Sampler};
use crate::rng::SpRng;

/// Log-normal distribution: `exp(N(mu, sigma²))`.
///
/// `mu`/`sigma` are the *log-space* parameters. Construct from the more
/// intuitive median/mean via [`LogNormal::from_median_sigma`] or
/// [`LogNormal::from_mean_sigma`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates from log-space parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "mu must be finite");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and >= 0"
        );
        LogNormal { mu, sigma }
    }

    /// Creates from the distribution median (`exp(mu)`) and log-space
    /// sigma. The median is what measurement papers usually report.
    ///
    /// # Panics
    ///
    /// Panics if `median <= 0`.
    pub fn from_median_sigma(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// Creates from the distribution *mean* and log-space sigma, using
    /// `E[X] = exp(mu + sigma²/2)`.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`.
    pub fn from_mean_sigma(mean: f64, sigma: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        LogNormal::new(mean.ln() - sigma * sigma / 2.0, sigma)
    }

    /// Analytic mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Analytic median `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Analytic variance.
    pub fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
}

impl Sampler<f64> for LogNormal {
    fn sample(&self, rng: &mut SpRng) -> f64 {
        (self.mu + self.sigma * Normal::standard(rng)).exp()
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
    fn mean_matches_analytic() {
        let d = LogNormal::from_mean_sigma(1080.0, 1.2);
        assert!((d.mean() - 1080.0).abs() < 1e-9);
        let mut rng = SpRng::seed_from_u64(10);
        let mut stats = OnlineStats::new();
        for _ in 0..400_000 {
            stats.push(d.sample(&mut rng));
        }
        let rel = (stats.mean() - 1080.0).abs() / 1080.0;
        assert!(rel < 0.02, "sample mean {} off by {rel}", stats.mean());
    }

    #[test]
    fn median_matches_analytic() {
        let d = LogNormal::from_median_sigma(100.0, 1.5);
        assert!((d.median() - 100.0).abs() < 1e-9);
        let mut rng = SpRng::seed_from_u64(3);
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = samples[50_000];
        assert!((med - 100.0).abs() / 100.0 < 0.05, "sample median {med}");
    }

    #[test]
    fn samples_are_positive_and_skewed() {
        let d = LogNormal::from_median_sigma(100.0, 1.5);
        let mut rng = SpRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // Right skew: mean well above median.
        assert!(mean > 150.0, "mean {mean} not skewed above median 100");
    }

    #[test]
    fn variance_formula() {
        let d = LogNormal::new(0.0, 0.5);
        let s2: f64 = 0.25;
        let expect = (s2.exp() - 1.0) * s2.exp();
        assert!((d.variance() - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_sigma_is_point_mass() {
        let d = LogNormal::from_median_sigma(42.0, 0.0);
        let mut rng = SpRng::seed_from_u64(5);
        for _ in 0..10 {
            assert!((d.sample(&mut rng) - 42.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "median must be positive")]
    fn nonpositive_median_panics() {
        LogNormal::from_median_sigma(0.0, 1.0);
    }
}
