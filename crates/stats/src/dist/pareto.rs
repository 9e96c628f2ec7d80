//! Bounded (truncated) Pareto distribution.
//!
//! An alternative heavy-tail model for per-peer file counts and
//! lifespans. The Saroiu et al. measurements the paper cites show
//! power-law-like tails with physical upper bounds (nobody shares more
//! files than their disk holds; no session outlives the measurement
//! window), which is exactly the bounded Pareto shape. The instance
//! builder in `sp-model` lets experiments swap [`LogNormal`] for this
//! distribution to test sensitivity of the rules of thumb to the tail
//! model.
//!
//! [`LogNormal`]: super::LogNormal

use super::Sampler;
use crate::rng::SpRng;

/// Pareto distribution with shape `alpha > 0` truncated to
/// `[low, high]`.
///
/// Density `∝ x^{-alpha-1}` on the support. Sampled by inverse CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    low: f64,
    high: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto on `[low, high]` with shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low < high` and `alpha > 0`, all finite.
    pub fn new(alpha: f64, low: f64, high: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be > 0");
        assert!(
            low.is_finite() && high.is_finite() && 0.0 < low && low < high,
            "need 0 < low < high"
        );
        BoundedPareto { alpha, low, high }
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Lower bound of the support.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper bound of the support.
    pub fn high(&self) -> f64 {
        self.high
    }

    /// Analytic mean of the truncated distribution.
    pub fn mean(&self) -> f64 {
        let (a, l, h) = (self.alpha, self.low, self.high);
        if (a - 1.0).abs() < 1e-12 {
            // α = 1 limit: mean = ln(h/l) · l·h / (h − l).
            (h / l).ln() * l * h / (h - l)
        } else {
            let la = l.powf(a);
            let num = la / (1.0 - (l / h).powf(a)) * a / (a - 1.0);
            num * (l.powf(1.0 - a) - h.powf(1.0 - a))
        }
    }
}

impl Sampler<f64> for BoundedPareto {
    fn sample(&self, rng: &mut SpRng) -> f64 {
        // Inverse CDF of the bounded Pareto:
        // x = (l^-a - u (l^-a - h^-a))^(-1/a)
        let u = rng.unit_f64();
        let la = self.low.powf(-self.alpha);
        let ha = self.high.powf(-self.alpha);
        (la - u * (la - ha)).powf(-1.0 / self.alpha)
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
    fn samples_within_bounds() {
        let d = BoundedPareto::new(1.1, 10.0, 10_000.0);
        let mut rng = SpRng::seed_from_u64(6);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((10.0..=10_000.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn sample_mean_matches_analytic() {
        let d = BoundedPareto::new(1.5, 1.0, 1000.0);
        let mut rng = SpRng::seed_from_u64(13);
        let mut stats = OnlineStats::new();
        for _ in 0..400_000 {
            stats.push(d.sample(&mut rng));
        }
        let rel = (stats.mean() - d.mean()).abs() / d.mean();
        assert!(
            rel < 0.03,
            "sample mean {} vs analytic {}",
            stats.mean(),
            d.mean()
        );
    }

    #[test]
    fn alpha_one_mean_limit() {
        let d = BoundedPareto::new(1.0, 1.0, std::f64::consts::E);
        // mean = ln(e/1)·1·e/(e−1) = e/(e−1)
        let expect = std::f64::consts::E / (std::f64::consts::E - 1.0);
        assert!((d.mean() - expect).abs() < 1e-9);
    }

    #[test]
    fn heavier_tail_for_smaller_alpha() {
        let light = BoundedPareto::new(3.0, 1.0, 1e6);
        let heavy = BoundedPareto::new(1.05, 1.0, 1e6);
        assert!(heavy.mean() > light.mean());
    }

    #[test]
    #[should_panic(expected = "0 < low < high")]
    fn inverted_bounds_panic() {
        BoundedPareto::new(1.0, 10.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be > 0")]
    fn zero_alpha_panics() {
        BoundedPareto::new(0.0, 1.0, 2.0);
    }
}
