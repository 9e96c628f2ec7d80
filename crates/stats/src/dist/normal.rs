//! Normal (Gaussian) distribution and its discrete truncation.
//!
//! Cluster sizes in the paper are drawn as `C ~ N(c, 0.2c)` where `c`
//! is the mean number of clients per cluster (Section 4.1, Step 1).
//! Client counts must be non-negative integers, so instance generation
//! uses [`TruncatedDiscreteNormal`], which rounds and clamps at zero.

use super::Sampler;
use crate::rng::SpRng;

/// Normal distribution `N(mean, std²)` sampled via the Box–Muller
/// transform (the polar/Marsaglia variant, which avoids trig calls).
///
/// # Examples
///
/// ```
/// use sp_stats::{Normal, SpRng};
/// use sp_stats::dist::Sampler;
///
/// let d = Normal::new(10.0, 2.0);
/// let mut rng = SpRng::seed_from_u64(1);
/// let x = d.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates `N(mean, std²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite");
        assert!(std.is_finite() && std >= 0.0, "std must be finite and >= 0");
        Normal { mean, std }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one standard-normal variate (mean 0, std 1).
    ///
    /// Marsaglia polar method. The second variate of each pair is
    /// deliberately discarded: the sampler stays stateless, which keeps
    /// split RNG streams independent of call interleaving.
    pub fn standard(rng: &mut SpRng) -> f64 {
        loop {
            let u = 2.0 * rng.unit_f64() - 1.0;
            let v = 2.0 * rng.unit_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Sampler<f64> for Normal {
    fn sample(&self, rng: &mut SpRng) -> f64 {
        self.mean + self.std * Normal::standard(rng)
    }
}

/// Normal distribution rounded to the nearest integer and truncated
/// below at a floor (default 0), as used for client counts per cluster.
///
/// Sampling is by rejection: draw from the underlying normal, round,
/// and retry if the result falls below the floor. For the paper's
/// parameterization (`std = 0.2·mean`) the floor is 5σ below the mean,
/// so rejection is vanishingly rare and the sampled mean matches the
/// nominal mean to high accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedDiscreteNormal {
    inner: Normal,
    floor: u64,
}

impl TruncatedDiscreteNormal {
    /// Creates a discretized `N(mean, std²)` truncated below at `floor`.
    ///
    /// # Panics
    ///
    /// Panics if `mean < floor as f64` (the sampler would reject
    /// more than half the mass and no longer approximate the nominal
    /// mean) or on invalid normal parameters.
    pub fn new(mean: f64, std: f64, floor: u64) -> Self {
        assert!(
            mean >= floor as f64,
            "mean {mean} must be at least the floor {floor}"
        );
        TruncatedDiscreteNormal {
            inner: Normal::new(mean, std),
            floor,
        }
    }

    /// The paper's cluster-size law `N(c, 0.2c)`, truncated at zero.
    pub fn cluster_size(mean_clients: f64) -> Self {
        TruncatedDiscreteNormal::new(mean_clients.max(0.0), 0.2 * mean_clients.max(0.0), 0)
    }

    /// Nominal (untruncated) mean.
    pub fn mean(&self) -> f64 {
        self.inner.mean()
    }
}

impl Sampler<u64> for TruncatedDiscreteNormal {
    fn sample(&self, rng: &mut SpRng) -> u64 {
        // Degenerate case: zero std is a point mass.
        if self.inner.std() == 0.0 {
            return self.inner.mean().round().max(self.floor as f64) as u64;
        }
        loop {
            let x = self.inner.sample(rng).round();
            if x >= self.floor as f64 {
                return x as u64;
            }
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
    fn standard_normal_moments() {
        let mut rng = SpRng::seed_from_u64(42);
        let mut stats = OnlineStats::new();
        for _ in 0..200_000 {
            stats.push(Normal::standard(&mut rng));
        }
        assert!(stats.mean().abs() < 0.01, "mean {}", stats.mean());
        assert!(
            (stats.std_dev() - 1.0).abs() < 0.01,
            "std {}",
            stats.std_dev()
        );
    }

    #[test]
    fn scaled_normal_moments() {
        let d = Normal::new(50.0, 10.0);
        let mut rng = SpRng::seed_from_u64(7);
        let mut stats = OnlineStats::new();
        for _ in 0..100_000 {
            stats.push(d.sample(&mut rng));
        }
        assert!((stats.mean() - 50.0).abs() < 0.2);
        assert!((stats.std_dev() - 10.0).abs() < 0.2);
    }

    #[test]
    fn cluster_size_law_matches_paper_mean() {
        // N(c, .2c) truncated at 0: for c = 10 truncation is negligible
        // and the sample mean must track c.
        let d = TruncatedDiscreteNormal::cluster_size(10.0);
        let mut rng = SpRng::seed_from_u64(5);
        let mut stats = OnlineStats::new();
        for _ in 0..100_000 {
            stats.push(d.sample(&mut rng) as f64);
        }
        assert!((stats.mean() - 10.0).abs() < 0.1, "mean {}", stats.mean());
        assert!(
            (stats.std_dev() - 2.0).abs() < 0.1,
            "std {}",
            stats.std_dev()
        );
    }

    #[test]
    fn truncation_floor_respected() {
        let d = TruncatedDiscreteNormal::new(2.0, 3.0, 1);
        let mut rng = SpRng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 1);
        }
    }

    #[test]
    fn zero_std_is_point_mass() {
        let d = TruncatedDiscreteNormal::new(4.0, 0.0, 0);
        let mut rng = SpRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 4);
        }
    }

    #[test]
    fn zero_mean_cluster_size_is_all_zero_floor() {
        let d = TruncatedDiscreteNormal::cluster_size(0.0);
        let mut rng = SpRng::seed_from_u64(2);
        assert_eq!(d.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "must be at least the floor")]
    fn mean_below_floor_panics() {
        TruncatedDiscreteNormal::new(0.5, 1.0, 2);
    }

    #[test]
    #[should_panic(expected = "std must be finite")]
    fn negative_std_panics() {
        Normal::new(0.0, -1.0);
    }
}
