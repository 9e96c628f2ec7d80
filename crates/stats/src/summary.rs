//! Streaming summary statistics and confidence intervals.
//!
//! Step 4 of the paper's methodology runs the analysis "over several
//! instances of a configuration", averages, and reports 95% confidence
//! intervals for `E[value | instance]`. [`OnlineStats`] accumulates
//! moments in one pass (Welford's algorithm, numerically stable), and
//! [`ConfidenceInterval`] turns them into the Student-t intervals drawn
//! as the vertical bars in every figure.

/// One-pass mean/variance accumulator (Welford), with min/max tracking
/// and O(1) merge for parallel trial reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulates one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan et al. pairwise
    /// update). The result is identical (up to floating-point
    /// reassociation) to pushing both observation streams into one
    /// accumulator.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The raw accumulator words `(count, mean, m2, min, max)`, for
    /// checkpointing. Together with [`OnlineStats::from_state`] this
    /// lets a snapshot capture the exact accumulator so a restored run
    /// folds further observations into bitwise-identical moments.
    pub fn state(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from words captured by
    /// [`OnlineStats::state`].
    pub fn from_state(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// 95% Student-t confidence interval for the mean.
    pub fn ci95(&self) -> ConfidenceInterval {
        ConfidenceInterval::from_stats(self)
    }
}

/// Two-sided 95% Student-t critical values for small degrees of
/// freedom; beyond 30 df the normal 1.96 is within 2.5%.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Two-sided 95% t critical value for `df` degrees of freedom.
pub fn t_critical_95(df: u64) -> f64 {
    match df {
        0 => f64::INFINITY,
        d if d as usize <= T95.len() => T95[d as usize - 1],
        _ => 1.96,
    }
}

/// A mean with its symmetric 95% confidence half-width, as reported in
/// every figure of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Half-width of the two-sided 95% interval.
    pub half_width: f64,
    /// Number of observations behind the estimate.
    pub count: u64,
}

impl ConfidenceInterval {
    /// Builds the interval from an accumulator.
    pub fn from_stats(stats: &OnlineStats) -> Self {
        let half_width = if stats.count() < 2 {
            0.0
        } else {
            t_critical_95(stats.count() - 1) * stats.std_err()
        };
        ConfidenceInterval {
            mean: stats.mean(),
            half_width,
            count: stats.count(),
        }
    }

    /// Lower bound of the interval.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.low() && x <= self.high()
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4e} ± {:.2e}", self.mean, self.half_width)
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
    fn empty_stats_are_neutral() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_err(), 0.0);
    }

    #[test]
    fn known_small_sample() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance 4.0 → sample variance 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..300] {
            a.push(x);
        }
        for &x in &data[300..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-8);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn state_round_trip_is_bitwise() {
        let mut s = OnlineStats::new();
        for x in [2.5, -1.0, 7.75, 0.0, 1e9] {
            s.push(x);
        }
        let (count, mean, m2, min, max) = s.state();
        let mut r = OnlineStats::from_state(count, mean, m2, min, max);
        assert_eq!(r, s);
        r.push(3.25);
        s.push(3.25);
        assert_eq!(r.mean().to_bits(), s.mean().to_bits());
        assert_eq!(r.variance().to_bits(), s.variance().to_bits());
    }

    #[test]
    fn t_table_sane() {
        assert!(t_critical_95(1) > 12.0);
        assert!((t_critical_95(10) - 2.228).abs() < 1e-9);
        assert_eq!(t_critical_95(1000), 1.96);
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    fn ci_covers_true_mean_usually() {
        use crate::rng::SpRng;
        // 200 repetitions of a 20-sample CI for N(0,1); coverage should
        // be near 95%.
        let mut rng = SpRng::seed_from_u64(77);
        let mut covered = 0;
        for _ in 0..200 {
            let mut s = OnlineStats::new();
            for _ in 0..20 {
                s.push(crate::dist::Normal::standard(&mut rng));
            }
            if s.ci95().contains(0.0) {
                covered += 1;
            }
        }
        assert!(
            (170..=200).contains(&covered),
            "coverage {covered}/200 out of plausible range"
        );
    }

    #[test]
    fn ci_width_shrinks_with_samples() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        for i in 0..10 {
            small.push((i % 3) as f64);
        }
        for i in 0..1000 {
            large.push((i % 3) as f64);
        }
        assert!(large.ci95().half_width < small.ci95().half_width);
    }

    #[test]
    fn ci_display_formats() {
        let ci = ConfidenceInterval {
            mean: 1234.5,
            half_width: 10.0,
            count: 30,
        };
        let s = ci.to_string();
        assert!(s.contains('±'), "display: {s}");
    }
}
