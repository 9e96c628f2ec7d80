//! Per-peer population attributes: shared-file counts and session
//! lifespans.
//!
//! The paper assigns each peer "a number of files and a lifespan
//! according to the distribution of files and lifespans measured by
//! [Saroiu et al.] over Gnutella" (Section 4.1, Step 1). That raw
//! measurement data is not distributable, so this module synthesizes
//! the same qualitative population (DESIGN.md §4 records the
//! substitution):
//!
//! * **File counts** — a fraction of peers are *free riders* sharing
//!   nothing (Adar & Huberman found most Gnutella users share few or no
//!   files); the rest draw from a right-skewed log-normal (median ≈ 100
//!   files, heavy tail into the tens of thousands).
//! * **Lifespans** — log-normal session lengths with mean 1080 s,
//!   chosen so that with the Table 1 query rate each user submits
//!   ~10 queries per session, the queries-to-joins ratio Appendix C
//!   quotes for Gnutella.
//!
//! The join rate of a peer is the inverse of its lifespan: "if the size
//! of the network is stable, when a node leaves the network, another
//! node is joining elsewhere" (Section 4.1, Step 3).

use sp_stats::dist::Sampler;
use sp_stats::{BoundedPareto, LogNormal, SpRng};

/// The tail model for sharing peers' file counts.
///
/// The paper's shapes should not hinge on the exact tail family of the
/// synthesized measurement data; the ablation experiments swap the
/// default log-normal for a bounded Pareto (the other family consistent
/// with the Saroiu et al. plots) and re-check the rules of thumb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FileTail {
    /// Log-normal over sharing peers, parameterized by
    /// [`PopulationModel::files_median`] / [`PopulationModel::files_sigma`].
    LogNormal,
    /// Bounded Pareto on `[1, max_files]` with shape `alpha`.
    BoundedPareto {
        /// Tail exponent (smaller = heavier).
        alpha: f64,
        /// Upper truncation (disk-size bound).
        max_files: f64,
    },
}

/// Population model: how file counts and lifespans are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationModel {
    /// Fraction of peers sharing zero files.
    pub free_rider_fraction: f64,
    /// Median file count among sharing peers (log-normal tail only).
    pub files_median: f64,
    /// Log-space sigma of the file-count law (higher = heavier tail;
    /// log-normal tail only).
    pub files_sigma: f64,
    /// Which tail family sharing peers draw from.
    pub file_tail: FileTail,
    /// Mean session lifespan, seconds.
    pub lifespan_mean_secs: f64,
    /// Log-space sigma of the lifespan law.
    pub lifespan_sigma: f64,
}

impl Default for PopulationModel {
    fn default() -> Self {
        PopulationModel {
            free_rider_fraction: 0.25,
            files_median: 100.0,
            files_sigma: 1.0,
            file_tail: FileTail::LogNormal,
            lifespan_mean_secs: 1080.0,
            lifespan_sigma: 1.0,
        }
    }
}

impl PopulationModel {
    /// Samples one peer's shared-file count.
    pub fn sample_files(&self, rng: &mut SpRng) -> u32 {
        if rng.chance(self.free_rider_fraction) {
            return 0;
        }
        let raw = match self.file_tail {
            FileTail::LogNormal => {
                LogNormal::from_median_sigma(self.files_median, self.files_sigma).sample(rng)
            }
            FileTail::BoundedPareto { alpha, max_files } => {
                BoundedPareto::new(alpha, 1.0, max_files).sample(rng)
            }
        };
        // Round and cap: no peer shares more than a million files.
        raw.round().clamp(0.0, 1e6) as u32
    }

    /// Samples one peer's session lifespan in seconds (floored at one
    /// minute — measurement studies cannot see shorter sessions, and a
    /// zero lifespan would make the join rate blow up).
    pub fn sample_lifespan(&self, rng: &mut SpRng) -> f64 {
        let d = LogNormal::from_mean_sigma(self.lifespan_mean_secs, self.lifespan_sigma);
        d.sample(rng).max(60.0)
    }

    /// Analytic mean file count per peer (free riders included).
    pub fn mean_files(&self) -> f64 {
        let sharing_mean = match self.file_tail {
            FileTail::LogNormal => {
                LogNormal::from_median_sigma(self.files_median, self.files_sigma).mean()
            }
            FileTail::BoundedPareto { alpha, max_files } => {
                BoundedPareto::new(alpha, 1.0, max_files).mean()
            }
        };
        (1.0 - self.free_rider_fraction) * sharing_mean
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]
mod tests {
    use super::*;
    use sp_stats::OnlineStats;

    #[test]
    fn defaults_give_paper_ratios() {
        let p = PopulationModel::default();
        // ~10 queries per session at the Table 1 query rate.
        let ratio = 9.26e-3 * p.lifespan_mean_secs;
        assert!((ratio - 10.0).abs() < 0.5, "queries/session = {ratio}");
        // Mean files ≈ 0.75 · 100 · e^{0.5} ≈ 124.
        assert!((p.mean_files() - 123.7).abs() < 1.0, "{}", p.mean_files());
    }

    #[test]
    fn free_riders_share_nothing() {
        let p = PopulationModel {
            free_rider_fraction: 1.0,
            ..Default::default()
        };
        let mut rng = SpRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(p.sample_files(&mut rng), 0);
        }
    }

    #[test]
    fn sampled_files_match_analytic_mean() {
        let p = PopulationModel::default();
        let mut rng = SpRng::seed_from_u64(2);
        let mut s = OnlineStats::new();
        for _ in 0..200_000 {
            s.push(p.sample_files(&mut rng) as f64);
        }
        let rel = (s.mean() - p.mean_files()).abs() / p.mean_files();
        assert!(
            rel < 0.03,
            "sample mean {} vs analytic {}",
            s.mean(),
            p.mean_files()
        );
    }

    #[test]
    fn free_rider_fraction_observed() {
        let p = PopulationModel::default();
        let mut rng = SpRng::seed_from_u64(3);
        let zeros = (0..100_000)
            .filter(|_| p.sample_files(&mut rng) == 0)
            .count();
        let frac = zeros as f64 / 100_000.0;
        // Free riders plus the (tiny) mass of log-normal draws < 0.5.
        assert!((frac - 0.25).abs() < 0.02, "zero fraction {frac}");
    }

    #[test]
    fn pareto_tail_is_sampled_and_has_matching_mean() {
        let p = PopulationModel {
            file_tail: FileTail::BoundedPareto {
                alpha: 1.2,
                max_files: 50_000.0,
            },
            ..Default::default()
        };
        let mut rng = SpRng::seed_from_u64(21);
        let mut s = OnlineStats::new();
        for _ in 0..200_000 {
            s.push(p.sample_files(&mut rng) as f64);
        }
        let rel = (s.mean() - p.mean_files()).abs() / p.mean_files();
        assert!(
            rel < 0.05,
            "sample mean {} vs analytic {}",
            s.mean(),
            p.mean_files()
        );
        // Heavy tail: the max sample is far above the mean.
        assert!(s.max() > 20.0 * s.mean());
    }

    #[test]
    fn lifespans_floored_and_skewed() {
        let p = PopulationModel::default();
        let mut rng = SpRng::seed_from_u64(4);
        let mut s = OnlineStats::new();
        for _ in 0..100_000 {
            let l = p.sample_lifespan(&mut rng);
            assert!(l >= 60.0);
            s.push(l);
        }
        let rel = (s.mean() - 1080.0).abs() / 1080.0;
        assert!(rel < 0.05, "lifespan mean {}", s.mean());
        // Median well below mean (right skew).
        assert!(s.mean() > 1.3 * 655.0);
    }
}
