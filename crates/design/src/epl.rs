//! Expected-path-length prediction and TTL selection (rule #4,
//! Figure 9, Appendix F).
//!
//! When the desired reach covers only a subset of the network, the
//! right TTL "should be made globally … obtained by predicting the EPL
//! for the desired reach and average outdegree, and then rounding up."
//! Two predictors are provided:
//!
//! * the **analytic bound** `log_d(reach)` (Appendix F) — exact on a
//!   `d`-ary tree, an approximation on graphs;
//! * an **empirical table** measured on generated power-law overlays,
//!   exactly how the paper produced Figure 9.

use sp_graph::generate::{plod, PlodConfig};
use sp_graph::metrics::{epl_tree_approximation, mean_epl_for_reach};
use sp_stats::SpRng;

/// Picks the TTL for a desired EPL, per Appendix F: strictly above the
/// EPL ("setting TTL too close to the EPL will cause the actual reach
/// to be lower … some path lengths will be greater than the expected
/// path length").
///
/// The paper's example: outdegree 10, reach 500 → EPL 3.0, and TTL 3
/// under-delivers (reach ≈ 400), so TTL must be 4; while outdegree 20,
/// reach 500 → EPL 2.5 → TTL 3.
pub fn ttl_for_epl(epl: f64) -> u16 {
    (epl.floor() as u16) + 1
}

/// Convenience: recommended TTL for a desired reach (in overlay nodes)
/// on a power-law overlay with the given average outdegree, using the
/// analytic EPL bound. Falls back to TTL 1 when the whole reach is one
/// hop away.
pub fn recommended_ttl(avg_outdegree: f64, desired_reach: usize) -> u16 {
    if desired_reach == 0 {
        return 0;
    }
    if (desired_reach as f64) <= avg_outdegree {
        return 1;
    }
    match epl_tree_approximation(avg_outdegree, desired_reach as f64) {
        Some(epl) => ttl_for_epl(epl),
        None => u16::MAX, // outdegree <= 1 cannot reach geometrically
    }
}

/// An empirical EPL table over (average outdegree × desired reach), as
/// measured on generated power-law overlays — the reproduction of
/// Figure 9.
#[derive(Debug, Clone)]
pub struct EplPredictor {
    outdegrees: Vec<f64>,
    reaches: Vec<usize>,
    /// `epl[r][d]` for reach index `r`, outdegree index `d`; `NaN`
    /// where the reach was unattainable.
    epl: Vec<Vec<f64>>,
}

impl EplPredictor {
    /// Measures the table: for every (outdegree, reach) pair, generates
    /// power-law overlays with `n` nodes and averages the EPL over
    /// `samples` random sources.
    ///
    /// # Panics
    ///
    /// Panics if any list is empty or `n == 0`.
    pub fn measure(
        outdegrees: &[f64],
        reaches: &[usize],
        n: usize,
        samples: usize,
        seed: u64,
    ) -> Self {
        assert!(
            !outdegrees.is_empty() && !reaches.is_empty() && n > 0,
            "need outdegrees, reaches, and nodes"
        );
        #[allow(
            clippy::disallowed_methods,
            reason = "R1b seed root: EPL measurement owns its seed"
        )]
        let mut rng = SpRng::seed_from_u64(seed);
        let mut epl = vec![vec![f64::NAN; outdegrees.len()]; reaches.len()];
        for (di, &d) in outdegrees.iter().enumerate() {
            let g = plod(n, PlodConfig::with_mean(d.min((n - 1) as f64)), &mut rng);
            for (ri, &r) in reaches.iter().enumerate() {
                if let Some(e) = mean_epl_for_reach(&g, r, samples, &mut rng) {
                    epl[ri][di] = e;
                }
            }
        }
        EplPredictor {
            outdegrees: outdegrees.to_vec(),
            reaches: reaches.to_vec(),
            epl,
        }
    }

    /// The measured outdegree grid.
    pub fn outdegrees(&self) -> &[f64] {
        &self.outdegrees
    }

    /// The measured reach grid.
    pub fn reaches(&self) -> &[usize] {
        &self.reaches
    }

    /// Raw measured EPL for grid indices `(reach_idx, outdeg_idx)`;
    /// `None` where unattainable.
    pub fn at(&self, reach_idx: usize, outdeg_idx: usize) -> Option<f64> {
        let v = self.epl[reach_idx][outdeg_idx];
        v.is_finite().then_some(v)
    }

    /// Predicts the EPL for an arbitrary (outdegree, reach), using the
    /// nearest measured grid point; falls back to the analytic bound
    /// when the table has no finite neighbor.
    pub fn predict(&self, avg_outdegree: f64, desired_reach: usize) -> Option<f64> {
        let di = nearest_index(&self.outdegrees, avg_outdegree);
        let ri = nearest_index_usize(&self.reaches, desired_reach);
        self.at(ri, di)
            .or_else(|| epl_tree_approximation(avg_outdegree, desired_reach as f64))
    }
}

fn nearest_index(grid: &[f64], x: f64) -> usize {
    grid.iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            (x - **a)
                .abs()
                .partial_cmp(&(x - **b).abs())
                .expect("finite grid")
        })
        .map(|(i, _)| i)
        .expect("nonempty grid")
}

fn nearest_index_usize(grid: &[usize], x: usize) -> usize {
    grid.iter()
        .enumerate()
        .min_by_key(|(_, &g)| g.abs_diff(x))
        .map(|(i, _)| i)
        .expect("nonempty grid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttl_rounds_strictly_up() {
        assert_eq!(ttl_for_epl(2.5), 3);
        assert_eq!(ttl_for_epl(3.0), 4); // the Appendix F caveat
        assert_eq!(ttl_for_epl(0.2), 1);
    }

    #[test]
    fn recommended_ttl_paper_example() {
        // Figure 10 walk-through: outdegree 150, reach 150 clusters →
        // one hop.
        assert_eq!(recommended_ttl(150.0, 150), 1);
        // Outdegree 18, reach 300: log_18(300) ≈ 1.97 → TTL 2.
        assert_eq!(recommended_ttl(18.0, 300), 2);
        assert_eq!(recommended_ttl(10.0, 0), 0);
    }

    #[test]
    fn measured_table_is_monotone_in_outdegree() {
        let p = EplPredictor::measure(&[3.1, 10.0, 20.0], &[100, 500], 1000, 20, 7);
        // For a fixed reach, EPL decreases as outdegree grows (rule #3).
        for ri in 0..2 {
            let e_low = p.at(ri, 0).unwrap();
            let e_high = p.at(ri, 2).unwrap();
            assert!(
                e_high < e_low,
                "reach idx {ri}: EPL {e_low} → {e_high} did not drop"
            );
        }
        // For a fixed outdegree, EPL grows with reach.
        for di in 0..3 {
            assert!(p.at(1, di).unwrap() > p.at(0, di).unwrap());
        }
    }

    #[test]
    fn predict_uses_nearest_and_falls_back() {
        let p = EplPredictor::measure(&[10.0], &[100], 500, 10, 3);
        let near = p.predict(9.0, 120).unwrap();
        assert_eq!(near, p.at(0, 0).unwrap());
        // A predictor always answers when the analytic bound exists.
        assert!(p.predict(50.0, 400).is_some());
    }

    #[test]
    fn unattainable_reach_is_none() {
        let p = EplPredictor::measure(&[3.0], &[5000], 100, 5, 1);
        assert!(p.at(0, 0).is_none());
        // predict falls back to the analytic bound.
        assert!(p.predict(3.0, 5000).is_some());
    }

    #[test]
    #[should_panic(expected = "need outdegrees")]
    fn empty_grid_panics() {
        EplPredictor::measure(&[], &[100], 100, 5, 0);
    }
}
