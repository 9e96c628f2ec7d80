//! Property-based tests for the statistics substrate.

#![allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]

use proptest::prelude::*;
use sp_stats::dist::Sampler;
use sp_stats::{quantile, rank_curve, OnlineStats, SpRng, Zipf};

proptest! {
    /// Welford merge must agree with sequential accumulation for any
    /// split point of any data set.
    #[test]
    fn merge_matches_sequential(
        data in prop::collection::vec(-1e6f64..1e6, 1..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..split] {
            a.push(x);
        }
        for &x in &data[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs()
            <= 1e-5 * (1.0 + whole.variance().abs()));
    }

    /// The mean always lies within [min, max].
    #[test]
    fn mean_bounded_by_extremes(data in prop::collection::vec(-1e9f64..1e9, 1..100)) {
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        prop_assert!(s.mean() >= s.min() - 1e-6);
        prop_assert!(s.mean() <= s.max() + 1e-6);
    }

    /// Quantiles are monotone in q and bounded by the data range.
    #[test]
    fn quantiles_monotone(
        data in prop::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&data, lo).unwrap();
        let b = quantile(&data, hi).unwrap();
        prop_assert!(a <= b + 1e-12);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(a >= min - 1e-12 && b <= max + 1e-12);
    }

    /// rank_curve is a permutation of the input sorted descending.
    #[test]
    fn rank_curve_permutation(data in prop::collection::vec(0.0f64..1e6, 0..100)) {
        let curve = rank_curve(&data);
        prop_assert_eq!(curve.len(), data.len());
        for w in curve.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        let sum_in: f64 = data.iter().sum();
        let sum_out: f64 = curve.iter().sum();
        prop_assert!((sum_in - sum_out).abs() < 1e-6 * (1.0 + sum_in.abs()));
    }

    /// Zipf pmf always sums to 1 and sampling stays in range.
    #[test]
    fn zipf_normalized(n in 1usize..500, s in 0.0f64..3.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let total: f64 = z.masses().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let mut rng = SpRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Splitting the RNG with distinct ids yields distinct streams.
    #[test]
    fn rng_splits_distinct(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let root = SpRng::seed_from_u64(seed);
        let mut ra = root.split(a);
        let mut rb = root.split(b);
        let equal = (0..8).all(|_| ra.next_raw() == rb.next_raw());
        prop_assert!(!equal);
    }
}
