//! Per-key grouped statistics.
//!
//! Figures 7 and 8 of the paper are *histograms over outdegree*: for
//! each number of neighbors, they plot the mean load / mean number of
//! results of all super-peers with that outdegree, with one-standard-
//! deviation bars. [`GroupedStats`] accumulates exactly that.

use std::collections::BTreeMap;

use crate::summary::OnlineStats;

/// Streaming statistics grouped by an integer key (e.g. outdegree).
///
/// Backed by a `BTreeMap` so iteration is sorted by key, matching how
/// the paper's histogram figures order their x axis.
///
/// # Examples
///
/// ```
/// use sp_stats::GroupedStats;
///
/// let mut g = GroupedStats::new();
/// g.push(3, 10.0);  // a super-peer with 3 neighbors, load 10
/// g.push(3, 14.0);
/// g.push(7, 99.0);
/// assert_eq!(g.get(3).unwrap().mean(), 12.0);
/// assert_eq!(g.keys().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupedStats {
    groups: BTreeMap<u64, OnlineStats>,
}

impl GroupedStats {
    /// Creates an empty grouping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records observation `x` under `key`.
    pub fn push(&mut self, key: u64, x: f64) {
        self.groups.entry(key).or_default().push(x);
    }

    /// Statistics for `key`, if any observation was recorded.
    pub fn get(&self, key: u64) -> Option<&OnlineStats> {
        self.groups.get(&key)
    }

    /// Sorted iterator over keys.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.groups.keys().copied()
    }

    /// Sorted iterator over `(key, stats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &OnlineStats)> + '_ {
        self.groups.iter().map(|(&k, s)| (k, s))
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Merges another grouping into this one.
    pub fn merge(&mut self, other: &GroupedStats) {
        for (&k, s) in &other.groups {
            self.groups.entry(k).or_default().merge(s);
        }
    }

    /// Grand statistics over all observations regardless of key.
    pub fn overall(&self) -> OnlineStats {
        let mut all = OnlineStats::new();
        for s in self.groups.values() {
            all.merge(s);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_stats_by_key() {
        let mut g = GroupedStats::new();
        g.push(2, 1.0);
        g.push(2, 3.0);
        g.push(5, 10.0);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(2).unwrap().mean(), 2.0);
        assert_eq!(g.get(5).unwrap().count(), 1);
        assert!(g.get(3).is_none());
    }

    #[test]
    fn grouped_merge_and_overall() {
        let mut a = GroupedStats::new();
        a.push(1, 1.0);
        a.push(2, 2.0);
        let mut b = GroupedStats::new();
        b.push(2, 4.0);
        b.push(3, 9.0);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(2).unwrap().count(), 2);
        assert_eq!(a.get(2).unwrap().mean(), 3.0);
        let overall = a.overall();
        assert_eq!(overall.count(), 4);
        assert!((overall.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn grouped_iteration_is_sorted() {
        let mut g = GroupedStats::new();
        for k in [9u64, 1, 5, 3] {
            g.push(k, 0.0);
        }
        let keys: Vec<u64> = g.keys().collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }
}
