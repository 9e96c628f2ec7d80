//! [`PairSet`]: a deterministic membership set for undirected edge
//! pairs, replacing `std::collections::HashSet<(NodeId, NodeId)>` in
//! the stub-matching wirer.
//!
//! `HashSet`'s SipHash keys are randomized per process, which makes
//! its *iteration order* non-reproducible — the exact hazard class
//! rule D1 (DESIGN.md §13) bans from deterministic crates.
//! Membership-only use never observes iteration order, but a
//! fixed-function table removes the hazard by construction (no order
//! to observe, no per-process state) and is faster: open addressing
//! with a SplitMix64-style mixer and linear probing, O(1) amortized
//! insert, no hasher state, no tombstones (the wirer only ever
//! inserts).

use crate::graph::NodeId;

/// Sentinel for an empty slot. The packed key for a valid edge
/// `(a, b)` with `a < b` can never be `u64::MAX`, because that would
/// require `a == b == u32::MAX` and self-loops are rejected before
/// insertion.
const EMPTY: u64 = u64::MAX;

/// A deterministic open-addressed set of unordered `NodeId` pairs.
#[derive(Debug, Clone)]
pub struct PairSet {
    slots: Vec<u64>,
    /// Power-of-two capacity mask.
    mask: usize,
    len: usize,
}

/// SplitMix64 finalizer: a fixed, platform-independent bijective
/// mixer with full avalanche — every input bit affects every output
/// bit, so sequential node ids spread evenly over the table.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[inline]
fn pack(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ((hi as u64) << 32) | lo as u64
}

impl PairSet {
    /// Creates a set sized for `expected` pairs (load factor ≤ 0.5,
    /// so probe chains stay short even at full budget).
    pub fn with_capacity(expected: usize) -> PairSet {
        let slots = (expected.max(4) * 2).next_power_of_two();
        PairSet {
            slots: vec![EMPTY; slots],
            mask: slots - 1,
            len: 0,
        }
    }

    /// Number of pairs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts the unordered pair `(a, b)`; returns `true` when the
    /// pair was not already present (same contract as
    /// `HashSet::insert`). `a == b` must be rejected by the caller.
    pub fn insert(&mut self, a: NodeId, b: NodeId) -> bool {
        debug_assert_ne!(a, b, "self-loops are filtered before the seen-set");
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let key = pack(a, b);
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                self.slots[i] = key;
                self.len += 1;
                return true;
            }
            if slot == key {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Whether the unordered pair `(a, b)` is present.
    pub fn contains(&self, a: NodeId, b: NodeId) -> bool {
        let key = pack(a, b);
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return false;
            }
            if slot == key {
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; (self.mask + 1) * 2]);
        self.mask = self.slots.len() - 1;
        for key in old {
            if key == EMPTY {
                continue;
            }
            let mut i = (mix(key) as usize) & self.mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = key;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_symmetry() {
        let mut s = PairSet::with_capacity(4);
        assert!(s.insert(1, 2));
        assert!(!s.insert(2, 1), "unordered: (2,1) is (1,2)");
        assert!(s.contains(1, 2));
        assert!(s.contains(2, 1));
        assert!(!s.contains(1, 3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = PairSet::with_capacity(2);
        for i in 0..1000u32 {
            assert!(s.insert(i, i + 1_000_000));
        }
        assert_eq!(s.len(), 1000);
        for i in 0..1000u32 {
            assert!(s.contains(i + 1_000_000, i));
            assert!(!s.insert(i, i + 1_000_000));
        }
    }

    #[test]
    fn matches_reference_set_on_dense_pairs() {
        use std::collections::BTreeSet;
        let mut fast = PairSet::with_capacity(8);
        let mut reference: BTreeSet<(u32, u32)> = BTreeSet::new();
        // Deterministic pseudo-random pair stream (LCG).
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) as u32 % 200;
            let b = (x >> 11) as u32 % 200;
            if a == b {
                continue;
            }
            let key = if a < b { (a, b) } else { (b, a) };
            assert_eq!(fast.insert(a, b), reference.insert(key), "pair {a},{b}");
        }
        assert_eq!(fast.len(), reference.len());
    }

    #[test]
    fn extreme_node_ids_are_not_sentinel() {
        let mut s = PairSet::with_capacity(2);
        assert!(s.insert(u32::MAX - 1, u32::MAX));
        assert!(s.contains(u32::MAX, u32::MAX - 1));
        assert!(s.insert(0, u32::MAX));
        assert_eq!(s.len(), 2);
    }
}
