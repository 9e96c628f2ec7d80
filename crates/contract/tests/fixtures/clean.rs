//! The compliant idiom for each rule, with no lint attribute: none of
//! it may draw a lint.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::RecvError;
use std::time::Duration;

use sp_stats::SpRng;

/// D1: ordered containers, so drains feeding metrics are reproducible.
pub fn build_index(keys: &[u32]) -> BTreeMap<u32, usize> {
    let mut index = BTreeMap::new();
    let mut seen = BTreeSet::new();
    for (i, &k) in keys.iter().enumerate() {
        if seen.insert(k) {
            index.insert(k, i);
        }
    }
    index
}

/// D2: durations arrive as parameters, measured by sp_sim::metrics or
/// a caller on the allowlist.
pub fn budget_exhausted(spent: Duration, budget: Duration) -> bool {
    spent >= budget
}

/// D3, R1a, R1b: every stream splits from a parent the caller owns.
pub fn peer_stream(parent: &SpRng, peer: u64) -> SpRng {
    parent.split(0x5eed_0000 ^ peer)
}

/// S1: a SAFETY comment directly above the block.
pub fn read_first(v: &[u8]) -> u8 {
    assert!(!v.is_empty());
    // SAFETY: the assert above guarantees index 0 is in bounds.
    unsafe { *v.get_unchecked(0) }
}

pub struct Token(pub *const u8);

// SAFETY: the pointer is never dereferenced; Token is an opaque id, so
// moving it across threads cannot race.
unsafe impl Send for Token {}

/// S2: fallible paths propagate instead of panicking.
pub fn first(v: &[u32]) -> Result<u32, String> {
    v.first().copied().ok_or_else(|| "empty slice".to_string())
}

/// S2: a default is not a panic path.
pub fn first_or_zero(v: &[u32]) -> u32 {
    v.first().copied().unwrap_or(0)
}

/// F1: reduce each shard in order, then fold shard results in shard
/// order.
pub fn sharded_sum(shards: &[Vec<f64>]) -> f64 {
    shards.iter().map(|s| s.iter().sum::<f64>()).sum()
}

/// F2: each worker owns its tally; results come back through the
/// scoped join and fold in shard order.
pub fn delivered(shards: &[Vec<u64>]) -> std::thread::Result<u64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|s| scope.spawn(move || s.iter().sum::<u64>()))
            .collect();
        handles.into_iter().map(|h| h.join()).sum()
    })
}

/// F3: a channel error becomes a failure that names the dead link.
pub struct LinkDown {
    pub shard: usize,
}

pub fn supervised(received: Result<u64, RecvError>, shard: usize) -> Result<u64, LinkDown> {
    received.map_err(|_| LinkDown { shard })
}

/// P1: formatting into a String is computation, not I/O.
pub fn summarize(hits: u64, total: u64) -> String {
    let rate = hits as f64 / total.max(1) as f64;
    format!("{hits}/{total} ({rate:.3})")
}
