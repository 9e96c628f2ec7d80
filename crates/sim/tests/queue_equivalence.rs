//! The indexed event queue must be observationally identical to the
//! plain binary heap it replaced, with cancellation modelled as the
//! reference engine does it: a cancelled event stays in the binary heap
//! as a tombstone and is dropped when its time comes up. On any
//! interleaving of schedules, cancels and pops, both deliver the same
//! events in the same order at bitwise-equal times, with FIFO-stable
//! ties. Cancellation (the indexed queue's reason to exist) must remove
//! exactly the cancelled event — never an event that already fired,
//! never a recycled slot's new occupant, and never anything for a
//! handle the queue did not issue.

#![allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]

use std::collections::BTreeSet;

use sp_sim::events::{BinaryEventQueue, Event, EventHandle, IndexedEventQueue, PeerId};
use sp_stats::SpRng;

/// A distinguishable event: tag each scheduled event through the
/// `PeerLeave` payload so pops can be compared event-for-event.
fn tagged(tag: u64) -> Event {
    Event::PeerLeave {
        peer: tag as PeerId,
        generation: (tag >> 32) as u32,
    }
}

/// The tag [`tagged`] put into `event`.
fn tag_of(event: Event) -> u64 {
    let Event::PeerLeave { peer, generation } = event else {
        panic!("unexpected event {event:?}");
    };
    u64::from(peer) | (u64::from(generation) << 32)
}

/// The cancellable queue's model: a binary heap that cannot cancel,
/// plus the tags of cancelled events still inside it as tombstones.
#[derive(Default)]
struct TombstoneQueue {
    heap: BinaryEventQueue,
    dead: BTreeSet<u64>,
}

impl TombstoneQueue {
    /// The earliest live event, its time as bits so that `-0.0` and
    /// `+0.0` stay apart; tombstones that come up first are dropped.
    fn pop(&mut self) -> Option<(u64, Event)> {
        loop {
            let (time, event) = self.heap.pop()?;
            if !self.dead.remove(&tag_of(event)) {
                return Some((time.to_bits(), event));
            }
        }
    }

    fn len(&self) -> usize {
        self.heap.len() - self.dead.len()
    }
}

/// A time from a pool rich in edge cases: coarse values that tie
/// often, both zeros, subnormals, and values at and near the ends of
/// the finite range and beyond it.
fn edge_time(rng: &mut SpRng, round: u32) -> f64 {
    let largest_subnormal = f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1);
    let below_max = f64::from_bits(f64::MAX.to_bits() - 1);
    let edges = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(2),
        largest_subnormal,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        below_max,
        -f64::MAX,
        -below_max,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.5,
    ];
    if rng.chance(0.3) {
        edges[rng.index(edges.len())]
    } else {
        (rng.below(20) as f64) + f64::from(round)
    }
}

/// Handles minted by another queue: every (slot, generation) pair for
/// the first 8 slots and generations, a generation past any a slot
/// reaches in `steps` schedules, a slab index past every slot such a
/// queue grows, and the null handle. Against a queue under test, one
/// may equal a handle it issued; any other was never issued there.
fn decoy_handles(steps: usize) -> Vec<EventHandle> {
    let mut decoy = IndexedEventQueue::new();
    let mut handles = vec![EventHandle::NULL];
    for _ in 0..8 {
        handles.extend((0..8).map(|i| decoy.schedule(f64::from(i), Event::Sample)));
        while decoy.pop().is_some() {}
    }
    for _ in 8..=steps {
        decoy.schedule(0.0, Event::Sample);
        decoy.pop();
    }
    // A slot released `steps + 1` times. The next `steps` schedules
    // refill the 7 other slots and then take fresh ones up to index
    // `steps`.
    handles.push(decoy.schedule(0.0, Event::Sample));
    for _ in 1..steps {
        decoy.schedule(0.0, Event::Sample);
    }
    handles.push(decoy.schedule(0.0, Event::Sample));
    handles
}

#[test]
fn random_programs_pop_identically() {
    const STEPS: usize = 400;
    let decoys = decoy_handles(STEPS);
    let mut rng = SpRng::seed_from_u64(0xEA5E);
    for round in 0..50 {
        let mut model = TombstoneQueue::default();
        let mut indexed = IndexedEventQueue::new();
        let mut live: Vec<(u64, EventHandle)> = Vec::new();
        let mut spent: Vec<EventHandle> = Vec::new();
        let mut tag = 0u64;
        for step in 0..STEPS {
            match rng.below(20) {
                0..=9 => {
                    let time = edge_time(&mut rng, round);
                    let handle = indexed.schedule(time, tagged(tag));
                    model.heap.schedule(time, tagged(tag));
                    live.push((tag, handle));
                    tag += 1;
                }
                10..=12 if !live.is_empty() => {
                    let (dead, handle) = live.swap_remove(rng.index(live.len()));
                    assert!(indexed.cancel(handle), "live handle must cancel");
                    model.dead.insert(dead);
                    spent.push(handle);
                }
                13 | 14 if !spent.is_empty() => {
                    let handle = spent[rng.index(spent.len())];
                    assert!(!indexed.cancel(handle), "spent handle cancelled");
                }
                15 | 16 => {
                    let handle = decoys[rng.index(decoys.len())];
                    match live.iter().position(|&(_, h)| h == handle) {
                        Some(at) => {
                            assert!(indexed.cancel(handle), "live handle must cancel");
                            model.dead.insert(live.swap_remove(at).0);
                            spent.push(handle);
                        }
                        None => assert!(!indexed.cancel(handle), "unissued handle cancelled"),
                    }
                }
                _ => {
                    let peeked = indexed.peek_time().map(f64::to_bits);
                    let popped = indexed.pop().map(|(t, e)| (t.to_bits(), e));
                    let expected = model.pop();
                    assert_eq!(
                        expected, popped,
                        "divergence in round {round} at step {step}"
                    );
                    assert_eq!(peeked, popped.map(|(t, _)| t), "peek disagrees with pop");
                    if let Some((_, event)) = popped {
                        let at = live.iter().position(|&(t, _)| t == tag_of(event));
                        spent.push(live.swap_remove(at.unwrap()).1);
                    }
                }
            }
            assert_eq!(model.len(), indexed.len());
        }
        while let Some(expected) = model.pop() {
            assert_eq!(Some(expected), indexed.pop().map(|(t, e)| (t.to_bits(), e)));
        }
        assert!(indexed.pop().is_none());
        for handle in spent.into_iter().chain(live.into_iter().map(|(_, h)| h)) {
            assert!(!indexed.cancel(handle), "handle outlived its event");
        }
    }
}

#[test]
fn ties_pop_in_fifo_order_across_interleaved_pops() {
    let mut binary = BinaryEventQueue::new();
    let mut indexed = IndexedEventQueue::new();
    for tag in 0..8 {
        binary.schedule(1.0, tagged(tag));
        indexed.schedule(1.0, tagged(tag));
    }
    // Draining half, then scheduling more ties at the same timestamp,
    // must preserve overall insertion order.
    for expected in 0..4 {
        assert_eq!(binary.pop(), Some((1.0, tagged(expected))));
        assert_eq!(indexed.pop(), Some((1.0, tagged(expected))));
    }
    for tag in 8..12 {
        binary.schedule(1.0, tagged(tag));
        indexed.schedule(1.0, tagged(tag));
    }
    for expected in 4..12 {
        assert_eq!(binary.pop(), Some((1.0, tagged(expected))));
        assert_eq!(indexed.pop(), Some((1.0, tagged(expected))));
    }
}

#[test]
fn cancel_then_fire_never_double_delivers() {
    let mut rng = SpRng::seed_from_u64(0xD0D0);
    for _ in 0..50 {
        let mut q = IndexedEventQueue::new();
        let mut live: Vec<(u64, EventHandle)> = Vec::new();
        let mut cancelled: Vec<u64> = Vec::new();
        let mut delivered: Vec<u64> = Vec::new();
        let mut stale: Vec<EventHandle> = Vec::new();
        let mut tag = 0u64;
        for _ in 0..300 {
            match rng.below(4) {
                0 | 1 => {
                    let h = q.schedule(rng.below(50) as f64, tagged(tag));
                    live.push((tag, h));
                    tag += 1;
                }
                2 if !live.is_empty() => {
                    let (t, h) = live.swap_remove(rng.index(live.len()));
                    assert!(q.cancel(h), "live handle must cancel");
                    cancelled.push(t);
                    stale.push(h);
                }
                _ => {
                    if let Some((_, ev)) = q.pop() {
                        let t = tag_of(ev);
                        live.retain(|&(lt, _)| lt != t);
                        delivered.push(t);
                    }
                }
            }
            // Stale handles (already cancelled, slot possibly recycled)
            // must stay inert forever.
            for &h in &stale {
                assert!(!q.cancel(h), "stale handle cancelled a recycled slot");
            }
        }
        while let Some((_, ev)) = q.pop() {
            delivered.push(tag_of(ev));
        }
        // Every scheduled tag was either delivered once or cancelled
        // once — never both, never twice.
        let mut seen = vec![0u8; tag as usize];
        for &t in &delivered {
            seen[t as usize] += 1;
        }
        for &t in &cancelled {
            assert_eq!(seen[t as usize], 0, "tag {t} cancelled AND delivered");
            seen[t as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "some tag lost or duplicated");
    }
}
