//! The indexed event queue must be observationally identical to the
//! plain binary heap it replaced: on any interleaving of schedules and
//! pops, both queues deliver the same events in the same order, with
//! FIFO-stable ties. Cancellation (the indexed queue's reason to
//! exist) must remove exactly the cancelled event — never an event
//! that already fired, and never a recycled slot's new occupant.

#![allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]

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

#[test]
fn random_programs_pop_identically() {
    let mut rng = SpRng::seed_from_u64(0xEA5E);
    for round in 0..50 {
        let mut binary = BinaryEventQueue::new();
        let mut indexed = IndexedEventQueue::new();
        let mut tag = 0u64;
        for step in 0..400 {
            if rng.chance(0.6) || binary.is_empty() {
                // Coarse times force frequent ties; seq must break them
                // identically (insertion order).
                let time = (rng.below(20) as f64) + f64::from(round);
                let event = tagged(tag);
                tag += 1;
                binary.schedule(time, event);
                indexed.schedule(time, event);
            } else {
                assert_eq!(
                    binary.pop(),
                    indexed.pop(),
                    "divergence in round {round} at step {step}"
                );
            }
            assert_eq!(binary.len(), indexed.len());
        }
        while let Some(expected) = binary.pop() {
            assert_eq!(Some(expected), indexed.pop());
        }
        assert!(indexed.pop().is_none());
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
                        let Event::PeerLeave { peer, generation } = ev else {
                            panic!("unexpected event");
                        };
                        let t = u64::from(peer) | (u64::from(generation) << 32);
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
            let Event::PeerLeave { peer, generation } = ev else {
                panic!("unexpected event");
            };
            delivered.push(u64::from(peer) | (u64::from(generation) << 32));
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
