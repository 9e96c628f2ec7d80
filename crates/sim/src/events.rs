//! Event queues: time-ordered heaps with stable FIFO tie-breaking.
//!
//! Two implementations share one ordering contract (earliest time
//! first, ties broken by schedule order):
//!
//! * [`BinaryEventQueue`] — the original `std::collections::BinaryHeap`
//!   wrapper. It cannot cancel: events for peers that have since left
//!   stay in the heap as *tombstones* until their time comes up, and
//!   are dropped at dispatch by a generation check. Kept as the
//!   baseline for the [`reference`](crate::reference) engine and the
//!   queue-equivalence tests.
//! * [`IndexedEventQueue`] — an indexed binary heap over a slab of
//!   event entries. [`schedule`](IndexedEventQueue::schedule) returns
//!   an [`EventHandle`] that can later
//!   [`cancel`](IndexedEventQueue::cancel) the event in O(log n), so
//!   churn removes a departed peer's pending events instead of leaving
//!   tombstones. Handles are generation-guarded: cancelling an event
//!   that already fired (or whose slab slot was reused) is a safe
//!   no-op, never a double-delivery or a misfire. The heap holds each
//!   event's time beside its slab index as an integer key ordered like
//!   `f64::total_cmp`, so sifting compares integers and visits the
//!   slab only when two times are exactly equal.
//!
//! Both queues pop in exactly the same order for the same schedule
//! sequence (enforced by `tests/queue_equivalence.rs`), which is what
//! lets the fast engine reproduce the reference engine bit for bit.
//!
//! Events reference peers and clusters by slot id plus a *generation*
//! counter; slots are reused after churn, so a handler first checks the
//! generation and silently drops stale events (e.g. a query scheduled
//! for a peer that has since left).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sp_model::snapshot::{SnapReader, SnapWriter, SnapshotError};

/// Simulated time, in seconds.
pub type SimTime = f64;

/// Peer slot id.
pub type PeerId = u32;

/// Cluster slot id.
pub type ClusterId = u32;

/// Everything that can happen in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A brand-new peer arrives (attributes sampled at handling time).
    PeerJoin,
    /// A peer's session ends.
    PeerLeave {
        /// The departing peer.
        peer: PeerId,
        /// Generation guard.
        generation: u32,
    },
    /// A peer submits a query.
    Query {
        /// The querying peer.
        peer: PeerId,
        /// Generation guard.
        generation: u32,
    },
    /// A peer updates its collection.
    Update {
        /// The updating peer.
        peer: PeerId,
        /// Generation guard.
        generation: u32,
    },
    /// An orphaned client retries connecting to the network.
    ClientRejoin {
        /// The orphaned peer.
        peer: PeerId,
        /// Generation guard.
        generation: u32,
        /// When the client lost its super-peer (for downtime
        /// accounting).
        orphaned_at: SimTime,
        /// Connection-protocol attempts already made. When a fault
        /// plan's retry policy caps rejoin attempts, exceeding the cap
        /// makes the client give up for good.
        attempt: u32,
    },
    /// A cluster that lost a partner tries to recruit a replacement
    /// from its clients.
    RecruitPartner {
        /// The recruiting cluster.
        cluster: ClusterId,
        /// Generation guard.
        generation: u32,
    },
    /// A super-peer evaluates the Section 5.3 local rules.
    AdaptTick {
        /// The adapting cluster.
        cluster: ClusterId,
        /// Generation guard.
        generation: u32,
    },
    /// A headless cluster (every partner killed by fault injection)
    /// runs the repair election: its clients elect a replacement
    /// super-peer which inherits the overlay links and re-indexes the
    /// adopted clients. Only scheduled when the run's
    /// [`RepairPolicy`](sp_model::repair::RepairPolicy) promotes.
    Repair {
        /// The headless cluster awaiting repair.
        cluster: ClusterId,
        /// Generation guard.
        generation: u32,
    },
    /// Periodic metrics sampling.
    Sample,
    /// A fault-plan entry takes effect (`start: true`) or a windowed
    /// fault expires (`start: false`). `index` addresses the plan's
    /// fault list; fault events carry no generation guard because the
    /// plan outlives every peer.
    Fault {
        /// Index into the run's `FaultPlan::faults`.
        index: u32,
        /// Window start (or instantaneous injection) vs. window end.
        start: bool,
    },
    /// A scenario phase opens (`start: true`) or closes
    /// (`start: false`). `index` addresses the scenario plan's phase
    /// list; like fault events, phase events carry no generation guard
    /// because the plan outlives every peer.
    Phase {
        /// Index into the run's `ScenarioPlan::phases`.
        index: u32,
        /// Window start vs. window end.
        start: bool,
    },
}

impl Event {
    /// Writes this event into a snapshot payload (tag byte + fields).
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        match *self {
            Event::PeerJoin => w.u8(0),
            Event::PeerLeave { peer, generation } => {
                w.u8(1);
                w.u32(peer);
                w.u32(generation);
            }
            Event::Query { peer, generation } => {
                w.u8(2);
                w.u32(peer);
                w.u32(generation);
            }
            Event::Update { peer, generation } => {
                w.u8(3);
                w.u32(peer);
                w.u32(generation);
            }
            Event::ClientRejoin {
                peer,
                generation,
                orphaned_at,
                attempt,
            } => {
                w.u8(4);
                w.u32(peer);
                w.u32(generation);
                w.f64(orphaned_at);
                w.u32(attempt);
            }
            Event::RecruitPartner {
                cluster,
                generation,
            } => {
                w.u8(5);
                w.u32(cluster);
                w.u32(generation);
            }
            Event::AdaptTick {
                cluster,
                generation,
            } => {
                w.u8(6);
                w.u32(cluster);
                w.u32(generation);
            }
            Event::Repair {
                cluster,
                generation,
            } => {
                w.u8(7);
                w.u32(cluster);
                w.u32(generation);
            }
            Event::Sample => w.u8(8),
            Event::Fault { index, start } => {
                w.u8(9);
                w.u32(index);
                w.bool(start);
            }
            Event::Phase { index, start } => {
                w.u8(10);
                w.u32(index);
                w.bool(start);
            }
        }
    }

    /// Reads one event written by [`Event::snap`].
    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<Event, SnapshotError> {
        Ok(match r.u8("event tag")? {
            0 => Event::PeerJoin,
            1 => Event::PeerLeave {
                peer: r.u32("event peer")?,
                generation: r.u32("event generation")?,
            },
            2 => Event::Query {
                peer: r.u32("event peer")?,
                generation: r.u32("event generation")?,
            },
            3 => Event::Update {
                peer: r.u32("event peer")?,
                generation: r.u32("event generation")?,
            },
            4 => Event::ClientRejoin {
                peer: r.u32("event peer")?,
                generation: r.u32("event generation")?,
                orphaned_at: r.f64("event orphaned_at")?,
                attempt: r.u32("event attempt")?,
            },
            5 => Event::RecruitPartner {
                cluster: r.u32("event cluster")?,
                generation: r.u32("event generation")?,
            },
            6 => Event::AdaptTick {
                cluster: r.u32("event cluster")?,
                generation: r.u32("event generation")?,
            },
            7 => Event::Repair {
                cluster: r.u32("event cluster")?,
                generation: r.u32("event generation")?,
            },
            8 => Event::Sample,
            9 => Event::Fault {
                index: r.u32("event index")?,
                start: r.bool("event start")?,
            },
            10 => Event::Phase {
                index: r.u32("event index")?,
                start: r.bool("event start")?,
            },
            tag => return Err(SnapshotError::Malformed(format!("unknown event tag {tag}"))),
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the
        // earliest event first; ties break FIFO by sequence number.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Time-ordered event queue without cancellation (the original
/// implementation; see the module docs for the trade-off).
#[derive(Debug, Default)]
pub struct BinaryEventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl BinaryEventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        assert!(!time.is_nan(), "cannot schedule at NaN");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Writes the queue into a snapshot payload. The heap's internal
    /// `Vec` order is implementation-defined but pop order is totally
    /// ordered by `(time, seq)`, so rebuilding by re-pushing the
    /// serialized triples reproduces the exact pop sequence.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.len(self.heap.len());
        for s in self.heap.iter() {
            w.f64(s.time);
            w.u64(s.seq);
            s.event.snap(w);
        }
        w.u64(self.seq);
    }

    /// Reads a queue written by [`BinaryEventQueue::snap`].
    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len("binary queue len")?;
        let mut heap = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            let time = r.f64("scheduled time")?;
            let seq = r.u64("scheduled seq")?;
            let event = Event::unsnap(r)?;
            heap.push(Scheduled { time, seq, event });
        }
        let seq = r.u64("binary queue seq")?;
        Ok(BinaryEventQueue { heap, seq })
    }
}

/// Handle to a scheduled event in an [`IndexedEventQueue`].
///
/// Generation-guarded: once the event fires or is cancelled, the
/// handle goes stale and further [`cancel`](IndexedEventQueue::cancel)
/// calls through it are no-ops — even if the underlying slab slot has
/// been reused for a different event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    idx: u32,
    generation: u32,
}

impl EventHandle {
    /// The null handle: cancels to a no-op, compares unequal to any
    /// live handle. Slot maps start out full of these.
    pub const NULL: EventHandle = EventHandle {
        idx: u32::MAX,
        generation: 0,
    };

    /// Whether this is the null handle.
    pub fn is_null(&self) -> bool {
        self.idx == u32::MAX
    }

    /// Writes the handle into a snapshot payload.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.u32(self.idx);
        w.u32(self.generation);
    }

    /// Reads a handle written by [`EventHandle::snap`].
    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(EventHandle {
            idx: r.u32("handle idx")?,
            generation: r.u32("handle generation")?,
        })
    }
}

impl Default for EventHandle {
    fn default() -> Self {
        EventHandle::NULL
    }
}

/// One slab entry. `pos == FREE` marks a vacant slot awaiting reuse.
/// A pending event's time is not here: it sits, as a [`time_key`], in
/// `IndexedEventQueue::keys` at heap position `pos`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    seq: u64,
    event: Event,
    generation: u32,
    pos: u32,
}

const FREE: u32 = u32::MAX;

/// The sign bit of an `f64`'s bits.
const SIGN: u64 = 1 << 63;

/// Maps a time that is not NaN to an integer whose unsigned order is
/// `f64::total_cmp`'s: a positive time gets its sign bit set and a
/// negative one has every bit flipped, so `-0.0` sorts just below
/// `+0.0` and every finite time sits between the infinities.
#[inline]
fn time_key(time: SimTime) -> u64 {
    let bits = time.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | SIGN)
}

/// The time [`time_key`] mapped to `key`, bit for bit.
#[inline]
fn key_time(key: u64) -> SimTime {
    SimTime::from_bits(key ^ (!((key as i64 >> 63) as u64) | SIGN))
}

/// Indexed binary heap with O(log n) cancellation.
///
/// Entries live in a slab (recycled through a free list, so steady
/// state allocates nothing); the heap stores slab indices and every
/// entry tracks its heap position, so removal from the middle is one
/// sift from the vacated position. Beside each heap slot sits the
/// event's time as a `u64` key ordered like `f64::total_cmp`, so a
/// sift compares integers in two dense arrays and reads the slab only
/// to break an exact time tie by schedule order. Pending events cost
/// 52 bytes each (a 40-byte slab entry, a 4-byte heap slot and an
/// 8-byte key). Pop order is identical to [`BinaryEventQueue`]:
/// earliest time first, FIFO on ties. The fast churn engine is its one
/// user; the sharded scale engine, which never cancels and schedules
/// only whole ticks, uses a tick-keyed calendar queue of its own
/// instead.
#[derive(Debug, Default)]
pub struct IndexedEventQueue {
    entries: Vec<Entry>,
    free: Vec<u32>,
    /// Slab index of the event at each heap position.
    heap: Vec<u32>,
    /// [`time_key`] of the event at each heap position.
    keys: Vec<u64>,
    seq: u64,
    high_water: usize,
}

impl IndexedEventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue that holds `capacity` pending events
    /// before its slab, heap and keys regrow.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        IndexedEventQueue {
            entries: Vec::with_capacity(capacity),
            heap: Vec::with_capacity(capacity),
            keys: Vec::with_capacity(capacity),
            ..Self::default()
        }
    }

    /// Schedules `event` at absolute time `time`; the returned handle
    /// can cancel it until it fires.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn schedule(&mut self, time: SimTime, event: Event) -> EventHandle {
        assert!(!time.is_nan(), "cannot schedule at NaN");
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.entries[idx as usize];
                e.seq = seq;
                e.event = event;
                idx
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry {
                    seq,
                    event,
                    generation: 0,
                    pos: FREE,
                });
                idx
            }
        };
        let key = time_key(time);
        let pos = self.heap.len();
        self.heap.push(idx);
        self.keys.push(key);
        let hole = self.hole_up(pos, key, seq);
        self.place(hole, idx, key);
        self.high_water = self.high_water.max(self.heap.len());
        EventHandle {
            idx,
            generation: self.entries[idx as usize].generation,
        }
    }

    /// Cancels a pending event. Returns whether anything was removed:
    /// `false` for the null handle, an event that already fired, or a
    /// handle from a previous occupant of a reused slot.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if handle.is_null() {
            return false;
        }
        let Some(e) = self.entries.get(handle.idx as usize) else {
            return false;
        };
        if e.generation != handle.generation || e.pos == FREE {
            return false;
        }
        let pos = e.pos as usize;
        self.remove_at(pos);
        self.release(handle.idx);
        true
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (&idx, &key) = (self.heap.first()?, self.keys.first()?);
        self.remove_at(0);
        let event = self.entries[idx as usize].event;
        self.release(idx);
        Some((key_time(key), event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&key| key_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of simultaneously pending events ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Writes the queue into a snapshot payload **verbatim** — slab
    /// entries (including vacant ones), free-list order, heap layout,
    /// and counters. The free-list order governs which slab slot the
    /// next `schedule` reuses (and therefore which handle it returns),
    /// so a structural re-push rebuild would diverge; only a verbatim
    /// copy keeps a restored run bitwise identical. Each entry carries
    /// its pending event's time; a vacant one has none and writes 0.0.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.len(self.entries.len());
        for e in &self.entries {
            let time = match e.pos {
                FREE => 0.0,
                pos => key_time(self.keys[pos as usize]),
            };
            w.f64(time);
            w.u64(e.seq);
            w.u32(e.generation);
            w.u32(e.pos);
            e.event.snap(w);
        }
        w.len(self.free.len());
        for &idx in &self.free {
            w.u32(idx);
        }
        w.len(self.heap.len());
        for &idx in &self.heap {
            w.u32(idx);
        }
        w.u64(self.seq);
        w.len(self.high_water);
    }

    /// Reads a queue written by [`IndexedEventQueue::snap`], validating
    /// that heap and free-list indices stay inside the slab and that
    /// no pending event is timed NaN. A vacant entry's time is ignored,
    /// so snapshots that recorded a stale time there restore alike.
    /// The slab, heap and keys hold at least `capacity` events, as
    /// [`with_capacity`](Self::with_capacity) reserves them.
    pub(crate) fn unsnap(r: &mut SnapReader<'_>, capacity: usize) -> Result<Self, SnapshotError> {
        let n_entries = r.len("queue entries len")?;
        let capacity = capacity.max(n_entries);
        let mut entries = Vec::with_capacity(capacity);
        let mut times = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            times.push(r.f64("entry time")?);
            let seq = r.u64("entry seq")?;
            let generation = r.u32("entry generation")?;
            let pos = r.u32("entry pos")?;
            let event = Event::unsnap(r)?;
            entries.push(Entry {
                seq,
                event,
                generation,
                pos,
            });
        }
        let n_free = r.len("queue free len")?;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            let idx = r.u32("free idx")?;
            if idx as usize >= entries.len() {
                return Err(SnapshotError::Malformed(format!(
                    "free-list index {idx} outside slab of {}",
                    entries.len()
                )));
            }
            free.push(idx);
        }
        let n_heap = r.len("queue heap len")?;
        let mut heap = Vec::with_capacity(capacity);
        let mut keys = Vec::with_capacity(capacity);
        for pos in 0..n_heap {
            let idx = r.u32("heap idx")?;
            let Some(entry) = entries.get(idx as usize) else {
                return Err(SnapshotError::Malformed(format!(
                    "heap index {idx} outside slab of {}",
                    entries.len()
                )));
            };
            if entry.pos as usize != pos {
                return Err(SnapshotError::Malformed(format!(
                    "slab entry {idx} records heap pos {} but sits at {pos}",
                    entry.pos
                )));
            }
            let time = times[idx as usize];
            if time.is_nan() {
                return Err(SnapshotError::Malformed(format!(
                    "slab entry {idx} is pending at NaN"
                )));
            }
            heap.push(idx);
            keys.push(time_key(time));
        }
        let seq = r.u64("queue seq")?;
        let high_water = r.len("queue high water")?;
        Ok(IndexedEventQueue {
            entries,
            free,
            heap,
            keys,
            seq,
            high_water,
        })
    }

    /// The capacity of the slab, the heap and the keys, by name.
    #[cfg(test)]
    pub(crate) fn slab_capacities(&self) -> [(&'static str, usize); 3] {
        [
            ("queue.entries", self.entries.capacity()),
            ("queue.heap", self.heap.capacity()),
            ("queue.keys", self.keys.capacity()),
        ]
    }

    fn release(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        e.pos = FREE;
        e.generation = e.generation.wrapping_add(1);
        self.free.push(idx);
    }

    /// Schedule order of the event at heap position `pos`.
    #[inline]
    fn seq_at(&self, pos: usize) -> u64 {
        self.entries[self.heap[pos] as usize].seq
    }

    /// Whether an event keyed `key` and scheduled `seq`-th pops before
    /// the event at heap position `pos`. The slab is read only on an
    /// exact time tie.
    #[inline]
    fn precedes(&self, key: u64, seq: u64, pos: usize) -> bool {
        let other = self.keys[pos];
        key < other || (key == other && seq < self.seq_at(pos))
    }

    /// Whether the event at heap position `a` pops before the one at
    /// `b`; like [`precedes`](Self::precedes), ties alone read the slab.
    #[inline]
    fn pops_before(&self, a: usize, b: usize) -> bool {
        let (ka, kb) = (self.keys[a], self.keys[b]);
        ka < kb || (ka == kb && self.seq_at(a) < self.seq_at(b))
    }

    /// Puts the event `idx` keyed `key` at heap position `pos`.
    #[inline]
    fn place(&mut self, pos: usize, idx: u32, key: u64) {
        self.heap[pos] = idx;
        self.keys[pos] = key;
        self.entries[idx as usize].pos = pos as u32;
    }

    /// Moves the event at heap position `from` into position `to`.
    #[inline]
    fn shift(&mut self, from: usize, to: usize) {
        self.place(to, self.heap[from], self.keys[from]);
    }

    /// Removes the event at heap position `pos`; the last event fills
    /// the hole and sifts from there in whichever direction it must.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        let (idx, key) = (self.heap[last], self.keys[last]);
        self.heap.truncate(last);
        self.keys.truncate(last);
        if pos < last {
            let seq = self.entries[idx as usize].seq;
            let mut hole = self.hole_up(pos, key, seq);
            if hole == pos {
                hole = self.hole_down(pos, key, seq);
            }
            self.place(hole, idx, key);
        }
    }

    /// Sifts a hole at `pos` up past every parent that pops after the
    /// event (`key`, `seq`), moving each down one level, and returns
    /// where the hole stops.
    fn hole_up(&mut self, mut pos: usize, key: u64, seq: u64) -> usize {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.precedes(key, seq, parent) {
                break;
            }
            self.shift(parent, pos);
            pos = parent;
        }
        pos
    }

    /// Sifts a hole at `pos` down past every smaller child that pops
    /// before the event (`key`, `seq`), moving each up one level, and
    /// returns where the hole stops.
    fn hole_down(&mut self, mut pos: usize, key: u64, seq: u64) -> usize {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                return pos;
            }
            let right = left + 1;
            let child = if right < len && self.pops_before(right, left) {
                right
            } else {
                left
            };
            if self.precedes(key, seq, child) {
                return pos;
            }
            self.shift(child, pos);
            pos = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_pops_in_time_order() {
        let mut q = BinaryEventQueue::new();
        q.schedule(5.0, Event::Sample);
        q.schedule(1.0, Event::PeerJoin);
        q.schedule(3.0, Event::Sample);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn binary_ties_break_fifo() {
        let mut q = BinaryEventQueue::new();
        q.schedule(2.0, Event::PeerJoin);
        q.schedule(
            2.0,
            Event::PeerLeave {
                peer: 7,
                generation: 0,
            },
        );
        assert_eq!(q.pop().unwrap().1, Event::PeerJoin);
        assert!(matches!(
            q.pop().unwrap().1,
            Event::PeerLeave { peer: 7, .. }
        ));
    }

    #[test]
    fn binary_len_tracks_contents() {
        let mut q = BinaryEventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, Event::Sample);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn binary_nan_time_panics() {
        BinaryEventQueue::new().schedule(f64::NAN, Event::Sample);
    }

    #[test]
    fn indexed_pops_in_time_order() {
        let mut q = IndexedEventQueue::new();
        q.schedule(5.0, Event::Sample);
        q.schedule(1.0, Event::PeerJoin);
        q.schedule(3.0, Event::Sample);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn indexed_ties_break_fifo() {
        let mut q = IndexedEventQueue::new();
        for peer in 0..8 {
            q.schedule(
                2.0,
                Event::Query {
                    peer,
                    generation: 0,
                },
            );
        }
        for expect in 0..8 {
            assert!(matches!(
                q.pop().unwrap().1,
                Event::Query { peer, .. } if peer == expect
            ));
        }
    }

    #[test]
    fn indexed_cancel_removes_event() {
        let mut q = IndexedEventQueue::new();
        let a = q.schedule(1.0, Event::PeerJoin);
        let b = q.schedule(2.0, Event::Sample);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "second cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, Event::Sample);
        assert!(!q.cancel(b), "cancel after fire is a no-op");
        assert!(q.pop().is_none());
    }

    #[test]
    fn indexed_stale_handle_never_cancels_reused_slot() {
        let mut q = IndexedEventQueue::new();
        let a = q.schedule(1.0, Event::PeerJoin);
        q.pop();
        // The slab slot is recycled for a fresh event.
        let b = q.schedule(2.0, Event::Sample);
        assert!(!q.cancel(a), "stale handle must not hit the new event");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
    }

    #[test]
    fn indexed_null_handle_is_inert() {
        let mut q = IndexedEventQueue::new();
        assert!(EventHandle::NULL.is_null());
        assert!(EventHandle::default().is_null());
        assert!(!q.cancel(EventHandle::NULL));
    }

    #[test]
    fn indexed_high_water_tracks_max_depth() {
        let mut q = IndexedEventQueue::new();
        q.schedule(1.0, Event::Sample);
        q.schedule(2.0, Event::Sample);
        q.pop();
        q.schedule(3.0, Event::Sample);
        assert_eq!(q.high_water(), 2);
        q.schedule(4.0, Event::Sample);
        q.schedule(5.0, Event::Sample);
        // 1 remaining after the pop + 3 scheduled since = depth 4.
        assert_eq!(q.high_water(), 4);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn indexed_nan_time_panics() {
        IndexedEventQueue::new().schedule(f64::NAN, Event::Sample);
    }

    #[test]
    fn indexed_peek_time_is_nondestructive() {
        let mut q = IndexedEventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(4.0, Event::Sample);
        q.schedule(2.0, Event::PeerJoin);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(4.0));
    }

    #[test]
    fn binary_queue_snap_round_trips_pop_order() {
        let mut q = BinaryEventQueue::new();
        q.schedule(5.0, Event::Sample);
        q.schedule(
            5.0,
            Event::Query {
                peer: 3,
                generation: 1,
            },
        );
        q.schedule(1.5, Event::PeerJoin);
        let mut w = sp_model::SnapWriter::new();
        q.snap(&mut w);
        let data = w.seal(sp_model::snapshot::ENGINE_REFERENCE);
        let mut r = sp_model::SnapReader::open(&data).unwrap();
        let mut restored = BinaryEventQueue::unsnap(&mut r).unwrap();
        r.finish().unwrap();
        loop {
            let (a, b) = (q.pop(), restored.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        // Sequence counters continue identically after restore.
        q.schedule(9.0, Event::Sample);
        restored.schedule(9.0, Event::Sample);
        assert_eq!(q.pop(), restored.pop());
    }

    #[test]
    fn indexed_queue_snap_preserves_free_list_and_handles() {
        let mut q = IndexedEventQueue::new();
        let a = q.schedule(1.0, Event::PeerJoin);
        let _b = q.schedule(2.0, Event::Sample);
        let c = q.schedule(
            3.0,
            Event::Fault {
                index: 4,
                start: true,
            },
        );
        q.cancel(a);
        q.pop();
        let mut w = sp_model::SnapWriter::new();
        q.snap(&mut w);
        let data = w.seal(sp_model::snapshot::ENGINE_FAST);
        let mut r = sp_model::SnapReader::open(&data).unwrap();
        let mut restored = IndexedEventQueue::unsnap(&mut r, 0).unwrap();
        r.finish().unwrap();
        // Stale handles stay stale; live handles stay cancellable.
        // Mirror every mutation on both queues so their free lists
        // stay in lockstep for the handle-identity check below.
        assert!(!restored.cancel(a));
        assert!(restored.cancel(c));
        assert!(q.cancel(c));
        // Future schedules must reuse the same slab slots, returning
        // identical handles on both queues.
        for _ in 0..4 {
            let h1 = q.schedule(7.0, Event::Sample);
            let h2 = restored.schedule(7.0, Event::Sample);
            assert_eq!(h1, h2);
        }
        loop {
            let (x, y) = (q.pop(), restored.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn time_keys_order_like_total_cmp_and_round_trip() {
        let mut times = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1.0,
            -1.0,
            450.0,
            f64::MAX,
            f64::from_bits(f64::MAX.to_bits() - 1),
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Scattered bit patterns add arbitrary exponents of both signs.
        times.extend(
            (1..200u64)
                .map(|i| f64::from_bits(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .filter(|t| !t.is_nan()),
        );
        for &a in &times {
            assert_eq!(key_time(time_key(a)).to_bits(), a.to_bits(), "{a:e}");
            for &b in &times {
                assert_eq!(
                    time_key(a).cmp(&time_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    fn pending_events_cost_52_bytes() {
        let slot = std::mem::size_of::<u32>() + std::mem::size_of::<u64>();
        assert_eq!(std::mem::size_of::<Entry>() + slot, 52);
    }

    /// Writes `q` the way [`IndexedEventQueue::snap`] does, except that
    /// slab entry `i` records `time(i, pending)` for its time, where
    /// `pending` is the time of the event it holds, if any.
    fn snap_with_times(q: &IndexedEventQueue, time: impl Fn(usize, Option<f64>) -> f64) -> Vec<u8> {
        let mut w = sp_model::SnapWriter::new();
        w.len(q.entries.len());
        for (i, e) in q.entries.iter().enumerate() {
            let pending = (e.pos != FREE).then(|| key_time(q.keys[e.pos as usize]));
            w.f64(time(i, pending));
            w.u64(e.seq);
            w.u32(e.generation);
            w.u32(e.pos);
            e.event.snap(&mut w);
        }
        w.len(q.free.len());
        for &idx in &q.free {
            w.u32(idx);
        }
        w.len(q.heap.len());
        for &idx in &q.heap {
            w.u32(idx);
        }
        w.u64(q.seq);
        w.len(q.high_water);
        w.seal(sp_model::snapshot::ENGINE_FAST)
    }

    #[test]
    fn stale_vacant_slot_times_restore_identically() {
        let mut q = IndexedEventQueue::new();
        let handles: Vec<EventHandle> = (0..12)
            .map(|i| q.schedule(f64::from(i % 5) - 1.0, Event::Sample))
            .collect();
        for &h in handles.iter().step_by(3) {
            q.cancel(h);
        }
        q.pop();
        q.pop();
        assert!(q.entries.iter().filter(|e| e.pos == FREE).count() >= 6);
        let mut canonical = sp_model::SnapWriter::new();
        q.snap(&mut canonical);
        let canonical = canonical.seal(sp_model::snapshot::ENGINE_FAST);
        // Snapshots written while the slab held times kept each vacant
        // slot's last occupant's there.
        let stale = [123.5, -0.0, f64::MAX, f64::from_bits(1), f64::NAN, -7.0];
        let data = snap_with_times(&q, |i, pending| pending.unwrap_or(stale[i % stale.len()]));
        assert_ne!(data, canonical, "the stale times must reach the bytes");
        let mut r = sp_model::SnapReader::open(&data).unwrap();
        let mut restored = IndexedEventQueue::unsnap(&mut r, 0).unwrap();
        r.finish().unwrap();
        // The restored queue writes vacant slots as 0.0 again.
        let mut resnap = sp_model::SnapWriter::new();
        restored.snap(&mut resnap);
        assert_eq!(resnap.seal(sp_model::snapshot::ENGINE_FAST), canonical);
        // Same cancels, same handles from the same slots, same pops.
        for &h in handles.iter().step_by(2) {
            assert_eq!(q.cancel(h), restored.cancel(h));
        }
        for i in 0..6 {
            let time = f64::from(i) * 0.5;
            assert_eq!(
                q.schedule(time, Event::PeerJoin),
                restored.schedule(time, Event::PeerJoin)
            );
        }
        loop {
            let (x, y) = (q.pop(), restored.pop());
            assert_eq!(
                x.map(|(t, e)| (t.to_bits(), e)),
                y.map(|(t, e)| (t.to_bits(), e))
            );
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn indexed_queue_unsnap_rejects_a_pending_nan() {
        let mut q = IndexedEventQueue::new();
        q.schedule(1.0, Event::Sample);
        q.schedule(2.0, Event::Sample);
        let data = snap_with_times(&q, |i, pending| match i {
            1 => f64::NAN,
            _ => pending.unwrap_or(0.0),
        });
        let mut r = sp_model::SnapReader::open(&data).unwrap();
        assert!(matches!(
            IndexedEventQueue::unsnap(&mut r, 0),
            Err(sp_model::SnapshotError::Malformed(m)) if m.contains("NaN")
        ));
    }

    #[test]
    fn indexed_queue_unsnap_rejects_out_of_range_indices() {
        let mut w = sp_model::SnapWriter::new();
        w.len(0); // no entries
        w.len(1); // one free index...
        w.u32(5); // ...pointing outside the slab
        w.len(0);
        w.u64(0);
        w.len(0);
        let data = w.seal(sp_model::snapshot::ENGINE_FAST);
        let mut r = sp_model::SnapReader::open(&data).unwrap();
        assert!(matches!(
            IndexedEventQueue::unsnap(&mut r, 0),
            Err(sp_model::SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn every_event_variant_round_trips() {
        let variants = [
            Event::PeerJoin,
            Event::PeerLeave {
                peer: 1,
                generation: 2,
            },
            Event::Query {
                peer: 3,
                generation: 4,
            },
            Event::Update {
                peer: 5,
                generation: 6,
            },
            Event::ClientRejoin {
                peer: 7,
                generation: 8,
                orphaned_at: 9.5,
                attempt: 2,
            },
            Event::RecruitPartner {
                cluster: 10,
                generation: 11,
            },
            Event::AdaptTick {
                cluster: 12,
                generation: 13,
            },
            Event::Repair {
                cluster: 14,
                generation: 15,
            },
            Event::Sample,
            Event::Fault {
                index: 16,
                start: true,
            },
            Event::Phase {
                index: 17,
                start: false,
            },
        ];
        let mut w = sp_model::SnapWriter::new();
        for e in &variants {
            e.snap(&mut w);
        }
        let data = w.seal(sp_model::snapshot::ENGINE_FAST);
        let mut r = sp_model::SnapReader::open(&data).unwrap();
        for e in &variants {
            assert_eq!(Event::unsnap(&mut r).unwrap(), *e);
        }
        r.finish().unwrap();
    }
}
