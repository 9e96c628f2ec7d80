//! Shared-nothing sharded scale simulator.
//!
//! The churn engines ([`crate::engine::Simulation`] and its reference
//! oracle) run one event loop over the whole overlay, which tops out
//! around 10⁴–10⁵ peers. This module trades their per-peer lifecycle
//! fidelity for *scale*: a tick-based engine whose state is partitioned
//! into per-shard single-threaded reactors so million-peer overlays run
//! in bounded memory with no locks on the hot path.
//!
//! # Reactors and worker threads
//!
//! A shard is a reactor, not a thread. A run spawns one worker thread
//! per available core (never more than it has shards); each worker
//! steps a contiguous group of reactors, all through tick `t` before
//! any through `t + 1`. Eight shards on two cores are two threads with
//! four reactors each, not eight threads time-slicing two cores. The
//! worker count moves no result: every reactor sees the same batches in
//! the same order whichever thread steps it.
//!
//! # Shard assignment
//!
//! Peer ids are dense: cluster `c` owns peers
//! `[c·cluster_size, (c+1)·cluster_size)`, the first `redundancy_k` of
//! which are the founding partners. A shard owns a *contiguous* range
//! of clusters ([`sp_model::trials::shard_spans`]), so a cluster's
//! super-peer, partners, and clients always co-shard — the cluster id
//! is the peer-id prefix. Each shard builds its own slice of the
//! overlay (pure-hash power-law outdegrees and edge targets keyed by
//! `(seed, cluster, slot)`), runs its own tick-keyed event queue, and
//! owns its slice of every accumulator. Nothing is shared: shards
//! communicate exclusively through bounded `std::sync::mpsc` channels
//! drained at tick barriers.
//!
//! # Linear-time tick loop
//!
//! The reactor never cancels an event and only schedules whole ticks,
//! so its queue is a FIFO calendar: one bucket per occupied tick, in
//! a `BTreeMap` keyed by tick, drained through a read cursor. A
//! schedule is one map lookup plus a push and a pop is a cursor bump,
//! where a binary heap paid O(log n) cache misses per operation. Memory
//! is O(pending events + occupied ticks), never O(run length). Pop order
//! is exactly the heap's: ascending time, FIFO within a time.
//!
//! Due messages are put in `(src_cluster, seq)` order by one stable
//! counting pass on `src_cluster` into reused buffers, not a comparison
//! sort. That is exact because each source cluster's messages already
//! enter a delivery slot in ascending `seq`: `seq` counts the cluster's
//! emissions, a cluster has one owner shard, that shard's messages
//! reach the slot in emission order (intra-shard at emission, barrier
//! batches in FIFO tick order), and carried messages are restored in
//! canonical order before anything new is emitted.
//!
//! The scratch buffers of that pass belong to the worker thread, not
//! the reactor, so reactors sharing a worker share one set. A barrier
//! batch with no delayed message is moved into its delivery slot in one
//! copy, and the emptied batch becomes the outbox back to its sender,
//! so batch capacity circulates between each shard pair.
//!
//! # Tick-barrier message protocol
//!
//! Simulated time advances in 1-second ticks. Within tick `t` a shard:
//!
//! 1. receives exactly one batch tagged `t−1` from every other shard
//!    and slots its messages into a future-delivery ring;
//! 2. applies instantaneous faults due at `t` (crashes, in ascending
//!    cluster order) and refreshes the active fault windows;
//! 3. delivers the messages due at `t` in `(src_cluster, seq)` order —
//!    `seq` is a per-source-cluster counter, so the order is
//!    layout-invariant (`src_shard` is itself a function of
//!    `src_cluster`);
//! 4. drains its local event queue up to `t` (query arrivals,
//!    elections);
//! 5. sends one batch tagged `t` (possibly empty) to every other
//!    shard. Channels are `sync_channel(2)`: at most the previous and
//!    the current tick's batches are ever in flight, so the queues are
//!    bounded and deadlock-free by construction.
//!
//! A barrier receive spins (yielding the core each round) before it
//! parks: a parked thread can take tens of microseconds to wake on a
//! virtualized host, longer than a small overlay's whole tick, and with
//! at most one worker per core the spin never starves the shard it
//! waits for.
//!
//! Every cluster therefore observes an identical ordered input stream
//! at **any** shard count, all randomness is stateless (pure splitmix
//! hashes keyed by entity ids — no shared RNG stream whose draw order
//! could depend on the layout), and every metric is a commutative
//! integer accumulation folded in ascending shard order. The result:
//! [`ScaleMetrics`] is bitwise identical for any shard count including
//! 1, which `tests/sim_determinism.rs` enforces at {1, 2, 4, 8}.
//!
//! # Streaming metrics
//!
//! There is no per-peer resident metrics state at all: each shard keeps
//! one fixed-width [`ScaleMetrics`] of `u64` counters plus a 16-bucket
//! hop histogram, merged at finalize. A 1M-peer run's footprint is the
//! event queue (at most one pending arrival per peer, 24 bytes each)
//! plus the CSR overlay slice and, per worker thread, one counter per
//! cluster for the delivery pass — O(peers), tens of bytes per peer —
//! not O(peers × metrics).
//!
//! # Fidelity envelope
//!
//! This engine reproduces the *load-bearing* dynamics at scale — flood
//! fan-out under TTL, cluster crashes, Section 5.3 elections with
//! cross-shard re-index announcements, loss/delay/partition/flake
//! windows — but intentionally simplifies the rest: no churn arrivals,
//! open flooding without duplicate suppression (every arriving copy
//! costs processing, matching the Table 2 cost model's accounting),
//! integer hit draws instead of the Appendix B query model, and
//! [`sp_model::faults::RetryPolicy`] is not consulted (flaked
//! submissions are counted and retried instantly). Fault windows are
//! pure functions of the tick, so fault injection never needs
//! cross-shard coordination. The churn engines remain the fidelity
//! oracles; this one answers "how does the overlay behave at 10⁶
//! peers", which they cannot.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
#[allow(
    clippy::disallowed_types,
    reason = "F2 sanctioned: watchdog heartbeats, read only by the supervisor's timeout path"
)]
use std::sync::atomic::{AtomicU32, Ordering};
#[allow(
    clippy::disallowed_types,
    reason = "F3 sanctioned: supervised barrier channels; every send/recv error becomes a ShardError"
)]
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::time::Duration;

use sp_model::config::Config;
use sp_model::faults::{FaultPlan, FaultSpec};
use sp_model::overload::{OverloadPolicy, ShedDiscipline};
use sp_model::snapshot::{SnapReader, SnapWriter, SnapshotError, ENGINE_SCALE};
use sp_model::trials::{panic_message, resolve_thread_budget, shard_spans};

/// Hop histogram width: hops 1..=15 are bucketed exactly, anything
/// beyond folds into the last bucket. The engine clamps TTL to 15.
pub const SCALE_MAX_HOPS: usize = 16;

/// Largest supported cluster size: member liveness is a `u64` bitmask.
pub const SCALE_MAX_CLUSTER: usize = 64;

// Domain-separation salts for the stateless hash draws. Each kind of
// draw mixes its own salt so streams never collide.
const SALT_DEGREE: u64 = 0x5348_4152_4445_4701;
const SALT_EDGE: u64 = 0x5348_4152_4544_4702;
const SALT_FILES: u64 = 0x5348_4152_4649_4C03;
const SALT_ARRIVAL: u64 = 0x5348_4152_4152_5204;
const SALT_QUERY: u64 = 0x5348_4152_5155_4505;
const SALT_HIT: u64 = 0x5348_4152_4849_5406;
const SALT_LOSS: u64 = 0x5348_4152_4C4F_5307;
const SALT_DELAY: u64 = 0x5348_4152_444C_5908;
const SALT_FLAKE: u64 = 0x5348_4152_464C_4B09;
const SALT_CRASH: u64 = 0x5348_4152_4352_480A;

/// Probability that a visited cluster's index holds a match for a
/// query. A fixed constant (rather than the Appendix B query model)
/// keeps per-visit work O(1) and integer-valued at any scale.
const HIT_PROB: f64 = 0.05;

/// splitmix64 finalizer — the same mixer `SpRng` seeds from, inlined
/// here so a draw costs one multiply chain instead of constructing a
/// generator. Stateless hashing is what makes every draw independent
/// of processing order, hence of the shard layout.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Keyed hash of up to four words: fold each part through the mixer.
fn keyed(salt: u64, a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(mix(salt).wrapping_add(a)).wrapping_add(b)).wrapping_add(c))
}

/// Maps a hash word to the unit interval `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Bernoulli draw from a hash word.
fn chance(x: u64, p: f64) -> bool {
    unit(x) < p
}

/// Options for a sharded scale run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleOptions {
    /// Simulated duration in seconds; one tick per second, rounded up.
    pub duration_secs: f64,
    /// Workload seed: topology, per-peer file counts, query arrivals,
    /// and hit draws all derive from it.
    pub seed: u64,
    /// Fault-stream seed (crash selection, loss/delay/flake draws),
    /// split from the workload seed exactly like the churn engines.
    pub fault_seed: u64,
    /// Number of shards (reactors); clamped to `[1, clusters]`. Results
    /// are bitwise identical at every value. A run steps them on at
    /// most one worker thread per available core.
    pub shards: usize,
    /// Barrier watchdog: how long a shard waits on a barrier receive,
    /// in units of 100 ms, before declaring the run stalled and
    /// failing with a diagnostic dump. `0` disables the watchdog
    /// (receives block indefinitely).
    pub barrier_timeout_ticks: u32,
    /// Test-only fault hook: `Some((shard, tick))` makes that shard's
    /// reactor panic at the start of that tick, exercising the
    /// supervisor's fail-fast path. Never set in production runs.
    pub inject_panic: Option<(usize, u32)>,
    /// Overload-control policy. The empty policy (the default) is
    /// bitwise inert: no queueing, no shedding, identical metrics.
    pub overload: OverloadPolicy,
}

impl Default for ScaleOptions {
    fn default() -> Self {
        ScaleOptions {
            duration_secs: 300.0,
            seed: 0xC0FFEE,
            fault_seed: 0,
            shards: 1,
            barrier_timeout_ticks: 0,
            inject_panic: None,
            overload: OverloadPolicy::default(),
        }
    }
}

/// Per-shard event payload: what a reactor schedules for itself.
/// Cross-shard work never rides the event queue — it is always an
/// explicit [`ShardMsg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleEvent {
    /// The `n`-th query arrival of `peer`. Processing it draws and
    /// schedules arrival `n + 1`, so the queue holds at most one
    /// arrival per peer.
    Query {
        /// Global peer id.
        peer: u64,
        /// Arrival index, keys the inter-arrival hash stream.
        n: u32,
        /// Admission token-bucket level at this arrival. The level
        /// rides the event (each peer has at most one pending arrival)
        /// instead of a per-peer resident array, so a million-peer run
        /// stays O(peers) in the queue alone. Always `0.0` when the
        /// overload policy is empty — the field is then inert.
        tokens: f64,
    },
    /// A Section 5.3 election in `cluster`, scheduled one tick after a
    /// crash left it headless.
    Election {
        /// Global cluster id (always shard-local by construction).
        cluster: u32,
    },
}

/// What an inter-shard message carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MsgKind {
    /// One hop of a query flood.
    Flood {
        /// Stable query identity, keys the per-cluster hit draws.
        query_key: u64,
        /// Remaining hops after this delivery.
        ttl_left: u8,
        /// Hops traveled so far (this delivery inclusive).
        hops: u8,
    },
    /// A post-election re-index announcement to an overlay neighbor.
    Reindex,
    /// A query handed off by a persistently saturated super-peer to an
    /// overlay neighbor (deterministic re-homing). The new home either
    /// admits it into its own queue or the handoff fails outright — a
    /// re-homed query is never re-homed again, so there are no chains.
    Rehome {
        /// Stable query identity, keys the per-cluster hit draws.
        query_key: u64,
        /// Effective TTL granted at the original admission attempt.
        ttl: u8,
        /// Tick the query was originally issued — latency accounting
        /// spans the handoff.
        arrival: u32,
    },
}

/// One cluster-to-cluster message, delivered at a tick barrier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardMsg {
    /// Tick at which the destination shard delivers this message.
    pub deliver_tick: u32,
    /// Sending cluster.
    pub src_cluster: u32,
    /// Per-source-cluster sequence number — with `src_cluster`, the
    /// layout-invariant delivery sort key.
    pub seq: u32,
    /// Receiving cluster.
    pub dst_cluster: u32,
    /// Payload.
    pub kind: MsgKind,
}

/// One barrier batch: every shard sends exactly one per tick to every
/// other shard, empty or not, which is what makes the receive loop a
/// deterministic barrier rather than a poll.
struct Batch {
    tick: u32,
    msgs: Vec<ShardMsg>,
}

/// The supervisor's account of a failed sharded run: which shard
/// faulted, where, why, and how far every shard got — so a panic,
/// stall, or preemption yields a named diagnostic instead of a hung
/// barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Shard the failure is attributed to. Panics rank above watchdog
    /// stalls, which rank above peer disconnects: the latter two are
    /// downstream symptoms of whichever shard died first.
    pub shard: usize,
    /// Tick that shard was executing when it failed.
    pub tick: u32,
    /// Panic payload, watchdog stall, or disconnect description.
    pub reason: String,
    /// Last tick each shard reached, indexed by shard — the
    /// diagnostic snapshot of all reactors at the moment of failure.
    pub shard_ticks: Vec<u32>,
}

impl ShardFailure {
    /// Multi-line diagnostic dump: the failure plus every shard's
    /// progress, for operators chasing a stall.
    pub fn diagnostic(&self) -> String {
        let mut out = format!(
            "shard {} failed at tick {}: {}\nshard progress at failure:\n",
            self.shard, self.tick, self.reason
        );
        for (i, t) in self.shard_ticks.iter().enumerate() {
            let marker = if i == self.shard { "  <- failed" } else { "" };
            out.push_str(&format!("  shard {i}: tick {t}{marker}\n"));
        }
        out
    }
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} failed at tick {}: {}",
            self.shard, self.tick, self.reason
        )
    }
}

impl std::error::Error for ShardFailure {}

/// Why one shard's reactor stopped early (supervisor-internal; the
/// shard index is attached when the supervisor folds these).
#[derive(Debug)]
struct ShardError {
    tick: u32,
    reason: String,
}

impl ShardError {
    fn disconnected(t: u32, peer: usize) -> ShardError {
        ShardError {
            tick: t,
            reason: format!(
                "peer shard {peer} disconnected before its tick-{} barrier batch arrived",
                t.saturating_sub(1)
            ),
        }
    }
}

/// What a shard reactor hands back to the supervisor on success.
struct ShardRun {
    metrics: ScaleMetrics,
    diag: ScaleDiag,
    carry: Option<ShardCarry>,
}

/// One queued query awaiting service at a super-peer. The effective
/// TTL and fanout cap were fixed at admission (brownout degrades ride
/// admission, not service).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OvEntry {
    /// Tick the query was issued (transit included for re-homed ones).
    arrival: u32,
    /// Stable query identity, keys the hit draws.
    key: u64,
    /// Effective flood TTL granted at admission.
    ttl: u8,
    /// Per-hop fanout cap granted at admission; `0` means uncapped.
    fanout: u8,
}

/// One cluster's overload-control runtime state: the bounded work
/// queue, the fractional service credit, brownout hysteresis counters,
/// and the consecutive-saturation strike count. Everything is a pure
/// function of cluster-local history — no draws — which is what keeps
/// the subsystem shard-count invariant.
#[derive(Debug, Clone, Default, PartialEq)]
struct ClusterOvScale {
    queue: VecDeque<OvEntry>,
    credit: f64,
    brownout: bool,
    pressure_run: u32,
    relief_run: u32,
    strikes: u32,
}

/// One shard's slice of the resumable state, in canonical order.
struct ShardCarry {
    alive: Vec<u64>,
    head: Vec<u32>,
    seq: Vec<u32>,
    ov: Vec<ClusterOvScale>,
    events: Vec<(f64, ScaleEvent)>,
    msgs: Vec<ShardMsg>,
}

/// Canonical layout-invariant engine state between ticks — what a
/// scale snapshot serializes. Per-cluster arrays are indexed by global
/// cluster id, so the state redistributes to any shard count.
#[derive(Debug, Clone)]
struct ResumeState {
    /// Next tick to execute.
    tick: u32,
    /// Per-cluster member-liveness bitmasks.
    alive: Vec<u64>,
    /// Per-cluster acting-head member offsets.
    head: Vec<u32>,
    /// Per-cluster message sequence counters.
    seq: Vec<u32>,
    /// Per-cluster overload-control state (queues, credit, brownout,
    /// strikes). All-default when the policy is empty.
    ov: Vec<ClusterOvScale>,
    /// Pending local events as `(time, event)`, grouped by owning
    /// cluster ascending, per-cluster in queue pop order.
    events: Vec<(f64, ScaleEvent)>,
    /// Pending messages (delivery rings plus the boundary tick's
    /// outboxes), sorted by `(deliver_tick, src_cluster, seq)`.
    msgs: Vec<ShardMsg>,
    /// Counters accumulated over ticks `[0, tick)`, merged ascending.
    metrics: ScaleMetrics,
}

/// Global cluster that owns an event (its queries or its election).
fn event_cluster(params: &ScaleParams, event: &ScaleEvent) -> u32 {
    match event {
        ScaleEvent::Query { peer, .. } => (*peer / params.cluster_size as u64) as u32,
        ScaleEvent::Election { cluster } => *cluster,
    }
}

/// Serializes the full counter set, `hop_hist` included.
fn snap_scale_metrics(w: &mut SnapWriter, m: &ScaleMetrics) {
    w.u64(m.peers);
    w.u64(m.clusters);
    w.u64(m.ticks);
    w.u64(m.queries_issued);
    w.u64(m.queries_failed);
    w.u64(m.submissions_flaked);
    w.u64(m.msgs_sent);
    w.u64(m.msgs_delivered);
    w.u64(m.msgs_dropped_loss);
    w.u64(m.msgs_dropped_partition);
    w.u64(m.msgs_dropped_dead);
    w.u64(m.msgs_delayed);
    w.u64(m.msgs_expired);
    w.u64(m.results_found);
    w.u64(m.crashes_injected);
    w.u64(m.elections_held);
    w.u64(m.clusters_dead);
    w.u64(m.reindex_received);
    w.u64(m.ov_admitted);
    w.u64(m.ov_rehome_admitted);
    w.u64(m.ov_rejected_budget);
    w.u64(m.ov_rejected_queue);
    w.u64(m.ov_rehome_sent);
    w.u64(m.ov_handoff_failed);
    w.u64(m.ov_delivered);
    w.u64(m.ov_shed_discipline);
    w.u64(m.ov_shed_dead);
    w.u64(m.ov_shed_residual);
    w.u64(m.ov_degraded);
    w.u64(m.ov_brownout_entries);
    w.u64(m.ov_brownout_ticks);
    w.u64(m.ov_wait_ticks);
    w.u64(m.ov_peak_depth);
    for &v in &m.ov_wait_hist {
        w.u64(v);
    }
    for &v in &m.hop_hist {
        w.u64(v);
    }
}

fn unsnap_scale_metrics(r: &mut SnapReader<'_>) -> Result<ScaleMetrics, SnapshotError> {
    let mut m = ScaleMetrics {
        peers: r.u64("metrics.peers")?,
        clusters: r.u64("metrics.clusters")?,
        ticks: r.u64("metrics.ticks")?,
        queries_issued: r.u64("metrics.queries_issued")?,
        queries_failed: r.u64("metrics.queries_failed")?,
        submissions_flaked: r.u64("metrics.submissions_flaked")?,
        msgs_sent: r.u64("metrics.msgs_sent")?,
        msgs_delivered: r.u64("metrics.msgs_delivered")?,
        msgs_dropped_loss: r.u64("metrics.msgs_dropped_loss")?,
        msgs_dropped_partition: r.u64("metrics.msgs_dropped_partition")?,
        msgs_dropped_dead: r.u64("metrics.msgs_dropped_dead")?,
        msgs_delayed: r.u64("metrics.msgs_delayed")?,
        msgs_expired: r.u64("metrics.msgs_expired")?,
        results_found: r.u64("metrics.results_found")?,
        crashes_injected: r.u64("metrics.crashes_injected")?,
        elections_held: r.u64("metrics.elections_held")?,
        clusters_dead: r.u64("metrics.clusters_dead")?,
        reindex_received: r.u64("metrics.reindex_received")?,
        ov_admitted: r.u64("metrics.ov_admitted")?,
        ov_rehome_admitted: r.u64("metrics.ov_rehome_admitted")?,
        ov_rejected_budget: r.u64("metrics.ov_rejected_budget")?,
        ov_rejected_queue: r.u64("metrics.ov_rejected_queue")?,
        ov_rehome_sent: r.u64("metrics.ov_rehome_sent")?,
        ov_handoff_failed: r.u64("metrics.ov_handoff_failed")?,
        ov_delivered: r.u64("metrics.ov_delivered")?,
        ov_shed_discipline: r.u64("metrics.ov_shed_discipline")?,
        ov_shed_dead: r.u64("metrics.ov_shed_dead")?,
        ov_shed_residual: r.u64("metrics.ov_shed_residual")?,
        ov_degraded: r.u64("metrics.ov_degraded")?,
        ov_brownout_entries: r.u64("metrics.ov_brownout_entries")?,
        ov_brownout_ticks: r.u64("metrics.ov_brownout_ticks")?,
        ov_wait_ticks: r.u64("metrics.ov_wait_ticks")?,
        ov_peak_depth: r.u64("metrics.ov_peak_depth")?,
        ov_wait_hist: [0; SCALE_MAX_HOPS],
        hop_hist: [0; SCALE_MAX_HOPS],
    };
    for v in m.ov_wait_hist.iter_mut() {
        *v = r.u64("metrics.ov_wait_hist")?;
    }
    for v in m.hop_hist.iter_mut() {
        *v = r.u64("metrics.hop_hist")?;
    }
    Ok(m)
}

/// Shard-count-invariant run metrics: fixed-width commutative counters
/// only, folded in ascending shard order at finalize. `PartialEq`
/// compares bitwise — the determinism suite's contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScaleMetrics {
    /// Peers simulated (`clusters × cluster_size`; a `graph_size`
    /// remainder that does not fill a cluster is not instantiated).
    pub peers: u64,
    /// Clusters simulated.
    pub clusters: u64,
    /// Ticks executed.
    pub ticks: u64,
    /// Queries issued by live peers in live, unpartitioned clusters.
    pub queries_issued: u64,
    /// Query arrivals that found their peer dead, their cluster dead,
    /// or their cluster partitioned.
    pub queries_failed: u64,
    /// Submissions that hit a flaky partner first (k ≥ 2 only) and
    /// succeeded on instant retry.
    pub submissions_flaked: u64,
    /// Messages emitted (flood hops + re-index announcements), before
    /// loss/expiry.
    pub msgs_sent: u64,
    /// Flood messages delivered and processed.
    pub msgs_delivered: u64,
    /// Messages dropped by an active loss window.
    pub msgs_dropped_loss: u64,
    /// Messages dropped because the destination was partitioned.
    pub msgs_dropped_partition: u64,
    /// Messages dropped because the destination cluster was dead.
    pub msgs_dropped_dead: u64,
    /// Messages that survived but were delayed by a delay window.
    pub msgs_delayed: u64,
    /// Messages whose delivery tick fell past the end of the run.
    pub msgs_expired: u64,
    /// Matches found across all visited clusters (origin included).
    pub results_found: u64,
    /// Partner peers killed by crash faults.
    pub crashes_injected: u64,
    /// Elections completed.
    pub elections_held: u64,
    /// Clusters whose last member died.
    pub clusters_dead: u64,
    /// Re-index announcements received by live neighbors.
    pub reindex_received: u64,
    /// Queries admitted into their own cluster's bounded work queue.
    pub ov_admitted: u64,
    /// Re-homed queries admitted at their new home.
    pub ov_rehome_admitted: u64,
    /// Queries rejected at admission by the per-client token budget.
    pub ov_rejected_budget: u64,
    /// Queries rejected at admission by a full queue (not re-homed).
    pub ov_rejected_queue: u64,
    /// Re-home handoffs emitted by saturated super-peers.
    pub ov_rehome_sent: u64,
    /// Re-home handoffs that died: lost or expired in flight, or the
    /// new home was dead, partitioned, or itself full.
    pub ov_handoff_failed: u64,
    /// Queued queries served to completion (origin search + flood).
    pub ov_delivered: u64,
    /// Queued queries shed by the policy discipline on a full queue.
    pub ov_shed_discipline: u64,
    /// Queued queries shed because their cluster died.
    pub ov_shed_dead: u64,
    /// Queued queries still waiting when the run ended (explicitly
    /// shed at finalize so the conservation ledger closes).
    pub ov_shed_residual: u64,
    /// Queries admitted with a brownout-degraded TTL/fanout.
    pub ov_degraded: u64,
    /// Brownout-mode entries across all clusters.
    pub ov_brownout_entries: u64,
    /// Cluster-ticks spent in brownout mode.
    pub ov_brownout_ticks: u64,
    /// Total ticks served queries waited in queue (transit included
    /// for re-homed queries); mean wait is this over `ov_delivered`.
    pub ov_wait_ticks: u64,
    /// Largest queue depth observed anywhere (merged via `max` — max
    /// is as commutative and associative as addition).
    pub ov_peak_depth: u64,
    /// Served-query waits by power-of-two buckets: bucket `b` holds
    /// waits in `[2^(b−1), 2^b)` ticks (bucket 0 is a zero wait, the
    /// last bucket also holds any overflow). A scan of the cumulative
    /// counts bounds any latency quantile.
    pub ov_wait_hist: [u64; SCALE_MAX_HOPS],
    /// Deliveries by hop count; bucket 15 also holds any overflow.
    pub hop_hist: [u64; SCALE_MAX_HOPS],
}

impl ScaleMetrics {
    /// Folds another shard's counters into this one. Addition is
    /// commutative, but callers fold in ascending shard order anyway so
    /// the operation is reproducible by inspection.
    pub fn merge(&mut self, other: &ScaleMetrics) {
        self.queries_issued += other.queries_issued;
        self.queries_failed += other.queries_failed;
        self.submissions_flaked += other.submissions_flaked;
        self.msgs_sent += other.msgs_sent;
        self.msgs_delivered += other.msgs_delivered;
        self.msgs_dropped_loss += other.msgs_dropped_loss;
        self.msgs_dropped_partition += other.msgs_dropped_partition;
        self.msgs_dropped_dead += other.msgs_dropped_dead;
        self.msgs_delayed += other.msgs_delayed;
        self.msgs_expired += other.msgs_expired;
        self.results_found += other.results_found;
        self.crashes_injected += other.crashes_injected;
        self.elections_held += other.elections_held;
        self.clusters_dead += other.clusters_dead;
        self.reindex_received += other.reindex_received;
        self.ov_admitted += other.ov_admitted;
        self.ov_rehome_admitted += other.ov_rehome_admitted;
        self.ov_rejected_budget += other.ov_rejected_budget;
        self.ov_rejected_queue += other.ov_rejected_queue;
        self.ov_rehome_sent += other.ov_rehome_sent;
        self.ov_handoff_failed += other.ov_handoff_failed;
        self.ov_delivered += other.ov_delivered;
        self.ov_shed_discipline += other.ov_shed_discipline;
        self.ov_shed_dead += other.ov_shed_dead;
        self.ov_shed_residual += other.ov_shed_residual;
        self.ov_degraded += other.ov_degraded;
        self.ov_brownout_entries += other.ov_brownout_entries;
        self.ov_brownout_ticks += other.ov_brownout_ticks;
        self.ov_wait_ticks += other.ov_wait_ticks;
        self.ov_peak_depth = self.ov_peak_depth.max(other.ov_peak_depth);
        for (mine, theirs) in self.ov_wait_hist.iter_mut().zip(other.ov_wait_hist.iter()) {
            *mine += *theirs;
        }
        for (mine, theirs) in self.hop_hist.iter_mut().zip(other.hop_hist.iter()) {
            *mine += *theirs;
        }
    }

    /// The scale engine's extended conservation ledger, meaningful
    /// whenever the overload policy is active: every issued query is
    /// admitted, rejected, or handed off; every handoff is admitted or
    /// failed; and (at a completed run) everything admitted anywhere
    /// was served or explicitly shed. With the empty policy every term
    /// is zero except `queries_issued`, so callers gate on activity.
    pub fn overload_conserved(&self) -> bool {
        let gated = self.ov_admitted
            + self.ov_rejected_budget
            + self.ov_rejected_queue
            + self.ov_rehome_sent;
        let served =
            self.ov_delivered + self.ov_shed_discipline + self.ov_shed_dead + self.ov_shed_residual;
        gated == self.queries_issued
            && self.ov_rehome_sent == self.ov_rehome_admitted + self.ov_handoff_failed
            && self.ov_admitted + self.ov_rehome_admitted == served
    }

    /// Upper bound on the waiting time of the q-quantile served query,
    /// in ticks, from the power-of-two wait histogram. Returns 0 when
    /// nothing was served.
    pub fn ov_wait_quantile_ticks(&self, q: f64) -> u64 {
        let total: u64 = self.ov_wait_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &count) in self.ov_wait_hist.iter().enumerate() {
            seen += count;
            if seen >= target {
                return if b == 0 { 0 } else { 1u64 << b };
            }
        }
        1u64 << (SCALE_MAX_HOPS - 1)
    }

    /// Total simulation events processed — query arrivals, elections,
    /// and every message that reached a delivery decision. The
    /// events/sec throughput figure in `BENCH_scale.json` is this over
    /// wall time.
    pub fn events_processed(&self) -> u64 {
        self.queries_issued
            + self.queries_failed
            + self.elections_held
            + self.msgs_delivered
            + self.msgs_dropped_loss
            + self.msgs_dropped_partition
            + self.msgs_dropped_dead
            + self.msgs_expired
            + self.reindex_received
    }

    /// Renders the metrics as a JSON object (hand-rolled, stable key
    /// order, integers only).
    pub fn to_json(&self) -> String {
        let hist: Vec<String> = self.hop_hist.iter().map(|v| v.to_string()).collect();
        let wait_hist: Vec<String> = self.ov_wait_hist.iter().map(|v| v.to_string()).collect();
        format!(
            concat!(
                "{{\"peers\": {}, \"clusters\": {}, \"ticks\": {}, ",
                "\"queries_issued\": {}, \"queries_failed\": {}, ",
                "\"submissions_flaked\": {}, \"msgs_sent\": {}, ",
                "\"msgs_delivered\": {}, \"msgs_dropped_loss\": {}, ",
                "\"msgs_dropped_partition\": {}, \"msgs_dropped_dead\": {}, ",
                "\"msgs_delayed\": {}, \"msgs_expired\": {}, ",
                "\"results_found\": {}, \"crashes_injected\": {}, ",
                "\"elections_held\": {}, \"clusters_dead\": {}, ",
                "\"reindex_received\": {}, \"events_processed\": {}, ",
                "\"ov_admitted\": {}, \"ov_rehome_admitted\": {}, ",
                "\"ov_rejected_budget\": {}, \"ov_rejected_queue\": {}, ",
                "\"ov_rehome_sent\": {}, \"ov_handoff_failed\": {}, ",
                "\"ov_delivered\": {}, \"ov_shed_discipline\": {}, ",
                "\"ov_shed_dead\": {}, \"ov_shed_residual\": {}, ",
                "\"ov_degraded\": {}, \"ov_brownout_entries\": {}, ",
                "\"ov_brownout_ticks\": {}, \"ov_wait_ticks\": {}, ",
                "\"ov_peak_depth\": {}, \"ov_wait_p99_ticks\": {}, ",
                "\"ov_wait_hist\": [{}], ",
                "\"hop_hist\": [{}]}}"
            ),
            self.peers,
            self.clusters,
            self.ticks,
            self.queries_issued,
            self.queries_failed,
            self.submissions_flaked,
            self.msgs_sent,
            self.msgs_delivered,
            self.msgs_dropped_loss,
            self.msgs_dropped_partition,
            self.msgs_dropped_dead,
            self.msgs_delayed,
            self.msgs_expired,
            self.results_found,
            self.crashes_injected,
            self.elections_held,
            self.clusters_dead,
            self.reindex_received,
            self.events_processed(),
            self.ov_admitted,
            self.ov_rehome_admitted,
            self.ov_rejected_budget,
            self.ov_rejected_queue,
            self.ov_rehome_sent,
            self.ov_handoff_failed,
            self.ov_delivered,
            self.ov_shed_discipline,
            self.ov_shed_dead,
            self.ov_shed_residual,
            self.ov_degraded,
            self.ov_brownout_entries,
            self.ov_brownout_ticks,
            self.ov_wait_ticks,
            self.ov_peak_depth,
            self.ov_wait_quantile_ticks(0.99),
            wait_hist.join(", "),
            hist.join(", "),
        )
    }
}

/// Layout-*dependent* observability, deliberately kept out of
/// [`ScaleMetrics`] so bitwise comparisons stay meaningful: how much
/// traffic crossed shard boundaries, queue depth, and the shard count
/// the run actually used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScaleDiag {
    /// Shards the run executed with (after clamping).
    pub shards: u64,
    /// Messages routed to a different shard.
    pub cross_shard_msgs: u64,
    /// Messages that stayed on their source shard.
    pub intra_shard_msgs: u64,
    /// Largest per-shard event-queue depth observed.
    pub queue_high_water: u64,
}

/// A shard's slice of the overlay plus its mutable cluster state.
struct ShardState {
    /// First owned cluster (global id).
    base: u32,
    /// CSR offsets into `edges`, one per owned cluster plus sentinel.
    offsets: Vec<u32>,
    /// Out-neighbor cluster ids (global), power-law degrees.
    edges: Vec<u32>,
    /// Per-owned-cluster member-liveness bitmask.
    alive: Vec<u64>,
    /// Per-owned-cluster acting-head member offset.
    head: Vec<u32>,
    /// Per-owned-cluster message sequence counters.
    seq: Vec<u32>,
}

impl ShardState {
    fn local(&self, cluster: u32) -> usize {
        (cluster - self.base) as usize
    }

    fn owns(&self, cluster: u32) -> bool {
        cluster.wrapping_sub(self.base) < self.alive.len() as u32
    }

    fn neighbors(&self, local: usize) -> &[u32] {
        &self.edges[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

/// Static parameters shared read-only by every shard.
#[derive(Debug, Clone, Copy)]
struct ScaleParams {
    clusters: usize,
    cluster_size: usize,
    redundancy_k: usize,
    ttl: u8,
    query_rate: f64,
    avg_outdegree: f64,
    ticks: u32,
    horizon: u32,
    seed: u64,
    fault_seed: u64,
    overload: OverloadPolicy,
}

/// The sharded scale simulator. Construction validates and captures
/// the configuration; [`run`](ShardedSimulation::run) executes the
/// tick loop (re-runnable — all mutable state is per-run). A run can
/// be paused at any tick boundary ([`run_to`](ShardedSimulation::run_to)),
/// serialized ([`snapshot`](ShardedSimulation::snapshot)), and resumed
/// at any shard count ([`restore`](ShardedSimulation::restore)) with
/// bitwise-identical final metrics.
#[derive(Debug)]
pub struct ShardedSimulation {
    params: ScaleParams,
    plan: FaultPlan,
    shards: usize,
    diag: ScaleDiag,
    barrier_timeout_ticks: u32,
    inject_panic: Option<(usize, u32)>,
    resume: Option<ResumeState>,
}

impl ShardedSimulation {
    /// Builds a fault-free run.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `cluster_size`
    /// exceeds [`SCALE_MAX_CLUSTER`].
    pub fn new(config: &Config, opts: ScaleOptions) -> Self {
        ShardedSimulation::with_faults(config, opts, &FaultPlan::default())
    }

    /// Builds a run with a fault plan.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or plan is invalid, or
    /// `cluster_size` exceeds [`SCALE_MAX_CLUSTER`].
    pub fn with_faults(config: &Config, opts: ScaleOptions, plan: &FaultPlan) -> Self {
        config.validate().expect("invalid configuration");
        plan.validate().expect("invalid fault plan");
        opts.overload.validate().expect("invalid overload policy");
        assert!(
            config.cluster_size <= SCALE_MAX_CLUSTER,
            "scale engine supports cluster_size <= {SCALE_MAX_CLUSTER}"
        );
        let clusters = config.num_clusters();
        let ticks = (opts.duration_secs.ceil() as u32).max(1);
        // The delivery ring must reach one tick past the worst-case
        // delay. Concurrent delay windows stack, so sum them; +2
        // covers the base next-tick hop and the current tick's slot.
        let max_delay: u32 = plan
            .faults
            .iter()
            .map(|f| match f {
                FaultSpec::MessageDelay { delay_secs, .. } => (delay_secs.ceil() as u32).max(1),
                _ => 0,
            })
            .sum();
        ShardedSimulation {
            params: ScaleParams {
                clusters,
                cluster_size: config.cluster_size,
                redundancy_k: config.redundancy_k,
                ttl: config.ttl.min((SCALE_MAX_HOPS - 1) as u16) as u8,
                query_rate: config.query_rate,
                avg_outdegree: config.avg_outdegree.max(1.01),
                ticks,
                horizon: max_delay + 2,
                seed: opts.seed,
                fault_seed: opts.fault_seed,
                overload: opts.overload,
            },
            plan: plan.clone(),
            shards: opts.shards.clamp(1, clusters),
            diag: ScaleDiag::default(),
            barrier_timeout_ticks: opts.barrier_timeout_ticks,
            inject_panic: opts.inject_panic,
            resume: None,
        }
    }

    /// Layout-dependent diagnostics from the most recent
    /// [`run`](ShardedSimulation::run); zeroed before the first.
    pub fn diag(&self) -> &ScaleDiag {
        &self.diag
    }

    /// Executes the run and folds per-shard metrics in ascending shard
    /// order. Bitwise identical for every shard count. Resumes from a
    /// prior [`run_to`](ShardedSimulation::run_to) /
    /// [`restore`](ShardedSimulation::restore) point if one is set,
    /// and clears it, so a subsequent call starts fresh.
    ///
    /// # Panics
    ///
    /// Panics with the [`ShardFailure`] rendering if any shard reactor
    /// fails; use [`try_run`](ShardedSimulation::try_run) to handle
    /// failures as values.
    pub fn run(&mut self) -> ScaleMetrics {
        self.try_run().unwrap_or_else(|f| panic!("{f}"))
    }

    /// [`run`](ShardedSimulation::run), with shard panics, barrier
    /// stalls, and disconnects reported as a [`ShardFailure`] instead
    /// of panicking or hanging: the supervisor wraps every reactor step
    /// in `catch_unwind` and every barrier wait is error-aware, so one
    /// dead shard unwinds the whole run promptly.
    pub fn try_run(&mut self) -> Result<ScaleMetrics, ShardFailure> {
        let (mut metrics, _) = self.execute(self.params.ticks, false, worker_count())?;
        metrics.peers = (self.params.clusters * self.params.cluster_size) as u64;
        metrics.clusters = self.params.clusters as u64;
        metrics.ticks = self.params.ticks as u64;
        Ok(metrics)
    }

    /// Advances the run to tick `tick` (clamped to the run length) and
    /// parks the canonical engine state for
    /// [`snapshot`](ShardedSimulation::snapshot) or a later
    /// [`run`](ShardedSimulation::run) to pick up.
    pub fn run_to(&mut self, tick: u32) -> Result<(), ShardFailure> {
        let (_, resume) = self.execute(tick, true, worker_count())?;
        self.resume = resume;
        Ok(())
    }

    /// Next tick a [`run`](ShardedSimulation::run) would execute: the
    /// parked checkpoint position, or 0 when starting fresh.
    pub fn tick(&self) -> u32 {
        self.resume.as_ref().map_or(0, |r| r.tick)
    }

    /// Total ticks in the run (`duration_secs` rounded up).
    pub fn total_ticks(&self) -> u32 {
        self.params.ticks
    }

    /// Whether overload control is active for this run (from the
    /// options on a fresh run, or the snapshot on a restored one).
    pub fn overload_active(&self) -> bool {
        !self.params.overload.is_empty()
    }

    /// The fault plan this run injects (from the snapshot on a restored
    /// one).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Serializes the parked engine state (see
    /// [`run_to`](ShardedSimulation::run_to)) into a sealed snapshot.
    /// The state is canonical — per-cluster arrays indexed by global
    /// cluster id, events and messages in layout-invariant order — so
    /// the snapshot is byte-identical no matter how many shards
    /// produced it, and restores at any shard count. Calling this
    /// before any `run_to` snapshots the initial (tick 0) state.
    pub fn snapshot(&mut self) -> Vec<u8> {
        if self.resume.is_none() {
            self.run_to(0)
                .expect("zero-tick state materialization cannot fail");
        }
        let r = self
            .resume
            .as_ref()
            .expect("resume state just materialized");
        let p = &self.params;
        let mut w = SnapWriter::new();
        w.len(p.clusters);
        w.len(p.cluster_size);
        w.len(p.redundancy_k);
        w.u8(p.ttl);
        w.f64(p.query_rate);
        w.f64(p.avg_outdegree);
        w.u32(p.ticks);
        w.u32(p.horizon);
        w.u64(p.seed);
        w.u64(p.fault_seed);
        w.str(&self.plan.to_json());
        w.str(&p.overload.to_json());
        w.u32(r.tick);
        for &a in &r.alive {
            w.u64(a);
        }
        for &h in &r.head {
            w.u32(h);
        }
        for &s in &r.seq {
            w.u32(s);
        }
        for ov in &r.ov {
            w.f64(ov.credit);
            w.u8(ov.brownout as u8);
            w.u32(ov.pressure_run);
            w.u32(ov.relief_run);
            w.u32(ov.strikes);
            w.len(ov.queue.len());
            for e in &ov.queue {
                w.u32(e.arrival);
                w.u64(e.key);
                w.u8(e.ttl);
                w.u8(e.fanout);
            }
        }
        w.len(r.events.len());
        for &(time, event) in &r.events {
            w.f64(time);
            match event {
                ScaleEvent::Query { peer, n, tokens } => {
                    w.u8(0);
                    w.u64(peer);
                    w.u32(n);
                    w.f64(tokens);
                }
                ScaleEvent::Election { cluster } => {
                    w.u8(1);
                    w.u32(cluster);
                }
            }
        }
        w.len(r.msgs.len());
        for m in &r.msgs {
            w.u32(m.deliver_tick);
            w.u32(m.src_cluster);
            w.u32(m.seq);
            w.u32(m.dst_cluster);
            match m.kind {
                MsgKind::Flood {
                    query_key,
                    ttl_left,
                    hops,
                } => {
                    w.u8(0);
                    w.u64(query_key);
                    w.u8(ttl_left);
                    w.u8(hops);
                }
                MsgKind::Reindex => w.u8(1),
                MsgKind::Rehome {
                    query_key,
                    ttl,
                    arrival,
                } => {
                    w.u8(2);
                    w.u64(query_key);
                    w.u8(ttl);
                    w.u32(arrival);
                }
            }
        }
        snap_scale_metrics(&mut w, &r.metrics);
        w.seal(ENGINE_SCALE)
    }

    /// Rebuilds a paused run from a sealed scale snapshot. The
    /// workload (config-derived parameters, fault plan, seeds) comes
    /// from the snapshot; only `opts.shards`,
    /// `opts.barrier_timeout_ticks`, and `opts.inject_panic` are
    /// honored — resuming at a different shard count than the one
    /// that produced the snapshot still yields bitwise-identical
    /// metrics. Every field is validated; impossible values are
    /// [`SnapshotError::Malformed`], never panics.
    pub fn restore(data: &[u8], opts: ScaleOptions) -> Result<ShardedSimulation, SnapshotError> {
        let malformed = |msg: String| SnapshotError::Malformed(msg);
        let mut r = SnapReader::open(data)?;
        r.expect_engine(ENGINE_SCALE)?;
        let clusters = r.len("clusters")?;
        let cluster_size = r.len("cluster_size")?;
        let redundancy_k = r.len("redundancy_k")?;
        let ttl = r.u8("ttl")?;
        let query_rate = r.f64("query_rate")?;
        let avg_outdegree = r.f64("avg_outdegree")?;
        let ticks = r.u32("ticks")?;
        let horizon = r.u32("horizon")?;
        let seed = r.u64("seed")?;
        let fault_seed = r.u64("fault_seed")?;
        if clusters == 0 {
            return Err(malformed("zero clusters".into()));
        }
        if cluster_size == 0 || cluster_size > SCALE_MAX_CLUSTER {
            return Err(malformed(format!(
                "cluster_size {cluster_size} outside [1, {SCALE_MAX_CLUSTER}]"
            )));
        }
        if redundancy_k == 0 || redundancy_k > cluster_size {
            return Err(malformed(format!(
                "redundancy_k {redundancy_k} outside [1, cluster_size]"
            )));
        }
        if ttl as usize >= SCALE_MAX_HOPS {
            return Err(malformed(format!(
                "ttl {ttl} exceeds {}",
                SCALE_MAX_HOPS - 1
            )));
        }
        if ticks == 0 || horizon < 2 {
            return Err(malformed(format!(
                "ticks {ticks} / horizon {horizon} out of range"
            )));
        }
        if !query_rate.is_finite() || query_rate <= 0.0 {
            return Err(malformed(format!("query_rate {query_rate} not positive")));
        }
        if !avg_outdegree.is_finite() || avg_outdegree <= 1.0 {
            return Err(malformed(format!("avg_outdegree {avg_outdegree} <= 1")));
        }
        let plan = FaultPlan::from_json(r.str("fault plan")?)
            .map_err(|e| malformed(format!("embedded fault plan: {e}")))?;
        plan.validate()
            .map_err(|e| malformed(format!("embedded fault plan: {e}")))?;
        let overload = OverloadPolicy::from_json(r.str("overload policy")?)
            .map_err(|e| malformed(format!("embedded overload policy: {e}")))?;
        overload
            .validate()
            .map_err(|e| malformed(format!("embedded overload policy: {e}")))?;
        let tick = r.u32("resume tick")?;
        if tick > ticks {
            return Err(malformed(format!(
                "resume tick {tick} past run end {ticks}"
            )));
        }
        let mut alive = Vec::with_capacity(clusters);
        let full_mask = if cluster_size >= 64 {
            u64::MAX
        } else {
            (1u64 << cluster_size) - 1
        };
        for _ in 0..clusters {
            let mask = r.u64("alive mask")?;
            if mask & !full_mask != 0 {
                return Err(malformed("alive mask names nonexistent members".into()));
            }
            alive.push(mask);
        }
        let mut head = Vec::with_capacity(clusters);
        for _ in 0..clusters {
            let h = r.u32("head offset")?;
            if h as usize >= cluster_size {
                return Err(malformed(format!("head offset {h} outside cluster")));
            }
            head.push(h);
        }
        let mut seq = Vec::with_capacity(clusters);
        for _ in 0..clusters {
            seq.push(r.u32("seq counter")?);
        }
        let mut ov = Vec::with_capacity(clusters);
        for _ in 0..clusters {
            let credit = r.f64("ov credit")?;
            if !credit.is_finite() || credit < 0.0 {
                return Err(malformed(format!("ov credit {credit} not a valid level")));
            }
            let brownout = match r.u8("ov brownout flag")? {
                0 => false,
                1 => true,
                other => return Err(malformed(format!("ov brownout flag {other} not a bool"))),
            };
            let pressure_run = r.u32("ov pressure run")?;
            let relief_run = r.u32("ov relief run")?;
            let strikes = r.u32("ov strikes")?;
            let n_entries = r.len("ov queue len")?;
            let mut queue = VecDeque::with_capacity(n_entries);
            for _ in 0..n_entries {
                let arrival = r.u32("ov entry arrival")?;
                let key = r.u64("ov entry key")?;
                let entry_ttl = r.u8("ov entry ttl")?;
                let fanout = r.u8("ov entry fanout")?;
                if arrival > tick {
                    return Err(malformed(format!(
                        "ov entry arrival {arrival} in the future"
                    )));
                }
                if entry_ttl as usize >= SCALE_MAX_HOPS {
                    return Err(malformed(format!("ov entry ttl {entry_ttl} out of range")));
                }
                queue.push_back(OvEntry {
                    arrival,
                    key,
                    ttl: entry_ttl,
                    fanout,
                });
            }
            ov.push(ClusterOvScale {
                queue,
                credit,
                brownout,
                pressure_run,
                relief_run,
                strikes,
            });
        }
        let peers_total = (clusters * cluster_size) as u64;
        let n_events = r.len("event count")?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let time = r.f64("event time")?;
            if !time.is_finite() || time < tick as f64 || time >= ticks as f64 {
                return Err(malformed(format!("event time {time} outside run")));
            }
            // The engine schedules whole ticks only; the tick queue
            // would otherwise run a fractional time at its floor.
            if time.fract() != 0.0 {
                return Err(malformed(format!("event time {time} is not a whole tick")));
            }
            let event = match r.u8("event tag")? {
                0 => {
                    let peer = r.u64("event peer")?;
                    let n = r.u32("event arrival index")?;
                    let tokens = r.f64("event tokens")?;
                    if peer >= peers_total {
                        return Err(malformed(format!("event peer {peer} out of range")));
                    }
                    if !tokens.is_finite() || tokens < 0.0 {
                        return Err(malformed(format!(
                            "event tokens {tokens} not a valid level"
                        )));
                    }
                    ScaleEvent::Query { peer, n, tokens }
                }
                1 => {
                    let cluster = r.u32("event cluster")?;
                    if cluster as usize >= clusters {
                        return Err(malformed(format!("event cluster {cluster} out of range")));
                    }
                    ScaleEvent::Election { cluster }
                }
                other => return Err(malformed(format!("unknown event tag {other}"))),
            };
            events.push((time, event));
        }
        let n_msgs = r.len("message count")?;
        let mut msgs = Vec::with_capacity(n_msgs);
        for _ in 0..n_msgs {
            let deliver_tick = r.u32("msg deliver tick")?;
            let src_cluster = r.u32("msg src cluster")?;
            let mseq = r.u32("msg seq")?;
            let dst_cluster = r.u32("msg dst cluster")?;
            if deliver_tick < tick || deliver_tick >= ticks || deliver_tick - tick >= horizon {
                return Err(malformed(format!(
                    "msg deliver tick {deliver_tick} outside the delivery window"
                )));
            }
            if src_cluster as usize >= clusters || dst_cluster as usize >= clusters {
                return Err(malformed("msg names a nonexistent cluster".into()));
            }
            let kind = match r.u8("msg kind tag")? {
                0 => {
                    let query_key = r.u64("msg query key")?;
                    let ttl_left = r.u8("msg ttl")?;
                    let hops = r.u8("msg hops")?;
                    if ttl_left as usize >= SCALE_MAX_HOPS {
                        return Err(malformed(format!("msg ttl {ttl_left} out of range")));
                    }
                    MsgKind::Flood {
                        query_key,
                        ttl_left,
                        hops,
                    }
                }
                1 => MsgKind::Reindex,
                2 => {
                    let query_key = r.u64("msg query key")?;
                    let msg_ttl = r.u8("msg ttl")?;
                    let arrival = r.u32("msg arrival")?;
                    if msg_ttl as usize >= SCALE_MAX_HOPS {
                        return Err(malformed(format!("msg ttl {msg_ttl} out of range")));
                    }
                    if arrival > deliver_tick {
                        return Err(malformed(format!(
                            "rehome arrival {arrival} after delivery tick {deliver_tick}"
                        )));
                    }
                    MsgKind::Rehome {
                        query_key,
                        ttl: msg_ttl,
                        arrival,
                    }
                }
                other => return Err(malformed(format!("unknown msg kind tag {other}"))),
            };
            msgs.push(ShardMsg {
                deliver_tick,
                src_cluster,
                seq: mseq,
                dst_cluster,
                kind,
            });
        }
        let metrics = unsnap_scale_metrics(&mut r)?;
        r.finish()?;
        Ok(ShardedSimulation {
            params: ScaleParams {
                clusters,
                cluster_size,
                redundancy_k,
                ttl,
                query_rate,
                avg_outdegree,
                ticks,
                horizon,
                seed,
                fault_seed,
                overload,
            },
            plan,
            shards: opts.shards.clamp(1, clusters),
            diag: ScaleDiag::default(),
            barrier_timeout_ticks: opts.barrier_timeout_ticks,
            inject_panic: opts.inject_panic,
            resume: Some(ResumeState {
                tick,
                alive,
                head,
                seq,
                ov,
                events,
                msgs,
                metrics,
            }),
        })
    }

    /// Runs ticks `[current, until)` under the supervisor on `workers`
    /// threads (clamped to `[1, shards]`), folding per-shard results in
    /// ascending shard order. With `keep_state` the canonical resume
    /// state at `until` is returned alongside the cumulative metrics.
    /// The worker count changes only which thread steps which reactor,
    /// never what any reactor computes.
    fn execute(
        &mut self,
        until: u32,
        keep_state: bool,
        workers: usize,
    ) -> Result<(ScaleMetrics, Option<ResumeState>), ShardFailure> {
        let params = self.params;
        let plan = &self.plan;
        let spans = shard_spans(params.clusters, self.shards);
        let shard_starts: Vec<usize> = spans.iter().map(|&(s, _)| s).collect();
        let n = spans.len();
        let workers = workers.clamp(1, n);
        let prior = self.resume.take();
        let t0 = prior.as_ref().map_or(0, |r| r.tick);
        let t1 = until.clamp(t0, params.ticks);
        let base_metrics = prior
            .as_ref()
            .map(|r| r.metrics.clone())
            .unwrap_or_default();

        // Slice the canonical state into per-shard carries: contiguous
        // cluster ranges for the arrays, ownership filters for events
        // and messages. A fresh start carries nothing and seeds
        // in-shard instead.
        let carries: Vec<Option<ShardCarry>> = match &prior {
            None => (0..n).map(|_| None).collect(),
            Some(r) => spans
                .iter()
                .map(|&(s, e)| {
                    Some(ShardCarry {
                        alive: r.alive[s..e].to_vec(),
                        head: r.head[s..e].to_vec(),
                        seq: r.seq[s..e].to_vec(),
                        ov: r.ov[s..e].to_vec(),
                        events: r
                            .events
                            .iter()
                            .filter(|(_, ev)| {
                                let c = event_cluster(&params, ev) as usize;
                                c >= s && c < e
                            })
                            .copied()
                            .collect(),
                        msgs: r
                            .msgs
                            .iter()
                            .filter(|m| {
                                let c = m.dst_cluster as usize;
                                c >= s && c < e
                            })
                            .copied()
                            .collect(),
                    })
                })
                .collect(),
        };
        let timeout = if self.barrier_timeout_ticks == 0 {
            None
        } else {
            Some(Duration::from_millis(100) * self.barrier_timeout_ticks)
        };
        let inject = self.inject_panic;
        let inject_for = |shard: usize| inject.filter(|&(s, _)| s == shard).map(|(_, at)| at);
        #[allow(
            clippy::disallowed_types,
            reason = "F2 sanctioned: watchdog heartbeats, read only by the supervisor's timeout path"
        )]
        let progress: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(t0)).collect();

        // One bounded channel per ordered shard pair. Capacity 2: a
        // shard only sends tick t after receiving every tick t−1 batch,
        // so at most the previous and current tick's batches can be
        // unconsumed.
        #[allow(
            clippy::disallowed_types,
            reason = "F3 sanctioned: supervised barrier channels; every send/recv error becomes a ShardError"
        )]
        let mut txs: Vec<Vec<Option<SyncSender<Batch>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        #[allow(
            clippy::disallowed_types,
            reason = "F3 sanctioned: supervised barrier channels; every send/recv error becomes a ShardError"
        )]
        let mut rxs: Vec<Vec<Option<Receiver<Batch>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (i, row) in txs.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                if i != j {
                    let (tx, rx) = sync_channel(2);
                    *slot = Some(tx);
                    rxs[j][i] = Some(rx);
                }
            }
        }
        let mut inputs = txs
            .into_iter()
            .zip(rxs)
            .zip(carries)
            .zip(&progress)
            .enumerate()
            .map(|(i, (((txs, rxs), carry), progress))| ShardCtx {
                params: &params,
                plan,
                shard_starts: &shard_starts,
                span: spans[i],
                range: (t0, t1),
                carry,
                keep_state,
                inject_at: inject_for(i),
                timeout,
                txs,
                rxs,
                progress,
            });
        // Contiguous groups of shards, one per worker thread.
        let groups: Vec<Vec<ShardCtx<'_>>> = shard_spans(n, workers)
            .iter()
            .map(|&(s, e)| inputs.by_ref().take(e - s).collect())
            .collect();

        let outcomes: Vec<Result<ShardRun, ShardError>> = if groups.len() == 1 {
            groups.into_iter().flat_map(run_group).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|group| {
                        let shards = group.len();
                        (shards, scope.spawn(move || run_group(group)))
                    })
                    .collect();
                // Join in group order: outcomes come back in ascending
                // shard order, so the fold below merges ascending.
                // Panics were converted to ShardError per reactor step;
                // a join error can only mean the worker loop itself
                // died, taking its whole group with it.
                handles
                    .into_iter()
                    .flat_map(|(shards, h)| match h.join() {
                        Ok(runs) => runs,
                        Err(payload) => {
                            let reason = format!(
                                "supervisor wrapper panicked: {}",
                                panic_message(payload.as_ref())
                            );
                            (0..shards)
                                .map(|_| {
                                    Err(ShardError {
                                        tick: t0,
                                        reason: reason.clone(),
                                    })
                                })
                                .collect()
                        }
                    })
                    .collect()
            })
        };

        let shard_ticks: Vec<u32> = progress.iter().map(|p| p.load(Ordering::Relaxed)).collect();
        let mut failures: Vec<(usize, ShardError)> = Vec::new();
        let mut runs: Vec<ShardRun> = Vec::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(run) => runs.push(run),
                Err(err) => failures.push((i, err)),
            }
        }
        if !failures.is_empty() {
            // Attribute the failure to its root cause: a panic beats a
            // watchdog stall beats a peer disconnect (the latter two
            // are downstream of whichever shard died first).
            let rank = |reason: &str| {
                if reason.starts_with("panicked") || reason.starts_with("supervisor") {
                    0
                } else if reason.starts_with("barrier stalled") {
                    1
                } else {
                    2
                }
            };
            failures.sort_by_key(|(shard, err)| (rank(&err.reason), *shard));
            let (shard, err) = failures.swap_remove(0);
            self.diag = ScaleDiag {
                shards: n as u64,
                ..ScaleDiag::default()
            };
            return Err(ShardFailure {
                shard,
                tick: err.tick,
                reason: err.reason,
                shard_ticks,
            });
        }

        let mut metrics = base_metrics;
        let mut diag = ScaleDiag {
            shards: n as u64,
            ..ScaleDiag::default()
        };
        let mut resume = keep_state.then(|| ResumeState {
            tick: t1,
            alive: Vec::with_capacity(params.clusters),
            head: Vec::with_capacity(params.clusters),
            seq: Vec::with_capacity(params.clusters),
            ov: Vec::with_capacity(params.clusters),
            events: Vec::new(),
            msgs: Vec::new(),
            metrics: ScaleMetrics::default(),
        });
        for run in runs {
            metrics.merge(&run.metrics);
            diag.cross_shard_msgs += run.diag.cross_shard_msgs;
            diag.intra_shard_msgs += run.diag.intra_shard_msgs;
            diag.queue_high_water = diag.queue_high_water.max(run.diag.queue_high_water);
            if let (Some(rs), Some(carry)) = (resume.as_mut(), run.carry) {
                rs.alive.extend(carry.alive);
                rs.head.extend(carry.head);
                rs.seq.extend(carry.seq);
                rs.ov.extend(carry.ov);
                rs.events.extend(carry.events);
                rs.msgs.extend(carry.msgs);
            }
        }
        if let Some(rs) = resume.as_mut() {
            // Canonicalize: per-cluster relative order is what the
            // engine's invariance rests on, so a *stable* sort by
            // owning cluster (events arrive per-shard in queue pop
            // order) and a total-order sort for messages make the
            // state — and hence the snapshot bytes — identical no
            // matter how many shards produced it.
            rs.events.sort_by_key(|(_, ev)| event_cluster(&params, ev));
            rs.msgs
                .sort_unstable_by_key(|m| (m.deliver_tick, m.src_cluster, m.seq));
            rs.metrics = metrics.clone();
        }
        self.diag = diag;
        Ok((metrics, resume))
    }
}

/// Worker threads for a run: one per available core. A run never
/// spawns more workers than it has shards.
fn worker_count() -> usize {
    resolve_thread_budget(0)
}

/// Runs one step of a shard reactor under `catch_unwind`, converting a
/// panic into a [`ShardError`] carrying the tick the reactor had
/// reached — the supervisor's fail-fast unit.
#[allow(
    clippy::disallowed_types,
    reason = "F2 sanctioned: watchdog heartbeats, read only by the supervisor's timeout path"
)]
fn supervised<T>(
    progress: &AtomicU32,
    step: impl FnOnce() -> Result<T, ShardError>,
) -> Result<T, ShardError> {
    catch_unwind(AssertUnwindSafe(step)).unwrap_or_else(|payload| {
        Err(ShardError {
            tick: progress.load(Ordering::Relaxed),
            reason: format!("panicked: {}", panic_message(payload.as_ref())),
        })
    })
}

/// Steps a contiguous group of shard reactors through their tick range
/// on the calling thread: every reactor runs tick `t` before any runs
/// `t + 1`, in ascending shard order. That order cannot deadlock: a
/// reactor at tick `t` waits only for peers still short of `t − 1`,
/// and a group that has reached `t` has finished `t − 1` for all its
/// members, so the group a reactor waits on never waits back. A reactor
/// that fails is dropped on the spot; its channels disconnect, and
/// every peer fails at its next barrier instead of hanging.
fn run_group(group: Vec<ShardCtx<'_>>) -> Vec<Result<ShardRun, ShardError>> {
    let Some(((t0, t1), clusters)) = group.first().map(|c| (c.range, c.params.clusters)) else {
        return Vec::new();
    };
    let mut scratch = DeliveryScratch {
        starts: vec![0; clusters + 1],
        ..DeliveryScratch::default()
    };
    let mut runners: Vec<Result<ShardRunner<'_>, ShardError>> = group
        .into_iter()
        .map(|ctx| {
            let progress = ctx.progress;
            supervised(progress, || Ok(ShardRunner::new(ctx)))
        })
        .collect();
    for t in t0..t1 {
        for slot in &mut runners {
            if let Ok(runner) = slot {
                let progress = runner.progress;
                if let Err(err) = supervised(progress, || runner.step(t, &mut scratch)) {
                    *slot = Err(err);
                }
            }
        }
    }
    runners
        .into_iter()
        .map(|slot| slot.map(ShardRunner::finish))
        .collect()
}

/// Power-law-ish outdegree for a cluster: a discrete Pareto draw with
/// the shape chosen so the continuous mean matches `avg_outdegree`,
/// clamped to `[1, min(64, clusters − 1)]`. An approximation of the
/// PLOD construction the instance generator uses — good enough for a
/// throughput benchmark, and a pure function of `(seed, cluster)`.
fn degree_of(params: &ScaleParams, cluster: u32) -> usize {
    if params.clusters <= 1 {
        return 0;
    }
    let cap = (params.clusters - 1).min(SCALE_MAX_CLUSTER);
    let alpha = params.avg_outdegree / (params.avg_outdegree - 1.0);
    let u = unit(keyed(SALT_DEGREE, params.seed, cluster as u64, 0)).max(1e-12);
    let d = (1.0 / u.powf(1.0 / alpha)).floor() as usize;
    d.clamp(1, cap)
}

/// Out-neighbor for edge slot `j` of `cluster`: uniform over the other
/// clusters (duplicates permitted — a multi-edge just means a
/// duplicate copy, which the open-flood cost model charges anyway).
fn edge_target(params: &ScaleParams, cluster: u32, j: usize) -> u32 {
    let raw = keyed(SALT_EDGE, params.seed, cluster as u64, j as u64);
    let pick = (raw % (params.clusters as u64 - 1)) as u32;
    if pick >= cluster {
        pick + 1
    } else {
        pick
    }
}

/// Shared file count of a peer — the Section 5.3 election criterion.
fn files_of(seed: u64, peer: u64) -> u64 {
    keyed(SALT_FILES, seed, peer, 0) % 10_000
}

/// Ticks until the next query arrival of `peer` after arrival `n`:
/// a discretized exponential with the Table 1 per-user query rate,
/// at least one tick.
fn arrival_gap(params: &ScaleParams, peer: u64, n: u32) -> u32 {
    let u = unit(keyed(SALT_ARRIVAL, params.seed, peer, n as u64)).max(1e-12);
    let dt = (-u.ln() / params.query_rate.max(1e-9)).ceil();
    (dt as u32).max(1)
}

/// Fault windows active at tick `t`, refreshed once per tick.
#[derive(Default)]
struct ActiveWindows {
    /// `(fault index, drop_prob)` for active loss windows.
    loss: Vec<(usize, f64)>,
    /// `(fault index, delay_prob, delay_ticks)` for active delays.
    delay: Vec<(usize, f64, u32)>,
    /// `(fault index, flake_prob)` for active flaky-partner windows.
    flake: Vec<(usize, f64)>,
    /// Sorted partitioned-cluster lists for active partitions.
    partitions: Vec<Vec<u32>>,
}

impl ActiveWindows {
    fn refresh(&mut self, plan: &FaultPlan, params: &ScaleParams, t: u32) {
        let now = t as f64;
        let active = |from: f64, until: f64| now >= from && now < until;
        self.loss.clear();
        self.delay.clear();
        self.flake.clear();
        self.partitions.clear();
        for (i, fault) in plan.faults.iter().enumerate() {
            match fault {
                FaultSpec::MessageLoss {
                    from_secs,
                    until_secs,
                    drop_prob,
                } if active(*from_secs, *until_secs) => {
                    self.loss.push((i, *drop_prob));
                }
                FaultSpec::MessageDelay {
                    from_secs,
                    until_secs,
                    delay_prob,
                    delay_secs,
                } if active(*from_secs, *until_secs) => {
                    self.delay
                        .push((i, *delay_prob, (delay_secs.ceil() as u32).max(1)));
                }
                FaultSpec::FlakyPartners {
                    from_secs,
                    until_secs,
                    flake_prob,
                } if active(*from_secs, *until_secs) => {
                    self.flake.push((i, *flake_prob));
                }
                FaultSpec::Partition {
                    from_secs,
                    until_secs,
                    clusters,
                } if active(*from_secs, *until_secs) => {
                    // Indices address the static cluster list (the
                    // scale engine has no churn, so "alive at window
                    // start" is the full list), wrapped modulo.
                    let mut ids: Vec<u32> = clusters
                        .iter()
                        .map(|&c| (c % params.clusters) as u32)
                        .collect();
                    ids.sort_unstable();
                    self.partitions.push(ids);
                }
                _ => {}
            }
        }
    }

    fn is_partitioned(&self, cluster: u32) -> bool {
        self.partitions
            .iter()
            .any(|ids| ids.binary_search(&cluster).is_ok())
    }
}

/// A shard's pending local events: a FIFO calendar queue keyed by
/// whole tick (see the module docs). Pops in ascending tick order and
/// in schedule order within a tick — the order a time-ordered heap with
/// FIFO tie-breaking gives for whole-tick times.
#[derive(Debug, Default)]
struct TickQueue {
    /// Tick of the bucket being drained.
    tick: u32,
    /// The bucket being drained; entries before `cursor` were popped.
    draining: Vec<ScaleEvent>,
    cursor: usize,
    /// Non-empty buckets for ticks after `tick`, each in schedule order.
    later: BTreeMap<u32, Vec<ScaleEvent>>,
    len: usize,
    /// Largest number of simultaneously pending events ever observed.
    high_water: usize,
}

impl TickQueue {
    /// Schedules `event` at `tick`, after everything already scheduled
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if `tick` precedes the tick of the last pop: the reactor
    /// never schedules into the past.
    fn schedule(&mut self, tick: u32, event: ScaleEvent) {
        assert!(
            tick >= self.tick,
            "scheduled tick {tick} before {}",
            self.tick
        );
        if tick == self.tick {
            self.draining.push(event);
        } else {
            self.later.entry(tick).or_default().push(event);
        }
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Pops the next event due at or before tick `now`, with its tick.
    /// The next bucket is loaded only once it is due, so a schedule
    /// into a tick before the next occupied one (an election one tick
    /// after a crash, say) still lands ahead of that bucket.
    fn pop_due(&mut self, now: u32) -> Option<(u32, ScaleEvent)> {
        if self.cursor == self.draining.len() {
            let next = self.later.first_entry().filter(|e| *e.key() <= now)?;
            let (tick, bucket) = next.remove_entry();
            self.tick = tick;
            self.draining = bucket;
            self.cursor = 0;
        }
        let event = self.draining[self.cursor];
        self.cursor += 1;
        self.len -= 1;
        Some((self.tick, event))
    }
}

/// Copies the messages due in one delivery slot into `out` in
/// `(src_cluster, seq)` order. One stable counting pass on
/// `src_cluster` writes into `order` the indices of `due` in delivery
/// order, with `starts` (one slot per cluster, plus one) as scratch;
/// exact without comparing `seq` because each source cluster's
/// messages already sit in `due` in ascending `seq` (see the module
/// docs). Scattering 4-byte indices keeps the random writes in cache,
/// and one tight gather loop then overlaps the random reads, so the
/// delivery loop reads `out` sequentially.
fn order_by_source(
    due: &[ShardMsg],
    starts: &mut [u32],
    order: &mut Vec<u32>,
    out: &mut Vec<ShardMsg>,
) {
    starts.fill(0);
    for m in due {
        starts[m.src_cluster as usize + 1] += 1;
    }
    for c in 1..starts.len() {
        starts[c] += starts[c - 1];
    }
    order.clear();
    order.resize(due.len(), 0);
    for (i, m) in due.iter().enumerate() {
        let at = &mut starts[m.src_cluster as usize];
        order[*at as usize] = i as u32;
        *at += 1;
    }
    out.clear();
    out.extend(order.iter().map(|&i| due[i as usize]));
    debug_assert!(
        out.windows(2)
            .all(|w| (w[0].src_cluster, w[0].seq) < (w[1].src_cluster, w[1].seq)),
        "a source cluster's messages entered the delivery slot out of seq order"
    );
}

/// Per-run mutable context of one shard's reactor.
struct Reactor<'a> {
    params: &'a ScaleParams,
    shard_starts: &'a [usize],
    state: ShardState,
    /// Per-owned-cluster overload state; all-default when the policy
    /// is empty (and then never touched).
    ov: Vec<ClusterOvScale>,
    queue: TickQueue,
    /// Future-delivery ring, indexed by `deliver_tick % horizon`.
    ring: Vec<Vec<ShardMsg>>,
    /// Per-destination-shard outgoing batches for the current tick.
    outbox: Vec<Vec<ShardMsg>>,
    windows: ActiveWindows,
    metrics: ScaleMetrics,
    diag: ScaleDiag,
}

impl Reactor<'_> {
    fn shard_of(&self, cluster: u32) -> usize {
        // partition_point over ascending span starts: the owner is the
        // last shard whose start is <= cluster.
        self.shard_starts
            .partition_point(|&s| s <= cluster as usize)
            - 1
    }

    /// Emits one message at tick `t`: assigns the per-source sequence
    /// number, applies source-side loss/delay windows, and routes to
    /// the destination shard's batch (or the local ring). Returns
    /// whether the message was actually scheduled for delivery —
    /// `false` means it was lost or expired, which the re-homing path
    /// folds into its handoff-failure ledger.
    fn emit(&mut self, t: u32, src: u32, dst: u32, kind: MsgKind) -> bool {
        let local = self.state.local(src);
        let seq = self.state.seq[local];
        self.state.seq[local] += 1;
        self.metrics.msgs_sent += 1;
        for &(i, prob) in &self.windows.loss {
            if chance(
                keyed(
                    SALT_LOSS,
                    self.params.fault_seed ^ i as u64,
                    src as u64,
                    seq as u64,
                ),
                prob,
            ) {
                self.metrics.msgs_dropped_loss += 1;
                return false;
            }
        }
        let mut delay = 0u32;
        for &(i, prob, ticks) in &self.windows.delay {
            if chance(
                keyed(
                    SALT_DELAY,
                    self.params.fault_seed ^ i as u64,
                    src as u64,
                    seq as u64,
                ),
                prob,
            ) {
                delay += ticks;
            }
        }
        if delay > 0 {
            self.metrics.msgs_delayed += 1;
        }
        let deliver = t + 1 + delay;
        if deliver >= self.params.ticks {
            self.metrics.msgs_expired += 1;
            return false;
        }
        let msg = ShardMsg {
            deliver_tick: deliver,
            src_cluster: src,
            seq,
            dst_cluster: dst,
            kind,
        };
        if self.state.owns(dst) {
            self.diag.intra_shard_msgs += 1;
            self.ring[(deliver % self.params.horizon) as usize].push(msg);
        } else {
            self.diag.cross_shard_msgs += 1;
            let dst_shard = self.shard_of(dst);
            self.outbox[dst_shard].push(msg);
        }
        true
    }

    /// Kills the acting head and every founding partner of an owned
    /// cluster; schedules an election one tick later if anyone is left.
    fn crash(&mut self, t: u32, cluster: u32) {
        let local = self.state.local(cluster);
        let k = self.params.redundancy_k.min(SCALE_MAX_CLUSTER) as u32;
        let mut doomed = if k >= 64 { u64::MAX } else { (1u64 << k) - 1 };
        doomed |= 1u64 << (self.state.head[local] % 64);
        let before = self.state.alive[local];
        self.state.alive[local] = before & !doomed;
        self.metrics.crashes_injected += (before & doomed).count_ones() as u64;
        if self.state.alive[local] == 0 {
            if before != 0 {
                self.metrics.clusters_dead += 1;
            }
        } else if t + 1 < self.params.ticks {
            self.queue.schedule(t + 1, ScaleEvent::Election { cluster });
        }
    }

    /// Applies instantaneous faults due at tick `t`, in plan order and
    /// ascending cluster order within each fault.
    fn apply_instant_faults(&mut self, plan: &FaultPlan, t: u32) {
        let (start, end) = (
            self.state.base,
            self.state.base + (self.state.alive.len() as u32),
        );
        for (i, fault) in plan.faults.iter().enumerate() {
            match fault {
                FaultSpec::CrashCluster {
                    at_secs,
                    cluster_index,
                } if *at_secs as u32 == t => {
                    let target = (cluster_index % self.params.clusters) as u32;
                    if target >= start && target < end {
                        self.crash(t, target);
                    }
                }
                FaultSpec::CrashFraction { at_secs, fraction } if *at_secs as u32 == t => {
                    for c in start..end {
                        if chance(
                            keyed(
                                SALT_CRASH,
                                self.params.fault_seed ^ i as u64,
                                c as u64,
                                t as u64,
                            ),
                            *fraction,
                        ) {
                            self.crash(t, c);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Processes one delivered message at tick `t`.
    fn deliver(&mut self, t: u32, msg: ShardMsg) {
        let local = self.state.local(msg.dst_cluster);
        match msg.kind {
            MsgKind::Flood {
                query_key,
                ttl_left,
                hops,
            } => {
                if self.state.alive[local] == 0 {
                    self.metrics.msgs_dropped_dead += 1;
                    return;
                }
                if self.windows.is_partitioned(msg.dst_cluster) {
                    self.metrics.msgs_dropped_partition += 1;
                    return;
                }
                self.metrics.msgs_delivered += 1;
                let bucket = (hops as usize).min(SCALE_MAX_HOPS - 1);
                self.metrics.hop_hist[bucket] += 1;
                if chance(
                    keyed(
                        SALT_HIT,
                        self.params.seed,
                        query_key,
                        msg.dst_cluster as u64,
                    ),
                    HIT_PROB,
                ) {
                    self.metrics.results_found += 1;
                }
                if ttl_left > 0 {
                    let deg = self.state.neighbors(local).len();
                    for e in 0..deg {
                        let dst = self.state.edges[self.state.offsets[local] as usize + e];
                        self.emit(
                            t,
                            msg.dst_cluster,
                            dst,
                            MsgKind::Flood {
                                query_key,
                                ttl_left: ttl_left - 1,
                                hops: hops + 1,
                            },
                        );
                    }
                }
            }
            MsgKind::Reindex => {
                if self.state.alive[local] != 0 {
                    self.metrics.reindex_received += 1;
                }
            }
            MsgKind::Rehome {
                query_key,
                ttl,
                arrival,
            } => {
                // The new home admits the refugee into its own queue
                // or the handoff fails — dead, partitioned, or full
                // destinations never trigger a second hop.
                if self.state.alive[local] == 0 || self.windows.is_partitioned(msg.dst_cluster) {
                    self.metrics.ov_handoff_failed += 1;
                    return;
                }
                let pol = self.params.overload;
                let cap = pol.queue_capacity as usize;
                if cap > 0 && self.ov[local].queue.len() >= cap {
                    self.metrics.ov_handoff_failed += 1;
                    return;
                }
                // Brownout at the *new* home still applies: the
                // granted TTL is the tighter of the handoff's and the
                // destination's current effective grant.
                let (dst_ttl, fanout, degraded) = self.ov_effective(local);
                if degraded {
                    self.metrics.ov_degraded += 1;
                }
                self.metrics.ov_rehome_admitted += 1;
                self.ov[local].queue.push_back(OvEntry {
                    arrival,
                    key: query_key,
                    ttl: ttl.min(dst_ttl),
                    fanout,
                });
                self.metrics.ov_peak_depth = self
                    .metrics
                    .ov_peak_depth
                    .max(self.ov[local].queue.len() as u64);
            }
        }
    }

    /// Effective (TTL, fanout cap, degraded?) grant at `local` right
    /// now: the configured TTL, tightened by brownout when the cluster
    /// is browned out and the policy defines one.
    fn ov_effective(&self, local: usize) -> (u8, u8, bool) {
        let base = self.params.ttl;
        match self.params.overload.brownout {
            Some(b) if self.ov[local].brownout => {
                let dec = b.ttl_decrement.min(u8::MAX as u16) as u8;
                let ttl = if base == 0 {
                    0
                } else {
                    base.saturating_sub(dec).max(1)
                };
                (ttl, b.fanout_limit.clamp(1, u8::MAX as u32) as u8, true)
            }
            _ => (base, 0, false),
        }
    }

    /// Admission control at `cluster`'s bounded work queue for a
    /// locally issued query. Draw-free: every decision is a pure
    /// function of cluster-local state, so the outcome is identical at
    /// any shard layout.
    fn ov_submit(&mut self, t: u32, cluster: u32, query_key: u64) {
        let local = self.state.local(cluster);
        let pol = self.params.overload;
        // Brownout degrades ride admission, not service: a query
        // accepted under pressure floods shallower even if it is
        // served after relief.
        let (eff_ttl, fanout, degraded) = self.ov_effective(local);
        let cap = pol.queue_capacity as usize;
        let full = cap > 0 && self.ov[local].queue.len() >= cap;
        if full {
            self.ov[local].strikes += 1;
            // Persistent saturation: hand the query to the first
            // overlay neighbor instead of rejecting yet again — the
            // deterministic re-homing path, at one message's cost.
            if pol.rehome_strikes > 0
                && self.ov[local].strikes >= pol.rehome_strikes
                && !self.state.neighbors(local).is_empty()
            {
                let dst = self.state.neighbors(local)[0];
                self.metrics.ov_rehome_sent += 1;
                let kind = MsgKind::Rehome {
                    query_key,
                    ttl: eff_ttl,
                    arrival: t,
                };
                if !self.emit(t, cluster, dst, kind) {
                    self.metrics.ov_handoff_failed += 1;
                }
                return;
            }
            match pol.discipline {
                ShedDiscipline::RejectAtAdmission => {
                    self.metrics.ov_rejected_queue += 1;
                    return;
                }
                ShedDiscipline::DropOldest => {
                    self.ov[local].queue.pop_front();
                    self.metrics.ov_shed_discipline += 1;
                }
                ShedDiscipline::DropLowestTtl => {
                    // Shed the queued entry with the lowest TTL (ties
                    // to the oldest), but only one no more useful than
                    // the arrival; otherwise the arrival is the victim.
                    let mut victim: Option<(usize, u8)> = None;
                    for (i, e) in self.ov[local].queue.iter().enumerate() {
                        match victim {
                            None if e.ttl <= eff_ttl => victim = Some((i, e.ttl)),
                            Some((_, vt)) if e.ttl < vt => victim = Some((i, e.ttl)),
                            _ => {}
                        }
                    }
                    match victim {
                        Some((i, _)) => {
                            self.ov[local].queue.remove(i);
                            self.metrics.ov_shed_discipline += 1;
                        }
                        None => {
                            self.metrics.ov_rejected_queue += 1;
                            return;
                        }
                    }
                }
            }
        } else {
            self.ov[local].strikes = 0;
        }
        if degraded {
            self.metrics.ov_degraded += 1;
        }
        self.metrics.ov_admitted += 1;
        self.ov[local].queue.push_back(OvEntry {
            arrival: t,
            key: query_key,
            ttl: eff_ttl,
            fanout,
        });
        self.metrics.ov_peak_depth = self
            .metrics
            .ov_peak_depth
            .max(self.ov[local].queue.len() as u64);
    }

    /// Serves one dequeued query: latency accounting, the origin index
    /// search, and the (possibly brownout-capped) flood.
    fn ov_serve(&mut self, t: u32, cluster: u32, e: OvEntry) {
        self.metrics.ov_delivered += 1;
        let wait = (t - e.arrival) as u64;
        self.metrics.ov_wait_ticks += wait;
        let bucket = (u64::BITS - wait.leading_zeros()) as usize;
        self.metrics.ov_wait_hist[bucket.min(SCALE_MAX_HOPS - 1)] += 1;
        let local = self.state.local(cluster);
        if chance(
            keyed(SALT_HIT, self.params.seed, e.key, cluster as u64),
            HIT_PROB,
        ) {
            self.metrics.results_found += 1;
        }
        if e.ttl > 0 {
            let deg = self.state.neighbors(local).len();
            let lim = if e.fanout == 0 {
                deg
            } else {
                deg.min(e.fanout as usize)
            };
            for i in 0..lim {
                let dst = self.state.edges[self.state.offsets[local] as usize + i];
                self.emit(
                    t,
                    cluster,
                    dst,
                    MsgKind::Flood {
                        query_key: e.key,
                        ttl_left: e.ttl - 1,
                        hops: 1,
                    },
                );
            }
        }
    }

    /// Per-tick overload maintenance for every owned cluster in
    /// ascending order: shed dead clusters' queues, drain the service
    /// credit, then evaluate brownout hysteresis on the post-drain
    /// backlog. Runs between fault injection and message delivery, so
    /// every entry gets a whole-tick service floor.
    fn ov_tick(&mut self, t: u32) {
        let pol = self.params.overload;
        if pol.is_empty() {
            return;
        }
        let dwell = pol
            .brownout
            .map_or(1, |b| (b.min_dwell_secs.ceil() as u32).max(1));
        for local in 0..self.ov.len() {
            if self.state.alive[local] == 0 {
                let shed = self.ov[local].queue.len() as u64;
                if shed > 0 {
                    self.metrics.ov_shed_dead += shed;
                }
                self.ov[local] = ClusterOvScale::default();
                continue;
            }
            // Drain: one credit per completed response, accumulated at
            // the policy's service rate (ticks are one second).
            self.ov[local].credit += pol.service_rate;
            while self.ov[local].credit >= 1.0 {
                let Some(e) = self.ov[local].queue.pop_front() else {
                    break;
                };
                self.ov[local].credit -= 1.0;
                self.ov_serve(t, self.state.base + local as u32, e);
            }
            if self.ov[local].queue.is_empty() {
                // A work-conserving server banks no idle capacity.
                self.ov[local].credit = 0.0;
            }
            if let Some(b) = pol.brownout {
                let backlog = self.ov[local].queue.len() as f64 / pol.service_rate;
                let ovc = &mut self.ov[local];
                if ovc.brownout {
                    if backlog <= b.exit_backlog_secs {
                        ovc.relief_run += 1;
                    } else {
                        ovc.relief_run = 0;
                    }
                    if ovc.relief_run >= dwell {
                        ovc.brownout = false;
                        ovc.pressure_run = 0;
                        ovc.relief_run = 0;
                    }
                } else {
                    if backlog >= b.enter_backlog_secs {
                        ovc.pressure_run += 1;
                    } else {
                        ovc.pressure_run = 0;
                    }
                    if ovc.pressure_run >= dwell {
                        ovc.brownout = true;
                        ovc.pressure_run = 0;
                        ovc.relief_run = 0;
                        self.metrics.ov_brownout_entries += 1;
                    }
                }
                if ovc.brownout {
                    self.metrics.ov_brownout_ticks += 1;
                }
            }
        }
    }

    /// Processes one local event at tick `t`.
    fn handle_event(&mut self, t: u32, event: ScaleEvent) {
        match event {
            ScaleEvent::Query { peer, n, tokens } => {
                let cluster = (peer / self.params.cluster_size as u64) as u32;
                let local = self.state.local(cluster);
                let offset = (peer % self.params.cluster_size as u64) as u32;
                let peer_alive = self.state.alive[local] & (1u64 << (offset % 64)) != 0;
                let pol = self.params.overload;
                let ov_active = !pol.is_empty();
                let mut level = tokens;
                if !peer_alive
                    || self.state.alive[local] == 0
                    || self.windows.is_partitioned(cluster)
                {
                    self.metrics.queries_failed += 1;
                } else {
                    if self.params.redundancy_k >= 2 {
                        for &(i, prob) in &self.windows.flake {
                            if chance(
                                keyed(
                                    SALT_FLAKE,
                                    self.params.fault_seed ^ i as u64,
                                    peer,
                                    n as u64,
                                ),
                                prob,
                            ) {
                                self.metrics.submissions_flaked += 1;
                                break;
                            }
                        }
                    }
                    self.metrics.queries_issued += 1;
                    let query_key = keyed(SALT_QUERY, self.params.seed, peer, n as u64);
                    // Per-client token budget: clients (non-founding
                    // members) pay one token per admission attempt;
                    // an empty bucket rejects at the door, before the
                    // queue ever sees the query.
                    let is_partner = (offset as usize) < self.params.redundancy_k;
                    let mut budget_ok = true;
                    if ov_active && !is_partner && pol.client_tokens_per_sec > 0.0 {
                        if level < 1.0 {
                            self.metrics.ov_rejected_budget += 1;
                            budget_ok = false;
                        } else {
                            level -= 1.0;
                        }
                    }
                    if budget_ok {
                        if ov_active {
                            // Overload control: the query joins the
                            // super-peer's bounded work queue and is
                            // served (origin search + flood) when its
                            // turn comes — or is shed/re-homed.
                            self.ov_submit(t, cluster, query_key);
                        } else {
                            // The origin cluster searches its own
                            // index first…
                            if chance(
                                keyed(SALT_HIT, self.params.seed, query_key, cluster as u64),
                                HIT_PROB,
                            ) {
                                self.metrics.results_found += 1;
                            }
                            // …then floods the overlay if any TTL
                            // remains.
                            if self.params.ttl > 0 {
                                let deg = self.state.neighbors(local).len();
                                for e in 0..deg {
                                    let dst =
                                        self.state.edges[self.state.offsets[local] as usize + e];
                                    self.emit(
                                        t,
                                        cluster,
                                        dst,
                                        MsgKind::Flood {
                                            query_key,
                                            ttl_left: self.params.ttl - 1,
                                            hops: 1,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                let gap = arrival_gap(self.params, peer, n + 1);
                let next = t + gap;
                if next < self.params.ticks {
                    // The bucket refills over the gap to the next
                    // arrival, capped at the burst ceiling; the level
                    // rides the event. Always 0.0 when the policy is
                    // empty, so the field is bitwise inert.
                    let refilled = if ov_active && pol.client_tokens_per_sec > 0.0 {
                        (level + pol.client_tokens_per_sec * gap as f64).min(pol.client_token_burst)
                    } else {
                        level
                    };
                    self.queue.schedule(
                        next,
                        ScaleEvent::Query {
                            peer,
                            n: n + 1,
                            tokens: refilled,
                        },
                    );
                }
            }
            ScaleEvent::Election { cluster } => {
                let local = self.state.local(cluster);
                let mask = self.state.alive[local];
                if mask == 0 {
                    return;
                }
                // Section 5.3: the peer sharing the most files wins;
                // ties go to the lowest peer id. Pure hash draws, so
                // the outcome is identical at any layout.
                let base_peer = cluster as u64 * self.params.cluster_size as u64;
                let mut best_offset = 0u32;
                let mut best_files = 0u64;
                let mut found = false;
                for offset in 0..self.params.cluster_size as u32 {
                    if mask & (1u64 << (offset % 64)) != 0 {
                        let files = files_of(self.params.seed, base_peer + offset as u64);
                        if !found || files > best_files {
                            found = true;
                            best_files = files;
                            best_offset = offset;
                        }
                    }
                }
                self.state.head[local] = best_offset;
                self.metrics.elections_held += 1;
                // Announce the new head to every overlay neighbor so
                // they re-index — the cross-shard repair path.
                let deg = self.state.neighbors(local).len();
                for e in 0..deg {
                    let dst = self.state.edges[self.state.offsets[local] as usize + e];
                    self.emit(t, cluster, dst, MsgKind::Reindex);
                }
            }
        }
    }
}

/// Everything one shard reactor needs for a (possibly partial) run:
/// static parameters, its cluster span, the tick range to execute,
/// carried-in state when resuming, the supervision knobs, and its
/// barrier endpoints.
#[allow(
    clippy::disallowed_types,
    reason = "F2/F3 sanctioned: watchdog heartbeat and supervised barrier channels"
)]
struct ShardCtx<'a> {
    params: &'a ScaleParams,
    plan: &'a FaultPlan,
    shard_starts: &'a [usize],
    span: (usize, usize),
    /// Ticks to execute: `[range.0, range.1)`.
    range: (u32, u32),
    /// Resumed state for this shard's span; `None` seeds a fresh run.
    carry: Option<ShardCarry>,
    /// Whether to hand back the shard's state after the last tick.
    keep_state: bool,
    /// Test hook: panic at the start of this tick.
    inject_at: Option<u32>,
    /// Barrier watchdog timeout; `None` blocks indefinitely.
    timeout: Option<Duration>,
    /// Channels to and from every peer shard, indexed by shard; the
    /// reactor's own slot is `None`.
    txs: Vec<Option<SyncSender<Batch>>>,
    rxs: Vec<Option<Receiver<Batch>>>,
    /// Progress heartbeat: the tick the reactor is executing.
    progress: &'a AtomicU32,
}

/// Barrier-receive spin budget: rounds of `try_recv` plus a yield of
/// the core before the receive parks, about 0.7 ms on a 2-vCPU KVM
/// guest. A parked thread there took 50–120 µs per channel ping-pong
/// round trip, longer than a small overlay's whole tick; with at most
/// one worker per core, spinning never starves the shard being waited
/// for, and yielding each round hands the core over when something
/// else wants it.
const SPIN_ROUNDS: u32 = 2048;

/// Receives peer shard `j`'s batch for tick `t − 1`: spins for up to
/// [`SPIN_ROUNDS`], then parks (under the watchdog, if one is set).
/// Errors name the peer, so a vanished or stalled shard never shows up
/// as a hang or an unwrapped `RecvError`.
#[allow(
    clippy::disallowed_types,
    reason = "F3 sanctioned: supervised barrier channels; every send/recv error becomes a ShardError"
)]
fn recv_batch(
    rx: &Receiver<Batch>,
    t: u32,
    j: usize,
    timeout: Option<Duration>,
) -> Result<Batch, ShardError> {
    for _ in 0..SPIN_ROUNDS {
        match rx.try_recv() {
            Ok(batch) => return Ok(batch),
            Err(TryRecvError::Disconnected) => return Err(ShardError::disconnected(t, j)),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    match timeout {
        None => rx.recv().map_err(|_| ShardError::disconnected(t, j)),
        Some(limit) => rx.recv_timeout(limit).map_err(|e| match e {
            RecvTimeoutError::Timeout => ShardError {
                tick: t,
                reason: format!(
                    "barrier stalled: no tick-{} batch from shard {j} within the watchdog timeout",
                    t - 1
                ),
            },
            RecvTimeoutError::Disconnected => ShardError::disconnected(t, j),
        }),
    }
}

/// One shard reactor between ticks: its state and its barrier
/// endpoints. A worker thread steps one or more of these through every
/// tick ([`run_group`]).
#[allow(
    clippy::disallowed_types,
    reason = "F2/F3 sanctioned: watchdog heartbeat and supervised barrier channels"
)]
struct ShardRunner<'a> {
    reactor: Reactor<'a>,
    plan: &'a FaultPlan,
    txs: Vec<Option<SyncSender<Batch>>>,
    rxs: Vec<Option<Receiver<Batch>>>,
    progress: &'a AtomicU32,
    range: (u32, u32),
    keep_state: bool,
    inject_at: Option<u32>,
    timeout: Option<Duration>,
}

/// Delivery-pass buffers, one set per worker thread, reused by every
/// reactor it steps: the slot being drained plus the
/// [`order_by_source`] scratch (index permutation, per-cluster start
/// table, and the due messages in delivery order).
#[derive(Default)]
struct DeliveryScratch {
    due: Vec<ShardMsg>,
    order: Vec<u32>,
    starts: Vec<u32>,
    ordered: Vec<ShardMsg>,
}

impl<'a> ShardRunner<'a> {
    /// Builds the shard's overlay slice and seeds its event queue, or
    /// reloads carried events and messages when resuming.
    fn new(ctx: ShardCtx<'a>) -> Self {
        let ShardCtx {
            params,
            plan,
            shard_starts,
            span,
            range,
            carry,
            keep_state,
            inject_at,
            timeout,
            txs,
            rxs,
            progress,
        } = ctx;
        let (start, end) = span;
        let own = end - start;

        // Build this shard's overlay slice: pure hash draws keyed by
        // global cluster id, so the same cluster gets the same edges at
        // any layout. CSR keeps it to two flat allocations.
        let mut offsets = Vec::with_capacity(own + 1);
        offsets.push(0u32);
        let mut edges = Vec::new();
        for c in start..end {
            let deg = degree_of(params, c as u32);
            for j in 0..deg {
                edges.push(edge_target(params, c as u32, j));
            }
            offsets.push(edges.len() as u32);
        }
        let full_mask = if params.cluster_size >= 64 {
            u64::MAX
        } else {
            (1u64 << params.cluster_size) - 1
        };
        let (alive, head, seq, ov) = match &carry {
            Some(c) => (c.alive.clone(), c.head.clone(), c.seq.clone(), c.ov.clone()),
            None => (
                vec![full_mask; own],
                vec![0; own],
                vec![0; own],
                vec![ClusterOvScale::default(); own],
            ),
        };
        let state = ShardState {
            base: start as u32,
            offsets,
            edges,
            alive,
            head,
            seq,
        };

        let mut reactor = Reactor {
            params,
            shard_starts,
            state,
            ov,
            queue: TickQueue::default(),
            ring: (0..params.horizon).map(|_| Vec::new()).collect(),
            outbox: (0..shard_starts.len()).map(|_| Vec::new()).collect(),
            windows: ActiveWindows::default(),
            metrics: ScaleMetrics::default(),
            diag: ScaleDiag::default(),
        };

        match carry {
            Some(c) => {
                // Resume: replay the carried events in canonical order —
                // per-cluster relative order is preserved, which is all
                // the engine's invariance needs — and reload pending
                // messages into the delivery ring in canonical order,
                // ahead of anything emitted after the resume. Event
                // times are whole ticks: restore rejects any other.
                for (time, event) in c.events {
                    reactor.queue.schedule(time as u32, event);
                }
                for msg in c.msgs {
                    let slot = (msg.deliver_tick % params.horizon) as usize;
                    reactor.ring[slot].push(msg);
                }
            }
            None => {
                // Seed every owned peer's first query arrival. Ascending
                // peer order fixes the intra-cluster event order
                // identically at every layout (clusters never split
                // across shards). Token buckets start full.
                let seed_tokens = if params.overload.is_empty() {
                    0.0
                } else {
                    params.overload.client_token_burst
                };
                for peer in (start * params.cluster_size) as u64..(end * params.cluster_size) as u64
                {
                    let first = arrival_gap(params, peer, 0) - 1;
                    if first < params.ticks {
                        reactor.queue.schedule(
                            first,
                            ScaleEvent::Query {
                                peer,
                                n: 0,
                                tokens: seed_tokens,
                            },
                        );
                    }
                }
            }
        }

        ShardRunner {
            reactor,
            plan,
            txs,
            rxs,
            progress,
            range,
            keep_state,
            inject_at,
            timeout,
        }
    }

    /// Runs tick `t`: the five steps of the tick-barrier protocol.
    fn step(&mut self, t: u32, scratch: &mut DeliveryScratch) -> Result<(), ShardError> {
        let params = self.reactor.params;
        let (t0, t1) = self.range;
        self.progress.store(t, Ordering::Relaxed);
        if self.inject_at == Some(t) {
            panic!("injected shard panic (test hook) at tick {t}");
        }

        // 1. Barrier receive: exactly one batch tagged t−1 from every
        // peer shard, slotted into the delivery ring. The first tick of
        // a (resumed) range has nothing in flight — boundary-tick
        // emissions ride the snapshot, not the channels.
        if t > t0 {
            let now = (t % params.horizon) as usize;
            for (j, rx) in self.rxs.iter().enumerate() {
                let Some(rx) = rx else { continue };
                let Batch { tick, mut msgs } = recv_batch(rx, t, j, self.timeout)?;
                debug_assert_eq!(tick, t - 1, "barrier batch out of order");
                // Undelayed messages are all due now: move them in one
                // copy. Only a batch with delayed messages is slotted
                // one message at a time.
                if msgs.iter().all(|m| m.deliver_tick == t) {
                    self.reactor.ring[now].append(&mut msgs);
                } else {
                    for msg in msgs.drain(..) {
                        let slot = (msg.deliver_tick % params.horizon) as usize;
                        self.reactor.ring[slot].push(msg);
                    }
                }
                // The emptied batch becomes the outbox back to shard j
                // (sent last tick, so empty): its capacity circulates
                // between the pair instead of being reallocated.
                debug_assert!(self.reactor.outbox[j].is_empty());
                self.reactor.outbox[j] = msgs;
            }
        }

        // 2. Fault windows for this tick, then instantaneous faults.
        self.reactor.windows.refresh(self.plan, params, t);
        self.reactor.apply_instant_faults(self.plan, t);

        // 2b. Overload maintenance: shed dead clusters' queues, drain
        // service credit (served queries flood here), update brownout.
        self.reactor.ov_tick(t);

        // 3. Deliver the messages due now, in (src_cluster, seq) order
        // — the layout-invariant global delivery order. The worker's
        // scratch is cleared before the swap, not after delivery, so a
        // reactor that panicked mid-tick cannot hand its due messages
        // to the next reactor on the worker.
        let slot = (t % params.horizon) as usize;
        scratch.due.clear();
        std::mem::swap(&mut scratch.due, &mut self.reactor.ring[slot]);
        order_by_source(
            &scratch.due,
            &mut scratch.starts,
            &mut scratch.order,
            &mut scratch.ordered,
        );
        for &msg in &scratch.ordered {
            self.reactor.deliver(t, msg);
        }

        // 4. Local events due now (query arrivals, elections).
        while let Some((_, event)) = self.reactor.queue.pop_due(t) {
            self.reactor.handle_event(t, event);
        }

        // 5. Barrier send: one batch tagged t to every peer shard, empty
        // or not. The range's final tick sends nothing: at the true end
        // its emissions were already discarded symmetrically by the
        // expiry check in emit(); at a checkpoint boundary they stay in
        // the outbox for the carry in finish().
        if t + 1 < t1 {
            for (j, tx) in self.txs.iter().enumerate() {
                if let Some(tx) = tx {
                    let msgs = std::mem::take(&mut self.reactor.outbox[j]);
                    tx.send(Batch { tick: t, msgs }).map_err(|_| ShardError {
                        tick: t,
                        reason: format!("peer shard {j} disconnected at the tick-{t} barrier send"),
                    })?;
                }
            }
        }
        Ok(())
    }

    /// Hands back the shard's metrics slice, diagnostics, and (when
    /// requested) its carried-out state.
    fn finish(self) -> ShardRun {
        let mut reactor = self.reactor;
        let params = reactor.params;
        reactor.diag.queue_high_water = reactor.queue.high_water as u64;
        if !self.keep_state && self.range.1 == params.ticks {
            // True run end: whatever is still waiting in a work queue is
            // explicitly shed so the conservation ledger closes —
            // nothing silently vanishes. Checkpoint boundaries instead
            // carry the queues forward intact.
            for ovc in &reactor.ov {
                reactor.metrics.ov_shed_residual += ovc.queue.len() as u64;
            }
        }
        let carry = if self.keep_state {
            let mut events = Vec::new();
            while let Some((tick, event)) = reactor.queue.pop_due(u32::MAX) {
                events.push((tick as f64, event));
            }
            let mut msgs: Vec<ShardMsg> = reactor.ring.drain(..).flatten().collect();
            for outbox in reactor.outbox.drain(..) {
                msgs.extend(outbox);
            }
            Some(ShardCarry {
                alive: reactor.state.alive,
                head: reactor.state.head,
                seq: reactor.state.seq,
                ov: reactor.ov,
                events,
                msgs,
            })
        } else {
            None
        };
        ShardRun {
            metrics: reactor.metrics,
            diag: reactor.diag,
            carry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            graph_size: 400,
            cluster_size: 10,
            ttl: 3,
            ..Config::default()
        }
    }

    fn run_at(config: &Config, shards: usize, plan: &FaultPlan) -> (ScaleMetrics, ScaleDiag) {
        let mut sim = ShardedSimulation::with_faults(
            config,
            ScaleOptions {
                duration_secs: 400.0,
                seed: 42,
                fault_seed: 7,
                shards,
                ..Default::default()
            },
            plan,
        );
        let m = sim.run();
        (m, *sim.diag())
    }

    #[test]
    fn tick_queue_pops_like_the_indexed_heap() {
        use crate::events::{Event, IndexedEventQueue};
        // The heap carries the schedule id as a query peer, the tick
        // queue as an election cluster; both must pop the same ids at
        // the same times.
        let heap_id = |(time, e): (f64, Event)| match e {
            Event::Query { peer, .. } => (time as u32, peer),
            other => panic!("unexpected event {other:?}"),
        };
        let tick_id = |(tick, e): (u32, ScaleEvent)| match e {
            ScaleEvent::Election { cluster } => (tick, cluster),
            other => panic!("unexpected event {other:?}"),
        };
        for seed in 0..16u64 {
            let mut heap = IndexedEventQueue::new();
            let mut ticks = TickQueue::default();
            let (mut now, mut id) = (0u32, 0u32);
            for step in 0..3_000u64 {
                let draw = keyed(SALT_ARRIVAL, seed, step, 0);
                let arg = (draw >> 32) as u32;
                match draw % 8 {
                    // The clock moves on, often across empty ticks.
                    0 => now += arg % 6,
                    // A schedule from now (same tick) up to 30 ahead.
                    1..=4 => {
                        let at = now + arg % 31;
                        heap.schedule(
                            at as f64,
                            Event::Query {
                                peer: id,
                                generation: 0,
                            },
                        );
                        ticks.schedule(at, ScaleEvent::Election { cluster: id });
                        id += 1;
                    }
                    // One pop of whatever is due now.
                    _ => {
                        let want = match heap.peek_time() {
                            Some(time) if time <= now as f64 => heap.pop().map(heap_id),
                            _ => None,
                        };
                        assert_eq!(ticks.pop_due(now).map(tick_id), want, "seed {seed}");
                    }
                }
                assert_eq!(ticks.len, heap.len());
                assert_eq!(ticks.high_water, heap.high_water());
            }
            while let Some(want) = heap.pop().map(heap_id) {
                assert_eq!(ticks.pop_due(u32::MAX).map(tick_id), Some(want));
            }
            assert_eq!(ticks.pop_due(u32::MAX), None);
        }
    }

    #[test]
    fn tick_queue_takes_a_schedule_ahead_of_the_next_occupied_tick() {
        let arrival = |peer| ScaleEvent::Query {
            peer,
            n: 0,
            tokens: 0.0,
        };
        let election = ScaleEvent::Election { cluster: 4 };
        let mut q = TickQueue::default();
        q.schedule(2, arrival(1));
        q.schedule(9, arrival(2));
        assert_eq!(q.pop_due(2), Some((2, arrival(1))));
        // Ticks 3–5 find nothing due; a crash at 5 then schedules an
        // election at 6, which must run before the arrival at 9.
        for t in 3..=5 {
            assert_eq!(q.pop_due(t), None);
        }
        q.schedule(6, election);
        assert_eq!(q.pop_due(5), None);
        assert_eq!(q.pop_due(6), Some((6, election)));
        // Same-tick schedules join the bucket being drained.
        q.schedule(6, arrival(3));
        assert_eq!(q.pop_due(6), Some((6, arrival(3))));
        assert_eq!(q.pop_due(8), None);
        assert_eq!(q.pop_due(9), Some((9, arrival(2))));
        assert_eq!(q.pop_due(u32::MAX), None);
        assert_eq!((q.len, q.high_water), (0, 2));
    }

    #[test]
    fn order_by_source_matches_the_comparison_sort() {
        // Three source clusters interleaved, each in ascending seq.
        let msg = |src, seq| ShardMsg {
            deliver_tick: 1,
            src_cluster: src,
            seq,
            dst_cluster: 0,
            kind: MsgKind::Reindex,
        };
        let due = vec![
            msg(2, 0),
            msg(0, 5),
            msg(2, 1),
            msg(3, 7),
            msg(0, 6),
            msg(2, 4),
        ];
        let mut sorted = due.clone();
        sorted.sort_unstable_by_key(|m| (m.src_cluster, m.seq));
        let (mut starts, mut order, mut out) = (vec![7u32; 5], vec![9], vec![msg(1, 1)]);
        order_by_source(&due, &mut starts, &mut order, &mut out);
        assert_eq!(out, sorted);
        order_by_source(&[], &mut starts, &mut order, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn fault_free_run_is_shard_count_invariant() {
        let config = small();
        let (base, base_diag) = run_at(&config, 1, &FaultPlan::default());
        assert!(base.queries_issued > 0, "workload was inert");
        assert!(base.msgs_delivered > 0);
        assert!(base.results_found > 0);
        assert_eq!(base.peers, 400);
        assert_eq!(base.clusters, 40);
        assert_eq!(base_diag.cross_shard_msgs, 0);
        for shards in [2, 4, 8] {
            let (m, d) = run_at(&config, shards, &FaultPlan::default());
            assert_eq!(base, m, "metrics diverged at {shards} shards");
            assert_eq!(d.shards, shards as u64);
            assert!(d.cross_shard_msgs > 0, "no cross-shard traffic at {shards}");
            assert_eq!(
                d.cross_shard_msgs + d.intra_shard_msgs,
                base_diag.intra_shard_msgs,
                "routed message total changed at {shards} shards"
            );
        }
    }

    #[test]
    fn crash_storm_elects_and_stays_invariant() {
        let config = small();
        let plan = FaultPlan {
            faults: vec![
                FaultSpec::CrashFraction {
                    at_secs: 50.0,
                    fraction: 0.5,
                },
                FaultSpec::CrashCluster {
                    at_secs: 120.0,
                    cluster_index: 3,
                },
            ],
            ..Default::default()
        };
        let (base, _) = run_at(&config, 1, &plan);
        assert!(base.crashes_injected > 0);
        assert!(base.elections_held > 0, "no elections ran");
        assert!(base.reindex_received > 0, "no re-index announcements");
        for shards in [2, 4, 8] {
            let (m, _) = run_at(&config, shards, &plan);
            assert_eq!(base, m, "crash-storm metrics diverged at {shards} shards");
        }
    }

    #[test]
    fn windowed_faults_stay_invariant_and_count() {
        let config = small();
        let plan = FaultPlan {
            faults: vec![
                FaultSpec::MessageLoss {
                    from_secs: 20.0,
                    until_secs: 200.0,
                    drop_prob: 0.3,
                },
                FaultSpec::MessageDelay {
                    from_secs: 50.0,
                    until_secs: 300.0,
                    delay_prob: 0.4,
                    delay_secs: 2.0,
                },
                FaultSpec::Partition {
                    from_secs: 80.0,
                    until_secs: 160.0,
                    clusters: vec![0, 5, 11],
                },
            ],
            ..Default::default()
        };
        let (base, _) = run_at(&config, 1, &plan);
        assert!(base.msgs_dropped_loss > 0);
        assert!(base.msgs_delayed > 0);
        assert!(base.msgs_dropped_partition > 0 || base.queries_failed > 0);
        for shards in [2, 4, 8] {
            let (m, _) = run_at(&config, shards, &plan);
            assert_eq!(
                base, m,
                "windowed-fault metrics diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn flaky_partners_count_under_redundancy() {
        let config = small().with_redundancy(true);
        let plan = FaultPlan {
            faults: vec![FaultSpec::FlakyPartners {
                from_secs: 0.0,
                until_secs: 400.0,
                flake_prob: 0.5,
            }],
            ..Default::default()
        };
        let (base, _) = run_at(&config, 1, &plan);
        assert!(base.submissions_flaked > 0, "flake window never drew");
        let (two, _) = run_at(&config, 2, &plan);
        assert_eq!(base, two);
    }

    #[test]
    fn lone_super_peer_crash_kills_cluster() {
        // cluster_size 1, k 1: the crash leaves nobody to elect, so the
        // cluster dies and floods to it are dropped as dead.
        let config = Config {
            graph_size: 20,
            cluster_size: 1,
            ttl: 2,
            ..Config::default()
        };
        let plan = FaultPlan {
            faults: vec![FaultSpec::CrashFraction {
                at_secs: 10.0,
                fraction: 1.0,
            }],
            ..Default::default()
        };
        let (m, _) = run_at(&config, 1, &plan);
        assert_eq!(m.clusters_dead, 20);
        assert_eq!(m.elections_held, 0);
        assert!(m.queries_failed > 0);
    }

    #[test]
    fn shard_count_clamps_to_cluster_count() {
        let config = Config {
            graph_size: 30,
            cluster_size: 10,
            ttl: 2,
            ..Config::default()
        };
        let (base, _) = run_at(&config, 1, &FaultPlan::default());
        let (wide, diag) = run_at(&config, 64, &FaultPlan::default());
        assert_eq!(base, wide);
        assert_eq!(diag.shards, 3);
    }

    #[test]
    fn merge_and_json_are_consistent() {
        let (m, _) = run_at(&small(), 2, &FaultPlan::default());
        let mut folded = ScaleMetrics::default();
        folded.merge(&m);
        folded.merge(&m);
        assert_eq!(folded.msgs_delivered, 2 * m.msgs_delivered);
        assert_eq!(folded.results_found, 2 * m.results_found);
        let json = m.to_json();
        assert!(json.contains("\"events_processed\""));
        assert!(json.contains("\"hop_hist\": ["));
        assert!(json.contains(&format!("\"msgs_delivered\": {}", m.msgs_delivered)));
        assert!(m.events_processed() > m.queries_issued);
    }

    #[test]
    fn reruns_are_identical_and_seeds_differ() {
        let config = small();
        let mut sim = ShardedSimulation::new(
            &config,
            ScaleOptions {
                duration_secs: 200.0,
                seed: 1,
                ..Default::default()
            },
        );
        let first = sim.run();
        let second = sim.run();
        assert_eq!(first, second, "rerun diverged");
        let other = ShardedSimulation::new(
            &config,
            ScaleOptions {
                duration_secs: 200.0,
                seed: 2,
                ..Default::default()
            },
        )
        .run();
        assert_ne!(first, other, "seed had no effect");
    }

    #[test]
    #[should_panic(expected = "cluster_size <= 64")]
    fn oversized_clusters_are_rejected() {
        let config = Config {
            graph_size: 1000,
            cluster_size: 100,
            ..Config::default()
        };
        let _ = ShardedSimulation::new(&config, ScaleOptions::default());
    }

    /// A plan exercising every fault kind the scale engine models, so
    /// resume invariance is checked with crashes, elections, loss,
    /// delay, and partitions all live across the checkpoint boundary.
    fn stormy_plan() -> FaultPlan {
        FaultPlan {
            faults: vec![
                FaultSpec::CrashFraction {
                    at_secs: 50.0,
                    fraction: 0.4,
                },
                FaultSpec::CrashCluster {
                    at_secs: 120.0,
                    cluster_index: 3,
                },
                FaultSpec::MessageLoss {
                    from_secs: 20.0,
                    until_secs: 200.0,
                    drop_prob: 0.2,
                },
                FaultSpec::MessageDelay {
                    from_secs: 40.0,
                    until_secs: 260.0,
                    delay_prob: 0.3,
                    delay_secs: 2.0,
                },
                FaultSpec::Partition {
                    from_secs: 80.0,
                    until_secs: 160.0,
                    clusters: vec![0, 5, 11],
                },
            ],
            ..Default::default()
        }
    }

    fn stormy_opts(shards: usize) -> ScaleOptions {
        ScaleOptions {
            duration_secs: 300.0,
            seed: 9,
            fault_seed: 3,
            shards,
            ..Default::default()
        }
    }

    /// An overload policy guaranteed to saturate `small()`'s clusters:
    /// tiny queues, a slow server, a hair-trigger brownout, and
    /// re-homing after two strikes.
    fn stress_policy() -> OverloadPolicy {
        OverloadPolicy {
            service_rate: 0.5,
            queue_capacity: 3,
            discipline: ShedDiscipline::DropLowestTtl,
            client_tokens_per_sec: 0.05,
            client_token_burst: 3.0,
            brownout: Some(sp_model::overload::BrownoutConfig {
                enter_backlog_secs: 2.0,
                exit_backlog_secs: 0.5,
                min_dwell_secs: 3.0,
                ttl_decrement: 2,
                fanout_limit: 2,
            }),
            rehome_strikes: 2,
        }
    }

    fn overload_opts(shards: usize) -> ScaleOptions {
        ScaleOptions {
            duration_secs: 300.0,
            seed: 11,
            fault_seed: 5,
            shards,
            overload: stress_policy(),
            ..Default::default()
        }
    }

    /// `small()` under a flash-crowd query rate: each 10-peer cluster
    /// offers ~2 queries/s against the stress policy's 0.5/s server.
    fn crowded() -> Config {
        Config {
            query_rate: 0.2,
            ..small()
        }
    }

    #[test]
    fn overload_control_is_shard_count_invariant_and_conserved() {
        let config = crowded();
        let plan = stormy_plan();
        let base = ShardedSimulation::with_faults(&config, overload_opts(1), &plan).run();
        assert!(base.ov_admitted > 0, "nothing was admitted");
        assert!(base.ov_delivered > 0, "nothing was served");
        assert!(
            base.ov_shed_discipline + base.ov_rejected_queue > 0,
            "the stress policy never saturated a queue"
        );
        assert!(base.ov_rejected_budget > 0, "token budget never tripped");
        assert!(base.ov_rehome_sent > 0, "re-homing never triggered");
        assert!(base.ov_brownout_entries > 0, "brownout never entered");
        assert!(base.ov_degraded > 0, "no degraded admissions");
        assert!(base.ov_peak_depth <= 3, "queue bound was violated");
        assert!(
            base.overload_conserved(),
            "conservation ledger broke:\n{base:?}"
        );
        for shards in [2, 4, 8] {
            let (m, _) = {
                let mut sim = ShardedSimulation::with_faults(&config, overload_opts(shards), &plan);
                let m = sim.run();
                (m, *sim.diag())
            };
            assert_eq!(base, m, "overload metrics diverged at {shards} shards");
        }
    }

    #[test]
    fn empty_overload_policy_is_inert_at_scale() {
        let config = small();
        let (base, _) = run_at(&config, 2, &FaultPlan::default());
        let ov_zero = base.ov_admitted
            + base.ov_rehome_admitted
            + base.ov_rejected_budget
            + base.ov_rejected_queue
            + base.ov_rehome_sent
            + base.ov_handoff_failed
            + base.ov_delivered
            + base.ov_shed_discipline
            + base.ov_shed_dead
            + base.ov_shed_residual
            + base.ov_degraded
            + base.ov_brownout_entries
            + base.ov_brownout_ticks
            + base.ov_wait_ticks
            + base.ov_peak_depth;
        assert_eq!(ov_zero, 0, "the empty policy touched an overload counter");
    }

    #[test]
    fn overload_checkpoint_resume_is_bitwise_and_shard_count_invariant() {
        // Resume mid-pressure: queued entries, token levels, brownout
        // dwell anchors, and strike counts all cross the snapshot.
        let config = crowded();
        let plan = stormy_plan();
        let base = ShardedSimulation::with_faults(&config, overload_opts(2), &plan).run();
        for (checkpoint, resume_shards) in [(0u32, 4usize), (90, 1), (200, 3)] {
            let mut sim = ShardedSimulation::with_faults(&config, overload_opts(2), &plan);
            sim.run_to(checkpoint).unwrap();
            let snap = sim.snapshot();
            let mut restored = ShardedSimulation::restore(
                &snap,
                ScaleOptions {
                    shards: resume_shards,
                    ..Default::default()
                },
            )
            .unwrap();
            let resumed = restored.try_run().unwrap();
            assert_eq!(
                base, resumed,
                "overload resume at tick {checkpoint} with {resume_shards} shards diverged"
            );
            assert!(resumed.overload_conserved(), "resumed ledger broke");
        }
    }

    #[test]
    fn dead_clusters_shed_their_queues() {
        // Lone super-peers with saturated queues, then a total crash:
        // every queued entry must land in the shed-dead bucket, not
        // vanish — and the ledger must still close.
        let config = Config {
            graph_size: 20,
            cluster_size: 1,
            ttl: 2,
            query_rate: 2.0,
            ..Config::default()
        };
        let plan = FaultPlan {
            faults: vec![FaultSpec::CrashFraction {
                at_secs: 100.0,
                fraction: 1.0,
            }],
            ..Default::default()
        };
        let opts = ScaleOptions {
            duration_secs: 200.0,
            seed: 4,
            overload: OverloadPolicy {
                service_rate: 0.5,
                queue_capacity: 16,
                ..stress_policy()
            },
            ..Default::default()
        };
        let base = ShardedSimulation::with_faults(&config, opts, &plan).run();
        assert!(base.ov_shed_dead > 0, "the crash never shed a queue");
        assert!(
            base.overload_conserved(),
            "dead-shed ledger broke:\n{base:?}"
        );
        let two =
            ShardedSimulation::with_faults(&config, ScaleOptions { shards: 2, ..opts }, &plan)
                .run();
        assert_eq!(base, two, "dead-shed metrics diverged at 2 shards");
    }

    #[test]
    fn uncontrolled_queues_measure_without_shedding() {
        // queue_capacity 0: depth and wait are measured, nothing is
        // ever shed by discipline — the flash-crowd baseline.
        let config = crowded();
        let opts = ScaleOptions {
            duration_secs: 300.0,
            seed: 11,
            overload: OverloadPolicy {
                queue_capacity: 0,
                discipline: ShedDiscipline::RejectAtAdmission,
                client_tokens_per_sec: 0.0,
                client_token_burst: 0.0,
                brownout: None,
                rehome_strikes: 0,
                ..stress_policy()
            },
            ..Default::default()
        };
        let m = ShardedSimulation::new(&config, opts).run();
        assert_eq!(m.ov_shed_discipline, 0);
        assert_eq!(m.ov_rejected_queue, 0);
        assert_eq!(m.ov_rejected_budget, 0);
        assert!(m.ov_delivered > 0);
        assert!(m.ov_peak_depth > 3, "unbounded queue never built depth");
        assert!(m.overload_conserved(), "uncontrolled ledger broke:\n{m:?}");
    }

    #[test]
    fn checkpoint_resume_is_bitwise_and_shard_count_invariant() {
        let config = small();
        let plan = stormy_plan();
        let base = ShardedSimulation::with_faults(&config, stormy_opts(2), &plan).run();
        assert!(base.crashes_injected > 0 && base.msgs_dropped_loss > 0);
        // Checkpoint at assorted ticks (0 = before anything ran,
        // 299 = one tick before the end), resume at assorted shard
        // counts — including counts different from the producer's.
        for (checkpoint, resume_shards) in [(0u32, 1usize), (77, 4), (150, 1), (299, 3)] {
            let mut sim = ShardedSimulation::with_faults(&config, stormy_opts(2), &plan);
            sim.run_to(checkpoint).unwrap();
            assert_eq!(sim.tick(), checkpoint);
            let snap = sim.snapshot();
            let mut restored = ShardedSimulation::restore(
                &snap,
                ScaleOptions {
                    shards: resume_shards,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(restored.tick(), checkpoint);
            let resumed = restored.try_run().unwrap();
            assert_eq!(
                base, resumed,
                "resume at tick {checkpoint} with {resume_shards} shards diverged"
            );
        }
    }

    #[test]
    fn chained_scale_checkpoints_resume_bitwise() {
        let config = small();
        let plan = stormy_plan();
        let base = ShardedSimulation::with_faults(&config, stormy_opts(1), &plan).run();
        let mut sim = ShardedSimulation::with_faults(&config, stormy_opts(4), &plan);
        sim.run_to(60).unwrap();
        let snap1 = sim.snapshot();
        let mut sim = ShardedSimulation::restore(
            &snap1,
            ScaleOptions {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        sim.run_to(180).unwrap();
        let snap2 = sim.snapshot();
        let mut sim = ShardedSimulation::restore(
            &snap2,
            ScaleOptions {
                shards: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(base, sim.try_run().unwrap(), "chained resume diverged");
    }

    #[test]
    fn snapshot_bytes_are_shard_count_invariant() {
        // The canonical fold makes the snapshot itself — not just the
        // metrics — byte-identical no matter how many shards ran the
        // prefix.
        let config = small();
        let plan = stormy_plan();
        let mut snaps = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            let mut sim = ShardedSimulation::with_faults(&config, stormy_opts(shards), &plan);
            sim.run_to(130).unwrap();
            snaps.push(sim.snapshot());
        }
        for (i, snap) in snaps.iter().enumerate().skip(1) {
            assert_eq!(&snaps[0], snap, "snapshot bytes diverged at index {i}");
        }
    }

    #[test]
    fn scale_restore_rejects_corruption_truncation_and_wrong_engine() {
        let config = small();
        let mut sim = ShardedSimulation::with_faults(&config, stormy_opts(2), &stormy_plan());
        sim.run_to(40).unwrap();
        let snap = sim.snapshot();

        let mut corrupt = snap.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x20;
        assert!(ShardedSimulation::restore(&corrupt, ScaleOptions::default()).is_err());

        let truncated = &snap[..snap.len() - 3];
        assert!(ShardedSimulation::restore(truncated, ScaleOptions::default()).is_err());

        // A parked event between ticks: well-sealed, but the engine
        // only ever schedules whole ticks.
        let mut fractional =
            ShardedSimulation::with_faults(&config, stormy_opts(2), &stormy_plan());
        fractional.run_to(40).unwrap();
        let parked = fractional.resume.as_mut().unwrap();
        parked.events[0].0 = parked.tick as f64 + 0.5;
        match ShardedSimulation::restore(&fractional.snapshot(), ScaleOptions::default()) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("40.5"), "{msg}"),
            other => panic!("fractional event time not rejected: {:?}", other.err()),
        }

        let fast = crate::engine::Simulation::new(
            &Config {
                graph_size: 200,
                ..Config::default()
            },
            crate::engine::SimOptions {
                duration_secs: 50.0,
                ..Default::default()
            },
        )
        .snapshot();
        assert!(matches!(
            ShardedSimulation::restore(&fast, ScaleOptions::default()),
            Err(SnapshotError::WrongEngine { .. })
        ));
    }

    #[test]
    fn panicking_shard_fails_fast_with_named_diagnostics() {
        // Before the supervisor, a mid-run reactor panic left every
        // other shard blocked forever on its barrier receive; now the
        // run unwinds promptly with the failure attributed by name.
        let config = small();
        let mut sim = ShardedSimulation::with_faults(
            &config,
            ScaleOptions {
                duration_secs: 200.0,
                seed: 1,
                shards: 4,
                inject_panic: Some((2, 40)),
                ..Default::default()
            },
            &FaultPlan::default(),
        );
        let failure = sim.try_run().unwrap_err();
        assert_eq!(failure.shard, 2);
        assert_eq!(failure.tick, 40);
        assert!(
            failure.reason.contains("injected shard panic"),
            "panic payload lost: {}",
            failure.reason
        );
        assert_eq!(failure.shard_ticks.len(), 4);
        assert_eq!(failure.shard_ticks[2], 40);
        assert!(failure.to_string().contains("shard 2"));
        assert!(failure.diagnostic().contains("shard progress"));
    }

    #[test]
    fn single_shard_panics_are_supervised_too() {
        let mut sim = ShardedSimulation::with_faults(
            &small(),
            ScaleOptions {
                duration_secs: 100.0,
                shards: 1,
                inject_panic: Some((0, 10)),
                ..Default::default()
            },
            &FaultPlan::default(),
        );
        let failure = sim.try_run().unwrap_err();
        assert_eq!((failure.shard, failure.tick), (0, 10));
    }

    #[test]
    #[should_panic(expected = "injected shard panic")]
    fn run_panics_on_shard_failure() {
        let mut sim = ShardedSimulation::with_faults(
            &small(),
            ScaleOptions {
                duration_secs: 100.0,
                shards: 2,
                inject_panic: Some((1, 5)),
                ..Default::default()
            },
            &FaultPlan::default(),
        );
        let _ = sim.run();
    }

    #[test]
    fn watchdog_enabled_run_matches_unwatched_run() {
        // A generous watchdog must not perturb results — the timeout
        // path only changes how failure is detected, not the ticks.
        let config = small();
        let plan = stormy_plan();
        let base = ShardedSimulation::with_faults(&config, stormy_opts(4), &plan).run();
        let watched = ShardedSimulation::with_faults(
            &config,
            ScaleOptions {
                barrier_timeout_ticks: 600,
                ..stormy_opts(4)
            },
            &plan,
        )
        .try_run()
        .unwrap();
        assert_eq!(base, watched);
    }

    #[test]
    fn worker_count_changes_only_the_thread_layout() {
        // Several reactors stepped by one worker thread must compute
        // exactly what one thread per reactor computes: the same
        // metrics, the same layout diagnostics, and the same checkpoint
        // bytes. The plan's delay window keeps the slot-by-slot receive
        // path covered alongside the whole-batch one.
        let config = small();
        let plan = stormy_plan();
        for shards in [3usize, 8] {
            let mut reference = None;
            for workers in [1usize, 2, shards] {
                let mut sim = ShardedSimulation::with_faults(&config, stormy_opts(shards), &plan);
                let (metrics, _) = sim.execute(sim.total_ticks(), false, workers).unwrap();
                let mut parked =
                    ShardedSimulation::with_faults(&config, stormy_opts(shards), &plan);
                parked.resume = parked.execute(123, true, workers).unwrap().1;
                let got = (metrics, *sim.diag(), parked.snapshot());
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        assert!(
                            want == &got,
                            "{shards} shards on {workers} workers diverged"
                        )
                    }
                }
            }
        }
    }

    #[test]
    fn a_dead_reactor_fails_the_run_on_every_worker_layout() {
        // Peers sharing the dead reactor's worker thread must fail at
        // their next barrier just like peers on other threads: the run
        // unwinds, never hangs, and the panic is the named root cause.
        for workers in [1usize, 2, 4] {
            let mut sim = ShardedSimulation::with_faults(
                &small(),
                ScaleOptions {
                    duration_secs: 200.0,
                    seed: 1,
                    shards: 4,
                    inject_panic: Some((2, 40)),
                    ..Default::default()
                },
                &FaultPlan::default(),
            );
            let failure = sim.execute(sim.total_ticks(), false, workers).unwrap_err();
            assert_eq!((failure.shard, failure.tick), (2, 40), "{workers} workers");
            assert!(failure.reason.contains("injected shard panic"));
            assert_eq!(failure.shard_ticks[2], 40);
        }
    }

    #[test]
    fn degree_law_matches_its_closed_form() {
        // `degree_of` floors a Pareto draw whose continuous mean is
        // `avg_outdegree`, then clamps it to [1, 64], so
        // P(D >= k) = k^-α for 1 <= k <= 64: E[D] = Σ k^-α and
        // E[D²] = Σ (2k − 1) k^-α. At the default 3.1 the realised mean
        // is 2.4220, 22 % below the configured value (DESIGN.md §15).
        let config = Config {
            graph_size: 10_000_000,
            cluster_size: 10,
            ..Config::default()
        };
        let alpha = config.avg_outdegree / (config.avg_outdegree - 1.0);
        let tail = |k: usize| (k as f64).powf(-alpha);
        let mean: f64 = (1..=SCALE_MAX_CLUSTER).map(tail).sum();
        let second: f64 = (1..=SCALE_MAX_CLUSTER)
            .map(|k| (2 * k - 1) as f64 * tail(k))
            .sum();
        let sd = (second - mean * mean).sqrt();
        assert!((mean - 2.4220).abs() < 1e-4, "closed-form mean {mean}");
        for seed in [42, 7] {
            let sim = ShardedSimulation::new(
                &config,
                ScaleOptions {
                    seed,
                    ..Default::default()
                },
            );
            let n = sim.params.clusters;
            assert_eq!(n, 1_000_000);
            let total: usize = (0..n as u32).map(|c| degree_of(&sim.params, c)).sum();
            let realised = total as f64 / n as f64;
            let bound = 4.0 * sd / (n as f64).sqrt();
            assert!(
                (realised - mean).abs() <= bound,
                "seed {seed}: mean degree {realised}, closed form {mean} ± {bound}"
            );
        }
    }
}
