//! The event-driven churn simulator: one engine core, two sets of
//! mechanics.
//!
//! The engine bootstraps a network from an `sp-model`
//! [`NetworkInstance`], then plays churn, queries, and updates as
//! discrete events, charging every message to its endpoints with the
//! same Table 2 cost model the analytic engine uses. Super-peer
//! failure, partner recruitment, orphaned-client re-discovery, and
//! (optionally) the Section 5.3 adaptive local rules all happen as the
//! clock advances.
//!
//! Behavioral model (documented deviations from the analytic engine are
//! listed in DESIGN.md):
//!
//! * Query inter-arrival and update inter-arrival are exponential with
//!   the Table 1 per-user rates; session lengths come from the
//!   population model, and each departure schedules a fresh arrival so
//!   the population stays statistically stable.
//! * A joining peer becomes a new super-peer when the network has
//!   fewer clusters than the configured target (`GraphSize /
//!   ClusterSize`), otherwise it becomes a client of a cluster chosen
//!   uniformly at random ("pong-server" discovery, Section 4.1).
//! * When a partner dies: surviving partners keep serving and recruit a
//!   replacement from the clients after a delay; if no partner
//!   survives, the cluster fails and every client is orphaned until its
//!   own rediscovery timer fires — the quantity behind the
//!   reliability experiment.
//!
//! # One core, two engines
//!
//! [`ChurnEngine`] holds the simulation state — network, RNG, clock,
//! configuration, query model, options, metrics, the fault, scenario,
//! overload, and repair state machines, the partition monitor — and
//! writes every lifecycle handler once. It is generic over
//! [`Mechanics`], the five places where the two engines compute the
//! same thing in different ways:
//!
//! 1. the event queue and its timers;
//! 2. how member lists are copied before the network changes under
//!    them;
//! 3. how partner connections are counted;
//! 4. the query tail after overload admission: flood, charge, probe,
//!    and respond;
//! 5. bookkeeping: delivered-event accounting and the snapshot's engine
//!    tag, queue, and timer codec.
//!
//! [`Simulation`] is the core with [`FastMechanics`], built for
//! throughput;
//! [`ReferenceSimulation`](crate::reference::ReferenceSimulation) is
//! the core with the plain mechanics of [`crate::reference`]. The two
//! produce bitwise identical [`RawMetrics`] on every seed (enforced by
//! `tests/sim_determinism.rs`, `tests/proptests.rs`, and
//! `spnet campaign`), which makes the reference the oracle for the
//! five mechanics. It cannot check a lifecycle policy: both engines
//! run the same handler. Recorded hashes of pinned runs in
//! `tests/sim_determinism.rs` guard the handlers instead.
//!
//! # Performance mechanics
//!
//! What [`FastMechanics`] does differently from the reference:
//!
//! * the [`IndexedEventQueue`] cancels a departed peer's pending
//!   query/update/rejoin timers in O(log n) instead of leaving
//!   tombstones to churn through the heap;
//! * per-peer [`EventHandle`] slots and per-cluster adapt-tick handles
//!   make cancel/reschedule O(1) lookups;
//! * member lists are copied into pooled scratch buffers instead of
//!   per-event `Vec` clones;
//! * connection counts come from the network's incrementally maintained
//!   `neighbor_partner_links` cache (O(1) per message instead of
//!   O(degree)), snapshotted once per flood;
//! * the query tail charges every transmission while it floods, reads
//!   each reached cluster from a `FloodSlot` snapshot, inlines the
//!   Poisson result draw, and defers single-partner round-robin bumps
//!   to one flush per query.
//!
//! Every shortcut is exact — integer-derived values, identical
//! iteration order, untouched RNG call sites — so the determinism
//! contract is bitwise, not approximate.

use sp_design::local_rules::{advise, LocalAction, LocalView};
use sp_graph::PartitionMonitor;
use sp_model::config::Config;
use sp_model::instance::{NetworkInstance, Topology};
use sp_model::load::Load;
use sp_model::query_model::QueryModel;
use sp_model::scenario::ScenarioPlan;
use sp_model::snapshot::{SnapReader, SnapWriter, SnapshotError, ENGINE_FAST};
use sp_stats::dist::Normal;
use sp_stats::{OnlineStats, SpRng};

use crate::checkpoint;

use crate::events::{ClusterId, Event, EventHandle, IndexedEventQueue, PeerId, SimTime};
use crate::faults::{FaultAction, FaultMetrics, FaultState, QueryOutcome, Submission};
use crate::metrics::{EventKind, ProfileTimer, RunManifest, SimMetrics};
use crate::network::{SimNetwork, SlabPlan};
use crate::overload::{Admission, OverloadMetrics, OverloadState};
use crate::phases::{PhaseAction, ScenarioState};
use crate::repair::{ReachPoint, RepairMetrics, RepairPending};

/// How a cluster forwards a query to its neighbors.
///
/// The paper's baseline is Gnutella flooding; it also notes (Section 2)
/// that smarter routing protocols "can be applied to super-peer
/// networks, as the use of super-peers and the choice of routing
/// protocol are orthogonal issues". [`ForwardPolicy::RandomSubset`] is
/// the simplest such protocol (the random-k forwarding of the authors'
/// "Improving efficiency of peer-to-peer search" line of work) and lets
/// experiments check that orthogonality: the cluster-size and
/// redundancy tradeoffs persist, only the reach/cost point moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardPolicy {
    /// Gnutella flooding: forward to every neighbor except the one the
    /// query arrived from.
    FloodAll,
    /// Forward to at most `fanout` randomly chosen neighbors (excluding
    /// the arrival link).
    RandomSubset {
        /// Maximum neighbors forwarded to per hop.
        fanout: usize,
    },
}

/// Adaptive-mode settings (Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptSettings {
    /// How often each super-peer re-evaluates the local rules, seconds.
    pub interval_secs: f64,
    /// The self-imposed per-partner load limit ("limited altruism").
    pub limit: Load,
}

/// Delay before a cluster that lost a partner promotes a client,
/// seconds.
pub const RECRUIT_DELAY_SECS: f64 = 30.0;
/// Mean delay before an orphaned client retries discovery, seconds.
pub const REJOIN_MEAN_SECS: f64 = 30.0;
/// Mean delay before a departed peer is replaced by a new arrival,
/// seconds.
pub const REPLENISH_MEAN_SECS: f64 = 10.0;
/// Timeline sampling interval, seconds.
pub const SAMPLE_INTERVAL_SECS: f64 = 120.0;
/// Delay between a cluster losing its last partner to an injected crash
/// and the repair election firing (simulated outage detection +
/// election time), seconds.
pub const REPAIR_DELAY_SECS: f64 = 5.0;

/// Engine options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Simulated duration, seconds.
    pub duration_secs: f64,
    /// RNG seed.
    pub seed: u64,
    /// Enable the Section 5.3 adaptive local rules.
    pub adapt: Option<AdaptSettings>,
    /// Query forwarding policy.
    pub forward_policy: ForwardPolicy,
    /// Seed of the *dedicated* fault-injection RNG stream (see
    /// [`crate::faults`]). Ignored when the scenario plan injects no
    /// faults; changing it never perturbs the main churn/query
    /// schedule.
    pub fault_seed: u64,
    /// Seed of the *dedicated* scenario RNG stream (see
    /// [`crate::phases`]). Ignored when no scenario plan is supplied;
    /// changing it never perturbs the main churn/query schedule.
    pub scenario_seed: u64,
    /// Record per-event-type wall-time histograms (two `Instant::now`
    /// calls per event — leave off for throughput benchmarks).
    pub profile: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            duration_secs: 3600.0,
            seed: 0x5EED,
            adapt: None,
            forward_policy: ForwardPolicy::FloodAll,
            fault_seed: 0,
            scenario_seed: 0,
            profile: false,
        }
    }
}

/// One timeline sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Sample time.
    pub time: SimTime,
    /// Live clusters.
    pub clusters: usize,
    /// Live peers.
    pub peers: usize,
    /// Mean cluster size.
    pub mean_cluster_size: f64,
    /// Mean TTL stamped by clusters.
    pub mean_ttl: f64,
    /// Mean overlay outdegree.
    pub mean_outdegree: f64,
}

/// Raw metrics accumulated during a run.
///
/// Derives `PartialEq` so the determinism tests can assert bitwise
/// agreement between engines and across thread counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawMetrics {
    /// Per-partner load rates (sampled when a peer exits or at the end).
    pub sp_in: OnlineStats,
    /// Partner outgoing bandwidth rates.
    pub sp_out: OnlineStats,
    /// Partner processing rates.
    pub sp_proc: OnlineStats,
    /// Client incoming bandwidth rates.
    pub client_in: OnlineStats,
    /// Client outgoing bandwidth rates.
    pub client_out: OnlineStats,
    /// Client processing rates.
    pub client_proc: OnlineStats,
    /// Results per query.
    pub results: OnlineStats,
    /// Queries processed.
    pub queries: u64,
    /// Cluster failures (all partners gone).
    pub cluster_failures: u64,
    /// Clients orphaned by cluster failures.
    pub orphan_events: u64,
    /// Downtime per orphan event, seconds.
    pub downtime: OnlineStats,
    /// Total client-seconds spent connected.
    pub client_connected_secs: f64,
    /// Total client-seconds spent orphaned.
    pub client_disconnected_secs: f64,
    /// Periodic samples.
    pub timeline: Vec<TimelinePoint>,
    /// Local-rule actions applied (adaptive mode).
    pub adapt_actions: u64,
    /// Fault-injection and recovery counters (all zero without a fault
    /// plan). Part of `RawMetrics` so the engine-equivalence and
    /// thread-invariance checks cover recovery accounting bitwise.
    pub faults: FaultMetrics,
    /// Overlay-repair counters and the reachability timeline. The
    /// timeline is populated in every run (sample ticks, post-crash
    /// probes, final state); the repair counters only move when fault
    /// injection meets a promoting
    /// [`RepairPolicy`](sp_model::repair::RepairPolicy).
    pub repair: RepairMetrics,
    /// Overload-control counters, latency histogram, and queue
    /// timeline (all zero/empty without an active overload policy).
    /// Part of `RawMetrics` so engine equivalence, thread invariance,
    /// and the campaign fingerprint cover the overload ledger bitwise.
    pub overload: OverloadMetrics,
}

impl RawMetrics {
    /// Client availability: connected time over total client time.
    /// 1.0 when no client time was observed.
    pub fn availability(&self) -> f64 {
        let total = self.client_connected_secs + self.client_disconnected_secs;
        if total <= 0.0 {
            1.0
        } else {
            self.client_connected_secs / total
        }
    }
}

/// The mechanics in which the two churn engines differ (see the module
/// docs). Implemented by [`FastMechanics`] and
/// [`ReferenceMechanics`](crate::reference::ReferenceMechanics) only.
///
/// An implementation may change *how* it computes, never *what*: the
/// same RNG draws in the same order, the same charges to each peer in
/// the same order, the same metrics.
pub trait Mechanics: Sized + sealed::Sealed {
    /// Engine tag sealed into this engine's snapshots.
    const ENGINE: u8;

    /// Mechanics for a fresh run: an empty queue, no timers, no
    /// scratch, with room reserved for the run's `slabs` where the
    /// mechanics keep per-slot storage.
    fn fresh(slabs: &SlabPlan) -> Self;

    // ---- 1. event queue and timers ----

    /// Schedules `event` at absolute time `time`.
    fn schedule(&mut self, time: SimTime, event: Event);
    /// The time of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime>;
    /// Pops the earliest pending event.
    fn pop(&mut self) -> Option<(SimTime, Event)>;
    /// A peer slot has a new tenant whose timers are about to be
    /// scheduled.
    fn peer_arrived(&mut self, peer: PeerId);
    /// `on_leave` removed `peer`. Its leave timer has fired or, for a
    /// crash or mass-leave victim, stays queued for the generation
    /// guard to drop.
    fn peer_left(&mut self, peer: PeerId);
    /// An orphan whose rejoin timer fired gave up and was removed.
    fn peer_gave_up(&mut self, peer: PeerId);
    /// An orphan's rejoin timer fired and reconnected it.
    fn rejoin_settled(&mut self, peer: PeerId);
    /// A cluster slot has a new tenant.
    fn cluster_created(engine: &mut ChurnEngine<Self>, cluster: ClusterId);
    /// A headless cluster's adapt tick fired and is not rescheduled
    /// until the repair election restarts it.
    fn adapt_stalled(&mut self, cluster: ClusterId);
    /// A cluster is about to be removed.
    fn cluster_removed(&mut self, cluster: ClusterId);

    // ---- 2. member lists ----

    /// A copy of `members` that stays valid while the network changes.
    fn copy_members(&mut self, members: &[PeerId]) -> Vec<PeerId>;
    /// Takes back a list from [`copy_members`](Self::copy_members).
    fn recycle(&mut self, list: Vec<PeerId>);

    // ---- 3. partner-connection counts ----

    /// Open connections per partner of `cluster`: co-partners, clients,
    /// and every partner of every neighbor cluster.
    fn count_connections(net: &SimNetwork, cluster: ClusterId) -> f64;

    // ---- 4. the query tail ----

    /// Floods an admitted query over the cluster overlay, charging
    /// every transmission (first copies and dropped duplicates alike),
    /// probes each reached cluster's index, and routes the responses
    /// back along the flood tree. Returns the total results and the
    /// deepest responding hop.
    fn flood_query(engine: &mut ChurnEngine<Self>, query: &AdmittedQuery) -> (u64, u16);

    // ---- 5. bookkeeping ----

    /// Counts an event dropped by the generation guard.
    fn count_stale(&mut self);
    /// Counts an event that passed the generation guard; the returned
    /// timer measures its handler when `profile` is set.
    fn count_delivered(&mut self, kind: EventKind, profile: bool) -> ProfileTimer;
    /// Records the handler time measured by `timer`.
    fn record_handled(&mut self, kind: EventKind, timer: ProfileTimer);
    /// Events delivered so far.
    fn delivered(&self) -> u64;
    /// End-of-run bookkeeping, after finalization.
    fn finish_run(engine: &mut ChurnEngine<Self>);
    /// Writes the event queue into a snapshot.
    fn snap_queue(&self, w: &mut SnapWriter);
    /// Mechanics around a queue written by [`snap_queue`](Self::snap_queue),
    /// with room reserved as [`fresh`](Self::fresh) reserves it.
    fn unsnap_queue(r: &mut SnapReader<'_>, slabs: &SlabPlan) -> Result<Self, SnapshotError>;
    /// Writes the event counters into a snapshot.
    fn snap_counters(&self, w: &mut SnapWriter);
    /// Reads counters written by [`snap_counters`](Self::snap_counters).
    fn unsnap_counters(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError>;
    /// Writes the timer handles into a snapshot.
    fn snap_timers(&self, w: &mut SnapWriter);
    /// Reads handles written by [`snap_timers`](Self::snap_timers).
    fn unsnap_timers(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError>;
}

pub(crate) mod sealed {
    /// Keeps [`Mechanics`](super::Mechanics) implementations in this
    /// crate.
    pub trait Sealed {}
}

/// A query past submission and overload admission, handed to
/// [`Mechanics::flood_query`].
#[derive(Debug, Clone, Copy)]
pub struct AdmittedQuery {
    /// The issuing peer.
    pub peer: PeerId,
    /// Whether the issuer is a partner (a client's results travel one
    /// more hop, from a partner to the client).
    pub from_partner: bool,
    /// The source cluster.
    pub cluster: ClusterId,
    /// Flood TTL, possibly lowered by brownout.
    pub ttl: u16,
    /// Forwarding policy for this flood, possibly capped by brownout.
    pub policy: ForwardPolicy,
    /// Query class drawn from the query model.
    pub class: usize,
}

/// The churn-engine core: simulation state plus every lifecycle
/// handler, generic over the engine [`Mechanics`]. Use it through
/// [`Simulation`] or
/// [`ReferenceSimulation`](crate::reference::ReferenceSimulation).
pub struct ChurnEngine<M: Mechanics> {
    /// Mutable network state (public for scenario inspection).
    pub net: SimNetwork,
    pub(crate) rng: SpRng,
    now: SimTime,
    pub(crate) config: Config,
    pub(crate) model: QueryModel,
    opts: SimOptions,
    pub(crate) metrics: RawMetrics,
    /// Fault-injection state machine (inert for an empty plan).
    pub(crate) faults: FaultState,
    /// Per-cluster-slot headless-window state, grown on demand (the
    /// fast mechanics keep it sized to the cluster slab) within the
    /// planned cluster slots.
    repair_pending: Vec<RepairPending>,
    /// Union-find over the live super-peer overlay, rebuilt at each
    /// reachability observation.
    monitor: PartitionMonitor,
    /// Whether the current `on_leave` cascade was initiated by a
    /// fault-plan crash — repair only ever engages on injected
    /// crashes, never on organic churn departures.
    in_fault_crash: bool,
    /// Scenario-phase state machine (inert for an empty plan).
    scenario: ScenarioState,
    /// Overload-control runtime (inert for an empty policy): bounded
    /// per-cluster work queues, token budgets, brownout hysteresis.
    overload: OverloadState,
    /// The scenario plan the state machine was built from, retained so
    /// snapshots are self-contained ([`ScenarioState`] keeps only the
    /// compiled phase/class tables).
    scenario_plan: ScenarioPlan,
    /// The engine's queue, timers, scratch, and counters.
    pub(crate) mech: M,
}

impl<M: Mechanics> ChurnEngine<M> {
    /// Builds a simulation from a configuration: generates an
    /// `sp-model` instance, mirrors it into mutable state, and
    /// schedules every peer's initial events. The run plays the empty
    /// [`ScenarioPlan`]: no phases, faults, repair, or overload control.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: &Config, opts: SimOptions) -> Self {
        Self::with_scenario(config, opts, &ScenarioPlan::default())
    }

    /// Builds a simulation that plays the given scenario plan, the one
    /// description of everything a run does beyond steady-state churn:
    /// phased workload programs (flash crowds, churn bursts, mass
    /// leaves, split windows), capacity classes, the fault plan, the
    /// repair policy, and the overload policy. Fault and phase
    /// randomness draw from dedicated streams seeded from
    /// `opts.fault_seed` and `opts.scenario_seed`; an empty plan is
    /// bitwise identical to [`new`](Self::new) whatever those seeds.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the scenario plan is invalid.
    pub fn with_scenario(config: &Config, opts: SimOptions, plan: &ScenarioPlan) -> Self {
        #[allow(
            clippy::disallowed_methods,
            reason = "R1b seed root: a run's instance and engine streams"
        )]
        let mut rng = SpRng::seed_from_u64(opts.seed);
        let inst = NetworkInstance::generate(config, &mut rng).expect("invalid configuration");
        let slabs = SlabPlan::for_config(config);
        let mut sim = ChurnEngine {
            net: SimNetwork::with_capacity(&slabs),
            rng,
            now: 0.0,
            config: config.clone(),
            model: QueryModel::from_config(&config.query_model),
            opts,
            metrics: RawMetrics::default(),
            faults: FaultState::new(&plan.faults, opts.fault_seed),
            repair_pending: Vec::with_capacity(slabs.clusters),
            monitor: PartitionMonitor::new(),
            in_fault_crash: false,
            scenario: ScenarioState::new(plan, opts.scenario_seed),
            overload: OverloadState::new(plan.overload),
            scenario_plan: plan.clone(),
            mech: M::fresh(&slabs),
        };
        sim.bootstrap(&inst);
        sim
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated metrics (mostly useful after [`run`](Self::run)).
    pub fn metrics(&self) -> &RawMetrics {
        &self.metrics
    }

    /// Events dispatched so far, excluding generation-stale tombstones
    /// and cancelled entries — the number comparable across engine
    /// implementations.
    pub fn events_delivered(&self) -> u64 {
        self.mech.delivered()
    }

    /// Whether the plan's overload policy is active for this run.
    pub fn overload_active(&self) -> bool {
        self.overload.active()
    }

    /// The options this run uses (restored ones on a restored run).
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// The scenario plan this run plays: its faults, repair policy, and
    /// overload policy included (empty for a plain run).
    pub fn scenario_plan(&self) -> &ScenarioPlan {
        &self.scenario_plan
    }

    /// Runs until the configured duration, then finalizes accounting.
    pub fn run(&mut self) -> RawMetrics {
        self.run_to(self.opts.duration_secs);
        self.now = self.opts.duration_secs;
        self.finalize();
        M::finish_run(self);
        std::mem::take(&mut self.metrics)
    }

    /// Dispatches every event with time ≤ `bound`, leaving later events
    /// queued and the clock at the last dispatched event (no
    /// finalization). A checkpoint taken here and resumed with
    /// [`restore`](Self::restore) continues bitwise identically: the
    /// first event past the bound is *peeked*, never popped, so the
    /// queue — including the fast queue's free list and handle
    /// generations — is exactly the state an uninterrupted run would
    /// carry across the same instant.
    pub fn run_to(&mut self, bound: SimTime) {
        while let Some(t) = self.mech.peek_time() {
            if t > bound {
                break;
            }
            let (t, event) = self.mech.pop().expect("peeked event vanished");
            self.now = t;
            self.dispatch(event);
        }
    }

    /// Serializes the full mutable state of the run into a versioned,
    /// integrity-checked snapshot sealed with the engine's tag, so the
    /// two engines' snapshots cannot be cross-restored by accident (see
    /// [`sp_model::snapshot`] and DESIGN.md §17).
    ///
    /// Everything a resumed run observes is captured bitwise: both RNG
    /// streams' positions, the event queue (the fast queue verbatim:
    /// slab, free list, heap layout — the free-list order decides
    /// future handle assignment), the network slabs with their
    /// generation counters, accumulated metrics, fault/scenario window
    /// state, and the fast engine's per-slot timer handles. Pure
    /// scratch (flood stamps, BFS buffers, the partition monitor's
    /// epoch-rebuilt union-find) is *not* serialized — it is empty
    /// between events by construction.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        checkpoint::snap_config(&self.config, &mut w);
        checkpoint::snap_opts(&self.opts, &mut w);
        w.str(&self.scenario_plan.to_json());
        w.f64(self.now);
        for s in self.rng.state() {
            w.u64(s);
        }
        self.mech.snap_queue(&mut w);
        self.net.snap(&mut w);
        checkpoint::snap_raw_metrics(&self.metrics, &mut w);
        self.mech.snap_counters(&mut w);
        self.faults.snap_state(&mut w);
        checkpoint::snap_repair_pending(&self.repair_pending, &mut w);
        self.scenario.snap_state(&mut w);
        self.overload.snap_state(&mut w);
        self.mech.snap_timers(&mut w);
        w.bool(self.in_fault_crash);
        w.seal(M::ENGINE)
    }

    /// Rebuilds a simulation from a snapshot produced by
    /// [`snapshot`](Self::snapshot) on the same engine. Resuming the
    /// result with [`run`](Self::run) (or further
    /// [`run_to`](Self::run_to) steps) yields metrics bitwise identical
    /// to the uninterrupted run.
    ///
    /// The embedded config and plan are re-validated, so a crafted or
    /// corrupted payload fails with a named [`SnapshotError`] instead
    /// of panicking; derived state (query model, fault windows,
    /// scenario tables, the overload runtime's policy) is rebuilt from
    /// them rather than trusted from the wire.
    #[allow(
        clippy::disallowed_methods,
        reason = "R1b seed root: a checkpoint restores the engine RNG position"
    )]
    pub fn restore(data: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::open(data)?;
        r.expect_engine(M::ENGINE)?;
        let config = checkpoint::unsnap_config(&mut r)?;
        config
            .validate()
            .map_err(|e| SnapshotError::Malformed(format!("embedded config: {e}")))?;
        // The codec bounds `graph_size` by the payload size, so a
        // crafted population cannot size the slabs past the snapshot.
        let slabs = SlabPlan::for_config(&config);
        let opts = checkpoint::unsnap_opts(&mut r)?;
        // `from_json` validates the plan, faults and policies included.
        let scenario_plan = ScenarioPlan::from_json(r.str("scenario plan json")?)
            .map_err(|e| SnapshotError::Malformed(format!("embedded scenario plan: {e}")))?;
        let now = r.f64("now")?;
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = r.u64("rng state")?;
        }
        let mut mech = M::unsnap_queue(&mut r, &slabs)?;
        let net = SimNetwork::unsnap(&mut r, &slabs)?;
        let metrics = checkpoint::unsnap_raw_metrics(&mut r)?;
        mech.unsnap_counters(&mut r)?;
        let mut faults = FaultState::new(&scenario_plan.faults, opts.fault_seed);
        faults.unsnap_state(&scenario_plan.faults, &mut r)?;
        let repair_pending = checkpoint::unsnap_repair_pending(&mut r, slabs.clusters)?;
        let mut scenario = ScenarioState::new(&scenario_plan, opts.scenario_seed);
        scenario.unsnap_state(&mut r)?;
        let overload = OverloadState::unsnap_state(scenario_plan.overload, &mut r)?;
        mech.unsnap_timers(&mut r)?;
        let in_fault_crash = r.bool("in_fault_crash")?;
        r.finish()?;
        Ok(ChurnEngine {
            net,
            rng: SpRng::from_state(rng_state),
            now,
            model: QueryModel::from_config(&config.query_model),
            config,
            opts,
            metrics,
            faults,
            repair_pending,
            monitor: PartitionMonitor::new(),
            in_fault_crash,
            scenario,
            overload,
            scenario_plan,
            mech,
        })
    }

    fn dispatch(&mut self, event: Event) {
        // Generation guard: an event for a recycled or dead slot is a
        // tombstone and must not run (nor count as delivered). The fast
        // engine's indexed queue cancels most of these before they
        // fire; the ones that remain (e.g. recruit timers of a failed
        // cluster) are dropped here.
        let live = match event {
            Event::PeerLeave { peer, generation }
            | Event::Query { peer, generation }
            | Event::Update { peer, generation }
            | Event::ClientRejoin {
                peer, generation, ..
            } => self.net.peer(peer, generation).is_some(),
            Event::RecruitPartner {
                cluster,
                generation,
            }
            | Event::AdaptTick {
                cluster,
                generation,
            }
            | Event::Repair {
                cluster,
                generation,
            } => self.net.cluster(cluster, generation).is_some(),
            Event::PeerJoin | Event::Sample | Event::Fault { .. } | Event::Phase { .. } => true,
        };
        if !live {
            self.mech.count_stale();
            return;
        }
        let kind = EventKind::of(&event);
        let timer = self.mech.count_delivered(kind, self.opts.profile);
        match event {
            Event::PeerJoin => self.on_join(),
            Event::PeerLeave { peer, generation } => self.on_leave(peer, generation),
            Event::Query { peer, generation } => self.on_query(peer, generation),
            Event::Update { peer, generation } => self.on_update(peer, generation),
            Event::ClientRejoin {
                peer,
                generation,
                orphaned_at,
                attempt,
            } => self.on_rejoin(peer, generation, orphaned_at, attempt),
            Event::RecruitPartner {
                cluster,
                generation,
            } => self.on_recruit(cluster, generation),
            Event::AdaptTick {
                cluster,
                generation,
            } => self.on_adapt(cluster, generation),
            Event::Repair {
                cluster,
                generation,
            } => self.on_repair(cluster, generation),
            Event::Sample => self.on_sample(),
            Event::Fault { index, start } => self.on_fault(index, start),
            Event::Phase { index, start } => self.on_phase(index, start),
        }
        self.mech.record_handled(kind, timer);
    }

    // ---- slots, lists, connections ----

    /// Adds a cluster led by `lead` and lets the mechanics claim the
    /// slot.
    fn add_cluster(&mut self, lead: PeerId, ttl: u16) -> ClusterId {
        let c = self.net.add_cluster(lead, ttl);
        M::cluster_created(self, c);
        c
    }

    /// Removes a cluster: the mechanics let go of its adapt tick,
    /// overload completions due by now still deliver while the rest of
    /// its queue is shed as dead, and the slot is freed.
    fn remove_cluster(&mut self, c: ClusterId) {
        self.mech.cluster_removed(c);
        if self.overload.active() {
            self.overload
                .cluster_down(c, self.now, &mut self.metrics.overload);
        }
        self.net.remove_cluster(c);
    }

    /// The headless-window slot of cluster `c`, grown on demand.
    fn repair_slot(&mut self, c: ClusterId) -> &mut RepairPending {
        if self.repair_pending.len() <= c as usize {
            self.repair_pending
                .resize(c as usize + 1, RepairPending::default());
        }
        &mut self.repair_pending[c as usize]
    }

    /// A copy of cluster `c`'s partner list.
    fn copy_partners(&mut self, c: ClusterId) -> Vec<PeerId> {
        let cluster = self.net.clusters[c as usize].as_ref().expect("alive");
        self.mech.copy_members(&cluster.partners)
    }

    /// A copy of cluster `c`'s client list.
    fn copy_clients(&mut self, c: ClusterId) -> Vec<PeerId> {
        let cluster = self.net.clusters[c as usize].as_ref().expect("alive");
        self.mech.copy_members(&cluster.clients)
    }

    /// Open connections per partner of `cluster`.
    pub(crate) fn partner_connections(&self, cluster: ClusterId) -> f64 {
        M::count_connections(&self.net, cluster)
    }

    /// Open connections of a client of `cluster` (one per partner).
    pub(crate) fn client_connections(&self, cluster: ClusterId) -> f64 {
        self.net.clusters[cluster as usize]
            .as_ref()
            .map(|c| c.partners.len() as f64)
            .unwrap_or(1.0)
    }

    /// Re-homing target for a struck-out client: the live cluster with
    /// the shallowest overload queue (ties to the lowest cluster id),
    /// excluding the cluster being fled. `None` when no other cluster
    /// has a partner to serve the client.
    fn rehome_target(&self, from: ClusterId) -> Option<ClusterId> {
        let mut best: Option<(usize, ClusterId)> = None;
        for c in self.net.alive_clusters() {
            if c == from {
                continue;
            }
            if self.net.clusters[c as usize]
                .as_ref()
                .expect("alive")
                .partners
                .is_empty()
            {
                continue;
            }
            let d = self.overload.depth(c);
            if best.is_none_or(|(bd, bc)| d < bd || (d == bd && c < bc)) {
                best = Some((d, c));
            }
        }
        best.map(|(_, c)| c)
    }

    fn bootstrap(&mut self, inst: &NetworkInstance) {
        // Mirror clusters and membership.
        let mut cluster_ids = Vec::with_capacity(inst.num_clusters());
        for cluster in &inst.clusters {
            let lead = cluster.partners[0];
            let lead_peer = &inst.peers[lead as usize];
            let (files, lifespan) = self
                .scenario
                .admit_peer(lead_peer.files, lead_peer.lifespan_secs);
            let p = self.net.add_peer(files, 0.0);
            let c = self.add_cluster(p, inst.config.ttl);
            self.schedule_peer_events(p, lifespan);
            for &extra in &cluster.partners[1..] {
                let info = &inst.peers[extra as usize];
                let (files, lifespan) = self.scenario.admit_peer(info.files, info.lifespan_secs);
                let q = self.net.add_peer(files, 0.0);
                self.net.attach_client(q, c);
                self.net.promote_specific(c, q).expect("just attached");
                self.schedule_peer_events(q, lifespan);
            }
            for &cl in &cluster.clients {
                let info = &inst.peers[cl as usize];
                let (files, lifespan) = self.scenario.admit_peer(info.files, info.lifespan_secs);
                let q = self.net.add_peer(files, 0.0);
                self.net.attach_client(q, c);
                self.schedule_peer_events(q, lifespan);
            }
            cluster_ids.push(c);
        }
        // Mirror overlay edges.
        match &inst.topology {
            Topology::Explicit(g) => {
                for (a, b) in g.edges() {
                    self.net
                        .add_edge(cluster_ids[a as usize], cluster_ids[b as usize]);
                }
            }
            Topology::Complete { n } => {
                for a in 0..*n {
                    for b in (a + 1)..*n {
                        self.net.add_edge(cluster_ids[a], cluster_ids[b]);
                    }
                }
            }
        }
        debug_assert!(self.net.check_invariants().is_ok());
        // Periodic events.
        self.mech.schedule(SAMPLE_INTERVAL_SECS, Event::Sample);
        if let Some(adapt) = self.opts.adapt {
            for (i, &c) in cluster_ids.iter().enumerate() {
                // Stagger ticks so clusters don't adapt in lockstep.
                let offset = adapt.interval_secs * (1.0 + i as f64 / cluster_ids.len() as f64);
                self.mech.schedule(
                    offset,
                    Event::AdaptTick {
                        cluster: c,
                        generation: 0,
                    },
                );
            }
        }
        // Compile the fault plan into first-class queue events, then
        // the scenario phases, at this fixed bootstrap point so
        // same-time events keep a fixed FIFO order.
        for (index, time, start) in FaultState::schedule(&self.scenario_plan.faults) {
            self.mech.schedule(time, Event::Fault { index, start });
        }
        for (index, time, start) in self.scenario.schedule() {
            self.mech.schedule(time, Event::Phase { index, start });
        }
    }

    fn schedule_peer_events(&mut self, peer: PeerId, lifespan: f64) {
        let generation = self.net.peer_generation(peer);
        self.mech.peer_arrived(peer);
        if self.overload.active() {
            // The slot belongs to a new peer: its token bucket and
            // strike streak restart.
            self.overload.reset_peer(peer);
        }
        self.mech
            .schedule(self.now + lifespan, Event::PeerLeave { peer, generation });
        if self.config.query_rate > 0.0 {
            let dt = self.exp_delay(self.config.query_rate * self.scenario.query_rate_mult());
            self.mech
                .schedule(self.now + dt, Event::Query { peer, generation });
        }
        if self.config.update_rate > 0.0 {
            let dt = self.exp_delay(self.config.update_rate);
            self.mech
                .schedule(self.now + dt, Event::Update { peer, generation });
        }
    }

    fn exp_delay(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        -self.rng.unit_f64().max(f64::MIN_POSITIVE).ln() / rate
    }

    // ---- message charging ----

    #[allow(
        clippy::too_many_arguments,
        reason = "both endpoints' bytes, units and connection counts, charged in one call"
    )]
    pub(crate) fn charge_pair(
        &mut self,
        from: PeerId,
        to: PeerId,
        bytes: f64,
        send_units: f64,
        recv_units: f64,
        from_conns: f64,
        to_conns: f64,
    ) {
        let mux = self.config.costs.multiplex_per_connection;
        if self.net.peer_mut(from).is_some() {
            self.net.counters[from as usize].send(bytes, send_units + mux * from_conns);
        }
        if self.net.peer_mut(to).is_some() {
            self.net.counters[to as usize].recv(bytes, recv_units + mux * to_conns);
        }
    }

    /// Picks the next round-robin partner of a cluster.
    pub(crate) fn rr_partner(&mut self, cluster: ClusterId) -> PeerId {
        rr_partner_net(&mut self.net, cluster)
    }

    /// Charges the failed attempts of one submission sequence: a
    /// dropped attempt costs the client its send (the packet left, the
    /// partner never saw it); a flaked attempt reached the partner
    /// (both endpoints pay) but produced no response. The per-counter
    /// charge sequences are order-insensitive here — every client-side
    /// charge in a sequence is the identical value — so batching drops
    /// before flakes is bitwise exact.
    #[allow(
        clippy::too_many_arguments,
        reason = "the failed attempts' counts and costs, batched into one charge"
    )]
    fn charge_submission_failures(
        &mut self,
        client: PeerId,
        partner: PeerId,
        drops: u32,
        flakes: u32,
        bytes: f64,
        send_units: f64,
        recv_units: f64,
        c_conns: f64,
        p_conns: f64,
    ) {
        let mux = self.config.costs.multiplex_per_connection;
        for _ in 0..drops {
            if self.net.peer_mut(client).is_some() {
                self.net.counters[client as usize].send(bytes, send_units + mux * c_conns);
            }
        }
        for _ in 0..flakes {
            self.charge_pair(
                client, partner, bytes, send_units, recv_units, c_conns, p_conns,
            );
        }
    }

    // ---- event handlers ----

    fn on_join(&mut self) {
        let files = self.config.population.sample_files(&mut self.rng);
        let lifespan = self.config.population.sample_lifespan(&mut self.rng);
        // Post-draw transform: capacity class + active churn burst.
        let (files, lifespan) = self.scenario.admit_peer(files, lifespan);
        let target_clusters = self.config.num_clusters();
        let peer = self.net.add_peer(files, self.now);
        if self.net.num_alive_clusters() < target_clusters || self.net.num_alive_clusters() == 0 {
            // Become a new super-peer: index own collection, wire into
            // the overlay at the suggested outdegree.
            let c = self.add_cluster(peer, self.config.ttl);
            if let Some(cl) = self.net.cluster_mut(c) {
                cl.last_adapt_at = self.now;
            }
            if self.net.peer_mut(peer).is_some() {
                let units = self.config.costs.process_join_units(files as f64);
                self.net.counters[peer as usize].work(units);
            }
            let want = self.config.avg_outdegree.round().max(1.0) as usize;
            let mut wired = 0;
            let mut attempts = 0;
            while wired < want && attempts < want * 4 {
                attempts += 1;
                if let Some(nb) = self.net.random_cluster(&mut self.rng) {
                    if nb != c && self.net.add_edge(c, nb) {
                        wired += 1;
                    }
                } else {
                    break;
                }
            }
            let generation = self.net.clusters[c as usize]
                .as_ref()
                .expect("new cluster")
                .generation;
            // A fresh cluster starts with a lone partner; under a
            // redundancy policy it must recruit up to k like any
            // cluster that lost a partner would.
            if self.config.redundancy_k > 1 {
                self.mech.schedule(
                    self.now + RECRUIT_DELAY_SECS,
                    Event::RecruitPartner {
                        cluster: c,
                        generation,
                    },
                );
            }
            if let Some(adapt) = self.opts.adapt {
                self.mech.schedule(
                    self.now + adapt.interval_secs,
                    Event::AdaptTick {
                        cluster: c,
                        generation,
                    },
                );
            }
        } else {
            let c = self
                .net
                .random_cluster(&mut self.rng)
                .expect("clusters exist");
            self.attach_and_charge_join(peer, c);
        }
        self.schedule_peer_events(peer, lifespan);
    }

    /// Credits a peer's connected time as a client up to now and
    /// restarts its attachment clock. Call sites: immediately before a
    /// client is detached for migration, and immediately after a client
    /// is promoted to partner (its clock still holds the client
    /// period) — otherwise those connected seconds are lost from the
    /// availability accounting.
    fn credit_client_time(&mut self, peer: PeerId) {
        if let Some(p) = self.net.peer_mut(peer) {
            if p.cluster.is_some() {
                let attached_at = p.attached_at;
                p.attached_at = self.now;
                self.metrics.client_connected_secs += self.now - attached_at;
            }
        }
    }

    /// Attaches `peer` as a client of `c`, charging the join protocol
    /// (metadata to every partner).
    fn attach_and_charge_join(&mut self, peer: PeerId, c: ClusterId) {
        self.net.attach_client(peer, c);
        if let Some(p) = self.net.peer_mut(peer) {
            p.attached_at = self.now;
        }
        let files = self.net.peers[peer as usize]
            .as_ref()
            .expect("peer alive")
            .files as f64;
        let cm = self.config.costs;
        let partners = self.copy_partners(c);
        let p_conns = self.partner_connections(c);
        let c_conns = self.client_connections(c);
        for &partner in &partners {
            self.charge_pair(
                peer,
                partner,
                cm.join_bytes(files),
                cm.send_join_units(files),
                cm.recv_join_units(files),
                c_conns,
                p_conns,
            );
            if self.net.peer_mut(partner).is_some() {
                self.net.counters[partner as usize].work(cm.process_join_units(files));
            }
        }
        self.mech.recycle(partners);
    }

    fn on_leave(&mut self, peer: PeerId, generation: u32) {
        if self.net.peer(peer, generation).is_none() {
            return;
        }
        let info = self.net.peers[peer as usize].as_ref().expect("alive");
        let is_partner = info.is_partner;
        let attached = info.cluster;
        let attached_at = info.attached_at;

        if let Some(cluster) = attached {
            if is_partner {
                let c = self.net.detach_partner(peer);
                let survivors = self.net.clusters[c as usize]
                    .as_ref()
                    .expect("cluster alive")
                    .partners
                    .len();
                if survivors == 0 {
                    if self.repair_engages(c) {
                        self.begin_headless(c);
                    } else {
                        self.fail_cluster(c);
                    }
                } else if survivors < self.config.redundancy_k {
                    let generation = self.net.clusters[c as usize]
                        .as_ref()
                        .expect("cluster alive")
                        .generation;
                    self.mech.schedule(
                        self.now + RECRUIT_DELAY_SECS,
                        Event::RecruitPartner {
                            cluster: c,
                            generation,
                        },
                    );
                }
            } else {
                self.metrics.client_connected_secs += self.now - attached_at;
                self.net.detach_client(peer);
                self.dissolve_if_abandoned(cluster);
            }
        } else if !is_partner {
            // Left while orphaned: the whole orphan period counts as
            // disconnected.
            self.metrics.client_disconnected_secs += self.now - attached_at;
        }

        let exited = self.net.remove_peer(peer);
        self.mech.peer_left(peer);
        let alive_for = self.now - exited.joined_at;
        if alive_for > 1.0 {
            let rate = self.net.counters[peer as usize].mean_rate(alive_for);
            // Attribute by the role the peer held when it left —
            // detach_partner has already cleared `exited.is_partner`,
            // so the captured value is the truthful one.
            if is_partner {
                self.metrics.sp_in.push(rate.in_bw);
                self.metrics.sp_out.push(rate.out_bw);
                self.metrics.sp_proc.push(rate.proc);
            } else {
                self.metrics.client_in.push(rate.in_bw);
                self.metrics.client_out.push(rate.out_bw);
                self.metrics.client_proc.push(rate.proc);
            }
        }
        // Stable population: a departure triggers a fresh arrival.
        let dt = self.exp_delay(1.0 / REPLENISH_MEAN_SECS);
        self.mech.schedule(self.now + dt, Event::PeerJoin);
    }

    /// All partners died: orphan every client and dissolve the cluster.
    fn fail_cluster(&mut self, c: ClusterId) {
        self.metrics.cluster_failures += 1;
        let clients = self.copy_clients(c);
        for &client in &clients {
            let attached_at = self.net.peers[client as usize]
                .as_ref()
                .expect("client alive")
                .attached_at;
            self.metrics.client_connected_secs += self.now - attached_at;
            self.net.detach_client(client);
            if let Some(p) = self.net.peer_mut(client) {
                p.attached_at = self.now; // start of the orphan period
            }
            self.metrics.orphan_events += 1;
            let generation = self.net.peer_generation(client);
            let dt = self.exp_delay(1.0 / REJOIN_MEAN_SECS);
            self.mech.schedule(
                self.now + dt,
                Event::ClientRejoin {
                    peer: client,
                    generation,
                    orphaned_at: self.now,
                    attempt: 1,
                },
            );
        }
        self.mech.recycle(clients);
        self.remove_cluster(c);
    }

    // ---- overlay repair (see `crate::repair`) ----

    /// Whether a cluster that just lost its last partner enters a
    /// headless repair window instead of dissolving: only under a
    /// promoting policy, only for fault-injected crashes (organic
    /// churn keeps the legacy behavior, so an empty fault plan is
    /// bitwise inert), and only when a client remains to be elected.
    fn repair_engages(&self, c: ClusterId) -> bool {
        self.scenario_plan.repair.promotes()
            && self.in_fault_crash
            && !self.net.clusters[c as usize]
                .as_ref()
                .expect("cluster alive")
                .clients
                .is_empty()
    }

    /// Every partner was killed by fault injection and the policy
    /// promotes: the cluster enters a headless window instead of
    /// dissolving. Clients stay attached (their queries are charged as
    /// lost), the overlay edges stay up, and the repair election is
    /// scheduled after the detection delay.
    fn begin_headless(&mut self, c: ClusterId) {
        self.metrics.cluster_failures += 1;
        let generation = self.net.clusters[c as usize]
            .as_ref()
            .expect("cluster alive")
            .generation;
        let now = self.now;
        *self.repair_slot(c) = RepairPending {
            active: true,
            down_since: now,
            adapt_stalled: false,
        };
        self.mech.schedule(
            self.now + REPAIR_DELAY_SECS,
            Event::Repair {
                cluster: c,
                generation,
            },
        );
    }

    /// A headless cluster whose last client departed has nobody left
    /// to elect: dissolve it like an unrepaired failure. The pending
    /// `Event::Repair` goes stale with the generation bump.
    fn dissolve_if_abandoned(&mut self, c: ClusterId) {
        if !self
            .repair_pending
            .get(c as usize)
            .is_some_and(|p| p.active)
        {
            return;
        }
        let empty = {
            let cl = self.net.clusters[c as usize].as_ref().expect("alive");
            cl.partners.is_empty() && cl.clients.is_empty()
        };
        if !empty {
            return;
        }
        self.repair_pending[c as usize] = RepairPending::default();
        self.metrics.repair.abandoned += 1;
        self.remove_cluster(c);
    }

    /// The repair election: promote the highest-capacity client in
    /// place (so it inherits the dead super-peer's neighbor links),
    /// re-index the adopted clients at the paper's per-metadata join
    /// cost, and — policy permitting — recruit a replacement partner
    /// to restore k-redundancy.
    fn on_repair(&mut self, cluster: ClusterId, generation: u32) {
        let pending = std::mem::take(self.repair_slot(cluster));
        let (has_partner, has_client) = {
            let c = self.net.clusters[cluster as usize].as_ref().expect("alive");
            (!c.partners.is_empty(), !c.clients.is_empty())
        };
        if has_partner {
            return; // already healed through another path
        }
        if !has_client {
            // Every client left during the headless window: nobody to
            // elect, dissolve like an unrepaired failure.
            self.metrics.repair.abandoned += 1;
            self.remove_cluster(cluster);
            return;
        }
        // Election: highest capacity (most files shared), ties broken
        // by lowest peer id — a pure fold over the client list, no RNG
        // draw.
        let winner = {
            let c = self.net.clusters[cluster as usize].as_ref().expect("alive");
            let mut best = c.clients[0];
            let mut best_files = self.net.peers[best as usize]
                .as_ref()
                .expect("client alive")
                .files;
            for &cand in &c.clients[1..] {
                let files = self.net.peers[cand as usize]
                    .as_ref()
                    .expect("client alive")
                    .files;
                if files > best_files || (files == best_files && cand < best) {
                    best = cand;
                    best_files = files;
                }
            }
            best
        };
        self.net
            .promote_specific(cluster, winner)
            .expect("elected client is attached");
        self.credit_client_time(winner);
        let cm = self.config.costs;
        // The promoted peer rebuilds an index from scratch: its own
        // collection first (same charge as a fresh super-peer in
        // `on_join`) ...
        let own_files = self.net.peers[winner as usize]
            .as_ref()
            .expect("alive")
            .files as f64;
        if self.net.peer_mut(winner).is_some() {
            self.net.counters[winner as usize].work(cm.process_join_units(own_files));
        }
        // ... then every adopted client re-uploads its metadata at the
        // Table 2 join cost, like `attach_and_charge_join` with the
        // promoted peer as the sole partner.
        let clients = self.copy_clients(cluster);
        let p_conns = self.partner_connections(cluster);
        let c_conns = self.client_connections(cluster);
        for &cl in &clients {
            let files = self.net.peers[cl as usize]
                .as_ref()
                .expect("client alive")
                .files as f64;
            self.charge_pair(
                cl,
                winner,
                cm.join_bytes(files),
                cm.send_join_units(files),
                cm.recv_join_units(files),
                c_conns,
                p_conns,
            );
            if self.net.peer_mut(winner).is_some() {
                self.net.counters[winner as usize].work(cm.process_join_units(files));
            }
            self.metrics.repair.reindexed_clients += 1;
            self.metrics.repair.reindex_bytes += cm.join_bytes(files);
        }
        self.mech.recycle(clients);
        self.metrics.repair.promotions += 1;
        self.metrics
            .repair
            .time_to_repair
            .record(self.now - pending.down_since);
        // Restart the adaptation loop the headless window stalled.
        if pending.adapt_stalled {
            if let Some(adapt) = self.opts.adapt {
                if let Some(c) = self.net.cluster_mut(cluster) {
                    c.growth = 0;
                    c.max_response_hop = 0;
                    c.last_adapt_at = self.now;
                }
                self.mech.schedule(
                    self.now + adapt.interval_secs,
                    Event::AdaptTick {
                        cluster,
                        generation,
                    },
                );
            }
        }
        // Restore k-redundancy through the ordinary recruitment
        // machinery (full index mirroring charged by
        // `charge_index_transfer`).
        if self.scenario_plan.repair.recruits_partner() && self.config.redundancy_k > 1 {
            self.metrics.repair.partner_recruitments += 1;
            self.mech.schedule(
                self.now + RECRUIT_DELAY_SECS,
                Event::RecruitPartner {
                    cluster,
                    generation,
                },
            );
        }
    }

    /// Rebuilds the partition monitor over the live super-peer overlay
    /// and returns (component count, largest-component peer fraction).
    /// Headless clusters count as live nodes with their edges intact:
    /// their clients are still attached and recovery is in progress.
    /// Orphaned peers sit in no component and only swell the
    /// denominator.
    fn observe_components(&mut self) -> (u32, f64) {
        let ChurnEngine { net, monitor, .. } = self;
        monitor.begin_epoch();
        for c in net.alive_clusters() {
            let cl = net.clusters[c as usize].as_ref().expect("alive");
            monitor.insert(c, cl.size() as u64);
        }
        for c in net.alive_clusters() {
            let cl = net.clusters[c as usize].as_ref().expect("alive");
            for &nb in &cl.neighbors {
                monitor.union(c, nb);
            }
        }
        let total = net.peers.iter().filter(|p| p.is_some()).count() as u64;
        let frac = if total == 0 {
            1.0
        } else {
            monitor.largest_weight() as f64 / total as f64
        };
        (monitor.component_count(), frac)
    }

    /// Appends one reachability observation to the repair timeline.
    fn observe_reachability(&mut self) {
        let (components, frac) = self.observe_components();
        self.metrics.repair.reachability.push(ReachPoint {
            time: self.now,
            components,
            reachable_fraction: frac,
        });
    }

    fn on_rejoin(&mut self, peer: PeerId, generation: u32, orphaned_at: SimTime, attempt: u32) {
        let Some(info) = self.net.peer(peer, generation) else {
            return;
        };
        if info.cluster.is_some() {
            return; // already re-homed (e.g. by an adaptive action)
        }
        // The connection protocol is a message exchange like any other:
        // while a loss window is active, this attempt's handshake can
        // be dropped in flight (fault stream, drawn after the discovery
        // pick so the main RNG sequence is untouched).
        let target = self.net.random_cluster(&mut self.rng);
        // Discovery can hand back a headless cluster (super-peer dead,
        // repair pending): there is no partner to answer the handshake.
        // Re-resolve at the next tick *without* burning a retry-budget
        // attempt — the client never reached a live peer to be refused
        // by. Unreachable without a promoting repair policy.
        if let Some(c) = target {
            if self.net.clusters[c as usize]
                .as_ref()
                .expect("alive")
                .partners
                .is_empty()
            {
                let dt = self.exp_delay(1.0 / REJOIN_MEAN_SECS);
                self.mech.schedule(
                    self.now + dt,
                    Event::ClientRejoin {
                        peer,
                        generation,
                        orphaned_at,
                        attempt,
                    },
                );
                return;
            }
        }
        let delivered =
            target.is_some() && !(self.faults.drops_possible() && self.faults.draw_drop());
        match target {
            Some(c) if delivered => {
                let downtime = self.now - orphaned_at;
                self.metrics.client_disconnected_secs += downtime;
                self.metrics.downtime.push(downtime);
                self.metrics.faults.reconnect.record(downtime);
                self.mech.rejoin_settled(peer);
                self.attach_and_charge_join(peer, c);
            }
            _ => {
                if target.is_some() {
                    self.metrics.faults.injected_drop += 1;
                }
                if FaultState::rejoin_cap(&self.scenario_plan.faults)
                    .is_some_and(|cap| attempt >= cap.max(1))
                {
                    self.give_up_rejoin(peer, orphaned_at);
                } else {
                    let dt = self.exp_delay(1.0 / REJOIN_MEAN_SECS);
                    self.mech.schedule(
                        self.now + dt,
                        Event::ClientRejoin {
                            peer,
                            generation,
                            orphaned_at,
                            attempt: attempt + 1,
                        },
                    );
                }
            }
        }
    }

    /// An orphaned client exhausted the fault plan's rejoin-attempt
    /// cap: it departs for good, mirroring the orphaned-leave
    /// accounting (and, like any departure, triggers a replenishing
    /// arrival so the population stays stable).
    fn give_up_rejoin(&mut self, peer: PeerId, orphaned_at: SimTime) {
        self.metrics.client_disconnected_secs += self.now - orphaned_at;
        self.metrics.faults.orphan_gave_up += 1;
        let exited = self.net.remove_peer(peer);
        self.mech.peer_gave_up(peer);
        let alive_for = self.now - exited.joined_at;
        if alive_for > 1.0 {
            let rate = self.net.counters[peer as usize].mean_rate(alive_for);
            self.metrics.client_in.push(rate.in_bw);
            self.metrics.client_out.push(rate.out_bw);
            self.metrics.client_proc.push(rate.proc);
        }
        let dt = self.exp_delay(1.0 / REPLENISH_MEAN_SECS);
        self.mech.schedule(self.now + dt, Event::PeerJoin);
    }

    fn on_recruit(&mut self, cluster: ClusterId, generation: u32) {
        if self.net.cluster(cluster, generation).is_none() {
            return;
        }
        let have = self.net.clusters[cluster as usize]
            .as_ref()
            .expect("alive")
            .partners
            .len();
        if have >= self.config.redundancy_k {
            return;
        }
        if have == 0 {
            // Headless repair window: the deterministic election owns
            // the promotion (and its charging); recruitment resumes
            // only after it runs.
            return;
        }
        match self.net.promote_client(cluster, &mut self.rng) {
            Some(new_partner) => {
                self.credit_client_time(new_partner);
                self.charge_index_transfer(cluster, new_partner);
                // Still short (e.g. two partners died)? Keep recruiting.
                let have = self.net.clusters[cluster as usize]
                    .as_ref()
                    .expect("alive")
                    .partners
                    .len();
                if have < self.config.redundancy_k {
                    self.mech.schedule(
                        self.now + RECRUIT_DELAY_SECS,
                        Event::RecruitPartner {
                            cluster,
                            generation,
                        },
                    );
                }
            }
            None => {
                // No client to promote yet; retry later.
                self.mech.schedule(
                    self.now + RECRUIT_DELAY_SECS,
                    Event::RecruitPartner {
                        cluster,
                        generation,
                    },
                );
            }
        }
    }

    /// A freshly promoted partner downloads the full cluster index from
    /// a co-partner (or rebuilds from its own collection if alone).
    fn charge_index_transfer(&mut self, cluster: ClusterId, new_partner: PeerId) {
        let cm = self.config.costs;
        let (total_files, donor) = {
            let c = self.net.clusters[cluster as usize].as_ref().expect("alive");
            let donor = c.partners.iter().copied().find(|&p| p != new_partner);
            (c.total_files as f64, donor)
        };
        let p_conns = self.partner_connections(cluster);
        if let Some(d) = donor {
            self.charge_pair(
                d,
                new_partner,
                cm.join_bytes(total_files),
                cm.send_join_units(total_files),
                cm.recv_join_units(total_files),
                p_conns,
                p_conns,
            );
        }
        if self.net.peer_mut(new_partner).is_some() {
            self.net.counters[new_partner as usize].work(cm.process_join_units(total_files));
        }
    }

    fn on_query(&mut self, peer: PeerId, generation: u32) {
        let Some(info) = self.net.peer(peer, generation) else {
            return;
        };
        let source_cluster = info.cluster;
        let is_partner = info.is_partner;
        // Always reschedule the next query first.
        let dt = self.exp_delay(self.config.query_rate * self.scenario.query_rate_mult());
        self.mech
            .schedule(self.now + dt, Event::Query { peer, generation });
        let Some(mut sc) = source_cluster else {
            return; // orphaned client cannot search
        };

        // Deterministic re-homing: a client that has struck out
        // against a persistently saturated super-peer detaches and
        // joins the shallowest-queue live cluster before submitting,
        // paying the Table 2 join cost. Target choice is a pure fold
        // (min queue depth, ties to lowest cluster id) — no RNG draw.
        if !is_partner && self.overload.active() && self.overload.should_rehome(peer) {
            if let Some(target) = self.rehome_target(sc) {
                let files = self.net.peers[peer as usize]
                    .as_ref()
                    .expect("peer alive")
                    .files as f64;
                let partners_len = self.net.clusters[target as usize]
                    .as_ref()
                    .expect("alive")
                    .partners
                    .len();
                self.credit_client_time(peer);
                self.net.detach_client(peer);
                self.attach_and_charge_join(peer, target);
                self.metrics.overload.rehomed += 1;
                self.metrics.overload.rehome_bytes +=
                    partners_len as f64 * self.config.costs.join_bytes(files);
                self.overload.rehomed(peer);
                sc = target;
            }
        }

        let cm = self.config.costs;
        let j = self.model.sample_query(&mut self.rng);
        // Post-draw transform: rotate the Zipf head while a flash
        // crowd is active (identity otherwise).
        let j = self.scenario.shift_query(j, self.model.num_classes());
        let qbytes = cm.query_bytes();
        let (send_q, recv_q) = (cm.send_query_units(), cm.recv_query_units());

        // Client → super-peer submission, driven through the fault
        // plan's timeout/retry/failover state machine. Partner-sourced
        // queries submit to themselves: always a draw-free direct hit.
        if is_partner {
            self.metrics.faults.record_submission(&Submission::DIRECT);
        } else {
            let partners_len = self.net.clusters[sc as usize]
                .as_ref()
                .expect("alive")
                .partners
                .len();
            if partners_len == 0 {
                // Headless window: the query is issued into the void
                // and lost — charged on both sides of the conservation
                // ledger, no RNG draw, no message cost (nothing ever
                // leaves the client's discovery cache).
                self.metrics.faults.queries_issued += 1;
                self.metrics.faults.queries_lost += 1;
                self.metrics.repair.queries_during_outage += 1;
                return;
            }
            let sub = self
                .faults
                .submit_query(&self.scenario_plan.faults, partners_len);
            let primary = self.rr_partner(sc);
            let c_conns = self.client_connections(sc);
            let p_conns = self.partner_connections(sc);
            self.charge_submission_failures(
                peer,
                primary,
                sub.primary_drops,
                sub.primary_flakes,
                qbytes,
                send_q,
                recv_q,
                c_conns,
                p_conns,
            );
            let lost = match sub.outcome {
                QueryOutcome::Direct | QueryOutcome::Retry => {
                    self.charge_pair(peer, primary, qbytes, send_q, recv_q, c_conns, p_conns);
                    false
                }
                QueryOutcome::Failover => {
                    let failover = self.rr_partner(sc);
                    self.charge_submission_failures(
                        peer,
                        failover,
                        sub.failover_drops,
                        sub.failover_flakes,
                        qbytes,
                        send_q,
                        recv_q,
                        c_conns,
                        p_conns,
                    );
                    self.charge_pair(peer, failover, qbytes, send_q, recv_q, c_conns, p_conns);
                    false
                }
                QueryOutcome::Lost => {
                    if partners_len >= 2 {
                        let failover = self.rr_partner(sc);
                        self.charge_submission_failures(
                            peer,
                            failover,
                            sub.failover_drops,
                            sub.failover_flakes,
                            qbytes,
                            send_q,
                            recv_q,
                            c_conns,
                            p_conns,
                        );
                    }
                    true
                }
            };
            self.metrics.faults.record_submission(&sub);
            if lost {
                return; // every attempt failed: the query never floods
            }
        }

        // Overload admission: the submission reached a live partner,
        // so the super-peer now decides whether to take the work.
        // Rejected queries never flood (the client's copy dies at the
        // super-peer's door) and land in the rejected ledger; admitted
        // ones may flood with a brownout-degraded TTL/fanout. The
        // whole gate is draw-free, so the empty policy is bitwise
        // inert.
        let ttl = self.net.clusters[sc as usize].as_ref().expect("alive").ttl;
        let (ttl, fanout_limit) = if self.overload.active() {
            match self.overload.admit(
                sc,
                peer,
                is_partner,
                self.now,
                ttl,
                &mut self.metrics.overload,
            ) {
                Admission::Rejected => return,
                Admission::Admitted { ttl, fanout_limit } => (ttl, fanout_limit),
            }
        } else {
            (ttl, None)
        };

        // A brownout fanout cap rides the forwarding policy for just
        // this flood.
        let policy = match (self.opts.forward_policy, fanout_limit) {
            (policy, None) => policy,
            (ForwardPolicy::FloodAll, Some(f)) => {
                ForwardPolicy::RandomSubset { fanout: f as usize }
            }
            (ForwardPolicy::RandomSubset { fanout }, Some(f)) => ForwardPolicy::RandomSubset {
                fanout: fanout.min(f as usize),
            },
        };
        let query = AdmittedQuery {
            peer,
            from_partner: is_partner,
            cluster: sc,
            ttl,
            policy,
            class: j,
        };
        let (total_results, deepest_response) = M::flood_query(self, &query);
        if let Some(c) = self.net.cluster_mut(sc) {
            c.max_response_hop = c.max_response_hop.max(deepest_response);
        }
        self.metrics.queries += 1;
        self.metrics.results.push(total_results as f64);
    }

    fn on_update(&mut self, peer: PeerId, generation: u32) {
        let Some(info) = self.net.peer(peer, generation) else {
            return;
        };
        let cluster = info.cluster;
        let is_partner = info.is_partner;
        let dt = self.exp_delay(self.config.update_rate);
        self.mech
            .schedule(self.now + dt, Event::Update { peer, generation });
        let Some(c) = cluster else { return };
        let cm = self.config.costs;
        let partners = self.copy_partners(c);
        let p_conns = self.partner_connections(c);
        if is_partner {
            if self.net.peer_mut(peer).is_some() {
                self.net.counters[peer as usize].work(cm.process_update_units());
            }
            for &other in partners.iter().filter(|&&p| p != peer) {
                self.charge_pair(
                    peer,
                    other,
                    cm.update_bytes(),
                    cm.send_update_units(),
                    cm.recv_update_units(),
                    p_conns,
                    p_conns,
                );
                if self.net.peer_mut(other).is_some() {
                    self.net.counters[other as usize].work(cm.process_update_units());
                }
            }
        } else {
            let c_conns = self.client_connections(c);
            for &partner in &partners {
                self.charge_pair(
                    peer,
                    partner,
                    cm.update_bytes(),
                    cm.send_update_units(),
                    cm.recv_update_units(),
                    c_conns,
                    p_conns,
                );
                if self.net.peer_mut(partner).is_some() {
                    self.net.counters[partner as usize].work(cm.process_update_units());
                }
            }
        }
        self.mech.recycle(partners);
    }

    fn on_adapt(&mut self, cluster: ClusterId, generation: u32) {
        let Some(adapt) = self.opts.adapt else { return };
        if self.net.cluster(cluster, generation).is_none() {
            return;
        }
        if self.net.clusters[cluster as usize]
            .as_ref()
            .expect("alive")
            .partners
            .is_empty()
        {
            // Headless window: no partner to measure or act. Stall the
            // adaptation loop; the repair election restarts it.
            self.repair_slot(cluster).adapt_stalled = true;
            self.mech.adapt_stalled(cluster);
            return;
        }
        // Average the partners' window loads over the *measured* window
        // length — ticks are staggered, so the first window is longer
        // than the nominal interval.
        let partners = self.copy_partners(cluster);
        let window_secs = {
            let c = self.net.clusters[cluster as usize].as_ref().expect("alive");
            (self.now - c.last_adapt_at).max(1e-9)
        };
        let mut load = Load::ZERO;
        for &p in &partners {
            if self.net.peer_mut(p).is_some() {
                load += self.net.counters[p as usize].take_window(window_secs);
            }
        }
        load = load.scaled(1.0 / partners.len().max(1) as f64);
        // Hand the list back before applying an action, which may copy
        // member lists of its own.
        self.mech.recycle(partners);
        let view = {
            let c = self.net.clusters[cluster as usize].as_ref().expect("alive");
            LocalView {
                load,
                limit: adapt.limit,
                num_clients: c.clients.len(),
                num_neighbors: c.neighbors.len(),
                num_partners: c.partners.len(),
                ttl: c.ttl,
                max_response_hop: c.max_response_hop,
                cluster_growing: c.growth > 0,
            }
        };
        if let Some(&action) = advise(&view).first() {
            self.apply_local_action(cluster, action);
            self.metrics.adapt_actions += 1;
        }
        // Reset observation window.
        if let Some(c) = self.net.cluster_mut(cluster) {
            c.growth = 0;
            c.max_response_hop = 0;
            c.last_adapt_at = self.now;
            let generation = c.generation;
            self.mech.schedule(
                self.now + adapt.interval_secs,
                Event::AdaptTick {
                    cluster,
                    generation,
                },
            );
        }
    }

    fn apply_local_action(&mut self, cluster: ClusterId, action: LocalAction) {
        match action {
            LocalAction::AcceptClients => {}
            LocalAction::PromotePartner => {
                if let Some(p) = self.net.promote_client(cluster, &mut self.rng) {
                    self.credit_client_time(p);
                    self.charge_index_transfer(cluster, p);
                }
            }
            LocalAction::SplitCluster => self.split_cluster(cluster),
            LocalAction::Coalesce | LocalAction::Resign => self.coalesce_cluster(cluster),
            LocalAction::IncreaseOutdegree => {
                if let Some(nb) = self.net.random_cluster(&mut self.rng) {
                    self.net.add_edge(cluster, nb);
                }
            }
            LocalAction::DecreaseTtl => {
                if let Some(c) = self.net.cluster_mut(cluster) {
                    if c.ttl > 1 {
                        c.ttl -= 1;
                    }
                }
            }
        }
    }

    /// Splits half the clients into a fresh cluster led by a promoted
    /// client.
    fn split_cluster(&mut self, cluster: ClusterId) {
        let Some(c) = self.net.cluster_mut(cluster) else {
            return;
        };
        if c.clients.len() < 2 {
            return;
        }
        let half = c.clients.len() / 2;
        let movers = self.mech.copy_members(&c.clients[..half]);
        // The first mover leads the new cluster.
        let lead = movers[0];
        self.credit_client_time(lead);
        self.net.detach_client(lead);
        let files = self.net.peers[lead as usize].as_ref().expect("alive").files as f64;
        let ttl = self.net.clusters[cluster as usize]
            .as_ref()
            .expect("alive")
            .ttl;
        let new_cluster = self.add_cluster(lead, ttl);
        if let Some(cl) = self.net.cluster_mut(new_cluster) {
            cl.last_adapt_at = self.now;
        }
        if self.net.peer_mut(lead).is_some() {
            self.net.counters[lead as usize].work(self.config.costs.process_join_units(files));
        }
        self.net.add_edge(new_cluster, cluster);
        // Inherit one neighbor to stay searchable.
        if let Some(&nb) = self.net.clusters[cluster as usize]
            .as_ref()
            .expect("alive")
            .neighbors
            .first()
        {
            self.net.add_edge(new_cluster, nb);
        }
        for &mover in &movers[1..] {
            self.credit_client_time(mover);
            self.net.detach_client(mover);
            self.attach_and_charge_join(mover, new_cluster);
        }
        self.mech.recycle(movers);
        let generation = self.net.clusters[new_cluster as usize]
            .as_ref()
            .expect("alive")
            .generation;
        // The offspring starts with a lone partner; recruit up to k.
        if self.config.redundancy_k > 1 {
            self.mech.schedule(
                self.now + RECRUIT_DELAY_SECS,
                Event::RecruitPartner {
                    cluster: new_cluster,
                    generation,
                },
            );
        }
        if let Some(adapt) = self.opts.adapt {
            self.mech.schedule(
                self.now + adapt.interval_secs,
                Event::AdaptTick {
                    cluster: new_cluster,
                    generation,
                },
            );
        }
    }

    /// Dissolves the cluster into a neighbor (or any random cluster):
    /// clients and partners all become clients elsewhere.
    fn coalesce_cluster(&mut self, cluster: ClusterId) {
        let target = {
            // A headless cluster (repair pending) cannot absorb the
            // members — nobody would index them; the filter is inert
            // without a promoting repair policy.
            let has_partners = |x: ClusterId| {
                !self.net.clusters[x as usize]
                    .as_ref()
                    .expect("alive")
                    .partners
                    .is_empty()
            };
            let c = self.net.clusters[cluster as usize].as_ref().expect("alive");
            c.neighbors
                .iter()
                .copied()
                .find(|&x| has_partners(x))
                .or_else(|| {
                    // No neighbor: any other live cluster.
                    self.net
                        .alive_clusters()
                        .find(|&x| x != cluster && has_partners(x))
                })
        };
        let Some(target) = target else {
            return; // last cluster standing cannot dissolve
        };
        let clients = self.copy_clients(cluster);
        let partners = self.copy_partners(cluster);
        for &cl in &clients {
            self.credit_client_time(cl);
            self.net.detach_client(cl);
            self.attach_and_charge_join(cl, target);
        }
        for &p in &partners {
            self.net.detach_partner(p);
            self.attach_and_charge_join(p, target);
        }
        self.mech.recycle(partners);
        self.mech.recycle(clients);
        self.remove_cluster(cluster);
    }

    fn on_sample(&mut self) {
        let clusters = self.net.num_alive_clusters();
        let mut sizes = 0usize;
        let mut ttl_sum = 0.0;
        let mut deg_sum = 0.0;
        for c in self.net.alive_clusters() {
            let cl = self.net.clusters[c as usize].as_ref().expect("alive");
            sizes += cl.size();
            ttl_sum += cl.ttl as f64;
            deg_sum += cl.neighbors.len() as f64;
        }
        let peers = self.net.peers.iter().filter(|p| p.is_some()).count();
        let mean = |sum: f64| {
            if clusters > 0 {
                sum / clusters as f64
            } else {
                0.0
            }
        };
        self.metrics.timeline.push(TimelinePoint {
            time: self.now,
            clusters,
            peers,
            mean_cluster_size: mean(sizes as f64),
            mean_ttl: mean(ttl_sum),
            mean_outdegree: mean(deg_sum),
        });
        self.mech
            .schedule(self.now + SAMPLE_INTERVAL_SECS, Event::Sample);
        if self.overload.active() {
            self.overload
                .sample(self.now, clusters as u64, &mut self.metrics.overload);
        }
        self.observe_reachability();
    }

    /// Applies a fault-plan event. Crash faults resolve their victims
    /// against the alive-cluster list and then force each victim
    /// partner through the normal `on_leave` path, so recruitment,
    /// cluster failure, and orphaning behave exactly like organic
    /// churn.
    fn on_fault(&mut self, index: u32, start: bool) {
        let alive: Vec<ClusterId> = self.net.alive_clusters().collect();
        match self
            .faults
            .on_fault_event(&self.scenario_plan.faults, index, start, &alive)
        {
            FaultAction::None => {}
            FaultAction::Crash(victims) => {
                // Snapshot (peer, generation) pairs first: crashing one
                // cluster's partners must not shift a later victim's
                // membership mid-iteration.
                let mut doomed: Vec<(PeerId, u32)> = Vec::new();
                for &c in &victims {
                    if let Some(cl) = self.net.clusters[c as usize].as_ref() {
                        for &p in &cl.partners {
                            doomed.push((p, self.net.peer_generation(p)));
                        }
                    }
                }
                // Repair engages only for fault-injected deaths:
                // organic churn keeps the legacy dissolve-and-orphan
                // path, so an empty fault plan is bitwise inert under
                // every repair policy.
                self.in_fault_crash = true;
                for (p, generation) in doomed {
                    if self.net.peer(p, generation).is_some() {
                        self.metrics.faults.injected_crash += 1;
                        self.on_leave(p, generation);
                    }
                }
                self.in_fault_crash = false;
                // Probe connectivity right after the blast: the dip a
                // coarse sampling grid would miss.
                self.observe_reachability();
            }
        }
    }

    /// Applies a scenario phase boundary. Flash crowds and churn
    /// bursts only toggle modifier state inside [`ScenarioState`].
    /// Mass leaves force victims through the normal `on_leave` path
    /// with `in_fault_crash` left false — the departure is
    /// organic-style churn, so repair does not engage. Split windows
    /// route through the fault layer's partition depth counters, so
    /// the flood hot path carries no scenario-specific branch.
    fn on_phase(&mut self, index: u32, start: bool) {
        match self.scenario.on_phase_event(index, start) {
            PhaseAction::None => {}
            PhaseAction::MassLeave { fraction } => {
                // Snapshot alive peers in slot order, then
                // generation-guard each victim: an earlier victim's
                // departure cascade must not shift later picks.
                let alive: Vec<(PeerId, u32)> = (0..self.net.peers.len())
                    .filter(|&slot| self.net.peers[slot].is_some())
                    .map(|slot| (slot as PeerId, self.net.peer_generation(slot as PeerId)))
                    .collect();
                let victims = self.scenario.pick_mass_leave(alive.len(), fraction);
                for i in victims {
                    let (p, generation) = alive[i];
                    if self.net.peer(p, generation).is_some() {
                        self.on_leave(p, generation);
                    }
                }
                // Probe connectivity right after the blast, exactly
                // like an injected crash wave.
                self.observe_reachability();
            }
            PhaseAction::SplitBegin { fraction } => {
                let alive: Vec<ClusterId> = self.net.alive_clusters().collect();
                let resolved = self.scenario.pick_split(&alive, fraction);
                self.faults.scenario_partition_begin(&resolved);
                self.scenario.store_split(index, resolved);
            }
            PhaseAction::SplitEnd => {
                let resolved = self.scenario.take_split(index);
                self.faults.scenario_partition_end(&resolved);
            }
        }
    }

    fn finalize(&mut self) {
        // Account still-alive peers.
        for slot in 0..self.net.peers.len() {
            let Some(peer) = self.net.peers[slot].as_ref() else {
                continue;
            };
            let alive_for = self.now - peer.joined_at;
            if alive_for > 1.0 {
                let rate = self.net.counters[slot].mean_rate(alive_for);
                if peer.is_partner {
                    self.metrics.sp_in.push(rate.in_bw);
                    self.metrics.sp_out.push(rate.out_bw);
                    self.metrics.sp_proc.push(rate.proc);
                } else {
                    self.metrics.client_in.push(rate.in_bw);
                    self.metrics.client_out.push(rate.out_bw);
                    self.metrics.client_proc.push(rate.proc);
                }
            }
            if !peer.is_partner {
                if peer.cluster.is_some() {
                    self.metrics.client_connected_secs += self.now - peer.attached_at;
                } else {
                    self.metrics.client_disconnected_secs += self.now - peer.attached_at;
                }
            }
        }
        self.observe_reachability();
        let last = self
            .metrics
            .repair
            .reachability
            .last()
            .expect("just pushed");
        self.metrics.repair.final_components = last.components;
        self.metrics.repair.final_reachable_fraction = last.reachable_fraction;
        if self.overload.active() {
            self.overload.finalize(self.now, &mut self.metrics.overload);
        }
    }
}

/// Free-function core of [`ChurnEngine::rr_partner`], callable while
/// the caller holds disjoint borrows of other engine fields.
#[inline]
fn rr_partner_net(net: &mut SimNetwork, cluster: ClusterId) -> PeerId {
    let c = net.cluster_mut(cluster).expect("cluster alive");
    let idx = c.rr % c.partners.len();
    c.rr = c.rr.wrapping_add(1);
    c.partners[idx]
}

/// The fast churn engine: the [`ChurnEngine`] core with
/// [`FastMechanics`].
pub type Simulation = ChurnEngine<FastMechanics>;

/// The fast engine's mechanics (see the module docs): an indexed event
/// queue with per-slot timer handles, pooled member-list scratch,
/// cached partner-connection counts, and the fused flood-and-charge
/// query tail.
pub struct FastMechanics {
    queue: IndexedEventQueue,
    obs: SimMetrics,
    // Per-peer-slot handles for the (at most one) outstanding timer of
    // each kind, cancelled when the peer departs so the queue never
    // accumulates tombstones.
    leave_h: Vec<EventHandle>,
    query_h: Vec<EventHandle>,
    update_h: Vec<EventHandle>,
    rejoin_h: Vec<EventHandle>,
    // Per-cluster-slot handle of the outstanding adapt tick.
    adapt_h: Vec<EventHandle>,
    /// Member-list buffers handed out by `copy_members` and returned
    /// by `recycle` (a stack, so nested copies never share a buffer).
    pool: Vec<Vec<PeerId>>,
    // BFS scratch over cluster slots.
    stamp_cur: u32,
    bfs_parent: Vec<ClusterId>,
    bfs_depth: Vec<u16>,
    bfs_order: Vec<ClusterId>,
    bfs_candidates: Vec<ClusterId>,
    /// Per-cluster flood scratch (visit stamp + discovery-time
    /// snapshot), indexed by cluster slot; see [`FloodSlot`].
    flood: Vec<FloodSlot>,
}

impl FastMechanics {
    /// Mechanics around `queue`, with the timer handles and the flood
    /// scratch reserved for the planned peer and cluster slots.
    fn with_queue(queue: IndexedEventQueue, slabs: &SlabPlan) -> Self {
        FastMechanics {
            queue,
            obs: SimMetrics::default(),
            leave_h: Vec::with_capacity(slabs.peers),
            query_h: Vec::with_capacity(slabs.peers),
            update_h: Vec::with_capacity(slabs.peers),
            rejoin_h: Vec::with_capacity(slabs.peers),
            adapt_h: Vec::with_capacity(slabs.clusters),
            pool: Vec::new(),
            stamp_cur: 0,
            bfs_parent: Vec::with_capacity(slabs.clusters),
            bfs_depth: Vec::with_capacity(slabs.clusters),
            bfs_order: Vec::with_capacity(slabs.clusters),
            bfs_candidates: Vec::new(),
            flood: Vec::with_capacity(slabs.clusters),
        }
    }

    /// Cancels a stored handle (no-op on NULL/stale/fired handles) and
    /// counts the cancellation.
    fn cancel(&mut self, handle: EventHandle) {
        if self.queue.cancel(handle) {
            self.obs.cancelled += 1;
        }
    }

    /// Forgets every timer handle of a departed peer's slot.
    fn clear_peer_handles(&mut self, peer: PeerId) {
        let p = peer as usize;
        self.leave_h[p] = EventHandle::NULL;
        self.query_h[p] = EventHandle::NULL;
        self.update_h[p] = EventHandle::NULL;
        self.rejoin_h[p] = EventHandle::NULL;
    }
}

impl sealed::Sealed for FastMechanics {}

impl Mechanics for FastMechanics {
    const ENGINE: u8 = ENGINE_FAST;

    fn fresh(slabs: &SlabPlan) -> Self {
        Self::with_queue(IndexedEventQueue::with_capacity(slabs.events), slabs)
    }

    fn schedule(&mut self, time: SimTime, event: Event) {
        let h = self.queue.schedule(time, event);
        match event {
            Event::PeerLeave { peer, .. } => self.leave_h[peer as usize] = h,
            Event::Query { peer, .. } => self.query_h[peer as usize] = h,
            Event::Update { peer, .. } => self.update_h[peer as usize] = h,
            Event::ClientRejoin { peer, .. } => self.rejoin_h[peer as usize] = h,
            Event::AdaptTick { cluster, .. } => self.adapt_h[cluster as usize] = h,
            _ => {}
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.queue.pop()
    }

    fn peer_arrived(&mut self, peer: PeerId) {
        // Grow the handle slots to cover `peer`; the slot may be
        // recycled from a departed peer.
        let need = peer as usize + 1;
        if self.leave_h.len() < need {
            self.leave_h.resize(need, EventHandle::NULL);
            self.query_h.resize(need, EventHandle::NULL);
            self.update_h.resize(need, EventHandle::NULL);
            self.rejoin_h.resize(need, EventHandle::NULL);
        }
        self.clear_peer_handles(peer);
    }

    fn peer_left(&mut self, peer: PeerId) {
        // The query/update/rejoin timers would pop as tombstones;
        // cancel them instead. The leave timer is left alone.
        let p = peer as usize;
        self.cancel(self.query_h[p]);
        self.cancel(self.update_h[p]);
        self.cancel(self.rejoin_h[p]);
        self.clear_peer_handles(peer);
    }

    fn peer_gave_up(&mut self, peer: PeerId) {
        let p = peer as usize;
        self.cancel(self.leave_h[p]);
        self.cancel(self.query_h[p]);
        self.cancel(self.update_h[p]);
        self.clear_peer_handles(peer);
    }

    fn rejoin_settled(&mut self, peer: PeerId) {
        self.rejoin_h[peer as usize] = EventHandle::NULL;
    }

    fn cluster_created(engine: &mut Simulation, cluster: ClusterId) {
        // Every per-cluster slot array (adapt handle, repair window)
        // covers the cluster slab; the slot may be recycled from a
        // dissolved cluster.
        let need = cluster as usize + 1;
        let adapt_h = &mut engine.mech.adapt_h;
        if adapt_h.len() < need {
            adapt_h.resize(need, EventHandle::NULL);
        }
        adapt_h[cluster as usize] = EventHandle::NULL;
        *engine.repair_slot(cluster) = RepairPending::default();
    }

    fn adapt_stalled(&mut self, cluster: ClusterId) {
        self.adapt_h[cluster as usize] = EventHandle::NULL;
    }

    fn cluster_removed(&mut self, cluster: ClusterId) {
        self.cancel(self.adapt_h[cluster as usize]);
        self.adapt_h[cluster as usize] = EventHandle::NULL;
    }

    fn copy_members(&mut self, members: &[PeerId]) -> Vec<PeerId> {
        let mut list = self.pool.pop().unwrap_or_default();
        list.clear();
        list.extend_from_slice(members);
        list
    }

    fn recycle(&mut self, list: Vec<PeerId>) {
        self.pool.push(list);
    }

    /// O(1) via the network's incrementally maintained neighbor-link
    /// cache. Exactly equal to the reference engine's O(degree)
    /// recomputation: the cache is an integer, so the f64 conversion is
    /// identical.
    fn count_connections(net: &SimNetwork, cluster: ClusterId) -> f64 {
        net.clusters[cluster as usize]
            .as_ref()
            .expect("cluster alive")
            .partner_connections_cached()
    }

    fn flood_query(engine: &mut Simulation, query: &AdmittedQuery) -> (u64, u16) {
        engine.flood_and_charge(query.cluster, query.ttl, query.policy);
        engine.probe_and_respond(query)
    }

    fn count_stale(&mut self) {
        self.obs.stale += 1;
    }

    fn count_delivered(&mut self, kind: EventKind, profile: bool) -> ProfileTimer {
        self.obs.record_delivered(kind);
        ProfileTimer::start(profile)
    }

    fn record_handled(&mut self, kind: EventKind, timer: ProfileTimer) {
        timer.record(&mut self.obs, kind);
    }

    fn delivered(&self) -> u64 {
        self.obs.delivered_total()
    }

    fn finish_run(engine: &mut Simulation) {
        let mech = &mut engine.mech;
        mech.obs.queue_high_water = mech.queue.high_water();
        mech.obs.profiled = engine.opts.profile;
    }

    fn snap_queue(&self, w: &mut SnapWriter) {
        self.queue.snap(w);
    }

    fn unsnap_queue(r: &mut SnapReader<'_>, slabs: &SlabPlan) -> Result<Self, SnapshotError> {
        Ok(Self::with_queue(
            IndexedEventQueue::unsnap(r, slabs.events)?,
            slabs,
        ))
    }

    fn snap_counters(&self, w: &mut SnapWriter) {
        checkpoint::snap_sim_metrics(&self.obs, w);
    }

    fn unsnap_counters(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.obs = checkpoint::unsnap_sim_metrics(r)?;
        Ok(())
    }

    fn snap_timers(&self, w: &mut SnapWriter) {
        for handles in [
            &self.leave_h,
            &self.query_h,
            &self.update_h,
            &self.rejoin_h,
            &self.adapt_h,
        ] {
            w.len(handles.len());
            for h in handles {
                h.snap(w);
            }
        }
    }

    fn unsnap_timers(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        for handles in [
            &mut self.leave_h,
            &mut self.query_h,
            &mut self.update_h,
            &mut self.rejoin_h,
            &mut self.adapt_h,
        ] {
            let n = r.len("handle vec len")?;
            handles.reserve_exact(n);
            for _ in 0..n {
                handles.push(EventHandle::unsnap(r)?);
            }
        }
        Ok(())
    }
}

/// Per-cluster flood scratch, merged into a single record so the hot
/// transmission and probe loops pay one bounds check and touch one
/// cache line per cluster instead of indexing seven parallel arrays.
///
/// Snapshot fields are written at discovery and are exact for the
/// whole event: membership, files, and the overlay cannot change
/// mid-query, so the values equal the reference engine's per-use
/// recomputation.
#[derive(Clone, Copy, Default)]
struct FloodSlot {
    /// Visit stamp (equals `FastMechanics::stamp_cur` when visited by
    /// the current flood).
    stamp: u32,
    /// Partner count at discovery: clusters with a single partner (the
    /// k = 1 common case) resolve round-robin picks from this record
    /// instead of dereferencing the cluster per transmission.
    len: u32,
    /// First partner at discovery (the round-robin pick while
    /// `len == 1`).
    partner: PeerId,
    /// Deferred rr-cursor advances for k = 1 clusters, flushed once at
    /// the end of each query (rr is never *read* while a cluster has a
    /// single partner, so batching the writes is exact).
    bump: u32,
    /// `recv_query_units + mux × conns` for the current query,
    /// computed once at discovery (clusters average more than two
    /// incoming copies per flood).
    recv_units: f64,
    /// Partner connection count at discovery.
    conns: f64,
    /// Indexed file total at discovery.
    files: u64,
}

impl Simulation {
    /// Engine observability counters (event rates, cancellations,
    /// queue depth, optional wall-time histograms).
    pub fn observability(&self) -> &SimMetrics {
        &self.mech.obs
    }

    /// Every slab the run's [`SlabPlan`] sizes: its name, capacity, and
    /// planned slot count.
    #[cfg(test)]
    fn slab_capacities(&self) -> Vec<(&'static str, usize, usize)> {
        let plan = SlabPlan::for_config(&self.config);
        let m = &self.mech;
        let mut caps = Vec::new();
        caps.extend(
            m.queue
                .slab_capacities()
                .map(|(slab, cap)| (slab, cap, plan.events)),
        );
        caps.extend(self.net.slab_capacities(&plan));
        for (slab, cap) in [
            ("mech.leave_h", m.leave_h.capacity()),
            ("mech.query_h", m.query_h.capacity()),
            ("mech.update_h", m.update_h.capacity()),
            ("mech.rejoin_h", m.rejoin_h.capacity()),
        ] {
            caps.push((slab, cap, plan.peers));
        }
        for (slab, cap) in [
            ("mech.adapt_h", m.adapt_h.capacity()),
            ("mech.flood", m.flood.capacity()),
            ("mech.bfs_parent", m.bfs_parent.capacity()),
            ("mech.bfs_depth", m.bfs_depth.capacity()),
            ("mech.bfs_order", m.bfs_order.capacity()),
            ("repair_pending", self.repair_pending.capacity()),
        ] {
            caps.push((slab, cap, plan.clusters));
        }
        caps
    }

    /// Builds the structured run manifest from the metrics
    /// [`run`](ChurnEngine::run) returned and the measured wall-clock
    /// time of the run.
    pub fn manifest(&self, metrics: &RawMetrics, wall_secs: f64) -> RunManifest {
        let plan = &self.scenario_plan;
        RunManifest {
            seed: self.opts.seed,
            duration_secs: self.opts.duration_secs,
            graph_size: self.config.graph_size,
            cluster_size: self.config.cluster_size,
            redundancy_k: self.config.redundancy_k,
            wall_secs,
            metrics: self.mech.obs.clone(),
            fault_seed: self.opts.fault_seed,
            fault_plan_len: plan.faults.faults.len(),
            faults: metrics.faults.clone(),
            repair_policy: plan.repair,
            repair: metrics.repair.clone(),
            overload_policy: plan.overload,
            overload: metrics.overload.clone(),
        }
    }

    /// TTL-bounded BFS over live clusters that charges every query
    /// transmission inline as it is discovered (first copies and
    /// dropped duplicates alike — both consume bandwidth and
    /// processing), honoring the forwarding policy. Fills `bfs_order`,
    /// `bfs_depth`, `bfs_parent`, and snapshots each visited cluster
    /// into its [`FloodSlot`] at discovery time.
    ///
    /// Merging traversal and charging is *exact*, not approximate: the
    /// reference engine records the transmission list during its flood
    /// and replays it afterwards, so the transmission sequence is the
    /// discovery sequence either way. Charging mutates only load
    /// counters and round-robin cursors — which the traversal never
    /// reads — and draws no randomness, so the RandomSubset RNG draws,
    /// the round-robin cursor walks, and every per-peer float
    /// accumulation happen in the reference engine's order. Connection
    /// counts are constant for the whole event (nothing joins, leaves,
    /// or rewires mid-query), so the discovery-time snapshot equals the
    /// reference engine's post-flood recomputation.
    fn flood_and_charge(&mut self, src: ClusterId, ttl: u16, policy: ForwardPolicy) {
        let cm = self.config.costs;
        let (qbytes, send_q, recv_q) = (
            cm.query_bytes(),
            cm.send_query_units(),
            cm.recv_query_units(),
        );
        let n = self.net.clusters.len();
        let mech = &mut self.mech;
        if mech.flood.len() < n {
            mech.flood.resize(n, FloodSlot::default());
            mech.bfs_parent.resize(n, 0);
            mech.bfs_depth.resize(n, 0);
        }
        // Split `self` into disjoint field borrows so the hot loop
        // works on locals: with `&mut self` method calls inside the
        // loop the compiler would have to re-load every array pointer
        // and the stamp around each call to allow for aliasing.
        let ChurnEngine {
            net,
            rng,
            opts,
            metrics,
            faults,
            mech:
                FastMechanics {
                    stamp_cur,
                    bfs_parent,
                    bfs_depth,
                    bfs_order,
                    bfs_candidates: candidates,
                    flood,
                    ..
                },
            ..
        } = self;
        // Hoisted fault-window flags: a fault-free flood takes none of
        // the fault branches and makes no fault-stream draws.
        let part_on = faults.partitions_possible();
        let drop_on = faults.drops_possible();
        let delay_on = faults.delays_possible();
        let mux = cm.multiplex_per_connection;
        // Window accumulators are only observed by adapt ticks; skip
        // them when adaptation is off (see `LoadCounters`).
        let windows = opts.adapt.is_some();
        *stamp_cur = stamp_cur.wrapping_add(1);
        if *stamp_cur == 0 {
            for slot in flood.iter_mut() {
                slot.stamp = 0;
            }
            *stamp_cur = 1;
        }
        let cur = *stamp_cur;
        bfs_order.clear();
        bfs_depth[src as usize] = 0;
        bfs_parent[src as usize] = src;
        let fsrc = &mut flood[src as usize];
        fsrc.stamp = cur;
        flood_snapshot_into(net, fsrc, recv_q, mux, src);
        bfs_order.push(src);
        let mut head = 0;
        while head < bfs_order.len() {
            let v = bfs_order[head];
            head += 1;
            let vu = v as usize;
            let d = bfs_depth[vu];
            if d >= ttl {
                continue;
            }
            let Some(cv) = net.clusters[vu].as_mut() else {
                continue;
            };
            // Move v's neighbor list out (pointer swap, no copy) so it
            // can be iterated while charging mutates the network;
            // restored at the end of this turn. Nothing below reads
            // v's (empty) neighbor list: charging touches partner
            // lists, counters, and the cached link counts only.
            let neighbors = std::mem::take(&mut cv.neighbors);
            let parent = bfs_parent[vu];
            // Apply the forwarding policy. Flooding iterates the
            // neighbor list directly, skipping the arrival link
            // inline; bounded fanout needs a mutable selection buffer
            // (partial Fisher–Yates: the first `fanout` entries become
            // a uniform sample).
            let mut fanout_sel = false;
            if let ForwardPolicy::RandomSubset { fanout } = policy {
                candidates.clear();
                candidates.extend(
                    neighbors
                        .iter()
                        .copied()
                        .filter(|&u| v == src || u != parent),
                );
                if candidates.len() > fanout {
                    for i in 0..fanout {
                        let j = i + rng.index(candidates.len() - i);
                        candidates.swap(i, j);
                    }
                    candidates.truncate(fanout);
                }
                fanout_sel = true;
            }
            let skip_parent = !fanout_sel && v != src;
            let targets: &[ClusterId] = if fanout_sel { candidates } else { &neighbors };
            // Charge receivers first, then all of v's sends. This
            // reorders only operations on *distinct* clusters/peers
            // relative to the reference's per-candidate interleaving:
            // each cluster's rr-cursor calls and each peer's counter
            // adds keep their original relative order (the overlay has
            // no self-loops, so u != v and the receiving partner is
            // never the sending partner), and no RNG is involved — so
            // the result is bitwise identical while letting the sender
            // side hoist its cluster and peer lookups out of the loop.
            let v_conns = flood[vu].conns;
            let v_part = part_on && faults.is_partitioned(v);
            let mut n_sent = 0usize;
            for &u in targets {
                if skip_parent && u == parent {
                    continue;
                }
                // Partitioned link: severed before anything is sent
                // (no charge, no rr advance, no discovery).
                if part_on && (v_part || faults.is_partitioned(u)) {
                    metrics.faults.injected_partition_block += 1;
                    continue;
                }
                // Headless neighbor (repair pending): no partner to
                // receive the copy — the edge stays up but carries
                // nothing. No charge, no fault draw, no discovery.
                if net.clusters[u as usize]
                    .as_ref()
                    .expect("cluster alive")
                    .partners
                    .is_empty()
                {
                    continue;
                }
                n_sent += 1;
                // Message loss: the copy left the sender (charged with
                // the bulk send below) but never arrives — the target
                // is neither charged nor discovered through this edge.
                if drop_on && faults.draw_drop() {
                    metrics.faults.injected_drop += 1;
                    continue;
                }
                if delay_on {
                    if let Some(extra) = faults.draw_delay() {
                        metrics.faults.injected_delay += 1;
                        metrics.faults.delay_added_secs += extra;
                    }
                }
                let uu = u as usize;
                let fs = &mut flood[uu];
                if fs.stamp != cur {
                    fs.stamp = cur;
                    bfs_depth[uu] = d + 1;
                    bfs_parent[uu] = v;
                    flood_snapshot_into(net, fs, recv_q, mux, u);
                    bfs_order.push(u);
                }
                let receiver = if fs.len == 1 {
                    fs.bump += 1;
                    fs.partner
                } else {
                    rr_partner_net(net, u)
                };
                // Receivers are partners of alive clusters, so the
                // slot is live: charge the dense counter directly.
                // (`recv_q + mux * conns` was computed once at
                // discovery; clusters average >2 incoming copies.)
                let units = fs.recv_units;
                let rc = &mut net.counters[receiver as usize];
                if windows {
                    rc.recv(qbytes, units);
                } else {
                    rc.recv_unwindowed(qbytes, units);
                }
            }
            let send_units = send_q + mux * v_conns;
            let fv = &mut flood[vu];
            if fv.len == 1 {
                // Common k = 1 case: every send leaves the same peer,
                // so resolve it once and advance rr in bulk.
                let sender = fv.partner;
                fv.bump += n_sent as u32;
                let sc = &mut net.counters[sender as usize];
                if windows {
                    for _ in 0..n_sent {
                        sc.send(qbytes, send_units);
                    }
                } else {
                    for _ in 0..n_sent {
                        sc.send_unwindowed(qbytes, send_units);
                    }
                }
            } else {
                for _ in 0..n_sent {
                    let sender = rr_partner_net(net, v);
                    let sc = &mut net.counters[sender as usize];
                    if windows {
                        sc.send(qbytes, send_units);
                    } else {
                        sc.send_unwindowed(qbytes, send_units);
                    }
                }
            }
            net.clusters[vu].as_mut().expect("cluster alive").neighbors = neighbors;
        }
        // Deferred rr advances stay pending in the slots' `bump` until
        // the flush at the end of `probe_and_respond` (the probe loop
        // adds its own bumps first); nothing reads a k = 1 cluster's
        // rr cursor in between.
    }

    /// Probes every cluster the flood reached, draws its results, and
    /// charges each response along the reverse flood path (and on to a
    /// client source). Returns the total results and the deepest
    /// responding hop.
    fn probe_and_respond(&mut self, query: &AdmittedQuery) -> (u64, u16) {
        let cm = self.config.costs;
        let f_j = self.model.selection_power(query.class);
        let sc = query.cluster;
        // Most probes yield zero results; hoist that cost out of the
        // loop (same function, same input — bitwise identical).
        let probe_units_zero = cm.process_query_units(0.0);
        let mux = cm.multiplex_per_connection;
        let mut total_results = 0u64;
        let mut deepest_response = 0u16;
        // Same disjoint-borrow split as `flood_and_charge`: the probe
        // loop reads the per-flood slots (file totals, first partners)
        // instead of dereferencing each cluster again, and defers
        // k = 1 rr advances to the flush below.
        let ChurnEngine {
            net,
            rng,
            opts,
            mech:
                FastMechanics {
                    bfs_order,
                    bfs_parent,
                    bfs_depth,
                    flood,
                    ..
                },
            ..
        } = self;
        // Window accumulators are only observed by adapt ticks; skip
        // them when adaptation is off (see `LoadCounters`).
        let windows = opts.adapt.is_some();
        for &v in bfs_order.iter() {
            let vu = v as usize;
            // Index probe + sampled results. The Poisson draw
            // replicates `Poisson::sample` exactly — same branches,
            // same RNG call sites — skipping the cross-crate
            // constructor + trait call on the hottest loop of the
            // simulation.
            let fs = &mut flood[vu];
            let lambda = f_j * fs.files as f64;
            let results = if lambda == 0.0 {
                0
            } else if lambda < 30.0 {
                // Knuth's product method, verbatim from `Poisson`.
                let limit = (-lambda).exp();
                let mut product = rng.unit_f64();
                let mut count = 0u64;
                while product > limit {
                    product *= rng.unit_f64();
                    count += 1;
                }
                count
            } else {
                let x = lambda + lambda.sqrt() * Normal::standard(rng);
                x.round().max(0.0) as u64
            };
            let prober = if fs.len == 1 {
                fs.bump += 1;
                fs.partner
            } else {
                rr_partner_net(net, v)
            };
            let probe_units = if results == 0 {
                probe_units_zero
            } else {
                cm.process_query_units(results as f64)
            };
            let pc = &mut net.counters[prober as usize];
            if windows {
                pc.work(probe_units);
            } else {
                pc.work_unwindowed(probe_units);
            }
            total_results += results;
            if results == 0 {
                continue;
            }
            deepest_response = deepest_response.max(bfs_depth[vu]);
            // Response travels the reverse path to the source.
            let members = net.clusters[vu].as_ref().expect("alive").size() as u64;
            let addrs = results.min(members) as f64;
            let rbytes = cm.response_bytes(addrs, results as f64);
            let r_send = cm.send_response_units(addrs, results as f64);
            let r_recv = cm.recv_response_units(addrs, results as f64);
            // The response retraces flood edges, so every cluster on
            // the walk is in this flood's snapshot: resolve the k = 1
            // partners from the slots (deferring the rr advance)
            // exactly like the probe above. Responses outnumber flood
            // transmissions on this workload, so skipping the per-hop
            // cluster dereferences matters.
            let mut hop = v;
            while hop != sc {
                let parent = bfs_parent[hop as usize];
                let fh = &mut flood[hop as usize];
                let s_conns = fh.conns;
                let sender = if fh.len == 1 {
                    fh.bump += 1;
                    fh.partner
                } else {
                    rr_partner_net(net, hop)
                };
                let fp = &mut flood[parent as usize];
                let r_conns = fp.conns;
                let receiver = if fp.len == 1 {
                    fp.bump += 1;
                    fp.partner
                } else {
                    rr_partner_net(net, parent)
                };
                charge_pair_net(
                    net, sender, receiver, rbytes, r_send, r_recv, s_conns, r_conns, mux,
                );
                hop = parent;
            }
            // Deliver to a client source. The source cluster's partner
            // count doubles as the client's connection count (one link
            // per partner).
            if !query.from_partner {
                let fsc = &mut flood[sc as usize];
                let p_conns = fsc.conns;
                let c_conns = f64::from(fsc.len);
                let partner = if fsc.len == 1 {
                    fsc.bump += 1;
                    fsc.partner
                } else {
                    rr_partner_net(net, sc)
                };
                charge_pair_net(
                    net, partner, query.peer, rbytes, r_send, r_recv, p_conns, c_conns, mux,
                );
            }
        }
        // Flush the rr advances deferred by the flood and the probe
        // loop: one cluster write per visited cluster instead of one
        // per transmission. Exact because partner lists cannot change
        // mid-event, a k = 1 cluster's rr cursor is never read while
        // its bump is pending, and the direct rr increments of the
        // response path commute with the pending additions.
        for &v in bfs_order.iter() {
            let vu = v as usize;
            let bump = flood[vu].bump;
            if bump != 0 {
                flood[vu].bump = 0;
                let c = net.clusters[vu].as_mut().expect("cluster alive");
                c.rr = c.rr.wrapping_add(bump as usize);
            }
        }
        (total_results, deepest_response)
    }
}

/// Records a cluster's partner-connection count, first partner, and
/// partner count into the per-flood snapshot arrays (one cluster
/// dereference at discovery instead of one per transmission).
#[inline]
fn flood_snapshot_into(
    net: &SimNetwork,
    slot: &mut FloodSlot,
    recv_q: f64,
    mux: f64,
    u: ClusterId,
) {
    let c = net.clusters[u as usize].as_ref().expect("cluster alive");
    let cc = c.partner_connections_cached();
    slot.conns = cc;
    slot.len = c.partners.len() as u32;
    slot.partner = c.partners[0];
    slot.files = c.total_files;
    slot.recv_units = recv_q + mux * cc;
}

/// Free-function core of [`ChurnEngine::charge_pair`] for the hot
/// response path, callable while the caller holds disjoint borrows of
/// other engine fields.
#[allow(
    clippy::too_many_arguments,
    reason = "mirrors ChurnEngine::charge_pair over a borrowed network"
)]
#[inline]
fn charge_pair_net(
    net: &mut SimNetwork,
    from: PeerId,
    to: PeerId,
    bytes: f64,
    send_units: f64,
    recv_units: f64,
    from_conns: f64,
    to_conns: f64,
    mux: f64,
) {
    // Both endpoints are members of alive clusters on every call
    // path, so the slots are live and the check can be skipped.
    net.counters[from as usize].send(bytes, send_units + mux * from_conns);
    net.counters[to as usize].recv(bytes, recv_units + mux * to_conns);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Config {
        Config {
            graph_size: 100,
            cluster_size: 10,
            ..Config::default()
        }
    }

    #[test]
    fn bootstrap_mirrors_instance() {
        let cfg = small_config();
        let sim = Simulation::new(&cfg, SimOptions::default());
        assert_eq!(sim.net.num_alive_clusters(), 10);
        sim.net.check_invariants().unwrap();
    }

    #[test]
    fn short_run_processes_queries_and_stays_consistent() {
        let cfg = small_config();
        let mut sim = Simulation::new(
            &cfg,
            SimOptions {
                duration_secs: 600.0,
                seed: 1,
                ..Default::default()
            },
        );
        let m = sim.run();
        assert!(m.queries > 0, "no queries simulated");
        assert!(m.results.count() == m.queries);
        sim.net.check_invariants().unwrap();
        assert!(m.sp_proc.mean() > m.client_proc.mean());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_config();
        let run = |seed| {
            let mut s = Simulation::new(
                &cfg,
                SimOptions {
                    duration_secs: 300.0,
                    seed,
                    ..Default::default()
                },
            );
            let m = s.run();
            (m.queries, m.results.mean(), m.cluster_failures)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, run(10).0);
    }

    #[test]
    fn snapshot_round_trip_resumes_bitwise() {
        let cfg = small_config();
        let opts = SimOptions {
            duration_secs: 600.0,
            seed: 7,
            ..Default::default()
        };
        let mut full = Simulation::new(&cfg, opts);
        let baseline = full.run();

        let mut head = Simulation::new(&cfg, opts);
        head.run_to(200.0);
        let snap = head.snapshot();
        let mut resumed = Simulation::restore(&snap).expect("restore");
        let resumed_metrics = resumed.run();
        assert_eq!(baseline, resumed_metrics);
        assert_eq!(
            full.observability().delivered,
            resumed.observability().delivered
        );
        assert_eq!(full.observability().stale, resumed.observability().stale);
    }

    #[test]
    fn chained_checkpoints_resume_bitwise() {
        let cfg = small_config();
        let opts = SimOptions {
            duration_secs: 600.0,
            seed: 11,
            ..Default::default()
        };
        let mut full = Simulation::new(&cfg, opts);
        let baseline = full.run();

        let mut sim = Simulation::new(&cfg, opts);
        sim.run_to(150.0);
        let mut sim = Simulation::restore(&sim.snapshot()).expect("restore at 150");
        sim.run_to(400.0);
        let mut sim = Simulation::restore(&sim.snapshot()).expect("restore at 400");
        assert_eq!(baseline, sim.run());
    }

    #[test]
    fn restore_rejects_corrupted_snapshot() {
        let cfg = small_config();
        let mut sim = Simulation::new(&cfg, SimOptions::default());
        sim.run_to(100.0);
        let mut snap = sim.snapshot();
        // Flip one payload byte; the fingerprint must catch it.
        let mid = snap.len() / 2;
        snap[mid] ^= 0x40;
        assert!(Simulation::restore(&snap).is_err());
        // Truncation is named, not a panic.
        let good = sim.snapshot();
        assert!(Simulation::restore(&good[..good.len() - 3]).is_err());
    }

    #[test]
    fn snapshot_carries_the_plan_once() {
        // Faults, repair, and overload control travel only inside the
        // plan: a checkpoint taken between a crash wave and its repair
        // elections restores the same plan and resumes bitwise.
        use sp_model::overload::OverloadPolicy;
        use sp_model::population::PopulationModel;
        use sp_model::repair::RepairPolicy;
        let cfg = Config {
            population: PopulationModel {
                lifespan_mean_secs: 400.0,
                ..Default::default()
            },
            ..small_config()
        }
        .with_redundancy(true);
        let plan = ScenarioPlan {
            faults: crate::scenario::crash_storm_plan(900.0),
            repair: RepairPolicy::PromotePartner,
            overload: OverloadPolicy::sized_for(&cfg),
            ..ScenarioPlan::default()
        };
        let opts = SimOptions {
            duration_secs: 900.0,
            seed: 42,
            fault_seed: 7,
            ..Default::default()
        };
        let full = Simulation::with_scenario(&cfg, opts, &plan).run();
        assert!(full.repair.promotions > 0 && full.overload.delivered > 0);

        let mut head = Simulation::with_scenario(&cfg, opts, &plan);
        head.run_to(226.0); // first wave at 225 s, elections at 230 s
        let mut resumed = Simulation::restore(&head.snapshot()).expect("restore");
        assert_eq!(resumed.scenario_plan(), &plan);
        assert!(resumed.overload_active());
        assert_eq!(full, resumed.run());
    }

    #[test]
    fn version_3_snapshots_are_refused_by_name() {
        let cfg = small_config();
        let mut fast = Simulation::new(&cfg, SimOptions::default());
        fast.run_to(50.0);
        let mut reference = crate::reference::ReferenceSimulation::new(&cfg, SimOptions::default());
        reference.run_to(50.0);
        let v3 = |mut snap: Vec<u8>| {
            snap[4..8].copy_from_slice(&3u32.to_le_bytes());
            snap
        };
        let refused = SnapshotError::UnsupportedVersion {
            found: 3,
            supported: 4,
        };
        let fast_err = Simulation::restore(&v3(fast.snapshot())).err();
        assert_eq!(fast_err, Some(refused.clone()));
        let reference_err =
            crate::reference::ReferenceSimulation::restore(&v3(reference.snapshot())).err();
        assert_eq!(reference_err, Some(refused.clone()));
        assert!(refused.to_string().contains("version 3"));
    }

    #[test]
    fn planned_slot_costs_are_the_documented_ones() {
        // DESIGN.md §11, "Storage sized once", quotes these sizes; a
        // pending event's 52 bytes are pinned in `events.rs`.
        use std::mem::size_of;
        assert_eq!(size_of::<Option<crate::network::SimPeer>>(), 40);
        assert_eq!(size_of::<Option<crate::network::SimCluster>>(), 120);
        assert_eq!(size_of::<crate::counters::LoadCounters>(), 64);
        // One leave, query, update and rejoin handle per peer slot.
        assert_eq!(4 * size_of::<EventHandle>(), 32);
    }

    /// `restore` reserves the slabs from the snapshot's own config, so
    /// a crafted population must be refused by name before anything
    /// is reserved for it.
    #[test]
    fn restore_refuses_a_population_larger_than_the_snapshot() {
        let cfg = small_config();
        let mut sim = Simulation::new(&cfg, SimOptions::default());
        sim.run_to(50.0);
        let mut snap = sim.snapshot();
        // The payload starts at byte 17 with the graph type; the
        // population follows it. Re-seal so only the value is wrong.
        snap[18..26].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let end = snap.len() - 8;
        let seal = sp_model::snapshot::fnv1a(&snap[17..end]);
        snap[end..].copy_from_slice(&seal.to_le_bytes());
        match Simulation::restore(&snap) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("graph_size"), "{msg}"),
            other => panic!("expected a named refusal, got {:?}", other.err()),
        }
    }

    #[test]
    fn churn_triggers_failures_without_redundancy() {
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            // Short sessions → heavy churn.
            population: sp_model::population::PopulationModel {
                lifespan_mean_secs: 300.0,
                ..Default::default()
            },
            ..Config::default()
        };
        let mut sim = Simulation::new(
            &cfg,
            SimOptions {
                duration_secs: 1800.0,
                seed: 2,
                ..Default::default()
            },
        );
        let m = sim.run();
        assert!(m.cluster_failures > 0, "expected super-peer deaths");
        assert!(m.orphan_events > 0);
        assert!(m.availability() < 1.0);
        sim.net.check_invariants().unwrap();
    }

    #[test]
    fn redundancy_improves_availability() {
        let base = Config {
            graph_size: 120,
            cluster_size: 12,
            population: sp_model::population::PopulationModel {
                lifespan_mean_secs: 300.0,
                ..Default::default()
            },
            ..Config::default()
        };
        let avail = |cfg: &Config| {
            let mut s = Simulation::new(
                cfg,
                SimOptions {
                    duration_secs: 2400.0,
                    seed: 3,
                    ..Default::default()
                },
            );
            s.run().availability()
        };
        let plain = avail(&base);
        let red = avail(&base.clone().with_redundancy(true));
        assert!(
            red > plain,
            "redundancy did not improve availability: {red} vs {plain}"
        );
    }

    #[test]
    fn adaptive_mode_applies_actions() {
        let cfg = small_config();
        let mut sim = Simulation::new(
            &cfg,
            SimOptions {
                duration_secs: 1200.0,
                seed: 4,
                adapt: Some(AdaptSettings {
                    interval_secs: 120.0,
                    limit: Load {
                        in_bw: 1e5,
                        out_bw: 1e5,
                        proc: 1e7,
                    },
                }),
                ..Default::default()
            },
        );
        let m = sim.run();
        assert!(m.adapt_actions > 0, "no local actions taken");
        sim.net.check_invariants().unwrap();
    }

    #[test]
    fn timeline_is_sampled() {
        let cfg = small_config();
        let mut sim = Simulation::new(
            &cfg,
            SimOptions {
                duration_secs: 840.0,
                seed: 5,
                ..Default::default()
            },
        );
        let m = sim.run();
        assert!(
            m.timeline.len() >= 6,
            "timeline {} points",
            m.timeline.len()
        );
        assert!(m.timeline[0].clusters > 0);
    }

    #[test]
    fn churn_cancels_timers_instead_of_leaving_tombstones() {
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            population: sp_model::population::PopulationModel {
                lifespan_mean_secs: 300.0,
                ..Default::default()
            },
            ..Config::default()
        };
        let mut sim = Simulation::new(
            &cfg,
            SimOptions {
                duration_secs: 1800.0,
                seed: 6,
                ..Default::default()
            },
        );
        sim.run();
        let obs = sim.observability();
        assert!(obs.cancelled > 0, "churn should cancel pending timers");
        // The only tombstones left are recruit timers of failed
        // clusters (deliberately not slot-mapped: several can be
        // legitimately outstanding per cluster). Under this much churn
        // they must be a small minority of all popped events.
        assert!(
            obs.stale < obs.delivered_total() / 10,
            "stale {} vs delivered {}",
            obs.stale,
            obs.delivered_total()
        );
        assert!(obs.queue_high_water > 0);
        assert!(sim.events_delivered() == obs.delivered_total());
    }

    /// Every slab the [`SlabPlan`] sizes holds exactly its planned
    /// capacity after construction (so bootstrap did not regrow it),
    /// after a whole run, and after a mid-run snapshot, restore and run
    /// to the end, on scaled-down copies of the benchmark's churn
    /// shapes plus adaptation and a split.
    #[test]
    fn planned_slabs_never_regrow() {
        use sp_model::overload::OverloadPolicy;
        use sp_model::repair::RepairPolicy;
        use sp_model::scenario::{PhaseKind, PhaseSpec};
        let phase = |from_secs, until_secs, kind| PhaseSpec {
            from_secs,
            until_secs,
            rate_mult: 1.0,
            kind,
        };
        let opts = |duration_secs, seed| SimOptions {
            duration_secs,
            seed,
            fault_seed: seed,
            scenario_seed: seed,
            ..SimOptions::default()
        };

        // A 10x flash crowd over the middle 60 % of the run, under the
        // overload policy sized for the configuration.
        let crowd_cfg = Config {
            graph_size: 1_000,
            ..Config::default()
        };
        let crowd = ScenarioPlan {
            phases: vec![phase(
                96.0,
                384.0,
                PhaseKind::FlashCrowd {
                    query_rate_mult: 10.0,
                    hot_shift: 0,
                },
            )],
            overload: OverloadPolicy::sized_for(&crowd_cfg),
            ..ScenarioPlan::default()
        };
        // k = 2 at TTL 2: a crash storm, a churn burst and a mass
        // leave, with promote+partner repair.
        let storm_cfg = Config {
            graph_size: 2_000,
            ttl: 2,
            ..Config::default()
        }
        .with_redundancy(true);
        let d = 1800.0;
        let storm = ScenarioPlan {
            faults: crate::scenario::crash_storm_plan(d),
            repair: RepairPolicy::PromotePartner,
            phases: vec![
                phase(
                    0.2 * d,
                    0.8 * d,
                    PhaseKind::ChurnBurst {
                        lifespan_mult: 0.05,
                    },
                ),
                phase(0.6 * d, 0.65 * d, PhaseKind::MassLeave { fraction: 0.25 }),
            ],
            ..ScenarioPlan::default()
        };
        let adapt_opts = SimOptions {
            adapt: Some(AdaptSettings {
                interval_secs: 120.0,
                limit: Load {
                    in_bw: 2e5,
                    out_bw: 2e5,
                    proc: 2e7,
                },
            }),
            ..opts(1800.0, 3)
        };
        let split = ScenarioPlan {
            phases: vec![phase(300.0, 900.0, PhaseKind::Split { fraction: 0.3 })],
            ..ScenarioPlan::default()
        };
        let small = Config {
            graph_size: 1_000,
            ..Config::default()
        };
        let shapes = [
            ("flash crowd", crowd_cfg, opts(480.0, 42), crowd),
            ("churn storm", storm_cfg, opts(d, 42), storm),
            (
                "adaptation",
                small.clone(),
                adapt_opts,
                ScenarioPlan::default(),
            ),
            ("split", small, opts(1200.0, 5), split),
        ];
        for (shape, cfg, opts, plan) in shapes {
            let sized = |stage: &str, caps: Vec<(&str, usize, usize)>| {
                for (slab, cap, planned) in caps {
                    assert_eq!(
                        cap, planned,
                        "{shape}: {slab} has capacity {cap}, planned {planned}, {stage}"
                    );
                }
            };
            let mut sim = Simulation::with_scenario(&cfg, opts, &plan);
            sized("after construction", sim.slab_capacities());
            sim.run_to(opts.duration_secs / 2.0);
            let snap = sim.snapshot();
            sim.run();
            sized("after the run", sim.slab_capacities());

            let mut resumed = Simulation::restore(&snap).expect("restore");
            sized("after a restore", resumed.slab_capacities());
            resumed.run();
            sized("after the resumed run", resumed.slab_capacities());
        }
    }

    #[test]
    fn profiling_populates_wall_histograms() {
        let cfg = small_config();
        let mut sim = Simulation::new(
            &cfg,
            SimOptions {
                duration_secs: 300.0,
                seed: 7,
                profile: true,
                ..Default::default()
            },
        );
        let m = sim.run();
        let obs = sim.observability();
        assert!(obs.profiled);
        assert_eq!(
            obs.wall[EventKind::Query as usize].count(),
            obs.delivered_of(EventKind::Query)
        );
        assert!(obs.wall[EventKind::Query as usize].mean_ns() > 0.0);
        let manifest = sim.manifest(&m, 1.0);
        assert!(manifest.to_json().contains("\"profiled\": true"));
        assert!(manifest.events_per_sec() > 0.0);
    }
}
