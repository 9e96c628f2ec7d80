//! The pre-rework simulation engine, preserved verbatim.
//!
//! [`ReferenceSimulation`] is the original event loop: a
//! [`BinaryEventQueue`] that accumulates tombstones for departed
//! peers, a fresh `Vec` clone of the partner list on every join /
//! update / adaptation event, and O(degree) connection counting on
//! every charged transmission. It exists for two reasons:
//!
//! 1. **Equivalence testing** — the fast engine
//!    ([`Simulation`](crate::engine::Simulation)) must produce
//!    *bitwise identical* [`RawMetrics`] on every seed; the
//!    determinism tests run both engines over a grid of
//!    configurations and compare.
//! 2. **Performance trajectory** — `repro_bench` times both engines
//!    on the standard churn workload and records the events/sec ratio
//!    in `repro_out/BENCH_sim.json`, so the speedup is measured
//!    against the real baseline rather than asserted.
//!
//! Aside from the `events_delivered` counter (needed to report
//! events/sec at all), nothing here should be "improved" — that is
//! the point of the file. New behavior goes into `engine.rs`, and the
//! equivalence tests decide whether it is still the same simulator.

use sp_design::local_rules::{advise, LocalAction, LocalView};
use sp_graph::PartitionMonitor;
use sp_model::config::Config;
use sp_model::faults::FaultPlan;
use sp_model::instance::{NetworkInstance, Topology};
use sp_model::load::Load;
use sp_model::query_model::QueryModel;
use sp_stats::dist::Sampler;
use sp_stats::{Poisson, SpRng};

use sp_model::scenario::ScenarioPlan;
use sp_model::snapshot::{SnapReader, SnapWriter, SnapshotError, ENGINE_REFERENCE};

use crate::checkpoint;
use crate::engine::{
    ForwardPolicy, RawMetrics, SimOptions, TimelinePoint, RECRUIT_DELAY_SECS, REJOIN_MEAN_SECS,
    REPAIR_DELAY_SECS, REPLENISH_MEAN_SECS, SAMPLE_INTERVAL_SECS,
};
use crate::events::{BinaryEventQueue, ClusterId, Event, PeerId, SimTime};
use crate::faults::{FaultAction, FaultState, QueryOutcome, Submission};
use crate::network::SimNetwork;
use crate::overload::{Admission, OverloadState};
use crate::phases::{PhaseAction, ScenarioState};
use crate::repair::{ReachPoint, RepairPending};

/// The original (pre-rework) simulation engine. Same behavior as
/// [`Simulation`](crate::engine::Simulation), slower mechanics.
pub struct ReferenceSimulation {
    /// Mutable network state (public for scenario inspection).
    pub net: SimNetwork,
    queue: BinaryEventQueue,
    rng: SpRng,
    now: SimTime,
    config: Config,
    model: QueryModel,
    opts: SimOptions,
    metrics: RawMetrics,
    delivered: u64,
    /// Fault-injection state machine (inert for an empty plan).
    faults: FaultState,
    // BFS scratch over cluster slots.
    stamp: Vec<u32>,
    stamp_cur: u32,
    bfs_parent: Vec<ClusterId>,
    bfs_depth: Vec<u16>,
    bfs_order: Vec<ClusterId>,
    /// Every query transmission of the current flood, including
    /// duplicates dropped at the receiver. The flag marks copies lost
    /// in flight (sender charged, receiver untouched).
    bfs_tx: Vec<(ClusterId, ClusterId, bool)>,
    bfs_candidates: Vec<ClusterId>,
    /// Per-cluster-slot headless-window bookkeeping (grown on demand).
    repair_pending: Vec<RepairPending>,
    /// Union-find over the live super-peer overlay, rebuilt per
    /// observation.
    monitor: PartitionMonitor,
    /// Set while a crash fault's victims run through `on_leave`:
    /// repair engages only for fault-injected deaths.
    in_fault_crash: bool,
    /// Scenario-phase state machine (inert for an empty plan).
    scenario: ScenarioState,
    /// Overload-control runtime (inert for an empty policy); mirror of
    /// the fast engine's field, called at identical simulated times.
    overload: OverloadState,
    /// The scenario plan the state machine was built from, retained so
    /// snapshots are self-contained.
    scenario_plan: ScenarioPlan,
}

impl ReferenceSimulation {
    /// Builds a simulation from a configuration: generates an
    /// `sp-model` instance, mirrors it into mutable state, and
    /// schedules every peer's initial events.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: &Config, opts: SimOptions) -> Self {
        Self::with_faults(config, opts, &FaultPlan::default())
    }

    /// Builds a simulation that injects the given fault plan; the
    /// oracle counterpart of
    /// [`Simulation::with_faults`](crate::engine::Simulation::with_faults).
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the fault plan is invalid.
    pub fn with_faults(config: &Config, opts: SimOptions, plan: &FaultPlan) -> Self {
        Self::build(config, opts, plan, &ScenarioPlan::default())
    }

    /// Builds a simulation that plays the given scenario plan; the
    /// oracle counterpart of
    /// [`Simulation::with_scenario`](crate::engine::Simulation::with_scenario).
    /// The plan's `repair` policy overrides `opts.repair`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the scenario plan is invalid.
    pub fn with_scenario(config: &Config, opts: SimOptions, plan: &ScenarioPlan) -> Self {
        let mut opts = opts;
        opts.repair = plan.repair;
        if !plan.overload.is_empty() {
            opts.overload = plan.overload;
        }
        Self::build(config, opts, &plan.faults, plan)
    }

    fn build(config: &Config, opts: SimOptions, plan: &FaultPlan, scenario: &ScenarioPlan) -> Self {
        plan.validate().expect("invalid fault plan");
        let mut rng = SpRng::seed_from_u64(opts.seed);
        let inst = NetworkInstance::generate(config, &mut rng).expect("invalid configuration");
        let model = QueryModel::from_config(&config.query_model);
        let mut sim = ReferenceSimulation {
            net: SimNetwork::new(),
            queue: BinaryEventQueue::new(),
            rng,
            now: 0.0,
            config: config.clone(),
            model,
            opts,
            metrics: RawMetrics::default(),
            delivered: 0,
            faults: FaultState::new(plan.clone(), opts.fault_seed),
            stamp: Vec::new(),
            stamp_cur: 0,
            bfs_parent: Vec::new(),
            bfs_depth: Vec::new(),
            bfs_order: Vec::new(),
            bfs_tx: Vec::new(),
            bfs_candidates: Vec::new(),
            repair_pending: Vec::new(),
            monitor: PartitionMonitor::new(),
            in_fault_crash: false,
            scenario: ScenarioState::new(scenario, opts.scenario_seed),
            overload: OverloadState::new(opts.overload),
            scenario_plan: scenario.clone(),
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

    /// Events dispatched so far, *excluding* tombstones dropped by the
    /// generation guard — the number comparable across engines.
    pub fn events_delivered(&self) -> u64 {
        self.delivered
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
            let c = self.net.add_cluster(p, inst.config.ttl);
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
        self.queue.schedule(SAMPLE_INTERVAL_SECS, Event::Sample);
        if let Some(adapt) = self.opts.adapt {
            for (i, &c) in cluster_ids.iter().enumerate() {
                // Stagger ticks so clusters don't adapt in lockstep.
                let offset = adapt.interval_secs * (1.0 + i as f64 / cluster_ids.len() as f64);
                self.queue.schedule(
                    offset,
                    Event::AdaptTick {
                        cluster: c,
                        generation: 0,
                    },
                );
            }
        }
        // Compile the fault plan into first-class queue events (both
        // engines schedule these at the same bootstrap point so
        // same-time events keep identical FIFO order).
        for (index, time, start) in self.faults.schedule() {
            self.queue.schedule(time, Event::Fault { index, start });
        }
        // Scenario phases immediately after the fault schedule, so the
        // two engines' FIFO sequence numbers line up here too.
        for (index, time, start) in self.scenario.schedule() {
            self.queue.schedule(time, Event::Phase { index, start });
        }
        let _ = inst; // roles fully mirrored
    }

    fn schedule_peer_events(&mut self, peer: PeerId, lifespan: f64) {
        let generation = self.net.peer_generation(peer);
        if self.overload.active() {
            // Same semantic point as the fast engine's
            // `reset_peer_handles`: the slot belongs to a new peer, so
            // its token bucket and strike streak restart.
            self.overload.reset_peer(peer);
        }
        self.queue
            .schedule(self.now + lifespan, Event::PeerLeave { peer, generation });
        if self.config.query_rate > 0.0 {
            let dt = self.exp_delay(self.config.query_rate * self.scenario.query_rate_mult());
            self.queue
                .schedule(self.now + dt, Event::Query { peer, generation });
        }
        if self.config.update_rate > 0.0 {
            let dt = self.exp_delay(self.config.update_rate);
            self.queue
                .schedule(self.now + dt, Event::Update { peer, generation });
        }
    }

    fn exp_delay(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        -self.rng.unit_f64().max(f64::MIN_POSITIVE).ln() / rate
    }

    /// Runs until the configured duration, then finalizes accounting.
    pub fn run(&mut self) -> RawMetrics {
        self.run_to(self.opts.duration_secs);
        self.now = self.opts.duration_secs;
        self.finalize();
        std::mem::take(&mut self.metrics)
    }

    /// Dispatches every event with time ≤ `bound`, leaving later
    /// events queued and the clock at the last dispatched event; the
    /// checkpoint boundary used by [`ReferenceSimulation::snapshot`]
    /// (mirror of [`Simulation::run_to`](crate::engine::Simulation::run_to)).
    pub fn run_to(&mut self, bound: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > bound {
                break;
            }
            let (t, event) = self.queue.pop().expect("peeked event vanished");
            self.now = t;
            self.dispatch(event);
        }
    }

    /// Whether overload control is active for this run (from the
    /// options on a fresh run, or the snapshot on a restored one).
    pub fn overload_active(&self) -> bool {
        self.overload.active()
    }

    /// Serializes the full mutable state of the run; the oracle
    /// counterpart of [`Simulation::snapshot`](crate::engine::Simulation::snapshot),
    /// sealed with its own engine tag so the two formats cannot be
    /// cross-restored by accident. The binary queue is rebuilt by
    /// re-pushing `(time, seq)` triples — pop order is total, so the
    /// restored pop sequence is exact.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        checkpoint::snap_config(&self.config, &mut w);
        checkpoint::snap_opts(&self.opts, &mut w);
        w.str(&self.faults.plan().to_json());
        w.str(&self.scenario_plan.to_json());
        w.f64(self.now);
        for s in self.rng.state() {
            w.u64(s);
        }
        self.queue.snap(&mut w);
        self.net.snap(&mut w);
        checkpoint::snap_raw_metrics(&self.metrics, &mut w);
        w.u64(self.delivered);
        self.faults.snap_state(&mut w);
        checkpoint::snap_repair_pending(&self.repair_pending, &mut w);
        self.scenario.snap_state(&mut w);
        self.overload.snap_state(&mut w);
        w.bool(self.in_fault_crash);
        w.seal(ENGINE_REFERENCE)
    }

    /// Rebuilds a reference simulation from a snapshot produced by
    /// [`ReferenceSimulation::snapshot`]; resuming yields metrics
    /// bitwise identical to the uninterrupted run.
    pub fn restore(data: &[u8]) -> Result<ReferenceSimulation, SnapshotError> {
        let mut r = SnapReader::open(data)?;
        r.expect_engine(ENGINE_REFERENCE)?;
        let config = checkpoint::unsnap_config(&mut r)?;
        config
            .validate()
            .map_err(|e| SnapshotError::Malformed(format!("embedded config: {e}")))?;
        let opts = checkpoint::unsnap_opts(&mut r)?;
        let fault_plan = FaultPlan::from_json(r.str("fault plan json")?)
            .map_err(|e| SnapshotError::Malformed(format!("embedded fault plan: {e}")))?;
        fault_plan
            .validate()
            .map_err(|e| SnapshotError::Malformed(format!("embedded fault plan: {e}")))?;
        let scenario_plan = ScenarioPlan::from_json(r.str("scenario plan json")?)
            .map_err(|e| SnapshotError::Malformed(format!("embedded scenario plan: {e}")))?;
        scenario_plan
            .validate()
            .map_err(|e| SnapshotError::Malformed(format!("embedded scenario plan: {e}")))?;
        let now = r.f64("now")?;
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = r.u64("rng state")?;
        }
        let queue = BinaryEventQueue::unsnap(&mut r)?;
        let net = SimNetwork::unsnap(&mut r)?;
        let metrics = checkpoint::unsnap_raw_metrics(&mut r)?;
        let delivered = r.u64("delivered")?;
        let mut faults = FaultState::new(fault_plan, opts.fault_seed);
        faults.unsnap_state(&mut r)?;
        let repair_pending = checkpoint::unsnap_repair_pending(&mut r)?;
        let mut scenario = ScenarioState::new(&scenario_plan, opts.scenario_seed);
        scenario.unsnap_state(&mut r)?;
        let overload = OverloadState::unsnap_state(opts.overload, &mut r)?;
        let in_fault_crash = r.bool("in_fault_crash")?;
        r.finish()?;
        let model = QueryModel::from_config(&config.query_model);
        Ok(ReferenceSimulation {
            net,
            queue,
            rng: SpRng::from_state(rng_state),
            now,
            config,
            model,
            opts,
            metrics,
            delivered,
            faults,
            stamp: Vec::new(),
            stamp_cur: 0,
            bfs_parent: Vec::new(),
            bfs_depth: Vec::new(),
            bfs_order: Vec::new(),
            bfs_tx: Vec::new(),
            bfs_candidates: Vec::new(),
            repair_pending,
            monitor: PartitionMonitor::new(),
            in_fault_crash,
            scenario,
            overload,
            scenario_plan,
        })
    }

    fn dispatch(&mut self, event: Event) {
        // Count only events that survive their generation guard, so
        // the number is comparable with the tombstone-free engine.
        match event {
            Event::PeerLeave { peer, generation }
            | Event::Query { peer, generation }
            | Event::Update { peer, generation }
            | Event::ClientRejoin {
                peer, generation, ..
            } => {
                if self.net.peer(peer, generation).is_none() {
                    return;
                }
            }
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
            } => {
                if self.net.cluster(cluster, generation).is_none() {
                    return;
                }
            }
            Event::PeerJoin | Event::Sample | Event::Fault { .. } | Event::Phase { .. } => {}
        }
        self.delivered += 1;
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
    }

    // ---- connection counting ----

    fn partner_connections(&self, cluster: ClusterId) -> f64 {
        let c = self.net.clusters[cluster as usize]
            .as_ref()
            .expect("cluster alive");
        let neighbor_links: usize = c
            .neighbors
            .iter()
            .map(|&nb| {
                self.net.clusters[nb as usize]
                    .as_ref()
                    .map(|n| n.partners.len())
                    .unwrap_or(0)
            })
            .sum();
        c.partner_connections(neighbor_links)
    }

    fn client_connections(&self, cluster: ClusterId) -> f64 {
        self.net.clusters[cluster as usize]
            .as_ref()
            .map(|c| c.partners.len() as f64)
            .unwrap_or(1.0)
    }

    // ---- message charging ----

    #[allow(clippy::too_many_arguments)]
    fn charge_pair(
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

    /// Charges the failed attempts of one submission sequence: a
    /// dropped attempt costs the client its send (the packet left, the
    /// partner never saw it); a flaked attempt reached the partner
    /// (both endpoints pay) but produced no response.
    #[allow(clippy::too_many_arguments)]
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

    /// Picks the next round-robin partner of a cluster.
    fn rr_partner(&mut self, cluster: ClusterId) -> PeerId {
        let c = self.net.cluster_mut(cluster).expect("cluster alive");
        let idx = c.rr % c.partners.len();
        c.rr = c.rr.wrapping_add(1);
        c.partners[idx]
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
            let c = self.net.add_cluster(peer, self.config.ttl);
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
                self.queue.schedule(
                    self.now + RECRUIT_DELAY_SECS,
                    Event::RecruitPartner {
                        cluster: c,
                        generation,
                    },
                );
            }
            if let Some(adapt) = self.opts.adapt {
                self.queue.schedule(
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

    /// Overload bookkeeping for a cluster about to be removed (mirror
    /// of the fast engine's helper).
    fn ov_cluster_down(&mut self, c: ClusterId) {
        if self.overload.active() {
            self.overload
                .cluster_down(c, self.now, &mut self.metrics.overload);
        }
    }

    /// Re-homing target for a struck-out client (mirror of the fast
    /// engine's pure fold: min queue depth, ties to lowest id).
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

    /// Credits a peer's connected time as a client up to now and
    /// restarts its attachment clock.
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
        let partners: Vec<PeerId> = self.net.clusters[c as usize]
            .as_ref()
            .expect("cluster alive")
            .partners
            .clone();
        let p_conns = self.partner_connections(c);
        let c_conns = self.client_connections(c);
        for partner in partners {
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
                    self.queue.schedule(
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
            let _ = cluster;
        } else if !is_partner {
            // Left while orphaned: the whole orphan period counts as
            // disconnected.
            self.metrics.client_disconnected_secs += self.now - attached_at;
        }

        let exited = self.net.remove_peer(peer);
        let alive_for = self.now - exited.joined_at;
        if alive_for > 1.0 {
            let rate = self.net.counters[peer as usize].mean_rate(alive_for);
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
        self.queue.schedule(self.now + dt, Event::PeerJoin);
    }

    /// All partners died: orphan every client and dissolve the cluster.
    fn fail_cluster(&mut self, c: ClusterId) {
        self.metrics.cluster_failures += 1;
        let clients: Vec<PeerId> = self.net.clusters[c as usize]
            .as_ref()
            .expect("cluster alive")
            .clients
            .clone();
        for client in clients {
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
            self.queue.schedule(
                self.now + dt,
                Event::ClientRejoin {
                    peer: client,
                    generation,
                    orphaned_at: self.now,
                    attempt: 1,
                },
            );
        }
        self.ov_cluster_down(c);
        self.net.remove_cluster(c);
    }

    // ---- overlay repair (see `crate::repair`) ----

    /// Grows the pending slab to cover cluster slot `c` and returns a
    /// mutable handle to its slot.
    fn repair_slot(&mut self, c: ClusterId) -> &mut RepairPending {
        if self.repair_pending.len() <= c as usize {
            self.repair_pending
                .resize(c as usize + 1, RepairPending::default());
        }
        &mut self.repair_pending[c as usize]
    }

    /// Whether a cluster that just lost its last partner enters a
    /// headless repair window instead of dissolving (mirror of the
    /// fast engine's predicate).
    fn repair_engages(&self, c: ClusterId) -> bool {
        self.opts.repair.promotes()
            && self.in_fault_crash
            && !self.net.clusters[c as usize]
                .as_ref()
                .expect("cluster alive")
                .clients
                .is_empty()
    }

    /// Every partner was killed by fault injection and the policy
    /// promotes: enter the headless window and schedule the election.
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
        self.queue.schedule(
            self.now + REPAIR_DELAY_SECS,
            Event::Repair {
                cluster: c,
                generation,
            },
        );
    }

    /// A headless cluster whose last client departed has nobody left
    /// to elect: dissolve it like an unrepaired failure.
    fn dissolve_if_abandoned(&mut self, c: ClusterId) {
        if !self
            .repair_pending
            .get(c as usize)
            .map(|p| p.active)
            .unwrap_or(false)
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
        self.ov_cluster_down(c);
        self.net.remove_cluster(c);
    }

    /// The repair election (mirror of the fast engine; see its
    /// documentation for the full protocol).
    fn on_repair(&mut self, cluster: ClusterId, generation: u32) {
        let pending = *self.repair_slot(cluster);
        self.repair_pending[cluster as usize] = RepairPending::default();
        let (has_partner, has_client) = {
            let c = self.net.clusters[cluster as usize].as_ref().expect("alive");
            (!c.partners.is_empty(), !c.clients.is_empty())
        };
        if has_partner {
            return; // already healed through another path
        }
        if !has_client {
            self.metrics.repair.abandoned += 1;
            self.ov_cluster_down(cluster);
            self.net.remove_cluster(cluster);
            return;
        }
        // Election: highest capacity (most files shared), ties broken
        // by lowest peer id — no RNG draw.
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
        let own_files = self.net.peers[winner as usize]
            .as_ref()
            .expect("alive")
            .files as f64;
        if self.net.peer_mut(winner).is_some() {
            self.net.counters[winner as usize].work(cm.process_join_units(own_files));
        }
        let clients: Vec<PeerId> = self.net.clusters[cluster as usize]
            .as_ref()
            .expect("alive")
            .clients
            .clone();
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
        self.metrics.repair.promotions += 1;
        self.metrics
            .repair
            .time_to_repair
            .record(self.now - pending.down_since);
        if pending.adapt_stalled {
            if let Some(adapt) = self.opts.adapt {
                if let Some(c) = self.net.cluster_mut(cluster) {
                    c.growth = 0;
                    c.max_response_hop = 0;
                    c.last_adapt_at = self.now;
                }
                self.queue.schedule(
                    self.now + adapt.interval_secs,
                    Event::AdaptTick {
                        cluster,
                        generation,
                    },
                );
            }
        }
        if self.opts.repair.recruits_partner() && self.config.redundancy_k > 1 {
            self.metrics.repair.partner_recruitments += 1;
            self.queue.schedule(
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
    fn observe_components(&mut self) -> (u32, f64) {
        let ReferenceSimulation { net, monitor, .. } = self;
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
        // repair pending): re-resolve at the next tick *without*
        // burning a retry-budget attempt — the client never reached a
        // live peer to be refused by.
        if let Some(c) = target {
            if self.net.clusters[c as usize]
                .as_ref()
                .expect("alive")
                .partners
                .is_empty()
            {
                let dt = self.exp_delay(1.0 / REJOIN_MEAN_SECS);
                self.queue.schedule(
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
                self.attach_and_charge_join(peer, c);
            }
            _ => {
                if target.is_some() {
                    self.metrics.faults.injected_drop += 1;
                }
                if self
                    .faults
                    .rejoin_cap()
                    .is_some_and(|cap| attempt >= cap.max(1))
                {
                    self.give_up_rejoin(peer, orphaned_at);
                } else {
                    let dt = self.exp_delay(1.0 / REJOIN_MEAN_SECS);
                    self.queue.schedule(
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
        let alive_for = self.now - exited.joined_at;
        if alive_for > 1.0 {
            let rate = self.net.counters[peer as usize].mean_rate(alive_for);
            self.metrics.client_in.push(rate.in_bw);
            self.metrics.client_out.push(rate.out_bw);
            self.metrics.client_proc.push(rate.proc);
        }
        let dt = self.exp_delay(1.0 / REPLENISH_MEAN_SECS);
        self.queue.schedule(self.now + dt, Event::PeerJoin);
    }

    /// Applies a fault-plan event. Crash faults resolve their victims
    /// against the alive-cluster list (same iteration order in both
    /// engines) and then force each victim partner through the normal
    /// `on_leave` path, so recruitment, cluster failure, and orphaning
    /// behave exactly like organic churn.
    fn on_fault(&mut self, index: u32, start: bool) {
        let alive: Vec<ClusterId> = self.net.alive_clusters().collect();
        match self.faults.on_fault_event(index, start, &alive) {
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
                // Probe connectivity right after the blast.
                self.observe_reachability();
            }
        }
    }

    /// Applies a scenario phase boundary; the oracle counterpart of
    /// the fast engine's `on_phase`. Mass leaves run victims through
    /// the normal `on_leave` path with `in_fault_crash` left false
    /// (organic-style churn: repair does not engage); split windows
    /// route through the fault layer's partition depth counters.
    fn on_phase(&mut self, index: u32, start: bool) {
        match self.scenario.on_phase_event(index, start) {
            PhaseAction::None => {}
            PhaseAction::MassLeave { fraction } => {
                // Snapshot alive peers in slot order (identical in
                // both engines), then generation-guard each victim:
                // an earlier victim's departure cascade must not
                // shift later picks.
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
            // the promotion; recruitment resumes only after it runs.
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
                    self.queue.schedule(
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
                self.queue.schedule(
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
        match donor {
            Some(d) => {
                self.charge_pair(
                    d,
                    new_partner,
                    cm.join_bytes(total_files),
                    cm.send_join_units(total_files),
                    cm.recv_join_units(total_files),
                    p_conns,
                    p_conns,
                );
                if self.net.peer_mut(new_partner).is_some() {
                    self.net.counters[new_partner as usize]
                        .work(cm.process_join_units(total_files));
                }
            }
            None => {
                if self.net.peer_mut(new_partner).is_some() {
                    self.net.counters[new_partner as usize]
                        .work(cm.process_join_units(total_files));
                }
            }
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
        self.queue
            .schedule(self.now + dt, Event::Query { peer, generation });
        let Some(mut sc) = source_cluster else {
            return; // orphaned client cannot search
        };

        // Deterministic re-homing: a client that has struck out
        // against a persistently saturated super-peer detaches and
        // joins the shallowest-queue live cluster before submitting,
        // paying the Table 2 join cost. Target choice is a pure fold
        // (min queue depth, ties to lowest cluster id) — no RNG draw,
        // the same winner in both engines.
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
                // Headless window: issued into the void and lost.
                self.metrics.faults.queries_issued += 1;
                self.metrics.faults.queries_lost += 1;
                self.metrics.repair.queries_during_outage += 1;
                return;
            }
            let sub = self.faults.submit_query(partners_len);
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

        // Flood over the cluster overlay. A brownout fanout cap rides
        // the forwarding policy for just this flood.
        let saved_policy = self.opts.forward_policy;
        if let Some(f) = fanout_limit {
            let cap = match saved_policy {
                ForwardPolicy::FloodAll => f as usize,
                ForwardPolicy::RandomSubset { fanout } => fanout.min(f as usize),
            };
            self.opts.forward_policy = ForwardPolicy::RandomSubset { fanout: cap };
        }
        self.flood_bfs(sc, ttl);
        self.opts.forward_policy = saved_policy;

        // Charge every recorded transmission (first copies and dropped
        // duplicates alike — both consume bandwidth and processing).
        // A copy lost in flight still charges the sender — the packet
        // left — but the receiver neither pays nor advances its
        // round-robin cursor.
        let txs = std::mem::take(&mut self.bfs_tx);
        let mux = self.config.costs.multiplex_per_connection;
        for &(v, u, lost_in_flight) in &txs {
            let sender = self.rr_partner(v);
            let v_conns = self.partner_connections(v);
            if lost_in_flight {
                if self.net.peer_mut(sender).is_some() {
                    self.net.counters[sender as usize].send(qbytes, send_q + mux * v_conns);
                }
                continue;
            }
            let receiver = self.rr_partner(u);
            let u_conns = self.partner_connections(u);
            self.charge_pair(sender, receiver, qbytes, send_q, recv_q, v_conns, u_conns);
        }
        self.bfs_tx = txs;

        // Process queries, sample results, route responses.
        let order = std::mem::take(&mut self.bfs_order);
        let mut total_results = 0u64;
        let mut deepest_response = 0u16;
        for &v in &order {
            let vu = v as usize;
            let depth = self.bfs_depth[vu];
            // Index probe + sampled results.
            let x_tot = self.net.clusters[vu].as_ref().expect("alive").total_files;
            let lambda = self.model.expected_matches_for(j, x_tot as f64);
            let results = Poisson::new(lambda).sample(&mut self.rng);
            let probe_units = cm.process_query_units(results as f64);
            let prober = self.rr_partner(v);
            if self.net.peer_mut(prober).is_some() {
                self.net.counters[prober as usize].work(probe_units);
            }
            total_results += results;
            if results == 0 {
                continue;
            }
            deepest_response = deepest_response.max(depth);
            // Response travels the reverse path to the source.
            let members = self.net.clusters[vu].as_ref().expect("alive").size() as u64;
            let addrs = results.min(members) as f64;
            let rbytes = cm.response_bytes(addrs, results as f64);
            let r_send = cm.send_response_units(addrs, results as f64);
            let r_recv = cm.recv_response_units(addrs, results as f64);
            let mut hop = v;
            while hop != sc {
                let parent = self.bfs_parent[hop as usize];
                let sender = self.rr_partner(hop);
                let receiver = self.rr_partner(parent);
                let s_conns = self.partner_connections(hop);
                let r_conns = self.partner_connections(parent);
                self.charge_pair(sender, receiver, rbytes, r_send, r_recv, s_conns, r_conns);
                hop = parent;
            }
            // Deliver to a client source.
            if !is_partner {
                let partner = self.rr_partner(sc);
                let p_conns = self.partner_connections(sc);
                let c_conns = self.client_connections(sc);
                self.charge_pair(partner, peer, rbytes, r_send, r_recv, p_conns, c_conns);
            }
        }
        if let Some(c) = self.net.cluster_mut(sc) {
            c.max_response_hop = c.max_response_hop.max(deepest_response);
        }
        self.bfs_order = order;
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
        self.queue
            .schedule(self.now + dt, Event::Update { peer, generation });
        let Some(c) = cluster else { return };
        let cm = self.config.costs;
        let partners: Vec<PeerId> = self.net.clusters[c as usize]
            .as_ref()
            .expect("alive")
            .partners
            .clone();
        let p_conns = self.partner_connections(c);
        if is_partner {
            if self.net.peer_mut(peer).is_some() {
                self.net.counters[peer as usize].work(cm.process_update_units());
            }
            for other in partners.into_iter().filter(|&p| p != peer) {
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
            for partner in partners {
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
            return;
        }
        // Average the partners' window loads over the *measured* window
        // length — ticks are staggered, so the first window is longer
        // than the nominal interval.
        let (partners, window_secs): (Vec<PeerId>, f64) = {
            let c = self.net.clusters[cluster as usize].as_ref().expect("alive");
            (c.partners.clone(), (self.now - c.last_adapt_at).max(1e-9))
        };
        let mut load = Load::ZERO;
        for &p in &partners {
            if self.net.peer_mut(p).is_some() {
                load += self.net.counters[p as usize].take_window(window_secs);
            }
        }
        load = load.scaled(1.0 / partners.len().max(1) as f64);
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
            self.queue.schedule(
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
            LocalAction::Coalesce => self.coalesce_cluster(cluster),
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
            LocalAction::Resign => self.coalesce_cluster(cluster),
        }
    }

    /// Splits half the clients into a fresh cluster led by a promoted
    /// client.
    fn split_cluster(&mut self, cluster: ClusterId) {
        let movers: Vec<PeerId> = {
            let Some(c) = self.net.cluster_mut(cluster) else {
                return;
            };
            if c.clients.len() < 2 {
                return;
            }
            let half = c.clients.len() / 2;
            c.clients[..half].to_vec()
        };
        // The first mover leads the new cluster.
        let lead = movers[0];
        self.credit_client_time(lead);
        self.net.detach_client(lead);
        let files = self.net.peers[lead as usize].as_ref().expect("alive").files as f64;
        let new_cluster = self.net.add_cluster(lead, {
            self.net.clusters[cluster as usize]
                .as_ref()
                .expect("alive")
                .ttl
        });
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
        for mover in movers.into_iter().skip(1) {
            self.credit_client_time(mover);
            self.net.detach_client(mover);
            self.attach_and_charge_join(mover, new_cluster);
        }
        let generation = self.net.clusters[new_cluster as usize]
            .as_ref()
            .expect("alive")
            .generation;
        // The offspring starts with a lone partner; recruit up to k.
        if self.config.redundancy_k > 1 {
            self.queue.schedule(
                self.now + RECRUIT_DELAY_SECS,
                Event::RecruitPartner {
                    cluster: new_cluster,
                    generation,
                },
            );
        }
        if let Some(adapt) = self.opts.adapt {
            self.queue.schedule(
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
            // members — nobody would index them.
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
        let (clients, partners): (Vec<PeerId>, Vec<PeerId>) = {
            let c = self.net.clusters[cluster as usize].as_ref().expect("alive");
            (c.clients.clone(), c.partners.clone())
        };
        for cl in clients {
            self.credit_client_time(cl);
            self.net.detach_client(cl);
            self.attach_and_charge_join(cl, target);
        }
        for p in partners {
            self.net.detach_partner(p);
            self.attach_and_charge_join(p, target);
        }
        self.ov_cluster_down(cluster);
        self.net.remove_cluster(cluster);
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
        self.metrics.timeline.push(TimelinePoint {
            time: self.now,
            clusters,
            peers,
            mean_cluster_size: if clusters > 0 {
                sizes as f64 / clusters as f64
            } else {
                0.0
            },
            mean_ttl: if clusters > 0 {
                ttl_sum / clusters as f64
            } else {
                0.0
            },
            mean_outdegree: if clusters > 0 {
                deg_sum / clusters as f64
            } else {
                0.0
            },
        });
        self.queue
            .schedule(self.now + SAMPLE_INTERVAL_SECS, Event::Sample);
        if self.overload.active() {
            self.overload
                .sample(self.now, clusters as u64, &mut self.metrics.overload);
        }
        self.observe_reachability();
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
        let (components, frac) = self.observe_components();
        self.metrics.repair.reachability.push(ReachPoint {
            time: self.now,
            components,
            reachable_fraction: frac,
        });
        self.metrics.repair.final_components = components;
        self.metrics.repair.final_reachable_fraction = frac;
        if self.overload.active() {
            self.overload.finalize(self.now, &mut self.metrics.overload);
        }
    }

    /// TTL-bounded BFS over live clusters into the scratch arrays;
    /// fills `bfs_order`, `bfs_depth`, `bfs_parent`, and records every
    /// query transmission (including duplicates that the receiver will
    /// drop) in `bfs_tx`, honoring the configured forwarding policy.
    fn flood_bfs(&mut self, src: ClusterId, ttl: u16) {
        let n = self.net.clusters.len();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.bfs_parent.resize(n, 0);
            self.bfs_depth.resize(n, 0);
        }
        self.stamp_cur = self.stamp_cur.wrapping_add(1);
        if self.stamp_cur == 0 {
            self.stamp.fill(0);
            self.stamp_cur = 1;
        }
        self.bfs_order.clear();
        self.bfs_tx.clear();
        self.stamp[src as usize] = self.stamp_cur;
        self.bfs_depth[src as usize] = 0;
        self.bfs_parent[src as usize] = src;
        self.bfs_order.push(src);
        // Hoisted fault-window flags: a fault-free flood takes none of
        // the fault branches and makes no fault-stream draws.
        let part_on = self.faults.partitions_possible();
        let drop_on = self.faults.drops_possible();
        let delay_on = self.faults.delays_possible();
        let mut head = 0;
        while head < self.bfs_order.len() {
            let v = self.bfs_order[head];
            head += 1;
            let d = self.bfs_depth[v as usize];
            if d >= ttl {
                continue;
            }
            let Some(c) = self.net.clusters[v as usize].as_ref() else {
                continue;
            };
            // Candidate targets: all neighbors except the arrival link.
            let parent = self.bfs_parent[v as usize];
            let mut candidates = std::mem::take(&mut self.bfs_candidates);
            candidates.clear();
            candidates.extend(
                c.neighbors
                    .iter()
                    .copied()
                    .filter(|&u| v == src || u != parent),
            );
            // Apply the forwarding policy.
            if let ForwardPolicy::RandomSubset { fanout } = self.opts.forward_policy {
                if candidates.len() > fanout {
                    // Partial Fisher–Yates: the first `fanout` entries
                    // become a uniform sample.
                    for i in 0..fanout {
                        let j = i + self.rng.index(candidates.len() - i);
                        candidates.swap(i, j);
                    }
                    candidates.truncate(fanout);
                }
            }
            let v_part = part_on && self.faults.is_partitioned(v);
            for &u in &candidates {
                // Partitioned link: severed before anything is sent
                // (no charge, no rr advance, no discovery).
                if part_on && (v_part || self.faults.is_partitioned(u)) {
                    self.metrics.faults.injected_partition_block += 1;
                    continue;
                }
                // Headless neighbor (repair pending): no partner to
                // receive the copy — the edge stays up but carries
                // nothing. No charge, no fault draw, no discovery.
                if self.net.clusters[u as usize]
                    .as_ref()
                    .expect("cluster alive")
                    .partners
                    .is_empty()
                {
                    continue;
                }
                // Message loss: the copy left the sender (charged at
                // replay) but never arrives — the target is neither
                // charged nor discovered through this edge.
                if drop_on && self.faults.draw_drop() {
                    self.metrics.faults.injected_drop += 1;
                    self.bfs_tx.push((v, u, true));
                    continue;
                }
                if delay_on {
                    if let Some(extra) = self.faults.draw_delay() {
                        self.metrics.faults.injected_delay += 1;
                        self.metrics.faults.delay_added_secs += extra;
                    }
                }
                self.bfs_tx.push((v, u, false));
                if self.stamp[u as usize] != self.stamp_cur {
                    self.stamp[u as usize] = self.stamp_cur;
                    self.bfs_depth[u as usize] = d + 1;
                    self.bfs_parent[u as usize] = v;
                    self.bfs_order.push(u);
                }
            }
            self.bfs_candidates = candidates;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_engine_runs_and_counts_events() {
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            ..Config::default()
        };
        let mut sim = ReferenceSimulation::new(
            &cfg,
            SimOptions {
                duration_secs: 600.0,
                seed: 1,
                ..Default::default()
            },
        );
        let m = sim.run();
        assert!(m.queries > 0);
        assert!(sim.events_delivered() > m.queries);
        sim.net.check_invariants().unwrap();
    }

    #[test]
    fn reference_snapshot_round_trip_resumes_bitwise() {
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            ..Config::default()
        };
        let opts = SimOptions {
            duration_secs: 600.0,
            seed: 7,
            ..Default::default()
        };
        let mut full = ReferenceSimulation::new(&cfg, opts);
        let baseline = full.run();

        let mut head = ReferenceSimulation::new(&cfg, opts);
        head.run_to(200.0);
        let mut resumed = ReferenceSimulation::restore(&head.snapshot()).expect("restore");
        assert_eq!(baseline, resumed.run());
        assert_eq!(full.events_delivered(), resumed.events_delivered());
    }

    #[test]
    fn engine_tags_do_not_cross_restore() {
        let cfg = Config {
            graph_size: 100,
            cluster_size: 10,
            ..Config::default()
        };
        let mut sim = ReferenceSimulation::new(&cfg, SimOptions::default());
        sim.run_to(50.0);
        let snap = sim.snapshot();
        assert!(matches!(
            crate::engine::Simulation::restore(&snap),
            Err(SnapshotError::WrongEngine { .. })
        ));
    }
}
