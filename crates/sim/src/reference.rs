//! The reference churn engine: the shared engine core with the plain
//! mechanics.
//!
//! [`ReferenceSimulation`] runs the same lifecycle handlers as the fast
//! [`Simulation`](crate::engine::Simulation) — both are
//! [`ChurnEngine`] instantiations — but computes the five engine
//! mechanics (see [`Mechanics`]) the straightforward way:
//!
//! 1. a [`BinaryEventQueue`] without cancellation: a departed peer's
//!    timers stay queued as tombstones for the generation guard to drop;
//! 2. a fresh `Vec` clone of a member list wherever one is walked;
//! 3. an O(degree) recount of partner connections on every charge;
//! 4. a query tail that records the flood and then replays it to charge
//!    loads, drawing results with `Poisson::sample`, checking liveness
//!    before every charge, and looking clusters up on every use;
//! 5. a plain delivered-event counter.
//!
//! It exists for two reasons:
//!
//! 1. **Oracle for the fast engine's mechanics** — the fast engine
//!    must produce *bitwise identical*
//!    [`RawMetrics`](crate::engine::RawMetrics) on every seed;
//!    `tests/sim_determinism.rs`, `tests/proptests.rs`, and
//!    `spnet campaign` run both engines and compare. That covers every
//!    optimization DESIGN.md §11 lists, but not a lifecycle policy:
//!    both engines run the same handler, which the pinned hashes in
//!    `tests/sim_determinism.rs` guard instead.
//! 2. **Performance baseline** — `repro_bench` times both engines on
//!    the standard churn and crash-storm workloads and records the
//!    events/sec ratio in `repro_out/BENCH_sim.json` and
//!    `repro_out/BENCH_faults.json`, so the speedup is measured against
//!    a real baseline rather than asserted.
//!
//! Keep these mechanics plain: speeding them up would erode the
//! baseline, and borrowing the fast engine's would erode the oracle.

use sp_model::snapshot::{SnapReader, SnapWriter, SnapshotError, ENGINE_REFERENCE};
use sp_stats::dist::Sampler;
use sp_stats::Poisson;

use crate::engine::{sealed, AdmittedQuery, ChurnEngine, ForwardPolicy, Mechanics};
use crate::events::{BinaryEventQueue, ClusterId, Event, PeerId, SimTime};
use crate::metrics::{EventKind, ProfileTimer};
use crate::network::{SimNetwork, SlabPlan};

/// The reference churn engine: the [`ChurnEngine`] core with
/// [`ReferenceMechanics`]. Same behavior as
/// [`Simulation`](crate::engine::Simulation), slower mechanics.
pub type ReferenceSimulation = ChurnEngine<ReferenceMechanics>;

/// The reference engine's mechanics (see the module docs).
pub struct ReferenceMechanics {
    queue: BinaryEventQueue,
    delivered: u64,
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
}

impl ReferenceMechanics {
    fn with_queue(queue: BinaryEventQueue) -> Self {
        ReferenceMechanics {
            queue,
            delivered: 0,
            stamp: Vec::new(),
            stamp_cur: 0,
            bfs_parent: Vec::new(),
            bfs_depth: Vec::new(),
            bfs_order: Vec::new(),
            bfs_tx: Vec::new(),
            bfs_candidates: Vec::new(),
        }
    }
}

impl sealed::Sealed for ReferenceMechanics {}

impl Mechanics for ReferenceMechanics {
    const ENGINE: u8 = ENGINE_REFERENCE;

    /// The reference mechanics grow their queue and scratch on demand.
    fn fresh(_: &SlabPlan) -> Self {
        Self::with_queue(BinaryEventQueue::new())
    }

    fn schedule(&mut self, time: SimTime, event: Event) {
        self.queue.schedule(time, event);
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.queue.pop()
    }

    // Timers are never cancelled: the generation guard drops them.
    fn peer_arrived(&mut self, _: PeerId) {}
    fn peer_left(&mut self, _: PeerId) {}
    fn peer_gave_up(&mut self, _: PeerId) {}
    fn rejoin_settled(&mut self, _: PeerId) {}
    fn cluster_created(_: &mut ReferenceSimulation, _: ClusterId) {}
    fn adapt_stalled(&mut self, _: ClusterId) {}
    fn cluster_removed(&mut self, _: ClusterId) {}

    fn copy_members(&mut self, members: &[PeerId]) -> Vec<PeerId> {
        members.to_vec()
    }

    fn recycle(&mut self, _: Vec<PeerId>) {}

    fn count_connections(net: &SimNetwork, cluster: ClusterId) -> f64 {
        let c = net.clusters[cluster as usize]
            .as_ref()
            .expect("cluster alive");
        let neighbor_links: usize = c
            .neighbors
            .iter()
            .map(|&nb| {
                net.clusters[nb as usize]
                    .as_ref()
                    .map(|n| n.partners.len())
                    .unwrap_or(0)
            })
            .sum();
        c.partner_connections(neighbor_links)
    }

    fn flood_query(engine: &mut ReferenceSimulation, query: &AdmittedQuery) -> (u64, u16) {
        let cm = engine.config.costs;
        let qbytes = cm.query_bytes();
        let (send_q, recv_q) = (cm.send_query_units(), cm.recv_query_units());
        engine.flood_bfs(query.cluster, query.ttl, query.policy);

        // Charge every recorded transmission (first copies and dropped
        // duplicates alike — both consume bandwidth and processing).
        // A copy lost in flight still charges the sender — the packet
        // left — but the receiver neither pays nor advances its
        // round-robin cursor.
        let txs = std::mem::take(&mut engine.mech.bfs_tx);
        let mux = cm.multiplex_per_connection;
        for &(v, u, lost_in_flight) in &txs {
            let sender = engine.rr_partner(v);
            let v_conns = engine.partner_connections(v);
            if lost_in_flight {
                if engine.net.peer_mut(sender).is_some() {
                    engine.net.counters[sender as usize].send(qbytes, send_q + mux * v_conns);
                }
                continue;
            }
            let receiver = engine.rr_partner(u);
            let u_conns = engine.partner_connections(u);
            engine.charge_pair(sender, receiver, qbytes, send_q, recv_q, v_conns, u_conns);
        }
        engine.mech.bfs_tx = txs;

        // Process queries, sample results, route responses.
        let sc = query.cluster;
        let order = std::mem::take(&mut engine.mech.bfs_order);
        let mut total_results = 0u64;
        let mut deepest_response = 0u16;
        for &v in &order {
            let vu = v as usize;
            let depth = engine.mech.bfs_depth[vu];
            // Index probe + sampled results.
            let x_tot = engine.net.clusters[vu].as_ref().expect("alive").total_files;
            let lambda = engine.model.expected_matches_for(query.class, x_tot as f64);
            let results = Poisson::new(lambda).sample(&mut engine.rng);
            let probe_units = cm.process_query_units(results as f64);
            let prober = engine.rr_partner(v);
            if engine.net.peer_mut(prober).is_some() {
                engine.net.counters[prober as usize].work(probe_units);
            }
            total_results += results;
            if results == 0 {
                continue;
            }
            deepest_response = deepest_response.max(depth);
            // Response travels the reverse path to the source.
            let members = engine.net.clusters[vu].as_ref().expect("alive").size() as u64;
            let addrs = results.min(members) as f64;
            let rbytes = cm.response_bytes(addrs, results as f64);
            let r_send = cm.send_response_units(addrs, results as f64);
            let r_recv = cm.recv_response_units(addrs, results as f64);
            let mut hop = v;
            while hop != sc {
                let parent = engine.mech.bfs_parent[hop as usize];
                let sender = engine.rr_partner(hop);
                let receiver = engine.rr_partner(parent);
                let s_conns = engine.partner_connections(hop);
                let r_conns = engine.partner_connections(parent);
                engine.charge_pair(sender, receiver, rbytes, r_send, r_recv, s_conns, r_conns);
                hop = parent;
            }
            // Deliver to a client source.
            if !query.from_partner {
                let partner = engine.rr_partner(sc);
                let p_conns = engine.partner_connections(sc);
                let c_conns = engine.client_connections(sc);
                engine.charge_pair(
                    partner, query.peer, rbytes, r_send, r_recv, p_conns, c_conns,
                );
            }
        }
        engine.mech.bfs_order = order;
        (total_results, deepest_response)
    }

    fn count_stale(&mut self) {}

    fn count_delivered(&mut self, _: EventKind, _: bool) -> ProfileTimer {
        self.delivered += 1;
        ProfileTimer::start(false)
    }

    fn record_handled(&mut self, _: EventKind, _: ProfileTimer) {}

    fn delivered(&self) -> u64 {
        self.delivered
    }

    fn finish_run(_: &mut ReferenceSimulation) {}

    /// The binary queue is written as `(time, seq)` triples and rebuilt
    /// by re-pushing them — pop order is total, so the restored pop
    /// sequence is exact.
    fn snap_queue(&self, w: &mut SnapWriter) {
        self.queue.snap(w);
    }

    fn unsnap_queue(r: &mut SnapReader<'_>, _: &SlabPlan) -> Result<Self, SnapshotError> {
        Ok(Self::with_queue(BinaryEventQueue::unsnap(r)?))
    }

    fn snap_counters(&self, w: &mut SnapWriter) {
        w.u64(self.delivered);
    }

    fn unsnap_counters(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.delivered = r.u64("delivered")?;
        Ok(())
    }

    fn snap_timers(&self, _: &mut SnapWriter) {}

    fn unsnap_timers(&mut self, _: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        Ok(())
    }
}

impl ReferenceSimulation {
    /// TTL-bounded BFS over live clusters into the scratch arrays;
    /// fills `bfs_order`, `bfs_depth`, `bfs_parent`, and records every
    /// query transmission (including duplicates that the receiver will
    /// drop) in `bfs_tx`, honoring the forwarding policy.
    fn flood_bfs(&mut self, src: ClusterId, ttl: u16, policy: ForwardPolicy) {
        let ChurnEngine {
            net,
            rng,
            metrics,
            faults,
            mech,
            ..
        } = self;
        let n = net.clusters.len();
        if mech.stamp.len() < n {
            mech.stamp.resize(n, 0);
            mech.bfs_parent.resize(n, 0);
            mech.bfs_depth.resize(n, 0);
        }
        mech.stamp_cur = mech.stamp_cur.wrapping_add(1);
        if mech.stamp_cur == 0 {
            mech.stamp.fill(0);
            mech.stamp_cur = 1;
        }
        mech.bfs_order.clear();
        mech.bfs_tx.clear();
        mech.stamp[src as usize] = mech.stamp_cur;
        mech.bfs_depth[src as usize] = 0;
        mech.bfs_parent[src as usize] = src;
        mech.bfs_order.push(src);
        // Hoisted fault-window flags: a fault-free flood takes none of
        // the fault branches and makes no fault-stream draws.
        let part_on = faults.partitions_possible();
        let drop_on = faults.drops_possible();
        let delay_on = faults.delays_possible();
        let mut head = 0;
        while head < mech.bfs_order.len() {
            let v = mech.bfs_order[head];
            head += 1;
            let d = mech.bfs_depth[v as usize];
            if d >= ttl {
                continue;
            }
            let Some(c) = net.clusters[v as usize].as_ref() else {
                continue;
            };
            // Candidate targets: all neighbors except the arrival link.
            let parent = mech.bfs_parent[v as usize];
            let mut candidates = std::mem::take(&mut mech.bfs_candidates);
            candidates.clear();
            candidates.extend(
                c.neighbors
                    .iter()
                    .copied()
                    .filter(|&u| v == src || u != parent),
            );
            // Apply the forwarding policy.
            if let ForwardPolicy::RandomSubset { fanout } = policy {
                if candidates.len() > fanout {
                    // Partial Fisher–Yates: the first `fanout` entries
                    // become a uniform sample.
                    for i in 0..fanout {
                        let j = i + rng.index(candidates.len() - i);
                        candidates.swap(i, j);
                    }
                    candidates.truncate(fanout);
                }
            }
            let v_part = part_on && faults.is_partitioned(v);
            for &u in &candidates {
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
                // Message loss: the copy left the sender (charged at
                // replay) but never arrives — the target is neither
                // charged nor discovered through this edge.
                if drop_on && faults.draw_drop() {
                    metrics.faults.injected_drop += 1;
                    mech.bfs_tx.push((v, u, true));
                    continue;
                }
                if delay_on {
                    if let Some(extra) = faults.draw_delay() {
                        metrics.faults.injected_delay += 1;
                        metrics.faults.delay_added_secs += extra;
                    }
                }
                mech.bfs_tx.push((v, u, false));
                if mech.stamp[u as usize] != mech.stamp_cur {
                    mech.stamp[u as usize] = mech.stamp_cur;
                    mech.bfs_depth[u as usize] = d + 1;
                    mech.bfs_parent[u as usize] = v;
                    mech.bfs_order.push(u);
                }
            }
            mech.bfs_candidates = candidates;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimOptions;
    use sp_model::config::Config;

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
