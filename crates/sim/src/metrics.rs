//! Engine observability: event-rate counters, per-event-type wall-time
//! histograms, queue-depth high-water marks, and a structured run
//! manifest.
//!
//! The counters are cheap enough to stay on unconditionally (an array
//! increment per dispatched event); the wall-clock histograms cost two
//! `Instant::now()` calls per event and are gated behind
//! [`SimOptions::profile`](crate::engine::SimOptions::profile) so that
//! throughput benchmarks measure the engine, not the instrumentation.
//!
//! The workspace has no serialization crate, so
//! [`RunManifest::to_json`] renders JSON by hand — the same approach
//! `repro_bench` uses for its `BENCH_*.json` artifacts.

#[allow(
    clippy::disallowed_types,
    reason = "D2 allowlist: the simulator's one clock read, for the opt-in profile"
)]
use std::time::Instant;

use crate::events::Event;
use crate::faults::FaultMetrics;
use crate::overload::OverloadMetrics;
use crate::repair::RepairMetrics;
use sp_model::overload::OverloadPolicy;
use sp_model::repair::RepairPolicy;

/// Discriminant of an [`Event`], used to index per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A fresh peer arrival.
    Join,
    /// A peer session ending.
    Leave,
    /// A query issued by a live peer.
    Query,
    /// A metadata update issued by a live peer.
    Update,
    /// An orphaned client retrying discovery.
    Rejoin,
    /// A cluster promoting a replacement partner.
    Recruit,
    /// An adaptive-rules evaluation tick.
    Adapt,
    /// A headless cluster electing a replacement super-peer.
    Repair,
    /// A periodic timeline sample.
    Sample,
    /// A fault-plan injection or window boundary.
    Fault,
    /// A scenario phase opening or closing.
    Phase,
}

/// Number of distinct event kinds.
pub const NUM_EVENT_KINDS: usize = 11;

impl EventKind {
    /// All kinds, in counter-index order.
    pub const ALL: [EventKind; NUM_EVENT_KINDS] = [
        EventKind::Join,
        EventKind::Leave,
        EventKind::Query,
        EventKind::Update,
        EventKind::Rejoin,
        EventKind::Recruit,
        EventKind::Adapt,
        EventKind::Repair,
        EventKind::Sample,
        EventKind::Fault,
        EventKind::Phase,
    ];

    /// The kind of an event.
    pub fn of(event: &Event) -> EventKind {
        match event {
            Event::PeerJoin => EventKind::Join,
            Event::PeerLeave { .. } => EventKind::Leave,
            Event::Query { .. } => EventKind::Query,
            Event::Update { .. } => EventKind::Update,
            Event::ClientRejoin { .. } => EventKind::Rejoin,
            Event::RecruitPartner { .. } => EventKind::Recruit,
            Event::AdaptTick { .. } => EventKind::Adapt,
            Event::Repair { .. } => EventKind::Repair,
            Event::Sample => EventKind::Sample,
            Event::Fault { .. } => EventKind::Fault,
            Event::Phase { .. } => EventKind::Phase,
        }
    }

    /// Stable lower-case name (used as a JSON key).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Join => "join",
            EventKind::Leave => "leave",
            EventKind::Query => "query",
            EventKind::Update => "update",
            EventKind::Rejoin => "rejoin",
            EventKind::Recruit => "recruit",
            EventKind::Adapt => "adapt",
            EventKind::Repair => "repair",
            EventKind::Sample => "sample",
            EventKind::Fault => "fault",
            EventKind::Phase => "phase",
        }
    }
}

/// A log₂-bucketed histogram of nanosecond durations.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` ns (bucket 0 also
/// holds zero). 64 buckets cover every representable `u64` duration,
/// so recording can never overflow a bucket index.
#[derive(Debug, Clone)]
pub struct WallHistogram {
    buckets: [u64; 64],
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl Default for WallHistogram {
    fn default() -> Self {
        WallHistogram {
            buckets: [0; 64],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

impl WallHistogram {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        let bucket = (64 - ns.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations, nanoseconds (saturating).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Largest recorded duration, nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Approximate quantile from the bucket boundaries: returns the
    /// upper edge of the bucket containing the `q`-quantile sample.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 2u64.saturating_pow(i as u32 + 1).saturating_sub(1);
            }
        }
        self.max_ns
    }
}

/// An in-flight wall-time measurement for one event handler.
///
/// The wall-clock read lives *here*, not in the engine: this module is
/// the sim crate's only exception to the D2 clock ban (DESIGN.md §13),
/// so every `Instant::now` the simulator ever performs is auditable in
/// one file. A disabled timer (profiling off) is a `None` and costs
/// one branch.
#[derive(Debug)]
#[allow(
    clippy::disallowed_types,
    reason = "D2 allowlist: the simulator's one clock read, for the opt-in profile"
)]
pub struct ProfileTimer(Option<Instant>);

impl ProfileTimer {
    /// Starts a measurement when `enabled`; otherwise an inert timer.
    #[inline]
    #[allow(
        clippy::disallowed_types,
        reason = "D2 allowlist: the simulator's one clock read, for the opt-in profile"
    )]
    pub fn start(enabled: bool) -> ProfileTimer {
        ProfileTimer(enabled.then(Instant::now))
    }

    /// Stops the timer and records the elapsed nanoseconds under
    /// `kind`. Inert timers record nothing.
    #[inline]
    pub fn record(self, metrics: &mut SimMetrics, kind: EventKind) {
        if let Some(start) = self.0 {
            metrics.wall[kind as usize].record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Counters accumulated by the engine while it runs.
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    /// Delivered events per kind — events that passed their generation
    /// guard and ran a handler. Stale tombstones (old engine) and
    /// cancelled entries (indexed queue) are excluded, so the totals
    /// are comparable across engine implementations.
    pub delivered: [u64; NUM_EVENT_KINDS],
    /// Events cancelled in the queue before firing (indexed queue
    /// only; the binary queue cannot cancel).
    pub cancelled: u64,
    /// Events popped whose generation guard failed (tombstones).
    pub stale: u64,
    /// Deepest the event queue ever got.
    pub queue_high_water: usize,
    /// Per-kind handler wall time; only populated when profiling was
    /// requested via `SimOptions::profile`.
    pub wall: [WallHistogram; NUM_EVENT_KINDS],
    /// Whether the wall histograms were populated.
    pub profiled: bool,
}

impl SimMetrics {
    /// Counts one delivered event.
    #[inline]
    pub fn record_delivered(&mut self, kind: EventKind) {
        self.delivered[kind as usize] += 1;
    }

    /// Total delivered events across kinds.
    pub fn delivered_total(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Delivered count for one kind.
    pub fn delivered_of(&self, kind: EventKind) -> u64 {
        self.delivered[kind as usize]
    }
}

/// A structured, serializable description of one simulation run:
/// what was simulated, and what the engine observed while doing it.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// RNG seed.
    pub seed: u64,
    /// Simulated duration, seconds.
    pub duration_secs: f64,
    /// Configured peer population.
    pub graph_size: usize,
    /// Configured cluster size.
    pub cluster_size: usize,
    /// Configured redundancy factor.
    pub redundancy_k: usize,
    /// Wall-clock time of the run, seconds.
    pub wall_secs: f64,
    /// Engine counters.
    pub metrics: SimMetrics,
    /// Seed of the dedicated fault-injection RNG stream.
    pub fault_seed: u64,
    /// Number of faults in the injected plan (0 without a plan).
    pub fault_plan_len: usize,
    /// Fault-injection and recovery counters.
    pub faults: FaultMetrics,
    /// The self-healing policy in force for the run.
    pub repair_policy: RepairPolicy,
    /// Overlay-repair counters and the reachability timeline.
    pub repair: RepairMetrics,
    /// The overload-control policy in force for the run (empty =
    /// subsystem disabled).
    pub overload_policy: OverloadPolicy,
    /// Overload ledger: shed/reject counters, response-latency
    /// histogram, and the queue-depth/utilization timeline.
    pub overload: OverloadMetrics,
}

impl RunManifest {
    /// Delivered events per wall-clock second (0 when wall time is 0).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.metrics.delivered_total() as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Renders the manifest as a JSON document (hand-rolled: the
    /// workspace has no serialization crate).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"duration_secs\": {},\n", self.duration_secs));
        s.push_str(&format!("  \"graph_size\": {},\n", self.graph_size));
        s.push_str(&format!("  \"cluster_size\": {},\n", self.cluster_size));
        s.push_str(&format!("  \"redundancy_k\": {},\n", self.redundancy_k));
        s.push_str(&format!("  \"wall_secs\": {:.6},\n", self.wall_secs));
        s.push_str(&format!(
            "  \"events_per_sec\": {:.1},\n",
            self.events_per_sec()
        ));
        s.push_str(&format!(
            "  \"events_delivered\": {},\n",
            self.metrics.delivered_total()
        ));
        s.push_str(&format!(
            "  \"events_cancelled\": {},\n",
            self.metrics.cancelled
        ));
        s.push_str(&format!("  \"events_stale\": {},\n", self.metrics.stale));
        s.push_str(&format!(
            "  \"queue_high_water\": {},\n",
            self.metrics.queue_high_water
        ));
        s.push_str("  \"delivered_by_kind\": {\n");
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            let sep = if i + 1 < EventKind::ALL.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!(
                "    \"{}\": {}{sep}\n",
                kind.name(),
                self.metrics.delivered_of(*kind)
            ));
        }
        s.push_str("  },\n");
        s.push_str(&format!("  \"profiled\": {},\n", self.metrics.profiled));
        s.push_str("  \"wall_ns_by_kind\": {\n");
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            let h = &self.metrics.wall[*kind as usize];
            let sep = if i + 1 < EventKind::ALL.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!(
                "    \"{}\": {{ \"count\": {}, \"total_ns\": {}, \"mean_ns\": {:.1}, \"p99_ns\": {}, \"max_ns\": {} }}{sep}\n",
                kind.name(),
                h.count(),
                h.total_ns(),
                h.mean_ns(),
                h.quantile_ns(0.99),
                h.max_ns()
            ));
        }
        s.push_str("  },\n");
        let f = &self.faults;
        s.push_str(&format!("  \"fault_seed\": {},\n", self.fault_seed));
        s.push_str(&format!("  \"fault_plan_len\": {},\n", self.fault_plan_len));
        s.push_str("  \"faults\": {\n");
        s.push_str("    \"injected\": {\n");
        s.push_str(&format!("      \"crash\": {},\n", f.injected_crash));
        s.push_str(&format!("      \"drop\": {},\n", f.injected_drop));
        s.push_str(&format!("      \"delay\": {},\n", f.injected_delay));
        s.push_str(&format!(
            "      \"partition_block\": {},\n",
            f.injected_partition_block
        ));
        s.push_str(&format!("      \"flaky\": {}\n", f.injected_flaky));
        s.push_str("    },\n");
        s.push_str(&format!("    \"queries_issued\": {},\n", f.queries_issued));
        s.push_str(&format!(
            "    \"answered_direct\": {},\n",
            f.answered_direct
        ));
        s.push_str(&format!(
            "    \"recovered_retry\": {},\n",
            f.recovered_retry
        ));
        s.push_str(&format!(
            "    \"recovered_failover\": {},\n",
            f.recovered_failover
        ));
        s.push_str(&format!("    \"queries_lost\": {},\n", f.queries_lost));
        s.push_str(&format!(
            "    \"retry_wait_secs\": {:.6},\n",
            f.retry_wait_secs
        ));
        s.push_str(&format!(
            "    \"delay_added_secs\": {:.6},\n",
            f.delay_added_secs
        ));
        s.push_str(&format!("    \"orphan_gave_up\": {},\n", f.orphan_gave_up));
        s.push_str(&format!(
            "    \"reconnect\": {{ \"count\": {}, \"mean_secs\": {:.3}, \"max_secs\": {:.3}, \"total_secs\": {:.3} }}\n",
            f.reconnect.count(),
            f.reconnect.mean_secs(),
            f.reconnect.max_secs(),
            f.reconnect.total_secs()
        ));
        s.push_str("  },\n");
        let r = &self.repair;
        s.push_str(&format!(
            "  \"repair_policy\": \"{}\",\n",
            self.repair_policy
        ));
        s.push_str("  \"repair\": {\n");
        s.push_str(&format!("    \"promotions\": {},\n", r.promotions));
        s.push_str(&format!(
            "    \"partner_recruitments\": {},\n",
            r.partner_recruitments
        ));
        s.push_str(&format!(
            "    \"reindexed_clients\": {},\n",
            r.reindexed_clients
        ));
        s.push_str(&format!("    \"reindex_bytes\": {:.1},\n", r.reindex_bytes));
        s.push_str(&format!("    \"abandoned\": {},\n", r.abandoned));
        s.push_str(&format!(
            "    \"queries_during_outage\": {},\n",
            r.queries_during_outage
        ));
        s.push_str(&format!(
            "    \"time_to_repair\": {{ \"count\": {}, \"mean_secs\": {:.3}, \"max_secs\": {:.3}, \"total_secs\": {:.3} }},\n",
            r.time_to_repair.count(),
            r.time_to_repair.mean_secs(),
            r.time_to_repair.max_secs(),
            r.time_to_repair.total_secs()
        ));
        s.push_str(&format!(
            "    \"final_components\": {},\n",
            r.final_components
        ));
        s.push_str(&format!(
            "    \"final_reachable_fraction\": {:.6},\n",
            r.final_reachable_fraction
        ));
        s.push_str("    \"reachability\": [\n");
        for (i, p) in r.reachability.iter().enumerate() {
            let sep = if i + 1 < r.reachability.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!(
                "      {{ \"time\": {:.1}, \"components\": {}, \"reachable_fraction\": {:.6} }}{sep}\n",
                p.time, p.components, p.reachable_fraction
            ));
        }
        s.push_str("    ]\n");
        s.push_str("  },\n");
        let active = !self.overload_policy.is_empty();
        s.push_str(&format!("  \"overload_active\": {active},\n"));
        s.push_str("  \"overload_policy\": ");
        for (i, line) in self.overload_policy.to_json().lines().enumerate() {
            if i > 0 {
                s.push_str("\n  ");
            }
            s.push_str(line);
        }
        s.push_str(",\n");
        // The overload ledger renders compact; the embedded timeline
        // (queue depth, utilization, browned-out clusters per sample)
        // is capped so a week-long run cannot balloon the manifest.
        s.push_str(&format!(
            "  \"overload\": {}\n",
            self.overload.to_json(if active { 512 } else { 0 })
        ));
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_kind_covers_every_event() {
        let samples = [
            Event::PeerJoin,
            Event::PeerLeave {
                peer: 0,
                generation: 0,
            },
            Event::Query {
                peer: 0,
                generation: 0,
            },
            Event::Update {
                peer: 0,
                generation: 0,
            },
            Event::ClientRejoin {
                peer: 0,
                generation: 0,
                orphaned_at: 0.0,
                attempt: 0,
            },
            Event::RecruitPartner {
                cluster: 0,
                generation: 0,
            },
            Event::AdaptTick {
                cluster: 0,
                generation: 0,
            },
            Event::Repair {
                cluster: 0,
                generation: 0,
            },
            Event::Sample,
            Event::Fault {
                index: 0,
                start: true,
            },
            Event::Phase {
                index: 0,
                start: true,
            },
        ];
        let mut m = SimMetrics::default();
        for e in &samples {
            m.record_delivered(EventKind::of(e));
        }
        assert_eq!(m.delivered_total(), samples.len() as u64);
        for kind in EventKind::ALL {
            assert_eq!(m.delivered_of(kind), 1, "kind {} miscounted", kind.name());
        }
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = WallHistogram::default();
        for ns in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(ns);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max_ns(), u64::MAX);
        assert!(h.mean_ns() > 0.0);
        // Median sits well below the max outlier.
        assert!(h.quantile_ns(0.5) <= 2048);
    }

    #[test]
    fn manifest_renders_parsable_shape() {
        let mut metrics = SimMetrics::default();
        metrics.record_delivered(EventKind::Query);
        metrics.queue_high_water = 42;
        let m = RunManifest {
            seed: 7,
            duration_secs: 100.0,
            graph_size: 1000,
            cluster_size: 10,
            redundancy_k: 2,
            wall_secs: 0.5,
            metrics,
            fault_seed: 0,
            fault_plan_len: 0,
            faults: FaultMetrics::default(),
            repair_policy: RepairPolicy::PromotePartner,
            repair: RepairMetrics::default(),
            overload_policy: OverloadPolicy::default(),
            overload: OverloadMetrics::default(),
        };
        let json = m.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"query\": 1"));
        assert!(json.contains("\"queue_high_water\": 42"));
        assert!(json.contains("\"repair_policy\": \"promote+partner\""));
        assert!(json.contains("\"final_components\": 0"));
        assert!(json.contains("\"overload_active\": false"));
        assert!(json.contains("\"overload_policy\": {"));
        assert!(json.contains("\"overload\": {\"delivered\": 0"));
        assert_eq!(m.events_per_sec(), 2.0);
        // Balanced braces — a cheap structural sanity check given the
        // hand-rolled rendering.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }
}
