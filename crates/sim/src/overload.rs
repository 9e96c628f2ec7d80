//! Overload-control runtime: the mechanism half of
//! [`sp_model::overload`].
//!
//! Each live cluster's virtual super-peer owns a bounded work queue
//! drained at the policy's service rate. The engines do the *network*
//! work of a query (flood, probes, response routing) at admission time
//! — that is what the Table 2 cost model charges — while the
//! super-peer's *response completion* is queued here and completes
//! `service` seconds after the server reaches it. The queue is a
//! virtual-service-time ledger drained lazily at observation points
//! (the next admission at that cluster, sample ticks, cluster death,
//! finalize), so no new event kind is needed and both churn engines
//! observe identical state at identical simulated times regardless of
//! thread count.
//!
//! Everything in this module is **draw-free**: admission, shedding,
//! brownout hysteresis, and re-homing target selection never touch an
//! RNG stream, which is what makes the empty policy bitwise inert and
//! the active policy thread- and engine-invariant by construction.
//!
//! The conservation ledger extends the fault layer's: every query a
//! live client issues is eventually exactly one of *lost* (submission
//! failed — the fault layer's ledger), *rejected* (admission refused:
//! token budget or a full queue under `RejectAtAdmission` /
//! `DropLowestTtl` electing the arrival), *shed* (accepted but dropped
//! before completion: discipline victim, cluster death, or end-of-run
//! residual), or *delivered* (response completed). `issued = delivered
//! + lost + shed + rejected`, checked by
//! [`OverloadMetrics::conserved`].

use sp_model::overload::{OverloadPolicy, ShedDiscipline};
use sp_model::snapshot::{SnapReader, SnapWriter, SnapshotError};
use std::collections::VecDeque;

use crate::events::{ClusterId, PeerId};

/// Response-latency histogram: logarithmic buckets over simulated
/// seconds. Bucket `i` covers `[2^(i-10), 2^(i-9))` seconds — bucket 0
/// holds everything below ~1 ms, the last bucket everything from ~2⁸
/// seconds up. Integer counts, so merging and comparing is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Bucket counts.
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed latencies, seconds.
    pub sum_secs: f64,
    /// Largest observed latency, seconds.
    pub max_secs: f64,
}

/// Number of logarithmic latency buckets.
pub const LATENCY_BUCKETS: usize = 19;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum_secs: 0.0,
            max_secs: 0.0,
        }
    }
}

impl LatencyHistogram {
    fn bucket_of(secs: f64) -> usize {
        if secs <= 0.0 {
            return 0;
        }
        let idx = secs.log2().floor() as i64 + 10;
        idx.clamp(0, LATENCY_BUCKETS as i64 - 1) as usize
    }

    /// Records one response latency.
    pub fn record(&mut self, secs: f64) {
        self.buckets[Self::bucket_of(secs)] += 1;
        self.count += 1;
        self.sum_secs += secs;
        if secs > self.max_secs {
            self.max_secs = secs;
        }
    }

    /// Upper bound of the bucket holding quantile `q` (0 when empty):
    /// a conservative quantile estimate, exact to within one power of
    /// two.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 2f64.powi(i as i32 - 9);
            }
        }
        self.max_secs
    }

    /// Mean latency in seconds (0 when empty).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_secs / self.count as f64
        }
    }

    fn snap(&self, w: &mut SnapWriter) {
        for &b in &self.buckets {
            w.u64(b);
        }
        w.u64(self.count);
        w.f64(self.sum_secs);
        w.f64(self.max_secs);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<LatencyHistogram, SnapshotError> {
        let mut h = LatencyHistogram::default();
        for b in h.buckets.iter_mut() {
            *b = r.u64("overload.latency.bucket")?;
        }
        h.count = r.u64("overload.latency.count")?;
        h.sum_secs = r.f64("overload.latency.sum")?;
        h.max_secs = r.f64("overload.latency.max")?;
        Ok(h)
    }
}

/// One point of the queue-depth/utilization timeline, recorded at
/// sample ticks when the policy is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OvPoint {
    /// Simulated time of the sample.
    pub t: f64,
    /// Total queued responses across all clusters (after draining
    /// completions due by `t`).
    pub queued: u64,
    /// Deepest single queue.
    pub max_depth: u64,
    /// Mean server utilization since the previous point: busy seconds
    /// accumulated across clusters over elapsed cluster-seconds, in
    /// [0, 1].
    pub utilization: f64,
    /// Clusters currently browned out.
    pub browned_out: u64,
}

/// Overload counters and observability. Lives inside `RawMetrics`, so
/// the engine-equivalence, thread-invariance, and campaign fingerprint
/// checks all cover it bitwise.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OverloadMetrics {
    /// Responses completed by a super-peer (the query's terminal
    /// success state under an active policy).
    pub delivered: u64,
    /// Queued responses shed by the policy discipline to admit newer
    /// work (`DropOldest` / `DropLowestTtl` victims already queued).
    pub shed_discipline: u64,
    /// Queued responses shed because their cluster died.
    pub shed_dead: u64,
    /// Responses still queued when the run ended.
    pub shed_residual: u64,
    /// Arrivals refused because the queue was full (including
    /// `DropLowestTtl` electing the arrival itself).
    pub rejected_queue: u64,
    /// Arrivals refused by the per-client token budget.
    pub rejected_budget: u64,
    /// Clients re-homed away from a persistently saturated super-peer.
    pub rehomed: u64,
    /// Table 2 bytes charged by re-home joins.
    pub rehome_bytes: f64,
    /// Brownout mode entries across all clusters.
    pub brownout_entries: u64,
    /// Total cluster-seconds spent browned out.
    pub brownout_secs: f64,
    /// Queries flooded with degraded TTL/fanout (admitted while the
    /// cluster was browned out).
    pub brownout_queries: u64,
    /// Deepest queue ever observed.
    pub peak_depth: u64,
    /// Response-latency histogram (admission → completion).
    pub latency: LatencyHistogram,
    /// Queue-depth/utilization timeline at sample ticks.
    pub timeline: Vec<OvPoint>,
}

impl OverloadMetrics {
    /// Queries the overload layer has fully accounted for.
    pub fn accounted(&self) -> u64 {
        self.delivered
            + self.shed_discipline
            + self.shed_dead
            + self.shed_residual
            + self.rejected_queue
            + self.rejected_budget
    }

    /// The extended conservation invariant: every query the fault layer
    /// counts as issued is exactly one of lost (fault ledger),
    /// rejected, shed, or delivered. Only meaningful after finalize
    /// (residual entries are shed there) and with an active policy.
    pub fn conserved(&self, queries_issued: u64, queries_lost: u64) -> bool {
        queries_issued == queries_lost + self.accounted()
    }

    /// Renders the counters as a JSON object (stable key order). The
    /// timeline is capped at the last `timeline_cap` points to keep
    /// manifests bounded; 0 omits it.
    pub fn to_json(&self, timeline_cap: usize) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"delivered\": {}, \"shed_discipline\": {}, \"shed_dead\": {}, \
             \"shed_residual\": {}, \"rejected_queue\": {}, \"rejected_budget\": {}, \
             \"rehomed\": {}, \"rehome_bytes\": {:.3}, \"brownout_entries\": {}, \
             \"brownout_secs\": {:.3}, \"brownout_queries\": {}, \"peak_depth\": {}, \
             \"latency\": {{\"count\": {}, \"mean_secs\": {:.6}, \"p50_secs\": {:.6}, \
             \"p99_secs\": {:.6}, \"max_secs\": {:.6}}}",
            self.delivered,
            self.shed_discipline,
            self.shed_dead,
            self.shed_residual,
            self.rejected_queue,
            self.rejected_budget,
            self.rehomed,
            self.rehome_bytes,
            self.brownout_entries,
            self.brownout_secs,
            self.brownout_queries,
            self.peak_depth,
            self.latency.count,
            self.latency.mean_secs(),
            self.latency.quantile_secs(0.50),
            self.latency.quantile_secs(0.99),
            self.latency.max_secs,
        ));
        if timeline_cap > 0 {
            s.push_str(", \"timeline\": [");
            let skip = self.timeline.len().saturating_sub(timeline_cap);
            for (i, p) in self.timeline.iter().skip(skip).enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "{{\"t\": {:.1}, \"queued\": {}, \"max_depth\": {}, \
                     \"utilization\": {:.4}, \"browned_out\": {}}}",
                    p.t, p.queued, p.max_depth, p.utilization, p.browned_out
                ));
            }
            s.push(']');
        }
        s.push('}');
        s
    }

    /// Serializes every counter, histogram, and timeline point.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.delivered);
        w.u64(self.shed_discipline);
        w.u64(self.shed_dead);
        w.u64(self.shed_residual);
        w.u64(self.rejected_queue);
        w.u64(self.rejected_budget);
        w.u64(self.rehomed);
        w.f64(self.rehome_bytes);
        w.u64(self.brownout_entries);
        w.f64(self.brownout_secs);
        w.u64(self.brownout_queries);
        w.u64(self.peak_depth);
        self.latency.snap(w);
        w.len(self.timeline.len());
        for p in &self.timeline {
            w.f64(p.t);
            w.u64(p.queued);
            w.u64(p.max_depth);
            w.f64(p.utilization);
            w.u64(p.browned_out);
        }
    }

    /// Restores what [`snap`](Self::snap) wrote.
    pub fn unsnap(r: &mut SnapReader<'_>) -> Result<OverloadMetrics, SnapshotError> {
        let mut m = OverloadMetrics {
            delivered: r.u64("overload.delivered")?,
            shed_discipline: r.u64("overload.shed_discipline")?,
            shed_dead: r.u64("overload.shed_dead")?,
            shed_residual: r.u64("overload.shed_residual")?,
            rejected_queue: r.u64("overload.rejected_queue")?,
            rejected_budget: r.u64("overload.rejected_budget")?,
            rehomed: r.u64("overload.rehomed")?,
            rehome_bytes: r.f64("overload.rehome_bytes")?,
            brownout_entries: r.u64("overload.brownout_entries")?,
            brownout_secs: r.f64("overload.brownout_secs")?,
            brownout_queries: r.u64("overload.brownout_queries")?,
            peak_depth: r.u64("overload.peak_depth")?,
            latency: LatencyHistogram::unsnap(r)?,
            timeline: Vec::new(),
        };
        let n = r.len("overload.timeline.len")?;
        m.timeline.reserve(n);
        for _ in 0..n {
            m.timeline.push(OvPoint {
                t: r.f64("overload.timeline.t")?,
                queued: r.u64("overload.timeline.queued")?,
                max_depth: r.u64("overload.timeline.max_depth")?,
                utilization: r.f64("overload.timeline.utilization")?,
                browned_out: r.u64("overload.timeline.browned_out")?,
            });
        }
        Ok(m)
    }
}

/// One queued response awaiting its super-peer's service.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QEntry {
    /// Issuing peer slot (strike target if this entry is shed).
    owner: PeerId,
    /// Admission time.
    arrival: f64,
    /// Effective flood TTL at admission — the `DropLowestTtl` key.
    ttl: u16,
}

/// Sentinel for "no pressure/relief window open".
const NO_ANCHOR: f64 = -1.0;

/// Per-cluster overload state: the bounded queue plus the virtual
/// service clock and brownout hysteresis anchors.
#[derive(Debug, Clone, PartialEq, Default)]
struct ClusterOv {
    entries: VecDeque<QEntry>,
    /// Time the server frees up (max over completions scheduled).
    vclock: f64,
    /// Cumulative seconds the server has spent serving.
    busy_secs: f64,
    /// Browned out right now?
    brownout: bool,
    /// When it entered brownout (for `brownout_secs`).
    brownout_since: f64,
    /// Start of the current over-threshold observation window
    /// ([`NO_ANCHOR`] when none).
    pressure_since: f64,
    /// Start of the current under-threshold observation window.
    relief_since: f64,
}

impl ClusterOv {
    fn fresh() -> ClusterOv {
        ClusterOv {
            pressure_since: NO_ANCHOR,
            relief_since: NO_ANCHOR,
            ..ClusterOv::default()
        }
    }
}

/// What admission decided for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Refused — the query must not flood and counts as rejected.
    Rejected,
    /// Accepted: flood with `ttl`, and (when browned out) forward to at
    /// most `fanout_limit` neighbors per hop.
    Admitted {
        /// Effective flood TTL (brownout may have degraded it).
        ttl: u16,
        /// Brownout fanout cap, `None` when not browned out.
        fanout_limit: Option<u32>,
    },
}

/// The per-run overload runtime for the churn engines. All methods are
/// draw-free and deterministic in call order; both engines call them at
/// identical simulated times with identical arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadState {
    policy: OverloadPolicy,
    clusters: Vec<ClusterOv>,
    /// Per-peer-slot token-bucket levels.
    tokens: Vec<f64>,
    /// Per-peer-slot last token refill time.
    token_at: Vec<f64>,
    /// Per-peer-slot consecutive-rejection strikes.
    strikes: Vec<u32>,
    /// Busy-seconds total at the previous timeline point.
    sampled_busy: f64,
    /// Time of the previous timeline point.
    sampled_at: f64,
}

impl OverloadState {
    /// Builds the runtime for a policy (validated by the caller).
    pub fn new(policy: OverloadPolicy) -> OverloadState {
        OverloadState {
            policy,
            clusters: Vec::new(),
            tokens: Vec::new(),
            token_at: Vec::new(),
            strikes: Vec::new(),
            sampled_busy: 0.0,
            sampled_at: 0.0,
        }
    }

    /// True when the policy does anything at all.
    pub fn active(&self) -> bool {
        !self.policy.is_empty()
    }

    /// Seconds one response occupies the server.
    fn service_secs(&self) -> f64 {
        1.0 / self.policy.service_rate
    }

    fn cluster_mut(&mut self, c: ClusterId) -> &mut ClusterOv {
        let need = c as usize + 1;
        if self.clusters.len() < need {
            self.clusters.resize_with(need, ClusterOv::fresh);
        }
        &mut self.clusters[c as usize]
    }

    /// Current queue depth of a cluster (0 for never-touched slots).
    pub fn depth(&self, c: ClusterId) -> usize {
        self.clusters.get(c as usize).map_or(0, |s| s.entries.len())
    }

    /// Resets a peer slot's budget and strikes — called when the slot
    /// is handed to a new arrival.
    pub fn reset_peer(&mut self, peer: PeerId) {
        let need = peer as usize + 1;
        if self.tokens.len() < need {
            self.tokens.resize(need, -1.0);
            self.token_at.resize(need, 0.0);
            self.strikes.resize(need, 0);
        }
        self.tokens[peer as usize] = -1.0; // -1 = bucket starts full on first use
        self.token_at[peer as usize] = 0.0;
        self.strikes[peer as usize] = 0;
    }

    /// Completes every queued response due by `now` at one cluster.
    pub fn drain(&mut self, c: ClusterId, now: f64, m: &mut OverloadMetrics) {
        let s = self.service_secs();
        let cl = self.cluster_mut(c);
        while let Some(head) = cl.entries.front() {
            let start = head.arrival.max(cl.vclock);
            let done = start + s;
            if done > now {
                break;
            }
            let head = *head;
            cl.entries.pop_front();
            cl.vclock = done;
            cl.busy_secs += s;
            m.delivered += 1;
            m.latency.record(done - head.arrival);
        }
    }

    /// Drains every cluster to `now`.
    pub fn drain_all(&mut self, now: f64, m: &mut OverloadMetrics) {
        for c in 0..self.clusters.len() {
            self.drain(c as ClusterId, now, m);
        }
    }

    /// Queue backlog of a cluster in seconds of work at `now`.
    fn backlog_secs(&self, c: ClusterId, now: f64) -> f64 {
        let Some(cl) = self.clusters.get(c as usize) else {
            return 0.0;
        };
        let pending = cl.entries.len() as f64 * self.service_secs();
        let busy_tail = (cl.vclock - now).max(0.0);
        pending + busy_tail
    }

    /// Advances the brownout hysteresis of one cluster at an
    /// observation point and returns whether it is browned out.
    fn observe_brownout(&mut self, c: ClusterId, now: f64, m: &mut OverloadMetrics) -> bool {
        let Some(b) = self.policy.brownout else {
            return false;
        };
        let backlog = self.backlog_secs(c, now);
        let cl = self.cluster_mut(c);
        if cl.brownout {
            if backlog < b.exit_backlog_secs {
                if cl.relief_since == NO_ANCHOR {
                    cl.relief_since = now;
                }
                if now - cl.relief_since >= b.min_dwell_secs {
                    cl.brownout = false;
                    cl.relief_since = NO_ANCHOR;
                    m.brownout_secs += now - cl.brownout_since;
                }
            } else {
                cl.relief_since = NO_ANCHOR;
            }
        } else {
            if backlog > b.enter_backlog_secs {
                if cl.pressure_since == NO_ANCHOR {
                    cl.pressure_since = now;
                }
                if now - cl.pressure_since >= b.min_dwell_secs {
                    cl.brownout = true;
                    cl.pressure_since = NO_ANCHOR;
                    cl.brownout_since = now;
                    m.brownout_entries += 1;
                }
            } else {
                cl.pressure_since = NO_ANCHOR;
            }
        }
        cl.brownout
    }

    /// Admits or refuses one query at cluster `c`, updating the queue,
    /// budget, strike, and brownout state. `peer` is the issuing peer's
    /// slot; `is_partner` skips the client-only token budget. `ttl` is
    /// the cluster's configured flood TTL before degradation.
    pub fn admit(
        &mut self,
        c: ClusterId,
        peer: PeerId,
        is_partner: bool,
        now: f64,
        ttl: u16,
        m: &mut OverloadMetrics,
    ) -> Admission {
        self.drain(c, now, m);

        // Client token budget: refill since last use, spend one.
        if !is_partner && self.policy.client_tokens_per_sec > 0.0 {
            let burst = self.policy.client_token_burst;
            let rate = self.policy.client_tokens_per_sec;
            if self.tokens.len() <= peer as usize {
                self.reset_peer(peer);
            }
            let p = peer as usize;
            let mut level = if self.tokens[p] < 0.0 {
                burst
            } else {
                (self.tokens[p] + (now - self.token_at[p]) * rate).min(burst)
            };
            if level < 1.0 {
                self.tokens[p] = level;
                self.token_at[p] = now;
                m.rejected_budget += 1;
                return Admission::Rejected;
            }
            level -= 1.0;
            self.tokens[p] = level;
            self.token_at[p] = now;
        }

        let browned = self.observe_brownout(c, now, m);
        let (eff_ttl, fanout_limit) = if browned {
            let b = self.policy.brownout.expect("browned requires config");
            m.brownout_queries += 1;
            (
                ttl.saturating_sub(b.ttl_decrement).max(1),
                Some(b.fanout_limit),
            )
        } else {
            (ttl, None)
        };

        // Capacity gate.
        let cap = self.policy.queue_capacity as usize;
        let strike_limit = self.policy.rehome_strikes;
        let discipline = self.policy.discipline;
        let cl = self.cluster_mut(c);
        if cap != 0 && cl.entries.len() >= cap {
            match discipline {
                ShedDiscipline::RejectAtAdmission => {
                    m.rejected_queue += 1;
                    let _ = cl;
                    self.strike(peer, strike_limit);
                    return Admission::Rejected;
                }
                ShedDiscipline::DropOldest => {
                    // The queue head may be mid-service (vclock already
                    // advanced past its start): shedding it anyway is
                    // fine — vclock only ever moves at completions, and
                    // a shed head simply frees the server earlier is
                    // *not* modeled; the conservative ledger charge is
                    // the dropped response.
                    if let Some(victim) = cl.entries.pop_front() {
                        m.shed_discipline += 1;
                        let owner = victim.owner;
                        let _ = cl;
                        self.strike(owner, strike_limit);
                    }
                }
                ShedDiscipline::DropLowestTtl => {
                    // The arrival competes with the queued entries; the
                    // lowest TTL loses, ties to the oldest (scan keeps
                    // the first minimum, and the arrival is newest).
                    let mut victim_idx = None;
                    let mut victim_ttl = eff_ttl;
                    for (i, e) in cl.entries.iter().enumerate() {
                        if e.ttl < victim_ttl || (victim_idx.is_none() && e.ttl == victim_ttl) {
                            victim_idx = Some(i);
                            victim_ttl = e.ttl;
                        }
                    }
                    match victim_idx {
                        None => {
                            // The arrival itself has the strictly
                            // lowest priority: refused at the door.
                            m.rejected_queue += 1;
                            let _ = cl;
                            self.strike(peer, strike_limit);
                            return Admission::Rejected;
                        }
                        Some(i) => {
                            let victim = cl.entries.remove(i).expect("index in range");
                            m.shed_discipline += 1;
                            let owner = victim.owner;
                            let _ = cl;
                            self.strike(owner, strike_limit);
                        }
                    }
                }
            }
        }

        // Enqueue the admitted response.
        let cl = self.cluster_mut(c);
        cl.entries.push_back(QEntry {
            owner: peer,
            arrival: now,
            ttl: eff_ttl,
        });
        let depth = cl.entries.len() as u64;
        if depth > m.peak_depth {
            m.peak_depth = depth;
        }
        // An admitted client clears its own strike streak.
        if !is_partner && strike_limit != 0 {
            if self.strikes.len() <= peer as usize {
                self.reset_peer(peer);
            }
            self.strikes[peer as usize] = 0;
        }
        Admission::Admitted {
            ttl: eff_ttl,
            fanout_limit,
        }
    }

    fn strike(&mut self, peer: PeerId, strike_limit: u32) {
        if strike_limit == 0 {
            return;
        }
        if self.strikes.len() <= peer as usize {
            self.reset_peer(peer);
        }
        self.strikes[peer as usize] = self.strikes[peer as usize].saturating_add(1);
    }

    /// True when `peer` has struck out and should re-home before its
    /// next submission.
    pub fn should_rehome(&self, peer: PeerId) -> bool {
        self.policy.rehome_strikes != 0
            && self
                .strikes
                .get(peer as usize)
                .is_some_and(|&s| s >= self.policy.rehome_strikes)
    }

    /// Clears a re-homed client's strike streak.
    pub fn rehomed(&mut self, peer: PeerId) {
        if let Some(s) = self.strikes.get_mut(peer as usize) {
            *s = 0;
        }
    }

    /// A cluster died: completions due by `now` still count, the rest
    /// is shed, and the per-cluster state resets for the next tenant of
    /// the slot.
    pub fn cluster_down(&mut self, c: ClusterId, now: f64, m: &mut OverloadMetrics) {
        if self.clusters.len() <= c as usize {
            return;
        }
        self.drain(c, now, m);
        let cl = &mut self.clusters[c as usize];
        m.shed_dead += cl.entries.len() as u64;
        if cl.brownout {
            m.brownout_secs += now - cl.brownout_since;
        }
        let busy = cl.busy_secs;
        *cl = ClusterOv::fresh();
        // Busy time already accumulated still belongs to the
        // utilization timeline.
        cl.busy_secs = busy;
    }

    /// Records one timeline point at a sample tick. `live_clusters` is
    /// the denominator for utilization (clusters able to serve).
    pub fn sample(&mut self, now: f64, live_clusters: u64, m: &mut OverloadMetrics) {
        self.drain_all(now, m);
        let mut queued = 0u64;
        let mut max_depth = 0u64;
        let mut browned = 0u64;
        let mut busy_total = 0.0;
        for cl in &self.clusters {
            let d = cl.entries.len() as u64;
            queued += d;
            max_depth = max_depth.max(d);
            browned += cl.brownout as u64;
            busy_total += cl.busy_secs;
        }
        let dt = now - self.sampled_at;
        let utilization = if dt > 0.0 && live_clusters > 0 {
            ((busy_total - self.sampled_busy) / (dt * live_clusters as f64)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.sampled_busy = busy_total;
        self.sampled_at = now;
        m.timeline.push(OvPoint {
            t: now,
            queued,
            max_depth,
            utilization,
            browned_out: browned,
        });
    }

    /// End of run: completions due by `end_time` count as delivered,
    /// everything still queued is shed as residual, and open brownout
    /// windows close.
    pub fn finalize(&mut self, end_time: f64, m: &mut OverloadMetrics) {
        self.drain_all(end_time, m);
        for cl in &mut self.clusters {
            m.shed_residual += cl.entries.len() as u64;
            cl.entries.clear();
            if cl.brownout {
                m.brownout_secs += end_time - cl.brownout_since;
                cl.brownout = false;
            }
        }
    }

    /// Serializes the runtime state (the policy itself rides in the
    /// engine's options section).
    pub fn snap_state(&self, w: &mut SnapWriter) {
        w.len(self.clusters.len());
        for cl in &self.clusters {
            w.len(cl.entries.len());
            for e in &cl.entries {
                w.u32(e.owner);
                w.f64(e.arrival);
                w.u16(e.ttl);
            }
            w.f64(cl.vclock);
            w.f64(cl.busy_secs);
            w.bool(cl.brownout);
            w.f64(cl.brownout_since);
            w.f64(cl.pressure_since);
            w.f64(cl.relief_since);
        }
        w.len(self.tokens.len());
        for i in 0..self.tokens.len() {
            w.f64(self.tokens[i]);
            w.f64(self.token_at[i]);
            w.u32(self.strikes[i]);
        }
        w.f64(self.sampled_busy);
        w.f64(self.sampled_at);
    }

    /// Restores what [`snap_state`](Self::snap_state) wrote.
    pub fn unsnap_state(
        policy: OverloadPolicy,
        r: &mut SnapReader<'_>,
    ) -> Result<OverloadState, SnapshotError> {
        let mut st = OverloadState::new(policy);
        let n_clusters = r.len("overload.clusters.len")?;
        st.clusters.reserve(n_clusters);
        for _ in 0..n_clusters {
            let n_entries = r.len("overload.entries.len")?;
            let mut cl = ClusterOv::fresh();
            cl.entries.reserve(n_entries);
            for _ in 0..n_entries {
                cl.entries.push_back(QEntry {
                    owner: r.u32("overload.entry.owner")?,
                    arrival: r.f64("overload.entry.arrival")?,
                    ttl: r.u16("overload.entry.ttl")?,
                });
            }
            cl.vclock = r.f64("overload.vclock")?;
            cl.busy_secs = r.f64("overload.busy_secs")?;
            cl.brownout = r.bool("overload.brownout")?;
            cl.brownout_since = r.f64("overload.brownout_since")?;
            cl.pressure_since = r.f64("overload.pressure_since")?;
            cl.relief_since = r.f64("overload.relief_since")?;
            st.clusters.push(cl);
        }
        let n_peers = r.len("overload.peers.len")?;
        st.tokens.reserve(n_peers);
        for _ in 0..n_peers {
            st.tokens.push(r.f64("overload.tokens")?);
            st.token_at.push(r.f64("overload.token_at")?);
            st.strikes.push(r.u32("overload.strikes")?);
        }
        st.sampled_busy = r.f64("overload.sampled_busy")?;
        st.sampled_at = r.f64("overload.sampled_at")?;
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(cap: u32, rate: f64, discipline: ShedDiscipline) -> OverloadPolicy {
        OverloadPolicy {
            service_rate: rate,
            queue_capacity: cap,
            discipline,
            ..OverloadPolicy::default()
        }
    }

    #[test]
    fn fifo_service_latency_is_queueing_plus_service() {
        let mut st = OverloadState::new(policy(0, 1.0, ShedDiscipline::RejectAtAdmission));
        let mut m = OverloadMetrics::default();
        for i in 0..3 {
            assert!(matches!(
                st.admit(0, i, false, 0.0, 7, &mut m),
                Admission::Admitted { ttl: 7, .. }
            ));
        }
        st.drain(0, 10.0, &mut m);
        assert_eq!(m.delivered, 3);
        // Completions at 1, 2, 3 seconds → latencies 1, 2, 3.
        assert_eq!(m.latency.count, 3);
        assert!((m.latency.sum_secs - 6.0).abs() < 1e-9);
        assert!((m.latency.max_secs - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bounded_queue_never_exceeds_capacity() {
        for discipline in [
            ShedDiscipline::RejectAtAdmission,
            ShedDiscipline::DropOldest,
            ShedDiscipline::DropLowestTtl,
        ] {
            let mut st = OverloadState::new(policy(2, 0.001, discipline));
            let mut m = OverloadMetrics::default();
            for i in 0..10u32 {
                st.admit(0, i, false, i as f64 * 0.01, 7, &mut m);
                assert!(st.depth(0) <= 2, "{discipline:?} overflowed");
            }
            assert_eq!(m.peak_depth, 2);
            st.finalize(1.0, &mut m);
            // 10 arrivals, nothing serviced in 1s at rate 0.001.
            assert_eq!(m.accounted(), 10, "{discipline:?} leaked");
            assert_eq!(m.delivered, 0);
        }
    }

    #[test]
    fn drop_oldest_sheds_head() {
        let mut st = OverloadState::new(policy(1, 0.001, ShedDiscipline::DropOldest));
        let mut m = OverloadMetrics::default();
        st.admit(0, 1, false, 0.0, 7, &mut m);
        st.admit(0, 2, false, 0.1, 7, &mut m);
        assert_eq!(m.shed_discipline, 1);
        assert_eq!(st.depth(0), 1);
    }

    #[test]
    fn drop_lowest_ttl_prefers_low_ttl_victim_and_rejects_low_arrival() {
        let mut st = OverloadState::new(policy(2, 0.001, ShedDiscipline::DropLowestTtl));
        let mut m = OverloadMetrics::default();
        st.admit(0, 1, false, 0.0, 3, &mut m);
        st.admit(0, 2, false, 0.1, 7, &mut m);
        // Arrival with TTL 5: the queued TTL-3 entry is the victim.
        st.admit(0, 3, false, 0.2, 5, &mut m);
        assert_eq!(m.shed_discipline, 1);
        assert_eq!(m.rejected_queue, 0);
        // Arrival with TTL 1 loses to both queued entries (5, 7).
        assert!(matches!(
            st.admit(0, 4, false, 0.3, 1, &mut m),
            Admission::Rejected
        ));
        assert_eq!(m.rejected_queue, 1);
    }

    #[test]
    fn token_budget_rejects_burst_and_refills() {
        let p = OverloadPolicy {
            service_rate: 100.0,
            client_tokens_per_sec: 1.0,
            client_token_burst: 2.0,
            ..OverloadPolicy::default()
        };
        let mut st = OverloadState::new(p);
        let mut m = OverloadMetrics::default();
        st.reset_peer(9);
        // Burst of 3 at t = 0: two admitted, one over budget.
        for _ in 0..3 {
            st.admit(0, 9, false, 0.0, 7, &mut m);
        }
        assert_eq!(m.rejected_budget, 1);
        // 1 second refills one token.
        assert!(matches!(
            st.admit(0, 9, false, 1.0, 7, &mut m),
            Admission::Admitted { .. }
        ));
        // Partners are exempt.
        st.admit(0, 9, true, 1.0, 7, &mut m);
        assert_eq!(m.rejected_budget, 1);
    }

    #[test]
    fn brownout_enters_with_hysteresis_and_degrades() {
        let p = OverloadPolicy {
            service_rate: 1.0,
            brownout: Some(sp_model::overload::BrownoutConfig {
                enter_backlog_secs: 2.0,
                exit_backlog_secs: 0.5,
                min_dwell_secs: 1.0,
                ttl_decrement: 3,
                fanout_limit: 2,
            }),
            ..OverloadPolicy::default()
        };
        let mut st = OverloadState::new(p);
        let mut m = OverloadMetrics::default();
        // Pile up 5 seconds of backlog instantly.
        for i in 0..5 {
            st.admit(0, i, false, 0.0, 7, &mut m);
        }
        assert_eq!(m.brownout_entries, 0, "dwell not yet served");
        // Next admission 1.5s later: pressure window is old enough.
        let a = st.admit(0, 9, false, 1.5, 7, &mut m);
        assert_eq!(m.brownout_entries, 1);
        assert_eq!(
            a,
            Admission::Admitted {
                ttl: 4,
                fanout_limit: Some(2)
            }
        );
        // Long quiet period: drain empties the queue; first admission
        // opens the relief window, a later one exits brownout.
        st.admit(0, 9, false, 100.0, 7, &mut m);
        st.admit(0, 9, false, 102.0, 7, &mut m);
        assert_eq!(m.brownout_entries, 1);
        assert!(m.brownout_secs > 0.0);
        let d = st.admit(0, 9, false, 104.0, 7, &mut m);
        assert!(
            matches!(
                d,
                Admission::Admitted {
                    ttl: 7,
                    fanout_limit: None
                }
            ),
            "brownout did not exit: {d:?}"
        );
    }

    #[test]
    fn strikes_accumulate_and_clear_on_rehome() {
        let p = OverloadPolicy {
            service_rate: 0.001,
            queue_capacity: 1,
            rehome_strikes: 2,
            ..OverloadPolicy::default()
        };
        let mut st = OverloadState::new(p);
        let mut m = OverloadMetrics::default();
        st.admit(0, 5, false, 0.0, 7, &mut m);
        assert!(!st.should_rehome(5));
        st.admit(0, 5, false, 0.1, 7, &mut m);
        st.admit(0, 5, false, 0.2, 7, &mut m);
        assert!(st.should_rehome(5));
        st.rehomed(5);
        assert!(!st.should_rehome(5));
    }

    #[test]
    fn cluster_death_sheds_and_resets() {
        let mut st = OverloadState::new(policy(0, 1.0, ShedDiscipline::RejectAtAdmission));
        let mut m = OverloadMetrics::default();
        for i in 0..4 {
            st.admit(0, i, false, 0.0, 7, &mut m);
        }
        // 1.5s later one response has completed; death sheds the rest.
        st.cluster_down(0, 1.5, &mut m);
        assert_eq!(m.delivered, 1);
        assert_eq!(m.shed_dead, 3);
        assert_eq!(st.depth(0), 0);
    }

    #[test]
    fn snapshot_round_trip_is_identical() {
        let p = OverloadPolicy {
            service_rate: 1.0,
            queue_capacity: 3,
            client_tokens_per_sec: 0.5,
            client_token_burst: 4.0,
            rehome_strikes: 3,
            brownout: Some(Default::default()),
            ..OverloadPolicy::default()
        };
        let mut st = OverloadState::new(p);
        let mut m = OverloadMetrics::default();
        for i in 0..6 {
            st.admit(i % 2, i, i % 3 == 0, i as f64 * 0.3, 7, &mut m);
        }
        st.sample(2.0, 2, &mut m);
        let mut w = SnapWriter::new();
        st.snap_state(&mut w);
        m.snap(&mut w);
        let sealed = w.seal(sp_model::snapshot::ENGINE_FAST);
        let mut r = SnapReader::open(&sealed).expect("open");
        let st2 = OverloadState::unsnap_state(p, &mut r).expect("state");
        let m2 = OverloadMetrics::unsnap(&mut r).expect("metrics");
        r.finish().expect("fully consumed");
        assert_eq!(st, st2);
        assert_eq!(m, m2);
    }

    #[test]
    fn conservation_holds_under_mixed_outcomes() {
        let p = OverloadPolicy {
            service_rate: 0.5,
            queue_capacity: 2,
            discipline: ShedDiscipline::DropOldest,
            client_tokens_per_sec: 0.2,
            client_token_burst: 2.0,
            ..OverloadPolicy::default()
        };
        let mut st = OverloadState::new(p);
        let mut m = OverloadMetrics::default();
        let mut attempts = 0u64;
        for i in 0..50u32 {
            let t = i as f64 * 0.2;
            st.admit((i % 3) as ClusterId, i % 7, false, t, 7, &mut m);
            attempts += 1;
        }
        st.cluster_down(1, 10.0, &mut m);
        st.finalize(10.0, &mut m);
        assert_eq!(m.accounted(), attempts);
        assert!(m.conserved(attempts, 0));
    }
}
