//! Deterministic fault injection for the churn simulator.
//!
//! A [`FaultState`] owns the mutable fault state that both engines
//! share: a *dedicated* RNG stream (seeded from
//! `SimOptions::fault_seed`, never from the simulation's main stream),
//! the currently active message-loss/delay/flaky windows, and the
//! partition map. The [`FaultPlan`] itself stays in the engine's
//! scenario plan, and every method that reads it takes it as an
//! argument. Keeping the fault stream separate means a run
//! with an empty plan makes **zero** fault draws and is bitwise
//! identical to a run of the pre-fault engine; and the same plan under
//! a different `--fault-seed` reuses the main seed's churn/query
//! schedule exactly.
//!
//! Both the fast engine and the reference engine own a `FaultState`
//! and call into it at the *same* logical points (submission, each
//! flood transmission, each fault event), so the draw sequences align
//! and `RawMetrics` — including [`FaultMetrics`] — stay bitwise equal.
//!
//! Client-side recovery follows the plan's [`RetryPolicy`](sp_model::faults::RetryPolicy): a failed
//! submission attempt (dropped in flight, or a flaky partner) costs the
//! client a timeout plus exponential backoff of *virtual* latency
//! (accounted in [`FaultMetrics::retry_wait_secs`], never scheduled),
//! and after `max_retries` retries the client fails over to the second
//! partner of a k≥2 virtual super-peer. Only when the failover
//! sequence is exhausted too is the query counted lost.

use crate::events::ClusterId;
use sp_model::faults::{FaultPlan, FaultSpec};
use sp_model::snapshot::{SnapReader, SnapWriter, SnapshotError};
use sp_stats::SpRng;

/// How a client query submission ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// First attempt reached the round-robin partner.
    Direct,
    /// A retry on the same partner succeeded.
    Retry,
    /// The failover partner (second round-robin pick) answered.
    Failover,
    /// Every attempt failed; the query is lost and never floods.
    Lost,
}

/// The result of driving one client submission through the retry and
/// failover state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Submission {
    /// How the submission resolved.
    pub outcome: QueryOutcome,
    /// Attempts on the primary partner lost in flight.
    pub primary_drops: u32,
    /// Attempts on the primary partner that reached a flaky partner.
    pub primary_flakes: u32,
    /// Failover attempts lost in flight.
    pub failover_drops: u32,
    /// Failover attempts that reached a flaky partner.
    pub failover_flakes: u32,
    /// Virtual client-side latency spent on timeouts and backoff.
    pub wait_secs: f64,
}

impl Submission {
    /// A clean first-attempt success (the no-fault fast path).
    pub const DIRECT: Submission = Submission {
        outcome: QueryOutcome::Direct,
        primary_drops: 0,
        primary_flakes: 0,
        failover_drops: 0,
        failover_flakes: 0,
        wait_secs: 0.0,
    };
}

/// What an engine must do in response to a popped fault event.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Window bookkeeping only; nothing else to execute.
    None,
    /// Crash every partner of the listed clusters (already resolved
    /// against the alive list, in deterministic order).
    Crash(Vec<ClusterId>),
}

/// A log₂-bucketed histogram of reconnect times, in seconds.
///
/// Bucket `i` counts reconnects that took `[2^i, 2^(i+1))` seconds
/// (bucket 0 also holds sub-second reconnects).
#[derive(Debug, Clone, PartialEq)]
pub struct ReconnectHistogram {
    buckets: [u64; 32],
    count: u64,
    total_secs: f64,
    max_secs: f64,
}

impl Default for ReconnectHistogram {
    fn default() -> Self {
        ReconnectHistogram {
            buckets: [0; 32],
            count: 0,
            total_secs: 0.0,
            max_secs: 0.0,
        }
    }
}

impl ReconnectHistogram {
    /// Records one client's downtime between orphaning and reattach.
    pub fn record(&mut self, secs: f64) {
        let secs = secs.max(0.0);
        let bucket = (secs.max(1.0).log2().floor() as usize).min(31);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_secs += secs;
        if secs > self.max_secs {
            self.max_secs = secs;
        }
    }

    /// Reconnects recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of reconnect times, seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_secs
    }

    /// Longest reconnect, seconds.
    pub fn max_secs(&self) -> f64 {
        self.max_secs
    }

    /// Mean reconnect time (0 when empty).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs / self.count as f64
        }
    }

    /// Bucket counts (bucket `i` covers `[2^i, 2^(i+1))` seconds).
    pub fn buckets(&self) -> &[u64; 32] {
        &self.buckets
    }

    /// Writes the histogram into a snapshot payload.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        for &b in &self.buckets {
            w.u64(b);
        }
        w.u64(self.count);
        w.f64(self.total_secs);
        w.f64(self.max_secs);
    }

    /// Reads a histogram written by [`ReconnectHistogram::snap`].
    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut buckets = [0u64; 32];
        for b in &mut buckets {
            *b = r.u64("histogram bucket")?;
        }
        Ok(ReconnectHistogram {
            buckets,
            count: r.u64("histogram count")?,
            total_secs: r.f64("histogram total_secs")?,
            max_secs: r.f64("histogram max_secs")?,
        })
    }
}

/// Fault-injection and recovery counters, embedded in `RawMetrics` so
/// engine-equivalence checks cover them bitwise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultMetrics {
    /// Super-peers crashed by `crash_cluster` / `crash_fraction`.
    pub injected_crash: u64,
    /// Transmissions dropped by active `message_loss` windows.
    pub injected_drop: u64,
    /// Transmissions delayed by active `message_delay` windows.
    pub injected_delay: u64,
    /// Flood transmissions blocked by an active partition.
    pub injected_partition_block: u64,
    /// Submission attempts that hit a flaky partner.
    pub injected_flaky: u64,
    /// Client/partner queries that reached the submission path.
    pub queries_issued: u64,
    /// Queries answered on the first attempt.
    pub answered_direct: u64,
    /// Queries recovered by retrying the same partner.
    pub recovered_retry: u64,
    /// Queries recovered by failing over to the second partner.
    pub recovered_failover: u64,
    /// Queries that exhausted retry and failover.
    pub queries_lost: u64,
    /// Virtual client latency spent in timeouts and backoff, seconds.
    pub retry_wait_secs: f64,
    /// Simulated latency added by `message_delay`, seconds.
    pub delay_added_secs: f64,
    /// Orphaned clients that exhausted the rejoin-attempt cap.
    pub orphan_gave_up: u64,
    /// Time-to-reconnect distribution for recovered orphans.
    pub reconnect: ReconnectHistogram,
}

impl FaultMetrics {
    /// Records one submission result.
    pub fn record_submission(&mut self, sub: &Submission) {
        self.queries_issued += 1;
        match sub.outcome {
            QueryOutcome::Direct => self.answered_direct += 1,
            QueryOutcome::Retry => self.recovered_retry += 1,
            QueryOutcome::Failover => self.recovered_failover += 1,
            QueryOutcome::Lost => self.queries_lost += 1,
        }
        self.injected_drop += (sub.primary_drops + sub.failover_drops) as u64;
        self.injected_flaky += (sub.primary_flakes + sub.failover_flakes) as u64;
        self.retry_wait_secs += sub.wait_secs;
    }

    /// Queries that were answered (directly or after recovery).
    pub fn queries_recovered(&self) -> u64 {
        self.recovered_retry + self.recovered_failover
    }

    /// Conservation check: every issued query is accounted exactly
    /// once.
    pub fn conserved(&self) -> bool {
        self.queries_issued
            == self.answered_direct
                + self.recovered_retry
                + self.recovered_failover
                + self.queries_lost
    }

    /// Writes the counters into a snapshot payload.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.injected_crash);
        w.u64(self.injected_drop);
        w.u64(self.injected_delay);
        w.u64(self.injected_partition_block);
        w.u64(self.injected_flaky);
        w.u64(self.queries_issued);
        w.u64(self.answered_direct);
        w.u64(self.recovered_retry);
        w.u64(self.recovered_failover);
        w.u64(self.queries_lost);
        w.f64(self.retry_wait_secs);
        w.f64(self.delay_added_secs);
        w.u64(self.orphan_gave_up);
        self.reconnect.snap(w);
    }

    /// Reads counters written by [`FaultMetrics::snap`].
    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(FaultMetrics {
            injected_crash: r.u64("fault injected_crash")?,
            injected_drop: r.u64("fault injected_drop")?,
            injected_delay: r.u64("fault injected_delay")?,
            injected_partition_block: r.u64("fault injected_partition_block")?,
            injected_flaky: r.u64("fault injected_flaky")?,
            queries_issued: r.u64("fault queries_issued")?,
            answered_direct: r.u64("fault answered_direct")?,
            recovered_retry: r.u64("fault recovered_retry")?,
            recovered_failover: r.u64("fault recovered_failover")?,
            queries_lost: r.u64("fault queries_lost")?,
            retry_wait_secs: r.f64("fault retry_wait_secs")?,
            delay_added_secs: r.f64("fault delay_added_secs")?,
            orphan_gave_up: r.u64("fault orphan_gave_up")?,
            reconnect: ReconnectHistogram::unsnap(r)?,
        })
    }
}

/// Tracks which windowed fault is currently active.
#[derive(Debug, Clone, Default)]
struct WindowFlags {
    active: Vec<bool>,
}

/// The shared fault-injection state machine (see module docs). It
/// keeps no copy of its [`FaultPlan`]: each method that reads the plan
/// takes the one the state was built for.
#[derive(Debug, Clone)]
pub struct FaultState {
    rng: SpRng,
    windows: WindowFlags,
    /// Effective per-transmission drop probability over active windows.
    drop_prob: f64,
    /// Effective per-transmission delay probability.
    delay_prob: f64,
    /// Latency added per delayed transmission (sum of active windows).
    delay_secs: f64,
    /// Effective per-submission flake probability.
    flaky_prob: f64,
    /// Per-cluster-slot partition depth (blocked while > 0).
    partitioned: Vec<u32>,
    /// Cluster slots resolved at each partition window's start, so the
    /// window end releases exactly what it blocked even under churn.
    resolved_partitions: Vec<Vec<ClusterId>>,
}

impl FaultState {
    /// Builds the state for a plan. An empty plan produces an inert
    /// state: no draws, no blocked edges, no retry caps.
    #[allow(
        clippy::disallowed_methods,
        reason = "R1b seed root: the fault stream comes from fault_seed"
    )]
    pub fn new(plan: &FaultPlan, fault_seed: u64) -> FaultState {
        let n = plan.faults.len();
        FaultState {
            rng: SpRng::seed_from_u64(fault_seed ^ 0x000F_A417_5EED),
            windows: WindowFlags {
                active: vec![false; n],
            },
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_secs: 0.0,
            flaky_prob: 0.0,
            partitioned: Vec::new(),
            resolved_partitions: vec![Vec::new(); n],
        }
    }

    /// The rejoin-attempt cap of `plan`, or `None` when it injects no
    /// faults (so plain churn runs keep the uncapped legacy behavior).
    pub fn rejoin_cap(plan: &FaultPlan) -> Option<u32> {
        if plan.faults.is_empty() {
            None
        } else {
            Some(plan.retry.max_rejoin_attempts)
        }
    }

    /// The fault schedule of `plan`: `(index, time, start)` triples to
    /// seed into the event queue at bootstrap, in declaration order.
    pub fn schedule(plan: &FaultPlan) -> Vec<(u32, f64, bool)> {
        let mut out = Vec::with_capacity(plan.faults.len() * 2);
        for (i, fault) in plan.faults.iter().enumerate() {
            out.push((i as u32, fault.start_secs(), true));
            if let Some(end) = fault.end_secs() {
                out.push((i as u32, end, false));
            }
        }
        out
    }

    /// Whether any active window can drop transmissions (callers skip
    /// the per-transmission draw entirely when not).
    #[inline]
    pub fn drops_possible(&self) -> bool {
        self.drop_prob > 0.0
    }

    /// Whether any active window can delay transmissions.
    #[inline]
    pub fn delays_possible(&self) -> bool {
        self.delay_prob > 0.0
    }

    /// Whether any cluster is currently partitioned.
    #[inline]
    pub fn partitions_possible(&self) -> bool {
        !self.partitioned.is_empty() && self.partitioned.iter().any(|&c| c > 0)
    }

    /// One drop draw for a flood transmission. Call only while
    /// [`drops_possible`](FaultState::drops_possible).
    #[inline]
    pub fn draw_drop(&mut self) -> bool {
        self.rng.unit_f64() < self.drop_prob
    }

    /// One delay draw for a surviving transmission; returns the added
    /// latency. Call only while
    /// [`delays_possible`](FaultState::delays_possible).
    #[inline]
    pub fn draw_delay(&mut self) -> Option<f64> {
        if self.rng.unit_f64() < self.delay_prob {
            Some(self.delay_secs)
        } else {
            None
        }
    }

    /// Whether the cluster slot is inside an active partition.
    #[inline]
    pub fn is_partitioned(&self, cluster: ClusterId) -> bool {
        self.partitioned
            .get(cluster as usize)
            .is_some_and(|&c| c > 0)
    }

    /// Blocks a scenario-resolved cluster set: same depth counters as
    /// a fault-plan partition window, so the flood hot path needs no
    /// extra branch for scenario splits. The caller keeps the resolved
    /// list and releases exactly it via
    /// [`scenario_partition_end`](FaultState::scenario_partition_end).
    pub fn scenario_partition_begin(&mut self, clusters: &[ClusterId]) {
        for &slot in clusters {
            let slot = slot as usize;
            if slot >= self.partitioned.len() {
                self.partitioned.resize(slot + 1, 0);
            }
            self.partitioned[slot] += 1;
        }
    }

    /// Releases a cluster set previously blocked by
    /// [`scenario_partition_begin`](FaultState::scenario_partition_begin).
    pub fn scenario_partition_end(&mut self, clusters: &[ClusterId]) {
        for &slot in clusters {
            if let Some(c) = self.partitioned.get_mut(slot as usize) {
                *c = c.saturating_sub(1);
            }
        }
    }

    /// Applies the event `(index, start)` of `plan` and returns what
    /// the engine must execute. `alive` is the engine's alive-cluster
    /// list in iteration order — both engines pass identical lists, so
    /// the crash and partition resolutions match.
    pub fn on_fault_event(
        &mut self,
        plan: &FaultPlan,
        index: u32,
        start: bool,
        alive: &[ClusterId],
    ) -> FaultAction {
        let i = index as usize;
        match plan.faults[i] {
            FaultSpec::CrashCluster { cluster_index, .. } => {
                if alive.is_empty() {
                    return FaultAction::None;
                }
                FaultAction::Crash(vec![alive[cluster_index % alive.len()]])
            }
            FaultSpec::CrashFraction { fraction, .. } => {
                if alive.is_empty() {
                    return FaultAction::None;
                }
                let n = ((fraction * alive.len() as f64).round() as usize).min(alive.len());
                if n == 0 {
                    return FaultAction::None;
                }
                // Partial Fisher–Yates over a copy of the alive list,
                // driven by the fault stream: deterministic, distinct,
                // order-stable across engines.
                let mut pool: Vec<ClusterId> = alive.to_vec();
                for k in 0..n {
                    let j = k + self.rng.index(pool.len() - k);
                    pool.swap(k, j);
                }
                pool.truncate(n);
                FaultAction::Crash(pool)
            }
            FaultSpec::Partition { ref clusters, .. } => {
                if start {
                    let mut resolved = Vec::with_capacity(clusters.len());
                    if !alive.is_empty() {
                        for &ci in clusters {
                            let slot = alive[ci % alive.len()];
                            if !resolved.contains(&slot) {
                                resolved.push(slot);
                            }
                        }
                    }
                    for &slot in &resolved {
                        let slot = slot as usize;
                        if slot >= self.partitioned.len() {
                            self.partitioned.resize(slot + 1, 0);
                        }
                        self.partitioned[slot] += 1;
                    }
                    self.resolved_partitions[i] = resolved;
                } else {
                    for slot in std::mem::take(&mut self.resolved_partitions[i]) {
                        let slot = slot as usize;
                        if let Some(c) = self.partitioned.get_mut(slot) {
                            *c = c.saturating_sub(1);
                        }
                    }
                }
                FaultAction::None
            }
            FaultSpec::MessageLoss { .. }
            | FaultSpec::MessageDelay { .. }
            | FaultSpec::FlakyPartners { .. } => {
                self.windows.active[i] = start;
                self.recompute_windows(plan);
                FaultAction::None
            }
        }
    }

    /// Re-derives the effective probabilities from the active windows.
    /// Overlapping windows compose independently
    /// (`1 − Π(1 − qᵢ)`); delays sum their added latency.
    fn recompute_windows(&mut self, plan: &FaultPlan) {
        let mut keep_drop = 1.0;
        let mut keep_delay = 1.0;
        let mut keep_flaky = 1.0;
        let mut delay_secs = 0.0;
        for (i, fault) in plan.faults.iter().enumerate() {
            if !self.windows.active[i] {
                continue;
            }
            match *fault {
                FaultSpec::MessageLoss { drop_prob, .. } => keep_drop *= 1.0 - drop_prob,
                FaultSpec::MessageDelay {
                    delay_prob,
                    delay_secs: d,
                    ..
                } => {
                    keep_delay *= 1.0 - delay_prob;
                    delay_secs += d;
                }
                FaultSpec::FlakyPartners { flake_prob, .. } => keep_flaky *= 1.0 - flake_prob,
                _ => {}
            }
        }
        self.drop_prob = 1.0 - keep_drop;
        self.delay_prob = 1.0 - keep_delay;
        self.flaky_prob = 1.0 - keep_flaky;
        self.delay_secs = delay_secs;
    }

    /// Writes the *mutable* fault state into a snapshot payload. The
    /// plan itself is not written — the caller embeds it (as canonical
    /// JSON) and rebuilds via [`FaultState::new`] before calling
    /// [`FaultState::unsnap_state`]. The derived window probabilities
    /// are re-derived exactly by `recompute_windows` (a pure fold over
    /// the plan), so only the window flags travel.
    pub(crate) fn snap_state(&self, w: &mut SnapWriter) {
        let s = self.rng.state();
        for &word in &s {
            w.u64(word);
        }
        w.len(self.windows.active.len());
        for &a in &self.windows.active {
            w.bool(a);
        }
        w.len(self.partitioned.len());
        for &depth in &self.partitioned {
            w.u32(depth);
        }
        w.len(self.resolved_partitions.len());
        for set in &self.resolved_partitions {
            w.len(set.len());
            for &c in set {
                w.u32(c);
            }
        }
    }

    /// Restores the mutable state written by
    /// [`FaultState::snap_state`] into a `FaultState` freshly built for
    /// `plan` (any seed — the RNG position is overwritten).
    #[allow(
        clippy::disallowed_methods,
        reason = "R1b seed root: a checkpoint restores the fault RNG position"
    )]
    pub(crate) fn unsnap_state(
        &mut self,
        plan: &FaultPlan,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapshotError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.u64("fault rng word")?;
        }
        self.rng = SpRng::from_state(s);
        let n = r.len("fault windows len")?;
        if n != plan.faults.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {n} fault windows but the plan has {}",
                plan.faults.len()
            )));
        }
        for i in 0..n {
            self.windows.active[i] = r.bool("fault window active")?;
        }
        let n = r.len("fault partitioned len")?;
        self.partitioned = Vec::with_capacity(n);
        for _ in 0..n {
            self.partitioned.push(r.u32("fault partition depth")?);
        }
        let n = r.len("fault resolved partitions len")?;
        if n != self.resolved_partitions.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {n} resolved partition sets but the plan has {}",
                self.resolved_partitions.len()
            )));
        }
        for set in &mut self.resolved_partitions {
            let m = r.len("resolved partition set len")?;
            set.clear();
            set.reserve(m);
            for _ in 0..m {
                set.push(r.u32("resolved partition cluster")?);
            }
        }
        self.recompute_windows(plan);
        Ok(())
    }

    /// Drives one client submission through `plan`'s
    /// timeout/retry/failover policy.
    ///
    /// `partners` is the size of the destination virtual super-peer.
    /// The fast path — no active loss window and no (applicable) flaky
    /// window — returns [`Submission::DIRECT`] without touching the
    /// RNG, so fault-free stretches of a run stay draw-free.
    pub fn submit_query(&mut self, plan: &FaultPlan, partners: usize) -> Submission {
        let flaky = if partners >= 2 { self.flaky_prob } else { 0.0 };
        if self.drop_prob == 0.0 && flaky == 0.0 {
            return Submission::DIRECT;
        }
        let retry = plan.retry;
        let attempts = 1 + retry.max_retries;
        let mut sub = Submission::DIRECT;

        // Primary partner sequence.
        for attempt in 0..attempts {
            match self.attempt_fate(flaky) {
                AttemptFate::Ok => {
                    sub.outcome = if attempt == 0 {
                        QueryOutcome::Direct
                    } else {
                        QueryOutcome::Retry
                    };
                    return sub;
                }
                AttemptFate::Dropped => sub.primary_drops += 1,
                AttemptFate::Flaked => sub.primary_flakes += 1,
            }
            sub.wait_secs += retry.timeout_secs
                + retry.backoff_base_secs * retry.backoff_factor.powi(attempt as i32);
        }

        // Failover to the second round-robin partner, if one exists.
        if partners >= 2 {
            for attempt in 0..attempts {
                match self.attempt_fate(flaky) {
                    AttemptFate::Ok => {
                        sub.outcome = QueryOutcome::Failover;
                        return sub;
                    }
                    AttemptFate::Dropped => sub.failover_drops += 1,
                    AttemptFate::Flaked => sub.failover_flakes += 1,
                }
                sub.wait_secs += retry.timeout_secs
                    + retry.backoff_base_secs * retry.backoff_factor.powi(attempt as i32);
            }
        }

        sub.outcome = QueryOutcome::Lost;
        sub
    }

    #[inline]
    fn attempt_fate(&mut self, flaky: f64) -> AttemptFate {
        if self.drop_prob > 0.0 && self.rng.unit_f64() < self.drop_prob {
            return AttemptFate::Dropped;
        }
        if flaky > 0.0 && self.rng.unit_f64() < flaky {
            return AttemptFate::Flaked;
        }
        AttemptFate::Ok
    }
}

enum AttemptFate {
    Ok,
    Dropped,
    Flaked,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_model::faults::RetryPolicy;

    fn plan_with(faults: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan {
            faults,
            retry: RetryPolicy::default(),
        }
    }

    #[test]
    fn inactive_state_is_draw_free() {
        let plan = FaultPlan::default();
        let mut fs = FaultState::new(&plan, 0);
        assert!(FaultState::rejoin_cap(&plan).is_none());
        assert!(!fs.drops_possible());
        assert!(!fs.partitions_possible());
        let sub = fs.submit_query(&plan, 2);
        assert_eq!(sub, Submission::DIRECT);
        assert!(FaultState::schedule(&plan).is_empty());
    }

    #[test]
    fn schedule_emits_start_and_end_pairs() {
        let plan = plan_with(vec![
            FaultSpec::CrashFraction {
                at_secs: 10.0,
                fraction: 0.5,
            },
            FaultSpec::MessageLoss {
                from_secs: 5.0,
                until_secs: 20.0,
                drop_prob: 0.5,
            },
        ]);
        assert_eq!(
            FaultState::schedule(&plan),
            vec![(0, 10.0, true), (1, 5.0, true), (1, 20.0, false)]
        );
    }

    #[test]
    fn crash_fraction_picks_distinct_clusters() {
        let plan = plan_with(vec![FaultSpec::CrashFraction {
            at_secs: 1.0,
            fraction: 0.5,
        }]);
        let mut fs = FaultState::new(&plan, 42);
        let alive: Vec<ClusterId> = (0..10).collect();
        let FaultAction::Crash(victims) = fs.on_fault_event(&plan, 0, true, &alive) else {
            panic!("expected crash");
        };
        assert_eq!(victims.len(), 5);
        let mut sorted = victims.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "victims must be distinct");
    }

    #[test]
    fn crash_picks_are_seed_deterministic() {
        let alive: Vec<ClusterId> = (0..16).collect();
        let pick = |seed| {
            let plan = plan_with(vec![FaultSpec::CrashFraction {
                at_secs: 1.0,
                fraction: 0.25,
            }]);
            let mut fs = FaultState::new(&plan, seed);
            match fs.on_fault_event(&plan, 0, true, &alive) {
                FaultAction::Crash(v) => v,
                other => panic!("expected crash, got {other:?}"),
            }
        };
        assert_eq!(pick(1), pick(1));
        assert_ne!(pick(1), pick(2), "fault seed must matter");
    }

    #[test]
    fn partition_window_blocks_then_releases() {
        let plan = plan_with(vec![FaultSpec::Partition {
            from_secs: 0.0,
            until_secs: 10.0,
            clusters: vec![1, 3],
        }]);
        let mut fs = FaultState::new(&plan, 0);
        let alive: Vec<ClusterId> = vec![10, 11, 12, 13];
        assert_eq!(fs.on_fault_event(&plan, 0, true, &alive), FaultAction::None);
        assert!(fs.partitions_possible());
        assert!(fs.is_partitioned(11));
        assert!(fs.is_partitioned(13));
        assert!(!fs.is_partitioned(10));
        assert_eq!(
            fs.on_fault_event(&plan, 0, false, &alive),
            FaultAction::None
        );
        assert!(!fs.is_partitioned(11));
        assert!(!fs.partitions_possible());
    }

    #[test]
    fn loss_window_toggles_drop_probability() {
        let plan = plan_with(vec![FaultSpec::MessageLoss {
            from_secs: 0.0,
            until_secs: 10.0,
            drop_prob: 1.0,
        }]);
        let mut fs = FaultState::new(&plan, 0);
        assert!(!fs.drops_possible());
        fs.on_fault_event(&plan, 0, true, &[]);
        assert!(fs.drops_possible());
        assert!(fs.draw_drop(), "q=1 must always drop");
        fs.on_fault_event(&plan, 0, false, &[]);
        assert!(!fs.drops_possible());
    }

    #[test]
    fn certain_loss_exhausts_retry_then_failover() {
        let plan = plan_with(vec![FaultSpec::MessageLoss {
            from_secs: 0.0,
            until_secs: 10.0,
            drop_prob: 1.0,
        }]);
        let mut fs = FaultState::new(&plan, 0);
        fs.on_fault_event(&plan, 0, true, &[]);
        let k1 = fs.submit_query(&plan, 1);
        assert_eq!(k1.outcome, QueryOutcome::Lost);
        assert_eq!(k1.primary_drops, 1 + RetryPolicy::default().max_retries);
        assert_eq!(k1.failover_drops, 0, "no failover without a second partner");
        let k2 = fs.submit_query(&plan, 2);
        assert_eq!(k2.outcome, QueryOutcome::Lost);
        assert!(k2.failover_drops > 0);
        assert!(k2.wait_secs > k1.wait_secs);
    }

    #[test]
    fn flaky_partner_forces_failover_for_k2_only() {
        let plan = plan_with(vec![FaultSpec::FlakyPartners {
            from_secs: 0.0,
            until_secs: 10.0,
            flake_prob: 1.0,
        }]);
        let mut fs = FaultState::new(&plan, 0);
        fs.on_fault_event(&plan, 0, true, &[]);
        // k=1 clusters have no redundancy to be flaky about.
        assert_eq!(fs.submit_query(&plan, 1), Submission::DIRECT);
        // k=2: with flake_prob 1 every attempt on both partners flakes.
        let sub = fs.submit_query(&plan, 2);
        assert_eq!(sub.outcome, QueryOutcome::Lost);
        assert!(sub.primary_flakes > 0 && sub.failover_flakes > 0);
    }

    #[test]
    fn submission_metrics_conserve() {
        let mut fm = FaultMetrics::default();
        let plan = plan_with(vec![FaultSpec::MessageLoss {
            from_secs: 0.0,
            until_secs: 10.0,
            drop_prob: 0.4,
        }]);
        let mut fs = FaultState::new(&plan, 9);
        fs.on_fault_event(&plan, 0, true, &[]);
        for _ in 0..500 {
            let sub = fs.submit_query(&plan, 2);
            fm.record_submission(&sub);
        }
        assert_eq!(fm.queries_issued, 500);
        assert!(fm.conserved());
        assert!(fm.answered_direct > 0);
        assert!(fm.recovered_retry > 0, "q=0.4 should force some retries");
    }

    #[test]
    fn reconnect_histogram_buckets_by_log2() {
        let mut h = ReconnectHistogram::default();
        for secs in [0.0, 0.5, 1.0, 3.0, 1024.0] {
            h.record(secs);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 3, "sub-2s reconnects share bucket 0");
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.max_secs(), 1024.0);
        assert!(h.mean_secs() > 0.0);
    }

    #[test]
    fn overlapping_loss_windows_compose() {
        let plan = plan_with(vec![
            FaultSpec::MessageLoss {
                from_secs: 0.0,
                until_secs: 10.0,
                drop_prob: 0.5,
            },
            FaultSpec::MessageLoss {
                from_secs: 0.0,
                until_secs: 10.0,
                drop_prob: 0.5,
            },
        ]);
        let mut fs = FaultState::new(&plan, 0);
        fs.on_fault_event(&plan, 0, true, &[]);
        fs.on_fault_event(&plan, 1, true, &[]);
        assert!((fs.drop_prob - 0.75).abs() < 1e-12);
        fs.on_fault_event(&plan, 0, false, &[]);
        assert!((fs.drop_prob - 0.5).abs() < 1e-12);
    }
}
