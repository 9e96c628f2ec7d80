//! Deterministic scenario-phase execution for the churn simulator.
//!
//! A [`ScenarioState`] owns everything scenario-related that both
//! engines share: the phase list and capacity classes of a compiled
//! [`ScenarioPlan`], a *dedicated* RNG stream (seeded from
//! `SimOptions::scenario_seed`, never from the simulation's main
//! stream), the currently active workload modifiers, and the resolved
//! cluster sets of open split windows. The design follows
//! [`crate::faults`] exactly:
//!
//! * an empty plan makes **zero** scenario draws and applies only
//!   identity transforms (multiply by 1.0, shift by 0), so the run is
//!   bitwise identical to a plain run;
//! * phase boundaries are first-class queue events
//!   ([`Event::Phase`](crate::events::Event::Phase)), scheduled at the
//!   same bootstrap point in both engines so the FIFO tie-break
//!   sequence numbers line up;
//! * everything that needs randomness (mass-leave victims, split
//!   membership) draws from the dedicated stream via partial
//!   Fisher–Yates — deterministic, distinct, order-stable across
//!   engines — and everything else (capacity classes) is assigned by
//!   draw-free smooth weighted round-robin on a join counter.
//!
//! The modifiers hook the engines at four places, all post-draw or
//! rate-side so the main RNG call sequence never changes: sampled
//! lifespans and file counts are scaled on admission
//! ([`ScenarioState::admit_peer`]), the query rate is multiplied
//! inside `exp_delay(rate × mult)`
//! ([`ScenarioState::query_rate_mult`]), and each sampled query class
//! is rotated modulo the class count
//! ([`ScenarioState::shift_query`]). Split windows reuse the fault
//! layer's partition depth counters
//! ([`FaultState::scenario_partition_begin`](crate::faults::FaultState::scenario_partition_begin)),
//! so the flood hot path carries no scenario-specific branch.

use sp_model::scenario::{CapacityClass, PhaseKind, PhaseSpec, ScenarioPlan};
use sp_model::snapshot::{SnapReader, SnapWriter, SnapshotError};
use sp_stats::SpRng;

use crate::events::ClusterId;

/// What the engine must execute for a phase-boundary event, beyond the
/// modifier bookkeeping [`ScenarioState`] already did internally.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseAction {
    /// Nothing: the phase only toggled workload modifiers.
    None,
    /// Force a correlated mass departure: the engine collects the
    /// alive peers in slot order and asks
    /// [`ScenarioState::pick_mass_leave`] for the victim indices.
    MassLeave {
        /// Fraction of alive peers departing.
        fraction: f64,
    },
    /// Open a split window: the engine collects the alive clusters,
    /// asks [`ScenarioState::pick_split`] for the isolated side, and
    /// blocks it through the fault layer's partition counters.
    SplitBegin {
        /// Fraction of alive clusters isolated.
        fraction: f64,
    },
    /// Close a split window: release the cluster set stored by
    /// [`ScenarioState::store_split`].
    SplitEnd,
}

/// Scenario state machine shared by both engines (see module docs).
#[derive(Debug, Clone)]
pub struct ScenarioState {
    phases: Vec<PhaseSpec>,
    classes: Vec<CapacityClass>,
    /// Dedicated scenario stream; untouched while the plan draws
    /// nothing, so an empty plan is bitwise inert.
    rng: SpRng,
    /// Active flash-crowd query-rate factor (1.0 outside windows).
    query_mult: f64,
    /// Which phases are currently inside their window, indexed by
    /// declaration order — the basis of the per-phase rate product.
    phase_active: Vec<bool>,
    /// Product of the active phases' per-phase `rate_mult` knobs,
    /// recomputed canonically (declaration order) at every boundary so
    /// overlapping windows compose without float drift.
    rate_mult: f64,
    /// Active flash-crowd hot-key rotation (0 outside windows).
    hot_shift: u32,
    /// Active churn-burst lifespan factor (1.0 outside windows).
    lifespan_mult: f64,
    /// Smooth-weighted-round-robin accumulators, one per class.
    wrr_current: Vec<f64>,
    /// Total class weight (cached for the WRR decrement).
    wrr_total: f64,
    /// Cluster sets resolved at each split window's start, released
    /// verbatim at the window end even under churn (indexed by phase).
    split_resolved: Vec<Vec<ClusterId>>,
}

impl ScenarioState {
    /// Builds the state for a plan. An empty plan produces an inert
    /// state: no draws, identity transforms only.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid.
    #[allow(
        clippy::disallowed_methods,
        reason = "R1b seed root: the scenario stream comes from scenario_seed"
    )]
    pub fn new(plan: &ScenarioPlan, scenario_seed: u64) -> ScenarioState {
        plan.validate().expect("invalid scenario plan");
        let n = plan.phases.len();
        ScenarioState {
            phases: plan.phases.clone(),
            classes: plan.capacity_classes.clone(),
            rng: SpRng::seed_from_u64(scenario_seed ^ 0x5CE4_A210_5EED),
            query_mult: 1.0,
            phase_active: vec![false; n],
            rate_mult: 1.0,
            hot_shift: 0,
            lifespan_mult: 1.0,
            wrr_current: vec![0.0; plan.capacity_classes.len()],
            wrr_total: plan.capacity_classes.iter().map(|c| c.weight).sum(),
            split_resolved: vec![Vec::new(); n],
        }
    }

    /// Whether the plan modifies anything at all.
    pub fn is_active(&self) -> bool {
        !self.phases.is_empty() || !self.classes.is_empty()
    }

    /// The phase schedule: `(index, time, start)` triples to seed into
    /// the event queue at bootstrap, in declaration order — the same
    /// shape as [`FaultState::schedule`](crate::faults::FaultState::schedule).
    pub fn schedule(&self) -> Vec<(u32, f64, bool)> {
        let mut out = Vec::with_capacity(self.phases.len() * 2);
        for (i, phase) in self.phases.iter().enumerate() {
            out.push((i as u32, phase.from_secs, true));
            out.push((i as u32, phase.until_secs, false));
        }
        out
    }

    /// Admits one peer: assigns its capacity class (draw-free weighted
    /// round-robin over the join counter) and applies the class factors
    /// plus any active churn-burst factor to the sampled file count and
    /// lifespan. With no classes and no active burst this is the
    /// identity.
    pub fn admit_peer(&mut self, files: u32, lifespan_secs: f64) -> (u32, f64) {
        let mut files_mult = 1.0;
        let mut lifespan_mult = self.lifespan_mult;
        if !self.classes.is_empty() {
            let k = self.next_class();
            files_mult = self.classes[k].files_mult;
            lifespan_mult *= self.classes[k].lifespan_mult;
        }
        let files = if files_mult == 1.0 {
            files
        } else {
            // Same rounding and cap as `PopulationModel::sample_files`.
            (f64::from(files) * files_mult).round().clamp(0.0, 1e6) as u32
        };
        (files, lifespan_secs * lifespan_mult)
    }

    /// Smooth weighted round-robin: every class gains its weight, the
    /// richest class (ties broken by lowest index) is picked and pays
    /// the total back. Deterministic and proportional — no RNG draw,
    /// so capacity assignment never perturbs either RNG stream.
    fn next_class(&mut self) -> usize {
        for (cur, class) in self.wrr_current.iter_mut().zip(&self.classes) {
            *cur += class.weight;
        }
        let mut best = 0;
        for i in 1..self.wrr_current.len() {
            if self.wrr_current[i] > self.wrr_current[best] {
                best = i;
            }
        }
        self.wrr_current[best] -= self.wrr_total;
        best
    }

    /// The factor applied to the per-peer query rate: the flash-crowd
    /// factor times the product of active phases' per-phase
    /// `query_rate_mult` knobs (all 1.0 outside windows, so
    /// `rate * mult` is bitwise inert).
    #[inline]
    pub fn query_rate_mult(&self) -> f64 {
        self.query_mult * self.rate_mult
    }

    /// Recomputes the per-phase rate product from scratch over the
    /// active set in declaration order: one canonical multiplication
    /// sequence per active set, so opening and closing overlapping
    /// windows can never accumulate float drift.
    fn recompute_rate_mult(&mut self) {
        let mut m = 1.0;
        for (active, phase) in self.phase_active.iter().zip(&self.phases) {
            if *active {
                m *= phase.rate_mult;
            }
        }
        self.rate_mult = m;
    }

    /// Rotates a sampled query class while a flash crowd is active
    /// (identity when `hot_shift` is 0): the popular Zipf head lands
    /// on a different key range, modelling a hot topic.
    #[inline]
    pub fn shift_query(&self, j: usize, num_classes: usize) -> usize {
        if self.hot_shift == 0 {
            j
        } else {
            (j + self.hot_shift as usize) % num_classes
        }
    }

    /// Applies the phase event `(index, start)`: updates the workload
    /// modifiers internally and returns what the engine must execute.
    pub fn on_phase_event(&mut self, index: u32, start: bool) -> PhaseAction {
        self.phase_active[index as usize] = start;
        self.recompute_rate_mult();
        match self.phases[index as usize].kind {
            PhaseKind::FlashCrowd {
                query_rate_mult,
                hot_shift,
            } => {
                if start {
                    self.query_mult = query_rate_mult;
                    self.hot_shift = hot_shift;
                } else {
                    self.query_mult = 1.0;
                    self.hot_shift = 0;
                }
                PhaseAction::None
            }
            PhaseKind::ChurnBurst { lifespan_mult } => {
                self.lifespan_mult = if start { lifespan_mult } else { 1.0 };
                PhaseAction::None
            }
            PhaseKind::MassLeave { fraction } => {
                if start {
                    PhaseAction::MassLeave { fraction }
                } else {
                    PhaseAction::None
                }
            }
            PhaseKind::Split { fraction } => {
                if start {
                    PhaseAction::SplitBegin { fraction }
                } else {
                    PhaseAction::SplitEnd
                }
            }
        }
    }

    /// Picks the mass-leave victims: indices into the engine's
    /// alive-peer list (passed as its length; both engines build the
    /// list in slot order, so indices resolve identically). Partial
    /// Fisher–Yates on the scenario stream, mirroring the fault
    /// layer's `crash_fraction`; an empty pick makes no draws.
    pub fn pick_mass_leave(&mut self, alive: usize, fraction: f64) -> Vec<usize> {
        let n = ((fraction * alive as f64).round() as usize).min(alive);
        if n == 0 {
            return Vec::new();
        }
        let mut pool: Vec<usize> = (0..alive).collect();
        for k in 0..n {
            let j = k + self.rng.index(pool.len() - k);
            pool.swap(k, j);
        }
        pool.truncate(n);
        pool
    }

    /// Resolves the isolated side of a split window from the alive
    /// clusters (same partial Fisher–Yates as
    /// [`pick_mass_leave`](ScenarioState::pick_mass_leave)).
    pub fn pick_split(&mut self, alive: &[ClusterId], fraction: f64) -> Vec<ClusterId> {
        let n = ((fraction * alive.len() as f64).round() as usize).min(alive.len());
        if n == 0 {
            return Vec::new();
        }
        let mut pool: Vec<ClusterId> = alive.to_vec();
        for k in 0..n {
            let j = k + self.rng.index(pool.len() - k);
            pool.swap(k, j);
        }
        pool.truncate(n);
        pool
    }

    /// Stores the resolved cluster set of an open split window so the
    /// window end releases exactly what it blocked, even under churn.
    pub fn store_split(&mut self, index: u32, resolved: Vec<ClusterId>) {
        self.split_resolved[index as usize] = resolved;
    }

    /// Takes the stored cluster set of a closing split window.
    pub fn take_split(&mut self, index: u32) -> Vec<ClusterId> {
        std::mem::take(&mut self.split_resolved[index as usize])
    }

    /// Writes the *mutable* scenario state into a snapshot payload.
    /// The plan is not written — the caller embeds it (as canonical
    /// JSON) and rebuilds via [`ScenarioState::new`] before calling
    /// [`ScenarioState::unsnap_state`]; `phases`/`classes`/`wrr_total`
    /// are plan-derived and need not travel.
    pub(crate) fn snap_state(&self, w: &mut SnapWriter) {
        for &word in &self.rng.state() {
            w.u64(word);
        }
        w.f64(self.query_mult);
        w.len(self.phase_active.len());
        for &a in &self.phase_active {
            w.bool(a);
        }
        w.u32(self.hot_shift);
        w.f64(self.lifespan_mult);
        w.len(self.wrr_current.len());
        for &acc in &self.wrr_current {
            w.f64(acc);
        }
        w.len(self.split_resolved.len());
        for set in &self.split_resolved {
            w.len(set.len());
            for &c in set {
                w.u32(c);
            }
        }
    }

    /// Restores the mutable state written by
    /// [`ScenarioState::snap_state`] into a freshly built state for the
    /// same plan.
    #[allow(
        clippy::disallowed_methods,
        reason = "R1b seed root: a checkpoint restores the scenario RNG position"
    )]
    pub(crate) fn unsnap_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.u64("scenario rng word")?;
        }
        self.rng = SpRng::from_state(s);
        self.query_mult = r.f64("scenario query_mult")?;
        let n = r.len("scenario phase_active len")?;
        if n != self.phase_active.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {n} phase-active flags but the plan has {}",
                self.phase_active.len()
            )));
        }
        for i in 0..n {
            self.phase_active[i] = r.bool("scenario phase_active")?;
        }
        self.recompute_rate_mult();
        self.hot_shift = r.u32("scenario hot_shift")?;
        self.lifespan_mult = r.f64("scenario lifespan_mult")?;
        let n = r.len("scenario wrr len")?;
        if n != self.wrr_current.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {n} WRR accumulators but the plan has {}",
                self.wrr_current.len()
            )));
        }
        for acc in &mut self.wrr_current {
            *acc = r.f64("scenario wrr accumulator")?;
        }
        let n = r.len("scenario split sets len")?;
        if n != self.split_resolved.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {n} split sets but the plan has {}",
                self.split_resolved.len()
            )));
        }
        for set in &mut self.split_resolved {
            let m = r.len("scenario split set len")?;
            set.clear();
            set.reserve(m);
            for _ in 0..m {
                set.push(r.u32("scenario split cluster")?);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_model::scenario::{CapacityClass, PhaseKind, PhaseSpec};

    #[test]
    fn inactive_state_is_draw_free_and_identity() {
        let mut s = ScenarioState::new(&ScenarioPlan::default(), 0);
        assert!(!s.is_active());
        assert!(s.schedule().is_empty());
        assert_eq!(s.query_rate_mult(), 1.0);
        assert_eq!(s.shift_query(17, 1024), 17);
        let lifespan = 1_234.567_890_123;
        let (files, life) = s.admit_peer(250, lifespan);
        assert_eq!(files, 250);
        assert_eq!(life.to_bits(), lifespan.to_bits(), "must be bitwise inert");
    }

    #[test]
    fn flash_crowd_toggles_and_resets() {
        let plan = ScenarioPlan {
            phases: vec![PhaseSpec {
                rate_mult: 1.0,
                from_secs: 10.0,
                until_secs: 20.0,
                kind: PhaseKind::FlashCrowd {
                    query_rate_mult: 4.0,
                    hot_shift: 100,
                },
            }],
            ..Default::default()
        };
        let mut s = ScenarioState::new(&plan, 1);
        assert_eq!(s.schedule(), vec![(0, 10.0, true), (0, 20.0, false)]);
        assert_eq!(s.on_phase_event(0, true), PhaseAction::None);
        assert_eq!(s.query_rate_mult(), 4.0);
        assert_eq!(s.shift_query(1000, 1024), 76, "(1000 + 100) % 1024");
        assert_eq!(s.on_phase_event(0, false), PhaseAction::None);
        assert_eq!(s.query_rate_mult(), 1.0);
        assert_eq!(s.shift_query(1000, 1024), 1000);
    }

    #[test]
    fn per_phase_rate_mult_composes_and_resets() {
        let plan = ScenarioPlan {
            phases: vec![
                PhaseSpec {
                    rate_mult: 10.0,
                    from_secs: 10.0,
                    until_secs: 40.0,
                    kind: PhaseKind::ChurnBurst { lifespan_mult: 0.5 },
                },
                PhaseSpec {
                    rate_mult: 2.0,
                    from_secs: 20.0,
                    until_secs: 30.0,
                    kind: PhaseKind::Split { fraction: 0.25 },
                },
            ],
            ..Default::default()
        };
        let mut s = ScenarioState::new(&plan, 1);
        assert_eq!(s.query_rate_mult(), 1.0);
        s.on_phase_event(0, true);
        assert_eq!(s.query_rate_mult(), 10.0);
        s.on_phase_event(1, true);
        assert_eq!(s.query_rate_mult(), 20.0, "concurrent phases multiply");
        s.on_phase_event(1, false);
        assert_eq!(s.query_rate_mult(), 10.0);
        s.on_phase_event(0, false);
        assert_eq!(s.query_rate_mult(), 1.0);
    }

    #[test]
    fn churn_burst_scales_admitted_lifespans() {
        let plan = ScenarioPlan {
            phases: vec![PhaseSpec {
                rate_mult: 1.0,
                from_secs: 0.0,
                until_secs: 100.0,
                kind: PhaseKind::ChurnBurst {
                    lifespan_mult: 0.25,
                },
            }],
            ..Default::default()
        };
        let mut s = ScenarioState::new(&plan, 1);
        assert_eq!(s.admit_peer(10, 400.0), (10, 400.0));
        s.on_phase_event(0, true);
        assert_eq!(s.admit_peer(10, 400.0), (10, 100.0));
        s.on_phase_event(0, false);
        assert_eq!(s.admit_peer(10, 400.0), (10, 400.0));
    }

    #[test]
    fn capacity_classes_assign_by_weight_without_draws() {
        let plan = ScenarioPlan {
            capacity_classes: vec![
                CapacityClass {
                    weight: 3.0,
                    files_mult: 0.0625, // power of two: exact scaling
                    lifespan_mult: 1.0,
                },
                CapacityClass {
                    weight: 1.0,
                    files_mult: 4.0,
                    lifespan_mult: 2.0,
                },
            ],
            ..Default::default()
        };
        let mut a = ScenarioState::new(&plan, 7);
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            let (files, _) = a.admit_peer(64, 100.0);
            match files {
                4 => counts[0] += 1,   // 64 * 0.0625
                256 => counts[1] += 1, // 64 * 4
                other => panic!("unexpected file count {other}"),
            }
        }
        assert_eq!(counts, [300, 100], "3:1 weights over 400 joins");
        // Same plan, different seed: assignment is identical because
        // class selection makes no draws.
        let mut b = ScenarioState::new(&plan, 999);
        for _ in 0..400 {
            b.admit_peer(64, 100.0);
        }
        for _ in 0..10 {
            assert_eq!(a.admit_peer(64, 100.0), b.admit_peer(64, 100.0));
        }
    }

    #[test]
    fn mass_leave_picks_are_seeded_distinct_and_sized() {
        let plan = ScenarioPlan {
            phases: vec![PhaseSpec {
                rate_mult: 1.0,
                from_secs: 5.0,
                until_secs: 6.0,
                kind: PhaseKind::MassLeave { fraction: 0.5 },
            }],
            ..Default::default()
        };
        let pick = |seed: u64| {
            let mut s = ScenarioState::new(&plan, seed);
            assert_eq!(
                s.on_phase_event(0, true),
                PhaseAction::MassLeave { fraction: 0.5 }
            );
            s.pick_mass_leave(100, 0.5)
        };
        let a = pick(1);
        assert_eq!(a.len(), 50);
        let unique: std::collections::BTreeSet<usize> = a.iter().copied().collect();
        assert_eq!(unique.len(), 50, "victims must be distinct");
        assert_eq!(a, pick(1));
        assert_ne!(a, pick(2), "scenario seed must matter");
        let mut s = ScenarioState::new(&plan, 1);
        assert!(s.pick_mass_leave(100, 0.0).is_empty());
        assert_eq!(s.pick_mass_leave(3, 1.0).len(), 3);
    }

    #[test]
    fn split_windows_store_and_release_their_resolution() {
        let plan = ScenarioPlan {
            phases: vec![PhaseSpec {
                rate_mult: 1.0,
                from_secs: 5.0,
                until_secs: 50.0,
                kind: PhaseKind::Split { fraction: 0.4 },
            }],
            ..Default::default()
        };
        let mut s = ScenarioState::new(&plan, 3);
        assert_eq!(
            s.on_phase_event(0, true),
            PhaseAction::SplitBegin { fraction: 0.4 }
        );
        let alive: Vec<ClusterId> = (0..10).collect();
        let resolved = s.pick_split(&alive, 0.4);
        assert_eq!(resolved.len(), 4);
        s.store_split(0, resolved.clone());
        assert_eq!(s.on_phase_event(0, false), PhaseAction::SplitEnd);
        assert_eq!(s.take_split(0), resolved);
        assert!(s.take_split(0).is_empty(), "taken sets are cleared");
    }
}
