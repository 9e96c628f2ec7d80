//! # sp-sim
//!
//! Discrete-event simulator for super-peer networks, complementing the
//! mean-value analysis of `sp-model` with the *dynamic* phenomena the
//! paper argues about but cannot capture analytically:
//!
//! * **Churn and failover** (Section 3.2): peers join and leave with
//!   heavy-tailed lifespans; when a lone super-peer dies its clients
//!   are orphaned until they find a new cluster, while a k-redundant
//!   virtual super-peer keeps serving as long as one partner survives
//!   and recruits replacements from its clients. The
//!   [`scenario::reliability`] experiment quantifies the availability
//!   gap the paper asserts ("the probability that all partners fail
//!   before any failed partner can be replaced is much lower").
//! * **Steady-state validation**: [`scenario::steady_state`] measures
//!   per-role loads from actual simulated message traffic (same Table 2
//!   cost model) and is compared against the analytic engine in the
//!   integration tests.
//! * **Local adaptation** (Section 5.3): [`scenario::adaptive`] gives
//!   every super-peer a load limit and lets it follow the
//!   `sp-design::local_rules` advisor — accept clients, promote
//!   partners, split, coalesce, grow outdegree, shrink TTL — and
//!   tracks whether the network converges to an efficient,
//!   non-overloaded configuration.
//!
//! Each simulation run is deterministic given a seed and runs on one
//! thread; independent scenario *trials* shard across threads through
//! the same thread-budget cascade as `sp_model::trials`, with per-trial
//! RNG streams keeping the reduced results bitwise identical at any
//! thread count (see [`scenario::run_sim_trials`]).
//!
//! Two churn engines share one core, [`engine::ChurnEngine`], which
//! writes every lifecycle handler once and is generic over the five
//! [`engine::Mechanics`] in which the engines differ: the event queue
//! and timers, member-list copies, partner-connection counts, the
//! query tail after overload admission, and bookkeeping.
//! [`engine::Simulation`] uses the fast mechanics (indexed event queue
//! with O(log n) churn cancellation, pooled scratch buffers, cached
//! connection counts, fused flood and charge);
//! [`reference::ReferenceSimulation`] keeps the plain ones as the
//! oracle and performance baseline for those optimizations. They
//! produce bitwise-identical [`engine::RawMetrics`] on every seed;
//! `tests/sim_determinism.rs` enforces it and also pins recorded
//! hashes of a few runs, which guard the shared handlers. A third
//! engine, [`shard::ShardedSimulation`], trades per-peer lifecycle
//! fidelity for scale: shared-nothing per-shard reactors exchanging
//! messages at tick barriers, bitwise identical at any shard count,
//! sized for million-peer overlays (see the [`shard`] module docs and
//! DESIGN.md §15). The [`metrics`] module adds engine observability:
//! event-rate counters, queue high-water marks, optional
//! per-event-type wall-time histograms, and a structured run manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// S2 and P1 of the static determinism contract (DESIGN.md §13).
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod campaign;
pub(crate) mod checkpoint;
pub mod counters;
pub mod engine;
pub mod events;
pub mod faults;
pub mod metrics;
pub mod network;
pub mod overload;
pub mod phases;
pub mod reference;
pub mod repair;
pub mod scenario;
pub mod shard;

pub use campaign::{
    run_campaign, run_campaign_with, CampaignOptions, CampaignReport, CampaignResume,
    CompletedScenario, Divergence, Quarantine, ScenarioOutcome, CAMPAIGN_SCHEMA_VERSION,
};
pub use engine::{ForwardPolicy, SimOptions, Simulation};
pub use faults::{FaultMetrics, FaultState, QueryOutcome, ReconnectHistogram, Submission};
pub use metrics::{EventKind, RunManifest, SimMetrics};
pub use overload::{Admission, OvPoint, OverloadMetrics, OverloadState};
pub use phases::{PhaseAction, ScenarioState};
pub use reference::ReferenceSimulation;
pub use repair::{ReachPoint, RepairMetrics};
pub use scenario::{
    adaptive, crash_storm, crash_storm_trials, reliability, reliability_trials, routing,
    run_sim_trials, steady_state, steady_trials, AdaptOptions, SimReport, SimTrialOptions,
};
pub use shard::{ScaleDiag, ScaleMetrics, ScaleOptions, ShardFailure, ShardedSimulation};
