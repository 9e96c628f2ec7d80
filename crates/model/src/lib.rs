//! # sp-model
//!
//! The analytical core of the reproduction of Yang & Garcia-Molina,
//! *Designing a Super-Peer Network* (ICDE 2003): the paper's cost
//! model, query model, network-instance generator, and mean-value load
//! analysis engine.
//!
//! The paper's methodology (Section 4.1) has four steps, and this crate
//! implements each as a module:
//!
//! 1. **Generate an instance** — [`config`] holds the Table 1
//!    configuration parameters; [`population`] assigns per-peer file
//!    counts and session lifespans; [`instance`] builds the clusters,
//!    (virtual) super-peers, and overlay topology.
//! 2. **Calculate expected cost of actions** — [`costs`] is the Table 2
//!    atomic-action cost model (bandwidth in bytes, processing in units
//!    of 7200 cycles) plus the Appendix A packet-multiplex overhead;
//!    [`query_model`] is the Appendix B query model giving
//!    `E[N_T | I]` (expected results per super-peer) and `E[K_T | I]`
//!    (expected responding clients).
//! 3. **Calculate load from actions** — [`analysis`] floods a query
//!    from every cluster, charges query/join/update costs to every
//!    involved peer along three resources (incoming bandwidth, outgoing
//!    bandwidth, processing), and evaluates Equations (1)–(4):
//!    individual load, per-set load, aggregate load, and results per
//!    query. [`load`] holds the three-resource accumulator types.
//! 4. **Repeated trials** — [`trials`] runs many instances of a
//!    configuration (in parallel) and reports means with 95%
//!    confidence intervals.
//!
//! # Quick example
//!
//! ```
//! use sp_model::config::{Config, GraphType};
//! use sp_model::trials::{run_trials, TrialOptions};
//!
//! let config = Config {
//!     graph_size: 400,
//!     cluster_size: 20,
//!     graph_type: GraphType::PowerLaw,
//!     ..Config::default()
//! };
//! let summary = run_trials(&config, &TrialOptions { trials: 3, seed: 7, ..Default::default() });
//! // Super-peers carry orders of magnitude more load than clients.
//! assert!(summary.sp_total_bw.mean > 10.0 * summary.client_total_bw.mean);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// S2 and P1 of the static determinism contract (DESIGN.md §13).
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod analysis;
pub mod config;
pub mod costs;
pub mod faults;
pub mod instance;
pub mod load;
pub mod overload;
pub mod population;
pub mod query_model;
pub mod repair;
pub mod scenario;
pub mod snapshot;
pub mod trials;

pub use analysis::{analyze, AnalysisOptions, AnalysisResult, Engine, InstanceMetrics};
pub use config::{Config, GraphType};
pub use faults::{FaultPlan, FaultPlanError, FaultSpec, RetryPolicy};
pub use instance::{NetworkInstance, Role};
pub use load::Load;
pub use population::PopulationModel;
pub use query_model::QueryModel;
pub use repair::RepairPolicy;
pub use scenario::{CapacityClass, PhaseKind, PhaseSpec, ScenarioError, ScenarioPlan};
pub use snapshot::{SnapReader, SnapWriter, SnapshotError};
pub use trials::{resolve_thread_budget, run_trials, TrialOptions, TrialSummary};
