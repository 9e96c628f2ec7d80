//! # sp-core — designing super-peer networks
//!
//! A complete Rust implementation of the analysis framework from
//! Beverly Yang & Hector Garcia-Molina, *Designing a Super-Peer
//! Network* (ICDE 2003): topology generation, the Table 2 cost model,
//! the Appendix B query model, mean-value load analysis with 95%
//! confidence intervals, the Figure 10 global design procedure, the
//! Section 5.3 local decision rules, and a discrete-event simulator
//! for churn, redundancy failover, and adaptation.
//!
//! This crate is the **facade**: it re-exports the subsystem crates
//! (`sp-stats`, `sp-graph`, `sp-model`, `sp-design`, `sp-sim`),
//! provides the ergonomic [`NetworkBuilder`] entry point, and packages
//! every table and figure of the paper's evaluation as a runnable
//! experiment under [`experiments`].
//!
//! # Quickstart
//!
//! ```
//! use sp_core::NetworkBuilder;
//!
//! // A 1000-user network, 10 peers per cluster, Gnutella-like overlay.
//! let summary = NetworkBuilder::new()
//!     .users(1000)
//!     .cluster_size(10)
//!     .avg_outdegree(3.1)
//!     .ttl(4)
//!     .evaluate(3, 42);
//! println!(
//!     "super-peer load: {} bps up, {} Hz",
//!     summary.sp_out_bw.mean, summary.sp_proc.mean
//! );
//! assert!(summary.sp_out_bw.mean > summary.client_out_bw.mean);
//! ```
//!
//! # Crate map
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | statistics | [`stats`] | seeded RNG, distributions, CIs |
//! | topology | [`graph`] | CSR graphs, PLOD, flooding |
//! | analysis | [`model`] | cost model, query model, load engine |
//! | design | [`design`] | Figure 10 procedure, local rules, EPL |
//! | dynamics | [`sim`] | event simulator, churn, failover |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// S2 and P1 of the static determinism contract (DESIGN.md §13).
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod builder;
pub mod experiments;
pub mod report;

pub use builder::NetworkBuilder;
pub use report::Table;

/// Re-export of the statistics substrate.
pub use sp_stats as stats;

/// Re-export of the topology substrate.
pub use sp_graph as graph;

/// Re-export of the analysis engine.
pub use sp_model as model;

/// Re-export of the design toolkit.
pub use sp_design as design;

/// Re-export of the event simulator.
pub use sp_sim as sim;

pub use sp_design::{DesignConstraints, DesignGoals, DesignOutcome};
pub use sp_model::{Config, GraphType, Load, TrialOptions, TrialSummary};
