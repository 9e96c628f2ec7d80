//! # sp-stats
//!
//! Deterministic statistics substrate for the super-peer network
//! reproduction of Yang & Garcia-Molina, *Designing a Super-Peer
//! Network* (ICDE 2003).
//!
//! The paper's evaluation methodology (Section 4.1) is Monte-Carlo
//! mean-value analysis: network instances are generated from stochastic
//! configuration parameters (cluster sizes are `N(c, 0.2c)`, file counts
//! and lifespans follow heavy-tailed measurement distributions, topology
//! outdegrees follow a power law), analyzed, and averaged over repeated
//! trials with 95% confidence intervals. This crate provides every
//! statistical primitive that methodology needs:
//!
//! * [`rng`] — reproducible, splittable random number generation so every
//!   experiment in the repository is deterministic given a seed.
//! * [`dist`] — the distributions the paper draws from: normal
//!   (cluster sizes), log-normal (file counts, session lifespans), Zipf
//!   (query popularity `g(j)` of Appendix B), bounded Pareto
//!   (heavy-tailed alternatives), and Poisson (result counts).
//! * [`summary`] — streaming Welford moments and Student-t 95%
//!   confidence intervals (Step 4 of the paper's analysis pipeline).
//! * [`histogram`] — per-key grouped statistics (Figures 7 and 8 plot
//!   mean ± one standard deviation of load/results *grouped by
//!   outdegree*).
//! * [`percentile`] — quantiles and load-rank curves (Figure 12 plots
//!   every node's load ranked in decreasing order).
//!
//! All floating-point work is `f64`. Nothing here allocates on the
//! sampling hot path beyond what the caller requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// S2 and P1 of the static determinism contract (DESIGN.md §13).
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod dist;
pub mod histogram;
pub mod percentile;
pub mod rng;
pub mod summary;

pub use dist::{BoundedPareto, LogNormal, Normal, Poisson, TruncatedDiscreteNormal, Zipf};
pub use histogram::GroupedStats;
pub use percentile::{quantile, rank_curve};
pub use rng::SpRng;
pub use summary::{ConfidenceInterval, OnlineStats};
