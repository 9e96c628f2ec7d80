//! # sp-design
//!
//! Design toolkit for super-peer networks, implementing Sections 5.1,
//! 5.2, and 5.3 of Yang & Garcia-Molina, *Designing a Super-Peer
//! Network* (ICDE 2003):
//!
//! * [`epl`] — expected-path-length prediction: the measured Figure 9
//!   table and the Appendix F `log_d(reach)` analytic bound, plus
//!   TTL selection per rule #4 ("minimize TTL", rounding *up* from the
//!   EPL because "setting TTL too close to the EPL will cause the
//!   actual reach to be lower than the desired value");
//! * [`procedure`] — the global design procedure of Figure 10: given a
//!   desired reach and per-super-peer load/connection limits, search
//!   TTL × cluster-size × outdegree for an efficient configuration,
//!   validating each candidate with the `sp-model` analysis engine;
//! * [`local_rules`] — the local decision guidelines of Section 5.3
//!   (always accept clients; split/partner when overloaded; coalesce
//!   when idle; grow outdegree with spare resources; shrink TTL when
//!   distant hops stop contributing), packaged as a pure advisor that
//!   the `sp-sim` event simulator drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// S2 and P1 of the static determinism contract (DESIGN.md §13).
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod epl;
pub mod local_rules;
pub mod procedure;

pub use epl::{recommended_ttl, EplPredictor};
pub use local_rules::{advise, LocalAction, LocalView};
pub use procedure::{design, DesignConstraints, DesignGoals, DesignOutcome, DesignStep};
