//! # sp-graph
//!
//! Overlay-topology substrate for the super-peer network reproduction
//! of Yang & Garcia-Molina, *Designing a Super-Peer Network*
//! (ICDE 2003).
//!
//! Step 1 of the paper's evaluation methodology generates "a topology
//! of *n* nodes based on the type of graph specified", where each node
//! of the graph becomes one cluster's (virtual) super-peer. Two graph
//! families are studied:
//!
//! * **strongly connected** — every super-peer neighbors every other
//!   (a best case for result quality and bandwidth at TTL = 1);
//! * **power-law** — outdegree frequency `f_d ∝ d^{-τ}`, generated with
//!   the **PLOD** algorithm of Palmer & Steffan (GLOBECOM 2000), which
//!   is what real Gnutella crawls look like (measured average outdegree
//!   3.1 in June 2001).
//!
//! This crate provides:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) undirected
//!   simple graph, plus [`GraphBuilder`] for incremental construction;
//! * [`generate`] — graph generators: [`generate::complete`],
//!   [`generate::plod`] (power law), and baselines
//!   ([`generate::erdos_renyi`], [`generate::random_regular`],
//!   [`generate::ring`]) used by the topology-ablation benches;
//! * [`traverse`] — TTL-bounded BFS flooding ([`traverse::flood`])
//!   that reports depths, the BFS predecessor tree, and the per-node
//!   count of *redundant* query transmissions (copies that arrive over
//!   cycle edges and are dropped) — the quantity behind the paper's
//!   rule #4 ("minimize TTL") and the Appendix E caveat to rule #3 —
//!   plus [`traverse::FloodScratch`], the same flood into reusable
//!   buffers laid out by BFS position, which the O(reach) analysis
//!   engine floods into once per source without allocating;
//! * [`metrics`] — connected components, degree statistics, reach and
//!   expected-path-length measurement (Figure 9, Appendix F);
//! * [`partition`] — [`PartitionMonitor`], a weighted union-find with
//!   an O(1) epoch reset, rebuilt by the simulator at each observation
//!   to track super-peer graph fragmentation under crash faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// S2 and P1 of the static determinism contract (DESIGN.md §13).
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod detset;
pub mod generate;
pub mod graph;
pub mod metrics;
pub mod partition;
pub mod traverse;

pub use detset::PairSet;
pub use graph::{Graph, GraphBuilder, NodeId};
pub use partition::PartitionMonitor;
pub use traverse::{flood, FloodResult, FloodScratch};
