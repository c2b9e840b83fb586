//! # bcast-core — broadcast trees for heterogeneous platforms
//!
//! This crate implements the contribution of *"Broadcast Trees for
//! Heterogeneous Platforms"* (Beaumont, Marchal, Robert, 2004/2005):
//! heuristics for the **Single Tree, Pipelined** (STP) broadcast problem and
//! the **Multiple Tree, Pipelined** (MTP) optimal-throughput bound used to
//! assess them.
//!
//! ## Problem
//!
//! A large message is cut into slices of size `L` and pipelined from a
//! source processor along a spanning structure of the platform graph. Under
//! the bidirectional one-port model, a node relays each slice to its
//! children one after the other, so the steady-state period of the pipeline
//! is the largest *weighted out-degree* of any node, and the throughput is
//! its inverse. Finding the spanning tree maximising the throughput is
//! NP-hard; the paper proposes polynomial heuristics and compares them to
//! the MTP optimum, computable in polynomial time from a linear program.
//!
//! ## Map of the crate
//!
//! * [`tree`] — [`BroadcastStructure`]: a validated spanning structure
//!   (usually a spanning arborescence) plus the source.
//! * [`throughput`] — steady-state periods and throughputs under the
//!   one-port and multi-port models; STA makespan of an atomic broadcast.
//! * [`heuristics`] — the paper's heuristics (Algorithms 1–7) behind the
//!   single entry point [`heuristics::build_structure`].
//! * [`optimal`] — the MTP optimal throughput: the direct LP of paper
//!   Section 4.1 and an equivalent, much faster cut-generation solver.
//! * [`evaluation`] — relative-performance evaluation harness used by the
//!   figures and tables of the evaluation section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod evaluation;
pub mod heuristics;
pub mod optimal;
pub mod throughput;
pub mod tree;

pub use error::CoreError;
pub use evaluation::{evaluate_heuristics, evaluate_heuristics_with_optimal, EvaluationRow};
pub use heuristics::{build_structure, HeuristicKind};
pub use optimal::{
    optimal_throughput, CutGenOptions, CutGenResult, CutGenSession, CutSnapshot, NodeCutSet,
    OptimalMethod, OptimalThroughput, ScreenSnapshot, SessionSnapshot,
};
pub use throughput::{sta_makespan, steady_state_period, steady_state_throughput};
pub use tree::BroadcastStructure;

pub use bcast_platform::{CommModel, MessageSpec, Platform};
