//! # bcast-net — directed-graph substrate
//!
//! A small, self-contained graph library tailored to the needs of the
//! broadcast-trees reproduction:
//!
//! * [`DiGraph`] — a directed multigraph with typed node/edge indices,
//!   node and edge payloads, and O(1) access to in/out adjacency.
//! * [`traversal`] — breadth-first search and reachability over a set of
//!   live edges.
//! * [`shortest_path`] — Dijkstra shortest paths.
//! * [`maxflow`] — Dinic maximum flow and minimum s–t cuts on `f64`
//!   capacities over one flat residual network,
//!   [`maxflow::MaxFlowSolver`], the crate's only max-flow entry point:
//!   built once per topology, it walks only the live arcs of each capacity
//!   vector, stops each level search at the sink, and can start from a
//!   prior flow. The separation oracle of the cut-generation optimal
//!   broadcast-throughput solver warm-starts each destination this way;
//!   the schedule synthesizer builds one solver per packing or rounding
//!   call and solves it cold for each check.
//! * [`spanning`] — spanning-arborescence utilities: validation, parent
//!   maps, conversion between edge lists and rooted trees.
//!
//! The crate has no dependency other than `serde` (for persisting graphs)
//! and is entirely deterministic: iteration orders are index orders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod maxflow;
pub mod shortest_path;
pub mod spanning;
pub mod traversal;

pub use graph::{DiGraph, EdgeId, EdgeRef, NodeId};
pub use spanning::{Arborescence, SpanningError};
