//! # bcast-platform — heterogeneous platform model and generators
//!
//! The target architecture of the paper is a directed platform graph
//! `P = (V, E)` whose links carry *affine* communication costs (Section 2 of
//! the paper): sending a message of size `L` over `e_{u,v}` occupies
//!
//! * the link for `T_{u,v}(L) = α_{u,v} + L·β_{u,v}`,
//! * the sender for `send_{u,v}(L) = s_{u,v} + L·s'_{u,v} ≤ T_{u,v}(L)`,
//! * the receiver for `recv_{u,v}(L) = r_{u,v} + L·r'_{u,v} ≤ T_{u,v}(L)`.
//!
//! Two port models restrict concurrency ([`CommModel`]):
//!
//! * **bidirectional one-port** — a processor sends to at most one neighbour
//!   and receives from at most one neighbour at a time; sender and receiver
//!   are blocked for the full `T_{u,v}(L)`;
//! * **multi-port** — a sender may overlap link occupations of different
//!   outgoing messages, but the per-message sender overheads `send_u`
//!   serialise (Bar-Noy et al. model, Equation (1) of the paper).
//!
//! [`CommModel::send_hold`] and [`CommModel::port_period`] state what each
//! model means for a transfer and for a node's ports, for every layer.
//!
//! The crate also provides the two platform families of the evaluation
//! section: [`generators::random`] (paper Table 2) and
//! [`generators::tiers`], a re-implementation of a Tiers-style hierarchical
//! Internet topology (WAN / MAN / LAN).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod drift;
pub mod generators;
pub mod model;
pub mod platform;

pub use cost::LinkCost;
pub use drift::{DriftConfig, DriftEvent, DriftStep, DriftTrace};
pub use model::{CommModel, MessageSpec};
pub use platform::{Platform, PlatformBuilder, Processor};

pub use bcast_net::{EdgeId, NodeId};
