//! # broadcast-trees
//!
//! A Rust reproduction of *"Broadcast Trees for Heterogeneous Platforms"*
//! (Olivier Beaumont, Loris Marchal, Yves Robert — LIP RR-2004-46 /
//! IPDPS HCW 2005): heuristics for pipelined, single-tree broadcast on
//! heterogeneous platforms, together with the optimal multiple-tree
//! throughput bound used to assess them.
//!
//! This crate is a thin facade re-exporting the workspace members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`net`] (`bcast-net`) | directed-graph substrate: reachability, shortest paths, max-flow/min-cut, spanning-tree utilities |
//! | [`lp`] (`bcast-lp`) | sparse revised simplex LP solver (one-shot and warm-started incremental), with a dense tableau oracle for tests |
//! | [`platform`] (`bcast-platform`) | platform model (affine link costs, one-port / multi-port), generators (random, Tiers-like, Gaussian) and drift/churn traces |
//! | [`core`] (`bcast-core`) | the paper's heuristics, the MTP optimal throughput, the evaluation harness |
//! | [`sched`] (`bcast-sched`) | periodic steady-state schedule synthesis from the LP edge loads |
//! | [`sim`] (`bcast-sim`) | discrete-event simulator of pipelined broadcasts, including schedule replay |
//!
//! ## Quickstart
//!
//! ```
//! use broadcast_trees::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 1. Generate a random heterogeneous platform (paper Table 2 parameters).
//! let mut rng = StdRng::seed_from_u64(42);
//! let platform = random_platform(&RandomPlatformConfig::paper(20, 0.1), &mut rng);
//! let source = NodeId(0);
//! let slice = 1.0e6; // 1 MB slices
//!
//! // 2. Build a broadcast tree with the paper's best heuristic.
//! let tree = build_structure(&platform, source, HeuristicKind::GrowTree,
//!                            CommModel::OnePort, slice).unwrap();
//!
//! // 3. Compare its throughput to the optimal multi-tree bound.
//! let tp = steady_state_throughput(&platform, &tree, CommModel::OnePort, slice);
//! let optimal = optimal_throughput(&platform, source, slice,
//!                                  OptimalMethod::CutGeneration).unwrap();
//! assert!(tp <= optimal.throughput * 1.000001);
//! assert!(tp / optimal.throughput > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bcast_core as core;
pub use bcast_lp as lp;
pub use bcast_net as net;
pub use bcast_platform as platform;
pub use bcast_sched as sched;
pub use bcast_sim as sim;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use bcast_core::evaluation::{evaluate_heuristics, mean_and_deviation, EvaluationRow};
    pub use bcast_core::heuristics::{build_structure, build_structure_with_loads, HeuristicKind};
    pub use bcast_core::optimal::{optimal_throughput, OptimalMethod, OptimalThroughput};
    pub use bcast_core::throughput::{
        pipelined_completion_time, sta_makespan, steady_state_bandwidth, steady_state_period,
        steady_state_throughput,
    };
    pub use bcast_core::{
        BroadcastStructure, CoreError, CutGenOptions, CutGenResult, CutGenSession, NodeCutSet,
    };
    pub use bcast_net::{EdgeId, NodeId};
    pub use bcast_platform::drift::ChurnRemap;
    pub use bcast_platform::drift::{DriftConfig, DriftEvent, DriftStep, DriftTrace};
    pub use bcast_platform::generators::gaussian_field::{
        gaussian_platform, GaussianPlatformConfig,
    };
    pub use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
    pub use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
    pub use bcast_platform::{CommModel, LinkCost, MessageSpec, Platform, PlatformBuilder};
    pub use bcast_sched::{
        resynthesize_schedule, resynthesize_schedule_churn, synthesize_schedule,
        synthesize_schedule_with_tree_fallback, PeriodicSchedule, RepairReport, SchedError,
        SynthesisConfig, MAX_SLICES_PER_PERIOD,
    };
    pub use bcast_sim::{simulate_broadcast, simulate_schedule, SimulationReport};
}
