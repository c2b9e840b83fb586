//! Optimal throughput of the Multiple-Tree-Pipelined (MTP) broadcast.
//!
//! The paper (Section 4.1) computes the best achievable steady-state
//! broadcast throughput — over *all* ways of splitting the message across
//! several simultaneous broadcast trees — as the optimum of the linear
//! program SSB(G) (equation (2)). The value serves as the absolute yardstick
//! for the single-tree heuristics, and the per-edge loads `n_{u,v}` of the
//! optimal solution drive the LP-based heuristics.
//!
//! Two interchangeable solvers are provided:
//!
//! * [`direct_lp`] — a verbatim transcription of LP (2); its size grows as
//!   `|E| · (p − 1)` variables, fine for small platforms and used to
//!   cross-validate the second solver;
//! * [`cut_gen`] — a Benders-style cut-generation reformulation: the LP is
//!   equivalent to maximising `TP` over port-feasible edge capacities
//!   `n_{u,v}` such that **every** source→destination cut has capacity at
//!   least `TP` (max-flow/min-cut). The master LP has only `|E| + 1`
//!   variables; violated cuts are found by max-flow computations and added
//!   lazily. This is the solver used by the experiment harness.

pub mod cut_gen;
pub mod direct_lp;

pub use cut_gen::{
    CutGenOptions, CutGenResult, CutGenSession, CutSnapshot, NodeCutSet, ScreenSnapshot,
    SessionSnapshot,
};

use crate::error::CoreError;
use bcast_lp::{Constraint, ConstraintOp, LpProblem, Sense, VarId};
use bcast_net::maxflow::MaxFlowSolver;
use bcast_net::{EdgeRef, NodeId};
use bcast_platform::Platform;
use serde::{Deserialize, Serialize};

/// Builds the variable layer of the edge LP: the throughput variable `TP`
/// (the objective) plus one load variable `n_e` per platform edge, and no
/// constraints yet. Shared by [`edge_lp_skeleton`] and the incremental
/// cut-generation session, which appends the port rows itself so it can
/// keep their handles for cross-step coefficient updates.
pub(crate) fn edge_lp_vars(edge_count: usize) -> (LpProblem, VarId, Vec<VarId>) {
    let mut lp = LpProblem::new(Sense::Maximize);
    let tp = lp.add_var("TP", 1.0);
    let n_vars: Vec<VarId> = (0..edge_count)
        .map(|e| lp.add_var(format!("n_{e}"), 0.0))
        .collect();
    (lp, tp, n_vars)
}

/// The one-port constraints `Σ n_e·T_e ≤ 1` of `platform`, one per
/// [`port_keys`] entry and in that order. The coefficients are the only
/// part of the master LP that depends on the link costs, which is what
/// makes a drifting platform an in-place coefficient update of these rows
/// rather than a new LP.
pub(crate) fn port_constraints(
    platform: &Platform,
    slice_size: f64,
    n_vars: &[VarId],
) -> Vec<Constraint> {
    let graph = platform.graph();
    let term = |e: EdgeRef<'_, _>| (n_vars[e.id.index()], platform.link_time(e.id, slice_size));
    port_keys(platform)
        .into_iter()
        .map(|key| Constraint {
            terms: if key.out {
                graph.out_edges(key.node).map(term).collect()
            } else {
                graph.in_edges(key.node).map(term).collect()
            },
            op: ConstraintOp::Le,
            rhs: 1.0,
        })
        .collect()
}

/// A port row's identity across node churn: the node it belongs to and the
/// port direction. The cut-generation session reconciles its live rows
/// against these keys when nodes join or leave.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct PortKey {
    pub node: NodeId,
    /// True for the output-port row, false for the input-port row.
    pub out: bool,
}

/// The ports of `platform` that carry a one-port row: per node in node
/// order, its output port and then its input port, each only when the
/// node has an edge in that direction. This is the order of the port
/// rows; it is part of the deterministic pivot sequence and must not
/// change casually.
pub(crate) fn port_keys(platform: &Platform) -> Vec<PortKey> {
    let graph = platform.graph();
    platform
        .nodes()
        .flat_map(|node| {
            let out = (graph.out_degree(node) > 0).then_some(PortKey { node, out: true });
            let inc = (graph.in_degree(node) > 0).then_some(PortKey { node, out: false });
            out.into_iter().chain(inc)
        })
        .collect()
}

/// Builds the LP skeleton shared by both optimal solvers: the throughput
/// variable `TP` (the objective), one load variable `n_e` per platform edge,
/// and the one-port constraints of [`port_constraints`].
///
/// The one-port rows subsume the per-edge occupation constraint
/// `n_e·T_e ≤ 1`; the direct LP re-adds it anyway to stay a verbatim
/// transcription of the paper's equation (2).
pub(crate) fn edge_lp_skeleton(
    platform: &Platform,
    slice_size: f64,
) -> (LpProblem, VarId, Vec<VarId>) {
    let (mut lp, tp, n_vars) = edge_lp_vars(platform.edge_count());
    for row in port_constraints(platform, slice_size, &n_vars) {
        lp.add_constraint(&row.terms, row.op, row.rhs);
    }
    (lp, tp, n_vars)
}

/// Which algorithm computes the MTP optimum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptimalMethod {
    /// The full linear program (2) of the paper, solved in one shot.
    DirectLp,
    /// Cut-generation over the equivalent capacity formulation (default).
    CutGeneration,
}

/// Result of the MTP optimal-throughput computation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OptimalThroughput {
    /// Optimal steady-state throughput `TP` (slices per time unit).
    pub throughput: f64,
    /// Optimal per-edge loads `n_{u,v}` (slices crossing each edge per time
    /// unit), indexed by platform edge.
    pub edge_load: Vec<f64>,
    /// Simplex pivots (direct LP) or master-LP solves (cut generation).
    pub iterations: usize,
    /// Number of cut constraints generated (0 for the direct LP).
    pub cuts: usize,
    /// Number of cuts purged from the master LP after staying non-binding
    /// for two consecutive master rounds (0 for the direct LP).
    pub purged_cuts: usize,
    /// Total simplex pivots across every LP solve of the computation: the
    /// single solve of the direct LP, or all master-round (re-)solves of the
    /// cut generation. This is the counter the warm-started dual simplex
    /// drives down; `table3`/`table_sched` report it and the differential
    /// tests assert the warm/cold ratio on it.
    pub simplex_iterations: usize,
}

impl OptimalThroughput {
    /// The throughput expressed as bytes per second for slices of
    /// `slice_size` bytes.
    pub fn bandwidth(&self, slice_size: f64) -> f64 {
        self.throughput * slice_size
    }

    /// The destination with the smallest maximum flow from `source` when
    /// the edge loads are the capacities, and that flow. The loads carry
    /// the throughput to every destination exactly when this flow is at
    /// least `TP`, which is the feasibility certificate the differential
    /// tests check. With no destination (a single node) the answer is
    /// `(source, f64::INFINITY)`.
    pub fn min_destination_flow(&self, platform: &Platform, source: NodeId) -> (NodeId, f64) {
        let mut solver = MaxFlowSolver::new(platform.graph());
        let mut min = (source, f64::INFINITY);
        for w in platform.nodes().filter(|&w| w != source) {
            let flow = solver.solve(source, w, |e| self.edge_load[e.index()]);
            if flow < min.1 {
                min = (w, flow);
            }
        }
        min
    }
}

/// Computes the optimal MTP throughput for a broadcast from `source` with
/// slices of `slice_size` bytes, under the bidirectional one-port model.
///
/// A single-processor platform has nothing to broadcast; its throughput is
/// reported as `f64::INFINITY` with empty loads.
pub fn optimal_throughput(
    platform: &Platform,
    source: NodeId,
    slice_size: f64,
    method: OptimalMethod,
) -> Result<OptimalThroughput, CoreError> {
    if platform.node_count() == 0 {
        return Err(CoreError::EmptyPlatform);
    }
    if platform.node_count() == 1 {
        return Ok(OptimalThroughput {
            throughput: f64::INFINITY,
            edge_load: vec![0.0; platform.edge_count()],
            iterations: 0,
            cuts: 0,
            purged_cuts: 0,
            simplex_iterations: 0,
        });
    }
    if !platform.is_broadcast_feasible(source) {
        return Err(CoreError::Unreachable { source });
    }
    match method {
        OptimalMethod::DirectLp => direct_lp::solve(platform, source, slice_size),
        OptimalMethod::CutGeneration => cut_gen::solve(platform, source, slice_size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
    use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
    use bcast_platform::LinkCost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "expected ≈ {b}, got {a}"
        );
    }

    /// Two nodes, one link of time `T = 2` per slice: the source can send a
    /// slice every 2 time units, so TP = 1/2.
    #[test]
    fn two_node_platform_throughput_is_link_rate() {
        let mut b = Platform::builder();
        let p = b.add_processors(2);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 2.0));
        let platform = b.build();
        for method in [OptimalMethod::DirectLp, OptimalMethod::CutGeneration] {
            let o = optimal_throughput(&platform, NodeId(0), 1.0, method).unwrap();
            assert_close(o.throughput, 0.5, 1e-6);
        }
    }

    /// Star of two leaves over unit links: the source's out-port constraint
    /// `n1·T + n2·T ≤ 1` with both destinations needing TP gives TP = 1/2.
    #[test]
    fn star_two_leaves_is_half() {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[0], p[2], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        for method in [OptimalMethod::DirectLp, OptimalMethod::CutGeneration] {
            let o = optimal_throughput(&platform, NodeId(0), 1.0, method).unwrap();
            assert_close(o.throughput, 0.5, 1e-6);
        }
    }

    /// Complete triangle over unit links: the source can send each slice to
    /// one child which forwards it to the other, alternating, so the optimum
    /// reaches 1 slice per time unit — strictly better than the best single
    /// tree (2/3... actually 1/2 for a star, 1 for a chain). TP = 1.
    #[test]
    fn triangle_reaches_full_rate() {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[0], p[2], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        for method in [OptimalMethod::DirectLp, OptimalMethod::CutGeneration] {
            let o = optimal_throughput(&platform, NodeId(0), 1.0, method).unwrap();
            assert_close(o.throughput, 1.0, 1e-6);
        }
    }

    /// The single-tree optimum on a chain equals the MTP optimum (there is
    /// only one spanning tree), sanity-checking absolute values.
    #[test]
    fn chain_throughput_is_bottleneck_rate() {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 4.0));
        let platform = b.build();
        for method in [OptimalMethod::DirectLp, OptimalMethod::CutGeneration] {
            let o = optimal_throughput(&platform, NodeId(0), 1.0, method).unwrap();
            assert_close(o.throughput, 0.25, 1e-6);
        }
    }

    #[test]
    fn methods_agree_on_small_random_platforms() {
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..4 {
            let platform = random_platform(&RandomPlatformConfig::paper(8, 0.2), &mut rng);
            let a = optimal_throughput(&platform, NodeId(0), 1.0e6, OptimalMethod::DirectLp)
                .unwrap_or_else(|e| panic!("direct LP failed on instance {i}: {e}"));
            let b = optimal_throughput(&platform, NodeId(0), 1.0e6, OptimalMethod::CutGeneration)
                .unwrap();
            assert_close(a.throughput, b.throughput, 1e-4);
        }
    }

    #[test]
    fn loads_satisfy_port_constraints() {
        let mut rng = StdRng::seed_from_u64(6);
        let platform = random_platform(&RandomPlatformConfig::paper(15, 0.12), &mut rng);
        let o =
            optimal_throughput(&platform, NodeId(0), 1.0e6, OptimalMethod::CutGeneration).unwrap();
        assert_eq!(o.edge_load.len(), platform.edge_count());
        for u in platform.nodes() {
            let out: f64 = platform
                .graph()
                .out_edges(u)
                .map(|e| o.edge_load[e.id.index()] * e.payload.link_time(1.0e6))
                .sum();
            let inc: f64 = platform
                .graph()
                .in_edges(u)
                .map(|e| o.edge_load[e.id.index()] * e.payload.link_time(1.0e6))
                .sum();
            assert!(out <= 1.0 + 1e-6, "out-port violated at {u}: {out}");
            assert!(inc <= 1.0 + 1e-6, "in-port violated at {u}: {inc}");
        }
        assert!(o.throughput > 0.0);
    }

    #[test]
    fn single_node_platform_has_infinite_throughput() {
        let mut b = Platform::builder();
        b.add_processor("only");
        let platform = b.build();
        let o =
            optimal_throughput(&platform, NodeId(0), 1.0, OptimalMethod::CutGeneration).unwrap();
        assert!(o.throughput.is_infinite());
    }

    #[test]
    fn unreachable_platform_is_an_error() {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_link(p[0], p[1], LinkCost::default());
        let platform = b.build();
        for method in [OptimalMethod::DirectLp, OptimalMethod::CutGeneration] {
            let err = optimal_throughput(&platform, NodeId(0), 1.0, method).unwrap_err();
            assert_eq!(err, CoreError::Unreachable { source: NodeId(0) });
        }
    }

    #[test]
    fn tiers_platform_is_solvable_with_cut_generation() {
        let mut rng = StdRng::seed_from_u64(12);
        let platform = tiers_platform(&TiersConfig::paper_30(), &mut rng);
        let o =
            optimal_throughput(&platform, NodeId(0), 1.0e6, OptimalMethod::CutGeneration).unwrap();
        assert!(o.throughput > 0.0 && o.throughput.is_finite());
        assert!(o.cuts > 0);
    }

    #[test]
    fn bandwidth_scales_with_slice_size() {
        let mut b = Platform::builder();
        let p = b.add_processors(2);
        b.add_bidirectional_link(p[0], p[1], LinkCost::from_bandwidth(100.0));
        let platform = b.build();
        let o =
            optimal_throughput(&platform, NodeId(0), 10.0, OptimalMethod::CutGeneration).unwrap();
        // 10-byte slices over a 100 B/s link: 10 slices/s, i.e. 100 B/s.
        assert_close(o.throughput, 10.0, 1e-6);
        assert_close(o.bandwidth(10.0), 100.0, 1e-6);
    }
}
