//! Steady-state throughput of a broadcast structure, and STA makespan.
//!
//! In steady state a new slice leaves the source every period, and the
//! period is the largest port period over the nodes, each taken over the
//! node's structure edges by [`CommModel::port_period`]. The throughput —
//! the average number of slices injected by the source per time unit — is
//! its inverse.
//!
//! Under the **bidirectional one-port** model a node sends to its children
//! one after the other while (independently) receiving from its parent, so
//! `period(u) = max(Σ_out T_e, Σ_in T_e)` (for a tree the incoming term is
//! a single edge, already counted in the parent's outgoing sum). Under the
//! **multi-port** model (paper Section 3.2, Figure 3) the link occupations
//! of a node's outgoing messages overlap; only the per-message sender
//! overhead `send_u` serialises, so the send side is
//! `max(δ_out(u) · send_u, max_out T_e)`.
//!
//! [`sta_makespan`] evaluates the *atomic* (STA) regime for completeness:
//! the total time for a single message to reach every node when each node
//! forwards it to its children in a fixed order.

use crate::tree::BroadcastStructure;
use bcast_platform::{CommModel, MessageSpec, Platform};

/// Steady-state period of `structure` on `platform`: the time between two
/// consecutive slices of `slice_size` bytes leaving the source once the
/// pipeline is full.
///
/// Returns 0 for a single-node platform (nothing to send).
pub fn steady_state_period(
    platform: &Platform,
    structure: &BroadcastStructure,
    model: CommModel,
    slice_size: f64,
) -> f64 {
    let graph = platform.graph();
    let mask = structure.edge_mask();
    let mut period: f64 = 0.0;
    for u in platform.nodes() {
        let edges = graph
            .out_edges(u)
            .chain(graph.in_edges(u))
            .filter(|e| mask[e.id.index()])
            .map(|e| e.id);
        period = period.max(model.port_period(platform, u, edges, slice_size));
    }
    period
}

/// Steady-state throughput (slices per time unit) of `structure`:
/// the inverse of [`steady_state_period`]. A single-node platform has
/// infinite throughput.
pub fn steady_state_throughput(
    platform: &Platform,
    structure: &BroadcastStructure,
    model: CommModel,
    slice_size: f64,
) -> f64 {
    let period = steady_state_period(platform, structure, model, slice_size);
    if period > 0.0 {
        1.0 / period
    } else {
        f64::INFINITY
    }
}

/// Bandwidth delivered to every node in steady state, in bytes per second
/// (`throughput × slice_size`).
pub fn steady_state_bandwidth(
    platform: &Platform,
    structure: &BroadcastStructure,
    model: CommModel,
    spec: &MessageSpec,
) -> f64 {
    steady_state_throughput(platform, structure, model, spec.slice_size) * spec.slice_size
}

/// Makespan of an *atomic* (Single Tree, Atomic) broadcast of one message of
/// `message_size` bytes along the tree: each node, once it has received the
/// message, forwards it to its children one after the other (children are
/// served in ascending edge order). Under the one-port model the send and
/// the receive of a node never overlap for the same message, so the
/// completion time of child `i` of node `u` is
/// `ready(u) + Σ_{j ≤ i} T(u, child_j)`.
///
/// Returns `None` when `structure` is not a spanning arborescence.
pub fn sta_makespan(
    platform: &Platform,
    structure: &BroadcastStructure,
    message_size: f64,
) -> Option<f64> {
    let arb = structure.as_arborescence(platform).ok()?;
    let n = platform.node_count();
    let mut ready = vec![0.0f64; n];
    let mut makespan: f64 = 0.0;
    for &u in arb.bfs_order() {
        let mut t = ready[u.index()];
        for &e in arb.child_edges(u) {
            t += platform.link_time(e, message_size);
            let child = platform.graph().dst(e);
            ready[child.index()] = t;
            makespan = makespan.max(t);
        }
    }
    Some(makespan)
}

/// Total time to broadcast the whole message of `spec` by pipelining its
/// slices along `structure`: the time for the first slice to reach the last
/// node plus one steady-state period per remaining slice. This is the
/// quantity the STP regime optimises asymptotically (the period dominates
/// when the number of slices is large).
pub fn pipelined_completion_time(
    platform: &Platform,
    structure: &BroadcastStructure,
    model: CommModel,
    spec: &MessageSpec,
) -> f64 {
    let period = steady_state_period(platform, structure, model, spec.slice_size);
    let fill = sta_makespan(platform, structure, spec.slice_size)
        .unwrap_or_else(|| period * structure.node_count() as f64);
    fill + period * (spec.slice_count().saturating_sub(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_net::{EdgeId, NodeId};
    use bcast_platform::LinkCost;

    /// Star platform: node 0 linked to 1, 2, 3 with betas 1, 2, 3.
    fn star() -> Platform {
        let mut b = Platform::builder();
        let p = b.add_processors(4);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0)); // e0, e1
        b.add_bidirectional_link(p[0], p[2], LinkCost::one_port(0.0, 2.0)); // e2, e3
        b.add_bidirectional_link(p[0], p[3], LinkCost::one_port(0.0, 3.0)); // e4, e5
        b.build()
    }

    /// Chain platform 0 -> 1 -> 2 with betas 1 and 2.
    fn chain() -> Platform {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0)); // e0, e1
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 2.0)); // e2, e3
        b.build()
    }

    fn star_tree(p: &Platform) -> BroadcastStructure {
        BroadcastStructure::new(p, NodeId(0), vec![EdgeId(0), EdgeId(2), EdgeId(4)]).unwrap()
    }

    fn chain_tree(p: &Platform) -> BroadcastStructure {
        BroadcastStructure::new(p, NodeId(0), vec![EdgeId(0), EdgeId(2)]).unwrap()
    }

    #[test]
    fn one_port_star_period_is_sum_of_out_times() {
        let p = star();
        let t = star_tree(&p);
        // Source sends 1 + 2 + 3 = 6 time units per unit-size slice.
        assert_eq!(steady_state_period(&p, &t, CommModel::OnePort, 1.0), 6.0);
        assert!(
            (steady_state_throughput(&p, &t, CommModel::OnePort, 1.0) - 1.0 / 6.0).abs() < 1e-12
        );
    }

    #[test]
    fn one_port_chain_period_is_slowest_link() {
        let p = chain();
        let t = chain_tree(&p);
        // Node 0 sends for 1, node 1 sends for 2 → period 2.
        assert_eq!(steady_state_period(&p, &t, CommModel::OnePort, 1.0), 2.0);
    }

    #[test]
    fn period_scales_linearly_with_slice_size() {
        let p = star();
        let t = star_tree(&p);
        let one = steady_state_period(&p, &t, CommModel::OnePort, 1.0);
        let ten = steady_state_period(&p, &t, CommModel::OnePort, 10.0);
        assert!((ten - 10.0 * one).abs() < 1e-9);
    }

    #[test]
    fn multi_port_star_overlaps_links() {
        let p = star().with_multiport_overheads(0.8, 1.0);
        let t = star_tree(&p);
        // send_0 = 0.8 * fastest outgoing link (T = 1) = 0.8 per slice;
        // period = max(3 * 0.8, max T = 3) = 3 → faster than one-port's 6.
        let period = steady_state_period(&p, &t, CommModel::MultiPort, 1.0);
        assert!((period - 3.0).abs() < 1e-9);
        assert!(period < steady_state_period(&p, &t, CommModel::OnePort, 1.0));
    }

    #[test]
    fn multi_port_with_many_children_is_bounded_by_send_overhead() {
        // 6 children over unit links: overhead 6*0.8 = 4.8 dominates max T = 1.
        let mut b = Platform::builder();
        let p = b.add_processors(7);
        for i in 1..7 {
            b.add_bidirectional_link(p[0], p[i], LinkCost::one_port(0.0, 1.0));
        }
        let plat = b.build().with_multiport_overheads(0.8, 1.0);
        let edges: Vec<EdgeId> = plat.graph().out_edges(NodeId(0)).map(|e| e.id).collect();
        let t = BroadcastStructure::new(&plat, NodeId(0), edges).unwrap();
        let period = steady_state_period(&plat, &t, CommModel::MultiPort, 1.0);
        assert!((period - 4.8).abs() < 1e-9);
    }

    #[test]
    fn single_node_platform_has_infinite_throughput() {
        let mut b = Platform::builder();
        b.add_processor("only");
        let p = b.build();
        let t = BroadcastStructure::new(&p, NodeId(0), vec![]).unwrap();
        assert_eq!(steady_state_period(&p, &t, CommModel::OnePort, 1.0), 0.0);
        assert!(steady_state_throughput(&p, &t, CommModel::OnePort, 1.0).is_infinite());
    }

    #[test]
    fn sta_makespan_star_serialises_children() {
        let p = star();
        let t = star_tree(&p);
        // Children served in edge order: completion times 1, 1+2=3, 1+2+3=6.
        assert_eq!(sta_makespan(&p, &t, 1.0), Some(6.0));
    }

    #[test]
    fn sta_makespan_chain_adds_depths() {
        let p = chain();
        let t = chain_tree(&p);
        // 0->1 takes 1, then 1->2 takes 2 → 3.
        assert_eq!(sta_makespan(&p, &t, 1.0), Some(3.0));
    }

    #[test]
    fn sta_makespan_none_for_overlays() {
        let p = chain();
        let overlay =
            BroadcastStructure::new(&p, NodeId(0), vec![EdgeId(0), EdgeId(2), EdgeId(3)]).unwrap();
        assert_eq!(sta_makespan(&p, &overlay, 1.0), None);
    }

    #[test]
    fn pipelined_completion_approaches_period_per_slice() {
        let p = chain();
        let t = chain_tree(&p);
        let spec = MessageSpec::new(1000.0, 1.0);
        let total = pipelined_completion_time(&p, &t, CommModel::OnePort, &spec);
        // 1000 slices at period 2 ≈ 2000 plus a small fill time of 3.
        assert!((total - (3.0 + 2.0 * 999.0)).abs() < 1e-9);
        // Pipelining beats sending the message atomically slice after slice:
        let atomic_like = sta_makespan(&p, &t, 1000.0).unwrap();
        assert!(total < atomic_like);
    }

    #[test]
    fn bandwidth_is_throughput_times_slice() {
        let p = chain();
        let t = chain_tree(&p);
        let spec = MessageSpec::new(100.0, 2.0);
        let bw = steady_state_bandwidth(&p, &t, CommModel::OnePort, &spec);
        let tp = steady_state_throughput(&p, &t, CommModel::OnePort, 2.0);
        assert!((bw - tp * 2.0).abs() < 1e-12);
    }
}
