//! Integral packing of spanning arborescences (Edmonds' theorem,
//! constructive à la Lovász).
//!
//! Edmonds' branching theorem: a capacitated digraph contains `k`
//! capacity-disjoint spanning arborescences rooted at `s` **iff** every node
//! `w ≠ s` has `maxflow(s, w) ≥ k`. The rounded per-period multiplicities
//! produced by [`crate::rounding::round_loads`] satisfy this for
//! `k = slices_per_period`, so the `B` slices of one period can each be
//! routed along their own spanning tree — that is what makes every node
//! receive every slice exactly once per period.
//!
//! The constructive proof (Lovász) extracts the trees one at a time, growing
//! the current tree edge by edge from the root while maintaining the
//! invariant
//!
//! ```text
//!   λ_{D'}(s, w) ≥ k_rem − 1   for every node w covered by the partial tree,
//! ```
//!
//! where `D'` is the *remaining* capacity (after removing completed trees
//! and the partial tree's own edges) and `k_rem` the number of trees still
//! to build, including the current one. Nodes outside the partial tree need
//! no check: moving an edge from `D'` into the partial tree `B` leaves the
//! combined capacity `D' + B` unchanged, so `λ_{D'+B}(s, w) ≥ k_rem` — which
//! is what guarantees the current tree can still reach them — holds for the
//! whole construction once it holds at the start (and it does, because the
//! previous round ends with `λ_{D'} ≥ k_rem`). When the tree is complete the
//! invariant *is* Edmonds' condition for `k_rem − 1` trees, which closes the
//! induction. Lovász's lemma guarantees that some boundary edge preserves
//! the invariant, so the greedy scan below always finds one; candidate
//! checks are max-flow computations, made cheap by caching per-node flow
//! lower bounds (a single unit decrement lowers any max-flow by at most
//! one, so nodes with slack never need a recomputation).
//!
//! Each [`pack_arborescences`] call builds one [`MaxFlowSolver`] for the
//! platform, and every flow it needs — Edmonds' condition at the start and
//! each candidate check — is a cold [`solve`](MaxFlowSolver::solve) of
//! that solver at the remaining capacities.

use crate::error::SchedError;
use bcast_net::maxflow::MaxFlowSolver;
use bcast_net::{EdgeId, NodeId};
use bcast_obs::names;
use bcast_platform::Platform;

/// Packs `count` spanning arborescences rooted at `source` into the integer
/// edge capacities `capacities` (each tree consumes one capacity unit per
/// edge it uses). Returns one edge list per tree, each in
/// parent-before-child (growth) order.
pub fn pack_arborescences(
    platform: &Platform,
    source: NodeId,
    capacities: &[u32],
    count: usize,
) -> Result<Vec<Vec<EdgeId>>, SchedError> {
    let _span = bcast_obs::span!(names::SPAN_SCHED_PACK);
    let mut maxflows = 0;
    let trees = pack(platform, source, capacities, count, &mut maxflows);
    bcast_obs::counter_add(names::SCHED_MAXFLOWS, maxflows);
    trees
}

/// [`pack_arborescences`], counting the max-flows it solves in `maxflows`.
fn pack(
    platform: &Platform,
    source: NodeId,
    capacities: &[u32],
    count: usize,
    maxflows: &mut u64,
) -> Result<Vec<Vec<EdgeId>>, SchedError> {
    let n = platform.node_count();
    let graph = platform.graph();
    assert_eq!(
        capacities.len(),
        platform.edge_count(),
        "capacity vector size"
    );
    if n <= 1 || count == 0 {
        return Ok(vec![Vec::new(); count]);
    }

    let mut remaining: Vec<u32> = capacities.to_vec();
    let mut solver = MaxFlowSolver::new(graph);
    let mut flow_value = |remaining: &[u32], w: NodeId| -> i64 {
        *maxflows += 1;
        solver
            .solve(source, w, |e| f64::from(remaining[e.index()]))
            .round() as i64
    };

    // cached[w] is a lower bound on maxflow(source, w) under `remaining`.
    let mut cached: Vec<i64> = vec![i64::MAX; n];
    for w in platform.nodes().filter(|&w| w != source) {
        cached[w.index()] = flow_value(&remaining, w);
        if cached[w.index()] < count as i64 {
            // The caller's capacities violate Edmonds' condition.
            return Err(SchedError::PackingFailed { tree: 0 });
        }
    }

    let mut trees: Vec<Vec<EdgeId>> = Vec::with_capacity(count);
    let mut recomputed = vec![false; n];
    for j in 0..count {
        let k_rem = (count - j) as i64;
        let mut in_tree = vec![false; n];
        in_tree[source.index()] = true;
        let mut tree_nodes = 1usize;
        let mut tree_edges: Vec<EdgeId> = Vec::with_capacity(n - 1);
        while tree_nodes < n {
            // Boundary edges, scarcest head first (deterministic order).
            let mut candidates: Vec<(i64, i64, u32, NodeId)> = Vec::new();
            for u in platform.nodes().filter(|&u| in_tree[u.index()]) {
                for e in graph.out_edges(u) {
                    if !in_tree[e.dst.index()] && remaining[e.id.index()] > 0 {
                        candidates.push((
                            cached[e.dst.index()],
                            -i64::from(remaining[e.id.index()]),
                            e.id.0,
                            e.dst,
                        ));
                    }
                }
            }
            candidates.sort_unstable();
            let mut accepted = None;
            let req = k_rem - 1;
            'candidates: for &(_, _, edge_raw, v) in &candidates {
                let e = EdgeId(edge_raw);
                remaining[e.index()] -= 1;
                recomputed.iter_mut().for_each(|r| *r = false);
                // Only the nodes the partial tree will cover constrain the
                // choice (see module docs); `v` is about to join them.
                for w in platform
                    .nodes()
                    .filter(|&w| w != source && (w == v || in_tree[w.index()]))
                {
                    if req <= 0 || cached[w.index()] > req {
                        // Even after this unit decrement the bound suffices.
                        continue;
                    }
                    let f = flow_value(&remaining, w);
                    // Valid lower bound whether we keep or revert the
                    // decrement (reverting can only increase the flow).
                    cached[w.index()] = f;
                    recomputed[w.index()] = true;
                    if f < req {
                        remaining[e.index()] += 1;
                        continue 'candidates;
                    }
                }
                accepted = Some((e, v));
                break;
            }
            let Some((e, v)) = accepted else {
                return Err(SchedError::PackingFailed { tree: j });
            };
            // The accepted decrement may lower any non-recomputed bound by 1.
            for w in 0..n {
                if !recomputed[w] && cached[w] != i64::MAX {
                    cached[w] -= 1;
                }
            }
            in_tree[v.index()] = true;
            tree_nodes += 1;
            tree_edges.push(e);
        }
        trees.push(tree_edges);
    }
    Ok(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_net::spanning::Arborescence;
    use bcast_platform::LinkCost;

    fn unit(b: &mut bcast_platform::PlatformBuilder, u: NodeId, v: NodeId) -> EdgeId {
        b.add_link(u, v, LinkCost::one_port(0.0, 1.0))
    }

    /// Triangle 0↔1, 0↔2, 1↔2: two edge-disjoint spanning trees from 0
    /// exist (0→1→2 and 0→2→1).
    #[test]
    fn triangle_packs_two_disjoint_trees() {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        let mut edges = Vec::new();
        for (u, v) in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
            edges.push(unit(&mut b, p[u], p[v]));
        }
        let platform = b.build();
        let caps = vec![1u32; platform.edge_count()];
        let trees = pack_arborescences(&platform, NodeId(0), &caps, 2).unwrap();
        assert_eq!(trees.len(), 2);
        let mut used = vec![0u32; platform.edge_count()];
        for tree in &trees {
            Arborescence::from_edges(platform.graph(), NodeId(0), tree).unwrap();
            for e in tree {
                used[e.index()] += 1;
            }
        }
        for (e, &u) in used.iter().enumerate() {
            assert!(u <= caps[e], "edge {e} over capacity");
        }
    }

    /// A chain can only repeat the single spanning tree; multiplicity makes
    /// that possible.
    #[test]
    fn chain_packs_with_multiplicity() {
        let mut b = Platform::builder();
        let p = b.add_processors(4);
        unit(&mut b, p[0], p[1]);
        unit(&mut b, p[1], p[2]);
        unit(&mut b, p[2], p[3]);
        let platform = b.build();
        let caps = vec![3u32; 3];
        let trees = pack_arborescences(&platform, NodeId(0), &caps, 3).unwrap();
        for tree in &trees {
            assert_eq!(tree.len(), 3);
            Arborescence::from_edges(platform.graph(), NodeId(0), tree).unwrap();
        }
    }

    #[test]
    fn insufficient_capacity_is_detected() {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        unit(&mut b, p[0], p[1]);
        unit(&mut b, p[1], p[2]);
        let platform = b.build();
        let caps = vec![1u32, 1];
        assert_eq!(
            pack_arborescences(&platform, NodeId(0), &caps, 2),
            Err(SchedError::PackingFailed { tree: 0 })
        );
    }

    #[test]
    fn trivial_cases() {
        let mut b = Platform::builder();
        b.add_processor("only");
        let single = b.build();
        assert_eq!(
            pack_arborescences(&single, NodeId(0), &[], 5)
                .unwrap()
                .len(),
            5
        );
    }
}
