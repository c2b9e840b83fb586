//! The reference `pack_arborescences` must match tree by tree and edge by
//! edge: the packing as it stood while every candidate check was a cold
//! [`MaxFlowSolver::solve`] at the remaining capacities. It grows the trees
//! one at a time by Lovász's constructive proof of Edmonds' branching
//! theorem, and `cached` keeps a lower bound on each node's max-flow, which
//! orders the candidate edges and so decides the trees. It is kept only for
//! the tests.

use bcast_net::maxflow::MaxFlowSolver;
use bcast_net::{EdgeId, NodeId};
use bcast_platform::Platform;
use bcast_sched::SchedError;

/// Packs `count` spanning arborescences rooted at `source` into the integer
/// edge capacities `capacities`; one edge list per tree, each in
/// parent-before-child (growth) order.
pub fn pack(
    platform: &Platform,
    source: NodeId,
    capacities: &[u32],
    count: usize,
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
                // choice; `v` is about to join them.
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
