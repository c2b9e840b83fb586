//! Breadth-first traversal and reachability.
//!
//! All traversals optionally restrict themselves to a caller-provided set of
//! *live* edges. The pruning heuristics of the paper repeatedly ask "is the
//! graph still connected if I drop this edge?", which we answer by traversing
//! only the surviving edge set — the underlying [`DiGraph`] is never mutated.

use crate::graph::{DiGraph, EdgeId, NodeId};

/// Edge filter used by traversals: `None` means "all edges are live",
/// `Some(mask)` means edge `e` is live iff `mask[e.index()]`.
pub type EdgeMask<'a> = Option<&'a [bool]>;

#[inline]
fn edge_live(mask: EdgeMask<'_>, e: EdgeId) -> bool {
    match mask {
        None => true,
        Some(m) => m[e.index()],
    }
}

/// Breadth-first search from `start` following *directed* edges.
///
/// Returns, for every node, `Some(parent_edge)` if the node was reached
/// through that edge, `None` otherwise (the start node is reached with no
/// parent edge). The result doubles as a reachability map and a BFS tree.
pub fn bfs_directed<N, E>(graph: &DiGraph<N, E>, start: NodeId, mask: EdgeMask<'_>) -> BfsResult {
    let n = graph.node_count();
    let mut visited = vec![false; n];
    let mut parent_edge = vec![None; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    visited[start.index()] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for e in graph.out_edges(u) {
            if !edge_live(mask, e.id) {
                continue;
            }
            let v = e.dst;
            if !visited[v.index()] {
                visited[v.index()] = true;
                parent_edge[v.index()] = Some(e.id);
                queue.push_back(v);
            }
        }
    }
    BfsResult {
        start,
        visited,
        parent_edge,
        order,
    }
}

/// Result of a breadth-first search.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// The start node of the search.
    pub start: NodeId,
    /// `visited[u]` is true when node `u` was reached.
    pub visited: Vec<bool>,
    /// `parent_edge[u]` is the edge through which `u` was first reached.
    pub parent_edge: Vec<Option<EdgeId>>,
    /// Nodes in the order they were dequeued.
    pub order: Vec<NodeId>,
}

impl BfsResult {
    /// True when every node of the graph was reached.
    pub fn all_reached(&self) -> bool {
        self.visited.iter().all(|&v| v)
    }

    /// True when `node` was reached.
    pub fn reached(&self, node: NodeId) -> bool {
        self.visited[node.index()]
    }
}

/// True when every node is reachable from `source` following directed live edges.
///
/// This is the connectivity test used by the pruning heuristics: a broadcast
/// tree must allow the source to reach every destination.
pub fn all_reachable_from<N, E>(graph: &DiGraph<N, E>, source: NodeId, mask: EdgeMask<'_>) -> bool {
    bfs_directed(graph, source, mask).all_reached()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1 -> 2 -> 3, plus a back edge 3 -> 0 and an isolated node 4.
    fn ring_plus_isolated() -> DiGraph<(), ()> {
        let mut g = DiGraph::with_nodes(5);
        g.add_edge(NodeId(0), NodeId(1), ());
        g.add_edge(NodeId(1), NodeId(2), ());
        g.add_edge(NodeId(2), NodeId(3), ());
        g.add_edge(NodeId(3), NodeId(0), ());
        g
    }

    #[test]
    fn bfs_reaches_ring_but_not_isolated() {
        let g = ring_plus_isolated();
        let r = bfs_directed(&g, NodeId(0), None);
        assert_eq!(r.order.len(), 4);
        assert!(!r.all_reached());
        assert!(r.reached(NodeId(3)));
        assert!(!r.reached(NodeId(4)));
    }

    #[test]
    fn bfs_order_is_breadth_first() {
        // Star: 0 -> {1,2,3}, 1 -> 4
        let mut g: DiGraph<(), ()> = DiGraph::with_nodes(5);
        g.add_edge(NodeId(0), NodeId(1), ());
        g.add_edge(NodeId(0), NodeId(2), ());
        g.add_edge(NodeId(0), NodeId(3), ());
        g.add_edge(NodeId(1), NodeId(4), ());
        let r = bfs_directed(&g, NodeId(0), None);
        assert_eq!(
            r.order,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn mask_disables_edges() {
        let g = ring_plus_isolated();
        // Drop edge 1 (1 -> 2): nodes 2 and 3 become unreachable from 0.
        let mut mask = vec![true; g.edge_count()];
        mask[1] = false;
        let r = bfs_directed(&g, NodeId(0), Some(&mask));
        assert!(r.reached(NodeId(1)));
        assert!(!r.reached(NodeId(2)));
        assert!(!r.reached(NodeId(3)));
        assert!(!all_reachable_from(&g, NodeId(0), Some(&mask)));
    }

    #[test]
    fn all_reachable_on_complete_graph() {
        let mut g: DiGraph<(), ()> = DiGraph::with_nodes(4);
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    g.add_edge(NodeId(u), NodeId(v), ());
                }
            }
        }
        assert!(all_reachable_from(&g, NodeId(2), None));
    }
}
