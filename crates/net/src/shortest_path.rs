//! Shortest paths: Dijkstra on non-negative `f64` weights.
//!
//! The binomial-tree heuristic of the paper (Algorithm 4) routes a logical
//! transfer `u -> v` along the shortest path of the platform graph whenever
//! the direct edge does not exist; these routines provide that path.

use crate::graph::{DiGraph, EdgeId, NodeId};
use crate::traversal::EdgeMask;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A (distance, node) entry in the Dijkstra priority queue, ordered so the
/// smallest distance pops first.
#[derive(Copy, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the min.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a single-source shortest-path computation.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// Source node of the computation.
    pub source: NodeId,
    /// `dist[u]` is the distance from the source to `u` (`f64::INFINITY`
    /// when unreachable).
    pub dist: Vec<f64>,
    /// `parent_edge[u]` is the last edge of a shortest path to `u`.
    pub parent_edge: Vec<Option<EdgeId>>,
}

impl ShortestPaths {
    /// Distance from the source to `node`.
    pub fn distance(&self, node: NodeId) -> f64 {
        self.dist[node.index()]
    }

    /// True when `node` is reachable from the source.
    pub fn reachable(&self, node: NodeId) -> bool {
        self.dist[node.index()].is_finite()
    }

    /// Reconstructs the edges of a shortest path from the source to `target`,
    /// in path order. Returns `None` when `target` is unreachable.
    pub fn path_edges<N, E>(&self, graph: &DiGraph<N, E>, target: NodeId) -> Option<Vec<EdgeId>> {
        if !self.reachable(target) {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = target;
        while cur != self.source {
            let e = self.parent_edge[cur.index()]?;
            edges.push(e);
            cur = graph.src(e);
        }
        edges.reverse();
        Some(edges)
    }
}

/// Dijkstra's algorithm from `source` using `weight(edge)` as edge length.
///
/// # Panics
/// Panics (debug assertion) if a negative weight is encountered.
pub fn dijkstra<N, E, W>(
    graph: &DiGraph<N, E>,
    source: NodeId,
    mask: EdgeMask<'_>,
    mut weight: W,
) -> ShortestPaths
where
    W: FnMut(EdgeId, &E) -> f64,
{
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent_edge = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u.index()] {
            continue;
        }
        done[u.index()] = true;
        for e in graph.out_edges(u) {
            if let Some(m) = mask {
                if !m[e.id.index()] {
                    continue;
                }
            }
            let w = weight(e.id, e.payload);
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let nd = d + w;
            if nd < dist[e.dst.index()] {
                dist[e.dst.index()] = nd;
                parent_edge[e.dst.index()] = Some(e.id);
                heap.push(HeapEntry {
                    dist: nd,
                    node: e.dst,
                });
            }
        }
    }
    ShortestPaths {
        source,
        dist,
        parent_edge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weighted diamond where the indirect route is cheaper than the direct edge.
    ///   0 -1-> 1 -1-> 3,   0 -5-> 3,   0 -2-> 2 -1-> 3
    fn weighted_graph() -> DiGraph<(), f64> {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(3), 1.0);
        g.add_edge(NodeId(0), NodeId(3), 5.0);
        g.add_edge(NodeId(0), NodeId(2), 2.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        g
    }

    #[test]
    fn dijkstra_finds_cheapest_route() {
        let g = weighted_graph();
        let sp = dijkstra(&g, NodeId(0), None, |_, &w| w);
        assert_eq!(sp.distance(NodeId(0)), 0.0);
        assert_eq!(sp.distance(NodeId(1)), 1.0);
        assert_eq!(sp.distance(NodeId(2)), 2.0);
        assert_eq!(sp.distance(NodeId(3)), 2.0);
        // 0 -> 1 (e0), then 1 -> 3 (e1).
        let edges = sp.path_edges(&g, NodeId(3)).unwrap();
        assert_eq!(edges, vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn dijkstra_reports_unreachable() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let sp = dijkstra(&g, NodeId(0), None, |_, &w| w);
        assert!(!sp.reachable(NodeId(2)));
        assert!(sp.path_edges(&g, NodeId(2)).is_none());
    }

    #[test]
    fn dijkstra_respects_mask() {
        let g = weighted_graph();
        // Disable the cheap 0->1 edge: best route to 3 becomes 0->2->3 = 3.
        let mut mask = vec![true; g.edge_count()];
        mask[0] = false;
        let sp = dijkstra(&g, NodeId(0), Some(&mask), |_, &w| w);
        assert_eq!(sp.distance(NodeId(3)), 3.0);
    }

    #[test]
    fn path_to_source_is_empty() {
        let g = weighted_graph();
        let sp = dijkstra(&g, NodeId(0), None, |_, &w| w);
        assert_eq!(sp.path_edges(&g, NodeId(0)).unwrap(), Vec::<EdgeId>::new());
    }

    #[test]
    fn ties_are_broken_deterministically() {
        // Two equal-cost paths 0->1->3 and 0->2->3: result must be stable.
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(1), NodeId(3), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        let a = dijkstra(&g, NodeId(0), None, |_, &w| w);
        let b = dijkstra(&g, NodeId(0), None, |_, &w| w);
        assert_eq!(a.path_edges(&g, NodeId(3)), b.path_edges(&g, NodeId(3)));
        assert_eq!(a.distance(NodeId(3)), 2.0);
    }
}
