//! Spanning-arborescence utilities.
//!
//! A broadcast tree is a *spanning arborescence*: a set of `|V| - 1` edges of
//! the platform graph such that every node other than the root has exactly
//! one incoming tree edge and is reachable from the root. [`Arborescence`]
//! validates an edge set against this definition and exposes the parent /
//! children structure that the throughput formulas and the simulator need.

use crate::graph::{DiGraph, EdgeId, NodeId};
use std::collections::VecDeque;
use std::fmt;

/// Why an edge set failed to be a spanning arborescence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpanningError {
    /// The edge set has the wrong number of edges (expected `|V| - 1`).
    WrongEdgeCount {
        /// Number of edges supplied.
        found: usize,
        /// Number of edges required (`|V| - 1`).
        expected: usize,
    },
    /// Some node other than the root has zero or more than one incoming tree edge.
    BadInDegree {
        /// The offending node.
        node: NodeId,
        /// Its in-degree within the edge set.
        in_degree: usize,
    },
    /// The root has an incoming tree edge.
    RootHasParent {
        /// The root node.
        root: NodeId,
    },
    /// Some node is not reachable from the root through tree edges.
    Unreachable {
        /// The unreachable node.
        node: NodeId,
    },
    /// An edge index referenced a non-existent edge.
    UnknownEdge {
        /// The offending edge index.
        edge: EdgeId,
    },
}

impl fmt::Display for SpanningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanningError::WrongEdgeCount { found, expected } => {
                write!(f, "expected {expected} tree edges, found {found}")
            }
            SpanningError::BadInDegree { node, in_degree } => {
                write!(
                    f,
                    "node {node} has in-degree {in_degree} in the tree (expected 1)"
                )
            }
            SpanningError::RootHasParent { root } => {
                write!(f, "root {root} has an incoming tree edge")
            }
            SpanningError::Unreachable { node } => {
                write!(
                    f,
                    "node {node} is not reachable from the root through tree edges"
                )
            }
            SpanningError::UnknownEdge { edge } => write!(f, "unknown edge {edge:?}"),
        }
    }
}

impl std::error::Error for SpanningError {}

/// A validated spanning arborescence (rooted spanning tree) of a [`DiGraph`].
#[derive(Clone, Debug)]
pub struct Arborescence {
    root: NodeId,
    /// `parent_edge[u]` is the tree edge entering `u` (`None` for the root).
    parent_edge: Vec<Option<EdgeId>>,
    /// `parent[u]` is the tree parent of `u` (`None` for the root).
    parent: Vec<Option<NodeId>>,
    /// `children[u]` lists the tree edges leaving `u`, in ascending edge order.
    children: Vec<Vec<EdgeId>>,
    /// Nodes in breadth-first order from the root.
    bfs_order: Vec<NodeId>,
    /// The tree edges, in ascending edge order.
    edges: Vec<EdgeId>,
}

impl Arborescence {
    /// Validates `edges` as a spanning arborescence of `graph` rooted at `root`.
    pub fn from_edges<N, E>(
        graph: &DiGraph<N, E>,
        root: NodeId,
        edges: &[EdgeId],
    ) -> Result<Self, SpanningError> {
        let n = graph.node_count();
        if n == 0 {
            return Ok(Arborescence {
                root,
                parent_edge: Vec::new(),
                parent: Vec::new(),
                children: Vec::new(),
                bfs_order: Vec::new(),
                edges: Vec::new(),
            });
        }
        if edges.len() != n - 1 {
            return Err(SpanningError::WrongEdgeCount {
                found: edges.len(),
                expected: n - 1,
            });
        }
        let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
        let mut children: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut sorted: Vec<EdgeId> = edges.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != edges.len() {
            // A duplicate edge necessarily creates a bad in-degree; report the
            // duplicate's head for a precise error.
            let mut seen = vec![false; graph.edge_count()];
            for &e in edges {
                if e.index() >= graph.edge_count() {
                    return Err(SpanningError::UnknownEdge { edge: e });
                }
                if seen[e.index()] {
                    return Err(SpanningError::BadInDegree {
                        node: graph.dst(e),
                        in_degree: 2,
                    });
                }
                seen[e.index()] = true;
            }
        }
        for &e in &sorted {
            if e.index() >= graph.edge_count() {
                return Err(SpanningError::UnknownEdge { edge: e });
            }
            let (src, dst) = graph.endpoints(e);
            if dst == root {
                return Err(SpanningError::RootHasParent { root });
            }
            if parent_edge[dst.index()].is_some() {
                return Err(SpanningError::BadInDegree {
                    node: dst,
                    in_degree: 2,
                });
            }
            parent_edge[dst.index()] = Some(e);
            children[src.index()].push(e);
        }
        // Every non-root node must have a parent.
        for u in graph.node_ids() {
            if u != root && parent_edge[u.index()].is_none() {
                return Err(SpanningError::BadInDegree {
                    node: u,
                    in_degree: 0,
                });
            }
        }
        // Reachability from the root through tree edges.
        let mut visited = vec![false; n];
        let mut bfs_order = Vec::with_capacity(n);
        let mut queue = VecDeque::new();
        visited[root.index()] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            bfs_order.push(u);
            for &e in &children[u.index()] {
                let v = graph.dst(e);
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        if let Some(unreached) = (0..n).find(|&i| !visited[i]) {
            return Err(SpanningError::Unreachable {
                node: NodeId(unreached as u32),
            });
        }
        let parent = parent_edge
            .iter()
            .map(|pe| pe.map(|e| graph.src(e)))
            .collect();
        Ok(Arborescence {
            root,
            parent_edge,
            parent,
            children,
            bfs_order,
            edges: sorted,
        })
    }

    /// The root (broadcast source) of the tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes spanned by the tree.
    pub fn node_count(&self) -> usize {
        self.parent_edge.len()
    }

    /// The tree edges in ascending edge-index order.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The tree edge entering `node`, or `None` for the root.
    pub fn parent_edge(&self, node: NodeId) -> Option<EdgeId> {
        self.parent_edge[node.index()]
    }

    /// The tree parent of `node`, or `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// The tree edges leaving `node` (towards its children).
    pub fn child_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.children[node.index()]
    }

    /// Number of children of `node` in the tree.
    pub fn child_count(&self, node: NodeId) -> usize {
        self.children[node.index()].len()
    }

    /// Nodes in breadth-first order starting at the root.
    pub fn bfs_order(&self) -> &[NodeId] {
        &self.bfs_order
    }

    /// Depth (number of tree edges from the root) of `node`.
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 0;
        let mut cur = node;
        while let Some(p) = self.parent[cur.index()] {
            d += 1;
            cur = p;
        }
        d
    }

    /// Maximum depth over all nodes (the height of the tree).
    pub fn height(&self) -> usize {
        (0..self.parent_edge.len())
            .map(|i| self.depth(NodeId(i as u32)))
            .max()
            .unwrap_or(0)
    }
}

/// Greedy generic Prim-style growth of a spanning arborescence.
///
/// Starting from `root`, repeatedly adds the frontier edge `(u, v)` — with
/// `u` inside the tree and `v` outside — minimising `cost(u, v, edge)`, where
/// the cost may depend on the tree built so far (the closure receives the
/// current child-edge lists). This captures Algorithms 3 and 5 of the paper,
/// whose edge cost is a function of the sender's current out-degree.
///
/// Returns the chosen edges, or `None` when the graph is not spanning-
/// connected from `root`.
pub fn grow_arborescence<N, E, F>(
    graph: &DiGraph<N, E>,
    root: NodeId,
    mut cost: F,
) -> Option<Vec<EdgeId>>
where
    F: FnMut(NodeId, NodeId, EdgeId, &[Vec<EdgeId>]) -> f64,
{
    let n = graph.node_count();
    let mut in_tree = vec![false; n];
    let mut children: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
    let mut tree_edges = Vec::with_capacity(n.saturating_sub(1));
    in_tree[root.index()] = true;
    for _ in 1..n {
        let mut best: Option<(f64, EdgeId)> = None;
        for u in graph.node_ids() {
            if !in_tree[u.index()] {
                continue;
            }
            for e in graph.out_edges(u) {
                if in_tree[e.dst.index()] {
                    continue;
                }
                let c = cost(u, e.dst, e.id, &children);
                let better = match best {
                    None => true,
                    Some((bc, be)) => c < bc || (c == bc && e.id < be),
                };
                if better {
                    best = Some((c, e.id));
                }
            }
        }
        let (_, edge) = best?;
        let (src, dst) = graph.endpoints(edge);
        in_tree[dst.index()] = true;
        children[src.index()].push(edge);
        tree_edges.push(edge);
    }
    Some(tree_edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> DiGraph<(), f64> {
        // 0 -> 1 -> 2 -> 3 plus extra edges 0 -> 2, 0 -> 3
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0); // e0
        g.add_edge(NodeId(1), NodeId(2), 1.0); // e1
        g.add_edge(NodeId(2), NodeId(3), 1.0); // e2
        g.add_edge(NodeId(0), NodeId(2), 5.0); // e3
        g.add_edge(NodeId(0), NodeId(3), 5.0); // e4
        g
    }

    #[test]
    fn valid_arborescence_is_accepted() {
        let g = path_graph();
        let t = Arborescence::from_edges(&g, NodeId(0), &[EdgeId(0), EdgeId(1), EdgeId(2)])
            .expect("valid tree");
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.child_count(NodeId(0)), 1);
        assert_eq!(t.child_count(NodeId(3)), 0);
        assert_eq!(t.depth(NodeId(3)), 3);
        assert_eq!(t.height(), 3);
        assert_eq!(t.bfs_order()[0], NodeId(0));
    }

    #[test]
    fn star_tree_has_height_one() {
        let g = path_graph();
        // 0->1 (e0), 0->2 (e3), 0->3 (e4)
        let t = Arborescence::from_edges(&g, NodeId(0), &[EdgeId(0), EdgeId(3), EdgeId(4)])
            .expect("valid star");
        assert_eq!(t.height(), 1);
        assert_eq!(t.child_count(NodeId(0)), 3);
        assert_eq!(t.child_edges(NodeId(0)), &[EdgeId(0), EdgeId(3), EdgeId(4)]);
    }

    #[test]
    fn wrong_edge_count_is_rejected() {
        let g = path_graph();
        let err = Arborescence::from_edges(&g, NodeId(0), &[EdgeId(0)]).unwrap_err();
        assert_eq!(
            err,
            SpanningError::WrongEdgeCount {
                found: 1,
                expected: 3
            }
        );
    }

    #[test]
    fn duplicate_parent_is_rejected() {
        let g = path_graph();
        // Node 2 gets two parents (e1 from 1 and e3 from 0); node 3 none.
        let err = Arborescence::from_edges(&g, NodeId(0), &[EdgeId(0), EdgeId(1), EdgeId(3)])
            .unwrap_err();
        match err {
            SpanningError::BadInDegree { node, .. } => {
                assert!(node == NodeId(2) || node == NodeId(3))
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn root_with_parent_is_rejected() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(0), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        let err = Arborescence::from_edges(&g, NodeId(0), &[EdgeId(1), EdgeId(2)]).unwrap_err();
        assert_eq!(err, SpanningError::RootHasParent { root: NodeId(0) });
    }

    #[test]
    fn unreachable_subtree_is_rejected() {
        // 0 -> 1, 2 -> 3, 3 -> 2: edges {0->1, 3->2, 2->3} is not a tree
        // (cycle disconnected from the root); in-degree validation catches it
        // or reachability does, depending on shape. Build a case where every
        // in-degree is 1 but a cycle floats apart from the root.
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0); // e0
        g.add_edge(NodeId(2), NodeId(3), 1.0); // e1
        g.add_edge(NodeId(3), NodeId(2), 1.0); // e2
        let err = Arborescence::from_edges(&g, NodeId(0), &[EdgeId(0), EdgeId(1), EdgeId(2)])
            .unwrap_err();
        match err {
            SpanningError::Unreachable { node } => {
                assert!(node == NodeId(2) || node == NodeId(3))
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_edge_is_rejected() {
        let g = path_graph();
        let err = Arborescence::from_edges(&g, NodeId(0), &[EdgeId(0), EdgeId(1), EdgeId(99)])
            .unwrap_err();
        assert_eq!(err, SpanningError::UnknownEdge { edge: EdgeId(99) });
    }

    #[test]
    fn duplicate_edges_are_rejected() {
        let g = path_graph();
        let err = Arborescence::from_edges(&g, NodeId(0), &[EdgeId(0), EdgeId(0), EdgeId(1)])
            .unwrap_err();
        matches!(err, SpanningError::BadInDegree { .. })
            .then_some(())
            .expect("expected BadInDegree");
    }

    #[test]
    fn empty_graph_is_trivially_spanned() {
        let g: DiGraph<(), f64> = DiGraph::new();
        let t = Arborescence::from_edges(&g, NodeId(0), &[]).expect("empty tree");
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.edges(), &[]);
    }

    #[test]
    fn grow_arborescence_minimises_weight() {
        let g = path_graph();
        // Plain Prim on edge weight: should pick the cheap chain 0->1->2->3.
        let edges = grow_arborescence(&g, NodeId(0), |_, _, e, _| *g.edge(e)).expect("spanning");
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
        Arborescence::from_edges(&g, NodeId(0), &edges).expect("result is a valid tree");
    }

    #[test]
    fn grow_arborescence_fails_on_disconnected_graph() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        assert!(grow_arborescence(&g, NodeId(0), |_, _, e, _| *g.edge(e)).is_none());
    }

    #[test]
    fn grow_arborescence_cost_sees_current_children() {
        // Complete digraph on 4 nodes with unit weights; cost = current
        // out-degree of the sender, so the growth should spread children
        // around instead of building a star.
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(4);
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    g.add_edge(NodeId(u), NodeId(v), 1.0);
                }
            }
        }
        let edges = grow_arborescence(&g, NodeId(0), |u, _, _, children| {
            children[u.index()].len() as f64
        })
        .expect("spanning");
        let tree = Arborescence::from_edges(&g, NodeId(0), &edges).expect("valid");
        // No node should have all three children: the first child is free
        // (cost 0 everywhere), after which other tree nodes offer cost 0.
        let max_children = (0..4).map(|i| tree.child_count(NodeId(i))).max().unwrap();
        assert!(max_children <= 2, "children spread, got max {max_children}");
    }
}
