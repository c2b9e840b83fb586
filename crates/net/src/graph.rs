//! Directed multigraph with typed indices and O(1) adjacency access.
//!
//! [`DiGraph<N, E>`] stores node payloads of type `N` and edge payloads of
//! type `E`. Nodes and edges are addressed by the copyable, ordered index
//! types [`NodeId`] and [`EdgeId`]. The structure is append-only (nodes and
//! edges are never removed); algorithms that need to "delete" edges — the
//! pruning heuristics of the paper — work on an explicit set of live edges
//! instead, which keeps indices stable and avoids tombstone bookkeeping.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node inside a [`DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of an edge inside a [`DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Returns the index as a `usize`, suitable for indexing per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the index as a `usize`, suitable for indexing per-edge arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value as u32)
    }
}

impl From<usize> for EdgeId {
    fn from(value: usize) -> Self {
        EdgeId(value as u32)
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct NodeData<N> {
    payload: N,
    /// Edges leaving this node, in insertion order.
    out_edges: Vec<EdgeId>,
    /// Edges entering this node, in insertion order.
    in_edges: Vec<EdgeId>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct EdgeData<E> {
    payload: E,
    src: NodeId,
    dst: NodeId,
}

/// A borrowed view of one edge: its id, endpoints and payload reference.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRef<'a, E> {
    /// Edge index.
    pub id: EdgeId,
    /// Tail (sending) node.
    pub src: NodeId,
    /// Head (receiving) node.
    pub dst: NodeId,
    /// Edge payload.
    pub payload: &'a E,
}

/// A directed multigraph with node payloads `N` and edge payloads `E`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiGraph<N, E> {
    nodes: Vec<NodeData<N>>,
    edges: Vec<EdgeData<E>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Creates an empty graph with pre-allocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node carrying `payload` and returns its index.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            payload,
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        });
        id
    }

    /// Adds a directed edge `src -> dst` carrying `payload` and returns its index.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, payload: E) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "edge source out of range");
        assert!(dst.index() < self.nodes.len(), "edge target out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData { payload, src, dst });
        self.nodes[src.index()].out_edges.push(id);
        self.nodes[dst.index()].in_edges.push(id);
        id
    }

    /// Returns a reference to the payload of `node`.
    #[inline]
    pub fn node(&self, node: NodeId) -> &N {
        &self.nodes[node.index()].payload
    }

    /// Returns a reference to the payload of `edge`.
    #[inline]
    pub fn edge(&self, edge: EdgeId) -> &E {
        &self.edges[edge.index()].payload
    }

    /// Returns the `(src, dst)` endpoints of `edge`.
    #[inline]
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[edge.index()];
        (e.src, e.dst)
    }

    /// Returns the tail (sending node) of `edge`.
    #[inline]
    pub fn src(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].src
    }

    /// Returns the head (receiving node) of `edge`.
    #[inline]
    pub fn dst(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].dst
    }

    /// Iterates over all node indices in increasing order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Iterates over all edge indices in increasing order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(|i| EdgeId(i as u32))
    }

    /// Iterates over all edges as [`EdgeRef`]s, in index order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| EdgeRef {
            id: EdgeId(i as u32),
            src: e.src,
            dst: e.dst,
            payload: &e.payload,
        })
    }

    /// Iterates over the edges leaving `node`, in insertion order.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.nodes[node.index()]
            .out_edges
            .iter()
            .map(move |&id| self.edge_ref(id))
    }

    /// Iterates over the edges entering `node`, in insertion order.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.nodes[node.index()]
            .in_edges
            .iter()
            .map(move |&id| self.edge_ref(id))
    }

    /// Out-degree of `node` (number of outgoing edges).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.nodes[node.index()].out_edges.len()
    }

    /// In-degree of `node` (number of incoming edges).
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.nodes[node.index()].in_edges.len()
    }

    /// Returns an [`EdgeRef`] view for `edge`.
    pub fn edge_ref(&self, edge: EdgeId) -> EdgeRef<'_, E> {
        let e = &self.edges[edge.index()];
        EdgeRef {
            id: edge,
            src: e.src,
            dst: e.dst,
            payload: &e.payload,
        }
    }

    /// Returns the first edge `src -> dst` if one exists.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.nodes[src.index()]
            .out_edges
            .iter()
            .copied()
            .find(|&e| self.edges[e.index()].dst == dst)
    }

    /// True when at least one edge `src -> dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }

    /// Maps edge payloads, preserving structure and indices.
    pub fn map_edges<F, E2>(&self, mut f: F) -> DiGraph<N, E2>
    where
        N: Clone,
        F: FnMut(EdgeId, &E) -> E2,
    {
        DiGraph {
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeData {
                    payload: n.payload.clone(),
                    out_edges: n.out_edges.clone(),
                    in_edges: n.in_edges.clone(),
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, e)| EdgeData {
                    payload: f(EdgeId(i as u32), &e.payload),
                    src: e.src,
                    dst: e.dst,
                })
                .collect(),
        }
    }
}

impl<N: Default, E> DiGraph<N, E> {
    /// Creates a graph with `n` nodes carrying default payloads and no edges.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = DiGraph::with_capacity(n, 0);
        for _ in 0..n {
            g.add_node(N::default());
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph<(), f64> {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 2.0);
        g.add_edge(NodeId(1), NodeId(3), 3.0);
        g.add_edge(NodeId(2), NodeId(3), 4.0);
        g
    }

    #[test]
    fn add_and_count() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(!g.is_empty());
        assert!(DiGraph::<(), ()>::new().is_empty());
    }

    #[test]
    fn adjacency_is_correct() {
        let g = diamond();
        let out0: Vec<_> = g.out_edges(NodeId(0)).map(|e| e.dst).collect();
        assert_eq!(out0, vec![NodeId(1), NodeId(2)]);
        let in3: Vec<_> = g.in_edges(NodeId(3)).map(|e| e.src).collect();
        assert_eq!(in3, vec![NodeId(1), NodeId(2)]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.in_degree(NodeId(3)), 2);
    }

    #[test]
    fn endpoints_and_payloads() {
        let g = diamond();
        let e = g.find_edge(NodeId(2), NodeId(3)).expect("edge exists");
        assert_eq!(g.endpoints(e), (NodeId(2), NodeId(3)));
        assert_eq!(*g.edge(e), 4.0);
        assert_eq!(g.src(e), NodeId(2));
        assert_eq!(g.dst(e), NodeId(3));
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        assert!(g.find_edge(NodeId(3), NodeId(0)).is_none());
    }

    #[test]
    fn multigraph_edges_are_allowed() {
        let mut g: DiGraph<(), u32> = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(0), NodeId(1), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        let payloads: Vec<u32> = g.out_edges(NodeId(0)).map(|e| *e.payload).collect();
        assert_eq!(payloads, vec![1, 2]);
    }

    #[test]
    fn map_edges_preserves_structure() {
        let g = diamond();
        let g2 = g.map_edges(|_, &w| w * 2.0);
        assert_eq!(g2.edge_count(), g.edge_count());
        for e in g.edge_ids() {
            assert_eq!(g.endpoints(e), g2.endpoints(e));
            assert_eq!(*g2.edge(e), *g.edge(e) * 2.0);
        }
    }

    #[test]
    fn edges_iterator_reports_ids_in_order() {
        let g = diamond();
        let ids: Vec<_> = g.edges().map(|e| e.id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_and_debug_formats() {
        assert_eq!(format!("{}", NodeId(3)), "P3");
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{:?}", EdgeId(7)), "e7");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_to_missing_node_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::with_nodes(1);
        g.add_edge(NodeId(0), NodeId(5), ());
    }
}
