//! The platform graph: processors, links, and convenience accessors.

use crate::cost::LinkCost;
use bcast_net::{traversal, DiGraph, EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// A processor (node) of the platform.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Processor {
    /// Human-readable name, e.g. `"P3"` or `"lan2.host5"`.
    pub name: String,
}

impl Processor {
    /// Creates a processor with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Processor { name: name.into() }
    }
}

/// A heterogeneous platform: a directed graph of processors connected by
/// links with affine communication costs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Platform {
    graph: DiGraph<Processor, LinkCost>,
}

impl Platform {
    /// Starts building a platform.
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder::new()
    }

    /// Wraps an already-built graph (crate-internal: used by drift traces
    /// that grow a platform by node churn).
    pub(crate) fn from_graph(graph: DiGraph<Processor, LinkCost>) -> Platform {
        Platform { graph }
    }

    /// Number of processors.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of directed links.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Edge density: `|E| / (p · (p − 1))` — the probability that a given
    /// ordered pair of processors is connected (the paper's Table 2 metric).
    pub fn density(&self) -> f64 {
        let p = self.node_count() as f64;
        if p <= 1.0 {
            return 0.0;
        }
        self.edge_count() as f64 / (p * (p - 1.0))
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph<Processor, LinkCost> {
        &self.graph
    }

    /// The processor payload of `node`.
    pub fn processor(&self, node: NodeId) -> &Processor {
        self.graph.node(node)
    }

    /// The cost parameters of link `edge`.
    pub fn link_cost(&self, edge: EdgeId) -> &LinkCost {
        self.graph.edge(edge)
    }

    /// Link occupation time `T_{u,v}(L)` of `edge` for a message of `size` bytes.
    pub fn link_time(&self, edge: EdgeId, size: f64) -> f64 {
        self.graph.edge(edge).link_time(size)
    }

    /// Sender occupation time of `edge` for a message of `size` bytes.
    pub fn send_time(&self, edge: EdgeId, size: f64) -> f64 {
        self.graph.edge(edge).send_time(size)
    }

    /// Receiver occupation time of `edge` for a message of `size` bytes.
    pub fn recv_time(&self, edge: EdgeId, size: f64) -> f64 {
        self.graph.edge(edge).recv_time(size)
    }

    /// Per-message sender overhead of node `u` under the multi-port model of
    /// Bar-Noy et al., where the overhead depends only on the sender: the
    /// minimum sender occupation over all outgoing links of `u`. The `send_u`
    /// of [`CommModel::port_period`](crate::CommModel::port_period).
    ///
    /// Returns 0 when `u` has no outgoing link.
    pub fn node_send_time(&self, node: NodeId, size: f64) -> f64 {
        self.graph
            .out_edges(node)
            .map(|e| e.payload.send_time(size))
            .fold(f64::INFINITY, f64::min)
            .let_finite_or(0.0)
    }

    /// True when every processor can be reached from `source` along directed
    /// links, i.e. a broadcast from `source` is feasible at all.
    pub fn is_broadcast_feasible(&self, source: NodeId) -> bool {
        traversal::all_reachable_from(&self.graph, source, None)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.node_ids()
    }

    /// Iterates over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.graph.edge_ids()
    }

    /// Returns a copy of the platform with every link cost replaced by
    /// `f(edge, cost)` — same processors, same topology, new costs. This is
    /// the substrate for derived platforms (drift traces, what-if cost
    /// scalings) that must keep edge identities stable so LP variable
    /// spaces and cut pools can be shared with the original.
    pub fn map_link_costs<F>(&self, f: F) -> Platform
    where
        F: FnMut(EdgeId, &LinkCost) -> LinkCost,
    {
        Platform {
            graph: self.graph.map_edges(f),
        }
    }

    /// Returns a copy of the platform where every link's sender occupation is
    /// replaced by the multi-port overhead of the paper's experiments:
    /// `send_u = overlap · min_w T_{u,w}(reference_size)` spread as a
    /// per-byte cost, identical for every outgoing link of `u`.
    pub fn with_multiport_overheads(&self, overlap: f64, reference_size: f64) -> Platform {
        assert!(overlap > 0.0 && overlap <= 1.0);
        assert!(reference_size > 0.0);
        let mut send_per_node = vec![0.0f64; self.node_count()];
        for u in self.graph.node_ids() {
            let min_t = self
                .graph
                .out_edges(u)
                .map(|e| e.payload.link_time(reference_size))
                .fold(f64::INFINITY, f64::min);
            send_per_node[u.index()] = if min_t.is_finite() {
                overlap * min_t
            } else {
                0.0
            };
        }
        let graph = self.graph.map_edges(|id, cost| {
            let u = self.graph.src(id);
            cost.with_absolute_send_time(send_per_node[u.index()], reference_size)
        });
        Platform { graph }
    }
}

/// Small private helper: map non-finite values to a default.
trait LetFiniteOr {
    fn let_finite_or(self, default: f64) -> f64;
}

impl LetFiniteOr for f64 {
    fn let_finite_or(self, default: f64) -> f64 {
        if self.is_finite() {
            self
        } else {
            default
        }
    }
}

/// Incremental builder for [`Platform`].
#[derive(Clone, Debug, Default)]
pub struct PlatformBuilder {
    graph: DiGraph<Processor, LinkCost>,
}

impl PlatformBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        PlatformBuilder {
            graph: DiGraph::new(),
        }
    }

    /// Adds a processor and returns its node id.
    pub fn add_processor(&mut self, name: impl Into<String>) -> NodeId {
        self.graph.add_node(Processor::new(name))
    }

    /// Adds `count` processors named `P0, P1, …` (continuing from the current
    /// node count) and returns their ids.
    pub fn add_processors(&mut self, count: usize) -> Vec<NodeId> {
        (0..count)
            .map(|_| {
                let idx = self.graph.node_count();
                self.add_processor(format!("P{idx}"))
            })
            .collect()
    }

    /// Adds a directed link `src -> dst` with the given cost.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, cost: LinkCost) -> EdgeId {
        assert!(src != dst, "self-loop links are not allowed");
        self.graph.add_edge(src, dst, cost)
    }

    /// Adds a bidirectional link (two opposite directed links with the same
    /// cost), the usual way to model a full-duplex physical link.
    pub fn add_bidirectional_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        cost: LinkCost,
    ) -> (EdgeId, EdgeId) {
        (self.add_link(a, b, cost), self.add_link(b, a, cost))
    }

    /// Number of processors added so far.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of links added so far.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// True when a directed link `src -> dst` already exists.
    pub fn has_link(&self, src: NodeId, dst: NodeId) -> bool {
        self.graph.has_edge(src, dst)
    }

    /// Finalises the platform.
    pub fn build(self) -> Platform {
        Platform { graph: self.graph }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Platform {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 2.0));
        b.add_link(p[0], p[2], LinkCost::one_port(0.0, 4.0));
        b.build()
    }

    #[test]
    fn builder_counts_and_names() {
        let p = triangle();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 5);
        assert_eq!(p.processor(NodeId(0)).name, "P0");
        assert_eq!(p.processor(NodeId(2)).name, "P2");
    }

    #[test]
    fn density_counts_ordered_pairs() {
        let p = triangle();
        // 5 directed edges over 3*2 = 6 ordered pairs.
        assert!((p.density() - 5.0 / 6.0).abs() < 1e-12);
        let empty = Platform::builder().build();
        assert_eq!(empty.density(), 0.0);
    }

    #[test]
    fn link_times_follow_costs() {
        let p = triangle();
        let e = p.graph().find_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.link_time(e, 2.0), 8.0);
        assert_eq!(p.send_time(e, 2.0), 8.0);
        assert_eq!(p.recv_time(e, 2.0), 8.0);
    }

    #[test]
    fn broadcast_feasibility() {
        let p = triangle();
        assert!(p.is_broadcast_feasible(NodeId(0)));
        // A platform where node 2 has no incoming link.
        let mut b = Platform::builder();
        let n = b.add_processors(3);
        b.add_link(n[0], n[1], LinkCost::default());
        b.add_link(n[2], n[0], LinkCost::default());
        let p2 = b.build();
        assert!(!p2.is_broadcast_feasible(NodeId(0)));
        assert!(p2.is_broadcast_feasible(NodeId(2)));
    }

    #[test]
    fn node_send_time_is_fastest_outgoing_send() {
        let p = triangle();
        // Node 1 has links to 0 (beta 1) and 2 (beta 2): fastest send = 1*size.
        assert_eq!(p.node_send_time(NodeId(1), 3.0), 3.0);
        // Node 2 has only the link back to 1 (beta 2).
        assert_eq!(p.node_send_time(NodeId(2), 3.0), 6.0);
    }

    #[test]
    fn node_without_outgoing_links_has_zero_send_time() {
        let mut b = Platform::builder();
        let n = b.add_processors(2);
        b.add_link(n[0], n[1], LinkCost::default());
        let p = b.build();
        assert_eq!(p.node_send_time(NodeId(1), 100.0), 0.0);
    }

    #[test]
    fn multiport_overheads_follow_fastest_link() {
        let p = triangle();
        let mp = p.with_multiport_overheads(0.8, 10.0);
        // Node 1's fastest outgoing link time for 10 bytes is 10 (beta=1).
        // Every outgoing link of node 1 gets send_time = 8 for 10 bytes.
        for e in mp.graph().out_edges(NodeId(1)) {
            assert!((e.payload.send_time(10.0) - 8.0).abs() < 1e-9);
            assert!(e.payload.is_valid());
        }
        // Link times are unchanged.
        for e in p.edges() {
            assert_eq!(mp.link_time(e, 10.0), p.link_time(e, 10.0));
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_are_rejected() {
        let mut b = Platform::builder();
        let n = b.add_processor("a");
        b.add_link(n, n, LinkCost::default());
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let p = triangle();
        let json = serde_json_like(&p);
        assert!(json.contains("P0"));
    }

    /// Minimal serialization smoke test without pulling serde_json: use the
    /// Debug representation (serde derive correctness is exercised at compile
    /// time; structural checks happen here).
    fn serde_json_like(p: &Platform) -> String {
        format!("{:?}", p)
    }
}
