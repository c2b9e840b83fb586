//! Property-based tests of the graph substrate: max-flow/min-cut duality,
//! flow conservation, Dijkstra consistency and spanning-tree invariants on
//! randomly generated directed graphs.

use bcast_net::{max_flow, shortest_path, spanning, traversal, DiGraph, NodeId};
use proptest::prelude::*;

/// A random directed graph description: node count plus a list of
/// (src, dst, capacity) edges (self-loops filtered out during construction).
#[derive(Clone, Debug)]
struct RandomGraph {
    nodes: usize,
    edges: Vec<(usize, usize, f64)>,
}

fn graph_strategy(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = RandomGraph> {
    (2usize..=max_nodes).prop_flat_map(move |nodes| {
        let edge = (0..nodes, 0..nodes, 0.1f64..10.0);
        proptest::collection::vec(edge, 1..=max_edges)
            .prop_map(move |edges| RandomGraph { nodes, edges })
    })
}

fn build(desc: &RandomGraph) -> DiGraph<(), f64> {
    let mut g: DiGraph<(), f64> = DiGraph::with_nodes(desc.nodes);
    for &(u, v, c) in &desc.edges {
        if u != v {
            g.add_edge(NodeId(u as u32), NodeId(v as u32), c);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Max-flow equals the capacity of the returned minimum cut, the flow
    /// conserves at intermediate nodes and respects every capacity.
    #[test]
    fn maxflow_mincut_duality(desc in graph_strategy(12, 40)) {
        let g = build(&desc);
        let s = NodeId(0);
        let t = NodeId((desc.nodes - 1) as u32);
        let r = max_flow(&g, s, t, |_, &c| c);
        // Duality: value == capacity of the reported cut.
        let cut_capacity: f64 = r.cut_edges.iter().map(|&e| *g.edge(e)).sum();
        prop_assert!((cut_capacity - r.value).abs() < 1e-6,
            "flow {} vs cut {}", r.value, cut_capacity);
        // The cut actually separates s from t.
        prop_assert!(r.source_side[s.index()]);
        prop_assert!(r.value == 0.0 || !r.source_side[t.index()]);
        // Conservation and capacity constraints.
        for u in g.node_ids() {
            if u == s || u == t { continue; }
            let inflow: f64 = g.in_edges(u).map(|e| r.edge_flow[e.id.index()]).sum();
            let outflow: f64 = g.out_edges(u).map(|e| r.edge_flow[e.id.index()]).sum();
            prop_assert!((inflow - outflow).abs() < 1e-6);
        }
        for e in g.edges() {
            let f = r.edge_flow[e.id.index()];
            prop_assert!(f >= -1e-9 && f <= *e.payload + 1e-9);
        }
    }

    /// The max-flow value never exceeds the capacity of *any* s–t cut, in
    /// particular the cut formed by the source's out-edges.
    #[test]
    fn maxflow_bounded_by_source_cut(desc in graph_strategy(10, 30)) {
        let g = build(&desc);
        let s = NodeId(0);
        let t = NodeId((desc.nodes - 1) as u32);
        let r = max_flow(&g, s, t, |_, &c| c);
        let source_cut: f64 = g.out_edges(s).map(|e| *e.payload).sum();
        prop_assert!(r.value <= source_cut + 1e-9);
    }

    /// Dijkstra distances satisfy the triangle inequality along every edge
    /// and agree with BFS reachability.
    #[test]
    fn dijkstra_is_consistent(desc in graph_strategy(12, 40)) {
        let g = build(&desc);
        let sp = shortest_path::dijkstra(&g, NodeId(0), None, |_, &w| w);
        let bfs = traversal::bfs_directed(&g, NodeId(0), None);
        for u in g.node_ids() {
            prop_assert_eq!(sp.reachable(u), bfs.reached(u));
        }
        for e in g.edges() {
            if sp.reachable(e.src) {
                prop_assert!(sp.distance(e.dst) <= sp.distance(e.src) + *e.payload + 1e-9,
                    "triangle inequality violated on {:?}", e.id);
            }
        }
        // Path reconstruction yields exactly the reported distance.
        for u in g.node_ids() {
            if let Some(edges) = sp.path_edges(&g, u) {
                let total: f64 = edges.iter().map(|&e| *g.edge(e)).sum();
                prop_assert!((total - sp.distance(u)).abs() < 1e-9);
            }
        }
    }

    /// Growing an arborescence by any cost function yields a valid spanning
    /// arborescence whenever the graph spans from the root.
    #[test]
    fn grown_arborescences_are_valid(desc in graph_strategy(10, 40)) {
        let g = build(&desc);
        let root = NodeId(0);
        let spans = traversal::all_reachable_from(&g, root, None);
        let result = spanning::grow_arborescence(&g, root, |_, _, e, _| *g.edge(e));
        prop_assert_eq!(result.is_some(), spans);
        if let Some(edges) = result {
            let arb = spanning::Arborescence::from_edges(&g, root, &edges).unwrap();
            prop_assert_eq!(arb.root(), root);
            prop_assert_eq!(arb.edges().len(), g.node_count() - 1);
            // Every non-root node has exactly one parent and the depths are
            // consistent with the parent relation.
            for u in g.node_ids() {
                if u == root {
                    prop_assert!(arb.parent(u).is_none());
                } else {
                    let p = arb.parent(u).unwrap();
                    prop_assert_eq!(arb.depth(u), arb.depth(p) + 1);
                }
            }
        }
    }

}
