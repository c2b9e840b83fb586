//! Property-based tests of the graph substrate: max-flow/min-cut duality,
//! flow conservation, the live-arc solver against the all-arcs reference,
//! warm starts from arbitrary priors, Dijkstra consistency and
//! spanning-tree invariants on randomly generated directed graphs.

mod reference;

use bcast_net::maxflow::MaxFlowSolver;
use bcast_net::{shortest_path, spanning, traversal, DiGraph, NodeId};
use proptest::prelude::*;
use reference::all_arcs_max_flow;

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

/// Capacities that mix ordinary values with zero, negative values and
/// values at or below the solver's `1e-12` liveness tolerance.
fn capacity_strategy() -> impl Strategy<Value = f64> {
    (0u8..10, 0.1f64..10.0).prop_map(|(kind, c)| match kind {
        0 => 0.0,
        1 => -c,
        2 => 1e-12,
        3 => 3e-13,
        _ => c,
    })
}

/// Random digraphs, self-loops and parallel edges included, with
/// [`capacity_strategy`] capacities.
fn mixed_graph_strategy(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = RandomGraph> {
    (2usize..=max_nodes).prop_flat_map(move |nodes| {
        let edge = (0..nodes, 0..nodes, capacity_strategy());
        proptest::collection::vec(edge, 1..=max_edges)
            .prop_map(move |edges| RandomGraph { nodes, edges })
    })
}

/// A warm-start prior: `(edge, flow)` pairs over random edges (indices past
/// the edge count included) with finite flows that may be negative or
/// above any capacity.
fn prior_strategy() -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec((0u32..48, -5.0f64..20.0), 0..=40)
}

/// Builds a graph that keeps every described edge, self-loops included.
fn build_all(desc: &RandomGraph) -> DiGraph<(), f64> {
    let mut g: DiGraph<(), f64> = DiGraph::with_nodes(desc.nodes);
    for &(u, v, c) in &desc.edges {
        g.add_edge(NodeId(u as u32), NodeId(v as u32), c);
    }
    g
}

/// Asserts that `support` is a feasible `source → sink` flow at
/// capacities `capacity`: `0 < f ≤ capacity` and conservation within 1e-9
/// at every other node.
fn assert_feasible(
    g: &DiGraph<(), f64>,
    support: &[(u32, f64)],
    source: NodeId,
    sink: NodeId,
    capacity: &[f64],
) {
    let mut balance = vec![0.0f64; g.node_count()];
    for &(e, f) in support {
        let cap = capacity[e as usize].max(0.0);
        assert!(f > 0.0 && f <= cap, "edge {e}: flow {f}, capacity {cap}");
        let (u, v) = g.endpoints(bcast_net::EdgeId(e));
        balance[u.index()] -= f;
        balance[v.index()] += f;
    }
    for u in g.node_ids().filter(|&u| u != source && u != sink) {
        assert!(
            balance[u.index()].abs() <= 1e-9,
            "node {u:?} imbalance {}",
            balance[u.index()]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A cold solve of the live-arc solver equals the all-arcs reference
    /// bit for bit — value and min-cut side — at every sink, uncapped and
    /// capped at half the flow.
    #[test]
    fn live_arc_solver_matches_the_all_arcs_reference(desc in mixed_graph_strategy(12, 40)) {
        let g = build_all(&desc);
        let n = g.node_count();
        let capacity: Vec<f64> = g.edges().map(|e| *e.payload).collect();
        let edges: Vec<(usize, usize, f64)> =
            g.edges().map(|e| (e.src.index(), e.dst.index(), *e.payload)).collect();
        let mut solver = MaxFlowSolver::new(&g);
        solver.set_capacities(|e| capacity[e.index()]);
        let s = NodeId(0);
        for t in (1..n as u32).map(NodeId) {
            let (value, side) = all_arcs_max_flow(n, &edges, 0, t.index(), f64::INFINITY);
            let got = solver.solve_from(s, t, f64::INFINITY, &[]);
            prop_assert_eq!(got.to_bits(), value.to_bits(), "sink {:?}: {} vs {}", t, got, value);
            prop_assert_eq!(solver.min_cut_source_side(s), &side[..]);
            let limit = 0.5 * value;
            let (capped, capped_side) = all_arcs_max_flow(n, &edges, 0, t.index(), limit);
            let got = solver.solve_from(s, t, limit, &[]);
            prop_assert_eq!(got.to_bits(), capped.to_bits(), "sink {:?} capped", t);
            prop_assert_eq!(solver.min_cut_source_side(s), &capped_side[..]);
        }
    }

    /// Warm solves from arbitrary priors — random edges and flows, and the
    /// support of a solve at other capacities — reach the cold value within
    /// 1e-9 relative with the same min-cut side, and leave a feasible flow.
    #[test]
    fn warm_solves_match_cold_from_any_prior(
        desc in mixed_graph_strategy(12, 40),
        prior in prior_strategy(),
        scale in (0u8..4, 0.3f64..1.7),
    ) {
        let g = build_all(&desc);
        let n = g.node_count();
        let capacity: Vec<f64> = g.edges().map(|e| *e.payload).collect();
        // A second capacity set: some edges rescaled, some killed.
        let (kill, factor) = scale;
        let shifted: Vec<f64> = capacity
            .iter()
            .enumerate()
            .map(|(i, &c)| if i % 4 == kill as usize { 0.0 } else { c * factor })
            .collect();
        let mut solver = MaxFlowSolver::new(&g);
        let s = NodeId(0);
        for t in (1..n as u32).map(NodeId) {
            solver.set_capacities(|e| shifted[e.index()]);
            solver.solve_from(s, t, f64::INFINITY, &[]);
            let stale = solver.flow_support();
            solver.set_capacities(|e| capacity[e.index()]);
            let cold = solver.solve_from(s, t, f64::INFINITY, &[]);
            let side = solver.min_cut_source_side(s).to_vec();
            let own = solver.flow_support();
            for warm in [&prior, &stale, &own] {
                let value = solver.solve_from(s, t, f64::INFINITY, warm);
                prop_assert!((value - cold).abs() <= 1e-9 * cold.max(1.0),
                    "sink {:?}: warm {} vs cold {}", t, value, cold);
                prop_assert_eq!(solver.min_cut_source_side(s), &side[..]);
                assert_feasible(&g, &solver.flow_support(), s, t, &capacity);
            }
        }
    }

    /// Max-flow equals the capacity of the returned minimum cut, the flow
    /// conserves at intermediate nodes and respects every capacity.
    #[test]
    fn maxflow_mincut_duality(desc in graph_strategy(12, 40)) {
        let g = build(&desc);
        let s = NodeId(0);
        let t = NodeId((desc.nodes - 1) as u32);
        let capacity: Vec<f64> = g.edges().map(|e| *e.payload).collect();
        let mut solver = MaxFlowSolver::new(&g);
        let value = solver.solve(s, t, |e| capacity[e.index()]);
        // Duality: value == capacity of the edges leaving the cut's source side.
        let side = solver.min_cut_source_side(s);
        let cut_capacity: f64 = g
            .edges()
            .filter(|e| side[e.src.index()] && !side[e.dst.index()])
            .map(|e| *e.payload)
            .sum();
        prop_assert!((cut_capacity - value).abs() < 1e-6,
            "flow {} vs cut {}", value, cut_capacity);
        // The cut actually separates s from t.
        prop_assert!(side[s.index()]);
        prop_assert!(value == 0.0 || !side[t.index()]);
        // Conservation and capacity constraints.
        assert_feasible(&g, &solver.flow_support(), s, t, &capacity);
    }

    /// The max-flow value never exceeds the capacity of *any* s–t cut, in
    /// particular the cut formed by the source's out-edges.
    #[test]
    fn maxflow_bounded_by_source_cut(desc in graph_strategy(10, 30)) {
        let g = build(&desc);
        let s = NodeId(0);
        let t = NodeId((desc.nodes - 1) as u32);
        let value = MaxFlowSolver::new(&g).solve(s, t, |e| *g.edge(e));
        let source_cut: f64 = g.out_edges(s).map(|e| *e.payload).sum();
        prop_assert!(value <= source_cut + 1e-9);
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
