//! Maximum flow and minimum s–t cuts on `f64` capacities (Dinic's algorithm).
//!
//! The cut-generation solver for the optimal broadcast throughput (paper
//! Section 4) needs, for every destination `w`, the maximum flow that the
//! current per-edge capacity allocation `n_{u,v}` can carry from the source
//! to `w`, together with a minimum cut when that flow is insufficient. Two
//! entry points share one private residual network with paired arcs:
//! [`MaxFlowSolver`], built once per topology and re-solved under new
//! capacities, and the one-shot [`max_flow`], which builds a network per
//! call and reports per-edge flows and the cut edges too.

use crate::graph::{DiGraph, EdgeId, NodeId};
use std::collections::VecDeque;

/// Relative tolerance used to decide whether residual capacity is exhausted.
const FLOW_EPS: f64 = 1e-12;

/// Internal arc of the residual network.
#[derive(Clone, Debug)]
struct Arc {
    /// Head of the arc.
    to: u32,
    /// Remaining (residual) capacity.
    residual: f64,
    /// Original capacity (0 for reverse arcs).
    capacity: f64,
    /// Index of the paired reverse arc.
    rev: u32,
    /// The platform edge this arc was created from, if any.
    origin: Option<EdgeId>,
}

/// The residual network over `n` nodes behind both entry points.
#[derive(Clone, Debug)]
struct FlowNetwork {
    /// `arcs[u]` lists the residual arcs leaving node `u`.
    arcs: Vec<Vec<Arc>>,
    /// BFS level of each node (Dinic).
    level: Vec<i32>,
    /// Per-node arc cursor (Dinic current-arc optimisation).
    cursor: Vec<usize>,
}

impl FlowNetwork {
    /// Creates an empty network over `n` nodes.
    fn new(n: usize) -> Self {
        FlowNetwork {
            arcs: vec![Vec::new(); n],
            level: vec![-1; n],
            cursor: vec![0; n],
        }
    }

    /// Adds a directed edge `u -> v` with the given capacity.
    ///
    /// Negative capacities are clamped to zero. `origin` optionally records
    /// the platform edge this capacity came from so that cuts can be reported
    /// in terms of platform edges.
    fn add_edge(&mut self, u: NodeId, v: NodeId, capacity: f64, origin: Option<EdgeId>) {
        let capacity = capacity.max(0.0);
        let (ui, vi) = (u.index(), v.index());
        assert!(
            ui < self.arcs.len() && vi < self.arcs.len(),
            "node out of range"
        );
        let fwd_rev = self.arcs[vi].len() as u32;
        let bwd_rev = self.arcs[ui].len() as u32;
        self.arcs[ui].push(Arc {
            to: vi as u32,
            residual: capacity,
            capacity,
            rev: fwd_rev,
            origin,
        });
        self.arcs[vi].push(Arc {
            to: ui as u32,
            residual: 0.0,
            capacity: 0.0,
            rev: bwd_rev,
            origin: None,
        });
    }

    /// Builds the Dinic level graph. Returns `true` when the sink is reachable.
    fn build_levels(&mut self, source: usize, sink: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        self.level[source] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for arc in &self.arcs[u] {
                if arc.residual > FLOW_EPS && self.level[arc.to as usize] < 0 {
                    self.level[arc.to as usize] = self.level[u] + 1;
                    queue.push_back(arc.to as usize);
                }
            }
        }
        self.level[sink] >= 0
    }

    /// Sends blocking flow along the level graph (iterative DFS), stopping
    /// early once `limit` total flow has been pushed in this phase.
    fn augment(&mut self, source: usize, sink: usize, limit: f64) -> f64 {
        let mut total = 0.0;
        loop {
            if total >= limit {
                return total;
            }
            // Find one augmenting path in the level graph.
            let mut path: Vec<(usize, usize)> = Vec::new(); // (node, arc index)
            let mut u = source;
            let found = loop {
                if u == sink {
                    break true;
                }
                let mut advanced = false;
                while self.cursor[u] < self.arcs[u].len() {
                    let ai = self.cursor[u];
                    let arc = &self.arcs[u][ai];
                    if arc.residual > FLOW_EPS && self.level[arc.to as usize] == self.level[u] + 1 {
                        path.push((u, ai));
                        u = arc.to as usize;
                        advanced = true;
                        break;
                    }
                    self.cursor[u] += 1;
                }
                if !advanced {
                    if let Some(&(prev, _)) = path.last() {
                        // Dead end: retreat and advance the parent's cursor.
                        self.level[u] = -1;
                        path.pop();
                        self.cursor[prev] += 1;
                        u = prev;
                    } else {
                        break false;
                    }
                }
            };
            if !found {
                return total;
            }
            // Bottleneck along the path.
            let mut bottleneck = f64::INFINITY;
            for &(u, ai) in &path {
                bottleneck = bottleneck.min(self.arcs[u][ai].residual);
            }
            // Apply.
            for &(u, ai) in &path {
                let to = self.arcs[u][ai].to as usize;
                let rev = self.arcs[u][ai].rev as usize;
                self.arcs[u][ai].residual -= bottleneck;
                self.arcs[to][rev].residual += bottleneck;
            }
            total += bottleneck;
        }
    }

    /// Computes the maximum flow from `source` to `sink` on the current
    /// residual capacities, but stops augmenting once `limit` flow has been
    /// reached. The separation oracle only needs to know whether a
    /// destination's flow clears the current throughput target — pushing
    /// further is wasted work (and the min cut is only consulted when the
    /// limit was *not* reached, where the flow is exact).
    fn max_flow_limited(&mut self, source: NodeId, sink: NodeId, limit: f64) -> f64 {
        let (s, t) = (source.index(), sink.index());
        assert!(
            s < self.arcs.len() && t < self.arcs.len(),
            "node out of range"
        );
        if s == t {
            return f64::INFINITY;
        }
        let mut flow = 0.0;
        while flow < limit && self.build_levels(s, t) {
            self.cursor.iter_mut().for_each(|c| *c = 0);
            let pushed = self.augment(s, t, limit - flow);
            if pushed <= FLOW_EPS {
                break;
            }
            flow += pushed;
        }
        flow
    }

    /// After a max-flow computation, returns the source side of a minimum cut
    /// (the set of nodes reachable from `source` in the residual graph).
    fn min_cut_source_side(&self, source: NodeId) -> Vec<bool> {
        let n = self.arcs.len();
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[source.index()] = true;
        queue.push_back(source.index());
        while let Some(u) = queue.pop_front() {
            for arc in &self.arcs[u] {
                if arc.residual > FLOW_EPS && !visited[arc.to as usize] {
                    visited[arc.to as usize] = true;
                    queue.push_back(arc.to as usize);
                }
            }
        }
        visited
    }

    /// After a max-flow computation, lists the *origin* platform edges that
    /// cross the minimum cut from the source side to the sink side.
    fn min_cut_edges(&self, source: NodeId) -> Vec<EdgeId> {
        let side = self.min_cut_source_side(source);
        let mut cut = Vec::new();
        for (u, arcs) in self.arcs.iter().enumerate() {
            if !side[u] {
                continue;
            }
            for arc in arcs {
                if arc.capacity > 0.0 && !side[arc.to as usize] {
                    if let Some(origin) = arc.origin {
                        cut.push(origin);
                    }
                }
            }
        }
        cut.sort_unstable();
        cut.dedup();
        cut
    }

    /// Flow currently carried by the arc created from platform edge `origin`
    /// (sum over all arcs sharing that origin).
    fn flow_on_origin(&self, origin: EdgeId) -> f64 {
        let mut f = 0.0;
        for arcs in &self.arcs {
            for arc in arcs {
                if arc.origin == Some(origin) {
                    f += arc.capacity - arc.residual;
                }
            }
        }
        f
    }
}

/// A max-flow solver whose residual-network structure is built **once** per
/// graph and whose arcs, level/cursor arrays, and min-cut buffer are reused
/// across solves.
///
/// The cut-generation separation oracle runs one max-flow per destination
/// per master round — hundreds to thousands of calls against the *same*
/// topology with different capacities. The one-shot [`max_flow`] wrapper
/// rebuilds the whole residual network (one allocation per node plus the
/// per-edge arc pairs) on every call; this solver only rewrites the arc
/// capacities in place.
///
/// `Clone` gives each worker of a parallel separation batch its own
/// independent scratch: [`solve_limited`](Self::solve_limited) rewrites
/// every arc's capacity *and* residual before augmenting, so a clone taken
/// at any moment behaves exactly like a freshly built solver.
#[derive(Clone)]
pub struct MaxFlowSolver {
    net: FlowNetwork,
    /// Arc location `(tail node, arc index)` of each platform edge, indexed
    /// by [`EdgeId`].
    locations: Vec<(u32, u32)>,
    /// Reused min-cut membership buffer.
    side: Vec<bool>,
}

impl MaxFlowSolver {
    /// Builds the solver for `graph`'s topology (capacities are supplied per
    /// solve).
    pub fn new<N, E>(graph: &DiGraph<N, E>) -> Self {
        let mut net = FlowNetwork::new(graph.node_count());
        let mut locations = Vec::with_capacity(graph.edge_count());
        for e in graph.edges() {
            locations.push((e.src.index() as u32, net.arcs[e.src.index()].len() as u32));
            net.add_edge(e.src, e.dst, 0.0, Some(e.id));
        }
        let side = vec![false; graph.node_count()];
        MaxFlowSolver {
            net,
            locations,
            side,
        }
    }

    /// Computes the maximum `source → sink` flow under the per-edge
    /// capacities given by `capacity` (negative capacities clamp to zero).
    /// All internal buffers are reused; no allocation on the hot path.
    pub fn solve<C: FnMut(EdgeId) -> f64>(
        &mut self,
        source: NodeId,
        sink: NodeId,
        capacity: C,
    ) -> f64 {
        self.solve_limited(source, sink, capacity, f64::INFINITY)
    }

    /// Like [`solve`](Self::solve) but stops augmenting once `limit` flow is
    /// reached: the separation oracle only asks whether a destination's flow
    /// clears the throughput target. The returned value is exact whenever it
    /// is below `limit`.
    pub fn solve_limited<C: FnMut(EdgeId) -> f64>(
        &mut self,
        source: NodeId,
        sink: NodeId,
        mut capacity: C,
        limit: f64,
    ) -> f64 {
        for (i, &(u, a)) in self.locations.iter().enumerate() {
            let cap = capacity(EdgeId(i as u32)).max(0.0);
            let arc = &mut self.net.arcs[u as usize][a as usize];
            arc.capacity = cap;
            arc.residual = cap;
            let (to, rev) = (arc.to as usize, arc.rev as usize);
            self.net.arcs[to][rev].residual = 0.0;
        }
        self.net.max_flow_limited(source, sink, limit)
    }

    /// Support of the flow found by the **last** [`solve`](Self::solve):
    /// `(platform edge, flow carried)` for every edge with strictly
    /// positive flow, in [`EdgeId`] order. The list is a feasibility
    /// certificate — restricted to any capacity vector `p`, the flow still
    /// carries at least `value − Σ_e (f_e − p_e)⁺` from the same source to
    /// the same sink.
    pub fn flow_support(&self) -> Vec<(u32, f64)> {
        self.locations
            .iter()
            .enumerate()
            .filter_map(|(i, &(u, a))| {
                let arc = &self.net.arcs[u as usize][a as usize];
                let f = arc.capacity - arc.residual;
                (f > 0.0).then_some((i as u32, f))
            })
            .collect()
    }

    /// Source side of a minimum cut for the **last** [`solve`](Self::solve)
    /// (nodes reachable from `source` in the residual graph), in a reused
    /// buffer.
    pub fn min_cut_source_side(&mut self, source: NodeId) -> &[bool] {
        self.side.iter_mut().for_each(|v| *v = false);
        self.side[source.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(source.index());
        while let Some(u) = queue.pop_front() {
            for arc in &self.net.arcs[u] {
                if arc.residual > FLOW_EPS && !self.side[arc.to as usize] {
                    self.side[arc.to as usize] = true;
                    queue.push_back(arc.to as usize);
                }
            }
        }
        &self.side
    }
}

/// Result of [`max_flow`]: the flow value plus per-platform-edge flows.
#[derive(Clone, Debug)]
pub struct MaxFlowResult {
    /// Value of the maximum flow.
    pub value: f64,
    /// Flow assigned to each platform edge (indexed by [`EdgeId`]).
    pub edge_flow: Vec<f64>,
    /// Source-side membership of a minimum cut.
    pub source_side: Vec<bool>,
    /// Platform edges crossing the minimum cut.
    pub cut_edges: Vec<EdgeId>,
}

/// Computes the maximum `source -> sink` flow of `graph` where each edge has
/// capacity `capacity(edge)`.
pub fn max_flow<N, E, C>(
    graph: &DiGraph<N, E>,
    source: NodeId,
    sink: NodeId,
    mut capacity: C,
) -> MaxFlowResult
where
    C: FnMut(EdgeId, &E) -> f64,
{
    let mut net = FlowNetwork::new(graph.node_count());
    for e in graph.edges() {
        net.add_edge(e.src, e.dst, capacity(e.id, e.payload), Some(e.id));
    }
    let value = net.max_flow_limited(source, sink, f64::INFINITY);
    let edge_flow = graph.edge_ids().map(|e| net.flow_on_origin(e)).collect();
    let source_side = net.min_cut_source_side(source);
    let cut_edges = net.min_cut_edges(source);
    MaxFlowResult {
        value,
        edge_flow,
        source_side,
        cut_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic max-flow example with value 19 when capacities are
    /// 0->1:10, 0->2:10, 1->2:2, 1->3:4, 1->4:8, 2->4:9, 4->3:6, 3->5:10, 4->5:10
    fn classic() -> (DiGraph<(), f64>, NodeId, NodeId) {
        let mut g = DiGraph::with_nodes(6);
        let edges = [
            (0, 1, 10.0),
            (0, 2, 10.0),
            (1, 2, 2.0),
            (1, 3, 4.0),
            (1, 4, 8.0),
            (2, 4, 9.0),
            (4, 3, 6.0),
            (3, 5, 10.0),
            (4, 5, 10.0),
        ];
        for (u, v, c) in edges {
            g.add_edge(NodeId(u), NodeId(v), c);
        }
        (g, NodeId(0), NodeId(5))
    }

    #[test]
    fn classic_network_value() {
        let (g, s, t) = classic();
        let r = max_flow(&g, s, t, |_, &c| c);
        assert!((r.value - 19.0).abs() < 1e-9, "value = {}", r.value);
    }

    #[test]
    fn min_cut_capacity_equals_flow() {
        let (g, s, t) = classic();
        let r = max_flow(&g, s, t, |_, &c| c);
        let cut_capacity: f64 = r.cut_edges.iter().map(|&e| *g.edge(e)).sum();
        assert!((cut_capacity - r.value).abs() < 1e-9);
        // Source is on the source side, sink is not.
        assert!(r.source_side[s.index()]);
        assert!(!r.source_side[t.index()]);
    }

    #[test]
    fn flow_conservation_holds() {
        let (g, s, t) = classic();
        let r = max_flow(&g, s, t, |_, &c| c);
        for u in g.node_ids() {
            if u == s || u == t {
                continue;
            }
            let inflow: f64 = g.in_edges(u).map(|e| r.edge_flow[e.id.index()]).sum();
            let outflow: f64 = g.out_edges(u).map(|e| r.edge_flow[e.id.index()]).sum();
            assert!(
                (inflow - outflow).abs() < 1e-9,
                "conservation violated at {u:?}: in {inflow} out {outflow}"
            );
        }
    }

    #[test]
    fn capacities_are_respected() {
        let (g, s, t) = classic();
        let r = max_flow(&g, s, t, |_, &c| c);
        for e in g.edges() {
            let f = r.edge_flow[e.id.index()];
            assert!(f >= -1e-9);
            assert!(f <= *e.payload + 1e-9);
        }
    }

    #[test]
    fn disconnected_sink_gives_zero_flow() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 5.0);
        let r = max_flow(&g, NodeId(0), NodeId(2), |_, &c| c);
        assert_eq!(r.value, 0.0);
        assert!(r.cut_edges.is_empty());
    }

    #[test]
    fn single_bottleneck_path() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 4.0);
        let bottleneck = g.add_edge(NodeId(1), NodeId(2), 1.5);
        g.add_edge(NodeId(2), NodeId(3), 4.0);
        let r = max_flow(&g, NodeId(0), NodeId(3), |_, &c| c);
        assert!((r.value - 1.5).abs() < 1e-12);
        assert_eq!(r.cut_edges, vec![bottleneck]);
    }

    #[test]
    fn parallel_edges_add_capacity() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(1), 2.5);
        let r = max_flow(&g, NodeId(0), NodeId(1), |_, &c| c);
        assert!((r.value - 3.5).abs() < 1e-12);
    }

    #[test]
    fn zero_and_negative_capacities_are_ignored() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 0.0);
        g.add_edge(NodeId(1), NodeId(2), -3.0);
        let r = max_flow(&g, NodeId(0), NodeId(2), |_, &c| c);
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn source_equals_sink_is_infinite() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let mut solver = MaxFlowSolver::new(&g);
        assert!(solver.solve(NodeId(0), NodeId(0), |_| 1.0).is_infinite());
    }

    #[test]
    fn persistent_solver_matches_one_shot_across_capacity_sets() {
        let (g, s, t) = classic();
        let mut solver = MaxFlowSolver::new(&g);
        // Three different capacity assignments against the same topology:
        // the persistent solver must match the one-shot wrapper on value and
        // cut partition every time (buffer reuse must not leak state).
        for scale in [1.0f64, 0.5, 2.25] {
            let reference = max_flow(&g, s, t, |_, &c| c * scale);
            let value = solver.solve(s, t, |e| *g.edge(e) * scale);
            assert!(
                (value - reference.value).abs() < 1e-9,
                "scale {scale}: {value} vs {}",
                reference.value
            );
            assert_eq!(solver.min_cut_source_side(s), &reference.source_side[..]);
        }
        // Zeroing a previously positive capacity must not leave residual
        // flow behind.
        let cut_all = solver.solve(s, t, |_| 0.0);
        assert_eq!(cut_all, 0.0);
    }

    #[test]
    fn fractional_capacities() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 0.3);
        g.add_edge(NodeId(0), NodeId(2), 0.7);
        g.add_edge(NodeId(1), NodeId(3), 0.4);
        g.add_edge(NodeId(2), NodeId(3), 0.5);
        let r = max_flow(&g, NodeId(0), NodeId(3), |_, &c| c);
        assert!((r.value - 0.8).abs() < 1e-9, "value = {}", r.value);
    }
}
