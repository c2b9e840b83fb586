//! Maximum flow and minimum s–t cuts on `f64` capacities (Dinic's algorithm).
//!
//! The cut-generation solver for the optimal broadcast throughput (paper
//! Section 4) needs, for every destination `w`, the maximum flow that the
//! current per-edge capacity allocation `n_{u,v}` can carry from the source
//! to `w`, together with a minimum cut when that flow is insufficient.
//!
//! [`MaxFlowSolver`] is the crate's one residual network: built once per
//! topology, given a capacity vector by
//! [`set_capacities`](MaxFlowSolver::set_capacities), and solved from zero
//! or from a prior flow by [`solve_from`](MaxFlowSolver::solve_from). A
//! caller with a single question builds a solver and calls
//! [`solve`](MaxFlowSolver::solve), then reads the flow from
//! [`flow_support`](MaxFlowSolver::flow_support) and the cut from
//! [`min_cut_source_side`](MaxFlowSolver::min_cut_source_side).

use crate::graph::{DiGraph, EdgeId, NodeId};

/// Absolute tolerance below which a residual capacity counts as exhausted,
/// and at or below which an edge's capacity counts as zero (a *dead* edge).
const FLOW_EPS: f64 = 1e-12;

/// Marks "no level" and "no live arc".
const NONE: u32 = u32::MAX;

/// A Dinic max-flow solver over one flat residual network, built **once**
/// per topology and re-solved under new capacities without allocating.
///
/// The cut-generation separation oracle runs one max-flow per destination
/// per master round — tens of thousands of calls against the *same*
/// topology, a batch of them at each capacity vector.
///
/// - **Arc order.** Every node lists its residual arcs in the order of the
///   edges incident to it, by edge id: an edge's forward arc sits at its
///   tail and its paired reverse arc at its head. The augmenting paths,
///   and with them the flow values and cuts, follow from that order.
/// - **Live arcs.** [`set_capacities`](Self::set_capacities) packs only the
///   *live* edges — capacity above an absolute `1e-12` — into the working
///   arrays, both arcs of each, in that same relative order. A dead edge
///   can never carry flow: its forward arc never has residual above the
///   tolerance and its reverse arc never gains any. Dropping both changes
///   no augmenting path, so the result equals the all-arcs network's bit
///   for bit.
/// - **Sink-bounded levels.** Each Dinic phase's breadth-first search stops
///   as soon as it labels the sink, and the blocking-flow search treats
///   every node at or past the sink's level as a dead end. No such node
///   lies on a shortest augmenting path, so again no path changes.
/// - **Warm start.** [`solve_from`](Self::solve_from) may start from a
///   prior flow, typically the [`flow_support`](Self::flow_support) of an
///   earlier solve at other capacities. It peels source→sink paths off the
///   prior over live forward arcs and keeps each at the smaller of its flow
///   and the capacity still free along it, then finishes with Dinic. Any
///   prior — empty, stale, negative, above capacity, on dead or unknown
///   edges — gives a feasible start, so the answer never depends on it:
///   the value is the maximum flow, and the minimum cut's source side (the
///   nodes reachable from the source in the residual network) is the same
///   for every maximum flow.
///
/// `Clone` gives each worker of a parallel separation batch its own
/// scratch. Every solve resets all residuals from the capacities first, so
/// a clone taken at any moment behaves exactly like the original.
#[derive(Clone)]
pub struct MaxFlowSolver {
    /// Tail and head of each edge, indexed by [`EdgeId`].
    ends: Vec<(u32, u32)>,
    /// `incident[incident_start[u]..incident_start[u + 1]]` lists node `u`'s
    /// arcs in network order, each as `edge << 1 | is_reverse`.
    incident_start: Vec<u32>,
    incident: Vec<u32>,
    /// Capacity of each edge (negative values clamped to zero).
    capacity: Vec<f64>,
    /// Live forward arc of each edge, or [`NONE`] when the edge is dead.
    fwd_arc: Vec<u32>,
    /// Live reverse arc of each edge (meaningful only while it is live).
    bwd_arc: Vec<u32>,
    /// Live arcs leaving node `u`: `first[u]..first[u + 1]`.
    first: Vec<u32>,
    /// Head of each live arc.
    to: Vec<u32>,
    /// Index of each live arc's paired arc.
    rev: Vec<u32>,
    /// Residual capacity of each live arc at the start of a solve: the
    /// capacity for a forward arc, 0 for a reverse arc.
    base: Vec<f64>,
    /// Residual capacity of each live arc.
    residual: Vec<f64>,
    /// Prior flow still to peel on each live forward arc (warm start).
    prior: Vec<f64>,
    /// BFS level of each node, or [`NONE`].
    level: Vec<u32>,
    /// Current-arc cursor of each node (an index into the live arcs).
    cursor: Vec<u32>,
    /// Nodes on the warm-start walk's current path.
    on_path: Vec<bool>,
    /// BFS queue.
    queue: Vec<u32>,
    /// Arcs of the path being searched.
    path: Vec<u32>,
    /// Min-cut membership.
    side: Vec<bool>,
    /// Dinic phases the last solve ran.
    phases: usize,
}

impl MaxFlowSolver {
    /// Builds the solver for `graph`'s topology. Every edge starts at
    /// capacity 0 until [`set_capacities`](Self::set_capacities).
    pub fn new<N, E>(graph: &DiGraph<N, E>) -> Self {
        let n = graph.node_count();
        let m = graph.edge_count();
        let ends: Vec<(u32, u32)> = graph.edges().map(|e| (e.src.0, e.dst.0)).collect();
        let mut incident_start = vec![0u32; n + 1];
        for &(u, v) in &ends {
            incident_start[u as usize + 1] += 1;
            incident_start[v as usize + 1] += 1;
        }
        for u in 0..n {
            incident_start[u + 1] += incident_start[u];
        }
        let mut fill: Vec<u32> = incident_start[..n].to_vec();
        let mut incident = vec![0u32; 2 * m];
        for (e, &(u, v)) in ends.iter().enumerate() {
            incident[fill[u as usize] as usize] = (e as u32) << 1;
            fill[u as usize] += 1;
            incident[fill[v as usize] as usize] = (e as u32) << 1 | 1;
            fill[v as usize] += 1;
        }
        MaxFlowSolver {
            ends,
            incident_start,
            incident,
            capacity: vec![0.0; m],
            fwd_arc: vec![NONE; m],
            bwd_arc: vec![NONE; m],
            first: vec![0; n + 1],
            to: Vec::new(),
            rev: Vec::new(),
            base: Vec::new(),
            residual: Vec::new(),
            prior: Vec::new(),
            level: vec![NONE; n],
            cursor: vec![0; n],
            on_path: vec![false; n],
            queue: Vec::with_capacity(n),
            path: Vec::new(),
            side: vec![false; n],
            phases: 0,
        }
    }

    /// Sets every edge's capacity to `capacity(edge)` (negative values
    /// clamp to zero) and packs the live arcs. Later solves run at these
    /// capacities until the next call.
    pub fn set_capacities<C: FnMut(EdgeId) -> f64>(&mut self, mut capacity: C) {
        for (e, cap) in self.capacity.iter_mut().enumerate() {
            *cap = capacity(EdgeId(e as u32)).max(0.0);
        }
        self.to.clear();
        self.base.clear();
        let n = self.level.len();
        for u in 0..n {
            self.first[u] = self.to.len() as u32;
            let arcs = self.incident_start[u] as usize..self.incident_start[u + 1] as usize;
            for &code in &self.incident[arcs] {
                let e = (code >> 1) as usize;
                let cap = self.capacity[e];
                if cap <= FLOW_EPS {
                    self.fwd_arc[e] = NONE;
                    continue;
                }
                let arc = self.to.len() as u32;
                let (tail, head) = self.ends[e];
                if code & 1 == 0 {
                    self.fwd_arc[e] = arc;
                    self.to.push(head);
                    self.base.push(cap);
                } else {
                    self.bwd_arc[e] = arc;
                    self.to.push(tail);
                    self.base.push(0.0);
                }
            }
        }
        let live = self.to.len();
        self.first[n] = live as u32;
        self.rev.resize(live, NONE);
        for (&fwd, &bwd) in self.fwd_arc.iter().zip(&self.bwd_arc) {
            if fwd != NONE {
                self.rev[fwd as usize] = bwd;
                self.rev[bwd as usize] = fwd;
            }
        }
        self.residual.clear();
        self.residual.extend_from_slice(&self.base);
        self.prior.clear();
        self.prior.resize(live, 0.0);
    }

    /// Computes the maximum `source → sink` flow under the per-edge
    /// capacities given by `capacity` (negative capacities clamp to zero):
    /// [`set_capacities`](Self::set_capacities) plus a cold
    /// [`solve_from`](Self::solve_from).
    pub fn solve<C: FnMut(EdgeId) -> f64>(
        &mut self,
        source: NodeId,
        sink: NodeId,
        capacity: C,
    ) -> f64 {
        self.set_capacities(capacity);
        self.solve_from(source, sink, f64::INFINITY, &[])
    }

    /// Computes the maximum `source → sink` flow at the capacities of the
    /// last [`set_capacities`](Self::set_capacities), starting from the
    /// prior flow `warm` (`(edge, flow)` pairs; empty for a cold solve) and
    /// stopping once `limit` flow is reached. The returned value is exact
    /// whenever it is below `limit`, and never above the maximum flow.
    ///
    /// The prior only decides where the search starts: source→sink paths
    /// are peeled off it over live forward arcs, skipping nodes already on
    /// the path being walked, and each path keeps the smaller of its flow
    /// and the capacity still free along it. Entries that are negative,
    /// not finite, on dead edges or on unknown edges are ignored, and flow
    /// above capacity is clipped, so every prior yields a feasible start.
    pub fn solve_from(
        &mut self,
        source: NodeId,
        sink: NodeId,
        limit: f64,
        warm: &[(u32, f64)],
    ) -> f64 {
        let (s, t) = (source.index(), sink.index());
        let n = self.level.len();
        assert!(s < n && t < n, "node out of range");
        self.phases = 0;
        self.residual.copy_from_slice(&self.base);
        if s == t {
            return f64::INFINITY;
        }
        let mut flow = self.install_warm(s, t, warm);
        while flow < limit && self.build_levels(s, t) {
            self.phases += 1;
            self.cursor.copy_from_slice(&self.first[..n]);
            let pushed = self.augment(s, t, limit - flow);
            if pushed <= FLOW_EPS {
                break;
            }
            flow += pushed;
        }
        flow
    }

    /// Dinic phases (level graphs that reached the sink, each followed by
    /// a blocking flow) the last solve ran.
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// Support of the flow found by the **last** solve: `(platform edge,
    /// flow carried)` for every edge with strictly positive flow, in
    /// [`EdgeId`] order. The list is a feasibility certificate — restricted
    /// to any capacity vector `p`, the flow still carries at least
    /// `value − Σ_e (f_e − p_e)⁺` from the same source to the same sink —
    /// and a warm start for a later [`solve_from`](Self::solve_from).
    pub fn flow_support(&self) -> Vec<(u32, f64)> {
        self.fwd_arc
            .iter()
            .enumerate()
            .filter(|&(_, &arc)| arc != NONE)
            .filter_map(|(e, &arc)| {
                let f = self.capacity[e] - self.residual[arc as usize];
                (f > 0.0).then_some((e as u32, f))
            })
            .collect()
    }

    /// Source side of a minimum cut for the **last** solve (nodes reachable
    /// from `source` in the residual network), in a reused buffer.
    pub fn min_cut_source_side(&mut self, source: NodeId) -> &[bool] {
        self.side.iter_mut().for_each(|v| *v = false);
        self.side[source.index()] = true;
        self.queue.clear();
        self.queue.push(source.0);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for arc in self.first[u as usize] as usize..self.first[u as usize + 1] as usize {
                let v = self.to[arc] as usize;
                if self.residual[arc] > FLOW_EPS && !self.side[v] {
                    self.side[v] = true;
                    self.queue.push(v as u32);
                }
            }
        }
        &self.side
    }

    /// Installs the feasible part of the prior flow `warm` in the residual
    /// network and returns its value. The walk runs depth first over live
    /// forward arcs that still hold prior flow, never re-enters a node on
    /// its current path (so prior cycles cannot trap it), and keeps each
    /// node's cursor for the whole walk, so a node it retreated from stays
    /// a dead end. Each time it reaches the sink it peels the path: the
    /// path's prior flow (its smallest arc prior) leaves the prior, and the
    /// smaller of that and the path's free capacity is pushed.
    fn install_warm(&mut self, s: usize, t: usize, warm: &[(u32, f64)]) -> f64 {
        let mut any = false;
        for &(e, f) in warm {
            match self.fwd_arc.get(e as usize) {
                Some(&arc) if arc != NONE && f > 0.0 && f.is_finite() => {
                    self.prior[arc as usize] += f;
                    any = true;
                }
                _ => {}
            }
        }
        if !any {
            return 0.0;
        }
        let n = self.level.len();
        self.cursor.copy_from_slice(&self.first[..n]);
        self.on_path.iter_mut().for_each(|p| *p = false);
        self.on_path[s] = true;
        self.path.clear();
        let mut value = 0.0;
        let mut u = s;
        loop {
            if u == t {
                let mut peeled = f64::INFINITY;
                let mut free = f64::INFINITY;
                for &arc in &self.path {
                    peeled = peeled.min(self.prior[arc as usize]);
                    free = free.min(self.residual[arc as usize]);
                }
                let pushed = peeled.min(free);
                for &arc in &self.path {
                    self.prior[arc as usize] -= peeled;
                    self.residual[arc as usize] -= pushed;
                    self.residual[self.rev[arc as usize] as usize] += pushed;
                    self.on_path[self.to[arc as usize] as usize] = false;
                }
                value += pushed;
                self.path.clear();
                u = s;
                continue;
            }
            let end = self.first[u + 1];
            let mut advanced = false;
            while self.cursor[u] < end {
                let arc = self.cursor[u] as usize;
                let v = self.to[arc] as usize;
                if self.prior[arc] > 0.0 && !self.on_path[v] {
                    self.path.push(arc as u32);
                    self.on_path[v] = true;
                    u = v;
                    advanced = true;
                    break;
                }
                self.cursor[u] += 1;
            }
            if !advanced {
                let Some(arc) = self.path.pop() else { break };
                self.on_path[u] = false;
                let prev = self.to[self.rev[arc as usize] as usize] as usize;
                self.cursor[prev] += 1;
                u = prev;
            }
        }
        for &(e, _) in warm {
            if let Some(&arc) = self.fwd_arc.get(e as usize) {
                if arc != NONE {
                    self.prior[arc as usize] = 0.0;
                }
            }
        }
        value
    }

    /// Builds the Dinic level graph up to the sink's level. Returns `true`
    /// when the sink is reachable. Nodes that were labelled at the sink's
    /// level before the sink are unlabelled again: no shortest augmenting
    /// path passes through them.
    fn build_levels(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = NONE);
        self.level[s] = 0;
        self.queue.clear();
        self.queue.push(s as u32);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            let next = self.level[u] + 1;
            for arc in self.first[u] as usize..self.first[u + 1] as usize {
                let v = self.to[arc] as usize;
                if self.residual[arc] > FLOW_EPS && self.level[v] == NONE {
                    self.level[v] = next;
                    if v == t {
                        for &w in &self.queue[head..] {
                            if self.level[w as usize] == next {
                                self.level[w as usize] = NONE;
                            }
                        }
                        return true;
                    }
                    self.queue.push(v as u32);
                }
            }
        }
        false
    }

    /// Sends blocking flow along the level graph (iterative DFS with
    /// current-arc cursors), stopping early once `limit` total flow has
    /// been pushed in this phase.
    fn augment(&mut self, s: usize, t: usize, limit: f64) -> f64 {
        let mut total = 0.0;
        loop {
            if total >= limit {
                return total;
            }
            // Find one augmenting path in the level graph.
            self.path.clear();
            let mut u = s;
            let found = loop {
                if u == t {
                    break true;
                }
                let end = self.first[u + 1];
                let mut advanced = false;
                while self.cursor[u] < end {
                    let arc = self.cursor[u] as usize;
                    let v = self.to[arc] as usize;
                    if self.residual[arc] > FLOW_EPS && self.level[v] == self.level[u] + 1 {
                        self.path.push(arc as u32);
                        u = v;
                        advanced = true;
                        break;
                    }
                    self.cursor[u] += 1;
                }
                if !advanced {
                    let Some(arc) = self.path.pop() else {
                        break false;
                    };
                    // Dead end: retreat and advance the parent's cursor.
                    self.level[u] = NONE;
                    let prev = self.to[self.rev[arc as usize] as usize] as usize;
                    self.cursor[prev] += 1;
                    u = prev;
                }
            };
            if !found {
                return total;
            }
            let mut bottleneck = f64::INFINITY;
            for &arc in &self.path {
                bottleneck = bottleneck.min(self.residual[arc as usize]);
            }
            for &arc in &self.path {
                self.residual[arc as usize] -= bottleneck;
                self.residual[self.rev[arc as usize] as usize] += bottleneck;
            }
            total += bottleneck;
        }
    }
}

#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::all_arcs_max_flow;
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

    /// A cold solve of `g` at its payload capacities: the solver, to read
    /// the flow and the cut from, and the flow value.
    fn solve(g: &DiGraph<(), f64>, s: NodeId, t: NodeId) -> (MaxFlowSolver, f64) {
        let mut solver = MaxFlowSolver::new(g);
        let value = solver.solve(s, t, |e| *g.edge(e));
        (solver, value)
    }

    /// Flow on every edge after the solver's last solve, by edge id.
    fn edge_flow(solver: &MaxFlowSolver, edges: usize) -> Vec<f64> {
        let mut flow = vec![0.0; edges];
        for (e, f) in solver.flow_support() {
            flow[e as usize] = f;
        }
        flow
    }

    /// Edges of positive capacity from `side` to the other nodes.
    fn crossing_edges(g: &DiGraph<(), f64>, side: &[bool]) -> Vec<EdgeId> {
        g.edges()
            .filter(|e| *e.payload > 0.0 && side[e.src.index()] && !side[e.dst.index()])
            .map(|e| e.id)
            .collect()
    }

    #[test]
    fn classic_network_value() {
        let (g, s, t) = classic();
        let (_, value) = solve(&g, s, t);
        assert!((value - 19.0).abs() < 1e-9, "value = {value}");
    }

    #[test]
    fn min_cut_capacity_equals_flow() {
        let (g, s, t) = classic();
        let (mut solver, value) = solve(&g, s, t);
        let side = solver.min_cut_source_side(s);
        let cut_capacity: f64 = crossing_edges(&g, side).iter().map(|&e| *g.edge(e)).sum();
        assert!((cut_capacity - value).abs() < 1e-9);
        // Source is on the source side, sink is not.
        assert!(side[s.index()]);
        assert!(!side[t.index()]);
    }

    #[test]
    fn flow_conservation_holds() {
        let (g, s, t) = classic();
        let (solver, _) = solve(&g, s, t);
        let flow = edge_flow(&solver, g.edge_count());
        for u in g.node_ids() {
            if u == s || u == t {
                continue;
            }
            let inflow: f64 = g.in_edges(u).map(|e| flow[e.id.index()]).sum();
            let outflow: f64 = g.out_edges(u).map(|e| flow[e.id.index()]).sum();
            assert!(
                (inflow - outflow).abs() < 1e-9,
                "conservation violated at {u:?}: in {inflow} out {outflow}"
            );
        }
    }

    #[test]
    fn capacities_are_respected() {
        let (g, s, t) = classic();
        let (solver, _) = solve(&g, s, t);
        let flow = edge_flow(&solver, g.edge_count());
        for e in g.edges() {
            let f = flow[e.id.index()];
            assert!(f >= -1e-9);
            assert!(f <= *e.payload + 1e-9);
        }
    }

    #[test]
    fn disconnected_sink_gives_zero_flow() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 5.0);
        let (mut solver, value) = solve(&g, NodeId(0), NodeId(2));
        assert_eq!(value, 0.0);
        assert!(crossing_edges(&g, solver.min_cut_source_side(NodeId(0))).is_empty());
    }

    #[test]
    fn single_bottleneck_path() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 4.0);
        let bottleneck = g.add_edge(NodeId(1), NodeId(2), 1.5);
        g.add_edge(NodeId(2), NodeId(3), 4.0);
        let (mut solver, value) = solve(&g, NodeId(0), NodeId(3));
        assert!((value - 1.5).abs() < 1e-12);
        let side = solver.min_cut_source_side(NodeId(0));
        assert_eq!(crossing_edges(&g, side), vec![bottleneck]);
    }

    #[test]
    fn parallel_edges_add_capacity() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(1), 2.5);
        let (_, value) = solve(&g, NodeId(0), NodeId(1));
        assert!((value - 3.5).abs() < 1e-12);
    }

    #[test]
    fn zero_and_negative_capacities_are_ignored() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 0.0);
        g.add_edge(NodeId(1), NodeId(2), -3.0);
        let (_, value) = solve(&g, NodeId(0), NodeId(2));
        assert_eq!(value, 0.0);
    }

    #[test]
    fn source_equals_sink_is_infinite() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let mut solver = MaxFlowSolver::new(&g);
        assert!(solver.solve(NodeId(0), NodeId(0), |_| 1.0).is_infinite());
        // At the same capacities, a solve to a real sink leaves flow; the
        // next source == sink solve must not report it as its own.
        let (s, t) = (NodeId(0), NodeId(1));
        assert_eq!(solver.solve_from(s, t, f64::INFINITY, &[]), 1.0);
        assert!(solver.solve_from(s, s, f64::INFINITY, &[]).is_infinite());
        assert!(solver.flow_support().is_empty());
    }

    #[test]
    fn persistent_solver_matches_one_shot_across_capacity_sets() {
        let (g, s, t) = classic();
        let mut solver = MaxFlowSolver::new(&g);
        // Capacity sets against the same topology, one of them with dead
        // edges: the persistent solver must match the all-arcs reference's
        // value bits and cut partition every time (buffer reuse must not
        // leak state).
        for scale in [1.0f64, 0.5, 2.25, 0.0] {
            let caps: Vec<f64> = g
                .edges()
                .map(|e| match e.id.0 {
                    2 | 6 if scale == 0.5 => 0.0,
                    _ => *e.payload * scale,
                })
                .collect();
            let edges: Vec<(usize, usize, f64)> = g
                .edges()
                .map(|e| (e.src.index(), e.dst.index(), caps[e.id.index()]))
                .collect();
            let (value, side) =
                all_arcs_max_flow(g.node_count(), &edges, s.index(), t.index(), f64::INFINITY);
            let got = solver.solve(s, t, |e| caps[e.index()]);
            assert_eq!(
                got.to_bits(),
                value.to_bits(),
                "scale {scale}: {got} vs {value}"
            );
            assert_eq!(solver.min_cut_source_side(s), &side[..]);
        }
    }

    #[test]
    fn warm_start_from_own_max_flow_runs_no_phase() {
        let (g, s, t) = classic();
        let mut solver = MaxFlowSolver::new(&g);
        let cold = solver.solve(s, t, |e| *g.edge(e));
        assert!(solver.phases() > 0);
        let support = solver.flow_support();
        let side = solver.min_cut_source_side(s).to_vec();
        // Same capacities, warm from the max flow itself: the installed
        // flow is already maximum, so no level graph reaches the sink.
        let warm = solver.solve_from(s, t, f64::INFINITY, &support);
        assert_eq!(solver.phases(), 0, "the warm start was not installed");
        assert!((warm - cold).abs() <= 1e-12 * cold, "{warm} vs {cold}");
        assert_eq!(solver.min_cut_source_side(s), &side[..]);
    }

    #[test]
    fn warm_start_survives_capacity_changes() {
        let (g, s, t) = classic();
        let mut solver = MaxFlowSolver::new(&g);
        solver.solve(s, t, |e| *g.edge(e));
        let support = solver.flow_support();
        // Halve some capacities and zero one edge the prior flow uses: the
        // clipped prior must still finish at the true maximum.
        let caps = |e: EdgeId| match e.0 {
            4 => 0.0,
            k if k % 2 == 0 => *g.edge(e) * 0.5,
            _ => *g.edge(e),
        };
        let mut fresh = MaxFlowSolver::new(&g);
        let cold = fresh.solve(s, t, caps);
        let cold_side = fresh.min_cut_source_side(s).to_vec();
        solver.set_capacities(caps);
        let warm = solver.solve_from(s, t, f64::INFINITY, &support);
        assert!((warm - cold).abs() <= 1e-9, "{warm} vs {cold}");
        assert_eq!(solver.min_cut_source_side(s), &cold_side[..]);
    }

    #[test]
    fn fractional_capacities() {
        let mut g: DiGraph<(), f64> = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 0.3);
        g.add_edge(NodeId(0), NodeId(2), 0.7);
        g.add_edge(NodeId(1), NodeId(3), 0.4);
        g.add_edge(NodeId(2), NodeId(3), 0.5);
        let (_, value) = solve(&g, NodeId(0), NodeId(3));
        assert!((value - 0.8).abs() < 1e-9, "value = {value}");
    }
}
