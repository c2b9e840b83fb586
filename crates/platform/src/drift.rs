//! Deterministic link-cost drift traces for dynamic platforms.
//!
//! The paper's platform is *static*: link costs are sampled once and the
//! throughput LP is solved once. Real content-delivery and overlay-streaming
//! systems face links whose effective bandwidth drifts over time and whole
//! links that fail and recover (the tree-maintenance problem of the
//! peer-to-peer streaming literature). A [`DriftTrace`] models exactly that
//! as a **replayable** sequence of platform snapshots:
//!
//! * every step multiplies each link's cost by a lognormal factor
//!   `exp(σ·z)`, `z ~ N(0, 1)` — bandwidth random-walks around its base
//!   value, its cumulative factor clamped to `[0.25, 4]` so a long trace
//!   cannot drift into degeneracy;
//! * links fail (and later recover) with configurable per-step
//!   probabilities. A failure is **soft**: the link's cost is scaled by
//!   [`FAILED_COST_FACTOR`] instead of the edge being removed, so every
//!   snapshot shares the base platform's edge identities — the property
//!   that lets the LP variable space, the simplex basis, and the cut pool
//!   survive across steps. A failure that would disconnect the broadcast
//!   source is skipped (the trace stays feasible by construction);
//! * nodes join and leave with configurable per-step probabilities. A
//!   joiner attaches to two distinct alive nodes, and each attachment
//!   link's bandwidth is a fresh draw from the paper's Table 2
//!   distribution (100 ± 20 MB/s, floored at 10 MB/s), whatever family the
//!   base platform came from.
//!
//! The whole trace is generated up front from one seed (`StdRng`), so two
//! generations from the same `(platform, source, config)` are bit-identical
//! and a trace can be replayed step by step — `platform_at(k)` is a pure
//! function of the trace. Step 0 is always the unperturbed base platform.

use crate::cost::LinkCost;
use crate::generators::gaussian::{sample_normal, sample_normal_at_least};
use crate::platform::Platform;
use bcast_net::{traversal, EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cost multiplier applied to a failed link: the link nominally stays in
/// the platform (keeping edge identities stable for incremental solvers)
/// but is six orders of magnitude slower, so the throughput LP drives its
/// load to numerical zero.
pub const FAILED_COST_FACTOR: f64 = 1.0e6;

// The corridor a link's cumulative drift factor is clamped to.
const MIN_FACTOR: f64 = 0.25;
const MAX_FACTOR: f64 = 4.0;

/// Number of distinct alive nodes a joining node attaches to (clamped to
/// the current alive count).
const ATTACH_DEGREE: usize = 2;

// Bandwidth distribution of a joiner's attachment links, in bytes/second:
// the paper's Table 2 (100 ± 20 MB/s, floored at 10 MB/s so costs stay
// finite), the parameters shared by its random and Tiers configurations.
// Links are latency-free. A joiner's links are fresh draws, not copies of
// existing (possibly already drifted or atypical) links.
const JOIN_BANDWIDTH_MEAN: f64 = 100.0e6;
const JOIN_BANDWIDTH_DEV: f64 = 20.0e6;
const JOIN_BANDWIDTH_FLOOR: f64 = 10.0e6;

/// Parameters of [`DriftTrace::generate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftConfig {
    /// Number of drift steps after the baseline (the trace has `steps + 1`
    /// snapshots, snapshot 0 being the unperturbed platform).
    pub steps: usize,
    /// Standard deviation `σ` of the per-step log-factor: each step
    /// multiplies each link cost by `exp(σ·z)`, `z ~ N(0, 1)`. `0.1`–`0.2`
    /// models gentle bandwidth fluctuation; `0` freezes the costs (only
    /// failures remain).
    pub sigma: f64,
    /// Per-step probability that a live link fails (soft failure, see the
    /// module docs). Failures that would disconnect the source are skipped.
    pub failure_rate: f64,
    /// Per-step probability that a failed link recovers.
    pub recovery_rate: f64,
    /// RNG seed; the trace is a pure function of `(platform, source, self)`.
    pub seed: u64,
    /// Per-step probability that a new node joins the platform, attached
    /// as the module docs describe.
    /// `0.0` — the default of every cost-only constructor — disables
    /// topology churn entirely and keeps the RNG stream bit-identical to
    /// pre-churn traces.
    pub join_rate: f64,
    /// Per-step probability that one uniformly-chosen alive non-source node
    /// leaves. A departure that would disconnect a surviving node (over the
    /// alive, non-failed edge set) is skipped, as is one that would leave
    /// fewer than two nodes. Departed nodes stay out.
    pub leave_rate: f64,
}

impl DriftConfig {
    /// A gentle cost-only drift: lognormal σ = 0.15 per step, no failures.
    pub fn gentle(steps: usize, seed: u64) -> Self {
        DriftConfig {
            steps,
            sigma: 0.15,
            failure_rate: 0.0,
            recovery_rate: 0.0,
            seed,
            join_rate: 0.0,
            leave_rate: 0.0,
        }
    }

    /// Gentle drift plus link churn: 4% of live links fail per step and
    /// failed links recover with probability 30% per step.
    pub fn with_failures(steps: usize, seed: u64) -> Self {
        DriftConfig {
            failure_rate: 0.04,
            recovery_rate: 0.3,
            ..Self::gentle(steps, seed)
        }
    }

    /// Link churn plus node churn: on top of [`Self::with_failures`], a
    /// node joins with probability 45% and a node leaves with probability
    /// 35% per step — rates high enough that short traces exercise joins,
    /// leaves, and steps doing both.
    pub fn with_churn(steps: usize, seed: u64) -> Self {
        DriftConfig {
            join_rate: 0.45,
            leave_rate: 0.35,
            ..Self::with_failures(steps, seed)
        }
    }
}

/// A discrete event of one drift step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftEvent {
    /// The link went down (its cost is scaled by [`FAILED_COST_FACTOR`]).
    LinkFailed(EdgeId),
    /// The link came back up.
    LinkRecovered(EdgeId),
    /// A new node joined the platform (id in the trace's *full* platform).
    /// Its attachment links start with cost factor 1.0.
    NodeJoin(NodeId),
    /// The node left the platform, taking every incident link with it
    /// (id in the trace's *full* platform). A departed node stays out.
    NodeLeave(NodeId),
}

/// One snapshot of the trace: cumulative per-edge cost factors, the set of
/// currently failed links, and the failure/recovery events of the step.
#[derive(Clone, Debug)]
pub struct DriftStep {
    /// Failure/recovery events that happened at this step (empty at step 0
    /// and on cost-only traces).
    pub events: Vec<DriftEvent>,
    /// Cumulative multiplicative cost factor per edge (1.0 at step 0), not
    /// including the failure scaling. Indexed by *full*-platform edge id.
    factors: Vec<f64>,
    /// Current failure state per edge (full-platform edge id).
    failed: Vec<bool>,
    /// Alive state per node of the full platform known at this step.
    alive_nodes: Vec<bool>,
    /// Alive state per edge of the full platform known at this step.
    alive_edges: Vec<bool>,
    /// Alive node ids (full-platform ids, ascending) — the compact
    /// renumbering cached at generation time.
    compact_nodes: Vec<NodeId>,
    /// Alive edge ids (full-platform ids, ascending).
    compact_edges: Vec<EdgeId>,
}

impl DriftStep {
    /// Cumulative cost factor of `edge` (excluding the failure scaling).
    /// `edge` is a *full*-platform id.
    pub fn factor(&self, edge: EdgeId) -> f64 {
        self.factors[edge.index()]
    }

    /// True when `edge` (full-platform id) is down at this step.
    pub fn is_failed(&self, edge: EdgeId) -> bool {
        self.failed[edge.index()]
    }

    /// Number of alive links down at this step.
    pub fn failed_count(&self) -> usize {
        self.failed
            .iter()
            .zip(&self.alive_edges)
            .filter(|&(&f, &a)| f && a)
            .count()
    }

    /// True when `node` (full-platform id) is part of the platform at this
    /// step. Nodes beyond the step's horizon (joined later) are not alive.
    pub fn is_alive_node(&self, node: NodeId) -> bool {
        self.alive_nodes.get(node.index()).copied().unwrap_or(false)
    }

    /// True when `edge` (full-platform id) is part of the platform at this
    /// step (independently of its failure state).
    pub fn is_alive_edge(&self, edge: EdgeId) -> bool {
        self.alive_edges.get(edge.index()).copied().unwrap_or(false)
    }

    /// Number of alive nodes at this step.
    pub fn node_count(&self) -> usize {
        self.compact_nodes.len()
    }

    /// Number of alive edges at this step.
    pub fn edge_count(&self) -> usize {
        self.compact_edges.len()
    }

    /// Alive nodes in ascending full-platform id order — position in this
    /// slice is the node's id in [`DriftTrace::platform_at`]'s snapshot.
    pub fn compact_nodes(&self) -> &[NodeId] {
        &self.compact_nodes
    }

    /// Alive edges in ascending full-platform id order — position in this
    /// slice is the edge's id in [`DriftTrace::platform_at`]'s snapshot.
    pub fn compact_edges(&self) -> &[EdgeId] {
        &self.compact_edges
    }
}

/// A seeded, replayable sequence of drifted snapshots of one base platform.
///
/// ```
/// use bcast_platform::drift::{DriftConfig, DriftTrace};
/// use bcast_platform::{LinkCost, NodeId, Platform};
///
/// let mut b = Platform::builder();
/// let p = b.add_processors(3);
/// b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
/// b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 2.0));
/// let platform = b.build();
///
/// let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::gentle(5, 42));
/// assert_eq!(trace.len(), 6); // baseline + 5 drift steps
/// for step in 0..trace.len() {
///     let snapshot = trace.platform_at(step);
///     assert!(snapshot.is_broadcast_feasible(NodeId(0)));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct DriftTrace {
    base: Platform,
    /// The base platform plus every node that ever joined (with its
    /// attachment links). Equal to `base` on churn-free traces. Per-step
    /// alive masks select the subset that exists at each snapshot.
    full: Platform,
    source: NodeId,
    steps: Vec<DriftStep>,
}

/// Mapping of compact node/edge ids between two snapshots of a churn trace
/// (see [`DriftTrace::remap`]). "Compact" ids are the 0-based positions in a
/// step's [`DriftStep::compact_nodes`]/[`DriftStep::compact_edges`] — the id
/// space of the [`DriftTrace::platform_at`] snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnRemap {
    /// For each node of the *from* snapshot: its id in the *to* snapshot,
    /// or `None` when it left in between.
    pub node_map: Vec<Option<NodeId>>,
    /// For each edge of the *from* snapshot: its id in the *to* snapshot,
    /// or `None` when it left with a departing endpoint.
    pub edge_map: Vec<Option<EdgeId>>,
    /// Nodes of the *to* snapshot that did not exist in the *from* snapshot.
    pub new_nodes: Vec<NodeId>,
    /// Edges of the *to* snapshot that did not exist in the *from* snapshot.
    pub new_edges: Vec<EdgeId>,
    /// Node count of the *to* snapshot.
    pub nodes: usize,
    /// Edge count of the *to* snapshot.
    pub edges: usize,
}

impl ChurnRemap {
    /// The identity remap of a platform with `nodes` nodes and `edges`
    /// edges (what [`DriftTrace::remap`] returns between churn-free steps).
    pub fn identity(nodes: usize, edges: usize) -> ChurnRemap {
        ChurnRemap {
            node_map: (0..nodes).map(|i| Some(NodeId(i as u32))).collect(),
            edge_map: (0..edges).map(|i| Some(EdgeId(i as u32))).collect(),
            new_nodes: Vec::new(),
            new_edges: Vec::new(),
            nodes,
            edges,
        }
    }

    /// True when nothing changed: every element survives at its own id and
    /// nothing joined.
    pub fn is_identity(&self) -> bool {
        self.new_nodes.is_empty()
            && self.new_edges.is_empty()
            && self.node_map.len() == self.nodes
            && self.edge_map.len() == self.edges
            && self
                .node_map
                .iter()
                .enumerate()
                .all(|(i, m)| *m == Some(NodeId(i as u32)))
            && self
                .edge_map
                .iter()
                .enumerate()
                .all(|(i, m)| *m == Some(EdgeId(i as u32)))
    }
}

impl DriftTrace {
    /// Generates the trace for `base` deterministically from `config`.
    ///
    /// # Panics
    /// Panics when the base platform cannot broadcast from `source` (a
    /// trace over an infeasible platform is meaningless) or when the
    /// config's `sigma` is negative or its rates are not probabilities.
    pub fn generate(base: &Platform, source: NodeId, config: &DriftConfig) -> DriftTrace {
        assert!(
            base.is_broadcast_feasible(source),
            "the base platform cannot broadcast from {source}"
        );
        assert!(config.sigma >= 0.0, "sigma must be non-negative");
        assert!(
            (0.0..=1.0).contains(&config.failure_rate)
                && (0.0..=1.0).contains(&config.recovery_rate),
            "failure/recovery rates are probabilities"
        );
        assert!(
            (0.0..=1.0).contains(&config.join_rate) && (0.0..=1.0).contains(&config.leave_rate),
            "join/leave rates are probabilities"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        // The growing "full" graph: base plus every joiner. Churn-free
        // traces never touch it, so `full == base` and the RNG stream is
        // bit-identical to pre-churn versions of this module.
        let mut graph = base.graph().clone();
        let mut factors = vec![1.0f64; graph.edge_count()];
        let mut failed = vec![false; graph.edge_count()];
        let mut alive_nodes = vec![true; graph.node_count()];
        let mut alive_edges = vec![true; graph.edge_count()];
        let mut steps = Vec::with_capacity(config.steps + 1);
        steps.push(make_step(
            Vec::new(),
            &factors,
            &failed,
            &alive_nodes,
            &alive_edges,
        ));
        for _ in 0..config.steps {
            let mut events = Vec::new();
            // 1. Cost drift: one lognormal factor per edge existing at the
            //    start of the step, in edge order (part of the deterministic
            //    RNG stream). Edges of departed nodes keep drifting — dead
            //    factors are never read, and skipping them would entangle
            //    the stream with the churn history.
            if config.sigma > 0.0 {
                for factor in factors.iter_mut() {
                    let z = sample_normal(&mut rng, 0.0, 1.0);
                    *factor = (*factor * (config.sigma * z).exp()).clamp(MIN_FACTOR, MAX_FACTOR);
                }
            }
            // 2. Recoveries before failures; a link that just recovered is
            //    shielded from the failure pass so it cannot flap within
            //    one step.
            let m = graph.edge_count();
            let mut recovered_now = vec![false; m];
            if config.recovery_rate > 0.0 {
                for e in 0..m {
                    if alive_edges[e] && failed[e] && rng.gen_range(0.0..1.0) < config.recovery_rate
                    {
                        failed[e] = false;
                        recovered_now[e] = true;
                        events.push(DriftEvent::LinkRecovered(EdgeId(e as u32)));
                    }
                }
            }
            // 3. Failures, each guarded by a reachability check on the
            //    residual live-edge set so the broadcast stays feasible.
            if config.failure_rate > 0.0 {
                for e in 0..m {
                    if alive_edges[e]
                        && !failed[e]
                        && !recovered_now[e]
                        && rng.gen_range(0.0..1.0) < config.failure_rate
                    {
                        failed[e] = true;
                        if churn_feasible(&graph, source, &alive_nodes, &alive_edges, &failed) {
                            events.push(DriftEvent::LinkFailed(EdgeId(e as u32)));
                        } else {
                            failed[e] = false; // would disconnect: skip
                        }
                    }
                }
            }
            // 4. At most one departure per step: a uniformly-chosen alive
            //    non-source node, guarded by reachability of the survivors
            //    over alive non-failed links. Departed nodes stay out.
            if config.leave_rate > 0.0 && rng.gen_range(0.0..1.0) < config.leave_rate {
                let candidates: Vec<NodeId> = (0..graph.node_count())
                    .map(|i| NodeId(i as u32))
                    .filter(|&v| alive_nodes[v.index()] && v != source)
                    .collect();
                if candidates.len() >= 2 {
                    let v = candidates[rng.gen_range(0..candidates.len())];
                    alive_nodes[v.index()] = false;
                    let incident: Vec<usize> = graph
                        .out_edges(v)
                        .chain(graph.in_edges(v))
                        .map(|e| e.id.index())
                        .filter(|&e| alive_edges[e])
                        .collect();
                    for &e in &incident {
                        alive_edges[e] = false;
                    }
                    if churn_feasible(&graph, source, &alive_nodes, &alive_edges, &failed) {
                        events.push(DriftEvent::NodeLeave(v));
                    } else {
                        // Would disconnect a survivor: the node stays.
                        alive_nodes[v.index()] = true;
                        for &e in &incident {
                            alive_edges[e] = true;
                        }
                    }
                }
            }
            // 5. At most one join per step: a fresh node attached
            //    bidirectionally to `ATTACH_DEGREE` distinct alive nodes.
            //    Each physical attachment link's bandwidth is a fresh draw
            //    from the Table 2 distribution — both directions share the
            //    sample, matching the generators' bidirectional one-port
            //    links — rather than a copy of an existing (drifted) link.
            //    New links start at cost factor 1.0 and drift from the
            //    next step on.
            if config.join_rate > 0.0 && rng.gen_range(0.0..1.0) < config.join_rate {
                let mut targets: Vec<NodeId> = (0..graph.node_count())
                    .map(|i| NodeId(i as u32))
                    .filter(|&v| alive_nodes[v.index()])
                    .collect();
                let degree = ATTACH_DEGREE.min(targets.len());
                if degree >= 1 {
                    // Partial Fisher-Yates: the first `degree` entries end
                    // up a uniform distinct sample of the alive nodes.
                    for i in 0..degree {
                        let j = i + rng.gen_range(0..targets.len() - i);
                        targets.swap(i, j);
                    }
                    let name = format!("J{}", graph.node_count());
                    let v = graph.add_node(crate::platform::Processor::new(name));
                    alive_nodes.push(true);
                    for &t in &targets[..degree] {
                        let bandwidth = sample_normal_at_least(
                            &mut rng,
                            JOIN_BANDWIDTH_MEAN,
                            JOIN_BANDWIDTH_DEV,
                            JOIN_BANDWIDTH_FLOOR,
                        );
                        let cost = LinkCost::from_bandwidth(bandwidth);
                        for (src, dst) in [(v, t), (t, v)] {
                            graph.add_edge(src, dst, cost);
                            factors.push(1.0);
                            failed.push(false);
                            alive_edges.push(true);
                        }
                    }
                    events.push(DriftEvent::NodeJoin(v));
                }
            }
            debug_assert!(churn_feasible(
                &graph,
                source,
                &alive_nodes,
                &alive_edges,
                &failed
            ));
            steps.push(make_step(
                events,
                &factors,
                &failed,
                &alive_nodes,
                &alive_edges,
            ));
        }
        DriftTrace {
            base: base.clone(),
            full: Platform::from_graph(graph),
            source,
            steps,
        }
    }

    /// Number of snapshots (baseline + drift steps).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the trace holds only the baseline snapshot.
    pub fn is_empty(&self) -> bool {
        self.steps.len() <= 1
    }

    /// The broadcast source the trace was generated for.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The unperturbed base platform (= `platform_at(0)`).
    pub fn base(&self) -> &Platform {
        &self.base
    }

    /// The base platform plus every node that ever joined, with its
    /// attachment links — the id space of [`DriftStep`] masks and of
    /// node/edge ids inside [`DriftEvent`]s. Equal to [`Self::base`] on
    /// churn-free traces.
    pub fn full(&self) -> &Platform {
        &self.full
    }

    /// The drift state of snapshot `step`.
    pub fn step(&self, step: usize) -> &DriftStep {
        &self.steps[step]
    }

    /// The broadcast source's node id *in the snapshot of `step`* (compact
    /// id). The source never leaves, so this always exists.
    pub fn source_at(&self, step: usize) -> NodeId {
        let pos = self.steps[step]
            .compact_nodes
            .iter()
            .position(|&n| n == self.source)
            .expect("the source never leaves the platform");
        NodeId(pos as u32)
    }

    /// Materialises snapshot `step` as a platform: the alive subset of the
    /// full platform, nodes and edges renumbered compactly in ascending
    /// full-id order, every link cost scaled by the step's cumulative
    /// factor, times [`FAILED_COST_FACTOR`] when the link is down. Scaling
    /// is uniform over all six affine cost parameters, so the
    /// one-port/multi-port invariants (`send ≤ T`, `recv ≤ T`) are
    /// preserved. On churn-free traces (and on any step where everything is
    /// alive) the snapshot shares the base platform's node and edge ids.
    pub fn platform_at(&self, step: usize) -> Platform {
        let state = &self.steps[step];
        let scaled = |e: EdgeId, cost: &LinkCost| {
            let mut factor = state.factors[e.index()];
            if state.failed[e.index()] {
                factor *= FAILED_COST_FACTOR;
            }
            scale_cost(cost, factor)
        };
        if state.compact_nodes.len() == self.full.node_count()
            && state.compact_edges.len() == self.full.edge_count()
        {
            // Everything alive: identity renumbering, plain cost map.
            return self.full.map_link_costs(scaled);
        }
        let graph = self.full.graph();
        let mut new_id = vec![u32::MAX; graph.node_count()];
        let mut b = Platform::builder();
        for (idx, &nid) in state.compact_nodes.iter().enumerate() {
            new_id[nid.index()] = idx as u32;
            b.add_processor(graph.node(nid).name.clone());
        }
        for &eid in &state.compact_edges {
            let (src, dst) = graph.endpoints(eid);
            b.add_link(
                NodeId(new_id[src.index()]),
                NodeId(new_id[dst.index()]),
                scaled(eid, graph.edge(eid)),
            );
        }
        b.build()
    }

    /// Computes the id remapping between the snapshots of `from` and `to`
    /// (any two steps, typically consecutive): which compact ids survive
    /// and where they land, and which are new. Incremental consumers (the
    /// cut-generation session, schedule repair) use this to translate their
    /// state instead of rebuilding it.
    pub fn remap(&self, from: usize, to: usize) -> ChurnRemap {
        let a = &self.steps[from];
        let b = &self.steps[to];
        let mut node_new: Vec<Option<NodeId>> = vec![None; self.full.node_count()];
        for (i, &nid) in b.compact_nodes.iter().enumerate() {
            node_new[nid.index()] = Some(NodeId(i as u32));
        }
        let mut edge_new: Vec<Option<EdgeId>> = vec![None; self.full.edge_count()];
        for (i, &eid) in b.compact_edges.iter().enumerate() {
            edge_new[eid.index()] = Some(EdgeId(i as u32));
        }
        let node_map: Vec<Option<NodeId>> = a
            .compact_nodes
            .iter()
            .map(|&nid| node_new[nid.index()])
            .collect();
        let edge_map: Vec<Option<EdgeId>> = a
            .compact_edges
            .iter()
            .map(|&eid| edge_new[eid.index()])
            .collect();
        let new_nodes: Vec<NodeId> = b
            .compact_nodes
            .iter()
            .enumerate()
            .filter(|&(_, &nid)| !a.is_alive_node(nid))
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let new_edges: Vec<EdgeId> = b
            .compact_edges
            .iter()
            .enumerate()
            .filter(|&(_, &eid)| !a.is_alive_edge(eid))
            .map(|(i, _)| EdgeId(i as u32))
            .collect();
        ChurnRemap {
            node_map,
            edge_map,
            new_nodes,
            new_edges,
            nodes: b.compact_nodes.len(),
            edges: b.compact_edges.len(),
        }
    }
}

/// Snapshots the current drift state into a [`DriftStep`], caching the
/// compact renumbering and the feasibility verdict.
fn make_step(
    events: Vec<DriftEvent>,
    factors: &[f64],
    failed: &[bool],
    alive_nodes: &[bool],
    alive_edges: &[bool],
) -> DriftStep {
    let compact_nodes: Vec<NodeId> = alive_nodes
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(i, _)| NodeId(i as u32))
        .collect();
    let compact_edges: Vec<EdgeId> = alive_edges
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(i, _)| EdgeId(i as u32))
        .collect();
    DriftStep {
        events,
        factors: factors.to_vec(),
        failed: failed.to_vec(),
        alive_nodes: alive_nodes.to_vec(),
        alive_edges: alive_edges.to_vec(),
        compact_nodes,
        compact_edges,
    }
}

/// True when every alive node is reachable from `source` over alive,
/// non-failed edges — the guard applied to failures and departures.
fn churn_feasible(
    graph: &bcast_net::DiGraph<crate::platform::Processor, LinkCost>,
    source: NodeId,
    alive_nodes: &[bool],
    alive_edges: &[bool],
    failed: &[bool],
) -> bool {
    let live: Vec<bool> = alive_edges
        .iter()
        .zip(failed)
        .map(|(&a, &f)| a && !f)
        .collect();
    let r = traversal::bfs_directed(graph, source, Some(&live));
    alive_nodes
        .iter()
        .enumerate()
        .all(|(i, &a)| !a || r.visited[i])
}

/// Scales all six affine parameters of a link cost uniformly.
fn scale_cost(cost: &LinkCost, factor: f64) -> LinkCost {
    LinkCost {
        alpha: cost.alpha * factor,
        beta: cost.beta * factor,
        send_latency: cost.send_latency * factor,
        send_per_byte: cost.send_per_byte * factor,
        recv_latency: cost.recv_latency * factor,
        recv_per_byte: cost.recv_per_byte * factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random::{random_platform, RandomPlatformConfig};
    use crate::generators::tiers::{tiers_platform, TiersConfig};

    fn fixture() -> Platform {
        let mut rng = StdRng::seed_from_u64(7);
        random_platform(&RandomPlatformConfig::paper(14, 0.15), &mut rng)
    }

    #[test]
    fn traces_are_replayable_and_deterministic() {
        let platform = fixture();
        let config = DriftConfig::with_failures(6, 99);
        let a = DriftTrace::generate(&platform, NodeId(0), &config);
        let b = DriftTrace::generate(&platform, NodeId(0), &config);
        assert_eq!(a.len(), 7);
        for step in 0..a.len() {
            for e in platform.edges() {
                assert_eq!(a.step(step).factor(e), b.step(step).factor(e));
                assert_eq!(a.step(step).is_failed(e), b.step(step).is_failed(e));
            }
            assert_eq!(a.step(step).events, b.step(step).events);
        }
    }

    #[test]
    fn step_zero_is_the_base_platform() {
        let platform = fixture();
        let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::gentle(3, 1));
        let snapshot = trace.platform_at(0);
        for e in platform.edges() {
            assert_eq!(snapshot.link_cost(e), platform.link_cost(e));
        }
    }

    #[test]
    fn factors_stay_in_the_corridor_and_costs_scale() {
        let platform = fixture();
        let config = DriftConfig::gentle(25, 5);
        let trace = DriftTrace::generate(&platform, NodeId(0), &config);
        for step in 0..trace.len() {
            let snapshot = trace.platform_at(step);
            for e in platform.edges() {
                let factor = trace.step(step).factor(e);
                assert!(
                    (MIN_FACTOR..=MAX_FACTOR).contains(&factor),
                    "factor {factor} left the corridor"
                );
                let base = platform.link_cost(e);
                let drifted = snapshot.link_cost(e);
                assert!((drifted.beta - base.beta * factor).abs() <= 1e-12 * base.beta.abs());
                assert!(drifted.is_valid(), "drift broke the cost invariants");
            }
        }
    }

    #[test]
    fn every_snapshot_stays_broadcast_feasible() {
        // Tiers platforms are sparse and hierarchical — the hardest case
        // for the connectivity guard (many bridges).
        let mut rng = StdRng::seed_from_u64(11);
        let platform = tiers_platform(&TiersConfig::paper(30, 0.10), &mut rng);
        let config = DriftConfig {
            failure_rate: 0.2, // aggressive churn
            recovery_rate: 0.2,
            ..DriftConfig::gentle(12, 3)
        };
        let trace = DriftTrace::generate(&platform, NodeId(0), &config);
        let mut saw_failure = false;
        for step in 0..trace.len() {
            saw_failure |= trace.step(step).failed_count() > 0;
            assert!(trace.platform_at(step).is_broadcast_feasible(NodeId(0)));
        }
        assert!(saw_failure, "churn config never failed a link");
    }

    #[test]
    fn failed_links_are_soft_failures() {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[0], p[2], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let config = DriftConfig {
            sigma: 0.0,
            failure_rate: 0.5,
            recovery_rate: 0.0,
            ..DriftConfig::gentle(8, 13)
        };
        let trace = DriftTrace::generate(&platform, NodeId(0), &config);
        let last = trace.len() - 1;
        assert!(trace.step(last).failed_count() > 0, "no link ever failed");
        let snapshot = trace.platform_at(last);
        assert_eq!(snapshot.edge_count(), platform.edge_count());
        for e in platform.edges() {
            if trace.step(last).is_failed(e) {
                let expected = platform.link_cost(e).beta * FAILED_COST_FACTOR;
                assert!((snapshot.link_cost(e).beta - expected).abs() <= 1e-6 * expected);
            }
        }
    }

    #[test]
    fn events_report_failures_and_recoveries() {
        let platform = fixture();
        let config = DriftConfig {
            failure_rate: 0.3,
            recovery_rate: 0.5,
            ..DriftConfig::gentle(10, 21)
        };
        let trace = DriftTrace::generate(&platform, NodeId(0), &config);
        let mut failures = 0usize;
        let mut recoveries = 0usize;
        for step in 1..trace.len() {
            for event in &trace.step(step).events {
                match event {
                    DriftEvent::LinkFailed(e) => {
                        failures += 1;
                        assert!(trace.step(step).is_failed(*e));
                        assert!(!trace.step(step - 1).is_failed(*e));
                    }
                    DriftEvent::LinkRecovered(e) => {
                        recoveries += 1;
                        assert!(!trace.step(step).is_failed(*e));
                        assert!(trace.step(step - 1).is_failed(*e));
                    }
                    _ => unreachable!("link-only config produced node churn"),
                }
            }
        }
        assert!(failures > 0 && recoveries > 0, "churn config inert");
    }

    #[test]
    fn platform_at_matches_map_link_costs_on_churn_free_traces() {
        // On churn-free traces `platform_at` must be exactly the
        // cached-factor cost map over the base platform — no compact
        // renumbering, no per-call reachability work.
        let platform = fixture();
        let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_failures(6, 77));
        assert_eq!(trace.full().node_count(), platform.node_count());
        assert_eq!(trace.full().edge_count(), platform.edge_count());
        for step in 0..trace.len() {
            assert_eq!(trace.source_at(step), NodeId(0));
            let snapshot = trace.platform_at(step);
            let state = trace.step(step);
            let expected = platform.map_link_costs(|e, cost| {
                let mut factor = state.factor(e);
                if state.is_failed(e) {
                    factor *= FAILED_COST_FACTOR;
                }
                super::scale_cost(cost, factor)
            });
            assert_eq!(snapshot.node_count(), expected.node_count());
            assert_eq!(snapshot.edge_count(), expected.edge_count());
            for e in expected.edges() {
                assert_eq!(snapshot.link_cost(e), expected.link_cost(e));
                assert_eq!(snapshot.graph().endpoints(e), expected.graph().endpoints(e));
            }
            assert!(trace.remap(step.saturating_sub(1), step).is_identity());
        }
    }

    #[test]
    fn churn_traces_join_and_leave_with_stable_survivor_identity() {
        let platform = fixture();
        let config = DriftConfig::with_churn(20, 42);
        let trace = DriftTrace::generate(&platform, NodeId(0), &config);
        let (mut joins, mut leaves) = (0usize, 0usize);
        for step in 1..trace.len() {
            let state = trace.step(step);
            for event in &state.events {
                match event {
                    DriftEvent::NodeJoin(v) => {
                        joins += 1;
                        assert!(state.is_alive_node(*v));
                        assert!(!trace.step(step - 1).is_alive_node(*v));
                        // Attachment links exist and start at factor 1.0.
                        let g = trace.full().graph();
                        let incident = g.out_degree(*v) + g.in_degree(*v);
                        assert!(incident >= 2, "joiner attached by {incident} links");
                        for e in g.out_edges(*v).chain(g.in_edges(*v)) {
                            if state.is_alive_edge(e.id) {
                                assert_eq!(state.factor(e.id), 1.0);
                            }
                        }
                    }
                    DriftEvent::NodeLeave(v) => {
                        leaves += 1;
                        assert!(!state.is_alive_node(*v));
                        assert!(trace.step(step - 1).is_alive_node(*v));
                        assert_ne!(*v, NodeId(0), "the source never leaves");
                        // Departure is permanent.
                        for later in step..trace.len() {
                            assert!(!trace.step(later).is_alive_node(*v));
                        }
                    }
                    _ => {}
                }
            }
            // Every snapshot is broadcast-feasible from the remapped source
            // and survivors keep their processor identity.
            let snapshot = trace.platform_at(step);
            assert_eq!(snapshot.node_count(), state.node_count());
            assert_eq!(snapshot.edge_count(), state.edge_count());
            assert!(snapshot.is_broadcast_feasible(trace.source_at(step)));
            for (compact, &full_id) in state.compact_nodes().iter().enumerate() {
                assert_eq!(
                    snapshot.processor(NodeId(compact as u32)).name,
                    trace.full().processor(full_id).name
                );
            }
        }
        assert!(joins > 0, "churn config never joined a node");
        assert!(leaves > 0, "churn config never left a node");
    }

    #[test]
    fn joiner_links_are_fresh_table_2_draws() {
        // A base platform whose every link has bandwidth 50 MB/s: a link
        // copied from it would carry 50 MB/s. Every joiner link must be a
        // fresh draw instead, at least the 10 MB/s floor, with one sample
        // for both directions of an attachment.
        let mut b = Platform::builder();
        let p = b.add_processors(6);
        let base_cost = LinkCost::from_bandwidth(50.0e6);
        for i in 1..6 {
            b.add_bidirectional_link(p[0], p[i], base_cost);
        }
        let platform = b.build();
        let config = DriftConfig {
            join_rate: 1.0,
            ..DriftConfig::gentle(6, 31)
        };
        let trace = DriftTrace::generate(&platform, NodeId(0), &config);
        let g = trace.full().graph();
        let mut joiner_links = 0usize;
        for step in 1..trace.len() {
            for event in &trace.step(step).events {
                let DriftEvent::NodeJoin(v) = *event else {
                    continue;
                };
                // Links added by later joiners attaching to `v` are
                // fresh draws too, so check them all.
                for e in g.out_edges(v) {
                    let beta = e.payload.beta;
                    assert_ne!(beta, base_cost.beta, "joiner link copied a base link");
                    assert!(
                        beta <= 1.0 / JOIN_BANDWIDTH_FLOOR,
                        "joiner link bandwidth {} below the floor",
                        1.0 / beta
                    );
                    let back = g
                        .find_edge(e.dst, v)
                        .expect("attachments are bidirectional");
                    assert_eq!(g.edge(back).beta, beta, "one draw per attachment");
                    joiner_links += 1;
                }
            }
        }
        assert!(joiner_links >= 4, "join_rate 1.0 produced no attachments");
    }

    #[test]
    fn remap_tracks_survivors_and_newcomers() {
        let platform = fixture();
        let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_churn(20, 9));
        for step in 1..trace.len() {
            let remap = trace.remap(step - 1, step);
            let prev = trace.step(step - 1);
            let cur = trace.step(step);
            assert_eq!(remap.nodes, cur.node_count());
            assert_eq!(remap.edges, cur.edge_count());
            assert_eq!(remap.node_map.len(), prev.node_count());
            assert_eq!(remap.edge_map.len(), prev.edge_count());
            // Survivor mapping preserves full-platform identity.
            for (old, &mapped) in remap.node_map.iter().enumerate() {
                if let Some(new) = mapped {
                    assert_eq!(prev.compact_nodes()[old], cur.compact_nodes()[new.index()]);
                }
            }
            for (old, &mapped) in remap.edge_map.iter().enumerate() {
                if let Some(new) = mapped {
                    assert_eq!(prev.compact_edges()[old], cur.compact_edges()[new.index()]);
                }
            }
            // Newcomers are exactly the ids not hit by the survivor map.
            let hit: Vec<bool> = {
                let mut hit = vec![false; remap.nodes];
                for m in remap.node_map.iter().flatten() {
                    hit[m.index()] = true;
                }
                hit
            };
            for (i, &h) in hit.iter().enumerate() {
                assert_eq!(!h, remap.new_nodes.contains(&NodeId(i as u32)));
            }
            let survivors = remap.edge_map.iter().flatten().count();
            assert_eq!(survivors + remap.new_edges.len(), remap.edges);
        }
    }

    #[test]
    fn leave_guard_keeps_sparse_platforms_feasible() {
        let mut rng = StdRng::seed_from_u64(17);
        let platform = tiers_platform(&TiersConfig::paper(24, 0.10), &mut rng);
        let config = DriftConfig {
            leave_rate: 0.8,
            join_rate: 0.3,
            ..DriftConfig::with_churn(15, 4)
        };
        let trace = DriftTrace::generate(&platform, NodeId(0), &config);
        for step in 0..trace.len() {
            assert!(trace.step(step).node_count() >= 2);
            assert!(trace
                .platform_at(step)
                .is_broadcast_feasible(trace.source_at(step)));
        }
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn infeasible_base_platform_is_rejected() {
        let mut b = Platform::builder();
        let p = b.add_processors(2);
        b.add_link(p[1], p[0], LinkCost::default());
        let platform = b.build();
        DriftTrace::generate(&platform, NodeId(0), &DriftConfig::gentle(1, 1));
    }
}
