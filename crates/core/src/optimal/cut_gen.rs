//! Cut-generation solver for the MTP optimal throughput.
//!
//! ## Why it is equivalent to LP (2)
//!
//! In LP (2) the commodity flows `x[e][w]` only interact through the shared
//! edge loads `n[e]` (constraint (d)) — for a fixed capacity vector `n`,
//! "commodity `w` can carry `TP` units from the source to `w`" is an
//! ordinary single-commodity max-flow question. By the max-flow/min-cut
//! theorem that is possible exactly when every source→`w` cut has
//! `n`-capacity at least `TP`. The LP therefore reduces to
//!
//! ```text
//!   maximise TP
//!   over     n ≥ 0 satisfying the one-port constraints
//!   s.t.     Σ_{e ∈ C} n_e ≥ TP   for every destination w and every s–w cut C
//! ```
//!
//! an LP with only `|E| + 1` variables but exponentially many constraints —
//! with a polynomial separation oracle: given a candidate `(n, TP)`, run a
//! max-flow per destination; any destination whose max-flow is below `TP`
//! yields a violated minimum cut. We therefore solve a small master LP,
//! separate, add the violated cuts and repeat; at termination the incumbent
//! is feasible for the full LP and hence optimal.
//!
//! ## Cut purging and cut sharing
//!
//! Two refinements keep the master LP small on repeated / large solves:
//!
//! * **Purging** — a cut whose slack stayed strictly positive (non-binding)
//!   for [`CutGenOptions::purge_after`] consecutive master rounds is dropped
//!   from the master. Correctness is unaffected: termination is certified by
//!   the separation oracle over *all* cuts (the per-destination max-flows),
//!   not by the stored subset, and a purged cut that becomes violated again
//!   is simply re-separated and reactivated.
//! * **Sharing** — every cut is stored as a *node partition* (the source
//!   side of the min cut), so binding cuts of one platform instance can seed
//!   the master LP of another instance with the same node count (the sweep
//!   harness chains instances of one parameter point this way). Any node set
//!   containing the source and missing at least one node induces a valid
//!   inequality `Σ_{e leaving S} n_e ≥ TP`, so stale seeds can never cut off
//!   the optimum — at worst they are inactive rows.
//!
//! The per-edge loads `n_e` of the master's optimal solution are returned
//! and feed the LP-based heuristics exactly as in the paper; the binding
//! cuts are returned alongside for reuse.

use crate::error::CoreError;
use crate::optimal::{
    edge_lp_skeleton, edge_lp_vars, port_constraints, port_constraints_keyed, OptimalThroughput,
    PortKey,
};
use bcast_lp::{
    Constraint, ConstraintOp, LpError, LpProblem, LpSolution, NewCol, RowId, RowUpdate,
    SimplexOptions, SimplexSnapshot, SimplexState, VarId,
};
use bcast_net::maxflow::MaxFlowSolver;
use bcast_net::NodeId;
use bcast_platform::drift::ChurnRemap;
use bcast_platform::Platform;
use std::collections::{HashMap, HashSet};

/// Hard cap on the number of master-LP rounds; each round adds at least one
/// new cut per violated destination, so realistic instances converge in a
/// couple of dozen rounds.
const MAX_ROUNDS: usize = 400;

/// Relative feasibility tolerance for the separation oracle.
const SEPARATION_TOL: f64 = 1e-7;

/// Measurement headroom of the separation max-flow: augmentation stops at
/// `(1 + headroom)·TP`, so a measured flow is exact up to that ceiling. The
/// surplus above TP is what the screen's flow certificate can spend against
/// later capacity decreases — a wider band skips more max-flows at slightly
/// costlier measurements.
const SCREEN_HEADROOM: f64 = 0.1;

/// A source→destination cut stored as a node partition: `source_side[u]` is
/// true when node `u` lies on the source side. The induced inequality is
/// `Σ n_e ≥ TP` over the platform edges leaving the source side.
///
/// Storing the partition (rather than the edge set) makes cuts portable
/// across platform instances with the same node count, which is how the
/// sweep harness shares cuts between the instances of one parameter point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeCutSet {
    /// Source-side membership, indexed by node.
    pub source_side: Vec<bool>,
}

impl NodeCutSet {
    /// The platform edges crossing the cut (source side → sink side),
    /// as sorted, deduplicated raw edge indices.
    pub fn crossing_edges(&self, platform: &Platform) -> Vec<u32> {
        let mut edges: Vec<u32> = platform
            .graph()
            .edges()
            .filter(|e| self.source_side[e.src.index()] && !self.source_side[e.dst.index()])
            .map(|e| e.id.0)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// True when the partition is a meaningful cut for `platform` and
    /// `source`: right length, source inside, at least one node outside.
    pub fn is_valid_for(&self, platform: &Platform, source: NodeId) -> bool {
        self.source_side.len() == platform.node_count()
            && self.source_side[source.index()]
            && self.source_side.iter().any(|&inside| !inside)
    }
}

/// Options of the cut-generation solver.
#[derive(Clone, Debug, PartialEq)]
pub struct CutGenOptions {
    /// Purge a cut after its slack stayed non-binding for this many
    /// consecutive master rounds; `None` disables purging.
    pub purge_after: Option<usize>,
    /// Node cuts used to seed the master LP (typically the binding cuts of a
    /// previously solved instance with the same node count). Invalid entries
    /// (wrong length, source outside, empty sink side) are ignored.
    pub seed_cuts: Vec<NodeCutSet>,
    /// Keep one [`SimplexState`] alive across master rounds and re-optimize
    /// it with warm-started dual simplex after appending/purging cut rows
    /// (the default). `false` re-solves the master LP from scratch every
    /// round — the pre-incremental behaviour, kept as the reference side of
    /// the differential tests.
    pub warm_start: bool,
    /// Cheap separation screening (the default): each destination's last
    /// measured max-flow is kept as a *flow certificate* — the per-edge
    /// flows of its support — and the destination is skipped when the old
    /// flow, restricted to the separation point actually being separated,
    /// still carries at least the current TP
    /// (`flow − Σ_e (f_e − p_e)⁺ ≥ TP`). The discounted value is a
    /// certified lower bound on the destination's current max-flow, so the
    /// skip is *sound*, not heuristic. Belt-and-braces, termination is
    /// still only declared from a full unscreened pass at the true master
    /// optimum. Skipped max-flow calls are counted in
    /// [`CutGenResult::skipped_separations`].
    pub screen_separation: bool,
    /// Worker threads of the separation oracle: each master round's
    /// per-destination max-flows are sharded across this many
    /// `std::thread::scope` workers, each with its own cloned
    /// [`MaxFlowSolver`] scratch, and the found cuts are reduced in fixed
    /// destination order — results (and stdout, and goldens) are
    /// byte-identical at any thread count. Defaults to
    /// `min(available_parallelism, 4)`; `1` runs in place on the calling
    /// thread.
    pub separation_threads: usize,
    /// Overrides the per-solve simplex iteration budget of the *cold*
    /// master solves (`None`, the default, keeps the engine's
    /// size-derived budget). Warm re-solves budget themselves. Raising
    /// this rescues rare cold-solve stalls where a long degenerate
    /// plateau exhausts the default budget (and its refactor-interval-1
    /// retry) before optimality — seen once on the 40-node drift-ablation
    /// platform at seed 2004; see EXPERIMENTS.md.
    pub iteration_budget: Option<usize>,
}

impl Default for CutGenOptions {
    fn default() -> Self {
        CutGenOptions {
            purge_after: Some(2),
            seed_cuts: Vec::new(),
            warm_start: true,
            screen_separation: true,
            separation_threads: default_separation_threads(),
            iteration_budget: None,
        }
    }
}

/// Default worker count of the parallel separation oracle: the machine's
/// available parallelism, capped at 4 — separation batches are short (one
/// max-flow per violated destination), so wider fan-out drowns in thread
/// spawn overhead before it pays.
fn default_separation_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

impl CutGenOptions {
    /// The simplex options the master LP is solved with.
    fn simplex_options(&self) -> SimplexOptions {
        SimplexOptions {
            max_iterations: self.iteration_budget.unwrap_or(0),
            ..SimplexOptions::default()
        }
    }
}

/// Outcome of [`solve_with`] / [`CutGenSession::solve_step`]: the optimal
/// solution plus the cuts that were binding at the optimum (for seeding
/// subsequent solves).
#[derive(Clone, Debug)]
pub struct CutGenResult {
    /// The optimal throughput, loads, and solver statistics.
    pub optimal: OptimalThroughput,
    /// Cuts with (near-)zero slack at the optimum, as node partitions.
    pub binding_cuts: Vec<NodeCutSet>,
    /// Active cuts carried over from earlier steps of a
    /// [`CutGenSession`] when this solve started (0 on a first/one-shot
    /// solve): the cut-pool half of the cross-step warm start.
    pub reused_cuts: usize,
    /// Per-destination max-flow calls the separation screen skipped. Skips
    /// taken in a would-be-final round are re-verified before termination
    /// (still counted here; the re-run shows up as ordinary separation
    /// work), so the optimum is always certified unscreened. 0 when
    /// [`CutGenOptions::screen_separation`] is off.
    pub skipped_separations: usize,
}

/// One stored cut of the master LP.
struct Cut {
    /// Node partition the cut came from.
    side: Vec<bool>,
    /// Crossing platform edges (sorted raw indices) — the dedup key.
    edges: Vec<u32>,
    /// Consecutive master rounds with strictly positive slack.
    non_binding_streak: usize,
    /// False once purged (until re-separated).
    active: bool,
    /// Row handle inside the warm master (`None` when cold, purged, or not
    /// yet appended).
    row: Option<RowId>,
}

/// The master LP in one of its two modes: a persistent incremental solver
/// (warm-started dual simplex across rounds) or the pre-incremental
/// clone-and-resolve path kept for differential testing.
enum MasterLp {
    Warm(Box<SimplexState>),
    Cold(LpProblem),
}

/// The cut row `Σ_{e ∈ cut} n_e − TP ≥ 0` in LP terms.
fn cut_row_terms(edges: &[u32], tp: VarId, n_vars: &[VarId]) -> Vec<(VarId, f64)> {
    let mut terms: Vec<(VarId, f64)> = edges.iter().map(|&e| (n_vars[e as usize], 1.0)).collect();
    terms.push((tp, -1.0));
    terms
}

/// Solves the MTP optimal-throughput problem by cut generation with default
/// options (purging enabled, no seed cuts).
pub fn solve(
    platform: &Platform,
    source: NodeId,
    slice_size: f64,
) -> Result<OptimalThroughput, CoreError> {
    solve_with(platform, source, slice_size, &CutGenOptions::default()).map(|r| r.optimal)
}

/// Solves the MTP optimal-throughput problem by cut generation (a one-shot
/// [`CutGenSession`]).
pub fn solve_with(
    platform: &Platform,
    source: NodeId,
    slice_size: f64,
    options: &CutGenOptions,
) -> Result<CutGenResult, CoreError> {
    CutGenSession::new(platform, source, slice_size, options.clone())?.solve_step(platform)
}

/// A cut-generation solver whose master LP — simplex basis **and** cut pool
/// — persists across a *chain of platform snapshots* whose link costs drift
/// and whose node set may change (the dynamic-platform workload).
///
/// Every step goes through [`solve_step_churn`](CutGenSession::solve_step_churn);
/// a cost-only step is the identity remap, which
/// [`solve_step`](CutGenSession::solve_step) supplies. Per snapshot, the
/// session first translates its state through the remap when the node set
/// changed (see `solve_step_churn`), then:
///
/// 1. rewrites the one-port rows' coefficients in place
///    ([`SimplexState::update_coeffs`]) — the only part of the master that
///    depends on the link costs; the factorization is repaired around the
///    previous step's basis instead of being rebuilt;
/// 2. keeps every active cut row: cuts are node partitions, so their rows
///    (`Σ_{e ∈ cut} n_e ≥ TP`) are cost-independent and remain exactly
///    valid after any drift — the pool warm-starts the new separation;
/// 3. runs the ordinary separation loop to termination.
///
/// Warm-starting never changes *what* is computed: every path that cannot
/// be expressed incrementally falls back to a cold solve inside the LP
/// layer, and termination is certified by the separation oracle either way
/// (`tests/dynamic_drift.rs` and `tests/churn_drift.rs` pin warm ≡ cold
/// per step differentially).
pub struct CutGenSession {
    options: CutGenOptions,
    source: NodeId,
    slice_size: f64,
    nodes: usize,
    edges: usize,
    tp: VarId,
    n_vars: Vec<VarId>,
    master: MasterLp,
    /// Warm mode: handles of the one-port rows, for per-step coefficient
    /// updates (empty in cold mode).
    port_rows: Vec<RowId>,
    /// Warm mode: the `(node, direction)` identity of each port row,
    /// parallel to `port_rows` — the reconciliation key under node churn.
    port_keys: Vec<PortKey>,
    cuts: Vec<Cut>,
    index_by_edges: HashMap<Vec<u32>, usize>,
    steps: usize,
    /// Persistent max-flow scratch: the residual network is built once for
    /// the session's topology and only its capacities are rewritten per
    /// separation call.
    maxflow: MaxFlowSolver,
    /// Per-destination screening state, indexed like the destination list
    /// (node order with the source removed).
    screen: Vec<DestScreen>,
    /// Stabilization center for in-out separation: a running average of the
    /// master's optimal load vectors (empty until the first round).
    stab_center: Vec<f64>,
}

/// Screening state of one destination: the max-flow measured the last time
/// its separation oracle actually ran, plus the support of that flow — a
/// feasibility certificate that lower-bounds the destination's flow at any
/// later capacity vector (see [`CutGenOptions::screen_separation`]).
#[derive(Clone, Debug, Default)]
struct DestScreen {
    valid: bool,
    flow: f64,
    /// `(edge, flow carried)` over the measured flow's support.
    support: Vec<(u32, f64)>,
}

impl CutGenSession {
    /// Prepares a session for platforms with the topology of `platform`
    /// (later snapshots keep its node and edge identities, or say through a
    /// [`ChurnRemap`] how they changed). Nothing is solved yet.
    pub fn new(
        platform: &Platform,
        source: NodeId,
        slice_size: f64,
        options: CutGenOptions,
    ) -> Result<Self, CoreError> {
        let n = platform.node_count();
        if n == 0 {
            return Err(CoreError::EmptyPlatform);
        }
        let m = platform.edge_count();
        let (vars_only, tp, n_vars) = edge_lp_vars(m);
        // Note on vertex selection: the warm master returns the *nearest*
        // repaired vertex rather than the vertex a cold solve would find,
        // which can cost extra separation rounds on large degenerate
        // instances (measured in EXPERIMENTS.md, which also records the
        // unmeasured tie-break that was tried and dropped).
        let (master, port_rows, port_keys) = if options.warm_start {
            let mut state =
                SimplexState::new(&vars_only, options.simplex_options()).map_err(CoreError::Lp)?;
            // The port rows are appended (not part of the construction
            // snapshot's constraints) so the session holds their handles
            // for the per-step coefficient updates. The assembled tableau
            // is identical either way.
            let keyed = port_constraints_keyed(platform, slice_size, &n_vars);
            let constraints: Vec<Constraint> = keyed.iter().map(|(_, c)| c.clone()).collect();
            let port_rows = state.add_rows(&constraints).map_err(CoreError::Lp)?;
            let port_keys = keyed.into_iter().map(|(k, _)| k).collect();
            (MasterLp::Warm(Box::new(state)), port_rows, port_keys)
        } else {
            let (base, _, _) = edge_lp_skeleton(platform, slice_size);
            (MasterLp::Cold(base), Vec::new(), Vec::new())
        };
        let maxflow = MaxFlowSolver::new(platform.graph());
        let screen = vec![DestScreen::default(); n.saturating_sub(1)];
        let mut session = CutGenSession {
            options,
            source,
            slice_size,
            nodes: n,
            edges: m,
            tp,
            n_vars,
            master,
            port_rows,
            port_keys,
            cuts: Vec::new(),
            index_by_edges: HashMap::new(),
            steps: 0,
            maxflow,
            screen,
            stab_center: Vec::new(),
        };
        // Seed cuts: the trivial partitions around the source and around
        // each destination, plus whatever the caller carried over from a
        // previous instance.
        let mut source_only = vec![false; n];
        source_only[source.index()] = true;
        session.add_cut(platform, source_only);
        for w in platform.nodes().filter(|&w| w != source) {
            let mut all_but_w = vec![true; n];
            all_but_w[w.index()] = false;
            session.add_cut(platform, all_but_w);
        }
        let seeds = session.options.seed_cuts.clone();
        for seed in seeds {
            session.add_cut(platform, seed.source_side);
        }
        Ok(session)
    }

    /// Number of snapshots solved so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Active cuts currently in the pool (the rows the next step reuses).
    pub fn active_cuts(&self) -> usize {
        self.cuts.iter().filter(|c| c.active).count()
    }

    /// True when the screen lets destination `di` skip its max-flow at
    /// `point`: the flow measured when its oracle last ran, restricted to
    /// `point`'s capacities (every unit above `point[e]` cancelled), still
    /// carries the current TP. The restricted value is a certified lower
    /// bound on the destination's max-flow at `point` — measured flows are
    /// only ever *under*-reported by the augmentation cap — so a skipped
    /// destination provably has no violated cut. Termination nonetheless
    /// re-verifies with a full unscreened pass.
    fn can_skip(&self, di: usize, tp_value: f64, point: &[f64]) -> bool {
        let screen = &self.screen[di];
        if !screen.valid {
            return false;
        }
        let mut certified = screen.flow;
        for &(e, f) in &screen.support {
            certified -= (f - point[e as usize]).max(0.0);
            if certified < tp_value {
                return false;
            }
        }
        certified >= tp_value
    }

    /// Runs the separation max-flows for `items` (`(destination index,
    /// node)` pairs) against `point`, sharded across
    /// [`CutGenOptions::separation_threads`] scoped workers with cloned
    /// [`MaxFlowSolver`] scratch. Returns, per item *in input order*, the
    /// measured flow, its support (the screen's certificate), and the
    /// min-cut source side when the destination was violated.
    /// Observability stays on the calling thread.
    #[allow(clippy::type_complexity)]
    fn run_separations(
        &mut self,
        items: &[(usize, NodeId)],
        point: &[f64],
        tp_value: f64,
        tol: f64,
    ) -> Vec<(f64, Vec<(u32, f64)>, Option<Vec<bool>>)> {
        if items.is_empty() {
            return Vec::new();
        }
        let source = self.source;
        // The oracle only needs to know whether a flow clears TP plus the
        // screening headroom: cap the augmentation there. A capped value is
        // only ever *under*-reported, so the violation test and the
        // screen's certificate both stay conservative.
        let limit = tp_value * (1.0 + SCREEN_HEADROOM) + tol;
        let threads = self.options.separation_threads.max(1).min(items.len());
        bcast_obs::counter_add(bcast_obs::names::CUTGEN_SEPARATIONS_RUN, items.len() as u64);
        bcast_obs::gauge_set(bcast_obs::names::CUTGEN_SEP_WORKERS, threads as f64);
        let separate = |solver: &mut MaxFlowSolver, w: NodeId| {
            let flow = solver.solve_limited(source, w, |e| point[e.index()], limit);
            // The violated constraint is over the *platform* edges crossing
            // the min-cut partition — including edges whose current load is
            // zero (they are precisely the ones the master may increase).
            let side = (flow + tol < tp_value).then(|| solver.min_cut_source_side(source).to_vec());
            (flow, solver.flow_support(), side)
        };
        if threads <= 1 {
            return items
                .iter()
                .map(|&(_, w)| separate(&mut self.maxflow, w))
                .collect();
        }
        bcast_obs::counter_add(bcast_obs::names::CUTGEN_PARALLEL_BATCHES, 1);
        // Contiguous shards: every item is computed exactly once, its slot
        // fixed by input position, so the reduction below is independent of
        // the worker count and of scheduling order. Each worker's cloned
        // solver rewrites all capacities and residuals per solve, so the
        // per-item result equals the serial path's bit for bit.
        let mut out: Vec<(f64, Vec<(u32, f64)>, Option<Vec<bool>>)> =
            vec![(0.0, Vec::new(), None); items.len()];
        let shard = items.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (work, slots) in items.chunks(shard).zip(out.chunks_mut(shard)) {
                let mut solver = self.maxflow.clone();
                scope.spawn(move || {
                    for (&(_, w), slot) in work.iter().zip(slots) {
                        *slot = separate(&mut solver, w);
                    }
                });
            }
        });
        out
    }

    /// One oracle batch over `destinations` at `point`: plans the skips on
    /// the calling thread (fixed destination order), shards the surviving
    /// max-flows, and reduces — screen refreshes and cut registrations —
    /// again in fixed destination order. Returns `(cuts the master gained,
    /// skipped max-flows)`.
    fn separate_batch(
        &mut self,
        platform: &Platform,
        destinations: &[NodeId],
        point: &[f64],
        tp_value: f64,
        tol: f64,
        screening: bool,
    ) -> (usize, usize) {
        let mut items: Vec<(usize, NodeId)> = Vec::with_capacity(destinations.len());
        let mut skipped = 0usize;
        for (di, &w) in destinations.iter().enumerate() {
            if screening && self.can_skip(di, tp_value, point) {
                skipped += 1;
            } else {
                items.push((di, w));
            }
        }
        let results = self.run_separations(&items, point, tp_value, tol);
        let mut new_cuts = 0usize;
        for (&(di, _), (flow, support, side)) in items.iter().zip(results) {
            let screen = &mut self.screen[di];
            screen.valid = true;
            screen.flow = flow;
            screen.support = support;
            if let Some(side) = side {
                if self.add_cut(platform, side) {
                    new_cuts += 1;
                }
            }
        }
        (new_cuts, skipped)
    }

    /// Adds (or reactivates) the cut induced by `side`; returns true when
    /// the master gained a row it did not have in its previous solve.
    fn add_cut(&mut self, platform: &Platform, side: Vec<bool>) -> bool {
        let probe = NodeCutSet {
            source_side: side.clone(),
        };
        if !probe.is_valid_for(platform, self.source) {
            return false;
        }
        let edges = probe.crossing_edges(platform);
        if edges.is_empty() {
            return false;
        }
        let gained = match self.index_by_edges.get(&edges) {
            Some(&i) => {
                if self.cuts[i].active {
                    false
                } else {
                    self.cuts[i].active = true;
                    self.cuts[i].non_binding_streak = 0;
                    true
                }
            }
            None => {
                self.index_by_edges.insert(edges.clone(), self.cuts.len());
                self.cuts.push(Cut {
                    side,
                    edges,
                    non_binding_streak: 0,
                    active: true,
                    row: None,
                });
                true
            }
        };
        bcast_obs::counter_add(bcast_obs::names::CUTGEN_CUTS_ADDED, gained as u64);
        gained
    }

    /// Solves the current master. Warm mode first appends any active cut
    /// that has no live row yet (new or reactivated — purged rows were
    /// deleted at purge time), then re-optimizes the persistent basis; cold
    /// mode rebuilds the whole LP from the base and solves it from scratch.
    fn solve_master(&mut self, simplex_iterations: &mut usize) -> Result<LpSolution, CoreError> {
        let _span = bcast_obs::span!(bcast_obs::names::SPAN_CUTGEN_MASTER);
        let solution = match &mut self.master {
            MasterLp::Warm(state) => {
                // One batched append for every active cut without a live row
                // (new or reactivated): the state widens its tableau once
                // for the whole batch instead of once per cut.
                let pending: Vec<usize> = self
                    .cuts
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.active && c.row.is_none())
                    .map(|(i, _)| i)
                    .collect();
                let batch: Vec<Constraint> = pending
                    .iter()
                    .map(|&i| Constraint {
                        terms: cut_row_terms(&self.cuts[i].edges, self.tp, &self.n_vars),
                        op: ConstraintOp::Ge,
                        rhs: 0.0,
                    })
                    .collect();
                let rows = state.add_rows(&batch).map_err(CoreError::Lp)?;
                for (&i, row) in pending.iter().zip(rows) {
                    self.cuts[i].row = Some(row);
                }
                state.resolve().map_err(CoreError::Lp)?
            }
            MasterLp::Cold(base) => {
                let mut lp = base.clone();
                for cut in self.cuts.iter().filter(|c| c.active) {
                    lp.add_ge(&cut_row_terms(&cut.edges, self.tp, &self.n_vars), 0.0);
                }
                lp.solve_with(&self.options.simplex_options())
                    .map_err(CoreError::Lp)?
            }
        };
        *simplex_iterations += solution.iterations;
        Ok(solution)
    }

    /// Solves one platform snapshot of the session's topology to optimality:
    /// [`solve_step_churn`](Self::solve_step_churn) under the identity
    /// remap. The first call is the ordinary cut-generation solve; later
    /// calls re-solve from the previous step's basis and cut pool after
    /// updating the port-row coefficients in place.
    ///
    /// A `platform` whose node or edge count differs from the session's is
    /// rejected with [`CoreError::TopologyMismatch`].
    pub fn solve_step(&mut self, platform: &Platform) -> Result<CutGenResult, CoreError> {
        self.solve_step_churn(platform, &ChurnRemap::identity(self.nodes, self.edges))
    }

    /// Solves the next snapshot of a changing platform, where `remap`
    /// (typically [`bcast_platform::drift::DriftTrace::remap`] between
    /// consecutive steps) leads from the session's current topology to
    /// `platform`'s. A cost-only step passes the identity remap and goes
    /// straight to the warm re-solve. A step that changes the node set
    /// first translates the whole session state — master-LP columns, port
    /// rows, cut pool, separation scratch — through `remap` instead of
    /// rebuilding it:
    ///
    /// * edge-load columns of departed edges are deleted from the live
    ///   master and columns for new attachment edges appended (they enter
    ///   nonbasic at zero, so the surviving basis stays primal-feasible);
    /// * port rows are reconciled by `(node, direction)` identity — rows of
    ///   departed nodes are deleted in place, rows for joiners appended;
    /// * a cut survives iff its entire source side survives and a sink
    ///   remains; surviving cuts keep their rows with crossing edges
    ///   recomputed on the new topology (joiners land on the sink side),
    ///   and each joiner seeds its trivial `all-but-w` cut;
    /// * max-flow scratch and separation screen are rebuilt for the new
    ///   topology.
    ///
    /// Warm-starting never changes *what* is computed: any repair the LP
    /// layer cannot express incrementally falls back to a cold solve
    /// inside it, and termination is certified by the separation oracle
    /// over the new platform either way.
    ///
    /// A `remap` that does not start from the session's topology, does not
    /// target `platform`'s, or drops the broadcast source is rejected with
    /// [`CoreError::TopologyMismatch`] before the session is touched.
    pub fn solve_step_churn(
        &mut self,
        platform: &Platform,
        remap: &ChurnRemap,
    ) -> Result<CutGenResult, CoreError> {
        let session = (self.nodes, self.edges);
        let from = (remap.node_map.len(), remap.edge_map.len());
        let to = (remap.nodes, remap.edges);
        let given = (platform.node_count(), platform.edge_count());
        if from != session || given != to {
            return Err(CoreError::TopologyMismatch(format!(
                "the session has {}/{} nodes/edges, the remap maps {}/{} to {}/{}, \
                 the platform has {}/{}",
                session.0, session.1, from.0, from.1, to.0, to.1, given.0, given.1
            )));
        }
        let Some(new_source) = remap.node_map[self.source.index()] else {
            return Err(CoreError::TopologyMismatch(format!(
                "the remap drops the broadcast source {}",
                self.source
            )));
        };
        if remap.is_identity() {
            return self.solve_inner(platform);
        }

        // ---- Plan the cut pool in the new compact id space. ----
        // A cut survives iff every source-side node survives and at least
        // one node remains on the sink side (joiners are sink-side, so any
        // join keeps every surviving cut meaningful). Two cuts whose
        // crossing-edge sets collapse onto each other are merged; the
        // loser's master row is scheduled for deletion.
        struct Planned {
            side: Vec<bool>,
            edges: Vec<u32>,
            non_binding_streak: usize,
            active: bool,
            row: Option<RowId>,
        }
        let mut planned: Vec<Planned> = Vec::with_capacity(self.cuts.len());
        let mut planned_by_edges: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut dead_rows: Vec<RowId> = Vec::new();
        for cut in &self.cuts {
            let mut side = vec![false; remap.nodes];
            let survives = cut
                .side
                .iter()
                .zip(&remap.node_map)
                .all(|(&inside, mapped)| {
                    match (inside, mapped) {
                        (true, Some(u)) => side[u.index()] = true,
                        (true, None) => return false,
                        (false, _) => {}
                    }
                    true
                });
            let mut kept = None;
            if survives && side.iter().any(|&inside| !inside) {
                let probe = NodeCutSet {
                    source_side: side.clone(),
                };
                let edges = probe.crossing_edges(platform);
                if !edges.is_empty() {
                    kept = Some((side, edges));
                }
            }
            match kept {
                Some((side, edges)) => match planned_by_edges.get(&edges) {
                    Some(&i) => {
                        // Collapsed duplicate: merge into the survivor.
                        let keep = &mut planned[i];
                        keep.active |= cut.active;
                        keep.non_binding_streak =
                            keep.non_binding_streak.min(cut.non_binding_streak);
                        if let Some(row) = cut.row {
                            if keep.row.is_none() {
                                keep.row = Some(row);
                            } else {
                                dead_rows.push(row);
                            }
                        }
                    }
                    None => {
                        planned_by_edges.insert(edges.clone(), planned.len());
                        planned.push(Planned {
                            side,
                            edges,
                            non_binding_streak: cut.non_binding_streak,
                            active: cut.active,
                            row: cut.row,
                        });
                    }
                },
                None => {
                    if let Some(row) = cut.row {
                        dead_rows.push(row);
                    }
                }
            }
        }

        // ---- Reconcile the live master. ----
        let mut new_n_vars: Vec<VarId> = vec![VarId(0); remap.edges];
        for (old, mapped) in remap.edge_map.iter().enumerate() {
            if let Some(new) = mapped {
                new_n_vars[new.index()] = self.n_vars[old];
            }
        }
        if let MasterLp::Warm(state) = &mut self.master {
            let graph = platform.graph();
            // Port keys of the new platform, in port_constraints order.
            let keys_new: Vec<PortKey> = platform
                .nodes()
                .flat_map(|u| {
                    let out = (graph.out_degree(u) > 0).then_some(PortKey { node: u, out: true });
                    let inc = (graph.in_degree(u) > 0).then_some(PortKey {
                        node: u,
                        out: false,
                    });
                    out.into_iter().chain(inc)
                })
                .collect();
            let keys_new_set: HashSet<PortKey> = keys_new.iter().copied().collect();
            // Surviving port rows, addressed by their *new-space* key.
            let mut surviving_ports: HashMap<PortKey, RowId> = HashMap::new();
            for (&key, &row) in self.port_keys.iter().zip(&self.port_rows) {
                let new_key = remap.node_map[key.node.index()].map(|n| PortKey {
                    node: n,
                    out: key.out,
                });
                match new_key {
                    Some(k) if keys_new_set.contains(&k) => {
                        surviving_ports.insert(k, row);
                    }
                    _ => dead_rows.push(row),
                }
            }
            // 1. Delete rows of dead cuts, collapsed duplicates, and
            //    departed port constraints.
            state.delete_rows(&dead_rows).map_err(CoreError::Lp)?;
            // 2. Delete the edge-load columns of departed edges.
            let mut dead_cols = Vec::new();
            for (old, mapped) in remap.edge_map.iter().enumerate() {
                if mapped.is_none() {
                    dead_cols.push(state.col_id(self.n_vars[old]).map_err(CoreError::Lp)?);
                }
            }
            state.delete_cols(&dead_cols).map_err(CoreError::Lp)?;
            // 3. Append zero-objective columns for the new edges; they
            //    enter every existing row with coefficient 0 and are wired
            //    into the port/cut rows by the updates below.
            let fresh: Vec<NewCol> = remap
                .new_edges
                .iter()
                .map(|_| NewCol::new(0.0, Vec::new()))
                .collect();
            let fresh_cols = state.add_cols(&fresh).map_err(CoreError::Lp)?;
            for (&e, col) in remap.new_edges.iter().zip(fresh_cols) {
                new_n_vars[e.index()] = col.var();
            }
            // 4. Reconcile the port rows: reuse survivors (their
            //    coefficients are rewritten by the per-step update in the
            //    solve below, like on every drift step), append the rest.
            let keyed = port_constraints_keyed(platform, self.slice_size, &new_n_vars);
            debug_assert_eq!(keyed.iter().map(|(k, _)| *k).collect::<Vec<_>>(), keys_new);
            let missing: Vec<Constraint> = keyed
                .iter()
                .filter(|(k, _)| !surviving_ports.contains_key(k))
                .map(|(_, c)| c.clone())
                .collect();
            let mut appended = state.add_rows(&missing).map_err(CoreError::Lp)?.into_iter();
            let mut port_rows = Vec::with_capacity(keys_new.len());
            for key in &keys_new {
                match surviving_ports.get(key) {
                    Some(&row) => port_rows.push(row),
                    None => port_rows.push(appended.next().expect("appended one per missing key")),
                }
            }
            self.port_rows = port_rows;
            self.port_keys = keys_new;
            // 5. Rewrite surviving cut rows for their new crossing edges
            //    (departed columns are already stripped; new attachment
            //    edges may now cross the cut).
            let tp = self.tp;
            let updates: Vec<RowUpdate> = planned
                .iter()
                .filter_map(|p| {
                    p.row.map(|row| {
                        RowUpdate::new(row, cut_row_terms(&p.edges, tp, &new_n_vars), 0.0)
                    })
                })
                .collect();
            state.update_coeffs(&updates).map_err(CoreError::Lp)?;
        } else {
            // Cold mode: the base LP is rebuilt from the snapshot inside
            // the solve; only the variable layout must match the new edge
            // count.
            for (i, v) in new_n_vars.iter_mut().enumerate() {
                *v = VarId(i + 1);
            }
        }

        // ---- Install the translated session state. ----
        self.cuts = planned
            .into_iter()
            .map(|p| Cut {
                side: p.side,
                edges: p.edges,
                non_binding_streak: p.non_binding_streak,
                active: p.active,
                row: p.row,
            })
            .collect();
        self.index_by_edges = self
            .cuts
            .iter()
            .enumerate()
            .map(|(i, c)| (c.edges.clone(), i))
            .collect();
        self.n_vars = new_n_vars;
        self.source = new_source;
        self.nodes = remap.nodes;
        self.edges = remap.edges;
        self.maxflow = MaxFlowSolver::new(platform.graph());
        self.screen = vec![DestScreen::default(); remap.nodes.saturating_sub(1)];
        // The stabilization center lives in load space: survivors carry
        // their running average over, new edges start from zero.
        if !self.stab_center.is_empty() {
            let mut center = vec![0.0; remap.edges];
            for (old, mapped) in remap.edge_map.iter().enumerate() {
                if let Some(new) = mapped {
                    if let Some(&c) = self.stab_center.get(old) {
                        center[new.index()] = c;
                    }
                }
            }
            self.stab_center = center;
        }
        // Each joiner seeds its trivial cut (everyone-but-the-joiner): the
        // master must know from round one that the newcomer needs TP too.
        for &w in &remap.new_nodes {
            let mut all_but_w = vec![true; remap.nodes];
            all_but_w[w.index()] = false;
            self.add_cut(platform, all_but_w);
        }
        // A heavy enough leave can kill *every* surviving cut (any cut
        // whose source side contained the departed node dies) while no
        // joiner arrives to seed a fresh one. TP is only bounded through
        // cut rows, so an empty pool makes the master genuinely unbounded:
        // re-seed the trivial per-destination cuts exactly as session
        // creation does, and let separation re-tighten from there.
        if !self.cuts.iter().any(|c| c.active) {
            let source = self.source;
            for w in platform.nodes().filter(|&w| w != source) {
                let mut all_but_w = vec![true; remap.nodes];
                all_but_w[w.index()] = false;
                self.add_cut(platform, all_but_w);
            }
        }
        self.solve_inner(platform)
    }

    /// The solve of [`solve_step_churn`](Self::solve_step_churn) once the
    /// session matches `platform`: instrumentation shell around
    /// [`solve_loop`](Self::solve_loop). One relaxed atomic load when the
    /// observability sink is off.
    fn solve_inner(&mut self, platform: &Platform) -> Result<CutGenResult, CoreError> {
        if !bcast_obs::enabled() {
            return self.solve_loop(platform);
        }
        let _span = bcast_obs::span!(bcast_obs::names::SPAN_CUTGEN_SOLVE);
        let start = std::time::Instant::now();
        // `solve_loop` advances `self.steps`; capture the number this solve
        // runs under.
        let step = self.steps as u64;
        let result = self.solve_loop(platform);
        if let Ok(res) = &result {
            use bcast_obs::names;
            bcast_obs::counter_add(names::CUTGEN_ROUNDS, res.optimal.iterations as u64);
            bcast_obs::counter_add(names::CUTGEN_CUTS_PURGED, res.optimal.purged_cuts as u64);
            bcast_obs::counter_add(names::CUTGEN_CUTS_REUSED, res.reused_cuts as u64);
            bcast_obs::emit_with(|| bcast_obs::Event::CutGenStep {
                step,
                rounds: res.optimal.iterations as u64,
                pivots: res.optimal.simplex_iterations as u64,
                reused_cuts: res.reused_cuts as u64,
                tp: res.optimal.throughput,
                t_ns: start.elapsed().as_nanos() as u64,
            });
        }
        result
    }

    /// The per-step port-row coefficient refresh plus the separation loop.
    /// Assumes the session's bookkeeping already matches `platform`'s
    /// topology.
    fn solve_loop(&mut self, platform: &Platform) -> Result<CutGenResult, CoreError> {
        let source = self.source;
        // Guard infeasible platforms explicitly: an unreachable destination
        // has only *empty* violated cuts, which the partition bookkeeping
        // skips, so without this check the solver would terminate claiming
        // a positive throughput for an impossible broadcast. (Callers going
        // through `optimal_throughput` are pre-checked; direct callers —
        // the sweep harness, `table_sched` — are not.)
        if !platform.is_broadcast_feasible(source) {
            return Err(CoreError::Unreachable { source });
        }
        let destinations: Vec<NodeId> = platform.nodes().filter(|&u| u != source).collect();
        if destinations.is_empty() {
            // Single processor: nothing to broadcast.
            return Ok(CutGenResult {
                optimal: OptimalThroughput {
                    throughput: f64::INFINITY,
                    edge_load: vec![0.0; self.edges],
                    iterations: 0,
                    cuts: 0,
                    purged_cuts: 0,
                    simplex_iterations: 0,
                },
                binding_cuts: Vec::new(),
                reused_cuts: 0,
                skipped_separations: 0,
            });
        }
        let step = self.steps;
        self.steps += 1;
        let reused_cuts = if step > 0 { self.active_cuts() } else { 0 };
        // Rewrite the one-port rows for this snapshot's link costs — on
        // every step, not just step > 0: the first snapshot is allowed to
        // differ from the constructor platform (a caller resuming a trace
        // mid-way), and on a step-0 state with no live factorization the
        // update only rewrites the stored rows, so the usual first-solve
        // path is unchanged. The cut rows are cost-independent and stay
        // untouched; this is the cross-step warm start.
        match &mut self.master {
            MasterLp::Warm(state) => {
                let rows = port_constraints(platform, self.slice_size, &self.n_vars);
                debug_assert_eq!(rows.len(), self.port_rows.len());
                let updates: Vec<RowUpdate> = self
                    .port_rows
                    .iter()
                    .zip(rows)
                    .map(|(&row, con)| RowUpdate::new(row, con.terms, con.rhs))
                    .collect();
                state.update_coeffs(&updates).map_err(CoreError::Lp)?;
            }
            MasterLp::Cold(base) => {
                *base = edge_lp_skeleton(platform, self.slice_size).0;
            }
        }

        let screening = self.options.screen_separation;
        let mut rounds = 0usize;
        let mut purged = 0usize;
        let mut simplex_iterations = 0usize;
        let mut skipped_separations = 0usize;
        let mut last_solution = self.solve_master(&mut simplex_iterations)?;
        loop {
            rounds += 1;
            let round_start = if bcast_obs::enabled() {
                Some(std::time::Instant::now())
            } else {
                None
            };
            let tp_value = last_solution.value(self.tp);
            let loads: Vec<f64> = self
                .n_vars
                .iter()
                .map(|&v| last_solution.value(v))
                .collect();
            let tol = SEPARATION_TOL * tp_value.abs().max(1.0);

            // In-out separation point: the master's optimal face is hugely
            // degenerate, and cuts separated at a raw vertex barely nick it
            // (the next vertex leaks new violations round after round while
            // TP never moves). Separating at the midpoint towards a running
            // average of the previous optima finds cuts that slice off far
            // more of the face. Exactness is unaffected: the point is only
            // used while it yields cuts — a round that finds none falls
            // back to exact separation at the true master solution below.
            let sep_point: Vec<f64> = if self.stab_center.len() == loads.len() {
                loads
                    .iter()
                    .zip(&self.stab_center)
                    .map(|(&l, &c)| 0.5 * (l + c))
                    .collect()
            } else {
                loads.clone()
            };

            let sep_span = bcast_obs::span!(bcast_obs::names::SPAN_CUTGEN_SEPARATION);
            let (mut new_cuts, skipped_this_round) = self.separate_batch(
                platform,
                &destinations,
                &sep_point,
                tp_value,
                tol,
                screening,
            );
            skipped_separations += skipped_this_round;
            if new_cuts == 0 {
                // Exact pass at the true master solution: the stabilized
                // separation point is a heuristic and the screen's bound is
                // conservative; termination is only ever declared from an
                // unscreened separation of the actual optimum.
                let (extra, _) =
                    self.separate_batch(platform, &destinations, &loads, tp_value, tol, false);
                new_cuts += extra;
            }
            drop(sep_span);
            bcast_obs::counter_add(
                bcast_obs::names::CUTGEN_SEPARATIONS_SCREENED,
                skipped_this_round as u64,
            );
            bcast_obs::emit_with(|| bcast_obs::Event::SepRound {
                step: step as u64,
                round: rounds as u64,
                tp: tp_value,
                new_cuts: new_cuts as u64,
                screened: skipped_this_round as u64,
                t_ns: round_start.map_or(0, |s| s.elapsed().as_nanos() as u64),
            });
            if new_cuts == 0 || rounds >= MAX_ROUNDS {
                let binding_cuts = self
                    .cuts
                    .iter()
                    .filter(|c| c.active && cut_slack(c, &loads, tp_value) <= tol)
                    .map(|c| NodeCutSet {
                        source_side: c.side.clone(),
                    })
                    .collect();
                return Ok(CutGenResult {
                    optimal: OptimalThroughput {
                        throughput: tp_value,
                        edge_load: loads,
                        iterations: rounds,
                        cuts: self.cuts.len(),
                        purged_cuts: purged,
                        simplex_iterations,
                    },
                    binding_cuts,
                    reused_cuts,
                    skipped_separations,
                });
            }
            // Purge cuts whose slack stayed non-binding for `purge_after`
            // consecutive rounds (counted on the rounds where they were
            // priced). In warm mode the rows are deleted from the live
            // basis right away: a non-binding cut's slack is basic, so the
            // deletion keeps the factorization valid (a degenerate
            // exception falls back to one cold refactorization inside the
            // solver).
            if let Some(limit) = self.options.purge_after {
                let mut purged_rows: Vec<RowId> = Vec::new();
                for cut in self.cuts.iter_mut().filter(|c| c.active) {
                    if cut_slack(cut, &loads, tp_value) > tol {
                        cut.non_binding_streak += 1;
                        if cut.non_binding_streak >= limit {
                            cut.active = false;
                            cut.non_binding_streak = 0;
                            purged += 1;
                            if let Some(row) = cut.row.take() {
                                purged_rows.push(row);
                            }
                        }
                    } else {
                        cut.non_binding_streak = 0;
                    }
                }
                if !purged_rows.is_empty() {
                    if let MasterLp::Warm(state) = &mut self.master {
                        state.delete_rows(&purged_rows).map_err(CoreError::Lp)?;
                    }
                }
            }
            if self.stab_center.len() == loads.len() {
                for (c, &l) in self.stab_center.iter_mut().zip(&loads) {
                    *c = 0.5 * (*c + l);
                }
            } else {
                self.stab_center = loads.clone();
            }
            last_solution = self.solve_master(&mut simplex_iterations)?;
        }
    }
}

// ---- session snapshots -------------------------------------------------

/// One cut of a [`SessionSnapshot`] — the plain-data image of the private
/// cut-pool entry, with the master row handle flattened to its raw index.
#[derive(Clone, Debug, PartialEq)]
pub struct CutSnapshot {
    /// Source-side membership of the cut's node partition.
    pub side: Vec<bool>,
    /// Crossing platform edges (sorted raw indices).
    pub edges: Vec<u32>,
    /// Consecutive master rounds with strictly positive slack.
    pub non_binding_streak: usize,
    /// False once purged (until re-separated).
    pub active: bool,
    /// Raw index of the warm master's row handle, `None` when cold,
    /// purged, or not yet appended.
    pub row: Option<usize>,
}

/// One destination's separation-screen state inside a [`SessionSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScreenSnapshot {
    /// True when the certificate below is live.
    pub valid: bool,
    /// Max-flow measured the last time this destination's oracle ran.
    pub flow: f64,
    /// `(edge, flow carried)` over the measured flow's support.
    pub support: Vec<(u32, f64)>,
}

/// Plain-data snapshot of a [`CutGenSession`]: everything the session
/// carries across steps that is not derivable from the platform — options,
/// the master LP's [`SimplexSnapshot`] (warm mode), the cut pool, the
/// separation screen, and the stabilization center.
///
/// Produced by [`CutGenSession::capture`] / [`CutGenSession::snapshot`] and
/// consumed by [`CutGenSession::restore`], which validates the snapshot
/// against the platform it is restored onto and returns
/// [`LpError::CorruptSnapshot`] (wrapped in [`CoreError::Lp`]) instead of
/// panicking on malformed input. Restoring is *canonicalizing*: derived
/// state (max-flow scratch, the cut dedup index, the LP factorization) is
/// rebuilt from the plain data, so a restored session and a live session
/// that passed through [`CutGenSession::snapshot`] at the same point are
/// identical and their subsequent solves agree bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSnapshot {
    /// The solver options, verbatim (seed cuts included — they only matter
    /// at construction time but keep the snapshot self-describing).
    pub options: CutGenOptions,
    /// Broadcast source node index.
    pub source: usize,
    /// Slice size the port constraints were built with.
    pub slice_size: f64,
    /// Node count of the session's topology.
    pub nodes: usize,
    /// Edge count of the session's topology.
    pub edges: usize,
    /// Raw variable index of the throughput variable `TP`.
    pub tp: usize,
    /// Raw variable indices of the per-edge load variables.
    pub n_vars: Vec<usize>,
    /// Warm mode: the master's [`SimplexSnapshot`]. `None` in cold mode
    /// (the cold base is rebuilt from the platform — the live solver
    /// rewrites it from the platform every step anyway).
    pub master: Option<SimplexSnapshot>,
    /// Warm mode: raw indices of the one-port row handles.
    pub port_rows: Vec<usize>,
    /// Warm mode: `(node index, is output port)` identity of each port row.
    pub port_keys: Vec<(usize, bool)>,
    /// The cut pool.
    pub cuts: Vec<CutSnapshot>,
    /// Snapshots solved so far.
    pub steps: usize,
    /// Per-destination screening state (node order, source removed).
    pub screen: Vec<ScreenSnapshot>,
    /// Stabilization center of the in-out separation (empty until the
    /// first master round).
    pub stab_center: Vec<f64>,
}

impl CutGenSession {
    /// Captures the session as plain data. The live session is untouched —
    /// use [`snapshot`](CutGenSession::snapshot) when the capture must be
    /// bit-reproducible by a later [`restore`](CutGenSession::restore).
    pub fn capture(&self) -> SessionSnapshot {
        SessionSnapshot {
            options: self.options.clone(),
            source: self.source.index(),
            slice_size: self.slice_size,
            nodes: self.nodes,
            edges: self.edges,
            tp: self.tp.index(),
            n_vars: self.n_vars.iter().map(|v| v.index()).collect(),
            master: match &self.master {
                MasterLp::Warm(state) => Some(state.capture()),
                MasterLp::Cold(_) => None,
            },
            port_rows: self.port_rows.iter().map(|r| r.index()).collect(),
            port_keys: self
                .port_keys
                .iter()
                .map(|k| (k.node.index(), k.out))
                .collect(),
            cuts: self
                .cuts
                .iter()
                .map(|c| CutSnapshot {
                    side: c.side.clone(),
                    edges: c.edges.clone(),
                    non_binding_streak: c.non_binding_streak,
                    active: c.active,
                    row: c.row.map(|r| r.index()),
                })
                .collect(),
            steps: self.steps,
            screen: self
                .screen
                .iter()
                .map(|s| ScreenSnapshot {
                    valid: s.valid,
                    flow: s.flow,
                    support: s.support.clone(),
                })
                .collect(),
            stab_center: self.stab_center.clone(),
        }
    }

    /// Captures the session *and* canonicalizes the live state to the
    /// restored image (`*self = restore(platform, &capture)`), so the
    /// session's subsequent solves agree bit for bit with a session
    /// restored from the returned snapshot. The canonicalization only
    /// rebuilds derived scratch (factorization, max-flow residuals, dedup
    /// index); the mathematical state — basis, cut pool, screen — is
    /// unchanged.
    ///
    /// # Panics
    /// Panics when `platform` does not share the session's topology (the
    /// steps reject such a platform with [`CoreError::TopologyMismatch`]).
    pub fn snapshot(&mut self, platform: &Platform) -> SessionSnapshot {
        assert!(
            platform.node_count() == self.nodes && platform.edge_count() == self.edges,
            "snapshot platform must keep the session's topology \
             ({}/{} nodes, {}/{} edges)",
            platform.node_count(),
            self.nodes,
            platform.edge_count(),
            self.edges,
        );
        let snapshot = self.capture();
        *self = Self::restore(platform, &snapshot)
            .expect("a capture of a live session is structurally valid");
        snapshot
    }

    /// Rebuilds a session from a [`SessionSnapshot`] on `platform` (which
    /// must carry the topology the snapshot was taken on; link costs are
    /// read fresh from `platform` on the next solve, exactly as the live
    /// session would).
    ///
    /// Every structural invariant is validated first; malformed input —
    /// truncated files, flipped bytes, a snapshot from a different
    /// platform — yields `Err(CoreError::Lp(LpError::CorruptSnapshot))`,
    /// never a panic. A structurally valid snapshot whose simplex basis
    /// cannot be re-factorized degrades inside the LP layer to its
    /// deterministic cold-solve fallback.
    pub fn restore(platform: &Platform, snapshot: &SessionSnapshot) -> Result<Self, CoreError> {
        let corrupt = || CoreError::Lp(LpError::CorruptSnapshot);
        let n = snapshot.nodes;
        let m = snapshot.edges;
        if n == 0
            || platform.node_count() != n
            || platform.edge_count() != m
            || snapshot.source >= n
            || !snapshot.slice_size.is_finite()
            || snapshot.slice_size <= 0.0
        {
            return Err(corrupt());
        }
        if snapshot.n_vars.len() != m {
            return Err(corrupt());
        }
        if snapshot.screen.len() != n.saturating_sub(1)
            || !(snapshot.stab_center.is_empty() || snapshot.stab_center.len() == m)
            || snapshot.stab_center.iter().any(|c| !c.is_finite())
        {
            return Err(corrupt());
        }
        for s in &snapshot.screen {
            if !s.flow.is_finite()
                || s.support
                    .iter()
                    .any(|&(e, f)| e as usize >= m || !f.is_finite())
            {
                return Err(corrupt());
            }
        }
        let mut index_by_edges = HashMap::with_capacity(snapshot.cuts.len());
        for (i, cut) in snapshot.cuts.iter().enumerate() {
            if cut.side.len() != n
                || cut.edges.is_empty()
                || cut.edges.iter().any(|&e| e as usize >= m)
                || index_by_edges.insert(cut.edges.clone(), i).is_some()
            {
                return Err(corrupt());
            }
        }
        if snapshot.options.warm_start != snapshot.master.is_some()
            || snapshot.port_rows.len() != snapshot.port_keys.len()
            || snapshot.port_keys.iter().any(|&(node, _)| node >= n)
        {
            return Err(corrupt());
        }
        let master = match &snapshot.master {
            Some(master) => {
                let state = SimplexState::restore(master).map_err(CoreError::Lp)?;
                // Churn steps renumber columns, so the variable layout is
                // not canonical in warm mode; instead, every session
                // variable must resolve to a live column of the restored
                // master, and no two may alias.
                let mut seen = HashSet::with_capacity(m + 1);
                for &v in std::iter::once(&snapshot.tp).chain(&snapshot.n_vars) {
                    if !seen.insert(v) || state.col_id(VarId(v)).is_err() {
                        return Err(corrupt());
                    }
                }
                MasterLp::Warm(Box::new(state))
            }
            None => {
                // Cold mode rebuilds the base LP from `edge_lp_skeleton`
                // on every solve, so the layout must be the canonical one:
                // TP first, then one load variable per edge.
                if snapshot.tp != 0
                    || snapshot.n_vars.iter().enumerate().any(|(e, &v)| v != e + 1)
                    || !snapshot.port_rows.is_empty()
                {
                    return Err(corrupt());
                }
                let (base, _, _) = edge_lp_skeleton(platform, snapshot.slice_size);
                MasterLp::Cold(base)
            }
        };
        Ok(CutGenSession {
            options: snapshot.options.clone(),
            source: NodeId(snapshot.source as u32),
            slice_size: snapshot.slice_size,
            nodes: n,
            edges: m,
            tp: VarId(snapshot.tp),
            n_vars: snapshot.n_vars.iter().map(|&v| VarId(v)).collect(),
            master,
            port_rows: snapshot
                .port_rows
                .iter()
                .map(|&r| RowId::from_index(r))
                .collect(),
            port_keys: snapshot
                .port_keys
                .iter()
                .map(|&(node, out)| PortKey {
                    node: NodeId(node as u32),
                    out,
                })
                .collect(),
            cuts: snapshot
                .cuts
                .iter()
                .map(|c| Cut {
                    side: c.side.clone(),
                    edges: c.edges.clone(),
                    non_binding_streak: c.non_binding_streak,
                    active: c.active,
                    row: c.row.map(RowId::from_index),
                })
                .collect(),
            index_by_edges,
            steps: snapshot.steps,
            maxflow: MaxFlowSolver::new(platform.graph()),
            screen: snapshot
                .screen
                .iter()
                .map(|s| DestScreen {
                    valid: s.valid,
                    flow: s.flow,
                    support: s.support.clone(),
                })
                .collect(),
            stab_center: snapshot.stab_center.clone(),
        })
    }
}

/// Slack of a cut at the point `(loads, tp)`: `Σ_{e ∈ cut} n_e − TP`.
fn cut_slack(cut: &Cut, loads: &[f64], tp: f64) -> f64 {
    cut.edges.iter().map(|&e| loads[e as usize]).sum::<f64>() - tp
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
    use bcast_platform::LinkCost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn directed_diamond_is_half() {
        let mut b = Platform::builder();
        let p = b.add_processors(4);
        b.add_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[0], p[2], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[1], p[3], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[2], p[3], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let o = solve(&platform, NodeId(0), 1.0).unwrap();
        assert!((o.throughput - 0.5).abs() < 1e-6, "TP = {}", o.throughput);
        assert!(o.cuts >= 2);
    }

    #[test]
    fn heterogeneous_star_splits_bandwidth() {
        // Source with two leaves over links of time 1 and 3: out-port
        // n1·1 + n2·3 ≤ 1 and TP ≤ min(n1, n2) → optimum TP = 1/4.
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[0], p[2], LinkCost::one_port(0.0, 3.0));
        let platform = b.build();
        let o = solve(&platform, NodeId(0), 1.0).unwrap();
        assert!((o.throughput - 0.25).abs() < 1e-6, "TP = {}", o.throughput);
    }

    #[test]
    fn loads_support_the_claimed_throughput() {
        // On every instance the returned loads must admit, per destination, a
        // flow of value TP (this is exactly what termination guarantees).
        let mut rng = StdRng::seed_from_u64(14);
        let platform = random_platform(&RandomPlatformConfig::paper(12, 0.15), &mut rng);
        let o = solve(&platform, NodeId(0), 1.0e6).unwrap();
        for w in platform.nodes().filter(|&w| w != NodeId(0)) {
            let flow = bcast_net::maxflow::max_flow(platform.graph(), NodeId(0), w, |e, _| {
                o.edge_load[e.index()]
            });
            assert!(
                flow.value >= o.throughput * (1.0 - 1e-5),
                "destination {w}: flow {} < TP {}",
                flow.value,
                o.throughput
            );
        }
    }

    #[test]
    fn larger_platform_converges_quickly() {
        let mut rng = StdRng::seed_from_u64(15);
        let platform = random_platform(&RandomPlatformConfig::paper(30, 0.1), &mut rng);
        let o = solve(&platform, NodeId(0), 1.0e6).unwrap();
        assert!(o.throughput > 0.0);
        assert!(o.iterations < MAX_ROUNDS, "rounds = {}", o.iterations);
    }

    #[test]
    fn purging_preserves_the_optimum() {
        let mut rng = StdRng::seed_from_u64(21);
        let platform = random_platform(&RandomPlatformConfig::paper(20, 0.12), &mut rng);
        let purged = solve_with(
            &platform,
            NodeId(0),
            1.0e6,
            &CutGenOptions {
                purge_after: Some(2),
                seed_cuts: Vec::new(),
                ..CutGenOptions::default()
            },
        )
        .unwrap();
        let kept = solve_with(
            &platform,
            NodeId(0),
            1.0e6,
            &CutGenOptions {
                purge_after: None,
                seed_cuts: Vec::new(),
                ..CutGenOptions::default()
            },
        )
        .unwrap();
        assert!(
            (purged.optimal.throughput - kept.optimal.throughput).abs()
                <= 1e-6 * kept.optimal.throughput,
            "purged {} vs kept {}",
            purged.optimal.throughput,
            kept.optimal.throughput
        );
        assert_eq!(kept.optimal.purged_cuts, 0);
    }

    #[test]
    fn binding_cuts_are_tight_and_reusable_as_seeds() {
        let mut rng = StdRng::seed_from_u64(22);
        let platform = random_platform(&RandomPlatformConfig::paper(14, 0.12), &mut rng);
        let first = solve_with(&platform, NodeId(0), 1.0e6, &CutGenOptions::default()).unwrap();
        assert!(!first.binding_cuts.is_empty());
        for cut in &first.binding_cuts {
            assert!(cut.is_valid_for(&platform, NodeId(0)));
            let capacity: f64 = cut
                .crossing_edges(&platform)
                .iter()
                .map(|&e| first.optimal.edge_load[e as usize])
                .sum();
            assert!(
                capacity <= first.optimal.throughput * (1.0 + 1e-5),
                "cut is not tight: {capacity} vs {}",
                first.optimal.throughput
            );
        }
        // A *different* instance of the same family/size accepts the cuts as
        // seeds and reaches the same optimum as an unseeded solve.
        let platform2 = random_platform(&RandomPlatformConfig::paper(14, 0.12), &mut rng);
        let seeded = solve_with(
            &platform2,
            NodeId(0),
            1.0e6,
            &CutGenOptions {
                purge_after: Some(2),
                seed_cuts: first.binding_cuts.clone(),
                ..CutGenOptions::default()
            },
        )
        .unwrap();
        let unseeded = solve(&platform2, NodeId(0), 1.0e6).unwrap();
        assert!(
            (seeded.optimal.throughput - unseeded.throughput).abs()
                <= 1e-6 * unseeded.throughput.max(1e-12),
            "seeded {} vs unseeded {}",
            seeded.optimal.throughput,
            unseeded.throughput
        );
    }

    #[test]
    fn drift_session_matches_fresh_solves_per_step() {
        use bcast_platform::drift::{DriftConfig, DriftTrace};
        use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
        let mut rng = StdRng::seed_from_u64(31);
        let platform = tiers_platform(&TiersConfig::paper(20, 0.10), &mut rng);
        let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_failures(5, 77));
        let mut session =
            CutGenSession::new(&platform, NodeId(0), 1.0e6, CutGenOptions::default()).unwrap();
        let mut reused_any = false;
        for step in 0..trace.len() {
            let snapshot = trace.platform_at(step);
            let warm = session.solve_step(&snapshot).unwrap();
            let fresh = solve(&snapshot, NodeId(0), 1.0e6).unwrap();
            assert!(
                (warm.optimal.throughput - fresh.throughput).abs()
                    <= 1e-6 * fresh.throughput.max(1e-12),
                "step {step}: session {} vs fresh {}",
                warm.optimal.throughput,
                fresh.throughput
            );
            if step > 0 {
                assert!(warm.reused_cuts > 0, "step {step} reused no cuts");
                reused_any = true;
            }
        }
        assert!(reused_any);
        assert_eq!(session.steps(), trace.len());
    }

    #[test]
    fn churn_session_matches_fresh_solves_per_step() {
        use bcast_platform::drift::{DriftConfig, DriftTrace};
        use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
        let mut rng = StdRng::seed_from_u64(41);
        let platform = tiers_platform(&TiersConfig::paper(16, 0.12), &mut rng);
        let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_churn(10, 123));
        let mut session =
            CutGenSession::new(&platform, NodeId(0), 1.0e6, CutGenOptions::default()).unwrap();
        let mut churned = false;
        for step in 0..trace.len() {
            let snapshot = trace.platform_at(step);
            let warm = if step == 0 {
                session.solve_step(&snapshot).unwrap()
            } else {
                let remap = trace.remap(step - 1, step);
                churned |= !remap.is_identity();
                session.solve_step_churn(&snapshot, &remap).unwrap()
            };
            let fresh = solve(&snapshot, trace.source_at(step), 1.0e6).unwrap();
            assert!(
                (warm.optimal.throughput - fresh.throughput).abs()
                    <= 1e-6 * fresh.throughput.max(1e-12),
                "step {step}: churn session {} vs fresh {}",
                warm.optimal.throughput,
                fresh.throughput
            );
            // Loads are reported in the snapshot's compact edge space.
            assert_eq!(warm.optimal.edge_load.len(), snapshot.edge_count());
            for cut in &warm.binding_cuts {
                assert!(cut.is_valid_for(&snapshot, trace.source_at(step)));
            }
        }
        assert!(churned, "trace produced no node churn");
    }

    #[test]
    fn churn_session_survives_cold_mode() {
        use bcast_platform::drift::{DriftConfig, DriftTrace};
        let mut rng = StdRng::seed_from_u64(43);
        let platform = random_platform(&RandomPlatformConfig::paper(10, 0.2), &mut rng);
        let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_churn(6, 7));
        let options = CutGenOptions {
            warm_start: false,
            ..CutGenOptions::default()
        };
        let mut session = CutGenSession::new(&platform, NodeId(0), 1.0e6, options).unwrap();
        for step in 0..trace.len() {
            let snapshot = trace.platform_at(step);
            let remap = if step == 0 {
                ChurnRemap::identity(snapshot.node_count(), snapshot.edge_count())
            } else {
                trace.remap(step - 1, step)
            };
            let cold = session.solve_step_churn(&snapshot, &remap).unwrap();
            let fresh = solve(&snapshot, trace.source_at(step), 1.0e6).unwrap();
            assert!(
                (cold.optimal.throughput - fresh.throughput).abs()
                    <= 1e-6 * fresh.throughput.max(1e-12),
                "step {step}: {} vs {}",
                cold.optimal.throughput,
                fresh.throughput
            );
        }
    }

    /// The TP-level differential against the dense oracle. Every positive
    /// dual of the final master sits on a tight cut, so the skeleton plus
    /// the result's binding cuts is a smaller LP with the same optimum;
    /// `solve_dense` solves it cold and the sparse cut-generation TP must
    /// match at 1e-6 — on all three families at 20 nodes and on the
    /// Tiers-65 point. The sparse loads must also carry the TP to every
    /// destination (primal feasibility of the full cut LP).
    #[test]
    fn tp_matches_the_dense_oracle_on_the_rebuilt_final_master() {
        use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
        use bcast_platform::generators::{gaussian_platform, GaussianPlatformConfig};
        let slice = 1.0e6;
        let platforms = [
            (
                "random-20",
                random_platform(
                    &RandomPlatformConfig::paper(20, 0.12),
                    &mut StdRng::seed_from_u64(5024),
                ),
            ),
            (
                "tiers-20",
                tiers_platform(
                    &TiersConfig::paper(20, 0.10),
                    &mut StdRng::seed_from_u64(5025),
                ),
            ),
            (
                "gaussian-20",
                gaussian_platform(
                    &GaussianPlatformConfig::paper(20),
                    &mut StdRng::seed_from_u64(5026),
                ),
            ),
            (
                "tiers-65",
                tiers_platform(
                    &TiersConfig::paper(65, 0.06),
                    &mut StdRng::seed_from_u64(65),
                ),
            ),
        ];
        for (label, platform) in &platforms {
            let result = solve_with(platform, NodeId(0), slice, &CutGenOptions::default()).unwrap();
            let (mut lp, tp, n_vars) = edge_lp_skeleton(platform, slice);
            for cut in &result.binding_cuts {
                lp.add_ge(
                    &cut_row_terms(&cut.crossing_edges(platform), tp, &n_vars),
                    0.0,
                );
            }
            let dense = bcast_lp::solve_dense(&lp, &SimplexOptions::default())
                .expect("the rebuilt master is solvable");
            let sparse_tp = result.optimal.throughput;
            assert!(
                (sparse_tp - dense.objective).abs() <= 1e-6 * dense.objective.max(1e-12),
                "{label}: sparse TP {sparse_tp} vs dense oracle {}",
                dense.objective
            );
            for w in platform.nodes().filter(|&w| w != NodeId(0)) {
                let flow = bcast_net::maxflow::max_flow(platform.graph(), NodeId(0), w, |e, _| {
                    result.optimal.edge_load[e.index()]
                });
                assert!(
                    flow.value >= sparse_tp * (1.0 - 1e-5),
                    "{label}: destination {w} flow {} < TP {sparse_tp}",
                    flow.value
                );
            }
        }
    }

    #[test]
    fn first_solve_step_honours_the_passed_snapshot() {
        // Resuming a trace mid-way: the session is constructed from the
        // base platform but its *first* solve_step gets a later (drifted)
        // snapshot — the result must be the snapshot's optimum, not the
        // constructor platform's.
        use bcast_platform::drift::{DriftConfig, DriftTrace};
        let mut rng = StdRng::seed_from_u64(33);
        let platform = random_platform(&RandomPlatformConfig::paper(12, 0.15), &mut rng);
        let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::gentle(4, 5));
        let snapshot = trace.platform_at(4);
        let mut session =
            CutGenSession::new(trace.base(), NodeId(0), 1.0e6, CutGenOptions::default()).unwrap();
        let resumed = session.solve_step(&snapshot).unwrap();
        let fresh = solve(&snapshot, NodeId(0), 1.0e6).unwrap();
        assert!(
            (resumed.optimal.throughput - fresh.throughput).abs()
                <= 1e-6 * fresh.throughput.max(1e-12),
            "resumed {} vs fresh {}",
            resumed.optimal.throughput,
            fresh.throughput
        );
    }

    #[test]
    fn session_rejects_topology_changes() {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let mut session =
            CutGenSession::new(&platform, NodeId(0), 1.0, CutGenOptions::default()).unwrap();
        session.solve_step(&platform).unwrap();
        let mut b = Platform::builder();
        let p = b.add_processors(2);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        let smaller = b.build();
        let err = session.solve_step(&smaller).unwrap_err();
        assert!(matches!(err, CoreError::TopologyMismatch(_)), "{err:?}");
        // A remap from another topology, and one that drops the source.
        let other = ChurnRemap::identity(2, 2);
        let err = session.solve_step_churn(&smaller, &other).unwrap_err();
        assert!(matches!(err, CoreError::TopologyMismatch(_)), "{err:?}");
        let mut no_source = ChurnRemap::identity(3, 4);
        no_source.node_map[0] = None;
        let err = session.solve_step_churn(&platform, &no_source).unwrap_err();
        assert!(matches!(err, CoreError::TopologyMismatch(_)), "{err:?}");
        // The rejected steps left the session untouched.
        let again = session.solve_step(&platform).unwrap();
        let fresh = CutGenSession::new(&platform, NodeId(0), 1.0, CutGenOptions::default())
            .unwrap()
            .solve_step(&platform)
            .unwrap();
        assert_eq!(again.optimal.throughput, fresh.optimal.throughput);
        assert_eq!(session.steps(), 2);
    }

    #[test]
    fn infeasible_and_trivial_platforms_are_handled() {
        // Unreachable destination: explicit error, not a bogus throughput.
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let err = solve_with(&platform, NodeId(0), 1.0, &CutGenOptions::default()).unwrap_err();
        assert_eq!(err, CoreError::Unreachable { source: NodeId(0) });
        // Single processor: infinite throughput, like `optimal_throughput`.
        let mut b = Platform::builder();
        b.add_processor("only");
        let single = b.build();
        let r = solve_with(&single, NodeId(0), 1.0, &CutGenOptions::default()).unwrap();
        assert!(r.optimal.throughput.is_infinite());
    }

    #[test]
    fn screening_skips_separations_and_preserves_the_optimum() {
        // The screen's habitat is a drift session: between consecutive
        // steps the separation points barely move, so destinations whose
        // certified flow still clears the (possibly lowered) target must be
        // skipped — and every step's optimum must equal the unscreened one.
        use bcast_platform::drift::{DriftConfig, DriftTrace};
        use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
        let mut rng = StdRng::seed_from_u64(77);
        let platform = tiers_platform(&TiersConfig::paper(40, 0.10), &mut rng);
        let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::gentle(12, 77));
        let mut screened =
            CutGenSession::new(trace.base(), NodeId(0), 1.0e6, CutGenOptions::default()).unwrap();
        let mut unscreened = CutGenSession::new(
            trace.base(),
            NodeId(0),
            1.0e6,
            CutGenOptions {
                screen_separation: false,
                ..CutGenOptions::default()
            },
        )
        .unwrap();
        let mut skipped = 0usize;
        for step in 0..trace.len() {
            let snapshot = trace.platform_at(step);
            let s = screened.solve_step(&snapshot).unwrap();
            let u = unscreened.solve_step(&snapshot).unwrap();
            assert_eq!(u.skipped_separations, 0);
            skipped += s.skipped_separations;
            assert!(
                (s.optimal.throughput - u.optimal.throughput).abs() <= 1e-6 * u.optimal.throughput,
                "step {step}: screened {} vs unscreened {}",
                s.optimal.throughput,
                u.optimal.throughput
            );
        }
        assert!(skipped > 0, "drift walk exercised no screen skips");
    }

    #[test]
    fn separation_is_bit_identical_across_thread_counts() {
        // The parallel oracle plans and reduces in fixed destination order:
        // every result field — loads included — must be *bit*-equal between
        // a serial run and any sharded run.
        let mut rng = StdRng::seed_from_u64(53);
        let platform = random_platform(&RandomPlatformConfig::paper(24, 0.12), &mut rng);
        let solve_at = |threads: usize| {
            solve_with(
                &platform,
                NodeId(0),
                1.0e6,
                &CutGenOptions {
                    separation_threads: threads,
                    ..CutGenOptions::default()
                },
            )
            .unwrap()
        };
        let serial = solve_at(1);
        for threads in [2, 4] {
            let sharded = solve_at(threads);
            assert_eq!(
                serial.optimal.throughput.to_bits(),
                sharded.optimal.throughput.to_bits(),
                "{threads} threads: TP differs"
            );
            let same_loads = serial
                .optimal
                .edge_load
                .iter()
                .zip(&sharded.optimal.edge_load)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_loads, "{threads} threads: edge loads differ");
            assert_eq!(serial.optimal.iterations, sharded.optimal.iterations);
            assert_eq!(
                serial.optimal.simplex_iterations,
                sharded.optimal.simplex_iterations
            );
            assert_eq!(serial.optimal.cuts, sharded.optimal.cuts);
            assert_eq!(serial.skipped_separations, sharded.skipped_separations);
            assert_eq!(serial.binding_cuts.len(), sharded.binding_cuts.len());
        }
    }

    #[test]
    fn invalid_seed_cuts_are_ignored() {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[0], p[2], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let bogus = vec![
            NodeCutSet {
                source_side: vec![true; 7], // wrong length
            },
            NodeCutSet {
                source_side: vec![false, true, true], // source outside
            },
            NodeCutSet {
                source_side: vec![true, true, true], // nothing outside
            },
        ];
        let r = solve_with(
            &platform,
            NodeId(0),
            1.0,
            &CutGenOptions {
                purge_after: Some(2),
                seed_cuts: bogus,
                ..CutGenOptions::default()
            },
        )
        .unwrap();
        assert!((r.optimal.throughput - 0.5).abs() < 1e-6);
    }
}
