//! # bcast-sched — periodic steady-state schedule synthesis
//!
//! The optimal-throughput LP of the paper (and the cut-generation solver in
//! `bcast-core`) produces per-edge loads `n_e` — how many slices should
//! cross each link per time unit — but a load vector is not something a
//! platform can *execute*. Steady-state scheduling theory says the LP
//! solution can always be materialised as a **periodic schedule**, and the
//! multiple-tree streaming literature shows why that matters: a weighted
//! set of trees beats any single tree. This crate closes the loop
//! LP → schedule → simulator:
//!
//! 1. **Rationalise** ([`rounding`]) — scale the loads to integers
//!    `c_e = ⌈n_e·B/TP⌉` for a batch of `B` slices per period, with a
//!    guaranteed throughput-loss bound `TP·D/B` (see the module docs), and
//!    repair any floating-point-induced under-capacity with integer
//!    max-flows.
//! 2. **Pack** ([`packing`]) — decompose the integer load multigraph into
//!    `B` spanning arborescences (Edmonds' theorem, constructive à la
//!    Lovász): batch slice `j` travels along tree `j`, so every processor
//!    receives every slice exactly once per period.
//! 3. **Schedule** ([`schedule`]) — sort the period's transfers by
//!    decreasing duration, timetable them without barriers under the
//!    bidirectional one-port model the LP bounds (a list scheduler that
//!    starts the transfer on the most loaded ports first), and assign
//!    inter-period lags so causality holds.
//!
//! The result is a [`PeriodicSchedule`]: the parts it was assembled from
//! (trees and rounding), per-transfer start offsets and lags, and the
//! achieved period. Its one-port communication rounds (greedy
//! Birkhoff–von-Neumann matchings of the sorted transfers), per-node port
//! utilisation and pipeline depth are computed from the timetable when
//! asked. `bcast-sim` replays it (`simulate_schedule`) so the synthesized
//! schedule's simulated throughput can be checked against the LP bound —
//! the `table_sched` experiment does exactly that against the single-tree
//! heuristics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod packing;
pub mod rounding;
pub mod schedule;

pub use error::SchedError;
pub use packing::pack_arborescences;
pub use rounding::{round_loads, RoundedLoads, MAX_SLICES_PER_PERIOD};
pub use schedule::{PeriodicSchedule, ScheduleParts, ScheduledTransfer};

use bcast_core::{steady_state_period, BroadcastStructure, OptimalThroughput};
use bcast_net::{EdgeId, NodeId};
use bcast_platform::drift::ChurnRemap;
use bcast_platform::{CommModel, Platform};

/// Options of [`synthesize_schedule`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SynthesisConfig {
    /// Fixed batch size `B` (slices per period); `None` derives it from the
    /// rounding's loss target (see [`round_loads`]).
    pub batch: Option<usize>,
}

impl SynthesisConfig {
    /// A configuration with a fixed batch size `B`.
    pub fn with_batch(batch: usize) -> Self {
        SynthesisConfig { batch: Some(batch) }
    }
}

/// Synthesizes a periodic steady-state schedule realising the optimal edge
/// loads of `optimal` on `platform`.
///
/// `slice_size` must match the slice size the LP was solved for (the loads
/// are in slices per time unit for that size).
pub fn synthesize_schedule(
    platform: &Platform,
    source: NodeId,
    optimal: &OptimalThroughput,
    slice_size: f64,
    config: &SynthesisConfig,
) -> Result<PeriodicSchedule, SchedError> {
    if !bcast_obs::enabled() {
        return synthesize_schedule_inner(platform, source, optimal, slice_size, config);
    }
    let _span = bcast_obs::span!(bcast_obs::names::SPAN_SCHED_SYNTHESIZE);
    let start = std::time::Instant::now();
    let result = synthesize_schedule_inner(platform, source, optimal, slice_size, config);
    if let Ok(schedule) = &result {
        bcast_obs::emit_with(|| bcast_obs::Event::SchedRepair {
            kind: bcast_obs::RepairKind::Synthesize,
            full_rebuild: false,
            kept: 0,
            grafted: 0,
            pruned: 0,
            efficiency: schedule.efficiency(),
            t_ns: start.elapsed().as_nanos() as u64,
        });
    }
    result
}

fn synthesize_schedule_inner(
    platform: &Platform,
    source: NodeId,
    optimal: &OptimalThroughput,
    slice_size: f64,
    config: &SynthesisConfig,
) -> Result<PeriodicSchedule, SchedError> {
    if platform.node_count() == 0 {
        return Err(SchedError::EmptyPlatform);
    }
    let (rounding, trees) = if platform.node_count() == 1 {
        // One slice per period along the empty tree: no transfer, period 0.
        let m = platform.edge_count();
        let rounding = RoundedLoads {
            slices_per_period: 1,
            multiplicity: vec![0; m],
            ideal_period: 0.0,
            loss_bound: 0.0,
            repairs: 0,
            dominated: vec![false; m],
        };
        (rounding, vec![Vec::new()])
    } else {
        if !platform.is_broadcast_feasible(source) {
            return Err(SchedError::Unreachable { source });
        }
        let rounded = round_loads(
            platform,
            source,
            &optimal.edge_load,
            optimal.throughput,
            slice_size,
            config.batch,
        )?;
        let trees = pack_arborescences(
            platform,
            source,
            &rounded.multiplicity,
            rounded.slices_per_period,
        )?;
        (rounded, trees)
    };
    let schedule = schedule::assemble(
        platform,
        ScheduleParts {
            source: source.index(),
            slice_size,
            lp_throughput: optimal.throughput,
            trees,
            rounding,
        },
    );
    debug_assert!(schedule.validate(platform).is_ok());
    Ok(schedule)
}

/// Like [`synthesize_schedule`], but additionally considers each spanning
/// tree in `candidates` as a degenerate one-tree periodic schedule
/// (`B = 1`) and returns whichever schedule achieves the highest
/// throughput.
///
/// A single tree *is* a valid periodic schedule, so the synthesizer should
/// never hand back less than the best tree it is given: on platforms where
/// some heuristic tree already attains the LP bound (chains and other
/// tree-like topologies), the rounded multi-tree schedule can lose a
/// percent or two to integer granularity while the tree is exact — this
/// entry point makes the synthesized artifact dominate both worlds.
pub fn synthesize_schedule_with_tree_fallback(
    platform: &Platform,
    source: NodeId,
    optimal: &OptimalThroughput,
    slice_size: f64,
    config: &SynthesisConfig,
    candidates: &[BroadcastStructure],
) -> Result<PeriodicSchedule, SchedError> {
    let mut best = synthesize_schedule(platform, source, optimal, slice_size, config)?;
    if platform.node_count() <= 1 {
        return Ok(best);
    }
    for structure in candidates {
        if structure.source() != source {
            continue;
        }
        // Only spanning arborescences qualify (the binomial overlay does
        // not define a one-transfer-per-slice periodic schedule).
        let Ok(arborescence) = structure.as_arborescence(platform) else {
            continue;
        };
        // Parent-before-child edge order, as the assembler requires.
        let mut edges = Vec::with_capacity(platform.node_count() - 1);
        for &u in arborescence.bfs_order() {
            edges.extend(arborescence.child_edges(u).iter().copied());
        }
        let mut usage = vec![0u32; platform.edge_count()];
        for &e in &edges {
            usage[e.index()] += 1;
        }
        // The tree's analytic one-port period, for the rounding stats: the
        // exact relative loss of this tree against the LP optimum.
        let period_lb = steady_state_period(platform, structure, CommModel::OnePort, slice_size);
        let rounding = RoundedLoads {
            slices_per_period: 1,
            multiplicity: usage,
            ideal_period: 1.0 / optimal.throughput,
            loss_bound: (period_lb * optimal.throughput - 1.0).max(0.0),
            repairs: 0,
            dominated: vec![false; platform.edge_count()],
        };
        let candidate = schedule::assemble(
            platform,
            ScheduleParts {
                source: source.index(),
                slice_size,
                lp_throughput: optimal.throughput,
                trees: vec![edges],
                rounding,
            },
        );
        debug_assert!(candidate.validate(platform).is_ok());
        if candidate.throughput() > best.throughput() {
            best = candidate;
        }
    }
    Ok(best)
}

/// How much of the previous period survived an incremental re-synthesis
/// (see [`resynthesize_schedule_churn`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Trees of the previous period carried into the new one (verbatim on
    /// a cost-only step, re-grafted across node churn).
    pub kept_trees: usize,
    /// Trees re-packed against the residual capacities.
    pub rebuilt_trees: usize,
    /// True when incremental repair was impossible (batch size changed, the
    /// residual packing failed, or there was no usable previous schedule)
    /// and the schedule was synthesized from scratch.
    pub full_rebuild: bool,
    /// Joining nodes grafted onto the kept trees; counted once per node,
    /// not once per tree. Zero on cost-only steps and full rebuilds.
    pub grafted_nodes: usize,
    /// Leaving nodes pruned out of the previous period's trees. Zero on
    /// cost-only steps and full rebuilds.
    pub pruned_nodes: usize,
}

impl RepairReport {
    /// Repair operations performed: rebuilt trees, or the full batch on a
    /// from-scratch rebuild.
    pub fn repair_ops(&self) -> usize {
        if self.full_rebuild {
            self.kept_trees + self.rebuilt_trees
        } else {
            self.rebuilt_trees
        }
    }
}

/// A repaired schedule whose throughput falls below this fraction of the
/// current LP bound is discarded for a full re-synthesis: the quality gate
/// that keeps incremental repair from decaying indefinitely under drift.
const REPAIR_EFFICIENCY_FLOOR: f64 = 0.85;

/// Re-synthesizes a periodic schedule after the platform's link costs
/// drifted: [`resynthesize_schedule_churn`] under
/// [`ChurnRemap::identity`] of `platform`.
pub fn resynthesize_schedule(
    platform: &Platform,
    source: NodeId,
    optimal: &OptimalThroughput,
    slice_size: f64,
    config: &SynthesisConfig,
    previous: &PeriodicSchedule,
) -> Result<(PeriodicSchedule, RepairReport), SchedError> {
    let remap = ChurnRemap::identity(platform.node_count(), platform.edge_count());
    resynthesize_schedule_churn(
        platform, source, optimal, slice_size, config, previous, &remap,
    )
}

/// Re-synthesizes a periodic schedule for the next snapshot of a changing
/// platform, **repairing** the previous period instead of rebuilding it.
///
/// `remap` (from
/// [`DriftTrace::remap`](bcast_platform::drift::DriftTrace::remap)) says how
/// the previous snapshot's compact ids map onto `platform`'s; a cost-only
/// step passes [`ChurnRemap::identity`], as [`resynthesize_schedule`] does.
/// `platform`, `source` and `optimal` live in the **new** snapshot's id
/// space, `previous` in the old one. The repair keeps the previous batch
/// size and rebuilds only what the step broke:
///
/// 1. **Keep.** A previous tree is carried over and its capacity
///    grandfathered into the multiplicity vector. Under the identity remap
///    it is kept verbatim unless one of its edges is *dominated* — per
///    [`round_loads`], slower per slice than the whole ideal period: the
///    soft-failure representation of a failed link. Otherwise it is
///    translated through `remap.edge_map`: edges of leaving nodes and
///    dominated links drop out, **pruning** the leavers while keeping the
///    orphaned subtrees intact, and each orphaned subtree root and each
///    joining node is **grafted** back under the cheapest serviceable
///    parent (ranked by link time plus the parent's port load over the
///    period so far). The new LP vertex's loads are deliberately **not**
///    the keep criterion: the master LP is massively degenerate, so loads
///    can swing between equivalent vertices while the timetable cost of a
///    kept tree changes only with the drift itself.
/// 2. **Re-pack.** Trees that cannot be kept are re-packed against the
///    residual capacities (the new rounded multiplicities minus what the
///    kept trees consume).
/// 3. **Re-time.** The timetable and the causality lags are re-derived for
///    the new costs (mandatory either way — every transfer's duration
///    changed).
///
/// Repair is heuristic, so it is guarded: when the previous schedule is
/// unusable (other source, other batch shape), the residual packing fails,
/// or the repaired schedule falls below 85% of the current LP bound and a
/// fresh synthesis does better, the function falls back to a full
/// [`synthesize_schedule`]. The returned schedule is always valid for the
/// new platform (debug-asserted here, re-checked by the drift and churn
/// suites at every step) and never silently degraded; the [`RepairReport`]
/// says which path ran. The journal labels the repair `sched.repair` /
/// `repair` under the identity remap and `sched.repair_churn` /
/// `repair_churn` otherwise.
///
/// A `remap` whose target node or edge count differs from `platform`'s is
/// rejected with [`SchedError::TopologyMismatch`].
pub fn resynthesize_schedule_churn(
    platform: &Platform,
    source: NodeId,
    optimal: &OptimalThroughput,
    slice_size: f64,
    config: &SynthesisConfig,
    previous: &PeriodicSchedule,
    remap: &ChurnRemap,
) -> Result<(PeriodicSchedule, RepairReport), SchedError> {
    let given = (platform.node_count(), platform.edge_count());
    if given != (remap.nodes, remap.edges) {
        return Err(SchedError::TopologyMismatch(format!(
            "the remap targets {}/{} nodes/edges, the platform has {}/{}",
            remap.nodes, remap.edges, given.0, given.1
        )));
    }
    let identity = remap.is_identity();
    if !bcast_obs::enabled() {
        return repair(
            platform, source, optimal, slice_size, config, previous, remap, identity,
        );
    }
    use bcast_obs::{names, RepairKind};
    let (span, kind) = if identity {
        (names::SPAN_SCHED_REPAIR, RepairKind::Repair)
    } else {
        (names::SPAN_SCHED_REPAIR_CHURN, RepairKind::RepairChurn)
    };
    let _span = bcast_obs::span!(span);
    let start = std::time::Instant::now();
    let result = repair(
        platform, source, optimal, slice_size, config, previous, remap, identity,
    );
    if let Ok((schedule, report)) = &result {
        bcast_obs::counter_add(names::SCHED_KEPT_TREES, report.kept_trees as u64);
        bcast_obs::counter_add(names::SCHED_FULL_REBUILDS, report.full_rebuild as u64);
        bcast_obs::counter_add(names::SCHED_GRAFTS, report.grafted_nodes as u64);
        bcast_obs::counter_add(names::SCHED_PRUNES, report.pruned_nodes as u64);
        bcast_obs::emit_with(|| bcast_obs::Event::SchedRepair {
            kind,
            full_rebuild: report.full_rebuild,
            kept: report.kept_trees as u64,
            grafted: report.grafted_nodes as u64,
            pruned: report.pruned_nodes as u64,
            efficiency: schedule.efficiency(),
            t_ns: start.elapsed().as_nanos() as u64,
        });
    }
    result
}

/// The repair of [`resynthesize_schedule_churn`]; `identity` is
/// `remap.is_identity()`, which picks the per-tree keep rule.
#[allow(clippy::too_many_arguments)]
fn repair(
    platform: &Platform,
    source: NodeId,
    optimal: &OptimalThroughput,
    slice_size: f64,
    config: &SynthesisConfig,
    previous: &PeriodicSchedule,
    remap: &ChurnRemap,
    identity: bool,
) -> Result<(PeriodicSchedule, RepairReport), SchedError> {
    let full_rebuild = || -> Result<(PeriodicSchedule, RepairReport), SchedError> {
        let schedule = synthesize_schedule(platform, source, optimal, slice_size, config)?;
        let report = RepairReport {
            rebuilt_trees: schedule.slices_per_period(),
            full_rebuild: true,
            ..RepairReport::default()
        };
        Ok((schedule, report))
    };
    let batch = previous.slices_per_period();
    let n = platform.node_count();
    let old_n = remap.node_map.len();
    let old_m = remap.edge_map.len();
    let usable = n > 1
        && batch > 0
        && previous.source().index() < old_n
        && remap.node_map[previous.source().index()] == Some(source)
        && previous.trees().len() == batch
        && previous
            .trees()
            .iter()
            .all(|t| t.len() == old_n - 1 && t.iter().all(|e| e.index() < old_m));
    if !usable {
        return full_rebuild();
    }
    if !platform.is_broadcast_feasible(source) {
        return Err(SchedError::Unreachable { source });
    }
    if !(optimal.throughput.is_finite() && optimal.throughput > 0.0) {
        return Err(SchedError::NonPositiveThroughput);
    }
    // Pin the previous batch size: period-to-period stability matters more
    // than re-deriving B from the loss target every step.
    let mut rounded = round_loads(
        platform,
        source,
        &optimal.edge_load,
        optimal.throughput,
        slice_size,
        Some(batch),
    )?;
    // 1. Keep what the step left serviceable. `used` counts the kept
    //    trees' edges; the port loads over the period so far are the graft
    //    cost model, so successive trees spread their grafts over parents
    //    instead of serialising on one port.
    let mut used = vec![0u32; platform.edge_count()];
    let mut kept: Vec<Vec<EdgeId>> = Vec::with_capacity(batch);
    let mut out_load = vec![0.0f64; n];
    let mut in_load = vec![0.0f64; n];
    for tree in previous.trees() {
        let carried = if identity {
            // `regraft_tree` would reconnect a tree around a failed link
            // and re-emit every tree in its own order; a cost-only step
            // keeps the intact trees as they are and re-packs the rest.
            tree.iter()
                .all(|&e| !rounded.dominated[e.index()])
                .then(|| tree.clone())
        } else {
            regraft_tree(
                platform,
                source,
                remap,
                &rounded.dominated,
                slice_size,
                tree,
                &out_load,
                &in_load,
            )
        };
        if let Some(tree) = carried {
            for &e in &tree {
                used[e.index()] += 1;
                let (u, v) = platform.graph().endpoints(e);
                let time = platform.link_time(e, slice_size);
                out_load[u.index()] += time;
                in_load[v.index()] += time;
            }
            kept.push(tree);
        }
    }
    let missing = batch - kept.len();
    let report = RepairReport {
        kept_trees: kept.len(),
        rebuilt_trees: missing,
        full_rebuild: false,
        grafted_nodes: remap.new_nodes.len(),
        pruned_nodes: remap.node_map.iter().filter(|m| m.is_none()).count(),
    };
    // Grandfather the kept trees' capacity: the multiplicity vector is the
    // schedule's bookkeeping bound (validate: usage ≤ multiplicity), and a
    // kept tree's edges stay cheap under gentle drift even when the new —
    // degenerate — LP vertex moved its loads elsewhere.
    for (mult, &usage) in rounded.multiplicity.iter_mut().zip(&used) {
        *mult = (*mult).max(usage);
    }
    // 2. Re-pack only the evicted trees against the residual capacities.
    let mut trees = kept;
    if missing > 0 {
        let residual: Vec<u32> = rounded
            .multiplicity
            .iter()
            .zip(&used)
            .map(|(&cap, &u)| cap - u)
            .collect();
        match pack_arborescences(platform, source, &residual, missing) {
            Ok(rebuilt) => trees.extend(rebuilt),
            // The kept subset left an unpackable residual: repair is
            // impossible, synthesize from scratch.
            Err(_) => return full_rebuild(),
        }
    }
    // 3. Re-time the period against the new costs.
    let schedule = schedule::assemble(
        platform,
        ScheduleParts {
            source: source.index(),
            slice_size,
            lp_throughput: optimal.throughput,
            trees,
            rounding: rounded,
        },
    );
    debug_assert!(schedule.validate(platform).is_ok());
    // Quality gate: a repair below REPAIR_EFFICIENCY_FLOOR of the LP bound
    // is suspect — but not automatically worse than a fresh synthesis: on
    // some instances the *loads themselves* synthesize poorly (a
    // degenerate LP vertex) and a rebuild of the same loads lands at the
    // same efficiency while discarding every kept tree. Below the floor,
    // pay for the full synthesis once and keep whichever schedule is
    // actually better (ties keep the repair, preserving the trees).
    if schedule.efficiency() < REPAIR_EFFICIENCY_FLOOR {
        let (fresh, fresh_report) = full_rebuild()?;
        if fresh.efficiency() > schedule.efficiency() + 1e-12 {
            return Ok((fresh, fresh_report));
        }
    }
    Ok((schedule, report))
}

/// Translates one previous-period tree into the new id space and
/// reconnects it into a spanning arborescence of the new platform.
///
/// Kept edges are the surviving, still-serviceable images of the old tree's
/// edges; everything the churn disconnected (joining nodes, subtrees whose
/// parent edge died) is grafted back greedily: among all serviceable edges
/// from the connected part to a disconnected node, pick the one minimising
/// the resulting busy time `max(out_load(u) + T_e, in_load(v) + T_e)` of
/// its two ports, which is the port work the one-port timetable pays. The
/// loads accumulate over the *whole period* (`out_load` / `in_load` carry
/// the trees already repaired; this tree's kept and grafted edges are added
/// on top) — that is the port budget: grafting under an already-busy
/// parent costs its whole backlog. Ties break on edge id for determinism.
///
/// Returns the tree's edges in parent-before-child order (as the assembler
/// requires), or `None` when the connected part cannot reach every node
/// through serviceable links (the caller re-packs such trees from the
/// residual capacities instead).
#[allow(clippy::too_many_arguments)]
fn regraft_tree(
    platform: &Platform,
    source: NodeId,
    remap: &ChurnRemap,
    dominated: &[bool],
    slice_size: f64,
    tree: &[EdgeId],
    out_load: &[f64],
    in_load: &[f64],
) -> Option<Vec<EdgeId>> {
    let graph = platform.graph();
    let n = platform.node_count();
    let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
    for &old in tree {
        let Some(e) = remap.edge_map[old.index()] else {
            continue;
        };
        if dominated[e.index()] {
            continue;
        }
        let dst = graph.dst(e);
        debug_assert_ne!(dst, source, "old tree had an edge into the source");
        debug_assert!(
            parent_edge[dst.index()].is_none(),
            "remap mapped two tree edges onto the same head"
        );
        parent_edge[dst.index()] = Some(e);
    }
    // Port busy time including this tree's kept edges: the graft cost's
    // port-budget pressure.
    let mut out_load = out_load.to_vec();
    let mut in_load = in_load.to_vec();
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in platform.nodes() {
        if let Some(e) = parent_edge[v.index()] {
            let u = graph.src(e);
            let time = platform.link_time(e, slice_size);
            out_load[u.index()] += time;
            in_load[v.index()] += time;
            children[u.index()].push(v);
        }
    }
    // The part already connected to the source through kept edges.
    let mut reached = vec![false; n];
    let mut remaining = n;
    let mut queue = std::collections::VecDeque::new();
    reached[source.index()] = true;
    remaining -= 1;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in &children[u.index()] {
            if !reached[v.index()] {
                reached[v.index()] = true;
                remaining -= 1;
                queue.push_back(v);
            }
        }
    }
    // Graft the disconnected part back, cheapest serviceable edge first.
    while remaining > 0 {
        let mut best: Option<(f64, EdgeId)> = None;
        for e in platform.edges() {
            let (u, v) = graph.endpoints(e);
            if !reached[u.index()] || reached[v.index()] || dominated[e.index()] {
                continue;
            }
            let time = platform.link_time(e, slice_size);
            if !time.is_finite() {
                continue;
            }
            let cost = (out_load[u.index()] + time).max(in_load[v.index()] + time);
            let better = match best {
                None => true,
                Some((c, b)) => cost < c || (cost == c && e.index() < b.index()),
            };
            if better {
                best = Some((cost, e));
            }
        }
        let (_, e) = best?;
        let (u, v) = graph.endpoints(e);
        // `v` may sit mid-component, below a kept edge from another
        // unreached node: re-homing it means leaving that parent.
        if let Some(old_e) = parent_edge[v.index()] {
            let old_u = graph.src(old_e);
            let old_time = platform.link_time(old_e, slice_size);
            out_load[old_u.index()] -= old_time;
            in_load[v.index()] -= old_time;
            children[old_u.index()].retain(|&c| c != v);
        }
        let time = platform.link_time(e, slice_size);
        parent_edge[v.index()] = Some(e);
        out_load[u.index()] += time;
        in_load[v.index()] += time;
        children[u.index()].push(v);
        // Reconnecting `v` reconnects its whole kept subtree.
        let mut queue = std::collections::VecDeque::new();
        reached[v.index()] = true;
        remaining -= 1;
        queue.push_back(v);
        while let Some(w) = queue.pop_front() {
            for &c in &children[w.index()] {
                if !reached[c.index()] {
                    reached[c.index()] = true;
                    remaining -= 1;
                    queue.push_back(c);
                }
            }
        }
    }
    // Emit in parent-before-child order, as the assembler requires.
    let mut edges = Vec::with_capacity(n - 1);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in &children[u.index()] {
            edges.push(parent_edge[v.index()].expect("child without a parent edge"));
            queue.push_back(v);
        }
    }
    debug_assert_eq!(edges.len(), n - 1);
    Some(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_core::{optimal_throughput, OptimalMethod};
    use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
    use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
    use bcast_platform::LinkCost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SLICE: f64 = 1.0e6;

    fn synthesize(platform: &Platform, config: &SynthesisConfig) -> PeriodicSchedule {
        let optimal =
            optimal_throughput(platform, NodeId(0), SLICE, OptimalMethod::CutGeneration).unwrap();
        let schedule = synthesize_schedule(platform, NodeId(0), &optimal, SLICE, config).unwrap();
        schedule.validate(platform).unwrap();
        schedule
    }

    #[test]
    fn triangle_schedule_reaches_the_lp_bound() {
        // Full triangle over unit links: TP = 1, realised by two alternating
        // trees (0→1→2 and 0→2→1) — the classic case where any single tree
        // loses and the multi-tree schedule does not.
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[0], p[2], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let schedule = synthesize(&platform, &SynthesisConfig::with_batch(2));
        assert_eq!(schedule.slices_per_period(), 2);
        assert!(
            schedule.efficiency() > 0.999,
            "efficiency {} too low (period {}, ideal {})",
            schedule.efficiency(),
            schedule.period(),
            schedule.rounding().ideal_period
        );
    }

    #[test]
    fn chain_schedule_is_exact() {
        let mut b = Platform::builder();
        let p = b.add_processors(4);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 2.0));
        b.add_bidirectional_link(p[2], p[3], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let schedule = synthesize(&platform, &SynthesisConfig::with_batch(4));
        // The chain's optimum is the slowest link: a period of 2·SLICE
        // seconds per slice, realised exactly (no rounding loss on a chain).
        let expected = 1.0 / (2.0 * SLICE);
        assert!(
            (schedule.throughput() - expected).abs() < 1e-9 * expected,
            "throughput {} vs expected {expected}",
            schedule.throughput()
        );
    }

    #[test]
    fn random_platform_schedule_is_near_optimal() {
        let mut rng = StdRng::seed_from_u64(40);
        let platform = random_platform(&RandomPlatformConfig::paper(16, 0.12), &mut rng);
        let schedule = synthesize(&platform, &SynthesisConfig::default());
        assert!(
            schedule.efficiency() > 0.9,
            "efficiency {} (loss bound {})",
            schedule.efficiency(),
            schedule.rounding().loss_bound
        );
        assert!(schedule.efficiency() <= 1.0 + 1e-9, "beats the LP bound");
        // Port utilisation is a fraction.
        for u in platform.nodes() {
            let (s, r) = schedule.port_utilisation(&platform, u);
            assert!((0.0..=1.0 + 1e-9).contains(&s));
            assert!((0.0..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn tiers_platform_schedule_is_near_optimal() {
        let mut rng = StdRng::seed_from_u64(41);
        let platform = tiers_platform(&TiersConfig::paper_30(), &mut rng);
        let schedule = synthesize(&platform, &SynthesisConfig::default());
        assert!(
            schedule.efficiency() > 0.9,
            "efficiency {}",
            schedule.efficiency()
        );
    }

    #[test]
    fn single_node_schedule_is_trivial() {
        let mut b = Platform::builder();
        b.add_processor("only");
        let platform = b.build();
        let optimal =
            optimal_throughput(&platform, NodeId(0), 1.0, OptimalMethod::CutGeneration).unwrap();
        let s = synthesize_schedule(
            &platform,
            NodeId(0),
            &optimal,
            1.0,
            &SynthesisConfig::default(),
        )
        .unwrap();
        assert_eq!(s.period(), 0.0);
        assert!(s.throughput().is_infinite());
        assert!(s.validate(&platform).is_ok());
    }

    #[test]
    fn tree_fallback_dominates_both_worlds() {
        use bcast_core::heuristics::{build_structure_with_loads, HeuristicKind};
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..3 {
            let platform = random_platform(&RandomPlatformConfig::paper(14, 0.12), &mut rng);
            let optimal =
                optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration)
                    .unwrap();
            let mut candidates = Vec::new();
            let mut best_tree_tp: f64 = 0.0;
            for kind in HeuristicKind::ALL {
                if let Ok(s) = build_structure_with_loads(
                    &platform,
                    NodeId(0),
                    kind,
                    CommModel::OnePort,
                    SLICE,
                    Some(&optimal),
                ) {
                    best_tree_tp = best_tree_tp.max(bcast_core::steady_state_throughput(
                        &platform,
                        &s,
                        CommModel::OnePort,
                        SLICE,
                    ));
                    candidates.push(s);
                }
            }
            let plain = synthesize_schedule(
                &platform,
                NodeId(0),
                &optimal,
                SLICE,
                &SynthesisConfig::default(),
            )
            .unwrap();
            let best = synthesize_schedule_with_tree_fallback(
                &platform,
                NodeId(0),
                &optimal,
                SLICE,
                &SynthesisConfig::default(),
                &candidates,
            )
            .unwrap();
            best.validate(&platform).unwrap();
            assert!(best.throughput() >= plain.throughput() - 1e-12);
            assert!(
                best.throughput() >= best_tree_tp * (1.0 - 1e-9),
                "schedule {} below the best tree {best_tree_tp}",
                best.throughput()
            );
            assert!(best.throughput() <= optimal.throughput * (1.0 + 1e-6));
        }
    }

    #[test]
    fn resynthesis_repairs_across_a_drift_trace() {
        use bcast_core::{CutGenOptions, CutGenSession};
        use bcast_platform::drift::{DriftConfig, DriftTrace};
        let mut rng = StdRng::seed_from_u64(61);
        let platform = random_platform(&RandomPlatformConfig::paper(14, 0.12), &mut rng);
        let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_failures(6, 7));
        let config = SynthesisConfig::with_batch(12);
        // The real drift pipeline: one warm cut-generation session, whose
        // dual repair stays near the previous vertex — that stability is
        // what makes tree repair (rather than rebuild) possible at all.
        let mut session =
            CutGenSession::new(&platform, NodeId(0), SLICE, CutGenOptions::default()).unwrap();
        let first = session.solve_step(&trace.platform_at(0)).unwrap();
        let mut schedule = synthesize_schedule(
            &trace.platform_at(0),
            NodeId(0),
            &first.optimal,
            SLICE,
            &config,
        )
        .unwrap();
        let mut kept_total = 0usize;
        for step in 1..trace.len() {
            let snapshot = trace.platform_at(step);
            let optimal = session.solve_step(&snapshot).unwrap().optimal;
            let (repaired, report) =
                resynthesize_schedule(&snapshot, NodeId(0), &optimal, SLICE, &config, &schedule)
                    .unwrap();
            repaired.validate(&snapshot).unwrap();
            assert_eq!(repaired.slices_per_period(), 12, "batch size drifted");
            assert!(
                repaired.efficiency() > 0.8,
                "step {step}: efficiency {} collapsed (report {report:?})",
                repaired.efficiency()
            );
            if !report.full_rebuild {
                assert_eq!(report.kept_trees + report.rebuilt_trees, 12);
            }
            kept_total += report.kept_trees;
            schedule = repaired;
        }
        assert!(kept_total > 0, "repair never kept a single tree");
    }

    #[test]
    fn resynthesis_with_identical_loads_keeps_every_tree() {
        let mut rng = StdRng::seed_from_u64(62);
        let platform = random_platform(&RandomPlatformConfig::paper(12, 0.15), &mut rng);
        let optimal =
            optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration).unwrap();
        let config = SynthesisConfig::with_batch(8);
        let schedule = synthesize_schedule(&platform, NodeId(0), &optimal, SLICE, &config).unwrap();
        let (repaired, report) =
            resynthesize_schedule(&platform, NodeId(0), &optimal, SLICE, &config, &schedule)
                .unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.kept_trees, 8);
        assert_eq!(report.rebuilt_trees, 0);
        assert_eq!(report.repair_ops(), 0);
        assert_eq!(repaired.period(), schedule.period());
        assert_eq!(repaired.trees(), schedule.trees());
    }

    #[test]
    fn resynthesis_falls_back_when_the_previous_schedule_is_unusable() {
        let mut rng = StdRng::seed_from_u64(63);
        let platform = random_platform(&RandomPlatformConfig::paper(10, 0.2), &mut rng);
        let optimal =
            optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration).unwrap();
        // "Previous" schedule from a different source: unusable, must fall
        // back to a clean full synthesis for source 0.
        let other = synthesize_schedule(
            &platform,
            NodeId(1),
            &optimal_throughput(&platform, NodeId(1), SLICE, OptimalMethod::CutGeneration).unwrap(),
            SLICE,
            &SynthesisConfig::with_batch(6),
        )
        .unwrap();
        let (repaired, report) = resynthesize_schedule(
            &platform,
            NodeId(0),
            &optimal,
            SLICE,
            &SynthesisConfig::default(),
            &other,
        )
        .unwrap();
        assert!(report.full_rebuild);
        assert!(report.repair_ops() > 0);
        repaired.validate(&platform).unwrap();
        assert_eq!(repaired.source(), NodeId(0));
    }

    #[test]
    fn churn_resynthesis_grafts_a_joiner_and_prunes_a_leaver() {
        use bcast_platform::drift::ChurnRemap;
        // Old platform: 0–1, 0–2, 1–2, 2–3 (bidirectional, unit cost).
        let mut b = Platform::builder();
        let p = b.add_processors(4);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[0], p[2], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[2], p[3], LinkCost::one_port(0.0, 1.0));
        let old = b.build();
        let config = SynthesisConfig::with_batch(2);
        let old_optimal =
            optimal_throughput(&old, NodeId(0), SLICE, OptimalMethod::CutGeneration).unwrap();
        let previous = synthesize_schedule(&old, NodeId(0), &old_optimal, SLICE, &config).unwrap();
        // New platform: node 3 left, node "J" joined on 0 and 2. Surviving
        // edges keep their relative (compact) order; new edges follow.
        let mut b = Platform::builder();
        let q = b.add_processors(3);
        b.add_bidirectional_link(q[0], q[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(q[0], q[2], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(q[1], q[2], LinkCost::one_port(0.0, 1.0));
        let j = b.add_processor("J");
        b.add_bidirectional_link(q[0], j, LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(q[2], j, LinkCost::one_port(0.0, 1.0));
        let new = b.build();
        let remap = ChurnRemap {
            node_map: vec![Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2)), None],
            edge_map: (0u32..8)
                .map(|i| if i < 6 { Some(EdgeId(i)) } else { None })
                .collect(),
            new_nodes: vec![NodeId(3)],
            new_edges: (6u32..10).map(EdgeId).collect(),
            nodes: 4,
            edges: 10,
        };
        let optimal =
            optimal_throughput(&new, NodeId(0), SLICE, OptimalMethod::CutGeneration).unwrap();
        let (repaired, report) = resynthesize_schedule_churn(
            &new,
            NodeId(0),
            &optimal,
            SLICE,
            &config,
            &previous,
            &remap,
        )
        .unwrap();
        repaired.validate(&new).unwrap();
        assert!(!report.full_rebuild, "hand-built churn forced a rebuild");
        assert_eq!(report.kept_trees, 2);
        assert_eq!(report.rebuilt_trees, 0);
        assert_eq!(report.grafted_nodes, 1);
        assert_eq!(report.pruned_nodes, 1);
        assert_eq!(repaired.slices_per_period(), 2);
        for tree in repaired.trees() {
            assert_eq!(tree.len(), 3);
            assert!(
                tree.iter().any(|&e| new.graph().dst(e) == NodeId(3)),
                "a repaired tree does not reach the joiner"
            );
        }
    }

    #[test]
    fn churn_resynthesis_with_identity_remap_matches_plain_repair() {
        use bcast_platform::drift::ChurnRemap;
        let mut rng = StdRng::seed_from_u64(72);
        let platform = random_platform(&RandomPlatformConfig::paper(12, 0.15), &mut rng);
        let optimal =
            optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration).unwrap();
        let config = SynthesisConfig::with_batch(8);
        let schedule = synthesize_schedule(&platform, NodeId(0), &optimal, SLICE, &config).unwrap();
        let remap = ChurnRemap::identity(platform.node_count(), platform.edge_count());
        let (plain, plain_report) =
            resynthesize_schedule(&platform, NodeId(0), &optimal, SLICE, &config, &schedule)
                .unwrap();
        let (churn, churn_report) = resynthesize_schedule_churn(
            &platform,
            NodeId(0),
            &optimal,
            SLICE,
            &config,
            &schedule,
            &remap,
        )
        .unwrap();
        assert_eq!(plain_report, churn_report);
        assert_eq!(plain.period(), churn.period());
        assert_eq!(plain.trees(), churn.trees());
        assert_eq!(churn_report.grafted_nodes, 0);
        assert_eq!(churn_report.pruned_nodes, 0);
    }

    #[test]
    fn churn_resynthesis_rejects_a_remap_for_another_platform() {
        use bcast_platform::drift::ChurnRemap;
        let mut rng = StdRng::seed_from_u64(73);
        let platform = random_platform(&RandomPlatformConfig::paper(12, 0.15), &mut rng);
        let optimal =
            optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration).unwrap();
        let config = SynthesisConfig::with_batch(8);
        let schedule = synthesize_schedule(&platform, NodeId(0), &optimal, SLICE, &config).unwrap();
        // The identity remap of a platform with one more node and link.
        let other = ChurnRemap::identity(platform.node_count() + 1, platform.edge_count() + 2);
        let err = resynthesize_schedule_churn(
            &platform,
            NodeId(0),
            &optimal,
            SLICE,
            &config,
            &schedule,
            &other,
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::TopologyMismatch(_)), "{err:?}");
    }

    #[test]
    fn churn_resynthesis_repairs_across_a_churn_trace() {
        use bcast_core::{CutGenOptions, CutGenSession};
        use bcast_platform::drift::{DriftConfig, DriftTrace};
        let mut rng = StdRng::seed_from_u64(71);
        let platform = random_platform(&RandomPlatformConfig::paper(14, 0.12), &mut rng);
        let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_churn(8, 5));
        let config = SynthesisConfig::with_batch(8);
        let snap0 = trace.platform_at(0);
        let src0 = trace.source_at(0);
        let mut session =
            CutGenSession::new(&snap0, src0, SLICE, CutGenOptions::default()).unwrap();
        let first = session.solve_step(&snap0).unwrap();
        let mut schedule =
            synthesize_schedule(&snap0, src0, &first.optimal, SLICE, &config).unwrap();
        let mut kept_total = 0usize;
        let mut saw_graft = false;
        let mut saw_prune = false;
        for step in 1..trace.len() {
            let snapshot = trace.platform_at(step);
            let remap = trace.remap(step - 1, step);
            let optimal = session.solve_step_churn(&snapshot, &remap).unwrap().optimal;
            let (repaired, report) = resynthesize_schedule_churn(
                &snapshot,
                trace.source_at(step),
                &optimal,
                SLICE,
                &config,
                &schedule,
                &remap,
            )
            .unwrap();
            repaired.validate(&snapshot).unwrap();
            assert_eq!(repaired.slices_per_period(), 8, "batch size drifted");
            assert!(
                repaired.efficiency() > 0.7,
                "step {step}: efficiency {} collapsed (report {report:?})",
                repaired.efficiency()
            );
            if !report.full_rebuild {
                assert_eq!(report.kept_trees + report.rebuilt_trees, 8);
                saw_graft |= report.grafted_nodes > 0;
                saw_prune |= report.pruned_nodes > 0;
            }
            kept_total += report.kept_trees;
            schedule = repaired;
        }
        assert!(kept_total > 0, "churn repair never kept a single tree");
        assert!(
            saw_graft,
            "no step grafted a joiner through the repair path"
        );
        assert!(saw_prune, "no step pruned a leaver through the repair path");
    }

    #[test]
    fn synthesis_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(43);
        let platform = random_platform(&RandomPlatformConfig::paper(12, 0.15), &mut rng);
        let a = synthesize(&platform, &SynthesisConfig::default());
        let b = synthesize(&platform, &SynthesisConfig::default());
        assert_eq!(a.period(), b.period());
        assert_eq!(a.transfers(), b.transfers());
        assert_eq!(a.trees(), b.trees());
    }
}
