//! The [`PeriodicSchedule`] artifact: the trees of one period, their
//! barrier-free timetable (per-transfer start times within the period),
//! and inter-period lags.
//!
//! ## From trees to a timetable
//!
//! The packing stage assigns every batch slice `j ∈ 0..B` its own spanning
//! arborescence; the multiset of `(slice, edge)` pairs is the work of one
//! period. The assembler sorts it by decreasing link occupation (ties by
//! edge, then slice) and times it with an event-driven list scheduler:
//! whenever a port frees, the pending transfer whose ports carry the most
//! remaining work starts first (critical-resource-first, which keeps the
//! bottleneck port dense). The timetable is one-port, like the LP whose
//! loads it realises: a transfer on edge `e` holds both its sender's send
//! port and its receiver's receive port for the link occupation `T_e`. The
//! achieved period is the latest port completion time.
//!
//! The sort makes each edge's transfers one contiguous **block** with one
//! sender, one receiver and one link time, hence one ready time and one
//! set of priority keys. So the scheduler scans blocks, not transfers,
//! and places the picked block's first pending transfer. That is the
//! transfer a scan over every pending transfer picks: a block's later
//! members tie its first pending member on every key, a candidate
//! replaces the best one so far only when it is better by more than the
//! timetable tolerance, and the blocks keep the sort's order. One
//! assembly of the `T = B·(n−1)` transfers of a period on `E` used edges
//! therefore costs O(T·E) time rather than O(T²).
//!
//! ## Rounds, on request
//!
//! Viewing each node as a send port and a receive port, a set of transfers
//! can run concurrently under the one-port model exactly when it is a
//! **matching** of the bipartite send×receive multigraph — no node sends
//! twice, no node receives twice. [`PeriodicSchedule::rounds`] peels the
//! sorted transfers into maximal matchings (the Birkhoff–von-Neumann-style
//! greedy), so each round groups transfers of similar duration. The rounds
//! are a decomposition computed when asked: nothing executes them, and the
//! timetable never reads them, because running rounds with barriers would
//! charge every transfer the longest duration of its round.
//!
//! ## Lags
//!
//! A relay must hold a slice before forwarding it. Rather than constraining
//! the transfer order, every transfer gets a **lag** `ℓ`: in period `p` it
//! carries the slice of batch `p − ℓ`. A child transfer scheduled no
//! earlier than its parent's arrival inherits the parent's lag; otherwise
//! it forwards the previous batch (`ℓ + 1`). Lags add pipeline latency but
//! never affect the steady-state throughput `B / period`.

use crate::error::SchedError;
use crate::rounding::{RoundedLoads, MAX_SLICES_PER_PERIOD};
use bcast_net::{EdgeId, NodeId};
use bcast_platform::Platform;
use serde::{Deserialize, Serialize};

/// Tolerance for timetable comparisons (start/finish times in seconds).
const TIME_TOL: f64 = 1e-9;

/// One slice transfer of the periodic schedule.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduledTransfer {
    /// The platform edge the slice crosses.
    pub edge: EdgeId,
    /// Batch slice index in `0..slices_per_period` (= the tree the slice
    /// follows).
    pub slice: usize,
    /// Inter-period lag: in period `p` the transfer carries the slice of
    /// batch `p − lag` (it idles while `p < lag`).
    pub lag: usize,
    /// Start offset within the period, in seconds.
    pub start: f64,
    /// Arrival offset within the period (`start` + link occupation).
    pub finish: f64,
}

/// A periodic steady-state broadcast schedule realising the LP edge loads.
///
/// Every period of [`PeriodicSchedule::period`] seconds, the source injects
/// [`PeriodicSchedule::slices_per_period`] fresh slices and every processor
/// receives every slice exactly once (slice `j` travels along spanning
/// arborescence `j`). The schedule is its [`ScheduleParts`] plus an
/// explicit timetable: each transfer has a start offset and an
/// inter-period lag. The matching rounds, the port utilisation and the
/// largest lag are computed from the timetable when asked.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PeriodicSchedule {
    /// What the timetable was assembled from.
    parts: ScheduleParts,
    /// One period's transfers, longest link occupation first (ties by
    /// edge, then slice).
    transfers: Vec<ScheduledTransfer>,
    period: f64,
}

impl PeriodicSchedule {
    /// The broadcast source.
    pub fn source(&self) -> NodeId {
        NodeId(self.parts.source as u32)
    }

    /// Slice size the schedule is calibrated for, in bytes.
    pub fn slice_size(&self) -> f64 {
        self.parts.slice_size
    }

    /// Achieved period in seconds (0 for a single-node platform).
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Slices broadcast per period (the batch size `B`).
    pub fn slices_per_period(&self) -> usize {
        self.parts.rounding.slices_per_period
    }

    /// Steady-state throughput of the schedule, in slices per time unit.
    pub fn throughput(&self) -> f64 {
        if self.period > 0.0 {
            self.slices_per_period() as f64 / self.period
        } else {
            f64::INFINITY
        }
    }

    /// The LP optimal throughput the schedule was synthesized from.
    pub fn lp_throughput(&self) -> f64 {
        self.parts.lp_throughput
    }

    /// `throughput / lp_throughput`: 1 means the schedule realises the LP
    /// bound exactly; rounding and the timetable keep it slightly below.
    pub fn efficiency(&self) -> f64 {
        let lp = self.parts.lp_throughput;
        if lp > 0.0 && lp.is_finite() {
            self.throughput() / lp
        } else {
            1.0
        }
    }

    /// The scheduled transfers of one period, longest link occupation
    /// first (ties by edge, then slice).
    pub fn transfers(&self) -> &[ScheduledTransfer] {
        &self.transfers
    }

    /// The communication rounds of one period, computed on each call: the
    /// transfers, in their stored order, peeled greedily into maximal
    /// send/receive matchings of `platform`, the platform the schedule was
    /// assembled on. `rounds[r]` lists round `r`'s indices into
    /// [`PeriodicSchedule::transfers`] in increasing order.
    pub fn rounds(&self, platform: &Platform) -> Vec<Vec<usize>> {
        let n = platform.node_count();
        let mut placed = vec![false; self.transfers.len()];
        let mut left = self.transfers.len();
        let mut rounds = Vec::new();
        while left > 0 {
            let mut send_used = vec![false; n];
            let mut recv_used = vec![false; n];
            let mut round = Vec::new();
            for (i, t) in self.transfers.iter().enumerate() {
                let (u, v) = platform.graph().endpoints(t.edge);
                if placed[i] || send_used[u.index()] || recv_used[v.index()] {
                    continue;
                }
                placed[i] = true;
                send_used[u.index()] = true;
                recv_used[v.index()] = true;
                round.push(i);
            }
            left -= round.len();
            rounds.push(round);
        }
        rounds
    }

    /// The spanning arborescence followed by batch slice `j`.
    pub fn trees(&self) -> &[Vec<EdgeId>] {
        &self.parts.trees
    }

    /// Largest inter-period lag — the pipeline depth in periods.
    pub fn max_lag(&self) -> usize {
        self.transfers.iter().map(|t| t.lag).max().unwrap_or(0)
    }

    /// Rounding statistics (batch size, loss bound, repairs).
    pub fn rounding(&self) -> &RoundedLoads {
        &self.parts.rounding
    }

    /// Send- and receive-port utilisation of `node` on `platform`, the
    /// platform the schedule was assembled on (busy fraction of the
    /// period; 0 when the period is 0).
    pub fn port_utilisation(&self, platform: &Platform, node: NodeId) -> (f64, f64) {
        if self.period <= 0.0 {
            return (0.0, 0.0);
        }
        let (mut send, mut recv) = (0.0f64, 0.0f64);
        for t in &self.transfers {
            let (u, v) = platform.graph().endpoints(t.edge);
            let link = platform.link_time(t.edge, self.parts.slice_size);
            if u == node {
                send += link;
            }
            if v == node {
                recv += link;
            }
        }
        (send / self.period, recv / self.period)
    }

    /// Exhaustively re-checks the schedule against `platform`:
    ///
    /// 1. the parts pass the checks of [`PeriodicSchedule::from_parts`]
    ///    (all but its cap on the batch): among them, every tree is a
    ///    spanning arborescence rooted at the source, listed parent before
    ///    child, and the trees use no edge beyond its rounded multiplicity,
    /// 2. the transfers are the trees' edges, one per slice and tree edge,
    ///    each lasting its link occupation,
    /// 3. each transfer holds its sender's send port and its receiver's
    ///    receive port over `[start, finish)`, and no port is held twice at
    ///    once within a period,
    /// 4. transfers stay inside `[0, period]` (so periods never collide),
    /// 5. lags respect causality (a slice arrives before it is forwarded).
    pub fn validate(&self, platform: &Platform) -> Result<(), SchedError> {
        check_parts(platform, &self.parts)?;
        let n = platform.node_count();
        let m = platform.edge_count();
        let (slice_size, trees) = (self.parts.slice_size, &self.parts.trees);
        let invalid = |reason: String| Err(SchedError::Invalid(reason));
        // 2. As many transfers as tree edges; step 5 finds one for each.
        if self.transfers.len() != self.slices_per_period() * (n - 1) {
            return invalid("transfer count differs from B·(n−1)".into());
        }
        // 3.–4. Port intervals disjoint and inside the period.
        let mut send_intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
        let mut recv_intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
        for t in &self.transfers {
            let (u, v) = platform.graph().endpoints(t.edge);
            let link = platform.link_time(t.edge, slice_size);
            if (t.finish - t.start - link).abs() > TIME_TOL * link.max(1.0) {
                return invalid(format!("transfer on {:?} has a wrong duration", t.edge));
            }
            if t.start < -TIME_TOL || t.finish > self.period + TIME_TOL {
                return invalid(format!("transfer on {:?} leaves the period", t.edge));
            }
            send_intervals[u.index()].push((t.start, t.finish));
            recv_intervals[v.index()].push((t.start, t.finish));
        }
        for (intervals, what) in [(&mut send_intervals, "send"), (&mut recv_intervals, "recv")] {
            for (u, list) in intervals.iter_mut().enumerate() {
                list.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                for pair in list.windows(2) {
                    if pair[1].0 < pair[0].1 - TIME_TOL {
                        return invalid(format!("{what} port of node {u} double-booked"));
                    }
                }
            }
        }
        // 5. Causality through the trees. Flat slice×edge index for O(1)
        // lookups (the linear-scan alternative is quadratic in transfers).
        let mut transfer_index = vec![usize::MAX; m * trees.len()];
        for (i, t) in self.transfers.iter().enumerate() {
            if t.slice >= trees.len() {
                return invalid(format!("transfer {i} references an unknown slice"));
            }
            transfer_index[t.slice * m + t.edge.index()] = i;
        }
        let by_slice_edge = |slice: usize, edge: EdgeId| {
            let i = transfer_index[slice * m + edge.index()];
            (i != usize::MAX).then(|| &self.transfers[i])
        };
        for (j, tree) in trees.iter().enumerate() {
            // Listed parent before child, so a relay's incoming transfer is
            // known before its outgoing ones; the source holds every batch.
            let mut incoming: Vec<Option<&ScheduledTransfer>> = vec![None; n];
            for &e in tree {
                let (u, v) = platform.graph().endpoints(e);
                let Some(child) = by_slice_edge(j, e) else {
                    return invalid(format!("missing transfer for slice {j} on {e:?}"));
                };
                if let Some(parent) = incoming[u.index()] {
                    let arrival = parent.lag as f64 * self.period + parent.finish;
                    let departure = child.lag as f64 * self.period + child.start;
                    if departure + TIME_TOL < arrival {
                        return invalid(format!("slice {j} forwarded from {u} before it arrives"));
                    }
                }
                incoming[v.index()] = Some(child);
            }
        }
        Ok(())
    }

    /// Disassembles the schedule into its plain-data [`ScheduleParts`],
    /// the snapshot surface of `bcast-service`: what the timetable is built
    /// from, not the timetable. [`PeriodicSchedule::from_parts`] on the
    /// platform the schedule was assembled on rebuilds it bit for bit.
    pub fn to_parts(&self) -> ScheduleParts {
        self.parts.clone()
    }

    /// Rebuilds a schedule from [`ScheduleParts`] by re-assembling its
    /// timetable on `platform`. The start times and lags are a
    /// deterministic function of the trees, the rounding and the platform,
    /// so the parts of a schedule assembled on `platform` give that
    /// schedule back, bit for bit. The re-assembly costs what synthesis
    /// paid for it, O(T·E) time for the `T = B·(n−1)` transfers on `E`
    /// used edges (see the module docs, *From trees to a timetable*).
    ///
    /// The parts are checked against `platform` first: the batch is at most
    /// [`MAX_SLICES_PER_PERIOD`], the cap on a batch from outside the
    /// program; the source is in range; the scalars are finite (except an
    /// LP throughput of +∞, cut generation's bound on a one-node platform)
    /// and the slice size positive; both rounding vectors have one entry
    /// per edge; there is one tree per batch slice, and at least one; each
    /// tree is a spanning arborescence rooted at the source listed parent
    /// before child; and the trees use no edge beyond its multiplicity.
    /// Parts that fail a check (from a truncated or corrupted snapshot)
    /// yield [`SchedError::Invalid`], never a panic; parts that pass
    /// assemble into a schedule that [`PeriodicSchedule::validate`]
    /// accepts.
    pub fn from_parts(platform: &Platform, parts: &ScheduleParts) -> Result<Self, SchedError> {
        let batch = parts.rounding.slices_per_period;
        if batch > MAX_SLICES_PER_PERIOD {
            return Err(SchedError::Invalid(format!(
                "schedule parts: a batch of {batch} slices exceeds {MAX_SLICES_PER_PERIOD}"
            )));
        }
        check_parts(platform, parts)?;
        Ok(assemble(platform, parts.clone()))
    }
}

/// The plain-data image of a [`PeriodicSchedule`]: what its timetable is
/// built from, for external serialization (the `bcast-service` snapshot
/// codec). The timetable itself is not kept; [`PeriodicSchedule::from_parts`]
/// re-assembles it. Produced by [`PeriodicSchedule::to_parts`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleParts {
    /// Broadcast source node index.
    pub source: usize,
    /// Slice size the schedule is calibrated for, in bytes.
    pub slice_size: f64,
    /// LP throughput bound the schedule was synthesized against.
    pub lp_throughput: f64,
    /// `trees[j]` is the spanning arborescence of batch slice `j`, in
    /// parent-before-child order.
    pub trees: Vec<Vec<EdgeId>>,
    /// Rounding statistics (batch size, multiplicities, loss bound).
    pub rounding: RoundedLoads,
}

/// The checks of [`PeriodicSchedule::from_parts`] but its batch cap, which
/// [`PeriodicSchedule::validate`] shares: `round_loads` takes any batch it
/// is given, so a schedule that synthesis built must keep validating.
fn check_parts(platform: &Platform, parts: &ScheduleParts) -> Result<(), SchedError> {
    let m = platform.edge_count();
    let rounding = &parts.rounding;
    let invalid = |reason: String| Err(SchedError::Invalid(format!("schedule parts: {reason}")));
    if parts.source >= platform.node_count() {
        return invalid("source out of range".into());
    }
    // Cut generation bounds a one-node platform's throughput by +∞.
    let lp = parts.lp_throughput;
    let lp_ok = lp.is_finite() || (lp == f64::INFINITY && platform.node_count() == 1);
    let scalars = [parts.slice_size, rounding.ideal_period, rounding.loss_bound];
    if !lp_ok || scalars.iter().any(|x| !x.is_finite()) || parts.slice_size <= 0.0 {
        return invalid("non-finite or non-positive scalars".into());
    }
    if rounding.multiplicity.len() != m || rounding.dominated.len() != m {
        return invalid("rounding vectors do not match the platform".into());
    }
    let batch = rounding.slices_per_period;
    if parts.trees.is_empty() || parts.trees.len() != batch {
        return invalid(format!(
            "{} trees for a batch of {batch} slices",
            parts.trees.len()
        ));
    }
    if let Some(j) = parts
        .trees
        .iter()
        .position(|tree| !spans_in_order(platform, parts.source, tree))
    {
        return invalid(format!(
            "tree {j} is not a spanning arborescence listed parent before child"
        ));
    }
    let mut usage = vec![0u32; m];
    for &e in parts.trees.iter().flatten() {
        usage[e.index()] += 1;
    }
    if let Some(e) = (0..m).find(|&e| usage[e] > rounding.multiplicity[e]) {
        return invalid(format!("the trees use edge {e} beyond its multiplicity"));
    }
    Ok(())
}

/// True when `tree` reaches every node of `platform` from `source` with
/// one in-range edge into each other node, each edge listed after the edge
/// that reaches its tail.
fn spans_in_order(platform: &Platform, source: usize, tree: &[EdgeId]) -> bool {
    let graph = platform.graph();
    let mut reached = vec![false; graph.node_count()];
    reached[source] = true;
    tree.len() + 1 == reached.len()
        && tree.iter().all(|&e| {
            e.index() < graph.edge_count() && {
                let (u, v) = graph.endpoints(e);
                reached[u.index()] && !std::mem::replace(&mut reached[v.index()], true)
            }
        })
}

/// The pending transfers of one edge in the list timetable:
/// `order[next..end]`, all from `sender` to `receiver`, each holding both
/// ports for `link` seconds.
struct EdgeBlock {
    sender: usize,
    receiver: usize,
    link: f64,
    next: usize,
    end: usize,
}

/// Assembles the schedule of `parts` on `platform`: the barrier-free
/// timetable and the causality lags, in O(T·E) time for the T transfers
/// of a period on E used edges. Every tree must be listed parent before
/// child.
pub(crate) fn assemble(platform: &Platform, parts: ScheduleParts) -> PeriodicSchedule {
    let _span = bcast_obs::span!(bcast_obs::names::SPAN_SCHED_ASSEMBLE);
    let n = platform.node_count();
    let graph = platform.graph();
    let (slice_size, trees) = (parts.slice_size, &parts.trees);

    // All transfers of one period, longest link occupation first (ties by
    // edge then slice index for determinism).
    let mut order: Vec<(usize, EdgeId)> = Vec::new();
    for (j, tree) in trees.iter().enumerate() {
        for &e in tree {
            order.push((j, e));
        }
    }
    order.sort_by(|a, b| {
        let ta = platform.link_time(a.1, slice_size);
        let tb = platform.link_time(b.1, slice_size);
        tb.partial_cmp(&ta)
            .unwrap()
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.0.cmp(&b.0))
    });

    // Event-driven list timetable: whenever ports free up, start the
    // pending transfer whose two ports carry the most remaining work
    // (critical-resource-first). This keeps the bottleneck port dense where
    // a round-ordered timetable would let it idle behind unrelated long
    // transfers.
    //
    // The scans visit edge blocks, not transfers: the sort makes each
    // edge's transfers one contiguous run, whose members share their
    // ports, link time, readiness and priority keys. A block's later
    // members tie its first pending member on every key, a candidate
    // replaces the best one only when it is better beyond `TIME_TOL`, and
    // the blocks keep the sort's order, so a scan over every pending
    // transfer would pick the first pending member of the block picked
    // here. Each placement costs O(E) for E used edges, not O(T).
    let mut transfers: Vec<ScheduledTransfer> = order
        .iter()
        .map(|&(slice, edge)| ScheduledTransfer {
            edge,
            slice,
            lag: 0,
            start: 0.0,
            finish: 0.0,
        })
        .collect();
    let mut blocks: Vec<EdgeBlock> = Vec::new();
    for run in order.chunk_by(|a, b| a.1 == b.1) {
        let e = run[0].1;
        let next = blocks.last().map_or(0, |b| b.end);
        blocks.push(EdgeBlock {
            sender: graph.src(e).index(),
            receiver: graph.dst(e).index(),
            link: platform.link_time(e, slice_size),
            next,
            end: next + run.len(),
        });
    }
    let mut send_free = vec![0.0f64; n];
    let mut recv_free = vec![0.0f64; n];
    let mut remaining_send = vec![0.0f64; n];
    let mut remaining_recv = vec![0.0f64; n];
    // One addition per transfer, in the sort's order: `count × link` would
    // round differently.
    for b in &blocks {
        for _ in b.next..b.end {
            remaining_send[b.sender] += b.link;
            remaining_recv[b.receiver] += b.link;
        }
    }
    while !blocks.is_empty() {
        // Earliest feasible start among the pending transfers.
        let mut ready = f64::INFINITY;
        for b in &blocks {
            let t = send_free[b.sender].max(recv_free[b.receiver]);
            if t < ready {
                ready = t;
            }
        }
        // Among the transfers startable at that instant, pick the one whose
        // ports are the most loaded (ties: heavier combined load, longer
        // duration, then the block's place, which follows `order`).
        let mut best: Option<(f64, f64, f64, usize)> = None;
        for (k, b) in blocks.iter().enumerate() {
            let (u, v) = (b.sender, b.receiver);
            if send_free[u].max(recv_free[v]) > ready + TIME_TOL {
                continue;
            }
            let critical = remaining_send[u].max(remaining_recv[v]);
            let combined = remaining_send[u] + remaining_recv[v];
            let better = match best {
                None => true,
                Some((c, s, l, _)) => {
                    critical > c + TIME_TOL
                        || (critical > c - TIME_TOL
                            && (combined > s + TIME_TOL
                                || (combined > s - TIME_TOL && b.link > l + TIME_TOL)))
                }
            };
            if better {
                best = Some((critical, combined, b.link, k));
            }
        }
        let (_, _, _, k) = best.expect("some transfer is startable at the ready time");
        let b = &mut blocks[k];
        let (u, v) = (b.sender, b.receiver);
        let start = send_free[u].max(recv_free[v]);
        let finish = start + b.link;
        send_free[u] = finish;
        recv_free[v] = finish;
        remaining_send[u] -= b.link;
        remaining_recv[v] -= b.link;
        transfers[b.next].start = start;
        transfers[b.next].finish = finish;
        b.next += 1;
        if b.next == b.end {
            blocks.remove(k);
        }
    }
    let period = send_free
        .iter()
        .chain(recv_free.iter())
        .fold(0.0f64, |acc, &t| acc.max(t));

    // Causality lags, tree by tree in parent-before-child order.
    let mut index_of = vec![usize::MAX; platform.edge_count() * trees.len().max(1)];
    for (i, t) in transfers.iter().enumerate() {
        index_of[t.slice * platform.edge_count() + t.edge.index()] = i;
    }
    for (j, tree) in trees.iter().enumerate() {
        let mut parent_transfer: Vec<Option<usize>> = vec![None; n];
        for &e in tree {
            let child = index_of[j * platform.edge_count() + e.index()];
            let u = graph.src(e);
            let lag = match parent_transfer[u.index()] {
                None => 0, // the source holds every batch from its period start
                Some(p) => {
                    let parent = transfers[p];
                    if transfers[child].start + TIME_TOL >= parent.finish {
                        parent.lag
                    } else {
                        parent.lag + 1
                    }
                }
            };
            transfers[child].lag = lag;
            parent_transfer[graph.dst(e).index()] = Some(child);
        }
    }

    PeriodicSchedule {
        parts,
        transfers,
        period,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{resynthesize_schedule_churn, synthesize_schedule, SynthesisConfig};
    use bcast_core::{CutGenOptions, CutGenSession};
    use bcast_platform::drift::{DriftConfig, DriftTrace};
    use bcast_platform::generators::gaussian_field::{gaussian_platform, GaussianPlatformConfig};
    use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
    use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SLICE: f64 = 1.0e6;

    /// One base platform of each family.
    fn platforms(seed: u64) -> Vec<Platform> {
        let mut rng = StdRng::seed_from_u64(seed);
        vec![
            random_platform(&RandomPlatformConfig::paper(12, 0.15), &mut rng),
            tiers_platform(&TiersConfig::paper(14, 0.10), &mut rng),
            gaussian_platform(&GaussianPlatformConfig::paper(12), &mut rng),
        ]
    }

    /// The schedules of a warm walk along the trace `config` draws from
    /// `base`, each with the platform it was assembled on and how it was
    /// made: step 0's synthesis, then one repair per step. A repair that
    /// kept trees is a drift repair under an identity remap and a churn
    /// repair otherwise; both grandfather the kept trees' multiplicities.
    fn walk(
        base: &Platform,
        config: &DriftConfig,
    ) -> Vec<(Platform, PeriodicSchedule, &'static str)> {
        let trace = DriftTrace::generate(base, NodeId(0), config);
        let synthesis = SynthesisConfig::with_batch(8);
        let platform = trace.platform_at(0);
        let source = trace.source_at(0);
        let mut session =
            CutGenSession::new(&platform, source, SLICE, CutGenOptions::default()).unwrap();
        let optimal = session.solve_step(&platform).unwrap().optimal;
        let schedule = synthesize_schedule(&platform, source, &optimal, SLICE, &synthesis).unwrap();
        let mut walked = vec![(platform, schedule, "synthesis")];
        for step in 1..trace.len() {
            let platform = trace.platform_at(step);
            let remap = trace.remap(step - 1, step);
            let optimal = session.solve_step_churn(&platform, &remap).unwrap().optimal;
            let previous = &walked.last().expect("step 0 is in").1;
            let (schedule, report) = resynthesize_schedule_churn(
                &platform,
                trace.source_at(step),
                &optimal,
                SLICE,
                &synthesis,
                previous,
                &remap,
            )
            .unwrap();
            let kind = match (
                report.full_rebuild || report.kept_trees == 0,
                remap.is_identity(),
            ) {
                (true, _) => "rebuild",
                (false, true) => "drift repair",
                (false, false) => "churn repair",
            };
            walked.push((platform, schedule, kind));
        }
        walked
    }

    fn transfer_bits(s: &PeriodicSchedule) -> Vec<(EdgeId, usize, usize, u64, u64)> {
        s.transfers
            .iter()
            .map(|t| {
                let times = (t.start.to_bits(), t.finish.to_bits());
                (t.edge, t.slice, t.lag, times.0, times.1)
            })
            .collect()
    }

    fn float_bits(platform: &Platform, s: &PeriodicSchedule) -> Vec<u64> {
        let (p, r) = (&s.parts, &s.parts.rounding);
        let utilisation = platform.nodes().flat_map(|u| {
            let (send, recv) = s.port_utilisation(platform, u);
            [send, recv]
        });
        [
            p.slice_size,
            s.period,
            p.lp_throughput,
            r.ideal_period,
            r.loss_bound,
        ]
        .into_iter()
        .chain(utilisation)
        .map(f64::to_bits)
        .collect()
    }

    /// Asserts that every field of `restored` equals `live`'s, and so does
    /// everything computed from them on `platform`, each `f64` bit for bit.
    fn assert_bit_identical(
        platform: &Platform,
        live: &PeriodicSchedule,
        restored: &PeriodicSchedule,
        what: &str,
    ) {
        assert_eq!(
            transfer_bits(live),
            transfer_bits(restored),
            "{what}: transfers"
        );
        assert_eq!(
            live.rounds(platform),
            restored.rounds(platform),
            "{what}: rounds"
        );
        assert_eq!(
            float_bits(platform, live),
            float_bits(platform, restored),
            "{what}: scalars, port utilisation"
        );
        assert_eq!(live.max_lag(), restored.max_lag(), "{what}: max_lag");
        assert_eq!(live.parts, restored.parts, "{what}: parts");
    }

    /// On all three families and on one-node platforms of two of them, the
    /// parts of a synthesized, a drift-repaired and a churn-repaired
    /// schedule re-assemble, on the platform the schedule was assembled on,
    /// into the same schedule bit for bit.
    #[test]
    fn parts_reassemble_every_field_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(92);
        let mut bases = platforms(91);
        bases.push(random_platform(
            &RandomPlatformConfig::paper(1, 0.15),
            &mut rng,
        ));
        bases.push(gaussian_platform(
            &GaussianPlatformConfig::paper(1),
            &mut rng,
        ));
        let mut seen = Vec::new();
        for (i, base) in bases.iter().enumerate() {
            let seed = 300 + i as u64;
            for config in [
                DriftConfig::with_failures(4, seed),
                DriftConfig::with_churn(6, seed),
            ] {
                for (step, (platform, live, kind)) in walk(base, &config).into_iter().enumerate() {
                    let restored = PeriodicSchedule::from_parts(&platform, &live.to_parts())
                        .unwrap_or_else(|e| panic!("family {i} step {step}: {e}"));
                    let what = format!("family {i} step {step} ({kind})");
                    assert_bit_identical(&platform, &live, &restored, &what);
                    seen.push(kind);
                }
            }
        }
        for kind in ["synthesis", "drift repair", "churn repair"] {
            assert!(seen.contains(&kind), "no {kind} was round-tripped");
        }
    }

    /// Applies mutation `kind` to real `parts` over `m` edges and returns
    /// whether the checks must reject the result. Only a tree edge
    /// replaced by another in-range id and two swapped trees may pass.
    fn mutate(parts: &mut ScheduleParts, kind: usize, m: usize, rng: &mut StdRng) -> bool {
        let b = parts.trees.len();
        let j = rng.gen_range(0..b);
        let k = rng.gen_range(0..parts.trees[j].len());
        match kind {
            0 => parts.trees[j][k] = EdgeId(rng.gen_range(0..m as u32)),
            1 => parts.trees[j][k] = EdgeId(rng.gen_range(m as u32..=u32::MAX)),
            2 => {
                parts.trees.remove(j);
            }
            3 => parts.trees.push(parts.trees[j].clone()),
            4 => {
                let delta = rng.gen_range(1..=b);
                let batch = &mut parts.rounding.slices_per_period;
                *batch = if rng.gen_bool(0.5) {
                    b + delta
                } else {
                    b - delta
                };
            }
            5 => {
                let e = parts.trees[j][k];
                let usage = parts.trees.iter().flatten().filter(|&&f| f == e).count();
                parts.rounding.multiplicity[e.index()] = usage as u32 - 1;
            }
            6 => {
                let len = rng.gen_range(0..m);
                if rng.gen_bool(0.5) {
                    parts.rounding.multiplicity.truncate(len);
                } else {
                    parts.rounding.dominated.truncate(len);
                }
            }
            7 => {
                let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                let r = &mut parts.rounding;
                let scalars = [
                    &mut parts.slice_size,
                    &mut parts.lp_throughput,
                    &mut r.ideal_period,
                    &mut r.loss_bound,
                ];
                *scalars
                    .into_iter()
                    .nth(rng.gen_range(0..4usize))
                    .expect("in range") = value;
            }
            8 => parts.trees.swap(j, rng.gen_range(0..b)),
            9 => {
                // A consistent batch one beyond the cap: without the cap
                // it would assemble (and validate).
                let batch = MAX_SLICES_PER_PERIOD + 1;
                parts.trees = parts.trees.iter().cycle().take(batch).cloned().collect();
                parts.rounding.slices_per_period = batch;
                parts.rounding.multiplicity.fill(batch as u32);
            }
            _ => unreachable!("mutation {kind}"),
        }
        !matches!(kind, 0 | 8)
    }

    /// `from_parts` is total: every mutation of real parts, with a fixed
    /// seed, is rejected as `SchedError::Invalid` (always, where a check
    /// covers it) or assembles a schedule that `validate` accepts, and
    /// none panics. So a restored schedule always validates.
    #[test]
    fn mutated_parts_are_rejected_or_assemble_a_valid_schedule() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (mut rejected, mut accepted) = (0usize, 0usize);
        for (i, base) in platforms(93).iter().enumerate() {
            let config = DriftConfig::with_churn(4, 40 + i as u64);
            for (platform, schedule, kind) in walk(base, &config) {
                let parts = schedule.to_parts();
                for mutation in 0..10 {
                    for _ in 0..4 {
                        let mut bad = parts.clone();
                        let must_reject =
                            mutate(&mut bad, mutation, platform.edge_count(), &mut rng);
                        let what = format!("family {i} {kind}, mutation {mutation}");
                        match PeriodicSchedule::from_parts(&platform, &bad) {
                            Err(SchedError::Invalid(_)) => rejected += 1,
                            Err(other) => panic!("{what}: unexpected error {other:?}"),
                            Ok(_) if must_reject => panic!("{what}: accepted"),
                            Ok(restored) => {
                                if let Err(e) = restored.validate(&platform) {
                                    panic!("{what}: assembled an invalid schedule: {e}");
                                }
                                accepted += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            rejected > 0 && accepted > 0,
            "{rejected} rejected, {accepted} accepted"
        );
    }
}
