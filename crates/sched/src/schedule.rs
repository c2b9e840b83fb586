//! The [`PeriodicSchedule`] artifact: one-port-feasible communication
//! rounds, per-transfer start times within the period, and inter-period
//! lags.
//!
//! ## From trees to rounds
//!
//! The packing stage assigns every batch slice `j ∈ 0..B` its own spanning
//! arborescence; the multiset of `(slice, edge)` pairs is the work of one
//! period. Viewing each node as a send port and a receive port, a set of
//! transfers can run concurrently under the one-port model exactly when it
//! is a **matching** of the bipartite send×receive multigraph — no node
//! sends twice, no node receives twice. The decomposition below is the
//! Birkhoff–von-Neumann-style greedy: transfers sorted by decreasing link
//! occupation are peeled off into maximal matchings, so each round groups
//! transfers of similar duration and the barrier loss stays small.
//!
//! ## From rounds to a timetable
//!
//! Rounds are the combinatorial decomposition; executing them with barriers
//! would charge every transfer the longest duration of its round. The
//! timetable therefore re-times the same transfer multiset with an
//! event-driven list scheduler: whenever a port frees, the pending transfer
//! whose ports carry the most remaining work starts first
//! (critical-resource-first, which keeps the bottleneck port dense). Under
//! the one-port model both ports stay busy for the link occupation; under
//! the multi-port variant only the sender *overhead* occupies the send port
//! while the receiver is engaged for the full occupation. The achieved
//! period is the latest port completion time.
//!
//! ## Lags
//!
//! A relay must hold a slice before forwarding it. Rather than constraining
//! the round order, every transfer gets a **lag** `ℓ`: in period `p` it
//! carries the slice of batch `p − ℓ`. A child transfer scheduled no
//! earlier than its parent's arrival inherits the parent's lag; otherwise
//! it forwards the previous batch (`ℓ + 1`). Lags add pipeline latency but
//! never affect the steady-state throughput `B / period`.

use crate::error::SchedError;
use crate::rounding::RoundedLoads;
use bcast_net::{spanning::Arborescence, EdgeId, NodeId};
use bcast_platform::{CommModel, Platform};
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
    /// Communication round the transfer belongs to.
    pub round: usize,
    /// Inter-period lag: in period `p` the transfer carries the slice of
    /// batch `p − lag` (it idles while `p < lag`).
    pub lag: usize,
    /// Start offset within the period, in seconds.
    pub start: f64,
    /// Arrival offset within the period (`start` + link occupation).
    pub finish: f64,
}

/// One communication round: a send/receive matching of the platform.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleRound {
    /// Indices into [`PeriodicSchedule::transfers`].
    pub transfers: Vec<usize>,
    /// Longest link occupation in the round, in seconds.
    pub duration: f64,
}

/// A periodic steady-state broadcast schedule realising the LP edge loads.
///
/// Every period of [`PeriodicSchedule::period`] seconds, the source injects
/// [`PeriodicSchedule::slices_per_period`] fresh slices and every processor
/// receives every slice exactly once (slice `j` travels along spanning
/// arborescence `j`). The schedule is an explicit timetable: each transfer
/// has a round, a start offset, and an inter-period lag.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PeriodicSchedule {
    source: NodeId,
    model: CommModel,
    slice_size: f64,
    period: f64,
    lp_throughput: f64,
    transfers: Vec<ScheduledTransfer>,
    rounds: Vec<ScheduleRound>,
    /// `trees[j]` is the spanning arborescence of batch slice `j`, in
    /// parent-before-child order.
    trees: Vec<Vec<EdgeId>>,
    /// Send-port busy time per node and period, in seconds.
    send_busy: Vec<f64>,
    /// Receive-port busy time per node and period, in seconds.
    recv_busy: Vec<f64>,
    max_lag: usize,
    rounding: RoundedLoads,
}

impl PeriodicSchedule {
    /// The broadcast source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The port model the timetable was built for.
    pub fn model(&self) -> CommModel {
        self.model
    }

    /// Slice size the schedule is calibrated for, in bytes.
    pub fn slice_size(&self) -> f64 {
        self.slice_size
    }

    /// Achieved period in seconds (0 for a single-node platform).
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Slices broadcast per period (the batch size `B`).
    pub fn slices_per_period(&self) -> usize {
        self.rounding.slices_per_period
    }

    /// Steady-state throughput of the schedule, in slices per time unit.
    pub fn throughput(&self) -> f64 {
        if self.period > 0.0 {
            self.rounding.slices_per_period as f64 / self.period
        } else {
            f64::INFINITY
        }
    }

    /// The LP optimal throughput the schedule was synthesized from.
    pub fn lp_throughput(&self) -> f64 {
        self.lp_throughput
    }

    /// `throughput / lp_throughput`: 1 means the schedule realises the LP
    /// bound exactly; rounding and round-packing keep it slightly below.
    pub fn efficiency(&self) -> f64 {
        if self.lp_throughput > 0.0 && self.lp_throughput.is_finite() {
            self.throughput() / self.lp_throughput
        } else {
            1.0
        }
    }

    /// The scheduled transfers of one period.
    pub fn transfers(&self) -> &[ScheduledTransfer] {
        &self.transfers
    }

    /// The communication rounds (matchings) of one period.
    pub fn rounds(&self) -> &[ScheduleRound] {
        &self.rounds
    }

    /// The spanning arborescence followed by batch slice `j`.
    pub fn trees(&self) -> &[Vec<EdgeId>] {
        &self.trees
    }

    /// Largest inter-period lag — the pipeline depth in periods.
    pub fn max_lag(&self) -> usize {
        self.max_lag
    }

    /// Rounding statistics (batch size, loss bound, repairs).
    pub fn rounding(&self) -> &RoundedLoads {
        &self.rounding
    }

    /// Send- and receive-port utilisation of `node` (busy fraction of the
    /// period; 0 when the period is 0).
    pub fn port_utilisation(&self, node: NodeId) -> (f64, f64) {
        if self.period > 0.0 {
            (
                self.send_busy[node.index()] / self.period,
                self.recv_busy[node.index()] / self.period,
            )
        } else {
            (0.0, 0.0)
        }
    }

    /// Exhaustively re-checks the schedule against `platform`:
    ///
    /// 1. every tree is a spanning arborescence rooted at the source,
    /// 2. every round is a send/receive matching (one-port feasibility),
    /// 3. port busy intervals never overlap within a period,
    /// 4. transfers stay inside `[0, period]` (so periods never collide),
    /// 5. lags respect causality (a slice arrives before it is forwarded),
    /// 6. edge usage stays within the rounded multiplicities.
    pub fn validate(&self, platform: &Platform) -> Result<(), SchedError> {
        let n = platform.node_count();
        let invalid = |reason: String| Err(SchedError::Invalid(reason));
        if n <= 1 {
            return Ok(());
        }
        // 1. Trees span, and the transfer list matches them exactly.
        if self.trees.len() != self.slices_per_period() {
            return invalid("tree count differs from the batch size".into());
        }
        for (j, tree) in self.trees.iter().enumerate() {
            if Arborescence::from_edges(platform.graph(), self.source, tree).is_err() {
                return invalid(format!("tree {j} is not a spanning arborescence"));
            }
        }
        if self.transfers.len() != self.slices_per_period() * (n - 1) {
            return invalid("transfer count differs from B·(n−1)".into());
        }
        // 2. Rounds partition the transfers into matchings.
        let mut seen = vec![false; self.transfers.len()];
        for (r, round) in self.rounds.iter().enumerate() {
            let mut sends = vec![false; n];
            let mut recvs = vec![false; n];
            for &t in &round.transfers {
                let transfer = &self.transfers[t];
                if transfer.round != r {
                    return invalid(format!("transfer {t} disagrees with its round index"));
                }
                if seen[t] {
                    return invalid(format!("transfer {t} appears in two rounds"));
                }
                seen[t] = true;
                let u = platform.graph().src(transfer.edge);
                let v = platform.graph().dst(transfer.edge);
                if sends[u.index()] {
                    return invalid(format!("round {r}: node {u} sends twice"));
                }
                if recvs[v.index()] {
                    return invalid(format!("round {r}: node {v} receives twice"));
                }
                sends[u.index()] = true;
                recvs[v.index()] = true;
            }
        }
        if seen.iter().any(|&s| !s) {
            return invalid("some transfer belongs to no round".into());
        }
        // 3.–4. Port intervals disjoint and inside the period.
        let mut send_intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
        let mut recv_intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
        for t in &self.transfers {
            let u = platform.graph().src(t.edge);
            let v = platform.graph().dst(t.edge);
            let link = platform.link_time(t.edge, self.slice_size);
            if (t.finish - t.start - link).abs() > TIME_TOL * link.max(1.0) {
                return invalid(format!("transfer on {:?} has a wrong duration", t.edge));
            }
            if t.start < -TIME_TOL || t.finish > self.period + TIME_TOL {
                return invalid(format!("transfer on {:?} leaves the period", t.edge));
            }
            let send_hold = sender_occupation(platform, t.edge, self.slice_size, self.model);
            send_intervals[u.index()].push((t.start, t.start + send_hold));
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
        let m = platform.edge_count();
        let mut transfer_index = vec![usize::MAX; m * self.trees.len().max(1)];
        for (i, t) in self.transfers.iter().enumerate() {
            if t.slice >= self.trees.len() || t.edge.index() >= m {
                return invalid(format!("transfer {i} references an unknown slice or edge"));
            }
            transfer_index[t.slice * m + t.edge.index()] = i;
        }
        let by_slice_edge = |slice: usize, edge: EdgeId| {
            let i = transfer_index[slice * m + edge.index()];
            if i == usize::MAX {
                None
            } else {
                Some(&self.transfers[i])
            }
        };
        for (j, tree) in self.trees.iter().enumerate() {
            let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
            for &e in tree {
                parent_edge[platform.graph().dst(e).index()] = Some(e);
            }
            for &e in tree {
                let u = platform.graph().src(e);
                let Some(child) = by_slice_edge(j, e) else {
                    return invalid(format!("missing transfer for slice {j} on {e:?}"));
                };
                if u == self.source {
                    continue;
                }
                let Some(pe) = parent_edge[u.index()] else {
                    return invalid(format!("tree {j}: node {u} has no parent"));
                };
                let parent = by_slice_edge(j, pe).expect("checked above");
                let arrival = parent.lag as f64 * self.period + parent.finish;
                let departure = child.lag as f64 * self.period + child.start;
                if departure + TIME_TOL < arrival {
                    return invalid(format!("slice {j} forwarded from {u} before it arrives"));
                }
            }
        }
        // 6. Edge usage within the rounded multiplicities.
        let mut usage = vec![0u32; platform.edge_count()];
        for t in &self.transfers {
            usage[t.edge.index()] += 1;
        }
        for (e, &u) in usage.iter().enumerate() {
            if u > self.rounding.multiplicity[e] {
                return invalid(format!("edge {e} used beyond its multiplicity"));
            }
        }
        Ok(())
    }

    /// Disassembles the schedule into its plain-data [`ScheduleParts`] —
    /// the snapshot surface of `bcast-service`. Lossless:
    /// [`PeriodicSchedule::from_parts`] reassembles an identical schedule.
    pub fn to_parts(&self) -> ScheduleParts {
        ScheduleParts {
            source: self.source.index(),
            model: self.model,
            slice_size: self.slice_size,
            period: self.period,
            lp_throughput: self.lp_throughput,
            transfers: self.transfers.clone(),
            rounds: self.rounds.clone(),
            trees: self.trees.clone(),
            send_busy: self.send_busy.clone(),
            recv_busy: self.recv_busy.clone(),
            max_lag: self.max_lag,
            rounding: self.rounding.clone(),
        }
    }

    /// Reassembles a schedule from [`ScheduleParts`] captured on a platform
    /// with `platform`'s topology. Every index and length is
    /// bounds-checked against `platform` first, and every tree must be a
    /// spanning arborescence rooted at the source, listed parent before
    /// child: a later repair may keep a tree as it is and re-time it, and
    /// the timetable's lags need that order. Malformed parts (from a
    /// truncated or corrupted snapshot) yield [`SchedError::Invalid`],
    /// never a panic — but the timetable's own invariants are not
    /// re-proved here; run [`PeriodicSchedule::validate`] for that.
    pub fn from_parts(platform: &Platform, parts: &ScheduleParts) -> Result<Self, SchedError> {
        let n = platform.node_count();
        let m = platform.edge_count();
        let invalid = |reason: &str| Err(SchedError::Invalid(format!("schedule parts: {reason}")));
        if parts.source >= n {
            return invalid("source out of range");
        }
        if !parts.slice_size.is_finite()
            || parts.slice_size <= 0.0
            || !parts.period.is_finite()
            || parts.period < 0.0
            || !parts.lp_throughput.is_finite()
        {
            return invalid("non-finite or non-positive scalars");
        }
        if parts.send_busy.len() != n
            || parts.recv_busy.len() != n
            || parts.send_busy.iter().any(|b| !b.is_finite())
            || parts.recv_busy.iter().any(|b| !b.is_finite())
        {
            return invalid("port busy vectors do not match the platform");
        }
        for t in &parts.transfers {
            if t.edge.index() >= m {
                return invalid("transfer edge out of range");
            }
            if t.round >= parts.rounds.len() {
                return invalid("transfer round out of range");
            }
            if !t.start.is_finite() || !t.finish.is_finite() {
                return invalid("non-finite transfer times");
            }
        }
        for round in &parts.rounds {
            if round.transfers.iter().any(|&t| t >= parts.transfers.len()) {
                return invalid("round references a missing transfer");
            }
            if !round.duration.is_finite() {
                return invalid("non-finite round duration");
            }
        }
        if let Some(j) = parts
            .trees
            .iter()
            .position(|tree| !spans_in_order(platform, parts.source, tree))
        {
            return Err(SchedError::Invalid(format!(
                "schedule parts: tree {j} is not a spanning arborescence listed parent before child"
            )));
        }
        if parts.rounding.multiplicity.len() != m || parts.rounding.dominated.len() != m {
            return invalid("rounding vectors do not match the platform");
        }
        Ok(PeriodicSchedule {
            source: NodeId(parts.source as u32),
            model: parts.model,
            slice_size: parts.slice_size,
            period: parts.period,
            lp_throughput: parts.lp_throughput,
            transfers: parts.transfers.clone(),
            rounds: parts.rounds.clone(),
            trees: parts.trees.clone(),
            send_busy: parts.send_busy.clone(),
            recv_busy: parts.recv_busy.clone(),
            max_lag: parts.max_lag,
            rounding: parts.rounding.clone(),
        })
    }
}

/// The plain-data image of a [`PeriodicSchedule`] — every private field,
/// flattened for external serialization (the `bcast-service` snapshot
/// codec). Produced by [`PeriodicSchedule::to_parts`], consumed by
/// [`PeriodicSchedule::from_parts`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleParts {
    /// Broadcast source node index.
    pub source: usize,
    /// Port model the timetable was built for.
    pub model: CommModel,
    /// Slice size the schedule is calibrated for, in bytes.
    pub slice_size: f64,
    /// Achieved period in seconds.
    pub period: f64,
    /// LP throughput bound the schedule was synthesized against.
    pub lp_throughput: f64,
    /// The scheduled transfers of one period.
    pub transfers: Vec<ScheduledTransfer>,
    /// The communication rounds (matchings) of one period.
    pub rounds: Vec<ScheduleRound>,
    /// `trees[j]` is the spanning arborescence of batch slice `j`.
    pub trees: Vec<Vec<EdgeId>>,
    /// Send-port busy time per node and period, in seconds.
    pub send_busy: Vec<f64>,
    /// Receive-port busy time per node and period, in seconds.
    pub recv_busy: Vec<f64>,
    /// Largest inter-period lag.
    pub max_lag: usize,
    /// Rounding statistics (batch size, multiplicities, loss bound).
    pub rounding: RoundedLoads,
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

/// How long a transfer occupies its sender's port.
pub(crate) fn sender_occupation(
    platform: &Platform,
    edge: EdgeId,
    slice_size: f64,
    model: CommModel,
) -> f64 {
    let link = platform.link_time(edge, slice_size);
    match model {
        CommModel::OnePort | CommModel::OnePortUnidirectional => link,
        CommModel::MultiPort => platform.send_time(edge, slice_size).min(link),
    }
}

/// Assembles the full schedule from the packed trees: greedy matching
/// rounds, the barrier-free timetable, and the causality lags.
pub(crate) fn assemble(
    platform: &Platform,
    source: NodeId,
    model: CommModel,
    slice_size: f64,
    lp_throughput: f64,
    rounding: RoundedLoads,
    trees: Vec<Vec<EdgeId>>,
) -> PeriodicSchedule {
    let _span = bcast_obs::span!(bcast_obs::names::SPAN_SCHED_ASSEMBLE);
    let n = platform.node_count();
    let graph = platform.graph();

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

    // Greedy maximal matchings over the remaining transfers.
    let mut round_of: Vec<usize> = vec![usize::MAX; order.len()];
    let mut assigned = 0usize;
    let mut rounds_count = 0usize;
    while assigned < order.len() {
        let mut send_used = vec![false; n];
        let mut recv_used = vec![false; n];
        for (i, &(_, e)) in order.iter().enumerate() {
            if round_of[i] != usize::MAX {
                continue;
            }
            let u = graph.src(e).index();
            let v = graph.dst(e).index();
            if send_used[u] || recv_used[v] {
                continue;
            }
            send_used[u] = true;
            recv_used[v] = true;
            round_of[i] = rounds_count;
            assigned += 1;
        }
        rounds_count += 1;
    }

    // Event-driven list timetable over the same transfer multiset: whenever
    // ports free up, start the pending transfer whose two ports carry the
    // most remaining work (critical-resource-first). This keeps the
    // bottleneck port dense where a round-ordered timetable would let it
    // idle behind unrelated long transfers.
    let mut send_free = vec![0.0f64; n];
    let mut recv_free = vec![0.0f64; n];
    let mut remaining_send = vec![0.0f64; n];
    let mut remaining_recv = vec![0.0f64; n];
    for &(_, e) in &order {
        remaining_send[graph.src(e).index()] += sender_occupation(platform, e, slice_size, model);
        remaining_recv[graph.dst(e).index()] += platform.link_time(e, slice_size);
    }
    let mut scheduled: Vec<Option<(f64, f64)>> = vec![None; order.len()]; // (start, finish)
    let mut left = order.len();
    while left > 0 {
        // Earliest feasible start among the pending transfers.
        let mut ready = f64::INFINITY;
        for (i, &(_, e)) in order.iter().enumerate() {
            if scheduled[i].is_none() {
                let t = send_free[graph.src(e).index()].max(recv_free[graph.dst(e).index()]);
                if t < ready {
                    ready = t;
                }
            }
        }
        // Among the transfers startable at that instant, pick the one whose
        // ports are the most loaded (ties: heavier combined load, longer
        // duration, then the deterministic `order` position).
        let mut best: Option<(f64, f64, f64, usize)> = None;
        for (i, &(_, e)) in order.iter().enumerate() {
            if scheduled[i].is_some() {
                continue;
            }
            let u = graph.src(e).index();
            let v = graph.dst(e).index();
            if send_free[u].max(recv_free[v]) > ready + TIME_TOL {
                continue;
            }
            let critical = remaining_send[u].max(remaining_recv[v]);
            let combined = remaining_send[u] + remaining_recv[v];
            let link = platform.link_time(e, slice_size);
            let better = match best {
                None => true,
                Some((c, s, l, _)) => {
                    critical > c + TIME_TOL
                        || (critical > c - TIME_TOL
                            && (combined > s + TIME_TOL
                                || (combined > s - TIME_TOL && link > l + TIME_TOL)))
                }
            };
            if better {
                best = Some((critical, combined, link, i));
            }
        }
        let (_, _, _, i) = best.expect("some transfer is startable at the ready time");
        let (_, e) = order[i];
        let u = graph.src(e).index();
        let v = graph.dst(e).index();
        let link = platform.link_time(e, slice_size);
        let hold = sender_occupation(platform, e, slice_size, model);
        let start = send_free[u].max(recv_free[v]);
        send_free[u] = start + hold;
        recv_free[v] = start + link;
        remaining_send[u] -= hold;
        remaining_recv[v] -= link;
        scheduled[i] = Some((start, start + link));
        left -= 1;
    }
    let mut transfers: Vec<ScheduledTransfer> = Vec::with_capacity(order.len());
    let mut rounds: Vec<ScheduleRound> = (0..rounds_count)
        .map(|_| ScheduleRound {
            transfers: Vec::new(),
            duration: 0.0,
        })
        .collect();
    for (i, &(j, e)) in order.iter().enumerate() {
        let (start, finish) = scheduled[i].expect("all transfers scheduled");
        let r = round_of[i];
        let index = transfers.len();
        transfers.push(ScheduledTransfer {
            edge: e,
            slice: j,
            round: r,
            lag: 0,
            start,
            finish,
        });
        rounds[r].transfers.push(index);
        rounds[r].duration = rounds[r].duration.max(platform.link_time(e, slice_size));
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
    let mut max_lag = 0usize;
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
            max_lag = max_lag.max(lag);
            parent_transfer[graph.dst(e).index()] = Some(child);
        }
    }

    // Port busy totals.
    let mut send_busy = vec![0.0f64; n];
    let mut recv_busy = vec![0.0f64; n];
    for t in &transfers {
        let u = graph.src(t.edge).index();
        let v = graph.dst(t.edge).index();
        send_busy[u] += sender_occupation(platform, t.edge, slice_size, model);
        recv_busy[v] += platform.link_time(t.edge, slice_size);
    }

    PeriodicSchedule {
        source,
        model,
        slice_size,
        period,
        lp_throughput,
        transfers,
        rounds,
        trees,
        send_busy,
        recv_busy,
        max_lag,
        rounding,
    }
}

/// A degenerate schedule for a platform the source spans trivially (one
/// node): zero period, no transfers.
pub(crate) fn trivial(
    source: NodeId,
    model: CommModel,
    slice_size: f64,
    lp_throughput: f64,
) -> PeriodicSchedule {
    PeriodicSchedule {
        source,
        model,
        slice_size,
        period: 0.0,
        lp_throughput,
        transfers: Vec::new(),
        rounds: Vec::new(),
        trees: vec![Vec::new()],
        send_busy: vec![0.0],
        recv_busy: vec![0.0],
        max_lag: 0,
        rounding: RoundedLoads {
            slices_per_period: 1,
            multiplicity: Vec::new(),
            ideal_period: 0.0,
            loss_bound: 0.0,
            repairs: 0,
            dominated: Vec::new(),
        },
    }
}
