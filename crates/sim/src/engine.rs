//! Event-driven simulation engine.
//!
//! The engine tracks, per processor, a send port and a receive port, and per
//! structure edge a FIFO of pending slice transfers. A transfer
//! `(u → v, slice k)` may start once
//!
//! 1. `u` holds slice `k`,
//! 2. all earlier transfers of `u` (head-of-line order: slices in order,
//!    children in edge order) have *started*,
//! 3. `u`'s send port is free (one-port: busy for the whole link occupation;
//!    multi-port: busy only for the sender overhead),
//! 4. `v`'s receive port is free (busy for the whole link occupation in both
//!    models).
//!
//! Progress is driven by a time-ordered event queue; whenever a port frees
//! or a slice arrives the affected senders re-examine their head transfer.

use crate::report::SimulationReport;
use bcast_core::BroadcastStructure;
use bcast_net::{EdgeId, NodeId};
use bcast_platform::{CommModel, MessageSpec, Platform};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Safety cap on processed events: a structure that spans the platform
/// finishes far below it in every realistic run, so reaching it means the
/// simulation stopped making progress.
const MAX_EVENTS: usize = 50_000_000;

/// A queued simulation event.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EventKind {
    /// The send port of a node becomes free.
    SenderFree(NodeId),
    /// The receive port of a node becomes free.
    ReceiverFree(NodeId),
    /// A slice arrives (becomes forwardable) at a node.
    SliceArrived(NodeId, usize),
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by time (then sequence number for determinism).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-sender outgoing transfer schedule: slices in order, children in edge
/// order within a slice (the natural store-and-forward FIFO).
struct SenderState {
    /// Outgoing structure edges of this node, in ascending edge order.
    out_edges: Vec<EdgeId>,
    /// Index of the next transfer to start: `next / out_edges.len()` is the
    /// slice, `next % out_edges.len()` the child edge.
    next: usize,
    /// Time at which the send port frees.
    port_free_at: f64,
}

impl SenderState {
    fn pending_transfer(&self, slices: usize) -> Option<(usize, EdgeId)> {
        if self.out_edges.is_empty() {
            return None;
        }
        let total = slices * self.out_edges.len();
        if self.next >= total {
            return None;
        }
        Some((
            self.next / self.out_edges.len(),
            self.out_edges[self.next % self.out_edges.len()],
        ))
    }
}

/// Simulates the pipelined broadcast of `spec` from `structure.source()`
/// along `structure`, with ports occupied under `model`, and reports
/// completion times and steady-state estimates.
///
/// # Panics
/// Panics if the structure's slice transfers cannot all complete within
/// 50,000,000 events (which would indicate an internal bug — the structure
/// is validated to span the platform at construction time).
pub fn simulate_broadcast(
    platform: &Platform,
    structure: &BroadcastStructure,
    spec: &MessageSpec,
    model: CommModel,
) -> SimulationReport {
    let n = platform.node_count();
    let slices = spec.slice_count();
    let source = structure.source();
    let mask = structure.edge_mask();
    let graph = platform.graph();

    // Per-node state.
    let mut senders: Vec<SenderState> = (0..n)
        .map(|u| SenderState {
            out_edges: graph
                .out_edges(NodeId(u as u32))
                .filter(|e| mask[e.id.index()])
                .map(|e| e.id)
                .collect(),
            next: 0,
            port_free_at: 0.0,
        })
        .collect();
    let mut recv_free_at = vec![0.0f64; n];
    // has_slice[u][k]: time the slice became available, or NaN if not yet.
    let mut slice_at = vec![vec![f64::NAN; slices]; n];
    slice_at[source.index()].fill(0.0);
    let mut received_count = vec![0usize; n];
    received_count[source.index()] = slices;
    let mut node_completion = vec![f64::NAN; n];
    node_completion[source.index()] = 0.0;
    // How many nodes hold slice k.
    let mut slice_holders = vec![1usize; slices];
    let mut slice_completion = vec![f64::NAN; slices];
    if n == 1 {
        return SimulationReport {
            slices,
            slice_completion: vec![0.0; slices],
            node_completion: vec![0.0],
            makespan: 0.0,
            transfers: 0,
            events: 0,
        };
    }

    let mut queue: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |queue: &mut BinaryHeap<Event>, time: f64, kind: EventKind, seq: &mut u64| {
        queue.push(Event {
            time,
            seq: *seq,
            kind,
        });
        *seq += 1;
    };

    // Kick off: the source examines its head transfer at time 0.
    push(&mut queue, 0.0, EventKind::SenderFree(source), &mut seq);

    let mut transfers = 0usize;
    let mut events = 0usize;
    let mut now;

    // Attempt to start the head transfer of `u` at time `now`; returns true
    // when a transfer was started.
    let try_start = |u: NodeId,
                     now: f64,
                     senders: &mut Vec<SenderState>,
                     recv_free_at: &mut Vec<f64>,
                     slice_at: &mut Vec<Vec<f64>>,
                     queue: &mut BinaryHeap<Event>,
                     seq: &mut u64,
                     transfers: &mut usize|
     -> bool {
        let state = &senders[u.index()];
        let Some((slice, edge)) = state.pending_transfer(slices) else {
            return false;
        };
        // 1. the slice must already be available at u
        let available = slice_at[u.index()][slice];
        if !(available.is_finite() && available <= now + 1e-15) {
            return false;
        }
        // 3. send port free
        if state.port_free_at > now + 1e-15 {
            return false;
        }
        let dst = platform.graph().dst(edge);
        // 4. receive port of the destination free
        if recv_free_at[dst.index()] > now + 1e-15 {
            return false;
        }
        // Start the transfer.
        let slice_len = spec.slice_len(slice);
        let link_time = platform.link_time(edge, slice_len);
        let sender_busy = match_sender_busy(platform, edge, slice_len, link_time, model);
        senders[u.index()].next += 1;
        senders[u.index()].port_free_at = now + sender_busy;
        recv_free_at[dst.index()] = now + link_time;
        *transfers += 1;
        let mut enqueue = |time: f64, kind: EventKind| {
            queue.push(Event {
                time,
                seq: *seq,
                kind,
            });
            *seq += 1;
        };
        enqueue(now + sender_busy, EventKind::SenderFree(u));
        enqueue(now + link_time, EventKind::ReceiverFree(dst));
        enqueue(now + link_time, EventKind::SliceArrived(dst, slice));
        true
    };

    while let Some(event) = queue.pop() {
        events += 1;
        assert!(
            events <= MAX_EVENTS,
            "simulation exceeded {MAX_EVENTS} events — structure does not make progress"
        );
        now = event.time;
        match event.kind {
            EventKind::SliceArrived(v, k) => {
                if slice_at[v.index()][k].is_nan() {
                    slice_at[v.index()][k] = now;
                    received_count[v.index()] += 1;
                    if received_count[v.index()] == slices {
                        node_completion[v.index()] = now;
                    }
                    slice_holders[k] += 1;
                    if slice_holders[k] == n {
                        slice_completion[k] = now;
                    }
                }
                // The arrival may unblock v's own forwarding.
                while try_start(
                    v,
                    now,
                    &mut senders,
                    &mut recv_free_at,
                    &mut slice_at,
                    &mut queue,
                    &mut seq,
                    &mut transfers,
                ) {}
            }
            EventKind::SenderFree(u) => {
                while try_start(
                    u,
                    now,
                    &mut senders,
                    &mut recv_free_at,
                    &mut slice_at,
                    &mut queue,
                    &mut seq,
                    &mut transfers,
                ) {}
            }
            EventKind::ReceiverFree(v) => {
                // The freed receiver may unblock any of its in-neighbours.
                let parents: Vec<NodeId> = graph
                    .in_edges(v)
                    .filter(|e| mask[e.id.index()])
                    .map(|e| e.src)
                    .collect();
                for u in parents {
                    while try_start(
                        u,
                        now,
                        &mut senders,
                        &mut recv_free_at,
                        &mut slice_at,
                        &mut queue,
                        &mut seq,
                        &mut transfers,
                    ) {}
                }
            }
        }
    }

    // Every slice must have reached every node: the structure spans the
    // platform by construction.
    debug_assert!(slice_completion.iter().all(|t| t.is_finite()));
    let makespan =
        node_completion.iter().copied().fold(
            0.0f64,
            |acc, t| if t.is_finite() { acc.max(t) } else { acc },
        );
    SimulationReport {
        slices,
        slice_completion,
        node_completion,
        makespan,
        transfers,
        events,
    }
}

/// Duration for which the sender's port stays busy for one transfer.
fn match_sender_busy(
    platform: &Platform,
    edge: EdgeId,
    slice_len: f64,
    link_time: f64,
    model: CommModel,
) -> f64 {
    match model {
        CommModel::OnePort | CommModel::OnePortUnidirectional => link_time,
        CommModel::MultiPort => platform.send_time(edge, slice_len).min(link_time),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_core::{sta_makespan, steady_state_period};
    use bcast_net::EdgeId;
    use bcast_platform::LinkCost;

    fn chain() -> (Platform, BroadcastStructure) {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0)); // e0,e1
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 2.0)); // e2,e3
        let platform = b.build();
        let tree =
            BroadcastStructure::new(&platform, NodeId(0), vec![EdgeId(0), EdgeId(2)]).unwrap();
        (platform, tree)
    }

    fn star() -> (Platform, BroadcastStructure) {
        let mut b = Platform::builder();
        let p = b.add_processors(4);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[0], p[2], LinkCost::one_port(0.0, 2.0));
        b.add_bidirectional_link(p[0], p[3], LinkCost::one_port(0.0, 3.0));
        let platform = b.build();
        let tree =
            BroadcastStructure::new(&platform, NodeId(0), vec![EdgeId(0), EdgeId(2), EdgeId(4)])
                .unwrap();
        (platform, tree)
    }

    #[test]
    fn single_slice_matches_sta_makespan() {
        for (platform, tree) in [chain(), star()] {
            let spec = MessageSpec::atomic(1.0);
            let report = simulate_broadcast(&platform, &tree, &spec, CommModel::OnePort);
            let expected = sta_makespan(&platform, &tree, 1.0).unwrap();
            assert!(
                (report.makespan - expected).abs() < 1e-9,
                "makespan {} vs analytic {}",
                report.makespan,
                expected
            );
        }
    }

    #[test]
    fn steady_state_period_matches_analytic_formula_chain() {
        let (platform, tree) = chain();
        let spec = MessageSpec::new(200.0, 1.0);
        let report = simulate_broadcast(&platform, &tree, &spec, CommModel::OnePort);
        let analytic = steady_state_period(&platform, &tree, CommModel::OnePort, 1.0);
        assert!(
            (report.estimated_period() - analytic).abs() < 1e-6,
            "simulated {} vs analytic {}",
            report.estimated_period(),
            analytic
        );
    }

    #[test]
    fn steady_state_period_matches_analytic_formula_star() {
        let (platform, tree) = star();
        let spec = MessageSpec::new(200.0, 1.0);
        let report = simulate_broadcast(&platform, &tree, &spec, CommModel::OnePort);
        let analytic = steady_state_period(&platform, &tree, CommModel::OnePort, 1.0);
        assert!(
            (report.estimated_period() - analytic).abs() < 1e-6,
            "simulated {} vs analytic {}",
            report.estimated_period(),
            analytic
        );
    }

    #[test]
    fn multiport_simulation_is_faster_than_one_port_on_a_star() {
        let (platform, tree) = star();
        let platform = platform.with_multiport_overheads(0.5, 1.0);
        let spec = MessageSpec::new(100.0, 1.0);
        let one = simulate_broadcast(&platform, &tree, &spec, CommModel::OnePort);
        let multi = simulate_broadcast(&platform, &tree, &spec, CommModel::MultiPort);
        assert!(multi.makespan < one.makespan);
        assert!(multi.estimated_period() <= one.estimated_period() + 1e-12);
    }

    #[test]
    fn makespan_grows_linearly_with_slices() {
        let (platform, tree) = chain();
        let model = CommModel::OnePort;
        let m10 =
            simulate_broadcast(&platform, &tree, &MessageSpec::new(10.0, 1.0), model).makespan;
        let m20 =
            simulate_broadcast(&platform, &tree, &MessageSpec::new(20.0, 1.0), model).makespan;
        let m30 =
            simulate_broadcast(&platform, &tree, &MessageSpec::new(30.0, 1.0), model).makespan;
        let d1 = m20 - m10;
        let d2 = m30 - m20;
        assert!((d1 - d2).abs() < 1e-9, "non-linear growth: {d1} vs {d2}");
    }

    #[test]
    fn single_node_platform() {
        let mut b = Platform::builder();
        b.add_processor("only");
        let platform = b.build();
        let tree = BroadcastStructure::new(&platform, NodeId(0), vec![]).unwrap();
        let report = simulate_broadcast(
            &platform,
            &tree,
            &MessageSpec::new(10.0, 1.0),
            CommModel::OnePort,
        );
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.transfers, 0);
    }

    #[test]
    fn all_nodes_receive_all_slices() {
        let (platform, tree) = star();
        let spec = MessageSpec::new(50.0, 1.0);
        let report = simulate_broadcast(&platform, &tree, &spec, CommModel::OnePort);
        assert_eq!(report.slices, 50);
        assert!(report.slice_completion.iter().all(|t| t.is_finite()));
        assert!(report.node_completion.iter().all(|t| t.is_finite()));
        assert_eq!(report.transfers, 50 * 3);
        // Completion times are non-decreasing in the slice index.
        for w in report.slice_completion.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }
}
