//! The reference the schedule timetable must match bit for bit: the
//! assembler as it stood when a schedule still stored its matching rounds,
//! its port busy totals and its largest lag. It sorts one period's
//! transfers by link time, peels them into greedy send/receive matchings,
//! times them with the critical-resource-first list scheduler, sums the
//! port busy times and assigns the causality lags, all in one pass. Every
//! transfer holds its sender's and its receiver's port for its link time
//! (the one-port model). It is kept only for the tests.
//!
//! It takes a schedule's [`ScheduleParts`] and the platform they were
//! assembled on, so that any test holding a schedule can compare it.

use bcast_net::EdgeId;
use bcast_platform::Platform;
use bcast_sched::ScheduleParts;

/// Tolerance for timetable comparisons (start/finish times in seconds).
const TIME_TOL: f64 = 1e-9;

/// One slice transfer of the reference timetable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transfer {
    pub edge: EdgeId,
    pub slice: usize,
    pub lag: usize,
    pub start: f64,
    pub finish: f64,
}

/// The reference timetable of one period.
#[derive(Clone, Debug)]
pub struct Timetable {
    pub transfers: Vec<Transfer>,
    /// `rounds[r]` lists the indices into `transfers` of round `r`, in
    /// increasing order.
    pub rounds: Vec<Vec<usize>>,
    pub period: f64,
    /// Send- and receive-port busy time per node and period, in seconds.
    pub send_busy: Vec<f64>,
    pub recv_busy: Vec<f64>,
    pub max_lag: usize,
}

/// Assembles the timetable of `parts` on `platform`: greedy matching
/// rounds, the barrier-free list timetable, the port busy totals and the
/// causality lags. Every tree must be listed parent before child.
pub fn assemble(platform: &Platform, parts: &ScheduleParts) -> Timetable {
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

    // Event-driven list timetable: whenever ports free up, start the
    // pending transfer whose two ports carry the most remaining work.
    let mut send_free = vec![0.0f64; n];
    let mut recv_free = vec![0.0f64; n];
    let mut remaining_send = vec![0.0f64; n];
    let mut remaining_recv = vec![0.0f64; n];
    for &(_, e) in &order {
        remaining_send[graph.src(e).index()] += platform.link_time(e, slice_size);
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
        let start = send_free[u].max(recv_free[v]);
        send_free[u] = start + link;
        recv_free[v] = start + link;
        remaining_send[u] -= link;
        remaining_recv[v] -= link;
        scheduled[i] = Some((start, start + link));
        left -= 1;
    }
    let mut transfers: Vec<Transfer> = Vec::with_capacity(order.len());
    let mut rounds: Vec<Vec<usize>> = vec![Vec::new(); rounds_count];
    for (i, &(j, e)) in order.iter().enumerate() {
        let (start, finish) = scheduled[i].expect("all transfers scheduled");
        rounds[round_of[i]].push(transfers.len());
        transfers.push(Transfer {
            edge: e,
            slice: j,
            lag: 0,
            start,
            finish,
        });
    }
    let period = send_free
        .iter()
        .chain(recv_free.iter())
        .fold(0.0f64, |acc, &t| acc.max(t));

    // Causality lags, tree by tree in parent-before-child order.
    let m = platform.edge_count();
    let mut index_of = vec![usize::MAX; m * trees.len().max(1)];
    for (i, t) in transfers.iter().enumerate() {
        index_of[t.slice * m + t.edge.index()] = i;
    }
    let mut max_lag = 0usize;
    for (j, tree) in trees.iter().enumerate() {
        let mut parent_transfer: Vec<Option<usize>> = vec![None; n];
        for &e in tree {
            let child = index_of[j * m + e.index()];
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
        send_busy[u] += platform.link_time(t.edge, slice_size);
        recv_busy[v] += platform.link_time(t.edge, slice_size);
    }

    Timetable {
        transfers,
        rounds,
        period,
        send_busy,
        recv_busy,
        max_lag,
    }
}
