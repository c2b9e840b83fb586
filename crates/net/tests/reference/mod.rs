//! The reference the flat live-arc `MaxFlowSolver` must match bit for bit:
//! Dinic on a residual network that keeps every edge's arc pair, dead
//! edges included, with a level search that labels every reachable node.
//! It is the solver's earlier network, kept only for the tests.
//!
//! It takes plain data — `(tail, head, capacity)` per edge, in edge-id
//! order — so that the library's unit tests and the property tests can
//! both include this file.

use std::collections::VecDeque;

const FLOW_EPS: f64 = 1e-12;

#[derive(Clone, Debug)]
struct Arc {
    to: usize,
    residual: f64,
    rev: usize,
}

/// Maximum `source → sink` flow, stopping once `limit` is reached, and the
/// nodes reachable from `source` in the final residual network.
pub fn all_arcs_max_flow(
    nodes: usize,
    edges: &[(usize, usize, f64)],
    source: usize,
    sink: usize,
    limit: f64,
) -> (f64, Vec<bool>) {
    let mut arcs: Vec<Vec<Arc>> = vec![Vec::new(); nodes];
    for &(u, v, capacity) in edges {
        let fwd_rev = arcs[v].len();
        let bwd_rev = arcs[u].len();
        arcs[u].push(Arc {
            to: v,
            residual: capacity.max(0.0),
            rev: fwd_rev,
        });
        arcs[v].push(Arc {
            to: u,
            residual: 0.0,
            rev: bwd_rev,
        });
    }
    let mut level = vec![-1i32; nodes];
    let mut cursor = vec![0usize; nodes];
    let mut flow = 0.0;
    while flow < limit && build_levels(&arcs, &mut level, source, sink) {
        cursor.iter_mut().for_each(|c| *c = 0);
        let pushed = augment(
            &mut arcs,
            &mut level,
            &mut cursor,
            source,
            sink,
            limit - flow,
        );
        if pushed <= FLOW_EPS {
            break;
        }
        flow += pushed;
    }
    let mut side = vec![false; nodes];
    side[source] = true;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for arc in &arcs[u] {
            if arc.residual > FLOW_EPS && !side[arc.to] {
                side[arc.to] = true;
                queue.push_back(arc.to);
            }
        }
    }
    (flow, side)
}

fn build_levels(arcs: &[Vec<Arc>], level: &mut [i32], source: usize, sink: usize) -> bool {
    level.iter_mut().for_each(|l| *l = -1);
    level[source] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for arc in &arcs[u] {
            if arc.residual > FLOW_EPS && level[arc.to] < 0 {
                level[arc.to] = level[u] + 1;
                queue.push_back(arc.to);
            }
        }
    }
    level[sink] >= 0
}

fn augment(
    arcs: &mut [Vec<Arc>],
    level: &mut [i32],
    cursor: &mut [usize],
    source: usize,
    sink: usize,
    limit: f64,
) -> f64 {
    let mut total = 0.0;
    loop {
        if total >= limit {
            return total;
        }
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut u = source;
        let found = loop {
            if u == sink {
                break true;
            }
            let mut advanced = false;
            while cursor[u] < arcs[u].len() {
                let arc = &arcs[u][cursor[u]];
                if arc.residual > FLOW_EPS && level[arc.to] == level[u] + 1 {
                    path.push((u, cursor[u]));
                    u = arc.to;
                    advanced = true;
                    break;
                }
                cursor[u] += 1;
            }
            if !advanced {
                if let Some(&(prev, _)) = path.last() {
                    level[u] = -1;
                    path.pop();
                    cursor[prev] += 1;
                    u = prev;
                } else {
                    break false;
                }
            }
        };
        if !found {
            return total;
        }
        let mut bottleneck = f64::INFINITY;
        for &(u, a) in &path {
            bottleneck = bottleneck.min(arcs[u][a].residual);
        }
        for &(u, a) in &path {
            let (to, rev) = (arcs[u][a].to, arcs[u][a].rev);
            arcs[u][a].residual -= bottleneck;
            arcs[to][rev].residual += bottleneck;
        }
        total += bottleneck;
    }
}
