//! The tie-break of the timetable's edge-block scan, against the reference
//! (`reference/mod.rs`). The list timetable scans one block per edge and
//! places the picked block's first pending transfer. That is the transfer
//! a scan over every transfer picks only because a candidate that ties the
//! best one within the timetable tolerance never replaces it and the
//! blocks keep the sort's order. Drift and churn walks rarely tie exactly,
//! so this file builds `ScheduleParts` by hand on complete 8-node
//! platforms that tie on purpose, re-assembles them with
//! `PeriodicSchedule::from_parts` and compares the transfers (edge, slice,
//! lag, start and finish), the period, the largest lag, every node's port
//! utilisation and the matching rounds with the reference, bit for bit,
//! at batches of 1, 8 and 96 slices:
//!
//! - every link has the same cost, so every priority key ties;
//! - the link times are spread by less than the tolerance, so the sort
//!   separates edges that the priority treats as tied;
//! - two edges share one exact link time, so the sort puts their blocks
//!   side by side, ordered by edge.

mod reference;

use bcast_net::EdgeId;
use bcast_platform::{LinkCost, Platform};
use bcast_sched::{PeriodicSchedule, RoundedLoads, ScheduleParts};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const SLICE: f64 = 1.0e6;
const NODES: usize = 8;
/// The timetable's tolerance on start and finish times, in seconds.
const TIME_TOL: f64 = 1e-9;
/// The batches every platform is assembled at; 96 is the cap
/// `from_parts` accepts.
const BATCHES: [usize; 3] = [1, 8, 96];

/// A complete platform on `NODES` nodes whose link `u → v` costs
/// `cost(u, v)`, and `ids[u][v]`, the edge id of `u → v`.
fn complete(cost: impl Fn(usize, usize) -> LinkCost) -> (Platform, Vec<Vec<EdgeId>>) {
    let mut builder = Platform::builder();
    let nodes = builder.add_processors(NODES);
    let mut ids = vec![vec![EdgeId(u32::MAX); NODES]; NODES];
    for u in 0..NODES {
        for v in (0..NODES).filter(|&v| v != u) {
            ids[u][v] = builder.add_link(nodes[u], nodes[v], cost(u, v));
        }
    }
    (builder.build(), ids)
}

/// `batch` spanning arborescences rooted at node 0, each listed parent
/// before child: the chain `0 → 1 → … → 7`, the star from node 0, then
/// random trees (a random node order, each node hanging from a random
/// earlier one).
fn trees(ids: &[Vec<EdgeId>], batch: usize, rng: &mut StdRng) -> Vec<Vec<EdgeId>> {
    (0..batch)
        .map(|j| match j {
            0 => (1..NODES).map(|v| ids[v - 1][v]).collect(),
            1 => (1..NODES).map(|v| ids[0][v]).collect(),
            _ => {
                let mut order: Vec<usize> = (1..NODES).collect();
                order.shuffle(rng);
                let mut reached = vec![0];
                order
                    .into_iter()
                    .map(|v| {
                        let u = reached[rng.gen_range(0..reached.len())];
                        reached.push(v);
                        ids[u][v]
                    })
                    .collect()
            }
        })
        .collect()
}

/// Parts broadcasting from node 0 along `trees`, each edge's multiplicity
/// its use.
fn parts(platform: &Platform, trees: Vec<Vec<EdgeId>>) -> ScheduleParts {
    let m = platform.edge_count();
    let mut multiplicity = vec![0u32; m];
    for &e in trees.iter().flatten() {
        multiplicity[e.index()] += 1;
    }
    ScheduleParts {
        source: 0,
        slice_size: SLICE,
        lp_throughput: 1.0,
        rounding: RoundedLoads {
            slices_per_period: trees.len(),
            multiplicity,
            ideal_period: 1.0,
            loss_bound: 0.0,
            repairs: 0,
            dominated: vec![false; m],
        },
        trees,
    }
}

/// A transfer as plain bits: edge, slice, lag, start and finish.
type TransferBits = (EdgeId, usize, usize, u64, u64);

fn bits(edge: EdgeId, slice: usize, lag: usize, start: f64, finish: f64) -> TransferBits {
    (edge, slice, lag, start.to_bits(), finish.to_bits())
}

/// Re-assembles `parts` on `platform` and asserts that the schedule is
/// valid and is the reference timetable of the parts, bit for bit.
fn assert_matches_reference(platform: &Platform, parts: &ScheduleParts, what: &str) {
    let schedule = PeriodicSchedule::from_parts(platform, parts)
        .unwrap_or_else(|e| panic!("{what}: parts rejected: {e}"));
    schedule
        .validate(platform)
        .unwrap_or_else(|e| panic!("{what}: invalid schedule: {e}"));
    let reference = reference::assemble(platform, parts);
    let transfers: Vec<TransferBits> = schedule
        .transfers()
        .iter()
        .map(|t| bits(t.edge, t.slice, t.lag, t.start, t.finish))
        .collect();
    let expected: Vec<TransferBits> = reference
        .transfers
        .iter()
        .map(|t| bits(t.edge, t.slice, t.lag, t.start, t.finish))
        .collect();
    assert_eq!(transfers, expected, "{what}: transfers");
    assert_eq!(
        schedule.period().to_bits(),
        reference.period.to_bits(),
        "{what}: period"
    );
    assert_eq!(schedule.max_lag(), reference.max_lag, "{what}: max_lag");
    for u in platform.nodes() {
        let (send, recv) = schedule.port_utilisation(platform, u);
        let busy = (
            reference.send_busy[u.index()],
            reference.recv_busy[u.index()],
        );
        let expected = if reference.period > 0.0 {
            (busy.0 / reference.period, busy.1 / reference.period)
        } else {
            (0.0, 0.0)
        };
        assert_eq!(
            (send.to_bits(), recv.to_bits()),
            (expected.0.to_bits(), expected.1.to_bits()),
            "{what}: port utilisation of {u}"
        );
    }
    assert_eq!(
        schedule.rounds(platform),
        reference.rounds,
        "{what}: rounds"
    );
}

/// Checks the parts of each batch in [`BATCHES`] on `platform`.
fn check_batches(platform: &Platform, ids: &[Vec<EdgeId>], what: &str, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for batch in BATCHES {
        let parts = parts(platform, trees(ids, batch, &mut rng));
        assert_matches_reference(platform, &parts, &format!("{what}, batch {batch}"));
    }
}

/// Every link time of `platform` for one slice.
fn link_times(platform: &Platform) -> Vec<f64> {
    platform
        .edges()
        .map(|e| platform.link_time(e, SLICE))
        .collect()
}

#[test]
fn equal_link_costs_tie_every_key() {
    let (platform, ids) = complete(|_, _| LinkCost::from_bandwidth(1.0e8));
    let times = link_times(&platform);
    assert!(times.iter().all(|t| t.to_bits() == times[0].to_bits()));
    check_batches(&platform, &ids, "equal costs", 1);
}

#[test]
fn link_times_spread_within_the_tolerance_tie() {
    // Latency (8u + v) × 1e-11 s on u → v: 61e-11 s between the extremes.
    let (platform, ids) =
        complete(|u, v| LinkCost::one_port((u * NODES + v) as f64 * 1.0e-11, 1.0e-8));
    let times = link_times(&platform);
    let lo = times.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = times.iter().copied().fold(0.0f64, f64::max);
    assert!(hi > lo && hi - lo < TIME_TOL, "spread {}", hi - lo);
    check_batches(&platform, &ids, "spread within the tolerance", 2);
}

#[test]
fn two_edges_sharing_one_exact_link_time_stay_two_blocks() {
    // Every link has its own bandwidth but 3 → 4, which copies 2 → 3's;
    // both lie on the chain every batch packs first.
    let bandwidth = |u: usize, v: usize| {
        let k = if (u, v) == (3, 4) {
            2 * NODES + 3
        } else {
            u * NODES + v
        };
        1.0e8 * (1.0 + 0.01 * k as f64)
    };
    let (platform, ids) = complete(|u, v| LinkCost::from_bandwidth(bandwidth(u, v)));
    let times = link_times(&platform);
    let shared = times[ids[2][3].index()];
    let sharing: Vec<EdgeId> = platform
        .edges()
        .filter(|e| times[e.index()].to_bits() == shared.to_bits())
        .collect();
    assert_eq!(sharing, vec![ids[2][3], ids[3][4]]);
    let mut distinct: Vec<u64> = times.iter().map(|t| t.to_bits()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), times.len() - 1, "one shared link time");
    check_batches(&platform, &ids, "two edges share a link time", 3);
}
