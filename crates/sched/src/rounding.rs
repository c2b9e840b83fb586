//! Rationalisation of the LP edge loads into integer per-period
//! multiplicities, with a guaranteed throughput-loss bound.
//!
//! ## The rounding and its loss bound
//!
//! The optimal solution of the throughput LP assigns every platform edge a
//! fractional load `n_e` (slices per time unit) with optimal throughput
//! `TP`. A periodic schedule needs integers: we pick a batch size `B`
//! (slices per period) and round every edge up to
//!
//! ```text
//!   c_e = ⌈ n_e · B / TP ⌉ .
//! ```
//!
//! Rounding **up** keeps every source→destination cut at integer capacity
//! at least `B` (each cut has fractional capacity ≥ `B` before rounding and
//! the ceiling only adds), so by max-flow/min-cut — and, constructively, by
//! Edmonds' arborescence-packing theorem — the rounded multigraph still
//! supports broadcasting `B` slices per period.
//!
//! The price is at most one extra slice per support edge and period. With
//! `T_e` the per-slice occupation of edge `e` and
//! `D = max_u max(Σ_out T_e, Σ_in T_e)` (sums over the support edges
//! adjacent to `u`: the one-port [`CommModel::port_period`]), each port's
//! work per period is at most
//!
//! ```text
//!   Σ c_e·T_e  ≤  (B / TP) · Σ n_e·T_e  +  Σ T_e  ≤  B/TP + D ,
//! ```
//!
//! because the LP's one-port constraint bounds `Σ n_e·T_e ≤ 1` per port.
//! Relative to the ideal period `B/TP` the rounding therefore inflates any
//! port's busy time by at most `TP·D/B` — choose `B ≥ TP·D/ε` and the loss
//! is at most `ε`. Unless the caller fixes `B`, [`round_loads`] picks it
//! this way for a fixed `ε` of 2%, clamped to 4 to
//! [`MAX_SLICES_PER_PERIOD`] (96) slices.
//!
//! Floating-point noise in the LP solution can make a ceiling land one unit
//! short of a tight cut. A repair pass therefore checks every destination
//! with one [`MaxFlowSolver`], built once per call: each check is a cold
//! [`solve`](MaxFlowSolver::solve) at the current multiplicities, and while
//! a destination falls short of `B` the pass bumps an edge leaving the
//! [`min_cut_source_side`](MaxFlowSolver::min_cut_source_side), so the
//! packing precondition holds *exactly*.

use crate::error::SchedError;
use bcast_net::maxflow::MaxFlowSolver;
use bcast_net::{EdgeId, NodeId};
use bcast_obs::names;
use bcast_platform::{CommModel, Platform};
use serde::{Deserialize, Serialize};

/// Relative throughput loss the derived batch size aims for: `B` is the
/// smallest batch with `TP·D/B ≤ TARGET_LOSS`, before clamping.
const TARGET_LOSS: f64 = 0.02;

/// Smallest derived batch size.
const MIN_SLICES_PER_PERIOD: usize = 4;

/// Largest derived batch size: the packing's cost grows with `B`. Callers
/// that take a fixed batch from outside the program cap it here too.
pub const MAX_SLICES_PER_PERIOD: usize = 96;

/// Absolute slack subtracted before taking ceilings, so loads that are
/// integral up to LP tolerance (e.g. `2.0000001`) do not round to the next
/// integer. Any resulting under-capacity is fixed by the repair pass.
const CEIL_TOL: f64 = 1e-6;

/// Result of [`round_loads`]: integer per-edge multiplicities for one
/// period of `slices_per_period` slices.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundedLoads {
    /// Batch size `B`: slices broadcast per period.
    pub slices_per_period: usize,
    /// `multiplicity[e]` slice transfers cross edge `e` in every period.
    pub multiplicity: Vec<u32>,
    /// Ideal period `B / TP` in seconds — the period a loss-free
    /// realisation of the LP optimum would achieve for this batch size.
    pub ideal_period: f64,
    /// Guaranteed relative bound on the port-occupation overhead introduced
    /// by the rounding (`TP·D/B` plus the repair term; see module docs).
    pub loss_bound: f64,
    /// Number of capacity bumps the integer-feasibility repair pass needed.
    pub repairs: usize,
    /// Per-edge *dominated* flags: an edge whose single-slice time exceeds
    /// the whole ideal period while the LP only parks a sub-slice artifact
    /// on it (the soft-failure representation of a drift trace). Dominated
    /// edges are rounded down to zero and avoided by the repair pass; the
    /// incremental re-synthesis also evicts previous trees that use one.
    pub dominated: Vec<bool>,
}

/// Rounds the fractional edge loads `loads` (with optimal throughput
/// `throughput`) into integer per-period multiplicities such that every
/// destination admits an integral flow of `B` slices from `source`. `B` is
/// `slices_per_period` when given (at least 1), else derived from the 2%
/// loss target (see the module docs).
pub fn round_loads(
    platform: &Platform,
    source: NodeId,
    loads: &[f64],
    throughput: f64,
    slice_size: f64,
    slices_per_period: Option<usize>,
) -> Result<RoundedLoads, SchedError> {
    let _span = bcast_obs::span!(names::SPAN_SCHED_ROUND);
    let m = platform.edge_count();
    if loads.len() != m {
        return Err(SchedError::LoadVectorMismatch {
            expected: m,
            found: loads.len(),
        });
    }
    if !(throughput.is_finite() && throughput > 0.0) {
        return Err(SchedError::NonPositiveThroughput);
    }

    // Support edges and the worst port occupation D over them.
    let support_tol = 1e-9 * throughput;
    let support: Vec<bool> = loads.iter().map(|&l| l > support_tol).collect();
    let graph = platform.graph();
    let worst_port_time = platform
        .nodes()
        .map(|u| {
            let edges = graph.out_edges(u).chain(graph.in_edges(u));
            let on = edges.filter(|e| support[e.id.index()]).map(|e| e.id);
            CommModel::OnePort.port_period(platform, u, on, slice_size)
        })
        .fold(0.0, f64::max);
    let mut max_edge_time: f64 = 0.0;
    for e in platform.edges() {
        if support[e.index()] {
            max_edge_time = max_edge_time.max(platform.link_time(e, slice_size));
        }
    }

    let batch = match slices_per_period {
        Some(b) => b.max(1),
        None => {
            let needed = (throughput * worst_port_time / TARGET_LOSS).ceil();
            let needed = if needed.is_finite() {
                needed as usize
            } else {
                usize::MAX
            };
            needed.clamp(MIN_SLICES_PER_PERIOD, MAX_SLICES_PER_PERIOD)
        }
    };
    // Slices-per-load scale factor and the ideal period `B/TP` are the
    // same number (one in slices per load unit, one in seconds); computed
    // once here, reused in the result below.
    let scale = batch as f64 / throughput;
    let ideal_period = scale;
    // An edge whose single-slice time exceeds the whole ideal period can
    // only hurt: scheduling even one slice on it makes the period at least
    // that time. Soft-failed links of a drift trace (cost scaled by ~1e6)
    // are the motivating case — the LP parks a numerically tiny load on
    // them, and ceiling that artifact to one real slice per period would
    // inflate the period a million-fold. Such edges are *dominated*: their
    // sub-slice capacity is rounded down instead of up, and the max-flow
    // repair pass below restores any lost cut capacity through faster
    // edges (it only falls back to a dominated edge when no alternative
    // crossing edge exists).
    let dominated: Vec<bool> = (0..m)
        .map(|e| {
            let ideal = loads[e] * scale;
            ideal < 1.0 && platform.link_time(EdgeId(e as u32), slice_size) > ideal_period
        })
        .collect();
    let mut multiplicity: Vec<u32> = loads
        .iter()
        .enumerate()
        .map(|(e, &l)| {
            let ideal = l * scale;
            if ideal <= CEIL_TOL || dominated[e] {
                0
            } else {
                (ideal - CEIL_TOL).ceil().max(1.0) as u32
            }
        })
        .collect();

    // Repair pass: every destination must admit an integral flow of `batch`.
    let mut solver = MaxFlowSolver::new(graph);
    let mut maxflows = 0u64;
    let mut repairs = 0usize;
    for w in platform.nodes().filter(|&w| w != source) {
        loop {
            let flow = solver.solve(source, w, |e| f64::from(multiplicity[e.index()]));
            maxflows += 1;
            if flow.round() as i64 >= batch as i64 {
                break;
            }
            // Bump the crossing edge that was rounded down the most (the
            // ceiling tolerance is the usual culprit); break ties by edge
            // id. Dominated (slower-than-the-period) edges are a last
            // resort: a fast edge is bumped whenever one crosses the cut,
            // no matter the deficits.
            let side = solver.min_cut_source_side(source);
            let mut best: Option<(bool, f64, usize)> = None;
            for e in graph.edges() {
                if side[e.src.index()] && !side[e.dst.index()] {
                    let fast = !dominated[e.id.index()];
                    let deficit =
                        loads[e.id.index()] * scale - f64::from(multiplicity[e.id.index()]);
                    let better = match best {
                        None => true,
                        Some((best_fast, best_deficit, _)) => {
                            (fast && !best_fast)
                                || (fast == best_fast && deficit > best_deficit + 1e-12)
                        }
                    };
                    if better {
                        best = Some((fast, deficit, e.id.index()));
                    }
                }
            }
            let Some((_, _, e)) = best else {
                bcast_obs::counter_add(names::SCHED_MAXFLOWS, maxflows);
                return Err(SchedError::Unreachable { source });
            };
            multiplicity[e] += 1;
            repairs += 1;
        }
    }
    bcast_obs::counter_add(names::SCHED_MAXFLOWS, maxflows);

    let loss_bound = throughput * (worst_port_time + repairs as f64 * max_edge_time) / batch as f64;
    Ok(RoundedLoads {
        slices_per_period: batch,
        multiplicity,
        ideal_period,
        loss_bound,
        repairs,
        dominated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_core::{optimal_throughput, OptimalMethod};
    use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
    use bcast_platform::LinkCost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chain_loads_round_exactly() {
        // 0 -> 1 -> 2 over unit links: TP = 1, n_e = 1 on both chain edges.
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[1], p[2], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let o =
            optimal_throughput(&platform, NodeId(0), 1.0, OptimalMethod::CutGeneration).unwrap();
        let r = round_loads(
            &platform,
            NodeId(0),
            &o.edge_load,
            o.throughput,
            1.0,
            Some(8),
        )
        .unwrap();
        assert_eq!(r.slices_per_period, 8);
        assert_eq!(r.multiplicity, vec![8, 8]);
        assert_eq!(r.repairs, 0);
        assert!((r.ideal_period - 8.0).abs() < 1e-9);
    }

    #[test]
    fn every_destination_supports_an_integral_batch_flow() {
        let mut rng = StdRng::seed_from_u64(31);
        let platform = random_platform(&RandomPlatformConfig::paper(16, 0.12), &mut rng);
        let o =
            optimal_throughput(&platform, NodeId(0), 1.0e6, OptimalMethod::CutGeneration).unwrap();
        let r = round_loads(
            &platform,
            NodeId(0),
            &o.edge_load,
            o.throughput,
            1.0e6,
            None,
        )
        .unwrap();
        let b = r.slices_per_period as f64;
        let mut solver = MaxFlowSolver::new(platform.graph());
        for w in platform.nodes().filter(|&w| w != NodeId(0)) {
            let flow = solver.solve(NodeId(0), w, |e| f64::from(r.multiplicity[e.index()]));
            assert!(
                flow.round() >= b,
                "destination {w}: integral flow {flow} < batch {b}"
            );
        }
        assert!(r.loss_bound >= 0.0 && r.loss_bound < 0.5);
    }

    #[test]
    fn derived_batch_size_respects_the_target_loss() {
        // A unit chain has TP·D = 1: B = 1 / 2% = 50 lies inside the clamp
        // range, and the bound is the target itself.
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[1], p[2], LinkCost::one_port(0.0, 1.0));
        let chain = b.build();
        let r = round_loads(&chain, NodeId(0), &[1.0, 1.0], 1.0, 1.0, None).unwrap();
        assert_eq!(r.slices_per_period, 50);
        assert!(r.loss_bound <= TARGET_LOSS + 1e-9, "{}", r.loss_bound);

        // On this random platform the target needs more than 96 slices, so
        // the batch stops at the clamp.
        let mut rng = StdRng::seed_from_u64(32);
        let platform = random_platform(&RandomPlatformConfig::paper(10, 0.2), &mut rng);
        let o =
            optimal_throughput(&platform, NodeId(0), 1.0e6, OptimalMethod::CutGeneration).unwrap();
        let r = round_loads(
            &platform,
            NodeId(0),
            &o.edge_load,
            o.throughput,
            1.0e6,
            None,
        )
        .unwrap();
        assert!((MIN_SLICES_PER_PERIOD..=MAX_SLICES_PER_PERIOD).contains(&r.slices_per_period));
        assert!(
            r.loss_bound <= TARGET_LOSS + 1e-9
                || r.repairs > 0
                || r.slices_per_period == MAX_SLICES_PER_PERIOD,
            "loss bound {} exceeds target",
            r.loss_bound
        );
    }

    #[test]
    fn repair_bumps_a_fast_crossing_edge_before_a_dominated_one() {
        // 0 -> 1 -> 2 over unit links plus a slow 0 -> 2 shortcut. At
        // B = 4 the ceilings give 4 and 3 on the chain and the shortcut's
        // 0.8 slices round down (its 10 s per slice exceeds the 4 s ideal
        // period), so node 2 is one unit short. Both 1 -> 2 and 0 -> 2
        // cross the cut; the fast one is bumped although the slow one was
        // rounded down more.
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[1], p[2], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[0], p[2], LinkCost::one_port(0.0, 10.0));
        let platform = b.build();
        let r = round_loads(&platform, NodeId(0), &[1.0, 0.6, 0.2], 1.0, 1.0, Some(4)).unwrap();
        assert_eq!(r.dominated, vec![false, false, true]);
        assert_eq!(r.repairs, 1);
        assert_eq!(r.multiplicity, vec![4, 4, 0]);

        // With no fast edge across the cut, the dominated one is bumped up
        // to the full batch.
        let mut b = Platform::builder();
        let p = b.add_processors(2);
        b.add_link(p[0], p[1], LinkCost::one_port(0.0, 10.0));
        let platform = b.build();
        let r = round_loads(&platform, NodeId(0), &[0.2], 1.0, 1.0, Some(4)).unwrap();
        assert_eq!(r.repairs, 4);
        assert_eq!(r.multiplicity, vec![4]);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let mut b = Platform::builder();
        let p = b.add_processors(2);
        b.add_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        assert_eq!(
            round_loads(&platform, NodeId(0), &[], 1.0, 1.0, None),
            Err(SchedError::LoadVectorMismatch {
                expected: 1,
                found: 0
            })
        );
        assert_eq!(
            round_loads(&platform, NodeId(0), &[1.0], f64::INFINITY, 1.0, None),
            Err(SchedError::NonPositiveThroughput)
        );
    }
}
