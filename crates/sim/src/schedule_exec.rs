//! Schedule-driven execution: replays a [`PeriodicSchedule`] slice by slice.
//!
//! [`crate::engine`] simulates a *broadcast structure* (the tree heuristics'
//! output) by emergent event order. A [`PeriodicSchedule`] is the opposite
//! kind of object — an explicit timetable — so its execution mode is a
//! *checked replay*: the schedule is first re-validated against the platform
//! (spanning trees and multiplicities, one transfer per tree edge, port
//! interval disjointness, causality lags; see
//! [`PeriodicSchedule::validate`]), then unrolled period by period. The
//! replay reads each transfer's finish time and lag; the schedule's
//! matching rounds play no part:
//!
//! * in period `p`, the transfer `t` carries slice `(p − t.lag)·B + t.slice`
//!   and completes at `p·P + t.finish`;
//! * batch slice `j` reaches node `v` through the single edge of tree `j`
//!   entering `v`, so every node receives every slice exactly once.
//!
//! The resulting [`SimulationReport`] is directly comparable with the one
//! produced by [`crate::simulate_broadcast`] for a tree on the same
//! platform: same completion-time semantics, same steady-state estimators.

use crate::report::SimulationReport;
use bcast_platform::{MessageSpec, Platform};
use bcast_sched::PeriodicSchedule;

/// Simulates the pipelined broadcast of `spec` by executing `schedule`
/// periodically, and reports completion times and steady-state estimates.
///
/// # Panics
/// Panics when the schedule fails validation against `platform` (which
/// would indicate a bug in the synthesis pipeline) or when `spec`'s slice
/// size differs from the one the schedule was calibrated for.
pub fn simulate_schedule(
    platform: &Platform,
    schedule: &PeriodicSchedule,
    spec: &MessageSpec,
) -> SimulationReport {
    let _span = bcast_obs::span!(bcast_obs::names::SPAN_SIM_REPLAY);
    assert!(
        (spec.slice_size - schedule.slice_size()).abs() <= 1e-9 * schedule.slice_size().max(1.0),
        "message slice size {} differs from the schedule's {}",
        spec.slice_size,
        schedule.slice_size()
    );
    if let Err(error) = schedule.validate(platform) {
        panic!("schedule failed validation: {error}");
    }

    let n = platform.node_count();
    let slices = spec.slice_count();
    let source = schedule.source();
    if n <= 1 {
        return SimulationReport {
            slices,
            slice_completion: vec![0.0; slices],
            node_completion: vec![0.0; n],
            makespan: 0.0,
            transfers: 0,
            events: 0,
        };
    }

    let batch = schedule.slices_per_period();
    let period = schedule.period();
    // arrival[j][v] = (lag, finish offset) of batch slice j at node v.
    let mut arrival: Vec<Vec<(usize, f64)>> = vec![vec![(0, 0.0); n]; batch];
    for t in schedule.transfers() {
        let v = platform.graph().dst(t.edge);
        arrival[t.slice][v.index()] = (t.lag, t.finish);
    }

    let mut slice_completion = vec![0.0f64; slices];
    let mut node_completion = vec![0.0f64; n];
    let mut transfers = 0usize;
    for (k, completion) in slice_completion.iter_mut().enumerate() {
        let q = (k / batch) as f64; // batch (period of injection)
        let j = k % batch; // tree the slice follows
        let mut done: f64 = 0.0;
        for v in platform.nodes() {
            if v == source {
                continue;
            }
            let (lag, finish) = arrival[j][v.index()];
            let at = (q + lag as f64) * period + finish;
            done = done.max(at);
            node_completion[v.index()] = node_completion[v.index()].max(at);
            transfers += 1;
        }
        *completion = done;
    }
    // The source holds everything from the start.
    node_completion[source.index()] = 0.0;
    let makespan = slice_completion.iter().copied().fold(0.0f64, f64::max);
    bcast_obs::counter_add(bcast_obs::names::SIM_TRANSFERS, transfers as u64);
    SimulationReport {
        slices,
        slice_completion,
        node_completion,
        makespan,
        transfers,
        events: transfers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_core::{optimal_throughput, OptimalMethod};
    use bcast_net::NodeId;
    use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
    use bcast_platform::{CommModel, LinkCost};
    use bcast_sched::{synthesize_schedule, SynthesisConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SLICE: f64 = 1.0e6;

    fn schedule_for(platform: &Platform, batch: usize) -> PeriodicSchedule {
        let optimal =
            optimal_throughput(platform, NodeId(0), SLICE, OptimalMethod::CutGeneration).unwrap();
        synthesize_schedule(
            platform,
            NodeId(0),
            &optimal,
            SLICE,
            &SynthesisConfig::with_batch(batch),
        )
        .unwrap()
    }

    #[test]
    fn completions_are_exactly_periodic() {
        let mut rng = StdRng::seed_from_u64(50);
        let platform = random_platform(&RandomPlatformConfig::paper(12, 0.15), &mut rng);
        let schedule = schedule_for(&platform, 8);
        let batch = schedule.slices_per_period();
        let spec = MessageSpec::new(5.0 * batch as f64 * SLICE, SLICE);
        let report = simulate_schedule(&platform, &schedule, &spec);
        assert_eq!(report.slices, 5 * batch);
        for k in 0..report.slices - batch {
            let gap = report.slice_completion[k + batch] - report.slice_completion[k];
            assert!(
                (gap - schedule.period()).abs() <= 1e-9 * schedule.period().max(1.0),
                "slice {k}: gap {gap} vs period {}",
                schedule.period()
            );
        }
    }

    #[test]
    fn simulated_throughput_matches_the_schedule() {
        let mut rng = StdRng::seed_from_u64(51);
        let platform = random_platform(&RandomPlatformConfig::paper(14, 0.12), &mut rng);
        let schedule = schedule_for(&platform, 12);
        let spec = MessageSpec::new(20.0 * 12.0 * SLICE, SLICE);
        let report = simulate_schedule(&platform, &schedule, &spec);
        let simulated = report.batch_throughput(schedule.slices_per_period());
        assert!(
            (simulated - schedule.throughput()).abs() <= 1e-6 * schedule.throughput(),
            "simulated {simulated} vs schedule {}",
            schedule.throughput()
        );
    }

    #[test]
    fn every_node_gets_every_slice_and_makespan_is_consistent() {
        let mut rng = StdRng::seed_from_u64(52);
        let platform = random_platform(&RandomPlatformConfig::paper(10, 0.2), &mut rng);
        let schedule = schedule_for(&platform, 6);
        let spec = MessageSpec::new(18.0 * SLICE, SLICE);
        let report = simulate_schedule(&platform, &schedule, &spec);
        assert_eq!(report.transfers, 18 * (platform.node_count() - 1));
        assert!(report.slice_completion.iter().all(|t| t.is_finite()));
        let max_node = report
            .node_completion
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        assert_eq!(report.makespan, max_node);
        // The makespan is the completion of the slowest slice (slices inside
        // one batch may complete out of order, so it need not be the last).
        let max_slice = report
            .slice_completion
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        assert_eq!(report.makespan, max_slice);
    }

    #[test]
    fn single_node_platform_is_degenerate() {
        let mut b = Platform::builder();
        b.add_processor("only");
        let platform = b.build();
        let optimal =
            optimal_throughput(&platform, NodeId(0), 1.0, OptimalMethod::CutGeneration).unwrap();
        let schedule = synthesize_schedule(
            &platform,
            NodeId(0),
            &optimal,
            1.0,
            &SynthesisConfig::default(),
        )
        .unwrap();
        let report = simulate_schedule(&platform, &schedule, &MessageSpec::new(10.0, 1.0));
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.transfers, 0);
    }

    #[test]
    #[should_panic(expected = "slice size")]
    fn slice_size_mismatch_is_rejected() {
        let mut b = Platform::builder();
        let p = b.add_processors(2);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let optimal =
            optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration).unwrap();
        let schedule = synthesize_schedule(
            &platform,
            NodeId(0),
            &optimal,
            SLICE,
            &SynthesisConfig::default(),
        )
        .unwrap();
        simulate_schedule(&platform, &schedule, &MessageSpec::new(10.0, 2.0));
    }

    #[test]
    fn schedule_beats_every_tree_on_the_slow_cross_triangle() {
        // Source linked to both peers by unit links, peers interconnected by
        // time-2 links. Every spanning tree has period 2 (either a chain
        // relaying over a slow cross link or the star paying 1+1 at the
        // source), so the best tree throughput is 1/2 — while the MTP
        // optimum mixes the two chains and the star to reach 3/4.
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[0], p[2], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 2.0));
        let platform = b.build();
        let optimal =
            optimal_throughput(&platform, NodeId(0), 1.0, OptimalMethod::CutGeneration).unwrap();
        assert!(
            (optimal.throughput - 0.75).abs() < 1e-6,
            "{}",
            optimal.throughput
        );
        let schedule = synthesize_schedule(
            &platform,
            NodeId(0),
            &optimal,
            1.0,
            &SynthesisConfig::with_batch(24),
        )
        .unwrap();
        let spec = MessageSpec::new(240.0, 1.0);
        let report = simulate_schedule(&platform, &schedule, &spec);
        let simulated = report.batch_throughput(schedule.slices_per_period());
        for kind in bcast_core::HeuristicKind::ALL {
            let Ok(tree) =
                bcast_core::build_structure(&platform, NodeId(0), kind, CommModel::OnePort, 1.0)
            else {
                continue;
            };
            let tree_tp =
                bcast_core::steady_state_throughput(&platform, &tree, CommModel::OnePort, 1.0);
            assert!(
                simulated > tree_tp * 1.2,
                "{kind:?}: schedule {simulated} vs tree {tree_tp}"
            );
        }
    }
}
