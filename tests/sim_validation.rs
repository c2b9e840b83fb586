//! Validation of the discrete-event simulator against the closed-form
//! steady-state analysis, across heuristics, platforms and port models.

use broadcast_trees::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLICE: f64 = 1.0e6;

/// The simulated steady-state period of a *tree* must match the analytic
/// `max weighted out-degree` formula to within a small relative error.
#[test]
fn simulated_period_matches_analytic_one_port() {
    let mut rng = StdRng::seed_from_u64(7);
    for &nodes in &[8usize, 15, 25] {
        let platform = random_platform(&RandomPlatformConfig::paper(nodes, 0.15), &mut rng);
        for kind in [
            HeuristicKind::GrowTree,
            HeuristicKind::PruneDegree,
            HeuristicKind::PruneSimple,
        ] {
            let tree =
                build_structure(&platform, NodeId(0), kind, CommModel::OnePort, SLICE).unwrap();
            let analytic = steady_state_period(&platform, &tree, CommModel::OnePort, SLICE);
            let spec = MessageSpec::new(300.0 * SLICE, SLICE);
            let report = simulate_broadcast(&platform, &tree, &spec, CommModel::OnePort);
            let simulated = report.estimated_period();
            let rel_err = (simulated - analytic).abs() / analytic;
            assert!(
                rel_err < 0.02,
                "{kind:?} on {nodes} nodes: simulated {simulated} vs analytic {analytic}"
            );
        }
    }
}

/// The same check under the multi-port model, for every spanning-tree
/// heuristic. The binomial overlay is left out: it is not a tree.
#[test]
fn simulated_period_matches_analytic_multi_port() {
    let mut rng = StdRng::seed_from_u64(8);
    let platform = random_platform(&RandomPlatformConfig::paper(15, 0.15), &mut rng)
        .with_multiport_overheads(0.8, SLICE);
    for kind in HeuristicKind::ALL {
        if kind == HeuristicKind::Binomial {
            continue;
        }
        let tree =
            build_structure(&platform, NodeId(0), kind, CommModel::MultiPort, SLICE).unwrap();
        let analytic = steady_state_period(&platform, &tree, CommModel::MultiPort, SLICE);
        let spec = MessageSpec::new(300.0 * SLICE, SLICE);
        let report = simulate_broadcast(&platform, &tree, &spec, CommModel::MultiPort);
        let simulated = report.estimated_period();
        let rel_err = (simulated - analytic).abs() / analytic;
        assert!(
            rel_err < 0.02,
            "{kind:?}, multi-port: simulated {simulated} vs analytic {analytic}"
        );
    }
}

/// The simulator never beats the analytic steady state (it also pays the
/// pipeline fill), and pipelining always beats the atomic broadcast for
/// multi-slice messages.
#[test]
fn simulation_bounds_are_consistent() {
    let mut rng = StdRng::seed_from_u64(9);
    let platform = random_platform(&RandomPlatformConfig::paper(12, 0.2), &mut rng);
    let tree = build_structure(
        &platform,
        NodeId(0),
        HeuristicKind::GrowTree,
        CommModel::OnePort,
        SLICE,
    )
    .unwrap();
    let total = 50.0 * SLICE;
    let spec = MessageSpec::new(total, SLICE);
    let report = simulate_broadcast(&platform, &tree, &spec, CommModel::OnePort);
    let period = steady_state_period(&platform, &tree, CommModel::OnePort, SLICE);
    // Lower bound: the source alone needs (slices - 1) periods plus the time
    // of the first slice to reach the farthest node.
    assert!(report.makespan >= period * (spec.slice_count() as f64 - 1.0) - 1e-9);
    // Pipelining the 50 slices beats sending the whole message atomically.
    let atomic = sta_makespan(&platform, &tree, total).unwrap();
    assert!(report.makespan < atomic);
    // The analytic completion-time model is close to the simulation.
    let predicted = pipelined_completion_time(&platform, &tree, CommModel::OnePort, &spec);
    let rel_err = (predicted - report.makespan).abs() / report.makespan;
    assert!(
        rel_err < 0.05,
        "predicted {predicted} vs simulated {}",
        report.makespan
    );
}

/// The binomial overlay (not a tree) still delivers every slice to every
/// node in the simulator.
#[test]
fn binomial_overlay_simulates_correctly() {
    let mut rng = StdRng::seed_from_u64(10);
    let platform = random_platform(&RandomPlatformConfig::paper(17, 0.1), &mut rng);
    let overlay = build_structure(
        &platform,
        NodeId(0),
        HeuristicKind::Binomial,
        CommModel::OnePort,
        SLICE,
    )
    .unwrap();
    let spec = MessageSpec::new(30.0 * SLICE, SLICE);
    let report = simulate_broadcast(&platform, &overlay, &spec, CommModel::OnePort);
    assert_eq!(report.slices, 30);
    assert!(report.slice_completion.iter().all(|t| t.is_finite()));
    assert!(report.makespan > 0.0);
}
