//! Property-based tests (proptest) on the core invariants, exercised through
//! the public facade API with randomly generated platforms.

use broadcast_trees::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLICE: f64 = 1.0e6;

/// Strategy: a connected random platform described by (nodes, density, seed).
fn platform_strategy() -> impl Strategy<Value = (usize, f64, u64)> {
    (4usize..18, 0.0f64..0.35, any::<u64>())
}

fn make_platform(nodes: usize, density: f64, seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    random_platform(&RandomPlatformConfig::paper(nodes, density), &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every topology-based heuristic returns a spanning tree whose
    /// throughput is positive and never exceeds the MTP optimum.
    #[test]
    fn heuristic_trees_are_valid_and_bounded((nodes, density, seed) in platform_strategy()) {
        let platform = make_platform(nodes, density, seed);
        let optimal = optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration)
            .expect("connected by construction");
        prop_assert!(optimal.throughput > 0.0);
        for kind in [HeuristicKind::PruneSimple, HeuristicKind::PruneDegree, HeuristicKind::GrowTree] {
            let tree = build_structure_with_loads(
                &platform, NodeId(0), kind, CommModel::OnePort, SLICE, Some(&optimal))
                .expect("heuristic succeeds");
            prop_assert!(tree.is_tree());
            let tp = steady_state_throughput(&platform, &tree, CommModel::OnePort, SLICE);
            prop_assert!(tp > 0.0);
            prop_assert!(tp <= optimal.throughput * (1.0 + 1e-6),
                "{:?}: {} > {}", kind, tp, optimal.throughput);
        }
    }

    /// The optimal edge loads returned by the cut-generation solver always
    /// satisfy the one-port constraints and support a per-destination flow
    /// of value TP (max-flow certificate).
    #[test]
    fn optimal_loads_are_port_feasible((nodes, density, seed) in platform_strategy()) {
        let platform = make_platform(nodes, density, seed);
        let optimal = optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration)
            .unwrap();
        for u in platform.nodes() {
            let out: f64 = platform.graph().out_edges(u)
                .map(|e| optimal.edge_load[e.id.index()] * e.payload.link_time(SLICE))
                .sum();
            let inc: f64 = platform.graph().in_edges(u)
                .map(|e| optimal.edge_load[e.id.index()] * e.payload.link_time(SLICE))
                .sum();
            prop_assert!(out <= 1.0 + 1e-6, "out-port violated at {}: {}", u, out);
            prop_assert!(inc <= 1.0 + 1e-6, "in-port violated at {}: {}", u, inc);
        }
        let (w, flow) = optimal.min_destination_flow(&platform, NodeId(0));
        prop_assert!(flow >= optimal.throughput * (1.0 - 1e-5),
            "destination {}: flow {} < TP {}", w, flow, optimal.throughput);
    }

    /// The steady-state period of a tree equals the largest weighted
    /// out-degree of its nodes — the analytic formula the heuristics optimise.
    #[test]
    fn tree_period_equals_max_weighted_out_degree((nodes, density, seed) in platform_strategy()) {
        let platform = make_platform(nodes, density, seed);
        let tree = build_structure(
            &platform, NodeId(0), HeuristicKind::GrowTree, CommModel::OnePort, SLICE)
            .expect("grow tree succeeds");
        let arb = tree.as_arborescence(&platform).unwrap();
        let mut expected: f64 = 0.0;
        for u in platform.nodes() {
            let sum: f64 = arb.child_edges(u).iter()
                .map(|&e| platform.link_time(e, SLICE))
                .sum();
            expected = expected.max(sum);
        }
        let period = steady_state_period(&platform, &tree, CommModel::OnePort, SLICE);
        prop_assert!((period - expected).abs() <= 1e-9 * expected.max(1.0));
    }

    /// Simulating a short pipelined broadcast always completes, delivers all
    /// slices, and the makespan is consistent with the analytic period.
    #[test]
    fn simulation_completes_and_is_bounded((nodes, density, seed) in platform_strategy()) {
        let platform = make_platform(nodes, density, seed);
        let tree = build_structure(
            &platform, NodeId(0), HeuristicKind::PruneDegree, CommModel::OnePort, SLICE)
            .expect("prune degree succeeds");
        let slices = 20usize;
        let spec = MessageSpec::new(slices as f64 * SLICE, SLICE);
        let report = simulate_broadcast(
            &platform, &tree, &spec, &SimulationConfig::new(CommModel::OnePort));
        prop_assert_eq!(report.slices, slices);
        prop_assert!(report.slice_completion.iter().all(|t| t.is_finite()));
        let period = steady_state_period(&platform, &tree, CommModel::OnePort, SLICE);
        // Lower bound: the bottleneck node works for (slices - 1) periods at least.
        prop_assert!(report.makespan + 1e-9 >= period * (slices as f64 - 1.0));
        // Upper bound: fill (at most height * max edge time per level, itself
        // bounded by node_count * period) plus one period per slice.
        let bound = period * (slices as f64 + platform.node_count() as f64);
        prop_assert!(report.makespan <= bound + 1e-9,
            "makespan {} exceeds bound {}", report.makespan, bound);
    }

    /// Relative performance reported by the evaluation harness is always in
    /// (0, 1] under the one-port model.
    #[test]
    fn relative_performance_is_a_valid_ratio((nodes, density, seed) in platform_strategy()) {
        let platform = make_platform(nodes, density, seed);
        let (_, rows) = evaluate_heuristics(
            &platform, NodeId(0), CommModel::OnePort, SLICE,
            &[HeuristicKind::GrowTree, HeuristicKind::Binomial]).unwrap();
        for row in rows {
            prop_assert!(row.relative > 0.0);
            prop_assert!(row.relative <= 1.0 + 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The synthesized periodic schedule is always port-feasible (no node
    /// sends or receives twice within a round under the one-port model, and
    /// it passes the full validator), never beats the LP bound, and its
    /// simulated completion times are exactly periodic: consecutive batches
    /// finish exactly one analytic period apart (to 1e-9).
    #[test]
    fn synthesized_schedules_are_port_feasible_and_periodic(
        (nodes, density, seed) in (4usize..14, 0.0f64..0.35, any::<u64>())
    ) {
        let platform = make_platform(nodes, density, seed);
        let optimal = optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration)
            .expect("connected by construction");
        let schedule = synthesize_schedule(
            &platform, NodeId(0), &optimal, SLICE,
            &SynthesisConfig::with_batch(8))
            .expect("synthesis succeeds");
        prop_assert!(schedule.validate(&platform).is_ok(),
            "validator rejected the schedule: {:?}", schedule.validate(&platform));
        // One-port round feasibility, checked directly against the rounds.
        for round in schedule.rounds() {
            let mut sends = vec![false; platform.node_count()];
            let mut recvs = vec![false; platform.node_count()];
            for &t in &round.transfers {
                let edge = schedule.transfers()[t].edge;
                let u = platform.graph().src(edge);
                let v = platform.graph().dst(edge);
                prop_assert!(!sends[u.index()], "node {} sends twice in a round", u);
                prop_assert!(!recvs[v.index()], "node {} receives twice in a round", v);
                sends[u.index()] = true;
                recvs[v.index()] = true;
            }
        }
        // The schedule realises at most the LP optimum.
        prop_assert!(schedule.throughput() <= optimal.throughput * (1.0 + 1e-6),
            "schedule {} beats the LP bound {}", schedule.throughput(), optimal.throughput);
        // Simulated completions are exactly periodic with the analytic period.
        let batch = schedule.slices_per_period();
        let spec = MessageSpec::new(4.0 * batch as f64 * SLICE, SLICE);
        let report = simulate_schedule(&platform, &schedule, &spec);
        for k in 0..report.slices - batch {
            let gap = report.slice_completion[k + batch] - report.slice_completion[k];
            prop_assert!((gap - schedule.period()).abs() <= 1e-9 * schedule.period().max(1.0),
                "slice {}: batch gap {} vs analytic period {}", k, gap, schedule.period());
        }
    }
}
