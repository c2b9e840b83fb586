//! From LP loads to an executable schedule: synthesize the periodic
//! multi-tree schedule for a random platform, inspect its rounds, and
//! verify by simulation that it delivers (almost) the LP-optimal
//! throughput — ahead of every single-tree heuristic.
//!
//! ```text
//! cargo run --release --example schedule_broadcast
//! ```

use broadcast_trees::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let platform = random_platform(&RandomPlatformConfig::paper(20, 0.12), &mut rng);
    let source = NodeId(0);
    let slice = 1.0e6; // 1 MB slices

    // 1. The LP optimum and its per-edge loads.
    let optimal = optimal_throughput(&platform, source, slice, OptimalMethod::CutGeneration)
        .expect("platform is connected");
    println!(
        "platform: {} processors, {} links — LP optimal throughput {:.2} slices/s",
        platform.node_count(),
        platform.edge_count(),
        optimal.throughput
    );

    // 2. The best single-tree heuristic, for contrast.
    let mut best_tree_tp: f64 = 0.0;
    let mut best_kind = HeuristicKind::GrowTree;
    let mut candidates = Vec::new();
    for kind in HeuristicKind::ALL {
        if let Ok(tree) = build_structure_with_loads(
            &platform,
            source,
            kind,
            CommModel::OnePort,
            slice,
            Some(&optimal),
        ) {
            let tp = steady_state_throughput(&platform, &tree, CommModel::OnePort, slice);
            if tp > best_tree_tp {
                best_tree_tp = tp;
                best_kind = kind;
            }
            candidates.push(tree);
        }
    }
    println!(
        "best single tree: {} at {:.2} slices/s ({:.1}% of the LP bound)",
        best_kind.label(),
        best_tree_tp,
        100.0 * best_tree_tp / optimal.throughput
    );

    // 3. Synthesize the periodic schedule from the LP edge loads.
    let schedule = synthesize_schedule_with_tree_fallback(
        &platform,
        source,
        &optimal,
        slice,
        &SynthesisConfig::default(),
        &candidates,
    )
    .expect("synthesis succeeds");
    schedule.validate(&platform).expect("schedule is feasible");
    println!(
        "\nsynthesized schedule: {} slices per period of {:.4} s ({} rounds, pipeline depth {} periods)",
        schedule.slices_per_period(),
        schedule.period(),
        schedule.rounds(&platform).len(),
        schedule.max_lag()
    );
    println!(
        "rounding: guaranteed loss bound {:.1}%, {} capacity repairs",
        100.0 * schedule.rounding().loss_bound,
        schedule.rounding().repairs
    );
    let busiest = platform
        .nodes()
        .max_by(|&a, &b| {
            let (sa, _) = schedule.port_utilisation(&platform, a);
            let (sb, _) = schedule.port_utilisation(&platform, b);
            sa.partial_cmp(&sb).unwrap()
        })
        .unwrap();
    let (send_util, recv_util) = schedule.port_utilisation(&platform, busiest);
    println!(
        "busiest port: {busiest} sends {:.0}% / receives {:.0}% of every period",
        100.0 * send_util,
        100.0 * recv_util
    );

    // 4. Verify by simulation: replay the schedule for many periods.
    let batch = schedule.slices_per_period();
    let spec = MessageSpec::new(8.0 * batch as f64 * slice, slice);
    let report = simulate_schedule(&platform, &schedule, &spec);
    let simulated = report.batch_throughput(batch);
    println!(
        "\nsimulated: {:.2} slices/s — {:.1}% of the LP optimum, {:.2}x the best single tree",
        simulated,
        100.0 * simulated / optimal.throughput,
        simulated / best_tree_tp
    );
    assert!(simulated >= best_tree_tp * (1.0 - 1e-9));
    assert!(simulated >= 0.9 * optimal.throughput);
}
