//! Quickstart: build a broadcast tree on a random heterogeneous platform and
//! compare it to the optimal multiple-tree throughput.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use broadcast_trees::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A random 20-node platform with the paper's Table 2 parameters:
    //    density 0.12, link bandwidths ~ N(100 MB/s, 20 MB/s).
    let mut rng = StdRng::seed_from_u64(42);
    let platform = random_platform(&RandomPlatformConfig::paper(20, 0.12), &mut rng);
    let source = NodeId(0);
    let slice = 1.0e6; // 1 MB slices

    println!(
        "platform: {} processors, {} directed links, density {:.3}",
        platform.node_count(),
        platform.edge_count(),
        platform.density()
    );

    // 2. The optimal Multiple-Tree-Pipelined throughput (the absolute bound).
    let optimal = optimal_throughput(&platform, source, slice, OptimalMethod::CutGeneration)
        .expect("platform is connected");
    println!(
        "optimal MTP throughput: {:.2} slices/s ({:.1} MB/s delivered to every node)",
        optimal.throughput,
        optimal.bandwidth(slice) / 1.0e6
    );

    // 3. Every heuristic of the paper, from best to worst.
    println!(
        "\n{:<24} {:>12} {:>10} {:>6}",
        "heuristic", "slices/s", "relative", "tree?"
    );
    let mut rows = Vec::new();
    for kind in HeuristicKind::ALL {
        let structure = build_structure(&platform, source, kind, CommModel::OnePort, slice)
            .expect("heuristic succeeds");
        let tp = steady_state_throughput(&platform, &structure, CommModel::OnePort, slice);
        rows.push((kind, tp, structure.is_tree()));
    }
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (kind, tp, is_tree) in rows {
        println!(
            "{:<24} {:>12.2} {:>9.1}% {:>6}",
            kind.label(),
            tp,
            100.0 * tp / optimal.throughput,
            if is_tree { "yes" } else { "no" }
        );
    }

    // 4. Validate the best heuristic with the discrete-event simulator.
    let tree = build_structure(
        &platform,
        source,
        HeuristicKind::GrowTree,
        CommModel::OnePort,
        slice,
    )
    .unwrap();
    let spec = MessageSpec::new(100.0e6, slice); // 100 MB message in 1 MB slices
    let report = simulate_broadcast(&platform, &tree, &spec, CommModel::OnePort);
    println!(
        "\nsimulated broadcast of 100 MB: makespan {:.3} s, steady-state {:.2} slices/s \
         (analytic {:.2})",
        report.makespan,
        report.estimated_throughput(),
        steady_state_throughput(&platform, &tree, CommModel::OnePort, slice)
    );
}
