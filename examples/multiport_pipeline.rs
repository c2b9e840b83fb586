//! One-port vs multi-port broadcasting (the paper's Section 3.2 / Figure 5
//! scenario), plus the effect of the slice size on the end-to-end time of a
//! finite message.
//!
//! The multi-port model lets a sender overlap the link occupations of its
//! outgoing messages (only the per-message overhead `send_u` serialises), so
//! wide trees become attractive again. The example also shows the classic
//! pipelining trade-off: large slices waste pipeline fill time, tiny slices
//! pay per-slice overheads (here modelled by a per-link latency).
//!
//! ```text
//! cargo run --release --example multiport_pipeline
//! ```

use broadcast_trees::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2005);
    // A 25-node random platform with a small per-link latency so that the
    // slice-size trade-off is visible.
    let config = RandomPlatformConfig {
        latency: 1.0e-3,
        ..RandomPlatformConfig::paper(25, 0.12)
    };
    let one_port = random_platform(&config, &mut rng);
    let multi_port = one_port.with_multiport_overheads(0.8, 1.0e6);
    let source = NodeId(0);
    let slice = 1.0e6;

    // --- one-port vs multi-port steady state -----------------------------
    let optimal = optimal_throughput(&one_port, source, slice, OptimalMethod::CutGeneration)
        .expect("connected platform");
    println!("one-port MTP optimum: {:.2} slices/s", optimal.throughput);
    println!(
        "\n{:<26} {:>12} {:>12}",
        "tree built for / eval under", "one-port", "multi-port"
    );
    for kind in [
        HeuristicKind::GrowTree,
        HeuristicKind::PruneDegree,
        HeuristicKind::Binomial,
    ] {
        let tree_one = build_structure(&one_port, source, kind, CommModel::OnePort, slice).unwrap();
        let tree_multi =
            build_structure(&multi_port, source, kind, CommModel::MultiPort, slice).unwrap();
        let tp_one = steady_state_throughput(&one_port, &tree_one, CommModel::OnePort, slice);
        let tp_multi =
            steady_state_throughput(&multi_port, &tree_multi, CommModel::MultiPort, slice);
        println!("{:<26} {:>12.2} {:>12.2}", kind.label(), tp_one, tp_multi);
    }
    println!(
        "\n(multi-port ratios above the one-port optimum are expected: the optimum is\n\
         computed under the stricter one-port rules, exactly as in the paper's Figure 5)"
    );

    // --- slice-size trade-off for a 200 MB message -----------------------
    let tree = build_structure(
        &one_port,
        source,
        HeuristicKind::GrowTree,
        CommModel::OnePort,
        slice,
    )
    .unwrap();
    println!("\nslice size vs completion time of a 200 MB broadcast (Grow Tree, one-port):");
    println!(
        "{:>12} {:>10} {:>16}",
        "slice (MB)", "slices", "completion (s)"
    );
    for &slice_mb in &[0.125f64, 0.5, 1.0, 4.0, 16.0, 64.0, 200.0] {
        let spec = MessageSpec::new(200.0e6, slice_mb * 1.0e6);
        let report = simulate_broadcast(&one_port, &tree, &spec, CommModel::OnePort);
        println!(
            "{:>12.3} {:>10} {:>16.3}",
            slice_mb,
            spec.slice_count(),
            report.makespan
        );
    }
    println!("\nmoderate slices win: huge slices lose the pipelining, tiny slices pay latency.");
}
