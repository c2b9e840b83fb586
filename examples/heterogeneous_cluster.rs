//! A hand-modelled heterogeneous cluster: two racks of fast machines behind
//! a slow inter-rack uplink, plus a handful of lab workstations on 100 Mb/s
//! Ethernet. The example shows why topology-aware broadcast trees matter:
//! the MPI-style binomial tree repeatedly crosses the slow links, while the
//! paper's heuristics relay through the fast racks.
//!
//! ```text
//! cargo run --release --example heterogeneous_cluster
//! ```

use broadcast_trees::prelude::*;

/// Builds the cluster: node 0 is the head node (broadcast source).
fn build_cluster() -> Platform {
    let gb = 1.0e9 / 8.0; // 1 Gb/s in bytes/s
    let fast = LinkCost::from_bandwidth(10.0 * gb); // intra-rack 10 Gb/s
    let uplink = LinkCost::from_bandwidth(gb); // rack uplink 1 Gb/s
    let ethernet = LinkCost::from_bandwidth(gb / 10.0); // workstations 100 Mb/s

    let mut b = Platform::builder();
    let head = b.add_processor("head");
    // Rack A: 6 nodes, full bisection inside the rack.
    let rack_a: Vec<NodeId> = (0..6)
        .map(|i| b.add_processor(format!("rackA{i}")))
        .collect();
    // Rack B: 6 nodes.
    let rack_b: Vec<NodeId> = (0..6)
        .map(|i| b.add_processor(format!("rackB{i}")))
        .collect();
    // Workstations: 4 nodes.
    let stations: Vec<NodeId> = (0..4).map(|i| b.add_processor(format!("ws{i}"))).collect();

    for rack in [&rack_a, &rack_b] {
        for i in 0..rack.len() {
            for j in (i + 1)..rack.len() {
                b.add_bidirectional_link(rack[i], rack[j], fast);
            }
        }
    }
    // Head node is in rack A's switch and uplinks to rack B.
    for &n in &rack_a {
        b.add_bidirectional_link(head, n, fast);
    }
    b.add_bidirectional_link(head, rack_b[0], uplink);
    b.add_bidirectional_link(rack_a[0], rack_b[1], uplink);
    // Workstations hang off the head node's Ethernet segment and off each other.
    for &w in &stations {
        b.add_bidirectional_link(head, w, ethernet);
    }
    for i in 0..stations.len() {
        for j in (i + 1)..stations.len() {
            b.add_bidirectional_link(stations[i], stations[j], ethernet);
        }
    }
    b.build()
}

fn main() {
    let platform = build_cluster();
    let source = NodeId(0);
    let slice = 4.0e6; // 4 MB slices
    println!(
        "cluster: {} machines, {} directed links",
        platform.node_count(),
        platform.edge_count()
    );

    let optimal = optimal_throughput(&platform, source, slice, OptimalMethod::CutGeneration)
        .expect("connected cluster");
    println!(
        "optimal MTP bound: {:.1} MB/s delivered to every machine\n",
        optimal.bandwidth(slice) / 1.0e6
    );

    println!(
        "{:<24} {:>14} {:>10} {:>14}",
        "heuristic", "steady MB/s", "relative", "100 MB bcast (s)"
    );
    for kind in [
        HeuristicKind::GrowTree,
        HeuristicKind::PruneDegree,
        HeuristicKind::LpGrow,
        HeuristicKind::Binomial,
    ] {
        let structure = build_structure(&platform, source, kind, CommModel::OnePort, slice)
            .expect("heuristic succeeds");
        let spec = MessageSpec::new(100.0e6, slice);
        let bandwidth = steady_state_bandwidth(&platform, &structure, CommModel::OnePort, &spec);
        let report = simulate_broadcast(&platform, &structure, &spec, CommModel::OnePort);
        println!(
            "{:<24} {:>14.1} {:>9.1}% {:>14.3}",
            kind.label(),
            bandwidth / 1.0e6,
            100.0 * steady_state_throughput(&platform, &structure, CommModel::OnePort, slice)
                / optimal.throughput,
            report.makespan
        );
    }

    // Where does the binomial tree lose? Count how many of its transfers
    // cross the slow Ethernet / uplink links.
    let binomial = build_structure(
        &platform,
        source,
        HeuristicKind::Binomial,
        CommModel::OnePort,
        slice,
    )
    .unwrap();
    let grow = build_structure(
        &platform,
        source,
        HeuristicKind::GrowTree,
        CommModel::OnePort,
        slice,
    )
    .unwrap();
    for (name, s) in [("binomial", &binomial), ("grow-tree", &grow)] {
        let slow_edges = s
            .edges()
            .iter()
            .filter(|&&e| platform.link_cost(e).bandwidth() < 0.9e9 / 8.0)
            .count();
        println!(
            "\n{name}: {} edges in the structure, {} of them on slow (<1 Gb/s) links",
            s.edge_count(),
            slow_edges
        );
    }
}
