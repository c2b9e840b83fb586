//! Pruning heuristics (paper Algorithms 1 and 2).
//!
//! Both heuristics start from the full platform graph and delete edges until
//! exactly `|V| − 1` edges remain, always preserving the reachability of
//! every processor from the source (which makes the final edge set a
//! spanning arborescence).
//!
//! * **Simple Platform Pruning** removes the globally heaviest removable
//!   edge first.
//! * **Refined Platform Pruning** removes the heaviest removable edge of the
//!   node whose *weighted out-degree* (one-port) or *node period*
//!   (multi-port) is currently the largest — the quantity that actually
//!   bounds the pipelined throughput.

use crate::error::CoreError;
use crate::tree::BroadcastStructure;
use bcast_net::{traversal, EdgeId, NodeId};
use bcast_platform::{CommModel, Platform};

/// Algorithm 1 — Simple Platform Pruning.
///
/// Edges are examined from heaviest (largest `T_{u,v}`) to lightest; an edge
/// is deleted whenever the remaining graph still reaches every processor
/// from `source`. One pass suffices: deleting edges can only make the
/// surviving ones more critical, so after the pass every remaining edge is
/// critical and the result is a spanning arborescence.
pub fn prune_simple(
    platform: &Platform,
    source: NodeId,
    slice_size: f64,
) -> Result<BroadcastStructure, CoreError> {
    let graph = platform.graph();
    let n = platform.node_count();
    let mut mask = vec![true; platform.edge_count()];
    let mut live = platform.edge_count();

    let mut order: Vec<EdgeId> = platform.edges().collect();
    order.sort_by(|&a, &b| {
        platform
            .link_time(b, slice_size)
            .partial_cmp(&platform.link_time(a, slice_size))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    for e in order {
        if live <= n.saturating_sub(1) {
            break;
        }
        mask[e.index()] = false;
        if traversal::all_reachable_from(graph, source, Some(&mask)) {
            live -= 1;
        } else {
            mask[e.index()] = true;
        }
    }
    let edges: Vec<EdgeId> = platform.edges().filter(|e| mask[e.index()]).collect();
    BroadcastStructure::new(platform, source, edges)
}

/// Algorithm 2 — Refined Platform Pruning (`Topo-Prune-Degree`), and its
/// multi-port variant (`Multiport-Prune-Degree`, paper Section 5.2.2).
///
/// While more than `|V| − 1` edges remain: visit the nodes by non-increasing
/// metric (weighted out-degree for the one-port model, node period for the
/// multi-port model) and delete the heaviest outgoing edge whose removal
/// keeps every processor reachable from the source, then start over.
///
/// Ties go to the smaller node id, then to the smaller edge id. A node's
/// metric depends only on its own live out-edges, so it is computed once
/// per node and, after each deletion, again only for the deleted edge's
/// tail.
pub fn prune_degree(
    platform: &Platform,
    source: NodeId,
    model: CommModel,
    slice_size: f64,
) -> Result<BroadcastStructure, CoreError> {
    let graph = platform.graph();
    let n = platform.node_count();
    let mut mask = vec![true; platform.edge_count()];
    let mut live = platform.edge_count();
    // A node's port period over its live out-edges: the weighted out-degree
    // under the one-port model.
    let metric_of = |mask: &[bool], u: NodeId| {
        let out = graph.out_edges(u).filter(|e| mask[e.id.index()]);
        model.port_period(platform, u, out.map(|e| e.id), slice_size)
    };
    let mut metric: Vec<f64> = platform.nodes().map(|u| metric_of(&mask, u)).collect();

    while live > n.saturating_sub(1) {
        let mut nodes: Vec<NodeId> = platform.nodes().collect();
        nodes.sort_by(|&a, &b| {
            metric[b.index()]
                .partial_cmp(&metric[a.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut deleted = None;
        'nodes: for &u in &nodes {
            let mut out: Vec<EdgeId> = graph
                .out_edges(u)
                .filter(|e| mask[e.id.index()])
                .map(|e| e.id)
                .collect();
            out.sort_by(|&a, &b| {
                platform
                    .link_time(b, slice_size)
                    .partial_cmp(&platform.link_time(a, slice_size))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for e in out {
                mask[e.index()] = false;
                if traversal::all_reachable_from(graph, source, Some(&mask)) {
                    live -= 1;
                    deleted = Some(u);
                    break 'nodes;
                }
                mask[e.index()] = true;
            }
        }
        let Some(tail) = deleted else {
            // No edge can be removed without disconnecting the platform; this
            // can only happen when the graph is already minimal, i.e. a tree.
            break;
        };
        metric[tail.index()] = metric_of(&mask, tail);
    }
    let edges: Vec<EdgeId> = platform.edges().filter(|e| mask[e.index()]).collect();
    BroadcastStructure::new(platform, source, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::steady_state_throughput;
    use bcast_platform::generators::gaussian_field::{gaussian_platform, GaussianPlatformConfig};
    use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
    use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
    use bcast_platform::LinkCost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Refined Platform Pruning as first written: both node metrics are
    /// recomputed from the live out-edges inside every sort comparison.
    /// The reference the incremental [`prune_degree`] must match.
    fn prune_degree_recomputing(
        platform: &Platform,
        source: NodeId,
        model: CommModel,
        slice_size: f64,
    ) -> Vec<EdgeId> {
        let graph = platform.graph();
        let n = platform.node_count();
        let mut mask = vec![true; platform.edge_count()];
        let mut live = platform.edge_count();
        let metric = |mask: &[bool], u: NodeId| {
            let out = graph.out_edges(u).filter(|e| mask[e.id.index()]);
            model.port_period(platform, u, out.map(|e| e.id), slice_size)
        };
        while live > n.saturating_sub(1) {
            let mut nodes: Vec<NodeId> = platform.nodes().collect();
            nodes.sort_by(|&a, &b| {
                metric(&mask, b)
                    .partial_cmp(&metric(&mask, a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let mut deleted = false;
            'nodes: for &u in &nodes {
                let mut out: Vec<EdgeId> = graph
                    .out_edges(u)
                    .filter(|e| mask[e.id.index()])
                    .map(|e| e.id)
                    .collect();
                out.sort_by(|&a, &b| {
                    platform
                        .link_time(b, slice_size)
                        .partial_cmp(&platform.link_time(a, slice_size))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                for e in out {
                    mask[e.index()] = false;
                    if traversal::all_reachable_from(graph, source, Some(&mask)) {
                        live -= 1;
                        deleted = true;
                        break 'nodes;
                    }
                    mask[e.index()] = true;
                }
            }
            if !deleted {
                break;
            }
        }
        platform.edges().filter(|e| mask[e.index()]).collect()
    }

    /// Asserts that [`prune_degree`] picks the reference's edges under both
    /// port models, from two sources.
    fn assert_matches_recomputing(platform: &Platform, label: &str) {
        let multiport = platform.with_multiport_overheads(0.8, 1.0e6);
        for (p, model) in [
            (platform, CommModel::OnePort),
            (&multiport, CommModel::MultiPort),
        ] {
            for source in [NodeId(0), NodeId((p.node_count() / 2) as u32)] {
                let fast = prune_degree(p, source, model, 1.0e6).unwrap();
                let reference = prune_degree_recomputing(p, source, model, 1.0e6);
                assert_eq!(
                    fast.edges(),
                    reference.as_slice(),
                    "{label}, {model:?}, source {source}"
                );
            }
        }
    }

    #[test]
    fn prune_degree_matches_the_recomputing_reference() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let random = random_platform(&RandomPlatformConfig::paper(20, 0.15), &mut rng);
            assert_matches_recomputing(&random, &format!("random seed {seed}"));
            let tiers = tiers_platform(&TiersConfig::paper(30, 0.10), &mut rng);
            assert_matches_recomputing(&tiers, &format!("tiers seed {seed}"));
            let gaussian = gaussian_platform(&GaussianPlatformConfig::paper(20), &mut rng);
            assert_matches_recomputing(&gaussian, &format!("gaussian seed {seed}"));
        }
    }

    #[test]
    fn prune_degree_breaks_metric_ties_by_node_id() {
        // A complete digraph of identical links: every node starts with the
        // same metric and ties recur after each deletion, so every choice
        // falls to the id tie-breaks.
        let mut b = Platform::builder();
        let p = b.add_processors(7);
        for i in 0..p.len() {
            for j in i + 1..p.len() {
                b.add_bidirectional_link(p[i], p[j], LinkCost::one_port(0.0, 1.0));
            }
        }
        let uniform = b.build();
        assert_matches_recomputing(&uniform, "uniform complete graph");
    }

    /// A 4-node platform where the naive "delete the heaviest edges" strategy
    /// and the refined strategy give different trees: node 0 has three cheap
    /// outgoing links (sum 6) while a chain through node 1 uses one medium
    /// link per node.
    fn contrast_platform() -> Platform {
        let mut b = Platform::builder();
        let p = b.add_processors(4);
        // Star out of 0 (cheap individually, expensive in total).
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 2.0)); // e0,e1
        b.add_bidirectional_link(p[0], p[2], LinkCost::one_port(0.0, 2.0)); // e2,e3
        b.add_bidirectional_link(p[0], p[3], LinkCost::one_port(0.0, 2.0)); // e4,e5

        // Chain alternative with medium links.
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 3.0)); // e6,e7
        b.add_bidirectional_link(p[2], p[3], LinkCost::one_port(0.0, 3.0)); // e8,e9
        b.build()
    }

    #[test]
    fn prune_simple_returns_a_spanning_tree() {
        let p = contrast_platform();
        let t = prune_simple(&p, NodeId(0), 1.0).unwrap();
        assert!(t.is_tree());
        t.as_arborescence(&p).unwrap();
    }

    #[test]
    fn prune_simple_deletes_heaviest_edges_first() {
        let p = contrast_platform();
        let t = prune_simple(&p, NodeId(0), 1.0).unwrap();
        // The heaviest (3.0) edges are all removable, so the star out of
        // node 0 survives: throughput = 1/(2+2+2) = 1/6.
        let tp = steady_state_throughput(&p, &t, CommModel::OnePort, 1.0);
        assert!((tp - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn prune_degree_balances_the_out_degree() {
        let p = contrast_platform();
        let t = prune_degree(&p, NodeId(0), CommModel::OnePort, 1.0).unwrap();
        assert!(t.is_tree());
        // The refined heuristic should avoid the full star (period 6) and
        // reach a strictly better period using the chain links.
        let tp = steady_state_throughput(&p, &t, CommModel::OnePort, 1.0);
        let star_tp = 1.0 / 6.0;
        assert!(
            tp > star_tp + 1e-9,
            "refined pruning ({tp}) should beat the star ({star_tp})"
        );
    }

    #[test]
    fn refined_beats_or_matches_simple_on_random_platforms() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut refined_wins = 0;
        let total = 8;
        for _ in 0..total {
            let platform = random_platform(&RandomPlatformConfig::paper(15, 0.15), &mut rng);
            let simple = prune_simple(&platform, NodeId(0), 1.0e6).unwrap();
            let refined = prune_degree(&platform, NodeId(0), CommModel::OnePort, 1.0e6).unwrap();
            let tp_simple = steady_state_throughput(&platform, &simple, CommModel::OnePort, 1.0e6);
            let tp_refined =
                steady_state_throughput(&platform, &refined, CommModel::OnePort, 1.0e6);
            if tp_refined >= tp_simple - 1e-12 {
                refined_wins += 1;
            }
        }
        // The refined metric should essentially never lose (paper Figure 4).
        assert!(
            refined_wins >= total - 1,
            "refined pruning lost too often: {refined_wins}/{total}"
        );
    }

    #[test]
    fn pruning_on_a_tree_platform_is_identity() {
        // A platform that is already a directed tree plus nothing else.
        let mut b = Platform::builder();
        let p = b.add_processors(4);
        b.add_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[1], p[2], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[1], p[3], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let simple = prune_simple(&platform, NodeId(0), 1.0).unwrap();
        let refined = prune_degree(&platform, NodeId(0), CommModel::OnePort, 1.0).unwrap();
        assert_eq!(
            simple.edges(),
            platform.edges().collect::<Vec<_>>().as_slice()
        );
        assert_eq!(refined.edges(), simple.edges());
    }

    #[test]
    fn multiport_prune_degree_spans() {
        let mut rng = StdRng::seed_from_u64(9);
        let platform = random_platform(&RandomPlatformConfig::paper(12, 0.2), &mut rng)
            .with_multiport_overheads(0.8, 1.0e6);
        let t = prune_degree(&platform, NodeId(2), CommModel::MultiPort, 1.0e6).unwrap();
        assert!(t.is_tree());
        assert_eq!(t.as_arborescence(&platform).unwrap().root(), NodeId(2));
    }

    #[test]
    fn two_node_platform() {
        let mut b = Platform::builder();
        let p = b.add_processors(2);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        let platform = b.build();
        let t = prune_simple(&platform, NodeId(0), 1.0).unwrap();
        assert_eq!(t.edge_count(), 1);
        let t2 = prune_degree(&platform, NodeId(1), CommModel::OnePort, 1.0).unwrap();
        assert_eq!(t2.edge_count(), 1);
    }
}
