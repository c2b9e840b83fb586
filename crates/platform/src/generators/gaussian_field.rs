//! Gaussian-field platform generator: clustered geometric topologies.
//!
//! The paper's evaluation uses random (Erdős–Rényi-like) and Tiers-like
//! platforms; this third family models *geographically clustered* grids:
//! cluster centres are placed uniformly in the unit square, processors
//! scatter around their centre with a Gaussian spread, and each processor
//! links to its nearest neighbours. Link bandwidth decays with Euclidean
//! distance, so intra-cluster links are fast and inter-cluster links slow —
//! a qualitatively different heterogeneity profile from the other two
//! families (bandwidth correlates with *topology* instead of being i.i.d.).

use crate::cost::LinkCost;
use crate::generators::gaussian::{sample_normal, sample_normal_at_least};
use crate::platform::Platform;
use rand::Rng;

/// Parameters for [`gaussian_platform`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaussianPlatformConfig {
    /// Number of processors.
    pub nodes: usize,
    /// Number of cluster centres (default: about one per 8 nodes, ≥ 2).
    pub clusters: usize,
    /// Standard deviation of the node scatter around its cluster centre,
    /// in unit-square coordinates.
    pub spread: f64,
    /// Nearest neighbours each node links to (bidirectionally).
    pub neighbors: usize,
    /// Bandwidth of a zero-length link, in bytes/second.
    pub bandwidth_at_zero: f64,
    /// Distance at which bandwidth halves (the decay scale).
    pub half_distance: f64,
    /// Multiplicative Gaussian jitter (std-dev, relative) on each bandwidth.
    pub bandwidth_jitter: f64,
    /// Lower bound on link bandwidths.
    pub bandwidth_floor: f64,
}

impl GaussianPlatformConfig {
    /// The default configuration for `nodes` processors: `⌈nodes/8⌉`
    /// clusters (at least 2), spread 0.08, three nearest neighbours,
    /// 100 MB/s at distance zero halving every 0.25 units, 10% jitter.
    pub fn paper(nodes: usize) -> Self {
        GaussianPlatformConfig {
            nodes,
            clusters: nodes.div_ceil(8).max(2),
            spread: 0.08,
            neighbors: 3,
            bandwidth_at_zero: 100.0e6,
            half_distance: 0.25,
            bandwidth_jitter: 0.10,
            bandwidth_floor: 5.0e6,
        }
    }
}

impl Default for GaussianPlatformConfig {
    fn default() -> Self {
        GaussianPlatformConfig::paper(20)
    }
}

/// Generates a clustered geometric platform following `config`.
///
/// A link's bandwidth is drawn around the distance-decayed mean, itself
/// clamped at `bandwidth_floor`, so a link spanning far-apart clusters
/// gets the floor as its mean.
///
/// Connectivity is guaranteed: besides the nearest-neighbour links, each
/// node (after the first) links to the closest already-placed node, which
/// yields a spanning backbone. Every physical link is bidirectional with
/// the same sampled bandwidth.
pub fn gaussian_platform<R: Rng + ?Sized>(
    config: &GaussianPlatformConfig,
    rng: &mut R,
) -> Platform {
    assert!(config.nodes >= 1, "a platform needs at least one node");
    assert!(config.clusters >= 1, "at least one cluster is required");
    assert!(config.spread >= 0.0 && config.half_distance > 0.0);

    // Cluster centres, then node positions.
    let centres: Vec<(f64, f64)> = (0..config.clusters)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let positions: Vec<(f64, f64)> = (0..config.nodes)
        .map(|i| {
            let (cx, cy) = centres[i % config.clusters];
            (
                cx + sample_normal(rng, 0.0, config.spread),
                cy + sample_normal(rng, 0.0, config.spread),
            )
        })
        .collect();
    let distance = |a: usize, b: usize| -> f64 {
        let (ax, ay) = positions[a];
        let (bx, by) = positions[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    };

    let mut builder = Platform::builder();
    let nodes = builder.add_processors(config.nodes);
    let link = |builder: &mut crate::platform::PlatformBuilder, rng: &mut R, a: usize, b: usize| {
        if a == b || builder.has_link(nodes[a], nodes[b]) {
            return;
        }
        let d = distance(a, b);
        // The decayed mean drops below the floor beyond
        // log2(bandwidth_at_zero / bandwidth_floor) half-distances (about
        // 1.08 units at the defaults); such a link draws around the floor.
        let base = (config.bandwidth_at_zero * 0.5f64.powf(d / config.half_distance))
            .max(config.bandwidth_floor);
        let bandwidth = sample_normal_at_least(
            rng,
            base,
            base * config.bandwidth_jitter,
            config.bandwidth_floor,
        );
        builder.add_bidirectional_link(nodes[a], nodes[b], LinkCost::from_bandwidth(bandwidth));
    };

    // Spanning backbone: each node links to the closest earlier node.
    for i in 1..config.nodes {
        let closest = (0..i)
            .min_by(|&a, &b| distance(i, a).partial_cmp(&distance(i, b)).unwrap())
            .expect("at least one earlier node");
        link(&mut builder, rng, i, closest);
    }
    // Nearest-neighbour links.
    for i in 0..config.nodes {
        let mut others: Vec<usize> = (0..config.nodes).filter(|&j| j != i).collect();
        others.sort_by(|&a, &b| {
            distance(i, a)
                .partial_cmp(&distance(i, b))
                .unwrap()
                .then(a.cmp(&b))
        });
        for &j in others.iter().take(config.neighbors) {
            link(&mut builder, rng, i, j);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_platform_is_broadcast_feasible_from_any_node() {
        let mut rng = StdRng::seed_from_u64(9);
        for &nodes in &[1usize, 2, 5, 20, 40] {
            let p = gaussian_platform(&GaussianPlatformConfig::paper(nodes), &mut rng);
            assert_eq!(p.node_count(), nodes);
            for source in p.nodes() {
                assert!(
                    p.is_broadcast_feasible(source),
                    "{nodes}-node platform unreachable from {source}"
                );
            }
        }
    }

    #[test]
    fn link_beyond_the_floor_distance_yields_a_feasible_platform() {
        // Seed 13 at 20 nodes draws a link whose decayed mean is below the
        // bandwidth floor; the mean is clamped there instead of panicking.
        let config = GaussianPlatformConfig::paper(20);
        let p = gaussian_platform(&config, &mut StdRng::seed_from_u64(13));
        assert_eq!(p.node_count(), 20);
        for source in p.nodes() {
            assert!(p.is_broadcast_feasible(source), "unreachable from {source}");
        }
        for e in p.edges() {
            assert!(p.link_cost(e).bandwidth() >= config.bandwidth_floor);
        }
    }

    #[test]
    fn no_seed_panics() {
        for nodes in [14, 20] {
            let config = GaussianPlatformConfig::paper(nodes);
            for seed in 0..2000 {
                let p = gaussian_platform(&config, &mut StdRng::seed_from_u64(seed));
                assert_eq!(p.node_count(), nodes, "seed {seed}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = GaussianPlatformConfig::paper(24);
        let a = gaussian_platform(&config, &mut StdRng::seed_from_u64(5));
        let b = gaussian_platform(&config, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.edge_count(), b.edge_count());
        for e in a.edges() {
            assert_eq!(a.link_cost(e), b.link_cost(e));
        }
    }

    #[test]
    fn bandwidth_decays_with_distance_on_average() {
        // Clustered platforms must show heterogeneity: the fastest link
        // should be clearly faster than the slowest.
        let mut rng = StdRng::seed_from_u64(11);
        let p = gaussian_platform(&GaussianPlatformConfig::paper(30), &mut rng);
        let bandwidths: Vec<f64> = p.edges().map(|e| p.link_cost(e).bandwidth()).collect();
        let max = bandwidths.iter().copied().fold(0.0f64, f64::max);
        let min = bandwidths.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            max > 2.0 * min,
            "expected heterogeneous bandwidths, got {min}..{max}"
        );
    }

    #[test]
    fn all_links_are_bidirectional_and_valid() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = gaussian_platform(&GaussianPlatformConfig::paper(16), &mut rng);
        for e in p.graph().edges() {
            assert!(e.payload.is_valid());
            assert!(
                p.graph().has_edge(e.dst, e.src),
                "missing reverse of {:?}",
                e.id
            );
        }
    }
}
