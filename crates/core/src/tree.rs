//! Broadcast structures: the output of every heuristic.
//!
//! Most heuristics return a *spanning arborescence* rooted at the source.
//! The binomial-tree heuristic (paper Algorithm 4) routes logical transfers
//! along shortest paths, so its edge set may contain extra edges or nodes
//! with several incoming edges; [`BroadcastStructure`] therefore stores a
//! general spanning edge set together with the source, and exposes the
//! arborescence view when the set happens to be a tree.

use crate::error::CoreError;
use bcast_net::{spanning::Arborescence, traversal, EdgeId, NodeId};
use bcast_platform::Platform;
use serde::{Deserialize, Serialize};

/// A spanning broadcast structure: the source plus the set of platform edges
/// used to forward message slices.
///
/// Invariant (checked at construction): every processor of the platform is
/// reachable from the source using only the structure's edges.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BroadcastStructure {
    source: NodeId,
    /// The edges of the structure, sorted by index, without duplicates.
    edges: Vec<EdgeId>,
    /// Number of platform nodes (cached for validation and per-node arrays).
    node_count: usize,
    /// Number of platform edges (cached to rebuild edge masks).
    platform_edge_count: usize,
}

impl BroadcastStructure {
    /// Builds a structure from an edge set, checking that every processor is
    /// reachable from `source` through those edges.
    pub fn new(
        platform: &Platform,
        source: NodeId,
        mut edges: Vec<EdgeId>,
    ) -> Result<Self, CoreError> {
        if platform.node_count() == 0 {
            return Err(CoreError::EmptyPlatform);
        }
        edges.sort_unstable();
        edges.dedup();
        let mut mask = vec![false; platform.edge_count()];
        for &e in &edges {
            mask[e.index()] = true;
        }
        if !traversal::all_reachable_from(platform.graph(), source, Some(&mask)) {
            return Err(CoreError::Unreachable { source });
        }
        Ok(BroadcastStructure {
            source,
            edges,
            node_count: platform.node_count(),
            platform_edge_count: platform.edge_count(),
        })
    }

    /// The broadcast source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The edges of the structure (sorted, unique).
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of edges in the structure.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of processors spanned.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// True when the structure has exactly `|V| − 1` edges, i.e. it is a
    /// spanning arborescence (given the reachability invariant).
    pub fn is_tree(&self) -> bool {
        self.edges.len() == self.node_count.saturating_sub(1)
    }

    /// An edge mask over the platform's edges (`true` for structure edges),
    /// as consumed by the traversal and throughput routines.
    pub fn edge_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.platform_edge_count];
        for &e in &self.edges {
            mask[e.index()] = true;
        }
        mask
    }

    /// The arborescence view of the structure, when it is a tree.
    pub fn as_arborescence(&self, platform: &Platform) -> Result<Arborescence, CoreError> {
        Arborescence::from_edges(platform.graph(), self.source, &self.edges)
            .map_err(CoreError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_platform::LinkCost;

    fn line_platform() -> Platform {
        let mut b = Platform::builder();
        let p = b.add_processors(3);
        b.add_bidirectional_link(p[0], p[1], LinkCost::one_port(0.0, 1.0));
        b.add_bidirectional_link(p[1], p[2], LinkCost::one_port(0.0, 2.0));
        b.build()
    }

    #[test]
    fn valid_tree_structure() {
        let p = line_platform();
        // Edges 0 (0->1) and 2 (1->2) span the platform from node 0.
        let s = BroadcastStructure::new(&p, NodeId(0), vec![EdgeId(0), EdgeId(2)]).unwrap();
        assert!(s.is_tree());
        assert_eq!(s.source(), NodeId(0));
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.node_count(), 3);
        let arb = s.as_arborescence(&p).unwrap();
        assert_eq!(arb.parent(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn non_spanning_edge_set_is_rejected() {
        let p = line_platform();
        let err = BroadcastStructure::new(&p, NodeId(0), vec![EdgeId(0)]).unwrap_err();
        assert_eq!(err, CoreError::Unreachable { source: NodeId(0) });
    }

    #[test]
    fn duplicates_are_removed() {
        let p = line_platform();
        let s =
            BroadcastStructure::new(&p, NodeId(0), vec![EdgeId(0), EdgeId(0), EdgeId(2)]).unwrap();
        assert_eq!(s.edge_count(), 2);
    }

    #[test]
    fn extra_edges_make_it_a_non_tree_overlay() {
        let p = line_platform();
        let s = BroadcastStructure::new(
            &p,
            NodeId(0),
            vec![EdgeId(0), EdgeId(2), EdgeId(1)], // includes the back edge 1->0
        )
        .unwrap();
        assert!(!s.is_tree());
        assert!(s.as_arborescence(&p).is_err());
        let mask = s.edge_mask();
        assert_eq!(mask.iter().filter(|&&b| b).count(), 3);
    }

    #[test]
    fn structure_from_middle_source() {
        let p = line_platform();
        // From node 1: edges 1 (1->0) and 2 (1->2).
        let s = BroadcastStructure::new(&p, NodeId(1), vec![EdgeId(1), EdgeId(2)]).unwrap();
        assert!(s.is_tree());
        let arb = s.as_arborescence(&p).unwrap();
        assert_eq!(arb.root(), NodeId(1));
        assert_eq!(arb.child_count(NodeId(1)), 2);
    }
}
