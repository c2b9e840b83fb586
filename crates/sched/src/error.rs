//! Error type of the schedule-synthesis pipeline.

use bcast_net::NodeId;
use std::fmt;

/// Errors reported by `bcast-sched`.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedError {
    /// The platform has no processors.
    EmptyPlatform,
    /// The platform cannot be spanned from the chosen source.
    Unreachable {
        /// The broadcast source.
        source: NodeId,
    },
    /// The optimal throughput is zero or not finite, so there is no
    /// steady-state schedule to synthesize.
    NonPositiveThroughput,
    /// The load vector does not match the platform's edge count.
    LoadVectorMismatch {
        /// Edge count of the platform.
        expected: usize,
        /// Length of the supplied load vector.
        found: usize,
    },
    /// The arborescence packing could not complete a spanning tree — this
    /// indicates an internal bug (the rounded capacities are repaired to
    /// satisfy Edmonds' condition before packing starts).
    PackingFailed {
        /// Index of the tree that could not be completed.
        tree: usize,
    },
    /// A schedule failed validation, or its snapshot parts are malformed.
    Invalid(String),
    /// A repair was handed a node-churn remap that does not target the
    /// platform (the reason says which count differs).
    TopologyMismatch(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::EmptyPlatform => write!(f, "the platform has no processors"),
            SchedError::Unreachable { source } => write!(
                f,
                "broadcast from {source} is infeasible: some processor is unreachable"
            ),
            SchedError::NonPositiveThroughput => {
                write!(f, "the optimal throughput is zero or not finite")
            }
            SchedError::LoadVectorMismatch { expected, found } => write!(
                f,
                "edge-load vector has {found} entries but the platform has {expected} edges"
            ),
            SchedError::PackingFailed { tree } => {
                write!(f, "arborescence packing failed while building tree {tree}")
            }
            SchedError::Invalid(reason) => write!(f, "invalid schedule: {reason}"),
            SchedError::TopologyMismatch(reason) => write!(f, "topology mismatch: {reason}"),
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(SchedError::EmptyPlatform.to_string().contains("processors"));
        assert!(SchedError::Unreachable { source: NodeId(2) }
            .to_string()
            .contains("P2"));
        assert!(SchedError::LoadVectorMismatch {
            expected: 4,
            found: 2
        }
        .to_string()
        .contains("4 edges"));
        assert!(SchedError::PackingFailed { tree: 3 }
            .to_string()
            .contains('3'));
        assert!(SchedError::Invalid("x".into()).to_string().contains('x'));
        assert!(SchedError::TopologyMismatch("y".into())
            .to_string()
            .contains("topology mismatch: y"));
    }
}
