//! Error type shared by the heuristics and the optimal-throughput solvers.

use bcast_lp::LpError;
use bcast_net::{NodeId, SpanningError};
use std::fmt;

/// Errors reported by `bcast-core`.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// The platform graph does not allow a broadcast from the chosen source
    /// (some processor is unreachable).
    Unreachable {
        /// The broadcast source.
        source: NodeId,
    },
    /// A heuristic produced an edge set that is not a valid spanning
    /// structure (this indicates a bug and is surfaced rather than hidden).
    InvalidStructure(SpanningError),
    /// The underlying linear-program solver failed.
    Lp(LpError),
    /// The platform is empty (no processors).
    EmptyPlatform,
    /// A session step was handed a platform or node-churn remap that does
    /// not continue the session's topology (the reason says which count
    /// differs, or that the remap drops the broadcast source). Checked
    /// before the session is touched, so it can still solve its own
    /// topology afterwards.
    TopologyMismatch(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Unreachable { source } => write!(
                f,
                "broadcast from {source} is infeasible: some processor is unreachable"
            ),
            CoreError::InvalidStructure(e) => write!(f, "invalid broadcast structure: {e}"),
            CoreError::Lp(e) => write!(f, "linear-program solver failed: {e}"),
            CoreError::EmptyPlatform => write!(f, "the platform has no processors"),
            CoreError::TopologyMismatch(reason) => write!(f, "topology mismatch: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<SpanningError> for CoreError {
    fn from(value: SpanningError) -> Self {
        CoreError::InvalidStructure(value)
    }
}

impl From<LpError> for CoreError {
    fn from(value: LpError) -> Self {
        CoreError::Lp(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::Unreachable { source: NodeId(3) };
        assert!(e.to_string().contains("P3"));
        assert!(CoreError::EmptyPlatform
            .to_string()
            .contains("no processors"));
        let lp: CoreError = LpError::Infeasible.into();
        assert!(lp.to_string().contains("infeasible"));
        let sp: CoreError = SpanningError::RootHasParent { root: NodeId(0) }.into();
        assert!(sp.to_string().contains("invalid broadcast structure"));
        let mismatch = CoreError::TopologyMismatch("3 nodes, expected 4".into());
        assert!(mismatch.to_string().contains("3 nodes, expected 4"));
    }
}
