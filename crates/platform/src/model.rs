//! Communication models and message/slice specifications.
//!
//! [`CommModel`] decides how a transfer occupies the ports of its two
//! endpoints, and every layer asks it rather than restating the rule:
//!
//! * [`CommModel::send_hold`] — how long one transfer holds its sender's
//!   port (the simulator's replay of a tree; a periodic schedule is
//!   one-port, like the LP whose loads it realises, so its transfers hold
//!   both ports for `T_e`);
//! * [`CommModel::port_period`] — a node's steady-state port period over a
//!   set of its edges, one slice per edge (the analytic throughput, the
//!   pruning and growing heuristics' costs, and the rounding bound `D` of
//!   schedule synthesis).
//!
//! The receiving port is held for the link occupation `T_e` under both
//! models.

use crate::platform::Platform;
use bcast_net::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// Port model restricting the concurrency of a processor's communications
/// (paper Sections 2.2 and 2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommModel {
    /// Bidirectional one-port: at any instant a processor sends to at most
    /// one neighbour and receives from at most one neighbour; sender and
    /// receiver are blocked for the full link occupation.
    OnePort,
    /// Multi-port (Bar-Noy et al.): link occupations of distinct outgoing
    /// messages may overlap, but the sender overheads `send_u` serialise, and
    /// a receiver is engaged for the full link occupation of each incoming
    /// message.
    MultiPort,
}

impl CommModel {
    /// How long one transfer of `size` bytes over `edge` holds its sender's
    /// port: the link occupation `T_e` under the one-port model, the sender
    /// occupation `min(send_e, T_e)` under the multi-port model.
    pub fn send_hold(self, platform: &Platform, edge: EdgeId, size: f64) -> f64 {
        let link = platform.link_time(edge, size);
        match self {
            CommModel::OnePort => link,
            CommModel::MultiPort => platform.send_time(edge, size).min(link),
        }
    }

    /// Steady-state port period of `node` when it sends or receives one
    /// message of `size` bytes over each of `edges` (each must start or
    /// end at `node`): the larger of its send side and its receive side.
    ///
    /// * Send side, over the out-edges: `Σ T_e` under the one-port model;
    ///   `max(δ · send_u, max T_e)` under the multi-port model (paper
    ///   Section 3.2), with `δ` the number of out-edges and `send_u`
    ///   [`Platform::node_send_time`], the smallest sender occupation over
    ///   all of the node's platform out-links.
    /// * Receive side, over the in-edges: `Σ T_e` under both models.
    ///
    /// Each sum adds its terms in the order of `edges`, as
    /// [`Iterator::sum`] would.
    ///
    /// The multi-port overhead `send_u` and the per-transfer
    /// [`CommModel::send_hold`] agree when all of a node's out-links have
    /// one send time, as [`Platform::with_multiport_overheads`] sets
    /// (unless a link's own occupation caps it).
    pub fn port_period(
        self,
        platform: &Platform,
        node: NodeId,
        edges: impl IntoIterator<Item = EdgeId>,
        size: f64,
    ) -> f64 {
        let graph = platform.graph();
        // `Iterator::sum` folds from -0.0; so do these sums.
        let (mut out_sum, mut recv) = (-0.0f64, -0.0f64);
        let (mut out_count, mut longest_out) = (0usize, 0.0f64);
        for e in edges {
            let time = platform.link_time(e, size);
            if graph.src(e) == node {
                out_sum += time;
                out_count += 1;
                longest_out = longest_out.max(time);
            } else {
                debug_assert_eq!(graph.dst(e), node, "{e:?} does not touch {node}");
                recv += time;
            }
        }
        let send = match self {
            CommModel::OnePort => out_sum,
            CommModel::MultiPort => {
                (out_count as f64 * platform.node_send_time(node, size)).max(longest_out)
            }
        };
        send.max(recv)
    }
}

/// Description of the broadcast payload: total size and slice size.
///
/// The application-level message of `total_size` bytes is cut into
/// `slice_count()` slices of `slice_size` bytes (the last slice may be
/// shorter, which steady-state analysis ignores but the simulator honours).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MessageSpec {
    /// Total number of bytes to broadcast.
    pub total_size: f64,
    /// Size of one pipelined slice, in bytes.
    pub slice_size: f64,
}

impl MessageSpec {
    /// Creates a message specification.
    ///
    /// # Panics
    /// Panics if either size is not strictly positive or not finite.
    pub fn new(total_size: f64, slice_size: f64) -> Self {
        assert!(
            total_size > 0.0 && total_size.is_finite(),
            "total size must be positive and finite"
        );
        assert!(
            slice_size > 0.0 && slice_size.is_finite(),
            "slice size must be positive and finite"
        );
        MessageSpec {
            total_size,
            slice_size: slice_size.min(total_size),
        }
    }

    /// A single-slice message (the STA regime: the whole message is atomic).
    pub fn atomic(total_size: f64) -> Self {
        Self::new(total_size, total_size)
    }

    /// Number of slices (the last one possibly partial).
    pub fn slice_count(&self) -> usize {
        (self.total_size / self.slice_size).ceil() as usize
    }

    /// Size of slice `index` (0-based): `slice_size` for all but possibly the
    /// last slice.
    pub fn slice_len(&self, index: usize) -> f64 {
        let n = self.slice_count();
        assert!(index < n, "slice index out of range");
        if index + 1 < n {
            self.slice_size
        } else {
            self.total_size - self.slice_size * (n as f64 - 1.0)
        }
    }
}

impl Default for MessageSpec {
    /// 100 MB message cut into 1 MB slices — the "large message" regime the
    /// paper targets (a few megabytes and beyond).
    fn default() -> Self {
        MessageSpec::new(100.0e6, 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinkCost;

    /// Node 0 sends to 1, 2 and 3 over links of per-byte cost 1, 2 and 3
    /// (edges 0, 2, 4), and 1 and 2 send back to 3 (edges 6, 7).
    fn fan() -> Platform {
        let mut b = Platform::builder();
        let p = b.add_processors(4);
        for (v, beta) in [(1, 1.0), (2, 2.0), (3, 3.0)] {
            b.add_bidirectional_link(p[0], p[v], LinkCost::one_port(0.0, beta));
        }
        b.add_link(p[1], p[3], LinkCost::one_port(0.0, 1.0));
        b.add_link(p[2], p[3], LinkCost::one_port(0.0, 1.0));
        b.build()
    }

    #[test]
    fn port_period_takes_the_busier_side_under_each_model() {
        let one = fan();
        let multi = one.with_multiport_overheads(0.8, 1.0);
        let out = [EdgeId(0), EdgeId(2), EdgeId(4)];
        let into_3 = [EdgeId(4), EdgeId(6), EdgeId(7)];
        for p in [&one, &multi] {
            // One-port sends serialise; receives serialise under both.
            assert_eq!(CommModel::OnePort.port_period(p, NodeId(0), out, 1.0), 6.0);
            for model in [CommModel::OnePort, CommModel::MultiPort] {
                assert_eq!(model.port_period(p, NodeId(3), into_3, 1.0), 5.0);
                assert_eq!(model.port_period(p, NodeId(0), [], 1.0), 0.0);
            }
        }
        // Multi-port: max(δ · send_u, max T) = max(3 · 0.8, 3).
        let period = CommModel::MultiPort.port_period(&multi, NodeId(0), out, 1.0);
        assert!((period - 3.0).abs() < 1e-12);
        let period = CommModel::MultiPort.port_period(&multi, NodeId(0), [EdgeId(0)], 1.0);
        assert!((period - 1.0).abs() < 1e-12);
    }

    #[test]
    fn send_hold_is_the_link_time_or_the_sender_overhead() {
        let one = fan();
        let multi = one.with_multiport_overheads(0.8, 1.0);
        for p in [&one, &multi] {
            assert_eq!(CommModel::OnePort.send_hold(p, EdgeId(4), 2.0), 6.0);
        }
        assert_eq!(CommModel::MultiPort.send_hold(&one, EdgeId(4), 2.0), 6.0);
        let hold = CommModel::MultiPort.send_hold(&multi, EdgeId(4), 2.0);
        assert!((hold - 1.6).abs() < 1e-12);
    }

    #[test]
    fn slice_count_rounds_up() {
        let m = MessageSpec::new(10.0, 3.0);
        assert_eq!(m.slice_count(), 4);
        assert_eq!(m.slice_len(0), 3.0);
        assert_eq!(m.slice_len(3), 1.0);
    }

    #[test]
    fn exact_division_has_no_partial_slice() {
        let m = MessageSpec::new(9.0, 3.0);
        assert_eq!(m.slice_count(), 3);
        assert_eq!(m.slice_len(2), 3.0);
    }

    #[test]
    fn atomic_message_is_one_slice() {
        let m = MessageSpec::atomic(42.0);
        assert_eq!(m.slice_count(), 1);
        assert_eq!(m.slice_len(0), 42.0);
    }

    #[test]
    fn slice_larger_than_total_is_clamped() {
        let m = MessageSpec::new(5.0, 10.0);
        assert_eq!(m.slice_size, 5.0);
        assert_eq!(m.slice_count(), 1);
    }

    #[test]
    #[should_panic(expected = "slice index out of range")]
    fn out_of_range_slice_panics() {
        MessageSpec::new(10.0, 5.0).slice_len(2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_total_panics() {
        MessageSpec::new(0.0, 1.0);
    }

    #[test]
    fn default_is_100mb_in_1mb_slices() {
        let m = MessageSpec::default();
        assert_eq!(m.slice_count(), 100);
    }
}
