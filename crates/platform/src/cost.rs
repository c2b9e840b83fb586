//! Affine communication-cost model for a single link (paper Section 2, Figure 1).

use serde::{Deserialize, Serialize};

/// Affine cost parameters of one directed link `e_{u,v} : P_u → P_v`.
///
/// Every duration is an affine function of the message size `L` (in bytes):
///
/// * link occupation `T_{u,v}(L) = alpha + beta · L`,
/// * sender occupation `send_{u,v}(L) = send_latency + send_per_byte · L`,
/// * receiver occupation `recv_{u,v}(L) = recv_latency + recv_per_byte · L`.
///
/// The one-port model of the paper collapses the three durations
/// (`send = recv = T`); the multi-port model keeps a sender occupation
/// strictly smaller than the link occupation so that consecutive sends can
/// overlap on the network. [`LinkCost::one_port`] builds the first shape,
/// and [`LinkCost::with_absolute_send_time`] derives the second from it,
/// as [`Platform::with_multiport_overheads`](crate::Platform::with_multiport_overheads)
/// does for every link of a platform.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkCost {
    /// Start-up cost (latency) of the link occupation, in seconds.
    pub alpha: f64,
    /// Inverse bandwidth of the link, in seconds per byte.
    pub beta: f64,
    /// Start-up part of the sender occupation, in seconds.
    pub send_latency: f64,
    /// Per-byte part of the sender occupation, in seconds per byte.
    pub send_per_byte: f64,
    /// Start-up part of the receiver occupation, in seconds.
    pub recv_latency: f64,
    /// Per-byte part of the receiver occupation, in seconds per byte.
    pub recv_per_byte: f64,
}

impl LinkCost {
    /// A one-port link: sender and receiver are blocked for the whole link
    /// occupation (`send = recv = T`).
    pub fn one_port(alpha: f64, beta: f64) -> Self {
        LinkCost {
            alpha,
            beta,
            send_latency: alpha,
            send_per_byte: beta,
            recv_latency: alpha,
            recv_per_byte: beta,
        }
    }

    /// A latency-free one-port link defined by its bandwidth in bytes/second.
    pub fn from_bandwidth(bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        Self::one_port(0.0, 1.0 / bandwidth)
    }

    /// Link occupation `T_{u,v}(L)` for a message of `size` bytes.
    #[inline]
    pub fn link_time(&self, size: f64) -> f64 {
        self.alpha + self.beta * size
    }

    /// Sender occupation `send_{u,v}(L)` for a message of `size` bytes.
    #[inline]
    pub fn send_time(&self, size: f64) -> f64 {
        self.send_latency + self.send_per_byte * size
    }

    /// Receiver occupation `recv_{u,v}(L)` for a message of `size` bytes.
    #[inline]
    pub fn recv_time(&self, size: f64) -> f64 {
        self.recv_latency + self.recv_per_byte * size
    }

    /// Nominal bandwidth of the link in bytes/second (`1 / beta`);
    /// `f64::INFINITY` for a zero-cost link.
    pub fn bandwidth(&self) -> f64 {
        if self.beta > 0.0 {
            1.0 / self.beta
        } else {
            f64::INFINITY
        }
    }

    /// True when the model invariants of paper Section 2 hold:
    /// `send ≤ T` and `recv ≤ T` coefficient-wise, and nothing is negative.
    pub fn is_valid(&self) -> bool {
        let non_negative = self.alpha >= 0.0
            && self.beta >= 0.0
            && self.send_latency >= 0.0
            && self.send_per_byte >= 0.0
            && self.recv_latency >= 0.0
            && self.recv_per_byte >= 0.0;
        non_negative
            && self.send_latency <= self.alpha + 1e-12
            && self.send_per_byte <= self.beta + 1e-12
            && self.recv_latency <= self.alpha + 1e-12
            && self.recv_per_byte <= self.beta + 1e-12
    }

    /// Returns a copy with the sender occupation set to an absolute duration
    /// `send_time` for messages of size `size` (latency-free form).
    pub fn with_absolute_send_time(&self, send_time: f64, size: f64) -> Self {
        assert!(size > 0.0);
        LinkCost {
            send_latency: 0.0,
            send_per_byte: (send_time / size).min(self.beta),
            ..*self
        }
    }
}

impl Default for LinkCost {
    /// A 100 MB/s latency-free one-port link (the mean of paper Table 2).
    fn default() -> Self {
        LinkCost::from_bandwidth(100.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_port_collapses_durations() {
        let c = LinkCost::one_port(1.0, 0.5);
        assert_eq!(c.link_time(10.0), 6.0);
        assert_eq!(c.send_time(10.0), 6.0);
        assert_eq!(c.recv_time(10.0), 6.0);
        assert!(c.is_valid());
    }

    #[test]
    fn multi_port_sender_is_cheaper() {
        let c = LinkCost::one_port(0.0, 1.0).with_absolute_send_time(8.0, 10.0);
        assert_eq!(c.link_time(10.0), 10.0);
        assert!((c.send_time(10.0) - 8.0).abs() < 1e-12);
        assert_eq!(c.recv_time(10.0), 10.0);
        assert!(c.is_valid());
    }

    #[test]
    fn bandwidth_round_trips() {
        let c = LinkCost::from_bandwidth(50.0);
        assert!((c.bandwidth() - 50.0).abs() < 1e-12);
        assert!((c.link_time(100.0) - 2.0).abs() < 1e-12);
        let free = LinkCost::one_port(0.0, 0.0);
        assert!(free.bandwidth().is_infinite());
    }

    #[test]
    fn validity_rejects_send_exceeding_link() {
        let c = LinkCost {
            alpha: 0.0,
            beta: 1.0,
            send_latency: 0.0,
            send_per_byte: 2.0,
            recv_latency: 0.0,
            recv_per_byte: 1.0,
        };
        assert!(!c.is_valid());
        let neg = LinkCost {
            beta: -1.0,
            ..LinkCost::default()
        };
        assert!(!neg.is_valid());
    }

    #[test]
    fn absolute_send_time_is_clamped_to_link_time() {
        let c = LinkCost::one_port(0.0, 1.0).with_absolute_send_time(500.0, 10.0);
        // 500/10 = 50 per byte would exceed beta = 1, so it is clamped.
        assert!(c.send_per_byte <= c.beta);
        assert!(c.is_valid());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = LinkCost::from_bandwidth(0.0);
    }

    #[test]
    fn default_is_100_mb_per_s() {
        let c = LinkCost::default();
        assert!((c.bandwidth() - 100.0e6).abs() < 1.0);
    }
}
