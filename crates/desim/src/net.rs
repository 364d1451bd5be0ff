//! Interconnect model.
//!
//! The paper's cluster is "17 nodes over Gigabit Ethernet"; configuration 2
//! places the five tasks on five nodes with each channel on its producer's
//! node, so every inter-task item crosses the network once. We model a link
//! as fixed latency plus serialization delay:
//!
//! ```text
//! transfer(bytes) = latency + bytes / bandwidth
//! ```
//!
//! A 738 kB video frame on Gigabit Ethernet (~125 B/µs) costs ~6 ms — the
//! same order as the tracker's stage service times, which is why the 5-node
//! latency column of Figure 10 sits visibly above per-stage compute alone.

use serde::{Deserialize, Serialize};
use vtime::Micros;

/// Point-to-point link model (uniform across the cluster, like the paper's
/// single switched GbE fabric).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetModel {
    /// One-way message latency.
    pub latency: Micros,
    /// Payload bandwidth in bytes per microsecond (GbE ≈ 125).
    pub bandwidth_bytes_per_us: f64,
}

impl Default for NetModel {
    /// Gigabit Ethernet with ~100 µs software latency (2005-era TCP stack).
    fn default() -> Self {
        NetModel {
            latency: Micros(100),
            bandwidth_bytes_per_us: 125.0,
        }
    }
}

impl NetModel {
    /// An infinitely fast network (single-node configuration).
    #[must_use]
    pub fn local() -> Self {
        NetModel {
            latency: Micros::ZERO,
            bandwidth_bytes_per_us: f64::INFINITY,
        }
    }

    /// Time for `bytes` to become visible on the remote side.
    #[must_use]
    pub fn transfer(&self, bytes: u64) -> Micros {
        let ser = if self.bandwidth_bytes_per_us.is_finite() && self.bandwidth_bytes_per_us > 0.0 {
            Micros((bytes as f64 / self.bandwidth_bytes_per_us) as u64)
        } else {
            Micros::ZERO
        };
        self.latency + ser
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_is_free() {
        assert_eq!(NetModel::local().transfer(10_000_000), Micros::ZERO);
    }

    #[test]
    fn gbe_frame_transfer_is_about_6ms() {
        let net = NetModel::default();
        let t = net.transfer(738_000);
        assert!(
            t > Micros(5_000) && t < Micros(8_000),
            "738kB over GbE should be ~6ms, got {t}"
        );
    }

    #[test]
    fn latency_dominates_small_items() {
        let net = NetModel::default();
        let t = net.transfer(68);
        assert_eq!(t, Micros(100), "68B record costs one latency, got {t}");
    }
}
