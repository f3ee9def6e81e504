//! Point-to-point links with bandwidth and latency.

use serde::{Deserialize, Serialize};

use here_sim_core::rate::{Bandwidth, ByteSize};
use here_sim_core::time::SimDuration;

/// A full-duplex point-to-point link.
///
/// Two links matter in the paper's testbed (§8.1): the **replication link**
/// (Omni-Path, 100 Gb/s, reserved for migration/replication) and the
/// **client link** (10 GbE, reserved for VM traffic). Use the named
/// constructors for those.
///
/// # Examples
///
/// ```
/// use here_simnet::link::Link;
/// use here_sim_core::rate::ByteSize;
///
/// let repl = Link::omni_path_100g();
/// let t = repl.transfer_time(ByteSize::from_mib(100));
/// // 100 MiB over 100 Gb/s ≈ 8.4 ms + propagation.
/// assert!(t.as_millis() >= 8 && t.as_millis() <= 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    bandwidth: Bandwidth,
    latency: SimDuration,
}

impl Link {
    /// Creates a link with the given rate and one-way propagation latency.
    pub fn new(bandwidth: Bandwidth, latency: SimDuration) -> Self {
        Link { bandwidth, latency }
    }

    /// The testbed's replication interconnect: Intel Omni-Path HFI 100,
    /// 100 Gb/s, intra-rack propagation.
    pub fn omni_path_100g() -> Self {
        Link::new(Bandwidth::from_gbps(100), SimDuration::from_micros(5))
    }

    /// The testbed's client network: Intel X710 10 GbE.
    pub fn ethernet_10g() -> Self {
        Link::new(Bandwidth::from_gbps(10), SimDuration::from_micros(50))
    }

    /// Link rate.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// One-way propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Time for `size` to arrive at the far end: serialisation plus
    /// propagation.
    pub fn transfer_time(&self, size: ByteSize) -> SimDuration {
        self.bandwidth.transfer_time(size) + self.latency
    }

    /// Round-trip time of a minimal message (e.g. a checkpoint ack).
    pub fn rtt(&self) -> SimDuration {
        self.latency * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_with_size() {
        let link = Link::ethernet_10g();
        let small = link.transfer_time(ByteSize::from_kib(1));
        let large = link.transfer_time(ByteSize::from_mib(1));
        assert!(large > small);
    }

    #[test]
    fn latency_dominates_tiny_messages() {
        let link = Link::omni_path_100g();
        let t = link.transfer_time(ByteSize::from_bytes(64));
        // 64 B at 100 Gb/s serialises in ~5 ns; propagation is 5 us.
        assert!(t >= SimDuration::from_micros(5));
        assert!(t < SimDuration::from_micros(6));
    }

    #[test]
    fn rtt_is_twice_latency() {
        let link = Link::new(Bandwidth::from_gbps(1), SimDuration::from_micros(30));
        assert_eq!(link.rtt(), SimDuration::from_micros(60));
    }
}
