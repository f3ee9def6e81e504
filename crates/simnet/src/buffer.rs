//! Outgoing I/O buffering — the heart of ASR's consistency guarantee.
//!
//! In asynchronous state replication "all outgoing I/O traffic of the
//! primary VM is buffered during the entire execution period T, and only
//! released once the corresponding checkpoint has completed" (§3.2). If the
//! primary dies, unreleased packets are discarded together with the
//! unreplicated execution they witnessed, so external clients never observe
//! state the replica does not have.
//!
//! The buffering delay is exactly what the Sockperf experiment (Fig. 17)
//! measures: client-visible latency under ASR is dominated by how long
//! replies sit in this buffer waiting for the next checkpoint commit.

use serde::{Deserialize, Serialize};

use here_sim_core::rate::ByteSize;
use here_sim_core::time::{SimDuration, SimTime};

/// An outgoing packet produced by the protected VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Monotonic packet id (for tracing).
    pub id: u64,
    /// Payload size.
    pub size: ByteSize,
    /// When the guest emitted the packet.
    pub created_at: SimTime,
    /// The epoch the guest emitted it in: the checkpoint whose commit
    /// releases it.
    pub epoch: u64,
}

/// A packet after release, annotated with the buffering delay it suffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReleasedPacket {
    /// The packet itself.
    pub packet: Packet,
    /// When the commit released it.
    pub released_at: SimTime,
}

impl ReleasedPacket {
    /// Time the packet spent buffered.
    pub fn buffering_delay(&self) -> SimDuration {
        self.released_at
            .saturating_duration_since(self.packet.created_at)
    }
}

/// The outgoing I/O buffer of a replicated VM.
///
/// # Examples
///
/// ```
/// use here_simnet::buffer::IoBuffer;
/// use here_sim_core::rate::ByteSize;
/// use here_sim_core::time::{SimDuration, SimTime};
///
/// let mut buf = IoBuffer::new();
/// buf.enqueue(ByteSize::from_bytes(1400), SimTime::from_secs(1), 1);
/// buf.enqueue(ByteSize::from_bytes(1400), SimTime::from_secs(3), 2);
/// // Epoch 1 commits: only its packet leaves.
/// let released = buf.release_through(1, SimTime::from_secs(4));
/// assert_eq!(released.len(), 1);
/// assert_eq!(released[0].buffering_delay(), SimDuration::from_secs(3));
/// assert_eq!(buf.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IoBuffer {
    pending: Vec<Packet>,
    next_id: u64,
    buffered_bytes: ByteSize,
    high_watermark: ByteSize,
    total_released: u64,
    total_discarded: u64,
}

impl IoBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        IoBuffer::default()
    }

    /// Buffers one outgoing packet emitted at `now` during `epoch`;
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is older than the last buffered packet's: epochs
    /// only move forward.
    pub fn enqueue(&mut self, size: ByteSize, now: SimTime, epoch: u64) -> u64 {
        assert!(
            self.pending.last().is_none_or(|p| p.epoch <= epoch),
            "packet of epoch {epoch} buffered after a later epoch's"
        );
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(Packet {
            id,
            size,
            created_at: now,
            epoch,
        });
        self.buffered_bytes += size;
        if self.buffered_bytes > self.high_watermark {
            self.high_watermark = self.buffered_bytes;
        }
        id
    }

    /// Number of packets currently held.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Bytes currently held.
    pub fn buffered_bytes(&self) -> ByteSize {
        self.buffered_bytes
    }

    /// The largest byte backlog ever observed (§8.7 resource accounting).
    pub fn high_watermark(&self) -> ByteSize {
        self.high_watermark
    }

    /// Packets buffered since the counts were last reset: every one was
    /// released, discarded, or is still held.
    pub fn total_buffered(&self) -> u64 {
        self.total_released + self.total_discarded + self.pending.len() as u64
    }

    /// Packets released to clients since the counts were last reset.
    pub fn total_released(&self) -> u64 {
        self.total_released
    }

    /// Packets discarded by failovers since the counts were last reset.
    pub fn total_discarded(&self) -> u64 {
        self.total_discarded
    }

    /// Zeroes the released and discarded counts (a new measurement
    /// window); packets still held count as buffered in it.
    pub fn reset_totals(&mut self) {
        self.total_released = 0;
        self.total_discarded = 0;
    }

    /// Checkpoint commit of `epoch`: every buffered packet emitted in
    /// that epoch or an earlier one is released to the outside world at
    /// instant `now`, in emission order. Later epochs' packets stay held.
    pub fn release_through(&mut self, epoch: u64, now: SimTime) -> Vec<ReleasedPacket> {
        let n = self.pending.partition_point(|p| p.epoch <= epoch);
        self.total_released += n as u64;
        let released: Vec<ReleasedPacket> = self
            .pending
            .drain(..n)
            .map(|packet| ReleasedPacket {
                packet,
                released_at: now,
            })
            .collect();
        let bytes: u64 = released.iter().map(|r| r.packet.size.as_bytes()).sum();
        self.buffered_bytes = ByteSize::from_bytes(self.buffered_bytes.as_bytes() - bytes);
        released
    }

    /// Primary failure: buffered packets are discarded — the execution they
    /// witnessed is being rolled back to the last committed checkpoint.
    /// Returns how many packets were lost.
    pub fn discard_all(&mut self) -> usize {
        let lost = self.pending.len();
        self.total_discarded += lost as u64;
        self.pending.clear();
        self.buffered_bytes = ByteSize::ZERO;
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_preserves_emission_order_and_counts_delay() {
        let mut buf = IoBuffer::new();
        buf.enqueue(ByteSize::from_bytes(100), SimTime::from_secs(1), 1);
        buf.enqueue(ByteSize::from_bytes(200), SimTime::from_secs(2), 1);
        assert_eq!(buf.buffered_bytes(), ByteSize::from_bytes(300));
        let out = buf.release_through(1, SimTime::from_secs(5));
        assert_eq!(out.len(), 2);
        assert!(out[0].packet.id < out[1].packet.id);
        assert_eq!(out[0].buffering_delay(), SimDuration::from_secs(4));
        assert_eq!(out[1].buffering_delay(), SimDuration::from_secs(3));
        assert!(buf.is_empty());
        assert_eq!(buf.buffered_bytes(), ByteSize::ZERO);
        assert_eq!(buf.total_released(), 2);
        assert_eq!(buf.total_buffered(), 2);
    }

    #[test]
    fn release_holds_packets_of_later_epochs() {
        let mut buf = IoBuffer::new();
        buf.enqueue(ByteSize::from_bytes(100), SimTime::ZERO, 3);
        buf.enqueue(ByteSize::from_bytes(200), SimTime::ZERO, 4);
        assert!(buf.release_through(2, SimTime::ZERO).is_empty());
        let out = buf.release_through(3, SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.epoch, 3);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.buffered_bytes(), ByteSize::from_bytes(200));
        assert_eq!(buf.total_buffered(), 2);
    }

    #[test]
    fn discard_loses_uncommitted_output() {
        let mut buf = IoBuffer::new();
        for _ in 0..5 {
            buf.enqueue(ByteSize::from_bytes(64), SimTime::ZERO, 1);
        }
        assert_eq!(buf.discard_all(), 5);
        assert!(buf.is_empty());
        assert_eq!(buf.total_discarded(), 5);
        assert_eq!(buf.total_released(), 0);
        buf.reset_totals();
        assert_eq!(buf.total_buffered(), 0);
    }

    #[test]
    fn high_watermark_tracks_peak_backlog() {
        let mut buf = IoBuffer::new();
        buf.enqueue(ByteSize::from_kib(10), SimTime::ZERO, 1);
        buf.release_through(1, SimTime::ZERO);
        buf.enqueue(ByteSize::from_kib(4), SimTime::ZERO, 2);
        assert_eq!(buf.high_watermark(), ByteSize::from_kib(10));
    }

    #[test]
    fn packet_ids_are_unique_and_monotonic() {
        let mut buf = IoBuffer::new();
        let a = buf.enqueue(ByteSize::from_bytes(1), SimTime::ZERO, 1);
        buf.release_through(1, SimTime::ZERO);
        let b = buf.enqueue(ByteSize::from_bytes(1), SimTime::ZERO, 2);
        assert!(b > a);
    }
}
