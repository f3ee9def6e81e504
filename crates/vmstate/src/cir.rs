//! The Common Intermediate Representation (CIR) of VM state.
//!
//! HERE translates state between hypervisors "by copying the contents of
//! vCPU registers into a common format, then restoring the corresponding
//! data into the secondary hypervisor's format" (§5.3). The CIR is that
//! common format: hypervisor-neutral descriptions of the vCPUs, platform,
//! devices and memory of a protected VM.

use serde::{Deserialize, Serialize};

use here_hypervisor::arch::ArchRegs;
use here_hypervisor::cpuid::CpuidPolicy;
use here_hypervisor::devices::DeviceIdentity;
use here_hypervisor::memory::{PageId, PageVersion};
use here_sim_core::rate::ByteSize;

/// TSC frequency of the testbed's Xeon Gold 6130, in kHz.
pub const TESTBED_TSC_KHZ: u32 = 2_100_000;

/// One vCPU in the common format: the architectural truth plus liveness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuStateCir {
    /// Architectural register file.
    pub regs: ArchRegs,
    /// Whether the vCPU was online at capture time.
    pub online: bool,
}

/// Platform-wide state that must be consistent across a failover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformCir {
    /// The (already reconciled) CPUID policy the guest observes.
    pub cpuid: CpuidPolicy,
    /// Guest TSC frequency in kHz; both sides must agree or the guest's
    /// timekeeping would jump on failover.
    pub tsc_khz: u32,
}

/// One virtual device in the common format. Only the *stable identity*
/// crosses the hypervisor boundary; ring state is reset by the device
/// switch (§5.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceCir {
    /// Identity preserved across failover (MAC, disk geometry, ...).
    pub identity: DeviceIdentity,
}

/// The complete hypervisor-neutral description of a protected VM at one
/// instant — everything the secondary needs to build an equivalent replica.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineStateCir {
    /// VM name.
    pub name: String,
    /// Guest memory size.
    pub memory_size: ByteSize,
    /// All vCPUs in index order.
    pub vcpus: Vec<CpuStateCir>,
    /// Platform state.
    pub platform: PlatformCir,
    /// Device identities in attach order.
    pub devices: Vec<DeviceCir>,
}

impl MachineStateCir {
    /// Number of vCPUs described.
    pub fn vcpu_count(&self) -> usize {
        self.vcpus.len()
    }
}

/// A batch of memory pages in transit: the unit the replication stream
/// moves. Each entry is `(frame, version-record)`; the receiving side
/// installs them verbatim, so primary and replica memory agree page-for-page
/// after every checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemoryDelta {
    entries: Vec<(PageId, PageVersion)>,
}

impl MemoryDelta {
    /// An empty delta.
    pub fn new() -> Self {
        MemoryDelta::default()
    }

    /// Creates a delta from `(page, version)` pairs.
    pub fn from_entries(entries: Vec<(PageId, PageVersion)>) -> Self {
        MemoryDelta { entries }
    }

    /// Appends one page.
    pub fn push(&mut self, page: PageId, version: PageVersion) {
        self.entries.push((page, version));
    }

    /// Number of pages carried.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no pages are carried.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The carried entries.
    pub fn entries(&self) -> &[(PageId, PageVersion)] {
        &self.entries
    }

    /// Clears the delta, keeping its allocation — checkpoint pools reuse
    /// one delta across rounds instead of allocating per checkpoint.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Replaces the contents with `len` placeholder entries and lends them
    /// out to be overwritten in place, keeping the allocation. Harvest
    /// workers fill disjoint sub-slices of it, each chunk's pages going
    /// straight to their final position.
    pub fn slots_mut(&mut self, len: usize) -> &mut [(PageId, PageVersion)] {
        self.entries.clear();
        self.entries.resize(len, Default::default());
        &mut self.entries
    }

    /// Reserves room for at least `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Splits the entries into at most `lanes` contiguous, near-equal
    /// slices — the per-worker shards of the parallel encode path. Returns
    /// fewer slices when the delta has fewer entries than lanes, and none
    /// when it is empty.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn shards(&self, lanes: usize) -> Vec<&[(PageId, PageVersion)]> {
        assert!(lanes > 0, "at least one shard lane is required");
        if self.entries.is_empty() {
            return Vec::new();
        }
        let per_lane = self.entries.len().div_ceil(lanes);
        self.entries.chunks(per_lane).collect()
    }

    /// The *logical* payload size: dirty pages are 4 KiB each on the wire
    /// regardless of our compressed in-simulator representation.
    pub fn logical_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.entries.len() as u64 * here_hypervisor::PAGE_SIZE)
    }

    /// Merges `other` into `self`, keeping the later version when both
    /// carry the same frame.
    pub fn merge(&mut self, other: MemoryDelta) {
        self.entries.extend(other.entries);
        // Keep only the newest record per frame (stable: last write wins).
        self.entries.sort_by_key(|&(p, v)| (p, v.version));
        self.entries.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                // `earlier` is kept by dedup_by; overwrite it with the
                // higher-versioned record (later in sort order).
                *earlier = *later;
                true
            } else {
                false
            }
        });
    }
}

impl FromIterator<(PageId, PageVersion)> for MemoryDelta {
    fn from_iter<I: IntoIterator<Item = (PageId, PageVersion)>>(iter: I) -> Self {
        MemoryDelta {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pv(version: u32) -> PageVersion {
        PageVersion {
            version,
            last_writer: 0,
        }
    }

    #[test]
    fn delta_logical_size_counts_full_pages() {
        let mut d = MemoryDelta::new();
        d.push(PageId::new(1), pv(1));
        d.push(PageId::new(2), pv(1));
        assert_eq!(d.logical_bytes(), ByteSize::from_kib(8));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn delta_merge_keeps_newest_version() {
        let mut a =
            MemoryDelta::from_entries(vec![(PageId::new(1), pv(1)), (PageId::new(2), pv(3))]);
        let b = MemoryDelta::from_entries(vec![(PageId::new(1), pv(5)), (PageId::new(3), pv(1))]);
        a.merge(b);
        assert_eq!(a.len(), 3);
        let got: Vec<(u64, u32)> = a
            .entries()
            .iter()
            .map(|&(p, v)| (p.frame(), v.version))
            .collect();
        assert_eq!(got, vec![(1, 5), (2, 3), (3, 1)]);
    }

    #[test]
    fn delta_collects_from_iterator() {
        let d: MemoryDelta = (0..4).map(|f| (PageId::new(f), pv(1))).collect();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
    }
}
