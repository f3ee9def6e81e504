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

    /// Resizes the delta to `len` entries and lends them out to be
    /// overwritten in place, keeping the allocation. Harvest workers fill
    /// disjoint sub-slices of it, each chunk's pages going straight to
    /// their final position. The entries kept from the last round are
    /// lent as they are and only growth is zero-filled, so the caller
    /// must write every slot.
    pub fn slots_mut(&mut self, len: usize) -> &mut [(PageId, PageVersion)] {
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

    /// Merges `other` into `self`, leaving one entry per frame in
    /// ascending frame order. Of the records a frame has in either input,
    /// the one with the highest `version` is kept; on a tie `other`'s
    /// wins over `self`'s, and within one input the later entry wins.
    ///
    /// Harvest output is already frame-ascending with one entry per frame,
    /// and so is every merge result, so the common case is linear,
    /// O(`self.len() + other.len()`), and works in `self`'s own
    /// allocation: one pass settles the frames both carry in place and
    /// counts the frames only `other` carries, and only if there are any
    /// does a second pass, from the back, make room for them. An input
    /// that is not in that shape is sorted first.
    pub fn merge(&mut self, other: &MemoryDelta) {
        normalise(&mut self.entries);
        let sorted;
        let other = if is_normal(&other.entries) {
            &other.entries[..]
        } else {
            let mut copy = other.entries.to_vec();
            normalise(&mut copy);
            sorted = copy;
            &sorted[..]
        };
        let entries = &mut self.entries;
        let n = entries.len();
        let mut only_other = 0;
        let mut rest = other.iter().peekable();
        for mine in entries.iter_mut() {
            while rest.next_if(|theirs| theirs.0 < mine.0).is_some() {
                only_other += 1;
            }
            if let Some(theirs) = rest.next_if(|theirs| theirs.0 == mine.0) {
                if theirs.1.version >= mine.1.version {
                    *mine = *theirs;
                }
            }
        }
        only_other += rest.count();
        if only_other == 0 {
            return;
        }
        // Back to front: every entry moves to its final slot, and the
        // pass ends once the last frame only `other` carries is placed,
        // where the rest of `self` already sits.
        entries.resize(n + only_other, Default::default());
        let (mut w, mut i, mut j) = (n + only_other, n, other.len());
        while w > i {
            let theirs = other[j - 1];
            if i > 0 && entries[i - 1].0 >= theirs.0 {
                if entries[i - 1].0 == theirs.0 {
                    j -= 1; // settled by the first pass
                }
                entries[w - 1] = entries[i - 1];
                i -= 1;
            } else {
                entries[w - 1] = theirs;
                j -= 1;
            }
            w -= 1;
        }
    }
}

/// `true` when `entries` ascend strictly by frame: sorted, one per frame.
fn is_normal(entries: &[(PageId, PageVersion)]) -> bool {
    entries.windows(2).all(|pair| pair[0].0 < pair[1].0)
}

/// Sorts `entries` by frame and keeps one per frame: the highest
/// version, and of equal versions the later entry.
fn normalise(entries: &mut Vec<(PageId, PageVersion)>) {
    if is_normal(entries) {
        return;
    }
    entries.sort_by_key(|&(page, rec)| (page, rec.version));
    entries.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            *kept = *later;
        }
        same
    });
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
        a.merge(&b);
        assert_eq!(a.len(), 3);
        let got: Vec<(u64, u32)> = a
            .entries()
            .iter()
            .map(|&(p, v)| (p.frame(), v.version))
            .collect();
        assert_eq!(got, vec![(1, 5), (2, 3), (3, 1)]);
    }

    /// The merge this crate shipped before the linear one: concatenate,
    /// stable-sort by `(frame, version)`, keep the last of each frame.
    fn merge_by_sort(a: &MemoryDelta, b: &MemoryDelta) -> Vec<(PageId, PageVersion)> {
        let mut entries = a.entries.clone();
        entries.extend_from_slice(&b.entries);
        entries.sort_by_key(|&(p, v)| (p, v.version));
        entries.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                *earlier = *later;
                true
            } else {
                false
            }
        });
        entries
    }

    /// A delta drawn as `(frame, version, writer)` triples; `ascending`
    /// sorts it and keeps the last entry per frame, the shape a harvest
    /// leaves.
    fn delta_from(raw: &[(u64, u32, u16)], ascending: bool) -> MemoryDelta {
        let mut entries: Vec<_> = raw
            .iter()
            .map(|&(frame, version, last_writer)| {
                let rec = PageVersion {
                    version,
                    last_writer,
                };
                (PageId::new(frame), rec)
            })
            .collect();
        if ascending {
            entries.reverse();
            entries.sort_by_key(|&(page, _)| page);
            entries.dedup_by_key(|&mut (page, _)| page);
        }
        MemoryDelta::from_entries(entries)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The linear merge keeps exactly the entries the sort-and-dedup
        /// merge kept, writer included, whatever shape either input has:
        /// unsorted, with repeated frames, empty or already ascending.
        /// Versions and writers come from small ranges, so equal frames
        /// often carry equal versions with different writers.
        #[test]
        fn linear_merge_matches_the_sort_and_dedup_merge(
            a in proptest::collection::vec((0u64..48, 0u32..4, 0u16..4), 0..40),
            b in proptest::collection::vec((0u64..48, 0u32..4, 0u16..4), 0..40),
            a_ascending in proptest::prelude::any::<bool>(),
            b_ascending in proptest::prelude::any::<bool>(),
        ) {
            let (a, b) = (delta_from(&a, a_ascending), delta_from(&b, b_ascending));
            let mut merged = a.clone();
            merged.merge(&b);
            proptest::prop_assert_eq!(merged.entries(), &merge_by_sort(&a, &b)[..]);
            // Merging again into the result, as a backlog does epoch after
            // epoch, still agrees.
            let again = merge_by_sort(&merged, &b);
            merged.merge(&b);
            proptest::prop_assert_eq!(merged.entries(), &again[..]);
        }
    }

    #[test]
    fn delta_collects_from_iterator() {
        let d: MemoryDelta = (0..4).map(|f| (PageId::new(f), pv(1))).collect();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
    }
}
