//! Sparse, versioned guest physical memory.
//!
//! Replication cost in the paper is a function of *which 4 KiB pages are
//! dirty*, not of their payloads, so guest memory stores an 8-byte version
//! record per page instead of 4 KiB of bytes (see DESIGN.md, substitution
//! table). A page's byte content is derived deterministically from
//! `(frame, version)` by [`GuestMemory::materialize`], which lets the state
//! translator and wire codec be tested against full 4 KiB images while a
//! 20 GiB guest costs ~40 MiB of host memory.

use serde::{Deserialize, Serialize};

use here_sim_core::rate::ByteSize;

use crate::error::{HvError, HvResult};
use crate::vcpu::VcpuId;

/// Logical guest page size in bytes (x86 small page).
pub const PAGE_SIZE: u64 = 4096;

/// A guest physical frame number.
///
/// # Examples
///
/// ```
/// use here_hypervisor::memory::{PageId, PAGE_SIZE};
///
/// let p = PageId::new(3);
/// assert_eq!(p.guest_phys_addr(), 3 * PAGE_SIZE);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PageId(u64);

impl PageId {
    /// Creates the id of frame number `frame`.
    pub const fn new(frame: u64) -> Self {
        PageId(frame)
    }

    /// The frame number.
    pub const fn frame(self) -> u64 {
        self.0
    }

    /// The guest-physical address of the first byte of the page.
    pub const fn guest_phys_addr(self) -> u64 {
        self.0 * PAGE_SIZE
    }
}

impl From<u64> for PageId {
    fn from(frame: u64) -> Self {
        PageId(frame)
    }
}

/// Per-page record: the content version and the last writing vCPU.
///
/// Version 0 means "never written" (an all-zeroes page, as delivered by a
/// freshly ballooned guest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PageVersion {
    /// Monotonic per-page write counter; 0 = pristine zero page.
    pub version: u32,
    /// The vCPU that performed the most recent write (0 if pristine).
    pub last_writer: u16,
}

/// The guest physical address space of one VM.
///
/// # Examples
///
/// ```
/// use here_hypervisor::memory::{GuestMemory, PageId};
/// use here_hypervisor::vcpu::VcpuId;
/// use here_sim_core::rate::ByteSize;
///
/// let mut mem = GuestMemory::new(ByteSize::from_mib(4)).unwrap();
/// assert_eq!(mem.num_pages(), 1024);
/// mem.write_page(PageId::new(7), VcpuId::new(0)).unwrap();
/// assert_eq!(mem.page(PageId::new(7)).unwrap().version, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GuestMemory {
    pages: Vec<PageVersion>,
    size: ByteSize,
}

impl GuestMemory {
    /// Allocates a guest address space of `size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::InvalidConfig`] if `size` is zero or not a
    /// multiple of [`PAGE_SIZE`].
    pub fn new(size: ByteSize) -> HvResult<Self> {
        let bytes = size.as_bytes();
        if bytes == 0 || !bytes.is_multiple_of(PAGE_SIZE) {
            return Err(HvError::InvalidConfig(format!(
                "guest memory size {bytes} must be a positive multiple of {PAGE_SIZE}"
            )));
        }
        let num_pages = bytes / PAGE_SIZE;
        Ok(GuestMemory {
            pages: vec![PageVersion::default(); num_pages as usize],
            size,
        })
    }

    /// Total memory size.
    pub fn size(&self) -> ByteSize {
        self.size
    }

    /// Number of guest pages.
    pub fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of pages written at least once (a count over
    /// [`GuestMemory::touched_iter`]).
    pub fn touched_pages(&self) -> u64 {
        self.touched_iter().count() as u64
    }

    /// The version record of `page`.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] if `page` is beyond the address
    /// space.
    pub fn page(&self, page: PageId) -> HvResult<PageVersion> {
        self.pages
            .get(page.frame() as usize)
            .copied()
            .ok_or(HvError::PageOutOfRange {
                page: page.frame(),
                limit: self.num_pages(),
            })
    }

    /// Every page's version record, indexed by frame number — the
    /// harvest's read path, which takes frames from the dirty bitmap and so
    /// needs no per-page range check.
    pub fn records(&self) -> &[PageVersion] {
        &self.pages
    }

    /// Every page's version record, writable — a replica's install path,
    /// which stores frames its check already placed inside this memory and
    /// so needs no per-page range check.
    pub fn records_mut(&mut self) -> &mut [PageVersion] {
        &mut self.pages
    }

    /// Records a guest write to `page` by `vcpu`, bumping its version.
    ///
    /// Returns the new version record.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] if `page` is beyond the address
    /// space.
    pub fn write_page(&mut self, page: PageId, vcpu: VcpuId) -> HvResult<PageVersion> {
        let limit = self.num_pages();
        let rec = self
            .pages
            .get_mut(page.frame() as usize)
            .ok_or(HvError::PageOutOfRange {
                page: page.frame(),
                limit,
            })?;
        rec.version = rec.version.wrapping_add(1).max(1);
        rec.last_writer = vcpu.index() as u16;
        Ok(*rec)
    }

    /// [`GuestMemory::write_page`] on the `count` frames from `first`, all
    /// by `vcpu`: one bounds check, then one pass over the records. Writes
    /// nothing unless the whole run is in range.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] naming the first frame past the
    /// address space if the run does not fit.
    pub(crate) fn write_run(&mut self, first: u64, count: u64, vcpu: VcpuId) -> HvResult<()> {
        let limit = self.num_pages();
        if count == 0 {
            return Ok(());
        }
        if first >= limit || count > limit - first {
            return Err(HvError::PageOutOfRange {
                page: first.max(limit),
                limit,
            });
        }
        let writer = vcpu.index() as u16;
        for rec in &mut self.pages[first as usize..(first + count) as usize] {
            rec.version = rec.version.wrapping_add(1).max(1);
            rec.last_writer = writer;
        }
        Ok(())
    }

    /// Installs a page version received from a replication stream.
    ///
    /// Unlike [`GuestMemory::write_page`], this does not bump the version —
    /// it makes the local page identical to the sender's.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] if `page` is beyond the address
    /// space.
    pub fn install_page(&mut self, page: PageId, incoming: PageVersion) -> HvResult<()> {
        let limit = self.num_pages();
        let rec = self
            .pages
            .get_mut(page.frame() as usize)
            .ok_or(HvError::PageOutOfRange {
                page: page.frame(),
                limit,
            })?;
        *rec = incoming;
        Ok(())
    }

    /// [`GuestMemory::install_page`] on every `(page, version)` of `batch`,
    /// in order (a frame listed twice ends with its later record): every
    /// frame is range-checked first, then one pass installs them.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] naming the first frame beyond
    /// the address space; nothing is installed then.
    pub fn install_batch(&mut self, batch: &[(PageId, PageVersion)]) -> HvResult<()> {
        let limit = self.num_pages();
        if let Some(&(page, _)) = batch.iter().find(|(page, _)| page.frame() >= limit) {
            return Err(HvError::PageOutOfRange {
                page: page.frame(),
                limit,
            });
        }
        for &(page, incoming) in batch {
            self.pages[page.frame() as usize] = incoming;
        }
        Ok(())
    }

    /// Iterates over all `(page, version)` pairs with a non-zero version.
    pub fn touched_iter(&self) -> impl Iterator<Item = (PageId, PageVersion)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.version != 0)
            .map(|(i, rec)| (PageId::new(i as u64), *rec))
    }

    /// Materialises the full 4 KiB byte image of `page`.
    ///
    /// The bytes are a pure function of `(frame, version)`, so a page
    /// installed on the replica with the same version materialises to the
    /// identical image — this is how byte-exactness is asserted in tests
    /// without storing payloads.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] if `page` is beyond the address
    /// space.
    pub fn materialize(&self, page: PageId) -> HvResult<Box<[u8; PAGE_SIZE as usize]>> {
        let rec = self.page(page)?;
        Ok(materialize_content(page, rec))
    }

    /// `true` when every page of `self` matches `other` (same versions).
    ///
    /// Compares a chunk of records at a time, OR-folding each pair's
    /// `version` and `last_writer` differences without a branch, so the
    /// consistency check over the whole address space runs as a straight
    /// vectorisable loop and stops at the first chunk that differs.
    pub fn content_equals(&self, other: &GuestMemory) -> bool {
        const CHUNK: usize = 256;
        self.pages.len() == other.pages.len()
            && self
                .pages
                .chunks(CHUNK)
                .zip(other.pages.chunks(CHUNK))
                .all(|(a, b)| {
                    a.iter().zip(b).fold(0u32, |diff, (x, y)| {
                        diff | (x.version ^ y.version) | u32::from(x.last_writer ^ y.last_writer)
                    }) == 0
                })
    }

    /// Returns the frames at which `self` and `other` differ (for test
    /// diagnostics). Capped at `max` entries.
    pub fn diff(&self, other: &GuestMemory, max: usize) -> Vec<PageId> {
        self.pages
            .iter()
            .zip(other.pages.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| PageId::new(i as u64))
            .take(max)
            .collect()
    }
}

/// Deterministically expands a page record into its 4 KiB byte image.
///
/// Version 0 is the all-zeroes page.
pub fn materialize_content(page: PageId, rec: PageVersion) -> Box<[u8; PAGE_SIZE as usize]> {
    let mut buf = Box::new([0u8; PAGE_SIZE as usize]);
    materialize_content_into(page, rec, &mut buf);
    buf
}

/// Allocation-free variant of [`materialize_content`]: expands the page
/// image into a caller-owned buffer. This is the one-page reference the
/// group generator below must match byte for byte.
pub fn materialize_content_into(
    page: PageId,
    rec: PageVersion,
    buf: &mut [u8; PAGE_SIZE as usize],
) {
    if rec.version == 0 {
        buf.fill(0);
        return;
    }
    let mut state = content_seed(page, rec);
    for chunk in buf.chunks_exact_mut(8) {
        state = splitmix(state);
        chunk.copy_from_slice(&state.to_le_bytes());
    }
}

/// Pages generated per lock-step group.
///
/// One page image is a single `splitmix` dependency chain (~4 ns a word);
/// the chains of different pages are independent, so advancing four of
/// them in one loop iteration lets the core overlap their latencies.
pub const GROUP_PAGES: usize = 4;

/// `u64` words in one page image: the iterations of the lock-step loop.
pub const PAGE_WORDS: usize = PAGE_SIZE as usize / 8;

/// Expands [`GROUP_PAGES`] page records in lock-step, page `k`'s image
/// going to `dst[offset + k * stride..][..PAGE_SIZE]`. The bytes are
/// exactly what one [`materialize_content_into`] call per page produces.
///
/// # Panics
///
/// Panics if `stride` is shorter than a page or `dst` cannot hold the
/// four slots.
pub fn materialize_group_into(
    pages: &[(PageId, PageVersion); GROUP_PAGES],
    dst: &mut [u8],
    offset: usize,
    stride: usize,
) {
    materialize_group_interleaved(pages, dst, offset, stride, |_| {});
}

/// [`materialize_group_into`] with a caller-supplied step run once per
/// loop iteration, `between(i)` for `i` in `0..PAGE_WORDS`, after word `i`
/// of every page has been stored. Work whose dependency chain is
/// independent of the generator's (a checksum fold over bytes that are
/// already final) overlaps with it there instead of waiting for it.
///
/// # Panics
///
/// As [`materialize_group_into`].
#[inline]
pub fn materialize_group_interleaved(
    pages: &[(PageId, PageVersion); GROUP_PAGES],
    dst: &mut [u8],
    offset: usize,
    stride: usize,
    mut between: impl FnMut(usize),
) {
    const PAGE: usize = PAGE_SIZE as usize;
    assert!(stride >= PAGE, "group slots must not overlap");
    let (slot0, rest) = dst[offset..].split_at_mut(stride);
    let (slot1, rest) = rest.split_at_mut(stride);
    let (slot2, slot3) = rest.split_at_mut(stride);
    let mut slots = [
        &mut slot0[..PAGE],
        &mut slot1[..PAGE],
        &mut slot2[..PAGE],
        &mut slot3[..PAGE],
    ];
    let mut state = pages.map(|(page, rec)| content_seed(page, rec));
    let [a, b, c, d] = &mut slots;
    let words = a
        .chunks_exact_mut(8)
        .zip(b.chunks_exact_mut(8))
        .zip(c.chunks_exact_mut(8))
        .zip(d.chunks_exact_mut(8));
    for (i, (((a, b), c), d)) in words.enumerate() {
        state = state.map(splitmix);
        a.copy_from_slice(&state[0].to_le_bytes());
        b.copy_from_slice(&state[1].to_le_bytes());
        c.copy_from_slice(&state[2].to_le_bytes());
        d.copy_from_slice(&state[3].to_le_bytes());
        between(i);
    }
    // Never-written pages are rare in a dirty set; their chain ran for
    // nothing and the slot is cleared, which keeps the loop branch-free.
    for (slot, (_, rec)) in slots.iter_mut().zip(pages) {
        if rec.version == 0 {
            slot.fill(0);
        }
    }
}

#[inline]
fn content_seed(page: PageId, rec: PageVersion) -> u64 {
    splitmix(
        page.frame()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(rec.version as u64)
            .wrapping_add((rec.last_writer as u64) << 32),
    )
}

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mem_mib(mib: u64) -> GuestMemory {
        GuestMemory::new(ByteSize::from_mib(mib)).unwrap()
    }

    #[test]
    fn sizes_and_page_counts() {
        let mem = mem_mib(16);
        assert_eq!(mem.num_pages(), 4096);
        assert_eq!(mem.size(), ByteSize::from_mib(16));
        assert_eq!(mem.touched_pages(), 0);
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(GuestMemory::new(ByteSize::ZERO).is_err());
        assert!(GuestMemory::new(ByteSize::from_bytes(4097)).is_err());
    }

    #[test]
    fn writes_bump_versions_and_record_writer() {
        let mut mem = mem_mib(1);
        let p = PageId::new(5);
        mem.write_page(p, VcpuId::new(2)).unwrap();
        mem.write_page(p, VcpuId::new(3)).unwrap();
        let rec = mem.page(p).unwrap();
        assert_eq!(rec.version, 2);
        assert_eq!(rec.last_writer, 3);
        assert_eq!(mem.touched_pages(), 1);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let mut mem = mem_mib(1);
        let bad = PageId::new(mem.num_pages());
        assert!(matches!(
            mem.write_page(bad, VcpuId::new(0)),
            Err(HvError::PageOutOfRange { .. })
        ));
        assert!(mem.page(bad).is_err());
        assert!(mem.materialize(bad).is_err());
    }

    #[test]
    fn install_makes_replicas_identical() {
        let mut primary = mem_mib(1);
        let mut replica = mem_mib(1);
        for f in [1u64, 9, 200] {
            primary.write_page(PageId::new(f), VcpuId::new(0)).unwrap();
        }
        for (page, rec) in primary.touched_iter().collect::<Vec<_>>() {
            replica.install_page(page, rec).unwrap();
        }
        assert!(primary.content_equals(&replica));
        assert_eq!(replica.touched_pages(), 3);
        assert!(primary.diff(&replica, 10).is_empty());
    }

    fn rec(version: u32, last_writer: u16) -> PageVersion {
        PageVersion {
            version,
            last_writer,
        }
    }

    /// The reference `install_batch` must equal: one `install_page` per
    /// record, in order.
    fn install_each(mem: &mut GuestMemory, batch: &[(PageId, PageVersion)]) {
        for &(page, incoming) in batch {
            mem.install_page(page, incoming).unwrap();
        }
    }

    #[test]
    fn install_batch_is_the_install_page_loop() {
        let mut mem = mem_mib(1);
        mem.write_page(PageId::new(3), VcpuId::new(1)).unwrap();
        mem.write_page(PageId::new(4), VcpuId::new(1)).unwrap();
        let batches: [&[(PageId, PageVersion)]; 4] = [
            // 0 → v, v → 0, v → v′ and 0 → 0.
            &[
                (PageId::new(1), rec(5, 2)),
                (PageId::new(3), rec(0, 0)),
                (PageId::new(4), rec(9, 3)),
                (PageId::new(6), rec(0, 0)),
            ],
            // A frame repeated in one batch: the later record wins, and
            // 0 → v → 0 leaves the frame pristine.
            &[
                (PageId::new(7), rec(2, 1)),
                (PageId::new(7), rec(0, 0)),
                (PageId::new(8), rec(0, 0)),
                (PageId::new(8), rec(4, 0)),
                (PageId::new(1), rec(6, 3)),
                (PageId::new(1), rec(7, 1)),
            ],
            &[],
            // The last frame of the address space.
            &[(PageId::new(255), rec(1, 0))],
        ];
        let mut reference = mem.clone();
        for batch in batches {
            install_each(&mut reference, batch);
            mem.install_batch(batch).unwrap();
            assert_eq!(mem, reference, "batch {batch:?}");
        }
        assert_eq!(mem.page(PageId::new(1)).unwrap(), rec(7, 1));
        assert_eq!(mem.page(PageId::new(8)).unwrap(), rec(4, 0));
        assert_eq!(mem.touched_pages(), 4, "frames 1, 4, 8 and 255");
    }

    #[test]
    fn install_batch_out_of_range_installs_nothing() {
        let mut mem = mem_mib(1);
        mem.write_page(PageId::new(2), VcpuId::new(0)).unwrap();
        let before = mem.clone();
        let limit = mem.num_pages();
        let batch = [
            (PageId::new(1), rec(3, 1)),
            (PageId::new(2), rec(0, 0)),
            (PageId::new(limit + 7), rec(1, 0)),
            (PageId::new(limit), rec(1, 0)),
        ];
        assert_eq!(
            mem.install_batch(&batch),
            Err(HvError::PageOutOfRange {
                page: limit + 7,
                limit
            })
        );
        assert_eq!(mem, before);
    }

    #[test]
    fn content_equals_is_the_field_wise_compare() {
        let base = mem_mib(1);
        let last = PageId::new(base.num_pages() - 1);
        let mut cases: Vec<(&str, GuestMemory, GuestMemory)> = Vec::new();
        let mut writer = base.clone();
        writer.install_page(PageId::new(200), rec(1, 2)).unwrap();
        let mut other_writer = base.clone();
        other_writer
            .install_page(PageId::new(200), rec(1, 3))
            .unwrap();
        cases.push(("only last_writer", writer.clone(), other_writer));
        let mut version = base.clone();
        version.install_page(PageId::new(44), rec(2, 2)).unwrap();
        let mut other_version = base.clone();
        other_version
            .install_page(PageId::new(44), rec(3, 2))
            .unwrap();
        cases.push(("only version", version, other_version));
        let mut tail = base.clone();
        tail.install_page(last, rec(1, 0)).unwrap();
        cases.push(("the last page", base.clone(), tail));
        cases.push(("length", base.clone(), mem_mib(2)));
        cases.push(("equal", writer.clone(), writer));
        cases.push(("pristine", base.clone(), base));
        for (what, a, b) in cases {
            let field_wise = a.records() == b.records();
            assert_eq!(a.content_equals(&b), field_wise, "{what}");
            assert_eq!(b.content_equals(&a), field_wise, "{what}");
        }
    }

    #[test]
    fn materialization_is_deterministic_and_version_sensitive() {
        let mut mem = mem_mib(1);
        let p = PageId::new(3);
        let zero = mem.materialize(p).unwrap();
        assert!(zero.iter().all(|&b| b == 0));
        mem.write_page(p, VcpuId::new(1)).unwrap();
        let v1a = mem.materialize(p).unwrap();
        let v1b = mem.materialize(p).unwrap();
        assert_eq!(v1a, v1b);
        mem.write_page(p, VcpuId::new(1)).unwrap();
        let v2 = mem.materialize(p).unwrap();
        assert_ne!(v1a, v2);
    }

    #[test]
    fn diff_reports_divergent_frames() {
        let mut a = mem_mib(1);
        let b = mem_mib(1);
        a.write_page(PageId::new(4), VcpuId::new(0)).unwrap();
        a.write_page(PageId::new(8), VcpuId::new(0)).unwrap();
        let d = a.diff(&b, 10);
        assert_eq!(d, vec![PageId::new(4), PageId::new(8)]);
        assert_eq!(a.diff(&b, 1).len(), 1);
    }

    #[test]
    fn touched_iter_lists_only_written_pages() {
        let mut mem = mem_mib(1);
        mem.write_page(PageId::new(0), VcpuId::new(0)).unwrap();
        mem.write_page(PageId::new(255), VcpuId::new(1)).unwrap();
        let touched: Vec<u64> = mem.touched_iter().map(|(p, _)| p.frame()).collect();
        assert_eq!(touched, vec![0, 255]);
    }

    #[test]
    fn interleaved_step_runs_once_per_word_row() {
        let pages = [(PageId::new(1), PageVersion::default()); GROUP_PAGES];
        let mut dst = vec![0u8; GROUP_PAGES * PAGE_SIZE as usize];
        let mut seen = Vec::new();
        materialize_group_interleaved(&pages, &mut dst, 0, PAGE_SIZE as usize, |i| seen.push(i));
        assert_eq!(seen, (0..PAGE_WORDS).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lock-step generator is bit-identical to four one-page
        /// reference calls, pristine and wrapped versions included, and
        /// writes nothing outside its four slots.
        #[test]
        fn group_generator_matches_four_single_pages(
            raw in proptest::array::uniform4((any::<u64>(), any::<u32>(), any::<u16>(), 0u8..4)),
            offset in 0usize..32,
            gap in 0usize..32,
        ) {
            let pages = raw.map(|(frame, version, last_writer, kind)| {
                let version = match kind {
                    0 => 0,
                    1 => u32::MAX,
                    _ => version,
                };
                (PageId::new(frame), PageVersion { version, last_writer })
            });
            let page = PAGE_SIZE as usize;
            let stride = page + gap;
            let mut expected = vec![0xa5u8; offset + GROUP_PAGES * stride];
            for (k, &(id, rec)) in pages.iter().enumerate() {
                let at = offset + k * stride;
                let slot: &mut [u8; PAGE_SIZE as usize] =
                    (&mut expected[at..at + page]).try_into().unwrap();
                materialize_content_into(id, rec, slot);
            }
            // The last slot needs no trailing gap.
            let mut got = vec![0xa5u8; offset + GROUP_PAGES * stride];
            materialize_group_into(&pages, &mut got, offset, stride);
            prop_assert!(got == expected, "group image diverged from the one-page reference");
            let mut tight = vec![0xa5u8; offset + (GROUP_PAGES - 1) * stride + page];
            materialize_group_into(&pages, &mut tight, offset, stride);
            prop_assert!(tight[..] == expected[..tight.len()], "tight destination diverged");
        }
    }
}
