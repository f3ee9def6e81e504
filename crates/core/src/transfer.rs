//! The dirty-page harvest (§7.2).
//!
//! Continuous checkpointing builds no page list: the primary stays
//! paused from *Pause* to *Resume*, so the epoch's dirty snapshot over
//! the primary's record table already is one. A [`DirtySnapshot`] keeps
//! the bitmap and how many dirty pages lie before each 2 MiB chunk, and
//! an encode task walks its ordinal range of the dirty pages straight
//! out of it (`DirtySnapshot::pages`).
//!
//! [`collect_chunked_into`] builds the list, and now serves the seeding
//! rounds (a pre-copy round runs the guest between its collect and its
//! ship, so its versions must be captured when it collects) and external
//! callers only. Guest memory is split into the paper's 2 MiB chunks,
//! which the worker lanes claim one at a time in chunk order; a lane
//! scans the shared dirty bitmap over the chunk it claimed and writes its
//! pages straight into their final slots of the delta. Either way the
//! bitmap words are walked by internal iteration (`DirtyPagesIter`'s
//! `fold`: one `trailing_zeros` loop per word) and each version is read
//! straight from the memory's record table ([`GuestMemory::records`]), so
//! the per-page cost is a bit peel, a load and a store. Seeding adds the
//! paper's "problematic" pages: pages that different migrator threads
//! sent across rounds (possible cross-vCPU write races), which
//! [`ProblematicTracker`] keeps for mandatory resend in the final
//! stop-and-copy.
//!
//! The lanes are real threads, the parked workers of a [`LanePool`];
//! only the *reported durations* come from the calibrated [`CostModel`],
//! keeping results host-independent.
//!
//! [`CostModel`]: crate::config::CostModel

use std::collections::HashMap;
use std::sync::Arc;

use here_hypervisor::dirty::{DirtyBitmap, DirtyPagesIter};
use here_hypervisor::memory::{GuestMemory, PageVersion};
use here_hypervisor::PageId;
use here_vmstate::MemoryDelta;

use crate::dataplane::LanePool;

/// HERE's chunk size: 2 MiB (§7.2).
pub const CHUNK_BYTES: u64 = 2 * 1024 * 1024;
/// Pages per chunk.
pub const PAGES_PER_CHUNK: u64 = CHUNK_BYTES / here_hypervisor::PAGE_SIZE;

/// Reusable scratch for [`collect_chunked_into`]: each chunk's dirty-page
/// count, which places the chunk's pages in the output, and the lane pool
/// whose parked workers scan the chunks. Kept across checkpoints so the
/// steady-state loop neither regrows the table nor creates a thread.
#[derive(Debug, Default)]
pub struct CollectScratch {
    counts: Vec<usize>,
    lanes: Arc<LanePool>,
}

impl CollectScratch {
    /// Empty scratch with a lane pool of its own; the count table grows on
    /// first use and the workers spawn on first use, and both are kept.
    pub fn new() -> Self {
        CollectScratch::default()
    }

    /// Empty scratch whose chunk workers are `lanes`' (a session's one
    /// set of workers).
    pub(crate) fn sharing(lanes: Arc<LanePool>) -> Self {
        CollectScratch {
            counts: Vec::new(),
            lanes,
        }
    }
}

/// Scans `dirty` over `memory` with `workers` chunk lanes; the delta
/// (ascending frame order) replaces the contents of `out`. The per-chunk
/// counts live in `scratch`, and `scratch` and `out` both keep their
/// allocations across checkpoints.
///
/// The chunks' dirty counts (word popcounts, no per-page work) fix where
/// each chunk's run of pages starts in `out`, so `out` is sized once and
/// cut into one disjoint slice per chunk. The lanes claim chunks, with
/// their slices, one at a time in chunk order (`LanePool::for_each`);
/// each chunk is handed out once, so lanes write disjoint outputs — the
/// property the paper relies on for its per-thread region ownership.
/// Each page is written once, into its final slot: the output is in
/// ascending frame order by construction, with no lane buffers and no
/// merge. The calling thread is one lane; the others run on `scratch`'s
/// parked pool workers.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn collect_chunked_into(
    memory: &GuestMemory,
    dirty: &DirtyBitmap,
    workers: u32,
    scratch: &mut CollectScratch,
    out: &mut MemoryDelta,
) {
    assert!(workers >= 1, "at least one transfer worker is required");
    let num_pages = memory.num_pages();
    let num_chunks = num_pages.div_ceil(PAGES_PER_CHUNK);
    if workers == 1 || num_chunks <= 1 {
        // One lane visiting every chunk is simply an ascending full scan.
        let slots = out.slots_mut(dirty.count_in_range(0, num_pages) as usize);
        fill_slots(memory, dirty.iter_range(0, num_pages), slots);
        return;
    }

    let CollectScratch { counts, lanes } = scratch;
    counts.clear();
    counts.extend((0..num_chunks).map(|chunk| chunk_count(dirty, chunk)));
    let mut rest = out.slots_mut(counts.iter().sum());
    let chunks = counts.iter().map(|&count| {
        let (slots, tail) = std::mem::take(&mut rest).split_at_mut(count);
        rest = tail;
        slots
    });
    lanes.for_each(chunks, workers as usize - 1, |chunk, slots| {
        let lo = chunk as u64 * PAGES_PER_CHUNK;
        fill_slots(memory, dirty.iter_range(lo, lo + PAGES_PER_CHUNK), slots);
    });
}

/// Dirty pages in chunk `chunk` of `dirty`, by word popcounts.
fn chunk_count(dirty: &DirtyBitmap, chunk: u64) -> usize {
    let lo = chunk * PAGES_PER_CHUNK;
    dirty.count_in_range(lo, lo + PAGES_PER_CHUNK) as usize
}

/// An epoch's harvest, kept whole while the primary stays paused: the
/// dirty snapshot, and how many dirty pages lie before each 2 MiB chunk
/// (the per-chunk popcounts [`collect_chunked_into`] places its chunks
/// by, summed). No page list is built: an encode task reads an ordinal
/// range of the dirty pages straight from the bitmap and the paused
/// primary's record table (`DirtySnapshot::pages`), and the count table
/// finds where that range starts without walking the pages before it.
#[derive(Debug)]
pub struct DirtySnapshot {
    bitmap: DirtyBitmap,
    /// `starts[c]`: dirty pages in the chunks before chunk `c`; one entry
    /// more than there are chunks, the last the total.
    starts: Vec<usize>,
}

impl Default for DirtySnapshot {
    fn default() -> Self {
        DirtySnapshot {
            bitmap: DirtyBitmap::new(0),
            starts: vec![0],
        }
    }
}

impl DirtySnapshot {
    /// Makes `bitmap` the snapshot, counting its chunks into the table
    /// kept from the last epoch (regrown only if the guest grew).
    pub(crate) fn retake(&mut self, bitmap: DirtyBitmap) {
        let chunks = bitmap.num_pages().div_ceil(PAGES_PER_CHUNK);
        self.starts.clear();
        self.starts.push(0);
        let mut total = 0;
        for chunk in 0..chunks {
            total += chunk_count(&bitmap, chunk);
            self.starts.push(total);
        }
        self.bitmap = bitmap;
    }

    /// The snapshot's dirty bitmap.
    pub(crate) fn bitmap(&self) -> &DirtyBitmap {
        &self.bitmap
    }

    /// Dirty pages in the snapshot.
    pub(crate) fn len(&self) -> usize {
        *self.starts.last().expect("the table ends with the total")
    }

    /// The frame dirty page `k` (in frame order, from 0) sits at; the
    /// guest's end for `k` at or past the last.
    fn frame_of(&self, k: usize) -> u64 {
        if k >= self.len() {
            return self.bitmap.num_pages();
        }
        let chunk = self.starts.partition_point(|&before| before <= k) - 1;
        let first = chunk as u64 * PAGES_PER_CHUNK;
        self.bitmap
            .nth_from(first, (k - self.starts[chunk]) as u64)
            .expect("the count table places page k in this chunk")
    }

    /// Dirty pages `lo..hi` in frame order, each with its version from
    /// `records`, the paused memory's record table: the bitmap words
    /// between the two pages, peeled by `DirtyPagesIter` (a `fold` when
    /// consumed whole), and an index for each version (the bitmap marks
    /// only the memory's own frames). Cloning it walks the range again.
    pub(crate) fn pages<'a>(
        &'a self,
        records: &'a [PageVersion],
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = (PageId, PageVersion)> + Clone + 'a {
        let pages = self.bitmap.iter_range(self.frame_of(lo), self.frame_of(hi));
        pages.map(|page| (page, records[page.frame() as usize]))
    }

    /// The snapshot's pages with their versions in `memory` as a delta,
    /// replacing `out`'s contents: the page list a replica that missed
    /// the epoch takes into its backlog, built only then.
    pub(crate) fn collect_into(&self, memory: &GuestMemory, out: &mut MemoryDelta) {
        fill_slots(memory, self.bitmap.iter(), out.slots_mut(self.len()));
    }
}

/// Writes `(page, version)` for each of `pages` into `slots`, which the
/// caller sized to the number of pages by popcount. The bitmap is walked
/// by internal iteration (one loop per word) and each version is read
/// straight from the record table: the dirty bitmap marks only the
/// memory's own frames, so an index replaces `page()`'s `Result`. Every
/// slot must be written: the slots still hold last epoch's entries.
fn fill_slots(
    memory: &GuestMemory,
    pages: DirtyPagesIter<'_>,
    slots: &mut [(PageId, PageVersion)],
) {
    let records = memory.records();
    let mut slots = slots.iter_mut();
    pages.for_each(|page| {
        let slot = slots
            .next()
            .expect("slots are sized by the range's popcount");
        *slot = (page, records[page.frame() as usize]);
    });
    assert!(
        slots.next().is_none(),
        "the range's popcount lent more slots than it has pages"
    );
}

/// Tracks pages sent by more than one seeding thread across migration
/// rounds — the paper's "problematic" pages (§7.2, scheme 1), which may
/// have been modified by multiple vCPUs mid-copy and must be resent during
/// the final stop-and-copy.
#[derive(Debug, Default)]
pub struct ProblematicTracker {
    last_sender: HashMap<u64, u16>,
    problematic: HashMap<u64, ()>,
}

impl ProblematicTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ProblematicTracker::default()
    }

    /// Records that seeding thread `sender` transferred `page` this round.
    /// A page previously transferred by a *different* thread becomes
    /// problematic.
    pub fn record(&mut self, page: PageId, sender: u16) {
        match self.last_sender.insert(page.frame(), sender) {
            Some(prev) if prev != sender => {
                self.problematic.insert(page.frame(), ());
            }
            _ => {}
        }
    }

    /// Records a whole per-thread delta.
    pub fn record_delta(&mut self, delta: &MemoryDelta, sender: u16) {
        for &(page, _) in delta.entries() {
            self.record(page, sender);
        }
    }

    /// Number of problematic pages so far.
    pub(crate) fn len(&self) -> usize {
        self.problematic.len()
    }

    /// `true` if no page is problematic.
    pub fn is_empty(&self) -> bool {
        self.problematic.is_empty()
    }

    /// The problematic pages, ascending — the resend list for the final
    /// stop-and-copy.
    pub fn resend_list(&self) -> Vec<PageId> {
        let mut v: Vec<u64> = self.problematic.keys().copied().collect();
        v.sort_unstable();
        v.into_iter().map(PageId::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_hypervisor::memory::PageVersion;
    use here_hypervisor::{VcpuId, PAGE_SIZE};
    use here_sim_core::rate::ByteSize;

    fn memory_with_dirty(frames: &[u64]) -> (GuestMemory, DirtyBitmap) {
        let mut mem = GuestMemory::new(ByteSize::from_mib(32)).unwrap(); // 8192 pages
        let mut bm = DirtyBitmap::new(mem.num_pages());
        for &f in frames {
            mem.write_page(PageId::new(f), VcpuId::new(0)).unwrap();
            bm.mark(PageId::new(f));
        }
        (mem, bm)
    }

    fn collect_fresh(mem: &GuestMemory, bm: &DirtyBitmap, workers: u32) -> MemoryDelta {
        let mut out = MemoryDelta::new();
        collect_chunked_into(mem, bm, workers, &mut CollectScratch::new(), &mut out);
        out
    }

    #[test]
    fn chunked_collection_matches_single_threaded() {
        let frames: Vec<u64> = (0..8192).step_by(7).collect();
        let (mem, bm) = memory_with_dirty(&frames);
        let single = collect_fresh(&mem, &bm, 1);
        for workers in [2, 3, 4, 8] {
            let multi = collect_fresh(&mem, &bm, workers);
            assert_eq!(multi, single, "workers={workers}");
        }
        assert_eq!(single.len(), frames.len());
    }

    #[test]
    fn chunked_collection_carries_correct_versions() {
        let (mut mem, mut bm) = memory_with_dirty(&[10, 600, 4000]);
        mem.write_page(PageId::new(600), VcpuId::new(2)).unwrap();
        bm.mark(PageId::new(600));
        let delta = collect_fresh(&mem, &bm, 4);
        let v600 = delta
            .entries()
            .iter()
            .find(|&&(p, _)| p.frame() == 600)
            .unwrap()
            .1;
        assert_eq!(
            v600,
            PageVersion {
                version: 2,
                last_writer: 2
            }
        );
    }

    #[test]
    fn empty_bitmap_collects_nothing() {
        let (mem, _) = memory_with_dirty(&[]);
        let bm = DirtyBitmap::new(mem.num_pages());
        assert!(collect_fresh(&mem, &bm, 4).is_empty());
    }

    #[test]
    fn more_workers_than_chunks_is_fine() {
        let mut mem = GuestMemory::new(ByteSize::from_mib(4)).unwrap(); // 2 chunks
        let mut bm = DirtyBitmap::new(mem.num_pages());
        mem.write_page(PageId::new(5), VcpuId::new(0)).unwrap();
        bm.mark(PageId::new(5));
        let delta = collect_fresh(&mem, &bm, 64);
        assert_eq!(delta.len(), 1);
    }

    /// The one-lane scan [`collect_chunked_into`] must reproduce for every
    /// worker count: each dirty page in ascending order, pushed one by one.
    fn collect_one_lane(memory: &GuestMemory, dirty: &DirtyBitmap) -> MemoryDelta {
        let mut out = MemoryDelta::new();
        for page in dirty.iter() {
            out.push(page, memory.page(page).unwrap());
        }
        out
    }

    #[test]
    fn pooled_collection_reuses_buffers_and_matches() {
        let frames: Vec<u64> = (0..8192).step_by(5).collect();
        let (mem, bm) = memory_with_dirty(&frames);
        let reference = collect_one_lane(&mem, &bm);
        let mut scratch = CollectScratch::new();
        let mut out = MemoryDelta::new();
        for workers in [1u32, 2, 4, 8] {
            collect_chunked_into(&mem, &bm, workers, &mut scratch, &mut out);
            assert_eq!(out, reference, "workers={workers}");
        }
        // Steady state: another round must not regrow the count table, and
        // the output is filled in place of the last round's.
        let counts = scratch.counts.capacity();
        collect_chunked_into(&mem, &bm, 4, &mut scratch, &mut out);
        assert_eq!(scratch.counts.capacity(), counts, "count table regrown");
        assert_eq!(scratch.counts.len() as u64, 8192 / PAGES_PER_CHUNK);
        assert_eq!(scratch.counts.iter().sum::<usize>(), frames.len());
        assert_eq!(out, reference);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Direct-slot harvest equals the one-lane scan for 1–8 workers on
        /// random bitmaps with empty chunks, a partial last chunk and
        /// memories smaller than one chunk, and replaces whatever `out`
        /// held before.
        #[test]
        fn direct_slots_are_the_one_lane_scan(
            pages in 1u64..3000,
            frames in proptest::collection::vec(0u64..3000, 0..900),
            empty_chunks in proptest::prelude::any::<u8>(),
            workers in 1u32..9,
            stale in 0usize..40,
        ) {
            let mut mem = GuestMemory::new(ByteSize::from_bytes(pages * PAGE_SIZE)).unwrap();
            let mut bm = DirtyBitmap::new(pages);
            for &f in &frames {
                let chunk = f / PAGES_PER_CHUNK;
                if f < pages && empty_chunks & (1 << chunk) == 0 {
                    mem.write_page(PageId::new(f), VcpuId::new((f % 3) as u32)).unwrap();
                    bm.mark(PageId::new(f));
                }
            }
            let mut out = collect_one_lane(&mem, &bm);
            let reference = out.clone();
            for f in 0..stale as u64 {
                out.push(PageId::new(f), PageVersion::default());
            }
            collect_chunked_into(&mem, &bm, workers, &mut CollectScratch::new(), &mut out);
            proptest::prop_assert_eq!(out, reference);
        }
    }

    #[test]
    fn problematic_tracker_flags_cross_thread_pages() {
        let mut t = ProblematicTracker::new();
        t.record(PageId::new(7), 0);
        t.record(PageId::new(7), 0); // same thread again: fine
        assert!(t.is_empty());
        t.record(PageId::new(7), 1); // a different vCPU sent it: problematic
        t.record(PageId::new(9), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.resend_list(), vec![PageId::new(7)]);
    }

    #[test]
    fn problematic_tracker_via_deltas() {
        let rec = PageVersion::default();
        let d0: MemoryDelta = [(PageId::new(1), rec), (PageId::new(2), rec)]
            .into_iter()
            .collect();
        let d1: MemoryDelta = [(PageId::new(2), rec)].into_iter().collect();
        let mut t = ProblematicTracker::new();
        t.record_delta(&d0, 0);
        t.record_delta(&d1, 1);
        assert_eq!(t.resend_list(), vec![PageId::new(2)]);
    }
}
