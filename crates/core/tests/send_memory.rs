//! What the primary holds for an epoch: its encode lanes read the dirty
//! snapshot over the paused primary's record table, so nothing on the
//! send side is sized by an epoch's page count but the stream itself.
//! Live heap is counted by a `#[global_allocator]` over the whole
//! process, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use here_core::trace::Stage;
use here_core::{ReplicationConfig, Scenario};
use here_hypervisor::memory::PageVersion;
use here_hypervisor::PAGE_SIZE;
use here_sim_core::rate::ByteSize;
use here_sim_core::time::SimDuration;
use here_workloads::memstress::MemStress;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping is two atomics and
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Pages in the largest epoch: a quarter-million, as in a large YCSB
/// epoch.
const EPOCH_PAGES: u64 = 250_000;

/// Live heap the run may hold beyond the two images and the largest
/// epoch's stream: the event log, the dirty bitmaps, fixed-size state.
/// An epoch's `(PageId, PageVersion)` list alone is 4 MB.
const SLACK: u64 = 1 << 20;

/// A 1 GiB guest with one replica over wire v2, whose epochs each dirty
/// a quarter-million pages: the run's peak live heap above what the
/// process held before it, less the primary's and the replica's images
/// (a version record per guest page each), stays under the largest
/// epoch's stream plus [`SLACK`].
#[test]
fn the_primary_keeps_no_per_epoch_page_copy() {
    let scenario = Scenario::builder()
        .name("send-memory")
        .vm_memory_gib(1)
        .vcpus(1)
        .workload(Box::new(MemStress::with_percent(100).with_rate(1_000_000)))
        .config(ReplicationConfig::fixed_period(SimDuration::from_secs(1)))
        .duration(SimDuration::from_secs(3))
        .seed(7)
        .build()
        .unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = scenario.run();
    let peak = (PEAK.load(Ordering::Relaxed) - before) as u64;

    let largest = report.checkpoints.iter().map(|c| c.dirty_pages).max();
    assert!(largest.unwrap_or(0) >= EPOCH_PAGES, "{largest:?}");
    let stream = report
        .stage_events
        .iter()
        .filter(|e| e.stage == Stage::Translate)
        .map(|e| e.bytes)
        .max()
        .expect("the run checkpointed");
    let image =
        ByteSize::from_gib(1).as_bytes() / PAGE_SIZE * std::mem::size_of::<PageVersion>() as u64;
    let above_images = peak.saturating_sub(2 * image);
    assert!(
        above_images < stream + SLACK,
        "the run's peak is {above_images} bytes above the two {image}-byte images; \
         its largest stream is {stream} bytes"
    );
}
