//! What a replica holds after an epoch: the receive path checks a stream,
//! then installs straight from its bytes, so nothing it keeps grows with
//! the epoch's page count. Live heap is counted by a `#[global_allocator]`
//! over the whole process, so the checks run in one test, one after the
//! other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use here_core::dataplane::{
    encode_pages_round, BufferPool, EncodePlan, LanePool, PayloadMode, SegmentRestorer,
};
use here_core::{FanoutMode, ReplicationConfig, Scenario, TopologyConfig};
use here_hypervisor::memory::{GuestMemory, PageVersion};
use here_hypervisor::{PageId, PAGE_SIZE};
use here_sim_core::rate::ByteSize;
use here_sim_core::time::SimDuration;
use here_vmstate::wire::{VERSION, VERSION_V3};
use here_vmstate::MemoryDelta;
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

/// Pages in the epoch: a quarter-million, as in a large YCSB epoch.
const EPOCH_PAGES: u64 = 250_000;

/// Live heap a replica may keep beyond what it held before an epoch:
/// a few small vectors, nothing per page (an epoch's `(PageId,
/// PageVersion)` list alone is 4 MB).
const RETAINED_SLACK: usize = 64 << 10;

/// A 250 k-page epoch through `SegmentRestorer`, v2 metadata and v3
/// columns: once every segment is in, with the restorer still alive,
/// live heap is what it was before the restorer was made.
fn restorer_keeps_nothing_epoch_sized() {
    let delta: MemoryDelta = (0..EPOCH_PAGES)
        .map(|f| {
            let rec = PageVersion {
                version: 1 + (f % 7) as u32,
                last_writer: (f % 3) as u16,
            };
            (PageId::new(f), rec)
        })
        .collect();
    let lanes = LanePool::new();
    let mut pool = BufferPool::new();
    for (version, mode) in [
        (VERSION, PayloadMode::Metadata),
        (VERSION_V3, PayloadMode::Columnar { base_epoch: 0 }),
    ] {
        let plan = EncodePlan {
            lanes: 2,
            mode,
            chunk_pages: None,
            window: None,
        };
        let mut segments: Vec<Bytes> = Vec::new();
        encode_pages_round(&delta, &plan, &mut pool, &lanes, |_, segment| {
            segments.push(segment)
        });
        let mut replica = GuestMemory::new(ByteSize::from_bytes(EPOCH_PAGES * PAGE_SIZE)).unwrap();
        let before = LIVE.load(Ordering::Relaxed);
        let mut restorer = SegmentRestorer::new_versioned(&mut replica, false, version);
        for segment in &segments {
            restorer.accept(segment).unwrap();
        }
        let retained = LIVE.load(Ordering::Relaxed).saturating_sub(before);
        assert_eq!(restorer.installed(), EPOCH_PAGES);
        assert!(
            retained < RETAINED_SLACK,
            "wire v{version}: the restorer kept {retained} bytes after a {EPOCH_PAGES}-page epoch"
        );
        drop(restorer);
        assert_eq!(replica.touched_pages(), EPOCH_PAGES);
    }
}

/// Peak live heap of a replicated run of a 1 GiB guest whose epochs each
/// dirty a quarter-million pages, with `replicas` replicas.
fn run_peak(replicas: u32) -> usize {
    let cfg =
        ReplicationConfig::fixed_period(SimDuration::from_secs(1)).with_topology(TopologyConfig {
            replicas,
            quorum: replicas.div_ceil(2),
            fanout: FanoutMode::Star,
            stale_epoch_lag: 4,
        });
    let scenario = Scenario::builder()
        .name("receive-memory")
        .vm_memory_gib(1)
        .vcpus(1)
        .workload(Box::new(MemStress::with_percent(100).with_rate(1_000_000)))
        .config(cfg)
        .duration(SimDuration::from_secs(3))
        .seed(7)
        .build()
        .unwrap();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let report = scenario.run();
    let largest = report.checkpoints.iter().map(|c| c.dirty_pages).max();
    assert!(largest.unwrap_or(0) >= EPOCH_PAGES, "{largest:?}");
    drop(report);
    PEAK.load(Ordering::Relaxed)
}

/// Two more replicas add to a run's peak their images (a version record
/// per guest page) and fixed-size state, and no copy of an epoch.
fn a_replica_adds_its_image_and_no_epoch_copy() {
    let one = run_peak(1);
    let three = run_peak(3);
    let image = (ByteSize::from_gib(1).as_bytes() / PAGE_SIZE) as usize
        * std::mem::size_of::<PageVersion>();
    let per_replica = three.saturating_sub(one) / 2;
    assert!(
        per_replica < image + (1 << 20),
        "each replica added {per_replica} bytes to the peak; its image is {image}"
    );
}

#[test]
fn a_replica_retains_nothing_that_scales_with_an_epoch() {
    restorer_keeps_nothing_epoch_sized();
    a_replica_adds_its_image_and_no_epoch_copy();
}
