//! The two page workloads: real 4 KiB images through the v2 data plane
//! (`pages_v2_bulk`) and through the v3 classify/columns codec
//! (`pages_v3_sparse`). One op is one checkpoint epoch.

use std::time::Instant;

use bytes::{Bytes, BytesMut};
use here_core::dataplane::{
    encode_pages_round, BufferPool, EncodePlan, LanePool, PayloadMode, SegmentRestorer,
    DEFAULT_CHUNK_PAGES,
};
use here_core::transfer::{collect_chunked_into, CollectScratch};
use here_hypervisor::dirty::DirtyBitmap;
use here_hypervisor::memory::{GuestMemory, PageId, PageVersion, PAGE_SIZE};
use here_hypervisor::vcpu::VcpuId;
use here_sim_core::rate::ByteSize;
use here_vmstate::wire::{
    classify_page, encode_page_columns_into, write_preamble_versioned, PageColumnsBatch,
    PagePayload, Record, ScatterStream, StreamDecoder, VERSION_V3,
};
use here_vmstate::MemoryDelta;

use crate::stats::{mean, median, SplitMix64};
use crate::trace::Tracer;
use crate::{Ledger, Op, Workload};

const PAGE: usize = PAGE_SIZE as usize;
const VCPUS: u64 = 4;

/// Epochs run before timing starts, so buffer pools and lanes are warm.
pub const WARMUP_EPOCHS: u64 = 3;

// ---------------------------------------------------------------------
// pages_v2_bulk
// ---------------------------------------------------------------------

/// Guest size in pages: three times the nominal dirty set, so the window
/// rotates over memory the caches have long since evicted.
const V2_GUEST_PAGES: u64 = 3 * 16_384;
/// Contiguous pages rewritten per epoch.
const V2_WINDOW_PAGES: u64 = 16_128;
/// Single-page writes scattered over the whole guest per epoch. Those that
/// land inside the window dirty nothing new, so an epoch carries a little
/// under 16 384 pages (64 MiB), the exact count depending on the seed.
const V2_SCATTER_WRITES: u64 = 256;
const V2_LANES: u32 = 2;

/// How an epoch is encoded; the probes borrow it for their windowed rounds.
pub const V2_PLAN: EncodePlan = EncodePlan {
    lanes: V2_LANES,
    mode: PayloadMode::Materialized,
    chunk_pages: Some(DEFAULT_CHUNK_PAGES),
    window: Some(4),
};

pub struct V2Bulk {
    rng: SplitMix64,
    memory: GuestMemory,
    replica: GuestMemory,
    dirty: DirtyBitmap,
    window_at: u64,
    scratch: CollectScratch,
    delta: MemoryDelta,
    pool: BufferPool,
    lanes: LanePool,
    spent: Vec<Bytes>,
    steals: Vec<f64>,
    occupancy_pct: Vec<f64>,
}

impl V2Bulk {
    pub fn new(seed: u64) -> Self {
        let size = ByteSize::from_bytes(V2_GUEST_PAGES * PAGE_SIZE);
        let memory = GuestMemory::new(size).expect("guest size is a page multiple");
        let mut rng = SplitMix64::new(seed);
        let mut this = V2Bulk {
            window_at: rng.below(V2_GUEST_PAGES),
            rng,
            replica: memory.clone(),
            dirty: DirtyBitmap::new(memory.num_pages()),
            memory,
            scratch: CollectScratch::new(),
            delta: MemoryDelta::new(),
            pool: BufferPool::new(),
            lanes: LanePool::new(),
            spent: Vec::new(),
            steals: Vec::new(),
            occupancy_pct: Vec::new(),
        };
        let mut quiet = Tracer::new();
        for _ in 0..WARMUP_EPOCHS {
            let op = this.epoch(&mut quiet, &mut |seg| seg);
            assert!(op.ok, "pages_v2_bulk warm-up epoch failed its checks");
        }
        this.steals.clear();
        this.occupancy_pct.clear();
        this
    }

    /// The guest's epoch: rewrite the rotating window, then scatter a few
    /// writes over the whole address space.
    fn mutate(&mut self) {
        self.dirty.clear();
        let write = |memory: &mut GuestMemory, dirty: &mut DirtyBitmap, frame: u64| {
            let page = PageId::new(frame);
            memory
                .write_page(page, VcpuId::new((frame % VCPUS) as u32))
                .expect("frame is inside the guest");
            dirty.mark(page);
        };
        for i in 0..V2_WINDOW_PAGES {
            let frame = (self.window_at + i) % V2_GUEST_PAGES;
            write(&mut self.memory, &mut self.dirty, frame);
        }
        self.window_at = (self.window_at + V2_WINDOW_PAGES) % V2_GUEST_PAGES;
        for _ in 0..V2_SCATTER_WRITES {
            let frame = self.rng.below(V2_GUEST_PAGES);
            write(&mut self.memory, &mut self.dirty, frame);
        }
    }

    /// One epoch. `wire` stands for the link between the encode lanes and
    /// the replica: the identity in every run, a byte-flipper in the
    /// negative test.
    pub fn epoch(&mut self, tracer: &mut Tracer, wire: &mut dyn FnMut(Bytes) -> Bytes) -> Op {
        let generator = Instant::now();
        self.mutate();
        let generator_ns = generator.elapsed().as_nanos() as u64;
        let dirty_pages = self.dirty.count();

        let started = Instant::now();
        let op_span = tracer.open("op");
        self.delta.clear();
        let span = tracer.open("core.transfer.collect_chunked_into");
        collect_chunked_into(
            &self.memory,
            &self.dirty,
            V2_LANES,
            &mut self.scratch,
            &mut self.delta,
        );
        tracer.close(span);

        let span = tracer.open("core.dataplane.encode_pages_round");
        let mut restorer = SegmentRestorer::new(&mut self.replica, false);
        let (mut wire_bytes, mut decoded) = (0u64, true);
        let spent = &mut self.spent;
        let (_, stats) = encode_pages_round(
            &self.delta,
            &V2_PLAN,
            &mut self.pool,
            &self.lanes,
            |_, segment| {
                let segment = wire(segment);
                wire_bytes += segment.len() as u64;
                let accept = tracer.open("core.dataplane.SegmentRestorer.accept");
                decoded &= restorer.accept(&segment).is_ok();
                tracer.close(accept);
                spent.push(segment);
            },
        );
        let installed = restorer.installed();
        tracer.close(span);
        let mut wall_ns = started.elapsed().as_nanos() as u64;

        // Untimed: one rotating chunk is decoded a second time with the
        // byte-for-byte content check on, then the images are compared.
        let verify = tracer.open("benchmark.verify");
        let mut ok = decoded && installed == dirty_pages && self.delta.len() as u64 == dirty_pages;
        if let Some(sample) = self.spent.get(self.steals.len() % self.spent.len().max(1)) {
            ok &= SegmentRestorer::new(&mut self.replica, true)
                .accept(sample)
                .is_ok();
        }
        ok &= self.replica.content_equals(&self.memory);
        if !ok {
            // Resynchronise, so one bad epoch is counted once.
            self.replica = self.memory.clone();
        }
        tracer.close(verify);

        let recycling = Instant::now();
        let span = tracer.open("core.dataplane.BufferPool.recycle");
        for segment in self.spent.drain(..) {
            self.pool.recycle(segment);
        }
        tracer.close(span);
        tracer.close(op_span);
        wall_ns += recycling.elapsed().as_nanos() as u64;

        self.steals.push(stats.steals() as f64);
        self.occupancy_pct.push(stats.occupancy_pct());
        Op {
            wall_ns,
            generator_ns,
            pages: dirty_pages,
            wire_bytes,
            wire_pages: dirty_pages,
            ok,
        }
    }
}

impl Workload for V2Bulk {
    fn op(&mut self, _index: u64, tracer: &mut Tracer) -> Op {
        self.epoch(tracer, &mut |segment| segment)
    }

    fn layer_metrics(&self, tracer: &Tracer, ledger: &mut Ledger) {
        let ms = |ns: Vec<f64>| median(&ns) / 1e6;
        ledger.set(
            "core.dataplane.encode_self_ms",
            ms(tracer.per_op_ns("core.dataplane.encode_pages_round", true)),
        );
        ledger.set(
            "core.dataplane.restore_ms",
            ms(tracer.per_op_ns("core.dataplane.SegmentRestorer.accept", false)),
        );
        ledger.set(
            "core.dataplane.lane_occupancy_pct",
            mean(&self.occupancy_pct),
        );
        ledger.set("core.dataplane.steals_per_op", mean(&self.steals));
        let checkouts = (self.pool.hits() + self.pool.misses()).max(1);
        ledger.set(
            "core.dataplane.pool_miss_share",
            self.pool.misses() as f64 / checkouts as f64,
        );
    }
}

// ---------------------------------------------------------------------
// pages_v3_sparse
// ---------------------------------------------------------------------

pub const V3_PAGES: usize = 8_192;
const V3_CHUNK_PAGES: usize = DEFAULT_CHUNK_PAGES as usize;
/// Pages zeroed, and pages fully rewritten, per epoch: 10 % each. The
/// counts are exact so that bytes per page do not wander with the seed.
const V3_ZEROED: usize = V3_PAGES / 10;
const V3_REWRITTEN: usize = V3_PAGES / 10;
const V3_PATCH_BYTES: usize = 64;
const V3_PATCHES: usize = 3;

/// What the v3 classifier made of an epoch's pages.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ModeCounts {
    pub zero: u64,
    pub delta: u64,
    pub full: u64,
}

impl ModeCounts {
    pub fn note(&mut self, payload: &PagePayload) {
        match payload {
            PagePayload::Zero => self.zero += 1,
            PagePayload::Delta(_) => self.delta += 1,
            _ => self.full += 1,
        }
    }
}

/// Seeded page images and their per-epoch mutation: the only workload
/// input whose bytes the benchmark itself generates.
pub struct SparsePages {
    rng: SplitMix64,
    order: Vec<u32>,
    /// The image the last committed epoch left behind.
    pub committed: Vec<u8>,
    /// The image the guest has moved on to.
    pub current: Vec<u8>,
    pub versions: Vec<PageVersion>,
}

impl SparsePages {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut committed = vec![0u8; V3_PAGES * PAGE];
        rng.fill(&mut committed);
        SparsePages {
            rng,
            order: (0..V3_PAGES as u32).collect(),
            current: committed.clone(),
            committed,
            versions: vec![
                PageVersion {
                    version: 1,
                    last_writer: 0
                };
                V3_PAGES
            ],
        }
    }

    /// Commits the current image and has the guest write the next one:
    /// a tenth of the pages zeroed, a tenth rewritten whole, the rest
    /// given three 64-byte patches at distinct 64-byte slots.
    pub fn advance(&mut self) {
        self.committed.copy_from_slice(&self.current);
        self.rng.shuffle(&mut self.order);
        for (rank, &index) in self.order.iter().enumerate() {
            let index = index as usize;
            let page = &mut self.current[index * PAGE..(index + 1) * PAGE];
            if rank < V3_ZEROED {
                page.fill(0);
            } else if rank < V3_ZEROED + V3_REWRITTEN {
                self.rng.fill(page);
            } else {
                let mut slots = [0usize; V3_PATCHES];
                for k in 0..V3_PATCHES {
                    slots[k] = loop {
                        let slot = self.rng.below((PAGE / V3_PATCH_BYTES) as u64) as usize;
                        if !slots[..k].contains(&slot) {
                            break slot;
                        }
                    };
                    let at = slots[k] * V3_PATCH_BYTES;
                    self.rng.fill(&mut page[at..at + V3_PATCH_BYTES]);
                }
            }
            let record = &mut self.versions[index];
            record.version += 1;
            record.last_writer = (index as u64 % VCPUS) as u16;
        }
    }

    pub fn committed_page(&self, index: usize) -> &[u8] {
        &self.committed[index * PAGE..(index + 1) * PAGE]
    }

    pub fn current_page(&self, index: usize) -> &[u8] {
        &self.current[index * PAGE..(index + 1) * PAGE]
    }
}

pub struct V3Sparse {
    guest: SparsePages,
    replica: Vec<u8>,
    epoch: u64,
    buffer: Option<BytesMut>,
    preamble: Bytes,
}

impl V3Sparse {
    pub fn new(seed: u64) -> Self {
        let guest = SparsePages::new(seed);
        let mut preamble = BytesMut::with_capacity(8);
        write_preamble_versioned(&mut preamble, VERSION_V3);
        let mut this = V3Sparse {
            replica: guest.current.clone(),
            guest,
            epoch: 0,
            buffer: None,
            preamble: preamble.freeze(),
        };
        let mut quiet = Tracer::new();
        for _ in 0..WARMUP_EPOCHS {
            let op = this.epoch(&mut quiet, &mut |seg| seg);
            assert!(op.ok, "pages_v3_sparse warm-up epoch failed its checks");
        }
        this
    }

    /// Decodes one chunk's stream into the replica image; returns pages
    /// installed, or `None` when the stream does not decode or apply.
    fn apply(&mut self, tracer: &mut Tracer, segment: &Bytes) -> Option<u64> {
        let mut stream = ScatterStream::from(self.preamble.clone());
        stream.push(segment.clone());
        let mut decoder = StreamDecoder::new_negotiated(stream, VERSION_V3).ok()?;
        let mut installed = 0;
        loop {
            let span = tracer.open("vmstate.wire.StreamDecoder.next_record");
            let record = decoder.next_record();
            tracer.close(span);
            let batch = match record.ok()? {
                None => return Some(installed),
                Some(Record::PageColumns(batch)) => batch,
                Some(_) => return None,
            };
            batch.check_base(self.epoch).ok()?;
            let span = tracer.open("vmstate.wire.PagePayload.materialize");
            let applied = batch.entries().iter().try_for_each(|(page, _, payload)| {
                let at = page.frame() as usize * PAGE;
                let target = self.replica.get_mut(at..at + PAGE)?;
                let content = payload.materialize(Some(&*target)).ok()??;
                target.copy_from_slice(&content);
                installed += 1;
                Some(())
            });
            tracer.close(span);
            applied?;
        }
    }

    /// One epoch; `wire` as in [`V2Bulk::epoch`].
    pub fn epoch(&mut self, tracer: &mut Tracer, wire: &mut dyn FnMut(Bytes) -> Bytes) -> Op {
        let generator = Instant::now();
        self.guest.advance();
        let generator_ns = generator.elapsed().as_nanos() as u64;

        let started = Instant::now();
        let op_span = tracer.open("op");
        let (mut wire_bytes, mut installed, mut decoded) = (0u64, 0u64, true);
        for chunk in (0..V3_PAGES).step_by(V3_CHUNK_PAGES) {
            let span = tracer.open("vmstate.wire.classify_page");
            let mut batch = PageColumnsBatch::new(self.epoch);
            for index in chunk..(chunk + V3_CHUNK_PAGES).min(V3_PAGES) {
                let payload = classify_page(
                    self.guest.current_page(index),
                    Some(self.guest.committed_page(index)),
                );
                batch.push(
                    PageId::new(index as u64),
                    self.guest.versions[index],
                    payload,
                );
            }
            tracer.close(span);

            let span = tracer.open("vmstate.wire.encode_page_columns_into");
            let mut buffer = self.buffer.take().unwrap_or_default();
            buffer.clear();
            encode_page_columns_into(&batch, &mut buffer);
            drop(batch);
            tracer.close(span);

            let segment = wire(buffer.freeze());
            wire_bytes += segment.len() as u64;
            match self.apply(tracer, &segment) {
                Some(pages) => installed += pages,
                None => decoded = false,
            }
            self.buffer = segment.try_into_mut().ok();
        }
        tracer.close(op_span);
        let wall_ns = started.elapsed().as_nanos() as u64;

        let ok = decoded && installed == V3_PAGES as u64 && self.replica == self.guest.current;
        if !ok {
            self.replica.copy_from_slice(&self.guest.current);
        }
        self.epoch += 1;
        Op {
            wall_ns,
            generator_ns,
            pages: V3_PAGES as u64,
            wire_bytes,
            wire_pages: V3_PAGES as u64,
            ok,
        }
    }
}

impl Workload for V3Sparse {
    fn op(&mut self, _index: u64, tracer: &mut Tracer) -> Op {
        self.epoch(tracer, &mut |segment| segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns `segment` with one payload byte flipped, in a buffer of the
    /// benchmark's own: library code never sees the original again.
    fn corrupted(segment: Bytes) -> Bytes {
        let mut copy = segment.to_vec();
        let at = copy.len() / 2;
        copy[at] ^= 0x40;
        Bytes::from(copy)
    }

    #[test]
    fn v3_generator_is_deterministic_and_keeps_its_mix() {
        let mut a = SparsePages::new(11);
        let mut b = SparsePages::new(11);
        let mut other = SparsePages::new(12);
        for _ in 0..3 {
            a.advance();
            b.advance();
            other.advance();
        }
        assert_eq!(a.current, b.current);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.versions, b.versions);
        assert_ne!(a.current, other.current);

        let mut counts = ModeCounts::default();
        for index in 0..V3_PAGES {
            counts.note(&classify_page(
                a.current_page(index),
                Some(a.committed_page(index)),
            ));
        }
        let pct = |n: u64| n as f64 * 100.0 / V3_PAGES as f64;
        assert!((pct(counts.zero) - 10.0).abs() <= 2.0, "{counts:?}");
        assert!((pct(counts.full) - 10.0).abs() <= 2.0, "{counts:?}");
        assert!((pct(counts.delta) - 80.0).abs() <= 2.0, "{counts:?}");
    }

    #[test]
    fn a_corrupted_segment_fails_its_op_and_only_its_op() {
        let mut quiet = Tracer::new();

        let mut v2 = V2Bulk::new(5);
        assert!(v2.epoch(&mut quiet, &mut |seg| seg).ok);
        let mut first = true;
        let bad = v2.epoch(&mut quiet, &mut |seg| {
            if std::mem::take(&mut first) {
                corrupted(seg)
            } else {
                seg
            }
        });
        assert!(!bad.ok, "a flipped byte in a v2 segment must fail the op");
        assert!(v2.epoch(&mut quiet, &mut |seg| seg).ok);

        let mut v3 = V3Sparse::new(5);
        assert!(v3.epoch(&mut quiet, &mut |seg| seg).ok);
        let mut first = true;
        let bad = v3.epoch(&mut quiet, &mut |seg| {
            if std::mem::take(&mut first) {
                corrupted(seg)
            } else {
                seg
            }
        });
        assert!(!bad.ok, "a flipped byte in a v3 segment must fail the op");
        assert!(v3.epoch(&mut quiet, &mut |seg| seg).ok);
    }
}
