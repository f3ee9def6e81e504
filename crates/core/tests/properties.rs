//! Property tests for the parallel checkpoint data plane: worker count
//! must never change what a checkpoint observes or ships.

use here_core::dataplane::{
    encode_pages_round, BufferPool, EncodePlan, LanePool, PayloadMode, SegmentRestorer,
};
use here_core::transfer::{collect_chunked_into, CollectScratch};
use here_hypervisor::dirty::DirtyBitmap;
use here_hypervisor::memory::{materialize_content, GuestMemory, PageVersion, GROUP_PAGES};
use here_hypervisor::{PageId, VcpuId, PAGE_SIZE};
use here_sim_core::rate::ByteSize;
use here_vmstate::wire::{PageDataWriter, StreamEncoder, PREAMBLE_BYTES};
use here_vmstate::MemoryDelta;
use proptest::prelude::*;

/// Builds a guest whose dirty set is the (deduplicated) write list.
fn guest_with_writes(num_pages: u64, writes: &[(u64, u32)]) -> (GuestMemory, DirtyBitmap) {
    let mut memory = GuestMemory::new(ByteSize::from_bytes(num_pages * PAGE_SIZE))
        .expect("page-aligned size is valid");
    let mut dirty = DirtyBitmap::new(num_pages);
    for &(frame, vcpu) in writes {
        let page = PageId::new(frame % num_pages);
        memory
            .write_page(page, VcpuId::new(vcpu % 4))
            .expect("frame is in range");
        dirty.mark(page);
    }
    (memory, dirty)
}

/// Single-threaded reference: ascending bitmap walk, no chunking.
fn serial_reference(memory: &GuestMemory, dirty: &DirtyBitmap) -> MemoryDelta {
    let mut delta = MemoryDelta::new();
    for page in dirty.iter() {
        delta.push(page, memory.page(page).expect("dirty page exists"));
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `collect_chunked_into` at 1/2/4/8 workers, on one scratch and its
    /// one set of workers, is byte-identical to the single-threaded
    /// reference, for arbitrary bitmaps and memory sizes (including sizes
    /// that are not multiples of the 512-page chunk).
    #[test]
    fn collect_chunked_is_worker_invariant(
        num_pages in 1u64..6000,
        writes in proptest::collection::vec((0u64..8192, 0u32..8), 0..600),
    ) {
        let (memory, dirty) = guest_with_writes(num_pages, &writes);
        let reference = serial_reference(&memory, &dirty);
        let mut scratch = CollectScratch::new();
        let mut got = MemoryDelta::new();
        for workers in [1u32, 2, 4, 8] {
            collect_chunked_into(&memory, &dirty, workers, &mut scratch, &mut got);
            prop_assert_eq!(
                got.entries(),
                reference.entries(),
                "workers={} diverged from the serial reference",
                workers
            );
        }
    }

    /// The pooled variant reusing scratch across rounds matches too, and
    /// the full encode→decode→restore datapath lands the same replica
    /// state at every lane count.
    #[test]
    fn pooled_datapath_is_lane_invariant(
        num_pages in 64u64..3000,
        writes in proptest::collection::vec((0u64..4096, 0u32..8), 1..300),
    ) {
        let (memory, dirty) = guest_with_writes(num_pages, &writes);
        let reference = serial_reference(&memory, &dirty);
        let mut scratch = CollectScratch::new();
        let mut delta = MemoryDelta::new();
        let mut pool = BufferPool::new();
        let lane_pool = LanePool::new();
        for lanes in [2u32, 4, 8] {
            delta.clear();
            collect_chunked_into(&memory, &dirty, lanes, &mut scratch, &mut delta);
            prop_assert_eq!(delta.entries(), reference.entries());

            let mut segments = Vec::new();
            let plan = EncodePlan {
                lanes,
                mode: PayloadMode::Materialized,
                chunk_pages: None,
                window: None,
            };
            encode_pages_round(&delta, &plan, &mut pool, &lane_pool, |_, seg| {
                segments.push(seg)
            });
            let mut replica = GuestMemory::new(memory.size()).expect("replica size is valid");
            let mut restorer = SegmentRestorer::new(&mut replica, true);
            for seg in segments {
                restorer.accept(&seg).expect("segment must decode");
                pool.recycle(seg);
            }
            prop_assert_eq!(restorer.installed(), delta.len() as u64);
            prop_assert!(memory.content_equals(&replica), "replica diverged at lanes={}", lanes);
        }
    }

    /// However a shard is split between lock-step group appends and
    /// single pre-built pages, the record is the one the all-`push`
    /// writer produces, and it restores under the byte-for-byte check.
    #[test]
    fn page_data_writer_interleavings_are_byte_identical(
        raw in proptest::collection::vec((0u64..64, any::<u32>(), any::<u16>(), 0u8..4), 0..=13),
        grouped in proptest::collection::vec(any::<bool>(), 13),
    ) {
        let shard: Vec<(PageId, PageVersion)> = raw
            .iter()
            .map(|&(frame, version, last_writer, kind)| {
                let version = match kind {
                    0 => 0,
                    1 => u32::MAX,
                    _ => version,
                };
                (PageId::new(frame), PageVersion { version, last_writer })
            })
            .collect();
        let encode = |grouped: &[bool]| {
            let mut enc = StreamEncoder::new();
            let mut writer = PageDataWriter::new(enc.buffer_mut());
            let mut at = 0;
            while at < shard.len() {
                match shard[at..].first_chunk::<GROUP_PAGES>() {
                    Some(group) if grouped[at] => {
                        writer.push_group(group);
                        at += GROUP_PAGES;
                    }
                    _ => {
                        let (page, rec) = shard[at];
                        writer.push(page, rec, &materialize_content(page, rec)[..]);
                        at += 1;
                    }
                }
            }
            assert_eq!(writer.finish(), shard.len() as u64);
            enc.finish()
        };
        let reference = encode(&[false; 13]);
        let mixed = encode(&grouped);
        prop_assert!(mixed == reference, "interleaving {:?} moved the wire", grouped);

        let mut replica = GuestMemory::new(ByteSize::from_bytes(64 * PAGE_SIZE))
            .expect("replica size is valid");
        let mut restorer = SegmentRestorer::new(&mut replica, true);
        restorer
            .accept(&mixed.slice(PREAMBLE_BYTES..mixed.len()))
            .expect("grouped record must pass the content check");
        prop_assert_eq!(restorer.installed(), shard.len() as u64);
    }
}
