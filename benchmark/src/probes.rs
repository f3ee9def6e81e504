//! The isolated probes of the traced run: each calls one layer's public
//! function alone, on seeded inputs, and reports a median over rounds.
//!
//! Every traced run executes the whole suite on the same inputs, whatever
//! the workload, so a layer's figure reads the same in all four traced
//! runs and a workload that never enters a layer still reports its cost.

use std::hint::black_box;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use here_core::dataplane::{
    encode_pages_round, translate_vcpus_parallel, BufferPool, EncodePlan, LanePool, PayloadMode,
    SegmentRestorer, DEFAULT_CHUNK_PAGES,
};
use here_core::transfer::{collect_chunked_into, CollectScratch};
use here_core::{
    CommitLedger, CostModel, FanoutMode, FaultPlan, IncidentBundle, ReplicationConfig,
    ScenarioSpec, TopologyConfig, TraceAnalyzer, WorkloadSpec,
};
use here_hypervisor::arch::ArchRegs;
use here_hypervisor::dirty::DirtyBitmap;
use here_hypervisor::kind::HypervisorKind;
use here_hypervisor::memory::{materialize_content_into, GuestMemory, PageId, PageVersion};
use here_hypervisor::vcpu::{VcpuId, VcpuStateBlob, XenVcpuState};
use here_hypervisor::vm::VmConfig;
use here_hypervisor::{Hypervisor, XenHypervisor, PAGE_SIZE};
use here_sim_core::queue::EventQueue;
use here_sim_core::rate::ByteSize;
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};
use here_telemetry::export;
use here_vmstate::translate::StateTranslator;
use here_vmstate::wire::{
    classify_page, encode_page_columns_into, write_preamble_versioned, PageColumnsBatch,
    PageDataWriter, Record, ScatterStream, StreamDecoder, StreamingChecksum, VERSION, VERSION_V3,
};
use here_vmstate::MemoryDelta;
use here_workloads::memstress::MemStress;
use here_workloads::traits::Workload as GuestWorkload;

use crate::pages::{ModeCounts, SparsePages, V2_PLAN, V3_PAGES};
use crate::stats::{median, SplitMix64};
use crate::Ledger;

const PAGE: usize = PAGE_SIZE as usize;
/// Timed rounds per probe, after one untimed round.
const ROUNDS: usize = 9;
/// Entries of the metadata-only delta: what a session epoch carries.
const META_ENTRIES: u64 = 250_000;

/// Median nanoseconds per unit of `body`, which does `units` units of
/// work a call.
fn ns_per_unit(units: u64, mut body: impl FnMut()) -> f64 {
    body();
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            body();
            started.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&samples)
}

fn stream_of(version: u16, segment: &Bytes) -> ScatterStream {
    let mut preamble = BytesMut::with_capacity(8);
    write_preamble_versioned(&mut preamble, version);
    let mut stream = ScatterStream::from(preamble.freeze());
    stream.push(segment.clone());
    stream
}

/// A delta of `pages` entries on every third frame, as a harvest of a
/// scattered working set produces it.
fn delta_of(pages: u64) -> (GuestMemory, DirtyBitmap, MemoryDelta) {
    let size = ByteSize::from_bytes((pages * 3).next_multiple_of(256) * PAGE_SIZE);
    let mut memory = GuestMemory::new(size).expect("probe guest size is a page multiple");
    let mut dirty = DirtyBitmap::new(memory.num_pages());
    for i in 0..pages {
        let page = PageId::new(i * 3);
        memory
            .write_page(page, VcpuId::new((i % 4) as u32))
            .expect("frame is inside the guest");
        dirty.mark(page);
    }
    let mut delta = MemoryDelta::new();
    collect_chunked_into(&memory, &dirty, 1, &mut CollectScratch::new(), &mut delta);
    (memory, dirty, delta)
}

/// Encode `delta` per `plan` into `replica`; returns pages installed.
fn encode_and_restore(
    delta: &MemoryDelta,
    plan: &EncodePlan,
    version: u16,
    replica: &mut GuestMemory,
    pool: &mut BufferPool,
    lanes: &LanePool,
) -> u64 {
    let mut restorer = SegmentRestorer::new_versioned(replica, false, version);
    let mut spent = Vec::new();
    encode_pages_round(delta, plan, pool, lanes, |_, segment| {
        restorer.accept(&segment).expect("a probe segment decodes");
        spent.push(segment);
    });
    let installed = restorer.installed();
    for segment in spent {
        pool.recycle(segment);
    }
    installed
}

fn hypervisor_probes(ledger: &mut Ledger) {
    let mut image = [0u8; PAGE];
    let mut version = 0u32;
    ledger.set(
        "hypervisor.memory.materialize_ns_per_page",
        ns_per_unit(V3_PAGES as u64, || {
            version += 1;
            for frame in 0..V3_PAGES as u64 {
                let record = PageVersion {
                    version,
                    last_writer: 0,
                };
                materialize_content_into(PageId::new(frame), record, &mut image);
                black_box(&image);
            }
        }),
    );

    let (_, dirty, delta) = delta_of(16_384);
    let mut replica = GuestMemory::new(ByteSize::from_bytes(dirty.num_pages() * PAGE_SIZE))
        .expect("probe replica size is a page multiple");
    ledger.set(
        "hypervisor.memory.install_ns_per_page",
        ns_per_unit(delta.len() as u64, || {
            for &(page, record) in delta.entries() {
                replica
                    .install_page(page, record)
                    .expect("frame is inside the replica");
            }
        }),
    );
    ledger.set(
        "hypervisor.dirty.iter_ns_per_page",
        ns_per_unit(dirty.count(), || {
            black_box(dirty.iter().map(|page| page.frame()).sum::<u64>());
        }),
    );

    let mut host = XenHypervisor::new(ByteSize::from_gib(192));
    let id = host
        .create_vm(VmConfig::new("probe", ByteSize::from_mib(512), 4).expect("valid VM config"))
        .expect("a fresh host has room");
    let vm = host.vm_mut(id).expect("the VM was just created");
    vm.dirty_mut().enable_logging();
    let frames = vm.memory().num_pages();
    const WRITES: u64 = 100_000;
    let mut at = 0u64;
    ledger.set(
        "hypervisor.vm.guest_write_ns",
        ns_per_unit(WRITES, || {
            for _ in 0..WRITES {
                at = (at + 7) % frames;
                vm.guest_write(PageId::new(at), VcpuId::new((at % 4) as u32))
                    .expect("a running VM takes guest writes");
            }
        }),
    );

    let mut stress = MemStress::with_percent(30).with_rate(40_000);
    let mut rng = SimRng::seed_from(0);
    let slice = SimDuration::from_millis(250);
    let mut now = SimTime::ZERO;
    ledger.set(
        "workloads.advance_ns_per_page_write",
        ns_per_unit(40_000 / 4, || {
            black_box(stress.advance(now, slice, vm, &mut rng));
            now += slice;
        }),
    );
}

fn wire_probes(seed: u64, ledger: &mut Ledger) {
    let mut guest = SparsePages::new(seed);
    guest.advance();
    let pages = V3_PAGES as u64;

    let mut copy = vec![0u8; guest.current.len()];
    ledger.set(
        "benchmark.memcpy_ns_per_page",
        ns_per_unit(pages, || {
            copy.copy_from_slice(black_box(&guest.current));
            black_box(&copy);
        }),
    );
    drop(copy);

    ledger.set(
        "vmstate.simd.checksum_ns_per_page",
        ns_per_unit(pages, || {
            let mut sum = StreamingChecksum::new();
            for index in 0..V3_PAGES {
                sum.update(guest.current_page(index));
            }
            black_box(sum.finish());
        }),
    );

    let mut framed = BytesMut::with_capacity(V3_PAGES * (PAGE + 14) + 64);
    ledger.set(
        "vmstate.wire.v2_frame_ns_per_page",
        ns_per_unit(pages, || {
            framed.clear();
            let mut writer = PageDataWriter::new(&mut framed);
            for index in 0..V3_PAGES {
                writer.push(
                    PageId::new(index as u64),
                    guest.versions[index],
                    guest.current_page(index),
                );
            }
            black_box(writer.finish());
        }),
    );
    let framed = framed.freeze();
    ledger.set(
        "vmstate.wire.v2_decode_ns_per_page",
        ns_per_unit(pages, || {
            let mut decoder = StreamDecoder::new_scattered(stream_of(VERSION, &framed))
                .expect("the probe's own v2 stream decodes");
            while let Some(record) = decoder.next_record().expect("a v2 record decodes") {
                black_box(record);
            }
        }),
    );
    drop(framed);

    let chunk = DEFAULT_CHUNK_PAGES as usize;
    let mut batches: Vec<PageColumnsBatch> = Vec::new();
    let mut modes = ModeCounts::default();
    ledger.set(
        "vmstate.wire.v3_classify_ns_per_page",
        ns_per_unit(pages, || {
            batches.clear();
            modes = ModeCounts::default();
            for first in (0..V3_PAGES).step_by(chunk) {
                let mut batch = PageColumnsBatch::new(0);
                for index in first..(first + chunk).min(V3_PAGES) {
                    let payload =
                        classify_page(guest.current_page(index), Some(guest.committed_page(index)));
                    modes.note(&payload);
                    batch.push(PageId::new(index as u64), guest.versions[index], payload);
                }
                batches.push(batch);
            }
        }),
    );
    ledger.set(
        "vmstate.wire.v3_zero_share",
        modes.zero as f64 / pages as f64,
    );
    ledger.set(
        "vmstate.wire.v3_delta_share",
        modes.delta as f64 / pages as f64,
    );
    ledger.set(
        "vmstate.wire.v3_full_share",
        modes.full as f64 / pages as f64,
    );

    let mut encoded: Vec<BytesMut> = batches.iter().map(|_| BytesMut::new()).collect();
    ledger.set(
        "vmstate.wire.v3_encode_ns_per_page",
        ns_per_unit(pages, || {
            for (batch, out) in batches.iter().zip(&mut encoded) {
                out.clear();
                encode_page_columns_into(batch, out);
            }
        }),
    );
    drop(batches);
    let encoded: Vec<Bytes> = encoded.into_iter().map(BytesMut::freeze).collect();
    let mut decoded: Vec<PageColumnsBatch> = Vec::new();
    ledger.set(
        "vmstate.wire.v3_decode_ns_per_page",
        ns_per_unit(pages, || {
            decoded.clear();
            for segment in &encoded {
                let mut decoder =
                    StreamDecoder::new_negotiated(stream_of(VERSION_V3, segment), VERSION_V3)
                        .expect("the probe's own v3 stream decodes");
                while let Some(record) = decoder.next_record().expect("a v3 record decodes") {
                    if let Record::PageColumns(batch) = record {
                        decoded.push(batch);
                    }
                }
            }
        }),
    );
    ledger.set(
        "vmstate.wire.v3_materialize_ns_per_page",
        ns_per_unit(pages, || {
            for batch in &decoded {
                for (page, _, payload) in batch.entries() {
                    let base = guest.committed_page(page.frame() as usize);
                    black_box(
                        payload
                            .materialize(Some(base))
                            .expect("a decoded payload applies to its base"),
                    );
                }
            }
        }),
    );
}

fn dataplane_probes(ledger: &mut Ledger) {
    let lanes = LanePool::new();
    let mut pool = BufferPool::new();

    let (memory, dirty, delta) = delta_of(16_384);
    let (mut scratch, mut harvested) = (CollectScratch::new(), MemoryDelta::new());
    ledger.set(
        "core.transfer.harvest_ns_per_page",
        ns_per_unit(delta.len() as u64, || {
            harvested.clear();
            collect_chunked_into(&memory, &dirty, 2, &mut scratch, &mut harvested);
        }),
    );

    // Barrier encode (no consumer window), so that the two figures differ
    // only in the lane count.
    let mut barrier_ns = |lanes_used: u32| {
        let plan = EncodePlan {
            lanes: lanes_used,
            mode: PayloadMode::Materialized,
            chunk_pages: Some(DEFAULT_CHUNK_PAGES),
            window: None,
        };
        ns_per_unit(delta.len() as u64, || {
            let mut spent = Vec::new();
            encode_pages_round(&delta, &plan, &mut pool, &lanes, |_, seg| spent.push(seg));
            for segment in spent {
                pool.recycle(segment);
            }
        })
    };
    let one_lane = barrier_ns(1);
    let two_lanes = barrier_ns(2);
    ledger.set("core.dataplane.encode_1lane_ns_per_page", one_lane);
    ledger.set("core.dataplane.parallel_speedup", one_lane / two_lanes);

    let (meta_memory, _, meta_delta) = delta_of(META_ENTRIES);
    let mut meta_replica = meta_memory.clone();
    for (name, mode, version) in [
        (
            "vmstate.wire.meta_v2_ns_per_page",
            PayloadMode::Metadata,
            VERSION,
        ),
        (
            "vmstate.wire.meta_v3_ns_per_page",
            PayloadMode::Columnar { base_epoch: 0 },
            VERSION_V3,
        ),
    ] {
        let plan = EncodePlan { mode, ..V2_PLAN };
        ledger.set(
            name,
            ns_per_unit(META_ENTRIES, || {
                let installed = encode_and_restore(
                    &meta_delta,
                    &plan,
                    version,
                    &mut meta_replica,
                    &mut pool,
                    &lanes,
                );
                assert_eq!(installed, META_ENTRIES, "the meta probe lost pages");
            }),
        );
    }
    // The materialized path once more, restored and compared, so that the
    // probe inputs are known to round-trip.
    let mut replica = memory.clone();
    let installed = encode_and_restore(&delta, &V2_PLAN, VERSION, &mut replica, &mut pool, &lanes);
    assert!(
        installed == delta.len() as u64 && replica.content_equals(&memory),
        "the data-plane probe inputs did not round-trip"
    );

    let translator = StateTranslator::new(HypervisorKind::Xen, HypervisorKind::Kvm)
        .expect("a Xen to KVM translator exists");
    let blobs: Vec<VcpuStateBlob> = (0..8u64)
        .map(|i| {
            let mut regs = ArchRegs::reset_state();
            regs.tsc = i * 997;
            VcpuStateBlob::Xen(XenVcpuState::from_arch(&regs, true))
        })
        .collect();
    const TRANSLATIONS: u64 = 256;
    ledger.set(
        "vmstate.translate.vcpu_ns",
        ns_per_unit(TRANSLATIONS * blobs.len() as u64, || {
            for _ in 0..TRANSLATIONS {
                black_box(
                    translate_vcpus_parallel(&blobs, Some(&translator), 1)
                        .expect("the probe blobs translate"),
                );
            }
        }),
    );
}

fn control_probes(seed: u64, ledger: &mut Ledger) {
    const EPOCHS: u64 = 10_000;
    ledger.set(
        "core.failover.ledger_ack_ns",
        ns_per_unit(EPOCHS * 3, || {
            let mut ledger = CommitLedger::with_quorum(3, 2);
            for seq in 1..=EPOCHS {
                for replica in 0..3 {
                    black_box(ledger.ack(replica, seq, SimTime::from_nanos(seq)));
                }
            }
        }),
    );

    const EVENTS: u64 = 100_000;
    let mut rng = SplitMix64::new(seed);
    let times: Vec<SimTime> = (0..EVENTS)
        .map(|_| SimTime::from_nanos(rng.below(1 << 40)))
        .collect();
    let mut queue: EventQueue<u64> = EventQueue::new();
    ledger.set(
        "sim-core.queue.push_pop_ns",
        ns_per_unit(EVENTS, || {
            for (i, &at) in times.iter().enumerate() {
                queue.push(at, i as u64);
            }
            while let Some(event) = queue.pop() {
                black_box(event);
            }
        }),
    );

    // One small incident, captured once: a partitioned replica trips the
    // health plane, the bundle freezes, and the three observers that read
    // a finished run are timed on it.
    let config = ReplicationConfig::fixed_period(SimDuration::from_secs(2))
        .with_topology(TopologyConfig {
            replicas: 3,
            quorum: 2,
            fanout: FanoutMode::Star,
            stale_epoch_lag: 4,
        })
        .with_health_plane()
        .with_postmortem_capture();
    let plan = FaultPlan::new(seed).with_partition_span(4..=12, &[2], 10);
    let spec = ScenarioSpec {
        name: "probe-incident".to_string(),
        memory_mib: 64,
        vcpus: 4,
        workload: WorkloadSpec::MemStress {
            percent: 30,
            rate: 20_000,
        },
        duration: SimDuration::from_secs(30),
        seed,
        verify_consistency: false,
    };
    let report = spec
        .build_scenario(config.clone(), Some(plan.clone()))
        .expect("the probe scenario is valid")
        .run();
    let bundle = IncidentBundle::capture(spec, &config, Some(&plan), &report)
        .expect("an armed run captures an incident");
    let ms = |ns: f64| ns / 1e6;
    ledger.set(
        "core.postmortem.bundle_roundtrip_ms",
        ms(ns_per_unit(1, || {
            let decoded = IncidentBundle::decode(&bundle.encode()).expect("the bundle decodes");
            assert!(decoded == bundle, "the bundle did not round-trip");
        })),
    );
    let threads = config.effective_threads(4);
    ledger.set(
        "core.analyze.trace_ms",
        ms(ns_per_unit(1, || {
            black_box(TraceAnalyzer::default().analyze(
                &report,
                &config.costs,
                threads,
                config.strategy,
            ));
        })),
    );
    let registry = &report
        .telemetry
        .as_ref()
        .expect("a replicated run carries telemetry")
        .registry;
    ledger.set(
        "telemetry.export.prometheus_ms",
        ms(ns_per_unit(1, || {
            black_box(export::prometheus(registry));
        })),
    );
}

/// The cost model's constants the measured figures are printed beside:
/// α in nanoseconds per page, and the speed-up it expects of two lanes.
pub fn model_constants() -> (f64, f64) {
    let costs = CostModel::default();
    (
        costs.checkpoint_cpu_per_page.as_secs_f64() * 1e9,
        costs.effective_parallelism(2),
    )
}

/// Runs every probe and records its figure in `ledger`.
pub fn run(seed: u64, ledger: &mut Ledger) {
    hypervisor_probes(ledger);
    wire_probes(seed, ledger);
    dataplane_probes(ledger);
    control_probes(seed, ledger);
}
