//! The executed-data-plane throughput benchmark (`repro datapath`).
//!
//! Unlike every other experiment — which reports *virtual* durations from
//! the calibrated [`CostModel`] — this one measures **real wall-clock
//! time** of the zero-copy checkpoint data plane doing real work on
//! materialized 4 KiB pages: harvest (chunk-ordered parallel collect) →
//! translate (vCPU blobs to the common format) → encode (per-lane
//! page-data records with streaming checksums into pooled buffers) →
//! decode + restore (segmented zero-copy decode installing into a
//! replica).
//!
//! The one encoder ([`encode_pages_round`]) is timed under two plans:
//!
//! * **spliced** (`encode_ms` + `decode_restore_ms`) — the session's
//!   framing, one record per lane shard; the segments are collected and
//!   the replica sees no byte until the whole stream is spliced;
//! * **streamed** (`streamed_ms`) — pages split into chunks on the
//!   work-stealing lane pool, each completed chunk handed through a
//!   bounded overlap window and decoded into the replica *while later
//!   chunks are still encoding*. The row's `total_ms` uses the streamed
//!   figure, because that is what an epoch actually pays.
//!
//! Per-row `steals` and `occupancy_pct` expose the pool's behaviour
//! (they are host-dependent diagnostics, ignored by the gate).
//!
//! Two calibration probes ride along:
//!
//! * **measured α** — nanoseconds per page through the single-lane encode
//!   path, next to the cost model's analytic `checkpoint_cpu_per_page`;
//! * **measured parallelism** — single-lane wall time over `w`-lane wall
//!   time, next to the analytic `1 + (w−1)·parallel_efficiency`. On a
//!   host with fewer cores than lanes the measured curve flattens at the
//!   core count; `host_cpus` is reported so readers can tell scheduler
//!   limits from algorithmic ones.
//!
//! A **virtual_overlap** section closes the loop with the simulated
//! pipeline: two deterministic scenarios (phased memory load and a KV
//! store) run with the encode/transfer overlap knob off and on, and the
//! section reports the virtual-time pause reduction. Those numbers are
//! exact on every host — they gate byte-for-byte even on one CPU.

use std::time::Instant;

use here_core::dataplane::{
    decode_and_restore, encode_pages_round, translate_vcpus_parallel, BufferPool, EncodePlan,
    LanePool, PayloadMode, SegmentRestorer, DEFAULT_CHUNK_PAGES,
};
use here_core::transfer::{collect_chunked_into, CollectScratch};
use here_core::{CostModel, ReplicationConfig, Scenario};
use here_hypervisor::arch::ArchRegs;
use here_hypervisor::dirty::DirtyBitmap;
use here_hypervisor::kind::HypervisorKind;
use here_hypervisor::memory::GuestMemory;
use here_hypervisor::vcpu::{VcpuId, VcpuStateBlob, XenVcpuState};
use here_hypervisor::PAGE_SIZE;
use here_sim_core::rate::ByteSize;
use here_sim_core::time::{SimDuration, SimTime};
use here_vmstate::translate::StateTranslator;
use here_vmstate::wire::{ScatterStream, StreamEncoder, VERSION_V3};
use here_vmstate::MemoryDelta;
use here_workloads::phased::{Phase, PhasedMemStress};
use here_workloads::traits::Workload;
use here_workloads::ycsb::{Ycsb, YcsbMix, YcsbSpec};

use super::Scale;

/// Lane counts swept by the benchmark.
pub const WORKER_SWEEP: &[u32] = &[1, 2, 4, 8];

/// Bounded overlap-window depth (in chunks) used by the streamed rows.
pub const OVERLAP_WINDOW: u32 = 4;

/// Chunk size (pages) the virtual-overlap scenarios configure, small
/// enough that every epoch has many chunks to hide wire time under.
const OVERLAP_CHUNK_PAGES: u32 = 64;

/// Optional overrides for the sweep (`repro datapath --lanes N
/// --chunk-pages P`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DatapathOptions {
    /// Replace the default 1/2/4/8 sweep with `[1, lanes]`.
    pub lanes: Option<u32>,
    /// Chunk size (pages) for the streamed encode rows; default
    /// [`DEFAULT_CHUNK_PAGES`].
    pub chunk_pages: Option<u32>,
}

/// One row of the sweep: wall-clock milliseconds per stage at a lane
/// count, averaged over the measured rounds.
#[derive(Debug, Clone, Copy)]
pub struct WorkerRow {
    /// Harvest/encode/translate lane count.
    pub workers: u32,
    /// Parallel dirty-page collect (chunk-ordered merge included).
    pub harvest_ms: f64,
    /// vCPU blob translation to the common format.
    pub translate_ms: f64,
    /// Spliced encode: materialize + checksum + frame page payloads into
    /// pooled lanes, all shards complete before decode starts.
    pub encode_ms: f64,
    /// Segmented decode and page install on the replica (after the
    /// spliced encode).
    pub decode_restore_ms: f64,
    /// Pipelined encode→decode: chunked work-stealing encode with each
    /// finished chunk decoded into the replica while later chunks are
    /// still encoding.
    pub streamed_ms: f64,
    /// Wire-v3 columnar meta encode: the page-columns records a v3
    /// session ships per epoch (all metas contiguous, then the payload
    /// column), framed on the same lanes.
    pub v3_meta_ms: f64,
    /// Chunks executed by a lane other than their home lane during the
    /// streamed rounds (work-stealing diagnostic; host-dependent).
    pub steals: u64,
    /// Mean lane occupancy of the streamed rounds: busy time over
    /// `lanes × round wall`, percent (host-dependent).
    pub occupancy_pct: f64,
    /// End-to-end datapath wall time: harvest + translate + streamed.
    pub total_ms: f64,
    /// Materialized payload moved per wall second (over `total_ms`).
    pub throughput_mib_per_s: f64,
    /// Single-lane total over this row's total.
    pub measured_parallelism: f64,
    /// The cost model's `1 + (w−1)·parallel_efficiency`.
    pub analytic_parallelism: f64,
}

/// One workload's barrier-vs-overlap comparison in *virtual* time:
/// the same deterministic scenario run with the encode/transfer overlap
/// knob off and on.
#[derive(Debug, Clone)]
pub struct OverlapScenario {
    /// Workload label (`phased`, `kv`).
    pub workload: &'static str,
    /// Checkpoints observed (identical in both runs).
    pub checkpoints: u64,
    /// Mean virtual pause per checkpoint, overlap off, milliseconds.
    pub pause_ms_barrier: f64,
    /// Mean virtual pause per checkpoint, overlap on, milliseconds.
    pub pause_ms_overlap: f64,
    /// Pause reduction from the overlap, percent.
    pub reduction_pct: f64,
}

/// Everything `repro datapath` reports.
#[derive(Debug, Clone)]
pub struct DatapathOutput {
    /// Cores the host scheduler actually has — the ceiling on measured
    /// parallelism, recorded so flat scaling curves are attributable.
    pub host_cpus: usize,
    /// Dirty pages per round.
    pub pages: u64,
    /// Measured rounds per lane count (after one warmup).
    pub rounds: u32,
    /// vCPU blobs translated per round.
    pub vcpus: u32,
    /// Chunk size (pages) the streamed rows used.
    pub chunk_pages: u32,
    /// One row per swept lane count.
    pub rows: Vec<WorkerRow>,
    /// Measured single-lane encode cost per page, in microseconds.
    pub measured_alpha_us_per_page: f64,
    /// The cost model's `checkpoint_cpu_per_page`, in microseconds.
    pub analytic_alpha_us_per_page: f64,
    /// The cost model's marginal lane efficiency.
    pub analytic_parallel_efficiency: f64,
    /// Encoded size of the delta as v2 metadata records (single lane),
    /// bytes — deterministic, gated exactly.
    pub v2_meta_bytes: u64,
    /// Encoded size of the same delta as v3 page-columns records
    /// (single lane), bytes — deterministic, gated exactly.
    pub v3_columns_bytes: u64,
    /// `v2_meta_bytes / v3_columns_bytes` — the columnar density win.
    pub v3_meta_reduction: f64,
    /// Deterministic virtual-time overlap comparisons.
    pub virtual_overlap: Vec<OverlapScenario>,
    /// The same results as a JSON document (`BENCH_datapath.json`).
    pub json: String,
}

fn scale_params(scale: Scale) -> (u64, u32, u32) {
    // (dirty pages, rounds, vcpus)
    match scale {
        Scale::Paper => (32_768, 5, 8),
        Scale::Quick => (4_096, 3, 4),
    }
}

/// Builds a guest with a deterministic dirty working set: every third
/// frame written once, round-robin across vCPUs so `last_writer` varies.
fn dirty_guest(pages: u64, vcpus: u32) -> (GuestMemory, DirtyBitmap) {
    let frames = pages * 3;
    let mut memory = GuestMemory::new(ByteSize::from_bytes(
        frames.next_multiple_of(256) * PAGE_SIZE,
    ))
    .expect("bench guest size is valid");
    let mut dirty = DirtyBitmap::new(memory.num_pages());
    for i in 0..pages {
        let frame = here_hypervisor::PageId::new(i * 3);
        memory
            .write_page(frame, VcpuId::new((i % vcpus as u64) as u32))
            .expect("frame is in range");
        dirty.mark(frame);
    }
    (memory, dirty)
}

fn vcpu_blobs(vcpus: u32) -> Vec<VcpuStateBlob> {
    (0..vcpus)
        .map(|i| {
            let mut regs = ArchRegs::reset_state();
            regs.tsc = u64::from(i) * 997;
            VcpuStateBlob::Xen(XenVcpuState::from_arch(&regs, true))
        })
        .collect()
}

/// Runs the datapath sweep with the default options.
pub fn run_datapath(scale: Scale) -> DatapathOutput {
    run_datapath_with(scale, DatapathOptions::default())
}

/// Runs the datapath sweep and returns measured rows plus the JSON
/// document. Wall-clock rows vary with the host; the `virtual_overlap`
/// section is deterministic everywhere.
pub fn run_datapath_with(scale: Scale, opts: DatapathOptions) -> DatapathOutput {
    let (pages, rounds, vcpus) = scale_params(scale);
    let costs = CostModel::default();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk_pages = opts.chunk_pages.unwrap_or(DEFAULT_CHUNK_PAGES).max(1);
    let sweep: Vec<u32> = match opts.lanes {
        Some(lanes) if lanes > 1 => vec![1, lanes],
        Some(_) => vec![1],
        None => WORKER_SWEEP.to_vec(),
    };
    let (memory, dirty) = dirty_guest(pages, vcpus);
    let blobs = vcpu_blobs(vcpus);
    let translator = StateTranslator::new(HypervisorKind::Xen, HypervisorKind::Kvm)
        .expect("Xen->KVM translator exists");
    let payload_mib = (pages * PAGE_SIZE) as f64 / (1024.0 * 1024.0);

    // One persistent lane pool for the whole sweep: the rows exercise
    // the same warm workers an epoch loop would.
    let lane_pool = LanePool::new();
    let mut rows: Vec<WorkerRow> = Vec::new();
    for &workers in &sweep {
        let mut scratch = CollectScratch::new();
        let mut delta = MemoryDelta::new();
        let mut pool = BufferPool::new();
        let mut replica = GuestMemory::new(memory.size()).expect("replica size is valid");
        let mut replica_streamed = GuestMemory::new(memory.size()).expect("replica size is valid");
        let mut replica_v3 = GuestMemory::new(memory.size()).expect("replica size is valid");
        let (mut harvest, mut translate, mut encode, mut decode, mut streamed, mut v3_meta) =
            (0f64, 0f64, 0f64, 0f64, 0f64, 0f64);
        let (mut steals, mut occupancy) = (0u64, 0f64);
        // One warmup round fills the pools; measured rounds then run at
        // steady state.
        for round in 0..=rounds {
            let measured = round > 0;

            let t = Instant::now();
            delta.clear();
            collect_chunked_into(&memory, &dirty, workers, &mut scratch, &mut delta);
            if measured {
                harvest += t.elapsed().as_secs_f64();
            }
            assert_eq!(delta.len() as u64, pages, "harvest must see every page");

            let t = Instant::now();
            let cirs = translate_vcpus_parallel(&blobs, Some(&translator), workers)
                .expect("bench blobs translate");
            if measured {
                translate += t.elapsed().as_secs_f64();
            }
            assert_eq!(cirs.len(), blobs.len());

            // Spliced path: splice every lane shard, then decode.
            let shards = EncodePlan {
                lanes: workers,
                mode: PayloadMode::Materialized,
                chunk_pages: None,
                window: None,
            };
            let t = Instant::now();
            let mut stream = ScatterStream::from(StreamEncoder::new().finish());
            encode_pages_round(&delta, &shards, &mut pool, &lane_pool, |_, seg| {
                stream.push(seg)
            });
            if measured {
                encode += t.elapsed().as_secs_f64();
            }

            let t = Instant::now();
            let installed = decode_and_restore(stream.clone(), &mut replica, false)
                .expect("bench stream decodes");
            if measured {
                decode += t.elapsed().as_secs_f64();
            }
            assert_eq!(installed, pages, "restore must install every page");
            for seg in stream.into_segments() {
                pool.recycle(seg);
            }

            // Streamed path: chunked work-stealing encode, each finished
            // chunk decoded into the replica through the bounded window
            // while later chunks are still encoding.
            let plan = EncodePlan {
                chunk_pages: Some(chunk_pages),
                window: Some(OVERLAP_WINDOW),
                ..shards
            };
            let t = Instant::now();
            let mut restorer = SegmentRestorer::new(&mut replica_streamed, false);
            let mut spent: Vec<bytes::Bytes> = Vec::new();
            let (_walls, stats) =
                encode_pages_round(&delta, &plan, &mut pool, &lane_pool, |_, seg| {
                    restorer.accept(&seg).expect("streamed segment decodes");
                    spent.push(seg);
                });
            let installed = restorer.installed();
            if measured {
                streamed += t.elapsed().as_secs_f64();
                steals += stats.steals();
                occupancy += stats.occupancy_pct();
            }
            assert_eq!(installed, pages, "streamed restore must install every page");
            for seg in spent {
                pool.recycle(seg);
            }

            // Wire-v3 columnar path: the meta-only page-columns records a
            // v3 session ships per epoch, decoded through a v3 restorer.
            let plan = EncodePlan {
                mode: PayloadMode::Columnar { base_epoch: 0 },
                ..shards
            };
            let t = Instant::now();
            let mut segments = Vec::new();
            encode_pages_round(&delta, &plan, &mut pool, &lane_pool, |_, seg| {
                segments.push(seg)
            });
            if measured {
                v3_meta += t.elapsed().as_secs_f64();
            }
            let mut restorer = SegmentRestorer::new_versioned(&mut replica_v3, false, VERSION_V3);
            for seg in &segments {
                restorer.accept(seg).expect("v3 columnar segment decodes");
            }
            assert_eq!(
                restorer.installed(),
                pages,
                "v3 restore must install every page"
            );
            for seg in segments {
                pool.recycle(seg);
            }
        }
        let n = rounds as f64;
        let (harvest, translate, encode, decode, streamed, v3_meta) = (
            harvest / n,
            translate / n,
            encode / n,
            decode / n,
            streamed / n,
            v3_meta / n,
        );
        let total = harvest + translate + streamed;
        rows.push(WorkerRow {
            workers,
            harvest_ms: harvest * 1e3,
            translate_ms: translate * 1e3,
            encode_ms: encode * 1e3,
            decode_restore_ms: decode * 1e3,
            streamed_ms: streamed * 1e3,
            v3_meta_ms: v3_meta * 1e3,
            steals,
            occupancy_pct: occupancy / n,
            total_ms: total * 1e3,
            throughput_mib_per_s: payload_mib / total,
            measured_parallelism: 1.0, // filled below from the lane-1 row
            analytic_parallelism: costs.effective_parallelism(workers),
        });
    }
    let base_total = rows[0].total_ms;
    for row in &mut rows {
        row.measured_parallelism = base_total / row.total_ms;
    }

    // Deterministic wire-density probe over the same delta: the v2
    // metadata stream vs the v3 page-columns stream, single lane so the
    // framing is identical on every host.
    let mut scratch = CollectScratch::new();
    let mut delta = MemoryDelta::new();
    collect_chunked_into(&memory, &dirty, 1, &mut scratch, &mut delta);
    let mut pool = BufferPool::new();
    let mut encoded_bytes = |mode| {
        let plan = EncodePlan {
            lanes: 1,
            mode,
            chunk_pages: None,
            window: None,
        };
        let mut total = 0u64;
        encode_pages_round(&delta, &plan, &mut pool, &lane_pool, |_, seg| {
            total += seg.len() as u64;
        });
        total
    };
    let v2_meta_bytes = encoded_bytes(PayloadMode::Metadata);
    let v3_columns_bytes = encoded_bytes(PayloadMode::Columnar { base_epoch: 0 });
    let v3_meta_reduction = v2_meta_bytes as f64 / v3_columns_bytes.max(1) as f64;
    let measured_alpha_us_per_page = rows[0].encode_ms * 1e3 / pages as f64;
    let analytic_alpha_us_per_page = costs.checkpoint_cpu_per_page.as_secs_f64() * 1e6;

    let virtual_overlap = run_virtual_overlap();

    let json = render_json(
        host_cpus,
        pages,
        rounds,
        vcpus,
        chunk_pages,
        payload_mib,
        &rows,
        measured_alpha_us_per_page,
        analytic_alpha_us_per_page,
        costs.parallel_efficiency,
        v2_meta_bytes,
        v3_columns_bytes,
        v3_meta_reduction,
        &virtual_overlap,
    );
    DatapathOutput {
        host_cpus,
        pages,
        rounds,
        vcpus,
        chunk_pages,
        rows,
        measured_alpha_us_per_page,
        analytic_alpha_us_per_page,
        analytic_parallel_efficiency: costs.parallel_efficiency,
        v2_meta_bytes,
        v3_columns_bytes,
        v3_meta_reduction,
        virtual_overlap,
        json,
    }
}

/// A short phased load: a light first phase, then a heavy one, so the
/// overlap credit is exercised across different dirty-set sizes.
fn overlap_phased_workload() -> (Box<dyn Workload>, u64) {
    let phases = vec![
        Phase {
            at: SimTime::ZERO,
            percent: 20,
        },
        Phase {
            at: SimTime::from_secs(8),
            percent: 70,
        },
    ];
    let workload = PhasedMemStress::new(phases).expect("overlap schedule is valid");
    (Box::new(workload), 256)
}

fn overlap_kv_workload() -> (Box<dyn Workload>, u64) {
    let driver = Ycsb::new(YcsbSpec::small(YcsbMix::A)).expect("small KV spec is valid");
    let mem_mib = (driver.required_pages() * PAGE_SIZE).div_ceil(1024 * 1024) + 64;
    (Box::new(driver), mem_mib)
}

/// Runs one deterministic scenario with the encode/transfer overlap knob
/// off and on; everything else (workload, seed, period, chunking) is
/// identical, so the pause delta is exactly the overlap credit.
fn overlap_compare(
    label: &'static str,
    make_workload: fn() -> (Box<dyn Workload>, u64),
) -> OverlapScenario {
    let run = |overlap: bool| {
        let mut cfg = ReplicationConfig::fixed_period(SimDuration::from_secs(2))
            .with_encode_chunk_pages(OVERLAP_CHUNK_PAGES);
        if overlap {
            cfg = cfg.with_overlap_transfer();
        }
        let (workload, memory_mib) = make_workload();
        Scenario::builder()
            .name(format!("overlap-{label}"))
            .vm_memory_mib(memory_mib)
            .vcpus(4)
            .workload(workload)
            .config(cfg)
            .duration(SimDuration::from_secs(20))
            .build()
            .expect("overlap scenario is valid")
            .run()
    };
    let barrier = run(false);
    let overlap = run(true);
    // Shorter pauses let the overlap run fit extra epochs into the same
    // virtual budget, so pair only the epochs both runs executed.
    let paired = barrier.checkpoints.len().min(overlap.checkpoints.len());
    let mean_pause_ms = |report: &here_core::RunReport| {
        report
            .checkpoints
            .iter()
            .take(paired)
            .map(|c| c.pause.as_secs_f64() * 1e3)
            .sum::<f64>()
            / paired.max(1) as f64
    };
    let pause_ms_barrier = mean_pause_ms(&barrier);
    let pause_ms_overlap = mean_pause_ms(&overlap);
    OverlapScenario {
        workload: label,
        checkpoints: paired as u64,
        pause_ms_barrier,
        pause_ms_overlap,
        reduction_pct: (pause_ms_barrier - pause_ms_overlap) / pause_ms_barrier * 100.0,
    }
}

/// The deterministic virtual-time overlap comparisons: identical on
/// every host, gated exactly.
fn run_virtual_overlap() -> Vec<OverlapScenario> {
    vec![
        overlap_compare("phased", overlap_phased_workload),
        overlap_compare("kv", overlap_kv_workload),
    ]
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    host_cpus: usize,
    pages: u64,
    rounds: u32,
    vcpus: u32,
    chunk_pages: u32,
    payload_mib: f64,
    rows: &[WorkerRow],
    measured_alpha: f64,
    analytic_alpha: f64,
    efficiency: f64,
    v2_meta_bytes: u64,
    v3_columns_bytes: u64,
    v3_meta_reduction: f64,
    virtual_overlap: &[OverlapScenario],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"datapath\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!("  \"pages\": {pages},\n"));
    out.push_str(&format!("  \"payload_mib\": {payload_mib:.1},\n"));
    out.push_str(&format!("  \"rounds\": {rounds},\n"));
    out.push_str(&format!("  \"vcpus\": {vcpus},\n"));
    out.push_str(&format!("  \"chunk_pages\": {chunk_pages},\n"));
    out.push_str("  \"workers\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"harvest_ms\": {:.3}, \"translate_ms\": {:.4}, \
             \"encode_ms\": {:.3}, \"decode_restore_ms\": {:.3}, \"streamed_ms\": {:.3}, \
             \"v3_meta_ms\": {:.3}, \
             \"steals\": {}, \"occupancy_pct\": {:.1}, \"total_ms\": {:.3}, \
             \"throughput_mib_per_s\": {:.1}, \"measured_parallelism\": {:.3}, \
             \"analytic_parallelism\": {:.3}}}{}\n",
            r.workers,
            r.harvest_ms,
            r.translate_ms,
            r.encode_ms,
            r.decode_restore_ms,
            r.streamed_ms,
            r.v3_meta_ms,
            r.steals,
            r.occupancy_pct,
            r.total_ms,
            r.throughput_mib_per_s,
            r.measured_parallelism,
            r.analytic_parallelism,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"measured_alpha_us_per_page\": {measured_alpha:.4},\n"
    ));
    out.push_str(&format!(
        "  \"analytic_alpha_us_per_page\": {analytic_alpha:.4},\n"
    ));
    out.push_str(&format!(
        "  \"analytic_parallel_efficiency\": {efficiency:.2},\n"
    ));
    out.push_str(&format!(
        "  \"wire_bytes\": {{\"v2_meta_bytes\": {v2_meta_bytes}, \
         \"v3_columns_bytes\": {v3_columns_bytes}, \
         \"reduction_ratio\": {v3_meta_reduction:.2}}},\n"
    ));
    out.push_str("  \"virtual_overlap\": [\n");
    for (i, s) in virtual_overlap.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"checkpoints\": {}, \
             \"pause_ms_barrier\": {:.4}, \"pause_ms_overlap\": {:.4}, \
             \"reduction_pct\": {:.2}}}{}\n",
            s.workload,
            s.checkpoints,
            s.pause_ms_barrier,
            s.pause_ms_overlap,
            s.reduction_pct,
            if i + 1 == virtual_overlap.len() {
                ""
            } else {
                ","
            },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_consistent_rows() {
        let out = run_datapath(Scale::Quick);
        assert_eq!(out.rows.len(), WORKER_SWEEP.len());
        assert!(out.rows.iter().all(|r| r.total_ms > 0.0));
        assert!(out.rows.iter().all(|r| r.streamed_ms > 0.0));
        assert!(out.rows.iter().all(|r| r.v3_meta_ms > 0.0));
        assert!(out.rows.iter().all(|r| r.throughput_mib_per_s > 0.0));
        assert!((out.rows[0].measured_parallelism - 1.0).abs() < 1e-9);
        // The columnar layout must pack the same metas into at least 3x
        // fewer bytes than the fixed 14-byte v2 records.
        assert!(
            out.v3_meta_reduction >= 3.0,
            "columnar density win too small: {:.2}x",
            out.v3_meta_reduction
        );
        assert!(out.json.contains("\"host_cpus\""));
        assert!(out.json.contains("\"streamed_ms\""));
        assert!(out.json.contains("\"v3_meta_ms\""));
        assert!(out.json.contains("\"wire_bytes\""));
        assert!(out.json.contains("\"virtual_overlap\""));
    }

    #[test]
    fn lane_and_chunk_overrides_shape_the_sweep() {
        let out = run_datapath_with(
            Scale::Quick,
            DatapathOptions {
                lanes: Some(4),
                chunk_pages: Some(128),
            },
        );
        let workers: Vec<u32> = out.rows.iter().map(|r| r.workers).collect();
        assert_eq!(workers, vec![1, 4]);
        assert_eq!(out.chunk_pages, 128);
    }

    #[test]
    fn virtual_overlap_shrinks_the_pause_deterministically() {
        let first = run_virtual_overlap();
        let second = run_virtual_overlap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.pause_ms_barrier.to_bits(), b.pause_ms_barrier.to_bits());
            assert_eq!(a.pause_ms_overlap.to_bits(), b.pause_ms_overlap.to_bits());
        }
        for s in &first {
            assert!(s.checkpoints > 0, "{} saw no checkpoints", s.workload);
            assert!(
                s.pause_ms_overlap < s.pause_ms_barrier,
                "{}: overlap must shorten the pause ({} vs {})",
                s.workload,
                s.pause_ms_overlap,
                s.pause_ms_barrier
            );
        }
    }
}
