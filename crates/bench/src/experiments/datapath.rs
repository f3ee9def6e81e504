//! The data-plane density and model experiment (`repro datapath`).
//!
//! Like every other `repro` experiment it reports **virtual time and
//! byte counts only**, so `BENCH_datapath.json` is byte-identical on
//! every host and gates exactly. Wall-clock cost of the same stages
//! (harvest, translate, encode, restore, lane speed-up, pool occupancy)
//! is measured by the stand-alone `benchmark/` package and nowhere else;
//! EXPERIMENTS.md names the `BENCHMARK.json` metric for each stage.
//!
//! Three deterministic sections:
//!
//! * **wire density** — one dirty working set encoded through the one
//!   encoder ([`encode_pages_round`], single lane so the framing is the
//!   same everywhere) as v2 metadata records and as v3 page-columns
//!   records; the byte totals and their ratio are the columnar win.
//! * **model** — the cost model's `checkpoint_cpu_per_page` (α) and its
//!   `1 + (w−1)·parallel_efficiency` at each swept lane count: the `P`
//!   of the paper's pause model `t = αN/P + C`.
//! * **virtual_overlap** — two deterministic scenarios (phased memory
//!   load and a KV store) run with the encode/transfer overlap knob off
//!   and on; the section reports the virtual-time pause reduction.

use here_core::dataplane::{encode_pages_round, BufferPool, EncodePlan, LanePool, PayloadMode};
use here_core::transfer::{collect_chunked_into, CollectScratch};
use here_core::{CostModel, Scenario};
use here_hypervisor::dirty::DirtyBitmap;
use here_hypervisor::memory::GuestMemory;
use here_hypervisor::vcpu::VcpuId;
use here_hypervisor::PAGE_SIZE;
use here_sim_core::rate::ByteSize;
use here_sim_core::time::SimDuration;
use here_vmstate::MemoryDelta;
use here_workloads::traits::Workload;

use super::{fixed_2s, kv_workload, phased_workload, Scale};
use crate::json::{fixed, obj, Json};

/// Lane counts the model table is evaluated at.
pub const WORKER_SWEEP: &[u32] = &[1, 2, 4, 8];

/// Chunk size (pages) the virtual-overlap scenarios configure, small
/// enough that every epoch has many chunks to hide wire time under.
const OVERLAP_CHUNK_PAGES: u32 = 64;

/// One row of the model table.
#[derive(Debug, Clone, Copy)]
pub struct WorkerRow {
    /// Harvest/encode/translate lane count.
    pub workers: u32,
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
    /// Dirty pages in the density probe's working set.
    pub pages: u64,
    /// vCPUs the working set's writes rotate over.
    pub vcpus: u32,
    /// One row per swept lane count.
    pub rows: Vec<WorkerRow>,
    /// The cost model's `checkpoint_cpu_per_page`, in microseconds.
    pub analytic_alpha_us_per_page: f64,
    /// The cost model's marginal lane efficiency.
    pub analytic_parallel_efficiency: f64,
    /// Encoded size of the delta as v2 metadata records (single lane),
    /// bytes.
    pub v2_meta_bytes: u64,
    /// Encoded size of the same delta as v3 page-columns records
    /// (single lane), bytes.
    pub v3_columns_bytes: u64,
    /// `v2_meta_bytes / v3_columns_bytes` — the columnar density win.
    pub v3_meta_reduction: f64,
    /// Virtual-time overlap comparisons.
    pub virtual_overlap: Vec<OverlapScenario>,
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

/// Runs the density probe, evaluates the model columns and runs the
/// virtual-overlap scenarios. Every value is identical on every host.
pub fn run_datapath(scale: Scale) -> DatapathOutput {
    // The density probe's working set: (dirty pages, vCPUs).
    let (pages, vcpus) = match scale {
        Scale::Paper => (32_768, 8),
        Scale::Quick => (4_096, 4),
    };
    let costs = CostModel::default();
    let rows: Vec<WorkerRow> = WORKER_SWEEP
        .iter()
        .map(|&workers| WorkerRow {
            workers,
            analytic_parallelism: costs.effective_parallelism(workers),
        })
        .collect();

    // Wire-density probe: the v2 metadata stream vs the v3 page-columns
    // stream over one delta, single lane so the framing is identical on
    // every host.
    let (memory, dirty) = dirty_guest(pages, vcpus);
    let mut delta = MemoryDelta::new();
    collect_chunked_into(&memory, &dirty, 1, &mut CollectScratch::new(), &mut delta);
    assert_eq!(delta.len() as u64, pages, "harvest must see every page");
    let mut pool = BufferPool::new();
    let lane_pool = LanePool::new();
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

    DatapathOutput {
        pages,
        vcpus,
        rows,
        analytic_alpha_us_per_page: costs.checkpoint_cpu_per_page.as_secs_f64() * 1e6,
        analytic_parallel_efficiency: costs.parallel_efficiency,
        v2_meta_bytes,
        v3_columns_bytes,
        v3_meta_reduction: v2_meta_bytes as f64 / v3_columns_bytes.max(1) as f64,
        virtual_overlap: run_virtual_overlap(),
    }
}

/// Runs one deterministic scenario with the encode/transfer overlap knob
/// off and on; everything else (workload, seed, period, chunking) is
/// identical, so the pause delta is exactly the overlap credit.
fn overlap_compare(
    label: &'static str,
    make_workload: fn() -> (Box<dyn Workload>, u64),
) -> OverlapScenario {
    let run = |overlap: bool| {
        let mut cfg = fixed_2s().with_encode_chunk_pages(OVERLAP_CHUNK_PAGES);
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
        overlap_compare("phased", phased_workload),
        overlap_compare("kv", kv_workload),
    ]
}

impl DatapathOutput {
    /// The same results as a JSON document (`BENCH_datapath.json`).
    pub fn document(&self) -> Json {
        let worker = |r: &WorkerRow| {
            obj([
                ("workers", r.workers.into()),
                ("analytic_parallelism", fixed(r.analytic_parallelism, 3)),
            ])
        };
        let overlap = |s: &OverlapScenario| {
            obj([
                ("workload", s.workload.into()),
                ("checkpoints", s.checkpoints.into()),
                ("pause_ms_barrier", fixed(s.pause_ms_barrier, 4)),
                ("pause_ms_overlap", fixed(s.pause_ms_overlap, 4)),
                ("reduction_pct", fixed(s.reduction_pct, 2)),
            ])
        };
        let wire_bytes = obj([
            ("v2_meta_bytes", self.v2_meta_bytes.into()),
            ("v3_columns_bytes", self.v3_columns_bytes.into()),
            ("reduction_ratio", fixed(self.v3_meta_reduction, 2)),
        ]);
        obj([
            ("experiment", "datapath".into()),
            ("pages", self.pages.into()),
            ("vcpus", self.vcpus.into()),
            ("workers", self.rows.iter().map(worker).collect()),
            (
                "analytic_alpha_us_per_page",
                fixed(self.analytic_alpha_us_per_page, 4),
            ),
            (
                "analytic_parallel_efficiency",
                fixed(self.analytic_parallel_efficiency, 2),
            ),
            ("wire_bytes", wire_bytes),
            (
                "virtual_overlap",
                self.virtual_overlap.iter().map(overlap).collect(),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_consistent_rows() {
        let out = run_datapath(Scale::Quick);
        let workers: Vec<u32> = out.rows.iter().map(|r| r.workers).collect();
        assert_eq!(workers, WORKER_SWEEP);
        assert_eq!(out.rows[0].analytic_parallelism, 1.0);
        assert!(out
            .rows
            .windows(2)
            .all(|w| w[0].analytic_parallelism < w[1].analytic_parallelism));
        // The columnar layout must pack the same metas into at least 3x
        // fewer bytes than the fixed 14-byte v2 records.
        assert!(
            out.v3_meta_reduction >= 3.0,
            "columnar density win too small: {:.2}x",
            out.v3_meta_reduction
        );
        // Virtual time and byte counts only: nothing host-dependent may
        // reach the gated document, and a second run is identical.
        let doc = out.document();
        crate::gate::tests::assert_gateable(&doc);
        assert!(doc.get("wire_bytes").is_some() && doc.get("virtual_overlap").is_some());
        assert_eq!(doc, run_datapath(Scale::Quick).document());
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
