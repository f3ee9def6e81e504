//! The wire-format experiment (`repro wire`): v2 vs v3 bytes-per-epoch
//! and transfer time, plus the negotiation matrix.
//!
//! Wire format v3 re-encodes each epoch's page records against the
//! replica's committed copy of the previous epoch: one columnar
//! page-columns record per lane chunk (all metas contiguous, then all
//! payloads) instead of v2's fixed 14-byte meta record per page. The
//! experiment runs the same two deterministic workloads the datapath
//! bench uses for its overlap comparison — a phased memory load and a
//! KV store — once under the default v2 session and once with the v3
//! offer, and reports:
//!
//! * **bytes per epoch** — the encoded stream size the Translate stage
//!   recorded, averaged over the run's epochs (the paper-level win: the
//!   columnar meta layout packs a dirty page into a handful of bytes);
//! * **mean transfer time** — the virtual Transfer-stage duration,
//!   which the cost model scales with the encoded byte count, so it
//!   must drop proportionally;
//! * **negotiation** — a v3 primary against mixed v2/v3 replica sets
//!   over star and chain fan-out, reporting the per-replica negotiated
//!   versions straight from the run report;
//! * **bit-compat** — offering v3 to a v2-capped replica must leave the
//!   run fingerprint byte-identical to the default v2 session;
//! * **determinism** — the v3 run replays to the same fingerprint under
//!   the same seed.
//!
//! Every figure is virtual-time, so `BENCH_wire.json` gates exactly on
//! every host.

use here_core::{FanoutMode, ReplicationConfig, RunReport, Scenario, Stage, TopologyConfig};
use here_sim_core::time::SimDuration;
use here_vmstate::wire::{VERSION, VERSION_V3};
use here_workloads::traits::Workload;

use super::{
    fanout_name, fixed_2s, kv_workload, phased_workload, Scale, RUN_SEED, STRESS_WORKLOAD,
};
use crate::json::{fixed, hex64, obj, Json};

/// One workload × wire-version run.
#[derive(Debug, Clone)]
pub struct WireRow {
    /// Workload label (`phased`, `kv`).
    pub workload: &'static str,
    /// Wire format version the session offered (and, with fully capable
    /// replicas, negotiated).
    pub version: u16,
    /// Checkpoints the run executed.
    pub checkpoints: u64,
    /// Quorum commits the run reached.
    pub commits: u64,
    /// Mean encoded checkpoint stream size per epoch, bytes.
    pub bytes_per_epoch: f64,
    /// Mean virtual Transfer-stage duration per epoch, milliseconds.
    pub mean_transfer_ms: f64,
    /// The run's report fingerprint.
    pub fingerprint: u64,
}

/// The v2→v3 reduction one workload saw.
#[derive(Debug, Clone)]
pub struct WireReduction {
    /// Workload label.
    pub workload: &'static str,
    /// v2 bytes-per-epoch over v3 bytes-per-epoch.
    pub bytes_ratio: f64,
    /// v2 mean transfer time over v3 mean transfer time.
    pub transfer_ratio: f64,
}

/// One row of the negotiation matrix: what a replica set actually
/// agreed to when the primary offered a version.
#[derive(Debug, Clone)]
pub struct NegotiationRow {
    /// Version the primary offered.
    pub offer: u16,
    /// Per-replica capability caps (`-` = fully capable).
    pub caps: String,
    /// Fan-out mode of the Transfer stage.
    pub fanout: &'static str,
    /// Per-replica negotiated versions, from the run report.
    pub negotiated: String,
    /// Quorum commits the run reached.
    pub commits: u64,
}

/// Everything `repro wire` reports.
#[derive(Debug, Clone)]
pub struct WireOutput {
    /// Workload × version rows (phased/kv × v2/v3).
    pub rows: Vec<WireRow>,
    /// Per-workload v2→v3 reductions.
    pub reductions: Vec<WireReduction>,
    /// The negotiation matrix (v3 and v2 offers against mixed sets).
    pub negotiation: Vec<NegotiationRow>,
    /// Fingerprint of the default (v2) single-replica session.
    pub baseline_fingerprint: u64,
    /// Fingerprint of the same scenario offering v3 to a v2-capped
    /// replica — negotiation must fall back to the byte-identical v2
    /// path.
    pub capped_fingerprint: u64,
    /// Whether the two fingerprints above match.
    pub bit_compatible: bool,
    /// Fingerprint of the same-seed v3 rerun.
    pub rerun_fingerprint: u64,
    /// Whether the rerun matched.
    pub deterministic: bool,
}

fn scale_secs(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 20,
        Scale::Quick => 12,
    }
}

fn run(
    scale: Scale,
    name: &str,
    cfg: ReplicationConfig,
    workload: Box<dyn Workload>,
    mem_mib: u64,
) -> RunReport {
    Scenario::builder()
        .name(name)
        .vm_memory_mib(mem_mib)
        .vcpus(4)
        .workload(workload)
        .config(cfg)
        .duration(SimDuration::from_secs(scale_secs(scale)))
        .seed(RUN_SEED)
        .verify_consistency()
        .build()
        .expect("wire scenario is valid")
        .run()
}

/// Mean Translate-stage bytes and Transfer-stage duration over the
/// run's epochs (seq 0, a seeding round, excluded).
fn epoch_stats(report: &RunReport) -> (f64, f64) {
    let mean = |stage: Stage, value: fn(&here_core::StageEvent) -> f64| {
        let mut sum = 0.0;
        let mut n = 0u64;
        for e in &report.stage_events {
            if e.seq > 0 && e.stage == stage {
                sum += value(e);
                n += 1;
            }
        }
        sum / n.max(1) as f64
    };
    let bytes = mean(Stage::Translate, |e| e.bytes as f64);
    let transfer_ms = mean(Stage::Transfer, |e| e.duration.as_secs_f64() * 1e3);
    (bytes, transfer_ms)
}

fn workload_row(
    scale: Scale,
    label: &'static str,
    version: u16,
    make: fn() -> (Box<dyn Workload>, u64),
) -> WireRow {
    let mut cfg = fixed_2s();
    if version >= VERSION_V3 {
        cfg = cfg.with_wire_v3();
    }
    let (workload, mem_mib) = make();
    let report = run(
        scale,
        &format!("wire-{label}-v{version}"),
        cfg,
        workload,
        mem_mib,
    );
    let (bytes_per_epoch, mean_transfer_ms) = epoch_stats(&report);
    WireRow {
        workload: label,
        version,
        checkpoints: report.checkpoints.len() as u64,
        commits: report.commits.len() as u64,
        bytes_per_epoch,
        mean_transfer_ms,
        fingerprint: report.fingerprint(),
    }
}

fn negotiation_row(
    scale: Scale,
    offer: u16,
    caps: Option<Vec<u16>>,
    fanout: FanoutMode,
) -> NegotiationRow {
    let caps_label = match &caps {
        None => "-".to_string(),
        Some(caps) => caps
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(","),
    };
    let mut cfg = fixed_2s()
        .with_wire_version(offer)
        .with_topology(TopologyConfig {
            replicas: 3,
            quorum: 2,
            fanout,
            stale_epoch_lag: 8,
        });
    if let Some(caps) = caps {
        cfg = cfg.with_replica_wire_caps(caps);
    }
    let report = run(
        scale,
        &format!(
            "wire-nego-v{offer}-{}-{}",
            caps_label.replace(',', "."),
            fanout_name(fanout)
        ),
        cfg,
        STRESS_WORKLOAD.build(),
        64,
    );
    NegotiationRow {
        offer,
        caps: caps_label,
        fanout: fanout_name(fanout),
        negotiated: report
            .wire_versions
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(","),
        commits: report.commits.len() as u64,
    }
}

/// Runs the wire-format experiment.
pub fn run_wire(scale: Scale) -> WireOutput {
    // 1. Workload × version rows and the per-workload reductions.
    type MakeWorkload = fn() -> (Box<dyn Workload>, u64);
    let sweeps: [(&'static str, MakeWorkload); 2] =
        [("phased", phased_workload), ("kv", kv_workload)];
    let mut rows = Vec::new();
    let mut reductions = Vec::new();
    for (label, make) in sweeps {
        let v2 = workload_row(scale, label, VERSION, make);
        let v3 = workload_row(scale, label, VERSION_V3, make);
        reductions.push(WireReduction {
            workload: label,
            bytes_ratio: v2.bytes_per_epoch / v3.bytes_per_epoch.max(1.0),
            transfer_ratio: v2.mean_transfer_ms / v3.mean_transfer_ms.max(1e-9),
        });
        rows.push(v2);
        rows.push(v3);
    }

    // 2. The negotiation matrix: a v3 primary against mixed and capped
    //    sets over both fan-out modes, plus a v2 offer to a fully
    //    capable set (nobody may exceed the offer).
    let negotiation = vec![
        negotiation_row(scale, VERSION_V3, None, FanoutMode::Star),
        negotiation_row(
            scale,
            VERSION_V3,
            Some(vec![VERSION_V3, VERSION, VERSION_V3]),
            FanoutMode::Star,
        ),
        negotiation_row(
            scale,
            VERSION_V3,
            Some(vec![VERSION_V3, VERSION, VERSION_V3]),
            FanoutMode::Chain,
        ),
        negotiation_row(
            scale,
            VERSION_V3,
            Some(vec![VERSION, VERSION, VERSION]),
            FanoutMode::Star,
        ),
        negotiation_row(scale, VERSION, None, FanoutMode::Chain),
    ];

    // 3. Bit-compat: offering v3 to a v2-capped single replica must
    //    negotiate down to the byte-identical default v2 session (same
    //    scenario name, so the fingerprints match when behaviour does).
    let (workload, mem_mib) = phased_workload();
    let baseline = run(scale, "wire-bitcompat", fixed_2s(), workload, mem_mib);
    let (workload, mem_mib) = phased_workload();
    let capped = run(
        scale,
        "wire-bitcompat",
        fixed_2s()
            .with_wire_v3()
            .with_replica_wire_caps(vec![VERSION]),
        workload,
        mem_mib,
    );
    let baseline_fingerprint = baseline.fingerprint();
    let capped_fingerprint = capped.fingerprint();

    // 4. Determinism: the v3 phased run replays byte-identically.
    let rerun = workload_row(scale, "phased", VERSION_V3, phased_workload);
    let v3_phased = rows
        .iter()
        .find(|r| r.workload == "phased" && r.version == VERSION_V3)
        .expect("phased v3 row exists");
    let deterministic = rerun.fingerprint == v3_phased.fingerprint;

    WireOutput {
        rows,
        reductions,
        negotiation,
        baseline_fingerprint,
        capped_fingerprint,
        bit_compatible: baseline_fingerprint == capped_fingerprint,
        rerun_fingerprint: rerun.fingerprint,
        deterministic,
    }
}

impl WireOutput {
    /// The same results as a JSON document (`BENCH_wire.json`).
    pub fn document(&self) -> Json {
        let row = |r: &WireRow| {
            obj([
                ("workload", r.workload.into()),
                ("version", r.version.into()),
                ("checkpoints", r.checkpoints.into()),
                ("commits", r.commits.into()),
                ("bytes_per_epoch", fixed(r.bytes_per_epoch, 1)),
                ("mean_transfer_ms", fixed(r.mean_transfer_ms, 4)),
                ("fingerprint", hex64(r.fingerprint)),
            ])
        };
        let reduction = |r: &WireReduction| {
            obj([
                ("workload", r.workload.into()),
                ("bytes_ratio", fixed(r.bytes_ratio, 2)),
                ("transfer_ratio", fixed(r.transfer_ratio, 2)),
            ])
        };
        let negotiation = |n: &NegotiationRow| {
            obj([
                ("offer", n.offer.into()),
                ("caps", n.caps.as_str().into()),
                ("fanout", n.fanout.into()),
                ("negotiated", n.negotiated.as_str().into()),
                ("commits", n.commits.into()),
            ])
        };
        let bit_compat = obj([
            ("baseline_fingerprint", hex64(self.baseline_fingerprint)),
            ("capped_fingerprint", hex64(self.capped_fingerprint)),
            ("bit_compatible", self.bit_compatible.into()),
        ]);
        let determinism = obj([
            ("fingerprint", hex64(self.rerun_fingerprint)),
            ("deterministic", self.deterministic.into()),
        ]);
        obj([
            ("experiment", "wire".into()),
            ("run_seed", RUN_SEED.into()),
            ("rows", self.rows.iter().map(row).collect()),
            (
                "reductions",
                self.reductions.iter().map(reduction).collect(),
            ),
            (
                "negotiation",
                self.negotiation.iter().map(negotiation).collect(),
            ),
            ("bit_compat", bit_compat),
            ("determinism", determinism),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_wire_run_shows_the_v3_reduction() {
        let out = run_wire(Scale::Quick);
        assert_eq!(out.rows.len(), 4);
        for r in &out.rows {
            assert!(
                r.checkpoints > 0,
                "{} v{} saw no epochs",
                r.workload,
                r.version
            );
            assert!(
                r.commits > 0,
                "{} v{} committed nothing",
                r.workload,
                r.version
            );
            assert!(r.bytes_per_epoch > 0.0);
        }
        for red in &out.reductions {
            assert!(
                red.bytes_ratio >= 3.0,
                "{}: v3 must cut bytes-per-epoch at least 3x, got {:.2}x",
                red.workload,
                red.bytes_ratio
            );
            assert!(
                red.transfer_ratio > 1.5,
                "{}: transfer time must drop with the bytes, got {:.2}x",
                red.workload,
                red.transfer_ratio
            );
        }
        let mixed_star = out
            .negotiation
            .iter()
            .find(|n| n.offer == VERSION_V3 && n.caps == "3,2,3" && n.fanout == "star")
            .expect("mixed star row exists");
        assert_eq!(mixed_star.negotiated, "3,2,3");
        let uncapped = out
            .negotiation
            .iter()
            .find(|n| n.offer == VERSION_V3 && n.caps == "-")
            .expect("uncapped v3 row exists");
        assert_eq!(uncapped.negotiated, "3,3,3");
        let v2_offer = out
            .negotiation
            .iter()
            .find(|n| n.offer == VERSION)
            .expect("v2 offer row exists");
        assert_eq!(v2_offer.negotiated, "2,2,2");
        assert!(
            out.bit_compatible,
            "v2-capped negotiation drifted from the default path"
        );
        assert!(out.deterministic, "same-seed v3 rerun drifted");
        crate::gate::tests::assert_gateable(&out.document());
    }
}
