//! The replication-topology experiment (`repro topology`).
//!
//! Sweeps the replica-set shape of the protection loop — N ∈ {1, 2, 3, 5}
//! heterogeneous replicas, quorum ∈ {1, majority, all} and both fan-out
//! modes (star and chained replication) — and reports, per configuration,
//! the commit latency the quorum rule buys (mean Ack stage duration), the
//! worst commit-to-commit staleness, the stalest replica's per-replica
//! staleness window and the run fingerprint. Everything is simulated time
//! under one seed, so the gate compares every number exactly.
//!
//! Two invariant blocks ride along:
//!
//! 1. **Bit compatibility.** The degenerate topology (N = 1, quorum = 1,
//!    star) must reproduce a run under the default configuration — the
//!    topology layer at N = 1 is byte-for-byte the old single-replica
//!    pipeline ([`RunReport::fingerprint`] equality).
//! 2. **Determinism.** A representative multi-replica row (N = 3,
//!    quorum = 2, star) re-runs with the same seed and must reproduce the
//!    identical fingerprint.
//!
//! [`RunReport::fingerprint`]: here_core::RunReport::fingerprint

use here_core::{FanoutMode, RunReport, Stage, TopologyConfig};

use super::{fanout_name, fixed_2s, stress_spec, Scale, RUN_SEED};
use crate::json::{fixed, hex64, obj, Json};

/// Epoch lag past which a trailing replica is declared stale.
pub const STALE_EPOCH_LAG: u64 = 8;

/// One row of the topology matrix.
#[derive(Debug, Clone)]
pub struct TopologyRow {
    /// Replica count N.
    pub replicas: u32,
    /// Commit quorum size.
    pub quorum: u32,
    /// Fan-out mode the transfer used.
    pub fanout: FanoutMode,
    /// Checkpoint records the run produced.
    pub checkpoints: usize,
    /// Epochs the quorum committed.
    pub commits: usize,
    /// Mean Ack-stage duration — the time from transfer completion to the
    /// quorum-th acknowledgement — in simulated milliseconds.
    pub mean_commit_latency_ms: f64,
    /// Worst commit-to-commit staleness of the quorum view, simulated ms.
    pub worst_staleness_ms: f64,
    /// Replica with the widest per-replica ack gap.
    pub stalest_replica: u32,
    /// That replica's worst ack-to-ack staleness window, simulated ms.
    pub stalest_staleness_ms: f64,
    /// Report fingerprint of the run.
    pub fingerprint: u64,
}

/// Everything `repro topology` reports.
#[derive(Debug, Clone)]
pub struct TopologyOutput {
    /// The 18-row sweep: N × quorum × fan-out.
    pub rows: Vec<TopologyRow>,
    /// Fingerprint of the run under the default configuration (no
    /// explicit topology).
    pub baseline_fingerprint: u64,
    /// Fingerprint of the explicit N = 1 / quorum = 1 / star run.
    pub degenerate_fingerprint: u64,
    /// The bit-compatibility invariant: the two fingerprints above match.
    pub bit_compatible: bool,
    /// Fingerprint of the determinism probe (N = 3, quorum = 2, star).
    pub rerun_fingerprint: u64,
    /// True when the same-seed rerun reproduced its row's fingerprint.
    pub deterministic: bool,
}

/// The sweep's shape: for each N, the quorum sizes {1, majority, all}
/// (deduplicated), each under both fan-out modes.
fn matrix() -> Vec<(u32, u32, FanoutMode)> {
    let mut rows = Vec::new();
    for &n in &[1u32, 2, 3, 5] {
        let mut quorums = vec![1, n / 2 + 1, n];
        quorums.dedup();
        for q in quorums {
            for fanout in [FanoutMode::Star, FanoutMode::Chain] {
                rows.push((n, q, fanout));
            }
        }
    }
    rows
}

fn run(scale: Scale, name: &str, topology: Option<TopologyConfig>) -> RunReport {
    let mut config = fixed_2s();
    if let Some(topology) = topology {
        config = config.with_topology(topology);
    }
    stress_spec(scale, name, true)
        .build_scenario(config, None)
        .expect("topology scenario is valid")
        .run()
}

fn run_row(scale: Scale, replicas: u32, quorum: u32, fanout: FanoutMode) -> RunReport {
    run(
        scale,
        &format!("topology-n{replicas}-q{quorum}-{}", fanout_name(fanout)),
        Some(TopologyConfig {
            replicas,
            quorum,
            fanout,
            stale_epoch_lag: STALE_EPOCH_LAG,
        }),
    )
}

fn row_from_report(
    replicas: u32,
    quorum: u32,
    fanout: FanoutMode,
    report: &RunReport,
) -> TopologyRow {
    let acks: Vec<f64> = report
        .stage_events
        .iter()
        .filter(|e| e.stage == Stage::Ack)
        .map(|e| e.duration.as_secs_f64() * 1e3)
        .collect();
    let mean_commit_latency_ms = if acks.is_empty() {
        0.0
    } else {
        acks.iter().sum::<f64>() / acks.len() as f64
    };
    let worst_staleness_ms = report
        .worst_staleness()
        .map(|d| d.as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    let (stalest_replica, stalest) = report.stalest_replica().expect("the run acked epochs");
    TopologyRow {
        replicas,
        quorum,
        fanout,
        checkpoints: report.checkpoints.len(),
        commits: report.commits.len(),
        mean_commit_latency_ms,
        worst_staleness_ms,
        stalest_replica,
        stalest_staleness_ms: stalest.as_secs_f64() * 1e3,
        fingerprint: report.fingerprint(),
    }
}

/// Runs the sweep, the bit-compatibility check and the determinism rerun.
pub fn run_topology(scale: Scale) -> TopologyOutput {
    // 1. The matrix: N × quorum × fan-out.
    let rows: Vec<TopologyRow> = matrix()
        .into_iter()
        .map(|(n, q, fanout)| row_from_report(n, q, fanout, &run_row(scale, n, q, fanout)))
        .collect();

    // 2. Bit compatibility: the degenerate topology equals the default
    //    configuration byte for byte (same scenario name so the reports
    //    fingerprint identically when the behaviour does).
    let baseline = run(scale, "topology-bitcompat", None);
    let degenerate = run(
        scale,
        "topology-bitcompat",
        Some(TopologyConfig {
            replicas: 1,
            quorum: 1,
            fanout: FanoutMode::Star,
            stale_epoch_lag: STALE_EPOCH_LAG,
        }),
    );
    let baseline_fingerprint = baseline.fingerprint();
    let degenerate_fingerprint = degenerate.fingerprint();
    let bit_compatible = baseline_fingerprint == degenerate_fingerprint;

    // 3. Determinism: a representative multi-replica row replays to the
    //    same fingerprint under the same seed.
    let probe = rows
        .iter()
        .find(|r| r.replicas == 3 && r.quorum == 2 && r.fanout == FanoutMode::Star)
        .expect("the matrix contains N=3 q=2 star");
    let rerun = run_row(scale, 3, 2, FanoutMode::Star);
    let rerun_fingerprint = rerun.fingerprint();
    let deterministic = rerun_fingerprint == probe.fingerprint;

    TopologyOutput {
        rows,
        baseline_fingerprint,
        degenerate_fingerprint,
        bit_compatible,
        rerun_fingerprint,
        deterministic,
    }
}

impl TopologyOutput {
    /// The whole report as a JSON document (`BENCH_topology.json`).
    pub fn document(&self) -> Json {
        let row = |r: &TopologyRow| {
            obj([
                ("replicas", r.replicas.into()),
                ("quorum", r.quorum.into()),
                ("fanout", fanout_name(r.fanout).into()),
                ("checkpoints", r.checkpoints.into()),
                ("commits", r.commits.into()),
                ("mean_commit_latency_ms", fixed(r.mean_commit_latency_ms, 3)),
                ("worst_staleness_ms", fixed(r.worst_staleness_ms, 3)),
                ("stalest_replica", r.stalest_replica.into()),
                ("stalest_staleness_ms", fixed(r.stalest_staleness_ms, 3)),
                ("fingerprint", hex64(r.fingerprint)),
            ])
        };
        let bit_compat = obj([
            ("baseline_fingerprint", hex64(self.baseline_fingerprint)),
            ("degenerate_fingerprint", hex64(self.degenerate_fingerprint)),
            ("bit_compatible", self.bit_compatible.into()),
        ]);
        let determinism = obj([
            ("fingerprint", hex64(self.rerun_fingerprint)),
            ("deterministic", self.deterministic.into()),
        ]);
        obj([
            ("experiment", "topology".into()),
            ("run_seed", RUN_SEED.into()),
            ("stale_epoch_lag", STALE_EPOCH_LAG.into()),
            ("rows", self.rows.iter().map(row).collect()),
            ("bit_compat", bit_compat),
            ("determinism", determinism),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_sweep_is_bit_compatible_and_deterministic() {
        let out = run_topology(Scale::Quick);
        // The full matrix: 1 + 2 + 3 + 3 quorum shapes, each × 2 fanouts.
        assert_eq!(out.rows.len(), 18);
        // The degenerate topology reproduces the default configuration.
        assert!(
            out.bit_compatible,
            "N=1/q=1/star drifted from the default path"
        );
        // Same seed, same fingerprint.
        assert!(out.deterministic);
        // Every configuration makes commit progress.
        for r in &out.rows {
            assert!(
                r.commits >= 10,
                "N={} q={} only committed {}",
                r.replicas,
                r.quorum,
                r.commits
            );
            assert_eq!(r.commits, r.checkpoints);
            assert!(r.stalest_replica < r.replicas);
        }
        // Chained fan-out pays more RTTs than star for an all-replica
        // quorum at N=5 (the ack walks the chain).
        let latency = |fanout| {
            out.rows
                .iter()
                .find(|r| r.replicas == 5 && r.quorum == 5 && r.fanout == fanout)
                .unwrap()
                .mean_commit_latency_ms
        };
        assert!(latency(FanoutMode::Chain) > latency(FanoutMode::Star));
        // The artifact carries only deterministic keys.
        let doc = out.document();
        crate::gate::tests::assert_gateable(&doc);
        let flag = |section, key| doc.get(section).and_then(|s| s.get(key));
        assert_eq!(flag("bit_compat", "bit_compatible"), Some(&true.into()));
        assert_eq!(flag("determinism", "deterministic"), Some(&true.into()));
    }
}
