//! The replication-health-plane experiment (`repro health`).
//!
//! Arms the health plane over an N = 3 / quorum = 2 replica set and
//! proves its three observability properties, all in simulated time so
//! the gate compares every number exactly:
//!
//! 1. **Quiet means quiet.** A fault-free run must end with every
//!    replica `healthy`, an empty alert log and zero health transitions
//!    — the alert rules are tuned so a clean protection loop never pages.
//! 2. **Faults page, recoveries resolve.** A sustained partition of
//!    replica 2 (past the retry budget, epochs [`PARTITION_FIRST`] to
//!    [`PARTITION_LAST`]) must walk that replica
//!    `healthy → lagging → stale` and fire the `stale_replica` and
//!    `quorum_at_risk` alerts (plus `retry_storm` from the retry bursts);
//!    once the partition lifts and the backlog drains, every alert must
//!    resolve and the replica must recover to `healthy` through the
//!    hysteresis window — the ordered alert log captures the whole arc.
//! 3. **Determinism.** The faulted run re-runs under the same seeds and
//!    must reproduce the identical alert log, series export and
//!    [`RunReport::fingerprint`] byte for byte — an alert sequence is a
//!    one-line reproducer, not a flaky page.
//!
//! [`RunReport::fingerprint`]: here_core::RunReport::fingerprint

use here_core::{
    FanoutMode, FaultPlan, HealthSnapshot, ReplicationConfig, RunReport, TopologyConfig,
};
use here_vmstate::wire::fnv32;

use super::{fixed_2s, stress_spec, Scale, PLAN_SEED, RUN_SEED};
use crate::json::{hex32, hex64, obj, Json};

/// Replica-set size of both scenarios.
pub const REPLICAS: u32 = 3;

/// Commit quorum of both scenarios.
pub const QUORUM: u32 = 2;

/// Epoch lag past which a trailing replica is declared stale.
pub const STALE_EPOCH_LAG: u64 = 4;

/// The partitioned replica of the faulted scenario.
pub const PARTITIONED_REPLICA: u32 = 2;

/// First epoch of the sustained partition.
pub const PARTITION_FIRST: u64 = 4;

/// Last epoch of the sustained partition.
pub const PARTITION_LAST: u64 = 9;

/// Link-down attempts per partitioned epoch — past the default retry
/// budget, so the replica misses every epoch in the span.
pub const PARTITION_ATTEMPTS_DOWN: u32 = 10;

/// Everything one scenario contributes to `BENCH_health.json`.
#[derive(Debug, Clone)]
pub struct HealthRunSummary {
    /// Epochs the quorum committed.
    pub commits: usize,
    /// Alert log entries that fired.
    pub alerts_fired: usize,
    /// Alert log entries that resolved.
    pub alerts_resolved: usize,
    /// Alerts still active when the run ended (must be 0).
    pub active_alerts: usize,
    /// Health-state transitions the tracker recorded.
    pub transitions: usize,
    /// Final per-replica health states, comma-joined in index order.
    pub final_states: String,
    /// The ordered alert arc, `rule:state@epoch` joined with `|`.
    pub alert_sequence: String,
    /// The ordered transition arc, `rN:from->to@epoch` joined with `|`.
    pub transition_sequence: String,
    /// Windows held across every health series.
    pub series_points: u64,
    /// FNV-32 of the JSONL series export.
    pub series_hash: u32,
    /// FNV-32 of the JSONL alert log.
    pub alert_log_hash: u32,
    /// Report fingerprint of the run.
    pub fingerprint: u64,
}

/// Everything `repro health` reports.
#[derive(Debug, Clone)]
pub struct HealthOutput {
    /// The fault-free scenario (must not page).
    pub quiet: HealthRunSummary,
    /// The sustained-partition scenario (must page and resolve).
    pub stale: HealthRunSummary,
    /// Fingerprint of the same-seed partition rerun.
    pub rerun_fingerprint: u64,
    /// True when the rerun's alert log matched byte for byte.
    pub alert_log_identical: bool,
    /// True when the rerun's series export matched byte for byte.
    pub series_identical: bool,
    /// True when fingerprint, alert log and series all reproduced.
    pub deterministic: bool,
    /// The partition run's alert log, one JSON object per line
    /// (`health_alerts.jsonl`).
    pub alert_log_jsonl: String,
    /// The partition run's series export, one window per line
    /// (`health_series.jsonl`).
    pub series_jsonl: String,
}

/// The faulted scenario's schedule (and the postmortem experiment's
/// incident): replica 2's link stays down past the retry budget for
/// every epoch of the span.
pub(crate) fn partition_plan() -> FaultPlan {
    FaultPlan::new(PLAN_SEED).with_partition_span(
        PARTITION_FIRST..=PARTITION_LAST,
        &[PARTITIONED_REPLICA],
        PARTITION_ATTEMPTS_DOWN,
    )
}

/// The replication config of both scenarios: N = 3 / quorum = 2 over a
/// star, health plane armed.
pub(crate) fn config() -> ReplicationConfig {
    fixed_2s()
        .with_topology(TopologyConfig {
            replicas: REPLICAS,
            quorum: QUORUM,
            fanout: FanoutMode::Star,
            stale_epoch_lag: STALE_EPOCH_LAG,
        })
        .with_health_plane()
}

fn run(scale: Scale, name: &str, plan: Option<FaultPlan>) -> RunReport {
    // The partitioned replica spends most of the run diverged, so the
    // faulted scenario skips the end-of-run consistency sweep; the quiet
    // scenario keeps it.
    stress_spec(scale, name, plan.is_none())
        .build_scenario(config(), plan)
        .expect("health scenario is valid")
        .run()
}

fn health_of(report: &RunReport) -> &HealthSnapshot {
    report
        .telemetry
        .as_ref()
        .expect("protected runs snapshot telemetry")
        .health
        .as_ref()
        .expect("the scenario armed the health plane")
}

fn summarize(report: &RunReport) -> HealthRunSummary {
    let health = health_of(report);
    let alert_sequence = health
        .alert_log
        .iter()
        .map(|a| format!("{}:{}@{}", a.rule, a.state.label(), a.epoch))
        .collect::<Vec<_>>()
        .join("|");
    let transition_sequence = health
        .transitions
        .iter()
        .map(|t| {
            format!(
                "r{}:{}->{}@{}",
                t.replica,
                t.from.label(),
                t.to.label(),
                t.epoch
            )
        })
        .collect::<Vec<_>>()
        .join("|");
    let fired = health
        .alert_log
        .iter()
        .filter(|a| a.state.label() == "firing")
        .count();
    HealthRunSummary {
        commits: report.commits.len(),
        alerts_fired: fired,
        alerts_resolved: health.alert_log.len() - fired,
        active_alerts: health.active_alerts.len(),
        transitions: health.transitions.len(),
        final_states: health
            .states
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(","),
        alert_sequence,
        transition_sequence,
        series_points: health.series_points,
        series_hash: fnv32(health.series_jsonl.as_bytes()),
        alert_log_hash: fnv32(health.alert_log_jsonl().as_bytes()),
        fingerprint: report.fingerprint(),
    }
}

/// Runs the quiet scenario, the sustained partition and the determinism
/// rerun.
pub fn run_health(scale: Scale) -> HealthOutput {
    // 1. Fault-free: the plane observes and stays silent.
    let quiet = run(scale, "health-quiet", None);

    // 2. Sustained partition: replica 2 walks healthy → lagging → stale
    //    and back, alerts fire and resolve in order.
    let stale = run(scale, "health-stale", Some(partition_plan()));

    // 3. Determinism: same seeds, byte-identical alert log and series.
    let rerun = run(scale, "health-stale", Some(partition_plan()));
    let stale_health = health_of(&stale);
    let rerun_health = health_of(&rerun);
    let alert_log_identical = stale_health.alert_log_jsonl() == rerun_health.alert_log_jsonl();
    let series_identical = stale_health.series_jsonl == rerun_health.series_jsonl;
    let rerun_fingerprint = rerun.fingerprint();
    let deterministic =
        alert_log_identical && series_identical && rerun_fingerprint == stale.fingerprint();

    let alert_log_jsonl = stale_health.alert_log_jsonl();
    let series_jsonl = stale_health.series_jsonl.clone();
    HealthOutput {
        quiet: summarize(&quiet),
        stale: summarize(&stale),
        rerun_fingerprint,
        alert_log_identical,
        series_identical,
        deterministic,
        alert_log_jsonl,
        series_jsonl,
    }
}

impl HealthRunSummary {
    fn document(&self) -> Json {
        obj([
            ("commits", self.commits.into()),
            ("alerts_fired", self.alerts_fired.into()),
            ("alerts_resolved", self.alerts_resolved.into()),
            ("active_alerts", self.active_alerts.into()),
            ("transitions", self.transitions.into()),
            ("final_states", self.final_states.as_str().into()),
            ("alert_sequence", self.alert_sequence.as_str().into()),
            (
                "transition_sequence",
                self.transition_sequence.as_str().into(),
            ),
            ("series_points", self.series_points.into()),
            ("series_hash", hex32(self.series_hash)),
            ("alert_log_hash", hex32(self.alert_log_hash)),
            ("fingerprint", hex64(self.fingerprint)),
        ])
    }
}

impl HealthOutput {
    /// The whole report as a JSON document (`BENCH_health.json`).
    pub fn document(&self) -> Json {
        let partition = obj([
            ("replica", PARTITIONED_REPLICA.into()),
            ("first_epoch", PARTITION_FIRST.into()),
            ("last_epoch", PARTITION_LAST.into()),
            ("attempts_down", PARTITION_ATTEMPTS_DOWN.into()),
        ]);
        let determinism = obj([
            ("fingerprint", hex64(self.rerun_fingerprint)),
            ("alert_log_identical", self.alert_log_identical.into()),
            ("series_identical", self.series_identical.into()),
            ("deterministic", self.deterministic.into()),
        ]);
        obj([
            ("experiment", "health".into()),
            ("plan_seed", PLAN_SEED.into()),
            ("run_seed", RUN_SEED.into()),
            ("replicas", REPLICAS.into()),
            ("quorum", QUORUM.into()),
            ("stale_epoch_lag", STALE_EPOCH_LAG.into()),
            ("partition", partition),
            ("quiet", self.quiet.document()),
            ("stale", self.stale.document()),
            ("determinism", determinism),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_runs_never_page_and_partitions_page_then_resolve() {
        let out = run_health(Scale::Quick);

        // Quiet: the plane observes (series fill) but stays silent.
        assert_eq!(out.quiet.alerts_fired, 0, "{}", out.quiet.alert_sequence);
        assert_eq!(out.quiet.alerts_resolved, 0);
        assert_eq!(out.quiet.active_alerts, 0);
        assert_eq!(
            out.quiet.transitions, 0,
            "{}",
            out.quiet.transition_sequence
        );
        assert_eq!(out.quiet.final_states, "healthy,healthy,healthy");
        assert!(out.quiet.series_points > 0);
        assert!(out.quiet.commits >= 10, "got {} commits", out.quiet.commits);

        // Partition: the stale arc fires, resolves, and the replica
        // recovers through the hysteresis window.
        assert!(out.stale.alerts_fired >= 2, "{}", out.stale.alert_sequence);
        assert_eq!(out.stale.alerts_fired, out.stale.alerts_resolved);
        assert_eq!(out.stale.active_alerts, 0, "{}", out.stale.alert_sequence);
        for arc in [
            "stale_replica:firing@",
            "stale_replica:resolved@",
            "quorum_at_risk:firing@",
            "quorum_at_risk:resolved@",
        ] {
            assert!(
                out.stale.alert_sequence.contains(arc),
                "missing {arc} in {}",
                out.stale.alert_sequence
            );
        }
        for arc in [
            "r2:healthy->lagging@",
            "r2:lagging->stale@",
            "r2:stale->recovering@",
            "r2:recovering->healthy@",
        ] {
            assert!(
                out.stale.transition_sequence.contains(arc),
                "missing {arc} in {}",
                out.stale.transition_sequence
            );
        }
        assert_eq!(out.stale.final_states, "healthy,healthy,healthy");

        // The artifacts carry the same log the summary hashed.
        assert_eq!(
            fnv32(out.alert_log_jsonl.as_bytes()),
            out.stale.alert_log_hash
        );
        assert_eq!(fnv32(out.series_jsonl.as_bytes()), out.stale.series_hash);
        assert!(out.alert_log_jsonl.contains("\"rule\":\"stale_replica\""));
        assert!(out
            .series_jsonl
            .contains("\"metric\":\"here_replica_lag_epochs\""));

        // Determinism, and the artifact carries only deterministic keys.
        assert!(out.deterministic);
        assert!(out.alert_log_identical && out.series_identical);
        let doc = out.document();
        crate::gate::tests::assert_baseline("health", &doc);
        assert_eq!(
            doc.get("determinism").and_then(|d| d.get("deterministic")),
            Some(&true.into())
        );
    }
}
