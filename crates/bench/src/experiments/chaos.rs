//! The fault-injection experiment (`repro chaos`).
//!
//! Exercises the replication loop well off the happy path and proves the
//! three properties the fault plane is built around, all in simulated
//! time (every reported number is deterministic — the gate compares them
//! exactly):
//!
//! 1. **Recovery.** A seeded sweep schedules one of every transfer fault
//!    — corruption (rejected by the wire checksums), a link flap, a drop
//!    burst past the retry budget (aborting the epoch), added delay and a
//!    replica-side decode refusal — and reports the retry/recovery/abort
//!    counters plus the worst commit-to-commit staleness the aborted
//!    epoch opened up.
//! 2. **Failover.** A primary crash injected at the entry of the Transfer
//!    stage, while a checkpoint is in flight and unacked, must activate
//!    the replica from the *last fully-acked* epoch — the commit-ledger
//!    invariant, surfaced as `crash_resumes_last_acked`.
//! 3. **Determinism.** The sweep re-runs with the same seeds and must
//!    reproduce the identical [`RunReport::fingerprint`] — which is what
//!    makes any chaos failure a one-line reproducer.
//!
//! [`RunReport::fingerprint`]: here_core::RunReport::fingerprint

use here_core::{ChaosStats, FaultKind, FaultPlan, RunReport, Stage};
use here_hypervisor::fault::DosOutcome;
use here_sim_core::time::SimDuration;

use super::{fixed_2s, stress_spec, Scale, PLAN_SEED, RUN_SEED};
use crate::json::{fixed, hex64, obj, Json};

/// Epoch at which the crash run downs the primary (mid-transfer).
pub const CRASH_EPOCH: u64 = 5;

/// Everything `repro chaos` reports.
#[derive(Debug, Clone)]
pub struct ChaosOutput {
    /// Fault-plane counters of the sweep run.
    pub sweep: ChaosStats,
    /// Epochs the sweep committed.
    pub commits: usize,
    /// Checkpoint records the sweep produced (must equal `commits`).
    pub checkpoints: usize,
    /// Worst commit-to-commit staleness of the sweep, milliseconds of
    /// simulated time (the aborted epoch widens it past two periods).
    pub worst_staleness_ms: f64,
    /// Last sequence number the crash run committed before the fault.
    pub crash_last_committed: u64,
    /// Checkpoint the crash run's failover activated the replica from.
    pub crash_resumed_from: u64,
    /// The commit-ledger invariant: the failover resumed exactly from the
    /// last fully-acked epoch, not the in-flight one.
    pub crash_resumes_last_acked: bool,
    /// Failure-to-detection latency of the crash run, simulated ms.
    pub detection_ms: f64,
    /// Client-visible outage of the crash run, simulated ms.
    pub outage_ms: f64,
    /// Report fingerprint of the sweep run.
    pub fingerprint: u64,
    /// True when the same-seed rerun reproduced `fingerprint` exactly.
    pub deterministic: bool,
}

/// The sweep's schedule: one of every transfer fault, each on its own
/// epoch, with the drop burst sized past the default retry budget.
fn sweep_plan() -> FaultPlan {
    FaultPlan::new(PLAN_SEED)
        .with_event(2, FaultKind::Corrupt { attempts: 2 })
        .with_event(4, FaultKind::LinkFlap { attempts_down: 1 })
        .with_event(6, FaultKind::Drop { attempts: 10 })
        .with_event(
            8,
            FaultKind::Delay {
                by: SimDuration::from_millis(5),
            },
        )
        .with_event(10, FaultKind::DecodeFail { attempts: 1 })
}

fn run(scale: Scale, plan: FaultPlan) -> RunReport {
    stress_spec(scale, "chaos", true)
        .build_scenario(fixed_2s(), Some(plan))
        .expect("chaos scenario is valid")
        .run()
}

/// Runs the sweep, the mid-transfer crash and the determinism rerun.
pub fn run_chaos(scale: Scale) -> ChaosOutput {
    // 1. The fault sweep: every transfer fault recovered or aborted.
    let sweep = run(scale, sweep_plan());
    let stats = sweep.chaos.expect("sweep plan is armed");
    let worst_staleness_ms = sweep
        .worst_staleness()
        .expect("the sweep commits epochs")
        .as_secs_f64()
        * 1e3;

    // 2. The commit-ledger invariant: a crash while checkpoint
    //    CRASH_EPOCH is in flight must resume from CRASH_EPOCH - 1.
    let crash = run(
        scale,
        FaultPlan::new(PLAN_SEED).with_event(
            CRASH_EPOCH,
            FaultKind::PrimaryFault {
                outcome: DosOutcome::Crash,
                stage: Stage::Transfer,
            },
        ),
    );
    let fo = crash
        .failover
        .expect("an injected primary crash must fail over");
    let crash_last_committed = crash
        .commits
        .last()
        .expect("epochs committed before the crash")
        .seq;
    let crash_resumes_last_acked = fo.resumed_from_checkpoint == crash_last_committed
        && crash_last_committed == CRASH_EPOCH - 1;
    let detection_ms = fo
        .detected_at
        .saturating_duration_since(fo.failed_at)
        .as_secs_f64()
        * 1e3;
    let outage_ms = fo.outage().as_secs_f64() * 1e3;

    // 3. Determinism: the same seeds replay to the same fingerprint.
    let rerun = run(scale, sweep_plan());
    let fingerprint = sweep.fingerprint();
    let deterministic = rerun.fingerprint() == fingerprint;

    ChaosOutput {
        sweep: stats,
        commits: sweep.commits.len(),
        checkpoints: sweep.checkpoints.len(),
        worst_staleness_ms,
        crash_last_committed,
        crash_resumed_from: fo.resumed_from_checkpoint,
        crash_resumes_last_acked,
        detection_ms,
        outage_ms,
        fingerprint,
        deterministic,
    }
}

impl ChaosOutput {
    /// The whole report as a JSON document (`BENCH_chaos.json`).
    pub fn document(&self) -> Json {
        let sweep = obj([
            ("plan_seed", PLAN_SEED.into()),
            ("run_seed", RUN_SEED.into()),
            ("faults_injected", self.sweep.faults_injected.into()),
            ("transfer_retries", self.sweep.transfer_retries.into()),
            ("transfer_recoveries", self.sweep.transfer_recoveries.into()),
            ("epochs_aborted", self.sweep.epochs_aborted.into()),
            ("commits", self.commits.into()),
            ("checkpoints", self.checkpoints.into()),
            ("worst_staleness_ms", fixed(self.worst_staleness_ms, 3)),
        ]);
        let crash = obj([
            ("fault_epoch", CRASH_EPOCH.into()),
            ("last_committed_seq", self.crash_last_committed.into()),
            ("resumed_from_checkpoint", self.crash_resumed_from.into()),
            (
                "crash_resumes_last_acked",
                self.crash_resumes_last_acked.into(),
            ),
            ("detection_ms", fixed(self.detection_ms, 3)),
            ("outage_ms", fixed(self.outage_ms, 3)),
        ]);
        let determinism = obj([
            ("fingerprint", hex64(self.fingerprint)),
            ("deterministic", self.deterministic.into()),
        ]);
        obj([
            ("experiment", "chaos".into()),
            ("sweep", sweep),
            ("crash", crash),
            ("determinism", determinism),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_proves_recovery_failover_and_determinism() {
        let out = run_chaos(Scale::Quick);
        // Sweep: 2 corrupt + 1 link-down + 3 drop + 1 decode-refused
        // retries; corrupt/flap/decode epochs recover, the drop epoch
        // aborts (the delayed epoch delivers on the first attempt).
        assert_eq!(out.sweep.transfer_retries, 7);
        assert_eq!(out.sweep.transfer_recoveries, 3);
        assert_eq!(out.sweep.epochs_aborted, 1);
        assert_eq!(out.commits, out.checkpoints);
        assert!(out.commits >= 10, "got {} commits", out.commits);
        assert!(
            out.worst_staleness_ms >= 4000.0,
            "the abort must widen staleness past two periods, got {} ms",
            out.worst_staleness_ms
        );
        // Crash: the ledger invariant holds and detection is heartbeats.
        assert!(out.crash_resumes_last_acked);
        assert_eq!(out.crash_resumed_from, CRASH_EPOCH - 1);
        assert!(out.detection_ms > 0.0 && out.outage_ms >= out.detection_ms);
        // Determinism, and the artifact carries only deterministic keys.
        assert!(out.deterministic);
        let doc = out.document();
        crate::gate::tests::assert_baseline("chaos", &doc);
        let flag = |section, key| doc.get(section).and_then(|s| s.get(key));
        assert_eq!(
            flag("crash", "crash_resumes_last_acked"),
            Some(&true.into())
        );
        assert_eq!(flag("determinism", "deterministic"), Some(&true.into()));
    }
}
