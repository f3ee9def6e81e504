//! The session's event log: [`SessionEvent`], the one type a session
//! emits, and the structured stage events that are most of it.
//!
//! Every checkpoint flows through the six pipeline stages of §3.2 —
//! pause, harvest, translate, transfer, ack, resume — and each stage
//! boundary emits one [`StageEvent`] carrying the virtual timestamp, the
//! page and byte counts, and the stage's contribution to the pause. The
//! per-checkpoint records in [`crate::report`] and the figure harness in
//! `here-bench` are derived from these events, so the breakdown of the
//! paper's pause model `t = αN/P + C` (Eq. 4) falls out of the trace
//! instead of ad-hoc field plumbing.

use serde::{Deserialize, Serialize};
use std::fmt;

use here_sim_core::time::{SimDuration, SimTime};
use here_telemetry::health::HealthObservation;

use crate::failover::FailoverRecord;
use crate::period::PeriodDecision;
use crate::report::CheckpointRecord;

/// One stage of the checkpoint pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// The VM is paused; Remus additionally re-enters its toolstack here.
    Pause,
    /// Dirty pages are scanned and copied out of guest memory
    /// (the `αN/P` term of Eq. 4).
    Harvest,
    /// vCPU/device state is captured, translated to the common format and
    /// the checkpoint stream is encoded (the constant `C` term).
    Translate,
    /// The stream crosses the replication link and is installed on the
    /// replica (the wire term).
    Transfer,
    /// The replica's acknowledgement travels back (one RTT); the primary
    /// commits buffered output on receipt.
    Ack,
    /// The VM resumes execution.
    Resume,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Pause,
        Stage::Harvest,
        Stage::Translate,
        Stage::Transfer,
        Stage::Ack,
        Stage::Resume,
    ];

    /// Whether this stage's duration counts toward the VM-visible pause
    /// `t` (everything except the ack, which overlaps the resume path in
    /// the paper's asynchronous protocol accounting).
    pub fn counts_toward_pause(self) -> bool {
        self != Stage::Ack
    }

    /// Short lower-case label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Pause => "pause",
            Stage::Harvest => "harvest",
            Stage::Translate => "translate",
            Stage::Transfer => "transfer",
            Stage::Ack => "ack",
            Stage::Resume => "resume",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One stage boundary of one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageEvent {
    /// Checkpoint sequence number the stage belongs to (1-based; the
    /// seeding rounds, seq 0, record no stages).
    pub seq: u64,
    /// The stage.
    pub stage: Stage,
    /// Virtual time at which the stage began, relative to measurement
    /// start.
    pub at: SimTime,
    /// How long the stage took.
    pub duration: SimDuration,
    /// Wall-clock time the stage's *real* work took, where the stage does
    /// real work (the harvest copy, the translate encode, the transfer
    /// apply); `None` for purely simulated stages. This lets the
    /// real-time datapath bench and the simulator share one trace schema:
    /// `duration` is always the virtual cost model, `wall_nanos` the
    /// measured host time.
    pub wall_nanos: Option<u64>,
    /// Pages the stage handled (0 where not meaningful).
    pub pages: u64,
    /// Bytes the stage handled: raw page payload for harvest, encoded
    /// stream size for translate/transfer, 0 elsewhere.
    pub bytes: u64,
}

/// Where an injected fault landed — what tells the three places a
/// [`SessionEvent::Fault`] is emitted apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// One transfer attempt toward a replica (the fault plane dropped,
    /// corrupted, refused or delayed it, or downed the link). The retry
    /// that follows carries the span; the fault itself has none.
    Transfer,
    /// The primary host while its guest runs, between checkpoints (a
    /// time-keyed plan event: an accident or an exploit, see
    /// [`FaultTrigger::At`](crate::chaos::FaultTrigger)).
    Primary,
    /// The primary host at the entry of `stage` of epoch `seq` (the fault
    /// plane's [`FaultKind::PrimaryFault`](crate::chaos::FaultKind)).
    PrimaryAtStage {
        /// The interrupted epoch.
        seq: u64,
        /// The stage it was about to enter.
        stage: Stage,
    },
}

/// One thing the session says happened. The session appends every event
/// to one ordered log ([`RunReport::events`](crate::report::RunReport));
/// metrics, flight recorder, SLO, health/alerts, spans and incident
/// capture are folds over that log ([`crate::telemetry::fold`]), so the
/// log is the same whichever of them is armed. `at_nanos` fields are
/// report-relative virtual nanoseconds; the `wall`/`walls`/`steals`/
/// `occupancy_pct` values are host measurements and differ between runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// One pipeline stage boundary crossed.
    Stage(StageEvent),
    /// The lanes encoding epoch `seq`'s canonical stream finished;
    /// `walls[lane]` is the host time each took.
    EncodeLanes {
        /// Epoch encoded (0 is a seeding round).
        seq: u64,
        /// When the encode ran.
        at_nanos: u64,
        /// Host nanoseconds per lane, in lane order.
        walls: Vec<u64>,
    },
    /// Wire time the *Transfer* stage about to be recorded hid under the
    /// encode window. Emitted only when non-zero (overlap on).
    OverlapCredit {
        /// Epoch the credit belongs to.
        seq: u64,
        /// The hidden wire time.
        credit: SimDuration,
    },
    /// Replica `replica` acknowledged epoch `seq`.
    Ack {
        /// 0-based replica index.
        replica: u32,
        /// The acknowledged epoch.
        seq: u64,
        /// When the ack arrived.
        at: SimTime,
    },
    /// An ack completed the quorum: epoch `seq` is committed and its
    /// buffered output released. Plain data copied from the ledger's
    /// [`Commit`](crate::failover::Commit): events are `Clone`, so the
    /// token itself never rides in the log.
    Commit {
        /// The committed epoch.
        seq: u64,
        /// The commit instant (the quorum-th ack's arrival).
        at: SimTime,
    },
    /// The I/O buffer's packet counts since the measurement window opened,
    /// sampled after a commit and after a failover's rollback.
    Packets {
        /// Packets held back for commit so far.
        buffered: u64,
        /// Packets released at commit so far.
        released: u64,
        /// Packets dropped by a failover rollback so far.
        discarded: u64,
    },
    /// Replica `replica` fell more than the topology's bound behind the
    /// newest acked epoch (once per stale episode).
    ReplicaStale {
        /// 0-based replica index.
        replica: u32,
        /// Epochs it trails by.
        lag_epochs: u64,
        /// When the scan ran.
        at_nanos: u64,
    },
    /// One checkpoint completed and fed the period controller.
    Checkpoint {
        /// The record derived from the epoch's stage events.
        record: CheckpointRecord,
        /// What the controller decided for the next epoch.
        decision: PeriodDecision,
        /// When the epoch finished.
        at_nanos: u64,
    },
    /// The encode buffer pool's cumulative reclaim statistics, sampled
    /// after each checkpoint recycled its segments.
    PoolStats {
        /// Checkouts served from the pool.
        hits: u64,
        /// Checkouts that allocated.
        misses: u64,
        /// Buffers parked in the pool.
        pooled: u64,
        /// When the sample was taken.
        at_nanos: u64,
    },
    /// Epoch `seq`'s encode ran on the lane pool; emitted after its
    /// [`SessionEvent::Checkpoint`], from the stats the round returned. An
    /// epoch encoded inline, and a seeding round, emit none.
    EncodePool {
        /// Epoch encoded.
        seq: u64,
        /// Chunks the round was split into.
        tasks: u64,
        /// Chunks a lane took from another lane's share (the round-robin
        /// layout, chunk `t` to lane `t % lanes`).
        steals: u64,
        /// Share of the round's lane-time spent encoding.
        occupancy_pct: f64,
        /// When the sample was taken.
        at_nanos: u64,
    },
    /// What the health plane needs to know about a committed epoch: each
    /// replica's ack mark, lag and backlog, read after the acks landed.
    /// Emitted whether or not the plane is armed.
    EpochHealth {
        /// The committed epoch.
        seq: u64,
        /// When the epoch finished.
        at_nanos: u64,
        /// The epoch's measured degradation.
        degradation: f64,
        /// The period the epoch ran with.
        period: SimDuration,
        /// The epoch's pause.
        pause: SimDuration,
        /// One observation per replica, in index order (`retries` is 0:
        /// the health fold counts them from [`SessionEvent::TransferRetry`]).
        observations: Vec<HealthObservation>,
    },
    /// One round of the seeding migration finished.
    Migration {
        /// Round index (0 is the full copy).
        iteration: u64,
        /// Pages the round sent.
        pages: u64,
        /// `full_copy`, `pre_copy` or `stop_and_copy`.
        phase: &'static str,
        /// When the round ended.
        at_nanos: u64,
        /// How long it took.
        duration: SimDuration,
    },
    /// A fault was injected.
    Fault {
        /// Short label: the outcome (`crash`, `hang`, `starvation`),
        /// `exploit`, or the transfer fault's reason.
        fault: &'static str,
        /// Whether it took the primary host down.
        host_down: bool,
        /// Human-readable description.
        detail: String,
        /// When it landed.
        at_nanos: u64,
        /// What it hit.
        site: FaultSite,
    },
    /// A transfer attempt failed and will be retried after `backoff`.
    TransferRetry {
        /// Epoch in flight.
        seq: u64,
        /// Replica the attempt was sent to.
        replica: u32,
        /// 1-based count of failed attempts so far.
        attempt: u32,
        /// Why it failed.
        reason: &'static str,
        /// Backoff charged before the next attempt.
        backoff: SimDuration,
        /// When it failed.
        at_nanos: u64,
    },
    /// A transfer was delivered after `failed_attempts` failures.
    TransferRecovery {
        /// Epoch delivered.
        seq: u64,
        /// Attempts that failed first.
        failed_attempts: u32,
    },
    /// Too few replicas applied epoch `seq` for it to commit: it was
    /// discarded and its pages re-marked dirty.
    EpochAbort {
        /// The aborted epoch.
        seq: u64,
        /// Attempts each missing replica was given.
        attempts: u32,
        /// When the primary resumed.
        at_nanos: u64,
    },
    /// The primary failed and a replica was activated.
    Failover {
        /// The failover timeline.
        record: FailoverRecord,
        /// The epoch counter at the failure (the epoch lost, if one was
        /// in flight).
        seq: u64,
        /// Hypervisor family of the activated replica (`xen` or `kvm`).
        family: &'static str,
    },
    /// The run is over; nothing follows.
    RunEnd {
        /// The last epoch started.
        seq: u64,
        /// When the run ended.
        at_nanos: u64,
    },
}

impl SessionEvent {
    /// This event with every host-clock measurement blanked (`wall_nanos`
    /// and `walls` to none or zero, the lane pool's `steals` and
    /// `occupancy_pct` to zero): what two runs of the same scenario must
    /// agree on.
    pub fn without_host_clock(&self) -> SessionEvent {
        let mut event = self.clone();
        match &mut event {
            SessionEvent::Stage(stage) => stage.wall_nanos = None,
            SessionEvent::EncodeLanes { walls, .. } => walls.fill(0),
            SessionEvent::Checkpoint { record, .. } => record.wall_nanos = None,
            SessionEvent::EncodePool {
                steals,
                occupancy_pct,
                ..
            } => {
                *steals = 0;
                *occupancy_pct = 0.0;
            }
            _ => {}
        }
        event
    }

    /// The stage boundary this event records, if it is one.
    pub fn as_stage(&self) -> Option<&StageEvent> {
        match self {
            SessionEvent::Stage(event) => Some(event),
            _ => None,
        }
    }

    /// The checkpoint this event records, if it is one: when the epoch
    /// finished, its record and the period controller's decision.
    pub(crate) fn as_checkpoint(&self) -> Option<(u64, &CheckpointRecord, &PeriodDecision)> {
        match self {
            SessionEvent::Checkpoint {
                record,
                decision,
                at_nanos,
            } => Some((*at_nanos, record, decision)),
            _ => None,
        }
    }
}

/// The stage events of epoch `seq`, in stage order, read off the tail of
/// `log`: while an epoch is being checkpointed its stage events are the
/// last ones in the log, so nothing older is scanned.
pub(crate) fn epoch_stage_events(log: &[SessionEvent], seq: u64) -> Vec<StageEvent> {
    let mut events: Vec<StageEvent> = log
        .iter()
        .rev()
        .filter_map(SessionEvent::as_stage)
        .take_while(|e| e.seq == seq)
        .copied()
        .collect();
    events.reverse();
    events
}

/// Summarises a flat event list per stage: `(stage, total duration)` in
/// pipeline order. Used by `here-bench` for the per-stage breakdown table.
pub fn stage_totals(events: &[StageEvent]) -> Vec<(Stage, SimDuration)> {
    Stage::ALL
        .iter()
        .map(|&s| {
            (
                s,
                events
                    .iter()
                    .filter(|e| e.stage == s)
                    .map(|e| e.duration)
                    .sum(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, stage: Stage, at_ms: u64, dur_ms: u64, pages: u64) -> StageEvent {
        StageEvent {
            seq,
            stage,
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            duration: SimDuration::from_millis(dur_ms),
            wall_nanos: None,
            pages,
            bytes: pages * 4096,
        }
    }

    fn sample() -> Vec<StageEvent> {
        vec![
            ev(1, Stage::Pause, 0, 8, 0),
            ev(1, Stage::Harvest, 8, 20, 100),
            ev(1, Stage::Translate, 28, 4, 100),
            ev(1, Stage::Transfer, 32, 10, 100),
            ev(1, Stage::Ack, 42, 1, 0),
            ev(1, Stage::Resume, 43, 0, 0),
            ev(2, Stage::Pause, 100, 8, 0),
            ev(2, Stage::Harvest, 108, 30, 200),
            ev(2, Stage::Translate, 138, 4, 200),
            ev(2, Stage::Transfer, 142, 20, 200),
            ev(2, Stage::Ack, 162, 1, 0),
            ev(2, Stage::Resume, 163, 0, 0),
        ]
    }

    #[test]
    fn pause_excludes_only_the_ack() {
        let events = sample();
        let period = SimDuration::from_secs(2);
        let pause = |events: &[StageEvent]| CheckpointRecord::from_events(period, events).pause;
        assert_eq!(
            pause(&events[..6]),
            SimDuration::from_millis(8 + 20 + 4 + 10)
        );
        assert_eq!(
            pause(&events[6..]),
            SimDuration::from_millis(8 + 30 + 4 + 20)
        );
    }

    #[test]
    fn seq_queries_group_events() {
        // Other events interleave with an epoch's stages; the tail query
        // skips them and stops at the previous epoch.
        let mut log = Vec::new();
        for event in sample() {
            log.push(SessionEvent::Stage(event));
            log.push(SessionEvent::TransferRecovery {
                seq: event.seq,
                failed_attempts: 1,
            });
        }
        let two = epoch_stage_events(&log, 2);
        assert_eq!(two, sample()[6..]);
        assert_eq!(two[0].stage, Stage::Pause);
        assert_eq!(two[5].stage, Stage::Resume);
        assert!(
            epoch_stage_events(&log, 1).is_empty(),
            "epoch 1 is not the tail"
        );
        log.truncate(12);
        assert_eq!(epoch_stage_events(&log, 1), sample()[..6]);
    }

    #[test]
    fn per_stage_totals_cover_all_stages_in_order() {
        let totals = stage_totals(&sample());
        assert_eq!(totals.len(), 6);
        assert_eq!(totals[0], (Stage::Pause, SimDuration::from_millis(16)));
        assert_eq!(totals[1], (Stage::Harvest, SimDuration::from_millis(50)));
        assert_eq!(totals[4], (Stage::Ack, SimDuration::from_millis(2)));
    }
}
