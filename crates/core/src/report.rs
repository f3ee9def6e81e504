//! Run records — what the experiment harness consumes to regenerate the
//! paper's tables and figures.
//!
//! Per-checkpoint records are not plumbed field-by-field out of the
//! engine: they are *derived* from the [`StageEvent`]s the pipeline emits
//! ([`CheckpointRecord::from_events`]), so the report can never disagree
//! with the trace. Each record then rides in one [`SessionEvent::Checkpoint`]
//! beside the period controller's decision, and every per-checkpoint view
//! of the report — the records, the Fig. 9/10 series, the decisions, the
//! resource accounting — is read off those events.

use serde::{Deserialize, Serialize};

use here_sim_core::metrics::Histogram;
use here_sim_core::rate::ByteSize;
use here_sim_core::time::{SimDuration, SimTime};

use crate::chaos::ChaosStats;
use crate::failover::{CommitEntry, FailoverRecord, ReplicaAcks};
use crate::period::{degradation, PeriodDecision};
use crate::postmortem::IncidentTrigger;
use crate::telemetry::TelemetrySnapshot;
use crate::trace::{SessionEvent, Stage, StageEvent};
use here_telemetry::span::Span;

/// One checkpoint round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// Sequence number (1-based).
    pub seq: u64,
    /// When the pause began.
    pub paused_at: SimTime,
    /// The epoch length `T` that preceded this checkpoint.
    pub period: SimDuration,
    /// The measured pause `t`.
    pub pause: SimDuration,
    /// Dirty pages copied.
    pub dirty_pages: u64,
    /// Measured degradation `D_T = t / (t + T)`.
    pub degradation: f64,
    /// Wall-clock time of the checkpoint's real work: the sum of the
    /// stage events' `wall_nanos` where measured, `None` when the run was
    /// purely simulated.
    pub wall_nanos: Option<u64>,
}

impl CheckpointRecord {
    /// Derives the record for one checkpoint from its stage events:
    /// `paused_at` is the *Pause* event's timestamp, `pause` is the sum of
    /// the pause-counting stage durations, `dirty_pages` comes from the
    /// *Harvest* event, and the degradation follows from `pause` and the
    /// epoch length `T` that preceded the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty or lacks the *Pause*/*Harvest* stages —
    /// the pipeline always emits the full six-stage sequence.
    pub fn from_events(period: SimDuration, events: &[StageEvent]) -> CheckpointRecord {
        let seq = events
            .first()
            .expect("a checkpoint emits at least one stage event")
            .seq;
        debug_assert!(events.iter().all(|e| e.seq == seq));
        let paused = events
            .iter()
            .find(|e| e.stage == Stage::Pause)
            .expect("every checkpoint begins with a Pause event");
        let harvested = events
            .iter()
            .find(|e| e.stage == Stage::Harvest)
            .expect("every checkpoint harvests dirty pages");
        let pause: SimDuration = events
            .iter()
            .filter(|e| e.stage.counts_toward_pause())
            .map(|e| e.duration)
            .sum();
        let wall_nanos = events
            .iter()
            .filter_map(|e| e.wall_nanos)
            .fold(None, |acc: Option<u64>, w| Some(acc.unwrap_or(0) + w));
        CheckpointRecord {
            seq,
            paused_at: paused.at,
            period,
            pause,
            dirty_pages: harvested.pages,
            degradation: degradation(pause, period),
            wall_nanos,
        }
    }
}

/// One pre-copy migration iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration index (0 = full-memory pass).
    pub index: u32,
    /// Pages transferred.
    pub pages: u64,
    /// Wall time of the copy round.
    pub duration: SimDuration,
    /// Pages newly flagged problematic during this round (HERE seeding).
    pub problematic_new: u64,
}

/// Outcome of the seeding migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationOutcome {
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStats>,
    /// Total wall time including the final stop-and-copy.
    pub total: SimDuration,
    /// VM downtime during the final stop-and-copy.
    pub downtime: SimDuration,
    /// Total pages moved.
    pub pages_sent: u64,
    /// Problematic pages resent in the final pass.
    pub problematic_resent: u64,
}

/// Replication engine resource usage (§8.7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// CPU consumption as a percentage of one fully loaded core.
    pub cpu_core_pct: f64,
    /// Peak resident set of the replication engine.
    pub rss: ByteSize,
}

/// Everything measured over one scenario run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Virtual time the run covered.
    pub elapsed: SimDuration,
    /// Application operations completed (committed work only; work rolled
    /// back by a failover is excluded).
    pub ops_completed: f64,
    /// `ops_completed / elapsed` in operations per second.
    pub throughput_ops_per_sec: f64,
    /// The seeding migration, if replication was active.
    pub migration: Option<MigrationOutcome>,
    /// Every checkpoint round, in order (each derived from the stage
    /// events via [`CheckpointRecord::from_events`]): the records of
    /// `events`' [`SessionEvent::Checkpoint`] entries.
    pub checkpoints: Vec<CheckpointRecord>,
    /// The raw stage trace: one [`StageEvent`] per pipeline stage of every
    /// checkpoint, in emission order. Empty for unprotected runs.
    pub stage_events: Vec<StageEvent>,
    /// The session's event log: everything it said happened during the
    /// measured window, in order. `stage_events` and `checkpoints` are
    /// this log's [`SessionEvent::Stage`] and [`SessionEvent::Checkpoint`]
    /// entries, [`RunReport::checkpoint_log`] reads the latter with their
    /// period decisions; `telemetry`, `spans` and `incident` are
    /// [`crate::telemetry::fold`] over it. Excluded from
    /// [`RunReport::fingerprint`] (it carries host-clock probes). Empty
    /// for unprotected runs.
    pub events: Vec<SessionEvent>,
    /// Client-observed latency of every released packet, in seconds
    /// (Fig. 17).
    pub packet_latencies: Histogram,
    /// The failover, if a failure was injected and handled.
    pub failover: Option<FailoverRecord>,
    /// Replication engine resource usage.
    pub resources: ResourceUsage,
    /// Replica/primary equality checks that passed: one per replica per
    /// verified checkpoint of the measured window (non-zero only when the
    /// scenario enables verification).
    pub consistency_checks: u64,
    /// The commit ledger: every fully-acked epoch in commit order. A
    /// failover's `resumed_from_checkpoint` always equals the last entry's
    /// sequence number at the time of failure. Empty for unprotected runs.
    pub commits: Vec<CommitEntry>,
    /// Per-replica ack trails: every epoch each replica acknowledged, in
    /// ack order, one entry per replica in index order. The quorum view
    /// in `commits` is derived from these; the per-replica staleness
    /// accessors read them directly. Empty for unprotected runs.
    pub replica_acks: Vec<ReplicaAcks>,
    /// Fault-plane statistics: injections, transfer retries, recoveries
    /// and epoch aborts. `None` when no fault plan was armed.
    pub chaos: Option<ChaosStats>,
    /// The always-on telemetry captured during the run: metrics registry
    /// snapshot, flight-recorder dump and SLO summary. `None` for
    /// unprotected runs (nothing to observe).
    pub telemetry: Option<TelemetrySnapshot>,
    /// The causal trace: every span recorded during the measured window —
    /// epoch roots, stage and lane children, replica-side applies, and
    /// the failover tree. Empty for unprotected runs.
    pub spans: Vec<Span>,
    /// The first capture trigger and the index of the event in `events`
    /// that fired it, when
    /// [`ReplicationConfig::postmortem_capture`](crate::config::ReplicationConfig::postmortem_capture)
    /// was on; [`IncidentSnapshot::at`](crate::postmortem::IncidentSnapshot::at)
    /// derives what the planes said there. Excluded from
    /// [`RunReport::fingerprint`] (like telemetry), so arming capture never
    /// changes a run's identity.
    pub incident: Option<IncidentTrigger>,
    /// The wire format version each replica negotiated with the primary,
    /// in index order (empty for unprotected runs). Excluded from
    /// [`RunReport::fingerprint`] — like `replica_acks`, it is derived
    /// bookkeeping, so a default v2 session stays bit-compatible with
    /// pre-v3 baselines.
    #[serde(default)]
    pub wire_versions: Vec<u16>,
}

impl RunReport {
    /// Every checkpoint of the run as its [`SessionEvent::Checkpoint`]
    /// says it: when the epoch finished (report time), its record, and
    /// the period controller's decision after it. The Fig. 9/10 series
    /// are one `map` away — the period point is `decision.chosen_period`,
    /// the degradation point `record.degradation` (× 100 for percent).
    pub fn checkpoint_log(
        &self,
    ) -> impl Iterator<Item = (SimTime, &CheckpointRecord, &PeriodDecision)> + '_ {
        self.events
            .iter()
            .filter_map(SessionEvent::as_checkpoint)
            .map(|(at_nanos, record, decision)| (SimTime::from_nanos(at_nanos), record, decision))
    }

    /// Mean checkpoint pause `t` across the run.
    pub fn mean_pause(&self) -> Option<SimDuration> {
        if self.checkpoints.is_empty() {
            return None;
        }
        let total: SimDuration = self.checkpoints.iter().map(|c| c.pause).sum();
        Some(total / self.checkpoints.len() as u64)
    }

    /// Mean measured degradation across the run.
    pub fn mean_degradation(&self) -> Option<f64> {
        if self.checkpoints.is_empty() {
            return None;
        }
        Some(
            self.checkpoints.iter().map(|c| c.degradation).sum::<f64>()
                / self.checkpoints.len() as f64,
        )
    }

    /// Mean dirty pages per checkpoint.
    pub fn mean_dirty_pages(&self) -> Option<f64> {
        if self.checkpoints.is_empty() {
            return None;
        }
        Some(
            self.checkpoints
                .iter()
                .map(|c| c.dirty_pages as f64)
                .sum::<f64>()
                / self.checkpoints.len() as f64,
        )
    }

    /// Total time spent in each pipeline stage across the run, in stage
    /// order — the per-stage breakdown of the pause model `t = αN/P + C`.
    pub fn stage_breakdown(&self) -> Vec<(Stage, SimDuration)> {
        crate::trace::stage_totals(&self.stage_events)
    }

    /// The worst client-visible staleness window a *quorum-committed*
    /// failover could have served: the largest gap between consecutive
    /// ledger commits (including run start → first commit and last commit
    /// → run end). `None` when no epoch committed. For the window a
    /// specific replica would have served, use
    /// [`RunReport::replica_staleness`]; the set-wide worst case is
    /// [`RunReport::stalest_replica`].
    pub fn worst_staleness(&self) -> Option<SimDuration> {
        Self::worst_gap(self.commits.iter().map(|c| c.at), self.elapsed)
    }

    /// Largest gap between consecutive instants of `series` (including
    /// run start → first and last → run end). `None` for an empty series.
    fn worst_gap(
        series: impl Iterator<Item = SimTime>,
        elapsed: SimDuration,
    ) -> Option<SimDuration> {
        let mut worst = SimDuration::ZERO;
        let mut prev = SimTime::ZERO;
        let mut any = false;
        for at in series {
            worst = worst.max(at.saturating_duration_since(prev));
            prev = at;
            any = true;
        }
        if !any {
            return None;
        }
        let end = SimTime::ZERO + elapsed;
        Some(worst.max(end.saturating_duration_since(prev)))
    }

    /// The worst staleness window replica `replica` itself could have
    /// served after a failover: the largest gap between its consecutive
    /// acks (including run start → first ack and last ack → run end).
    /// A replica that never acked anything was stale for the whole run.
    /// `None` when the run recorded no trail for `replica`.
    pub fn replica_staleness(&self, replica: u32) -> Option<SimDuration> {
        let trail = self.replica_acks.iter().find(|t| t.replica == replica)?;
        if trail.acks.is_empty() {
            return Some(self.elapsed);
        }
        Self::worst_gap(trail.acks.iter().map(|c| c.at), self.elapsed)
    }

    /// The replica with the worst per-replica staleness window, with that
    /// window — the set's weakest failover target. Ties resolve to the
    /// lowest index. `None` when no replica acked anything.
    pub fn stalest_replica(&self) -> Option<(u32, SimDuration)> {
        let mut worst: Option<(u32, SimDuration)> = None;
        for trail in &self.replica_acks {
            let Some(window) = self.replica_staleness(trail.replica) else {
                continue;
            };
            let beats = worst.is_none_or(|(_, w)| window > w);
            if beats {
                worst = Some((trail.replica, window));
            }
        }
        worst
    }

    /// FNV-1a digest over every *virtual-time* field of the report — name,
    /// ops, checkpoints, stage events, commits, failover, chaos stats and
    /// spans — deliberately excluding wall-clock measurements
    /// (`wall_nanos`, resource usage, telemetry snapshots). Two runs of
    /// the same scenario with the same seed must produce the same
    /// fingerprint; the chaos determinism tests and the `repro chaos`
    /// experiment assert exactly that.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.name.as_bytes());
        eat(&self.elapsed.as_nanos().to_le_bytes());
        eat(&self.ops_completed.to_bits().to_le_bytes());
        eat(&self.throughput_ops_per_sec.to_bits().to_le_bytes());
        for c in &self.checkpoints {
            eat(&c.seq.to_le_bytes());
            eat(&c.paused_at.as_nanos().to_le_bytes());
            eat(&c.period.as_nanos().to_le_bytes());
            eat(&c.pause.as_nanos().to_le_bytes());
            eat(&c.dirty_pages.to_le_bytes());
            eat(&c.degradation.to_bits().to_le_bytes());
        }
        for e in &self.stage_events {
            eat(&e.seq.to_le_bytes());
            eat(e.stage.label().as_bytes());
            eat(&e.at.as_nanos().to_le_bytes());
            eat(&e.duration.as_nanos().to_le_bytes());
            eat(&e.pages.to_le_bytes());
            eat(&e.bytes.to_le_bytes());
        }
        for c in &self.commits {
            eat(&c.seq.to_le_bytes());
            eat(&c.at.as_nanos().to_le_bytes());
        }
        if let Some(fo) = &self.failover {
            eat(&fo.failed_at.as_nanos().to_le_bytes());
            eat(&fo.detected_at.as_nanos().to_le_bytes());
            eat(&fo.resumed_at.as_nanos().to_le_bytes());
            eat(&fo.resumed_from_checkpoint.to_le_bytes());
            eat(&(fo.packets_lost as u64).to_le_bytes());
            eat(&fo.ops_lost.to_bits().to_le_bytes());
            eat(&(fo.devices_switched as u64).to_le_bytes());
        }
        eat(&self.consistency_checks.to_le_bytes());
        if let Some(stats) = &self.chaos {
            eat(&stats.faults_injected.to_le_bytes());
            eat(&stats.transfer_retries.to_le_bytes());
            eat(&stats.transfer_recoveries.to_le_bytes());
            eat(&stats.epochs_aborted.to_le_bytes());
        }
        for s in &self.spans {
            eat(s.name.as_bytes());
            eat(s.category.as_bytes());
            eat(&s.track.pid().to_le_bytes());
            eat(&s.track.tid().to_le_bytes());
            eat(&s.epoch.unwrap_or(u64::MAX).to_le_bytes());
            eat(&s.start_nanos.to_le_bytes());
            eat(&s.duration_nanos.to_le_bytes());
            eat(&s.parent.map_or(u64::MAX, |p| p.get()).to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(seq: u64, pause_ms: u64, period_s: u64, pages: u64) -> CheckpointRecord {
        let pause = SimDuration::from_millis(pause_ms);
        let period = SimDuration::from_secs(period_s);
        CheckpointRecord {
            seq,
            paused_at: SimTime::from_secs(seq * period_s),
            period,
            pause,
            dirty_pages: pages,
            degradation: pause.as_secs_f64() / (pause + period).as_secs_f64(),
            wall_nanos: None,
        }
    }

    #[test]
    fn report_summaries() {
        let report = RunReport {
            name: "t".into(),
            elapsed: SimDuration::from_secs(10),
            ops_completed: 1000.0,
            throughput_ops_per_sec: 100.0,
            migration: None,
            checkpoints: vec![ckpt(1, 100, 2, 10), ckpt(2, 300, 2, 30)],
            stage_events: Vec::new(),
            events: Vec::new(),
            packet_latencies: Histogram::new(),
            failover: None,
            resources: ResourceUsage {
                cpu_core_pct: 10.0,
                rss: ByteSize::from_mib(100),
            },
            consistency_checks: 0,
            commits: vec![
                CommitEntry {
                    seq: 1,
                    at: SimTime::from_secs(2),
                },
                CommitEntry {
                    seq: 2,
                    at: SimTime::from_secs(7),
                },
            ],
            replica_acks: Vec::new(),
            chaos: None,
            telemetry: None,
            spans: Vec::new(),
            incident: None,
            wire_versions: Vec::new(),
        };
        assert_eq!(report.mean_pause(), Some(SimDuration::from_millis(200)));
        assert_eq!(report.mean_dirty_pages(), Some(20.0));
        let d = report.mean_degradation().unwrap();
        assert!(d > 0.0 && d < 0.2);
        // Gaps: 0→2 s, 2→7 s, 7→10 s (run end). Worst is the middle one.
        assert_eq!(report.worst_staleness(), Some(SimDuration::from_secs(5)));
        // The fingerprint is a pure function of the virtual-time fields.
        let twin = report.clone();
        assert_eq!(report.fingerprint(), twin.fingerprint());
        let mut other = report.clone();
        other.commits[1].seq = 3;
        assert_ne!(report.fingerprint(), other.fingerprint());
        // Per-replica trails do not enter the fingerprint (they are
        // derived bookkeeping, like telemetry) — N = 1 runs stay
        // bit-compatible with pre-topology baselines.
        let mut with_trails = report.clone();
        with_trails.replica_acks = vec![ReplicaAcks {
            replica: 0,
            acks: report.commits.clone(),
        }];
        assert_eq!(report.fingerprint(), with_trails.fingerprint());
    }

    #[test]
    fn per_replica_staleness_finds_the_stalest_replica() {
        let at = |s: u64| SimTime::from_secs(s);
        let entry = |seq: u64, s: u64| CommitEntry { seq, at: at(s) };
        let mut report = RunReport {
            name: "stale".into(),
            elapsed: SimDuration::from_secs(10),
            ops_completed: 0.0,
            throughput_ops_per_sec: 0.0,
            migration: None,
            checkpoints: vec![],
            stage_events: Vec::new(),
            events: Vec::new(),
            packet_latencies: Histogram::new(),
            failover: None,
            resources: ResourceUsage {
                cpu_core_pct: 0.0,
                rss: ByteSize::ZERO,
            },
            consistency_checks: 0,
            commits: vec![entry(1, 2), entry(2, 4), entry(3, 6)],
            replica_acks: vec![
                ReplicaAcks {
                    replica: 0,
                    acks: vec![entry(1, 2), entry(2, 4), entry(3, 6)],
                },
                // Replica 1 missed epoch 2 and caught up late: its worst
                // window is 1 s → 8 s.
                ReplicaAcks {
                    replica: 1,
                    acks: vec![entry(1, 1), entry(3, 8)],
                },
            ],
            chaos: None,
            telemetry: None,
            spans: Vec::new(),
            incident: None,
            wire_versions: Vec::new(),
        };
        assert_eq!(report.replica_staleness(0), Some(SimDuration::from_secs(4)));
        assert_eq!(report.replica_staleness(1), Some(SimDuration::from_secs(7)));
        assert_eq!(report.replica_staleness(2), None);
        assert_eq!(
            report.stalest_replica(),
            Some((1, SimDuration::from_secs(7)))
        );
        // A replica that never acked was stale for the entire run and
        // dominates the set.
        report.replica_acks.push(ReplicaAcks {
            replica: 2,
            acks: Vec::new(),
        });
        assert_eq!(report.replica_staleness(2), Some(report.elapsed));
        assert_eq!(report.stalest_replica(), Some((2, report.elapsed)));
    }

    #[test]
    fn empty_report_summaries_are_none() {
        let report = RunReport {
            name: "empty".into(),
            elapsed: SimDuration::ZERO,
            ops_completed: 0.0,
            throughput_ops_per_sec: 0.0,
            migration: None,
            checkpoints: vec![],
            stage_events: Vec::new(),
            events: Vec::new(),
            packet_latencies: Histogram::new(),
            failover: None,
            resources: ResourceUsage {
                cpu_core_pct: 0.0,
                rss: ByteSize::ZERO,
            },
            consistency_checks: 0,
            commits: Vec::new(),
            replica_acks: Vec::new(),
            chaos: None,
            telemetry: None,
            spans: Vec::new(),
            incident: None,
            wire_versions: Vec::new(),
        };
        assert!(report.mean_pause().is_none());
        assert!(report.mean_degradation().is_none());
        assert!(report.mean_dirty_pages().is_none());
        assert!(report.stage_breakdown().iter().all(|&(_, d)| d.is_zero()));
        assert!(report.worst_staleness().is_none());
    }

    #[test]
    fn record_is_derived_from_stage_events() {
        let mk = |stage, at_ms: u64, dur_ms, pages| StageEvent {
            seq: 7,
            stage,
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            duration: SimDuration::from_millis(dur_ms),
            wall_nanos: None,
            pages,
            bytes: pages * 4096,
        };
        let events = vec![
            mk(Stage::Pause, 1000, 8, 0),
            mk(Stage::Harvest, 1008, 40, 128),
            mk(Stage::Translate, 1048, 4, 128),
            mk(Stage::Transfer, 1052, 12, 128),
            mk(Stage::Ack, 1064, 2, 0),
            mk(Stage::Resume, 1066, 0, 0),
        ];
        let record = CheckpointRecord::from_events(SimDuration::from_secs(2), &events);
        assert_eq!(record.seq, 7);
        assert_eq!(record.paused_at, SimTime::ZERO + SimDuration::from_secs(1));
        // The ack does not count toward the VM-visible pause.
        assert_eq!(record.pause, SimDuration::from_millis(8 + 40 + 4 + 12));
        assert_eq!(record.dirty_pages, 128);
        let expect = degradation(record.pause, record.period);
        assert!((record.degradation - expect).abs() < 1e-12);
        // No stage carried a wall-clock measurement.
        assert_eq!(record.wall_nanos, None);
    }

    #[test]
    fn wall_clock_sums_across_measured_stages() {
        let mk = |stage, wall: Option<u64>| StageEvent {
            seq: 1,
            stage,
            at: SimTime::ZERO,
            duration: SimDuration::from_millis(1),
            wall_nanos: wall,
            pages: 1,
            bytes: 4096,
        };
        let events = vec![
            mk(Stage::Pause, None),
            mk(Stage::Harvest, Some(1_500)),
            mk(Stage::Translate, Some(2_500)),
            mk(Stage::Transfer, None),
            mk(Stage::Ack, None),
            mk(Stage::Resume, None),
        ];
        let record = CheckpointRecord::from_events(SimDuration::from_secs(1), &events);
        assert_eq!(record.wall_nanos, Some(4_000));
    }
}
