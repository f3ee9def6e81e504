//! The observability planes, as folds over the session's event log.
//!
//! The session says each thing that happens once, as a
//! [`SessionEvent`] appended to one ordered log. Everything an observer
//! knows is computed from that log by [`fold`]: the metrics registry,
//! flight recorder and SLO tracker, then the health plane (windowed
//! series, per-replica health machines, alert rules), then the span tree,
//! then the postmortem capture — in that order for every event, because
//! the alert edges the health plane derives from an
//! [`SessionEvent::EpochHealth`] are laid into the flight ring and the
//! span tree and may trigger the capture, which keeps only the trigger
//! and the index of the event that fired it. The session runs the same
//! fold once, over its whole log, when it finishes
//! ([`RunReport::events`](crate::report::RunReport::events) is the
//! log, `telemetry`/`spans`/`incident` the result), so folding a recorded
//! log again — with the health plane or the capture armed that were not
//! during the run — reproduces them exactly.
//!
//! The log does not depend on what is armed.
//! [`ReplicationConfig::health_plane`] and
//! [`ReplicationConfig::postmortem_capture`] are read in one place, when
//! the planes are built, and decide only which folds exist.
//!
//! ## Metric reference
//!
//! | metric | kind | folds | meaning |
//! |---|---|---|---|
//! | `here_checkpoints_total` | counter | `Checkpoint` | checkpoints completed |
//! | `here_pages_harvested_total` | counter | `Stage` (harvest) | dirty pages copied across all checkpoints |
//! | `here_bytes_transferred_total` | counter | `Stage` (transfer) | encoded checkpoint bytes shipped |
//! | `here_pages_seeded_total` | counter | `Migration` | pages sent by the seeding migration |
//! | `here_pool_reclaim_hits_total` | counter | `PoolStats` | encode-buffer checkouts served from the pool |
//! | `here_pool_reclaim_misses_total` | counter | `PoolStats` | encode-buffer checkouts that allocated |
//! | `here_packets_buffered_total` | counter | `Packets` | guest output packets held back for commit |
//! | `here_packets_released_total` | counter | `Packets` | buffered packets released at commit |
//! | `here_packets_discarded_total` | counter | `Packets` | buffered packets dropped by a failover |
//! | `here_slo_breaches_total` | counter | `Checkpoint` | degradation/period-cap SLO breaches |
//! | `here_failovers_total` | counter | `Failover` | failovers performed |
//! | `here_faults_injected_total` | counter | `Fault` | faults laid into the run (exploits, accidents, fault plane) |
//! | `here_transfer_retries_total` | counter | `TransferRetry` | checkpoint transfer attempts that failed and were retried |
//! | `here_transfer_recoveries_total` | counter | `TransferRecovery` | checkpoints delivered after at least one failed attempt |
//! | `here_epochs_aborted_total` | counter | `EpochAbort` | checkpoints discarded after exhausting the retry budget |
//! | `here_pause_nanos` | histogram | `Checkpoint` | VM-visible pause `t` per checkpoint |
//! | `here_dirty_pages` | histogram | `Checkpoint` | dirty pages `N` per checkpoint |
//! | `here_stage_nanos{stage=…}` | histogram | `Stage` | virtual duration per pipeline stage |
//! | `here_encode_lane_wall_nanos` | histogram | `EncodeLanes` | wall-clock encode time per lane |
//! | `here_period_seconds` | gauge | `Checkpoint` | the period `T` chosen for the next epoch |
//! | `here_degradation_ratio` | gauge | `Checkpoint` | last measured degradation `D_T` |
//!
//! With the health plane armed these replica-labelled families join the
//! registry (single-replica and unarmed runs never register them, so the
//! frozen observe-gate metric schema is untouched):
//!
//! | metric | kind | folds | meaning |
//! |---|---|---|---|
//! | `here_replica_lag_epochs{replica=…}` | gauge | `EpochHealth` | epochs each replica trails the just-committed sequence |
//! | `here_replica_backlog_pages{replica=…}` | gauge | `EpochHealth` | pages parked in each replica's catch-up backlog |
//! | `here_replica_acked_epoch{replica=…}` | gauge | `EpochHealth` | each replica's ack high-water mark |
//! | `here_replica_retries_total{replica=…}` | counter | `TransferRetry` | transfer retries charged to each replica |
//! | `here_flight_recorder_dropped_events` | gauge | `EpochHealth` | events the bounded flight ring has evicted |

use std::fmt;

use serde::{Deserialize, Serialize};

use here_sim_core::time::{SimDuration, SimTime};
use here_telemetry::alert::{
    AlertEngine, AlertEvent, AlertSample, AlertState, DEFAULT_D_TARGET_PPM,
};
use here_telemetry::export::{self, json_escape};
use here_telemetry::flight::FlightRecorder;
use here_telemetry::health::{HealthObservation, HealthState, HealthTracker, HealthTransition};
use here_telemetry::metrics::{Counter, Gauge, Histogram, MetricsRegistry, RegistrySnapshot};
use here_telemetry::slo::{SloBreach, SloSummary, SloTracker};
use here_telemetry::span::{Span, SpanDraft, SpanId, SpanRecorder, Track};
use here_telemetry::timeseries::{SeriesKind, SeriesSet};

use crate::config::{PeriodPolicy, ReplicationConfig};
use crate::failover::FailoverRecord;
use crate::postmortem::IncidentTrigger;
use crate::trace::{FaultSite, SessionEvent, Stage, StageEvent};

/// Events the always-on flight recorder retains.
pub const FLIGHT_RECORDER_CAPACITY: usize = 1024;

/// A flight-entry value that may be absent: the value, or JSON `null`.
struct OrNull<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for OrNull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => value.fmt(f),
            None => f.write_str("null"),
        }
    }
}

/// Virtual-time width of one health-plane series window (2 s, matching
/// the canonical checkpoint period so one window holds about one epoch).
pub const HEALTH_SERIES_WINDOW_NANOS: u64 = 2_000_000_000;

/// The health plane: windowed series, per-replica health machines, the
/// alert engine, and the replica-labelled metric families — present only
/// when [`ReplicationConfig::health_plane`]
/// (crate::config::ReplicationConfig::health_plane) armed it.
#[derive(Debug)]
struct HealthPlane {
    replicas: u32,
    quorum: u32,
    stale_lag: u64,
    series: SeriesSet,
    tracker: HealthTracker,
    engine: AlertEngine,
    replica_lag_gauges: Vec<Gauge>,
    replica_backlog_gauges: Vec<Gauge>,
    replica_acked_gauges: Vec<Gauge>,
    replica_retry_counters: Vec<Counter>,
    flight_dropped_gauge: Gauge,
    /// Cumulative transfer retries per replica.
    retry_totals: Vec<u64>,
    /// `retry_totals` as of the previous health tick (for epoch deltas).
    last_retry_totals: Vec<u64>,
}

/// The metrics + flight recorder + SLO fold, and (when armed) the health
/// plane that shares its registry and flight ring.
#[derive(Debug)]
struct SessionTelemetry {
    registry: MetricsRegistry,
    flight: FlightRecorder,
    slo: Option<SloTracker>,
    checkpoints: Counter,
    pages_harvested: Counter,
    bytes_transferred: Counter,
    pages_seeded: Counter,
    pool_hits: Counter,
    pool_misses: Counter,
    packets_buffered: Counter,
    packets_released: Counter,
    packets_discarded: Counter,
    slo_breaches: Counter,
    failovers: Counter,
    faults_injected: Counter,
    transfer_retries: Counter,
    transfer_recoveries: Counter,
    epochs_aborted: Counter,
    pause_hist: Histogram,
    dirty_pages_hist: Histogram,
    stage_hists: [Histogram; 6],
    encode_lane_hist: Histogram,
    period_gauge: Gauge,
    degradation_gauge: Gauge,
    health: Option<HealthPlane>,
}

impl SessionTelemetry {
    /// Builds the bundle for a session running under `policy`. A dynamic
    /// policy arms the SLO tracker with its target `D` and cap `T_max`; a
    /// fixed policy has no stated target, so nothing is tracked.
    fn new(policy: PeriodPolicy) -> Self {
        let slo = match policy {
            PeriodPolicy::Fixed(_) => None,
            PeriodPolicy::Dynamic {
                d_target, t_max, ..
            } => {
                let cap = (t_max != SimDuration::MAX).then(|| t_max.as_nanos());
                Some(SloTracker::new(d_target, cap))
            }
        };
        let mut r = MetricsRegistry::new();
        SessionTelemetry {
            flight: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            slo,
            checkpoints: r.counter("here_checkpoints_total", "Checkpoints completed", None),
            pages_harvested: r.counter(
                "here_pages_harvested_total",
                "Dirty pages copied across all checkpoints",
                None,
            ),
            bytes_transferred: r.counter(
                "here_bytes_transferred_total",
                "Encoded checkpoint bytes shipped to the replica",
                None,
            ),
            pages_seeded: r.counter(
                "here_pages_seeded_total",
                "Pages sent by the seeding migration",
                None,
            ),
            pool_hits: r.counter(
                "here_pool_reclaim_hits_total",
                "Encode-buffer checkouts served from the pool",
                None,
            ),
            pool_misses: r.counter(
                "here_pool_reclaim_misses_total",
                "Encode-buffer checkouts that had to allocate",
                None,
            ),
            packets_buffered: r.counter(
                "here_packets_buffered_total",
                "Guest output packets held back until commit",
                None,
            ),
            packets_released: r.counter(
                "here_packets_released_total",
                "Buffered packets released at checkpoint commit",
                None,
            ),
            packets_discarded: r.counter(
                "here_packets_discarded_total",
                "Buffered packets dropped by a failover rollback",
                None,
            ),
            slo_breaches: r.counter(
                "here_slo_breaches_total",
                "Degradation-target and period-cap SLO breaches",
                None,
            ),
            failovers: r.counter("here_failovers_total", "Failovers performed", None),
            faults_injected: r.counter(
                "here_faults_injected_total",
                "Faults laid into the run (exploits, accidents, fault plane)",
                None,
            ),
            transfer_retries: r.counter(
                "here_transfer_retries_total",
                "Checkpoint transfer attempts that failed and were retried",
                None,
            ),
            transfer_recoveries: r.counter(
                "here_transfer_recoveries_total",
                "Checkpoints delivered after at least one failed attempt",
                None,
            ),
            epochs_aborted: r.counter(
                "here_epochs_aborted_total",
                "Checkpoints discarded after exhausting the transfer retry budget",
                None,
            ),
            pause_hist: r.histogram(
                "here_pause_nanos",
                "VM-visible pause t per checkpoint (virtual ns)",
                None,
            ),
            dirty_pages_hist: r.histogram("here_dirty_pages", "Dirty pages N per checkpoint", None),
            stage_hists: Stage::ALL.map(|s| {
                r.histogram(
                    "here_stage_nanos",
                    "Virtual duration per pipeline stage (ns)",
                    Some(("stage", s.label())),
                )
            }),
            encode_lane_hist: r.histogram(
                "here_encode_lane_wall_nanos",
                "Wall-clock encode time per lane (ns)",
                None,
            ),
            period_gauge: r.gauge(
                "here_period_seconds",
                "Checkpoint period T chosen for the next epoch",
                None,
            ),
            degradation_gauge: r.gauge(
                "here_degradation_ratio",
                "Last measured degradation D_T = t/(t+T)",
                None,
            ),
            health: None,
            registry: r,
        }
    }

    /// Like [`SessionTelemetry::new`], with the health plane armed for a
    /// `replicas`-way set committing at `quorum`: registers the
    /// replica-labelled families, builds the per-replica health machines
    /// (stale threshold `stale_epoch_lag`), and arms the alert engine.
    /// Under a dynamic policy the SLO burn-rate rule inherits the
    /// policy's degradation target.
    fn with_health_plane(
        policy: PeriodPolicy,
        replicas: u32,
        quorum: u32,
        stale_epoch_lag: u64,
    ) -> Self {
        let mut t = SessionTelemetry::new(policy);
        let n = replicas.max(1);
        let mut replica_lag_gauges = Vec::with_capacity(n as usize);
        let mut replica_backlog_gauges = Vec::with_capacity(n as usize);
        let mut replica_acked_gauges = Vec::with_capacity(n as usize);
        let mut replica_retry_counters = Vec::with_capacity(n as usize);
        for i in 0..n {
            let label = i.to_string();
            let replica = Some(("replica", label.as_str()));
            replica_lag_gauges.push(t.registry.gauge(
                "here_replica_lag_epochs",
                "Epochs the replica trails the just-committed sequence",
                replica,
            ));
            replica_backlog_gauges.push(t.registry.gauge(
                "here_replica_backlog_pages",
                "Pages parked in the replica's catch-up backlog",
                replica,
            ));
            replica_acked_gauges.push(t.registry.gauge(
                "here_replica_acked_epoch",
                "The replica's ack high-water mark",
                replica,
            ));
            replica_retry_counters.push(t.registry.counter(
                "here_replica_retries_total",
                "Transfer retries charged to the replica",
                replica,
            ));
        }
        let flight_dropped_gauge = t.registry.gauge(
            "here_flight_recorder_dropped_events",
            "Events the bounded flight-recorder ring has evicted",
            None,
        );
        let stale_lag = stale_epoch_lag.max(1);
        let d_target_ppm = match policy {
            PeriodPolicy::Dynamic { d_target, .. } => (d_target * 1e6).round() as u64,
            PeriodPolicy::Fixed(_) => DEFAULT_D_TARGET_PPM,
        };
        t.health = Some(HealthPlane {
            replicas: n,
            quorum,
            stale_lag,
            series: SeriesSet::new(HEALTH_SERIES_WINDOW_NANOS),
            tracker: HealthTracker::new(n, stale_lag),
            engine: AlertEngine::new(d_target_ppm),
            replica_lag_gauges,
            replica_backlog_gauges,
            replica_acked_gauges,
            replica_retry_counters,
            flight_dropped_gauge,
            retry_totals: vec![0; n as usize],
            last_retry_totals: vec![0; n as usize],
        });
        t
    }

    /// Folds one event into the registry, the flight ring and the SLO
    /// tracker, then (for an [`SessionEvent::EpochHealth`], when the
    /// health plane is armed) ticks the health plane. Returns the alert
    /// edges that tick produced.
    fn observe(&mut self, event: &SessionEvent) -> Vec<AlertEvent> {
        match event {
            SessionEvent::Stage(event) => self.stage(event),
            SessionEvent::EncodeLanes {
                seq,
                at_nanos,
                walls,
            } => {
                for (lane, &wall_nanos) in walls.iter().enumerate() {
                    self.registry.observe(self.encode_lane_hist, wall_nanos);
                    self.flight.record(format_args!(
                        r#"{{"kind":"encode_lane","seq":{seq},"at_nanos":{at_nanos},"lane":{lane},"wall_nanos":{wall_nanos}}}"#
                    ));
                }
            }
            SessionEvent::Packets {
                buffered,
                released,
                discarded,
            } => {
                self.registry.raise(self.packets_buffered, *buffered);
                self.registry.raise(self.packets_released, *released);
                self.registry.raise(self.packets_discarded, *discarded);
            }
            // Recorded once per stale episode on the flight ring only (no
            // metric family: single-replica runs never emit it, so the
            // observe-gate schema stays frozen).
            SessionEvent::ReplicaStale {
                replica,
                lag_epochs,
                at_nanos,
            } => self.flight.record(format_args!(
                r#"{{"kind":"fault","at_nanos":{at_nanos},"fault":"replica_stale","host_down":false,"detail":"replica {replica} trails the quorum by {lag_epochs} epochs"}}"#
            )),
            SessionEvent::Checkpoint {
                record,
                decision,
                at_nanos,
            } => {
                let r = &mut self.registry;
                r.add(self.checkpoints, 1);
                r.observe(self.pause_hist, record.pause.as_nanos());
                r.observe(self.dirty_pages_hist, record.dirty_pages);
                r.set(self.period_gauge, decision.chosen_period.as_secs_f64());
                r.set(self.degradation_gauge, record.degradation);
                self.flight.record(format_args!(
                    r#"{{"kind":"period_decision","seq":{},"at_nanos":{at_nanos},"dirty_pages":{},"measured_pause_nanos":{},"previous_period_nanos":{},"chosen_period_nanos":{},"predicted_degradation":{},"action":"{}","clamp":{}}}"#,
                    record.seq,
                    record.dirty_pages,
                    record.pause.as_nanos(),
                    record.period.as_nanos(),
                    decision.chosen_period.as_nanos(),
                    decision.predicted_degradation,
                    decision.action.label(),
                    OrNull(decision.clamp.map(|c| format!("\"{}\"", c.label()))),
                ));
                if let Some(slo) = &mut self.slo {
                    let breaches = slo.observe(
                        record.seq,
                        *at_nanos,
                        record.pause.as_nanos(),
                        record.period.as_nanos(),
                    );
                    r.add(self.slo_breaches, breaches.len() as u64);
                }
            }
            SessionEvent::PoolStats {
                hits,
                misses,
                pooled,
                at_nanos,
            } => {
                self.registry.raise(self.pool_hits, *hits);
                self.registry.raise(self.pool_misses, *misses);
                self.flight.record(format_args!(
                    r#"{{"kind":"pool_reclaim","at_nanos":{at_nanos},"pool":"encode","hits":{hits},"misses":{misses},"pooled":{pooled}}}"#
                ));
            }
            SessionEvent::EncodePool {
                seq,
                tasks,
                steals,
                occupancy_pct,
                at_nanos,
            } => self.flight.record(format_args!(
                r#"{{"kind":"encode_pool","at_nanos":{at_nanos},"seq":{seq},"tasks":{tasks},"steals":{steals},"occupancy_pct":{occupancy_pct:.1}}}"#
            )),
            SessionEvent::EpochHealth {
                seq,
                at_nanos,
                degradation,
                period,
                pause,
                observations,
            } => {
                return self.health_tick(
                    *seq,
                    *at_nanos,
                    *degradation,
                    period.as_nanos(),
                    pause.as_nanos(),
                    observations,
                )
            }
            SessionEvent::Migration {
                iteration,
                pages,
                phase,
                at_nanos,
                ..
            } => {
                self.registry.add(self.pages_seeded, *pages);
                self.flight.record(format_args!(
                    r#"{{"kind":"migration","at_nanos":{at_nanos},"iteration":{iteration},"pages":{pages},"phase":"{phase}"}}"#
                ));
            }
            // A timeline mark, so crash, hang and starvation runs show
            // *what* went wrong, not just the failover marks that follow.
            SessionEvent::Fault {
                fault,
                host_down,
                detail,
                at_nanos,
                ..
            } => {
                self.registry.add(self.faults_injected, 1);
                self.flight.record(format_args!(
                    r#"{{"kind":"fault","at_nanos":{at_nanos},"fault":"{fault}","host_down":{host_down},"detail":"{}"}}"#,
                    json_escape(detail),
                ));
            }
            // With the health plane armed the retry is also charged to the
            // replica's labelled counter and to the next tick's
            // per-replica retry delta.
            SessionEvent::TransferRetry {
                seq,
                replica,
                attempt,
                reason,
                backoff,
                at_nanos,
            } => {
                self.registry.add(self.transfer_retries, 1);
                if let Some(h) = self.health.as_mut() {
                    if let Some(total) = h.retry_totals.get_mut(*replica as usize) {
                        *total += 1;
                    }
                    if let Some(&counter) = h.replica_retry_counters.get(*replica as usize) {
                        self.registry.add(counter, 1);
                    }
                }
                self.flight.record(format_args!(
                    r#"{{"kind":"retry","at_nanos":{at_nanos},"seq":{seq},"attempt":{attempt},"reason":"{reason}","backoff_nanos":{}}}"#,
                    backoff.as_nanos(),
                ));
            }
            SessionEvent::TransferRecovery { .. } => {
                self.registry.add(self.transfer_recoveries, 1);
            }
            SessionEvent::EpochAbort {
                seq,
                attempts,
                at_nanos,
            } => {
                self.registry.add(self.epochs_aborted, 1);
                self.flight.record(format_args!(
                    r#"{{"kind":"fault","at_nanos":{at_nanos},"fault":"epoch_abort","host_down":false,"detail":"checkpoint {seq} discarded after {attempts} failed transfer attempts"}}"#
                ));
            }
            SessionEvent::Failover { record, family, .. } => self.failover(record, family),
            SessionEvent::OverlapCredit { .. }
            | SessionEvent::Ack { .. }
            | SessionEvent::Commit { .. }
            | SessionEvent::RunEnd { .. } => {}
        }
        Vec::new()
    }

    fn stage(&mut self, event: &StageEvent) {
        let idx = Stage::ALL
            .iter()
            .position(|&s| s == event.stage)
            .expect("Stage::ALL covers every stage");
        let r = &mut self.registry;
        r.observe(self.stage_hists[idx], event.duration.as_nanos());
        match event.stage {
            Stage::Harvest => r.add(self.pages_harvested, event.pages),
            Stage::Transfer => r.add(self.bytes_transferred, event.bytes),
            _ => {}
        }
        self.flight.record(format_args!(
            r#"{{"kind":"stage","seq":{},"stage":"{}","at_nanos":{},"duration_nanos":{},"wall_nanos":{},"pages":{},"bytes":{}}}"#,
            event.seq,
            event.stage.label(),
            event.at.as_nanos(),
            event.duration.as_nanos(),
            OrNull(event.wall_nanos),
            event.pages,
            event.bytes,
        ));
    }

    /// Counts the failover and lays its timeline into the recorder: the
    /// fail → detect → resume marks, then the device re-plug (which
    /// happened in the detection → activation window).
    fn failover(&mut self, record: &FailoverRecord, new_family: &str) {
        self.registry.add(self.failovers, 1);
        let mut mark = |at: SimTime, phase: &str, detail: fmt::Arguments<'_>| {
            self.flight.record(format_args!(
                r#"{{"kind":"failover","at_nanos":{},"phase":"{phase}","detail":"{}"}}"#,
                at.as_nanos(),
                json_escape(&detail.to_string()),
            ))
        };
        mark(record.failed_at, "failed", format_args!(""));
        mark(
            record.detected_at,
            "detected",
            format_args!(
                "heartbeat silent for {}",
                record
                    .detected_at
                    .saturating_duration_since(record.failed_at)
            ),
        );
        mark(
            record.resumed_at,
            "resumed",
            format_args!(
                "from checkpoint {}; {} packets and {:.0} ops rolled back; {} devices switched",
                record.resumed_from_checkpoint,
                record.packets_lost,
                record.ops_lost,
                record.devices_switched
            ),
        );
        mark(
            record.detected_at,
            "device_switch",
            format_args!(
                "{} devices re-plugged as {new_family}; {} buffered packets discarded",
                record.devices_switched, record.packets_lost
            ),
        );
    }

    /// One committed epoch's health tick (a no-op — returning no events —
    /// when the plane is unarmed).
    ///
    /// Records the epoch into the windowed series (degradation in ppm,
    /// period, pause, per-replica lag/backlog/retries), refreshes the
    /// replica-labelled gauges and the flight-drop gauge, steps every
    /// replica's health machine, and evaluates the alert rules. Alert
    /// edges land on the flight recorder as `alert` entries and
    /// are returned so the span fold can lay matching spans into the
    /// trace and the capture fold can trigger on them. `observations` carry each replica's ack mark, lag and
    /// backlog; retry deltas are filled in from the plane's own
    /// per-replica retry accounting.
    fn health_tick(
        &mut self,
        epoch: u64,
        at_nanos: u64,
        degradation: f64,
        period_nanos: u64,
        pause_nanos: u64,
        observations: &[HealthObservation],
    ) -> Vec<AlertEvent> {
        let Some(h) = self.health.as_mut() else {
            return Vec::new();
        };
        let degradation_ppm = (degradation * 1e6).round() as u64;
        h.series.record(
            "here_degradation_ppm",
            None,
            SeriesKind::GaugeLast,
            at_nanos,
            degradation_ppm,
        );
        h.series.record(
            "here_period_nanos",
            None,
            SeriesKind::GaugeLast,
            at_nanos,
            period_nanos,
        );
        h.series.record(
            "here_pause_nanos",
            None,
            SeriesKind::Histogram,
            at_nanos,
            pause_nanos,
        );
        let mut epoch_retries = 0u64;
        let mut obs = Vec::with_capacity(observations.len());
        for o in observations {
            let i = o.replica as usize;
            let retries = h
                .retry_totals
                .get(i)
                .copied()
                .unwrap_or(0)
                .saturating_sub(h.last_retry_totals.get(i).copied().unwrap_or(0));
            epoch_retries += retries;
            let label = o.replica.to_string();
            h.series.record(
                "here_replica_lag_epochs",
                Some(("replica", &label)),
                SeriesKind::GaugeLast,
                at_nanos,
                o.lag_epochs,
            );
            h.series.record(
                "here_replica_backlog_pages",
                Some(("replica", &label)),
                SeriesKind::GaugeLast,
                at_nanos,
                o.backlog_pages,
            );
            for _ in 0..retries {
                h.series.record(
                    "here_transfer_retries",
                    Some(("replica", &label)),
                    SeriesKind::CounterRate,
                    at_nanos,
                    1,
                );
            }
            if let Some(&g) = h.replica_lag_gauges.get(i) {
                self.registry.set(g, o.lag_epochs as f64);
            }
            if let Some(&g) = h.replica_backlog_gauges.get(i) {
                self.registry.set(g, o.backlog_pages as f64);
            }
            if let Some(&g) = h.replica_acked_gauges.get(i) {
                self.registry.set(g, o.ack_mark as f64);
            }
            obs.push(HealthObservation { retries, ..*o });
        }
        h.last_retry_totals.clone_from(&h.retry_totals);
        self.registry
            .set(h.flight_dropped_gauge, self.flight.dropped() as f64);
        h.tracker.observe(epoch, at_nanos, &obs);
        let sample = AlertSample {
            epoch,
            at_nanos,
            degradation_ppm,
            period_nanos,
            retries: epoch_retries,
            stale_replicas: h.tracker.stale_replicas(),
            serviceable: h.tracker.serviceable(),
            replicas: h.replicas,
            quorum: h.quorum,
            flight_dropped: self.flight.dropped(),
        };
        let events = h.engine.evaluate(&sample);
        for event in &events {
            self.flight.record(format_args!(
                r#"{{"kind":"alert","at_nanos":{},"seq":{},"rule":"{}","severity":"{}","state":"{}","detail":"{}"}}"#,
                event.at_nanos,
                event.epoch,
                event.rule,
                event.severity.label(),
                event.state.label(),
                json_escape(&event.detail),
            ));
        }
        events
    }

    /// Freezes the bundle into the plain-data report snapshot.
    fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            registry: self.registry.snapshot(),
            flight_recorder_json: self.flight.dump_json(),
            flight_events_recorded: self.flight.total_recorded(),
            flight_events_dropped: self.flight.dropped(),
            slo: self.slo.as_ref().map(|s| s.summary()),
            slo_breaches: self
                .slo
                .as_ref()
                .map(|s| s.breaches().to_vec())
                .unwrap_or_default(),
            health: self.health.as_ref().map(|h| HealthSnapshot {
                replicas: h.replicas,
                quorum: h.quorum,
                stale_lag: h.stale_lag,
                series_points: h.series.total_windows() as u64,
                series_jsonl: h.series.render_jsonl(),
                states: h.tracker.states(),
                transitions: h.tracker.transitions().to_vec(),
                alert_log: h.engine.log().to_vec(),
                active_alerts: h.engine.active().iter().map(|r| r.to_string()).collect(),
            }),
        }
    }
}

/// The frozen observability record of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Every metric (counters, gauges, histograms).
    pub registry: RegistrySnapshot,
    /// The flight recorder's JSON dump (most recent events).
    pub flight_recorder_json: String,
    /// Flight events recorded over the run (retained + evicted).
    pub flight_events_recorded: u64,
    /// Flight events evicted by the bounded ring.
    pub flight_events_dropped: u64,
    /// SLO compliance summary (`None` under a fixed-period policy).
    pub slo: Option<SloSummary>,
    /// Every SLO breach, in order.
    pub slo_breaches: Vec<SloBreach>,
    /// The frozen health plane (`None` unless the config armed it).
    pub health: Option<HealthSnapshot>,
}

impl TelemetrySnapshot {
    /// The registry rendered in the Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        export::prometheus(&self.registry)
    }
}

/// The frozen health plane of one run: series, health trajectory, and
/// the ordered alert log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Replicas the plane watched.
    pub replicas: u32,
    /// Commit quorum the alert engine judged against.
    pub quorum: u32,
    /// Stale threshold (epochs) of the health machines.
    pub stale_lag: u64,
    /// Total series windows recorded (live + tail, across all series).
    pub series_points: u64,
    /// The windowed series as JSONL, one line per window, byte-stable.
    pub series_jsonl: String,
    /// Final health state per replica, in index order.
    pub states: Vec<HealthState>,
    /// Every health transition, in firing order.
    pub transitions: Vec<HealthTransition>,
    /// The ordered alert log (firing/resolved edges).
    pub alert_log: Vec<AlertEvent>,
    /// Rules still firing when the run ended, in declaration order.
    pub active_alerts: Vec<String>,
}

impl HealthSnapshot {
    /// The alert log as JSONL, one event per line, byte-stable.
    pub fn alert_log_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.alert_log {
            out.push_str(&event.render_json());
            out.push('\n');
        }
        out
    }
}

/// The span fold: the causal trace of the run, built from the events
/// that have a place in it.
#[derive(Debug)]
struct SpanFold {
    recorder: SpanRecorder,
    /// Replica tracks a *Transfer* stage lays an apply span on.
    replicas: u32,
    /// Open epoch-root span, from `Pause` until `Resume` (or an abort or
    /// failover) closes it.
    epoch_span: Option<SpanId>,
    /// Lane walls of the latest [`SessionEvent::EncodeLanes`], drained
    /// into lane spans by the next *Translate* stage. No seeding round's
    /// are ever drained: every round (full copy, pre-copy, stop-and-copy)
    /// is an encode with no stage after it, each replaces the last, and
    /// the first epoch's encode replaces the stop-and-copy's, so a
    /// seeding encode has a flight event per lane but no span.
    lane_walls: Vec<u64>,
    /// Credit of the latest [`SessionEvent::OverlapCredit`], drained into
    /// a `wire_overlap` span by the next *Transfer* stage.
    overlap_credit: SimDuration,
}

impl SpanFold {
    fn observe(&mut self, event: &SessionEvent, alerts: &[AlertEvent]) {
        match event {
            SessionEvent::Stage(event) => self.stage(event),
            SessionEvent::EncodeLanes { walls, .. } => self.lane_walls.clone_from(walls),
            SessionEvent::OverlapCredit { credit, .. } => self.overlap_credit = *credit,
            // One primary-track span per seeding round, ending when the
            // round did.
            SessionEvent::Migration {
                iteration,
                pages,
                phase,
                at_nanos,
                duration,
            } => {
                let start = at_nanos.saturating_sub(duration.as_nanos());
                self.recorder.push(
                    SpanDraft::new(phase, "migration", Track::Primary, start)
                        .lasting(duration.as_nanos())
                        .attr_u64("iteration", *iteration)
                        .attr_u64("pages", *pages),
                );
            }
            SessionEvent::Fault {
                fault,
                at_nanos,
                site,
                ..
            } => {
                let draft = SpanDraft::new(fault, "fault", Track::Controller, *at_nanos)
                    .attr_str("host", "primary");
                match *site {
                    FaultSite::Transfer => {}
                    FaultSite::Primary => {
                        self.recorder.push(draft);
                    }
                    FaultSite::PrimaryAtStage { seq, stage } => {
                        self.recorder
                            .push(draft.epoch(seq).attr_str("stage", stage.label()));
                    }
                }
            }
            SessionEvent::TransferRetry {
                seq,
                attempt,
                reason,
                at_nanos,
                ..
            } => {
                self.recorder.push(
                    SpanDraft::new("transfer_retry", "fault", Track::Controller, *at_nanos)
                        .epoch(*seq)
                        .attr_u64("attempt", u64::from(*attempt))
                        .attr_str("reason", reason),
                );
            }
            SessionEvent::EpochAbort {
                seq,
                attempts,
                at_nanos,
            } => {
                self.close_epoch(*at_nanos);
                self.recorder.push(
                    SpanDraft::new("epoch_abort", "fault", Track::Controller, *at_nanos)
                        .epoch(*seq)
                        .attr_u64("attempts", u64::from(*attempts)),
                );
            }
            SessionEvent::Failover { record, family, .. } => self.failover(record, family),
            _ => {}
        }
        // A zero-width controller span per alert edge, so alerts land in
        // the Chrome trace next to the epochs that caused them.
        for alert in alerts {
            self.recorder.push(
                SpanDraft::new(alert.rule, "alert", Track::Controller, alert.at_nanos)
                    .epoch(alert.epoch)
                    .attr_str("state", alert.state.label())
                    .attr_str("severity", alert.severity.label()),
            );
        }
    }

    /// Closes the open epoch root, if any, at `end_nanos`.
    fn close_epoch(&mut self, end_nanos: u64) {
        if let Some(root) = self.epoch_span.take() {
            self.recorder.close(root, end_nanos);
        }
    }

    /// The span-tree view of one stage event: the `Pause` stage opens the
    /// epoch root, each stage becomes a child span, `Translate` drains
    /// the stashed per-lane encode walls into lane child spans,
    /// `Transfer` adds the replica-side apply spans (linked across the
    /// simulated wire by epoch id, not by parent), and `Resume` closes
    /// the root.
    fn stage(&mut self, event: &StageEvent) {
        let start = event.at.as_nanos();
        let end = start + event.duration.as_nanos();
        if event.stage == Stage::Pause {
            let root = self.recorder.open(
                SpanDraft::new("epoch", "epoch", Track::Primary, start)
                    .epoch(event.seq)
                    .attr_u64("seq", event.seq),
            );
            self.epoch_span = Some(root);
        }
        let mut draft = SpanDraft::new(event.stage.label(), "stage", Track::Primary, start)
            .lasting(event.duration.as_nanos())
            .epoch(event.seq)
            .attr_u64("pages", event.pages)
            .attr_u64("bytes", event.bytes);
        if let Some(parent) = self.epoch_span {
            draft = draft.child_of(parent);
        }
        if let Some(wall) = event.wall_nanos {
            draft = draft.wall(wall);
        }
        let stage_span = self.recorder.push(draft);
        match event.stage {
            Stage::Translate => {
                // Each lane worked inside the Translate window; its share
                // of virtual time is the stage interval, its measured time
                // the stashed wall probe.
                let walls = std::mem::take(&mut self.lane_walls);
                for (lane, wall) in walls.into_iter().enumerate() {
                    self.recorder.push(
                        SpanDraft::new(
                            "encode_lane",
                            "lane",
                            Track::PrimaryLane(lane as u32),
                            start,
                        )
                        .lasting(event.duration.as_nanos())
                        .epoch(event.seq)
                        .child_of(stage_span)
                        .wall(wall)
                        .attr_u64("lane", lane as u64),
                    );
                }
            }
            Stage::Transfer => {
                // Wire time hidden under the encode window by the
                // streamed overlap channel: recorded as a child of the
                // (shortened) Transfer stage so the span tree shows what
                // the pause no longer pays. Only emitted when the
                // overlap knob produced a credit — the default tree (and
                // its fingerprint) is unchanged.
                let credit = std::mem::take(&mut self.overlap_credit);
                if credit > SimDuration::ZERO {
                    self.recorder.push(
                        SpanDraft::new("wire_overlap", "overlap", Track::Primary, start)
                            .lasting(credit.as_nanos())
                            .epoch(event.seq)
                            .child_of(stage_span),
                    );
                }
                // Each replica decodes and installs its copy of the stream
                // inside the Transfer window, on its own host and track:
                // linked by epoch id, not by parent.
                for index in 0..self.replicas {
                    let mut replica =
                        SpanDraft::new("decode_restore", "wire", Track::Replica(index), start)
                            .lasting(event.duration.as_nanos())
                            .epoch(event.seq)
                            .attr_u64("pages", event.pages)
                            .attr_u64("bytes", event.bytes);
                    if index > 0 {
                        replica = replica.attr_u64("replica", u64::from(index));
                    }
                    if let Some(wall) = event.wall_nanos {
                        replica = replica.wall(wall);
                    }
                    self.recorder.push(replica);
                }
            }
            Stage::Resume => self.close_epoch(end),
            _ => {}
        }
    }

    /// The failover span tree on the controller track: a root span
    /// covering fail → resume, with `detect` and `switch_and_activate`
    /// children splitting the outage at the detection instant. A failure
    /// mid-epoch leaves the epoch root open; it is closed at the failure
    /// instant first — the epoch never completed.
    fn failover(&mut self, record: &FailoverRecord, family: &'static str) {
        let failed = record.failed_at.as_nanos();
        let detected = record.detected_at.as_nanos();
        let resumed = record.resumed_at.as_nanos();
        self.close_epoch(failed);
        let root = self.recorder.push(
            SpanDraft::new("failover", "failover", Track::Controller, failed)
                .lasting(resumed.saturating_sub(failed))
                .attr_u64("resumed_from_checkpoint", record.resumed_from_checkpoint)
                .attr_u64("packets_lost", record.packets_lost as u64)
                .attr_f64("ops_lost", record.ops_lost),
        );
        self.recorder.push(
            SpanDraft::new("detect", "failover", Track::Controller, failed)
                .lasting(detected.saturating_sub(failed))
                .child_of(root),
        );
        self.recorder.push(
            SpanDraft::new(
                "switch_and_activate",
                "failover",
                Track::Controller,
                detected,
            )
            .lasting(resumed.saturating_sub(detected))
            .child_of(root)
            .attr_u64("devices_switched", record.devices_switched as u64)
            .attr_str("new_family", family),
        );
    }
}

/// The postmortem capture fold: the first trigger, and where in the log
/// it fired. What the other folds said at that event is derived from the
/// log when asked for ([`IncidentSnapshot::at`]).
///
/// [`IncidentSnapshot::at`]: crate::postmortem::IncidentSnapshot::at
#[derive(Debug, Default)]
struct Capture {
    /// Events folded so far: the log index of the next one.
    seen: usize,
    trigger: Option<IncidentTrigger>,
}

impl Capture {
    /// The capture `event` (or an alert edge it produced) triggers:
    /// `(trigger, epoch, at_nanos, detail)`.
    fn trigger(
        event: &SessionEvent,
        alerts: &[AlertEvent],
    ) -> Option<(&'static str, u64, u64, String)> {
        if let Some(alert) = alerts.iter().find(|a| a.state == AlertState::Firing) {
            let detail = format!("{}: {}", alert.rule, alert.detail);
            return Some(("alert", alert.epoch, alert.at_nanos, detail));
        }
        match event {
            SessionEvent::EpochAbort {
                seq,
                attempts,
                at_nanos,
            } => Some((
                "epoch_abort",
                *seq,
                *at_nanos,
                format!("epoch {seq} aborted after {attempts} transfer attempts"),
            )),
            SessionEvent::Failover { record, seq, .. } => Some((
                "failover",
                *seq,
                record.resumed_at.as_nanos(),
                format!(
                    "primary failed; replica {} activated from checkpoint {}",
                    record.activated_replica, record.resumed_from_checkpoint
                ),
            )),
            // An armed run that reached the end without any trigger still
            // captures, so the bundle workflow works on healthy runs too.
            SessionEvent::RunEnd { seq, at_nanos } => Some((
                "request",
                *seq,
                *at_nanos,
                "explicit end-of-run capture (no trigger fired)".to_string(),
            )),
            _ => None,
        }
    }

    /// Keeps the first trigger: `event`, or an alert edge it produced.
    fn observe(&mut self, event: &SessionEvent, alerts: &[AlertEvent]) {
        let index = self.seen;
        self.seen += 1;
        if self.trigger.is_some() {
            return;
        }
        self.trigger = Self::trigger(event, alerts).map(|(trigger, epoch, at_nanos, detail)| {
            IncidentTrigger {
                trigger: trigger.to_string(),
                epoch,
                at_nanos,
                detail,
                event: index,
            }
        });
    }
}

/// Every observer of one session, as one value: the folds [`fold`] runs,
/// in the order it runs them.
#[derive(Debug)]
struct Planes {
    telemetry: SessionTelemetry,
    spans: SpanFold,
    capture: Option<Capture>,
}

impl Planes {
    /// Builds the folds `cfg` arms. This is the only place the arming
    /// flags, the SLO policy and the topology are read on the planes'
    /// behalf.
    fn new(cfg: &ReplicationConfig) -> Self {
        let replicas = cfg.topology.replicas.max(1);
        let quorum = cfg.topology.effective_quorum();
        Planes {
            telemetry: if cfg.health_plane {
                SessionTelemetry::with_health_plane(
                    cfg.period,
                    replicas,
                    quorum,
                    cfg.topology.stale_epoch_lag,
                )
            } else {
                SessionTelemetry::new(cfg.period)
            },
            spans: SpanFold {
                recorder: SpanRecorder::new(),
                replicas,
                epoch_span: None,
                lane_walls: Vec::new(),
                overlap_credit: SimDuration::ZERO,
            },
            capture: cfg.postmortem_capture.then(Capture::default),
        }
    }

    /// Folds one event into every plane: metrics + flight + SLO and the
    /// health plane, then spans, then the capture.
    fn observe(&mut self, event: &SessionEvent) {
        let alerts = self.telemetry.observe(event);
        self.spans.observe(event, &alerts);
        if let Some(capture) = &mut self.capture {
            capture.observe(event, &alerts);
        }
    }

    /// Freezes the planes into what a report carries.
    fn finish(self) -> (TelemetrySnapshot, Vec<Span>, Option<IncidentTrigger>) {
        (
            self.telemetry.snapshot(),
            self.spans.recorder.into_spans(),
            self.capture.and_then(|c| c.trigger),
        )
    }
}

/// Recomputes the observability planes of a run from its event log: what
/// [`RunReport::telemetry`](crate::report::RunReport::telemetry),
/// [`RunReport::spans`](crate::report::RunReport::spans) and
/// [`RunReport::incident`](crate::report::RunReport::incident) would be
/// had the run that recorded `events` been configured as `cfg` — the
/// same fold the session runs when it finishes. Only `cfg`'s arming flags,
/// period policy and topology matter; folding a run's own log under its
/// own config reproduces its report exactly.
pub fn fold(
    cfg: &ReplicationConfig,
    events: &[SessionEvent],
) -> (TelemetrySnapshot, Vec<Span>, Option<IncidentTrigger>) {
    let mut planes = Planes::new(cfg);
    for event in events {
        planes.observe(event);
    }
    planes.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::period::{PeriodAction, PeriodDecision};
    use crate::report::CheckpointRecord;
    use here_telemetry::metrics::MetricValue;

    fn dynamic_policy() -> PeriodPolicy {
        PeriodPolicy::Dynamic {
            d_target: 0.3,
            t_max: SimDuration::from_secs(10),
            sigma: SimDuration::from_millis(250),
        }
    }

    fn sample_record(seq: u64) -> CheckpointRecord {
        CheckpointRecord {
            seq,
            paused_at: SimTime::from_secs(seq),
            period: SimDuration::from_secs(2),
            pause: SimDuration::from_millis(40),
            dirty_pages: 512,
            degradation: 0.02,
            wall_nanos: Some(1_000_000),
        }
    }

    fn checkpoint(record: CheckpointRecord, at_nanos: u64) -> SessionEvent {
        SessionEvent::Checkpoint {
            record,
            decision: PeriodDecision {
                chosen_period: SimDuration::from_secs(1),
                predicted_degradation: 0.038,
                action: PeriodAction::FastDescent,
                clamp: None,
            },
            at_nanos,
        }
    }

    fn retry(seq: u64, replica: u32, attempt: u32, reason: &'static str) -> SessionEvent {
        SessionEvent::TransferRetry {
            seq,
            replica,
            attempt,
            reason,
            backoff: SimDuration::from_micros(500),
            at_nanos: 10,
        }
    }

    /// A quiet epoch (2 % degradation, 2 s period, 40 ms pause) with the
    /// given per-replica `(ack mark, lag, backlog)`.
    fn epoch_health(seq: u64, at_nanos: u64, replicas: &[(u64, u64, u64)]) -> SessionEvent {
        SessionEvent::EpochHealth {
            seq,
            at_nanos,
            degradation: 0.02,
            period: SimDuration::from_secs(2),
            pause: SimDuration::from_millis(40),
            observations: replicas
                .iter()
                .enumerate()
                .map(
                    |(i, &(ack_mark, lag_epochs, backlog_pages))| HealthObservation {
                        replica: i as u32,
                        ack_mark,
                        lag_epochs,
                        backlog_pages,
                        retries: 0,
                    },
                )
                .collect(),
        }
    }

    #[test]
    fn checkpoint_hook_feeds_metrics_slo_and_flight() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        t.observe(&checkpoint(sample_record(1), 1_000));
        let snap = t.snapshot();
        assert_eq!(
            snap.registry.find("here_checkpoints_total").unwrap().value,
            MetricValue::Counter(1)
        );
        assert_eq!(
            snap.registry.find("here_period_seconds").unwrap().value,
            MetricValue::Gauge(1.0)
        );
        let slo = snap
            .slo
            .as_ref()
            .expect("dynamic policy arms the SLO tracker");
        assert_eq!(slo.evaluated, 1);
        assert_eq!(slo.compliant, 1);
        assert!(snap.flight_recorder_json.contains("period_decision"));
        assert!(snap.prometheus().contains("here_checkpoints_total 1"));
    }

    #[test]
    fn fixed_policy_has_no_slo_tracker() {
        let mut t = SessionTelemetry::new(PeriodPolicy::Fixed(SimDuration::from_secs(2)));
        t.observe(&checkpoint(sample_record(1), 0));
        let snap = t.snapshot();
        assert!(snap.slo.is_none());
        assert!(snap.slo_breaches.is_empty());
    }

    #[test]
    fn slo_breach_increments_the_breach_counter() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        let mut record = sample_record(3);
        // 4 s pause over a 2 s period: D = 0.67, far over the 0.3 target.
        record.pause = SimDuration::from_secs(4);
        record.degradation = 2.0 / 3.0;
        t.observe(&checkpoint(record, 0));
        let snap = t.snapshot();
        assert_eq!(
            snap.registry.find("here_slo_breaches_total").unwrap().value,
            MetricValue::Counter(1)
        );
        assert_eq!(snap.slo_breaches.len(), 1);
        assert_eq!(snap.slo_breaches[0].seq, 3);
    }

    #[test]
    fn stage_events_fill_labelled_histograms_and_counters() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            t.observe(&SessionEvent::Stage(StageEvent {
                seq: 1,
                stage,
                at: SimTime::from_secs(i as u64),
                duration: SimDuration::from_millis(5),
                wall_nanos: (stage == Stage::Harvest).then_some(4_200),
                pages: 128,
                bytes: 128 * 4096,
            }));
        }
        let snap = t.snapshot();
        assert_eq!(
            snap.registry
                .find("here_pages_harvested_total")
                .unwrap()
                .value,
            MetricValue::Counter(128)
        );
        assert_eq!(
            snap.registry
                .find("here_bytes_transferred_total")
                .unwrap()
                .value,
            MetricValue::Counter(128 * 4096)
        );
        assert!(snap
            .prometheus()
            .contains("here_stage_nanos_bucket{stage=\"harvest\""));
        assert!(snap.flight_recorder_json.contains("\"wall_nanos\":4200"));
        assert_eq!(snap.flight_events_recorded, 6);
    }

    #[test]
    fn pool_and_packet_sync_is_monotone() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        // A stale (smaller) value never decrements.
        for (hits, at_nanos) in [(10, 0), (25, 1), (20, 2)] {
            t.observe(&SessionEvent::PoolStats {
                hits,
                misses: 4,
                pooled: 4,
                at_nanos,
            });
        }
        t.observe(&SessionEvent::Packets {
            buffered: 7,
            released: 5,
            discarded: 0,
        });
        let snap = t.snapshot();
        assert_eq!(
            snap.registry
                .find("here_pool_reclaim_hits_total")
                .unwrap()
                .value,
            MetricValue::Counter(25)
        );
        assert_eq!(
            snap.registry
                .find("here_packets_buffered_total")
                .unwrap()
                .value,
            MetricValue::Counter(7)
        );
    }

    fn sample_failover() -> SessionEvent {
        SessionEvent::Failover {
            record: FailoverRecord {
                failed_at: SimTime::from_secs(10),
                detected_at: SimTime::from_secs(10) + SimDuration::from_millis(40),
                resumed_at: SimTime::from_secs(10) + SimDuration::from_millis(49),
                resumed_from_checkpoint: 7,
                activated_replica: 0,
                packets_lost: 3,
                ops_lost: 120.0,
                devices_switched: 3,
            },
            seq: 8,
            family: "kvm",
        }
    }

    #[test]
    fn failover_lays_a_three_mark_timeline() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        t.observe(&sample_failover());
        let json = t.snapshot().flight_recorder_json;
        for phase in ["failed", "detected", "resumed", "device_switch"] {
            assert!(json.contains(&format!("\"phase\":\"{phase}\"")), "{phase}");
        }
        assert!(json.contains("from checkpoint 7"));
        assert!(json.contains("3 devices re-plugged as kvm; 3 buffered packets discarded"));
    }

    #[test]
    fn retry_hooks_feed_counters_and_flight() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        t.observe(&SessionEvent::Fault {
            fault: "crash",
            host_down: true,
            detail: "injected".into(),
            at_nanos: 5,
            site: FaultSite::Primary,
        });
        t.observe(&retry(3, 0, 1, "corrupt_frame"));
        t.observe(&retry(3, 0, 2, "dropped"));
        t.observe(&SessionEvent::TransferRecovery {
            seq: 3,
            failed_attempts: 2,
        });
        t.observe(&SessionEvent::EpochAbort {
            seq: 4,
            attempts: 4,
            at_nanos: 30,
        });
        let snap = t.snapshot();
        for (name, want) in [
            ("here_faults_injected_total", 1),
            ("here_transfer_retries_total", 2),
            ("here_transfer_recoveries_total", 1),
            ("here_epochs_aborted_total", 1),
        ] {
            assert_eq!(
                snap.registry.find(name).unwrap().value,
                MetricValue::Counter(want),
                "{name}"
            );
        }
        assert!(snap.flight_recorder_json.contains("corrupt_frame"));
        assert!(snap.flight_recorder_json.contains("epoch_abort"));
        assert!(snap
            .flight_recorder_json
            .contains("discarded after 4 failed transfer attempts"));
    }

    #[test]
    fn unarmed_plane_registers_no_extra_families_and_ticks_to_nothing() {
        let mut plain = SessionTelemetry::new(dynamic_policy());
        let baseline = plain.snapshot().registry.metrics.len();
        let events = plain.observe(&epoch_health(1, 0, &[(1, 0, 0)]));
        assert!(events.is_empty());
        let snap = plain.snapshot();
        assert_eq!(snap.registry.metrics.len(), baseline);
        assert!(snap.health.is_none());
        assert!(!snap.prometheus().contains("here_replica_lag_epochs"));
    }

    #[test]
    fn armed_plane_labels_metrics_and_tracks_health() {
        let mut t = SessionTelemetry::with_health_plane(dynamic_policy(), 3, 2, 4);
        t.observe(&retry(2, 2, 1, "link_down"));
        let events = t.observe(&epoch_health(
            2,
            4_000_000_000,
            &[(2, 0, 0), (2, 0, 0), (1, 1, 32)],
        ));
        assert!(events.is_empty(), "one slow epoch is not an alert");
        let snap = t.snapshot();
        let health = snap.health.as_ref().expect("plane armed");
        assert_eq!(health.states[2], HealthState::Lagging);
        assert_eq!(health.transitions.len(), 1);
        assert!(snap
            .prometheus()
            .contains("here_replica_lag_epochs{replica=\"2\"} 1.0"));
        assert!(snap
            .prometheus()
            .contains("here_replica_backlog_pages{replica=\"2\"} 32.0"));
        assert!(snap
            .prometheus()
            .contains("here_replica_retries_total{replica=\"2\"} 1"));
        assert!(health.series_jsonl.contains("here_degradation_ppm"));
        assert!(health
            .series_jsonl
            .contains("\"metric\":\"here_transfer_retries\",\"label\":{\"replica\":\"2\"}"));
    }

    #[test]
    fn stale_replica_fires_and_resolves_through_the_tick() {
        let mut t = SessionTelemetry::with_health_plane(dynamic_policy(), 3, 2, 4);
        let mut fired = Vec::new();
        for epoch in 1..=6 {
            // Replica 2 misses every epoch: lag grows 1, 2, ..., 6.
            fired.extend(t.observe(&epoch_health(
                epoch,
                epoch * 2_000_000_000,
                &[(epoch, 0, 0), (epoch, 0, 0), (0, epoch, 128)],
            )));
        }
        let rules: Vec<&str> = fired.iter().map(|e| e.rule).collect();
        assert!(rules.contains(&"stale_replica"));
        assert!(rules.contains(&"quorum_at_risk"));
        // Replica 2 catches up and stays clean: alerts resolve.
        for epoch in 7..=10 {
            fired.extend(t.observe(&epoch_health(
                epoch,
                epoch * 2_000_000_000,
                &[(epoch, 0, 0); 3],
            )));
        }
        let snap = t.snapshot();
        let health = snap.health.expect("plane armed");
        assert_eq!(health.states, vec![HealthState::Healthy; 3]);
        assert!(health.active_alerts.is_empty());
        assert!(health.alert_log_jsonl().contains("\"state\":\"resolved\""));
        assert!(snap.flight_recorder_json.contains("\"kind\":\"alert\""));
    }

    #[test]
    fn alert_edges_reach_the_span_tree_and_the_first_firing_one_is_captured() {
        let cfg = ReplicationConfig::fixed_period(SimDuration::from_secs(2))
            .with_topology(crate::config::TopologyConfig {
                replicas: 3,
                quorum: 2,
                fanout: crate::config::FanoutMode::Star,
                stale_epoch_lag: 4,
            })
            .with_health_plane()
            .with_postmortem_capture();
        let mut events = Vec::new();
        for epoch in 1..=6 {
            for replica in 0..2 {
                events.push(SessionEvent::Ack {
                    replica,
                    seq: epoch,
                    at: SimTime::from_secs(2 * epoch),
                });
            }
            events.push(epoch_health(
                epoch,
                epoch * 2_000_000_000,
                &[(epoch, 0, 0), (epoch, 0, 0), (0, epoch, 128)],
            ));
        }
        events.push(SessionEvent::RunEnd {
            seq: 6,
            at_nanos: 13_000_000_000,
        });
        let (telemetry, spans, incident) = fold(&cfg, &events);
        let log = telemetry.health.expect("plane armed").alert_log;
        assert!(!log.is_empty());
        let alert_spans: Vec<_> = spans.iter().filter(|s| s.category == "alert").collect();
        assert_eq!(alert_spans.len(), log.len());
        let first = log.iter().find(|a| a.state == AlertState::Firing).unwrap();
        let trigger = incident.expect("capture armed");
        assert_eq!(
            (trigger.trigger.as_str(), trigger.epoch),
            ("alert", first.epoch)
        );
        // Three events per epoch: the trigger is the firing epoch's tick.
        assert_eq!(trigger.event as u64, 3 * first.epoch - 1);
        // The ledger view is rebuilt from the acks up to the trigger.
        let incident = crate::postmortem::IncidentSnapshot::at(&cfg, &events, &trigger);
        assert_eq!(incident.commits.len() as u64, first.epoch);
        assert_eq!(incident.acks.len(), 3);
        assert!(incident.acks[2].acks.is_empty());
    }

    #[test]
    fn an_armed_plane_registers_its_families_when_built() {
        // Four replica-labelled families per replica plus the flight-drop
        // gauge, registered before any event is folded.
        let unarmed = ReplicationConfig::dynamic(0.3, SimDuration::from_secs(10));
        let armed = unarmed
            .clone()
            .with_topology(crate::config::TopologyConfig {
                replicas: 2,
                quorum: 2,
                fanout: crate::config::FanoutMode::Star,
                stale_epoch_lag: 8,
            })
            .with_health_plane();
        let (plain, _, _) = fold(&unarmed, &[]);
        let (built, _, _) = fold(&armed, &[]);
        let (ticked, _, _) = fold(&armed, &[epoch_health(1, 0, &[(1, 0, 0)])]);
        assert_eq!(
            built.registry.metrics.len(),
            plain.registry.metrics.len() + 4 * 2 + 1
        );
        assert_eq!(ticked.registry.metrics.len(), built.registry.metrics.len());
        assert!(ticked.health.expect("armed").series_points > 0);
    }

    #[test]
    fn the_flight_ring_holds_its_capacity_and_counts_drops() {
        // The ring holds FLIGHT_RECORDER_CAPACITY events and evicts the
        // oldest past that.
        let mut t = SessionTelemetry::new(dynamic_policy());
        let recorded = FLIGHT_RECORDER_CAPACITY as u64 + 2;
        for seq in 1..=recorded {
            t.observe(&checkpoint(sample_record(seq), 0));
        }
        let snap = t.snapshot();
        assert!(snap.flight_recorder_json.starts_with(&format!(
            "{{\"capacity\":{FLIGHT_RECORDER_CAPACITY},\"total_recorded\":{recorded},\"dropped\":2,"
        )));
        assert_eq!(snap.flight_events_recorded, recorded);
        assert_eq!(snap.flight_events_dropped, 2);
    }

    #[test]
    fn folding_events_registers_no_new_family() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        let families = t.snapshot().registry.metrics.len();
        t.observe(&checkpoint(sample_record(1), 0));
        t.observe(&sample_failover());
        assert_eq!(t.snapshot().registry.metrics.len(), families);
    }

    #[test]
    fn the_flight_dump_renders_each_entry_kind() {
        let cfg = ReplicationConfig::dynamic(0.3, SimDuration::from_secs(10))
            .with_topology(crate::config::TopologyConfig {
                replicas: 3,
                quorum: 2,
                fanout: crate::config::FanoutMode::Star,
                stale_epoch_lag: 4,
            })
            .with_health_plane();
        let SessionEvent::Failover { record, seq, .. } = sample_failover() else {
            unreachable!()
        };
        let mut events = vec![
            SessionEvent::Stage(StageEvent {
                seq: 1,
                stage: Stage::Pause,
                at: SimTime::from_nanos(10),
                duration: SimDuration::from_nanos(5),
                wall_nanos: Some(4200),
                pages: 64,
                bytes: 262_144,
            }),
            checkpoint(sample_record(1), 15),
            SessionEvent::Failover {
                record,
                seq,
                family: "\"kvm\"",
            },
            retry(2, 0, 1, "link_down"),
        ];
        for epoch in 1..=4 {
            events.push(epoch_health(
                epoch,
                epoch * 2_000_000_000,
                &[(epoch, 0, 0), (epoch, 0, 0), (0, epoch, 128)],
            ));
        }
        let json = fold(&cfg, &events).0.flight_recorder_json;
        assert!(json.starts_with(
            r#"{"capacity":1024,"total_recorded":9,"dropped":0,"events":[{"kind":"stage","seq":1,"stage":"pause","at_nanos":10,"duration_nanos":5,"wall_nanos":4200,"pages":64,"bytes":262144},"#
        ));
        for entry in [
            r#"{"kind":"period_decision","seq":1,"at_nanos":15,"dirty_pages":512,"measured_pause_nanos":40000000,"previous_period_nanos":2000000000,"chosen_period_nanos":1000000000,"predicted_degradation":0.038,"action":"fast_descent","clamp":null}"#,
            r#"{"kind":"failover","at_nanos":10040000000,"phase":"device_switch","detail":"3 devices re-plugged as \"kvm\"; 3 buffered packets discarded"}"#,
            r#"{"kind":"retry","at_nanos":10,"seq":2,"attempt":1,"reason":"link_down","backoff_nanos":500000}"#,
            r#"{"kind":"alert","at_nanos":8000000000,"seq":4,"rule":"stale_replica","severity":"warning","state":"firing","detail":"stale replicas [2]"}"#,
        ] {
            assert!(json.contains(entry), "{entry}\nin {json}");
        }
        assert!(json.ends_with("}]}"));
    }
}
