//! The session's always-on observability bundle.
//!
//! [`SessionTelemetry`] wires the generic `here-telemetry` building blocks
//! — metrics registry, flight recorder, SLO tracker — to the replication
//! stack's events: stage boundaries, period-controller decisions, encode
//! lanes, buffer-pool reclaims, the seeding migration and the failover
//! timeline. The session owns one instance and calls the `on_*` hooks
//! from the instrumented paths; [`SessionTelemetry::snapshot`] freezes
//! everything into the plain-data [`TelemetrySnapshot`] that rides in
//! [`crate::report::RunReport::telemetry`].
//!
//! ## Metric reference
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `here_checkpoints_total` | counter | checkpoints completed |
//! | `here_pages_harvested_total` | counter | dirty pages copied across all checkpoints |
//! | `here_bytes_transferred_total` | counter | encoded checkpoint bytes shipped |
//! | `here_pages_seeded_total` | counter | pages sent by the seeding migration |
//! | `here_pool_reclaim_hits_total` | counter | encode-buffer checkouts served from the pool |
//! | `here_pool_reclaim_misses_total` | counter | encode-buffer checkouts that allocated |
//! | `here_packets_buffered_total` | counter | guest output packets held back for commit |
//! | `here_packets_released_total` | counter | buffered packets released at commit |
//! | `here_packets_discarded_total` | counter | buffered packets dropped by a failover |
//! | `here_slo_breaches_total` | counter | degradation/period-cap SLO breaches |
//! | `here_failovers_total` | counter | failovers performed |
//! | `here_faults_injected_total` | counter | faults laid into the run (exploits, accidents, fault plane) |
//! | `here_transfer_retries_total` | counter | checkpoint transfer attempts that failed and were retried |
//! | `here_transfer_recoveries_total` | counter | checkpoints delivered after at least one failed attempt |
//! | `here_epochs_aborted_total` | counter | checkpoints discarded after exhausting the retry budget |
//! | `here_pause_nanos` | histogram | VM-visible pause `t` per checkpoint |
//! | `here_dirty_pages` | histogram | dirty pages `N` per checkpoint |
//! | `here_stage_nanos{stage=…}` | histogram | virtual duration per pipeline stage |
//! | `here_encode_lane_wall_nanos` | histogram | wall-clock encode time per lane |
//! | `here_period_seconds` | gauge | the period `T` chosen for the next epoch |
//! | `here_degradation_ratio` | gauge | last measured degradation `D_T` |
//!
//! With the health plane armed
//! ([`crate::config::ReplicationConfig::health_plane`]), these
//! replica-labelled families join the registry (single-replica and
//! unarmed runs never register them, so the frozen observe-gate metric
//! schema is untouched):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `here_replica_lag_epochs{replica=…}` | gauge | epochs each replica trails the just-committed sequence |
//! | `here_replica_backlog_pages{replica=…}` | gauge | pages parked in each replica's catch-up backlog |
//! | `here_replica_acked_epoch{replica=…}` | gauge | each replica's ack high-water mark |
//! | `here_replica_retries_total{replica=…}` | counter | transfer retries charged to each replica |
//! | `here_flight_recorder_dropped_events` | gauge | events the bounded flight ring has evicted |

use serde::{Deserialize, Serialize};

use here_sim_core::time::SimDuration;
use here_telemetry::alert::{AlertEngine, AlertEvent, AlertRules, AlertSample};
use here_telemetry::export::prometheus;
use here_telemetry::flight::{FlightEvent, FlightRecorder};
use here_telemetry::health::{
    HealthObservation, HealthPolicy, HealthState, HealthTracker, HealthTransition,
};
use here_telemetry::metrics::{
    CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry, RegistrySnapshot,
};
use here_telemetry::slo::{SloBreach, SloSummary, SloTracker};
use here_telemetry::timeseries::{SeriesKind, SeriesSet};

use crate::config::PeriodPolicy;
use crate::failover::FailoverRecord;
use crate::period::PeriodDecision;
use crate::report::CheckpointRecord;
use crate::trace::{Stage, StageEvent};

/// Events the always-on flight recorder retains.
pub const FLIGHT_RECORDER_CAPACITY: usize = 1024;

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
    replica_lag_gauges: Vec<GaugeHandle>,
    replica_backlog_gauges: Vec<GaugeHandle>,
    replica_acked_gauges: Vec<GaugeHandle>,
    replica_retry_counters: Vec<CounterHandle>,
    flight_dropped_gauge: GaugeHandle,
    /// Cumulative transfer retries per replica.
    retry_totals: Vec<u64>,
    /// `retry_totals` as of the previous health tick (for epoch deltas).
    last_retry_totals: Vec<u64>,
}

/// The live observability state of one replication session.
#[derive(Debug)]
pub struct SessionTelemetry {
    policy: PeriodPolicy,
    registry: MetricsRegistry,
    flight: FlightRecorder,
    slo: Option<SloTracker>,
    checkpoints: CounterHandle,
    pages_harvested: CounterHandle,
    bytes_transferred: CounterHandle,
    pages_seeded: CounterHandle,
    pool_hits: CounterHandle,
    pool_misses: CounterHandle,
    packets_buffered: CounterHandle,
    packets_released: CounterHandle,
    packets_discarded: CounterHandle,
    slo_breaches: CounterHandle,
    failovers: CounterHandle,
    faults_injected: CounterHandle,
    transfer_retries: CounterHandle,
    transfer_recoveries: CounterHandle,
    epochs_aborted: CounterHandle,
    pause_hist: HistogramHandle,
    dirty_pages_hist: HistogramHandle,
    stage_hists: [HistogramHandle; 6],
    encode_lane_hist: HistogramHandle,
    period_gauge: GaugeHandle,
    degradation_gauge: GaugeHandle,
    health: Option<HealthPlane>,
}

impl SessionTelemetry {
    /// Builds the bundle for a session running under `policy`. A dynamic
    /// policy arms the SLO tracker with its target `D` and cap `T_max`; a
    /// fixed policy has no stated target, so nothing is tracked.
    pub fn new(policy: PeriodPolicy) -> Self {
        let mut registry = MetricsRegistry::new();
        let checkpoints = registry.counter("here_checkpoints_total", "Checkpoints completed");
        let pages_harvested = registry.counter(
            "here_pages_harvested_total",
            "Dirty pages copied across all checkpoints",
        );
        let bytes_transferred = registry.counter(
            "here_bytes_transferred_total",
            "Encoded checkpoint bytes shipped to the replica",
        );
        let pages_seeded = registry.counter(
            "here_pages_seeded_total",
            "Pages sent by the seeding migration",
        );
        let pool_hits = registry.counter(
            "here_pool_reclaim_hits_total",
            "Encode-buffer checkouts served from the pool",
        );
        let pool_misses = registry.counter(
            "here_pool_reclaim_misses_total",
            "Encode-buffer checkouts that had to allocate",
        );
        let packets_buffered = registry.counter(
            "here_packets_buffered_total",
            "Guest output packets held back until commit",
        );
        let packets_released = registry.counter(
            "here_packets_released_total",
            "Buffered packets released at checkpoint commit",
        );
        let packets_discarded = registry.counter(
            "here_packets_discarded_total",
            "Buffered packets dropped by a failover rollback",
        );
        let slo_breaches = registry.counter(
            "here_slo_breaches_total",
            "Degradation-target and period-cap SLO breaches",
        );
        let failovers = registry.counter("here_failovers_total", "Failovers performed");
        let faults_injected = registry.counter(
            "here_faults_injected_total",
            "Faults laid into the run (exploits, accidents, fault plane)",
        );
        let transfer_retries = registry.counter(
            "here_transfer_retries_total",
            "Checkpoint transfer attempts that failed and were retried",
        );
        let transfer_recoveries = registry.counter(
            "here_transfer_recoveries_total",
            "Checkpoints delivered after at least one failed attempt",
        );
        let epochs_aborted = registry.counter(
            "here_epochs_aborted_total",
            "Checkpoints discarded after exhausting the transfer retry budget",
        );
        let pause_hist = registry.histogram(
            "here_pause_nanos",
            "VM-visible pause t per checkpoint (virtual ns)",
        );
        let dirty_pages_hist =
            registry.histogram("here_dirty_pages", "Dirty pages N per checkpoint");
        let stage_hists = Stage::ALL.map(|s| {
            registry.histogram_with_label(
                "here_stage_nanos",
                "Virtual duration per pipeline stage (ns)",
                Some(("stage", s.label())),
            )
        });
        let encode_lane_hist = registry.histogram(
            "here_encode_lane_wall_nanos",
            "Wall-clock encode time per lane (ns)",
        );
        let period_gauge = registry.gauge(
            "here_period_seconds",
            "Checkpoint period T chosen for the next epoch",
        );
        let degradation_gauge = registry.gauge(
            "here_degradation_ratio",
            "Last measured degradation D_T = t/(t+T)",
        );
        let slo = match policy {
            PeriodPolicy::Fixed(_) => None,
            PeriodPolicy::Dynamic {
                d_target, t_max, ..
            } => {
                let cap = (t_max != SimDuration::MAX).then(|| t_max.as_nanos());
                Some(SloTracker::new(d_target, cap))
            }
        };
        SessionTelemetry {
            policy,
            registry,
            flight: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            slo,
            checkpoints,
            pages_harvested,
            bytes_transferred,
            pages_seeded,
            pool_hits,
            pool_misses,
            packets_buffered,
            packets_released,
            packets_discarded,
            slo_breaches,
            failovers,
            faults_injected,
            transfer_retries,
            transfer_recoveries,
            epochs_aborted,
            pause_hist,
            dirty_pages_hist,
            stage_hists,
            encode_lane_hist,
            period_gauge,
            degradation_gauge,
            health: None,
        }
    }

    /// Like [`SessionTelemetry::new`], with the health plane armed for a
    /// `replicas`-way set committing at `quorum`: registers the
    /// replica-labelled families, builds the per-replica health machines
    /// (stale threshold `stale_epoch_lag`), and arms the alert engine.
    /// Under a dynamic policy the SLO burn-rate rule inherits the
    /// policy's degradation target.
    pub fn with_health_plane(
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
            replica_lag_gauges.push(t.registry.gauge_with_label(
                "here_replica_lag_epochs",
                "Epochs the replica trails the just-committed sequence",
                Some(("replica", &label)),
            ));
            replica_backlog_gauges.push(t.registry.gauge_with_label(
                "here_replica_backlog_pages",
                "Pages parked in the replica's catch-up backlog",
                Some(("replica", &label)),
            ));
            replica_acked_gauges.push(t.registry.gauge_with_label(
                "here_replica_acked_epoch",
                "The replica's ack high-water mark",
                Some(("replica", &label)),
            ));
            replica_retry_counters.push(t.registry.counter_with_label(
                "here_replica_retries_total",
                "Transfer retries charged to the replica",
                Some(("replica", &label)),
            ));
        }
        let flight_dropped_gauge = t.registry.gauge(
            "here_flight_recorder_dropped_events",
            "Events the bounded flight-recorder ring has evicted",
        );
        let stale_lag = stale_epoch_lag.max(1);
        let health_policy = HealthPolicy {
            lagging_lag: (stale_lag / 4).max(1),
            stale_lag,
            recover_epochs: 2,
        };
        let mut rules = AlertRules::default();
        if let PeriodPolicy::Dynamic { d_target, .. } = policy {
            rules.d_target_ppm = (d_target * 1e6).round() as u64;
        }
        t.health = Some(HealthPlane {
            replicas: n,
            quorum,
            stale_lag,
            series: SeriesSet::new(HEALTH_SERIES_WINDOW_NANOS),
            tracker: HealthTracker::new(n, health_policy),
            engine: AlertEngine::new(rules),
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

    /// Discards everything observed so far (used when a warmup window
    /// closes and measurement restarts). Counters are handles shared with
    /// nothing outside this bundle, so a rebuild is the cheapest reset.
    /// An armed health plane stays armed with the same parameters.
    pub fn reset(&mut self) {
        *self = match &self.health {
            Some(h) => {
                SessionTelemetry::with_health_plane(self.policy, h.replicas, h.quorum, h.stale_lag)
            }
            None => SessionTelemetry::new(self.policy),
        };
    }

    /// One pipeline stage boundary crossed.
    pub fn on_stage_event(&mut self, event: &StageEvent) {
        let idx = Stage::ALL
            .iter()
            .position(|&s| s == event.stage)
            .expect("Stage::ALL covers every stage");
        self.stage_hists[idx].observe(event.duration.as_nanos());
        match event.stage {
            Stage::Harvest => self.pages_harvested.add(event.pages),
            Stage::Transfer => self.bytes_transferred.add(event.bytes),
            _ => {}
        }
        self.flight.record(FlightEvent::Stage {
            seq: event.seq,
            stage: event.stage.label(),
            at_nanos: event.at.as_nanos(),
            duration_nanos: event.duration.as_nanos(),
            wall_nanos: event.wall_nanos,
            pages: event.pages,
            bytes: event.bytes,
        });
    }

    /// One checkpoint completed: feeds the histograms, gauges, SLO tracker
    /// and the flight recorder with the derived record and the period
    /// controller's decision. `at_nanos` is the report-relative timestamp.
    pub fn on_checkpoint(
        &mut self,
        record: &CheckpointRecord,
        decision: &PeriodDecision,
        at_nanos: u64,
    ) {
        self.checkpoints.incr();
        self.pause_hist.observe(record.pause.as_nanos());
        self.dirty_pages_hist.observe(record.dirty_pages);
        self.period_gauge.set(decision.chosen_period.as_secs_f64());
        self.degradation_gauge.set(record.degradation);
        self.flight.record(FlightEvent::PeriodDecision {
            seq: record.seq,
            at_nanos,
            dirty_pages: decision.dirty_pages,
            measured_pause_nanos: decision.measured_pause.as_nanos(),
            previous_period_nanos: decision.previous_period.as_nanos(),
            chosen_period_nanos: decision.chosen_period.as_nanos(),
            predicted_degradation: decision.predicted_degradation,
            action: decision.action.label(),
            clamp: decision.clamp.map(|c| c.label()),
        });
        if let Some(slo) = &mut self.slo {
            let breaches = slo.observe(
                record.seq,
                at_nanos,
                record.pause.as_nanos(),
                record.period.as_nanos(),
            );
            self.slo_breaches.add(breaches.len() as u64);
        }
    }

    /// One encode lane finished its shard of checkpoint `seq`.
    pub fn on_encode_lane(&mut self, seq: u64, lane: u64, wall_nanos: u64, at_nanos: u64) {
        self.encode_lane_hist.observe(wall_nanos);
        self.flight.record(FlightEvent::EncodeLane {
            seq,
            at_nanos,
            lane,
            wall_nanos,
        });
    }

    /// The work-stealing encode pool finished a checkpoint round: record
    /// how the chunks spread across lanes. Only called when the pool ran
    /// a multi-lane round, so barrier-era flight dumps are unchanged.
    pub fn on_encode_pool(
        &mut self,
        seq: u64,
        tasks: u64,
        steals: u64,
        occupancy_pct: f64,
        at_nanos: u64,
    ) {
        self.flight.record(FlightEvent::EncodePool {
            at_nanos,
            seq,
            tasks,
            steals,
            occupancy_pct,
        });
    }

    /// Samples the encode buffer pool's cumulative reclaim statistics
    /// (called after each checkpoint's transfer recycles its segments).
    pub fn on_pool_stats(&mut self, hits: u64, misses: u64, pooled: u64, at_nanos: u64) {
        sync_counter(&self.pool_hits, hits);
        sync_counter(&self.pool_misses, misses);
        self.flight.record(FlightEvent::PoolReclaim {
            at_nanos,
            pool: "encode",
            hits,
            misses,
            pooled,
        });
    }

    /// Syncs the device manager's packet counters (cumulative values).
    pub fn on_packet_stats(&mut self, buffered: u64, released: u64, discarded: u64) {
        sync_counter(&self.packets_buffered, buffered);
        sync_counter(&self.packets_released, released);
        sync_counter(&self.packets_discarded, discarded);
    }

    /// One seeding-migration iteration finished.
    pub fn on_migration_iteration(
        &mut self,
        iteration: u64,
        pages: u64,
        phase: &'static str,
        at_nanos: u64,
    ) {
        self.pages_seeded.add(pages);
        self.flight.record(FlightEvent::Migration {
            at_nanos,
            iteration,
            pages,
            phase,
        });
    }

    /// A failover ran: counts it and lays its timeline into the recorder.
    pub fn on_failover(&mut self, record: &FailoverRecord) {
        self.failovers.incr();
        self.flight.record(FlightEvent::Failover {
            at_nanos: record.failed_at.as_nanos(),
            phase: "failed",
            detail: String::new(),
        });
        self.flight.record(FlightEvent::Failover {
            at_nanos: record.detected_at.as_nanos(),
            phase: "detected",
            detail: format!(
                "heartbeat silent for {}",
                record
                    .detected_at
                    .saturating_duration_since(record.failed_at)
            ),
        });
        self.flight.record(FlightEvent::Failover {
            at_nanos: record.resumed_at.as_nanos(),
            phase: "resumed",
            detail: format!(
                "from checkpoint {}; {} packets and {:.0} ops rolled back; {} devices switched",
                record.resumed_from_checkpoint,
                record.packets_lost,
                record.ops_lost,
                record.devices_switched
            ),
        });
    }

    /// A fault was injected into the primary (exploit launch or DoS
    /// accident): lays a timeline mark into the recorder so crash, hang
    /// and starvation runs show *what* went wrong, not just the three
    /// failover gauge marks that follow.
    pub fn on_fault(
        &mut self,
        fault: &'static str,
        host_down: bool,
        detail: String,
        at_nanos: u64,
    ) {
        self.faults_injected.incr();
        self.flight.record(FlightEvent::Fault {
            at_nanos,
            fault,
            host_down,
            detail,
        });
    }

    /// A transfer attempt toward `replica` failed and will be retried
    /// after `backoff_nanos` of exponential backoff. With the health
    /// plane armed the retry is also charged to the replica's labelled
    /// counter and to the next health tick's per-replica retry delta.
    pub fn on_transfer_retry(
        &mut self,
        seq: u64,
        replica: u32,
        attempt: u32,
        reason: &'static str,
        backoff_nanos: u64,
        at_nanos: u64,
    ) {
        self.transfer_retries.incr();
        if let Some(h) = self.health.as_mut() {
            if let Some(total) = h.retry_totals.get_mut(replica as usize) {
                *total += 1;
            }
            if let Some(counter) = h.replica_retry_counters.get(replica as usize) {
                counter.incr();
            }
        }
        self.flight.record(FlightEvent::Retry {
            at_nanos,
            seq,
            attempt,
            reason,
            backoff_nanos,
        });
    }

    /// A checkpoint was delivered after `failed_attempts` failed tries.
    pub fn on_transfer_recovery(&mut self, _seq: u64, _failed_attempts: u32) {
        self.transfer_recoveries.incr();
    }

    /// A checkpoint exhausted its transfer retry budget and was discarded;
    /// the previous committed epoch stays authoritative.
    pub fn on_epoch_abort(&mut self, seq: u64, attempts: u32, at_nanos: u64) {
        self.epochs_aborted.incr();
        self.flight.record(FlightEvent::Fault {
            at_nanos,
            fault: "epoch_abort",
            host_down: false,
            detail: format!("checkpoint {seq} discarded after {attempts} failed transfer attempts"),
        });
    }

    /// A replica fell behind the newest acked epoch by more than the
    /// topology's staleness bound and was declared stale. Recorded once
    /// per stale episode on the flight recorder (no dedicated metric
    /// family: single-replica runs never emit it, so the observe-gate
    /// schema stays frozen).
    pub fn on_replica_stale(&mut self, replica: u32, lag_epochs: u64, at_nanos: u64) {
        self.flight.record(FlightEvent::Fault {
            at_nanos,
            fault: "replica_stale",
            host_down: false,
            detail: format!("replica {replica} trails the quorum by {lag_epochs} epochs"),
        });
    }

    /// The device manager re-plugged the replica's devices during
    /// failover (the detection → activation window).
    pub fn on_device_switch(
        &mut self,
        devices: usize,
        packets_discarded: usize,
        new_family: &'static str,
        at_nanos: u64,
    ) {
        self.flight.record(FlightEvent::Failover {
            at_nanos,
            phase: "device_switch",
            detail: format!(
                "{devices} devices re-plugged as {new_family}; {packets_discarded} buffered packets discarded"
            ),
        });
    }

    /// One committed epoch's health tick (health plane only; a no-op —
    /// returning no events — when the plane is unarmed).
    ///
    /// Records the epoch into the windowed series (degradation in ppm,
    /// period, pause, per-replica lag/backlog/retries), refreshes the
    /// replica-labelled gauges and the flight-drop gauge, steps every
    /// replica's health machine, and evaluates the alert rules. Alert
    /// edges land on the flight recorder as [`FlightEvent::Alert`] and
    /// are returned so the session can lay matching spans into the
    /// trace. `observations` carry each replica's ack mark, lag and
    /// backlog; retry deltas are filled in from the plane's own
    /// per-replica retry accounting.
    pub fn on_health_tick(
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
            if let Some(g) = h.replica_lag_gauges.get(i) {
                g.set(o.lag_epochs as f64);
            }
            if let Some(g) = h.replica_backlog_gauges.get(i) {
                g.set(o.backlog_pages as f64);
            }
            if let Some(g) = h.replica_acked_gauges.get(i) {
                g.set(o.ack_mark as f64);
            }
            obs.push(HealthObservation { retries, ..*o });
        }
        h.last_retry_totals.clone_from(&h.retry_totals);
        h.flight_dropped_gauge.set(self.flight.dropped() as f64);
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
            self.flight.record(FlightEvent::Alert {
                at_nanos: event.at_nanos,
                seq: event.epoch,
                rule: event.rule,
                severity: event.severity.label(),
                state: event.state.label(),
                detail: event.detail.clone(),
            });
        }
        events
    }

    /// Read access for tests and exporters.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Freezes the bundle into the plain-data report snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let registry = self.registry.snapshot();
        TelemetrySnapshot {
            prometheus: prometheus(&registry),
            registry,
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
                alert_log_jsonl: h.engine.render_jsonl(),
                active_alerts: h.engine.active().iter().map(|r| r.to_string()).collect(),
            }),
        }
    }
}

/// Raises a monotone counter to `target` (cumulative sources like the
/// buffer pool keep their own totals; the metric mirrors them).
fn sync_counter(counter: &CounterHandle, target: u64) {
    let current = counter.get();
    if target > current {
        counter.add(target - current);
    }
}

/// The frozen observability record of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Every metric, frozen (counters, gauges, histograms).
    pub registry: RegistrySnapshot,
    /// The registry rendered in the Prometheus text exposition format.
    pub prometheus: String,
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
    /// The alert log as JSONL, one event per line, byte-stable.
    pub alert_log_jsonl: String,
    /// Rules still firing when the run ended, in declaration order.
    pub active_alerts: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::period::PeriodAction;
    use here_sim_core::time::SimTime;
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

    fn sample_decision() -> PeriodDecision {
        PeriodDecision {
            dirty_pages: 512,
            measured_pause: SimDuration::from_millis(40),
            measured_degradation: 0.02,
            previous_period: SimDuration::from_secs(2),
            chosen_period: SimDuration::from_secs(1),
            predicted_degradation: 0.038,
            action: PeriodAction::FastDescent,
            clamp: None,
        }
    }

    #[test]
    fn checkpoint_hook_feeds_metrics_slo_and_flight() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        t.on_checkpoint(&sample_record(1), &sample_decision(), 1_000);
        let snap = t.snapshot();
        assert_eq!(
            snap.registry.find("here_checkpoints_total").unwrap().value,
            MetricValue::Counter(1)
        );
        assert_eq!(
            snap.registry.find("here_period_seconds").unwrap().value,
            MetricValue::Gauge(1.0)
        );
        let slo = snap.slo.expect("dynamic policy arms the SLO tracker");
        assert_eq!(slo.evaluated, 1);
        assert_eq!(slo.compliant, 1);
        assert!(snap.flight_recorder_json.contains("period_decision"));
        assert!(snap.prometheus.contains("here_checkpoints_total 1"));
    }

    #[test]
    fn fixed_policy_has_no_slo_tracker() {
        let mut t = SessionTelemetry::new(PeriodPolicy::Fixed(SimDuration::from_secs(2)));
        t.on_checkpoint(&sample_record(1), &sample_decision(), 0);
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
        t.on_checkpoint(&record, &sample_decision(), 0);
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
            t.on_stage_event(&StageEvent {
                seq: 1,
                stage,
                at: SimTime::from_secs(i as u64),
                duration: SimDuration::from_millis(5),
                wall_nanos: (stage == Stage::Harvest).then_some(4_200),
                pages: 128,
                bytes: 128 * 4096,
            });
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
            .prometheus
            .contains("here_stage_nanos_bucket{stage=\"harvest\""));
        assert!(snap.flight_recorder_json.contains("\"wall_nanos\":4200"));
        assert_eq!(snap.flight_events_recorded, 6);
    }

    #[test]
    fn pool_and_packet_sync_is_monotone() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        t.on_pool_stats(10, 4, 4, 0);
        t.on_pool_stats(25, 4, 4, 1);
        // A stale (smaller) value never decrements.
        t.on_pool_stats(20, 4, 4, 2);
        t.on_packet_stats(7, 5, 0);
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

    #[test]
    fn failover_lays_a_three_mark_timeline() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        t.on_failover(&FailoverRecord {
            failed_at: SimTime::from_secs(10),
            detected_at: SimTime::from_secs(10) + SimDuration::from_millis(40),
            resumed_at: SimTime::from_secs(10) + SimDuration::from_millis(49),
            resumed_from_checkpoint: 7,
            activated_replica: 0,
            packets_lost: 3,
            ops_lost: 120.0,
            devices_switched: 3,
        });
        let json = t.snapshot().flight_recorder_json;
        for phase in ["failed", "detected", "resumed"] {
            assert!(json.contains(&format!("\"phase\":\"{phase}\"")), "{phase}");
        }
        assert!(json.contains("from checkpoint 7"));
    }

    #[test]
    fn retry_hooks_feed_counters_and_flight() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        t.on_fault("crash", true, "injected".into(), 5);
        t.on_transfer_retry(3, 0, 1, "corrupt_frame", 500_000, 10);
        t.on_transfer_retry(3, 0, 2, "dropped", 1_000_000, 20);
        t.on_transfer_recovery(3, 2);
        t.on_epoch_abort(4, 4, 30);
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

    fn lag_obs(replica: u32, acked: u64, lag: u64, backlog: u64) -> HealthObservation {
        HealthObservation {
            replica,
            ack_mark: acked,
            lag_epochs: lag,
            backlog_pages: backlog,
            retries: 0,
        }
    }

    #[test]
    fn unarmed_plane_registers_no_extra_families_and_ticks_to_nothing() {
        let mut plain = SessionTelemetry::new(dynamic_policy());
        let baseline = plain.snapshot().registry.metrics.len();
        let events = plain.on_health_tick(
            1,
            0,
            0.02,
            2_000_000_000,
            40_000_000,
            &[lag_obs(0, 1, 0, 0)],
        );
        assert!(events.is_empty());
        let snap = plain.snapshot();
        assert_eq!(snap.registry.metrics.len(), baseline);
        assert!(snap.health.is_none());
        assert!(!snap.prometheus.contains("here_replica_lag_epochs"));
    }

    #[test]
    fn armed_plane_labels_metrics_and_tracks_health() {
        let mut t = SessionTelemetry::with_health_plane(dynamic_policy(), 3, 2, 4);
        t.on_transfer_retry(2, 2, 1, "link_down", 500_000, 10);
        let events = t.on_health_tick(
            2,
            4_000_000_000,
            0.02,
            2_000_000_000,
            40_000_000,
            &[
                lag_obs(0, 2, 0, 0),
                lag_obs(1, 2, 0, 0),
                lag_obs(2, 1, 1, 32),
            ],
        );
        assert!(events.is_empty(), "one slow epoch is not an alert");
        let snap = t.snapshot();
        let health = snap.health.expect("plane armed");
        assert_eq!(health.states[2], HealthState::Lagging);
        assert_eq!(health.transitions.len(), 1);
        assert!(snap
            .prometheus
            .contains("here_replica_lag_epochs{replica=\"2\"} 1.0"));
        assert!(snap
            .prometheus
            .contains("here_replica_backlog_pages{replica=\"2\"} 32.0"));
        assert!(snap
            .prometheus
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
            let at = epoch * 2_000_000_000;
            fired.extend(t.on_health_tick(
                epoch,
                at,
                0.02,
                2_000_000_000,
                40_000_000,
                &[
                    lag_obs(0, epoch, 0, 0),
                    lag_obs(1, epoch, 0, 0),
                    lag_obs(2, 0, epoch, 128),
                ],
            ));
        }
        let rules: Vec<&str> = fired.iter().map(|e| e.rule).collect();
        assert!(rules.contains(&"stale_replica"));
        assert!(rules.contains(&"quorum_at_risk"));
        // Replica 2 catches up and stays clean: alerts resolve.
        for epoch in 7..=10 {
            let at = epoch * 2_000_000_000;
            fired.extend(t.on_health_tick(
                epoch,
                at,
                0.02,
                2_000_000_000,
                40_000_000,
                &[
                    lag_obs(0, epoch, 0, 0),
                    lag_obs(1, epoch, 0, 0),
                    lag_obs(2, epoch, 0, 0),
                ],
            ));
        }
        let snap = t.snapshot();
        let health = snap.health.expect("plane armed");
        assert_eq!(health.states, vec![HealthState::Healthy; 3]);
        assert!(health.active_alerts.is_empty());
        assert!(health.alert_log_jsonl.contains("\"state\":\"resolved\""));
        assert!(snap.flight_recorder_json.contains("\"kind\":\"alert\""));
    }

    #[test]
    fn armed_reset_keeps_the_plane_and_its_schema() {
        let mut t = SessionTelemetry::with_health_plane(dynamic_policy(), 2, 2, 8);
        t.on_health_tick(
            1,
            0,
            0.02,
            2_000_000_000,
            40_000_000,
            &[lag_obs(0, 1, 0, 0)],
        );
        let before = t.snapshot();
        t.reset();
        let after = t.snapshot();
        assert_eq!(before.registry.metrics.len(), after.registry.metrics.len());
        let health = after.health.expect("plane survives reset");
        assert_eq!(health.series_points, 0);
        assert!(health.alert_log.is_empty());
    }

    #[test]
    fn flight_capacity_is_configurable_and_survives_reset() {
        // The ring holds FLIGHT_RECORDER_CAPACITY events and evicts the
        // oldest past that; a reset rebuilds it at the same capacity.
        let capacity = format!("\"capacity\":{FLIGHT_RECORDER_CAPACITY}");
        let mut t = SessionTelemetry::new(dynamic_policy());
        assert!(t.snapshot().flight_recorder_json.contains(&capacity));
        let recorded = FLIGHT_RECORDER_CAPACITY as u64 + 2;
        for seq in 1..=recorded {
            t.on_checkpoint(&sample_record(seq), &sample_decision(), 0);
        }
        let snap = t.snapshot();
        assert_eq!(snap.flight_events_recorded, recorded);
        assert_eq!(snap.flight_events_dropped, 2);
        t.reset();
        let after = t.snapshot();
        assert!(after.flight_recorder_json.contains(&capacity));
        assert_eq!(after.flight_events_recorded, 0);
        assert_eq!(after.flight_events_dropped, 0);
    }

    #[test]
    fn reset_discards_history_but_keeps_schema() {
        let mut t = SessionTelemetry::new(dynamic_policy());
        t.on_checkpoint(&sample_record(1), &sample_decision(), 0);
        let before = t.snapshot();
        t.reset();
        let after = t.snapshot();
        assert_eq!(
            after.registry.find("here_checkpoints_total").unwrap().value,
            MetricValue::Counter(0)
        );
        assert_eq!(after.flight_events_recorded, 0);
        // Same metric families in both snapshots.
        assert_eq!(before.registry.metrics.len(), after.registry.metrics.len());
    }
}
