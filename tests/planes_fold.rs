//! The observability planes are folds over the session's event log: a
//! report's telemetry, spans and incident can be recomputed from its
//! `events`, the log does not depend on which planes were armed, a plane
//! that was off during a run can be computed from its recording, and an
//! incident bundle is a seed whose snapshot is a fold over a log prefix.

mod common;

use std::collections::BTreeMap;

use common::{config, plan, scenario, spec, SCENARIOS};
use here::replication::telemetry::fold;
use here::replication::{IncidentBundle, IncidentSnapshot, SessionEvent, Stage, StageEvent};
use here_telemetry::MetricValue;

#[test]
fn folding_a_reports_log_reproduces_its_planes_exactly() {
    for name in SCENARIOS {
        for armed in [false, true] {
            let report = scenario(name, armed).run();
            assert!(!report.events.is_empty());
            let (telemetry, spans, incident) = fold(&config(name, armed), &report.events);
            assert_eq!(Some(telemetry), report.telemetry, "{name} armed={armed}");
            assert_eq!(spans, report.spans, "{name} armed={armed}");
            assert_eq!(incident, report.incident, "{name} armed={armed}");
            assert_eq!(incident.is_some(), armed);
            let stages: Vec<_> = report
                .events
                .iter()
                .filter_map(SessionEvent::as_stage)
                .copied()
                .collect();
            assert_eq!(stages, report.stage_events);
            // No epoch commits before a quorum of replicas acked it.
            let quorum = config(name, armed).topology.effective_quorum() as usize;
            for (i, event) in report.events.iter().enumerate() {
                let SessionEvent::Commit { seq, .. } = *event else {
                    continue;
                };
                let acks = report.events[..i]
                    .iter()
                    .filter(|e| matches!(e, SessionEvent::Ack { seq: acked, .. } if *acked == seq))
                    .count();
                assert!(
                    acks >= quorum,
                    "{name}: epoch {seq} committed on {acks} acks"
                );
            }
        }
    }
}

#[test]
fn the_log_is_the_same_armed_or_not_and_a_plane_can_be_folded_in_afterwards() {
    for name in SCENARIOS {
        let unarmed = scenario(name, false).run();
        let armed = scenario(name, true).run();
        let blank = |events: &[SessionEvent]| -> Vec<_> {
            events
                .iter()
                .map(SessionEvent::without_host_clock)
                .collect()
        };
        assert_eq!(blank(&unarmed.events), blank(&armed.events), "{name}");

        // The recording never had the health plane or the capture on;
        // folding them over it says what the armed run said.
        let (telemetry, spans, incident) = fold(&config(name, true), &unarmed.events);
        let want = armed.telemetry.as_ref().expect("replicated run");
        assert!(want.health.is_some());
        assert_eq!(telemetry.health, want.health, "{name}");
        assert_eq!(incident, armed.incident, "{name}");
        // Alert edges are spans too, so arming health is visible in the
        // span list exactly when an alert fired.
        let alerts = want.health.as_ref().map_or(0, |h| h.alert_log.len());
        assert_eq!(spans.len(), unarmed.spans.len() + alerts, "{name}");
        assert_eq!(spans.len(), armed.spans.len(), "{name}");
    }
}

#[test]
fn a_bundle_is_a_seed_and_its_snapshot_a_fold_over_the_log_prefix() {
    for name in SCENARIOS {
        let config = config(name, true);
        let report = scenario(name, true).run();
        let trigger = report.incident.clone().expect("capture armed");
        // The trigger names the event whose fold fired it.
        let fired = &report.events[trigger.event];
        let kind = match fired {
            SessionEvent::EpochHealth { .. } => "alert",
            SessionEvent::Failover { .. } => "failover",
            SessionEvent::EpochAbort { .. } => "epoch_abort",
            SessionEvent::RunEnd { .. } => "request",
            other => panic!("{name}: {other:?} cannot fire a capture"),
        };
        assert_eq!(trigger.trigger, kind, "{name}");

        let bundle = IncidentBundle::capture(spec(name), &config, plan(name).as_ref(), &report)
            .expect("capture armed");
        let replay = IncidentBundle::decode(&bundle.encode())
            .expect("the bundle decodes")
            .replay()
            .expect("the bundle replays");
        assert!(replay.verified(), "{name}");
        let want = IncidentSnapshot::at(&config, &report.events, &trigger);
        assert_eq!(replay.snapshot, Some(want), "{name}");
    }
}

/// Every counter of the metric tables in `here_core::telemetry`'s module
/// doc, recomputed from the log alone, keyed by `(name, label)`.
fn counters_from_the_log(
    events: &[SessionEvent],
    slo_breaches: usize,
    replicas: Option<u32>,
) -> BTreeMap<(String, Option<(String, String)>), u64> {
    let count = |hit: fn(&SessionEvent) -> bool| events.iter().filter(|e| hit(e)).count() as u64;
    let stage_sum = |stage: Stage, field: fn(&StageEvent) -> u64| -> u64 {
        events
            .iter()
            .filter_map(SessionEvent::as_stage)
            .filter(|e| e.stage == stage)
            .map(field)
            .sum()
    };
    let packets = events.iter().rev().find_map(|e| match *e {
        SessionEvent::Packets {
            buffered,
            released,
            discarded,
        } => Some([buffered, released, discarded]),
        _ => None,
    });
    let pool = events.iter().rev().find_map(|e| match *e {
        SessionEvent::PoolStats { hits, misses, .. } => Some([hits, misses]),
        _ => None,
    });
    let seeded = events
        .iter()
        .map(|e| match e {
            SessionEvent::Migration { pages, .. } => *pages,
            _ => 0,
        })
        .sum();
    let [buffered, released, discarded] = packets.unwrap_or_default();
    let [hits, misses] = pool.unwrap_or_default();
    let mut want: BTreeMap<_, _> = [
        (
            "here_checkpoints_total",
            count(|e| matches!(e, SessionEvent::Checkpoint { .. })),
        ),
        (
            "here_pages_harvested_total",
            stage_sum(Stage::Harvest, |e| e.pages),
        ),
        (
            "here_bytes_transferred_total",
            stage_sum(Stage::Transfer, |e| e.bytes),
        ),
        ("here_pages_seeded_total", seeded),
        ("here_pool_reclaim_hits_total", hits),
        ("here_pool_reclaim_misses_total", misses),
        ("here_packets_buffered_total", buffered),
        ("here_packets_released_total", released),
        ("here_packets_discarded_total", discarded),
        ("here_slo_breaches_total", slo_breaches as u64),
        (
            "here_failovers_total",
            count(|e| matches!(e, SessionEvent::Failover { .. })),
        ),
        (
            "here_faults_injected_total",
            count(|e| matches!(e, SessionEvent::Fault { .. })),
        ),
        (
            "here_transfer_retries_total",
            count(|e| matches!(e, SessionEvent::TransferRetry { .. })),
        ),
        (
            "here_transfer_recoveries_total",
            count(|e| matches!(e, SessionEvent::TransferRecovery { .. })),
        ),
        (
            "here_epochs_aborted_total",
            count(|e| matches!(e, SessionEvent::EpochAbort { .. })),
        ),
    ]
    .into_iter()
    .map(|(name, value)| ((name.to_string(), None), value))
    .collect();
    for replica in 0..replicas.unwrap_or(0) {
        let retries = events
            .iter()
            .filter(
                |e| matches!(e, SessionEvent::TransferRetry { replica: r, .. } if *r == replica),
            )
            .count() as u64;
        let label = Some(("replica".to_string(), replica.to_string()));
        want.insert(("here_replica_retries_total".to_string(), label), retries);
    }
    want
}

#[test]
fn every_counter_in_the_metric_table_is_a_fold_over_the_log() {
    for name in SCENARIOS {
        for armed in [false, true] {
            let report = scenario(name, armed).run();
            let telemetry = report.telemetry.as_ref().expect("replicated run");
            let got: BTreeMap<_, _> = telemetry
                .registry
                .metrics
                .iter()
                .filter_map(|m| match m.value {
                    MetricValue::Counter(n) => Some(((m.name.clone(), m.label.clone()), n)),
                    _ => None,
                })
                .collect();
            let replicas = telemetry.health.as_ref().map(|h| h.replicas);
            let want =
                counters_from_the_log(&report.events, telemetry.slo_breaches.len(), replicas);
            assert_eq!(got, want, "{name} armed={armed}");
            // The log has something to say in every scenario.
            assert!(want[&("here_checkpoints_total".into(), None)] > 0, "{name}");
        }
    }
}
