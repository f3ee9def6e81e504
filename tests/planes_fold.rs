//! The observability planes are folds over the session's event log: a
//! report's telemetry, spans and incident can be recomputed from its
//! `events`, the log does not depend on which planes were armed, a plane
//! that was off during a run can be computed from its recording, and an
//! incident bundle is a seed whose snapshot is a fold over a log prefix.

mod common;

use common::{config, plan, scenario, spec, SCENARIOS};
use here::replication::telemetry::fold;
use here::replication::{IncidentBundle, IncidentSnapshot, SessionEvent};

/// `event` with every host-clock measurement blanked.
fn without_host_clock(event: &SessionEvent) -> SessionEvent {
    let mut event = event.clone();
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
        let blank =
            |events: &[SessionEvent]| -> Vec<_> { events.iter().map(without_host_clock).collect() };
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
        if name == "pair_hang" {
            // Its hang is a `FailurePlan`, which a bundle does not carry:
            // the replay must say so rather than verify.
            assert!(!replay.fingerprint_matches && !replay.verified(), "{name}");
            continue;
        }
        assert!(replay.verified(), "{name}");
        let want = IncidentSnapshot::at(&config, &report.events, &trigger);
        assert_eq!(replay.snapshot, Some(want), "{name}");
    }
}
