//! The telemetry showcase experiment (`repro observe`).
//!
//! What does a run's telemetry look like? A short dynamic-period
//! replicated scenario runs with the always-on layer, and the counts of
//! its frozen [`TelemetrySnapshot`](here_core::TelemetrySnapshot) —
//! metric families, flight events recorded and dropped, the SLO summary
//! — land in `BENCH_observe.json`. All of them derive from simulated
//! time under a fixed seed, so the document gates exactly.
//!
//! The snapshot's Prometheus exposition and flight-recorder dump carry
//! host wall-clock probes; `repro observe` writes them as ungated side
//! artifacts (`observe.prom`, `observe_flight.json`). What the telemetry
//! layer costs in wall-clock time (bar: < 5 %) is measured by
//! `benchmark/`, on its `session_quorum_faults` workload's
//! `core.telemetry` ledger row.

use here_core::{ReplicationConfig, Scenario};
use here_sim_core::time::SimDuration;
use here_telemetry::SloSummary;

use super::{Scale, STRESS_WORKLOAD};
use crate::json::{fixed, obj, Json};

/// Everything `repro observe` reports.
#[derive(Debug, Clone)]
pub struct ObserveOutput {
    /// Metric families registered by the scenario run.
    pub metric_count: usize,
    /// Flight events the scenario run recorded (retained + evicted).
    pub flight_events_recorded: u64,
    /// Flight events the bounded ring evicted.
    pub flight_events_dropped: u64,
    /// The SLO tracker's summary (`None` when no tracker ran).
    pub slo: Option<SloSummary>,
    /// The scenario run's Prometheus text exposition (`observe.prom`).
    pub prometheus: String,
    /// The scenario run's flight-recorder JSON dump
    /// (`observe_flight.json`).
    pub flight_recorder_json: String,
}

fn scenario_secs(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 60,
        Scale::Quick => 20,
    }
}

/// Runs the telemetry showcase scenario: a dynamic-period replicated run
/// whose report carries the frozen telemetry snapshot.
pub fn run_observe(scale: Scale) -> ObserveOutput {
    let report = Scenario::builder()
        .name("observe")
        .vm_memory_mib(64)
        .vcpus(4)
        .workload(STRESS_WORKLOAD.build())
        .config(ReplicationConfig::dynamic(0.3, SimDuration::from_secs(5)))
        .duration(SimDuration::from_secs(scenario_secs(scale)))
        .build()
        .expect("valid scenario")
        .run();
    let snapshot = report
        .telemetry
        .expect("replicated runs always carry telemetry");
    ObserveOutput {
        prometheus: snapshot.prometheus(),
        metric_count: snapshot.registry.metrics.len(),
        flight_events_recorded: snapshot.flight_events_recorded,
        flight_events_dropped: snapshot.flight_events_dropped,
        slo: snapshot.slo,
        flight_recorder_json: snapshot.flight_recorder_json,
    }
}

impl ObserveOutput {
    /// The gated report as a JSON document (`BENCH_observe.json`).
    pub fn document(&self) -> Json {
        let slo = |s: &SloSummary| {
            obj([
                ("evaluated", s.evaluated.into()),
                ("compliant", s.compliant.into()),
                ("degradation_breaches", s.degradation_breaches.into()),
                ("period_cap_breaches", s.period_cap_breaches.into()),
                ("compliance_ratio", fixed(s.compliance_ratio, 4)),
                ("worst_degradation", fixed(s.worst_degradation, 4)),
            ])
        };
        let scenario = obj([
            ("metric_families", self.metric_count.into()),
            ("flight_events_recorded", self.flight_events_recorded.into()),
            ("flight_events_dropped", self.flight_events_dropped.into()),
            ("slo", self.slo.as_ref().map_or(Json::Null, slo)),
        ]);
        obj([("experiment", "observe".into()), ("scenario", scenario)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_reports_deterministic_telemetry_counts() {
        let out = run_observe(Scale::Quick);
        assert!(out.metric_count > 10, "got {}", out.metric_count);
        assert!(out.flight_events_recorded > 0);
        assert!(out.slo.as_ref().is_some_and(|s| s.evaluated > 0));
        assert!(out.prometheus.contains("here_checkpoints_total"));
        assert!(out.flight_recorder_json.contains("\"events\""));
        // Virtual time only: the exposition and the flight dump (which
        // carry wall-clock probes) stay out of the gated document, and a
        // second run is identical.
        let doc = out.document();
        crate::gate::tests::assert_gateable(&doc);
        let families = doc.get("scenario").and_then(|s| s.get("metric_families"));
        assert_eq!(families, Some(&out.metric_count.into()));
        assert_eq!(doc, run_observe(Scale::Quick).document());
    }
}
