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
use here_workloads::memstress::MemStress;

use super::Scale;

/// Everything `repro observe` reports.
#[derive(Debug, Clone)]
pub struct ObserveOutput {
    /// Metric families registered by the scenario run.
    pub metric_count: usize,
    /// Flight events the scenario run recorded (retained + evicted).
    pub flight_events_recorded: u64,
    /// Flight events the bounded ring evicted.
    pub flight_events_dropped: u64,
    /// Checkpoints the SLO tracker evaluated.
    pub slo_evaluated: u64,
    /// SLO breaches observed.
    pub slo_breaches: u64,
    /// The scenario run's Prometheus text exposition (`observe.prom`).
    pub prometheus: String,
    /// The scenario run's flight-recorder JSON dump
    /// (`observe_flight.json`).
    pub flight_recorder_json: String,
    /// The gated report as a JSON document (`BENCH_observe.json`).
    pub json: String,
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
        .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
        .config(ReplicationConfig::dynamic(0.3, SimDuration::from_secs(5)))
        .duration(SimDuration::from_secs(scenario_secs(scale)))
        .build()
        .expect("valid scenario")
        .run();
    let snapshot = report
        .telemetry
        .expect("replicated runs always carry telemetry");
    let slo = snapshot.slo.as_ref();
    ObserveOutput {
        metric_count: snapshot.registry.metrics.len(),
        flight_events_recorded: snapshot.flight_events_recorded,
        flight_events_dropped: snapshot.flight_events_dropped,
        slo_evaluated: slo.map_or(0, |s| s.evaluated),
        slo_breaches: slo.map_or(0, |s| s.degradation_breaches + s.period_cap_breaches),
        json: render_json(&snapshot),
        prometheus: snapshot.prometheus,
        flight_recorder_json: snapshot.flight_recorder_json,
    }
}

fn render_json(snapshot: &here_core::TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"observe\",\n");
    out.push_str("  \"scenario\": {\n");
    out.push_str(&format!(
        "    \"metric_families\": {},\n",
        snapshot.registry.metrics.len()
    ));
    out.push_str(&format!(
        "    \"flight_events_recorded\": {},\n",
        snapshot.flight_events_recorded
    ));
    out.push_str(&format!(
        "    \"flight_events_dropped\": {},\n",
        snapshot.flight_events_dropped
    ));
    match &snapshot.slo {
        Some(s) => out.push_str(&format!(
            "    \"slo\": {{\"evaluated\": {}, \"compliant\": {}, \
             \"degradation_breaches\": {}, \"period_cap_breaches\": {}, \
             \"compliance_ratio\": {:.4}, \"worst_degradation\": {:.4}}}\n",
            s.evaluated,
            s.compliant,
            s.degradation_breaches,
            s.period_cap_breaches,
            s.compliance_ratio,
            s.worst_degradation,
        )),
        None => out.push_str("    \"slo\": null\n"),
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_reports_deterministic_telemetry_counts() {
        let out = run_observe(Scale::Quick);
        assert!(out.metric_count > 10, "got {}", out.metric_count);
        assert!(out.flight_events_recorded > 0);
        assert!(out.slo_evaluated > 0);
        assert!(out.prometheus.contains("here_checkpoints_total"));
        assert!(out.flight_recorder_json.contains("\"events\""));
        assert!(out.json.contains("\"metric_families\""));
        // Virtual time only: the exposition and the flight dump (which
        // carry wall-clock probes) stay out of the gated document, and a
        // second run is byte-identical.
        assert!(!out.json.contains("wall"));
        assert!(!out.json.contains("host_cpus"));
        assert!(!out.json.contains("prometheus"));
        assert!(!out.json.contains("flight_recorder"));
        assert_eq!(out.json, run_observe(Scale::Quick).json);
    }
}
