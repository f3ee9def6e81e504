//! The telemetry-layer experiment (`repro observe`).
//!
//! Two questions, one run:
//!
//! 1. **What does the instrumentation cost?** The observability layer sits
//!    on the checkpoint hot path — per-lane `Instant` probes, histogram
//!    observes, flight-recorder writes. This experiment re-runs the
//!    datapath's 8-lane materialized encode twice per round through
//!    [`encode_pages_round`], once bare and once with every telemetry
//!    hook live on its lane walls (lane histograms, stage histogram,
//!    flight events), and reports the relative overhead.
//!    The acceptance bar is **< 5 %**.
//! 2. **What does a run's telemetry look like?** A short dynamic-period
//!    replicated scenario runs with the always-on layer, and its frozen
//!    [`TelemetrySnapshot`](here_core::TelemetrySnapshot) — Prometheus
//!    exposition, flight-recorder dump, SLO summary — lands in
//!    `BENCH_observe.json`.
//!
//! Both measurements are real wall-clock; results vary with the host. The
//! overhead comparison interleaves baseline and instrumented rounds so
//! slow drift (thermal, scheduler) hits both variants equally.

use std::time::Instant;

use here_core::dataplane::{encode_pages_round, BufferPool, EncodePlan, LanePool, PayloadMode};
use here_core::transfer::{collect_chunked_into, CollectScratch};
use here_core::{ReplicationConfig, Scenario};
use here_hypervisor::dirty::DirtyBitmap;
use here_hypervisor::memory::GuestMemory;
use here_hypervisor::vcpu::VcpuId;
use here_hypervisor::PAGE_SIZE;
use here_sim_core::rate::ByteSize;
use here_sim_core::time::SimDuration;
use here_telemetry::{FlightEvent, FlightRecorder, MetricsRegistry};
use here_vmstate::MemoryDelta;
use here_workloads::memstress::MemStress;

use super::Scale;

/// Encode lanes used by the overhead comparison (the acceptance bar's
/// configuration).
pub const OVERHEAD_LANES: u32 = 8;

/// Everything `repro observe` reports.
#[derive(Debug, Clone)]
pub struct ObserveOutput {
    /// Host cores, recorded for reproducibility of the wall-clock numbers.
    pub host_cpus: usize,
    /// Dirty pages per overhead round.
    pub pages: u64,
    /// Measured rounds (after one warmup).
    pub rounds: u32,
    /// Encode lanes in the overhead comparison.
    pub lanes: u32,
    /// Median 8-lane encode wall time through the uninstrumented entry
    /// point, milliseconds.
    pub baseline_ms: f64,
    /// The same encode through the timed entry point with all telemetry
    /// hooks live, milliseconds.
    pub instrumented_ms: f64,
    /// `(instrumented - baseline) / baseline`, percent. Negative values
    /// mean the difference drowned in host noise.
    pub overhead_pct: f64,
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
    /// The scenario run's Prometheus text exposition.
    pub prometheus: String,
    /// The scenario run's flight-recorder JSON dump.
    pub flight_recorder_json: String,
    /// The whole report as a JSON document (`BENCH_observe.json`).
    pub json: String,
}

fn scale_params(scale: Scale) -> (u64, u32, u64) {
    // (dirty pages per overhead round, measured rounds, scenario seconds)
    match scale {
        Scale::Paper => (32_768, 9, 60),
        Scale::Quick => (4_096, 9, 20),
    }
}

/// Median of wall-time samples. Rounds are short (milliseconds), so one
/// scheduler preemption skews a mean by double digits; the median holds
/// as long as most rounds run clean.
fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
    let mid = samples.len() / 2;
    let m = if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    };
    m * 1e3
}

/// A deterministic dirty working set (same shape as the datapath bench):
/// every third frame written once, round-robin across 4 writers.
fn dirty_delta(pages: u64) -> MemoryDelta {
    let frames = pages * 3;
    let mut memory = GuestMemory::new(ByteSize::from_bytes(
        frames.next_multiple_of(256) * PAGE_SIZE,
    ))
    .expect("bench guest size is valid");
    let mut dirty = DirtyBitmap::new(memory.num_pages());
    for i in 0..pages {
        let frame = here_hypervisor::PageId::new(i * 3);
        memory
            .write_page(frame, VcpuId::new((i % 4) as u32))
            .expect("frame is in range");
        dirty.mark(frame);
    }
    let mut scratch = CollectScratch::new();
    let mut delta = MemoryDelta::new();
    collect_chunked_into(&memory, &dirty, OVERHEAD_LANES, &mut scratch, &mut delta);
    assert_eq!(delta.len() as u64, pages, "harvest must see every page");
    delta
}

/// Runs the overhead comparison and the telemetry showcase scenario.
pub fn run_observe(scale: Scale) -> ObserveOutput {
    let (pages, rounds, scenario_secs) = scale_params(scale);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let delta = dirty_delta(pages);

    // The instrumented variant carries the full per-checkpoint telemetry
    // cost: timed lanes, two histogram observes per lane, one stage
    // histogram observe, and one flight event per lane plus one per round.
    let mut registry = MetricsRegistry::new();
    let lane_hist = registry.histogram("bench_encode_lane_wall_nanos", "per-lane encode wall");
    let stage_hist = registry.histogram("bench_stage_nanos", "whole-encode wall");
    let mut flight = FlightRecorder::new(1024);

    let mut pool = BufferPool::new();
    let lane_pool = LanePool::new();
    let mut baseline_samples = Vec::with_capacity(rounds as usize);
    let mut instrumented_samples = Vec::with_capacity(rounds as usize);
    let plan = EncodePlan {
        lanes: OVERHEAD_LANES,
        mode: PayloadMode::Materialized,
        chunk_pages: None,
        window: None,
    };
    let mut segments = Vec::with_capacity(OVERHEAD_LANES as usize);
    for round in 0..=rounds {
        let measured = round > 0;

        let t = Instant::now();
        encode_pages_round(&delta, &plan, &mut pool, &lane_pool, |_, seg| {
            segments.push(seg)
        });
        if measured {
            baseline_samples.push(t.elapsed().as_secs_f64());
        }
        for seg in segments.drain(..) {
            pool.recycle(seg);
        }

        let t = Instant::now();
        let (walls, _) = encode_pages_round(&delta, &plan, &mut pool, &lane_pool, |_, seg| {
            segments.push(seg)
        });
        for (lane, wall) in walls.iter().enumerate() {
            lane_hist.observe(*wall);
            flight.record(FlightEvent::EncodeLane {
                seq: round as u64,
                at_nanos: 0,
                lane: lane as u64,
                wall_nanos: *wall,
            });
        }
        let total = t.elapsed().as_nanos() as u64;
        stage_hist.observe(total);
        flight.record(FlightEvent::Stage {
            seq: round as u64,
            stage: "translate",
            at_nanos: 0,
            duration_nanos: total,
            wall_nanos: Some(total),
            pages,
            bytes: pages * PAGE_SIZE,
        });
        if measured {
            instrumented_samples.push(t.elapsed().as_secs_f64());
        }
        for seg in segments.drain(..) {
            pool.recycle(seg);
        }
    }
    let baseline_ms = median_ms(&mut baseline_samples);
    let instrumented_ms = median_ms(&mut instrumented_samples);
    let overhead_pct = (instrumented_ms - baseline_ms) / baseline_ms * 100.0;

    // Showcase scenario: a dynamic-period replicated run whose report
    // carries the frozen telemetry snapshot.
    let report = Scenario::builder()
        .name("observe")
        .vm_memory_mib(64)
        .vcpus(4)
        .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
        .config(ReplicationConfig::dynamic(0.3, SimDuration::from_secs(5)))
        .duration(SimDuration::from_secs(scenario_secs))
        .build()
        .expect("valid scenario")
        .run();
    let snapshot = report
        .telemetry
        .expect("replicated runs always carry telemetry");
    let slo = snapshot.slo.as_ref();

    let json = render_json(
        host_cpus,
        pages,
        rounds,
        baseline_ms,
        instrumented_ms,
        overhead_pct,
        &snapshot,
    );
    ObserveOutput {
        host_cpus,
        pages,
        rounds,
        lanes: OVERHEAD_LANES,
        baseline_ms,
        instrumented_ms,
        overhead_pct,
        metric_count: snapshot.registry.metrics.len(),
        flight_events_recorded: snapshot.flight_events_recorded,
        flight_events_dropped: snapshot.flight_events_dropped,
        slo_evaluated: slo.map_or(0, |s| s.evaluated),
        slo_breaches: slo.map_or(0, |s| s.degradation_breaches + s.period_cap_breaches),
        prometheus: snapshot.prometheus.clone(),
        flight_recorder_json: snapshot.flight_recorder_json.clone(),
        json,
    }
}

fn render_json(
    host_cpus: usize,
    pages: u64,
    rounds: u32,
    baseline_ms: f64,
    instrumented_ms: f64,
    overhead_pct: f64,
    snapshot: &here_core::TelemetrySnapshot,
) -> String {
    use here_telemetry::json_escape;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"observe\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str("  \"overhead\": {\n");
    out.push_str(&format!("    \"lanes\": {OVERHEAD_LANES},\n"));
    out.push_str(&format!("    \"pages\": {pages},\n"));
    out.push_str(&format!("    \"rounds\": {rounds},\n"));
    out.push_str(&format!("    \"baseline_ms\": {baseline_ms:.3},\n"));
    out.push_str(&format!("    \"instrumented_ms\": {instrumented_ms:.3},\n"));
    out.push_str(&format!("    \"overhead_pct\": {overhead_pct:.2},\n"));
    out.push_str("    \"acceptance_pct\": 5.0\n");
    out.push_str("  },\n");
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
             \"compliance_ratio\": {:.4}, \"worst_degradation\": {:.4}}},\n",
            s.evaluated,
            s.compliant,
            s.degradation_breaches,
            s.period_cap_breaches,
            s.compliance_ratio,
            s.worst_degradation,
        )),
        None => out.push_str("    \"slo\": null,\n"),
    }
    out.push_str(&format!(
        "    \"prometheus\": \"{}\",\n",
        json_escape(&snapshot.prometheus)
    ));
    // The flight dump is already JSON; embed it as a document, not a
    // string.
    out.push_str(&format!(
        "    \"flight_recorder\": {}\n",
        snapshot.flight_recorder_json.trim_end()
    ));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_reports_overhead_and_telemetry() {
        let out = run_observe(Scale::Quick);
        assert!(out.baseline_ms > 0.0);
        assert!(out.instrumented_ms > 0.0);
        assert!(out.metric_count > 10, "got {}", out.metric_count);
        assert!(out.flight_events_recorded > 0);
        assert!(out.slo_evaluated > 0);
        assert!(out.prometheus.contains("here_checkpoints_total"));
        assert!(out.flight_recorder_json.contains("\"events\""));
        assert!(out.json.contains("\"acceptance_pct\": 5.0"));
        assert!(out.json.contains("\"flight_recorder\""));
    }
}
