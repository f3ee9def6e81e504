//! The trace-analysis experiment (`repro analyze`).
//!
//! Runs a dynamic-period replicated scenario with a late accidental host
//! failure, then feeds the run's causal span tree through
//! [`TraceAnalyzer`]: per-epoch critical-path attribution against
//! `t = αN/P + C` (Eq. 4), straggler-lane detection, period-oscillation
//! detection and SLO-breach root-causing. The same spans are exported as
//! a Chrome trace-event document (`chrome://tracing` / Perfetto) and a
//! compact JSONL stream.
//!
//! Virtual-time quantities (stage durations, pauses, the attribution) are
//! deterministic; only the per-lane `wall_nanos` fields vary with the
//! host, so straggler verdicts are the one host-dependent part of the
//! report.

use here_core::{AnalysisReport, FaultPlan, ReplicationConfig, Scenario, TraceAnalyzer};
use here_sim_core::time::SimDuration;
use here_telemetry::{chrome_trace, spans_jsonl};

use super::{Scale, PRIMARY_CRASH, STRESS_WORKLOAD};
use crate::json::{fixed, obj, Json};

/// Everything `repro analyze` reports.
#[derive(Debug, Clone)]
pub struct AnalyzeOutput {
    /// Spans the run emitted (epoch roots, stages, lanes, replica side,
    /// migration iterations, fault and failover).
    pub span_count: usize,
    /// Checkpoints analyzed.
    pub checkpoints: usize,
    /// Whether the injected failure actually produced a failover record.
    pub failover_captured: bool,
    /// The analyzer's full report.
    pub analysis: AnalysisReport,
    /// Chrome trace-event JSON for the whole run.
    pub chrome_json: String,
    /// One span per line, compact JSON.
    pub jsonl: String,
}

fn scenario_secs(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 120,
        Scale::Quick => 20,
    }
}

/// Runs the scenario, the analyzer and both exporters.
pub fn run_analyze(scale: Scale) -> AnalyzeOutput {
    let secs = scenario_secs(scale);
    let cfg = ReplicationConfig::dynamic(0.3, SimDuration::from_secs(5));
    let report = Scenario::builder()
        .name("analyze")
        .vm_memory_mib(64)
        .vcpus(4)
        .workload(STRESS_WORKLOAD.build())
        .config(cfg.clone())
        .duration(SimDuration::from_secs(secs))
        // Late enough that the dynamic controller has settled and there
        // is a full epoch history to attribute.
        .chaos(FaultPlan::new(0).with_event_at(SimDuration::from_secs(secs * 3 / 4), PRIMARY_CRASH))
        .build()
        .expect("valid scenario")
        .run();

    let threads = cfg.effective_threads(4);
    let analysis = TraceAnalyzer.analyze(&report, &cfg.costs, threads, cfg.strategy);
    let chrome_json = chrome_trace(&report.spans);
    let jsonl = spans_jsonl(&report.spans);
    AnalyzeOutput {
        span_count: report.spans.len(),
        checkpoints: report.checkpoints.len(),
        failover_captured: report.failover.is_some(),
        analysis,
        chrome_json,
        jsonl,
    }
}

impl AnalyzeOutput {
    /// Summary as a JSON document (`BENCH_analyze.json`; ungated, since
    /// `stragglers` is read from wall-clock lane spans).
    pub fn document(&self) -> Json {
        let a = &self.analysis;
        let oscillation = obj([
            ("decisions", a.oscillation.decisions.into()),
            ("direction_flips", a.oscillation.direction_flips.into()),
            ("flip_ratio", fixed(a.oscillation.flip_ratio, 3)),
            ("walk_backs", a.oscillation.walk_backs.into()),
            ("midpoint_jumps", a.oscillation.midpoint_jumps.into()),
            ("oscillating", a.oscillation.oscillating.into()),
        ]);
        let breach = |b: &here_core::BreachRoot| {
            obj([
                ("seq", b.seq.into()),
                ("kind", format!("{:?}", b.kind).into()),
                ("measured", fixed(b.measured, 6)),
                ("bound", fixed(b.bound, 6)),
                ("dominant_stage", b.dominant_stage.into()),
                ("stage_ms", fixed(b.stage_duration.as_secs_f64() * 1e3, 3)),
                (
                    "trailing_mean_ms",
                    fixed(b.trailing_mean.as_secs_f64() * 1e3, 3),
                ),
                ("growth_pct", fixed(b.growth_pct, 2)),
            ])
        };
        obj([
            ("experiment", "analyze".into()),
            ("spans", self.span_count.into()),
            ("failover_captured", self.failover_captured.into()),
            ("epochs", a.epochs.len().into()),
            (
                "min_attributed_fraction",
                fixed(a.min_attributed_fraction, 4),
            ),
            ("stragglers", a.stragglers.len().into()),
            ("oscillation", oscillation),
            ("breach_roots", a.breach_roots.iter().map(breach).collect()),
            ("nesting_violations", a.nesting_violations.into()),
            ("unresolved_links", a.unresolved_links.into()),
            (
                "tree_error",
                a.tree_error.as_deref().map_or(Json::Null, Json::from),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_attributes_and_exports() {
        let out = run_analyze(Scale::Quick);
        assert!(out.checkpoints > 0);
        assert!(out.failover_captured, "the planned accident must fire");
        assert!(out.span_count > out.checkpoints, "stages nest under epochs");
        assert!(
            out.analysis.min_attributed_fraction >= 0.95,
            "got {}",
            out.analysis.min_attributed_fraction
        );
        assert_eq!(out.analysis.nesting_violations, 0);
        assert_eq!(out.analysis.unresolved_links, 0);
        assert!(out.analysis.tree_error.is_none());
        // The failover spans ride on the controller track.
        assert!(out.chrome_json.contains("\"failover\""));
        assert!(out.chrome_json.contains("\"traceEvents\""));
        assert!(out.jsonl.lines().count() == out.span_count);
        let doc = out.document();
        crate::gate::tests::assert_gateable(&doc);
        assert_eq!(doc.get("tree_error"), Some(&Json::Null));
    }
}
