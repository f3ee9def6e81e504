//! Golden-file tests pinning the renderer output formats: the Prometheus
//! text exposition and the Chrome trace-event export.
//!
//! Any change to a renderer — header layout, bucket boundaries, label
//! ordering, float formatting, event ordering — shows up as a diff
//! against the files in `tests/golden/`. Regenerate with
//! `BLESS=1 cargo test -p here-telemetry --test golden` after verifying
//! the new output is intentional.

use here_telemetry::span::{SpanDraft, SpanRecorder, Track};
use here_telemetry::{chrome_trace, prometheus, MetricsRegistry};

/// A deterministic registry exercising every metric kind: plain counter,
/// gauge (integral and fractional), unlabelled histogram, and a labelled
/// histogram family with two variants.
fn fixture() -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    let checkpoints = registry.counter("here_checkpoints_total", "Checkpoints completed", None);
    registry.add(checkpoints, 42);
    let period = registry.gauge("here_period_seconds", "Current checkpoint period", None);
    registry.set(period, 2.5);
    let deg = registry.gauge("here_degradation_ratio", "Measured degradation", None);
    registry.set(deg, 0.25);
    let pause = registry.histogram("here_pause_nanos", "Pause per checkpoint", None);
    for v in [1_000, 2_000, 4_000, 40_000_000, 55_000_000] {
        registry.observe(pause, v);
    }
    let stage = |stage| Some(("stage", stage));
    let harvest = registry.histogram("here_stage_nanos", "Per-stage duration", stage("harvest"));
    registry.observe(harvest, 10_000_000);
    registry.observe(harvest, 12_000_000);
    let translate =
        registry.histogram("here_stage_nanos", "Per-stage duration", stage("translate"));
    registry.observe(translate, 3_000_000);
    registry
}

/// A deterministic two-epoch span forest exercising every exporter
/// feature: nested stage and lane children, wall-clock attrs, a
/// cross-host replica span (flow events), and a failover subtree.
fn span_fixture() -> Vec<here_telemetry::span::Span> {
    let mut rec = SpanRecorder::new();
    for (seq, start) in [(1u64, 0u64), (2, 2_000_000)] {
        let epoch = rec.push(
            SpanDraft::new("epoch", "epoch", Track::Primary, start)
                .lasting(1_000_000)
                .epoch(seq)
                .attr_u64("seq", seq),
        );
        let translate = rec.push(
            SpanDraft::new("translate", "stage", Track::Primary, start)
                .lasting(600_000)
                .child_of(epoch)
                .epoch(seq)
                .attr_u64("pages", 128)
                .attr_u64("bytes", 524_288),
        );
        for lane in 0..2u32 {
            rec.push(
                SpanDraft::new("encode_lane", "lane", Track::PrimaryLane(lane), start)
                    .lasting(600_000)
                    .child_of(translate)
                    .epoch(seq)
                    .wall(10_000 + u64::from(lane) * 1_500)
                    .attr_u64("lane", u64::from(lane)),
            );
        }
        rec.push(
            SpanDraft::new("transfer", "stage", Track::Primary, start + 600_000)
                .lasting(400_000)
                .child_of(epoch)
                .epoch(seq)
                .attr_u64("bytes", 524_288),
        );
        rec.push(
            SpanDraft::new("decode_restore", "wire", Track::Replica(0), start + 700_000)
                .lasting(200_000)
                .epoch(seq)
                .wall(55_000)
                .attr_u64("pages", 128),
        );
    }
    let failover = rec.push(
        SpanDraft::new("failover", "failover", Track::Controller, 4_000_000)
            .lasting(500_000)
            .attr_u64("packets_lost", 3),
    );
    rec.push(
        SpanDraft::new("detect", "failover", Track::Controller, 4_000_000)
            .lasting(300_000)
            .child_of(failover),
    );
    rec.push(
        SpanDraft::new(
            "switch_and_activate",
            "failover",
            Track::Controller,
            4_300_000,
        )
        .lasting(200_000)
        .child_of(failover)
        .attr_str("new_family", "kvm"),
    );
    rec.into_spans()
}

fn check_golden(rendered: &str, path: &str, what: &str) {
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, rendered).expect("can write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run `BLESS=1 cargo test -p here-telemetry --test golden`");
    assert!(
        rendered == golden,
        "{what} drifted from the golden file.\n\
         If the change is intentional, regenerate with BLESS=1.\n\
         --- golden ---\n{golden}\n--- rendered ---\n{rendered}"
    );
}

#[test]
fn prometheus_exposition_matches_the_golden_file() {
    check_golden(
        &prometheus(&fixture().snapshot()),
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/prometheus.txt"),
        "Prometheus exposition",
    );
}

#[test]
fn chrome_trace_matches_the_golden_file() {
    check_golden(
        &chrome_trace(&span_fixture()),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/chrome_trace.json"
        ),
        "Chrome trace export",
    );
}
