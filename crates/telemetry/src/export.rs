//! The Prometheus text exposition of a [`RegistrySnapshot`], and the
//! JSON string escaper every renderer in the workspace shares — both by
//! hand (the vendored `serde` is a no-op marker stand-in, so all real
//! encoding in this workspace is hand-rolled).

use std::fmt::Write as _;

use crate::metrics::{
    bucket_upper_bound, HistogramSnapshot, MetricValue, RegistrySnapshot, HISTOGRAM_BUCKETS,
};

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a float the way the exports need it: integral values without a
/// trailing `.0` would collide with integer fields, so floats always keep
/// a decimal point (`2` → `2.0`), except non-finite values which render as
/// Prometheus-style `NaN`/`+Inf`/`-Inf`.
fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn series_name(name: &str, suffix: &str, label: &Option<(String, String)>) -> String {
    match label {
        None => format!("{name}{suffix}"),
        Some((k, v)) => format!("{name}{suffix}{{{k}=\"{v}\"}}"),
    }
}

fn bucket_series_name(name: &str, label: &Option<(String, String)>, le: &str) -> String {
    match label {
        None => format!("{name}_bucket{{le=\"{le}\"}}"),
        Some((k, v)) => format!("{name}_bucket{{{k}=\"{v}\",le=\"{le}\"}}"),
    }
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers per metric family,
/// cumulative `_bucket{le="..."}` series up to the histogram's highest
/// populated bucket plus `+Inf`, and `_sum` / `_count` series.
pub fn prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for metric in &snapshot.metrics {
        // Labelled variants of one family share a single header block.
        if last_family != Some(metric.name.as_str()) {
            let kind = match metric.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", metric.name, metric.help);
            let _ = writeln!(out, "# TYPE {} {}", metric.name, kind);
            last_family = Some(metric.name.as_str());
        }
        match &metric.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{} {v}", series_name(&metric.name, "", &metric.label));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{} {}",
                    series_name(&metric.name, "", &metric.label),
                    render_f64(*v)
                );
            }
            MetricValue::Histogram(h) => {
                let highest = highest_populated_bucket(h);
                let mut cumulative = 0u64;
                for (b, &n) in h.buckets.iter().enumerate().take(highest + 1) {
                    cumulative += n;
                    let _ = writeln!(
                        out,
                        "{} {cumulative}",
                        bucket_series_name(&metric.name, &metric.label, &le_bound(b))
                    );
                }
                let _ = writeln!(
                    out,
                    "{} {}",
                    bucket_series_name(&metric.name, &metric.label, "+Inf"),
                    h.count
                );
                let _ = writeln!(
                    out,
                    "{} {}",
                    series_name(&metric.name, "_sum", &metric.label),
                    h.sum
                );
                let _ = writeln!(
                    out,
                    "{} {}",
                    series_name(&metric.name, "_count", &metric.label),
                    h.count
                );
            }
        }
    }
    out
}

/// Index of the highest non-empty bucket (0 for an empty histogram), so
/// the exposition stops emitting `le` series once they stop adding
/// information.
fn highest_populated_bucket(h: &HistogramSnapshot) -> usize {
    h.buckets
        .iter()
        .rposition(|&n| n > 0)
        .unwrap_or(0)
        .min(HISTOGRAM_BUCKETS - 1)
}

fn le_bound(bucket: usize) -> String {
    if bucket >= 64 {
        "+Inf".to_string()
    } else {
        bucket_upper_bound(bucket).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let checkpoints = reg.counter("here_checkpoints_total", "Checkpoints completed", None);
        reg.add(checkpoints, 3);
        let period = reg.gauge("here_period_seconds", "Current period", None);
        reg.set(period, 0.25);
        let pause = reg.histogram("here_pause_nanos", "Pause per checkpoint", None);
        for v in [1_000, 2_000, 500_000] {
            reg.observe(pause, v);
        }
        // Per-replica families, as the health plane registers them.
        for (replica, lag) in [("0", 0.0), ("1", 3.0)] {
            let g = reg.gauge(
                "here_replica_lag_epochs",
                "Ack lag per replica",
                Some(("replica", replica)),
            );
            reg.set(g, lag);
        }
        let retries = reg.counter(
            "here_replica_retries_total",
            "Transfer retries per replica",
            Some(("replica", "1")),
        );
        reg.add(retries, 2);
        reg
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus(&sample_registry().snapshot());
        assert!(text.contains("# HELP here_checkpoints_total Checkpoints completed\n"));
        assert!(text.contains("# TYPE here_checkpoints_total counter\n"));
        assert!(text.contains("here_checkpoints_total 3\n"));
        assert!(text.contains("# TYPE here_period_seconds gauge\n"));
        assert!(text.contains("here_period_seconds 0.25\n"));
        assert!(text.contains("# TYPE here_pause_nanos histogram\n"));
        // 1000 and 2000 land in buckets le=1023 and le=2047; 500000 in
        // le=524287. Cumulative counts must be monotone.
        assert!(text.contains("here_pause_nanos_bucket{le=\"1023\"} 1\n"));
        assert!(text.contains("here_pause_nanos_bucket{le=\"2047\"} 2\n"));
        assert!(text.contains("here_pause_nanos_bucket{le=\"524287\"} 3\n"));
        assert!(text.contains("here_pause_nanos_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("here_pause_nanos_sum 503000\n"));
        assert!(text.contains("here_pause_nanos_count 3\n"));
        // Exposition stops at the highest populated bucket.
        assert!(!text.contains("le=\"1048575\""));
        // Replica-labelled families: one header block, one series per
        // replica label.
        assert_eq!(
            text.matches("# TYPE here_replica_lag_epochs gauge").count(),
            1
        );
        assert!(text.contains("here_replica_lag_epochs{replica=\"0\"} 0.0\n"));
        assert!(text.contains("here_replica_lag_epochs{replica=\"1\"} 3.0\n"));
        assert!(text.contains("here_replica_retries_total{replica=\"1\"} 2\n"));
    }

    #[test]
    fn labelled_family_emits_one_header_block() {
        let mut reg = MetricsRegistry::new();
        for (stage, v) in [("harvest", 10), ("pause", 20)] {
            let h = reg.histogram("stage_nanos", "per-stage", Some(("stage", stage)));
            reg.observe(h, v);
        }
        let text = prometheus(&reg.snapshot());
        assert_eq!(text.matches("# TYPE stage_nanos histogram").count(), 1);
        assert!(text.contains("stage_nanos_bucket{stage=\"harvest\",le=\"15\"} 1\n"));
        assert!(text.contains("stage_nanos_count{stage=\"pause\"} 1\n"));
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn render_f64_keeps_floats_distinguishable() {
        assert_eq!(render_f64(2.0), "2.0");
        assert_eq!(render_f64(0.25), "0.25");
        assert_eq!(render_f64(f64::NAN), "NaN");
        assert_eq!(render_f64(f64::INFINITY), "+Inf");
    }

    #[test]
    fn empty_registry_renders_empty_documents() {
        let snap = MetricsRegistry::new().snapshot();
        assert_eq!(prometheus(&snap), "");
    }
}
