//! The metrics registry: counters, gauges, log2-bucketed histograms.
//!
//! A registry is plain data built by one fold. Each metric is registered
//! once — name, help text, an optional fixed label pair — and the
//! registration returns a `Copy` id ([`Counter`], [`Gauge`],
//! [`Histogram`]); the fold then updates the metric through the registry
//! by that id ([`MetricsRegistry::add`], [`raise`](MetricsRegistry::raise),
//! [`set`](MetricsRegistry::set), [`observe`](MetricsRegistry::observe)).
//! [`MetricsRegistry::snapshot`] sorts the metrics for export.

use serde::{Deserialize, Serialize};

/// Number of histogram buckets: bucket `b` holds values `v` with
/// `bucket_index(v) == b`, i.e. `v == 0` in bucket 0 and
/// `2^(b-1) <= v < 2^b` in bucket `b` for `b >= 1`. Bucket 64 holds
/// everything from `2^63` up.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The log2 bucket a value lands in.
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b` (the Prometheus `le` boundary).
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b if b >= 64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// A registered counter: a monotone count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(usize);

/// A registered gauge: a float that can move both ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge(usize);

/// A registered log2-bucketed histogram of non-negative integer
/// observations (typically nanoseconds or page counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram(usize);

/// A histogram's data: per-bucket counts plus running aggregates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// One count per log2 bucket ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wraps on overflow).
    pub sum: u64,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty histogram.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation: its bucket, the count, sum, min and max.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// The registry: every metric, in registration order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Vec<MetricSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Appends a metric and returns its index. Panics if `name` + label
    /// is already taken.
    fn register(
        &mut self,
        name: &str,
        help: &str,
        label: Option<(&str, &str)>,
        value: MetricValue,
    ) -> usize {
        let label = label.map(|(k, v)| (k.to_string(), v.to_string()));
        assert!(
            !self
                .metrics
                .iter()
                .any(|m| m.name == name && m.label == label),
            "metric {name} (label {label:?}) registered twice"
        );
        self.metrics.push(MetricSnapshot {
            name: name.to_string(),
            help: help.to_string(),
            label,
            value,
        });
        self.metrics.len() - 1
    }

    /// Registers a counter at 0, optionally carrying one fixed label pair
    /// (e.g. `replica="1"`), so one family can cover every replica of a
    /// set.
    pub fn counter(&mut self, name: &str, help: &str, label: Option<(&str, &str)>) -> Counter {
        Counter(self.register(name, help, label, MetricValue::Counter(0)))
    }

    /// Registers a gauge at 0.0, optionally labelled.
    pub fn gauge(&mut self, name: &str, help: &str, label: Option<(&str, &str)>) -> Gauge {
        Gauge(self.register(name, help, label, MetricValue::Gauge(0.0)))
    }

    /// Registers an empty histogram, optionally labelled (e.g.
    /// `stage="harvest"`, so one family covers the six pipeline stages).
    pub fn histogram(&mut self, name: &str, help: &str, label: Option<(&str, &str)>) -> Histogram {
        let empty = MetricValue::Histogram(HistogramSnapshot::empty());
        Histogram(self.register(name, help, label, empty))
    }

    fn count_mut(&mut self, id: Counter) -> &mut u64 {
        match &mut self.metrics[id.0].value {
            MetricValue::Counter(n) => n,
            _ => panic!("{id:?} names no counter of this registry"),
        }
    }

    /// Adds `n` to a counter (wrapping on overflow).
    pub fn add(&mut self, id: Counter, n: u64) {
        let count = self.count_mut(id);
        *count = count.wrapping_add(n);
    }

    /// Raises a counter to `target`, never lowering it: how a counter
    /// mirrors a cumulative total kept elsewhere.
    pub fn raise(&mut self, id: Counter, target: u64) {
        let count = self.count_mut(id);
        *count = (*count).max(target);
    }

    /// Sets a gauge.
    pub fn set(&mut self, id: Gauge, value: f64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Gauge(v) => *v = value,
            _ => panic!("{id:?} names no gauge of this registry"),
        }
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: Histogram, value: u64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Histogram(h) => h.observe(value),
            _ => panic!("{id:?} names no histogram of this registry"),
        }
    }

    /// Every metric, sorted by `(name, label)` so the exposition is
    /// deterministic regardless of registration order.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut metrics = self.metrics.clone();
        metrics.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        RegistrySnapshot { metrics }
    }
}

/// One metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Metric name (Prometheus conventions: `snake_case`, unit suffix).
    pub name: String,
    /// Help text for the exposition.
    pub help: String,
    /// Optional fixed label pair.
    pub label: Option<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// A metric value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time float.
    Gauge(f64),
    /// Log2 histogram.
    Histogram(HistogramSnapshot),
}

/// A registry's metrics sorted for export: plain data.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Every metric, sorted by `(name, label)`.
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// Looks up a metric by name (first label match wins).
    pub fn find(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(b)), b);
        }
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("ops_total", "ops", None);
        let g = reg.gauge("period_seconds", "period", None);
        reg.add(c, 3);
        reg.add(c, 1);
        reg.set(g, 2.5);
        let snap = reg.snapshot();
        assert_eq!(
            snap.find("ops_total").unwrap().value,
            MetricValue::Counter(4)
        );
        assert_eq!(
            snap.find("period_seconds").unwrap().value,
            MetricValue::Gauge(2.5)
        );
    }

    #[test]
    fn histogram_sum_wraps_on_overflow() {
        let mut h = HistogramSnapshot::empty();
        h.observe(u64::MAX);
        h.observe(2);
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 1, 2, u64::MAX));
        assert_eq!((h.buckets[2], h.buckets[64]), (1, 1));
    }

    #[test]
    fn labelled_histograms_coexist_under_one_name() {
        let mut reg = MetricsRegistry::new();
        let h1 = reg.histogram("stage_nanos", "per-stage", Some(("stage", "pause")));
        let h2 = reg.histogram("stage_nanos", "per-stage", Some(("stage", "harvest")));
        reg.observe(h1, 5);
        reg.observe(h2, 7);
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 2);
        // Sorted by (name, label): harvest before pause.
        assert_eq!(
            snap.metrics[0].label,
            Some(("stage".into(), "harvest".into()))
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x_total", "x", None);
        reg.counter("x_total", "x", None);
    }
}
