//! Virtual-time windowed series.
//!
//! End-of-run snapshots answer "what happened overall"; the health plane
//! needs "what happened *when*". A [`WindowedSeries`] buckets samples
//! into fixed-width windows of **virtual time** — the window index is
//! `at_nanos / width_nanos`, nothing reads a wall clock — so two runs of
//! the same seeded scenario produce bit-identical series.
//!
//! Three aggregation kinds cover the health plane's inputs:
//!
//! - [`SeriesKind::CounterRate`] — event counts per window; the exporter
//!   derives a rate by dividing by the window width.
//! - [`SeriesKind::GaugeLast`] — last-write-wins sampled values (period,
//!   degradation); merge resolves "last" by the `(at_nanos, value)`
//!   maximum so merging commutes with recording order.
//! - [`SeriesKind::Histogram`] — per-window log2 bucket counts
//!   (pause times), mergeable window-by-window.
//!
//! Every value is an integer chosen by the caller (nanoseconds, pages,
//! parts-per-million, …): integer arithmetic keeps aggregation exactly
//! associative, which is what makes window merges commute and the JSONL
//! rendering byte-stable.
//!
//! Windows rotate: a series keeps at most `retain` live windows and
//! folds anything older into a single *tail* aggregate, so a long run
//! has bounded memory while `total_count` still sees every sample ever
//! recorded (the "rotation never loses counts" property test pins
//! this).

use serde::{Deserialize, Serialize};

use crate::metrics::{bucket_index, HISTOGRAM_BUCKETS};

/// Default number of live windows a series retains before folding the
/// oldest into the tail aggregate.
pub const DEFAULT_RETAIN: usize = 512;

/// How samples aggregate within a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeriesKind {
    /// Event counts; rendered with a per-second rate over the window.
    CounterRate,
    /// Sampled values where the latest write wins; `last` is resolved by
    /// the `(at_nanos, value)` maximum so merges are order-independent.
    GaugeLast,
    /// Per-window log2 histogram of values.
    Histogram,
}

impl SeriesKind {
    /// Stable label used in the JSONL rendering.
    pub fn label(&self) -> &'static str {
        match self {
            SeriesKind::CounterRate => "counter_rate",
            SeriesKind::GaugeLast => "gauge_last",
            SeriesKind::Histogram => "histogram",
        }
    }
}

/// One fixed-width window of aggregated samples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    /// Window index: `at_nanos / width_nanos` of every sample in it.
    pub index: u64,
    /// Samples recorded into the window.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` while empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Virtual timestamp of the winning `last` sample.
    pub last_at_nanos: u64,
    /// Last-write-wins value; ties on `last_at_nanos` resolve to the
    /// larger value so merging commutes with recording order.
    pub last: u64,
    /// Log2 bucket counts, bucketed like a metrics histogram
    /// ([`HISTOGRAM_BUCKETS`] entries, [`bucket_index`]); empty unless
    /// the series kind is [`SeriesKind::Histogram`].
    pub buckets: Vec<u64>,
}

impl Window {
    /// An empty window at `index` shaped for `kind` (histogram windows
    /// allocate their bucket array up front).
    pub fn new(index: u64, kind: SeriesKind) -> Self {
        Window {
            index,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            last_at_nanos: 0,
            last: 0,
            buckets: match kind {
                SeriesKind::Histogram => vec![0; HISTOGRAM_BUCKETS],
                _ => Vec::new(),
            },
        }
    }

    /// Records one sample into the window's aggregates. The caller is
    /// responsible for routing the sample to the right window index.
    pub fn record(&mut self, at_nanos: u64, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.count == 1 || (at_nanos, value) >= (self.last_at_nanos, self.last) {
            self.last_at_nanos = at_nanos;
            self.last = value;
        }
        if !self.buckets.is_empty() {
            self.buckets[bucket_index(value)] += 1;
        }
    }

    /// Merges another window's aggregates into this one. Merging is
    /// commutative and associative, so splitting a sample stream across
    /// two windows of the same index and merging them yields exactly the
    /// window that recording everything into one would have.
    ///
    /// # Panics
    ///
    /// Panics if the window indices differ — merging across windows
    /// would silently misattribute time.
    pub fn merge_from(&mut self, other: &Window) {
        assert_eq!(self.index, other.index, "window merge across indices");
        self.merge_aggregates(other);
    }

    fn merge_aggregates(&mut self, other: &Window) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || (other.last_at_nanos, other.last) >= (self.last_at_nanos, self.last) {
            self.last_at_nanos = other.last_at_nanos;
            self.last = other.last;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.buckets.len() == other.buckets.len() {
            for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
                *mine += *theirs;
            }
        } else if self.buckets.is_empty() {
            self.buckets = other.buckets.clone();
        }
    }

    /// Events per second of virtual time for a window of `width_nanos`.
    pub fn rate_per_sec(&self, width_nanos: u64) -> f64 {
        if width_nanos == 0 {
            return 0.0;
        }
        self.count as f64 * 1e9 / width_nanos as f64
    }
}

/// One metric's windowed history: fixed-width virtual-time windows plus
/// a tail aggregate for rotated-out history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedSeries {
    metric: String,
    label: Option<(String, String)>,
    kind: SeriesKind,
    width_nanos: u64,
    retain: usize,
    windows: Vec<Window>,
    tail: Option<Window>,
}

impl WindowedSeries {
    /// A new series for `metric` (optionally labelled) with windows of
    /// `width_nanos` virtual nanoseconds, retaining [`DEFAULT_RETAIN`]
    /// live windows.
    pub fn new(
        metric: &str,
        label: Option<(&str, &str)>,
        kind: SeriesKind,
        width_nanos: u64,
    ) -> Self {
        Self::with_retain(metric, label, kind, width_nanos, DEFAULT_RETAIN)
    }

    /// Like [`WindowedSeries::new`] with an explicit live-window cap
    /// (minimum 1).
    pub fn with_retain(
        metric: &str,
        label: Option<(&str, &str)>,
        kind: SeriesKind,
        width_nanos: u64,
        retain: usize,
    ) -> Self {
        assert!(width_nanos > 0, "window width must be positive");
        WindowedSeries {
            metric: metric.to_string(),
            label: label.map(|(k, v)| (k.to_string(), v.to_string())),
            kind,
            width_nanos,
            retain: retain.max(1),
            windows: Vec::new(),
            tail: None,
        }
    }

    /// The metric name.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// The `key="value"` label, if any.
    pub fn label(&self) -> Option<(&str, &str)> {
        self.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The aggregation kind.
    pub fn kind(&self) -> SeriesKind {
        self.kind
    }

    /// Window width in virtual nanoseconds.
    pub fn width_nanos(&self) -> u64 {
        self.width_nanos
    }

    /// Records one sample at virtual time `at_nanos`. Samples may arrive
    /// in any order; the same multiset of `(at_nanos, value)` samples
    /// always produces the same series.
    pub fn record(&mut self, at_nanos: u64, value: u64) {
        let index = at_nanos / self.width_nanos;
        let at = match self.windows.binary_search_by_key(&index, |w| w.index) {
            Ok(at) => at,
            Err(at) => {
                // A sample older than everything already folded into the
                // tail joins the tail directly: rotated history never
                // re-materialises, and no count is lost.
                if let Some(tail) = &mut self.tail {
                    if index <= tail.index {
                        let mut w = Window::new(index, self.kind);
                        w.record(at_nanos, value);
                        tail.merge_aggregates(&w);
                        return;
                    }
                }
                self.windows.insert(at, Window::new(index, self.kind));
                at
            }
        };
        self.windows[at].record(at_nanos, value);
        self.rotate();
    }

    fn rotate(&mut self) {
        while self.windows.len() > self.retain {
            let oldest = self.windows.remove(0);
            match &mut self.tail {
                Some(tail) => {
                    tail.merge_aggregates(&oldest);
                    tail.index = tail.index.max(oldest.index);
                }
                None => self.tail = Some(oldest),
            }
        }
    }

    /// The live windows, oldest first.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// The tail aggregate holding rotated-out history, if any has
    /// rotated. Its `index` is the newest window index folded in.
    pub fn tail(&self) -> Option<&Window> {
        self.tail.as_ref()
    }

    /// Total samples ever recorded, live windows plus tail. Rotation
    /// never changes this.
    pub fn total_count(&self) -> u64 {
        self.windows.iter().map(|w| w.count).sum::<u64>()
            + self.tail.as_ref().map_or(0, |t| t.count)
    }

    /// Appends one JSONL line per live window (plus one `"tail": true`
    /// line if history has rotated) to `out`.
    pub fn render_jsonl_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let label = match &self.label {
            Some((k, v)) => format!(
                ",\"label\":{{\"{}\":\"{}\"}}",
                crate::export::json_escape(k),
                crate::export::json_escape(v)
            ),
            None => String::new(),
        };
        let mut line = |w: &Window, tail: bool| {
            let _ = write!(
                out,
                "{{\"metric\":\"{}\"{label},\"kind\":\"{}\",\"window\":{},\"start_nanos\":{},\"width_nanos\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{}",
                crate::export::json_escape(&self.metric),
                self.kind.label(),
                w.index,
                w.index * self.width_nanos,
                self.width_nanos,
                w.count,
                w.sum,
                if w.count == 0 { 0 } else { w.min },
                w.max,
            );
            match self.kind {
                SeriesKind::CounterRate => {
                    let _ = write!(
                        out,
                        ",\"rate_per_sec\":{}",
                        w.rate_per_sec(self.width_nanos)
                    );
                }
                SeriesKind::GaugeLast => {
                    let _ = write!(
                        out,
                        ",\"last\":{},\"last_at_nanos\":{}",
                        w.last, w.last_at_nanos
                    );
                }
                SeriesKind::Histogram => {
                    let _ = out.write_str(",\"buckets\":[");
                    let mut first = true;
                    for (i, &n) in w.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        if !first {
                            let _ = out.write_str(",");
                        }
                        first = false;
                        let _ = write!(out, "[{i},{n}]");
                    }
                    let _ = out.write_str("]");
                }
            }
            if tail {
                let _ = out.write_str(",\"tail\":true");
            }
            let _ = out.write_str("}\n");
        };
        if let Some(t) = &self.tail {
            line(t, true);
        }
        for w in &self.windows {
            line(w, false);
        }
    }
}

/// A keyed set of [`WindowedSeries`], all sharing one window width —
/// the health plane's in-memory store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSet {
    width_nanos: u64,
    retain: usize,
    series: Vec<WindowedSeries>,
}

impl SeriesSet {
    /// A new set whose series use windows of `width_nanos` virtual
    /// nanoseconds.
    pub fn new(width_nanos: u64) -> Self {
        Self::with_retain(width_nanos, DEFAULT_RETAIN)
    }

    /// Like [`SeriesSet::new`] with an explicit per-series live-window
    /// cap.
    pub fn with_retain(width_nanos: u64, retain: usize) -> Self {
        assert!(width_nanos > 0, "window width must be positive");
        SeriesSet {
            width_nanos,
            retain,
            series: Vec::new(),
        }
    }

    /// Records one sample into the series keyed by `(metric, label)`,
    /// creating the series on first use.
    pub fn record(
        &mut self,
        metric: &str,
        label: Option<(&str, &str)>,
        kind: SeriesKind,
        at_nanos: u64,
        value: u64,
    ) {
        let at = self.series.iter().position(|s| {
            s.metric == metric && s.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == label
        });
        let series = match at {
            Some(at) => &mut self.series[at],
            None => {
                self.series.push(WindowedSeries::with_retain(
                    metric,
                    label,
                    kind,
                    self.width_nanos,
                    self.retain,
                ));
                self.series.last_mut().expect("just pushed")
            }
        };
        series.record(at_nanos, value);
    }

    /// The series keyed by `(metric, label)`, if any samples have been
    /// recorded into it.
    pub fn get(&self, metric: &str, label: Option<(&str, &str)>) -> Option<&WindowedSeries> {
        self.series.iter().find(|s| {
            s.metric == metric && s.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == label
        })
    }

    /// Number of distinct `(metric, label)` series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// All series, sorted by `(metric, label)`.
    pub fn series(&self) -> Vec<&WindowedSeries> {
        let mut all: Vec<&WindowedSeries> = self.series.iter().collect();
        all.sort_by(|a, b| (&a.metric, &a.label).cmp(&(&b.metric, &b.label)));
        all
    }

    /// Total windows across all series (live + tail), the cheap "how
    /// many points" summary benchmarks pin.
    pub fn total_windows(&self) -> usize {
        self.series
            .iter()
            .map(|s| s.windows.len() + usize::from(s.tail.is_some()))
            .sum()
    }

    /// Renders the whole set as JSONL: one line per window, series
    /// sorted by `(metric, label)`, windows oldest first — byte-stable
    /// for a given multiset of recorded samples.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for series in self.series() {
            series.render_jsonl_into(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_bucket_by_virtual_time() {
        let mut s = WindowedSeries::new("ticks", None, SeriesKind::CounterRate, 1_000);
        s.record(0, 1);
        s.record(999, 1);
        s.record(1_000, 1);
        s.record(2_500, 1);
        assert_eq!(s.windows().len(), 3);
        assert_eq!(s.windows()[0].index, 0);
        assert_eq!(s.windows()[0].count, 2);
        assert_eq!(s.windows()[1].index, 1);
        assert_eq!(s.windows()[2].index, 2);
        assert_eq!(s.total_count(), 4);
    }

    #[test]
    fn gauge_last_resolves_by_timestamp_then_value() {
        let mut a = WindowedSeries::new("g", None, SeriesKind::GaugeLast, 1_000);
        a.record(10, 5);
        a.record(20, 3);
        assert_eq!(a.windows()[0].last, 3);
        // Same samples, reversed order: identical series.
        let mut b = WindowedSeries::new("g", None, SeriesKind::GaugeLast, 1_000);
        b.record(20, 3);
        b.record(10, 5);
        assert_eq!(a, b);
        // Tie on the timestamp resolves to the larger value either way.
        let mut c = WindowedSeries::new("g", None, SeriesKind::GaugeLast, 1_000);
        c.record(20, 9);
        c.record(20, 3);
        assert_eq!(c.windows()[0].last, 9);
    }

    #[test]
    fn merge_matches_recording_everything_in_one_window() {
        let samples = [(5u64, 7u64), (900, 2), (12, 2), (400, 40)];
        let mut whole = Window::new(0, SeriesKind::Histogram);
        let mut left = Window::new(0, SeriesKind::Histogram);
        let mut right = Window::new(0, SeriesKind::Histogram);
        for (i, &(at, v)) in samples.iter().enumerate() {
            whole.record(at, v);
            if i % 2 == 0 {
                left.record(at, v);
            } else {
                right.record(at, v);
            }
        }
        let mut merged_lr = left.clone();
        merged_lr.merge_from(&right);
        let mut merged_rl = right.clone();
        merged_rl.merge_from(&left);
        assert_eq!(merged_lr, whole);
        assert_eq!(merged_rl, whole, "merge must commute");
    }

    #[test]
    fn rotation_folds_old_windows_into_the_tail() {
        let mut s = WindowedSeries::with_retain("r", None, SeriesKind::CounterRate, 100, 2);
        for w in 0..5u64 {
            s.record(w * 100, 1);
            s.record(w * 100 + 50, 1);
        }
        assert_eq!(s.windows().len(), 2);
        let tail = s.tail().expect("history rotated");
        assert_eq!(tail.count, 6);
        assert_eq!(s.total_count(), 10);
        // A late sample for rotated history lands in the tail, not a
        // resurrected window.
        s.record(10, 1);
        assert_eq!(s.windows().len(), 2);
        assert_eq!(s.total_count(), 11);
    }

    #[test]
    fn series_set_keys_by_metric_and_label() {
        let mut set = SeriesSet::new(1_000);
        set.record("lag", Some(("replica", "0")), SeriesKind::GaugeLast, 0, 1);
        set.record("lag", Some(("replica", "1")), SeriesKind::GaugeLast, 0, 2);
        set.record("lag", Some(("replica", "0")), SeriesKind::GaugeLast, 500, 3);
        set.record("pause", None, SeriesKind::Histogram, 0, 40);
        assert_eq!(set.len(), 3);
        let r0 = set.get("lag", Some(("replica", "0"))).unwrap();
        assert_eq!(r0.windows()[0].count, 2);
        assert!(set.get("lag", None).is_none());
    }

    #[test]
    fn jsonl_is_sorted_and_stable() {
        let mut set = SeriesSet::new(1_000);
        set.record("z_metric", None, SeriesKind::CounterRate, 0, 1);
        set.record(
            "a_metric",
            Some(("replica", "1")),
            SeriesKind::GaugeLast,
            0,
            7,
        );
        set.record(
            "a_metric",
            Some(("replica", "0")),
            SeriesKind::Histogram,
            1_500,
            3,
        );
        let out = set.render_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"a_metric\"") && lines[0].contains("\"replica\":\"0\""));
        assert!(lines[0].contains("\"buckets\":[[2,1]]"));
        assert!(lines[1].contains("\"replica\":\"1\"") && lines[1].contains("\"last\":7"));
        assert!(lines[2].starts_with("{\"metric\":\"z_metric\""));
        assert!(lines[2].contains("\"rate_per_sec\":1000"));
        assert_eq!(out, set.render_jsonl(), "rendering is pure");
    }
}
