//! # here-telemetry — the observability layer
//!
//! The paper's control loop hinges on quantities that are invisible until
//! a run ends: the pause `t = αN/P + C` (Eq. 4), the degradation
//! `D_T = t / (t + T)` (Eq. 1), the dirty-page rate, and the failover
//! downtime. This crate holds the building blocks a fold over a run's
//! event log fills in to report all of them — plain data, built on one
//! thread:
//!
//! - [`metrics`]: a registry of counters, gauges and log2-bucketed
//!   histograms. Each metric is registered once and returns a `Copy` id;
//!   the fold updates it through the registry by that id.
//! - [`flight`]: a bounded ring buffer — the **flight recorder** — that
//!   always holds the most recent events, each as the JSON object its
//!   writer rendered, dumpable as one JSON document on demand or on
//!   failure.
//! - [`slo`]: continuous evaluation of the measured degradation against
//!   the configured target `D` and period cap `T_max`, emitting
//!   structured breach events.
//! - [`span`]: causal spans — per-epoch trace trees linking the epoch
//!   root to its pipeline stages, per-lane encode work, and the
//!   replica-side apply across the simulated wire.
//! - [`chrome`]: Chrome trace-event JSON (`chrome://tracing` / Perfetto)
//!   and compact JSONL renderers for span records.
//! - [`export`]: the Prometheus text exposition of a registry snapshot.
//! - [`timeseries`]: fixed-width windowed series on virtual time —
//!   counter rates, last-write gauges, per-window histograms — keyed by
//!   metric + label, bit-deterministic for seeded runs.
//! - [`health`]: the per-replica health state machine
//!   (`Healthy → Lagging → Stale → Recovering`, with hysteresis) fed by
//!   ack lag, backlog depth and retry counts; its thresholds follow from
//!   the topology's staleness bound.
//! - [`alert`]: a deterministic alert engine evaluating a fixed rule set
//!   (SLO burn rate, stale replica, retry storm, quorum at risk, period
//!   oscillation, flight-recorder drops) with fixed thresholds each epoch
//!   into an ordered firing/resolved log; the SLO target is its one
//!   input.
//!
//! ## Example
//!
//! ```
//! use here_telemetry::metrics::MetricsRegistry;
//! use here_telemetry::export::prometheus;
//!
//! let mut registry = MetricsRegistry::new();
//! let checkpoints = registry.counter("here_checkpoints_total", "Checkpoints completed", None);
//! let pause = registry.histogram("here_pause_nanos", "VM-visible pause per checkpoint", None);
//! registry.add(checkpoints, 1);
//! registry.observe(pause, 42_000_000);
//! let text = prometheus(&registry.snapshot());
//! assert!(text.contains("here_checkpoints_total 1"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alert;
pub mod chrome;
pub mod export;
pub mod flight;
pub mod health;
pub mod metrics;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use alert::{
    AlertEngine, AlertEvent, AlertSample, AlertSeverity, AlertState, DEFAULT_D_TARGET_PPM,
};
pub use chrome::{chrome_trace, spans_jsonl};
pub use export::{json_escape, prometheus};
pub use flight::FlightRecorder;
pub use health::{HealthObservation, HealthState, HealthTracker, HealthTransition};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, MetricsRegistry,
    RegistrySnapshot,
};
pub use slo::{BreachKind, SloBreach, SloSummary, SloTracker};
pub use span::{
    AttrValue, NestingViolation, Span, SpanDraft, SpanId, SpanRecorder, TraceTree, Track, TreeError,
};
pub use timeseries::{SeriesKind, SeriesSet, Window, WindowedSeries};
