//! # here-core — heterogeneous live VM replication (the HERE system)
//!
//! The paper's primary contribution: a platform that replicates a protected
//! VM *across hypervisor boundaries* (Xen primary → KVM/kvmtool secondary)
//! using asynchronous state replication, so that neither accidental host
//! failures nor zero-day DoS exploits against one hypervisor can take the
//! service down.
//!
//! - [`config`]: replication configuration and the calibrated cost model;
//! - [`period`]: the dynamic checkpoint period manager — Algorithm 1;
//! - [`transfer`]: the multithreaded data plane (per-vCPU seeding threads,
//!   round-robin 2 MiB chunk workers, problematic-page tracking);
//! - [`devmgr`]: outgoing-I/O buffering and the failover device switch;
//! - [`failover`]: heartbeat-based detection and the commit ledger, which
//!   alone mints the [`Commit`] that releases output
//!   and the one-shot activation failover spends;
//! - [`chaos`]: the deterministic fault-injection plane — seeded
//!   [`FaultPlan`]s that drop, corrupt or delay
//!   transfers, flap the replication link, lose heartbeats or down the
//!   primary mid-epoch, replayed byte-identically from the same seed;
//! - [`engine`]: [`Scenario`] — the public API tying the
//!   whole stack together;
//! - [`topology`]: the replica-set topology — N heterogeneous replicas
//!   behind one primary, with quorum commit and at-most-one activation;
//! - [`session`]: the live session — shared run state and its phase FSM;
//! - [`migrate`]: the seeding phase (iterative pre-copy live migration);
//! - [`checkpoint`]: the continuous phase — the epoch loop;
//! - [`pipeline`]: the staged checkpoint pipeline
//!   (Pause → Harvest → Translate → Transfer → Ack → Resume);
//! - [`trace`]: the session's one ordered event log —
//!   [`SessionEvent`]s, among them the
//!   [`StageEvent`] of every stage boundary;
//! - [`telemetry`]: the observability planes — metrics registry, flight
//!   recorder, SLO tracker, health plane, span tree and postmortem
//!   capture — as one [`fold`](telemetry::fold) over that log, frozen
//!   into every report;
//! - [`analyze`]: the trace analyzer — per-epoch critical-path
//!   attribution against `t = αN/P + C`, straggler-lane detection,
//!   period-oscillation detection and SLO-breach root-causing;
//! - [`postmortem`]: the postmortem plane — deterministic incident
//!   capture into checksummed, versioned
//!   [`IncidentBundle`]s and byte-identical
//!   bundle replay;
//! - [`report`]: the measurements each run produces, derived from the
//!   stage trace.
//!
//! ## Example
//!
//! ```
//! use here_core::{ReplicationConfig, Scenario};
//! use here_sim_core::time::SimDuration;
//!
//! let report = Scenario::builder()
//!     .vm_memory_mib(64)
//!     .vcpus(2)
//!     .config(ReplicationConfig::fixed_period(SimDuration::from_secs(3)))
//!     .duration(SimDuration::from_secs(15))
//!     .build()?
//!     .run();
//! assert!(report.checkpoints.len() >= 4);
//! # Ok::<(), here_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod chaos;
pub mod checkpoint;
pub mod config;
pub mod dataplane;
pub mod devmgr;
pub mod engine;
pub mod error;
pub mod failover;
pub mod migrate;
pub mod period;
pub mod pipeline;
pub mod postmortem;
pub mod report;
pub mod session;
pub mod telemetry;
pub mod topology;
pub mod trace;
pub mod transfer;

pub use analyze::{
    AnalysisReport, BreachRoot, EpochAttribution, OscillationReport, PostmortemAnalyzer,
    PostmortemReport, ReplicaDivergence, StageDelta, StageShare, StragglerLane, TraceAnalyzer,
};
pub use chaos::{ChaosStats, FaultEvent, FaultKind, FaultPlan, FaultTrigger};
pub use config::{
    CostModel, FanoutMode, HeartbeatConfig, PeriodPolicy, ReplicationConfig, RetryPolicy, Strategy,
    TopologyConfig, HEARTBEAT, RETRY,
};
pub use engine::*;
pub use error::{CoreError, CoreResult};
pub use failover::{
    detection_time, Commit, CommitEntry, CommitLedger, FailoverRecord, ReplicaAcks,
    STARVATION_DETECTION_FACTOR,
};
pub use period::{
    degradation, ClampReason, DynamicPeriodManager, PeriodAction, PeriodDecision, PeriodManager,
};
pub use postmortem::{
    IncidentBundle, IncidentSnapshot, IncidentTrigger, ReplayOutcome, ScenarioSpec, WorkloadSpec,
    BUNDLE_VERSION,
};
pub use report::{CheckpointRecord, MigrationOutcome, RunReport};
pub use telemetry::{
    HealthSnapshot, TelemetrySnapshot, FLIGHT_RECORDER_CAPACITY, HEALTH_SERIES_WINDOW_NANOS,
};
pub use topology::{Replica, ReplicaSet};
pub use trace::{stage_totals, FaultSite, SessionEvent, Stage, StageEvent};
