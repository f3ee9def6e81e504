//! The trace analyzer: turns a run's causal spans, period decisions and
//! SLO breaches into an actionable report.
//!
//! Four questions the paper's evaluation keeps asking, answered from the
//! trace instead of aggregates:
//!
//! 1. **Critical path per epoch** — which pipeline stage spans make up
//!    each checkpoint's pause, and how the measured pause compares to the
//!    model `t = αN/P + C` (Eq. 4).
//! 2. **Straggler lanes** — encode lanes whose measured wall time
//!    exceeds `k ×` the epoch's median lane.
//! 3. **Period oscillation** — Algorithm 1 bouncing between periods
//!    (direction flips, walk-backs and midpoint jumps over the run's
//!    checkpoint log: each epoch's period against the [`PeriodDecision`]
//!    that followed it).
//! 4. **SLO-breach root cause** — for each breach of the degradation
//!    target `D` or period cap, which stage grew relative to its trailing
//!    mean.

use here_sim_core::time::SimDuration;
use here_telemetry::export::json_escape;
use here_telemetry::slo::BreachKind;
use here_telemetry::span::{Span, TraceTree, Track};

use crate::config::{CostModel, Strategy};
use crate::error::CoreResult;
use crate::period::{PeriodAction, PeriodDecision};
use crate::postmortem::IncidentBundle;
use crate::report::RunReport;
use crate::trace::{stage_totals, Stage};

/// A lane is a straggler when its wall time exceeds `k ×` the epoch's
/// median lane wall time.
const STRAGGLER_K: f64 = 1.5;

/// Lanes faster than this are ignored when hunting stragglers (wall-clock
/// noise floor, ns).
const STRAGGLER_FLOOR_NANOS: u64 = 1_000;

/// Minimum decisions before oscillation can be declared.
const OSCILLATION_WINDOW: usize = 8;

/// Fraction of direction changes (between consecutive period moves) at
/// which the controller counts as oscillating.
const OSCILLATION_FLIP_RATIO: f64 = 0.6;

/// One stage's share of an epoch's pause.
#[derive(Debug, Clone, PartialEq)]
pub struct StageShare {
    /// Stage label (`pause`, `harvest`, `translate`, `transfer`,
    /// `resume`).
    pub stage: &'static str,
    /// Virtual time the stage took.
    pub duration: SimDuration,
    /// `duration / pause` (0 when the pause is zero).
    pub share: f64,
}

/// Critical-path attribution for one checkpoint epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochAttribution {
    /// Checkpoint sequence number.
    pub seq: u64,
    /// The epoch's VM-visible pause (from the checkpoint record).
    pub pause: SimDuration,
    /// Pause time attributed to named stage spans.
    pub attributed: SimDuration,
    /// `attributed / pause` — 1.0 when every nanosecond of the pause is
    /// explained by a named stage span.
    pub attributed_fraction: f64,
    /// Per-stage breakdown, in pipeline order.
    pub stages: Vec<StageShare>,
    /// The stage with the largest share.
    pub dominant_stage: &'static str,
    /// The model's pause for this epoch's dirty-page count:
    /// `t = αN/P + C`.
    pub model_pause: SimDuration,
    /// `(measured − model) / model`, as a percentage.
    pub model_residual_pct: f64,
}

/// An encode lane flagged as a straggler within its epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StragglerLane {
    /// Checkpoint sequence number.
    pub seq: u64,
    /// Lane index.
    pub lane: u32,
    /// The lane's measured wall time (ns).
    pub wall_nanos: u64,
    /// The epoch's median lane wall time (ns).
    pub median_wall_nanos: u64,
}

impl StragglerLane {
    /// How many times slower than the median this lane was.
    pub fn ratio(&self) -> f64 {
        if self.median_wall_nanos == 0 {
            f64::INFINITY
        } else {
            self.wall_nanos as f64 / self.median_wall_nanos as f64
        }
    }
}

/// Summary of the period controller's stability over the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillationReport {
    /// Decisions examined.
    pub decisions: usize,
    /// Times the period's direction of travel reversed between
    /// consecutive non-hold moves.
    pub direction_flips: usize,
    /// `direction_flips / (moves − 1)` (0 with fewer than two moves).
    pub flip_ratio: f64,
    /// `WalkBack` branches taken.
    pub walk_backs: usize,
    /// `MidpointJump` branches taken.
    pub midpoint_jumps: usize,
    /// Verdict: enough history and a flip ratio above the configured
    /// threshold.
    pub oscillating: bool,
}

/// Root-cause attribution for one SLO breach.
#[derive(Debug, Clone, PartialEq)]
pub struct BreachRoot {
    /// Checkpoint sequence number that breached.
    pub seq: u64,
    /// Which bound was violated.
    pub kind: BreachKind,
    /// The measured value that breached.
    pub measured: f64,
    /// The bound it was compared against.
    pub bound: f64,
    /// The breaching epoch's dominant stage.
    pub dominant_stage: &'static str,
    /// That stage's duration in the breaching epoch.
    pub stage_duration: SimDuration,
    /// The same stage's mean duration over all prior epochs.
    pub trailing_mean: SimDuration,
    /// `(stage_duration − trailing_mean) / trailing_mean`, as a
    /// percentage (0 when there is no prior history).
    pub growth_pct: f64,
}

/// Everything the analyzer derives from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Per-epoch critical-path attribution, in sequence order.
    pub epochs: Vec<EpochAttribution>,
    /// The worst `attributed_fraction` across epochs (1.0 for a run with
    /// no epochs).
    pub min_attributed_fraction: f64,
    /// Straggler lanes, in (seq, lane) order.
    pub stragglers: Vec<StragglerLane>,
    /// Period-controller stability.
    pub oscillation: OscillationReport,
    /// Root-caused SLO breaches, in breach order.
    pub breach_roots: Vec<BreachRoot>,
    /// Structural defect counts from [`TraceTree`] validation (both are
    /// zero for a healthy trace).
    pub nesting_violations: usize,
    /// Replica spans whose epoch link does not resolve.
    pub unresolved_links: usize,
    /// Set when the spans could not even be assembled into a tree.
    pub tree_error: Option<String>,
}

/// The analyzer: [`TraceAnalyzer::analyze`] a finished run. Its straggler
/// and oscillation thresholds are fixed.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceAnalyzer;

impl TraceAnalyzer {
    /// Analyzes a finished run against its cost model.
    pub fn analyze(
        &self,
        report: &RunReport,
        costs: &CostModel,
        threads: u32,
        strategy: Strategy,
    ) -> AnalysisReport {
        let (nesting_violations, unresolved_links, tree_error) =
            match TraceTree::build(&report.spans) {
                Ok(tree) => (
                    tree.nesting_violations().len(),
                    tree.unresolved_links().len(),
                    None,
                ),
                Err(e) => (0, 0, Some(e.to_string())),
            };
        let epochs = self.attribute_epochs(report, costs, threads, strategy);
        let min_attributed_fraction = epochs
            .iter()
            .map(|e| e.attributed_fraction)
            .fold(f64::INFINITY, f64::min)
            .min(1.0);
        let min_attributed_fraction = if epochs.is_empty() {
            1.0
        } else {
            min_attributed_fraction
        };
        AnalysisReport {
            stragglers: self.find_stragglers(&report.spans),
            oscillation: self.detect_oscillation(
                report
                    .checkpoint_log()
                    .map(|(_, record, decision)| (record.period, decision)),
            ),
            breach_roots: self.root_cause_breaches(report, &epochs),
            epochs,
            min_attributed_fraction,
            nesting_violations,
            unresolved_links,
            tree_error,
        }
    }

    fn attribute_epochs(
        &self,
        report: &RunReport,
        costs: &CostModel,
        threads: u32,
        strategy: Strategy,
    ) -> Vec<EpochAttribution> {
        report
            .checkpoints
            .iter()
            .map(|ckpt| {
                // The pause is attributed to the epoch's named stage spans
                // that count toward it (everything but the ack wait).
                let stages: Vec<StageShare> = report
                    .spans
                    .iter()
                    .filter(|s| {
                        s.category == "stage" && s.epoch == Some(ckpt.seq) && s.name != "ack"
                    })
                    .map(|s| {
                        let duration = SimDuration::from_nanos(s.duration_nanos);
                        let share = if ckpt.pause.is_zero() {
                            0.0
                        } else {
                            s.duration_nanos as f64 / ckpt.pause.as_nanos() as f64
                        };
                        StageShare {
                            stage: s.name,
                            duration,
                            share,
                        }
                    })
                    .collect();
                let attributed: SimDuration = stages.iter().map(|s| s.duration).sum();
                let attributed_fraction = if ckpt.pause.is_zero() {
                    1.0
                } else {
                    attributed.as_nanos() as f64 / ckpt.pause.as_nanos() as f64
                };
                let dominant_stage = stages
                    .iter()
                    .max_by_key(|s| s.duration)
                    .map(|s| s.stage)
                    .unwrap_or("unknown");
                let model_pause = costs.checkpoint_pause(ckpt.dirty_pages, threads, strategy);
                let model_residual_pct = if model_pause.is_zero() {
                    0.0
                } else {
                    (ckpt.pause.as_nanos() as f64 - model_pause.as_nanos() as f64)
                        / model_pause.as_nanos() as f64
                        * 100.0
                };
                EpochAttribution {
                    seq: ckpt.seq,
                    pause: ckpt.pause,
                    attributed,
                    attributed_fraction,
                    stages,
                    dominant_stage,
                    model_pause,
                    model_residual_pct,
                }
            })
            .collect()
    }

    fn find_stragglers(&self, spans: &[Span]) -> Vec<StragglerLane> {
        let mut by_epoch: Vec<(u64, Vec<(u32, u64)>)> = Vec::new();
        for span in spans {
            let (Track::PrimaryLane(lane), Some(epoch), Some(wall)) =
                (span.track, span.epoch, span.wall_nanos)
            else {
                continue;
            };
            match by_epoch.iter_mut().find(|(e, _)| *e == epoch) {
                Some((_, lanes)) => lanes.push((lane, wall)),
                None => by_epoch.push((epoch, vec![(lane, wall)])),
            }
        }
        let mut out = Vec::new();
        for (epoch, lanes) in by_epoch {
            if lanes.len() < 2 {
                continue;
            }
            let mut walls: Vec<u64> = lanes.iter().map(|&(_, w)| w).collect();
            walls.sort_unstable();
            let median = walls[walls.len() / 2];
            for (lane, wall) in lanes {
                if wall < STRAGGLER_FLOOR_NANOS {
                    continue;
                }
                if wall as f64 > STRAGGLER_K * median as f64 {
                    out.push(StragglerLane {
                        seq: epoch,
                        lane,
                        wall_nanos: wall,
                        median_wall_nanos: median,
                    });
                }
            }
        }
        out.sort_by_key(|s| (s.seq, s.lane));
        out
    }

    /// `epochs` pairs the period each epoch ran with (its record's
    /// `period`) with the decision the controller took after it.
    fn detect_oscillation<'a>(
        &self,
        epochs: impl IntoIterator<Item = (SimDuration, &'a PeriodDecision)>,
    ) -> OscillationReport {
        let mut decisions = 0;
        let mut directions = Vec::new();
        let mut walk_backs = 0;
        let mut midpoint_jumps = 0;
        for (ran_with, d) in epochs {
            decisions += 1;
            match d.action {
                PeriodAction::WalkBack => walk_backs += 1,
                PeriodAction::MidpointJump => midpoint_jumps += 1,
                _ => {}
            }
            match d.chosen_period.cmp(&ran_with) {
                std::cmp::Ordering::Greater => directions.push(1i8),
                std::cmp::Ordering::Less => directions.push(-1i8),
                std::cmp::Ordering::Equal => {}
            }
        }
        let direction_flips = directions.windows(2).filter(|w| w[0] != w[1]).count();
        let flip_ratio = if directions.len() > 1 {
            direction_flips as f64 / (directions.len() - 1) as f64
        } else {
            0.0
        };
        OscillationReport {
            decisions,
            direction_flips,
            flip_ratio,
            walk_backs,
            midpoint_jumps,
            oscillating: decisions >= OSCILLATION_WINDOW && flip_ratio >= OSCILLATION_FLIP_RATIO,
        }
    }

    fn root_cause_breaches(
        &self,
        report: &RunReport,
        epochs: &[EpochAttribution],
    ) -> Vec<BreachRoot> {
        let Some(telemetry) = &report.telemetry else {
            return Vec::new();
        };
        telemetry
            .slo_breaches
            .iter()
            .filter_map(|breach| {
                let epoch = epochs.iter().find(|e| e.seq == breach.seq)?;
                let dominant = epoch
                    .stages
                    .iter()
                    .max_by_key(|s| s.duration)
                    .cloned()
                    .unwrap_or(StageShare {
                        stage: "unknown",
                        duration: SimDuration::ZERO,
                        share: 0.0,
                    });
                // How the dominant stage compares to its own history
                // before the breach.
                let prior: Vec<SimDuration> = epochs
                    .iter()
                    .filter(|e| e.seq < breach.seq)
                    .filter_map(|e| {
                        e.stages
                            .iter()
                            .find(|s| s.stage == dominant.stage)
                            .map(|s| s.duration)
                    })
                    .collect();
                let trailing_mean = if prior.is_empty() {
                    SimDuration::ZERO
                } else {
                    prior.iter().copied().sum::<SimDuration>() / prior.len() as u64
                };
                let growth_pct = if trailing_mean.is_zero() {
                    0.0
                } else {
                    (dominant.duration.as_nanos() as f64 - trailing_mean.as_nanos() as f64)
                        / trailing_mean.as_nanos() as f64
                        * 100.0
                };
                Some(BreachRoot {
                    seq: breach.seq,
                    kind: breach.kind,
                    measured: breach.measured,
                    bound: breach.bound,
                    dominant_stage: dominant.stage,
                    stage_duration: dominant.duration,
                    trailing_mean,
                    growth_pct,
                })
            })
            .collect()
    }
}

/// One stage's virtual-time total, incident run vs. fault-stripped
/// baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDelta {
    /// Stage label (`pause` … `resume`).
    pub stage: &'static str,
    /// Total virtual time the stage took across the incident run.
    pub incident: SimDuration,
    /// Same total across the healthy baseline.
    pub baseline: SimDuration,
    /// `incident − baseline` in nanoseconds (negative = incident faster).
    pub delta_nanos: i64,
}

/// How one replica's progress diverged between the incident run and the
/// fault-stripped baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaDivergence {
    /// 0-based replica index.
    pub replica: u32,
    /// Epochs the replica acked in the incident run.
    pub incident_acks: u64,
    /// Epochs the replica acked in the baseline.
    pub baseline_acks: u64,
    /// The replica's final ack mark in the incident run.
    pub incident_last_acked: u64,
    /// The replica's final ack mark in the baseline.
    pub baseline_last_acked: u64,
    /// Final lag (epochs behind the last quorum commit) in the incident.
    pub incident_lag: u64,
    /// Final lag in the baseline.
    pub baseline_lag: u64,
    /// Transfer retries charged to the replica in the incident run.
    pub incident_retries: u64,
    /// Transfer retries charged in the baseline.
    pub baseline_retries: u64,
}

/// The differential postmortem: incident run vs. the same seed with the
/// fault plan stripped.
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemReport {
    /// What tripped capture (`alert`, `failover`, `epoch_abort`,
    /// `request`).
    pub trigger: String,
    /// Epoch the trigger fired in.
    pub trigger_epoch: u64,
    /// Trigger detail line from the capture.
    pub trigger_detail: String,
    /// Fingerprint of the re-executed incident run.
    pub incident_fingerprint: u64,
    /// Fingerprint of the fault-stripped baseline run.
    pub baseline_fingerprint: u64,
    /// True when the incident rerun reproduced the bundled fingerprint —
    /// the precondition for trusting every diff below.
    pub fingerprint_reproduced: bool,
    /// Per-stage virtual-time totals, incident vs. baseline, in pipeline
    /// order.
    pub stage_deltas: Vec<StageDelta>,
    /// The stage dominating total pause time in the incident run.
    pub dominant_stage_incident: &'static str,
    /// The stage dominating total pause time in the baseline.
    pub dominant_stage_baseline: &'static str,
    /// True when the dominant stage differs — the fault shifted the
    /// critical path.
    pub critical_path_shifted: bool,
    /// Per-replica ack/lag/retry divergence, in index order.
    pub replicas: Vec<ReplicaDivergence>,
    /// The incident run's alert arc, `rule:state@epoch` in firing order.
    pub alert_timeline: Vec<String>,
    /// Same arc for the baseline (normally empty — that is the point).
    pub baseline_alerts: Vec<String>,
    /// Checkpoints the incident run committed.
    pub incident_checkpoints: u64,
    /// Checkpoints the baseline committed.
    pub baseline_checkpoints: u64,
    /// Epochs the incident run aborted (0 when no fault plan aborted
    /// any).
    pub aborted_epochs: u64,
    /// Throughput delta `(incident − baseline) / baseline`, percent.
    pub throughput_delta_pct: f64,
}

impl PostmortemReport {
    /// Deterministic JSON rendering (`postmortem.json`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"trigger\": \"{}\",\n  \"trigger_epoch\": {},\n  \"trigger_detail\": \"{}\",\n",
            json_escape(&self.trigger),
            self.trigger_epoch,
            json_escape(&self.trigger_detail)
        ));
        out.push_str(&format!(
            "  \"incident_fingerprint\": \"0x{:016x}\",\n  \"baseline_fingerprint\": \"0x{:016x}\",\n  \"fingerprint_reproduced\": {},\n",
            self.incident_fingerprint, self.baseline_fingerprint, self.fingerprint_reproduced
        ));
        out.push_str("  \"stage_deltas\": [\n");
        for (i, d) in self.stage_deltas.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"incident_nanos\": {}, \"baseline_nanos\": {}, \"delta_nanos\": {}}}{}\n",
                d.stage,
                d.incident.as_nanos(),
                d.baseline.as_nanos(),
                d.delta_nanos,
                if i + 1 < self.stage_deltas.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"dominant_stage_incident\": \"{}\",\n  \"dominant_stage_baseline\": \"{}\",\n  \"critical_path_shifted\": {},\n",
            self.dominant_stage_incident, self.dominant_stage_baseline, self.critical_path_shifted
        ));
        out.push_str("  \"replicas\": [\n");
        for (i, r) in self.replicas.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"replica\": {}, \"incident_acks\": {}, \"baseline_acks\": {}, \"incident_last_acked\": {}, \"baseline_last_acked\": {}, \"incident_lag\": {}, \"baseline_lag\": {}, \"incident_retries\": {}, \"baseline_retries\": {}}}{}\n",
                r.replica,
                r.incident_acks,
                r.baseline_acks,
                r.incident_last_acked,
                r.baseline_last_acked,
                r.incident_lag,
                r.baseline_lag,
                r.incident_retries,
                r.baseline_retries,
                if i + 1 < self.replicas.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        let timeline = self
            .alert_timeline
            .iter()
            .map(|a| format!("\"{}\"", json_escape(a)))
            .collect::<Vec<_>>()
            .join(", ");
        let baseline = self
            .baseline_alerts
            .iter()
            .map(|a| format!("\"{}\"", json_escape(a)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "  \"alert_timeline\": [{timeline}],\n  \"baseline_alerts\": [{baseline}],\n"
        ));
        out.push_str(&format!(
            "  \"incident_checkpoints\": {},\n  \"baseline_checkpoints\": {},\n  \"aborted_epochs\": {},\n  \"throughput_delta_pct\": {:.3}\n}}\n",
            self.incident_checkpoints,
            self.baseline_checkpoints,
            self.aborted_epochs,
            self.throughput_delta_pct
        ));
        out
    }

    /// Human-readable postmortem (`postmortem_report.txt`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("POSTMORTEM\n==========\n");
        out.push_str(&format!(
            "trigger     : {} at epoch {} ({})\n",
            self.trigger, self.trigger_epoch, self.trigger_detail
        ));
        out.push_str(&format!(
            "fingerprint : incident 0x{:016x}, baseline 0x{:016x} ({})\n",
            self.incident_fingerprint,
            self.baseline_fingerprint,
            if self.fingerprint_reproduced {
                "bundle reproduced"
            } else {
                "BUNDLE NOT REPRODUCED"
            }
        ));
        out.push_str(&format!(
            "critical path: {} (incident) vs {} (baseline){}\n",
            self.dominant_stage_incident,
            self.dominant_stage_baseline,
            if self.critical_path_shifted {
                " — SHIFTED by the fault"
            } else {
                ""
            }
        ));
        out.push_str("\nstage deltas (incident − baseline):\n");
        for d in &self.stage_deltas {
            out.push_str(&format!(
                "  {:<10} {:>14} ns vs {:>14} ns  Δ {:>+14} ns\n",
                d.stage,
                d.incident.as_nanos(),
                d.baseline.as_nanos(),
                d.delta_nanos
            ));
        }
        out.push_str("\nreplica divergence:\n");
        for r in &self.replicas {
            out.push_str(&format!(
                "  r{}: acks {} vs {}, last_acked {} vs {}, lag {} vs {}, retries {} vs {}\n",
                r.replica,
                r.incident_acks,
                r.baseline_acks,
                r.incident_last_acked,
                r.baseline_last_acked,
                r.incident_lag,
                r.baseline_lag,
                r.incident_retries,
                r.baseline_retries
            ));
        }
        out.push_str("\nalert timeline (incident):\n");
        if self.alert_timeline.is_empty() {
            out.push_str("  (none)\n");
        }
        for a in &self.alert_timeline {
            out.push_str(&format!("  {a}\n"));
        }
        out.push_str(&format!(
            "baseline alerts: {}\n",
            if self.baseline_alerts.is_empty() {
                "(none)".to_string()
            } else {
                self.baseline_alerts.join(", ")
            }
        ));
        out.push_str(&format!(
            "\ncheckpoints {} vs {}, aborted epochs {}, throughput Δ {:+.3}%\n",
            self.incident_checkpoints,
            self.baseline_checkpoints,
            self.aborted_epochs,
            self.throughput_delta_pct
        ));
        out
    }
}

/// The differential forensics engine: re-runs a bundle's seed twice —
/// once as captured and once with the fault plan stripped — and diffs
/// the two deterministic runs stage by stage, replica by replica.
#[derive(Debug, Clone, Copy, Default)]
pub struct PostmortemAnalyzer;

impl PostmortemAnalyzer {
    /// Diffs the bundle's incident run against its fault-stripped
    /// baseline.
    pub fn diff(bundle: &IncidentBundle) -> CoreResult<PostmortemReport> {
        let incident = bundle.execute(true)?;
        let baseline = bundle.execute(false)?;
        Ok(Self::diff_reports(bundle, &incident, &baseline))
    }

    /// The pure diff, for callers that already hold both runs.
    pub fn diff_reports(
        bundle: &IncidentBundle,
        incident: &RunReport,
        baseline: &RunReport,
    ) -> PostmortemReport {
        let inc_totals = stage_totals(&incident.stage_events);
        let base_totals = stage_totals(&baseline.stage_events);
        let total_of = |totals: &[(Stage, SimDuration)], stage: Stage| {
            totals
                .iter()
                .find(|(s, _)| *s == stage)
                .map(|(_, d)| *d)
                .unwrap_or(SimDuration::ZERO)
        };
        let stage_deltas: Vec<StageDelta> = Stage::ALL
            .into_iter()
            .map(|stage| {
                let inc = total_of(&inc_totals, stage);
                let base = total_of(&base_totals, stage);
                StageDelta {
                    stage: stage.label(),
                    incident: inc,
                    baseline: base,
                    delta_nanos: inc.as_nanos() as i64 - base.as_nanos() as i64,
                }
            })
            .collect();
        let dominant = |totals: &[(Stage, SimDuration)]| {
            totals
                .iter()
                .filter(|(s, _)| s.counts_toward_pause())
                .max_by_key(|(_, d)| *d)
                .map(|(s, _)| s.label())
                .unwrap_or("none")
        };
        let dominant_stage_incident = dominant(&inc_totals);
        let dominant_stage_baseline = dominant(&base_totals);

        let replica_count = incident.replica_acks.len().max(baseline.replica_acks.len());
        let last_commit = |r: &RunReport| r.commits.last().map(|c| c.seq).unwrap_or(0);
        let inc_head = last_commit(incident);
        let base_head = last_commit(baseline);
        let retries_of = |r: &RunReport, replica: u32| -> u64 {
            let label = replica.to_string();
            r.telemetry
                .as_ref()
                .map(|t| {
                    t.registry
                        .metrics
                        .iter()
                        .filter(|m| {
                            m.name == "here_replica_retries_total"
                                && m.label
                                    .as_ref()
                                    .is_some_and(|(k, v)| k == "replica" && *v == label)
                        })
                        .map(|m| match m.value {
                            here_telemetry::metrics::MetricValue::Counter(n) => n,
                            _ => 0,
                        })
                        .sum()
                })
                .unwrap_or(0)
        };
        let trail = |r: &RunReport, i: usize| -> (u64, u64) {
            r.replica_acks
                .get(i)
                .map(|t| {
                    (
                        t.acks.len() as u64,
                        t.acks.last().map(|a| a.seq).unwrap_or(0),
                    )
                })
                .unwrap_or((0, 0))
        };
        let replicas: Vec<ReplicaDivergence> = (0..replica_count)
            .map(|i| {
                let (incident_acks, incident_last_acked) = trail(incident, i);
                let (baseline_acks, baseline_last_acked) = trail(baseline, i);
                ReplicaDivergence {
                    replica: i as u32,
                    incident_acks,
                    baseline_acks,
                    incident_last_acked,
                    baseline_last_acked,
                    incident_lag: inc_head.saturating_sub(incident_last_acked),
                    baseline_lag: base_head.saturating_sub(baseline_last_acked),
                    incident_retries: retries_of(incident, i as u32),
                    baseline_retries: retries_of(baseline, i as u32),
                }
            })
            .collect();

        let timeline = |r: &RunReport| -> Vec<String> {
            r.telemetry
                .as_ref()
                .and_then(|t| t.health.as_ref())
                .map(|h| {
                    h.alert_log
                        .iter()
                        .map(|a| format!("{}:{}@{}", a.rule, a.state.label(), a.epoch))
                        .collect()
                })
                .unwrap_or_default()
        };
        let baseline_throughput = baseline.throughput_ops_per_sec;
        let throughput_delta_pct = if baseline_throughput == 0.0 {
            0.0
        } else {
            (incident.throughput_ops_per_sec - baseline_throughput) / baseline_throughput * 100.0
        };
        let incident_fingerprint = incident.fingerprint();
        PostmortemReport {
            trigger: bundle.trigger.trigger.clone(),
            trigger_epoch: bundle.trigger.epoch,
            trigger_detail: bundle.trigger.detail.clone(),
            incident_fingerprint,
            baseline_fingerprint: baseline.fingerprint(),
            fingerprint_reproduced: incident_fingerprint == bundle.fingerprint,
            stage_deltas,
            dominant_stage_incident,
            dominant_stage_baseline,
            critical_path_shifted: dominant_stage_incident != dominant_stage_baseline,
            replicas,
            alert_timeline: timeline(incident),
            baseline_alerts: timeline(baseline),
            incident_checkpoints: incident.checkpoints.len() as u64,
            baseline_checkpoints: baseline.checkpoints.len() as u64,
            aborted_epochs: incident.chaos.as_ref().map_or(0, |c| c.epochs_aborted),
            throughput_delta_pct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicationConfig;
    use crate::engine::Scenario;
    use here_sim_core::time::SimDuration;
    use here_workloads::memstress::MemStress;

    fn run() -> (RunReport, ReplicationConfig) {
        let cfg = ReplicationConfig::dynamic(0.3, SimDuration::from_secs(5));
        let report = Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(4)
            .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
            .config(cfg.clone())
            .duration(SimDuration::from_secs(20))
            .build()
            .unwrap()
            .run();
        (report, cfg)
    }

    #[test]
    fn postmortem_diff_attributes_the_fault_and_reproduces_the_bundle() {
        use crate::chaos::FaultPlan;
        use crate::config::{FanoutMode, TopologyConfig};
        use crate::postmortem::{IncidentBundle, ScenarioSpec, WorkloadSpec};

        let spec = ScenarioSpec {
            name: "pm-diff".into(),
            memory_mib: 64,
            vcpus: 2,
            workload: WorkloadSpec::MemStress {
                percent: 30,
                rate: 20_000,
            },
            duration: SimDuration::from_secs(20),
            seed: 42,
            verify_consistency: false,
        };
        let cfg = ReplicationConfig::fixed_period(SimDuration::from_secs(2))
            .with_topology(TopologyConfig {
                replicas: 3,
                quorum: 2,
                fanout: FanoutMode::Star,
                stale_epoch_lag: 4,
            })
            .with_health_plane()
            .with_postmortem_capture();
        let plan = FaultPlan::new(7).with_partition_span(4..=9, &[2], 10);
        let report = spec
            .build_scenario(cfg.clone(), Some(plan.clone()))
            .unwrap()
            .run();
        let bundle = IncidentBundle::capture(spec, &cfg, Some(&plan), &report).unwrap();
        let pm = PostmortemAnalyzer::diff(&bundle).unwrap();
        assert!(
            pm.fingerprint_reproduced,
            "incident rerun must match bundle"
        );
        assert_ne!(pm.incident_fingerprint, pm.baseline_fingerprint);
        // The partitioned replica fell behind only under the fault plan.
        let r2 = &pm.replicas[2];
        assert!(r2.incident_retries > r2.baseline_retries);
        assert!(r2.incident_acks < r2.baseline_acks);
        assert!(!pm.alert_timeline.is_empty());
        assert!(pm.baseline_alerts.is_empty(), "{:?}", pm.baseline_alerts);
        // Renderings are non-empty and mention the trigger.
        let json = pm.render_json();
        assert!(json.contains("\"trigger\": \"alert\""));
        assert!(json.contains("\"stage_deltas\""));
        let text = pm.render_text();
        assert!(text.contains("POSTMORTEM"));
        assert!(text.contains("alert timeline"));
    }

    #[test]
    fn every_epoch_pause_is_fully_attributed() {
        let (report, cfg) = run();
        assert!(!report.checkpoints.is_empty());
        let threads = cfg.effective_threads(4);
        let analysis = TraceAnalyzer.analyze(&report, &cfg.costs, threads, cfg.strategy);
        assert_eq!(analysis.epochs.len(), report.checkpoints.len());
        // The stage spans sum to the pause by construction, so every
        // epoch attributes ≥ 95 % (in fact 100 %) of its pause.
        assert!(
            analysis.min_attributed_fraction >= 0.95,
            "min attributed fraction {}",
            analysis.min_attributed_fraction
        );
        for epoch in &analysis.epochs {
            assert_eq!(epoch.attributed, epoch.pause, "epoch {}", epoch.seq);
            // Measured pause equals the model by construction in the
            // virtual-time simulator: residual is (sub-nanosecond) zero.
            assert!(
                epoch.model_residual_pct.abs() < 1.0,
                "epoch {} residual {}",
                epoch.seq,
                epoch.model_residual_pct
            );
        }
        assert_eq!(analysis.nesting_violations, 0);
        assert_eq!(analysis.unresolved_links, 0);
        assert!(analysis.tree_error.is_none());
    }

    #[test]
    fn oscillation_flags_alternating_periods() {
        let analyzer = TraceAnalyzer;
        let mk = |prev_ms: u64, next_ms: u64, action| {
            let decision = PeriodDecision {
                chosen_period: SimDuration::from_millis(next_ms),
                predicted_degradation: 0.1,
                action,
                clamp: None,
            };
            (SimDuration::from_millis(prev_ms), decision)
        };
        // A\B\A\B… ping-pong: every move reverses direction.
        let mut ping_pong = Vec::new();
        for i in 0..10 {
            if i % 2 == 0 {
                ping_pong.push(mk(1000, 500, PeriodAction::StepDescent));
            } else {
                ping_pong.push(mk(500, 1000, PeriodAction::WalkBack));
            }
        }
        let osc = analyzer.detect_oscillation(ping_pong.iter().map(|(t, d)| (*t, d)));
        assert!(osc.oscillating, "{osc:?}");
        assert_eq!(osc.walk_backs, 5);
        assert_eq!(osc.direction_flips, 9);

        // Monotone descent: no flips, not oscillating.
        let descent: Vec<_> = (0..10)
            .map(|i| mk(1000 - i * 50, 950 - i * 50, PeriodAction::StepDescent))
            .collect();
        let osc = analyzer.detect_oscillation(descent.iter().map(|(t, d)| (*t, d)));
        assert!(!osc.oscillating, "{osc:?}");
        assert_eq!(osc.direction_flips, 0);
    }

    #[test]
    fn stragglers_flagged_above_k_times_median() {
        use here_telemetry::span::{SpanDraft, SpanRecorder, Track};
        let mut rec = SpanRecorder::new();
        for (lane, wall) in [(0u32, 10_000u64), (1, 11_000), (2, 9_000), (3, 40_000)] {
            rec.push(
                SpanDraft::new("encode_lane", "lane", Track::PrimaryLane(lane), 0)
                    .lasting(100)
                    .epoch(5)
                    .wall(wall),
            );
        }
        let found = TraceAnalyzer.find_stragglers(rec.spans());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lane, 3);
        assert_eq!(found[0].seq, 5);
        assert!(found[0].ratio() > 3.0);
    }
}
