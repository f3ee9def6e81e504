//! Deterministic alert engine.
//!
//! A fixed rule set with fixed thresholds is evaluated once per
//! committed epoch against an [`AlertSample`] — the epoch's degradation,
//! period, retry count, health states, and flight-recorder drop
//! counter. Rules keep just enough integer history (ring buffers of
//! recent epochs) to evaluate multi-window conditions, and every
//! firing/resolved edge is appended to an ordered [`AlertEvent`] log.
//!
//! The one input a run chooses is the SLO target `d_target` (its dynamic
//! period policy's `D`, else [`DEFAULT_D_TARGET_PPM`]). Everything is
//! integer arithmetic over virtual-time inputs, with ratios in
//! parts-per-million (ppm), and rules are evaluated in a fixed
//! declaration order, so the same seeded run
//! produces a byte-identical alert log — the property `repro health`
//! gates in CI.
//!
//! The rules (names are stable API, used as span/flight labels):
//!
//! | rule | fires when |
//! |---|---|
//! | `slo_burn_rate` | mean `D_T` over the short (3-epoch) *and* long (12-epoch) window both exceed `2 × d_target` |
//! | `stale_replica` | any replica's health state is `Stale` |
//! | `retry_storm` | transfer retries over the last 4 epochs reach 6 |
//! | `quorum_at_risk` | serviceable replicas have fallen to (or below) the quorum size |
//! | `period_oscillation` | the controller's period direction flips ≥ 5 times in the last 8 epochs |
//! | `flight_recorder_drops` | the flight ring dropped events in 3 consecutive epochs |

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::export::json_escape;

/// Rule name for the multi-window SLO burn-rate alert.
pub const RULE_SLO_BURN_RATE: &str = "slo_burn_rate";
/// Rule name for the stale-replica alert.
pub const RULE_STALE_REPLICA: &str = "stale_replica";
/// Rule name for the retry-storm alert.
pub const RULE_RETRY_STORM: &str = "retry_storm";
/// Rule name for the quorum-at-risk alert.
pub const RULE_QUORUM_AT_RISK: &str = "quorum_at_risk";
/// Rule name for the period-oscillation alert.
pub const RULE_PERIOD_OSCILLATION: &str = "period_oscillation";
/// Rule name for the sustained flight-recorder-drop alert.
pub const RULE_FLIGHT_RECORDER_DROPS: &str = "flight_recorder_drops";

const RULE_COUNT: usize = 6;

/// How loud an alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertSeverity {
    /// Degraded but the replication contract still holds.
    Warning,
    /// The fault-tolerance contract itself is at risk.
    Critical,
}

impl AlertSeverity {
    /// Stable lower-case label for logs and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AlertSeverity::Warning => "warning",
            AlertSeverity::Critical => "critical",
        }
    }
}

/// Which edge of an alert an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertState {
    /// The rule's condition just became true.
    Firing,
    /// The rule's condition just became false after firing.
    Resolved,
}

impl AlertState {
    /// Stable lower-case label for logs and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One firing/resolved edge in the ordered alert log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertEvent {
    /// The rule that transitioned (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Severity of the rule.
    pub severity: AlertSeverity,
    /// Firing or resolved.
    pub state: AlertState,
    /// Epoch sequence number of the evaluation.
    pub epoch: u64,
    /// Virtual timestamp of the evaluation.
    pub at_nanos: u64,
    /// Human-readable condition summary (deterministic).
    pub detail: String,
}

impl AlertEvent {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"state\":\"{}\",\"epoch\":{},\"at_nanos\":{},\"detail\":\"{}\"}}",
            self.rule,
            self.severity.label(),
            self.state.label(),
            self.epoch,
            self.at_nanos,
            json_escape(&self.detail),
        )
    }
}

/// SLO target for client-visible degradation `D_T` when the run does not
/// set one (a fixed period): 50 000 ppm, `D_T ≤ 5 %`, the paper's
/// headline target.
pub const DEFAULT_D_TARGET_PPM: u64 = 50_000;

/// Burn multiple: the mean `D_T` must exceed this many times the target
/// in *both* burn windows to fire.
const BURN_MULTIPLE_X: u64 = 2;
/// Short burn window, in epochs.
const BURN_SHORT_EPOCHS: usize = 3;
/// Long burn window, in epochs.
const BURN_LONG_EPOCHS: usize = 12;
/// Transfer retries within the retry window that count as a storm.
const RETRY_STORM_THRESHOLD: u64 = 6;
/// Retry-storm window, in epochs.
const RETRY_WINDOW_EPOCHS: usize = 4;
/// Period-oscillation window, in epochs.
const OSCILLATION_WINDOW_EPOCHS: usize = 8;
/// Direction flips within the window that count as oscillation.
const OSCILLATION_MIN_FLIPS: u64 = 5;
/// Consecutive epochs with fresh flight-recorder drops that fire the drop
/// alert.
const DROP_WINDOW_EPOCHS: u64 = 3;

/// One epoch's inputs to the engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertSample {
    /// Epoch sequence number.
    pub epoch: u64,
    /// Virtual timestamp of the evaluation.
    pub at_nanos: u64,
    /// Client-visible degradation `D_T` for the epoch, in ppm.
    pub degradation_ppm: u64,
    /// Controller period for the epoch, in nanoseconds.
    pub period_nanos: u64,
    /// Transfer retries charged to the epoch.
    pub retries: u64,
    /// Replicas currently judged stale, in index order.
    pub stale_replicas: Vec<u32>,
    /// Replicas whose health state can serve a promotion.
    pub serviceable: u32,
    /// Total replicas in the set.
    pub replicas: u32,
    /// Commit quorum size.
    pub quorum: u32,
    /// Cumulative flight-recorder drop counter.
    pub flight_dropped: u64,
}

/// Evaluates the rule set each epoch and keeps the ordered alert log.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    d_target_ppm: u64,
    firing: [bool; RULE_COUNT],
    degradation: VecDeque<u64>,
    retries: VecDeque<u64>,
    periods: VecDeque<u64>,
    prev_dropped: u64,
    drop_streak: u64,
    log: Vec<AlertEvent>,
}

impl AlertEngine {
    /// An engine judging degradation against `d_target_ppm` (the SLO
    /// target `D_T`, in ppm), with an empty log.
    pub fn new(d_target_ppm: u64) -> Self {
        AlertEngine {
            d_target_ppm,
            firing: [false; RULE_COUNT],
            degradation: VecDeque::new(),
            retries: VecDeque::new(),
            periods: VecDeque::new(),
            prev_dropped: 0,
            drop_streak: 0,
            log: Vec::new(),
        }
    }

    /// Evaluates every rule against one epoch's sample, in declaration
    /// order, appending firing/resolved edges to the log. Returns the
    /// edges that fired this evaluation.
    pub fn evaluate(&mut self, sample: &AlertSample) -> Vec<AlertEvent> {
        push_capped(
            &mut self.degradation,
            sample.degradation_ppm,
            BURN_LONG_EPOCHS,
        );
        push_capped(&mut self.retries, sample.retries, RETRY_WINDOW_EPOCHS);
        push_capped(
            &mut self.periods,
            sample.period_nanos,
            OSCILLATION_WINDOW_EPOCHS,
        );
        let drop_delta = sample.flight_dropped.saturating_sub(self.prev_dropped);
        self.prev_dropped = sample.flight_dropped;
        self.drop_streak = if drop_delta > 0 {
            self.drop_streak + 1
        } else {
            0
        };

        let burn_floor_ppm = BURN_MULTIPLE_X * self.d_target_ppm;
        let short_sum: u64 = self.degradation.iter().rev().take(BURN_SHORT_EPOCHS).sum();
        let short_n = self.degradation.len().min(BURN_SHORT_EPOCHS) as u64;
        let long_sum: u64 = self.degradation.iter().sum();
        // The long window always divides by its full width: epochs that
        // have not happened yet count as zero burn, so a single early
        // spike cannot satisfy both windows at once.
        let long_n = BURN_LONG_EPOCHS as u64;
        // mean > floor  ⇔  sum > floor × n, exactly, in integers.
        let burning = short_sum > burn_floor_ppm * short_n && long_sum > burn_floor_ppm * long_n;

        let retry_sum: u64 = self.retries.iter().sum();
        let storming = retry_sum >= RETRY_STORM_THRESHOLD;

        let at_risk = sample.replicas > 1
            && sample.serviceable < sample.replicas
            && sample.serviceable <= sample.quorum;

        let mut flips = 0u64;
        let mut prev_dir = 0i8;
        for pair in self.periods.iter().zip(self.periods.iter().skip(1)) {
            let dir = match pair.1.cmp(pair.0) {
                std::cmp::Ordering::Greater => 1i8,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => continue,
            };
            if prev_dir != 0 && dir != prev_dir {
                flips += 1;
            }
            prev_dir = dir;
        }
        let oscillating = flips >= OSCILLATION_MIN_FLIPS;

        let dropping = self.drop_streak >= DROP_WINDOW_EPOCHS;

        let conditions: [(usize, &'static str, AlertSeverity, bool, String); RULE_COUNT] = [
            (
                0,
                RULE_SLO_BURN_RATE,
                AlertSeverity::Critical,
                burning,
                format!(
                    "short-window mean {} ppm, long-window mean {} ppm vs floor {} ppm",
                    short_sum / short_n.max(1),
                    long_sum / long_n.max(1),
                    burn_floor_ppm
                ),
            ),
            (
                1,
                RULE_STALE_REPLICA,
                AlertSeverity::Warning,
                !sample.stale_replicas.is_empty(),
                format!("stale replicas {:?}", sample.stale_replicas),
            ),
            (
                2,
                RULE_RETRY_STORM,
                AlertSeverity::Warning,
                storming,
                format!("{retry_sum} retries in the last {RETRY_WINDOW_EPOCHS} epochs"),
            ),
            (
                3,
                RULE_QUORUM_AT_RISK,
                AlertSeverity::Critical,
                at_risk,
                format!(
                    "{} of {} replicas serviceable, quorum {}",
                    sample.serviceable, sample.replicas, sample.quorum
                ),
            ),
            (
                4,
                RULE_PERIOD_OSCILLATION,
                AlertSeverity::Warning,
                oscillating,
                format!(
                    "{flips} period direction flips in the last {OSCILLATION_WINDOW_EPOCHS} epochs"
                ),
            ),
            (
                5,
                RULE_FLIGHT_RECORDER_DROPS,
                AlertSeverity::Warning,
                dropping,
                format!(
                    "flight recorder dropped events in {} consecutive epochs ({} total)",
                    self.drop_streak, sample.flight_dropped
                ),
            ),
        ];

        let mut edges = Vec::new();
        for (slot, rule, severity, want, detail) in conditions {
            if want == self.firing[slot] {
                continue;
            }
            self.firing[slot] = want;
            let event = AlertEvent {
                rule,
                severity,
                state: if want {
                    AlertState::Firing
                } else {
                    AlertState::Resolved
                },
                epoch: sample.epoch,
                at_nanos: sample.at_nanos,
                detail,
            };
            self.log.push(event.clone());
            edges.push(event);
        }
        edges
    }

    /// Rules currently firing, in declaration order.
    pub fn active(&self) -> Vec<&'static str> {
        const NAMES: [&str; RULE_COUNT] = [
            RULE_SLO_BURN_RATE,
            RULE_STALE_REPLICA,
            RULE_RETRY_STORM,
            RULE_QUORUM_AT_RISK,
            RULE_PERIOD_OSCILLATION,
            RULE_FLIGHT_RECORDER_DROPS,
        ];
        NAMES
            .iter()
            .zip(self.firing.iter())
            .filter(|(_, &f)| f)
            .map(|(&n, _)| n)
            .collect()
    }

    /// The full ordered alert log.
    pub fn log(&self) -> &[AlertEvent] {
        &self.log
    }
}

fn push_capped(ring: &mut VecDeque<u64>, value: u64, cap: usize) {
    ring.push_back(value);
    while ring.len() > cap {
        ring.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_sample(epoch: u64) -> AlertSample {
        AlertSample {
            epoch,
            at_nanos: epoch * 2_000_000_000,
            degradation_ppm: 20_000,
            period_nanos: 2_000_000_000,
            retries: 0,
            stale_replicas: Vec::new(),
            serviceable: 3,
            replicas: 3,
            quorum: 2,
            flight_dropped: 0,
        }
    }

    #[test]
    fn quiet_run_fires_nothing() {
        let mut engine = AlertEngine::new(DEFAULT_D_TARGET_PPM);
        for epoch in 1..=50 {
            assert!(engine.evaluate(&quiet_sample(epoch)).is_empty());
        }
        assert!(engine.log().is_empty());
        assert!(engine.active().is_empty());
    }

    #[test]
    fn slo_burn_needs_both_windows_over_the_floor() {
        let mut engine = AlertEngine::new(DEFAULT_D_TARGET_PPM);
        // One hot epoch: short window spikes but the long window holds.
        let mut s = quiet_sample(1);
        s.degradation_ppm = 900_000;
        engine.evaluate(&s);
        assert!(engine.active().is_empty());
        // Sustained burn lifts both windows past 2 × 50000 ppm.
        let mut fired_at = None;
        for epoch in 2..=10 {
            let mut s = quiet_sample(epoch);
            s.degradation_ppm = 400_000;
            if !engine.evaluate(&s).is_empty() && fired_at.is_none() {
                fired_at = Some(epoch);
            }
        }
        assert_eq!(engine.active(), vec![RULE_SLO_BURN_RATE]);
        assert!(fired_at.is_some());
        // Cooling off resolves it once the short window clears.
        let mut resolved = false;
        for epoch in 11..=20 {
            let edges = engine.evaluate(&quiet_sample(epoch));
            if edges.iter().any(|e| e.state == AlertState::Resolved) {
                resolved = true;
            }
        }
        assert!(resolved);
        assert!(engine.active().is_empty());
    }

    #[test]
    fn stale_replica_and_quorum_fire_and_resolve_in_rule_order() {
        let mut engine = AlertEngine::new(DEFAULT_D_TARGET_PPM);
        let mut s = quiet_sample(3);
        s.stale_replicas = vec![2];
        s.serviceable = 2;
        let edges = engine.evaluate(&s);
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].rule, RULE_STALE_REPLICA);
        assert_eq!(edges[0].severity, AlertSeverity::Warning);
        assert_eq!(edges[1].rule, RULE_QUORUM_AT_RISK);
        assert_eq!(edges[1].severity, AlertSeverity::Critical);
        let edges = engine.evaluate(&quiet_sample(4));
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().all(|e| e.state == AlertState::Resolved));
        assert_eq!(engine.log().len(), 4);
    }

    #[test]
    fn quorum_rule_ignores_single_replica_sets() {
        let mut engine = AlertEngine::new(DEFAULT_D_TARGET_PPM);
        let mut s = quiet_sample(1);
        s.replicas = 1;
        s.quorum = 1;
        s.serviceable = 1;
        assert!(engine.evaluate(&s).is_empty());
    }

    #[test]
    fn retry_storm_sums_over_the_window() {
        let mut engine = AlertEngine::new(DEFAULT_D_TARGET_PPM);
        for epoch in 1..=3 {
            let mut s = quiet_sample(epoch);
            s.retries = 2;
            engine.evaluate(&s);
        }
        assert_eq!(engine.active(), vec![RULE_RETRY_STORM]);
        // Quiet epochs age the window out and resolve the alert.
        for epoch in 4..=8 {
            engine.evaluate(&quiet_sample(epoch));
        }
        assert!(engine.active().is_empty());
    }

    #[test]
    fn period_oscillation_counts_direction_flips() {
        let mut engine = AlertEngine::new(DEFAULT_D_TARGET_PPM);
        for epoch in 1..=10 {
            let mut s = quiet_sample(epoch);
            s.period_nanos = if epoch % 2 == 0 {
                2_500_000_000
            } else {
                1_500_000_000
            };
            engine.evaluate(&s);
        }
        assert_eq!(engine.active(), vec![RULE_PERIOD_OSCILLATION]);
    }

    #[test]
    fn sustained_drops_fire_after_the_streak() {
        let mut engine = AlertEngine::new(DEFAULT_D_TARGET_PPM);
        let mut dropped = 0;
        for epoch in 1..=3 {
            let mut s = quiet_sample(epoch);
            dropped += 5;
            s.flight_dropped = dropped;
            engine.evaluate(&s);
        }
        assert_eq!(engine.active(), vec![RULE_FLIGHT_RECORDER_DROPS]);
        let mut s = quiet_sample(4);
        s.flight_dropped = dropped; // no fresh drops
        engine.evaluate(&s);
        assert!(engine.active().is_empty());
    }

    #[test]
    fn jsonl_log_is_ordered_and_escaped() {
        let mut engine = AlertEngine::new(DEFAULT_D_TARGET_PPM);
        let mut s = quiet_sample(2);
        s.stale_replicas = vec![1];
        engine.evaluate(&s);
        assert_eq!(engine.log().len(), 1);
        assert!(engine.log()[0].render_json().starts_with(
            "{\"rule\":\"stale_replica\",\"severity\":\"warning\",\"state\":\"firing\",\"epoch\":2,"
        ));
    }
}
