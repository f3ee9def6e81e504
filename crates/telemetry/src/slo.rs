//! The SLO tracker: continuous evaluation of the degradation target.
//!
//! The paper's control objective is to hold the per-epoch degradation
//! `D_T = t / (t + T)` (Eq. 1) at a configured target `D` while keeping
//! the period under the cap `T_max`. [`SloTracker`] checks both bounds
//! after every checkpoint and turns violations into structured
//! [`SloBreach`] events, so a run (or a live deployment) can tell *when*
//! the dynamic period manager lost the target rather than just averaging
//! it away in the final report.

use serde::Serialize;

/// Which bound a checkpoint violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreachKind {
    /// Measured `D_T` exceeded the degradation target (with tolerance).
    Degradation,
    /// The period the epoch actually ran with exceeded `T_max`.
    PeriodCap,
}

impl BreachKind {
    /// Stable label for exports.
    pub fn label(self) -> &'static str {
        match self {
            BreachKind::Degradation => "degradation",
            BreachKind::PeriodCap => "period_cap",
        }
    }
}

/// One structured breach event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloBreach {
    /// Checkpoint sequence number that breached.
    pub seq: u64,
    /// Virtual timestamp of the checkpoint (ns).
    pub at_nanos: u64,
    /// Which bound was violated.
    pub kind: BreachKind,
    /// The measured value (degradation ratio, or period in ns).
    pub measured: f64,
    /// The bound it was compared against.
    pub bound: f64,
}

/// Aggregate view of a tracker's history.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloSummary {
    /// Checkpoints evaluated.
    pub evaluated: u64,
    /// Checkpoints that met every bound.
    pub compliant: u64,
    /// Degradation breaches.
    pub degradation_breaches: u64,
    /// Period-cap breaches.
    pub period_cap_breaches: u64,
    /// `compliant / evaluated` (1.0 when nothing was evaluated).
    pub compliance_ratio: f64,
    /// Worst measured degradation seen.
    pub worst_degradation: f64,
}

/// Evaluates every checkpoint against the degradation target and the
/// period cap, retaining the breach events.
#[derive(Debug, Clone)]
pub struct SloTracker {
    d_target: f64,
    t_max_nanos: Option<u64>,
    evaluated: u64,
    compliant: u64,
    worst_degradation: f64,
    breaches: Vec<SloBreach>,
}

impl SloTracker {
    /// Relative headroom allowed over the target before a checkpoint
    /// counts as a breach. Algorithm 1 corrects *after* an overshoot is
    /// measured, so transient excursions to the target itself are
    /// expected; 10% separates "converging" from "lost the target".
    pub const DEFAULT_TOLERANCE: f64 = 0.10;

    /// A tracker holding `D_T <= d_target * (1 + DEFAULT_TOLERANCE)` and,
    /// when `t_max_nanos` is set, `T <= T_max`.
    pub fn new(d_target: f64, t_max_nanos: Option<u64>) -> Self {
        SloTracker {
            d_target,
            t_max_nanos,
            evaluated: 0,
            compliant: 0,
            worst_degradation: 0.0,
            breaches: Vec::new(),
        }
    }

    /// The degradation target being held.
    pub fn d_target(&self) -> f64 {
        self.d_target
    }

    /// Evaluates one finished checkpoint epoch: `pause_nanos` is the
    /// measured pause `t`, `period_nanos` the period `T` the epoch ran
    /// with. Returns the breaches this checkpoint produced (also retained
    /// internally).
    pub fn observe(
        &mut self,
        seq: u64,
        at_nanos: u64,
        pause_nanos: u64,
        period_nanos: u64,
    ) -> Vec<SloBreach> {
        self.evaluated += 1;
        let mut new = Vec::new();
        let d_measured = if pause_nanos + period_nanos == 0 {
            0.0
        } else {
            pause_nanos as f64 / (pause_nanos + period_nanos) as f64
        };
        if d_measured > self.worst_degradation {
            self.worst_degradation = d_measured;
        }
        let d_bound = self.d_target * (1.0 + Self::DEFAULT_TOLERANCE);
        if d_measured > d_bound {
            new.push(SloBreach {
                seq,
                at_nanos,
                kind: BreachKind::Degradation,
                measured: d_measured,
                bound: d_bound,
            });
        }
        if let Some(t_max) = self.t_max_nanos {
            if period_nanos > t_max {
                new.push(SloBreach {
                    seq,
                    at_nanos,
                    kind: BreachKind::PeriodCap,
                    measured: period_nanos as f64,
                    bound: t_max as f64,
                });
            }
        }
        if new.is_empty() {
            self.compliant += 1;
        }
        self.breaches.extend(new.iter().cloned());
        new
    }

    /// Every breach recorded so far, in order.
    pub fn breaches(&self) -> &[SloBreach] {
        &self.breaches
    }

    /// Aggregates the history.
    pub fn summary(&self) -> SloSummary {
        let count = |k: BreachKind| self.breaches.iter().filter(|b| b.kind == k).count() as u64;
        SloSummary {
            evaluated: self.evaluated,
            compliant: self.compliant,
            degradation_breaches: count(BreachKind::Degradation),
            period_cap_breaches: count(BreachKind::PeriodCap),
            compliance_ratio: if self.evaluated == 0 {
                1.0
            } else {
                self.compliant as f64 / self.evaluated as f64
            },
            worst_degradation: self.worst_degradation,
        }
    }

    /// Drops all history (bounds are kept). Used when a run discards its
    /// warmup phase.
    pub fn clear(&mut self) {
        self.evaluated = 0;
        self.compliant = 0;
        self.worst_degradation = 0.0;
        self.breaches.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn compliant_checkpoints_produce_no_breaches() {
        // t = 5ms, T = 95ms → D = 0.05 at a 0.10 target.
        let mut slo = SloTracker::new(0.10, Some(1_000 * MS));
        let breaches = slo.observe(1, 100 * MS, 5 * MS, 95 * MS);
        assert!(breaches.is_empty());
        let s = slo.summary();
        assert_eq!((s.evaluated, s.compliant), (1, 1));
        assert_eq!(s.compliance_ratio, 1.0);
        assert!((s.worst_degradation - 0.05).abs() < 1e-9);
    }

    #[test]
    fn degradation_breach_is_structured() {
        // t = 30ms, T = 70ms → D = 0.30 against a 0.10 target.
        let mut slo = SloTracker::new(0.10, None);
        let breaches = slo.observe(3, 200 * MS, 30 * MS, 70 * MS);
        assert_eq!(breaches.len(), 1);
        let b = &breaches[0];
        assert_eq!(b.kind, BreachKind::Degradation);
        assert_eq!(b.seq, 3);
        assert!((b.measured - 0.30).abs() < 1e-9);
        assert!((b.bound - 0.11).abs() < 1e-9);
        assert_eq!(slo.summary().degradation_breaches, 1);
        assert_eq!(slo.summary().compliant, 0);
    }

    #[test]
    fn period_cap_breach_detected_independently() {
        // Long period keeps degradation tiny but blows through T_max.
        let mut slo = SloTracker::new(0.10, Some(1_000 * MS));
        let breaches = slo.observe(2, 0, MS, 5_000 * MS);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].kind, BreachKind::PeriodCap);
        assert_eq!(breaches[0].measured, (5_000 * MS) as f64);
    }

    #[test]
    fn tolerance_allows_transient_excursions() {
        // D = 0.105 with a 0.10 target: inside the 10% tolerance band.
        let mut slo = SloTracker::new(0.10, None);
        assert!(slo.observe(1, 0, 105, 895).is_empty());
        // D = 0.115 lies above the band: a breach.
        assert_eq!(slo.observe(2, 0, 115, 885).len(), 1);
    }

    #[test]
    fn clear_resets_history() {
        let mut slo = SloTracker::new(0.01, None);
        slo.observe(1, 0, 50, 50);
        assert!(!slo.breaches().is_empty());
        slo.clear();
        assert!(slo.breaches().is_empty());
        assert_eq!(slo.summary().evaluated, 0);
        assert_eq!(slo.summary().compliance_ratio, 1.0);
    }

    #[test]
    fn zero_duration_epoch_counts_as_zero_degradation() {
        let mut slo = SloTracker::new(0.10, None);
        assert!(slo.observe(1, 0, 0, 0).is_empty());
        assert_eq!(slo.summary().worst_degradation, 0.0);
    }
}
