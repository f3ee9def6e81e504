//! The dynamic checkpoint period manager — Algorithm 1 of the paper.
//!
//! The goal (§5.4, Equation 2): find the *smallest* checkpoint period `T`
//! (more frequent checkpoints = less data loss on failover) such that the
//! measured performance degradation `D_T = t / (t + T)` stays near the
//! user's soft target `D`, while never exceeding the hard cap `T_max`.
//!
//! The algorithm is a step-based search: while within the degradation
//! budget, shrink `T` by one step `σ` (remembering the last-known-good
//! value); on overshoot, first walk back to the remembered value, and if
//! that is also over budget, jump to the midpoint between the current `T`
//! and `T_max` (rounded to `σ`).

use serde::{Deserialize, Serialize};

use here_sim_core::time::SimDuration;

use crate::config::PeriodPolicy;

/// Measured degradation for a pause `t` within period `T`:
/// `D_T = t / (t + T)` (Equation 1).
pub fn degradation(pause: SimDuration, period: SimDuration) -> f64 {
    let t = pause.as_secs_f64();
    let total = t + period.as_secs_f64();
    if total == 0.0 {
        0.0
    } else {
        t / total
    }
}

/// What Algorithm 1's loop body did on one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeriodAction {
    /// Far below target (`D_curr <= D/2`): halve the period.
    FastDescent,
    /// Within budget near the target: shrink by one step `σ` (line 8).
    StepDescent,
    /// First overshoot: return to the last-known-good period (line 10).
    WalkBack,
    /// Sustained overshoot: jump to the midpoint of `(T, T_max)`
    /// (lines 12–13).
    MidpointJump,
    /// Sustained overshoot with unbounded `T_max`: double the period.
    Double,
    /// The period did not move (fixed-period controller).
    Hold,
}

impl PeriodAction {
    /// Stable snake_case label for exports and the flight recorder.
    pub fn label(self) -> &'static str {
        match self {
            PeriodAction::FastDescent => "fast_descent",
            PeriodAction::StepDescent => "step_descent",
            PeriodAction::WalkBack => "walk_back",
            PeriodAction::MidpointJump => "midpoint_jump",
            PeriodAction::Double => "double",
            PeriodAction::Hold => "hold",
        }
    }
}

/// Which bound clipped the chosen period, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClampReason {
    /// The choice exceeded the hard cap and was pulled back to `T_max`.
    TMax,
    /// The choice fell below one step `σ` and was raised to the floor.
    SigmaFloor,
}

impl ClampReason {
    /// Stable snake_case label for exports and the flight recorder.
    pub fn label(self) -> &'static str {
        match self {
            ClampReason::TMax => "t_max",
            ClampReason::SigmaFloor => "sigma_floor",
        }
    }
}

/// The structured outcome of one period-controller iteration: what was
/// chosen, and why. What it measured — the pause, its degradation, the
/// period the epoch ran with and its dirty pages — is the
/// [`CheckpointRecord`](crate::report::CheckpointRecord) it ships beside
/// in [`SessionEvent::Checkpoint`](crate::trace::SessionEvent::Checkpoint)
/// (read both with [`RunReport::checkpoint_log`](crate::report::RunReport::checkpoint_log)),
/// and the flight recorder mirrors the pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodDecision {
    /// Period chosen for the next epoch.
    pub chosen_period: SimDuration,
    /// Degradation the next epoch is predicted to see if the pause
    /// repeats: `t / (t + T_chosen)`.
    pub predicted_degradation: f64,
    /// Which branch of the algorithm ran.
    pub action: PeriodAction,
    /// Which bound clipped the choice, if any.
    pub clamp: Option<ClampReason>,
}

/// The period controller: either a fixed period or Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PeriodManager {
    /// Fixed `T` (Remus, and HERE's `D = 0 %` rows).
    Fixed(SimDuration),
    /// Algorithm 1 state.
    Dynamic(DynamicPeriodManager),
}

impl PeriodManager {
    /// Builds the controller for a policy.
    pub fn new(policy: PeriodPolicy) -> Self {
        match policy {
            PeriodPolicy::Fixed(t) => PeriodManager::Fixed(t),
            PeriodPolicy::Dynamic {
                d_target,
                t_max,
                sigma,
            } => PeriodManager::Dynamic(DynamicPeriodManager::new(d_target, t_max, sigma)),
        }
    }

    /// The period to run the next epoch with.
    pub fn current(&self) -> SimDuration {
        match self {
            PeriodManager::Fixed(t) => *t,
            PeriodManager::Dynamic(d) => d.current(),
        }
    }

    /// Feeds the measured pause of the checkpoint that just completed;
    /// returns the structured decision (whose `chosen_period` is the
    /// period for the next epoch). A fixed controller holds its period.
    pub fn on_checkpoint(&mut self, pause: SimDuration) -> PeriodDecision {
        match self {
            PeriodManager::Fixed(t) => PeriodDecision {
                chosen_period: *t,
                predicted_degradation: degradation(pause, *t),
                action: PeriodAction::Hold,
                clamp: None,
            },
            PeriodManager::Dynamic(d) => d.on_checkpoint(pause),
        }
    }
}

/// Algorithm 1's mutable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicPeriodManager {
    d_target: f64,
    t_max: SimDuration,
    sigma: SimDuration,
    t: SimDuration,
    t_prev: SimDuration,
    d_prev: f64,
}

impl DynamicPeriodManager {
    /// Creates the controller. Initially `T = T_max` ("to avoid exceeding
    /// the replication interval constraint", line 1) and `D_prev = D`
    /// (line 2). An unbounded `T_max` ([`SimDuration::MAX`]) starts from a
    /// practical stand-in of 30 s.
    ///
    /// # Panics
    ///
    /// Panics if `d_target` is outside `(0, 1)` or `sigma` is zero.
    pub fn new(d_target: f64, t_max: SimDuration, sigma: SimDuration) -> Self {
        assert!(
            d_target > 0.0 && d_target < 1.0,
            "degradation target must be in (0,1), got {d_target}"
        );
        assert!(!sigma.is_zero(), "sigma must be non-zero");
        let start = if t_max == SimDuration::MAX {
            SimDuration::from_secs(30)
        } else {
            t_max
        };
        DynamicPeriodManager {
            d_target,
            t_max,
            sigma,
            t: start,
            t_prev: start,
            d_prev: d_target,
        }
    }

    /// The degradation target `D`.
    pub fn target(&self) -> f64 {
        self.d_target
    }

    /// The hard cap `T_max`.
    pub fn t_max(&self) -> SimDuration {
        self.t_max
    }

    /// The period for the next epoch.
    pub fn current(&self) -> SimDuration {
        self.t
    }

    /// One iteration of Algorithm 1's loop body, fed with the measured
    /// pause duration `t_curr` of the checkpoint that just completed.
    /// Returns the structured decision; `decision.chosen_period` is the
    /// new period (also readable via [`Self::current`]).
    pub fn on_checkpoint(&mut self, t_curr: SimDuration) -> PeriodDecision {
        let d_curr = degradation(t_curr, self.t);
        let mut clamp = None;
        let action;
        if d_curr <= self.d_target {
            // Within budget: remember this period and probe lower (lines
            // 7–8). Near the target the probe is one step sigma; when the
            // measured degradation is far below target (half or less) the
            // controller descends multiplicatively instead — Algorithm 1
            // specifies the sigma step near equilibrium, and without a
            // fast path the descent from T = T_max would take hundreds of
            // checkpoints. The period never drops below one step.
            self.t_prev = self.t;
            let raw = if d_curr <= self.d_target / 2.0 {
                action = PeriodAction::FastDescent;
                let half = self.t / 2;
                if half < self.sigma {
                    // The rounding below pulls the halved period back up to
                    // one step: the floor, not the halving, decided.
                    clamp = Some(ClampReason::SigmaFloor);
                }
                half.round_to(self.sigma)
            } else {
                action = PeriodAction::StepDescent;
                self.t.saturating_sub(self.sigma)
            };
            if raw < self.sigma {
                clamp = Some(ClampReason::SigmaFloor);
            }
            self.t = raw.max(self.sigma);
        } else if self.d_prev <= self.d_target {
            // First overshoot: walk back to the last-known-good period
            // (line 10).
            action = PeriodAction::WalkBack;
            self.t = self.t_prev;
        } else {
            // Still over budget: jump to the midpoint between the current
            // period and T_max, rounded to sigma (lines 12–13). With an
            // unbounded T_max the recovery doubles the period instead.
            self.t_prev = self.t;
            let raw = if self.t_max == SimDuration::MAX {
                action = PeriodAction::Double;
                (self.t * 2).round_to(self.sigma)
            } else {
                action = PeriodAction::MidpointJump;
                ((self.t + self.t_max) / 2).round_to(self.sigma)
            };
            if raw < self.sigma {
                clamp = Some(ClampReason::SigmaFloor);
            }
            self.t = raw.max(self.sigma);
        }
        if self.t_max != SimDuration::MAX && self.t > self.t_max {
            clamp = Some(ClampReason::TMax);
            self.t = self.t_max;
        }
        self.d_prev = d_curr;
        PeriodDecision {
            chosen_period: self.t,
            predicted_degradation: degradation(t_curr, self.t),
            action,
            clamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: SimDuration = SimDuration::from_secs(1);

    fn mgr(d: f64, t_max_secs: u64) -> DynamicPeriodManager {
        DynamicPeriodManager::new(d, SimDuration::from_secs(t_max_secs), SEC)
    }

    #[test]
    fn degradation_matches_equation_1() {
        let d = degradation(SimDuration::from_secs(2), SimDuration::from_secs(8));
        assert!((d - 0.2).abs() < 1e-12);
        assert_eq!(degradation(SimDuration::ZERO, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn starts_at_t_max() {
        let m = mgr(0.3, 25);
        assert_eq!(m.current(), SimDuration::from_secs(25));
    }

    #[test]
    fn shrinks_while_within_budget() {
        let mut m = mgr(0.3, 10);
        // A tiny pause keeps D_curr ~ 0: far below target, so the fast
        // descent halves the period.
        let d1 = m.on_checkpoint(SimDuration::from_millis(10));
        assert_eq!(d1.chosen_period, SimDuration::from_secs(5));
        assert_eq!(d1.action, PeriodAction::FastDescent);
        assert_eq!(d1.clamp, None);
        let d2 = m.on_checkpoint(SimDuration::from_millis(10));
        assert_eq!(d2.chosen_period, SimDuration::from_secs(3));
        // Close to the target (D_curr in (D/2, D]): single sigma steps.
        // t = 1 s at T = 3 s gives D_curr = 0.25, within (0.15, 0.3].
        let d3 = m.on_checkpoint(SimDuration::from_secs(1));
        assert_eq!(d3.chosen_period, SimDuration::from_secs(2));
        assert_eq!(d3.action, PeriodAction::StepDescent);
        // Predicted: the same 1 s pause at T = 2 s gives 1/3.
        assert!((d3.predicted_degradation - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn never_shrinks_below_sigma() {
        let mut m = DynamicPeriodManager::new(0.5, SimDuration::from_secs(2), SEC);
        let mut last = None;
        for _ in 0..10 {
            last = Some(m.on_checkpoint(SimDuration::from_millis(1)));
        }
        assert_eq!(m.current(), SEC);
        // Once parked at the floor the clamp reason says so.
        assert_eq!(last.unwrap().clamp, Some(ClampReason::SigmaFloor));
    }

    #[test]
    fn single_overshoot_walks_back_to_last_good() {
        let mut m = mgr(0.3, 10);
        // t = 3 s at T = 10 s gives D_curr = 0.23 in (0.15, 0.3]: sigma step.
        m.on_checkpoint(SimDuration::from_secs(3)); // T: 10 -> 9, good
        m.on_checkpoint(SimDuration::from_secs(3)); // T: 9 -> 8, good
                                                    // Now a big pause at T=8: D = 8/(8+8) = 0.5 > 0.3; D_prev was good,
                                                    // so walk back to T_prev = 9.
        let d = m.on_checkpoint(SimDuration::from_secs(8));
        assert_eq!(d.chosen_period, SimDuration::from_secs(9));
        assert_eq!(d.action, PeriodAction::WalkBack);
    }

    #[test]
    fn sustained_overshoot_jumps_toward_t_max() {
        let mut m = mgr(0.2, 20);
        // Drive T down to the floor with tiny pauses.
        for _ in 0..15 {
            m.on_checkpoint(SimDuration::from_millis(1));
        }
        assert_eq!(m.current(), SEC);
        // Bring it to a mid value: overshoot once (walk back), then settle.
        // Instead, directly verify the two-overshoot recovery from 5 s.
        let mut m = mgr(0.2, 20);
        for _ in 0..2 {
            m.on_checkpoint(SimDuration::from_millis(1)); // 20 -> 10 -> 5
        }
        assert_eq!(m.current(), SimDuration::from_secs(5));
        // Overshoot twice: first walks back (to the remembered 10), second
        // jumps to the midpoint of (10, 20) = 15.
        m.on_checkpoint(SimDuration::from_secs(30));
        assert_eq!(m.current(), SimDuration::from_secs(10));
        m.on_checkpoint(SimDuration::from_secs(30));
        assert_eq!(m.current(), SimDuration::from_secs(15));
    }

    #[test]
    fn unbounded_t_max_recovers_by_doubling() {
        let mut m = DynamicPeriodManager::new(0.2, SimDuration::MAX, SEC);
        assert_eq!(m.current(), SimDuration::from_secs(30));
        for _ in 0..5 {
            m.on_checkpoint(SimDuration::from_millis(1)); // fast descent
        }
        assert_eq!(m.current(), SEC);
        m.on_checkpoint(SimDuration::from_secs(60)); // overshoot #1: back to 2
        assert_eq!(m.current(), SimDuration::from_secs(2));
        m.on_checkpoint(SimDuration::from_secs(60)); // overshoot #2: double
        assert_eq!(m.current(), SimDuration::from_secs(4));
    }

    #[test]
    fn converges_near_target_for_stable_load() {
        // Pause is a fixed function of the workload: t = 0.9 s. The
        // equilibrium T* solving D = t/(t+T) at D=0.3 is T* = 2.1 s. The
        // controller should oscillate within a couple of sigma of T*.
        let mut m = DynamicPeriodManager::new(
            0.3,
            SimDuration::from_secs(25),
            SimDuration::from_millis(250),
        );
        let pause = SimDuration::from_millis(900);
        for _ in 0..200 {
            m.on_checkpoint(pause);
        }
        let t = m.current().as_secs_f64();
        assert!((1.5..3.2).contains(&t), "converged to {t}");
    }

    #[test]
    fn sustained_overshoot_clamps_at_t_max() {
        // Even with pathological pauses the recovery jump can never push
        // T past the hard cap: the midpoint of (T, T_max) rounded up to a
        // sigma multiple is re-clamped to T_max.
        let mut m = mgr(0.2, 10);
        let mut last = None;
        for _ in 0..20 {
            let d = m.on_checkpoint(SimDuration::from_secs(1_000));
            assert!(
                d.chosen_period <= SimDuration::from_secs(10),
                "T {} exceeded T_max",
                d.chosen_period
            );
            last = Some(d);
        }
        // With every checkpoint over budget the controller parks at T_max.
        assert_eq!(m.current(), SimDuration::from_secs(10));
        assert_eq!(last.unwrap().action, PeriodAction::MidpointJump);
    }

    #[test]
    fn t_max_clamp_is_recorded_in_the_decision() {
        // sigma = 2 s, T_max = 3 s: the recovery midpoint of (3, 3) rounds
        // up to 4 s and must be pulled back to the cap, with the decision
        // naming T_max as the clamp reason.
        let mut m =
            DynamicPeriodManager::new(0.2, SimDuration::from_secs(3), SimDuration::from_secs(2));
        m.on_checkpoint(SimDuration::from_secs(100)); // walk-back (no move)
        let d = m.on_checkpoint(SimDuration::from_secs(100));
        assert_eq!(d.action, PeriodAction::MidpointJump);
        assert_eq!(d.clamp, Some(ClampReason::TMax));
        assert_eq!(d.chosen_period, SimDuration::from_secs(3));
    }

    #[test]
    fn far_below_target_descends_multiplicatively() {
        // D_curr <= D/2 takes the fast path: T halves (rounded to sigma)
        // instead of stepping by sigma.
        let mut m = mgr(0.4, 24);
        assert_eq!(
            m.on_checkpoint(SimDuration::from_millis(1)).chosen_period,
            SimDuration::from_secs(12)
        );
        assert_eq!(
            m.on_checkpoint(SimDuration::from_millis(1)).chosen_period,
            SimDuration::from_secs(6)
        );
        assert_eq!(
            m.on_checkpoint(SimDuration::from_millis(1)).chosen_period,
            SimDuration::from_secs(3)
        );
        // Just above D/2 leaves the fast path: a single sigma step.
        // t = 1 s at T = 3 s gives D_curr = 0.25, in (0.2, 0.4].
        assert_eq!(
            m.on_checkpoint(SimDuration::from_secs(1)).chosen_period,
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn converges_from_t_max_within_logarithmic_checkpoints() {
        // Starting at the conservative T = T_max, a stable pause function
        // must bring the controller into the equilibrium band in a handful
        // of checkpoints (the multiplicative fast path), not the hundreds
        // a pure sigma descent would need from 25 s at sigma = 250 ms.
        let mut m = DynamicPeriodManager::new(
            0.3,
            SimDuration::from_secs(25),
            SimDuration::from_millis(250),
        );
        assert_eq!(m.current(), SimDuration::from_secs(25));
        let pause = SimDuration::from_millis(900); // equilibrium T* = 2.1 s
        let mut reached_at = None;
        for i in 0..30 {
            let t = m.on_checkpoint(pause).chosen_period;
            if reached_at.is_none() && (1.5..3.2).contains(&t.as_secs_f64()) {
                reached_at = Some(i + 1);
            }
        }
        let reached_at = reached_at.expect("controller never reached the equilibrium band");
        assert!(reached_at <= 10, "took {reached_at} checkpoints");
        // And it stays there once load is stable.
        for _ in 0..50 {
            m.on_checkpoint(pause);
        }
        let t = m.current().as_secs_f64();
        assert!((1.5..3.2).contains(&t), "drifted to {t}");
    }

    #[test]
    fn fixed_manager_never_moves() {
        let mut m = PeriodManager::new(PeriodPolicy::Fixed(SimDuration::from_secs(8)));
        let d = m.on_checkpoint(SimDuration::from_secs(100));
        assert_eq!(d.chosen_period, SimDuration::from_secs(8));
        assert_eq!(d.action, PeriodAction::Hold);
        assert_eq!(d.clamp, None);
        assert_eq!(m.current(), SimDuration::from_secs(8));
    }
}
