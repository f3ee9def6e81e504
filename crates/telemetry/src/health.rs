//! Per-replica health state machine.
//!
//! The replication loop already *records* everything the paper's fault
//! model cares about — ack high-water marks in the commit ledger,
//! parked backlog pages, transfer retries — but nothing turns those raw
//! signals into an operator-facing judgement. A [`HealthTracker`] does:
//! each epoch it folds one [`HealthObservation`] per replica into a
//! four-state machine,
//!
//! ```text
//!            lag ≥ lagging_lag or backlog
//!   Healthy ────────────────────────────▶ Lagging
//!      ▲  ▲                                 │
//!      │  │ caught up (lag 0, no backlog)   │ lag ≥ stale_lag
//!      │  └─────────────────────────────────┤
//!      │                                    ▼
//!      │    recover_epochs clean epochs   Stale
//!      └──────────── Recovering ◀───────────┘
//!                        │    lag < stale_lag
//!                        └──▶ back to Stale if lag ≥ stale_lag again
//! ```
//!
//! with hysteresis in both directions: `Lagging` only clears once the
//! replica is fully caught up, and a formerly-stale replica must stay
//! clean for `recover_epochs` (`RECOVER_EPOCHS`, 2) consecutive epochs
//! before it counts as `Healthy` again. `stale_lag` is the topology's
//! staleness bound, and `lagging_lag` follows from it: a quarter of it,
//! at least 1. Driven only by epoch sequence numbers and virtual time, the
//! trajectory is bit-deterministic for a seeded run.

use serde::{Deserialize, Serialize};

/// One replica's health judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthState {
    /// Fully caught up: acked the latest epoch, no parked backlog.
    Healthy,
    /// Behind by a little, or carrying parked backlog pages.
    Lagging,
    /// Behind by at least the stale threshold — the failover planner
    /// should not promote this replica.
    Stale,
    /// Was stale, now catching up; must stay clean for the recovery
    /// window before counting as healthy again.
    Recovering,
}

impl HealthState {
    /// Stable lower-case label for logs and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Lagging => "lagging",
            HealthState::Stale => "stale",
            HealthState::Recovering => "recovering",
        }
    }

    /// True if the replica can serve a failover promotion: every state
    /// except [`HealthState::Stale`].
    pub fn serviceable(&self) -> bool {
        !matches!(self, HealthState::Stale)
    }
}

/// Consecutive clean epochs a recovering replica needs before it is
/// healthy again.
const RECOVER_EPOCHS: u64 = 2;

/// One epoch's raw signals for one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthObservation {
    /// 0-based replica index.
    pub replica: u32,
    /// Ack high-water mark from the commit ledger.
    pub ack_mark: u64,
    /// Epochs between the just-committed sequence and `ack_mark`.
    pub lag_epochs: u64,
    /// Pages parked in the replica's catch-up backlog.
    pub backlog_pages: u64,
    /// Transfer retries charged to this replica this epoch.
    pub retries: u64,
}

/// A state-machine edge: `replica` moved `from → to` at `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthTransition {
    /// 0-based replica index.
    pub replica: u32,
    /// Epoch sequence number of the observation that caused the edge.
    pub epoch: u64,
    /// Virtual timestamp of the observation.
    pub at_nanos: u64,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// The observed ack lag that drove the edge.
    pub lag_epochs: u64,
}

#[derive(Debug, Clone, Copy)]
struct ReplicaHealth {
    state: HealthState,
    clean_streak: u64,
}

impl ReplicaHealth {
    fn step(
        &mut self,
        lagging_lag: u64,
        stale_lag: u64,
        obs: &HealthObservation,
    ) -> Option<HealthState> {
        let clean = obs.lag_epochs == 0 && obs.backlog_pages == 0;
        self.clean_streak = if clean { self.clean_streak + 1 } else { 0 };
        let next = match self.state {
            HealthState::Healthy | HealthState::Lagging => {
                if obs.lag_epochs >= stale_lag {
                    HealthState::Stale
                } else if clean {
                    HealthState::Healthy
                } else if self.state == HealthState::Lagging
                    || obs.lag_epochs >= lagging_lag
                    || obs.backlog_pages > 0
                {
                    HealthState::Lagging
                } else {
                    HealthState::Healthy
                }
            }
            HealthState::Stale => {
                if obs.lag_epochs >= stale_lag {
                    HealthState::Stale
                } else if clean && self.clean_streak >= RECOVER_EPOCHS {
                    HealthState::Healthy
                } else {
                    HealthState::Recovering
                }
            }
            HealthState::Recovering => {
                if obs.lag_epochs >= stale_lag {
                    HealthState::Stale
                } else if clean && self.clean_streak >= RECOVER_EPOCHS {
                    HealthState::Healthy
                } else {
                    HealthState::Recovering
                }
            }
        };
        let from = self.state;
        self.state = next;
        (from != next).then_some(from)
    }
}

/// Tracks the health state machine for every replica of a set.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    lagging_lag: u64,
    stale_lag: u64,
    replicas: Vec<ReplicaHealth>,
    transitions: Vec<HealthTransition>,
}

impl HealthTracker {
    /// A tracker for `replicas` replicas, all starting healthy, that
    /// judges a replica stale at `stale_lag` epochs of ack lag (the
    /// topology's staleness bound) and lagging at a quarter of that, at
    /// least 1.
    pub fn new(replicas: u32, stale_lag: u64) -> Self {
        HealthTracker {
            lagging_lag: (stale_lag / 4).max(1),
            stale_lag,
            replicas: vec![
                ReplicaHealth {
                    state: HealthState::Healthy,
                    clean_streak: 0,
                };
                replicas as usize
            ],
            transitions: Vec::new(),
        }
    }

    /// Folds one epoch's observations into the machines and returns the
    /// transitions that fired, in replica order. Observations for
    /// unknown replica indices are ignored.
    pub fn observe(
        &mut self,
        epoch: u64,
        at_nanos: u64,
        observations: &[HealthObservation],
    ) -> Vec<HealthTransition> {
        let mut fired = Vec::new();
        for obs in observations {
            let Some(replica) = self.replicas.get_mut(obs.replica as usize) else {
                continue;
            };
            if let Some(from) = replica.step(self.lagging_lag, self.stale_lag, obs) {
                let transition = HealthTransition {
                    replica: obs.replica,
                    epoch,
                    at_nanos,
                    from,
                    to: replica.state,
                    lag_epochs: obs.lag_epochs,
                };
                self.transitions.push(transition);
                fired.push(transition);
            }
        }
        fired
    }

    /// Current state of one replica.
    pub fn state(&self, replica: u32) -> Option<HealthState> {
        self.replicas.get(replica as usize).map(|r| r.state)
    }

    /// Current state of every replica, in index order.
    pub fn states(&self) -> Vec<HealthState> {
        self.replicas.iter().map(|r| r.state).collect()
    }

    /// Replicas currently [`HealthState::Stale`], in index order.
    pub fn stale_replicas(&self) -> Vec<u32> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.state == HealthState::Stale)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Replicas whose state can serve a failover promotion.
    pub fn serviceable(&self) -> u32 {
        self.replicas
            .iter()
            .filter(|r| r.state.serviceable())
            .count() as u32
    }

    /// Every transition fired so far, in firing order.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(replica: u32, lag: u64, backlog: u64) -> HealthObservation {
        HealthObservation {
            replica,
            ack_mark: 0,
            lag_epochs: lag,
            backlog_pages: backlog,
            retries: 0,
        }
    }

    /// Stale at 8 epochs of lag, so lagging at 2.
    const STALE_LAG: u64 = 8;

    #[test]
    fn quiet_replica_stays_healthy_with_no_transitions() {
        let mut t = HealthTracker::new(2, STALE_LAG);
        for epoch in 1..=20 {
            let fired = t.observe(epoch, epoch * 1_000, &[obs(0, 0, 0), obs(1, 0, 0)]);
            assert!(fired.is_empty());
        }
        assert_eq!(t.states(), vec![HealthState::Healthy; 2]);
        assert!(t.transitions().is_empty());
    }

    #[test]
    fn full_degradation_and_recovery_trajectory() {
        let mut t = HealthTracker::new(1, STALE_LAG);
        // Lag grows: healthy → lagging at 2 → stale at 8.
        t.observe(1, 1, &[obs(0, 1, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Healthy));
        t.observe(2, 2, &[obs(0, 2, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Lagging));
        t.observe(3, 3, &[obs(0, 8, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Stale));
        assert_eq!(t.stale_replicas(), vec![0]);
        assert_eq!(t.serviceable(), 0);
        // Lag shrinks below the threshold: recovering, not yet healthy.
        t.observe(4, 4, &[obs(0, 2, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Recovering));
        // One clean epoch is not enough (recover_epochs = 2)...
        t.observe(5, 5, &[obs(0, 0, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Recovering));
        // ...two are.
        t.observe(6, 6, &[obs(0, 0, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Healthy));
        let edges: Vec<(HealthState, HealthState)> =
            t.transitions().iter().map(|tr| (tr.from, tr.to)).collect();
        assert_eq!(
            edges,
            vec![
                (HealthState::Healthy, HealthState::Lagging),
                (HealthState::Lagging, HealthState::Stale),
                (HealthState::Stale, HealthState::Recovering),
                (HealthState::Recovering, HealthState::Healthy),
            ]
        );
    }

    #[test]
    fn lagging_clears_only_when_fully_caught_up() {
        let mut t = HealthTracker::new(1, STALE_LAG);
        t.observe(1, 1, &[obs(0, 2, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Lagging));
        // Lag below the lagging threshold but non-zero: hysteresis holds.
        t.observe(2, 2, &[obs(0, 1, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Lagging));
        t.observe(3, 3, &[obs(0, 0, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Healthy));
    }

    #[test]
    fn a_short_staleness_bound_still_marks_lag_one_lagging() {
        // 3 / 4 rounds to 0; the floor keeps lagging below stale.
        let mut t = HealthTracker::new(1, 3);
        t.observe(1, 1, &[obs(0, 1, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Lagging));
        t.observe(2, 2, &[obs(0, 3, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Stale));
    }

    #[test]
    fn backlog_alone_marks_a_replica_lagging() {
        let mut t = HealthTracker::new(1, STALE_LAG);
        t.observe(1, 1, &[obs(0, 0, 64)]);
        assert_eq!(t.state(0), Some(HealthState::Lagging));
        t.observe(2, 2, &[obs(0, 0, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Healthy));
    }

    #[test]
    fn relapse_during_recovery_goes_back_to_stale() {
        let mut t = HealthTracker::new(1, STALE_LAG);
        t.observe(1, 1, &[obs(0, 8, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Stale));
        t.observe(2, 2, &[obs(0, 1, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Recovering));
        t.observe(3, 3, &[obs(0, 9, 0)]);
        assert_eq!(t.state(0), Some(HealthState::Stale));
    }

    #[test]
    fn same_observations_replay_identically() {
        let feed: Vec<Vec<HealthObservation>> = (1..=30)
            .map(|e| vec![obs(0, e % 7, 0), obs(1, (e * 3) % 11, e % 2 * 10)])
            .collect();
        let mut a = HealthTracker::new(2, STALE_LAG);
        let mut b = HealthTracker::new(2, STALE_LAG);
        for (i, observations) in feed.iter().enumerate() {
            let epoch = i as u64 + 1;
            a.observe(epoch, epoch * 500, observations);
            b.observe(epoch, epoch * 500, observations);
        }
        assert_eq!(a.transitions(), b.transitions());
        assert_eq!(a.states(), b.states());
    }
}
