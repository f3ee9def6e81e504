//! Failure detection and replica activation.
//!
//! "In the current implementation of HERE, we rely on a periodic heartbeat
//! between the primary and replica hosts to ensure that the hypervisors are
//! functioning normally" (§8.2). The secondary declares the primary dead
//! after [`HEARTBEAT`](crate::config::HEARTBEAT)'s fixed number of
//! consecutive missed heartbeats (3 at a 10 ms period), then
//! activates the replica: load the last committed state, switch the device
//! models, and unpause — in the order of 10 ms on kvmtool (Fig. 7).

use serde::{Deserialize, Serialize};

use here_hypervisor::fault::HostHealth;
use here_sim_core::time::{SimDuration, SimTime};

use crate::config::HeartbeatConfig;

/// Starved hosts emit heartbeats erratically; detection takes this many
/// times longer than for a clean crash/hang.
pub const STARVATION_DETECTION_FACTOR: u64 = 10;

/// Computes when the secondary detects a primary failure that occurred at
/// `failed_at`, given the primary's post-failure health and the number of
/// heartbeats lost on the wire before the detector fires (the fault
/// plane's [`HeartbeatLoss`](crate::chaos::FaultKind::HeartbeatLoss)
/// events; 0 when none were).
///
/// Crashes and hangs silence the heartbeat immediately; the detector fires
/// after `missed_threshold + 1 + lost_heartbeats` periods. A starved
/// primary still emits *some* heartbeats, so the detector needs sustained
/// evidence and fires a factor [`STARVATION_DETECTION_FACTOR`] later.
///
/// The branch consumes the health predicates rather than re-matching the
/// enum: a host that cannot service at all
/// ([`HostHealth::can_service`]) is silent and detected at the base
/// budget; one that services but whose heartbeats are unreliable
/// ([`HostHealth::heartbeats_reliable`]) needs the sustained-evidence
/// factor; a healthy host is never "detected".
///
/// All arithmetic is checked: a detection instant past the representable
/// range saturates to [`SimTime::MAX`] instead of overflowing.
pub fn detection_time(
    hb: &HeartbeatConfig,
    failed_at: SimTime,
    post_health: HostHealth,
    lost_heartbeats: u32,
) -> SimTime {
    if post_health.heartbeats_reliable() {
        // Reliable heartbeats keep arriving: a healthy primary is never
        // declared dead.
        return SimTime::MAX;
    }
    let factor = if post_health.can_service() {
        // The host still runs (starvation): heartbeats trickle in
        // erratically, so the detector needs sustained evidence.
        STARVATION_DETECTION_FACTOR
    } else {
        1
    };
    let periods = (hb.missed_threshold as u64 + 1).saturating_add(lost_heartbeats as u64);
    hb.period
        .as_nanos()
        .checked_mul(periods)
        .and_then(|n| n.checked_mul(factor))
        .and_then(|n| failed_at.checked_add(SimDuration::from_nanos(n)))
        .unwrap_or(SimTime::MAX)
}

/// One committed epoch: its sequence number and the (report-relative)
/// commit instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitEntry {
    /// The committed checkpoint's sequence number.
    pub seq: u64,
    /// When the ack landed and buffered output was released.
    pub at: SimTime,
}

/// One replica's ack trail, oldest first — every epoch it reported fully
/// applied, with the (report-relative) arrival instant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaAcks {
    /// 0-based replica index within the session's replica set.
    pub replica: u32,
    /// The acks this replica delivered, oldest first.
    pub acks: Vec<CommitEntry>,
}

/// Proof that an epoch committed at quorum: the only thing that releases
/// buffered output, moves the v3 delta base and counts operations as
/// committed (the session's `on_commit` spends it, handing it on to
/// [`DeviceManager::release`](crate::devmgr::DeviceManager::release)).
///
/// Only [`CommitLedger::ack`] mints one, when the quorum-th ack of an
/// epoch lands, so holding a `Commit` means the epoch is recoverable. It
/// cannot be built or duplicated anywhere else:
///
/// ```compile_fail,E0451
/// use here_core::failover::Commit;
/// use here_sim_core::time::SimTime;
///
/// let forged = Commit { seq: 1, at: SimTime::ZERO };
/// ```
///
/// ```compile_fail,E0599
/// use here_core::failover::Commit;
///
/// fn twice(commit: Commit) -> (Commit, Commit) {
///     (commit.clone(), commit)
/// }
/// ```
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a commit releases output only when it is spent"]
pub struct Commit {
    seq: u64,
    at: SimTime,
}

impl Commit {
    /// The committed epoch: output emitted in it, or before, may leave.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The (report-relative) instant the quorum-th ack landed.
    pub fn at(&self) -> SimTime {
        self.at
    }
}

/// The failover decision: which replica takes over, and the committed
/// epoch its state resumes from.
///
/// Only [`CommitLedger::activate`] mints one, once per ledger, so two
/// replicas can never both take over the service.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "an activation takes effect only when a replica set spends it"]
pub(crate) struct Activation {
    replica: u32,
    resumed_from: u64,
}

impl Activation {
    /// Index of the replica to activate.
    pub(crate) fn replica(&self) -> u32 {
        self.replica
    }

    /// The last quorum-committed epoch (0 if none committed).
    pub(crate) fn resumed_from(&self) -> u64 {
        self.resumed_from
    }
}

/// The authoritative record of quorum-committed epochs, and the one place
/// commit and activation are decided.
///
/// An epoch enters the ledger only at *Ack* — after a replica decoded,
/// validated and installed the whole checkpoint and the ack crossed the
/// replication link. With an N-replica topology the ledger keeps each
/// replica's ack trail and commits an epoch once the configured quorum of
/// replicas has acked it (the commit watermark is the quorum-th highest
/// per-replica ack), minting the [`Commit`] that releases its output.
/// Failover takes its one-shot activation from the ledger too, so the
/// activated replica provably resumes from the last quorum-committed
/// epoch: aborted or in-flight epochs can never leak into a
/// [`FailoverRecord`].
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct CommitLedger {
    entries: Vec<CommitEntry>,
    quorum: u32,
    trails: Vec<Vec<CommitEntry>>,
    activated: Option<u32>,
}

impl Default for CommitLedger {
    fn default() -> Self {
        CommitLedger::new()
    }
}

impl CommitLedger {
    /// An empty single-replica ledger (`N = 1`, quorum 1) — the paper's
    /// 1→1 pair, where every ack is immediately a commit.
    pub fn new() -> Self {
        CommitLedger::with_quorum(1, 1)
    }

    /// An empty ledger for `replicas` replicas committing at `quorum`
    /// acks (clamped to `[1, replicas]`).
    pub fn with_quorum(replicas: u32, quorum: u32) -> Self {
        assert!(replicas >= 1, "a ledger needs at least one replica");
        CommitLedger {
            entries: Vec::new(),
            quorum: quorum.clamp(1, replicas),
            trails: vec![Vec::new(); replicas as usize],
            activated: None,
        }
    }

    /// Number of replicas this ledger tracks.
    pub fn replicas(&self) -> u32 {
        self.trails.len() as u32
    }

    /// Acks required before an epoch commits.
    pub fn quorum(&self) -> u32 {
        self.quorum
    }

    /// The highest epoch `replica` has acked: the last entry of its trail.
    fn mark(&self, replica: u32) -> Option<u64> {
        self.trails[replica as usize].last().map(|e| e.seq)
    }

    /// Records replica `replica`'s ack of epoch `seq` at instant `at` and
    /// returns the [`Commit`] when that ack pushed an epoch over the
    /// commit quorum.
    ///
    /// Acks are per-replica high-water marks: a catch-up ack of epoch 7
    /// from a replica last seen at epoch 3 implicitly covers 4–6, and a
    /// stale or duplicate ack (`seq` at or below the replica's mark) is
    /// ignored. The committed epoch is the quorum-th highest mark across
    /// all replicas, so commits skip epochs superseded while a straggler
    /// caught up — keeping the commit sequence strictly monotone, and
    /// each epoch's `Commit` minted at most once.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range, or if a commit's instant
    /// precedes the previous commit's.
    pub fn ack(&mut self, replica: u32, seq: u64, at: SimTime) -> Option<Commit> {
        assert!(
            replica < self.replicas(),
            "ack from replica {replica} but the ledger tracks {}",
            self.replicas()
        );
        if self.mark(replica).is_some_and(|prev| prev >= seq) {
            return None;
        }
        self.trails[replica as usize].push(CommitEntry { seq, at });
        let mut acked: Vec<u64> = (0..self.replicas()).filter_map(|r| self.mark(r)).collect();
        if (acked.len() as u32) < self.quorum {
            return None;
        }
        acked.sort_unstable_by(|a, b| b.cmp(a));
        let watermark = acked[self.quorum as usize - 1];
        if let Some(last) = self.entries.last() {
            if watermark <= last.seq {
                return None;
            }
            assert!(
                at >= last.at,
                "commit instants must be non-decreasing: {at} after {}",
                last.at
            );
        }
        self.entries.push(CommitEntry { seq: watermark, at });
        Some(Commit { seq: watermark, at })
    }

    /// Epochs `replica` trails the just-committed sequence `seq` by — the
    /// staleness scan's and the health plane's ack-lag signal. A replica
    /// that never acked trails by the full `seq`.
    pub fn lag_of(&self, replica: u32, seq: u64) -> u64 {
        seq.saturating_sub(self.mark(replica).unwrap_or(0))
    }

    /// The replica holding the most recent applied state: the highest
    /// per-replica ack mark, ties broken toward the lowest index. This is
    /// the failover candidate — its state is at least as fresh as the
    /// last committed epoch, because the commit watermark never exceeds
    /// the maximum ack mark.
    pub fn best_replica(&self) -> u32 {
        let mut best = 0u32;
        for replica in 1..self.replicas() {
            if self.mark(replica) > self.mark(best) {
                best = replica;
            }
        }
        best
    }

    /// Decides the failover: the [`best_replica`](Self::best_replica)
    /// resumes from the last committed epoch.
    ///
    /// # Panics
    ///
    /// Panics on a second call — the no-split-brain invariant: at most
    /// one replica ever takes over the service.
    pub(crate) fn activate(&mut self) -> Activation {
        let replica = self.best_replica();
        if let Some(active) = self.activated {
            panic!("split-brain: replica {replica} activating but replica {active} already active");
        }
        self.activated = Some(replica);
        Activation {
            replica,
            resumed_from: self.last_committed().unwrap_or(0),
        }
    }

    /// Every replica's ack trail, indexed by replica.
    pub fn ack_trails(&self) -> &[Vec<CommitEntry>] {
        &self.trails
    }

    /// The last fully-acked epoch's sequence number, if any epoch
    /// committed.
    pub fn last_committed(&self) -> Option<u64> {
        self.entries.last().map(|e| e.seq)
    }

    /// The committed epochs, oldest first.
    pub fn entries(&self) -> &[CommitEntry] {
        &self.entries
    }

    /// Consumes the ledger into its commit entries and the per-replica
    /// ack trails.
    pub fn into_parts(self) -> (Vec<CommitEntry>, Vec<ReplicaAcks>) {
        let trails = self
            .trails
            .into_iter()
            .enumerate()
            .map(|(i, acks)| ReplicaAcks {
                replica: i as u32,
                acks,
            })
            .collect();
        (self.entries, trails)
    }
}

/// What happened when a failover ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailoverRecord {
    /// When the failure hit the primary.
    pub failed_at: SimTime,
    /// When the secondary's detector fired.
    pub detected_at: SimTime,
    /// When the replica resumed service.
    pub resumed_at: SimTime,
    /// The sequence number of the last committed checkpoint the replica
    /// resumed from.
    pub resumed_from_checkpoint: u64,
    /// Index of the replica that activated — the one holding the most
    /// recent committed state at detection time.
    pub activated_replica: u32,
    /// Output packets discarded with the rolled-back execution.
    pub packets_lost: usize,
    /// Application operations rolled back (done since the last commit).
    pub ops_lost: f64,
    /// Devices switched to the secondary's models.
    pub devices_switched: usize,
}

impl FailoverRecord {
    /// The replica resumption time the paper's Fig. 7 measures: "the period
    /// from when the secondary host is aware of a primary failure to when
    /// the replica VM resumes operation".
    pub fn resumption_time(&self) -> SimDuration {
        self.resumed_at.saturating_duration_since(self.detected_at)
    }

    /// Total service interruption as clients observe it.
    pub fn outage(&self) -> SimDuration {
        self.resumed_at.saturating_duration_since(self.failed_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HEARTBEAT;

    #[test]
    fn crash_detection_uses_heartbeat_budget() {
        let hb = HEARTBEAT; // 10 ms × (3 + 1)
        let t = detection_time(&hb, SimTime::from_secs(5), HostHealth::Crashed, 0);
        assert_eq!(t, SimTime::from_secs(5) + SimDuration::from_millis(40));
        let h = detection_time(&hb, SimTime::from_secs(5), HostHealth::Hung, 0);
        assert_eq!(h, t, "hangs are indistinguishable from crashes");
    }

    #[test]
    fn starvation_detection_is_slower() {
        let hb = HEARTBEAT;
        let crash = detection_time(&hb, SimTime::ZERO, HostHealth::Crashed, 0);
        let starve = detection_time(&hb, SimTime::ZERO, HostHealth::Starved, 0);
        assert!(starve.as_nanos() == crash.as_nanos() * STARVATION_DETECTION_FACTOR);
    }

    #[test]
    fn healthy_primary_is_never_declared_dead() {
        let hb = HEARTBEAT;
        assert_eq!(
            detection_time(&hb, SimTime::ZERO, HostHealth::Healthy, 0),
            SimTime::MAX
        );
    }

    #[test]
    fn detection_saturates_instead_of_overflowing() {
        // A MAX heartbeat period would overflow `base × factor` with
        // unchecked arithmetic; it must saturate for every failed health.
        let hb = HeartbeatConfig {
            period: SimDuration::MAX,
            missed_threshold: 3,
        };
        for health in [HostHealth::Crashed, HostHealth::Hung, HostHealth::Starved] {
            assert_eq!(detection_time(&hb, SimTime::ZERO, health, 0), SimTime::MAX);
        }
        // A failure instant near the end of representable time saturates
        // on the add.
        let hb = HEARTBEAT;
        let late = SimTime::MAX;
        assert_eq!(
            detection_time(&hb, late, HostHealth::Crashed, 0),
            SimTime::MAX
        );
        assert_eq!(
            detection_time(&hb, late, HostHealth::Starved, 0),
            SimTime::MAX
        );
        // And a run-of-the-mill configuration is unchanged by the checks.
        assert_eq!(
            detection_time(&hb, SimTime::from_secs(1), HostHealth::Crashed, 0),
            SimTime::from_secs(1) + SimDuration::from_millis(40)
        );
    }

    #[test]
    fn lost_heartbeats_delay_detection_per_period() {
        let hb = HEARTBEAT; // 10 ms period, 40 ms budget
        let base = detection_time(&hb, SimTime::ZERO, HostHealth::Crashed, 0);
        let delayed = detection_time(&hb, SimTime::ZERO, HostHealth::Crashed, 2);
        assert_eq!(
            delayed.saturating_duration_since(base),
            SimDuration::from_millis(20)
        );
        // Starvation multiplies the whole (budget + loss) window.
        let starved = detection_time(&hb, SimTime::ZERO, HostHealth::Starved, 2);
        assert_eq!(
            starved.as_nanos(),
            delayed.as_nanos() * STARVATION_DETECTION_FACTOR
        );
        // u32::MAX lost heartbeats saturates.
        assert_eq!(
            detection_time(&hb, SimTime::ZERO, HostHealth::Starved, u32::MAX),
            SimTime::ZERO
                + SimDuration::from_nanos(
                    hb.period.as_nanos() * (u32::MAX as u64 + 4) * STARVATION_DETECTION_FACTOR
                )
        );
    }

    #[test]
    fn ledger_records_monotone_commits() {
        let mut ledger = CommitLedger::new();
        assert!(ledger.entries().is_empty());
        assert_eq!(ledger.last_committed(), None);
        let first = ledger.ack(0, 1, SimTime::from_secs(1)).expect("quorum 1");
        assert_eq!((first.seq(), first.at()), (1, SimTime::from_secs(1)));
        assert!(ledger.ack(0, 2, SimTime::from_secs(3)).is_some());
        // An aborted epoch 3 is never acked, so it never commits.
        assert!(ledger.ack(0, 4, SimTime::from_secs(4)).is_some());
        assert_eq!(ledger.last_committed(), Some(4));
        let seqs: Vec<u64> = ledger.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2, 4]);
        assert_eq!(ledger.entries()[2].at, SimTime::from_secs(4));
    }

    #[test]
    fn quorum_ledger_commits_at_the_quorum_th_ack() {
        let mut ledger = CommitLedger::with_quorum(3, 2);
        assert_eq!(ledger.ack(0, 1, SimTime::from_secs(1)), None);
        assert_eq!(ledger.last_committed(), None);
        let commit = ledger.ack(2, 1, SimTime::from_secs(2)).expect("quorum");
        assert_eq!((commit.seq(), commit.at()), (1, SimTime::from_secs(2)));
        assert_eq!(ledger.last_committed(), Some(1));
        // The third ack arrives late and commits nothing new.
        assert_eq!(ledger.ack(1, 1, SimTime::from_secs(3)), None);
        assert_eq!(ledger.entries().len(), 1);
        assert_eq!(ledger.lag_of(1, 1), 0);
        assert_eq!(
            ledger.ack_trails()[2],
            vec![CommitEntry {
                seq: 1,
                at: SimTime::from_secs(2)
            }]
        );
    }

    #[test]
    fn catch_up_acks_skip_superseded_epochs() {
        // Replicas 0 and 1 march to epoch 3; replica 2 lags at nothing,
        // then catches up straight to 3 — epochs 1–2 are superseded and
        // never enter the commit sequence twice.
        let mut ledger = CommitLedger::with_quorum(3, 3);
        for seq in 1..=3 {
            assert_eq!(ledger.ack(0, seq, SimTime::from_secs(seq)), None);
            assert_eq!(ledger.ack(1, seq, SimTime::from_secs(seq)), None);
        }
        assert_eq!(ledger.last_committed(), None);
        let commit = ledger.ack(2, 3, SimTime::from_secs(9)).expect("quorum");
        assert_eq!(commit.seq(), 3);
        assert_eq!(ledger.last_committed(), Some(3));
        assert_eq!(
            ledger.entries().len(),
            1,
            "superseded epochs commit at most once"
        );
    }

    #[test]
    fn duplicate_and_stale_acks_are_ignored() {
        let mut ledger = CommitLedger::with_quorum(2, 2);
        assert_eq!(ledger.ack(0, 5, SimTime::from_secs(1)), None);
        assert_eq!(ledger.ack(0, 5, SimTime::from_secs(2)), None);
        assert_eq!(ledger.ack(0, 3, SimTime::from_secs(3)), None);
        assert_eq!(ledger.ack_trails()[0].len(), 1);
        assert!(ledger.ack(1, 5, SimTime::from_secs(4)).is_some());
        assert_eq!(ledger.last_committed(), Some(5));
    }

    #[test]
    fn best_replica_prefers_freshest_then_lowest_index() {
        let mut ledger = CommitLedger::with_quorum(3, 1);
        assert_eq!(ledger.best_replica(), 0, "no acks yet: lowest index");
        let _ = ledger.ack(1, 2, SimTime::from_secs(1));
        assert_eq!(ledger.best_replica(), 1);
        let _ = ledger.ack(2, 2, SimTime::from_secs(2));
        assert_eq!(ledger.best_replica(), 1, "tie breaks to the lowest");
        let _ = ledger.ack(2, 4, SimTime::from_secs(3));
        assert_eq!(ledger.best_replica(), 2);
        // The best replica is never behind the commit watermark, and it
        // is the one activation picks.
        let activation = ledger.activate();
        assert_eq!(activation.replica(), 2);
        assert_eq!(activation.resumed_from(), 4);
        assert_eq!(ledger.lag_of(2, 4), 0);
    }

    #[test]
    fn into_parts_returns_trails_by_replica() {
        let mut ledger = CommitLedger::with_quorum(2, 1);
        let _ = ledger.ack(1, 1, SimTime::from_secs(1));
        let _ = ledger.ack(0, 1, SimTime::from_secs(2));
        let (entries, trails) = ledger.into_parts();
        assert_eq!(entries.len(), 1);
        assert_eq!(trails.len(), 2);
        assert_eq!(trails[0].replica, 0);
        assert_eq!(trails[1].replica, 1);
        assert_eq!(trails[1].acks[0].at, SimTime::from_secs(1));
    }

    #[test]
    fn replayed_acks_mint_no_second_commit() {
        // A replayed ack — from the same replica or, once the epoch
        // committed, from another — mints no second `Commit`.
        let mut ledger = CommitLedger::with_quorum(2, 1);
        assert!(ledger.ack(0, 5, SimTime::from_secs(1)).is_some());
        assert_eq!(ledger.ack(0, 5, SimTime::from_secs(2)), None);
        assert_eq!(ledger.ack(1, 5, SimTime::from_secs(2)), None);
        assert_eq!(ledger.entries().len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn a_commit_before_the_previous_one_is_an_engine_bug() {
        let mut ledger = CommitLedger::new();
        let _ = ledger.ack(0, 1, SimTime::from_secs(5));
        let _ = ledger.ack(0, 2, SimTime::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "split-brain")]
    fn double_activation_is_a_split_brain_panic() {
        let mut ledger = CommitLedger::with_quorum(2, 2);
        let first = ledger.activate();
        // Nothing committed: replica 0 resumes from the seed.
        assert_eq!((first.replica(), first.resumed_from()), (0, 0));
        let _second = ledger.activate();
    }

    #[test]
    fn record_durations() {
        let rec = FailoverRecord {
            failed_at: SimTime::from_secs(10),
            detected_at: SimTime::from_secs(10) + SimDuration::from_millis(40),
            resumed_at: SimTime::from_secs(10) + SimDuration::from_millis(49),
            resumed_from_checkpoint: 7,
            activated_replica: 0,
            packets_lost: 3,
            ops_lost: 120.0,
            devices_switched: 3,
        };
        assert_eq!(rec.resumption_time(), SimDuration::from_millis(9));
        assert_eq!(rec.outage(), SimDuration::from_millis(49));
    }
}
