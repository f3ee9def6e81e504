//! Deterministic fault-injection plane.
//!
//! The paper's premise is surviving hypervisor failure (§8.2), so the
//! replication loop must be exercised well off the happy path. A
//! [`FaultPlan`] is a *seeded schedule* of injectable events — link flaps
//! on the replication path, per-attempt drop/corruption/delay of the
//! checkpoint transfer, replica-side decode refusals, heartbeat loss, and
//! mid-epoch primary crash/hang/starvation at a chosen pipeline stage.
//! Everything nondeterministic (which byte a corruption flips) is driven
//! by a dedicated [`SimRng`] fork, so the same seed replays
//! byte-identically and a failing chaos run is a one-line reproducer.
//!
//! An event is keyed by epoch or by virtual time ([`FaultTrigger`]). A
//! time-keyed event strikes the primary while its guest runs, at the
//! instant a scenario's failure names: an accident
//! ([`FaultKind::PrimaryFault`]) or a DoS CVE from the corpus launched at
//! it ([`FaultKind::Exploit`]), which downs the host only when its
//! deployment holds the vulnerable component and may be launched again
//! at the replica that takes over (§6: a heterogeneous pair makes the
//! attacker find a second exploit).
//! [`ScenarioBuilder::failure`](crate::engine::ScenarioBuilder::failure)
//! lowers its [`FailurePlan`](crate::engine::FailurePlan) into one such
//! event, so a bundle carries it like any other. Time-keyed firings count
//! nothing in [`ChaosStats`], and a plan holding only time-keyed events
//! reports no stats at all, as a run without a plane.
//!
//! The plane is *fully inert* when no plan is configured: the session
//! holds `None`, every injection hook is a `None` fast-path, and the chaos
//! RNG is a separate label fork that cannot perturb the workload stream —
//! fig5/fig8/fig9 outputs are byte-identical with the plane compiled in.
//!
//! Consumers are hardened rather than special-cased: corrupted frames are
//! rejected by the wire checksums already in the decoder, the transfer
//! stage retries with exponential backoff under
//! [`RETRY`](crate::config::RETRY), and an exhausted retry
//! budget aborts the epoch — the partially transferred checkpoint is
//! discarded, its pages are re-marked dirty on the primary, and the
//! previous committed epoch stays authoritative (see
//! [`CommitLedger`](crate::failover::CommitLedger)).

use serde::{Deserialize, Serialize};

use here_hypervisor::fault::DosOutcome;
use here_sim_core::rng::SimRng;
use here_sim_core::time::SimDuration;
use here_vmstate::wire::ScatterStream;
use here_vulndb::dataset::nvd_corpus;

use crate::trace::Stage;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The replication link is down for the first `attempts_down`
    /// transfer attempts of the epoch: each fails as `link_down` and is
    /// retried like any other failed attempt.
    LinkFlap {
        /// Transfer attempts that see the link down.
        attempts_down: u32,
    },
    /// The first `attempts` transfer attempts are dropped in flight: the
    /// replica never sees them and the sender times out.
    Drop {
        /// Transfer attempts that are lost.
        attempts: u32,
    },
    /// A byte of the checkpoint stream is flipped on the wire for the
    /// first `attempts` transfer attempts; the replica's frame checksums
    /// must reject the stream.
    Corrupt {
        /// Transfer attempts that arrive corrupted.
        attempts: u32,
    },
    /// The first transfer attempt is delayed by `by` but delivered intact.
    Delay {
        /// Added wire latency.
        by: SimDuration,
    },
    /// The replica refuses to decode the first `attempts` transfer
    /// attempts (resource exhaustion on the receive side).
    DecodeFail {
        /// Transfer attempts the replica refuses.
        attempts: u32,
    },
    /// The primary host fails with `outcome` when the epoch reaches
    /// `stage` (before the stage's work runs).
    PrimaryFault {
        /// How the primary manifests the failure.
        outcome: DosOutcome,
        /// The pipeline stage at whose entry the fault fires.
        stage: Stage,
    },
    /// Heartbeats are lost around the failure: failover detection takes
    /// `extra_periods` additional heartbeat periods.
    HeartbeatLoss {
        /// Extra heartbeat periods before the detector fires.
        extra_periods: u32,
    },
    /// The DoS CVE `nvd_corpus()[cve]` is launched at the primary
    /// ([`Exploit::launch`](here_vulndb::exploit::Exploit::launch)); the
    /// host goes down only when its deployment holds the vulnerable
    /// component. Time-keyed only.
    Exploit {
        /// Index of the CVE in `nvd_corpus()`.
        cve: usize,
        /// After a failover, launch the same exploit at the activated
        /// replica too.
        reattack: bool,
    },
}

/// When a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTrigger {
    /// While the epoch with this sequence number runs: a transfer kind
    /// hits its transfer attempts, a [`FaultKind::PrimaryFault`] the entry
    /// of its stage. Heartbeat loss applies whatever the epoch.
    Epoch(u64),
    /// This much virtual time after measurement starts: the primary is
    /// struck while its guest runs, before the Pause of the epoch the
    /// instant falls in, or, when it fell inside a checkpoint's pause, as
    /// soon as that checkpoint resumes. Only an [`FaultKind::Exploit`] or a
    /// [`FaultKind::PrimaryFault`] naming [`Stage::Pause`] (the stage it
    /// lands before) can be time-keyed.
    At(SimDuration),
}

/// A scheduled fault: `kind` fires when `trigger` says, against the link
/// of replica `replica`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// 0-based index of the replica whose link the fault hits. Transfer
    /// faults only touch that replica's attempts; host-level kinds
    /// (primary faults, exploits, heartbeat loss) ignore the field. Plans
    /// written before topologies existed target replica 0 and replay
    /// byte-identically.
    pub replica: u32,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Refuses an event that can never fire: a time trigger on a kind
    /// other than a primary fault at the Pause stage or an exploit, an
    /// exploit keyed by epoch, or an exploit whose CVE index is past the
    /// corpus.
    pub(crate) fn check(&self) -> Result<(), String> {
        let timed = matches!(self.trigger, FaultTrigger::At(_));
        match self.kind {
            FaultKind::Exploit { cve, .. } if cve >= nvd_corpus().len() => {
                Err(format!("exploit {cve} is not in the CVE corpus"))
            }
            FaultKind::Exploit { .. } if !timed => {
                Err("an exploit fires at a time, not at an epoch".into())
            }
            FaultKind::Exploit { .. } => Ok(()),
            FaultKind::PrimaryFault {
                stage: Stage::Pause,
                ..
            } => Ok(()),
            kind if timed => Err(format!("{kind:?} cannot fire at a time")),
            _ => Ok(()),
        }
    }
}

/// A seeded, replayable schedule of fault injections.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the plan's dedicated RNG (corruption offsets etc.). Two
    /// runs of the same scenario with the same plan replay byte-identically.
    pub seed: u64,
    pub(crate) events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one scheduled fault against replica 0 — the only replica a
    /// 1→1 session has, and the default target for plans that predate
    /// topologies.
    pub fn with_event(self, epoch: u64, kind: FaultKind) -> Self {
        self.with_event_on(epoch, 0, kind)
    }

    /// Adds one scheduled fault against a specific replica's link.
    pub fn with_event_on(self, epoch: u64, replica: u32, kind: FaultKind) -> Self {
        self.push(FaultTrigger::Epoch(epoch), replica, kind)
    }

    /// Adds one primary fault struck `at` after measurement starts (see
    /// [`FaultTrigger::At`]).
    pub fn with_event_at(self, at: SimDuration, kind: FaultKind) -> Self {
        self.push(FaultTrigger::At(at), 0, kind)
    }

    fn push(mut self, trigger: FaultTrigger, replica: u32, kind: FaultKind) -> Self {
        self.events.push(FaultEvent {
            trigger,
            replica,
            kind,
        });
        self
    }

    /// Partitions a set of replicas at `epoch`: each listed replica's
    /// link goes down for its first `attempts_down` transfer attempts.
    /// Partitioning `N − quorum + 1` replicas for the whole retry budget
    /// starves the quorum and forces the epoch to abort.
    pub fn with_partition(mut self, epoch: u64, replicas: &[u32], attempts_down: u32) -> Self {
        for &replica in replicas {
            self = self.with_event_on(epoch, replica, FaultKind::LinkFlap { attempts_down });
        }
        self
    }

    /// Partitions a set of replicas for every epoch in `epochs`: the
    /// sustained-outage shape the health plane's staleness alerts are
    /// tuned for. With `attempts_down` at or past the retry budget the
    /// listed replicas miss each epoch in the span, their backlogs and
    /// epoch lag grow, and — provided enough replicas stay connected for
    /// quorum — the run keeps committing while the health tracker walks
    /// them `Healthy → Lagging → Stale`.
    pub fn with_partition_span(
        mut self,
        epochs: core::ops::RangeInclusive<u64>,
        replicas: &[u32],
        attempts_down: u32,
    ) -> Self {
        for epoch in epochs {
            self = self.with_partition(epoch, replicas, attempts_down);
        }
        self
    }

    /// The scheduled faults.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Generates a random plan over the first `epochs` checkpoints,
    /// deterministically from `seed` — the property-test entry point: a
    /// plan is fully described by `(seed, epochs)`.
    ///
    /// Roughly a third of the epochs get a fault; a primary fault (which
    /// ends the run in a failover) is rare and terminates the schedule.
    pub fn generate(seed: u64, epochs: u64) -> Self {
        let mut rng = SimRng::seed_from(seed).fork("faultplan");
        let mut plan = FaultPlan::new(seed);
        for epoch in 1..=epochs {
            if !rng.chance(0.35) {
                continue;
            }
            let kind = match rng.below(16) {
                0..=2 => FaultKind::LinkFlap {
                    attempts_down: 1 + rng.below(2) as u32,
                },
                3..=5 => FaultKind::Drop {
                    // Up to 5 lost attempts: sometimes past the default
                    // retry budget, so abort paths get exercised too.
                    attempts: 1 + rng.below(5) as u32,
                },
                6..=8 => FaultKind::Corrupt {
                    attempts: 1 + rng.below(2) as u32,
                },
                9..=10 => FaultKind::Delay {
                    by: SimDuration::from_millis(1 + rng.below(20)),
                },
                11..=12 => FaultKind::DecodeFail {
                    attempts: 1 + rng.below(2) as u32,
                },
                13..=14 => FaultKind::HeartbeatLoss {
                    extra_periods: 1 + rng.below(4) as u32,
                },
                _ => {
                    let outcome = DosOutcome::ALL[rng.below(3) as usize];
                    let stage = [
                        Stage::Pause,
                        Stage::Harvest,
                        Stage::Translate,
                        Stage::Transfer,
                    ][rng.below(4) as usize];
                    // Nothing after a primary fault can run.
                    return plan.with_event(epoch, FaultKind::PrimaryFault { outcome, stage });
                }
            };
            plan = plan.with_event(epoch, kind);
        }
        plan
    }
}

/// What chaos did to one transfer attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFault {
    /// The replication link is down for this attempt.
    LinkDown,
    /// The attempt was lost in flight.
    Dropped,
    /// The attempt arrives with one byte flipped; the salts pick which.
    Corrupted {
        /// Selects the corrupted segment (modulo the segment count).
        segment_salt: u64,
        /// Selects the corrupted byte (modulo the segment length).
        byte_salt: u64,
    },
    /// The attempt is delivered intact but late.
    Delayed(SimDuration),
    /// The replica refused to decode the attempt.
    DecodeRefused,
}

impl TransferFault {
    /// Stable label for telemetry and flight-recorder events.
    pub fn reason(&self) -> &'static str {
        match self {
            TransferFault::LinkDown => "link_down",
            TransferFault::Dropped => "dropped",
            TransferFault::Corrupted { .. } => "corrupt_frame",
            TransferFault::Delayed(_) => "delayed",
            TransferFault::DecodeRefused => "decode_refused",
        }
    }
}

/// Counters the fault plane accumulates over a run; surfaced as
/// [`RunReport::chaos`](crate::report::RunReport::chaos).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosStats {
    /// Faults the plan actually injected (scheduled events may not fire if
    /// the run ends first).
    pub faults_injected: u64,
    /// Transfer attempts that failed and were retried.
    pub transfer_retries: u64,
    /// Transfers that succeeded after at least one failed attempt.
    pub transfer_recoveries: u64,
    /// Epochs aborted after exhausting the transfer retry budget.
    pub epochs_aborted: u64,
}

/// Live state of the fault plane inside a session: the plan, its
/// dedicated RNG fork, the run counters and the time-keyed events still
/// to strike.
#[derive(Debug, Clone)]
pub(crate) struct ChaosState {
    plan: FaultPlan,
    rng: SimRng,
    pub(crate) stats: ChaosStats,
    /// The time-keyed events not yet struck, in plan order.
    timed: Vec<(SimDuration, FaultKind)>,
}

impl ChaosState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = SimRng::seed_from(plan.seed).fork("chaos");
        let timed = plan
            .events
            .iter()
            .filter_map(|e| match e.trigger {
                FaultTrigger::At(at) => Some((at, e.kind)),
                FaultTrigger::Epoch(_) => None,
            })
            .collect();
        ChaosState {
            plan,
            rng,
            stats: ChaosStats::default(),
            timed,
        }
    }

    /// Takes the earliest time-keyed event not yet struck (the first in
    /// plan order among equal instants) if it falls before `before`, both
    /// measured from the start of measurement. Striking it counts nothing
    /// in the stats.
    pub(crate) fn take_timed(&mut self, before: SimDuration) -> Option<(SimDuration, FaultKind)> {
        let (next, &(at, _)) = self.timed.iter().enumerate().min_by_key(|(_, e)| e.0)?;
        (at < before).then(|| self.timed.remove(next))
    }

    /// The run's counters, or `None` when every event of the plan is
    /// time-keyed: such a plan is a scenario failure, and reports as a
    /// run without a fault plane.
    pub(crate) fn into_stats(self) -> Option<ChaosStats> {
        let events = &self.plan.events;
        let epoch_keyed = |e: &FaultEvent| matches!(e.trigger, FaultTrigger::Epoch(_));
        (events.is_empty() || events.iter().any(epoch_keyed)).then_some(self.stats)
    }

    /// The fault (if any) the plan injects into transfer attempt
    /// `attempt` (0-based) of epoch `epoch` toward replica `replica`.
    /// The first matching scheduled event wins; each injection counts
    /// toward the stats.
    pub(crate) fn transfer_fault(
        &mut self,
        epoch: u64,
        replica: u32,
        attempt: u32,
    ) -> Option<TransferFault> {
        let fault = self.scheduled_transfer_fault(epoch, replica, attempt)?;
        self.stats.faults_injected += 1;
        // Salt corruption from the chaos RNG *after* the match so the RNG
        // is consumed only when a corruption actually fires.
        Some(match fault {
            TransferFault::Corrupted { .. } => TransferFault::Corrupted {
                segment_salt: self.rng.next_u64(),
                byte_salt: self.rng.next_u64(),
            },
            other => other,
        })
    }

    /// Whether the plan delivers transfer attempt 0 of epoch `epoch` to
    /// replica `replica` intact — no fault, or only a delay. A pure query:
    /// it draws no RNG, counts no stat and says nothing, so the Transfer
    /// stage may ask it before its attempt loop decides anything.
    pub(crate) fn delivers_first_attempt(&self, epoch: u64, replica: u32) -> bool {
        matches!(
            self.scheduled_transfer_fault(epoch, replica, 0),
            None | Some(TransferFault::Delayed(_))
        )
    }

    /// The plan's events keyed to epoch `epoch`, in plan order.
    fn at_epoch(&self, epoch: u64) -> impl Iterator<Item = &FaultEvent> {
        let key = FaultTrigger::Epoch(epoch);
        self.plan.events.iter().filter(move |e| e.trigger == key)
    }

    /// The fault the plan schedules for a transfer attempt, its salts not
    /// yet drawn: the first matching event wins.
    fn scheduled_transfer_fault(
        &self,
        epoch: u64,
        replica: u32,
        attempt: u32,
    ) -> Option<TransferFault> {
        self.at_epoch(epoch)
            .filter(|e| e.replica == replica)
            .find_map(|e| match e.kind {
                FaultKind::LinkFlap { attempts_down } if attempt < attempts_down => {
                    Some(TransferFault::LinkDown)
                }
                FaultKind::Drop { attempts } if attempt < attempts => Some(TransferFault::Dropped),
                FaultKind::Corrupt { attempts } if attempt < attempts => {
                    Some(TransferFault::Corrupted {
                        segment_salt: 0,
                        byte_salt: 0,
                    })
                }
                FaultKind::Delay { by } if attempt == 0 => Some(TransferFault::Delayed(by)),
                FaultKind::DecodeFail { attempts } if attempt < attempts => {
                    Some(TransferFault::DecodeRefused)
                }
                _ => None,
            })
    }

    /// The primary-host fault (if any) scheduled at the entry of `stage`
    /// of epoch `epoch`.
    pub(crate) fn primary_fault(&mut self, epoch: u64, stage: Stage) -> Option<DosOutcome> {
        let outcome = self.at_epoch(epoch).find_map(|e| match e.kind {
            FaultKind::PrimaryFault { outcome, stage: s } if s == stage => Some(outcome),
            _ => None,
        })?;
        self.stats.faults_injected += 1;
        Some(outcome)
    }

    /// Extra heartbeat periods failover detection loses to scheduled
    /// heartbeat loss (the worst scheduled loss applies — heartbeats are
    /// a control-plane stream, not an epoch-local one).
    pub(crate) fn heartbeat_loss_periods(&self) -> u32 {
        self.plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::HeartbeatLoss { extra_periods } => Some(extra_periods),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// Returns a copy of `stream` with one byte flipped, selected by the two
/// salts — the on-the-wire corruption the replica's frame checksums must
/// reject. Empty streams come back unchanged.
pub(crate) fn corrupt_stream(
    stream: &ScatterStream,
    segment_salt: u64,
    byte_salt: u64,
) -> ScatterStream {
    let segments = stream.segments();
    let candidates: Vec<usize> = (0..segments.len())
        .filter(|&i| !segments[i].is_empty())
        .collect();
    if candidates.is_empty() {
        return stream.clone();
    }
    let victim = candidates[(segment_salt % candidates.len() as u64) as usize];
    let mut out = ScatterStream::new();
    for (i, segment) in segments.iter().enumerate() {
        if i == victim {
            let mut bytes = segment.to_vec();
            let at = (byte_salt % bytes.len() as u64) as usize;
            bytes[at] ^= 0xff;
            out.push(bytes.into());
        } else {
            out.push(segment.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_in_seed_and_epochs() {
        let a = FaultPlan::generate(7, 20);
        let b = FaultPlan::generate(7, 20);
        assert_eq!(a, b);
        let c = FaultPlan::generate(8, 20);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn generate_stops_at_a_primary_fault() {
        for seed in 0..200 {
            let plan = FaultPlan::generate(seed, 30);
            let positions: Vec<usize> = plan
                .events()
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e.kind, FaultKind::PrimaryFault { .. }))
                .map(|(i, _)| i)
                .collect();
            if let Some(&first) = positions.first() {
                assert_eq!(
                    first,
                    plan.events().len() - 1,
                    "a primary fault must terminate the schedule (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn transfer_fault_respects_attempt_budgets() {
        let plan = FaultPlan::new(1)
            .with_event(3, FaultKind::Drop { attempts: 2 })
            .with_event(
                5,
                FaultKind::Delay {
                    by: SimDuration::from_millis(4),
                },
            );
        let mut chaos = ChaosState::new(plan);
        assert_eq!(chaos.transfer_fault(3, 0, 0), Some(TransferFault::Dropped));
        assert_eq!(chaos.transfer_fault(3, 0, 1), Some(TransferFault::Dropped));
        assert_eq!(chaos.transfer_fault(3, 0, 2), None);
        assert_eq!(
            chaos.transfer_fault(5, 0, 0),
            Some(TransferFault::Delayed(SimDuration::from_millis(4)))
        );
        assert_eq!(chaos.transfer_fault(5, 0, 1), None);
        assert_eq!(chaos.transfer_fault(4, 0, 0), None);
        assert_eq!(chaos.stats.faults_injected, 3);
    }

    #[test]
    fn transfer_faults_only_hit_their_target_replica() {
        let plan = FaultPlan::new(1)
            .with_event(2, FaultKind::Drop { attempts: 1 })
            .with_event_on(2, 2, FaultKind::DecodeFail { attempts: 1 });
        let mut chaos = ChaosState::new(plan);
        assert_eq!(chaos.transfer_fault(2, 0, 0), Some(TransferFault::Dropped));
        assert_eq!(chaos.transfer_fault(2, 1, 0), None);
        assert_eq!(
            chaos.transfer_fault(2, 2, 0),
            Some(TransferFault::DecodeRefused)
        );
        assert_eq!(chaos.stats.faults_injected, 2);
    }

    #[test]
    fn the_first_attempt_query_is_pure() {
        let plan = FaultPlan::new(9)
            .with_event(2, FaultKind::Corrupt { attempts: 1 })
            .with_event_on(2, 1, FaultKind::Drop { attempts: 1 })
            .with_event_on(
                2,
                2,
                FaultKind::Delay {
                    by: SimDuration::from_millis(3),
                },
            )
            .with_partition(3, &[1], 2);
        let mut chaos = ChaosState::new(plan);
        let mut untouched = chaos.clone();
        let asked: Vec<bool> = (0..3)
            .flat_map(|replica| [2, 3, 4].map(|epoch| (epoch, replica)))
            .map(|(epoch, replica)| chaos.delivers_first_attempt(epoch, replica))
            .collect();
        assert_eq!(
            asked,
            [false, true, true, false, false, true, true, true, true],
            "corrupt, drop and link-down refuse; a delay delivers"
        );
        assert_eq!(chaos.stats, untouched.stats);
        for _ in 0..4 {
            assert_eq!(chaos.rng.next_u64(), untouched.rng.next_u64());
        }
        // The injector still fires, salts drawn and counted, afterwards.
        assert!(matches!(
            chaos.transfer_fault(2, 0, 0),
            Some(TransferFault::Corrupted { .. })
        ));
        assert_eq!(chaos.stats.faults_injected, 1);
    }

    #[test]
    fn partition_downs_every_listed_replica_link() {
        let plan = FaultPlan::new(1).with_partition(4, &[1, 2], 3);
        let mut chaos = ChaosState::new(plan);
        assert_eq!(chaos.transfer_fault(4, 0, 0), None);
        for replica in [1, 2] {
            for attempt in 0..3 {
                assert_eq!(
                    chaos.transfer_fault(4, replica, attempt),
                    Some(TransferFault::LinkDown)
                );
            }
            assert_eq!(chaos.transfer_fault(4, replica, 3), None);
        }
    }

    #[test]
    fn partition_span_repeats_the_outage_across_every_epoch() {
        let plan = FaultPlan::new(1).with_partition_span(4..=6, &[2], 10);
        assert_eq!(plan.events().len(), 3);
        let mut chaos = ChaosState::new(plan);
        for epoch in 4..=6 {
            assert_eq!(
                chaos.transfer_fault(epoch, 2, 0),
                Some(TransferFault::LinkDown)
            );
        }
        assert_eq!(chaos.transfer_fault(7, 2, 0), None);
    }

    #[test]
    fn primary_fault_matches_epoch_and_stage() {
        let plan = FaultPlan::new(1).with_event(
            4,
            FaultKind::PrimaryFault {
                outcome: DosOutcome::Hang,
                stage: Stage::Harvest,
            },
        );
        let mut chaos = ChaosState::new(plan);
        assert_eq!(chaos.primary_fault(4, Stage::Pause), None);
        assert_eq!(chaos.primary_fault(3, Stage::Harvest), None);
        assert_eq!(
            chaos.primary_fault(4, Stage::Harvest),
            Some(DosOutcome::Hang)
        );
    }

    #[test]
    fn heartbeat_loss_takes_the_worst_scheduled_event() {
        let plan = FaultPlan::new(1)
            .with_event(2, FaultKind::HeartbeatLoss { extra_periods: 2 })
            .with_event(6, FaultKind::HeartbeatLoss { extra_periods: 5 });
        let chaos = ChaosState::new(plan);
        assert_eq!(chaos.heartbeat_loss_periods(), 5);
        assert_eq!(
            ChaosState::new(FaultPlan::new(1)).heartbeat_loss_periods(),
            0
        );
    }

    #[test]
    fn corrupt_stream_flips_exactly_one_byte() {
        let mut stream = ScatterStream::new();
        stream.push(vec![1u8, 2, 3, 4].into());
        stream.push(vec![5u8, 6].into());
        let corrupted = corrupt_stream(&stream, 11, 13);
        let before = stream.gather();
        let after = corrupted.gather();
        assert_eq!(before.len(), after.len());
        let diffs = before
            .iter()
            .zip(after.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
    }
}
