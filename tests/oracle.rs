//! A reference decision machine for the commit ledger, output release and
//! failover, checked against the engine's own log over generated fault
//! plans, under wire v2 and under wire v3 with mixed replica caps.
//!
//! The reference reads only the deliveries, the `Ack` events in log
//! order, and recomputes every decision from them:
//!
//! * a replica that acks epoch `e` holds every epoch up to `e` (a
//!   catch-up installs its backlog first), and an epoch commits when the
//!   quorum-th replica holds it. So each ack that lifts the quorum-th
//!   highest ack mark past the last commit commits that epoch, at the
//!   ack's instant, and the log's next event is that `Commit`;
//! * output leaves only at a commit: the released packet count rises only
//!   in the `Packets` sample that directly follows a `Commit`, never in a
//!   failover's;
//! * failover activates the freshest committed replica, the one whose ack
//!   mark is highest without passing the last commit (the lowest index on
//!   a tie), and it resumes from the last commit.
//!
//! Only the public API is used.

use here::hypervisor::fault::DosOutcome;
use here::replication::{
    FanoutMode, FaultKind, FaultPlan, ReplicationConfig, RunReport, Scenario, SessionEvent, Stage,
    TopologyConfig,
};
use here::sim::time::{SimDuration, SimTime};
use here::vmstate::wire::{VERSION, VERSION_V3};
use here::workloads::sockperf::SockperfLoad;
use here::workloads::{IdleGuest, MemStress, Sockperf, Workload};
use proptest::prelude::*;

const REPLICAS: usize = 3;
const QUORUM: usize = 2;

/// The reference ledger: what each replica holds, and the last commit.
#[derive(Default)]
struct Reference {
    /// The highest epoch each replica acked.
    marks: [Option<u64>; REPLICAS],
    committed: Option<u64>,
}

impl Reference {
    /// Replica `replica` delivered epoch `seq`: the epoch this commits,
    /// if any.
    fn deliver(&mut self, replica: u32, seq: u64) -> Option<u64> {
        let mark = &mut self.marks[replica as usize];
        *mark = (*mark).max(Some(seq));
        // The highest epoch that `QUORUM` replicas hold.
        let mut held: Vec<u64> = self.marks.iter().flatten().copied().collect();
        held.sort_unstable_by(|a, b| b.cmp(a));
        let due = *held.get(QUORUM - 1)?;
        if self.committed.is_some_and(|last| due <= last) {
            return None;
        }
        self.committed = Some(due);
        Some(due)
    }

    /// The freshest committed replica: the highest mark no later than the
    /// last commit, the lowest index on a tie.
    fn freshest(&self) -> u32 {
        let committed = |r: usize| self.marks[r].filter(|&mark| Some(mark) <= self.committed);
        (0..REPLICAS).fold(0, |best, r| {
            if committed(r) > committed(best) {
                r
            } else {
                best
            }
        }) as u32
    }
}

/// Walks `report`'s log through the reference; panics, naming the event,
/// on the first decision the engine made differently.
fn check_decisions(report: &RunReport, label: &str) {
    let mut reference = Reference::default();
    let mut due: Option<(u64, SimTime)> = None;
    let mut after_commit = false;
    let mut released = 0;
    let mut commits = 0;
    for (i, event) in report.events.iter().enumerate() {
        let expected = due.take();
        match event {
            SessionEvent::Commit { seq, at } => {
                assert_eq!(
                    Some((*seq, *at)),
                    expected,
                    "{label}: event {i} commits, but the reference commits {expected:?}"
                );
                commits += 1;
            }
            other => assert!(
                expected.is_none(),
                "{label}: event {i}: {expected:?} is due, but the log has {other:?}"
            ),
        }
        match event {
            SessionEvent::Ack { replica, seq, at } => {
                due = reference.deliver(*replica, *seq).map(|seq| (seq, *at));
            }
            SessionEvent::Packets { released: now, .. } => {
                assert!(
                    *now == released || (after_commit && *now > released),
                    "{label}: event {i}: released {released} -> {now} outside a commit"
                );
                released = *now;
            }
            SessionEvent::Failover { record, .. } => {
                assert_eq!(
                    (record.activated_replica, record.resumed_from_checkpoint),
                    (reference.freshest(), reference.committed.unwrap_or(0)),
                    "{label}: event {i}: activation"
                );
            }
            _ => {}
        }
        after_commit = matches!(event, SessionEvent::Commit { .. });
    }
    assert_eq!(due, None, "{label}: the log ends before a due commit");
    assert_eq!(
        commits,
        report.commits.len(),
        "{label}: the report's ledger"
    );
    assert!(commits > 0, "{label}: nothing committed");
}

/// The guest a generated plan runs: idle (most epochs dirty nothing, so
/// a partitioned replica misses empty epochs), memory pressure, or a
/// network server whose replies wait for commit.
#[derive(Debug, Clone, Copy)]
enum Guest {
    Idle,
    Memory,
    Network,
}

impl Guest {
    fn workload(self) -> Box<dyn Workload> {
        match self {
            Guest::Idle => Box::new(IdleGuest::new()),
            Guest::Memory => Box::new(MemStress::with_percent(20).with_rate(5_000)),
            Guest::Network => Box::new(Sockperf::new(SockperfLoad::A).with_rate(200.0)),
        }
    }
}

/// Runs `plan` on `guest`, three replicas at quorum 2 on a star, every
/// applied replica checked against the primary after each transfer.
fn run(guest: Guest, plan: &FaultPlan, wire_v3: bool) -> RunReport {
    let mut cfg = ReplicationConfig::fixed_period(SimDuration::from_millis(500)).with_topology(
        TopologyConfig {
            replicas: REPLICAS as u32,
            quorum: QUORUM as u32,
            fanout: FanoutMode::Star,
            stale_epoch_lag: 8,
        },
    );
    if wire_v3 {
        cfg = cfg
            .with_wire_v3()
            .with_replica_wire_caps(vec![VERSION_V3, VERSION, VERSION_V3]);
    }
    Scenario::builder()
        .name("oracle")
        .vm_memory_mib(64)
        .vcpus(2)
        .workload(guest.workload())
        .config(cfg)
        .duration(SimDuration::from_secs(8))
        .run_full_duration()
        .seed(7)
        .verify_consistency()
        .chaos(plan.clone())
        .build()
        .expect("scenario is valid")
        .run()
}

fn guest() -> impl Strategy<Value = Guest> {
    (0u8..3).prop_map(|pick| match pick {
        0 => Guest::Idle,
        1 => Guest::Memory,
        _ => Guest::Network,
    })
}

/// A seeded fault plan over the first 15 epochs: up to two partition
/// spans over one or two replicas, up to two drops and two corruptions
/// of one replica's first attempts, and perhaps a primary crash in the
/// middle of a transfer.
fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    const SETS: [&[u32]; 6] = [&[0], &[1], &[2], &[0, 1], &[1, 2], &[0, 2]];
    let span = (1u64..15, 0u64..6, 0usize..SETS.len(), 1u32..=6);
    let hit = (1u64..15, 0u32..3, 1u32..=4);
    (
        any::<u64>(),
        proptest::collection::vec(span, 0..3),
        proptest::collection::vec(hit.clone(), 0..3),
        proptest::collection::vec(hit, 0..3),
        proptest::option::of(4u64..15),
    )
        .prop_map(|(seed, spans, drops, corrupts, crash)| {
            let mut plan = FaultPlan::new(seed);
            for (start, len, set, attempts_down) in spans {
                plan = plan.with_partition_span(start..=start + len, SETS[set], attempts_down);
            }
            for (epoch, replica, attempts) in drops {
                plan = plan.with_event_on(epoch, replica, FaultKind::Drop { attempts });
            }
            for (epoch, replica, attempts) in corrupts {
                plan = plan.with_event_on(epoch, replica, FaultKind::Corrupt { attempts });
            }
            if let Some(epoch) = crash {
                let kind = FaultKind::PrimaryFault {
                    outcome: DosOutcome::Crash,
                    stage: Stage::Transfer,
                };
                plan = plan.with_event(epoch, kind);
            }
            plan
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every commit, release and activation of the engine is the
    /// reference's, on wire v2 and on wire v3 with replica 1 capped at v2.
    #[test]
    fn the_engine_decides_what_the_reference_decides(guest in guest(), plan in fault_plan()) {
        for wire_v3 in [false, true] {
            let report = run(guest, &plan, wire_v3);
            let label = format!("{guest:?}, v3 {wire_v3}, {plan:?}");
            check_decisions(&report, &label);
            prop_assert!(report.consistency_checks > 0, "{}", label);
        }
    }
}

/// The reference itself: a catch-up ack commits the epoch two replicas
/// now hold, a stale ack commits nothing, a replica ahead of the last
/// commit is not a candidate, and ties go to the lowest index.
#[test]
fn the_reference_commits_at_the_quorum_th_holder() {
    let mut reference = Reference::default();
    assert_eq!(reference.deliver(0, 1), None);
    assert_eq!(reference.deliver(2, 1), Some(1));
    assert_eq!(reference.deliver(1, 1), None);
    // Replica 0 alone holds epoch 3: not committed, not a candidate.
    assert_eq!(reference.deliver(0, 3), None);
    assert_eq!(reference.freshest(), 1);
    // Replica 1 catches up past epoch 2 in one apply: 3 is now held twice.
    assert_eq!(reference.deliver(1, 3), Some(3));
    assert_eq!(reference.deliver(2, 2), None);
    assert_eq!(reference.freshest(), 0);
}
