//! Seeded chaos suite: random fault plans must never violate the
//! failover invariants.
//!
//! Every run executes with `verify_consistency`, so the engine itself
//! asserts after each committed checkpoint that the replica's memory and
//! vCPU state are byte-identical to the paused primary's — a torn or
//! partially-applied epoch panics the run and fails the test. On top of
//! that the tests check the commit ledger stays strictly monotone, that a
//! failover provably resumes from the last fully-acked epoch, and that
//! the same seed replays byte-identically.

use here_core::{
    CommitEntry, FaultKind, FaultPlan, FaultSite, ReplicationConfig, RunReport, Scenario,
    SessionEvent, Stage,
};
use here_hypervisor::fault::DosOutcome;
use here_sim_core::time::SimDuration;
use here_telemetry::MetricValue;
use here_workloads::memstress::MemStress;
use here_workloads::sockperf::{Sockperf, SockperfLoad};
use here_workloads::traits::Workload;
use proptest::prelude::*;

/// A small replicated VM under memory pressure, with the given fault plan
/// armed and replica/primary equality verified at every commit.
fn chaos_run(run_seed: u64, plan: FaultPlan) -> RunReport {
    chaos_run_with(
        Box::new(MemStress::with_percent(30).with_rate(20_000)),
        run_seed,
        plan,
    )
}

/// [`chaos_run`] with another guest workload.
fn chaos_run_with(workload: Box<dyn Workload>, run_seed: u64, plan: FaultPlan) -> RunReport {
    Scenario::builder()
        .name("chaos")
        .vm_memory_mib(64)
        .vcpus(4)
        .workload(workload)
        .config(ReplicationConfig::fixed_period(SimDuration::from_secs(2)))
        .duration(SimDuration::from_secs(30))
        .seed(run_seed)
        .verify_consistency()
        .chaos(plan)
        .build()
        .expect("chaos scenario is valid")
        .run()
}

#[test]
fn mid_transfer_primary_crash_resumes_from_last_acked_epoch() {
    // Epochs 1–3 commit; the crash fires at the entry of epoch 4's
    // Transfer stage, while checkpoint 4 is in flight and unacked.
    let plan = FaultPlan::new(99).with_event(
        4,
        FaultKind::PrimaryFault {
            outcome: DosOutcome::Crash,
            stage: Stage::Transfer,
        },
    );
    let report = chaos_run(7, plan);
    let fo = report.failover.expect("an injected crash must fail over");
    assert_eq!(report.commits.last().expect("epochs 1-3 committed").seq, 3);
    assert_eq!(
        fo.resumed_from_checkpoint, 3,
        "the replica must activate from the last fully-acked epoch, not the in-flight one"
    );
    assert!(
        report.checkpoints.iter().all(|c| c.seq <= 3),
        "the interrupted epoch must not produce a checkpoint record"
    );
    assert_eq!(report.chaos.expect("plan armed").faults_injected, 1);
    assert!(
        report.ops_completed > 0.0,
        "service continues on the activated replica"
    );
}

#[test]
fn corruption_and_link_flap_are_retried_to_recovery() {
    let plan = FaultPlan::new(5)
        .with_event(2, FaultKind::Corrupt { attempts: 2 })
        .with_event(3, FaultKind::LinkFlap { attempts_down: 1 });
    let report = chaos_run(11, plan);
    let stats = report.chaos.expect("plan armed");
    assert_eq!(
        stats.transfer_retries, 3,
        "2 corrupt + 1 link-down attempts"
    );
    assert_eq!(
        stats.transfer_recoveries, 2,
        "both epochs deliver in the end"
    );
    assert_eq!(stats.epochs_aborted, 0);
    assert!(report.failover.is_none());
    // Every started epoch still committed, in order.
    assert_eq!(report.commits.len(), report.checkpoints.len());
    let retry_spans = report
        .spans
        .iter()
        .filter(|s| s.name == "transfer_retry")
        .count();
    assert_eq!(retry_spans, 3, "each retry lands in the span trace");
}

#[test]
fn exhausted_retry_budget_aborts_the_epoch_and_replication_continues() {
    // 10 scheduled drops exceed the default 4-attempt budget: epoch 3 is
    // aborted, its pages roll into epoch 4, and the run keeps going.
    let plan = FaultPlan::new(5).with_event(3, FaultKind::Drop { attempts: 10 });
    let report = chaos_run(11, plan);
    let stats = report.chaos.expect("plan armed");
    assert_eq!(stats.epochs_aborted, 1);
    assert_eq!(
        stats.transfer_retries, 3,
        "attempts 1-3 retry, the 4th aborts"
    );
    assert!(report.failover.is_none());
    assert!(
        report.commits.iter().all(|c| c.seq != 3),
        "the aborted epoch must never enter the commit ledger"
    );
    assert!(
        report.commits.iter().any(|c| c.seq == 4),
        "the epoch after the abort must commit (and carries the re-dirtied pages)"
    );
    // The abort widens the worst commit-to-commit staleness window past
    // two epochs.
    assert!(report.worst_staleness().expect("commits exist") >= SimDuration::from_secs(4));
}

#[test]
fn nothing_observed_during_warmup_survives_into_the_measured_report() {
    // Epoch 2 falls inside the 8 s warmup and aborts there, which is a
    // capture trigger. The measured window sees no trigger at all, so its
    // incident must be the end-of-run request — taken from planes that
    // were rebuilt, like the ledger and the fault counters, when warmup
    // closed. The replica is verified after every epoch, warmup included;
    // only the measured epochs' checks may be reported.
    let report = Scenario::builder()
        .vm_memory_mib(64)
        .vcpus(4)
        .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
        .config(
            ReplicationConfig::fixed_period(SimDuration::from_secs(2)).with_postmortem_capture(),
        )
        .warmup_under_load(SimDuration::from_secs(8))
        .duration(SimDuration::from_secs(12))
        .chaos(FaultPlan::new(5).with_event(2, FaultKind::Drop { attempts: 10 }))
        .verify_consistency()
        .build()
        .expect("valid scenario")
        .run();
    assert_eq!(report.chaos.expect("plan armed").epochs_aborted, 0);
    assert_eq!(report.consistency_checks, report.checkpoints.len() as u64);
    let trigger = report.incident.expect("capture armed");
    assert_eq!(trigger.trigger, "request", "{}", trigger.detail);
    // The capture counted events from the same reset as the log.
    assert!(matches!(
        report.events[trigger.event],
        SessionEvent::RunEnd { .. }
    ));
    let first = report.stage_events.first().expect("measured epochs").seq;
    assert!(first > 2, "warmup epochs are not in the measured log");
    assert!(report
        .events
        .iter()
        .all(|e| !matches!(e, SessionEvent::EpochAbort { .. })));
    assert_eq!(report.spans.first().expect("spans").id.get(), 0);
}

#[test]
fn warmup_packets_and_pool_reclaims_are_not_counted_in_the_measured_window() {
    // Sockperf emits replies in every epoch, warmup included. The packet
    // counters and the encode pool's reclaim counters must start over
    // with the ledger when warmup closes: the measured window counts the
    // packets whose latency it measured, and the reclaims of its own
    // checkpoints.
    let run = |warmup: Option<SimDuration>| {
        let mut builder = Scenario::builder()
            .vm_memory_mib(256)
            .vcpus(2)
            .workload(Box::new(Sockperf::new(SockperfLoad::A)))
            .config(ReplicationConfig::fixed_period(SimDuration::from_secs(1)))
            .duration(SimDuration::from_secs(10));
        if let Some(warmup) = warmup {
            builder = builder.warmup_under_load(warmup);
        }
        builder.build().expect("valid scenario").run()
    };
    let counter = |report: &RunReport, name: &str| {
        let telemetry = report.telemetry.as_ref().expect("telemetry is always on");
        match telemetry.registry.find(name).expect(name).value {
            MetricValue::Counter(v) => v,
            ref other => panic!("{name} is not a counter: {other:?}"),
        }
    };
    let cold = run(None);
    let warm = run(Some(SimDuration::from_secs(10)));
    let released = counter(&warm, "here_packets_released_total");
    assert_eq!(released, warm.packet_latencies.count() as u64);
    assert_eq!(counter(&warm, "here_packets_buffered_total"), released);
    assert_eq!(counter(&warm, "here_packets_discarded_total"), 0);
    // The measured checkpoints draw on a pool the warmup filled: every
    // checkout hits, and there are no more of them than the cold run
    // made, seeding included.
    let checkouts = |r: &RunReport| {
        counter(r, "here_pool_reclaim_hits_total") + counter(r, "here_pool_reclaim_misses_total")
    };
    assert_eq!(counter(&warm, "here_pool_reclaim_misses_total"), 0);
    assert!(
        checkouts(&warm) <= checkouts(&cold),
        "{} checkouts in the measured window, {} in the whole cold run",
        checkouts(&warm),
        checkouts(&cold)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary generated fault plans: the replica never restores a torn
    /// epoch (engine-asserted via `verify_consistency`), commit sequence
    /// numbers stay strictly monotone, aborted epochs never commit, and
    /// any failover resumes exactly from the last fully-acked epoch.
    #[test]
    fn random_fault_plans_preserve_failover_invariants(
        plan_seed in 0u64..(1u64 << 48),
        run_seed in 0u64..(1u64 << 48),
    ) {
        let plan = FaultPlan::generate(plan_seed, 12);
        let report = chaos_run(run_seed, plan.clone());
        for w in report.commits.windows(2) {
            prop_assert!(w[1].seq > w[0].seq, "ledger must be strictly monotone");
            prop_assert!(w[1].at >= w[0].at);
        }
        let scheduled_primary_fault = plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::PrimaryFault { .. }));
        if let Some(fo) = &report.failover {
            prop_assert!(scheduled_primary_fault, "only the plan can down the primary");
            prop_assert_eq!(
                fo.resumed_from_checkpoint,
                report.commits.last().map_or(0, |c| c.seq),
                "failover must activate the last fully-acked epoch"
            );
        }
        // A checkpoint record exists exactly for the committed epochs.
        let committed: Vec<u64> = report.commits.iter().map(|c| c.seq).collect();
        let recorded: Vec<u64> = report.checkpoints.iter().map(|c| c.seq).collect();
        prop_assert_eq!(committed, recorded);
    }

    /// No silent failure: every retry, recovery, abort and injected fault
    /// the run counted is in the event log exactly once, a primary downed
    /// mid-epoch leaves one fault event and one failover event, no epoch
    /// commits before a quorum of replicas acknowledged it, and no output
    /// leaves except at a commit. Both guests run the plan: the memory
    /// stress and a Sockperf guest, whose replies fill the output buffer.
    #[test]
    fn every_error_and_abort_path_leaves_exactly_one_event(
        plan_seed in 0u64..(1u64 << 48),
        run_seed in 0u64..(1u64 << 48),
    ) {
        let plan = FaultPlan::generate(plan_seed, 12);
        let replying = chaos_run_with(
            Box::new(Sockperf::new(SockperfLoad::A)),
            run_seed,
            plan.clone(),
        );
        prop_assert!(replying.packet_latencies.count() > 0);
        for report in [chaos_run(run_seed, plan), replying] {
            let stats = report.chaos.expect("plan armed");
            let count = |pick: fn(&SessionEvent) -> bool| {
                report.events.iter().filter(|e| pick(e)).count() as u64
            };
            prop_assert_eq!(
                count(|e| matches!(e, SessionEvent::TransferRetry { .. })),
                stats.transfer_retries
            );
            prop_assert_eq!(
                count(|e| matches!(e, SessionEvent::TransferRecovery { .. })),
                stats.transfer_recoveries
            );
            prop_assert_eq!(
                count(|e| matches!(e, SessionEvent::EpochAbort { .. })),
                stats.epochs_aborted
            );
            prop_assert_eq!(
                count(|e| matches!(e, SessionEvent::Fault { .. })),
                stats.faults_injected
            );
            // `InjectedPrimaryFault` is the only way this run fails over.
            let failovers = u64::from(report.failover.is_some());
            prop_assert_eq!(
                count(|e| matches!(
                    e,
                    SessionEvent::Fault {
                        site: FaultSite::PrimaryAtStage { .. },
                        host_down: true,
                        ..
                    }
                )),
                failovers
            );
            prop_assert_eq!(count(|e| matches!(e, SessionEvent::Failover { .. })), failovers);
            prop_assert_eq!(count(|e| matches!(e, SessionEvent::RunEnd { .. })), 1);
            prop_assert!(matches!(report.events.last(), Some(SessionEvent::RunEnd { .. })));

            let mut commits = Vec::new();
            for (i, event) in report.events.iter().enumerate() {
                let SessionEvent::Commit { seq, at } = *event else { continue };
                let acks = report.events[..i]
                    .iter()
                    .filter(|e| matches!(e, SessionEvent::Ack { seq: acked, .. } if *acked == seq))
                    .count();
                prop_assert!(acks >= 1, "epoch {} committed on {} acks (quorum 1)", seq, acks);
                commits.push(CommitEntry { seq, at });
            }
            prop_assert_eq!(commits, report.commits.clone());
            // Output leaves only at a commit: the released count rises only at
            // the `Packets` event directly after the `Commit` of an epoch that
            // did not abort, so never after an `EpochAbort` (or a failover's
            // rollback).
            let mut released_so_far = 0;
            let mut aborted = Vec::new();
            let mut previous: Option<&SessionEvent> = None;
            for event in &report.events {
                match *event {
                    SessionEvent::EpochAbort { seq, .. } => aborted.push(seq),
                    SessionEvent::Packets { released, .. } => {
                        prop_assert!(released >= released_so_far);
                        if released > released_so_far {
                            let committed = match previous {
                                Some(SessionEvent::Commit { seq, .. }) => Some(*seq),
                                _ => None,
                            };
                            prop_assert!(
                                committed.is_some_and(|seq| !aborted.contains(&seq)),
                                "output released after {:?}",
                                previous
                            );
                        }
                        released_so_far = released;
                    }
                    _ => {}
                }
                previous = Some(event);
            }
            // And the planes are a fold of that log.
            let cfg = ReplicationConfig::fixed_period(SimDuration::from_secs(2));
            let (telemetry, spans, incident) = here_core::telemetry::fold(&cfg, &report.events);
            prop_assert_eq!(Some(telemetry), report.telemetry.clone());
            prop_assert_eq!(spans, report.spans.clone());
            prop_assert_eq!(incident, report.incident.clone());
        }
    }

    /// Determinism: the same (plan seed, run seed) pair replays to an
    /// identical report fingerprint — faults, retries, commits, spans and
    /// all — which is what makes any chaos failure a one-line reproducer.
    #[test]
    fn same_seed_replays_byte_identically(
        plan_seed in 0u64..(1u64 << 48),
        run_seed in 0u64..(1u64 << 48),
    ) {
        let a = chaos_run(run_seed, FaultPlan::generate(plan_seed, 12));
        let b = chaos_run(run_seed, FaultPlan::generate(plan_seed, 12));
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.commits, b.commits);
        prop_assert_eq!(a.chaos, b.chaos);
    }
}
