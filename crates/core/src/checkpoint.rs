//! The continuous replication phase: the epoch loop that drives each
//! checkpoint through the staged pipeline, plus warmup handling, the
//! strike of a time-keyed primary fault and post-failover service.
//!
//! This is the Remus workflow of §3.2 with HERE's extensions (§5, §7):
//! repeat { run the VM for `T` buffering its output; drive
//! Pause → Harvest → Translate → Transfer → Ack → Resume through
//! [`crate::pipeline`]; let the dynamic period manager pick the next
//! `T` }. Per-checkpoint report records are derived from the stage events
//! the pipeline emits, so the report can never disagree with the trace,
//! and each is said once, in its [`SessionEvent::Checkpoint`]: the report
//! reads it back from the log.

use here_hypervisor::host::Hypervisor;
use here_sim_core::time::{SimDuration, SimTime};
use here_vulndb::dataset::nvd_corpus;
use here_vulndb::exploit::{Exploit, ExploitResult};

use crate::chaos::FaultKind;
use crate::engine::{Protection, Scenario};
use crate::error::{CoreError, CoreResult};
use crate::failover::{CommitLedger, FailoverRecord};
use crate::pipeline;
use crate::report::{CheckpointRecord, RunReport};
use crate::session::{Session, SessionSetup, CLIENT_STACK_OVERHEAD, MAX_SLICE};
use crate::trace::{epoch_stage_events, FaultSite, SessionEvent};

/// One full checkpoint: drives the six pipeline stages, then derives the
/// per-checkpoint record from the emitted stage events, feeds the period
/// controller and emits the pair.
pub(crate) fn do_checkpoint(session: &mut Session, period_used: SimDuration) -> CoreResult<()> {
    let summary = match pipeline::begin(session)?.harvest()?.translate()?.transfer() {
        Ok(transferred) => transferred.ack().resume()?,
        Err(CoreError::EpochAborted { seq, attempts }) => {
            // The transfer retry budget ran dry: discard the partial
            // checkpoint, re-dirty its pages and resume the primary. The
            // previous committed epoch stays authoritative; no checkpoint
            // record is emitted and the period controller is not fed.
            session.abort_epoch(seq, attempts)?;
            return Ok(());
        }
        Err(e) => return Err(e),
    };

    let events = epoch_stage_events(&session.log, summary.seq);
    let record = CheckpointRecord::from_events(period_used, &events);
    debug_assert_eq!(record.pause, summary.pause);
    let decision = session.period.on_checkpoint(record.pause);
    let at_nanos = session.now_nanos();
    session.emit(SessionEvent::Checkpoint {
        record,
        decision,
        at_nanos,
    });
    session.emit(SessionEvent::PoolStats {
        hits: session.pools.buffers.hits(),
        misses: session.pools.buffers.misses(),
        pooled: session.pools.buffers.pooled() as u64,
        at_nanos,
    });
    // When this epoch's encode ran on the lane pool, say how its round
    // went; an inline encode emits nothing.
    if let Some(round) = session.encode_stats.take() {
        session.emit(SessionEvent::EncodePool {
            seq: summary.seq,
            tasks: round.tasks(),
            steals: round.steals(),
            occupancy_pct: round.occupancy_pct(),
            at_nanos,
        });
    }
    // Once per committed epoch, after its acks have landed in the ledger.
    session.emit_epoch_health(&record, at_nanos);
    Ok(())
}

/// Runs a replicated scenario end to end: build the session, seed it,
/// optionally warm up, then checkpoint continuously until the time budget
/// (or the workload, or a primary fault) ends the run.
pub(crate) fn run_replicated(scenario: Scenario) -> CoreResult<RunReport> {
    let Scenario {
        name,
        memory,
        vcpus,
        workload,
        protection,
        duration,
        seed,
        stop_when_workload_done: stop,
        load_during_seed,
        warmup,
        verify_consistency,
        chaos,
    } = scenario;
    let Protection::Replicated(cfg) = protection else {
        unreachable!("run_replicated requires a replication config");
    };
    let mut session = Session::new(SessionSetup {
        name,
        memory,
        vcpus,
        cfg,
        workload,
        seed,
        load_during_seed,
        verify_consistency,
        chaos,
    })?;

    // Phase 1: seeding.
    let migration = crate::migrate::seed(&mut session)?;

    // Application measurement starts after seeding (the benchmarks of §8
    // run against an already-replicated VM).
    let mut replication_start = session.clock;
    if !session.load_during_seed {
        session.workload_now_base = replication_start;
    }
    session.measure_base = replication_start;
    session.ops_committed = 0.0;
    session.ops_uncommitted = 0.0;
    session.buffering = true;

    // Optional warmup: replicate under the scenario's own workload without
    // recording, then reset. Measurement starts on a fresh workload run,
    // so bounded workloads and phase schedules begin again from zero.
    session.workload_started = true;
    if !warmup.is_zero() {
        let warmup_end = replication_start + warmup;
        while session.clock < warmup_end {
            let t = session.period.current();
            let epoch_end = (session.clock + t).min(warmup_end);
            session.advance(epoch_end.saturating_duration_since(session.clock), false);
            do_checkpoint(&mut session, t)?;
            // Bounded workloads cycle during warmup so the dirty pressure
            // the controller converges against never drops out.
            if session.workload.is_done() {
                session.workload.reset();
            }
        }
        // Measurement starts on a fresh workload run.
        session.workload.reset();
        session.log.clear();
        session.ledger = CommitLedger::with_quorum(
            session.cfg.topology.replicas.max(1),
            session.cfg.topology.effective_quorum(),
        );
        // The counters the Packets and PoolStats events sample start over
        // with the ledger, or the warmup's counts would carry over.
        session.devmgr.reset_packet_counts();
        session.pools.buffers.reset_counts();
        if let Some(chaos) = session.chaos.as_mut() {
            chaos.stats = Default::default();
        }
        session.latencies = here_sim_core::metrics::Histogram::new();
        session.consistency_checks = 0;
        session.ops_committed = 0.0;
        session.ops_uncommitted = 0.0;
        replication_start = session.clock;
        session.measure_base = replication_start;
        session.workload_now_base = replication_start;
    }
    let end = replication_start + duration;

    let mut failover_record = None;

    // Phase 2: continuous replication.
    while session.clock < end {
        let t = session.period.current();
        let epoch_end = (session.clock + t).min(end);

        // A time-keyed primary fault inside this epoch interrupts it. One
        // whose instant fell within the previous checkpoint's pause fires
        // now, at the first moment the simulation can observe it.
        let due = epoch_end.saturating_duration_since(replication_start);
        if let Some((at, kind)) = session.chaos.as_mut().and_then(|c| c.take_timed(due)) {
            let fire_at = replication_start + at;
            session.advance(fire_at.saturating_duration_since(session.clock), false);
            let struck = strike(kind, session.primary.as_mut());
            failover_record =
                primary_fault(&mut session, struck, FaultSite::Primary, kind, end, stop)?;
            if failover_record.is_some() {
                break;
            }
            // Exploit repelled or guest-only: the epoch continues.
            continue;
        }

        session.advance(epoch_end.saturating_duration_since(session.clock), stop);
        match do_checkpoint(&mut session, t) {
            Ok(()) => {}
            Err(CoreError::InjectedPrimaryFault {
                seq,
                stage,
                outcome,
            }) => {
                // The fault plane took the primary down mid-epoch. The
                // in-flight checkpoint is lost; the replica activates from
                // the last fully-acked epoch in the commit ledger.
                let struck = Struck {
                    fault: outcome.label(),
                    host_down: true,
                    detail: format!(
                        "fault plane downed the primary at the {} stage of checkpoint {seq}",
                        stage.label()
                    ),
                };
                let site = FaultSite::PrimaryAtStage { seq, stage };
                let kind = FaultKind::PrimaryFault { outcome, stage };
                failover_record = primary_fault(&mut session, struck, site, kind, end, stop)?;
                break;
            }
            Err(e) => return Err(e),
        }
        if stop && session.workload.is_done() {
            break;
        }
    }

    Ok(session.finish(migration, failover_record, replication_start))
}

/// What striking a host did, as the log's `Fault` event says it.
struct Struck {
    fault: &'static str,
    host_down: bool,
    detail: String,
}

/// Strikes `host` with a time-keyed primary fault — the primary, or on a
/// re-attack the activated replica. An accident always downs it; an
/// exploit only when the host's deployment holds the vulnerable
/// component.
fn strike(kind: FaultKind, host: &mut dyn Hypervisor) -> Struck {
    match kind {
        FaultKind::PrimaryFault { outcome, .. } => {
            host.inject_dos(outcome);
            Struck {
                fault: outcome.label(),
                host_down: true,
                detail: "accidental failure injected into primary".to_string(),
            }
        }
        FaultKind::Exploit { cve, .. } => {
            let exploit = Exploit::new(nvd_corpus().swap_remove(cve));
            let result = exploit.launch(host);
            Struck {
                fault: "exploit",
                host_down: matches!(result, ExploitResult::HostDown(_)),
                detail: format!("{} launched at primary", exploit.cve().id),
            }
        }
        other => unreachable!("{other:?} cannot strike at a time (FaultEvent::check)"),
    }
}

/// The one tail of a primary fault, from either trigger: say what `kind`
/// did to the primary and, if it went down, fail over, launch a
/// re-attacking exploit at the activated replica, and serve on the
/// replica unless that downed it too. Returns the failover, or `None`
/// when the primary stayed up.
fn primary_fault(
    session: &mut Session,
    struck: Struck,
    site: FaultSite,
    kind: FaultKind,
    end: SimTime,
    stop: bool,
) -> CoreResult<Option<FailoverRecord>> {
    session.emit(SessionEvent::Fault {
        fault: struck.fault,
        host_down: struck.host_down,
        detail: struck.detail,
        at_nanos: session.now_nanos(),
        site,
    });
    if !struck.host_down {
        return Ok(None);
    }
    let record = session.failover(session.clock)?;
    // Homogeneous replication loses here: the same exploit kills the
    // replica too.
    let reattack = matches!(kind, FaultKind::Exploit { reattack: true, .. });
    if !(reattack && strike(kind, session.replicas.active_mut().host.as_mut()).host_down) {
        run_on_replica(session, end, stop)?;
    }
    Ok(Some(record))
}

/// After a failover the workload continues on the activated replica,
/// unreplicated (the secondary has no further peer).
fn run_on_replica(session: &mut Session, end: SimTime, stop: bool) -> CoreResult<()> {
    session.buffering = false;
    while session.clock < end {
        let slice = end
            .saturating_duration_since(session.clock)
            .clamp(SimDuration::ZERO, MAX_SLICE);
        let member = session.replicas.active_mut();
        let vm = member.host.vm_mut(member.vm)?;
        let wnow = SimTime::ZERO
            + session
                .clock
                .saturating_duration_since(session.workload_now_base);
        let progress = session.workload.advance(wnow, slice, vm, &mut session.rng);
        session.ops_committed += progress.ops;
        for emission in progress.emissions {
            let latency =
                session.client_link.transfer_time(emission.size) * 2 + CLIENT_STACK_OVERHEAD;
            session.latencies.observe(latency.as_secs_f64());
        }
        session.clock += slice;
        if stop && session.workload.is_done() {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultPlan, FaultTrigger};
    use crate::config::{FanoutMode, ReplicationConfig, TopologyConfig};
    use crate::engine::{FailureCause, FailurePlan};
    use crate::trace::Stage;
    use here_hypervisor::fault::DosOutcome;
    use here_hypervisor::memory::GuestMemory;
    use here_hypervisor::{PageId, VcpuId};
    use here_sim_core::rate::ByteSize;
    use here_workloads::memstress::MemStress;
    use proptest::prelude::*;

    fn small_scenario(cfg: ReplicationConfig) -> Scenario {
        Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(4)
            .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
            .config(cfg)
            .duration(SimDuration::from_secs(30))
            .build()
            .unwrap()
    }

    #[test]
    fn fixed_period_checkpoints_at_the_configured_rate() {
        let report =
            small_scenario(ReplicationConfig::fixed_period(SimDuration::from_secs(3))).run();
        // 30 s at T = 3 s → ~10 checkpoints (pauses stretch epochs a bit).
        assert!(
            (8..=11).contains(&report.checkpoints.len()),
            "got {}",
            report.checkpoints.len()
        );
        for c in &report.checkpoints {
            assert_eq!(c.period, SimDuration::from_secs(3));
            assert!(c.dirty_pages > 0);
        }
        assert!(report.migration.is_some());
    }

    #[test]
    fn every_checkpoint_yields_a_complete_stage_sequence() {
        let report =
            small_scenario(ReplicationConfig::fixed_period(SimDuration::from_secs(3))).run();
        assert!(!report.checkpoints.is_empty());
        for c in &report.checkpoints {
            let stages: Vec<Stage> = report
                .stage_events
                .iter()
                .filter(|e| e.seq == c.seq)
                .map(|e| e.stage)
                .collect();
            assert_eq!(stages, Stage::ALL.to_vec(), "checkpoint {}", c.seq);
        }
        // And the record is exactly what the events say.
        for c in &report.checkpoints {
            let pause: SimDuration = report
                .stage_events
                .iter()
                .filter(|e| e.seq == c.seq && e.stage.counts_toward_pause())
                .map(|e| e.duration)
                .sum();
            assert_eq!(pause, c.pause, "checkpoint {}", c.seq);
            let harvested = report
                .stage_events
                .iter()
                .find(|e| e.seq == c.seq && e.stage == Stage::Harvest)
                .unwrap();
            assert_eq!(harvested.pages, c.dirty_pages);
            let paused = report
                .stage_events
                .iter()
                .find(|e| e.seq == c.seq && e.stage == Stage::Pause)
                .unwrap();
            assert_eq!(paused.at, c.paused_at);
            assert_eq!(harvested.at, paused.at + paused.duration);
        }
    }

    #[test]
    fn replica_memory_matches_primary_after_run() {
        // White-box check through a bespoke session is complex; instead
        // verify via ops accounting that checkpoints committed work.
        let report =
            small_scenario(ReplicationConfig::fixed_period(SimDuration::from_secs(2))).run();
        assert!(report.ops_completed > 0.0);
        assert!(report.throughput_ops_per_sec > 0.0);
    }

    #[test]
    fn remus_pauses_longer_than_here() {
        let here = small_scenario(ReplicationConfig::fixed_period(SimDuration::from_secs(3))).run();
        let remus = small_scenario(ReplicationConfig::remus(SimDuration::from_secs(3))).run();
        let hp = here.mean_pause().unwrap();
        let rp = remus.mean_pause().unwrap();
        assert!(rp > hp, "remus pause {rp} should exceed here pause {hp}");
    }

    #[test]
    fn dynamic_manager_shrinks_period_under_light_load() {
        let scenario = Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(4)
            .workload(Box::new(MemStress::with_percent(5).with_rate(500)))
            .config(ReplicationConfig::dynamic(0.3, SimDuration::from_secs(3)))
            .duration(SimDuration::from_secs(120))
            .build()
            .unwrap();
        let report = scenario.run();
        let (_, _, last) = report.checkpoint_log().last().unwrap();
        let last_period = last.chosen_period.as_secs_f64();
        assert!(
            last_period < 1.0,
            "period should shrink toward sigma, got {last_period}"
        );
    }

    #[test]
    fn unprotected_baseline_outruns_replicated() {
        let baseline = Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(4)
            .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
            .unprotected()
            .duration(SimDuration::from_secs(30))
            .build()
            .unwrap()
            .run();
        let replicated = small_scenario(ReplicationConfig::remus(SimDuration::from_secs(1))).run();
        assert!(baseline.throughput_ops_per_sec > replicated.throughput_ops_per_sec);
        assert!(baseline.checkpoints.is_empty());
        assert!(baseline.stage_events.is_empty());
    }

    #[test]
    fn accident_triggers_failover_with_short_resumption() {
        let scenario = Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(2)
            .workload(Box::new(MemStress::with_percent(20).with_rate(5_000)))
            .config(ReplicationConfig::fixed_period(SimDuration::from_secs(2)))
            .duration(SimDuration::from_secs(30))
            .failure(FailurePlan {
                at: SimTime::from_secs(10),
                cause: FailureCause::Accident(DosOutcome::Crash),
                reattack_secondary: false,
            })
            .build()
            .unwrap();
        let report = scenario.run();
        let fo = report.failover.expect("failover must have happened");
        // kvmtool activation + device switch + state load ≈ 10 ms.
        let resumption = fo.resumption_time();
        assert!(
            resumption < SimDuration::from_millis(15),
            "resumption {resumption}"
        );
        assert!(fo.devices_switched == 3);
        assert!(report.ops_completed > 0.0);
    }

    /// A 64 MiB, 4-vCPU MemStress session into three replicas at quorum
    /// 2, wire v3 offered, with the given replica wire caps and fault plan,
    /// writing `pages_per_sec` pages a second over a 4 915-page working
    /// set.
    fn fanout_session(caps: Vec<u16>, plan: FaultPlan, pages_per_sec: u64) -> Session {
        let cfg = ReplicationConfig::fixed_period(SimDuration::from_secs(2))
            .with_topology(TopologyConfig {
                replicas: 3,
                quorum: 2,
                fanout: FanoutMode::Star,
                stale_epoch_lag: 4,
            })
            .with_wire_v3()
            .with_replica_wire_caps(caps);
        Session::new(SessionSetup {
            name: "fanout".into(),
            memory: ByteSize::from_mib(64),
            vcpus: 4,
            cfg,
            workload: Box::new(MemStress::with_percent(30).with_rate(pages_per_sec)),
            seed: 0x4845_5245,
            load_during_seed: false,
            verify_consistency: false,
            chaos: Some(plan),
        })
        .unwrap()
    }

    #[test]
    fn seeding_follows_the_fault_plan_at_epoch_zero() {
        // Every seeding round is seq 0; generated plans start at epoch 1,
        // so none of them reaches the seed.
        for seed in 0..256 {
            let plan = FaultPlan::generate(seed, 20);
            assert!(
                plan.events()
                    .iter()
                    .all(|e| matches!(e.trigger, FaultTrigger::Epoch(epoch) if epoch > 0)),
                "seed {seed}"
            );
        }

        // One dropped attempt toward replica 1 is retried in every round.
        let plan = FaultPlan::new(1).with_event_on(0, 1, FaultKind::Drop { attempts: 1 });
        let mut session = fanout_session(vec![3, 2, 3], plan, 20_000);
        crate::migrate::seed(&mut session).unwrap();
        let count =
            |matches: fn(&SessionEvent) -> bool| session.log.iter().filter(|e| matches(e)).count();
        let rounds = count(|e| matches!(e, SessionEvent::Migration { .. }));
        let retries = count(|e| {
            matches!(
                e,
                SessionEvent::TransferRetry {
                    seq: 0,
                    replica: 1,
                    ..
                }
            )
        });
        assert!(rounds >= 2, "{rounds} seeding rounds");
        assert_eq!(retries, rounds, "one retry per seeding round");
        for replica in 0..3 {
            session.assert_replica_matches_primary(0, replica).unwrap();
        }

        // Ten drops outlast the default budget of four attempts.
        let plan = FaultPlan::new(1).with_event_on(0, 1, FaultKind::Drop { attempts: 10 });
        let mut session = fanout_session(vec![3, 2, 3], plan, 20_000);
        let err = crate::migrate::seed(&mut session).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::EpochAborted {
                    seq: 0,
                    attempts: 4
                }
            ),
            "{err}"
        );
    }

    /// What a run leaves behind: every replica's image and vCPU register
    /// digests, and the report.
    type FanoutRun = (Vec<(GuestMemory, Vec<u64>)>, RunReport);

    /// Seeds `session` and checkpoints it the way `run_replicated` does,
    /// without warmup, for 30 virtual seconds or until a fault-plane
    /// primary crash fails it over.
    fn run_fanout(mut session: Session) -> FanoutRun {
        let migration = crate::migrate::seed(&mut session).unwrap();
        let start = session.clock;
        session.workload_now_base = start;
        session.measure_base = start;
        session.buffering = true;
        session.workload_started = true;
        let end = start + SimDuration::from_secs(30);
        let mut failover = None;
        while session.clock < end {
            let t = session.period.current();
            let epoch_end = (session.clock + t).min(end);
            session.advance(epoch_end.saturating_duration_since(session.clock), true);
            match do_checkpoint(&mut session, t) {
                Ok(()) => {}
                Err(CoreError::InjectedPrimaryFault { .. }) => {
                    failover = Some(session.failover(session.clock).unwrap());
                    break;
                }
                Err(e) => panic!("{e}"),
            }
        }
        let images = session
            .replicas
            .iter()
            .map(|member| {
                let vm = member.host.vm(member.vm).unwrap();
                let vcpus = vm.vcpus().iter().map(|v| v.regs.digest()).collect();
                (vm.memory().clone(), vcpus)
            })
            .collect();
        (images, session.finish(migration, failover, start))
    }

    /// Runs `plan` with 0–3 fan-out helpers and the consistency check on:
    /// every applied replica, a catch-up included, must equal the primary
    /// after each transfer, and all four runs must leave identical replica
    /// images, commits, logs (host clock aside) and fingerprints. Returns
    /// the serial run.
    fn helper_count_invariant(plan: &FaultPlan, pages_per_sec: u64) -> FanoutRun {
        let mut runs = (0..=3).map(|helpers| {
            let mut session = fanout_session(vec![3, 2, 3], plan.clone(), pages_per_sec);
            session.fanout_helpers = helpers;
            session.verify_consistency = true;
            run_fanout(session)
        });
        let serial = runs.next().expect("four runs");
        let (images, report) = &serial;
        assert!(report.consistency_checks > 0, "{plan:?}");
        for (helpers, (other_images, other)) in (1..).zip(runs) {
            assert!(
                &other_images == images,
                "helpers {helpers}: replica images, {plan:?}"
            );
            assert_eq!(other.commits, report.commits, "helpers {helpers}, {plan:?}");
            assert_eq!(
                other
                    .events
                    .iter()
                    .map(SessionEvent::without_host_clock)
                    .collect::<Vec<_>>(),
                report
                    .events
                    .iter()
                    .map(SessionEvent::without_host_clock)
                    .collect::<Vec<_>>(),
                "helpers {helpers}, {plan:?}"
            );
            assert_eq!(
                other.fingerprint(),
                report.fingerprint(),
                "helpers {helpers}, {plan:?}"
            );
        }
        serial
    }

    /// A seeded fault plan over the first 15 epochs: up to two partition
    /// spans over one or two replicas, for some or all of an epoch's
    /// attempts; up to two drops and two corruptions of one replica's
    /// first attempts; and perhaps a primary crash in the middle of a
    /// transfer.
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
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The fan-out's helper count changes no decision under any
        /// generated fault plan (see `helper_count_invariant`). At 1 500
        /// pages a second an epoch rewrites 3 000 pages of the 4 915-page
        /// working set, so a catch-up epoch leaves some backlog pages as
        /// the backlog has them: which of two missed versions it keeps
        /// shows in the consistency check.
        #[test]
        fn the_staged_fan_out_is_helper_count_invariant(plan in fault_plan()) {
            helper_count_invariant(&plan, 1_500);
        }
    }

    #[test]
    fn the_quorum_faults_plan_fails_over_after_a_catch_up() {
        // The facade tests' `quorum_faults` plan: epoch 2 corrupts replica
        // 0's first attempt (it is staged on its retry), epoch 3 drops it
        // for good, replica 2 is partitioned over epochs 4–10 and catches
        // up by a v3 rebase, and the primary crashes mid-transfer at 13.
        let plan = FaultPlan::new(7)
            .with_event(2, FaultKind::Corrupt { attempts: 1 })
            .with_event(3, FaultKind::Drop { attempts: 10 })
            .with_partition_span(4..=10, &[2], 10)
            .with_event(
                13,
                FaultKind::PrimaryFault {
                    outcome: DosOutcome::Crash,
                    stage: Stage::Transfer,
                },
            );
        let (_, report) = helper_count_invariant(&plan, 20_000);
        assert!(
            report.failover.is_some(),
            "the crash at epoch 13 fails over"
        );
        assert!(report.commits.len() >= 10, "{}", report.commits.len());
        let caught_up = report
            .events
            .iter()
            .any(|e| matches!(e, SessionEvent::Ack { replica: 2, seq, .. } if *seq > 10));
        assert!(caught_up, "replica 2 must catch up after its partition");
    }

    #[test]
    fn steady_state_checkpoints_spawn_no_thread() {
        // Seeding spawns the session's one set of workers; after that the
        // harvest, the encode rounds and the fan-out all run on them.
        let mut session = fanout_session(vec![3, 3, 3], FaultPlan::new(1), 20_000);
        crate::migrate::seed(&mut session).unwrap();
        let seeded = session.pools.lanes.workers_spawned();
        assert_eq!(seeded, session.threads as usize);
        session.buffering = true;
        session.workload_started = true;
        let mut spawned = Vec::new();
        for _ in 0..8 {
            let t = session.period.current();
            session.advance(t, true);
            do_checkpoint(&mut session, t).unwrap();
            spawned.push(session.pools.lanes.workers_spawned());
        }
        let pool_rounds = session
            .log
            .iter()
            .filter(|event| matches!(event, SessionEvent::EncodePool { .. }))
            .count();
        assert!(pool_rounds >= 7, "encode rounds ran: {pool_rounds}");
        assert_eq!(spawned, vec![seeded; 8]);
    }

    #[test]
    fn a_staged_error_surfaces_where_the_serial_apply_raises_it() {
        // Replica 1's committed base is 5, the stream names 0 and it has
        // no backlog to rebase onto: its pass 1 fails. Replica 0 must
        // already hold the epoch, replica 2 must not, and the log must
        // end where the serial loop's does, whatever the helper count.
        let outcomes: Vec<_> = (0..=3)
            .map(|helpers| {
                let mut session = fanout_session(vec![3, 3, 3], FaultPlan::new(1), 20_000);
                session.fanout_helpers = helpers;
                session.replicas.get_mut(1).base_epoch = 5;
                let vm = session.primary.vm_mut(session.pvm).unwrap();
                for frame in [3, 4, 900] {
                    vm.guest_write(PageId::new(frame), VcpuId::new(0)).unwrap();
                }
                let err = pipeline::begin(&mut session)
                    .and_then(|paused| paused.harvest())
                    .and_then(|harvested| harvested.translate())
                    .and_then(|translated| translated.transfer())
                    .unwrap_err();
                let touched: Vec<u64> = session
                    .replicas
                    .iter()
                    .map(|member| {
                        let vm = member.host.vm(member.vm).unwrap();
                        vm.memory().touched_pages()
                    })
                    .collect();
                let log: Vec<_> = session
                    .log
                    .iter()
                    .map(SessionEvent::without_host_clock)
                    .collect();
                (err.to_string(), touched, log)
            })
            .collect();
        let (err, touched, _) = &outcomes[0];
        assert_eq!(
            err,
            "replication stream error: delta base mismatch: stream encoded against \
             epoch 0, replica holds epoch 5"
        );
        assert_eq!(touched, &[3, 0, 0]);
        assert!(outcomes.iter().all(|outcome| outcome == &outcomes[0]));
    }
}
