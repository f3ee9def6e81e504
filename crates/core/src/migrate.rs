//! The seeding phase: live migration from primary to replica shell
//! (§3.2 step ②–③, with §7.2's multithreaded optimisations).
//!
//! Seeding is iterative pre-copy: a full-memory pass, then rounds that
//! resend whatever the guest dirtied during the previous round, until the
//! dirty set drops to [`DEFAULT_MIGRATION_DIRTY_THRESHOLD`] or the
//! iteration cap [`DEFAULT_MAX_MIGRATION_ITERATIONS`] forces the final
//! stop-and-copy (Xen's values; nothing varies them).
//!
//! Every seeding round — the full copy, each pre-copy round and the
//! stop-and-copy — ships as a seq-0 checkpoint stream through
//! `Session::ship_checkpoint`, in each replica's negotiated wire version:
//! the replica is written only by the receive path (frame checksums,
//! range checks, the two-phase staged apply) the continuous phase uses,
//! and reached only by the send loop it uses, `Session::fan_out`. The
//! virtual clock is charged the migration cost model, not the checkpoint
//! one. The fault plane governs a round as it governs a checkpoint: a
//! plan event at epoch 0 fires in every round, a failed attempt is
//! retried, and a replica that exhausts its retry budget fails the seed
//! with `CoreError::EpochAborted { seq: 0, .. }`.
//!
//! Strategy differences are methods of
//! [`Strategy`](crate::config::Strategy): HERE pays a one-time
//! thread-pool setup, and its per-vCPU migrator threads feed the
//! problematic-page tracker so cross-thread pages are resent in the
//! stop-and-copy; Remus does neither.

use here_vmstate::MemoryDelta;

use crate::config::{DEFAULT_MAX_MIGRATION_ITERATIONS, DEFAULT_MIGRATION_DIRTY_THRESHOLD};
use crate::error::CoreResult;
use crate::report::{IterationStats, MigrationOutcome};
use crate::session::{Session, SessionPhase};
use crate::trace::SessionEvent;
use crate::transfer::{collect_chunked_into, ProblematicTracker};

/// Ships one seeding round's `delta` to every replica as a seq-0
/// checkpoint stream, then says that the round `stats` describes ended
/// at the session clock and records it.
fn ship_round(
    session: &mut Session,
    iterations: &mut Vec<IterationStats>,
    phase: &'static str,
    delta: &MemoryDelta,
    stats: IterationStats,
) -> CoreResult<()> {
    session.ship_checkpoint(delta, 0)?;
    session.emit(SessionEvent::Migration {
        iteration: stats.index as u64,
        pages: stats.pages,
        phase,
        at_nanos: session.clock.as_nanos(),
        duration: stats.duration,
    });
    iterations.push(stats);
    Ok(())
}

/// Runs the seeding migration to completion, leaving the session in the
/// replicating phase with the replica an exact copy of the primary.
pub(crate) fn seed(session: &mut Session) -> CoreResult<MigrationOutcome> {
    session.enter_phase(SessionPhase::Seeding);
    let costs = session.cfg.costs;
    let strategy = session.cfg.strategy;
    let mut iterations = Vec::new();
    let mut tracker = ProblematicTracker::new();
    let started = session.clock;

    // Thread-pool and per-vCPU PML setup (zero for Remus); the VM keeps
    // running. The session's workers are spawned here, once: no harvest,
    // encode round or fan-out after this creates a thread.
    session.advance(strategy.migration_setup(&costs), false);
    if session.threads > 1 {
        session.pools.lanes.ensure_workers(session.threads as usize);
    }

    // Iteration 0: every page of the VM goes over. Content snapshot first
    // (what iteration 0 sends), then the guest keeps dirtying during the
    // copy. Later rounds reuse the snapshot's allocation.
    let total_pages = session.primary.vm(session.pvm)?.memory().num_pages();
    let round = costs.migration_round(total_pages, session.threads);
    let mut delta: MemoryDelta = session
        .primary
        .vm(session.pvm)?
        .memory()
        .touched_iter()
        .collect();
    session.advance(round, false);
    let stats = IterationStats {
        index: 0,
        pages: total_pages,
        duration: round,
        problematic_new: 0,
    };
    ship_round(session, &mut iterations, "full_copy", &delta, stats)?;

    // Iterative pre-copy.
    let mut index = 1u32;
    loop {
        let snapshot = session.take_dirty_snapshot();
        let dirty_count = snapshot.count();
        let last = dirty_count <= DEFAULT_MIGRATION_DIRTY_THRESHOLD
            || index >= DEFAULT_MAX_MIGRATION_ITERATIONS;
        if last {
            // Final stop-and-copy: pause, then send the remaining dirty
            // pages plus the problematic resend list, plus vCPU/device
            // state.
            session.primary.vm_mut(session.pvm)?.pause()?;
        }
        // Copy this round's dirty set (while the guest keeps running,
        // unless this is the stop-and-copy).
        let vm = session.primary.vm(session.pvm)?;
        collect_chunked_into(
            vm.memory(),
            &snapshot,
            session.threads,
            &mut session.pools.collect,
            &mut delta,
        );
        if last {
            let problematic = tracker.resend_list();
            let problematic_resent = problematic.len() as u64;
            delta.merge(&session.pages_to_delta(&problematic)?);
            let pages = delta.len() as u64;
            let downtime = costs.migration_round(pages, session.threads) + costs.checkpoint_const;
            session.clock += downtime;
            let stats = IterationStats {
                index,
                pages,
                duration: downtime,
                problematic_new: 0,
            };
            ship_round(session, &mut iterations, "stop_and_copy", &delta, stats)?;
            session.primary.vm_mut(session.pvm)?.resume()?;
            session.enter_phase(SessionPhase::Replicating);
            return Ok(MigrationOutcome {
                total: session.clock.saturating_duration_since(started),
                downtime,
                pages_sent: iterations.iter().map(|round| round.pages).sum(),
                problematic_resent,
                iterations,
            });
        }
        let before = tracker.len();
        strategy.track_problematic(&mut tracker, &delta);
        let round = costs.migration_round(dirty_count, session.threads);
        session.advance(round, false);
        let stats = IterationStats {
            index,
            pages: dirty_count,
            duration: round,
            problematic_new: (tracker.len() - before) as u64,
        };
        ship_round(session, &mut iterations, "pre_copy", &delta, stats)?;
        index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FanoutMode, ReplicationConfig, TopologyConfig};
    use crate::engine::Scenario;
    use crate::session::SessionSetup;
    use here_sim_core::rate::ByteSize;
    use here_sim_core::time::SimDuration;
    use here_workloads::memstress::MemStress;

    fn seed_with(builder: crate::engine::ScenarioBuilder) -> MigrationOutcome {
        builder
            .vm_memory_mib(64)
            .vcpus(2)
            .config(ReplicationConfig::fixed_period(SimDuration::from_secs(2)))
            .duration(SimDuration::from_secs(2))
            .build()
            .expect("valid scenario")
            .run()
            .migration
            .expect("a replicated run seeds first")
    }

    #[test]
    fn seeding_stops_at_the_dirty_threshold_or_the_iteration_cap() {
        // An idle guest dirties less than the threshold per round: the
        // first pre-copy check already converges to the stop-and-copy.
        let idle = seed_with(Scenario::builder());
        assert_eq!(idle.iterations.len(), 2, "{:?}", idle.iterations);
        assert!(idle.iterations[1].pages <= DEFAULT_MIGRATION_DIRTY_THRESHOLD);

        // A guest that out-dirties every round never converges: the cap
        // forces the stop-and-copy, with the backlog it could not shed.
        let stress = MemStress::with_percent(60).with_rate(400_000);
        let loaded = seed_with(
            Scenario::builder()
                .workload(Box::new(stress))
                .load_during_seed(),
        );
        let last = loaded.iterations.last().expect("iterations");
        assert_eq!(last.index, DEFAULT_MAX_MIGRATION_ITERATIONS);
        assert!(last.pages > DEFAULT_MIGRATION_DIRTY_THRESHOLD);
    }

    #[test]
    fn every_seeding_round_ships_as_a_checkpoint_stream() {
        // Xen into KVM, Xen and KVM; wire v3 offered, replica 1 capped at
        // v2, so each round is encoded in both versions.
        let cfg = ReplicationConfig::fixed_period(SimDuration::from_secs(2))
            .with_topology(TopologyConfig {
                replicas: 3,
                quorum: 2,
                fanout: FanoutMode::Star,
                stale_epoch_lag: 4,
            })
            .with_wire_v3()
            .with_replica_wire_caps(vec![3, 2, 3]);
        let mut session = Session::new(SessionSetup {
            name: "seed".into(),
            memory: ByteSize::from_mib(64),
            vcpus: 4,
            cfg,
            workload: Box::new(MemStress::with_percent(30).with_rate(20_000)),
            seed: 0x4845_5245,
            load_during_seed: true,
            verify_consistency: false,
            chaos: None,
        })
        .unwrap();
        let outcome = seed(&mut session).unwrap();
        assert!(outcome.iterations.len() >= 3, "{:?}", outcome.iterations);

        let rounds = session
            .log
            .iter()
            .filter(|event| matches!(event, SessionEvent::Migration { .. }))
            .count();
        let encodes = session
            .log
            .iter()
            .filter(|event| matches!(event, SessionEvent::EncodeLanes { seq: 0, .. }))
            .count();
        assert_eq!(encodes, rounds, "one seq-0 encode per seeding round");

        // Staging is sized per round; no round is larger than the full
        // copy's page count, so no staging buffer may be either.
        let full_copy = outcome.iterations[0].pages as usize;
        for replica in 0..3 {
            session.assert_replica_matches_primary(0, replica).unwrap();
            let staging = session.replicas.get(replica).apply.capacity();
            assert!(
                staging <= full_copy,
                "replica {replica} staging grew to {staging} pages past the {full_copy}-page full copy"
            );
        }
    }
}
