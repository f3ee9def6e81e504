//! The seeding phase: live migration from primary to replica shell
//! (§3.2 step ②–③, with §7.2's multithreaded optimisations).
//!
//! Seeding is iterative pre-copy: a full-memory pass, then rounds that
//! resend whatever the guest dirtied during the previous round, until the
//! dirty set drops to [`DEFAULT_MIGRATION_DIRTY_THRESHOLD`] or the
//! iteration cap [`DEFAULT_MAX_MIGRATION_ITERATIONS`] forces the final
//! stop-and-copy (Xen's values; nothing varies them).
//!
//! Strategy differences are methods of
//! [`Strategy`](crate::config::Strategy): HERE pays a one-time
//! thread-pool setup, and its per-vCPU migrator threads feed the
//! problematic-page tracker so cross-thread pages are resent in the
//! stop-and-copy; Remus does neither.

use here_sim_core::time::SimDuration;
use here_vmstate::MemoryDelta;

use crate::config::{DEFAULT_MAX_MIGRATION_ITERATIONS, DEFAULT_MIGRATION_DIRTY_THRESHOLD};
use crate::error::CoreResult;
use crate::report::{IterationStats, MigrationOutcome};
use crate::session::{Session, SessionPhase};
use crate::trace::SessionEvent;
use crate::transfer::{collect_chunked_into, ProblematicTracker};

/// Says that one migration round of `duration` just ended at the session
/// clock.
fn emit_iteration(
    session: &mut Session,
    iteration: u64,
    pages: u64,
    phase: &'static str,
    duration: SimDuration,
) {
    session.emit(SessionEvent::Migration {
        iteration,
        pages,
        phase,
        at_nanos: session.clock.as_nanos(),
        duration,
    });
}

/// Runs the seeding migration to completion, leaving the session in the
/// replicating phase with the replica an exact copy of the primary.
pub(crate) fn seed(session: &mut Session) -> CoreResult<MigrationOutcome> {
    session.enter_phase(SessionPhase::Seeding);
    let costs = session.cfg.costs;
    let strategy = session.cfg.strategy;
    let mut iterations = Vec::new();
    let mut pages_sent = 0u64;
    let mut tracker = ProblematicTracker::new();
    let started = session.clock;

    // Thread-pool and per-vCPU PML setup (zero for Remus); the VM keeps
    // running. The session's workers are spawned here, once: no harvest,
    // encode round or fan-out after this creates a thread.
    session.advance(strategy.migration_setup(&costs), false);
    if session.threads > 1 {
        session.pools.lanes.ensure_workers(session.threads as usize);
    }

    // Iteration 0: every page of the VM goes over.
    let total_pages = session.primary.vm(session.pvm)?.memory().num_pages();
    let round = costs.migration_round(total_pages, session.threads);
    // Content snapshot first (what iteration 0 sends), then the guest
    // keeps dirtying during the copy.
    let full_delta: MemoryDelta = session
        .primary
        .vm(session.pvm)?
        .memory()
        .touched_iter()
        .collect();
    session.advance(round, false);
    session.install_delta(&full_delta)?;
    pages_sent += total_pages;
    emit_iteration(session, 0, total_pages, "full_copy", round);
    iterations.push(IterationStats {
        index: 0,
        pages: total_pages,
        duration: round,
        problematic_new: 0,
    });

    // Iterative pre-copy.
    let mut iter = 1u32;
    loop {
        let snapshot = session.take_dirty_snapshot();
        let dirty_count = snapshot.count();
        if dirty_count <= DEFAULT_MIGRATION_DIRTY_THRESHOLD
            || iter >= DEFAULT_MAX_MIGRATION_ITERATIONS
        {
            // Final stop-and-copy: pause, send remaining dirty pages
            // plus the problematic resend list, plus vCPU/device state.
            session.primary.vm_mut(session.pvm)?.pause()?;
            let mut final_delta = MemoryDelta::new();
            let vm = session.primary.vm(session.pvm)?;
            collect_chunked_into(
                vm.memory(),
                &snapshot,
                session.threads,
                &mut session.pools.collect,
                &mut final_delta,
            );
            let problematic = tracker.resend_list();
            let problematic_resent = problematic.len() as u64;
            let resend = session.pages_to_delta(&problematic)?;
            final_delta.merge(&resend);
            let downtime = costs.migration_round(final_delta.len() as u64, session.threads)
                + costs.checkpoint_const;
            session.ship_checkpoint(&final_delta, 0)?;
            pages_sent += final_delta.len() as u64;
            session.clock += downtime;
            session.primary.vm_mut(session.pvm)?.resume()?;
            emit_iteration(
                session,
                iter as u64,
                final_delta.len() as u64,
                "stop_and_copy",
                downtime,
            );
            iterations.push(IterationStats {
                index: iter,
                pages: final_delta.len() as u64,
                duration: downtime,
                problematic_new: 0,
            });
            session.enter_phase(SessionPhase::Replicating);
            return Ok(MigrationOutcome {
                iterations,
                total: session.clock.saturating_duration_since(started),
                downtime,
                pages_sent,
                problematic_resent,
            });
        }

        // Copy this round's dirty set while the guest keeps running.
        let mut delta = MemoryDelta::new();
        let vm = session.primary.vm(session.pvm)?;
        collect_chunked_into(
            vm.memory(),
            &snapshot,
            session.threads,
            &mut session.pools.collect,
            &mut delta,
        );
        let before = tracker.len();
        strategy.track_problematic(&mut tracker, &delta);
        let problematic_new = (tracker.len() - before) as u64;
        let round = costs.migration_round(dirty_count, session.threads);
        session.advance(round, false);
        session.install_delta(&delta)?;
        pages_sent += dirty_count;
        emit_iteration(session, iter as u64, dirty_count, "pre_copy", round);
        iterations.push(IterationStats {
            index: iter,
            pages: dirty_count,
            duration: round,
            problematic_new,
        });
        iter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicationConfig;
    use crate::engine::Scenario;
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
}
