//! The staged checkpoint pipeline.
//!
//! Continuous replication advances one checkpoint at a time through six
//! explicit, typed stages (§3.2):
//!
//! ```text
//! Pause → Harvest → Translate → Transfer → Ack → Resume
//! ```
//!
//! Each stage is a typestate token ([`Paused`], [`Harvested`], …) that
//! owns the session borrow, so stages cannot be skipped or reordered at
//! compile time. Crossing a stage boundary emits one
//! [`StageEvent`](crate::trace::StageEvent) into the session's event log
//! and advances virtual time by
//! that stage's share of the pause model `t = αN/P + C` (Eq. 4): the
//! strategy's extra constant for *Pause*, the parallel scan `αN/P` for
//! *Harvest*, the constant `C` for *Translate*, the wire term for
//! *Transfer*, and one replication-link RTT for *Ack*. The sum of the
//! pause-counting stages therefore equals
//! [`CostModel::checkpoint_pause`](crate::config::CostModel::checkpoint_pause)
//! exactly — stage attribution can never drift from the total.
//!
//! *Ack* feeds each replica's ack to the
//! [`CommitLedger`](crate::failover::CommitLedger); the quorum-th one
//! mints the [`Commit`](crate::failover::Commit) the session spends to
//! release output and move the delta base. The stages decide nothing
//! about commit themselves.
//!
//! What Remus and HERE do differently (the secondary-host pairing, the
//! thread count, the seeding setup cost, problematic-page tracking and
//! the per-checkpoint extra constant) is a `match` in the methods of
//! [`Strategy`](crate::config::Strategy); the pipeline itself is
//! strategy-agnostic.

use std::fmt;

use here_hypervisor::PAGE_SIZE;
use here_sim_core::time::SimDuration;
use here_vmstate::wire::{PAGE_META_BYTES, VERSION_V3};
use here_vmstate::MemoryDelta;

use crate::error::CoreResult;
use crate::session::{EpochPages, EpochStreams, Session};
use crate::trace::Stage;

/// What one completed trip through the pipeline produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// The checkpoint's sequence number.
    pub seq: u64,
    /// Dirty pages copied.
    pub pages: u64,
    /// The VM-visible pause `t` (sum of the pause-counting stages).
    pub pause: SimDuration,
}

/// Starts a checkpoint: bumps the sequence number, pauses the VM, pays
/// the strategy's extra constant, and emits the *Pause* event.
pub(crate) fn begin(session: &mut Session) -> CoreResult<Paused<'_>> {
    session.seq += 1;
    let seq = session.seq;
    session.chaos_primary_fault(seq, Stage::Pause)?;
    let paused_at = session.clock;
    session.primary.vm_mut(session.pvm)?.pause()?;
    let extra = session.cfg.strategy.pause_extra(&session.cfg.costs);
    session.record_stage(seq, Stage::Pause, paused_at, extra, None, 0, 0);
    session.clock += extra;
    Ok(Paused {
        session,
        seq,
        pause: extra,
    })
}

/// Stage token: the VM is paused; dirty pages have not been collected yet.
pub struct Paused<'s> {
    session: &'s mut Session,
    seq: u64,
    pause: SimDuration,
}

impl<'s> Paused<'s> {
    /// *Harvest*: snapshot-and-clear the dirty bitmap and keep the
    /// snapshot, with its per-chunk dirty counts, as the epoch's harvest;
    /// pay the parallel scan `αN/P`.
    ///
    /// No page list is built: the primary stays paused until *Resume*,
    /// so the snapshot over its record table already is the list, and
    /// *Translate*'s encode lanes walk it in place.
    pub(crate) fn harvest(self) -> CoreResult<Harvested<'s>> {
        let Paused {
            session,
            seq,
            mut pause,
        } = self;
        session.chaos_primary_fault(seq, Stage::Harvest)?;
        let harvest_start = std::time::Instant::now();
        let snapshot = session.take_dirty_snapshot();
        // The count table is last epoch's, refilled in place.
        session.pools.harvest.retake(snapshot);
        let wall = harvest_start.elapsed().as_nanos() as u64;
        let pages = session.pools.harvest.len() as u64;
        let scan = session.cfg.costs.checkpoint_scan(pages, session.threads);
        let at = session.clock;
        session.record_stage(
            seq,
            Stage::Harvest,
            at,
            scan,
            Some(wall),
            pages,
            pages * PAGE_SIZE,
        );
        session.clock += scan;
        pause += scan;
        Ok(Harvested {
            session,
            seq,
            pause,
            pages,
            scan,
        })
    }
}

/// Stage token: the dirty snapshot is taken; state has not been encoded.
pub struct Harvested<'s> {
    session: &'s mut Session,
    seq: u64,
    pause: SimDuration,
    pages: u64,
    /// The *Harvest* stage's parallel-scan duration, carried forward so
    /// *Transfer* can size the encode/transfer overlap window.
    scan: SimDuration,
}

impl<'s> Harvested<'s> {
    /// *Translate*: encode the harvested pages, read by the encode lanes
    /// straight from the dirty snapshot and the paused primary's record
    /// table (one walk per task, both wire versions' records from it for
    /// a mixed replica set), then capture vCPU/device state and translate
    /// it to the common format; pay the constant `C`.
    pub(crate) fn translate(self) -> CoreResult<Translated<'s>> {
        let Harvested {
            session,
            seq,
            mut pause,
            pages,
            scan,
        } = self;
        session.chaos_primary_fault(seq, Stage::Translate)?;
        let encode_start = std::time::Instant::now();
        let streams = session.encode_checkpoint(EpochPages::Harvest, seq)?;
        let wall = encode_start.elapsed().as_nanos() as u64;
        let cost = session.cfg.costs.checkpoint_const;
        let at = session.clock;
        session.record_stage(
            seq,
            Stage::Translate,
            at,
            cost,
            Some(wall),
            pages,
            streams.canonical().len() as u64,
        );
        session.clock += cost;
        pause += cost;
        Ok(Translated {
            session,
            seq,
            pause,
            streams,
            pages,
            scan,
        })
    }
}

/// Stage token: the checkpoint stream is encoded but not yet shipped.
pub struct Translated<'s> {
    session: &'s mut Session,
    seq: u64,
    pause: SimDuration,
    streams: EpochStreams,
    pages: u64,
    /// The epoch's harvest-scan duration: the window the wire can hide
    /// under when encode/transfer overlap is on.
    scan: SimDuration,
}

impl<'s> Translated<'s> {
    /// *Transfer*: send the encoded streams to the replica set through
    /// [`Session::fan_out`], the send loop every seeding round uses too
    /// (each replica decodes its own clone over its own link), charging
    /// each attempt the per-page wire cost of the replica's wire version
    /// — in parallel across links for a star fan-out (stage duration is
    /// the slowest replica), serially along the chain for chained
    /// replication (stage duration is the sum). Verifies replica/primary
    /// equality when the scenario asks for it.
    ///
    /// The fan-out draws the fault plane and retries failed attempts; a
    /// replica that exhausts its budget misses the epoch, and this stage
    /// decides what that means: its pages are queued as catch-up backlog
    /// and it converges asynchronously. Only when so many replicas miss
    /// that a quorum cannot apply does the stage return
    /// [`CoreError::EpochAborted`](crate::error::CoreError::EpochAborted):
    /// the stream is discarded and the epoch loop rolls the pages into
    /// the next checkpoint. Without a fault plane the single attempt per
    /// replica succeeds and, at N = 1, this stage is byte-identical to
    /// the unhardened path.
    pub(crate) fn transfer(self) -> CoreResult<Transferred<'s>> {
        let Translated {
            session,
            seq,
            mut pause,
            streams,
            pages,
            scan,
        } = self;
        session.chaos_primary_fault(seq, Stage::Transfer)?;
        let bytes = streams.canonical().len() as u64;
        let wire_v2 = session.cfg.costs.checkpoint_wire(pages);
        // A v3 link carries the columnar stream's page records instead of
        // one fixed-size meta per page: its wire time scales by those
        // bytes expressed in v2 page-meta equivalents (never more than
        // the v2 page count).
        let wire_v3 = if streams.v3.is_some() {
            let equiv = streams
                .v3_page_bytes
                .div_ceil(PAGE_META_BYTES as u64)
                .min(pages);
            session.cfg.costs.checkpoint_wire(equiv)
        } else {
            wire_v2
        };
        let fanout = session.cfg.topology.fanout;
        let replica_count = session.replicas.len() as u32;
        // Each replica decodes a clone of the scattered segments; once
        // every apply lands, the clones are dropped and the original's
        // segments are sole-owner again, so the pool reclaims their
        // allocations.
        let apply_start = std::time::Instant::now();
        let outcomes = session.fan_out(&streams, seq, |version| {
            if version >= VERSION_V3 {
                wire_v3
            } else {
                wire_v2
            }
        })?;
        let applied: Vec<u32> = (0..replica_count)
            .filter(|&replica| outcomes[replica as usize].0)
            .collect();
        let spents = outcomes.iter().map(|&(_, spent)| spent);
        // Star links run concurrently; a chain forwards hop by hop.
        let spent = match fanout {
            crate::config::FanoutMode::Star => spents.max().unwrap_or(SimDuration::ZERO),
            crate::config::FanoutMode::Chain => {
                spents.fold(SimDuration::ZERO, |acc, s| acc.saturating_add(s))
            }
        };
        // Encode/transfer overlap (§overlap knob): with the bounded
        // channel streaming completed chunks onto the wire while later
        // chunks are still encoding, all but the last chunk's share of
        // the smaller of (scan, wire) hides under the encode window. The
        // credit is integer arithmetic — window − window/chunks — so the
        // accounting stays deterministic, and it applies identically on
        // the commit and abort paths so the recorded stage duration
        // always equals the pause contribution. A chain pays its hops
        // serially but still streams into the first hop, so the credit
        // applies once to the combined spent, not per hop.
        let credit = if session.cfg.overlap_transfer {
            let chunks = session.cfg.epoch_chunks(pages, session.threads);
            let window = if scan < spent { scan } else { spent };
            window.saturating_sub(window / chunks.max(1))
        } else {
            SimDuration::ZERO
        };
        let visible = spent.saturating_sub(credit);
        let wall = apply_start.elapsed().as_nanos() as u64;
        let quorum = session.ledger.quorum() as usize;
        if applied.len() < quorum {
            // Not enough replicas hold the epoch for it to ever commit:
            // abort it wholesale, exactly like a single exhausted pair.
            session.recycle_streams(streams);
            let at = session.clock;
            session.note_overlap_credit(seq, credit);
            session.record_stage(seq, Stage::Transfer, at, visible, Some(wall), pages, bytes);
            session.clock += visible;
            return Err(crate::error::CoreError::EpochAborted {
                seq,
                attempts: crate::config::RETRY.max_attempts,
            });
        }
        // Replicas that missed the epoch catch up asynchronously: the
        // pages they missed, collected from the snapshot only now, ride
        // their backlog into the next apply.
        if applied.len() < replica_count as usize {
            let mut missed = MemoryDelta::new();
            let vm = session.primary.vm(session.pvm)?;
            session.pools.harvest.collect_into(vm.memory(), &mut missed);
            for replica in 0..replica_count {
                if !applied.contains(&replica) {
                    session.note_replica_backlog(replica, &missed);
                }
            }
        }
        if session.verify_consistency {
            for &replica in &applied {
                session.assert_replica_matches_primary(seq, replica)?;
                session.consistency_checks += 1;
            }
        }
        session.recycle_streams(streams);
        let at = session.clock;
        session.note_overlap_credit(seq, credit);
        session.record_stage(seq, Stage::Transfer, at, visible, Some(wall), pages, bytes);
        session.clock += visible;
        pause += visible;
        Ok(Transferred {
            session,
            seq,
            pause,
            pages,
            applied,
        })
    }
}

/// Stage token: a quorum of replicas holds the checkpoint; their acks
/// are outstanding.
pub struct Transferred<'s> {
    session: &'s mut Session,
    seq: u64,
    pause: SimDuration,
    pages: u64,
    /// Replicas that fully applied this epoch, in index order.
    applied: Vec<u32>,
}

impl<'s> Transferred<'s> {
    /// *Ack*: every replica that applied the epoch acks it back across
    /// its link — one RTT on a star fan-out, the prefix of chain RTTs on
    /// chained replication. The stage lasts until the quorum-th ack
    /// lands; the ledger turns that ack into the epoch's `Commit`, which
    /// the session spends (buffered output is released to the client),
    /// and later acks are per-replica catch-up bookkeeping. The acks
    /// overlap the resume path, so they do not count toward the
    /// VM-visible pause.
    pub(crate) fn ack(self) -> Acked<'s> {
        let Transferred {
            session,
            seq,
            pause,
            pages,
            applied,
        } = self;
        let fanout = session.cfg.topology.fanout;
        let mut arrivals: Vec<(SimDuration, u32)> = applied
            .iter()
            .map(|&replica| {
                let rtt = match fanout {
                    crate::config::FanoutMode::Star => session.replicas.get(replica).link.rtt(),
                    // The ack hops back along every chain link up to and
                    // including the replica's own.
                    crate::config::FanoutMode::Chain => (0..=replica)
                        .fold(SimDuration::ZERO, |acc, hop| {
                            acc.saturating_add(session.replicas.get(hop).link.rtt())
                        }),
                };
                (rtt, replica)
            })
            .collect();
        // Stable by arrival time: equal RTTs ack in index order.
        arrivals.sort_by_key(|&(rtt, _)| rtt);
        let quorum = (session.ledger.quorum() as usize).clamp(1, arrivals.len().max(1));
        let stage = arrivals
            .get(quorum - 1)
            .map_or(SimDuration::ZERO, |&(rtt, _)| rtt);
        let at = session.clock;
        session.record_stage(seq, Stage::Ack, at, stage, None, 0, 0);
        session.clock += stage;
        for &(rtt, replica) in &arrivals {
            let acked_at = session.rel(at + rtt);
            if let Some(commit) = session.ack(replica, seq, acked_at) {
                session.on_commit(commit, &applied);
            }
        }
        session.update_staleness(seq);
        Acked {
            session,
            seq,
            pause,
            pages,
        }
    }
}

/// Stage token: the checkpoint is committed; the VM is still paused.
pub struct Acked<'s> {
    session: &'s mut Session,
    seq: u64,
    pause: SimDuration,
    pages: u64,
}

impl Acked<'_> {
    /// *Resume*: the VM runs again, carrying the post-pause disturbance
    /// debt (§8.6).
    pub(crate) fn resume(self) -> CoreResult<CheckpointSummary> {
        let Acked {
            session,
            seq,
            pause,
            pages,
        } = self;
        session.primary.vm_mut(session.pvm)?.resume()?;
        session.disturbance_debt += session.cfg.costs.pause_disturbance;
        let at = session.clock;
        session.record_stage(seq, Stage::Resume, at, SimDuration::ZERO, None, 0, 0);
        Ok(CheckpointSummary { seq, pages, pause })
    }
}

macro_rules! opaque_debug {
    ($($token:ident),*) => {$(
        impl fmt::Debug for $token<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct(stringify!($token))
                    .field("seq", &self.seq)
                    .finish_non_exhaustive()
            }
        }
    )*};
}
opaque_debug!(Paused, Harvested, Translated, Transferred, Acked);

#[cfg(test)]
mod tests {
    use crate::config::{CostModel, Strategy};
    use crate::transfer::ProblematicTracker;
    use here_hypervisor::kind::HypervisorKind;
    use here_sim_core::rate::ByteSize;
    use here_sim_core::time::SimDuration;
    use here_vmstate::MemoryDelta;

    #[test]
    fn remus_is_single_threaded_and_pays_the_toolstack_tax() {
        let costs = CostModel::default();
        let remus = Strategy::Remus;
        assert_eq!(remus.effective_threads(4), 1);
        assert_eq!(remus.pause_extra(&costs), costs.remus_extra_const);
        assert_eq!(remus.migration_setup(&costs), SimDuration::ZERO);
    }

    #[test]
    fn here_scales_threads_with_vcpus() {
        let costs = CostModel::default();
        let here = Strategy::Here;
        assert_eq!(here.effective_threads(4), 4);
        assert_eq!(here.effective_threads(0), 1);
        assert_eq!(here.pause_extra(&costs), SimDuration::ZERO);
        assert_eq!(here.migration_setup(&costs), costs.here_migration_setup);
    }

    #[test]
    fn secondaries_pair_per_the_paper() {
        let (remus_sec, remus_tr) = Strategy::Remus
            .make_secondary(ByteSize::from_gib(16))
            .unwrap();
        assert_eq!(remus_sec.kind(), HypervisorKind::Xen);
        assert!(remus_tr.is_none());
        let (here_sec, here_tr) = Strategy::Here
            .make_secondary(ByteSize::from_gib(16))
            .unwrap();
        assert_eq!(here_sec.kind(), HypervisorKind::Kvm);
        assert!(here_tr.is_some());
    }

    #[test]
    fn here_tracks_problematic_pages_and_remus_does_not() {
        use here_hypervisor::memory::PageVersion;
        use here_hypervisor::PageId;
        let mut delta = MemoryDelta::new();
        delta.push(
            PageId::new(7),
            PageVersion {
                version: 1,
                last_writer: 0,
            },
        );
        let mut delta2 = MemoryDelta::new();
        delta2.push(
            PageId::new(7),
            PageVersion {
                version: 2,
                last_writer: 1,
            },
        );
        let mut tracker = ProblematicTracker::new();
        Strategy::Here.track_problematic(&mut tracker, &delta);
        Strategy::Here.track_problematic(&mut tracker, &delta2);
        assert_eq!(tracker.len(), 1);

        let mut tracker = ProblematicTracker::new();
        Strategy::Remus.track_problematic(&mut tracker, &delta);
        Strategy::Remus.track_problematic(&mut tracker, &delta2);
        assert!(tracker.is_empty());
    }
}
