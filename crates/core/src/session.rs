//! The live replication session: shared mutable state, its lifecycle FSM,
//! and the data-plane primitives the pipeline stages call.
//!
//! A `Session` owns the primary host, the protected VM and its
//! [`ReplicaSet`], the links, the workload, and all run accounting. What
//! it has to say to an observer it says once, through `Session::emit`: a
//! [`SessionEvent`] appended to one ordered log, which `Session::finish`
//! folds into the planes of [`crate::telemetry`] — nothing here knows
//! which of them are armed. It moves through `SessionPhase`s — created
//! → seeding → replicating → (failed-over) → completed — and every
//! transition is asserted, so the seeding code cannot run twice and
//! nothing checkpoints before the seed.
//!
//! The phase *drivers* live elsewhere: [`crate::migrate`] runs the seeding
//! migration, [`crate::checkpoint`] runs the continuous phase through the
//! staged pipeline of [`crate::pipeline`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use here_hypervisor::arch::Gpr;
use here_hypervisor::fault::HostHealth;
use here_hypervisor::host::Hypervisor;
use here_hypervisor::kind::HypervisorKind;
use here_hypervisor::memory::{GuestMemory, PageVersion};
use here_hypervisor::vcpu::{KvmVcpuState, VcpuStateBlob, XenVcpuState};
use here_hypervisor::vm::{VmConfig, VmId};
use here_hypervisor::{HvError, PageId, VcpuId, XenHypervisor, PAGE_SIZE};
use here_sim_core::metrics::Histogram;
use here_sim_core::rate::ByteSize;
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};
use here_simnet::link::Link;
use here_telemetry::health::HealthObservation;
use here_vmstate::translate::StateTranslator;
use here_vmstate::wire::{
    encode_record_into, Record, ScatterStream, Staged, StreamDecoder, StreamEncoder, VERSION,
    VERSION_V3,
};
use here_vmstate::{reconcile, MemoryDelta, WireError};
use here_workloads::idle::IdleGuest;
use here_workloads::traits::Workload;

use crate::chaos::{corrupt_stream, ChaosState, FaultPlan, TransferFault};
use crate::config::ReplicationConfig;
use crate::dataplane::{
    encode_pages_round, install_staged, stage_next, translate_vcpus, CheckpointPools, EncodePlan,
    LanePool, PayloadMode, ReceiveStep, PARALLEL_ENCODE_MIN_PAGES,
};
use crate::devmgr::DeviceManager;
use crate::error::{CoreError, CoreResult};
use crate::failover::{detection_time_with_loss, Commit, CommitLedger, FailoverRecord};
use crate::period::PeriodManager;
use crate::report::CheckpointRecord;
use crate::topology::{make_replica_hosts, Replica, ReplicaSet};
use crate::trace::{FaultSite, SessionEvent, Stage, StageEvent};

/// Host memory given to each simulated server (the testbed's 192 GB).
pub(crate) const HOST_MEMORY: ByteSize = ByteSize::from_gib(192);

/// Fixed client-side stack overhead added to every packet's latency.
pub(crate) const CLIENT_STACK_OVERHEAD: SimDuration = SimDuration::from_micros(38);

/// Largest workload advance slice; bounds phase-change and emission
/// timestamp granularity.
pub(crate) const MAX_SLICE: SimDuration = SimDuration::from_millis(250);

/// Where a replication session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionPhase {
    /// Hosts and VMs exist; nothing has been copied.
    Created,
    /// The seeding migration is in flight.
    Seeding,
    /// Continuous checkpointing protects the VM.
    Replicating,
    /// The primary died; service continues on the activated replica.
    FailedOver,
    /// The run is over; the report has been (or is being) assembled.
    Completed,
}

impl SessionPhase {
    /// Legal lifecycle edges.
    fn may_enter(self, next: SessionPhase) -> bool {
        use SessionPhase::*;
        matches!(
            (self, next),
            (Created, Seeding)
                | (Seeding, Replicating)
                | (Replicating, FailedOver)
                | (Replicating, Completed)
                | (FailedOver, Completed)
        )
    }
}

/// Everything needed to construct a [`Session`], bundled so the builder
/// hand-off stays readable.
pub(crate) struct SessionSetup {
    pub(crate) name: String,
    pub(crate) memory: ByteSize,
    pub(crate) vcpus: u32,
    pub(crate) cfg: ReplicationConfig,
    pub(crate) workload: Box<dyn Workload>,
    pub(crate) seed: u64,
    pub(crate) load_during_seed: bool,
    pub(crate) verify_consistency: bool,
    pub(crate) chaos: Option<FaultPlan>,
}

/// One epoch's encoded checkpoint, in every wire version the replica set
/// negotiated. A homogeneous set carries exactly one stream; a mixed
/// v2/v3 set carries both, encoded from the same delta, and each replica
/// decodes the stream matching its negotiated version.
#[derive(Debug, Default)]
pub(crate) struct EpochStreams {
    /// Legacy v2 stream (present when any replica negotiated v2).
    pub(crate) v2: Option<ScatterStream>,
    /// Columnar epoch-delta v3 stream (present when any replica
    /// negotiated v3).
    pub(crate) v3: Option<ScatterStream>,
    /// Bytes of the v3 stream's page records (meta + payload columns,
    /// framing included) — the wire-cost model's page-equivalent input.
    pub(crate) v3_page_bytes: u64,
}

impl EpochStreams {
    /// The stream a replica that negotiated `version` decodes.
    pub(crate) fn for_version(&self, version: u16) -> &ScatterStream {
        let stream = if version >= VERSION_V3 {
            self.v3.as_ref().or(self.v2.as_ref())
        } else {
            self.v2.as_ref()
        };
        stream.expect("epoch encoded no stream for a negotiated version")
    }

    /// The stream whose size the stage trace reports: the newest format
    /// on the wire this epoch.
    pub(crate) fn canonical(&self) -> &ScatterStream {
        self.v3
            .as_ref()
            .or(self.v2.as_ref())
            .expect("epoch encoded no stream")
    }

    /// Consumes the bundle, yielding every encoded stream.
    pub(crate) fn into_streams(self) -> impl Iterator<Item = ScatterStream> {
        [self.v2, self.v3].into_iter().flatten()
    }
}

/// Everything mutable during a replicated run.
pub(crate) struct Session {
    pub(crate) name: String,
    pub(crate) phase: SessionPhase,
    pub(crate) clock: SimTime,
    pub(crate) rng: SimRng,
    pub(crate) primary: Box<dyn Hypervisor>,
    /// The N-replica topology; replica 0 is the canonical secondary.
    pub(crate) replicas: ReplicaSet,
    pub(crate) pvm: VmId,
    /// Encode-side translator (primary native → common format); each
    /// replica carries its own failover translator.
    pub(crate) translator: Option<StateTranslator>,
    pub(crate) cfg: ReplicationConfig,
    pub(crate) threads: u32,
    /// Pool workers the Transfer fan-out's phase 1 runs on beside the
    /// calling thread: `min(threads, replicas) − 1`, so a Remus pair
    /// stages serially.
    pub(crate) fanout_helpers: usize,
    pub(crate) period: PeriodManager,
    pub(crate) devmgr: DeviceManager,
    pub(crate) client_link: Link,
    pub(crate) workload: Box<dyn Workload>,
    pub(crate) idle_filler: IdleGuest,
    pub(crate) workload_started: bool,
    pub(crate) load_during_seed: bool,
    pub(crate) workload_now_base: SimTime,
    pub(crate) measure_base: SimTime,
    pub(crate) buffering: bool,
    pub(crate) verify_consistency: bool,
    pub(crate) consistency_checks: u64,
    pub(crate) pools: CheckpointPools,
    /// The fault-injection plane; `None` keeps every hook a fast no-op.
    pub(crate) chaos: Option<ChaosState>,
    // accounting
    pub(crate) seq: u64,
    /// Fully-acked epochs: mints each `Commit` and the failover's
    /// `Activation`.
    pub(crate) ledger: CommitLedger,
    pub(crate) ops_committed: f64,
    pub(crate) ops_uncommitted: f64,
    pub(crate) disturbance_debt: SimDuration,
    /// Everything the session has said happened, in order; rides in
    /// [`RunReport::events`](crate::report::RunReport::events), and every
    /// per-checkpoint view of the report is read off it.
    pub(crate) log: Vec<SessionEvent>,
    /// Lane-pool rounds already reported, so each checkpoint emits at
    /// most one [`SessionEvent::EncodePool`].
    pub(crate) pool_rounds_seen: u64,
    /// Client-observed packet latencies: per-packet data the log does not
    /// carry.
    pub(crate) latencies: Histogram,
}

impl Session {
    /// Builds the full replicated stack: a Xen primary, the configured
    /// [`ReplicaSet`] (replica 0 is the strategy's canonical secondary,
    /// with translators for heterogeneous members), the protected VM
    /// booted with the CPUID contract reconciled across *every* host
    /// (§5.3), and one never-run replica shell per replica.
    pub(crate) fn new(setup: SessionSetup) -> CoreResult<Session> {
        let SessionSetup {
            name,
            memory,
            vcpus,
            cfg,
            workload,
            seed,
            load_during_seed,
            verify_consistency,
            chaos,
        } = setup;

        // Hosts: HERE pairs Xen with KVM/kvmtool; Remus pairs Xen with Xen.
        // Beyond replica 0 the topology alternates families (HERE) or
        // stays homogeneous (Remus).
        let mut primary: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(HOST_MEMORY));
        let hosts = make_replica_hosts(cfg.strategy, HOST_MEMORY, cfg.topology.replicas.max(1))?;
        // The encode side always translates to the common format keyed by
        // the canonical secondary; each replica re-encodes natively.
        let translator = hosts[0].1;

        // Platform reconciliation (§5.3): the VM boots with the
        // intersection of *every* host's CPUID policy, so it can resume
        // anywhere in the set.
        let mut cpuid = primary.default_cpuid();
        for (host, _) in &hosts {
            cpuid = reconcile(&cpuid, &host.default_cpuid()).cpuid;
        }
        let vm_cfg = VmConfig::new(name.clone(), memory, vcpus)
            .map_err(CoreError::Hypervisor)?
            .with_cpuid(cpuid);
        let pvm = primary.create_vm(vm_cfg.clone())?;
        let mut members = Vec::with_capacity(hosts.len());
        for (index, (mut host, failover_translator)) in hosts.into_iter().enumerate() {
            let vm = host.create_shell(vm_cfg.clone())?;
            let mut member = Replica::new(index as u32, host, vm, failover_translator);
            // Per-session version negotiation: each replica speaks
            // min(session offer, its capability). The default offer is v2,
            // so existing sessions negotiate exactly the legacy format.
            member.wire_version = cfg.negotiated_wire_version(index);
            members.push(member);
        }
        let replicas = ReplicaSet::from_replicas(members);
        primary.vm_mut(pvm)?.dirty_mut().enable_logging();

        let threads = cfg.effective_threads(vcpus);
        let fanout_helpers = threads.min(replicas.len() as u32).saturating_sub(1) as usize;
        let period = PeriodManager::new(cfg.period);
        Ok(Session {
            name,
            phase: SessionPhase::Created,
            clock: SimTime::ZERO,
            rng: SimRng::seed_from(seed).fork("workload"),
            primary,
            replicas,
            pvm,
            translator,
            threads,
            fanout_helpers,
            period,
            devmgr: DeviceManager::new(),
            client_link: Link::ethernet_10g(),
            workload,
            idle_filler: IdleGuest::new(),
            workload_started: false,
            load_during_seed,
            workload_now_base: SimTime::ZERO,
            measure_base: SimTime::ZERO,
            buffering: false,
            verify_consistency,
            consistency_checks: 0,
            pools: CheckpointPools::new(),
            chaos: chaos.map(ChaosState::new),
            seq: 0,
            ledger: CommitLedger::with_quorum(
                cfg.topology.replicas.max(1),
                cfg.topology.effective_quorum(),
            ),
            ops_committed: 0.0,
            ops_uncommitted: 0.0,
            disturbance_debt: SimDuration::ZERO,
            log: Vec::new(),
            pool_rounds_seen: 0,
            latencies: Histogram::new(),
            cfg,
        })
    }

    /// Moves the session to `next`, asserting the edge is legal.
    pub(crate) fn enter_phase(&mut self, next: SessionPhase) {
        assert!(
            self.phase.may_enter(next),
            "invalid session transition {:?} -> {:?}",
            self.phase,
            next
        );
        self.phase = next;
    }

    /// Converts an absolute instant to report time (relative to the
    /// measurement start).
    pub(crate) fn rel(&self, t: SimTime) -> SimTime {
        SimTime::ZERO + t.saturating_duration_since(self.measure_base)
    }

    /// Says that something happened: appends `event` to the log. The only
    /// way the session reports anything to an observer.
    pub(crate) fn emit(&mut self, event: SessionEvent) {
        self.log.push(event);
    }

    /// Report-relative nanoseconds of the session clock.
    pub(crate) fn now_nanos(&self) -> u64 {
        self.rel(self.clock).as_nanos()
    }

    /// Says how much wire time the *Transfer* stage about to be recorded
    /// hid under the encode window, when it hid any.
    pub(crate) fn note_overlap_credit(&mut self, seq: u64, credit: SimDuration) {
        if credit > SimDuration::ZERO {
            self.emit(SessionEvent::OverlapCredit { seq, credit });
        }
    }

    /// Emits one stage event at absolute instant `at`. `wall` carries
    /// the host nanoseconds the stage's real work took, where the stage
    /// does real work (see [`StageEvent::wall_nanos`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_stage(
        &mut self,
        seq: u64,
        stage: Stage,
        at: SimTime,
        duration: SimDuration,
        wall: Option<u64>,
        pages: u64,
        bytes: u64,
    ) {
        self.emit(SessionEvent::Stage(StageEvent {
            seq,
            stage,
            at: self.rel(at),
            duration,
            wall_nanos: wall,
            pages,
            bytes,
        }));
    }

    /// Advances the protected VM (and virtual time) by `dt`, slicing for
    /// emission timestamps and phase changes. Returns early if the
    /// workload completes and `stop_done` is set.
    pub(crate) fn advance(&mut self, dt: SimDuration, stop_done: bool) {
        let end = self.clock + dt;
        while self.clock < end {
            let slice = (end - self.clock).clamp(SimDuration::ZERO, MAX_SLICE);
            // Apply pending guest-side disturbance: the workload loses this
            // much effective CPU time after each pause (§8.6).
            let lost = self.disturbance_debt.clamp(SimDuration::ZERO, slice);
            self.disturbance_debt -= lost;
            let effective = slice - lost;
            let slice_start = self.clock;
            let in_seed = !self.workload_started;
            let progress = if effective.is_zero() {
                here_workloads::traits::Progress::default()
            } else {
                let vm = self
                    .primary
                    .vm_mut(self.pvm)
                    .expect("primary must be alive while advancing");
                if in_seed && !self.load_during_seed {
                    // The benchmark has not started yet; an idle guest
                    // supplies the background dirtying the seed copies.
                    self.idle_filler
                        .advance(slice_start, effective, vm, &mut self.rng)
                } else {
                    let wnow = SimTime::ZERO
                        + slice_start.saturating_duration_since(self.workload_now_base);
                    self.workload.advance(wnow, effective, vm, &mut self.rng)
                }
            };
            self.ops_uncommitted += progress.ops;
            for emission in progress.emissions {
                let at = slice_start + emission.offset;
                if self.buffering {
                    // Output of the running epoch: the next checkpoint's.
                    self.devmgr.buffer_outgoing(emission.size, at, self.seq + 1);
                } else {
                    let latency =
                        self.client_link.transfer_time(emission.size) * 2 + CLIENT_STACK_OVERHEAD;
                    self.latencies.observe(latency.as_secs_f64());
                }
            }
            self.clock += slice;
            self.tick_vcpus(slice);
            if stop_done && self.workload.is_done() {
                return;
            }
        }
    }

    /// Advances guest CPU state so checkpoints carry evolving registers.
    fn tick_vcpus(&mut self, dt: SimDuration) {
        let Ok(vm) = self.primary.vm_mut(self.pvm) else {
            return;
        };
        let cycles = dt.as_nanos().saturating_mul(21) / 10; // 2.1 GHz
        let ops_bits = self.ops_uncommitted as u64;
        for vcpu in vm.vcpus_mut() {
            vcpu.regs.tsc = vcpu.regs.tsc.wrapping_add(cycles);
            vcpu.regs.rip = 0xffff_ffff_8100_0000 + (vcpu.regs.tsc % 0x1_0000);
            vcpu.regs.set_gpr(Gpr::Rax, ops_bits);
        }
    }

    /// Snapshot-and-clear the primary's dirty bitmap, returning the
    /// snapshot; the harvest also drains the PML rings so they do not grow
    /// without bound. Delegates to the hypervisor's harvest primitive.
    pub(crate) fn take_dirty_snapshot(&mut self) -> here_hypervisor::dirty::DirtyBitmap {
        self.primary
            .snapshot_dirty(self.pvm)
            .expect("primary must be alive at checkpoint")
    }

    /// Encodes a checkpoint stream: the delta, every vCPU's state
    /// (translated to the common format for heterogeneous pairs), and the
    /// device identities. This is the *send side* of the data plane — real
    /// bytes are produced and checksummed.
    ///
    /// The delta is sharded across encode lanes: pool workers each frame
    /// their own page-batch record into a pooled buffer, and the frozen
    /// lane segments are spliced scatter-gather style into the returned
    /// [`ScatterStream`] — no concatenation, no re-sort. vCPU translation
    /// fans out across the same lanes. Buffers come back to the pool via
    /// [`Session::recycle_stream`] once the transfer lands.
    pub(crate) fn encode_checkpoint(
        &mut self,
        delta: &MemoryDelta,
        seq: u64,
    ) -> CoreResult<EpochStreams> {
        let need_v3 = self.wire_v3_active();
        let need_v2 = self.replicas.iter().any(|r| r.wire_version() < VERSION_V3);
        let mut streams = EpochStreams::default();
        if need_v3 {
            // The v3 stream is canonical when present: its encode is the
            // one the lane event reports.
            let (stream, page_bytes) =
                self.encode_checkpoint_stream(delta, seq, VERSION_V3, true)?;
            streams.v3 = Some(stream);
            streams.v3_page_bytes = page_bytes;
        }
        if need_v2 {
            let (stream, _) = self.encode_checkpoint_stream(delta, seq, VERSION, !need_v3)?;
            streams.v2 = Some(stream);
        }
        Ok(streams)
    }

    /// True when any replica negotiated wire v3 this session — the gate
    /// for the delta-base bookkeeping, so an all-v2 session does none.
    pub(crate) fn wire_v3_active(&self) -> bool {
        self.replicas.iter().any(|r| r.wire_version() >= VERSION_V3)
    }

    /// Encodes one epoch stream in `version`. Returns the stream and the
    /// byte count of its page records (the lanes' output, excluding the
    /// head/tail segments). `canonical` gates the lane event so a mixed
    /// set's double-encode reports each lane exactly once.
    fn encode_checkpoint_stream(
        &mut self,
        delta: &MemoryDelta,
        seq: u64,
        version: u16,
        canonical: bool,
    ) -> CoreResult<(ScatterStream, u64)> {
        let mode = if version >= VERSION_V3 {
            // Delta records name the committed epoch both sides hold: the
            // primary's base advances only at quorum commit, so an
            // aborted epoch re-encodes against the same base.
            PayloadMode::Columnar {
                base_epoch: self.pools.committed_epoch,
            }
        } else {
            PayloadMode::Metadata
        };

        // Head segment: preamble + begin record.
        let mut head =
            StreamEncoder::with_buffer_versioned(self.pools.buffers.checkout(64), version);
        head.push(&Record::CheckpointBegin { seq });
        let mut stream = ScatterStream::from(head.finish());

        // Page lanes, encoded concurrently into pooled buffers and spliced
        // in task order as they complete.
        let at_nanos = self.now_nanos();
        let plan = EncodePlan {
            lanes: if delta.len() < PARALLEL_ENCODE_MIN_PAGES {
                1
            } else {
                self.threads
            },
            mode,
            chunk_pages: self.cfg.encode_chunk_pages,
            window: None,
        };
        let mut page_bytes = 0u64;
        let (walls, _) = encode_pages_round(
            delta,
            &plan,
            &mut self.pools.buffers,
            &self.pools.lanes,
            |_, segment| {
                page_bytes += segment.len() as u64;
                stream.push(segment)
            },
        );
        if canonical {
            self.emit(SessionEvent::EncodeLanes {
                seq,
                at_nanos,
                walls,
            });
        }

        // Tail segment: vCPU state (captured and translated inline),
        // device identities, and the cross-check trailer.
        let vcpu_count = self.primary.vm(self.pvm)?.vcpus().len() as u32;
        let mut blobs = Vec::with_capacity(vcpu_count as usize);
        for i in 0..vcpu_count {
            blobs.push(self.primary.get_vcpu_state(self.pvm, VcpuId::new(i))?);
        }
        let cirs = translate_vcpus(&blobs, self.translator.as_ref())?;
        let mut tail = self.pools.buffers.checkout(256);
        for (index, cir) in cirs.into_iter().enumerate() {
            encode_record_into(
                &Record::VcpuState {
                    index: index as u32,
                    cir,
                },
                &mut tail,
            );
        }
        for dev in self.primary.vm(self.pvm)?.devices() {
            encode_record_into(&Record::Device(dev.identity.clone()), &mut tail);
        }
        encode_record_into(
            &Record::CheckpointEnd {
                seq,
                pages_total: delta.len() as u64,
            },
            &mut tail,
        );
        stream.push(tail.freeze());
        Ok((stream, page_bytes))
    }

    /// Decodes a checkpoint stream and installs it on one replica — the
    /// *receive side*: pages land in that replica's memory, vCPU state is
    /// re-encoded in its host's native format, and the page count is
    /// cross-checked against the stream trailer.
    ///
    /// The apply is **two-phase**: the whole stream is decoded and
    /// validated into the replica's own staging buffer first (frame
    /// checksums, every frame inside the replica's memory, trailer
    /// cross-check, trailer presence), and only then installed. A torn,
    /// truncated or corrupted stream therefore can never leave a partial
    /// epoch on the replica — the previous committed epoch stays
    /// authoritative, which is the invariant the epoch-abort path and
    /// failover activation rely on.
    ///
    /// A successful apply first drains the replica's catch-up backlog
    /// (pages it missed while its link misbehaved), then installs the
    /// staged epoch, so the newest version always wins on overlap.
    fn apply_checkpoint(
        &mut self,
        stream: ScatterStream,
        seq: u64,
        replica: u32,
    ) -> CoreResult<()> {
        // Phase 1: decode + validate, touching nothing of the replica.
        let mut staged = self.lend_staging(replica);
        let verdict = self
            .stage_job(stream, seq, replica)
            .and_then(|job| job.run(&mut staged));
        // Phase 2: install the fully validated epoch.
        self.install_checkpoint(replica, StagedEpoch { staged, verdict })
    }

    /// Replica `replica`'s staging buffer, cleared, lent to one phase 1.
    fn lend_staging(&mut self, replica: u32) -> Vec<(PageId, PageVersion)> {
        let mut staged = std::mem::take(&mut self.replicas.get_mut(replica).apply);
        staged.clear();
        staged
    }

    /// Gives a lent staging buffer back to replica `replica`, cleared.
    fn return_staging(&mut self, replica: u32, mut staged: Vec<(PageId, PageVersion)>) {
        staged.clear();
        self.replicas.get_mut(replica).apply = staged;
    }

    /// The phase-1 job for replica `replica`: `stream` and what its decode
    /// is checked against, read from the replica.
    fn stage_job(&self, stream: ScatterStream, seq: u64, replica: u32) -> CoreResult<StageJob<'_>> {
        let member = self.replicas.get(replica);
        let vm = member.host.vm(member.vm)?;
        Ok(StageJob {
            stream,
            seq,
            kind: member.kind(),
            memory: vm.memory(),
            vcpu_count: vm.vcpus().len() as u32,
            negotiated: member.wire_version,
            delta_base: member.base_epoch,
            may_rebase: member.missed_epoch,
        })
    }

    /// Sends epoch `seq` (of `pages` pages) to every replica, in replica
    /// order, each in its negotiated wire version — the one send loop:
    /// the Transfer stage and every seeding round go through it. Returns,
    /// per replica, whether it applied the epoch and the wire time its
    /// attempts took, `wire(version)` per attempt plus delay and backoff.
    ///
    /// Under a fault plan each attempt may be dropped, corrupted on the
    /// wire, refused by the replica or sent into a downed link; a failed
    /// attempt still occupies the wire for its timeout, then waits out
    /// exponential backoff (see [`RetryPolicy`](crate::config::RetryPolicy))
    /// and is retried, until the budget runs out and the replica misses
    /// the epoch. What a miss means is the caller's to decide. An error
    /// is a stream the replica refused outside the plan; the replicas
    /// before it already hold the epoch.
    pub(crate) fn fan_out(
        &mut self,
        streams: &EpochStreams,
        seq: u64,
        pages: usize,
        wire: impl Fn(u16) -> SimDuration,
    ) -> CoreResult<Vec<(bool, SimDuration)>> {
        let policy = self.cfg.retry;
        let max_attempts = policy.max_attempts.max(1);
        let count = self.replicas.len() as u32;
        let mut prestaged = self.prestage(streams, seq, pages);
        let mut outcomes = Vec::with_capacity(count as usize);
        for replica in 0..count {
            let version = self.replicas.get(replica).wire_version();
            let stream = streams.for_version(version);
            let mut spent = SimDuration::ZERO;
            let mut attempt = 0u32;
            let applied = loop {
                let fault = self
                    .chaos
                    .as_mut()
                    .and_then(|chaos| chaos.transfer_fault(seq, replica, attempt));
                if let Some(fault) = fault {
                    let detail = if replica == 0 {
                        format!("checkpoint {seq} transfer attempt {attempt}")
                    } else {
                        format!("checkpoint {seq} transfer attempt {attempt} replica {replica}")
                    };
                    self.emit(SessionEvent::Fault {
                        fault: fault.reason(),
                        host_down: false,
                        detail,
                        at_nanos: self.now_nanos(),
                        site: FaultSite::Transfer,
                    });
                }
                // A failed attempt still occupies the wire for its
                // timeout window.
                spent = spent.saturating_add(wire(version));
                let failure = match fault {
                    None | Some(TransferFault::Delayed(_)) => {
                        // Installs the prestaged slot where phase 1 ran
                        // ahead, else decodes a clone of the stream.
                        let delivered = match prestaged[replica as usize].take() {
                            Some(epoch) => self.install_checkpoint(replica, epoch),
                            None => self.apply_checkpoint(stream.clone(), seq, replica),
                        };
                        if let Err(e) = delivered {
                            self.unstage(prestaged);
                            return Err(e);
                        }
                        if let Some(TransferFault::Delayed(by)) = fault {
                            spent = spent.saturating_add(by);
                        }
                        None
                    }
                    Some(TransferFault::LinkDown) => Some("link_down"),
                    Some(TransferFault::Dropped) => Some("dropped"),
                    Some(TransferFault::DecodeRefused) => Some("decode_refused"),
                    Some(TransferFault::Corrupted {
                        segment_salt,
                        byte_salt,
                    }) => {
                        let corrupted = corrupt_stream(stream, segment_salt, byte_salt);
                        match self.apply_checkpoint(corrupted, seq, replica) {
                            // The decoder's frame checksums (or the trailer
                            // cross-check) reject the flipped byte — and the
                            // two-phase apply guarantees nothing partial was
                            // installed.
                            Err(_) => Some("corrupt_frame"),
                            // Unreachable with checksummed framing; treat a
                            // surviving flip as a delivered attempt.
                            Ok(()) => None,
                        }
                    }
                };
                let Some(reason) = failure else {
                    if attempt > 0 {
                        if let Some(chaos) = self.chaos.as_mut() {
                            chaos.stats.transfer_recoveries += 1;
                        }
                        self.emit(SessionEvent::TransferRecovery {
                            seq,
                            failed_attempts: attempt,
                        });
                    }
                    break true;
                };
                attempt += 1;
                if attempt >= max_attempts {
                    break false;
                }
                let backoff = policy.backoff_after(attempt - 1);
                spent = spent.saturating_add(backoff);
                if let Some(chaos) = self.chaos.as_mut() {
                    chaos.stats.transfer_retries += 1;
                }
                self.emit(SessionEvent::TransferRetry {
                    seq,
                    replica,
                    attempt,
                    reason,
                    backoff,
                    at_nanos: self.now_nanos(),
                });
            };
            outcomes.push((applied, spent));
        }
        Ok(outcomes)
    }

    /// Phase 1 for every replica whose first transfer attempt of epoch
    /// `seq` (of `pages` pages) the fault plane delivers intact, run
    /// concurrently on the calling thread and up to
    /// [`Session::fanout_helpers`] helpers, each replica decoding its own
    /// stream clone into its own staging buffer against its own image.
    /// One slot per replica, `None` where the plan touches the first
    /// attempt.
    ///
    /// Only pure work runs here: the query draws nothing and says nothing,
    /// and every fault draw, event, retry and install stays with
    /// [`Session::fan_out`]'s loop, in replica order, which installs a
    /// slot's result where it would have decoded, so a staged error
    /// surfaces exactly where the serial apply's would.
    fn prestage(
        &mut self,
        streams: &EpochStreams,
        seq: u64,
        pages: usize,
    ) -> Vec<Option<StagedEpoch>> {
        let count = self.replicas.len() as u32;
        let mut lent = Vec::with_capacity(count as usize);
        for replica in 0..count {
            let delivers = self
                .chaos
                .as_ref()
                .is_none_or(|chaos| chaos.delivers_first_attempt(seq, replica));
            if delivers {
                // Sized for the epoch here, on the calling thread, so a
                // helper never grows a replica's buffer inside its own
                // malloc arena, where the freed old buffer would stay.
                let mut staged = self.lend_staging(replica);
                staged.reserve(pages);
                lent.push((replica, staged));
            }
        }
        let jobs = lent
            .into_iter()
            .map(|(replica, staged)| {
                let stream = streams.for_version(self.replicas.get(replica).wire_version());
                (
                    replica,
                    self.stage_job(stream.clone(), seq, replica),
                    staged,
                )
            })
            .collect();
        let mut slots: Vec<Option<StagedEpoch>> = (0..count).map(|_| None).collect();
        for (replica, epoch) in stage_all(jobs, &self.pools.lanes, self.fanout_helpers) {
            slots[replica as usize] = Some(epoch);
        }
        slots
    }

    /// Gives the staging buffer of every prestaged result nobody
    /// installed back to its replica.
    fn unstage(&mut self, prestaged: Vec<Option<StagedEpoch>>) {
        for (replica, epoch) in prestaged.into_iter().enumerate() {
            if let Some(epoch) = epoch {
                self.return_staging(replica as u32, epoch.staged);
            }
        }
    }

    /// Phase 2 of [`Session::apply_checkpoint`]: installs what phase 1
    /// accepted — backlog first, so the staged (newer) versions win on
    /// overlap — or, when it refused the stream, hands the staging buffer
    /// back and returns the refusal, the replica untouched.
    fn install_checkpoint(&mut self, replica: u32, epoch: StagedEpoch) -> CoreResult<()> {
        let StagedEpoch {
            mut staged,
            verdict,
        } = epoch;
        let Validated { vcpus, rebase_to } = match verdict {
            Ok(validated) => validated,
            Err(e) => {
                self.return_staging(replica, staged);
                return Err(e);
            }
        };
        let member = self.replicas.get_mut(replica);
        let mut backlog = std::mem::take(&mut member.backlog);
        if let Some(base) = rebase_to {
            // Backlog catch-up under v3: the parked pages *are* the
            // committed epochs this replica missed, so installing them
            // below makes its image the stream's delta base exactly.
            member.base_epoch = base;
        }
        let vm = member.host.vm_mut(member.vm)?;
        for &(page, rec) in backlog.entries() {
            vm.memory_mut().install_page(page, rec)?;
        }
        install_staged(vm.memory_mut(), &staged);
        // The backlog keeps its allocation for the next missed epoch.
        backlog.clear();
        member.backlog = backlog;
        member.missed_epoch = false;
        for (index, blob) in vcpus {
            member
                .host
                .set_vcpu_state(member.vm, VcpuId::new(index), blob)?;
        }
        staged.clear();
        member.apply = staged;
        Ok(())
    }

    /// Ships a delta plus vCPU/device state through the wire codec to
    /// **every** replica: encoded once per negotiated wire version and
    /// sent by [`Session::fan_out`] at no wire charge — the migration
    /// cost model has already charged the round. A replica that exhausts
    /// its retry budget fails the round with [`CoreError::EpochAborted`].
    ///
    /// Every seeding round — the full copy, each pre-copy round and the
    /// stop-and-copy — is such a seq-0 checkpoint stream, so a replica is
    /// only ever written by the receive path; the continuous phase splits
    /// the same work across the Translate and Transfer stages.
    pub(crate) fn ship_checkpoint(&mut self, delta: &MemoryDelta, seq: u64) -> CoreResult<()> {
        let streams = self.encode_checkpoint(delta, seq)?;
        let outcomes = self.fan_out(&streams, seq, delta.len(), |_| SimDuration::ZERO)?;
        self.recycle_streams(streams);
        if outcomes.iter().all(|&(applied, _)| applied) {
            Ok(())
        } else {
            Err(CoreError::EpochAborted {
                seq,
                attempts: self.cfg.retry.max_attempts.max(1),
            })
        }
    }

    /// Returns a consumed stream's segment allocations to the buffer pool.
    /// Call after the receive side has decoded its clone: the refcount on
    /// each segment is back to one, so `try_into_mut` reclaims the full
    /// allocations for the next checkpoint's encode lanes.
    pub(crate) fn recycle_stream(&mut self, stream: ScatterStream) {
        for segment in stream.into_segments() {
            self.pools.buffers.recycle(segment);
        }
    }

    /// Recycles every stream of an epoch's [`EpochStreams`] bundle.
    pub(crate) fn recycle_streams(&mut self, streams: EpochStreams) {
        for stream in streams.into_streams() {
            self.recycle_stream(stream);
        }
    }

    /// Records replica `replica`'s ack of epoch `seq`; returns the
    /// ledger's [`Commit`] when it is the quorum-th.
    pub(crate) fn ack(&mut self, replica: u32, seq: u64, at: SimTime) -> Option<Commit> {
        self.emit(SessionEvent::Ack { replica, seq, at });
        self.ledger.ack(replica, seq, at)
    }

    /// Spends `commit`, the one place commit side effects run: releases
    /// the output of every epoch up to the committed one at the session
    /// clock and records client latencies, counts the operations done so
    /// far as committed and, under v3, makes the epoch the delta base the
    /// primary and each replica in `applied` agree on (replicas that
    /// missed it keep their old base and re-base from backlog at their
    /// next apply).
    pub(crate) fn on_commit(&mut self, commit: Commit, applied: &[u32]) {
        let (seq, at) = (commit.seq(), commit.at());
        self.emit(SessionEvent::Commit { seq, at });
        for released in self.devmgr.release(commit, self.clock) {
            let latency = released.buffering_delay()
                + self.client_link.transfer_time(released.packet.size) * 2
                + CLIENT_STACK_OVERHEAD;
            self.latencies.observe(latency.as_secs_f64());
        }
        self.ops_committed += self.ops_uncommitted;
        self.ops_uncommitted = 0.0;
        if self.wire_v3_active() {
            self.pools.committed_epoch = seq;
            for &replica in applied {
                self.replicas.get_mut(replica).base_epoch = seq;
            }
        }
        self.emit_packets();
    }

    /// Emits the I/O buffer's packet counts.
    fn emit_packets(&mut self) {
        let io = self.devmgr.io();
        self.emit(SessionEvent::Packets {
            buffered: io.total_buffered(),
            released: io.total_released(),
            discarded: io.total_discarded(),
        });
    }

    /// Queues the pages of epoch `seq`'s delta as catch-up backlog for a
    /// replica whose transfer failed this epoch, and notes the miss even
    /// when the delta is empty: the pages are installed
    /// (oldest first, newest version winning) on its next successful
    /// apply, so a slow replica converges asynchronously instead of
    /// blocking the quorum.
    pub(crate) fn note_replica_backlog(&mut self, replica: u32, delta: &MemoryDelta) {
        let member = self.replicas.get_mut(replica);
        member.backlog.merge(delta);
        member.missed_epoch = true;
    }

    /// Re-evaluates every replica's staleness after epoch `seq`'s acks
    /// landed: a replica trailing the newest acked epoch by more than the
    /// configured lag bound is declared stale (one event per episode);
    /// it is cleared when it catches back up. Single-replica
    /// topologies have no lag by construction and skip the scan.
    pub(crate) fn update_staleness(&mut self, seq: u64) {
        if self.replicas.len() < 2 {
            return;
        }
        let bound = self.cfg.topology.stale_epoch_lag;
        let at_nanos = self.now_nanos();
        for replica in 0..self.replicas.len() as u32 {
            let lag_epochs = self.ledger.lag_of(replica, seq);
            let member = self.replicas.get_mut(replica);
            let was_stale = std::mem::replace(&mut member.stale, lag_epochs > bound);
            if lag_epochs > bound && !was_stale {
                self.emit(SessionEvent::ReplicaStale {
                    replica,
                    lag_epochs,
                    at_nanos,
                });
            }
        }
    }

    /// Emits what the health plane needs to know about the epoch `record`
    /// describes — each replica's ack mark, lag and backlog depth, read
    /// from the ledger and the replica set after the acks landed —
    /// whether or not the plane is armed.
    pub(crate) fn emit_epoch_health(&mut self, record: &CheckpointRecord, at_nanos: u64) {
        let observations = (0..self.replicas.len() as u32)
            .map(|replica| HealthObservation {
                replica,
                ack_mark: self.ledger.ack_trails()[replica as usize]
                    .last()
                    .map_or(0, |e| e.seq),
                lag_epochs: self.ledger.lag_of(replica, record.seq),
                backlog_pages: self.replicas.get(replica).backlog_pages(),
                retries: 0, // counted by the health fold from the retry events
            })
            .collect();
        self.emit(SessionEvent::EpochHealth {
            seq: record.seq,
            at_nanos,
            degradation: record.degradation,
            period: record.period,
            pause: record.pause,
            observations,
        });
    }

    /// Mutable access to the activated replica's host hypervisor (valid
    /// only after failover latched one).
    pub(crate) fn active_replica_host_mut(&mut self) -> &mut dyn Hypervisor {
        self.replicas.active_mut().host.as_mut()
    }

    /// Verifies that replica `replica` is an exact copy of the paused
    /// primary: every page version identical, every vCPU architecturally
    /// equal.
    pub(crate) fn assert_replica_matches_primary(&self, seq: u64, replica: u32) -> CoreResult<()> {
        let primary = self.primary.vm(self.pvm)?;
        let member = self.replicas.get(replica);
        let rvm = member.host.vm(member.vm)?;
        if !primary.memory().content_equals(rvm.memory()) {
            let diff = primary.memory().diff(rvm.memory(), 4);
            return Err(CoreError::InvalidScenario(format!(
                "checkpoint {seq}: replica {replica} memory diverged at frames {diff:?}"
            )));
        }
        for (p, r) in primary.vcpus().iter().zip(rvm.vcpus()) {
            if p.regs.digest() != r.regs.digest() {
                return Err(CoreError::InvalidScenario(format!(
                    "checkpoint {seq}: replica {replica} vCPU {} state diverged",
                    p.id.index()
                )));
            }
        }
        Ok(())
    }

    /// Reads the current content of `pages` from the primary as a delta.
    pub(crate) fn pages_to_delta(&self, pages: &[PageId]) -> CoreResult<MemoryDelta> {
        let vm = self.primary.vm(self.pvm)?;
        let mut delta = MemoryDelta::new();
        for &p in pages {
            delta.push(p, vm.memory().page(p)?);
        }
        Ok(delta)
    }

    /// Checks the fault plane for a primary-host fault scheduled at the
    /// entry of `stage` of epoch `seq`; if one fires, the primary goes
    /// down and the epoch loop receives
    /// [`CoreError::InjectedPrimaryFault`] to turn into a failover.
    pub(crate) fn chaos_primary_fault(&mut self, seq: u64, stage: Stage) -> CoreResult<()> {
        let Some(chaos) = self.chaos.as_mut() else {
            return Ok(());
        };
        let Some(outcome) = chaos.primary_fault(seq, stage) else {
            return Ok(());
        };
        self.primary.inject_dos(outcome);
        Err(CoreError::InjectedPrimaryFault {
            seq,
            stage,
            outcome,
        })
    }

    /// Aborts epoch `seq` after its transfer exhausted the retry budget:
    /// the partially transferred checkpoint is already discarded, so this
    /// re-marks the harvested pages dirty (they must ride the next epoch —
    /// without this the replica would diverge forever), resumes the VM
    /// and emits the abort. Nothing commits: the
    /// buffered output and uncommitted ops carry over to the next
    /// successful epoch, and the previous committed epoch stays
    /// authoritative on the replica.
    pub(crate) fn abort_epoch(&mut self, seq: u64, attempts: u32) -> CoreResult<()> {
        {
            // The harvested delta is still pooled (it is recycled, not
            // cleared, after Translate): every page it names was wiped
            // from the primary's dirty bitmap at Harvest but never reached
            // the replica.
            let vm = self.primary.vm_mut(self.pvm)?;
            for &(page, _) in self.pools.delta.entries() {
                vm.dirty_mut().bitmap_mut().mark(page);
            }
        }
        self.primary.vm_mut(self.pvm)?.resume()?;
        self.disturbance_debt += self.cfg.costs.pause_disturbance;
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.stats.epochs_aborted += 1;
        }
        self.emit(SessionEvent::EpochAbort {
            seq,
            attempts,
            at_nanos: self.now_nanos(),
        });
        Ok(())
    }

    /// Handles a primary-host failure: detect, discard, pick the replica
    /// with the most recent committed state, switch devices, activate.
    pub(crate) fn failover(&mut self, failed_at: SimTime) -> CoreResult<FailoverRecord> {
        self.enter_phase(SessionPhase::FailedOver);
        let post_health = self.primary.health();
        debug_assert_ne!(post_health, HostHealth::Healthy);
        let lost_heartbeats = self
            .chaos
            .as_ref()
            .map_or(0, |c| c.heartbeat_loss_periods());
        let detected_at =
            detection_time_with_loss(&self.cfg.heartbeat, failed_at, post_health, lost_heartbeats);
        self.clock = detected_at;

        // Everything since the last commit is rolled back.
        let ops_lost = self.ops_uncommitted;
        self.ops_uncommitted = 0.0;

        // Activate the replica holding the freshest *committed* state —
        // the ledger tracks per-replica acks, so a stale or partitioned
        // replica can never win over one that kept up, and it mints at
        // most one activation. It resumes from the last *fully-acked*
        // epoch: an in-flight or aborted epoch (whose seq is already
        // bumped) never entered the ledger.
        let activation = self.ledger.activate();
        let (activated_replica, resumed_from_checkpoint) =
            (activation.replica(), activation.resumed_from());
        self.replicas.activate(activation);
        let (switch, activation, family_kind) = {
            let member = self.replicas.active_mut();
            let translator = member.translator;
            let vm = member.host.vm_mut(member.vm)?;
            let switch = self.devmgr.switch_devices(vm, translator.as_ref());
            let activation = member.host.activation_latency()
                + self.cfg.costs.device_switch
                + self.cfg.costs.state_load;
            (switch, activation, member.host.kind())
        };
        self.clock += activation;
        {
            let member = self.replicas.active_mut();
            member.host.vm_mut(member.vm)?.activate()?;
        }
        let record = FailoverRecord {
            failed_at: self.rel(failed_at),
            detected_at: self.rel(detected_at),
            resumed_at: self.rel(self.clock),
            resumed_from_checkpoint,
            activated_replica,
            packets_lost: switch.packets_discarded,
            ops_lost,
            devices_switched: switch.devices_switched,
        };
        self.emit_packets();
        self.emit(SessionEvent::Failover {
            record: record.clone(),
            seq: self.seq,
            family: match family_kind {
                HypervisorKind::Xen => "xen",
                HypervisorKind::Kvm => "kvm",
            },
        });
        Ok(record)
    }

    /// Closes the session and assembles the final [`RunReport`]
    /// (throughput, resource accounting, and the collected stage trace).
    /// Every per-checkpoint view is derived here, from the log: the
    /// records are its `Checkpoint` entries, the stage trace its `Stage`
    /// entries, and the CPU work and staging window follow from each
    /// record's dirty pages.
    pub(crate) fn finish(
        mut self,
        migration: crate::report::MigrationOutcome,
        failover: Option<FailoverRecord>,
        replication_start: SimTime,
    ) -> crate::report::RunReport {
        self.enter_phase(SessionPhase::Completed);
        let elapsed = self.clock.saturating_duration_since(replication_start);
        let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        let bitmap_bytes = self
            .primary
            .vm(self.pvm)
            .map(|vm| vm.memory().num_pages() / 8)
            .unwrap_or(0);
        let checkpoints: Vec<CheckpointRecord> = self
            .log
            .iter()
            .filter_map(SessionEvent::as_checkpoint)
            .map(|(_, record, _)| *record)
            .collect();
        let replication_work: SimDuration = checkpoints
            .iter()
            .map(|c| {
                self.cfg
                    .costs
                    .checkpoint_cpu_work(c.dirty_pages, self.threads)
            })
            .sum();
        // The staging buffer holds full page payloads for the round in
        // flight, windowed at 256 MiB (the engine recycles chunk buffers).
        let peak_pages = checkpoints.iter().map(|c| c.dirty_pages).max();
        let staging_pages = peak_pages.unwrap_or(0).min(65_536);
        let rss = ByteSize::from_mib(self.cfg.costs.rss_base_mib)
            + ByteSize::from_bytes(staging_pages * PAGE_SIZE)
            + ByteSize::from_bytes(bitmap_bytes)
            + self.devmgr.io().high_watermark();
        let cpu_core_pct = replication_work.as_secs_f64() / secs * 100.0;
        let ops_completed = self.ops_committed + self.ops_uncommitted;
        self.emit(SessionEvent::RunEnd {
            seq: self.seq,
            at_nanos: self.now_nanos(),
        });
        let wire_versions = self.replicas.iter().map(Replica::wire_version).collect();
        // The planes are folded once, here, over the whole log, after the
        // hosts, the replica set and the pools are released: the fold's
        // allocations reuse their memory instead of adding to the run's
        // peak.
        drop((self.primary, self.replicas, self.pools, self.workload));
        let (telemetry, spans, incident) = crate::telemetry::fold(&self.cfg, &self.log);
        let (commits, replica_acks) = self.ledger.into_parts();
        crate::report::RunReport {
            name: self.name,
            elapsed,
            ops_completed,
            throughput_ops_per_sec: ops_completed / secs,
            migration: Some(migration),
            checkpoints,
            stage_events: self
                .log
                .iter()
                .filter_map(SessionEvent::as_stage)
                .copied()
                .collect(),
            events: self.log,
            packet_latencies: self.latencies,
            failover,
            resources: crate::report::ResourceUsage { cpu_core_pct, rss },
            consistency_checks: self.consistency_checks,
            commits,
            replica_acks,
            chaos: self.chaos.map(|c| c.stats),
            telemetry: Some(telemetry),
            spans,
            incident,
            wire_versions,
        }
    }
}

/// Phase 1 of an apply for one replica — the job the Transfer fan-out
/// hands out: the stream clone to decode and everything its decode is
/// checked against, read from the replica. Running it touches nothing.
pub(crate) struct StageJob<'a> {
    stream: ScatterStream,
    seq: u64,
    kind: HypervisorKind,
    memory: &'a GuestMemory,
    vcpu_count: u32,
    /// The wire version the decoder is pinned to.
    negotiated: u16,
    /// The replica's delta base: the epoch columnar records must name.
    delta_base: u64,
    /// Whether a newer base is acceptable: the replica missed a committed
    /// epoch since its base, and holds its pages, if any, as parked
    /// backlog.
    may_rebase: bool,
}

/// What phase 1 made of one replica's stream, with the replica's staging
/// buffer, which goes back to it whatever the verdict.
pub(crate) struct StagedEpoch {
    staged: Vec<(PageId, PageVersion)>,
    verdict: CoreResult<Validated>,
}

/// What phase 1 accepted beside the staged pages.
struct Validated {
    vcpus: Vec<(u32, VcpuStateBlob)>,
    /// The newer delta base the replica adopts as its backlog installs.
    rebase_to: Option<u64>,
}

impl StageJob<'_> {
    fn run(self, staged: &mut Vec<(PageId, PageVersion)>) -> CoreResult<Validated> {
        self.decode(staged, stage_next)
    }

    /// Decodes the job's stream into `staged` through `receive`,
    /// validating every frame, every page's place in the replica, every
    /// vCPU index against its `vcpu_count` (each exactly once) and the
    /// trailer cross-check, without touching the replica.
    ///
    /// The decoder is pinned to the `negotiated` version — a stream in any
    /// other version is a protocol violation
    /// ([`WireError::StaleVersion`](here_vmstate::WireError::StaleVersion)).
    /// Columnar records must name `delta_base` as their delta base; a
    /// newer base is accepted only when `may_rebase`, and comes back as
    /// [`Validated::rebase_to`] for the install to adopt.
    fn decode(
        self,
        staged: &mut Vec<(PageId, PageVersion)>,
        receive: ReceiveStep,
    ) -> CoreResult<Validated> {
        let mut dec = StreamDecoder::new_negotiated(self.stream, self.negotiated)?;
        let mut vcpus: Vec<(u32, VcpuStateBlob)> = Vec::new();
        let mut saw_trailer = false;
        let mut rebase_to: Option<u64> = None;
        while let Some(next) = receive(&mut dec, self.memory, None, staged)? {
            let columns_base = match &next {
                Staged::Pages { base_epoch, .. } => *base_epoch,
                Staged::Record(Record::PageColumns(batch)) => Some(batch.base_epoch()),
                Staged::Record(_) => None,
            };
            if let Some(stream_base) = columns_base {
                let base = rebase_to.unwrap_or(self.delta_base);
                if stream_base != base {
                    if self.may_rebase && rebase_to.is_none() && stream_base > self.delta_base {
                        rebase_to = Some(stream_base);
                    } else {
                        return Err(WireError::DeltaBaseMismatch {
                            stream_base,
                            replica_base: base,
                        }
                        .into());
                    }
                }
            }
            let Staged::Record(record) = next else {
                continue;
            };
            match record {
                Record::VcpuState { index, cir } => {
                    if index >= self.vcpu_count {
                        return Err(HvError::NoSuchVcpu(index).into());
                    }
                    if vcpus.iter().any(|&(seen, _)| seen == index) {
                        return Err(WireError::BadPayload("vCPU state sent twice").into());
                    }
                    let blob = match self.kind {
                        HypervisorKind::Xen => {
                            VcpuStateBlob::Xen(XenVcpuState::from_arch(&cir.regs, cir.online))
                        }
                        HypervisorKind::Kvm => {
                            VcpuStateBlob::Kvm(KvmVcpuState::from_arch(&cir.regs, cir.online))
                        }
                    };
                    vcpus.push((index, blob));
                }
                Record::CheckpointEnd { pages_total, .. } => {
                    let pages_seen = staged.len() as u64;
                    if pages_total != pages_seen {
                        return Err(CoreError::InvalidScenario(format!(
                            "checkpoint {}: {pages_seen} pages received, header says {pages_total}",
                            self.seq
                        )));
                    }
                    saw_trailer = true;
                }
                // Device identities are checked on failover; the replica's
                // own device set is built by the device manager then.
                _ => {}
            }
        }
        if !saw_trailer {
            // A stream that ends cleanly on a record boundary but without
            // its trailer is torn — reject it like any truncated frame.
            return Err(WireError::Truncated.into());
        }
        if vcpus.len() != self.vcpu_count as usize {
            // The epoch's pages without a vCPU's registers would resume
            // that vCPU from an older epoch than its memory.
            return Err(WireError::BadPayload("a vCPU's state is missing").into());
        }
        Ok(Validated { vcpus, rebase_to })
    }
}

/// A phase-1 job as the fan-out lends it out: the replica, the job (or why
/// it could not be built) and the replica's staging buffer.
type LentStage<'a> = (u32, CoreResult<StageJob<'a>>, Vec<(PageId, PageVersion)>);

/// Runs every job on the calling thread and up to `helpers` of `pool`'s
/// parked workers, each lane claiming the next job from one atomic
/// cursor. Returns each job's replica and phase-1 result, in no
/// particular order. A job whose `Err` says it could not be built keeps
/// that error as its verdict.
fn stage_all(jobs: Vec<LentStage<'_>>, pool: &LanePool, helpers: usize) -> Vec<(u32, StagedEpoch)> {
    let helpers = helpers.min(jobs.len().saturating_sub(1));
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    let slots: Vec<Mutex<Option<LentStage<'_>>>> =
        jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let cursor = AtomicUsize::new(0);
    let run = || {
        while let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let (replica, job, mut staged) = slot
                .lock()
                .expect("no lane panics holding a stage slot")
                .take()
                .expect("the cursor hands each job out once");
            let verdict = job.and_then(|job| job.run(&mut staged));
            done.lock()
                .expect("no lane panics holding the results")
                .push((replica, StagedEpoch { staged, verdict }));
        }
    };
    pool.scope(helpers, &|_| run(), run);
    done.into_inner()
        .expect("no lane panics holding the results")
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEMORY: ByteSize = ByteSize::from_mib(4);

    fn v2() -> ReplicationConfig {
        ReplicationConfig::fixed_period(SimDuration::from_secs(1))
    }

    /// A one-vCPU, 4 MiB session that has not been seeded: the replica's
    /// image is empty, so anything a test installs shows. Page 9 waits in
    /// its catch-up backlog, and its staging buffer has room, so a test
    /// can see it come back.
    fn small_session(cfg: ReplicationConfig) -> Session {
        let mut session = Session::new(SessionSetup {
            name: "vm".into(),
            memory: MEMORY,
            vcpus: 1,
            cfg,
            workload: Box::new(IdleGuest::new()),
            seed: 1,
            load_during_seed: false,
            verify_consistency: false,
            chaos: None,
        })
        .unwrap();
        session.note_replica_backlog(0, &delta_at(&[9]));
        session.replicas.get_mut(0).apply.reserve(4);
        session
    }

    fn delta_at(frames: &[u64]) -> MemoryDelta {
        let rec = PageVersion {
            version: 3,
            last_writer: 0,
        };
        frames.iter().map(|&f| (PageId::new(f), rec)).collect()
    }

    fn image(session: &Session) -> &GuestMemory {
        let member = session.replicas.get(0);
        member.host.vm(member.vm).unwrap().memory()
    }

    /// Register digests of the replica's vCPUs.
    fn replica_vcpus(session: &Session) -> Vec<u64> {
        let member = session.replicas.get(0);
        let vm = member.host.vm(member.vm).unwrap();
        vm.vcpus().iter().map(|v| v.regs.digest()).collect()
    }

    /// Phase 1 refused the stream: the parked backlog page is still
    /// parked, the image is empty, and the staging buffer came back.
    fn assert_replica_untouched(session: &Session) {
        let member = session.replicas.get(0);
        assert_eq!(member.backlog.len(), 1);
        assert_eq!(image(session).touched_pages(), 0);
        assert!(member.apply.is_empty() && member.apply.capacity() > 0);
    }

    #[test]
    fn hostile_frame_past_the_replica_is_rejected_before_anything_installs() {
        // A stream with honest checksums and an honest trailer whose third
        // page lies one frame past the replica's memory: phase 1 must
        // refuse it, with the parked backlog and the image as they were.
        let mut session = small_session(v2());
        let limit = MEMORY.as_bytes() / PAGE_SIZE;
        let streams = session
            .encode_checkpoint(&delta_at(&[0, 1, limit]), 1)
            .unwrap();

        let err = session
            .apply_checkpoint(streams.canonical().clone(), 1, 0)
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Hypervisor(HvError::PageOutOfRange { page, .. }) if page == limit),
            "{err:?}"
        );
        assert_replica_untouched(&session);
    }

    #[test]
    fn hostile_vcpu_index_is_rejected_before_anything_installs() {
        // Honest pages, checksums and trailer, but the vCPU record names
        // a vCPU the replica does not have, names vCPU 0 twice, or is
        // missing. Phase 2 would only find out after the backlog and the
        // pages are in — or, for the missing record, never: the epoch
        // installed with the previous epoch's registers.
        let mut session = small_session(v2());
        let streams = session.encode_checkpoint(&delta_at(&[0, 1]), 1).unwrap();
        let forge = |to_index: u32, copies: usize| -> ScatterStream {
            let dec = StreamDecoder::new_negotiated(streams.canonical().clone(), VERSION)
                .expect("honest preamble");
            let mut enc = StreamEncoder::new();
            for record in dec.collect_records().expect("honest stream") {
                match record {
                    Record::VcpuState { cir, .. } => {
                        let forged = Record::VcpuState {
                            index: to_index,
                            cir,
                        };
                        (0..copies).for_each(|_| enc.push(&forged));
                    }
                    other => enc.push(&other),
                }
            }
            enc.finish().into()
        };

        session
            .apply_checkpoint(forge(0, 1), 1, 0)
            .expect("the re-encoded honest stream applies");
        let mut session = small_session(v2());

        let err = session.apply_checkpoint(forge(1, 1), 1, 0).unwrap_err();
        assert!(
            matches!(err, CoreError::Hypervisor(HvError::NoSuchVcpu(1))),
            "{err:?}"
        );
        assert_replica_untouched(&session);

        for copies in [2, 0] {
            let err = session
                .apply_checkpoint(forge(0, copies), 1, 0)
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Wire(WireError::BadPayload(_))),
                "{err:?}"
            );
            assert_replica_untouched(&session);
        }
    }

    /// splitmix64: the fuzzer's reproducible randomness.
    struct Rng(u64);

    impl Rng {
        /// Uniform in `0..n`; 0 when `n` is 0.
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        }
    }

    /// `(start, end)` of every whole frame after the preamble: a tag, a
    /// big-endian `u32` payload length, a checksum, the payload.
    fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut at = here_vmstate::wire::PREAMBLE_BYTES;
        while let Some(len) = bytes.get(at + 1..at + 5) {
            let len = u32::from_be_bytes(len.try_into().unwrap()) as usize;
            let end = at + 9 + len;
            if end > bytes.len() {
                break;
            }
            out.push((at, end));
            at = end;
        }
        out
    }

    /// One hostile edit: a bit flipped, the stream cut short, a frame
    /// dropped or sent twice, or a frame's length ±1, ×2 or `MAX`. A
    /// stream already cut inside its first frame is left as it is.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng) {
        let frames = frames(bytes);
        let Some(&(start, end)) = frames.get(rng.below(frames.len())) else {
            return;
        };
        match rng.below(5) {
            0 => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(bytes.len())),
            2 => drop(bytes.drain(start..end)),
            3 => {
                let frame = bytes[start..end].to_vec();
                bytes.splice(end..end, frame);
            }
            _ => {
                let field = start + 1..start + 5;
                let len = u32::from_be_bytes(bytes[field.clone()].try_into().unwrap());
                let forged = [
                    len.wrapping_add(1),
                    len.wrapping_sub(1),
                    len.wrapping_mul(2),
                    u32::MAX,
                ];
                bytes[field].copy_from_slice(&forged[rng.below(4)].to_be_bytes());
            }
        }
    }

    /// Phase 1 of replica 0 through the record-then-`stage` receive step
    /// the staging decode replaced: its verdict on `stream`, the replica
    /// left as it was.
    fn reference_verdict(session: &mut Session, stream: ScatterStream) -> CoreResult<()> {
        let mut staged = session.lend_staging(0);
        let verdict = session
            .stage_job(stream, 1, 0)
            .and_then(|job| job.decode(&mut staged, crate::dataplane::reference::stage_next));
        session.return_staging(0, staged);
        verdict.map(drop)
    }

    #[test]
    fn hostile_mutated_epoch_streams_install_all_or_nothing() {
        // The honest v2 stream and its v3 twin, flattened, given two
        // hostile edits each, applied to a fresh replica with a parked
        // backlog page: the apply never panics, gives the verdict the
        // reference receive step gives (the same error, to its message),
        // a rejection leaves the
        // replica as it was, and an acceptance installs exactly the honest
        // epoch, pages and registers (a dropped or repeated record the
        // receive path does not count — a `Device` identity, a second
        // trailer — is a legal `Ok`). Two bit flips in one frame are
        // caught by its checksum
        // (`here_vmstate::wire`'s `frame_checksum_sees_every_one_and_two_bit_error`).
        const BUDGET: usize = if cfg!(debug_assertions) {
            20_000
        } else {
            200_000
        };
        let mut rng = Rng(0x4845_5245);
        for cfg in [v2(), v2().with_wire_v3()] {
            let mut honest = small_session(cfg.clone());
            // Registers a fresh replica shell does not already hold.
            honest.tick_vcpus(SimDuration::from_secs(1));
            let streams = honest.encode_checkpoint(&delta_at(&[0, 1, 2]), 1).unwrap();
            let seed = streams.canonical().gather().to_vec();
            honest
                .apply_checkpoint(streams.canonical().clone(), 1, 0)
                .expect("the honest stream applies");
            assert_ne!(
                replica_vcpus(&honest),
                replica_vcpus(&small_session(cfg.clone()))
            );
            let (mut accepted, mut rejected) = (0, 0);
            for iteration in 0..BUDGET {
                let mut input = seed.clone();
                mutate(&mut input, &mut rng);
                mutate(&mut input, &mut rng);
                let mut session = small_session(cfg.clone());
                let stream = ScatterStream::from(bytes::Bytes::from(input.clone()));
                let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let reference = reference_verdict(&mut session, stream.clone());
                    (reference, session.apply_checkpoint(stream, 1, 0))
                }));
                let origin = format!("wire v{} iteration {iteration}", cfg.wire_version);
                let Ok((reference, applied)) = applied else {
                    panic!("{origin}: the apply panicked on {input:02x?}");
                };
                assert_eq!(
                    applied.as_ref().map_err(ToString::to_string),
                    reference.as_ref().map_err(ToString::to_string),
                    "{origin}: the staging decode and the reference disagree on {input:02x?}"
                );
                match applied {
                    Err(_) => {
                        assert_replica_untouched(&session);
                        rejected += 1;
                    }
                    Ok(()) => {
                        assert!(session.replicas.get(0).backlog.is_empty(), "{origin}");
                        assert!(image(&session).content_equals(image(&honest)), "{origin}");
                        assert_eq!(replica_vcpus(&session), replica_vcpus(&honest), "{origin}");
                        accepted += 1;
                    }
                }
            }
            println!(
                "wire v{}: {accepted} accepted, {rejected} rejected",
                cfg.wire_version
            );
            assert!(accepted > 0 && rejected > 0);
        }
    }
}
