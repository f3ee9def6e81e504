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

use std::sync::Mutex;

use here_hypervisor::arch::Gpr;
use here_hypervisor::fault::HostHealth;
use here_hypervisor::host::Hypervisor;
use here_hypervisor::kind::HypervisorKind;
use here_hypervisor::memory::GuestMemory;
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
    encode_record_into, Record, ScatterStream, StreamDecoder, StreamEncoder, VERSION, VERSION_V3,
};
use here_vmstate::{reconcile, MemoryDelta, WireError};
use here_workloads::idle::IdleGuest;
use here_workloads::traits::Workload;

use crate::chaos::{corrupt_stream, ChaosState, FaultPlan, TransferFault};
use crate::config::{ReplicationConfig, HEARTBEAT, RETRY};
use crate::dataplane::{
    encode_round, install_verified, translate_vcpus, verify_next, CheckpointPools, EncodePlan,
    EncodeRoundStats, LanePool, PageSource, PayloadMode, ReceiveStep, Received, Verified,
    PARALLEL_ENCODE_MIN_PAGES,
};
use crate::devmgr::DeviceManager;
use crate::error::{CoreError, CoreResult};
use crate::failover::{detection_time, Commit, CommitLedger, FailoverRecord};
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

/// The pages an epoch's stream carries.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EpochPages<'a> {
    /// The continuous phase's harvest: the dirty snapshot in the pools,
    /// read from the paused primary.
    Harvest,
    /// A seeding round's page list.
    Delta(&'a MemoryDelta),
}

/// One epoch's encoded checkpoint, in every wire version the replica set
/// negotiated. A homogeneous set carries exactly one stream; a mixed
/// v2/v3 set carries both, encoded by one walk of the same pages, and
/// each replica decodes the stream matching its negotiated version.
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
    /// Pool workers the Transfer fan-out's pass 1 runs on beside the
    /// calling thread: `min(threads, replicas) − 1`, so a Remus pair
    /// checks serially.
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
    /// The lane stats of the last encode, `None` if it ran inline: what
    /// the epoch's [`SessionEvent::EncodePool`] reports.
    pub(crate) encode_stats: Option<EncodeRoundStats>,
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
            encode_stats: None,
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
    /// snapshot. Delegates to the hypervisor's harvest primitive.
    pub(crate) fn take_dirty_snapshot(&mut self) -> here_hypervisor::dirty::DirtyBitmap {
        self.primary
            .snapshot_dirty(self.pvm)
            .expect("primary must be alive at checkpoint")
    }

    /// Encodes a checkpoint stream: the epoch's pages, every vCPU's state
    /// (translated to the common format for heterogeneous pairs), and the
    /// device identities, in every wire version the replica set
    /// negotiated. This is the *send side* of the data plane — real bytes
    /// are produced and checksummed.
    ///
    /// The pages are encoded in one round across the encode lanes: each
    /// task walks its range of the pages once, straight into its pooled
    /// record buffer, and a mixed v2/v3 set gets both versions' records
    /// from that one walk. The frozen segments are spliced scatter-gather
    /// style into each version's [`ScatterStream`] — no concatenation, no
    /// re-sort. Buffers come back to the pool via
    /// [`Session::recycle_stream`] once the transfer lands.
    pub(crate) fn encode_checkpoint(
        &mut self,
        pages: EpochPages<'_>,
        seq: u64,
    ) -> CoreResult<EpochStreams> {
        let need_v3 = self.wire_v3_active();
        let need_v2 = self.replicas.iter().any(|r| r.wire_version() < VERSION_V3);
        // Head segments: preamble + begin record.
        let mut head = |version: u16| {
            let mut head =
                StreamEncoder::with_buffer_versioned(self.pools.buffers.checkout(64), version);
            head.push(&Record::CheckpointBegin { seq });
            ScatterStream::from(head.finish())
        };
        let mut v3 = need_v3.then(|| head(VERSION_V3));
        let mut v2 = need_v2.then(|| head(VERSION));
        let mode = if need_v3 {
            // Delta records name the committed epoch both sides hold: the
            // primary's base advances only at quorum commit, so an
            // aborted epoch re-encodes against the same base.
            PayloadMode::Columnar {
                base_epoch: self.pools.committed_epoch,
            }
        } else {
            PayloadMode::Metadata
        };

        // Page lanes, encoded concurrently into pooled buffers and spliced
        // in task order as they complete.
        let at_nanos = self.now_nanos();
        let vm = self.primary.vm(self.pvm)?;
        let source = match pages {
            EpochPages::Harvest => PageSource::Snapshot {
                snapshot: &self.pools.harvest,
                records: vm.memory().records(),
            },
            EpochPages::Delta(delta) => PageSource::Entries(delta.entries()),
        };
        let pages_total = source.len() as u64;
        let plan = EncodePlan {
            lanes: if source.len() < PARALLEL_ENCODE_MIN_PAGES {
                1
            } else {
                self.threads
            },
            mode,
            chunk_pages: self.cfg.encode_chunk_pages,
            window: None,
        };
        let mut v3_page_bytes = 0u64;
        let (walls, stats) = encode_round(
            source,
            &plan,
            need_v3 && need_v2,
            &mut self.pools.buffers,
            &self.pools.lanes,
            |_, segment, v2_segment| {
                match v3.as_mut() {
                    Some(stream) => {
                        v3_page_bytes += segment.len() as u64;
                        stream.push(segment);
                    }
                    None => v2.as_mut().expect("a v2-only epoch").push(segment),
                }
                if let Some(segment) = v2_segment {
                    v2.as_mut().expect("a mixed epoch").push(segment);
                }
            },
        );
        self.encode_stats = (!stats.per_lane.is_empty()).then_some(stats);
        self.emit(SessionEvent::EncodeLanes {
            seq,
            at_nanos,
            walls,
        });

        // Tail segments: vCPU state (captured and translated inline),
        // device identities, and the cross-check trailer, written once and
        // copied into each further stream.
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
        encode_record_into(&Record::CheckpointEnd { seq, pages_total }, &mut tail);
        if let (Some(_), Some(stream)) = (&v3, v2.as_mut()) {
            let mut copy = self.pools.buffers.checkout(256);
            copy.extend_from_slice(&tail);
            stream.push(copy.freeze());
        }
        if let Some(stream) = v3.as_mut().or(v2.as_mut()) {
            stream.push(tail.freeze());
        }
        Ok(EpochStreams {
            v2,
            v3,
            v3_page_bytes,
        })
    }

    /// True when any replica negotiated wire v3 this session — the gate
    /// for the delta-base bookkeeping, so an all-v2 session does none.
    pub(crate) fn wire_v3_active(&self) -> bool {
        self.replicas.iter().any(|r| r.wire_version() >= VERSION_V3)
    }

    /// Decodes a checkpoint stream and installs it on one replica — the
    /// *receive side*: pages land in that replica's memory, vCPU state is
    /// re-encoded in its host's native format, and the page count is
    /// cross-checked against the stream trailer.
    ///
    /// The apply is **two passes over the stream's own bytes**: pass 1
    /// ([`StageJob::run`]) checks the whole stream (frame and column
    /// checksums, structure, every frame inside the replica, the vCPUs,
    /// the delta base, the trailer cross-check and presence) and stores no
    /// page; only then does pass 2 ([`Session::install_checkpoint`]) read
    /// the verified page records again and install them. A torn,
    /// truncated or corrupted stream therefore can never leave a partial
    /// epoch on the replica — the previous committed epoch stays
    /// authoritative, which is the invariant the epoch-abort path and
    /// failover activation rely on.
    ///
    /// A successful apply first drains the replica's catch-up backlog
    /// (pages it missed while its link misbehaved), then installs the
    /// epoch, so the newest version always wins on overlap.
    fn apply_checkpoint(
        &mut self,
        stream: ScatterStream,
        seq: u64,
        replica: u32,
    ) -> CoreResult<()> {
        let receipt = self
            .stage_job(stream, seq, replica)
            .and_then(StageJob::run)?;
        self.install_checkpoint(replica, receipt)
    }

    /// The pass-1 job for replica `replica`: `stream` and what it is
    /// checked against, read from the replica.
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

    /// Sends epoch `seq` to every replica, in replica order, each in its
    /// negotiated wire version — the one send loop:
    /// the Transfer stage and every seeding round go through it. Returns,
    /// per replica, whether it applied the epoch and the wire time its
    /// attempts took, `wire(version)` per attempt plus delay and backoff.
    ///
    /// Under a fault plan each attempt may be dropped, corrupted on the
    /// wire, refused by the replica or sent into a downed link; a failed
    /// attempt still occupies the wire for its timeout, then waits out
    /// exponential backoff (see [`RETRY`])
    /// and is retried, until the budget runs out and the replica misses
    /// the epoch. What a miss means is the caller's to decide. An error
    /// is a stream the replica refused outside the plan; the replicas
    /// before it already hold the epoch.
    pub(crate) fn fan_out(
        &mut self,
        streams: &EpochStreams,
        seq: u64,
        wire: impl Fn(u16) -> SimDuration,
    ) -> CoreResult<Vec<(bool, SimDuration)>> {
        let count = self.replicas.len() as u32;
        let mut prestaged = self.prestage(streams, seq);
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
                        // Installs the prestaged receipt where pass 1 ran
                        // ahead, else checks a clone of the stream.
                        match prestaged[replica as usize].take() {
                            Some(receipt) => self.install_checkpoint(replica, receipt?)?,
                            None => self.apply_checkpoint(stream.clone(), seq, replica)?,
                        }
                        if let Some(TransferFault::Delayed(by)) = fault {
                            spent = spent.saturating_add(by);
                        }
                        None
                    }
                    Some(TransferFault::Corrupted {
                        segment_salt,
                        byte_salt,
                    }) => {
                        let corrupted = corrupt_stream(stream, segment_salt, byte_salt);
                        match self.apply_checkpoint(corrupted, seq, replica) {
                            // The decoder's frame checksums (or the trailer
                            // cross-check) reject the flipped byte — and the
                            // two-pass apply guarantees nothing partial was
                            // installed.
                            Err(_) => Some("corrupt_frame"),
                            // Unreachable with checksummed framing; treat a
                            // surviving flip as a delivered attempt.
                            Ok(()) => None,
                        }
                    }
                    // A downed link, a drop or a refusal fails as itself.
                    Some(other) => Some(other.reason()),
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
                if attempt >= RETRY.max_attempts {
                    break false;
                }
                let backoff = RETRY.backoff_after(attempt - 1);
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

    /// Pass 1 for every replica whose first transfer attempt of epoch
    /// `seq` the fault plane delivers intact, run concurrently on the
    /// calling thread and up to [`Session::fanout_helpers`] helpers, each
    /// replica checking its own stream clone against its own image. One
    /// slot per replica, `None` where the plan touches the first attempt.
    ///
    /// Only pure work runs here: the query draws nothing and says nothing,
    /// and every fault draw, event, retry and install stays with
    /// [`Session::fan_out`]'s loop, in replica order, which installs a
    /// slot's receipt where it would have decoded, so a pass-1 error
    /// surfaces exactly where the serial apply's would.
    fn prestage(&self, streams: &EpochStreams, seq: u64) -> Vec<Option<CoreResult<Receipt>>> {
        let count = self.replicas.len() as u32;
        let jobs = (0..count)
            .filter(|&replica| {
                self.chaos
                    .as_ref()
                    .is_none_or(|chaos| chaos.delivers_first_attempt(seq, replica))
            })
            .map(|replica| {
                let stream = streams.for_version(self.replicas.get(replica).wire_version());
                (replica, self.stage_job(stream.clone(), seq, replica))
            })
            .collect();
        let mut slots: Vec<Option<CoreResult<Receipt>>> = (0..count).map(|_| None).collect();
        for (replica, receipt) in stage_all(jobs, &self.pools.lanes, self.fanout_helpers) {
            slots[replica as usize] = Some(receipt);
        }
        slots
    }

    /// Pass 2 of [`Session::apply_checkpoint`]: installs what pass 1
    /// verified — backlog first, so the epoch's (newer) versions win on
    /// overlap, then the page records straight from the stream's bytes,
    /// then the vCPUs.
    fn install_checkpoint(&mut self, replica: u32, receipt: Receipt) -> CoreResult<()> {
        let Receipt {
            pages,
            vcpus,
            rebase_to,
        } = receipt;
        let member = self.replicas.get_mut(replica);
        let mut backlog = std::mem::take(&mut member.backlog);
        if let Some(base) = rebase_to {
            // Backlog catch-up under v3: the parked pages *are* the
            // committed epochs this replica missed, so installing them
            // below makes its image the stream's delta base exactly.
            member.base_epoch = base;
        }
        let vm = member.host.vm_mut(member.vm)?;
        vm.memory_mut().install_batch(backlog.entries())?;
        install_verified(vm.memory_mut(), pages);
        // The backlog keeps its allocation for the next missed epoch.
        backlog.clear();
        member.backlog = backlog;
        member.missed_epoch = false;
        for (index, blob) in vcpus {
            member
                .host
                .set_vcpu_state(member.vm, VcpuId::new(index), blob)?;
        }
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
        let streams = self.encode_checkpoint(EpochPages::Delta(delta), seq)?;
        let outcomes = self.fan_out(&streams, seq, |_| SimDuration::ZERO)?;
        self.recycle_streams(streams);
        if outcomes.iter().all(|&(applied, _)| applied) {
            Ok(())
        } else {
            Err(CoreError::EpochAborted {
                seq,
                attempts: RETRY.max_attempts,
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
        // The epoch's snapshot is still pooled: every page it marks was
        // wiped from the primary's dirty bitmap at Harvest but never
        // reached the replica.
        self.primary
            .vm_mut(self.pvm)?
            .dirty_mut()
            .bitmap_mut()
            .union(self.pools.harvest.bitmap());
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
        let detected_at = detection_time(&HEARTBEAT, failed_at, post_health, lost_heartbeats);
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
        // The paper's engine stages full page payloads for the round in
        // flight, windowed at 256 MiB (it recycles chunk buffers). This is
        // that modelled term, not this reproduction's host: a replica
        // here keeps no staging copy, installing straight from the
        // checked stream.
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
            chaos: self.chaos.and_then(ChaosState::into_stats),
            telemetry: Some(telemetry),
            spans,
            incident,
            wire_versions,
        }
    }
}

/// Pass 1 of an apply for one replica — the job the Transfer fan-out
/// hands out: the stream clone to check and everything it is checked
/// against, read from the replica. Running it touches nothing.
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

/// Pass 1's receipt for one replica, what pass 2 installs: the verified
/// page records (the stream's own bytes, parsed into no pages), the vCPU
/// states in the replica's native format, and the newer delta base the
/// replica adopts as its backlog installs. The tests' reference fills
/// `pages` with staged pairs instead.
pub(crate) struct Receipt<P = Verified> {
    pages: P,
    vcpus: Vec<(u32, VcpuStateBlob)>,
    rebase_to: Option<u64>,
}

impl StageJob<'_> {
    fn run(self) -> CoreResult<Receipt> {
        self.decode(Verified::default(), verify_next)
    }

    /// Reads the job's stream through `receive`, whose page records go to
    /// `pages`, validating every frame, every page's place in the replica,
    /// every vCPU index against its `vcpu_count` (each exactly once) and
    /// the trailer cross-check, without touching the replica.
    ///
    /// The decoder is pinned to the `negotiated` version — a stream in any
    /// other version is a protocol violation
    /// ([`WireError::StaleVersion`](here_vmstate::WireError::StaleVersion)).
    /// Columnar records must name `delta_base` as their delta base; a
    /// newer base is accepted only when `may_rebase`, and comes back for
    /// the install to adopt.
    fn decode<P>(self, mut pages: P, receive: ReceiveStep<P>) -> CoreResult<Receipt<P>> {
        let mut dec = StreamDecoder::new_negotiated(self.stream, self.negotiated)?;
        let mut vcpus: Vec<(u32, VcpuStateBlob)> = Vec::new();
        let mut saw_trailer = false;
        let mut rebase_to: Option<u64> = None;
        let mut pages_seen = 0u64;
        while let Some(next) = receive(&mut dec, self.memory, None, &mut pages)? {
            match next {
                Received::Pages { count, base_epoch } => {
                    pages_seen += count as u64;
                    let base = rebase_to.unwrap_or(self.delta_base);
                    match base_epoch {
                        Some(stream_base) if stream_base != base => {
                            if self.may_rebase && rebase_to.is_none() && stream_base > base {
                                rebase_to = Some(stream_base);
                            } else {
                                return Err(WireError::DeltaBaseMismatch {
                                    stream_base,
                                    replica_base: base,
                                }
                                .into());
                            }
                        }
                        _ => {}
                    }
                }
                Received::Record(Record::VcpuState { index, cir }) => {
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
                Received::Record(Record::CheckpointEnd { pages_total, .. }) => {
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
        Ok(Receipt {
            pages,
            vcpus,
            rebase_to,
        })
    }
}

/// Runs every job on the calling thread and up to `helpers` of `pool`'s
/// parked workers, each lane claiming the next job
/// ([`LanePool::for_each`]). Returns each job's replica and pass-1
/// result, in no particular order. A job whose `Err` says it could not be
/// built keeps that error as its verdict.
fn stage_all(
    jobs: Vec<(u32, CoreResult<StageJob<'_>>)>,
    pool: &LanePool,
    helpers: usize,
) -> Vec<(u32, CoreResult<Receipt>)> {
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    pool.for_each(jobs, helpers, |_, (replica, job)| {
        let receipt = job.and_then(StageJob::run);
        done.lock()
            .expect("no lane panics holding the results")
            .push((replica, receipt));
    });
    done.into_inner()
        .expect("no lane panics holding the results")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FanoutMode, TopologyConfig};
    use here_hypervisor::dirty::DirtyBitmap;
    use here_hypervisor::memory::PageVersion;
    use proptest::prelude::*;

    const MEMORY: ByteSize = ByteSize::from_mib(4);

    fn v2() -> ReplicationConfig {
        ReplicationConfig::fixed_period(SimDuration::from_secs(1))
    }

    /// A one-vCPU, 4 MiB session that has not been seeded: the replica's
    /// image is empty, so anything a test installs shows. Page 9 waits in
    /// its catch-up backlog.
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

    /// Pass 1 refused the stream: the parked backlog page is still
    /// parked and the image is empty.
    fn assert_replica_untouched(session: &Session) {
        let member = session.replicas.get(0);
        assert_eq!(member.backlog.len(), 1);
        assert_eq!(image(session).touched_pages(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// An aborted epoch ORs its snapshot back into the live bitmap:
        /// the live bitmap and its count are what a `mark` loop over the
        /// harvested pages leaves, on sparse, dense, empty and last-frame
        /// harvests, whatever the guest dirtied after the harvest.
        #[test]
        fn an_aborted_epoch_re_dirties_what_a_mark_loop_would(
            harvested in proptest::collection::vec(0u64..1024, 0..300),
            since in proptest::collection::vec(0u64..1024, 0..300),
            dense in any::<bool>(),
            last in any::<bool>(),
        ) {
            fn live(session: &mut Session) -> &mut DirtyBitmap {
                let pvm = session.pvm;
                session.primary.vm_mut(pvm).unwrap().dirty_mut().bitmap_mut()
            }
            let mut session = small_session(v2());
            let pages = live(&mut session).num_pages();
            let mut marked: Vec<u64> = if dense { (0..pages).collect() } else { harvested };
            if last {
                marked.push(pages - 1);
            }
            for &f in &marked {
                live(&mut session).mark(PageId::new(f));
            }
            crate::pipeline::begin(&mut session).unwrap().harvest().unwrap();
            prop_assert!(live(&mut session).is_empty());
            marked.sort_unstable();
            marked.dedup();
            let harvest: Vec<u64> = session.pools.harvest.bitmap().iter().map(|p| p.frame()).collect();
            prop_assert_eq!(harvest, marked);
            for &f in &since {
                live(&mut session).mark(PageId::new(f));
            }
            let mut expected = live(&mut session).clone();
            for page in session.pools.harvest.bitmap().iter() {
                expected.mark(page);
            }
            session.abort_epoch(session.seq, 4).unwrap();
            prop_assert_eq!(live(&mut session).count(), expected.count());
            prop_assert_eq!(&*live(&mut session), &expected);
        }
    }

    #[test]
    fn hostile_frame_past_the_replica_is_rejected_before_anything_installs() {
        // A stream with honest checksums and an honest trailer whose third
        // page lies one frame past the replica's memory: pass 1 must
        // refuse it, with the parked backlog and the image as they were.
        let mut session = small_session(v2());
        let limit = MEMORY.as_bytes() / PAGE_SIZE;
        let streams = session
            .encode_checkpoint(EpochPages::Delta(&delta_at(&[0, 1, limit])), 1)
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
        // missing. Pass 2 would only find out after the backlog and the
        // pages are in — or, for the missing record, never: the epoch
        // installed with the previous epoch's registers.
        let mut session = small_session(v2());
        let streams = session
            .encode_checkpoint(EpochPages::Delta(&delta_at(&[0, 1])), 1)
            .unwrap();
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

    /// Pass 1 of replica 0 through the record-then-`stage` receive step
    /// the two-pass receive replaced: its verdict on `stream`, the replica
    /// left as it was.
    fn reference_verdict(session: &mut Session, stream: ScatterStream) -> CoreResult<()> {
        session
            .stage_job(stream, 1, 0)
            .and_then(|job| job.decode(Vec::new(), crate::dataplane::reference::stage_next))
            .map(drop)
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
            let streams = honest
                .encode_checkpoint(EpochPages::Delta(&delta_at(&[0, 1, 2])), 1)
                .unwrap();
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
                    "{origin}: the two-pass receive and the reference disagree on {input:02x?}"
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

    /// A one-vCPU, 4 MiB, three-replica session that has not been seeded;
    /// under v3 the replicas' caps are `[3, 2, 3]`, so replica 1 takes the
    /// v2 stream.
    fn trio(v3: bool) -> Session {
        let mut cfg = v2().with_topology(TopologyConfig {
            replicas: 3,
            quorum: 2,
            fanout: FanoutMode::Star,
            stale_epoch_lag: 4,
        });
        if v3 {
            cfg = cfg.with_wire_v3().with_replica_wire_caps(vec![3, 2, 3]);
        }
        Session::new(SessionSetup {
            name: "trio".into(),
            memory: MEMORY,
            vcpus: 1,
            cfg,
            workload: Box::new(IdleGuest::new()),
            seed: 1,
            load_during_seed: false,
            verify_consistency: false,
            chaos: None,
        })
        .unwrap()
    }

    /// Replica `replica`'s records, delta base and backlog length.
    fn replica_state(session: &Session, replica: u32) -> (Vec<PageVersion>, u64, usize) {
        let member = session.replicas.get(replica);
        let vm = member.host.vm(member.vm).unwrap();
        let records = vm.memory().records().to_vec();
        (records, member.base_epoch, member.backlog.len())
    }

    /// What the reference makes of `stream` on replica `replica`: pass 1
    /// through the record-then-`stage` step, then the backlog and the
    /// staged pairs stored in order into a copy of its record table, as
    /// `GuestMemory::install_batch` stores them. The records, or the
    /// verdict's message.
    fn reference_records(
        session: &Session,
        stream: ScatterStream,
        replica: u32,
    ) -> Result<Vec<PageVersion>, String> {
        let staged = session
            .stage_job(stream, 1, replica)
            .and_then(|job| job.decode(Vec::new(), crate::dataplane::reference::stage_next))
            .map_err(|e| e.to_string())?
            .pages;
        let member = session.replicas.get(replica);
        let (mut records, _, _) = replica_state(session, replica);
        for &(page, rec) in member.backlog.entries().iter().chain(&staged) {
            records[page.frame() as usize] = rec;
        }
        Ok(records)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Over v2 and mixed-cap v3 epochs whose frames may be listed
        /// twice, with replica 2 holding a catch-up backlog (and, under
        /// v3, re-basing onto the stream's newer base), the two-pass apply
        /// installs on every replica exactly what the reference installs.
        /// Before it, every single-byte edit of replica 2's stream is
        /// refused and leaves its image, base and backlog as they were.
        #[test]
        fn the_two_pass_apply_installs_what_the_reference_installs(
            pages in proptest::collection::vec((0u64..1024, 1u32..9), 0..48),
            backlog in proptest::collection::vec(0u64..1024, 0..8),
            rebase in any::<bool>(),
        ) {
            // The backlog holds the epoch's first frame too, at a version
            // no epoch page has, so installing it last would show.
            let parked: MemoryDelta = pages
                .first()
                .map(|&(frame, _)| frame)
                .into_iter()
                .chain(backlog.iter().copied())
                .map(|frame| (PageId::new(frame), PageVersion { version: 11, last_writer: 1 }))
                .collect();
            for v3 in [false, true] {
                let mut session = trio(v3);
                session.note_replica_backlog(2, &parked);
                if v3 && rebase {
                    // Epoch 6 committed without replica 2, whose image is
                    // still epoch 2 plus its backlog.
                    session.replicas.get_mut(2).base_epoch = 2;
                    let _ = session.ack(0, 6, SimTime::ZERO);
                    let commit = session.ack(1, 6, SimTime::ZERO).expect("the quorum-th ack");
                    session.on_commit(commit, &[0, 1]);
                }
                let delta: MemoryDelta = pages
                    .iter()
                    .map(|&(frame, version)| {
                        (PageId::new(frame), PageVersion { version, last_writer: 0 })
                    })
                    .collect();
                let streams = session.encode_checkpoint(EpochPages::Delta(&delta), 1).unwrap();
                let stream_of = |session: &Session, replica: u32| {
                    streams.for_version(session.replicas.get(replica).wire_version()).clone()
                };
                let honest = stream_of(&session, 2).gather().to_vec();
                let before = replica_state(&session, 2);
                for at in 0..honest.len() {
                    let mut edited = honest.clone();
                    edited[at] ^= 0xff;
                    let edited = ScatterStream::from(bytes::Bytes::from(edited));
                    prop_assert!(session.apply_checkpoint(edited, 1, 2).is_err(), "byte {}", at);
                    prop_assert!(replica_state(&session, 2) == before, "byte {} installed", at);
                }
                for replica in 0..3 {
                    let want = reference_records(&session, stream_of(&session, replica), replica);
                    let got = session
                        .apply_checkpoint(stream_of(&session, replica), 1, replica)
                        .map(|()| replica_state(&session, replica).0)
                        .map_err(|e| e.to_string());
                    prop_assert_eq!(got, want, "v3 {} replica {}", v3, replica);
                    prop_assert_eq!(session.replicas.get(replica).backlog.len(), 0);
                }
                let base = if v3 && rebase { 6 } else { 0 };
                prop_assert_eq!(session.replicas.get(2).base_epoch, base);
            }
        }
    }
}
