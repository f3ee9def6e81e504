//! Replication configuration and the calibrated cost model.
//!
//! Every duration the simulation reports flows through [`CostModel`], which
//! holds the constants calibrated against the paper's testbed (two Xeon
//! Gold 6130 servers, Omni-Path replication link — §8.1). Centralising them
//! keeps all experiments priced identically and makes the calibration
//! auditable in one place.
//!
//! [`ReplicationConfig`] carries only what some caller sets. The `P` of
//! the pause model `t = αN/P + C` is given by the VM (one data-plane
//! thread and encode lane per vCPU under HERE, one under Remus), and the
//! seeding limits, the encode hand-off window, the flight-ring capacity,
//! the failure detector ([`HEARTBEAT`]) and the transfer retry policy
//! ([`RETRY`]) are constants: a new field needs a non-test caller.

use serde::{Deserialize, Serialize};

use here_hypervisor::host::Hypervisor;
use here_hypervisor::kind::HypervisorKind;
use here_hypervisor::{KvmHypervisor, XenHypervisor};
use here_sim_core::rate::ByteSize;
use here_sim_core::time::SimDuration;
use here_vmstate::translate::StateTranslator;
use here_vmstate::MemoryDelta;

use crate::error::CoreResult;
use crate::transfer::ProblematicTracker;

/// How the checkpoint period is controlled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PeriodPolicy {
    /// A fixed period `T`, as in Remus and in HERE's `D = 0 %`
    /// configurations (`T` is then forced to `T_max`).
    Fixed(SimDuration),
    /// HERE's dynamic control (§5.4, Algorithm 1): keep measured
    /// degradation near `d_target` (soft) without ever exceeding `t_max`
    /// (hard), stepping the period by `sigma`.
    Dynamic {
        /// Desired degradation `D` in `(0, 1)`; soft limit.
        d_target: f64,
        /// Maximum tolerable period `T_max`; hard limit.
        /// [`SimDuration::MAX`] means unbounded (`T_max = ∞` in Table 6).
        t_max: SimDuration,
        /// Adjustment step `σ`.
        sigma: SimDuration,
    },
}

/// Default adjustment step σ (250 ms).
pub const DEFAULT_SIGMA: SimDuration = SimDuration::from_millis(250);

/// Which replication strategy runs the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// The Remus baseline: single-threaded tracking and transfer,
    /// homogeneous pair (Xen → Xen).
    Remus,
    /// HERE: per-vCPU seeding threads, round-robin chunked checkpoint
    /// workers, heterogeneous pair (Xen → KVM/kvmtool) with state
    /// translation.
    Here,
}

impl Strategy {
    /// Builds the secondary host and, for heterogeneous pairs, the state
    /// translator between the two hypervisors' native formats.
    ///
    /// # Errors
    ///
    /// Fails if the translator cannot be constructed for the pairing.
    pub(crate) fn make_secondary(
        self,
        host_memory: ByteSize,
    ) -> CoreResult<(Box<dyn Hypervisor>, Option<StateTranslator>)> {
        Ok(match self {
            Strategy::Remus => (Box::new(XenHypervisor::new(host_memory)), None),
            Strategy::Here => (
                Box::new(KvmHypervisor::new(host_memory)),
                Some(StateTranslator::new(
                    HypervisorKind::Xen,
                    HypervisorKind::Kvm,
                )?),
            ),
        })
    }

    /// The thread count the data plane uses for a VM with `vcpus` vCPUs:
    /// one under Remus, one per vCPU under HERE.
    pub(crate) fn effective_threads(self, vcpus: u32) -> u32 {
        match self {
            Strategy::Remus => 1,
            Strategy::Here => vcpus.max(1),
        }
    }

    /// One-time cost paid before the seeding migration starts (HERE's
    /// thread-pool and per-vCPU PML ring setup; zero for Remus).
    pub(crate) fn migration_setup(self, costs: &CostModel) -> SimDuration {
        match self {
            Strategy::Remus => SimDuration::ZERO,
            Strategy::Here => costs.here_migration_setup,
        }
    }

    /// Feeds one pre-copy round's delta into the problematic-page tracker
    /// (§7.2). Remus has a single migration stream, so nothing is ever
    /// problematic; HERE's per-vCPU migrator threads send each page from
    /// the thread of the vCPU that last wrote it, so a page that hops
    /// between threads across rounds becomes problematic.
    pub(crate) fn track_problematic(self, tracker: &mut ProblematicTracker, delta: &MemoryDelta) {
        if self == Strategy::Here {
            for &(page, rec) in delta.entries() {
                tracker.record(page, rec.last_writer);
            }
        }
    }

    /// Extra constant paid in the *Pause* stage of every checkpoint
    /// (Remus re-enters its toolstack; HERE keeps a persistent session).
    pub(crate) fn pause_extra(self, costs: &CostModel) -> SimDuration {
        match self {
            Strategy::Remus => costs.remus_extra_const,
            Strategy::Here => SimDuration::ZERO,
        }
    }
}

/// How an encoded epoch fans out across the replica set during the
/// *Transfer* stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FanoutMode {
    /// The primary ships the epoch to every replica directly; the stage
    /// lasts as long as the slowest per-replica transfer (they overlap
    /// on independent links).
    #[default]
    Star,
    /// Chained replication: the epoch hops replica 0 → 1 → … → N−1, so
    /// the stage lasts the *sum* of the per-hop transfers but the
    /// primary's own egress stays a single stream.
    Chain,
}

/// Shape of the replica set a session protects the primary with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Number of replicas (at least 1). Replica 0 is always the
    /// strategy's canonical secondary, so `replicas = 1` reproduces the
    /// paper's 1→1 pair exactly.
    pub replicas: u32,
    /// Acks required before an epoch commits; clamped to
    /// `[1, replicas]` by [`TopologyConfig::effective_quorum`].
    pub quorum: u32,
    /// Star or chained fan-out of the Transfer stage.
    pub fanout: FanoutMode,
    /// Epoch lag past which a trailing replica is declared stale.
    pub stale_epoch_lag: u64,
}

impl TopologyConfig {
    /// The classic single-replica pair: `N = 1`, `quorum = 1`, star
    /// fan-out (degenerate), staleness bound of 8 epochs.
    pub fn single() -> Self {
        TopologyConfig {
            replicas: 1,
            quorum: 1,
            fanout: FanoutMode::Star,
            stale_epoch_lag: 8,
        }
    }

    /// The quorum the ledger actually enforces: `quorum` clamped to
    /// `[1, replicas]`.
    pub fn effective_quorum(&self) -> u32 {
        self.quorum.clamp(1, self.replicas.max(1))
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig::single()
    }
}

/// Heartbeat parameters for failure detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Interval between heartbeats.
    pub period: SimDuration,
    /// Consecutive misses before the secondary declares the primary dead.
    pub missed_threshold: u32,
}

/// The failure detector every session runs: a 10 ms heartbeat, declared
/// dead after 3 consecutive misses (a 40 ms budget for a silent host).
pub const HEARTBEAT: HeartbeatConfig = HeartbeatConfig {
    period: SimDuration::from_millis(10),
    missed_threshold: 3,
};

/// Bounded-retry policy for the checkpoint *Transfer* stage: a failed
/// attempt (dropped, corrupted, refused, or sent into a downed link) is
/// retried after exponential backoff; exhausting the budget aborts the
/// epoch and the previous committed checkpoint stays authoritative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transfer attempts per checkpoint (at least 1).
    pub max_attempts: u32,
    /// Backoff charged after the first failed attempt; doubles per retry.
    pub backoff_base: SimDuration,
    /// Upper bound on a single backoff.
    pub backoff_cap: SimDuration,
}

/// The transfer retry policy every session runs: 4 attempts per
/// checkpoint, backoff from 500 µs doubling up to 50 ms.
pub const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    backoff_base: SimDuration::from_micros(500),
    backoff_cap: SimDuration::from_millis(50),
};

impl RetryPolicy {
    /// The backoff charged after failed attempt `attempt` (0-based):
    /// `backoff_base · 2^attempt`, saturating, capped at `backoff_cap`.
    pub fn backoff_after(&self, attempt: u32) -> SimDuration {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        let nanos = self.backoff_base.as_nanos().saturating_mul(factor);
        SimDuration::from_nanos(nanos.min(self.backoff_cap.as_nanos()))
    }
}

/// The calibrated timing model (see DESIGN.md, *Calibration constants*).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// CPU cost to scan, copy and serialise one dirty page on a single
    /// stream during *bulk migration*.
    pub migrate_scan_per_page: SimDuration,
    /// Effective wire cost per page during bulk migration (shared by all
    /// streams; includes protocol overhead beyond raw Omni-Path rate).
    pub migrate_wire_per_page: SimDuration,
    /// Total CPU work per dirty page during a *checkpoint* round (bitmap
    /// read-and-clear, page copy into the staging buffer, batching,
    /// syscalls). Worker threads split this, so the pause-latency
    /// contribution is this divided by the effective parallelism, while
    /// §8.7's CPU accounting charges the full amount.
    pub checkpoint_cpu_per_page: SimDuration,
    /// Wire cost per page during a checkpoint round.
    pub checkpoint_wire_per_page: SimDuration,
    /// Per-thread fixed CPU cost of participating in one checkpoint
    /// (wakeup, chunk plan walk, result merge).
    pub checkpoint_thread_overhead: SimDuration,
    /// Constant per-checkpoint cost: pause/resume, vCPU and device state
    /// capture/transfer/ack.
    pub checkpoint_const: SimDuration,
    /// Extra constant cost Remus pays per checkpoint (its toolstack path
    /// re-enters xl/libxl; HERE keeps a persistent session).
    pub remus_extra_const: SimDuration,
    /// One-time setup cost of HERE's multithreaded migration (thread pool
    /// and per-vCPU PML ring setup) — why HERE is slightly *slower* than
    /// Xen for 1–2 GiB VMs in Fig. 6.
    pub here_migration_setup: SimDuration,
    /// Marginal efficiency of each additional transfer thread during
    /// checkpoints (1.0 would be perfect scaling; the paper's observed
    /// gains imply ~0.55).
    pub parallel_efficiency: f64,
    /// Marginal efficiency of each additional migrator thread during
    /// seeding — lower than the checkpoint path because per-vCPU rings
    /// need cross-thread reconciliation (Fig. 6's ~25 % idle gain).
    pub migration_parallel_efficiency: f64,
    /// Guest-side disturbance per pause (cache/TLB refill, scheduler churn)
    /// — the paper's explanation for why high degradation targets slightly
    /// overshoot (§8.6).
    pub pause_disturbance: SimDuration,
    /// Time to switch the replica's device set on failover (agent unplug +
    /// replug of the secondary's PV devices).
    pub device_switch: SimDuration,
    /// Time to translate and load vCPU/platform state on failover.
    pub state_load: SimDuration,
    /// Baseline resident set of the replication engine (thread stacks,
    /// session state, chunk plan).
    pub rss_base_mib: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            migrate_scan_per_page: SimDuration::from_nanos(3300),
            migrate_wire_per_page: SimDuration::from_nanos(1700),
            checkpoint_cpu_per_page: SimDuration::from_nanos(2000),
            checkpoint_wire_per_page: SimDuration::from_nanos(550),
            checkpoint_thread_overhead: SimDuration::from_millis(2),
            checkpoint_const: SimDuration::from_millis(4),
            remus_extra_const: SimDuration::from_millis(8),
            here_migration_setup: SimDuration::from_millis(1800),
            parallel_efficiency: 0.55,
            migration_parallel_efficiency: 0.30,
            pause_disturbance: SimDuration::from_millis(9),
            device_switch: SimDuration::from_millis(3),
            state_load: SimDuration::from_micros(600),
            rss_base_mib: 64,
        }
    }
}

impl CostModel {
    /// Effective parallelism of `threads` transfer threads:
    /// `1 + (threads − 1) · efficiency`.
    pub fn effective_parallelism(&self, threads: u32) -> f64 {
        assert!(threads >= 1, "at least one transfer thread is required");
        1.0 + (threads as f64 - 1.0) * self.parallel_efficiency
    }

    /// Duration of one bulk-migration copy round of `pages` pages using
    /// `threads` streams: scan parallelises, the wire is shared.
    pub fn migration_round(&self, pages: u64, threads: u32) -> SimDuration {
        assert!(threads >= 1, "at least one transfer thread is required");
        let p = 1.0 + (threads as f64 - 1.0) * self.migration_parallel_efficiency;
        let scan = self.migrate_scan_per_page.mul_f64(pages as f64 / p);
        let wire = self.migrate_wire_per_page * pages;
        scan + wire
    }

    /// The scan/copy component of a checkpoint pause: `αN/P` of Eq. 4 —
    /// what the pipeline's *Harvest* stage costs.
    pub fn checkpoint_scan(&self, pages: u64, threads: u32) -> SimDuration {
        let p = self.effective_parallelism(threads);
        self.checkpoint_cpu_per_page.mul_f64(pages as f64 / p)
    }

    /// The wire component of a checkpoint pause — what the pipeline's
    /// *Transfer* stage costs.
    pub fn checkpoint_wire(&self, pages: u64) -> SimDuration {
        self.checkpoint_wire_per_page * pages
    }

    /// Pause duration `t` of a checkpoint copying `pages` dirty pages with
    /// `threads` workers — the paper's Equation 4, `t = αN/P + C`.
    ///
    /// Computed as the sum of the per-stage components
    /// ([`CostModel::checkpoint_scan`], [`CostModel::checkpoint_wire`],
    /// [`CostModel::checkpoint_const`](CostModel), and the strategy's extra
    /// constant), so the pipeline's stage attribution can never drift from
    /// this total.
    pub fn checkpoint_pause(&self, pages: u64, threads: u32, strategy: Strategy) -> SimDuration {
        self.checkpoint_scan(pages, threads)
            + self.checkpoint_wire(pages)
            + self.checkpoint_const
            + strategy.pause_extra(self)
    }

    /// Total CPU time the replication engine burns for one checkpoint of
    /// `pages` pages with `threads` workers (the §8.7 accounting: work is
    /// split across threads but its *sum* is what the host pays).
    pub fn checkpoint_cpu_work(&self, pages: u64, threads: u32) -> SimDuration {
        self.checkpoint_cpu_per_page * pages + self.checkpoint_thread_overhead * threads as u64
    }
}

/// Full configuration of a replication session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicationConfig {
    /// Data-plane strategy (Remus baseline or HERE).
    pub strategy: Strategy,
    /// Checkpoint period control.
    pub period: PeriodPolicy,
    /// The calibrated cost model.
    pub costs: CostModel,
    /// Replica-set shape: how many replicas, the commit quorum, and the
    /// Transfer fan-out mode.
    pub topology: TopologyConfig,
    /// Chunk-framed encode: `None` keeps the legacy one-record-per-lane
    /// shard framing (byte-identical streams to prior releases); `Some(p)`
    /// frames one page-batch record per `p`-page chunk, giving the
    /// lane pool enough tasks to balance.
    pub encode_chunk_pages: Option<u32>,
    /// Overlap the Transfer stage's wire time with the encode scan in
    /// *virtual* time: once the first chunk is framed the wire starts
    /// draining, so the epoch costs `max(scan, wire)` plus a one-chunk
    /// residue instead of `scan + wire`. Off by default (fingerprints of
    /// existing experiments stay byte-identical).
    pub overlap_transfer: bool,
    /// Arms the replication health plane: per-epoch windowed series,
    /// per-replica health state machines, and the deterministic alert
    /// engine, with replica-labelled metric families and alert spans in
    /// the trace. Off by default (fingerprints and metric schemas of
    /// existing experiments stay byte-identical).
    pub health_plane: bool,
    /// Arms postmortem incident capture: the first armed trigger (alert
    /// raised, failover, epoch abort, or explicit request) is recorded in
    /// the run report, from which a replayable
    /// [`IncidentBundle`](crate::postmortem::IncidentBundle) is captured.
    /// Off by default.
    pub postmortem_capture: bool,
    /// Wire format version the primary *offers* each replica: 2 (default,
    /// byte-identical to prior releases) or 3 (epoch-delta columnar
    /// records). Each replica negotiates `min(offer, its capability)`, so
    /// a v3 offer still speaks v2 to v2-capped replicas.
    pub wire_version: u16,
    /// Per-replica wire capability ceilings, indexed like the replica set:
    /// `None` means every replica is fully capable (negotiates the offer);
    /// a missing entry defaults to fully capable.
    pub replica_wire_caps: Option<Vec<u16>>,
}

/// Maximum pre-copy iterations before the seeding migration forces its
/// stop-and-copy (Xen's default, §3.2).
pub const DEFAULT_MAX_MIGRATION_ITERATIONS: u32 = 5;

/// Dirty-page count at or below which the seeding migration converges to
/// its stop-and-copy.
pub const DEFAULT_MIGRATION_DIRTY_THRESHOLD: u64 = 256;

impl ReplicationConfig {
    /// What every constructor starts from: `strategy` and `period` as
    /// given, every other field at the default a knob-free session runs
    /// with.
    fn base(strategy: Strategy, period: PeriodPolicy) -> Self {
        ReplicationConfig {
            strategy,
            period,
            costs: CostModel::default(),
            topology: TopologyConfig::single(),
            encode_chunk_pages: None,
            overlap_transfer: false,
            health_plane: false,
            postmortem_capture: false,
            wire_version: here_vmstate::wire::VERSION,
            replica_wire_caps: None,
        }
    }

    /// HERE with a fixed checkpoint period (the paper's
    /// `HERE(T, 0 %)` configurations).
    pub fn fixed_period(t: SimDuration) -> Self {
        Self::base(Strategy::Here, PeriodPolicy::Fixed(t))
    }

    /// HERE with dynamic period control: degradation target `d_target`
    /// and hard period cap `t_max` (`SimDuration::MAX` for ∞).
    ///
    /// # Panics
    ///
    /// Panics if `d_target` is outside `(0, 1)`.
    pub fn dynamic(d_target: f64, t_max: SimDuration) -> Self {
        assert!(
            d_target > 0.0 && d_target < 1.0,
            "degradation target must be in (0,1), got {d_target}"
        );
        Self::base(
            Strategy::Here,
            PeriodPolicy::Dynamic {
                d_target,
                t_max,
                sigma: DEFAULT_SIGMA,
            },
        )
    }

    /// The Remus baseline with its fixed period.
    pub fn remus(t: SimDuration) -> Self {
        Self::base(Strategy::Remus, PeriodPolicy::Fixed(t))
    }

    /// Overrides the replication topology (replica count, quorum size,
    /// fan-out mode and staleness bound).
    pub fn with_topology(mut self, topology: TopologyConfig) -> Self {
        self.topology = topology;
        self
    }

    /// Overrides the adjustment step σ (dynamic policies only; ignored for
    /// fixed periods).
    pub fn with_sigma(mut self, new_sigma: SimDuration) -> Self {
        if let PeriodPolicy::Dynamic { sigma, .. } = &mut self.period {
            *sigma = new_sigma;
        }
        self
    }

    /// The thread count the data plane uses for a VM with `vcpus` vCPUs,
    /// transfer threads and encode lanes alike: one under Remus, one per
    /// vCPU under HERE.
    pub fn effective_threads(&self, vcpus: u32) -> u32 {
        self.strategy.effective_threads(vcpus)
    }

    /// Switches the encode path to chunk framing: one page-batch record
    /// per `pages`-page chunk.
    pub fn with_encode_chunk_pages(mut self, pages: u32) -> Self {
        self.encode_chunk_pages = Some(pages.max(1));
        self
    }

    /// Enables virtual-time encode/wire overlap accounting for the
    /// Transfer stage.
    pub fn with_overlap_transfer(mut self) -> Self {
        self.overlap_transfer = true;
        self
    }

    /// Arms the replication health plane (windowed series, per-replica
    /// health state machines, deterministic alerts).
    pub fn with_health_plane(mut self) -> Self {
        self.health_plane = true;
        self
    }

    /// Arms postmortem incident capture: the first armed trigger (alert
    /// raised, failover, epoch abort, or explicit end-of-run request)
    /// lands in the run report as an
    /// [`IncidentTrigger`](crate::postmortem::IncidentTrigger).
    pub fn with_postmortem_capture(mut self) -> Self {
        self.postmortem_capture = true;
        self
    }

    /// Offers wire format v3 (epoch-delta columnar records) to the
    /// replica set; each replica negotiates `min(3, its capability)`.
    pub fn with_wire_v3(self) -> Self {
        self.with_wire_version(here_vmstate::wire::VERSION_V3)
    }

    /// Offers an explicit wire format version, clamped to the supported
    /// range (v2..=v3).
    pub fn with_wire_version(mut self, version: u16) -> Self {
        self.wire_version =
            version.clamp(here_vmstate::wire::VERSION, here_vmstate::wire::VERSION_V3);
        self
    }

    /// Caps each replica's wire capability (indexed like the replica set;
    /// missing entries stay fully capable) — how a mixed v2/v3 replica
    /// pool is modelled.
    pub fn with_replica_wire_caps(mut self, caps: Vec<u16>) -> Self {
        self.replica_wire_caps = Some(caps);
        self
    }

    /// The wire version replica `index` negotiates under this config:
    /// `min(offer, capability)`, clamped to the supported range.
    pub fn negotiated_wire_version(&self, index: usize) -> u16 {
        let cap = self
            .replica_wire_caps
            .as_ref()
            .and_then(|caps| caps.get(index))
            .copied()
            .unwrap_or(here_vmstate::wire::VERSION_V3);
        self.wire_version
            .min(cap)
            .clamp(here_vmstate::wire::VERSION, here_vmstate::wire::VERSION_V3)
    }

    /// Chunks a `pages`-page epoch will be framed into: one per chunk when
    /// chunk framing is on, otherwise one shard per data-plane thread.
    pub fn epoch_chunks(&self, pages: u64, threads: u32) -> u64 {
        match self.encode_chunk_pages {
            Some(p) => pages.div_ceil(u64::from(p.max(1))).max(1),
            None => u64::from(threads.max(1)).min(pages.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_parallelism_scales_with_efficiency() {
        let m = CostModel::default();
        assert_eq!(m.effective_parallelism(1), 1.0);
        let p4 = m.effective_parallelism(4);
        assert!((p4 - 2.65).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_pause_is_linear_in_pages() {
        let m = CostModel::default();
        let t1 = m.checkpoint_pause(100_000, 1, Strategy::Here);
        let t2 = m.checkpoint_pause(200_000, 1, Strategy::Here);
        let slope1 = (t1 - m.checkpoint_const).as_nanos();
        let slope2 = (t2 - m.checkpoint_const).as_nanos();
        assert_eq!(slope2, slope1 * 2);
    }

    #[test]
    fn here_checkpoints_beat_remus_at_equal_pages() {
        let m = CostModel::default();
        let remus = m.checkpoint_pause(480_000, 1, Strategy::Remus);
        let here = m.checkpoint_pause(480_000, 4, Strategy::Here);
        let gain = 1.0 - here.as_secs_f64() / remus.as_secs_f64();
        // The loaded-VM improvement the paper reports is ~49 %.
        assert!((0.40..0.75).contains(&gain), "gain {gain}");
    }

    #[test]
    fn remus_is_always_single_threaded() {
        let cfg = ReplicationConfig::remus(SimDuration::from_secs(3));
        assert_eq!(cfg.effective_threads(4), 1);
        let here = ReplicationConfig::fixed_period(SimDuration::from_secs(3));
        assert_eq!(here.effective_threads(4), 4);
    }

    #[test]
    #[should_panic(expected = "degradation target")]
    fn dynamic_rejects_bad_target() {
        ReplicationConfig::dynamic(1.5, SimDuration::from_secs(10));
    }

    #[test]
    fn pause_components_sum_to_the_total() {
        let m = CostModel::default();
        for &(pages, threads) in &[(1_000u64, 1u32), (480_000, 4), (7, 2)] {
            let here = m.checkpoint_pause(pages, threads, Strategy::Here);
            assert_eq!(
                here,
                m.checkpoint_scan(pages, threads) + m.checkpoint_wire(pages) + m.checkpoint_const
            );
            let remus = m.checkpoint_pause(pages, 1, Strategy::Remus);
            assert_eq!(
                remus,
                m.checkpoint_scan(pages, 1)
                    + m.checkpoint_wire(pages)
                    + m.checkpoint_const
                    + m.remus_extra_const
            );
        }
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let retry = RETRY;
        assert_eq!(retry.backoff_after(0), SimDuration::from_micros(500));
        assert_eq!(retry.backoff_after(1), SimDuration::from_millis(1));
        assert_eq!(retry.backoff_after(2), SimDuration::from_millis(2));
        // 500 µs · 2^7 = 64 ms > the 50 ms cap.
        assert_eq!(retry.backoff_after(7), SimDuration::from_millis(50));
        // Huge attempt counts saturate instead of overflowing the shift.
        assert_eq!(retry.backoff_after(200), SimDuration::from_millis(50));
    }

    #[test]
    fn wire_version_negotiation_clamps_and_caps() {
        let cfg = ReplicationConfig::fixed_period(SimDuration::from_secs(1));
        assert_eq!(cfg.wire_version, 2);
        assert_eq!(cfg.negotiated_wire_version(0), 2);
        let v3 = cfg
            .clone()
            .with_wire_v3()
            .with_replica_wire_caps(vec![3, 2]);
        assert_eq!(v3.wire_version, 3);
        assert_eq!(v3.negotiated_wire_version(0), 3);
        assert_eq!(v3.negotiated_wire_version(1), 2);
        // Missing cap entries stay fully capable.
        assert_eq!(v3.negotiated_wire_version(2), 3);
        // Offers outside the supported range are clamped.
        assert_eq!(cfg.with_wire_version(99).wire_version, 3);
    }

    #[test]
    fn migration_rounds_prefer_threads_for_big_counts() {
        let m = CostModel::default();
        let single = m.migration_round(5_000_000, 1);
        let multi = m.migration_round(5_000_000, 4);
        assert!(multi < single);
        // But the wire term bounds the benefit.
        assert!(multi > m.migrate_wire_per_page * 5_000_000);
    }
}
