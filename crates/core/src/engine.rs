//! Scenario description and orchestration — the crate's public entry
//! point.
//!
//! A [`Scenario`] wires together the full stack — a primary host, a
//! secondary host, a protected VM running a workload, the replication
//! configuration, and optionally an injected failure — and [`Scenario::run`]
//! executes it in virtual time, producing a [`RunReport`] with everything
//! the paper's figures need.
//!
//! The engine itself is deliberately thin: the replication lifecycle lives
//! in dedicated modules. [`crate::session`] owns the mutable run state and
//! its phase FSM, [`crate::migrate`] runs the seeding migration,
//! [`crate::checkpoint`] drives the continuous phase, and every checkpoint
//! flows through the staged pipeline of [`crate::pipeline`], emitting
//! [`StageEvent`](crate::trace::StageEvent)s at each boundary.

use here_hypervisor::fault::DosOutcome;
use here_hypervisor::host::Hypervisor;
use here_hypervisor::vm::VmConfig;
use here_hypervisor::XenHypervisor;
use here_sim_core::metrics::Histogram;
use here_sim_core::rate::ByteSize;
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};
use here_simnet::link::Link;
use here_vulndb::exploit::Exploit;
use here_workloads::idle::IdleGuest;
use here_workloads::traits::Workload;

use crate::chaos::FaultPlan;
use crate::config::ReplicationConfig;
use crate::error::{CoreError, CoreResult};
use crate::report::{ResourceUsage, RunReport};
use crate::session::{CLIENT_STACK_OVERHEAD, HOST_MEMORY, MAX_SLICE};

/// What brings the primary down.
#[derive(Debug, Clone)]
pub enum FailureCause {
    /// A weaponised DoS CVE launched at the primary.
    Exploit(Exploit),
    /// An accidental failure (hardware fault, power cut) with the given
    /// manifestation.
    Accident(DosOutcome),
}

/// A planned failure injection.
#[derive(Debug, Clone)]
pub struct FailurePlan {
    /// When the failure hits.
    pub at: SimTime,
    /// What happens.
    pub cause: FailureCause,
    /// After failover, relaunch the same exploit against the secondary
    /// (the paper's "the attacker now needs two different exploits"
    /// argument, §6). Only meaningful for [`FailureCause::Exploit`].
    pub reattack_secondary: bool,
}

/// How the VM is protected.
// One per Scenario, never collected — the variant size gap is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Protection {
    Unprotected,
    Replicated(ReplicationConfig),
}

/// A fully specified experiment.
///
/// Create one with [`Scenario::builder`]; run it with [`Scenario::run`].
#[derive(Debug)]
pub struct Scenario {
    pub(crate) name: String,
    pub(crate) memory: ByteSize,
    pub(crate) vcpus: u32,
    pub(crate) workload: Box<dyn Workload>,
    pub(crate) protection: Protection,
    pub(crate) duration: SimDuration,
    pub(crate) seed: u64,
    pub(crate) failure: Option<FailurePlan>,
    pub(crate) stop_when_workload_done: bool,
    pub(crate) load_during_seed: bool,
    pub(crate) warmup: SimDuration,
    pub(crate) verify_consistency: bool,
    pub(crate) chaos: Option<FaultPlan>,
}

/// Builder for [`Scenario`].
#[derive(Debug)]
pub struct ScenarioBuilder {
    name: Option<String>,
    memory: ByteSize,
    vcpus: u32,
    workload: Option<Box<dyn Workload>>,
    protection: Protection,
    duration: SimDuration,
    seed: u64,
    failure: Option<FailurePlan>,
    stop_when_workload_done: bool,
    load_during_seed: bool,
    warmup: SimDuration,
    verify_consistency: bool,
    chaos: Option<FaultPlan>,
}

impl Scenario {
    /// Starts building a scenario. Defaults: 1 GiB / 4 vCPUs, idle guest,
    /// HERE with a fixed 5-second period, 60 s of virtual time, seed 42.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            name: None,
            memory: ByteSize::from_gib(1),
            vcpus: 4,
            workload: None,
            protection: Protection::Replicated(ReplicationConfig::fixed_period(
                SimDuration::from_secs(5),
            )),
            duration: SimDuration::from_secs(60),
            seed: 42,
            failure: None,
            stop_when_workload_done: true,
            load_during_seed: false,
            warmup: SimDuration::ZERO,
            verify_consistency: false,
            chaos: None,
        }
    }

    /// Executes the scenario to completion.
    ///
    /// # Panics
    ///
    /// Panics only on internal invariant violations (e.g. a corrupted
    /// replication stream), never on valid configurations.
    pub fn run(self) -> RunReport {
        let report = match &self.protection {
            Protection::Unprotected => run_unprotected(self),
            Protection::Replicated(_) => crate::checkpoint::run_replicated(self)
                .expect("replicated run failed on a valid scenario"),
        };
        notify_run_observer(&report);
        report
    }
}

/// An optional process-wide callback invoked with every finished
/// [`RunReport`] — the hook behind `repro --format`, letting a harness
/// dump any scenario's telemetry or trace without per-experiment code.
type RunObserver = Box<dyn Fn(&RunReport) + Send>;

static RUN_OBSERVER: std::sync::Mutex<Option<RunObserver>> = std::sync::Mutex::new(None);

/// Installs (or replaces) the process-wide run observer.
pub fn set_run_observer(observer: impl Fn(&RunReport) + Send + 'static) {
    if let Ok(mut slot) = RUN_OBSERVER.lock() {
        *slot = Some(Box::new(observer));
    }
}

/// Removes the process-wide run observer, if any.
pub fn clear_run_observer() {
    if let Ok(mut slot) = RUN_OBSERVER.lock() {
        *slot = None;
    }
}

fn notify_run_observer(report: &RunReport) {
    if let Ok(slot) = RUN_OBSERVER.lock() {
        if let Some(observer) = slot.as_ref() {
            observer(report);
        }
    }
}

impl ScenarioBuilder {
    /// Sets the scenario name (appears in the report).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Guest memory in GiB.
    pub fn vm_memory_gib(mut self, gib: u64) -> Self {
        self.memory = ByteSize::from_gib(gib);
        self
    }

    /// Guest memory in MiB (for small test VMs).
    pub fn vm_memory_mib(mut self, mib: u64) -> Self {
        self.memory = ByteSize::from_mib(mib);
        self
    }

    /// Number of vCPUs.
    pub fn vcpus(mut self, vcpus: u32) -> Self {
        self.vcpus = vcpus;
        self
    }

    /// The workload to run in the protected VM.
    pub fn workload(mut self, workload: Box<dyn Workload>) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Protects the VM with the given replication configuration.
    pub fn config(mut self, config: ReplicationConfig) -> Self {
        self.protection = Protection::Replicated(config);
        self
    }

    /// Runs the VM without any replication (the figures' "Xen" baseline).
    pub fn unprotected(mut self) -> Self {
        self.protection = Protection::Unprotected;
        self
    }

    /// Virtual-time budget of the run.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Plans a failure injection.
    pub fn failure(mut self, plan: FailurePlan) -> Self {
        self.failure = Some(plan);
        self
    }

    /// Keep running even after a bounded workload finishes (default is to
    /// stop at completion).
    pub fn run_full_duration(mut self) -> Self {
        self.stop_when_workload_done = false;
        self
    }

    /// Runs the workload during the seeding migration too (Fig. 6
    /// migrates a VM that is already under load). By default the workload
    /// starts only once replication is established — benchmarks measure
    /// the replicated steady state, not the seeding transient — and an
    /// idle guest supplies the background dirtying during the seed.
    pub fn load_during_seed(mut self) -> Self {
        self.load_during_seed = true;
        self
    }

    /// Runs continuous replication for `warmup` of virtual time before the
    /// measurement starts, then discards everything observed so far. Lets
    /// the dynamic period manager converge from its conservative
    /// `T = T_max` start before a figure's recording window opens
    /// (Fig. 9). The scenario's own workload (at its initial phase) drives
    /// the system during warmup, so the period manager converges against
    /// the load it will actually see. The workload's clock is rebased to
    /// zero when measurement starts; phase-scheduled workloads replay their
    /// schedule. Bounded workloads cycle during warmup and start a fresh
    /// run when measurement does.
    pub fn warmup_under_load(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Arms the deterministic fault-injection plane with the given plan.
    /// Fault events fire at their scheduled epochs; corruption salts and
    /// generated schedules come from a dedicated RNG fork, so the same
    /// seed replays the same faults without perturbing the workload
    /// stream. Without a plan the fault plane is fully inert.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// After every checkpoint commit, verify byte-for-byte that the
    /// replica's memory and every vCPU's architectural state match the
    /// (paused) primary's, and panic on divergence. Costs one memory
    /// comparison per checkpoint; intended for tests.
    pub fn verify_consistency(mut self) -> Self {
        self.verify_consistency = true;
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] for zero vCPUs, invalid
    /// memory sizes, or a zero duration.
    pub fn build(self) -> CoreResult<Scenario> {
        if self.vcpus == 0 {
            return Err(CoreError::InvalidScenario("vcpus must be positive".into()));
        }
        if self.duration.is_zero() {
            return Err(CoreError::InvalidScenario(
                "duration must be positive".into(),
            ));
        }
        // Validate memory via VmConfig.
        VmConfig::new("probe", self.memory, self.vcpus).map_err(CoreError::Hypervisor)?;
        let workload = self
            .workload
            .unwrap_or_else(|| Box::new(IdleGuest::new()) as Box<dyn Workload>);
        let name = self
            .name
            .unwrap_or_else(|| format!("{}-{}", workload.name(), self.memory));
        Ok(Scenario {
            name,
            memory: self.memory,
            vcpus: self.vcpus,
            workload,
            protection: self.protection,
            duration: self.duration,
            seed: self.seed,
            failure: self.failure,
            stop_when_workload_done: self.stop_when_workload_done,
            load_during_seed: self.load_during_seed,
            warmup: self.warmup,
            verify_consistency: self.verify_consistency,
            chaos: self.chaos,
        })
    }
}

/// Runs the figures' "Xen" baseline: the workload on a bare primary, no
/// replication, no checkpoints, no buffering.
fn run_unprotected(scenario: Scenario) -> RunReport {
    let Scenario {
        name,
        memory,
        vcpus,
        mut workload,
        duration,
        seed,
        stop_when_workload_done,
        ..
    } = scenario;
    let mut xen = XenHypervisor::new(HOST_MEMORY);
    let cfg = VmConfig::new(name.clone(), memory, vcpus)
        .expect("scenario builder validated the VM config");
    let pvm = xen.create_vm(cfg).expect("fresh host has room");
    let client_link = Link::ethernet_10g();
    let mut rng = SimRng::seed_from(seed).fork("workload");
    let mut clock = SimTime::ZERO;
    let mut ops = 0.0;
    let mut latencies = Histogram::new();
    let end = SimTime::ZERO + duration;
    while clock < end {
        let slice = (end - clock).clamp(SimDuration::ZERO, MAX_SLICE);
        let vm = xen.vm_mut(pvm).expect("unprotected primary never fails");
        let progress = workload.advance(clock, slice, vm, &mut rng);
        ops += progress.ops;
        for emission in progress.emissions {
            let latency = client_link.transfer_time(emission.size) * 2 + CLIENT_STACK_OVERHEAD;
            latencies.observe(latency.as_secs_f64());
        }
        clock += slice;
        if stop_when_workload_done && workload.is_done() {
            break;
        }
    }
    let elapsed = clock.saturating_duration_since(SimTime::ZERO);
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    RunReport {
        name,
        elapsed,
        ops_completed: ops,
        throughput_ops_per_sec: ops / secs,
        migration: None,
        checkpoints: Vec::new(),
        stage_events: Vec::new(),
        events: Vec::new(),
        packet_latencies: latencies,
        failover: None,
        resources: ResourceUsage {
            cpu_core_pct: 0.0,
            rss: ByteSize::ZERO,
        },
        consistency_checks: 0,
        commits: Vec::new(),
        replica_acks: Vec::new(),
        chaos: None,
        telemetry: None,
        spans: Vec::new(),
        incident: None,
        wire_versions: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(Scenario::builder().vcpus(0).build().is_err());
        assert!(Scenario::builder()
            .duration(SimDuration::ZERO)
            .build()
            .is_err());
        assert!(Scenario::builder().build().is_ok());
    }

    #[test]
    fn default_name_combines_workload_and_memory() {
        let s = Scenario::builder().build().unwrap();
        assert!(s.name.contains("idle"), "got {}", s.name);
    }

    #[test]
    fn unprotected_run_has_no_replication_artifacts() {
        let report = Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(2)
            .unprotected()
            .duration(SimDuration::from_secs(5))
            .build()
            .unwrap()
            .run();
        assert!(report.migration.is_none());
        assert!(report.checkpoints.is_empty());
        assert!(report.stage_events.is_empty());
        assert!(report.failover.is_none());
    }
}
