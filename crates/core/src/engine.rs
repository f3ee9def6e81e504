//! Scenario description and orchestration — the crate's public entry
//! point.
//!
//! A [`Scenario`] wires together the full stack — a primary host, a
//! secondary host, a protected VM running a workload, the replication
//! configuration, and optionally a fault plan — and [`Scenario::run`]
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
use here_vulndb::dataset::nvd_corpus;
use here_vulndb::exploit::Exploit;
use here_workloads::idle::IdleGuest;
use here_workloads::traits::Workload;

use crate::chaos::{FaultEvent, FaultKind, FaultPlan};
use crate::config::ReplicationConfig;
use crate::error::{CoreError, CoreResult};
use crate::report::RunReport;
use crate::session::{CLIENT_STACK_OVERHEAD, HOST_MEMORY, MAX_SLICE};
use crate::trace::Stage;

/// What brings the primary down.
#[derive(Debug, Clone)]
pub enum FailureCause {
    /// A weaponised DoS CVE launched at the primary.
    Exploit(Exploit),
    /// An accidental failure (hardware fault, power cut) with the given
    /// manifestation.
    Accident(DosOutcome),
}

/// A planned failure injection. [`ScenarioBuilder::failure`] lowers it
/// into one time-keyed event of the scenario's [`FaultPlan`]: an accident
/// becomes a [`FaultKind::PrimaryFault`] before the Pause stage, an
/// exploit a [`FaultKind::Exploit`] naming its CVE's index in the corpus.
#[derive(Debug, Clone)]
pub struct FailurePlan {
    /// When the failure hits, measured from the start of measurement.
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
    pub(crate) stop_when_workload_done: bool,
    pub(crate) load_during_seed: bool,
    pub(crate) warmup: SimDuration,
    pub(crate) verify_consistency: bool,
    pub(crate) chaos: Option<FaultPlan>,
}

/// Builder for [`Scenario`]: the scenario itself, at its defaults until
/// set, and the name it was given, if any.
#[derive(Debug)]
pub struct ScenarioBuilder {
    name: Option<String>,
    scenario: Scenario,
}

impl Scenario {
    /// Starts building a scenario. Defaults: 1 GiB / 4 vCPUs, idle guest,
    /// HERE with a fixed 5-second period, 60 s of virtual time, seed 42.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            name: None,
            scenario: Scenario {
                name: String::new(),
                memory: ByteSize::from_gib(1),
                vcpus: 4,
                workload: Box::new(IdleGuest::new()),
                protection: Protection::Replicated(ReplicationConfig::fixed_period(
                    SimDuration::from_secs(5),
                )),
                duration: SimDuration::from_secs(60),
                seed: 42,
                stop_when_workload_done: true,
                load_during_seed: false,
                warmup: SimDuration::ZERO,
                verify_consistency: false,
                chaos: None,
            },
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
        self.scenario.memory = ByteSize::from_gib(gib);
        self
    }

    /// Guest memory in MiB (for small test VMs).
    pub fn vm_memory_mib(mut self, mib: u64) -> Self {
        self.scenario.memory = ByteSize::from_mib(mib);
        self
    }

    /// Number of vCPUs.
    pub fn vcpus(mut self, vcpus: u32) -> Self {
        self.scenario.vcpus = vcpus;
        self
    }

    /// The workload to run in the protected VM.
    pub fn workload(mut self, workload: Box<dyn Workload>) -> Self {
        self.scenario.workload = workload;
        self
    }

    /// Protects the VM with the given replication configuration.
    pub fn config(mut self, config: ReplicationConfig) -> Self {
        self.scenario.protection = Protection::Replicated(config);
        self
    }

    /// Runs the VM without any replication (the figures' "Xen" baseline).
    pub fn unprotected(mut self) -> Self {
        self.scenario.protection = Protection::Unprotected;
        self
    }

    /// Virtual-time budget of the run.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.scenario.duration = duration;
        self
    }

    /// Experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Plans a failure injection: adds it to the scenario's fault plan as
    /// one time-keyed event (see [`FailurePlan`]). An exploit whose CVE is
    /// not in the corpus names the index just past it, which
    /// [`build`](Self::build) refuses.
    pub fn failure(mut self, plan: FailurePlan) -> Self {
        let kind = match plan.cause {
            FailureCause::Exploit(exploit) => {
                let corpus = nvd_corpus();
                let cve = corpus.iter().position(|cve| cve == exploit.cve());
                FaultKind::Exploit {
                    cve: cve.unwrap_or(corpus.len()),
                    reattack: plan.reattack_secondary,
                }
            }
            FailureCause::Accident(outcome) => FaultKind::PrimaryFault {
                outcome,
                stage: Stage::Pause,
            },
        };
        let chaos = self.scenario.chaos.take().unwrap_or(FaultPlan::new(0));
        let at = plan.at.saturating_duration_since(SimTime::ZERO);
        self.scenario.chaos = Some(chaos.with_event_at(at, kind));
        self
    }

    /// Keep running even after a bounded workload finishes (default is to
    /// stop at completion).
    pub fn run_full_duration(mut self) -> Self {
        self.scenario.stop_when_workload_done = false;
        self
    }

    /// Runs the workload during the seeding migration too (Fig. 6
    /// migrates a VM that is already under load). By default the workload
    /// starts only once replication is established — benchmarks measure
    /// the replicated steady state, not the seeding transient — and an
    /// idle guest supplies the background dirtying during the seed.
    pub fn load_during_seed(mut self) -> Self {
        self.scenario.load_during_seed = true;
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
        self.scenario.warmup = warmup;
        self
    }

    /// Arms the deterministic fault-injection plane with the given plan.
    /// Fault events fire at their scheduled epochs; corruption salts and
    /// generated schedules come from a dedicated RNG fork, so the same
    /// seed replays the same faults without perturbing the workload
    /// stream. Without a plan the fault plane is fully inert. Events a
    /// [`failure`](Self::failure) added stay in the plan.
    pub fn chaos(mut self, mut plan: FaultPlan) -> Self {
        if let Some(earlier) = self.scenario.chaos.take() {
            plan.events.extend(earlier.events);
        }
        self.scenario.chaos = Some(plan);
        self
    }

    /// After every checkpoint commit, verify byte-for-byte that the
    /// replica's memory and every vCPU's architectural state match the
    /// (paused) primary's, and panic on divergence. Costs one memory
    /// comparison per checkpoint; intended for tests.
    pub fn verify_consistency(mut self) -> Self {
        self.scenario.verify_consistency = true;
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] for zero vCPUs, invalid
    /// memory sizes, a zero duration, or a fault plan holding an event
    /// that can never fire (an exploit whose CVE is not in the corpus,
    /// say).
    pub fn build(self) -> CoreResult<Scenario> {
        let mut scenario = self.scenario;
        if scenario.vcpus == 0 {
            return Err(CoreError::InvalidScenario("vcpus must be positive".into()));
        }
        if scenario.duration.is_zero() {
            return Err(CoreError::InvalidScenario(
                "duration must be positive".into(),
            ));
        }
        // Validate memory via VmConfig.
        VmConfig::new("probe", scenario.memory, scenario.vcpus).map_err(CoreError::Hypervisor)?;
        if let Some(plan) = &scenario.chaos {
            let check = plan.events.iter().try_for_each(FaultEvent::check);
            check.map_err(|why| CoreError::InvalidScenario(format!("fault plan: {why}")))?;
        }
        scenario.name = self
            .name
            .unwrap_or_else(|| format!("{}-{}", scenario.workload.name(), scenario.memory));
        Ok(scenario)
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
    // No replication, so nothing else to report: no checkpoint, event,
    // failover, resource cost or plane.
    RunReport {
        name,
        elapsed,
        ops_completed: ops,
        throughput_ops_per_sec: ops / secs,
        packet_latencies: latencies,
        ..RunReport::default()
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
    fn an_exploit_outside_the_corpus_is_an_invalid_scenario() {
        let mut cve = nvd_corpus()[0].clone();
        cve.id = "CVE-1999-0001".into();
        let failure = FailurePlan {
            at: SimTime::from_secs(8),
            cause: FailureCause::Exploit(Exploit::new(cve)),
            reattack_secondary: true,
        };
        let err = Scenario::builder().failure(failure).build().unwrap_err();
        assert!(
            matches!(&err, CoreError::InvalidScenario(why) if why.contains("not in the CVE corpus")),
            "{err}"
        );
    }

    #[test]
    fn a_failure_lowers_into_the_plan_beside_its_events() {
        let hang = FailurePlan {
            at: SimTime::from_secs(21),
            cause: FailureCause::Accident(DosOutcome::Hang),
            reattack_secondary: false,
        };
        let plan = FaultPlan::new(7).with_event(3, FaultKind::Drop { attempts: 1 });
        let want = plan.clone().with_event_at(
            SimDuration::from_secs(21),
            FaultKind::PrimaryFault {
                outcome: DosOutcome::Hang,
                stage: Stage::Pause,
            },
        );
        // Whichever comes first, both stay armed, under the plan's seed.
        for builder in [
            Scenario::builder()
                .failure(hang.clone())
                .chaos(plan.clone()),
            Scenario::builder()
                .chaos(plan.clone())
                .failure(hang.clone()),
        ] {
            assert_eq!(builder.build().unwrap().chaos, Some(want.clone()));
        }
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
