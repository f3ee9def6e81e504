//! Experiment runners — one per table/figure of the paper's evaluation.
//!
//! Every runner comes in two scales: [`Scale::Paper`] uses the paper's VM
//! sizes, record counts and durations (what the `repro` binary runs);
//! [`Scale::Quick`] shrinks them for tests and CI.

pub mod analyze;
pub mod apps;
pub mod chaos;
pub mod checkpoint;
pub mod datapath;
pub mod dynamic;
pub mod health;
pub mod migration;
pub mod network;
pub mod observe;
pub mod overhead;
pub mod postmortem;
pub mod security;
pub mod stages;
pub mod topology;
pub mod wire;

use here_core::{FanoutMode, FaultKind, ReplicationConfig, ScenarioSpec, Stage, WorkloadSpec};
use here_hypervisor::fault::DosOutcome;
use here_hypervisor::PAGE_SIZE;
use here_sim_core::time::{SimDuration, SimTime};
use here_workloads::phased::{Phase, PhasedMemStress};
use here_workloads::traits::Workload;
use here_workloads::ycsb::{Ycsb, YcsbMix, YcsbSpec};

/// Seed of every scenario run of the plane experiments (workload stream
/// etc.).
pub const RUN_SEED: u64 = 42;

/// Seed of every fault plan the plane experiments schedule.
pub const PLAN_SEED: u64 = 7;

/// The stress workload of the plane experiments —
/// `MemStress::with_percent(30).with_rate(20_000)` — in the
/// reconstructible form an incident bundle stores.
pub(crate) const STRESS_WORKLOAD: WorkloadSpec = WorkloadSpec::MemStress {
    percent: 30,
    rate: 20_000,
};

/// The stress scenario `chaos`, `topology`, `health` and `postmortem`
/// all run: [`STRESS_WORKLOAD`] on 4 vCPUs under [`RUN_SEED`], sized by
/// [`Scale::stress_params`]. Callers pick the name (it is part of the
/// run fingerprint) and finish it with
/// [`ScenarioSpec::build_scenario`]`(config, fault plan)`.
pub(crate) fn stress_spec(scale: Scale, name: &str, verify_consistency: bool) -> ScenarioSpec {
    let (memory_mib, secs) = scale.stress_params();
    ScenarioSpec {
        name: name.to_string(),
        memory_mib,
        vcpus: 4,
        workload: STRESS_WORKLOAD,
        duration: SimDuration::from_secs(secs),
        seed: RUN_SEED,
        verify_consistency,
    }
}

/// The fixed 2 s checkpoint period the stress scenario and the wire and
/// overlap comparisons replicate under; everything else default.
pub(crate) fn fixed_2s() -> ReplicationConfig {
    ReplicationConfig::fixed_period(SimDuration::from_secs(2))
}

/// The primary crashing while its guest runs: a time-keyed plan event.
pub(crate) const PRIMARY_CRASH: FaultKind = FaultKind::PrimaryFault {
    outcome: DosOutcome::Crash,
    stage: Stage::Pause,
};

/// `star` / `chain`, as reports and scenario names spell a fan-out mode.
pub fn fanout_name(fanout: FanoutMode) -> &'static str {
    match fanout {
        FanoutMode::Star => "star",
        FanoutMode::Chain => "chain",
    }
}

/// The phased memory load (with its VM size in MiB) the overlap and wire
/// comparisons share: a light first phase, then a heavy one at 8 s, so
/// both are exercised across different dirty-set sizes.
pub(crate) fn phased_workload() -> (Box<dyn Workload>, u64) {
    let phases = vec![
        Phase {
            at: SimTime::ZERO,
            percent: 20,
        },
        Phase {
            at: SimTime::from_secs(8),
            percent: 70,
        },
    ];
    let workload = PhasedMemStress::new(phases).expect("phased schedule is valid");
    (Box::new(workload), 256)
}

/// The small YCSB-A key-value store (with its VM size in MiB) the overlap
/// and wire comparisons share.
pub(crate) fn kv_workload() -> (Box<dyn Workload>, u64) {
    let driver = Ycsb::new(YcsbSpec::small(YcsbMix::A)).expect("small KV spec is valid");
    let mem_mib = (driver.required_pages() * PAGE_SIZE).div_ceil(1024 * 1024) + 64;
    (Box::new(driver), mem_mib)
}

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's configuration.
    Paper,
    /// Shrunk configuration for tests and CI.
    Quick,
}

impl Scale {
    /// VM memory sizes (GiB) for the memory-size sweeps (Figs. 6–8).
    pub fn memory_sweep_gib(self) -> &'static [u64] {
        match self {
            Scale::Paper => &[1, 2, 4, 8, 16, 20],
            Scale::Quick => &[1, 2],
        }
    }

    /// The stress scenario's sizing: (VM memory MiB, scenario seconds).
    pub(crate) fn stress_params(self) -> (u64, u64) {
        match self {
            Scale::Paper => (128, 60),
            Scale::Quick => (64, 30),
        }
    }

    /// Memory-load percentages for the loaded sweeps (Fig. 6 right).
    pub fn load_sweep_pct(self) -> &'static [u8] {
        match self {
            Scale::Paper => &[10, 20, 40, 60, 80],
            Scale::Quick => &[10, 40],
        }
    }
}
