//! The four small scenarios the observability tests share, each in an
//! unarmed and an armed (health plane + postmortem capture) variant.

use here::hypervisor::fault::DosOutcome;
use here::replication::{
    FailureCause, FailurePlan, FanoutMode, FaultKind, FaultPlan, ReplicationConfig, Scenario,
    ScenarioSpec, Stage, TopologyConfig, WorkloadSpec,
};
use here::sim::{SimDuration, SimTime};

/// Scenario names, in the order [`config`] and [`scenario`] know them.
pub const SCENARIOS: [&str; 4] = ["pair_hang", "quorum_faults", "retry_dry", "overlap"];

/// The replication config of scenario `name`, with the health and
/// postmortem planes armed or not.
pub fn config(name: &str, armed: bool) -> ReplicationConfig {
    let base = ReplicationConfig::fixed_period(SimDuration::from_secs(2));
    let cfg = match name {
        "pair_hang" | "retry_dry" => base,
        "quorum_faults" => base
            .with_topology(TopologyConfig {
                replicas: 3,
                quorum: 2,
                fanout: FanoutMode::Star,
                stale_epoch_lag: 4,
            })
            .with_wire_v3()
            .with_replica_wire_caps(vec![3, 2, 3]),
        "overlap" => base.with_overlap_transfer(),
        other => panic!("unknown scenario {other}"),
    };
    if armed {
        cfg.with_health_plane().with_postmortem_capture()
    } else {
        cfg
    }
}

/// Scenario `name`: a 64 MiB, 4-vCPU guest under memory pressure for
/// 30 virtual seconds, with the faults its name promises.
pub fn scenario(name: &str, armed: bool) -> Scenario {
    let spec = spec(name);
    let builder = Scenario::builder()
        .name(&spec.name)
        .vm_memory_mib(spec.memory_mib)
        .vcpus(spec.vcpus)
        .workload(spec.workload.build())
        .config(config(name, armed))
        .duration(spec.duration)
        .seed(spec.seed);
    let builder = match (name, plan(name)) {
        ("pair_hang", _) => builder.failure(FailurePlan {
            at: SimTime::from_secs(21),
            cause: FailureCause::Accident(DosOutcome::Hang),
            reattack_secondary: false,
        }),
        (_, Some(plan)) => builder.chaos(plan),
        (_, None) => builder,
    };
    builder.build().expect("valid scenario")
}

/// [`scenario`]`(name, ..)` as an incident bundle records it — everything
/// but the config and the fault plan.
pub fn spec(name: &str) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        memory_mib: 64,
        vcpus: 4,
        workload: WorkloadSpec::MemStress {
            percent: 30,
            rate: 20_000,
        },
        duration: SimDuration::from_secs(30),
        seed: 0x4845_5245,
        verify_consistency: false,
    }
}

/// The fault plan of scenario `name`, if it has one. `pair_hang` arms its
/// hang as a `FailurePlan`, which lowers into this one time-keyed event.
pub fn plan(name: &str) -> Option<FaultPlan> {
    match name {
        "pair_hang" => Some(FaultPlan::new(0).with_event_at(
            SimDuration::from_secs(21),
            FaultKind::PrimaryFault {
                outcome: DosOutcome::Hang,
                stage: Stage::Pause,
            },
        )),
        "quorum_faults" => Some(
            FaultPlan::new(7)
                .with_event(2, FaultKind::Corrupt { attempts: 1 })
                .with_event(3, FaultKind::Drop { attempts: 10 })
                .with_partition_span(4..=10, &[2], 10)
                .with_event(
                    13,
                    FaultKind::PrimaryFault {
                        outcome: DosOutcome::Crash,
                        stage: Stage::Transfer,
                    },
                ),
        ),
        "retry_dry" => Some(
            FaultPlan::new(5)
                .with_event(2, FaultKind::LinkFlap { attempts_down: 1 })
                .with_event(3, FaultKind::Drop { attempts: 10 }),
        ),
        _ => None,
    }
}
