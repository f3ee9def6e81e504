//! End-to-end integration tests across the whole workspace: the replication
//! engine driving simulated hypervisors, workloads, the translator, the
//! wire codec and the network substrate together.

use here::hypervisor::fault::DosOutcome;
use here::replication::{FailureCause, FailurePlan, ReplicationConfig, Scenario, Strategy};
use here::sim::{SimDuration, SimTime};
use here::workloads::sockperf::SockperfLoad;
use here::workloads::{MemStress, Sockperf, Ycsb, YcsbMix, YcsbSpec};

fn memstress_scenario(cfg: ReplicationConfig) -> Scenario {
    Scenario::builder()
        .vm_memory_mib(128)
        .vcpus(4)
        .workload(Box::new(MemStress::with_percent(30).with_rate(30_000)))
        .config(cfg)
        .duration(SimDuration::from_secs(30))
        .verify_consistency()
        .build()
        .expect("valid scenario")
}

#[test]
fn replica_is_byte_identical_at_every_checkpoint_heterogeneous() {
    let report =
        memstress_scenario(ReplicationConfig::fixed_period(SimDuration::from_secs(2))).run();
    assert!(report.checkpoints.len() >= 10);
    assert_eq!(report.consistency_checks, report.checkpoints.len() as u64);
}

#[test]
fn replica_is_byte_identical_at_every_checkpoint_homogeneous() {
    let report = memstress_scenario(ReplicationConfig::remus(SimDuration::from_secs(2))).run();
    assert!(report.checkpoints.len() >= 10);
    assert_eq!(report.consistency_checks, report.checkpoints.len() as u64);
}

#[test]
fn consistency_holds_under_dynamic_period_control() {
    let report =
        memstress_scenario(ReplicationConfig::dynamic(0.3, SimDuration::from_secs(5))).run();
    assert!(report.consistency_checks > 0);
    assert_eq!(report.consistency_checks, report.checkpoints.len() as u64);
}

#[test]
fn here_outperforms_remus_at_equal_period_on_ycsb() {
    let run = |cfg: ReplicationConfig| {
        let driver = Ycsb::new(YcsbSpec {
            mix: YcsbMix::A,
            records: 50_000,
            operations: 400_000,
        })
        .expect("valid spec");
        let mem_mib =
            (driver.required_pages() * here::hypervisor::PAGE_SIZE).div_ceil(1024 * 1024) + 16;
        Scenario::builder()
            .vm_memory_mib(mem_mib)
            .vcpus(4)
            .workload(Box::new(driver))
            .config(cfg)
            .duration(SimDuration::from_secs(300))
            .build()
            .expect("valid scenario")
            .run()
    };
    let here = run(ReplicationConfig::fixed_period(SimDuration::from_secs(3)));
    let remus = run(ReplicationConfig::remus(SimDuration::from_secs(3)));
    assert!(
        here.throughput_ops_per_sec > remus.throughput_ops_per_sec,
        "HERE {} ops/s must beat Remus {} ops/s",
        here.throughput_ops_per_sec,
        remus.throughput_ops_per_sec
    );
}

#[test]
fn failover_resumes_from_the_last_committed_checkpoint() {
    let scenario = Scenario::builder()
        .vm_memory_mib(128)
        .vcpus(2)
        .workload(Box::new(MemStress::with_percent(20).with_rate(10_000)))
        .config(ReplicationConfig::fixed_period(SimDuration::from_secs(2)))
        .duration(SimDuration::from_secs(40))
        .failure(FailurePlan {
            at: SimTime::from_secs(15),
            cause: FailureCause::Accident(DosOutcome::Crash),
            reattack_secondary: false,
        })
        .build()
        .expect("valid scenario");
    let report = scenario.run();
    let fo = report.failover.expect("failover must run");
    // The failure landed mid-epoch: the work of the open epoch is lost.
    assert!(fo.ops_lost > 0.0);
    // Resumed from the checkpoint preceding the failure (~7 epochs of 2 s).
    assert!(fo.resumed_from_checkpoint >= 5);
    // Service continued on the replica: total ops exceed what was possible
    // before the failure alone at the workload's rate.
    assert!(report.ops_completed > 10_000.0 * 16.0);
    // The interruption is dominated by detection, not activation.
    assert!(fo.outage() < SimDuration::from_millis(100));
}

#[test]
fn hang_and_starvation_failures_also_fail_over() {
    for (outcome, max_outage) in [
        (DosOutcome::Hang, SimDuration::from_millis(100)),
        // Starved hosts are detected ~10x slower.
        (DosOutcome::Starvation, SimDuration::from_millis(600)),
    ] {
        let report = Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(2)
            .config(ReplicationConfig::fixed_period(SimDuration::from_secs(2)))
            .duration(SimDuration::from_secs(30))
            .failure(FailurePlan {
                at: SimTime::from_secs(10),
                cause: FailureCause::Accident(outcome),
                reattack_secondary: false,
            })
            .build()
            .expect("valid scenario")
            .run();
        let fo = report
            .failover
            .unwrap_or_else(|| panic!("{outcome:?} must fail over"));
        assert!(
            fo.outage() < max_outage,
            "{outcome:?} outage {} exceeds {max_outage}",
            fo.outage()
        );
    }
}

#[test]
fn failover_detection_matrix_scales_with_lost_heartbeats_and_outcome() {
    use here::replication::{FaultKind, FaultPlan, HEARTBEAT, STARVATION_DETECTION_FACTOR};
    let mut lossless_detection = Vec::new();
    for outcome in DosOutcome::ALL {
        let mut outages = Vec::new();
        for lost in [0u32, 2, 5] {
            let report = Scenario::builder()
                .vm_memory_mib(64)
                .vcpus(2)
                .workload(Box::new(MemStress::with_percent(20).with_rate(5_000)))
                .config(ReplicationConfig::fixed_period(SimDuration::from_secs(2)))
                .duration(SimDuration::from_secs(30))
                .failure(FailurePlan {
                    at: SimTime::from_secs(10),
                    cause: FailureCause::Accident(outcome),
                    reattack_secondary: false,
                })
                .chaos(FaultPlan::new(7).with_event(
                    1,
                    FaultKind::HeartbeatLoss {
                        extra_periods: lost,
                    },
                ))
                .build()
                .expect("valid scenario")
                .run();
            let fo = report
                .failover
                .unwrap_or_else(|| panic!("{outcome:?}/lost {lost} must fail over"));
            // Detection takes exactly the heartbeat budget plus the lost
            // periods: silenced heartbeats (crash/hang) at the base
            // budget, a starved host's erratic ones a factor
            // STARVATION_DETECTION_FACTOR slower.
            let factor = if outcome == DosOutcome::Starvation {
                STARVATION_DETECTION_FACTOR
            } else {
                1
            };
            let periods = u64::from(HEARTBEAT.missed_threshold + 1 + lost);
            let detection = fo.detected_at.saturating_duration_since(fo.failed_at);
            assert_eq!(
                detection,
                SimDuration::from_nanos(periods * HEARTBEAT.period.as_nanos() * factor),
                "{outcome:?}/lost {lost}"
            );
            if lost == 0 {
                lossless_detection.push(detection);
            }
            // Activation provably uses the last fully-acked epoch.
            assert_eq!(
                fo.resumed_from_checkpoint,
                report
                    .commits
                    .last()
                    .expect("epochs committed before the failure")
                    .seq,
                "{outcome:?}/lost {lost}"
            );
            assert!(report.ops_completed > 0.0);
            outages.push(fo.outage());
        }
        assert!(
            outages[0] < outages[1] && outages[1] < outages[2],
            "{outcome:?}: outage must rise with lost heartbeats, got {outages:?}"
        );
    }
    // Across outcomes with no heartbeat lost: hangs are indistinguishable
    // from crashes, starvation is exactly 10x slower to detect.
    assert_eq!(lossless_detection[0], lossless_detection[1]);
    assert_eq!(
        lossless_detection[2].as_nanos(),
        lossless_detection[0].as_nanos() * STARVATION_DETECTION_FACTOR
    );
}

#[test]
fn buffered_network_output_is_released_only_at_commits() {
    let report = Scenario::builder()
        .vm_memory_mib(64)
        .vcpus(2)
        .workload(Box::new(Sockperf::new(SockperfLoad::A).with_rate(200.0)))
        .config(ReplicationConfig::fixed_period(SimDuration::from_secs(2)))
        .duration(SimDuration::from_secs(20))
        .build()
        .expect("valid scenario")
        .run();
    let lat = &report.packet_latencies;
    assert!(lat.count() > 1000);
    // Mean buffering is about half the period; nothing beats the epoch
    // commit out of the buffer.
    let mean = lat.mean().expect("packets released");
    assert!(
        (0.5..1.6).contains(&mean),
        "mean latency {mean}s should be near T/2 = 1s"
    );
    let max = lat.max().expect("packets released");
    assert!(max < 2.5, "no packet should wait much longer than T");
}

#[test]
fn unprotected_baseline_latency_is_microseconds() {
    let report = Scenario::builder()
        .vm_memory_mib(64)
        .vcpus(2)
        .workload(Box::new(Sockperf::new(SockperfLoad::A)))
        .unprotected()
        .duration(SimDuration::from_secs(10))
        .build()
        .expect("valid scenario")
        .run();
    let mean = report.packet_latencies.mean().expect("packets flowed");
    assert!(mean < 0.001, "bare-metal latency {mean}s should be sub-ms");
}

#[test]
fn remus_strategy_pairs_xen_with_xen_and_here_with_kvm() {
    // Indirect but end-to-end: resumption after failover uses the
    // secondary's activation path; kvmtool's is several times faster.
    let run = |cfg: ReplicationConfig| {
        Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(2)
            .config(cfg)
            .duration(SimDuration::from_secs(20))
            .failure(FailurePlan {
                at: SimTime::from_secs(8),
                cause: FailureCause::Accident(DosOutcome::Crash),
                reattack_secondary: false,
            })
            .build()
            .expect("valid scenario")
            .run()
            .failover
            .expect("failover runs")
            .resumption_time()
    };
    let here = run(ReplicationConfig::fixed_period(SimDuration::from_secs(2)));
    let remus = run(ReplicationConfig::remus(SimDuration::from_secs(2)));
    assert!(
        remus > here * 3,
        "xen activation ({remus}) should dwarf kvmtool's ({here})"
    );
    assert_eq!(
        ReplicationConfig::remus(SimDuration::from_secs(2)).strategy,
        Strategy::Remus
    );
}
