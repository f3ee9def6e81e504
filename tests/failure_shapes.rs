//! Pins what a run reports for every shape of scenario failure — the
//! three accidents, a Xen exploit with and without a re-attack (under
//! HERE and under Remus), a KVM exploit that bounces off the Xen primary,
//! a guest-only exploit and a failure scheduled past the end of the run —
//! so a change to how a failure is injected, fired or failed over cannot
//! move a bit of it unnoticed.

use here::hypervisor::fault::DosOutcome;
use here::replication::{
    FailureCause, FailurePlan, FaultSite, ReplicationConfig, RunReport, Scenario, SessionEvent,
};
use here::sim::{SimDuration, SimTime};
use here::vulndb::exploit::sample_dos_exploit;
use here::vulndb::record::Target;
use here::vulndb::{nvd_corpus, Exploit, Product};
use here::workloads::MemStress;

/// A logged `Fault` event as `(label, host_down, site)`.
type Fault = (&'static str, bool, FaultSite);

/// Every shape, by name, with its report fingerprint and the `Fault`
/// events it logs.
const SHAPES: [(&str, u64, &[Fault]); 9] = [
    (
        "accident-crash",
        0x1203_0425_7c25_afce,
        &[("crash", true, FaultSite::Primary)],
    ),
    (
        "accident-hang",
        0x1c68_bbd6_765d_3e82,
        &[("hang", true, FaultSite::Primary)],
    ),
    (
        "accident-starvation",
        0x4325_d227_face_9fdd,
        &[("starvation", true, FaultSite::Primary)],
    ),
    (
        "xen-exploit",
        0x036b_3ee5_8e41_4cba,
        &[("exploit", true, FaultSite::Primary)],
    ),
    (
        "xen-exploit-reattack-here",
        0xd7ab_71f7_10d5_40ef,
        &[("exploit", true, FaultSite::Primary)],
    ),
    (
        "xen-exploit-reattack-remus",
        0x74c2_f7d1_b4fc_03d8,
        &[("exploit", true, FaultSite::Primary)],
    ),
    (
        "kvm-exploit-bounces",
        0xe91f_f95d_077a_d033,
        &[("exploit", false, FaultSite::Primary)],
    ),
    (
        "guest-exploit",
        0x0845_fe52_8a25_66cf,
        &[("exploit", false, FaultSite::Primary)],
    ),
    ("past-end", 0x2d83_be26_4459_ac30, &[]),
];

/// The first Xen DoS-only CVE whose target is the guest OS: it downs the
/// protected guest, never the host.
fn guest_exploit() -> Exploit {
    let cve = nvd_corpus()
        .into_iter()
        .find(|r| r.product == Product::Xen && r.is_dos_only() && r.target == Target::GuestOs)
        .expect("the corpus holds a Xen guest-OS DoS CVE");
    Exploit::new(cve)
}

/// Shape `name`: a 128 MiB, 2-vCPU guest under memory pressure for 30
/// virtual seconds at the default seed, checkpointed every 2 s, failing
/// at 8 s (99 s for `past-end`).
fn run(name: &str) -> RunReport {
    let corpus = nvd_corpus();
    let xen = || sample_dos_exploit(&corpus, Product::Xen).expect("a Xen host DoS CVE");
    let (cause, reattack_secondary) = match name {
        "accident-crash" | "past-end" => (FailureCause::Accident(DosOutcome::Crash), false),
        "accident-hang" => (FailureCause::Accident(DosOutcome::Hang), false),
        "accident-starvation" => (FailureCause::Accident(DosOutcome::Starvation), false),
        "xen-exploit" => (FailureCause::Exploit(xen()), false),
        "xen-exploit-reattack-here" | "xen-exploit-reattack-remus" => {
            (FailureCause::Exploit(xen()), true)
        }
        "kvm-exploit-bounces" => (
            FailureCause::Exploit(sample_dos_exploit(&corpus, Product::Kvm).expect("KVM CVE")),
            false,
        ),
        "guest-exploit" => (FailureCause::Exploit(guest_exploit()), false),
        other => panic!("unknown shape {other}"),
    };
    let period = SimDuration::from_secs(2);
    let config = if name.ends_with("-remus") {
        ReplicationConfig::remus(period)
    } else {
        ReplicationConfig::fixed_period(period)
    };
    let at = if name == "past-end" { 99 } else { 8 };
    Scenario::builder()
        .name(name)
        .vm_memory_mib(128)
        .vcpus(2)
        .workload(Box::new(MemStress::with_percent(20).with_rate(20_000)))
        .config(config)
        .duration(SimDuration::from_secs(30))
        .failure(FailurePlan {
            at: SimTime::from_secs(at),
            cause,
            reattack_secondary,
        })
        .build()
        .expect("valid scenario")
        .run()
}

fn faults(report: &RunReport) -> Vec<Fault> {
    report
        .events
        .iter()
        .filter_map(|e| match e {
            SessionEvent::Fault {
                fault,
                host_down,
                site,
                ..
            } => Some((*fault, *host_down, *site)),
            _ => None,
        })
        .collect()
}

#[test]
fn every_failure_shape_reports_its_pinned_fingerprint_and_faults() {
    let mut moved = Vec::new();
    for (name, fingerprint, want) in SHAPES {
        let report = run(name);
        let got = (report.fingerprint(), faults(&report));
        if got != (fingerprint, want.to_vec()) {
            moved.push(format!("{name}: {:016x} {:?}", got.0, got.1));
        }
        // A failure plan is not the fault plane: it counts nothing there.
        assert_eq!(report.chaos, None, "{name}");
    }
    assert!(moved.is_empty(), "moved:\n{}", moved.join("\n"));
}

#[test]
fn a_run_the_reattack_ends_stops_where_the_replica_resumed() {
    // Remus's replica runs Xen too: the same exploit downs it the moment
    // it takes over, so the run ends at the failover's resume instant.
    let report = run("xen-exploit-reattack-remus");
    let failover = report.failover.expect("the exploit downs the Xen primary");
    assert_eq!(SimTime::ZERO + report.elapsed, failover.resumed_at);
    assert!(failover.resumed_at > failover.failed_at);
}
