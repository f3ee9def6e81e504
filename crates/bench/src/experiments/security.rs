//! Security experiments: Tables 1, 2, 5 and the heterogeneity demo (§8.2).

use here_core::{FaultKind, FaultPlan, ReplicationConfig, Scenario};
use here_sim_core::time::SimDuration;
use here_vulndb::analysis::{shared_vulnerabilities, table1, table5, Table1Row, Table5Row};
use here_vulndb::dataset::nvd_corpus;
use here_vulndb::exploit::{DosSource, ALL_SOURCES};
use here_vulndb::record::{CveRecord, Deployment, Privilege, Product, Target};

use super::PRIMARY_CRASH;

/// Regenerates Table 1 from the embedded corpus.
pub fn run_table1() -> Vec<Table1Row> {
    table1(&nvd_corpus())
}

/// Regenerates Table 5 from the embedded corpus.
pub fn run_table5() -> Vec<Table5Row> {
    table5(&nvd_corpus())
}

/// One row of Table 2 as validated against the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// DoS source.
    pub source: DosSource,
    /// Guest-failure coverage (taxonomy: the guest's own user/kernel
    /// crashing the guest is replicated faithfully and cannot be covered).
    pub guest_covered: bool,
    /// Host-failure coverage, *validated by running a failover scenario*.
    pub host_covered: bool,
}

/// Regenerates Table 2, validating every host-failure cell by actually
/// injecting a failure from that source and checking that the replica took
/// over.
pub fn run_table2() -> Vec<Table2Row> {
    let corpus = nvd_corpus();
    ALL_SOURCES
        .iter()
        .map(|&source| {
            let exploit = |privilege| FaultKind::Exploit {
                cve: xen_core_dos(&corpus, privilege),
                reattack: false,
            };
            let kind = match source {
                DosSource::Accident => PRIMARY_CRASH,
                DosSource::GuestUser => exploit(Some(Privilege::GuestUser)),
                DosSource::GuestKernel => exploit(Some(Privilege::GuestKernel)),
                // Another guest or an external service exploits the same
                // host-level vulnerability class.
                DosSource::OtherGuest | DosSource::OtherService => exploit(None),
            };
            let report = Scenario::builder()
                .name(format!("tab2-{source:?}"))
                .vm_memory_mib(128)
                .vcpus(2)
                .config(ReplicationConfig::fixed_period(SimDuration::from_secs(2)))
                .duration(SimDuration::from_secs(20))
                .chaos(FaultPlan::new(0).with_event_at(SimDuration::from_secs(8), kind))
                .build()
                .expect("valid scenario")
                .run();
            let host_covered = report
                .failover
                .map(|f| f.resumed_at > f.failed_at)
                .unwrap_or(false);
            Table2Row {
                source,
                guest_covered: source.guest_failure_covered(),
                host_covered,
            }
        })
        .collect()
}

/// The first Xen-core DoS-only CVE of `corpus` (of `privilege`, if one
/// is given), as its index.
fn xen_core_dos(corpus: &[CveRecord], privilege: Option<Privilege>) -> usize {
    corpus
        .iter()
        .position(|r| {
            r.product == Product::Xen
                && r.is_dos_only()
                && r.target == Target::HypervisorCore
                && privilege.is_none_or(|p| r.privilege == p)
        })
        .expect("corpus contains Xen host DoS CVEs at both privilege levels")
}

/// Result of the heterogeneity demonstration: the same zero-day launched
/// at the primary, then re-launched at the secondary after failover.
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneityDemo {
    /// The CVE used.
    pub cve_id: String,
    /// Whether the exploit downed the HERE primary (it must — it is a Xen
    /// bug and the primary runs Xen).
    pub here_primary_down: bool,
    /// Whether HERE's KVM replica survived the re-attack and kept serving.
    pub here_service_survived: bool,
    /// Client-visible outage of the HERE failover, in milliseconds.
    pub here_outage_ms: f64,
    /// Whether homogeneous (Remus-style) replication survived the same
    /// re-attack (it must not: the secondary shares the vulnerability).
    pub homogeneous_service_survived: bool,
    /// Number of CVEs the HERE deployment pair shares (must be 0).
    pub shared_cves_here_pair: usize,
    /// Number of CVEs a Xen+QEMU / QEMU-KVM pair would share.
    pub shared_cves_qemu_pair: usize,
}

/// Runs the paper's core security claim end to end.
pub fn run_heterogeneity_demo() -> HeterogeneityDemo {
    let corpus = nvd_corpus();
    let cve = xen_core_dos(&corpus, None);
    let cve_id = corpus[cve].id.clone();
    let plan = |reattack| {
        let kind = FaultKind::Exploit { cve, reattack };
        FaultPlan::new(0).with_event_at(SimDuration::from_secs(10), kind)
    };
    let build = |cfg: ReplicationConfig, reattack: bool| {
        Scenario::builder()
            .name("heterogeneity-demo")
            .vm_memory_mib(256)
            .vcpus(2)
            .config(cfg)
            .duration(SimDuration::from_secs(40))
            .chaos(plan(reattack))
            .build()
            .expect("valid scenario")
            .run()
    };

    let here = build(
        ReplicationConfig::fixed_period(SimDuration::from_secs(2)),
        true,
    );
    let remus = build(ReplicationConfig::remus(SimDuration::from_secs(2)), true);

    let here_fo = here.failover.clone();
    let here_outage_ms = here_fo
        .as_ref()
        .map(|f| f.outage().as_secs_f64() * 1e3)
        .unwrap_or(f64::NAN);
    // Service survived if the run kept completing work after the failover.
    let here_service_survived = here_fo.is_some() && here.elapsed > SimDuration::from_secs(30);
    let homogeneous_service_survived =
        remus.failover.is_some() && remus.elapsed > SimDuration::from_secs(30);

    HeterogeneityDemo {
        cve_id,
        here_primary_down: here_fo.is_some(),
        here_service_survived,
        here_outage_ms,
        homogeneous_service_survived,
        shared_cves_here_pair: shared_vulnerabilities(
            &corpus,
            Deployment::XenPv,
            Deployment::KvmKvmtool,
        )
        .len(),
        shared_cves_qemu_pair: shared_vulnerabilities(
            &corpus,
            Deployment::XenQemu,
            Deployment::QemuKvm,
        )
        .len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_paper() {
        let rows = run_table2();
        let expect = [
            (DosSource::Accident, true, true),
            (DosSource::GuestUser, false, true),
            (DosSource::GuestKernel, false, true),
            (DosSource::OtherGuest, true, true),
            (DosSource::OtherService, true, true),
        ];
        for (row, (source, guest, host)) in rows.iter().zip(expect) {
            assert_eq!(row.source, source);
            assert_eq!(row.guest_covered, guest, "{source:?} guest");
            assert_eq!(row.host_covered, host, "{source:?} host");
        }
    }

    #[test]
    fn heterogeneity_demo_shows_the_asymmetry() {
        let demo = run_heterogeneity_demo();
        assert!(demo.here_primary_down);
        assert!(
            demo.here_service_survived,
            "HERE must survive the re-attack"
        );
        assert!(
            !demo.homogeneous_service_survived,
            "homogeneous replication must fall to the same exploit"
        );
        assert_eq!(demo.shared_cves_here_pair, 0);
        assert!(demo.shared_cves_qemu_pair > 300);
        assert!(
            demo.here_outage_ms < 200.0,
            "outage {}",
            demo.here_outage_ms
        );
    }
}
