//! The embedded CVE corpus.
//!
//! The paper surveys the NIST NVD for five products over 2013–2020
//! (Table 1) and hand-classifies Xen's DoS-only vulnerabilities by vector,
//! target, outcome and required privilege (§8.2, Table 5). The NVD itself
//! is not shippable in a reproduction, so this module *synthesises* a
//! corpus whose marginal distributions match every number the paper
//! reports; the analysis code ([`crate::analysis`]) then regenerates the
//! tables from the corpus exactly as the authors did from the NVD.

use here_hypervisor::fault::DosOutcome;

use crate::record::{
    AttackVector, Component, CveRecord, Impact, Privilege, Product, Target, ALL_PRODUCTS,
};

/// Table 1's per-product marginals: (total CVEs, availability-impacting,
/// DoS-only).
pub const TABLE1_MARGINALS: [(Product, u32, u32, u32); 5] = [
    (Product::Xen, 312, 282, 152),
    (Product::Kvm, 74, 68, 38),
    (Product::Qemu, 308, 290, 192),
    (Product::Esxi, 70, 55, 16),
    (Product::HyperV, 116, 95, 44),
];

/// Table 5's classification of Xen's 152 DoS-only CVEs:
/// `(target, outcome, count)`.
pub const TABLE5_XEN_DOS: [(Target, DosOutcome, u32); 6] = [
    (Target::HypervisorCore, DosOutcome::Crash, 100),
    (Target::HypervisorCore, DosOutcome::Hang, 20),
    (Target::HypervisorCore, DosOutcome::Starvation, 8),
    (Target::GuestOs, DosOutcome::Crash, 15),
    (Target::GuestOs, DosOutcome::Starvation, 4),
    (Target::OtherSoftware, DosOutcome::Crash, 5),
];

/// §8.2's attack-vector breakdown of Xen's DoS-only CVEs:
/// `(vector, count)` — 25 % device, 20 % hypercall, 12 % vCPU, 7 % shadow
/// paging, 2 % VM exit, 34 % other.
pub const XEN_DOS_VECTORS: [(AttackVector, u32); 6] = [
    (AttackVector::DeviceManagement, 38),
    (AttackVector::Hypercall, 30),
    (AttackVector::VcpuManagement, 18),
    (AttackVector::ShadowPaging, 11),
    (AttackVector::VmExit, 3),
    (AttackVector::Other, 52),
];

/// Number of Xen DoS-only CVEs launchable from guest user space
/// ("more than half", §8.2); the rest need ring-0.
pub const XEN_DOS_GUEST_USER: u32 = 78;

fn primary_component(product: Product) -> Component {
    match product {
        Product::Xen => Component::XenCore,
        Product::Kvm => Component::KvmModule,
        Product::Qemu => Component::QemuUserspace,
        Product::Esxi => Component::EsxiCore,
        Product::HyperV => Component::HyperVCore,
    }
}

/// Builds the full synthetic corpus (880 records). Deterministic: every
/// call returns the identical dataset.
pub fn nvd_corpus() -> Vec<CveRecord> {
    let mut records = Vec::new();
    let mut seq_by_year = [0u32; 8];
    let mut next_id = |year_slot: &mut usize| -> (u16, String) {
        let year = 2013 + (*year_slot % 8) as u16;
        let seq = &mut seq_by_year[*year_slot % 8];
        *seq += 1;
        *year_slot += 1;
        (year, format!("CVE-{year}-{:04}", 6000 + *seq))
    };
    let mut year_slot = 0usize;

    for (product, total, avail, dos) in TABLE1_MARGINALS {
        let non_avail = total - avail;
        let avail_not_dos = avail - dos;

        // DoS-only records, with Xen's detailed classification.
        if product == Product::Xen {
            let mut vectors = expand(&XEN_DOS_VECTORS);
            let mut privilege_budget = XEN_DOS_GUEST_USER;
            let mut idx = 0u32;
            for (target, outcome, count) in TABLE5_XEN_DOS {
                for _ in 0..count {
                    let (year, id) = next_id(&mut year_slot);
                    let component = match target {
                        Target::OtherSoftware => Component::XenTools,
                        _ => Component::XenCore,
                    };
                    let privilege = if privilege_budget > 0 && (idx.is_multiple_of(2) || idx >= 148)
                    {
                        privilege_budget -= 1;
                        Privilege::GuestUser
                    } else {
                        Privilege::GuestKernel
                    };
                    records.push(CveRecord {
                        id,
                        product,
                        year,
                        component,
                        confidentiality: Impact::None,
                        integrity: Impact::None,
                        availability: if idx.is_multiple_of(3) {
                            Impact::Partial
                        } else {
                            Impact::Complete
                        },
                        vector: vectors.pop().expect("vector counts sum to 152"),
                        target,
                        outcome: Some(outcome),
                        privilege,
                    });
                    idx += 1;
                }
            }
            // Spend any leftover guest-user budget by flipping kernel
            // records (keeps the 78/74 split exact).
            let mut i = records.len();
            while privilege_budget > 0 {
                i -= 1;
                if records[i].privilege == Privilege::GuestKernel {
                    records[i].privilege = Privilege::GuestUser;
                    privilege_budget -= 1;
                }
            }
        } else {
            for k in 0..dos {
                let (year, id) = next_id(&mut year_slot);
                records.push(CveRecord {
                    id,
                    product,
                    year,
                    component: primary_component(product),
                    confidentiality: Impact::None,
                    integrity: Impact::None,
                    availability: if k % 3 == 0 {
                        Impact::Partial
                    } else {
                        Impact::Complete
                    },
                    vector: spread_vector(k),
                    target: if k % 8 == 0 {
                        Target::GuestOs
                    } else {
                        Target::HypervisorCore
                    },
                    outcome: Some(spread_outcome(k)),
                    privilege: if k % 2 == 0 {
                        Privilege::GuestUser
                    } else {
                        Privilege::GuestKernel
                    },
                });
            }
        }

        // Availability-impacting but not DoS-only (C or I also affected).
        for k in 0..avail_not_dos {
            let (year, id) = next_id(&mut year_slot);
            records.push(CveRecord {
                id,
                product,
                year,
                component: primary_component(product),
                confidentiality: if k % 2 == 0 {
                    Impact::Partial
                } else {
                    Impact::None
                },
                integrity: if k % 2 == 0 {
                    Impact::None
                } else {
                    Impact::Partial
                },
                availability: Impact::Complete,
                vector: spread_vector(k),
                target: Target::HypervisorCore,
                outcome: Some(spread_outcome(k)),
                privilege: Privilege::GuestKernel,
            });
        }

        // No availability impact at all (pure info-leak / tamper bugs).
        for k in 0..non_avail {
            let (year, id) = next_id(&mut year_slot);
            records.push(CveRecord {
                id,
                product,
                year,
                component: primary_component(product),
                confidentiality: Impact::Partial,
                integrity: if k % 2 == 0 {
                    Impact::Partial
                } else {
                    Impact::None
                },
                availability: Impact::None,
                vector: spread_vector(k),
                target: Target::HypervisorCore,
                outcome: None,
                privilege: Privilege::GuestKernel,
            });
        }
    }

    // Rename one QEMU device-management DoS record to the real VENOM id,
    // the paper's worked example of a shared-device-model vulnerability.
    if let Some(venom) = records.iter_mut().find(|r| {
        r.product == Product::Qemu && r.is_dos_only() && r.vector == AttackVector::DeviceManagement
    }) {
        venom.id = "CVE-2015-3456".into();
        venom.year = 2015;
    }

    records
}

fn expand(counts: &[(AttackVector, u32)]) -> Vec<AttackVector> {
    let mut v = Vec::new();
    for &(vector, count) in counts {
        v.extend(std::iter::repeat_n(vector, count as usize));
    }
    v
}

fn spread_vector(k: u32) -> AttackVector {
    match k % 10 {
        0 | 1 => AttackVector::DeviceManagement,
        2 | 3 => AttackVector::Hypercall,
        4 => AttackVector::VcpuManagement,
        5 => AttackVector::ShadowPaging,
        6 => AttackVector::VmExit,
        _ => AttackVector::Other,
    }
}

fn spread_outcome(k: u32) -> DosOutcome {
    match k % 10 {
        0..=6 => DosOutcome::Crash,
        7 | 8 => DosOutcome::Hang,
        _ => DosOutcome::Starvation,
    }
}

/// All products in corpus/table order.
pub fn products() -> [Product; 5] {
    ALL_PRODUCTS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_matches_table1_marginals_exactly() {
        let corpus = nvd_corpus();
        for (product, total, avail, dos) in TABLE1_MARGINALS {
            let recs: Vec<&CveRecord> = corpus.iter().filter(|r| r.product == product).collect();
            assert_eq!(recs.len() as u32, total, "{product} total");
            assert_eq!(
                recs.iter().filter(|r| r.affects_availability()).count() as u32,
                avail,
                "{product} avail"
            );
            assert_eq!(
                recs.iter().filter(|r| r.is_dos_only()).count() as u32,
                dos,
                "{product} dos"
            );
        }
    }

    #[test]
    fn xen_dos_classification_matches_table5() {
        let corpus = nvd_corpus();
        let xen_dos: Vec<&CveRecord> = corpus
            .iter()
            .filter(|r| r.product == Product::Xen && r.is_dos_only())
            .collect();
        assert_eq!(xen_dos.len(), 152);
        for (target, outcome, count) in TABLE5_XEN_DOS {
            let got = xen_dos
                .iter()
                .filter(|r| r.target == target && r.outcome == Some(outcome))
                .count() as u32;
            assert_eq!(got, count, "{target:?}/{outcome}");
        }
    }

    #[test]
    fn xen_dos_vectors_match_section_8_2() {
        let corpus = nvd_corpus();
        let xen_dos: Vec<&CveRecord> = corpus
            .iter()
            .filter(|r| r.product == Product::Xen && r.is_dos_only())
            .collect();
        for (vector, count) in XEN_DOS_VECTORS {
            let got = xen_dos.iter().filter(|r| r.vector == vector).count() as u32;
            assert_eq!(got, count, "{vector:?}");
        }
    }

    #[test]
    fn xen_dos_privilege_split() {
        let corpus = nvd_corpus();
        let user = corpus
            .iter()
            .filter(|r| {
                r.product == Product::Xen && r.is_dos_only() && r.privilege == Privilege::GuestUser
            })
            .count() as u32;
        assert_eq!(user, XEN_DOS_GUEST_USER);
    }

    #[test]
    fn corpus_is_deterministic_with_unique_ids() {
        let a = nvd_corpus();
        let b = nvd_corpus();
        assert_eq!(a, b);
        let mut ids: Vec<&str> = a.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "CVE ids must be unique");
    }

    #[test]
    fn venom_is_present_and_shared_by_qemu_deployments() {
        use crate::record::Deployment;
        let corpus = nvd_corpus();
        let venom = corpus.iter().find(|r| r.id == "CVE-2015-3456").unwrap();
        assert!(venom.is_dos_only());
        assert!(Deployment::XenQemu.is_vulnerable_to(venom));
        assert!(!Deployment::KvmKvmtool.is_vulnerable_to(venom));
    }

    #[test]
    fn years_span_the_survey_window() {
        let corpus = nvd_corpus();
        assert!(corpus.iter().all(|r| (2013..=2020).contains(&r.year)));
        assert!(corpus.iter().any(|r| r.year == 2013));
        assert!(corpus.iter().any(|r| r.year == 2020));
    }
}
