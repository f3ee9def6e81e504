//! Integration of the state-translation pipeline across crates: capture on
//! a simulated Xen host, move through the wire codec, restore on a
//! simulated KVM host — the exact path a HERE checkpoint takes.

use here::hypervisor::arch::{ArchRegs, Gpr};
use here::hypervisor::cpuid::CpuidPolicy;
use here::hypervisor::devices::RingState;
use here::hypervisor::host::Hypervisor;
use here::hypervisor::kind::HypervisorKind;
use here::hypervisor::vm::VmConfig;
use here::hypervisor::{KvmHypervisor, PageId, VcpuId, XenHypervisor};
use here::sim::rate::ByteSize;
use here::vmstate::cir::CpuStateCir;
use here::vmstate::wire::{Record, StreamDecoder, StreamEncoder};
use here::vmstate::{check_resumable, reconcile, MemoryDelta, StateTranslator};

fn hosts() -> (XenHypervisor, KvmHypervisor) {
    (
        XenHypervisor::new(ByteSize::from_gib(16)),
        KvmHypervisor::new(ByteSize::from_gib(16)),
    )
}

#[test]
fn full_checkpoint_pipeline_xen_to_kvm() {
    let (mut xen, mut kvm) = hosts();
    let contract = reconcile(&xen.default_cpuid(), &kvm.default_cpuid());
    let cfg = VmConfig::new("pipeline", ByteSize::from_mib(16), 2)
        .unwrap()
        .with_cpuid(contract.cpuid.clone());
    let primary = xen.create_vm(cfg.clone()).unwrap();
    let replica = kvm.create_shell(cfg).unwrap();

    // The guest runs: registers move, memory is written.
    {
        let vm = xen.vm_mut(primary).unwrap();
        vm.dirty_mut().enable_logging();
        for f in [3u64, 99, 1000] {
            vm.guest_write(PageId::new(f), VcpuId::new(1)).unwrap();
        }
        let vcpu = vm.vcpu_mut(VcpuId::new(0)).unwrap();
        vcpu.regs.set_gpr(Gpr::Rbx, 0xfeed_f00d);
        vcpu.regs.tsc = 123_456_789;
        vcpu.regs.pending_interrupt = Some(0x41);
    }

    // Capture: dirty pages + vCPU state in Xen's native format.
    let dirty = xen.snapshot_dirty(primary).unwrap().peek();
    assert_eq!(dirty.len(), 3);
    let translator = StateTranslator::new(HypervisorKind::Xen, HypervisorKind::Kvm).unwrap();
    let mut enc = StreamEncoder::new();
    let mut delta = MemoryDelta::new();
    {
        let vm = xen.vm(primary).unwrap();
        for &p in &dirty {
            delta.push(p, vm.memory().page(p).unwrap());
        }
    }
    enc.push(&Record::PageBatch(delta));
    for i in 0..2 {
        let blob = xen.get_vcpu_state(primary, VcpuId::new(i)).unwrap();
        let cir = translator.decode_to_cir(&blob).unwrap();
        enc.push(&Record::VcpuState { index: i, cir });
    }

    // Restore on the KVM side from the decoded stream.
    let mut dec = StreamDecoder::new(enc.finish()).unwrap();
    while let Some(record) = dec.next_record().unwrap() {
        match record {
            Record::PageBatch(batch) => {
                let vm = kvm.vm_mut(replica).unwrap();
                for &(p, rec) in batch.entries() {
                    vm.memory_mut().install_page(p, rec).unwrap();
                }
            }
            Record::VcpuState { index, cir } => {
                let blob = translator.encode_from_cir(&cir);
                kvm.set_vcpu_state(replica, VcpuId::new(index), blob)
                    .unwrap();
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    // The replica is architecturally and memory-wise identical.
    let p = xen.vm(primary).unwrap();
    let r = kvm.vm(replica).unwrap();
    assert!(p.memory().content_equals(r.memory()));
    for (pv, rv) in p.vcpus().iter().zip(r.vcpus()) {
        assert_eq!(pv.regs, rv.regs);
    }
    // Byte-level check through materialisation: the replica's pages expand
    // to the same 4 KiB images.
    for f in [3u64, 99, 1000] {
        assert_eq!(
            p.memory().materialize(PageId::new(f)).unwrap(),
            r.memory().materialize(PageId::new(f)).unwrap()
        );
    }
}

#[test]
fn reconciled_policy_is_required_for_cross_hypervisor_resume() {
    let (xen, kvm) = hosts();
    // Without reconciliation: a Xen-default guest cannot resume on KVM.
    assert!(check_resumable(&xen.default_cpuid(), &kvm.default_cpuid()).is_err());
    // With reconciliation it can resume on either host.
    let contract = reconcile(&xen.default_cpuid(), &kvm.default_cpuid());
    assert!(check_resumable(&contract.cpuid, &xen.default_cpuid()).is_ok());
    assert!(check_resumable(&contract.cpuid, &kvm.default_cpuid()).is_ok());
}

#[test]
fn unreconciled_vm_is_rejected_at_replica_creation() {
    let (_, mut kvm) = hosts();
    let cfg = VmConfig::new("bad", ByteSize::from_mib(4), 1)
        .unwrap()
        .with_cpuid(CpuidPolicy::xen_default());
    assert!(kvm.create_shell(cfg).is_err());
}

#[test]
fn device_switch_produces_quiescent_native_devices() {
    let (mut xen, _) = hosts();
    let cfg = VmConfig::new("dev", ByteSize::from_mib(4), 1).unwrap();
    let vm_id = xen.create_vm(cfg).unwrap();
    let translator = StateTranslator::new(HypervisorKind::Xen, HypervisorKind::Kvm).unwrap();
    let vm = xen.vm_mut(vm_id).unwrap();
    vm.devices_mut()[0].complete_io(41);
    let switched = translator.translate_devices(vm.devices());
    for (old, new) in vm.devices().iter().zip(&switched) {
        assert_eq!(new.identity, old.identity);
        assert_eq!(new.model.family(), HypervisorKind::Kvm);
        assert!(matches!(new.ring, RingState::Vring { .. }));
        assert!(new.ring.is_quiescent());
    }
}

#[test]
fn cir_is_hypervisor_neutral() {
    // The same architectural truth encoded by either side decodes to the
    // same CIR.
    let mut regs = ArchRegs::reset_state();
    regs.set_gpr(Gpr::R9, 7777);
    regs.system.lstar = 0xffff_8000_0000_0000;
    let xen_blob = here::hypervisor::vcpu::VcpuStateBlob::Xen(
        here::hypervisor::vcpu::XenVcpuState::from_arch(&regs, true),
    );
    let kvm_blob = here::hypervisor::vcpu::VcpuStateBlob::Kvm(
        here::hypervisor::vcpu::KvmVcpuState::from_arch(&regs, true),
    );
    let xk = StateTranslator::new(HypervisorKind::Xen, HypervisorKind::Kvm).unwrap();
    let kx = xk.reversed();
    let cir_from_xen: CpuStateCir = xk.decode_to_cir(&xen_blob).unwrap();
    let cir_from_kvm: CpuStateCir = kx.decode_to_cir(&kvm_blob).unwrap();
    assert_eq!(cir_from_xen, cir_from_kvm);
}
