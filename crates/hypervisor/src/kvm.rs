//! The simulated KVM host with a kvmtool-style userspace.
//!
//! KVM is a type-2 hypervisor: a kernel module accelerates guest execution,
//! and each VM is an ordinary userspace process. The paper uses **kvmtool**
//! (not QEMU) as the userspace component precisely so the two sides of the
//! replication pair share *no* device-model code — implementing HERE on
//! Xen + QEMU-KVM "would not have protected the guest from QEMU
//! vulnerabilities (e.g. CVE-2015-3456)" (§8.2). kvmtool's minimal device
//! model also gives the fast ~6 ms replica activation the paper measures in
//! Fig. 7.

use here_sim_core::rate::ByteSize;
use here_sim_core::time::SimDuration;

use crate::cpuid::CpuidPolicy;
use crate::error::{HvError, HvResult};
use crate::fault::{DosOutcome, HostHealth};
use crate::host::{HostCore, Hypervisor};
use crate::kind::HypervisorKind;
use crate::vcpu::{KvmVcpuState, VcpuId, VcpuStateBlob};
use crate::vm::{RunState, Vm, VmConfig, VmId};

/// Userspace activation cost of kvmtool's resume path (Fig. 7: ~6 ms,
/// independent of VM memory size).
pub const KVMTOOL_ACTIVATION_LATENCY: SimDuration = SimDuration::from_millis(6);

/// A kvmtool process hosting one VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvmtoolProcess {
    /// Host process id.
    pub pid: u32,
    /// The VM the process hosts.
    pub vm: VmId,
    /// Whether the process has its vhost worker threads started.
    pub vhost_started: bool,
}

/// A simulated Linux/KVM host.
///
/// # Examples
///
/// ```
/// use here_hypervisor::kvm::KvmHypervisor;
/// use here_hypervisor::host::Hypervisor;
/// use here_hypervisor::vm::VmConfig;
/// use here_sim_core::rate::ByteSize;
///
/// let mut kvm = KvmHypervisor::new(ByteSize::from_gib(192));
/// let shell = kvm.create_shell(VmConfig::new("replica", ByteSize::from_mib(64), 2)?)?;
/// assert_eq!(kvm.kvmtool_process(shell).unwrap().vm, shell);
/// # Ok::<(), here_hypervisor::error::HvError>(())
/// ```
#[derive(Debug)]
pub struct KvmHypervisor {
    core: HostCore,
    host_memory: ByteSize,
    processes: Vec<KvmtoolProcess>,
    next_pid: u32,
}

impl KvmHypervisor {
    /// Boots a KVM host with `host_memory` of physical RAM.
    pub fn new(host_memory: ByteSize) -> Self {
        KvmHypervisor {
            core: HostCore::new(HypervisorKind::Kvm, CpuidPolicy::kvm_default(), 100),
            host_memory,
            processes: Vec::new(),
            next_pid: 4242,
        }
    }

    /// Physical memory available for guests (the Linux host itself needs
    /// ~2 GiB).
    pub fn guest_memory_pool(&self) -> ByteSize {
        ByteSize::from_bytes(
            self.host_memory
                .as_bytes()
                .saturating_sub(ByteSize::from_gib(2).as_bytes()),
        )
    }

    /// The kvmtool process hosting `vm`, if any.
    pub fn kvmtool_process(&self, vm: VmId) -> Option<&KvmtoolProcess> {
        self.processes.iter().find(|p| p.vm == vm)
    }

    fn spawn_process(&mut self, vm: VmId) {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.processes.push(KvmtoolProcess {
            pid,
            vm,
            vhost_started: false,
        });
    }

    fn check_memory_pool(&self, config: &VmConfig) -> HvResult<()> {
        let in_use: u64 = self
            .core
            .vm_ids()
            .iter()
            .filter_map(|&id| self.core.vm(id).ok())
            .map(|vm| vm.config().memory.as_bytes())
            .sum();
        let pool = self.guest_memory_pool().as_bytes();
        if in_use + config.memory.as_bytes() > pool {
            return Err(HvError::InvalidConfig(format!(
                "guest pool exhausted: {} in use of {}, requested {}",
                ByteSize::from_bytes(in_use),
                ByteSize::from_bytes(pool),
                config.memory
            )));
        }
        Ok(())
    }
}

impl Hypervisor for KvmHypervisor {
    fn kind(&self) -> HypervisorKind {
        HypervisorKind::Kvm
    }

    fn health(&self) -> HostHealth {
        self.core.health()
    }

    fn inject_dos(&mut self, outcome: DosOutcome) {
        self.core.inject(outcome);
    }

    fn reboot(&mut self) {
        self.core.reboot();
        self.processes.clear();
    }

    fn default_cpuid(&self) -> CpuidPolicy {
        CpuidPolicy::kvm_default()
    }

    fn create_vm(&mut self, config: VmConfig) -> HvResult<VmId> {
        self.check_memory_pool(&config)?;
        let id = self.core.create(config, RunState::Running)?;
        self.spawn_process(id);
        Ok(id)
    }

    fn create_shell(&mut self, config: VmConfig) -> HvResult<VmId> {
        self.check_memory_pool(&config)?;
        let id = self.core.create(config, RunState::Shell)?;
        self.spawn_process(id);
        Ok(id)
    }

    fn destroy_vm(&mut self, vm: VmId) -> HvResult<()> {
        self.core.destroy(vm)?;
        self.processes.retain(|p| p.vm != vm);
        Ok(())
    }

    fn vm(&self, vm: VmId) -> HvResult<&Vm> {
        self.core.vm(vm)
    }

    fn vm_mut(&mut self, vm: VmId) -> HvResult<&mut Vm> {
        self.core.vm_mut(vm)
    }

    fn get_vcpu_state(&self, vm: VmId, vcpu: VcpuId) -> HvResult<VcpuStateBlob> {
        let vm = self.core.vm(vm)?;
        let v = vm.vcpu(vcpu)?;
        Ok(VcpuStateBlob::Kvm(KvmVcpuState::from_arch(
            &v.regs, v.online,
        )))
    }

    fn set_vcpu_state(&mut self, vm: VmId, vcpu: VcpuId, state: VcpuStateBlob) -> HvResult<()> {
        let VcpuStateBlob::Kvm(kvm_state) = state else {
            return Err(HvError::Incompatible(
                "kvm cannot load a xen-format vCPU blob; translate it first".into(),
            ));
        };
        let vm = self.core.vm_mut(vm)?;
        let v = vm.vcpu_mut(vcpu)?;
        v.online = kvm_state.online;
        v.regs = kvm_state.to_arch();
        Ok(())
    }

    fn activation_latency(&self) -> SimDuration {
        KVMTOOL_ACTIVATION_LATENCY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kvm() -> KvmHypervisor {
        KvmHypervisor::new(ByteSize::from_gib(192))
    }

    fn small_cfg() -> VmConfig {
        VmConfig::new("t", ByteSize::from_mib(16), 4).unwrap()
    }

    #[test]
    fn each_vm_gets_a_kvmtool_process() {
        let mut kvm = kvm();
        let a = kvm.create_vm(small_cfg()).unwrap();
        let b = kvm.create_shell(small_cfg()).unwrap();
        let pa = kvm.kvmtool_process(a).unwrap().pid;
        let pb = kvm.kvmtool_process(b).unwrap().pid;
        assert_ne!(pa, pb);
        kvm.destroy_vm(a).unwrap();
        assert!(kvm.kvmtool_process(a).is_none());
        assert!(kvm.kvmtool_process(b).is_some());
    }

    #[test]
    fn native_format_is_kvm() {
        let mut kvm = kvm();
        let vm = kvm.create_vm(small_cfg()).unwrap();
        let blob = kvm.get_vcpu_state(vm, VcpuId::new(2)).unwrap();
        assert!(matches!(blob, VcpuStateBlob::Kvm(_)));
        kvm.set_vcpu_state(vm, VcpuId::new(2), blob).unwrap();
    }

    #[test]
    fn xen_blob_is_rejected() {
        use crate::arch::ArchRegs;
        use crate::vcpu::XenVcpuState;
        let mut kvm = kvm();
        let vm = kvm.create_vm(small_cfg()).unwrap();
        let foreign = VcpuStateBlob::Xen(XenVcpuState::from_arch(&ArchRegs::default(), true));
        assert!(matches!(
            kvm.set_vcpu_state(vm, VcpuId::new(0), foreign),
            Err(HvError::Incompatible(_))
        ));
    }

    #[test]
    fn activation_is_faster_than_xen() {
        let kvm = kvm();
        assert!(KVMTOOL_ACTIVATION_LATENCY < crate::xen::XEN_ACTIVATION_LATENCY);
        assert_eq!(kvm.activation_latency(), KVMTOOL_ACTIVATION_LATENCY);
    }

    /// The KVM dirty log is the shadow bitmap: `enable_logging`, guest
    /// writes, then `snapshot_dirty` returns exactly the written frames
    /// and leaves the live bitmap empty; a crashed host refuses the harvest.
    #[test]
    fn dirty_log_ioctls() {
        use crate::memory::PageId;
        let mut kvm = kvm();
        let vm = kvm.create_vm(small_cfg()).unwrap();
        let guest = kvm.vm_mut(vm).unwrap();
        guest.dirty_mut().enable_logging();
        guest.guest_write(PageId::new(11), VcpuId::new(0)).unwrap();
        guest.guest_write(PageId::new(3), VcpuId::new(3)).unwrap();
        guest
            .guest_write_run(PageId::new(64), 3, VcpuId::new(1))
            .unwrap();
        guest.guest_write(PageId::new(3), VcpuId::new(2)).unwrap();
        let snap = kvm.snapshot_dirty(vm).unwrap();
        let frames: Vec<u64> = snap.iter().map(PageId::frame).collect();
        assert_eq!(frames, [3, 11, 64, 65, 66]);
        assert!(kvm.vm(vm).unwrap().dirty().bitmap().is_empty());
        assert!(kvm.snapshot_dirty(vm).unwrap().is_empty());
        kvm.inject_dos(DosOutcome::Crash);
        assert!(matches!(kvm.snapshot_dirty(vm), Err(HvError::HostDown(_))));
    }

    #[test]
    fn crash_takes_down_the_whole_host() {
        let mut kvm = kvm();
        let vm = kvm.create_vm(small_cfg()).unwrap();
        kvm.inject_dos(DosOutcome::Crash);
        assert_eq!(kvm.health(), HostHealth::Crashed);
        assert!(kvm.vm(vm).is_err());
        kvm.reboot();
        assert_eq!(kvm.health(), HostHealth::Healthy);
        assert!(kvm.vm(vm).is_err(), "reboot loses VM state");
    }
}
