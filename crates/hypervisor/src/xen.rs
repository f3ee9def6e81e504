//! The simulated Xen host: a type-1 hypervisor with a Dom0 toolstack.
//!
//! Models the pieces of Xen 4.12 that HERE's implementation touches (§7):
//! domain lifecycle through the xl/libxl/libxc toolstack and
//! `vcpu_guest_context` state capture. Dom0 reserves memory from the host
//! pool as in the paper's testbed (10 GiB). The log-dirty shadow ops are the
//! hypervisor-neutral pair every host shares:
//! [`DirtyTracker::enable_logging`](crate::dirty::DirtyTracker::enable_logging)
//! and [`Hypervisor::snapshot_dirty`].

use here_sim_core::rate::ByteSize;
use here_sim_core::time::SimDuration;

use crate::cpuid::CpuidPolicy;
use crate::error::{HvError, HvResult};
use crate::fault::{DosOutcome, HostHealth};
use crate::host::{HostCore, Hypervisor};
use crate::kind::HypervisorKind;
use crate::vcpu::{VcpuId, VcpuStateBlob, XenVcpuState};
use crate::vm::{RunState, Vm, VmConfig, VmId};

/// Userspace activation cost of Xen's toolstack path (libxl domain unpause
/// plus device reconnect), per the Fig. 7 discussion.
pub const XEN_ACTIVATION_LATENCY: SimDuration = SimDuration::from_millis(40);

/// A simulated Xen host.
///
/// # Examples
///
/// ```
/// use here_hypervisor::xen::XenHypervisor;
/// use here_hypervisor::host::Hypervisor;
/// use here_hypervisor::vm::VmConfig;
/// use here_sim_core::rate::ByteSize;
///
/// let mut xen = XenHypervisor::new(ByteSize::from_gib(192));
/// let vm = xen.create_vm(VmConfig::new("web", ByteSize::from_mib(64), 2)?)?;
/// assert!(xen.vm(vm)?.vcpus().len() == 2);
/// # Ok::<(), here_hypervisor::error::HvError>(())
/// ```
#[derive(Debug)]
pub struct XenHypervisor {
    core: HostCore,
    host_memory: ByteSize,
    dom0_memory: ByteSize,
}

/// Dom0 memory reservation used in the paper's testbed.
pub const DOM0_MEMORY: ByteSize = ByteSize::from_gib(10);

impl XenHypervisor {
    /// Boots a Xen host with `host_memory` of physical RAM; Dom0 reserves
    /// [`DOM0_MEMORY`] of it.
    ///
    /// # Panics
    ///
    /// Panics if `host_memory` is not larger than the Dom0 reservation.
    pub fn new(host_memory: ByteSize) -> Self {
        assert!(
            host_memory.as_bytes() > DOM0_MEMORY.as_bytes(),
            "host memory must exceed the Dom0 reservation"
        );
        XenHypervisor {
            core: HostCore::new(HypervisorKind::Xen, CpuidPolicy::xen_default(), 1),
            host_memory,
            dom0_memory: DOM0_MEMORY,
        }
    }

    /// Physical memory available for guests.
    pub fn guest_memory_pool(&self) -> ByteSize {
        ByteSize::from_bytes(self.host_memory.as_bytes() - self.dom0_memory.as_bytes())
    }
}

impl Hypervisor for XenHypervisor {
    fn kind(&self) -> HypervisorKind {
        HypervisorKind::Xen
    }

    fn health(&self) -> HostHealth {
        self.core.health()
    }

    fn inject_dos(&mut self, outcome: DosOutcome) {
        self.core.inject(outcome);
    }

    fn reboot(&mut self) {
        self.core.reboot();
    }

    fn default_cpuid(&self) -> CpuidPolicy {
        CpuidPolicy::xen_default()
    }

    fn create_vm(&mut self, config: VmConfig) -> HvResult<VmId> {
        self.check_memory_pool(&config)?;
        self.core.create(config, RunState::Running)
    }

    fn create_shell(&mut self, config: VmConfig) -> HvResult<VmId> {
        self.check_memory_pool(&config)?;
        self.core.create(config, RunState::Shell)
    }

    fn destroy_vm(&mut self, vm: VmId) -> HvResult<()> {
        self.core.destroy(vm)
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
        Ok(VcpuStateBlob::Xen(XenVcpuState::from_arch(
            &v.regs, v.online,
        )))
    }

    fn set_vcpu_state(&mut self, vm: VmId, vcpu: VcpuId, state: VcpuStateBlob) -> HvResult<()> {
        let VcpuStateBlob::Xen(xen_state) = state else {
            return Err(HvError::Incompatible(
                "xen cannot load a kvm-format vCPU blob; translate it first".into(),
            ));
        };
        let vm = self.core.vm_mut(vm)?;
        let v = vm.vcpu_mut(vcpu)?;
        v.online = xen_state.is_online();
        v.regs = xen_state.to_arch();
        Ok(())
    }

    fn activation_latency(&self) -> SimDuration {
        XEN_ACTIVATION_LATENCY
    }
}

impl XenHypervisor {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn xen() -> XenHypervisor {
        XenHypervisor::new(ByteSize::from_gib(192))
    }

    fn small_cfg() -> VmConfig {
        VmConfig::new("t", ByteSize::from_mib(16), 4).unwrap()
    }

    #[test]
    fn dom0_reservation_reduces_pool() {
        let xen = xen();
        assert_eq!(xen.guest_memory_pool(), ByteSize::from_gib(182));
    }

    #[test]
    fn memory_pool_is_enforced() {
        let mut xen = XenHypervisor::new(ByteSize::from_gib(11));
        // Pool is 1 GiB; a 2 GiB guest must be refused.
        let big = VmConfig::new("big", ByteSize::from_gib(2), 1).unwrap();
        assert!(matches!(xen.create_vm(big), Err(HvError::InvalidConfig(_))));
    }

    #[test]
    fn vcpu_state_round_trips_in_native_format() {
        let mut xen = xen();
        let vm = xen.create_vm(small_cfg()).unwrap();
        let blob = xen.get_vcpu_state(vm, VcpuId::new(0)).unwrap();
        assert!(matches!(blob, VcpuStateBlob::Xen(_)));
        xen.set_vcpu_state(vm, VcpuId::new(0), blob).unwrap();
    }

    #[test]
    fn foreign_blob_is_rejected() {
        use crate::arch::ArchRegs;
        use crate::vcpu::KvmVcpuState;
        let mut xen = xen();
        let vm = xen.create_vm(small_cfg()).unwrap();
        let foreign = VcpuStateBlob::Kvm(KvmVcpuState::from_arch(&ArchRegs::default(), true));
        assert!(matches!(
            xen.set_vcpu_state(vm, VcpuId::new(0), foreign),
            Err(HvError::Incompatible(_))
        ));
    }

    /// Log-dirty mode on Xen is the shadow bitmap: `enable_logging`, guest
    /// writes, then `snapshot_dirty` returns exactly the written frames
    /// and leaves the live bitmap empty; a crashed host refuses the harvest.
    #[test]
    fn logdirty_hypercalls_drive_tracking() {
        use crate::memory::PageId;
        let mut xen = xen();
        let vm = xen.create_vm(small_cfg()).unwrap();
        let guest = xen.vm_mut(vm).unwrap();
        guest.dirty_mut().enable_logging();
        guest.guest_write(PageId::new(11), VcpuId::new(0)).unwrap();
        guest.guest_write(PageId::new(3), VcpuId::new(3)).unwrap();
        guest
            .guest_write_run(PageId::new(64), 3, VcpuId::new(1))
            .unwrap();
        guest.guest_write(PageId::new(3), VcpuId::new(2)).unwrap();
        let snap = xen.snapshot_dirty(vm).unwrap();
        let frames: Vec<u64> = snap.iter().map(PageId::frame).collect();
        assert_eq!(frames, [3, 11, 64, 65, 66]);
        assert!(xen.vm(vm).unwrap().dirty().bitmap().is_empty());
        assert!(xen.snapshot_dirty(vm).unwrap().is_empty());
        xen.inject_dos(DosOutcome::Crash);
        assert!(matches!(xen.snapshot_dirty(vm), Err(HvError::HostDown(_))));
    }

    #[test]
    fn crashed_xen_stops_servicing_hypercalls() {
        let mut xen = xen();
        let vm = xen.create_vm(small_cfg()).unwrap();
        xen.inject_dos(DosOutcome::Crash);
        assert!(xen.snapshot_dirty(vm).is_err());
        assert_eq!(xen.health(), HostHealth::Crashed);
    }
}
