//! Shared host machinery used by both simulated hypervisors.

use here_sim_core::time::SimDuration;

use crate::cpuid::CpuidPolicy;
use crate::dirty::DirtyBitmap;
use crate::error::{HvError, HvResult};
use crate::fault::{DosOutcome, HostHealth};
use crate::kind::HypervisorKind;
use crate::vcpu::{VcpuId, VcpuStateBlob};
use crate::vm::{RunState, Vm, VmConfig, VmId};

/// The hypervisor-independent part of a simulated host: VM table, health
/// state, and CPUID policy. [`crate::xen::XenHypervisor`] and
/// [`crate::kvm::KvmHypervisor`] wrap this with their own formats and
/// timings.
#[derive(Debug)]
pub struct HostCore {
    kind: HypervisorKind,
    health: HostHealth,
    cpuid: CpuidPolicy,
    vms: Vec<Option<Vm>>,
    first_vm_id: u64,
}

impl HostCore {
    /// Creates a healthy host of `kind` with the given default CPUID policy.
    /// `first_vm_id` reproduces each toolstack's numbering convention (Xen
    /// domids start at 1 because 0 is Dom0).
    pub fn new(kind: HypervisorKind, cpuid: CpuidPolicy, first_vm_id: u64) -> Self {
        HostCore {
            kind,
            health: HostHealth::Healthy,
            cpuid,
            vms: Vec::new(),
            first_vm_id,
        }
    }

    /// Which hypervisor this is.
    pub fn kind(&self) -> HypervisorKind {
        self.kind
    }

    /// Current host health.
    pub fn health(&self) -> HostHealth {
        self.health
    }

    /// Applies a DoS outcome to the host.
    pub fn inject(&mut self, outcome: DosOutcome) {
        self.health = HostHealth::from_outcome(outcome);
    }

    /// Reboots the host: health returns, but **all VM state is lost** —
    /// exactly why replication to a second host is needed.
    pub fn reboot(&mut self) {
        self.health = HostHealth::Healthy;
        self.vms.clear();
    }

    /// The host's default CPUID policy.
    pub fn cpuid(&self) -> &CpuidPolicy {
        &self.cpuid
    }

    /// Errors out when the host cannot service requests.
    pub fn ensure_up(&self) -> HvResult<()> {
        if self.health.can_service() {
            Ok(())
        } else {
            Err(HvError::HostDown(self.health.label()))
        }
    }

    /// Creates a VM in `run_state` and returns its id.
    pub fn create(&mut self, config: VmConfig, run_state: RunState) -> HvResult<VmId> {
        self.ensure_up()?;
        let id = VmId::new(self.first_vm_id + self.vms.len() as u64);
        let vm = Vm::build(id, config, self.kind, &self.cpuid, run_state)?;
        self.vms.push(Some(vm));
        Ok(id)
    }

    /// Destroys a VM.
    pub fn destroy(&mut self, id: VmId) -> HvResult<()> {
        self.ensure_up()?;
        let slot = self.slot_mut(id)?;
        slot.destroy();
        Ok(())
    }

    /// Immutable VM access.
    pub fn vm(&self, id: VmId) -> HvResult<&Vm> {
        self.ensure_up()?;
        self.vms
            .iter()
            .flatten()
            .find(|vm| vm.id == id)
            .ok_or(HvError::NoSuchVm(id.raw()))
    }

    /// Mutable VM access.
    pub fn vm_mut(&mut self, id: VmId) -> HvResult<&mut Vm> {
        self.ensure_up()?;
        self.slot_mut(id)
    }

    fn slot_mut(&mut self, id: VmId) -> HvResult<&mut Vm> {
        self.vms
            .iter_mut()
            .flatten()
            .find(|vm| vm.id == id)
            .ok_or(HvError::NoSuchVm(id.raw()))
    }

    /// Ids of all live (non-destroyed) VMs.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms
            .iter()
            .flatten()
            .filter(|vm| vm.run_state() != RunState::Destroyed)
            .map(|vm| vm.id)
            .collect()
    }
}

/// The control-plane interface both simulated hypervisors implement: the
/// operations a replication engine needs, and nothing more. This is the
/// crate's equivalent of the libxc/kvmtool surface HERE patches.
pub trait Hypervisor: std::fmt::Debug {
    /// Which implementation this is.
    fn kind(&self) -> HypervisorKind;

    /// Current health (heartbeat sources consult this).
    fn health(&self) -> HostHealth;

    /// Applies a DoS outcome to the host (exploit injection).
    fn inject_dos(&mut self, outcome: DosOutcome);

    /// Reboots the host, losing all VM state.
    fn reboot(&mut self);

    /// The default CPUID policy this hypervisor exposes to guests.
    fn default_cpuid(&self) -> CpuidPolicy;

    /// Boots a VM (primary side).
    ///
    /// # Errors
    ///
    /// Fails if the host is down or the configuration is invalid.
    fn create_vm(&mut self, config: VmConfig) -> HvResult<VmId>;

    /// Creates a replica shell: allocated but never-run (secondary side).
    ///
    /// # Errors
    ///
    /// Fails if the host is down or the configuration is invalid.
    fn create_shell(&mut self, config: VmConfig) -> HvResult<VmId>;

    /// Destroys a VM.
    ///
    /// # Errors
    ///
    /// Fails if the host is down or the VM does not exist.
    fn destroy_vm(&mut self, vm: VmId) -> HvResult<()>;

    /// Immutable access to a VM.
    ///
    /// # Errors
    ///
    /// Fails if the host is down or the VM does not exist.
    fn vm(&self, vm: VmId) -> HvResult<&Vm>;

    /// Mutable access to a VM.
    ///
    /// # Errors
    ///
    /// Fails if the host is down or the VM does not exist.
    fn vm_mut(&mut self, vm: VmId) -> HvResult<&mut Vm>;

    /// Captures one vCPU's state **in this hypervisor's native format**.
    ///
    /// # Errors
    ///
    /// Fails if the host is down or the VM/vCPU does not exist.
    fn get_vcpu_state(&self, vm: VmId, vcpu: VcpuId) -> HvResult<VcpuStateBlob>;

    /// Loads one vCPU's state. The blob must be in this hypervisor's native
    /// format — a foreign blob is rejected, which is precisely why the
    /// state translator exists.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::Incompatible`] for a foreign-format blob, or the
    /// usual host/VM errors.
    fn set_vcpu_state(&mut self, vm: VmId, vcpu: VcpuId, state: VcpuStateBlob) -> HvResult<()>;

    /// The userspace cost of activating a loaded replica shell into a
    /// running VM. kvmtool's minimal device model makes this ~6 ms; Xen's
    /// full toolstack path costs ~40 ms (Fig. 7 discussion).
    fn activation_latency(&self) -> SimDuration;

    /// Atomically snapshots and clears a VM's dirty bitmap — the one
    /// read-and-clear path of the dirty log (Xen's `SHADOW_OP_CLEAN`,
    /// KVM's `KVM_GET_DIRTY_LOG`), which the checkpoint pipeline calls at
    /// every pause. Logging is switched on by
    /// [`DirtyTracker::enable_logging`](crate::dirty::DirtyTracker::enable_logging)
    /// on either hypervisor.
    ///
    /// # Errors
    ///
    /// Fails if the host is down or the VM does not exist.
    fn snapshot_dirty(&mut self, vm: VmId) -> HvResult<DirtyBitmap> {
        let live = self.vm_mut(vm)?.dirty_mut().bitmap_mut();
        let clean = DirtyBitmap::new(live.num_pages());
        Ok(std::mem::replace(live, clean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_sim_core::rate::ByteSize;

    fn core() -> HostCore {
        HostCore::new(HypervisorKind::Xen, CpuidPolicy::xen_default(), 1)
    }

    fn cfg() -> VmConfig {
        VmConfig::new("t", ByteSize::from_mib(4), 1).unwrap()
    }

    #[test]
    fn vm_ids_start_at_configured_base() {
        let mut host = core();
        let a = host.create(cfg(), RunState::Running).unwrap();
        let b = host.create(cfg(), RunState::Running).unwrap();
        assert_eq!(a, VmId::new(1));
        assert_eq!(b, VmId::new(2));
        assert_eq!(host.vm_ids(), vec![a, b]);
    }

    #[test]
    fn destroyed_vms_leave_the_live_list() {
        let mut host = core();
        let a = host.create(cfg(), RunState::Running).unwrap();
        host.destroy(a).unwrap();
        assert!(host.vm_ids().is_empty());
    }

    #[test]
    fn down_host_rejects_everything() {
        let mut host = core();
        let a = host.create(cfg(), RunState::Running).unwrap();
        host.inject(DosOutcome::Crash);
        assert!(matches!(host.vm(a), Err(HvError::HostDown("crashed"))));
        assert!(host.create(cfg(), RunState::Running).is_err());
        assert!(host.destroy(a).is_err());
    }

    #[test]
    fn starved_host_still_services() {
        let mut host = core();
        let a = host.create(cfg(), RunState::Running).unwrap();
        host.inject(DosOutcome::Starvation);
        assert!(host.vm(a).is_ok());
        assert!(!host.health().heartbeats_reliable());
    }

    #[test]
    fn snapshot_dirty_clears_the_bitmap() {
        use crate::xen::XenHypervisor;
        use crate::{PageId, VcpuId};
        let mut host = XenHypervisor::new(ByteSize::from_gib(16));
        let vm = host
            .create_vm(VmConfig::new("t", ByteSize::from_mib(8), 2).unwrap())
            .unwrap();
        host.vm_mut(vm).unwrap().dirty_mut().enable_logging();
        host.vm_mut(vm)
            .unwrap()
            .guest_write(PageId::new(3), VcpuId::new(1))
            .unwrap();
        let snap = host.snapshot_dirty(vm).unwrap();
        assert_eq!(snap.count(), 1);
        assert!(snap.pages_in_range(0, 16).contains(&PageId::new(3)));
        // The snapshot covers the whole guest, not just the dirty prefix.
        let pages = host.vm(vm).unwrap().memory().num_pages();
        assert_eq!(snap.num_pages(), pages);
        // A second snapshot sees a clean slate.
        let snap2 = host.snapshot_dirty(vm).unwrap();
        assert_eq!(snap2.count(), 0);
        assert_eq!(snap2.num_pages(), pages);
    }

    #[test]
    fn reboot_recovers_health_but_loses_vms() {
        let mut host = core();
        let a = host.create(cfg(), RunState::Running).unwrap();
        host.inject(DosOutcome::Hang);
        host.reboot();
        assert_eq!(host.health(), HostHealth::Healthy);
        assert!(matches!(host.vm(a), Err(HvError::NoSuchVm(_))));
    }
}
