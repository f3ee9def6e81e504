//! Virtual machines: configuration, run state, and the in-memory object.

use serde::{Deserialize, Serialize};

use here_sim_core::rate::ByteSize;

use crate::cpuid::CpuidPolicy;
use crate::devices::{standard_device_set, DeviceInstance, GuestAgent};
use crate::dirty::DirtyTracker;
use crate::error::{HvError, HvResult};
use crate::kind::HypervisorKind;
use crate::memory::{GuestMemory, PageId};
use crate::vcpu::{Vcpu, VcpuId};

/// Identifier of a VM on one host (Xen would call it a domid).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VmId(u64);

impl VmId {
    /// Creates a VM id.
    pub const fn new(raw: u64) -> Self {
        VmId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// Static configuration of a VM.
///
/// # Examples
///
/// ```
/// use here_hypervisor::vm::VmConfig;
/// use here_sim_core::rate::ByteSize;
///
/// let cfg = VmConfig::new("db-vm", ByteSize::from_gib(8), 4).unwrap();
/// assert_eq!(cfg.vcpus, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmConfig {
    /// Human-readable VM name.
    pub name: String,
    /// Guest memory size.
    pub memory: ByteSize,
    /// Number of vCPUs.
    pub vcpus: u32,
    /// CPUID policy override; `None` means "use the host's default policy".
    pub cpuid: Option<CpuidPolicy>,
}

impl VmConfig {
    /// Creates a VM configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::InvalidConfig`] if `vcpus` is zero or `memory`
    /// is not a positive multiple of the page size.
    pub fn new(name: impl Into<String>, memory: ByteSize, vcpus: u32) -> HvResult<Self> {
        if vcpus == 0 {
            return Err(HvError::InvalidConfig(
                "a VM needs at least one vCPU".into(),
            ));
        }
        // Validate memory eagerly by test-constructing the address space.
        GuestMemory::new(memory)?;
        Ok(VmConfig {
            name: name.into(),
            memory,
            vcpus,
            cpuid: None,
        })
    }

    /// Sets an explicit CPUID policy (the reconciled cross-hypervisor
    /// policy HERE installs before replication).
    pub fn with_cpuid(mut self, policy: CpuidPolicy) -> Self {
        self.cpuid = Some(policy);
        self
    }
}

/// Execution state of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunState {
    /// Executing guest instructions.
    Running,
    /// Paused by the toolstack (checkpoint stop-and-copy window).
    Paused,
    /// A replica shell: memory and state are being loaded, the VM has never
    /// run on this host. Activating it moves it to [`RunState::Running`].
    Shell,
    /// Destroyed; only the id remains.
    Destroyed,
}

impl RunState {
    /// Lowercase label for error messages.
    pub fn label(self) -> &'static str {
        match self {
            RunState::Running => "running",
            RunState::Paused => "paused",
            RunState::Shell => "a replica shell",
            RunState::Destroyed => "destroyed",
        }
    }
}

/// A virtual machine resident on a simulated host.
#[derive(Debug, Clone)]
pub struct Vm {
    /// This VM's id on its host.
    pub id: VmId,
    config: VmConfig,
    memory: GuestMemory,
    vcpus: Vec<Vcpu>,
    devices: Vec<DeviceInstance>,
    agent: GuestAgent,
    dirty: DirtyTracker,
    run_state: RunState,
    cpuid: CpuidPolicy,
}

impl Vm {
    /// Builds a VM from `config` with `family`-native devices, in the given
    /// initial `run_state` ([`RunState::Running`] for a fresh boot,
    /// [`RunState::Shell`] for a replica target).
    pub(crate) fn build(
        id: VmId,
        config: VmConfig,
        family: HypervisorKind,
        host_cpuid: &CpuidPolicy,
        run_state: RunState,
    ) -> HvResult<Self> {
        let memory = GuestMemory::new(config.memory)?;
        let vcpus = (0..config.vcpus)
            .map(|i| Vcpu::new(VcpuId::new(i)))
            .collect();
        let devices = standard_device_set(family);
        let dirty = DirtyTracker::new(memory.num_pages());
        let cpuid = config.cpuid.clone().unwrap_or_else(|| host_cpuid.clone());
        if !cpuid.is_subset_of(host_cpuid) {
            return Err(HvError::Incompatible(format!(
                "requested CPUID policy exposes features the {family} host does not offer"
            )));
        }
        Ok(Vm {
            id,
            agent: GuestAgent::new(devices.clone()),
            config,
            memory,
            vcpus,
            devices,
            dirty,
            run_state,
            cpuid,
        })
    }

    /// The VM's static configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Current run state.
    pub fn run_state(&self) -> RunState {
        self.run_state
    }

    /// The effective CPUID policy the guest sees.
    pub fn cpuid(&self) -> &CpuidPolicy {
        &self.cpuid
    }

    /// Guest memory (read access).
    pub fn memory(&self) -> &GuestMemory {
        &self.memory
    }

    /// Guest memory (mutable access, for replication state loading).
    pub fn memory_mut(&mut self) -> &mut GuestMemory {
        &mut self.memory
    }

    /// The vCPUs.
    pub fn vcpus(&self) -> &[Vcpu] {
        &self.vcpus
    }

    /// Mutable vCPU access.
    pub fn vcpus_mut(&mut self) -> &mut [Vcpu] {
        &mut self.vcpus
    }

    /// One vCPU by id.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::NoSuchVcpu`] for an out-of-range id.
    pub fn vcpu(&self, id: VcpuId) -> HvResult<&Vcpu> {
        self.vcpus
            .get(id.index() as usize)
            .ok_or(HvError::NoSuchVcpu(id.index()))
    }

    /// Mutable access to one vCPU.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::NoSuchVcpu`] for an out-of-range id.
    pub fn vcpu_mut(&mut self, id: VcpuId) -> HvResult<&mut Vcpu> {
        self.vcpus
            .get_mut(id.index() as usize)
            .ok_or(HvError::NoSuchVcpu(id.index()))
    }

    /// Attached devices.
    pub fn devices(&self) -> &[DeviceInstance] {
        &self.devices
    }

    /// Mutable device list (used by the device manager during failover).
    pub fn devices_mut(&mut self) -> &mut Vec<DeviceInstance> {
        &mut self.devices
    }

    /// The in-guest device-switch agent.
    pub fn agent(&self) -> &GuestAgent {
        &self.agent
    }

    /// Mutable agent access.
    pub fn agent_mut(&mut self) -> &mut GuestAgent {
        &mut self.agent
    }

    /// Dirty-tracking state.
    pub fn dirty(&self) -> &DirtyTracker {
        &self.dirty
    }

    /// Mutable dirty-tracking state.
    pub fn dirty_mut(&mut self) -> &mut DirtyTracker {
        &mut self.dirty
    }

    /// Records a guest write: bumps the page version, records `vcpu` as its
    /// writer and marks the page in the dirty bitmap while logging is on.
    /// Only legal while the VM runs.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::WrongRunState`] if the VM is not running, or
    /// [`HvError::PageOutOfRange`] for a bad frame.
    pub fn guest_write(&mut self, page: PageId, vcpu: VcpuId) -> HvResult<()> {
        if self.run_state != RunState::Running {
            return Err(HvError::WrongRunState {
                op: "write guest memory",
                state: self.run_state.label(),
            });
        }
        self.memory.write_page(page, vcpu)?;
        self.dirty.record_write(page);
        Ok(())
    }

    /// Records guest writes by `vcpu` to the `count` consecutive frames
    /// from `first`: versions, writers and the dirty bitmap end exactly as
    /// `count` [`Vm::guest_write`] calls in ascending order leave them, at
    /// the cost of one bounds check and one pass per structure. All or
    /// nothing: an error changes no state.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::WrongRunState`] if the VM is not running, or
    /// [`HvError::PageOutOfRange`] if the run leaves the address space.
    pub fn guest_write_run(&mut self, first: PageId, count: u64, vcpu: VcpuId) -> HvResult<()> {
        if self.run_state != RunState::Running {
            return Err(HvError::WrongRunState {
                op: "write guest memory",
                state: self.run_state.label(),
            });
        }
        self.memory.write_run(first.frame(), count, vcpu)?;
        self.dirty.record_run(first.frame(), count);
        Ok(())
    }

    /// Pauses a running VM.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::WrongRunState`] unless the VM is running.
    pub fn pause(&mut self) -> HvResult<()> {
        match self.run_state {
            RunState::Running => {
                self.run_state = RunState::Paused;
                Ok(())
            }
            other => Err(HvError::WrongRunState {
                op: "pause",
                state: other.label(),
            }),
        }
    }

    /// Resumes a paused VM.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::WrongRunState`] unless the VM is paused.
    pub fn resume(&mut self) -> HvResult<()> {
        match self.run_state {
            RunState::Paused => {
                self.run_state = RunState::Running;
                Ok(())
            }
            other => Err(HvError::WrongRunState {
                op: "resume",
                state: other.label(),
            }),
        }
    }

    /// Activates a replica shell, making it a running VM (failover).
    ///
    /// # Errors
    ///
    /// Returns [`HvError::WrongRunState`] unless the VM is a shell.
    pub fn activate(&mut self) -> HvResult<()> {
        match self.run_state {
            RunState::Shell => {
                self.run_state = RunState::Running;
                Ok(())
            }
            other => Err(HvError::WrongRunState {
                op: "activate",
                state: other.label(),
            }),
        }
    }

    /// Marks the VM destroyed.
    pub fn destroy(&mut self) {
        self.run_state = RunState::Destroyed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> Vm {
        let cfg = VmConfig::new("t", ByteSize::from_mib(4), 2).unwrap();
        Vm::build(
            VmId::new(1),
            cfg,
            HypervisorKind::Xen,
            &CpuidPolicy::xen_default(),
            RunState::Running,
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(VmConfig::new("x", ByteSize::from_mib(4), 0).is_err());
        assert!(VmConfig::new("x", ByteSize::from_bytes(100), 1).is_err());
        assert!(VmConfig::new("x", ByteSize::from_mib(4), 1).is_ok());
    }

    #[test]
    fn guest_write_requires_running() {
        let mut vm = vm();
        vm.guest_write(PageId::new(1), VcpuId::new(0)).unwrap();
        vm.pause().unwrap();
        assert!(matches!(
            vm.guest_write(PageId::new(2), VcpuId::new(0)),
            Err(HvError::WrongRunState { .. })
        ));
    }

    #[test]
    fn guest_write_feeds_dirty_tracking_when_logging() {
        let mut vm = vm();
        vm.dirty_mut().enable_logging();
        vm.guest_write(PageId::new(7), VcpuId::new(1)).unwrap();
        assert!(vm.dirty().bitmap().is_dirty(PageId::new(7)));
        assert_eq!(vm.dirty().bitmap().count(), 1);
        let rec = vm.memory().page(PageId::new(7)).unwrap();
        assert_eq!((rec.version, rec.last_writer), (1, 1));
    }

    #[test]
    fn a_run_may_end_at_the_last_frame_and_not_past_it() {
        let mut vm = vm();
        vm.dirty_mut().enable_logging();
        vm.guest_write_run(PageId::new(1000), 24, VcpuId::new(0))
            .unwrap();
        assert_eq!(vm.memory().page(PageId::new(1023)).unwrap().version, 1);
        let before = vm.clone();
        for (first, count) in [(1001, 24), (1024, 1), (0, 1025), (5, u64::MAX)] {
            assert_eq!(
                vm.guest_write_run(PageId::new(first), count, VcpuId::new(0)),
                Err(HvError::PageOutOfRange {
                    page: first.max(1024),
                    limit: 1024
                }),
                "run {first}+{count}"
            );
        }
        assert_eq!(vm.memory(), before.memory());
        assert_eq!(vm.dirty(), before.dirty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// A run is `count` single-page writes in ascending order: the same
        /// versions, writers, bitmap words and count, over pages some earlier
        /// writes already dirtied. A run that leaves
        /// the address space, or lands on a paused VM, changes nothing.
        #[test]
        fn a_run_is_the_per_page_loop(
            first in 0u64..1100,
            count in 0u64..700,
            vcpu in 0u32..3,
            prefill in 0u64..200,
            logging in proptest::prelude::any::<bool>(),
        ) {
            // 4 MiB = 1024 frames, so some runs overrun the address space.
            let mut run = vm();
            if logging {
                run.dirty_mut().enable_logging();
            }
            for f in 0..prefill {
                run.guest_write(PageId::new(f * 3 % 1024), VcpuId::new(vcpu % 2)).unwrap();
            }
            let mut per_page = run.clone();
            let got = run.guest_write_run(PageId::new(first), count, VcpuId::new(vcpu));
            // An empty run writes nothing, so no frame of it is out of range.
            if count == 0 || first + count <= 1024 {
                proptest::prop_assert!(got.is_ok());
                for f in first..first + count {
                    per_page.guest_write(PageId::new(f), VcpuId::new(vcpu)).unwrap();
                }
            } else {
                let want = HvError::PageOutOfRange { page: first.max(1024), limit: 1024 };
                proptest::prop_assert_eq!(got, Err(want));
            }
            proptest::prop_assert_eq!(run.memory(), per_page.memory());
            proptest::prop_assert_eq!(run.dirty(), per_page.dirty());

            run.pause().unwrap();
            let before = run.clone();
            proptest::prop_assert!(matches!(
                run.guest_write_run(PageId::new(first), count, VcpuId::new(vcpu)),
                Err(HvError::WrongRunState { .. })
            ));
            proptest::prop_assert_eq!(run.memory(), before.memory());
            proptest::prop_assert_eq!(run.dirty(), before.dirty());
        }
    }

    #[test]
    fn run_state_machine() {
        let mut vm = vm();
        assert_eq!(vm.run_state(), RunState::Running);
        assert!(vm.resume().is_err());
        vm.pause().unwrap();
        assert!(vm.pause().is_err());
        vm.resume().unwrap();
        assert_eq!(vm.run_state(), RunState::Running);
        assert!(vm.activate().is_err());
        vm.destroy();
        assert!(vm.pause().is_err());
    }

    #[test]
    fn shell_activation() {
        let cfg = VmConfig::new("r", ByteSize::from_mib(4), 2).unwrap();
        let mut shell = Vm::build(
            VmId::new(2),
            cfg,
            HypervisorKind::Kvm,
            &CpuidPolicy::kvm_default(),
            RunState::Shell,
        )
        .unwrap();
        assert!(shell.guest_write(PageId::new(0), VcpuId::new(0)).is_err());
        shell.activate().unwrap();
        assert_eq!(shell.run_state(), RunState::Running);
    }

    #[test]
    fn incompatible_cpuid_is_rejected() {
        let cfg = VmConfig::new("x", ByteSize::from_mib(4), 1)
            .unwrap()
            .with_cpuid(CpuidPolicy::xen_default());
        // Xen's default policy exposes TSX/AVX-512 which KVM does not offer.
        let err = Vm::build(
            VmId::new(3),
            cfg,
            HypervisorKind::Kvm,
            &CpuidPolicy::kvm_default(),
            RunState::Shell,
        );
        assert!(matches!(err, Err(HvError::Incompatible(_))));
    }

    #[test]
    fn devices_match_host_family() {
        let vm = vm();
        assert!(vm
            .devices()
            .iter()
            .all(|d| d.model.family() == HypervisorKind::Xen));
        assert_eq!(vm.agent().devices().len(), 3);
    }
}
