//! The device manager: I/O buffering and the failover device switch (§5.2,
//! §7.3).
//!
//! While replication runs, every outgoing packet of the protected VM is
//! buffered, tagged with the epoch it was emitted in, and released only
//! by [`DeviceManager::release`], which takes the ledger's [`Commit`]: a
//! packet leaves once the checkpoint covering its epoch committed at
//! quorum. On failover, the manager discards what is still held and
//! instructs the guest (through its agent module) to unplug the primary
//! hypervisor's PV devices and plug the secondary's equivalents —
//! identities preserved, rings reset.

use here_hypervisor::devices::AgentEvent;
use here_hypervisor::kind::HypervisorKind;
use here_hypervisor::vm::Vm;
use here_sim_core::rate::ByteSize;
use here_sim_core::time::SimTime;
use here_simnet::buffer::{IoBuffer, ReleasedPacket};
use here_vmstate::translate::StateTranslator;

use crate::failover::Commit;

/// The device manager of one replication session.
#[derive(Debug, Default)]
pub struct DeviceManager {
    io: IoBuffer,
    switches_performed: u32,
}

/// Summary of one failover device switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSwitchReport {
    /// Devices unplugged and replaced.
    pub devices_switched: usize,
    /// The family of the new device models.
    pub new_family: HypervisorKind,
    /// Outgoing packets discarded together with the rolled-back execution.
    pub packets_discarded: usize,
}

impl DeviceManager {
    /// Creates an idle device manager.
    pub fn new() -> Self {
        DeviceManager::default()
    }

    /// Buffers one outgoing packet emitted at `now` during `epoch`.
    pub fn buffer_outgoing(&mut self, size: ByteSize, now: SimTime, epoch: u64) -> u64 {
        self.io.enqueue(size, now, epoch)
    }

    /// Spends `commit`: releases, at instant `now`, every packet emitted
    /// in the committed epoch or before it. The only way output leaves.
    pub fn release(&mut self, commit: Commit, now: SimTime) -> Vec<ReleasedPacket> {
        self.io.release_through(commit.seq(), now)
    }

    /// The underlying buffer and its packet counts (observability).
    pub fn io(&self) -> &IoBuffer {
        &self.io
    }

    /// Starts a new measurement window for the buffer's packet counts.
    pub(crate) fn reset_packet_counts(&mut self) {
        self.io.reset_totals();
    }

    /// Number of device switches performed over the session.
    pub fn switches_performed(&self) -> u32 {
        self.switches_performed
    }

    /// Failover: discard uncommitted output, then run the agent protocol on
    /// the replica — unplug all primary-family devices, plug the
    /// secondary-family equivalents, and signal completion.
    pub fn switch_devices(
        &mut self,
        replica: &mut Vm,
        translator: Option<&StateTranslator>,
    ) -> DeviceSwitchReport {
        let packets_discarded = self.io.discard_all();
        let new_family = translator.map(|t| t.target()).unwrap_or_else(|| {
            replica
                .devices()
                .first()
                .map(|d| d.model.family())
                .unwrap_or(HypervisorKind::Xen)
        });
        let new_devices = match translator {
            Some(t) => t.translate_devices(replica.devices()),
            // Homogeneous (Remus) failover: same models, fresh rings.
            None => replica
                .devices()
                .iter()
                .map(|d| d.rehosted_for(new_family))
                .collect(),
        };
        replica.agent_mut().handle(AgentEvent::UnplugAll);
        for dev in &new_devices {
            replica.agent_mut().handle(AgentEvent::Plug(dev.clone()));
        }
        replica
            .agent_mut()
            .handle(AgentEvent::MigrationComplete { now_on: new_family });
        let devices_switched = new_devices.len();
        *replica.devices_mut() = new_devices;
        self.switches_performed += 1;
        DeviceSwitchReport {
            devices_switched,
            new_family,
            packets_discarded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failover::CommitLedger;
    use here_hypervisor::cpuid::CpuidPolicy;
    use here_hypervisor::host::Hypervisor;
    use here_hypervisor::vm::{RunState, VmConfig};
    use here_hypervisor::KvmHypervisor;
    use here_vmstate::reconcile;

    fn replica_on_kvm() -> (KvmHypervisor, here_hypervisor::VmId) {
        let mut kvm = KvmHypervisor::new(ByteSize::from_gib(16));
        let contract = reconcile(&CpuidPolicy::xen_default(), &CpuidPolicy::kvm_default());
        let cfg = VmConfig::new("replica", ByteSize::from_mib(16), 2)
            .unwrap()
            .with_cpuid(contract.cpuid);
        let id = kvm.create_shell(cfg).unwrap();
        (kvm, id)
    }

    #[test]
    fn commit_releases_buffered_packets_in_order() {
        let mut dm = DeviceManager::new();
        dm.buffer_outgoing(ByteSize::from_bytes(64), SimTime::from_secs(1), 1);
        dm.buffer_outgoing(ByteSize::from_bytes(64), SimTime::from_secs(2), 1);
        dm.buffer_outgoing(ByteSize::from_bytes(64), SimTime::from_secs(3), 2);
        let mut ledger = CommitLedger::new();
        let commit = ledger.ack(0, 1, SimTime::from_secs(3)).expect("quorum 1");
        let out = dm.release(commit, SimTime::from_secs(3));
        assert_eq!(out.len(), 2, "epoch 2's packet waits for its own commit");
        assert!(out[0].packet.created_at < out[1].packet.created_at);
        assert_eq!(dm.io().len(), 1);
        assert_eq!(dm.io().total_buffered(), 3);
        assert_eq!(dm.io().total_released(), 2);
        assert_eq!(dm.io().total_discarded(), 0);
    }

    #[test]
    fn heterogeneous_switch_moves_devices_to_virtio() {
        let (mut kvm, id) = replica_on_kvm();
        let mut dm = DeviceManager::new();
        dm.buffer_outgoing(ByteSize::from_bytes(100), SimTime::ZERO, 1);
        let translator = StateTranslator::new(HypervisorKind::Xen, HypervisorKind::Kvm).unwrap();
        // Replica shell was created on KVM, but in a real session its
        // device *description* came from the Xen side; emulate that.
        let vm = kvm.vm_mut(id).unwrap();
        *vm.devices_mut() = here_hypervisor::devices::standard_device_set(HypervisorKind::Xen);
        let report = dm.switch_devices(vm, Some(&translator));
        assert_eq!(report.devices_switched, 3);
        assert_eq!(report.new_family, HypervisorKind::Kvm);
        assert_eq!(report.packets_discarded, 1);
        assert!(vm
            .devices()
            .iter()
            .all(|d| d.model.family() == HypervisorKind::Kvm));
        // Agent saw unplug-then-plug protocol.
        let log = vm.agent().event_log();
        assert!(matches!(log[0], AgentEvent::UnplugAll));
        assert!(matches!(
            log.last(),
            Some(AgentEvent::MigrationComplete { .. })
        ));
    }

    #[test]
    fn homogeneous_switch_keeps_family_and_resets_rings() {
        let mut kvm = KvmHypervisor::new(ByteSize::from_gib(16));
        let cfg = VmConfig::new("r", ByteSize::from_mib(16), 2).unwrap();
        let id = kvm.create_shell(cfg).unwrap();
        let vm = kvm.vm_mut(id).unwrap();
        assert_eq!(vm.run_state(), RunState::Shell);
        let mut dm = DeviceManager::new();
        let report = dm.switch_devices(vm, None);
        assert_eq!(report.new_family, HypervisorKind::Kvm);
        assert!(vm.devices().iter().all(|d| d.ring.is_quiescent()));
        assert_eq!(dm.switches_performed(), 1);
    }
}
