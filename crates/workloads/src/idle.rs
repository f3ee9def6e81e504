//! The idle guest: background OS activity only.
//!
//! Figs. 6 (left), 7 (left) and 8 (a/c) measure migration and replication
//! of an *idle* VM. Idle is not zero: kernel timers, logging and page-cache
//! writeback keep dirtying a trickle of pages proportional to how much of
//! the OS is resident — which is why idle checkpoint transfer time still
//! grows with VM memory size in Fig. 8a.

use here_hypervisor::vm::Vm;
use here_hypervisor::{PageId, VcpuId};
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};

use crate::traits::{Progress, Workload};

/// Idle dirtying rate: pages per second per GiB of guest memory.
pub const IDLE_PAGES_PER_SEC_PER_GIB: f64 = 20.0;

/// An idle guest OS.
///
/// # Examples
///
/// ```
/// use here_workloads::idle::IdleGuest;
/// use here_workloads::traits::Workload;
///
/// let idle = IdleGuest::new();
/// assert_eq!(idle.name(), "idle");
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdleGuest {
    carry: f64,
}

impl IdleGuest {
    /// Creates an idle guest.
    pub fn new() -> Self {
        IdleGuest { carry: 0.0 }
    }
}

impl Workload for IdleGuest {
    fn name(&self) -> &str {
        "idle"
    }

    fn advance(
        &mut self,
        _now: SimTime,
        dt: SimDuration,
        vm: &mut Vm,
        rng: &mut SimRng,
    ) -> Progress {
        let gib = vm.memory().size().as_gib_f64();
        let want = IDLE_PAGES_PER_SEC_PER_GIB * gib * dt.as_secs_f64() + self.carry;
        let writes = want as u64;
        self.carry = want - writes as f64;
        let num_pages = vm.memory().num_pages();
        for _ in 0..writes {
            // Kernel structures cluster in the low fifth of memory.
            let frame = rng.below((num_pages / 5).max(1));
            vm.guest_write(PageId::new(frame), VcpuId::new(0))
                .expect("workload advances only while the VM runs");
        }
        Progress::ops_only(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_hypervisor::cpuid::CpuidPolicy;
    use here_hypervisor::host::Hypervisor;
    use here_hypervisor::vm::VmConfig;
    use here_hypervisor::XenHypervisor;
    use here_sim_core::rate::ByteSize;

    #[test]
    fn idle_dirtying_scales_with_memory_size() {
        let mut xen = XenHypervisor::new(ByteSize::from_gib(32));
        let mut counts = Vec::new();
        for gib in [1u64, 4] {
            let cfg = VmConfig::new("idle", ByteSize::from_gib(gib), 2)
                .unwrap()
                .with_cpuid(CpuidPolicy::xen_default());
            let id = xen.create_vm(cfg).unwrap();
            xen.vm_mut(id).unwrap().dirty_mut().enable_logging();
            let vm = xen.vm_mut(id).unwrap();
            let mut idle = IdleGuest::new();
            let mut rng = SimRng::seed_from(3);
            idle.advance(SimTime::ZERO, SimDuration::from_secs(8), vm, &mut rng);
            counts.push(vm.dirty().bitmap().count());
        }
        // 4 GiB idles ~4x the dirty pages of 1 GiB (minus collisions).
        assert!(counts[1] > counts[0] * 3, "counts {counts:?}");
        assert!(
            counts[0] > 80 && counts[0] < 250,
            "1 GiB count {}",
            counts[0]
        );
    }
}
