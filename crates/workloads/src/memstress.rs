//! The paper's memory microbenchmark: a write-intensive sweep over a
//! configurable percentage of guest memory.
//!
//! "We implemented a benchmark that performs random memory operations to
//! artificially load the migration process" (§8.3); its single knob is the
//! fraction of guest memory it keeps rewriting. It drives Figs. 5, 6
//! (right), 7, 8 and 9.

use here_hypervisor::vm::Vm;
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};

use crate::traits::{write_sweep, Progress, Workload};

/// Default write throughput of the microbenchmark: distinct pages dirtied
/// per second of guest execution. Calibrated so the working set is fully
/// re-dirtied within each checkpoint period of the Fig. 8/9 configurations
/// (checkpoint transfer then scales with memory size, as measured).
/// Migration experiments (Fig. 6) override this with a lower rate — see
/// the harness — because live migration only converges when the distinct
/// dirty rate stays below the copy rate.
pub const DEFAULT_PAGES_PER_SEC: u64 = 600_000;

/// The write-intensive memory microbenchmark.
///
/// # Examples
///
/// ```
/// use here_workloads::memstress::MemStress;
/// use here_workloads::traits::Workload;
///
/// let w = MemStress::with_percent(30);
/// assert_eq!(w.name(), "memstress-30");
/// ```
#[derive(Debug, Clone)]
pub struct MemStress {
    name: String,
    percent: u8,
    pages_per_sec: u64,
    cursor: u64,
    carry: f64,
}

impl MemStress {
    /// A microbenchmark writing over `percent` of guest memory at the
    /// default rate.
    ///
    /// # Panics
    ///
    /// Panics if `percent` is 0 or greater than 100.
    pub fn with_percent(percent: u8) -> Self {
        assert!(
            (1..=100).contains(&percent),
            "memory load percent must be in 1..=100, got {percent}"
        );
        MemStress {
            name: format!("memstress-{percent}"),
            percent,
            pages_per_sec: DEFAULT_PAGES_PER_SEC,
            cursor: 0,
            carry: 0.0,
        }
    }

    /// Overrides the write rate (pages per second).
    ///
    /// # Panics
    ///
    /// Panics if `pages_per_sec` is zero.
    pub fn with_rate(mut self, pages_per_sec: u64) -> Self {
        assert!(pages_per_sec > 0, "write rate must be positive");
        self.pages_per_sec = pages_per_sec;
        self
    }

    /// The configured memory percentage.
    pub fn percent(&self) -> u8 {
        self.percent
    }

    /// Changes the memory percentage mid-run (used by the phased workload
    /// of Fig. 9).
    ///
    /// # Panics
    ///
    /// Panics if `percent` is 0 or greater than 100.
    pub fn set_percent(&mut self, percent: u8) {
        assert!(
            (1..=100).contains(&percent),
            "memory load percent must be in 1..=100, got {percent}"
        );
        self.percent = percent;
        self.name = format!("memstress-{percent}");
        self.cursor = 0;
    }

    fn working_set_pages(&self, vm: &Vm) -> u64 {
        (vm.memory().num_pages() * self.percent as u64 / 100).max(1)
    }
}

impl Workload for MemStress {
    fn name(&self) -> &str {
        &self.name
    }

    fn advance(
        &mut self,
        _now: SimTime,
        dt: SimDuration,
        vm: &mut Vm,
        _rng: &mut SimRng,
    ) -> Progress {
        let want = self.pages_per_sec as f64 * dt.as_secs_f64() + self.carry;
        let writes = want as u64;
        self.carry = want - writes as f64;
        if writes == 0 {
            return Progress::ops_only(0.0);
        }
        let len = self.working_set_pages(vm);
        self.cursor = write_sweep(vm, 0, len, self.cursor, writes, vm.config().vcpus);
        // One "operation" of the microbenchmark is one page write.
        Progress::ops_only(writes as f64)
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

    fn setup(mem_mib: u64) -> (XenHypervisor, here_hypervisor::VmId) {
        let mut xen = XenHypervisor::new(ByteSize::from_gib(12));
        let cfg = VmConfig::new("m", ByteSize::from_mib(mem_mib), 4)
            .unwrap()
            .with_cpuid(CpuidPolicy::xen_default());
        let id = xen.create_vm(cfg).unwrap();
        xen.vm_mut(id).unwrap().dirty_mut().enable_logging();
        (xen, id)
    }

    #[test]
    #[should_panic(expected = "percent must be in")]
    fn zero_percent_is_rejected() {
        MemStress::with_percent(0);
    }

    #[test]
    fn dirty_set_is_bounded_by_working_set() {
        let (mut xen, id) = setup(8); // 2048 pages
        let mut w = MemStress::with_percent(25).with_rate(1_000_000);
        let mut rng = SimRng::seed_from(1);
        let vm = xen.vm_mut(id).unwrap();
        // A long slice writes far more than the 512-page working set.
        let p = w.advance(SimTime::ZERO, SimDuration::from_secs(1), vm, &mut rng);
        assert!(p.ops >= 999_999.0);
        assert_eq!(vm.dirty().bitmap().count(), 512);
    }

    #[test]
    fn small_slices_accumulate_fractional_writes() {
        let (mut xen, id) = setup(8);
        let mut w = MemStress::with_percent(50).with_rate(1000);
        let mut rng = SimRng::seed_from(1);
        let vm = xen.vm_mut(id).unwrap();
        let mut total = 0.0;
        for _ in 0..100 {
            // 100 slices of 100 us = 10 ms total at 1000 pages/s = 10 pages.
            total += w
                .advance(SimTime::ZERO, SimDuration::from_micros(100), vm, &mut rng)
                .ops;
        }
        assert!((total - 10.0).abs() <= 1.0, "got {total}");
    }

    #[test]
    fn set_percent_grows_the_sweep_region() {
        let (mut xen, id) = setup(8);
        let mut w = MemStress::with_percent(10).with_rate(10_000_000);
        let mut rng = SimRng::seed_from(1);
        let vm = xen.vm_mut(id).unwrap();
        w.advance(SimTime::ZERO, SimDuration::from_secs(1), vm, &mut rng);
        let small = vm.dirty().bitmap().count();
        w.set_percent(80);
        w.advance(SimTime::ZERO, SimDuration::from_secs(1), vm, &mut rng);
        let large = vm.dirty().bitmap().count();
        assert!(large > small * 4, "small={small}, large={large}");
        assert_eq!(w.name(), "memstress-80");
    }

    #[test]
    fn never_done() {
        let w = MemStress::with_percent(10);
        assert!(!w.is_done());
    }
}
