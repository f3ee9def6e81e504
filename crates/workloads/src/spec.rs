//! SPEC CPU 2006-like compute kernels.
//!
//! The paper selects four SPEC CPU 2006 benchmarks (§8.6): **gcc**
//! (compiler: pointer-chasing over IR graphs), **cactuBSSN** (numerical
//! relativity: 3-D stencil sweeps), **namd** (molecular dynamics: particle
//! force arrays), and **lbm** (lattice-Boltzmann: whole-array streaming).
//! What replication sees of each is its *memory footprint*, its *dirty
//! rate*, and its *access pattern* (sequential sweep vs. random scatter);
//! the kernels here reproduce those profiles, with throughput reported as a
//! SPEC-style rate (ops/sec).

use here_hypervisor::vm::Vm;
use here_hypervisor::{PageId, VcpuId};
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};

use crate::traits::{write_sweep, Progress, Workload};

/// The four benchmarks the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SpecBenchmark {
    Gcc,
    CactuBssn,
    Namd,
    Lbm,
}

/// All benchmarks, in paper order.
pub const ALL_BENCHMARKS: [SpecBenchmark; 4] = [
    SpecBenchmark::Gcc,
    SpecBenchmark::CactuBssn,
    SpecBenchmark::Namd,
    SpecBenchmark::Lbm,
];

/// The static profile of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecProfile {
    /// Short name.
    pub name: &'static str,
    /// Resident working set in MiB.
    pub footprint_mib: u64,
    /// Baseline rate in operations per second on the unreplicated VM.
    pub baseline_rate: f64,
    /// Pages dirtied per second of guest execution.
    pub dirty_pages_per_sec: u64,
    /// Fraction of dirtying that is random scatter (vs. sequential sweep).
    pub random_fraction: f64,
}

impl SpecBenchmark {
    /// The benchmark's profile.
    pub fn profile(self) -> SpecProfile {
        match self {
            // Footprints are the *aggregate* of the SPECrate-style copies
            // the paper's "Rate (Ops/Sec)" metric implies (multiple copies
            // of each benchmark run concurrently on the 4-vCPU VM).
            SpecBenchmark::Gcc => SpecProfile {
                name: "gcc",
                footprint_mib: 1800,
                baseline_rate: 2.2,
                dirty_pages_per_sec: 180_000,
                random_fraction: 0.70,
            },
            SpecBenchmark::CactuBssn => SpecProfile {
                name: "cactuBSSN",
                footprint_mib: 1400,
                baseline_rate: 1.4,
                dirty_pages_per_sec: 600_000,
                random_fraction: 0.10,
            },
            SpecBenchmark::Namd => SpecProfile {
                name: "namd",
                footprint_mib: 1000,
                baseline_rate: 5.6,
                dirty_pages_per_sec: 240_000,
                random_fraction: 0.35,
            },
            SpecBenchmark::Lbm => SpecProfile {
                name: "lbm",
                footprint_mib: 1700,
                baseline_rate: 3.1,
                dirty_pages_per_sec: 1_000_000,
                random_fraction: 0.05,
            },
        }
    }

    /// Short name.
    pub fn name(self) -> &'static str {
        self.profile().name
    }
}

/// A running SPEC-like kernel.
///
/// # Examples
///
/// ```
/// use here_workloads::spec::{SpecBenchmark, SpecKernel};
/// use here_workloads::traits::Workload;
///
/// let k = SpecKernel::new(SpecBenchmark::Lbm);
/// assert_eq!(k.name(), "lbm");
/// ```
#[derive(Debug, Clone)]
pub struct SpecKernel {
    benchmark: SpecBenchmark,
    profile: SpecProfile,
    cursor: u64,
    write_carry: f64,
}

impl SpecKernel {
    /// Creates a kernel for `benchmark`.
    pub fn new(benchmark: SpecBenchmark) -> Self {
        SpecKernel {
            benchmark,
            profile: benchmark.profile(),
            cursor: 0,
            write_carry: 0.0,
        }
    }

    /// Which benchmark this is.
    pub fn benchmark(&self) -> SpecBenchmark {
        self.benchmark
    }

    /// The profile in effect.
    pub fn profile(&self) -> SpecProfile {
        self.profile
    }

    fn footprint_pages(&self, vm: &Vm) -> u64 {
        let want = self.profile.footprint_mib * 1024 * 1024 / here_hypervisor::PAGE_SIZE;
        want.min(vm.memory().num_pages()).max(1)
    }
}

impl Workload for SpecKernel {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn advance(
        &mut self,
        _now: SimTime,
        dt: SimDuration,
        vm: &mut Vm,
        rng: &mut SimRng,
    ) -> Progress {
        let secs = dt.as_secs_f64();
        let want = self.profile.dirty_pages_per_sec as f64 * secs + self.write_carry;
        let writes = want as u64;
        self.write_carry = want - writes as f64;

        let pages = self.footprint_pages(vm);
        let vcpus = vm.config().vcpus;
        let random_writes = ((writes as f64 * self.profile.random_fraction) as u64).min(pages * 2);
        let seq_writes = writes.saturating_sub(random_writes);
        if seq_writes > 0 {
            self.cursor = write_sweep(vm, 0, pages, self.cursor, seq_writes, vcpus);
        }
        for i in 0..random_writes {
            let frame = rng.below(pages);
            let vcpu = VcpuId::new((i % vcpus as u64) as u32);
            vm.guest_write(PageId::new(frame), vcpu)
                .expect("workload advances only while the VM runs");
        }
        Progress::ops_only(self.profile.baseline_rate * secs)
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

    fn setup() -> (XenHypervisor, here_hypervisor::VmId) {
        let mut xen = XenHypervisor::new(ByteSize::from_gib(12));
        let cfg = VmConfig::new("spec", ByteSize::from_mib(64), 4)
            .unwrap()
            .with_cpuid(CpuidPolicy::xen_default());
        let id = xen.create_vm(cfg).unwrap();
        xen.vm_mut(id).unwrap().dirty_mut().enable_logging();
        (xen, id)
    }

    #[test]
    fn profiles_are_distinct_and_sane() {
        let mut names = std::collections::HashSet::new();
        for b in ALL_BENCHMARKS {
            let p = b.profile();
            assert!(names.insert(p.name));
            assert!(p.baseline_rate > 0.0);
            assert!((0.0..=1.0).contains(&p.random_fraction));
        }
        // lbm dirties fastest; gcc is the most random.
        assert!(
            SpecBenchmark::Lbm.profile().dirty_pages_per_sec
                > SpecBenchmark::Gcc.profile().dirty_pages_per_sec
        );
        assert!(
            SpecBenchmark::Gcc.profile().random_fraction
                > SpecBenchmark::CactuBssn.profile().random_fraction
        );
    }

    #[test]
    fn ops_accrue_at_the_baseline_rate() {
        let (mut xen, id) = setup();
        let mut k = SpecKernel::new(SpecBenchmark::Namd);
        let mut rng = SimRng::seed_from(1);
        let vm = xen.vm_mut(id).unwrap();
        let p = k.advance(SimTime::ZERO, SimDuration::from_secs(10), vm, &mut rng);
        assert!((p.ops - 56.0).abs() < 0.01);
    }

    #[test]
    fn footprint_is_clamped_to_vm_memory() {
        let (mut xen, id) = setup();
        // VM has 64 MiB = 16384 pages; lbm wants far more.
        let mut k = SpecKernel::new(SpecBenchmark::Lbm);
        let mut rng = SimRng::seed_from(1);
        let vm = xen.vm_mut(id).unwrap();
        k.advance(SimTime::ZERO, SimDuration::from_secs(2), vm, &mut rng);
        assert!(vm.dirty().bitmap().count() <= vm.memory().num_pages());
        assert!(
            vm.dirty().bitmap().count() > 10_000,
            "lbm should dirty most of the VM"
        );
    }

    #[test]
    fn sequential_kernels_produce_contiguous_dirty_runs() {
        let (mut xen, id) = setup();
        let mut k = SpecKernel::new(SpecBenchmark::CactuBssn);
        let mut rng = SimRng::seed_from(1);
        let vm = xen.vm_mut(id).unwrap();
        // A slice that covers ~1/4 of the footprint sweep.
        k.advance(SimTime::ZERO, SimDuration::from_millis(25), vm, &mut rng);
        let dirty = vm.dirty().bitmap().peek();
        assert!(!dirty.is_empty());
        // Mostly sequential: >= 80 % of dirty frames have a dirty successor
        // or predecessor.
        let set: std::collections::HashSet<u64> = dirty.iter().map(|p| p.frame()).collect();
        let adjacent = dirty
            .iter()
            .filter(|p| {
                set.contains(&(p.frame() + 1))
                    || p.frame().checked_sub(1).is_some_and(|f| set.contains(&f))
            })
            .count();
        assert!(adjacent as f64 / dirty.len() as f64 > 0.8);
    }
}
