//! The workload abstraction: guest applications that dirty memory, complete
//! operations, and emit network traffic.
//!
//! A [`Workload`] is advanced over slices of *virtual* time while its VM is
//! running; it mutates guest memory through the VM's normal write path (so
//! dirty-page tracking sees exactly what a real guest would produce),
//! reports application-level progress (the paper's throughput metrics), and
//! emits outgoing packets (which replication buffers until commit).

use std::fmt;

use here_hypervisor::vm::Vm;
use here_sim_core::rate::ByteSize;
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};

/// An outgoing packet emitted during an advance slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Emission {
    /// Offset of the emission within the slice.
    pub offset: SimDuration,
    /// Payload size.
    pub size: ByteSize,
}

/// Progress made by a workload over one advance slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Progress {
    /// Application operations completed (fractional: slices rarely align
    /// with operation boundaries).
    pub ops: f64,
    /// Outgoing packets emitted during the slice, in time order.
    pub emissions: Vec<Emission>,
}

impl Progress {
    /// Progress with `ops` operations and no emissions.
    pub fn ops_only(ops: f64) -> Self {
        Progress {
            ops,
            emissions: Vec::new(),
        }
    }

    /// Merges another slice's progress into this one.
    pub fn merge(&mut self, other: Progress) {
        self.ops += other.ops;
        self.emissions.extend(other.emissions);
    }
}

/// A guest application driven in virtual time.
///
/// # Contract
///
/// The replication engine only calls [`Workload::advance`] while the VM is
/// [`Running`](here_hypervisor::vm::RunState::Running); implementations may
/// therefore treat guest-write failures as bugs.
pub trait Workload: fmt::Debug {
    /// Short name for reports ("memstress-30", "ycsb-a", ...).
    fn name(&self) -> &str;

    /// Runs the workload for `dt` of virtual time starting at `now`,
    /// applying page writes to `vm` and returning progress.
    fn advance(&mut self, now: SimTime, dt: SimDuration, vm: &mut Vm, rng: &mut SimRng)
        -> Progress;

    /// `true` once the workload has completed a bounded run (e.g. YCSB's
    /// 4 M operations). Unbounded workloads always return `false`.
    fn is_done(&self) -> bool {
        false
    }

    /// Restarts the workload from its initial state, keeping warmed caches
    /// (stores stay loaded, phase schedules replay). The engine calls this
    /// when a warmup phase ends so measurement starts on a fresh run.
    fn reset(&mut self) {}
}

/// Writes `count` pages sequentially starting at `start` (wrapping within
/// `[base, base + len)`), attributing writes round-robin across vCPUs.
/// Returns the next cursor position. The engine-facing workloads use this
/// for sweep-style dirtying (memstress, lbm, stencil kernels).
///
/// The number of *distinct* pages marked is capped at `len` — extra laps
/// would re-dirty the same pages without changing the dirty set, so they
/// are skipped for speed, which keeps replica consistency intact (the final
/// page versions are what get transferred).
///
/// The cursors are written as [`Vm::guest_write_run`] runs that neither
/// wrap the region nor cross a multiple of 64 (where the vCPU changes);
/// every version, dirty bit, ring entry and counter ends as one
/// [`Vm::guest_write`] per cursor would leave it
/// (`sweep_runs_are_the_per_page_loop`).
///
/// # Panics
///
/// Panics if `len` is zero or the region exceeds the VM's address space.
pub fn write_sweep(vm: &mut Vm, base: u64, len: u64, start: u64, count: u64, vcpus: u32) -> u64 {
    assert!(len > 0, "sweep region must be non-empty");
    let end = start + count.min(len);
    let mut cursor = start;
    while cursor < end {
        let run = (end - cursor).min(len - cursor % len).min(64 - cursor % 64);
        let vcpu = here_hypervisor::VcpuId::new(((cursor / 64) % vcpus as u64) as u32);
        vm.guest_write_run(here_hypervisor::PageId::new(base + cursor % len), run, vcpu)
            .expect("workload advances only while the VM runs");
        cursor += run;
    }
    (start + count) % len
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_hypervisor::cpuid::CpuidPolicy;
    use here_hypervisor::host::Hypervisor;
    use here_hypervisor::vm::VmConfig;
    use here_hypervisor::XenHypervisor;

    fn test_vm() -> (XenHypervisor, here_hypervisor::VmId) {
        let mut xen = XenHypervisor::new(ByteSize::from_gib(12));
        let cfg = VmConfig::new("w", ByteSize::from_mib(1), 4)
            .unwrap()
            .with_cpuid(CpuidPolicy::xen_default());
        let id = xen.create_vm(cfg).unwrap();
        (xen, id)
    }

    #[test]
    fn progress_merge_accumulates() {
        let mut a = Progress::ops_only(2.5);
        a.merge(Progress {
            ops: 1.5,
            emissions: vec![Emission {
                offset: SimDuration::from_millis(1),
                size: ByteSize::from_bytes(64),
            }],
        });
        assert_eq!(a.ops, 4.0);
        assert_eq!(a.emissions.len(), 1);
    }

    #[test]
    fn sweep_wraps_and_caps_distinct_pages() {
        let (mut xen, id) = test_vm();
        xen.vm_mut(id).unwrap().dirty_mut().enable_logging();
        let vm = xen.vm_mut(id).unwrap();
        // Region of 16 pages; write 40 pages worth: all 16 distinct frames
        // dirty, cursor ends at (0 + 40) % 16 = 8.
        let next = write_sweep(vm, 4, 16, 0, 40, 4);
        assert_eq!(next, 8);
        assert_eq!(vm.dirty().bitmap().count(), 16);
        // All dirty frames are within the region.
        assert!(vm
            .dirty()
            .bitmap()
            .peek()
            .iter()
            .all(|p| (4..20).contains(&p.frame())));
    }

    /// The per-page sweep [`write_sweep`] replaced: the reference its runs
    /// must match.
    fn write_sweep_per_page(
        vm: &mut Vm,
        base: u64,
        len: u64,
        start: u64,
        count: u64,
        vcpus: u32,
    ) -> u64 {
        assert!(len > 0, "sweep region must be non-empty");
        let effective = count.min(len);
        for cursor in start..start + effective {
            let frame = base + (cursor % len);
            let vcpu = here_hypervisor::VcpuId::new(((cursor / 64) % vcpus as u64) as u32);
            vm.guest_write(here_hypervisor::PageId::new(frame), vcpu)
                .expect("workload advances only while the VM runs");
        }
        (start + count) % len
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Run-wise [`write_sweep`] leaves every page version and writer,
        /// `touched_pages`, and bitmap word and count exactly as the
        /// per-page loop does, and returns the same cursor — over pages
        /// earlier writes already dirtied, with logging on or off.
        #[test]
        fn sweep_runs_are_the_per_page_loop(
            mib in 1u64..4,
            vm_vcpus in 1u32..5,
            base in 0u64..300,
            len in 1u64..700,
            start in 0u64..5000,
            count in 0u64..1500,
            sweep_vcpus in 1u32..6,
            prefill in 0u64..200,
            logging in proptest::prelude::any::<bool>(),
        ) {
            let mut xen = XenHypervisor::new(ByteSize::from_gib(12));
            let cfg = VmConfig::new("w", ByteSize::from_mib(mib), vm_vcpus).unwrap();
            let id = xen.create_vm(cfg).unwrap();
            let mut runs = xen.vm(id).unwrap().clone();
            let pages = runs.memory().num_pages();
            let base = base % pages;
            let len = 1 + (len - 1) % (pages - base);
            if logging {
                runs.dirty_mut().enable_logging();
            }
            for i in 0..prefill {
                let vcpu = here_hypervisor::VcpuId::new(i as u32 % vm_vcpus);
                runs.guest_write(here_hypervisor::PageId::new(i * 7 % pages), vcpu).unwrap();
            }
            let mut per_page = runs.clone();
            let got = write_sweep(&mut runs, base, len, start, count, sweep_vcpus);
            let want = write_sweep_per_page(&mut per_page, base, len, start, count, sweep_vcpus);
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert!(runs.memory() == per_page.memory(), "versions diverged");
            proptest::prop_assert_eq!(
                runs.memory().touched_pages(),
                per_page.memory().touched_pages()
            );
            proptest::prop_assert!(runs.dirty() == per_page.dirty(), "dirty tracking diverged");
        }
    }

    #[test]
    fn sweep_attributes_writes_across_vcpus() {
        let (mut xen, id) = test_vm();
        let vm = xen.vm_mut(id).unwrap();
        vm.dirty_mut().enable_logging();
        write_sweep(vm, 0, 256, 0, 256, 4);
        // Each 64-page stretch of the sweep is written by the next vCPU.
        let writers: Vec<u16> = vm
            .memory()
            .touched_iter()
            .map(|(_, rec)| rec.last_writer)
            .collect();
        let expected: Vec<u16> = (0..256).map(|f| f / 64).collect();
        assert_eq!(writers, expected, "all four vCPUs should have written");
    }
}
