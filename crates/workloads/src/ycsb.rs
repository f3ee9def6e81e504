//! The YCSB benchmark driver (workloads A–F) over the in-memory KV store.
//!
//! Mirrors the paper's configuration (§8.6): "1 million records and
//! 4 million operations" per run, with the six standard core workloads:
//!
//! | Workload | Mix | Distribution |
//! |---|---|---|
//! | A (update heavy) | 50 % read / 50 % update | scrambled Zipfian |
//! | B (read mostly) | 95 % read / 5 % update | scrambled Zipfian |
//! | C (read only) | 100 % read | scrambled Zipfian |
//! | D (read latest) | 95 % read / 5 % insert | latest |
//! | E (short ranges) | 95 % scan / 5 % insert | scrambled Zipfian |
//! | F (read-modify-write) | 50 % read / 50 % RMW | scrambled Zipfian |

use std::fmt;

use here_hypervisor::vm::Vm;
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};

use crate::kv::KvStore;
use crate::traits::{write_sweep, Progress, Workload};
use crate::zipf::{KeyChooser, LatestChooser, ScrambledZipfianChooser};

/// The six core YCSB workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum YcsbMix {
    A,
    B,
    C,
    D,
    E,
    F,
}

/// All mixes, in paper order.
pub const ALL_MIXES: [YcsbMix; 6] = [
    YcsbMix::A,
    YcsbMix::B,
    YcsbMix::C,
    YcsbMix::D,
    YcsbMix::E,
    YcsbMix::F,
];

impl YcsbMix {
    /// Lowercase letter label.
    pub fn label(self) -> &'static str {
        match self {
            YcsbMix::A => "a",
            YcsbMix::B => "b",
            YcsbMix::C => "c",
            YcsbMix::D => "d",
            YcsbMix::E => "e",
            YcsbMix::F => "f",
        }
    }

    /// (read, update, insert, scan, rmw) proportions.
    fn proportions(self) -> [f64; 5] {
        match self {
            YcsbMix::A => [0.50, 0.50, 0.0, 0.0, 0.0],
            YcsbMix::B => [0.95, 0.05, 0.0, 0.0, 0.0],
            YcsbMix::C => [1.0, 0.0, 0.0, 0.0, 0.0],
            YcsbMix::D => [0.95, 0.0, 0.05, 0.0, 0.0],
            YcsbMix::E => [0.0, 0.0, 0.05, 0.95, 0.0],
            YcsbMix::F => [0.50, 0.0, 0.0, 0.0, 0.50],
        }
    }
}

impl fmt::Display for YcsbMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload {}", self.label().to_uppercase())
    }
}

/// Pages of client-heap churn per operation. The paper runs the *whole*
/// YCSB suite — Java client included — inside the protected VM (§8.6:
/// "YCSB benchmark suite running on a single VM"), so garbage-collector
/// churn over the client heap dominates the VM's dirty-page pressure. Each
/// operation allocates result/request objects that the collector later
/// rewrites.
pub const GC_PAGES_PER_OP: u64 = 8;

/// Client heap pages per database record (≈ 3 GiB of heap for the paper's
/// 1 M-record runs).
pub const HEAP_PAGES_PER_RECORD: f64 = 0.786;

/// Per-operation CPU service times (per vCPU), calibrated so that the
/// baseline (no replication) throughputs land in the paper's Fig. 11 range
/// (~42 kops/s for Workload A on 4 vCPUs).
mod service_us {
    pub const READ: f64 = 70.0;
    pub const UPDATE: f64 = 110.0;
    pub const INSERT: f64 = 120.0;
    pub const SCAN: f64 = 400.0;
    pub const RMW: f64 = 180.0;
}

/// Configuration of one YCSB run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YcsbSpec {
    /// Which core workload.
    pub mix: YcsbMix,
    /// Records loaded before the run.
    pub records: u64,
    /// Operations the run executes.
    pub operations: u64,
}

impl YcsbSpec {
    /// The paper's configuration: 1 M records, 4 M operations.
    pub fn paper(mix: YcsbMix) -> Self {
        YcsbSpec {
            mix,
            records: 1_000_000,
            operations: 4_000_000,
        }
    }

    /// A scaled-down configuration that preserves the replication
    /// dynamics: the client heap stays large enough that the dynamic
    /// manager's equilibrium period sits comfortably above its adjustment
    /// step, as at paper scale.
    pub fn small(mix: YcsbMix) -> Self {
        YcsbSpec {
            mix,
            records: 300_000,
            operations: 1_500_000,
        }
    }

    /// Mean CPU service time per operation of this mix, in microseconds.
    pub fn mean_service_us(&self) -> f64 {
        let [r, u, i, s, f] = self.mix.proportions();
        r * service_us::READ
            + u * service_us::UPDATE
            + i * service_us::INSERT
            + s * service_us::SCAN
            + f * service_us::RMW
    }

    /// The throughput an unreplicated VM with `vcpus` vCPUs sustains, in
    /// operations per second.
    pub fn baseline_ops_per_sec(&self, vcpus: u32) -> f64 {
        vcpus as f64 * 1e6 / self.mean_service_us()
    }
}

/// The YCSB driver.
///
/// # Examples
///
/// ```
/// use here_workloads::ycsb::{Ycsb, YcsbMix, YcsbSpec};
/// use here_workloads::traits::Workload;
///
/// let driver = Ycsb::new(YcsbSpec::small(YcsbMix::A)).unwrap();
/// assert_eq!(driver.name(), "ycsb-a");
/// ```
#[derive(Debug)]
pub struct Ycsb {
    name: String,
    spec: YcsbSpec,
    store: KvStore,
    chooser: Box<dyn KeyChooser>,
    completed: u64,
    cpu_credit_us: f64,
    heap_base: u64,
    heap_pages: u64,
    gc_cursor: u64,
}

impl Ycsb {
    /// Creates a driver for `spec`.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::kv::KvLayoutError`] if the record count is
    /// invalid.
    pub fn new(spec: YcsbSpec) -> Result<Self, crate::kv::KvLayoutError> {
        let store = KvStore::new(spec.records)?;
        let chooser: Box<dyn KeyChooser> = match spec.mix {
            YcsbMix::D => Box::new(LatestChooser::new(spec.records)),
            _ => Box::new(ScrambledZipfianChooser::new(spec.records)),
        };
        let heap_base = store.required_pages();
        let heap_pages = ((spec.records as f64 * HEAP_PAGES_PER_RECORD) as u64).max(64);
        Ok(Ycsb {
            name: format!("ycsb-{}", spec.mix.label()),
            spec,
            store,
            chooser,
            completed: 0,
            cpu_credit_us: 0.0,
            heap_base,
            heap_pages,
            gc_cursor: 0,
        })
    }

    /// The run configuration.
    pub fn spec(&self) -> YcsbSpec {
        self.spec
    }

    /// Operations completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The backing store (for layout/statistics inspection).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Guest pages the store *plus the in-VM client heap* need; callers
    /// size the VM accordingly.
    pub fn required_pages(&self) -> u64 {
        self.heap_base + self.heap_pages
    }

    /// Client heap pages churned by the garbage collector.
    pub fn heap_pages(&self) -> u64 {
        self.heap_pages
    }

    /// Runs one operation and returns its CPU service time. Every op draws
    /// the dice and then a key, in that order; only the update and
    /// read-modify-write arms use the key, so the others
    /// [`skip`](KeyChooser::skip) it, which keeps the RNG stream (and so
    /// every later key) as if it had been computed.
    fn run_one_op(&mut self, vm: &mut Vm, rng: &mut SimRng) -> f64 {
        let [r, u, i, s, _f] = self.spec.mix.proportions();
        let dice = rng.unit_f64();
        if dice < r {
            self.chooser.skip(rng);
            self.store.read(vm);
            service_us::READ
        } else if dice < r + u {
            let key = self.chooser.next_key(rng);
            self.store.update(vm, key);
            service_us::UPDATE
        } else if dice < r + u + i {
            self.chooser.skip(rng);
            self.store.insert(vm);
            self.chooser.grow(self.store.record_count());
            service_us::INSERT
        } else if dice < r + u + i + s {
            self.chooser.skip(rng);
            let len = rng.range_inclusive(1, 100);
            self.store.scan(vm, len);
            service_us::SCAN
        } else {
            let key = self.chooser.next_key(rng);
            self.store.read_modify_write(vm, key);
            service_us::RMW
        }
    }
}

impl Workload for Ycsb {
    fn name(&self) -> &str {
        &self.name
    }

    fn advance(
        &mut self,
        _now: SimTime,
        dt: SimDuration,
        vm: &mut Vm,
        rng: &mut SimRng,
    ) -> Progress {
        self.cpu_credit_us += dt.as_secs_f64() * 1e6 * vm.config().vcpus as f64;
        let mut done_this_slice = 0u64;
        while self.cpu_credit_us > 0.0 && self.completed < self.spec.operations {
            let cost = self.run_one_op(vm, rng);
            self.cpu_credit_us -= cost;
            self.completed += 1;
            done_this_slice += 1;
        }
        // The in-VM client's garbage collector churns the heap in
        // proportion to the operations served.
        if done_this_slice > 0 {
            self.gc_cursor = write_sweep(
                vm,
                self.heap_base,
                self.heap_pages,
                self.gc_cursor,
                done_this_slice * GC_PAGES_PER_OP,
                vm.config().vcpus,
            );
        }
        Progress::ops_only(done_this_slice as f64)
    }

    fn is_done(&self) -> bool {
        self.completed >= self.spec.operations
    }

    fn reset(&mut self) {
        self.completed = 0;
        self.cpu_credit_us = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_hypervisor::cpuid::CpuidPolicy;
    use here_hypervisor::host::Hypervisor;
    use here_hypervisor::memory::PAGE_SIZE;
    use here_hypervisor::vm::VmConfig;
    use here_hypervisor::XenHypervisor;
    use here_sim_core::rate::ByteSize;

    fn setup(spec: YcsbSpec) -> (XenHypervisor, here_hypervisor::VmId, Ycsb) {
        let driver = Ycsb::new(spec).unwrap();
        let mem_mib = (driver.required_pages() * PAGE_SIZE).div_ceil(1024 * 1024) + 4;
        let mut xen = XenHypervisor::new(ByteSize::from_gib(12));
        let cfg = VmConfig::new("ycsb", ByteSize::from_mib(mem_mib), 4)
            .unwrap()
            .with_cpuid(CpuidPolicy::xen_default());
        let id = xen.create_vm(cfg).unwrap();
        xen.vm_mut(id).unwrap().dirty_mut().enable_logging();
        (xen, id, driver)
    }

    /// `run_one_op` as it was before reads, inserts and scans skipped
    /// their key: every op computes one. The reference the skipping
    /// driver must match page for page and draw for draw.
    fn run_one_op_computing_every_key(d: &mut Ycsb, vm: &mut Vm, rng: &mut SimRng) -> f64 {
        let [r, u, i, s, _f] = d.spec.mix.proportions();
        let dice = rng.unit_f64();
        let key = d.chooser.next_key(rng);
        if dice < r {
            d.store.read(vm);
            service_us::READ
        } else if dice < r + u {
            d.store.update(vm, key);
            service_us::UPDATE
        } else if dice < r + u + i {
            d.store.insert(vm);
            d.chooser.grow(d.store.record_count());
            service_us::INSERT
        } else if dice < r + u + i + s {
            let len = rng.range_inclusive(1, 100);
            d.store.scan(vm, len);
            service_us::SCAN
        } else {
            d.store.read_modify_write(vm, key);
            service_us::RMW
        }
    }

    #[test]
    fn skipped_keys_move_no_page_and_no_draw() {
        for mix in ALL_MIXES {
            let spec = YcsbSpec {
                mix,
                records: 2000,
                operations: 20_000,
            };
            let (mut xen, id, mut driver) = setup(spec);
            let (mut ref_xen, ref_id, mut reference) = setup(spec);
            let (mut rng, mut ref_rng) = (SimRng::seed_from(13), SimRng::seed_from(13));
            let vm = xen.vm_mut(id).unwrap();
            let ref_vm = ref_xen.vm_mut(ref_id).unwrap();
            for op in 0..spec.operations {
                let cost = driver.run_one_op(vm, &mut rng);
                let want = run_one_op_computing_every_key(&mut reference, ref_vm, &mut ref_rng);
                assert_eq!(cost, want, "{mix} op {op}");
            }
            assert!(vm.dirty().bitmap().count() > 0 || mix == YcsbMix::C);
            assert_eq!(vm.dirty(), ref_vm.dirty(), "{mix}");
            assert_eq!(vm.memory().records(), ref_vm.memory().records(), "{mix}");
            assert_eq!(driver.store().stats(), reference.store().stats(), "{mix}");
            assert_eq!(rng.next_u64(), ref_rng.next_u64(), "{mix}");
        }
    }

    #[test]
    fn baseline_throughput_matches_calibration() {
        let a = YcsbSpec::paper(YcsbMix::A);
        let tput = a.baseline_ops_per_sec(4);
        // 4 vCPUs / 90 us mean service = ~44.4 kops/s (paper: 42.8 kops/s).
        assert!((40_000.0..50_000.0).contains(&tput), "got {tput}");
        // E is dominated by scans and much slower.
        let e = YcsbSpec::paper(YcsbMix::E).baseline_ops_per_sec(4);
        assert!(e < 12_000.0, "got {e}");
    }

    #[test]
    fn driver_completes_the_configured_operations() {
        let (mut xen, id, mut driver) = setup(YcsbSpec {
            mix: YcsbMix::A,
            records: 1000,
            operations: 2000,
        });
        let mut rng = SimRng::seed_from(11);
        let vm = xen.vm_mut(id).unwrap();
        let mut total = 0.0;
        let mut guard = 0;
        while !driver.is_done() {
            total += driver
                .advance(SimTime::ZERO, SimDuration::from_millis(10), vm, &mut rng)
                .ops;
            guard += 1;
            assert!(guard < 10_000, "driver failed to converge");
        }
        assert_eq!(total as u64, 2000);
        assert_eq!(driver.completed(), 2000);
        // A is 50 % updates: the store must have seen roughly half.
        let updates = driver.store().stats().updates;
        assert!((800..1200).contains(&updates), "updates {updates}");
    }

    #[test]
    fn read_only_mix_dirties_only_the_client_heap() {
        let (mut xen, id, mut driver) = setup(YcsbSpec {
            mix: YcsbMix::C,
            records: 1000,
            operations: 1000,
        });
        let heap_base = driver.store().required_pages();
        let mut rng = SimRng::seed_from(11);
        let vm = xen.vm_mut(id).unwrap();
        while !driver.is_done() {
            driver.advance(SimTime::ZERO, SimDuration::from_millis(50), vm, &mut rng);
        }
        let dirty = vm.dirty().bitmap().peek();
        assert!(!dirty.is_empty(), "GC churn must dirty the client heap");
        assert!(
            dirty.iter().all(|p| p.frame() >= heap_base),
            "reads must not dirty the store region"
        );
    }

    #[test]
    fn update_heavy_mix_dirties_many_pages() {
        let (mut xen, id, mut driver) = setup(YcsbSpec {
            mix: YcsbMix::A,
            records: 10_000,
            operations: 5_000,
        });
        let mut rng = SimRng::seed_from(11);
        let vm = xen.vm_mut(id).unwrap();
        while !driver.is_done() {
            driver.advance(SimTime::ZERO, SimDuration::from_millis(50), vm, &mut rng);
        }
        assert!(vm.dirty().bitmap().count() > 100);
    }

    #[test]
    fn insert_mixes_grow_the_store() {
        let (mut xen, id, mut driver) = setup(YcsbSpec {
            mix: YcsbMix::D,
            records: 1000,
            operations: 2000,
        });
        let mut rng = SimRng::seed_from(11);
        let vm = xen.vm_mut(id).unwrap();
        while !driver.is_done() {
            driver.advance(SimTime::ZERO, SimDuration::from_millis(50), vm, &mut rng);
        }
        // ~5 % of 2000 ops are inserts.
        let grown = driver.store().record_count() - 1000;
        assert!((50..150).contains(&grown), "grown {grown}");
    }

    #[test]
    fn throughput_scales_with_cpu_time() {
        let (mut xen, id, mut driver) = setup(YcsbSpec {
            mix: YcsbMix::B,
            records: 1000,
            operations: u64::MAX,
        });
        let mut rng = SimRng::seed_from(11);
        let vm = xen.vm_mut(id).unwrap();
        let one = driver
            .advance(SimTime::ZERO, SimDuration::from_millis(100), vm, &mut rng)
            .ops;
        let two = driver
            .advance(SimTime::ZERO, SimDuration::from_millis(200), vm, &mut rng)
            .ops;
        let ratio = two / one;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }
}
