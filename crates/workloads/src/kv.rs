//! An in-memory, LSM-flavoured key-value store — the RocksDB stand-in.
//!
//! YCSB in the paper runs against RocksDB inside the protected VM. What
//! replication observes of RocksDB is *where its writes land*: record
//! updates dirty data pages, every mutation appends to a write-ahead log,
//! and periodic memtable flushes rewrite a contiguous SSTable region. This
//! store reproduces exactly that page-level behaviour on the simulated
//! guest's memory, so YCSB's dirty-page pressure tracks the op mix the same
//! way RocksDB's would.

use serde::{Deserialize, Serialize};

use here_hypervisor::memory::PAGE_SIZE;
use here_hypervisor::vm::Vm;
use here_hypervisor::{PageId, VcpuId};

use crate::traits::write_sweep;

/// Size of one YCSB record: 10 fields × 100 bytes, rounded up.
pub const RECORD_BYTES: u64 = 1024;

/// Memory layout of the store within the guest's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvLayout {
    /// First frame of the record data region.
    pub data_base: u64,
    /// Frames reserved for record data.
    pub data_pages: u64,
    /// First frame of the write-ahead log ring.
    pub log_base: u64,
    /// Frames in the WAL ring.
    pub log_pages: u64,
    /// First frame of the memtable/SSTable flush region.
    pub memtable_base: u64,
    /// Frames in the flush region.
    pub memtable_pages: u64,
}

/// Cumulative operation counts (observability for tests and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvStats {
    /// Point reads served.
    pub reads: u64,
    /// Updates applied.
    pub updates: u64,
    /// Inserts applied.
    pub inserts: u64,
    /// Scans served.
    pub scans: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
}

/// The store.
///
/// # Examples
///
/// ```
/// use here_workloads::kv::KvStore;
///
/// // A store sized for 10k records needs 10k/4 = 2500 data pages.
/// let store = KvStore::new(10_000).unwrap();
/// assert!(store.layout().data_pages >= 2500);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvStore {
    layout: KvLayout,
    record_count: u64,
    log_cursor_bytes: u64,
    memtable_entries: u64,
    memtable_capacity: u64,
    stats: KvStats,
    next_vcpu: u32,
}

/// Error building a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvLayoutError(pub String);

impl std::fmt::Display for KvLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kv layout error: {}", self.0)
    }
}

impl std::error::Error for KvLayoutError {}

impl KvStore {
    /// Builds a store for `record_count` records, laid out from frame 0.
    ///
    /// # Errors
    ///
    /// Returns [`KvLayoutError`] if `record_count` is zero.
    pub fn new(record_count: u64) -> Result<Self, KvLayoutError> {
        if record_count == 0 {
            return Err(KvLayoutError("record count must be positive".into()));
        }
        let records_per_page = PAGE_SIZE / RECORD_BYTES;
        // Leave headroom for inserts (D/E grow the keyspace by up to 5 %).
        let data_pages = (record_count * 110 / 100).div_ceil(records_per_page).max(1);
        let log_pages = 4096;
        let memtable_capacity = 16 * 1024; // entries per flush
        let memtable_pages = memtable_capacity * RECORD_BYTES / PAGE_SIZE;
        let layout = KvLayout {
            data_base: 0,
            data_pages,
            log_base: data_pages,
            log_pages,
            memtable_base: data_pages + log_pages,
            memtable_pages,
        };
        Ok(KvStore {
            layout,
            record_count,
            log_cursor_bytes: 0,
            memtable_entries: 0,
            memtable_capacity,
            stats: KvStats::default(),
            next_vcpu: 0,
        })
    }

    /// The store's memory layout.
    pub fn layout(&self) -> KvLayout {
        self.layout
    }

    /// Total frames the store occupies; the VM must have at least this many.
    pub fn required_pages(&self) -> u64 {
        self.layout.memtable_base + self.layout.memtable_pages
    }

    /// Current number of records.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Cumulative operation statistics.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    fn record_frame(&self, key: u64) -> PageId {
        let records_per_page = PAGE_SIZE / RECORD_BYTES;
        PageId::new(
            self.layout.data_base
                + (key % (self.layout.data_pages * records_per_page)) / records_per_page,
        )
    }

    fn pick_vcpu(&mut self, vm: &Vm) -> VcpuId {
        let v = VcpuId::new(self.next_vcpu % vm.config().vcpus);
        self.next_vcpu = self.next_vcpu.wrapping_add(1);
        v
    }

    fn append_log(&mut self, vm: &mut Vm, vcpu: VcpuId) {
        let before_page = self.log_cursor_bytes / PAGE_SIZE;
        self.log_cursor_bytes += RECORD_BYTES;
        let after_page = self.log_cursor_bytes / PAGE_SIZE;
        if after_page != before_page {
            let frame = self.layout.log_base + (before_page % self.layout.log_pages);
            vm.guest_write(PageId::new(frame), vcpu)
                .expect("kv store mutates only while the VM runs");
        }
    }

    fn bump_memtable(&mut self, vm: &mut Vm) {
        self.memtable_entries += 1;
        if self.memtable_entries >= self.memtable_capacity {
            self.memtable_entries = 0;
            self.stats.flushes += 1;
            // Flushing rewrites the whole SSTable region sequentially.
            write_sweep(
                vm,
                self.layout.memtable_base,
                self.layout.memtable_pages,
                0,
                self.layout.memtable_pages,
                vm.config().vcpus,
            );
        }
    }

    /// Point read: no pages are dirtied.
    pub fn read(&mut self, _vm: &mut Vm) {
        self.stats.reads += 1;
    }

    /// Update in place: dirties the record's data page, appends to the WAL,
    /// and contributes to the next memtable flush.
    pub fn update(&mut self, vm: &mut Vm, key: u64) {
        self.stats.updates += 1;
        let vcpu = self.pick_vcpu(vm);
        let frame = self.record_frame(key);
        vm.guest_write(frame, vcpu)
            .expect("kv store mutates only while the VM runs");
        self.append_log(vm, vcpu);
        self.bump_memtable(vm);
    }

    /// Insert: like an update, but also grows the keyspace.
    pub fn insert(&mut self, vm: &mut Vm) -> u64 {
        let key = self.record_count;
        self.record_count += 1;
        self.stats.inserts += 1;
        let vcpu = self.pick_vcpu(vm);
        let frame = self.record_frame(key);
        vm.guest_write(frame, vcpu)
            .expect("kv store mutates only while the VM runs");
        self.append_log(vm, vcpu);
        self.bump_memtable(vm);
        key
    }

    /// Range scan of `len` records: read-only.
    pub fn scan(&mut self, _vm: &mut Vm, _len: u64) {
        self.stats.scans += 1;
    }

    /// Read-modify-write: a read followed by an update of the same record.
    pub fn read_modify_write(&mut self, vm: &mut Vm, key: u64) {
        self.read(vm);
        self.update(vm, key);
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

    fn setup(records: u64) -> (XenHypervisor, here_hypervisor::VmId, KvStore) {
        let store = KvStore::new(records).unwrap();
        let mem_mib = (store.required_pages() * PAGE_SIZE).div_ceil(1024 * 1024) + 1;
        let mut xen = XenHypervisor::new(ByteSize::from_gib(12));
        let cfg = VmConfig::new("kv", ByteSize::from_mib(mem_mib), 4)
            .unwrap()
            .with_cpuid(CpuidPolicy::xen_default());
        let id = xen.create_vm(cfg).unwrap();
        xen.vm_mut(id).unwrap().dirty_mut().enable_logging();
        (xen, id, store)
    }

    #[test]
    fn rejects_empty_store() {
        assert!(KvStore::new(0).is_err());
    }

    #[test]
    fn reads_do_not_dirty_pages() {
        let (mut xen, id, mut store) = setup(1000);
        let vm = xen.vm_mut(id).unwrap();
        for _ in 0..100 {
            store.read(vm);
            store.scan(vm, 50);
        }
        assert_eq!(vm.dirty().bitmap().count(), 0);
        assert_eq!(store.stats().reads, 100);
        assert_eq!(store.stats().scans, 100);
    }

    #[test]
    fn updates_dirty_data_and_wal_pages() {
        let (mut xen, id, mut store) = setup(1000);
        let vm = xen.vm_mut(id).unwrap();
        // 4 updates of the same record fill one WAL page (4 × 1 KiB).
        for _ in 0..4 {
            store.update(vm, 7);
        }
        let dirty = vm.dirty().bitmap().peek();
        let layout = store.layout();
        let data_dirty = dirty
            .iter()
            .filter(|p| p.frame() < layout.data_pages)
            .count();
        let log_dirty = dirty
            .iter()
            .filter(|p| (layout.log_base..layout.log_base + layout.log_pages).contains(&p.frame()))
            .count();
        assert_eq!(data_dirty, 1, "same record rewrites one data page");
        assert_eq!(log_dirty, 1, "4 KiB of WAL appended crosses one page");
    }

    #[test]
    fn memtable_flush_rewrites_the_sstable_region() {
        let (mut xen, id, mut store) = setup(1000);
        let layout = store.layout();
        let vm = xen.vm_mut(id).unwrap();
        let before = store.stats().flushes;
        for _ in 0..(16 * 1024) {
            store.update(vm, 3);
        }
        assert_eq!(store.stats().flushes, before + 1);
        let memtable_dirty = vm
            .dirty()
            .bitmap()
            .peek()
            .iter()
            .filter(|p| p.frame() >= layout.memtable_base)
            .count() as u64;
        assert_eq!(memtable_dirty, layout.memtable_pages);
    }

    #[test]
    fn inserts_grow_the_keyspace() {
        let (mut xen, id, mut store) = setup(100);
        let vm = xen.vm_mut(id).unwrap();
        let k1 = store.insert(vm);
        let k2 = store.insert(vm);
        assert_eq!(k1, 100);
        assert_eq!(k2, 101);
        assert_eq!(store.record_count(), 102);
    }

    #[test]
    fn rmw_counts_both_halves() {
        let (mut xen, id, mut store) = setup(100);
        let vm = xen.vm_mut(id).unwrap();
        store.read_modify_write(vm, 5);
        assert_eq!(store.stats().reads, 1);
        assert_eq!(store.stats().updates, 1);
    }

    #[test]
    fn distinct_keys_spread_across_data_pages() {
        let (mut xen, id, mut store) = setup(10_000);
        let vm = xen.vm_mut(id).unwrap();
        for k in (0..1000).step_by(8) {
            store.update(vm, k);
        }
        let layout = store.layout();
        let data_dirty = vm
            .dirty()
            .bitmap()
            .peek()
            .iter()
            .filter(|p| p.frame() < layout.data_pages)
            .count();
        // 125 keys stride-8 with 4 records/page = 125 distinct pages.
        assert!(data_dirty > 100, "got {data_dirty}");
    }
}
