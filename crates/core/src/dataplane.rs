//! The zero-copy, work-stealing, pipelined checkpoint data plane.
//!
//! [`encode_pages_round`] is the one way a delta becomes wire bytes. An
//! [`EncodePlan`] says how the round is split into tasks (one record per
//! task), on how many lanes, and how far lanes may run ahead:
//!
//! - **Framing** — `chunk_pages: None` cuts one near-equal shard per
//!   lane (the session's default; the shard record sizes are in every
//!   Transfer stage event, so the run fingerprints pin this framing).
//!   `Some(p)` cuts fixed `p`-page chunks, enough tasks to steal.
//! - **Inline rule** — a single task, or one lane with no window, is
//!   encoded on the calling thread and never touches the pool: the
//!   choice follows from the input alone.
//! - **Pool round** — every other round is a [`LanePool::scope`] on the
//!   persistent pool, whose workers are spawned once and parked between
//!   rounds, and which lends them the caller's delta: no lane copies it.
//!   Tasks sit on per-lane queues (round-robin by task index, so
//!   a lane re-encodes the same memory regions epoch after epoch); a lane
//!   that drains its queue steals from the back of the fullest other.
//!   The lanes produce and the calling thread consumes: it gets each
//!   segment, strictly in task order, as soon as that segment and its
//!   predecessors are done, so transfer/decode overlaps the encode still
//!   running. Lanes block [`EncodePlan::window`] tasks ahead of the
//!   consumer; the default depth is the whole round, so none ever does.
//!   However the consumer leaves — done, or unwinding out of
//!   `on_segment` — it releases the window on its way out.
//!   The stream is byte-identical at every lane count and depth. Depth
//!   is no memory bound: every task's buffer leaves the [`BufferPool`]
//!   before the round starts.
//!
//! Allocation lifecycle: [`BufferPool`] hands out recycled `BytesMut`
//! buffers and reclaims them from spent `Bytes` segments via
//! `try_into_mut` (sole-owner, whole-allocation reclamation); the pool's
//! task table is likewise reused across epochs, so the steady-state
//! checkpoint loop performs no allocation once warm. [`CheckpointPools`]
//! bundles all of it for `session::Session`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::{Bytes, BytesMut};

use here_hypervisor::memory::{
    materialize_content_into, materialize_group_into, GuestMemory, PageVersion, GROUP_PAGES,
    PAGE_SIZE,
};
use here_hypervisor::vcpu::VcpuStateBlob;
use here_hypervisor::{HvError, PageId};
use here_vmstate::cir::CpuStateCir;
use here_vmstate::simd;
use here_vmstate::translate::{StateTranslator, TranslateResult};
use here_vmstate::wire::{
    encode_page_batch_into, encode_page_columns_meta_into, write_preamble_versioned,
    PageDataWriter, PagePayload, Record, ScatterStream, Staged, StreamDecoder, PAGE_CONTENT_BYTES,
    PAGE_META_BYTES, VERSION,
};
use here_vmstate::MemoryDelta;

use crate::error::{CoreError, CoreResult};
use crate::transfer::CollectScratch;

/// Frame-header plus small-record slack reserved per lane segment.
const SEGMENT_SLACK: usize = 64;

/// Below this many pages a parallel encode is not worth the thread
/// wake-ups; the session plans such a checkpoint on one lane.
pub const PARALLEL_ENCODE_MIN_PAGES: usize = 1024;

/// Default chunk size (pages) for chunk-framed rounds: 2 MiB of guest
/// memory, matching the harvest side's chunk granularity.
pub const DEFAULT_CHUNK_PAGES: u32 = 512;

/// What an encoded page record carries for each page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadMode {
    /// Metadata only (frame + version): the replication session's wire
    /// format, where the replica re-materializes contents from versions.
    Metadata,
    /// Full materialized 4 KiB page images, as a real hypervisor's stream
    /// would carry — the datapath benchmark path.
    Materialized,
    /// v3 columnar metadata, delta-encoded against the committed epoch
    /// named here — the negotiated-v3 replication session's wire format.
    Columnar {
        /// Committed epoch the record's deltas are encoded against.
        base_epoch: u64,
    },
}

/// A recycling pool of encode buffers.
///
/// `checkout` prefers a cleared, previously used buffer; `recycle`
/// reclaims a spent stream segment's storage when this pool holds the last
/// reference (via `Bytes::try_into_mut`). Hit/miss counters make reuse
/// observable in tests and benchmarks.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<BytesMut>,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Takes a buffer with at least `min_capacity` spare bytes, reusing a
    /// pooled allocation when one exists: the smallest that already fits,
    /// else the largest, which has the least to grow.
    pub fn checkout(&mut self, min_capacity: usize) -> BytesMut {
        let best = (0..self.free.len()).min_by_key(|&i| {
            let cap = self.free[i].capacity();
            (cap < min_capacity, cap.abs_diff(min_capacity))
        });
        match best {
            Some(i) => {
                self.hits += 1;
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                buf.reserve(min_capacity);
                buf
            }
            None => {
                self.misses += 1;
                BytesMut::with_capacity(min_capacity)
            }
        }
    }

    /// Reclaims a spent segment's storage if this is the last reference to
    /// the whole allocation; returns whether the buffer was pooled.
    pub fn recycle(&mut self, segment: Bytes) -> bool {
        match segment.try_into_mut() {
            Ok(buf) => {
                self.free.push(buf);
                true
            }
            Err(_) => false,
        }
    }

    /// Returns a mutable buffer directly (e.g. one that was never frozen).
    pub fn recycle_mut(&mut self, buf: BytesMut) {
        self.free.push(buf);
    }

    /// Buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Checkouts served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checkouts that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Zeroes the hit and miss counts (a new measurement window); the
    /// pooled buffers stay.
    pub(crate) fn reset_counts(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// How one encode round is split, framed and handed off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodePlan {
    /// Encode lanes (parallel workers) for the round.
    pub lanes: u32,
    /// Record payload mode.
    pub mode: PayloadMode,
    /// `None`: one record per lane shard (`delta.shards(lanes)`
    /// boundaries). `Some(p)`: one record per `p`-page chunk.
    pub chunk_pages: Option<u32>,
    /// How many tasks the encode lanes may run ahead of the consumer
    /// before they block (backpressure); `None` is the whole round, so
    /// no lane ever blocks. At every depth the consumer sees each
    /// segment as soon as it and all its predecessors are done.
    pub window: Option<u32>,
}

/// Per-lane activity of one encode round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneRoundStats {
    /// Tasks this lane executed (own + stolen).
    pub tasks: u64,
    /// Tasks this lane stole from another lane's queue.
    pub steals: u64,
    /// Host nanoseconds this lane spent encoding.
    pub busy_nanos: u64,
}

/// What one encode round did, per lane and in aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EncodeRoundStats {
    /// Per-lane activity, indexed by logical lane.
    pub per_lane: Vec<LaneRoundStats>,
    /// Wall nanoseconds of the whole round (split + encode + hand-off).
    pub round_wall_nanos: u64,
}

impl EncodeRoundStats {
    /// Total tasks executed.
    pub fn tasks(&self) -> u64 {
        self.per_lane.iter().map(|l| l.tasks).sum()
    }

    /// Total steals.
    pub fn steals(&self) -> u64 {
        self.per_lane.iter().map(|l| l.steals).sum()
    }

    /// Lane occupancy: busy time over `lanes × round wall`, as a
    /// percentage (0 when no pool round ran).
    pub fn occupancy_pct(&self) -> f64 {
        let lanes = self.per_lane.len();
        if lanes == 0 || self.round_wall_nanos == 0 {
            return 0.0;
        }
        let busy: u64 = self.per_lane.iter().map(|l| l.busy_nanos).sum();
        busy as f64 / (self.round_wall_nanos as f64 * lanes as f64) * 100.0
    }
}

/// Cumulative pool counters across all rounds since the pool was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LanePoolTotals {
    /// Rounds dispatched through the pool (inline rounds not counted).
    pub rounds: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Tasks stolen.
    pub steals: u64,
    /// Encode busy nanoseconds summed over lanes.
    pub busy_nanos: u64,
}

// ---------------------------------------------------------------------------
// LanePool internals
// ---------------------------------------------------------------------------

struct Segment {
    bytes: Bytes,
    wall_nanos: u64,
}

/// Mutable round state shared between lanes and the consumer: task input
/// buffers, completed output slots, the in-order window cursor, and
/// whether the round was abandoned (its consumer left, or a lane
/// panicked), after which nobody waits on anybody.
struct Progress {
    inputs: Vec<Option<BytesMut>>,
    slots: Vec<Option<Segment>>,
    consumed: usize,
    abandoned: bool,
}

#[derive(Default)]
struct LaneCell {
    tasks: AtomicU64,
    steals: AtomicU64,
    busy_nanos: AtomicU64,
}

/// One encode round, lent to the pool's workers for the life of one
/// [`LanePool::scope`]: the lanes encode slices of the caller's entries in
/// place, and the calling thread consumes their segments.
struct Round<'a> {
    entries: &'a [(PageId, PageVersion)],
    tasks: &'a [(usize, usize)],
    mode: PayloadMode,
    depth: usize,
    queues: Vec<Mutex<VecDeque<usize>>>,
    progress: Mutex<Progress>,
    producer_cv: Condvar,
    consumer_cv: Condvar,
    lane_stats: Vec<LaneCell>,
}

impl<'a> Round<'a> {
    /// A round over `tasks`, slices of `entries`, run on up to
    /// `plan.lanes` lanes; task `t` encodes into `bufs[t]`.
    fn new(
        entries: &'a [(PageId, PageVersion)],
        tasks: &'a [(usize, usize)],
        plan: &EncodePlan,
        bufs: Vec<BytesMut>,
    ) -> Self {
        let ntasks = tasks.len();
        let lanes = (plan.lanes as usize).min(ntasks);
        Round {
            entries,
            tasks,
            mode: plan.mode,
            depth: plan.window.map_or(ntasks, |d| (d as usize).max(1)),
            queues: (0..lanes)
                .map(|lane| Mutex::new((lane..ntasks).step_by(lanes).collect()))
                .collect(),
            progress: Mutex::new(Progress {
                inputs: bufs.into_iter().map(Some).collect(),
                slots: (0..ntasks).map(|_| None).collect(),
                consumed: 0,
                abandoned: false,
            }),
            producer_cv: Condvar::new(),
            consumer_cv: Condvar::new(),
            lane_stats: (0..lanes).map(|_| LaneCell::default()).collect(),
        }
    }

    /// The lanes the round runs on, one queue each.
    fn lanes(&self) -> usize {
        self.queues.len()
    }

    /// Claims the next task for `lane`: its own queue front first, then a
    /// steal from the back of the fullest other queue.
    fn claim(&self, lane: usize) -> Option<(usize, bool)> {
        if let Some(task) = self.queues[lane].lock().expect("queue lock").pop_front() {
            return Some((task, false));
        }
        loop {
            let victim = self
                .queues
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != lane)
                .map(|(i, q)| (q.lock().expect("queue lock").len(), i))
                .max()?;
            if victim.0 == 0 {
                return None;
            }
            if let Some(task) = self.queues[victim.1].lock().expect("queue lock").pop_back() {
                return Some((task, true));
            }
        }
    }

    /// Runs `lane` until no tasks remain anywhere or the round is
    /// abandoned. A panic here abandons the round before it propagates,
    /// so the consumer stops waiting for this lane's segment.
    fn work(&self, lane: usize) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.produce(lane))) {
            self.abandon();
            resume_unwind(payload);
        }
    }

    fn produce(&self, lane: usize) {
        while let Some((task, stolen)) = self.claim(lane) {
            let mut buf = {
                let mut p = self.progress.lock().expect("progress lock");
                // Bounded window: never run more than `depth` chunks ahead
                // of the consumer. Safe against deadlock because lane
                // queues ascend and steals take the *highest* index, so
                // the owner of the lowest unconsumed chunk is never the
                // one blocked here, and a consumer that leaves abandons
                // the round (see DESIGN.md).
                while task >= p.consumed + self.depth && !p.abandoned {
                    p = self.producer_cv.wait(p).expect("window wait");
                }
                if p.abandoned {
                    return;
                }
                p.inputs[task].take().expect("task buffer claimed once")
            };
            let start = Instant::now();
            let (lo, hi) = self.tasks[task];
            encode_shard(&self.entries[lo..hi], self.mode, &mut buf);
            let wall = start.elapsed().as_nanos() as u64;
            let cell = &self.lane_stats[lane];
            cell.tasks.fetch_add(1, Ordering::Relaxed);
            if stolen {
                cell.steals.fetch_add(1, Ordering::Relaxed);
            }
            cell.busy_nanos.fetch_add(wall, Ordering::Relaxed);
            let mut p = self.progress.lock().expect("progress lock");
            p.slots[task] = Some(Segment {
                bytes: buf.freeze(),
                wall_nanos: wall,
            });
            self.consumer_cv.notify_all();
        }
    }

    /// The calling thread's part of the round: hands each segment to
    /// `on_segment` strictly in task order, as soon as it and its
    /// predecessors are done; each consume opens one more window slot
    /// for the lanes. Returns per-task encode walls. However it leaves —
    /// every segment consumed, a lane's panic, or unwinding out of
    /// `on_segment` — it abandons the round on the way out, so no lane
    /// is left waiting on the window for a consumer that is gone.
    fn consume(&self, mut on_segment: impl FnMut(usize, Bytes)) -> Vec<u64> {
        let consumed = catch_unwind(AssertUnwindSafe(|| {
            let mut walls = vec![0u64; self.tasks.len()];
            for next in 0..walls.len() {
                let seg = {
                    let mut p = self.progress.lock().expect("progress lock");
                    loop {
                        if let Some(seg) = p.slots[next].take() {
                            p.consumed = next + 1;
                            self.producer_cv.notify_all();
                            break seg;
                        }
                        if p.abandoned {
                            // A lane panicked; `scope` re-raises it.
                            return walls;
                        }
                        p = self.consumer_cv.wait(p).expect("consumer wait");
                    }
                };
                walls[next] = seg.wall_nanos;
                on_segment(next, seg.bytes);
            }
            walls
        }));
        self.abandon();
        consumed.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// Ends the round for whoever still waits on it: lanes stop at the
    /// window, the consumer stops waiting for a segment.
    fn abandon(&self) {
        let mut p = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        p.abandoned = true;
        self.producer_cv.notify_all();
        self.consumer_cv.notify_all();
    }

    /// What the lanes did, once the scope has drained.
    fn stats(&self, round_wall_nanos: u64) -> EncodeRoundStats {
        EncodeRoundStats {
            per_lane: self
                .lane_stats
                .iter()
                .map(|c| LaneRoundStats {
                    tasks: c.tasks.load(Ordering::Relaxed),
                    steals: c.steals.load(Ordering::Relaxed),
                    busy_nanos: c.busy_nanos.load(Ordering::Relaxed),
                })
                .collect(),
            round_wall_nanos,
        }
    }
}

/// What the parked workers are woken for: a [`LanePool::scope`] call,
/// whose worker `i` plays lane `i`. The borrow's lifetime is erased; see
/// `scope`.
#[derive(Clone, Copy)]
struct Job {
    lanes: usize,
    lane: &'static (dyn Fn(usize) + Sync),
}

struct PoolState {
    job: Option<Job>,
    epoch: u64,
    /// Engaged workers whose lane has not returned yet. The dispatcher
    /// sets it to the job's `lanes` when it posts the job and posts no
    /// other while it is above zero; each engaged worker lowers it once
    /// its lane has returned. `busy == 0` is the drain: every lane of the
    /// posted job has finished.
    busy: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// The persistent worker threads. Every job they run is a
/// [`LanePool::scope`]: the work-stealing encode rounds of
/// [`encode_pages_round`], the harvest chunks and the replica fan-out.
///
/// Workers are spawned the first time a job needs them, then parked on a
/// condvar between jobs; [`Drop`] shuts them down and joins. All
/// dispatch state is internally synchronised, so the pool is shared by
/// `&` reference alongside a `&mut BufferPool`. A lane must not call back
/// into the pool it runs on.
pub struct LanePool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The task table of the last encode round, kept for its allocation.
    tasks: Mutex<Vec<(usize, usize)>>,
    totals: Mutex<LanePoolTotals>,
    last_round: Mutex<EncodeRoundStats>,
}

impl std::fmt::Debug for LanePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LanePool")
            .field("workers", &self.workers.lock().expect("workers lock").len())
            .field("totals", &self.totals())
            .finish()
    }
}

impl Default for LanePool {
    fn default() -> Self {
        LanePool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    job: None,
                    epoch: 0,
                    busy: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
            tasks: Mutex::new(Vec::new()),
            totals: Mutex::new(LanePoolTotals::default()),
            last_round: Mutex::new(EncodeRoundStats::default()),
        }
    }
}

impl LanePool {
    /// A pool with no workers yet; they spawn on first use.
    pub fn new() -> Self {
        LanePool::default()
    }

    /// Worker threads currently alive.
    pub fn workers_spawned(&self) -> usize {
        self.workers.lock().expect("workers lock").len()
    }

    /// Cumulative counters since construction.
    pub fn totals(&self) -> LanePoolTotals {
        *self.totals.lock().expect("totals lock")
    }

    /// Stats of the most recent pool round (zeroes if none ran yet).
    pub fn last_round(&self) -> EncodeRoundStats {
        self.last_round.lock().expect("last round lock").clone()
    }

    /// Spawns workers until `needed` exist. The only place this crate
    /// creates a thread.
    pub(crate) fn ensure_workers(&self, needed: usize) {
        let mut workers = self.workers.lock().expect("workers lock");
        while workers.len() < needed {
            let idx = workers.len();
            let shared = Arc::clone(&self.shared);
            // A worker takes the first job posted after this epoch, even
            // if its thread starts only after the post.
            let epoch = shared.state.lock().expect("pool state lock").epoch;
            let handle = std::thread::Builder::new()
                .name(format!("pool-lane-{idx}"))
                .spawn(move || worker_main(shared, idx, epoch))
                .expect("spawn pool lane worker");
            workers.push(handle);
        }
    }

    /// Posts `job` once the previous job has drained, marking the workers
    /// it engages busy.
    fn dispatch(&self, job: Job) {
        self.ensure_workers(job.lanes);
        let mut st = self.shared.state.lock().expect("pool state lock");
        while st.busy > 0 {
            st = self.shared.done_cv.wait(st).expect("pool drain wait");
        }
        st.busy = job.lanes;
        st.job = Some(job);
        st.epoch += 1;
        self.shared.work_cv.notify_all();
    }

    /// Waits until every lane of the posted job has returned, then drops
    /// the posted job. No worker holds any part of it after that.
    fn drain(&self) {
        // The state lock is never held across a lane, so it cannot be
        // poisoned by one; recovering anyway keeps the drain panic-free.
        let mut st = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while st.busy > 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
    }

    /// Runs `lane(0)`, …, `lane(lanes - 1)`, each exactly once, on the
    /// parked workers (spawning any that are missing) while the calling
    /// thread runs `caller`, and returns what `caller` returns once every
    /// lane has finished. `caller` needs neither `Send` nor `Sync`: it
    /// never leaves this thread. A panic in `caller` or in any lane is
    /// caught and, once every lane has finished, re-raised here
    /// (`caller`'s first). With no lanes, `caller` runs alone.
    pub fn scope<R>(
        &self,
        lanes: usize,
        lane: &(dyn Fn(usize) + Sync),
        caller: impl FnOnce() -> R,
    ) -> R {
        if lanes == 0 {
            return caller();
        }
        let panicked = Mutex::new(None);
        let guarded = |i: usize| {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| lane(i))) {
                panicked
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
        };
        let guarded: &(dyn Fn(usize) + Sync) = &guarded;
        // SAFETY: a worker reaches `guarded` only through the posted job,
        // and this function does not return (nor unwind: `guarded` and
        // the `catch_unwind` around `caller` catch every panic, and
        // `drain` does not panic) before `drain` has seen `busy == 0`.
        // Each engaged worker lowers `busy` only after its lane has
        // returned and its copy of the reference is dead, no other job can
        // be posted over this one before that, and `drain` then drops the
        // posted job, so no worker can reach `guarded` once this function
        // returns.
        let erased = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(guarded)
        };
        self.dispatch(Job {
            lanes,
            lane: erased,
        });
        let result = catch_unwind(AssertUnwindSafe(caller));
        self.drain();
        let lane_panic = panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        match (result, lane_panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
            (Ok(result), None) => result,
        }
    }

    /// Folds one pool round's stats into the pool's counters.
    fn record_round(&self, stats: &EncodeRoundStats) {
        {
            let mut totals = self.totals.lock().expect("totals lock");
            totals.rounds += 1;
            totals.tasks += stats.tasks();
            totals.steals += stats.steals();
            totals.busy_nanos += stats.per_lane.iter().map(|l| l.busy_nanos).sum::<u64>();
        }
        *self.last_round.lock().expect("last round lock") = stats.clone();
    }
}

impl Drop for LanePool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state lock");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.lock().expect("workers lock").drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(shared: Arc<PoolShared>, idx: usize, mut last_epoch: u64) {
    let mut guard = shared.state.lock().expect("pool state lock");
    loop {
        while !guard.shutdown && guard.epoch == last_epoch {
            guard = shared.work_cv.wait(guard).expect("worker park");
        }
        if guard.shutdown {
            return;
        }
        last_epoch = guard.epoch;
        // The dispatcher already counted workers `0..lanes` busy; a job
        // narrower than the pool leaves the rest parked.
        let job = match guard.job {
            Some(job) if idx < job.lanes => job,
            _ => continue,
        };
        drop(guard);
        // `scope` hands out a lane that catches its own panic.
        (job.lane)(idx);
        // The job's reference is dead before `busy` falls: `scope` relies
        // on `busy == 0` implying no worker holds it.
        guard = shared.state.lock().expect("pool state lock");
        guard.busy -= 1;
        shared.done_cv.notify_all();
    }
}

/// Everything the primary side of a session carries from one checkpoint
/// to the next: the harvest delta, the per-chunk collect counts, the
/// encode buffer pool, the session's one set of worker threads, and the
/// v3 delta base.
#[derive(Debug)]
pub struct CheckpointPools {
    /// Reused harvest output (taken during Harvest, returned after
    /// Translate).
    pub delta: MemoryDelta,
    /// Per-chunk dirty counts for `collect_chunked_into`; its chunk
    /// workers are those of `lanes`.
    pub collect: CollectScratch,
    /// Encode segment buffers, reclaimed after each Transfer.
    pub buffers: BufferPool,
    /// The session's worker threads: encode rounds, harvest chunks and
    /// the replica fan-out.
    pub lanes: Arc<LanePool>,
    /// The last epoch that committed at quorum: the delta base v3
    /// records are encoded against (0 before any commit, and always under
    /// v2). An aborted epoch leaves it untouched, which is what makes
    /// re-encoding after an abort safe.
    pub committed_epoch: u64,
}

impl Default for CheckpointPools {
    fn default() -> Self {
        let lanes = Arc::new(LanePool::new());
        CheckpointPools {
            delta: MemoryDelta::new(),
            collect: CollectScratch::sharing(Arc::clone(&lanes)),
            buffers: BufferPool::new(),
            lanes,
            committed_epoch: 0,
        }
    }
}

impl CheckpointPools {
    /// Empty pools; everything warms up on the first checkpoint.
    pub fn new() -> Self {
        CheckpointPools::default()
    }
}

fn segment_capacity(pages: usize, mode: PayloadMode) -> usize {
    let per_page = match mode {
        // Columnar metas are denser than v2 metas; the v2 stride is a
        // safe capacity ceiling for them.
        PayloadMode::Metadata | PayloadMode::Columnar { .. } => PAGE_META_BYTES,
        PayloadMode::Materialized => PAGE_META_BYTES + PAGE_CONTENT_BYTES,
    };
    pages * per_page + SEGMENT_SLACK
}

fn encode_shard(
    shard: &[(here_hypervisor::PageId, PageVersion)],
    mode: PayloadMode,
    out: &mut BytesMut,
) {
    match mode {
        PayloadMode::Metadata => encode_page_batch_into(shard, out),
        PayloadMode::Columnar { base_epoch } => {
            encode_page_columns_meta_into(base_epoch, shard, out)
        }
        PayloadMode::Materialized => {
            let mut writer = PageDataWriter::new(out);
            let mut groups = shard.chunks_exact(GROUP_PAGES);
            for group in &mut groups {
                writer.push_group(group.try_into().expect("exact chunk"));
            }
            let mut image = [0u8; PAGE_SIZE as usize];
            for &(page, rec) in groups.remainder() {
                materialize_content_into(page, rec, &mut image);
                writer.push(page, rec, &image);
            }
            writer.finish();
        }
    }
}

/// Splits `n` entries into task ranges per `plan`: shard framing uses
/// the `delta.shards(lanes)` boundaries (near-equal contiguous slices,
/// one per lane); chunk framing uses fixed `chunk_pages` strides.
fn plan_tasks(n: usize, plan: &EncodePlan, out: &mut Vec<(usize, usize)>) {
    out.clear();
    if n == 0 {
        return;
    }
    let stride = match plan.chunk_pages {
        Some(p) => (p as usize).max(1),
        None => n.div_ceil(plan.lanes.max(1) as usize),
    };
    let mut lo = 0;
    while lo < n {
        let hi = (lo + stride).min(n);
        out.push((lo, hi));
        lo = hi;
    }
}

/// Encodes a delta's pages per `plan`, delivering frozen segments
/// strictly in task (= ascending frame) order through `on_segment`.
/// Returns per-task encode walls (host ns) and the round's lane stats.
///
/// A single task, or a single lane with no window, is encoded inline on
/// the calling thread without touching the pool. Every other round runs
/// on pool workers while the caller consumes: `on_segment` overlaps the
/// remaining encode work, and lanes block only when they run
/// `plan.window` tasks ahead of it (never, by default).
///
/// # Panics
///
/// Panics if `plan.lanes` is zero.
pub fn encode_pages_round(
    delta: &MemoryDelta,
    plan: &EncodePlan,
    pool: &mut BufferPool,
    lanes: &LanePool,
    mut on_segment: impl FnMut(usize, Bytes),
) -> (Vec<u64>, EncodeRoundStats) {
    assert!(plan.lanes >= 1, "at least one encode lane is required");
    let split_start = Instant::now();
    let entries = delta.entries();
    let mut tasks = std::mem::take(&mut *lanes.tasks.lock().expect("task table lock"));
    plan_tasks(entries.len(), plan, &mut tasks);
    let ntasks = tasks.len();
    let mut bufs: Vec<BytesMut> = tasks
        .iter()
        .map(|&(lo, hi)| pool.checkout(segment_capacity(hi - lo, plan.mode)))
        .collect();

    let inline = ntasks <= 1 || (plan.lanes == 1 && plan.window.is_none());
    let (mut walls, stats, split_nanos) = if inline {
        // No pool: the caller encodes every task itself.
        let split_nanos = split_start.elapsed().as_nanos() as u64;
        let mut walls = vec![0u64; ntasks];
        for ((wall, buf), &(lo, hi)) in walls.iter_mut().zip(&mut bufs).zip(&tasks) {
            let start = Instant::now();
            encode_shard(&entries[lo..hi], plan.mode, buf);
            *wall = start.elapsed().as_nanos() as u64;
        }
        for (i, buf) in bufs.into_iter().enumerate() {
            on_segment(i, buf.freeze());
        }
        (walls, EncodeRoundStats::default(), split_nanos)
    } else {
        let round = Round::new(entries, &tasks, plan, bufs);
        let split_nanos = split_start.elapsed().as_nanos() as u64;
        // Every lane is a worker; the caller only consumes.
        let start = Instant::now();
        let walls = lanes.scope(round.lanes(), &|lane| round.work(lane), || {
            round.consume(on_segment)
        });
        let stats = round.stats(start.elapsed().as_nanos() as u64);
        lanes.record_round(&stats);
        (walls, stats, split_nanos)
    };
    // Task-split time belongs to the first task, so attribution still sums
    // to the whole encode (see the straggler detector in analyze.rs).
    if let Some(first) = walls.first_mut() {
        *first += split_nanos;
    }
    *lanes.tasks.lock().expect("task table lock") = tasks;
    (walls, stats)
}

fn blob_to_cir(
    blob: &VcpuStateBlob,
    translator: Option<&StateTranslator>,
) -> TranslateResult<CpuStateCir> {
    match translator {
        Some(t) => t.decode_to_cir(blob),
        None => Ok(CpuStateCir {
            regs: blob.to_arch(),
            online: blob.is_online(),
        }),
    }
}

/// Translates captured vCPU blobs to the common format, in order: result
/// `i` is blob `i`'s translation.
///
/// # Errors
///
/// Returns the first translation error encountered (format mismatch).
pub fn translate_vcpus(
    blobs: &[VcpuStateBlob],
    translator: Option<&StateTranslator>,
) -> TranslateResult<Vec<CpuStateCir>> {
    blobs.iter().map(|b| blob_to_cir(b, translator)).collect()
}

/// [`translate_vcpus`] under its older name. `_lanes` is unused: a vCPU
/// translates in ≈ 150 ns, so even waking parked workers would cost more
/// than the loop it splits, and the translate runs inline.
///
/// # Errors
///
/// Returns the first translation error encountered (format mismatch).
pub fn translate_vcpus_parallel(
    blobs: &[VcpuStateBlob],
    translator: Option<&StateTranslator>,
    _lanes: u32,
) -> TranslateResult<Vec<CpuStateCir>> {
    translate_vcpus(blobs, translator)
}

/// Page images the content check compares against, kept across records
/// so no 4 KiB buffer is zeroed per page.
#[derive(Debug)]
pub(crate) struct VerifyScratch {
    /// Up to [`GROUP_PAGES`] expected images, back to back.
    expected: [u8; GROUP_PAGES * PAGE_SIZE as usize],
    /// The replica's current image of a page a v3 delta patches.
    base: [u8; PAGE_SIZE as usize],
}

impl VerifyScratch {
    fn new() -> Self {
        VerifyScratch {
            expected: [0; GROUP_PAGES * PAGE_SIZE as usize],
            base: [0; PAGE_SIZE as usize],
        }
    }

    /// Fills `expected` with the images `group`'s version records
    /// mandate: four at a time from the lock-step generator the encode
    /// lanes use, a short tail from the one-page reference.
    fn expect_group(&mut self, group: &[(PageId, PageVersion, Bytes)]) {
        match <&[_; GROUP_PAGES]>::try_from(group) {
            Ok(full) => materialize_group_into(
                &full.each_ref().map(|&(page, rec, _)| (page, rec)),
                &mut self.expected,
                0,
                PAGE_SIZE as usize,
            ),
            Err(_) => {
                for (k, &(page, rec, _)) in group.iter().enumerate() {
                    materialize_content_into(page, rec, self.page_mut(k));
                }
            }
        }
    }

    fn page_mut(&mut self, k: usize) -> &mut [u8; PAGE_SIZE as usize] {
        let at = k * PAGE_SIZE as usize;
        (&mut self.expected[at..at + PAGE_SIZE as usize])
            .try_into()
            .expect("page-sized slot")
    }
}

/// One receive step: [`stage_next`], or in tests the reference it
/// replaced.
pub(crate) type ReceiveStep = fn(
    &mut StreamDecoder,
    &GuestMemory,
    Option<&mut VerifyScratch>,
    &mut Vec<(PageId, PageVersion)>,
) -> CoreResult<Option<Staged>>;

/// The receive path's decode and verify, one record at a time: decodes
/// the next record of `dec` and stages its pages onto `replica`. Pages
/// that carry no bytes land in `staged` straight from the wire and only
/// the range check remains; a record that comes back whole goes through
/// [`stage`]. `None` at a clean end of stream. Nothing is written: after
/// an `Err` the caller discards `staged` and the replica is as it was.
pub(crate) fn stage_next(
    dec: &mut StreamDecoder,
    replica: &GuestMemory,
    verify: Option<&mut VerifyScratch>,
    staged: &mut Vec<(PageId, PageVersion)>,
) -> CoreResult<Option<Staged>> {
    let Some(next) = dec.next_record_into(staged)? else {
        return Ok(None);
    };
    match &next {
        Staged::Pages { top, .. } => check_in_range(*top, replica)?,
        Staged::Record(record) => stage(record, replica, verify, staged)?,
    }
    Ok(Some(next))
}

/// The range check: `top`, the highest frame a page record named, lies
/// inside `replica`.
fn check_in_range(top: u64, replica: &GuestMemory) -> CoreResult<()> {
    let limit = replica.num_pages();
    if top >= limit {
        return Err(HvError::PageOutOfRange { page: top, limit }.into());
    }
    Ok(())
}

/// The *verify* step of the receive path: appends the pages `record`
/// carries to `staged` once every frame is inside `replica` and, when
/// `verify` lends its scratch, each payload's content is the
/// deterministic image its `(frame, version)` record mandates — a delta
/// is applied to the replica's present copy of the page, that is, the
/// image before anything staged is installed. Records that carry no
/// pages stage nothing. Nothing is written: after an `Err` the caller
/// discards `staged` and the replica is as it was.
pub(crate) fn stage(
    record: &Record,
    replica: &GuestMemory,
    verify: Option<&mut VerifyScratch>,
    staged: &mut Vec<(PageId, PageVersion)>,
) -> CoreResult<()> {
    // The range check rides the copy: one pass, no second walk of an
    // epoch's worth of entries.
    let mut top = 0;
    let mut note = |page: PageId, rec: PageVersion| {
        top = top.max(page.frame());
        (page, rec)
    };
    match record {
        Record::PageBatch(batch) => {
            staged.extend(batch.entries().iter().map(|&(page, rec)| note(page, rec)))
        }
        Record::PageDataBatch(batch) => {
            staged.extend(batch.pages().iter().map(|&(page, rec, _)| note(page, rec)))
        }
        Record::PageColumns(batch) => staged.extend(
            batch
                .entries()
                .iter()
                .map(|&(page, rec, _)| note(page, rec)),
        ),
        _ => return Ok(()),
    }
    check_in_range(top, replica)?;
    let Some(scratch) = verify else {
        return Ok(());
    };
    let diverged = |page: PageId| {
        CoreError::InvalidScenario(format!(
            "page {} content diverged from its version record",
            page.frame()
        ))
    };
    match record {
        Record::PageDataBatch(batch) => {
            for group in batch.pages().chunks(GROUP_PAGES) {
                scratch.expect_group(group);
                let images = scratch.expected.chunks_exact(PAGE_SIZE as usize);
                for ((page, _, content), expected) in group.iter().zip(images) {
                    if !simd::active().bytes_equal(&content[..], expected) {
                        return Err(diverged(*page));
                    }
                }
            }
        }
        Record::PageColumns(batch) => {
            for (page, rec, payload) in batch.entries() {
                let base = if matches!(payload, PagePayload::Delta(_)) {
                    materialize_content_into(*page, replica.page(*page)?, &mut scratch.base);
                    Some(&scratch.base[..])
                } else {
                    None
                };
                if let Some(got) = payload.materialize(base)? {
                    let expected = scratch.page_mut(0);
                    materialize_content_into(*page, *rec, expected);
                    if !simd::active().bytes_equal(&got, &expected[..]) {
                        return Err(diverged(*page));
                    }
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// The *install* step: writes what [`stage`] verified. It cannot fail —
/// `stage` checked every frame against this replica.
pub(crate) fn install_staged(replica: &mut GuestMemory, staged: &[(PageId, PageVersion)]) {
    for &(page, rec) in staged {
        replica
            .install_page(page, rec)
            .expect("stage() checked the frame against this replica");
    }
}

/// The receive side of the data plane: accepts lane segments one at a
/// time, as they arrive, which is what lets decode and transfer overlap
/// the still-running encode lanes. Each accepted segment must hold
/// complete records (every segment [`encode_pages_round`] produces does).
///
/// A segment goes through three phases — *decode* (frame and column
/// checksums, structure), *verify* (every frame inside the replica and,
/// with `verify_content`, every payload the image its version record
/// mandates; touches nothing), *install* (cannot fail) — and the third
/// runs only when the whole segment passed the first two. So a segment
/// [`accept`](SegmentRestorer::accept) rejects changes no page, and
/// [`installed`](SegmentRestorer::installed) is always what the replica
/// holds.
#[derive(Debug)]
pub struct SegmentRestorer<'a> {
    replica: &'a mut GuestMemory,
    /// The content check's page images; `None` when it is off.
    verify: Option<Box<VerifyScratch>>,
    preamble: Bytes,
    staged: Vec<(PageId, PageVersion)>,
    installed: u64,
}

impl<'a> SegmentRestorer<'a> {
    /// A restorer installing into `replica`.
    pub fn new(replica: &'a mut GuestMemory, verify_content: bool) -> Self {
        Self::new_versioned(replica, verify_content, VERSION)
    }

    /// A restorer decoding segments under an explicit stream version —
    /// required for segments carrying v3 page-columns records.
    pub fn new_versioned(replica: &'a mut GuestMemory, verify_content: bool, version: u16) -> Self {
        let mut head = BytesMut::with_capacity(8);
        write_preamble_versioned(&mut head, version);
        SegmentRestorer {
            replica,
            verify: verify_content.then(|| Box::new(VerifyScratch::new())),
            preamble: head.freeze(),
            staged: Vec::new(),
            installed: 0,
        }
    }

    /// Decodes and verifies one segment, then installs its pages. The
    /// caller keeps its `Bytes` handle, so once this returns (all record
    /// slices dropped) the segment can be recycled into a [`BufferPool`].
    ///
    /// # Errors
    ///
    /// Wire errors on a corrupt segment, a hypervisor error on a frame
    /// outside the replica, and [`CoreError::InvalidScenario`] on a
    /// content mismatch. In every case nothing was installed.
    pub fn accept(&mut self, segment: &Bytes) -> CoreResult<()> {
        let mut stream = ScatterStream::from(self.preamble.clone());
        stream.push(segment.clone());
        let mut dec = StreamDecoder::new_scattered(stream)?;
        self.staged.clear();
        loop {
            let verify = self.verify.as_deref_mut();
            if stage_next(&mut dec, self.replica, verify, &mut self.staged)?.is_none() {
                break;
            }
        }
        install_staged(self.replica, &self.staged);
        self.installed += self.staged.len() as u64;
        Ok(())
    }

    /// Pages installed so far.
    pub fn installed(&self) -> u64 {
        self.installed
    }
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use here_hypervisor::PageId;
    use here_sim_core::rate::ByteSize;
    use here_vmstate::wire::{
        checksum, encode_record_into, frame_checksum, write_preamble, COLUMNS_HEADER_BYTES,
        PREAMBLE_BYTES,
    };
    use proptest::prelude::*;

    fn delta_of(n: u64) -> MemoryDelta {
        (0..n)
            .map(|f| {
                (
                    PageId::new(f * 2),
                    PageVersion {
                        version: (f % 9) as u32 + 1,
                        last_writer: (f % 4) as u16,
                    },
                )
            })
            .collect()
    }

    /// Shard framing at full depth: the replication session's plan.
    const SHARDS: EncodePlan = EncodePlan {
        lanes: 4,
        mode: PayloadMode::Metadata,
        chunk_pages: None,
        window: None,
    };

    /// Runs one round and collects its segments, checking that they
    /// arrive in task order.
    fn encode(
        delta: &MemoryDelta,
        plan: EncodePlan,
        pool: &mut BufferPool,
        lp: &LanePool,
    ) -> Vec<Bytes> {
        let mut segments = Vec::new();
        encode_pages_round(delta, &plan, pool, lp, |i, seg| {
            assert_eq!(i, segments.len(), "{plan:?} delivered out of order");
            segments.push(seg);
        });
        segments
    }

    fn splice(segments: Vec<Bytes>) -> ScatterStream {
        let mut head = BytesMut::new();
        write_preamble(&mut head);
        let mut stream = ScatterStream::from(head.freeze());
        for seg in segments {
            stream.push(seg);
        }
        stream
    }

    /// Receives `segments` into `replica`; the number of pages installed.
    fn restore(
        segments: &[Bytes],
        replica: &mut GuestMemory,
        verify_content: bool,
    ) -> CoreResult<u64> {
        let mut restorer = SegmentRestorer::new(replica, verify_content);
        segments.iter().try_for_each(|seg| restorer.accept(seg))?;
        Ok(restorer.installed())
    }

    fn decoded_pages(stream: ScatterStream) -> Vec<(u64, u32, u16)> {
        let records = StreamDecoder::new_scattered(stream).unwrap();
        let mut out = Vec::new();
        for rec in records.collect_records().unwrap() {
            match rec {
                Record::PageBatch(b) => out.extend(
                    b.entries()
                        .iter()
                        .map(|&(p, v)| (p.frame(), v.version, v.last_writer)),
                ),
                Record::PageDataBatch(b) => out.extend(
                    b.pages()
                        .iter()
                        .map(|(p, v, _)| (p.frame(), v.version, v.last_writer)),
                ),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn parallel_encode_is_lane_count_invariant() {
        // Framing differs with lane count (one record per shard), but the
        // decoded page sequence must not; payload content integrity is
        // covered by the checksummed round-trip tests below.
        let delta = delta_of(4096);
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        let plan = EncodePlan {
            lanes: 1,
            mode: PayloadMode::Materialized,
            ..SHARDS
        };
        let reference = decoded_pages(splice(encode(&delta, plan, &mut pool, &lp)));
        assert_eq!(reference.len(), delta.len());
        for lanes in [2u32, 4, 8] {
            let segs = encode(&delta, EncodePlan { lanes, ..plan }, &mut pool, &lp);
            let got = decoded_pages(splice(segs));
            assert!(got == reference, "lanes={lanes} decoded differently");
        }
    }

    /// The encoder of the commit before the lock-step kernel, kept as the
    /// reference: one record per task, every page generated by the
    /// one-page reference and appended with `push`, on the calling thread.
    fn one_page_at_a_time(delta: &MemoryDelta, plan: &EncodePlan) -> Vec<u8> {
        let mut tasks = Vec::new();
        plan_tasks(delta.len(), plan, &mut tasks);
        let mut out = BytesMut::new();
        let mut image = [0u8; PAGE_SIZE as usize];
        for (lo, hi) in tasks {
            let mut writer = PageDataWriter::new(&mut out);
            for &(page, rec) in &delta.entries()[lo..hi] {
                materialize_content_into(page, rec, &mut image);
                writer.push(page, rec, &image);
            }
            writer.finish();
        }
        out.to_vec()
    }

    #[test]
    fn materialized_rounds_are_byte_identical_to_single_lane_inline_encode() {
        // 1499 pages: across the plans below, tasks end 0, 1, 2 and 3
        // pages past a group boundary.
        let delta = delta_of(1499);
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        for lanes in [1u32, 2, 4] {
            for chunk_pages in [None, Some(64), Some(512)] {
                for window in [None, Some(1), Some(4)] {
                    let plan = EncodePlan {
                        lanes,
                        mode: PayloadMode::Materialized,
                        chunk_pages,
                        window,
                    };
                    let segs = encode(&delta, plan, &mut pool, &lp);
                    let got = splice(segs.clone()).gather();
                    assert!(
                        got[PREAMBLE_BYTES..] == one_page_at_a_time(&delta, &plan)[..],
                        "{plan:?} moved the wire"
                    );
                    let mut replica = GuestMemory::new(ByteSize::from_mib(16)).unwrap();
                    let installed = restore(&segs, &mut replica, true).unwrap();
                    assert_eq!(installed, delta.len() as u64, "{plan:?}");
                }
            }
        }
    }

    #[test]
    fn restore_round_trips_materialized_pages() {
        let delta = delta_of(2048);
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        let plan = EncodePlan {
            mode: PayloadMode::Materialized,
            ..SHARDS
        };
        let segs = encode(&delta, plan, &mut pool, &lp);
        let mut replica = GuestMemory::new(ByteSize::from_mib(32)).unwrap();
        let installed = restore(&segs, &mut replica, true).unwrap();
        assert_eq!(installed, delta.len() as u64);
        for &(page, rec) in delta.entries() {
            assert_eq!(replica.page(page).unwrap(), rec);
        }
    }

    #[test]
    fn metadata_mode_matches_session_wire_format() {
        let delta = delta_of(2048);
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        let segs = encode(&delta, SHARDS, &mut pool, &lp);
        let mut replica = GuestMemory::new(ByteSize::from_mib(32)).unwrap();
        let installed = restore(&segs, &mut replica, false).unwrap();
        assert_eq!(installed, delta.len() as u64);
    }

    #[test]
    fn buffer_pool_reaches_steady_state() {
        let delta = delta_of(4096);
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        for round in 0..4 {
            let segs = encode(&delta, SHARDS, &mut pool, &lp);
            assert_eq!(segs.len(), 4);
            for seg in segs {
                assert!(pool.recycle(seg), "round {round}: segment not reclaimed");
            }
        }
        // First round misses, later rounds hit.
        assert_eq!(pool.misses(), 4);
        assert_eq!(pool.hits(), 12);
        assert_eq!(pool.pooled(), 4);
    }

    #[test]
    fn buffer_pool_checkout_is_best_fit() {
        const BIG: usize = 2 << 20;
        let mut pool = BufferPool::new();
        pool.recycle_mut(BytesMut::with_capacity(BIG));
        pool.recycle_mut(BytesMut::with_capacity(64));
        // The small buffer on top is not grown while one that fits is
        // pooled; it is still there for the small request.
        let big = pool.checkout(BIG);
        assert_eq!(big.capacity(), BIG);
        assert_eq!(pool.checkout(48).capacity(), 64);
        // Nothing fits: the largest is the one grown.
        pool.recycle_mut(BytesMut::with_capacity(64));
        pool.recycle_mut(big);
        pool.recycle_mut(BytesMut::with_capacity(256));
        assert!(pool.checkout(2 * BIG).capacity() >= 2 * BIG);
        assert_eq!(pool.checkout(65).capacity(), 256);
        assert_eq!((pool.hits(), pool.misses(), pool.pooled()), (4, 0, 1));
    }

    #[test]
    fn timed_encode_reports_one_wall_per_lane() {
        let delta = delta_of(4096);
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        let mut segs = 0;
        let (walls, stats) = encode_pages_round(&delta, &SHARDS, &mut pool, &lp, |_, _| segs += 1);
        assert_eq!(segs, 4);
        assert_eq!(walls.len(), 4);
        assert_eq!(stats.per_lane.len(), 4);
    }

    #[test]
    fn inline_rounds_never_wake_the_pool() {
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        // One lane and no window: every task on the calling thread.
        let one_lane = EncodePlan {
            lanes: 1,
            chunk_pages: Some(256),
            ..SHARDS
        };
        assert_eq!(encode(&delta_of(4096), one_lane, &mut pool, &lp).len(), 16);
        // A single task, whatever the lanes and window.
        let one_task = EncodePlan {
            lanes: 8,
            chunk_pages: Some(512),
            window: Some(2),
            ..SHARDS
        };
        assert_eq!(encode(&delta_of(300), one_task, &mut pool, &lp).len(), 1);
        assert_eq!(lp.workers_spawned(), 0);
        assert_eq!(lp.totals().rounds, 0);
    }

    #[test]
    fn pool_workers_persist_across_rounds() {
        let delta = delta_of(4096);
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        for _ in 0..3 {
            for seg in encode(&delta, SHARDS, &mut pool, &lp) {
                pool.recycle(seg);
            }
        }
        // Every lane is a pool worker (the caller only consumes), spawned
        // once and reused.
        assert_eq!(lp.workers_spawned(), 4);
        let totals = lp.totals();
        assert_eq!(totals.rounds, 3);
        assert_eq!(totals.tasks, 12);
    }

    #[test]
    fn chunked_framing_is_depth_invariant() {
        // A full-depth pool round, every bounded depth and the inline
        // single-lane encode produce byte-identical segments.
        let delta = delta_of(4096);
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        let full_depth = EncodePlan {
            chunk_pages: Some(256),
            ..SHARDS
        };
        let reference = encode(&delta, full_depth, &mut pool, &lp);
        assert_eq!(reference.len(), 16);
        assert_eq!(lp.totals().rounds, 1);
        for depth in [1u32, 2, 4, 64] {
            let plan = EncodePlan {
                window: Some(depth),
                ..full_depth
            };
            assert_eq!(
                encode(&delta, plan, &mut pool, &lp),
                reference,
                "depth={depth}"
            );
        }
        let inline = EncodePlan {
            lanes: 1,
            ..full_depth
        };
        assert_eq!(encode(&delta, inline, &mut pool, &lp), reference);
        assert_eq!(lp.totals().rounds, 5);
    }

    #[test]
    fn round_stats_account_for_every_task() {
        let delta = delta_of(4096);
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        let plan = EncodePlan {
            lanes: 4,
            mode: PayloadMode::Metadata,
            chunk_pages: Some(128),
            window: None,
        };
        let (walls, stats) = encode_pages_round(&delta, &plan, &mut pool, &lp, |_, _| {});
        assert_eq!(walls.len(), 32);
        assert_eq!(stats.tasks(), 32);
        assert!(stats.steals() <= 32);
        assert_eq!(stats.per_lane.len(), 4);
        assert!(stats.round_wall_nanos > 0);
    }

    /// Runs a scope of `lanes` on `lp` and returns how often each lane
    /// ran, and whether every lane ran off the calling thread and the
    /// caller's part on it.
    fn lane_runs(lp: &LanePool, lanes: usize) -> (Vec<usize>, bool) {
        let runs: Vec<AtomicU64> = (0..lanes).map(|_| AtomicU64::new(0)).collect();
        let caller = std::thread::current().id();
        let lane_here = AtomicU64::new(0);
        let caller_here = lp.scope(
            lanes,
            &|lane| {
                runs[lane].fetch_add(1, Ordering::Relaxed);
                if std::thread::current().id() == caller {
                    lane_here.store(1, Ordering::Relaxed);
                }
            },
            || std::thread::current().id() == caller,
        );
        let runs = runs.iter().map(|r| r.load(Ordering::Relaxed) as usize);
        let placed = caller_here && lane_here.load(Ordering::Relaxed) == 0;
        (runs.collect(), placed)
    }

    #[test]
    fn scope_runs_every_lane_exactly_once() {
        let lp = LanePool::new();
        // Up, then back down, then past the parked workers again: a scope
        // wider than the pool spawns only what is missing.
        for lanes in [0, 1, 2, 3, 4, 5, 6, 7, 2, 0] {
            let (runs, placed) = lane_runs(&lp, lanes);
            assert_eq!(runs, vec![1; lanes], "lanes={lanes}");
            assert!(
                placed,
                "lanes={lanes}: lanes on workers, the rest on the caller"
            );
        }
        assert_eq!(lp.workers_spawned(), 7);
        assert_eq!(lp.totals().rounds, 0, "a scope is not an encode round");
    }

    #[test]
    fn a_lane_panic_is_reraised_after_every_other_lane_finishes() {
        let delta = delta_of(4096);
        let reference = encode(&delta, SHARDS, &mut BufferPool::new(), &LanePool::new());
        // Part 0 is the caller's, parts 1–3 are worker lanes 0–2.
        for panicking in [0usize, 2] {
            let lp = LanePool::new();
            let finished: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            let failing = AtomicU64::new(0);
            let part = |part: usize| {
                if part == panicking {
                    failing.store(1, Ordering::SeqCst);
                    panic!("lane {part} fails");
                }
                // The other parts are still running when the panic is
                // raised, and for a while after.
                while failing.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished[part].store(1, Ordering::SeqCst);
            };
            let caught = catch_unwind(AssertUnwindSafe(|| {
                lp.scope(3, &|lane| part(lane + 1), || part(0))
            }));
            // Every other lane had finished by the time the panic
            // surfaced on the caller.
            let finished: Vec<u64> = finished.iter().map(|f| f.load(Ordering::SeqCst)).collect();
            let payload = caught.expect_err("the lane's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("lane {panicking} fails").as_str())
            );
            let mut expected = vec![1; 4];
            expected[panicking] = 0;
            assert_eq!(finished, expected, "panicking lane {panicking}");
            // The pool still serves an encode round and another scope.
            assert_eq!(
                encode(&delta, SHARDS, &mut BufferPool::new(), &lp),
                reference
            );
            assert_eq!(lane_runs(&lp, 4).0, vec![1; 4]);
        }
    }

    /// Runs `body` on a thread of its own and fails unless it finishes
    /// within a minute: for the tests whose failure is a hang.
    fn finishes(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let body = std::thread::Builder::new()
            .name("bounded-test-body".into())
            .spawn(move || {
                body();
                done.send(()).expect("the test waits for the body");
            })
            .expect("spawn the test body");
        let timeout = std::sync::mpsc::RecvTimeoutError::Timeout;
        if finished.recv_timeout(std::time::Duration::from_secs(60)) == Err(timeout) {
            panic!("the test body hung");
        }
        // Finished or failed: either way the thread has ended.
        if let Err(payload) = body.join() {
            resume_unwind(payload);
        }
    }

    #[test]
    fn a_panicking_windowed_consumer_releases_the_window() {
        // Two lanes, eight 512-page tasks, one task of window: once the
        // consumer is gone, every lane waits on the window for good unless
        // the consumer's exit released it.
        finishes(|| {
            let delta = delta_of(4096);
            let plan = EncodePlan {
                lanes: 2,
                chunk_pages: Some(512),
                window: Some(1),
                ..SHARDS
            };
            let reference = encode(&delta, plan, &mut BufferPool::new(), &LanePool::new());
            assert_eq!(reference.len(), 8);
            let lp = LanePool::new();
            let mut pool = BufferPool::new();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                encode_pages_round(&delta, &plan, &mut pool, &lp, |i, _| {
                    assert_ne!(i, 0, "segment 0 refused");
                })
            }));
            let payload = caught.expect_err("the consumer's panic reaches the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert!(message.is_some_and(|m| m.contains("segment 0 refused")));
            // The pool still serves a windowed round and a scope, and
            // shuts down.
            assert_eq!(encode(&delta, plan, &mut pool, &lp), reference);
            assert_eq!(lane_runs(&lp, 2).0, vec![1; 2]);
        });
    }

    #[test]
    fn a_panicking_encode_lane_ends_the_round() {
        // Task 1 reaches past the entries, so the lane that takes it
        // panics; the consumer, waiting for that segment, must stop and
        // the lane's panic reach the caller.
        finishes(|| {
            let delta = delta_of(64);
            let tasks = [(0, 32), (32, 65)];
            let mut pool = BufferPool::new();
            let bufs = tasks.iter().map(|_| pool.checkout(1024)).collect();
            let round = Round::new(delta.entries(), &tasks, &SHARDS, bufs);
            let lp = LanePool::new();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                lp.scope(round.lanes(), &|lane| round.work(lane), || {
                    round.consume(|_, _| {})
                })
            }));
            let payload = caught.expect_err("the lane's panic reaches the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert!(
                message.is_some_and(|m| m.contains("out of range")),
                "{message:?}"
            );
            assert_eq!(lane_runs(&lp, 2).0, vec![1; 2]);
        });
    }

    #[test]
    fn scopes_interleaved_with_encode_rounds_give_identical_output() {
        let delta = delta_of(4096);
        let chunked = EncodePlan {
            chunk_pages: Some(256),
            ..SHARDS
        };
        let mut pool = BufferPool::new();
        let reference = encode(&delta, chunked, &mut pool, &LanePool::new());
        let lp = LanePool::new();
        for lanes in [2, 4, 8, 3] {
            let sums: Vec<AtomicU64> = (0..lanes).map(|_| AtomicU64::new(0)).collect();
            let sum_lane = |lane: usize| {
                let mine = delta.entries().iter().skip(lane).step_by(lanes);
                let sum = mine.map(|(page, _)| page.frame()).sum();
                sums[lane].store(sum, Ordering::Relaxed);
            };
            lp.scope(lanes - 1, &|worker| sum_lane(worker + 1), || sum_lane(0));
            let total: u64 = sums.iter().map(|s| s.load(Ordering::Relaxed)).sum();
            assert_eq!(
                total,
                (0..4096).map(|f| f * 2).sum::<u64>(),
                "lanes={lanes}"
            );
            let segments = encode(&delta, chunked, &mut pool, &lp);
            assert_eq!(segments, reference, "lanes={lanes}");
            for seg in segments {
                pool.recycle(seg);
            }
        }
        assert_eq!(lp.totals().rounds, 4);
        assert_eq!(lp.workers_spawned(), 7);
    }

    #[test]
    fn corrupted_payload_fails_restore() {
        let delta = delta_of(2048);
        let mut pool = BufferPool::new();
        let lp = LanePool::new();
        let plan = EncodePlan {
            lanes: 2,
            mode: PayloadMode::Materialized,
            ..SHARDS
        };
        let segs = encode(&delta, plan, &mut pool, &lp);
        let mut flipped = segs[1].to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let mut replica = GuestMemory::new(ByteSize::from_mib(32)).unwrap();
        let mut restorer = SegmentRestorer::new(&mut replica, true);
        restorer.accept(&segs[0]).unwrap();
        assert!(restorer.accept(&Bytes::from(flipped)).is_err());
        // The good segment stays; the bad one left nothing behind.
        assert_eq!(restorer.installed(), 1024);
        assert_eq!(replica.touched_pages(), 1024);
    }

    /// A v3 page-columns frame as a hostile sender would forge it: any
    /// meta and payload column bytes under a claimed `count`, with the
    /// header, both column checksums and the frame checksum (all plain
    /// FNV, all forgeable) made self-consistent.
    fn forged_columns_frame(count: u32, meta: &[u8], payload: &[u8]) -> Bytes {
        use here_vmstate::wire::{checksum, frame_checksum};
        let mut record = Vec::new();
        record.extend_from_slice(&0u64.to_be_bytes());
        record.extend_from_slice(&count.to_be_bytes());
        record.extend_from_slice(&(meta.len() as u32).to_be_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        record.extend_from_slice(&checksum(meta).to_be_bytes());
        record.extend_from_slice(&checksum(payload).to_be_bytes());
        let outer = frame_checksum(0x09, &record);
        record.extend_from_slice(meta);
        record.extend_from_slice(payload);
        let mut frame = vec![0x09];
        frame.extend_from_slice(&(record.len() as u32).to_be_bytes());
        frame.extend_from_slice(&outer.to_be_bytes());
        frame.extend_from_slice(&record);
        Bytes::from(frame)
    }

    #[test]
    fn hostile_v3_frames_are_typed_errors_and_install_nothing() {
        /// `u64::MAX` as a LEB128 varint.
        const MAX: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        const META: u8 = 0;
        const DELTA: u8 = 3;
        // One honest mode run of 1, then a run whose length wraps the
        // running page total back under the count.
        let wrapping_run = [&[0, 2, META, 1, META][..], &MAX, &[1, 1, 0, 0]].concat();
        // One delta page whose only run sits at an offset that wraps
        // `offset + len` back inside the page.
        let wrapping_offset = [&[1][..], &MAX, &[1, 0xaa]].concat();
        // A frame gap of zero three ways the encoder never writes it: a
        // padding zero group, and bits in the tenth byte that shift out.
        let padded = |gap: &[u8]| forged_columns_frame(1, &[gap, &[META, 1, 1, 0]].concat(), &[]);
        let nine = [0x80u8; 9];
        let cases: [(&str, Bytes, &str); 5] = [
            (
                "padded varint",
                padded(&[0x80, 0x00]),
                "varint is not minimal",
            ),
            (
                "tenth varint byte 0x02",
                padded(&[&nine[..], &[0x02]].concat()),
                "varint overflows 64 bits",
            ),
            (
                "tenth varint byte 0x7e",
                padded(&[&nine[..], &[0x7e]].concat()),
                "varint overflows 64 bits",
            ),
            (
                "mode run",
                forged_columns_frame(2, &wrapping_run, &[]),
                "mode run overflows page count",
            ),
            (
                "delta run",
                forged_columns_frame(1, &[0, DELTA, 1, 1, 0], &wrapping_offset),
                "delta run out of page bounds",
            ),
        ];
        for (name, frame, why) in cases {
            let mut stream = BytesMut::new();
            write_preamble_versioned(&mut stream, here_vmstate::wire::VERSION_V3);
            stream.extend_from_slice(&frame);
            let dec = StreamDecoder::new(stream.freeze()).unwrap();
            assert_eq!(
                dec.collect_records().unwrap_err(),
                here_vmstate::WireError::BadPayload(why),
                "{name}"
            );

            let mut replica = GuestMemory::new(ByteSize::from_mib(16)).unwrap();
            let mut restorer =
                SegmentRestorer::new_versioned(&mut replica, false, here_vmstate::wire::VERSION_V3);
            let err = restorer.accept(&frame).unwrap_err();
            assert!(
                matches!(err, CoreError::Wire(here_vmstate::WireError::BadPayload(w)) if w == why),
                "{name}: {err:?}"
            );
            assert_eq!(restorer.installed(), 0, "{name}");
            assert_eq!(replica.touched_iter().count(), 0, "{name}");
        }
    }

    #[test]
    fn hostile_segments_rejected_after_decode_install_nothing() {
        use here_vmstate::wire::{encode_page_batch_into, encode_record_into};
        let rec = |version| PageVersion {
            version,
            last_writer: 0,
        };
        let frames = |n: u64, version| -> Vec<(PageId, PageVersion)> {
            (0..n).map(|f| (PageId::new(f), rec(version))).collect()
        };
        // One 0x08 record of eight pages, honest checksum, the seventh
        // page's content one bit off its version record.
        let mut diverged = BytesMut::new();
        let mut writer = PageDataWriter::new(&mut diverged);
        let mut image = [0u8; PAGE_SIZE as usize];
        for (page, rec) in frames(8, 7) {
            materialize_content_into(page, rec, &mut image);
            image[100] ^= u8::from(page.frame() == 6);
            writer.push(page, rec, &image);
        }
        writer.finish();
        // One 0x03 record whose third frame is one past a 16-page replica.
        let mut out_of_range = BytesMut::new();
        let mut entries = frames(4, 7);
        entries[2].0 = PageId::new(16);
        encode_page_batch_into(&entries, &mut out_of_range);
        // Two records in one segment, the second with a flipped payload bit.
        let mut second_corrupt = BytesMut::new();
        encode_page_batch_into(&frames(4, 7), &mut second_corrupt);
        encode_record_into(&Record::Ack { seq: 1 }, &mut second_corrupt);
        *second_corrupt.last_mut().unwrap() ^= 1;

        for (name, segment) in [
            ("diverged content", diverged),
            ("frame out of range", out_of_range),
            ("corrupt second record", second_corrupt),
        ] {
            let mut replica = GuestMemory::new(ByteSize::from_bytes(16 * PAGE_SIZE)).unwrap();
            let mut restorer = SegmentRestorer::new(&mut replica, true);
            let mut good = BytesMut::new();
            encode_page_batch_into(&frames(2, 1), &mut good);
            restorer.accept(&good.freeze()).unwrap();
            restorer.accept(&segment.freeze()).expect_err(name);
            assert_eq!(restorer.installed(), 2, "{name}");
            let held: Vec<_> = replica.touched_iter().collect();
            assert_eq!(held, frames(2, 1), "{name}");
        }
    }

    /// One page of a generated page record: frame, version, writer. The
    /// frames make gaps of 0, negative, huge (and past `i64::MAX`), the
    /// versions and writers sit near zero or their type's maximum.
    fn page_strategy() -> impl Strategy<Value = (u64, u32, u16)> {
        (0u8..8, any::<u64>()).prop_map(|(pick, x)| {
            let frame = match pick {
                0..=3 => x % 64,
                4..=5 => x % 20_000,
                _ => x,
            };
            let near_max = pick % 4 == 3;
            let version = if near_max {
                u32::MAX - (x >> 40) as u32 % 4
            } else {
                (x >> 40) as u32 % 16
            };
            let writer = if near_max {
                u16::MAX - (x >> 50) as u16 % 4
            } else {
                (x >> 50) as u16 % 8
            };
            (frame, version, writer)
        })
    }

    /// A generated page record: a v2 page batch or a v3 columns record,
    /// its pages, and for columns either every mode `Meta` or the modes
    /// the runs `(mode, pages)` give, repeated as needed.
    type GenRecord = (bool, Vec<(u64, u32, u16)>, bool, Vec<(u8, usize)>);

    fn record_strategy(full_pages: bool) -> impl Strategy<Value = GenRecord> {
        let mode = if full_pages { 0u8..4 } else { 0u8..2 };
        (
            any::<bool>(),
            proptest::collection::vec(page_strategy(), 0..20),
            any::<bool>(),
            proptest::collection::vec((mode, 1usize..24), 1..5),
        )
    }

    /// Encodes `record` into `out`. Without full pages, mode 1 alternates
    /// zero pages with deltas; mode 2 is a full page, mode 3 a delta.
    fn encode_generated(record: &GenRecord, out: &mut BytesMut) {
        let (columns, pages, all_meta, runs) = record;
        let entries: Vec<(PageId, PageVersion)> = pages
            .iter()
            .map(|&(frame, version, last_writer)| {
                let rec = PageVersion {
                    version,
                    last_writer,
                };
                (PageId::new(frame), rec)
            })
            .collect();
        if !columns {
            return encode_page_batch_into(&entries, out);
        }
        if *all_meta {
            return encode_page_columns_meta_into(7, &entries, out);
        }
        let modes = runs
            .iter()
            .flat_map(|&(mode, n)| std::iter::repeat_n(mode, n))
            .cycle();
        let mut batch = here_vmstate::wire::PageColumnsBatch::new(7);
        for (i, ((page, rec), mode)) in entries.into_iter().zip(modes).enumerate() {
            let delta = || {
                let at = (page.frame() % 4000) as u32;
                PagePayload::Delta(vec![(at, Bytes::from(vec![0xa5; 1 + i % 5]))])
            };
            let payload = match mode {
                0 => PagePayload::Meta,
                1 if i % 2 == 0 => PagePayload::Zero,
                1 | 3 => delta(),
                _ => PagePayload::Full(Bytes::from(vec![i as u8; PAGE_CONTENT_BYTES])),
            };
            batch.push(page, rec, payload);
        }
        here_vmstate::wire::encode_page_columns_into(&batch, out);
    }

    /// `segment` received record by record through `receive` into a
    /// 64 MiB replica: the pairs staged, or the error, variant and
    /// message (`Debug`).
    fn receive_all(
        segment: &[u8],
        version: u16,
        receive: ReceiveStep,
        replica: &GuestMemory,
    ) -> Result<Vec<u64>, String> {
        let mut head = BytesMut::new();
        write_preamble_versioned(&mut head, version);
        head.extend_from_slice(segment);
        let mut dec = StreamDecoder::new(head.freeze()).map_err(|e| format!("{e:?}"))?;
        let mut staged = Vec::new();
        loop {
            match receive(&mut dec, replica, None, &mut staged) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => return Err(format!("{e:?}")),
            }
        }
        Ok(staged
            .iter()
            .flat_map(|(page, rec)| [page.frame(), rec.version.into(), rec.last_writer.into()])
            .collect())
    }

    /// Re-seals every whole frame of `segment` after an edit: a columns
    /// frame's two column digests (when its lengths still fit), then each
    /// frame's checksum, so the edit reaches the structural checks.
    fn reseal(segment: &mut [u8]) {
        let word = |b: &[u8], at: usize| u32::from_be_bytes(b[at..at + 4].try_into().unwrap());
        let mut at = 0;
        while at + 9 <= segment.len() {
            let (tag, len) = (segment[at], word(segment, at + 1) as usize);
            let payload = at + 9;
            let Some(end) = payload.checked_add(len).filter(|&e| e <= segment.len()) else {
                return;
            };
            let covered = if tag == 0x09 && len >= COLUMNS_HEADER_BYTES {
                let meta_at = payload + COLUMNS_HEADER_BYTES;
                let meta_end = meta_at.checked_add(word(segment, payload + 12) as usize);
                let pay_end =
                    meta_end.and_then(|m| m.checked_add(word(segment, payload + 16) as usize));
                if let (Some(meta_end), Some(pay_end)) = (meta_end, pay_end.filter(|&p| p <= end)) {
                    let meta_sum = checksum(&segment[meta_at..meta_end]);
                    let pay_sum = checksum(&segment[meta_end..pay_end]);
                    segment[payload + 20..payload + 24].copy_from_slice(&meta_sum.to_be_bytes());
                    segment[payload + 24..payload + 28].copy_from_slice(&pay_sum.to_be_bytes());
                }
                payload..payload + COLUMNS_HEADER_BYTES
            } else {
                payload..end
            };
            let sum = frame_checksum(tag, &segment[covered]);
            segment[at + 5..at + 9].copy_from_slice(&sum.to_be_bytes());
            at = end;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The staging decode stages exactly the pairs the record-then-
        /// `stage` reference stages, in order, and on every truncation
        /// and every single-byte edit (raw, and re-sealed so it passes
        /// the checksums) raises the same error, variant and message.
        #[test]
        fn staging_decode_matches_the_reference(
            full_pages in any::<bool>(),
            records in proptest::collection::vec(record_strategy(false), 1..4),
            with_full in proptest::collection::vec(record_strategy(true), 1..3),
        ) {
            let records = if full_pages { with_full } else { records };
            let replica = GuestMemory::new(ByteSize::from_mib(64)).unwrap();
            for version in [VERSION, here_vmstate::wire::VERSION_V3] {
                let mut segment = BytesMut::new();
                for record in &records {
                    if version == VERSION && record.0 {
                        continue; // a v2 stream carries no columns record
                    }
                    encode_generated(record, &mut segment);
                }
                encode_record_into(&Record::Ack { seq: 1 }, &mut segment);
                let same = |bytes: &[u8]| {
                    let staged = receive_all(bytes, version, stage_next, &replica);
                    let want = receive_all(bytes, version, reference::stage_next, &replica);
                    (staged == want).then_some(()).ok_or((staged, want))
                };
                if let Err((staged, want)) = same(&segment) {
                    prop_assert_eq!(staged, want, "honest");
                }
                if full_pages {
                    continue; // 4 KiB pages: the edits below would be slow
                }
                for cut in 0..segment.len() {
                    if let Err((staged, want)) = same(&segment[..cut]) {
                        prop_assert_eq!(staged, want, "cut at {}", cut);
                    }
                }
                for at in 0..segment.len() {
                    for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xff] {
                        let mut edited = segment.to_vec();
                        edited[at] ^= mask;
                        if let Err((staged, want)) = same(&edited) {
                            prop_assert_eq!(staged, want, "byte {} ^ {:#x}", at, mask);
                        }
                        reseal(&mut edited);
                        if let Err((staged, want)) = same(&edited) {
                            prop_assert_eq!(staged, want, "byte {} ^ {:#x}, resealed", at, mask);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        /// Tasks partition `0..n` into contiguous, in-order, non-empty
        /// ranges; shard framing cuts them where `MemoryDelta::shards`
        /// does, at most one per lane.
        #[test]
        fn plan_tasks_partitions_the_delta(
            n in 0usize..20_000,
            lanes in 1u32..=16,
            chunk_pages in proptest::option::of(1u32..5_000),
        ) {
            let plan = EncodePlan { lanes, chunk_pages, ..SHARDS };
            let mut tasks = Vec::new();
            plan_tasks(n, &plan, &mut tasks);
            let mut next = 0;
            for &(lo, hi) in &tasks {
                prop_assert_eq!(lo, next);
                prop_assert!(hi > lo);
                next = hi;
            }
            prop_assert_eq!(next, n);
            if chunk_pages.is_none() {
                let delta = delta_of(n as u64);
                let shards: Vec<usize> =
                    delta.shards(lanes as usize).iter().map(|s| s.len()).collect();
                let cut: Vec<usize> = tasks.iter().map(|&(lo, hi)| hi - lo).collect();
                prop_assert_eq!(cut, shards);
                prop_assert!(tasks.len() <= n.min(lanes as usize));
            }
        }
    }
}
