//! Mutation fuzzing of the four decoders that take bytes from outside:
//! the v2/v3 `StreamDecoder` (whole streams, page-columns records
//! included) and the two-pass receive path behind
//! `SegmentRestorer::accept` (bare lane segments), the `IncidentBundle`
//! reader and `here-bench`'s `json::parse`.
//!
//! Each target starts from valid encodings, applies one to three
//! structure-aware mutations (bit flip, byte smash, truncate, splice, a
//! length or count field ±1 / ×2^k / MAX, a tag one bit off) and, for half
//! the inputs, recomputes every checksum the format carries so the
//! mutation reaches the structural decoder instead of dying at the first
//! digest. The seed and the budget are fixed, so a run is reproducible.
//!
//! Properties, checked on every input:
//!
//! 1. the decoder never panics;
//! 2. while it runs, live heap grows by at most [`ALLOC_FACTOR`] × input
//!    length + [`ALLOC_SLACK`] (a counting `#[global_allocator]`): no
//!    length read from the input sizes an allocation the input could not
//!    fill;
//! 3. a rejection is one of the typed errors the entry point documents;
//! 4. an accepted input re-encodes to exactly the input bytes (wire:
//!    `encode_record_into` per record; bundle: `encode()`; JSON:
//!    `parse(write(v)) == v`) — nothing is read that the encoder would
//!    not have written;
//! 5. a segment `SegmentRestorer::accept` rejects leaves the replica and
//!    `installed()` as they were, and an accepted one leaves exactly its
//!    pages installed.
//!
//! `hostile_corpus.txt` (one `target:hex` per line) is replayed through
//! the same checks before the random budget: every input that ever broke
//! a property goes there, so it stays fixed. A failure prints the line to
//! add.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::{Bytes, BytesMut};
use here_bench::json;
use here_core::dataplane::SegmentRestorer;
use here_core::{
    CoreError, FaultKind, FaultPlan, IncidentBundle, IncidentTrigger, ReplicationConfig,
    ScenarioSpec, WorkloadSpec, BUNDLE_VERSION,
};
use here_hypervisor::arch::ArchRegs;
use here_hypervisor::devices::DeviceIdentity;
use here_hypervisor::memory::{materialize_content, GuestMemory, PageVersion};
use here_hypervisor::{HvError, HypervisorKind, PageId, PAGE_SIZE};
use here_sim_core::rate::ByteSize;
use here_sim_core::time::SimDuration;
use here_vmstate::wire::{
    checksum, encode_record_into, fnv32, frame_checksum, write_preamble_versioned,
    PageColumnsBatch, PageDataBatch, PagePayload, COLUMNS_HEADER_BYTES, PREAMBLE_BYTES, VERSION,
    VERSION_V3,
};
use here_vmstate::{CpuStateCir, MemoryDelta, Record, StreamDecoder, WireError};

// ---------------------------------------------------------------------------
// The counting allocator
// ---------------------------------------------------------------------------

/// Live heap may grow by this many bytes per input byte while a decoder
/// runs. The densest honest expansion is a v3 delta run (two payload
/// bytes become a 32-byte `(u32, Bytes)` in a doubling `Vec`) and a JSON
/// `[0]` (four bytes become a four-slot `Vec<Json>`), both under 40×.
const ALLOC_FACTOR: usize = 48;
/// Fixed allowance on top: the decoder's segment queue, one materialized
/// page and its base for the content check, a blank bundle.
const ALLOC_SLACK: usize = 32 << 10;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Per-thread bookkeeping: the test threads fuzz side by side and free
/// what they allocate themselves.
fn note(grown: usize, shrunk: usize) {
    let _ = LIVE.try_with(|live| {
        let now = (live.get() + grown).saturating_sub(shrunk);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches two
// const-initialised thread-local `Cell`s and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and checks property 2 for an input of `len` bytes.
fn bounded<T>(len: usize, f: impl FnOnce() -> T) -> Result<T, String> {
    let base = LIVE.get();
    PEAK.set(base);
    let out = f();
    let grew = PEAK.get().saturating_sub(base);
    if grew > ALLOC_FACTOR * len + ALLOC_SLACK {
        return Err(format!("{grew} bytes of heap for {len} bytes of input"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The mutator
// ---------------------------------------------------------------------------

/// splitmix64: all the randomness a reproducible run needs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; 0 when `n` is 0.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// How a target's bytes are laid out: where its length fields and tags
/// are, and which digests cover what.
#[derive(Clone, Copy)]
enum Format {
    /// Wire frames starting at this offset (a stream has a preamble, a
    /// lane segment does not).
    Wire(usize),
    /// The `HEREBUNDLE` text document.
    Bundle,
    /// A `BENCH_*.json` document.
    Json,
}

fn be(bytes: &[u8], at: usize, width: usize) -> Option<u64> {
    let field = bytes.get(at..at + width)?;
    Some(field.iter().fold(0, |v, &b| v << 8 | u64::from(b)))
}

fn put_be(bytes: &mut [u8], at: usize, width: usize, v: u64) {
    bytes[at..at + width].copy_from_slice(&v.to_be_bytes()[8 - width..]);
}

/// `(frame offset, payload end)` of every frame whose header fits, as the
/// bytes' own length fields describe them; a payload that runs past the
/// end is clipped to it.
fn frames(bytes: &[u8], mut at: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    while let Some(len) = be(bytes, at + 1, 4) {
        if at + 9 > bytes.len() {
            break;
        }
        let end = (at + 9).saturating_add(len as usize).min(bytes.len());
        out.push((at, end));
        at = end;
    }
    out
}

/// Tag offsets and `(offset, width)` of every binary length or count a
/// wire decoder trusts: frame lengths, the `0x03` page count, the header's
/// name length, the three `0x09` header counts and the first bytes of its
/// meta column (varints, one byte at a time).
fn wire_fields(bytes: &[u8], start: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
    let mut tags = Vec::new();
    let mut fields = Vec::new();
    for (at, end) in frames(bytes, start) {
        tags.push(at);
        fields.push((at + 1, 4));
        let p = at + 9;
        match bytes[at] {
            0x01 => fields.push((p + 1, 2)),
            0x03 => fields.push((p, 4)),
            0x09 => {
                fields.extend([(p + 8, 4), (p + 12, 4), (p + 16, 4)]);
                fields.extend((p + COLUMNS_HEADER_BYTES..end).take(24).map(|at| (at, 1)));
            }
            _ => {}
        }
    }
    fields.retain(|&(at, width)| at + width <= bytes.len());
    (tags, fields)
}

/// Byte ranges of the decimal numbers in a text document.
fn digit_runs(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = bytes[at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if len > 0 {
            runs.push((at, at + len));
        }
        at += len.max(1);
    }
    runs
}

/// A length as a hostile sender would forge it.
fn forged(v: u64, rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => v.wrapping_add(1),
        1 => v.wrapping_sub(1),
        2 => v.max(1) << (1 + rng.below(40)),
        _ => u64::MAX,
    }
}

fn mutate_once(bytes: &mut Vec<u8>, format: Format, seeds: &[Vec<u8>], rng: &mut Rng) {
    let at = rng.below(bytes.len());
    match rng.below(7) {
        0 if !bytes.is_empty() => bytes[at] ^= 1 << rng.below(8),
        1 if !bytes.is_empty() => bytes[at] = [0x00, 0xff, 0x80, rng.next() as u8][rng.below(4)],
        2 => bytes.truncate(at),
        3 => {
            // Splice: a range of some seed over, or into, this input.
            let donor = &seeds[rng.below(seeds.len())];
            let from = rng.below(donor.len());
            let piece = &donor[from..from + rng.below(donor.len() - from).min(64)];
            let over = if rng.below(2) == 0 { piece.len() } else { 0 };
            bytes.splice(at..(at + over).min(bytes.len()), piece.iter().copied());
        }
        4 | 5 => match format {
            Format::Wire(start) => {
                let (_, fields) = wire_fields(bytes, start);
                if let Some(&(at, width)) = fields.get(rng.below(fields.len())) {
                    let v = be(bytes, at, width).expect("field inside the input");
                    put_be(bytes, at, width, forged(v, rng));
                }
            }
            Format::Bundle | Format::Json => {
                let runs = digit_runs(bytes);
                if let Some(&(from, to)) = runs.get(rng.below(runs.len())) {
                    let v = std::str::from_utf8(&bytes[from..to])
                        .expect("ascii digits")
                        .parse()
                        .unwrap_or(u64::MAX);
                    bytes.splice(from..to, forged(v, rng).to_string().into_bytes());
                }
            }
        },
        _ => match format {
            // A tag one bit from what it was.
            Format::Wire(start) => {
                let (tags, _) = wire_fields(bytes, start);
                if let Some(&at) = tags.get(rng.below(tags.len())) {
                    bytes[at] ^= 1 << rng.below(4);
                }
            }
            // Nesting ×2^k.
            Format::Json => {
                let open = vec![b'['; 1 << rng.below(8)];
                bytes.splice(at..at, open);
            }
            // A payload line dropped.
            Format::Bundle => {
                let end = bytes[at..].iter().position(|&b| b == b'\n');
                bytes.drain(at..end.map_or(bytes.len(), |n| at + n + 1));
            }
        },
    }
}

/// Recomputes every digest the format carries over the bytes as they now
/// are, so a mutated input passes its checksums.
fn reseal(bytes: &mut Vec<u8>, format: Format) {
    match format {
        Format::Wire(start) => {
            for (at, end) in frames(bytes, start) {
                let p = at + 9;
                let mut covered = end;
                if bytes[at] == 0x09 && end - p >= COLUMNS_HEADER_BYTES {
                    // Column digests first (they live in the header the
                    // frame digest covers).
                    covered = p + COLUMNS_HEADER_BYTES;
                    let meta_len = be(bytes, p + 12, 4).expect("header fits") as usize;
                    let meta_end = covered.saturating_add(meta_len).min(end);
                    let meta_sum = checksum(&bytes[covered..meta_end]);
                    let payload_sum = checksum(&bytes[meta_end..end]);
                    put_be(bytes, p + 20, 4, meta_sum.into());
                    put_be(bytes, p + 24, 4, payload_sum.into());
                }
                let sum = frame_checksum(bytes[at], &bytes[p..covered]);
                put_be(bytes, at + 5, 4, sum.into());
            }
        }
        Format::Bundle => {
            let sep = b"\n---\n";
            if let Some(at) = bytes.windows(sep.len()).position(|w| w == sep) {
                let payload = bytes.split_off(at + sep.len());
                *bytes = format!(
                    "HEREBUNDLE v{BUNDLE_VERSION}\nlen={}\ncrc=0x{:08x}\n---\n",
                    payload.len(),
                    fnv32(&payload)
                )
                .into_bytes();
                bytes.extend(payload);
            }
        }
        Format::Json => {}
    }
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// Mutated inputs per target.
const BUDGET: usize = if cfg!(debug_assertions) {
    20_000
} else {
    200_000
};

const CORPUS: &str = include_str!("hostile_corpus.txt");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|at| u8::from_str_radix(&text[at..at + 2], 16).expect("corpus line is hex"))
        .collect()
}

/// `Ok(true)` accepted, `Ok(false)` rejected, `Err` a property broken.
type Verdict = Result<bool, String>;

/// Checks one input, turning a panic into a report that names it.
fn run(
    target: &str,
    origin: std::fmt::Arguments<'_>,
    input: &[u8],
    check: &impl Fn(&[u8]) -> Verdict,
) -> bool {
    let verdict = catch_unwind(AssertUnwindSafe(|| check(input)))
        .unwrap_or_else(|_| Err("the decoder panicked".into()));
    match verdict {
        Ok(accepted) => accepted,
        Err(why) => panic!(
            "{target}, {origin}: {why}\nadd to hostile_corpus.txt:\n{target}:{}",
            hex(input)
        ),
    }
}

/// Replays the corpus lines of `target`, checks that every seed is
/// accepted as it stands, then spends the budget on mutations.
fn fuzz(
    target: &str,
    format: Format,
    rng_seed: u64,
    seeds: &[Vec<u8>],
    check: impl Fn(&[u8]) -> Verdict,
) {
    let mut replayed = 0;
    for (n, line) in CORPUS.lines().enumerate() {
        if let Some(input) = line.strip_prefix(target).and_then(|l| l.strip_prefix(':')) {
            let origin = format_args!("corpus line {}", n + 1);
            run(target, origin, &unhex(input), &check);
            replayed += 1;
        }
    }
    for (n, seed) in seeds.iter().enumerate() {
        assert!(
            run(target, format_args!("seed {n}"), seed, &check),
            "{target}: seed {n} is not accepted unmutated"
        );
    }
    let mut rng = Rng(rng_seed);
    let (mut accepted, mut unchanged) = (0, 0);
    for iteration in 0..BUDGET {
        let seed = &seeds[rng.below(seeds.len())];
        let mut input = seed.clone();
        for _ in 0..1 + rng.below(3) {
            mutate_once(&mut input, format, seeds, &mut rng);
        }
        if rng.below(2) == 0 {
            reseal(&mut input, format);
        }
        unchanged += usize::from(&input == seed);
        let origin = format_args!("seed {rng_seed:#x} iteration {iteration}");
        accepted += usize::from(run(target, origin, &input, &check));
    }
    println!(
        "{target}: {replayed} corpus lines, {BUDGET} mutated inputs, {accepted} accepted \
         ({unchanged} of them the seed itself), {} rejected, 0 accepted but not canonical",
        BUDGET - accepted
    );
}

// ---------------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------------

fn rec(version: u32, last_writer: u16) -> PageVersion {
    PageVersion {
        version,
        last_writer,
    }
}

/// Pages the segment target's replica holds before each input: frames
/// 0..8 at version 1, of 64.
fn pristine_replica() -> GuestMemory {
    let mut replica = GuestMemory::new(ByteSize::from_bytes(64 * PAGE_SIZE)).expect("valid size");
    for frame in 0..8 {
        replica
            .install_page(PageId::new(frame), rec(1, 0))
            .expect("in range");
    }
    replica
}

fn image(frame: u64, rec: PageVersion) -> Bytes {
    Bytes::from(materialize_content(PageId::new(frame), rec).to_vec())
}

/// A v3 record with every payload mode, each payload the honest image of
/// its version record over [`pristine_replica`].
fn honest_columns() -> PageColumnsBatch {
    let xor: Vec<u8> = image(5, rec(1, 0))
        .iter()
        .zip(image(5, rec(2, 1)).iter())
        .map(|(a, b)| a ^ b)
        .collect();
    let mut batch = PageColumnsBatch::new(7);
    batch.push(PageId::new(40), rec(3, 1), PagePayload::Meta);
    batch.push(PageId::new(2), rec(0, 0), PagePayload::Zero);
    batch.push(
        PageId::new(9),
        rec(4, 2),
        PagePayload::Full(image(9, rec(4, 2))),
    );
    batch.push(PageId::new(3), rec(1, 0), PagePayload::Delta(Vec::new()));
    batch.push(
        PageId::new(5),
        rec(2, 1),
        PagePayload::Delta(vec![(0, Bytes::from(xor))]),
    );
    batch.push(PageId::new(1), rec(9, 0), PagePayload::Meta);
    batch
}

fn honest_page_data(frames: std::ops::Range<u64>, version: u32) -> PageDataBatch {
    let mut batch = PageDataBatch::new();
    for frame in frames {
        batch.push(
            PageId::new(frame),
            rec(version, 1),
            image(frame, rec(version, 1)),
        );
    }
    batch
}

fn metas(frames: &[u64]) -> MemoryDelta {
    frames
        .iter()
        .map(|&f| (PageId::new(f), rec(f as u32 + 1, (f % 3) as u16)))
        .collect()
}

fn control_records() -> Vec<Record> {
    let mut regs = ArchRegs::reset_state();
    regs.pending_interrupt = Some(0x31);
    vec![
        Record::StreamHeader {
            source: HypervisorKind::Xen,
            vm_name: "protected-vm".into(),
            memory_bytes: 1 << 30,
            vcpus: 2,
        },
        Record::CheckpointBegin { seq: 3 },
        Record::VcpuState {
            index: 1,
            cir: CpuStateCir { regs, online: true },
        },
        Record::Device(DeviceIdentity::Net {
            mac: [2, 0, 0, 0, 0, 1],
            mtu: 1500,
        }),
        Record::Device(DeviceIdentity::Block {
            volume_id: 7,
            capacity_sectors: 1 << 21,
            read_only: true,
        }),
        Record::Device(DeviceIdentity::Console),
        Record::CheckpointEnd {
            seq: 3,
            pages_total: 6,
        },
        Record::Ack { seq: 3 },
    ]
}

fn encoded(version: Option<u16>, records: &[Record]) -> Vec<u8> {
    let mut out = BytesMut::new();
    if let Some(version) = version {
        write_preamble_versioned(&mut out, version);
    }
    for record in records {
        encode_record_into(record, &mut out);
    }
    out.to_vec()
}

/// Decodes a whole stream and re-encodes every record: properties 2 and
/// 4 for wire bytes. Returns the pages carried, or the decoder's error.
fn decode_canonically(
    stream: &[u8],
    input_len: usize,
) -> Result<Result<Vec<(PageId, PageVersion)>, WireError>, String> {
    let shared = Bytes::from(stream.to_vec());
    let mut dec = match bounded(input_len, || StreamDecoder::new(shared))? {
        Ok(dec) => dec,
        Err(e) => return Ok(Err(e)),
    };
    let mut again = BytesMut::new();
    write_preamble_versioned(&mut again, dec.version());
    let mut pages = Vec::new();
    loop {
        match bounded(input_len, || dec.next_record())? {
            Ok(Some(record)) => {
                encode_record_into(&record, &mut again);
                match record {
                    Record::PageBatch(b) => pages.extend_from_slice(b.entries()),
                    Record::PageDataBatch(b) => {
                        pages.extend(b.pages().iter().map(|&(page, rec, _)| (page, rec)))
                    }
                    Record::PageColumns(b) => {
                        pages.extend(b.entries().iter().map(|&(page, rec, _)| (page, rec)))
                    }
                    _ => {}
                }
            }
            Ok(None) => break,
            Err(e) => return Ok(Err(e)),
        }
    }
    if again[..] != *stream {
        return Err("accepted, but re-encoding gives different bytes".into());
    }
    Ok(Ok(pages))
}

/// What `StreamDecoder::new` + `next_record` may raise from bytes alone.
fn stream_error_is_typed(e: &WireError) -> Result<(), String> {
    match e {
        WireError::DeltaBaseMismatch { .. } | WireError::StaleVersion { .. } => Err(format!(
            "{e:?} is not an error this entry point raises from bytes"
        )),
        _ => Ok(()),
    }
}

#[test]
fn hostile_mutations_stream_decoder() {
    let mut v2 = control_records();
    v2.insert(2, Record::PageBatch(metas(&[3, 1, 60, 61, 62])));
    v2.insert(3, Record::PageDataBatch(honest_page_data(4..5, 2)));
    let mut v3 = control_records();
    v3.insert(2, Record::PageColumns(honest_columns()));
    v3.insert(3, Record::PageColumns(PageColumnsBatch::new(7)));
    let seeds = [encoded(Some(VERSION), &v2), encoded(Some(VERSION_V3), &v3)];
    fuzz(
        "stream",
        Format::Wire(PREAMBLE_BYTES),
        0x5eed_0001,
        &seeds,
        |input| match decode_canonically(input, input.len())? {
            Ok(_) => Ok(true),
            Err(e) => stream_error_is_typed(&e).map(|()| false),
        },
    );
}

#[test]
fn hostile_mutations_segment_restorer() {
    let seeds = [
        encoded(None, &[Record::PageColumns(honest_columns())]),
        encoded(
            None,
            &[
                Record::PageBatch(metas(&[0, 63, 7])),
                Record::PageDataBatch(honest_page_data(10..12, 5)),
            ],
        ),
        encoded(
            None,
            &[
                Record::PageDataBatch(honest_page_data(20..25, 2)),
                Record::PageColumns(PageColumnsBatch::new(0)),
                Record::Ack { seq: 1 },
            ],
        ),
    ];
    let pristine = pristine_replica();
    let mut preamble = BytesMut::new();
    write_preamble_versioned(&mut preamble, VERSION_V3);
    fuzz("segment", Format::Wire(0), 0x5eed_0002, &seeds, |input| {
        let segment = Bytes::from(input.to_vec());
        let mut replica = pristine.clone();
        let mut restorer = SegmentRestorer::new_versioned(&mut replica, true, VERSION_V3);
        let got = bounded(input.len(), || restorer.accept(&segment))?;
        let installed = restorer.installed();
        let stream = [&preamble[..], input].concat();
        let decoded = decode_canonically(&stream, input.len())?;
        match got {
            Err(e) => {
                match &e {
                    CoreError::Wire(e) => stream_error_is_typed(e)?,
                    CoreError::Hypervisor(HvError::PageOutOfRange { .. }) => {}
                    CoreError::InvalidScenario(why) if why.contains("diverged") => {}
                    other => return Err(format!("{other:?} is not a receive-path error")),
                }
                if installed != 0 || replica != pristine {
                    return Err(format!(
                        "rejected ({e}), yet installed() = {installed} and the replica {}",
                        if replica == pristine {
                            "is untouched"
                        } else {
                            "changed"
                        }
                    ));
                }
                Ok(false)
            }
            Ok(()) => {
                let pages =
                    decoded.map_err(|e| format!("accepted what the decoder rejects: {e}"))?;
                let mut expected = pristine.clone();
                for &(page, rec) in &pages {
                    expected
                        .install_page(page, rec)
                        .map_err(|e| format!("accepted {e}"))?;
                }
                if installed != pages.len() as u64 || replica != expected {
                    return Err(format!(
                        "accepted {} pages, installed() = {installed}, replica {}",
                        pages.len(),
                        if replica == expected {
                            "matches"
                        } else {
                            "differs"
                        }
                    ));
                }
                Ok(true)
            }
        }
    });
}

fn sample_bundle() -> IncidentBundle {
    IncidentBundle {
        spec: ScenarioSpec {
            name: "fuzz-seed".into(),
            memory_mib: 64,
            vcpus: 2,
            workload: WorkloadSpec::MemStress {
                percent: 30,
                rate: 20_000,
            },
            duration: SimDuration::from_secs(20),
            seed: 42,
            verify_consistency: true,
        },
        config: ReplicationConfig::dynamic(0.3, SimDuration::from_secs(25))
            .with_health_plane()
            .with_postmortem_capture()
            .with_wire_v3()
            .with_replica_wire_caps(vec![3, 2]),
        plan: Some(
            FaultPlan::new(7)
                .with_partition_span(4..=6, &[2], 10)
                .with_event_on(
                    3,
                    1,
                    FaultKind::Delay {
                        by: SimDuration::from_millis(5),
                    },
                )
                .with_event_at(
                    SimDuration::from_secs(8),
                    FaultKind::Exploit {
                        cve: 17,
                        reattack: true,
                    },
                ),
        ),
        fingerprint: 0xdead_beef_cafe_f00d,
        trigger: IncidentTrigger {
            trigger: "alert".into(),
            epoch: 6,
            at_nanos: 12_000_000_000,
            detail: "stale_replica firing \\ twice\r\n".into(),
            event: 417,
        },
    }
}

#[test]
fn hostile_mutations_incident_bundle() {
    let mut quiet = sample_bundle();
    quiet.plan = None;
    let seeds = [
        sample_bundle().encode().into_bytes(),
        quiet.encode().into_bytes(),
    ];
    fuzz("bundle", Format::Bundle, 0x5eed_0003, &seeds, |input| {
        let Ok(text) = std::str::from_utf8(input) else {
            return Ok(false);
        };
        match bounded(input.len(), || IncidentBundle::decode(text))? {
            Ok(bundle) if bundle.encode() == text => Ok(true),
            Ok(_) => Err("accepted, but encode() gives different bytes".into()),
            Err(CoreError::InvalidScenario(why)) if why.starts_with("incident bundle: ") => {
                Ok(false)
            }
            Err(other) => Err(format!("{other:?} is not a bundle error")),
        }
    });
}

/// Every `bundle:` corpus line is sealed under the current version: a
/// non-canonical spelling of a valid bundle, or a plan event that can
/// never fire. The fuzz replay counts any rejection as a pass, so a line
/// left at an old version (or with a stale `len`/`crc`) would pass at the
/// header without reaching the payload parser it guards: each must fail
/// at the canonical re-encode, or at its `event` line, instead.
#[test]
fn hostile_mutations_bundle_corpus_reaches_the_payload() {
    let reasons: Vec<String> = CORPUS
        .lines()
        .filter_map(|line| line.strip_prefix("bundle:"))
        .map(|input| {
            let bytes = unhex(input);
            let text = std::str::from_utf8(&bytes).expect("corpus bundle is UTF-8");
            let err = IncidentBundle::decode(text).expect_err("corpus bundle is rejected");
            err.to_string()
        })
        .collect();
    let canonical = "not the canonical encoding";
    let event = "field \"event\": ";
    let want = [
        canonical,
        canonical,
        canonical,
        canonical,
        "exploit 880 is not in the CVE corpus",
        "cannot fire at a time",
        "unparseable value \"8e9\"",
    ];
    assert_eq!(
        reasons.len(),
        want.len(),
        "bundle corpus lines: {reasons:?}"
    );
    for (line, (reason, want)) in reasons.iter().zip(want).enumerate() {
        let at_event = want == canonical || reason.contains(event);
        assert!(
            at_event && reason.contains(want),
            "bundle corpus line {line}: {reason}"
        );
    }
}

#[test]
fn hostile_mutations_json_parser() {
    let seeds = [
        include_bytes!("../../../baselines/BENCH_wire.json").to_vec(),
        include_bytes!("../../../baselines/BENCH_datapath.json").to_vec(),
        r#"{"s": "a\"\\é😀\n", "n": [-0.5e+3, 0, 12345678901234567890], "t": [true, false, null, {}, []]}"#
            .as_bytes()
            .to_vec(),
    ];
    fuzz("json", Format::Json, 0x5eed_0004, &seeds, |input| {
        let Ok(text) = std::str::from_utf8(input) else {
            return Ok(false);
        };
        match bounded(input.len(), || json::parse(text))? {
            Ok(value) if json::parse(&value.write()).as_ref() == Ok(&value) => Ok(true),
            Ok(_) => Err("accepted, but parse(write(v)) != v".into()),
            Err(why) if !why.is_empty() => Ok(false),
            Err(_) => Err("rejected without saying why".into()),
        }
    });
}
