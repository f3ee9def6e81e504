//! The versioned binary checkpoint stream codec.
//!
//! Replication traffic between the primary and secondary replication
//! engines is a record stream: a header identifying the source, then
//! repeated checkpoint rounds of page batches, vCPU states and device
//! identities, each round closed by an end-record carrying a checksum, and
//! acknowledged by the receiver. Every record is individually length-framed
//! and checksummed so a corrupted or truncated stream is detected instead
//! of silently building a diverged replica.
//!
//! The paper's own stream is libxc's migration v2 format extended for
//! kvmtool; ours is an original format serving the same role.
//!
//! Version 2 of the format grew a zero-copy data plane: records are framed
//! in place (tag + length + checksum patched over placeholders after the
//! payload is written, so no per-record scratch buffer exists), checksums
//! are the word-folded streaming [`StreamingChecksum`] instead of the
//! byte-serial FNV-1a of v1, page *content* travels in [`PageDataBatch`]
//! records (tag `0x08`) whose 4 KiB payloads decode as zero-copy [`Bytes`]
//! slices, and a stream may be a [`ScatterStream`] — an ordered list of
//! independently encoded segments that the decoder walks without ever
//! splicing them into one contiguous buffer. Per-worker encode lanes each
//! fill their own pooled `BytesMut` and the transfer stage just collects
//! the frozen segments.
//!
//! # What a decoder accepts
//!
//! Every checksum here is plain FNV, so every byte of a frame may have
//! been chosen by the sender. Bytes from outside are read through two
//! private cursors (`Reader` over a record, `Column` over one column of a
//! page-columns record, with the one LEB128 reader): a read past the end
//! is [`WireError::Truncated`], a wire-supplied count is bounded by the
//! bytes left before it sizes anything, and a record's decoder must
//! consume its payload exactly. The frame checksum is seeded with the
//! record tag ([`frame_checksum`]), so a flipped tag fails it like a
//! flipped payload byte. Values are canonical — varints minimal, flag bytes 0 or 1, adjacent
//! mode runs merged — so a stream that decodes re-encodes to the same
//! bytes ([`encode_record_into`] is the inverse of
//! [`StreamDecoder::next_record`], pinned by the mutation fuzzer in
//! `crates/bench/tests/hostile_mutations.rs`).
//!
//! # The wire is the staging buffer
//!
//! A receiver that only needs each page's `(PageId, PageVersion)` reads a
//! stream twice, over the same immutable bytes.
//! [`StreamDecoder::next_checked`] is the first pass: it checks every
//! record whole (frame and column checksums, structure, every value) and
//! hands a page record back as a [`PageFrame`] — its own bytes, parsed into
//! no pages, with its page count and highest frame. Only after the whole
//! stream passed does the receiver walk the frames it kept again with
//! [`PageFrame::for_each_page`], which only parses, checking nothing a
//! second time. So a stream that fails anywhere installs
//! nothing, and no receive-side buffer is sized by an epoch's page count.
//! [`StreamDecoder::next_record`] is built from the same check and the
//! same second walk, so the two raise the same error at the same byte on
//! every input, and the property tests that compare `next_record` with
//! the value-at-a-time reference cover the second walk too.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use here_hypervisor::arch::{ArchRegs, Segment};
use here_hypervisor::devices::DeviceIdentity;
use here_hypervisor::kind::HypervisorKind;
use here_hypervisor::memory::{
    materialize_group_interleaved, PageId, PageVersion, GROUP_PAGES, PAGE_SIZE, PAGE_WORDS,
};

use crate::cir::{CpuStateCir, MemoryDelta};
use crate::simd::{fold64, fold_words};

/// Stream magic: `"HERE"`.
pub const MAGIC: u32 = 0x4845_5245;
/// Current stream format version (2: in-place framing, word-folded
/// checksums, scatter-gather segments, page-content batches).
pub const VERSION: u16 = 2;
/// Opt-in stream format version 3: epoch-delta page columns.
///
/// A v3 stream may carry [`Record::PageColumns`] records — a columnar
/// page layout (all frame gaps contiguous, then the run-length-encoded
/// mode column, then versions, then writers, then all payloads) encoded
/// against a named *delta base epoch*, with zero-page suppression and
/// sparse XOR deltas for low-entropy rewrites. v2 streams remain fully
/// decodable; sessions negotiate the version per replica.
pub const VERSION_V3: u16 = 3;

/// Bytes of content carried per page in a [`PageDataBatch`] record.
pub const PAGE_CONTENT_BYTES: usize = PAGE_SIZE as usize;

/// Per-page metadata bytes on the wire (frame `u64` + version `u32` +
/// last-writer `u16`).
pub const PAGE_META_BYTES: usize = 14;

/// Errors raised while decoding a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The stream does not begin with the `HERE` magic.
    BadMagic(u32),
    /// The stream version is newer than this decoder understands.
    UnsupportedVersion(u16),
    /// The stream ended in the middle of a record.
    Truncated,
    /// An unknown record type byte was encountered.
    UnknownRecord(u8),
    /// A record's checksum did not match its payload.
    ChecksumMismatch {
        /// Checksum carried by the record.
        expected: u32,
        /// Checksum computed over the received payload.
        actual: u32,
    },
    /// A record payload was structurally invalid.
    BadPayload(&'static str),
    /// A v3 page-columns record named a delta base epoch the receiver does
    /// not hold, so its XOR deltas cannot be applied.
    DeltaBaseMismatch {
        /// Base epoch the stream encoded against.
        stream_base: u64,
        /// Committed epoch the receiver actually holds.
        replica_base: u64,
    },
    /// The stream preamble carries a version other than the one negotiated
    /// for this session — e.g. a v2 frame arriving after v3 was agreed.
    StaleVersion {
        /// Version negotiated for the session.
        negotiated: u16,
        /// Version the stream actually carries.
        actual: u16,
    },
    /// The meta column of a page-columns record failed its own checksum.
    MetaColumnCorrupt {
        /// Checksum carried by the record header.
        expected: u32,
        /// Checksum computed over the received meta column.
        actual: u32,
    },
    /// The payload column of a page-columns record failed its own checksum.
    PayloadColumnCorrupt {
        /// Checksum carried by the record header.
        expected: u32,
        /// Checksum computed over the received payload column.
        actual: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad stream magic {m:#010x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported stream version {v}"),
            WireError::Truncated => write!(f, "stream truncated mid-record"),
            WireError::UnknownRecord(t) => write!(f, "unknown record type {t:#04x}"),
            WireError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "record checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            WireError::BadPayload(msg) => write!(f, "bad record payload: {msg}"),
            WireError::DeltaBaseMismatch {
                stream_base,
                replica_base,
            } => {
                write!(
                    f,
                    "delta base mismatch: stream encoded against epoch {stream_base}, \
                     replica holds epoch {replica_base}"
                )
            }
            WireError::StaleVersion { negotiated, actual } => {
                write!(
                    f,
                    "stale stream version: negotiated v{negotiated}, got v{actual}"
                )
            }
            WireError::MetaColumnCorrupt { expected, actual } => {
                write!(
                    f,
                    "meta column checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            WireError::PayloadColumnCorrupt { expected, actual } => {
                write!(
                    f,
                    "payload column checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
        }
    }
}

impl Error for WireError {}

/// Convenience alias for wire results.
pub type WireResult<T> = Result<T, WireError>;

/// A decoded stream record.
///
/// `PageBatch` dwarfs the control records by design — a checkpoint is
/// almost entirely pages — and records are built in place, never moved
/// through hot paths, so boxing the batch would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Stream preamble: who is sending and what VM this is.
    StreamHeader {
        /// Format of the *source* hypervisor's native blobs.
        source: HypervisorKind,
        /// VM name.
        vm_name: String,
        /// Guest memory size in bytes.
        memory_bytes: u64,
        /// Number of vCPUs.
        vcpus: u32,
    },
    /// Opens checkpoint round `seq`.
    CheckpointBegin {
        /// Checkpoint sequence number.
        seq: u64,
    },
    /// A batch of memory pages (metadata only: frame + version).
    PageBatch(MemoryDelta),
    /// A batch of memory pages carrying their materialized 4 KiB contents.
    PageDataBatch(PageDataBatch),
    /// A v3 columnar page batch, delta-encoded against a base epoch.
    PageColumns(PageColumnsBatch),
    /// One vCPU's state in the common format.
    VcpuState {
        /// vCPU index.
        index: u32,
        /// Common-format CPU state.
        cir: CpuStateCir,
    },
    /// One device's stable identity.
    Device(DeviceIdentity),
    /// Closes checkpoint round `seq`.
    CheckpointEnd {
        /// Checkpoint sequence number.
        seq: u64,
        /// Total pages sent in the round (receiver cross-checks).
        pages_total: u64,
    },
    /// Receiver acknowledgement of round `seq` (flows backwards).
    Ack {
        /// Acknowledged checkpoint sequence number.
        seq: u64,
    },
}

/// What [`StreamDecoder::next_checked`] decoded.
///
/// Not boxed, for [`Record`]'s reason: one is built per frame and
/// matched at once.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Checked {
    /// A page record — a v2 page batch or page-data record, or a v3
    /// columns record — checked whole and parsed into no pages.
    Pages(PageFrame),
    /// Any other record, whole.
    Record(Record),
}

/// A page record [`StreamDecoder::next_checked`] accepted: its frame and
/// column checksums, its structure and every value in it were checked,
/// and none of its pages was copied out. It holds the record's own bytes,
/// a zero-copy slice of the received segment, so what was checked cannot
/// change before [`PageFrame::for_each_page`] reads the pages out of them.
#[derive(Debug, Clone, PartialEq)]
pub struct PageFrame {
    layout: PageLayout,
    /// The record's payload, as its frame carried it.
    payload: Bytes,
    count: usize,
    top: u64,
}

/// Where a checked page record keeps its pages' metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PageLayout {
    /// A v2 page batch: `count` 14-byte slots after the count.
    Batch,
    /// A v2 page-data record: one 14-byte meta every 4110 bytes.
    Data,
    /// A v3 columns record: the frame gaps from the meta column's start,
    /// the versions from `versions`, the writers from `writers`, each an
    /// offset into the payload.
    Columns {
        base_epoch: u64,
        versions: usize,
        writers: usize,
    },
}

impl PageFrame {
    /// Pages the record carries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` if the record carries no page.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The highest frame the record names (0 when it names none), found
    /// by the check, so a range check needs no walk of its own.
    pub fn top(&self) -> u64 {
        self.top
    }

    /// A columns record's delta base epoch; `None` for a v2 record.
    pub fn base_epoch(&self) -> Option<u64> {
        match self.layout {
            PageLayout::Columns { base_epoch, .. } => Some(base_epoch),
            PageLayout::Batch | PageLayout::Data => None,
        }
    }

    /// The record decoded whole, payloads included, as
    /// [`StreamDecoder::next_record`] returns it — for a receiver that
    /// checks page contents.
    pub fn record(&self) -> Record {
        let tag = match self.layout {
            PageLayout::Batch => TAG_PAGE_BATCH,
            PageLayout::Data => TAG_PAGE_DATA,
            PageLayout::Columns { .. } => TAG_PAGE_COLUMNS,
        };
        decode_page_record(tag, self.payload.clone()).expect("a checked page record decodes")
    }

    /// Hands each page's `(PageId, PageVersion)` to `each`, in record
    /// order. Parse and store only: the check accepted every byte read
    /// here, so nothing is checked again. A columns record's gap, version
    /// and writer columns are read in lock-step, eight values of each into
    /// stack arrays at a time.
    pub fn for_each_page(&self, mut each: impl FnMut(PageId, PageVersion)) {
        match self.layout {
            PageLayout::Batch => {
                for meta in self.payload[4..].chunks_exact(PAGE_META_BYTES) {
                    let (page, rec) = read_page_meta(meta.try_into().expect("exact chunk"));
                    each(page, rec);
                }
            }
            PageLayout::Data => {
                for page in self.payload.chunks_exact(PAGE_RECORD_BYTES) {
                    let meta = page
                        .first_chunk()
                        .expect("a page record starts with its meta");
                    let (page, rec) = read_page_meta(meta);
                    each(page, rec);
                }
            }
            PageLayout::Columns {
                versions, writers, ..
            } => {
                let column = |at| Column {
                    bytes: &self.payload,
                    owner: &self.payload,
                    at,
                };
                let mut gaps = column(COLUMNS_HEADER_BYTES);
                let (mut versions, mut writers) = (column(versions), column(writers));
                let (mut g, mut v, mut w) = ([0u64; 8], [0u64; 8], [0u64; 8]);
                let mut frame = 0u64;
                let mut left = self.count;
                while left > 0 {
                    let n = left.min(8);
                    gaps.fill(&mut g[..n]);
                    versions.fill(&mut v[..n]);
                    writers.fill(&mut w[..n]);
                    for k in 0..n {
                        frame = frame.wrapping_add_signed(unzigzag(g[k]));
                        let rec = PageVersion {
                            version: v[k] as u32,
                            last_writer: w[k] as u16,
                        };
                        each(PageId::new(frame), rec);
                    }
                    left -= n;
                }
            }
        }
    }
}

const TAG_HEADER: u8 = 0x01;
const TAG_CKPT_BEGIN: u8 = 0x02;
const TAG_PAGE_BATCH: u8 = 0x03;
const TAG_VCPU: u8 = 0x04;
const TAG_DEVICE: u8 = 0x05;
const TAG_CKPT_END: u8 = 0x06;
const TAG_ACK: u8 = 0x07;
const TAG_PAGE_DATA: u8 = 0x08;
const TAG_PAGE_COLUMNS: u8 = 0x09;

/// A decoded batch of pages with materialized contents.
///
/// On the wire each page is 14 metadata bytes followed by its 4 KiB
/// content, interleaved so an encode worker can stream pages one at a time
/// (see [`PageDataWriter`]); the batch carries no explicit count — the
/// record length must be a multiple of the per-page stride. Decoded
/// contents are zero-copy [`Bytes`] slices into the received segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageDataBatch {
    pages: Vec<(PageId, PageVersion, Bytes)>,
}

impl PageDataBatch {
    /// Empty batch.
    pub fn new() -> Self {
        PageDataBatch { pages: Vec::new() }
    }

    /// Empty batch with room for `cap` pages.
    pub fn with_capacity(cap: usize) -> Self {
        PageDataBatch {
            pages: Vec::with_capacity(cap),
        }
    }

    /// Appends one page.
    ///
    /// # Panics
    ///
    /// Panics if `content` is not exactly [`PAGE_CONTENT_BYTES`] long.
    pub fn push(&mut self, page: PageId, rec: PageVersion, content: Bytes) {
        assert_eq!(
            content.len(),
            PAGE_CONTENT_BYTES,
            "page content must be exactly one page"
        );
        self.pages.push((page, rec, content));
    }

    /// Number of pages in the batch.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The pages in wire order.
    pub fn pages(&self) -> &[(PageId, PageVersion, Bytes)] {
        &self.pages
    }
}

/// Fixed self-describing header of a v3 page-columns record payload:
/// base epoch `u64` + page count `u32` + meta column length `u32` +
/// payload column length `u32` + meta column checksum `u32` + payload
/// column checksum `u32`.
///
/// This mirrors the postmortem bundle's `len=`/`crc=` header discipline:
/// the record's *frame* checksum covers only the tag and this header, and
/// each column carries its own digest, so a flipped bit in the meta
/// column and one in the payload column are reported as distinct errors.
pub const COLUMNS_HEADER_BYTES: usize = 28;

const MODE_META: u8 = 0;
const MODE_ZERO: u8 = 1;
const MODE_FULL: u8 = 2;
const MODE_DELTA: u8 = 3;

/// Per-page payload of a v3 page-columns record.
#[derive(Debug, Clone, PartialEq)]
pub enum PagePayload {
    /// Metadata only — the page's content does not travel (the session's
    /// virtual data plane models content cost without materializing it).
    Meta,
    /// The page is entirely zero; no bytes travel.
    Zero,
    /// Full 4 KiB content, for first-touch pages and high-entropy deltas.
    Full(Bytes),
    /// Sparse XOR runs against the base-epoch copy of the page: each run
    /// is `(byte offset, xor bytes)`; untouched bytes keep the base value.
    /// An empty run list re-asserts the base content unchanged.
    Delta(Vec<(u32, Bytes)>),
}

impl PagePayload {
    /// Reconstructs the page content, given the base-epoch copy when one
    /// is required.
    ///
    /// Returns `Ok(None)` for [`PagePayload::Meta`] (nothing to apply).
    ///
    /// # Errors
    ///
    /// [`WireError::BadPayload`] if a delta payload has no base to apply
    /// against or a run falls outside the page.
    pub fn materialize(&self, base: Option<&[u8]>) -> WireResult<Option<Vec<u8>>> {
        match self {
            PagePayload::Meta => Ok(None),
            PagePayload::Zero => Ok(Some(vec![0u8; PAGE_CONTENT_BYTES])),
            PagePayload::Full(content) => Ok(Some(content.to_vec())),
            PagePayload::Delta(runs) => {
                let base = base.ok_or(WireError::BadPayload(
                    "delta page arrived without a base copy",
                ))?;
                if base.len() != PAGE_CONTENT_BYTES {
                    return Err(WireError::BadPayload("delta base is not one page"));
                }
                let mut out = base.to_vec();
                for (offset, xor) in runs {
                    let start = *offset as usize;
                    let end = start
                        .checked_add(xor.len())
                        .filter(|&end| end <= PAGE_CONTENT_BYTES)
                        .ok_or(WireError::BadPayload("delta run out of page bounds"))?;
                    xor_into(&mut out[start..end], xor);
                }
                Ok(Some(out))
            }
        }
    }
}

/// `dst[i] ^= src[i]` over two equal-length slices, eight bytes per step.
fn xor_into(dst: &mut [u8], src: &[u8]) {
    let mut dst_words = dst.chunks_exact_mut(8);
    let mut src_words = src.chunks_exact(8);
    for (d, s) in (&mut dst_words).zip(&mut src_words) {
        let word = u64::from_ne_bytes((&*d).try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&word.to_ne_bytes());
    }
    for (d, s) in dst_words
        .into_remainder()
        .iter_mut()
        .zip(src_words.remainder())
    {
        *d ^= s;
    }
}

/// Two differing-byte spans merge into one run when at most this many
/// identical bytes lie between them, trading those bytes re-sent for one
/// fewer per-run header.
const DELTA_RUN_MERGE_GAP: usize = 8;
/// A sparse delta above this encoded size falls back to a full page.
const DELTA_MAX_BYTES: usize = PAGE_CONTENT_BYTES / 2;
/// What a run is charged for its offset and length, beside its XOR bytes.
const DELTA_RUN_HEADER_BYTES: usize = 4;
/// The most runs a delta can hold: each costs its header and at least one
/// byte, so a page with more is already past [`DELTA_MAX_BYTES`].
const DELTA_MAX_RUNS: usize = DELTA_MAX_BYTES / (DELTA_RUN_HEADER_BYTES + 1);
/// Words of a page's "byte differs" bitmap, one bit per byte.
const PAGE_BITMAP_WORDS: usize = PAGE_CONTENT_BYTES / u64::BITS as usize;

/// Classifies a page's content against its (optional) base-epoch copy:
/// all-zero pages are suppressed entirely, low-entropy rewrites become
/// sparse XOR runs, and first-touch or high-entropy pages travel whole.
///
/// # Panics
///
/// Panics if `content` (or a provided `base`) is not exactly one page.
pub fn classify_page(content: &[u8], base: Option<&[u8]>) -> PagePayload {
    assert_eq!(
        content.len(),
        PAGE_CONTENT_BYTES,
        "page content must be exactly one page"
    );
    // One OR-fold per 64-byte block: a page that is not zero leaves at its
    // first non-zero block, a zero page costs one read of its 4 KiB.
    if content
        .chunks_exact(64)
        .all(|block| block.iter().fold(0, |acc, &b| acc | b) == 0)
    {
        return PagePayload::Zero;
    }
    if let Some(base) = base {
        assert_eq!(
            base.len(),
            PAGE_CONTENT_BYTES,
            "delta base must be exactly one page"
        );
        if let Some(runs) = delta_runs(content, base) {
            return PagePayload::Delta(runs);
        }
    }
    PagePayload::Full(Bytes::from(content.to_vec()))
}

/// First byte at or after `from` whose bit in `bitmap` equals `set`, or
/// the page length when there is none. Steps a word at a time, so a
/// wholly rewritten or wholly untouched stretch costs one test per 64
/// bytes.
fn next_bit(bitmap: &[u64; PAGE_BITMAP_WORDS], from: usize, set: bool) -> usize {
    let mut at = from;
    while at < PAGE_CONTENT_BYTES {
        let word = bitmap[at / 64];
        // The shift fills from the top with zeros, which match neither
        // search, so bits below `at` and above the word never answer.
        let ahead = if set { word } else { !word } >> (at % 64);
        if ahead != 0 {
            return at + ahead.trailing_zeros() as usize;
        }
        at = (at / 64 + 1) * 64;
    }
    PAGE_CONTENT_BYTES
}

/// The sparse XOR runs of `content` against `base`, or `None` when they
/// would cost more than [`DELTA_MAX_BYTES`].
///
/// A span is a maximal stretch of differing bytes, read off the kernel's
/// bitmap; a span starting at most [`DELTA_RUN_MERGE_GAP`] bytes past the
/// previous one's end extends it; the cost is `Σ (4 + len)` over the
/// merged spans. The running cost never falls as spans are added, so the
/// scan stops at the first span that takes it past the cap. All runs of a
/// page slice one XOR buffer.
fn delta_runs(content: &[u8], base: &[u8]) -> Option<Vec<(u32, Bytes)>> {
    let mut bitmap = [0u64; PAGE_BITMAP_WORDS];
    crate::simd::active().diff_bitmap(content, base, &mut bitmap);

    const _: () = assert!(PAGE_CONTENT_BYTES <= u16::MAX as usize);
    let mut spans = [(0u16, 0u16); DELTA_MAX_RUNS];
    let mut count = 0;
    let mut cost = 0;
    let mut start = next_bit(&bitmap, 0, true);
    while start < PAGE_CONTENT_BYTES {
        let end = next_bit(&bitmap, start, false);
        let merge_from = spans[..count]
            .last()
            .map(|last| usize::from(last.1))
            .filter(|&last_end| start - last_end <= DELTA_RUN_MERGE_GAP);
        cost += match merge_from {
            Some(last_end) => end - last_end,
            None => DELTA_RUN_HEADER_BYTES + (end - start),
        };
        // Checked before the store: `n` spans cost at least `5 n`, so a
        // span that would not fit the array is already past the cap.
        if cost > DELTA_MAX_BYTES {
            return None;
        }
        if merge_from.is_some() {
            spans[count - 1].1 = end as u16;
        } else {
            spans[count] = (start as u16, end as u16);
            count += 1;
        }
        start = next_bit(&bitmap, end, true);
    }
    if count == 0 {
        return Some(Vec::new());
    }

    let spans = spans[..count]
        .iter()
        .map(|&(s, e)| usize::from(s)..usize::from(e));
    let mut xor = Vec::with_capacity(cost - DELTA_RUN_HEADER_BYTES * count);
    for span in spans.clone() {
        xor.extend(
            content[span.clone()]
                .iter()
                .zip(&base[span])
                .map(|(&c, &b)| c ^ b),
        );
    }
    let xor = Bytes::from(xor);
    let mut taken = 0;
    Some(
        spans
            .map(|span| {
                let run = xor.slice(taken..taken + span.len());
                taken += span.len();
                (span.start as u32, run)
            })
            .collect(),
    )
}

/// A v3 columnar page batch, delta-encoded against a named base epoch.
///
/// On the wire the batch is laid out column by column — frame gaps, then
/// the run-length-encoded mode column, then versions, then writers, then
/// all payloads — behind the self-describing [`COLUMNS_HEADER_BYTES`]
/// header, so decode walks each column sequentially instead of striding
/// through interleaved per-page records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageColumnsBatch {
    base_epoch: u64,
    entries: Vec<(PageId, PageVersion, PagePayload)>,
}

impl PageColumnsBatch {
    /// Empty batch encoded against `base_epoch`.
    pub fn new(base_epoch: u64) -> Self {
        PageColumnsBatch {
            base_epoch,
            entries: Vec::new(),
        }
    }

    /// Appends one page.
    ///
    /// # Panics
    ///
    /// Panics if a [`PagePayload::Full`] payload is not exactly one page.
    pub fn push(&mut self, page: PageId, rec: PageVersion, payload: PagePayload) {
        if let PagePayload::Full(content) = &payload {
            assert_eq!(
                content.len(),
                PAGE_CONTENT_BYTES,
                "page content must be exactly one page"
            );
        }
        self.entries.push((page, rec, payload));
    }

    /// The committed epoch this batch's deltas are encoded against.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Number of pages in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The pages in wire order.
    pub fn entries(&self) -> &[(PageId, PageVersion, PagePayload)] {
        &self.entries
    }

    /// Verifies the batch was encoded against the base epoch the receiver
    /// actually holds.
    ///
    /// # Errors
    ///
    /// [`WireError::DeltaBaseMismatch`] when the epochs disagree.
    pub fn check_base(&self, replica_base: u64) -> WireResult<()> {
        if self.base_epoch != replica_base {
            return Err(WireError::DeltaBaseMismatch {
                stream_base: self.base_epoch,
                replica_base,
            });
        }
        Ok(())
    }
}

fn put_varint(out: &mut BytesMut, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(b);
            return;
        }
        out.put_u8(b | 0x80);
    }
}

/// Appends `values` as a column of LEB128 varints, byte for byte what
/// [`put_varint`] per value writes: eight values all below `0x80` are
/// eight one-byte varints, stored as one little-endian word; any other
/// value goes through [`put_varint`].
fn put_varint_column(out: &mut BytesMut, mut values: impl Iterator<Item = u64>) {
    loop {
        let mut group = [0u64; 8];
        let mut n = 0;
        while n < 8 {
            let Some(v) = values.next() else { break };
            group[n] = v;
            n += 1;
        }
        if n == 8 && group.iter().fold(0, |any, &v| any | v) < 0x80 {
            let word = group.iter().rev().fold(0, |word, &v| word << 8 | v);
            out.extend_from_slice(&word.to_le_bytes());
            continue;
        }
        for &v in &group[..n] {
            put_varint(out, v);
        }
        if n < 8 {
            return;
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn mode_of(payload: &PagePayload) -> u8 {
    match payload {
        PagePayload::Meta => MODE_META,
        PagePayload::Zero => MODE_ZERO,
        PagePayload::Full(_) => MODE_FULL,
        PagePayload::Delta(_) => MODE_DELTA,
    }
}

fn patch_columns_header(
    out: &mut BytesMut,
    header_at: usize,
    base_epoch: u64,
    count: u32,
    meta_at: usize,
    payload_at: usize,
) {
    let end = out.len();
    let meta_sum = checksum(&out[meta_at..payload_at]);
    let payload_sum = checksum(&out[payload_at..end]);
    let h = &mut out[header_at..header_at + COLUMNS_HEADER_BYTES];
    h[0..8].copy_from_slice(&base_epoch.to_be_bytes());
    h[8..12].copy_from_slice(&count.to_be_bytes());
    h[12..16].copy_from_slice(&((payload_at - meta_at) as u32).to_be_bytes());
    h[16..20].copy_from_slice(&((end - payload_at) as u32).to_be_bytes());
    h[20..24].copy_from_slice(&meta_sum.to_be_bytes());
    h[24..28].copy_from_slice(&payload_sum.to_be_bytes());
}

/// The one writer of a v3 page-columns record, framed in place: the meta
/// column (frame gaps, run-length modes, versions, writers) from `pages`,
/// then whatever `payloads` appends as the payload column. The frame
/// checksum covers only the tag and the fixed header; each column carries
/// its own digest.
fn encode_columns_record(
    base_epoch: u64,
    count: usize,
    pages: impl Iterator<Item = (PageId, PageVersion, u8)> + Clone,
    payloads: impl FnOnce(&mut BytesMut),
    out: &mut BytesMut,
) {
    let frame_at = reserve_frame(out);
    let header_at = out.len();
    out.extend_from_slice(&[0u8; COLUMNS_HEADER_BYTES]);
    let meta_at = out.len();
    // Every page costs at least three meta bytes (frame gap, version,
    // writer).
    out.reserve(3 * count);
    // Frame column: zigzag gaps from the previous frame (first from zero).
    let gaps = pages.clone().scan(0i64, |prev, (page, _, _)| {
        let f = page.frame() as i64;
        let gap = zigzag(f.wrapping_sub(*prev));
        *prev = f;
        Some(gap)
    });
    put_varint_column(out, gaps);
    // Mode column, run-length encoded.
    let mut modes = pages.clone().map(|(_, _, mode)| mode).peekable();
    while let Some(mode) = modes.next() {
        let mut run = 1u64;
        while modes.next_if_eq(&mode).is_some() {
            run += 1;
        }
        out.put_u8(mode);
        put_varint(out, run);
    }
    // Version and writer columns (absolute values, abort-safe).
    put_varint_column(out, pages.clone().map(|(_, rec, _)| u64::from(rec.version)));
    put_varint_column(
        out,
        pages.clone().map(|(_, rec, _)| u64::from(rec.last_writer)),
    );
    let payload_at = out.len();
    payloads(out);
    patch_columns_header(
        out,
        header_at,
        base_epoch,
        count as u32,
        meta_at,
        payload_at,
    );
    let outer = frame_checksum(
        TAG_PAGE_COLUMNS,
        &out[header_at..header_at + COLUMNS_HEADER_BYTES],
    );
    patch_frame(out, frame_at, header_at, TAG_PAGE_COLUMNS, outer);
}

/// Encodes a v3 page-columns record in place.
pub fn encode_page_columns_into(batch: &PageColumnsBatch, out: &mut BytesMut) {
    let pages = batch
        .entries
        .iter()
        .map(|(page, rec, payload)| (*page, *rec, mode_of(payload)));
    let payloads = |out: &mut BytesMut| {
        for (_, _, payload) in &batch.entries {
            match payload {
                PagePayload::Meta | PagePayload::Zero => {}
                PagePayload::Full(content) => out.extend_from_slice(content),
                PagePayload::Delta(runs) => {
                    put_varint(out, runs.len() as u64);
                    for (offset, xor) in runs {
                        put_varint(out, u64::from(*offset));
                        put_varint(out, xor.len() as u64);
                        out.extend_from_slice(xor);
                    }
                }
            }
        }
    };
    encode_columns_record(batch.base_epoch, batch.entries.len(), pages, payloads, out);
}

/// Encodes a metadata-only v3 page-columns record straight from a delta
/// shard slice: the record a [`PageColumnsBatch`] of [`PagePayload::Meta`]
/// pages frames to, with no owned batch allocated.
pub fn encode_page_columns_meta_into(
    base_epoch: u64,
    entries: &[(PageId, PageVersion)],
    out: &mut BytesMut,
) {
    encode_page_columns_meta_from(base_epoch, entries.len(), entries.iter().copied(), out);
}

/// [`encode_page_columns_meta_into`] over any re-walkable sequence of
/// `count` pages — the hot lane path, which reads a v3 task's pages once
/// per column, straight from where they are (a page list, or a dirty
/// bitmap over a record table).
pub fn encode_page_columns_meta_from(
    base_epoch: u64,
    count: usize,
    pages: impl Iterator<Item = (PageId, PageVersion)> + Clone,
    out: &mut BytesMut,
) {
    let pages = pages.map(|(page, rec)| (page, rec, MODE_META));
    encode_columns_record(base_epoch, count, pages, |_| {}, out);
}

/// A page-columns record's fixed header, checked: the base epoch, the
/// page count, and the meta and payload columns, each matching its digest.
struct ColumnsHeader {
    base_epoch: u64,
    count: usize,
    meta: Bytes,
    payload: Bytes,
}

impl ColumnsHeader {
    fn read(r: &mut Reader) -> WireResult<Self> {
        let base_epoch = r.u64()?;
        let count = r.u32()? as usize;
        let meta_len = r.u32()? as usize;
        let payload_len = r.u32()? as usize;
        let meta_sum = r.u32()?;
        let payload_sum = r.u32()?;
        let meta = r.take(meta_len)?;
        let payload = r.take(payload_len)?;
        // Every page costs at least three meta bytes (frame gap, version,
        // writer), so the meta column bounds the count before it sizes
        // anything.
        if count > meta_len {
            return Err(WireError::BadPayload(
                "page count exceeds meta column length",
            ));
        }
        let actual = checksum(&meta);
        if actual != meta_sum {
            return Err(WireError::MetaColumnCorrupt {
                expected: meta_sum,
                actual,
            });
        }
        let actual = checksum(&payload);
        if actual != payload_sum {
            return Err(WireError::PayloadColumnCorrupt {
                expected: payload_sum,
                actual,
            });
        }
        Ok(ColumnsHeader {
            base_epoch,
            count,
            meta,
            payload,
        })
    }
}

/// The one check of a page record's payload: a v2 page batch's count
/// and slots, a v2 page-data record's whole number of pages, or a v3
/// columns record's header, meta column ([`check_meta_column`]) and
/// payload column ([`payload_column`]), each value and payload handed to
/// `sink` as it passes, and in every case nothing after them. `runs` is
/// scratch for the mode runs. The frame keeps the payload and where each
/// column starts.
fn check_page_frame(
    tag: u8,
    payload: Bytes,
    runs: &mut Vec<(u8, usize)>,
    sink: &mut impl PageSink,
) -> WireResult<PageFrame> {
    let frame_of = |meta: &[u8]| u64::from_be_bytes(*meta.first_chunk().expect("a whole meta"));
    let mut r = Reader(payload.clone());
    let (layout, count, top) = match tag {
        TAG_PAGE_BATCH => {
            // The count sizes nothing: the slots are taken in one checked
            // read before anything walks them.
            let count = r.u32()? as usize;
            let metas = r.take(count.saturating_mul(PAGE_META_BYTES))?;
            let top = metas.chunks_exact(PAGE_META_BYTES).map(frame_of).max();
            (PageLayout::Batch, count, top.unwrap_or(0))
        }
        TAG_PAGE_DATA => {
            if !payload.len().is_multiple_of(PAGE_RECORD_BYTES) {
                return Err(WireError::BadPayload(
                    "page-data record is not a whole number of pages",
                ));
            }
            let pages = r.take(payload.len())?;
            let top = pages.chunks_exact(PAGE_RECORD_BYTES).map(frame_of).max();
            (
                PageLayout::Data,
                pages.len() / PAGE_RECORD_BYTES,
                top.unwrap_or(0),
            )
        }
        _ => {
            let header = ColumnsHeader::read(&mut r)?;
            let meta = check_meta_column(&header.meta, header.count, runs, |field, k, value| {
                sink.meta(field, k, value)
            })?;
            payload_column(&header.payload, runs, |payload| sink.payload(payload))?;
            let layout = PageLayout::Columns {
                base_epoch: header.base_epoch,
                versions: COLUMNS_HEADER_BYTES + meta.versions,
                writers: COLUMNS_HEADER_BYTES + meta.writers,
            };
            (layout, header.count, meta.top)
        }
    };
    r.finish()?;
    Ok(PageFrame {
        layout,
        payload,
        count,
        top,
    })
}

/// A page record decoded whole. A columns record's pages and payloads
/// are filled in while [`check_page_frame`] reads them, so its meta column
/// is read once; a v2 record's pages are read back by
/// [`PageFrame::for_each_page`].
fn decode_page_record(tag: u8, payload: Bytes) -> WireResult<Record> {
    let mut sink = Entries::default();
    let frame = check_page_frame(tag, payload, &mut Vec::new(), &mut sink)?;
    if let PageLayout::Columns { base_epoch, .. } = frame.layout {
        let mut batch = PageColumnsBatch::new(base_epoch);
        batch.entries = sink.entries;
        return Ok(Record::PageColumns(batch));
    }
    let mut pages = Vec::with_capacity(frame.count);
    frame.for_each_page(|page, rec| pages.push((page, rec)));
    if frame.layout == PageLayout::Batch {
        return Ok(Record::PageBatch(MemoryDelta::from_entries(pages)));
    }
    let mut batch = PageDataBatch::with_capacity(pages.len());
    for (k, (page, rec)) in pages.into_iter().enumerate() {
        let at = k * PAGE_RECORD_BYTES + PAGE_META_BYTES;
        batch.push(page, rec, frame.payload.slice(at..at + PAGE_CONTENT_BYTES));
    }
    Ok(Record::PageDataBatch(batch))
}

/// Which column of a meta column a value [`check_meta_column`] hands its
/// sink comes from.
#[derive(Debug, Clone, Copy)]
enum MetaField {
    /// Page `k`'s frame number (the gaps summed).
    Frame,
    /// Page `k`'s version.
    Version,
    /// Page `k`'s last writer.
    Writer,
}

/// What a columns record's check hands on as it reads: each value of the
/// meta column, column by column, then each page's payload in page order.
trait PageSink {
    /// Value `value` of page `k` in column `field`, checked.
    fn meta(&mut self, field: MetaField, k: usize, value: u64);
    /// The next page's payload, checked.
    fn payload(&mut self, payload: PagePayload);
}

/// The receive path's sink: the check keeps nothing.
impl PageSink for () {
    fn meta(&mut self, _: MetaField, _: usize, _: u64) {}
    fn payload(&mut self, _: PagePayload) {}
}

/// A whole-record decode's sink: the record's entries, filled as the check
/// reads the meta column once and then the payloads.
#[derive(Default)]
struct Entries {
    entries: Vec<(PageId, PageVersion, PagePayload)>,
    paid: usize,
}

impl PageSink for Entries {
    fn meta(&mut self, field: MetaField, k: usize, value: u64) {
        match field {
            MetaField::Frame => self.entries.push((
                PageId::new(value),
                PageVersion::default(),
                PagePayload::Meta,
            )),
            MetaField::Version => self.entries[k].1.version = value as u32,
            MetaField::Writer => self.entries[k].1.last_writer = value as u16,
        }
    }

    fn payload(&mut self, payload: PagePayload) {
        self.entries[self.paid].2 = payload;
        self.paid += 1;
    }
}

/// Where a checked meta column's version and writer columns start, and
/// the highest frame it names.
struct MetaColumn {
    versions: usize,
    writers: usize,
    top: u64,
}

/// The one check of a columns record's meta column: `count` frame gaps,
/// each frame inside `0..=i64::MAX`; the mode runs, into `runs` as
/// `(mode, pages)`; `count` versions that fit a `u32` and `count` writers
/// that fit a `u16`; and nothing after them. Each frame, version and
/// writer is handed to `sink` with its page index once it passed, column
/// by column; the receive path stores nothing and reads the three columns
/// again ([`PageFrame::for_each_page`]) from the offsets this returns.
fn check_meta_column(
    meta: &Bytes,
    count: usize,
    runs: &mut Vec<(u8, usize)>,
    mut sink: impl FnMut(MetaField, usize, u64),
) -> WireResult<MetaColumn> {
    let mut meta = Column::new(meta);
    let (mut prev, mut top) = (0i64, 0i64);
    meta.varints(count, |k, gap| {
        // `checked_add`, never `+`: a multi-byte first gap may put `prev`
        // at `i64::MAX`.
        let f = prev
            .checked_add(unzigzag(gap))
            .filter(|f| *f >= 0)
            .ok_or(WireError::BadPayload("page frame gap out of range"))?;
        (prev, top) = (f, top.max(f));
        sink(MetaField::Frame, k, f as u64);
        Ok(())
    })?;
    runs.clear();
    let mut seen = 0;
    while seen < count {
        let mode = meta.u8()?;
        if mode > MODE_DELTA {
            return Err(WireError::BadPayload("unknown page mode"));
        }
        // `run` is wire-supplied: compare it against the pages left, never
        // add it to the pages seen (the sum can wrap back under `count`).
        let run = meta.varint()?;
        if run == 0 || run > (count - seen) as u64 {
            return Err(WireError::BadPayload("mode run overflows page count"));
        }
        // The encoder merges equal neighbours, so two runs of one mode
        // side by side are not something it wrote.
        if runs.last().is_some_and(|&(last, _)| last == mode) {
            return Err(WireError::BadPayload("adjacent mode runs not merged"));
        }
        runs.push((mode, run as usize));
        seen += run as usize;
    }
    let versions = meta.at;
    meta.varints(count, |k, version| {
        u32::try_from(version).map_err(|_| WireError::BadPayload("page version overflows u32"))?;
        sink(MetaField::Version, k, version);
        Ok(())
    })?;
    let writers = meta.at;
    meta.varints(count, |k, writer| {
        u16::try_from(writer).map_err(|_| WireError::BadPayload("page writer overflows u16"))?;
        sink(MetaField::Writer, k, writer);
        Ok(())
    })?;
    meta.finish()?;
    Ok(MetaColumn {
        versions,
        writers,
        top: top as u64,
    })
}

/// The one parser of a columns record's payload column: reads one payload
/// per page, in the modes `runs` gives, hands each to `each` in page
/// order, and requires the column consumed exactly.
fn payload_column(
    payload: &Bytes,
    runs: &[(u8, usize)],
    mut each: impl FnMut(PagePayload),
) -> WireResult<()> {
    let mut payload = Column::new(payload);
    for &(mode, run) in runs {
        for _ in 0..run {
            let pay = match mode {
                MODE_META => PagePayload::Meta,
                MODE_ZERO => PagePayload::Zero,
                MODE_FULL => PagePayload::Full(payload.take(PAGE_CONTENT_BYTES)?),
                _ => {
                    let nruns = payload.varint()?;
                    if nruns > PAGE_CONTENT_BYTES as u64 {
                        return Err(WireError::BadPayload("delta run count exceeds page size"));
                    }
                    // Not sized from `nruns`: every run read advances the
                    // cursor, so the bytes present bound the list.
                    let mut xor_runs = Vec::new();
                    for _ in 0..nruns {
                        // Both are wire-supplied: bound each on its own, so
                        // their sum can neither wrap nor truncate below.
                        let offset = payload.varint()?;
                        let len = payload.varint()?;
                        let page = PAGE_CONTENT_BYTES as u64;
                        if offset > page || len > page - offset {
                            return Err(WireError::BadPayload("delta run out of page bounds"));
                        }
                        xor_runs.push((offset as u32, payload.take(len as usize)?));
                    }
                    PagePayload::Delta(xor_runs)
                }
            };
            each(pay);
        }
    }
    payload.finish()
}

/// Byte-serial FNV-1a, the v1 record checksum.
///
/// It folds one byte per multiply, which dominated encode cost on 4 KiB
/// payloads and is why v2 records use [`StreamingChecksum`]. Public
/// because the incident bundle header and the exact-gated health and
/// postmortem hashes are defined over it.
pub fn fnv32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Incremental word-folded checksum used for v2 record framing.
///
/// Folds eight input bytes per multiply (little-endian `u64` words) into a
/// 64-bit FNV-style state, then mixes the total length and folds the state
/// to 32 bits. The digest depends only on the byte *sequence*, never on how
/// `update` calls chunk it, so encode workers can hash page payloads as
/// they stream them into their lane buffers and still match the one-shot
/// [`frame_checksum`] the decoder computes over the reassembled record.
#[derive(Debug, Clone)]
pub struct StreamingChecksum {
    state: u64,
    pending: u64,
    pending_len: u32,
    total: u64,
}

impl StreamingChecksum {
    /// Fresh hasher.
    pub fn new() -> Self {
        StreamingChecksum {
            state: FNV64_OFFSET,
            pending: 0,
            pending_len: 0,
            total: 0,
        }
    }

    /// Fresh hasher for a frame of kind `tag`: the tag is the chain's
    /// first word, so the digest covers the tag as well as the bytes
    /// `update` absorbs (which alone count towards the length mixed in).
    pub fn tagged(tag: u8) -> Self {
        let mut sum = StreamingChecksum::new();
        sum.state = fold64(sum.state, u64::from(tag));
        sum
    }

    /// Absorbs `bytes`; chunk boundaries do not affect the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        self.total += bytes.len() as u64;
        let mut rest = bytes;
        while self.pending_len > 0 && !rest.is_empty() {
            self.pending |= u64::from(rest[0]) << (8 * self.pending_len);
            self.pending_len += 1;
            rest = &rest[1..];
            if self.pending_len == 8 {
                self.state = fold64(self.state, self.pending);
                self.pending = 0;
                self.pending_len = 0;
            }
        }
        let (state, consumed) = fold_words(self.state, rest);
        self.state = state;
        for &b in &rest[consumed..] {
            self.pending |= u64::from(b) << (8 * self.pending_len);
            self.pending_len += 1;
        }
    }

    /// Final 32-bit digest. Does not consume the hasher, so a lane can
    /// snapshot a running digest mid-stream.
    pub fn finish(&self) -> u32 {
        let mut state = self.state;
        if self.pending_len > 0 {
            // Pad marker disambiguates trailing zero bytes from absent ones.
            state = fold64(state, self.pending | 0x80u64 << (8 * self.pending_len));
        }
        state = fold64(state, self.total);
        (state ^ (state >> 32)) as u32
    }
}

impl Default for StreamingChecksum {
    fn default() -> Self {
        StreamingChecksum::new()
    }
}

/// One-shot untagged checksum over a contiguous slice: the digest of each
/// v3 column.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut c = StreamingChecksum::new();
    c.update(bytes);
    c.finish()
}

/// One-shot frame checksum: the digest a frame header carries for a
/// record of kind `tag` whose covered bytes are `bytes`.
pub fn frame_checksum(tag: u8, bytes: &[u8]) -> u32 {
    let mut c = StreamingChecksum::tagged(tag);
    c.update(bytes);
    c.finish()
}

/// Encodes records into a byte stream.
///
/// # Examples
///
/// ```
/// use here_vmstate::wire::{Record, StreamEncoder, StreamDecoder};
///
/// let mut enc = StreamEncoder::new();
/// enc.push(&Record::CheckpointBegin { seq: 1 });
/// enc.push(&Record::CheckpointEnd { seq: 1, pages_total: 0 });
/// let bytes = enc.finish();
/// let mut dec = StreamDecoder::new(bytes)?;
/// assert_eq!(dec.next_record()?, Some(Record::CheckpointBegin { seq: 1 }));
/// # Ok::<(), here_vmstate::wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct StreamEncoder {
    buf: BytesMut,
}

impl StreamEncoder {
    /// Creates an encoder and writes the stream preamble (magic + version).
    pub fn new() -> Self {
        StreamEncoder::with_buffer_versioned(BytesMut::with_capacity(4096), VERSION)
    }

    /// Creates an encoder over a recycled buffer (cleared first), keeping
    /// its allocation — how checkpoint buffer pools avoid a fresh
    /// allocation per round — and stamps `version` into the preamble
    /// ([`VERSION_V3`] for a negotiated v3 session).
    pub fn with_buffer_versioned(mut buf: BytesMut, version: u16) -> Self {
        buf.clear();
        write_preamble_versioned(&mut buf, version);
        StreamEncoder { buf }
    }

    /// Appends one record, framed in place (no scratch buffer).
    pub fn push(&mut self, record: &Record) {
        encode_record_into(record, &mut self.buf);
    }

    /// Bytes emitted so far (including preamble).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if only the preamble has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == PREAMBLE_BYTES
    }

    /// Exposes the underlying buffer, e.g. to attach a [`PageDataWriter`].
    pub fn buffer_mut(&mut self) -> &mut BytesMut {
        &mut self.buf
    }

    /// Finalises the stream.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

impl Default for StreamEncoder {
    fn default() -> Self {
        StreamEncoder::new()
    }
}

/// Preamble length: magic `u32` + version `u16`.
pub const PREAMBLE_BYTES: usize = 6;

/// Frame header length: tag `u8` + payload length `u32` + checksum `u32`.
const FRAME_HEADER_BYTES: usize = 9;

/// Writes the stream preamble (magic + version) into `out`.
pub fn write_preamble(out: &mut BytesMut) {
    write_preamble_versioned(out, VERSION);
}

/// Writes a stream preamble carrying an explicit format version.
pub fn write_preamble_versioned(out: &mut BytesMut, version: u16) {
    out.put_u32(MAGIC);
    out.put_u16(version);
}

/// Patches a frame header written as placeholders at `frame_at`, once the
/// payload occupying `payload_at..out.len()` is complete.
fn patch_frame(out: &mut BytesMut, frame_at: usize, payload_at: usize, tag: u8, sum: u32) {
    let len = (out.len() - payload_at) as u32;
    write_frame_header(&mut out[frame_at..], tag, len, sum);
}

/// Writes a frame header (tag, payload length, checksum) over the
/// placeholder bytes at the start of `frame`.
fn write_frame_header(frame: &mut [u8], tag: u8, len: u32, sum: u32) {
    frame[0] = tag;
    frame[1..5].copy_from_slice(&len.to_be_bytes());
    frame[5..9].copy_from_slice(&sum.to_be_bytes());
}

/// Reserves a frame header of placeholder bytes, returning its offset.
fn reserve_frame(out: &mut BytesMut) -> usize {
    let frame_at = out.len();
    out.put_u8(0);
    out.put_u32(0);
    out.put_u32(0);
    frame_at
}

/// Encodes one record directly into `out` with in-place framing: the
/// payload is written straight after placeholder header bytes, then tag,
/// length and checksum are patched over the placeholders. No intermediate
/// buffer, no copy.
pub fn encode_record_into(record: &Record, out: &mut BytesMut) {
    match record {
        // Page records are framed by the slice-level encoders the encode
        // lanes call, so each layout is written in exactly one place.
        Record::PageBatch(delta) => encode_page_batch_into(delta.entries(), out),
        Record::PageDataBatch(batch) => {
            let mut writer = PageDataWriter::new(out);
            for (page, rec, content) in batch.pages() {
                writer.push(*page, *rec, content);
            }
            writer.finish();
        }
        Record::PageColumns(batch) => encode_page_columns_into(batch, out),
        control => {
            let frame_at = reserve_frame(out);
            let payload_at = out.len();
            let tag = encode_payload(control, out);
            let sum = frame_checksum(tag, &out[payload_at..]);
            patch_frame(out, frame_at, payload_at, tag, sum);
        }
    }
}

/// The one writer of a page's fixed-width metadata ([`PAGE_META_BYTES`]:
/// frame, version, last writer, big-endian); [`read_page_meta`] reads it
/// back.
fn write_page_meta(meta: &mut [u8; PAGE_META_BYTES], page: PageId, rec: PageVersion) {
    meta[..8].copy_from_slice(&page.frame().to_be_bytes());
    meta[8..12].copy_from_slice(&rec.version.to_be_bytes());
    meta[12..].copy_from_slice(&rec.last_writer.to_be_bytes());
}

/// Appends one page's metadata to `out`.
fn put_page_meta(out: &mut BytesMut, page: PageId, rec: PageVersion) {
    let mut meta = [0u8; PAGE_META_BYTES];
    write_page_meta(&mut meta, page, rec);
    out.extend_from_slice(&meta);
}

/// Parses what [`write_page_meta`] wrote.
fn read_page_meta(meta: &[u8; PAGE_META_BYTES]) -> (PageId, PageVersion) {
    let frame = u64::from_be_bytes(meta[..8].try_into().expect("8 bytes"));
    let version = u32::from_be_bytes(meta[8..12].try_into().expect("4 bytes"));
    let last_writer = u16::from_be_bytes(meta[12..].try_into().expect("2 bytes"));
    (
        PageId::new(frame),
        PageVersion {
            version,
            last_writer,
        },
    )
}

/// Encodes a metadata-only page batch record straight from an entry slice,
/// so per-worker delta shards can be encoded without first cloning them
/// into an owned [`MemoryDelta`]: a [`PageBatchWriter`] fed the slice.
pub fn encode_page_batch_into(entries: &[(PageId, PageVersion)], out: &mut BytesMut) {
    let mut writer = PageBatchWriter::new(out, entries.len());
    writer.push_all(entries);
    writer.finish();
}

/// Writes a metadata-only page batch record of a known page count into a
/// buffer, one page at a time, so a caller that walks its pages (a dirty
/// bitmap over a record table) frames them without a page list.
///
/// The record is sized once and each meta is written in place, one fixed
/// 14-byte slot per page; [`finish`](PageBatchWriter::finish) runs the
/// frame checksum over them. The slots written so far can also be framed
/// as a v3 columns record ([`encode_columns_into`]), so one walk yields
/// both wire versions. Dropped unfinished, the writer leaves a zero-tag
/// frame, which the decoder rejects.
///
/// [`encode_columns_into`]: PageBatchWriter::encode_columns_into
#[derive(Debug)]
pub struct PageBatchWriter<'a> {
    /// The frame header's placeholder bytes, then the page count.
    head: &'a mut [u8],
    /// One slot per page, the first `written` filled.
    metas: &'a mut [[u8; PAGE_META_BYTES]],
    written: usize,
}

impl<'a> PageBatchWriter<'a> {
    /// Opens a page batch record of `count` pages in `out`.
    pub fn new(out: &'a mut BytesMut, count: usize) -> Self {
        let frame_at = reserve_frame(out);
        let metas_at = out.len() + 4;
        out.resize(metas_at + count * PAGE_META_BYTES, 0);
        let (head, metas) = out[frame_at..].split_at_mut(FRAME_HEADER_BYTES + 4);
        head[FRAME_HEADER_BYTES..].copy_from_slice(&(count as u32).to_be_bytes());
        PageBatchWriter {
            head,
            metas: metas.as_chunks_mut().0,
            written: 0,
        }
    }

    /// Writes the next page's meta.
    ///
    /// # Panics
    ///
    /// Panics if the record already holds the `count` pages it was opened
    /// for.
    #[inline]
    pub fn push(&mut self, page: PageId, rec: PageVersion) {
        write_page_meta(&mut self.metas[self.written], page, rec);
        self.written += 1;
    }

    /// Writes the metas of `pages`, next after those written so far: one
    /// pass over the slice.
    ///
    /// # Panics
    ///
    /// Panics if that is more pages than the record was opened for.
    pub fn push_all(&mut self, pages: &[(PageId, PageVersion)]) {
        let slots = &mut self.metas[self.written..self.written + pages.len()];
        for (slot, &(page, rec)) in slots.iter_mut().zip(pages) {
            write_page_meta(slot, page, rec);
        }
        self.written += pages.len();
    }

    /// Appends to `out` the metadata-only v3 columns record of the pages
    /// written so far, against `base_epoch`: byte for byte what
    /// [`encode_page_columns_meta_into`] writes for the same pages.
    pub fn encode_columns_into(&self, base_epoch: u64, out: &mut BytesMut) {
        let pages = self.metas[..self.written].iter().map(read_page_meta);
        encode_page_columns_meta_from(base_epoch, self.written, pages, out);
    }

    /// Closes the record, patching the frame header.
    ///
    /// # Panics
    ///
    /// Panics if fewer pages were written than the record was opened for.
    pub fn finish(self) {
        assert_eq!(
            self.written,
            self.metas.len(),
            "every page the record was opened for is written"
        );
        let metas = self.metas.as_flattened();
        let mut sum = StreamingChecksum::tagged(TAG_PAGE_BATCH);
        sum.update(&self.head[FRAME_HEADER_BYTES..]);
        sum.update(metas);
        let len = (4 + metas.len()) as u32;
        write_frame_header(self.head, TAG_PAGE_BATCH, len, sum.finish());
    }
}

/// Bytes one page occupies in a page-data record: metadata, then content.
const PAGE_RECORD_BYTES: usize = PAGE_META_BYTES + PAGE_CONTENT_BYTES;

/// Bytes one [`PageDataWriter::push_group`] appends: 2055 whole `u64`
/// words, so a record made of groups never leaves the checksum a partial
/// word.
const GROUP_RECORD_BYTES: usize = GROUP_PAGES * PAGE_RECORD_BYTES;

/// Bytes of the previous group folded per generator iteration: four
/// words, since a group is 2055 words and the generator loop runs 512
/// times; the last seven words are folded after it.
const FOLD_STEP_BYTES: usize = 32;

/// Streams a [`PageDataBatch`] record into a lane buffer, hashing bytes as
/// they are appended.
///
/// The record checksum is accumulated incrementally by a
/// [`StreamingChecksum`], so `finish` never re-reads the (potentially
/// multi-MiB) payload; it folds at most the last group and patches the 9
/// placeholder header bytes. Dropping the writer without calling
/// [`finish`](PageDataWriter::finish) leaves a zero-tag frame in the
/// buffer, which the decoder rejects — a half-written batch cannot
/// masquerade as a valid record.
#[derive(Debug)]
pub struct PageDataWriter<'a> {
    out: &'a mut BytesMut,
    frame_at: usize,
    payload_at: usize,
    sum: StreamingChecksum,
    /// `out[folded_to..]` is written but not yet in `sum`: empty, or the
    /// group the next `push_group` folds while it generates its own.
    folded_to: usize,
    count: u64,
}

impl<'a> PageDataWriter<'a> {
    /// Opens a page-data record in `out`.
    pub fn new(out: &'a mut BytesMut) -> Self {
        let frame_at = reserve_frame(out);
        let payload_at = out.len();
        PageDataWriter {
            out,
            frame_at,
            payload_at,
            sum: StreamingChecksum::tagged(TAG_PAGE_DATA),
            folded_to: payload_at,
            count: 0,
        }
    }

    fn fold_written(&mut self) {
        self.sum.update(&self.out[self.folded_to..]);
        self.folded_to = self.out.len();
    }

    /// Appends one page's metadata and pre-built content.
    ///
    /// # Panics
    ///
    /// Panics if `content` is not exactly [`PAGE_CONTENT_BYTES`] long.
    pub fn push(&mut self, page: PageId, rec: PageVersion, content: &[u8]) {
        assert_eq!(
            content.len(),
            PAGE_CONTENT_BYTES,
            "page content must be exactly one page"
        );
        self.out.reserve(PAGE_RECORD_BYTES);
        put_page_meta(self.out, page, rec);
        self.fold_written();
        // Folding the caller's copy, not the bytes just stored, keeps the
        // checksum loads off the store buffer.
        self.out.extend_from_slice(content);
        self.sum.update(content);
        self.folded_to = self.out.len();
        self.count += 1;
    }

    /// Appends [`GROUP_PAGES`] pages whose content is the deterministic
    /// image of their version records, generated in lock-step straight
    /// into the lane buffer (no scratch image, no copy).
    ///
    /// The checksum is software-pipelined: the loop that generates this
    /// group also folds the previous group's bytes, whose chain depends
    /// on nothing the generator computes, so the two latencies overlap.
    /// The fold order, and hence the digest, is that of the all-`push`
    /// writer.
    pub fn push_group(&mut self, pages: &[(PageId, PageVersion); GROUP_PAGES]) {
        if self.sum.pending_len != 0 {
            // Only after `push`es that left a partial word: fold bytewise
            // now, nothing to overlap.
            self.fold_written();
        }
        let group_at = self.out.len();
        self.out.reserve(GROUP_RECORD_BYTES);
        for &(page, rec) in pages {
            put_page_meta(self.out, page, rec);
            let content_at = self.out.len();
            self.out.resize(content_at + PAGE_CONTENT_BYTES, 0);
        }
        let (done, group) = self.out.split_at_mut(group_at);
        let prev = &done[self.folded_to..];
        debug_assert!(prev.is_empty() || prev.len() == GROUP_RECORD_BYTES);
        let mut state = self.sum.state;
        materialize_group_interleaved(pages, group, PAGE_META_BYTES, PAGE_RECORD_BYTES, |i| {
            if let Some(step) = prev.get(i * FOLD_STEP_BYTES..(i + 1) * FOLD_STEP_BYTES) {
                state = fold_words(state, step).0;
            }
        });
        let in_loop = prev.len().min(PAGE_WORDS * FOLD_STEP_BYTES);
        self.sum.state = fold_words(state, &prev[in_loop..]).0;
        self.sum.total += prev.len() as u64;
        self.folded_to = group_at;
        self.count += GROUP_PAGES as u64;
    }

    /// Closes the record, patching the frame header; returns the page count.
    pub fn finish(mut self) -> u64 {
        self.fold_written();
        patch_frame(
            self.out,
            self.frame_at,
            self.payload_at,
            TAG_PAGE_DATA,
            self.sum.finish(),
        );
        self.count
    }
}

/// An ordered sequence of independently encoded stream segments.
///
/// The parallel encode path produces one frozen [`Bytes`] segment per
/// worker lane (plus a head segment with the preamble and checkpoint-begin
/// record and a tail with vCPU/device/end records). Splicing them is just
/// collecting the segments in order — no concatenation copy ever happens;
/// [`StreamDecoder::new_scattered`] walks the segment list directly.
#[derive(Debug, Clone, Default)]
pub struct ScatterStream {
    segments: Vec<Bytes>,
    total: usize,
}

impl ScatterStream {
    /// Empty stream.
    pub fn new() -> Self {
        ScatterStream::default()
    }

    /// Appends a segment (empty segments are dropped).
    pub fn push(&mut self, segment: Bytes) {
        if !segment.is_empty() {
            self.total += segment.len();
            self.segments.push(segment);
        }
    }

    /// Total stream length in bytes across all segments.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the stream has no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The segments in stream order.
    pub fn segments(&self) -> &[Bytes] {
        &self.segments
    }

    /// Consumes the stream into its segments.
    pub fn into_segments(self) -> Vec<Bytes> {
        self.segments
    }

    /// Copies the segments into one contiguous buffer. This is the only
    /// place a scatter stream is ever flattened; the hot path never calls
    /// it (tests and wire-level tools do).
    pub fn gather(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.total);
        for seg in &self.segments {
            buf.extend_from_slice(seg);
        }
        Bytes::from(buf)
    }
}

impl From<Bytes> for ScatterStream {
    fn from(bytes: Bytes) -> Self {
        let mut s = ScatterStream::new();
        s.push(bytes);
        s
    }
}

fn encode_payload(record: &Record, out: &mut BytesMut) -> u8 {
    match record {
        Record::StreamHeader {
            source,
            vm_name,
            memory_bytes,
            vcpus,
        } => {
            out.put_u8(match source {
                HypervisorKind::Xen => 0,
                HypervisorKind::Kvm => 1,
            });
            let name = vm_name.as_bytes();
            out.put_u16(name.len() as u16);
            out.extend_from_slice(name);
            out.put_u64(*memory_bytes);
            out.put_u32(*vcpus);
            TAG_HEADER
        }
        Record::CheckpointBegin { seq } => {
            out.put_u64(*seq);
            TAG_CKPT_BEGIN
        }
        Record::PageBatch(_) | Record::PageDataBatch(_) | Record::PageColumns(_) => {
            unreachable!("page records are framed by their slice-level encoders")
        }
        Record::VcpuState { index, cir } => {
            out.put_u32(*index);
            out.put_u8(u8::from(cir.online));
            encode_arch_regs(&cir.regs, out);
            TAG_VCPU
        }
        Record::Device(identity) => {
            match identity {
                DeviceIdentity::Net { mac, mtu } => {
                    out.put_u8(0);
                    out.extend_from_slice(mac);
                    out.put_u16(*mtu);
                }
                DeviceIdentity::Block {
                    volume_id,
                    capacity_sectors,
                    read_only,
                } => {
                    out.put_u8(1);
                    out.put_u64(*volume_id);
                    out.put_u64(*capacity_sectors);
                    out.put_u8(u8::from(*read_only));
                }
                DeviceIdentity::Console => out.put_u8(2),
            }
            TAG_DEVICE
        }
        Record::CheckpointEnd { seq, pages_total } => {
            out.put_u64(*seq);
            out.put_u64(*pages_total);
            TAG_CKPT_END
        }
        Record::Ack { seq } => {
            out.put_u64(*seq);
            TAG_ACK
        }
    }
}

fn encode_arch_regs(regs: &ArchRegs, out: &mut BytesMut) {
    for &g in &regs.gprs {
        out.put_u64(g);
    }
    out.put_u64(regs.rip);
    out.put_u64(regs.rflags);
    for seg in [
        &regs.cs, &regs.ds, &regs.es, &regs.fs, &regs.gs, &regs.ss, &regs.tr,
    ] {
        out.put_u16(seg.selector);
        out.put_u64(seg.base);
        out.put_u32(seg.limit);
        out.put_u16(seg.attributes);
    }
    for v in [
        regs.system.cr0,
        regs.system.cr2,
        regs.system.cr3,
        regs.system.cr4,
        regs.system.efer,
        regs.system.apic_base,
        regs.system.star,
        regs.system.lstar,
        regs.system.kernel_gs_base,
    ] {
        out.put_u64(v);
    }
    out.put_u64(regs.tsc);
    out.put_u16(match regs.pending_interrupt {
        Some(v) => 0x100 | v as u16,
        None => 0,
    });
}

/// Decodes a byte stream produced by [`StreamEncoder`] and/or the
/// scatter-gather encode lanes.
///
/// The decoder walks an ordered queue of segments. Reads that fall inside
/// one segment — the overwhelmingly common case, since every record is
/// encoded into exactly one lane buffer — are zero-copy `split_to` slices;
/// only a read that genuinely straddles a segment boundary (e.g. a frame
/// header split across two hand-built fragments) falls back to a copy.
#[derive(Debug)]
pub struct StreamDecoder {
    segments: VecDeque<Bytes>,
    remaining: usize,
    version: u16,
    /// The mode runs of the last columns record checked, kept across
    /// records so a check allocates nothing per record.
    runs: Vec<(u8, usize)>,
}

impl StreamDecoder {
    /// Validates the preamble and prepares to decode records.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadMagic`] or [`WireError::UnsupportedVersion`]
    /// for a foreign or future-format stream, and [`WireError::Truncated`]
    /// if even the preamble is incomplete.
    pub fn new(bytes: Bytes) -> WireResult<Self> {
        Self::new_scattered(ScatterStream::from(bytes))
    }

    /// Like [`new`](StreamDecoder::new), but over a segmented stream whose
    /// parts are consumed in place — the segments are never concatenated.
    pub fn new_scattered(stream: ScatterStream) -> WireResult<Self> {
        let mut dec = StreamDecoder {
            remaining: stream.len(),
            segments: stream.into_segments().into(),
            version: 0,
            runs: Vec::new(),
        };
        if dec.remaining < PREAMBLE_BYTES {
            return Err(WireError::Truncated);
        }
        let magic = u32::from_be_bytes(dec.read_array::<4>()?);
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = u16::from_be_bytes(dec.read_array::<2>()?);
        if version != VERSION && version != VERSION_V3 {
            return Err(WireError::UnsupportedVersion(version));
        }
        dec.version = version;
        Ok(dec)
    }

    /// Like [`new_scattered`](StreamDecoder::new_scattered), but a session
    /// that has negotiated a version also rejects streams carrying any
    /// *other* decodable version with [`WireError::StaleVersion`] — e.g. a
    /// v2 frame arriving after v3 was agreed.
    pub fn new_negotiated(stream: ScatterStream, negotiated: u16) -> WireResult<Self> {
        let dec = Self::new_scattered(stream)?;
        if dec.version != negotiated {
            return Err(WireError::StaleVersion {
                negotiated,
                actual: dec.version,
            });
        }
        Ok(dec)
    }

    /// Format version carried by the stream preamble.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    fn skip_spent(&mut self) {
        while matches!(self.segments.front(), Some(s) if s.is_empty()) {
            self.segments.pop_front();
        }
    }

    fn read_array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        if self.remaining < N {
            return Err(WireError::Truncated);
        }
        self.skip_spent();
        let mut out = [0u8; N];
        let front = self.segments.front_mut().ok_or(WireError::Truncated)?;
        if front.remaining() >= N {
            front.copy_to_slice(&mut out);
        } else {
            let mut filled = 0;
            while filled < N {
                self.skip_spent();
                let front = self.segments.front_mut().ok_or(WireError::Truncated)?;
                let take = (N - filled).min(front.remaining());
                front.copy_to_slice(&mut out[filled..filled + take]);
                filled += take;
            }
        }
        self.remaining -= N;
        Ok(out)
    }

    fn take_bytes(&mut self, n: usize) -> WireResult<Bytes> {
        if self.remaining < n {
            return Err(WireError::Truncated);
        }
        self.skip_spent();
        self.remaining -= n;
        if n == 0 {
            return Ok(Bytes::new());
        }
        let front = self.segments.front_mut().ok_or(WireError::Truncated)?;
        if front.len() >= n {
            return Ok(front.split_to(n));
        }
        // Slow path: the span straddles segments — copy it together.
        let mut buf = Vec::with_capacity(n);
        let mut left = n;
        while left > 0 {
            self.skip_spent();
            let front = self.segments.front_mut().ok_or(WireError::Truncated)?;
            let take = left.min(front.len());
            buf.extend_from_slice(&front.split_to(take));
            left -= take;
        }
        Ok(Bytes::from(buf))
    }

    /// Decodes the next record, or `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on truncation, corruption, or unknown records.
    pub fn next_record(&mut self) -> WireResult<Option<Record>> {
        let Some((tag, payload)) = self.next_frame()? else {
            return Ok(None);
        };
        decode_payload(tag, payload).map(Some)
    }

    /// Decodes the next record, a page record as a checked [`PageFrame`]
    /// whose pages are parsed into nothing and every other record whole.
    /// `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Exactly the [`WireError`] [`next_record`](Self::next_record) raises
    /// on the same bytes.
    pub fn next_checked(&mut self) -> WireResult<Option<Checked>> {
        let Some((tag, payload)) = self.next_frame()? else {
            return Ok(None);
        };
        let checked = match tag {
            TAG_PAGE_BATCH | TAG_PAGE_DATA | TAG_PAGE_COLUMNS => {
                Checked::Pages(check_page_frame(tag, payload, &mut self.runs, &mut ())?)
            }
            _ => Checked::Record(decode_payload(tag, payload)?),
        };
        Ok(Some(checked))
    }

    /// The next frame's tag and payload, its frame checksum verified, or
    /// `None` at a clean end of stream.
    fn next_frame(&mut self) -> WireResult<Option<(u8, Bytes)>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let [tag, l0, l1, l2, l3, s0, s1, s2, s3] = self.read_array::<FRAME_HEADER_BYTES>()?;
        let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
        let expected_sum = u32::from_be_bytes([s0, s1, s2, s3]);
        if tag == TAG_PAGE_COLUMNS && self.version < VERSION_V3 {
            // Columnar records only exist from v3 on; a v2 stream carrying
            // one is foreign, exactly as a v2 decoder would report it.
            return Err(WireError::UnknownRecord(tag));
        }
        let payload = self.take_bytes(len)?;
        // v3 columnar frames checksum only their tag and fixed header; each
        // column carries its own digest so meta- and payload-column
        // corruption are reported as distinct errors.
        let covered = if tag == TAG_PAGE_COLUMNS {
            if payload.len() < COLUMNS_HEADER_BYTES {
                return Err(WireError::Truncated);
            }
            &payload[..COLUMNS_HEADER_BYTES]
        } else {
            &payload[..]
        };
        let actual_sum = frame_checksum(tag, covered);
        if actual_sum != expected_sum {
            return Err(WireError::ChecksumMismatch {
                expected: expected_sum,
                actual: actual_sum,
            });
        }
        Ok(Some((tag, payload)))
    }

    /// Decodes every remaining record.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] raised mid-stream.
    pub fn collect_records(mut self) -> WireResult<Vec<Record>> {
        let mut records = Vec::new();
        while let Some(r) = self.next_record()? {
            records.push(r);
        }
        Ok(records)
    }
}

/// The one cursor over bytes that arrived from outside.
///
/// Every read is checked against what is left ([`WireError::Truncated`]
/// when short), and a decoder ends in [`Reader::finish`], which refuses
/// unread bytes: a payload is consumed exactly or the record is not
/// accepted. The raw `Buf::get_*` calls (which assert) are reachable from
/// wire bytes only through here.
struct Reader(Bytes);

impl Reader {
    fn need(&self, n: usize) -> WireResult<()> {
        if self.0.len() < n {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    /// The next `n` bytes as a zero-copy slice of the received segment.
    fn take(&mut self, n: usize) -> WireResult<Bytes> {
        self.need(n)?;
        Ok(self.0.split_to(n))
    }

    fn array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        self.need(N)?;
        let mut out = [0u8; N];
        self.0.copy_to_slice(&mut out);
        Ok(out)
    }

    // The scalars go through the fixed-width `get_*` rather than
    // `array`, whose `copy_to_slice` is an out-of-line copy of run-time
    // length (≈ 3 ns a call); page metas are parsed without either.
    fn u8(&mut self) -> WireResult<u8> {
        self.need(1)?;
        Ok(self.0.get_u8())
    }

    fn u16(&mut self) -> WireResult<u16> {
        self.need(2)?;
        Ok(self.0.get_u16())
    }

    fn u32(&mut self) -> WireResult<u32> {
        self.need(4)?;
        Ok(self.0.get_u32())
    }

    fn u64(&mut self) -> WireResult<u64> {
        self.need(8)?;
        Ok(self.0.get_u64())
    }

    /// A flag byte: the encoder writes 0 or 1.
    fn flag(&mut self) -> WireResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadPayload("flag byte is neither 0 nor 1")),
        }
    }

    /// Ends a decode: every byte must have been read.
    fn finish(self) -> WireResult<()> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadPayload("trailing bytes"))
        }
    }
}

/// The cursor over one column of a page-columns record, checked like
/// [`Reader`]. It indexes the column as a plain slice, dereferenced once:
/// a byte costs one bounds check, and no reference count moves until
/// `take` slices a payload out of `owner`.
struct Column<'a> {
    bytes: &'a [u8],
    /// The column the slice is, for zero-copy payloads.
    owner: &'a Bytes,
    at: usize,
}

impl<'a> Column<'a> {
    fn new(owner: &'a Bytes) -> Self {
        Column {
            bytes: owner,
            owner,
            at: 0,
        }
    }

    fn u8(&mut self) -> WireResult<u8> {
        let b = *self.bytes.get(self.at).ok_or(WireError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    /// The next eight bytes as one little-endian word, consumed, when
    /// every one has bit 7 clear: eight whole one-byte varints, value `k`
    /// in byte `k`. Otherwise `None`, and nothing is consumed.
    fn eight_short(&mut self) -> Option<u64> {
        let word = u64::from_le_bytes(*self.bytes[self.at..].first_chunk()?);
        if word & 0x8080_8080_8080_8080 != 0 {
            return None;
        }
        self.at += 8;
        Some(word)
    }

    /// Reads `n` varints, handing each to `each` with its index: eight at
    /// a time while the next eight bytes are one-byte varints, any other
    /// value through [`Column::varint`]. `each` sees the values in order,
    /// and a one-byte varint is always valid, so the first error is the
    /// one a value-at-a-time read raises.
    fn varints(
        &mut self,
        n: usize,
        mut each: impl FnMut(usize, u64) -> WireResult<()>,
    ) -> WireResult<()> {
        let mut i = 0;
        while i < n {
            if n - i >= 8 {
                if let Some(word) = self.eight_short() {
                    for k in 0..8 {
                        each(i + k, word >> (8 * k) & 0x7f)?;
                    }
                    i += 8;
                    continue;
                }
            }
            each(i, self.varint()?)?;
            i += 1;
        }
        Ok(())
    }

    /// The next `out.len()` (at most eight) varints of a column the check
    /// already accepted: a whole word of one-byte varints at once where
    /// there is one, any other value by [`Column::checked_varint`].
    fn fill(&mut self, out: &mut [u64]) {
        if let Ok(word_of) = <&mut [u64; 8]>::try_from(&mut *out) {
            if let Some(word) = self.eight_short() {
                for (k, v) in word_of.iter_mut().enumerate() {
                    *v = word >> (8 * k) & 0x7f;
                }
                return;
            }
        }
        for v in out {
            *v = self.checked_varint();
        }
    }

    /// A varint [`Column::varint`] already accepted, read again with no
    /// check: seven bits a byte until the first byte with bit 7 clear.
    fn checked_varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.bytes[self.at];
            self.at += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }

    /// The one LEB128 reader: a `u64` exactly as [`put_varint`] writes
    /// it — no padding zero group, nothing in the tenth byte above bit 63.
    fn varint(&mut self) -> WireResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(WireError::BadPayload("varint is not minimal"));
                }
                return Ok(v);
            }
        }
        Err(WireError::BadPayload("varint overflows 64 bits"))
    }

    /// The next `n` bytes as a zero-copy slice of the column.
    fn take(&mut self, n: usize) -> WireResult<Bytes> {
        if self.bytes.len() - self.at < n {
            return Err(WireError::Truncated);
        }
        let start = self.at;
        self.at += n;
        Ok(self.owner.slice(start..self.at))
    }

    /// Ends a column: every byte must have been read.
    fn finish(&self) -> WireResult<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::BadPayload("trailing bytes"))
        }
    }
}

fn decode_payload(tag: u8, payload: Bytes) -> WireResult<Record> {
    if matches!(tag, TAG_PAGE_BATCH | TAG_PAGE_DATA | TAG_PAGE_COLUMNS) {
        return decode_page_record(tag, payload);
    }
    let mut r = Reader(payload);
    let record = match tag {
        TAG_HEADER => {
            let source = match r.u8()? {
                0 => HypervisorKind::Xen,
                1 => HypervisorKind::Kvm,
                _ => return Err(WireError::BadPayload("unknown source hypervisor")),
            };
            let name_len = r.u16()? as usize;
            let vm_name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| WireError::BadPayload("vm name is not utf-8"))?;
            Record::StreamHeader {
                source,
                vm_name,
                memory_bytes: r.u64()?,
                vcpus: r.u32()?,
            }
        }
        TAG_CKPT_BEGIN => Record::CheckpointBegin { seq: r.u64()? },
        TAG_VCPU => {
            let index = r.u32()?;
            let online = r.flag()?;
            let regs = decode_arch_regs(&mut r)?;
            Record::VcpuState {
                index,
                cir: CpuStateCir { regs, online },
            }
        }
        TAG_DEVICE => Record::Device(match r.u8()? {
            0 => DeviceIdentity::Net {
                mac: r.array()?,
                mtu: r.u16()?,
            },
            1 => DeviceIdentity::Block {
                volume_id: r.u64()?,
                capacity_sectors: r.u64()?,
                read_only: r.flag()?,
            },
            2 => DeviceIdentity::Console,
            _ => return Err(WireError::BadPayload("unknown device class")),
        }),
        TAG_CKPT_END => Record::CheckpointEnd {
            seq: r.u64()?,
            pages_total: r.u64()?,
        },
        TAG_ACK => Record::Ack { seq: r.u64()? },
        other => return Err(WireError::UnknownRecord(other)),
    };
    r.finish()?;
    Ok(record)
}

fn decode_arch_regs(r: &mut Reader) -> WireResult<ArchRegs> {
    let mut regs = ArchRegs::default();
    for g in &mut regs.gprs {
        *g = r.u64()?;
    }
    regs.rip = r.u64()?;
    regs.rflags = r.u64()?;
    for seg in [
        &mut regs.cs,
        &mut regs.ds,
        &mut regs.es,
        &mut regs.fs,
        &mut regs.gs,
        &mut regs.ss,
        &mut regs.tr,
    ] {
        *seg = Segment {
            selector: r.u16()?,
            base: r.u64()?,
            limit: r.u32()?,
            attributes: r.u16()?,
        };
    }
    let sys = &mut regs.system;
    for v in [
        &mut sys.cr0,
        &mut sys.cr2,
        &mut sys.cr3,
        &mut sys.cr4,
        &mut sys.efer,
        &mut sys.apic_base,
        &mut sys.star,
        &mut sys.lstar,
        &mut sys.kernel_gs_base,
    ] {
        *v = r.u64()?;
    }
    regs.tsc = r.u64()?;
    // The encoder writes 0 for none and `0x100 | vector` for one.
    regs.pending_interrupt = match r.u16()? {
        0 => None,
        v @ 0x100..=0x1ff => Some(v as u8),
        _ => return Err(WireError::BadPayload("pending interrupt is not canonical")),
    };
    Ok(regs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_hypervisor::arch::Gpr;
    use here_hypervisor::memory::materialize_content;

    fn sample_records() -> Vec<Record> {
        let mut regs = ArchRegs::reset_state();
        regs.set_gpr(Gpr::Rdi, 77);
        regs.pending_interrupt = Some(0xfe);
        let mut delta = MemoryDelta::new();
        delta.push(
            PageId::new(42),
            PageVersion {
                version: 9,
                last_writer: 2,
            },
        );
        vec![
            Record::StreamHeader {
                source: HypervisorKind::Xen,
                vm_name: "protected-vm".into(),
                memory_bytes: 1 << 30,
                vcpus: 4,
            },
            Record::CheckpointBegin { seq: 1 },
            Record::PageBatch(delta),
            Record::VcpuState {
                index: 0,
                cir: CpuStateCir { regs, online: true },
            },
            Record::Device(DeviceIdentity::Net {
                mac: [1, 2, 3, 4, 5, 6],
                mtu: 1500,
            }),
            Record::Device(DeviceIdentity::Block {
                volume_id: 7,
                capacity_sectors: 1000,
                read_only: false,
            }),
            Record::Device(DeviceIdentity::Console),
            Record::CheckpointEnd {
                seq: 1,
                pages_total: 1,
            },
            Record::Ack { seq: 1 },
        ]
    }

    #[test]
    fn round_trip_every_record_type() {
        let records = sample_records();
        let mut enc = StreamEncoder::new();
        for r in &records {
            enc.push(r);
        }
        let decoded = StreamDecoder::new(enc.finish())
            .unwrap()
            .collect_records()
            .unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(0xdead_beef);
        buf.put_u16(VERSION);
        assert_eq!(
            StreamDecoder::new(buf.freeze()).unwrap_err(),
            WireError::BadMagic(0xdead_beef)
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(MAGIC);
        buf.put_u16(VERSION_V3 + 1);
        assert_eq!(
            StreamDecoder::new(buf.freeze()).unwrap_err(),
            WireError::UnsupportedVersion(VERSION_V3 + 1)
        );
    }

    #[test]
    fn flipped_bit_is_caught_by_checksum() {
        let mut enc = StreamEncoder::new();
        enc.push(&Record::Ack { seq: 5 });
        let mut bytes = enc.finish().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut dec = StreamDecoder::new(Bytes::from(bytes)).unwrap();
        assert!(matches!(
            dec.next_record(),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_stream_is_caught() {
        let mut enc = StreamEncoder::new();
        enc.push(&Record::CheckpointBegin { seq: 3 });
        let bytes = enc.finish();
        let cut = bytes.slice(0..bytes.len() - 2);
        let mut dec = StreamDecoder::new(cut).unwrap();
        assert_eq!(dec.next_record().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn unknown_record_type_is_reported() {
        let mut buf = BytesMut::new();
        buf.put_u32(MAGIC);
        buf.put_u16(VERSION);
        buf.put_u8(0x7f);
        buf.put_u32(0);
        buf.put_u32(frame_checksum(0x7f, &[]));
        let mut dec = StreamDecoder::new(buf.freeze()).unwrap();
        assert_eq!(
            dec.next_record().unwrap_err(),
            WireError::UnknownRecord(0x7f)
        );
    }

    #[test]
    fn empty_stream_yields_no_records() {
        let enc = StreamEncoder::new();
        assert!(enc.is_empty());
        let records = StreamDecoder::new(enc.finish())
            .unwrap()
            .collect_records()
            .unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn large_page_batch_round_trips() {
        let delta: MemoryDelta = (0..10_000u64)
            .map(|f| {
                (
                    PageId::new(f),
                    PageVersion {
                        version: (f % 7) as u32 + 1,
                        last_writer: (f % 4) as u16,
                    },
                )
            })
            .collect();
        let mut enc = StreamEncoder::new();
        enc.push(&Record::PageBatch(delta.clone()));
        let decoded = StreamDecoder::new(enc.finish())
            .unwrap()
            .collect_records()
            .unwrap();
        assert_eq!(decoded, vec![Record::PageBatch(delta)]);
    }

    #[test]
    fn streaming_checksum_is_chunk_invariant() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        for (fresh, one_shot) in [
            (StreamingChecksum::new(), checksum(&data)),
            (
                StreamingChecksum::tagged(TAG_PAGE_DATA),
                frame_checksum(TAG_PAGE_DATA, &data),
            ),
        ] {
            for chunk in [1usize, 3, 7, 8, 13, 64, 999] {
                let mut c = fresh.clone();
                for piece in data.chunks(chunk) {
                    c.update(piece);
                }
                assert_eq!(c.finish(), one_shot, "chunk size {chunk} diverged");
            }
        }
    }

    #[test]
    fn streaming_checksum_distinguishes_trailing_zeros() {
        assert_ne!(checksum(&[]), checksum(&[0]));
        assert_ne!(checksum(&[0]), checksum(&[0, 0]));
        assert_ne!(checksum(&[1, 2, 3]), checksum(&[1, 2, 3, 0]));
    }

    #[test]
    fn checksum_catches_a_pair_of_top_bit_flips() {
        // The blind spot of a plain FNV-1a word step: the multiply by an
        // odd prime never moves bit 63, so flipping the top bit of two
        // words flipped bit 63 of the state twice and cancelled. The
        // session's mutation fuzzer once found a vCPU record passing its
        // frame checksum this way; the premix in the step closes it.
        let honest: Vec<u8> = (0..64u8).collect();
        let mut forged = honest.clone();
        forged[7] ^= 0x80;
        assert_ne!(checksum(&forged), checksum(&honest));
        forged[39] ^= 0x80;
        assert_ne!(checksum(&forged), checksum(&honest));
    }

    /// Flips bit `b` of a frame: the tag's eight bits, then the payload's.
    fn flip_frame_bit(tag: &mut u8, payload: &mut [u8], b: usize) {
        match b.checked_sub(8) {
            None => *tag ^= 1 << b,
            Some(b) => payload[b / 8] ^= 1 << (b % 8),
        }
    }

    #[test]
    fn frame_checksum_sees_every_one_and_two_bit_error() {
        // Every flip of one or two bits among a frame's tag and its one to
        // eight payload words, three frames per length: 1 312 992 errors.
        let mut errors = 0;
        for words in 1..=8 {
            for tag in [TAG_VCPU, TAG_PAGE_BATCH, TAG_PAGE_DATA] {
                let mut payload: Vec<u8> = (0..8 * words)
                    .map(|i| (i as u8).wrapping_mul(73) ^ tag.wrapping_mul(29) ^ words as u8)
                    .collect();
                let honest = frame_checksum(tag, &payload);
                let mut tag = tag;
                let bits = 8 + 64 * words;
                for i in 0..bits {
                    flip_frame_bit(&mut tag, &mut payload, i);
                    for j in i..bits {
                        // `j == i` is the one-bit error.
                        if j > i {
                            flip_frame_bit(&mut tag, &mut payload, j);
                        }
                        assert_ne!(
                            frame_checksum(tag, &payload),
                            honest,
                            "{words} words, bits {i} and {j}"
                        );
                        if j > i {
                            flip_frame_bit(&mut tag, &mut payload, j);
                        }
                        errors += 1;
                    }
                    flip_frame_bit(&mut tag, &mut payload, i);
                }
            }
        }
        assert_eq!(errors, 1_312_992);
    }

    fn page_content(seed: u8) -> Vec<u8> {
        (0..PAGE_CONTENT_BYTES)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn page_data_writer_matches_record_encoding() {
        let pages: Vec<(PageId, PageVersion, Vec<u8>)> = (0..5u64)
            .map(|f| {
                (
                    PageId::new(f * 3),
                    PageVersion {
                        version: f as u32 + 1,
                        last_writer: f as u16,
                    },
                    page_content(f as u8),
                )
            })
            .collect();

        // Streamed through the in-place writer.
        let mut streamed = BytesMut::new();
        write_preamble(&mut streamed);
        let mut w = PageDataWriter::new(&mut streamed);
        for (page, rec, content) in &pages {
            w.push(*page, *rec, content);
        }
        assert_eq!(w.finish(), pages.len() as u64);

        // Built as an owned record and pushed through the encoder.
        let mut batch = PageDataBatch::new();
        for (page, rec, content) in &pages {
            batch.push(*page, *rec, Bytes::from(content.as_slice()));
        }
        let mut enc = StreamEncoder::new();
        enc.push(&Record::PageDataBatch(batch.clone()));

        assert_eq!(&streamed[..], &enc.finish()[..]);

        let decoded = StreamDecoder::new(streamed.freeze())
            .unwrap()
            .collect_records()
            .unwrap();
        assert_eq!(decoded, vec![Record::PageDataBatch(batch)]);
    }

    #[test]
    fn page_data_decode_is_zero_copy() {
        let mut buf = BytesMut::new();
        write_preamble(&mut buf);
        let mut w = PageDataWriter::new(&mut buf);
        let content = page_content(9);
        w.push(
            PageId::new(4),
            PageVersion {
                version: 1,
                last_writer: 0,
            },
            &content,
        );
        w.finish();
        let stream = buf.freeze();
        let mut dec = StreamDecoder::new(stream.clone()).unwrap();
        let rec = dec.next_record().unwrap().unwrap();
        let Record::PageDataBatch(batch) = rec else {
            panic!("expected a page-data record");
        };
        let (_, _, decoded_content) = &batch.pages()[0];
        assert_eq!(&decoded_content[..], &content[..]);
        // The decoded content shares the stream's storage: reclaiming the
        // stream fails while the slice is alive, proving no copy was made.
        assert!(stream.try_into_mut().is_err());
    }

    #[test]
    fn scattered_segments_decode_like_contiguous() {
        let records = sample_records();

        // Head segment: preamble + first record; one record per further
        // segment — the shape the per-lane encode produces.
        let mut stream = ScatterStream::new();
        let mut head = StreamEncoder::new();
        head.push(&records[0]);
        stream.push(head.finish());
        for r in &records[1..] {
            let mut seg = BytesMut::new();
            encode_record_into(r, &mut seg);
            stream.push(seg.freeze());
        }

        let gathered = stream.gather();
        let total = stream.len();
        assert_eq!(gathered.len(), total);

        let decoded = StreamDecoder::new_scattered(stream)
            .unwrap()
            .collect_records()
            .unwrap();
        assert_eq!(decoded, records);

        let decoded_flat = StreamDecoder::new(gathered)
            .unwrap()
            .collect_records()
            .unwrap();
        assert_eq!(decoded_flat, records);
    }

    #[test]
    fn reads_straddling_segment_boundaries_still_decode() {
        // Split a contiguous stream at every possible byte boundary; the
        // decoder must not care where the seams fall.
        let mut enc = StreamEncoder::new();
        enc.push(&Record::CheckpointBegin { seq: 7 });
        enc.push(&Record::Ack { seq: 7 });
        let flat = enc.finish();
        for cut in 1..flat.len() {
            let mut stream = ScatterStream::new();
            stream.push(flat.slice(0..cut));
            stream.push(flat.slice(cut..flat.len()));
            let decoded = StreamDecoder::new_scattered(stream)
                .unwrap()
                .collect_records()
                .unwrap();
            assert_eq!(
                decoded,
                vec![Record::CheckpointBegin { seq: 7 }, Record::Ack { seq: 7 },],
                "failed when cut at byte {cut}"
            );
        }
    }

    #[test]
    fn slice_page_batch_encoding_matches_owned_record() {
        let entries: Vec<(PageId, PageVersion)> = (0..100u64)
            .map(|f| {
                (
                    PageId::new(f),
                    PageVersion {
                        version: (f % 5) as u32 + 1,
                        last_writer: (f % 3) as u16,
                    },
                )
            })
            .collect();
        let mut direct = BytesMut::new();
        encode_page_batch_into(&entries, &mut direct);

        let delta = MemoryDelta::from_entries(entries);
        let mut via_record = BytesMut::new();
        encode_record_into(&Record::PageBatch(delta), &mut via_record);

        assert_eq!(&direct[..], &via_record[..]);
    }

    mod page_batch_properties {
        use super::*;
        use proptest::prelude::*;

        /// The per-field writer [`encode_page_batch_into`] replaced: the
        /// reference it must match byte for byte.
        fn encode_page_batch_per_field(entries: &[(PageId, PageVersion)], out: &mut BytesMut) {
            let frame_at = reserve_frame(out);
            let payload_at = out.len();
            out.reserve(4 + entries.len() * PAGE_META_BYTES);
            out.put_u32(entries.len() as u32);
            for &(page, rec) in entries {
                out.put_u64(page.frame());
                out.put_u32(rec.version);
                out.put_u16(rec.last_writer);
            }
            let sum = frame_checksum(TAG_PAGE_BATCH, &out[payload_at..]);
            patch_frame(out, frame_at, payload_at, TAG_PAGE_BATCH, sum);
        }

        /// The per-field `TAG_PAGE_BATCH` decode the one-read parse
        /// replaced: the reference for every accept and every error.
        fn decode_page_batch_per_field(payload: Bytes) -> WireResult<Record> {
            let mut r = Reader(payload);
            let count = r.u32()? as usize;
            r.need(count.saturating_mul(PAGE_META_BYTES))?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let page = PageId::new(r.u64()?);
                let version = r.u32()?;
                let last_writer = r.u16()?;
                entries.push((
                    page,
                    PageVersion {
                        version,
                        last_writer,
                    },
                ));
            }
            r.finish()?;
            Ok(Record::PageBatch(MemoryDelta::from_entries(entries)))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The sized writer is byte-identical to the per-field one
            /// behind any bytes already in the buffer; its record decodes
            /// back to the entries; and every truncation, and every count
            /// that disagrees with the length, gets the reference decoder's
            /// verdict, error included.
            #[test]
            fn page_batch_codec_is_the_per_field_codec(
                raw in proptest::collection::vec((any::<u64>(), any::<u32>(), any::<u16>()), 0..48),
                prefix in 0usize..24,
                // The count field's offset from the true count, plus 3.
                count_skew in 0u32..7,
            ) {
                let entries: Vec<(PageId, PageVersion)> = raw
                    .iter()
                    .map(|&(frame, version, last_writer)| {
                        (PageId::new(frame), PageVersion { version, last_writer })
                    })
                    .collect();
                let mut sized = BytesMut::new();
                sized.resize(prefix, 0xa5);
                let mut per_field = sized.clone();
                encode_page_batch_into(&entries, &mut sized);
                encode_page_batch_per_field(&entries, &mut per_field);
                prop_assert_eq!(&sized[..], &per_field[..]);

                let payload = Bytes::from(sized[prefix + FRAME_HEADER_BYTES..].to_vec());
                let want = Record::PageBatch(MemoryDelta::from_entries(entries.clone()));
                prop_assert_eq!(decode_payload(TAG_PAGE_BATCH, payload.clone()), Ok(want));
                for cut in 0..payload.len() {
                    let short = payload.slice(0..cut);
                    prop_assert_eq!(
                        decode_payload(TAG_PAGE_BATCH, short.clone()),
                        decode_page_batch_per_field(short)
                    );
                }
                let mut lying = payload.to_vec();
                let count = (entries.len() as u32 + count_skew).saturating_sub(3);
                lying[..4].copy_from_slice(&count.to_be_bytes());
                let lying = Bytes::from(lying);
                let got = decode_payload(TAG_PAGE_BATCH, lying.clone());
                prop_assert_eq!(&got, &decode_page_batch_per_field(lying));
                prop_assert_eq!(got.is_ok(), count as usize == entries.len());
            }
        }
    }

    #[test]
    fn encoder_buffer_reuse_produces_identical_streams() {
        let records = sample_records();
        let mut enc = StreamEncoder::new();
        for r in &records {
            enc.push(r);
        }
        let first = enc.finish();

        // Recycle the frozen stream's storage into a second encoder.
        let recycled = first
            .clone()
            .try_into_mut()
            .err()
            .map(|_| BytesMut::with_capacity(first.len()))
            .unwrap_or_default();
        let mut enc2 = StreamEncoder::with_buffer_versioned(recycled, VERSION);
        for r in &records {
            enc2.push(r);
        }
        assert_eq!(first, enc2.finish());
    }

    fn v3_buf() -> BytesMut {
        let mut buf = BytesMut::new();
        write_preamble_versioned(&mut buf, VERSION_V3);
        buf
    }

    fn sample_columns_batch() -> PageColumnsBatch {
        let base = page_content(1);
        let mut touched = base.clone();
        touched[100] ^= 0xff;
        touched[2000..2010].copy_from_slice(&[7u8; 10]);
        let mut batch = PageColumnsBatch::new(4);
        let rec = |v: u32, w: u16| PageVersion {
            version: v,
            last_writer: w,
        };
        batch.push(PageId::new(3), rec(1, 0), PagePayload::Meta);
        batch.push(
            PageId::new(5),
            rec(2, 1),
            classify_page(&vec![0u8; PAGE_CONTENT_BYTES], None),
        );
        batch.push(
            PageId::new(6),
            rec(3, 0),
            classify_page(&page_content(9), None),
        );
        batch.push(
            PageId::new(9),
            rec(4, 1),
            classify_page(&touched, Some(&base)),
        );
        batch
    }

    #[test]
    fn v3_page_columns_round_trip() {
        let batch = sample_columns_batch();
        let mut buf = v3_buf();
        encode_record_into(&Record::PageColumns(batch.clone()), &mut buf);
        let mut dec = StreamDecoder::new(buf.freeze()).unwrap();
        assert_eq!(dec.version(), VERSION_V3);
        let Record::PageColumns(decoded) = dec.next_record().unwrap().unwrap() else {
            panic!("expected a page-columns record");
        };
        assert_eq!(decoded, batch);
        assert_eq!(decoded.base_epoch(), 4);
    }

    #[test]
    fn checked_decode_keeps_page_records_as_frames_that_read_back_their_pages() {
        let pages = golden_shard();
        let mixed = sample_columns_batch();
        let mut buf = v3_buf();
        encode_page_columns_meta_into(9, &pages, &mut buf);
        encode_page_batch_into(&pages, &mut buf);
        encode_record_into(&Record::PageColumns(mixed.clone()), &mut buf);
        let data: Vec<_> = pages[..2]
            .iter()
            .map(|&(page, rec)| (page, rec, Bytes::from(page_content(rec.version as u8))))
            .collect();
        let mut writer = PageDataWriter::new(&mut buf);
        for (page, rec, content) in &data {
            writer.push(*page, *rec, content);
        }
        writer.finish();
        encode_record_into(&Record::Ack { seq: 2 }, &mut buf);
        let mut dec = StreamDecoder::new(buf.freeze()).unwrap();
        let mut checked = std::iter::from_fn(|| dec.next_checked().unwrap());
        let mut next = || {
            let Some(Checked::Pages(frame)) = checked.next() else {
                panic!("not a page record");
            };
            let mut read = Vec::new();
            frame.for_each_page(|page, rec| read.push((page, rec)));
            assert_eq!(read.len(), frame.len());
            (frame.base_epoch(), frame.top(), read, frame.record())
        };
        let top = 1000 + 37 * 8;
        let (base, got_top, read, record) = next();
        assert_eq!((base, got_top), (Some(9), top));
        assert_eq!(read, pages);
        let metas = pages.iter().map(|&(p, r)| (p, r, PagePayload::Meta));
        let mut meta_only = PageColumnsBatch::new(9);
        metas.for_each(|(p, r, pay)| meta_only.push(p, r, pay));
        assert_eq!(record, Record::PageColumns(meta_only));
        let (base, got_top, read, record) = next();
        assert_eq!((base, got_top), (None, top));
        assert_eq!(read, pages);
        assert_eq!(record, Record::PageBatch(pages.iter().copied().collect()));
        let (base, got_top, read, record) = next();
        let want: Vec<_> = mixed.entries().iter().map(|&(p, r, _)| (p, r)).collect();
        let mixed_top = want.iter().map(|(p, _)| p.frame()).max().unwrap();
        assert_eq!(
            (base, got_top, read),
            (Some(mixed.base_epoch()), mixed_top, want)
        );
        assert_eq!(record, Record::PageColumns(mixed));
        let (base, got_top, read, record) = next();
        assert_eq!((base, got_top), (None, pages[1].0.frame()));
        assert_eq!(read, pages[..2]);
        let Record::PageDataBatch(batch) = record else {
            panic!("a page-data record decoded as {record:?}");
        };
        assert_eq!(batch.pages(), &data[..]);
        assert_eq!(
            checked.next(),
            Some(Checked::Record(Record::Ack { seq: 2 }))
        );
        assert_eq!(checked.next(), None);
    }

    #[test]
    fn v3_payload_classifier_covers_all_modes() {
        let base = page_content(2);
        // Zero page suppressed entirely.
        assert_eq!(
            classify_page(&vec![0u8; PAGE_CONTENT_BYTES], Some(&base)),
            PagePayload::Zero
        );
        // First-touch (no base) travels whole.
        let content = page_content(3);
        let PagePayload::Full(full) = classify_page(&content, None) else {
            panic!("first-touch page must travel whole");
        };
        assert_eq!(&full[..], &content[..]);
        // Low-entropy rewrite becomes sparse XOR runs that re-materialize.
        let mut touched = base.clone();
        touched[17] = !touched[17];
        touched[400..420].fill(0xaa);
        let payload = classify_page(&touched, Some(&base));
        assert!(matches!(payload, PagePayload::Delta(_)));
        let restored = payload.materialize(Some(&base)).unwrap().unwrap();
        assert_eq!(restored, touched);
        // High-entropy rewrite falls back to a full page.
        let rewritten = page_content(200);
        assert!(matches!(
            classify_page(&rewritten, Some(&base)),
            PagePayload::Full(_)
        ));
        // Unchanged content re-asserts the base with an empty delta.
        let payload = classify_page(&base, Some(&base));
        assert_eq!(payload, PagePayload::Delta(Vec::new()));
        assert_eq!(payload.materialize(Some(&base)).unwrap().unwrap(), base);
    }

    /// The classifier as it stood before the bitmap rewrite, byte at a
    /// time and kept verbatim: the reference the differential property
    /// and the boundary tests compare [`classify_page`] against.
    fn classify_reference(content: &[u8], base: Option<&[u8]>) -> PagePayload {
        assert_eq!(
            content.len(),
            PAGE_CONTENT_BYTES,
            "page content must be exactly one page"
        );
        if content.iter().all(|&b| b == 0) {
            return PagePayload::Zero;
        }
        if let Some(base) = base {
            assert_eq!(
                base.len(),
                PAGE_CONTENT_BYTES,
                "delta base must be exactly one page"
            );
            if let Some(runs) = sparse_xor_runs(content, base) {
                return PagePayload::Delta(runs);
            }
        }
        PagePayload::Full(Bytes::from(content.to_vec()))
    }

    fn sparse_xor_runs(content: &[u8], base: &[u8]) -> Option<Vec<(u32, Bytes)>> {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let mut i = 0;
        while i < content.len() {
            if content[i] == base[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < content.len() && content[i] != base[i] {
                i += 1;
            }
            match spans.last_mut() {
                Some(last) if start - last.1 <= DELTA_RUN_MERGE_GAP => last.1 = i,
                _ => spans.push((start, i)),
            }
        }
        let cost: usize = spans.iter().map(|&(s, e)| 4 + (e - s)).sum();
        if cost > DELTA_MAX_BYTES {
            return None;
        }
        Some(
            spans
                .into_iter()
                .map(|(s, e)| {
                    let xored: Vec<u8> = content[s..e]
                        .iter()
                        .zip(&base[s..e])
                        .map(|(&c, &b)| c ^ b)
                        .collect();
                    (s as u32, Bytes::from(xored))
                })
                .collect(),
        )
    }

    /// `base` with every byte of each span inverted, so a span differs in
    /// all of its bytes and nowhere else.
    fn with_spans(base: &[u8], spans: &[std::ops::Range<usize>]) -> Vec<u8> {
        let mut content = base.to_vec();
        for span in spans {
            for b in &mut content[span.clone()] {
                *b = !*b;
            }
        }
        content
    }

    /// The `(offset, length)` of each run `content` classifies to against
    /// `base`, or `None` for a full page; checked against the reference
    /// and against materialization on the way.
    fn delta_shape(content: &[u8], base: &[u8]) -> Option<Vec<(usize, usize)>> {
        let payload = classify_page(content, Some(base));
        assert_eq!(payload, classify_reference(content, Some(base)));
        assert_eq!(payload.materialize(Some(base)).unwrap().unwrap(), content);
        match payload {
            PagePayload::Delta(runs) => Some(
                runs.iter()
                    .map(|(offset, xor)| (*offset as usize, xor.len()))
                    .collect(),
            ),
            PagePayload::Full(_) => None,
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn v3_delta_gap_of_eight_merges_and_nine_does_not() {
        let base = page_content(5);
        // The equal stretch between the spans straddles a 16-byte vector
        // lane, a 64-byte bitmap word, a 64-byte word with the second
        // span running into a third word, and ends on the page's last byte.
        for (first, second_len) in [(10..12, 3), (57..60, 5), (120..126, 70), (4000..4060, 20)] {
            for gap in [DELTA_RUN_MERGE_GAP, DELTA_RUN_MERGE_GAP + 1] {
                let second = first.end + gap..first.end + gap + second_len;
                let content = with_spans(&base, &[first.clone(), second.clone()]);
                let expected = if gap <= DELTA_RUN_MERGE_GAP {
                    vec![(first.start, second.end - first.start)]
                } else {
                    vec![(first.start, first.len()), (second.start, second.len())]
                };
                assert_eq!(
                    delta_shape(&content, &base),
                    Some(expected),
                    "{first:?} then {second:?}"
                );
            }
        }
        for gap in [DELTA_RUN_MERGE_GAP, DELTA_RUN_MERGE_GAP + 1] {
            let second = PAGE_CONTENT_BYTES - 6..PAGE_CONTENT_BYTES;
            let first = second.start - gap - 4..second.start - gap;
            let content = with_spans(&base, &[first.clone(), second.clone()]);
            let runs = delta_shape(&content, &base).unwrap();
            assert_eq!(runs.len(), if gap <= DELTA_RUN_MERGE_GAP { 1 } else { 2 });
            let last = runs.last().unwrap();
            assert_eq!(last.0 + last.1, PAGE_CONTENT_BYTES);
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a one-span page is meant
    fn v3_delta_cost_cap_is_inclusive() {
        let base = page_content(6);
        // One span: 4 + 2044 = 2048 stays a delta, one byte more does not.
        assert_eq!(
            delta_shape(&with_spans(&base, &[100..2144]), &base),
            Some(vec![(100, 2044)])
        );
        assert_eq!(delta_shape(&with_spans(&base, &[100..2145]), &base), None);
        // The cap applies to the merged cost: the eight equal bytes of the
        // gap are charged, the second header is not.
        assert_eq!(
            delta_shape(&with_spans(&base, &[0..1000, 1008..2044]), &base),
            Some(vec![(0, 2044)])
        );
        assert_eq!(
            delta_shape(&with_spans(&base, &[0..1000, 1008..2045]), &base),
            None
        );
        // Unmerged, both headers are charged: 2 * 4 + 1000 + 1040 = 2048.
        assert_eq!(
            delta_shape(&with_spans(&base, &[0..1000, 1009..2049]), &base),
            Some(vec![(0, 1000), (1009, 1040)])
        );
        assert_eq!(
            delta_shape(&with_spans(&base, &[0..1000, 1009..2050]), &base),
            None
        );
    }

    #[test]
    fn v3_delta_holds_at_most_409_runs() {
        assert_eq!(DELTA_MAX_RUNS, 409);
        let base = page_content(7);
        let isolated =
            |count: usize| -> Vec<_> { (0..count).map(|i| 10 * i..10 * i + 1).collect() };
        // 409 runs of one byte cost 409 * 5 = 2045.
        let runs = delta_shape(&with_spans(&base, &isolated(409)), &base).unwrap();
        assert_eq!(runs.len(), 409);
        assert!(runs.iter().enumerate().all(|(i, &run)| run == (10 * i, 1)));
        // The 410th takes the cost to 2050 and must not be stored.
        assert_eq!(delta_shape(&with_spans(&base, &isolated(410)), &base), None);
    }

    #[test]
    fn v3_delta_runs_share_one_xor_buffer() {
        let base = page_content(8);
        let content = with_spans(&base, &[3..9, 700..760, 4090..4096]);
        let PagePayload::Delta(runs) = classify_page(&content, Some(&base)) else {
            panic!("three short spans must classify as a delta");
        };
        // Every run's XOR bytes are the inversion mask, and the runs lie
        // back to back in one allocation.
        assert!(runs.iter().all(|(_, xor)| xor.iter().all(|&b| b == 0xff)));
        for pair in runs.windows(2) {
            assert_eq!(
                pair[0].1.as_ptr().wrapping_add(pair[0].1.len()),
                pair[1].1.as_ptr()
            );
        }
    }

    /// Equal-byte gaps the differential property places between patches:
    /// each side of the merge threshold, of a vector lane and of a bitmap
    /// word.
    const PATCH_GAPS: [usize; 11] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65];

    mod classify_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(768))]

            #[test]
            fn classify_matches_the_byte_at_a_time_reference(
                noise in proptest::collection::vec(any::<u8>(), PAGE_CONTENT_BYTES),
                // 0: random base; 1: four-value base, so a constant patch
                // often rewrites a byte with itself; 2: all-zero base.
                base_kind in 0u8..3,
                // 0: all-zero content; 1: content == base; else patched.
                content_kind in 0u8..8,
                max_len in 0usize..4,
                patches in proptest::collection::vec(
                    // (chained?, offset, gap index, length, fill, value)
                    (any::<bool>(), 0..PAGE_CONTENT_BYTES, 0..PATCH_GAPS.len(), 1usize..=200, 0u8..3, any::<u8>()),
                    0..=300,
                ),
            ) {
                let base: Vec<u8> = match base_kind {
                    0 => noise.clone(),
                    1 => noise.iter().map(|b| b & 3).collect(),
                    _ => vec![0; PAGE_CONTENT_BYTES],
                };
                let mut content = base.clone();
                let max_len = [1, 4, 24, 200][max_len];
                let mut prev_end = 0;
                for &(chained, offset, gap, len, fill, value) in &patches {
                    let start = if chained { prev_end + PATCH_GAPS[gap] } else { offset };
                    let end = (start + 1 + (len - 1) % max_len).min(PAGE_CONTENT_BYTES);
                    if start >= end {
                        continue;
                    }
                    for (at, b) in content[start..end].iter_mut().enumerate() {
                        *b = match fill {
                            // Differs everywhere.
                            0 => !*b,
                            // One value over the patch: equal wherever the
                            // base already held it.
                            1 => value & 3,
                            _ => noise[(start + at + usize::from(value)) % PAGE_CONTENT_BYTES],
                        };
                    }
                    prev_end = end;
                }
                match content_kind {
                    0 => content.fill(0),
                    1 => content.clone_from(&base),
                    _ => {}
                }

                let against_base = classify_page(&content, Some(&base));
                prop_assert_eq!(&against_base, &classify_reference(&content, Some(&base)));
                prop_assert_eq!(
                    against_base.materialize(Some(&base)).unwrap().unwrap(),
                    content.clone()
                );
                let first_touch = classify_page(&content, None);
                prop_assert_eq!(&first_touch, &classify_reference(&content, None));
                prop_assert_eq!(first_touch.materialize(None).unwrap().unwrap(), content);
            }
        }
    }

    #[test]
    fn v3_meta_column_corruption_is_distinct_from_payload_corruption() {
        let batch = sample_columns_batch();
        let mut buf = v3_buf();
        encode_record_into(&Record::PageColumns(batch.clone()), &mut buf);
        let clean = buf.freeze();
        let header_at = PREAMBLE_BYTES + FRAME_HEADER_BYTES;
        let meta_at = header_at + COLUMNS_HEADER_BYTES;
        let meta_len =
            u32::from_be_bytes(clean[header_at + 12..header_at + 16].try_into().unwrap()) as usize;

        // Bit-flip inside the meta column.
        let mut corrupt = clean.to_vec();
        corrupt[meta_at + 1] ^= 0x40;
        let mut dec = StreamDecoder::new(Bytes::from(corrupt)).unwrap();
        assert!(matches!(
            dec.next_record(),
            Err(WireError::MetaColumnCorrupt { .. })
        ));

        // Bit-flip inside the payload column.
        let mut corrupt = clean.to_vec();
        corrupt[meta_at + meta_len + 5] ^= 0x40;
        let mut dec = StreamDecoder::new(Bytes::from(corrupt)).unwrap();
        assert!(matches!(
            dec.next_record(),
            Err(WireError::PayloadColumnCorrupt { .. })
        ));

        // Bit-flip inside the fixed header is caught by the frame checksum.
        let mut corrupt = clean.to_vec();
        corrupt[header_at + 9] ^= 0x01;
        let mut dec = StreamDecoder::new(Bytes::from(corrupt)).unwrap();
        assert!(matches!(
            dec.next_record(),
            Err(WireError::ChecksumMismatch { .. })
        ));

        // Truncation mid-payload-column.
        let cut = clean.slice(0..clean.len() - 3);
        let mut dec = StreamDecoder::new(cut).unwrap();
        assert_eq!(dec.next_record().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn v3_hostile_page_count_is_rejected_before_it_sizes_an_allocation() {
        // A header-only record claiming u32::MAX pages, with the outer,
        // meta and payload sums all self-consistent.
        let mut buf = v3_buf();
        encode_record_into(&Record::PageColumns(PageColumnsBatch::new(0)), &mut buf);
        let header_at = PREAMBLE_BYTES + FRAME_HEADER_BYTES;
        buf[header_at + 8..header_at + 12].copy_from_slice(&u32::MAX.to_be_bytes());
        let outer = frame_checksum(
            TAG_PAGE_COLUMNS,
            &buf[header_at..header_at + COLUMNS_HEADER_BYTES],
        );
        patch_frame(&mut buf, PREAMBLE_BYTES, header_at, TAG_PAGE_COLUMNS, outer);
        let mut dec =
            StreamDecoder::new_negotiated(ScatterStream::from(buf.freeze()), VERSION_V3).unwrap();
        assert_eq!(
            dec.next_record().unwrap_err(),
            WireError::BadPayload("page count exceeds meta column length")
        );
    }

    #[test]
    fn v3_wrong_delta_base_is_reported() {
        let batch = sample_columns_batch();
        assert!(batch.check_base(4).is_ok());
        assert_eq!(
            batch.check_base(3).unwrap_err(),
            WireError::DeltaBaseMismatch {
                stream_base: 4,
                replica_base: 3,
            }
        );
    }

    #[test]
    fn negotiated_decoder_rejects_stale_version() {
        // A v2 stream after v3 was negotiated is stale, not merely old.
        let enc = StreamEncoder::new();
        let stream = ScatterStream::from(enc.finish());
        assert_eq!(
            StreamDecoder::new_negotiated(stream, VERSION_V3).unwrap_err(),
            WireError::StaleVersion {
                negotiated: VERSION_V3,
                actual: VERSION,
            }
        );
        // And the agreed version passes.
        let mut buf = v3_buf();
        encode_record_into(&Record::Ack { seq: 1 }, &mut buf);
        let dec =
            StreamDecoder::new_negotiated(ScatterStream::from(buf.freeze()), VERSION_V3).unwrap();
        assert_eq!(dec.version(), VERSION_V3);
    }

    #[test]
    fn v2_stream_rejects_columnar_record() {
        let mut buf = BytesMut::new();
        write_preamble(&mut buf);
        encode_record_into(&Record::PageColumns(PageColumnsBatch::new(0)), &mut buf);
        let mut dec = StreamDecoder::new(buf.freeze()).unwrap();
        assert_eq!(
            dec.next_record().unwrap_err(),
            WireError::UnknownRecord(0x09)
        );
    }

    /// The fixed 9-page shard behind the golden frame header: a pristine
    /// page and a wrapped version ride in the first group.
    fn golden_shard() -> Vec<(PageId, PageVersion)> {
        [1u32, 2, 0, u32::MAX, 5, 6, 7, 8, 9]
            .iter()
            .enumerate()
            .map(|(i, &version)| {
                (
                    PageId::new(1000 + 37 * i as u64),
                    PageVersion {
                        version,
                        last_writer: (i % 4) as u16,
                    },
                )
            })
            .collect()
    }

    /// Encodes `shard` as one record, appending a lock-step group wherever
    /// `grouped` says so and four pages remain, and single pre-built
    /// pages everywhere else.
    fn write_shard(
        shard: &[(PageId, PageVersion)],
        mut grouped: impl FnMut() -> bool,
        out: &mut BytesMut,
    ) {
        let mut w = PageDataWriter::new(out);
        let mut rest = shard;
        while let Some((&(page, rec), tail)) = rest.split_first() {
            match rest.first_chunk::<GROUP_PAGES>() {
                Some(group) if grouped() => {
                    w.push_group(group);
                    rest = &rest[GROUP_PAGES..];
                }
                _ => {
                    w.push(page, rec, &materialize_content(page, rec)[..]);
                    rest = tail;
                }
            }
        }
        assert_eq!(w.finish(), shard.len() as u64);
    }

    #[test]
    fn v2_page_data_frame_header_is_pinned() {
        // Tag, length and checksum of the shard as the one-page-at-a-time
        // writer of the commit before `push_group` framed it. If this
        // moves, the v2 wire moved.
        const GOLDEN: [u8; FRAME_HEADER_BYTES] =
            [0x08, 0x00, 0x00, 0x90, 0x7e, 0x97, 0x26, 0xca, 0xd5];
        let shard = golden_shard();
        let mut all_push = BytesMut::new();
        write_shard(&shard, || false, &mut all_push);
        assert_eq!(all_push[..FRAME_HEADER_BYTES], GOLDEN);
        assert_eq!(
            all_push.len(),
            FRAME_HEADER_BYTES + shard.len() * PAGE_RECORD_BYTES
        );

        // group, group, push — what `encode_shard` does with nine pages.
        let mut groups_first = BytesMut::new();
        write_shard(&shard, || true, &mut groups_first);
        assert!(groups_first == all_push, "grouped encode moved the wire");

        // push, group, group: the groups start on a partial checksum word.
        let mut first = true;
        let mut push_first = BytesMut::new();
        write_shard(&shard, || !std::mem::take(&mut first), &mut push_first);
        assert!(
            push_first == all_push,
            "unaligned grouped encode moved the wire"
        );
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn v3_page_columns_bytes_are_pinned() {
        // Every byte of both v3 records as the commit before the two meta
        // writers became one wrote them. If this moves, the v3 wire moved.
        // (`repro wire` gates how much denser than v2 these are.)
        let rec = |version, last_writer| PageVersion {
            version,
            last_writer,
        };
        // (a) The lanes' meta-only record; frames go down as well as up,
        // so the zigzag gaps are of both signs.
        let metas = [
            (PageId::new(300), rec(7, 1)),
            (PageId::new(5), rec(1, 0)),
            (PageId::new(70_000), rec(u32::MAX, 3)),
            (PageId::new(70_001), rec(200, 300)),
        ];
        let mut meta_only = BytesMut::new();
        encode_page_columns_meta_into(11, &metas, &mut meta_only);
        assert_eq!(hex(&meta_only), GOLDEN_META);

        // (b) Every mode in one record: two mode runs of Meta around the
        // others, the delta's runs and the full page in the payload column.
        let mut batch = PageColumnsBatch::new(0x0102_0304_0506_0708);
        batch.push(PageId::new(9), rec(1, 0), PagePayload::Meta);
        batch.push(PageId::new(8), rec(2, 1), PagePayload::Meta);
        batch.push(PageId::new(4096), rec(3, 0), PagePayload::Zero);
        batch.push(
            PageId::new(2),
            rec(4, 2),
            PagePayload::Delta(vec![
                (100, Bytes::from(vec![0xff])),
                (2000, Bytes::from(vec![7u8; 3])),
            ]),
        );
        batch.push(
            PageId::new(3),
            rec(5, 0),
            PagePayload::Full(Bytes::from(vec![0x5a; PAGE_CONTENT_BYTES])),
        );
        batch.push(PageId::new(1 << 40), rec(6, 0), PagePayload::Delta(vec![]));
        batch.push(PageId::new(0), rec(0, 0), PagePayload::Meta);
        let mut mixed = BytesMut::new();
        encode_page_columns_into(&batch, &mut mixed);
        let (head, tail) = GOLDEN_MIXED;
        assert_eq!(
            hex(&mixed),
            [head, &"5a".repeat(PAGE_CONTENT_BYTES), tail].concat()
        );
    }

    const GOLDEN_META: &str =
        "090000003443c1d759000000000000000b0000000400000018000000002b34eb0629620a93\
                               d804cd04d6c5080200040701ffffffff0fc801010003ac02";
    /// The mixed record around its one full page of `0x5a`.
    const GOLDEN_MIXED: (&str, &str) = (
        "09000010540977951e0102030405060708000000070000002d0000100b085d6bc73704f53d\
         1201f03ffb3f02faffffffff3fffffffffff3f0002010103010201030100010102030405060000010002000000\
         026401ffd00f03070707",
        "00",
    );

    /// One record of every kind behind a v3 preamble, and the offset of
    /// each frame's tag byte.
    fn one_of_each_kind() -> (Vec<u8>, Vec<usize>) {
        let mut data = PageDataBatch::new();
        data.push(
            PageId::new(1),
            PageVersion::default(),
            Bytes::from(page_content(1)),
        );
        let mut buf = v3_buf();
        let mut tags = Vec::new();
        for record in sample_records().into_iter().chain([
            Record::PageDataBatch(data),
            Record::PageColumns(sample_columns_batch()),
        ]) {
            tags.push(buf.len());
            encode_record_into(&record, &mut buf);
        }
        (buf.to_vec(), tags)
    }

    fn decode_with_tag(mut stream: Vec<u8>, at: usize, tag: u8) -> WireResult<Vec<Record>> {
        stream[at] = tag;
        StreamDecoder::new(Bytes::from(stream))?.collect_records()
    }

    /// Like [`decode_with_tag`], with the frame's checksum recomputed
    /// under the new tag, as a sender who can run FNV would forge it (for
    /// a frame whose checksum covers its whole payload).
    fn decode_resealed_with_tag(
        mut stream: Vec<u8>,
        at: usize,
        tag: u8,
    ) -> WireResult<Vec<Record>> {
        let len = u32::from_be_bytes(stream[at + 1..at + 5].try_into().unwrap()) as usize;
        let payload_at = at + FRAME_HEADER_BYTES;
        let sum = frame_checksum(tag, &stream[payload_at..payload_at + len]);
        stream[at + 5..payload_at].copy_from_slice(&sum.to_be_bytes());
        decode_with_tag(stream, at, tag)
    }

    #[test]
    fn hostile_flipped_tag_is_a_typed_error() {
        // The frame checksum covers the tag, so a flipped one fails it;
        // under a forged checksum, what still catches it is that the other
        // kind's decoder must consume the payload exactly. The three below
        // once decoded `Ok` — a vCPU's registers as a NIC, the round's
        // opening as an empty page batch, its trailer as an acknowledgement.
        let (stream, tags) = one_of_each_kind();
        for (from, to) in [
            (TAG_VCPU, TAG_DEVICE),
            (TAG_CKPT_BEGIN, TAG_PAGE_BATCH),
            (TAG_CKPT_END, TAG_ACK),
        ] {
            let at = *tags.iter().find(|&&at| stream[at] == from).unwrap();
            assert!(
                matches!(
                    decode_with_tag(stream.clone(), at, to),
                    Err(WireError::ChecksumMismatch { .. })
                ),
                "{from:#04x} -> {to:#04x}"
            );
            assert_eq!(
                decode_resealed_with_tag(stream.clone(), at, to).unwrap_err(),
                WireError::BadPayload("trailing bytes"),
                "{from:#04x} -> {to:#04x}, resealed"
            );
        }
    }

    #[test]
    fn hostile_tag_one_bit_away_is_never_accepted() {
        let (stream, tags) = one_of_each_kind();
        let mut flips = 0;
        for &at in &tags {
            for bit in 0..8 {
                let to = stream[at] ^ (1 << bit);
                if (TAG_HEADER..=TAG_PAGE_COLUMNS).contains(&to) {
                    flips += 1;
                    assert!(
                        decode_with_tag(stream.clone(), at, to).is_err(),
                        "{:#04x} -> {to:#04x} was accepted",
                        stream[at]
                    );
                }
            }
        }
        // Every pair of valid tags one bit apart, both ways round; the
        // device tag rides three records.
        assert_eq!(flips, 22 + 2 * 3);
    }

    #[test]
    fn the_same_length_tag_pair_fails_the_frame_checksum() {
        // A Kvm stream header with a three-byte VM name is 18 bytes, which
        // is exactly a block-device identity, and with one vCPU its last
        // byte is a valid read-only flag, so both decoders read all 18.
        // Exact consumption cannot tell them apart; the tag under the
        // frame checksum does.
        let mut buf = v3_buf();
        let header = Record::StreamHeader {
            source: HypervisorKind::Kvm,
            vm_name: "vm1".into(),
            memory_bytes: 1 << 30,
            vcpus: 1,
        };
        encode_record_into(&header, &mut buf);
        assert!(matches!(
            decode_with_tag(buf.to_vec(), PREAMBLE_BYTES, TAG_DEVICE),
            Err(WireError::ChecksumMismatch { .. })
        ));
        // Only the checksum stood in the way: resealed, it reads as a disk.
        let got = decode_resealed_with_tag(buf.to_vec(), PREAMBLE_BYTES, TAG_DEVICE).unwrap();
        assert!(matches!(
            got[..],
            [Record::Device(DeviceIdentity::Block { .. })]
        ));
    }

    #[test]
    fn hostile_non_canonical_flags_and_pending_interrupts_are_rejected() {
        // Anything the encoder would not write back byte for byte.
        let mut buf = v3_buf();
        let vcpu = sample_records().remove(3);
        encode_record_into(&vcpu, &mut buf);
        let payload_at = PREAMBLE_BYTES + FRAME_HEADER_BYTES;
        let online_at = payload_at + 4;
        let pending_at = buf.len() - 2;
        for (at, byte, why) in [
            (online_at, 2, "flag byte is neither 0 nor 1"),
            (pending_at, 0x00, "pending interrupt is not canonical"),
            (pending_at, 0x03, "pending interrupt is not canonical"),
        ] {
            let mut forged = buf.clone();
            forged[at] = byte;
            let sum = frame_checksum(TAG_VCPU, &forged[payload_at..]);
            patch_frame(&mut forged, PREAMBLE_BYTES, payload_at, TAG_VCPU, sum);
            let mut dec = StreamDecoder::new(forged.freeze()).unwrap();
            assert_eq!(dec.next_record().unwrap_err(), WireError::BadPayload(why));
        }
    }

    /// The value-at-a-time v3 meta codec the word-at-a-time column writer
    /// and reader replaced: the references they must match, byte for byte
    /// and verdict for verdict.
    mod columns_codec_properties {
        use super::*;
        use proptest::prelude::*;

        /// The writer: one [`put_varint`] per value. Generated shards carry
        /// no payload bytes, so the payload column stays empty.
        fn encode_columns_per_value(batch: &PageColumnsBatch, out: &mut BytesMut) {
            let frame_at = reserve_frame(out);
            let header_at = out.len();
            out.extend_from_slice(&[0u8; COLUMNS_HEADER_BYTES]);
            let meta_at = out.len();
            let mut prev: i64 = 0;
            for (page, _, _) in &batch.entries {
                let f = page.frame() as i64;
                put_varint(out, zigzag(f.wrapping_sub(prev)));
                prev = f;
            }
            let mut modes = batch.entries.iter().map(|(_, _, p)| mode_of(p)).peekable();
            while let Some(mode) = modes.next() {
                let mut run = 1u64;
                while modes.next_if_eq(&mode).is_some() {
                    run += 1;
                }
                out.put_u8(mode);
                put_varint(out, run);
            }
            for (_, rec, _) in &batch.entries {
                put_varint(out, u64::from(rec.version));
            }
            for (_, rec, _) in &batch.entries {
                put_varint(out, u64::from(rec.last_writer));
            }
            let payload_at = out.len();
            let count = batch.entries.len() as u32;
            patch_columns_header(out, header_at, batch.base_epoch, count, meta_at, payload_at);
            let outer = frame_checksum(
                TAG_PAGE_COLUMNS,
                &out[header_at..header_at + COLUMNS_HEADER_BYTES],
            );
            patch_frame(out, frame_at, header_at, TAG_PAGE_COLUMNS, outer);
        }

        /// The reader's cursor: one byte per call, through the `Bytes`.
        struct ByteColumn<'a> {
            column: &'a Bytes,
            at: usize,
        }

        impl ByteColumn<'_> {
            fn u8(&mut self) -> WireResult<u8> {
                let b = *self.column.get(self.at).ok_or(WireError::Truncated)?;
                self.at += 1;
                Ok(b)
            }

            fn varint(&mut self) -> WireResult<u64> {
                let mut v = 0u64;
                for shift in (0..64).step_by(7) {
                    let b = self.u8()?;
                    if shift == 63 && b > 1 {
                        break;
                    }
                    v |= u64::from(b & 0x7f) << shift;
                    if b & 0x80 == 0 {
                        if b == 0 && shift > 0 {
                            return Err(WireError::BadPayload("varint is not minimal"));
                        }
                        return Ok(v);
                    }
                }
                Err(WireError::BadPayload("varint overflows 64 bits"))
            }
        }

        /// The reader: a `TAG_PAGE_COLUMNS` payload decoded one value at
        /// a time, the reference for every accept and every error.
        fn decode_columns_per_value(payload: Bytes) -> WireResult<PageColumnsBatch> {
            let mut r = Reader(payload);
            let header = ColumnsHeader::read(&mut r)?;
            let mut meta = ByteColumn {
                column: &header.meta,
                at: 0,
            };
            let mut pages = Vec::new();
            let mut prev: i64 = 0;
            for _ in 0..header.count {
                let gap = unzigzag(meta.varint()?);
                let f = prev
                    .checked_add(gap)
                    .filter(|f| *f >= 0)
                    .ok_or(WireError::BadPayload("page frame gap out of range"))?;
                pages.push((PageId::new(f as u64), PageVersion::default()));
                prev = f;
            }
            let mut runs: Vec<(u8, usize)> = Vec::new();
            let mut seen = 0;
            while seen < header.count {
                let mode = meta.u8()?;
                if mode > MODE_DELTA {
                    return Err(WireError::BadPayload("unknown page mode"));
                }
                let run = meta.varint()?;
                if run == 0 || run > (header.count - seen) as u64 {
                    return Err(WireError::BadPayload("mode run overflows page count"));
                }
                if runs.last().is_some_and(|&(last, _)| last == mode) {
                    return Err(WireError::BadPayload("adjacent mode runs not merged"));
                }
                runs.push((mode, run as usize));
                seen += run as usize;
            }
            for (_, rec) in pages.iter_mut() {
                rec.version = u32::try_from(meta.varint()?)
                    .map_err(|_| WireError::BadPayload("page version overflows u32"))?;
            }
            for (_, rec) in pages.iter_mut() {
                rec.last_writer = u16::try_from(meta.varint()?)
                    .map_err(|_| WireError::BadPayload("page writer overflows u16"))?;
            }
            if meta.at != header.meta.len() {
                return Err(WireError::BadPayload("trailing bytes"));
            }
            let mut batch = PageColumnsBatch::new(header.base_epoch);
            let mut pages = pages.into_iter();
            payload_column(&header.payload, &runs, |pay| {
                let (page, rec) = pages.next().expect("the runs cover every page");
                batch.push(page, rec, pay);
            })?;
            r.finish()?;
            Ok(batch)
        }

        fn decode_columns(payload: Bytes) -> WireResult<PageColumnsBatch> {
            match decode_payload(TAG_PAGE_COLUMNS, payload)? {
                Record::PageColumns(batch) => Ok(batch),
                other => panic!("a columns payload decoded as {other:?}"),
            }
        }

        /// A column value: mostly one byte, often at the `0x7f`/`0x80`
        /// boundary, sometimes anywhere up to `max`.
        fn column_value(max: u64) -> impl Strategy<Value = u64> {
            (0u8..9, 0..0x80u64, 0x7eu64..0x82, 0x80..=max).prop_map(|(pick, small, edge, big)| {
                match pick {
                    0..=5 => small,
                    6 | 7 => edge,
                    _ => big,
                }
            })
        }

        /// A frame step: zigzag puts |gap| < 64 in one byte, so the
        /// boundary sits at ±64, on both sides of zero.
        fn frame_gap() -> impl Strategy<Value = i64> {
            (0u8..9, 0u64..128, 62u64..66, any::<bool>(), 0u64..1 << 25).prop_map(
                |(pick, small, edge, down, big)| match pick {
                    0..=5 => small as i64 - 64,
                    6 | 7 if down => -(edge as i64),
                    6 | 7 => edge as i64,
                    _ => big as i64 - (1 << 24),
                },
            )
        }

        /// 0–40 pages of Meta and Zero modes, so the mode column has runs
        /// and the payload column stays empty.
        fn shard() -> impl Strategy<Value = PageColumnsBatch> {
            let page = (
                frame_gap(),
                column_value(u64::from(u32::MAX)),
                column_value(u64::from(u16::MAX)),
                any::<bool>(),
            );
            (any::<u64>(), proptest::collection::vec(page, 0..=40)).prop_map(|(base, pages)| {
                let mut batch = PageColumnsBatch::new(base);
                let mut frame = 0i64;
                for (gap, version, writer, zero) in pages {
                    frame = (frame + gap).clamp(0, 1 << 40);
                    let rec = PageVersion {
                        version: version as u32,
                        last_writer: writer as u16,
                    };
                    let payload = if zero {
                        PagePayload::Zero
                    } else {
                        PagePayload::Meta
                    };
                    batch.push(PageId::new(frame as u64), rec, payload);
                }
                batch
            })
        }

        /// `payload` with its meta column replaced by `meta`, the length
        /// and the column digest resealed.
        fn with_meta(payload: &[u8], meta: &[u8]) -> Bytes {
            let (header, rest) = payload.split_at(COLUMNS_HEADER_BYTES);
            let meta_len = u32::from_be_bytes(header[12..16].try_into().unwrap()) as usize;
            let mut out = header.to_vec();
            out[12..16].copy_from_slice(&(meta.len() as u32).to_be_bytes());
            out[20..24].copy_from_slice(&checksum(meta).to_be_bytes());
            out.extend_from_slice(meta);
            out.extend_from_slice(&rest[meta_len..]);
            Bytes::from(out)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The word-packed writer is byte-identical to the per-value
            /// one, both decoders give back the shard, and a checked
            /// frame's top frame is the shard's highest.
            #[test]
            fn columns_codec_is_the_value_at_a_time_codec(batch in shard()) {
                let (mut words, mut values) = (BytesMut::new(), BytesMut::new());
                encode_page_columns_into(&batch, &mut words);
                encode_columns_per_value(&batch, &mut values);
                prop_assert_eq!(&words[..], &values[..]);
                if batch.entries.iter().all(|(_, _, p)| *p == PagePayload::Meta) {
                    let metas: Vec<_> = batch.entries.iter().map(|&(p, r, _)| (p, r)).collect();
                    let mut meta_only = BytesMut::new();
                    encode_page_columns_meta_into(batch.base_epoch, &metas, &mut meta_only);
                    prop_assert_eq!(&meta_only[..], &words[..]);
                }

                let payload = Bytes::from(words[FRAME_HEADER_BYTES..].to_vec());
                prop_assert_eq!(decode_columns(payload.clone()), Ok(batch.clone()));
                prop_assert_eq!(decode_columns_per_value(payload), Ok(batch.clone()));

                let mut stream = v3_buf();
                stream.extend_from_slice(&words);
                let got = StreamDecoder::new(stream.freeze())
                    .unwrap()
                    .next_checked()
                    .unwrap();
                let top = batch.entries.iter().map(|(p, _, _)| p.frame()).max();
                let Some(Checked::Pages(frame)) = got else {
                    panic!("a columns record checked as {got:?}");
                };
                prop_assert_eq!(frame.top(), top.unwrap_or(0));
            }

            /// A `PageBatchWriter` fed a shard's pages one at a time frames
            /// the slice encoder's v2 record, and the columns it frames from
            /// the same metas are the meta-only v3 record.
            #[test]
            fn one_batch_writer_frames_both_versions(batch in shard()) {
                let metas: Vec<_> = batch.entries.iter().map(|&(p, r, _)| (p, r)).collect();
                let (mut v2, mut v3) = (BytesMut::new(), BytesMut::new());
                let mut writer = PageBatchWriter::new(&mut v2, metas.len());
                for &(page, rec) in &metas {
                    writer.push(page, rec);
                }
                writer.encode_columns_into(batch.base_epoch, &mut v3);
                writer.finish();
                let (mut slice_v2, mut slice_v3) = (BytesMut::new(), BytesMut::new());
                encode_page_batch_into(&metas, &mut slice_v2);
                encode_page_columns_meta_into(batch.base_epoch, &metas, &mut slice_v3);
                prop_assert_eq!(&v2[..], &slice_v2[..]);
                prop_assert_eq!(&v3[..], &slice_v3[..]);
            }

            /// Flipped, truncated and spliced meta columns, resealed so the
            /// column digest passes: the decoder's verdict, the pages or
            /// the error, is the value-at-a-time reader's.
            #[test]
            fn hostile_meta_column_edits_get_the_reference_verdict(
                batch in shard(),
                edits in proptest::collection::vec(
                    (0u8..4, any::<u16>(), any::<u8>(), 1usize..12),
                    1..4,
                ),
            ) {
                let mut record = BytesMut::new();
                encode_page_columns_into(&batch, &mut record);
                let payload = &record[FRAME_HEADER_BYTES..];
                let meta_len =
                    u32::from_be_bytes(payload[12..16].try_into().unwrap()) as usize;
                let meta_at = COLUMNS_HEADER_BYTES;
                let mut meta = payload[meta_at..meta_at + meta_len].to_vec();
                const PALETTE: [u8; 6] = [0x7f, 0x80, 0x00, 0x01, 0xff, 0x02];
                for (kind, at, byte, len) in edits {
                    let at = usize::from(at) % (meta.len() + 1);
                    match kind {
                        0 if at < meta.len() => meta[at] ^= 1 << (byte % 8),
                        1 => meta.truncate(at),
                        // Splice boundary bytes in.
                        2 => {
                            let piece = (0..len).map(|k| PALETTE[(usize::from(byte) + k) % 6]);
                            meta.splice(at..at, piece);
                        }
                        // Splice a range of the column over itself.
                        _ => {
                            let from = usize::from(byte) % (meta.len() + 1);
                            let piece = meta[from..(from + len).min(meta.len())].to_vec();
                            let over = (at + len).min(meta.len());
                            meta.splice(at..over, piece);
                        }
                    }
                }
                let forged = with_meta(payload, &meta);
                prop_assert_eq!(
                    decode_columns(forged.clone()),
                    decode_columns_per_value(forged)
                );
            }
        }

        /// A first gap that puts `prev` at `i64::MAX`, then eight one-byte
        /// positive gaps: the word path must step with `checked_add` too,
        /// or it panics in debug and wraps in release. The same record is
        /// a `segment` line of the bench crate's `hostile_corpus.txt`.
        #[test]
        fn hostile_gap_past_i64_max_on_the_word_path_is_bad_payload() {
            let mut meta = BytesMut::new();
            put_varint(&mut meta, zigzag(i64::MAX));
            meta.extend_from_slice(&[0x02; 8]);
            meta.extend_from_slice(&[MODE_META, 9]);
            meta.extend_from_slice(&[1; 9]);
            meta.extend_from_slice(&[0; 9]);
            let mut record = BytesMut::new();
            encode_page_columns_meta_into(0, &[], &mut record);
            let forged = with_meta(&record[FRAME_HEADER_BYTES..], &meta);
            let mut forged = forged.to_vec();
            forged[8..12].copy_from_slice(&9u32.to_be_bytes());
            let forged = Bytes::from(forged);
            let want = Err(WireError::BadPayload("page frame gap out of range"));
            assert_eq!(decode_columns(forged.clone()), want);
            assert_eq!(decode_columns_per_value(forged.clone()), want);
            let mut frame = BytesMut::new();
            let frame_at = reserve_frame(&mut frame);
            frame.extend_from_slice(&forged);
            let outer = frame_checksum(
                TAG_PAGE_COLUMNS,
                &frame[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + COLUMNS_HEADER_BYTES],
            );
            patch_frame(
                &mut frame,
                frame_at,
                FRAME_HEADER_BYTES,
                TAG_PAGE_COLUMNS,
                outer,
            );
            let corpus = include_str!("../../bench/tests/hostile_corpus.txt");
            assert!(corpus.contains(&format!("segment:{}", hex(&frame))));
        }
    }

    #[test]
    fn varints_round_trip_at_the_edges() {
        for v in [0, 1, 127, 128, 1 << 62, 1 << 63, u64::MAX] {
            let mut out = BytesMut::new();
            put_varint(&mut out, v);
            let bytes = out.freeze();
            let mut column = Column::new(&bytes);
            assert_eq!(column.varint(), Ok(v));
            column.finish().unwrap();
        }
    }

    #[test]
    fn writer_dropped_after_a_group_is_rejected_by_decoder() {
        let mut buf = BytesMut::new();
        write_preamble(&mut buf);
        let mut w = PageDataWriter::new(&mut buf);
        w.push_group(golden_shard().first_chunk().unwrap());
        let _unfinished = w; // never finished: placeholder frame stays zeroed
        assert_eq!(
            buf[PREAMBLE_BYTES], 0,
            "frame tag must still be the placeholder"
        );
        let mut dec = StreamDecoder::new(buf.freeze()).unwrap();
        assert!(dec.next_record().is_err());
    }

    #[test]
    fn unfinished_page_data_writer_is_rejected_by_decoder() {
        let mut buf = BytesMut::new();
        write_preamble(&mut buf);
        let mut w = PageDataWriter::new(&mut buf);
        w.push(
            PageId::new(1),
            PageVersion {
                version: 1,
                last_writer: 0,
            },
            &page_content(1),
        );
        let _unfinished = w; // never finished: placeholder frame stays zeroed
        let mut dec = StreamDecoder::new(buf.freeze()).unwrap();
        assert!(dec.next_record().is_err());
    }
}
