//! Differential v2↔v3 wire test plane.
//!
//! Three layers of evidence that the v3 epoch-delta + columnar format is
//! safe to negotiate:
//!
//! * **Round-trip differential** — arbitrary dirty-page sequences encoded
//!   v2 and v3 restore byte-identical replica images at every lane count
//!   × chunk framing, including the abort → re-dirty → re-encode rebase.
//! * **Corruption rejection** — a flipped bit, truncation, wrong delta
//!   base or stale-version frame each raise a distinct [`WireError`] and
//!   never half-apply a page.
//! * **Session negotiation** — every {v2,v3} offer × replica-cap mix over
//!   star and chain fan-out agrees on `min(offer, cap)` per replica, a
//!   v2-capped session stays fingerprint-identical to the default path,
//!   and v3 sessions survive aborted epochs and parked-backlog catch-up
//!   with the same commit ledger as v2.

use bytes::{Bytes, BytesMut};
use here_core::dataplane::{
    encode_pages_round, BufferPool, EncodePlan, LanePool, PayloadMode, SegmentRestorer,
};
use here_core::{
    CoreError, FanoutMode, FaultKind, FaultPlan, ReplicationConfig, RunReport, Scenario,
    TopologyConfig,
};
use here_hypervisor::dirty::DirtyBitmap;
use here_hypervisor::memory::{GuestMemory, PageVersion};
use here_hypervisor::{PageId, VcpuId, PAGE_SIZE};
use here_sim_core::rate::ByteSize;
use here_sim_core::time::SimDuration;
use here_vmstate::wire::{
    classify_page, encode_page_batch_into, encode_page_columns_into, write_preamble,
    write_preamble_versioned, PageColumnsBatch, PagePayload, Record, ScatterStream, StreamDecoder,
    WireError, COLUMNS_HEADER_BYTES, PAGE_CONTENT_BYTES, PREAMBLE_BYTES, VERSION, VERSION_V3,
};
use here_vmstate::MemoryDelta;
use here_workloads::memstress::MemStress;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Round-trip differential: v2 and v3 land the same replica image.
// ---------------------------------------------------------------------------

/// Builds a guest whose dirty set is the (deduplicated) write list.
fn guest_with_writes(num_pages: u64, writes: &[(u64, u32)]) -> (GuestMemory, DirtyBitmap) {
    let mut memory = GuestMemory::new(ByteSize::from_bytes(num_pages * PAGE_SIZE))
        .expect("page-aligned size is valid");
    let mut dirty = DirtyBitmap::new(num_pages);
    for &(frame, vcpu) in writes {
        let page = PageId::new(frame % num_pages);
        memory
            .write_page(page, VcpuId::new(vcpu % 4))
            .expect("frame is in range");
        dirty.mark(page);
    }
    (memory, dirty)
}

/// Single-threaded reference: ascending bitmap walk, no chunking.
fn serial_reference(memory: &GuestMemory, dirty: &DirtyBitmap) -> MemoryDelta {
    let mut delta = MemoryDelta::new();
    for page in dirty.iter() {
        delta.push(page, memory.page(page).expect("dirty page exists"));
    }
    delta
}

/// Encodes `delta` per `plan` and decodes it into a fresh replica through
/// a restorer negotiated at `version`; returns the restored replica.
fn restore_with(
    memory: &GuestMemory,
    delta: &MemoryDelta,
    plan: &EncodePlan,
    pool: &mut BufferPool,
    lane_pool: &LanePool,
    version: u16,
) -> GuestMemory {
    let mut segments = Vec::new();
    encode_pages_round(delta, plan, pool, lane_pool, |_, seg| segments.push(seg));
    let mut replica = GuestMemory::new(memory.size()).expect("replica size is valid");
    let mut restorer = SegmentRestorer::new_versioned(&mut replica, true, version);
    for seg in &segments {
        restorer.accept(seg).expect("clean segment must decode");
    }
    assert_eq!(restorer.installed(), delta.len() as u64);
    for seg in segments {
        pool.recycle(seg);
    }
    replica
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential: for arbitrary dirty sets, the v2 materialized
    /// stream and the v3 columnar stream restore byte-identical replica
    /// images at every lane count × chunk framing.
    #[test]
    fn v2_and_v3_restore_identical_images_at_every_lane_and_chunk(
        num_pages in 64u64..2048,
        writes in proptest::collection::vec((0u64..4096, 0u32..8), 1..200),
    ) {
        let (memory, dirty) = guest_with_writes(num_pages, &writes);
        let delta = serial_reference(&memory, &dirty);
        let mut pool = BufferPool::new();
        let lane_pool = LanePool::new();
        for lanes in [1u32, 2, 4, 8] {
            for chunk_pages in [None, Some(64)] {
                let v2_plan = EncodePlan {
                    lanes,
                    mode: PayloadMode::Materialized,
                    chunk_pages,
                    window: Some(4),
                };
                let v3_plan = EncodePlan {
                    lanes,
                    mode: PayloadMode::Columnar { base_epoch: 0 },
                    chunk_pages,
                    window: Some(4),
                };
                let via_v2 =
                    restore_with(&memory, &delta, &v2_plan, &mut pool, &lane_pool, VERSION);
                let via_v3 =
                    restore_with(&memory, &delta, &v3_plan, &mut pool, &lane_pool, VERSION_V3);
                prop_assert!(
                    memory.content_equals(&via_v2),
                    "v2 replica diverged at lanes={} chunk={:?}", lanes, chunk_pages
                );
                prop_assert!(
                    memory.content_equals(&via_v3),
                    "v3 replica diverged at lanes={} chunk={:?}", lanes, chunk_pages
                );
                prop_assert!(via_v2.content_equals(&via_v3));
            }
        }
    }

    /// Abort → re-dirty → re-encode: an epoch that never committed leaves
    /// the base unchanged, so the merged re-encode (old pages + new
    /// writes, bumped versions) must still restore both formats to the
    /// same image as the primary.
    #[test]
    fn reencode_after_abort_rebases_identically(
        num_pages in 64u64..1024,
        first in proptest::collection::vec((0u64..2048, 0u32..8), 1..100),
        redirty in proptest::collection::vec((0u64..2048, 0u32..8), 1..100),
    ) {
        let (mut memory, mut dirty) = guest_with_writes(num_pages, &first);
        // The first encode is aborted: nothing applies, nothing commits.
        let aborted = serial_reference(&memory, &dirty);
        drop(aborted);
        // Re-dirty (overlapping pages bump their versions) and re-encode
        // against the *same* base the replica still holds.
        for &(frame, vcpu) in &redirty {
            let page = PageId::new(frame % num_pages);
            memory.write_page(page, VcpuId::new(vcpu % 4)).expect("in range");
            dirty.mark(page);
        }
        let merged = serial_reference(&memory, &dirty);
        let mut pool = BufferPool::new();
        let lane_pool = LanePool::new();
        for lanes in [1u32, 4] {
            let v2_plan = EncodePlan {
                lanes,
                mode: PayloadMode::Materialized,
                chunk_pages: Some(64),
                window: None,
            };
            let v3_plan = EncodePlan {
                lanes,
                mode: PayloadMode::Columnar { base_epoch: 0 },
                chunk_pages: Some(64),
                window: None,
            };
            let via_v2 = restore_with(&memory, &merged, &v2_plan, &mut pool, &lane_pool, VERSION);
            let via_v3 =
                restore_with(&memory, &merged, &v3_plan, &mut pool, &lane_pool, VERSION_V3);
            prop_assert!(memory.content_equals(&via_v2));
            prop_assert!(via_v2.content_equals(&via_v3));
        }
    }
}

/// Content-level delta lifecycle: full pages seed epoch 1, sparse XOR
/// deltas ride epoch 2 against the committed copy, and an aborted epoch 2
/// re-encodes against the *same* base and still lands the final bytes.
#[test]
fn columnar_delta_payloads_apply_against_the_committed_base() {
    let mut base_page = vec![0u8; PAGE_CONTENT_BYTES];
    for (i, b) in base_page.iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    // Epoch 1: first touch travels whole.
    let e1 = classify_page(&base_page, None);
    assert!(matches!(e1, PagePayload::Full(_)));
    let committed = e1
        .materialize(None)
        .expect("full page applies")
        .expect("full page has content");
    assert_eq!(committed, base_page);

    // Epoch 2: a sparse rewrite becomes XOR runs against epoch 1.
    let mut next = base_page.clone();
    next[100..116].copy_from_slice(&[0xEE; 16]);
    next[3000] ^= 0x55;
    let e2 = classify_page(&next, Some(&committed));
    assert!(
        matches!(e2, PagePayload::Delta(_)),
        "sparse rewrite must delta-encode"
    );

    // The abort: epoch 2 never commits, the guest keeps writing, and the
    // re-encode must target the *same* base (epoch 1), not the aborted
    // intermediate.
    let mut redirtied = next.clone();
    redirtied[200..208].copy_from_slice(&[0x11; 8]);
    let e2_retry = classify_page(&redirtied, Some(&committed));
    let restored = e2_retry
        .materialize(Some(&committed))
        .expect("delta applies against its base")
        .expect("delta has content");
    assert_eq!(
        restored, redirtied,
        "rebased re-encode must land the final bytes"
    );

    // Applying the aborted delta against the wrong base (the re-dirtied
    // image) demonstrates why the base check exists: bytes diverge.
    let misapplied = e2
        .materialize(Some(&redirtied))
        .expect("shape-valid")
        .expect("content");
    assert_ne!(
        misapplied, next,
        "a wrong base silently corrupts — hence DeltaBaseMismatch"
    );

    // Zero pages are suppressed entirely.
    assert_eq!(
        classify_page(&vec![0u8; PAGE_CONTENT_BYTES], None),
        PagePayload::Zero
    );
}

// ---------------------------------------------------------------------------
// Corruption rejection: distinct errors, never a half-applied page.
// ---------------------------------------------------------------------------

/// A small batch with every payload mode, encoded against base epoch 7.
fn sample_batch() -> PageColumnsBatch {
    let mut batch = PageColumnsBatch::new(7);
    let rec = |v: u32, w: u16| PageVersion {
        version: v,
        last_writer: w,
    };
    batch.push(PageId::new(1), rec(3, 0), PagePayload::Meta);
    batch.push(PageId::new(2), rec(1, 1), PagePayload::Zero);
    batch.push(
        PageId::new(5),
        rec(4, 2),
        PagePayload::Full(Bytes::from(vec![0xAB; PAGE_CONTENT_BYTES])),
    );
    batch.push(
        PageId::new(9),
        rec(2, 3),
        PagePayload::Delta(vec![(64, Bytes::from(vec![0x5A; 16]))]),
    );
    batch
}

/// A complete v3 stream: preamble + one page-columns frame.
fn sample_v3_stream() -> Vec<u8> {
    let mut out = BytesMut::new();
    write_preamble_versioned(&mut out, VERSION_V3);
    encode_page_columns_into(&sample_batch(), &mut out);
    out.to_vec()
}

fn decode_all(buf: Vec<u8>) -> Result<Vec<Record>, WireError> {
    StreamDecoder::new(Bytes::from(buf))?.collect_records()
}

/// Byte offsets within [`sample_v3_stream`]: preamble, then the 9-byte
/// frame header, then the 28-byte columns header, then the meta column.
const FRAME_AT: usize = PREAMBLE_BYTES;
const HEADER_AT: usize = FRAME_AT + 9;
const META_AT: usize = HEADER_AT + COLUMNS_HEADER_BYTES;

#[test]
fn clean_columns_frame_round_trips() {
    let records = decode_all(sample_v3_stream()).expect("clean stream decodes");
    assert_eq!(records.len(), 1);
    match &records[0] {
        Record::PageColumns(batch) => {
            assert_eq!(batch.base_epoch(), 7);
            assert_eq!(batch.entries(), sample_batch().entries());
            batch.check_base(7).expect("matching base passes");
        }
        other => panic!("expected a page-columns record, got {other:?}"),
    }
}

#[test]
fn truncation_at_any_layer_reports_truncated() {
    let buf = sample_v3_stream();
    // Mid-preamble, mid-frame-header, mid-columns-header, mid-column.
    for cut in [3, PREAMBLE_BYTES + 4, HEADER_AT + 10, buf.len() - 5] {
        let err = decode_all(buf[..cut].to_vec()).expect_err("truncated stream must fail");
        assert!(
            matches!(err, WireError::Truncated),
            "cut at {cut}: expected Truncated, got {err:?}"
        );
    }
}

#[test]
fn header_corruption_fails_the_outer_frame_checksum() {
    // The outer frame checksum covers exactly the 28-byte columns header,
    // so a flipped base-epoch or count byte is caught there.
    for at in [HEADER_AT + 2, HEADER_AT + 10] {
        let mut buf = sample_v3_stream();
        buf[at] ^= 0x01;
        let err = decode_all(buf).expect_err("corrupt header must fail");
        assert!(
            matches!(err, WireError::ChecksumMismatch { .. }),
            "flip at {at}: expected ChecksumMismatch, got {err:?}"
        );
    }
}

#[test]
fn meta_and_payload_column_corruption_are_distinct_errors() {
    let mut buf = sample_v3_stream();
    buf[META_AT] ^= 0x01; // first frame-gap varint
    let err = decode_all(buf).expect_err("corrupt meta column must fail");
    assert!(
        matches!(err, WireError::MetaColumnCorrupt { .. }),
        "expected MetaColumnCorrupt, got {err:?}"
    );

    let mut buf = sample_v3_stream();
    let last = buf.len() - 1; // inside the delta payload at the column's end
    buf[last] ^= 0x01;
    let err = decode_all(buf).expect_err("corrupt payload column must fail");
    assert!(
        matches!(err, WireError::PayloadColumnCorrupt { .. }),
        "expected PayloadColumnCorrupt, got {err:?}"
    );
}

#[test]
fn wrong_delta_base_is_rejected_before_any_apply() {
    let records = decode_all(sample_v3_stream()).expect("clean stream decodes");
    let Record::PageColumns(batch) = &records[0] else {
        panic!("expected a page-columns record");
    };
    match batch.check_base(6) {
        Err(WireError::DeltaBaseMismatch {
            stream_base,
            replica_base,
        }) => {
            assert_eq!(stream_base, 7);
            assert_eq!(replica_base, 6);
        }
        other => panic!("expected DeltaBaseMismatch, got {other:?}"),
    }
}

#[test]
fn stale_version_frames_are_rejected_after_negotiation() {
    // A v2 frame arriving on a session that negotiated v3…
    let mut v2 = BytesMut::new();
    write_preamble(&mut v2);
    encode_page_batch_into(
        &[(
            PageId::new(1),
            PageVersion {
                version: 1,
                last_writer: 0,
            },
        )],
        &mut v2,
    );
    let err = StreamDecoder::new_negotiated(ScatterStream::from(v2.freeze()), VERSION_V3)
        .expect_err("v2 stream on a v3 session is stale");
    assert_eq!(
        err,
        WireError::StaleVersion {
            negotiated: VERSION_V3,
            actual: VERSION,
        }
    );

    // …and the mirror image: a v3 frame on a v2-negotiated session.
    let err = StreamDecoder::new_negotiated(
        ScatterStream::from(Bytes::from(sample_v3_stream())),
        VERSION,
    )
    .expect_err("v3 stream on a v2 session is stale");
    assert_eq!(
        err,
        WireError::StaleVersion {
            negotiated: VERSION,
            actual: VERSION_V3,
        }
    );
}

#[test]
fn a_v2_decoder_treats_columns_frames_as_foreign() {
    // Columnar records only exist from v3 on: behind a v2 preamble the
    // tag must read as an unknown record, exactly as a pre-v3 build
    // would report it.
    let mut out = BytesMut::new();
    write_preamble(&mut out);
    encode_page_columns_into(&sample_batch(), &mut out);
    let err = decode_all(out.to_vec()).expect_err("v2 decoder must reject columns");
    assert_eq!(err, WireError::UnknownRecord(0x09));
}

#[test]
fn corrupt_segments_never_half_apply_a_page() {
    // A frame-only segment (the lane hand-off unit) carrying two full
    // pages; corruption in either column must install zero pages.
    let mut batch = PageColumnsBatch::new(0);
    for frame in [1u64, 2] {
        batch.push(
            PageId::new(frame),
            PageVersion {
                version: 1,
                last_writer: 0,
            },
            PagePayload::Full(Bytes::from(vec![frame as u8; PAGE_CONTENT_BYTES])),
        );
    }
    let mut seg = BytesMut::new();
    encode_page_columns_into(&batch, &mut seg);
    let clean = seg.freeze();
    let pristine = GuestMemory::new(ByteSize::from_bytes(64 * PAGE_SIZE)).expect("valid size");

    // Meta-column flip and payload-column flip, both mid-record.
    let meta_at = 9 + COLUMNS_HEADER_BYTES;
    let payload_at = clean.len() - 1;
    for at in [meta_at, payload_at] {
        let mut corrupt = clean.to_vec();
        corrupt[at] ^= 0x01;
        let mut replica = GuestMemory::new(pristine.size()).expect("valid size");
        let mut restorer = SegmentRestorer::new_versioned(&mut replica, false, VERSION_V3);
        let err = restorer
            .accept(&Bytes::from(corrupt))
            .expect_err("corrupt segment must be rejected");
        assert!(matches!(
            err,
            CoreError::Wire(
                WireError::MetaColumnCorrupt { .. } | WireError::PayloadColumnCorrupt { .. }
            )
        ));
        assert_eq!(
            restorer.installed(),
            0,
            "no page may install from a bad frame"
        );
        drop(restorer);
        assert!(
            replica.content_equals(&pristine),
            "flip at {at}: replica must stay pristine"
        );
    }
}

// ---------------------------------------------------------------------------
// Session negotiation: offers × caps × fan-out.
// ---------------------------------------------------------------------------

/// A small replicated VM under memory pressure, consistency-verified at
/// every commit.
fn session_run(
    name: &str,
    cfg: ReplicationConfig,
    secs: u64,
    plan: Option<FaultPlan>,
) -> RunReport {
    let mut builder = Scenario::builder()
        .name(name)
        .vm_memory_mib(64)
        .vcpus(4)
        .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
        .config(cfg)
        .duration(SimDuration::from_secs(secs))
        .seed(7)
        .verify_consistency();
    if let Some(plan) = plan {
        builder = builder.chaos(plan);
    }
    builder.build().expect("scenario is valid").run()
}

fn three_replicas(fanout: FanoutMode) -> TopologyConfig {
    TopologyConfig {
        replicas: 3,
        quorum: 2,
        fanout,
        stale_epoch_lag: 8,
    }
}

/// The negotiation matrix: each replica lands on `min(offer, cap)`, on
/// both fan-out shapes, and every combination still commits and passes
/// per-commit consistency verification.
#[test]
fn negotiation_matrix_agrees_min_of_offer_and_cap() {
    let cap_mixes: [(Option<Vec<u16>>, &str); 3] = [
        (None, "all"),
        (Some(vec![VERSION, VERSION, VERSION]), "v2v2v2"),
        (Some(vec![VERSION_V3, VERSION, VERSION_V3]), "v3v2v3"),
    ];
    for offer in [VERSION, VERSION_V3] {
        for (caps, cap_label) in &cap_mixes {
            for fanout in [FanoutMode::Star, FanoutMode::Chain] {
                let mut cfg = ReplicationConfig::fixed_period(SimDuration::from_secs(2))
                    .with_topology(three_replicas(fanout))
                    .with_wire_version(offer);
                if let Some(caps) = caps {
                    cfg = cfg.with_replica_wire_caps(caps.clone());
                }
                let expected: Vec<u16> = (0..3)
                    .map(|i| {
                        offer.min(
                            caps.as_ref()
                                .and_then(|c| c.get(i))
                                .copied()
                                .unwrap_or(VERSION_V3),
                        )
                    })
                    .collect();
                let name = format!("wirev3-nego-v{offer}-{cap_label}-{fanout:?}");
                let report = session_run(&name, cfg, 12, None);
                assert_eq!(
                    report.wire_versions, expected,
                    "{name}: negotiated versions must be min(offer, cap)"
                );
                assert!(!report.commits.is_empty(), "{name}: epochs must commit");
                assert!(report.consistency_checks > 0, "{name}: verification ran");
            }
        }
    }
}

/// The compatibility keystone: a session that *offers* v3 but meets a
/// v2-only replica set must fall back onto the byte-identical default
/// path — same fingerprint as a run that never heard of v3.
#[test]
fn v2_capped_session_is_fingerprint_identical_to_the_default_path() {
    let default = session_run(
        "wirev3-bitcompat",
        ReplicationConfig::fixed_period(SimDuration::from_secs(2)),
        12,
        None,
    );
    let capped = session_run(
        "wirev3-bitcompat",
        ReplicationConfig::fixed_period(SimDuration::from_secs(2))
            .with_wire_v3()
            .with_replica_wire_caps(vec![VERSION]),
        12,
        None,
    );
    assert_eq!(default.wire_versions, vec![VERSION]);
    assert_eq!(capped.wire_versions, vec![VERSION]);
    assert_eq!(
        default.fingerprint(),
        capped.fingerprint(),
        "a v2-negotiated session must be bit-identical to the pre-v3 path"
    );
}

/// An aborted epoch under v3: the retry budget exhausts, the epoch rolls
/// its pages forward, and the re-encode against the unchanged base
/// commits — with the exact commit ledger the v2 session produces, and
/// replica/primary equality verified at every commit.
#[test]
fn v3_session_survives_an_aborted_epoch_with_the_v2_ledger() {
    let plan = || FaultPlan::new(5).with_event(3, FaultKind::Drop { attempts: 10 });
    let v2 = session_run(
        "wirev3-abort",
        ReplicationConfig::fixed_period(SimDuration::from_secs(2)),
        30,
        Some(plan()),
    );
    let v3 = session_run(
        "wirev3-abort",
        ReplicationConfig::fixed_period(SimDuration::from_secs(2)).with_wire_v3(),
        30,
        Some(plan()),
    );
    for report in [&v2, &v3] {
        let stats = report.chaos.as_ref().expect("plan armed");
        assert_eq!(stats.epochs_aborted, 1);
        assert!(
            report.commits.iter().all(|c| c.seq != 3),
            "aborted epoch never commits"
        );
        assert!(
            report.commits.iter().any(|c| c.seq == 4),
            "the rebased retry commits"
        );
        assert!(report.consistency_checks > 0);
    }
    let seqs = |r: &RunReport| r.commits.iter().map(|c| c.seq).collect::<Vec<_>>();
    assert_eq!(
        seqs(&v2),
        seqs(&v3),
        "v3 must keep v2's commit ledger across an abort"
    );
}

/// The parked-backlog regression: a replica partitioned for six epochs
/// misses those bases entirely; when it heals, its catch-up apply must
/// fold the backlog in and rebase — never apply a delta against the wrong
/// base. `verify_consistency` makes the engine assert replica/primary
/// equality at every commit, so a mis-based apply fails the run.
#[test]
fn v3_backlog_catchup_never_applies_against_the_wrong_base() {
    let plan = || FaultPlan::new(7).with_partition_span(4..=9, &[2], 10);
    let cfg = |wire_v3: bool| {
        let cfg = ReplicationConfig::fixed_period(SimDuration::from_secs(2))
            .with_topology(three_replicas(FanoutMode::Star));
        if wire_v3 {
            cfg.with_wire_v3()
        } else {
            cfg
        }
    };
    let v3 = session_run("wirev3-backlog", cfg(true), 30, Some(plan()));
    assert_eq!(v3.wire_versions, vec![VERSION_V3; 3]);
    assert!(v3.failover.is_none());
    // The quorum (replicas 0 and 1) kept committing through the outage.
    for seq in 4..=9 {
        assert!(
            v3.commits.iter().any(|c| c.seq == seq),
            "epoch {seq} must commit on the surviving quorum"
        );
    }
    // Replica 2 missed the partitioned epochs, then resumed acking after
    // the heal — which on v3 means its first post-heal apply rebased the
    // parked backlog onto a base older than the stream's.
    let trail = &v3.replica_acks[2];
    assert_eq!(trail.replica, 2);
    let acked: Vec<u64> = trail.acks.iter().map(|a| a.seq).collect();
    assert!(
        acked.iter().all(|&seq| !(4..=9).contains(&seq)),
        "partitioned epochs must never be acked: {acked:?}"
    );
    assert!(
        acked.iter().any(|&seq| seq >= 10),
        "replica 2 must catch up after the heal: {acked:?}"
    );
    assert!(v3.consistency_checks > 0);
    // And the whole arc is wire-version invariant: the v2 session's
    // ledger is identical.
    let v2 = session_run("wirev3-backlog", cfg(false), 30, Some(plan()));
    let seqs = |r: &RunReport| r.commits.iter().map(|c| c.seq).collect::<Vec<_>>();
    assert_eq!(seqs(&v2), seqs(&v3));
}

/// A replica that misses only epochs without dirty pages parks no
/// backlog, yet the quorum commits those epochs and moves the delta base:
/// its next stream names a base newer than its own, and it must rebase
/// onto it rather than refuse the stream. An idle guest dirties nothing
/// in most epochs; every commit is consistency-checked.
#[test]
fn a_v3_replica_that_missed_only_empty_epochs_rebases() {
    for (period_ms, span) in [(500, 3..=3), (100, 4..=8)] {
        let report = Scenario::builder()
            .name("wirev3-empty-miss")
            .vm_memory_mib(64)
            .vcpus(2)
            .config(
                ReplicationConfig::fixed_period(SimDuration::from_millis(period_ms))
                    .with_topology(three_replicas(FanoutMode::Star))
                    .with_wire_v3(),
            )
            .duration(SimDuration::from_secs(6))
            .seed(7)
            .verify_consistency()
            .chaos(FaultPlan::new(7).with_partition_span(span.clone(), &[2], 10))
            .build()
            .expect("scenario is valid")
            .run();
        assert_eq!(report.wire_versions, vec![VERSION_V3; 3]);
        let acked: Vec<u64> = report.replica_acks[2].acks.iter().map(|a| a.seq).collect();
        assert!(
            acked.iter().all(|seq| !span.contains(seq)),
            "{period_ms} ms: partitioned epochs are never acked: {acked:?}"
        );
        assert!(
            acked.iter().any(|seq| seq > span.end()),
            "{period_ms} ms: replica 2 catches up after the heal: {acked:?}"
        );
        assert!(report.consistency_checks > 0);
    }
}
