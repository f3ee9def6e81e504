//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;

use here::hypervisor::arch::{ArchRegs, Segment, SystemRegs, GPR_COUNT};
use here::hypervisor::dirty::DirtyBitmap;
use here::hypervisor::fault::DosOutcome;
use here::hypervisor::kind::HypervisorKind;
use here::hypervisor::memory::{materialize_content, GuestMemory, PageId, PageVersion};
use here::hypervisor::vcpu::{KvmVcpuState, VcpuId, VcpuStateBlob, XenVcpuState};
use here::hypervisor::PAGE_SIZE;
use here::replication::{
    degradation, CommitLedger, DynamicPeriodManager, FanoutMode, FaultKind, FaultPlan,
    ReplicationConfig, Scenario, Stage, TopologyConfig,
};
use here::sim::rate::ByteSize;
use here::sim::time::{SimDuration, SimTime};
use here::vmstate::wire::{Record, StreamDecoder, StreamEncoder};
use here::vmstate::{MemoryDelta, StateTranslator};
use here::workloads::memstress::MemStress;

fn arb_segment() -> impl Strategy<Value = Segment> {
    (any::<u16>(), any::<u64>(), any::<u32>(), any::<u16>()).prop_map(
        |(selector, base, limit, attributes)| Segment {
            selector,
            base,
            limit,
            attributes,
        },
    )
}

fn arb_regs() -> impl Strategy<Value = ArchRegs> {
    (
        proptest::array::uniform32(any::<u64>()),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(arb_segment(), 7),
        proptest::array::uniform4(any::<u64>()),
        any::<u64>(),
        proptest::option::of(any::<u8>()),
    )
        .prop_map(|(words, rip, rflags, segs, sys4, tsc, pending)| {
            let mut regs = ArchRegs::default();
            regs.gprs.copy_from_slice(&words[..GPR_COUNT]);
            regs.rip = rip;
            regs.rflags = rflags;
            regs.cs = segs[0];
            regs.ds = segs[1];
            regs.es = segs[2];
            regs.fs = segs[3];
            regs.gs = segs[4];
            regs.ss = segs[5];
            regs.tr = segs[6];
            regs.system = SystemRegs {
                cr0: sys4[0],
                cr2: sys4[1],
                cr3: sys4[2],
                cr4: sys4[3],
                efer: words[16],
                apic_base: words[17],
                star: words[18],
                lstar: words[19],
                kernel_gs_base: words[20],
            };
            regs.tsc = tsc;
            regs.pending_interrupt = pending;
            regs
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Translating any register file Xen -> KVM -> Xen is the identity.
    #[test]
    fn translator_round_trip_is_identity(regs in arb_regs(), online in any::<bool>()) {
        let fwd = StateTranslator::new(HypervisorKind::Xen, HypervisorKind::Kvm).unwrap();
        let back = fwd.reversed();
        let blob = here::hypervisor::vcpu::VcpuStateBlob::Xen(XenVcpuState::from_arch(&regs, online));
        let there = fwd.translate_vcpu(&blob).unwrap();
        let again = back.translate_vcpu(&there).unwrap();
        prop_assert_eq!(again.to_arch(), regs);
        prop_assert_eq!(again.is_online(), online);
    }

    /// Both native formats preserve every architectural field.
    #[test]
    fn native_formats_are_lossless(regs in arb_regs()) {
        prop_assert_eq!(XenVcpuState::from_arch(&regs, true).to_arch(), regs.clone());
        prop_assert_eq!(KvmVcpuState::from_arch(&regs, true).to_arch(), regs);
    }

    /// Any record sequence survives the wire codec unchanged.
    #[test]
    fn wire_round_trip(
        seqs in proptest::collection::vec(any::<u64>(), 0..8),
        frames in proptest::collection::vec((0u64..100_000, 1u32..u32::MAX, any::<u16>()), 0..64),
    ) {
        let mut enc = StreamEncoder::new();
        let mut records = Vec::new();
        for &s in &seqs {
            records.push(Record::CheckpointBegin { seq: s });
        }
        let delta: MemoryDelta = frames
            .iter()
            .map(|&(f, v, w)| (PageId::new(f), PageVersion { version: v, last_writer: w }))
            .collect();
        records.push(Record::PageBatch(delta));
        for r in &records {
            enc.push(r);
        }
        let decoded = StreamDecoder::new(enc.finish()).unwrap().collect_records().unwrap();
        prop_assert_eq!(decoded, records);
    }

    /// Corrupting any single payload byte of a record never yields a wrong
    /// record silently: decoding fails (checksums) or, for preamble bytes,
    /// construction fails.
    #[test]
    fn wire_detects_single_byte_corruption(
        seq in any::<u64>(),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut enc = StreamEncoder::new();
        enc.push(&Record::CheckpointEnd { seq, pages_total: 3 });
        let mut bytes = enc.finish().to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        let outcome = StreamDecoder::new(bytes::Bytes::from(bytes))
            .and_then(|mut d| {
                let first = d.next_record()?;
                Ok(first)
            });
        match outcome {
            // Detected: good.
            Err(_) => {}
            // Decoded: must be the original record (flip in trailing slack
            // is impossible here, so it must equal the original).
            Ok(Some(Record::CheckpointEnd { seq: s, pages_total })) => {
                prop_assert!(s == seq && pages_total == 3,
                    "corruption slipped through: seq {s} pages {pages_total}");
                // A flip that still decodes identically cannot happen: the
                // byte is part of magic/version/header/payload, all covered.
                prop_assert!(false, "single-byte flip went undetected");
            }
            Ok(other) => prop_assert!(false, "unexpected decode: {other:?}"),
        }
    }

    /// The dirty bitmap's drain returns exactly the marked set, sorted and
    /// deduplicated.
    #[test]
    fn bitmap_drain_is_sorted_set(frames in proptest::collection::vec(0u64..4096, 0..256)) {
        let mut bm = DirtyBitmap::new(4096);
        for &f in &frames {
            bm.mark(PageId::new(f));
        }
        let drained = bm.drain();
        let mut expect: Vec<u64> = frames.clone();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(
            drained.iter().map(|p| p.frame()).collect::<Vec<_>>(),
            expect
        );
        prop_assert!(bm.is_empty());
    }

    /// Range queries partition the bitmap: concatenating disjoint ranges
    /// equals the full peek.
    #[test]
    fn bitmap_ranges_partition(
        frames in proptest::collection::vec(0u64..4096, 0..256),
        cut in 1u64..4095,
    ) {
        let mut bm = DirtyBitmap::new(4096);
        for &f in &frames {
            bm.mark(PageId::new(f));
        }
        let mut joined = bm.pages_in_range(0, cut);
        joined.extend(bm.pages_in_range(cut, 4096));
        prop_assert_eq!(joined, bm.peek());
    }

    /// Page materialisation is a pure function of (frame, version): two
    /// memories that agree on versions agree on bytes.
    #[test]
    fn materialisation_is_deterministic(frame in 0u64..1024, version in 0u32..50, writer in any::<u16>()) {
        let rec = PageVersion { version, last_writer: writer };
        let a = materialize_content(PageId::new(frame), rec);
        let b = materialize_content(PageId::new(frame), rec);
        prop_assert_eq!(&a[..], &b[..]);
        prop_assert_eq!(a.len() as u64, PAGE_SIZE);
        if version == 0 {
            prop_assert!(a.iter().all(|&x| x == 0));
        }
    }

    /// Installing an arbitrary sequence of writes then replaying its final
    /// versions reproduces the memory exactly.
    #[test]
    fn install_replay_reaches_equality(writes in proptest::collection::vec((0u64..512, 0u32..4), 0..512)) {
        let mut primary = GuestMemory::new(ByteSize::from_mib(2)).unwrap();
        for &(f, v) in &writes {
            primary.write_page(PageId::new(f), VcpuId::new(v)).unwrap();
        }
        let mut replica = GuestMemory::new(ByteSize::from_mib(2)).unwrap();
        for (p, rec) in primary.touched_iter().collect::<Vec<_>>() {
            replica.install_page(p, rec).unwrap();
        }
        prop_assert!(primary.content_equals(&replica));
    }

    /// Algorithm 1 never violates its hard constraints: sigma <= T <= T_max
    /// after every step, for any pause sequence.
    #[test]
    fn period_manager_respects_hard_bounds(
        pauses in proptest::collection::vec(0u64..20_000, 1..200),
        d in 1u32..99,
        t_max_ms in 1_000u64..30_000,
        sigma_ms in 50u64..1_000,
    ) {
        let sigma = SimDuration::from_millis(sigma_ms);
        let t_max = SimDuration::from_millis(t_max_ms.max(sigma_ms));
        let mut m = DynamicPeriodManager::new(d as f64 / 100.0, t_max, sigma);
        for &p in &pauses {
            let t = m.on_checkpoint(SimDuration::from_millis(p)).chosen_period;
            prop_assert!(t >= sigma, "T {t} under sigma {sigma}");
            prop_assert!(t <= t_max, "T {t} over T_max {t_max}");
        }
    }

    /// Degradation is always a proper fraction.
    #[test]
    fn degradation_is_a_fraction(pause_ms in 0u64..100_000, period_ms in 0u64..100_000) {
        let d = degradation(
            SimDuration::from_millis(pause_ms),
            SimDuration::from_millis(period_ms),
        );
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// The full heterogeneous checkpoint path — a random dirty state on
    /// the Xen primary, harvested into a [`MemoryDelta`], pushed through
    /// the wire codec, the vCPU translated Xen -> CIR -> KVM, and the
    /// pages restored on the KVM-side replica — reproduces guest memory
    /// byte-exactly on every materialised page.
    #[test]
    fn heterogeneous_checkpoint_restores_bytes_exactly(
        writes in proptest::collection::vec((0u64..512, 0u32..4), 1..512),
        regs in arb_regs(),
        seq in 1u64..1_000,
    ) {
        // Primary side: apply guest writes, then harvest the delta.
        let mut primary = GuestMemory::new(ByteSize::from_mib(2)).unwrap();
        for &(f, v) in &writes {
            primary.write_page(PageId::new(f), VcpuId::new(v)).unwrap();
        }
        let delta: MemoryDelta = primary.touched_iter().collect();

        // Encode the stream exactly like the send side does: page batch
        // plus the vCPU state lowered to the common format.
        let translator = StateTranslator::new(HypervisorKind::Xen, HypervisorKind::Kvm).unwrap();
        let xen_blob = VcpuStateBlob::Xen(XenVcpuState::from_arch(&regs, true));
        let cir = translator.decode_to_cir(&xen_blob).unwrap();
        let mut enc = StreamEncoder::new();
        enc.push(&Record::CheckpointBegin { seq });
        enc.push(&Record::PageBatch(delta.clone()));
        enc.push(&Record::VcpuState { index: 0, cir });
        enc.push(&Record::CheckpointEnd { seq, pages_total: delta.len() as u64 });

        // Receive side: decode, install pages, raise the vCPU into the
        // KVM native format.
        let mut replica = GuestMemory::new(ByteSize::from_mib(2)).unwrap();
        let mut restored_vcpu = None;
        let mut pages_seen = 0u64;
        let mut declared = None;
        let mut dec = StreamDecoder::new(enc.finish()).unwrap();
        while let Some(record) = dec.next_record().unwrap() {
            match record {
                Record::PageBatch(d) => {
                    for &(p, rec) in d.entries() {
                        replica.install_page(p, rec).unwrap();
                        pages_seen += 1;
                    }
                }
                Record::VcpuState { cir, .. } => {
                    restored_vcpu = Some(translator.encode_from_cir(&cir));
                }
                Record::CheckpointEnd { pages_total, .. } => declared = Some(pages_total),
                _ => {}
            }
        }
        prop_assert_eq!(declared, Some(pages_seen));

        // Whole-memory equality (untouched pages are all-zero on both
        // sides), plus an explicit byte comparison of every page the
        // delta carried.
        prop_assert!(primary.content_equals(&replica));
        let replicated: std::collections::BTreeMap<_, _> = replica.touched_iter().collect();
        for &(p, rec) in delta.entries() {
            let got = replicated.get(&p).copied();
            prop_assert_eq!(got, Some(rec));
            prop_assert_eq!(
                &materialize_content(p, rec)[..],
                &materialize_content(p, got.unwrap())[..]
            );
        }

        // The vCPU survived the format change with every field intact.
        let vcpu = restored_vcpu.unwrap();
        prop_assert!(matches!(vcpu, VcpuStateBlob::Kvm(_)));
        prop_assert_eq!(vcpu.to_arch(), regs);
        prop_assert!(vcpu.is_online());
    }

    /// MemoryDelta::merge keeps the newest version for every frame.
    #[test]
    fn delta_merge_keeps_newest(
        a in proptest::collection::vec((0u64..64, 1u32..100), 0..64),
        b in proptest::collection::vec((0u64..64, 1u32..100), 0..64),
    ) {
        let mk = |v: &Vec<(u64, u32)>| -> MemoryDelta {
            v.iter()
                .map(|&(f, ver)| (PageId::new(f), PageVersion { version: ver, last_writer: 0 }))
                .collect()
        };
        let mut merged = mk(&a);
        merged.merge(&mk(&b));
        // Expected: max version per frame across both inputs.
        let mut expect = std::collections::BTreeMap::new();
        for &(f, v) in a.iter().chain(b.iter()) {
            let e = expect.entry(f).or_insert(0u32);
            *e = (*e).max(v);
        }
        prop_assert_eq!(merged.len(), expect.len());
        for &(p, rec) in merged.entries() {
            prop_assert_eq!(rec.version, expect[&p.frame()]);
        }
    }

    /// Quorum commits stay strictly monotone under arbitrary per-replica
    /// ack interleavings, every committed epoch is supported by at least
    /// `quorum` replicas, and the failover candidate is never staler than
    /// the commit watermark.
    #[test]
    fn quorum_commits_are_monotone_under_any_interleaving(
        n in 1u32..6,
        q_seed in any::<u32>(),
        acks in proptest::collection::vec((any::<u32>(), 1u64..40), 0..200),
    ) {
        let quorum = q_seed % n + 1;
        let mut ledger = CommitLedger::with_quorum(n, quorum);
        let mut at = 0u64;
        let mut committed = Vec::new();
        for &(r_seed, seq) in &acks {
            let replica = r_seed % n;
            at += 1;
            let mark = |ledger: &CommitLedger, r: u32| {
                ledger.ack_trails()[r as usize].last().map(|e| e.seq)
            };
            if let Some(commit) = ledger.ack(replica, seq, SimTime::from_secs(at)) {
                let s = commit.seq();
                prop_assert_eq!(ledger.last_committed(), Some(s));
                // The commit is supported by a full quorum of ack marks.
                let support = (0..n)
                    .filter(|&r| mark(&ledger, r).is_some_and(|a| a >= s))
                    .count();
                prop_assert!(
                    support >= quorum as usize,
                    "epoch {s} committed with {support}/{quorum} supporters"
                );
                committed.push(s);
            }
            // Safety: the replica failover would activate holds state at
            // least as fresh as everything already committed.
            if let Some(watermark) = ledger.last_committed() {
                let best = ledger.best_replica();
                prop_assert!(
                    mark(&ledger, best).is_some_and(|a| a >= watermark),
                    "best replica {best} is behind the watermark {watermark}"
                );
            }
        }
        prop_assert!(committed.windows(2).all(|w| w[0] < w[1]));
        let entries = ledger.entries();
        prop_assert_eq!(entries.len(), committed.len());
        prop_assert!(entries.windows(2).all(|w| w[0].seq < w[1].seq && w[0].at <= w[1].at));
    }

    /// A replica's ack trail never decreases and never runs ahead of the
    /// epochs it was fed, whatever the interleaving.
    #[test]
    fn ack_trails_are_per_replica_high_water_marks(
        acks in proptest::collection::vec((0u32..3, 1u64..40), 0..120),
    ) {
        let mut ledger = CommitLedger::with_quorum(3, 2);
        let mut fed: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for (i, &(replica, seq)) in acks.iter().enumerate() {
            ledger.ack(replica, seq, SimTime::from_secs(i as u64 + 1));
            fed[replica as usize].push(seq);
        }
        let (_, trails) = ledger.into_parts();
        for trail in trails {
            let marks: Vec<u64> = trail.acks.iter().map(|e| e.seq).collect();
            prop_assert!(marks.windows(2).all(|w| w[0] < w[1]), "trail not increasing");
            let max_fed = fed[trail.replica as usize].iter().copied().max();
            prop_assert_eq!(marks.last().copied(), max_fed);
        }
    }
}

/// A partitioned minority must never be the replica failover activates:
/// replica 2's link is cut for the whole retry budget of epoch 4, so its
/// last ack trails the quorum when the primary crashes mid-transfer of
/// epoch 5 — the engine must activate one of the up-to-date majority
/// replicas, and the ledger's one-shot `Activation` would panic the run
/// if a second activation were ever attempted.
#[test]
fn partitioned_minority_never_activates() {
    let plan = FaultPlan::new(7).with_partition(4, &[2], 4).with_event(
        5,
        FaultKind::PrimaryFault {
            outcome: DosOutcome::Crash,
            stage: Stage::Transfer,
        },
    );
    let report = Scenario::builder()
        .name("partitioned-minority")
        .vm_memory_mib(64)
        .vcpus(4)
        .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
        .config(
            ReplicationConfig::fixed_period(SimDuration::from_secs(2)).with_topology(
                TopologyConfig {
                    replicas: 3,
                    quorum: 2,
                    fanout: FanoutMode::Star,
                    stale_epoch_lag: 8,
                },
            ),
        )
        .duration(SimDuration::from_secs(30))
        .seed(42)
        .verify_consistency()
        .chaos(plan)
        .build()
        .expect("partition scenario is valid")
        .run();

    let fo = report.failover.expect("the injected crash must fail over");
    assert!(
        fo.activated_replica < 2,
        "partitioned minority replica 2 activated (got replica {})",
        fo.activated_replica
    );
    // The activated replica resumed from the last committed epoch.
    let last_committed = report.commits.last().expect("epochs committed").seq;
    assert_eq!(fo.resumed_from_checkpoint, last_committed);
    // The partition really did leave replica 2 behind the majority.
    let high_mark = |replica: u32| {
        report
            .replica_acks
            .iter()
            .find(|t| t.replica == replica)
            .and_then(|t| t.acks.last())
            .map(|e| e.seq)
            .unwrap_or(0)
    };
    assert!(
        high_mark(2) < high_mark(fo.activated_replica),
        "the minority caught up before the crash: r2 at {} vs r{} at {}",
        high_mark(2),
        fo.activated_replica,
        high_mark(fo.activated_replica)
    );
}
