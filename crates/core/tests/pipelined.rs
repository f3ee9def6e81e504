//! Scenario-level checks of the one encode knob a session still has:
//! chunk framing. Lanes follow the vCPU count and the hand-off window is
//! always the whole round, so the lanes × chunk × window byte-identity is
//! held where those still vary — `dataplane.rs`'s round tests,
//! `properties.rs` and the lane loop in `wire_v3.rs`.
//!
//! Every run executes with `verify_consistency`, so the engine itself
//! asserts after each committed checkpoint that the replica's memory and
//! vCPU state are byte-identical to the paused primary's — the replica
//! image cannot silently diverge under any framing.

use here_core::{ReplicationConfig, RunReport, Scenario, SessionEvent};
use here_sim_core::time::SimDuration;
use here_workloads::memstress::MemStress;

/// A small replicated VM under memory pressure with the given chunk
/// framing, replica/primary equality verified at every commit.
fn run_with(chunk_pages: Option<u32>) -> RunReport {
    let cfg = ReplicationConfig::fixed_period(SimDuration::from_secs(2));
    Scenario::builder()
        .name("pipelined")
        .vm_memory_mib(64)
        .vcpus(4)
        .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
        .config(match chunk_pages {
            Some(pages) => cfg.with_encode_chunk_pages(pages),
            None => cfg,
        })
        .duration(SimDuration::from_secs(10))
        .seed(42)
        .verify_consistency()
        .build()
        .expect("pipelined scenario is valid")
        .run()
}

/// Shard framing and chunk sizes that divide a shard evenly, raggedly or
/// not at all: every epoch commits with the replica verified equal, and a
/// second run reports the identical fingerprint (stage events with their
/// byte counts, commits, spans) — which lane claimed which chunk
/// is invisible to everything the engine observes.
#[test]
fn chunk_framing_commits_every_epoch_and_replays_identically() {
    for chunk_pages in [None, Some(64), Some(100), Some(512)] {
        let first = run_with(chunk_pages);
        assert!(!first.checkpoints.is_empty(), "chunk={chunk_pages:?}");
        assert_eq!(
            first.commits.len(),
            first.checkpoints.len(),
            "an epoch failed to commit at chunk={chunk_pages:?}"
        );
        assert_eq!(first.consistency_checks, first.commits.len() as u64);
        let second = run_with(chunk_pages);
        assert_eq!(
            first.fingerprint(),
            second.fingerprint(),
            "chunk={chunk_pages:?} is not deterministic across runs"
        );
    }
}

/// Checks that every `EncodePool { seq, tasks }` in `report`'s log reports
/// its own epoch's pool round: the last `EncodeLanes` before it is epoch
/// `seq`'s, with exactly `tasks` walls, and more than one (a one-task
/// round is inline and reports nothing). Returns how many it saw.
fn pool_events_name_their_own_round(report: &RunReport) -> usize {
    let mut last_encode = None;
    let mut seen = 0;
    for event in &report.events {
        match event {
            SessionEvent::EncodeLanes { seq, walls, .. } => last_encode = Some((*seq, walls.len())),
            SessionEvent::EncodePool { seq, tasks, .. } => {
                let (encoded, walls) = last_encode.expect("an encode precedes its pool event");
                assert_eq!(encoded, *seq, "EncodePool names epoch {seq}");
                assert_eq!(walls as u64, *tasks, "epoch {seq}'s pool round");
                assert!(walls > 1, "epoch {seq} encoded inline");
                seen += 1;
            }
            _ => {}
        }
    }
    seen
}

/// A guest that loads the lanes while seeding, then dirties too few pages
/// per epoch for a pool round: no epoch may be reported with a seeding
/// round's stats. At the faster rate every epoch's round runs on the
/// pool, and each is reported under its own epoch.
#[test]
fn every_encode_pool_event_reports_its_own_epoch() {
    let run = |rate| {
        Scenario::builder()
            .name("pool-events")
            .vm_memory_mib(256)
            .vcpus(4)
            .workload(Box::new(MemStress::with_percent(30).with_rate(rate)))
            .load_during_seed()
            .config(ReplicationConfig::fixed_period(SimDuration::from_millis(
                200,
            )))
            .duration(SimDuration::from_secs(2))
            .build()
            .expect("valid scenario")
            .run()
    };
    let slow = run(2_000);
    assert!(!slow.checkpoints.is_empty());
    assert_eq!(pool_events_name_their_own_round(&slow), 0);
    let fast = run(20_000);
    assert!(pool_events_name_their_own_round(&fast) >= fast.checkpoints.len() / 2);
}
