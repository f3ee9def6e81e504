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

use here_core::{ReplicationConfig, RunReport, Scenario};
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
/// byte counts, commits, spans) — which lane encoded or stole which chunk
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
