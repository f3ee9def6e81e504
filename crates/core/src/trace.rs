//! Structured stage-event tracing for the checkpoint pipeline.
//!
//! Every checkpoint flows through the six pipeline stages of §3.2 —
//! pause, harvest, translate, transfer, ack, resume — and each stage
//! boundary emits one [`StageEvent`] carrying the virtual timestamp, the
//! page and byte counts, and the stage's contribution to the pause. The
//! per-checkpoint records in [`crate::report`] and the figure harness in
//! `here-bench` are derived from these events, so the breakdown of the
//! paper's pause model `t = αN/P + C` (Eq. 4) falls out of the trace
//! instead of ad-hoc field plumbing.

use serde::{Deserialize, Serialize};
use std::fmt;

use here_sim_core::time::{SimDuration, SimTime};

/// One stage of the checkpoint pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// The VM is paused; Remus additionally re-enters its toolstack here.
    Pause,
    /// Dirty pages are scanned and copied out of guest memory
    /// (the `αN/P` term of Eq. 4).
    Harvest,
    /// vCPU/device state is captured, translated to the common format and
    /// the checkpoint stream is encoded (the constant `C` term).
    Translate,
    /// The stream crosses the replication link and is installed on the
    /// replica (the wire term).
    Transfer,
    /// The replica's acknowledgement travels back (one RTT); the primary
    /// commits buffered output on receipt.
    Ack,
    /// The VM resumes execution.
    Resume,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Pause,
        Stage::Harvest,
        Stage::Translate,
        Stage::Transfer,
        Stage::Ack,
        Stage::Resume,
    ];

    /// Whether this stage's duration counts toward the VM-visible pause
    /// `t` (everything except the ack, which overlaps the resume path in
    /// the paper's asynchronous protocol accounting).
    pub fn counts_toward_pause(self) -> bool {
        self != Stage::Ack
    }

    /// Short lower-case label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Pause => "pause",
            Stage::Harvest => "harvest",
            Stage::Translate => "translate",
            Stage::Transfer => "transfer",
            Stage::Ack => "ack",
            Stage::Resume => "resume",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One stage boundary of one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageEvent {
    /// Checkpoint sequence number the stage belongs to (1-based; 0 is the
    /// seeding stop-and-copy).
    pub seq: u64,
    /// The stage.
    pub stage: Stage,
    /// Virtual time at which the stage began, relative to measurement
    /// start.
    pub at: SimTime,
    /// How long the stage took.
    pub duration: SimDuration,
    /// Wall-clock time the stage's *real* work took, where the stage does
    /// real work (the harvest copy, the translate encode, the transfer
    /// apply); `None` for purely simulated stages. This lets the
    /// real-time datapath bench and the simulator share one trace schema:
    /// `duration` is always the virtual cost model, `wall_nanos` the
    /// measured host time.
    pub wall_nanos: Option<u64>,
    /// Pages the stage handled (0 where not meaningful).
    pub pages: u64,
    /// Bytes the stage handled: raw page payload for harvest, encoded
    /// stream size for translate/transfer, 0 elsewhere.
    pub bytes: u64,
}

/// An append-only collector of [`StageEvent`]s for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTrace {
    events: Vec<StageEvent>,
}

impl StageTrace {
    /// Empty trace.
    pub fn new() -> Self {
        StageTrace::default()
    }

    /// Appends one event.
    pub fn record(&mut self, event: StageEvent) {
        self.events.push(event);
    }

    /// All events in emission order.
    pub fn events(&self) -> &[StageEvent] {
        &self.events
    }

    /// Discards everything collected so far (used when a warmup window
    /// closes and measurement restarts).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Consumes the trace, yielding the raw event list.
    pub fn into_events(self) -> Vec<StageEvent> {
        self.events
    }

    /// Events belonging to checkpoint `seq`, in stage order.
    pub fn for_seq(&self, seq: u64) -> Vec<StageEvent> {
        self.events
            .iter()
            .filter(|e| e.seq == seq)
            .copied()
            .collect()
    }

    /// The VM-visible pause of checkpoint `seq`: the sum of its
    /// pause-counting stage durations (see
    /// [`Stage::counts_toward_pause`]).
    pub fn pause_of(&self, seq: u64) -> SimDuration {
        self.events
            .iter()
            .filter(|e| e.seq == seq && e.stage.counts_toward_pause())
            .map(|e| e.duration)
            .sum()
    }

    /// Distinct checkpoint sequence numbers present, in first-seen order.
    pub fn seqs(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for e in &self.events {
            if out.last() != Some(&e.seq) && !out.contains(&e.seq) {
                out.push(e.seq);
            }
        }
        out
    }
}

/// Summarises a flat event list per stage: `(stage, total duration)` in
/// pipeline order. Used by `here-bench` for the per-stage breakdown table.
pub fn stage_totals(events: &[StageEvent]) -> Vec<(Stage, SimDuration)> {
    Stage::ALL
        .iter()
        .map(|&s| {
            (
                s,
                events
                    .iter()
                    .filter(|e| e.stage == s)
                    .map(|e| e.duration)
                    .sum(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, stage: Stage, at_ms: u64, dur_ms: u64, pages: u64) -> StageEvent {
        StageEvent {
            seq,
            stage,
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            duration: SimDuration::from_millis(dur_ms),
            wall_nanos: None,
            pages,
            bytes: pages * 4096,
        }
    }

    fn sample() -> StageTrace {
        let mut t = StageTrace::new();
        t.record(ev(1, Stage::Pause, 0, 8, 0));
        t.record(ev(1, Stage::Harvest, 8, 20, 100));
        t.record(ev(1, Stage::Translate, 28, 4, 100));
        t.record(ev(1, Stage::Transfer, 32, 10, 100));
        t.record(ev(1, Stage::Ack, 42, 1, 0));
        t.record(ev(1, Stage::Resume, 43, 0, 0));
        t.record(ev(2, Stage::Pause, 100, 8, 0));
        t.record(ev(2, Stage::Harvest, 108, 30, 200));
        t.record(ev(2, Stage::Translate, 138, 4, 200));
        t.record(ev(2, Stage::Transfer, 142, 20, 200));
        t.record(ev(2, Stage::Ack, 162, 1, 0));
        t.record(ev(2, Stage::Resume, 163, 0, 0));
        t
    }

    #[test]
    fn pause_excludes_only_the_ack() {
        let t = sample();
        assert_eq!(t.pause_of(1), SimDuration::from_millis(8 + 20 + 4 + 10));
        assert_eq!(t.pause_of(2), SimDuration::from_millis(8 + 30 + 4 + 20));
    }

    #[test]
    fn per_stage_totals_cover_all_stages_in_order() {
        let t = sample();
        let totals = stage_totals(t.events());
        assert_eq!(totals.len(), 6);
        assert_eq!(totals[0], (Stage::Pause, SimDuration::from_millis(16)));
        assert_eq!(totals[1], (Stage::Harvest, SimDuration::from_millis(50)));
        assert_eq!(totals[4], (Stage::Ack, SimDuration::from_millis(2)));
    }

    #[test]
    fn seq_queries_group_events() {
        let t = sample();
        assert_eq!(t.seqs(), vec![1, 2]);
        let one = t.for_seq(1);
        assert_eq!(one.len(), 6);
        assert_eq!(one[0].stage, Stage::Pause);
        assert_eq!(one[5].stage, Stage::Resume);
    }

    #[test]
    fn clear_resets_the_trace() {
        let mut t = sample();
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.pause_of(1), SimDuration::ZERO);
    }
}
