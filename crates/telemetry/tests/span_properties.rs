//! Property tests for the causal span tree: the nesting checker must
//! agree with a brute-force recomputation, recorder-produced forests must
//! always assemble into an acyclic tree that keeps every span,
//! and cross-host link resolution must flag exactly the replica spans
//! whose epoch has no primary root.

use here_telemetry::span::{Span, SpanDraft, SpanRecorder, TraceTree, Track, TreeError};
use proptest::prelude::*;

/// Builds a forest from `(start, duration, parent_selector)` specs. The
/// selector is reduced modulo `i + 1`: values below `i` pick an earlier
/// span as parent, `i` itself makes a root. Parents always precede
/// children, as they do in the real recorder.
fn build_forest(specs: &[(u64, u64, usize)]) -> Vec<Span> {
    let mut rec = SpanRecorder::new();
    let mut ids = Vec::new();
    for (i, &(start, dur, parent_sel)) in specs.iter().enumerate() {
        let mut draft = SpanDraft::new("s", "test", Track::Primary, start).lasting(dur);
        let sel = parent_sel % (i + 1);
        if sel < i {
            draft = draft.child_of(ids[sel]);
        }
        ids.push(rec.push(draft));
    }
    rec.into_spans()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The indexed nesting checker finds exactly the parent/child pairs a
    /// brute-force interval scan finds — no misses, no extras.
    #[test]
    fn nesting_checker_agrees_with_brute_force(
        specs in proptest::collection::vec(
            (0u64..1_000, 0u64..1_000, 0usize..32), 1..32),
    ) {
        let spans = build_forest(&specs);
        let tree = TraceTree::build(&spans).expect("recorder forests are well-formed");
        let mut got: Vec<(u64, u64)> = tree
            .nesting_violations()
            .iter()
            .map(|v| (v.child.get(), v.parent.get()))
            .collect();
        let mut expected = Vec::new();
        for s in &spans {
            let Some(pid) = s.parent else { continue };
            let p = spans.iter().find(|x| x.id == pid).expect("parent exists");
            if s.start_nanos < p.start_nanos || s.end_nanos() > p.end_nanos() {
                expected.push((s.id.get(), pid.get()));
            }
        }
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Children constructed inside their parent's interval never trip the
    /// checker — the shape every real epoch tree has by construction.
    #[test]
    fn contained_children_never_violate_nesting(
        specs in proptest::collection::vec(
            (0u64..1000, 0u64..=1000, 0u64..=1000, 0usize..32), 1..32),
    ) {
        let mut rec = SpanRecorder::new();
        let mut placed: Vec<(here_telemetry::span::SpanId, u64, u64)> = Vec::new();
        for (i, &(root_start, frac, len, parent_sel)) in specs.iter().enumerate() {
            let sel = parent_sel % (i + 1);
            let (draft, start, end) = if sel < i {
                // Nest strictly inside the chosen parent's interval.
                let (pid, pstart, pend) = placed[sel];
                let start = pstart + (pend - pstart) * frac / 1000;
                let dur = (pend - start) * len / 1000;
                (
                    SpanDraft::new("s", "test", Track::Primary, start)
                        .lasting(dur)
                        .child_of(pid),
                    start,
                    start + dur,
                )
            } else {
                let start = root_start;
                let dur = len;
                (
                    SpanDraft::new("s", "test", Track::Primary, start).lasting(dur),
                    start,
                    start + dur,
                )
            };
            let id = rec.push(draft);
            placed.push((id, start, end));
        }
        let spans = rec.into_spans();
        let tree = TraceTree::build(&spans).expect("recorder forests are well-formed");
        prop_assert!(tree.nesting_violations().is_empty());
    }

    /// Any recorder-produced forest builds acyclically, keeps every span
    /// in emission order, and roots exactly the spans with no parent.
    #[test]
    fn recorder_forests_build_acyclic_and_complete(
        specs in proptest::collection::vec(
            (0u64..1_000, 0u64..1_000, 0usize..32), 0..48),
    ) {
        let spans = build_forest(&specs);
        let tree = TraceTree::build(&spans).expect("recorder forests are well-formed");
        prop_assert_eq!(tree.spans(), spans.as_slice());
        let roots: Vec<_> = tree.roots().map(|s| s.id).collect();
        let parentless: Vec<_> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.id)
            .collect();
        prop_assert_eq!(roots, parentless);
    }

    /// `unresolved_links` flags exactly the replica spans whose epoch id
    /// has no primary epoch root (or no epoch at all).
    #[test]
    fn cross_host_links_resolve_iff_a_root_exists(
        root_epoch_picks in proptest::collection::vec(0u64..16, 0..8),
        replica_epochs in proptest::collection::vec(
            proptest::option::of(0u64..16), 0..24),
    ) {
        let root_epochs: std::collections::BTreeSet<u64> =
            root_epoch_picks.into_iter().collect();
        let mut rec = SpanRecorder::new();
        for (i, &e) in root_epochs.iter().enumerate() {
            rec.push(
                SpanDraft::new("epoch", "epoch", Track::Primary, i as u64 * 100)
                    .lasting(50)
                    .epoch(e),
            );
        }
        let mut expected = Vec::new();
        for (i, &e) in replica_epochs.iter().enumerate() {
            let mut draft =
                SpanDraft::new("decode_restore", "wire", Track::Replica(0), i as u64 * 100)
                    .lasting(10);
            if let Some(e) = e {
                draft = draft.epoch(e);
            }
            let id = rec.push(draft);
            if e.is_none_or(|e| !root_epochs.contains(&e)) {
                expected.push(id);
            }
        }
        let spans = rec.into_spans();
        let tree = TraceTree::build(&spans).expect("forest is well-formed");
        prop_assert_eq!(tree.unresolved_links(), expected);
    }
}

/// A hand-crafted parent cycle (unreachable through the recorder API) is
/// rejected rather than looping the traversals.
#[test]
fn parent_cycles_are_rejected() {
    let mut rec = SpanRecorder::new();
    let a = rec.push(SpanDraft::new("a", "test", Track::Primary, 0).lasting(10));
    let b_draft = SpanDraft::new("b", "test", Track::Primary, 0)
        .lasting(10)
        .child_of(a);
    let b = rec.push(b_draft);
    let mut spans = rec.into_spans();
    spans[0].parent = Some(b);
    match TraceTree::build(&spans) {
        Err(TreeError::Cycle(_)) => {}
        other => panic!("expected a cycle error, got {other:?}"),
    }
}
