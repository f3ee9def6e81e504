//! Causal spans: the building blocks of per-epoch trace trees.
//!
//! A [`Span`] is one named interval of work on one logical track (primary
//! VM, one of its encode lanes, the replica, or the failover controller),
//! with a parent link, an optional checkpoint-epoch tag, a virtual-time
//! interval, and an optional measured wall-clock duration from the real
//! `Instant` probes. Spans are recorded through a [`SpanRecorder`] and
//! assembled into a validated [`TraceTree`] for analysis; the
//! [`chrome`](crate::chrome) module renders the same records as Chrome
//! trace-event JSON.
//!
//! Replica-side spans are not children of the primary epoch root — they
//! run on a different simulated host — so the cross-host edge is carried
//! by the shared epoch id instead of a parent link. [`TraceTree`]
//! validation checks both kinds of edge: parent links must form a forest
//! whose children nest inside their parents, and every replica span's
//! epoch must resolve to a primary epoch root.

use serde::{Deserialize, Serialize};

use crate::export::json_escape;

/// Identifier of one recorded span, unique within its [`SpanRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw id value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// The logical execution track a span belongs to. Tracks map onto Chrome
/// trace process/thread rows: the primary VM and its encode lanes share a
/// process, the replica is a second process, and the failover controller
/// a third.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Track {
    /// The primary host's checkpoint pipeline.
    Primary,
    /// One parallel encode lane on the primary (0-based lane index).
    PrimaryLane(u32),
    /// A replica host (decode/restore, post-failover execution), by
    /// 0-based replica index within the session's replica set.
    Replica(u32),
    /// The failover controller / fault-injection timeline.
    Controller,
}

impl Track {
    /// Chrome trace process id for this track. Replica 0 keeps the
    /// historical pid 2; additional replicas are laid out past the
    /// controller (pid `3 + index`) so every replica gets its own
    /// process row.
    pub fn pid(self) -> u64 {
        match self {
            Track::Primary | Track::PrimaryLane(_) => 1,
            Track::Replica(0) => 2,
            Track::Replica(index) => 3 + u64::from(index),
            Track::Controller => 3,
        }
    }

    /// Chrome trace thread id for this track.
    pub fn tid(self) -> u64 {
        match self {
            Track::Primary | Track::Replica(_) | Track::Controller => 0,
            Track::PrimaryLane(lane) => 1 + u64::from(lane),
        }
    }

    /// Human-readable process name for the trace viewer.
    pub fn process_name(self) -> &'static str {
        match self {
            Track::Primary | Track::PrimaryLane(_) => "primary",
            Track::Replica(_) => "replica",
            Track::Controller => "controller",
        }
    }

    /// Human-readable thread name for the trace viewer.
    pub fn thread_name(self) -> String {
        match self {
            Track::Primary => "pipeline".to_string(),
            Track::PrimaryLane(lane) => format!("encode lane {lane}"),
            Track::Replica(_) => "apply".to_string(),
            Track::Controller => "failover".to_string(),
        }
    }
}

/// A typed attribute value attached to a span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// Unsigned integer attribute (counts, byte sizes, sequence numbers).
    U64(u64),
    /// Floating-point attribute (ratios, model residuals).
    F64(f64),
    /// Static string attribute (labels, phase names).
    Str(&'static str),
}

/// One recorded interval of work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Unique id within the recording session.
    pub id: SpanId,
    /// Parent span, when this span nests inside another on the same host.
    pub parent: Option<SpanId>,
    /// What the span measures (stage label, `"epoch"`, `"encode_lane"`…).
    pub name: &'static str,
    /// Coarse grouping used by the analyzer and the Chrome `cat` field.
    pub category: &'static str,
    /// Which logical track the work ran on.
    pub track: Track,
    /// Checkpoint epoch (sequence number) this span belongs to, if any.
    /// Replica-side spans are linked to the primary's epoch root through
    /// this id rather than a parent link.
    pub epoch: Option<u64>,
    /// Virtual-time start, nanoseconds from the report origin.
    pub start_nanos: u64,
    /// Virtual-time duration in nanoseconds.
    pub duration_nanos: u64,
    /// Measured wall-clock duration from a real `Instant` probe, when the
    /// span wraps actually-executed work.
    pub wall_nanos: Option<u64>,
    /// Additional key/value attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Virtual-time end of the span (saturating).
    pub fn end_nanos(&self) -> u64 {
        self.start_nanos.saturating_add(self.duration_nanos)
    }
}

/// A span under construction: everything but the id, which the recorder
/// assigns. Built with a small chaining API so emission sites stay
/// one-expression.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDraft {
    /// See [`Span::name`].
    pub name: &'static str,
    /// See [`Span::category`].
    pub category: &'static str,
    /// See [`Span::track`].
    pub track: Track,
    /// See [`Span::parent`].
    pub parent: Option<SpanId>,
    /// See [`Span::epoch`].
    pub epoch: Option<u64>,
    /// See [`Span::start_nanos`].
    pub start_nanos: u64,
    /// See [`Span::duration_nanos`].
    pub duration_nanos: u64,
    /// See [`Span::wall_nanos`].
    pub wall_nanos: Option<u64>,
    /// See [`Span::attrs`].
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanDraft {
    /// Starts a draft with zero duration and no links or attributes.
    pub fn new(name: &'static str, category: &'static str, track: Track, start_nanos: u64) -> Self {
        SpanDraft {
            name,
            category,
            track,
            parent: None,
            epoch: None,
            start_nanos,
            duration_nanos: 0,
            wall_nanos: None,
            attrs: Vec::new(),
        }
    }

    /// Sets the virtual duration.
    pub fn lasting(mut self, duration_nanos: u64) -> Self {
        self.duration_nanos = duration_nanos;
        self
    }

    /// Links the span under a parent.
    pub fn child_of(mut self, parent: SpanId) -> Self {
        self.parent = Some(parent);
        self
    }

    /// Tags the span with a checkpoint epoch.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Attaches a measured wall-clock duration.
    pub fn wall(mut self, wall_nanos: u64) -> Self {
        self.wall_nanos = Some(wall_nanos);
        self
    }

    /// Attaches an unsigned-integer attribute.
    pub fn attr_u64(mut self, key: &'static str, value: u64) -> Self {
        self.attrs.push((key, AttrValue::U64(value)));
        self
    }

    /// Attaches a floating-point attribute.
    pub fn attr_f64(mut self, key: &'static str, value: f64) -> Self {
        self.attrs.push((key, AttrValue::F64(value)));
        self
    }

    /// Attaches a static-string attribute.
    pub fn attr_str(mut self, key: &'static str, value: &'static str) -> Self {
        self.attrs.push((key, AttrValue::Str(value)));
        self
    }
}

/// Collects spans for one run. Ids are assigned sequentially; spans can
/// be pushed complete (duration known up front, the common case in the
/// virtual-time simulator) or opened and closed later (the epoch root,
/// whose extent is only known at `Resume`).
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: Vec<Span>,
    next_id: u64,
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Records a complete span and returns its id.
    pub fn push(&mut self, draft: SpanDraft) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: draft.parent,
            name: draft.name,
            category: draft.category,
            track: draft.track,
            epoch: draft.epoch,
            start_nanos: draft.start_nanos,
            duration_nanos: draft.duration_nanos,
            wall_nanos: draft.wall_nanos,
            attrs: draft.attrs,
        });
        id
    }

    /// Opens a span whose end is not yet known (recorded with zero
    /// duration until [`SpanRecorder::close`] is called).
    pub fn open(&mut self, draft: SpanDraft) -> SpanId {
        self.push(draft)
    }

    /// Closes a previously opened span at `end_nanos` (saturating if the
    /// end precedes the recorded start). Unknown ids are ignored.
    pub fn close(&mut self, id: SpanId, end_nanos: u64) {
        if let Some(span) = self.spans.iter_mut().find(|s| s.id == id) {
            span.duration_nanos = end_nanos.saturating_sub(span.start_nanos);
        }
    }

    /// The spans recorded so far, in emission order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drops all recorded spans (used when a warmup phase resets the
    /// measurement window) without resetting id assignment.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Consumes the recorder, yielding the spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Why a span slice could not be assembled into a [`TraceTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Two spans share an id.
    DuplicateId(SpanId),
    /// A span names a parent that is not in the slice.
    UnknownParent {
        /// The span with the dangling link.
        span: SpanId,
        /// The missing parent id.
        parent: SpanId,
    },
    /// Parent links form a cycle reachable from this span.
    Cycle(SpanId),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::DuplicateId(id) => write!(f, "duplicate span id {}", id.get()),
            TreeError::UnknownParent { span, parent } => {
                write!(
                    f,
                    "span {} links to unknown parent {}",
                    span.get(),
                    parent.get()
                )
            }
            TreeError::Cycle(id) => write!(f, "parent links cycle through span {}", id.get()),
        }
    }
}

/// A nesting violation: a child span whose virtual interval is not
/// contained in its parent's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestingViolation {
    /// The offending child.
    pub child: SpanId,
    /// Its parent.
    pub parent: SpanId,
}

/// A validated forest of spans indexed for traversal: id lookup,
/// children lists, roots, and per-epoch grouping.
#[derive(Debug, Clone)]
pub struct TraceTree {
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl TraceTree {
    /// Builds the tree, rejecting duplicate ids, dangling parent links,
    /// and parent cycles.
    pub fn build(spans: &[Span]) -> Result<TraceTree, TreeError> {
        let mut index = std::collections::HashMap::with_capacity(spans.len());
        for (i, span) in spans.iter().enumerate() {
            if index.insert(span.id, i).is_some() {
                return Err(TreeError::DuplicateId(span.id));
            }
        }
        let mut children = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            match span.parent {
                None => roots.push(i),
                Some(parent) => match index.get(&parent) {
                    Some(&p) => children[p].push(i),
                    None => {
                        return Err(TreeError::UnknownParent {
                            span: span.id,
                            parent,
                        })
                    }
                },
            }
        }
        // A parent chain longer than the span count must revisit a node.
        for span in spans {
            let mut cursor = span.parent;
            let mut steps = 0usize;
            while let Some(parent) = cursor {
                steps += 1;
                if steps > spans.len() {
                    return Err(TreeError::Cycle(span.id));
                }
                cursor = spans[index[&parent]].parent;
            }
        }
        Ok(TraceTree {
            spans: spans.to_vec(),
            children,
            roots,
        })
    }

    /// All spans, in the original emission order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans with no parent, in emission order.
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.roots.iter().map(move |&i| &self.spans[i])
    }

    /// Every parent/child pair whose child interval escapes the parent's
    /// virtual interval. An empty result is the nesting invariant.
    pub fn nesting_violations(&self) -> Vec<NestingViolation> {
        let mut out = Vec::new();
        for (p, kids) in self.children.iter().enumerate() {
            let parent = &self.spans[p];
            for &c in kids {
                let child = &self.spans[c];
                if child.start_nanos < parent.start_nanos || child.end_nanos() > parent.end_nanos()
                {
                    out.push(NestingViolation {
                        child: child.id,
                        parent: parent.id,
                    });
                }
            }
        }
        out
    }

    /// Root spans of checkpoint epochs (category `"epoch"`), in order.
    pub fn epoch_roots(&self) -> impl Iterator<Item = &Span> {
        self.roots().filter(|s| s.category == "epoch")
    }

    /// Replica-track spans whose epoch id does not resolve to a primary
    /// epoch root — dangling cross-host links. An empty result is the
    /// link-resolution invariant.
    pub fn unresolved_links(&self) -> Vec<SpanId> {
        let epochs: std::collections::HashSet<u64> =
            self.epoch_roots().filter_map(|s| s.epoch).collect();
        self.spans
            .iter()
            .filter(|s| matches!(s.track, Track::Replica(_)))
            .filter(|s| match s.epoch {
                Some(e) => !epochs.contains(&e),
                None => true,
            })
            .map(|s| s.id)
            .collect()
    }
}

/// Renders a span attribute value as a JSON fragment. Non-finite floats
/// are rendered as quoted strings so the document stays valid JSON.
pub(crate) fn attr_value_json(value: &AttrValue) -> String {
    match value {
        AttrValue::U64(v) => v.to_string(),
        AttrValue::F64(v) if v.is_finite() => {
            if *v == v.trunc() && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        AttrValue::F64(v) => format!("\"{v}\""),
        AttrValue::Str(s) => format!("\"{}\"", json_escape(s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draft(name: &'static str, start: u64, dur: u64) -> SpanDraft {
        SpanDraft::new(name, "stage", Track::Primary, start).lasting(dur)
    }

    #[test]
    fn recorder_assigns_sequential_ids_and_closes_open_spans() {
        let mut rec = SpanRecorder::new();
        let root = rec.open(SpanDraft::new("epoch", "epoch", Track::Primary, 100).epoch(1));
        let child = rec.push(draft("pause", 100, 40).child_of(root));
        assert_eq!(root.get(), 0);
        assert_eq!(child.get(), 1);
        rec.close(root, 200);
        assert_eq!(rec.spans()[0].duration_nanos, 100);
        assert_eq!(rec.spans()[1].parent, Some(root));
    }

    #[test]
    fn close_saturates_and_ignores_unknown_ids() {
        let mut rec = SpanRecorder::new();
        let id = rec.open(draft("x", 500, 0));
        rec.close(id, 400);
        assert_eq!(rec.spans()[0].duration_nanos, 0);
        rec.close(SpanId(99), 1_000); // no panic
    }

    #[test]
    fn tree_build_indexes_children_and_roots() {
        let mut rec = SpanRecorder::new();
        let root = rec.open(SpanDraft::new("epoch", "epoch", Track::Primary, 0).epoch(7));
        let a = rec.push(draft("pause", 0, 10).child_of(root).epoch(7));
        let _lane = rec.push(
            SpanDraft::new("encode_lane", "lane", Track::PrimaryLane(0), 2)
                .lasting(5)
                .child_of(a),
        );
        rec.close(root, 40);
        let tree = TraceTree::build(rec.spans()).expect("valid tree");
        assert_eq!(tree.roots().count(), 1);
        assert_eq!(tree.epoch_roots().next().unwrap().epoch, Some(7));
        assert!(tree.nesting_violations().is_empty());
    }

    #[test]
    fn tree_build_rejects_dangling_parent() {
        let mut rec = SpanRecorder::new();
        rec.push(draft("orphan", 0, 1).child_of(SpanId(42)));
        let err = TraceTree::build(rec.spans()).unwrap_err();
        assert!(matches!(err, TreeError::UnknownParent { .. }));
    }

    #[test]
    fn tree_build_rejects_duplicate_ids_and_cycles() {
        let span = Span {
            id: SpanId(0),
            parent: None,
            name: "a",
            category: "stage",
            track: Track::Primary,
            epoch: None,
            start_nanos: 0,
            duration_nanos: 1,
            wall_nanos: None,
            attrs: Vec::new(),
        };
        let dup = vec![span.clone(), span.clone()];
        assert!(matches!(
            TraceTree::build(&dup),
            Err(TreeError::DuplicateId(_))
        ));
        let mut a = span.clone();
        a.parent = Some(SpanId(1));
        let mut b = span;
        b.id = SpanId(1);
        b.parent = Some(SpanId(0));
        assert!(matches!(
            TraceTree::build(&[a, b]),
            Err(TreeError::Cycle(_))
        ));
    }

    #[test]
    fn nesting_violation_detected_when_child_escapes_parent() {
        let mut rec = SpanRecorder::new();
        let root = rec.push(draft("epoch", 100, 50));
        rec.push(draft("late", 140, 20).child_of(root));
        let tree = TraceTree::build(rec.spans()).expect("valid links");
        let violations = tree.nesting_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].parent, root);
    }

    #[test]
    fn unresolved_links_flag_replica_spans_without_epoch_root() {
        let mut rec = SpanRecorder::new();
        let root = rec.open(SpanDraft::new("epoch", "epoch", Track::Primary, 0).epoch(3));
        rec.close(root, 100);
        rec.push(
            SpanDraft::new("decode_restore", "wire", Track::Replica(0), 50)
                .lasting(10)
                .epoch(3),
        );
        let dangling = rec.push(
            SpanDraft::new("decode_restore", "wire", Track::Replica(1), 60)
                .lasting(10)
                .epoch(9),
        );
        let tree = TraceTree::build(rec.spans()).unwrap();
        assert_eq!(tree.unresolved_links(), vec![dangling]);
    }

    #[test]
    fn attr_values_render_as_valid_json_fragments() {
        assert_eq!(attr_value_json(&AttrValue::U64(3)), "3");
        assert_eq!(attr_value_json(&AttrValue::F64(2.0)), "2.0");
        assert_eq!(attr_value_json(&AttrValue::F64(0.125)), "0.125");
        assert_eq!(attr_value_json(&AttrValue::F64(f64::NAN)), "\"NaN\"");
        assert_eq!(attr_value_json(&AttrValue::Str("a\"b")), "\"a\\\"b\"");
    }
}
