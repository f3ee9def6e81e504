//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call into
//! the crates, kept in memory, and written as JSONL when the run ends. A
//! disabled tracer costs one branch per call, so the untraced ops of a
//! traced run measure what `--trace 0` measures.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` is the index of the enclosing span in
/// the recorder; spans of one op share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::open`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    op: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the ops that follow and names the op
    /// they belong to.
    pub fn begin_op(&mut self, op: u64, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "an op began inside an open span");
        self.op = op;
        self.enabled = enabled;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per op, the summed duration in nanoseconds of every span called
    /// `name`, in op order. With `self_only` each span counts its self
    /// time: its duration minus the part its direct children cover.
    pub fn per_op_ns(&self, name: &str, self_only: bool) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        if self_only {
            for span in &self.spans {
                if let Some(parent) = span.parent {
                    child_ns[parent as usize] += span.duration_ns();
                }
            }
        }
        let mut totals: Vec<(u64, f64)> = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let ns = span.duration_ns().saturating_sub(child_ns[i]) as f64;
            match totals.last_mut() {
                Some((op, total)) if *op == span.op => *total += ns,
                _ => totals.push((span.op, ns)),
            }
        }
        totals.into_iter().map(|(_, total)| total).collect()
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Counts spans that break the tree: a child that is not inside its
/// parent, belongs to another op, or overlaps the sibling before it.
pub fn nesting_violations(spans: &[Span]) -> usize {
    let mut last_child_end: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    let mut last_root_end = 0u64;
    let mut violations = 0;
    for span in spans {
        let ordered = span.start_ns <= span.end_ns;
        let fits = match span.parent {
            Some(p) => {
                let parent = &spans[p as usize];
                let inside = parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns;
                let after_sibling = last_child_end[p as usize] <= span.start_ns;
                last_child_end[p as usize] = span.end_ns;
                inside && after_sibling && parent.op == span.op
            }
            None => {
                let after_sibling = last_root_end <= span.start_ns;
                last_root_end = span.end_ns;
                after_sibling
            }
        };
        if !(ordered && fits) {
            violations += 1;
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        for op in 0..3 {
            t.begin_op(op, op != 1);
            let outer = t.open("outer");
            for _ in 0..2 {
                let inner = t.open("inner");
                std::hint::black_box((0..1000).sum::<u64>());
                t.close(inner);
            }
            t.close(outer);
        }
        // Op 1 ran with tracing off and left nothing behind.
        assert_eq!(t.spans().len(), 6);
        assert!(t.spans().iter().all(|s| s.op != 1));
        assert_eq!(nesting_violations(t.spans()), 0);
        let outer = t.per_op_ns("outer", false);
        let inner = t.per_op_ns("inner", false);
        let own = t.per_op_ns("outer", true);
        assert_eq!((outer.len(), inner.len(), own.len()), (2, 2, 2));
        for i in 0..2 {
            assert_eq!(own[i], outer[i] - inner[i]);
        }
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 6);
        assert!(jsonl.starts_with("{\"id\":0,\"name\":\"outer\",\"start\":"));
        assert!(jsonl.contains("\"parent\":0,\"op\":0}"));
    }

    #[test]
    fn overlap_and_escape_are_violations() {
        let span = |start_ns, end_ns, parent, op| Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op,
        };
        let good = [
            span(0, 10, None, 0),
            span(1, 4, Some(0), 0),
            span(4, 9, Some(0), 0),
        ];
        assert_eq!(nesting_violations(&good), 0);
        let overlapping = [
            span(0, 10, None, 0),
            span(1, 5, Some(0), 0),
            span(4, 9, Some(0), 0),
        ];
        assert_eq!(nesting_violations(&overlapping), 1);
        let escaping = [span(0, 10, None, 0), span(8, 12, Some(0), 0)];
        assert_eq!(nesting_violations(&escaping), 1);
        let wrong_op = [span(0, 10, None, 0), span(1, 2, Some(0), 1)];
        assert_eq!(nesting_violations(&wrong_op), 1);
        let overlapping_ops = [span(0, 10, None, 0), span(9, 12, None, 1)];
        assert_eq!(nesting_violations(&overlapping_ops), 1);
    }
}
