//! The flight recorder: a bounded ring of recent telemetry events.
//!
//! The recorder is always on. It keeps the last `capacity` events — stage
//! boundaries, period-manager decisions, buffer-pool reclaims, per-lane
//! encode timings, failover timeline marks — overwriting the oldest when
//! full, so after an incident the recent history is available as JSON
//! without having traced the whole run. Each event arrives already
//! rendered: its writer formats one compact JSON object, and the ring
//! keeps that text.

use std::fmt::{self, Write as _};

/// A bounded ring buffer of rendered events. Recording is O(1); once
/// `capacity` events are held, each new event evicts the oldest and
/// reuses its buffer.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<String>,
    capacity: usize,
    /// Index the next event will be written at.
    next: usize,
    /// Events recorded over the recorder's lifetime.
    total: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be non-zero");
        FlightRecorder {
            ring: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            total: 0,
        }
    }

    /// Records one event — `entry` is its JSON object, written as given —
    /// evicting the oldest when full.
    pub fn record(&mut self, entry: fmt::Arguments<'_>) {
        if self.ring.len() < self.capacity {
            self.ring.push(fmt::format(entry));
        } else {
            let slot = &mut self.ring[self.next];
            slot.clear();
            let _ = slot.write_fmt(entry);
        }
        self.next = (self.next + 1) % self.capacity;
        self.total += 1;
    }

    /// Events recorded over the recorder's lifetime (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.total - self.ring.len() as u64
    }

    /// Dumps the retained events, oldest first, as a JSON document:
    /// `{"capacity":..,"total_recorded":..,"dropped":..,"events":[..]}`.
    pub fn dump_json(&self) -> String {
        let mut out = format!(
            "{{\"capacity\":{},\"total_recorded\":{},\"dropped\":{},\"events\":[",
            self.capacity,
            self.total,
            self.dropped()
        );
        // Until the ring first fills, `next` is its length and the split
        // leaves everything in the second half.
        let (newer, older) = self.ring.split_at(self.next);
        for (i, entry) in older.iter().chain(newer).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(entry);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(rec: &mut FlightRecorder, i: u64) {
        rec.record(format_args!(r#"{{"at_nanos":{i}}}"#));
    }

    #[test]
    fn retains_everything_until_full() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..3 {
            mark(&mut rec, i);
        }
        assert_eq!(rec.total_recorded(), 3);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(
            rec.dump_json(),
            r#"{"capacity":4,"total_recorded":3,"dropped":0,"events":[{"at_nanos":0},{"at_nanos":1},{"at_nanos":2}]}"#
        );
    }

    #[test]
    fn wraps_and_keeps_newest_in_order() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10 {
            mark(&mut rec, i);
        }
        assert_eq!(rec.total_recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        assert_eq!(
            rec.dump_json(),
            r#"{"capacity":4,"total_recorded":10,"dropped":6,"events":[{"at_nanos":6},{"at_nanos":7},{"at_nanos":8},{"at_nanos":9}]}"#
        );
    }

    #[test]
    fn dump_json_is_well_formed() {
        let mut rec = FlightRecorder::new(2);
        assert_eq!(
            rec.dump_json(),
            r#"{"capacity":2,"total_recorded":0,"dropped":0,"events":[]}"#
        );
        for i in 0..3 {
            mark(&mut rec, i);
        }
        assert_eq!(
            rec.dump_json(),
            r#"{"capacity":2,"total_recorded":3,"dropped":1,"events":[{"at_nanos":1},{"at_nanos":2}]}"#
        );
    }
}
