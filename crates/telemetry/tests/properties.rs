//! Property tests for the telemetry building blocks: a histogram's
//! scalars are exact, the flight recorder's bounded ring keeps exactly
//! the newest events in order, and a windowed series does not depend on
//! recording order or lose counts to rotation.

use here_telemetry::timeseries::{SeriesKind, Window, WindowedSeries};
use here_telemetry::{FlightRecorder, HistogramSnapshot};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram sum/count/min/max are exact regardless of bucketing.
    #[test]
    fn histogram_scalars_are_exact(
        values in proptest::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let mut snap = HistogramSnapshot::empty();
        for &v in &values {
            snap.observe(v);
        }
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        prop_assert_eq!(snap.min, *values.iter().min().unwrap());
        prop_assert_eq!(snap.max, *values.iter().max().unwrap());
    }

    /// The flight recorder retains exactly the newest `capacity` events in
    /// chronological order, drops the rest, and accounts for every record.
    #[test]
    fn flight_ring_keeps_the_newest_events_in_order(
        capacity in 1usize..64,
        total in 0u64..300,
    ) {
        let mut rec = FlightRecorder::new(capacity);
        for i in 0..total {
            rec.record(format_args!(r#"{{"seq":{i}}}"#));
        }
        let retained = (total as usize).min(capacity);
        prop_assert_eq!(rec.total_recorded(), total);
        prop_assert_eq!(rec.dropped(), total - retained as u64);
        let first = total - retained as u64;
        let events: Vec<String> = (first..total).map(|i| format!(r#"{{"seq":{i}}}"#)).collect();
        prop_assert_eq!(
            rec.dump_json(),
            format!(
                r#"{{"capacity":{capacity},"total_recorded":{total},"dropped":{first},"events":[{}]}}"#,
                events.join(",")
            )
        );
    }
}

/// Picks an aggregation kind from a generated selector.
fn kind_of(sel: u8) -> SeriesKind {
    match sel % 3 {
        0 => SeriesKind::CounterRate,
        1 => SeriesKind::GaugeLast,
        _ => SeriesKind::Histogram,
    }
}

/// Deterministic Fisher-Yates driven by a generated seed — the vendored
/// proptest stand-in has no `prop_shuffle`, so the tests shuffle inline.
fn shuffled(mut v: Vec<(u64, u64)>, seed: u64) -> Vec<(u64, u64)> {
    let mut state = seed | 1;
    for i in (1..v.len()).rev() {
        // SplitMix64 step; any well-mixed generator works here.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        v.swap(i, (z % (i as u64 + 1)) as usize);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same multiset of samples produces the identical series — and
    /// identical JSONL bytes — no matter what order it is recorded in,
    /// even when rotation folds history mid-stream.
    #[test]
    fn recording_order_never_changes_the_series(
        stream in proptest::collection::vec((0u64..25_000, 0u64..5_000), 1..120),
        kind_sel in 0u8..3,
        retain in 1usize..6,
        shuffle_seed in any::<u64>(),
    ) {
        let kind = kind_of(kind_sel);
        let mut a = WindowedSeries::with_retain("m", Some(("replica", "2")), kind, 1_000, retain);
        let mut b = WindowedSeries::with_retain("m", Some(("replica", "2")), kind, 1_000, retain);
        for &(at, v) in &stream {
            a.record(at, v);
        }
        for &(at, v) in &shuffled(stream, shuffle_seed) {
            b.record(at, v);
        }
        prop_assert_eq!(&a, &b);
        let mut ja = String::new();
        a.render_jsonl_into(&mut ja);
        let mut jb = String::new();
        b.render_jsonl_into(&mut jb);
        prop_assert_eq!(ja, jb);
    }

    /// Rotation moves samples into the tail aggregate but never loses
    /// them: count and sum over live windows plus tail always equal the
    /// recorded stream's.
    #[test]
    fn rotation_never_loses_counts(
        stream in proptest::collection::vec((0u64..25_000, 0u64..5_000), 1..120),
        retain in 1usize..5,
    ) {
        let mut s = WindowedSeries::with_retain("m", None, SeriesKind::CounterRate, 1_000, retain);
        for &(at, v) in &stream {
            s.record(at, v);
        }
        prop_assert!(s.windows().len() <= retain);
        prop_assert_eq!(s.total_count(), stream.len() as u64);
        let live_sum: u64 = s.windows().iter().map(|w| w.sum).sum();
        let tail_sum = s.tail().map_or(0, |t| t.sum);
        prop_assert_eq!(live_sum + tail_sum, stream.iter().map(|&(_, v)| v).sum::<u64>());
    }

    /// Splitting one window's sample stream in two and merging the halves
    /// — in either order — reproduces exactly the window that recording
    /// everything into one would have.
    #[test]
    fn window_merge_commutes_with_recording_order(
        stream in proptest::collection::vec((0u64..1_000, 0u64..5_000, any::<bool>()), 1..80),
        kind_sel in 0u8..3,
    ) {
        let kind = kind_of(kind_sel);
        let mut whole = Window::new(0, kind);
        let mut left = Window::new(0, kind);
        let mut right = Window::new(0, kind);
        for &(at, v, goes_left) in &stream {
            whole.record(at, v);
            if goes_left {
                left.record(at, v);
            } else {
                right.record(at, v);
            }
        }
        let mut lr = left.clone();
        lr.merge_from(&right);
        let mut rl = right.clone();
        rl.merge_from(&left);
        prop_assert_eq!(&lr, &whole);
        prop_assert_eq!(&rl, &whole);
    }
}
