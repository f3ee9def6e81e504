//! Pins what every observability plane says about four small runs, so a
//! change to how the session feeds the planes cannot move a byte of
//! their output unnoticed. Host-clock values are blanked first.

mod common;

use common::{config, scenario, SCENARIOS};
use here::replication::IncidentSnapshot;

/// Replaces the number after every `key` in `text` with `0` — how the
/// host-clock values (`"wall_nanos":`, the lane pool's `"steals":` and
/// `"occupancy_pct":`) are blanked before two runs are compared.
fn blank(text: &str, keys: &[&str]) -> String {
    let mut out = text.to_string();
    for key in keys {
        let mut next = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(pos) = rest.find(key) {
            let after = pos + key.len();
            next.push_str(&rest[..after]);
            rest = &rest[after..];
            let n = rest
                .bytes()
                .take_while(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-'))
                .count();
            if n > 0 {
                next.push('0');
                rest = &rest[n..];
            }
        }
        next.push_str(rest);
        out = next;
    }
    out
}

/// The keys of a flight-recorder dump whose values come from the host.
const FLIGHT_HOST_KEYS: [&str; 3] = ["\"wall_nanos\":", "\"steals\":", "\"occupancy_pct\":"];

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per run: the digests of the Prometheus exposition, the flight
/// dump, the health series, the alert log, the span list and the incident
/// snapshot, then the report fingerprint.
fn digest_line(name: &str, armed: bool) -> String {
    let report = scenario(name, armed).run();
    let telemetry = report.telemetry.as_ref().expect("replicated run");
    // The encode-lane histogram is the one metric family fed by the host
    // clock.
    let prometheus: String = telemetry
        .prometheus()
        .lines()
        .filter(|l| !l.contains("here_encode_lane_wall_nanos"))
        .map(|l| format!("{l}\n"))
        .collect();
    let flight = blank(&telemetry.flight_recorder_json, &FLIGHT_HOST_KEYS);
    let (series, alerts) = telemetry.health.as_ref().map_or((0, 0), |h| {
        (fnv(&h.series_jsonl), fnv(&h.alert_log_jsonl()))
    });
    let spans: String = report
        .spans
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.wall_nanos = None;
            format!("{s:?}\n")
        })
        .collect();
    let incident = report
        .incident
        .as_ref()
        .map(|trigger| IncidentSnapshot::at(&config(name, armed), &report.events, trigger));
    format!(
        "{name} armed={armed} prom={:016x} flight={:016x} series={series:016x} \
         alerts={alerts:016x} spans={:016x} incident={:016x} fingerprint={:016x}",
        fnv(&prometheus),
        fnv(&flight),
        fnv(&spans),
        fnv(&format!("{incident:?}")),
        report.fingerprint(),
    )
}

#[test]
fn every_plane_of_the_four_scenarios_is_pinned() {
    let got: Vec<String> = SCENARIOS
        .iter()
        .flat_map(|name| [false, true].map(|armed| digest_line(name, armed)))
        .collect();
    let want = PINNED.lines().map(str::trim).collect::<Vec<_>>();
    assert_eq!(got, want, "\n{}", got.join("\n"));
}

/// Recorded at the commit before the event log existed. The
/// `prom` and `flight` digests, and `incident` where the capture is armed,
/// were re-pinned when every seeding round became a checkpoint stream:
/// each round's encode logs its lane walls (an `EncodeLanes` event, so the
/// flight dump and every later event index change) and checks its stream
/// segments out of and back into the buffer pool (the counts `PoolStats`
/// samples). The series, alerts, spans and fingerprint did not move.
const PINNED: &str = "\
    pair_hang armed=false prom=8cf3e23b44b828bf flight=6f0522bb2b966b29 series=0000000000000000 alerts=0000000000000000 spans=0fb64f8dc03794f1 incident=669b18c6d2d9c95b fingerprint=3efd7d9b3eedbe86\n\
    pair_hang armed=true prom=0d8a88d401ec59c0 flight=6f0522bb2b966b29 series=d05c86407a5ad9fa alerts=cbf29ce484222325 spans=0fb64f8dc03794f1 incident=759d86c626aab109 fingerprint=3efd7d9b3eedbe86\n\
    quorum_faults armed=false prom=cc9a11456b671c24 flight=7526f2d6ae76b6b7 series=0000000000000000 alerts=0000000000000000 spans=6898fd63c2976266 incident=669b18c6d2d9c95b fingerprint=829c536e5b2094a9\n\
    quorum_faults armed=true prom=79c72b51f3291010 flight=c383e7b7813c5cea series=99b8c570d1fa2dbe alerts=2919e37ea4be9caf spans=d0f5c2159616a160 incident=e0ea7bfaebc667ec fingerprint=5800706e5026041a\n\
    retry_dry armed=false prom=e87b4c1b1469b409 flight=8e5ade170ad07307 series=0000000000000000 alerts=0000000000000000 spans=364c307e6f4f10a6 incident=669b18c6d2d9c95b fingerprint=9de38bb0255baf36\n\
    retry_dry armed=true prom=f7bb4188fcc358bf flight=8e5ade170ad07307 series=eb5d41f06727ad7f alerts=cbf29ce484222325 spans=364c307e6f4f10a6 incident=621acbc57b56d714 fingerprint=9de38bb0255baf36\n\
    overlap armed=false prom=ccb2b8c79f5aea4b flight=94cab25a0e78cfbf series=0000000000000000 alerts=0000000000000000 spans=bb9e08aca7820925 incident=669b18c6d2d9c95b fingerprint=81bb85f3d092893a\n\
    overlap armed=true prom=071112f47f64472d flight=94cab25a0e78cfbf series=740ee427a82734a0 alerts=cbf29ce484222325 spans=bb9e08aca7820925 incident=383ebaa74dde7c77 fingerprint=81bb85f3d092893a\n\
";
