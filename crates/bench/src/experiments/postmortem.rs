//! The postmortem-plane experiment (`repro postmortem`).
//!
//! Pins the whole capture → replay → forensics arc on one induced
//! incident, all in simulated time so the gate compares every number
//! exactly:
//!
//! 1. **Capture.** The health experiment's sustained partition of
//!    replica 2 re-runs with [`postmortem capture`] armed; the first
//!    `quorum_at_risk`/`stale_replica` page is the trigger, and the
//!    [`IncidentBundle`] is the seed that reproduces it — config, seeds,
//!    fault plan, fingerprint and trigger — behind a checksummed,
//!    versioned header.
//! 2. **Integrity.** The encoded bundle must round-trip through
//!    [`IncidentBundle::decode`] unchanged, and strict decoding must
//!    reject a version bump, a truncation and a same-length bit flip.
//! 3. **Replay.** Re-executing the decoded bundle must reproduce the
//!    captured run's [`RunReport::fingerprint`] and fire the same trigger
//!    at the same event — the bundle is a one-file repro.
//! 4. **Forensics.** [`PostmortemAnalyzer`] diffs the replayed run
//!    against the same seed with the fault plan stripped:
//!    per-stage time deltas, critical-path shift, per-replica ack/retry
//!    divergence and the reconstructed alert timeline
//!    (`postmortem.json` + human-readable report).
//!
//! [`postmortem capture`]: here_core::ReplicationConfig::postmortem_capture
//! [`RunReport::fingerprint`]: here_core::RunReport::fingerprint

use here_core::{IncidentBundle, PostmortemAnalyzer, PostmortemReport, BUNDLE_VERSION};
use here_vmstate::wire::fnv32;

use super::health::{self, partition_plan, QUORUM, REPLICAS};
use super::{stress_spec, Scale, PLAN_SEED, RUN_SEED};
use crate::json::{fixed, hex32, hex64, obj, Json};

/// Everything `repro postmortem` reports.
#[derive(Debug, Clone)]
pub struct PostmortemOutput {
    /// What tripped capture (must be `alert`).
    pub trigger: String,
    /// Epoch the trigger fired in.
    pub trigger_epoch: u64,
    /// Trigger detail line from the capture.
    pub trigger_detail: String,
    /// Fingerprint of the captured incident run.
    pub incident_fingerprint: u64,
    /// Size of the encoded bundle in bytes.
    pub bundle_bytes: usize,
    /// FNV-32 of the encoded bundle text.
    pub bundle_hash: u32,
    /// True when decode(encode(bundle)) equals the bundle field-for-field.
    pub decode_round_trip: bool,
    /// True when a version bump was rejected as `unknown bundle version`.
    pub rejects_unknown_version: bool,
    /// True when a cut-off tail was rejected as `truncated bundle`.
    pub rejects_truncation: bool,
    /// True when a same-length bit flip was rejected as `tampered bundle`.
    pub rejects_tampering: bool,
    /// Fingerprint of the replayed run.
    pub replay_fingerprint: u64,
    /// True when the replay reproduced the fingerprint and the trigger.
    pub replay_verified: bool,
    /// The differential forensics diff (incident vs. fault-stripped
    /// baseline).
    pub postmortem: PostmortemReport,
    /// Alerts that fired in the incident run's timeline.
    pub alerts_fired: usize,
    /// The encoded bundle (`incident.bundle`).
    pub bundle_text: String,
    /// The forensics diff as JSON (`postmortem.json`).
    pub postmortem_json: String,
    /// The forensics diff as a human-readable report
    /// (`postmortem_report.txt`).
    pub postmortem_text: String,
}

/// Captures an incident bundle from the induced partition, proves its
/// integrity envelope, replays it and diffs it against the healthy
/// baseline.
pub fn run_postmortem(scale: Scale) -> PostmortemOutput {
    // 1. Capture: run the armed partition scenario and seal its seed.
    let spec = stress_spec(scale, "postmortem-incident", false);
    let config = health::config().with_postmortem_capture();
    let plan = partition_plan();
    let report = spec
        .build_scenario(config.clone(), Some(plan.clone()))
        .expect("postmortem scenario is valid")
        .run();
    let bundle = IncidentBundle::capture(spec, &config, Some(&plan), &report)
        .expect("the armed partition run captures an incident");
    let encoded = bundle.encode();

    // 2. Integrity: round-trip, then three deliberate corruptions.
    let decoded = IncidentBundle::decode(&encoded).expect("the encoded bundle decodes");
    let decode_round_trip = decoded == bundle;
    let reject_kind = |doc: &str| match IncidentBundle::decode(doc) {
        Ok(_) => String::new(),
        Err(e) => e.to_string(),
    };
    let bumped = encoded.replacen(
        &format!(" v{BUNDLE_VERSION}\n"),
        &format!(" v{}\n", BUNDLE_VERSION + 1),
        1,
    );
    let rejects_unknown_version = reject_kind(&bumped).contains("unknown bundle version");
    let rejects_truncation =
        reject_kind(&encoded[..encoded.len() - 10]).contains("truncated bundle");
    let rejects_tampering =
        reject_kind(&encoded.replacen("seed=42", "seed=43", 1)).contains("tampered bundle");

    // 3. Replay: the decoded bundle reproduces the captured run.
    let replay = decoded.replay().expect("the decoded bundle replays");

    // 4. Forensics: diff the replayed incident against the fault-stripped
    //    baseline.
    let baseline = bundle.execute(false).expect("the baseline runs");
    let postmortem = PostmortemAnalyzer::diff_reports(&bundle, &replay.report, &baseline);
    let alerts_fired = postmortem
        .alert_timeline
        .iter()
        .filter(|a| a.contains(":firing@"))
        .count();

    PostmortemOutput {
        trigger: bundle.trigger.trigger.clone(),
        trigger_epoch: bundle.trigger.epoch,
        trigger_detail: bundle.trigger.detail.clone(),
        incident_fingerprint: bundle.fingerprint,
        bundle_bytes: encoded.len(),
        bundle_hash: fnv32(encoded.as_bytes()),
        decode_round_trip,
        rejects_unknown_version,
        rejects_truncation,
        rejects_tampering,
        replay_fingerprint: replay.fingerprint,
        replay_verified: replay.verified(),
        postmortem_json: postmortem.render_json(),
        postmortem_text: postmortem.render_text(),
        postmortem,
        alerts_fired,
        bundle_text: encoded,
    }
}

impl PostmortemOutput {
    /// The whole report as a JSON document (`BENCH_postmortem.json`).
    pub fn document(&self) -> Json {
        let p = &self.postmortem;
        let divergence = p
            .replicas
            .iter()
            .map(|r| {
                format!(
                    "r{}:acks{}/{}:lag{}/{}:retries{}/{}",
                    r.replica,
                    r.incident_acks,
                    r.baseline_acks,
                    r.incident_lag,
                    r.baseline_lag,
                    r.incident_retries,
                    r.baseline_retries
                )
            })
            .collect::<Vec<_>>()
            .join("|");
        let capture = obj([
            ("trigger", self.trigger.as_str().into()),
            ("trigger_epoch", self.trigger_epoch.into()),
            ("fingerprint", hex64(self.incident_fingerprint)),
            ("bundle_bytes", self.bundle_bytes.into()),
            ("bundle_hash", hex32(self.bundle_hash)),
        ]);
        let integrity = obj([
            ("decode_round_trip", self.decode_round_trip.into()),
            (
                "rejects_unknown_version",
                self.rejects_unknown_version.into(),
            ),
            ("rejects_truncation", self.rejects_truncation.into()),
            ("rejects_tampering", self.rejects_tampering.into()),
        ]);
        let replay = obj([
            ("fingerprint", hex64(self.replay_fingerprint)),
            ("verified", self.replay_verified.into()),
        ]);
        let forensics = obj([
            ("baseline_fingerprint", hex64(p.baseline_fingerprint)),
            ("fingerprint_reproduced", p.fingerprint_reproduced.into()),
            ("dominant_stage_incident", p.dominant_stage_incident.into()),
            ("dominant_stage_baseline", p.dominant_stage_baseline.into()),
            ("critical_path_shifted", p.critical_path_shifted.into()),
            ("divergence", divergence.into()),
            ("incident_checkpoints", p.incident_checkpoints.into()),
            ("baseline_checkpoints", p.baseline_checkpoints.into()),
            ("aborted_epochs", p.aborted_epochs.into()),
            ("throughput_delta_pct", fixed(p.throughput_delta_pct, 3)),
            ("alerts_fired", self.alerts_fired.into()),
            ("alert_timeline", p.alert_timeline.join("|").into()),
            ("baseline_alerts", p.baseline_alerts.len().into()),
        ]);
        obj([
            ("experiment", "postmortem".into()),
            ("plan_seed", PLAN_SEED.into()),
            ("run_seed", RUN_SEED.into()),
            ("replicas", REPLICAS.into()),
            ("quorum", QUORUM.into()),
            ("capture", capture),
            ("integrity", integrity),
            ("replay", replay),
            ("forensics", forensics),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_replay_and_forensics_pin_the_whole_arc() {
        let out = run_postmortem(Scale::Quick);

        // Capture: the partition's first page is the trigger.
        assert_eq!(out.trigger, "alert", "{}", out.trigger_detail);
        assert!(out.bundle_bytes > 0);
        assert_eq!(fnv32(out.bundle_text.as_bytes()), out.bundle_hash);

        // Integrity: round-trip holds, every corruption is rejected.
        assert!(out.decode_round_trip);
        assert!(out.rejects_unknown_version);
        assert!(out.rejects_truncation);
        assert!(out.rejects_tampering);

        // Replay: byte-identical reproduction.
        assert!(out.replay_verified);
        assert_eq!(out.replay_fingerprint, out.incident_fingerprint);

        // Forensics: the diff attributes the fault to the partitioned
        // replica and the baseline stays quiet.
        let p = &out.postmortem;
        assert!(p.fingerprint_reproduced);
        assert_ne!(p.incident_fingerprint, p.baseline_fingerprint);
        let r2 = &p.replicas[health::PARTITIONED_REPLICA as usize];
        assert!(
            r2.incident_retries > r2.baseline_retries,
            "incident {} vs baseline {} retries",
            r2.incident_retries,
            r2.baseline_retries
        );
        assert!(r2.incident_acks < r2.baseline_acks);
        assert!(out.alerts_fired >= 2, "{}", p.alert_timeline.join("|"));
        assert!(p.baseline_alerts.is_empty());

        // The artifacts carry the same content the summary hashed, and
        // the gate document carries only deterministic keys.
        assert!(out
            .bundle_text
            .starts_with(&format!("HEREBUNDLE v{BUNDLE_VERSION}\n")));
        assert!(out.postmortem_json.contains("\"trigger\": \"alert\""));
        assert!(out.postmortem_text.contains("POSTMORTEM"));
        let doc = out.document();
        crate::gate::tests::assert_baseline("postmortem", &doc);
        assert_eq!(
            doc.get("replay").and_then(|r| r.get("verified")),
            Some(&true.into())
        );
    }
}
