//! The postmortem-plane experiment (`repro postmortem`).
//!
//! Pins the whole capture → replay → forensics arc on one induced
//! incident, all in simulated time so the gate compares every number
//! exactly:
//!
//! 1. **Capture.** The health experiment's sustained partition of
//!    replica 2 re-runs with [`postmortem capture`] armed; the first
//!    `quorum_at_risk`/`stale_replica` page freezes an
//!    [`IncidentBundle`] — config, seeds, fault plan, ledger, flight
//!    recorder, spans, health tails — behind a checksummed, versioned
//!    header.
//! 2. **Integrity.** The encoded bundle must round-trip through
//!    [`IncidentBundle::decode`] unchanged, and strict decoding must
//!    reject a version bump, a truncation and a same-length bit flip.
//! 3. **Replay.** Re-executing the decoded bundle must reproduce the
//!    captured run's [`RunReport::fingerprint`], alert log and
//!    unresolved alerts byte for byte — the bundle is a one-file repro.
//! 4. **Forensics.** [`PostmortemAnalyzer`] re-runs the same seed with
//!    the fault plan stripped and diffs incident vs. healthy baseline:
//!    per-stage time deltas, critical-path shift, per-replica ack/retry
//!    divergence and the reconstructed alert timeline
//!    (`postmortem.json` + human-readable report).
//!
//! [`postmortem capture`]: here_core::ReplicationConfig::postmortem_capture
//! [`RunReport::fingerprint`]: here_core::RunReport::fingerprint

use here_core::{
    FanoutMode, FaultPlan, IncidentBundle, PostmortemAnalyzer, PostmortemReport, ReplicationConfig,
    ScenarioSpec, TopologyConfig, WorkloadSpec, BUNDLE_VERSION,
};
use here_sim_core::time::SimDuration;
use here_vmstate::wire::fnv32;

use super::health::{
    PARTITIONED_REPLICA, PARTITION_ATTEMPTS_DOWN, PARTITION_FIRST, PARTITION_LAST, PLAN_SEED,
    QUORUM, REPLICAS, RUN_SEED, STALE_EPOCH_LAG,
};
use super::Scale;

/// Everything `repro postmortem` reports.
#[derive(Debug, Clone)]
pub struct PostmortemOutput {
    /// Seed of the fault plan ([`PLAN_SEED`]).
    pub plan_seed: u64,
    /// Seed of the scenario run ([`RUN_SEED`]).
    pub run_seed: u64,
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
    /// True when the replay reproduced fingerprint, alert log and
    /// unresolved alerts byte for byte.
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
    /// The whole report as a JSON document (`BENCH_postmortem.json`).
    pub json: String,
}

fn scale_params(scale: Scale) -> (u64, u64) {
    // (VM memory MiB, scenario seconds) — the health experiment's sizing,
    // so the incident arc is the one `repro health` already pins.
    match scale {
        Scale::Paper => (128, 60),
        Scale::Quick => (64, 30),
    }
}

/// The incident's schedule: replica 2's link stays down past the retry
/// budget for every epoch of the span (the health experiment's plan).
fn partition_plan() -> FaultPlan {
    FaultPlan::new(PLAN_SEED).with_partition_span(
        PARTITION_FIRST..=PARTITION_LAST,
        &[PARTITIONED_REPLICA],
        PARTITION_ATTEMPTS_DOWN,
    )
}

fn config() -> ReplicationConfig {
    ReplicationConfig::fixed_period(SimDuration::from_secs(2))
        .with_topology(TopologyConfig {
            replicas: REPLICAS,
            quorum: QUORUM,
            fanout: FanoutMode::Star,
            stale_epoch_lag: STALE_EPOCH_LAG,
        })
        .with_health_plane()
        .with_postmortem_capture()
}

fn spec(scale: Scale) -> ScenarioSpec {
    let (mem_mib, secs) = scale_params(scale);
    ScenarioSpec {
        name: "postmortem-incident".to_string(),
        memory_mib: mem_mib,
        vcpus: 4,
        workload: WorkloadSpec::MemStress {
            percent: 30,
            rate: 20_000,
        },
        duration: SimDuration::from_secs(secs),
        seed: RUN_SEED,
        verify_consistency: false,
    }
}

/// Captures an incident bundle from the induced partition, proves its
/// integrity envelope, replays it and diffs it against the healthy
/// baseline.
pub fn run_postmortem(scale: Scale) -> PostmortemOutput {
    // 1. Capture: run the armed partition scenario and freeze the bundle.
    let spec = spec(scale);
    let config = config();
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

    // 4. Forensics: diff the incident against the fault-stripped
    //    baseline.
    let postmortem = PostmortemAnalyzer::diff(&bundle).expect("the bundle diffs");
    let alerts_fired = postmortem
        .alert_timeline
        .iter()
        .filter(|a| a.contains(":firing@"))
        .count();

    let mut out = PostmortemOutput {
        plan_seed: PLAN_SEED,
        run_seed: RUN_SEED,
        trigger: bundle.incident.trigger.clone(),
        trigger_epoch: bundle.incident.epoch,
        trigger_detail: bundle.incident.detail.clone(),
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
        json: String::new(),
    };
    out.json = render_json(&out);
    out
}

fn render_json(o: &PostmortemOutput) -> String {
    let p = &o.postmortem;
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
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"postmortem\",\n");
    out.push_str(&format!("  \"plan_seed\": {},\n", o.plan_seed));
    out.push_str(&format!("  \"run_seed\": {},\n", o.run_seed));
    out.push_str(&format!("  \"replicas\": {REPLICAS},\n"));
    out.push_str(&format!("  \"quorum\": {QUORUM},\n"));
    out.push_str("  \"capture\": {\n");
    out.push_str(&format!("    \"trigger\": \"{}\",\n", o.trigger));
    out.push_str(&format!("    \"trigger_epoch\": {},\n", o.trigger_epoch));
    out.push_str(&format!(
        "    \"fingerprint\": \"0x{:016x}\",\n",
        o.incident_fingerprint
    ));
    out.push_str(&format!("    \"bundle_bytes\": {},\n", o.bundle_bytes));
    out.push_str(&format!(
        "    \"bundle_hash\": \"0x{:08x}\"\n",
        o.bundle_hash
    ));
    out.push_str("  },\n");
    out.push_str("  \"integrity\": {\n");
    out.push_str(&format!(
        "    \"decode_round_trip\": {},\n",
        o.decode_round_trip
    ));
    out.push_str(&format!(
        "    \"rejects_unknown_version\": {},\n",
        o.rejects_unknown_version
    ));
    out.push_str(&format!(
        "    \"rejects_truncation\": {},\n",
        o.rejects_truncation
    ));
    out.push_str(&format!(
        "    \"rejects_tampering\": {}\n",
        o.rejects_tampering
    ));
    out.push_str("  },\n");
    out.push_str("  \"replay\": {\n");
    out.push_str(&format!(
        "    \"fingerprint\": \"0x{:016x}\",\n",
        o.replay_fingerprint
    ));
    out.push_str(&format!("    \"verified\": {}\n", o.replay_verified));
    out.push_str("  },\n");
    out.push_str("  \"forensics\": {\n");
    out.push_str(&format!(
        "    \"baseline_fingerprint\": \"0x{:016x}\",\n",
        p.baseline_fingerprint
    ));
    out.push_str(&format!(
        "    \"fingerprint_reproduced\": {},\n",
        p.fingerprint_reproduced
    ));
    out.push_str(&format!(
        "    \"dominant_stage_incident\": \"{}\",\n",
        p.dominant_stage_incident
    ));
    out.push_str(&format!(
        "    \"dominant_stage_baseline\": \"{}\",\n",
        p.dominant_stage_baseline
    ));
    out.push_str(&format!(
        "    \"critical_path_shifted\": {},\n",
        p.critical_path_shifted
    ));
    out.push_str(&format!("    \"divergence\": \"{divergence}\",\n"));
    out.push_str(&format!(
        "    \"incident_checkpoints\": {},\n",
        p.incident_checkpoints
    ));
    out.push_str(&format!(
        "    \"baseline_checkpoints\": {},\n",
        p.baseline_checkpoints
    ));
    out.push_str(&format!("    \"aborted_epochs\": {},\n", p.aborted_epochs));
    out.push_str(&format!(
        "    \"throughput_delta_pct\": {:.3},\n",
        p.throughput_delta_pct
    ));
    out.push_str(&format!("    \"alerts_fired\": {},\n", o.alerts_fired));
    out.push_str(&format!(
        "    \"alert_timeline\": \"{}\",\n",
        p.alert_timeline.join("|")
    ));
    out.push_str(&format!(
        "    \"baseline_alerts\": {}\n",
        p.baseline_alerts.len()
    ));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_replay_and_forensics_pin_the_whole_arc() {
        let out = run_postmortem(Scale::Quick);

        // Capture: the partition's first page froze the bundle.
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
        let r2 = &p.replicas[PARTITIONED_REPLICA as usize];
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
        assert!(out.json.contains("\"replay\""));
        assert!(!out.json.contains("wall"));
    }
}
