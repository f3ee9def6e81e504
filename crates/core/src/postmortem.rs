//! The postmortem plane: deterministic incident capture and bundle replay.
//!
//! When a run arms [`ReplicationConfig::postmortem_capture`]
//! (crate::config::ReplicationConfig::postmortem_capture), the capture
//! fold of [`crate::telemetry`] keeps the first event that is a trigger —
//! an alert raised, a failover, an epoch abort, or (when nothing fires)
//! the end of the run — as an [`IncidentTrigger`]: what fired, and the
//! index of that event in the run's log.
//!
//! Everything else about the incident is derived. The planes are folds
//! over the log, so [`IncidentSnapshot::at`] folds them over the log up
//! to the trigger: the trailing flight-recorder window, the commit ledger
//! and per-replica acks, the enclosing epoch's span subtree, the health
//! transitions and windowed-series tail, as they stood at that event.
//!
//! [`IncidentBundle`] is therefore a seed: the scenario parameters
//! ([`ScenarioSpec`]), the full [`ReplicationConfig`], the active
//! [`FaultPlan`], the run's [`RunReport::fingerprint`] and the trigger.
//! Every run is seed-deterministic in virtual time, so that *is* the
//! repro. The bundle serializes to a self-describing, versioned text
//! document with a checksummed header ([`IncidentBundle::encode`]);
//! decoding is strict — an unknown version, a truncated payload or a
//! tampered byte is rejected, never silently accepted
//! ([`IncidentBundle::decode`]). [`IncidentBundle::replay`] re-executes the
//! run from the bundle alone, checks its fingerprint and trigger, and
//! derives the snapshot from the regenerated log. The differential side —
//! re-running the same seed with the fault plan stripped and diffing
//! incident against healthy baseline — lives in
//! [`PostmortemAnalyzer`](crate::analyze::PostmortemAnalyzer).

use serde::{Deserialize, Serialize};

use here_sim_core::time::SimDuration;
use here_vmstate::wire::fnv32;
use here_workloads::idle::IdleGuest;
use here_workloads::memstress::MemStress;
use here_workloads::traits::Workload;

use crate::chaos::{FaultEvent, FaultKind, FaultPlan, FaultTrigger};
use crate::config::{
    CostModel, FanoutMode, PeriodPolicy, ReplicationConfig, Strategy, TopologyConfig,
};
use crate::engine::Scenario;
use crate::error::{CoreError, CoreResult};
use crate::failover::{CommitEntry, CommitLedger, ReplicaAcks};
use crate::report::RunReport;
use crate::trace::{SessionEvent, Stage};

use here_hypervisor::fault::DosOutcome;

/// Bundle format magic (first header line starts with this).
pub const BUNDLE_MAGIC: &str = "HEREBUNDLE";

/// Bundle format version this build writes and accepts (3: the bundle
/// carries the trigger, not a rendered snapshot; 4: the config lines drop
/// `heartbeat` and `retry`, which are constants, not settings).
pub const BUNDLE_VERSION: u32 = 4;

/// Lines of the windowed-series JSONL export the snapshot retains (the
/// *tail* — the newest windows at capture time).
pub const SERIES_TAIL_LINES: usize = 32;

/// Normalizes the host-noise values out of a flight-recorder dump — the
/// same keys the bench gate ignores: wall-clock stamps and the
/// lane pool's scheduler-timing diagnostics. Everything else in
/// the dump is virtual time, so with these neutralized the captured dump
/// (and with it the whole encoded bundle) is byte-identical across hosts
/// and runs.
fn normalize_flight_dump(json: &str) -> String {
    let mut out = json.to_string();
    for (key, neutral) in [
        ("\"wall_nanos\":", "null"),
        ("\"steals\":", "0"),
        ("\"occupancy_pct\":", "0.0"),
    ] {
        out = neutralize_values(&out, key, neutral);
    }
    out
}

/// Replaces the numeric value after every occurrence of `key` with
/// `neutral` (non-numeric values, like an already-`null` stamp, pass
/// through untouched).
fn neutralize_values(json: &str, key: &str, neutral: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = rest.find(key) {
        let after = pos + key.len();
        out.push_str(&rest[..after]);
        rest = &rest[after..];
        let n = rest
            .bytes()
            .take_while(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-'))
            .count();
        if n > 0 {
            out.push_str(neutral);
            rest = &rest[n..];
        }
    }
    out.push_str(rest);
    out
}

/// The workload half of a [`ScenarioSpec`] — only workloads the bundle
/// can reconstruct byte-identically are capturable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The idle guest (background dirtying only).
    Idle,
    /// [`MemStress`] touching `percent` % of memory at `rate` pages/s.
    MemStress {
        /// Memory percentage the stressor walks (1..=100).
        percent: u8,
        /// Page writes per second.
        rate: u64,
    },
}

impl WorkloadSpec {
    /// Builds the live workload this spec describes.
    pub fn build(&self) -> Box<dyn Workload> {
        match *self {
            WorkloadSpec::Idle => Box::new(IdleGuest::new()),
            WorkloadSpec::MemStress { percent, rate } => {
                Box::new(MemStress::with_percent(percent).with_rate(rate))
            }
        }
    }
}

/// Everything needed to rebuild the captured run's [`Scenario`] — the
/// builder knobs the run was constructed with. The replication config and
/// fault plan ride separately in the bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (part of the fingerprint).
    pub name: String,
    /// Protected VM memory in MiB.
    pub memory_mib: u64,
    /// Protected VM vCPU count.
    pub vcpus: u32,
    /// The workload, in reconstructible form.
    pub workload: WorkloadSpec,
    /// Scenario duration.
    pub duration: SimDuration,
    /// Run seed (workload RNG stream).
    pub seed: u64,
    /// Whether the run verified replica/primary equality each checkpoint.
    pub verify_consistency: bool,
}

impl ScenarioSpec {
    /// Rebuilds the scenario this spec plus `config` and `plan` describe.
    pub fn build_scenario(
        &self,
        config: ReplicationConfig,
        plan: Option<FaultPlan>,
    ) -> CoreResult<Scenario> {
        let mut builder = Scenario::builder()
            .name(&self.name)
            .vm_memory_mib(self.memory_mib)
            .vcpus(self.vcpus)
            .workload(self.workload.build())
            .config(config)
            .duration(self.duration)
            .seed(self.seed);
        if let Some(plan) = plan {
            builder = builder.chaos(plan);
        }
        if self.verify_consistency {
            builder = builder.verify_consistency();
        }
        builder.build()
    }
}

/// The first capture trigger of an armed run; rides in
/// [`RunReport::incident`]. Excluded from [`RunReport::fingerprint`] (like
/// telemetry), so arming capture never perturbs a run's identity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncidentTrigger {
    /// What fired: `alert`, `failover`, `epoch_abort` or `request`.
    pub trigger: String,
    /// Epoch the trigger fired in.
    pub epoch: u64,
    /// Report-relative virtual instant of the trigger.
    pub at_nanos: u64,
    /// Human-readable trigger detail (alert rule, abort attempts, …).
    pub detail: String,
    /// Index in [`RunReport::events`] of the event whose fold fired it.
    pub event: usize,
}

/// The point-in-time observability capture at a trigger, derived from the
/// log by [`IncidentSnapshot::at`] and never stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentSnapshot {
    /// What fired: `alert`, `failover`, `epoch_abort` or `request`.
    pub trigger: String,
    /// Epoch the trigger fired in.
    pub epoch: u64,
    /// Report-relative virtual instant of the trigger.
    pub at_nanos: u64,
    /// Human-readable trigger detail (alert rule, abort attempts, …).
    pub detail: String,
    /// The trailing flight-recorder window at capture (JSON dump).
    pub flight_json: String,
    /// Committed epochs at capture, oldest first.
    pub commits: Vec<CommitEntry>,
    /// Per-replica ack trails at capture, in index order.
    pub acks: Vec<ReplicaAcks>,
    /// The enclosing span subtree at capture: every span of the trigger
    /// epoch plus the failover tree, rendered one line per span.
    pub spans: Vec<String>,
    /// Health transitions recorded so far, `rN:from->to@epoch`.
    pub transitions: Vec<String>,
    /// Tail of the windowed-series JSONL export at capture.
    pub series_tail: String,
    /// Alert rules firing at capture, in declaration order.
    pub active_alerts: Vec<String>,
    /// The ordered alert log at capture (JSONL).
    pub alert_log_jsonl: String,
}

impl IncidentSnapshot {
    /// The capture at `trigger` of a run configured as `cfg` that logged
    /// `events`: the planes folded ([`crate::telemetry::fold`]) over the log
    /// up to and including the event that fired it, and the ledger its
    /// acks imply. That is the trailing flight-recorder window, health
    /// transitions and windowed-series tail, the trigger epoch's span
    /// subtree (plus the failover tree), and the commits and per-replica
    /// ack trails — all as they stood at the trigger.
    ///
    /// # Panics
    ///
    /// When `trigger.event` is not an index of `events`.
    pub fn at(
        cfg: &ReplicationConfig,
        events: &[SessionEvent],
        trigger: &IncidentTrigger,
    ) -> IncidentSnapshot {
        let prefix = &events[..=trigger.event];
        let (telemetry, spans, _) = crate::telemetry::fold(cfg, prefix);
        let mut ledger = CommitLedger::with_quorum(
            cfg.topology.replicas.max(1),
            cfg.topology.effective_quorum(),
        );
        for event in prefix {
            if let SessionEvent::Ack { replica, seq, at } = *event {
                ledger.ack(replica, seq, at);
            }
        }
        let epoch = trigger.epoch;
        let (transitions, series_tail, active_alerts, alert_log_jsonl) = match telemetry.health {
            Some(h) => {
                let tail_start = h
                    .series_jsonl
                    .lines()
                    .count()
                    .saturating_sub(SERIES_TAIL_LINES);
                let tail = h
                    .series_jsonl
                    .lines()
                    .skip(tail_start)
                    .map(|l| format!("{l}\n"))
                    .collect::<String>();
                let transitions = h
                    .transitions
                    .iter()
                    .map(|t| {
                        format!(
                            "r{}:{}->{}@{}",
                            t.replica,
                            t.from.label(),
                            t.to.label(),
                            t.epoch
                        )
                    })
                    .collect();
                let alert_log_jsonl = h.alert_log_jsonl();
                (transitions, tail, h.active_alerts, alert_log_jsonl)
            }
            None => (Vec::new(), String::new(), Vec::new(), String::new()),
        };
        let spans = spans
            .iter()
            .filter(|s| s.epoch == Some(epoch) || s.category == "failover")
            .map(|s| {
                format!(
                    "{}|{}|{}:{}|{}|{}|{}",
                    s.name,
                    s.category,
                    s.track.pid(),
                    s.track.tid(),
                    s.epoch.map(|e| e.to_string()).unwrap_or_default(),
                    s.start_nanos,
                    s.duration_nanos
                )
            })
            .collect();
        IncidentSnapshot {
            trigger: trigger.trigger.clone(),
            epoch,
            at_nanos: trigger.at_nanos,
            detail: trigger.detail.clone(),
            flight_json: normalize_flight_dump(&telemetry.flight_recorder_json),
            commits: ledger.entries().to_vec(),
            acks: ledger
                .ack_trails()
                .iter()
                .enumerate()
                .map(|(i, acks)| ReplicaAcks {
                    replica: i as u32,
                    acks: acks.clone(),
                })
                .collect(),
            spans,
            transitions,
            series_tail,
            active_alerts,
            alert_log_jsonl,
        }
    }
}

/// Outcome of one [`IncidentBundle::replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Fingerprint of the re-executed run.
    pub fingerprint: u64,
    /// True when the rerun reproduced the bundled fingerprint.
    pub fingerprint_matches: bool,
    /// True when the rerun's capture fired the bundled trigger, at the
    /// same event of its log.
    pub trigger_matches: bool,
    /// The incident derived from the rerun's log at its own trigger
    /// (`None` when the rerun captured nothing).
    pub snapshot: Option<IncidentSnapshot>,
    /// The re-executed run's full report.
    pub report: RunReport,
}

impl ReplayOutcome {
    /// True when every replay assertion held.
    pub fn verified(&self) -> bool {
        self.fingerprint_matches && self.trigger_matches
    }
}

/// A self-describing, versioned, checksummed incident capture — the
/// one-file repro of a run that paged, failed over or aborted an epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentBundle {
    /// The captured run's scenario parameters.
    pub spec: ScenarioSpec,
    /// The captured run's full replication config.
    pub config: ReplicationConfig,
    /// The fault plan that was armed, if any.
    pub plan: Option<FaultPlan>,
    /// The captured run's [`RunReport::fingerprint`].
    pub fingerprint: u64,
    /// What fired the capture, and where in the run's log.
    pub trigger: IncidentTrigger,
}

impl IncidentBundle {
    /// Assembles the bundle for a finished `report` of the run `spec`,
    /// `config` and `plan` describe. Fails when the run captured no
    /// incident (capture was not armed).
    pub fn capture(
        spec: ScenarioSpec,
        config: &ReplicationConfig,
        plan: Option<&FaultPlan>,
        report: &RunReport,
    ) -> CoreResult<IncidentBundle> {
        let trigger = report.incident.clone().ok_or_else(|| {
            bundle_err("the run captured no incident (arm ReplicationConfig::postmortem_capture)")
        })?;
        Ok(IncidentBundle {
            spec,
            config: config.clone(),
            plan: plan.cloned(),
            fingerprint: report.fingerprint(),
            trigger,
        })
    }

    /// Re-executes the captured run: `with_plan` keeps the fault plan
    /// (the incident), `false` strips it (the healthy baseline the
    /// differential analyzer diffs against).
    pub fn execute(&self, with_plan: bool) -> CoreResult<RunReport> {
        let plan = if with_plan { self.plan.clone() } else { None };
        Ok(self.spec.build_scenario(self.config.clone(), plan)?.run())
    }

    /// Replays the bundle — rebuilds the session from the bundle alone,
    /// re-executes it, checks the fingerprint and the trigger, and derives
    /// the incident snapshot from the regenerated log. The bundle *is* the
    /// repro.
    pub fn replay(&self) -> CoreResult<ReplayOutcome> {
        let report = self.execute(true)?;
        let fingerprint = report.fingerprint();
        let snapshot = report
            .incident
            .as_ref()
            .map(|trigger| IncidentSnapshot::at(&self.config, &report.events, trigger));
        Ok(ReplayOutcome {
            fingerprint,
            fingerprint_matches: fingerprint == self.fingerprint,
            trigger_matches: report.incident.as_ref() == Some(&self.trigger),
            snapshot,
            report,
        })
    }

    /// Serializes the bundle: a three-line checksummed header (magic +
    /// version, payload length, payload FNV-32), a `---` separator, and
    /// the line-oriented payload. Everything a decoder needs to validate
    /// the document is in the header.
    pub fn encode(&self) -> String {
        let mut payload = String::new();
        self.clone()
            .walk(&mut Walk::Write(&mut payload))
            .expect("the write direction has no failing step");
        seal(&payload)
    }

    /// Strictly decodes a bundle document: the magic and version must
    /// match ([`BUNDLE_VERSION`]), the payload length must equal the
    /// header's `len` (truncation), the payload FNV-32 must equal the
    /// header's `crc` (tampering), every payload line must appear, in
    /// order, and parse, and re-encoding the result must give `doc` back
    /// byte for byte. Anything else is an error, never a partial bundle.
    pub fn decode(doc: &str) -> CoreResult<IncidentBundle> {
        let mut lines = doc.splitn(4, '\n');
        let magic = lines.next().unwrap_or("");
        let len_line = lines.next().unwrap_or("");
        let crc_line = lines.next().unwrap_or("");
        let rest = lines.next().unwrap_or("");
        let version = magic
            .strip_prefix(BUNDLE_MAGIC)
            .and_then(|v| v.trim().strip_prefix('v'))
            .ok_or_else(|| bundle_err("not an incident bundle (bad magic)"))?;
        let version: u32 = version
            .parse()
            .map_err(|_| bundle_err("unparseable bundle version"))?;
        if version != BUNDLE_VERSION {
            return Err(bundle_err(&format!(
                "unknown bundle version v{version} (this build reads v{BUNDLE_VERSION})"
            )));
        }
        let want_len: usize = len_line
            .strip_prefix("len=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bundle_err("malformed len header"))?;
        let want_crc = crc_line
            .strip_prefix("crc=0x")
            .and_then(|v| u32::from_str_radix(v, 16).ok())
            .ok_or_else(|| bundle_err("malformed crc header"))?;
        let payload = rest
            .strip_prefix("---\n")
            .ok_or_else(|| bundle_err("missing payload separator"))?;
        if payload.len() != want_len {
            return Err(bundle_err(&format!(
                "truncated bundle: header says {want_len} payload bytes, found {}",
                payload.len()
            )));
        }
        let crc = fnv32(payload.as_bytes());
        if crc != want_crc {
            return Err(bundle_err(&format!(
                "tampered bundle: payload crc 0x{crc:08x}, header says 0x{want_crc:08x}"
            )));
        }
        let mut bundle = IncidentBundle::blank();
        let mut lines = payload.lines();
        bundle.walk(&mut Walk::Read(&mut lines))?;
        if let Some(line) = lines.next() {
            return Err(bundle_err(&format!("unexpected trailing line {line:?}")));
        }
        // A zero-padded number, an upper-case hex digit or a `\r\n` line
        // end would parse above; only the document `encode` writes is one.
        if bundle.encode() != doc {
            return Err(bundle_err("not the canonical encoding of its content"));
        }
        Ok(bundle)
    }

    /// The payload grammar, named once: every line of the document in
    /// order, written from `self` or read into it depending on the
    /// direction of `w`. A line exists in the format exactly when it is
    /// named here, so the encoder and the decoder cannot disagree.
    fn walk(&mut self, w: &mut Walk<'_, '_>) -> CoreResult<()> {
        let spec = &mut self.spec;
        w.leaf("name", &mut spec.name)?;
        w.leaf("memory_mib", &mut spec.memory_mib)?;
        w.leaf("vcpus", &mut spec.vcpus)?;
        w.leaf("workload", &mut spec.workload)?;
        w.leaf("duration_nanos", &mut spec.duration)?;
        w.leaf("seed", &mut spec.seed)?;
        w.leaf("verify_consistency", &mut spec.verify_consistency)?;

        let c = &mut self.config;
        w.leaf("strategy", &mut c.strategy)?;
        w.leaf("period", &mut c.period)?;
        w.leaf("costs", &mut c.costs)?;
        w.leaf("topology", &mut c.topology)?;
        w.leaf("encode_chunk_pages", &mut c.encode_chunk_pages)?;
        w.leaf("overlap_transfer", &mut c.overlap_transfer)?;
        w.leaf("health_plane", &mut c.health_plane)?;
        w.leaf("postmortem_capture", &mut c.postmortem_capture)?;
        let mut wire = (c.wire_version, c.replica_wire_caps.take());
        w.leaf("wire", &mut wire)?;
        (c.wire_version, c.replica_wire_caps) = wire;

        let mut plan_seed = self.plan.as_ref().map(|plan| plan.seed);
        w.leaf("plan", &mut plan_seed)?;
        if let Some(seed) = plan_seed {
            let plan = self.plan.get_or_insert_with(|| FaultPlan::new(seed));
            w.list("plan_events", "event", &mut plan.events)?;
        }

        let mut fingerprint = Hex(self.fingerprint);
        w.leaf("fingerprint", &mut fingerprint)?;
        self.fingerprint = fingerprint.0;

        let t = &mut self.trigger;
        w.leaf("trigger", &mut t.trigger)?;
        w.leaf("trigger_epoch", &mut t.epoch)?;
        w.leaf("trigger_at_nanos", &mut t.at_nanos)?;
        w.leaf("trigger_detail", &mut t.detail)?;
        w.leaf("trigger_event", &mut t.event)
    }

    /// What [`IncidentBundle::decode`] reads into: every line of the walk
    /// overwrites its field, so no value here survives a decode.
    fn blank() -> IncidentBundle {
        IncidentBundle {
            spec: ScenarioSpec {
                name: String::new(),
                memory_mib: 0,
                vcpus: 0,
                workload: WorkloadSpec::Idle,
                duration: SimDuration::ZERO,
                seed: 0,
                verify_consistency: false,
            },
            config: ReplicationConfig::fixed_period(SimDuration::ZERO),
            plan: None,
            fingerprint: 0,
            trigger: IncidentTrigger {
                trigger: String::new(),
                epoch: 0,
                at_nanos: 0,
                detail: String::new(),
                event: 0,
            },
        }
    }
}

/// Puts the header in front of a payload.
fn seal(payload: &str) -> String {
    format!(
        "{BUNDLE_MAGIC} v{BUNDLE_VERSION}\nlen={}\ncrc=0x{:08x}\n---\n{payload}",
        payload.len(),
        fnv32(payload.as_bytes()),
    )
}

/// One pass over the payload in one of two directions: appending
/// `key=value` lines to a document, or consuming them from one. The read
/// direction is strictly sequential: every line must appear where the
/// walk names it — a missing, reordered or extra line is a decode error,
/// not a silently defaulted field, and no line is optional.
enum Walk<'a, 'p> {
    Write(&'a mut String),
    Read(&'a mut std::str::Lines<'p>),
}

impl Walk<'_, '_> {
    /// One `key=value` line.
    fn leaf<T: Leaf>(&mut self, key: &str, value: &mut T) -> CoreResult<()> {
        match self {
            Walk::Write(out) => {
                out.push_str(key);
                out.push('=');
                out.push_str(&value.show());
                out.push('\n');
            }
            Walk::Read(lines) => *value = read_line(lines, key)?,
        }
        Ok(())
    }

    /// A counted list: one `count_key=<n>` line, then `n` `item_key=`
    /// lines.
    fn list<T: Leaf>(
        &mut self,
        count_key: &str,
        item_key: &str,
        items: &mut Vec<T>,
    ) -> CoreResult<()> {
        let mut count = items.len();
        self.leaf(count_key, &mut count)?;
        if let Walk::Read(lines) = self {
            // Every item is a line of its own, so a count the document
            // cannot hold is refused before it sizes anything.
            if lines.clone().take(count).count() < count {
                return Err(bundle_err(&format!(
                    "{count_key:?} claims {count} items, fewer lines are left"
                )));
            }
            *items = (0..count)
                .map(|_| read_line(lines, item_key))
                .collect::<CoreResult<_>>()?;
            return Ok(());
        }
        items
            .iter_mut()
            .try_for_each(|item| self.leaf(item_key, item))
    }
}

/// Takes the next line, which must be `key=…`, and parses its value.
fn read_line<T: Leaf>(lines: &mut std::str::Lines<'_>, key: &str) -> CoreResult<T> {
    let line = lines
        .next()
        .ok_or_else(|| bundle_err(&format!("bundle ends before field {key:?}")))?;
    let value = line
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| bundle_err(&format!("unexpected line {line:?} (wanted field {key:?})")))?;
    T::read(value).map_err(|why| bundle_err(&format!("field {key:?}: {why}")))
}

/// Why a value failed to parse; [`read_line`] adds the field name.
type Parsed<T> = Result<T, String>;

/// A value that fills one bundle line, or one `:`-separated part of a
/// line: how it is written and, next to it, how it is read back.
trait Leaf: Sized {
    fn show(&self) -> String;
    fn read(s: &str) -> Parsed<Self>;
}

/// Leaves whose bundle syntax is their `Display`/`FromStr`.
trait Plain: std::fmt::Display + std::str::FromStr {}
impl Plain for u8 {}
impl Plain for u16 {}
impl Plain for u32 {}
impl Plain for u64 {}
impl Plain for usize {}
impl Plain for bool {}

impl<T: Plain> Leaf for T {
    fn show(&self) -> String {
        self.to_string()
    }
    fn read(s: &str) -> Parsed<Self> {
        s.parse().map_err(|_| format!("unparseable value {s:?}"))
    }
}

/// Splits a composite line into exactly `N` `:`-separated parts.
fn parts<const N: usize>(s: &str) -> Parsed<[&str; N]> {
    let found: Vec<&str> = s.split(':').collect();
    found
        .try_into()
        .map_err(|found: Vec<&str>| format!("wants {N} parts, got {}", found.len()))
}

/// Reads a `,`-separated list; the empty string is the empty list.
fn commas<T>(s: &str, item: impl Fn(&str) -> Parsed<T>) -> Parsed<Vec<T>> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(item).collect()
}

/// Text escaped onto one line: `\` → `\\`, newline → `\n`, carriage
/// return → `\r`. Reading rejects a dangling or unknown escape.
impl Leaf for String {
    fn show(&self) -> String {
        let mut out = String::with_capacity(self.len());
        for c in self.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out
    }
    fn read(s: &str) -> Parsed<Self> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                other => {
                    return Err(format!(
                        "invalid escape sequence \\{}",
                        other.map(String::from).unwrap_or_default()
                    ))
                }
            }
        }
        Ok(out)
    }
}

/// `none`, or the value.
impl<T: Leaf> Leaf for Option<T> {
    fn show(&self) -> String {
        self.as_ref().map_or_else(|| "none".to_string(), T::show)
    }
    fn read(s: &str) -> Parsed<Self> {
        if s == "none" {
            Ok(None)
        } else {
            T::read(s).map(Some)
        }
    }
}

/// A `u64` as `0x` and sixteen hex digits: the run fingerprint and, as
/// its bit pattern, every `f64` (so no decimal rounding can creep in).
struct Hex(u64);

impl Leaf for Hex {
    fn show(&self) -> String {
        format!("0x{:016x}", self.0)
    }
    fn read(s: &str) -> Parsed<Self> {
        s.strip_prefix("0x")
            .and_then(|digits| u64::from_str_radix(digits, 16).ok())
            .map(Hex)
            .ok_or_else(|| format!("unparseable hex value {s:?}"))
    }
}

impl Leaf for f64 {
    fn show(&self) -> String {
        Hex(self.to_bits()).show()
    }
    fn read(s: &str) -> Parsed<Self> {
        Hex::read(s).map(|bits| f64::from_bits(bits.0))
    }
}

/// Virtual durations are whole nanoseconds.
impl Leaf for SimDuration {
    fn show(&self) -> String {
        self.as_nanos().show()
    }
    fn read(s: &str) -> Parsed<Self> {
        u64::read(s).map(SimDuration::from_nanos)
    }
}

impl Leaf for WorkloadSpec {
    fn show(&self) -> String {
        match *self {
            WorkloadSpec::Idle => "idle".to_string(),
            WorkloadSpec::MemStress { percent, rate } => format!("memstress:{percent}:{rate}"),
        }
    }
    fn read(s: &str) -> Parsed<Self> {
        if s == "idle" {
            return Ok(WorkloadSpec::Idle);
        }
        let spec = s.strip_prefix("memstress:");
        let [percent, rate] = parts(spec.ok_or_else(|| format!("unknown workload {s:?}"))?)?;
        Ok(WorkloadSpec::MemStress {
            percent: Leaf::read(percent)?,
            rate: Leaf::read(rate)?,
        })
    }
}

impl Leaf for Strategy {
    fn show(&self) -> String {
        match self {
            Strategy::Here => "here".to_string(),
            Strategy::Remus => "remus".to_string(),
        }
    }
    fn read(s: &str) -> Parsed<Self> {
        match s {
            "here" => Ok(Strategy::Here),
            "remus" => Ok(Strategy::Remus),
            other => Err(format!("unknown strategy {other:?}")),
        }
    }
}

impl Leaf for PeriodPolicy {
    fn show(&self) -> String {
        match *self {
            PeriodPolicy::Fixed(t) => format!("fixed:{}", t.show()),
            PeriodPolicy::Dynamic {
                d_target,
                t_max,
                sigma,
            } => format!(
                "dynamic:{}:{}:{}",
                d_target.show(),
                t_max.show(),
                sigma.show()
            ),
        }
    }
    fn read(s: &str) -> Parsed<Self> {
        if let Some(t) = s.strip_prefix("fixed:") {
            return Ok(PeriodPolicy::Fixed(Leaf::read(t)?));
        }
        let dynamic = s.strip_prefix("dynamic:");
        let [d_target, t_max, sigma] = parts(dynamic.ok_or("unknown period policy")?)?;
        Ok(PeriodPolicy::Dynamic {
            d_target: Leaf::read(d_target)?,
            t_max: Leaf::read(t_max)?,
            sigma: Leaf::read(sigma)?,
        })
    }
}

impl Leaf for CostModel {
    fn show(&self) -> String {
        [
            self.migrate_scan_per_page.show(),
            self.migrate_wire_per_page.show(),
            self.checkpoint_cpu_per_page.show(),
            self.checkpoint_wire_per_page.show(),
            self.checkpoint_thread_overhead.show(),
            self.checkpoint_const.show(),
            self.remus_extra_const.show(),
            self.here_migration_setup.show(),
            self.parallel_efficiency.show(),
            self.migration_parallel_efficiency.show(),
            self.pause_disturbance.show(),
            self.device_switch.show(),
            self.state_load.show(),
            self.rss_base_mib.show(),
        ]
        .join(":")
    }
    fn read(s: &str) -> Parsed<Self> {
        let p: [&str; 14] = parts(s)?;
        Ok(CostModel {
            migrate_scan_per_page: Leaf::read(p[0])?,
            migrate_wire_per_page: Leaf::read(p[1])?,
            checkpoint_cpu_per_page: Leaf::read(p[2])?,
            checkpoint_wire_per_page: Leaf::read(p[3])?,
            checkpoint_thread_overhead: Leaf::read(p[4])?,
            checkpoint_const: Leaf::read(p[5])?,
            remus_extra_const: Leaf::read(p[6])?,
            here_migration_setup: Leaf::read(p[7])?,
            parallel_efficiency: Leaf::read(p[8])?,
            migration_parallel_efficiency: Leaf::read(p[9])?,
            pause_disturbance: Leaf::read(p[10])?,
            device_switch: Leaf::read(p[11])?,
            state_load: Leaf::read(p[12])?,
            rss_base_mib: Leaf::read(p[13])?,
        })
    }
}

impl Leaf for TopologyConfig {
    fn show(&self) -> String {
        let fanout = match self.fanout {
            FanoutMode::Star => "star",
            FanoutMode::Chain => "chain",
        };
        format!(
            "{}:{}:{fanout}:{}",
            self.replicas, self.quorum, self.stale_epoch_lag
        )
    }
    fn read(s: &str) -> Parsed<Self> {
        let [replicas, quorum, fanout, stale_epoch_lag] = parts(s)?;
        Ok(TopologyConfig {
            replicas: Leaf::read(replicas)?,
            quorum: Leaf::read(quorum)?,
            fanout: match fanout {
                "star" => FanoutMode::Star,
                "chain" => FanoutMode::Chain,
                other => return Err(format!("unknown fanout {other:?}")),
            },
            stale_epoch_lag: Leaf::read(stale_epoch_lag)?,
        })
    }
}

/// The wire negotiation, `offer:caps`: the offered version and the
/// per-replica capability ceilings (`none`, or a `,`-separated list).
impl Leaf for (u16, Option<Vec<u16>>) {
    fn show(&self) -> String {
        format!("{}:{}", self.0, self.1.show())
    }
    fn read(s: &str) -> Parsed<Self> {
        let [offer, caps] = parts(s)?;
        Ok((Leaf::read(offer)?, Leaf::read(caps)?))
    }
}

impl Leaf for Vec<u16> {
    fn show(&self) -> String {
        let caps: Vec<String> = self.iter().map(u16::show).collect();
        caps.join(",")
    }
    fn read(s: &str) -> Parsed<Self> {
        commas(s, u16::read)
    }
}

/// `trigger:replica:kind`, the trigger an epoch or `@` and the virtual
/// nanoseconds since measurement started; the kind keeps its own
/// `:`-separated fields. An event that can never fire is refused.
impl Leaf for FaultEvent {
    fn show(&self) -> String {
        let trigger = match self.trigger {
            FaultTrigger::Epoch(epoch) => epoch.show(),
            FaultTrigger::At(at) => format!("@{}", at.show()),
        };
        format!("{trigger}:{}:{}", self.replica, self.kind.show())
    }
    fn read(s: &str) -> Parsed<Self> {
        let mut it = s.splitn(3, ':');
        let mut part = || it.next().ok_or("wants trigger:replica:kind");
        let trigger = part()?;
        let event = FaultEvent {
            trigger: match trigger.strip_prefix('@') {
                Some(at) => FaultTrigger::At(Leaf::read(at)?),
                None => FaultTrigger::Epoch(Leaf::read(trigger)?),
            },
            replica: Leaf::read(part()?)?,
            kind: Leaf::read(part()?)?,
        };
        event.check()?;
        Ok(event)
    }
}

impl Leaf for FaultKind {
    fn show(&self) -> String {
        match self {
            FaultKind::LinkFlap { attempts_down } => format!("link_flap:{attempts_down}"),
            FaultKind::Drop { attempts } => format!("drop:{attempts}"),
            FaultKind::Corrupt { attempts } => format!("corrupt:{attempts}"),
            FaultKind::Delay { by } => format!("delay:{}", by.show()),
            FaultKind::DecodeFail { attempts } => format!("decode_fail:{attempts}"),
            FaultKind::PrimaryFault { outcome, stage } => {
                format!("primary_fault:{}:{}", outcome.label(), stage.label())
            }
            FaultKind::HeartbeatLoss { extra_periods } => format!("heartbeat_loss:{extra_periods}"),
            FaultKind::Exploit { cve, reattack } => format!("exploit:{cve}:{reattack}"),
        }
    }
    fn read(s: &str) -> Parsed<Self> {
        let (head, rest) = s.split_once(':').unwrap_or((s, ""));
        let n = || u32::read(rest);
        Ok(match head {
            "link_flap" => FaultKind::LinkFlap {
                attempts_down: n()?,
            },
            "drop" => FaultKind::Drop { attempts: n()? },
            "corrupt" => FaultKind::Corrupt { attempts: n()? },
            "delay" => FaultKind::Delay {
                by: Leaf::read(rest)?,
            },
            "decode_fail" => FaultKind::DecodeFail { attempts: n()? },
            "primary_fault" => {
                let [outcome, stage] = parts(rest)?;
                let outcome = DosOutcome::ALL
                    .into_iter()
                    .find(|o| o.label() == outcome)
                    .ok_or_else(|| format!("unknown DoS outcome {outcome:?}"))?;
                let stage = Stage::ALL
                    .into_iter()
                    .find(|s| s.label() == stage)
                    .ok_or_else(|| format!("unknown stage {stage:?}"))?;
                FaultKind::PrimaryFault { outcome, stage }
            }
            "heartbeat_loss" => FaultKind::HeartbeatLoss {
                extra_periods: n()?,
            },
            "exploit" => {
                let [cve, reattack] = parts(rest)?;
                FaultKind::Exploit {
                    cve: Leaf::read(cve)?,
                    reattack: Leaf::read(reattack)?,
                }
            }
            other => return Err(format!("unknown fault kind {other:?}")),
        })
    }
}

fn bundle_err(msg: &str) -> CoreError {
    CoreError::InvalidScenario(format!("incident bundle: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_sim_core::time::SimDuration;

    fn sample_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "pm-test".into(),
            memory_mib: 64,
            vcpus: 2,
            workload: WorkloadSpec::MemStress {
                percent: 30,
                rate: 20_000,
            },
            duration: SimDuration::from_secs(20),
            seed: 42,
            verify_consistency: false,
        }
    }

    fn sample_config() -> ReplicationConfig {
        ReplicationConfig::fixed_period(SimDuration::from_secs(2))
            .with_topology(TopologyConfig {
                replicas: 3,
                quorum: 2,
                fanout: FanoutMode::Star,
                stale_epoch_lag: 4,
            })
            .with_health_plane()
            .with_postmortem_capture()
    }

    fn sample_plan() -> FaultPlan {
        FaultPlan::new(7)
            .with_partition_span(4..=9, &[2], 10)
            .with_event_on(
                3,
                1,
                FaultKind::Delay {
                    by: SimDuration::from_millis(5),
                },
            )
            .with_event_on(
                11,
                0,
                FaultKind::PrimaryFault {
                    outcome: DosOutcome::Hang,
                    stage: Stage::Transfer,
                },
            )
            .with_event_on(11, 0, FaultKind::HeartbeatLoss { extra_periods: 2 })
    }

    /// A config in which every field, and every part of every composite
    /// field, differs from what [`IncidentBundle::blank`] starts with.
    fn off_default_config() -> ReplicationConfig {
        let millis = SimDuration::from_millis;
        let config = ReplicationConfig::dynamic(0.3, SimDuration::from_secs(25))
            .with_sigma(millis(100))
            .with_topology(TopologyConfig {
                replicas: 3,
                quorum: 2,
                fanout: FanoutMode::Chain,
                stale_epoch_lag: 4,
            })
            .with_encode_chunk_pages(100)
            .with_overlap_transfer()
            .with_health_plane()
            .with_postmortem_capture()
            .with_wire_v3()
            .with_replica_wire_caps(vec![3, 2]);
        ReplicationConfig {
            strategy: Strategy::Remus,
            costs: CostModel {
                migrate_scan_per_page: millis(21),
                migrate_wire_per_page: millis(22),
                checkpoint_cpu_per_page: millis(23),
                checkpoint_wire_per_page: millis(24),
                checkpoint_thread_overhead: millis(25),
                checkpoint_const: millis(26),
                remus_extra_const: millis(27),
                here_migration_setup: millis(28),
                parallel_efficiency: 0.25,
                migration_parallel_efficiency: 0.75,
                pause_disturbance: millis(29),
                device_switch: millis(30),
                state_load: millis(31),
                rss_base_mib: 12,
            },
            ..config
        }
    }

    fn sample_bundle() -> IncidentBundle {
        IncidentBundle {
            spec: ScenarioSpec {
                verify_consistency: true,
                ..sample_spec()
            },
            config: off_default_config(),
            plan: Some(sample_plan()),
            fingerprint: 0xdead_beef_cafe_f00d,
            trigger: IncidentTrigger {
                trigger: "alert".into(),
                epoch: 6,
                at_nanos: 12_000_000_000,
                detail: "stale_replica: replica 2 trails\nby 4 epochs \\ twice".into(),
                event: 417,
            },
        }
    }

    #[test]
    fn encode_decode_round_trips_every_field() {
        let bundle = sample_bundle();
        let doc = bundle.encode();
        let back = IncidentBundle::decode(&doc).expect("round trip");
        assert_eq!(bundle, back);
        assert_eq!(
            back.encode(),
            doc,
            "re-encoding a decoded bundle moved a byte"
        );

        // The sample leaves no leaf at the value decode starts from (and
        // no list empty), so a line the walk forgot, or read into the
        // wrong field, cannot round-trip by accident.
        let blank = IncidentBundle::blank().encode();
        for line in blank.lines().skip(4) {
            let (key, blank_value) = line.split_once('=').expect("key=value");
            let value = doc
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .unwrap_or_else(|| panic!("the sample has no {key:?} line"));
            for (part, blank_part) in value.split(':').zip(blank_value.split(':')) {
                assert_ne!(part, blank_part, "{key}: the sample leaves a default");
            }
        }
    }

    #[test]
    fn hostile_bundle_counts_are_typed_errors_not_allocations() {
        // Each forged payload goes out under a freshly computed header:
        // `len` and `crc` are no obstacle to a sender who can run FNV.
        let doc = sample_bundle().encode();
        let payload = doc.split_once("---\n").expect("separator").1;
        // The one counted list. The largest count that parses, and the
        // smallest the lines after the count line cannot hold.
        for count in [usize::MAX, payload.lines().count()] {
            let forged: String = payload
                .lines()
                .map(|line| match line.strip_prefix("plan_events=") {
                    Some(_) => format!("plan_events={count}\n"),
                    None => format!("{line}\n"),
                })
                .collect();
            assert_ne!(forged, payload, "plan_events is not a line of the sample");
            let err = IncidentBundle::decode(&seal(&forged)).unwrap_err();
            assert!(
                err.to_string().contains("fewer lines are left"),
                "plan_events={count}: {err}"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_version() {
        // v4 is the only version read: a v3 document is as unknown as v5.
        for other in ["v3", "v5"] {
            let doc = sample_bundle().encode().replacen("v4", other, 1);
            let err = IncidentBundle::decode(&doc).unwrap_err();
            assert!(format!("{err:?}").contains("unknown bundle version"));
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let doc = sample_bundle().encode();
        let truncated = &doc[..doc.len() - 10];
        let err = IncidentBundle::decode(truncated).unwrap_err();
        assert!(format!("{err:?}").contains("truncated"), "{err:?}");
    }

    #[test]
    fn decode_rejects_tampering() {
        let doc = sample_bundle().encode();
        // Flip one payload character without changing the length.
        let tampered = doc.replacen("seed=42", "seed=43", 1);
        assert_eq!(doc.len(), tampered.len());
        let err = IncidentBundle::decode(&tampered).unwrap_err();
        assert!(format!("{err:?}").contains("tampered"), "{err:?}");
    }

    #[test]
    fn decode_rejects_bad_magic_and_garbage() {
        for doc in ["", "not a bundle", "HEREBUNDLE vx\nlen=0\ncrc=0x0\n---\n"] {
            assert!(IncidentBundle::decode(doc).is_err(), "{doc:?}");
        }
    }

    #[test]
    fn every_fault_kind_round_trips() {
        let kinds = [
            FaultKind::LinkFlap { attempts_down: 3 },
            FaultKind::Drop { attempts: 2 },
            FaultKind::Corrupt { attempts: 1 },
            FaultKind::Delay {
                by: SimDuration::from_micros(750),
            },
            FaultKind::DecodeFail { attempts: 4 },
            FaultKind::PrimaryFault {
                outcome: DosOutcome::Starvation,
                stage: Stage::Harvest,
            },
            FaultKind::HeartbeatLoss { extra_periods: 5 },
            FaultKind::Exploit {
                cve: 17,
                reattack: true,
            },
        ];
        for kind in kinds {
            assert_eq!(FaultKind::read(&kind.show()).unwrap(), kind, "{kind:?}");
        }
    }

    #[test]
    fn a_time_keyed_accident_and_exploit_round_trip() {
        let mut bundle = sample_bundle();
        let epoch_keyed = bundle.encode();
        bundle.plan = bundle.plan.map(|plan| {
            plan.with_event_at(
                SimDuration::from_secs(8),
                FaultKind::PrimaryFault {
                    outcome: DosOutcome::Crash,
                    stage: Stage::Pause,
                },
            )
            .with_event_at(
                SimDuration::from_millis(12_500),
                FaultKind::Exploit {
                    cve: 17,
                    reattack: true,
                },
            )
        });
        let doc = bundle.encode();
        assert_eq!(IncidentBundle::decode(&doc).expect("round trip"), bundle);
        let events = |doc: &str| -> Vec<String> {
            doc.lines()
                .filter(|l| l.starts_with("event="))
                .map(String::from)
                .collect()
        };
        // Epoch-keyed lines are written as they always were; the time
        // trigger only adds lines.
        let (old, new) = (events(&epoch_keyed), events(&doc));
        assert_eq!(new[..old.len()], old[..]);
        assert_eq!(
            new[old.len()..],
            [
                "event=@8000000000:0:primary_fault:crash:pause",
                "event=@12500000000:0:exploit:17:true",
            ]
        );
    }

    #[test]
    fn decode_refuses_an_event_that_cannot_fire() {
        let doc = sample_bundle().encode();
        let payload = doc.split_once("---\n").expect("separator").1;
        let past_corpus = here_vulndb::dataset::nvd_corpus().len();
        for (event, why) in [
            (
                format!("@8:0:exploit:{past_corpus}:false"),
                "not in the CVE corpus",
            ),
            ("3:0:exploit:17:true".into(), "not at an epoch"),
            ("@8:1:drop:2".into(), "cannot fire at a time"),
            ("@8:0:heartbeat_loss:2".into(), "cannot fire at a time"),
            (
                "@8:0:primary_fault:hang:harvest".into(),
                "cannot fire at a time",
            ),
            ("@8s:0:primary_fault:hang:pause".into(), "unparseable value"),
            ("@:0:primary_fault:hang:pause".into(), "unparseable value"),
            ("@-8:0:primary_fault:hang:pause".into(), "unparseable value"),
        ] {
            let forged: String = payload
                .lines()
                .map(|line| match line.strip_prefix("plan_events=") {
                    Some(_) => "plan_events=1\n".to_string(),
                    None if line.starts_with("event=") => String::new(),
                    None => format!("{line}\n"),
                })
                .collect::<String>()
                .replacen(
                    "plan_events=1\n",
                    &format!("plan_events=1\nevent={event}\n"),
                    1,
                );
            let err = IncidentBundle::decode(&seal(&forged))
                .unwrap_err()
                .to_string();
            assert!(
                err.starts_with("invalid scenario: incident bundle: field \"event\"")
                    && err.contains(why),
                "{event}: {err}"
            );
        }
    }

    #[test]
    fn escaping_round_trips_awkward_strings() {
        for s in ["", "plain", "line1\nline2", "back\\slash", "\r\n", "a\\nb"] {
            let shown = s.to_string().show();
            assert!(!shown.contains(['\n', '\r']), "{shown:?}");
            assert_eq!(String::read(&shown).unwrap(), s, "{s:?}");
        }
        assert!(String::read("dangling\\").is_err());
        assert!(String::read("bad\\x").is_err());
    }

    #[test]
    fn host_noise_is_normalized_out_of_the_flight_dump() {
        // The only host-dependent bytes in a flight dump are the
        // wall-clock stamps and the encode pool's scheduler diagnostics;
        // neutralized, the captured dump (and with it the whole encoded
        // bundle) is byte-stable across runs.
        let json = r#"{"kind":"stage","wall_nanos":4155,"pages":3}
{"kind":"stage","wall_nanos":null,"pages":4}
{"kind":"encode_pool","tasks":16,"steals":3,"occupancy_pct":20.6}
{"kind":"encode_lane","wall_nanos":266747}"#;
        let stripped = normalize_flight_dump(json);
        assert!(!stripped.contains("\"wall_nanos\":4"), "{stripped}");
        assert!(!stripped.contains("\"wall_nanos\":2"), "{stripped}");
        assert_eq!(stripped.matches("\"wall_nanos\":null").count(), 3);
        assert!(stripped.contains("\"steals\":0,"), "{stripped}");
        assert!(stripped.contains("\"occupancy_pct\":0.0}"), "{stripped}");
        assert!(stripped.contains("\"tasks\":16"), "{stripped}");
        assert_eq!(normalize_flight_dump(&stripped), stripped);
        assert_eq!(normalize_flight_dump("no stamps here"), "no stamps here");
    }

    #[test]
    fn capture_requires_an_armed_run() {
        // A report with no incident snapshot cannot become a bundle.
        let report = sample_unarmed_report();
        let err = IncidentBundle::capture(sample_spec(), &sample_config(), None, &report);
        assert!(err.is_err());
    }

    fn sample_unarmed_report() -> RunReport {
        crate::engine::Scenario::builder()
            .name("pm-unarmed")
            .vm_memory_mib(64)
            .vcpus(2)
            .config(ReplicationConfig::fixed_period(SimDuration::from_secs(2)))
            .duration(SimDuration::from_secs(6))
            .build()
            .expect("valid scenario")
            .run()
    }

    #[test]
    fn armed_run_captures_and_replays_byte_identically() {
        let spec = sample_spec();
        let config = sample_config();
        let plan = FaultPlan::new(7).with_partition_span(4..=9, &[2], 10);
        let report = spec
            .build_scenario(config.clone(), Some(plan.clone()))
            .expect("valid scenario")
            .run();
        let trigger = report.incident.as_ref().expect("capture armed");
        assert_eq!(trigger.trigger, "alert");
        let incident = IncidentSnapshot::at(&config, &report.events, trigger);
        assert!(!incident.flight_json.is_empty());
        assert!(!incident.commits.is_empty());
        assert_eq!(incident.acks.len(), 3);

        let bundle = IncidentBundle::capture(spec, &config, Some(&plan), &report).expect("bundle");
        let decoded = IncidentBundle::decode(&bundle.encode()).expect("decode");
        let outcome = decoded.replay().expect("replay");
        assert!(outcome.fingerprint_matches, "fingerprint diverged");
        assert!(outcome.trigger_matches, "trigger diverged");
        assert!(outcome.verified());
        assert_eq!(outcome.snapshot, Some(incident));
    }

    #[test]
    fn armed_quiet_run_captures_an_explicit_request() {
        let mut spec = sample_spec();
        spec.name = "pm-quiet".into();
        spec.duration = SimDuration::from_secs(10);
        let config = sample_config();
        let report = spec
            .build_scenario(config.clone(), None)
            .expect("valid scenario")
            .run();
        let trigger = report.incident.as_ref().expect("request capture");
        assert_eq!(trigger.trigger, "request");
        assert_eq!(trigger.event, report.events.len() - 1, "the run's end");
        let incident = IncidentSnapshot::at(&config, &report.events, trigger);
        assert!(incident.active_alerts.is_empty());
    }

    #[test]
    fn run_ending_mid_incident_surfaces_unresolved_alerts() {
        // The partition never lifts before the run ends: the alerts that
        // fired must surface as unresolved in RunReport::health AND in the
        // run the bundle replays — not silently dropped.
        let mut spec = sample_spec();
        spec.name = "pm-unresolved".into();
        spec.duration = SimDuration::from_secs(24);
        let config = sample_config();
        let plan = FaultPlan::new(7).with_partition_span(4..=200, &[2], 10);
        let report = spec
            .build_scenario(config.clone(), Some(plan.clone()))
            .expect("valid scenario")
            .run();
        let health = report
            .telemetry
            .as_ref()
            .expect("telemetry")
            .health
            .as_ref()
            .expect("health plane armed");
        assert!(
            !health.active_alerts.is_empty(),
            "alerts still firing at run end must stay active: {:?}",
            health.alert_log_jsonl()
        );
        assert!(health
            .active_alerts
            .iter()
            .any(|r| r == "stale_replica" || r == "quorum_at_risk"));
        let fired: usize = health
            .alert_log
            .iter()
            .filter(|a| a.state.label() == "firing")
            .count();
        assert!(
            fired > health.alert_log.len() - fired,
            "unresolved > resolved"
        );

        let bundle = IncidentBundle::capture(spec, &config, Some(&plan), &report).expect("bundle");
        let decoded = IncidentBundle::decode(&bundle.encode()).expect("decode");
        // And the replay reproduces the unresolved state byte for byte.
        let outcome = decoded.replay().expect("replay");
        assert!(outcome.verified());
        let replayed = outcome.report.telemetry.as_ref().expect("telemetry");
        assert_eq!(replayed.health.as_ref(), Some(health));
    }
}
