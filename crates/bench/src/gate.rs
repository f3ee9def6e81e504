//! The bench-trajectory regression gate: diffs a freshly produced
//! `BENCH_*.json` against a committed baseline and reports every
//! difference.
//!
//! `repro` reports virtual time, byte counts and fingerprints only
//! (seeded RNG, threads derived from vCPUs), so there is one rule and no
//! per-key policy: the two documents must be structurally equal — same
//! keys, same types, same array lengths, same strings, numbers equal
//! within a 1e-9 relative epsilon. Wall-clock numbers are measured and
//! compared by the stand-alone `benchmark/` package, never here. The
//! comparison runs over a minimal hand-rolled JSON parse — the vendored
//! `serde` is a no-op, like everywhere else in this workspace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value, just enough for the gate's structural diff.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64; exact-compare uses a tiny epsilon).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys sorted for deterministic iteration.
    Obj(BTreeMap<String, Json>),
}

/// Parses a JSON document. Returns a human-readable error with the byte
/// offset on malformed input.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.input[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.input[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}' at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .input
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape
                    // (both ASCII, so the cut is a char boundary).
                    let rest = &self.input[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            // The documents are written by hand-`format!`ed sites; a key
            // emitted twice must not let the last value hide the first.
            if map.contains_key(&key) {
                return Err(format!("duplicate key '{key}' at byte {key_at}"));
            }
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// One difference between baseline and fresh documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Dotted path to the offending leaf (`wire_bytes.v2_meta_bytes`,
    /// `workers[2].analytic_parallelism`, ...).
    pub path: String,
    /// What went wrong, human-readable.
    pub detail: String,
}

/// Compares a fresh document against the baseline. Returns every
/// difference found (empty = gate passes).
pub fn compare(baseline: &Json, fresh: &Json) -> Vec<Regression> {
    let mut out = Vec::new();
    walk(baseline, fresh, "", &mut out);
    out
}

fn walk(base: &Json, fresh: &Json, path: &str, out: &mut Vec<Regression>) {
    match (base, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            let child = |k: &str| {
                if path.is_empty() {
                    k.to_string()
                } else {
                    format!("{path}.{k}")
                }
            };
            for (k, bv) in b {
                match f.get(k) {
                    Some(fv) => walk(bv, fv, &child(k), out),
                    None => out.push(Regression {
                        path: child(k),
                        detail: "missing in fresh output".to_string(),
                    }),
                }
            }
            for k in f.keys() {
                if !b.contains_key(k) {
                    out.push(Regression {
                        path: child(k),
                        detail: "unexpected new key (bless a new baseline)".to_string(),
                    });
                }
            }
        }
        (Json::Arr(b), Json::Arr(f)) => {
            if b.len() != f.len() {
                out.push(Regression {
                    path: path.to_string(),
                    detail: format!("array length {} != baseline {}", f.len(), b.len()),
                });
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                walk(bv, fv, &format!("{path}[{i}]"), out);
            }
        }
        (Json::Num(b), Json::Num(f)) => {
            if (b - f).abs() > 1e-9 * b.abs().max(1.0) {
                out.push(Regression {
                    path: path.to_string(),
                    detail: format!("{f} vs baseline {b}"),
                });
            }
        }
        _ => {
            if discriminant_name(base) != discriminant_name(fresh) {
                out.push(Regression {
                    path: path.to_string(),
                    detail: format!(
                        "type changed: {} vs baseline {}",
                        discriminant_name(fresh),
                        discriminant_name(base)
                    ),
                });
            } else if base != fresh {
                out.push(Regression {
                    path: path.to_string(),
                    detail: "value differs from baseline".to_string(),
                });
            }
        }
    }
}

fn discriminant_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

/// Runs the gate over two documents read from disk, rendering a report.
/// Returns `Ok(report)` when the gate passes, `Err(report)` when it
/// regresses (or either file fails to read/parse).
pub fn gate_files(baseline_path: &str, fresh_path: &str) -> Result<String, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let baseline = parse(&read(baseline_path)?)
        .map_err(|e| format!("baseline {baseline_path} is not valid JSON: {e}"))?;
    let fresh = parse(&read(fresh_path)?)
        .map_err(|e| format!("fresh output {fresh_path} is not valid JSON: {e}"))?;
    let regressions = compare(&baseline, &fresh);
    let mut report = String::new();
    let _ = writeln!(report, "gate: {fresh_path} vs baseline {baseline_path}");
    if regressions.is_empty() {
        let _ = writeln!(report, "PASS: no regressions");
        Ok(report)
    } else {
        for r in &regressions {
            let _ = writeln!(report, "REGRESSION {}: {}", r.path, r.detail);
        }
        let _ = writeln!(report, "FAIL: {} regression(s)", regressions.len());
        Err(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared negative-gate harness every suite leans on: the
    /// unperturbed document must self-compare clean, then each
    /// `(from, to, path)` perturbation must be caught as exactly one
    /// regression at `path`.
    fn assert_gate_catches(doc: &str, cases: &[(&str, &str, &str)]) {
        let base = parse(doc).unwrap();
        assert!(
            compare(&base, &base).is_empty(),
            "document must self-compare clean"
        );
        for (from, to, path) in cases {
            let mutated = doc.replace(from, to);
            assert_ne!(&mutated, doc, "perturbation '{from}' did not apply");
            let fresh = parse(&mutated).unwrap();
            let regressions = compare(&base, &fresh);
            assert_eq!(regressions.len(), 1, "{path}: {regressions:?}");
            assert_eq!(regressions[0].path, *path);
        }
    }

    const DOC: &str = r#"{
        "experiment": "datapath",
        "pages": 4096,
        "workers": [
            {"workers": 1, "analytic_parallelism": 1.0},
            {"workers": 2, "analytic_parallelism": 1.8}
        ],
        "wire_bytes": {"v2_meta_bytes": 57357, "v3_columns_bytes": 12328, "reduction_ratio": 4.65},
        "slo": null
    }"#;

    #[test]
    fn parser_round_trips_the_shapes_the_gate_needs() {
        let doc = parse(DOC).unwrap();
        let Json::Obj(map) = &doc else {
            panic!("not an object")
        };
        assert_eq!(map["experiment"], Json::Str("datapath".to_string()));
        assert_eq!(map["pages"], Json::Num(4096.0));
        assert_eq!(map["slo"], Json::Null);
        let Json::Arr(workers) = &map["workers"] else {
            panic!("workers")
        };
        assert_eq!(workers.len(), 2);
    }

    #[test]
    fn parser_decodes_escapes() {
        let doc = parse("{\"s\":\"a\\\"b\\nc\\u0041\"}").unwrap();
        let Json::Obj(map) = doc else { panic!() };
        assert_eq!(map["s"], Json::Str("a\"b\ncA".to_string()));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
    }

    #[test]
    fn duplicated_key_is_rejected_in_either_order() {
        // Last-one-wins would let a stray second emission hide the real
        // value from the gate, whichever of the two is the good one.
        let bad_first = r#"{"fingerprint": "0xBAD", "fingerprint": "0xGOOD"}"#;
        let bad_last = r#"{"fingerprint": "0xGOOD", "fingerprint": "0xBAD"}"#;
        for doc in [bad_first, bad_last] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains("duplicate key 'fingerprint'"), "{err}");
        }
        assert!(parse(r#"{"a": {"k": 1}, "b": {"k": 1}}"#).is_ok());

        let dir = std::env::temp_dir();
        let good = dir.join(format!("gate-dup-{}-good.json", std::process::id()));
        let dup = dir.join(format!("gate-dup-{}-dup.json", std::process::id()));
        std::fs::write(&good, r#"{"fingerprint": "0xGOOD"}"#).unwrap();
        std::fs::write(&dup, bad_first).unwrap();
        let (good_path, dup_path) = (good.to_str().unwrap(), dup.to_str().unwrap());
        let as_fresh = gate_files(good_path, dup_path).unwrap_err();
        assert!(as_fresh.contains("is not valid JSON"), "{as_fresh}");
        let as_baseline = gate_files(dup_path, good_path).unwrap_err();
        assert!(as_baseline.contains("is not valid JSON"), "{as_baseline}");
        assert!(gate_files(good_path, good_path).is_ok());
        let _ = std::fs::remove_file(good);
        let _ = std::fs::remove_file(dup);
    }

    #[test]
    fn megabyte_string_parses_in_one_pass() {
        // Each character of a string value is looked at once; a parser
        // that re-validates the remaining input per character needs
        // ~10^11 byte visits for this document.
        let unit = "héllo wörld \\n ";
        let body = unit.repeat((1 << 20) / unit.len() + 1);
        let doc = parse(&format!("{{\"s\": \"{body}\"}}")).unwrap();
        let Json::Obj(map) = doc else { panic!() };
        assert_eq!(map["s"], Json::Str(body.replace("\\n", "\n")));
    }

    #[test]
    fn self_compare_passes() {
        let doc = parse(DOC).unwrap();
        assert!(compare(&doc, &doc).is_empty());
    }

    #[test]
    fn perturbed_deterministic_field_fails() {
        // The negative test the CI gate hinges on: a synthetic
        // perturbation of a deterministic field must be caught.
        assert_gate_catches(
            DOC,
            &[
                ("\"pages\": 4096", "\"pages\": 4097", "pages"),
                (
                    "\"analytic_parallelism\": 1.8",
                    "\"analytic_parallelism\": 1.9",
                    "workers[1].analytic_parallelism",
                ),
            ],
        );
    }

    /// The committed `baselines/BENCH_chaos.json` shape: every leaf is
    /// deterministic simulated time or a counter.
    const CHAOS_DOC: &str = r#"{
        "experiment": "chaos",
        "sweep": {
            "plan_seed": 7,
            "faults_injected": 9,
            "transfer_retries": 7,
            "epochs_aborted": 1,
            "worst_staleness_ms": 4032.445
        },
        "crash": {
            "resumed_from_checkpoint": 4,
            "crash_resumes_last_acked": true,
            "detection_ms": 40.000
        },
        "determinism": {
            "fingerprint": "0xf95a4248ab7a4570",
            "deterministic": true
        }
    }"#;

    #[test]
    fn silently_renamed_chaos_key_fails_as_missing_plus_unexpected() {
        // A rename must never slip through as "key went away, key
        // appeared": the gate reports both sides so the diff is loud.
        let base = parse(CHAOS_DOC).unwrap();
        let renamed =
            parse(&CHAOS_DOC.replace("\"transfer_retries\"", "\"transfer_attempts\"")).unwrap();
        let regressions = compare(&base, &renamed);
        assert_eq!(regressions.len(), 2);
        assert!(regressions
            .iter()
            .any(|r| r.path == "sweep.transfer_retries" && r.detail.contains("missing")));
        assert!(regressions
            .iter()
            .any(|r| r.path == "sweep.transfer_attempts" && r.detail.contains("unexpected")));
    }

    #[test]
    fn chaos_leaves_are_exact_even_when_named_like_wall_clock() {
        // The rule never looks at a key's name: `*_ms` leaves are
        // simulated time, and a key called `host_cpus` or a subtree
        // called `steals` gets no exemption either.
        assert_gate_catches(
            CHAOS_DOC,
            &[
                ("4032.445", "4032.545", "sweep.worst_staleness_ms"),
                ("40.000", "40.001", "crash.detection_ms"),
            ],
        );
        assert_gate_catches(
            r#"{"total_ms": 10.5, "host_cpus": 1, "steals": {"prometheus": "a"}}"#,
            &[
                ("10.5", "10.6", "total_ms"),
                ("\"host_cpus\": 1", "\"host_cpus\": 2", "host_cpus"),
                ("\"a\"", "\"b\"", "steals.prometheus"),
            ],
        );
    }

    #[test]
    fn chaos_invariant_and_fingerprint_flips_fail() {
        assert_gate_catches(
            CHAOS_DOC,
            &[
                (
                    "\"crash_resumes_last_acked\": true",
                    "\"crash_resumes_last_acked\": false",
                    "crash.crash_resumes_last_acked",
                ),
                (
                    "\"deterministic\": true",
                    "\"deterministic\": false",
                    "determinism.deterministic",
                ),
                (
                    "0xf95a4248ab7a4570",
                    "0xf95a4248ab7a4571",
                    "determinism.fingerprint",
                ),
                (
                    "\"resumed_from_checkpoint\": 4",
                    "\"resumed_from_checkpoint\": 5",
                    "crash.resumed_from_checkpoint",
                ),
            ],
        );
    }

    /// The committed `baselines/BENCH_topology.json` shape: every leaf is
    /// deterministic simulated time, a counter or a fingerprint.
    const TOPOLOGY_DOC: &str = r#"{
        "experiment": "topology",
        "run_seed": 42,
        "stale_epoch_lag": 8,
        "rows": [
            {"replicas": 1, "quorum": 1, "fanout": "star", "commits": 15,
             "mean_commit_latency_ms": 0.010, "worst_staleness_ms": 2010.423,
             "stalest_replica": 0, "fingerprint": "0xa082f4b2c6a55c4f"},
            {"replicas": 3, "quorum": 2, "fanout": "chain", "commits": 15,
             "mean_commit_latency_ms": 0.020, "worst_staleness_ms": 2015.823,
             "stalest_replica": 2, "fingerprint": "0x5bc0a1f29e77d103"}
        ],
        "bit_compat": {
            "baseline_fingerprint": "0x49210372aba1d921",
            "degenerate_fingerprint": "0x49210372aba1d921",
            "bit_compatible": true
        },
        "determinism": {
            "fingerprint": "0xb98b61465ee022a7",
            "deterministic": true
        }
    }"#;

    #[test]
    fn silently_renamed_topology_key_fails_as_missing_plus_unexpected() {
        // Same loud-rename guarantee as the chaos artifact: dropping
        // `worst_staleness_ms` for a new name must report both sides, in
        // every row it occurs in.
        let base = parse(TOPOLOGY_DOC).unwrap();
        let renamed =
            parse(&TOPOLOGY_DOC.replace("\"worst_staleness_ms\"", "\"max_staleness_ms\"")).unwrap();
        let regressions = compare(&base, &renamed);
        assert_eq!(regressions.len(), 4);
        for i in 0..2 {
            assert!(regressions
                .iter()
                .any(|r| r.path == format!("rows[{i}].worst_staleness_ms")
                    && r.detail.contains("missing")));
            assert!(regressions
                .iter()
                .any(|r| r.path == format!("rows[{i}].max_staleness_ms")
                    && r.detail.contains("unexpected")));
        }
    }

    #[test]
    fn topology_invariant_and_fingerprint_flips_fail() {
        assert_gate_catches(
            TOPOLOGY_DOC,
            &[
                (
                    "\"bit_compatible\": true",
                    "\"bit_compatible\": false",
                    "bit_compat.bit_compatible",
                ),
                (
                    "0xb98b61465ee022a7",
                    "0xb98b61465ee022a8",
                    "determinism.fingerprint",
                ),
                (
                    "\"stalest_replica\": 2",
                    "\"stalest_replica\": 1",
                    "rows[1].stalest_replica",
                ),
                ("2015.823", "2015.824", "rows[1].worst_staleness_ms"),
                (
                    "\"mean_commit_latency_ms\": 0.020",
                    "\"mean_commit_latency_ms\": 0.021",
                    "rows[1].mean_commit_latency_ms",
                ),
            ],
        );
    }

    /// The committed `baselines/BENCH_health.json` shape: alert arcs,
    /// health trajectories and export hashes are all derived from
    /// simulated time under fixed seeds — a reordered alert log or a
    /// single drifted series window must go red.
    const HEALTH_DOC: &str = r#"{
        "experiment": "health",
        "plan_seed": 7,
        "stale_epoch_lag": 4,
        "quiet": {
            "commits": 15,
            "alerts_fired": 0,
            "final_states": "healthy,healthy,healthy",
            "series_hash": "0x9f4e447b"
        },
        "stale": {
            "commits": 15,
            "alerts_fired": 3,
            "alerts_resolved": 3,
            "alert_sequence": "retry_storm:firing@5|stale_replica:firing@7|quorum_at_risk:firing@7|stale_replica:resolved@10|quorum_at_risk:resolved@10|retry_storm:resolved@12",
            "transition_sequence": "r2:healthy->lagging@4|r2:lagging->stale@7|r2:stale->recovering@10|r2:recovering->healthy@11",
            "alert_log_hash": "0xbb233055"
        },
        "determinism": {
            "fingerprint": "0xad823e95507a1dd0",
            "deterministic": true
        }
    }"#;

    #[test]
    fn quiet_run_growing_an_alert_fails() {
        // The plane's core promise: a fault-free run fires nothing. One
        // alert appearing in the quiet scenario must be a regression.
        assert_gate_catches(
            HEALTH_DOC,
            &[(
                "\"commits\": 15,\n            \"alerts_fired\": 0",
                "\"commits\": 15,\n            \"alerts_fired\": 1",
                "quiet.alerts_fired",
            )],
        );
    }

    #[test]
    fn reordered_or_renamed_alert_arcs_fail() {
        assert_gate_catches(
            HEALTH_DOC,
            &[
                // A different firing epoch for one alert changes the arc
                // string; a renamed rule in the arc is equally loud.
                (
                    "stale_replica:firing@7",
                    "stale_replica:firing@8",
                    "stale.alert_sequence",
                ),
                ("retry_storm:", "retry_flood:", "stale.alert_sequence"),
            ],
        );
    }

    #[test]
    fn health_hash_and_invariant_flips_fail() {
        assert_gate_catches(
            HEALTH_DOC,
            &[
                ("0xbb233055", "0xbb233056", "stale.alert_log_hash"),
                ("0x9f4e447b", "0x9f4e447c", "quiet.series_hash"),
                (
                    "\"deterministic\": true",
                    "\"deterministic\": false",
                    "determinism.deterministic",
                ),
                (
                    "r2:lagging->stale@7",
                    "r2:lagging->stale@8",
                    "stale.transition_sequence",
                ),
            ],
        );
    }

    /// The committed `baselines/BENCH_postmortem.json` shape: capture
    /// identity, integrity verdicts, replay verification and the
    /// forensics diff are all derived from simulated time under fixed
    /// seeds — a bundle that stops rejecting corruption or a replay that
    /// stops reproducing must go red.
    const POSTMORTEM_DOC: &str = r#"{
        "experiment": "postmortem",
        "plan_seed": 7,
        "run_seed": 42,
        "capture": {
            "trigger": "alert",
            "trigger_epoch": 5,
            "fingerprint": "0xa3fd381326aeba0f",
            "bundle_bytes": 19923,
            "bundle_hash": "0x12979695"
        },
        "integrity": {
            "decode_round_trip": true,
            "rejects_unknown_version": true,
            "rejects_truncation": true,
            "rejects_tampering": true
        },
        "replay": {
            "fingerprint": "0xa3fd381326aeba0f",
            "verified": true
        },
        "forensics": {
            "baseline_fingerprint": "0x57c29f41d2e88a63",
            "fingerprint_reproduced": true,
            "critical_path_shifted": true,
            "divergence": "r0:acks15/15:lag0/0:retries0/0|r2:acks9/15:lag0/0:retries12/0",
            "aborted_epochs": 0,
            "throughput_delta_pct": -0.225,
            "alert_timeline": "retry_storm:firing@5|stale_replica:firing@7|quorum_at_risk:firing@7"
        }
    }"#;

    #[test]
    fn postmortem_integrity_and_replay_flips_fail() {
        assert_gate_catches(
            POSTMORTEM_DOC,
            &[
                (
                    "\"rejects_tampering\": true",
                    "\"rejects_tampering\": false",
                    "integrity.rejects_tampering",
                ),
                (
                    "\"rejects_unknown_version\": true",
                    "\"rejects_unknown_version\": false",
                    "integrity.rejects_unknown_version",
                ),
                (
                    "\"verified\": true",
                    "\"verified\": false",
                    "replay.verified",
                ),
                (
                    "\"bundle_hash\": \"0x12979695\"",
                    "\"bundle_hash\": \"0x12979696\"",
                    "capture.bundle_hash",
                ),
                (
                    "\"fingerprint_reproduced\": true",
                    "\"fingerprint_reproduced\": false",
                    "forensics.fingerprint_reproduced",
                ),
                (
                    "r2:acks9/15:lag0/0:retries12/0",
                    "r2:acks9/15:lag0/0:retries11/0",
                    "forensics.divergence",
                ),
                (
                    "quorum_at_risk:firing@7",
                    "quorum_at_risk:firing@8",
                    "forensics.alert_timeline",
                ),
                ("-0.225", "-0.325", "forensics.throughput_delta_pct"),
            ],
        );
    }

    /// The committed `baselines/BENCH_wire.json` shape: byte counts,
    /// virtual transfer times, negotiated version strings and
    /// fingerprints are all derived from simulated time under fixed
    /// seeds — a single extra byte per epoch, a drifted reduction ratio
    /// or a replica negotiating the wrong version must go red.
    const WIRE_DOC: &str = r#"{
        "experiment": "wire",
        "run_seed": 42,
        "rows": [
            {"workload": "phased", "version": 2, "checkpoints": 5, "commits": 5,
             "bytes_per_epoch": 262144.0, "mean_transfer_ms": 14.4200,
             "fingerprint": "0x1111111111111111"},
            {"workload": "phased", "version": 3, "checkpoints": 5, "commits": 5,
             "bytes_per_epoch": 65536.0, "mean_transfer_ms": 3.6050,
             "fingerprint": "0x2222222222222222"}
        ],
        "reductions": [
            {"workload": "phased", "bytes_ratio": 4.00, "transfer_ratio": 4.00}
        ],
        "negotiation": [
            {"offer": 3, "caps": "3,2,3", "fanout": "star",
             "negotiated": "3,2,3", "commits": 5}
        ],
        "bit_compat": {
            "baseline_fingerprint": "0x3333333333333333",
            "capped_fingerprint": "0x3333333333333333",
            "bit_compatible": true
        },
        "determinism": {
            "fingerprint": "0x2222222222222222",
            "deterministic": true
        }
    }"#;

    #[test]
    fn wire_bytes_and_transfer_leaves_are_exact() {
        assert_gate_catches(
            WIRE_DOC,
            &[
                ("65536.0", "65537.0", "rows[1].bytes_per_epoch"),
                ("3.6050", "3.6051", "rows[1].mean_transfer_ms"),
                (
                    "\"bytes_ratio\": 4.00",
                    "\"bytes_ratio\": 3.90",
                    "reductions[0].bytes_ratio",
                ),
            ],
        );
    }

    #[test]
    fn wire_negotiation_and_bitcompat_flips_fail() {
        assert_gate_catches(
            WIRE_DOC,
            &[
                (
                    "\"negotiated\": \"3,2,3\"",
                    "\"negotiated\": \"3,3,3\"",
                    "negotiation[0].negotiated",
                ),
                (
                    "\"bit_compatible\": true",
                    "\"bit_compatible\": false",
                    "bit_compat.bit_compatible",
                ),
                (
                    "\"deterministic\": true",
                    "\"deterministic\": false",
                    "determinism.deterministic",
                ),
                (
                    "0x2222222222222222\",\n            \"deterministic",
                    "0x2222222222222223\",\n            \"deterministic",
                    "determinism.fingerprint",
                ),
            ],
        );
    }

    #[test]
    fn shape_changes_fail() {
        let base = parse(DOC).unwrap();
        let missing = parse(&DOC.replace("\"pages\": 4096,", "")).unwrap();
        let regressions = compare(&base, &missing);
        assert!(regressions
            .iter()
            .any(|r| r.path == "pages" && r.detail.contains("missing")));
        let null_swap = parse(&DOC.replace("\"slo\": null", "\"slo\": {}")).unwrap();
        assert!(compare(&base, &null_swap)
            .iter()
            .any(|r| r.path == "slo" && r.detail.contains("type changed")));
        // Top-level paths carry no leading dot on either side of a rename.
        assert_gate_catches(
            DOC,
            &[("\"slo\": null", "\"slo\": null, \"slo_v2\": null", "slo_v2")],
        );
        let renamed = parse(&DOC.replace("\"pages\"", "\"pages_v2\"")).unwrap();
        let paths: Vec<String> = compare(&base, &renamed)
            .into_iter()
            .map(|r| r.path)
            .collect();
        assert_eq!(paths, ["pages", "pages_v2"]);
    }
}
