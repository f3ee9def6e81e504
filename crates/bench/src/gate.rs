//! The bench-trajectory regression gate: diffs a freshly produced
//! `BENCH_*.json` against a committed baseline with per-key tolerances
//! and reports every regression.
//!
//! The virtual-time simulator is deterministic (seeded RNG, threads
//! derived from vCPUs), so most fields must match the baseline *exactly*
//! across hosts. Wall-clock measurements (`*_ms`, throughput, measured α
//! and parallelism) vary with the machine, so they get a relative
//! tolerance; purely host-dependent fields (`host_cpus`, the embedded
//! Prometheus dump, raw `wall_nanos`) are ignored. The comparison is
//! structural, over a minimal hand-rolled JSON parse — the vendored
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
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the full UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
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
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
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

/// How one leaf key is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Must match exactly (numbers within a tiny epsilon).
    Exact,
    /// Relative tolerance: `|fresh − base| ≤ tol × max(|base|, floor)`.
    Relative(f64),
    /// Absolute tolerance in the key's own unit.
    Absolute(f64),
    /// Not compared at all (host-dependent).
    Ignore,
}

/// Leaf keys measured in wall-clock time — they vary across hosts and get
/// the relative tolerance instead of an exact compare.
pub const MEASURED_KEYS: &[&str] = &[
    "baseline_ms",
    "instrumented_ms",
    "harvest_ms",
    "translate_ms",
    "encode_ms",
    "decode_restore_ms",
    "streamed_ms",
    "v3_meta_ms",
    "total_ms",
    "throughput_mib_per_s",
    "measured_alpha_us_per_page",
    "measured_parallelism",
];

/// Leaf keys that are host-dependent noise, never compared.
pub const IGNORED_KEYS: &[&str] = &[
    "host_cpus",
    "prometheus",
    "wall_nanos",
    "flight_recorder",
    "steals",
    "occupancy_pct",
];

/// The gate's per-key policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Relative tolerance applied to [`MEASURED_KEYS`] (e.g. `3.0` allows
    /// a 4× swing — wall time on shared CI machines is noisy).
    pub measured_rel: f64,
    /// Absolute tolerance for `overhead_pct` (percentage points).
    pub overhead_abs: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            measured_rel: 3.0,
            overhead_abs: 10.0,
        }
    }
}

impl Tolerances {
    /// The comparison rule for a leaf key.
    pub fn rule_for(&self, key: &str) -> Rule {
        if IGNORED_KEYS.contains(&key) {
            Rule::Ignore
        } else if key == "overhead_pct" {
            Rule::Absolute(self.overhead_abs)
        } else if MEASURED_KEYS.contains(&key) {
            Rule::Relative(self.measured_rel)
        } else {
            Rule::Exact
        }
    }
}

/// One difference between baseline and fresh documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Dotted path to the offending leaf (`overhead.baseline_ms`,
    /// `workers[2].total_ms`, ...).
    pub path: String,
    /// What went wrong, human-readable.
    pub detail: String,
}

/// Compares a fresh document against the baseline. Returns every
/// regression found (empty = gate passes).
pub fn compare(baseline: &Json, fresh: &Json, tol: &Tolerances) -> Vec<Regression> {
    let mut out = Vec::new();
    walk(baseline, fresh, "", "", tol, &mut out);
    out
}

fn walk(
    base: &Json,
    fresh: &Json,
    path: &str,
    key: &str,
    tol: &Tolerances,
    out: &mut Vec<Regression>,
) {
    if tol.rule_for(key) == Rule::Ignore {
        return;
    }
    match (base, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            for (k, bv) in b {
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match f.get(k) {
                    Some(fv) => walk(bv, fv, &child, k, tol, out),
                    None => out.push(Regression {
                        path: child,
                        detail: "missing in fresh output".to_string(),
                    }),
                }
            }
            for k in f.keys() {
                if !b.contains_key(k) {
                    out.push(Regression {
                        path: format!("{path}.{k}"),
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
                // Elements inherit the array's key so `workers[i].x`
                // rules resolve on `x`, not the index.
                walk(bv, fv, &format!("{path}[{i}]"), key, tol, out);
            }
        }
        (Json::Num(b), Json::Num(f)) => {
            let ok = match tol.rule_for(key) {
                Rule::Ignore => true,
                Rule::Exact => (b - f).abs() <= 1e-9 * b.abs().max(1.0),
                Rule::Relative(rel) => (b - f).abs() <= rel * b.abs().max(1e-9),
                Rule::Absolute(abs) => (b - f).abs() <= abs,
            };
            if !ok {
                out.push(Regression {
                    path: path.to_string(),
                    detail: format!("{f} vs baseline {b} ({:?})", tol.rule_for(key)),
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
pub fn gate_files(
    baseline_path: &str,
    fresh_path: &str,
    tol: &Tolerances,
) -> Result<String, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let baseline = parse(&read(baseline_path)?)
        .map_err(|e| format!("baseline {baseline_path} is not valid JSON: {e}"))?;
    let fresh = parse(&read(fresh_path)?)
        .map_err(|e| format!("fresh output {fresh_path} is not valid JSON: {e}"))?;
    let regressions = compare(&baseline, &fresh, tol);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "gate: {fresh_path} vs baseline {baseline_path} (measured ±{:.0}%, overhead ±{} pts)",
        tol.measured_rel * 100.0,
        tol.overhead_abs
    );
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

/// Gates *measured* parallel efficiency from a fresh `BENCH_datapath.json`:
/// the `workers == lanes` row must report
/// `measured_parallelism ≥ lanes × min_efficiency`.
///
/// Wall-clock parallelism only means something when the host actually has
/// the cores, so hosts with `host_cpus < lanes` skip the check with a
/// notice instead of failing — a 1-CPU CI runner must not go red because
/// physics denied it a speedup. Returns `Ok(report)` on pass or skip,
/// `Err(report)` on a real efficiency regression or a malformed document.
pub fn efficiency_gate(fresh: &Json, lanes: u64, min_efficiency: f64) -> Result<String, String> {
    let Json::Obj(doc) = fresh else {
        return Err("fresh output is not a JSON object".to_string());
    };
    let host_cpus = match doc.get("host_cpus") {
        Some(Json::Num(n)) => *n as u64,
        _ => return Err("fresh output has no numeric host_cpus".to_string()),
    };
    if host_cpus < lanes {
        return Ok(format!(
            "SKIP: host has {host_cpus} CPU(s) < {lanes} lanes; \
             parallel efficiency not measurable here\n"
        ));
    }
    let Some(Json::Arr(rows)) = doc.get("workers") else {
        return Err("fresh output has no workers array".to_string());
    };
    for row in rows {
        let Json::Obj(row) = row else { continue };
        let workers = match row.get("workers") {
            Some(Json::Num(n)) => *n as u64,
            _ => continue,
        };
        if workers != lanes {
            continue;
        }
        let measured = match row.get("measured_parallelism") {
            Some(Json::Num(n)) => *n,
            _ => {
                return Err(format!(
                    "workers=={lanes} row has no numeric measured_parallelism"
                ))
            }
        };
        let floor = lanes as f64 * min_efficiency;
        return if measured >= floor {
            Ok(format!(
                "PASS: measured_parallelism {measured:.2} at {lanes} lanes \
                 >= {floor:.2} ({min_efficiency:.0}% efficiency floor, {host_cpus} host CPUs)\n",
                min_efficiency = min_efficiency * 100.0
            ))
        } else {
            Err(format!(
                "FAIL: measured_parallelism {measured:.2} at {lanes} lanes \
                 < {floor:.2} ({min_efficiency:.0}% efficiency floor, {host_cpus} host CPUs)\n",
                min_efficiency = min_efficiency * 100.0
            ))
        };
    }
    Err(format!("fresh output has no workers=={lanes} row"))
}

/// Runs [`efficiency_gate`] over a document read from disk.
pub fn efficiency_gate_file(
    fresh_path: &str,
    lanes: u64,
    min_efficiency: f64,
) -> Result<String, String> {
    let text = std::fs::read_to_string(fresh_path)
        .map_err(|e| format!("cannot read {fresh_path}: {e}"))?;
    let fresh =
        parse(&text).map_err(|e| format!("fresh output {fresh_path} is not valid JSON: {e}"))?;
    efficiency_gate(&fresh, lanes, min_efficiency)
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
            compare(&base, &base, &Tolerances::default()).is_empty(),
            "document must self-compare clean"
        );
        for (from, to, path) in cases {
            let mutated = doc.replace(from, to);
            assert_ne!(&mutated, doc, "perturbation '{from}' did not apply");
            let fresh = parse(&mutated).unwrap();
            let regressions = compare(&base, &fresh, &Tolerances::default());
            assert_eq!(regressions.len(), 1, "{path}: {regressions:?}");
            assert_eq!(regressions[0].path, *path);
        }
    }

    const DOC: &str = r#"{
        "experiment": "datapath",
        "host_cpus": 8,
        "pages": 4096,
        "workers": [
            {"workers": 1, "total_ms": 10.5, "measured_parallelism": 1.0, "analytic_parallelism": 1.0},
            {"workers": 2, "total_ms": 6.2, "measured_parallelism": 1.7, "analytic_parallelism": 1.8}
        ],
        "overhead_pct": 1.25,
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
    fn self_compare_passes() {
        let doc = parse(DOC).unwrap();
        assert!(compare(&doc, &doc, &Tolerances::default()).is_empty());
    }

    #[test]
    fn wall_clock_drift_within_tolerance_passes() {
        let base = parse(DOC).unwrap();
        let fresh = parse(&DOC.replace("10.5", "20.9").replace("6.2", "3.1")).unwrap();
        assert!(compare(&base, &fresh, &Tolerances::default()).is_empty());
    }

    #[test]
    fn host_cpus_is_ignored() {
        let base = parse(DOC).unwrap();
        let fresh = parse(&DOC.replace("\"host_cpus\": 8", "\"host_cpus\": 96")).unwrap();
        assert!(compare(&base, &fresh, &Tolerances::default()).is_empty());
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

    #[test]
    fn runaway_wall_clock_fails_even_with_tolerance() {
        assert_gate_catches(DOC, &[("10.5", "99.0", "workers[0].total_ms")]);
    }

    #[test]
    fn overhead_pct_uses_absolute_tolerance() {
        let base = parse(DOC).unwrap();
        let within = parse(&DOC.replace("1.25", "9.0")).unwrap();
        assert!(compare(&base, &within, &Tolerances::default()).is_empty());
        let outside = parse(&DOC.replace("1.25", "30.0")).unwrap();
        assert_eq!(compare(&base, &outside, &Tolerances::default()).len(), 1);
    }

    /// The committed `baselines/BENCH_chaos.json` shape: every leaf is
    /// deterministic simulated time or a counter, so everything below
    /// must compare under [`Rule::Exact`].
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
        let regressions = compare(&base, &renamed, &Tolerances::default());
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
        // `*_ms` keys normally suggest wall clock, but the chaos times
        // are simulated — they must not inherit the relative tolerance.
        assert_eq!(
            Tolerances::default().rule_for("worst_staleness_ms"),
            Rule::Exact
        );
        assert_eq!(Tolerances::default().rule_for("detection_ms"), Rule::Exact);
        assert_gate_catches(
            CHAOS_DOC,
            &[("4032.445", "4032.545", "sweep.worst_staleness_ms")],
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
    /// deterministic simulated time, a counter or a fingerprint, so the
    /// whole document compares under [`Rule::Exact`].
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
        let regressions = compare(&base, &renamed, &Tolerances::default());
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
            ],
        );
        // `mean_commit_latency_ms` is simulated, not wall clock — exact.
        assert_eq!(
            Tolerances::default().rule_for("mean_commit_latency_ms"),
            Rule::Exact
        );
    }

    #[test]
    fn pool_diagnostics_are_ignored_and_streamed_ms_is_measured() {
        // Steal counts and lane occupancy depend on scheduler timing, so
        // they must never gate; the streamed wall time is wall clock and
        // gets the relative tolerance like the other *_ms columns.
        assert_eq!(Tolerances::default().rule_for("steals"), Rule::Ignore);
        assert_eq!(
            Tolerances::default().rule_for("occupancy_pct"),
            Rule::Ignore
        );
        assert_eq!(
            Tolerances::default().rule_for("streamed_ms"),
            Rule::Relative(3.0)
        );
    }

    /// The committed `baselines/BENCH_health.json` shape: alert arcs,
    /// health trajectories and export hashes are all derived from
    /// simulated time under fixed seeds, so every leaf compares under
    /// [`Rule::Exact`] — a reordered alert log or a single drifted series
    /// window must go red.
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
    /// seeds, so every leaf compares under [`Rule::Exact`] — a bundle
    /// that stops rejecting corruption or a replay that stops
    /// reproducing must go red.
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
        // The throughput delta is simulated, not wall clock — exact.
        assert_eq!(
            Tolerances::default().rule_for("throughput_delta_pct"),
            Rule::Exact
        );
    }

    /// The committed `baselines/BENCH_wire.json` shape: byte counts,
    /// virtual transfer times, negotiated version strings and
    /// fingerprints are all derived from simulated time under fixed
    /// seeds, so every leaf compares under [`Rule::Exact`] — a single
    /// extra byte per epoch, a drifted reduction ratio or a replica
    /// negotiating the wrong version must go red.
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
        // Virtual-time figures must not inherit the wall-clock
        // tolerance, `*_ms` name notwithstanding.
        assert_eq!(
            Tolerances::default().rule_for("bytes_per_epoch"),
            Rule::Exact
        );
        assert_eq!(
            Tolerances::default().rule_for("mean_transfer_ms"),
            Rule::Exact
        );
        assert_eq!(Tolerances::default().rule_for("bytes_ratio"), Rule::Exact);
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

    const EFFICIENCY_DOC: &str = r#"{
        "experiment": "datapath",
        "host_cpus": 8,
        "workers": [
            {"workers": 1, "measured_parallelism": 1.0},
            {"workers": 4, "measured_parallelism": 3.1}
        ]
    }"#;

    #[test]
    fn efficiency_gate_passes_above_the_floor() {
        let doc = parse(EFFICIENCY_DOC).unwrap();
        let report = efficiency_gate(&doc, 4, 0.6).unwrap();
        assert!(report.starts_with("PASS"), "{report}");
    }

    #[test]
    fn efficiency_gate_fails_below_the_floor() {
        let doc = parse(&EFFICIENCY_DOC.replace("3.1", "1.9")).unwrap();
        let report = efficiency_gate(&doc, 4, 0.6).unwrap_err();
        assert!(report.starts_with("FAIL"), "{report}");
    }

    #[test]
    fn efficiency_gate_skips_on_small_hosts() {
        // A 1-CPU runner cannot exhibit a 4-way speedup; the gate must
        // notice and stand down rather than fail.
        let doc = parse(&EFFICIENCY_DOC.replace("\"host_cpus\": 8", "\"host_cpus\": 1")).unwrap();
        let report = efficiency_gate(&doc, 4, 0.6).unwrap();
        assert!(report.starts_with("SKIP"), "{report}");
    }

    #[test]
    fn efficiency_gate_rejects_documents_missing_the_lane_row() {
        let doc = parse(EFFICIENCY_DOC).unwrap();
        let report = efficiency_gate(&doc, 8, 0.6).unwrap_err();
        assert!(report.contains("no workers==8 row"), "{report}");
    }

    #[test]
    fn shape_changes_fail() {
        let base = parse(DOC).unwrap();
        let missing = parse(&DOC.replace("\"pages\": 4096,", "")).unwrap();
        let regressions = compare(&base, &missing, &Tolerances::default());
        assert!(regressions
            .iter()
            .any(|r| r.path == "pages" && r.detail.contains("missing")));
        let null_swap = parse(&DOC.replace("\"slo\": null", "\"slo\": {}")).unwrap();
        assert!(compare(&base, &null_swap, &Tolerances::default())
            .iter()
            .any(|r| r.path == "slo" && r.detail.contains("type changed")));
    }
}
