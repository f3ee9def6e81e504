//! The bench-trajectory regression gate: diffs a freshly produced
//! `BENCH_*.json` against a committed baseline and reports every
//! difference.
//!
//! `repro` reports virtual time, byte counts and fingerprints only
//! (seeded RNG, threads derived from vCPUs), so there is one rule and no
//! per-key policy: the two documents must be structurally equal — same
//! keys (in any order), same types, same array lengths, same strings,
//! and numbers equal when their literals are (`4096` is not `4096.0`).
//! Wall-clock numbers are measured and compared by the stand-alone
//! `benchmark/` package, never here. Both files are read as the
//! [`Json`] type `repro` wrote them from.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{parse, Json};

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
            let child = |k: &str| join(path, k);
            let (base_keys, fresh_keys) = (by_key(b), by_key(f));
            for (k, bv) in b {
                match fresh_keys.get(k.as_str()) {
                    Some(fv) => walk(bv, fv, &child(k), out),
                    None => out.push(Regression {
                        path: child(k),
                        detail: "missing in fresh output".to_string(),
                    }),
                }
            }
            for (k, _) in f {
                if !base_keys.contains_key(k.as_str()) {
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
            if b != f {
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

/// The path of member `key` of the object at `path` (top-level members
/// carry no leading dot).
fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Members pair up by key, whatever order each file states them in.
fn by_key(members: &[(String, Json)]) -> BTreeMap<&str, &Json> {
    members.iter().map(|(k, v)| (k.as_str(), v)).collect()
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
pub(crate) mod tests {
    use super::*;

    const CHAOS: &str = include_str!("../../../baselines/BENCH_chaos.json");
    const DATAPATH: &str = include_str!("../../../baselines/BENCH_datapath.json");
    const HEALTH: &str = include_str!("../../../baselines/BENCH_health.json");
    const OBSERVE: &str = include_str!("../../../baselines/BENCH_observe.json");
    const POSTMORTEM: &str = include_str!("../../../baselines/BENCH_postmortem.json");
    const TOPOLOGY: &str = include_str!("../../../baselines/BENCH_topology.json");
    const WIRE: &str = include_str!("../../../baselines/BENCH_wire.json");

    /// What each experiment's own test asserts of the document it hands
    /// to `repro`: the writer's output reads back as the same value, the
    /// gate passes it against itself, and no key names a host-dependent
    /// quantity (wall-clock time, core counts, the ungated exports).
    pub(crate) fn assert_gateable(doc: &Json) {
        assert_eq!(parse(&doc.write()), Ok(doc.clone()));
        assert!(compare(doc, doc).is_empty());
        for path in paths(doc) {
            for word in ["wall", "host_cpus", "prometheus", "flight_recorder"] {
                assert!(!path.contains(word), "host-dependent key at '{path}'");
            }
        }
    }

    /// The path of every node of `doc`, root (`""`) first, spelled the way
    /// [`Regression::path`] spells them.
    fn paths(doc: &Json) -> Vec<String> {
        fn collect(node: &Json, path: String, out: &mut Vec<String>) {
            match node {
                Json::Obj(members) => {
                    for (k, v) in members {
                        collect(v, join(&path, k), out);
                    }
                }
                Json::Arr(items) => {
                    for (i, v) in items.iter().enumerate() {
                        collect(v, format!("{path}[{i}]"), out);
                    }
                }
                _ => {}
            }
            out.push(path);
        }
        let mut out = Vec::new();
        collect(doc, String::new(), &mut out);
        out.reverse();
        out
    }

    /// The node at `path` (no key of a gated document holds `.` or `[`).
    fn node_at<'a>(root: &'a mut Json, path: &str) -> &'a mut Json {
        let mut node = root;
        for step in path.split(['.', '[']).filter(|s| !s.is_empty()) {
            node = match (node, step.strip_suffix(']')) {
                (Json::Arr(items), Some(i)) => &mut items[i.parse::<usize>().unwrap()],
                (Json::Obj(members), None) => members
                    .iter_mut()
                    .find_map(|(k, v)| (k == step).then_some(v))
                    .unwrap_or_else(|| panic!("{path}: no key '{step}'")),
                _ => panic!("{path}: '{step}' does not fit the document"),
            };
        }
        node
    }

    fn regression_paths(base: &Json, fresh: &Json) -> Vec<String> {
        compare(base, fresh).into_iter().map(|r| r.path).collect()
    }

    /// The shared negative-gate harness every suite leans on: the
    /// unperturbed document must self-compare clean, then each
    /// `(from, to, path)` case — `from` replaced by `to` in the written
    /// form of the leaf at `path` — must be caught as exactly one
    /// regression at `path`.
    fn assert_gate_catches(doc: &str, cases: &[(&str, &str, &str)]) {
        let base = parse(doc).unwrap();
        assert!(
            compare(&base, &base).is_empty(),
            "document must self-compare clean"
        );
        for (from, to, path) in cases {
            let mut fresh = base.clone();
            let leaf = node_at(&mut fresh, path);
            let written = leaf.write();
            assert!(written.contains(from), "{path} is {written}, not '{from}'");
            *leaf = parse(&written.replace(from, to)).unwrap();
            assert_eq!(regression_paths(&base, &fresh), [*path]);
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
        assert_eq!(doc.get("experiment"), Some(&Json::from("datapath")));
        assert_eq!(doc.get("pages"), Some(&Json::from(4096u64)));
        assert_eq!(doc.get("slo"), Some(&Json::Null));
        let Some(Json::Arr(workers)) = doc.get("workers") else {
            panic!("workers")
        };
        assert_eq!(workers.len(), 2);
        // A float keeps the literal it was written as.
        assert_eq!(
            workers[1].get("analytic_parallelism"),
            Some(&Json::Num("1.8".to_string()))
        );
        // Members keep the order the file states them in.
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["experiment", "pages", "workers", "wire_bytes", "slo"]
        );
    }

    #[test]
    fn parser_decodes_escapes() {
        let doc = parse("{\"s\":\"a\\\"b\\nc\\u0041\\ud83d\\ude00\"}").unwrap();
        assert_eq!(doc.get("s"), Some(&Json::from("a\"b\ncA😀")));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"\\u+041\"").is_err());
        assert!(parse("\"\\u00").is_err());
    }

    #[test]
    fn hostile_json_is_a_typed_error_or_a_regression() {
        // Never a panic, never a PASS. An f64 parse with a relative
        // epsilon passed all four of these pairs...
        let differ = [
            (r#"{"bytes": 5000000001}"#, r#"{"bytes": 5000000002}"#),
            (r#"{"k": 9007199254740993}"#, r#"{"k": 9007199254740992}"#),
            (r#"{"k": 1e999}"#, r#"{"k": 2e999}"#),
            (r#"{"k": "\ud83d\ude00"}"#, r#"{"k": "\ud83d\ude01"}"#),
        ];
        for (baseline, fresh) in differ {
            let (baseline, fresh) = (parse(baseline).unwrap(), parse(fresh).unwrap());
            assert_eq!(regression_paths(&baseline, &fresh).len(), 1);
        }
        // ...unbounded recursion overflowed the stack on the first of
        // these, and the lone surrogate halves, `1.` and `01` parsed.
        let nested = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        let rejected = [
            nested.as_str(),
            r#"{"k": "\ud83d"}"#,
            r#"{"k": "\ude00\ud83d"}"#,
            r#"{"k": 1.}"#,
            r#"{"k": 01}"#,
            r#"{"k": -}"#,
            r#"{"k": 1e}"#,
        ];
        for doc in rejected {
            let err = parse(doc).unwrap_err();
            assert!(err.contains(" at byte "), "{err}");
        }
        // The depth bound is exact, and the gate reports it like any other
        // parse error.
        let at_limit = format!("{}{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&at_limit).is_ok());
        let err = parse(&format!("[{at_limit}]")).unwrap_err();
        assert_eq!(err, "nesting deeper than 64 at byte 64");
        let path = std::env::temp_dir().join(format!("gate-nested-{}.json", std::process::id()));
        std::fs::write(&path, &nested).unwrap();
        let report = gate_files(path.to_str().unwrap(), path.to_str().unwrap()).unwrap_err();
        assert!(
            report.contains("is not valid JSON: nesting deeper than 64"),
            "{report}"
        );
        let _ = std::fs::remove_file(path);
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
        assert_eq!(doc.get("s"), Some(&Json::Str(body.replace("\\n", "\n"))));
    }

    #[test]
    fn self_compare_passes() {
        let doc = parse(DOC).unwrap();
        assert!(compare(&doc, &doc).is_empty());
        // Objects pair up by key: member order is not part of equality.
        let reordered = parse(r#"{"b": [1, {"d": 2, "c": 3}], "a": null}"#).unwrap();
        let ordered = parse(r#"{"a": null, "b": [1, {"c": 3, "d": 2}]}"#).unwrap();
        assert!(compare(&ordered, &reordered).is_empty());
    }

    #[test]
    fn perturbed_deterministic_field_fails() {
        // The negative test the CI gate hinges on: a synthetic
        // perturbation of a deterministic field must be caught — down to
        // the literal, so a value that merely prints differently is one.
        assert_gate_catches(
            DOC,
            &[
                ("4096", "4097", "pages"),
                ("4096", "4096.0", "pages"),
                ("1.8", "1.9", "workers[1].analytic_parallelism"),
                ("1.8", "1.80", "workers[1].analytic_parallelism"),
            ],
        );
    }

    #[test]
    fn every_leaf_key_and_array_of_every_committed_baseline_is_gated() {
        // Exhaustive over the documents the gate actually gates: each
        // leaf replaced, each key renamed, each array shortened, one at a
        // time, and each must surface as exactly the regression(s) at
        // that path.
        let (mut leaves, mut keys, mut arrays) = (0, 0, 0);
        for text in [CHAOS, DATAPATH, HEALTH, OBSERVE, POSTMORTEM, TOPOLOGY, WIRE] {
            let base = parse(text).unwrap();
            assert!(compare(&base, &base).is_empty());
            for path in paths(&base) {
                let mut fresh = base.clone();
                let node = node_at(&mut fresh, &path);
                match &mut *node {
                    Json::Num(literal) => literal.push('1'),
                    Json::Str(s) => s.push('x'),
                    Json::Bool(b) => *b = !*b,
                    Json::Null => *node = Json::Obj(Vec::new()),
                    Json::Arr(items) => {
                        items.pop().expect("no committed array is empty");
                        arrays += 1;
                    }
                    Json::Obj(members) => {
                        for i in 0..members.len() {
                            let mut renamed = base.clone();
                            let Json::Obj(clone) = node_at(&mut renamed, &path) else {
                                unreachable!("{path} is an object in the clone too")
                            };
                            clone[i].0.push_str("_renamed");
                            let old = join(&path, &members[i].0);
                            assert_eq!(
                                regression_paths(&base, &renamed),
                                [old.clone(), old + "_renamed"][..],
                            );
                            keys += 1;
                        }
                        continue;
                    }
                }
                if !matches!(node, Json::Arr(_)) {
                    leaves += 1;
                }
                assert_eq!(regression_paths(&base, &fresh), [path]);
            }
        }
        // Not vacuous: the seven documents hold 375 leaves, 399 keys and 6
        // arrays today.
        assert!(
            leaves >= 300 && keys >= 300 && arrays >= 6,
            "visited {leaves} leaves, {keys} keys, {arrays} arrays"
        );
    }

    #[test]
    fn silently_renamed_chaos_key_fails_as_missing_plus_unexpected() {
        // A rename must never slip through as "key went away, key
        // appeared": the gate reports both sides so the diff is loud.
        let base = parse(CHAOS).unwrap();
        let renamed =
            parse(&CHAOS.replace("\"transfer_retries\"", "\"transfer_attempts\"")).unwrap();
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
            CHAOS,
            &[
                (".", ".1", "sweep.worst_staleness_ms"),
                (".000", ".001", "crash.detection_ms"),
            ],
        );
        assert_gate_catches(
            r#"{"total_ms": 10.5, "host_cpus": 1, "steals": {"prometheus": "a"}}"#,
            &[
                ("10.5", "10.6", "total_ms"),
                ("1", "2", "host_cpus"),
                ("a", "b", "steals.prometheus"),
            ],
        );
    }

    #[test]
    fn chaos_invariant_and_fingerprint_flips_fail() {
        assert_gate_catches(
            CHAOS,
            &[
                ("true", "false", "crash.crash_resumes_last_acked"),
                ("true", "false", "determinism.deterministic"),
                ("0x", "0y", "determinism.fingerprint"),
                ("4", "5", "crash.resumed_from_checkpoint"),
            ],
        );
    }

    #[test]
    fn silently_renamed_topology_key_fails_as_missing_plus_unexpected() {
        // Same loud-rename guarantee as the chaos artifact: dropping
        // `worst_staleness_ms` for a new name must report both sides, in
        // every row it occurs in.
        let base = parse(TOPOLOGY).unwrap();
        let renamed =
            parse(&TOPOLOGY.replace("\"worst_staleness_ms\"", "\"max_staleness_ms\"")).unwrap();
        let Some(Json::Arr(rows)) = base.get("rows") else {
            panic!("rows")
        };
        let regressions = compare(&base, &renamed);
        assert_eq!(regressions.len(), 2 * rows.len());
        for i in 0..rows.len() {
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
            TOPOLOGY,
            &[
                ("true", "false", "bit_compat.bit_compatible"),
                ("0x", "0y", "determinism.fingerprint"),
                ("0", "1", "rows[17].stalest_replica"),
                (".", ".1", "rows[17].worst_staleness_ms"),
                (".", ".1", "rows[17].mean_commit_latency_ms"),
            ],
        );
    }

    #[test]
    fn quiet_run_growing_an_alert_fails() {
        // The plane's core promise: a fault-free run fires nothing. One
        // alert appearing in the quiet scenario must be a regression.
        assert_gate_catches(HEALTH, &[("0", "1", "quiet.alerts_fired")]);
    }

    #[test]
    fn reordered_or_renamed_alert_arcs_fail() {
        assert_gate_catches(
            HEALTH,
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
            HEALTH,
            &[
                ("0x", "0y", "stale.alert_log_hash"),
                ("0x", "0y", "quiet.series_hash"),
                ("true", "false", "determinism.deterministic"),
                (
                    "r2:lagging->stale@7",
                    "r2:lagging->stale@8",
                    "stale.transition_sequence",
                ),
            ],
        );
    }

    #[test]
    fn postmortem_integrity_and_replay_flips_fail() {
        assert_gate_catches(
            POSTMORTEM,
            &[
                ("true", "false", "integrity.rejects_tampering"),
                ("true", "false", "integrity.rejects_unknown_version"),
                ("true", "false", "replay.verified"),
                ("0x", "0y", "capture.bundle_hash"),
                ("true", "false", "forensics.fingerprint_reproduced"),
                ("r2:acks9/15", "r2:acks10/15", "forensics.divergence"),
                (
                    "quorum_at_risk:firing@7",
                    "quorum_at_risk:firing@8",
                    "forensics.alert_timeline",
                ),
                (".", ".1", "forensics.throughput_delta_pct"),
            ],
        );
    }

    #[test]
    fn wire_bytes_and_transfer_leaves_are_exact() {
        assert_gate_catches(
            WIRE,
            &[
                (".", ".1", "rows[1].bytes_per_epoch"),
                (".", ".1", "rows[1].mean_transfer_ms"),
                (".", ".1", "reductions[0].bytes_ratio"),
            ],
        );
    }

    #[test]
    fn wire_negotiation_and_bitcompat_flips_fail() {
        assert_gate_catches(
            WIRE,
            &[
                ("3,2,3", "3,3,3", "negotiation[1].negotiated"),
                ("true", "false", "bit_compat.bit_compatible"),
                ("true", "false", "determinism.deterministic"),
                ("0x", "0y", "determinism.fingerprint"),
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
        let grown = parse(&DOC.replace("\"slo\": null", "\"slo\": null, \"slo_v2\": null"));
        assert_eq!(regression_paths(&base, &grown.unwrap()), ["slo_v2"]);
        let renamed = parse(&DOC.replace("\"pages\"", "\"pages_v2\"")).unwrap();
        assert_eq!(regression_paths(&base, &renamed), ["pages", "pages_v2"]);
    }
}
