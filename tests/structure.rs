//! The workspace's structural rules, checked over its source text, and
//! the one count of its non-test lines.
//!
//! One walker reads the files under the roots a rule names and yields
//! every line with what a rule needs to know of where it sits: inside
//! its file's `mod tests` or not, a `//` comment or not, which `fn`
//! encloses it, and whether the file is a test-only module. Each rule is
//! a `#[test]` over those lines, named after the design point it keeps
//! single. The rules are text heuristics, not name resolution: they
//! match plain substrings, so a rule that refuses a name refuses it in a
//! string or a comment too unless it says it skips those.
//! `non_test_lines_per_crate` prints the line count
//! (`cargo test -q --test structure non_test_lines -- --nocapture`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::Path;

/// This file names every pattern the rules refuse, so no walk reads it.
const SELF: &str = "tests/structure.rs";

/// One line of a walked file.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Line {
    /// Path from the repository root, `/`-separated.
    file: String,
    /// 1-based line number.
    line: usize,
    text: String,
    /// On or after the line that opens the file's `mod tests` (`mod
    /// tests`, `pub mod tests` or `pub(crate) mod tests` at column 0),
    /// including the `#[cfg(test)]` just above it.
    in_tests: bool,
    /// A `//` comment line, doc comments included.
    comment: bool,
    /// The innermost `fn` whose signature or body holds the line (`""`
    /// outside any). Only code lines open or close a `fn`.
    fn_name: String,
    /// The file is a module its parent declares under `#[cfg(test)]`.
    test_only: bool,
}

impl Line {
    fn has(&self, any: &[&str]) -> bool {
        any.iter().any(|p| self.text.contains(p))
    }

    fn in_file(&self, name: &str) -> bool {
        self.file.rsplit('/').next() == Some(name)
    }

    fn in_fn(&self, file: &str, name: &str) -> bool {
        self.in_file(file) && self.fn_name == name
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.text)
    }
}

/// Every line of every file under `roots` (paths from the repository
/// root; a directory is walked recursively, a `*` component stands for
/// each directory there), files in path order. A root that does not
/// exist fails the walk.
fn walk(roots: &[&str]) -> Vec<Line> {
    let base = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = BTreeMap::new();
    for root in roots {
        for path in expand(base, root) {
            read(base, &path, &mut files);
        }
    }
    scan(&files)
}

fn expand(base: &Path, root: &str) -> Vec<String> {
    let Some((head, tail)) = root.split_once("/*/") else {
        return vec![root.to_string()];
    };
    let mut dirs: Vec<String> = fs::read_dir(base.join(head))
        .unwrap_or_else(|e| panic!("{head}: {e}"))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .map(|name| format!("{head}/{name}/{tail}"))
        .filter(|path| base.join(path).exists())
        .collect();
    dirs.sort();
    dirs
}

fn read(base: &Path, path: &str, files: &mut BTreeMap<String, String>) {
    let full = base.join(path);
    if full.is_dir() {
        for entry in fs::read_dir(&full).unwrap_or_else(|e| panic!("{path}: {e}")) {
            let name = entry.unwrap().file_name().into_string().unwrap();
            read(base, &format!("{path}/{name}"), files);
        }
    } else if path != SELF {
        let text = fs::read_to_string(&full).unwrap_or_else(|e| panic!("{path}: {e}"));
        files.insert(path.to_string(), text);
    }
}

/// The lines of `files` (path → text).
fn scan(files: &BTreeMap<String, String>) -> Vec<Line> {
    let test_only = test_only_modules(files);
    files
        .iter()
        .flat_map(|(path, text)| scan_file(path, text, test_only.contains(path)))
        .collect()
}

/// The paths a module of `files` declares under `#[cfg(test)]` could
/// live at.
fn test_only_modules(files: &BTreeMap<String, String>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (path, text) in files {
        let dir = match path.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir.to_string(),
            _ => path.trim_end_matches(".rs").to_string(),
        };
        let lines: Vec<&str> = text.lines().collect();
        for pair in lines.windows(2) {
            let decl = strip_vis(pair[1].trim_start()).strip_prefix("mod ");
            if let Some(name) = decl.and_then(|d| d.strip_suffix(';')) {
                if pair[0].trim() == "#[cfg(test)]" {
                    out.insert(format!("{dir}/{name}.rs"));
                    out.insert(format!("{dir}/{name}/mod.rs"));
                }
            }
        }
    }
    out
}

fn scan_file(path: &str, text: &str, test_only: bool) -> Vec<Line> {
    let mut out: Vec<Line> = Vec::new();
    let mut in_tests = false;
    // The open `fn`s, innermost last, each with the indent of its line:
    // a body closes at a `}` line, a bodiless signature at a `;` line, at
    // that indent (the layout `cargo fmt` keeps).
    let mut fns: Vec<(usize, String)> = Vec::new();
    for (i, text) in text.lines().enumerate() {
        let trimmed = text.trim_start();
        let indent = text.len() - trimmed.len();
        let comment = trimmed.starts_with("//");
        if opens_tests(text) {
            in_tests = true;
            if let Some(attr) = out.last_mut().filter(|l| l.text.trim() == "#[cfg(test)]") {
                attr.in_tests = true;
            }
        }
        let mut closes = false;
        if !comment && !trimmed.is_empty() {
            if let Some(name) = fn_item(trimmed) {
                fns.retain(|(open, _)| *open < indent);
                fns.push((indent, name.to_string()));
                closes = trimmed.ends_with('}') || trimmed.ends_with(';');
            } else {
                closes = fns.last().is_some_and(|(open, _)| *open == indent)
                    && (trimmed.starts_with('}') || trimmed.ends_with(';'));
            }
        }
        out.push(Line {
            file: path.to_string(),
            line: i + 1,
            text: text.to_string(),
            in_tests,
            comment,
            fn_name: fns.last().map_or("", |(_, name)| name).to_string(),
            test_only,
        });
        if closes {
            fns.pop();
        }
    }
    out
}

/// `s` without a leading `pub ` or `pub(<word>) `.
fn strip_vis(s: &str) -> &str {
    if let Some((scope, rest)) = s.strip_prefix("pub(").and_then(|r| r.split_once(") ")) {
        if !scope.is_empty() && scope.bytes().all(|b| b.is_ascii_lowercase()) {
            return rest;
        }
        return s;
    }
    s.strip_prefix("pub ").unwrap_or(s)
}

fn opens_tests(text: &str) -> bool {
    strip_vis(text)
        .strip_prefix("mod tests")
        .is_some_and(|rest| rest.is_empty() || rest.starts_with([' ', '{', ';']))
}

/// The name of the `fn` item a trimmed code line opens.
fn fn_item(trimmed: &str) -> Option<&str> {
    let mut rest = strip_vis(trimmed);
    while let Some(r) = ["const ", "async ", "unsafe "]
        .iter()
        .find_map(|q| rest.strip_prefix(q))
    {
        rest = r;
    }
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Whether `text` holds `word` with no `word_char` on either side.
fn has_word(text: &str, word: &str, word_char: fn(char) -> bool) -> bool {
    text.match_indices(word).any(|(i, _)| {
        !text[..i].chars().next_back().is_some_and(word_char)
            && !text[i + word.len()..].chars().next().is_some_and(word_char)
    })
}

/// `grep -w`'s word characters.
fn ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether the line declares the struct field `name` (indented, with or
/// without `pub` or `pub(<word>)`).
fn is_field(text: &str, name: &str) -> bool {
    text.starts_with(char::is_whitespace)
        && strip_vis(text.trim_start())
            .strip_prefix(name)
            .is_some_and(|rest| rest.starts_with(':'))
}

/// The lines of every span that opens at a line `opens` picks and closes
/// at the next line `closes` picks (both included), within one file.
fn within(
    lines: &[Line],
    opens: impl Fn(&Line) -> bool,
    closes: impl Fn(&Line) -> bool,
) -> Vec<&Line> {
    let mut inside = false;
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if i == 0 || lines[i - 1].file != line.file {
            inside = false;
        }
        inside |= opens(line);
        if inside {
            out.push(line);
            inside = !closes(line);
        }
    }
    out
}

/// The lines of every item whose first line `opens` picks, through the
/// next `}` at column 0.
fn item(lines: &[Line], opens: impl Fn(&str) -> bool) -> Vec<&Line> {
    within(lines, |l| opens(&l.text), |l| l.text.starts_with('}'))
}

/// Fails `rule`, listing every offending line.
fn refuse<'a>(rule: &str, hits: impl IntoIterator<Item = &'a Line>) {
    let hits: Vec<String> = hits.into_iter().map(Line::to_string).collect();
    assert!(hits.is_empty(), "{rule}:\n{}", hits.join("\n"));
}

/// Every line of `lines` that holds one of `any`.
fn grep<'a>(lines: &'a [Line], any: &'a [&str]) -> impl Iterator<Item = &'a Line> {
    lines.iter().filter(move |l| l.has(any))
}

const CORE: &str = "crates/core/src";

/// Every file `grep -r` reads in `crates src tests examples`.
const EVERYWHERE: [&str; 4] = ["crates", "src", "tests", "examples"];

/// The session tells its observers things one way, Session::emit; a
/// hook call, a span pushed by hand or a capture call is a second. The
/// report reads each checkpoint back from the same log; a hand-kept copy
/// of it beside the log is a second. The planes are folded once, at
/// Session::finish; planes kept beside the log are a second copy.
#[test]
fn one_event_log() {
    let four = walk(&[
        "crates/core/src/session.rs",
        "crates/core/src/checkpoint.rs",
        "crates/core/src/migrate.rs",
        "crates/core/src/pipeline.rs",
    ]);
    let hook = [
        "telemetry.on_",
        "spans.push",
        "spans.open",
        "spans.close",
        "capture_incident(",
    ];
    refuse("hand-wired observer call", grep(&four, &hook));
    let two = walk(&[
        "crates/core/src/session.rs",
        "crates/core/src/checkpoint.rs",
    ]);
    let copies = [
        "period_series",
        "degradation_series",
        "period_decisions",
        "max_ckpt_pages",
        "cpu_work",
        "checkpoints.push",
    ];
    refuse(
        "hand-kept copy of a checkpoint",
        two.iter()
            .filter(|l| copies.iter().any(|w| has_word(&l.text, w, ident_char))),
    );
    refuse(
        "planes beside the log",
        grep(&two, &["Planes::new", ".planes"]),
    );
}

/// A replica is written one way: the receive path's second pass
/// (Session::install_checkpoint installs the backlog as one
/// GuestMemory::install_batch, and dataplane::install_verified the
/// epoch's checked page records straight into the record table from
/// GuestMemory::records_mut). Every seeding round ships through it as a
/// seq-0 checkpoint stream; a page installed anywhere else skips the
/// codec, the checksum and the range check. Tests are not skipped.
#[test]
fn one_way_into_a_replica() {
    let core = walk(&[CORE]);
    refuse(
        "a page installed outside the receive path",
        grep(&core, &["install_page(", "install_batch(", "records_mut("]).filter(|l| {
            !l.in_fn("session.rs", "install_checkpoint")
                && !l.in_fn("dataplane.rs", "install_verified")
        }),
    );
}

/// A replica is reached one way: Session::fan_out sends every epoch,
/// seeding rounds included, draws the fault plane and retries. The
/// Transfer stage and the seeding migration call it; a stage or round
/// that prestages, applies or draws a fault itself is a second loop.
#[test]
fn one_send_loop() {
    let stages = walk(&["crates/core/src/pipeline.rs", "crates/core/src/migrate.rs"]);
    refuse(
        "a stage that sends",
        grep(
            &stages,
            &["prestage(", "apply_checkpoint(", ".transfer_fault("],
        ),
    );
    let core = walk(&[CORE]);
    refuse(
        "a fault drawn outside fan_out",
        grep(&core, &[".transfer_fault("])
            .filter(|l| !l.in_tests && !l.in_fn("session.rs", "fan_out")),
    );
}

/// A replica checks a stream (StreamDecoder::next_checked keeps each
/// page record as its own checked bytes), then installs straight from
/// them (dataplane::install_verified): the stream is the staging buffer.
/// A staging list lent to the receive path, a decode that appends pages,
/// an install from such a list or a per-replica apply buffer is a second
/// copy of every page; a receive site that decodes whole records
/// materialises every page a second time. The record-then-stage step
/// survives only as the tests' reference, in
/// crates/core/src/dataplane/reference.rs.
#[test]
fn the_wire_is_the_staging_buffer() {
    let crates = walk(&["crates"]);
    let staging = [
        "lend_staging",
        "return_staging",
        "next_record_into",
        "install_staged",
    ];
    refuse("a staging copy", grep(&crates, &staging));
    let topology = walk(&["crates/core/src/topology.rs"]);
    refuse(
        "a per-replica apply buffer",
        topology.iter().filter(|l| is_field(&l.text, "apply")),
    );
    let receive = walk(&["crates/core/src/session.rs", "crates/core/src/dataplane.rs"]);
    refuse("a whole-record decode", grep(&receive, &["next_record()"]));
}

/// Commit is decided once: CommitLedger::ack alone mints the Commit
/// token, and Session::on_commit alone spends it, releasing output
/// through DeviceManager::release and moving the v3 delta base. A second
/// site that folds acks into a flag, moves the base, releases every
/// buffered packet or appends to the ledger is a second decision.
#[test]
fn one_commit_decision() {
    let all = walk(&EVERYWHERE);
    refuse(
        "a second release",
        grep(&all, &["committed |=", "release_all"]),
    );
    let failover = walk(&["crates/core/src/failover.rs"]);
    refuse("a ledger append", grep(&failover, &["pub fn record"]));
    let core = walk(&[CORE]);
    refuse(
        "the delta base moved outside on_commit",
        core.iter().filter(|l| {
            l.text.match_indices("committed_epoch =").any(|(i, m)| {
                l.text[i + m.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| c != '=')
            }) && !l.in_fn("session.rs", "on_commit")
        }),
    );
}

/// A primary is faulted one way, by a fault-plan event. A scenario's
/// FailurePlan is input that engine.rs lowers into a time-keyed event;
/// run_replicated strikes it through checkpoint.rs's strike (which also
/// launches a re-attack at the activated replica), and an epoch-keyed
/// fault fires in Session::chaos_primary_fault. Matching on FailureCause
/// elsewhere, an apply function for it, or another site that downs a
/// host is a second firing path. Tests and comment lines are skipped.
#[test]
fn one_way_to_fault_the_primary() {
    let core = walk(&[CORE]);
    refuse(
        "a second firing path",
        core.iter()
            .filter(|l| !l.in_tests && !l.comment)
            .filter(|l| {
                (l.has(&["FailureCause"]) && !l.in_file("engine.rs"))
                    || l.has(&["fn apply_cause"])
                    || (l.has(&["inject_dos(", ".launch("])
                        && !l.in_fn("checkpoint.rs", "strike")
                        && !l.in_fn("session.rs", "chaos_primary_fault"))
            }),
    );
}

/// The metrics registry is plain data that one fold builds, on one
/// thread, after the run: the fold updates each metric by id. Atomic
/// handles, snapshot merges, quantile estimates or a second exporter
/// would be a live, concurrent surface nothing reads.
#[test]
fn telemetry_is_plain_data() {
    let telemetry = walk(&["crates/telemetry/src"]);
    refuse("a concurrent registry", grep(&telemetry, &["std::sync"]));
    let both = walk(&["crates/telemetry/src", CORE]);
    let gone = [
        "json_snapshot",
        "sync_counter",
        "_with_label(",
        "fn quantile",
    ];
    refuse("a deleted telemetry surface", grep(&both, &gone));
    let metrics = walk(&["crates/telemetry/src/metrics.rs"]);
    refuse("a snapshot merge", grep(&metrics, &["fn merge"]));
}

/// The session log is the one event schema. The flight recorder holds
/// the entries the fold renders from it; a typed copy of the log's
/// variants is a second schema that only a dump would read.
#[test]
fn one_event_schema() {
    refuse(
        "a typed copy of the log",
        grep(&walk(&EVERYWHERE), &["FlightEvent"]),
    );
}

/// A session spawns its worker threads once (LanePool's Builder::spawn)
/// and every harvest, encode round and replica fan-out runs on them. A
/// scoped or spawned thread elsewhere in core is a thread per
/// checkpoint. The one unsafe block is LanePool::scope's lifetime
/// erasure, which rests on the pool's drain. Tests are not skipped;
/// comment lines are.
#[test]
fn no_per_checkpoint_threads() {
    let core = walk(&[CORE]);
    refuse(
        "a thread per checkpoint",
        grep(&core, &["thread::scope", "thread::spawn"]),
    );
    refuse(
        "unsafe outside LanePool::scope",
        core.iter().filter(|l| {
            has_word(&l.text, "unsafe", |c| c.is_ascii_alphabetic() || c == '_')
                && !l.comment
                && !l.in_fn("dataplane.rs", "scope")
        }),
    );
}

/// Every pool job takes its work one way: a dataplane Claim, one atomic
/// cursor handing items 0..n out in index order (the encode round's
/// tasks, the fan-out's replicas, the seeding harvest's chunks).
/// Per-lane queues with a steal loop, a second hand-rolled cursor, or a
/// pool-side copy of the round stats (which the round returns, and the
/// session reports under the epoch that encoded) is a second way onto
/// the pool. Tests are skipped.
#[test]
fn one_way_onto_the_pool() {
    let dataplane = walk(&["crates/core/src/dataplane.rs"]);
    refuse(
        "a per-lane queue",
        grep(&dataplane, &["VecDeque", "pop_back"]),
    );
    let core = walk(&[CORE]);
    let stats = ["LanePoolTotals", "last_round", "pool_rounds_seen"];
    refuse("pool-side round stats", grep(&core, &stats));
    let claim = item(&core, |t| {
        [
            "struct Claim<",
            "pub struct Claim<",
            "pub(crate) struct Claim<",
            "impl<T> Claim<T>",
        ]
        .iter()
        .any(|p| t.starts_with(p))
    });
    refuse(
        "a second cursor",
        grep(&core, &["AtomicUsize"]).filter(|l| {
            let import = l.in_file("dataplane.rs") && l.text.starts_with("use ");
            !(l.in_tests || import || claim.contains(l))
        }),
    );
}

/// A page list is lent, never copied: an encode round is a
/// LanePool::scope that lends its page source (a seeding round's delta,
/// or the epoch's dirty snapshot) to its lanes, and a replica that
/// misses a seeding round merges the delta into its backlog by
/// reference. An owned round, a copied entry table or a cloned delta is
/// another pass over every page.
#[test]
fn the_page_list_is_lent() {
    let dataplane = walk(&["crates/core/src/dataplane.rs"]);
    let owned = ["Job::Encode", "Arc<Round>", "extend_from_slice(entries)"];
    refuse("an owned round", grep(&dataplane, &owned));
    refuse("a cloned delta", grep(&walk(&[CORE]), &["delta.clone()"]));
}

/// An epoch's per-page loops do only the work they keep: the dirty-bit
/// walk folds a word at a time (DirtyPagesIter's fold), the seeding
/// harvest and the encode lanes' snapshot walk read versions from the
/// record table, and a replica installs an epoch by storing into the
/// record table. A per-page page() or install_page() call in those loops
/// is the branchy path again. Tests are skipped.
#[test]
fn hot_loops_fold() {
    let dirty = walk(&["crates/hypervisor/src/dirty.rs"]);
    assert!(
        item(&dirty, |t| t
            .starts_with("impl Iterator for DirtyPagesIter"))
        .iter()
        .any(|l| l.has(&["fn fold"])),
        "impl Iterator for DirtyPagesIter has no fn fold"
    );
    let loops = walk(&[
        "crates/core/src/transfer.rs",
        "crates/core/src/dataplane.rs",
    ]);
    refuse(
        "a per-page call in a hot loop",
        grep(&loops, &[".page(", "install_page("]).filter(|l| {
            !l.in_tests
                && (l.in_fn("transfer.rs", "fill_slots")
                    || l.in_fn("transfer.rs", "pages")
                    || l.in_fn("dataplane.rs", "install_verified"))
        }),
    );
}

/// The primary stays paused from Pause to Resume, so the epoch's dirty
/// snapshot over its record table is the page list: Harvest keeps the
/// snapshot and its per-chunk counts, and the encode lanes, the abort
/// and a missed replica's backlog read it. A harvest that collects a
/// delta, or a pooled delta beside the snapshot, is a copy of every
/// dirty page per epoch. Tests are skipped.
#[test]
fn the_dirty_snapshot_is_the_harvest() {
    let pipeline = walk(&["crates/core/src/pipeline.rs"]);
    refuse(
        "a harvest that collects a delta",
        grep(&pipeline, &["collect_chunked_into("])
            .filter(|l| !l.in_tests && l.fn_name == "harvest"),
    );
    let dataplane = walk(&["crates/core/src/dataplane.rs"]);
    let pools = item(&dataplane, |t| t.starts_with("pub struct CheckpointPools"));
    refuse(
        "a pooled delta",
        pools.into_iter().filter(|l| is_field(&l.text, "delta")),
    );
}

/// The simulated hypervisor keeps one dirty log, the shadow bitmap:
/// DirtyTracker::enable_logging switches it on and
/// Hypervisor::snapshot_dirty reads and clears it, on Xen and KVM alike.
/// A per-vCPU ring, a hypervisor-specific read-and-clear call, a call
/// counter or a page-touched counter beside it is state that no caller
/// reads. Tests are skipped.
#[test]
fn one_dirty_log() {
    let hypervisor = walk(&["crates/hypervisor/src"]);
    let gone = [
        "PmlRing",
        "shadow_op_",
        "enable_dirty_log",
        "get_dirty_log",
        "harvest_vcpu_dirty_ring",
        "ioctl_count",
        "clear_rings",
    ];
    refuse(
        "a second dirty log",
        grep(&hypervisor, &gone).filter(|l| !l.in_tests),
    );
    let memory = walk(&["crates/hypervisor/src/memory.rs"]);
    refuse(
        "a page-touched counter",
        memory.iter().filter(|l| is_field(&l.text, "touched")),
    );
}

/// A page-columns record's columns are read from a plain slice taken
/// once, eight one-byte varints to a word where it can; a cursor holding
/// the Bytes would re-deref it for every byte.
#[test]
fn columns_index_a_slice() {
    let wire = walk(&["crates/vmstate/src/wire.rs"]);
    refuse("a cursor over Bytes", grep(&wire, &["bytes: &'a Bytes"]));
}

/// The incident bundle is a seed: spec, config, fault plan, fingerprint
/// and trigger. A rendered plane output written into it is a second copy
/// of what a fold over the regenerated log says.
#[test]
fn the_bundle_is_a_seed() {
    let planes = [
        "flight",
        "commits",
        "acks",
        "spans",
        "transitions",
        "series_tail",
        "capture_active",
        "capture_alert_log",
        "alert_log",
        "active_alerts",
    ];
    let writes: Vec<String> = ["leaf", "list"]
        .iter()
        .flat_map(|w| planes.iter().map(move |p| format!("w.{w}(\"{p}\"")))
        .collect();
    let writes: Vec<&str> = writes.iter().map(String::as_str).collect();
    let postmortem = walk(&["crates/core/src/postmortem.rs"]);
    refuse("a rendered plane in the bundle", grep(&postmortem, &writes));
}

/// A setting that no run sets is a constant: HEARTBEAT and RETRY in
/// config.rs, the analyzer's and the alert engine's thresholds, the
/// health machine's recovery window. Every `with_*` builder on
/// ReplicationConfig and every ScenarioBuilder method needs a caller
/// outside the tests (each file is cut at its `mod tests`), and the
/// threshold structs that had none stay deleted. A builder method's name
/// is often a common one (`name`, `seed`, `build`), so it counts only
/// inside a builder's span: from a `Scenario::builder()` line to the
/// closing brace of the function or method around it.
#[test]
fn every_knob_has_a_caller() {
    let code: Vec<Line> = walk(&["crates/*/src", "src", "examples", "benchmark/src"])
        .into_iter()
        .filter(|l| l.file.ends_with(".rs") && !l.in_tests)
        .collect();
    let in_builder = within(
        &code,
        |l| l.has(&["Scenario::builder()"]),
        |l| l.text == "}" || l.text == "    }",
    );
    let all: Vec<&Line> = code.iter().collect();
    let knobs = [
        (
            "crates/core/src/config.rs",
            "impl ReplicationConfig ",
            "pub fn with_",
            &all,
        ),
        (
            "crates/core/src/engine.rs",
            "impl ScenarioBuilder ",
            "pub fn ",
            &in_builder,
        ),
    ];
    let mut missing = Vec::new();
    for (file, impl_line, prefix, callers) in knobs {
        let lines = walk(&[file]);
        let names: Vec<&str> = item(&lines, |t| t.starts_with(impl_line))
            .into_iter()
            .filter_map(|l| {
                let name = &l.text[l.text.find(prefix)? + "pub fn ".len()..];
                Some(&name[..name.find(|c| !ident_char(c)).unwrap_or(name.len())])
            })
            .collect();
        assert!(
            !names.is_empty(),
            "no `{prefix}` in `{impl_line}` of {file}"
        );
        for name in names {
            let call = format!(".{name}(");
            if !callers.iter().any(|l| l.text.contains(&call)) {
                missing.push(name.to_string());
            }
        }
    }
    assert!(missing.is_empty(), "no non-test caller: {missing:?}");
    let gone = ["AlertRules", "HealthPolicy", "AnalyzerConfig"];
    refuse(
        "a deleted threshold struct",
        walk(&EVERYWHERE)
            .iter()
            .filter(|l| gone.iter().any(|w| has_word(&l.text, w, ident_char))),
    );
}

/// The one line count of the workspace: the non-test lines of each
/// crate's `src/`, each file cut at its `mod tests`, blank and `//`
/// lines skipped, test-only modules skipped.
#[test]
fn non_test_lines_per_crate() {
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    for l in walk(&["crates/*/src"]) {
        let counted = l.file.ends_with(".rs")
            && !l.file.contains("/tests/")
            && !l.test_only
            && !l.in_tests
            && !l.comment
            && !l.text.trim().is_empty();
        let krate = l.file.split('/').nth(1).unwrap().to_string();
        *per_crate.entry(krate).or_default() += usize::from(counted);
    }
    let total: usize = per_crate.values().sum();
    println!("non-test lines under crates/*/src:");
    for (krate, lines) in &per_crate {
        println!("  {krate:<12} {lines:>6}");
    }
    println!("  {:<12} {total:>6}", "total");
    assert!(total > 0);
}

/// The walker on an inline fixture: the three `mod tests` forms, a doc
/// line that reads like a `fn`, a nested `fn`, a bodiless signature and a
/// test-only module.
#[test]
fn the_walker_reads_a_fixture() {
    let lib = "\
pub mod public;
pub mod scoped;
#[cfg(test)]
pub(crate) mod helper;

/// Doubles, as in
/// fn twice(x: u32) -> u32 {
pub fn outer() -> u32 {
    fn inner() -> u32 {
        1
    }
    inner() + 1
}

pub trait Sized {
    fn size(&self) -> usize;
    fn name(
        &self,
    ) -> String;
}

#[cfg(test)]
mod tests {
    fn check() {}
}
";
    let public = "fn a() {}\n\n#[cfg(test)]\npub mod tests {\n    fn b() {}\n}\n";
    let scoped = "fn a() {}\n\npub(crate) mod tests {\n    fn b() {}\n}\n";
    let helper = "pub fn reference() {}\n";
    let files: BTreeMap<String, String> = [
        ("src/lib.rs", lib),
        ("src/public.rs", public),
        ("src/scoped.rs", scoped),
        ("src/helper.rs", helper),
    ]
    .into_iter()
    .map(|(path, text)| (path.to_string(), text.to_string()))
    .collect();
    let lines = scan(&files);
    // (file, line) → (in_tests, comment, fn_name, test_only)
    let at = |file: &str, line: usize| {
        let l = lines
            .iter()
            .find(|l| l.file == file && l.line == line)
            .unwrap_or_else(|| panic!("{file}:{line}"));
        (l.in_tests, l.comment, l.fn_name.as_str(), l.test_only)
    };
    let lib = "src/lib.rs";
    assert_eq!(
        at(lib, 3),
        (false, false, "", false),
        "a test-only declaration"
    );
    assert_eq!(
        at(lib, 7),
        (false, true, "", false),
        "a doc line names no fn"
    );
    assert_eq!(at(lib, 8), (false, false, "outer", false));
    assert_eq!(at(lib, 9), (false, false, "inner", false), "a nested fn");
    assert_eq!(at(lib, 10), (false, false, "inner", false));
    assert_eq!(
        at(lib, 11),
        (false, false, "inner", false),
        "its closing brace"
    );
    assert_eq!(
        at(lib, 12),
        (false, false, "outer", false),
        "back in the outer fn"
    );
    assert_eq!(at(lib, 13), (false, false, "outer", false));
    assert_eq!(at(lib, 14), (false, false, "", false), "after the fn");
    assert_eq!(at(lib, 16), (false, false, "size", false), "a bodiless fn");
    assert_eq!(at(lib, 17), (false, false, "name", false));
    assert_eq!(
        at(lib, 19),
        (false, false, "name", false),
        "its signature's end"
    );
    assert_eq!(at(lib, 20), (false, false, "", false));
    assert_eq!(at(lib, 21), (false, false, "", false));
    assert_eq!(
        at(lib, 22),
        (true, false, "", false),
        "the cfg above mod tests"
    );
    assert_eq!(at(lib, 23), (true, false, "", false), "mod tests");
    assert_eq!(at(lib, 24), (true, false, "check", false));
    assert_eq!(at("src/public.rs", 3), (true, false, "", false));
    assert_eq!(
        at("src/public.rs", 4),
        (true, false, "", false),
        "pub mod tests"
    );
    assert_eq!(at("src/public.rs", 5), (true, false, "b", false));
    assert_eq!(at("src/scoped.rs", 2), (false, false, "", false));
    assert_eq!(
        at("src/scoped.rs", 3),
        (true, false, "", false),
        "pub(crate) mod tests"
    );
    assert_eq!(
        at("src/helper.rs", 1),
        (false, false, "reference", true),
        "test-only"
    );
}
