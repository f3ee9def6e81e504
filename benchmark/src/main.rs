//! `here-benchmark`: the repo's yardstick.
//!
//! `run` executes one workload in this process: it generates every input
//! from the seed, times calls into the crates' public functions only,
//! checks every output, and prints each metric by name and unit. The last
//! line of standard output is one JSON object for the driver. `compare`
//! holds two result sets against the bounds in `BENCHMARK.json`.
//!
//! See `benchmark/README.md` for the workloads, the metrics and how they
//! are expected to move together.

mod json;
mod pages;
mod probes;
mod session;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use stats::{median, percentile_of};
use trace::Tracer;

/// The seed results are quoted for, and a second one no change is tuned
/// on. `BENCHMARK.json` has no key that could hold them.
pub const DEFAULT_SEED: u64 = 0x4845_5245;
pub const HELD_OUT_SEED: u64 = 0x2023_1211;

/// Measuring time when `--seconds` is absent; `run_seconds` in
/// `BENCHMARK.json` says the same.
const DEFAULT_SECONDS: u64 = 25;

/// Ops that always run, however slow the host, and over which the figures
/// that must repeat exactly for a seed are folded. Ops beyond them add
/// timing samples only.
pub const EXACT_OPS: u64 = 16;

/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUPS: usize = 5;

const OUT_DIR: &str = "benchmark/out";

pub const WORKLOADS: [&str; 4] = [
    "pages_v2_bulk",
    "pages_v3_sparse",
    "session_kv",
    "session_quorum_faults",
];

/// End-to-end metrics: name and unit, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("pages_per_s", "pages/s"),
    ("wire_bytes_per_page", "B"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `<crate>.<module>.<metric>` and unit.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("hypervisor.memory.materialize_ns_per_page", "ns"),
    ("hypervisor.memory.install_ns_per_page", "ns"),
    ("hypervisor.dirty.iter_ns_per_page", "ns"),
    ("hypervisor.vm.guest_write_ns", "ns"),
    ("vmstate.simd.checksum_ns_per_page", "ns"),
    ("vmstate.wire.v2_frame_ns_per_page", "ns"),
    ("vmstate.wire.v2_decode_ns_per_page", "ns"),
    ("vmstate.wire.v3_classify_ns_per_page", "ns"),
    ("vmstate.wire.v3_encode_ns_per_page", "ns"),
    ("vmstate.wire.v3_decode_ns_per_page", "ns"),
    ("vmstate.wire.v3_materialize_ns_per_page", "ns"),
    ("vmstate.wire.v3_zero_share", "ratio"),
    ("vmstate.wire.v3_delta_share", "ratio"),
    ("vmstate.wire.v3_full_share", "ratio"),
    ("vmstate.wire.meta_v2_ns_per_page", "ns"),
    ("vmstate.wire.meta_v3_ns_per_page", "ns"),
    ("vmstate.translate.vcpu_ns", "ns"),
    ("core.transfer.harvest_ns_per_page", "ns"),
    ("core.dataplane.encode_self_ms", "ms"),
    ("core.dataplane.restore_ms", "ms"),
    ("core.dataplane.encode_1lane_ns_per_page", "ns"),
    ("core.dataplane.parallel_speedup", "ratio"),
    ("core.dataplane.lane_occupancy_pct", "%"),
    ("core.dataplane.steals_per_op", "count"),
    ("core.dataplane.pool_miss_share", "ratio"),
    ("core.pipeline.harvest_wall_ns_per_page", "ns"),
    ("core.pipeline.translate_wall_ns_per_page", "ns"),
    ("core.pipeline.transfer_wall_ns_per_page", "ns"),
    ("core.session.wall_ns_per_dirty_page", "ns"),
    ("core.session.wall_us_per_checkpoint", "us"),
    ("core.session.replication_wall_share", "ratio"),
    ("core.session.sim_s_per_wall_s", "ratio"),
    ("core.session.sim_pause_ms", "ms"),
    ("core.session.sim_degradation_pct", "%"),
    ("core.session.sim_staleness_ms", "ms"),
    ("core.session.sim_commit_latency_ms", "ms"),
    ("core.failover.sim_outage_ms", "ms"),
    ("core.failover.ledger_ack_ns", "ns"),
    ("core.chaos.faults_per_op", "count"),
    ("core.chaos.retries_per_op", "count"),
    ("core.chaos.aborted_epochs_share", "ratio"),
    ("core.telemetry.planes_overhead_pct", "%"),
    ("core.postmortem.bundle_roundtrip_ms", "ms"),
    ("core.analyze.trace_ms", "ms"),
    ("telemetry.export.prometheus_ms", "ms"),
    ("telemetry.span.spans_per_op", "count"),
    ("telemetry.flight.dropped_share", "ratio"),
    ("workloads.guest_wall_share", "ratio"),
    ("workloads.advance_ns_per_page_write", "ns"),
    ("sim-core.queue.push_pop_ns", "ns"),
    ("benchmark.memcpy_ns_per_page", "ns"),
    ("benchmark.generator_ms_per_op", "ms"),
    ("benchmark.trace_overhead_pct", "%"),
    ("benchmark.failed_ops_share", "ratio"),
    ("benchmark.op_ms_p50_untraced", "ms"),
    ("benchmark.op_ms_p50_traced", "ms"),
    ("benchmark.span_nesting_violations", "count"),
];

/// Metrics in virtual time or plain counts: two runs of one seed must
/// agree on them to the last digit.
const EXACT: [&str; 9] = [
    "wire_bytes_per_page",
    "core.session.sim_pause_ms",
    "core.session.sim_degradation_pct",
    "core.session.sim_staleness_ms",
    "core.session.sim_commit_latency_ms",
    "core.failover.sim_outage_ms",
    "core.chaos.faults_per_op",
    "core.chaos.retries_per_op",
    "core.chaos.aborted_epochs_share",
];

/// What one op did, as the loop that drives it needs to know.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Wall time of the replication work alone.
    pub wall_ns: u64,
    /// Wall time the benchmark spent making the op's inputs.
    pub generator_ns: u64,
    /// Dirty pages replicated and verified.
    pub pages: u64,
    /// Encoded stream bytes, and the pages they carry.
    pub wire_bytes: u64,
    pub wire_pages: u64,
    /// Every check on the op's outputs held.
    pub ok: bool,
}

pub trait Workload {
    /// Runs op `index`: generates its inputs, times the work, checks the
    /// outputs.
    fn op(&mut self, index: u64, tracer: &mut Tracer) -> Op;

    /// After a traced run: the per-layer figures only this workload can
    /// give, from its spans and its own counters. The isolated probes
    /// cover the rest.
    fn layer_metrics(&self, _tracer: &Tracer, _ledger: &mut Ledger) {}
}

/// The per-layer figures of a traced run; a layer nothing measured reads 0.
pub struct Ledger(Vec<(&'static str, &'static str, f64)>);

impl Ledger {
    fn new() -> Self {
        Ledger(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, 0.0))
                .collect(),
        )
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let entry = self.0.iter_mut().find(|(n, _, _)| *n == name);
        entry
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .2 = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |e| e.2)
    }
}

fn build(workload: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match workload {
        "pages_v2_bulk" => Box::new(pages::V2Bulk::new(seed)),
        "pages_v3_sparse" => Box::new(pages::V3Sparse::new(seed)),
        "session_kv" => Box::new(session::Session::new(session::Kind::Kv, seed)),
        "session_quorum_faults" => {
            Box::new(session::Session::new(session::Kind::QuorumFaults, seed))
        }
        _ => return None,
    })
}

/// What the closed loop saw: one generator, the next op starting when the
/// previous one has been verified.
#[derive(Debug, Default)]
struct Measured {
    /// Per op: wall milliseconds, and whether it ran traced.
    ops: Vec<(f64, bool)>,
    generator_ms: Vec<f64>,
    untraced_pages: u64,
    untraced_wall_ns: u64,
    exact_wire_bytes: u64,
    exact_wire_pages: u64,
    failed: u64,
}

impl Measured {
    fn op_ms(&self, traced: bool) -> Vec<f64> {
        let of_kind = self.ops.iter().filter(|(_, t)| *t == traced);
        of_kind.map(|(ms, _)| *ms).collect()
    }
}

/// Drives `workload` for `seconds`, and for [`EXACT_OPS`] ops at least.
/// In a traced run every other op records spans; the ops between them run
/// exactly as in an untraced run and are what the two are compared on.
fn measure(
    workload: &mut dyn Workload,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
) -> Measured {
    let mut measured = Measured::default();
    let started = Instant::now();
    let mut index = 0u64;
    while index < EXACT_OPS || started.elapsed().as_secs_f64() < seconds {
        let traced = trace && index % 2 == 1;
        tracer.begin_op(index, traced);
        let op = workload.op(index, tracer);
        measured.ops.push((op.wall_ns as f64 / 1e6, traced));
        measured.generator_ms.push(op.generator_ns as f64 / 1e6);
        if !traced {
            measured.untraced_pages += op.pages;
            measured.untraced_wall_ns += op.wall_ns;
        }
        if index < EXACT_OPS {
            measured.exact_wire_bytes += op.wire_bytes;
            measured.exact_wire_pages += op.wire_pages;
        }
        measured.failed += u64::from(!op.ok);
        index += 1;
    }
    tracer.begin_op(index, false);
    measured
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let kib = line.and_then(|rest| {
        rest.trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<f64>()
            .ok()
    });
    kib.unwrap_or(0.0) / 1024.0
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Samples behind a timing.
    samples: Option<usize>,
}

struct RunOptions {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

struct RunResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl RunResult {
    /// The metrics as a JSON object. The driver's line holds exactly
    /// `value` and `unit` for each; the result document adds the sample
    /// count behind a timing.
    fn metrics_json(&self, with_samples: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let samples = match m.samples {
                Some(n) if with_samples => format!(", \"n\": {n}"),
                _ => String::new(),
            };
            write!(
                out,
                "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    fn driver_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(options: &RunOptions) -> Result<RunResult, String> {
    let RunOptions {
        workload: name,
        seed,
        seconds,
        trace,
    } = options;
    let simd = here_vmstate::simd::active().name();
    println!(
        "# {name}: seed {seed}, {seconds} s, trace {}, host_cpus {}, simd {simd}, {}",
        u8::from(*trace),
        host_cpus(),
        env!("BENCH_RUSTC_VERSION"),
    );

    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(
            build(name, *seed)
                .ok_or_else(|| format!("unknown workload {name:?}; known: {WORKLOADS:?}"))?,
        );
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUPS is at least one");

    let mut tracer = Tracer::new();
    let measured = measure(workload.as_mut(), *seconds as f64, *trace, &mut tracer);
    let attempted = measured.ops.len() as u64;
    let untraced_ms = measured.op_ms(false);

    let mut result = RunResult {
        metrics: Vec::new(),
        attempted,
        failed: measured.failed,
        correct: measured.failed == 0,
    };
    if !trace {
        let values = [
            (median(&setups), Some(SETUPS)),
            (median(&untraced_ms), Some(untraced_ms.len())),
            (percentile_of(&untraced_ms, 90.0), Some(untraced_ms.len())),
            (
                measured.untraced_pages as f64 / (measured.untraced_wall_ns as f64 / 1e9),
                None,
            ),
            (
                measured.exact_wire_bytes as f64 / measured.exact_wire_pages as f64,
                None,
            ),
            (peak_rss_mib(), None),
        ];
        for (&(name, unit), (value, samples)) in END_TO_END.iter().zip(values) {
            result.metrics.push(Metric {
                name,
                unit,
                value,
                samples,
            });
        }
    } else {
        let traced_ms = measured.op_ms(true);
        let mut ledger = Ledger::new();
        ledger.set("benchmark.op_ms_p50_untraced", median(&untraced_ms));
        ledger.set("benchmark.op_ms_p50_traced", median(&traced_ms));
        ledger.set(
            "benchmark.trace_overhead_pct",
            (median(&traced_ms) / median(&untraced_ms) - 1.0) * 100.0,
        );
        ledger.set(
            "benchmark.generator_ms_per_op",
            median(&measured.generator_ms),
        );
        ledger.set(
            "benchmark.failed_ops_share",
            measured.failed as f64 / attempted as f64,
        );
        let violations = trace::nesting_violations(tracer.spans());
        ledger.set("benchmark.span_nesting_violations", violations as f64);
        result.correct &= violations == 0;
        workload.layer_metrics(&tracer, &mut ledger);
        drop(workload);
        probes::run(*seed, &mut ledger);

        let (model_alpha_ns, model_speedup) = probes::model_constants();
        println!(
            "# measured alpha {:.1} ns/page beside CostModel::checkpoint_cpu_per_page {model_alpha_ns:.1} ns/page",
            ledger.get("core.dataplane.encode_1lane_ns_per_page"),
        );
        println!(
            "# measured 2-lane speed-up {:.3} beside CostModel::effective_parallelism(2) {model_speedup:.3} (host_cpus {})",
            ledger.get("core.dataplane.parallel_speedup"),
            host_cpus(),
        );
        let samples = |name: &str| match name {
            "benchmark.op_ms_p50_untraced" => Some(untraced_ms.len()),
            "benchmark.op_ms_p50_traced" => Some(traced_ms.len()),
            _ => None,
        };
        for &(name, unit, value) in &ledger.0 {
            result.metrics.push(Metric {
                name,
                unit,
                value,
                samples: samples(name),
            });
        }
        write_out(&format!("{name}.spans.jsonl"), &tracer.to_jsonl())?;
    }

    for m in &result.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("{:<46} {:>16.4} {}{samples}", m.name, m.value, m.unit);
    }
    println!(
        "# ops attempted {attempted}, failed {}, setups {SETUPS}",
        result.failed
    );
    let document = format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"host_cpus\": {}, \"simd\": \"{simd}\", \"rustc\": \"{}\", \"correct\": {}, \
         \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}\n",
        host_cpus(),
        env!("BENCH_RUSTC_VERSION"),
        result.correct,
        result.failed,
        result.metrics_json(true),
    );
    let kind = if *trace { "trace" } else { "e2e" };
    write_out(&format!("{name}.{kind}.json"), &document)?;
    Ok(result)
}

fn write_out(file: &str, contents: &str) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(file);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks candidate `b` against baseline `a`: the first metric that is
/// out of its bound, or differs where it must repeat exactly, is the
/// error.
fn compare_documents(bounds: &Json, a: &Json, b: &Json) -> Result<usize, String> {
    for (side, doc) in [("baseline", a), ("candidate", b)] {
        let failed = doc.get("failed").and_then(Json::as_f64);
        if failed != Some(0.0) || doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("failed_ops_share: the {side} has failed ops"));
        }
    }
    for key in ["workload", "seed", "trace"] {
        if a.get(key) != b.get(key) {
            return Err(format!("the two results differ in {key:?}: not comparable"));
        }
    }
    let value_of = |doc: &Json, name: &str| {
        let metric = doc.get("metrics").and_then(|m| m.get(name));
        metric.and_then(|m| m.get("value")).and_then(Json::as_f64)
    };
    let declared = bounds.get("end_to_end").map_or(&[][..], Json::as_array);
    let mut checked = 0;
    for (name, _) in a.get("metrics").map_or(&[][..], Json::members) {
        let base = value_of(a, name).ok_or(format!("{name}: no value in the baseline"))?;
        let new = value_of(b, name).ok_or(format!("{name}: missing from the candidate"))?;
        if EXACT.contains(&name.as_str()) {
            if base != new {
                return Err(format!(
                    "{name}: {base} became {new}, but must repeat exactly"
                ));
            }
            checked += 1;
            continue;
        }
        let Some(metric) = declared
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        let worse_by = match metric.get("better").and_then(Json::as_str) {
            Some("higher") => (base - new) / base,
            _ => (new - base) / base,
        };
        if worse_by > bound {
            return Err(format!(
                "{name}: {base} became {new}, worse by {:.2} % against a bound of {:.2} %",
                worse_by * 100.0,
                bound * 100.0
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let bounds = read_json(Path::new("BENCHMARK.json"))?;
    let pairs: Vec<(PathBuf, PathBuf)> = if a.is_dir() {
        let listing =
            std::fs::read_dir(a).map_err(|e| format!("cannot list {}: {e}", a.display()))?;
        let mut names: Vec<_> = listing
            .filter_map(|entry| entry.ok().map(|e| e.file_name()))
            .filter(|n| n.to_string_lossy().ends_with(".json"))
            .collect();
        names.sort();
        names.iter().map(|n| (a.join(n), b.join(n))).collect()
    } else {
        vec![(a.to_path_buf(), b.to_path_buf())]
    };
    if pairs.is_empty() {
        return Err(format!("no result documents in {}", a.display()));
    }
    for (a, b) in pairs {
        let checked = compare_documents(&bounds, &read_json(&a)?, &read_json(&b)?)
            .map_err(|e| format!("{}: {e}", b.display()))?;
        println!("{}: {checked} metrics within bounds", b.display());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// command line
// ---------------------------------------------------------------------

const USAGE: &str = "usage:
  here-benchmark run <workload> [--seed <u64>] [--seconds <n>] [--trace [0|1]]
  here-benchmark run --workload <workload> --seed <u64> --seconds <n> --trace <0|1>
  here-benchmark compare <baseline.json|dir> <candidate.json|dir>
workloads: pages_v2_bulk pages_v3_sparse session_kv session_quorum_faults";

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut options = RunOptions {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = args.iter().peekable();
    let number = |flag: &str, value: Option<&String>| -> Result<u64, String> {
        let value = value.ok_or(format!("{flag} needs a value"))?;
        value
            .parse()
            .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                options.workload = args.next().ok_or("--workload needs a value")?.clone();
            }
            "--seed" => options.seed = number("--seed", args.next())?,
            "--seconds" => options.seconds = number("--seconds", args.next())?,
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                options.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") | Some("1") => args.next().is_some_and(|v| v == "1"),
                    _ => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            workload => options.workload = workload.to_string(),
        }
    }
    if options.workload.is_empty() {
        return Err("no workload named".to_string());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|options| {
            let result = run(&options)?;
            println!("{}", result.driver_line());
            Ok(())
        }),
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("here-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// `pages_v2_bulk` with a link that flips a byte in op 1's first
    /// segment. The flip happens in a copy the test makes; the library
    /// only ever decodes what it is handed.
    struct Tampered(pages::V2Bulk);

    impl Workload for Tampered {
        fn op(&mut self, index: u64, tracer: &mut Tracer) -> Op {
            let mut flip = index == 1;
            self.0.epoch(tracer, &mut |segment| {
                if !std::mem::take(&mut flip) {
                    return segment;
                }
                let mut copy = segment.to_vec();
                let middle = copy.len() / 2;
                copy[middle] ^= 0x40;
                Bytes::from(copy)
            })
        }
    }

    #[test]
    fn a_corrupted_segment_is_counted_as_a_failed_op() {
        let mut workload = Tampered(pages::V2Bulk::new(3));
        let measured = measure(&mut workload, 0.0, false, &mut Tracer::new());
        assert_eq!(measured.ops.len() as u64, EXACT_OPS);
        assert_eq!(measured.failed, 1, "exactly the tampered op fails");
    }

    #[test]
    fn traced_runs_alternate_and_leave_well_formed_spans() {
        let mut workload = pages::V3Sparse::new(3);
        let mut tracer = Tracer::new();
        let measured = measure(&mut workload, 0.0, true, &mut tracer);
        assert_eq!(measured.failed, 0);
        assert_eq!(measured.op_ms(true).len() as u64, EXACT_OPS / 2);
        assert_eq!(measured.op_ms(false).len() as u64, EXACT_OPS / 2);
        assert!(tracer.spans().iter().all(|s| s.op % 2 == 1));
        assert_eq!(trace::nesting_violations(tracer.spans()), 0);
        assert_eq!(tracer.per_op_ns("op", false).len() as u64, EXACT_OPS / 2);
    }

    #[test]
    fn the_metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = read_json(&path).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            let metrics = doc.get(key).unwrap().as_array().iter();
            metrics
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), table(&END_TO_END));
        assert_eq!(declared("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        assert!(EXACT[1..]
            .iter()
            .all(|e| PER_LAYER.iter().any(|(n, _)| n == e)));
    }

    fn result_doc(metrics: &[(&str, f64)]) -> Json {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
            .collect();
        json::parse(&format!(
            "{{\"workload\": \"w\", \"seed\": 1, \"trace\": false, \"correct\": true, \
             \"failed\": 0, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn compare_names_the_first_metric_out_of_bounds() {
        let bounds = json::parse(
            r#"{"end_to_end": [
                {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "pages_per_s", "unit": "pages/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let base = result_doc(&[
            ("op_ms_p50", 10.0),
            ("pages_per_s", 100.0),
            ("wire_bytes_per_page", 578.25),
            ("vmstate.simd.checksum_ns_per_page", 80.0),
        ]);
        let within = result_doc(&[
            ("op_ms_p50", 10.9),
            ("pages_per_s", 91.0),
            ("wire_bytes_per_page", 578.25),
            ("vmstate.simd.checksum_ns_per_page", 800.0),
        ]);
        assert_eq!(compare_documents(&bounds, &base, &within), Ok(3));
        // Getting better is never out of bounds.
        let better = result_doc(&[
            ("op_ms_p50", 1.0),
            ("pages_per_s", 900.0),
            ("wire_bytes_per_page", 578.25),
            ("vmstate.simd.checksum_ns_per_page", 8.0),
        ]);
        assert_eq!(compare_documents(&bounds, &base, &better), Ok(3));

        let slower = result_doc(&[("op_ms_p50", 11.5), ("pages_per_s", 100.0)]);
        let err = compare_documents(&bounds, &base, &slower).unwrap_err();
        assert!(err.starts_with("op_ms_p50:"), "{err}");
        let fewer = result_doc(&[("op_ms_p50", 10.0), ("pages_per_s", 80.0)]);
        let err = compare_documents(&bounds, &base, &fewer).unwrap_err();
        assert!(err.starts_with("pages_per_s:"), "{err}");
        let inexact = result_doc(&[
            ("op_ms_p50", 10.0),
            ("pages_per_s", 100.0),
            ("wire_bytes_per_page", 578.26),
        ]);
        let err = compare_documents(&bounds, &base, &inexact).unwrap_err();
        assert!(err.starts_with("wire_bytes_per_page:"), "{err}");
    }

    #[test]
    fn both_command_line_forms_parse() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let issue = parse_run(&args("session_kv --seed 9 --trace")).unwrap();
        assert_eq!((issue.workload.as_str(), issue.seed), ("session_kv", 9));
        assert!(issue.trace && issue.seconds == DEFAULT_SECONDS);
        let driver = parse_run(&args(
            "--workload pages_v2_bulk --seed 4 --seconds 7 --trace 0",
        ))
        .unwrap();
        assert_eq!(driver.workload, "pages_v2_bulk");
        assert_eq!((driver.seed, driver.seconds, driver.trace), (4, 7, false));
        assert!(parse_run(&args("--workload x --trace 1")).unwrap().trace);
        assert!(parse_run(&args("--seed 1")).is_err());
        assert!(parse_run(&args("x --seed nine")).is_err());
        assert!(parse_run(&args("x --bogus")).is_err());
    }
}
