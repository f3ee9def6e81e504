//! `repro` — regenerate every table and figure of the HERE paper.
//!
//! ```text
//! repro [--quick] [--list] [--format json|prometheus|chrome] [EXPERIMENT...]
//! repro replay <bundle>
//! ```
//!
//! With no experiment arguments, runs everything. `--list` prints every
//! experiment (the `EXPERIMENTS` table) with its description and
//! artifacts and exits. `--quick` uses scaled-down configurations.
//! Every `BENCH_*.json` with a committed baseline holds virtual
//! (cost-model) time, byte counts and fingerprints only — identical on
//! every host; wall-clock cost is measured by the stand-alone
//! `benchmark/` package and nowhere here (`analyze`'s straggler-lane
//! listing, read from the run's own span records, is the one
//! host-dependent print left).
//! `datapath` reports the v2-vs-v3 wire density, the cost model's α and
//! per-lane parallelism and the virtual-time encode/transfer overlap, and
//! writes `target/repro/BENCH_datapath.json`; `observe` runs the
//! telemetry showcase scenario and writes `target/repro/BENCH_observe.json`
//! plus the ungated `observe.prom` and `observe_flight.json` dumps;
//! `analyze` runs the trace analyzer and writes the run's Chrome trace to
//! `target/repro/trace_analyze.json`; `chaos` runs seeded fault plans
//! against the replication loop and writes `target/repro/BENCH_chaos.json`;
//! `topology` sweeps replica count, quorum size and fan-out mode and
//! writes `target/repro/BENCH_topology.json`; `health` arms the
//! replication health plane and writes `target/repro/BENCH_health.json`
//! plus the alert-log and series JSONL exports; `postmortem` captures an
//! incident bundle from an induced quorum-at-risk partition, replays it
//! (same fingerprint, same trigger) and diffs the replay against the
//! fault-stripped baseline, writing `target/repro/BENCH_postmortem.json`
//! plus the bundle and the forensics reports; `wire` compares wire format v3 (epoch-delta
//! columnar records) against the v2 stream on two workloads plus the
//! negotiation matrix and writes `target/repro/BENCH_wire.json`.
//! `repro replay <bundle>` re-executes a previously
//! captured `incident.bundle` and verifies the reproduction.
//!
//! Everything printed is also teed to `target/repro/repro_output.txt`.
//! With `--format`, every scenario run additionally dumps its telemetry
//! under `target/repro/` in the chosen format: `json` writes the span
//! stream as JSONL, `prometheus` the metrics exposition, `chrome` a
//! Chrome trace-event document.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use here_bench::experiments::analyze::run_analyze;
use here_bench::experiments::apps::{
    run_spec_figure, run_ycsb_figure, Config, FIG11_CONFIGS, FIG12_CONFIGS, FIG13_CONFIGS,
};
use here_bench::experiments::chaos::{run_chaos, CRASH_EPOCH};
use here_bench::experiments::checkpoint::{run_fig5, run_fig8};
use here_bench::experiments::datapath::run_datapath;
use here_bench::experiments::dynamic::{run_fig10, run_fig9};
use here_bench::experiments::health::run_health;
use here_bench::experiments::migration::{run_fig6_idle, run_fig6_loaded, run_fig7};
use here_bench::experiments::network::run_fig17;
use here_bench::experiments::observe::run_observe;
use here_bench::experiments::overhead::run_overhead;
use here_bench::experiments::postmortem::run_postmortem;
use here_bench::experiments::security::{
    run_heterogeneity_demo, run_table1, run_table2, run_table5,
};
use here_bench::experiments::stages::run_stages;
use here_bench::experiments::topology::run_topology;
use here_bench::experiments::wire::run_wire;
use here_bench::experiments::{fanout_name, PLAN_SEED, RUN_SEED};
use here_bench::tables::{num, render};
use here_bench::Scale;
use here_core::Strategy;

/// An experiment's runner.
type Runner = fn(Scale);

/// Every experiment, in default run order: name, one-line description,
/// artifacts (`-` for none) and runner. `--list`, name validation and
/// dispatch all read this table.
const EXPERIMENTS: &[(&str, &str, &str, Runner)] = &[
    (
        "tab1",
        "DoS vulnerability stats by hypervisor, 2013-2020",
        "-",
        |_| tab1(),
    ),
    (
        "tab2",
        "HERE's coverage of DoS issues from various sources",
        "-",
        |_| tab2(),
    ),
    (
        "tab5",
        "distribution of DoS-only vulnerabilities (Xen)",
        "-",
        |_| tab5(),
    ),
    (
        "demo",
        "same zero-day re-attacked across the heterogeneous pair",
        "-",
        |_| demo(),
    ),
    (
        "fig5",
        "linearity of page send time f(N) = alpha*N",
        "-",
        fig5,
    ),
    (
        "fig6",
        "migration time vs memory size, idle and loaded",
        "-",
        fig6,
    ),
    ("fig7", "replica resumption time vs memory size", "-", fig7),
    (
        "fig8",
        "checkpoint transfer and degradation vs memory size",
        "-",
        fig8,
    ),
    (
        "fig9",
        "dynamic period vs load step (D = 30%, T_max = 25 s)",
        "-",
        fig9,
    ),
    ("fig10", "dynamic period under YCSB workload A", "-", fig10),
    ("fig11", "YCSB throughput, fixed periods", "-", |s| {
        ycsb_fig("Figure 11 — YCSB, fixed periods", s, &FIG11_CONFIGS)
    }),
    ("fig12", "YCSB throughput, degradation targets", "-", |s| {
        ycsb_fig("Figure 12 — YCSB, degradation targets", s, &FIG12_CONFIGS)
    }),
    ("fig13", "YCSB throughput, degradation + T_max", "-", |s| {
        ycsb_fig("Figure 13 — YCSB, degradation + T_max", s, &FIG13_CONFIGS)
    }),
    ("fig14", "SPEC rates, fixed periods", "-", |s| {
        spec_fig("Figure 14 — SPEC, fixed periods", s, &FIG11_CONFIGS)
    }),
    ("fig15", "SPEC rates, degradation targets", "-", |s| {
        spec_fig("Figure 15 — SPEC, degradation targets", s, &FIG12_CONFIGS)
    }),
    ("fig16", "SPEC rates, degradation + T_max", "-", |s| {
        spec_fig("Figure 16 — SPEC, degradation + T_max", s, &FIG13_CONFIGS)
    }),
    (
        "fig17",
        "Sockperf mean latency under replication",
        "-",
        fig17,
    ),
    (
        "overhead",
        "replication engine CPU and memory overhead",
        "-",
        overhead,
    ),
    (
        "stages",
        "pipeline stage breakdown vs the Eq. 4 cost model",
        "-",
        stages,
    ),
    (
        "datapath",
        "wire density v2 vs v3, cost-model parallelism, virtual overlap",
        "BENCH_datapath.json",
        datapath,
    ),
    (
        "observe",
        "telemetry showcase run: metric, flight-event and SLO counts",
        "BENCH_observe.json, observe.prom, observe_flight.json",
        observe,
    ),
    (
        "analyze",
        "causal trace analysis: critical path, stragglers, breaches",
        "trace_analyze.json, trace_analyze.jsonl, BENCH_analyze.json",
        analyze,
    ),
    (
        "chaos",
        "seeded fault injection, retry/backoff, failover invariants",
        "BENCH_chaos.json",
        chaos,
    ),
    (
        "topology",
        "replica count x quorum x fan-out sweep with bit-compat proof",
        "BENCH_topology.json",
        topology,
    ),
    (
        "health",
        "health plane: per-replica states, series, deterministic alerts",
        "BENCH_health.json, health_alerts.jsonl, health_series.jsonl",
        health,
    ),
    (
        "postmortem",
        "postmortem plane: incident capture, bundle replay, differential forensics",
        "BENCH_postmortem.json, incident.bundle, postmortem.json, postmortem_report.txt",
        postmortem,
    ),
    (
        "wire",
        "wire format v3 vs v2: bytes per epoch, transfer time, negotiation",
        "BENCH_wire.json",
        wire,
    ),
];

/// Directory all artefacts land in (relative to the invocation cwd, like
/// the old top-level `BENCH_*.json` files were).
const OUT_DIR: &str = "target/repro";

/// Tee target for everything printed (None when the directory could not
/// be created — output then goes to stdout only).
static TEE: Mutex<Option<std::fs::File>> = Mutex::new(None);

macro_rules! out {
    ($($arg:tt)*) => {{
        let s = format!($($arg)*);
        print!("{s}");
        if let Some(f) = TEE.lock().unwrap().as_mut() {
            let _ = f.write_all(s.as_bytes());
        }
    }};
}

macro_rules! outln {
    () => { out!("\n") };
    ($($arg:tt)*) => {{
        let s = format!($($arg)*);
        println!("{s}");
        if let Some(f) = TEE.lock().unwrap().as_mut() {
            let _ = f.write_all(s.as_bytes());
            let _ = f.write_all(b"\n");
        }
    }};
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DumpFormat {
    Json,
    Prometheus,
    Chrome,
}

/// Installs a run observer that dumps every scenario run's telemetry in
/// the chosen format under [`OUT_DIR`].
fn install_dumper(format: DumpFormat) {
    static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);
    here_core::set_run_observer(move |report| {
        let n = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        let slug: String = report
            .name
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '-' })
            .collect();
        let (path, body) = match format {
            DumpFormat::Json => (
                format!("{OUT_DIR}/run-{n:03}-{slug}.spans.jsonl"),
                here_telemetry::spans_jsonl(&report.spans),
            ),
            DumpFormat::Prometheus => (
                format!("{OUT_DIR}/run-{n:03}-{slug}.prom"),
                report
                    .telemetry
                    .as_ref()
                    .map(|t| t.prometheus())
                    .unwrap_or_default(),
            ),
            DumpFormat::Chrome => (
                format!("{OUT_DIR}/run-{n:03}-{slug}.trace.json"),
                here_telemetry::chrome_trace(&report.spans),
            ),
        };
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("  could not write {path}: {e}");
        }
    });
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay") {
        return replay_bundle(args.get(1).map(String::as_str));
    }
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let mut format = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {}
            "--list" => {
                println!("experiments ({} total):", EXPERIMENTS.len());
                for (name, description, artifacts, _) in EXPERIMENTS {
                    println!("  {name:<9} {description}");
                    if *artifacts != "-" {
                        println!("  {:<9}   writes {artifacts}", "");
                    }
                }
                println!("\nall artefacts land under {OUT_DIR}/; everything printed is teed to {OUT_DIR}/repro_output.txt");
                return ExitCode::SUCCESS;
            }
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("json") => Some(DumpFormat::Json),
                    Some("prometheus") => Some(DumpFormat::Prometheus),
                    Some("chrome") => Some(DumpFormat::Chrome),
                    other => {
                        eprintln!(
                            "--format expects json|prometheus|chrome, got {}",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::FAILURE;
                    }
                };
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                return ExitCode::FAILURE;
            }
            exp => wanted.push(exp.to_lowercase()),
        }
        i += 1;
    }
    let mut runners: Vec<Runner> = Vec::new();
    for w in &wanted {
        match EXPERIMENTS.iter().find(|(name, ..)| name == w) {
            Some(&(.., run)) => runners.push(run),
            None => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|&(name, ..)| name).collect();
                eprintln!("unknown experiment '{w}'; known: {}", known.join(", "));
                return ExitCode::FAILURE;
            }
        }
    }
    if runners.is_empty() {
        runners = EXPERIMENTS.iter().map(|&(.., run)| run).collect();
    }
    match std::fs::create_dir_all(OUT_DIR) {
        Ok(()) => {
            *TEE.lock().unwrap() = std::fs::File::create(format!("{OUT_DIR}/repro_output.txt"))
                .map_err(|e| eprintln!("tee disabled: {e}"))
                .ok();
        }
        Err(e) => eprintln!("tee disabled: could not create {OUT_DIR}: {e}"),
    }
    if let Some(format) = format {
        install_dumper(format);
    }
    outln!(
        "HERE reproduction — scale: {}\n",
        if quick { "quick" } else { "paper" }
    );
    for run in runners {
        run(scale);
    }
    here_core::clear_run_observer();
    ExitCode::SUCCESS
}

fn tab1() {
    outln!("Table 1 — DoS vulnerability stats by hypervisor, 2013-2020");
    let rows: Vec<Vec<String>> = run_table1()
        .into_iter()
        .map(|r| {
            vec![
                r.product.to_string(),
                r.cves.to_string(),
                r.avail.to_string(),
                format!("{}%", num(r.avail_pct, 1)),
                r.dos.to_string(),
                format!("{}%", num(r.dos_pct, 1)),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &["Product", "CVEs", "Avail", "Avail%", "DoS", "DoS%"],
            &rows
        )
    );
}

fn tab2() {
    outln!("Table 2 — HERE's coverage of DoS issues from various sources");
    outln!("(host-failure cells validated by running a failover scenario each)");
    let rows: Vec<Vec<String>> = run_table2()
        .into_iter()
        .map(|r| {
            vec![
                r.source.label().to_string(),
                if r.guest_covered { "Yes" } else { "No" }.into(),
                if r.host_covered { "Yes" } else { "No" }.into(),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(&["Source", "Guest failure", "Host failure"], &rows)
    );
}

fn tab5() {
    outln!("Table 5 — Distribution of DoS-only vulnerabilities (Xen)");
    let rows: Vec<Vec<String>> = run_table5()
        .into_iter()
        .map(|r| {
            vec![
                r.target.label().to_string(),
                r.outcome.to_string(),
                format!("{}%", num(r.share_pct, 1)),
                if r.here_applicable { "Applicable" } else { "-" }.into(),
            ]
        })
        .collect();
    outln!("{}", render(&["Target", "Outcome", "Share", "HERE"], &rows));
}

fn demo() {
    outln!("Heterogeneity demo — same zero-day, primary then failover re-attack");
    let d = run_heterogeneity_demo();
    let rows = vec![
        vec!["exploited CVE".into(), d.cve_id.clone()],
        vec![
            "HERE primary (Xen) downed".into(),
            d.here_primary_down.to_string(),
        ],
        vec![
            "HERE service survives re-attack on KVM replica".into(),
            d.here_service_survived.to_string(),
        ],
        vec![
            "HERE client-visible outage (ms)".into(),
            num(d.here_outage_ms, 1),
        ],
        vec![
            "homogeneous (Remus) survives re-attack".into(),
            d.homogeneous_service_survived.to_string(),
        ],
        vec![
            "CVEs shared by HERE's pair (Xen-PV / KVM+kvmtool)".into(),
            d.shared_cves_here_pair.to_string(),
        ],
        vec![
            "CVEs a Xen+QEMU / QEMU-KVM pair would share".into(),
            d.shared_cves_qemu_pair.to_string(),
        ],
    ];
    outln!("{}", render(&["Property", "Value"], &rows));
}

fn fig5(scale: Scale) {
    outln!("Figure 5 — linearity of page send time f(N) = alpha*N");
    let out = run_fig5(scale);
    outln!(
        "  {} checkpoints observed; fit: slope = {} us/page, intercept = {} ms, r^2 = {}\n",
        out.points.len(),
        num(out.fit.slope * 1e6, 3),
        num(out.fit.intercept * 1e3, 2),
        num(out.fit.r_squared, 4),
    );
    // A decimated scatter for the series.
    let step = (out.points.len() / 12).max(1);
    let rows: Vec<Vec<String>> = out
        .points
        .iter()
        .step_by(step)
        .map(|&(n, t)| vec![format!("{:.0}", n / 1000.0), num(t, 3)])
        .collect();
    outln!("{}", render(&["Dirty pages (K)", "Send time (s)"], &rows));
}

fn fig6(scale: Scale) {
    outln!("Figure 6 (left) — migration time, idle VM");
    let rows: Vec<Vec<String>> = run_fig6_idle(scale)
        .iter()
        .map(|r| {
            vec![
                r.x.to_string(),
                num(r.xen_secs, 1),
                num(r.here_secs, 1),
                format!("{}%", num(r.improvement_pct(), 1)),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(&["Memory (GiB)", "Xen (s)", "HERE (s)", "HERE gain"], &rows)
    );
    outln!("Figure 6 (right) — migration time, VM under memory load");
    let rows: Vec<Vec<String>> = run_fig6_loaded(scale)
        .iter()
        .map(|r| {
            vec![
                format!("{}%", r.x),
                num(r.xen_secs, 1),
                num(r.here_secs, 1),
                format!("{}%", num(r.improvement_pct(), 1)),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(&["Load", "Xen (s)", "HERE (s)", "HERE gain"], &rows)
    );
}

fn fig7(scale: Scale) {
    outln!("Figure 7 — replica resumption time (paper: ~10 ms, flat in memory)");
    let idle = run_fig7(scale, false);
    let loaded = run_fig7(scale, true);
    let rows: Vec<Vec<String>> = idle
        .iter()
        .zip(&loaded)
        .map(|(i, l)| {
            vec![
                i.gib.to_string(),
                num(i.resumption_ms, 2),
                num(l.resumption_ms, 2),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(&["Memory (GiB)", "Idle (ms)", "Loaded (ms)"], &rows)
    );
}

fn fig8(scale: Scale) {
    for (loaded, label) in [
        (false, "idle VM (panes a/c)"),
        (true, "30% load (panes b/d)"),
    ] {
        outln!("Figure 8 — checkpoint transfer & degradation, {label}, T = 8 s");
        let rows: Vec<Vec<String>> = run_fig8(scale, loaded)
            .iter()
            .map(|r| {
                vec![
                    r.gib.to_string(),
                    num(r.remus_secs * 1e3, 1),
                    num(r.here_secs * 1e3, 1),
                    format!("{}%", num(r.improvement_pct(), 0)),
                    format!("{}%", num(r.remus_deg_pct, 2)),
                    format!("{}%", num(r.here_deg_pct, 2)),
                ]
            })
            .collect();
        outln!(
            "{}",
            render(
                &[
                    "Memory (GiB)",
                    "Remus (ms)",
                    "HERE (ms)",
                    "HERE gain",
                    "Remus deg",
                    "HERE deg"
                ],
                &rows
            )
        );
    }
}

fn series_table(series: &[(f64, f64)], every: usize, col: &str) -> String {
    let rows: Vec<Vec<String>> = series
        .iter()
        .step_by(every.max(1))
        .map(|&(t, v)| vec![num(t, 1), num(v, 2)])
        .collect();
    render(&["Time (s)", col], &rows)
}

fn fig9(scale: Scale) {
    outln!("Figure 9 — dynamic period vs load (D = 30%, T_max = 25 s, load 20->80->5%)");
    let out = run_fig9(scale);
    outln!(
        "  steady-state mean overhead: {}% (set: {}%)\n",
        num(out.steady_mean_deg_pct, 1),
        num(out.target_pct, 0)
    );
    outln!("Period over time:");
    out!(
        "{}",
        series_table(&out.period, out.period.len() / 18, "Period (s)")
    );
    outln!("Measured overhead over time:");
    out!(
        "{}",
        series_table(&out.degradation, out.degradation.len() / 18, "Overhead (%)")
    );
    outln!();
}

fn fig10(scale: Scale) {
    outln!("Figure 10 — dynamic period under YCSB workload A (D = 30%)");
    let out = run_fig10(scale);
    outln!(
        "  throughput: HERE {} ops/s vs baseline {} ops/s -> slowdown {}% (paper: 28406 vs 42779, 33.6%)\n",
        num(out.here_ops_per_sec, 0),
        num(out.baseline_ops_per_sec, 0),
        num(out.slowdown_pct(), 1)
    );
    outln!("Period over time:");
    out!(
        "{}",
        series_table(
            &out.series.period,
            out.series.period.len() / 15,
            "Period (s)"
        )
    );
    outln!();
}

fn ycsb_fig(title: &str, scale: Scale, configs: &[Config]) {
    outln!("{title}");
    let bars = run_ycsb_figure(scale, configs);
    let rows: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                b.mix.to_string(),
                b.config.label().to_string(),
                num(b.ops_per_sec / 1000.0, 1),
                format!("{}%", num(b.degradation_pct, 0)),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(&["Workload", "Config", "Kops/s", "Degradation"], &rows)
    );
}

fn spec_fig(title: &str, scale: Scale, configs: &[Config]) {
    outln!("{title}");
    let bars = run_spec_figure(scale, configs);
    let rows: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                b.benchmark.name().to_string(),
                b.config.label().to_string(),
                num(b.rate, 2),
                format!("{}%", num(b.degradation_pct, 0)),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &["Benchmark", "Config", "Rate (ops/s)", "Degradation"],
            &rows
        )
    );
}

fn fig17(scale: Scale) {
    outln!("Figure 17 — Sockperf mean latency (log-scale in the paper)");
    let bars = run_fig17(scale);
    let rows: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                format!("load {}", b.load.label()),
                b.config.label().to_string(),
                num(b.mean_latency_us, 1),
                num(b.mean_latency_us / 1000.0, 2),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(&["Load", "Config", "Latency (us)", "Latency (ms)"], &rows)
    );
}

fn stages(scale: Scale) {
    outln!("Pipeline stage breakdown — t = alpha*N/P + C (Eq. 4), 30% load, T = 4 s");
    for strategy in [Strategy::Remus, Strategy::Here] {
        let out = run_stages(scale, strategy);
        outln!(
            "  {:?}: {} checkpoints, trace {}",
            out.strategy,
            out.checkpoints,
            if out.complete {
                "complete"
            } else {
                "INCOMPLETE"
            }
        );
        let rows: Vec<Vec<String>> = out
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.stage.label().to_string(),
                    num(r.total_secs, 3),
                    format!("{}%", num(r.share_pct, 1)),
                    num(r.mean_ms, 2),
                ]
            })
            .collect();
        outln!(
            "{}",
            render(&["Stage", "Total (s)", "Share", "Mean (ms)"], &rows)
        );
    }
}

/// Writes an artefact under [`OUT_DIR`], reporting either way.
fn write_artifact(name: &str, body: &str) {
    let path = format!("{OUT_DIR}/{name}");
    let _ = std::fs::create_dir_all(OUT_DIR);
    match std::fs::write(&path, body) {
        Ok(()) => outln!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}

fn datapath(scale: Scale) {
    outln!("Datapath — wire density, cost-model parallelism and virtual overlap");
    let out = run_datapath(scale);
    outln!(
        "  wire density over {} dirty pages ({} vCPUs): v2 meta {} KiB vs v3 columns {} KiB \
         -> {}x fewer bytes",
        out.pages,
        out.vcpus,
        num(out.v2_meta_bytes as f64 / 1024.0, 1),
        num(out.v3_columns_bytes as f64 / 1024.0, 1),
        num(out.v3_meta_reduction, 2),
    );
    outln!(
        "  cost model: alpha {} us/page, marginal lane efficiency {}\n",
        num(out.analytic_alpha_us_per_page, 3),
        num(out.analytic_parallel_efficiency, 2),
    );
    let rows: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|r| vec![r.workers.to_string(), num(r.analytic_parallelism, 2)])
        .collect();
    outln!("{}", render(&["Workers", "Model P"], &rows));
    outln!("  virtual overlap (cost-model time):");
    for s in &out.virtual_overlap {
        outln!(
            "    {}: pause {} ms -> {} ms over {} epochs ({}% shorter with encode/transfer overlap)",
            s.workload,
            num(s.pause_ms_barrier, 2),
            num(s.pause_ms_overlap, 2),
            s.checkpoints,
            num(s.reduction_pct, 1),
        );
    }
    outln!();
    write_artifact("BENCH_datapath.json", &out.document().write());
}

fn observe(scale: Scale) {
    outln!("Observe — telemetry showcase run");
    let out = run_observe(scale);
    let slo = out.slo.as_ref();
    outln!(
        "  scenario telemetry: {} metric families, {} flight events ({} dropped), \
         SLO {}/{} checkpoints breached\n",
        out.metric_count,
        out.flight_events_recorded,
        out.flight_events_dropped,
        slo.map_or(0, |s| s.degradation_breaches + s.period_cap_breaches),
        slo.map_or(0, |s| s.evaluated),
    );
    write_artifact("BENCH_observe.json", &out.document().write());
    write_artifact("observe.prom", &out.prometheus);
    write_artifact("observe_flight.json", &out.flight_recorder_json);
}

fn analyze(scale: Scale) {
    outln!("Analyze — causal trace: critical path, stragglers, oscillation, breaches");
    let out = run_analyze(scale);
    outln!(
        "  {} spans over {} checkpoints; failover captured: {}; tree: {} nesting \
         violation(s), {} unresolved link(s)",
        out.span_count,
        out.checkpoints,
        out.failover_captured,
        out.analysis.nesting_violations,
        out.analysis.unresolved_links,
    );
    outln!(
        "  worst epoch attributes {}% of its pause to named stage spans (bar: >= 95%)\n",
        num(out.analysis.min_attributed_fraction * 100.0, 2),
    );
    let step = (out.analysis.epochs.len() / 10).max(1);
    let rows: Vec<Vec<String>> = out
        .analysis
        .epochs
        .iter()
        .step_by(step)
        .map(|e| {
            vec![
                e.seq.to_string(),
                num(e.pause.as_secs_f64() * 1e3, 2),
                format!("{}%", num(e.attributed_fraction * 100.0, 1)),
                e.dominant_stage.to_string(),
                format!("{}%", num(e.model_residual_pct, 2)),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &[
                "Epoch",
                "Pause (ms)",
                "Attributed",
                "Dominant stage",
                "vs model"
            ],
            &rows
        )
    );
    let osc = &out.analysis.oscillation;
    outln!(
        "  period controller: {} decisions, {} direction flips (ratio {}), \
         {} walk-backs, {} midpoint jumps -> {}",
        osc.decisions,
        osc.direction_flips,
        num(osc.flip_ratio, 2),
        osc.walk_backs,
        osc.midpoint_jumps,
        if osc.oscillating {
            "OSCILLATING"
        } else {
            "stable"
        },
    );
    outln!(
        "  straggler lanes (wall > 1.5x epoch median): {}",
        out.analysis.stragglers.len()
    );
    for s in out.analysis.stragglers.iter().take(5) {
        outln!(
            "    epoch {} lane {}: {} us vs median {} us ({}x)",
            s.seq,
            s.lane,
            num(s.wall_nanos as f64 / 1e3, 1),
            num(s.median_wall_nanos as f64 / 1e3, 1),
            num(s.ratio(), 2),
        );
    }
    outln!(
        "  SLO breach root causes: {}",
        out.analysis.breach_roots.len()
    );
    for b in out.analysis.breach_roots.iter().take(5) {
        outln!(
            "    epoch {}: {:?} {} > bound {} — dominant stage '{}' at {} ms \
             ({}% vs trailing mean)",
            b.seq,
            b.kind,
            num(b.measured, 4),
            num(b.bound, 4),
            b.dominant_stage,
            num(b.stage_duration.as_secs_f64() * 1e3, 2),
            num(b.growth_pct, 1),
        );
    }
    outln!();
    write_artifact("trace_analyze.json", &out.chrome_json);
    write_artifact("trace_analyze.jsonl", &out.jsonl);
    write_artifact("BENCH_analyze.json", &out.document().write());
}

fn chaos(scale: Scale) {
    outln!("Chaos — seeded fault injection, transfer retry/backoff, failover invariants");
    let out = run_chaos(scale);
    outln!(
        "  sweep (plan seed {}, run seed {}): {} faults injected -> {} retries, \
         {} recoveries, {} epoch(s) aborted",
        PLAN_SEED,
        RUN_SEED,
        out.sweep.faults_injected,
        out.sweep.transfer_retries,
        out.sweep.transfer_recoveries,
        out.sweep.epochs_aborted,
    );
    outln!(
        "  {} commits over {} checkpoint records; worst commit-to-commit staleness {} ms",
        out.commits,
        out.checkpoints,
        num(out.worst_staleness_ms, 1),
    );
    outln!(
        "  mid-transfer crash at epoch {}: resumed from checkpoint {} (last acked {}), \
         detection {} ms, outage {} ms -> last-acked invariant {}",
        CRASH_EPOCH,
        out.crash_resumed_from,
        out.crash_last_committed,
        num(out.detection_ms, 1),
        num(out.outage_ms, 1),
        if out.crash_resumes_last_acked {
            "HOLDS"
        } else {
            "VIOLATED"
        },
    );
    outln!(
        "  same-seed rerun fingerprint 0x{:016x}: {}\n",
        out.fingerprint,
        if out.deterministic {
            "byte-identical replay"
        } else {
            "MISMATCH"
        },
    );
    write_artifact("BENCH_chaos.json", &out.document().write());
}

fn topology(scale: Scale) {
    outln!("Topology — replica count x quorum x fan-out, commit latency and staleness");
    let out = run_topology(scale);
    let rows: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|r| {
            vec![
                r.replicas.to_string(),
                r.quorum.to_string(),
                fanout_name(r.fanout).to_string(),
                r.commits.to_string(),
                num(r.mean_commit_latency_ms, 3),
                num(r.worst_staleness_ms, 1),
                format!(
                    "r{} ({})",
                    r.stalest_replica,
                    num(r.stalest_staleness_ms, 1)
                ),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &[
                "N",
                "Quorum",
                "Fanout",
                "Commits",
                "Commit lat (ms)",
                "Staleness (ms)",
                "Stalest replica (ms)"
            ],
            &rows
        )
    );
    outln!(
        "  bit-compat (N=1, q=1, star vs default config): fingerprints 0x{:016x} / 0x{:016x} -> {}",
        out.baseline_fingerprint,
        out.degenerate_fingerprint,
        if out.bit_compatible {
            "IDENTICAL"
        } else {
            "DRIFTED"
        },
    );
    outln!(
        "  same-seed rerun (N=3, q=2, star) fingerprint 0x{:016x}: {}\n",
        out.rerun_fingerprint,
        if out.deterministic {
            "byte-identical replay"
        } else {
            "MISMATCH"
        },
    );
    write_artifact("BENCH_topology.json", &out.document().write());
}

fn health(scale: Scale) {
    outln!("Health — per-replica health states, virtual-time series, deterministic alerts");
    let out = run_health(scale);
    outln!(
        "  quiet run (N={}, q={}): {} commits, {} alerts, final states [{}]",
        3,
        2,
        out.quiet.commits,
        out.quiet.alerts_fired,
        out.quiet.final_states,
    );
    outln!(
        "  partition run (replica 2 down, epochs 4..=9): {} fired / {} resolved, \
         {} transitions, final states [{}]",
        out.stale.alerts_fired,
        out.stale.alerts_resolved,
        out.stale.transitions,
        out.stale.final_states,
    );
    outln!("  alert arc: {}", out.stale.alert_sequence);
    outln!("  health arc: {}", out.stale.transition_sequence);
    outln!(
        "  same-seed rerun fingerprint 0x{:016x}: {}\n",
        out.rerun_fingerprint,
        if out.deterministic {
            "byte-identical alert log, series and fingerprint"
        } else {
            "MISMATCH"
        },
    );
    write_artifact("BENCH_health.json", &out.document().write());
    write_artifact("health_alerts.jsonl", &out.alert_log_jsonl);
    write_artifact("health_series.jsonl", &out.series_jsonl);
}

fn postmortem(scale: Scale) {
    outln!("Postmortem — incident capture, bundle replay, differential forensics");
    let out = run_postmortem(scale);
    outln!(
        "  capture: trigger '{}' fired at epoch {} (bundle {} bytes, hash 0x{:08x})",
        out.trigger,
        out.trigger_epoch,
        out.bundle_bytes,
        out.bundle_hash,
    );
    outln!("    {}", out.trigger_detail);
    outln!(
        "  integrity: round-trip {}; rejects version bump {}, truncation {}, tampering {}",
        out.decode_round_trip,
        out.rejects_unknown_version,
        out.rejects_truncation,
        out.rejects_tampering,
    );
    outln!(
        "  replay fingerprint 0x{:016x}: {}",
        out.replay_fingerprint,
        if out.replay_verified {
            "same fingerprint, same trigger at the same event"
        } else {
            "MISMATCH"
        },
    );
    let p = &out.postmortem;
    outln!(
        "  forensics vs fault-stripped baseline: {} vs {} checkpoints, \
         dominant stage {} vs {}, throughput delta {}%",
        p.incident_checkpoints,
        p.baseline_checkpoints,
        p.dominant_stage_incident,
        p.dominant_stage_baseline,
        num(p.throughput_delta_pct, 1),
    );
    outln!("  alert timeline: {}\n", p.alert_timeline.join("|"));
    write_artifact("BENCH_postmortem.json", &out.document().write());
    write_artifact("incident.bundle", &out.bundle_text);
    write_artifact("postmortem.json", &out.postmortem_json);
    write_artifact("postmortem_report.txt", &out.postmortem_text);
}

fn wire(scale: Scale) {
    outln!("Wire — v3 epoch-delta columnar format vs the v2 stream");
    let out = run_wire(scale);
    let rows: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                format!("v{}", r.version),
                r.checkpoints.to_string(),
                r.commits.to_string(),
                num(r.bytes_per_epoch / 1024.0, 1),
                num(r.mean_transfer_ms, 3),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &[
                "Workload",
                "Wire",
                "Epochs",
                "Commits",
                "KiB/epoch",
                "Transfer (ms)"
            ],
            &rows
        )
    );
    for red in &out.reductions {
        outln!(
            "  {}: v3 ships {}x fewer bytes per epoch, transfer {}x shorter",
            red.workload,
            num(red.bytes_ratio, 2),
            num(red.transfer_ratio, 2),
        );
    }
    outln!("  negotiation (N=3, q=2):");
    for n in &out.negotiation {
        outln!(
            "    offer v{} caps [{}] over {}: negotiated [{}], {} commits",
            n.offer,
            n.caps,
            n.fanout,
            n.negotiated,
            n.commits,
        );
    }
    outln!(
        "  bit-compat (v3 offer, v2-capped replica vs default): fingerprints 0x{:016x} / 0x{:016x} -> {}",
        out.baseline_fingerprint,
        out.capped_fingerprint,
        if out.bit_compatible {
            "IDENTICAL"
        } else {
            "DRIFTED"
        },
    );
    outln!(
        "  same-seed v3 rerun fingerprint 0x{:016x}: {}\n",
        out.rerun_fingerprint,
        if out.deterministic {
            "byte-identical replay"
        } else {
            "MISMATCH"
        },
    );
    write_artifact("BENCH_wire.json", &out.document().write());
}

/// `repro replay <bundle>` — re-executes a captured incident bundle and
/// verifies it reproduces the bundled run's fingerprint and trigger.
fn replay_bundle(path: Option<&str>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("usage: repro replay <bundle>");
        return ExitCode::FAILURE;
    };
    let doc = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("could not read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bundle = match here_core::IncidentBundle::decode(&doc) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("could not decode {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {path}: trigger '{}' at epoch {} — {}",
        bundle.trigger.trigger, bundle.trigger.epoch, bundle.trigger.detail
    );
    let outcome = match bundle.replay() {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("  bundled  fingerprint 0x{:016x}", bundle.fingerprint);
    println!(
        "  replayed fingerprint 0x{:016x} ({})",
        outcome.fingerprint,
        if outcome.fingerprint_matches {
            "match"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "  trigger at event {}: {}",
        bundle.trigger.event,
        if outcome.trigger_matches {
            "match"
        } else {
            "MISMATCH"
        }
    );
    if outcome.verified() {
        println!("replay verified: the bundle reproduces the run and its trigger");
        ExitCode::SUCCESS
    } else {
        eprintln!("replay FAILED to reproduce the bundled run");
        ExitCode::FAILURE
    }
}

fn overhead(scale: Scale) {
    outln!("Section 8.7 — replication engine overhead (paper: 62% CPU, 314 MB)");
    let out = run_overhead(scale);
    let rows = vec![
        vec!["CPU (% of one core)".into(), num(out.cpu_core_pct, 1)],
        vec!["RSS (MiB)".into(), num(out.rss_mib, 1)],
        vec!["checkpoints in window".into(), out.checkpoints.to_string()],
    ];
    outln!("{}", render(&["Metric", "Value"], &rows));
}
