//! The dynamic checkpoint period manager protecting a database VM.
//!
//! ```text
//! cargo run --release --example adaptive_database
//! ```
//!
//! Runs YCSB Workload A against the in-memory store (client in-VM, as in
//! the paper) under HERE with a 30 % degradation target, and shows how
//! Algorithm 1 settles the checkpoint period so the database loses at most
//! ~30 % throughput while being checkpointed as often as that budget
//! allows.

use here::replication::{ReplicationConfig, Scenario};
use here::sim::SimDuration;
use here::workloads::{Ycsb, YcsbMix, YcsbSpec};

fn main() {
    let spec = YcsbSpec::small(YcsbMix::A);
    println!(
        "YCSB workload A: {} records, {} operations, client running in-VM\n",
        spec.records, spec.operations
    );

    let run = |replicated: bool| {
        let driver = Ycsb::new(spec).expect("valid spec");
        let mem_mib =
            (driver.required_pages() * here::hypervisor::PAGE_SIZE).div_ceil(1024 * 1024) + 64;
        let mut b = Scenario::builder()
            .name("adaptive-database")
            .vm_memory_mib(mem_mib)
            .vcpus(4)
            .workload(Box::new(driver))
            .duration(SimDuration::from_secs(600));
        b = if replicated {
            b.config(ReplicationConfig::dynamic(0.3, SimDuration::from_secs(25)))
                .warmup_under_load(SimDuration::from_secs(60))
        } else {
            b.unprotected()
        };
        b.build().expect("valid scenario").run()
    };

    let baseline = run(false);
    let here = run(true);

    println!("period chosen by Algorithm 1 over the run:");
    let points: Vec<(f64, f64)> = here
        .checkpoint_log()
        .map(|(at, _, decision)| (at.as_secs_f64(), decision.chosen_period.as_secs_f64()))
        .collect();
    for (t, period) in points.iter().step_by((points.len() / 10).max(1)) {
        println!("  t = {t:>6.1}s  T = {period:.2}s");
    }

    let slowdown = (baseline.throughput_ops_per_sec - here.throughput_ops_per_sec)
        / baseline.throughput_ops_per_sec
        * 100.0;
    println!(
        "\nbaseline (no replication): {:>8.0} ops/s",
        baseline.throughput_ops_per_sec
    );
    println!(
        "HERE (D = 30 %):           {:>8.0} ops/s",
        here.throughput_ops_per_sec
    );
    println!("observed slowdown:         {slowdown:>7.1} %  (target: 30 %)");
    println!(
        "mean measured degradation: {:>7.1} %",
        here.mean_degradation().unwrap_or(f64::NAN) * 100.0
    );
    println!(
        "checkpoints taken:         {:>8}  (mean {} apart)",
        here.checkpoints.len(),
        here.elapsed / (here.checkpoints.len() as u64).max(1)
    );
}
