//! Migration experiments: Fig. 6 (migration times) and Fig. 7 (replica
//! resumption times).

use here_core::{FaultPlan, ReplicationConfig, Scenario};
use here_sim_core::time::SimDuration;
use here_workloads::memstress::MemStress;

use super::{Scale, PRIMARY_CRASH};

/// Distinct-page dirty rate used by the migration experiments. Kept below
/// the single-stream copy rate so pre-copy converges (see the memstress
/// module docs).
pub const MIGRATION_LOAD_RATE: u64 = 150_000;

/// One bar pair of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// The x-axis value: memory size in GiB (left pane) or load percent
    /// (right pane).
    pub x: u64,
    /// Xen default migration time in seconds.
    pub xen_secs: f64,
    /// HERE multithreaded migration time in seconds.
    pub here_secs: f64,
}

impl Fig6Row {
    /// HERE's improvement over Xen, percent (negative = slower).
    pub fn improvement_pct(&self) -> f64 {
        (self.xen_secs - self.here_secs) / self.xen_secs * 100.0
    }
}

fn migration_time(gib: u64, load: Option<u8>, config: ReplicationConfig) -> f64 {
    let mut builder = Scenario::builder()
        .name(format!("fig6-{gib}gib-load{load:?}"))
        .vm_memory_gib(gib)
        .vcpus(4)
        .config(config)
        // Fig. 6 migrates a VM already under load.
        .load_during_seed()
        // One short epoch after seeding; the measurement is the migration.
        .duration(SimDuration::from_secs(1));
    if let Some(pct) = load {
        builder = builder.workload(Box::new(
            MemStress::with_percent(pct).with_rate(MIGRATION_LOAD_RATE),
        ));
    }
    let report = builder.build().expect("valid scenario").run();
    report
        .migration
        .expect("replicated run performs a seeding migration")
        .total
        .as_secs_f64()
}

/// Fig. 6 left: idle VM migration across memory sizes.
pub fn run_fig6_idle(scale: Scale) -> Vec<Fig6Row> {
    scale
        .memory_sweep_gib()
        .iter()
        .map(|&gib| Fig6Row {
            x: gib,
            xen_secs: migration_time(
                gib,
                None,
                ReplicationConfig::remus(SimDuration::from_secs(8)),
            ),
            here_secs: migration_time(
                gib,
                None,
                ReplicationConfig::fixed_period(SimDuration::from_secs(8)),
            ),
        })
        .collect()
}

/// Fig. 6 right: 20 GiB VM under the memory benchmark at varying loads.
pub fn run_fig6_loaded(scale: Scale) -> Vec<Fig6Row> {
    let gib = match scale {
        Scale::Paper => 20,
        Scale::Quick => 2,
    };
    scale
        .load_sweep_pct()
        .iter()
        .map(|&pct| Fig6Row {
            x: pct as u64,
            xen_secs: migration_time(
                gib,
                Some(pct),
                ReplicationConfig::remus(SimDuration::from_secs(8)),
            ),
            here_secs: migration_time(
                gib,
                Some(pct),
                ReplicationConfig::fixed_period(SimDuration::from_secs(8)),
            ),
        })
        .collect()
}

/// One point of Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// VM memory size in GiB.
    pub gib: u64,
    /// Replica resumption time in milliseconds.
    pub resumption_ms: f64,
}

/// Fig. 7: replica resumption time across memory sizes, idle or loaded.
pub fn run_fig7(scale: Scale, loaded: bool) -> Vec<Fig7Row> {
    scale
        .memory_sweep_gib()
        .iter()
        .map(|&gib| {
            let mut builder = Scenario::builder()
                .name(format!("fig7-{gib}gib"))
                .vm_memory_gib(gib)
                .vcpus(4)
                .config(ReplicationConfig::fixed_period(SimDuration::from_secs(8)))
                .duration(SimDuration::from_secs(30))
                .chaos(FaultPlan::new(0).with_event_at(SimDuration::from_secs(17), PRIMARY_CRASH));
            if loaded {
                builder = builder.workload(Box::new(
                    MemStress::with_percent(30).with_rate(MIGRATION_LOAD_RATE),
                ));
            }
            let report = builder.build().expect("valid scenario").run();
            let fo = report.failover.expect("failure plan must trigger failover");
            Fig7Row {
                gib,
                resumption_ms: fo.resumption_time().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_migration_gap_grows_with_memory() {
        let rows = run_fig6_idle(Scale::Quick);
        assert_eq!(rows.len(), 2);
        // HERE is slower (setup cost) for 1 GiB, and closes the gap by
        // 2 GiB; the improvement trend is monotone in memory size.
        assert!(rows[0].improvement_pct() < rows[1].improvement_pct());
        assert!(
            rows[0].improvement_pct() < 0.0,
            "1 GiB: HERE pays its setup cost ({:.1} %)",
            rows[0].improvement_pct()
        );
    }

    #[test]
    fn loaded_migration_slower_than_idle_and_here_wins() {
        let idle = run_fig6_idle(Scale::Quick);
        let loaded = run_fig6_loaded(Scale::Quick);
        // 2 GiB idle vs 2 GiB at 10 % load.
        assert!(loaded[0].xen_secs > idle[1].xen_secs);
        assert!(loaded[1].here_secs < loaded[1].xen_secs);
    }

    #[test]
    fn resumption_is_milliseconds_and_flat() {
        let rows = run_fig7(Scale::Quick, false);
        for r in &rows {
            assert!(
                (5.0..20.0).contains(&r.resumption_ms),
                "{} GiB: {} ms",
                r.gib,
                r.resumption_ms
            );
        }
        // Flat in memory size: within 2 ms of each other.
        let spread = rows
            .iter()
            .map(|r| r.resumption_ms)
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
        assert!(spread.1 - spread.0 < 2.0);
    }
}
