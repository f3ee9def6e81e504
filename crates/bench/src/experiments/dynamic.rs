//! Dynamic checkpoint period experiments: Fig. 9 (phased memory load) and
//! Fig. 10 (YCSB Workload A).

use here_core::{ReplicationConfig, RunReport, Scenario};
use here_sim_core::time::{SimDuration, SimTime};
use here_workloads::phased::{fig9_schedule, PhasedMemStress};
use here_workloads::ycsb::{Ycsb, YcsbMix, YcsbSpec};

use super::Scale;

/// The series Fig. 9 plots.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicSeries {
    /// `(seconds, period seconds)` — the blue "Period" line.
    pub period: Vec<(f64, f64)>,
    /// `(seconds, measured degradation percent)` — the black "Overhead"
    /// line.
    pub degradation: Vec<(f64, f64)>,
    /// `(seconds, load percent)` — the green "Load" line (Fig. 9 only).
    pub load: Vec<(f64, f64)>,
    /// The configured degradation target, percent (the red "Set Overhead"
    /// line).
    pub target_pct: f64,
    /// Mean measured degradation over the steady phases, percent.
    pub steady_mean_deg_pct: f64,
}

/// `(seconds, value)` points of one plotted line.
type Points = Vec<(f64, f64)>;

/// The period and degradation series of a replicated run, in seconds and
/// percent, read off its checkpoint log.
fn period_and_degradation(report: &RunReport) -> (Points, Points) {
    report
        .checkpoint_log()
        .map(|(at, record, decision)| {
            let t = at.as_secs_f64();
            (
                (t, decision.chosen_period.as_secs_f64()),
                (t, record.degradation * 100.0),
            )
        })
        .unzip()
}

/// Fig. 9: D = 0.3, T_max = 25 s, 8 GiB / 4 vCPU, phased load
/// 20 % → 80 % → 5 %.
pub fn run_fig9(scale: Scale) -> DynamicSeries {
    let (gib, config) = match scale {
        Scale::Paper => (
            8,
            ReplicationConfig::dynamic(0.3, SimDuration::from_secs(25)),
        ),
        Scale::Quick => (
            2,
            ReplicationConfig::dynamic(0.3, SimDuration::from_secs(25))
                .with_sigma(SimDuration::from_millis(100)),
        ),
    };
    let duration = SimDuration::from_secs(180);
    let schedule = fig9_schedule();
    let workload = PhasedMemStress::new(schedule.clone()).expect("fig9 schedule is valid");
    let report = Scenario::builder()
        .name("fig9")
        .vm_memory_gib(gib)
        .vcpus(4)
        .workload(Box::new(workload))
        .config(config)
        // Let Algorithm 1 converge from T = T_max against the 20 % load
        // before recording, so the plot starts at the first phase's
        // equilibrium like the paper's.
        .warmup_under_load(SimDuration::from_secs(60))
        .duration(duration)
        .build()
        .expect("valid scenario")
        .run();

    let probe = PhasedMemStress::new(schedule).expect("valid");
    let load: Vec<(f64, f64)> = (0..=duration.as_millis() / 1000)
        .map(|s| (s as f64, probe.percent_at(SimTime::from_secs(s)) as f64))
        .collect();
    let (period, degradation) = period_and_degradation(&report);
    // Steady-state windows: skip 15 s after each phase change.
    let steady: Vec<f64> = degradation
        .iter()
        .filter(|&&(s, _)| {
            (15.0..20.0).contains(&s) || (40.0..120.0).contains(&s) || (150.0..175.0).contains(&s)
        })
        .map(|&(_, v)| v)
        .collect();
    let steady_mean_deg_pct = if steady.is_empty() {
        f64::NAN
    } else {
        steady.iter().sum::<f64>() / steady.len() as f64
    };
    DynamicSeries {
        period,
        degradation,
        load,
        target_pct: 30.0,
        steady_mean_deg_pct,
    }
}

/// Fig. 10's output: the dynamic series plus the throughput comparison the
/// paper quotes (28 406 ops/s vs a 42 779 ops/s baseline, ≈ 33.6 % slower).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Result {
    /// The period/degradation series.
    pub series: DynamicSeries,
    /// Replicated throughput, ops/s.
    pub here_ops_per_sec: f64,
    /// Unreplicated baseline throughput, ops/s.
    pub baseline_ops_per_sec: f64,
}

impl Fig10Result {
    /// Observed slowdown, percent.
    pub fn slowdown_pct(&self) -> f64 {
        (self.baseline_ops_per_sec - self.here_ops_per_sec) / self.baseline_ops_per_sec * 100.0
    }
}

/// Fig. 10: YCSB Workload A under the dynamic period manager (D = 30 %).
pub fn run_fig10(scale: Scale) -> Fig10Result {
    let spec = match scale {
        Scale::Paper => YcsbSpec::paper(YcsbMix::A),
        Scale::Quick => YcsbSpec::small(YcsbMix::A),
    };
    let build = |replicated: bool| {
        let driver = Ycsb::new(spec).expect("valid spec");
        let pages = driver.required_pages();
        let mem_mib = (pages * here_hypervisor::PAGE_SIZE).div_ceil(1024 * 1024) + 64;
        let mut b = Scenario::builder()
            .name("fig10")
            .vm_memory_mib(mem_mib)
            .vcpus(4)
            .workload(Box::new(driver))
            .duration(SimDuration::from_secs(600));
        if replicated {
            b = b
                .config(ReplicationConfig::dynamic(0.3, SimDuration::from_secs(25)))
                .warmup_under_load(SimDuration::from_secs(60));
        } else {
            b = b.unprotected();
        }
        b.build().expect("valid scenario").run()
    };
    let here = build(true);
    let baseline = build(false);
    let (period, degradation) = period_and_degradation(&here);
    let steady: Vec<f64> = degradation.iter().skip(3).map(|&(_, v)| v).collect();
    let steady_mean_deg_pct = if steady.is_empty() {
        f64::NAN
    } else {
        steady.iter().sum::<f64>() / steady.len() as f64
    };
    Fig10Result {
        series: DynamicSeries {
            period,
            degradation,
            load: Vec::new(),
            target_pct: 30.0,
            steady_mean_deg_pct,
        },
        here_ops_per_sec: here.throughput_ops_per_sec,
        baseline_ops_per_sec: baseline.throughput_ops_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_period_tracks_the_load_level() {
        let out = run_fig9(Scale::Quick);
        // Mean period during the 80 % phase must exceed the 20 % phase,
        // which must exceed the 5 % phase.
        let mean_in = |lo: f64, hi: f64| {
            let vals: Vec<f64> = out
                .period
                .iter()
                .filter(|&&(t, _)| t >= lo && t < hi)
                .map(|&(_, v)| v)
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let p20 = mean_in(10.0, 20.0);
        let p80 = mean_in(60.0, 120.0);
        let p5 = mean_in(150.0, 178.0);
        assert!(p80 > p20, "p80={p80} p20={p20}");
        assert!(p20 > p5, "p20={p20} p5={p5}");
    }

    #[test]
    fn fig9_overhead_respects_the_target_in_steady_state() {
        let out = run_fig9(Scale::Quick);
        assert!(
            (out.steady_mean_deg_pct - out.target_pct).abs() < 12.0,
            "steady overhead {} vs target {}",
            out.steady_mean_deg_pct,
            out.target_pct
        );
    }

    #[test]
    fn fig10_slowdown_lands_near_the_target() {
        let out = run_fig10(Scale::Quick);
        let slowdown = out.slowdown_pct();
        assert!(
            (15.0..50.0).contains(&slowdown),
            "slowdown {slowdown} should be near the 30 % target (paper: 33.6 %)"
        );
    }
}
