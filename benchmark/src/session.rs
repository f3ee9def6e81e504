//! The two session workloads. One op is one complete `Scenario::run`:
//! seeding migration, every checkpoint epoch, the injected failure and the
//! failover, all in virtual time. What the benchmark times is the host
//! work the simulation does along the way.

use std::time::Instant;

use here_core::trace::Stage;
use here_core::{
    FailureCause, FailurePlan, FanoutMode, FaultKind, FaultPlan, ReplicationConfig, RunReport,
    Scenario, TopologyConfig,
};
use here_hypervisor::fault::DosOutcome;
use here_hypervisor::PAGE_SIZE;
use here_sim_core::time::{SimDuration, SimTime};
use here_workloads::memstress::MemStress;
use here_workloads::ycsb::{Ycsb, YcsbMix, YcsbSpec};

use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{Ledger, Op, Workload};

/// Complete runs before timing starts. Both replay op 0, and their
/// fingerprints must agree: that is the determinism check.
pub const WARMUP_RUNS: u64 = 2;

/// Runs of each variant behind the differential figures (replication's
/// share of the wall, the observer planes' overhead).
const DIFFERENTIAL_RUNS: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// YCSB-A under dynamic period control, one replica, wire v2.
    Kv,
    /// MemStress into three replicas at quorum two, wire v3 offered,
    /// every observer plane armed, faults on four fronts.
    QuorumFaults,
}

/// How a scenario departs from the one the workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Measured,
    /// The same guest and duration with replication off.
    Unprotected,
    /// The health and postmortem planes armed where the measured scenario
    /// leaves them off, and off where it arms them.
    PlanesFlipped,
}

fn config(kind: Kind, planes: bool) -> ReplicationConfig {
    let config = match kind {
        Kind::Kv => ReplicationConfig::dynamic(0.30, SimDuration::from_secs(5)),
        Kind::QuorumFaults => ReplicationConfig::fixed_period(SimDuration::from_secs(2))
            .with_topology(TopologyConfig {
                replicas: 3,
                quorum: 2,
                fanout: FanoutMode::Star,
                stale_epoch_lag: 8,
            })
            .with_wire_v3()
            .with_replica_wire_caps(vec![3, 2, 3]),
    };
    if planes {
        config.with_health_plane().with_postmortem_capture()
    } else {
        config
    }
}

fn scenario(kind: Kind, seed: u64, variant: Variant) -> Scenario {
    let builder = Scenario::builder().vcpus(4).seed(seed);
    let builder = match kind {
        Kind::Kv => {
            let driver = Ycsb::new(YcsbSpec::small(YcsbMix::A)).expect("the small spec is valid");
            let mib = (driver.required_pages() * PAGE_SIZE).div_ceil(1024 * 1024) + 64;
            builder
                .name("session_kv")
                .vm_memory_mib(mib)
                .workload(Box::new(driver))
                .duration(SimDuration::from_secs(30))
                .run_full_duration()
        }
        Kind::QuorumFaults => builder
            .name("session_quorum_faults")
            .vm_memory_mib(512)
            .workload(Box::new(MemStress::with_percent(30).with_rate(40_000)))
            .duration(SimDuration::from_secs(60)),
    };
    let armed = kind == Kind::QuorumFaults;
    let builder = match variant {
        Variant::Unprotected => return builder.unprotected().build().expect("valid scenario"),
        Variant::Measured => builder.config(config(kind, armed)),
        Variant::PlanesFlipped => builder.config(config(kind, !armed)),
    };
    let builder = match kind {
        Kind::Kv => builder.verify_consistency().failure(FailurePlan {
            at: SimTime::from_secs(25),
            cause: FailureCause::Accident(DosOutcome::Hang),
            reattack_secondary: false,
        }),
        Kind::QuorumFaults => builder.chaos(
            FaultPlan::new(seed)
                .with_event(2, FaultKind::Corrupt { attempts: 1 })
                .with_event(4, FaultKind::Drop { attempts: 10 })
                .with_partition_span(5..=15, &[2], 10)
                .with_event(
                    28,
                    FaultKind::PrimaryFault {
                        outcome: DosOutcome::Crash,
                        stage: Stage::Transfer,
                    },
                ),
        ),
    };
    builder.build().expect("valid scenario")
}

/// What one run's report says, beyond its wall time. Everything here but
/// the `*_wall_ns` fields is in virtual time or a count, and repeats
/// exactly for a seed.
#[derive(Debug, Clone, Copy, Default)]
struct Facts {
    checkpoints: u64,
    dirty_pages: u64,
    translate_bytes: u64,
    translate_pages: u64,
    sim_s: f64,
    pause_ms: f64,
    degradation_pct: f64,
    staleness_ms: f64,
    commit_latency_ms: f64,
    outage_ms: f64,
    harvest_wall_ns: u64,
    translate_wall_ns: u64,
    transfer_wall_ns: u64,
    harvest_pages: u64,
    transfer_pages: u64,
    faults: u64,
    retries: u64,
    aborted_epochs: u64,
    spans: u64,
    flight_recorded: u64,
    flight_dropped: u64,
}

fn facts(report: &RunReport) -> Facts {
    let ms = |d: SimDuration| d.as_secs_f64() * 1e3;
    let mut f = Facts {
        checkpoints: report.checkpoints.len() as u64,
        dirty_pages: report.checkpoints.iter().map(|c| c.dirty_pages).sum(),
        sim_s: report.elapsed.as_secs_f64(),
        pause_ms: report.mean_pause().map_or(0.0, ms),
        degradation_pct: report.mean_degradation().unwrap_or(0.0) * 100.0,
        staleness_ms: report.worst_staleness().map_or(0.0, ms),
        outage_ms: report.failover.as_ref().map_or(0.0, |f| ms(f.outage())),
        spans: report.spans.len() as u64,
        ..Facts::default()
    };
    let (mut acks, mut ack_total) = (0u64, SimDuration::ZERO);
    for event in &report.stage_events {
        let wall = event.wall_nanos.unwrap_or(0);
        match event.stage {
            Stage::Harvest => {
                f.harvest_wall_ns += wall;
                f.harvest_pages += event.pages;
            }
            Stage::Translate => {
                f.translate_wall_ns += wall;
                f.translate_bytes += event.bytes;
                f.translate_pages += event.pages;
            }
            Stage::Transfer => {
                f.transfer_wall_ns += wall;
                f.transfer_pages += event.pages;
            }
            Stage::Ack => {
                acks += 1;
                ack_total += event.duration;
            }
            Stage::Pause | Stage::Resume => {}
        }
    }
    if acks > 0 {
        f.commit_latency_ms = ms(ack_total) / acks as f64;
    }
    if let Some(chaos) = &report.chaos {
        f.faults = chaos.faults_injected;
        f.retries = chaos.transfer_retries;
        f.aborted_epochs = chaos.epochs_aborted;
    }
    if let Some(telemetry) = &report.telemetry {
        f.flight_recorded = telemetry.flight_events_recorded;
        f.flight_dropped = telemetry.flight_events_dropped;
    }
    f
}

/// The checks that make a run count as failed.
fn verified(kind: Kind, report: &RunReport) -> bool {
    let consistent =
        kind != Kind::Kv || report.consistency_checks == report.checkpoints.len() as u64;
    let resumed_from_last_commit = match (&report.failover, report.commits.last()) {
        (Some(failover), Some(commit)) => failover.resumed_from_checkpoint == commit.seq,
        _ => false,
    };
    consistent && resumed_from_last_commit
}

pub struct Session {
    kind: Kind,
    seed: u64,
    /// Fingerprint of op 0, as both warm-up runs reproduced it.
    op0_fingerprint: u64,
    /// Wall nanoseconds and facts of every op, in op order.
    timed: Vec<(u64, Facts)>,
}

impl Session {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let fingerprints: Vec<u64> = (0..WARMUP_RUNS)
            .map(|_| {
                let report = scenario(kind, seed, Variant::Measured).run();
                assert!(
                    verified(kind, &report),
                    "session warm-up run failed its checks"
                );
                report.fingerprint()
            })
            .collect();
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "the same seed gave two fingerprints: {fingerprints:x?}"
        );
        Session {
            kind,
            seed,
            op0_fingerprint: fingerprints[0],
            timed: Vec::new(),
        }
    }

    /// Median wall time in milliseconds of each of `variants`, over
    /// [`DIFFERENTIAL_RUNS`] rounds on the seeds the first measured ops
    /// used. A round runs every variant once, so that a drift in host
    /// speed falls on all of them alike.
    fn variant_wall_ms<const N: usize>(&self, variants: [Variant; N]) -> [f64; N] {
        let mut walls = [(); N].map(|()| Vec::new());
        for round in 0..DIFFERENTIAL_RUNS {
            for (variant, walls) in variants.iter().zip(&mut walls) {
                let scenario = scenario(self.kind, self.seed + round, *variant);
                let started = Instant::now();
                std::hint::black_box(scenario.run());
                walls.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
        walls.map(|w| median(&w))
    }
}

impl Workload for Session {
    fn op(&mut self, index: u64, tracer: &mut Tracer) -> Op {
        let generator = Instant::now();
        let span = tracer.open("benchmark.build_scenario");
        let scenario = scenario(self.kind, self.seed + index, Variant::Measured);
        tracer.close(span);
        let generator_ns = generator.elapsed().as_nanos() as u64;

        let started = Instant::now();
        let op_span = tracer.open("op");
        let span = tracer.open("core.engine.Scenario.run");
        let report = scenario.run();
        tracer.close(span);
        tracer.close(op_span);
        let wall_ns = started.elapsed().as_nanos() as u64;

        let mut ok = verified(self.kind, &report);
        if index == 0 {
            ok &= report.fingerprint() == self.op0_fingerprint;
        }
        let facts = facts(&report);
        self.timed.push((wall_ns, facts));
        Op {
            wall_ns,
            generator_ns,
            pages: facts.dirty_pages,
            wire_bytes: facts.translate_bytes,
            wire_pages: facts.translate_pages,
            ok,
        }
    }

    fn layer_metrics(&self, _tracer: &Tracer, ledger: &mut Ledger) {
        // The exact figures fold over the first ops only, so they do not
        // depend on how many ops the host got through.
        let first = &self.timed[..self.timed.len().min(crate::EXACT_OPS as usize)];
        let exact = |pick: fn(&Facts) -> f64| -> Vec<f64> {
            first.iter().map(|(_, facts)| pick(facts)).collect()
        };
        ledger.set("core.session.sim_pause_ms", median(&exact(|f| f.pause_ms)));
        ledger.set(
            "core.session.sim_degradation_pct",
            mean(&exact(|f| f.degradation_pct)),
        );
        ledger.set(
            "core.session.sim_staleness_ms",
            median(&exact(|f| f.staleness_ms)),
        );
        ledger.set(
            "core.session.sim_commit_latency_ms",
            mean(&exact(|f| f.commit_latency_ms)),
        );
        ledger.set(
            "core.failover.sim_outage_ms",
            median(&exact(|f| f.outage_ms)),
        );
        ledger.set(
            "core.chaos.faults_per_op",
            mean(&exact(|f| f.faults as f64)),
        );
        ledger.set(
            "core.chaos.retries_per_op",
            mean(&exact(|f| f.retries as f64)),
        );
        let aborted: u64 = first.iter().map(|(_, f)| f.aborted_epochs).sum();
        let epochs: u64 = first.iter().map(|(_, f)| f.checkpoints).sum();
        ledger.set(
            "core.chaos.aborted_epochs_share",
            aborted as f64 / epochs.max(1) as f64,
        );
        ledger.set(
            "telemetry.span.spans_per_op",
            mean(&exact(|f| f.spans as f64)),
        );
        let (dropped, recorded) = first.iter().fold((0, 0), |(d, r), (_, f)| {
            (d + f.flight_dropped, r + f.flight_recorded)
        });
        ledger.set(
            "telemetry.flight.dropped_share",
            dropped as f64 / recorded.max(1) as f64,
        );

        let per = |num: fn(&Facts) -> u64, den: fn(&Facts) -> u64| -> f64 {
            let ratios: Vec<f64> = self
                .timed
                .iter()
                .map(|(_, f)| num(f) as f64 / den(f).max(1) as f64)
                .collect();
            median(&ratios)
        };
        ledger.set(
            "core.pipeline.harvest_wall_ns_per_page",
            per(|f| f.harvest_wall_ns, |f| f.harvest_pages),
        );
        ledger.set(
            "core.pipeline.translate_wall_ns_per_page",
            per(|f| f.translate_wall_ns, |f| f.translate_pages),
        );
        ledger.set(
            "core.pipeline.transfer_wall_ns_per_page",
            per(|f| f.transfer_wall_ns, |f| f.transfer_pages),
        );
        let wall_per = |den: fn(&Facts) -> u64| -> f64 {
            let ratios: Vec<f64> = self
                .timed
                .iter()
                .map(|(wall, f)| *wall as f64 / den(f).max(1) as f64)
                .collect();
            median(&ratios)
        };
        ledger.set(
            "core.session.wall_ns_per_dirty_page",
            wall_per(|f| f.dirty_pages),
        );
        ledger.set(
            "core.session.wall_us_per_checkpoint",
            wall_per(|f| f.checkpoints) / 1e3,
        );
        let sim_rates: Vec<f64> = self
            .timed
            .iter()
            .map(|(wall, f)| f.sim_s / (*wall as f64 / 1e9))
            .collect();
        ledger.set("core.session.sim_s_per_wall_s", median(&sim_rates));

        // The differential figures: the measured scenario against the same
        // guest unprotected, and against itself with the planes flipped.
        let [measured_ms, unprotected_ms, flipped_ms] = self.variant_wall_ms([
            Variant::Measured,
            Variant::Unprotected,
            Variant::PlanesFlipped,
        ]);
        let guest_share = unprotected_ms / measured_ms;
        ledger.set("workloads.guest_wall_share", guest_share);
        ledger.set("core.session.replication_wall_share", 1.0 - guest_share);
        let (armed_ms, unarmed_ms) = match self.kind {
            Kind::Kv => (flipped_ms, measured_ms),
            Kind::QuorumFaults => (measured_ms, flipped_ms),
        };
        ledger.set(
            "core.telemetry.planes_overhead_pct",
            (armed_ms / unarmed_ms - 1.0) * 100.0,
        );
    }
}
