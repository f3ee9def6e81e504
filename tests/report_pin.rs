//! Pins what a run report says about its checkpoints — every record,
//! every period decision, the period and degradation series of Fig. 9/10
//! and the resource accounting — for the four shared scenarios, one
//! Algorithm-1 run with a warmup under load and one YCSB key-value run,
//! so a change to how the report is assembled, or to the guest and data
//! paths under it, cannot move a bit of it unnoticed. Values are
//! rendered explicitly (not through `Debug`), host-clock fields left out.

mod common;

use std::fmt::Write;

use common::{scenario, SCENARIOS};
use here::hypervisor::fault::DosOutcome;
use here::hypervisor::PAGE_SIZE;
use here::replication::{
    degradation, CheckpointRecord, FailureCause, FailurePlan, PeriodDecision, ReplicationConfig,
    RunReport, Scenario, SessionEvent,
};
use here::sim::{SimDuration, SimTime};
use here::workloads::phased::fig9_schedule;
use here::workloads::ycsb::{Ycsb, YcsbMix, YcsbSpec};
use here::workloads::PhasedMemStress;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fig. 9's shape at a small size: Algorithm 1 converges against the
/// 20 % phase during a warmup under load, then follows the phased load.
fn fig9_small() -> Scenario {
    Scenario::builder()
        .name("fig9_small")
        .vm_memory_mib(256)
        .vcpus(4)
        .workload(Box::new(
            PhasedMemStress::new(fig9_schedule()).expect("valid schedule"),
        ))
        .config(
            ReplicationConfig::dynamic(0.3, SimDuration::from_secs(25))
                .with_sigma(SimDuration::from_millis(100)),
        )
        .warmup_under_load(SimDuration::from_secs(20))
        .duration(SimDuration::from_secs(180))
        .seed(0x4845_5245)
        .build()
        .expect("valid scenario")
}

/// `session_kv`'s shape at test size: YCSB-A (scrambled Zipfian keys, the
/// KV store's WAL and memtable flushes, client-heap sweeps) on 4 vCPUs
/// under Algorithm 1, consistency verified at every checkpoint, and the
/// primary hanging while the guest is still busy.
fn ycsb_kv() -> Scenario {
    let driver = Ycsb::new(YcsbSpec {
        mix: YcsbMix::A,
        records: 20_000,
        operations: 1_000_000,
    })
    .expect("valid spec");
    let mib = (driver.required_pages() * PAGE_SIZE).div_ceil(1024 * 1024) + 8;
    Scenario::builder()
        .name("ycsb_kv")
        .vm_memory_mib(mib)
        .vcpus(4)
        .workload(Box::new(driver))
        .config(ReplicationConfig::dynamic(0.30, SimDuration::from_secs(5)))
        .duration(SimDuration::from_secs(20))
        .run_full_duration()
        .verify_consistency()
        .failure(FailurePlan {
            at: SimTime::from_secs(12),
            cause: FailureCause::Accident(DosOutcome::Hang),
            reattack_secondary: false,
        })
        .seed(0x2023_1211)
        .build()
        .expect("valid scenario")
}

/// The `Checkpoint` events of the log: when each epoch finished, its
/// record and the controller's decision.
fn checkpoint_events(report: &RunReport) -> Vec<(u64, &CheckpointRecord, &PeriodDecision)> {
    report
        .events
        .iter()
        .filter_map(|event| match event {
            SessionEvent::Checkpoint {
                record,
                decision,
                at_nanos,
            } => Some((*at_nanos, record, decision)),
            _ => None,
        })
        .collect()
}

/// One line per run: digests of the records, the decisions and the two
/// series, then the resource accounting and the report fingerprint.
fn digest_line(label: &str, report: &RunReport) -> String {
    let mut records = String::new();
    for c in &report.checkpoints {
        writeln!(
            records,
            "{} {} {} {} {} {:016x}",
            c.seq,
            c.paused_at.as_nanos(),
            c.period.as_nanos(),
            c.pause.as_nanos(),
            c.dirty_pages,
            c.degradation.to_bits()
        )
        .unwrap();
    }
    let log = checkpoint_events(report);
    assert_eq!(log.len(), report.checkpoints.len(), "{label}");
    let (mut decisions, mut period, mut degr) = (String::new(), String::new(), String::new());
    for (at_nanos, record, decision) in log {
        // What the controller measured is what the record says: the pause,
        // its degradation over the period the epoch ran with, that period
        // and the pages harvested.
        writeln!(
            decisions,
            "{} {:016x} {} {} {} {:016x} {} {}",
            decision.chosen_period.as_nanos(),
            decision.predicted_degradation.to_bits(),
            decision.action.label(),
            decision.clamp.map_or("none", |c| c.label()),
            record.pause.as_nanos(),
            degradation(record.pause, record.period).to_bits(),
            record.period.as_nanos(),
            record.dirty_pages,
        )
        .unwrap();
        writeln!(
            period,
            "{at_nanos} {:016x}",
            decision.chosen_period.as_secs_f64().to_bits()
        )
        .unwrap();
        writeln!(
            degr,
            "{at_nanos} {:016x}",
            (record.degradation * 100.0).to_bits()
        )
        .unwrap();
    }
    format!(
        "{label} checkpoints={} records={:016x} decisions={:016x} period={:016x} \
         degradation={:016x} cpu={:016x} rss={} fingerprint={:016x}",
        report.checkpoints.len(),
        fnv(&records),
        fnv(&decisions),
        fnv(&period),
        fnv(&degr),
        report.resources.cpu_core_pct.to_bits(),
        report.resources.rss.as_bytes(),
        report.fingerprint(),
    )
}

#[test]
fn every_checkpoint_view_of_the_report_is_pinned() {
    let mut got: Vec<String> = SCENARIOS
        .iter()
        .flat_map(|name| {
            [false, true].map(|armed| {
                digest_line(
                    &format!("{name} armed={armed}"),
                    &scenario(name, armed).run(),
                )
            })
        })
        .collect();
    got.push(digest_line("fig9_small", &fig9_small().run()));
    let want = PINNED.lines().map(str::trim).collect::<Vec<_>>();
    assert_eq!(got, want, "\n{}", got.join("\n"));
}

/// Guest writes, harvest and the v2 metadata codec each have a one-pass
/// form; the YCSB run goes through all three, so none may move a key, a
/// page version or a checkpoint.
#[test]
fn the_ycsb_kv_session_is_pinned() {
    let report = ycsb_kv().run();
    assert_eq!(report.consistency_checks, report.checkpoints.len() as u64);
    let got = format!(
        "{} ops={:016x}",
        digest_line("ycsb_kv", &report),
        report.ops_completed.to_bits()
    );
    assert_eq!(got, PINNED_KV.trim(), "\n{got}");
}

/// Recorded before guest writes, harvest and the page-batch codec became
/// single passes over slices.
const PINNED_KV: &str = "ycsb_kv checkpoints=11 records=a61061096fc91958 \
    decisions=d3438e68eb34bf8a period=349492200f68737b degradation=0d2cde51fa806491 \
    cpu=400840c1fc8f3237 rss=184979456 fingerprint=83db9e70fdacbbb3 ops=412a40de00000000";

/// Recorded at the commit before the report's checkpoint views became a
/// fold over the event log.
const PINNED: &str = "\
    pair_hang armed=false checkpoints=10 records=22e9e9610f17bd7b decisions=0c0dd32a4dd19005 period=9b86bfb40b2479cc degradation=2fbc1d5601287cdc cpu=3fe304c756b2dbd1 rss=87240704 fingerprint=3efd7d9b3eedbe86\n\
    pair_hang armed=true checkpoints=10 records=22e9e9610f17bd7b decisions=0c0dd32a4dd19005 period=9b86bfb40b2479cc degradation=2fbc1d5601287cdc cpu=3fe304c756b2dbd1 rss=87240704 fingerprint=3efd7d9b3eedbe86\n\
    quorum_faults armed=false checkpoints=12 records=f04de4a440a354e1 decisions=dc5d051607aee935 period=5d4c3a0a177b41c4 degradation=cbbc892172bba6b2 cpu=3fe6d288ce703afc rss=87240704 fingerprint=829c536e5b2094a9\n\
    quorum_faults armed=true checkpoints=12 records=f04de4a440a354e1 decisions=dc5d051607aee935 period=5d4c3a0a177b41c4 degradation=cbbc892172bba6b2 cpu=3fe6d288ce703afc rss=87240704 fingerprint=5800706e5026041a\n\
    retry_dry armed=false checkpoints=14 records=7e7964deb95771db decisions=97d4ca2cdc58fa8b period=37daf4c0d8387826 degradation=43c3716ff8aecf93 cpu=3fea9dec3e0265b5 rss=87242752 fingerprint=9de38bb0255baf36\n\
    retry_dry armed=true checkpoints=14 records=7e7964deb95771db decisions=97d4ca2cdc58fa8b period=37daf4c0d8387826 degradation=43c3716ff8aecf93 cpu=3fea9dec3e0265b5 rss=87242752 fingerprint=9de38bb0255baf36\n\
    overlap armed=false checkpoints=15 records=9b18bc7812106aab decisions=75c4fabe5dcd0b15 period=eb6c6167316bb9cf degradation=2a16abf7b31c3430 cpu=3fec851ff5a5b05d rss=87242752 fingerprint=81bb85f3d092893a\n\
    overlap armed=true checkpoints=15 records=9b18bc7812106aab decisions=75c4fabe5dcd0b15 period=eb6c6167316bb9cf degradation=2a16abf7b31c3430 cpu=3fec851ff5a5b05d rss=87242752 fingerprint=81bb85f3d092893a\n\
    fig9_small checkpoints=961 records=318e79ee7f4e2ac9 decisions=8a6244c5c1c1613b period=91631b3d6f616ae1 degradation=d62e00f02f51f7db cpu=404043c16f4a85b4 rss=281862144 fingerprint=6cb9f5ed7b593257\n\
";
