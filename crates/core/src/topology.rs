//! The replica-set topology: N heterogeneous replicas behind one primary.
//!
//! The paper's engine protects a VM with exactly one replica; this module
//! generalises that pair into a [`ReplicaSet`] of N replicas, each with
//! its own host, replication link, wire session and catch-up backlog. The
//! Transfer stage fans each encoded epoch out across the set (star or
//! chained, per [`FanoutMode`](crate::config::FanoutMode)), the
//! [`CommitLedger`](crate::failover::CommitLedger) commits an epoch once a
//! quorum of replicas acked it, and failover activates the replica the
//! ledger's one-shot activation names: the one holding the most recent
//! applied state. A `ReplicaSet` of one replica
//! is exactly the paper's 1→1 pair: replica 0 is always the strategy's
//! canonical secondary.
//!
//! Replica hosts alternate families beyond index 0 when the strategy is
//! heterogeneous (HERE): even indices get the strategy's secondary
//! (KVM/kvmtool), odd indices a homogeneous Xen peer — so a quorum can
//! never be taken out by a single-hypervisor exploit, the robustness
//! argument of §8.2 extended to N-way. Remus stays all-Xen.

use here_hypervisor::host::Hypervisor;
use here_hypervisor::kind::HypervisorKind;
use here_hypervisor::vm::VmId;
use here_hypervisor::XenHypervisor;
use here_sim_core::rate::ByteSize;
use here_simnet::link::Link;
use here_vmstate::translate::StateTranslator;
use here_vmstate::MemoryDelta;

use crate::config::Strategy;
use crate::error::CoreResult;
use crate::failover::Activation;

/// One replica of the protected VM: its host hypervisor, the never-run
/// VM shell, the failover state translator for its family, its own
/// replication link, and its delta base and catch-up state. It keeps no
/// staging copy of an epoch: an apply checks the stream, then installs
/// straight from the stream's bytes.
#[derive(Debug)]
pub struct Replica {
    /// 0-based index within the set.
    pub(crate) index: u32,
    /// The replica's host hypervisor.
    pub(crate) host: Box<dyn Hypervisor>,
    /// The replica VM shell on that host.
    pub(crate) vm: VmId,
    /// Translator from the primary's native state to this replica's
    /// family (`None` for a homogeneous Xen replica).
    pub(crate) translator: Option<StateTranslator>,
    /// This replica's dedicated replication link.
    pub(crate) link: Link,
    /// The committed epoch this replica's image reflects — the delta base
    /// it accepts v3 records against (0 before any commit and under v2).
    /// The image itself is the base, because an apply checks the whole
    /// stream before it installs any of it.
    pub(crate) base_epoch: u64,
    /// Pages this replica missed while its link misbehaved: installed on
    /// its next successful apply (asynchronous catch-up), newest version
    /// winning on overlap.
    pub(crate) backlog: MemoryDelta,
    /// Whether the replica missed an epoch since its delta base, with or
    /// without pages: the quorum committed it, so the next stream may
    /// name a newer base, which the replica adopts as its backlog
    /// installs. Set with the backlog, cleared by an install.
    pub(crate) missed_epoch: bool,
    /// True while the replica trails the primary past the configured
    /// staleness bound.
    pub(crate) stale: bool,
    /// Wire format version negotiated with the primary for this replica
    /// (`min(session offer, replica capability)`; defaults to v2).
    pub(crate) wire_version: u16,
}

impl Replica {
    pub(crate) fn new(
        index: u32,
        host: Box<dyn Hypervisor>,
        vm: VmId,
        translator: Option<StateTranslator>,
    ) -> Self {
        Replica {
            index,
            host,
            vm,
            translator,
            link: Link::omni_path_100g(),
            base_epoch: 0,
            backlog: MemoryDelta::new(),
            missed_epoch: false,
            stale: false,
            wire_version: here_vmstate::wire::VERSION,
        }
    }

    /// The replica's 0-based index within its set.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The replica host's hypervisor family.
    pub fn kind(&self) -> HypervisorKind {
        self.host.kind()
    }

    /// Pages parked in the replica's catch-up backlog — the health
    /// plane's backlog-depth signal.
    pub fn backlog_pages(&self) -> u64 {
        self.backlog.len() as u64
    }

    /// The wire format version this replica negotiated with the primary.
    pub fn wire_version(&self) -> u16 {
        self.wire_version
    }
}

/// The set of replicas a session protects the primary with, and which of
/// them failover activated.
///
/// `ReplicaSet::activate` takes the ledger's one-shot activation, which
/// the ledger mints at most once: two replicas can never both take over
/// the service.
#[derive(Debug)]
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    activated: Option<u32>,
}

impl ReplicaSet {
    /// Wraps already-constructed replicas into a set.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty — a session always has at least the
    /// canonical secondary.
    pub(crate) fn from_replicas(replicas: Vec<Replica>) -> Self {
        assert!(!replicas.is_empty(), "a replica set needs >= 1 replica");
        ReplicaSet {
            replicas,
            activated: None,
        }
    }

    /// Number of replicas in the set.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True if the set holds no replicas (never true for a built set).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica at `index`.
    pub fn get(&self, index: u32) -> &Replica {
        &self.replicas[index as usize]
    }

    pub(crate) fn get_mut(&mut self, index: u32) -> &mut Replica {
        &mut self.replicas[index as usize]
    }

    /// Iterates the replicas in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Replica> {
        self.replicas.iter()
    }

    /// Activates the replica `activation` names.
    pub(crate) fn activate(&mut self, activation: Activation) {
        let index = activation.replica();
        assert!((index as usize) < self.replicas.len());
        self.activated = Some(index);
    }

    /// The activated replica's index, if failover has run.
    pub fn activated(&self) -> Option<u32> {
        self.activated
    }

    pub(crate) fn active_mut(&mut self) -> &mut Replica {
        let idx = self.activated.expect("no replica activated");
        self.get_mut(idx)
    }
}

/// A replica's hypervisor paired with the translator checkpoints need to
/// reach its native format (`None` when it shares the primary's family).
pub(crate) type ReplicaHost = (Box<dyn Hypervisor>, Option<StateTranslator>);

/// Builds the replica hosts for an N-way set under `strategy`: replica 0
/// is exactly the strategy's canonical secondary; beyond it a
/// heterogeneous strategy alternates its secondary family (even indices)
/// with homogeneous Xen peers (odd indices), while a homogeneous
/// strategy stays all-Xen. Returns each host with its failover
/// translator.
pub(crate) fn make_replica_hosts(
    strategy: Strategy,
    host_memory: ByteSize,
    replicas: u32,
) -> CoreResult<Vec<ReplicaHost>> {
    assert!(replicas >= 1, "a topology needs at least one replica");
    let canonical = strategy.make_secondary(host_memory)?;
    let heterogeneous = canonical.1.is_some();
    let mut hosts = Vec::with_capacity(replicas as usize);
    hosts.push(canonical);
    for index in 1..replicas {
        if heterogeneous && index % 2 == 0 {
            hosts.push(strategy.make_secondary(host_memory)?);
        } else {
            hosts.push((
                Box::new(XenHypervisor::new(host_memory)) as Box<dyn Hypervisor>,
                None,
            ));
        }
    }
    Ok(hosts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failover::CommitLedger;
    use here_hypervisor::vm::VmConfig;
    use here_sim_core::time::SimTime;

    fn tiny_set(n: u32) -> ReplicaSet {
        let hosts = make_replica_hosts(Strategy::Here, ByteSize::from_gib(16), n).unwrap();
        let replicas = hosts
            .into_iter()
            .enumerate()
            .map(|(i, (mut host, translator))| {
                let cfg = VmConfig::new(format!("r{i}"), ByteSize::from_mib(16), 1).unwrap();
                let vm = host.create_shell(cfg).unwrap();
                Replica::new(i as u32, host, vm, translator)
            })
            .collect();
        ReplicaSet::from_replicas(replicas)
    }

    #[test]
    fn here_sets_alternate_families_beyond_the_canonical_secondary() {
        let set = tiny_set(5);
        let kinds: Vec<HypervisorKind> = set.iter().map(Replica::kind).collect();
        assert_eq!(
            kinds,
            vec![
                HypervisorKind::Kvm,
                HypervisorKind::Xen,
                HypervisorKind::Kvm,
                HypervisorKind::Xen,
                HypervisorKind::Kvm,
            ]
        );
        // Translators exist exactly for the heterogeneous members.
        for r in set.iter() {
            assert_eq!(r.translator.is_some(), r.kind() == HypervisorKind::Kvm);
        }
    }

    #[test]
    fn remus_sets_stay_homogeneous() {
        let hosts = make_replica_hosts(Strategy::Remus, ByteSize::from_gib(16), 3).unwrap();
        for (host, translator) in &hosts {
            assert_eq!(host.kind(), HypervisorKind::Xen);
            assert!(translator.is_none());
        }
    }

    #[test]
    fn activation_latches_exactly_once() {
        let mut set = tiny_set(3);
        assert_eq!(set.activated(), None);
        let mut ledger = CommitLedger::with_quorum(3, 2);
        let _ = ledger.ack(1, 1, SimTime::from_secs(1));
        set.activate(ledger.activate());
        assert_eq!(set.activated(), Some(1));
        assert_eq!(set.active_mut().index(), 1);
    }
}
