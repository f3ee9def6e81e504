//! Host fault states induced by DoS exploits or accidents.
//!
//! The paper's vulnerability study (§8.2, Table 5) classifies the
//! post-attack outcome of DoS-only vulnerabilities into three categories —
//! crash, hang, and resource starvation — and argues HERE is applicable to
//! all of them because each eventually manifests as a missed heartbeat (or
//! is turned into a crash by an attack detector). This module models those
//! outcomes on a simulated host.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How a successful DoS manifests on its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DosOutcome {
    /// The target crashes and is completely shut down.
    Crash,
    /// The target stops responding to all requests.
    Hang,
    /// The target malfunctions so as to starve certain resources; it still
    /// responds, but degraded.
    Starvation,
}

impl DosOutcome {
    /// Every outcome category of the §8.2 study, in declaration order —
    /// for fault-injection sweeps and matrix tests.
    pub const ALL: [DosOutcome; 3] = [DosOutcome::Crash, DosOutcome::Hang, DosOutcome::Starvation];

    /// Short lowercase label, as logs and bundles spell the outcome.
    pub fn label(self) -> &'static str {
        match self {
            DosOutcome::Crash => "crash",
            DosOutcome::Hang => "hang",
            DosOutcome::Starvation => "starvation",
        }
    }
}

impl fmt::Display for DosOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The health of a simulated hypervisor host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HostHealth {
    /// Operating normally.
    #[default]
    Healthy,
    /// Crashed: no requests are serviced, heartbeats stop immediately.
    Crashed,
    /// Hung: no requests are serviced, heartbeats stop immediately (from
    /// the observer's perspective, indistinguishable from a crash).
    Hung,
    /// Starved: requests are serviced but the host is unable to sustain its
    /// management duties; heartbeats become unreliable.
    Starved,
}

impl HostHealth {
    /// `true` if the host can service control-plane requests at all.
    pub fn can_service(self) -> bool {
        matches!(self, HostHealth::Healthy | HostHealth::Starved)
    }

    /// `true` if the host still emits heartbeats reliably.
    pub fn heartbeats_reliable(self) -> bool {
        matches!(self, HostHealth::Healthy)
    }

    /// The health state a given DoS outcome induces.
    pub fn from_outcome(outcome: DosOutcome) -> Self {
        match outcome {
            DosOutcome::Crash => HostHealth::Crashed,
            DosOutcome::Hang => HostHealth::Hung,
            DosOutcome::Starvation => HostHealth::Starved,
        }
    }

    /// Short lowercase label for error messages.
    pub fn label(self) -> &'static str {
        match self {
            HostHealth::Healthy => "healthy",
            HostHealth::Crashed => "crashed",
            HostHealth::Hung => "hung",
            HostHealth::Starved => "starved",
        }
    }
}

impl fmt::Display for HostHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_to_health_mapping() {
        assert_eq!(
            HostHealth::from_outcome(DosOutcome::Crash),
            HostHealth::Crashed
        );
        assert_eq!(HostHealth::from_outcome(DosOutcome::Hang), HostHealth::Hung);
        assert_eq!(
            HostHealth::from_outcome(DosOutcome::Starvation),
            HostHealth::Starved
        );
    }

    #[test]
    fn all_covers_every_outcome_once() {
        assert_eq!(DosOutcome::ALL.len(), 3);
        for (i, a) in DosOutcome::ALL.iter().enumerate() {
            for b in &DosOutcome::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn service_and_heartbeat_semantics() {
        assert!(HostHealth::Healthy.can_service());
        assert!(HostHealth::Healthy.heartbeats_reliable());
        assert!(!HostHealth::Crashed.can_service());
        assert!(!HostHealth::Hung.can_service());
        // A starved host limps along but its heartbeats are unreliable,
        // which is what lets the failure detector eventually fire.
        assert!(HostHealth::Starved.can_service());
        assert!(!HostHealth::Starved.heartbeats_reliable());
    }
}
