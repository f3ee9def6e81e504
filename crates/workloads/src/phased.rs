//! Time-varying workloads for the dynamic-period experiments.
//!
//! Fig. 9 drives the memory microbenchmark through load phases — "20 % of
//! the memory at first, increasing to 80 % afterwards and falling back to
//! 5 % at the end" — and watches the checkpoint period manager adapt.

use here_hypervisor::vm::Vm;
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};

use crate::memstress::MemStress;
use crate::traits::{Progress, Workload};

/// One phase of a phased memory load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// When the phase begins.
    pub at: SimTime,
    /// Memory percentage the microbenchmark uses from `at` onwards.
    pub percent: u8,
}

/// The paper's Fig. 9 load schedule: 20 % → 80 % (t = 20 s) → 5 %
/// (t = 125 s).
pub fn fig9_schedule() -> Vec<Phase> {
    vec![
        Phase {
            at: SimTime::ZERO,
            percent: 20,
        },
        Phase {
            at: SimTime::from_secs(20),
            percent: 80,
        },
        Phase {
            at: SimTime::from_secs(125),
            percent: 5,
        },
    ]
}

/// A memory microbenchmark whose working-set percentage follows a schedule.
///
/// # Examples
///
/// ```
/// use here_workloads::phased::{fig9_schedule, PhasedMemStress};
/// use here_workloads::traits::Workload;
///
/// let w = PhasedMemStress::new(fig9_schedule()).unwrap();
/// assert_eq!(w.name(), "phased-memstress");
/// ```
#[derive(Debug, Clone)]
pub struct PhasedMemStress {
    inner: MemStress,
    phases: Vec<Phase>,
    applied: usize,
    last_now: SimTime,
}

/// Error building a phased workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseError(pub String);

impl std::fmt::Display for PhaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "phase schedule error: {}", self.0)
    }
}

impl std::error::Error for PhaseError {}

impl PhasedMemStress {
    /// Creates a phased microbenchmark following `phases`.
    ///
    /// # Errors
    ///
    /// Returns [`PhaseError`] if the schedule is empty, does not start at
    /// time zero, or is not strictly increasing in time.
    pub fn new(phases: Vec<Phase>) -> Result<Self, PhaseError> {
        if phases.is_empty() {
            return Err(PhaseError("schedule must have at least one phase".into()));
        }
        if phases[0].at != SimTime::ZERO {
            return Err(PhaseError("first phase must start at time zero".into()));
        }
        if phases.windows(2).any(|w| w[1].at <= w[0].at) {
            return Err(PhaseError("phase times must be strictly increasing".into()));
        }
        let inner = MemStress::with_percent(phases[0].percent);
        Ok(PhasedMemStress {
            inner,
            phases,
            applied: 1,
            last_now: SimTime::ZERO,
        })
    }

    /// The load percentage in effect at instant `now`.
    pub fn percent_at(&self, now: SimTime) -> u8 {
        self.phases
            .iter()
            .rev()
            .find(|p| p.at <= now)
            .map(|p| p.percent)
            .unwrap_or(self.phases[0].percent)
    }

    /// Overrides the inner write rate (pages per second).
    pub fn with_rate(mut self, pages_per_sec: u64) -> Self {
        self.inner = self.inner.with_rate(pages_per_sec);
        self
    }
}

impl Workload for PhasedMemStress {
    fn name(&self) -> &str {
        "phased-memstress"
    }

    fn advance(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        vm: &mut Vm,
        rng: &mut SimRng,
    ) -> Progress {
        if now < self.last_now {
            // The engine rebased the workload clock (end of a warmup):
            // replay the schedule from the top.
            self.applied = 0;
            self.inner.set_percent(self.phases[0].percent);
        }
        self.last_now = now;
        while self.applied < self.phases.len() && self.phases[self.applied].at <= now {
            self.inner.set_percent(self.phases[self.applied].percent);
            self.applied += 1;
        }
        self.inner.advance(now, dt, vm, rng)
    }

    fn reset(&mut self) {
        self.applied = 1;
        self.last_now = SimTime::ZERO;
        self.inner.set_percent(self.phases[0].percent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_hypervisor::cpuid::CpuidPolicy;
    use here_hypervisor::host::Hypervisor;
    use here_hypervisor::vm::VmConfig;
    use here_hypervisor::XenHypervisor;
    use here_sim_core::rate::ByteSize;

    #[test]
    fn schedule_validation() {
        assert!(PhasedMemStress::new(vec![]).is_err());
        assert!(PhasedMemStress::new(vec![Phase {
            at: SimTime::from_secs(1),
            percent: 10,
        }])
        .is_err());
        assert!(PhasedMemStress::new(vec![
            Phase {
                at: SimTime::ZERO,
                percent: 10
            },
            Phase {
                at: SimTime::ZERO,
                percent: 20
            },
        ])
        .is_err());
        assert!(PhasedMemStress::new(fig9_schedule()).is_ok());
    }

    #[test]
    fn percent_at_follows_the_schedule() {
        let w = PhasedMemStress::new(fig9_schedule()).unwrap();
        assert_eq!(w.percent_at(SimTime::from_secs(0)), 20);
        assert_eq!(w.percent_at(SimTime::from_secs(19)), 20);
        assert_eq!(w.percent_at(SimTime::from_secs(20)), 80);
        assert_eq!(w.percent_at(SimTime::from_secs(124)), 80);
        assert_eq!(w.percent_at(SimTime::from_secs(300)), 5);
    }

    #[test]
    fn phase_transitions_change_the_dirty_set_size() {
        let mut xen = XenHypervisor::new(ByteSize::from_gib(12));
        let cfg = VmConfig::new("p", ByteSize::from_mib(8), 2)
            .unwrap()
            .with_cpuid(CpuidPolicy::xen_default());
        let id = xen.create_vm(cfg).unwrap();
        xen.vm_mut(id).unwrap().dirty_mut().enable_logging();
        let mut w = PhasedMemStress::new(vec![
            Phase {
                at: SimTime::ZERO,
                percent: 10,
            },
            Phase {
                at: SimTime::from_secs(10),
                percent: 80,
            },
        ])
        .unwrap()
        .with_rate(10_000_000);
        let mut rng = SimRng::seed_from(1);
        let vm = xen.vm_mut(id).unwrap();
        w.advance(SimTime::ZERO, SimDuration::from_secs(1), vm, &mut rng);
        let small = vm.dirty_mut().bitmap_mut().drain().len();
        w.advance(
            SimTime::from_secs(11),
            SimDuration::from_secs(1),
            vm,
            &mut rng,
        );
        let large = vm.dirty_mut().bitmap_mut().drain().len();
        assert!(large > small * 4, "small={small} large={large}");
    }
}
