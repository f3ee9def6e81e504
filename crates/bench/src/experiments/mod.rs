//! Experiment runners — one per table/figure of the paper's evaluation.
//!
//! Every runner comes in two scales: [`Scale::Paper`] uses the paper's VM
//! sizes, record counts and durations (what the `repro` binary runs);
//! [`Scale::Quick`] shrinks them for tests and CI.

pub mod analyze;
pub mod apps;
pub mod chaos;
pub mod checkpoint;
pub mod datapath;
pub mod dynamic;
pub mod health;
pub mod migration;
pub mod network;
pub mod observe;
pub mod overhead;
pub mod postmortem;
pub mod security;
pub mod stages;
pub mod topology;
pub mod wire;

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's configuration.
    Paper,
    /// Shrunk configuration for tests and CI.
    Quick,
}

impl Scale {
    /// VM memory sizes (GiB) for the memory-size sweeps (Figs. 6–8).
    pub fn memory_sweep_gib(self) -> &'static [u64] {
        match self {
            Scale::Paper => &[1, 2, 4, 8, 16, 20],
            Scale::Quick => &[1, 2],
        }
    }

    /// Memory-load percentages for the loaded sweeps (Fig. 6 right).
    pub fn load_sweep_pct(self) -> &'static [u8] {
        match self {
            Scale::Paper => &[10, 20, 40, 60, 80],
            Scale::Quick => &[10, 40],
        }
    }
}
