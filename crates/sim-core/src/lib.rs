//! # here-sim-core — deterministic virtual-time simulation kernel
//!
//! The foundation of the HERE reproduction. Everything above this crate —
//! the simulated hypervisors, the network, the workloads, and the
//! replication engine itself — runs on *virtual time* supplied here, which
//! makes every experiment deterministic, host-independent, and assertable in
//! tests.
//!
//! The crate provides:
//!
//! - [`time`]: [`SimTime`](time::SimTime) instants and
//!   [`SimDuration`](time::SimDuration) spans with nanosecond resolution;
//! - [`queue`]: a deterministic [`EventQueue`](queue::EventQueue) with FIFO
//!   tie-breaking for same-instant events;
//! - [`rng`]: seeded, forkable random streams ([`SimRng`](rng::SimRng));
//! - [`metrics`]: the exact-quantile [`Histogram`] behind the client
//!   latency distribution (Fig. 17);
//! - [`stats`]: summary statistics and the least-squares fit used to verify
//!   the paper's `f(N) = αN` linearity claim (Fig. 5);
//! - [`rate`]: byte and bandwidth units with transfer-time conversion.
//!
//! ## Example
//!
//! ```
//! use here_sim_core::queue::EventQueue;
//! use here_sim_core::time::{SimDuration, SimTime};
//!
//! // A miniature event loop: schedule two checkpoints and drain them.
//! let mut clock = SimTime::ZERO;
//! let mut queue = EventQueue::new();
//! queue.push(clock + SimDuration::from_secs(3), "checkpoint 1");
//! queue.push(clock + SimDuration::from_secs(6), "checkpoint 2");
//! while let Some((at, ev)) = queue.pop() {
//!     clock = at;
//!     let _ = ev;
//! }
//! assert_eq!(clock, SimTime::from_secs(6));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod metrics;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod stats;
pub mod time;

pub use metrics::Histogram;
pub use queue::EventQueue;
pub use rate::{Bandwidth, ByteSize};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
