//! # here-simnet — virtual-time network substrate
//!
//! The network model of the HERE reproduction. The paper's testbed uses two
//! separate networks (§8.1): a 100 Gb/s Omni-Path interconnect reserved for
//! migration/replication, and a 10 GbE adapter for VM client traffic. This
//! crate models both as [`link::Link`]s with bandwidth and propagation
//! latency, and provides the outgoing-I/O buffer
//! ([`buffer::IoBuffer`]) that gives asynchronous state replication its
//! consistency guarantee — and its client-visible latency cost (Fig. 17).
//!
//! ## Example
//!
//! ```
//! use here_simnet::buffer::IoBuffer;
//! use here_simnet::link::Link;
//! use here_sim_core::rate::ByteSize;
//! use here_sim_core::time::SimTime;
//!
//! let repl_link = Link::omni_path_100g();
//! let mut io = IoBuffer::new();
//! // The guest emits a reply during epoch 1 ...
//! io.enqueue(ByteSize::from_bytes(1400), SimTime::ZERO, 1);
//! // ... checkpoint 1 copies state over repl_link, then commits:
//! let released = io.release_through(1, SimTime::from_secs(3));
//! assert_eq!(released.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod link;

pub use buffer::{IoBuffer, Packet, ReleasedPacket};
pub use link::Link;
