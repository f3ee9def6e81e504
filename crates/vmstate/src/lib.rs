//! # here-vmstate — VM state translation between heterogeneous hypervisors
//!
//! The state-translator substrate of the HERE reproduction (§5.3, §7.4).
//! Checkpoints captured on one hypervisor are in that hypervisor's native
//! formats; before they can be restored on a *different* hypervisor they
//! must pass through a common intermediate representation:
//!
//! - [`cir`]: the hypervisor-neutral Common Intermediate Representation of
//!   vCPU, platform, device and memory state;
//! - [`translate`]: the [`StateTranslator`]
//!   doing Xen ⇄ CIR ⇄ KVM conversion, plus the device-set switch;
//! - [`compat`]: CPUID/platform reconciliation so the guest never observes
//!   a feature disappearing across a failover;
//! - [`wire`]: the versioned, checksummed binary record stream the
//!   replication engines exchange.
//!
//! ## Example
//!
//! ```
//! use here_hypervisor::arch::ArchRegs;
//! use here_hypervisor::kind::HypervisorKind;
//! use here_hypervisor::vcpu::{VcpuStateBlob, XenVcpuState};
//! use here_vmstate::translate::StateTranslator;
//!
//! let translator = StateTranslator::new(HypervisorKind::Xen, HypervisorKind::Kvm)?;
//! let captured = VcpuStateBlob::Xen(XenVcpuState::from_arch(&ArchRegs::reset_state(), true));
//! let for_kvm = translator.translate_vcpu(&captured)?;
//! assert_eq!(for_kvm.to_arch(), captured.to_arch());
//! # Ok::<(), here_vmstate::translate::TranslateError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cir;
pub mod compat;
pub mod simd;
pub mod translate;
pub mod wire;

pub use cir::{CpuStateCir, MachineStateCir, MemoryDelta};
pub use compat::{check_resumable, reconcile, PlatformContract};
pub use translate::{StateTranslator, TranslateError};
pub use wire::{Record, StreamDecoder, StreamEncoder, WireError};
