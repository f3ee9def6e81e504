//! # here-hypervisor — simulated Xen and KVM hosts
//!
//! The hypervisor substrate of the HERE reproduction. Real HERE patches Xen
//! 4.12 and kvmtool; this crate provides faithful *simulations* of the
//! control-plane surfaces those patches touch, deliberately keeping the two
//! hypervisors' state formats incompatible so that the state translator
//! ([`here-vmstate`]) and device switcher have real work to do:
//!
//! - [`memory`]: sparse versioned guest memory with deterministic page
//!   materialisation;
//! - [`dirty`]: the global log-dirty bitmap, read and cleared through
//!   [`host::Hypervisor::snapshot_dirty`] (§7.2);
//! - [`vcpu`]: architecture truth plus the incompatible Xen/KVM vCPU state
//!   formats;
//! - [`cpuid`]: feature policies and cross-hypervisor masking (§7.4);
//! - [`devices`]: Xen PV vs. virtio device models and the in-guest
//!   device-switch agent (§5.2, §7.3);
//! - [`xen`], [`kvm`]: the two simulated hosts behind the common
//!   [`host::Hypervisor`] trait;
//! - [`fault`]: crash/hang/starvation host states for exploit injection.
//!
//! [`here-vmstate`]: ../here_vmstate/index.html
//!
//! ## Example
//!
//! ```
//! use here_hypervisor::host::Hypervisor;
//! use here_hypervisor::kvm::KvmHypervisor;
//! use here_hypervisor::xen::XenHypervisor;
//! use here_hypervisor::vm::VmConfig;
//! use here_sim_core::rate::ByteSize;
//!
//! # fn main() -> Result<(), here_hypervisor::error::HvError> {
//! let mut primary = XenHypervisor::new(ByteSize::from_gib(192));
//! let mut secondary = KvmHypervisor::new(ByteSize::from_gib(192));
//! let cfg = VmConfig::new("protected", ByteSize::from_mib(64), 4)?;
//! let vm = primary.create_vm(cfg.clone())?;
//! let replica = secondary.create_shell(cfg)?;
//! assert_ne!(primary.kind(), secondary.kind());
//! # let _ = (vm, replica);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch;
pub mod cpuid;
pub mod devices;
pub mod dirty;
pub mod error;
pub mod fault;
pub mod host;
pub mod kind;
pub mod kvm;
pub mod memory;
pub mod vcpu;
pub mod vm;
pub mod xen;

pub use error::{HvError, HvResult};
pub use host::Hypervisor;
pub use kind::HypervisorKind;
pub use kvm::KvmHypervisor;
pub use memory::{PageId, PAGE_SIZE};
pub use vcpu::VcpuId;
pub use vm::{VmConfig, VmId};
pub use xen::XenHypervisor;
