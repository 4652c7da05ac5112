//! Cycle-level TLB hardware designs from *Secure TLBs* (ISCA 2019).
//!
//! This crate implements, as faithful state machines, the TLB designs the
//! paper implements in Chisel on the Rocket Core RISC-V processor:
//!
//! - the standard **set-associative (SA) TLB** with ASID tags and true-LRU
//!   replacement (fully-associative and single-entry TLBs are degenerate
//!   configurations), see [`SaTlb`];
//! - the **Static-Partition (SP) TLB** of Section 4.1: TLB ways are split
//!   between a victim process and everything else, see [`SpTlb`];
//! - the **Random-Fill (RF) TLB** of Section 4.2: misses in or around a
//!   configured secure region trigger a *random* fill while the requested
//!   translation is returned through a no-fill buffer, see [`RfTlb`].
//!
//! The TLBs are pure hardware models: they do not walk page tables
//! themselves but call back into a [`Translator`] (the system's page-table
//! walker) for translations, exactly like the hardware issues PTW requests.
//!
//! # Example
//!
//! ```
//! use sectlb_tlb::{SaTlb, TlbConfig, TlbCore, Translator, WalkResult};
//! use sectlb_tlb::types::{Asid, Ppn, Vpn};
//!
//! /// An identity "page table" for illustration.
//! struct Identity;
//! impl Translator for Identity {
//!     fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
//!         WalkResult::page(Ppn(vpn.0), 60)
//!     }
//! }
//!
//! let mut tlb = SaTlb::new(TlbConfig::sa(32, 4).unwrap());
//! let (asid, vpn) = (Asid(1), Vpn(0x1000));
//! let miss = tlb.access(asid, vpn, &mut Identity);
//! assert!(!miss.hit);
//! let hit = tlb.access(asid, vpn, &mut Identity);
//! assert!(hit.hit && hit.walk_cycles == 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
pub mod check;
pub mod config;
pub mod dispatch;
pub mod hierarchy;
mod lru;
pub mod multi;
pub mod partition;
pub mod random_fill;
pub mod rfe;
pub mod set_assoc;
pub mod stats;
mod store;
pub mod temporal;
pub mod tlb_trait;
pub mod types;

pub use check::{CorruptionKind, CorruptionReport, IntegrityError, IntegrityKind, SnapshotEntry};
pub use config::{MultiConfig, TlbConfig, TlbOrg};
pub use dispatch::TlbUnit;
pub use hierarchy::TlbHierarchy;
pub use multi::MsTlb;
pub use partition::{PartitionError, SpTlb};
pub use random_fill::{InvalidationPolicy, RandomFillEviction, RfTlb};
pub use rfe::RandomFillEngine;
pub use set_assoc::SaTlb;
pub use stats::TlbStats;
pub use temporal::{ClearScope, TpTlb};
pub use tlb_trait::{AccessResult, TlbCore, Translator, WalkResult};
pub use types::{RegionError, SecureRegion};
