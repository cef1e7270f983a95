//! # panda — the Panda portability layer, both ways
//!
//! Panda is the layer between the Orca runtime system and the operating
//! system (Figure 1 of the paper): threads, RPC, and totally ordered group
//! communication. This crate contains the paper's two rival implementations
//! behind one trait, [`Panda`]:
//!
//! - [`KernelSpacePanda`] — wrapper routines over Amoeba's kernel protocols
//!   (left half of Figure 2). Fast primitives, but the kernel's
//!   `get_request`/`put_reply` pairing forces an extra context switch for
//!   asynchronous replies, and nothing about the protocols can change
//!   without changing the kernel.
//! - [`UserSpacePanda`] — Panda's own 2-way RPC and sequencer-based group
//!   protocol in user space over raw FLIP system calls (right half of
//!   Figure 2). Slightly slower primitives — the paper's Section 4 accounts
//!   for every microsecond — but flexible: asynchronous replies transmit
//!   from any thread, and a dedicated-sequencer configuration is a
//!   constructor flag rather than a kernel patch.
//!
//! ```text
//!               Orca runtime system
//!                       │
//!                 trait Panda (rpc / reply / group_send + upcalls)
//!            ┌──────────┴──────────┐
//!   KernelSpacePanda        UserSpacePanda
//!   (amoeba::Rpc*,          (SysLayer + UserRpc + UserGroup
//!    amoeba::GroupMember)    over Machine::flip_*_syscall)
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod group;
mod kernel_space;
mod rpc;
mod system;
mod transport;
mod user_space;

pub use group::UserGroup;
pub use kernel_space::KernelSpacePanda;
pub use system::{
    panda_addr, panda_eth_group, panda_group_addr, Module, ModuleUpcall, PandaHeader, SysLayer,
    PANDA_GROUP_HEADER_BYTES, PANDA_RPC_HEADER_BYTES,
};
pub use transport::{
    CommError, GroupDelivery, GroupHandler, NodeId, Panda, PandaConfig, ReplyTicket, RpcHandler,
};
pub use user_space::UserSpacePanda;
