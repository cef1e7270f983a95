//! # amoeba — the Amoeba microkernel model
//!
//! The kernel-resident half of the paper's comparison:
//!
//! - [`CostModel`]: calibrated per-operation CPU costs of the 50 MHz SPARC
//!   machines (context switches, register-window traps, system calls,
//!   interrupt processing, copies) — every constant an ablation knob;
//! - [`Machine`]: one booted machine — CPU, kernel FLIP interface, network
//!   interrupt service loop, and the syscall entry points user-space code
//!   (the Panda user-space implementation) uses to reach raw FLIP;
//! - [`RpcServer`]/[`RpcClient`]: Amoeba's kernel-space 3-way RPC with the
//!   `get_request`/`put_reply` same-thread restriction, the kernel
//!   placement of the RPC protocol that [`rpc::core`] (the at-most-once
//!   table) and [`rpc::Waiting`] (the client loop) hold for both stacks;
//! - [`GroupMember`]: Amoeba's kernel-space totally-ordered group
//!   communication with the sequencer running in interrupt context.
//!
//! The structural point reproduced here: kernel protocol work runs at
//! interrupt level, so a blocked caller is resumed without a context switch,
//! while user-space protocols must schedule daemon threads — the
//! microsecond-level asymmetry Section 4 of the paper accounts for.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
pub mod group;
mod machine;
pub mod rpc;

pub use cost::{CostModel, AMOEBA_GROUP_HEADER_BYTES, AMOEBA_RPC_HEADER_BYTES};
pub use group::{GroupConfig, GroupError, GroupMember, GroupMessage, GroupSpec};
pub use machine::{fragments_of, KernelHandler, Machine};
pub use rpc::{
    client_addr, port_addr, Port, ReplyToken, RpcClient, RpcConfig, RpcError, RpcServer,
};
