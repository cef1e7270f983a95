//! # orca-panda — kernel-space vs user-space protocols on a simulated Amoeba
//!
//! A full reproduction of *Oey, Langendoen & Bal, "Comparing Kernel-Space and
//! User-Space Communication Protocols on Amoeba"* (ICDCS 1995) as a Rust
//! workspace. This facade crate re-exports the subsystem crates:
//!
//! - [`desim`] — deterministic discrete-event simulator (virtual time,
//!   simulated threads, the CPU/interrupt cost model);
//! - [`ethernet`] — 10 Mbit/s shared-medium segments, hardware multicast,
//!   switch, fault injection;
//! - [`flip`] — the FLIP network layer (location-transparent addressing,
//!   fragmentation, groups);
//! - [`amoeba`] — the microkernel model: cost accounting, kernel-space 3-way
//!   RPC and sequencer-based group communication;
//! - [`panda`] — the Panda portability layer, with both the kernel-space
//!   wrapper implementation and the user-space protocol implementation
//!   behind one trait;
//! - [`orca`] — the Orca runtime system: shared data-objects, replication,
//!   guarded operations with continuations;
//! - [`apps`] — the paper's six parallel applications and the benchmark
//!   harness.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use bytes::Bytes;
//! use orca_panda::prelude::*;
//!
//! // Boot two machines on one Ethernet segment, and the user-space Panda
//! // implementation on them.
//! let mut sim = Simulation::new(7);
//! let pool = world::boot(&mut sim, &TopologySpec::flat(2, 2), CostModel::default());
//! let nodes = world::build_stack(&mut sim, &pool.machines, Stack::User, &PandaConfig::default());
//!
//! // An echo service on node 1.
//! let echo = Arc::clone(&nodes[1]);
//! nodes[1].set_rpc_handler(Arc::new(move |ctx, _from, req, ticket| {
//!     echo.reply(ctx, ticket, req);
//! }));
//! for n in &nodes { n.set_group_handler(Arc::new(|_, _| {})); }
//! nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
//!
//! let client = Arc::clone(&nodes[0]);
//! let proc = pool.machines[0].proc();
//! let done = sim.spawn(proc, "client", move |ctx| {
//!     let reply = client.rpc(ctx, 1, Bytes::from_static(b"hello")).expect("rpc");
//!     assert_eq!(&reply[..], b"hello");
//! });
//! sim.run_until_finished(&done).expect("run");
//! ```

#![warn(missing_docs)]

pub use amoeba;
pub use apps;
pub use desim;
pub use ethernet;
pub use flip;
pub use orca;
pub use panda;

/// Convenient single import for examples and downstream experiments.
pub mod prelude {
    pub use amoeba::{CostModel, Machine};
    pub use desim::{ms, secs, us, Ctx, SimDuration, SimTime, Simulation};
    pub use ethernet::{Dest, MacAddr, NetConfig, Network, TopologySpec};
    pub use orca::{ObjId, OrcaRts, OrcaWorld, Placement};
    pub use panda::world::{self, Stack, World};
    pub use panda::{
        GroupDelivery, KernelSpacePanda, Panda, PandaConfig, ReplyTicket, UserSpacePanda,
    };
}
