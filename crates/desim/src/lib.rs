//! # desim — deterministic discrete-event simulation
//!
//! A small discrete-event simulator built for reproducing operating-system
//! level protocol studies. It provides:
//!
//! - a virtual clock with nanosecond resolution ([`SimTime`], [`SimDuration`]);
//! - simulated threads written as ordinary blocking Rust closures, multiplexed
//!   one-at-a-time under a deterministic scheduler ([`Simulation`], [`Ctx`]);
//! - a per-machine **CPU model**: [`Ctx::compute`] occupies the machine's
//!   processor (FIFO), pays a context-switch cost when a different thread ran
//!   last, and is *preempted* (extended) by interrupt-level work charged via
//!   [`Ctx::charge`] with [`On::Interrupt`] — the mechanism at the heart of
//!   the kernel-space vs user-space comparison this workspace reproduces;
//! - blocking primitives in virtual time: [`SimMutex`], [`SimCondvar`], and
//!   [`SimChannel`] with timeouts.
//!
//! Determinism: with the same seed and program, every run produces the same
//! schedule, the same virtual timestamps, and the same results.
//!
//! # Examples
//!
//! ```
//! use desim::{Simulation, SimChannel, us};
//!
//! let mut sim = Simulation::new(7);
//! let m0 = sim.add_processor("m0");
//! let m1 = sim.add_processor("m1");
//! let ch = SimChannel::new();
//!
//! let tx = ch.clone();
//! sim.spawn(m0, "client", move |ctx| {
//!     ctx.compute(us(10));           // 10us of CPU work on m0
//!     tx.send(ctx, "ping").unwrap(); // instant hand-off
//! });
//! let server = sim.spawn(m1, "server", move |ctx| {
//!     let msg = ch.recv(ctx).unwrap();
//!     assert_eq!(msg, "ping");
//!     assert_eq!(ctx.now().as_micros_f64(), 10.0);
//! });
//! sim.run_until_finished(&server).expect("run to completion");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod channel;
mod core;
mod ctx;
mod fiber;
pub mod par;
mod queue;
mod shard;
mod sim;
mod sync;
mod time;
pub mod trace;
mod wheel;

pub use backend::{set_backend_override, Backend};
pub use channel::{PendingWake, RecvTimeoutError, SendError, SimChannel};
pub use core::{ProcId, ThreadId};
pub use ctx::{Ctx, On};
pub use fiber::FIBER_STACK_POOL_CAP;
pub use queue::QueueStats;
pub use shard::{set_shards_override, LaneId, XSender};
pub use sim::{
    ProcReport, SimError, SimReport, Simulation, SimulationBuilder, ThreadHandle, WindowStats,
};
pub use sync::{SimCondvar, SimMutex, SimMutexGuard};
pub use time::{ms, secs, us, SimDuration, SimTime};
pub use trace::{CounterSnapshot, Layer, Phase, TraceEvent};
