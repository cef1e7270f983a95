//! Deterministic chaos engine for the Panda protocol stacks.
//!
//! The simulator is deterministic: one seed fixes the entire execution. That
//! turns fault testing into a *search problem* (FoundationDB-style): generate
//! a randomized fault plan from a seed, run a workload on a protocol stack
//! under that plan, and assert the protocol's end-to-end invariants —
//! exactly-once RPC execution, gap-free identical total order at every
//! member, per-machine clock monotonicity, and frame conservation. A failing
//! seed reproduces forever; [`explore()`] sweeps thousands of seeds and, on
//! failure, prints a one-line repro command plus a minimized fault plan.
//!
//! Layers:
//! - [`plan`] — seeded [`plan::FaultPlan`] generation (loss, burst loss,
//!   duplication, reordering, partitions, crash/reboot, schedule
//!   perturbation) and greedy plan minimization;
//! - [`testutil`] — re-exports of [`panda::world`] plus the single-segment
//!   shorthands the engine and the workspace's integration tests boot with;
//! - [`engine`] — one chaos run: boot a stack, drive a mixed RPC/broadcast
//!   workload under the plan, collect artifacts, hash the trace;
//! - [`invariants`] — the checks applied to a run's artifacts;
//! - [`mod@explore`] — the seed sweep behind the `chaos-explore` binary.

#![warn(missing_docs)]

pub mod engine;
pub mod explore;
pub mod invariants;
pub mod plan;
pub mod testutil;

pub use engine::{run_chaos, ChaosConfig, ChaosOutcome};
pub use explore::{explore, minimize, ExploreOptions, ExploreSummary, FailureReport};
pub use plan::{FaultPlan, TimedFault, TimedKind};
pub use testutil::Stack;
