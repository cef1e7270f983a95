//! # apps — the six parallel Orca applications of Table 3
//!
//! Real implementations of the paper's application suite, each built on the
//! Orca runtime's shared data-objects and runnable on either protocol
//! implementation through the shared [`harness`]:
//!
//! | App | Pattern | Paper's observation |
//! |---|---|---|
//! | [`tsp`] | central job queue + replicated bound | coarse grain, marginal difference |
//! | [`asp`] | one pivot-row broadcast per iteration | marginal difference, latency-bound speedup |
//! | [`ab`]  | job queue + replicated alpha | poor speedup from search overhead |
//! | [`rl`]  | guarded buffer exchange | user-space wins (continuation replies) |
//! | [`sor`] | guarded buffer exchange | user-space wins; saturates ≥16 nodes |
//! | [`leq`] | per-node broadcast every iteration | kernel wins unless the sequencer is dedicated |
//!
//! [`paper`] holds the paper's own numbers and one runner per paper world
//! (Tables 1–3 and the Section 4 accounting) that the `paper` bench renders
//! into EXPERIMENTS.md.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Index-based loops in the numerical kernels mirror the matrix mathematics.
#![allow(clippy::needless_range_loop)]

pub mod ab;
pub mod asp;
pub mod fleet;
pub mod harness;
pub mod leq;
pub mod paper;
pub mod rl;
pub mod sor;
pub mod tsp;

pub use harness::{build_cluster, report, run_workers, AppReport, ProtoImpl, RunConfig};
