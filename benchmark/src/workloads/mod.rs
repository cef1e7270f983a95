//! The seven workloads. Each module's `rep` runs one rep of its cells (in a
//! rep process, see `harness`) and reports what it observed. `units` holds
//! the layer probes' unit costs in a traced pass (empty otherwise); the
//! composite workloads build their attribution on them.

pub mod chaos_sweep;
pub mod fleet;
pub mod orca;
pub mod proto_pair;
pub mod sched_micro;

use crate::harness::{Metrics, Rep, RepKind};

/// The two protocol stacks every workload above `desim` runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    Kernel,
    User,
}

impl Stack {
    pub const BOTH: [Stack; 2] = [Stack::Kernel, Stack::User];

    /// The crate whose protocols the stack runs: the metric prefix.
    pub fn layer(self) -> &'static str {
        match self {
            Stack::Kernel => "amoeba",
            Stack::User => "panda",
        }
    }

    /// The stack's name in `virt.budget.*` and in the paper's tables.
    pub fn side(self) -> &'static str {
        match self {
            Stack::Kernel => "kernel",
            Stack::User => "user",
        }
    }
}

/// A 10 Mbit/s segment (the network default) carries one byte per 800 ns.
/// `AppReport` and `FleetReport` carry bytes but no per-segment busy time, so
/// `orca_*` and `fleet_*` derive a mean segment utilisation from this.
pub const WIRE_NS_PER_BYTE: f64 = 800.0;
use crate::spans::Spans;

pub fn rep(workload: &str, seed: u64, kind: RepKind, units: &Metrics, spans: &mut Spans) -> Rep {
    match workload {
        "sched_micro" => sched_micro::rep(seed, kind, spans),
        "proto_pair" => proto_pair::rep(seed, kind, units, spans),
        "orca_group" => orca::rep_group(seed, kind, units, spans),
        "orca_rpc" => orca::rep_rpc(seed, kind, units, spans),
        "fleet_kernel" => fleet::rep_kernel(seed, kind, units, spans),
        "fleet_user" => fleet::rep_user(seed, kind, units, spans),
        "chaos_sweep" => chaos_sweep::rep(seed, kind, units, spans),
        other => unreachable!("workload {other} passed the CLI check"),
    }
}
