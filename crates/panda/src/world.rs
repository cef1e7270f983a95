//! The one world builder: every simulated machine pool boots through
//! [`boot`], and every Panda stack is chosen by [`build_stack`].
//!
//! Both stacks of a comparison must run on the same pool, so there is one
//! way to build it. Machines boot in index order and the stack is built
//! right after them, which fixes the `ProcId`/`ThreadId` numbering every
//! golden trace and result hash depends on.

use std::sync::Arc;

use amoeba::{CostModel, Machine};
use desim::Simulation;
use ethernet::{MacAddr, NetConfig, Network, TopologySpec};

use crate::{
    kernel_space, panda_addr, KernelSpacePanda, NodeId, Panda, PandaConfig, UserSpacePanda,
};

/// Which Panda implementation a world runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// Kernel-space: Amoeba's in-kernel RPC and group protocols.
    Kernel,
    /// User-space: Panda's own protocols over FLIP, sequencer on node 0.
    User,
    /// User-space with the sequencer on a dedicated extra machine.
    UserDedicated,
}

impl Stack {
    /// Short lowercase name, as used on the `chaos-explore` command line.
    pub fn name(self) -> &'static str {
        match self {
            Stack::Kernel => "kernel",
            Stack::User => "user",
            Stack::UserDedicated => "user-dedicated",
        }
    }

    /// Machines a world with `n_nodes` app nodes needs (a dedicated
    /// sequencer occupies one machine beyond the app nodes).
    pub fn n_machines(self, n_nodes: u32) -> u32 {
        match self {
            Stack::UserDedicated => n_nodes + 1,
            _ => n_nodes,
        }
    }
}

/// A booted network plus machines, before any protocol stack.
#[derive(Debug)]
pub struct World {
    /// The network (for stats and fault injection).
    pub net: Network,
    /// Machines with MACs `0..n`, named `m0..`.
    pub machines: Vec<Machine>,
}

/// Realizes `topology` on a fresh network and boots one machine per
/// station, in index order, all sharing one copy of `cost`.
pub fn boot(sim: &mut Simulation, topology: &TopologySpec, cost: CostModel) -> World {
    let mut net = Network::new(NetConfig::default());
    let topo = topology.build(sim, &mut net, "pool");
    let cost = Arc::new(cost);
    let machines = (0..topology.machines)
        .map(|i| {
            Machine::boot_on(
                sim,
                &mut net,
                topo.segment_of(i),
                MacAddr(i),
                &format!("m{i}"),
                Arc::clone(&cost),
            )
        })
        .collect();
    World { net, machines }
}

/// Builds the chosen Panda stack over already-booted machines.
///
/// For [`Stack::UserDedicated`], `machines` must include the extra
/// sequencer machine (see [`Stack::n_machines`]); the last machine then
/// runs only the sequencer, and the `machines.len() - 1` application nodes
/// are returned. Every other stack returns one node per machine.
///
/// With [`PandaConfig::servers`] set, every node is told at boot where each
/// server's RPC endpoint and the sequencer's group endpoint live, so no
/// node of such a world broadcasts a FLIP locate; servers learn their
/// callers' routes from the requests.
pub fn build_stack(
    sim: &mut Simulation,
    machines: &[Machine],
    stack: Stack,
    config: &PandaConfig,
) -> Vec<Arc<dyn Panda>> {
    fn erase<P: Panda + 'static>(nodes: Vec<Arc<P>>) -> Vec<Arc<dyn Panda>> {
        nodes.into_iter().map(|p| p as Arc<dyn Panda>).collect()
    }
    let nodes = match stack {
        Stack::Kernel => erase(KernelSpacePanda::build(sim, machines, config)),
        Stack::User => erase(UserSpacePanda::build(sim, machines, config)),
        Stack::UserDedicated => erase(UserSpacePanda::build_placed(sim, machines, config, true)),
    };
    if let Some(servers) = config.servers {
        for (s, server) in machines[..servers as usize].iter().enumerate() {
            let s = s as NodeId;
            let addrs = match stack {
                Stack::Kernel => kernel_space::server_addrs(s, servers, config),
                _ => vec![panda_addr(s)],
            };
            for machine in machines.iter().filter(|m| m.mac() != server.mac()) {
                for &addr in &addrs {
                    machine.iface().install_route(addr, server.mac());
                }
            }
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stack_returns_one_node_per_app_node() {
        for stack in [Stack::Kernel, Stack::User, Stack::UserDedicated] {
            let mut sim = Simulation::new(1);
            let n = stack.n_machines(3);
            let world = boot(&mut sim, &TopologySpec::flat(n, n), CostModel::default());
            assert_eq!(world.machines.len() as u32, n);
            let nodes = build_stack(&mut sim, &world.machines, stack, &PandaConfig::default());
            assert_eq!(nodes.len(), 3, "{}", stack.name());
        }
    }
}
