//! The chaos engine's world scaffold: re-exports of [`panda::world`] plus
//! two single-segment shorthands the engine and the tests call.

use std::sync::Arc;

use amoeba::CostModel;
use desim::Simulation;
use ethernet::TopologySpec;
use panda::{Panda, PandaConfig};

pub use panda::world::{build_stack, Stack, World};

/// Boots `n` machines with MACs `0..n` on one fresh segment, with the
/// default cost model.
pub fn boot_machines(sim: &mut Simulation, n: u32) -> World {
    panda::world::boot(sim, &TopologySpec::flat(n, n.max(1)), CostModel::default())
}

/// Boots a world and a stack in one call: `n_nodes` app nodes (plus a
/// dedicated sequencer machine if the stack needs one).
pub fn build_world(
    sim: &mut Simulation,
    n_nodes: u32,
    stack: Stack,
    config: &PandaConfig,
) -> (World, Vec<Arc<dyn Panda>>) {
    let world = boot_machines(sim, stack.n_machines(n_nodes));
    let nodes = build_stack(sim, &world.machines, stack, config);
    (world, nodes)
}
