//! Shared harness: builds the paper's processor pool (8 machines per
//! 10 Mbit/s Ethernet segment, segments joined by a switch), brings up one
//! of the protocol implementations, runs an application's workers to
//! completion, and reports virtual execution time and communication
//! statistics.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use amoeba::CostModel;
use desim::{Ctx, SimDuration, Simulation};
use ethernet::{Network, TopologySpec};
use orca::{OrcaRts, OrcaWorld, RtsStats};
use panda::world::{self, Stack, World};
use panda::PandaConfig;

/// The seeded generator every application builds its input with: a
/// 13/7/17 xorshift64 started from a golden-ratio scramble of `seed`.
pub(crate) fn seeded_rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The block of `0..n` that `node` of `nodes` owns: contiguous blocks in
/// node order, the first `n % nodes` one longer than the rest.
pub(crate) fn block_of(node: u32, nodes: u32, n: usize) -> Range<usize> {
    let per = n / nodes as usize;
    let extra = n % nodes as usize;
    let start = node as usize * per + (node as usize).min(extra);
    let len = per + usize::from((node as usize) < extra);
    start..start + len
}

/// Which protocol implementation an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtoImpl {
    /// Amoeba's kernel-space protocols behind Panda wrappers.
    KernelSpace,
    /// Panda's user-space protocols over raw FLIP.
    UserSpace,
    /// User-space with a dedicated sequencer machine (one extra machine that
    /// runs only the sequencer — the paper's `User-space-dedicated`).
    UserSpaceDedicated,
}

impl fmt::Display for ProtoImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoImpl::KernelSpace => write!(f, "Kernel-space"),
            ProtoImpl::UserSpace => write!(f, "User-space"),
            ProtoImpl::UserSpaceDedicated => write!(f, "User-space-dedicated"),
        }
    }
}

/// Cluster-level configuration for one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of application nodes (worker processes).
    pub nodes: u32,
    /// Protocol implementation under test.
    pub implementation: ProtoImpl,
    /// Simulation seed.
    pub seed: u64,
}

impl RunConfig {
    /// A run on the paper's pool.
    pub fn new(nodes: u32, implementation: ProtoImpl, seed: u64) -> Self {
        RunConfig {
            nodes,
            implementation,
            seed,
        }
    }
}

/// Machines per Ethernet segment: the paper's pool wires 8.
const PER_SEGMENT: u32 = 8;

/// Outcome of one application run.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Application name.
    pub app: &'static str,
    /// Implementation used.
    pub implementation: ProtoImpl,
    /// Application nodes.
    pub nodes: u32,
    /// Virtual wall-clock time of the whole run.
    pub elapsed: SimDuration,
    /// Application-defined answer (for cross-implementation checking).
    pub checksum: i64,
    /// Summed runtime statistics over all nodes.
    pub rts: RtsStats,
    /// Total frames carried by the network.
    pub frames: u64,
    /// Total wire bytes carried by the network.
    pub wire_bytes: u64,
}

impl fmt::Display for AppReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} {:<20} {:>3} nodes  {:>10.2}s  checksum {}",
            self.app,
            self.implementation.to_string(),
            self.nodes,
            self.elapsed.as_secs_f64(),
            self.checksum
        )
    }
}

/// A built cluster ready to run one application.
pub struct Cluster {
    /// The simulation driver.
    pub sim: Simulation,
    /// The network (for stats and fault injection).
    pub net: Network,
    /// The Orca world spanning the application nodes.
    pub world: OrcaWorld,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.world.nodes())
            .finish()
    }
}

/// Builds the pool: machines spread over segments of `PER_SEGMENT`, a switch
/// when more than one segment, the chosen Panda implementation, and the Orca
/// world on top.
pub fn build_cluster(cfg: &RunConfig) -> Cluster {
    let stack = match cfg.implementation {
        ProtoImpl::KernelSpace => Stack::Kernel,
        ProtoImpl::UserSpace => Stack::User,
        ProtoImpl::UserSpaceDedicated => Stack::UserDedicated,
    };
    let mut sim = Simulation::new(cfg.seed);
    let topology = TopologySpec::flat(stack.n_machines(cfg.nodes), PER_SEGMENT);
    let World { net, machines } = world::boot(&mut sim, &topology, CostModel::default());
    let pandas = world::build_stack(&mut sim, &machines, stack, &PandaConfig::default());
    assert_eq!(pandas.len() as u32, cfg.nodes);
    let world = OrcaWorld::build(&pandas);
    Cluster { sim, net, world }
}

/// Spawns one worker process per node and runs the cluster until all have
/// finished. Returns `(elapsed virtual time, per-node results)`.
///
/// # Panics
///
/// Panics if the simulation deadlocks (a bug in an application or protocol).
pub fn run_workers<F>(cluster: &mut Cluster, worker: F) -> (SimDuration, Vec<i64>)
where
    F: Fn(&Ctx, u32, Arc<OrcaRts>) -> i64 + Send + Sync + 'static,
{
    let worker = Arc::new(worker);
    let results = Arc::new(parking_lot::Mutex::new(vec![
        0i64;
        cluster.world.nodes() as usize
    ]));
    let start = cluster.sim.now();
    for node in 0..cluster.world.nodes() {
        let rts = cluster.world.rts(node);
        let worker = Arc::clone(&worker);
        let results = Arc::clone(&results);
        let proc = rts.panda().machine().proc();
        let lane = rts.panda().machine().lane();
        cluster
            .sim
            .spawn_on_lane(lane, proc, &format!("orca-p{node}"), move |ctx| {
                let r = worker(ctx, node, Arc::clone(&rts));
                results.lock()[node as usize] = r;
            });
    }
    cluster
        .sim
        .run()
        .unwrap_or_else(|e| panic!("application run failed: {e}"));
    let elapsed = cluster.sim.now().saturating_duration_since(start);
    let results = results.lock().clone();
    (elapsed, results)
}

/// Collects a report after [`run_workers`].
pub fn report(
    app: &'static str,
    cfg: &RunConfig,
    cluster: &Cluster,
    elapsed: SimDuration,
    checksum: i64,
) -> AppReport {
    let mut rts = RtsStats::default();
    for node in 0..cluster.world.nodes() {
        let s = cluster.world.rts(node).stats();
        rts.local_ops += s.local_ops;
        rts.rpcs += s.rpcs;
        rts.broadcasts += s.broadcasts;
        rts.continuations_queued += s.continuations_queued;
        rts.continuations_resumed += s.continuations_resumed;
    }
    let net = cluster.net.total_stats();
    AppReport {
        app,
        implementation: cfg.implementation,
        nodes: cfg.nodes,
        elapsed,
        checksum,
        rts,
        frames: net.frames,
        wire_bytes: net.wire_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::block_of;

    #[test]
    fn block_partition_assigns_every_index_once() {
        for n in [64, 100, 130] {
            for nodes in [1u32, 2, 3, 5, 7, 8, 16, 32] {
                let mut covered = vec![false; n];
                for node in 0..nodes {
                    for i in block_of(node, nodes, n) {
                        assert!(!covered[i], "{i} of {n} assigned twice over {nodes}");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "{n} over {nodes}");
            }
        }
    }
}
