//! Worlds that die (ISSUE 12): dropping a `Simulation` frees everything
//! built on it.
//!
//! Every upcall seam of the stack is an ownership cycle while the world
//! runs — a lower layer's handler table holds closures that capture the
//! upper-layer objects holding that lower layer. The strong references are
//! load-bearing (harnesses drop their node handles while the world still
//! runs), so the cycles are broken by `Simulation` teardown instead: these
//! tests pin both halves of that contract.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock, Weak};

use apps::fleet::{run_fleet, FleetSpec};
use apps::{asp, build_cluster, leq, run_workers, ProtoImpl, RunConfig};
use bytes::Bytes;
use chaos::engine::{run_chaos, ChaosConfig};
use orca::{BoardHandle, IterBoard};
use orca_panda::prelude::*;

/// Serializes the tests of this file: they read the process-wide live heap
/// and resident set.
fn process_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const STACKS: [Stack; 2] = [Stack::Kernel, Stack::User];

/// Boots one machine per station of `spec` and the chosen Panda stack.
fn boot(
    sim: &mut Simulation,
    spec: &TopologySpec,
    stack: Stack,
) -> (Network, Vec<Machine>, Vec<Arc<dyn Panda>>) {
    let World { net, machines } = world::boot(sim, spec, CostModel::default());
    let nodes = world::build_stack(sim, &machines, stack, &PandaConfig::default());
    (net, machines, nodes)
}

/// Installs an echo RPC handler (with the `replier = Arc::clone(node)` idiom
/// every harness uses) and a group handler on `node`, each capturing a
/// clone of `canary`.
fn install_canary_handlers(node: &Arc<dyn Panda>, canary: &Arc<()>) {
    let replier = Arc::clone(node);
    let held = Arc::clone(canary);
    node.set_rpc_handler(Arc::new(move |ctx, _from, req, ticket| {
        let _ = &held;
        replier.reply(ctx, ticket, req);
    }));
    let held = Arc::clone(canary);
    node.set_group_handler(Arc::new(move |_ctx, _delivery| {
        let _ = &held;
    }));
}

/// Spawns a client on node 0 issuing `rpcs` echo calls to node 1 and
/// `broadcasts` group sends, and runs the world until it finishes.
fn drive(
    sim: &mut Simulation,
    machines: &[Machine],
    client: Arc<dyn Panda>,
    rpcs: u64,
    broadcasts: u64,
) {
    let done = sim.spawn(machines[0].proc(), "client", move |ctx| {
        for i in 0..rpcs {
            let body = Bytes::from(i.to_be_bytes().to_vec());
            let reply = client.rpc(ctx, 1, body.clone()).expect("rpc");
            assert_eq!(reply, body);
        }
        for _ in 0..broadcasts {
            client
                .group_send(ctx, Bytes::from_static(&[7; 100]))
                .expect("broadcast");
        }
    });
    sim.run_until_finished(&done).expect("run");
}

fn assert_dead<T: ?Sized>(weak: &Weak<T>, what: &str, stack: Stack) {
    assert!(
        weak.upgrade().is_none(),
        "{what} outlived its world ({})",
        stack.name()
    );
}

#[test]
fn bare_stack_is_freed_without_ever_running() {
    let _guard = process_lock();
    for stack in STACKS {
        let canary = Arc::new(());
        let weak = Arc::downgrade(&canary);
        let mut sim = Simulation::new(1);
        let (_net, _machines, nodes) = boot(&mut sim, &TopologySpec::flat(3, 3), stack);
        for n in &nodes {
            install_canary_handlers(n, &canary);
        }
        let node0 = Arc::downgrade(&nodes[0]);
        drop(canary);
        drop(nodes);
        assert!(weak.upgrade().is_some(), "handlers hold the canary");
        drop(sim);
        assert_dead(&weak, "handler canary", stack);
        assert_dead(&node0, "panda node", stack);
    }
}

#[test]
fn chaos_shaped_world_is_freed_after_a_run() {
    let _guard = process_lock();
    for stack in STACKS {
        let canary = Arc::new(());
        let weak = Arc::downgrade(&canary);
        // What `run_chaos` sets up around its stack: tracing, an event
        // budget, schedule perturbation, and handlers that capture
        // their own node.
        let mut sim = Simulation::new(2);
        sim.set_schedule_perturbation(9);
        sim.enable_tracing_with_capacity(1 << 12);
        sim.set_max_events(5_000_000);
        let (_net, machines, nodes) = boot(&mut sim, &TopologySpec::flat(3, 3), stack);
        for n in &nodes {
            install_canary_handlers(n, &canary);
        }
        drive(&mut sim, &machines, Arc::clone(&nodes[0]), 10, 10);
        let node1 = Arc::downgrade(&nodes[1]);
        drop((canary, nodes, machines));
        drop(sim);
        assert_dead(&weak, "handler canary", stack);
        assert_dead(&node1, "panda node", stack);
    }
}

#[test]
fn cluster_world_is_freed_after_a_run() {
    let _guard = process_lock();
    for (imp, stack) in [
        (ProtoImpl::KernelSpace, Stack::Kernel),
        (ProtoImpl::UserSpace, Stack::User),
    ] {
        let mut cluster = build_cluster(&RunConfig::new(4, imp, 3));
        let board = orca::ObjId(1);
        cluster.world.create_replicated(board, IterBoard::new);
        run_workers(&mut cluster, move |ctx, node, rts| {
            let board = BoardHandle::new(Arc::clone(&rts), board);
            board
                .publish(ctx, 0, node, &[node as u8; 64])
                .expect("publish");
            for peer in 0..rts.nodes() {
                assert_eq!(board.get(ctx, 0, peer).expect("get")[0], peer as u8);
            }
            0
        });
        // Node 0's runtime sits in the cycle rts -> panda -> handler
        // table -> closure -> rts; node 1's handlers get the canary.
        let rts0 = Arc::downgrade(&cluster.world.rts(0));
        let canary = Arc::new(());
        let weak = Arc::downgrade(&canary);
        install_canary_handlers(cluster.world.rts(1).panda(), &canary);
        drop(canary);
        drop(cluster);
        assert_dead(&weak, "handler canary", stack);
        assert_dead(&rts0, "orca runtime", stack);
    }
}

#[test]
fn fleet_sized_world_is_freed_after_a_run() {
    let _guard = process_lock();
    for stack in [Stack::Kernel, Stack::User] {
        // The fleet's own topology (servers on a backbone, leaves over
        // four lanes): the windowed driver and its runner threads tear
        // down through the same `Drop`.
        let mut spec = FleetSpec::new(96, 4, stack);
        spec.lanes = 4;
        let canary = Arc::new(());
        let weak = Arc::downgrade(&canary);
        let mut sim = Simulation::new(4);
        let heap = LIVE_HEAP.load(Ordering::Relaxed);
        let (_net, machines, nodes) = boot(&mut sim, &spec.topology(), stack);
        let booted = LIVE_HEAP.load(Ordering::Relaxed) - heap;
        assert!(
            booted > 96 * 1024,
            "96 booted machines hold real state ({booted} heap bytes)"
        );
        assert!(sim.lanes() > 1, "the fleet world is multi-lane");
        for n in &nodes {
            install_canary_handlers(n, &canary);
        }
        drive(&mut sim, &machines, Arc::clone(&nodes[0]), 5, 2);
        let last = Arc::downgrade(&nodes[95]);
        drop((canary, nodes, machines));
        drop(sim);
        assert_dead(&weak, "handler canary", stack);
        assert_dead(&last, "panda node", stack);
    }
}

/// Panics raised anywhere in the process, teardown unwinds included.
static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Chains a hook that counts every panic in front of desim's quiet hook
/// (installed by the first `Simulation`).
fn count_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        drop(Simulation::new(0));
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::Relaxed);
            quiet(info);
        }));
    });
}

/// Every thread still alive when these worlds drop is a protocol daemon
/// parked in a channel receive, and each leaves by returning: dropping
/// them raises no teardown unwind at all.
#[test]
fn parked_daemons_leave_dropped_worlds_without_unwinding() {
    let _guard = process_lock();
    count_panics();
    let mut unwinds: Vec<(String, usize)> = Vec::new();
    let mut count = |what: String, world: &mut dyn FnMut()| {
        let before = PANICS.load(Ordering::Relaxed);
        world();
        unwinds.push((what, PANICS.load(Ordering::Relaxed) - before));
    };
    for stack in STACKS {
        // `run_chaos` builds, runs and drops its world, as `chaos_sweep`
        // and `chaos-explore` do.
        for seed in 0..8 {
            let cfg = ChaosConfig::for_seed(stack, seed, 10, 8, desim::ms(500));
            count(format!("run_chaos/{}/{seed}", stack.name()), &mut || {
                let _ = run_chaos(&cfg);
            });
        }
    }
    for imp in [ProtoImpl::KernelSpace, ProtoImpl::UserSpace] {
        let mut cluster = build_cluster(&RunConfig::new(4, imp, 3));
        let board = orca::ObjId(1);
        cluster.world.create_replicated(board, IterBoard::new);
        run_workers(&mut cluster, move |ctx, node, rts| {
            let board = BoardHandle::new(Arc::clone(&rts), board);
            board
                .publish(ctx, 0, node, &[node as u8; 64])
                .expect("publish");
            for peer in 0..rts.nodes() {
                assert_eq!(board.get(ctx, 0, peer).expect("get")[0], peer as u8);
            }
            0
        });
        let mut cluster = Some(cluster);
        count(format!("cluster/{imp}"), &mut || drop(cluster.take()));
    }
    for stack in STACKS {
        let mut spec = FleetSpec::new(96, 4, stack);
        spec.lanes = 2;
        let mut sim = Simulation::new(4);
        let (_net, machines, nodes) = boot(&mut sim, &spec.topology(), stack);
        assert_eq!(sim.lanes(), 2, "the fleet world runs on two lanes");
        let canary = Arc::new(());
        for n in &nodes {
            install_canary_handlers(n, &canary);
        }
        drive(&mut sim, &machines, Arc::clone(&nodes[0]), 5, 2);
        // Let the last broadcast's deliveries and acknowledgements land.
        sim.run().expect("the fleet world drains");
        drop((nodes, machines));
        let mut sim = Some(sim);
        count(format!("fleet/{}", stack.name()), &mut || drop(sim.take()));
    }
    assert!(
        unwinds.iter().all(|(_, n)| *n == 0),
        "teardown unwinds per dropped world: {unwinds:?}"
    );
}

/// The trap a `Weak`-upcall design falls into: harnesses drop their node
/// handles while the world still runs (`proto_pair`, `fleet_user`), so the
/// references *down* the stack — receive daemon -> upcall table -> protocol
/// module -> handler — must keep a handle-less node fully alive.
#[test]
fn nodes_without_handles_keep_serving() {
    let _guard = process_lock();
    for stack in STACKS {
        let mut sim = Simulation::new(5);
        let (_net, machines, mut nodes) = boot(&mut sim, &TopologySpec::flat(3, 3), stack);
        let canary = Arc::new(());
        for n in &nodes {
            install_canary_handlers(n, &canary);
        }
        let client = nodes.swap_remove(0);
        drop(nodes);
        drive(&mut sim, &machines, client, 100, 10);
    }
}

/// Counts live heap bytes, so the retention check below is exact: resident
/// set alone cannot tell a 4-world series' leak from the allocator settling
/// (glibc needs ~150 small app worlds before `VmRSS` stops creeping).
struct CountingAlloc;

static LIVE_HEAP: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is only
// updated from sizes the caller passed and never influences the pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_HEAP.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_HEAP.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_HEAP.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_HEAP.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// This process's resident set in KiB; `None` where there is no procfs.
fn vm_rss_kib() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// What a second pass of `world(0..worlds)` left behind: live heap bytes
/// (exact) and resident KiB (Linux only). The first, identical pass is the
/// warm-up: it pays every one-time initialisation and brings the allocator
/// to the series' peak working set.
fn retained(worlds: u32, mut world: impl FnMut(u32)) -> (isize, i64) {
    (0..worlds).for_each(&mut world);
    let (heap, rss) = (LIVE_HEAP.load(Ordering::Relaxed), vm_rss_kib());
    (0..worlds).for_each(&mut world);
    (
        LIVE_HEAP.load(Ordering::Relaxed) - heap,
        vm_rss_kib()
            .zip(rss)
            .map_or(0, |(after, before)| after - before),
    )
}

/// Build -> run -> drop, over and over: chaos worlds on each stack, then a
/// few small app clusters and fleets, retain less than 1 KiB each — in live
/// heap per series, and in resident set over the whole sequence, which
/// covers what the heap counter cannot see: the mmap'd fiber stacks.
#[test]
fn worlds_retain_nothing() {
    let _guard = process_lock();
    let mut total_worlds = 0u32;
    let mut total_rss_kib = 0i64;
    let mut series = |what: String, worlds: u32, world: &mut dyn FnMut(u32)| {
        let (heap, rss_kib) = retained(worlds, world);
        assert!(
            heap < 1024 * worlds as isize,
            "{what}: {heap} heap bytes retained over {worlds} worlds"
        );
        total_worlds += worlds;
        total_rss_kib += rss_kib;
    };
    for stack in STACKS {
        series(format!("run_chaos/{}", stack.name()), 500, &mut |i| {
            let cfg = ChaosConfig::for_seed(stack, u64::from(i), 4, 2, desim::ms(200));
            let _ = run_chaos(&cfg);
        });
    }
    for imp in [ProtoImpl::KernelSpace, ProtoImpl::UserSpace] {
        let cfg = RunConfig::new(8, imp, 7);
        series(format!("asp::run/{imp}"), 4, &mut |_| {
            asp::run(&cfg, &asp::AspParams::small());
        });
        series(format!("leq::run/{imp}"), 4, &mut |_| {
            leq::run(&cfg, &leq::LeqParams::small());
        });
    }
    for stack in [Stack::Kernel, Stack::User] {
        let mut spec = FleetSpec::new(96, 4, stack);
        spec.lanes = 4;
        spec.duration = desim::ms(50);
        series(format!("run_fleet/{}", stack.name()), 2, &mut |_| {
            run_fleet(&spec, 1);
        });
    }
    assert!(
        total_rss_kib < i64::from(total_worlds),
        "resident set grew {total_rss_kib} KiB over {total_worlds} worlds"
    );
}
