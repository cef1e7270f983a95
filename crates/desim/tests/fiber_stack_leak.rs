//! Fiber stacks are released at teardown. A test binary of its own: the
//! checks read the process-wide `/proc/self/maps` line count, which sibling
//! tests running in parallel threads would perturb; the two tests below
//! take turns through `SERIAL`.

#![cfg(target_os = "linux")]

use std::sync::Mutex;

use desim::{us, SimChannel, Simulation, FIBER_STACK_POOL_CAP};

static SERIAL: Mutex<()> = Mutex::new(());

/// Number of mappings in /proc/self/maps — a leaked fiber stack (mmap +
/// guard page) shows up as extra lines here.
fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// Builds a world of `fibers` threads, parks them all mid-run, and drops
/// the world.
fn cycle(fibers: usize) {
    let mut sim = Simulation::new(5);
    let m0 = sim.add_processor("m0");
    let never: SimChannel<u8> = SimChannel::new();
    for i in 0..fibers {
        let rx = never.clone();
        sim.spawn(m0, &format!("blocked{i}"), move |ctx| {
            let _ = rx.recv(ctx);
        });
    }
    let controller = sim.spawn(m0, "controller", |ctx| ctx.sleep(us(1)));
    sim.run_until_finished(&controller).expect("controller");
    // sim dropped here with every fiber parked in chan.recv
}

#[test]
fn fiber_create_drop_cycles_release_guard_paged_stacks() {
    // 100 create/drop cycles with fibers parked mid-run each time: every
    // cycle must unwind all live fibers and release their guard-paged
    // stacks, so the process mapping count stays flat instead of growing
    // by (threads × cycles) stack mappings.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    cycle(8); // warm up allocator, lazy runtime mappings, stack pool
    let before = mapping_count();
    for _ in 0..100 {
        cycle(8);
    }
    let after = mapping_count();
    // Allow a little allocator noise, but 100 cycles × 8 fibers would leak
    // hundreds of mappings if teardown didn't release the stacks.
    assert!(
        after <= before + 8,
        "mapping count grew from {before} to {after}: fiber stacks leaked"
    );
}

#[test]
fn a_world_larger_than_the_pool_leaves_at_most_the_pool_behind() {
    // A world far larger than the stack pool, between two tiny worlds: the
    // pool keeps at most its cap of stacks (two mappings each: guard page
    // and usable pages) and unmaps the rest.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = mapping_count();
    cycle(1);
    cycle(2000);
    cycle(1);
    let after = mapping_count();
    assert!(
        after <= before + 2 * FIBER_STACK_POOL_CAP + 8,
        "mapping count grew from {before} to {after}: more than the pool's \
         {FIBER_STACK_POOL_CAP} stacks outlived their worlds"
    );
}
