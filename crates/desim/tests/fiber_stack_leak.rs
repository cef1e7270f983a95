//! Fiber stacks are released at teardown. A test binary of its own: the
//! check reads the process-wide `/proc/self/maps` line count, which sibling
//! tests running in parallel threads would perturb.

#![cfg(target_os = "linux")]

use desim::{us, Backend, SimChannel, Simulation};

/// Number of mappings in /proc/self/maps — a leaked fiber stack (mmap +
/// guard page) shows up as extra lines here.
fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn fiber_create_drop_cycles_release_guard_paged_stacks() {
    // 100 create/drop cycles with fibers parked mid-run each time: every
    // cycle must unwind all live fibers and munmap their guard-paged
    // stacks, so the process mapping count stays flat instead of growing
    // by (threads × cycles) stack mappings.
    if !Backend::fibers_supported() {
        return;
    }
    let cycle = || {
        let mut sim = Simulation::builder()
            .seed(5)
            .backend(Backend::Fibers)
            .build();
        let m0 = sim.add_processor("m0");
        let never: SimChannel<u8> = SimChannel::new();
        for i in 0..8 {
            let rx = never.clone();
            sim.spawn(m0, &format!("blocked{i}"), move |ctx| {
                let _ = rx.recv(ctx);
            });
        }
        let controller = sim.spawn(m0, "controller", |ctx| ctx.sleep(us(1)));
        sim.run_until_finished(&controller).expect("controller");
        // sim dropped here with 8 fibers parked in chan.recv
    };
    cycle(); // warm up allocator / lazy runtime mappings
    let before = mapping_count();
    for _ in 0..100 {
        cycle();
    }
    let after = mapping_count();
    // Allow a little allocator noise, but 100 cycles × 8 fibers would leak
    // hundreds of mappings if teardown didn't release the stacks.
    assert!(
        after <= before + 8,
        "mapping count grew from {before} to {after}: fiber stacks leaked"
    );
}
