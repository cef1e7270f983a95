//! Scale-out determinism: the closed-loop think-time client fleet over the
//! multi-segment switch tree must produce bit-identical reports across shard
//! counts.
//!
//! The small matrices run on every `cargo test`. The 1k- and 10k-machine
//! fleets are `#[ignore]`d (minutes of wall-clock in debug builds) and run
//! in release by the CI `scale-smoke` job and by hand:
//!
//! ```text
//! cargo test --release --test fleet_scale -- --ignored
//! ```

use std::sync::{Mutex, MutexGuard, PoisonError};

use apps::fleet::{run_fleet, FleetReport, FleetSpec, FleetStack, ThinkDist};
use desim::WindowStats;

/// A run's window-engine counters without the wall-clock gate wait — the
/// part `WindowStats` documents as deterministic. `result_hash` leaves
/// them out, so the matrices compare them separately.
fn window_counters(r: &FleetReport) -> WindowStats {
    WindowStats {
        barrier_wait_ns: 0,
        ..r.window_stats
    }
}

/// Runs `spec` over shards {1, 2, auto} and asserts every run hashes
/// identically and has identical window counters. Returns the shards-1
/// report.
fn assert_matrix_identical(spec: &FleetSpec) -> FleetReport {
    let reference = run_fleet(spec, 1);
    assert!(reference.ops > 0, "fleet did work: {}", reference.summary());
    for shards in [2usize, 0] {
        let r = run_fleet(spec, shards);
        assert_eq!(
            r.result_hash(),
            reference.result_hash(),
            "fleet diverged on shards {shards}:\n  ref {}\n  got {}",
            reference.summary(),
            r.summary(),
        );
        assert_eq!(
            window_counters(&r),
            window_counters(&reference),
            "window counters diverged on shards {shards}"
        );
    }
    reference
}

fn percentiles_are_sane(r: &FleetReport) {
    assert!(r.p50().as_nanos() > 0, "p50 emitted: {}", r.summary());
    assert!(r.p99() >= r.p50(), "p99 >= p50: {}", r.summary());
    assert!(r.p999() >= r.p99(), "p999 >= p99: {}", r.summary());
    assert!(r.hist.max() >= r.p999(), "max >= p999: {}", r.summary());
    assert!(r.throughput() > 0.0, "throughput emitted: {}", r.summary());
}

/// Window counters of the 96-machine kernel fleet below, recorded before
/// the flush barrier went from visiting every link to visiting only links
/// with traffic. Any change to the window or flush machinery that alters
/// one of them fails here, in every shards cell.
const KERNEL_96_WINDOWS: WindowStats = WindowStats {
    windows: 2470,
    events: 24070,
    flushes: 1029,
    flushes_elided: 112637,
    lanes_skipped: 4789,
    barrier_wait_ns: 0,
};

/// Window counters of the 48-machine user fleet below (see
/// [`KERNEL_96_WINDOWS`]).
const USER_48_WINDOWS: WindowStats = WindowStats {
    windows: 3158,
    events: 16481,
    flushes: 520,
    flushes_elided: 62660,
    lanes_skipped: 4929,
    barrier_wait_ns: 0,
};

#[test]
fn kernel_fleet_identical_across_shards() {
    // 8 servers on the backbone, 88 clients over 11 leaves, 3 edge
    // switches, 4 scheduler lanes: every tree-routing and cross-lane path
    // is exercised.
    let mut spec = FleetSpec::new(96, 8, FleetStack::Kernel);
    spec.lanes = 4;
    spec.duration = desim::ms(60);
    spec.mean_think = desim::ms(6);
    let r = assert_matrix_identical(&spec);
    percentiles_are_sane(&r);
    assert_eq!(window_counters(&r), KERNEL_96_WINDOWS);
    assert_eq!(r.timeouts, 0, "no timeouts at this load: {}", r.summary());
    assert!(
        r.group_sends > 0,
        "group service exercised: {}",
        r.summary()
    );
}

#[test]
fn user_fleet_identical_across_shards() {
    let mut spec = FleetSpec::new(48, 4, FleetStack::User);
    spec.lanes = 3;
    spec.duration = desim::ms(60);
    spec.mean_think = desim::ms(6);
    let r = assert_matrix_identical(&spec);
    percentiles_are_sane(&r);
    assert_eq!(window_counters(&r), USER_48_WINDOWS);
    assert!(
        r.group_sends > 0,
        "group service exercised: {}",
        r.summary()
    );
}

#[test]
fn heavy_tailed_arrivals_are_deterministic_too() {
    let mut spec = FleetSpec::new(40, 4, FleetStack::Kernel);
    spec.lanes = 2;
    spec.think = ThinkDist::Pareto;
    spec.duration = desim::ms(60);
    spec.mean_think = desim::ms(6);
    let a = run_fleet(&spec, 1);
    let b = run_fleet(&spec, 0);
    assert_eq!(a.result_hash(), b.result_hash());
    assert!(a.ops > 0);
}

/// 1k machines, both stacks. Release-only (CI `scale-smoke`).
#[test]
#[ignore = "minutes in debug builds; run with --release -- --ignored"]
fn fleet_scale_1k() {
    for stack in [FleetStack::Kernel, FleetStack::User] {
        let mut spec = FleetSpec::new(1024, 16, stack);
        spec.lanes = 8;
        spec.duration = desim::ms(50);
        spec.mean_think = desim::ms(25);
        spec.group_every = 64;
        let r = assert_matrix_identical(&spec);
        percentiles_are_sane(&r);
        println!("1k {}: {}", stack.name(), r.summary());
    }
}

/// The 10k-machine kernel fleet both 10k cells run.
fn spec_10k() -> FleetSpec {
    let mut spec = FleetSpec::new(10_016, 16, FleetStack::Kernel);
    spec.lanes = 8;
    spec.duration = desim::ms(40);
    spec.mean_think = desim::ms(200);
    spec.group_every = 256;
    spec
}

/// Serializes the 10k cells: two 10k worlds at once hold more fiber-stack
/// mappings than the default `vm.max_map_count` allows, so the documented
/// `-- --ignored` run (parallel test threads) would fail in `mprotect`.
fn lock_10k() -> MutexGuard<'static, ()> {
    static TEN_K: Mutex<()> = Mutex::new(());
    TEN_K.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The 10k-machine fleet of the scale study: 20k+ fiber stacks are two
/// mappings each, which fits the default `vm.max_map_count`. Kernel stack
/// only (the user stack's five-plus threads per node would blow that
/// budget). Asserts bit-identity across shard counts and emits the
/// percentile summary. Release-only.
#[test]
#[ignore = "tens of thousands of simulated threads; run with --release -- --ignored"]
fn fleet_scale_10k() {
    let _one_at_a_time = lock_10k();
    let spec = spec_10k();
    let reference = run_fleet(&spec, 1);
    assert!(reference.ops > 0, "fleet did work: {}", reference.summary());
    for shards in [2usize, 0] {
        let r = run_fleet(&spec, shards);
        assert_eq!(
            r.result_hash(),
            reference.result_hash(),
            "10k fleet diverged on shards {shards}:\n  ref {}\n  got {}",
            reference.summary(),
            r.summary(),
        );
    }
    percentiles_are_sane(&reference);
    println!("10k kernel: {}", reference.summary());
}

/// The [`fleet_scale_10k`] world, single run, pinned to its recorded
/// result hash. The shard matrix above proves the run is internally
/// consistent; this cell proves it is the *same* run the repo has always
/// produced — the regression gate for anything that touches event order at
/// true fleet depth (each lane's far tier holds thousands of pending think
/// timers here, so deep-queue bugs that 96-machine matrices never reach
/// surface as a hash flip). Release-only (CI `scale-smoke`).
#[test]
#[ignore = "tens of thousands of simulated threads; run with --release -- --ignored"]
fn fleet_scale_10k_pinned() {
    // Recorded on the binary-heap far tier and unchanged by the timer-wheel
    // far tier — pop order is the public invariant both implement.
    const PINNED_HASH: u64 = 0x9391712da17eb8b6;
    let _one_at_a_time = lock_10k();
    let r = run_fleet(&spec_10k(), 0);
    assert_eq!(
        r.result_hash(),
        PINNED_HASH,
        "10k fleet hash drifted from the recorded run (got {:#018x}):\n  {}",
        r.result_hash(),
        r.summary(),
    );
}
