//! Backend-equivalence suite (ISSUE 5, satellite 3): the fiber and
//! os-threads execution backends must be *observationally identical* —
//! virtual time, scheduler pick order, trace emission, and chaos coin-flip
//! order all live above the [`desim::Backend`] seam, so every pinned
//! artefact in this repository must come out byte-identical regardless of
//! which backend ran the simulated threads.
//!
//! The bench/chaos harnesses construct their simulations internally, so
//! these tests select the backend with [`desim::set_backend_override`].
//! The override is process-global state; every test serializes on one
//! mutex and restores the override before releasing it.

use std::sync::{Mutex, MutexGuard, OnceLock};

use amoeba::CostModel;
use bench::{group_trace, rpc_trace, Which};
use chaos::engine::{run_chaos, ChaosConfig};
use chaos::explore::{explore, ExploreOptions};
use chaos::plan::{FaultPlan, TimedFault, TimedKind};
use chaos::Stack;
use desim::{set_backend_override, Backend, SimDuration};
use ethernet::MacAddr;

/// Serializes tests that flip the process-wide backend override.
fn override_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` once per backend (skipping fibers where unsupported) and
/// returns the per-backend results for comparison.
fn on_each_backend<T>(mut f: impl FnMut() -> T) -> Vec<(Backend, T)> {
    let _guard = override_lock();
    let mut out = Vec::new();
    for backend in [Backend::OsThreads, Backend::Fibers] {
        if backend == Backend::Fibers && !Backend::fibers_supported() {
            continue;
        }
        set_backend_override(Some(backend));
        out.push((backend, f()));
    }
    set_backend_override(None);
    out
}

fn assert_all_equal<T: PartialEq + std::fmt::Debug>(results: &[(Backend, T)], label: &str) {
    let (first_backend, first) = &results[0];
    for (backend, value) in &results[1..] {
        assert_eq!(
            first, value,
            "{label}: {first_backend} and {backend} backends diverged"
        );
    }
}

#[test]
fn golden_traces_render_identically_across_backends() {
    let cost = CostModel::default();
    let runs = on_each_backend(|| {
        let mut renders: Vec<String> = Vec::new();
        for which in [Which::Kernel, Which::User] {
            let rpc = rpc_trace(1024, which, &cost, 1);
            renders.extend(rpc.events.iter().map(|e| e.render()));
            let group = group_trace(1024, which, &cost, 1);
            renders.extend(group.events.iter().map(|e| e.render()));
        }
        renders
    });
    assert_all_equal(&runs, "rendered RPC/group traces");
}

#[test]
fn table1_spot_values_identical_across_backends() {
    let cost = CostModel::default();
    let runs = on_each_backend(|| {
        let mut spots = Vec::new();
        for size in [0usize, 1024] {
            for which in [Which::Kernel, Which::User] {
                spots.push(bench::rpc_latency(size, which, &cost));
                spots.push(bench::group_latency(size, which, &cost));
            }
            spots.push(bench::system_layer_latency(size, false, &cost));
            spots.push(bench::system_layer_latency(size, true, &cost));
        }
        spots
    });
    assert_all_equal(&runs, "Table 1 spot latencies");
}

/// The frozen chaos plan of `tests/chaos_golden.rs`, with the same pinned
/// hashes: seeded receiver loss plus a sequencer crash/reboot mid-run.
fn golden_chaos_config(stack: Stack) -> ChaosConfig {
    let mut cfg = ChaosConfig::for_seed(stack, 0x60_1d, 12, 8, SimDuration::from_millis(500));
    cfg.plan = FaultPlan {
        rx_loss_prob: 0.05,
        timed: vec![TimedFault {
            at: SimDuration::from_millis(30),
            until: SimDuration::from_millis(90),
            kind: TimedKind::Crash(MacAddr(0)),
        }],
        ..FaultPlan::default()
    };
    cfg
}

#[test]
fn chaos_golden_hashes_pinned_on_both_backends() {
    const KERNEL_GOLDEN_HASH: u64 = 0x00be_a365_d90a_3418;
    const USER_GOLDEN_HASH: u64 = 0x08bb_c947_aebe_de62;
    let runs = on_each_backend(|| {
        [
            run_chaos(&golden_chaos_config(Stack::Kernel)).trace_hash,
            run_chaos(&golden_chaos_config(Stack::User)).trace_hash,
        ]
    });
    for (backend, [kernel, user]) in &runs {
        assert_eq!(
            *kernel, KERNEL_GOLDEN_HASH,
            "kernel chaos golden hash diverged on the {backend} backend"
        );
        assert_eq!(
            *user, USER_GOLDEN_HASH,
            "user chaos golden hash diverged on the {backend} backend"
        );
    }
}

/// The standard chaos sweep (both stacks, seeds from 0) folded to its
/// aggregate hash, without determinism re-runs or minimization.
fn sweep_aggregate(seeds: u64, jobs: usize) -> u64 {
    explore(&ExploreOptions {
        seeds,
        verify_every: 0,
        minimize: false,
        jobs,
        ..Default::default()
    })
    .aggregate_hash()
}

#[test]
fn full_sweep_aggregate_hash_pinned_on_both_backends() {
    // The 50-seeds-per-stack sweep (100 chaos runs) folded to one FNV-1a
    // aggregate: the strongest single equivalence check in the repo —
    // every RNG draw, retransmission, and recovery path in 100 runs has
    // to replay identically for this to hold.
    const SWEEP_AGGREGATE_HASH: u64 = 0x1b4a2b4b8ac97945;
    let runs = on_each_backend(|| sweep_aggregate(50, 1));
    for (backend, hash) in &runs {
        assert_eq!(
            *hash, SWEEP_AGGREGATE_HASH,
            "sweep aggregate hash diverged on the {backend} backend"
        );
    }
}

#[test]
fn parallel_sweep_runs_fibers_inside_par_map_workers() {
    // par_map's workers are OS threads regardless of backend; with fibers
    // forced, every worker hosts fiber-backed simulations. jobs=1 and
    // jobs=8 must fold to the same aggregate.
    if !Backend::fibers_supported() {
        return;
    }
    let _guard = override_lock();
    set_backend_override(Some(Backend::Fibers));
    let serial = sweep_aggregate(8, 1);
    let parallel = sweep_aggregate(8, 8);
    set_backend_override(None);
    assert_eq!(
        serial, parallel,
        "jobs=1 vs jobs=8 sweep diverged with fibers in the workers"
    );
}
