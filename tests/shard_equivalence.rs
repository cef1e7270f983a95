//! Shard-equivalence suite: the conservative windowed driver must be
//! *observationally identical* for any runner-thread count. Scheduler pick
//! order, RNG draws, trace emission, and window boundaries all live above
//! the runner seam — which OS thread drives a lane never changes what the
//! lane executes — so every pinned artefact in this repository must come
//! out byte-identical for `shards` 1, 2, and auto.
//!
//! Two layers of evidence:
//!
//! 1. every pinned single-lane artefact (golden trace renders, Table 1 spot
//!    values, chaos golden hashes, the 100-run sweep aggregate) replayed
//!    under each shard count;
//! 2. a genuinely multi-lane topology — segments on dedicated lanes joined
//!    by a cross-lane switch, with static crash/partition faults and wire
//!    loss drawing from per-lane RNGs — whose full observable surface
//!    (traces, stats, counts, clocks) is compared across shard counts.
//!
//! The shard override is process-global state; every test serializes on
//! one mutex and restores the override before releasing it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use amoeba::CostModel;
use apps::paper::{self, group_trace, rpc_trace};
use chaos::engine::{run_chaos, ChaosConfig};
use chaos::explore::{explore, ExploreOptions};
use chaos::plan::{FaultPlan, TimedFault, TimedKind};
use chaos::Stack;
use desim::{set_shards_override, us, LaneId, SimDuration, SimTime, Simulation};
use ethernet::{Dest, MacAddr, NetConfig, Network, SegmentId};

/// Serializes tests that flip the process-wide shard override.
fn override_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The shard counts every artefact is checked under: serial, two runner
/// threads, and auto (one per host core).
const SHARD_COUNTS: [usize; 3] = [1, 2, 0];

fn shards_label(n: usize) -> &'static str {
    match n {
        0 => "auto",
        1 => "1",
        2 => "2",
        _ => "n",
    }
}

/// Runs `f` once per shard count (via the process override, the same knob
/// the harnesses' internally-built simulations consult) and returns the
/// results for comparison. Takes the override lock itself.
fn on_each_shard_count<T>(mut f: impl FnMut() -> T) -> Vec<(usize, T)> {
    let _guard = override_lock();
    let mut out = Vec::new();
    for shards in SHARD_COUNTS {
        set_shards_override(Some(shards));
        out.push((shards, f()));
    }
    set_shards_override(None);
    out
}

#[test]
fn golden_traces_render_identically_across_shard_counts() {
    let cost = CostModel::default();
    let runs = on_each_shard_count(|| {
        let mut renders: Vec<String> = Vec::new();
        for stack in [Stack::Kernel, Stack::User] {
            let rpc = rpc_trace(1024, stack, &cost, 1);
            renders.extend(rpc.events.iter().map(|e| e.render()));
            let group = group_trace(1024, stack, &cost, 1);
            renders.extend(group.events.iter().map(|e| e.render()));
        }
        renders
    });
    let (s0, first) = &runs[0];
    for (shards, renders) in &runs[1..] {
        assert_eq!(
            first,
            renders,
            "rendered traces diverged: shards={} vs shards={}",
            shards_label(*s0),
            shards_label(*shards)
        );
    }
}

#[test]
fn table1_spot_values_identical_across_shard_counts() {
    let cost = CostModel::default();
    let runs = on_each_shard_count(|| {
        let mut spots = Vec::new();
        for size in [0usize, 1024] {
            for stack in [Stack::Kernel, Stack::User] {
                spots.push(paper::rpc_latency(size, stack, &cost));
                spots.push(paper::group_latency(size, stack, &cost));
            }
            spots.push(paper::system_layer_latency(size, false, &cost));
            spots.push(paper::system_layer_latency(size, true, &cost));
        }
        spots
    });
    let (_, first) = &runs[0];
    for (shards, spots) in &runs[1..] {
        assert_eq!(
            first,
            spots,
            "Table 1 spot latencies diverged with shards={}",
            shards_label(*shards)
        );
    }
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
fn chaos_golden_hashes_pinned_under_every_shard_count() {
    const KERNEL_GOLDEN_HASH: u64 = 0x2f72_03f6_a96a_f5f7;
    const USER_GOLDEN_HASH: u64 = 0x805e_3a62_7bdb_69da;
    let runs = on_each_shard_count(|| {
        [
            run_chaos(&golden_chaos_config(Stack::Kernel)).trace_hash,
            run_chaos(&golden_chaos_config(Stack::User)).trace_hash,
        ]
    });
    for (shards, [kernel, user]) in &runs {
        assert_eq!(
            *kernel,
            KERNEL_GOLDEN_HASH,
            "kernel chaos golden hash diverged with shards={}",
            shards_label(*shards)
        );
        assert_eq!(
            *user,
            USER_GOLDEN_HASH,
            "user chaos golden hash diverged with shards={}",
            shards_label(*shards)
        );
    }
}

#[test]
fn full_sweep_aggregate_hash_pinned_under_every_shard_count() {
    // The 50-seeds-per-stack sweep (100 chaos runs) folded to one FNV-1a
    // aggregate — every RNG draw, retransmission, and recovery path in 100
    // runs has to replay identically under every runner count.
    const SWEEP_AGGREGATE_HASH: u64 = 0x7442eeb831e66dba;
    let runs = on_each_shard_count(|| {
        explore(&ExploreOptions {
            seeds: 50,
            verify_every: 0,
            minimize: false,
            jobs: 1,
            ..Default::default()
        })
        .aggregate_hash()
    });
    for (shards, hash) in &runs {
        assert_eq!(
            *hash,
            SWEEP_AGGREGATE_HASH,
            "sweep aggregate hash diverged with shards={}",
            shards_label(*shards)
        );
    }
}

/// Everything observable about one multi-lane run.
#[derive(Debug, PartialEq)]
struct LanedArtifacts {
    events: u64,
    final_time: SimTime,
    lane_times: Vec<SimTime>,
    rx_counts: Vec<u64>,
    stats: ethernet::SegmentStats,
    lane_traces: Vec<Vec<String>>,
}

/// A three-segment, three-lane switched Ethernet under static faults:
/// station 3 is crashed before the run, stations 0 and 2 are partitioned,
/// and 5% wire loss draws from each segment lane's own RNG. Station `i`
/// unicasts to station `i+1` (mod 4) and station 0 also broadcasts, so the
/// sharded switch's unicast and flood paths both carry traffic.
fn faulted_multiseg(seed: u64) -> LanedArtifacts {
    let mut sim = Simulation::builder().seed(seed).build();
    sim.enable_tracing_with_capacity(1 << 15);
    let mut net = Network::new(NetConfig::default());
    let lanes = [LaneId::ZERO, sim.add_lane(), sim.add_lane()];
    let segs: Vec<SegmentId> = (0..3)
        .map(|i| net.add_segment_on(&mut sim, &format!("s{i}"), lanes[i]))
        .collect();
    net.add_switch(&mut sim, &segs, "sw");

    // Static faults, fixed before the run starts (the multi-lane contract).
    {
        let faults = net.faults();
        let mut f = faults.lock();
        f.wire_loss_prob = 0.05;
        f.crash(MacAddr(3));
        f.partition(MacAddr(0), MacAddr(2));
    }

    // Station home segments: 0 → s0, 1 → s1, 2 → s2, 3 → s1 (crashed).
    let homes = [0usize, 1, 2, 1];
    let counts: Vec<Arc<AtomicU64>> = (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for (i, &home) in homes.iter().enumerate() {
        let lane = lanes[home];
        let nic = net.attach(MacAddr(i as u32), segs[home]);
        let dst = MacAddr(((i + 1) % 4) as u32);
        let tx_proc = sim.add_processor_on(lane, &format!("station{i}"));
        sim.spawn_on_lane(lane, tx_proc, &format!("tx{i}"), {
            let nic = nic.clone();
            move |ctx| {
                let payload = bytes::Bytes::from_static(&[0xAB; 48]);
                for round in 0..20u64 {
                    ctx.sleep(us(37 + 13 * round));
                    nic.send(ctx, Dest::Unicast(dst), payload.clone());
                    if i == 0 && round % 5 == 0 {
                        nic.send(ctx, Dest::Broadcast, payload.clone());
                    }
                }
            }
        });
        let count = Arc::clone(&counts[i]);
        sim.spawn_daemon_on_lane(lane, tx_proc, &format!("rx{i}"), move |ctx| {
            while nic.rx().recv(ctx).is_some() {
                count.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    let report = sim.run().expect("faulted multiseg drains");
    LanedArtifacts {
        events: report.events,
        final_time: report.final_time,
        lane_times: lanes.iter().map(|&l| sim.lane_now(l)).collect(),
        rx_counts: counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        stats: net.total_stats(),
        lane_traces: lanes
            .iter()
            .map(|&l| {
                sim.lane_trace_events(l)
                    .iter()
                    .map(|e| e.render())
                    .collect()
            })
            .collect(),
    }
}

/// A switch world where most lanes sit idle: eight segments on eight
/// scheduler lanes behind one switch, with traffic only between stations 0
/// (home segment 0) and 1 (home segment 4). The six idle lanes drain
/// immediately and their links never turn dirty, so every window exercises
/// the window engine's idle-lane skip and dirty-flag flush elision — while
/// the full observable surface must stay byte-identical across shard
/// counts.
fn many_idle_lanes(seed: u64) -> (LanedArtifacts, desim::WindowStats) {
    let mut sim = Simulation::builder().seed(seed).build();
    sim.enable_tracing_with_capacity(1 << 15);
    let mut net = Network::new(NetConfig::default());
    let lanes: Vec<LaneId> = (0..8)
        .map(|i| if i == 0 { LaneId::ZERO } else { sim.add_lane() })
        .collect();
    let segs: Vec<SegmentId> = (0..8)
        .map(|i| net.add_segment_on(&mut sim, &format!("s{i}"), lanes[i]))
        .collect();
    net.add_switch(&mut sim, &segs, "sw");

    let homes = [0usize, 4];
    let counts: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for (i, &home) in homes.iter().enumerate() {
        let lane = lanes[home];
        let nic = net.attach(MacAddr(i as u32), segs[home]);
        let dst = MacAddr(((i + 1) % 2) as u32);
        let proc = sim.add_processor_on(lane, &format!("station{i}"));
        sim.spawn_on_lane(lane, proc, &format!("tx{i}"), {
            let nic = nic.clone();
            move |ctx| {
                let payload = bytes::Bytes::from_static(&[0xCD; 32]);
                for round in 0..12u64 {
                    ctx.sleep(us(41 + 17 * round));
                    nic.send(ctx, Dest::Unicast(dst), payload.clone());
                }
            }
        });
        let count = Arc::clone(&counts[i]);
        sim.spawn_daemon_on_lane(lane, proc, &format!("rx{i}"), move |ctx| {
            while nic.rx().recv(ctx).is_some() {
                count.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    let report = sim.run().expect("idle-lane world drains");
    let artifacts = LanedArtifacts {
        events: report.events,
        final_time: report.final_time,
        lane_times: lanes.iter().map(|&l| sim.lane_now(l)).collect(),
        rx_counts: counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        stats: net.total_stats(),
        lane_traces: lanes
            .iter()
            .map(|&l| {
                sim.lane_trace_events(l)
                    .iter()
                    .map(|e| e.render())
                    .collect()
            })
            .collect(),
    };
    // The gate wait is wall-clock; everything else in the block is part of
    // the deterministic surface and compared across cells below.
    let windows = desim::WindowStats {
        barrier_wait_ns: 0,
        ..sim.window_stats()
    };
    (artifacts, windows)
}

#[test]
fn many_idle_lane_topology_pins_the_skip_path() {
    let runs = on_each_shard_count(|| many_idle_lanes(0x1D7E));
    let (s0, (first, first_w)) = &runs[0];

    assert!(
        first.rx_counts[0] > 0 && first.rx_counts[1] > 0,
        "the two live stations must exchange traffic: {:?}",
        first.rx_counts
    );
    assert!(first_w.windows > 1, "the run spans windows: {first_w:?}");
    assert!(
        first_w.lanes_skipped > 0,
        "idle lanes must be skipped lock-free: {first_w:?}"
    );
    assert!(
        first_w.flushes_elided > first_w.flushes,
        "quiet links dominate this topology: {first_w:?}"
    );

    for (shards, (artifacts, w)) in &runs[1..] {
        assert_eq!(
            (first, first_w),
            (artifacts, w),
            "idle-lane observables diverged: shards={} vs shards={}",
            shards_label(*s0),
            shards_label(*shards)
        );
    }
}

#[test]
fn faulted_multilane_topology_is_shard_count_independent() {
    let runs = on_each_shard_count(|| faulted_multiseg(0xD15C));
    let (s0, first) = &runs[0];

    // The topology must actually exercise what it claims to: cross-segment
    // delivery, wire-loss coin flips, and both static fault kinds.
    assert!(
        first.rx_counts[1] > 0 && first.rx_counts[2] > 0,
        "cross-segment unicasts must arrive: {:?}",
        first.rx_counts
    );
    assert_eq!(
        first.rx_counts[3], 0,
        "a crashed station must receive nothing"
    );
    assert!(first.stats.wire_drops > 0, "wire loss must fire");
    assert!(first.stats.down_tx_drops > 0, "crashed NIC must drop sends");
    assert!(
        first.stats.link_drops > 0,
        "partition/crash must drop deliveries"
    );

    for (shards, artifacts) in &runs[1..] {
        assert_eq!(
            first,
            artifacts,
            "multi-lane observables diverged: shards={} vs shards={}",
            shards_label(*s0),
            shards_label(*shards)
        );
    }
}
