//! `chaos_sweep`: what `chaos-explore` users run. 1500 seeded fault plans on
//! each stack, 10 RPCs + 8 (+2) broadcasts per run under a 500 ms virtual
//! budget: thousands of tiny worlds, so world build and teardown, the fault
//! paths and the retransmit timers dominate. Work a change moves from steady
//! state into set-up is paid 3000 times here.
//!
//! The seed picks which window of chaos seeds is swept. About one chaos seed
//! in 2000 violates an invariant today (97 of the 192 000 runs over seeds
//! 0..96000; recorded in the README, not fixed here), and the contract wants
//! workloads on which nothing fails, so the windows are the sixteen
//! 1500-seed ranges below 96000 that hold no failing seed on either stack. A
//! change that makes one of them fail shows as `ops_failed`.

use std::time::Instant;

use chaos::{run_chaos, ChaosConfig};
use orca_panda::desim::{SimDuration, Simulation};

use crate::attrib;
use crate::harness::{one_rep, Metrics, Rep, RepKind, RepOutcome};
use crate::spans::Spans;
use crate::stats::{percentile, percentile_supported};
use crate::workloads::Stack;

const SEEDS_PER_STACK: u64 = 1500;
const WARMUP_SEEDS: u64 = 100;
const RPCS: u64 = 10;
const BROADCASTS: u64 = 8;
const MAX_VIRTUAL: SimDuration = SimDuration::from_millis(500);

/// First chaos seed of every clean 1500-seed window.
const CLEAN_WINDOWS: [u64; 16] = [
    0, 1_500, 15_200, 22_400, 31_400, 34_100, 35_600, 42_400, 51_600, 58_500, 74_300, 78_800,
    80_300, 82_100, 87_800, 90_600,
];

/// Worlds built and dropped in set-up (see [`prepare`]).
const REPLICA_WORLDS: u64 = 200;

/// What set-up hands to the sweep: the plans, and how many replica worlds
/// had more than one lane.
struct Prepared {
    configs: Vec<ChaosConfig>,
    multi_lane: u64,
}

/// Set-up: generates the fault plans and, because `run_chaos` builds its
/// world inside the timed section, times world construction on replicas: 200
/// worlds booted the way the engine boots them, then dropped. One lane per
/// world also means the classic serial loop, so no window ever opens.
fn prepare(seed: u64, seeds_per_stack: u64, spans: &mut Spans) -> Prepared {
    let configs = spans.scope("ChaosConfig::for_seed plans", |_| {
        configs(seed, seeds_per_stack)
    });
    let multi_lane = spans.scope("chaos::testutil replica worlds", |_| {
        let mut multi_lane = 0;
        for i in 0..REPLICA_WORLDS {
            let cfg = &configs[(i as usize * 7) % configs.len()];
            let mut sim = Simulation::new(cfg.seed);
            let machines = cfg.stack.n_machines(chaos::engine::N_NODES);
            let world = chaos::testutil::boot_machines(&mut sim, machines);
            let _nodes = chaos::testutil::build_stack(
                &mut sim,
                &world.machines,
                cfg.stack,
                &cfg.panda_config(),
            );
            multi_lane += u64::from(sim.lanes() != 1);
        }
        multi_lane
    });
    Prepared {
        configs,
        multi_lane,
    }
}

fn configs(seed: u64, seeds_per_stack: u64) -> Vec<ChaosConfig> {
    let start = CLEAN_WINDOWS[(seed % CLEAN_WINDOWS.len() as u64) as usize];
    [chaos::Stack::Kernel, chaos::Stack::User]
        .into_iter()
        .flat_map(|stack| {
            (start..start + seeds_per_stack)
                .map(move |s| ChaosConfig::for_seed(stack, s, RPCS, BROADCASTS, MAX_VIRTUAL))
        })
        .collect()
}

fn sweep(prepared: &Prepared, units: &Metrics, spans: &mut Spans) -> RepOutcome {
    let configs = &prepared.configs;
    let mut out = RepOutcome::default();
    let mut run_ms = Vec::with_capacity(configs.len());
    let mut wall_s = [0.0f64; 2];
    let mut explained_s = 0.0;
    let (mut events, mut virt_ns, mut violations, mut recovery) = (0u64, 0u64, 0u64, 0u64);
    spans.scope("chaos::run_chaos sweep", |_| {
        for cfg in configs {
            let stack = match cfg.stack {
                chaos::Stack::Kernel => Stack::Kernel,
                _ => Stack::User,
            };
            let t0 = Instant::now();
            let o = run_chaos(cfg);
            let secs = t0.elapsed().as_secs_f64();
            run_ms.push(secs * 1e3);
            wall_s[stack as usize] += secs;

            let bcasts = cfg.node0_broadcasts() + cfg.broadcasts;
            let ops = cfg.rpcs + bcasts;
            let bad = o.rpc_bad + o.bcast_bad + o.violations.len() as u64;
            out.check(ops, bad.min(ops), || {
                format!(
                    "{} seed {}: {}",
                    cfg.stack.name(),
                    cfg.seed,
                    o.violations.first().map_or("failed operations", |v| v)
                )
            });
            events += o.events;
            virt_ns += o.final_time_ns;
            violations += o.violations.len() as u64;
            recovery += o.recovery_traffic;
            if !units.is_empty() {
                // The engine's payloads average about 100 B per RPC and
                // 300 B per broadcast.
                explained_s += (cfg.rpcs as f64 * attrib::op_cost_us(units, stack, "rpc", 100.0)
                    + bcasts as f64 * attrib::op_cost_us(units, stack, "group", 300.0))
                    / 1e6;
            }
        }
    });
    let runs = configs.len() as u64;
    out.check(REPLICA_WORLDS, prepared.multi_lane, || {
        format!(
            "{} chaos worlds have more than one lane",
            prepared.multi_lane
        )
    });
    out.check(1, u64::from(!percentile_supported(0.99, runs)), || {
        format!("p99 of {runs} runs has fewer than ten beyond it")
    });

    let e = &mut out.exact;
    e.insert("virt_time_s".into(), virt_ns as f64 / 1e9);
    e.insert("desim.events".into(), events as f64);
    e.insert("desim.window.windows".into(), 0.0);
    e.insert("chaos.runs".into(), runs as f64);
    e.insert("chaos.violations".into(), violations as f64);
    e.insert("chaos.recovery_traffic".into(), recovery as f64);
    e.insert("chaos.events_per_run".into(), events as f64 / runs as f64);
    let t = &mut out.timed;
    let total_s = wall_s[0] + wall_s[1];
    t.insert("desim.ns_per_event".into(), total_s * 1e9 / events as f64);
    t.insert("chaos.run_ms_p50".into(), percentile(&run_ms, 0.5));
    t.insert("chaos.run_ms_p99".into(), percentile(&run_ms, 0.99));
    t.insert("chaos.kernel_wall_s".into(), wall_s[0]);
    t.insert("chaos.user_wall_s".into(), wall_s[1]);
    if !units.is_empty() {
        t.insert(
            "attrib.residual_pct".into(),
            attrib::residual_pct(total_s, explained_s),
        );
    }
    out
}

pub fn rep(seed: u64, kind: RepKind, units: &Metrics, spans: &mut Spans) -> Rep {
    one_rep(
        kind,
        spans,
        |kind, s| {
            let n = if kind == RepKind::WarmUp {
                WARMUP_SEEDS
            } else {
                SEEDS_PER_STACK
            };
            prepare(seed, n, s)
        },
        |prepared, s| sweep(&prepared, units, s),
    )
}
