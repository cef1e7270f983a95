//! One chaos run: boot a stack, drive a mixed RPC/broadcast workload under
//! a fault plan, collect artifacts, check invariants, hash the trace.
//!
//! The workload is fixed and deterministic: node 0 runs an RPC client
//! against an echo server on node 1 and interleaves group broadcasts; node 2
//! broadcasts concurrently (two concurrent senders make the total-order
//! check meaningful). Group payloads carry a `sender << 32 | index` tag so
//! every member's delivery sequence can be compared exactly; RPC payloads
//! carry the call id so executions can be tallied per call.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex};

use amoeba::{GroupConfig, RpcConfig};
use bytes::Bytes;
use desim::{SimDuration, Simulation};
use panda::PandaConfig;

use crate::invariants::{self, RpcOutcome, RunArtifacts};
use crate::plan::{FaultPlan, TimedKind};
use crate::testutil::{self, Stack};

/// Number of app nodes in every chaos world.
pub const N_NODES: u32 = 3;

/// Everything that defines one chaos run. Same config → same outcome,
/// bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Which stack to run.
    pub stack: Stack,
    /// Simulation seed (also the default fault-plan seed).
    pub seed: u64,
    /// RPCs issued by node 0 against node 1.
    pub rpcs: u64,
    /// Broadcasts issued by node 2 (node 0 adds one per 4 RPCs).
    pub broadcasts: u64,
    /// Virtual-time budget; exceeding it is an invariant violation (a
    /// recovery mechanism failed to converge).
    pub max_virtual: SimDuration,
    /// The fault plan to run under.
    pub plan: FaultPlan,
}

impl ChaosConfig {
    /// The standard sweep configuration: the plan is generated from `seed`,
    /// with every fault — timed windows and probabilistic knobs alike —
    /// confined to the first 40% of `max_virtual` (the fault horizon); the
    /// remaining 60% is clean network time in which recovery must converge.
    pub fn for_seed(
        stack: Stack,
        seed: u64,
        rpcs: u64,
        broadcasts: u64,
        max_virtual: SimDuration,
    ) -> Self {
        let horizon = SimDuration::from_nanos(max_virtual.as_nanos() * 2 / 5);
        let n_machines = stack.n_machines(N_NODES);
        ChaosConfig {
            stack,
            seed,
            rpcs,
            broadcasts,
            max_virtual,
            plan: FaultPlan::generate(seed, n_machines, horizon),
        }
    }

    /// Broadcasts node 0 interleaves into its RPC loop.
    pub fn node0_broadcasts(&self) -> u64 {
        self.rpcs / 4
    }

    /// The Panda tuning used for chaos runs: timeouts tightened so recovery
    /// converges well inside the virtual-time budget, retry budgets widened
    /// so no send gives up while a fault window (≤ 40% of the budget) heals.
    pub fn panda_config(&self) -> PandaConfig {
        PandaConfig {
            rpc: RpcConfig {
                timeout: SimDuration::from_millis(5),
                retries: 24,
            },
            group: GroupConfig {
                send_timeout: SimDuration::from_millis(10),
                send_retries: 24,
                resync_interval: SimDuration::from_millis(40),
                status_interval: 8,
                ..GroupConfig::default()
            },
            ..PandaConfig::default()
        }
    }
}

/// The result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// FNV-1a hash over the run's deterministic aggregates (sorted trace
    /// counters, final virtual time, event count, per-member deliveries,
    /// RPC outcomes, network stats). Same seed → same hash.
    pub trace_hash: u64,
    /// Invariant violations; empty means the run passed.
    pub violations: Vec<String>,
    /// Final virtual time, nanoseconds.
    pub final_time_ns: u64,
    /// Scheduler wake events processed.
    pub events: u64,
    /// RPC calls that returned a correct echo.
    pub rpc_ok: u64,
    /// RPC calls that returned an error or a corrupt reply.
    pub rpc_bad: u64,
    /// Successful group sends (both senders).
    pub bcast_ok: u64,
    /// Failed group sends.
    pub bcast_bad: u64,
    /// Total recovery traffic (retransmissions, retransmission requests,
    /// duplicate suppressions) observed in the trace counters.
    pub recovery_traffic: u64,
}

/// 64-bit FNV-1a, the one hash behind every chaos trace hash and the
/// sweep aggregate.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    /// Hashes `v`'s little-endian bytes.
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.u64(s.len() as u64);
    }
    /// Hashes what `self.str(&v.to_string())` hashes, without the `String`.
    fn display(&mut self, v: impl fmt::Display) {
        struct Counted<'a>(&'a mut Fnv, u64);
        impl fmt::Write for Counted<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.bytes(s.as_bytes());
                self.1 += s.len() as u64;
                Ok(())
            }
        }
        let mut w = Counted(self, 0);
        fmt::Write::write_fmt(&mut w, format_args!("{v}")).expect("hashing never fails");
        let len = w.1;
        self.u64(len);
    }
}

/// Runs one chaos configuration to completion and checks every invariant.
/// Panics inside the simulation (a protocol assertion tripping under
/// faults) are caught and reported as violations, so a sweep survives them.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    match catch_unwind(AssertUnwindSafe(|| run_chaos_inner(cfg))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic".to_owned()
            };
            ChaosOutcome {
                trace_hash: 0,
                violations: vec![format!("panic during run: {msg}")],
                final_time_ns: 0,
                events: 0,
                rpc_ok: 0,
                rpc_bad: 0,
                bcast_ok: 0,
                bcast_bad: 0,
                recovery_traffic: 0,
            }
        }
    }
}

fn run_chaos_inner(cfg: &ChaosConfig) -> ChaosOutcome {
    let mut sim = Simulation::new(cfg.seed);
    if let Some(ps) = cfg.plan.sched_perturb {
        sim.set_schedule_perturbation(ps);
    }
    // Every check and the trace hash read counters; only the CHAOS_DUMP
    // debugging aid (`=<layer|all>`) reads events, so only it gets a ring.
    let dump = std::env::var("CHAOS_DUMP").ok();
    sim.enable_tracing_with_capacity(if dump.is_some() { 1 << 15 } else { 0 });
    sim.set_max_events(5_000_000);

    let world = testutil::boot_machines(&mut sim, cfg.stack.n_machines(N_NODES));
    let net = world.net.clone();
    cfg.plan.apply_static(&mut net.faults().lock());
    let nodes = testutil::build_stack(&mut sim, &world.machines, cfg.stack, &cfg.panda_config());

    // --- timed fault driver -------------------------------------------------
    enum Action {
        Apply(TimedKind),
        Undo(TimedKind),
        /// Horizon end: zero the probabilistic knobs so the rest of the
        /// budget is clean convergence time.
        ClearAmbient,
    }
    let mut actions: Vec<(SimDuration, Action)> = Vec::new();
    for t in &cfg.plan.timed {
        actions.push((t.at, Action::Apply(t.kind)));
        actions.push((t.until, Action::Undo(t.kind)));
    }
    if cfg.plan.has_ambient() {
        let horizon = SimDuration::from_nanos(cfg.max_virtual.as_nanos() * 2 / 5);
        actions.push((horizon, Action::ClearAmbient));
    }
    actions.sort_by_key(|(at, _)| *at);
    if !actions.is_empty() {
        let proc = sim.add_processor("chaos-driver");
        let net2 = net.clone();
        sim.spawn(proc, "chaos-driver", move |ctx| {
            let mut elapsed = SimDuration::ZERO;
            for (at, action) in actions {
                ctx.sleep(at.saturating_sub(elapsed));
                elapsed = at.max(elapsed);
                let faults = net2.faults();
                let mut f = faults.lock();
                match action {
                    Action::Apply(TimedKind::Partition(a, b)) => f.partition(a, b),
                    Action::Undo(TimedKind::Partition(a, b)) => f.heal(a, b),
                    Action::Apply(TimedKind::Crash(m)) => f.crash(m),
                    Action::Undo(TimedKind::Crash(m)) => f.reboot(m),
                    Action::ClearAmbient => FaultPlan::clear_ambient(&mut f),
                }
            }
        });
    }

    // --- instrumentation ----------------------------------------------------
    let executions: Arc<StdMutex<HashMap<u64, u64>>> = Arc::new(StdMutex::new(HashMap::new()));
    let exec2 = Arc::clone(&executions);
    let replier = Arc::clone(&nodes[1]);
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _from, req, ticket| {
        let id = u64::from_be_bytes(req[..8].try_into().expect("tagged request"));
        *exec2.lock().unwrap().entry(id).or_insert(0) += 1;
        replier.reply(ctx, ticket, req);
    }));
    let deliveries: Arc<Vec<StdMutex<Vec<u64>>>> = Arc::new(
        (0..nodes.len())
            .map(|_| StdMutex::new(Vec::new()))
            .collect(),
    );
    for (i, n) in nodes.iter().enumerate() {
        let deliveries = Arc::clone(&deliveries);
        n.set_group_handler(Arc::new(move |_ctx, d| {
            let tag = u64::from_be_bytes(d.payload[..8].try_into().expect("tagged payload"));
            deliveries[i].lock().unwrap().push(tag);
        }));
        if i != 1 {
            n.set_rpc_handler(Arc::new(|_, _, _, _| {}));
        }
    }

    // --- workload -----------------------------------------------------------
    let rpc_outcomes: Arc<StdMutex<Vec<RpcOutcome>>> = Arc::new(StdMutex::new(Vec::new()));
    let send_failures: Arc<StdMutex<Vec<String>>> = Arc::new(StdMutex::new(Vec::new()));
    let bcast_ok = Arc::new(StdMutex::new(0u64));

    let client = Arc::clone(&nodes[0]);
    let outcomes2 = Arc::clone(&rpc_outcomes);
    let failures2 = Arc::clone(&send_failures);
    let bcast_ok2 = Arc::clone(&bcast_ok);
    let rpcs = cfg.rpcs;
    sim.spawn(world.machines[0].proc(), "chaos-client", move |ctx| {
        let mut b0 = 0u64;
        for i in 0..rpcs {
            // Vary the payload size deterministically.
            let len = 8 + (i as usize * 37) % 192;
            let mut body = vec![0x5au8; len];
            body[..8].copy_from_slice(&i.to_be_bytes());
            let body = Bytes::from(body);
            let outcome = match client.rpc(ctx, 1, body.clone()) {
                Ok(reply) if reply == body => RpcOutcome::Ok,
                Ok(_) => RpcOutcome::CorruptReply,
                Err(e) => {
                    failures2.lock().unwrap().push(format!("rpc {i}: {e:?}"));
                    RpcOutcome::Failed
                }
            };
            outcomes2.lock().unwrap().push(outcome);
            if i % 4 == 3 {
                let mut payload = vec![0x0au8; 120];
                payload[..8].copy_from_slice(&b0.to_be_bytes());
                b0 += 1;
                match client.group_send(ctx, Bytes::from(payload)) {
                    Ok(()) => *bcast_ok2.lock().unwrap() += 1,
                    Err(e) => failures2
                        .lock()
                        .unwrap()
                        .push(format!("node0 broadcast {}: {e:?}", b0 - 1)),
                }
            }
        }
    });
    let caster = Arc::clone(&nodes[2]);
    let failures3 = Arc::clone(&send_failures);
    let bcast_ok3 = Arc::clone(&bcast_ok);
    let broadcasts = cfg.broadcasts;
    sim.spawn(world.machines[2].proc(), "chaos-caster", move |ctx| {
        for j in 0..broadcasts {
            // Sender 2's tags live in the upper half of the tag space.
            let tag = (2u64 << 32) | j;
            let len = 64 + (j as usize * 53) % 700;
            let mut payload = vec![0xa5u8; len];
            payload[..8].copy_from_slice(&tag.to_be_bytes());
            match caster.group_send(ctx, Bytes::from(payload)) {
                Ok(()) => *bcast_ok3.lock().unwrap() += 1,
                Err(e) => failures3
                    .lock()
                    .unwrap()
                    .push(format!("node2 broadcast {j}: {e:?}")),
            }
        }
    });

    let sim_result = sim.run();

    // --- artifacts ----------------------------------------------------------
    // Take the faults lock once up front: two `.lock()` temporaries as
    // sibling struct-literal fields would both live to the end of the
    // literal and self-deadlock.
    let (partitions_left, downs_left) = {
        let faults = net.faults();
        let f = faults.lock();
        (f.partition_count(), f.down_count())
    };
    let art = RunArtifacts {
        executions: executions.lock().unwrap().clone(),
        rpc_outcomes: rpc_outcomes.lock().unwrap().clone(),
        send_failures: send_failures.lock().unwrap().clone(),
        deliveries: deliveries
            .iter()
            .map(|m| m.lock().unwrap().clone())
            .collect(),
        counters: sim.trace_counters(),
        events: sim.take_trace_events(),
        clock_violation: sim.trace_clock_violation(),
        stats: net.total_stats(),
        held_pending: net.held_pending(),
        partitions_left,
        downs_left,
        expected_rpcs: cfg.rpcs,
        expected_sender0: cfg.node0_broadcasts(),
        expected_sender2: cfg.broadcasts,
        plan_is_null: cfg.plan.is_null(),
        max_virtual: cfg.max_virtual,
        sim_result: sim_result.clone(),
    };
    let violations = invariants::check(&art);

    if let Some(filter) = dump {
        for e in &art.events {
            let layer = e.layer.to_string();
            if filter == "all" || layer.eq_ignore_ascii_case(&filter) {
                println!(
                    "{:>12} ns  {:<10} {:<6} {:<16} {:?}",
                    e.time.duration_since(desim::SimTime::ZERO).as_nanos(),
                    e.proc.to_string(),
                    layer,
                    e.name,
                    e.args
                );
            }
        }
    }

    // --- trace hash ---------------------------------------------------------
    let mut h = Fnv::new();
    for c in &art.counters {
        h.display(c.proc);
        h.str(c.layer.as_str());
        h.str(c.name);
        h.u64(c.count);
        h.u64(c.total);
    }
    let report = sim.report();
    h.u64(
        report
            .final_time
            .duration_since(desim::SimTime::ZERO)
            .as_nanos(),
    );
    h.u64(report.events);
    for d in &art.deliveries {
        h.u64(d.len() as u64);
        for tag in d {
            h.u64(*tag);
        }
    }
    for o in &art.rpc_outcomes {
        h.u64(*o as u64);
    }
    h.u64(art.stats.frames);
    h.u64(art.stats.wire_bytes);
    h.u64(art.stats.wire_drops);
    h.u64(art.stats.rx_drops);
    h.u64(art.stats.down_tx_drops);
    h.u64(art.stats.link_drops);
    h.u64(art.stats.dup_deliveries);
    h.u64(art.stats.held_deliveries);

    let rpc_ok = art
        .rpc_outcomes
        .iter()
        .filter(|o| **o == RpcOutcome::Ok)
        .count() as u64;
    let bcasts_ok = *bcast_ok.lock().unwrap();
    ChaosOutcome {
        trace_hash: h.0,
        violations,
        final_time_ns: report
            .final_time
            .duration_since(desim::SimTime::ZERO)
            .as_nanos(),
        events: report.events,
        rpc_ok,
        rpc_bad: art.rpc_outcomes.len() as u64 - rpc_ok,
        bcast_ok: bcasts_ok,
        bcast_bad: (cfg.node0_broadcasts() + cfg.broadcasts).saturating_sub(bcasts_ok),
        recovery_traffic: invariants::recovery_traffic(&art.counters),
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv;

    #[test]
    fn fnv_matches_the_fnv1a_reference_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
