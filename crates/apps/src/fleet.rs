//! Open-loop client fleet: scale-out workload for the multi-segment tree.
//!
//! A [`FleetSpec`] describes a pool built by the hierarchical topology
//! builder — servers on the backbone, clients filling the leaf segments —
//! and a request workload: every client thread sleeps a think time drawn
//! from its own deterministic RNG ([`ThinkDist::Exp`] gives Poisson
//! arrivals, [`ThinkDist::Pareto`] a heavy tail), fires an RPC at a server,
//! and records the virtual-time latency in a log-bucketed histogram. Every
//! `group_every`-th request a server additionally broadcasts to the group
//! service, so both protocol families carry load.
//!
//! Arrivals depend only on the per-client RNG and virtual time — never on
//! wall-clock, the execution backend, or the shard count — so one spec
//! produces bit-identical [`FleetReport`]s (checkable via
//! [`FleetReport::result_hash`]) under every runner configuration. That is
//! the scale-out determinism contract the `fleet_scale` tests pin.
//!
//! Both stacks avoid FLIP locate broadcast storms at fleet scale: client →
//! server routes are pre-seeded at boot ([`flip` route installation]) and
//! servers learn client routes from arriving requests (route learning), so
//! a 10k-machine fleet performs zero locate floods.
//!
//! [`flip` route installation]: https://docs.rs/flip

use std::sync::Arc;

use amoeba::{
    port_addr, CostModel, GroupMember, GroupSpec, Machine, Port, RpcClient, RpcConfig, RpcServer,
};
use bytes::Bytes;
use desim::{Backend, Ctx, SimDuration, Simulation};
use ethernet::{MacAddr, NetConfig, Network, TopologySpec};
use panda::{panda_addr, Panda, PandaConfig, ReplyTicket, UserSpacePanda};
use parking_lot::Mutex;

/// Base port servers listen on: server `s` serves `Port(FLEET_PORT_BASE + s)`.
const FLEET_PORT_BASE: u64 = 0x6000;
/// Group id of the kernel-space server replication group.
const FLEET_GROUP_ID: u64 = 0x88;
/// Worker threads parked in `get_request` per kernel server.
const KERNEL_SERVER_POOL: usize = 4;
/// Payload of the group broadcast a server issues every `group_every` ops.
const GROUP_PAYLOAD_BYTES: usize = 32;

/// Which protocol family the fleet exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetStack {
    /// Amoeba kernel-space RPC + kernel group among the servers. Clients are
    /// bare [`RpcClient`] endpoints — two threads per machine — so this
    /// stack scales to 10k machines inside the pid and memory budget.
    Kernel,
    /// Panda user-space RPC over FLIP (full per-node stack, group spanning
    /// all nodes). Heavier per machine; sized for fleets up to ~1k.
    User,
}

impl FleetStack {
    /// Short lowercase name for reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FleetStack::Kernel => "kernel",
            FleetStack::User => "user",
        }
    }
}

/// Think-time distribution between a client's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThinkDist {
    /// Exponential think times: each client is a Poisson process.
    Exp,
    /// Pareto (α = 1.5) think times: heavy-tailed, bursty arrivals. Samples
    /// are capped at 100× the mean so one draw cannot silence a client for
    /// the whole run.
    Pareto,
}

/// Declarative description of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Total machines (servers + clients).
    pub machines: u32,
    /// Servers; they occupy the first machine ids and sit directly on the
    /// backbone segment.
    pub servers: u32,
    /// Clients per leaf segment.
    pub per_segment: u32,
    /// Leaf segments per edge switch.
    pub segments_per_switch: u32,
    /// Scheduler lanes the leaves round-robin over.
    pub lanes: u32,
    /// Backbone bandwidth in bit/s (leaves run the network default).
    pub backbone_bandwidth_bps: u64,
    /// Protocol family under test.
    pub stack: FleetStack,
    /// Virtual time during which clients issue requests.
    pub duration: SimDuration,
    /// Mean think time between a client's requests.
    pub mean_think: SimDuration,
    /// Think-time distribution.
    pub think: ThinkDist,
    /// Request payload bytes.
    pub request_bytes: usize,
    /// Reply payload bytes.
    pub reply_bytes: usize,
    /// Every `group_every`-th request handled by a server triggers a group
    /// broadcast (`0` disables group traffic).
    pub group_every: u32,
    /// Seed for all per-client randomness (and the simulation).
    pub seed: u64,
}

impl FleetSpec {
    /// A fleet with the scale-study defaults: 8 clients per leaf, 4 leaves
    /// per edge switch, a 100 Mbit/s backbone, Poisson clients with 20 ms
    /// mean think time, 128-byte requests, 256-byte replies, a group
    /// broadcast every 16th request, over 200 ms of virtual time.
    pub fn new(machines: u32, servers: u32, stack: FleetStack) -> FleetSpec {
        assert!(
            servers > 0 && servers < machines,
            "need servers and clients"
        );
        FleetSpec {
            machines,
            servers,
            per_segment: 8,
            segments_per_switch: 4,
            lanes: 1,
            backbone_bandwidth_bps: 100_000_000,
            stack,
            duration: SimDuration::from_millis(200),
            mean_think: SimDuration::from_millis(20),
            think: ThinkDist::Exp,
            request_bytes: 128,
            reply_bytes: 256,
            group_every: 16,
            seed: 42,
        }
    }

    /// The topology this fleet builds.
    pub fn topology(&self) -> TopologySpec {
        TopologySpec {
            machines: self.machines,
            per_segment: self.per_segment,
            backbone_stations: self.servers,
            segments_per_switch: self.segments_per_switch,
            lanes: self.lanes,
            backbone_bandwidth_bps: Some(self.backbone_bandwidth_bps),
        }
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two: 32 gives ≤ 3.2% relative value error.
const SUB_COUNT: u64 = 32;
const SUB_BITS: u32 = 5;
const N_BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB_COUNT as usize) + SUB_COUNT as usize;

/// Log-linear latency histogram over nanoseconds (HDR-style: buckets are
/// powers of two split into [`SUB_COUNT`] linear sub-buckets). Recording is
/// commutative, so clients on different scheduler lanes can share one
/// histogram without perturbing determinism.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; N_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB_COUNT {
        ns as usize
    } else {
        let exp = 63 - ns.leading_zeros();
        let group = (exp - SUB_BITS + 1) as usize;
        group * SUB_COUNT as usize + ((ns >> (exp - SUB_BITS)) & (SUB_COUNT - 1)) as usize
    }
}

fn bucket_floor(idx: usize) -> u64 {
    let group = idx / SUB_COUNT as usize;
    let sub = (idx % SUB_COUNT as usize) as u64;
    if group == 0 {
        sub
    } else {
        (SUB_COUNT + sub) << (group - 1)
    }
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let ns = latency.as_nanos();
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> SimDuration {
        self.sum_ns
            .checked_div(self.count)
            .map(SimDuration::from_nanos)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// The `q`-quantile (`0.5` = p50, `0.999` = p999), resolved to the lower
    /// bound of its bucket (≤ 3.2% below the true value). Zero when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return SimDuration::from_nanos(bucket_floor(idx));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Folds the full bucket vector and counters into an FNV-1a hash.
    fn fold_hash(&self, h: &mut u64) {
        fnv(h, self.count);
        fnv(h, self.sum_ns);
        fnv(h, self.max_ns);
        for (idx, n) in self.buckets.iter().enumerate() {
            if *n > 0 {
                fnv(h, idx as u64);
                fnv(h, *n);
            }
        }
    }
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

// ---------------------------------------------------------------------------
// Deterministic per-client randomness
// ---------------------------------------------------------------------------

struct ClientRng(u64);

impl ClientRng {
    fn new(seed: u64, client: u32) -> ClientRng {
        // Decorrelate per-client streams from the shared seed.
        ClientRng(seed ^ (u64::from(client).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never zero, so `ln` is always finite.
    fn u01(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn think(&mut self, dist: ThinkDist, mean: SimDuration) -> SimDuration {
        let mean_ns = mean.as_nanos() as f64;
        let ns = match dist {
            ThinkDist::Exp => -mean_ns * self.u01().ln(),
            ThinkDist::Pareto => {
                // α = 1.5 ⇒ mean = 3·x_m; capped at 100× the mean.
                let xm = mean_ns / 3.0;
                (xm * self.u01().powf(-1.0 / 1.5)).min(mean_ns * 100.0)
            }
        };
        SimDuration::from_nanos(ns as u64)
    }
}

// ---------------------------------------------------------------------------
// Shared run state
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct FleetAgg {
    hist: LatencyHistogram,
    ops: u64,
    timeouts: u64,
    group_sends: u64,
    group_timeouts: u64,
}

/// Outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Completed RPCs.
    pub ops: u64,
    /// RPCs that exhausted every retransmission.
    pub timeouts: u64,
    /// Group broadcasts successfully sequenced.
    pub group_sends: u64,
    /// Group broadcasts that timed out.
    pub group_timeouts: u64,
    /// Latency distribution of the completed RPCs.
    pub hist: LatencyHistogram,
    /// Virtual time from boot until the queue drained.
    pub elapsed: SimDuration,
    /// Total frames the network carried.
    pub frames: u64,
    /// Total wire bytes the network carried.
    pub wire_bytes: u64,
    /// Scheduler events the simulation processed (the denominator of a
    /// host-time-per-event figure).
    pub sim_events: u64,
    /// Window-engine accounting of the run. Everything except
    /// `barrier_wait_ns` is deterministic per spec; `barrier_wait_ns` is
    /// wall-clock, which is why this block never feeds
    /// [`FleetReport::result_hash`].
    pub window_stats: desim::WindowStats,
    /// Event-queue accounting summed over every scheduler lane (peak depth,
    /// tier routing, cascades). Deterministic per spec, but diagnostic — it
    /// describes *how* the queue ran, not *what* the fleet computed — so it
    /// stays out of [`FleetReport::result_hash`].
    pub queue_stats: desim::QueueStats,
}

impl FleetReport {
    /// Median latency.
    pub fn p50(&self) -> SimDuration {
        self.hist.quantile(0.5)
    }

    /// 99th percentile latency.
    pub fn p99(&self) -> SimDuration {
        self.hist.quantile(0.99)
    }

    /// 99.9th percentile latency.
    pub fn p999(&self) -> SimDuration {
        self.hist.quantile(0.999)
    }

    /// Completed RPCs per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// FNV-1a hash over every observable of the run: op/timeout/group
    /// counters, the full latency histogram, network frame and byte totals,
    /// and the drain time. Two runs of the same [`FleetSpec`] must produce
    /// the same hash on any backend and shard count.
    pub fn result_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut h, self.ops);
        fnv(&mut h, self.timeouts);
        fnv(&mut h, self.group_sends);
        fnv(&mut h, self.group_timeouts);
        fnv(&mut h, self.frames);
        fnv(&mut h, self.wire_bytes);
        fnv(&mut h, self.elapsed.as_nanos());
        self.hist.fold_hash(&mut h);
        h
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let ms = |d: SimDuration| d.as_nanos() as f64 / 1e6;
        format!(
            "{} ops ({} timeouts), {:.0} ops/s, p50 {:.2}ms p99 {:.2}ms \
             p999 {:.2}ms, {} group sends, {} frames, hash {:016x}",
            self.ops,
            self.timeouts,
            self.throughput(),
            ms(self.p50()),
            ms(self.p99()),
            ms(self.p999()),
            self.group_sends,
            self.frames,
            self.result_hash(),
        )
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// A booted-but-not-yet-run fleet: every machine, daemon, server, and
/// client thread exists; no virtual time has passed. Split from
/// [`run_fleet`] so a caller can time the boot, or measure the resident
/// footprint of a booted world, apart from the run.
#[derive(Debug)]
pub struct FleetWorld {
    sim: Simulation,
    net: Network,
    agg: Arc<Mutex<FleetAgg>>,
}

impl FleetWorld {
    /// Runs the fleet to completion and collects the report.
    pub fn run(mut self) -> FleetReport {
        let report = self
            .sim
            .run()
            .unwrap_or_else(|e| panic!("fleet run failed: {e}"));
        let elapsed = self.sim.now().duration_since(desim::SimTime::ZERO);
        let net_stats = self.net.total_stats();
        let agg = self.agg.lock();
        FleetReport {
            ops: agg.ops,
            timeouts: agg.timeouts,
            group_sends: agg.group_sends,
            group_timeouts: agg.group_timeouts,
            hist: agg.hist.clone(),
            elapsed,
            frames: net_stats.frames,
            wire_bytes: net_stats.wire_bytes,
            sim_events: report.events,
            window_stats: self.sim.window_stats(),
            queue_stats: self.sim.queue_stats(),
        }
    }
}

/// Boots the fleet described by `spec` without running it.
pub fn build_fleet(spec: &FleetSpec, backend: Backend, shards: usize) -> FleetWorld {
    let topo_spec = spec.topology();
    // Every machine runs a netisr daemon plus one to six role threads; three
    // per machine covers the client-heavy lanes that dominate at scale.
    // Purely a sizing hint — run results are identical without it.
    let expected = topo_spec.max_machines_per_lane() as usize * 3;
    let mut sim = Simulation::builder()
        .seed(spec.seed)
        .backend(backend)
        .shards(shards)
        .expected_threads(expected)
        .build();
    let mut net = Network::new(NetConfig::default());
    let topo = topo_spec.build(&mut sim, &mut net, "fleet");
    let cost = Arc::new(CostModel::default());
    let machines: Vec<Machine> = (0..spec.machines)
        .map(|i| {
            Machine::boot_on(
                &mut sim,
                &mut net,
                topo.segment_of(i),
                MacAddr(i),
                &format!("m{i}"),
                Arc::clone(&cost),
                topo.lane_of(i),
            )
        })
        .collect();
    let agg = Arc::new(Mutex::new(FleetAgg::default()));
    match spec.stack {
        FleetStack::Kernel => build_kernel_fleet(&mut sim, spec, &machines, &agg),
        FleetStack::User => build_user_fleet(&mut sim, spec, &machines, &agg),
    }
    FleetWorld { sim, net, agg }
}

/// Boots the fleet described by `spec` on the given backend / shard count and
/// runs it to completion. The report is bit-identical across backends and
/// shard counts (`shards` 0 = auto).
pub fn run_fleet(spec: &FleetSpec, backend: Backend, shards: usize) -> FleetReport {
    build_fleet(spec, backend, shards).run()
}

/// The port server `s` answers on.
fn server_port(s: u32) -> Port {
    Port(FLEET_PORT_BASE + u64::from(s))
}

/// Spawns one client loop: think, fire, record — until `duration` elapses.
#[allow(clippy::too_many_arguments)]
fn spawn_client<F>(
    sim: &mut Simulation,
    spec: &FleetSpec,
    machine: &Machine,
    client_idx: u32,
    agg: &Arc<Mutex<FleetAgg>>,
    op: F,
) where
    F: Fn(&Ctx, u32) -> bool + Send + 'static,
{
    let mut rng = ClientRng::new(spec.seed, client_idx);
    let end = spec.duration;
    let servers = spec.servers;
    let think_dist = spec.think;
    let mean_think = spec.mean_think;
    let agg = Arc::clone(agg);
    sim.spawn_on_lane(
        machine.lane(),
        machine.proc(),
        &format!("client-{client_idx}"),
        move |ctx| loop {
            ctx.sleep(rng.think(think_dist, mean_think));
            if ctx.now().as_nanos() >= end.as_nanos() {
                break;
            }
            let server = (rng.next() % u64::from(servers)) as u32;
            let t0 = ctx.now();
            let ok = op(ctx, server);
            let latency = ctx.now().saturating_duration_since(t0);
            let mut a = agg.lock();
            if ok {
                a.ops += 1;
                a.hist.record(latency);
            } else {
                a.timeouts += 1;
            }
        },
    );
}

/// Kernel-space fleet: bare Amoeba RPC endpoints, servers in a kernel group.
fn build_kernel_fleet(
    sim: &mut Simulation,
    spec: &FleetSpec,
    machines: &[Machine],
    agg: &Arc<Mutex<FleetAgg>>,
) {
    let servers = spec.servers;
    let gspec = if spec.group_every > 0 && servers > 1 {
        Some(GroupSpec::build(FLEET_GROUP_ID, servers as usize, 0))
    } else {
        None
    };
    let reply = Bytes::from(vec![0u8; spec.reply_bytes]);
    let group_payload = Bytes::from(vec![0u8; GROUP_PAYLOAD_BYTES]);
    for s in 0..servers {
        let machine = &machines[s as usize];
        // Replies and the unicast legs of the group protocol route by
        // learned state instead of locate floods.
        machine.iface().set_route_learning(true);
        let server = RpcServer::register(machine, server_port(s));
        let member = gspec.as_ref().map(|g| {
            // Member-to-sequencer unicasts are pre-seeded too.
            for (j, addr) in g.member_addrs.iter().enumerate() {
                if j as u32 != s {
                    machine.iface().install_route(*addr, MacAddr(j as u32));
                }
            }
            Arc::new(GroupMember::join(machine, g.clone(), s))
        });
        if let Some(member) = &member {
            // Drain ordered deliveries so the backlog stays bounded.
            let drain = Arc::clone(member);
            sim.spawn_daemon_on_lane(
                machine.lane(),
                machine.proc(),
                &format!("srv{s}-gdrain"),
                move |ctx| loop {
                    let _ = drain.recv(ctx);
                },
            );
        }
        let handled = Arc::new(std::sync::atomic::AtomicU64::new(0));
        for w in 0..KERNEL_SERVER_POOL {
            let server = server.clone();
            let member = member.clone();
            let handled = Arc::clone(&handled);
            let reply = reply.clone();
            let group_payload = group_payload.clone();
            let agg = Arc::clone(agg);
            let every = u64::from(spec.group_every);
            sim.spawn_daemon_on_lane(
                machine.lane(),
                machine.proc(),
                &format!("srv{s}-w{w}"),
                move |ctx| loop {
                    let (_req, token) = server.get_request(ctx);
                    let n = handled.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    server.put_reply(ctx, token, reply.clone());
                    if let Some(member) = &member {
                        if every > 0 && n.is_multiple_of(every) {
                            let ok = member.send(ctx, group_payload.clone()).is_ok();
                            let mut a = agg.lock();
                            if ok {
                                a.group_sends += 1;
                            } else {
                                a.group_timeouts += 1;
                            }
                        }
                    }
                },
            );
        }
    }
    let request = Bytes::from(vec![0u8; spec.request_bytes]);
    for c in servers..spec.machines {
        let machine = &machines[c as usize];
        // Clients know where every server lives: no locate broadcasts.
        for s in 0..servers {
            machine
                .iface()
                .install_route(port_addr(server_port(s)), MacAddr(s));
        }
        let client = RpcClient::install(machine, RpcConfig::default());
        let request = request.clone();
        spawn_client(sim, spec, machine, c, agg, move |ctx, s| {
            client.trans(ctx, server_port(s), request.clone()).is_ok()
        });
    }
}

/// User-space fleet: the full Panda stack on every node; the first
/// `spec.servers` nodes answer RPCs, the group spans all nodes.
fn build_user_fleet(
    sim: &mut Simulation,
    spec: &FleetSpec,
    machines: &[Machine],
    agg: &Arc<Mutex<FleetAgg>>,
) {
    let servers = spec.servers;
    let nodes = UserSpacePanda::build(sim, machines, &PandaConfig::default());
    let reply = Bytes::from(vec![0u8; spec.reply_bytes]);
    let group_payload = Bytes::from(vec![0u8; GROUP_PAYLOAD_BYTES]);
    for (i, node) in nodes.iter().enumerate() {
        // Group deliveries are consumed on the spot.
        node.set_group_handler(Arc::new(|_ctx, _delivery| {}));
        if (i as u32) < servers {
            let machine = node.machine();
            machine.iface().set_route_learning(true);
            // Group broadcasts must not block the receive daemon the RPC
            // handler runs on, so the handler only enqueues a tick and a
            // per-server daemon performs the (blocking) sequenced send.
            let ticks: desim::SimChannel<()> = desim::SimChannel::new();
            if spec.group_every > 0 {
                let sender = Arc::clone(node);
                let ticks_rx = ticks.clone();
                let group_payload = group_payload.clone();
                let agg = Arc::clone(agg);
                sim.spawn_daemon_on_lane(
                    machine.lane(),
                    machine.proc(),
                    &format!("srv{i}-gsend"),
                    move |ctx| {
                        while ticks_rx.recv(ctx).is_some() {
                            let ok = sender.group_send(ctx, group_payload.clone()).is_ok();
                            let mut a = agg.lock();
                            if ok {
                                a.group_sends += 1;
                            } else {
                                a.group_timeouts += 1;
                            }
                        }
                    },
                );
            }
            let replier = Arc::clone(node);
            let reply = reply.clone();
            let every = u64::from(spec.group_every);
            let handled = Arc::new(std::sync::atomic::AtomicU64::new(0));
            node.set_rpc_handler(Arc::new(
                move |ctx: &Ctx, _from, _req: Bytes, ticket: ReplyTicket| {
                    replier.reply(ctx, ticket, reply.clone());
                    if every > 0 {
                        let n = handled.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                        if n.is_multiple_of(every) {
                            let _ = ticks.send(ctx, ());
                        }
                    }
                },
            ));
        }
    }
    let request = Bytes::from(vec![0u8; spec.request_bytes]);
    for c in servers..spec.machines {
        let node = Arc::clone(&nodes[c as usize]);
        let machine = machines[c as usize].clone();
        // Clients know where every server lives: no locate broadcasts.
        for s in 0..servers {
            machine.iface().install_route(panda_addr(s), MacAddr(s));
        }
        let request = request.clone();
        spawn_client(sim, spec, &machine, c, agg, move |ctx, s| {
            node.rpc(ctx, s, request.clone()).is_ok()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_invertible() {
        let mut prev = 0usize;
        for v in [0u64, 1, 5, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, u64::MAX] {
            let idx = bucket_of(v);
            assert!(idx >= prev, "bucket index monotone at {v}");
            assert!(bucket_floor(idx) <= v, "floor below value at {v}");
            prev = idx;
        }
        // The floor is within 1/32 of the true value.
        for v in [100u64, 12_345, 1 << 30, 987_654_321] {
            let floor = bucket_floor(bucket_of(v));
            assert!(v - floor <= v / 32 + 1, "{floor} too far below {v}");
        }
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::default();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_nanos(i * 1000));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).as_nanos();
        assert!((480_000..=520_000).contains(&p50), "p50 ≈ 500µs, got {p50}");
        let p999 = h.quantile(0.999).as_nanos();
        assert!(p999 >= 960_000, "p999 near the top, got {p999}");
        assert_eq!(h.max().as_nanos(), 1_000_000);
    }

    #[test]
    fn think_times_are_deterministic_and_plausible() {
        let mean = SimDuration::from_millis(10);
        for dist in [ThinkDist::Exp, ThinkDist::Pareto] {
            let mut a = ClientRng::new(7, 3);
            let mut b = ClientRng::new(7, 3);
            let mut sum = 0u64;
            for _ in 0..2000 {
                let t = a.think(dist, mean);
                assert_eq!(t, b.think(dist, mean), "same stream, same draws");
                sum += t.as_nanos();
            }
            let avg = sum / 2000;
            assert!(
                (2_000_000..50_000_000).contains(&avg),
                "{dist:?} sample mean within an order of magnitude: {avg}"
            );
        }
    }
}
