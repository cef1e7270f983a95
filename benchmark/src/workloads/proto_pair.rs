//! `proto_pair`: the paper's Tables 1-2 worlds, closed loop, one client, on
//! both stacks. Twelve cells: null and 4 KB RPC, an 8000 B RPC stream, null
//! and 4 KB group send (2 members, sequencer on the other machine), and an
//! 8-member 8000 B group stream. Protocol code, FLIP and one segment do the
//! work: no switch, no windows, queue depth below ten.
//!
//! The seed generates the payload bytes (every request and every delivery is
//! compared with them) and the start phases of the sixteen stream senders,
//! which move the group stream's virtual time slightly per seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use orca_panda::amoeba::{CostModel, Machine};
use orca_panda::desim::{SimDuration, Simulation, ThreadHandle};
use orca_panda::ethernet::{MacAddr, NetConfig, Network};
use orca_panda::panda::{KernelSpacePanda, Panda, PandaConfig, UserSpacePanda};

use crate::attrib;
use crate::harness::{one_rep, Metrics, Rep, RepKind, RepOutcome, SplitMix};
use crate::registry::BUDGET_TERMS;
use crate::spans::Spans;
use crate::workloads::Stack;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RpcNull,
    Rpc4k,
    RpcStream,
    GroupNull,
    Group4k,
    GroupStream,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::RpcNull,
        Kind::Rpc4k,
        Kind::RpcStream,
        Kind::GroupNull,
        Kind::Group4k,
        Kind::GroupStream,
    ];

    fn payload_bytes(self) -> usize {
        match self {
            Kind::RpcNull | Kind::GroupNull => 0,
            Kind::Rpc4k | Kind::Group4k => 4096,
            Kind::RpcStream | Kind::GroupStream => 8000,
        }
    }

    fn is_rpc(self) -> bool {
        matches!(self, Kind::RpcNull | Kind::Rpc4k | Kind::RpcStream)
    }

    /// `(protocol, cell)` of the `<stack>.<protocol>.host_us_<cell>` metric.
    pub fn host_metric(self) -> (&'static str, &'static str) {
        match self {
            Kind::RpcNull => ("rpc", "null"),
            Kind::Rpc4k => ("rpc", "4k"),
            Kind::RpcStream => ("rpc", "stream"),
            Kind::GroupNull => ("group", "null"),
            Kind::Group4k => ("group", "4k"),
            Kind::GroupStream => ("group", "stream"),
        }
    }

    /// Name of the `virt.<stack>.*` metric and the paper's value for it
    /// (Table 1 in ms, Table 2 in KB/s), kernel then user.
    fn virt_metric(self) -> (&'static str, [f64; 2]) {
        match self {
            Kind::RpcNull => ("rpc_null_us", [1.27, 1.56]),
            Kind::Rpc4k => ("rpc_4k_us", [5.06, 5.27]),
            Kind::RpcStream => ("rpc_kbs", [897.0, 825.0]),
            Kind::GroupNull => ("group_null_us", [1.44, 1.67]),
            Kind::Group4k => ("group_4k_us", [5.25, 5.35]),
            Kind::GroupStream => ("group_kbs", [941.0, 941.0]),
        }
    }

    fn is_stream(self) -> bool {
        matches!(self, Kind::RpcStream | Kind::GroupStream)
    }
}

/// Members and sender threads of the group stream (Table 2's set-up).
const STREAM_MEMBERS: u32 = 8;
const STREAM_THREADS_PER_NODE: u64 = 2;
/// Stream senders start within this window instead of in lockstep.
const STREAM_PHASE_NS: u64 = 1_000_000;
/// Ring capacity of the traced reps; the budget comes from the counters, so
/// the ring only has to hold the tail.
const TRACE_RING: usize = 1 << 16;

/// Operations per cell. For the group stream: messages per sender thread.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub rpc_null: u64,
    pub rpc_4k: u64,
    pub rpc_stream: u64,
    pub group_null: u64,
    pub group_4k: u64,
    pub group_stream_per_sender: u64,
}

impl Sizes {
    fn ops(&self, kind: Kind) -> u64 {
        match kind {
            Kind::RpcNull => self.rpc_null,
            Kind::Rpc4k => self.rpc_4k,
            Kind::RpcStream => self.rpc_stream,
            Kind::GroupNull => self.group_null,
            Kind::Group4k => self.group_4k,
            Kind::GroupStream => self.group_stream_per_sender,
        }
    }
}

/// Calibrated so that every cell runs for 0.1-0.3 s and a rep for about 2 s
/// on the 2-core reference sandbox.
pub const FULL: Sizes = Sizes {
    rpc_null: 24_000,
    rpc_4k: 12_000,
    rpc_stream: 8_000,
    group_null: 24_000,
    group_4k: 12_000,
    group_stream_per_sender: 120,
};

/// Probe-sized cells for the other workloads' traced runs.
pub const PROBE: Sizes = Sizes {
    rpc_null: 2_000,
    rpc_4k: 1_000,
    rpc_stream: 600,
    group_null: 2_000,
    group_4k: 1_000,
    group_stream_per_sender: 10,
};

/// What the threads and upcalls of a cell report into.
#[derive(Default)]
struct Shared {
    /// Virtual nanoseconds of the measured window.
    window_ns: AtomicU64,
    /// Virtual time of the latest group delivery at any member.
    last_delivery_ns: AtomicU64,
    /// Requests, replies or deliveries whose bytes were wrong.
    bad: AtomicU64,
    /// Per member: `(sender, seq)` of every delivery, in delivery order.
    deliveries: Vec<Mutex<Vec<(u32, u64)>>>,
}

/// A cell's world, built and ready to run.
pub struct BuiltCell {
    pub stack: Stack,
    pub kind: Kind,
    /// Operations the measured window covers.
    ops: u64,
    /// Group messages every member must deliver (warm-up included).
    expect_deliveries: u64,
    sim: Simulation,
    net: Network,
    machines: Vec<Machine>,
    /// The closed-loop client; `None` when the whole world runs to the end.
    client: Option<ThreadHandle>,
    shared: Arc<Shared>,
}

/// What one cell observed.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    pub ops: u64,
    pub bad: u64,
    pub wall_ns: u64,
    pub events: u64,
    /// Windows the windowed driver opened: none in a single-lane world.
    pub windows: u64,
    /// Virtual time of the measured window and of the whole world.
    pub window_ns: u64,
    pub world_ns: u64,
    pub frames: u64,
    pub wire_bytes: u64,
    pub wire_busy_ns: u64,
    pub drops: u64,
    pub flip_msgs: u64,
    pub flip_packets: u64,
    pub flip_locates: u64,
    pub flip_reassembly_drops: u64,
    pub trace_dropped: u64,
    /// Virtual ns per operation charged under each of `BUDGET_TERMS`
    /// (traced null-RPC cells only).
    pub budget_ns_per_op: Vec<f64>,
}

impl CellResult {
    pub fn host_us_per_op(&self) -> f64 {
        self.wall_ns as f64 / 1e3 / self.ops as f64
    }

    /// Latency in virtual µs, or throughput in KB per virtual second.
    fn virt_value(&self, kind: Kind) -> f64 {
        if kind.is_stream() {
            let bytes = (self.ops as usize * kind.payload_bytes()) as f64;
            bytes / 1024.0 / (self.window_ns as f64 / 1e9)
        } else {
            self.window_ns as f64 / 1e3 / self.ops as f64
        }
    }
}

fn build_pandas(
    sim: &mut Simulation,
    machines: &[Machine],
    stack: Stack,
    sequencer_node: u32,
) -> Vec<Arc<dyn Panda>> {
    let cfg = PandaConfig {
        sequencer_node,
        ..PandaConfig::default()
    };
    match stack {
        Stack::Kernel => KernelSpacePanda::build(sim, machines, &cfg)
            .into_iter()
            .map(|p| p as Arc<dyn Panda>)
            .collect(),
        Stack::User => UserSpacePanda::build(sim, machines, &cfg)
            .into_iter()
            .map(|p| p as Arc<dyn Panda>)
            .collect(),
    }
}

/// Boots the cell's machines on one segment, brings the stack up, installs
/// the checking upcalls and spawns the load threads.
pub fn build_cell(
    stack: Stack,
    kind: Kind,
    sizes: &Sizes,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
) -> BuiltCell {
    let n = sizes.ops(kind);
    let mut sim = Simulation::new(seed);
    if traced {
        sim.enable_tracing_with_capacity(TRACE_RING);
    }
    let n_machines = if kind == Kind::GroupStream {
        STREAM_MEMBERS
    } else {
        2
    };
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let machines: Vec<Machine> = (0..n_machines)
        .map(|i| {
            Machine::boot(
                &mut sim,
                &mut net,
                seg,
                MacAddr(i),
                &format!("m{i}"),
                CostModel::default(),
            )
        })
        .collect();
    // Table 1's group latency puts the sequencer on the *other* machine.
    let sequencer = u32::from(matches!(kind, Kind::GroupNull | Kind::Group4k));
    let nodes = spans.scope("panda build", |_| {
        build_pandas(&mut sim, &machines, stack, sequencer)
    });

    let payload = Bytes::from(SplitMix::stream(seed, 10).bytes(kind.payload_bytes()));
    let shared = Arc::new(Shared {
        deliveries: (0..nodes.len()).map(|_| Mutex::new(Vec::new())).collect(),
        ..Shared::default()
    });

    // Upcalls: the server answers with an empty reply (Table 1's shape) and
    // checks the request bytes; every member checks and logs each delivery.
    for (i, node) in nodes.iter().enumerate() {
        let (sh, expect) = (Arc::clone(&shared), payload.clone());
        node.set_group_handler(Arc::new(move |ctx, d| {
            if d.payload != expect {
                sh.bad.fetch_add(1, Ordering::Relaxed);
            }
            sh.last_delivery_ns
                .fetch_max(ctx.now().as_nanos(), Ordering::Relaxed);
            sh.deliveries[i]
                .lock()
                .expect("delivery log")
                .push((d.sender, d.seq));
        }));
        if i == 1 && kind.is_rpc() {
            let (sh, expect, me) = (Arc::clone(&shared), payload.clone(), Arc::clone(node));
            node.set_rpc_handler(Arc::new(move |ctx, _from, req, ticket| {
                if req != expect {
                    sh.bad.fetch_add(1, Ordering::Relaxed);
                }
                me.reply(ctx, ticket, Bytes::new());
            }));
        } else {
            node.set_rpc_handler(Arc::new(|_, _, _, _| {}));
        }
    }

    let mut client = None;
    let mut expect_deliveries = 0;
    let mut ops = n;
    if kind == Kind::GroupStream {
        // Every member streams from two threads; each starts at its own
        // seed-drawn phase. The world runs until the protocol goes quiet.
        let mut phases = SplitMix::stream(seed, 11);
        for node in &nodes {
            for t in 0..STREAM_THREADS_PER_NODE {
                let (node, msg) = (Arc::clone(node), payload.clone());
                let phase = SimDuration::from_nanos(phases.below(STREAM_PHASE_NS));
                let proc = node.machine().proc();
                sim.spawn(proc, &format!("s{}-{t}", node.node()), move |ctx| {
                    ctx.sleep(phase);
                    for _ in 0..n {
                        node.group_send(ctx, msg.clone()).expect("group send");
                    }
                });
            }
        }
        ops = n * STREAM_THREADS_PER_NODE * u64::from(STREAM_MEMBERS);
        expect_deliveries = ops;
    } else {
        // One warm-up operation resolves the FLIP routes, then the window.
        let (node, msg, sh) = (Arc::clone(&nodes[0]), payload.clone(), Arc::clone(&shared));
        let is_rpc = kind.is_rpc();
        let op = move |ctx: &orca_panda::desim::Ctx| {
            if is_rpc {
                let reply = node.rpc(ctx, 1, msg.clone()).expect("rpc");
                if !reply.is_empty() {
                    sh.bad.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                node.group_send(ctx, msg.clone()).expect("group send");
            }
        };
        let sh = Arc::clone(&shared);
        client = Some(sim.spawn(machines[0].proc(), "client", move |ctx| {
            op(ctx);
            let t0 = ctx.now();
            for _ in 0..n {
                op(ctx);
            }
            sh.window_ns
                .store((ctx.now() - t0).as_nanos(), Ordering::Relaxed);
        }));
        if !is_rpc {
            expect_deliveries = n + 1;
        }
    }

    BuiltCell {
        stack,
        kind,
        ops,
        expect_deliveries,
        sim,
        net,
        machines,
        client,
        shared,
    }
}

/// Runs a built cell to completion and collects counts, times and checks.
pub fn run_cell(mut cell: BuiltCell) -> CellResult {
    let t0 = Instant::now();
    let report = match &cell.client {
        Some(client) => cell.sim.run_until_finished(client),
        None => cell.sim.run(),
    }
    .unwrap_or_else(|e| panic!("{:?} {:?} cell failed: {e}", cell.stack, cell.kind));
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let mut bad = cell.shared.bad.load(Ordering::Relaxed);
    let logs: Vec<Vec<(u32, u64)>> = cell
        .shared
        .deliveries
        .iter()
        .map(|m| m.lock().expect("delivery log").clone())
        .collect();
    if !cell.kind.is_rpc() {
        // Count = sends x members, same order at each member.
        for log in &logs {
            bad += (log.len() as u64).abs_diff(cell.expect_deliveries);
            bad += log.iter().zip(&logs[0]).filter(|(a, b)| a != b).count() as u64;
        }
    }

    // The stream is measured from time zero up to the last delivery: the
    // status-exchange tail that follows is housekeeping, not throughput.
    let window_ns = if cell.kind == Kind::GroupStream {
        cell.shared.last_delivery_ns.load(Ordering::Relaxed)
    } else {
        cell.shared.window_ns.load(Ordering::Relaxed)
    };

    let net = cell.net.total_stats();
    let mut out = CellResult {
        ops: cell.ops,
        bad,
        wall_ns,
        events: report.events,
        windows: cell.sim.window_stats().windows,
        window_ns,
        world_ns: report.final_time.as_nanos(),
        frames: net.frames,
        wire_bytes: net.wire_bytes,
        wire_busy_ns: net.busy.as_nanos(),
        drops: net.wire_drops + net.rx_drops + net.down_tx_drops + net.link_drops,
        trace_dropped: cell.sim.trace_dropped(),
        ..CellResult::default()
    };
    for m in &cell.machines {
        let s = m.iface().stats();
        out.flip_msgs += s.msgs_sent;
        out.flip_packets += s.packets_sent;
        out.flip_locates += s.locates_sent;
        out.flip_reassembly_drops += s.reassembly_drops;
    }
    if cell.kind == Kind::RpcNull {
        let counters = cell.sim.trace_counters();
        if !counters.is_empty() {
            // The warm-up call is inside the counters too.
            let calls = (cell.ops + 1) as f64;
            out.budget_ns_per_op = BUDGET_TERMS
                .iter()
                .map(|term| {
                    let total: u64 = if *term == "wire" {
                        // The wire counter sums a byte and a ns argument;
                        // the segment's busy time is the same quantity.
                        net.busy.as_nanos()
                    } else {
                        counters
                            .iter()
                            .filter(|c| c.name == *term)
                            .map(|c| c.total)
                            .sum()
                    };
                    total as f64 / calls
                })
                .collect();
        }
    }
    out
}

/// The twelve cells, built (set-up) in run order.
pub fn prepare(seed: u64, sizes: &Sizes, traced: bool, spans: &mut Spans) -> Vec<BuiltCell> {
    let mut cells = Vec::new();
    for stack in Stack::BOTH {
        for kind in Kind::ALL {
            cells.push(spans.scope("proto_pair.build_cell", |s| {
                build_cell(stack, kind, sizes, seed, traced, s)
            }));
        }
    }
    cells
}

/// Paper-referenced cells: mean relative error against Tables 1-2, in %.
fn paper_err_pct(results: &[(Stack, Kind, CellResult)]) -> f64 {
    let errs: Vec<f64> = results
        .iter()
        .map(|(stack, kind, r)| {
            let (_, paper) = kind.virt_metric();
            let paper = paper[*stack as usize];
            // Table 1 is in ms, the metric in µs; Table 2 is KB/s both ways.
            let sim = if kind.is_stream() {
                r.virt_value(*kind)
            } else {
                r.virt_value(*kind) / 1e3
            };
            (sim - paper).abs() / paper
        })
        .collect();
    100.0 * errs.iter().sum::<f64>() / errs.len() as f64
}

pub fn run_cells(cells: Vec<BuiltCell>, units: &Metrics, spans: &mut Spans) -> RepOutcome {
    let results: Vec<(Stack, Kind, CellResult)> = cells
        .into_iter()
        .map(|cell| {
            let (stack, kind) = (cell.stack, cell.kind);
            let name = format!("sim.run {} {:?}", stack.side(), kind);
            (stack, kind, spans.scope(&name, |_| run_cell(cell)))
        })
        .collect();

    let mut out = RepOutcome::default();
    let mut sum = CellResult::default();
    for (stack, kind, r) in &results {
        out.check(r.ops, r.bad.min(r.ops), || {
            format!(
                "{} {kind:?}: {} wrong of {} ops",
                stack.side(),
                r.bad,
                r.ops
            )
        });
        let (proto, cell) = kind.host_metric();
        out.timed.insert(
            format!("{}.{proto}.host_us_{cell}", stack.layer()),
            r.host_us_per_op(),
        );
        let (virt_name, _) = kind.virt_metric();
        out.exact.insert(
            format!("virt.{}.{virt_name}", stack.layer()),
            r.virt_value(*kind),
        );
        for (term, ns) in BUDGET_TERMS.iter().zip(&r.budget_ns_per_op) {
            out.exact
                .insert(format!("virt.budget.{}.{term}_us", stack.side()), ns / 1e3);
        }
        sum.wall_ns += r.wall_ns;
        sum.events += r.events;
        sum.windows += r.windows;
        sum.window_ns += r.window_ns;
        sum.world_ns += r.world_ns;
        sum.frames += r.frames;
        sum.wire_bytes += r.wire_bytes;
        sum.wire_busy_ns += r.wire_busy_ns;
        sum.drops += r.drops;
        sum.flip_msgs += r.flip_msgs;
        sum.flip_packets += r.flip_packets;
        sum.flip_locates += r.flip_locates;
        sum.flip_reassembly_drops += r.flip_reassembly_drops;
        sum.trace_dropped += r.trace_dropped;
    }
    let e = &mut out.exact;
    e.insert("virt_time_s".into(), sum.window_ns as f64 / 1e9);
    e.insert("virt_paper_err_pct".into(), paper_err_pct(&results));
    e.insert("desim.events".into(), sum.events as f64);
    e.insert("desim.window.windows".into(), sum.windows as f64);
    e.insert("ethernet.frames".into(), sum.frames as f64);
    e.insert("ethernet.wire_bytes".into(), sum.wire_bytes as f64);
    e.insert("ethernet.drops".into(), sum.drops as f64);
    e.insert(
        "ethernet.seg_util_pct".into(),
        100.0 * sum.wire_busy_ns as f64 / sum.world_ns as f64,
    );
    e.insert("flip.msgs_sent".into(), sum.flip_msgs as f64);
    e.insert("flip.packets_sent".into(), sum.flip_packets as f64);
    e.insert(
        "flip.frags_per_msg".into(),
        sum.flip_packets as f64 / sum.flip_msgs as f64,
    );
    e.insert("flip.locates_sent".into(), sum.flip_locates as f64);
    e.insert(
        "flip.reassembly_drops".into(),
        sum.flip_reassembly_drops as f64,
    );
    let t = &mut out.timed;
    t.insert(
        "desim.ns_per_event".into(),
        sum.wall_ns as f64 / sum.events as f64,
    );
    t.insert(
        "ethernet.host_ns_per_frame".into(),
        sum.wall_ns as f64 / sum.frames as f64,
    );
    if !units.is_empty() {
        // One layer down from the cells themselves: what FLIP, the wire and
        // desim cost for these messages; the rest is protocol code.
        let (one, six) = (units["flip.msg_1frag_ns"], units["flip.msg_6frag_ns"]);
        let frags = sum.flip_packets as f64 / sum.flip_msgs as f64;
        let per_msg_ns = one + (six - one) * (frags - 1.0) / 5.0;
        t.insert(
            "attrib.residual_pct".into(),
            attrib::residual_pct(sum.wall_ns as f64, sum.flip_msgs as f64 * per_msg_ns),
        );
    }
    // Reported by the traced reps only; zero-cost tracing keeps every other
    // exact value equal between traced and untraced reps.
    if results
        .iter()
        .any(|(_, _, r)| !r.budget_ns_per_op.is_empty())
    {
        out.exact
            .insert("desim.trace.dropped".into(), sum.trace_dropped as f64);
    }
    out
}

pub fn rep(seed: u64, kind: RepKind, units: &Metrics, spans: &mut Spans) -> Rep {
    one_rep(
        kind,
        spans,
        |kind, s| match kind {
            RepKind::WarmUp => prepare(seed, &PROBE, false, s),
            RepKind::Plain => prepare(seed, &FULL, false, s),
            RepKind::Traced => prepare(seed, &FULL, true, s),
        },
        |cells, s| run_cells(cells, units, s),
    )
}
