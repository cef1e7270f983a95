//! Measurement harnesses behind the `cargo bench` targets: each function
//! reproduces one table of the paper and returns structured rows so tests
//! can assert the shapes and the bench binaries can print them.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amoeba::CostModel;
use bytes::Bytes;
use desim::par::par_map;
use desim::trace::{Layer, Phase, TraceEvent};
use desim::{SimChannel, SimDuration, SimTime, Simulation};
use ethernet::TopologySpec;
use panda::world::{boot, build_stack, Stack};
use panda::{Module, PandaConfig, PandaHeader, SysLayer};

/// Message sizes of Table 1 (bytes).
pub const TABLE1_SIZES: [usize; 5] = [0, 1024, 2048, 3072, 4096];

/// Parses a `--jobs N` argument for the bench binaries, defaulting to `0`
/// (one worker per core). Cargo's bench runner passes extra flags through
/// (`cargo bench --bench X -- --jobs 4`); unknown arguments are ignored so
/// the harnesses stay compatible with `--bench`-style filters.
pub fn jobs_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            if let Some(n) = args.next().and_then(|s| s.parse().ok()) {
                return n;
            }
        }
    }
    0
}

/// One row of Table 1 (all values in milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Message size in bytes.
    pub size: usize,
    /// System-layer unicast latency (user space).
    pub unicast_user_ms: f64,
    /// System-layer multicast latency (user space).
    pub multicast_user_ms: f64,
    /// Panda RPC latency, user-space implementation.
    pub rpc_user_ms: f64,
    /// Panda RPC latency, kernel-space implementation.
    pub rpc_kernel_ms: f64,
    /// Group latency, user-space implementation.
    pub group_user_ms: f64,
    /// Group latency, kernel-space implementation.
    pub group_kernel_ms: f64,
}

/// The paper's Table 1 (for side-by-side printing).
pub const PAPER_TABLE1: [Table1Row; 5] = [
    Table1Row {
        size: 0,
        unicast_user_ms: 0.53,
        multicast_user_ms: 0.62,
        rpc_user_ms: 1.56,
        rpc_kernel_ms: 1.27,
        group_user_ms: 1.67,
        group_kernel_ms: 1.44,
    },
    Table1Row {
        size: 1024,
        unicast_user_ms: 1.50,
        multicast_user_ms: 1.58,
        rpc_user_ms: 2.53,
        rpc_kernel_ms: 2.23,
        group_user_ms: 3.59,
        group_kernel_ms: 3.38,
    },
    Table1Row {
        size: 2048,
        unicast_user_ms: 2.50,
        multicast_user_ms: 2.55,
        rpc_user_ms: 3.60,
        rpc_kernel_ms: 3.40,
        group_user_ms: 3.67,
        group_kernel_ms: 3.44,
    },
    Table1Row {
        size: 3072,
        unicast_user_ms: 3.72,
        multicast_user_ms: 3.74,
        rpc_user_ms: 4.77,
        rpc_kernel_ms: 4.48,
        group_user_ms: 4.84,
        group_kernel_ms: 4.56,
    },
    Table1Row {
        size: 4096,
        unicast_user_ms: 4.18,
        multicast_user_ms: 4.23,
        rpc_user_ms: 5.27,
        rpc_kernel_ms: 5.06,
        group_user_ms: 5.35,
        group_kernel_ms: 5.25,
    },
];

/// Measures the one-way latency of the Panda **system layer** primitives
/// (user space): a ping-pong where each side answers from within the
/// receive-daemon upcall, divided by two. `multicast` sends to the Panda
/// FLIP group instead of the peer endpoint.
pub fn system_layer_latency(size: usize, multicast: bool, cost: &CostModel) -> SimDuration {
    let mut sim = Simulation::new(42);
    let world = boot(&mut sim, &TopologySpec::flat(2, 2), cost.clone());
    let sys0 = SysLayer::start(&mut sim, &world.machines[0], 0);
    let sys1 = SysLayer::start(&mut sim, &world.machines[1], 1);
    let iters = 40u64;
    let payload = Bytes::from(vec![0u8; size]);
    let done: SimChannel<u64> = SimChannel::new();

    // Pong side: echo from within the upcall.
    let pong_sys = Arc::clone(&sys1);
    let pong_payload = payload.clone();
    sys1.set_rpc_upcall(Arc::new(move |ctx, header, _body| {
        if header.src != 0 {
            return; // ignore our own multicast loopback
        }
        let reply = PandaHeader {
            module: Module::Rpc,
            kind: 0,
            src: 1,
            msg_id: header.msg_id,
            a: 0,
            b: 0,
        };
        if multicast {
            pong_sys.send_group(ctx, reply, &pong_payload, true);
        } else {
            pong_sys.send(ctx, 0, reply, &pong_payload);
        }
    }));
    // Ping side: on receipt, send the next one; count rounds.
    let rounds = Arc::new(AtomicU64::new(0));
    let ping_sys = Arc::clone(&sys0);
    let ping_payload = payload.clone();
    let ping_rounds = Arc::clone(&rounds);
    let done_tx = done.clone();
    sys0.set_rpc_upcall(Arc::new(move |ctx, header, _body| {
        if header.src != 1 {
            return; // ignore our own multicast loopback
        }
        let n = ping_rounds.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= iters {
            let _ = done_tx.send(ctx, n);
            return;
        }
        let msg = PandaHeader {
            module: Module::Rpc,
            kind: 0,
            src: 0,
            msg_id: n,
            a: 0,
            b: 0,
        };
        if multicast {
            ping_sys.send_group(ctx, msg, &ping_payload, true);
        } else {
            ping_sys.send(ctx, 1, msg, &ping_payload);
        }
    }));
    let start_sys = Arc::clone(&sys0);
    let start_payload = payload;
    let h = sim.spawn(world.machines[0].proc(), "driver", move |ctx| {
        let msg = PandaHeader {
            module: Module::Rpc,
            kind: 0,
            src: 0,
            msg_id: 0,
            a: 0,
            b: 0,
        };
        if multicast {
            start_sys.send_group(ctx, msg, &start_payload, true);
        } else {
            start_sys.send(ctx, 1, msg, &start_payload);
        }
        let _ = done.recv(ctx);
    });
    sim.run_until_finished(&h).expect("ping-pong completes");
    // Each round is two one-way messages.
    SimDuration::from_nanos(sim.now().as_nanos() / (iters * 2))
}

/// Measures Panda RPC latency: requests of `size` bytes, empty replies,
/// reply sent from within the upcall (Table 1, RPC columns).
pub fn rpc_latency(size: usize, stack: Stack, cost: &CostModel) -> SimDuration {
    rpc_latency_inner(size, stack, cost, false, TABLE1_ITERS).0
}

/// [`rpc_latency`] with tracing enabled. Tracing is zero-cost in virtual
/// time, so this must return a bit-identical duration — the property the
/// zero-cost regression test asserts.
pub fn rpc_latency_traced(size: usize, stack: Stack, cost: &CostModel) -> SimDuration {
    rpc_latency_inner(size, stack, cost, true, TABLE1_ITERS).0
}

/// Measured calls (or sends) per Table 1 cell, after one warmup.
const TABLE1_ITERS: u64 = 40;

/// The Table 1 RPC world: a route warmup, then `iters` measured calls.
/// Returns the mean latency and the simulation, for its trace.
fn rpc_latency_inner(
    size: usize,
    stack: Stack,
    cost: &CostModel,
    trace: bool,
    iters: u64,
) -> (SimDuration, Simulation) {
    let mut sim = Simulation::new(43);
    if trace {
        sim.enable_tracing();
    }
    let n = stack.n_machines(2);
    let world = boot(&mut sim, &TopologySpec::flat(n, n), cost.clone());
    let nodes = build_stack(&mut sim, &world.machines, stack, &PandaConfig::default());
    let server = Arc::clone(&nodes[1]);
    let replier = Arc::clone(&nodes[1]);
    server.set_rpc_handler(Arc::new(move |ctx, _from, _req, ticket| {
        replier.reply(ctx, ticket, Bytes::new());
    }));
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
    let client = Arc::clone(&nodes[0]);
    let elapsed = Arc::new(AtomicU64::new(0));
    let out = Arc::clone(&elapsed);
    let h = sim.spawn(world.machines[0].proc(), "client", move |ctx| {
        let req = Bytes::from(vec![0u8; size]);
        // Warmup resolves FLIP routes.
        client.rpc(ctx, 1, req.clone()).expect("warmup");
        let t0 = ctx.now();
        for _ in 0..iters {
            client.rpc(ctx, 1, req.clone()).expect("rpc");
        }
        out.store((ctx.now() - t0).as_nanos() / iters, Ordering::SeqCst);
    });
    sim.run_until_finished(&h).expect("rpc bench completes");
    (SimDuration::from_nanos(elapsed.load(Ordering::SeqCst)), sim)
}

/// Measures group latency: a 2-member group, the sender waits for its own
/// message back from the sequencer on the *other* machine (Table 1, group
/// columns).
pub fn group_latency(size: usize, stack: Stack, cost: &CostModel) -> SimDuration {
    group_latency_inner(size, stack, cost, false, TABLE1_ITERS).0
}

/// [`group_latency`] with tracing enabled (see [`rpc_latency_traced`]).
pub fn group_latency_traced(size: usize, stack: Stack, cost: &CostModel) -> SimDuration {
    group_latency_inner(size, stack, cost, true, TABLE1_ITERS).0
}

/// The Table 1 group world: a warmup send, then `iters` measured sends.
/// Returns the mean latency and the simulation, for its trace.
fn group_latency_inner(
    size: usize,
    stack: Stack,
    cost: &CostModel,
    trace: bool,
    iters: u64,
) -> (SimDuration, Simulation) {
    let mut sim = Simulation::new(44);
    if trace {
        sim.enable_tracing();
    }
    let n = stack.n_machines(2);
    let world = boot(&mut sim, &TopologySpec::flat(n, n), cost.clone());
    // Sequencer on machine 1; sender on machine 0 (the paper's setup).
    let config = PandaConfig {
        sequencer_node: 1,
        ..PandaConfig::default()
    };
    let nodes = build_stack(&mut sim, &world.machines, stack, &config);
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
        n.set_rpc_handler(Arc::new(|_, _, _, _| {}));
    }
    let sender = Arc::clone(&nodes[0]);
    let elapsed = Arc::new(AtomicU64::new(0));
    let out = Arc::clone(&elapsed);
    let h = sim.spawn(world.machines[0].proc(), "sender", move |ctx| {
        let msg = Bytes::from(vec![0u8; size]);
        sender.group_send(ctx, msg.clone()).expect("warmup");
        let t0 = ctx.now();
        for _ in 0..iters {
            sender.group_send(ctx, msg.clone()).expect("send");
        }
        out.store((ctx.now() - t0).as_nanos() / iters, Ordering::SeqCst);
    });
    sim.run_until_finished(&h).expect("group bench completes");
    (SimDuration::from_nanos(elapsed.load(Ordering::SeqCst)), sim)
}

/// Produces the full reproduced Table 1 with the given cost model.
pub fn table1(cost: &CostModel) -> Vec<Table1Row> {
    table1_jobs(cost, 1)
}

/// [`table1`] on up to `jobs` worker threads (`0` = auto). Each of the 30
/// cells is an independent simulation, so they fan out over
/// [`desim::par::par_map`] and are reassembled in table order — the rows
/// are identical to a serial run for any job count.
pub fn table1_jobs(cost: &CostModel, jobs: usize) -> Vec<Table1Row> {
    const COLS: usize = 6;
    let cells = par_map(jobs, TABLE1_SIZES.len() * COLS, |i| {
        let size = TABLE1_SIZES[i / COLS];
        match i % COLS {
            0 => system_layer_latency(size, false, cost).as_millis_f64(),
            1 => system_layer_latency(size, true, cost).as_millis_f64(),
            2 => rpc_latency(size, Stack::User, cost).as_millis_f64(),
            3 => rpc_latency(size, Stack::Kernel, cost).as_millis_f64(),
            4 => group_latency(size, Stack::User, cost).as_millis_f64(),
            _ => group_latency(size, Stack::Kernel, cost).as_millis_f64(),
        }
    });
    TABLE1_SIZES
        .iter()
        .enumerate()
        .map(|(r, &size)| Table1Row {
            size,
            unicast_user_ms: cells[r * COLS],
            multicast_user_ms: cells[r * COLS + 1],
            rpc_user_ms: cells[r * COLS + 2],
            rpc_kernel_ms: cells[r * COLS + 3],
            group_user_ms: cells[r * COLS + 4],
            group_kernel_ms: cells[r * COLS + 5],
        })
        .collect()
}

/// One row of Table 2 (throughputs in KB/s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// RPC throughput, user-space.
    pub rpc_user_kbs: f64,
    /// RPC throughput, kernel-space.
    pub rpc_kernel_kbs: f64,
    /// Group throughput, user-space.
    pub group_user_kbs: f64,
    /// Group throughput, kernel-space.
    pub group_kernel_kbs: f64,
}

/// The paper's Table 2.
pub const PAPER_TABLE2: Table2Row = Table2Row {
    rpc_user_kbs: 825.0,
    rpc_kernel_kbs: 897.0,
    group_user_kbs: 941.0,
    group_kernel_kbs: 941.0,
};

/// RPC throughput: back-to-back 8000-byte requests with empty replies.
pub fn rpc_throughput(stack: Stack, cost: &CostModel) -> f64 {
    let mut sim = Simulation::new(45);
    let n = stack.n_machines(2);
    let world = boot(&mut sim, &TopologySpec::flat(n, n), cost.clone());
    let nodes = build_stack(&mut sim, &world.machines, stack, &PandaConfig::default());
    let replier = Arc::clone(&nodes[1]);
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, _r, t| {
        replier.reply(ctx, t, Bytes::new());
    }));
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
    let iters = 30u64;
    let size = 8000usize;
    let client = Arc::clone(&nodes[0]);
    let elapsed = Arc::new(AtomicU64::new(0));
    let out = Arc::clone(&elapsed);
    let h = sim.spawn(world.machines[0].proc(), "client", move |ctx| {
        let req = Bytes::from(vec![0u8; size]);
        client.rpc(ctx, 1, req.clone()).expect("warmup");
        let t0 = ctx.now();
        for _ in 0..iters {
            client.rpc(ctx, 1, req.clone()).expect("rpc");
        }
        out.store((ctx.now() - t0).as_nanos(), Ordering::SeqCst);
    });
    sim.run_until_finished(&h)
        .expect("throughput bench completes");
    let secs = elapsed.load(Ordering::SeqCst) as f64 / 1e9;
    (iters as usize * size) as f64 / 1024.0 / secs
}

/// Group throughput: several members stream 8000-byte messages in parallel;
/// reported as ordered payload bytes delivered per second at one member.
pub fn group_throughput(stack: Stack, cost: &CostModel) -> f64 {
    let mut sim = Simulation::new(46);
    let n = stack.n_machines(8);
    let world = boot(&mut sim, &TopologySpec::flat(n, n), cost.clone());
    let nodes = build_stack(&mut sim, &world.machines, stack, &PandaConfig::default());
    let size = 8000usize;
    let threads_per_node = 2u64;
    let per_sender = 6u64;
    let total = per_sender * threads_per_node * nodes.len() as u64;
    let delivered = Arc::new(AtomicU64::new(0));
    let last_delivery_ns = Arc::new(AtomicU64::new(0));
    for n in &nodes {
        let delivered = Arc::clone(&delivered);
        let last = Arc::clone(&last_delivery_ns);
        n.set_group_handler(Arc::new(move |ctx, _d| {
            delivered.fetch_add(1, Ordering::SeqCst);
            last.store(ctx.now().as_nanos(), Ordering::SeqCst);
        }));
        n.set_rpc_handler(Arc::new(|_, _, _, _| {}));
    }
    for n in nodes.iter() {
        for t in 0..threads_per_node {
            let n = Arc::clone(n);
            let proc = n.machine().proc();
            sim.spawn(proc, &format!("s{}-{t}", n.node()), move |ctx| {
                let msg = Bytes::from(vec![0u8; size]);
                for _ in 0..per_sender {
                    n.group_send(ctx, msg.clone()).expect("send");
                }
            });
        }
    }
    sim.run().expect("all senders and deliveries complete");
    let n_nodes = nodes.len() as u64;
    assert_eq!(delivered.load(Ordering::SeqCst), total * n_nodes);
    // Measure up to the last delivery: after the workload the protocol runs
    // a short housekeeping tail (status exchange) that is not throughput.
    let secs = last_delivery_ns.load(Ordering::SeqCst) as f64 / 1e9;
    (total as usize * size) as f64 / 1024.0 / secs
}

/// Produces the reproduced Table 2.
pub fn table2(cost: &CostModel) -> Table2Row {
    table2_jobs(cost, 1)
}

/// [`table2`] on up to `jobs` worker threads (`0` = auto); the four
/// measurements are independent simulations (see [`table1_jobs`]).
pub fn table2_jobs(cost: &CostModel, jobs: usize) -> Table2Row {
    let cells = par_map(jobs, 4, |i| match i {
        0 => rpc_throughput(Stack::User, cost),
        1 => rpc_throughput(Stack::Kernel, cost),
        2 => group_throughput(Stack::User, cost),
        _ => group_throughput(Stack::Kernel, cost),
    });
    Table2Row {
        rpc_user_kbs: cells[0],
        rpc_kernel_kbs: cells[1],
        group_user_kbs: cells[2],
        group_kernel_kbs: cells[3],
    }
}

/// Renders a Table 1 comparison (measured vs paper).
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str(
        "size     unicast      multicast    RPC user     RPC kernel   group user   group kernel\n",
    );
    s.push_str(
        "         sim  paper   sim  paper   sim  paper   sim  paper   sim  paper   sim  paper\n",
    );
    for (row, paper) in rows.iter().zip(PAPER_TABLE1.iter()) {
        s.push_str(&format!(
            "{:>4}Kb  {:>5.2} {:>5.2}  {:>5.2} {:>5.2}  {:>5.2} {:>5.2}  {:>5.2} {:>5.2}  {:>5.2} {:>5.2}  {:>5.2} {:>5.2}\n",
            row.size / 1024,
            row.unicast_user_ms, paper.unicast_user_ms,
            row.multicast_user_ms, paper.multicast_user_ms,
            row.rpc_user_ms, paper.rpc_user_ms,
            row.rpc_kernel_ms, paper.rpc_kernel_ms,
            row.group_user_ms, paper.group_user_ms,
            row.group_kernel_ms, paper.group_kernel_ms,
        ));
    }
    s
}

// ---------------------------------------------------------------------------
// Trace capture and the Section 4 latency budget
// ---------------------------------------------------------------------------

/// A traced RPC run: the full event stream, the virtual-time latency of the
/// last (post-warmup) call, and a chrome://tracing export of the whole run.
#[derive(Debug)]
pub struct RpcTraceRun {
    /// Every trace event of the run, in emission order.
    pub events: Vec<TraceEvent>,
    /// Latency of the measured call (from its `trans`/`call` span).
    pub latency: SimDuration,
    /// chrome://tracing JSON for the whole run (load via `about:tracing`).
    pub chrome_json: String,
}

/// Runs the Table 1 RPC workload with tracing enabled and returns the trace
/// together with the latency of the last call: [`rpc_latency`]'s world,
/// just fewer iterations (route warmup plus `iters` measured calls).
pub fn rpc_trace(size: usize, stack: Stack, cost: &CostModel, iters: u64) -> RpcTraceRun {
    let (_, sim) = rpc_latency_inner(size, stack, cost, true, iters.max(1));
    trace_run(sim, rpc_span)
}

/// Runs the Table 1 group workload with tracing enabled and returns the
/// trace together with the latency of the last send: [`group_latency`]'s
/// world (sequencer on the *other* machine), just fewer iterations.
pub fn group_trace(size: usize, stack: Stack, cost: &CostModel, iters: u64) -> RpcTraceRun {
    let (_, sim) = group_latency_inner(size, stack, cost, true, iters.max(1));
    trace_run(sim, group_span)
}

/// Exports a finished traced run; `span` finds the measured operation.
fn trace_run(
    mut sim: Simulation,
    span: fn(&[TraceEvent]) -> Option<(SimTime, SimTime)>,
) -> RpcTraceRun {
    let chrome_json = sim.chrome_trace_json();
    let events = sim.take_trace_events();
    let (begin, end) = span(&events).expect("traced run contains the measured span");
    RpcTraceRun {
        latency: end.saturating_duration_since(begin),
        events,
        chrome_json,
    }
}

/// The `[Begin, End]` window of the **last** sender-side `grp_send` span.
pub fn group_span(events: &[TraceEvent]) -> Option<(SimTime, SimTime)> {
    let end = events
        .iter()
        .rev()
        .find(|e| e.layer == Layer::Group && e.phase == Phase::End && e.name == "grp_send")?;
    let begin = events.iter().rev().find(|e| {
        e.layer == Layer::Group
            && e.phase == Phase::Begin
            && e.name == "grp_send"
            && e.thread == end.thread
            && e.time <= end.time
    })?;
    Some((begin.time, end.time))
}

/// The `[Begin, End]` window of the **last** client-side RPC span in
/// `events` (`trans` for the kernel stack, `call` for the user stack).
/// Returns `None` when no complete span is present.
pub fn rpc_span(events: &[TraceEvent]) -> Option<(SimTime, SimTime)> {
    let end = events
        .iter()
        .rev()
        .find(|e| e.layer == Layer::Rpc && e.phase == Phase::End && is_rpc_span_name(e.name))?;
    let begin = events.iter().rev().find(|e| {
        e.layer == Layer::Rpc
            && e.phase == Phase::Begin
            && is_rpc_span_name(e.name)
            && e.thread == end.thread
            && e.time <= end.time
    })?;
    Some((begin.time, end.time))
}

fn is_rpc_span_name(name: &str) -> bool {
    name == "trans" || name == "call"
}

/// One line of the derived latency budget: every nanosecond the simulation
/// charged under `name` inside the accounting window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetLine {
    /// Layer the cost was charged in.
    pub layer: Layer,
    /// Cost-model term (e.g. `syscall`, `kernel_packet_send`, `wire`).
    pub name: &'static str,
    /// Number of charges.
    pub count: u64,
    /// Total charged time.
    pub total: SimDuration,
}

/// Derives a latency budget from a trace: sums every event carrying an
/// `ns` argument (cost events, wire occupancy, context switches) whose
/// timestamp falls inside `[from, to]`, grouped by `(layer, name)`.
///
/// Applied to the window of one null RPC this reproduces the paper's
/// Section 4 microsecond accounting directly from the trace.
pub fn derive_budget(events: &[TraceEvent], from: SimTime, to: SimTime) -> Vec<BudgetLine> {
    let mut lines: Vec<BudgetLine> = Vec::new();
    for e in events {
        if e.time < from || e.time > to {
            continue;
        }
        let Some(ns) = e.args.get("ns") else { continue };
        match lines
            .iter_mut()
            .find(|l| l.layer == e.layer && l.name == e.name)
        {
            Some(line) => {
                line.count += 1;
                line.total += SimDuration::from_nanos(ns);
            }
            None => lines.push(BudgetLine {
                layer: e.layer,
                name: e.name,
                count: 1,
                total: SimDuration::from_nanos(ns),
            }),
        }
    }
    lines.sort_by(|a, b| b.total.cmp(&a.total).then(a.name.cmp(b.name)));
    lines
}

/// Sum of all budget lines.
pub fn budget_total(lines: &[BudgetLine]) -> SimDuration {
    lines.iter().fold(SimDuration::ZERO, |acc, l| acc + l.total)
}

/// Renders the budget as an aligned table (µs, descending).
pub fn format_budget(lines: &[BudgetLine], latency: SimDuration) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<8} {:<22} {:>6} {:>10}\n",
        "layer", "term", "count", "us"
    ));
    for l in lines {
        s.push_str(&format!(
            "{:<8} {:<22} {:>6} {:>10.1}\n",
            l.layer.to_string(),
            l.name,
            l.count,
            l.total.as_micros_f64()
        ));
    }
    let total = budget_total(lines);
    s.push_str(&format!(
        "{:<8} {:<22} {:>6} {:>10.1}  (measured span: {:.1} us, accounted {:.1}%)\n",
        "",
        "total",
        "",
        total.as_micros_f64(),
        latency.as_micros_f64(),
        100.0 * total.as_nanos() as f64 / latency.as_nanos().max(1) as f64,
    ));
    s
}

// ---------------------------------------------------------------------------
// Table 3: the application suite
// ---------------------------------------------------------------------------

use apps::{AppReport, ProtoImpl, RunConfig};

/// Workload scale for the application table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale workloads (minutes of virtual time; slowest to simulate).
    Paper,
    /// Reduced workloads for smoke runs and CI.
    Small,
}

impl Scale {
    /// Reads `TABLE3_SCALE` from the environment (`paper` or `small`);
    /// `default` when it is unset.
    ///
    /// # Panics
    ///
    /// On any other value, so that a typo cannot turn a smoke pass into a
    /// paper-scale run.
    pub fn from_env(default: Scale) -> Scale {
        match std::env::var("TABLE3_SCALE") {
            Err(std::env::VarError::NotPresent) => default,
            value => Scale::parse(value.as_deref().unwrap_or("<not unicode>")),
        }
    }

    fn parse(value: &str) -> Scale {
        match value {
            "paper" => Scale::Paper,
            "small" => Scale::Small,
            other => panic!("TABLE3_SCALE={other:?}: the accepted values are `paper` and `small`"),
        }
    }
}

/// The application names of Table 3, in the paper's order.
pub const TABLE3_APPS: [&str; 6] = ["tsp", "asp", "ab", "rl", "sor", "leq"];

/// The paper's Table 3 execution times in seconds, indexed by
/// `(app, implementation, node count)`; `None` where the paper has no entry.
pub fn paper_table3(app: &str, imp: ProtoImpl, nodes: u32) -> Option<f64> {
    let (k, u, d): (&[f64; 4], &[f64; 4], Option<&[f64; 4]>) = match app {
        "tsp" => (&[790.0, 87.0, 44.0, 23.0], &[783.0, 92.0, 46.0, 24.0], None),
        "asp" => (&[213.0, 30.0, 17.0, 11.0], &[216.0, 31.0, 18.0, 11.0], None),
        "ab" => (
            &[565.0, 106.0, 78.0, 60.0],
            &[567.0, 106.0, 78.0, 59.0],
            None,
        ),
        "rl" => (
            &[759.0, 132.0, 115.0, 114.0],
            &[767.0, 133.0, 119.0, 108.0],
            None,
        ),
        "sor" => (&[118.0, 20.0, 14.0, 13.0], &[118.0, 19.0, 13.0, 11.0], None),
        "leq" => (
            &[521.0, 102.0, 91.0, 127.0],
            &[527.0, 113.0, 112.0, 164.0],
            Some(&[527.0, 116.0, 94.0, 128.0]),
        ),
        _ => return None,
    };
    let idx = match nodes {
        1 => 0,
        8 => 1,
        16 => 2,
        32 => 3,
        _ => return None,
    };
    match imp {
        ProtoImpl::KernelSpace => Some(k[idx]),
        ProtoImpl::UserSpace => Some(u[idx]),
        ProtoImpl::UserSpaceDedicated => d.map(|v| v[idx]),
    }
}

/// Runs one application at one configuration. For the dedicated-sequencer
/// rows the paper sacrifices one pool machine, so `nodes` processors means
/// `nodes - 1` workers plus the sequencer machine (at 1 processor the
/// configuration degenerates to plain user space).
pub fn run_app(app: &str, imp: ProtoImpl, nodes: u32, scale: Scale) -> AppReport {
    let (imp, workers) = match imp {
        ProtoImpl::UserSpaceDedicated if nodes > 1 => (ProtoImpl::UserSpaceDedicated, nodes - 1),
        ProtoImpl::UserSpaceDedicated => (ProtoImpl::UserSpace, nodes),
        other => (other, nodes),
    };
    let cfg = RunConfig::new(workers, imp, 0x7ab1e3);
    match (app, scale) {
        ("tsp", Scale::Paper) => apps::tsp::run(&cfg, &apps::tsp::TspParams::paper()),
        ("tsp", Scale::Small) => apps::tsp::run(&cfg, &apps::tsp::TspParams::small()),
        ("asp", Scale::Paper) => apps::asp::run(&cfg, &apps::asp::AspParams::paper()),
        ("asp", Scale::Small) => apps::asp::run(&cfg, &apps::asp::AspParams::small()),
        ("ab", Scale::Paper) => apps::ab::run(&cfg, &apps::ab::AbParams::paper()),
        ("ab", Scale::Small) => apps::ab::run(&cfg, &apps::ab::AbParams::small()),
        ("rl", Scale::Paper) => apps::rl::run(&cfg, &apps::rl::RlParams::paper()),
        ("rl", Scale::Small) => apps::rl::run(&cfg, &apps::rl::RlParams::small()),
        ("sor", Scale::Paper) => apps::sor::run(&cfg, &apps::sor::SorParams::paper()),
        ("sor", Scale::Small) => apps::sor::run(&cfg, &apps::sor::SorParams::small()),
        ("leq", Scale::Paper) => apps::leq::run(&cfg, &apps::leq::LeqParams::paper()),
        ("leq", Scale::Small) => apps::leq::run(&cfg, &apps::leq::LeqParams::small()),
        _ => panic!("unknown application {app}"),
    }
}

#[cfg(test)]
mod tests {
    use super::Scale;

    #[test]
    fn scale_accepts_two_names_and_panics_on_typos() {
        assert_eq!(Scale::parse("paper"), Scale::Paper);
        assert_eq!(Scale::parse("small"), Scale::Small);
        for typo in ["Small", "smal", "PAPER", "", " small"] {
            let err = std::panic::catch_unwind(|| Scale::parse(typo)).expect_err(typo);
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("`paper` and `small`"), "{msg}");
        }
    }
}
