//! The paper instrument: the paper's own numbers (Tables 1–3 and the
//! Section 4 accounting) and one runner per paper world. Each runner
//! returns structured rows so tests can assert the shapes and the `paper`
//! bench (`cargo bench -p apps --bench paper`) can render them into
//! EXPERIMENTS.md (see [`splice`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amoeba::CostModel;
use bytes::Bytes;
use desim::par::par_map;
use desim::trace::{Layer, Phase, TraceEvent};
use desim::{Ctx, SimChannel, SimDuration, SimTime, Simulation};
use ethernet::TopologySpec;
use panda::world::{boot, build_stack, Stack};
use panda::{Module, NodeId, PandaConfig, PandaHeader, SysLayer};

use crate::{ab, asp, leq, rl, sor, tsp, AppReport, ProtoImpl, RunConfig};

/// Message sizes of Table 1 (bytes).
pub const TABLE1_SIZES: [usize; 5] = [0, 1024, 2048, 3072, 4096];

/// Measured calls, sends or ping-pong rounds per Table 1 cell (the RPC
/// and group cells after one warmup).
pub const TABLE1_ITERS: u64 = 40;

/// Parses `--jobs N` out of the bench's arguments (without the program
/// name), defaulting to `0` (one worker per core). Other arguments are
/// ignored, because `cargo bench` passes `--bench`.
///
/// # Panics
///
/// When `--jobs` is not followed by a number, so that a typo cannot turn
/// into "every core".
pub fn jobs_from_args(args: impl IntoIterator<Item = String>) -> usize {
    let mut args = args.into_iter();
    let mut jobs = 0;
    while let Some(a) = args.next() {
        if a == "--jobs" {
            let value = args.next().unwrap_or_default();
            jobs = value.parse().unwrap_or_else(|_| {
                panic!("--jobs {value:?}: the accepted form is `--jobs N`, N >= 0 (0 = per core)")
            });
        }
    }
    jobs
}

/// Replaces the body between `<!-- paper:NAME -->` and `<!-- /paper:NAME -->`
/// in `doc` with `body`, each marker kept on its own line.
///
/// # Panics
///
/// When either marker is missing or they are out of order: a block the
/// document does not hold would otherwise never be checked.
pub fn splice(doc: &str, name: &str, body: &str) -> String {
    let open = format!("<!-- paper:{name} -->\n");
    let close = format!("<!-- /paper:{name} -->");
    let (Some(start), Some(end)) = (doc.find(&open), doc.find(&close)) else {
        panic!("the document lacks the `<!-- paper:{name} -->` or the `{close}` marker");
    };
    let start = start + open.len();
    assert!(start <= end, "`{close}` precedes its opening marker");
    format!("{}{}\n{}", &doc[..start], body.trim_end(), &doc[end..])
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
    let sys0 = SysLayer::start(&mut sim, &world.machines[0], 0, true);
    let sys1 = SysLayer::start(&mut sim, &world.machines[1], 1, true);
    let iters = TABLE1_ITERS;
    let payload = Bytes::from(vec![0u8; size]);
    let done: SimChannel<u64> = SimChannel::new();
    // One message of the ping-pong from node `1 - to` to node `to`.
    let ping = move |sys: &SysLayer, ctx: &Ctx, to: NodeId, msg_id: u64| {
        let header = PandaHeader {
            module: Module::Rpc,
            kind: 0,
            src: 1 - to,
            msg_id,
            a: 0,
            b: 0,
        };
        if multicast {
            sys.send_group(ctx, header, &payload, true);
        } else {
            sys.send(ctx, to, header, &payload);
        }
    };

    // Pong side: echo from within the upcall.
    let (pong_sys, pong) = (Arc::clone(&sys1), ping.clone());
    sys1.set_rpc_upcall(Arc::new(move |ctx, header, _body| {
        if header.src != 0 {
            return; // ignore our own multicast loopback
        }
        pong(&pong_sys, ctx, 0, header.msg_id);
    }));
    // Ping side: on receipt, send the next one; count rounds.
    let rounds = AtomicU64::new(0);
    let (ping_sys, next) = (Arc::clone(&sys0), ping.clone());
    let done_tx = done.clone();
    sys0.set_rpc_upcall(Arc::new(move |ctx, header, _body| {
        if header.src != 1 {
            return; // ignore our own multicast loopback
        }
        let n = rounds.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= iters {
            let _ = done_tx.send(ctx, n);
            return;
        }
        next(&ping_sys, ctx, 1, n);
    }));
    let h = sim.spawn(world.machines[0].proc(), "driver", move |ctx| {
        ping(&sys0, ctx, 1, 0);
        let _ = done.recv(ctx);
    });
    sim.run_until_finished(&h).expect("ping-pong completes");
    // Each round is two one-way messages.
    SimDuration::from_nanos(sim.now().as_nanos() / (iters * 2))
}

/// Measures Panda RPC latency: requests of `size` bytes, empty replies,
/// reply sent from within the upcall (Table 1, RPC columns).
pub fn rpc_latency(size: usize, stack: Stack, cost: &CostModel) -> SimDuration {
    rpc_world(size, stack, cost, None, TABLE1_ITERS, 43).0 / TABLE1_ITERS
}

/// The Table 1 RPC world, seeded with `seed` and traced with a ring of
/// `trace` events when it is `Some` (0: counters only): a route warmup,
/// then `iters` measured calls. Returns the total measured time and the
/// simulation, for its trace.
pub fn rpc_world(
    size: usize,
    stack: Stack,
    cost: &CostModel,
    trace: Option<usize>,
    iters: u64,
    seed: u64,
) -> (SimDuration, Simulation) {
    let mut sim = Simulation::new(seed);
    if let Some(cap) = trace {
        sim.enable_tracing_with_capacity(cap);
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
        out.store((ctx.now() - t0).as_nanos(), Ordering::SeqCst);
    });
    sim.run_until_finished(&h).expect("rpc bench completes");
    (SimDuration::from_nanos(elapsed.load(Ordering::SeqCst)), sim)
}

/// Measures group latency: a 2-member group, the sender waits for its own
/// message back from the sequencer on the *other* machine (Table 1, group
/// columns).
pub fn group_latency(size: usize, stack: Stack, cost: &CostModel) -> SimDuration {
    group_world(size, stack, cost, false, TABLE1_ITERS).0
}

/// The Table 1 group world, traced when `trace`: a warmup send, then
/// `iters` measured sends. Returns the mean latency and the simulation, for
/// its trace.
pub fn group_world(
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

/// Produces the full reproduced Table 1 on up to `jobs` worker threads
/// (`0` = auto). Each of the 30 cells is an independent simulation, so
/// they fan out over [`desim::par::par_map`] and are reassembled in table
/// order — the rows are identical to a serial run for any job count.
pub fn table1(cost: &CostModel, jobs: usize) -> Vec<Table1Row> {
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

/// RPC throughput: back-to-back 8000-byte requests with empty replies, in
/// the Table 1 RPC world.
fn rpc_throughput(stack: Stack, cost: &CostModel) -> f64 {
    const ITERS: u64 = 30;
    const SIZE: usize = 8000;
    let (elapsed, _) = rpc_world(SIZE, stack, cost, None, ITERS, 45);
    let secs = elapsed.as_nanos() as f64 / 1e9;
    (ITERS as usize * SIZE) as f64 / 1024.0 / secs
}

/// Group throughput: several members stream 8000-byte messages in parallel;
/// reported as ordered payload bytes delivered per second at one member.
fn group_throughput(stack: Stack, cost: &CostModel) -> f64 {
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

/// Produces the reproduced Table 2 on up to `jobs` worker threads (`0` =
/// auto); the four measurements are independent simulations (see
/// [`table1`]).
pub fn table2(cost: &CostModel, jobs: usize) -> Table2Row {
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

// ---------------------------------------------------------------------------
// Trace capture and the Section 4 latency budget
// ---------------------------------------------------------------------------

/// One mechanism of the paper's Section 4.2/4.3 accounting of what the
/// user-space protocols pay over the kernel-space ones.
#[derive(Debug, Clone, Copy)]
pub struct Mechanism {
    /// The mechanism, as the paper names it.
    pub name: &'static str,
    /// The paper's share of the null-RPC gap (µs), if it gives one.
    pub rpc_us: Option<f64>,
    /// The paper's share of the null-group gap (µs), if it gives one.
    pub group_us: Option<f64>,
    /// The [`derive_budget`] terms that charge this mechanism.
    pub terms: &'static [&'static str],
    /// Zeroes the cost-model fields that price this mechanism.
    pub zero: fn(&mut CostModel),
}

/// The paper's Section 4 accounting, the one copy of its µs figures.
pub const PAPER_SECTION4: [Mechanism; 5] = [
    Mechanism {
        name: "context switches",
        rpc_us: Some(140.0),
        group_us: Some(110.0),
        terms: &["switch"],
        zero: |c| {
            c.context_switch = SimDuration::ZERO;
            c.sequencer_thread_switch = SimDuration::ZERO;
            c.sequencer_thread_switch_dedicated = SimDuration::ZERO;
        },
    },
    Mechanism {
        name: "window traps + crossings",
        rpc_us: Some(50.0),
        group_us: Some(50.0),
        terms: &["syscall", "window_trap"],
        zero: |c| {
            c.window_trap = SimDuration::ZERO;
            c.syscall_enter = SimDuration::ZERO;
        },
    },
    Mechanism {
        name: "double fragmentation",
        rpc_us: Some(40.0),
        group_us: Some(20.0),
        terms: &["fragmentation_layer"],
        zero: |c| c.fragmentation_layer = SimDuration::ZERO,
    },
    Mechanism {
        name: "untuned user FLIP interface",
        rpc_us: Some(54.0),
        group_us: Some(30.0),
        terms: &["flip_user_interface"],
        zero: |c| c.flip_user_interface = SimDuration::ZERO,
    },
    Mechanism {
        name: "user/kernel copies",
        rpc_us: None,
        group_us: Some(30.0),
        terms: &["copy"],
        zero: |c| c.copy_byte = SimDuration::ZERO,
    },
];

/// The paper's total user − kernel gap (µs): `(null RPC, null group send)`.
pub const PAPER_SECTION4_GAP_US: (f64, f64) = (290.0, 230.0);

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
    let (_, sim) = rpc_world(size, stack, cost, Some(1 << 20), iters.max(1), 43);
    trace_run(sim, rpc_span)
}

/// Runs the Table 1 group workload with tracing enabled and returns the
/// trace together with the latency of the last send: [`group_latency`]'s
/// world (sequencer on the *other* machine), just fewer iterations.
pub fn group_trace(size: usize, stack: Stack, cost: &CostModel, iters: u64) -> RpcTraceRun {
    let (_, sim) = group_world(size, stack, cost, true, iters.max(1));
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

// ---------------------------------------------------------------------------
// Table 3: the application suite
// ---------------------------------------------------------------------------

/// Workload scale for the application table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale workloads (minutes of virtual time; slowest to simulate).
    Paper,
    /// Reduced workloads for the smoke tests (`tests/paper_claims.rs`).
    Small,
}

impl Scale {
    /// The application parameters at this scale.
    fn pick<P>(self, paper: fn() -> P, small: fn() -> P) -> P {
        match self {
            Scale::Paper => paper(),
            Scale::Small => small(),
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
    match app {
        "tsp" => tsp::run(
            &cfg,
            &scale.pick(tsp::TspParams::paper, tsp::TspParams::small),
        ),
        "asp" => asp::run(
            &cfg,
            &scale.pick(asp::AspParams::paper, asp::AspParams::small),
        ),
        "ab" => ab::run(&cfg, &scale.pick(ab::AbParams::paper, ab::AbParams::small)),
        "rl" => rl::run(&cfg, &scale.pick(rl::RlParams::paper, rl::RlParams::small)),
        "sor" => sor::run(
            &cfg,
            &scale.pick(sor::SorParams::paper, sor::SorParams::small),
        ),
        "leq" => leq::run(
            &cfg,
            &scale.pick(leq::LeqParams::paper, leq::LeqParams::small),
        ),
        _ => panic!("unknown application {app}"),
    }
}

#[cfg(test)]
mod tests {
    use super::{jobs_from_args, splice};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn jobs_parse_a_number_and_panic_on_typos() {
        assert_eq!(jobs_from_args(args("")), 0);
        assert_eq!(jobs_from_args(args("--bench")), 0);
        assert_eq!(jobs_from_args(args("--jobs 2 --bench")), 2);
        assert_eq!(jobs_from_args(args("--bench --jobs 0")), 0);
        for typo in ["--jobs two", "--jobs", "--jobs -1", "--jobs 2x --bench"] {
            let err = std::panic::catch_unwind(|| jobs_from_args(args(typo))).expect_err(typo);
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("`--jobs N`"), "{msg}");
        }
    }

    #[test]
    fn splice_rewrites_one_block_and_panics_without_its_markers() {
        let doc = "a\n<!-- paper:x -->\nold\n<!-- /paper:x -->\nb\n";
        let new = splice(doc, "x", "new\n");
        assert_eq!(new, "a\n<!-- paper:x -->\nnew\n<!-- /paper:x -->\nb\n");
        assert_eq!(splice(&new, "x", "new"), new, "splicing is idempotent");
        for name in ["y", "paper"] {
            assert!(std::panic::catch_unwind(|| splice(doc, name, "z")).is_err());
        }
        let reversed = "<!-- /paper:x -->\n<!-- paper:x -->\n";
        assert!(std::panic::catch_unwind(|| splice(reversed, "x", "z")).is_err());
    }
}
