//! `orca_group` and `orca_rpc`: the paper's applications at paper scale on
//! both stacks. `orca_group` (ASP on 32 nodes, LEQ on 8) drives the Orca RTS
//! over totally ordered broadcast; `orca_rpc` (RL and SOR on 32 nodes) drives
//! the same RTS and switch the other way, by unicast RPC and continuations,
//! with zero broadcasts. A gain on one path must not move the other.
//!
//! The seed is each run's `RunConfig.seed` and generates the instances (graph,
//! linear system, image; SOR's grid is fixed by its boundary conditions).
//! The apps charge a fixed virtual cost per cell and iteration, so an
//! instance's content does not move RL's virtual time; as in the real
//! algorithm, where the image decides when labelling converges, the seed also
//! takes up to seven of RL's 1000 iterations away.
//! Every checksum must equal the sequential reference of the same instance
//! and agree across the two stacks.

use std::time::Instant;

use orca_panda::apps::{self, build_cluster, AppReport, ProtoImpl, RunConfig};

use crate::attrib;
use crate::harness::{one_rep, Metrics, Rep, RepKind, RepOutcome, SplitMix};
use crate::spans::Spans;
use crate::workloads::Stack;
use crate::workloads::WIRE_NS_PER_BYTE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Asp,
    Leq,
    Rl,
    Sor,
}

impl App {
    fn name(self) -> &'static str {
        match self {
            App::Asp => "asp",
            App::Leq => "leq",
            App::Rl => "rl",
            App::Sor => "sor",
        }
    }

    fn nodes(self) -> u32 {
        match self {
            App::Leq => 8,
            _ => 32,
        }
    }

    /// Table 3 at this node count, kernel then user, in seconds.
    fn paper_s(self) -> [f64; 2] {
        match self {
            App::Asp => [11.0, 11.0],
            App::Leq => [102.0, 113.0],
            App::Rl => [114.0, 108.0],
            App::Sor => [13.0, 11.0],
        }
    }
}

/// One app's generated instance at paper scale (or test scale for warm-up).
#[derive(Debug, Clone)]
enum Instance {
    Asp(apps::asp::AspParams),
    Leq(apps::leq::LeqParams),
    Rl(apps::rl::RlParams),
    Sor(apps::sor::SorParams),
}

impl Instance {
    fn generate(app: App, seed: u64, small: bool) -> Instance {
        fn at_scale<P>(small: bool, test_scale: fn() -> P, paper_scale: fn() -> P) -> P {
            if small {
                test_scale()
            } else {
                paper_scale()
            }
        }
        use apps::{asp::AspParams, leq::LeqParams, rl::RlParams, sor::SorParams};
        let instance_seed = SplitMix::stream(seed, 20 + app as u64).next();
        match app {
            App::Asp => Instance::Asp(AspParams {
                instance_seed,
                ..at_scale(small, AspParams::small, AspParams::paper)
            }),
            App::Leq => Instance::Leq(LeqParams {
                instance_seed,
                ..at_scale(small, LeqParams::small, LeqParams::paper)
            }),
            App::Rl => {
                let mut p = RlParams {
                    instance_seed,
                    ..at_scale(small, RlParams::small, RlParams::paper)
                };
                if !small {
                    p.iterations -= (instance_seed >> 32) as u32 % 8;
                }
                Instance::Rl(p)
            }
            App::Sor => Instance::Sor(at_scale(small, SorParams::small, SorParams::paper)),
        }
    }

    fn run(&self, cfg: &RunConfig) -> AppReport {
        match self {
            Instance::Asp(p) => apps::asp::run(cfg, p),
            Instance::Leq(p) => apps::leq::run(cfg, p),
            Instance::Rl(p) => apps::rl::run(cfg, p),
            Instance::Sor(p) => apps::sor::run(cfg, p),
        }
    }

    /// The answer a sequential solver gives for the same instance.
    fn reference(&self) -> i64 {
        match self {
            Instance::Asp(p) => {
                apps::asp::solve_sequential(&apps::asp::generate_graph(p.instance_seed, p.vertices))
            }
            Instance::Leq(p) => apps::leq::solve_sequential(p),
            Instance::Rl(p) => apps::rl::solve_sequential(p),
            Instance::Sor(p) => apps::sor::solve_sequential(p),
        }
    }

    /// Payload bytes of one remote operation (a pivot row, a vector slice, a
    /// boundary row), for the attribution model.
    fn remote_op_bytes(&self, nodes: u32) -> f64 {
        match self {
            Instance::Asp(p) => p.vertices as f64 * 4.0,
            Instance::Leq(p) => p.unknowns as f64 * 8.0 / f64::from(nodes),
            Instance::Rl(p) => p.size as f64 * 8.0,
            Instance::Sor(p) => p.size as f64 * 8.0,
        }
    }
}

fn implementation(stack: Stack) -> ProtoImpl {
    match stack {
        Stack::Kernel => ProtoImpl::KernelSpace,
        Stack::User => ProtoImpl::UserSpace,
    }
}

/// `asp-32k`, `leq-8u`, ...: app, nodes, first letter of the stack.
fn cell_name(app: App, stack: Stack) -> String {
    format!("{}-{}{}", app.name(), app.nodes(), &stack.side()[..1])
}

/// The pool wires eight machines per segment.
const PER_SEGMENT: u32 = 8;

/// Set-up of one rep: the instances, and a replica of every cell's world.
/// `apps::*::run` builds its cluster internally, inside the timed section, so
/// world construction is timed here on a second build that is then dropped.
fn prepare(apps: [App; 2], seed: u64, small: bool, spans: &mut Spans) -> ([Instance; 2], u64) {
    let instances = spans.scope("generate instances", |_| {
        apps.map(|app| Instance::generate(app, seed, small))
    });
    let mut multi_lane = 0;
    for app in apps {
        for stack in Stack::BOTH {
            let cfg = RunConfig::new(app.nodes(), implementation(stack), seed);
            let cluster = spans.scope("apps::build_cluster", |_| build_cluster(&cfg));
            // One lane means the classic serial loop: zero windows.
            multi_lane += u64::from(cluster.sim.lanes() != 1);
        }
    }
    (instances, multi_lane)
}

/// What the traced pass knows beyond the reps: the layer probes' unit costs
/// and the apps' own arithmetic.
struct Model<'a> {
    units: &'a Metrics,
    /// Host seconds of each app on one node, where nothing is sent. No
    /// simulator change can take a cell's host time below this floor.
    compute_floor_s: [f64; 2],
}

fn run_cells(
    apps: [App; 2],
    seed: u64,
    instances: &[Instance],
    references: Option<&[i64]>,
    multi_lane: u64,
    model: Option<&Model>,
    spans: &mut Spans,
) -> RepOutcome {
    let mut out = RepOutcome::default();
    let mut total = AppTotals::default();
    let mut errs = Vec::new();
    let mut explained_s = 0.0;
    out.check(4, multi_lane, || {
        format!("{multi_lane} cell worlds have more than one lane")
    });
    for (i, app) in apps.into_iter().enumerate() {
        let mut checksums = [0i64; 2];
        for stack in Stack::BOTH {
            let cell = cell_name(app, stack);
            let cfg = RunConfig::new(app.nodes(), implementation(stack), seed);
            let t0 = Instant::now();
            let report = spans.scope(&format!("apps::{}::run {cell}", app.name()), |_| {
                instances[i].run(&cfg)
            });
            let wall_s = t0.elapsed().as_secs_f64();
            checksums[stack as usize] = report.checksum;

            let remote = report.rts.rpcs + report.rts.broadcasts;
            let wrong = references.is_some_and(|r| r[i] != report.checksum);
            out.check(remote, if wrong { remote } else { 0 }, || {
                format!("{cell}: checksum differs from the sequential reference")
            });
            let virt_s = report.elapsed.as_secs_f64();
            let paper_s = app.paper_s()[stack as usize];
            errs.push((virt_s - paper_s).abs() / paper_s);
            out.timed.insert(format!("apps.cell.{cell}.wall_s"), wall_s);
            out.exact.insert(format!("apps.cell.{cell}.virt_s"), virt_s);
            total.add(&report, wall_s, app.nodes().div_ceil(PER_SEGMENT));

            if let Some(m) = model {
                let bytes = instances[i].remote_op_bytes(app.nodes());
                let rpc_us = attrib::op_cost_us(m.units, stack, "rpc", bytes);
                // A broadcast also pays one fan-out delivery per fragment at
                // every member beyond the two of the unit-cost cell.
                let group_us = attrib::op_cost_us(m.units, stack, "group", bytes)
                    + attrib::fragments(bytes)
                        * f64::from(app.nodes() - 2)
                        * m.units["ethernet.fanout_ns_per_delivery"]
                        / 1e3;
                explained_s += m.compute_floor_s[i]
                    + (report.rts.rpcs as f64 * rpc_us + report.rts.broadcasts as f64 * group_us)
                        / 1e6;
            }
        }
        out.check(1, u64::from(checksums[0] != checksums[1]), || {
            format!("{}: kernel and user checksums differ", app.name())
        });
    }
    total.report(&mut out);
    out.exact.insert(
        "virt_paper_err_pct".into(),
        100.0 * errs.iter().sum::<f64>() / errs.len() as f64,
    );
    if let Some(m) = model {
        let floor: f64 = 2.0 * m.compute_floor_s.iter().sum::<f64>();
        let remote = (total.rts.rpcs + total.rts.broadcasts) as f64;
        out.timed.insert("apps.compute_s".into(), floor);
        out.timed.insert(
            "orca.host_us_per_remote_op".into(),
            (total.wall_s - floor) * 1e6 / remote,
        );
        out.timed.insert(
            "attrib.residual_pct".into(),
            attrib::residual_pct(total.wall_s, explained_s),
        );
    }
    out
}

/// Sums over a workload's cells.
#[derive(Debug, Default)]
struct AppTotals {
    wall_s: f64,
    virt_s: f64,
    /// Virtual seconds x segments: the denominator of mean utilisation.
    segment_s: f64,
    frames: u64,
    wire_bytes: u64,
    rts: orca_panda::orca::RtsStats,
}

impl AppTotals {
    fn add(&mut self, r: &AppReport, wall_s: f64, segments: u32) {
        self.wall_s += wall_s;
        self.virt_s += r.elapsed.as_secs_f64();
        self.segment_s += r.elapsed.as_secs_f64() * f64::from(segments);
        self.frames += r.frames;
        self.wire_bytes += r.wire_bytes;
        self.rts.local_ops += r.rts.local_ops;
        self.rts.rpcs += r.rts.rpcs;
        self.rts.broadcasts += r.rts.broadcasts;
        self.rts.continuations_queued += r.rts.continuations_queued;
        self.rts.continuations_resumed += r.rts.continuations_resumed;
    }

    fn report(&self, out: &mut RepOutcome) {
        let e = &mut out.exact;
        e.insert("virt_time_s".into(), self.virt_s);
        // `AppReport` carries no window stats; the replica worlds of the
        // set-up are checked to be single-lane, and those open no window.
        e.insert("desim.window.windows".into(), 0.0);
        e.insert("ethernet.frames".into(), self.frames as f64);
        e.insert("ethernet.wire_bytes".into(), self.wire_bytes as f64);
        // `AppReport` carries no per-segment busy time: the mean over the
        // pool's segments, from the bytes carried at 10 Mbit/s.
        e.insert(
            "ethernet.seg_util_pct".into(),
            100.0 * self.wire_bytes as f64 * WIRE_NS_PER_BYTE / 1e9 / self.segment_s,
        );
        e.insert("orca.ops_local".into(), self.rts.local_ops as f64);
        e.insert("orca.rpcs".into(), self.rts.rpcs as f64);
        e.insert("orca.broadcasts".into(), self.rts.broadcasts as f64);
        e.insert(
            "orca.continuations_queued".into(),
            self.rts.continuations_queued as f64,
        );
        e.insert(
            "orca.continuations_resumed".into(),
            self.rts.continuations_resumed as f64,
        );
        out.timed.insert(
            "ethernet.host_ns_per_frame".into(),
            self.wall_s * 1e9 / self.frames as f64,
        );
    }
}

fn rep(apps: [App; 2], seed: u64, kind: RepKind, units: &Metrics, spans: &mut Spans) -> Rep {
    let full = apps.map(|app| Instance::generate(app, seed, false));
    let references: Vec<i64> = spans.scope("solve_sequential references", |_| {
        full.iter().map(Instance::reference).collect()
    });
    let model = (!units.is_empty()).then(|| Model {
        units,
        compute_floor_s: [0, 1].map(|i| {
            let cfg = RunConfig::new(1, ProtoImpl::KernelSpace, seed);
            let t0 = Instant::now();
            spans.scope(&format!("apps::{}::run 1 node", apps[i].name()), |_| {
                full[i].run(&cfg)
            });
            t0.elapsed().as_secs_f64()
        }),
    });
    one_rep(
        kind,
        spans,
        |kind, s| (kind, prepare(apps, seed, kind == RepKind::WarmUp, s)),
        |(kind, (instances, multi_lane)), s| {
            // The warm-up runs test-scale instances, whose answers are not
            // the references'.
            let refs = (kind != RepKind::WarmUp).then_some(references.as_slice());
            run_cells(apps, seed, &instances, refs, multi_lane, model.as_ref(), s)
        },
    )
}

pub fn rep_group(seed: u64, kind: RepKind, units: &Metrics, spans: &mut Spans) -> Rep {
    rep([App::Asp, App::Leq], seed, kind, units, spans)
}

pub fn rep_rpc(seed: u64, kind: RepKind, units: &Metrics, spans: &mut Spans) -> Rep {
    rep([App::Rl, App::Sor], seed, kind, units, spans)
}
