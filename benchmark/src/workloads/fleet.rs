//! `fleet_kernel` and `fleet_user`: the scale-out path. 1024 machines, 16
//! servers, 8 scheduler lanes behind a switch tree, about 1000 independent
//! clients with exponential think time (mean 250 ms), a group broadcast every
//! 64th request. Each client waits for its reply before thinking again and
//! latency is timed from the send, so these are think-time clients, not an
//! open loop; the offered rate (about 4k ops per virtual second) is below the
//! knee. The kernel stack runs 6 virtual seconds, the user stack (about 7x
//! the events per op) runs 1.
//!
//! The seed is `FleetSpec.seed`: every client's think times and server picks.

use orca_panda::apps::fleet::{build_fleet, FleetReport, FleetSpec, FleetStack, FleetWorld};
use orca_panda::desim::{Backend, SimDuration};

use crate::attrib;
use crate::harness::{one_rep, Metrics, Rep, RepKind, RepOutcome};
use crate::host;
use crate::spans::Spans;
use crate::stats::percentile_supported;
use crate::workloads::sched_micro::queue_metrics;
use crate::workloads::Stack;
use crate::workloads::WIRE_NS_PER_BYTE;

const MACHINES: u32 = 1024;
const SERVERS: u32 = 16;
const LANES: u32 = 8;

pub fn spec(
    stack: Stack,
    seed: u64,
    machines: u32,
    lanes: u32,
    duration: SimDuration,
) -> FleetSpec {
    let fleet_stack = match stack {
        Stack::Kernel => FleetStack::Kernel,
        Stack::User => FleetStack::User,
    };
    let mut spec = FleetSpec::new(machines, SERVERS, fleet_stack);
    spec.lanes = lanes;
    spec.group_every = 64;
    spec.mean_think = SimDuration::from_millis(250);
    spec.duration = duration;
    spec.seed = seed;
    spec
}

fn duration(stack: Stack, kind: RepKind) -> SimDuration {
    // The warm-up boots the full world (that is what sizes the arenas) and
    // runs it briefly.
    match (stack, kind) {
        (Stack::Kernel, RepKind::WarmUp) => SimDuration::from_millis(500),
        (Stack::User, RepKind::WarmUp) => SimDuration::from_millis(100),
        (Stack::Kernel, _) => SimDuration::from_secs(6),
        (Stack::User, _) => SimDuration::from_secs(1),
    }
}

/// A booted fleet and what booting it cost.
struct Booted {
    world: FleetWorld,
    boot_s: f64,
    segments: f64,
    /// Virtual seconds during which the clients issue requests.
    issue_s: f64,
}

fn run_rep(stack: Stack, booted: Booted, units: &Metrics, spans: &mut Spans) -> RepOutcome {
    let t0 = std::time::Instant::now();
    let r: FleetReport = spans.scope("FleetWorld::run", |_| booted.world.run());
    let wall_s = t0.elapsed().as_secs_f64();

    let mut out = RepOutcome::default();
    out.check(r.ops + r.timeouts, r.timeouts, || {
        format!("{} RPCs exhausted every retransmission", r.timeouts)
    });
    out.check(r.group_sends + r.group_timeouts, r.group_timeouts, || {
        format!("{} group broadcasts timed out", r.group_timeouts)
    });
    out.check(1, u64::from(r.hist.count() != r.ops), || {
        format!(
            "histogram holds {} samples for {} ops",
            r.hist.count(),
            r.ops
        )
    });
    out.check(1, u64::from(!percentile_supported(0.99, r.ops)), || {
        format!("p99 of {} samples has fewer than ten beyond it", r.ops)
    });

    let elapsed_s = r.elapsed.as_secs_f64();
    let w = &r.window_stats;
    let e = &mut out.exact;
    // Neither the drain time (a housekeeping tail of seconds that varies by
    // a tenth between seeds) nor the mean latency (on the user stack one op
    // in a hundred takes seconds and owns the mean) says what the modelled
    // system needed for the work; the typical op's latency times the ops
    // done does.
    e.insert("virt_time_s".into(), r.p50().as_secs_f64() * r.ops as f64);
    e.insert("virt_p50_us".into(), r.p50().as_micros_f64());
    e.insert("virt_p99_us".into(), r.p99().as_micros_f64());
    // Over the issuing phase, not the drain tail `FleetReport::throughput`
    // divides by.
    e.insert("virt_ops_per_s".into(), r.ops as f64 / booted.issue_s);
    e.insert("desim.events".into(), r.sim_events as f64);
    queue_metrics(&r.queue_stats, e);
    e.insert("desim.window.windows".into(), w.windows as f64);
    e.insert(
        "desim.window.events_per_window".into(),
        w.events as f64 / w.windows.max(1) as f64,
    );
    e.insert("desim.window.flushes".into(), w.flushes as f64);
    e.insert(
        "desim.window.flushes_elided".into(),
        w.flushes_elided as f64,
    );
    e.insert("desim.window.lanes_skipped".into(), w.lanes_skipped as f64);
    e.insert("ethernet.frames".into(), r.frames as f64);
    e.insert("ethernet.wire_bytes".into(), r.wire_bytes as f64);
    // `FleetReport` carries no per-segment busy time: the mean over all
    // segments from the bytes carried, priced at the leaves' 10 Mbit/s (the
    // backbone runs ten times faster, so this is an upper estimate).
    e.insert(
        "ethernet.seg_util_pct".into(),
        100.0 * r.wire_bytes as f64 * WIRE_NS_PER_BYTE / 1e9 / (elapsed_s * booted.segments),
    );
    e.insert("apps.fleet.ops".into(), r.ops as f64);
    e.insert("apps.fleet.timeouts".into(), r.timeouts as f64);
    e.insert("apps.fleet.group_sends".into(), r.group_sends as f64);
    e.insert(
        "apps.fleet.events_per_op".into(),
        r.sim_events as f64 / r.ops.max(1) as f64,
    );

    let t = &mut out.timed;
    t.insert(
        "desim.ns_per_event".into(),
        wall_s * 1e9 / r.sim_events as f64,
    );
    t.insert(
        "ethernet.host_ns_per_frame".into(),
        wall_s * 1e9 / r.frames as f64,
    );
    t.insert(
        "apps.fleet.boot_us_per_machine".into(),
        booted.boot_s * 1e6 / f64::from(MACHINES),
    );
    if !units.is_empty() {
        // 128 B requests, 256 B replies, 32 B broadcasts: null-sized ops,
        // plus what the window engine adds to every event.
        let explained_s = (r.ops as f64 * attrib::op_cost_us(units, stack, "rpc", 128.0)
            + r.group_sends as f64 * attrib::op_cost_us(units, stack, "group", 32.0))
            / 1e6
            + r.sim_events as f64 * units["desim.window.overhead_ns_per_event"].max(0.0) / 1e9;
        t.insert(
            "attrib.residual_pct".into(),
            attrib::residual_pct(wall_s, explained_s),
        );
    }
    out
}

fn rep(stack: Stack, seed: u64, kind: RepKind, units: &Metrics, spans: &mut Spans) -> Rep {
    // Resident growth of a boot means something on the first boot of the
    // process only (the warm-up's: full machine count, short run), before
    // the allocator holds freed arenas.
    let mut first_boot_grew = None;
    let mut rep = one_rep(
        kind,
        spans,
        |kind, s| {
            let spec = spec(stack, seed, MACHINES, LANES, duration(stack, kind));
            let before = host::rss_bytes();
            let t0 = std::time::Instant::now();
            let world = s.scope("apps::fleet::build_fleet", |_| {
                build_fleet(&spec, Backend::default_backend(), 1)
            });
            let boot_s = t0.elapsed().as_secs_f64();
            first_boot_grew.get_or_insert_with(|| host::rss_bytes() - before);
            Booted {
                world,
                boot_s,
                segments: f64::from(spec.topology().n_leaves() + 1),
                issue_s: spec.duration.as_secs_f64(),
            }
        },
        |booted, s| run_rep(stack, booted, units, s),
    );
    rep.outcome.timed.insert(
        "apps.fleet.bytes_per_machine".into(),
        first_boot_grew.unwrap_or(0.0) / f64::from(MACHINES),
    );
    rep
}

pub fn rep_kernel(seed: u64, kind: RepKind, units: &Metrics, spans: &mut Spans) -> Rep {
    rep(Stack::Kernel, seed, kind, units, spans)
}

pub fn rep_user(seed: u64, kind: RepKind, units: &Metrics, spans: &mut Spans) -> Rep {
    rep(Stack::User, seed, kind, units, spans)
}
