//! `sched_micro`: `desim` alone, no network. Four cells isolate what every
//! simulated action pays for: the cross-thread hand-off, the timer wake, the
//! timer wheel at fleet depth, and thread create/run/teardown. It is the
//! bypass workload for every protocol-layer change: prediction, no move.
//!
//! The seed drives the values bounced by `pingpong` and a few nanoseconds of
//! jitter on every sleep, so virtual times differ slightly per seed while the
//! event counts stay fixed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use orca_panda::desim::{QueueStats, SimChannel, SimDuration, Simulation};

use crate::harness::{one_rep, Metrics, Rep, RepKind, RepOutcome, SplitMix};
use crate::spans::Spans;

/// Iteration counts of the four cells.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub pingpong_rounds: u64,
    pub sleepstorm_wakes: u64,
    pub timer_sleepers: u32,
    pub timer_wakes: u64,
    pub lifecycle_worlds: u32,
    pub lifecycle_threads: u32,
}

/// Calibrated so that every cell runs for at least 0.5 s on the 2-core
/// reference sandbox and a rep for about 2.5 s.
pub const FULL: Sizes = Sizes {
    pingpong_rounds: 2_500_000,
    sleepstorm_wakes: 10_000_000,
    timer_sleepers: 10_000,
    timer_wakes: 100,
    lifecycle_worlds: 60,
    lifecycle_threads: 1_000,
};

/// Probe-sized cells (about 50 ms each) for the other workloads' traced runs.
pub const PROBE: Sizes = Sizes {
    pingpong_rounds: 200_000,
    sleepstorm_wakes: 800_000,
    timer_sleepers: 10_000,
    timer_wakes: 8,
    lifecycle_worlds: 5,
    lifecycle_threads: 1_000,
};

/// What one cell observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cell {
    pub events: u64,
    /// Windows the windowed driver opened: none in a single-lane world.
    pub windows: u64,
    pub wall_ns: u64,
    pub virt_ns: u64,
    /// Operations checked and how many of them were wrong.
    pub ops: u64,
    pub bad: u64,
    pub queue: QueueStats,
}

impl Cell {
    /// Host nanoseconds per unit of `per`.
    pub fn ns_per(&self, per: u64) -> f64 {
        self.wall_ns as f64 / per.max(1) as f64
    }
}

/// A built world plus the counter its threads report wrong results into.
pub struct Built {
    sim: Simulation,
    bad: Arc<AtomicU64>,
    ops: u64,
}

fn finish(mut built: Built, what: &str) -> Cell {
    let t0 = Instant::now();
    let report = built
        .sim
        .run()
        .unwrap_or_else(|e| panic!("{what} failed: {e}"));
    Cell {
        wall_ns: t0.elapsed().as_nanos() as u64,
        events: report.events,
        windows: built.sim.window_stats().windows,
        virt_ns: report.final_time.as_nanos(),
        ops: built.ops,
        bad: built.bad.load(Ordering::Relaxed),
        queue: built.sim.queue_stats(),
    }
}

/// Two threads on two processors bouncing seed-derived values over a pair of
/// channels: every event is a scheduler hand-off. The pong side answers
/// `v ^ mask`; the ping side checks every answer.
pub fn build_pingpong(seed: u64, rounds: u64) -> Built {
    let mut sim = Simulation::new(seed);
    let p0 = sim.add_processor("p0");
    let p1 = sim.add_processor("p1");
    let ping: SimChannel<u64> = SimChannel::new();
    let pong: SimChannel<u64> = SimChannel::new();
    let bad = Arc::new(AtomicU64::new(0));
    let mask = SplitMix::stream(seed, 1).next();
    let (tx, rx, wrong) = (ping.clone(), pong.clone(), Arc::clone(&bad));
    let mut values = SplitMix::stream(seed, 2);
    sim.spawn(p0, "ping", move |ctx| {
        let mut errors = 0;
        for _ in 0..rounds {
            let v = values.next();
            tx.send(ctx, v).expect("pong is alive");
            if rx.recv(ctx) != Some(v ^ mask) {
                errors += 1;
            }
        }
        tx.close(ctx);
        wrong.fetch_add(errors, Ordering::Relaxed);
    });
    sim.spawn(p1, "pong", move |ctx| {
        while let Some(v) = ping.recv(ctx) {
            let _ = pong.send(ctx, v ^ mask);
        }
    });
    Built {
        sim,
        bad,
        ops: rounds,
    }
}

/// One thread sleeping `wakes` times for 10..18 ns: every event is a timer
/// wake of the same thread. Every wake checks the clock against the sum of
/// the sleeps so far.
pub fn build_sleepstorm(seed: u64, wakes: u64) -> Built {
    let mut sim = Simulation::new(seed);
    let p0 = sim.add_processor("p0");
    let bad = Arc::new(AtomicU64::new(0));
    let wrong = Arc::clone(&bad);
    let mut jitter = SplitMix::stream(seed, 3);
    sim.spawn(p0, "sleeper", move |ctx| {
        let (mut expect, mut errors) = (0u64, 0u64);
        for _ in 0..wakes {
            let d = 10 + (jitter.next() & 7);
            ctx.sleep(SimDuration::from_nanos(d));
            expect += d;
            errors += u64::from(ctx.now().as_nanos() != expect);
        }
        wrong.fetch_add(errors, Ordering::Relaxed);
    });
    Built {
        sim,
        bad,
        ops: wakes,
    }
}

/// `sleepers` threads each sleeping `wakes` times on distinct strides spread
/// over four decades (501..10_489 ns), so the far tier permanently holds
/// that many live timers across wheel slots and levels.
pub fn build_timers(seed: u64, sleepers: u32, wakes: u64) -> Built {
    let mut sim = Simulation::builder()
        .seed(seed)
        .expected_threads(sleepers as usize)
        .build();
    let bad = Arc::new(AtomicU64::new(0));
    let mut jitter = SplitMix::stream(seed, 4);
    for i in 0..sleepers {
        let proc = sim.add_processor(&format!("p{i}"));
        let stride = 501 + u64::from(i * 37 % 9973) + (jitter.next() & 15);
        let wrong = Arc::clone(&bad);
        sim.spawn(proc, &format!("t{i}"), move |ctx| {
            for _ in 0..wakes {
                ctx.sleep(SimDuration::from_nanos(stride));
            }
            if ctx.now().as_nanos() != stride * wakes {
                wrong.fetch_add(wakes, Ordering::Relaxed);
            }
        });
    }
    Built {
        sim,
        bad,
        ops: u64::from(sleepers) * wakes,
    }
}

/// Builds, runs and drops `worlds` worlds of `threads` short-lived threads
/// (one jittered sleep each). Build and teardown are the measured work, so
/// all of it sits in the timed section.
pub fn lifecycle(seed: u64, worlds: u32, threads: u32) -> Cell {
    let t0 = Instant::now();
    let mut cell = Cell::default();
    let done = Arc::new(AtomicU64::new(0));
    let mut jitter = SplitMix::stream(seed, 5);
    for w in 0..worlds {
        let mut sim = Simulation::builder()
            .seed(seed ^ u64::from(w))
            .expected_threads(threads as usize)
            .build();
        let proc = sim.add_processor("p");
        for i in 0..threads {
            let done = Arc::clone(&done);
            let nap = SimDuration::from_nanos(1_000 + (jitter.next() & 1023));
            sim.spawn(proc, &format!("t{i}"), move |ctx| {
                ctx.sleep(nap);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        let report = sim
            .run()
            .unwrap_or_else(|e| panic!("lifecycle world failed: {e}"));
        cell.events += report.events;
        cell.windows += sim.window_stats().windows;
        cell.virt_ns += report.final_time.as_nanos();
        cell.queue.merge(&sim.queue_stats());
    }
    cell.ops = u64::from(worlds) * u64::from(threads);
    cell.bad = cell.ops - done.load(Ordering::Relaxed).min(cell.ops);
    cell.wall_ns = t0.elapsed().as_nanos() as u64;
    cell
}

/// The three cells whose worlds are built in set-up.
pub struct Prepared {
    pingpong: Built,
    sleepstorm: Built,
    timers: Built,
}

pub fn prepare(seed: u64, sizes: &Sizes, spans: &mut Spans) -> Prepared {
    spans.scope("sched_micro.build_worlds", |_| Prepared {
        pingpong: build_pingpong(seed, sizes.pingpong_rounds),
        sleepstorm: build_sleepstorm(seed, sizes.sleepstorm_wakes),
        timers: build_timers(seed, sizes.timer_sleepers, sizes.timer_wakes),
    })
}

/// Runs the four cells and reports unit costs, event totals and checks.
pub fn run_cells(seed: u64, sizes: &Sizes, worlds: Prepared, spans: &mut Spans) -> RepOutcome {
    let pingpong = spans.scope("sim.run pingpong", |_| finish(worlds.pingpong, "pingpong"));
    let sleepstorm = spans.scope("sim.run sleepstorm", |_| {
        finish(worlds.sleepstorm, "sleepstorm")
    });
    let timers = spans.scope("sim.run timers10k", |_| finish(worlds.timers, "timers10k"));
    let life = spans.scope("lifecycle build+run+drop", |_| {
        lifecycle(seed, sizes.lifecycle_worlds, sizes.lifecycle_threads)
    });

    let mut out = RepOutcome::default();
    let mut queue = QueueStats::default();
    let (mut events, mut windows, mut wall_ns, mut virt_ns) = (0u64, 0u64, 0u64, 0u64);
    for (name, cell) in [
        ("pingpong", &pingpong),
        ("sleepstorm", &sleepstorm),
        ("timers10k", &timers),
        ("lifecycle", &life),
    ] {
        out.check(cell.ops, cell.bad, || {
            format!("{name}: {} of {} ops wrong", cell.bad, cell.ops)
        });
        events += cell.events;
        windows += cell.windows;
        wall_ns += cell.wall_ns;
        virt_ns += cell.virt_ns;
        queue.merge(&cell.queue);
    }
    out.exact.insert("virt_time_s".into(), virt_ns as f64 / 1e9);
    out.exact.insert("desim.events".into(), events as f64);
    out.exact
        .insert("desim.window.windows".into(), windows as f64);
    // No `Network` exists in this workload.
    out.exact.insert("ethernet.frames".into(), 0.0);
    queue_metrics(&queue, &mut out.exact);
    let t = &mut out.timed;
    t.insert("desim.ns_per_event".into(), wall_ns as f64 / events as f64);
    t.insert("desim.handoff_ns".into(), pingpong.ns_per(pingpong.events));
    t.insert(
        "desim.timer_wake_ns".into(),
        sleepstorm.ns_per(sleepstorm.events),
    );
    t.insert("desim.wheel_ns_10k".into(), timers.ns_per(timers.events));
    t.insert("desim.thread_lifecycle_ns".into(), life.ns_per(life.ops));
    out
}

/// `desim.queue.*` from a (merged) `QueueStats`.
pub fn queue_metrics(q: &QueueStats, into: &mut Metrics) {
    for (name, v) in [
        ("peak_depth", q.peak_depth),
        ("near_pushes", q.near_pushes),
        ("wheel_pushes", q.wheel_pushes),
        ("overflow_pushes", q.overflow_pushes),
        ("cascades", q.cascades),
    ] {
        into.insert(format!("desim.queue.{name}"), v as f64);
    }
}

pub fn rep(seed: u64, kind: RepKind, spans: &mut Spans) -> Rep {
    let sizes = |kind| {
        if kind == RepKind::WarmUp {
            &PROBE
        } else {
            &FULL
        }
    };
    one_rep(
        kind,
        spans,
        |kind, s| (sizes(kind), prepare(seed, sizes(kind), s)),
        |(sizes, worlds), s| run_cells(seed, sizes, worlds, s),
    )
}
