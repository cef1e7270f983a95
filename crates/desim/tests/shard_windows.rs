//! Windowed parallel execution is observably identical to serial execution
//! of the same lane federation.
//!
//! Deterministic smoke tests pin the cross-link delivery semantics; the
//! proptest sweeps random topologies (lane counts, link delays — i.e.
//! random lookahead windows, thread programs) and asserts that every
//! observable — per-lane event pop order and every cross-lane receive (via
//! structured trace renders), per-lane final virtual clocks, event counts,
//! and reports — matches a serial (`shards(1)`) reference execution exactly.
//! Failures minimize through proptest's shrinking.

use desim::{us, LaneId, Layer, SimChannel, SimDuration, SimTime, Simulation, WindowStats};
use proptest::prelude::*;

/// Everything observable about one run, for exact comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Artifacts {
    per_lane_traces: Vec<Vec<String>>,
    per_lane_final_times: Vec<SimTime>,
    final_time: SimTime,
    events: u64,
    proc_names: Vec<String>,
    switches: Vec<u64>,
    /// Window-engine accounting with the wall-clock gate wait zeroed —
    /// window count, flush/elision split, and idle-lane skips are
    /// properties of the program and must not depend on the shard count.
    windows: WindowStats,
}

/// One lane's workload parameters (drawn by proptest, fixed per case).
#[derive(Debug, Clone)]
struct LaneSpec {
    /// Sender iterations.
    rounds: u64,
    /// Whether the sender computes (CPU model) in addition to sleeping.
    compute: bool,
}

/// Builds an `n`-lane ring — lane `i` sends to lane `(i+1) % n` through a
/// cross-link of delay `delays[i]` — runs it with the given shard count,
/// and captures every observable.
fn run_ring(seed: u64, specs: &[LaneSpec], delays_us: &[u64], shards: usize) -> Artifacts {
    let n = specs.len();
    let mut sim = Simulation::builder().seed(seed).shards(shards).build();
    sim.enable_tracing_with_capacity(1 << 16);

    let lanes: Vec<LaneId> = (0..n)
        .map(|i| if i == 0 { LaneId::ZERO } else { sim.add_lane() })
        .collect();
    let procs: Vec<_> = lanes
        .iter()
        .enumerate()
        .map(|(i, &l)| sim.add_processor_on(l, &format!("m{i}"), SimDuration::ZERO))
        .collect();
    let inboxes: Vec<SimChannel<u64>> = (0..n).map(|_| SimChannel::new()).collect();

    // Ring links (only meaningful with at least two lanes).
    let senders: Vec<_> = if n > 1 {
        (0..n)
            .map(|i| {
                let dst = (i + 1) % n;
                Some(sim.cross_link(
                    &format!("ring-{i}"),
                    us(delays_us[i]),
                    lanes[i],
                    lanes[dst],
                    inboxes[dst].clone(),
                ))
            })
            .collect()
    } else {
        vec![None]
    };

    let mut handles = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let tx = senders[i].clone();
        let spec = spec.clone();
        handles.push(sim.spawn(procs[i], &format!("sender-{i}"), move |ctx| {
            for round in 0..spec.rounds {
                ctx.sleep(us(1 + ctx.rand_range(50)));
                if spec.compute {
                    ctx.compute(us(1 + ctx.rand_range(10)));
                }
                if let Some(tx) = tx.as_ref() {
                    tx.send(ctx, (i as u64) << 32 | round);
                }
            }
        }));
        let inbox = inboxes[i].clone();
        sim.spawn_daemon(procs[i], &format!("recv-{i}"), move |ctx| {
            while let Some(v) = inbox.recv(ctx) {
                ctx.trace_instant(Layer::App, "got", &[("v", v)]);
            }
        });
    }

    let report = sim.run().expect("ring runs to completion");
    for h in &handles {
        assert!(h.is_finished());
    }
    let links = if n > 1 { n as u64 } else { 0 };
    assert_flush_accounting(&sim.window_stats(), links);
    if n == 1 {
        // One lane coordinates nothing: no window reaches the stats.
        assert_eq!(sim.window_stats(), WindowStats::default());
    }
    Artifacts {
        per_lane_traces: lanes
            .iter()
            .map(|&l| {
                sim.lane_trace_events(l)
                    .iter()
                    .map(|e| e.render())
                    .collect()
            })
            .collect(),
        per_lane_final_times: lanes.iter().map(|&l| sim.lane_now(l)).collect(),
        final_time: report.final_time,
        events: report.events,
        proc_names: sim.proc_names(),
        switches: report.procs.iter().map(|p| p.switches).collect(),
        windows: WindowStats {
            barrier_wait_ns: 0,
            ..sim.window_stats()
        },
    }
}

#[test]
fn cross_link_delivers_at_exactly_send_plus_delay() {
    for shards in [1, 2, 0] {
        let mut sim = Simulation::builder().seed(7).shards(shards).build();
        let l1 = sim.add_lane();
        let p0 = sim.add_processor("m0");
        let p1 = sim.add_processor_on(l1, "m1", SimDuration::ZERO);
        let inbox: SimChannel<u64> = SimChannel::new();
        let tx = sim.cross_link("l01", us(30), LaneId::ZERO, l1, inbox.clone());
        sim.spawn(p0, "src", move |ctx| {
            ctx.sleep(us(5));
            tx.send(ctx, 42);
            ctx.sleep(us(100));
            tx.send(ctx, 43);
        });
        let sink = sim.spawn(p1, "sink", move |ctx| {
            assert_eq!(inbox.recv(ctx), Some(42));
            assert_eq!(ctx.now(), SimTime::ZERO + us(5) + us(30));
            assert_eq!(inbox.recv(ctx), Some(43));
            assert_eq!(ctx.now(), SimTime::ZERO + us(105) + us(30));
        });
        sim.run_until_finished(&sink).expect("sink finishes");
        assert_eq!(sim.lookahead(), Some(us(30)));
    }
}

#[test]
fn independent_lanes_drain_in_one_unbounded_window() {
    for shards in [1, 2, 4] {
        let mut sim = Simulation::builder().seed(3).shards(shards).build();
        let l1 = sim.add_lane();
        let p0 = sim.add_processor("a");
        let p1 = sim.add_processor_on(l1, "b", SimDuration::ZERO);
        sim.spawn(p0, "ta", |ctx| ctx.sleep(us(10)));
        sim.spawn(p1, "tb", |ctx| ctx.sleep(us(25)));
        let report = sim.run().expect("independent lanes drain");
        assert_eq!(sim.lookahead(), None);
        assert_eq!(report.final_time, SimTime::ZERO + us(25));
        assert_eq!(sim.lane_now(LaneId::ZERO), SimTime::ZERO + us(10));
        assert_eq!(sim.lane_now(l1), SimTime::ZERO + us(25));
    }
}

/// A processor's id carries its lane: `Simulation::spawn`,
/// `Simulation::spawn_daemon` and `Ctx::spawn_on` all place the thread
/// there, so its sleep advances that lane's clock and no other.
#[test]
fn spawn_places_a_thread_on_its_processors_lane() {
    for shards in [1, 2] {
        let mut sim = Simulation::builder().seed(5).shards(shards).build();
        let l1 = sim.add_lane();
        let l2 = sim.add_lane();
        let p1 = sim.add_processor_on(l1, "m1", us(70));
        let p2 = sim.add_processor_on(l2, "m2", SimDuration::ZERO);
        assert_eq!((p1.lane(), p2.lane()), (l1, l2));
        let h = sim.spawn(p1, "sleeper", move |ctx| {
            assert_eq!(ctx.processor(), p1);
            ctx.sleep(us(40));
            // A sibling on the same lane's processor is legal.
            let kid = ctx.spawn_on(p1, "kid", |ctx| ctx.sleep(us(2)));
            kid.join(ctx);
        });
        sim.spawn_daemon(p2, "idler", |ctx| ctx.sleep(us(7)));
        sim.run().expect("lanes drain");
        assert!(h.is_finished());
        assert_eq!(sim.lane_now(LaneId::ZERO), SimTime::ZERO, "shards {shards}");
        assert_eq!(sim.lane_now(l1), SimTime::ZERO + us(42), "shards {shards}");
        assert_eq!(sim.lane_now(l2), SimTime::ZERO + us(7), "shards {shards}");
    }
}

/// A thread cannot spawn onto another lane's processor, even one whose
/// index names a processor of its own lane too: the spawn panics and names
/// both lanes instead of landing on the wrong processor.
#[test]
#[should_panic(expected = "p0 is a processor of lane1, but the spawning thread runs on lane0")]
fn spawn_on_another_lanes_processor_names_both_lanes() {
    let mut sim = Simulation::builder().shards(1).build();
    let l1 = sim.add_lane();
    let p0 = sim.add_processor("m0");
    let far = sim.add_processor_on(l1, "m1", SimDuration::ZERO);
    sim.spawn(p0, "parent", move |ctx| {
        ctx.spawn_on(far, "stray", |ctx| ctx.sleep(us(1)));
    });
    let _ = sim.run();
}

/// The panic message a run's unwind carries.
fn panic_message(run: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("the run must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => (*p.downcast::<&str>().expect("a string payload")).to_owned(),
    }
}

/// A channel serves one lane. Threads on two lanes running in parallel
/// must not both reach its queue: whichever lane comes second panics, and
/// the message names both lanes.
#[test]
fn a_channel_used_from_two_lanes_panics_naming_both() {
    let mut sim = Simulation::builder().shards(2).build();
    let l1 = sim.add_lane();
    let p0 = sim.add_processor("m0");
    let p1 = sim.add_processor_on(l1, "m1", SimDuration::ZERO);
    let ch: SimChannel<u32> = SimChannel::new();
    for (p, name) in [(p0, "left"), (p1, "right")] {
        let ch = ch.clone();
        sim.spawn(p, name, move |ctx| {
            for i in 0..100 {
                ch.send(ctx, i).expect("open");
                ctx.sleep(us(1));
            }
        });
    }
    let msg = panic_message(|| {
        let _ = sim.run();
    });
    assert!(msg.contains("SimChannel used from lane"), "{msg}");
    assert!(msg.contains("lane0") && msg.contains("lane1"), "{msg}");
}

/// `is_finished` reads only the thread's own flag, so a thread on another
/// lane may poll it while both lanes run in parallel. It sees the finish
/// within a window of when it happened (the link's 5 µs lookahead).
#[test]
fn is_finished_is_polled_from_another_lane() {
    let mut sim = Simulation::builder().shards(2).build();
    let l1 = sim.add_lane();
    let p0 = sim.add_processor("m0");
    let p1 = sim.add_processor_on(l1, "m1", SimDuration::ZERO);
    let idle: SimChannel<()> = SimChannel::new();
    let _link = sim.cross_link("window", us(5), LaneId::ZERO, l1, idle);
    let worker = sim.spawn(p0, "worker", |ctx| ctx.sleep(us(50)));
    let w = worker.clone();
    let poller = sim.spawn(p1, "poller", move |ctx| {
        while !w.is_finished() {
            ctx.sleep(us(1));
        }
        let seen = ctx.now();
        assert!(
            seen >= SimTime::ZERO + us(45) && seen <= SimTime::ZERO + us(60),
            "finish at 50 µs seen at {seen}"
        );
    });
    assert_eq!(sim.shards(), 2);
    sim.run_until_finished(&poller)
        .expect("the poller sees the finish");
    assert!(worker.is_finished());
}

/// A cross-lane join would queue a wake in another lane's state; it panics
/// in every build, release included, before touching that state.
#[test]
#[should_panic(expected = "cross-lane join: lane0 joins a thread of lane1")]
fn joining_a_thread_of_another_lane_panics() {
    let mut sim = Simulation::builder().shards(1).build();
    let l1 = sim.add_lane();
    let p0 = sim.add_processor("m0");
    let p1 = sim.add_processor_on(l1, "m1", SimDuration::ZERO);
    let far = sim.spawn(p1, "far", |ctx| ctx.sleep(us(1)));
    sim.spawn(p0, "joiner", move |ctx| far.join(ctx));
    let _ = sim.run();
}

#[test]
fn event_budget_stops_a_windowed_run() {
    for shards in [1, 2, 0] {
        let mut sim = Simulation::builder().seed(11).shards(shards).build();
        let l1 = sim.add_lane();
        let p0 = sim.add_processor("a");
        let p1 = sim.add_processor_on(l1, "b", SimDuration::ZERO);
        let inbox: SimChannel<u64> = SimChannel::new();
        let tx = sim.cross_link("x", us(10), LaneId::ZERO, l1, inbox.clone());
        sim.set_max_events(500);
        sim.spawn(p0, "spin", move |ctx| loop {
            ctx.sleep(us(1));
            tx.send(ctx, 0);
        });
        sim.spawn_daemon(p1, "drain", move |ctx| while inbox.recv(ctx).is_some() {});
        match sim.run() {
            Err(desim::SimError::EventLimitExceeded { limit }) => {
                assert_eq!(limit, 500, "shards {shards}")
            }
            other => panic!("expected EventLimitExceeded, got {other:?}"),
        }
    }
}

#[test]
fn two_lane_ring_is_shard_count_independent() {
    let specs = vec![
        LaneSpec {
            rounds: 40,
            compute: true,
        },
        LaneSpec {
            rounds: 25,
            compute: false,
        },
    ];
    let delays = vec![30, 45];
    let reference = run_ring(0xA5, &specs, &delays, 1);
    assert!(
        reference
            .per_lane_traces
            .iter()
            .flatten()
            .any(|l| l.contains("app/got")),
        "ring must actually deliver cross-lane traffic"
    );
    for shards in [2, 4, 0] {
        assert_eq!(reference, run_ring(0xA5, &specs, &delays, shards));
    }
}

#[test]
fn quiet_windows_elide_flush_work() {
    // Lane 0 fires one early burst at lane 1, then lane 1 grinds through a
    // long local program: every later window carries no cross traffic, so
    // its flush must be elided (its dirty bit stays clear) and drained lane 0
    // skipped without taking its state lock.
    let mut sim = Simulation::builder().seed(5).shards(2).build();
    let l1 = sim.add_lane();
    let p0 = sim.add_processor("m0");
    let p1 = sim.add_processor_on(l1, "m1", SimDuration::ZERO);
    let inbox: SimChannel<u64> = SimChannel::new();
    let tx = sim.cross_link("burst", us(10), LaneId::ZERO, l1, inbox.clone());
    sim.spawn(p0, "burst", move |ctx| {
        for i in 0..3 {
            tx.send(ctx, i);
        }
    });
    sim.spawn(p1, "grind", move |ctx| {
        for _ in 0..3 {
            inbox.recv(ctx);
        }
        for _ in 0..200 {
            ctx.sleep(us(3));
        }
    });
    sim.run().expect("burst run completes");
    let w = sim.window_stats();
    assert!(w.windows > 10, "the grind spans many windows: {w:?}");
    assert!(
        w.flushes_elided > w.flushes,
        "quiet windows dominate, so elisions must outnumber real flushes: {w:?}"
    );
    assert!(
        w.lanes_skipped > 0,
        "drained lane 0 must be skipped lock-free: {w:?}"
    );
    assert_eq!(w.events, sim.report().events);
}

/// Every window the driver runs one flush round over all links, plus the
/// closing round that finds the run over: each round flushes or elides
/// every registered link exactly once.
fn assert_flush_accounting(w: &WindowStats, links: u64) {
    assert_eq!(
        w.flushes + w.flushes_elided,
        (w.windows + 1) * links,
        "each flush round visits or elides every link once: {w:?}"
    );
}

/// Links registered by [`run_fan_in`]: three words of the dirty bitmap.
const FAN_IN_LINKS: u64 = 135;

/// Three sender lanes fan [`FAN_IN_LINKS`] links into one sink lane (link
/// `k` leaves lane `1 + k % 3`, so registration order interleaves the
/// senders). Every sender sends on all its links at one instant, in
/// *reverse* registration order, then on every seventh link at a second
/// instant. Returns every `(link, arrival instant)` the sink saw, in
/// arrival order, and the window counters.
fn run_fan_in(shards: usize) -> (Vec<(u64, SimTime)>, WindowStats) {
    let mut sim = Simulation::builder().seed(17).shards(shards).build();
    let senders: Vec<LaneId> = (0..3).map(|_| sim.add_lane()).collect();
    let sink_proc = sim.add_processor("sink");
    let procs: Vec<_> = senders
        .iter()
        .enumerate()
        .map(|(i, &l)| sim.add_processor_on(l, &format!("src{i}"), SimDuration::ZERO))
        .collect();
    let inbox: SimChannel<u64> = SimChannel::new();
    let mut per_lane: Vec<Vec<(u64, desim::XSender<u64>)>> = vec![Vec::new(); 3];
    for k in 0..FAN_IN_LINKS {
        let s = (k % 3) as usize;
        let tx = sim.cross_link(
            &format!("fan-{k}"),
            us(20),
            senders[s],
            LaneId::ZERO,
            inbox.clone(),
        );
        per_lane[s].push((k, tx));
    }
    for (s, links) in per_lane.into_iter().enumerate() {
        sim.spawn(procs[s], &format!("send{s}"), move |ctx| {
            ctx.sleep(us(5));
            for (k, tx) in links.iter().rev() {
                tx.send(ctx, *k);
            }
            ctx.sleep(us(100));
            for (k, tx) in links.iter().rev().filter(|(k, _)| k % 7 == 0) {
                tx.send(ctx, *k);
            }
        });
    }
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let log = std::sync::Arc::clone(&seen);
    sim.spawn_daemon(sink_proc, "sink", move |ctx| {
        while let Some(k) = inbox.recv(ctx) {
            log.lock().unwrap().push((k, ctx.now()));
        }
    });
    sim.run().expect("fan-in runs to completion");
    let arrivals = seen.lock().unwrap().clone();
    (
        arrivals,
        WindowStats {
            barrier_wait_ns: 0,
            ..sim.window_stats()
        },
    )
}

#[test]
fn same_instant_fan_in_arrives_in_link_registration_order() {
    let (arrivals, w) = run_fan_in(1);
    let burst = SimTime::ZERO + us(25);
    let late = SimTime::ZERO + us(125);
    let expected: Vec<(u64, SimTime)> = (0..FAN_IN_LINKS)
        .map(|k| (k, burst))
        .chain((0..FAN_IN_LINKS).filter(|k| k % 7 == 0).map(|k| (k, late)))
        .collect();
    assert_eq!(arrivals, expected);
    // Every link in the burst and every seventh in the second round, each
    // flushed once; no other flush.
    assert_eq!(w.flushes, FAN_IN_LINKS + FAN_IN_LINKS.div_ceil(7));
    assert_flush_accounting(&w, FAN_IN_LINKS);
    for shards in [2, 0] {
        assert_eq!(run_fan_in(shards), (arrivals.clone(), w), "shards {shards}");
    }
}

#[test]
fn trace_dropped_counts_every_lane() {
    for shards in [1, 2, 0] {
        // Lane 0 stays idle; lane 1 overflows its 8-event ring.
        let mut sim = Simulation::builder().seed(4).shards(shards).build();
        sim.enable_tracing_with_capacity(8);
        let l1 = sim.add_lane();
        let p1 = sim.add_processor_on(l1, "m1", SimDuration::ZERO);
        sim.spawn(p1, "chatty", |ctx| {
            for i in 0..100 {
                ctx.trace_instant(Layer::App, "tick", &[("i", i)]);
            }
        });
        sim.run().expect("chatty finishes");
        assert!(
            sim.trace_dropped() > 0,
            "shards {shards}: lane 1 evictions are counted"
        );
    }
}

#[test]
fn windowed_deadlock_names_the_lane() {
    let mut sim = Simulation::builder().seed(2).shards(2).build();
    let l1 = sim.add_lane();
    let p0 = sim.add_processor("m0");
    let p1 = sim.add_processor_on(l1, "m1", SimDuration::ZERO);
    let inbox: SimChannel<u64> = SimChannel::new();
    let tx = sim.cross_link("x", us(10), LaneId::ZERO, l1, inbox.clone());
    let never: SimChannel<u64> = SimChannel::new();
    sim.spawn(p0, "waiter", move |ctx| {
        tx.send(ctx, 1);
        let _ = never.recv(ctx); // nobody ever sends
    });
    sim.spawn(p1, "waiter", move |ctx| {
        assert_eq!(inbox.recv(ctx), Some(1));
        let _ = inbox.recv(ctx); // the only sender is stuck
    });
    match sim.run() {
        Err(desim::SimError::Deadlock { blocked }) => assert_eq!(
            blocked,
            vec![
                ("lane0/waiter".to_owned(), "chan.recv"),
                ("lane1/waiter".to_owned(), "chan.recv"),
            ]
        ),
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

fn lane_spec() -> impl Strategy<Value = LaneSpec> {
    (1u64..12, any::<bool>()).prop_map(|(rounds, compute)| LaneSpec { rounds, compute })
}

/// Like [`lane_spec`], but weighted toward fully idle lanes (no sender
/// rounds at all) so the idle-lane skip and flush-elision fast paths are on
/// the exercised path.
fn sparse_lane_spec() -> impl Strategy<Value = LaneSpec> {
    (0u64..12, any::<bool>(), any::<bool>()).prop_map(|(rounds, compute, idle)| LaneSpec {
        // Half the draws collapse to a fully idle lane regardless of the
        // rounds draw, so idle-heavy topologies are common, not rare.
        rounds: if idle { 0 } else { rounds },
        compute,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random topology (1–3 lanes), random lookahead (link delays), random
    /// per-lane programs: `shards=2` and `shards=auto` must reproduce the
    /// `shards=1` serial reference bit for bit.
    #[test]
    fn windowed_matches_serial_reference(
        seed in any::<u64>(),
        specs in proptest::collection::vec(lane_spec(), 1..4),
        delays in proptest::collection::vec(5u64..200, 3..4),
    ) {
        let delays = delays[..specs.len()].to_vec();
        let reference = run_ring(seed, &specs, &delays, 1);
        for shards in [2usize, 0] {
            let other = run_ring(seed, &specs, &delays, shards);
            prop_assert_eq!(&reference, &other);
        }
    }

    /// Topologies where lanes sit fully idle: the idle-lane skip and the
    /// dirty-bitmap flush elision must not change a single observable — every
    /// delivery instant, trace line, and clock matches the serial
    /// (`shards=1`) reference exactly, and the window-engine counters
    /// themselves are shard-count independent.
    #[test]
    fn idle_lanes_and_quiet_links_match_serial_reference(
        seed in any::<u64>(),
        specs in proptest::collection::vec(sparse_lane_spec(), 2..5),
        delays in proptest::collection::vec(5u64..200, 4..5),
    ) {
        let delays = delays[..specs.len()].to_vec();
        let reference = run_ring(seed, &specs, &delays, 1);
        for shards in [2usize, 0] {
            let other = run_ring(seed, &specs, &delays, shards);
            prop_assert_eq!(&reference, &other);
        }
        // An idle lane's outbound link never turns dirty, so with at least
        // one idle lane every window must elide at least one flush.
        if specs.iter().any(|s| s.rounds == 0) {
            prop_assert!(
                reference.windows.flushes_elided >= reference.windows.windows,
                "idle link never elided: {:?}", reference.windows
            );
        }
    }
}
