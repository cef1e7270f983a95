//! Integration tests for the desim scheduler, CPU model, and determinism.

use desim::{
    ms, secs, us, Backend, Layer, On, Phase, SimChannel, SimCondvar, SimDuration, SimError,
    SimMutex, SimTime, Simulation,
};

#[test]
fn empty_simulation_runs() {
    let mut sim = Simulation::new(0);
    let report = sim.run().expect("empty run");
    assert_eq!(report.final_time, SimTime::ZERO);
    assert_eq!(report.events, 0);
}

#[test]
fn sleep_advances_virtual_time_only() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    let h = sim.spawn(cpu, "sleeper", |ctx| {
        ctx.sleep(desim::secs(3600)); // an hour of virtual time is instant
        assert_eq!(ctx.now(), SimTime::ZERO + desim::secs(3600));
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn compute_serializes_on_one_cpu() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    let done = SimMutex::new(Vec::<(u32, u64)>::new());
    for i in 0..3u32 {
        let done = done.clone();
        sim.spawn(cpu, &format!("w{i}"), move |ctx| {
            ctx.compute(us(100));
            done.lock(ctx).push((i, ctx.now().as_nanos()));
        });
    }
    let done2 = done.clone();
    let checker = sim.spawn(cpu, "checker", move |ctx| {
        ctx.sleep(ms(1));
        let g = done2.lock(ctx);
        assert_eq!(
            *g,
            vec![(0, 100_000), (1, 200_000), (2, 300_000)],
            "three 100us jobs on one CPU must finish back-to-back in FIFO order"
        );
    });
    sim.run_until_finished(&checker).expect("run");
}

#[test]
fn compute_parallel_on_two_cpus() {
    let mut sim = Simulation::new(0);
    let a = sim.add_processor("a");
    let b = sim.add_processor("b");
    let ha = sim.spawn(a, "wa", |ctx| {
        ctx.compute(us(100));
        assert_eq!(ctx.now().as_micros_f64(), 100.0);
    });
    let hb = sim.spawn(b, "wb", |ctx| {
        ctx.compute(us(100));
        assert_eq!(ctx.now().as_micros_f64(), 100.0);
    });
    sim.run_until_finished(&ha).expect("a");
    sim.run_until_finished(&hb).expect("b");
}

#[test]
fn context_switch_charged_between_threads_not_within() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor_with_switch_cost("m0", us(70));
    // Thread A computes twice in a row: second compute pays no switch.
    let ha = sim.spawn(cpu, "a", |ctx| {
        ctx.compute(us(10));
        ctx.compute(us(10));
        assert_eq!(ctx.now().as_micros_f64(), 20.0, "no self-switch charge");
    });
    sim.run_until_finished(&ha).expect("a");
    let report = sim.report();
    assert_eq!(report.procs[0].switches, 0);

    // A fresh thread B on the same CPU now pays one switch.
    let hb = sim.spawn(cpu, "b", |ctx| {
        let t0 = ctx.now();
        ctx.compute(us(10));
        assert_eq!(
            (ctx.now() - t0).as_micros_f64(),
            80.0,
            "70us switch + 10us work"
        );
    });
    sim.run_until_finished(&hb).expect("b");
    assert_eq!(sim.report().procs[0].switches, 1);
}

#[test]
fn switch_charge_policies() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor_with_switch_cost("m0", us(70));
    let h = sim.spawn(cpu, "a", |ctx| {
        let work = [("work", us(10))];
        ctx.charge(Layer::App, On::ThreadSwitch(SimDuration::ZERO), &work);
        ctx.charge(Layer::App, On::ThreadSwitch(us(110)), &work);
        assert_eq!(ctx.now().as_micros_f64(), 130.0);
    });
    sim.run_until_finished(&h).expect("run");
    assert_eq!(
        sim.report().procs[0].switches,
        1,
        "only the non-zero ThreadSwitch charge counts"
    );
}

/// The cost instants of one layer in a traced run: `(time, name, ns)`.
fn cost_instants(sim: &mut Simulation, layer: Layer) -> Vec<(u64, &'static str, u64)> {
    sim.take_trace_events()
        .into_iter()
        .filter(|e| e.layer == layer)
        .map(|e| {
            assert_eq!(e.phase, Phase::Instant);
            (e.time.as_nanos(), e.name, e.args.get("ns").expect("ns"))
        })
        .collect()
}

#[test]
fn charge_emits_one_instant_per_nonzero_term_at_the_call_instant() {
    let mut sim = Simulation::new(0);
    sim.enable_tracing();
    let cpu = sim.add_processor("m0");
    let h = sim.spawn(cpu, "a", |ctx| {
        ctx.sleep(us(5));
        let terms = [("b", us(3)), ("zero", SimDuration::ZERO), ("a", us(4))];
        ctx.charge(Layer::App, On::Thread, &terms);
        assert_eq!(ctx.now().as_micros_f64(), 12.0, "occupies the sum");
    });
    sim.run_until_finished(&h).expect("run");
    assert_eq!(
        cost_instants(&mut sim, Layer::App),
        vec![(5_000, "b", 3_000), (5_000, "a", 4_000)],
        "in order, at the call instant, none for the zero term"
    );
}

#[test]
fn thread_charge_occupies_the_sum_and_pays_one_switch() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor_with_switch_cost("m0", us(70));
    let a = sim.spawn(cpu, "a", |ctx| ctx.compute(us(10)));
    sim.run_until_finished(&a).expect("a");
    let b = sim.spawn(cpu, "b", |ctx| {
        let t0 = ctx.now();
        let terms = [("x", us(10)), ("y", us(20))];
        ctx.charge(Layer::App, On::Thread, &terms);
        assert_eq!(
            (ctx.now() - t0).as_micros_f64(),
            100.0,
            "70us switch + 30us"
        );
        ctx.charge(Layer::App, On::Thread, &terms);
        assert_eq!((ctx.now() - t0).as_micros_f64(), 130.0, "no self-switch");
    });
    sim.run_until_finished(&b).expect("b");
    assert_eq!(sim.report().procs[0].switches, 1);
}

#[test]
fn zero_sum_thread_charge_still_takes_the_cpu() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor_with_switch_cost("m0", us(70));
    let a = sim.spawn(cpu, "a", |ctx| ctx.compute(us(10)));
    sim.run_until_finished(&a).expect("a");
    let b = sim.spawn(cpu, "b", |ctx| {
        let t0 = ctx.now();
        ctx.charge(Layer::App, On::Thread, &[("none", SimDuration::ZERO)]);
        assert_eq!((ctx.now() - t0).as_micros_f64(), 70.0, "the switch alone");
    });
    sim.run_until_finished(&b).expect("b");
    assert_eq!(sim.report().procs[0].switches, 1);
    // `b` now holds the "last thread" register: the next thread pays.
    let c = sim.spawn(cpu, "c", |ctx| ctx.compute(us(10)));
    sim.run_until_finished(&c).expect("c");
    assert_eq!(sim.report().procs[0].switches, 2);
}

#[test]
fn off_charge_takes_no_time_and_no_cpu() {
    let mut sim = Simulation::new(0);
    sim.enable_tracing();
    let cpu = sim.add_processor_with_switch_cost("m0", us(70));
    let busy = sim.spawn(cpu, "busy", |ctx| {
        ctx.compute(us(100));
        assert_eq!(ctx.now().as_micros_f64(), 100.0, "not extended");
    });
    let h = sim.spawn(cpu, "hop", |ctx| {
        ctx.sleep(us(10));
        ctx.charge(Layer::Net, On::Off, &[("switch_hop", us(30))]);
        assert_eq!(ctx.now().as_micros_f64(), 10.0, "no wait for the held CPU");
    });
    sim.run_until_finished(&h).expect("hop");
    sim.run_until_finished(&busy).expect("busy");
    let report = sim.report();
    assert_eq!(report.procs[0].interrupt_time, SimDuration::ZERO);
    assert_eq!(report.procs[0].switches, 0);
    assert_eq!(
        cost_instants(&mut sim, Layer::Net),
        vec![(10_000, "switch_hop", 30_000)]
    );
}

#[test]
fn interrupt_charge_extends_thread_compute() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    // Interrupt work lands in the middle of a 100us thread compute; the
    // thread compute must stretch by the stolen 30us.
    sim.spawn(cpu, "irq", |ctx| {
        ctx.sleep(us(20));
        // Finishes (and is charged) at t=50.
        ctx.charge(
            Layer::App,
            On::Interrupt,
            &[("entry", us(10)), ("handler", us(20))],
        );
        assert_eq!(ctx.now().as_micros_f64(), 50.0);
    });
    let h = sim.spawn(cpu, "worker", |ctx| {
        ctx.compute(us(100));
        assert_eq!(ctx.now().as_micros_f64(), 130.0, "100us work + 30us stolen");
    });
    sim.run_until_finished(&h).expect("run");
    let report = sim.report();
    assert_eq!(report.procs[0].interrupt_time, us(30));
}

#[test]
fn interrupt_does_not_update_last_thread_holder() {
    // The kernel-space fast path: after interrupt-level work, the previous
    // thread resumes with no context-switch charge.
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor_with_switch_cost("m0", us(70));
    let h = sim.spawn(cpu, "client", |ctx| {
        ctx.compute(us(10)); // t=10
        ctx.sleep(us(100)); // blocked, e.g. awaiting a reply
        ctx.compute(us(10)); // no switch: only interrupts ran meanwhile
        assert_eq!(ctx.now().as_micros_f64(), 120.0);
    });
    sim.spawn(cpu, "irq", |ctx| {
        ctx.sleep(us(50));
        ctx.charge(Layer::App, On::Interrupt, &[("irq", us(20))]);
    });
    sim.run_until_finished(&h).expect("run");
    assert_eq!(sim.report().procs[0].switches, 0);
}

#[test]
fn deadlock_detected_for_stuck_nondaemon() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    let ch: SimChannel<u8> = SimChannel::new();
    sim.spawn(cpu, "stuck", move |ctx| {
        let _ = ch.recv(ctx); // nobody ever sends
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked }) => {
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].0, "stuck");
            assert_eq!(blocked[0].1, "chan.recv");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn daemons_may_block_forever() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    let ch: SimChannel<u8> = SimChannel::new();
    let rx = ch.clone();
    sim.spawn_daemon(cpu, "daemon", move |ctx| while rx.recv(ctx).is_some() {});
    sim.spawn(cpu, "main", move |ctx| {
        ch.send(ctx, 1).expect("open");
        ctx.sleep(us(10));
    });
    sim.run().expect("daemon blocked at exit is fine");
}

#[test]
fn event_limit_enforced() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    sim.set_max_events(100);
    sim.spawn(cpu, "spinner", |ctx| loop {
        ctx.sleep(us(1));
    });
    match sim.run() {
        Err(SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 100),
        other => panic!("expected event limit, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "simulated thread 'boom' panicked")]
fn thread_panic_propagates() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    sim.spawn(cpu, "boom", |_ctx| panic!("kaboom"));
    let _ = sim.run();
}

#[test]
fn join_waits_for_completion() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    let child = sim.spawn(cpu, "child", |ctx| ctx.sleep(us(500)));
    let child2 = child.clone();
    let parent = sim.spawn(cpu, "parent", move |ctx| {
        child2.join(ctx);
        assert_eq!(ctx.now().as_micros_f64(), 500.0);
        child2.join(ctx); // second join returns immediately
    });
    sim.run_until_finished(&parent).expect("run");
    assert!(child.is_finished());
}

#[test]
fn spawn_from_within_thread() {
    let mut sim = Simulation::new(0);
    let a = sim.add_processor("a");
    let b = sim.add_processor("b");
    let h = sim.spawn(a, "parent", move |ctx| {
        let c1 = ctx.spawn("kid-same-cpu", |ctx| ctx.compute(us(10)));
        let c2 = ctx.spawn_on(b, "kid-other-cpu", |ctx| ctx.compute(us(10)));
        c1.join(ctx);
        c2.join(ctx);
        // Both kids computed in parallel on distinct CPUs.
        assert_eq!(ctx.now().as_micros_f64(), 10.0);
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn determinism_same_seed_same_schedule() {
    // Results escape the simulation through a plain Arc<Mutex>; that is fine
    // as long as the lock is never held across a simulated block.
    fn run_once(seed: u64) -> Vec<u64> {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim = Simulation::new(seed);
        let cpu = sim.add_processor("m0");
        let mut handles = Vec::new();
        for i in 0..5u32 {
            let log = std::sync::Arc::clone(&log);
            handles.push(sim.spawn(cpu, &format!("w{i}"), move |ctx| {
                let jitter = ctx.rand_range(50);
                ctx.sleep(SimDuration::from_micros(jitter));
                ctx.compute(us(10 + u64::from(i)));
                log.lock().expect("log").push(ctx.now().as_nanos());
            }));
        }
        sim.run().expect("run");
        let out = log.lock().expect("log").clone();
        assert_eq!(out.len(), 5);
        out
    }
    assert_eq!(run_once(1234), run_once(1234));
    assert_ne!(
        run_once(1234),
        run_once(9999),
        "different seeds should differ"
    );
}

#[test]
fn compute_sliced_lets_other_threads_interleave() {
    // One long sliced computation plus a short compute from another thread:
    // the short one runs within a quantum, not after the whole slab.
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    sim.spawn(cpu, "big", |ctx| {
        ctx.compute_sliced(ms(100), ms(5));
    });
    let h = sim.spawn(cpu, "small", |ctx| {
        ctx.compute(us(100));
        assert!(
            ctx.now().as_millis_f64() < 15.0,
            "short work interleaves at quantum granularity, finished at {}",
            ctx.now()
        );
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn compute_sliced_total_time_is_preserved() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    let h = sim.spawn(cpu, "only", |ctx| {
        ctx.compute_sliced(ms(37), ms(5));
        assert_eq!(
            ctx.now().as_millis_f64(),
            37.0,
            "alone on the CPU: exact total"
        );
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
#[should_panic(expected = "quantum must be positive")]
fn compute_sliced_rejects_zero_quantum() {
    let mut sim = Simulation::new(0);
    let cpu = sim.add_processor("m0");
    sim.spawn(cpu, "bad", |ctx| {
        ctx.compute_sliced(ms(1), SimDuration::ZERO);
    });
    let _ = sim.run();
}

fn shutdown_under_load_on(backend: Backend) {
    // Drop the simulation while threads are parked in every blocking
    // primitive; shutdown must unpark and unwind all of them (the test
    // passing IS the assertion — a lost wakeup would hang here forever).
    use std::sync::Arc;

    let mut sim = Simulation::builder().seed(321).backend(backend).build();
    let m0 = sim.add_processor("m0");
    let m1 = sim.add_processor("m1");
    let mutex = Arc::new(SimMutex::new(0u32));
    let cv = Arc::new(SimCondvar::new());
    let cv_mutex = Arc::new(SimMutex::new(false));
    let never: SimChannel<u8> = SimChannel::new();

    // Holds the mutex forever (blocked in chan.recv with the guard live).
    let holder_mutex = Arc::clone(&mutex);
    let holder_ch = never.clone();
    let holder = sim.spawn(m0, "holder", move |ctx| {
        let _guard = holder_mutex.lock(ctx);
        let _ = holder_ch.recv(ctx);
    });
    // Blocked in mutex.lock.
    let waiter_mutex = Arc::clone(&mutex);
    sim.spawn(m0, "mutex-waiter", move |ctx| {
        ctx.sleep(us(1)); // let the holder take it first
        let _guard = waiter_mutex.lock(ctx);
    });
    // Blocked in condvar.wait.
    let w_cv = Arc::clone(&cv);
    let w_cv_mutex = Arc::clone(&cv_mutex);
    sim.spawn(m0, "cv-waiter", move |ctx| {
        let guard = w_cv_mutex.lock(ctx);
        let _guard = w_cv.wait(ctx, guard);
    });
    // Blocked in chan.recv.
    let rx = never.clone();
    sim.spawn(m0, "recv-waiter", move |ctx| {
        let _ = rx.recv(ctx);
    });
    // Blocked in the timer wheel.
    sim.spawn(m0, "sleeper", move |ctx| {
        ctx.sleep(secs(1000));
    });
    // Blocked in join (the holder never finishes).
    let join_target = holder.clone();
    sim.spawn(m0, "joiner", move |ctx| {
        join_target.join(ctx);
    });
    // Blocked waiting for a CPU another thread occupies.
    sim.spawn(m1, "hog", move |ctx| {
        ctx.compute(secs(1000));
    });
    sim.spawn(m1, "cpu-waiter", move |ctx| {
        ctx.sleep(us(1));
        ctx.compute(us(1));
    });

    let controller = sim.spawn(m0, "controller", move |ctx| {
        ctx.sleep(us(10));
    });
    sim.run_until_finished(&controller)
        .expect("controller finishes while everyone else is parked");
    drop(sim); // initiate_shutdown: every parked thread must unwind
}

#[test]
fn shutdown_under_load_reclaims_threads_blocked_in_every_primitive() {
    shutdown_under_load_on(Backend::OsThreads);
}

#[test]
fn shutdown_under_load_reclaims_fibers_blocked_in_every_primitive() {
    if !Backend::fibers_supported() {
        return;
    }
    shutdown_under_load_on(Backend::Fibers);
}

#[test]
fn builder_selects_backend_explicitly() {
    let sim = Simulation::builder()
        .seed(1)
        .backend(Backend::OsThreads)
        .build();
    assert_eq!(sim.backend(), Backend::OsThreads);
    if Backend::fibers_supported() {
        let sim = Simulation::builder()
            .seed(1)
            .backend(Backend::Fibers)
            .build();
        assert_eq!(sim.backend(), Backend::Fibers);
    }
}

#[test]
fn backend_override_takes_effect_for_default_constructor() {
    // The override outranks DESIM_BACKEND and the target default. Both
    // backends behave identically, so flipping the process default under
    // concurrently-running tests is safe; still restore it promptly.
    desim::set_backend_override(Some(Backend::OsThreads));
    let sim = Simulation::new(1);
    let picked = sim.backend();
    desim::set_backend_override(None);
    assert_eq!(picked, Backend::OsThreads);
}

#[test]
fn backends_agree_on_schedule_and_stale_wake_counters() {
    // The same program on both backends must produce identical virtual
    // end times, event counts, and stale-wake counters — the counters
    // live behind the per-simulation backend seam, so two simulations in
    // one process never share or double-count them.
    fn run_on(backend: Backend) -> (SimTime, u64, u64) {
        let mut sim = Simulation::builder().seed(42).backend(backend).build();
        let m0 = sim.add_processor("m0");
        let m1 = sim.add_processor("m1");
        let ch: SimChannel<u32> = SimChannel::new();
        let tx = ch.clone();
        sim.spawn(m0, "producer", move |ctx| {
            for i in 0..50 {
                ctx.sleep(us(3));
                tx.send(ctx, i).unwrap();
            }
            tx.close(ctx);
        });
        sim.spawn(m1, "consumer", move |ctx| {
            // recv_timeout races against the producer's sends, generating
            // stale timer wakes when the message wins.
            while ch.recv_timeout(ctx, us(5)).is_ok() {}
        });
        // Sixteen sleepers on staggered strides keep the event queue
        // sixteen timers deep.
        for i in 0..16u64 {
            let cpu = sim.add_processor(&format!("z{i}"));
            sim.spawn(cpu, &format!("sleeper{i}"), move |ctx| {
                for _ in 0..50 {
                    ctx.sleep(SimDuration::from_nanos(11 + i * 7 % 97));
                }
            });
        }
        sim.run().expect("run");
        let report = sim.report();
        (report.final_time, report.events, sim.stale_wakes())
    }
    let os = run_on(Backend::OsThreads);
    if Backend::fibers_supported() {
        let fib = run_on(Backend::Fibers);
        assert_eq!(os, fib, "os-threads vs fibers diverged");
    }
    // Run os-threads again after the fiber run: counters must match the
    // first os run exactly (nothing accumulated across simulations).
    assert_eq!(os, run_on(Backend::OsThreads));
}
