//! Teardown stress: seeded worlds dropped with threads in every state, on
//! one lane and on two. A daemon parked in a channel receive must leave by
//! returning; every other thread must unwind exactly once; nothing may spin
//! or resume after the drop; every fiber stack must go back to the pool.
//!
//! A test binary of its own: the unwind count is a process-wide panic hook
//! and the stack check reads the process-wide `/proc/self/maps` line count,
//! so the tests take turns through `SERIAL`.

#![cfg(target_os = "linux")]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};

use desim::{
    secs, us, Ctx, LaneId, Layer, On, ProcId, RecvTimeoutError, SimChannel, Simulation,
    ThreadHandle,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Panics raised on this host thread, teardown unwinds included.
    static PANICS: Cell<usize> = const { Cell::new(0) };
}

/// Chains a hook that counts every panic in front of desim's quiet hook.
/// Per host thread: `Simulation::drop` resumes every fiber on the thread
/// that drops it, so a test reads only its own teardown.
fn count_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        drop(Simulation::new(0)); // installs desim's quiet hook first
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.with(|p| p.set(p.get() + 1));
            quiet(info);
        }));
    });
}

fn panics() -> usize {
    PANICS.with(Cell::get)
}

/// How a thread left its world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum How {
    /// Its body reached the marker placed after its loop.
    Returned,
    /// Its body started and never reached that marker.
    Unwound,
    /// Its body never ran; only its captures were dropped.
    NeverRan,
}

/// What a world's threads did, shared with the test.
#[derive(Default)]
struct Log {
    exits: Mutex<Vec<(String, How)>>,
    /// Messages received and timeouts observed: the run's resumptions
    /// past a blocking call. Teardown must add none.
    resumes: AtomicUsize,
    /// Closed reads by the daemon that ignores them.
    ignored_reads: AtomicUsize,
    /// Values a blocking destructor received during its thread's unwind.
    dtor_reads: Mutex<Vec<Option<u32>>>,
}

/// Records how its thread left when it drops: moved into the thread's
/// closure, `start` at the top of the body, `returned` after its loop.
struct Exit {
    name: String,
    log: Arc<Log>,
    state: Cell<How>,
}

impl Exit {
    fn new(name: String, log: &Arc<Log>) -> Exit {
        Exit {
            name,
            log: Arc::clone(log),
            state: Cell::new(How::NeverRan),
        }
    }

    fn start(&self) {
        self.state.set(How::Unwound);
    }

    fn returned(&self) {
        self.state.set(How::Returned);
    }
}

impl Drop for Exit {
    fn drop(&mut self) {
        let how = self.state.get();
        self.log
            .exits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((std::mem::take(&mut self.name), how));
    }
}

/// Blocks twice in its destructor, during its thread's unwind: a receive
/// on a channel nobody sends to, then a sleep. Both must return at once.
struct BlockOnDrop<'a> {
    ctx: &'a Ctx,
    never: SimChannel<u32>,
    log: Arc<Log>,
}

impl Drop for BlockOnDrop<'_> {
    fn drop(&mut self) {
        let got = self.never.recv(self.ctx);
        self.ctx.sleep(secs(1000));
        self.log
            .dtor_reads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(got);
    }
}

/// SplitMix64: the seed's draws for a world's shape.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// 1..=n.
    fn upto(&mut self, n: u64) -> usize {
        (self.next() % n + 1) as usize
    }
}

/// A built world and what the test expects of its teardown.
struct World {
    sim: Simulation,
    log: Arc<Log>,
    handles: Vec<ThreadHandle>,
    expect: Vec<(String, How)>,
    /// Daemons that ignore their closed read.
    stubborn: usize,
    /// Threads whose destructor blocks.
    dtors: usize,
}

/// Spawns one of each thread state on lane `lane` (`procs`: two
/// processors of that lane), in seeded numbers, and returns the work
/// channel its receive daemons serve.
fn populate(w: &mut World, draws: &mut Draws, lane: usize, procs: [ProcId; 2]) -> SimChannel<u32> {
    let [p, q] = procs;
    let work: SimChannel<u32> = SimChannel::new();
    let never: SimChannel<u32> = SimChannel::new();
    let log = Arc::clone(&w.log);
    let mut expect = |name: &str, how: How| {
        let name = format!("lane{lane}/{name}");
        w.expect.push((name.clone(), how));
        Exit::new(name, &log)
    };
    // Daemons parked in `recv`: they serve the work channel, then read it
    // as closed at teardown and return.
    for i in 0..draws.upto(3) {
        let (exit, rx, log) = (
            expect(&format!("recv-daemon{i}"), How::Returned),
            work.clone(),
            Arc::clone(&w.log),
        );
        w.handles.push(
            w.sim
                .spawn_daemon(p, &format!("recv-daemon{i}"), move |ctx| {
                    exit.start();
                    while rx.recv(ctx).is_some() {
                        log.resumes.fetch_add(1, Ordering::Relaxed);
                    }
                    exit.returned();
                }),
        );
    }
    // Daemons parked in `recv_until` with a deadline far past the run.
    for i in 0..draws.upto(3) {
        let (exit, rx, log) = (
            expect(&format!("until-daemon{i}"), How::Returned),
            work.clone(),
            Arc::clone(&w.log),
        );
        w.handles.push(
            w.sim
                .spawn_daemon(p, &format!("until-daemon{i}"), move |ctx| {
                    exit.start();
                    while rx.recv_until(ctx, Some(ctx.now() + secs(1000)))
                        != Err(RecvTimeoutError::Closed)
                    {
                        log.resumes.fetch_add(1, Ordering::Relaxed);
                    }
                    exit.returned();
                }),
        );
    }
    // A daemon that ignores the closed read and receives again: its
    // second receive unwinds. Bounded, so a regression fails instead of
    // spinning.
    for i in 0..draws.upto(2) {
        let (exit, rx, log) = (
            expect(&format!("stubborn{i}"), How::Unwound),
            never.clone(),
            Arc::clone(&w.log),
        );
        w.stubborn += 1;
        w.handles
            .push(w.sim.spawn_daemon(p, &format!("stubborn{i}"), move |ctx| {
                exit.start();
                for _ in 0..1000 {
                    if rx.recv(ctx).is_none() {
                        log.ignored_reads.fetch_add(1, Ordering::Relaxed);
                    }
                }
                exit.returned();
            }));
    }
    // A daemon looping on `sleep`: only a receive may read closed.
    let exit = expect("sleep-daemon", How::Unwound);
    w.handles
        .push(w.sim.spawn_daemon(p, "sleep-daemon", move |ctx| {
            exit.start();
            for _ in 0..1000 {
                ctx.sleep(us(1000));
            }
            exit.returned();
        }));
    // Non-daemons parked in `recv`.
    let mut receivers = Vec::new();
    for i in 0..draws.upto(2) {
        let (exit, rx) = (
            expect(&format!("recv-thread{i}"), How::Unwound),
            never.clone(),
        );
        let h = w.sim.spawn(p, &format!("recv-thread{i}"), move |ctx| {
            exit.start();
            let _ = rx.recv(ctx);
            exit.returned();
        });
        receivers.push(h.clone());
        w.handles.push(h);
    }
    // Sleepers.
    for i in 0..draws.upto(2) {
        let exit = expect(&format!("sleeper{i}"), How::Unwound);
        w.handles
            .push(w.sim.spawn(p, &format!("sleeper{i}"), move |ctx| {
                exit.start();
                ctx.sleep(secs(1000));
                exit.returned();
            }));
    }
    // One thread holds `q` in a long charge; others wait for it mid-charge
    // (a daemon among them: a CPU wait unwinds too).
    let exit = expect("cpu-hog", How::Unwound);
    w.handles.push(w.sim.spawn(q, "cpu-hog", move |ctx| {
        exit.start();
        ctx.charge(Layer::App, On::Thread, &[("work", secs(1000))]);
        exit.returned();
    }));
    for i in 0..draws.upto(2) {
        let exit = expect(&format!("cpu-waiter{i}"), How::Unwound);
        let body = move |ctx: &Ctx| {
            exit.start();
            ctx.sleep(us(1));
            ctx.charge(Layer::App, On::Thread, &[("work", us(5))]);
            exit.returned();
        };
        let name = format!("cpu-waiter{i}");
        w.handles.push(if i % 2 == 0 {
            w.sim.spawn_daemon(q, &name, body)
        } else {
            w.sim.spawn(q, &name, body)
        });
    }
    // Joiners of a thread that never finishes.
    for i in 0..draws.upto(2) {
        let (exit, target) = (
            expect(&format!("joiner{i}"), How::Unwound),
            receivers[0].clone(),
        );
        w.handles
            .push(w.sim.spawn(p, &format!("joiner{i}"), move |ctx| {
                exit.start();
                target.join(ctx);
                exit.returned();
            }));
    }
    // Destructors that block during their thread's unwind.
    for i in 0..draws.upto(2) {
        let (exit, never, log) = (
            expect(&format!("dtor{i}"), How::Unwound),
            never.clone(),
            Arc::clone(&w.log),
        );
        w.dtors += 1;
        w.handles
            .push(w.sim.spawn(p, &format!("dtor{i}"), move |ctx| {
                exit.start();
                let _blocks = BlockOnDrop { ctx, never, log };
                ctx.sleep(secs(1000));
                exit.returned();
            }));
    }
    work
}

/// Builds a seeded world on `lanes` lanes (1 or 2), runs it until every
/// thread is parked, and spawns the threads that never start.
fn world(seed: u64, lanes: usize) -> World {
    let mut draws = Draws(seed);
    let mut sim = Simulation::builder().seed(seed).shards(lanes).build();
    sim.set_schedule_perturbation(seed);
    let mut w = World {
        sim,
        log: Arc::default(),
        handles: Vec::new(),
        expect: Vec::new(),
        stubborn: 0,
        dtors: 0,
    };
    let lane_ids: Vec<LaneId> = (0..lanes)
        .map(|l| {
            if l == 0 {
                LaneId::ZERO
            } else {
                w.sim.add_lane()
            }
        })
        .collect();
    let procs: Vec<[ProcId; 2]> = lane_ids
        .iter()
        .enumerate()
        .map(|(l, &lane)| {
            [
                w.sim.add_processor_on(lane, &format!("p{l}"), us(1)),
                w.sim.add_processor_on(lane, &format!("q{l}"), us(1)),
            ]
        })
        .collect();
    let works: Vec<SimChannel<u32>> = procs
        .iter()
        .enumerate()
        .map(|(l, &pq)| populate(&mut w, &mut draws, l, pq))
        .collect();
    // Feed the receive daemons on lane 0, and lane 1 across a link, then
    // stop: the controller outlives the feed, so every daemon parks again.
    let far = (lanes > 1).then(|| {
        w.sim
            .cross_link("l01", us(10), lane_ids[0], lane_ids[1], works[1].clone())
    });
    let (local, msgs) = (works[0].clone(), draws.upto(8) as u32);
    let exit = Exit::new("lane0/feeder".into(), &w.log);
    w.expect.push(("lane0/feeder".into(), How::Returned));
    w.handles
        .push(w.sim.spawn(procs[0][0], "feeder", move |ctx| {
            exit.start();
            for m in 0..msgs {
                ctx.sleep(us(3));
                local.send(ctx, m).expect("the work channel stays open");
                if let Some(far) = &far {
                    far.send(ctx, m);
                }
            }
            exit.returned();
        }));
    let controller = w
        .sim
        .spawn(procs[0][0], "controller", |ctx| ctx.sleep(us(200)));
    w.sim
        .run_until_finished(&controller)
        .expect("the controller finishes while everyone else is parked");
    // Threads that never start: spawned after the run, dropped before
    // their start wake.
    for (l, pq) in procs.iter().enumerate() {
        let name = format!("lane{l}/unstarted");
        let exit = Exit::new(name.clone(), &w.log);
        w.expect.push((name, How::NeverRan));
        w.handles.push(w.sim.spawn(pq[0], "unstarted", move |ctx| {
            exit.start();
            ctx.sleep(us(1));
            exit.returned();
        }));
    }
    w
}

/// Drops one world and checks every thread's exit against its state.
fn drop_and_check(seed: u64, lanes: usize) {
    let World {
        sim,
        log,
        handles,
        mut expect,
        stubborn,
        dtors,
    } = world(seed, lanes);
    let resumed = log.resumes.load(Ordering::Relaxed);
    assert!(resumed > 0, "the receive daemons served the feed");
    assert!(
        log.exits
            .lock()
            .unwrap()
            .iter()
            .all(|(n, _)| n.ends_with("feeder")),
        "only the feeder has left before the drop"
    );
    let before = panics();
    drop(sim);
    let raised = panics() - before;

    let mut exits = log.exits.lock().unwrap().clone();
    exits.sort();
    expect.sort();
    assert_eq!(
        exits, expect,
        "seed {seed}, {lanes} lane(s): how each thread left"
    );
    let unwound = expect
        .iter()
        .filter(|(_, how)| *how == How::Unwound)
        .count();
    assert_eq!(
        raised, unwound,
        "seed {seed}, {lanes} lane(s): one teardown unwind per unwound thread, none for a \
         receive daemon"
    );
    assert!(handles.iter().all(ThreadHandle::is_finished));
    assert_eq!(
        log.resumes.load(Ordering::Relaxed),
        resumed,
        "no receive or timer completes during teardown"
    );
    assert_eq!(
        log.ignored_reads.load(Ordering::Relaxed),
        stubborn,
        "a daemon reads closed once; its next receive unwinds"
    );
    assert_eq!(*log.dtor_reads.lock().unwrap(), vec![None; dtors]);
}

#[test]
fn parked_daemons_return_and_every_other_thread_unwinds_once() {
    let _serial = serial();
    count_panics();
    for seed in 0..16 {
        for lanes in [1, 2] {
            drop_and_check(seed, lanes);
        }
    }
}

/// Number of mappings in /proc/self/maps — a leaked fiber stack (mmap +
/// guard page) shows up as extra lines here (as in `fiber_stack_leak.rs`).
fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn every_stack_goes_back_to_the_pool() {
    let _serial = serial();
    let worlds = || {
        for seed in 0..50 {
            for lanes in [1, 2] {
                drop(world(seed, lanes).sim);
            }
        }
    };
    // The warm-up pass drops the same 100 worlds as the measured one: it
    // brings the allocator, the lazy runtime mappings and the stack pool
    // to the series' peak, so a second pass that returns every stack maps
    // nothing new.
    worlds();
    let before = mapping_count();
    worlds();
    let after = mapping_count();
    assert!(
        after <= before + 8,
        "mapping count grew from {before} to {after}: fiber stacks leaked"
    );
}

#[test]
fn a_world_dropped_under_a_host_panic_still_ends() {
    // As `scheduler.rs::host_panic_teardown_unwinds_sleep_loops`, with
    // every thread state: the host thread is unwinding its own panic when
    // the world drops, and no loop may spin. On a thread of its own, so a
    // regression fails here instead of hanging the suite.
    let _serial = serial();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let host = std::thread::spawn(move || {
        let w = world(7, 2);
        let (log, mut expect) = (Arc::clone(&w.log), w.expect.clone());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _alive = w;
            panic!("host assertion fails while the simulation is alive");
        }));
        let mut exits = log.exits.lock().unwrap().clone();
        exits.sort();
        expect.sort();
        done_tx
            .send((outcome.is_err(), exits == expect))
            .expect("report the outcome");
    });
    let (host_panicked, exits_as_expected) = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("dropping the world under a host panic hung");
    assert!(host_panicked, "the host panic propagates after teardown");
    assert!(
        exits_as_expected,
        "a host panic changes no thread's way out: receive daemons still return"
    );
    host.join().expect("the host thread caught its panic");
}
