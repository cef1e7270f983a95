//! The simulation driver: owns the lanes and runs every simulation through
//! one conservative windowed loop (see [`crate::shard`]). A single lane with
//! no links is its one-window case: the window is unbounded and the lane
//! runs until its queue drains.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::channel::SimChannel;
use crate::core::{
    install_quiet_shutdown_hook, Core, ProcId, StepResult, ThreadId, ThreadState, WakeStatus,
};
use crate::ctx::Ctx;
use crate::queue::QueueStats;
use crate::shard::{self, LaneId, LaneSlot, LinkTable, ShardCount, WindowGate, XSender};
use crate::time::{SimDuration, SimTime};
use crate::trace::{CounterSnapshot, TraceEvent, Tracer};

/// Errors reported by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while non-daemon threads were still blocked.
    Deadlock {
        /// `(thread name, what it was blocked on)` for each stuck thread.
        /// With more than one lane the name is prefixed by the thread's
        /// lane, as in `lane1/sink`.
        blocked: Vec<(String, &'static str)>,
    },
    /// The configured event budget was exhausted (see
    /// [`Simulation::set_max_events`]).
    EventLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "simulation deadlocked; blocked threads: ")?;
                for (i, (name, on)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name} (on {on})")?;
                }
                Ok(())
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "simulation exceeded the event limit of {limit}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-processor accounting for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcReport {
    /// Processor name given to [`Simulation::add_processor`].
    pub name: String,
    /// Total thread-level CPU occupancy.
    pub busy: SimDuration,
    /// Total interrupt-level CPU time.
    pub interrupt_time: SimDuration,
    /// Number of charged context switches.
    pub switches: u64,
}

/// Summary of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Virtual time when the run stopped.
    pub final_time: SimTime,
    /// Total wake events processed (cumulative across runs).
    pub events: u64,
    /// Per-processor accounting.
    pub procs: Vec<ProcReport>,
}

/// Window-engine accounting: coordination across lanes, cumulative across
/// runs of one [`Simulation`] (see [`Simulation::window_stats`]). A
/// one-lane simulation coordinates nothing, so its stats stay all-zero.
///
/// Everything except `barrier_wait_ns` is deterministic for a given
/// program, seed, and topology — independent of shard count.
/// `barrier_wait_ns` is wall-clock time the coordinator spent waiting for
/// worker runners at the window gate and must never feed a result hash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Windows opened (rounds of the windowed driver).
    pub windows: u64,
    /// Wake events processed under the windowed driver.
    pub events: u64,
    /// Cross-lane flushes that had traffic to merge.
    pub flushes: u64,
    /// Links with nothing to flush: registered links minus links flushed,
    /// summed over flush rounds (one before each window, plus the round
    /// that ends a run). The driver never touches these links — their bits
    /// in the dirty bitmap were clear.
    pub flushes_elided: u64,
    /// Lane-windows skipped because the lane's published next event lay at
    /// or past the window edge (its state never borrowed).
    pub lanes_skipped: u64,
    /// Wall-clock nanoseconds the coordinator spent in the windowed
    /// driver's gate waiting for worker runners. Zero on single-runner
    /// hosts (the coordinator drives every lane itself).
    pub barrier_wait_ns: u64,
}

/// Handle to a simulated thread.
///
/// Returned by the `spawn` family on [`Simulation`] and [`Ctx`]. Unlike
/// `std::thread::JoinHandle` it is clonable and joining is idempotent.
#[derive(Clone)]
pub struct ThreadHandle {
    core: Arc<Core>,
    tid: ThreadId,
    /// The thread record's `done` flag: all [`ThreadHandle::is_finished`]
    /// reads, so a handle on any lane or OS thread never touches the
    /// owning lane's state.
    done: Arc<AtomicBool>,
}

impl fmt::Debug for ThreadHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadHandle")
            .field("thread", &self.tid)
            .finish()
    }
}

impl ThreadHandle {
    pub(crate) fn new(core: Arc<Core>, tid: ThreadId, done: Arc<AtomicBool>) -> Self {
        ThreadHandle { core, tid, done }
    }

    /// Returns the thread's identifier.
    pub fn id(&self) -> ThreadId {
        self.tid
    }

    /// Returns `true` once the thread body has returned. May be called
    /// from anywhere, a thread on another lane included; a thread that
    /// finishes during a window of another lane shows up there no later
    /// than the next window.
    pub fn is_finished(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Blocks the calling simulated thread until this thread finishes.
    ///
    /// Caller and target must live on the same lane: a cross-lane join
    /// would schedule a wake into another lane's queue, bypassing the
    /// lookahead bound that makes parallel windows safe. Route cross-lane
    /// completion through a [`crate::XSender`] link instead.
    ///
    /// # Panics
    ///
    /// Panics if the caller runs on another lane (or simulation) than the
    /// target.
    pub fn join(&self, ctx: &Ctx) {
        assert!(
            Arc::ptr_eq(&self.core, ctx.core()),
            "cross-lane join: {} joins a thread of {}; use a cross-lane link instead",
            ctx.lane_key().lane(),
            self.core.key.lane()
        );
        loop {
            let mut st = ctx.core().state.borrow_mut();
            if st.threads[self.tid.0].state == ThreadState::Finished {
                return;
            }
            let wid = st.prepare_block(ctx.thread_id(), "join");
            st.threads[self.tid.0].joiners.push((ctx.thread_id(), wid));
            if ctx.yield_blocked(st) == WakeStatus::Shutdown {
                ctx.shutdown_unwind();
                return;
            }
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// A `Simulation` owns processors (CPUs), simulated threads, and the virtual
/// clock. The same seed and the same program yield byte-identical schedules.
///
/// # Examples
///
/// ```
/// use desim::{Simulation, us};
///
/// let mut sim = Simulation::new(42);
/// let cpu = sim.add_processor("m0");
/// sim.spawn(cpu, "worker", |ctx| {
///     ctx.compute(us(100));
/// });
/// let report = sim.run().expect("run");
/// assert_eq!(report.final_time.as_micros_f64(), 100.0);
/// ```
///
/// A `Simulation` is `Send` but not `Sync`: its `&self` accessors read the
/// lanes' turn-owned state, which only one OS thread may hold at a time.
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<desim::Simulation>();
/// ```
pub struct Simulation {
    /// Every lane, indexed by [`LaneId`] (see [`Simulation::add_lane`]);
    /// lane 0 is the one [`Simulation::add_processor`] targets.
    lanes: Vec<Arc<Core>>,
    /// Cross-lane links in registration order — which is the barrier-time
    /// flush order, part of the deterministic merge.
    links: LinkTable,
    shards: ShardCount,
    /// Cumulative window-engine accounting (see [`Simulation::window_stats`]).
    window_stats: WindowStats,
    seed: u64,
    /// Per-lane queue capacity hint (see
    /// [`SimulationBuilder::expected_threads`]); mirrored onto added lanes.
    expected_threads: usize,
    // Configuration mirrored onto lanes created after the setter ran:
    max_events: Option<u64>,
    perturb_seed: Option<u64>,
    tracing_cap: Option<usize>,
    /// Run by `Drop` once every thread has unwound (see
    /// [`Simulation::on_teardown`]).
    teardown: Vec<Box<dyn FnOnce() + Send>>,
    /// `!Sync`: the owner of `&self` borrows lane state without a turn
    /// hand-off, which is sound only while no other OS thread can.
    _not_sync: PhantomData<Cell<()>>,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.lanes[0].state.borrow_mut();
        f.debug_struct("Simulation")
            .field("now", &st.now)
            .field("threads", &st.threads.len())
            .field("procs", &st.procs.len())
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

/// Configures and creates a [`Simulation`].
///
/// Obtained from [`Simulation::builder`]. Every knob has a default, so
/// `Simulation::builder().build()` is equivalent to `Simulation::new(0)`.
///
/// # Examples
///
/// ```
/// use desim::Simulation;
///
/// let sim = Simulation::builder().seed(42).shards(1).build();
/// assert_eq!(sim.shards(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    seed: u64,
    shards: Option<usize>,
    expected_threads: usize,
}

impl SimulationBuilder {
    /// Seed for all simulation randomness (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Explicit shard count — the maximum number of runner OS threads for
    /// windowed parallel execution (`0` = auto, one per host core) —
    /// outranking [`crate::set_shards_override`]. Effective parallelism is
    /// `min(shards, lanes)`, so the knob never affects a single-lane
    /// simulation, and it never affects observable results on any
    /// simulation — only wall-clock time (see [`Simulation::add_lane`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Capacity hint: the expected number of simulated threads on the
    /// busiest scheduler lane (for a single-lane world, the whole world).
    /// Boot schedules one start wake per spawned thread — all at the same
    /// instant — so every lane's event queue pre-sizes its storage from
    /// this instead of re-allocating while the world spins up. Purely a
    /// performance hint: any value (including the 0 default) is observably
    /// identical.
    pub fn expected_threads(mut self, threads: usize) -> Self {
        self.expected_threads = threads;
        self
    }

    /// Builds the simulation.
    pub fn build(self) -> Simulation {
        install_quiet_shutdown_hook();
        let shards = match self.shards {
            Some(0) => ShardCount::Auto,
            Some(n) => ShardCount::Fixed(n),
            None => shard::default_shards(),
        };
        let mut sim = Simulation {
            lanes: Vec::new(),
            links: LinkTable::default(),
            shards,
            window_stats: WindowStats::default(),
            seed: self.seed,
            expected_threads: self.expected_threads,
            max_events: None,
            perturb_seed: None,
            tracing_cap: None,
            teardown: Vec::new(),
            _not_sync: PhantomData,
        };
        sim.add_lane();
        sim
    }
}

impl Simulation {
    /// Creates a simulation seeded with `seed` for all randomness.
    pub fn new(seed: u64) -> Self {
        Self::builder().seed(seed).build()
    }

    /// Returns a builder for configuring seed, shard count and queue
    /// capacity.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder {
            seed: 0,
            shards: None,
            expected_threads: 0,
        }
    }

    fn lane_core(&self, lane: LaneId) -> &Arc<Core> {
        self.lanes
            .get(lane.index())
            .unwrap_or_else(|| panic!("unknown lane {lane}; call add_lane first"))
    }

    /// Number of scheduler lanes (at least 1).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The effective runner count a windowed run would use on this host:
    /// the configured shard count clamped to the lane count.
    pub fn shards(&self) -> usize {
        match self.lanes() {
            // One lane has one runner: skip `auto`'s host-core probe,
            // which costs more than a short run.
            1 => 1,
            lanes => self.shards.resolve().min(lanes),
        }
    }

    /// The lookahead windowed execution would use: the minimum delay over
    /// all cross-lane links, or `None` when no links exist (lanes are then
    /// fully independent and each runs to completion in one window).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.links.lookahead()
    }

    /// Adds a scheduler lane and returns its id.
    ///
    /// The lane is a complete independent scheduler: its own event queue,
    /// clock, sequence counter, RNG (seeded deterministically from the
    /// simulation seed and the lane index), perturbation stream, and trace
    /// buffers. Placement is decided once, when a processor is added with
    /// [`Simulation::add_processor_on`]: the returned [`ProcId`] carries
    /// the lane, and every thread spawned on that processor
    /// ([`Simulation::spawn`], [`Simulation::spawn_daemon`],
    /// [`Ctx::spawn_on`]) runs there, so no caller passes a lane beside a
    /// processor. (A network built on top chooses a lane once per segment
    /// and derives everything else from it.) Lanes interact only through
    /// [`Simulation::cross_link`]. With more
    /// than one lane, [`Simulation::run`]'s windows run the lanes in
    /// parallel up to the configured shard count (see
    /// [`SimulationBuilder::shards`]) — observably identical to serial.
    pub fn add_lane(&mut self) -> LaneId {
        let idx = self.lanes.len();
        let lane = LaneId(idx as u32);
        let core = Core::new(
            shard::lane_seed(self.seed, idx as u64),
            self.expected_threads,
            lane,
        );
        {
            let mut st = core.state.borrow_mut();
            st.max_events = self.max_events;
            if let Some(ps) = self.perturb_seed {
                use rand::rngs::SmallRng;
                use rand::SeedableRng;
                st.perturb = Some(SmallRng::seed_from_u64(shard::lane_seed(ps, idx as u64)));
            }
            if let Some(cap) = self.tracing_cap {
                st.tracer = Some(Tracer::new(cap));
                core.trace_on
                    .store(true, std::sync::atomic::Ordering::Relaxed);
            }
        }
        self.lanes.push(core);
        lane
    }

    /// Adds a processor with an explicit context-switch cost on the given
    /// lane (the lane-aware form of [`Simulation::add_processor`]). The
    /// returned id carries the lane: every thread spawned on the processor
    /// runs there.
    pub fn add_processor_on(
        &mut self,
        lane: LaneId,
        name: &str,
        switch_cost: SimDuration,
    ) -> ProcId {
        self.lane_core(lane).add_processor(lane, name, switch_cost)
    }

    /// Creates a cross-lane link: the only legal way for code on
    /// `src_lane` to affect `dst_lane`.
    ///
    /// Values sent through the returned [`XSender`] arrive on the `dst`
    /// channel exactly `delay` after the send instant, delivered by an
    /// injection event the windowed driver arms directly into `dst_lane`'s
    /// event queue at flush time — so receivers see ordinary in-lane
    /// channel messages with the correct timestamp and pick order, with no
    /// daemon wake or channel hop charged per frame. `delay` must be
    /// positive: the minimum over all links is the lookahead that makes
    /// parallel windows safe. The sender must only be used from `src_lane`
    /// (debug-asserted on send).
    ///
    /// # Panics
    ///
    /// Panics if `delay` is zero or the lanes are equal.
    pub fn cross_link<T: Send + 'static>(
        &mut self,
        name: &str,
        delay: SimDuration,
        src_lane: LaneId,
        dst_lane: LaneId,
        dst: SimChannel<T>,
    ) -> XSender<T> {
        assert_ne!(
            src_lane, dst_lane,
            "cross_link {name} connects two different lanes; same-lane \
             traffic uses plain channels"
        );
        self.lane_core(src_lane); // panics on an unknown lane
        let dst_core = Arc::clone(self.lane_core(dst_lane));
        self.links
            .register(delay, src_lane, &dst_core, dst_lane.index(), dst)
    }

    /// Caps the total number of wake events; [`Simulation::run`] returns
    /// [`SimError::EventLimitExceeded`] past the cap. A safety net against
    /// runaway protocols (e.g. retransmission storms).
    ///
    /// The budget lives in the lane's scheduler state because both the
    /// scheduler and the thread-side hand-off fast path check it before
    /// every pop.
    pub fn set_max_events(&mut self, limit: u64) {
        self.max_events = Some(limit);
        for core in self.lanes.iter() {
            core.state.borrow_mut().max_events = Some(limit);
        }
    }

    /// Enables seeded scheduler perturbation: among wake events scheduled
    /// for the *same* virtual instant, the pick order is shuffled by a
    /// dedicated RNG seeded with `seed` instead of following insertion
    /// order. Virtual time is never violated, the perturbation is fully
    /// deterministic per seed, and the protocol-visible RNG (seeded by
    /// [`Simulation::new`]) is untouched. Call before spawning threads so
    /// even the initial start order is covered.
    ///
    /// This is a chaos-testing hook: correct protocols must not depend on
    /// the scheduler's same-instant FIFO order.
    pub fn set_schedule_perturbation(&mut self, seed: u64) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        self.perturb_seed = Some(seed);
        for (idx, core) in self.lanes.iter().enumerate() {
            // Per-lane derived streams (lane 0 keeps `seed` verbatim), so a
            // lane's tie draws depend only on its own schedule — never on
            // how other lanes interleave.
            core.state.borrow_mut().perturb =
                Some(SmallRng::seed_from_u64(shard::lane_seed(seed, idx as u64)));
        }
    }

    /// Registers `f` to run when the simulation is dropped, after every
    /// simulated thread has been unwound and joined.
    ///
    /// This is how worlds built on the simulation get freed: a layer that
    /// owns an upcall table (handler closures pointing back *up* the stack
    /// at objects that hold the layer itself) registers a closure here that
    /// empties the table, which breaks the ownership cycle once nothing can
    /// run any more. Closures run in registration order and must not panic
    /// or block.
    pub fn on_teardown(&mut self, f: impl FnOnce() + Send + 'static) {
        self.teardown.push(Box::new(f));
    }

    /// Adds a processor (one CPU) with no context-switch cost on lane 0 and
    /// returns its id.
    pub fn add_processor(&mut self, name: &str) -> ProcId {
        self.add_processor_on(LaneId::ZERO, name, SimDuration::ZERO)
    }

    /// Spawns a simulated thread on `proc`, on `proc`'s lane; it starts
    /// when the run begins. The returned handle must only be joined from
    /// that lane.
    pub fn spawn<F>(&mut self, proc: ProcId, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.lane_core(proc.lane())
            .spawn_thread(proc, name, false, f)
    }

    /// Spawns a daemon thread on `proc`, on `proc`'s lane: it may remain
    /// blocked forever without the run being reported as a deadlock (e.g.
    /// protocol receive daemons).
    pub fn spawn_daemon<F>(&mut self, proc: ProcId, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.lane_core(proc.lane())
            .spawn_thread(proc, name, true, f)
    }

    /// Runs until the event queue drains.
    ///
    /// Daemon threads blocked at that point are expected; any other blocked
    /// thread is a deadlock.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if non-daemon threads are still blocked when
    /// the queue drains, [`SimError::EventLimitExceeded`] if the event budget
    /// is exhausted.
    ///
    /// # Panics
    ///
    /// Propagates panics from simulated threads.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        self.run_windowed(None)
    }

    /// Runs until `target` finishes (or the queue drains first).
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run`]; additionally reports a deadlock if the
    /// queue drains before `target` finishes.
    ///
    /// # Panics
    ///
    /// Propagates panics from simulated threads.
    pub fn run_until_finished(&mut self, target: &ThreadHandle) -> Result<SimReport, SimError> {
        let lane = self
            .lanes
            .iter()
            .position(|c| Arc::ptr_eq(c, &target.core))
            .expect("thread handle belongs to another simulation");
        self.run_windowed(Some((lane, target.id())))
    }

    /// Queue(s) drained: every non-daemon thread must have finished, and a
    /// `stop_on` target reaching this point never finished. On a
    /// multi-lane simulation each blocked thread's name carries its lane
    /// (`lane2/client-7`), since thread names need not be unique across
    /// lanes.
    fn drained_result(&self, had_target: bool) -> Result<SimReport, SimError> {
        let multi = self.lanes() > 1;
        let mut blocked: Vec<(String, &'static str)> = Vec::new();
        for (lane, core) in self.lanes.iter().enumerate() {
            let st = core.state.borrow_mut();
            blocked.extend(
                st.threads
                    .iter()
                    .filter(|t| t.state != ThreadState::Finished && !t.daemon)
                    .map(|t| {
                        let name = if multi {
                            format!("lane{lane}/{}", t.name)
                        } else {
                            t.name.to_string()
                        };
                        (name, t.blocked_on)
                    }),
            );
        }
        if !blocked.is_empty() || had_target {
            return Err(SimError::Deadlock { blocked });
        }
        Ok(self.report())
    }

    /// The one run driver: conservative windows (see [`crate::shard`] for
    /// the scheme and the bit-identity argument). Structure per round, with
    /// every lane stopped between the gate's `done` and the next `open`:
    ///
    /// 1. flush every cross-lane link that carried traffic, in registration
    ///    order — one swap per 64 links of the dirty bitmap, quiet links
    ///    never touched;
    /// 2. stop if the target finished, a lane hit its event budget, or the
    ///    summed budget is exhausted — all read from the lanes' published
    ///    atomic slots, no lane state borrowed;
    /// 3. `T_min` ← earliest published instant over all lanes (none = done);
    /// 4. open the window `[T_min, T_min + lookahead)` on every lane
    ///    (unbounded when no links exist — the lanes are independent);
    /// 5. advance all lanes to their window edge, in parallel across the
    ///    runner pool (lane→runner assignment is round-robin; any
    ///    assignment is correct, parallelism only affects wall-clock). A
    ///    lane whose published next event lies at or past the window edge
    ///    is skipped without borrowing its state; each driven lane
    ///    republishes its slot under one more borrow.
    ///
    /// One lane with no links is the one-window case: the window is
    /// unbounded, one runner (the caller) steps the lane until it pauses
    /// on a drained queue, the target or the budget, and the next round
    /// ends the run. Its stats are not added to [`Simulation::window_stats`].
    fn run_windowed(&mut self, stop: Option<(usize, ThreadId)>) -> Result<SimReport, SimError> {
        use std::panic;
        use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering as AO};
        use std::time::Instant;

        let cores = &self.lanes;
        let lanes = cores.len();
        let runners = self.shards();
        let lookahead = self.lookahead();

        const OUT_PAUSED: u8 = 0; // drained or at the window edge
        const OUT_LIMIT: u8 = 1;
        const OUT_TARGET: u8 = 2;
        let outcomes: Vec<AtomicU8> = (0..lanes).map(|_| AtomicU8::new(OUT_PAUSED)).collect();
        // A target that already finished in an earlier run must stop the
        // driver before it runs a window (the pre-diet driver checked the
        // target's thread state directly at the barrier).
        if let Some((sl, t)) = stop {
            if cores[sl].state.borrow_mut().threads[t.0].state == ThreadState::Finished {
                outcomes[sl].store(OUT_TARGET, AO::Relaxed);
            }
        }
        // Published lane positions: the coordinator's entire between-window
        // bookkeeping (`T_min`, budget, target, idle-lane skip) reads these
        // slots instead of borrowing lane state.
        let slots: Vec<LaneSlot> = cores
            .iter()
            .map(|c| {
                let st = c.state.borrow_mut();
                LaneSlot {
                    next: AtomicU64::new(st.peek_time().map_or(u64::MAX, |t| t.as_nanos())),
                    events: AtomicU64::new(st.events_processed),
                }
            })
            .collect();
        let start_events: u64 = slots.iter().map(|s| s.events.load(AO::Relaxed)).sum();
        let wend = AtomicU64::new(u64::MAX);
        let skipped = AtomicU64::new(0);
        let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());
        let gate = WindowGate::new(runners - 1);
        let exit = AtomicBool::new(false);
        let mut stats = WindowStats::default();

        // Advance every lane owned by `runner` to its window edge, then
        // republish the lane's slot. Lanes with nothing below the window
        // edge are skipped lock-free (their slots are already current).
        let drive = |runner: usize| {
            let w = wend.load(AO::Acquire);
            let mut idle = 0;
            for li in (runner..lanes).step_by(runners) {
                if slots[li].next.load(AO::Relaxed) >= w {
                    idle += 1;
                    continue;
                }
                let core = &cores[li];
                let stop_t = stop.and_then(|(sl, t)| (sl == li).then_some(t));
                let result = panic::catch_unwind(panic::AssertUnwindSafe(|| loop {
                    match core.step(stop_t) {
                        StepResult::Progress => {}
                        StepResult::Paused => break OUT_PAUSED,
                        StepResult::TargetFinished => break OUT_TARGET,
                        StepResult::LimitExceeded => break OUT_LIMIT,
                    }
                }));
                match result {
                    Ok(o) => {
                        {
                            let st = core.state.borrow_mut();
                            slots[li].next.store(
                                st.peek_time().map_or(u64::MAX, |t| t.as_nanos()),
                                AO::Relaxed,
                            );
                            slots[li].events.store(st.events_processed, AO::Relaxed);
                        }
                        outcomes[li].store(o, AO::Release);
                    }
                    Err(p) => {
                        outcomes[li].store(OUT_PAUSED, AO::Release);
                        panics.lock().push((li, p));
                    }
                }
            }
            if idle > 0 {
                skipped.fetch_add(idle, AO::Relaxed);
            }
        };

        // Ok(true) = target finished, Ok(false) = drained, Err(()) = budget.
        let outcome: Result<bool, ()> = std::thread::scope(|s| {
            for r in 1..runners {
                let (drive, gate, exit) = (&drive, &gate, &exit);
                std::thread::Builder::new()
                    .name(format!("desim-shard-{r}"))
                    .spawn_scoped(s, move || {
                        let mut gen = 0u64;
                        loop {
                            gen = gate.wait_open(gen);
                            if exit.load(AO::Acquire) {
                                break;
                            }
                            drive(r);
                            gate.done();
                        }
                    })
                    .expect("failed to spawn shard runner");
            }
            // Committed horizon: every instant below it is finished history
            // on every lane, so cross-lane flushes must land at or past it.
            let mut floor = SimTime::ZERO;
            let links = self.links.len() as u64;
            let out = loop {
                let flushed = self.links.flush_dirty(floor, |dst, t| {
                    // Fold the armed instant into the destination's
                    // published position so `T_min` and the skip see it.
                    // Coordinator-only phase: plain load/store.
                    let slot = &slots[dst].next;
                    let t_ns = t.as_nanos();
                    if t_ns < slot.load(AO::Relaxed) {
                        slot.store(t_ns, AO::Relaxed);
                    }
                });
                stats.flushes += flushed;
                stats.flushes_elided += links - flushed;
                if let Some((sl, _)) = stop {
                    if outcomes[sl].load(AO::Acquire) == OUT_TARGET {
                        break Ok(true);
                    }
                }
                if outcomes.iter().any(|o| o.load(AO::Acquire) == OUT_LIMIT) {
                    break Err(());
                }
                if let Some(limit) = self.max_events {
                    // Per-lane budgets already bound each lane to `limit`;
                    // the summed check keeps an N-lane run from processing
                    // up to N× it.
                    let total: u64 = slots.iter().map(|sl| sl.events.load(AO::Relaxed)).sum();
                    if total >= limit {
                        break Err(());
                    }
                }
                let t_min = slots
                    .iter()
                    .map(|sl| sl.next.load(AO::Relaxed))
                    .min()
                    .expect("at least one lane");
                if t_min == u64::MAX {
                    break Ok(false);
                }
                let wend_ns = match lookahead {
                    Some(la) => (SimTime::from_nanos(t_min) + la).as_nanos(),
                    None => u64::MAX,
                };
                wend.store(wend_ns, AO::Relaxed);
                for c in cores {
                    c.window_limit.store(wend_ns, AO::Relaxed);
                }
                #[cfg(debug_assertions)]
                for c in cores {
                    c.state
                        .borrow_mut()
                        .set_window_floor(SimTime::from_nanos(t_min));
                }
                stats.windows += 1;
                gate.open();
                drive(0);
                if runners > 1 {
                    let t0 = Instant::now();
                    gate.wait_done();
                    stats.barrier_wait_ns += t0.elapsed().as_nanos() as u64;
                }
                if wend_ns != u64::MAX {
                    floor = SimTime::from_nanos(wend_ns);
                }
                if !panics.lock().is_empty() {
                    // Release the runner pool before unwinding, or it would
                    // wait at the gate forever and the scope never joins.
                    exit.store(true, AO::Release);
                    gate.open();
                    let (_, payload) = {
                        let mut ps = panics.lock();
                        ps.sort_by_key(|(li, _)| *li);
                        ps.remove(0)
                    };
                    // The panicking lane already shut itself down inside
                    // `Core::step`; shut the rest down before unwinding so
                    // every fiber unwinds cleanly (`Drop` becomes a no-op).
                    for c in cores {
                        c.initiate_shutdown();
                    }
                    panic::resume_unwind(payload);
                }
            };
            exit.store(true, AO::Release);
            gate.open();
            out
        });

        // Leave no window bound behind: post-run accessors and later runs
        // (multi-phase workloads re-enter `run`) expect unbounded lanes.
        for c in cores {
            c.window_limit
                .store(u64::MAX, std::sync::atomic::Ordering::Relaxed);
        }
        #[cfg(debug_assertions)]
        for c in cores {
            c.state.borrow_mut().set_window_floor(SimTime::ZERO);
        }
        stats.events = slots
            .iter()
            .map(|sl| sl.events.load(std::sync::atomic::Ordering::Relaxed))
            .sum::<u64>()
            - start_events;
        stats.lanes_skipped = skipped.load(std::sync::atomic::Ordering::Relaxed);
        if lanes > 1 {
            self.window_stats.windows += stats.windows;
            self.window_stats.events += stats.events;
            self.window_stats.flushes += stats.flushes;
            self.window_stats.flushes_elided += stats.flushes_elided;
            self.window_stats.lanes_skipped += stats.lanes_skipped;
            self.window_stats.barrier_wait_ns += stats.barrier_wait_ns;
        }
        match outcome {
            Ok(true) => Ok(self.report()),
            Ok(false) => self.drained_result(stop.is_some()),
            Err(()) => Err(SimError::EventLimitExceeded {
                limit: self.max_events.expect("limit was configured"),
            }),
        }
    }

    /// Window-engine accounting, cumulative across runs; all-zero on a
    /// one-lane simulation, which has no lanes to coordinate. Everything
    /// except `barrier_wait_ns` is deterministic per program/seed/topology —
    /// independent of shard count; `barrier_wait_ns` is wall-clock and
    /// must never feed a result hash.
    pub fn window_stats(&self) -> WindowStats {
        self.window_stats
    }

    /// Returns the current virtual time (on a multi-lane simulation: the
    /// most-advanced lane's clock).
    pub fn now(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|c| c.state.borrow_mut().now)
            .max()
            .expect("at least one lane")
    }

    /// Returns one lane's virtual clock (lanes advance independently
    /// between window barriers, so clocks legitimately differ).
    pub fn lane_now(&self, lane: LaneId) -> SimTime {
        self.lane_core(lane).state.borrow_mut().now
    }

    /// Returns a snapshot report of the accounting so far. Multi-lane:
    /// events are summed, `final_time` is the most-advanced lane's clock,
    /// and processors are listed lane-major (lane 0's first).
    pub fn report(&self) -> SimReport {
        let mut final_time = SimTime::ZERO;
        let mut events = 0u64;
        let mut procs = Vec::new();
        for core in self.lanes.iter() {
            let st = core.state.borrow_mut();
            final_time = final_time.max(st.now);
            events += st.events_processed;
            procs.extend(st.procs.iter().map(|p| ProcReport {
                name: p.name.clone(),
                busy: p.busy,
                interrupt_time: p.interrupt_time,
                switches: p.switches,
            }));
        }
        SimReport {
            final_time,
            events,
            procs,
        }
    }

    /// Starts structured tracing with the default ring-buffer capacity
    /// (1 Mi events). See [`crate::trace`].
    pub fn enable_tracing(&mut self) {
        self.enable_tracing_with_capacity(1 << 20);
    }

    /// Starts structured tracing, keeping at most `cap` most-recent events
    /// (per lane, on a multi-lane simulation).
    pub fn enable_tracing_with_capacity(&mut self, cap: usize) {
        self.tracing_cap = Some(cap);
        for core in self.lanes.iter() {
            core.state.borrow_mut().tracer = Some(Tracer::new(cap));
            core.trace_on
                .store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Stops structured tracing and discards buffered events and counters.
    pub fn disable_tracing(&mut self) {
        self.tracing_cap = None;
        for core in self.lanes.iter() {
            core.trace_on
                .store(false, std::sync::atomic::Ordering::Relaxed);
            core.state.borrow_mut().tracer = None;
        }
    }

    /// Drains and returns buffered structured events (oldest first).
    /// Counters are unaffected; tracing stays enabled. Lane 0 only — see
    /// [`Simulation::lane_trace_events`] for other lanes (thread and
    /// processor ids in trace events are lane-local).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        match self.lanes[0].state.borrow_mut().tracer.as_mut() {
            Some(tr) => tr.drain(),
            None => Vec::new(),
        }
    }

    /// Returns a copy of buffered structured events without draining.
    /// Lane 0 only; see [`Simulation::lane_trace_events`].
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.lane_trace_events(LaneId::ZERO)
    }

    /// Returns a copy of one lane's buffered structured events without
    /// draining. Thread and processor ids are local to that lane.
    pub fn lane_trace_events(&self, lane: LaneId) -> Vec<TraceEvent> {
        match self.lane_core(lane).state.borrow_mut().tracer.as_ref() {
            Some(tr) => tr.snapshot(),
            None => Vec::new(),
        }
    }

    /// Returns aggregate per-`(processor, layer, name)` counters, sorted.
    /// Lane 0 only (`ProcId`s are lane-local).
    pub fn trace_counters(&self) -> Vec<CounterSnapshot> {
        match self.lanes[0].state.borrow_mut().tracer.as_ref() {
            Some(tr) => tr.counters(),
            None => Vec::new(),
        }
    }

    /// Number of events evicted from the ring buffers so far, summed over
    /// lanes (each lane keeps its own ring).
    pub fn trace_dropped(&self) -> u64 {
        self.lanes
            .iter()
            .map(|c| {
                c.state
                    .borrow_mut()
                    .tracer
                    .as_ref()
                    .map_or(0, Tracer::dropped)
            })
            .sum()
    }

    /// Serializes currently buffered events as chrome://tracing JSON
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// On a multi-lane simulation, all lanes' events are merged by time
    /// (ties in lane order) with thread and processor ids remapped into the
    /// dense lane-major numbering of [`Simulation::proc_names`] /
    /// [`Simulation::thread_names`].
    pub fn chrome_trace_json(&self) -> String {
        let mut events = Vec::new();
        let mut procs = Vec::new();
        let mut threads = Vec::new();
        for core in self.lanes.iter() {
            let (p_off, t_off) = (procs.len(), threads.len());
            let st = core.state.borrow_mut();
            procs.extend(st.procs.iter().map(|p| p.name.clone()));
            threads.extend(st.threads.iter().map(|t| t.name.to_string()));
            if let Some(tr) = st.tracer.as_ref() {
                events.extend(tr.snapshot().into_iter().map(|mut e| {
                    // Dense lane-major pid: an export index, not a
                    // processor of any lane.
                    e.proc = ProcId::new(e.proc.lane(), e.proc.index() + p_off);
                    e.thread = ThreadId(e.thread.0 + t_off);
                    e
                }));
            }
        }
        // Stable sort: same-instant events keep lane order (lane-major
        // append), and within a lane their emission order.
        events.sort_by_key(|e| e.time);
        crate::trace::chrome_trace_json(&events, &procs, &threads)
    }

    /// Names of all processors, indexed by [`ProcId`] (lane-major on a
    /// multi-lane simulation; `ProcId`s themselves are lane-local).
    pub fn proc_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for core in self.lanes.iter() {
            names.extend(core.state.borrow_mut().procs.iter().map(|p| p.name.clone()));
        }
        names
    }

    /// Names of all threads, indexed by [`ThreadId`] (lane-major on a
    /// multi-lane simulation; `ThreadId`s themselves are lane-local).
    pub fn thread_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for core in self.lanes.iter() {
            names.extend(
                core.state
                    .borrow_mut()
                    .threads
                    .iter()
                    .map(|t| t.name.to_string()),
            );
        }
        names
    }

    /// Number of cancelled (dead-generation) wakes consumed so far
    /// (diagnostics; summed over lanes). Each still advanced the clock when
    /// popped — virtual time is independent of how cheaply they are
    /// recognized.
    pub fn stale_wakes(&self) -> u64 {
        self.lanes
            .iter()
            .map(|c| c.state.borrow_mut().wake.stale())
            .sum()
    }

    /// Event-queue accounting summed over lanes (see [`QueueStats`]): tier
    /// and overflow push counts, wheel re-placements, and the sum of per-lane
    /// peak depths. Deterministic — a property of the simulated program,
    /// not of wall-clock or shard count.
    pub fn queue_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for core in self.lanes.iter() {
            total.merge(&core.state.borrow_mut().queue_stats());
        }
        total
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        for core in &self.lanes {
            core.initiate_shutdown();
        }
        for f in std::mem::take(&mut self.teardown) {
            f();
        }
    }
}
