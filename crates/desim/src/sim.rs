//! The simulation driver: owns the virtual clock and runs the event loop —
//! the classic serial loop for single-lane simulations, or the conservative
//! windowed parallel loop (see [`crate::shard`]) once lanes exist.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::Backend;
use crate::channel::SimChannel;
use crate::core::{
    install_quiet_shutdown_hook, Core, ProcId, StepResult, ThreadId, ThreadState, WakeStatus,
};
use crate::ctx::Ctx;
use crate::fiber;
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

/// Window-engine accounting for the conservative windowed driver,
/// cumulative across runs of one [`Simulation`] (see
/// [`Simulation::window_stats`]). All-zero when only the classic serial
/// loop ever ran.
///
/// Everything except `barrier_wait_ns` is deterministic for a given
/// program, seed, and topology — independent of shard count and backend.
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
    /// or past the window edge (no state lock taken).
    pub lanes_skipped: u64,
    /// Wall-clock nanoseconds the coordinator spent in
    /// [`crate::shard`]'s window gate waiting for worker runners. Zero on
    /// single-runner hosts (the coordinator drives every lane itself).
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
}

impl fmt::Debug for ThreadHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadHandle")
            .field("thread", &self.tid)
            .finish()
    }
}

impl ThreadHandle {
    pub(crate) fn new(core: Arc<Core>, tid: ThreadId) -> Self {
        ThreadHandle { core, tid }
    }

    /// Returns the thread's identifier.
    pub fn id(&self) -> ThreadId {
        self.tid
    }

    /// Returns `true` once the thread body has returned.
    pub fn is_finished(&self) -> bool {
        self.core.state.lock().threads[self.tid.0].state == ThreadState::Finished
    }

    /// Blocks the calling simulated thread until this thread finishes.
    ///
    /// Caller and target must live on the same lane: a cross-lane join
    /// would schedule a wake into another lane's queue, bypassing the
    /// lookahead bound that makes parallel windows safe. Route cross-lane
    /// completion through a [`crate::XSender`] link instead.
    pub fn join(&self, ctx: &Ctx) {
        debug_assert!(
            Arc::ptr_eq(&self.core, ctx.core()),
            "cross-lane join: use a cross-lane link instead"
        );
        loop {
            {
                let mut st = self.core.state.lock();
                if st.threads[self.tid.0].state == ThreadState::Finished {
                    return;
                }
                let wid = st.prepare_block(ctx.thread_id(), "join");
                st.threads[self.tid.0].joiners.push((ctx.thread_id(), wid));
            }
            if ctx.yield_blocked() == WakeStatus::Shutdown {
                crate::core::shutdown_unwind_unless_panicking();
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
pub struct Simulation {
    /// Lane 0: the default lane every pre-lane API targets.
    core: Arc<Core>,
    /// Lanes 1.. (see [`Simulation::add_lane`]).
    extra: Vec<Arc<Core>>,
    /// Cross-lane links in registration order — which is the barrier-time
    /// flush order, part of the deterministic merge.
    links: LinkTable,
    shards: ShardCount,
    /// Cumulative window-engine accounting (see [`Simulation::window_stats`]).
    window_stats: WindowStats,
    seed: u64,
    fiber_stack_size: usize,
    /// Per-lane queue capacity hint (see
    /// [`SimulationBuilder::expected_threads`]); mirrored onto added lanes.
    expected_threads: usize,
    default_switch_cost: SimDuration,
    // Configuration mirrored onto lanes created after the setter ran:
    max_events: Option<u64>,
    perturb_seed: Option<u64>,
    tracing_cap: Option<usize>,
    /// Run by `Drop` once every thread has unwound (see
    /// [`Simulation::on_teardown`]).
    teardown: Vec<Box<dyn FnOnce() + Send>>,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.core.state.lock();
        f.debug_struct("Simulation")
            .field("now", &st.now)
            .field("threads", &st.threads.len())
            .field("procs", &st.procs.len())
            .field("lanes", &(1 + self.extra.len()))
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
/// use desim::{Backend, Simulation};
///
/// let sim = Simulation::builder()
///     .seed(42)
///     .backend(Backend::OsThreads)
///     .build();
/// assert_eq!(sim.backend(), Backend::OsThreads);
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    seed: u64,
    backend: Option<Backend>,
    fiber_stack_size: usize,
    shards: Option<usize>,
    expected_threads: usize,
}

impl SimulationBuilder {
    /// Seed for all simulation randomness (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Explicit execution backend, outranking the `DESIM_BACKEND`
    /// environment variable and [`crate::set_backend_override`]. Requesting
    /// [`Backend::Fibers`] on a target without the vendored context switch
    /// silently degrades to [`Backend::OsThreads`] (observable behaviour is
    /// identical).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Usable stack size for fiber-backed simulated threads (default
    /// 1 MiB). Pages are mapped lazily, so a generous size costs only
    /// address space; each stack additionally gets one guard page. Ignored
    /// by the OS-thread backend.
    pub fn fiber_stack_size(mut self, bytes: usize) -> Self {
        self.fiber_stack_size = bytes;
        self
    }

    /// Explicit shard count — the maximum number of runner OS threads for
    /// windowed parallel execution (`0` = auto, one per host core) —
    /// outranking the `DESIM_SHARDS` environment variable and
    /// [`crate::set_shards_override`]. Effective parallelism is
    /// `min(shards, lanes)`, so the knob never affects a single-lane
    /// simulation, and it never affects observable results on any
    /// simulation — only wall-clock time (see [`crate::shard`]).
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
        let backend = match self.backend {
            Some(b) => b.resolve(),
            None => Backend::default_backend(),
        };
        let shards = match self.shards {
            Some(0) => ShardCount::Auto,
            Some(n) => ShardCount::Fixed(n),
            None => shard::default_shards(),
        };
        Simulation {
            core: Core::new(
                self.seed,
                backend,
                self.fiber_stack_size,
                self.expected_threads,
            ),
            extra: Vec::new(),
            links: LinkTable::default(),
            shards,
            window_stats: WindowStats::default(),
            seed: self.seed,
            fiber_stack_size: self.fiber_stack_size,
            expected_threads: self.expected_threads,
            default_switch_cost: SimDuration::ZERO,
            max_events: None,
            perturb_seed: None,
            tracing_cap: None,
            teardown: Vec::new(),
        }
    }
}

impl Simulation {
    /// Creates a simulation seeded with `seed` for all randomness, on the
    /// default execution backend (see [`Backend::default_backend`]).
    pub fn new(seed: u64) -> Self {
        Self::builder().seed(seed).build()
    }

    /// Returns a builder for configuring seed, execution backend, and
    /// fiber stack size.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder {
            seed: 0,
            backend: None,
            fiber_stack_size: fiber::DEFAULT_STACK_SIZE,
            shards: None,
            expected_threads: 0,
        }
    }

    /// The execution backend this simulation runs its threads on.
    pub fn backend(&self) -> Backend {
        self.core.backend()
    }

    /// All lanes, lane 0 first.
    fn cores(&self) -> impl Iterator<Item = &Arc<Core>> {
        std::iter::once(&self.core).chain(self.extra.iter())
    }

    fn lane_core(&self, lane: LaneId) -> &Arc<Core> {
        if lane.0 == 0 {
            &self.core
        } else {
            self.extra
                .get(lane.index() - 1)
                .unwrap_or_else(|| panic!("unknown lane {lane}; call add_lane first"))
        }
    }

    /// Number of scheduler lanes (at least 1).
    pub fn lanes(&self) -> usize {
        1 + self.extra.len()
    }

    /// The effective runner count a windowed run would use on this host:
    /// the configured shard count clamped to the lane count.
    pub fn shards(&self) -> usize {
        self.shards.resolve().min(self.lanes()).max(1)
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
    /// buffers. Processors and threads are placed on it with
    /// [`Simulation::add_processor_on`] / [`Simulation::spawn_on_lane`];
    /// lanes interact only through [`Simulation::cross_link`]. With more
    /// than one lane, [`Simulation::run`] switches to conservative windowed
    /// execution — observably identical to serial, parallel up to the
    /// configured shard count (see [`crate::shard`]).
    pub fn add_lane(&mut self) -> LaneId {
        let idx = self.extra.len() + 1;
        let core = Core::new(
            shard::lane_seed(self.seed, idx as u64),
            self.backend(),
            self.fiber_stack_size,
            self.expected_threads,
        );
        {
            let mut st = core.state.lock();
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
        self.extra.push(core);
        LaneId(idx as u32)
    }

    /// Adds a processor on the given lane (see [`Simulation::add_processor`]).
    pub fn add_processor_on(&mut self, lane: LaneId, name: &str) -> ProcId {
        self.lane_core(lane)
            .add_processor(name, self.default_switch_cost)
    }

    /// Adds a processor with an explicit context-switch cost on the given
    /// lane (the lane-aware form of
    /// [`Simulation::add_processor_with_switch_cost`]). Processor ids are
    /// per-lane indices: the returned id is only meaningful together with
    /// `lane` and must be paired with [`Simulation::spawn_on_lane`] /
    /// [`Simulation::spawn_daemon_on_lane`] on the same lane.
    pub fn add_processor_with_switch_cost_on(
        &mut self,
        lane: LaneId,
        name: &str,
        cost: SimDuration,
    ) -> ProcId {
        self.lane_core(lane).add_processor(name, cost)
    }

    /// Spawns a simulated thread on a processor of the given lane.
    ///
    /// The returned handle must only be joined from the same lane.
    pub fn spawn_on_lane<F>(&mut self, lane: LaneId, proc: ProcId, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let core = Arc::clone(self.lane_core(lane));
        let tid = core.spawn_thread(proc, name, false, f);
        ThreadHandle::new(core, tid)
    }

    /// Spawns a daemon thread on a processor of the given lane (see
    /// [`Simulation::spawn_daemon`]).
    pub fn spawn_daemon_on_lane<F>(
        &mut self,
        lane: LaneId,
        proc: ProcId,
        name: &str,
        f: F,
    ) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let core = Arc::clone(self.lane_core(lane));
        let tid = core.spawn_thread(proc, name, true, f);
        ThreadHandle::new(core, tid)
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
    /// parallel windows safe. `dst_proc` must be a processor of `dst_lane`
    /// (kept for placement symmetry with the rest of the lane API), and the
    /// sender must only be used from `src_lane` (debug-asserted on send).
    ///
    /// # Panics
    ///
    /// Panics if `delay` is zero, the lanes are equal, or `dst_proc` is not
    /// a processor of `dst_lane`.
    pub fn cross_link<T: Send + 'static>(
        &mut self,
        name: &str,
        delay: SimDuration,
        src_lane: LaneId,
        dst_lane: LaneId,
        dst_proc: ProcId,
        dst: SimChannel<T>,
    ) -> XSender<T> {
        assert_ne!(
            src_lane, dst_lane,
            "cross_link connects two different lanes; same-lane traffic \
             uses plain channels"
        );
        assert!(
            dst_proc.0 < self.lane_core(dst_lane).state.lock().procs.len(),
            "cross_link {name}: {dst_proc:?} is not a processor of {dst_lane}"
        );
        let (src, dst_core) = (
            Arc::clone(self.lane_core(src_lane)),
            Arc::clone(self.lane_core(dst_lane)),
        );
        self.links
            .register(delay, &src, &dst_core, dst_lane.index(), dst)
    }

    /// Sets the context-switch cost used for processors added *afterwards*.
    pub fn set_default_switch_cost(&mut self, cost: SimDuration) {
        self.default_switch_cost = cost;
    }

    /// Caps the total number of wake events; [`Simulation::run`] returns
    /// [`SimError::EventLimitExceeded`] past the cap. A safety net against
    /// runaway protocols (e.g. retransmission storms).
    ///
    /// The budget lives in the shared scheduler state because both the
    /// scheduler and the thread-side hand-off fast path check it before
    /// every pop.
    pub fn set_max_events(&mut self, limit: u64) {
        self.max_events = Some(limit);
        for core in self.cores() {
            core.state.lock().max_events = Some(limit);
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
        for (idx, core) in self.cores().enumerate() {
            // Per-lane derived streams (lane 0 keeps `seed` verbatim), so a
            // lane's tie draws depend only on its own schedule — never on
            // how other lanes interleave.
            core.state.lock().perturb =
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

    /// Adds a processor (one CPU) and returns its id.
    pub fn add_processor(&mut self, name: &str) -> ProcId {
        self.core.add_processor(name, self.default_switch_cost)
    }

    /// Adds a processor with an explicit context-switch cost.
    pub fn add_processor_with_switch_cost(&mut self, name: &str, cost: SimDuration) -> ProcId {
        self.core.add_processor(name, cost)
    }

    /// Spawns a simulated thread on `proc`; it starts when the run begins.
    pub fn spawn<F>(&mut self, proc: ProcId, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let tid = self.core.spawn_thread(proc, name, false, f);
        ThreadHandle::new(Arc::clone(&self.core), tid)
    }

    /// Spawns a daemon thread: it may remain blocked forever without the run
    /// being reported as a deadlock (e.g. protocol receive daemons).
    pub fn spawn_daemon<F>(&mut self, proc: ProcId, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let tid = self.core.spawn_thread(proc, name, true, f);
        ThreadHandle::new(Arc::clone(&self.core), tid)
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
        self.run_inner(None)
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
            .cores()
            .position(|c| Arc::ptr_eq(c, &target.core))
            .expect("thread handle belongs to another simulation");
        self.run_inner(Some((lane, target.id())))
    }

    fn run_inner(&mut self, stop_on: Option<(usize, ThreadId)>) -> Result<SimReport, SimError> {
        if self.extra.is_empty() && self.links.len() == 0 {
            return self.run_classic(stop_on.map(|(_, t)| t));
        }
        self.run_windowed(stop_on)
    }

    /// The single-lane event loop — byte-identical to what every simulation
    /// ran before lanes existed (the windowed driver is dispatched only
    /// when a second lane or a link exists).
    fn run_classic(&mut self, stop_on: Option<ThreadId>) -> Result<SimReport, SimError> {
        // The stop/limit checks live inside `Core::step` so the whole event
        // loop — including skipping cancelled wakes — runs under a single
        // state lock acquisition per resumption. Most events never even
        // reach this loop: blocking threads hand the turn directly to each
        // other and the scheduler only sees chain breaks.
        loop {
            match self.core.step(stop_on) {
                StepResult::Progress => {}
                StepResult::TargetFinished => return Ok(self.report()),
                StepResult::LimitExceeded => {
                    let limit = self
                        .core
                        .state
                        .lock()
                        .max_events
                        .expect("limit was configured");
                    return Err(SimError::EventLimitExceeded { limit });
                }
                StepResult::WindowEdge => unreachable!("window limit outside windowed execution"),
                StepResult::Drained => break,
            }
        }
        self.drained_result(stop_on.is_some())
    }

    /// Queue(s) drained: every non-daemon thread must have finished, and a
    /// `stop_on` target reaching this point never finished. On a
    /// multi-lane simulation each blocked thread's name carries its lane
    /// (`lane2/client-7`), since thread names need not be unique across
    /// lanes.
    fn drained_result(&self, had_target: bool) -> Result<SimReport, SimError> {
        let multi = self.lanes() > 1;
        let mut blocked: Vec<(String, &'static str)> = Vec::new();
        for (lane, core) in self.cores().enumerate() {
            let st = core.state.lock();
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

    /// The conservative windowed driver (see [`crate::shard`] for the
    /// scheme and the bit-identity argument). Structure per round, with
    /// every lane stopped between the gate's `done` and the next `open`:
    ///
    /// 1. flush every cross-lane link that carried traffic, in registration
    ///    order — one swap per 64 links of the dirty bitmap, quiet links
    ///    never touched;
    /// 2. stop if the target finished, a lane hit its event budget, or the
    ///    summed budget is exhausted — all read from the lanes' published
    ///    atomic slots, no state lock;
    /// 3. `T_min` ← earliest published instant over all lanes (none = done);
    /// 4. open the window `[T_min, T_min + lookahead)` on every lane
    ///    (unbounded when no links exist — the lanes are independent);
    /// 5. advance all lanes to their window edge, in parallel across the
    ///    runner pool (lane→runner assignment is round-robin; any
    ///    assignment is correct, parallelism only affects wall-clock). A
    ///    lane whose published next event lies at or past the window edge
    ///    is skipped without taking its state lock; each driven lane
    ///    republishes its slot under the one lock acquisition it already
    ///    pays.
    fn run_windowed(&mut self, stop: Option<(usize, ThreadId)>) -> Result<SimReport, SimError> {
        use std::panic;
        use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering as AO};
        use std::time::Instant;

        let cores: Vec<Arc<Core>> = self.cores().cloned().collect();
        let lanes = cores.len();
        let runners = self.shards();
        let lookahead = self.lookahead();

        const OUT_PAUSED: u8 = 0; // Drained or WindowEdge
        const OUT_LIMIT: u8 = 1;
        const OUT_TARGET: u8 = 2;
        let outcomes: Vec<AtomicU8> = (0..lanes).map(|_| AtomicU8::new(OUT_PAUSED)).collect();
        // A target that already finished in an earlier run must stop the
        // driver before it runs a window (the pre-diet driver checked the
        // target's thread state directly at the barrier).
        if let Some((sl, t)) = stop {
            if cores[sl].state.lock().threads[t.0].state == ThreadState::Finished {
                outcomes[sl].store(OUT_TARGET, AO::Relaxed);
            }
        }
        // Published lane positions: the coordinator's entire between-window
        // bookkeeping (`T_min`, budget, target, idle-lane skip) reads these
        // slots instead of taking lane state locks.
        let slots: Vec<LaneSlot> = cores
            .iter()
            .map(|c| {
                let st = c.state.lock();
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
                        StepResult::Drained | StepResult::WindowEdge => break OUT_PAUSED,
                        StepResult::TargetFinished => break OUT_TARGET,
                        StepResult::LimitExceeded => break OUT_LIMIT,
                    }
                }));
                match result {
                    Ok(o) => {
                        {
                            let st = core.state.lock();
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
                for c in &cores {
                    c.window_limit.store(wend_ns, AO::Relaxed);
                }
                #[cfg(debug_assertions)]
                for c in &cores {
                    c.state.lock().set_window_floor(SimTime::from_nanos(t_min));
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
                    for c in &cores {
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
        for c in &cores {
            c.window_limit
                .store(u64::MAX, std::sync::atomic::Ordering::Relaxed);
        }
        #[cfg(debug_assertions)]
        for c in &cores {
            c.state.lock().set_window_floor(SimTime::ZERO);
        }
        stats.events = slots
            .iter()
            .map(|sl| sl.events.load(std::sync::atomic::Ordering::Relaxed))
            .sum::<u64>()
            - start_events;
        stats.lanes_skipped = skipped.load(std::sync::atomic::Ordering::Relaxed);
        self.window_stats.windows += stats.windows;
        self.window_stats.events += stats.events;
        self.window_stats.flushes += stats.flushes;
        self.window_stats.flushes_elided += stats.flushes_elided;
        self.window_stats.lanes_skipped += stats.lanes_skipped;
        self.window_stats.barrier_wait_ns += stats.barrier_wait_ns;
        match outcome {
            Ok(true) => Ok(self.report()),
            Ok(false) => self.drained_result(stop.is_some()),
            Err(()) => Err(SimError::EventLimitExceeded {
                limit: self.max_events.expect("limit was configured"),
            }),
        }
    }

    /// Window-engine accounting, cumulative across runs (all-zero when only
    /// the classic serial loop ever ran). Everything except
    /// `barrier_wait_ns` is deterministic per program/seed/topology —
    /// independent of shard count and backend; `barrier_wait_ns` is
    /// wall-clock and must never feed a result hash.
    pub fn window_stats(&self) -> WindowStats {
        self.window_stats
    }

    /// Returns the current virtual time (on a multi-lane simulation: the
    /// most-advanced lane's clock).
    pub fn now(&self) -> SimTime {
        self.cores()
            .map(|c| c.state.lock().now)
            .max()
            .expect("at least one lane")
    }

    /// Returns one lane's virtual clock (lanes advance independently
    /// between window barriers, so clocks legitimately differ).
    pub fn lane_now(&self, lane: LaneId) -> SimTime {
        self.lane_core(lane).state.lock().now
    }

    /// Returns a snapshot report of the accounting so far. Multi-lane:
    /// events are summed, `final_time` is the most-advanced lane's clock,
    /// and processors are listed lane-major (lane 0's first).
    pub fn report(&self) -> SimReport {
        let mut final_time = SimTime::ZERO;
        let mut events = 0u64;
        let mut procs = Vec::new();
        for core in self.cores() {
            let st = core.state.lock();
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
        for core in self.cores() {
            core.state.lock().tracer = Some(Tracer::new(cap));
            core.trace_on
                .store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Stops structured tracing and discards buffered events and counters.
    pub fn disable_tracing(&mut self) {
        self.tracing_cap = None;
        for core in self.cores() {
            core.trace_on
                .store(false, std::sync::atomic::Ordering::Relaxed);
            core.state.lock().tracer = None;
        }
    }

    /// Drains and returns buffered structured events (oldest first).
    /// Counters are unaffected; tracing stays enabled. Lane 0 only — see
    /// [`Simulation::lane_trace_events`] for other lanes (thread and
    /// processor ids in trace events are lane-local).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        match self.core.state.lock().tracer.as_mut() {
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
        match self.lane_core(lane).state.lock().tracer.as_ref() {
            Some(tr) => tr.snapshot(),
            None => Vec::new(),
        }
    }

    /// Returns aggregate per-`(processor, layer, name)` counters, sorted.
    /// Lane 0 only (`ProcId`s are lane-local).
    pub fn trace_counters(&self) -> Vec<CounterSnapshot> {
        match self.core.state.lock().tracer.as_ref() {
            Some(tr) => tr.counters(),
            None => Vec::new(),
        }
    }

    /// Number of events evicted from the ring buffer so far (lane 0).
    pub fn trace_dropped(&self) -> u64 {
        match self.core.state.lock().tracer.as_ref() {
            Some(tr) => tr.dropped(),
            None => 0,
        }
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
        for core in self.cores() {
            let (p_off, t_off) = (procs.len(), threads.len());
            let st = core.state.lock();
            procs.extend(st.procs.iter().map(|p| p.name.clone()));
            threads.extend(st.threads.iter().map(|t| t.name.to_string()));
            if let Some(tr) = st.tracer.as_ref() {
                events.extend(tr.snapshot().into_iter().map(|mut e| {
                    e.proc = ProcId(e.proc.0 + p_off);
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
        for core in self.cores() {
            names.extend(core.state.lock().procs.iter().map(|p| p.name.clone()));
        }
        names
    }

    /// Names of all threads, indexed by [`ThreadId`] (lane-major on a
    /// multi-lane simulation; `ThreadId`s themselves are lane-local).
    pub fn thread_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for core in self.cores() {
            names.extend(core.state.lock().threads.iter().map(|t| t.name.to_string()));
        }
        names
    }

    /// Number of events still queued (diagnostics; summed over lanes).
    pub fn pending_events(&self) -> usize {
        self.cores().map(|c| c.state.lock().queue_len()).sum()
    }

    /// Number of cancelled (dead-generation) wakes consumed so far
    /// (diagnostics; summed over lanes). Each still advanced the clock when
    /// popped — virtual time is independent of how cheaply they are
    /// recognized.
    pub fn stale_wakes(&self) -> u64 {
        self.cores().map(|c| c.state.lock().wake.stale()).sum()
    }

    /// Event-queue accounting summed over lanes (see [`QueueStats`]): tier
    /// and overflow push counts, wheel cascades, and the sum of per-lane
    /// peak depths. Deterministic — a property of the simulated program,
    /// not of wall-clock or shard count.
    pub fn queue_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for core in self.cores() {
            total.merge(&core.state.lock().queue_stats());
        }
        total
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        for core in std::iter::once(&self.core).chain(self.extra.iter()) {
            core.initiate_shutdown();
        }
        for f in std::mem::take(&mut self.teardown) {
            f();
        }
    }
}
