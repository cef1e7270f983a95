//! The per-thread handle simulated code uses to interact with virtual time,
//! the CPU model, and the scheduler.

use std::cell::Cell;
use std::panic;
use std::sync::Arc;

use rand::RngExt;

use crate::core::{Core, CoreState, LaneKey, ProcId, ShutdownUnwind, ThreadId, WakeStatus};
use crate::fiber::Fiber;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Layer, Phase};
use crate::turn::TurnGuard;
use crate::ThreadHandle;

/// The longest stretch of [`Ctx::compute`] work that holds the processor.
const CPU_QUANTUM: SimDuration = SimDuration::from_millis(1);

/// Where a [`Ctx::charge`] spends the sum of its terms.
///
/// The Amoeba paper's central asymmetry is *who pays for thread switches*:
/// kernel-space protocol work runs at interrupt level and resumes the blocked
/// caller directly, while user-space protocol work runs in ordinary threads
/// and pays for scheduling. `Thread` lets that asymmetry emerge from the CPU
/// model; `ThreadSwitch` is used where the paper reports a measured,
/// path-specific cost (e.g. the 110 µs interrupt-to-sequencer-thread
/// dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    /// Thread-level work in one occupancy: it waits for the CPU and pays
    /// the context switch if another thread ran last.
    Thread,
    /// Thread-level work that pays exactly this switch cost (counted as a
    /// switch when non-zero) instead of the processor's.
    ThreadSwitch(SimDuration),
    /// Interrupt-level work: it does not wait for the CPU, and any
    /// concurrent thread-level work on the same processor is extended by
    /// it. It does not update the "last thread" register, so a thread
    /// resumed right after interrupt processing pays no context switch —
    /// the kernel-space fast path the paper measures.
    Interrupt,
    /// No CPU: attribution only, for latency spent off any processor.
    Off,
}

/// Handle through which a simulated thread talks to the simulation.
///
/// A `Ctx` is handed to every thread body spawned via
/// [`crate::Simulation::spawn`] or [`Ctx::spawn`]. All blocking primitives
/// ([`crate::SimMutex`], [`crate::SimChannel`]) take a
/// `&Ctx` so they can suspend the calling thread in virtual time.
pub struct Ctx {
    core: Arc<Core>,
    tid: ThreadId,
    /// This thread's own fiber, cached once at construction so blocking
    /// never re-fetches it from the thread table under the state borrow. The
    /// pointer stays valid for the `Ctx`'s whole life: the boxed fiber is
    /// heap-stable and thread records are never removed while `core` is
    /// alive.
    exec: *const Fiber,
    /// The processor this thread runs on; a thread never migrates.
    proc: ProcId,
    /// The key of this thread's lane, cached from `core` for the channel
    /// binding check every channel operation makes.
    lane: LaneKey,
    /// Set once this thread has raised its `ShutdownUnwind` (see
    /// [`Ctx::shutdown_unwind`]).
    shutdown_raised: Cell<bool>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("thread", &self.tid).finish()
    }
}

impl Ctx {
    pub(crate) fn new(core: Arc<Core>, tid: ThreadId) -> Self {
        let (exec, proc) = {
            let st = core.state.borrow_mut();
            let rec = &st.threads[tid.0];
            (rec.fiber_ptr(), rec.proc)
        };
        Ctx {
            lane: core.key,
            core,
            tid,
            exec,
            proc,
            shutdown_raised: Cell::new(false),
        }
    }

    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.core
    }

    /// The key of the lane this thread runs on.
    pub(crate) fn lane_key(&self) -> LaneKey {
        self.lane
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.state.borrow_mut().now
    }

    /// Returns this thread's identifier.
    pub fn thread_id(&self) -> ThreadId {
        self.tid
    }

    /// Returns the processor this thread runs on.
    pub fn processor(&self) -> ProcId {
        self.proc
    }

    /// Returns this thread's diagnostic name.
    pub fn name(&self) -> String {
        self.core.state.borrow_mut().threads[self.tid.0]
            .name
            .to_string()
    }

    /// Yields control and resumes once the registered wake fires.
    ///
    /// `st` is the guard under which the caller registered its wait via
    /// `prepare_block`; the next event is popped under it, so a blocking
    /// transition borrows the state once. Returns
    /// [`WakeStatus::Shutdown`] if the simulation is shutting down.
    ///
    /// This is the entry to the hand-off fast path (see `core`'s module
    /// docs): if this thread's own wake heads the queue it returns without
    /// any OS-level switch, and if another thread's wake does it grants that
    /// thread directly instead of detouring through the scheduler.
    pub(crate) fn yield_blocked(&self, st: TurnGuard<'_, CoreState>) -> WakeStatus {
        crate::core::yield_blocked(&self.core, st, self.tid, self.exec)
    }

    /// Unwinds this thread because the simulation is shutting down — once.
    /// If the thread already raised its `ShutdownUnwind` (a destructor
    /// re-entered a blocking primitive during that unwind), returns so the
    /// caller can produce a benign fallback value instead of a double panic.
    ///
    /// The flag is per simulated thread on purpose: every fiber shares its
    /// host OS thread's `std::thread::panicking()`, so a host thread that
    /// drops a `Simulation` while unwinding its own panic would otherwise
    /// send every thread down the benign path, and a thread looping on
    /// [`Ctx::sleep`] would spin forever.
    pub(crate) fn shutdown_unwind(&self) {
        if !self.shutdown_raised.replace(true) {
            panic::panic_any(ShutdownUnwind);
        }
    }

    /// True once this thread has raised its `ShutdownUnwind`.
    pub(crate) fn shutdown_raised(&self) -> bool {
        self.shutdown_raised.get()
    }

    /// Suspends the thread for `d` of virtual time without occupying a CPU.
    ///
    /// Use this to model pure waiting (timers, wire propagation). To model
    /// work that keeps the processor busy, use [`Ctx::compute`].
    pub fn sleep(&self, d: SimDuration) {
        self.sleep_borrowed(self.core.state.borrow_mut(), d);
    }

    /// [`Ctx::sleep`] under a state borrow the caller already holds.
    fn sleep_borrowed(&self, mut st: TurnGuard<'_, CoreState>, d: SimDuration) {
        let wid = st.prepare_block(self.tid, "sleep");
        let at = st.now + d;
        st.schedule_wake(at, self.tid, wid);
        if self.yield_blocked(st) == WakeStatus::Shutdown {
            self.shutdown_unwind();
        }
    }

    /// Performs `d` of CPU work on this thread's processor.
    ///
    /// Each slice of at most 1 ms (`CPU_QUANTUM`) acquires the processor (FIFO
    /// among threads), pays the context-switch cost if another thread ran
    /// since this one last held the CPU, and is extended by any
    /// interrupt-level work that steals the CPU while it runs. Releasing
    /// the CPU between slices lets protocol daemons interleave with long
    /// application compute, approximating Amoeba's preemptive kernel
    /// threads. `d` of zero takes no CPU. Named protocol costs go through
    /// [`Ctx::charge`].
    pub fn compute(&self, d: SimDuration) {
        let mut remaining = d;
        while !remaining.is_zero() {
            let slice = remaining.min(CPU_QUANTUM);
            self.thread_compute(slice, None);
            remaining -= slice;
        }
    }

    /// Charges the named cost `terms` of `layer` in one occupancy: emits one
    /// cost instant (`("ns", d)`, what the latency budget sums) per non-zero
    /// term, in order, at the call instant, then spends the sum `on` the
    /// processor. Splitting one occupancy over several calls would release
    /// and re-acquire the CPU in between and move virtual time. A zero-sum
    /// `Thread` charge still takes the CPU and pays the switch.
    pub fn charge(&self, layer: Layer, on: On, terms: &[(&'static str, SimDuration)]) {
        for &(name, d) in terms.iter().filter(|(_, d)| !d.is_zero()) {
            self.trace_instant(layer, name, &[("ns", d.as_nanos())]);
        }
        let d = terms.iter().map(|&(_, d)| d).sum();
        match on {
            On::Thread => self.thread_compute(d, None),
            On::ThreadSwitch(cs) => self.thread_compute(d, Some(cs)),
            On::Interrupt => self.interrupt_compute(d),
            On::Off => {}
        }
    }

    /// Thread-level CPU work; `switch` overrides the processor's
    /// context-switch cost (`None` charges it iff another thread ran last).
    ///
    /// Two state borrows when the CPU is free: one acquires it, charges the
    /// switch and blocks for the occupancy; one per wake reads the theft
    /// and releases (or re-blocks for the stolen time). Waiting for a held
    /// CPU adds one for the wait and one after the grant.
    fn thread_compute(&self, d: SimDuration, switch: Option<SimDuration>) {
        let me = self.tid;
        let proc = self.proc;
        let mut st = self.core.state.borrow_mut();
        // Acquire the CPU.
        let pr = &mut st.procs[proc.index()];
        debug_assert_ne!(pr.holder, Some(me), "recursive compute on one CPU");
        if pr.holder.is_none() {
            pr.holder = Some(me);
        } else {
            let wid = st.prepare_block(me, "cpu");
            st.procs[proc.index()].waiters.push_back((me, wid));
            if self.yield_blocked(st) == WakeStatus::Shutdown {
                self.shutdown_unwind();
            }
            st = self.core.state.borrow_mut();
            debug_assert_eq!(
                st.procs[proc.index()].holder,
                Some(me),
                "woken CPU waiter must have been granted the CPU"
            );
        }
        // Context-switch charge.
        let pr = &mut st.procs[proc.index()];
        let cs = match switch {
            None => {
                if pr.last_thread_holder.is_some() && pr.last_thread_holder != Some(me) {
                    pr.switches += 1;
                    pr.switch_cost
                } else {
                    SimDuration::ZERO
                }
            }
            Some(c) => {
                if !c.is_zero() {
                    pr.switches += 1;
                }
                c
            }
        };
        if !cs.is_zero() && self.core.tracing_enabled() {
            st.trace_event(
                me,
                Layer::Sched,
                Phase::Instant,
                "switch",
                &[("ns", cs.as_nanos())],
            );
        }
        // Occupy the CPU, extended by interrupt-level theft.
        let start = st.now;
        let mut remaining = d + cs;
        while !remaining.is_zero() {
            let s0 = st.procs[proc.index()].stolen_total;
            self.sleep_borrowed(st, remaining);
            st = self.core.state.borrow_mut();
            remaining = st.procs[proc.index()].stolen_total - s0;
        }
        // Release and grant to the next waiter, if any.
        let elapsed = st.now.saturating_duration_since(start);
        let pr = &mut st.procs[proc.index()];
        pr.busy += elapsed;
        pr.holder = None;
        pr.last_thread_holder = Some(me);
        if let Some((t, w)) = pr.waiters.pop_front() {
            pr.holder = Some(t);
            st.schedule_wake_now(t, w);
        }
    }

    /// Interrupt-level CPU work (see [`On::Interrupt`]).
    fn interrupt_compute(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        self.sleep(d);
        let mut st = self.core.state.borrow_mut();
        let pr = &mut st.procs[self.proc.index()];
        pr.stolen_total += d;
        pr.interrupt_time += d;
    }

    /// Spawns a new simulated thread on the same processor.
    pub fn spawn<F>(&self, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.spawn_on(self.proc, name, f)
    }

    /// Spawns a new simulated thread on the given processor.
    ///
    /// # Panics
    ///
    /// Panics if `proc` belongs to another lane than this thread's: a
    /// thread runs only on its processor's lane, and lanes interact only
    /// through cross-lane links.
    pub fn spawn_on<F>(&self, proc: ProcId, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        assert!(
            proc.lane() == self.proc.lane(),
            "spawn: {proc} is a processor of {}, but the spawning thread runs \
             on {}; a thread runs only on its processor's lane",
            proc.lane(),
            self.proc.lane()
        );
        self.core.spawn_thread(proc, name, false, f)
    }

    /// Commits wakes captured by [`crate::SimChannel::send_deferred`], in
    /// order, at the current instant, under a single borrow of the
    /// scheduler state.
    ///
    /// Equivalent to having called [`crate::SimChannel::send`] for each
    /// message as long as nothing ran in between the deferred sends — which
    /// is guaranteed inside one simulated thread, since only one thread runs
    /// at a time. This is the fan-out batching primitive: a broadcast
    /// delivery enqueues the frame on every receiver first, then schedules
    /// every wake under one state borrow instead of one per receiver.
    pub fn commit_wakes(&self, wakes: impl IntoIterator<Item = crate::PendingWake>) {
        let mut st = self.core.state.borrow_mut();
        for w in wakes {
            let (thread, wait_id) = w.into_parts();
            st.schedule_wake_now(thread, wait_id);
        }
    }

    /// Returns a uniformly distributed value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn rand_range(&self, n: u64) -> u64 {
        assert!(n > 0, "rand_range: n must be positive");
        self.core.state.borrow_mut().rng.random_range(0..n)
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn rand_f64(&self) -> f64 {
        self.core.state.borrow_mut().rng.random()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn rand_bool(&self, p: f64) -> bool {
        self.rand_f64() < p
    }

    /// True if structured tracing is enabled. One relaxed atomic load; use
    /// to skip argument construction for hot-path events.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.core.tracing_enabled()
    }

    /// Emits a structured trace event (see [`crate::Simulation::enable_tracing`]).
    ///
    /// Emission never sleeps, computes, or draws randomness, so enabling or
    /// disabling tracing cannot change virtual time.
    #[inline]
    pub fn trace_emit(
        &self,
        layer: Layer,
        phase: Phase,
        name: &'static str,
        args: &[(&'static str, u64)],
    ) {
        if !self.core.tracing_enabled() {
            return;
        }
        self.core
            .state
            .borrow_mut()
            .trace_event(self.tid, layer, phase, name, args);
    }

    /// Emits an instant event.
    #[inline]
    pub fn trace_instant(&self, layer: Layer, name: &'static str, args: &[(&'static str, u64)]) {
        self.trace_emit(layer, Phase::Instant, name, args);
    }
}
