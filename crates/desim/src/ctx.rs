//! The per-thread handle simulated code uses to interact with virtual time,
//! the CPU model, and the scheduler.

use std::sync::Arc;

use rand::RngExt;

use crate::core::{
    shutdown_unwind_unless_panicking, Core, ExecRef, ProcId, ThreadExec, ThreadId, WakeStatus,
};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Layer, Phase};
use crate::ThreadHandle;

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
    /// Thread-level work, as [`Ctx::compute`].
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
/// ([`crate::SimMutex`], [`crate::SimCondvar`], [`crate::SimChannel`]) take a
/// `&Ctx` so they can suspend the calling thread in virtual time.
pub struct Ctx {
    core: Arc<Core>,
    tid: ThreadId,
    /// This thread's own execution resource (conduit or fiber), cached once
    /// at construction so blocking never re-fetches it from the thread
    /// table under the state lock.
    exec: ExecRef,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("thread", &self.tid).finish()
    }
}

impl Ctx {
    pub(crate) fn new(core: Arc<Core>, tid: ThreadId) -> Self {
        let exec = match &core.state.lock().threads[tid.0].exec {
            ThreadExec::Os { conduit, .. } => ExecRef::Os(Arc::clone(conduit)),
            // The raw pointer stays valid for the `Ctx`'s whole life: the
            // boxed fiber is heap-stable and thread records are never
            // removed while the core behind `self.core` is alive.
            ThreadExec::Fiber(f) => ExecRef::Fiber(&**f as *const _),
            ThreadExec::Retired => unreachable!("retired threads never get a Ctx"),
        };
        Ctx { core, tid, exec }
    }

    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.core
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.state.lock().now
    }

    /// Returns this thread's identifier.
    pub fn thread_id(&self) -> ThreadId {
        self.tid
    }

    /// Returns the processor this thread runs on.
    pub fn processor(&self) -> ProcId {
        self.core.state.lock().threads[self.tid.0].proc
    }

    /// Returns this thread's diagnostic name.
    pub fn name(&self) -> String {
        self.core.state.lock().threads[self.tid.0].name.to_string()
    }

    /// Yields control and resumes once the registered wake fires.
    ///
    /// Callers must have registered a wait via `prepare_block` while holding
    /// the core lock. Unwinds the thread if the simulation is shutting down.
    ///
    /// This is the entry to the hand-off fast path (see `core`'s module
    /// docs): if this thread's own wake heads the queue it returns without
    /// any OS-level switch, and if another thread's wake does it grants that
    /// thread directly instead of detouring through the scheduler.
    pub(crate) fn yield_blocked(&self) -> WakeStatus {
        crate::core::yield_blocked(&self.core, self.tid, &self.exec)
    }

    /// Suspends the thread for `d` of virtual time without occupying a CPU.
    ///
    /// Use this to model pure waiting (timers, wire propagation). To model
    /// work that keeps the processor busy, use [`Ctx::compute`].
    pub fn sleep(&self, d: SimDuration) {
        let _ = {
            let mut st = self.core.state.lock();
            let wid = st.prepare_block(self.tid, "sleep");
            let at = st.now + d;
            st.schedule_wake(at, self.tid, wid);
            wid
        };
        if self.yield_blocked() == WakeStatus::Shutdown {
            shutdown_unwind_unless_panicking();
        }
    }

    /// Performs `d` of CPU work on this thread's processor.
    ///
    /// The call acquires the processor (FIFO among threads), pays the
    /// context-switch cost if another thread ran since this one last held the
    /// CPU, and is extended by any interrupt-level work that steals the CPU
    /// while it runs. Named protocol costs go through [`Ctx::charge`].
    pub fn compute(&self, d: SimDuration) {
        self.thread_compute(d, None);
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
    fn thread_compute(&self, d: SimDuration, switch: Option<SimDuration>) {
        let me = self.tid;
        let proc = self.processor();
        // Acquire the CPU.
        let acquired = {
            let mut st = self.core.state.lock();
            let pr = &mut st.procs[proc.0];
            debug_assert_ne!(pr.holder, Some(me), "recursive compute on one CPU");
            if pr.holder.is_none() {
                pr.holder = Some(me);
                true
            } else {
                let wid = st.prepare_block(me, "cpu");
                st.procs[proc.0].waiters.push_back((me, wid));
                false
            }
        };
        if !acquired {
            if self.yield_blocked() == WakeStatus::Shutdown {
                shutdown_unwind_unless_panicking();
            }
            debug_assert_eq!(
                self.core.state.lock().procs[proc.0].holder,
                Some(me),
                "woken CPU waiter must have been granted the CPU"
            );
        }
        // Context-switch charge.
        let cs = {
            let mut st = self.core.state.lock();
            let pr = &mut st.procs[proc.0];
            match switch {
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
            }
        };
        if !cs.is_zero() && self.core.tracing_enabled() {
            let mut st = self.core.state.lock();
            st.trace_event(
                me,
                Layer::Sched,
                Phase::Instant,
                "switch",
                &[("ns", cs.as_nanos())],
            );
        }
        // Occupy the CPU, extended by interrupt-level theft.
        let start = self.now();
        let mut remaining = d + cs;
        while !remaining.is_zero() {
            let s0 = self.core.state.lock().procs[proc.0].stolen_total;
            self.sleep(remaining);
            let s1 = self.core.state.lock().procs[proc.0].stolen_total;
            remaining = s1 - s0;
        }
        // Release and grant to the next waiter, if any.
        {
            let mut st = self.core.state.lock();
            let elapsed = st.now.saturating_duration_since(start);
            let pr = &mut st.procs[proc.0];
            pr.busy += elapsed;
            pr.holder = None;
            pr.last_thread_holder = Some(me);
            if let Some((t, w)) = pr.waiters.pop_front() {
                pr.holder = Some(t);
                st.schedule_wake_now(t, w);
            }
        }
    }

    /// Performs `d` of CPU work in slices of at most `quantum`, releasing
    /// the processor between slices.
    ///
    /// This approximates preemptive scheduling: protocol daemons and other
    /// threads interleave at quantum granularity instead of stalling behind
    /// one long computation (Amoeba schedules its kernel threads
    /// preemptively). Use for application compute phases; short protocol
    /// charges can stay with [`Ctx::compute`].
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn compute_sliced(&self, d: SimDuration, quantum: SimDuration) {
        assert!(!quantum.is_zero(), "quantum must be positive");
        let mut remaining = d;
        loop {
            if remaining.is_zero() {
                break;
            }
            let slice = if remaining > quantum {
                quantum
            } else {
                remaining
            };
            self.compute(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }

    /// Interrupt-level CPU work (see [`On::Interrupt`]).
    fn interrupt_compute(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        self.sleep(d);
        let proc = self.processor();
        let mut st = self.core.state.lock();
        let pr = &mut st.procs[proc.0];
        pr.stolen_total += d;
        pr.interrupt_time += d;
    }

    /// Spawns a new simulated thread on the same processor.
    pub fn spawn<F>(&self, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.spawn_on(self.processor(), name, f)
    }

    /// Spawns a new simulated thread on the given processor.
    pub fn spawn_on<F>(&self, proc: ProcId, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let tid = self.core.spawn_thread(proc, name, false, f);
        ThreadHandle::new(Arc::clone(&self.core), tid)
    }

    /// Spawns a daemon thread on the given processor. Daemon threads may stay
    /// blocked forever without the run being reported as deadlocked.
    pub fn spawn_daemon_on<F>(&self, proc: ProcId, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let tid = self.core.spawn_thread(proc, name, true, f);
        ThreadHandle::new(Arc::clone(&self.core), tid)
    }

    /// Commits wakes captured by [`crate::SimChannel::send_deferred`], in
    /// order, at the current instant, under a single scheduler-lock
    /// acquisition.
    ///
    /// Equivalent to having called [`crate::SimChannel::send`] for each
    /// message as long as nothing ran in between the deferred sends — which
    /// is guaranteed inside one simulated thread, since only one thread runs
    /// at a time. This is the fan-out batching primitive: a broadcast
    /// delivery enqueues the frame on every receiver first, then schedules
    /// every wake with one lock round-trip instead of one per receiver.
    pub fn commit_wakes(&self, wakes: impl IntoIterator<Item = crate::PendingWake>) {
        let mut st = self.core.state.lock();
        for w in wakes {
            let (thread, wait_id) = w.into_parts();
            st.schedule_wake_now(thread, wait_id);
        }
    }

    /// Returns a uniformly distributed `u64` from the simulation's
    /// deterministic random number generator.
    pub fn rand_u64(&self) -> u64 {
        self.core.state.lock().rng.random()
    }

    /// Returns a uniformly distributed value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn rand_range(&self, n: u64) -> u64 {
        assert!(n > 0, "rand_range: n must be positive");
        self.core.state.lock().rng.random_range(0..n)
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn rand_f64(&self) -> f64 {
        self.core.state.lock().rng.random()
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
            .lock()
            .trace_event(self.tid, layer, phase, name, args);
    }

    /// Emits an instant event.
    #[inline]
    pub fn trace_instant(&self, layer: Layer, name: &'static str, args: &[(&'static str, u64)]) {
        self.trace_emit(layer, Phase::Instant, name, args);
    }

    /// Opens a span; pair with [`Ctx::trace_end`] using the same name.
    #[inline]
    pub fn trace_begin(&self, layer: Layer, name: &'static str, args: &[(&'static str, u64)]) {
        self.trace_emit(layer, Phase::Begin, name, args);
    }

    /// Closes a span opened by [`Ctx::trace_begin`].
    #[inline]
    pub fn trace_end(&self, layer: Layer, name: &'static str, args: &[(&'static str, u64)]) {
        self.trace_emit(layer, Phase::End, name, args);
    }
}
