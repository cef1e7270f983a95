//! Internal scheduler state shared between the [`crate::Simulation`] driver
//! and the simulated threads.
//!
//! Exactly one party runs at a time: either the scheduler (inside
//! `Simulation::run*`) or a single simulated thread. Every simulated thread
//! is a stackful user-space fiber on the scheduler's OS thread (see
//! `crate::fiber`), and control moves between them with one register
//! save/restore. Because of the strict alternation [`CoreState`] takes no
//! lock: it sits in a [`TurnCell`], which only the holder of the lane's
//! turn borrows, and whose flag is there to turn a re-entrant borrow (what
//! would deadlock a mutex) into a panic. The cell is sound because nothing
//! outside the turn ever touches a lane's state — see "Safety model" in
//! `crate::fiber` for the whole argument, and [`LaneKey`] for how a
//! [`crate::SimChannel`] holds itself to one lane.
//!
//! # Hot-path hand-off
//!
//! The scheduler is not the only party allowed to pop events. A thread that
//! blocks pops the next live event itself under the same borrow of the
//! state that would otherwise just publish its block: if the event wakes
//! *itself* (a timer that is already due — the common case for `sleep`) it
//! simply keeps running with **zero** switches of any kind; if it wakes
//! another thread it grants that thread directly — one context switch
//! instead of the two of a round trip through the scheduler. The scheduler
//! only regains the turn when the chain breaks: the queue drains, the event
//! budget runs out, or a thread finishes. Everything the scheduler observed
//! per event before — clock advance, event counts, stale-wake skips, trace
//! emission — happens identically inside [`CoreState::next_live`], which
//! both parties share, so virtual time and traces are bit-identical to the
//! scheduler-centric design.

use std::fmt;
use std::num::NonZeroU64;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::fiber::{self, Fiber};
use crate::queue::{Event, EventQueue};
use crate::shard::LaneId;
use crate::time::{SimDuration, SimTime};
use crate::trace::{ArgVec, Layer, Phase, TraceEvent, Tracer};
use crate::turn::{TurnCell, TurnGuard};
use crate::{Ctx, ThreadHandle};

/// Identifies a simulated thread within one [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub(crate) usize);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Sentinel thread id carried by cross-lane *injection events* (see
/// [`LaneInjector`]). Never a real thread: `next_live` intercepts it before
/// the wake table or the thread table would be indexed.
pub(crate) const INJECT_THREAD: ThreadId = ThreadId(usize::MAX);

/// Delivery hook of one cross-lane link, registered with its destination
/// lane (see `crate::shard`). When an injection event pops, the lane calls
/// `deliver_due` under its own state borrow: the hook moves every value due
/// at `now` into its destination channel (scheduling receiver wakes exactly
/// as an in-lane `send` would) and returns the instant the next injection
/// event should fire at, if any — the caller queues it. This replaces the
/// per-link injector daemons: a cross-lane frame costs one queue pop
/// instead of a daemon wake, a channel hop, and a daemon re-block.
pub(crate) trait LaneInjector: Send + Sync {
    fn deliver_due(&self, st: &mut CoreState, now: SimTime) -> Option<SimTime>;
}

/// Identifies a simulated processor (one CPU) within one [`crate::Simulation`].
///
/// A processor belongs to exactly one lane, fixed when it is added, and its
/// id carries that lane: every thread spawned on it runs there, so
/// placement is derived from the id and never passed beside it. The index
/// (what [`fmt::Display`] prints, `p{n}`) counts that lane's processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId {
    lane: LaneId,
    idx: u32,
}

impl ProcId {
    pub(crate) fn new(lane: LaneId, idx: usize) -> Self {
        let idx = u32::try_from(idx).expect("at most u32::MAX processors per lane");
        ProcId { lane, idx }
    }

    /// The lane this processor (and every thread on it) runs on.
    pub fn lane(self) -> LaneId {
        self.lane
    }

    /// The processor's index among its lane's processors.
    pub(crate) fn index(self) -> usize {
        self.idx as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.idx)
    }
}

/// A lane's identity across every [`crate::Simulation`] in the process: a
/// serial number drawn once per [`Core`], with the lane's index in the low
/// [`LaneKey::LANE_BITS`] bits so a mismatch can name both lanes.
///
/// A [`crate::SimChannel`] binds to the key of its first user and compares
/// every later user's key with it (one plain compare); a key, unlike a
/// `Core` address, is never reused by a later simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneKey(NonZeroU64);

impl LaneKey {
    const LANE_BITS: u32 = 24;

    fn fresh(lane: LaneId) -> LaneKey {
        static SERIAL: AtomicU64 = AtomicU64::new(1);
        assert!(lane.index() < 1 << Self::LANE_BITS, "too many lanes");
        let serial = SERIAL.fetch_add(1, AtomicOrdering::Relaxed);
        let key = serial << Self::LANE_BITS | lane.index() as u64;
        LaneKey(NonZeroU64::new(key).expect("serials start at 1"))
    }

    /// The key as one word; no key is 0.
    pub(crate) fn raw(self) -> u64 {
        self.0.get()
    }

    /// The key [`LaneKey::raw`] gave, or `None` for 0.
    pub(crate) fn from_raw(raw: u64) -> Option<LaneKey> {
        NonZeroU64::new(raw).map(LaneKey)
    }

    /// The lane within its simulation.
    pub(crate) fn lane(self) -> LaneId {
        LaneId((self.0.get() & ((1 << Self::LANE_BITS) - 1)) as u32)
    }
}

/// Why a blocked thread resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeStatus {
    /// A wake event fired for the registered wait.
    Woken,
    /// The simulation is shutting down; the thread must unwind (or, a
    /// daemon's first receive, read its channel as closed).
    Shutdown,
}

/// Payload used to unwind simulated threads when the simulation is dropped.
pub(crate) struct ShutdownUnwind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadState {
    /// Waiting for a wake event (also the initial state before first run).
    Blocked,
    /// Currently executing (the scheduler is parked in `resume_and_wait`).
    Running,
    /// The thread body returned or unwound.
    Finished,
}

/// Grant kinds staged in a fiber's grant cell: why the thread was resumed.
/// Replaces a post-wake `shutdown` re-check of the state — the granter
/// already knows, so the woken side borrows nothing.
pub(crate) const GRANT_RUN: u8 = 0;
pub(crate) const GRANT_SHUTDOWN: u8 = 1;

pub(crate) struct ThreadRecord {
    /// Shared so diagnostics and tracing can take a reference-counted copy
    /// instead of allocating a fresh `String` on hot paths.
    pub name: Arc<str>,
    pub proc: ProcId,
    /// The fiber the thread runs on; `None` for a thread spawned during
    /// shutdown, which never runs (its record is born `Finished`).
    pub fiber: Option<Box<Fiber>>,
    pub state: ThreadState,
    /// Monotonic token; a wake event only fires if its token matches.
    pub wait_id: u64,
    /// Diagnostic label describing what the thread is blocked on.
    pub blocked_on: &'static str,
    pub daemon: bool,
    pub joiners: Vec<(ThreadId, u64)>,
    pub panic: Option<String>,
    /// Set by `finish_thread`: the one piece of a thread's state that
    /// [`ThreadHandle::is_finished`] reads, from any lane or OS thread.
    pub done: Arc<AtomicBool>,
}

impl ThreadRecord {
    /// The resumable address of this thread, for whichever party (the
    /// scheduler or a yielding thread) performs the switch.
    ///
    /// A raw pointer instead of a borrow: the fiber must outlive the state
    /// borrow in `step`/`yield_blocked`, which it does because thread
    /// records are never removed while the owning `Core` is alive and the
    /// boxed fiber is heap-stable across `threads` Vec reallocations.
    pub(crate) fn fiber_ptr(&self) -> *const Fiber {
        self.fiber
            .as_deref()
            .expect("retired threads are born Finished")
    }
}

/// Dense per-thread wake-generation slot, the cancellation index consulted
/// for every popped event.
///
/// `prepare_block` bumps `gen`, which *cancels* every wake still queued for
/// an older generation of this thread: they will be recognized as dead by a
/// single 16-byte load here — no `ThreadRecord` (several cache lines, cold
/// fields) is touched for them. The dead events themselves must stay in the
/// queue: each popped event advances the virtual clock and the event
/// counter, both of which are pinned by golden traces and chaos hashes, so
/// removing them eagerly would change observable time. Cancellation here
/// means "guaranteed not to resume anything, and cheap to skip".
#[derive(Clone, Copy)]
struct WakeSlot {
    /// Live wake generation (mirrors `ThreadRecord::wait_id`).
    gen: u64,
    /// True while the thread is blocked and generation `gen` may fire.
    waiting: bool,
}

/// The wake-generation table plus its stale-wake counter, owned by exactly
/// one [`CoreState`]. Every simulation instance counts its own cancelled
/// wakes; two simulations running side by side in one process can never
/// share or double-count this state.
pub(crate) struct WakeTable {
    slots: Vec<WakeSlot>,
    /// Dead wakes consumed so far (cancelled generations); diagnostics only.
    stale: u64,
}

impl WakeTable {
    fn new() -> WakeTable {
        WakeTable {
            slots: Vec::new(),
            stale: 0,
        }
    }

    /// Registers a freshly spawned thread (generation 0, armed for its
    /// start wake).
    fn push_live(&mut self) {
        self.slots.push(WakeSlot {
            gen: 0,
            waiting: true,
        });
    }

    /// Registers a thread spawned during shutdown: no wake may ever fire.
    fn push_retired(&mut self) {
        self.slots.push(WakeSlot {
            gen: 0,
            waiting: false,
        });
    }

    /// Arms generation `gen` for `thread` (called from `prepare_block`;
    /// bumping the generation is the cancellation point for older wakes).
    fn arm(&mut self, thread: ThreadId, gen: u64) {
        self.slots[thread.0] = WakeSlot { gen, waiting: true };
    }

    /// Disarms `thread` entirely (on finish/teardown).
    fn disarm(&mut self, thread: ThreadId) {
        self.slots[thread.0].waiting = false;
    }

    /// Consumes one popped event: `true` if it is the live wake for
    /// `thread` (disarming it), `false` if it is a cancelled generation
    /// (counted as stale). The event carries its generation truncated to
    /// `u32` (see [`Event`]), so the compare is exact modulo `2^32` —
    /// still deterministic, and a false match would need one thread to
    /// block exactly `2^32` times while a single wake stays in flight.
    fn consume(&mut self, thread: ThreadId, gen: u32) -> bool {
        let slot = &mut self.slots[thread.0];
        if slot.waiting && slot.gen as u32 == gen {
            slot.waiting = false;
            true
        } else {
            self.stale += 1;
            false
        }
    }

    pub(crate) fn stale(&self) -> u64 {
        self.stale
    }
}

pub(crate) struct ProcRecord {
    pub name: String,
    /// Thread currently occupying the CPU at thread level.
    pub holder: Option<ThreadId>,
    /// Last *thread-level* occupant; interrupt-level work does not update
    /// this, which is exactly why a kernel-space RPC reply resumes the
    /// blocked client without a context-switch charge.
    pub last_thread_holder: Option<ThreadId>,
    pub waiters: std::collections::VecDeque<(ThreadId, u64)>,
    /// Total interrupt-level CPU time stolen on this processor; thread-level
    /// `compute` calls extend themselves by the amount stolen during their
    /// occupancy.
    pub stolen_total: SimDuration,
    /// Cost charged when the CPU is granted to a different thread than
    /// `last_thread_holder`.
    pub switch_cost: SimDuration,
    pub busy: SimDuration,
    pub switches: u64,
    pub interrupt_time: SimDuration,
}

/// What [`CoreState::next_live`] found at the head of the queue.
pub(crate) enum NextEvent {
    /// A live wake; the thread has been marked `Running` and traced.
    Live(ThreadId),
    /// Nothing is due in this window: the queue is empty, or its head sits
    /// at or past the window limit (see `crate::shard`) and stays queued
    /// for a later window.
    Paused,
    /// `events_processed` reached `max_events` (checked before every pop,
    /// including between dead-wake skips, exactly as the old per-iteration
    /// check did).
    LimitHit,
}

pub(crate) struct CoreState {
    pub now: SimTime,
    seq: u64,
    queue: EventQueue,
    pub threads: Vec<ThreadRecord>,
    /// Wake-generation slots + stale counter, indexed like `threads`; see
    /// [`WakeTable`].
    pub wake: WakeTable,
    pub procs: Vec<ProcRecord>,
    pub events_processed: u64,
    /// Event budget; checked by both the scheduler and the thread-side
    /// hand-off fast path, so it lives with the rest of the shared state.
    pub max_events: Option<u64>,
    pub shutdown: bool,
    /// Cross-lane delivery hooks, indexed by the `wait_id` of injection
    /// events (see [`LaneInjector`]). Registered once per inbound link at
    /// construction; cleared by `initiate_shutdown` to break the reference
    /// cycle lane → injector → lane.
    pub(crate) injectors: Vec<Arc<dyn LaneInjector>>,
    pub rng: SmallRng,
    /// When `Some`, draws one tie-break value per scheduled wake, shuffling
    /// the pick order among same-instant ready threads (chaos testing). Kept
    /// separate from `rng` so enabling it does not disturb protocol-visible
    /// randomness, and `None` by default so it is zero-cost when off.
    pub perturb: Option<SmallRng>,
    /// Structured tracer; `Some` iff `Core::trace_on` is `true`.
    pub tracer: Option<Tracer>,
}

impl CoreState {
    /// Records a structured event on behalf of `thread`. Call sites must
    /// already hold the state borrow; emission touches nothing the scheduler
    /// uses, so virtual time is unaffected.
    pub(crate) fn trace_event(
        &mut self,
        thread: ThreadId,
        layer: Layer,
        phase: Phase,
        name: &'static str,
        args: &[(&'static str, u64)],
    ) {
        if self.tracer.is_none() {
            return;
        }
        let time = self.now;
        let proc = self.threads[thread.0].proc;
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(TraceEvent {
                time,
                proc,
                thread,
                layer,
                phase,
                name,
                args: ArgVec::from_slice(args),
            });
        }
    }
    pub(crate) fn schedule_wake(&mut self, at: SimTime, thread: ThreadId, wait_id: u64) {
        debug_assert!(at >= self.now, "cannot schedule a wake in the past");
        let seq = self.seq;
        self.seq += 1;
        let tie = match self.perturb.as_mut() {
            Some(rng) => rng.random(),
            None => 0,
        };
        self.queue.push(Event::new(at, tie, seq, thread, wait_id));
    }

    /// Schedules a wake at the current instant (ordered after everything
    /// already scheduled for this instant).
    pub(crate) fn schedule_wake_now(&mut self, thread: ThreadId, wait_id: u64) {
        let now = self.now;
        self.schedule_wake(now, thread, wait_id);
    }

    /// Marks `thread` as blocked and returns the wait token a waker must use.
    ///
    /// Bumping the token is also the *cancellation point*: any wake still
    /// queued for an older generation of this thread is dead from here on
    /// (see [`WakeSlot`]).
    ///
    /// No state assertion: during shutdown a destructor may re-enter a
    /// blocking primitive while the record is already `Blocked`.
    pub(crate) fn prepare_block(&mut self, thread: ThreadId, label: &'static str) -> u64 {
        let rec = &mut self.threads[thread.0];
        rec.wait_id += 1;
        rec.state = ThreadState::Blocked;
        rec.blocked_on = label;
        let wid = rec.wait_id;
        self.wake.arm(thread, wid);
        self.trace_event(thread, Layer::Sched, Phase::Instant, "block", &[]);
        wid
    }

    /// Pops events until one is live, the queue drains, or the event budget
    /// runs out. Every popped event — dead or live — advances the clock and
    /// `events_processed` exactly as the scheduler always has, so virtual
    /// time and event counts are independent of *who* drives the queue (the
    /// scheduler or a blocking thread's hand-off fast path).
    ///
    /// `window_limit` is the exclusive upper bound (in nanoseconds) on the
    /// instants this lane may process, `u64::MAX` for none — the caller
    /// reads it from [`Core::window_limit`], so an unbounded window (one
    /// lane, or lanes without links) pays one integer compare per pop and
    /// no other work. Events at or past the bound stay queued and
    /// [`NextEvent::Paused`] is reported, as for an empty queue.
    pub(crate) fn next_live(&mut self, window_limit: u64) -> NextEvent {
        loop {
            if let Some(l) = self.max_events {
                if self.events_processed >= l {
                    return NextEvent::LimitHit;
                }
            }
            if window_limit != u64::MAX {
                match self.queue.peek_time() {
                    Some(t) if t.as_nanos() >= window_limit => return NextEvent::Paused,
                    _ => {}
                }
            }
            let Some(ev) = self.queue.pop() else {
                return NextEvent::Paused;
            };
            debug_assert!(ev.time >= self.now);
            self.now = ev.time;
            self.events_processed += 1;
            let thread = ev.thread();
            if thread == INJECT_THREAD {
                // A cross-lane injection event: deliver everything due on
                // the link it belongs to, then queue its next firing. The
                // pop above already advanced the clock and the event count,
                // exactly like the injector-daemon wake it replaces.
                let idx = ev.wait_gen() as usize;
                let inj = Arc::clone(&self.injectors[idx]);
                if let Some(next) = inj.deliver_due(self, ev.time) {
                    self.schedule_injection(next, idx);
                }
                continue;
            }
            if self.wake.consume(thread, ev.wait_gen()) {
                self.threads[thread.0].state = ThreadState::Running;
                self.trace_event(thread, Layer::Sched, Phase::Instant, "wake", &[]);
                return NextEvent::Live(thread);
            }
            // Cancelled generation — one dense-slot load recognized it; no
            // thread record was touched. The clock tick above is deliberate
            // (pinned by golden traces and chaos hashes).
        }
    }

    /// This lane's queue accounting (see [`crate::QueueStats`]).
    pub(crate) fn queue_stats(&self) -> crate::queue::QueueStats {
        self.queue.stats()
    }

    /// The earliest queued instant on this lane (see `EventQueue::peek_time`).
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Schedules a cross-lane injection event for the link registered at
    /// `injector` (see [`LaneInjector`]). Mirrors [`CoreState::schedule_wake`]
    /// exactly — same monotone `seq`, same perturbation tie draw — so an
    /// injection event occupies the same `(time, tie, seq)` queue position
    /// the replaced injector daemon's wake event had.
    pub(crate) fn schedule_injection(&mut self, at: SimTime, injector: usize) {
        debug_assert!(at >= self.now, "cannot schedule an injection in the past");
        let seq = self.seq;
        self.seq += 1;
        let tie = match self.perturb.as_mut() {
            Some(rng) => rng.random(),
            None => 0,
        };
        debug_assert!(
            injector < u32::MAX as usize,
            "injector index overflows the packed event"
        );
        self.queue
            .push(Event::new(at, tie, seq, INJECT_THREAD, injector as u64));
    }

    /// Records the committed window floor backing `queue.rs`'s push
    /// assertion ("cross-shard injection never lands below finished
    /// history"). The floor passed here is the *global* committed horizon
    /// `T_min`; a lane whose own clock lags it keeps its weaker local bound
    /// instead, because lagging lanes legitimately schedule at their own
    /// `now`. Debug builds only — the floor is assertion-only state and
    /// release builds skip even the per-lane borrow to maintain it.
    #[cfg(debug_assertions)]
    pub(crate) fn set_window_floor(&mut self, floor: SimTime) {
        let bound = floor.min(self.now);
        self.queue.set_floor(bound);
    }
}

pub(crate) struct Core {
    pub state: TurnCell<CoreState>,
    /// This lane's identity, which every channel it uses binds to.
    pub(crate) key: LaneKey,
    /// The scheduler's own saved context: where a yielding fiber switches
    /// to on a chain break, and what `resume_and_wait` saves into before
    /// switching a fiber in.
    sched_ctx: fiber::ContextCell,
    /// Mirrors `CoreState::tracer.is_some()`; lives outside the cell so
    /// disabled-tracing call sites pay one relaxed load and nothing else.
    pub trace_on: AtomicBool,
    /// Exclusive upper bound (nanoseconds) on the instants this lane may
    /// process in the current window; `u64::MAX` = unbounded (between runs,
    /// and in link-free windows). Lives outside the cell so the
    /// windowed driver can set every lane's bound without borrowing any
    /// lane's state; the window gate's release/acquire edges order the
    /// stores against runner reads, and within one turn plain program order
    /// does (strict alternation).
    pub(crate) window_limit: AtomicU64,
    /// Index of a simulated thread whose body panicked (`usize::MAX` =
    /// none). With direct hand-off chains the thread that yields back to the
    /// scheduler is not necessarily the one the scheduler resumed, so the
    /// flag must carry *who* panicked.
    panicked_tid: AtomicUsize,
}

const NO_PANIC: usize = usize::MAX;

/// How [`Core::step`] left the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepResult {
    /// One or more threads were resumed (a hand-off chain may have run many
    /// events) and the turn came back to the scheduler.
    Progress,
    /// The event queue is empty, or its next event belongs to a later
    /// window.
    Paused,
    /// The `stop_on` thread has finished.
    TargetFinished,
    /// `events_processed` reached the configured limit.
    LimitExceeded,
}

impl Core {
    /// `queue_capacity` is the expected peak pending-event population of
    /// this lane (the `expected_threads` builder hint; boot schedules one
    /// start wake per thread, all at the same instant). Floored at the
    /// historical 256 default so un-hinted worlds lose nothing.
    pub(crate) fn new(seed: u64, queue_capacity: usize, lane: LaneId) -> Arc<Core> {
        Arc::new(Core {
            state: TurnCell::new(CoreState {
                now: SimTime::ZERO,
                seq: 0,
                queue: EventQueue::with_capacity(queue_capacity.max(256)),
                threads: Vec::new(),
                wake: WakeTable::new(),
                procs: Vec::new(),
                events_processed: 0,
                max_events: None,
                shutdown: false,
                injectors: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
                perturb: None,
                tracer: None,
            }),
            key: LaneKey::fresh(lane),
            sched_ctx: fiber::ContextCell::new(),
            trace_on: AtomicBool::new(false),
            window_limit: AtomicU64::new(u64::MAX),
            panicked_tid: AtomicUsize::new(NO_PANIC),
        })
    }

    /// True if structured tracing is enabled (one relaxed atomic load).
    #[inline]
    pub(crate) fn tracing_enabled(&self) -> bool {
        self.trace_on.load(AtomicOrdering::Relaxed)
    }

    /// Adds a processor; `lane` is this core's own lane.
    pub(crate) fn add_processor(
        &self,
        lane: LaneId,
        name: &str,
        switch_cost: SimDuration,
    ) -> ProcId {
        let mut st = self.state.borrow_mut();
        let id = ProcId::new(lane, st.procs.len());
        st.procs.push(ProcRecord {
            name: name.to_owned(),
            holder: None,
            last_thread_holder: None,
            waiters: std::collections::VecDeque::new(),
            stolen_total: SimDuration::ZERO,
            switch_cost,
            busy: SimDuration::ZERO,
            switches: 0,
            interrupt_time: SimDuration::ZERO,
        });
        id
    }

    /// Scheduler side: give `target` the turn and wait until some thread
    /// hands the turn back (possibly after a long direct hand-off chain).
    ///
    /// Stages the grant kind and performs one user-space context switch;
    /// the call returns when any fiber switches back into `sched_ctx`.
    fn resume_and_wait(&self, target: *const Fiber, kind: u8) {
        // SAFETY: see `ThreadRecord::fiber_ptr`; strict alternation makes
        // the save-slot traffic race-free (module docs in `fiber`).
        unsafe {
            (*target).set_grant(kind);
            fiber::switch(self.sched_ctx.slot(), (*target).sp_slot());
        }
    }

    /// Spawns a simulated thread; shared implementation behind
    /// `Simulation::spawn*` and `Ctx::spawn*`.
    pub(crate) fn spawn_thread<F>(
        self: &Arc<Self>,
        proc: ProcId,
        name: &str,
        daemon: bool,
        f: F,
    ) -> ThreadHandle
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let mut st = self.state.borrow_mut();
        // Never build a fiber during teardown: its entry closure would hold
        // an `Arc<Core>` in a cycle nothing is left to break.
        let fiber = (!st.shutdown).then(|| {
            let core = Arc::clone(self);
            let tid = ThreadId(st.threads.len());
            Fiber::new(Box::new(move || {
                let panic_msg = run_thread_body(&core, tid, f);
                finish_thread(&core, tid, panic_msg);
                // Return the scheduler slot and drop every capture (notably
                // the `Arc<Core>`) *before* the final switch-out, so a
                // finished fiber's dead stack keeps nothing alive. The slot
                // stays valid: the driving `Simulation` owns its own
                // `Arc<Core>`.
                let slot = core.sched_ctx.slot();
                drop(core);
                slot
            }))
        });
        let tid = Self::register_thread(&mut st, proc, name, daemon, fiber);
        let done = Arc::clone(&st.threads[tid.0].done);
        ThreadHandle::new(Arc::clone(self), tid, done)
    }

    /// Registers the bookkeeping every new thread shares: the record, its
    /// wake slot, and (unless the simulation is shutting down, in which
    /// case the record is born `Finished` and the body never runs) the
    /// spawn trace event and start wake.
    fn register_thread(
        st: &mut CoreState,
        proc: ProcId,
        name: &str,
        daemon: bool,
        fiber: Option<Box<Fiber>>,
    ) -> ThreadId {
        assert!(
            proc.index() < st.procs.len(),
            "spawn: unknown processor {proc}; call add_processor first"
        );
        let tid = ThreadId(st.threads.len());
        let live = !st.shutdown;
        st.threads.push(ThreadRecord {
            name: Arc::from(name),
            proc,
            fiber,
            state: if live {
                ThreadState::Blocked
            } else {
                ThreadState::Finished
            },
            wait_id: 0,
            blocked_on: "start",
            daemon,
            joiners: Vec::new(),
            panic: None,
            done: Arc::new(AtomicBool::new(!live)),
        });
        if live {
            st.wake.push_live();
            st.trace_event(tid, Layer::Sched, Phase::Instant, "spawn", &[]);
            st.schedule_wake_now(tid, 0);
        } else {
            st.wake.push_retired();
        }
        tid
    }

    /// Advances the simulation by (at least) one thread resumption: pops
    /// events — skipping cancelled wakes within one borrow of the state —
    /// until one resumes a thread, the queue drains, `stop_on` finishes, or
    /// the event budget runs out. The resumed thread may keep the event loop
    /// going through direct hand-offs (see the module docs); the scheduler
    /// waits until the chain breaks.
    ///
    /// # Panics
    ///
    /// Propagates panics from simulated threads.
    pub(crate) fn step(self: &Arc<Self>, stop_on: Option<ThreadId>) -> StepResult {
        let window_limit = self.window_limit.load(AtomicOrdering::Relaxed);
        let target = {
            let mut st = self.state.borrow_mut();
            if let Some(t) = stop_on {
                if st.threads[t.0].state == ThreadState::Finished {
                    return StepResult::TargetFinished;
                }
            }
            match st.next_live(window_limit) {
                NextEvent::Paused => return StepResult::Paused,
                NextEvent::LimitHit => return StepResult::LimitExceeded,
                NextEvent::Live(tid) => st.threads[tid.0].fiber_ptr(),
            }
        };
        self.resume_and_wait(target, GRANT_RUN);
        if self.panicked_tid.load(AtomicOrdering::Acquire) != NO_PANIC {
            let panicker = self.panicked_tid.swap(NO_PANIC, AtomicOrdering::AcqRel);
            let panic_info = {
                let mut st = self.state.borrow_mut();
                let rec = &mut st.threads[panicker];
                rec.panic.take().map(|msg| (Arc::clone(&rec.name), msg))
            };
            if let Some((name, msg)) = panic_info {
                // Tear the simulation down *before* unwinding the scheduler,
                // so every remaining thread finishes here and the later
                // `Drop` shutdown becomes a no-op.
                self.initiate_shutdown();
                panic!("simulated thread '{name}' panicked: {msg}");
            }
        }
        StepResult::Progress
    }

    /// Registers a cross-lane delivery hook for this lane and returns the
    /// index injection events must carry in their `wait_id`.
    pub(crate) fn register_injector(self: &Arc<Self>, inj: Arc<dyn LaneInjector>) -> usize {
        let mut st = self.state.borrow_mut();
        st.injectors.push(inj);
        st.injectors.len() - 1
    }

    pub(crate) fn initiate_shutdown(self: &Arc<Self>) {
        {
            let mut st = self.state.borrow_mut();
            st.shutdown = true;
            // Each injector holds an `Arc` of this core (its destination);
            // dropping the registrations breaks the cycle so the cores can
            // actually be freed when the `Simulation` goes away.
            st.injectors.clear();
        }
        // Round-robin resume every unfinished thread until all have
        // finished: a daemon parked in a channel receive returns from its
        // body, every other thread unwinds once. A destructor may block
        // again during unwinding (it receives benign fallback values), so
        // several rounds can be needed.
        for _ in 0..64 {
            let pending: Vec<*const Fiber> = {
                let st = self.state.borrow_mut();
                st.threads
                    .iter()
                    .filter(|t| t.state != ThreadState::Finished)
                    .map(ThreadRecord::fiber_ptr)
                    .collect()
            };
            if pending.is_empty() {
                break;
            }
            for target in pending {
                self.resume_and_wait(target, GRANT_SHUTDOWN);
            }
        }
        // Fiber stacks are released when the thread records drop with the
        // `Core` itself; after the rounds above every fiber has run its
        // entry to completion, so no stack holds live frames (or `Arc`s).
    }
}

/// Runs a simulated thread's body under `catch_unwind`, unless the
/// simulation began shutting down before the body first ran. Returns the
/// panic message for real panics (`ShutdownUnwind` is the expected teardown
/// path and reports nothing).
fn run_thread_body<F>(core: &Arc<Core>, tid: ThreadId, f: F) -> Option<String>
where
    F: FnOnce(&Ctx) + Send + 'static,
{
    let run_body = !core.state.borrow_mut().shutdown;
    let mut panic_msg = None;
    if run_body {
        let ctx = Ctx::new(Arc::clone(core), tid);
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&ctx)));
        if let Err(payload) = result {
            if !payload.is::<ShutdownUnwind>() {
                // `&*payload`: borrow the contents, not the Box (a
                // `&Box<dyn Any>` would unsize to `&dyn Any` *as a Box* and
                // every downcast would miss).
                panic_msg = Some(payload_to_string(&*payload));
            }
        }
    }
    panic_msg
}

/// Records a thread's exit: panic flag, wake disarm, `Finished` state, and
/// joiner wakes.
fn finish_thread(core: &Core, tid: ThreadId, panic_msg: Option<String>) {
    let mut st = core.state.borrow_mut();
    if panic_msg.is_some() {
        core.panicked_tid.store(tid.0, AtomicOrdering::Release);
    }
    st.wake.disarm(tid);
    let joiners = {
        let rec = &mut st.threads[tid.0];
        rec.state = ThreadState::Finished;
        rec.panic = panic_msg;
        rec.done.store(true, AtomicOrdering::Release);
        std::mem::take(&mut rec.joiners)
    };
    for (jt, jw) in joiners {
        st.schedule_wake_now(jt, jw);
    }
}

/// Thread-side blocking yield: the other half of the hand-off fast path.
///
/// Lives here (not in `ctx.rs`) so all turn-protocol code sits next to
/// [`Core::resume_and_wait`]. Called by `Ctx::yield_blocked` with the guard
/// under which the caller ran `prepare_block` and registered its wake:
/// `next_live` runs under that same borrow, so one blocking transition
/// borrows the state once. The guard is dropped before any switch: the
/// party switched to borrows the state next.
///
/// The branch structure — shutdown check, then one `next_live` call, then
/// self-wake / direct grant / chain break — fixes the *order* of queue
/// pops, RNG draws and trace events, and with it every golden hash.
pub(crate) fn yield_blocked(
    core: &Core,
    mut st: TurnGuard<'_, CoreState>,
    tid: ThreadId,
    me: *const Fiber,
) -> WakeStatus {
    if st.shutdown {
        // Tear-down in progress: never yield again (the scheduler is
        // gone); let the caller unwind or return a benign value.
        return WakeStatus::Shutdown;
    }
    let window_limit = core.window_limit.load(AtomicOrdering::Relaxed);
    let resume = match st.next_live(window_limit) {
        // Break the chain; the scheduler decides (drain, window edge,
        // budget, shutdown). Only the driver may open a later window.
        NextEvent::Paused | NextEvent::LimitHit => core.sched_ctx.slot(),
        // Our own wake was the queue head: keep running, zero switches.
        NextEvent::Live(t) if t == tid => return WakeStatus::Woken,
        // Hand the turn straight to the woken thread: one switch.
        NextEvent::Live(t) => {
            let next = st.threads[t.0].fiber_ptr();
            // SAFETY: see `ThreadRecord::fiber_ptr`; `next` is suspended.
            unsafe {
                (*next).set_grant(GRANT_RUN);
                (*next).sp_slot()
            }
        }
    };
    drop(st);
    // SAFETY: `me` is this thread's own fiber (see `ThreadRecord::fiber_ptr`
    // for its lifetime), and `resume` is the slot of a suspended context:
    // the woken fiber, or the scheduler inside `resume_and_wait` (strict
    // alternation). The switch returns when someone grants us again.
    unsafe {
        fiber::switch((*me).sp_slot(), resume);
        match (*me).grant() {
            GRANT_SHUTDOWN => WakeStatus::Shutdown,
            _ => WakeStatus::Woken,
        }
    }
}

pub(crate) fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Installs a process-wide panic hook that silences the internal
/// [`ShutdownUnwind`] payload used to tear simulated threads down.
pub(crate) fn install_quiet_shutdown_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<ShutdownUnwind>() {
                return;
            }
            prev(info);
        }));
    });
}
