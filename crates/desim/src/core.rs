//! Internal scheduler state shared between the [`crate::Simulation`] driver
//! and the simulated threads.
//!
//! Exactly one party runs at a time: either the scheduler (inside
//! `Simulation::run*`) or a single simulated thread. Control is handed back
//! and forth through the **execution backend seam**: each simulated thread
//! owns a [`ThreadExec`] — a parked OS thread with a [`Conduit`] hand-off
//! cell ([`crate::Backend::OsThreads`]), or a stackful user-space fiber
//! switched with one register save/restore ([`crate::Backend::Fibers`]).
//! Everything above the seam — event queue, virtual clock, wake
//! generations, pick order, RNG draws — is backend-independent, which is
//! what makes the two backends bit-identical in observable behaviour.
//! Because of the strict alternation the global [`CoreState`] mutex is
//! never contended; it exists to satisfy the borrow checker and `Send`
//! bounds, not for parallelism.
//!
//! # Hot-path hand-off
//!
//! The scheduler is not the only party allowed to pop events. A thread that
//! blocks pops the next live event itself under the same lock acquisition
//! that would otherwise just publish its block: if the event wakes *itself*
//! (a timer that is already due — the common case for `sleep`) it simply
//! keeps running with **zero** switches of any kind; if it wakes another
//! thread it grants that thread directly — one park/unpark (OS backend) or
//! one user-space context switch (fiber backend) instead of the two of a
//! round trip through the scheduler. The scheduler only regains the turn
//! when the chain breaks: the queue drains, the event budget runs out, or a
//! thread finishes. Everything the scheduler observed per event before —
//! clock advance, event counts, stale-wake skips, trace emission — happens
//! identically inside [`CoreState::next_live`], which both parties and both
//! backends share, so virtual time and traces are bit-identical to the
//! scheduler-centric design.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::backend::Backend;
use crate::fiber;
use crate::queue::{Event, EventQueue};
use crate::time::{SimDuration, SimTime};
use crate::trace::{ArgVec, Layer, Phase, TraceEvent, Tracer};
use crate::Ctx;

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
/// `deliver_due` under its own state lock: the hook moves every value due
/// at `now` into its destination channel (scheduling receiver wakes exactly
/// as an in-lane `send` would) and returns the instant the next injection
/// event should fire at, if any — the caller queues it. This replaces the
/// per-link injector daemons: a cross-lane frame costs one queue pop
/// instead of a daemon wake, a channel hop, and a daemon re-block.
pub(crate) trait LaneInjector: Send + Sync {
    fn deliver_due(&self, st: &mut CoreState, now: SimTime) -> Option<SimTime>;
}

/// Identifies a simulated processor (one CPU) within one [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub(crate) usize);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Why a blocked thread resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeStatus {
    /// A wake event fired for the registered wait.
    Woken,
    /// The simulation is shutting down; the thread must unwind.
    Shutdown,
}

/// Payload used to unwind simulated threads when the simulation is dropped.
pub(crate) struct ShutdownUnwind;

/// Unwinds the current simulated thread because the simulation is shutting
/// down. If the thread is already unwinding (a destructor re-entered a
/// blocking primitive), returns so the caller can produce a benign fallback
/// value instead of triggering a double panic.
///
/// On the fiber backend `std::thread::panicking()` is per *host* OS thread,
/// which is exact whenever the in-flight panic belongs to this fiber — the
/// scheduler shuts the simulation down before re-raising a simulated
/// thread's panic precisely so its own unwind never overlaps fiber teardown
/// (see [`Core::step`]).
pub(crate) fn shutdown_unwind_unless_panicking() {
    if !std::thread::panicking() {
        panic::panic_any(ShutdownUnwind);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadState {
    /// Waiting for a wake event (also the initial state before first run).
    Blocked,
    /// Currently executing (the scheduler is parked in `resume_and_wait`).
    Running,
    /// The thread body returned or unwound.
    Finished,
}

const TURN_WAIT: u8 = 0;
const TURN_RUN: u8 = 1;

/// Grant kinds carried through a [`Conduit`] or a fiber's grant cell: why
/// the thread was resumed. Replaces the post-wake `shutdown` re-check under
/// the state lock — the granter already knows, so the woken side pays zero
/// lock acquisitions.
pub(crate) const GRANT_RUN: u8 = 0;
pub(crate) const GRANT_SHUTDOWN: u8 = 1;

/// Whether this host has more than one hardware thread; probed once. On a
/// multicore box the hand-off partner can flip the turn while we spin, so a
/// short spin before parking skips the futex syscall on the common path. On
/// a single core spinning only burns the quantum the partner needs.
pub(crate) fn spin_before_park() -> bool {
    static MULTICORE: OnceLock<bool> = OnceLock::new();
    *MULTICORE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// Hand-off cell owned by one simulated thread (OS-thread backend).
///
/// The turn is a single atomic flipped with release/acquire ordering and the
/// waiting side parks its OS thread (`std::thread::park`), so a hand-off is
/// one store + one targeted `unpark`. Any party may grant the turn — the
/// scheduler or a directly-handing-off sibling thread. The owning side
/// registers its `Thread` handle before first waiting; a granter that runs
/// before the handle is registered skips the unpark, which is safe because
/// the registrant re-checks the turn after registering and never parks on a
/// turn it already holds. Stale unpark tokens (from a grant that raced a
/// non-parked partner) only cause one spurious loop iteration.
pub(crate) struct Conduit {
    /// [`TURN_WAIT`] or [`TURN_RUN`]; release/acquire hand-off.
    turn: AtomicU8,
    /// Why the last grant happened ([`GRANT_RUN`] / [`GRANT_SHUTDOWN`]).
    /// Written before the `turn` release-store, read after the acquire-load,
    /// so it needs no ordering of its own.
    kind: AtomicU8,
    /// OS-thread handle backing the simulated thread; set exactly once.
    thread: OnceLock<Thread>,
}

impl Conduit {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Conduit {
            turn: AtomicU8::new(TURN_WAIT),
            kind: AtomicU8::new(GRANT_RUN),
            thread: OnceLock::new(),
        })
    }

    #[inline]
    fn wait_run(&self) {
        if spin_before_park() {
            for _ in 0..128 {
                if self.turn.load(AtomicOrdering::Acquire) == TURN_RUN {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        while self.turn.load(AtomicOrdering::Acquire) != TURN_RUN {
            std::thread::park();
        }
    }

    /// Gives the owning thread the turn. Callable from the scheduler or from
    /// another simulated thread performing a direct hand-off.
    pub(crate) fn grant(&self, kind: u8) {
        self.kind.store(kind, AtomicOrdering::Relaxed);
        self.turn.store(TURN_RUN, AtomicOrdering::Release);
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    /// Owner side: give up the turn *before* granting it elsewhere, so a
    /// grant that comes straight back (a short hand-off chain) is not
    /// clobbered by a later store.
    #[inline]
    fn relinquish(&self) {
        self.turn.store(TURN_WAIT, AtomicOrdering::Release);
    }

    /// Owner side: wait until the scheduler gives us the first turn.
    pub(crate) fn wait_for_turn(&self) {
        let _ = self.thread.set(std::thread::current());
        self.wait_run();
    }

    /// Owner side: park until granted again; returns the grant kind.
    #[inline]
    fn wait_granted(&self) -> u8 {
        self.wait_run();
        self.kind.load(AtomicOrdering::Relaxed)
    }
}

/// The execution resource backing one simulated thread — the per-thread
/// half of the backend seam. Everything the scheduler does with it goes
/// through [`ThreadExec::target`] / [`Core::resume_and_wait`]; everything
/// the thread itself does goes through [`ExecRef`] / [`yield_blocked`].
pub(crate) enum ThreadExec {
    /// A parked OS thread handed control through a [`Conduit`].
    Os {
        conduit: Arc<Conduit>,
        os_handle: Option<std::thread::JoinHandle<()>>,
    },
    /// A stackful user-space fiber on the scheduler's own OS thread.
    Fiber(Box<fiber::Fiber>),
    /// Spawned during shutdown: no execution resource was ever created and
    /// the body never runs (the record is born `Finished`).
    Retired,
}

impl ThreadExec {
    /// The resumable address of this thread, for the scheduler side.
    ///
    /// Raw pointers instead of `Arc::clone`/`&Box`: the target must outlive
    /// the state-lock release in `step`/`yield_blocked`, which it does
    /// because thread records are never removed while the owning `Core` is
    /// alive, and both pointees (`Arc` payload, boxed fiber) are heap-stable
    /// across `threads` Vec reallocations. This saves two refcount RMWs per
    /// event on the hot path.
    fn target(&self) -> ResumeTarget {
        match self {
            ThreadExec::Os { conduit, .. } => ResumeTarget::Os(Arc::as_ptr(conduit)),
            ThreadExec::Fiber(f) => ResumeTarget::Fiber(&**f as *const fiber::Fiber),
            ThreadExec::Retired => unreachable!("retired threads are born Finished"),
        }
    }
}

/// A resumable thread address, as handed from the event queue to whichever
/// party (scheduler or yielding thread) performs the switch. See
/// [`ThreadExec::target`] for the lifetime argument.
#[derive(Clone, Copy)]
pub(crate) enum ResumeTarget {
    Os(*const Conduit),
    Fiber(*const fiber::Fiber),
}

/// A simulated thread's cached handle to its *own* execution resource, held
/// inside [`Ctx`] so blocking never re-fetches it from the thread table
/// under the state lock. Same lifetime argument as [`ResumeTarget`].
pub(crate) enum ExecRef {
    Os(Arc<Conduit>),
    Fiber(*const fiber::Fiber),
}

pub(crate) struct ThreadRecord {
    /// Shared so diagnostics and tracing can take a reference-counted copy
    /// instead of allocating a fresh `String` on hot paths.
    pub name: Arc<str>,
    pub proc: ProcId,
    /// Execution resource behind the backend seam.
    pub exec: ThreadExec,
    pub state: ThreadState,
    /// Monotonic token; a wake event only fires if its token matches.
    pub wait_id: u64,
    /// Diagnostic label describing what the thread is blocked on.
    pub blocked_on: &'static str,
    pub daemon: bool,
    pub joiners: Vec<(ThreadId, u64)>,
    pub panic: Option<String>,
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
/// one [`CoreState`] — i.e. it lives *behind* the backend seam. Every
/// simulation instance, whatever its backend, counts its own cancelled
/// wakes; a process that runs an OS-thread simulation and a fiber
/// simulation side by side can never share or double-count this state.
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
    /// The queue is empty.
    Drained,
    /// `events_processed` reached `max_events` (checked before every pop,
    /// including between dead-wake skips, exactly as the old per-iteration
    /// check did).
    LimitHit,
    /// The queue head sits at or past the current window limit (windowed
    /// parallel execution only; see `crate::shard`). The event stays
    /// queued — it belongs to a later window.
    WindowEdge,
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
    /// already hold the state lock; emission touches nothing the scheduler
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
    /// scheduler or a blocking thread's hand-off fast path) and of which
    /// backend executes the threads.
    ///
    /// `window_limit` is the exclusive upper bound (in nanoseconds) on the
    /// instants this lane may process, `u64::MAX` for none — the caller
    /// reads it from [`Core::window_limit`], so the classic serial path
    /// pays one integer compare per pop and no lock traffic. Events at or
    /// past the bound stay queued; [`NextEvent::WindowEdge`] is reported
    /// instead (windowed parallel execution only; see `crate::shard`).
    pub(crate) fn next_live(&mut self, window_limit: u64) -> NextEvent {
        loop {
            if let Some(l) = self.max_events {
                if self.events_processed >= l {
                    return NextEvent::LimitHit;
                }
            }
            if window_limit != u64::MAX {
                match self.queue.peek_time() {
                    Some(t) if t.as_nanos() >= window_limit => return NextEvent::WindowEdge,
                    _ => {}
                }
            }
            let Some(ev) = self.queue.pop() else {
                return NextEvent::Drained;
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

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
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
    /// release builds skip even the per-lane lock to maintain it.
    #[cfg(debug_assertions)]
    pub(crate) fn set_window_floor(&mut self, floor: SimTime) {
        let bound = floor.min(self.now);
        self.queue.set_floor(bound);
    }
}

pub(crate) struct Core {
    pub state: Mutex<CoreState>,
    /// Which execution backend this simulation's threads run on. Fixed at
    /// construction; see [`crate::Backend`] for the selection rules.
    backend: Backend,
    /// Usable stack size for fiber-backed threads.
    fiber_stack_size: usize,
    /// The scheduler's own saved context (fiber backend): where a yielding
    /// fiber switches to on a chain break, and what `resume_and_wait` saves
    /// into before switching a fiber in. Unused on the OS-thread backend.
    sched_ctx: fiber::ContextCell,
    /// Mirrors `CoreState::tracer.is_some()`; lives outside the mutex so
    /// disabled-tracing call sites pay one relaxed load and nothing else.
    pub trace_on: AtomicBool,
    /// Exclusive upper bound (nanoseconds) on the instants this lane may
    /// process in the current window; `u64::MAX` = unbounded (the classic
    /// serial mode and link-free windows). Lives outside the mutex so the
    /// windowed driver can set every lane's bound without a single lock
    /// acquisition; the window gate's release/acquire edges order the
    /// stores against runner reads, and within one turn plain program order
    /// does (strict alternation).
    pub(crate) window_limit: AtomicU64,
    /// Index of a simulated thread whose body panicked (`usize::MAX` =
    /// none). With direct hand-off chains the thread that yields back to the
    /// scheduler is not necessarily the one the scheduler resumed, so the
    /// flag must carry *who* panicked.
    panicked_tid: AtomicUsize,
    /// True when the scheduler holds the turn; flipped with release/acquire
    /// ordering like the per-thread conduits. A yielding thread that cannot
    /// continue the hand-off chain stores `true` and unparks `sched_thread`.
    /// OS-thread backend only; fibers switch into `sched_ctx` instead.
    sched_turn: AtomicBool,
    /// OS-thread handle of the scheduler side. Re-registered on every
    /// `resume_and_wait` because the `Simulation` may move between OS
    /// threads across runs; the lock is never contended (strict
    /// alternation), so it costs one CAS.
    sched_thread: Mutex<Option<Thread>>,
}

const NO_PANIC: usize = usize::MAX;

/// How [`Core::step`] left the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepResult {
    /// One or more threads were resumed (a hand-off chain may have run many
    /// events) and the turn came back to the scheduler.
    Progress,
    /// The event queue is empty.
    Drained,
    /// The `stop_on` thread has finished.
    TargetFinished,
    /// `events_processed` reached the configured limit.
    LimitExceeded,
    /// The next event belongs to a later window (windowed execution only).
    WindowEdge,
}

impl Core {
    /// `queue_capacity` is the expected peak pending-event population of
    /// this lane (the `expected_threads` builder hint; boot schedules one
    /// start wake per thread, all at the same instant). Floored at the
    /// historical 256 default so un-hinted worlds lose nothing.
    pub(crate) fn new(
        seed: u64,
        backend: Backend,
        fiber_stack_size: usize,
        queue_capacity: usize,
    ) -> Arc<Core> {
        Arc::new(Core {
            state: Mutex::new(CoreState {
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
            backend,
            fiber_stack_size,
            sched_ctx: fiber::ContextCell::new(),
            trace_on: AtomicBool::new(false),
            window_limit: AtomicU64::new(u64::MAX),
            panicked_tid: AtomicUsize::new(NO_PANIC),
            sched_turn: AtomicBool::new(true),
            sched_thread: Mutex::new(None),
        })
    }

    /// The execution backend this simulation was built with.
    pub(crate) fn backend(&self) -> Backend {
        self.backend
    }

    /// True if structured tracing is enabled (one relaxed atomic load).
    #[inline]
    pub(crate) fn tracing_enabled(&self) -> bool {
        self.trace_on.load(AtomicOrdering::Relaxed)
    }

    pub(crate) fn add_processor(self: &Arc<Self>, name: &str, switch_cost: SimDuration) -> ProcId {
        let mut st = self.state.lock();
        let id = ProcId(st.procs.len());
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

    /// Thread side (OS backend): the calling simulated thread hands the turn
    /// back to the scheduler (chain break: drain, budget, or thread exit).
    pub(crate) fn wake_scheduler(&self) {
        self.sched_turn.store(true, AtomicOrdering::Release);
        if let Some(t) = self.sched_thread.lock().as_ref() {
            t.unpark();
        }
    }

    /// Scheduler side: give `target` the turn and wait until some thread
    /// hands the turn back (possibly after a long direct hand-off chain).
    ///
    /// OS backend: grant the conduit and park. Fiber backend: stage the
    /// grant kind and perform one user-space context switch; the call
    /// returns when any fiber switches back into `sched_ctx`.
    fn resume_and_wait(&self, target: ResumeTarget, kind: u8) {
        match target {
            ResumeTarget::Os(conduit) => {
                // SAFETY: see `ThreadExec::target`.
                let conduit = unsafe { &*conduit };
                *self.sched_thread.lock() = Some(std::thread::current());
                self.sched_turn.store(false, AtomicOrdering::Release);
                conduit.grant(kind);
                if spin_before_park() {
                    for _ in 0..128 {
                        if self.sched_turn.load(AtomicOrdering::Acquire) {
                            return;
                        }
                        std::hint::spin_loop();
                    }
                }
                while !self.sched_turn.load(AtomicOrdering::Acquire) {
                    std::thread::park();
                }
            }
            ResumeTarget::Fiber(f) => {
                // SAFETY: see `ThreadExec::target`; strict alternation makes
                // the save-slot traffic race-free (module docs in `fiber`).
                unsafe {
                    (*f).set_grant(kind);
                    fiber::switch(self.sched_ctx.slot(), (*f).sp_slot());
                }
            }
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
    ) -> ThreadId
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        match self.backend {
            Backend::OsThreads => self.spawn_os_thread(proc, name, daemon, f),
            Backend::Fibers => self.spawn_fiber(proc, name, daemon, f),
        }
    }

    /// Registers the bookkeeping every new thread shares: the record, its
    /// wake slot, and (unless the simulation is shutting down, in which
    /// case the record is born `Finished` and the body never runs) the
    /// spawn trace event and start wake. Returns `(tid, live)`.
    fn register_thread(
        st: &mut CoreState,
        proc: ProcId,
        name: &str,
        daemon: bool,
        exec: ThreadExec,
    ) -> (ThreadId, bool) {
        assert!(
            proc.0 < st.procs.len(),
            "spawn: unknown processor {proc}; call add_processor first"
        );
        let tid = ThreadId(st.threads.len());
        let live = !st.shutdown;
        st.threads.push(ThreadRecord {
            name: Arc::from(name),
            proc,
            exec,
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
        });
        if live {
            st.wake.push_live();
            st.trace_event(tid, Layer::Sched, Phase::Instant, "spawn", &[]);
            st.schedule_wake_now(tid, 0);
        } else {
            st.wake.push_retired();
        }
        (tid, live)
    }

    fn spawn_os_thread<F>(
        self: &Arc<Self>,
        proc: ProcId,
        name: &str,
        daemon: bool,
        f: F,
    ) -> ThreadId
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let conduit = Conduit::new();
        let (tid, live) = {
            let mut st = self.state.lock();
            Self::register_thread(
                &mut st,
                proc,
                name,
                daemon,
                ThreadExec::Os {
                    conduit: Arc::clone(&conduit),
                    os_handle: None,
                },
            )
        };
        if !live {
            return tid;
        }

        let core = Arc::clone(self);
        let thread_conduit = Arc::clone(&conduit);
        let os_name = format!("sim-{name}");
        let handle = std::thread::Builder::new()
            .name(os_name)
            .spawn(move || {
                thread_conduit.wait_for_turn();
                let panic_msg = run_thread_body(&core, tid, f);
                finish_thread(&core, tid, panic_msg);
                // Exit always returns the turn to the scheduler — never a
                // direct hand-off — so `stop_on` and panic checks cannot be
                // bypassed by a chain.
                thread_conduit.relinquish();
                core.wake_scheduler();
            })
            .expect("failed to spawn OS thread backing a simulated thread");

        if let ThreadExec::Os { os_handle, .. } = &mut self.state.lock().threads[tid.0].exec {
            *os_handle = Some(handle);
        }
        tid
    }

    fn spawn_fiber<F>(self: &Arc<Self>, proc: ProcId, name: &str, daemon: bool, f: F) -> ThreadId
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let mut st = self.state.lock();
        if st.shutdown {
            // Never build a fiber during teardown: its entry closure would
            // hold an `Arc<Core>` in a cycle nothing is left to break.
            let (tid, _) = Self::register_thread(&mut st, proc, name, daemon, ThreadExec::Retired);
            return tid;
        }
        let core = Arc::clone(self);
        let tid_for_entry = ThreadId(st.threads.len());
        let entry: fiber::EntryFn = Box::new(move || {
            let panic_msg = run_thread_body(&core, tid_for_entry, f);
            finish_thread(&core, tid_for_entry, panic_msg);
            // Return the scheduler slot and drop every capture (notably the
            // `Arc<Core>`) *before* the final switch-out, so a finished
            // fiber's dead stack keeps nothing alive. The slot stays valid:
            // the driving `Simulation` owns its own `Arc<Core>`.
            let slot = core.sched_ctx.slot();
            drop(core);
            slot
        });
        let fiber = fiber::Fiber::new(self.fiber_stack_size, entry);
        let (tid, _) = Self::register_thread(&mut st, proc, name, daemon, ThreadExec::Fiber(fiber));
        debug_assert_eq!(tid, tid_for_entry);
        tid
    }

    /// Advances the simulation by (at least) one thread resumption: pops
    /// events — skipping cancelled wakes without releasing the state lock —
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
            let mut st = self.state.lock();
            if let Some(t) = stop_on {
                if st.threads[t.0].state == ThreadState::Finished {
                    return StepResult::TargetFinished;
                }
            }
            match st.next_live(window_limit) {
                NextEvent::Drained => return StepResult::Drained,
                NextEvent::LimitHit => return StepResult::LimitExceeded,
                NextEvent::WindowEdge => return StepResult::WindowEdge,
                NextEvent::Live(tid) => st.threads[tid.0].exec.target(),
            }
        };
        self.resume_and_wait(target, GRANT_RUN);
        if self.panicked_tid.load(AtomicOrdering::Acquire) != NO_PANIC {
            let panicker = self.panicked_tid.swap(NO_PANIC, AtomicOrdering::AcqRel);
            let panic_info = {
                let mut st = self.state.lock();
                let rec = &mut st.threads[panicker];
                rec.panic.take().map(|msg| (Arc::clone(&rec.name), msg))
            };
            if let Some((name, msg)) = panic_info {
                // Tear the simulation down *before* unwinding the scheduler:
                // fibers resumed for shutdown from an already-panicking host
                // thread would observe `std::thread::panicking()` and take
                // benign returns instead of `ShutdownUnwind`. Shutting down
                // first unwinds every remaining thread cleanly on both
                // backends; the later `Drop` shutdown becomes a no-op.
                self.initiate_shutdown();
                panic!("simulated thread '{name}' panicked: {msg}");
            }
        }
        StepResult::Progress
    }

    /// Registers a cross-lane delivery hook for this lane and returns the
    /// index injection events must carry in their `wait_id`.
    pub(crate) fn register_injector(self: &Arc<Self>, inj: Arc<dyn LaneInjector>) -> usize {
        let mut st = self.state.lock();
        st.injectors.push(inj);
        st.injectors.len() - 1
    }

    pub(crate) fn initiate_shutdown(self: &Arc<Self>) {
        {
            let mut st = self.state.lock();
            st.shutdown = true;
            // Each injector holds an `Arc` of this core (its destination);
            // dropping the registrations breaks the cycle so the cores can
            // actually be freed when the `Simulation` goes away.
            st.injectors.clear();
        }
        // Round-robin resume every unfinished thread until all have unwound.
        // A destructor may block again during unwinding (it receives benign
        // fallback values), so several rounds can be needed.
        for _ in 0..64 {
            let pending: Vec<ResumeTarget> = {
                let st = self.state.lock();
                st.threads
                    .iter()
                    .filter(|t| t.state != ThreadState::Finished)
                    .map(|t| t.exec.target())
                    .collect()
            };
            if pending.is_empty() {
                break;
            }
            for target in pending {
                self.resume_and_wait(target, GRANT_SHUTDOWN);
            }
        }
        let handles: Vec<_> = {
            let mut st = self.state.lock();
            st.threads
                .iter_mut()
                .filter_map(|t| match &mut t.exec {
                    ThreadExec::Os { os_handle, .. } => os_handle.take(),
                    _ => None,
                })
                .collect()
        };
        for h in handles {
            let _ = h.join();
        }
        // Fiber stacks are released when the thread records drop with the
        // `Core` itself; after the rounds above every fiber has run its
        // entry to completion, so no stack holds live frames (or `Arc`s).
    }
}

/// Runs a simulated thread's body under `catch_unwind`, unless the
/// simulation began shutting down before the body first ran. Returns the
/// panic message for real panics (`ShutdownUnwind` is the expected teardown
/// path and reports nothing). Shared by both backends.
fn run_thread_body<F>(core: &Arc<Core>, tid: ThreadId, f: F) -> Option<String>
where
    F: FnOnce(&Ctx) + Send + 'static,
{
    let run_body = !core.state.lock().shutdown;
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
/// joiner wakes. Shared by both backends.
fn finish_thread(core: &Core, tid: ThreadId, panic_msg: Option<String>) {
    let mut st = core.state.lock();
    if panic_msg.is_some() {
        core.panicked_tid.store(tid.0, AtomicOrdering::Release);
    }
    st.wake.disarm(tid);
    let joiners = {
        let rec = &mut st.threads[tid.0];
        rec.state = ThreadState::Finished;
        rec.panic = panic_msg;
        std::mem::take(&mut rec.joiners)
    };
    for (jt, jw) in joiners {
        st.schedule_wake_now(jt, jw);
    }
}

/// Thread-side blocking yield: the other half of the hand-off fast path.
///
/// Lives here (not in `ctx.rs`) so all turn-protocol code sits next to
/// [`Conduit`], [`fiber`] and [`Core::resume_and_wait`]. Called by
/// `Ctx::yield_blocked` after `prepare_block` + wake registration.
///
/// The branch structure — shutdown check, then one `next_live` call, then
/// self-wake / direct grant / chain break — is shared verbatim by both
/// backends, so the *order* of queue pops, RNG draws and trace events (and
/// with it every golden hash) cannot depend on the backend; only the
/// switch mechanism at the leaves differs.
pub(crate) fn yield_blocked(core: &Core, tid: ThreadId, exec: &ExecRef) -> WakeStatus {
    enum Next {
        /// Break the chain; the scheduler decides (drain, budget, shutdown).
        Sched,
        /// Our own wake was the queue head: keep running, zero switches.
        SelfWake,
        /// Hand the turn straight to the woken thread: one switch.
        Grant(ResumeTarget),
    }
    let window_limit = core.window_limit.load(AtomicOrdering::Relaxed);
    let next = {
        let mut st = core.state.lock();
        if st.shutdown {
            // Tear-down in progress: never yield again (the scheduler is
            // gone); let the caller unwind or return a benign value.
            return WakeStatus::Shutdown;
        }
        match st.next_live(window_limit) {
            // A window edge breaks the hand-off chain exactly like a drain:
            // the next event belongs to a later window and only the driver
            // may open it.
            NextEvent::Drained | NextEvent::LimitHit | NextEvent::WindowEdge => Next::Sched,
            NextEvent::Live(t) if t == tid => Next::SelfWake,
            NextEvent::Live(t) => Next::Grant(st.threads[t.0].exec.target()),
        }
    };
    match (next, exec) {
        (Next::SelfWake, _) => WakeStatus::Woken,
        (Next::Grant(target), ExecRef::Os(conduit)) => {
            conduit.relinquish();
            match target {
                // SAFETY: thread records (and their conduit Arcs / fiber
                // boxes) are never removed while the core is alive; see
                // `ThreadExec::target`.
                ResumeTarget::Os(c) => unsafe { (*c).grant(GRANT_RUN) },
                ResumeTarget::Fiber(_) => {
                    unreachable!("fiber target under the os-threads backend")
                }
            }
            match conduit.wait_granted() {
                GRANT_SHUTDOWN => WakeStatus::Shutdown,
                _ => WakeStatus::Woken,
            }
        }
        (Next::Grant(target), ExecRef::Fiber(me)) => {
            match target {
                ResumeTarget::Fiber(next_fiber) => {
                    // SAFETY: same lifetime argument as above; the switch
                    // hands this OS thread to `next_fiber` and returns when
                    // someone grants us again.
                    unsafe {
                        (*next_fiber).set_grant(GRANT_RUN);
                        fiber::switch((**me).sp_slot(), (*next_fiber).sp_slot());
                    }
                }
                ResumeTarget::Os(_) => unreachable!("os target under the fiber backend"),
            }
            match unsafe { (**me).grant() } {
                GRANT_SHUTDOWN => WakeStatus::Shutdown,
                _ => WakeStatus::Woken,
            }
        }
        (Next::Sched, ExecRef::Os(conduit)) => {
            conduit.relinquish();
            core.wake_scheduler();
            match conduit.wait_granted() {
                GRANT_SHUTDOWN => WakeStatus::Shutdown,
                _ => WakeStatus::Woken,
            }
        }
        (Next::Sched, ExecRef::Fiber(me)) => {
            // SAFETY: as above; the scheduler context is suspended inside
            // `resume_and_wait` (strict alternation), so its slot is valid.
            unsafe {
                fiber::switch((**me).sp_slot(), core.sched_ctx.slot());
            }
            match unsafe { (**me).grant() } {
                GRANT_SHUTDOWN => WakeStatus::Shutdown,
                _ => WakeStatus::Woken,
            }
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
