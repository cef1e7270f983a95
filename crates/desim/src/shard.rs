//! Conservative windowed parallel execution: lanes, shard-count selection,
//! and cross-lane links.
//!
//! A [`crate::Simulation`] normally runs one scheduler. With
//! [`crate::Simulation::add_lane`] it becomes a *federation* of schedulers
//! — each lane owns its own event queue, virtual clock, sequence counter,
//! RNG, perturbation stream, and trace buffers, so a lane's execution is a
//! complete, self-contained deterministic simulation. Lanes may only
//! interact through [`XSender`] links, which carry a fixed positive delay.
//! The minimum delay over all links is the **lookahead**: a value sent at
//! or after instant `T` cannot take effect on another lane before
//! `T + lookahead`.
//!
//! The driver exploits that bound with the classic conservative-window
//! scheme. Each round it computes `T_min`, the earliest queued instant
//! across all lanes, opens the window `[T_min, T_min + lookahead)`, lets
//! every lane advance independently (and in parallel, up to the configured
//! shard count) until its next event would land at or past the window end,
//! and then — with all lanes stopped — flushes every link that carried
//! traffic into its destination lane. Because a message sent during the
//! window was sent at some `t ≥ T_min`, it is delivered at `t + delay ≥
//! T_min + lookahead`, i.e. at or past the window end: no lane can ever
//! receive a message for an instant it has already executed, and no lane's
//! intra-window schedule can depend on what other lanes did concurrently.
//!
//! **Bit-identity follows by construction.** The window boundaries depend
//! only on queue contents and the lookahead; the barrier-time flush order
//! is the fixed link registration order (restricted to the links that
//! carried traffic — a quiet link's flush had no effect); and each lane's
//! pop order within a window is its own `(time, tie, seq)` order (see
//! `queue.rs`). None of that mentions how many OS threads advance lanes
//! concurrently, so `shards=1` and `shards=N` produce byte-identical
//! traces, reports, and hashes — the property `tests/shard_equivalence.rs`
//! pins.
//!
//! # Shard-count selection
//!
//! The shard count is the *maximum number of runner OS threads*; the
//! effective parallelism is `min(shards, lanes)`, so single-lane
//! simulations are untouched by any setting. Priority, highest first:
//!
//! 1. [`crate::SimulationBuilder::shards`] — explicit per-simulation choice.
//! 2. [`set_shards_override`] — a process-global override, for tests and
//!    harnesses that construct simulations indirectly.
//! 3. The `DESIM_SHARDS` environment variable (a number, or `auto`/`0` for
//!    one runner per host core), read afresh at each construction.
//! 4. `auto`.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::channel::SimChannel;
use crate::core::{Core, CoreState, LaneInjector};
use crate::time::{SimDuration, SimTime};
use crate::Ctx;

/// Identifies one scheduler lane of a [`crate::Simulation`]. Lane 0 always
/// exists; further lanes come from [`crate::Simulation::add_lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LaneId(pub(crate) u32);

impl LaneId {
    /// The default lane every single-lane simulation runs on.
    pub const ZERO: LaneId = LaneId(0);

    /// The lane's index (lane 0 is the default lane).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lane{}", self.0)
    }
}

/// Derives the RNG seed for lane `lane` from the simulation seed. Lane 0
/// keeps the seed unchanged, so every single-lane simulation is
/// byte-identical to what it was before lanes existed; further lanes get
/// independent streams via a splitmix64 scramble.
pub(crate) fn lane_seed(seed: u64, lane: u64) -> u64 {
    if lane == 0 {
        return seed;
    }
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Requested shard count, before clamping to the lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardCount {
    /// One runner per host core.
    Auto,
    /// Exactly this many runners (at least 1).
    Fixed(usize),
}

impl ShardCount {
    /// The runner count this setting stands for on this host.
    pub(crate) fn resolve(self) -> usize {
        match self {
            ShardCount::Fixed(n) => n.max(1),
            ShardCount::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

const NO_OVERRIDE: usize = usize::MAX;

// usize::MAX = no override, 0 = auto, n = fixed.
static OVERRIDE: AtomicUsize = AtomicUsize::new(NO_OVERRIDE);

/// Sets (or clears, with `None`) a process-global shard-count override that
/// outranks `DESIM_SHARDS` but not an explicit
/// [`crate::SimulationBuilder::shards`] call. `Some(0)` means `auto` (one
/// runner per host core). Intended for tests and CLIs that drive code
/// which constructs `Simulation`s internally; tests sharing a process must
/// serialize around it. The shard count never affects observable results —
/// only wall-clock time — so a stray override can slow a run down but not
/// change it.
pub fn set_shards_override(shards: Option<usize>) {
    OVERRIDE.store(shards.unwrap_or(NO_OVERRIDE), Ordering::SeqCst);
}

/// The shard count a simulation gets without an explicit builder call: the
/// process override if set, else `DESIM_SHARDS`, else `auto`. Panics on an
/// unparseable `DESIM_SHARDS` so typos fail loudly.
pub(crate) fn default_shards() -> ShardCount {
    match OVERRIDE.load(Ordering::SeqCst) {
        NO_OVERRIDE => {}
        0 => return ShardCount::Auto,
        n => return ShardCount::Fixed(n),
    }
    if let Ok(v) = std::env::var("DESIM_SHARDS") {
        let t = v.trim();
        if t.eq_ignore_ascii_case("auto") {
            return ShardCount::Auto;
        }
        return match t.parse::<usize>() {
            Ok(0) => ShardCount::Auto,
            Ok(n) => ShardCount::Fixed(n),
            Err(_) => panic!("DESIM_SHARDS={v:?} is not a shard count (use a number or \"auto\")"),
        };
    }
    ShardCount::Auto
}

/// Barrier-side face of a cross-lane link, held by the `Simulation` driver.
/// Only called between windows, when no lane is running.
pub(crate) trait XPort: Send + Sync {
    /// The link's fixed delay; the global lookahead is the minimum over all
    /// registered links.
    fn min_delay(&self) -> SimDuration;

    /// The destination lane's index, so the driver can fold a flush's
    /// newly armed instant into that lane's published next-event slot.
    fn dst_lane(&self) -> usize;

    /// Moves everything sent during the last window into the destination
    /// lane's pending list and, when the earliest pending delivery is not
    /// already covered by a queued injection event, pushes one directly
    /// into the destination lane's event queue and returns its instant
    /// (the driver folds it into the lane's published next-event slot, so
    /// a lane made runnable only by this flush is not skipped). `floor` is
    /// the committed global horizon: conservative lookahead guarantees
    /// every delivery lands at or past it, which is debug-asserted here
    /// (the cross-shard-injection assertion of `queue.rs`'s module docs).
    ///
    /// Called only for links whose bit [`LinkTable::flush_dirty`] found set,
    /// i.e. whose outbox is non-empty. A quiet link is never visited: its
    /// flush would have been a no-op, since anything still pending already
    /// has an injection event queued (armed at flush or re-armed at
    /// delivery).
    fn flush(&self, floor: SimTime) -> Option<SimTime>;
}

/// One link's bit in the [`LinkTable`] dirty bitmap.
struct DirtyBit {
    word: Arc<AtomicU64>,
    mask: u64,
}

/// Every cross-lane link of a simulation, in registration order — the
/// barrier-time flush order, part of the deterministic merge — plus a dirty
/// bitmap over registration indices, one `AtomicU64` word per 64 links.
///
/// A link's first send of a window (the one that finds its outbox empty)
/// raises its bit; [`LinkTable::flush_dirty`] swaps each word to zero and
/// flushes only the set bits, in ascending order. So the between-window
/// phase costs O(words + links with traffic), not O(links): a 1024-machine
/// switch tree registers ~600 links and has well under one with traffic per
/// window.
#[derive(Default)]
pub(crate) struct LinkTable {
    ports: Vec<Arc<dyn XPort>>,
    dirty: Vec<Arc<AtomicU64>>,
}

impl LinkTable {
    /// Number of registered links.
    pub(crate) fn len(&self) -> usize {
        self.ports.len()
    }

    /// The minimum delay over all links (`None` without links).
    pub(crate) fn lookahead(&self) -> Option<SimDuration> {
        self.ports.iter().map(|x| x.min_delay()).min()
    }

    /// Builds a link's shared state, registers its delivery hook with the
    /// destination lane and its port (with the next dirty bit) here, and
    /// returns the sender for [`crate::Simulation::cross_link`] to hand
    /// out. Deliveries happen via barrier-time injection events, so no
    /// daemon is spawned anywhere.
    pub(crate) fn register<T: Send + 'static>(
        &mut self,
        delay: SimDuration,
        src_core: &Arc<Core>,
        dst_core: &Arc<Core>,
        dst_lane: usize,
        dst: SimChannel<T>,
    ) -> XSender<T> {
        assert!(
            !delay.is_zero(),
            "cross-lane links need a positive delay: it is the lookahead that \
             makes parallel windows safe"
        );
        let i = self.ports.len();
        if i / 64 == self.dirty.len() {
            self.dirty.push(Arc::new(AtomicU64::new(0)));
        }
        let idx = dst_core.state.lock().injectors.len();
        let shared = Arc::new(XShared {
            delay,
            dst_lane,
            idx,
            dirty: DirtyBit {
                word: Arc::clone(&self.dirty[i / 64]),
                mask: 1 << (i % 64),
            },
            outbox: Mutex::new(Vec::new()),
            pending: Mutex::new(PendingBox {
                q: VecDeque::new(),
                armed: Vec::new(),
            }),
            dst_core: Arc::clone(dst_core),
            dst,
            src_core_addr: Arc::as_ptr(src_core) as usize,
        });
        let registered = dst_core.register_injector(Arc::clone(&shared) as Arc<dyn LaneInjector>);
        debug_assert_eq!(registered, idx);
        self.ports.push(Arc::clone(&shared) as Arc<dyn XPort>);
        XSender { shared }
    }

    /// Flushes every link that was sent on since the last call, in
    /// registration order, calling `armed(dst_lane, instant)` for each
    /// fresh injection event. Returns the number of links flushed. Only
    /// called between windows, when no lane is running.
    pub(crate) fn flush_dirty(&self, floor: SimTime, mut armed: impl FnMut(usize, SimTime)) -> u64 {
        let mut flushed = 0;
        for (w, word) in self.dirty.iter().enumerate() {
            let mut bits = word.swap(0, Ordering::Acquire);
            while bits != 0 {
                let xp = &self.ports[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                flushed += 1;
                if let Some(t) = xp.flush(floor) {
                    armed(xp.dst_lane(), t);
                }
            }
        }
        flushed
    }
}

/// Shared state of one [`XSender`] link.
///
/// Values travel in three hops, none of which lets a receiver observe a
/// value early:
///
/// 1. `send` (source lane, during a window) appends `(now + delay, value)`
///    to the `outbox` — invisible to the destination. The send that finds
///    the outbox empty also raises the link's bit in the [`LinkTable`]
///    dirty bitmap, so the barrier visits this link and no quiet one.
/// 2. `flush` (driver, at the window barrier) merges the outbox into
///    `pending`, sorted by delivery time, and pushes an *injection event*
///    ([`LaneInjector`]) into the destination lane's queue at the earliest
///    pending instant.
/// 3. When the injection event pops — at exactly the delivery instant, on
///    the destination lane — [`XShared::deliver_due`] runs under that
///    lane's state lock and enqueues every due value with a deferred
///    channel send, so the receiving side sees a plain in-lane message
///    with the correct timestamp and pick order. No injector daemon, no
///    daemon wake, no channel hop: a cross-lane frame costs one queue pop.
struct XShared<T> {
    delay: SimDuration,
    /// Destination lane index (for the driver's slot bookkeeping).
    dst_lane: usize,
    /// This link's index in the destination lane's injector table; carried
    /// by every injection event the link arms.
    idx: usize,
    /// Raised by the first `send` of a window, cleared by the driver's
    /// [`LinkTable::flush_dirty`] just before it flushes this link.
    dirty: DirtyBit,
    /// `(delivery instant, value)` pairs sent during the current window, in
    /// send order (per-lane virtual time is monotone, so also time order).
    outbox: Mutex<Vec<(SimTime, T)>>,
    /// Flushed, undelivered values sorted by delivery instant (stable, so
    /// same-instant values keep flush order).
    pending: Mutex<PendingBox<T>>,
    dst_core: Arc<Core>,
    dst: SimChannel<T>,
    /// `Arc::as_ptr` of the source lane's core, for the debug-only
    /// wrong-lane check in `send`.
    src_core_addr: usize,
}

struct PendingBox<T> {
    q: VecDeque<(SimTime, T)>,
    /// Instants of this link's injection events currently queued in the
    /// destination lane, strictly decreasing (a re-arm always beats every
    /// existing arming, so the earliest — the next to fire — is the last
    /// element). Usually one entry; superseded later events stay queued
    /// and pop as harmless no-ops that advance the clock like any event.
    armed: Vec<SimTime>,
}

impl<T> PendingBox<T> {
    /// Whether a delivery at `front` needs a fresh injection event, i.e.
    /// no queued one fires early enough.
    fn needs_arm(&self, front: SimTime) -> bool {
        self.armed.last().is_none_or(|&a| front < a)
    }
}

impl<T: Send + 'static> LaneInjector for XShared<T> {
    /// Runs on the destination lane when one of this link's injection
    /// events pops at `now`: delivers every pending value due by `now` and
    /// reports when the next one falls due (if no later queued injection
    /// event covers it). Receiver wakes go through the deferred-send path,
    /// which is the exact enqueue+wake sequence of an in-lane
    /// `SimChannel::send` — same `(time, tie, seq)` draws, same pick order.
    fn deliver_due(&self, st: &mut CoreState, now: SimTime) -> Option<SimTime> {
        let mut p = self.pending.lock();
        debug_assert_eq!(
            p.armed.last().copied(),
            Some(now),
            "injection events fire in arming order"
        );
        p.armed.pop();
        while p.q.front().is_some_and(|e| e.0 <= now) {
            let (_, v) = p.q.pop_front().expect("peeked");
            // A closed channel drops the value, like the daemon's send did.
            if let Ok(Some(w)) = self.dst.send_deferred(v) {
                let (t, wid) = w.into_parts();
                st.schedule_wake_now(t, wid);
            }
        }
        let front = p.q.front().map(|e| e.0)?;
        if p.needs_arm(front) {
            p.armed.push(front);
            return Some(front);
        }
        None
    }
}

impl<T: Send + 'static> XPort for XShared<T> {
    fn min_delay(&self) -> SimDuration {
        self.delay
    }

    fn dst_lane(&self) -> usize {
        self.dst_lane
    }

    fn flush(&self, floor: SimTime) -> Option<SimTime> {
        let out: Vec<(SimTime, T)> = std::mem::take(&mut *self.outbox.lock());
        let front = {
            let mut p = self.pending.lock();
            for (at, v) in out {
                debug_assert!(
                    at >= floor,
                    "cross-shard injection below the committed window floor"
                );
                // Stable insert: later flushes of equal instants go after.
                let pos = p.q.partition_point(|e| e.0 <= at);
                p.q.insert(pos, (at, v));
            }
            let front = p.q.front().expect("a dirty link has sent something").0;
            if !p.needs_arm(front) {
                return None;
            }
            p.armed.push(front);
            front
            // Pending lock released before the destination state lock:
            // barrier-time flushes and in-window deliveries never overlap
            // (every lane is stopped here), but keeping the lock ranges
            // disjoint keeps the ordering trivially sound.
        };
        self.dst_core
            .state
            .lock()
            .schedule_injection(front, self.idx);
        Some(front)
    }
}

/// Sending end of a cross-lane link created by
/// [`crate::Simulation::cross_link`]. Clonable; every clone must be used
/// from the link's *source* lane only (debug-asserted).
///
/// This is the **only** legal way for simulated code on one lane to affect
/// another lane. Sharing a [`SimChannel`], [`crate::SimMutex`], or
/// [`crate::ThreadHandle::join`] across lanes is a bug (and debug-asserted
/// where cheap): those primitives schedule wakes directly into a core and
/// would bypass the lookahead bound that makes parallel windows safe.
pub struct XSender<T> {
    shared: Arc<XShared<T>>,
}

impl<T> Clone for XSender<T> {
    fn clone(&self) -> Self {
        XSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> fmt::Debug for XSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XSender")
            .field("delay", &self.shared.delay)
            .finish()
    }
}

impl<T: Send + 'static> XSender<T> {
    /// Sends `value` to the destination lane's channel, arriving exactly
    /// `delay` after the current instant. Never blocks; the value becomes
    /// visible to the destination at the next window boundary (which the
    /// lookahead guarantees is before the delivery instant).
    pub fn send(&self, ctx: &Ctx, value: T) {
        debug_assert_eq!(
            Arc::as_ptr(ctx.core()) as usize,
            self.shared.src_core_addr,
            "XSender used from a lane other than its source lane"
        );
        let at = ctx.now() + self.shared.delay;
        let mut out = self.shared.outbox.lock();
        if out.is_empty() {
            // First send since the last flush. The window barrier orders
            // this against the driver's swap, so Release is belt-and-braces,
            // not load-bearing.
            let bit = &self.shared.dirty;
            bit.word.fetch_or(bit.mask, Ordering::Release);
        }
        out.push((at, value));
    }

    /// The link's fixed delivery delay.
    pub fn delay(&self) -> SimDuration {
        self.shared.delay
    }
}

/// One lane's published position, written lock-free by whichever runner
/// drove the lane last: the earliest queued instant (`u64::MAX` = drained)
/// and the lane's cumulative event count. Lets the coordinator compute
/// `T_min`, the summed event-budget check, and the idle-lane skip without
/// touching any lane's state lock between windows.
pub(crate) struct LaneSlot {
    /// Nanoseconds of the lane's earliest queued event; `u64::MAX` when
    /// the lane is drained.
    pub next: AtomicU64,
    /// Mirror of the lane's `events_processed`.
    pub events: AtomicU64,
}

/// Sense-reversing window gate: the coordinator opens each window by
/// bumping a generation counter and the workers report completion by
/// decrementing an active count — one atomic store-and-wait pair per
/// window instead of the two `std::sync::Barrier` futex round trips the
/// driver used to pay. Waiters spin briefly (multicore hosts only, same
/// heuristic as the scheduler hand-off) and then `yield_now`, which on an
/// oversubscribed host immediately schedules the runner holding the work —
/// the profile that made the old barrier cost ~90 µs per window on the
/// one-core reference container.
pub(crate) struct WindowGate {
    /// Window generation; bumped by [`WindowGate::open`].
    gen: AtomicU64,
    /// Workers still driving the current window.
    active: AtomicUsize,
    /// Worker count (runners minus the coordinator).
    workers: usize,
    /// Spin before yielding (multicore hosts).
    spin: bool,
}

impl WindowGate {
    pub(crate) fn new(workers: usize) -> WindowGate {
        WindowGate {
            gen: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            workers,
            spin: crate::core::spin_before_park(),
        }
    }

    #[inline]
    fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        if self.spin {
            for _ in 0..128 {
                if ready() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        while !ready() {
            std::thread::yield_now();
        }
    }

    /// Coordinator: open the next window. The `active` store precedes the
    /// generation bump, and every pre-window write (window bounds, lane
    /// slots) precedes this call, so a worker's acquire on the generation
    /// sees them all.
    pub(crate) fn open(&self) {
        self.active.store(self.workers, Ordering::Release);
        self.gen.fetch_add(1, Ordering::Release);
    }

    /// Worker: block until a generation newer than `seen` opens; returns
    /// the new generation.
    pub(crate) fn wait_open(&self, seen: u64) -> u64 {
        self.wait_until(|| self.gen.load(Ordering::Acquire) != seen);
        self.gen.load(Ordering::Acquire)
    }

    /// Worker: report this window's lanes done. The release pairs with the
    /// coordinator's acquire in [`WindowGate::wait_done`], publishing the
    /// worker's slot stores.
    pub(crate) fn done(&self) {
        self.active.fetch_sub(1, Ordering::Release);
    }

    /// Coordinator: block until every worker reported done.
    pub(crate) fn wait_done(&self) {
        self.wait_until(|| self.active.load(Ordering::Acquire) == 0);
    }
}
