//! Two-tier event queue: a near tier holding the events of the *current*
//! virtual instant plus a far tier (hierarchical timer wheel) for
//! everything later.
//!
//! The scheduler's workload is extremely bimodal. Almost every wake on the
//! hot path — channel sends, mutex hand-offs, CPU grants, spawns — is
//! scheduled *at the current instant* (`schedule_wake_now`), while timers and
//! wire-propagation sleeps land strictly in the future. A single binary heap
//! makes both pay `O(log n)` sift costs against each other; splitting the
//! instants apart makes the dominant same-instant traffic `O(1)`:
//!
//! - **near tier** (`cur`): the events whose time equals `bucket_time`,
//!   the instant the clock currently sits at, sorted by `(tie, seq)`. With
//!   perturbation off, every new same-instant event has a monotonically
//!   larger `seq` than everything already buffered, so `push` is a
//!   `push_back` and `pop` is a `pop_front`. With perturbation on, the tie
//!   draw can order a new event anywhere, so it is binary-insertion-sorted
//!   by `(tie, seq)` — still cheap because same-instant bursts are small.
//! - **far tier** ([`crate::wheel::Wheel`]): every event strictly later
//!   than `bucket_time`, in a hierarchical timer wheel with power-of-two
//!   slot widths and an overflow heap past the wheel span. Push and
//!   amortized pop are `O(1)` in the pending-timer population — at fleet
//!   depth (thousands of live think-time timers per lane) this is what
//!   keeps the queue off the critical path. The wheel's own module docs
//!   carry the ordering proof.
//!
//! When the near tier runs dry the wheel extracts **all** events at its
//! earliest instant — already sorted by `(tie, seq)` — into `cur` and
//! `bucket_time` jumps forward to it. From that moment the far tier is
//! strictly in the future again: new events *at* the instant join `cur` by
//! the push rule above, so `cur` always holds the whole instant in full-key
//! order, which is exactly the pop order of the old single-heap
//! implementation — bit-identical pop order, golden traces, chaos hashes.
//!
//! # The `(time, tie, seq)` total order is a public invariant
//!
//! Events pop in strictly ascending `(time, tie, seq)` order, where `time`
//! is the virtual instant, `tie` is the (usually zero) schedule-perturbation
//! draw, and `seq` is the per-queue monotone insertion counter. Every
//! observable artifact of the simulator — golden trace renders, Table 1
//! latencies, chaos hashes, the chaos sweep aggregate — is downstream of
//! this order, and the windowed parallel scheduler (`crate::shard`) relies
//! on it for bit-identity: a lane's pop order within a window depends only
//! on the lane's own queue contents, never on how many shards advance
//! concurrently. Code outside this module must not assume anything weaker
//! (e.g. "same time ⇒ FIFO" breaks under perturbation) or stronger.
//!
//! # The committed window floor
//!
//! Under windowed execution the driver commits a *floor* before each
//! window: every instant strictly below it is finished history on every
//! lane. Cross-shard injection — nowadays a barrier-time push of an
//! injection event ([`crate::core::LaneInjector`]) straight into this queue
//! — must never schedule below it: conservative lookahead guarantees a
//! cross-lane frame's delivery time lands at or past the window end.
//! [`EventQueue::set_floor`] records the committed floor and `push` carries
//! a debug assertion against it (in addition to the near-tier assertion,
//! which is the stricter per-lane check once the clock has advanced). The
//! floor is assertion-only state, so both it and its maintenance exist in
//! debug builds only; release builds pay nothing for it.

use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::core::ThreadId;
use crate::time::SimTime;
use crate::wheel::Wheel;

/// One scheduled wake. Ordered by `(time, tie, seq)`; see [`Event::cmp`].
///
/// Exactly 32 bytes — half a cache line, two per line in the wheel's slot
/// vectors. The key fields stay full-width `u64` (truncating `tie` would
/// change perturbation pop order, i.e. the pinned chaos hashes); the
/// non-key fields are packed: thread indices and wake generations both fit
/// `u32` in any real world (4 billion threads / 4 billion blocks of one
/// thread), and the generation compare in `WakeTable::consume` is exact
/// modulo `2^32` — a false match would need a thread to block exactly
/// `2^32` generations between a wake being scheduled and delivered.
pub(crate) struct Event {
    pub time: SimTime,
    /// Perturbation tie-break: 0 unless schedule perturbation is enabled, in
    /// which case it is a per-event draw from a dedicated seeded RNG. It is
    /// ordered *after* `time` and *before* `seq`, so virtual time is never
    /// violated — only the pick order among same-instant wakes is shuffled.
    pub tie: u64,
    pub seq: u64,
    /// Target thread index, `u32::MAX` for injection events (the
    /// [`crate::core::INJECT_THREAD`] sentinel).
    thread: u32,
    /// Wake generation this event belongs to (truncated; see the type
    /// docs); stale if the target thread's live generation has moved past
    /// it (see `CoreState::next_live`). Injection events carry the injector
    /// index here instead.
    wait_gen: u32,
}

const _: () = assert!(
    std::mem::size_of::<Event>() == 32,
    "Event packs to 32 bytes"
);

impl Event {
    pub(crate) fn new(time: SimTime, tie: u64, seq: u64, thread: ThreadId, wait_id: u64) -> Event {
        debug_assert!(
            thread.0 == usize::MAX || thread.0 < u32::MAX as usize,
            "thread index overflows the packed event"
        );
        Event {
            time,
            tie,
            seq,
            // usize::MAX (the injection sentinel) truncates to u32::MAX.
            thread: thread.0 as u32,
            wait_gen: wait_id as u32,
        }
    }

    /// The target thread, with the injection sentinel widened back.
    pub(crate) fn thread(&self) -> ThreadId {
        if self.thread == u32::MAX {
            crate::core::INJECT_THREAD
        } else {
            ThreadId(self.thread as usize)
        }
    }

    /// The (truncated) wake generation, or the injector index.
    pub(crate) fn wait_gen(&self) -> u32 {
        self.wait_gen
    }

    /// The total-order key. Everything about queue ordering compares this.
    #[inline]
    pub(crate) fn key(&self) -> (SimTime, u64, u64) {
        (self.time, self.tie, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        // Must agree with `Ord::cmp` below: compare the full
        // (time, tie, seq) key, not just (time, seq).
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, tie, seq)
        // pops first. With perturbation off every `tie` is 0 and the order
        // degenerates to the historical (time, seq) FIFO.
        other.key().cmp(&self.key())
    }
}

/// Lifetime accounting of one event queue, and — summed across lanes — of a
/// whole simulation ([`crate::Simulation::queue_stats`]). Every field is a
/// property of the simulated program, not of wall-clock or shard count, so
/// the numbers are deterministic and safe to diff across runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Peak events pending at once (near + far + overflow). Summed across
    /// lanes this is the sum of per-lane peaks, not a global instant.
    pub peak_depth: u64,
    /// Pushes that landed in the near (current-instant) tier.
    pub near_pushes: u64,
    /// Pushes that landed in the timer wheel proper.
    pub wheel_pushes: u64,
    /// Pushes that landed past the wheel span, in the overflow heap.
    pub overflow_pushes: u64,
    /// Wheel slot redistributions (one per cascaded slot, not per event).
    pub cascades: u64,
}

impl QueueStats {
    /// Folds another queue's counters in (lane summation).
    pub fn merge(&mut self, other: &QueueStats) {
        self.peak_depth += other.peak_depth;
        self.near_pushes += other.near_pushes;
        self.wheel_pushes += other.wheel_pushes;
        self.overflow_pushes += other.overflow_pushes;
        self.cascades += other.cascades;
    }
}

/// The two-tier queue. Drop-in replacement for `BinaryHeap<Event>` with the
/// identical pop order (the module docs explain why).
pub(crate) struct EventQueue {
    /// The instant the near tier covers. Starts at zero and only moves
    /// forward, always to the time of a popped event — so it tracks the
    /// scheduler clock exactly.
    bucket_time: SimTime,
    /// Near tier: every event at `bucket_time`, sorted ascending by
    /// `(tie, seq)`: first those the far tier held when the clock jumped
    /// here, then those pushed since.
    cur: VecDeque<Event>,
    /// Far tier: events strictly later than `bucket_time`.
    wheel: Wheel,
    /// Peak `len()` ever observed; the rest of [`QueueStats`] lives in the
    /// wheel.
    peak_depth: u64,
    /// Near-tier push count.
    near_pushes: u64,
    /// Committed window floor (see the module docs). `SimTime::ZERO` — i.e.
    /// no constraint — outside windowed execution. Debug-assertion state;
    /// release builds drop the field entirely.
    #[cfg(debug_assertions)]
    floor: SimTime,
}

impl EventQueue {
    /// `cap` is the expected peak pending-event population — at boot, one
    /// start wake per spawned thread, all at the same instant, so the *near*
    /// tier is what must absorb it without reallocating (the
    /// `expected_threads` builder hint ends up here).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        EventQueue {
            bucket_time: SimTime::ZERO,
            cur: VecDeque::with_capacity(cap),
            wheel: Wheel::with_capacity(cap),
            peak_depth: 0,
            near_pushes: 0,
            #[cfg(debug_assertions)]
            floor: SimTime::ZERO,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cur.len() + self.wheel.len()
    }

    /// The earliest queued event's time, without popping. Dead-generation
    /// events count — they still advance the clock when popped, so the
    /// windowed driver must treat them as work below the window edge.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        if !self.cur.is_empty() {
            // Near-tier events sit at `bucket_time`; the far tier is
            // strictly later, so it can't change the minimum.
            return Some(self.bucket_time);
        }
        self.wheel.peek_time()
    }

    /// The queue's lifetime accounting.
    pub(crate) fn stats(&self) -> QueueStats {
        QueueStats {
            peak_depth: self.peak_depth,
            near_pushes: self.near_pushes,
            wheel_pushes: self.wheel.wheel_pushes,
            overflow_pushes: self.wheel.overflow_pushes,
            cascades: self.wheel.cascades,
        }
    }

    /// Records the committed window floor (debug-asserted by `push`;
    /// debug builds only, like the floor itself).
    #[cfg(debug_assertions)]
    pub(crate) fn set_floor(&mut self, floor: SimTime) {
        self.floor = floor;
    }

    pub(crate) fn push(&mut self, ev: Event) {
        #[cfg(debug_assertions)]
        debug_assert!(
            ev.time >= self.floor,
            "cannot schedule below the committed window floor"
        );
        debug_assert!(
            ev.time >= self.bucket_time,
            "cannot schedule behind the near tier"
        );
        if ev.time != self.bucket_time {
            self.wheel.push(ev);
        } else {
            self.near_pushes += 1;
            // Same-instant fast path: with perturbation off (tie == 0
            // always) the new seq is the largest yet, so the near tier stays
            // sorted with a plain push_back. A random tie draw can land
            // anywhere; fall back to binary insertion by (tie, seq).
            match self.cur.back() {
                Some(last) if last.key() > ev.key() => {
                    let at = self.cur.partition_point(|e| e.key() < ev.key());
                    self.cur.insert(at, ev);
                }
                _ => self.cur.push_back(ev),
            }
        }
        let depth = self.len() as u64;
        if depth > self.peak_depth {
            self.peak_depth = depth;
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Event> {
        if self.cur.is_empty() {
            // Near tier dry: commit the clock jump to the far tier's
            // earliest instant and drain everything at it into `cur`.
            let t = self.wheel.take_min(&mut self.cur)?;
            debug_assert!(t > self.bucket_time, "far tier was not strictly future");
            self.bucket_time = t;
        }
        self.cur.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    fn ev(time_ns: u64, tie: u64, seq: u64) -> Event {
        Event::new(SimTime::from_nanos(time_ns), tie, seq, ThreadId(0), 0)
    }

    /// Reference model: the old single binary heap.
    #[derive(Default)]
    struct RefHeap(BinaryHeap<Event>);
    impl RefHeap {
        fn push(&mut self, e: Event) {
            self.0.push(e);
        }
        fn pop(&mut self) -> Option<Event> {
            self.0.pop()
        }
    }

    #[test]
    fn same_instant_fifo() {
        let mut q = EventQueue::with_capacity(8);
        for seq in 0..10 {
            q.push(ev(0, 0, seq));
        }
        for seq in 0..10 {
            assert_eq!(q.pop().unwrap().seq, seq);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_event_at_bucket_time_wins_on_smaller_seq() {
        let mut q = EventQueue::with_capacity(8);
        // Timer scheduled for t=100 while the clock is at 0 …
        q.push(ev(100, 0, 0));
        // … a same-instant event pops first and advances nothing.
        q.push(ev(0, 0, 1));
        assert_eq!(q.pop().unwrap().seq, 1);
        // Clock jumps to 100 via the far tier.
        assert_eq!(q.pop().unwrap().seq, 0);
        // New events at 100 join the near tier in seq order.
        q.push(ev(100, 0, 2));
        q.push(ev(100, 0, 3));
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 3);
    }

    #[test]
    fn perturbation_ties_order_within_instant() {
        let mut q = EventQueue::with_capacity(8);
        q.push(ev(0, 5, 0));
        q.push(ev(0, 1, 1));
        q.push(ev(0, 9, 2));
        q.push(ev(0, 1, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    /// Events packed into one wheel slot at a coarse level must come back
    /// out in full-key order across the cascade, interleaved correctly with
    /// finer-level residents and the far-future overflow heap.
    #[test]
    fn cascade_preserves_full_key_order() {
        let mut q = EventQueue::with_capacity(8);
        // All pushed at clock 0, in shuffled order: same coarse slot
        // (4096..8192 differs from the cursor at bit 12, level 2), a
        // level-0/1 population in front, exact slot-boundary times, and two
        // beyond-the-span overflow events — one of which collides in time
        // with a wheel event after the cursor advances.
        let times = [
            5000u64,
            4097,
            (1 << 36) + 3, // overflow
            63,
            4096, // slot boundary: lowest time of the coarse slot
            64,   // level boundary: first level-1 instant
            65,
            8191, // last instant of the coarse slot
            1,
            (1 << 40) - 1, // overflow
            4100,
            4099,
        ];
        for (seq, &t) in times.iter().enumerate() {
            q.push(ev(t, 0, seq as u64));
        }
        let mut popped: Vec<(u64, u64)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push((e.time.as_nanos(), e.seq));
        }
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(seq, &t)| (t, seq as u64))
            .collect();
        expect.sort_unstable();
        assert_eq!(popped, expect);
        let stats = q.stats();
        assert!(stats.cascades > 0, "coarse slot cascaded: {stats:?}");
        assert_eq!(stats.overflow_pushes, 2, "{stats:?}");
        assert_eq!(stats.peak_depth, times.len() as u64, "{stats:?}");
    }

    /// Same-instant events split across the far tier's slot extraction and
    /// later near-tier pushes still merge by (tie, seq) under perturbation.
    #[test]
    fn perturbation_ties_merge_across_tiers_mid_slot() {
        let mut q = EventQueue::with_capacity(8);
        q.push(ev(100, 7, 0));
        q.push(ev(100, 2, 1));
        q.push(ev(0, 0, 2));
        assert_eq!(q.pop().unwrap().seq, 2);
        // Clock jumps to 100; ties 7 and 2 now sit in the near tier.
        assert_eq!(q.pop().unwrap().tie, 2);
        // New pushes at 100 join the near tier and must interleave by tie.
        q.push(ev(100, 5, 3));
        q.push(ev(100, 9, 4));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.tie).collect();
        assert_eq!(order, vec![5, 7, 9]);
    }

    /// Workload generator: interleaved pushes and pops where pushed times
    /// never go behind the latest popped time (the scheduler invariant),
    /// with optional perturbation-style random ties. Pops interleave with
    /// pushes exactly as the scheduler does, including batches that drain
    /// several stale-generation events in a row.
    fn workload() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
        // (op, time_delta, tie): op 0..=2 push (delta ahead of the
        // watermark; 0 = same instant), 3 pop.
        proptest::collection::vec((0u8..4, 0u64..50, any::<u64>()), 0..300)
    }

    /// Wheel-adversarial deltas: at, straddling, and just past slot and
    /// level boundaries (powers of two ±1 across the whole span), plus
    /// far-future jumps beyond the wheel span that exercise the overflow
    /// heap and its time collisions with wheel residents after the cursor
    /// advances. Pop bursts (op 3) drive drain-then-refill cycles across
    /// those boundaries.
    fn boundary_workload() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
        // (op, (kind, r), tie) decodes to (op, delta, tie): kind 0 a small
        // linear delta, kind 1 a power of two ±1 across the whole span,
        // kind 2 a beyond-span jump onto the overflow heap.
        proptest::collection::vec((0u8..4, (0u8..3, 0u64..4000), any::<u64>()), 0..300).prop_map(
            |ops| {
                ops.into_iter()
                    .map(|(op, (kind, r), tie)| {
                        let delta = match kind {
                            0 => r % 130,
                            1 => {
                                let bit = 1 + (r % 39) as u32; // 2^1 ..= 2^39
                                let off = (r / 39) % 3; // -1, 0, +1
                                (1u64 << bit) + off - 1
                            }
                            _ => (1u64 << 36) - 2 + r % 1000,
                        };
                        (op, delta, tie)
                    })
                    .collect()
            },
        )
    }

    fn run_against_reference(ops: Vec<(u8, u64, u64)>, perturb: bool) {
        let mut q = EventQueue::with_capacity(8);
        let mut r = RefHeap::default();
        let mut seq = 0u64;
        let mut watermark = 0u64; // latest popped time, in ns
        for (op, delta, tie) in ops {
            if op < 3 {
                let t = watermark + delta;
                let tie = if perturb { tie } else { 0 };
                q.push(ev(t, tie, seq));
                r.push(ev(t, tie, seq));
                seq += 1;
            } else {
                let a = q.pop();
                let b = r.pop();
                assert_eq!(a.is_some(), b.is_some());
                if let (Some(a), Some(b)) = (a, b) {
                    assert_eq!(a.key(), b.key());
                    watermark = a.time.as_nanos();
                }
            }
        }
        // Drain both completely; the tails must agree too.
        loop {
            match (q.pop(), r.pop()) {
                (None, None) => break,
                (a, b) => {
                    assert_eq!(a.map(|e| e.key()), b.map(|e| e.key()));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn matches_reference_heap(ops in workload(), perturb in any::<bool>()) {
            run_against_reference(ops, perturb);
        }

        #[test]
        fn matches_reference_heap_at_wheel_boundaries(
            ops in boundary_workload(),
            perturb in any::<bool>(),
        ) {
            run_against_reference(ops, perturb);
        }
    }
}
