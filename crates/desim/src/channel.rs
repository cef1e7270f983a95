//! FIFO message channels between simulated threads.
//!
//! [`SimChannel`] is the workhorse of the protocol stack: NIC receive queues,
//! daemon-thread inboxes, and reply slots are all channels. A channel is a
//! clonable handle; all clones share the same queue.
//!
//! A channel serves one lane: the first operation binds it to the caller's
//! lane, and an operation from any other lane panics instead of racing on
//! the queue (see [`LaneKey`]). Within its lane only the turn holder runs,
//! so the queue sits in a [`TurnCell`] and takes no lock.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::core::{CoreState, LaneKey, ThreadId, WakeStatus};
use crate::time::{SimDuration, SimTime};
use crate::turn::{TurnCell, TurnGuard};
use crate::Ctx;

/// Error returned by [`SimChannel::send`] when the channel is closed.
///
/// The unsent value is handed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a closed channel")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`SimChannel::recv_until`] and
/// [`SimChannel::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed before a message arrived.
    Timeout,
    /// The channel is closed and drained.
    Closed,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "timed out waiting for a message"),
            RecvTimeoutError::Closed => write!(f, "channel is closed"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

struct Inner<T> {
    queue: VecDeque<T>,
    recv_waiters: VecDeque<(ThreadId, u64)>,
    closed: bool,
}

struct Shared<T> {
    /// [`LaneKey::raw`] of the lane this channel serves; 0 until its first
    /// operation binds it.
    lane: AtomicU64,
    inner: TurnCell<Inner<T>>,
}

/// An unbounded multi-producer multi-consumer FIFO channel in virtual time.
///
/// Every operation must come from one lane: the first binds the channel to
/// its caller's lane, and one from another lane panics. Traffic between
/// lanes goes through [`crate::Simulation::cross_link`].
///
/// # Examples
///
/// ```
/// use desim::{Simulation, SimChannel, us};
///
/// let mut sim = Simulation::new(3);
/// let cpu = sim.add_processor("m0");
/// let ch = SimChannel::new();
/// let tx = ch.clone();
/// sim.spawn(cpu, "producer", move |ctx| {
///     ctx.sleep(us(5));
///     tx.send(ctx, 42u32).expect("open");
/// });
/// let consumer = sim.spawn(cpu, "consumer", move |ctx| {
///     assert_eq!(ch.recv(ctx), Some(42));
/// });
/// sim.run_until_finished(&consumer).expect("run");
/// ```
pub struct SimChannel<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Shows only the lane the channel serves (`None` before its first
/// operation): the queue belongs to that lane's turn, which a formatter
/// elsewhere does not hold.
impl<T> fmt::Debug for SimChannel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lane = LaneKey::from_raw(self.shared.lane.load(Ordering::Relaxed)).map(LaneKey::lane);
        f.debug_struct("SimChannel")
            .field("lane", &lane)
            .finish_non_exhaustive()
    }
}

impl<T> Default for SimChannel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SimChannel<T> {
    /// Creates an empty open channel.
    pub fn new() -> Self {
        SimChannel {
            shared: Arc::new(Shared {
                lane: AtomicU64::new(0),
                inner: TurnCell::new(Inner {
                    queue: VecDeque::new(),
                    recv_waiters: VecDeque::new(),
                    closed: false,
                }),
            }),
        }
    }

    /// Borrows the queue for an operation of `lane`'s turn holder, binding
    /// the channel to `lane` on its first operation. After that the check
    /// is one plain compare.
    ///
    /// # Panics
    ///
    /// Panics, naming both lanes, if the channel serves another lane.
    #[inline]
    #[track_caller]
    fn inner(&self, lane: LaneKey) -> TurnGuard<'_, Inner<T>> {
        if self.shared.lane.load(Ordering::Relaxed) != lane.raw() {
            self.bind(lane);
        }
        self.shared.inner.borrow_mut()
    }

    /// First operation: claim the channel for `lane`, once. `Relaxed`
    /// suffices because the binding publishes nothing: the loser of a race
    /// panics before it touches the queue, and the winner's queue accesses
    /// are ordered by its lane's turns.
    #[cold]
    #[inline(never)]
    #[track_caller]
    fn bind(&self, lane: LaneKey) {
        if let Err(bound) =
            self.shared
                .lane
                .compare_exchange(0, lane.raw(), Ordering::Relaxed, Ordering::Relaxed)
        {
            let bound = LaneKey::from_raw(bound).expect("a failed bind saw a key");
            let other = if bound.lane() == lane.lane() {
                " of another simulation"
            } else {
                ""
            };
            panic!(
                "SimChannel used from {} but it serves {}{other}: a channel serves \
                 one lane; traffic between lanes goes through Simulation::cross_link",
                lane.lane(),
                bound.lane()
            );
        }
    }

    /// Enqueues `value` and wakes one waiting receiver.
    ///
    /// Receivers woken at one instant run in the order they were sent to
    /// (under [`crate::Simulation::set_schedule_perturbation`], in that
    /// seed's order): a fan-out that sends one frame to many receivers
    /// needs nothing more to keep its pick order.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] with the value if the channel is closed.
    pub fn send(&self, ctx: &Ctx, value: T) -> Result<(), SendError<T>> {
        self.send_on(ctx.lane_key(), &mut ctx.core().state.borrow_mut(), value)
    }

    /// The one send path: enqueues `value` and schedules the first waiting
    /// receiver's wake in `core`, the state of `lane`, whose turn the caller
    /// holds. [`SimChannel::send`] borrows that state through its [`Ctx`];
    /// the cross-lane injector, which runs inside the destination lane's
    /// event loop under its state borrow and has no `Ctx`, passes it in.
    pub(crate) fn send_on(
        &self,
        lane: LaneKey,
        core: &mut CoreState,
        value: T,
    ) -> Result<(), SendError<T>> {
        let mut inner = self.inner(lane);
        if inner.closed {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        if let Some((t, w)) = inner.recv_waiters.pop_front() {
            core.schedule_wake_now(t, w);
        }
        Ok(())
    }

    /// Receives the next message, blocking until one is available.
    ///
    /// Returns `None` once the channel is closed and drained. A daemon
    /// parked here when its [`crate::Simulation`] drops also reads `None`,
    /// once, so its receive loop ends by returning; see
    /// [`SimChannel::recv_until`].
    pub fn recv(&self, ctx: &Ctx) -> Option<T> {
        self.recv_until(ctx, None).ok()
    }

    /// Receives the next message, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// As [`SimChannel::recv_until`].
    pub fn recv_timeout(&self, ctx: &Ctx, timeout: SimDuration) -> Result<T, RecvTimeoutError> {
        self.recv_until(ctx, Some(ctx.now() + timeout))
    }

    /// Receives the next message, waiting until `deadline` at the latest
    /// (`None`: as long as it takes; a deadline already passed times out at
    /// once unless a message is queued).
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if nothing arrived in time,
    /// [`RecvTimeoutError::Closed`] if the channel is closed and drained.
    ///
    /// # Teardown
    ///
    /// When the [`crate::Simulation`] drops, a daemon thread
    /// ([`crate::Simulation::spawn_daemon`]) parked here reads the channel
    /// as closed on that first teardown wake and can leave by returning.
    /// Its next blocking call of any kind unwinds instead, as does a
    /// non-daemon thread parked here: both leave through the simulator's
    /// teardown unwind, which the thread's entry catches.
    pub fn recv_until(&self, ctx: &Ctx, deadline: Option<SimTime>) -> Result<T, RecvTimeoutError> {
        let me = ctx.thread_id();
        loop {
            let mut inner = self.inner(ctx.lane_key());
            if let Some(v) = inner.queue.pop_front() {
                return Ok(v);
            }
            if inner.closed {
                return Err(RecvTimeoutError::Closed);
            }
            let mut core = ctx.core().state.borrow_mut();
            if deadline.is_some_and(|d| core.now >= d) {
                // Deregister: a leftover entry would swallow a future
                // sender's wake and starve a live receiver.
                inner.recv_waiters.retain(|(t, _)| *t != me);
                return Err(RecvTimeoutError::Timeout);
            }
            let wid = core.prepare_block(me, "chan.recv");
            if let Some(d) = deadline {
                core.schedule_wake(d, me, wid);
            }
            inner.recv_waiters.push_back((me, wid));
            drop(inner);
            if ctx.yield_blocked(core) == WakeStatus::Shutdown {
                ctx.shutdown_recv();
                return Err(RecvTimeoutError::Closed);
            }
        }
    }

    /// Closes the channel: future sends fail, receivers drain then observe
    /// closure. Wakes all waiting receivers.
    pub fn close(&self, ctx: &Ctx) {
        let mut inner = self.inner(ctx.lane_key());
        inner.closed = true;
        let mut core = ctx.core().state.borrow_mut();
        for (t, w) in inner.recv_waiters.drain(..) {
            core.schedule_wake_now(t, w);
        }
    }

    /// Number of queued messages.
    pub fn len(&self, ctx: &Ctx) -> usize {
        self.inner(ctx.lane_key()).queue.len()
    }

    /// Returns `true` if no messages are queued.
    pub fn is_empty(&self, ctx: &Ctx) -> bool {
        self.inner(ctx.lane_key()).queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{us, Simulation};

    #[test]
    fn fifo_order_preserved() {
        let mut sim = Simulation::new(1);
        let cpu = sim.add_processor("m0");
        let ch = SimChannel::new();
        let tx = ch.clone();
        sim.spawn(cpu, "producer", move |ctx| {
            for i in 0..10u32 {
                tx.send(ctx, i).expect("open");
                ctx.sleep(us(1));
            }
        });
        let consumer = sim.spawn(cpu, "consumer", move |ctx| {
            for i in 0..10u32 {
                assert_eq!(ch.recv(ctx), Some(i));
            }
        });
        sim.run_until_finished(&consumer).expect("run");
    }

    #[test]
    fn recv_timeout_fires() {
        let mut sim = Simulation::new(1);
        let cpu = sim.add_processor("m0");
        let ch: SimChannel<u8> = SimChannel::new();
        let h = sim.spawn(cpu, "t", move |ctx| {
            let r = ch.recv_timeout(ctx, us(100));
            assert_eq!(r, Err(RecvTimeoutError::Timeout));
            assert_eq!(ctx.now().as_micros_f64(), 100.0);
        });
        sim.run_until_finished(&h).expect("run");
    }

    #[test]
    fn recv_timeout_beats_timer_when_message_arrives() {
        let mut sim = Simulation::new(1);
        let cpu = sim.add_processor("m0");
        let ch = SimChannel::new();
        let tx = ch.clone();
        sim.spawn(cpu, "producer", move |ctx| {
            ctx.sleep(us(30));
            tx.send(ctx, 9u8).expect("open");
        });
        let h = sim.spawn(cpu, "t", move |ctx| {
            let r = ch.recv_timeout(ctx, us(100));
            assert_eq!(r, Ok(9));
            assert_eq!(ctx.now().as_micros_f64(), 30.0);
        });
        sim.run_until_finished(&h).expect("run");
    }

    #[test]
    fn recv_until_a_passed_deadline_returns_queued_messages_first() {
        let mut sim = Simulation::new(1);
        let cpu = sim.add_processor("m0");
        let ch = SimChannel::new();
        let h = sim.spawn(cpu, "t", move |ctx| {
            ctx.sleep(us(10));
            let passed = Some(SimTime::ZERO);
            ch.send(ctx, 7u8).expect("open");
            assert_eq!(ch.recv_until(ctx, passed), Ok(7));
            assert_eq!(ch.recv_until(ctx, passed), Err(RecvTimeoutError::Timeout));
            assert_eq!(ctx.now().as_micros_f64(), 10.0);
        });
        sim.run_until_finished(&h).expect("run");
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let mut sim = Simulation::new(1);
        let cpu = sim.add_processor("m0");
        let ch = SimChannel::new();
        let tx = ch.clone();
        let h = sim.spawn(cpu, "t", move |ctx| {
            tx.send(ctx, 1u8).expect("open");
            tx.close(ctx);
            assert_eq!(tx.send(ctx, 2), Err(SendError(2)));
            assert_eq!(ch.recv(ctx), Some(1));
            assert_eq!(ch.recv(ctx), None);
            assert_eq!(ch.recv_timeout(ctx, us(5)), Err(RecvTimeoutError::Closed));
        });
        sim.run_until_finished(&h).expect("run");
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let mut sim = Simulation::new(1);
        let cpu = sim.add_processor("m0");
        let ch: SimChannel<u8> = SimChannel::new();
        let tx = ch.clone();
        sim.spawn(cpu, "closer", move |ctx| {
            ctx.sleep(us(40));
            tx.close(ctx);
        });
        let h = sim.spawn(cpu, "t", move |ctx| {
            assert_eq!(ch.recv(ctx), None);
            assert_eq!(ctx.now().as_micros_f64(), 40.0);
        });
        sim.run_until_finished(&h).expect("run");
    }

    /// Receivers `0..6`, each blocked on its own channel, and one sender
    /// that sends to them at 10 µs in `SEND_ORDER`. Returns the order in
    /// which the receivers woke.
    fn same_instant_wake_order(perturbation: Option<u64>) -> Vec<usize> {
        const SEND_ORDER: [usize; 6] = [3, 0, 5, 1, 4, 2];
        let mut sim = Simulation::new(1);
        if let Some(seed) = perturbation {
            sim.set_schedule_perturbation(seed);
        }
        let cpu = sim.add_processor("m0");
        let woke = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let chans: Vec<SimChannel<u8>> = (0..6).map(|_| SimChannel::new()).collect();
        for (i, ch) in chans.iter().enumerate() {
            let (ch, woke) = (ch.clone(), std::sync::Arc::clone(&woke));
            sim.spawn(cpu, &format!("rx{i}"), move |ctx| {
                assert_eq!(ch.recv(ctx), Some(7));
                assert_eq!(ctx.now().as_micros_f64(), 10.0);
                woke.lock().expect("log").push(i);
            });
        }
        sim.spawn(cpu, "tx", move |ctx| {
            ctx.sleep(us(10));
            for i in SEND_ORDER {
                chans[i].send(ctx, 7).expect("open");
            }
        });
        sim.run().expect("run");
        let order = woke.lock().expect("log").clone();
        if perturbation.is_none() {
            assert_eq!(
                order, SEND_ORDER,
                "same-instant receivers wake in send order"
            );
        }
        order
    }

    #[test]
    fn same_instant_sends_wake_receivers_in_send_order() {
        same_instant_wake_order(None);
        for seed in [1, 2, 3] {
            let order = same_instant_wake_order(Some(seed));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3, 4, 5], "every receiver woke once");
            assert_eq!(order, same_instant_wake_order(Some(seed)), "seed {seed}");
        }
    }

    #[test]
    fn len_counts_queued_messages() {
        let mut sim = Simulation::new(1);
        let cpu = sim.add_processor("m0");
        let ch = SimChannel::new();
        let h = sim.spawn(cpu, "t", move |ctx| {
            assert!(ch.is_empty(ctx));
            ch.send(ctx, 5u8).expect("open");
            assert_eq!(ch.len(ctx), 1);
            assert_eq!(ch.recv(ctx), Some(5));
            assert!(ch.is_empty(ctx));
        });
        sim.run_until_finished(&h).expect("run");
    }
}
