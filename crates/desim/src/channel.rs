//! FIFO message channels between simulated threads.
//!
//! [`SimChannel`] is the workhorse of the protocol stack: NIC receive queues,
//! daemon-thread inboxes, and reply slots are all channels. A channel is a
//! clonable handle; all clones share the same queue.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::core::{ThreadId, WakeStatus};
use crate::time::{SimDuration, SimTime};
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

/// A receiver wake captured by [`SimChannel::send_deferred`] and not yet
/// scheduled. Commit it (and any siblings, in capture order) with
/// [`Ctx::commit_wakes`]; dropping it instead would strand a blocked
/// receiver until its next timeout.
#[derive(Debug)]
#[must_use = "an uncommitted wake strands the blocked receiver"]
pub struct PendingWake {
    thread: ThreadId,
    wait_id: u64,
}

impl PendingWake {
    pub(crate) fn into_parts(self) -> (ThreadId, u64) {
        (self.thread, self.wait_id)
    }
}

/// An unbounded multi-producer multi-consumer FIFO channel in virtual time.
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
    inner: Arc<Mutex<Inner<T>>>,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for SimChannel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SimChannel")
            .field("len", &inner.queue.len())
            .field("closed", &inner.closed)
            .finish()
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
            inner: Arc::new(Mutex::new(Inner {
                queue: VecDeque::new(),
                recv_waiters: VecDeque::new(),
                closed: false,
            })),
        }
    }

    /// Enqueues `value` and wakes one waiting receiver.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] with the value if the channel is closed.
    pub fn send(&self, ctx: &Ctx, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        if let Some((t, w)) = inner.recv_waiters.pop_front() {
            ctx.core().state.lock().schedule_wake_now(t, w);
        }
        Ok(())
    }

    /// Enqueues `value` like [`SimChannel::send`] but *defers* scheduling
    /// the receiver's wake: if a receiver was blocked, its wake is returned
    /// for the caller to commit via [`Ctx::commit_wakes`].
    ///
    /// This exists for broadcast fan-out: delivering one frame to N group
    /// members costs N scheduler-lock round-trips with plain `send`; with
    /// deferred sends the frames are enqueued first and all wakes are
    /// scheduled in one batch. Committing the wakes in capture order makes
    /// the result bit-identical to the unbatched sequence, because only the
    /// sending thread runs between the enqueue and the commit.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] with the value if the channel is closed.
    pub fn send_deferred(&self, value: T) -> Result<Option<PendingWake>, SendError<T>> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        Ok(inner
            .recv_waiters
            .pop_front()
            .map(|(thread, wait_id)| PendingWake { thread, wait_id }))
    }

    /// Receives the next message, blocking until one is available.
    ///
    /// Returns `None` once the channel is closed and drained.
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
    pub fn recv_until(&self, ctx: &Ctx, deadline: Option<SimTime>) -> Result<T, RecvTimeoutError> {
        let me = ctx.thread_id();
        loop {
            let mut inner = self.inner.lock();
            if let Some(v) = inner.queue.pop_front() {
                return Ok(v);
            }
            if inner.closed {
                return Err(RecvTimeoutError::Closed);
            }
            let mut core = ctx.core().state.lock();
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
                ctx.shutdown_unwind();
                return Err(RecvTimeoutError::Closed);
            }
        }
    }

    /// Closes the channel: future sends fail, receivers drain then observe
    /// closure. Wakes all waiting receivers.
    pub fn close(&self, ctx: &Ctx) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        let mut core = ctx.core().state.lock();
        for (t, w) in inner.recv_waiters.drain(..) {
            core.schedule_wake_now(t, w);
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Returns `true` if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().queue.is_empty()
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

    #[test]
    fn len_counts_queued_messages() {
        let mut sim = Simulation::new(1);
        let cpu = sim.add_processor("m0");
        let ch = SimChannel::new();
        let h = sim.spawn(cpu, "t", move |ctx| {
            assert!(ch.is_empty());
            ch.send(ctx, 5u8).expect("open");
            assert_eq!(ch.len(), 1);
            assert_eq!(ch.recv(ctx), Some(5));
            assert!(ch.is_empty());
        });
        sim.run_until_finished(&h).expect("run");
    }
}
