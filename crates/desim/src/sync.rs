//! Blocking synchronization primitives for simulated threads.
//!
//! These model *virtual-time* blocking. Regular `parking_lot`/`std` locks
//! must never be held across a simulated block (the scheduler would stall);
//! any state that must stay locked while a thread sleeps, computes, or waits
//! belongs under a [`SimMutex`].
//!
//! Unlike a [`crate::SimChannel`], a `SimMutex` keeps its state under real
//! locks and binds to no lane: nothing stops one from outliving a
//! simulation and serving the next (the test below shares one between two
//! live simulations), so its own state is not any one lane's to own.

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::core::{ThreadId, WakeStatus};
use crate::Ctx;

struct MutexInner<T> {
    state: Mutex<MutexState>,
    data: Mutex<T>,
}

struct MutexState {
    locked: bool,
    owner: Option<ThreadId>,
    waiters: VecDeque<(ThreadId, u64)>,
}

/// A mutual-exclusion lock for simulated threads.
///
/// Clonable handle; all clones refer to the same lock. Lock acquisition is
/// FIFO. All operations take a [`Ctx`] because blocking and waking happen in
/// virtual time.
///
/// # Examples
///
/// ```
/// use desim::{Simulation, SimMutex, us};
///
/// let mut sim = Simulation::new(1);
/// let cpu = sim.add_processor("m0");
/// let counter = SimMutex::new(0u32);
/// for i in 0..3 {
///     let counter = counter.clone();
///     sim.spawn(cpu, &format!("worker{i}"), move |ctx| {
///         let mut g = counter.lock(ctx);
///         *g += 1;
///     });
/// }
/// sim.run().expect("run");
/// ```
pub struct SimMutex<T> {
    inner: Arc<MutexInner<T>>,
}

impl<T> Clone for SimMutex<T> {
    fn clone(&self) -> Self {
        SimMutex {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for SimMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("SimMutex")
            .field("locked", &st.locked)
            .finish()
    }
}

impl<T: Default> Default for SimMutex<T> {
    fn default() -> Self {
        SimMutex::new(T::default())
    }
}

impl<T> SimMutex<T> {
    /// Creates a new unlocked mutex holding `data`.
    pub fn new(data: T) -> Self {
        SimMutex {
            inner: Arc::new(MutexInner {
                state: Mutex::new(MutexState {
                    locked: false,
                    owner: None,
                    waiters: VecDeque::new(),
                }),
                data: Mutex::new(data),
            }),
        }
    }

    /// Acquires the lock, blocking the simulated thread until available.
    pub fn lock<'a>(&'a self, ctx: &'a Ctx) -> SimMutexGuard<'a, T> {
        let me = ctx.thread_id();
        let mut registered = false;
        loop {
            let mut st = self.inner.state.lock();
            if registered && st.owner == Some(me) {
                break; // the releaser handed the lock to us while we slept
            }
            if !st.locked {
                st.locked = true;
                st.owner = Some(me);
                break;
            }
            assert_ne!(st.owner, Some(me), "SimMutex is not reentrant");
            let mut core = ctx.core().state.borrow_mut();
            let wid = core.prepare_block(me, "mutex");
            st.waiters.push_back((me, wid));
            registered = true;
            drop(st);
            if ctx.yield_blocked(core) == WakeStatus::Shutdown {
                ctx.shutdown_unwind();
                // Already unwinding (a destructor re-entered): best-effort
                // force-acquire so teardown can proceed.
                let mut st = self.inner.state.lock();
                st.locked = true;
                st.owner = Some(me);
                break;
            }
        }
        // In normal operation the data lock is always free once the simulated
        // lock has been granted (the previous guard released it first). Only
        // during teardown can it still be held by an unwinding owner.
        let data = self.inner.data.try_lock();
        assert!(
            data.is_some() || ctx.shutdown_raised(),
            "SimMutex data lock unavailable outside teardown"
        );
        SimMutexGuard {
            mutex: self,
            ctx,
            data,
        }
    }

    fn unlock(&self, ctx: &Ctx) {
        let mut st = self.inner.state.lock();
        st.locked = false;
        st.owner = None;
        if let Some((t, w)) = st.waiters.pop_front() {
            // Hand-off: mark locked for the woken thread so nobody barges in.
            st.locked = true;
            st.owner = Some(t);
            ctx.core().state.borrow_mut().schedule_wake_now(t, w);
        }
    }
}

/// RAII guard for [`SimMutex`]; releases the lock when dropped.
pub struct SimMutexGuard<'a, T> {
    mutex: &'a SimMutex<T>,
    ctx: &'a Ctx,
    data: Option<parking_lot::MutexGuard<'a, T>>,
}

impl<T: fmt::Debug> fmt::Debug for SimMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMutexGuard")
            .field("data", self.data.as_deref().expect("guard holds data"))
            .finish()
    }
}

impl<T> Deref for SimMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_deref().expect("guard holds data")
    }
}

impl<T> DerefMut for SimMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_deref_mut().expect("guard holds data")
    }
}

impl<T> Drop for SimMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.data.take();
        self.mutex.unlock(self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{us, Simulation};

    #[test]
    fn mutex_serializes_critical_sections() {
        let mut sim = Simulation::new(7);
        let cpu = sim.add_processor("m0");
        let log = SimMutex::new(Vec::<(u32, u64)>::new());
        for i in 0..4u32 {
            let log = log.clone();
            sim.spawn(cpu, &format!("w{i}"), move |ctx| {
                let mut g = log.lock(ctx);
                let t0 = ctx.now().as_nanos();
                ctx.sleep(us(10)); // hold the lock across a block
                g.push((i, t0));
            });
        }
        sim.run().expect("run");
        // All four entered, strictly serialized 10us apart (FIFO order).
        let mut sim2 = Simulation::new(7);
        let cpu2 = sim2.add_processor("m0");
        let log2 = log.clone();
        let check = sim2.spawn(cpu2, "check", move |ctx| {
            let g = log2.lock(ctx);
            let entries = g.clone();
            assert_eq!(entries.len(), 4);
            for (idx, (i, t0)) in entries.iter().enumerate() {
                assert_eq!(*i as usize, idx);
                assert_eq!(*t0, idx as u64 * 10_000);
            }
        });
        sim2.run_until_finished(&check).expect("check run");
    }
}
