//! [`TurnCell`]: state owned by whichever party holds a lane's turn.
//!
//! A lane's scheduler state and every [`crate::SimChannel`]'s queue are
//! only ever touched by the party that holds that lane's turn (see
//! "Safety model" in `crate::fiber`): the lane's runner or one of its
//! simulated threads inside a window, the windowed driver between windows,
//! and the `&mut Simulation` owner outside a run. Nothing ever contends, so
//! a lock would only buy two locked read-modify-writes per access. A
//! `TurnCell` is an [`UnsafeCell`] plus a borrow flag written with plain
//! `Relaxed` loads and stores: it never synchronizes anything (the turn
//! hand-offs do that), it only catches a re-entrant borrow — the spot where
//! a mutex would deadlock — and panics there instead.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// A value borrowed only by the holder of its lane's turn; see the module
/// docs.
pub(crate) struct TurnCell<T> {
    borrowed: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: every access goes through `borrow_mut` by the holder of the
// owning lane's turn, and turns never overlap: strict alternation within a
// window, the window gate's release/acquire edges between windows, and
// `&mut Simulation` outside a run ("Safety model" in `crate::fiber`). So
// sharing the cell between OS threads moves `T` between them but never lets
// two of them touch it at once; `T: Send` is what that move needs.
unsafe impl<T: Send> Sync for TurnCell<T> {}

impl<T> TurnCell<T> {
    pub(crate) const fn new(value: T) -> Self {
        TurnCell {
            borrowed: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Borrows the value for the rest of the caller's turn step.
    ///
    /// # Panics
    ///
    /// Panics if the cell is already borrowed — a re-entrant access, which
    /// under a mutex would have deadlocked.
    #[inline]
    #[track_caller]
    pub(crate) fn borrow_mut(&self) -> TurnGuard<'_, T> {
        if self.borrowed.load(Ordering::Relaxed) {
            reentered();
        }
        self.borrowed.store(true, Ordering::Relaxed);
        TurnGuard {
            cell: self,
            _not_send: PhantomData,
        }
    }
}

#[cold]
#[inline(never)]
#[track_caller]
fn reentered() -> ! {
    panic!("turn-owned state borrowed twice: a re-entrant access (a mutex would deadlock here)")
}

/// Exclusive access to a [`TurnCell`]'s value; clears the borrow flag when
/// dropped, unwinding included.
pub(crate) struct TurnGuard<'a, T> {
    cell: &'a TurnCell<T>,
    /// A borrow belongs to the turn that took it.
    _not_send: PhantomData<*mut T>,
}

impl<T> Deref for TurnGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the flag was clear when this guard set it, and only this
        // guard clears it, so no other reference to the value exists.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T> DerefMut for TurnGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for `deref`; `&mut self` makes this borrow unique.
        unsafe { &mut *self.cell.value.get() }
    }
}

impl<T> Drop for TurnGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.borrowed.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};

    #[test]
    #[should_panic(expected = "borrowed twice")]
    fn reentrant_borrow_panics() {
        let cell = TurnCell::new(1u32);
        let _outer = cell.borrow_mut();
        let _inner = cell.borrow_mut();
    }

    #[test]
    fn guard_dropped_while_unwinding_clears_the_flag() {
        let cell = TurnCell::new(Vec::<u32>::new());
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut g = cell.borrow_mut();
            g.push(7);
            panic!("unwinds through the guard");
        }));
        assert!(r.is_err());
        let mut g = cell.borrow_mut();
        g.push(8);
        assert_eq!(*g, [7, 8]);
    }

    #[test]
    fn sequential_borrows_see_each_others_writes() {
        let cell = TurnCell::new(0u64);
        for _ in 0..3 {
            *cell.borrow_mut() += 1;
        }
        assert_eq!(*cell.borrow_mut(), 3);
    }
}
