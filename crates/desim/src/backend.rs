//! The name of the one way simulated threads run.
//!
//! Every simulated thread is a stackful fiber on the scheduler's OS thread
//! (see `crate::fiber`); there is nothing to select. `Backend` remains
//! only because the `benchmark/` scoreboard, which is edited on its own,
//! names `Backend::default_backend()` and passes a `Backend` to
//! `apps::fleet::build_fleet`. Both go when the scoreboard stops naming
//! them.

use std::fmt;

/// How simulated threads execute: always as user-space fibers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Every simulated thread is a stackful coroutine on the scheduler's OS
    /// thread, switched in user space (one register save/restore per
    /// hand-off).
    Fibers,
}

impl Backend {
    /// The backend every simulation runs on.
    pub fn default_backend() -> Backend {
        Backend::Fibers
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("fibers")
    }
}
