//! Deterministic worker pool for embarrassingly parallel simulation sweeps.
//!
//! Independent simulations (seed sweeps, benchmark tables, minimizer
//! candidate re-runs) share no state, so they can run on as many cores as
//! the host offers. The only requirement is that parallelism must not leak
//! into results: [`par_map`] hands indices out dynamically (fast workers
//! take more), but slot `i` of the returned vector always holds `f(i)`, so
//! every reduction over the output is byte-identical to a serial run.
//!
//! Built on `std::thread::scope` — no external dependencies, no global
//! pool, workers live only for the duration of one call.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of workers used when the caller requests `0` (auto): the host's
/// available parallelism, or 1 if it cannot be determined.
pub(crate) fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a `--jobs`-style request: `0` means auto-detect (one worker per
/// host core), anything else is taken literally.
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        default_jobs()
    } else {
        requested
    }
}

/// Maps `f` over `0..n` on up to `jobs` worker threads (`0` = auto) and
/// returns the results in index order.
///
/// Work distribution is dynamic and therefore wall-clock dependent, but the
/// output is not: slot `i` always holds `f(i)`. With one effective worker
/// (or fewer than two items) the map runs inline on the caller — the serial
/// path and the parallel path produce identical vectors.
///
/// # Panics
///
/// Propagates the first worker panic after all workers have stopped.
pub fn par_map<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs).min(n.max(1));
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, v) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} computed twice");
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| panic!("index {i} never computed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_job_count() {
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        for jobs in [0, 1, 2, 3, 8, 64] {
            assert_eq!(par_map(jobs, 100, |i| i * i), expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_jobs_than_items() {
        assert_eq!(par_map(32, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn effective_jobs_resolves_auto() {
        assert_eq!(effective_jobs(5), 5);
        assert!(effective_jobs(0) >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = par_map(2, 8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
